"""Whole-pipeline relations that need no oracle: the loader, filter, view
and renderer composed through `cli.run`, on generated catalogs."""

import contextlib
import gc
import io
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import datasets
from libcat.cli import run
from libcat.errors import DatasetError, IntegrityError
from libcat.ingest import load_dataset, save_dataset

FILTER = "country=US,GB;kind=academic;exclude-channel=donation"
ANALYSES = (
    ("indicators", "--all-books"),
    ("indicators", "--all-books", "--filter", FILTER),
    ("indicators", "--authors"),
    ("indicators", "--authors", "--filter", FILTER),
    ("indicators", "--unit", "@all", "--benchmark", "@all"),
    ("correlate",),
    ("correlate", "--matrix"),
    ("report",),
)


def outputs(path: Path) -> list[tuple[int, str]]:
    """Exit code and standard output of every analysis command in every format."""
    results = []
    for analysis in ANALYSES:
        for fmt in ("csv", "md", "jsonl"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = run([*analysis, "--dataset", str(path), "--output", fmt])
            results.append((code, out.getvalue()))
    return results


def check_line_order_and_round_trip(snapshot, rng: random.Random) -> None:
    """Shuffled lines give every command the same output, and saving what
    either file loads gives back the saved bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        saved, shuffled, again = (Path(tmp) / name for name in ("saved", "shuffled", "again"))
        save_dataset(snapshot, saved)
        lines = saved.read_text(encoding="utf-8").splitlines(keepends=True)
        rng.shuffle(lines)
        shuffled.write_text("".join(lines), encoding="utf-8")
        assert outputs(shuffled) == outputs(saved)
        for source in (saved, shuffled):
            save_dataset(load_dataset(source), again)
            assert again.read_bytes() == saved.read_bytes()


@pytest.mark.parametrize(
    "build", [datasets.single_author_editions, datasets.diffusion_study],
    ids=lambda build: build.__name__,
)
def test_line_order_and_round_trip_on_fixed_catalogs(build):
    check_line_order_and_round_trip(build(), random.Random(11))


@settings(max_examples=15, deadline=None)
@given(st.randoms(use_true_random=False))
def test_line_order_and_round_trip_on_random_catalogs(rng):
    check_line_order_and_round_trip(datasets.random_snapshot(rng), rng)


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_load_leaves_the_collector_as_it_found_it(tmp_path, enabled):
    good, bad_line, bad_reference = (tmp_path / name for name in ("good", "line", "reference"))
    save_dataset(datasets.single_author_editions(), good)
    bad_line.write_text('{"t":"H","record":"r1"}\n', encoding="utf-8")
    bad_reference.write_text('{"t":"H","record":"r1","library":"l1"}\n', encoding="utf-8")
    caller = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        load_dataset(good)
        state_after_load = gc.isenabled()
        with pytest.raises(DatasetError):
            load_dataset(bad_line)
        state_after_bad_line = gc.isenabled()
        with pytest.raises(IntegrityError):
            load_dataset(bad_reference)
        state_after_bad_reference = gc.isenabled()
    finally:
        (gc.enable if caller else gc.disable)()
    assert state_after_load is state_after_bad_line is state_after_bad_reference is enabled
