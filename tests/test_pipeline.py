"""Whole-pipeline relations that need no oracle: the loader, filter, view
and renderer composed through `cli.run`, on generated catalogs."""

import contextlib
import errno
import gc
import importlib.util
import io
import json
import random
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import datasets
from libcat import ingest
from libcat.cli import run
from libcat.errors import DatasetError, IntegrityError
from libcat.ingest import load_dataset, merge_snapshots, save_dataset
from libcat.model import CatalogSnapshot, LibraryFilter, LibraryOrg

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


def command(*argv: str) -> tuple[int, str]:
    """Exit code and standard output of one `lca` command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(list(argv))
    return code, out.getvalue()


def outputs(path: Path, analyses=ANALYSES) -> list[tuple[int, str]]:
    """Exit code and standard output of each analysis command in every format."""
    return [
        command(*analysis, "--dataset", str(path), "--output", fmt)
        for analysis in analyses
        for fmt in ("csv", "md", "jsonl")
    ]


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


def overlapping_halves(snapshot, rng: random.Random) -> list[CatalogSnapshot]:
    """Two snapshots, sharing some entities, whose union is `snapshot`.
    Each entity goes to one half or both; a holding takes its record and
    library with it."""
    records = {record.record_id: record for record in snapshot.records}
    libraries = {library.library_id: library for library in snapshot.libraries}
    halves = [(set(), set(), []), (set(), set(), [])]

    def sides():
        return rng.choice((halves[:1], halves[1:], halves))

    for record_id in records:
        for record_ids, _, _ in sides():
            record_ids.add(record_id)
    for library_id in libraries:
        for _, library_ids, _ in sides():
            library_ids.add(library_id)
    for triple in snapshot.holdings():
        for record_ids, library_ids, holdings in sides():
            record_ids.add(triple[0])
            library_ids.add(triple[1])
            holdings.append(triple)
    return [
        CatalogSnapshot(
            [records[i] for i in record_ids], [libraries[i] for i in library_ids], holdings
        )
        for record_ids, library_ids, holdings in halves
    ]


def check_merge_of_halves(snapshot, rng: random.Random) -> None:
    """Merging two overlapping halves, in either order or through `lca
    ingest`, gives back the whole."""
    first, second = overlapping_halves(snapshot, rng)
    assert merge_snapshots(first, second) == snapshot
    assert merge_snapshots(second, first) == snapshot
    with tempfile.TemporaryDirectory() as tmp:
        whole, dataset, delta = (Path(tmp) / name for name in ("whole", "dataset", "delta"))
        for half, path in ((snapshot, whole), (first, dataset), (second, delta)):
            save_dataset(half, path)
        code, _ = command(
            "ingest", "--format", "jsonl", "--input", str(delta), "--dataset", str(dataset)
        )
        # only a delta that holds nothing is refused, and then the first half is the whole
        assert code == (0 if second.n_records or second.n_libraries or second.n_holdings else 2)
        assert dataset.read_bytes() == whole.read_bytes()


IDLE_SAFE = ANALYSES[:4] + ANALYSES[5:7]  # every analysis but units and report


def check_idle_library(snapshot) -> None:
    """A library with no holdings leaves libcitations, CNLS, ranks,
    author rows and correlations as they were, and scales DR by n/(n+1)."""
    idle = LibraryOrg("idle-library", "Idle", "US", "academic")  # FILTER admits it
    assert snapshot.get_library(idle.library_id) is None
    with_idle = CatalogSnapshot(
        snapshot.records, (*snapshot.libraries, idle), snapshot.holdings()
    )
    with tempfile.TemporaryDirectory() as tmp:
        before, after = Path(tmp) / "before", Path(tmp) / "after"
        save_dataset(snapshot, before)
        save_dataset(with_idle, after)
        assert outputs(after, IDLE_SAFE) == outputs(before, IDLE_SAFE)
        if not (snapshot.n_records and snapshot.n_libraries):
            return  # DR is undefined before, so there is nothing to scale
        units = ("indicators", "--unit", "@all", "--benchmark", "@all", "--output", "jsonl")
        (code, old), (new_code, new) = (
            command(*units, "--dataset", str(path)) for path in (before, after)
        )
    assert new_code == code
    if code != 0:  # no holdings: a zero benchmark CIR, before and after
        assert new == old
        return
    old_row, new_row = json.loads(old), json.loads(new)
    n = snapshot.n_libraries
    # DR prints 4 places, so each side is off by at most 0.00005
    assert abs(float(new_row.pop("dr")) - float(old_row.pop("dr")) * n / (n + 1)) <= 1.0001e-4
    assert new_row == old_row


UNFILTERED = tuple(analysis for analysis in ANALYSES if "--filter" not in analysis)
FILTER_FLAGS = (
    ("country", "countries"),
    ("kind", "kinds"),
    ("member", "required_memberships"),
    ("exclude-channel", "excluded_channels"),
)
# Not a character of any generated id, title or name, so it marks the id cells.
RELABEL = "#"


def filter_spec(library_filter: LibraryFilter) -> str:
    """The --filter text for a LibraryFilter."""
    return ";".join(
        f"{flag}={','.join(sorted(getattr(library_filter, name)))}"
        for flag, name in FILTER_FLAGS
        if getattr(library_filter, name) is not None
    )


def deleted(snapshot, library_filter: LibraryFilter) -> CatalogSnapshot:
    """The snapshot without the libraries the filter excludes and without
    the holdings of an excluded channel, read straight off its fields."""
    countries, kinds, members, channels = (
        getattr(library_filter, name) for _, name in FILTER_FLAGS
    )
    libraries = [
        library
        for library in snapshot.libraries
        if (countries is None or library.country in countries)
        and (kinds is None or library.kind in kinds)
        and (members is None or members <= library.memberships)
    ]
    kept = {library.library_id for library in libraries}
    holdings = [
        holding
        for holding in snapshot.holdings()
        if holding.library_id in kept and (channels is None or holding.channel not in channels)
    ]
    return CatalogSnapshot(snapshot.records, libraries, holdings)


def relabelled(snapshot) -> CatalogSnapshot:
    """The snapshot with RELABEL before every record and library id, a
    renaming that keeps the ids' order."""
    return CatalogSnapshot(
        [record._replace(record_id=RELABEL + record.record_id) for record in snapshot.records],
        [lib._replace(library_id=RELABEL + lib.library_id) for lib in snapshot.libraries],
        [
            (RELABEL + record_id, RELABEL + library_id, channel)
            for record_id, library_id, channel in snapshot.holdings()
        ],
    )


def check_filter_is_deletion_and_relabelling(snapshot, library_filter: LibraryFilter) -> None:
    """Every analysis under --filter F prints what it prints on the
    dataset with F's exclusions deleted, and relabelling the ids, with or
    without the filter, changes nothing but the id cells."""
    flag = ("--filter", filter_spec(library_filter))
    filtered = tuple((*analysis, *flag) for analysis in UNFILTERED)
    with tempfile.TemporaryDirectory() as tmp:
        whole, cut, whole_renamed, cut_renamed = (
            Path(tmp) / name for name in ("whole", "cut", "whole_renamed", "cut_renamed")
        )
        kept = deleted(snapshot, library_filter)
        for source, path in (
            (snapshot, whole),
            (kept, cut),
            (relabelled(snapshot), whole_renamed),
            (relabelled(kept), cut_renamed),
        ):
            save_dataset(source, path)
        under_filter = outputs(whole, filtered)
        assert under_filter == outputs(cut, UNFILTERED)
        for path, analyses, want in (
            (whole_renamed, filtered, under_filter),
            (cut_renamed, UNFILTERED, under_filter),
        ):
            got = outputs(path, analyses)
            assert [(code, out.replace(RELABEL, "")) for code, out in got] == want
    assert not any(RELABEL in out for _, out in under_filter)


def bench_tiny_catalog() -> CatalogSnapshot:
    """The benchmark's seeded `tiny` analysis catalog (bench/catalog.py)."""
    spec = importlib.util.spec_from_file_location(
        "bench_catalog", Path(__file__).resolve().parent.parent / "bench" / "catalog.py"
    )
    catalog = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(catalog)  # its dataclasses look the module up by name
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "catalog.jsonl"
        catalog.analyze_catalog(1, "tiny").write(path)
        return load_dataset(path)


@pytest.mark.parametrize(
    "build", [datasets.single_author_editions, datasets.diffusion_study, bench_tiny_catalog],
    ids=lambda build: build.__name__,
)
def test_merge_and_idle_library_on_fixed_catalogs(build):
    snapshot = build()
    check_merge_of_halves(snapshot, random.Random(12))
    check_idle_library(snapshot)


@settings(max_examples=15, deadline=None)
@given(st.randoms(use_true_random=False))
def test_merge_and_idle_library_on_random_catalogs(rng):
    snapshot = datasets.random_snapshot(rng)
    check_merge_of_halves(snapshot, rng)
    check_idle_library(snapshot)


FIXED_FILTERS = (
    LibraryFilter(
        countries={"US", "GB"}, kinds={"academic"}, excluded_channels={"donation"}
    ),
    LibraryFilter(required_memberships={"ARL"}, excluded_channels={"pda", "package"}),
)


@pytest.mark.parametrize(
    "build", [datasets.diffusion_study, bench_tiny_catalog], ids=lambda build: build.__name__
)
def test_filter_is_deletion_and_relabelling_on_fixed_catalogs(build):
    snapshot = build()
    for library_filter in FIXED_FILTERS:
        check_filter_is_deletion_and_relabelling(snapshot, library_filter)


@settings(max_examples=15, deadline=None)
@given(st.randoms(use_true_random=False))
def test_filter_is_deletion_and_relabelling_on_random_catalogs(rng):
    snapshot = datasets.random_snapshot(rng)
    check_filter_is_deletion_and_relabelling(snapshot, datasets.random_filter(rng))


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


def streams(path: Path, analyses=ANALYSES) -> list[tuple[int, str, str]]:
    """Exit code, standard output and standard error of each analysis in
    every format."""
    results = []
    for analysis in analyses:
        for fmt in ("csv", "md", "jsonl"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run([*analysis, "--dataset", str(path), "--output", fmt])
            results.append((code, out.getvalue(), err.getvalue()))
    return results


def check_sidecar_changes_no_output(snapshot) -> None:
    """Every analysis, in every format, prints the same bytes, on both
    streams, and exits the same when the load misses the snapshot sidecar
    (and writes it), when it hits, and when the sidecar cannot be written."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "catalog.jsonl"
        sidecar = Path(tmp) / "catalog.jsonl.snap"
        save_dataset(snapshot, path)
        on_miss = []
        for analysis in ANALYSES:
            sidecar.unlink(missing_ok=True)
            on_miss += streams(path, (analysis,))
            assert sidecar.is_file()
        with mock.patch.object(ingest, "_decode_line") as decode:
            assert streams(path) == on_miss
        assert not decode.called
        sidecar.unlink()
        refused = OSError(errno.EROFS, "read-only file system")
        with mock.patch.object(ingest, "_write_atomic", side_effect=refused):
            assert streams(path) == on_miss
        assert not sidecar.exists()


@pytest.mark.parametrize(
    "build", [datasets.single_author_editions, datasets.diffusion_study, bench_tiny_catalog],
    ids=lambda build: build.__name__,
)
def test_sidecar_changes_no_output_on_fixed_catalogs(build):
    check_sidecar_changes_no_output(build())


@settings(max_examples=10, deadline=None)
@given(datasets.text_catalogs())
def test_sidecar_changes_no_output_on_any_text(snapshot):
    check_sidecar_changes_no_output(snapshot)
