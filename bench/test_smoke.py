"""Smoke test of the benchmark at tiny scale; runs in seconds.

    PYTHONPATH=src python -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import catalog
import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("analyze_skewed", "ingest_write", "harvest_replay")
COUNTS = ("identifiers.fold_text.calls", "model.apply_filter.calls", "model.snapshot_builds",
          "indicators.cnls.calls", "indicators.author_profile.calls",
          "client.quota_consume.calls", "fixture.requests", "render.rows", "ingest.accepted",
          "ingest.rejected")


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def tiny(seed: int, seconds: int, trace: int) -> tuple[list[dict], dict]:
    proc = run_bench("--workload", "all", "--seed", str(seed), "--seconds", str(seconds),
                     "--scale", "tiny", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return [json.loads(line) for line in lines[:-1]], json.loads(lines[-1])


def test_all_workloads_pass_their_checks_and_report_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        metadata, final = tiny(3, 1, trace)
        assert final["correct"] and final["failed"] == 0 and final["attempted"] > 0
        assert [m["workload"] for m in metadata] == list(WORKLOADS)
        for name in WORKLOADS:
            for metric in spec[key]:
                assert final["metrics"][f"{name}.{metric['name']}"]["unit"] == metric["unit"]
        for meta in metadata:
            assert meta["metrics"]["error_rate"]["value"] == 0
            assert {"seed", "scale", "why", "python", "git_sha", "nproc"} <= set(meta)


def test_count_metrics_repeat_for_one_seed():
    first, second = (tiny(5, 0, 1)[1]["metrics"] for _ in range(2))
    for name in WORKLOADS:
        for count in COUNTS:
            assert first[f"{name}.{count}"] == second[f"{name}.{count}"], count
    requests = first["harvest_replay.fixture.requests"]
    assert requests == first["harvest_replay.client.quota_consume.calls"]


def test_checks_catch_a_wrong_table():
    cat = catalog.analyze_catalog(2, "tiny")
    truth = checks.AnalyzeTruth(cat, catalog.analyze_units(cat, 2, 3))
    rows = truth.authors(False)

    def table() -> str:
        return "\n".join(json.dumps({"author": h, "works": str(w), "publications": str(p),
                                     "holdings": str(n)}) for h, w, p, n in rows)

    assert checks.check_authors(truth, False, table()) == []
    heading, works, publications, holdings = rows[0]
    rows[0] = (heading, works, publications, holdings + 1)
    assert checks.check_authors(truth, False, table()) != []
    assert checks.check_correlate(truth, "2.0000") != []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "ingest_write", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
