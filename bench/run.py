"""Seeded end-to-end and per-layer benchmark of the `lca` command.

Usage, from the repository root:

    python3 bench/run.py --workload analyze_skewed --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 5 --scale tiny

Workloads (closed loop: each command starts after the previous exits):

  analyze_skewed  the read path: every indicator, correlate and report
                  over a catalog with one giant class and Zipf authors
  ingest_write    the write path: MARC-XML into a fresh dataset, then a
                  partly overlapping Dublin Core export merged into it
  harvest_replay  the network path: `lca fetch --all --parallelism 2`
                  against a replay server with a fixed request delay

With `--trace 0` each command runs as an `lca` subprocess and the run
reports end-to-end metrics. With `--trace 1` the same commands run
in-process through `libcat.cli.run`, once plain and once with every
layer wrapped (see tracing.py), and the run reports per-layer metrics.
The commands of a pass repeat until `--seconds` have passed; each
command's time is its median over its runs, and `pass_s` sums those
medians. Every command's output is checked against the generator's
truth (see checks.py). An operation is one command run, or for
harvest_replay one planned lookup; a failed check fails them all.

The second-to-last line of standard output is the run's metadata and
full metric set, each with its unit and sample count; the last line is
the result: {"correct", "attempted", "failed", "metrics"}. The exit code
is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
COMMAND_TIMEOUT_S = 150

sys.path.insert(0, str(Path(__file__).resolve().parent))

import catalog  # noqa: E402
import checks  # noqa: E402
from tracing import Tracer  # noqa: E402


@dataclass
class Command:
    """One `lca` invocation of a pass and the check of its standard output."""

    metric: str
    argv: list[str]
    check: Callable[[str], list[str]]
    before: Optional[Callable[[], None]] = None


@dataclass
class Outcome:
    seconds: float
    rss_mb: float
    problems: list[str]


@dataclass
class Workload:
    commands: list[Command]
    ops_per_command: int
    scale: dict
    server: object = None
    requests: int = 0  # requests the replay server saw during the last fetch

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None


# --- workloads ---------------------------------------------------------------

def setup_analyze(work: Path, seed: int, scale: str) -> Workload:
    cat = catalog.analyze_catalog(seed, scale)
    units = catalog.analyze_units(cat, seed, catalog.ANALYZE_SCALES[scale]["units"])
    dataset, units_path = work / "catalog.jsonl", work / "units.jsonl"
    cat.write(dataset)
    catalog.write_jsonl(units_path, units)
    truth = checks.AnalyzeTruth(cat, units)
    base = ["--dataset", str(dataset), "--output", "jsonl"]
    flt = ["--filter", catalog.FILTER_SPEC]
    unit_args = [arg for u in units for arg in ("--unit", u["id"])]
    commands = [
        Command("all_books_s", ["indicators", "--all-books", *base],
                lambda out: checks.check_all_books(truth, False, out)),
        Command("all_books_filtered_s", ["indicators", "--all-books", *base, *flt],
                lambda out: checks.check_all_books(truth, True, out)),
        Command("authors_s", ["indicators", "--authors", *base],
                lambda out: checks.check_authors(truth, False, out)),
        Command("authors_filtered_s", ["indicators", "--authors", *base, *flt],
                lambda out: checks.check_authors(truth, True, out)),
        Command("units_s", ["indicators", "--units", str(units_path), *unit_args,
                            "--benchmark", "@all", *base],
                lambda out: checks.check_units(truth, out)),
        Command("correlate_s", ["correlate", *base],
                lambda out: checks.check_correlate(truth, out)),
        Command("correlate_s", ["correlate", "--matrix", *base],
                lambda out: checks.check_correlate_matrix(truth, out)),
        Command("report_s", ["report", *base], lambda out: checks.check_report(truth, out)),
    ]
    return Workload(commands, 1, dict(cat.scale, units=len(units)))


def setup_ingest(work: Path, seed: int, scale: str) -> Workload:
    inputs = catalog.ingest_inputs(seed, scale)
    marc, dc, dataset = work / "export.marcxml", work / "export.dc.xml", work / "ingested.jsonl"
    marc.write_text(inputs.marc_xml, encoding="utf-8")
    dc.write_text(inputs.dublin_core_xml, encoding="utf-8")

    def fresh_dataset() -> None:
        dataset.unlink(missing_ok=True)

    def check_merge(out: str) -> list[str]:
        expected = dict(accepted=inputs.dc_accepted, rejected=inputs.dc_rejected)
        problems = checks.check_counts("ingest dublincore", out, expected)
        merged = checks.dataset_record_count(dataset)
        if merged != inputs.merged_records:
            problems.append(f"ingest merge: dataset holds {merged} records, "
                            f"expected {inputs.merged_records}")
        return problems

    def check_marc(out: str) -> list[str]:
        expected = dict(accepted=inputs.marc_accepted, rejected=inputs.marc_rejected)
        return checks.check_counts("ingest marcxml", out, expected)

    commands = [
        Command("ingest_marcxml_s", ["ingest", "--format", "marcxml", "--input", str(marc),
                                     "--dataset", str(dataset)], check_marc, before=fresh_dataset),
        Command("ingest_merge_s", ["ingest", "--format", "dublincore", "--input", str(dc),
                                   "--dataset", str(dataset)], check_merge),
    ]
    return Workload(commands, 1, inputs.scale)


def setup_harvest(work: Path, seed: int, scale: str) -> Workload:
    from libcat.ingest import load_dataset
    from replay import REQUEST_DELAY_S, ReplayServer

    inputs = catalog.harvest_inputs(seed, scale)
    served, pristine = work / "served.jsonl", work / "records.jsonl"
    dataset, quota = work / "harvested.jsonl", work / "quota.json"
    inputs.server.write(served)
    catalog.write_jsonl(pristine, inputs.dataset_records)
    server = ReplayServer(load_dataset(served))
    before_counts = {}

    def reset() -> None:
        shutil.copyfile(pristine, dataset)
        quota.unlink(missing_ok=True)
        before_counts.update(requests=server.request_count, not_found=server.not_found)

    def check_fetch(out: str) -> list[str]:
        expected = inputs.expected
        printed = ("fetched", "skipped", "errors", "holdings", "libraries")
        problems = checks.check_counts("fetch", out, {k: expected[k] for k in printed})
        requests = server.request_count - before_counts["requests"]
        not_found = server.not_found - before_counts["not_found"]
        used = checks.printed_counts(out).get("quota_used")
        if not requests == used == expected["requests"]:
            problems.append(f"fetch: server saw {requests} requests, quota used {used}, "
                            f"expected {expected['requests']}")
        if not_found != expected["not_found"]:
            problems.append(f"fetch: server answered {not_found} lookups with 404, "
                            f"expected {expected['not_found']}")
        workload.requests = requests
        return problems

    commands = [Command("fetch_s", ["fetch", "--all", "--parallelism", "2", "--quota-state",
                                    str(quota), "--base-url", server.base_url,
                                    "--dataset", str(dataset)], check_fetch, before=reset)]
    workload = Workload(commands, inputs.expected["fetched"],
                        dict(inputs.scale, request_delay_ms=REQUEST_DELAY_S * 1000), server)
    return workload


SETUPS = {"analyze_skewed": setup_analyze, "ingest_write": setup_ingest,
          "harvest_replay": setup_harvest}


# --- running commands ----------------------------------------------------------

def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_subprocess(command: Command, work: Path) -> Outcome:
    """Run one command as `python -m libcat.cli`; time it and read its peak RSS."""
    if command.before:
        command.before()
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "libcat.cli", *command.argv],
                                stdout=out, stderr=err, cwd=work, env=_env())
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(encoding="utf-8")
    problems = []
    if proc.returncode != 0:
        stderr = err_path.read_text(encoding="utf-8")[-300:]
        problems.append(f"{command.argv[0]} exited {proc.returncode}: {stderr}")
    problems += command.check(stdout)
    return Outcome(seconds, usage.ru_maxrss / 1024, problems)


def run_in_process(command: Command) -> Outcome:
    """Run one command through `libcat.cli.run` in this process."""
    from libcat import cli

    if command.before:
        command.before()
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(command.argv)
    seconds = time.perf_counter() - start
    problems = [] if code == 0 else [f"{command.argv[0]} returned {code}: {err.getvalue()[-300:]}"]
    return Outcome(seconds, 0.0, problems + command.check(out.getvalue()))


# --- measuring -------------------------------------------------------------------

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, workload: Workload, outcome: Outcome) -> None:
        self.attempted += workload.ops_per_command
        self.failed += workload.ops_per_command if outcome.problems else 0
        self.problems.extend(outcome.problems[: 10 - len(self.problems)])


def median_metric(samples: list[float], unit: str) -> dict:
    return {"value": statistics.median(samples), "unit": unit, "samples": len(samples)}


def measure_end_to_end(workload: Workload, work: Path, seconds: float, tally: Tally) -> dict:
    """Cycle through the pass's commands until `seconds` have passed, ending
    at a command boundary once every command has run at least once."""
    commands = workload.commands
    samples: list[list[float]] = [[] for _ in commands]
    rss: list[float] = []
    start, done = time.perf_counter(), 0
    while done < len(commands) or time.perf_counter() - start < seconds:
        index = done % len(commands)
        outcome = run_subprocess(commands[index], work)
        tally.add(workload, outcome)
        samples[index].append(outcome.seconds)
        rss.append(outcome.rss_mb)
        done += 1
    medians = [statistics.median(s) for s in samples]
    metrics: dict[str, dict] = {}
    for command, median, runs in zip(commands, medians, samples):
        entry = metrics.setdefault(command.metric,
                                   {"value": 0.0, "unit": "s", "samples": len(runs)})
        entry["value"] += median
        entry["samples"] = min(entry["samples"], len(runs))
    # Summing per-command medians drops a slow outlier of any one command.
    metrics["pass_s"] = {"value": sum(medians), "unit": "s", "samples": min(map(len, samples))}
    metrics["peak_rss_mb"] = {"value": max(rss), "unit": "MB", "samples": len(rss)}
    return metrics


def import_seconds() -> list[float]:
    code = "import time; t = time.perf_counter(); import libcat.cli; print(time.perf_counter() - t)"
    return [float(subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True,
                                 text=True, check=True, timeout=60).stdout)
            for _ in range(IMPORT_REPEATS)]


PER_LAYER_UNITS = {"calls": "count", "lines": "count", "bytes": "bytes", "rows": "count"}


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return PER_LAYER_UNITS.get(name.rsplit(".", 1)[-1], "count")


def measure_layers(workload: Workload, tracer: Tracer, seconds: float, tally: Tally,
                   spans_path: Path) -> dict:
    plain, traced, layer_samples = [], [], {}

    def one_pair() -> None:
        for is_traced in (False, True):
            tracer.reset()
            if is_traced:
                tracer.install()
            try:
                start = time.perf_counter()
                outcomes = [run_in_process(c) for c in workload.commands]
                elapsed = time.perf_counter() - start
            finally:
                tracer.uninstall()
            for outcome in outcomes:
                tally.add(workload, outcome)
            (traced if is_traced else plain).append(elapsed)
        values = tracer.metrics()
        values["fixture.requests"] = workload.requests
        for name, value in values.items():
            layer_samples.setdefault(name, []).append(value)

    # Whole pairs only, as many as fit: a traced pass is the unit of the
    # per-layer numbers.
    start, pairs = time.perf_counter(), 0
    while pairs == 0 or (time.perf_counter() - start) * (pairs + 1) / pairs <= seconds:
        one_pair()
        pairs += 1
    tracer.dump(spans_path)
    metrics = {name: median_metric(v, _layer_unit(name)) for name, v in layer_samples.items()}
    metrics["cli.import_s"] = median_metric(import_seconds(), "s")
    overhead = statistics.median(traced) / statistics.median(plain)
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio", "samples": len(traced)}
    return metrics


# --- one run -----------------------------------------------------------------------

def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_workload(name: str, why: str, seed: int, seconds: float, trace: bool,
                 scale: str) -> tuple[dict, Tally]:
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup_times, workload = [], None
    tally = Tally()
    try:
        for _ in range(SETUP_REPEATS):
            if workload is not None:
                workload.close()
            gc.collect()
            start = time.perf_counter()
            workload = SETUPS[name](work, seed, scale)
            setup_times.append(time.perf_counter() - start)
        if trace:
            tracer = Tracer()
            if workload.server is not None:
                workload.server.tracer = tracer
            metrics = measure_layers(workload, tracer, seconds, tally, WORK / f"spans-{name}.jsonl")
        else:
            metrics = {"setup_s": median_metric(setup_times, "s"),
                       **measure_end_to_end(workload, work, seconds, tally)}
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(work, ignore_errors=True)
    metrics["error_rate"] = {"value": tally.failed / tally.attempted, "unit": "ratio",
                             "samples": tally.attempted}
    metadata = {
        "workload": name, "why": why, "seed": seed, "trace": int(trace), "seconds": seconds,
        "scale": dict(workload.scale, level=scale), "python": platform.python_version(),
        "git_sha": git_sha(), "nproc": os.cpu_count(), "metrics": metrics,
        "problems": tally.problems,
    }
    return metadata, tally


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*SETUPS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if not (SRC / "libcat" / "cli.py").is_file():
        print(f"error: no libcat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = [m["name"] for m in benchmark["per_layer" if args.trace else "end_to_end"]]
    whys = {w["name"]: w["why"] for w in benchmark["workloads"]}
    names = list(SETUPS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    reported: dict[str, dict] = {}
    for name in names:
        metadata, tally = run_workload(name, whys[name], args.seed, args.seconds,
                                       bool(args.trace), args.scale)
        print(json.dumps(metadata, sort_keys=True))
        attempted += tally.attempted
        failed += tally.failed
        prefix = f"{name}." if len(names) > 1 else ""
        for metric in wanted:
            value = metadata["metrics"][metric]
            reported[prefix + metric] = {"value": value["value"], "unit": value["unit"]}
        for problem in tally.problems:
            print(f"check failed [{name}]: {problem}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
