"""Expected `lca` outputs derived from generator truth, and the checks.

Each check returns a list of mismatch descriptions; an empty list means
the command's output is correct. Expected values are computed here by
direct counting over the generated structure (the holder sets, the
classes, the works), by routes independent of libcat's own code.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from decimal import ROUND_HALF_UP, Decimal

from catalog import Catalog, admits_channel, admits_library

TOLERANCE = 1e-4
KINDS = ("academic", "public", "other")


def _rows(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def _close(cell: str, value: float) -> bool:
    return cell != "" and abs(float(cell) - value) <= TOLERANCE


def _cell(value) -> str:
    return "" if value is None else str(value)


def _percent(count: int, total: int) -> str:
    share = Decimal(count) * 100 / Decimal(total)
    return str(share.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def _first_mismatches(problems: list[str], limit: int = 5) -> list[str]:
    if len(problems) <= limit:
        return problems
    return problems[:limit] + [f"... and {len(problems) - limit} more"]


def average_ranks(values: list[float]) -> list[float]:
    """1-based ranks; equal values share the mean of the positions they span."""
    counts = Counter(values)
    rank, below = {}, 0
    for value in sorted(counts):
        rank[value] = below + (counts[value] + 1) / 2
        below += counts[value]
    return [rank[v] for v in values]


def spearman(xs: list[float], ys: list[float]) -> float:
    rx, ry = average_ranks(xs), average_ranks(ys)
    n = len(rx)
    mx, my = sum(rx) / n, sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    return cov / math.sqrt(sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry))


class AnalyzeTruth:
    """Per-population holder sets and the expected table rows."""

    def __init__(self, catalog: Catalog, units: list[dict]) -> None:
        self.catalog = catalog
        self.units = units
        libraries = {lib["id"]: lib for lib in catalog.libraries}
        # Keyed by "filtered": False is every library, True the FILTER_SPEC population.
        self.holders = {flag: {r["id"]: set() for r in catalog.records} for flag in (False, True)}
        for record_id, library_id, channel in catalog.holdings:
            self.holders[False][record_id].add(library_id)
            if admits_library(libraries[library_id]) and admits_channel(channel):
                self.holders[True][record_id].add(library_id)
        self.n_libraries = {
            False: len(libraries),
            True: sum(admits_library(lib) for lib in catalog.libraries),
        }

    def count(self, filtered: bool, record_id: str) -> int:
        return len(self.holders[filtered][record_id])

    def books(self, filtered: bool) -> list[tuple]:
        """(record, title, count, cnls, rank, class size) in table order; None where blank."""
        by_class: dict[str, list[int]] = {}
        for record in self.catalog.records:
            if "lc" in record:
                by_class.setdefault(record["lc"], []).append(self.count(filtered, record["id"]))
        rank_of: dict[str, dict[int, int]] = {}
        for lc, counts in by_class.items():
            first: dict[int, int] = {}
            for position, count in enumerate(sorted(counts, reverse=True), start=1):
                first.setdefault(count, position)
            rank_of[lc] = first
        rows = []
        for record in self.catalog.records:
            count = self.count(filtered, record["id"])
            lc = record.get("lc")
            cnls = rank = size = None
            if lc is not None:
                counts = by_class[lc]
                mean = sum(counts) / len(counts)
                cnls = count / mean if mean else None
                rank, size = rank_of[lc][count], len(counts)
            rows.append((record["id"], record["title"], count, cnls, rank, size))
        rows.sort(key=lambda row: (-row[2], row[1], row[0]))
        return rows

    def authors(self, filtered: bool) -> list[tuple[str, int, int, int]]:
        """(heading, works, publications, holdings), in table order."""
        headings: dict[str, str] = {}
        totals: dict[str, list[int]] = {}
        for members, names in zip(self.catalog.works, self.catalog.work_authors):
            holders = set().union(*(self.holders[filtered][m] for m in members))
            for name in names:
                key = _fold_variant(name)
                headings[key] = min(headings.get(key, name), name)
            for key in {_fold_variant(name) for name in names}:
                entry = totals.setdefault(key, [0, 0, 0])
                entry[0] += 1
                entry[1] += len(members)
                entry[2] += len(holders)
        rows = [(headings[k], *totals[k]) for k in totals]
        rows.sort(key=lambda row: (-row[3], row[0]))
        return rows


_PLAIN = str.maketrans("öüáéí", "ouaei")


def _fold_variant(name: str) -> str:
    """Undo the generator's diacritic variants: both spellings share one key."""
    return name.translate(_PLAIN)


def check_all_books(truth: AnalyzeTruth, filtered: bool, stdout: str) -> list[str]:
    expected = truth.books(filtered)
    got = _rows(stdout)
    if len(got) != len(expected):
        return [f"all-books: {len(got)} rows, expected {len(expected)}"]
    problems = []
    for row, (record_id, title, count, cnls, rank, size) in zip(got, expected):
        where = f"all-books {record_id}"
        if row["record"] != record_id or row["title"] != title:
            problems.append(f"all-books: row order: got {row['record']}, expected {record_id}")
            continue
        if row["libcitations"] != str(count):
            problems.append(f"{where}: libcitations {row['libcitations']} != {count}")
        if (row["rank"], row["class_size"]) != (_cell(rank), _cell(size)):
            problems.append(f"{where}: rank, class_size {row['rank']}, {row['class_size']} "
                            f"!= {rank}, {size}")
        cnls_ok = row["cnls"] == "" if cnls is None else _close(row["cnls"], cnls)
        if not cnls_ok:
            problems.append(f"{where}: cnls {row['cnls']!r} != {cnls}")
    return _first_mismatches(problems)


def check_authors(truth: AnalyzeTruth, filtered: bool, stdout: str) -> list[str]:
    expected = truth.authors(filtered)
    got = [(r["author"], int(r["works"]), int(r["publications"]), int(r["holdings"]))
           for r in _rows(stdout)]
    if len(got) != len(expected):
        return [f"authors: {len(got)} rows, expected {len(expected)}"]
    return _first_mismatches(
        [f"authors: got {g}, expected {e}" for g, e in zip(got, expected) if g != e])


def check_units(truth: AnalyzeTruth, stdout: str) -> list[str]:
    all_ids = [r["id"] for r in truth.catalog.records]
    benchmark_cir = sum(truth.count(False, r) for r in all_ids) / len(all_ids)
    got = {row["unit"]: row for row in _rows(stdout)}
    if set(got) != {u["id"] for u in truth.units}:
        return [f"units: got units {sorted(got)}"]
    problems = []
    for unit in truth.units:
        row, n = got[unit["id"]], len(unit["members"])
        ci = sum(truth.count(False, m) for m in unit["members"])
        if (row["n_titles"], row["ci"]) != (str(n), str(ci)):
            problems.append(f"unit {unit['id']}: n_titles, ci {row['n_titles']}, {row['ci']} "
                            f"!= {n}, {ci}")
        rates = {"cir": ci / n, "rcir": ci / n / benchmark_cir,
                 "dr": ci / (n * truth.n_libraries[False])}
        for name, value in rates.items():
            if not _close(row[name], value):
                problems.append(f"unit {unit['id']}: {name} {row[name]} != {value}")
    return problems


def _correlation_columns(truth: AnalyzeTruth) -> tuple[list[float], list[float]]:
    cited = [r for r in truth.catalog.records if "citations" in r]
    return ([float(truth.count(False, r["id"])) for r in cited],
            [float(r["citations"]) for r in cited])


def check_correlate(truth: AnalyzeTruth, stdout: str) -> list[str]:
    rho = spearman(*_correlation_columns(truth))
    text = stdout.strip()
    return [] if _close(text, rho) else [f"correlate: printed {text!r}, expected {rho:.6f}"]


def check_correlate_matrix(truth: AnalyzeTruth, stdout: str) -> list[str]:
    rho = spearman(*_correlation_columns(truth))
    rows = {row["metric"]: row for row in _rows(stdout)}
    try:
        cells = [rows["libcitations"]["libcitations"], rows["citations"]["citations"],
                 rows["libcitations"]["citations"], rows["citations"]["libcitations"]]
    except KeyError:
        return [f"correlate --matrix: unexpected table {stdout[:200]!r}"]
    expected = [1.0, 1.0, rho, rho]
    if all(map(_close, cells, expected)):
        return []
    return [f"correlate --matrix: cells {cells} != {expected}"]


def check_report(truth: AnalyzeTruth, stdout: str) -> list[str]:
    composition, _, coverage = stdout.partition("\n\n")
    by_country: dict[str, Counter] = {}
    for lib in truth.catalog.libraries:
        by_country.setdefault(lib["country"], Counter())[lib["kind"]] += 1
    rows = [(country, by_country[country]) for country in sorted(by_country)]
    rows.append(("total", sum(by_country.values(), Counter())))
    expected = [{"country": country, **{k: str(counts[k]) for k in KINDS},
                 "total": str(sum(counts.values()))} for country, counts in rows]
    got = [{k: row[k] for k in ("country", *KINDS, "total")} for row in _rows(composition)]
    problems = [] if got == expected else [
        f"report composition: got {got[:3]}..., expected {expected[:3]}..."]
    n = len(truth.catalog.records)
    covered = {
        "libcitations": sum(1 for r in truth.catalog.records if truth.count(False, r["id"]) > 0),
        "citations": sum(1 for r in truth.catalog.records if r.get("citations", 0) > 0),
    }
    expected_coverage = [{"metric": m, "covered": str(c), "total": str(n), "pct": _percent(c, n)}
                         for m, c in covered.items()]
    if _rows(coverage) != expected_coverage:
        problems.append(f"report coverage: got {_rows(coverage)}, expected {expected_coverage}")
    return problems


_COUNTS = re.compile(r"(\w+)=(\d+)")


def printed_counts(stdout: str) -> dict[str, int]:
    """The key=value integers of the summary line that ingest and fetch print."""
    lines = [line for line in stdout.splitlines() if "=" in line]
    return {k: int(v) for k, v in _COUNTS.findall(lines[-1])} if lines else {}


def check_counts(label: str, stdout: str, expected: dict[str, int]) -> list[str]:
    got = printed_counts(stdout)
    return [f"{label}: {k}={got.get(k)} expected {v}"
            for k, v in expected.items() if got.get(k) != v]


def dataset_record_count(path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.startswith('{"t":"R"'))
