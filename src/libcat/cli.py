"""Command-line surface for reproducible batch runs.

Commands: ingest, fetch, indicators, correlate, report. Shared flags:
--dataset PATH (the canonical dataset file) and --output {csv,md,jsonl}.
The analysis commands (indicators, correlate, report) also take
--filter SPEC, the library population filter, in one grammar.

Filter grammar, clauses joined by ';', values by ',':

    country=US,GB;kind=academic;member=ARL;exclude-channel=donation

Client settings for fetch come from flags or environment variables
(flags win): LCA_BASE_URL, LCA_API_KEY, LCA_QUOTA, LCA_QUOTA_STATE.

Exit codes: 0 success; 1 unreadable input; 2 nothing to work on (zero
accepted records, empty dataset, or too little data to correlate);
3 quota exhausted mid-fetch after a partial merge; 4 unresolved unit or
author; 5 constant metric column; 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from .client import (
    DEFAULT_QUOTA_LIMIT,
    CatalogClient,
    QuotaStore,
    harvest,
)
from .errors import (
    AuthorNotFoundError,
    ConstantInputError,
    DatasetError,
    IntegrityError,
    IsbnError,
    ParseError,
    QuotaStateError,
    SampleSizeError,
    UndefinedRateError,
    UnknownTargetError,
)
from .identifiers import normalize_isbn
from .indicators import (
    METRICS,
    author_profile,
    author_profiles,
    book_indicators,
    composition_report,
    coverage_report,
    metric_columns,
    unit_report,
)
from .ingest import (
    ParseReport,
    load_dataset,
    merge_snapshots,
    parse_dublin_core,
    parse_marc_xml,
    save_dataset,
)
from .model import (
    AggregateUnit,
    CatalogSnapshot,
    LibraryFilter,
    build_snapshot,
)
from .render import FORMATS, format_percent, format_rate, render_table
from .stats import PairedSample, correlation_matrix, spearman

EXIT_OK = 0
EXIT_UNREADABLE = 1
EXIT_EMPTY = 2
EXIT_QUOTA = 3
EXIT_UNRESOLVED = 4
EXIT_CONSTANT = 5
EXIT_USAGE = 64


class _Failure(Exception):
    """Command failure carrying its exit code; message goes to stderr."""

    def __init__(self, exit_code: int, message: str) -> None:
        super().__init__(message)
        self.exit_code = exit_code


class _Parser(argparse.ArgumentParser):
    """argparse parser that exits 64 on usage errors instead of 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def parse_filter_spec(spec: str) -> Optional[LibraryFilter]:
    """Parse the --filter grammar; empty input means no filter."""
    spec = spec.strip()
    if not spec:
        return None
    countries = kinds = members = channels = None
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        key, sep, raw = clause.partition("=")
        key = key.strip().lower()
        values = [v.strip() for v in raw.split(",") if v.strip()]
        if not sep or not values:
            raise ValueError(f"filter clause needs key=value[,value...]: {clause!r}")
        if key == "country":
            countries = values
        elif key == "kind":
            kinds = values
        elif key == "member":
            members = values
        elif key == "exclude-channel":
            channels = values
        else:
            raise ValueError(f"unknown filter key: {key!r}")
    return LibraryFilter(
        countries=frozenset(countries) if countries else None,
        kinds=frozenset(kinds) if kinds else None,
        required_memberships=frozenset(members) if members else None,
        excluded_channels=frozenset(channels) if channels else None,
    )


def _parse_filter_arg(spec: str) -> Optional[LibraryFilter]:
    try:
        return parse_filter_spec(spec)
    except ValueError as exc:
        raise _Failure(EXIT_USAGE, f"bad --filter: {exc}") from exc


def _load_dataset_file(path: str) -> CatalogSnapshot:
    try:
        return load_dataset(path)
    except OSError as exc:
        raise _Failure(EXIT_UNREADABLE, f"cannot read dataset {path}: {exc}") from exc
    except (DatasetError, IntegrityError) as exc:
        raise _Failure(EXIT_UNREADABLE, f"dataset {path}: {exc}") from exc


def _emit(headers: Sequence[str], rows: Sequence[Sequence[str]], fmt: str) -> None:
    print(render_table(headers, rows, fmt))


# --- ingest -------------------------------------------------------------------

def cmd_ingest(args) -> int:
    if args.format == "jsonl":
        parsed = _load_dataset_file(args.input)
        report = ParseReport(accepted=parsed.n_records)
        new = parsed
    else:
        try:
            with open(args.input, "rb") as fh:
                document = fh.read()
        except OSError as exc:
            raise _Failure(
                EXIT_UNREADABLE, f"cannot read input {args.input}: {exc}"
            ) from exc
        parse = parse_dublin_core if args.format == "dublincore" else parse_marc_xml
        try:
            records, report = parse(document)
        except ParseError as exc:
            raise _Failure(EXIT_UNREADABLE, f"{args.input}: {exc}") from exc
        new = build_snapshot(records, (), ())
    for locator, reason in report.rejections:
        print(f"rejected {locator}: {reason}", file=sys.stderr)
    print(f"accepted={report.accepted} rejected={report.rejected}")
    if report.accepted == 0:
        return EXIT_EMPTY
    if os.path.exists(args.dataset):
        base = _load_dataset_file(args.dataset)
    else:
        base = build_snapshot((), (), ())
    save_dataset(merge_snapshots(base, new), args.dataset)
    return EXIT_OK


# --- fetch --------------------------------------------------------------------

def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise _Failure(EXIT_USAGE, f"{name} must be an integer: {raw!r}") from exc


def _build_client(args) -> CatalogClient:
    base_url = args.base_url or os.environ.get("LCA_BASE_URL") or ""
    if not base_url:
        raise _Failure(
            EXIT_USAGE, "no catalog base URL configured (use --base-url or LCA_BASE_URL)"
        )
    limit = args.quota if args.quota is not None else _env_int("LCA_QUOTA", DEFAULT_QUOTA_LIMIT)
    state_path = args.quota_state or os.environ.get("LCA_QUOTA_STATE") or None
    api_key = args.api_key or os.environ.get("LCA_API_KEY") or None
    try:
        quota = QuotaStore(limit=limit, state_path=state_path)
    except QuotaStateError as exc:
        raise _Failure(EXIT_UNREADABLE, str(exc)) from exc
    except ValueError as exc:
        raise _Failure(EXIT_USAGE, str(exc)) from exc
    try:
        return CatalogClient(
            base_url,
            quota=quota,
            api_key=api_key,
            api_key_header=args.api_key_header,
            retries=args.retries,
            timeout=args.timeout,
            parallelism=args.parallelism,
        )
    except ValueError as exc:
        raise _Failure(EXIT_USAGE, str(exc)) from exc


def cmd_fetch(args) -> int:
    snapshot = _load_dataset_file(args.dataset)
    if args.all:
        selected = list(snapshot.records)
    elif args.isbn is not None:
        try:
            digits = normalize_isbn(args.isbn).digits
        except IsbnError as exc:
            raise _Failure(EXIT_USAGE, f"bad --isbn: {exc}") from exc
        selected = [
            r for r in snapshot.records if any(i.digits == digits for i in r.isbns)
        ]
    else:
        selected = [r for r in snapshot.records if r.oclc == args.oclc]
    client = _build_client(args)
    result = harvest(client, selected)
    save_dataset(merge_snapshots(snapshot, result.delta), args.dataset)
    for record_id, reason in result.skipped:
        print(f"skipped {record_id}: {reason}", file=sys.stderr)
    for record_id, message in result.errors:
        print(f"failed {record_id}: {message}", file=sys.stderr)
    state = client.quota.state()
    print(
        f"fetched={len(result.queried)} skipped={len(result.skipped)} "
        f"errors={len(result.errors)} holdings={len(result.holdings)} "
        f"libraries={len(result.libraries)} quota_used={state.used}/{state.limit}"
    )
    return EXIT_QUOTA if result.quota_exhausted else EXIT_OK


# --- indicators ----------------------------------------------------------------

def _load_units_file(path: str) -> dict[str, tuple[str, list[str]]]:
    units: dict[str, tuple[str, list[str]]] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for number, raw in enumerate(fh, start=1):
                stripped = raw.strip()
                if not stripped:
                    continue
                try:
                    obj = json.loads(stripped)
                    unit_id = obj["id"]
                    members = list(obj["members"])
                    label = obj.get("label", unit_id)
                except (ValueError, KeyError, TypeError) as exc:
                    raise _Failure(
                        EXIT_UNREADABLE, f"units file {path} line {number}: {exc}"
                    ) from exc
                units[unit_id] = (label, members)
    except OSError as exc:
        raise _Failure(EXIT_UNREADABLE, f"cannot read units file {path}: {exc}") from exc
    return units


def _resolve_unit(
    spec: str,
    units_by_id: dict[str, tuple[str, list[str]]],
    snapshot: CatalogSnapshot,
) -> AggregateUnit:
    spec = spec.strip()
    if spec == "@all":
        if snapshot.n_records == 0:
            raise _Failure(EXIT_EMPTY, "dataset has no records")
        return AggregateUnit(
            "@all", "all records", frozenset(r.record_id for r in snapshot.records)
        )
    if "=" in spec:
        unit_id, _, raw = spec.partition("=")
        unit_id = unit_id.strip()
        members = [m.strip() for m in raw.split(",") if m.strip()]
        label = unit_id
    else:
        if spec not in units_by_id:
            raise _Failure(EXIT_UNRESOLVED, f"unit {spec!r} is not defined")
        label, members = units_by_id[spec]
        unit_id = spec
    try:
        return AggregateUnit(unit_id, label, frozenset(members))
    except ValueError as exc:
        raise _Failure(EXIT_UNRESOLVED, f"unit {unit_id!r}: {exc}") from exc


def _books_rows(
    snapshot: CatalogSnapshot, library_filter: Optional[LibraryFilter]
) -> list[list[str]]:
    rows = []
    for book in book_indicators(snapshot, library_filter):
        title = snapshot.get_record(book.record_id).title
        cnls_cell = format_rate(book.cnls) if book.cnls is not None else ""
        rank_cells = map(str, book.rank_in_class) if book.rank_in_class else ("", "")
        rows.append((book.libcitations, title, book.record_id, cnls_cell, *rank_cells))
    rows.sort(key=lambda r: (-r[0], r[1], r[2]))
    return [
        [record_id, title, str(count), *cells]
        for count, title, record_id, *cells in rows
    ]


def cmd_indicators(args) -> int:
    library_filter = _parse_filter_arg(args.filter)
    snapshot = _load_dataset_file(args.dataset)
    if snapshot.n_records == 0:
        raise _Failure(EXIT_EMPTY, "dataset has no records")

    if args.all_books:
        _emit(
            ["record", "title", "libcitations", "cnls", "rank", "class_size"],
            _books_rows(snapshot, library_filter),
            args.output,
        )
        return EXIT_OK

    if args.author is not None or args.authors:
        if args.author is not None:
            try:
                profiles = [author_profile(args.author, snapshot, library_filter)]
            except AuthorNotFoundError as exc:
                raise _Failure(EXIT_UNRESOLVED, str(exc)) from exc
        else:
            profiles = author_profiles(snapshot, library_filter)
        rows = [
            [p.heading, str(p.works), str(p.publications), str(p.library_holdings)]
            for p in profiles
        ]
        _emit(["author", "works", "publications", "holdings"], rows, args.output)
        return EXIT_OK

    units_by_id = _load_units_file(args.units) if args.units else {}
    benchmark = (
        _resolve_unit(args.benchmark, units_by_id, snapshot)
        if args.benchmark
        else None
    )
    reports = []
    for spec in args.unit:
        unit = _resolve_unit(spec, units_by_id, snapshot)
        try:
            reports.append(unit_report(unit, snapshot, library_filter, benchmark))
        except UnknownTargetError as exc:
            raise _Failure(EXIT_UNRESOLVED, str(exc)) from exc
        except UndefinedRateError as exc:
            raise _Failure(EXIT_EMPTY, str(exc)) from exc
    reports.sort(key=lambda r: (-r.ci, r.label, r.unit_id))
    rows = [
        [
            r.unit_id,
            r.label,
            str(r.n_titles),
            str(r.ci),
            format_rate(r.cir),
            format_rate(r.rcir) if r.rcir is not None else "",
            format_rate(r.dr),
        ]
        for r in reports
    ]
    _emit(
        ["unit", "label", "n_titles", "ci", "cir", "rcir", "dr"], rows, args.output
    )
    return EXIT_OK


# --- correlate ------------------------------------------------------------------

def _metric_columns(
    snapshot: CatalogSnapshot,
    library_filter: Optional[LibraryFilter],
    names: Sequence[str],
) -> list[tuple[str, list[float]]]:
    """The named metrics over the records that carry every one of them."""
    raw = metric_columns(names, snapshot, library_filter)
    keep = [
        i
        for i in range(snapshot.n_records)
        if all(column[i] is not None for _, column in raw)
    ]
    return [(name, [float(column[i]) for i in keep]) for name, column in raw]


def cmd_correlate(args) -> int:
    library_filter = _parse_filter_arg(args.filter)
    names = [n.strip() for n in args.metrics.split(",") if n.strip()]
    unknown = [n for n in names if n not in METRICS]
    if unknown:
        raise _Failure(
            EXIT_USAGE,
            f"unknown metric {unknown[0]!r} (choose from {', '.join(METRICS)})",
        )
    if args.matrix and len(set(names)) != len(names):
        raise _Failure(EXIT_USAGE, "--matrix metrics must be distinct")
    if args.matrix and len(names) < 2:
        raise _Failure(EXIT_USAGE, "--matrix needs at least two metrics")
    if not args.matrix and len(names) != 2:
        raise _Failure(EXIT_USAGE, "correlate needs exactly two metrics")
    snapshot = _load_dataset_file(args.dataset)
    columns = _metric_columns(snapshot, library_filter, names)
    length = len(columns[0][1])
    if length < 2:
        raise _Failure(
            EXIT_EMPTY, f"only {length} records carry all requested metrics"
        )
    for name, vector in columns:
        if min(vector) == max(vector):
            raise _Failure(EXIT_CONSTANT, f"metric {name!r} is constant")
    if args.matrix:
        matrix = correlation_matrix(columns)
        rows = []
        for i, label in enumerate(matrix.labels):
            cells = [
                format_rate(value) if value is not None else ""
                for value in matrix.values[i]
            ]
            rows.append([label, *cells])
        _emit(["metric", *matrix.labels], rows, args.output)
        return EXIT_OK
    try:
        rho = spearman(PairedSample.from_columns(columns[0][1], columns[1][1]))
    except ConstantInputError as exc:
        raise _Failure(EXIT_CONSTANT, str(exc)) from exc
    except SampleSizeError as exc:
        raise _Failure(EXIT_EMPTY, str(exc)) from exc
    print(format_rate(rho))
    return EXIT_OK


# --- report ---------------------------------------------------------------------

def _share(count: int, total: int) -> str:
    return format_percent(count, total) if total > 0 else ""


def cmd_report(args) -> int:
    library_filter = _parse_filter_arg(args.filter)
    snapshot = _load_dataset_file(args.dataset)
    if snapshot.n_records == 0:
        raise _Failure(EXIT_EMPTY, "dataset has no records")
    composition = composition_report(snapshot, library_filter)
    rows = []
    for row in composition.rows:
        rows.append(
            [
                row.country,
                str(row.academic),
                _share(row.academic, composition.total_academic),
                str(row.public),
                _share(row.public, composition.total_public),
                str(row.other),
                _share(row.other, composition.total_other),
                str(row.total),
                _share(row.total, composition.total),
            ]
        )
    rows.append(
        [
            "total",
            str(composition.total_academic),
            _share(composition.total_academic, composition.total_academic),
            str(composition.total_public),
            _share(composition.total_public, composition.total_public),
            str(composition.total_other),
            _share(composition.total_other, composition.total_other),
            str(composition.total),
            _share(composition.total, composition.total),
        ]
    )
    _emit(
        [
            "country",
            "academic",
            "academic_pct",
            "public",
            "public_pct",
            "other",
            "other_pct",
            "total",
            "total_pct",
        ],
        rows,
        args.output,
    )
    print()
    coverage = coverage_report(snapshot, library_filter=library_filter)
    _emit(
        ["metric", "covered", "total", "pct"],
        [
            [row.metric, str(row.covered), str(row.total), format_percent(row.covered, row.total)]
            for row in coverage
        ],
        args.output,
    )
    return EXIT_OK


# --- wiring ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lca", description="Library catalog holdings analysis")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    common = _Parser(add_help=False)
    common.add_argument(
        "--dataset", default="catalog.jsonl", metavar="PATH",
        help="canonical dataset file (default: %(default)s)",
    )
    common.add_argument(
        "--output", choices=list(FORMATS), default="md",
        help="table format (default: %(default)s)",
    )
    filtering = _Parser(add_help=False, parents=[common])
    filtering.add_argument(
        "--filter", default="", metavar="SPEC",
        help='library filter, e.g. "country=US;kind=academic;member=ARL;exclude-channel=donation"',
    )

    p = sub.add_parser(
        "ingest", parents=[common], help="parse records and merge them into the dataset"
    )
    p.add_argument("--input", required=True, metavar="PATH", help="file to parse")
    p.add_argument(
        "--format", required=True, choices=("dublincore", "marcxml", "jsonl"),
        help="input flavor",
    )
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser(
        "fetch", parents=[common], help="harvest holdings from the locations API"
    )
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--isbn", metavar="ISBN", help="fetch records carrying this ISBN")
    group.add_argument("--oclc", type=int, metavar="N", help="fetch records with this OCLC number")
    group.add_argument("--all", action="store_true", help="fetch every record")
    p.add_argument("--base-url", help="API root (or LCA_BASE_URL)")
    p.add_argument("--api-key", help="API key value (or LCA_API_KEY)")
    p.add_argument("--api-key-header", default="X-API-Key", metavar="NAME")
    p.add_argument("--quota", type=int, metavar="N", help="daily request limit (or LCA_QUOTA)")
    p.add_argument("--quota-state", metavar="PATH", help="quota state file (or LCA_QUOTA_STATE)")
    p.add_argument("--retries", type=int, default=3, metavar="N")
    p.add_argument("--parallelism", type=int, default=1, metavar="N")
    p.add_argument("--timeout", type=float, default=10.0, metavar="SECONDS")
    p.set_defaults(func=cmd_fetch)

    p = sub.add_parser("indicators", parents=[filtering], help="compute holdings indicators")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--all-books", action="store_true", help="per-book table")
    group.add_argument("--author", metavar="HEADING", help="profile one contributor")
    group.add_argument("--authors", action="store_true", help="profile every contributor")
    group.add_argument(
        "--unit", action="append", metavar="SPEC",
        help="aggregate unit: a units-file id, 'id=rec1,rec2,...', or @all; repeatable",
    )
    p.add_argument("--units", metavar="PATH", help="unit definitions, one JSON object per line")
    p.add_argument("--benchmark", metavar="SPEC", help="benchmark unit for RCIR (same forms as --unit)")
    p.set_defaults(func=cmd_indicators)

    p = sub.add_parser("correlate", parents=[filtering], help="rank correlation between metrics")
    p.add_argument(
        "--metrics", default="libcitations,citations", metavar="A,B",
        help=f"comma-separated metric names from {', '.join(METRICS)} (default: %(default)s)",
    )
    p.add_argument("--matrix", action="store_true", help="full pairwise matrix")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("report", parents=[filtering], help="library composition and metric coverage")
    p.set_defaults(func=cmd_report)
    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except _Failure as failure:
        print(f"error: {failure}", file=sys.stderr)
        return failure.exit_code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
