"""Command-line surface for reproducible batch runs.

Commands: ingest, fetch, indicators, correlate, report. Every command
takes --dataset PATH (the canonical dataset file). The analysis commands
(indicators, correlate, report) also take --output {csv,md,jsonl}, the
table format, and --filter SPEC, the library population filter, in one
grammar.

Filter grammar, clauses joined by ';', values by ',', each key at most
once:

    country=US,GB;kind=academic;member=ARL;exclude-channel=donation

ingest prints `accepted=N rejected=M libraries=L holdings=H`, counted
from its input.

Client settings for fetch come from flags or environment variables
(flags win): LCA_BASE_URL, LCA_API_KEY, LCA_QUOTA, LCA_QUOTA_STATE.

Exit codes: 0 success; 1 unreadable input (a dataset, units file,
quota state file or export), a dataset that cannot be written or
output that cannot be written (silently when the reader closed the
pipe); 2 nothing to work on (an ingest input with no record, library
or holding, an empty dataset, or too little data to correlate); 3 quota
exhausted mid-fetch after a partial merge; 4 unresolved unit or author;
5 constant metric column; 64 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Callable, Optional, Sequence, TypeVar

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
    _json_lines,
    _lock_sidecar,
    load_dataset,
    merge_snapshots,
    parse_dublin_core,
    parse_marc_xml,
    save_dataset,
)
from .model import (
    LIBRARY_KINDS,
    AggregateUnit,
    CatalogSnapshot,
    LibraryFilter,
)
from .render import FORMATS, format_percent, format_rate, render_table
from .stats import correlation_matrix

if TYPE_CHECKING:  # the network layer loads only when `fetch` runs
    from .client import CatalogClient

_T = TypeVar("_T")

EXIT_OK = 0
EXIT_UNREADABLE = 1
EXIT_EMPTY = 2
EXIT_QUOTA = 3
EXIT_UNRESOLVED = 4
EXIT_CONSTANT = 5
EXIT_USAGE = 64

# The library errors that commands let through, and their exit codes.
_EXIT_CODES = {
    QuotaStateError: EXIT_UNREADABLE,
    UndefinedRateError: EXIT_EMPTY,
    SampleSizeError: EXIT_EMPTY,
    AuthorNotFoundError: EXIT_UNRESOLVED,
    UnknownTargetError: EXIT_UNRESOLVED,
    ConstantInputError: EXIT_CONSTANT,
}


class _Failure(Exception):
    """Command failure carrying its exit code; its message, if any, goes to stderr."""

    def __init__(self, exit_code: int, message: str = "") -> None:
        super().__init__(message)
        self.exit_code = exit_code


class _Parser(argparse.ArgumentParser):
    """argparse parser that exits 64 on usage errors instead of 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# Each --filter key and the LibraryFilter field its values go to.
_FILTER_FIELDS = {
    "country": "countries",
    "kind": "kinds",
    "member": "required_memberships",
    "exclude-channel": "excluded_channels",
}


def parse_filter_spec(spec: str) -> Optional[LibraryFilter]:
    """Parse the --filter grammar; empty input means no filter."""
    fields: dict[str, list[str]] = {}
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        key, sep, raw = clause.partition("=")
        key = key.strip().lower()
        values = [v.strip() for v in raw.split(",") if v.strip()]
        if not sep or not values:
            raise ValueError(f"filter clause needs key=value[,value...]: {clause!r}")
        if key not in _FILTER_FIELDS:
            raise ValueError(f"unknown filter key: {key!r}")
        if _FILTER_FIELDS[key] in fields:
            raise ValueError(f"filter key {key!r} is repeated")
        fields[_FILTER_FIELDS[key]] = values
    return LibraryFilter(**fields) if fields else None


def _read(what: str, path: str, read: Callable[[str], _T]) -> _T:
    """`read(path)`, where a file that cannot be read, or that holds what
    cannot be parsed, exits 1 with a message naming `what` and `path`."""
    try:
        return read(path)
    except OSError as exc:
        raise _Failure(EXIT_UNREADABLE, f"cannot read {what} {path}: {exc}") from exc
    except (DatasetError, IntegrityError, ParseError) as exc:
        raise _Failure(EXIT_UNREADABLE, f"{what} {path}: {exc}") from exc


def _analysis_input(args) -> tuple[CatalogSnapshot, Optional[LibraryFilter]]:
    """The dataset and library filter an analysis command works on: parse
    --filter, load --dataset, and refuse a dataset with no records."""
    try:
        library_filter = parse_filter_spec(args.filter)
    except ValueError as exc:
        raise _Failure(EXIT_USAGE, f"bad --filter: {exc}") from exc
    snapshot = _read("dataset", args.dataset, load_dataset)
    if snapshot.n_records == 0:
        raise _Failure(EXIT_EMPTY, "dataset has no records")
    return snapshot, library_filter


def _merge_into_dataset(path: str, delta: CatalogSnapshot) -> None:
    """Merge `delta` onto the dataset at `path` (none there counts as
    empty) and save it, under the exclusive lock on the sidecar
    `<path>.lock`, so concurrent `lca` processes lose no update."""
    try:
        with _lock_sidecar(path):
            if os.path.exists(path):
                delta = merge_snapshots(_read("dataset", path, load_dataset), delta)
            try:
                save_dataset(delta, path)
            except OSError as exc:
                raise _Failure(
                    EXIT_UNREADABLE, f"cannot write dataset {path}: {exc}"
                ) from exc
    except OSError as exc:
        raise _Failure(EXIT_UNREADABLE, f"cannot lock dataset {path}: {exc}") from exc


def _print(text: str) -> None:
    """Print `text` and a newline on stdout and flush it; every table and
    summary line goes out here.

    A character stdout cannot encode, a lone surrogate say, is printed as
    its backslash escape. A reader that closed the pipe ends the command
    with exit 1 and no message; any other write failure exits 1 with
    `error: cannot write output: …`. Either way the process's own stdout
    is then pointed at the null device, so the interpreter's flush at
    exit has nothing left to fail on.
    """
    try:
        try:
            print(text)
        except UnicodeEncodeError:
            print(text.encode(sys.stdout.encoding, "backslashreplace").decode(sys.stdout.encoding))
        sys.stdout.flush()
    except OSError as exc:
        if sys.stdout is sys.__stdout__:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        if isinstance(exc, BrokenPipeError):
            raise _Failure(EXIT_UNREADABLE) from exc
        raise _Failure(EXIT_UNREADABLE, f"cannot write output: {exc}") from exc


def _emit(headers: Sequence[str], rows: Sequence[Sequence[str]], fmt: str) -> None:
    _print(render_table(headers, rows, fmt))


# --- ingest -------------------------------------------------------------------

def cmd_ingest(args) -> int:
    rejections: list[tuple[str, str]] = []
    if args.format == "jsonl":
        new = _read("input", args.input, load_dataset)
    else:
        parse = parse_dublin_core if args.format == "dublincore" else parse_marc_xml

        def parse_file(path: str):
            with open(path, "rb") as fh:
                return parse(fh)
        records, report = _read("input", args.input, parse_file)
        new = CatalogSnapshot(records, (), ())
        rejections = report.rejections
    for locator, reason in rejections:
        print(f"rejected {locator}: {reason}", file=sys.stderr)
    _print(
        f"accepted={new.n_records} rejected={len(rejections)} "
        f"libraries={new.n_libraries} holdings={new.n_holdings}"
    )
    if not (new.n_records or new.n_libraries or new.n_holdings):
        return EXIT_EMPTY
    _merge_into_dataset(args.dataset, new)
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
    from .client import DEFAULT_QUOTA_LIMIT, CatalogClient, QuotaStore

    base_url = args.base_url or os.environ.get("LCA_BASE_URL") or ""
    if not base_url:
        raise _Failure(
            EXIT_USAGE, "no catalog base URL configured (use --base-url or LCA_BASE_URL)"
        )
    limit = args.quota if args.quota is not None else _env_int("LCA_QUOTA", DEFAULT_QUOTA_LIMIT)
    state_path = args.quota_state or os.environ.get("LCA_QUOTA_STATE") or None
    api_key = args.api_key or os.environ.get("LCA_API_KEY") or None
    try:
        return CatalogClient(
            base_url,
            quota=QuotaStore(limit=limit, state_path=state_path),
            api_key=api_key,
            api_key_header=args.api_key_header,
            retries=args.retries,
            timeout=args.timeout,
            parallelism=args.parallelism,
        )
    except ValueError as exc:
        raise _Failure(EXIT_USAGE, str(exc)) from exc


def cmd_fetch(args) -> int:
    from .client import harvest

    snapshot = _read("dataset", args.dataset, load_dataset)
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
    try:
        result = harvest(client, selected)
    finally:
        client.close()
    state = client.quota.state()
    # The harvest ran without the lock; merge onto the dataset as it is
    # now, so whatever another process saved meanwhile is kept.
    _merge_into_dataset(args.dataset, result.delta)
    for record_id, reason in result.skipped:
        print(f"skipped {record_id}: {reason}", file=sys.stderr)
    for record_id, message in result.errors:
        print(f"failed {record_id}: {message}", file=sys.stderr)
    _print(
        f"fetched={len(result.queried)} skipped={len(result.skipped)} "
        f"errors={len(result.errors)} holdings={result.delta.n_holdings} "
        f"libraries={len(result.delta.libraries)} quota_used={state.used}/{state.limit}"
    )
    return EXIT_QUOTA if result.quota_exhausted else EXIT_OK


# --- indicators ----------------------------------------------------------------

def _load_units(path: str) -> dict[str, tuple[str, list[str]]]:
    """Unit id -> (label, members); a bad line is a DatasetError naming it."""
    units: dict[str, tuple[str, list[str]]] = {}
    with open(path, "rb") as fh:
        for number, obj in _json_lines(fh):
            try:
                unit_id, members = obj["id"], obj["members"]
                label = obj.get("label", unit_id)
                if not isinstance(unit_id, str) or not isinstance(label, str):
                    raise TypeError("id and label must be strings")
                if not isinstance(members, list) or not all(
                    isinstance(member, str) for member in members
                ):
                    raise TypeError("members must be a list of strings")
                if unit_id in units:
                    raise ValueError(f"unit {unit_id!r} is already defined")
            except (ValueError, KeyError, TypeError) as exc:
                raise DatasetError(f"line {number}: {exc}") from exc
            units[unit_id] = (label, members)
    return units


def _resolve_unit(
    spec: str,
    units_by_id: dict[str, tuple[str, list[str]]],
    snapshot: CatalogSnapshot,
) -> AggregateUnit:
    spec = spec.strip()
    if spec == "@all":
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
    for flag, value in (("--units", args.units), ("--benchmark", args.benchmark)):
        if value is not None and args.unit is None:
            raise _Failure(EXIT_USAGE, f"{flag} applies only with --unit")
    snapshot, library_filter = _analysis_input(args)
    if args.all_books:
        _emit(
            ["record", "title", "libcitations", "cnls", "rank", "class_size"],
            _books_rows(snapshot, library_filter),
            args.output,
        )
        return EXIT_OK

    if args.author is not None or args.authors:
        if args.author is not None:
            profiles = [author_profile(args.author, snapshot, library_filter)]
        else:
            profiles = author_profiles(snapshot, library_filter)
        rows = [
            [p.heading, str(p.works), str(p.publications), str(p.library_holdings)]
            for p in profiles
        ]
        _emit(["author", "works", "publications", "holdings"], rows, args.output)
        return EXIT_OK

    units_by_id = _read("units file", args.units, _load_units) if args.units else {}
    benchmark = (
        _resolve_unit(args.benchmark, units_by_id, snapshot)
        if args.benchmark
        else None
    )
    units: dict[str, AggregateUnit] = {}
    for spec in args.unit:
        unit = _resolve_unit(spec, units_by_id, snapshot)
        if unit.unit_id in units:
            raise _Failure(EXIT_USAGE, f"--unit {unit.unit_id!r} is given twice")
        units[unit.unit_id] = unit
    reports = [unit_report(unit, snapshot, library_filter, benchmark) for unit in units.values()]
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

def cmd_correlate(args) -> int:
    names = [n.strip() for n in args.metrics.split(",") if n.strip()]
    unknown = [n for n in names if n not in METRICS]
    if unknown:
        raise _Failure(
            EXIT_USAGE,
            f"unknown metric {unknown[0]!r} (choose from {', '.join(METRICS)})",
        )
    if len(set(names)) != len(names):
        raise _Failure(EXIT_USAGE, "correlate metrics must be distinct")
    if args.matrix and len(names) < 2:
        raise _Failure(EXIT_USAGE, "--matrix needs at least two metrics")
    if not args.matrix and len(names) != 2:
        raise _Failure(EXIT_USAGE, "correlate needs exactly two metrics")
    snapshot, library_filter = _analysis_input(args)
    matrix = correlation_matrix(metric_columns(names, snapshot, library_filter))
    if not args.matrix:
        _print(format_rate(matrix.values[0][1]))
        return EXIT_OK
    rows = [
        [label, *map(format_rate, values)]
        for label, values in zip(matrix.labels, matrix.values)
    ]
    _emit(["metric", *matrix.labels], rows, args.output)
    return EXIT_OK


# --- report ---------------------------------------------------------------------

def cmd_report(args) -> int:
    snapshot, library_filter = _analysis_input(args)
    composition = composition_report(snapshot, library_filter)
    # Each kind's count and the row total, each with its share of its column's total.
    totals = (*composition.totals.counts, composition.totals.total)
    rows = []
    for row in (*composition.rows, composition.totals):
        cells = [row.country]
        for count, total in zip((*row.counts, row.total), totals):
            cells += [str(count), format_percent(count, total) if total > 0 else ""]
        rows.append(cells)
    columns = (*LIBRARY_KINDS, "total")
    header = ["country", *(name for column in columns for name in (column, f"{column}_pct"))]
    _emit(header, rows, args.output)
    _print("")
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
    filtering = _Parser(add_help=False, parents=[common])
    filtering.add_argument(
        "--output", choices=list(FORMATS), default="md",
        help="table format (default: %(default)s)",
    )
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
        if str(failure):
            print(f"error: {failure}", file=sys.stderr)
        return failure.exit_code
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
