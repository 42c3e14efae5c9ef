"""The holdings indicator family and the standard reports.

Definitions, over a snapshot restricted by an optional library filter:

  libcitations   distinct libraries holding any edition of the target
  CI             sum of member titles' libcitations for an aggregate
  CIR            CI per title (the aggregate's mean inclusions)
  RCIR           CIR of the unit over CIR of a benchmark unit
  DR             CI over (titles x catalogs), the realized fraction of
                 possible inclusions, always within [0, 1]
  CNLS           a book's libcitations over the mean libcitations of its
                 classification class (the book itself included)
  rank in class  competition rank by descending libcitations; ties share
                 the best position (counts 9,7,7,2 rank 1,2,2,4)

Author profiles aggregate over work clusters: works is the number of
clusters touching the author's records, publications counts all member
editions of those clusters, holdings sums the clusters' libcitations.

Every indicator reads from one compiled view per (snapshot, filter)
pair, memoized on the snapshot: the filtered columns (filtered once),
and a holder count per record from one pass over the record-index
column. No view holds a snapshot, so the memo makes no cycle and a
dropped snapshot is freed at once. Distinct holders of a record set
come from one method: holdings are sorted by record, so a record's
holders are one slice of the library-index column. Building a view costs O(records + holdings). Its
tables are each built on their first read, so a command that reads none
pays for none. `classes()` sorts each class's counts once; from them
`books()` maps record id to BookIndicators, so rank is a binary search
and CNLS a division, and the CNLS column reads them without building
that table. `authors()` maps a folded heading to its AuthorProfile over
the work clusters, folding each distinct name once per build. After
that, every indicator is a row, a lookup, or a sum over its own members.
Every function here is pure: it reads, counts, and returns. Rendering
and rounding live elsewhere.

The composition report counts libraries per country in LIBRARY_KINDS
order, with its totals as one more row of the same type. A per-record
metric is a column of the view: METRICS maps its name to a function
that returns its values over the filtered records, None where a record
has none. For `correlate`, `metric_columns` keeps the records that carry
every named metric; the rules on those columns (enough rows, none
constant) belong to `stats.correlation_matrix`.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from functools import cache
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

from .errors import (
    AuthorNotFoundError,
    NoClassError,
    UndefinedRateError,
    UnknownTargetError,
)
from .identifiers import WorkCluster, cluster_works, fold_text
from .model import (
    AggregateUnit,
    BookRecord,
    CatalogSnapshot,
    LIBRARY_KINDS,
    LibraryFilter,
    apply_filter,
)

Target = Union[str, BookRecord, WorkCluster, AggregateUnit, Iterable[str]]


class BookIndicators(NamedTuple):
    record_id: str
    libcitations: int
    cnls: Optional[float]
    rank_in_class: Optional[tuple[int, int]]


class AuthorProfile(NamedTuple):
    heading: str
    works: int
    publications: int
    library_holdings: int


# --- the compiled view -------------------------------------------------------

def _cnls(count: int, ordered: list[int], total: int) -> Optional[float]:
    """CNLS of a record with `count` libcitations in a class whose sorted
    counts and their sum are `ordered` and `total`; None if all are zero."""
    return count / (total / len(ordered)) if total else None


class _View:
    """One (snapshot, filter) pair, compiled once for every indicator.

    `records`, `libraries` and `holding_libraries` are the filtered
    snapshot's columns, and `counts` its libcitations per record.
    `holders` counts distinct holders of a record set, from the start
    offset of each record's run of holdings, built on the first set or
    author query. `classes()` is the per-class
    step, and `books()` and `authors()` the per-book and per-author
    tables, each built on its first read; work clusters always come from
    the unfiltered snapshot, since filtering keeps every record.
    """

    __slots__ = ("records", "libraries", "holding_libraries", "counts", "_starts",
                 "_classes", "_books", "_authors")

    def __init__(
        self, snapshot: CatalogSnapshot, library_filter: Optional[LibraryFilter]
    ) -> None:
        filtered = apply_filter(snapshot, library_filter)
        self.records = filtered.records
        self.libraries = filtered.libraries
        self.holding_libraries = filtered.holding_libraries
        # holdings are unique per (record, library), so counting them counts holders
        held = Counter(filtered.holding_records)
        self.counts = {
            record.record_id: held[index] for index, record in enumerate(filtered.records)
        }
        self._starts: Optional[dict[str, int]] = None
        self._classes: Optional[dict[str, tuple[list[int], int]]] = None
        self._books: Optional[dict[str, BookIndicators]] = None
        self._authors: Optional[dict[str, AuthorProfile]] = None

    def members(self, target: Target) -> frozenset[str]:
        if isinstance(target, BookRecord):
            ids = frozenset({target.record_id})
        elif isinstance(target, str):
            ids = frozenset({target})
        elif isinstance(target, (WorkCluster, AggregateUnit)):
            ids = target.member_record_ids
        else:
            ids = frozenset(target)
        for record_id in ids:
            if record_id not in self.counts:
                raise UnknownTargetError(f"no such record in snapshot: {record_id}")
        return ids

    def classes(self) -> dict[str, tuple[list[int], int]]:
        """Class -> (its records' libcitations sorted, their sum)."""
        if self._classes is None:
            by_class: dict[str, list[int]] = {}
            for record, count in zip(self.records, self.counts.values()):
                if record.lc_class is not None:
                    by_class.setdefault(record.lc_class, []).append(count)
            self._classes = {lc_class: (sorted(v), sum(v)) for lc_class, v in by_class.items()}
        return self._classes

    def cnls_column(self) -> list[Optional[float]]:
        """Each record's CNLS, in record-id order; None without a class or
        in an all-zero class."""
        classes = self.classes()
        return [
            None if record.lc_class is None else _cnls(count, *classes[record.lc_class])
            for record, count in zip(self.records, self.counts.values())
        ]

    def books(self) -> dict[str, BookIndicators]:
        """Record id -> BookIndicators, in record-id order; CNLS and rank are
        None where undefined (no class; for CNLS, an all-zero class too)."""
        if self._books is None:
            classes = self.classes()
            self._books = books = {}
            for record, count in zip(self.records, self.counts.values()):
                cnls_value = rank = None
                if record.lc_class is not None:
                    ordered, total = classes[record.lc_class]
                    cnls_value = _cnls(count, ordered, total)
                    rank = (1 + len(ordered) - bisect_right(ordered, count), len(ordered))
                books[record.record_id] = BookIndicators(record.record_id, count, cnls_value, rank)
        return self._books

    def classified(self, target: "str | BookRecord") -> BookIndicators:
        """The target's row of `books()`, which must name a classified record."""
        (record_id,) = self.members(target)
        book = self.books()[record_id]
        if book.rank_in_class is None:
            raise NoClassError(f"record {record_id} has no classification")
        return book

    def holders(self, record_ids: frozenset[str]) -> int:
        """The number of distinct libraries holding any of the records."""
        if len(record_ids) == 1:
            (record_id,) = record_ids
            return self.counts[record_id]
        counts = self.counts
        if self._starts is None:
            # `counts` and the columns both run in record order, so a record's
            # holdings are the `counts[record_id]` entries from its start
            starts: dict[str, int] = {}
            start = 0
            for record_id, count in counts.items():
                starts[record_id] = start
                start += count
            self._starts = starts
        starts, column = self._starts, self.holding_libraries
        return len(
            set().union(*(column[starts[r]:starts[r] + counts[r]] for r in record_ids))
        )

    def authors(self, snapshot: CatalogSnapshot) -> dict[str, AuthorProfile]:
        """Folded heading -> AuthorProfile, under its smallest display
        variant; `snapshot` is the one this view was built on."""
        if self._authors is None:
            clusters = cluster_works(snapshot)
            cluster_of = {
                record_id: index
                for index, cluster in enumerate(clusters)
                for record_id in cluster.member_record_ids
            }
            holders = [self.holders(cluster.member_record_ids) for cluster in clusters]
            # folded heading -> (smallest display variant, clusters it touches)
            headings: dict[str, tuple[str, set[int]]] = {}
            fold = cache(fold_text)
            for record in self.records:
                for contributor in record.contributors:
                    folded = fold(contributor.name)
                    if not folded:
                        continue
                    display, touched = headings.setdefault(folded, (contributor.name, set()))
                    touched.add(cluster_of[record.record_id])
                    if contributor.name < display:
                        headings[folded] = (contributor.name, touched)
            self._authors = {
                folded: AuthorProfile(
                    display,
                    len(touched),
                    sum(len(clusters[i].member_record_ids) for i in touched),
                    sum(holders[i] for i in touched),
                )
                for folded, (display, touched) in headings.items()
            }
        return self._authors


def _view(snapshot: CatalogSnapshot, library_filter: Optional[LibraryFilter]) -> _View:
    """The memoized view; None and the empty filter share one entry."""
    if library_filter is not None and library_filter.is_empty:
        library_filter = None
    key = ("indicator_view", library_filter)
    view = snapshot.memo.get(key)
    if view is None:
        view = snapshot.memo[key] = _View(snapshot, library_filter)
    return view


# --- point and aggregate indicators --------------------------------------------

def libcitations(
    target: Target,
    snapshot: CatalogSnapshot,
    library_filter: Optional[LibraryFilter] = None,
) -> int:
    """Distinct libraries holding any member edition of the target."""
    view = _view(snapshot, library_filter)
    return view.holders(view.members(target))


class _Inclusions(NamedTuple):
    """A unit's titles, summed per-title inclusions, and catalog count."""

    titles: frozenset[str]
    ci: int
    catalogs: int

    def cir(self) -> float:
        return self.ci / len(self.titles)

    def dr(self) -> float:
        if self.catalogs == 0:
            raise UndefinedRateError("no catalogs remain after filtering")
        return self.ci / (len(self.titles) * self.catalogs)


def _inclusions(unit: AggregateUnit, view: _View) -> _Inclusions:
    titles = view.members(unit)
    ci = sum(view.counts[record_id] for record_id in titles)
    return _Inclusions(titles, ci, len(view.libraries))


def _benchmark_cir(benchmark: AggregateUnit, view: _View) -> float:
    """The benchmark's CIR, which RCIR divides by, so it must be nonzero."""
    benchmark_cir = _inclusions(benchmark, view).cir()
    if benchmark_cir == 0:
        raise UndefinedRateError(
            f"benchmark {benchmark.unit_id} has zero inclusions per title"
        )
    return benchmark_cir


def catalog_inclusions(
    unit: AggregateUnit,
    snapshot: CatalogSnapshot,
    library_filter: Optional[LibraryFilter] = None,
) -> int:
    """Total inclusions over the unit's titles: each title counts its own."""
    return _inclusions(unit, _view(snapshot, library_filter)).ci


def cir(
    unit: AggregateUnit,
    snapshot: CatalogSnapshot,
    library_filter: Optional[LibraryFilter] = None,
) -> float:
    """Mean inclusions per distinct member title."""
    return _inclusions(unit, _view(snapshot, library_filter)).cir()


def rcir(
    unit: AggregateUnit,
    benchmark: AggregateUnit,
    snapshot: CatalogSnapshot,
    library_filter: Optional[LibraryFilter] = None,
) -> float:
    """Unit CIR relative to a benchmark's; above 1 means above that average."""
    view = _view(snapshot, library_filter)
    benchmark_cir = _benchmark_cir(benchmark, view)
    return _inclusions(unit, view).cir() / benchmark_cir


def diffusion_rate(
    unit: AggregateUnit,
    snapshot: CatalogSnapshot,
    library_filter: Optional[LibraryFilter] = None,
) -> float:
    """Realized fraction of possible inclusions: CI / (titles x catalogs)."""
    return _inclusions(unit, _view(snapshot, library_filter)).dr()


def cnls(
    record: "str | BookRecord",
    snapshot: CatalogSnapshot,
    library_filter: Optional[LibraryFilter] = None,
) -> float:
    """Libcitations over the mean of the record's classification class.

    The mean includes the record itself, so a singleton class scores 1.
    """
    view = _view(snapshot, library_filter)
    book = view.classified(record)
    if book.cnls is None:
        lc_class = snapshot.get_record(book.record_id).lc_class
        raise UndefinedRateError(f"class {lc_class} has zero mean libcitations")
    return book.cnls


def rank_in_class(
    record: "str | BookRecord",
    snapshot: CatalogSnapshot,
    library_filter: Optional[LibraryFilter] = None,
) -> tuple[int, int]:
    """(competition rank by descending libcitations, class size)."""
    return _view(snapshot, library_filter).classified(record).rank_in_class


# --- aggregate reports -------------------------------------------------------

class IndicatorReport(NamedTuple):
    unit_id: str
    label: str
    n_titles: int
    ci: int
    cir: float
    rcir: Optional[float]
    dr: float


def book_indicators(
    snapshot: CatalogSnapshot,
    library_filter: Optional[LibraryFilter] = None,
) -> tuple[BookIndicators, ...]:
    """Per-book indicators for every record, in record-id order.

    CNLS and rank are left blank where undefined (no class, or an
    all-zero class for CNLS).
    """
    return tuple(_view(snapshot, library_filter).books().values())


def unit_report(
    unit: AggregateUnit,
    snapshot: CatalogSnapshot,
    library_filter: Optional[LibraryFilter] = None,
    benchmark: Optional[AggregateUnit] = None,
) -> IndicatorReport:
    """All aggregate indicators for one unit; RCIR only with a benchmark.

    DR raises where undefined, since a unit over no catalogs has nothing
    to report. Per-book rows come from `book_indicators`.
    """
    view = _view(snapshot, library_filter)
    inclusions = _inclusions(unit, view)
    cir_value = inclusions.cir()
    dr_value = inclusions.dr()
    rcir_value: Optional[float] = None
    if benchmark is not None:
        rcir_value = cir_value / _benchmark_cir(benchmark, view)
    return IndicatorReport(
        unit_id=unit.unit_id,
        label=unit.label,
        n_titles=len(inclusions.titles),
        ci=inclusions.ci,
        cir=cir_value,
        rcir=rcir_value,
        dr=dr_value,
    )


def author_profile(
    heading: str,
    snapshot: CatalogSnapshot,
    library_filter: Optional[LibraryFilter] = None,
) -> AuthorProfile:
    """Works, editions, and summed holdings for one contributor heading.

    Matching folds case, punctuation, and diacritics, the same folding
    the work key uses; spelling variants beyond that are out of scope.
    A cluster counts as the author's when any member record names the
    heading among its contributors, in any role.
    """
    folded = fold_text(heading)
    if not folded:
        raise AuthorNotFoundError(f"heading folds to nothing: {heading!r}")
    profile = _view(snapshot, library_filter).authors(snapshot).get(folded)
    if profile is None:
        raise AuthorNotFoundError(f"no record names contributor {heading!r}")
    return profile._replace(heading=heading)


def author_profiles(
    snapshot: CatalogSnapshot,
    library_filter: Optional[LibraryFilter] = None,
) -> list[AuthorProfile]:
    """Profiles for every contributor heading, ranked by holdings.

    Headings that fold identically are one author; the displayed form is
    the lexicographically smallest variant seen. Order is descending
    holdings, then heading, so equal inputs render identically.
    """
    profiles = list(_view(snapshot, library_filter).authors(snapshot).values())
    profiles.sort(key=lambda p: (-p.library_holdings, p.heading))
    return profiles


class CompositionRow(NamedTuple):
    """Libraries of one country (or of all, in the totals row), counted per
    kind in LIBRARY_KINDS order."""

    country: str
    counts: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.counts)


class CompositionReport(NamedTuple):
    """Libraries per country broken down by kind, with column totals."""

    rows: tuple[CompositionRow, ...]
    totals: CompositionRow


def composition_report(
    snapshot: CatalogSnapshot,
    library_filter: Optional[LibraryFilter] = None,
) -> CompositionReport:
    """Count the library population by country and kind (rows sorted by
    country); the totals row is labelled "total"."""
    by_country: dict[str, list[int]] = {}
    totals = [0] * len(LIBRARY_KINDS)
    for library in _view(snapshot, library_filter).libraries:
        column = LIBRARY_KINDS.index(library.kind)
        by_country.setdefault(library.country, [0] * len(LIBRARY_KINDS))[column] += 1
        totals[column] += 1
    rows = tuple(
        CompositionRow(country, tuple(counts)) for country, counts in sorted(by_country.items())
    )
    return CompositionReport(rows, CompositionRow("total", tuple(totals)))


# --- per-record metrics --------------------------------------------------------

# Every named per-record metric, as its column over `view.records`
# in record-id order, None where a record has no value; `correlate` and
# `coverage_report` read it.
METRICS: dict[str, Callable[[_View], list[Optional[float]]]] = {
    "libcitations": lambda view: list(view.counts.values()),
    "citations": lambda view: [record.citations for record in view.records],
    "cnls": lambda view: view.cnls_column(),
}
# The metrics a coverage report lists.
COVERAGE_METRICS = ("libcitations", "citations")


def metric_columns(
    names: Sequence[str],
    snapshot: CatalogSnapshot,
    library_filter: Optional[LibraryFilter] = None,
) -> list[tuple[str, list[Union[int, float]]]]:
    """Each named metric's values, as the metric gives them (ints stay
    exact), over the records that carry every one of them (a citation
    count, a class for CNLS, a class not all zero), in record-id order.
    Unknown names raise KeyError."""
    metrics = [METRICS[name] for name in names]
    view = _view(snapshot, library_filter)
    rows = [row for row in zip(*(metric(view) for metric in metrics)) if None not in row]
    return [(name, [row[i] for row in rows]) for i, name in enumerate(names)]


class CoverageRow(NamedTuple):
    metric: str
    covered: int
    total: int


def coverage_report(
    snapshot: CatalogSnapshot,
    library_filter: Optional[LibraryFilter] = None,
) -> tuple[CoverageRow, ...]:
    """Share of records with a nonzero value, per COVERAGE_METRICS metric.

    A record with no value for a metric counts as uncovered; the
    denominator is always the full record count.
    """
    view = _view(snapshot, library_filter)
    total = len(view.records)
    if not total:
        raise UndefinedRateError("coverage is undefined over zero records")
    return tuple(
        CoverageRow(name, sum(1 for v in METRICS[name](view) if v is not None and v > 0), total)
        for name in COVERAGE_METRICS
    )
