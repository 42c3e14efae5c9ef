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
pair, memoized on the snapshot: the filtered snapshot (filtered once),
a holder count per record, and per class the sorted counts and their
sum, so rank is a binary search and CNLS a division. The first author
query adds a folded-heading index and a distinct-holder count per work
cluster. Building a view costs O(records + holdings), plus a sort per
class; every indicator after that is a lookup or a sum over its own
members. Every function here is pure: it reads, counts, and returns.
Rendering and rounding live elsewhere.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

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
    LibraryFilter,
    apply_filter,
)

Target = Union[str, BookRecord, WorkCluster, AggregateUnit, Iterable[str]]


@dataclass(frozen=True, slots=True)
class BookIndicators:
    record_id: str
    libcitations: int
    cnls: Optional[float]
    rank_in_class: Optional[tuple[int, int]]


@dataclass(frozen=True, slots=True)
class AuthorProfile:
    heading: str
    works: int
    publications: int
    library_holdings: int


# --- the compiled view -------------------------------------------------------

class _View:
    """One (snapshot, filter) pair, compiled once for every indicator.

    `filtered` is the filtered snapshot and `counts` its libcitations per
    record. The author tables are built on the first author query; work
    clusters always come from the unfiltered snapshot, since filtering
    keeps every record.
    """

    __slots__ = ("source", "filtered", "counts", "_classes", "_headings", "_clusters")

    def __init__(
        self, snapshot: CatalogSnapshot, library_filter: Optional[LibraryFilter]
    ) -> None:
        self.source = snapshot
        self.filtered = filtered = apply_filter(snapshot, library_filter)
        # holdings are unique per (record, library), so counting them counts holders
        counts = dict.fromkeys((r.record_id for r in filtered.records), 0)
        for holding in filtered.holdings:
            counts[holding.record_id] += 1
        self.counts = counts
        by_class: dict[str, list[int]] = {}
        for record in filtered.records:
            if record.lc_class is not None:
                by_class.setdefault(record.lc_class, []).append(counts[record.record_id])
        self._classes = {
            lc_class: (sorted(class_counts), sum(class_counts))
            for lc_class, class_counts in by_class.items()
        }
        self._headings: Optional[dict[str, tuple[str, set[str]]]] = None
        self._clusters: Optional[tuple[dict[str, int], list[WorkCluster], list[int]]] = None

    def record(self, target: "str | BookRecord") -> BookRecord:
        record_id = target.record_id if isinstance(target, BookRecord) else target
        record = self.filtered.get_record(record_id)
        if record is None:
            raise UnknownTargetError(f"no such record in snapshot: {record_id}")
        return record

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
            self.record(record_id)
        return ids

    def _class_of(self, record: BookRecord) -> tuple[list[int], int]:
        if record.lc_class is None:
            raise NoClassError(f"record {record.record_id} has no classification")
        return self._classes[record.lc_class]

    def cnls(self, target: "str | BookRecord") -> float:
        record = self.record(target)
        ordered, total = self._class_of(record)
        mean = total / len(ordered)
        if mean == 0:
            raise UndefinedRateError(f"class {record.lc_class} has zero mean libcitations")
        return self.counts[record.record_id] / mean

    def rank(self, target: "str | BookRecord") -> tuple[int, int]:
        record = self.record(target)
        ordered, _ = self._class_of(record)
        above = len(ordered) - bisect_right(ordered, self.counts[record.record_id])
        return 1 + above, len(ordered)

    def book(self, record_id: str) -> BookIndicators:
        """Per-book indicators, blank where CNLS or rank is undefined."""
        try:
            cnls_value: Optional[float] = self.cnls(record_id)
        except (NoClassError, UndefinedRateError):
            cnls_value = None
        try:
            rank: Optional[tuple[int, int]] = self.rank(record_id)
        except NoClassError:
            rank = None
        return BookIndicators(record_id, self.counts[record_id], cnls_value, rank)

    def headings(self) -> dict[str, tuple[str, set[str]]]:
        """Folded heading -> (smallest display variant, ids of records naming it)."""
        if self._headings is None:
            headings: dict[str, tuple[str, set[str]]] = {}
            for record in self.filtered.records:
                for contributor in record.contributors:
                    folded = fold_text(contributor.name)
                    if not folded:
                        continue
                    display, record_ids = headings.setdefault(folded, (contributor.name, set()))
                    record_ids.add(record.record_id)
                    if contributor.name < display:
                        headings[folded] = (contributor.name, record_ids)
            self._headings = headings
        return self._headings

    def profile(self, heading: str, record_ids: set[str]) -> AuthorProfile:
        if self._clusters is None:
            clusters = cluster_works(self.source)
            cluster_of = {
                record_id: index
                for index, cluster in enumerate(clusters)
                for record_id in cluster.member_record_ids
            }
            holders: list[set[str]] = [set() for _ in clusters]
            for holding in self.filtered.holdings:
                holders[cluster_of[holding.record_id]].add(holding.library_id)
            self._clusters = (cluster_of, clusters, [len(h) for h in holders])
        cluster_of, clusters, holders = self._clusters
        touched = {cluster_of[record_id] for record_id in record_ids}
        return AuthorProfile(
            heading,
            len(touched),
            sum(len(clusters[i].member_record_ids) for i in touched),
            sum(holders[i] for i in touched),
        )


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
    members = view.members(target)
    return len(frozenset().union(*map(view.filtered.holders_of, members)))


@dataclass(frozen=True, slots=True)
class _Inclusions:
    """A unit's titles, summed per-title inclusions, and catalog count."""

    unit_id: str
    titles: frozenset[str]
    ci: int
    catalogs: int

    def cir(self) -> float:
        if not self.titles:
            raise UndefinedRateError(f"unit {self.unit_id} has no titles")
        return self.ci / len(self.titles)

    def dr(self) -> float:
        if not self.titles:
            raise UndefinedRateError(f"unit {self.unit_id} has no titles")
        if self.catalogs == 0:
            raise UndefinedRateError("no catalogs remain after filtering")
        return self.ci / (len(self.titles) * self.catalogs)


def _inclusions(unit: AggregateUnit, view: _View) -> _Inclusions:
    titles = view.members(unit)
    ci = sum(view.counts[record_id] for record_id in titles)
    return _Inclusions(unit.unit_id, titles, ci, view.filtered.n_libraries)


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
    return _view(snapshot, library_filter).cnls(record)


def rank_in_class(
    record: "str | BookRecord",
    snapshot: CatalogSnapshot,
    library_filter: Optional[LibraryFilter] = None,
) -> tuple[int, int]:
    """(competition rank by descending libcitations, class size)."""
    return _view(snapshot, library_filter).rank(record)


# --- aggregate reports -------------------------------------------------------

@dataclass(frozen=True, slots=True)
class IndicatorReport:
    unit_id: str
    label: str
    n_titles: int
    ci: int
    cir: float
    rcir: Optional[float]
    dr: float
    per_book: tuple[BookIndicators, ...]


def book_indicators(
    snapshot: CatalogSnapshot,
    library_filter: Optional[LibraryFilter] = None,
) -> tuple[BookIndicators, ...]:
    """Per-book indicators for every record, in record-id order.

    CNLS and rank are left blank where undefined (no class, or an
    all-zero class for CNLS).
    """
    view = _view(snapshot, library_filter)
    return tuple(view.book(record.record_id) for record in view.filtered.records)


def unit_report(
    unit: AggregateUnit,
    snapshot: CatalogSnapshot,
    library_filter: Optional[LibraryFilter] = None,
    benchmark: Optional[AggregateUnit] = None,
) -> IndicatorReport:
    """All aggregate indicators for one unit, plus its per-book breakdown.

    Per-book CNLS and rank are left blank where undefined (no class, or
    an all-zero class); the aggregate ratios raise instead, since a unit
    with no titles or no catalogs has nothing to report.
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
        per_book=tuple(view.book(record_id) for record_id in sorted(inclusions.titles)),
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
    view = _view(snapshot, library_filter)
    entry = view.headings().get(folded)
    if entry is None:
        raise AuthorNotFoundError(f"no record names contributor {heading!r}")
    return view.profile(heading, entry[1])


def author_profiles(
    snapshot: CatalogSnapshot,
    library_filter: Optional[LibraryFilter] = None,
) -> list[AuthorProfile]:
    """Profiles for every contributor heading, ranked by holdings.

    Headings that fold identically are one author; the displayed form is
    the lexicographically smallest variant seen. Order is descending
    holdings, then heading, so equal inputs render identically.
    """
    view = _view(snapshot, library_filter)
    profiles = [
        view.profile(display, record_ids)
        for display, record_ids in view.headings().values()
    ]
    profiles.sort(key=lambda p: (-p.library_holdings, p.heading))
    return profiles


@dataclass(frozen=True, slots=True)
class CompositionRow:
    country: str
    academic: int
    public: int
    other: int

    @property
    def total(self) -> int:
        return self.academic + self.public + self.other


@dataclass(frozen=True, slots=True)
class CompositionReport:
    """Libraries per country broken down by kind, with column totals."""

    rows: tuple[CompositionRow, ...]
    total_academic: int
    total_public: int
    total_other: int

    @property
    def total(self) -> int:
        return self.total_academic + self.total_public + self.total_other


def composition_report(
    snapshot: CatalogSnapshot,
    library_filter: Optional[LibraryFilter] = None,
) -> CompositionReport:
    """Count the library population by country and kind (rows sorted by country)."""
    by_country: dict[str, dict[str, int]] = {}
    for library in _view(snapshot, library_filter).filtered.libraries:
        bucket = by_country.setdefault(
            library.country, {"academic": 0, "public": 0, "other": 0}
        )
        bucket[library.kind] += 1
    rows = tuple(
        CompositionRow(
            country,
            by_country[country]["academic"],
            by_country[country]["public"],
            by_country[country]["other"],
        )
        for country in sorted(by_country)
    )
    return CompositionReport(
        rows=rows,
        total_academic=sum(r.academic for r in rows),
        total_public=sum(r.public for r in rows),
        total_other=sum(r.other for r in rows),
    )


# --- per-record metrics --------------------------------------------------------

# A record's value for one metric, or None where it has none. The second
# argument is the compiled view: `view.filtered` is the filtered snapshot
# and `view.counts` its libcitations per record id.
MetricExtractor = Callable[[BookRecord, _View], Optional[float]]


def _cnls_or_none(record: BookRecord, view: _View) -> Optional[float]:
    try:
        return view.cnls(record)
    except (NoClassError, UndefinedRateError):
        return None


# Every named per-record metric; `correlate` and `coverage_report` read it.
METRICS: dict[str, MetricExtractor] = {
    "libcitations": lambda record, view: view.counts[record.record_id],
    "citations": lambda record, view: record.citations,
    "cnls": _cnls_or_none,
}
# The metrics a coverage report lists unless told otherwise.
COVERAGE_METRICS = ("libcitations", "citations")


def metric_columns(
    names: Sequence[str],
    snapshot: CatalogSnapshot,
    library_filter: Optional[LibraryFilter] = None,
) -> list[tuple[str, list[Optional[float]]]]:
    """Each named metric's value for every record, in record-id order.

    Records without a value (no citation count, no class for CNLS, an
    all-zero class) get None. Unknown names raise KeyError.
    """
    extractors = [(name, METRICS[name]) for name in names]
    view = _view(snapshot, library_filter)
    return [
        (name, [extract(record, view) for record in view.filtered.records])
        for name, extract in extractors
    ]


@dataclass(frozen=True, slots=True)
class CoverageRow:
    metric: str
    covered: int
    total: int


def coverage_report(
    snapshot: CatalogSnapshot,
    metrics: "Optional[Sequence[tuple[str, MetricExtractor]]]" = None,
    library_filter: Optional[LibraryFilter] = None,
) -> tuple[CoverageRow, ...]:
    """Share of records with a nonzero value, per metric.

    A record with no value for a metric counts as uncovered; the
    denominator is always the full record count. Without `metrics`, the
    registry's COVERAGE_METRICS are reported.
    """
    view = _view(snapshot, library_filter)
    records = view.filtered.records
    if not records:
        raise UndefinedRateError("coverage is undefined over zero records")
    if metrics is None:
        metrics = [(name, METRICS[name]) for name in COVERAGE_METRICS]
    rows = []
    for name, extract in metrics:
        covered = sum(
            1
            for record in records
            if (value := extract(record, view)) is not None and value > 0
        )
        rows.append(CoverageRow(name, covered, len(records)))
    return tuple(rows)
