"""Core domain model for library catalog analysis.

The unit of analysis is a catalog snapshot: book records, holding
libraries, and the inclusion relation between them. A holding means
"this library's catalog includes this record"; physical copy counts are
deliberately out of scope, so the (record, library) pair is unique.
Snapshots hold their entities and id lookups only and are immutable once
built; every count over them is derived downstream, as a pure function of
(snapshot, filter), which keeps batch runs reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .errors import IntegrityError

ROLES = frozenset({"author", "editor", "other", "creator"})
# In the order reports list them; a library of unknown kind is "other".
LIBRARY_KINDS = ("academic", "public", "other")
DEFAULT_KIND = "other"
FORMATS = frozenset({"print", "ebook", "unknown"})
CHANNELS = frozenset(
    {"librarian_order", "approval_plan", "pda", "donation", "package", "unspecified"}
)


def _check_types(entity: object, kind: type, *names: str) -> None:
    """Raise TypeError unless each named dataclass field holds a `kind`,
    or None where None is its default (a bool does not count as an int)."""
    for name in names:
        value = getattr(entity, name)
        if type(value) is kind:
            continue
        if value is None and entity.__dataclass_fields__[name].default is None:
            continue
        if type(value) is bool or not isinstance(value, kind):
            raise TypeError(
                f"{type(entity).__name__} {name} must be {kind.__name__}, not {value!r}"
            )


def _check_strings(entity: object, name: str, kind: type) -> None:
    """Store the named field as a `kind` of its items, raising TypeError
    unless it is a list, tuple or set of str (a bare str is not one)."""
    value = getattr(entity, name)
    if not isinstance(value, (list, tuple, set, frozenset)) or not all(
        isinstance(item, str) for item in value
    ):
        raise TypeError(
            f"{type(entity).__name__} {name} must be a collection of str, not {value!r}"
        )
    if type(value) is not kind:
        object.__setattr__(entity, name, kind(value))


def isbn13_check_digit(first12: str) -> str:
    """Modulus-10 check digit for a 12-digit ISBN-13 body (weights 1,3,1,3...)."""
    if len(first12) != 12 or not first12.isdigit():
        raise ValueError("expected 12 digits")
    total = sum(int(c) * (1 if i % 2 == 0 else 3) for i, c in enumerate(first12))
    return str((10 - total % 10) % 10)


@dataclass(frozen=True, slots=True, order=True)
class Isbn:
    """A canonical 13-digit ISBN.

    Equality and ordering use the canonical digits only; the as-ingested
    form is kept for provenance but never compared.
    """

    digits: str
    original_form: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        _check_types(self, str, "digits")
        if len(self.digits) != 13 or not self.digits.isdigit():
            raise ValueError(f"canonical ISBN must be 13 digits: {self.digits!r}")
        if self.digits[-1] != isbn13_check_digit(self.digits[:12]):
            raise ValueError(f"invalid ISBN-13 check digit: {self.digits!r}")
        if not self.original_form:
            object.__setattr__(self, "original_form", self.digits)

    def __str__(self) -> str:
        return self.digits


@dataclass(frozen=True, slots=True)
class Contributor:
    name: str
    role: str = "author"

    def __post_init__(self) -> None:
        _check_types(self, str, "name", "role")
        if not self.name.strip():
            raise ValueError("contributor name must be non-empty")
        if self.role not in ROLES:
            raise ValueError(f"unknown contributor role: {self.role!r}")


@dataclass(frozen=True, slots=True)
class BookRecord:
    """One cataloged edition.

    `citations` is an externally supplied citation count; it is carried
    through so holdings can be correlated against it, never computed here.
    """

    record_id: str
    title: str
    oclc: Optional[int] = None
    isbns: tuple[Isbn, ...] = ()
    contributors: tuple[Contributor, ...] = ()
    year: Optional[int] = None
    language: Optional[str] = None
    lc_class: Optional[str] = None
    format: str = "unknown"
    citations: Optional[int] = None

    def __post_init__(self) -> None:
        _check_types(self, str, "record_id", "title", "language", "lc_class")
        _check_types(self, int, "oclc", "year", "citations")
        if not self.record_id:
            raise ValueError("record_id must be non-empty")
        if not self.title or not self.title.strip():
            raise ValueError(f"record {self.record_id}: title must be non-empty")
        if self.oclc is not None and self.oclc <= 0:
            raise ValueError(f"record {self.record_id}: oclc must be a positive integer")
        isbns = self.isbns
        if not isinstance(isbns, tuple) or any(not isinstance(i, Isbn) for i in isbns):
            isbns = tuple(i if isinstance(i, Isbn) else Isbn(str(i)) for i in isbns)
        # dedupe by canonical digits, keep a stable sorted order
        seen: dict[str, Isbn] = {}
        for i in isbns:
            seen.setdefault(i.digits, i)
        object.__setattr__(self, "isbns", tuple(seen[d] for d in sorted(seen)))
        contribs = tuple(
            c if isinstance(c, Contributor) else Contributor(*c) for c in self.contributors
        )
        object.__setattr__(self, "contributors", contribs)
        if self.lc_class is not None:
            trimmed = self.lc_class.strip()
            if not trimmed:
                raise ValueError(f"record {self.record_id}: lc_class must be non-empty")
            object.__setattr__(self, "lc_class", trimmed)
        if self.format not in FORMATS:
            raise ValueError(f"record {self.record_id}: unknown format {self.format!r}")
        if self.citations is not None and self.citations < 0:
            raise ValueError(f"record {self.record_id}: citations must be >= 0")


@dataclass(frozen=True, slots=True)
class LibraryOrg:
    """A holding institution."""

    library_id: str
    name: str
    country: str
    kind: str = DEFAULT_KIND
    memberships: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        _check_types(self, str, "library_id", "name", "country", "kind")
        if not self.library_id:
            raise ValueError("library_id must be non-empty")
        object.__setattr__(self, "country", self.country.strip().upper())
        if not self.country:
            raise ValueError(f"library {self.library_id}: country must be non-empty")
        if self.kind not in LIBRARY_KINDS:
            raise ValueError(f"library {self.library_id}: unknown kind {self.kind!r}")
        _check_strings(self, "memberships", frozenset)


@dataclass(frozen=True, slots=True)
class Holding:
    """One (record, library) inclusion event."""

    record_id: str
    library_id: str
    channel: str = "unspecified"

    def __post_init__(self) -> None:
        _check_types(self, str, "record_id", "library_id", "channel")
        if not self.record_id or not self.library_id:
            raise ValueError("holding needs both record_id and library_id")
        if self.channel not in CHANNELS:
            raise ValueError(f"unknown acquisition channel: {self.channel!r}")


@dataclass(frozen=True, slots=True)
class LibraryFilter:
    """Restricts the library population; all clauses compose conjunctively.

    An absent (None) field means no restriction on that axis. Channel
    exclusion applies to holdings, not to the libraries themselves.
    """

    countries: Optional[frozenset[str]] = None
    kinds: Optional[frozenset[str]] = None
    required_memberships: Optional[frozenset[str]] = None
    excluded_channels: Optional[frozenset[str]] = None

    def __post_init__(self) -> None:
        if self.countries is not None:
            object.__setattr__(
                self, "countries", frozenset(c.strip().upper() for c in self.countries)
            )
        if self.kinds is not None:
            kinds = frozenset(self.kinds)
            bad = kinds.difference(LIBRARY_KINDS)
            if bad:
                raise ValueError(f"unknown library kinds: {sorted(bad)}")
            object.__setattr__(self, "kinds", kinds)
        if self.required_memberships is not None:
            object.__setattr__(
                self, "required_memberships", frozenset(self.required_memberships)
            )
        if self.excluded_channels is not None:
            channels = frozenset(self.excluded_channels)
            bad = channels - CHANNELS
            if bad:
                raise ValueError(f"unknown acquisition channels: {sorted(bad)}")
            object.__setattr__(self, "excluded_channels", channels)

    @property
    def is_empty(self) -> bool:
        return (
            self.countries is None
            and self.kinds is None
            and self.required_memberships is None
            and self.excluded_channels is None
        )

    def admits_library(self, library: LibraryOrg) -> bool:
        if self.countries is not None and library.country not in self.countries:
            return False
        if self.kinds is not None and library.kind not in self.kinds:
            return False
        if self.required_memberships is not None and not self.required_memberships <= library.memberships:
            return False
        return True

    def admits_channel(self, channel: str) -> bool:
        return self.excluded_channels is None or channel not in self.excluded_channels


@dataclass(frozen=True, slots=True)
class AggregateUnit:
    """A named set of records assessed together (an oeuvre, a press, a field)."""

    unit_id: str
    label: str
    member_record_ids: frozenset[str]

    def __post_init__(self) -> None:
        if not self.unit_id:
            raise ValueError("unit_id must be non-empty")
        members = frozenset(self.member_record_ids)
        if not members:
            raise ValueError(f"unit {self.unit_id}: member set must be non-empty")
        object.__setattr__(self, "member_record_ids", members)


class CatalogSnapshot:
    """Immutable dataset of records + libraries + holdings.

    Referential integrity is checked at construction and duplicate
    (record, library) holdings collapse to one. A snapshot holds its
    entity tuples, sorted by id, and the id lookups behind `get_record`
    and `get_library`; every count over them is derived elsewhere.
    `memo` is scratch space for such derived artifacts (compiled views,
    work clusters): safe because nothing is ever mutated after
    construction, so concurrent builders of one entry compute equal values.
    """

    __slots__ = (
        "records",
        "libraries",
        "holdings",
        "memo",
        "_records_by_id",
        "_libraries_by_id",
    )

    def __init__(
        self,
        records: Iterable[BookRecord],
        libraries: Iterable[LibraryOrg],
        holdings: Iterable[Holding],
    ) -> None:
        records_by_id: dict[str, BookRecord] = {}
        for rec in records:
            if rec.record_id in records_by_id:
                raise IntegrityError(f"duplicate record id: {rec.record_id}")
            records_by_id[rec.record_id] = rec
        libraries_by_id: dict[str, LibraryOrg] = {}
        for lib in libraries:
            if lib.library_id in libraries_by_id:
                raise IntegrityError(f"duplicate library id: {lib.library_id}")
            libraries_by_id[lib.library_id] = lib
        deduped: dict[tuple[str, str], Holding] = {}
        for h in holdings:
            if h.record_id not in records_by_id:
                raise IntegrityError(f"holding references unknown record: {h.record_id}")
            if h.library_id not in libraries_by_id:
                raise IntegrityError(f"holding references unknown library: {h.library_id}")
            deduped.setdefault((h.record_id, h.library_id), h)

        self.records: tuple[BookRecord, ...] = tuple(
            records_by_id[k] for k in sorted(records_by_id)
        )
        self.libraries: tuple[LibraryOrg, ...] = tuple(
            libraries_by_id[k] for k in sorted(libraries_by_id)
        )
        self.holdings: tuple[Holding, ...] = tuple(deduped[k] for k in sorted(deduped))
        self.memo: dict = {}
        self._records_by_id = records_by_id
        self._libraries_by_id = libraries_by_id

    # equality is structural over the entity sets; the memo is derived
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CatalogSnapshot):
            return NotImplemented
        return (
            self.records == other.records
            and self.libraries == other.libraries
            and self.holdings == other.holdings
        )

    def __repr__(self) -> str:
        return (
            f"CatalogSnapshot(records={len(self.records)}, "
            f"libraries={len(self.libraries)}, holdings={len(self.holdings)})"
        )

    @property
    def n_records(self) -> int:
        return len(self.records)

    @property
    def n_libraries(self) -> int:
        return len(self.libraries)

    @property
    def n_holdings(self) -> int:
        return len(self.holdings)

    def get_record(self, record_id: str) -> Optional[BookRecord]:
        return self._records_by_id.get(record_id)

    def get_library(self, library_id: str) -> Optional[LibraryOrg]:
        return self._libraries_by_id.get(library_id)


def build_snapshot(
    records: Iterable[BookRecord],
    libraries: Iterable[LibraryOrg],
    holdings: Iterable[Holding],
) -> CatalogSnapshot:
    """Validate and assemble a snapshot; see CatalogSnapshot for the rules."""
    return CatalogSnapshot(records, libraries, holdings)


def apply_filter(
    snapshot: CatalogSnapshot, library_filter: Optional[LibraryFilter]
) -> CatalogSnapshot:
    """Restrict a snapshot's library population.

    Records are never dropped; holdings survive only if their library does
    and their channel is not excluded. The empty filter returns the very
    same snapshot object, so its memoized views and work clusters stay
    warm. Filtering is idempotent and two filters commute, since every
    clause is a pure predicate on the library or the holding.
    """
    if library_filter is None or library_filter.is_empty:
        return snapshot
    kept_libraries = [
        lib for lib in snapshot.libraries if library_filter.admits_library(lib)
    ]
    kept_ids = {lib.library_id for lib in kept_libraries}
    kept_holdings = [
        h
        for h in snapshot.holdings
        if h.library_id in kept_ids and library_filter.admits_channel(h.channel)
    ]
    return CatalogSnapshot(snapshot.records, kept_libraries, kept_holdings)
