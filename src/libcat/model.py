"""Core domain model for library catalog analysis.

The unit of analysis is a catalog snapshot: book records, holding
libraries, and the inclusion relation between them. A holding means
"this library's catalog includes this record"; physical copy counts are
deliberately out of scope, so the (record, library) pair is unique.
Snapshots hold records and libraries as entity tuples with id lookups,
and holdings as three parallel integer columns (record index, library
index, channel code) sorted by (record, library). A holding goes in and
comes out as one form, the (record_id, library_id, channel) triple
`Holding`. Snapshots are immutable once built; every count over them is
derived downstream, as a pure function of (snapshot, filter), which
keeps batch runs reproducible.

Every entity checks its fields when it is built; `_check_holding` is
the one holding rule. The common case costs one direct
`type(value) is T` test per field; only a value that fails it goes
through `_check_types`, which builds the error message, so the messages
are the same whichever path finds the fault. No entity text may hold a
lone surrogate, so every entity saves as UTF-8 and loads back equal;
`_check_text` searches only text that is not all ASCII.
Entities share one small base, `_Entity`: immutable, slotted and
hashable, so equal ones may be shared (the dataset loader builds one
Contributor per distinct (name, role) pair in a file). None is a
dataclass, so loading the model loads neither `dataclasses` nor
`inspect`.
"""

from __future__ import annotations

import re
from array import array
from functools import total_ordering
from itertools import compress
from typing import Iterable, Iterator, NamedTuple, Optional

from .errors import IntegrityError

ROLES = frozenset({"author", "editor", "other", "creator"})
# In the order reports list them; a library of unknown kind is "other".
LIBRARY_KINDS = ("academic", "public", "other")
DEFAULT_KIND = "other"
FORMATS = frozenset({"print", "ebook", "unknown"})
# In code order: a snapshot's channel column holds a channel's index here.
CHANNELS = ("librarian_order", "approval_plan", "pda", "donation", "package", "unspecified")
_CHANNEL_CODES = {channel: code for code, channel in enumerate(CHANNELS)}
# The field types a BookRecord checks directly before any message is built.
_STR_OR_NONE = frozenset({str, type(None)})
_INT_OR_NONE = frozenset({int, type(None)})
_SURROGATE = re.compile("[\ud800-\udfff]")
# Stores a field of an entity, which refuses plain attribute assignment.
_set = object.__setattr__


def _default_is_none(kind: type, name: str) -> bool:
    """Whether `kind`'s constructor gives the field `name` the default None,
    as read from its `__init__`."""
    init = kind.__init__
    names = init.__code__.co_varnames[1:init.__code__.co_argcount]
    defaults = init.__defaults__ or ()
    optional = names[len(names) - len(defaults):]
    return name in optional and defaults[optional.index(name)] is None


def _check_types(entity: object, kind: type, *names: str) -> None:
    """Raise TypeError unless each named field holds a `kind`, or None
    where None is its default (a bool does not count as an int)."""
    for name in names:
        value = getattr(entity, name)
        if type(value) is kind:
            continue
        if value is None and _default_is_none(type(entity), name):
            continue
        if type(value) is bool or not isinstance(value, kind):
            raise TypeError(
                f"{type(entity).__name__} {name} must be {kind.__name__}, not {value!r}"
            )


def _check_text(entity: object, *names: str) -> None:
    """Raise ValueError if a named field's text, a str or each str of a
    collection, holds a lone surrogate: UTF-8 cannot encode one, and the
    JSON escapes of a high and a low one read back as one character."""
    for name in names:
        value = getattr(entity, name)
        for text in (value,) if type(value) is str else value or ():
            if not text.isascii() and _SURROGATE.search(text):
                raise ValueError(
                    f"{type(entity).__name__} {name} holds a lone surrogate: {text!r}"
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
        _set(entity, name, kind(value))


def isbn13_check_digit(first12: str) -> str:
    """Modulus-10 check digit for a 12-digit ISBN-13 body (weights 1,3,1,3...).

    Digits are ASCII only: another script's digit, or a superscript, is
    no ISBN digit. The sums run over the ASCII codes, each a digit plus
    48 ("0"), so they carry 6 * 48 + 3 * 6 * 48 = 1152 on top of the
    weighted digit sum.
    """
    if len(first12) != 12 or not first12.isascii() or not first12.isdigit():
        raise ValueError("expected 12 digits")
    codes = first12.encode("ascii")
    return str((1152 - sum(codes[0::2]) - 3 * sum(codes[1::2])) % 10)


class _Entity:
    """The base of the checked entities.

    A subclass lists its fields, in constructor order, as `__slots__`,
    which is also its field table `_fields`. Its `__init__` stores every
    field with `_set` and then checks them. From the field table the base
    gives equality with an entity of the same class, a hash over the
    field values and a repr naming every field. Assigning or deleting an
    attribute raises AttributeError. `_replace` and pickling rebuild
    through the checked constructor.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def _replace(self, **changes: object) -> "_Entity":
        """A new entity with `changes` applied to this one's fields, built
        and so checked by the constructor; an unknown name is a TypeError."""
        values = {name: changes.pop(name, getattr(self, name)) for name in self._fields}
        return type(self)(**values, **changes)


@total_ordering
class Isbn(_Entity):
    """A canonical 13-digit ISBN; equality and ordering use its digits."""

    __slots__ = _fields = ("digits",)

    def __init__(self, digits: str) -> None:
        _set(self, "digits", digits)
        if type(digits) is not str:
            _check_types(self, str, "digits")
        if len(digits) != 13 or not digits.isascii() or not digits.isdigit():
            raise ValueError(f"canonical ISBN must be 13 digits: {digits!r}")
        if digits[-1] != isbn13_check_digit(digits[:12]):
            raise ValueError(f"invalid ISBN-13 check digit: {digits!r}")

    def __lt__(self, other: object) -> bool:
        if type(other) is not Isbn:
            return NotImplemented
        return self.digits < other.digits

    def __str__(self) -> str:
        return self.digits


class Contributor(_Entity):
    __slots__ = _fields = ("name", "role")

    def __init__(self, name: str, role: str = "author") -> None:
        _set(self, "name", name)
        _set(self, "role", role)
        if type(name) is not str or type(role) is not str:
            _check_types(self, str, "name", "role")
        if not name.strip():
            raise ValueError("contributor name must be non-empty")
        if not name.isascii():
            _check_text(self, "name")
        if role not in ROLES:
            raise ValueError(f"unknown contributor role: {role!r}")


class BookRecord(_Entity):
    """One cataloged edition.

    `citations` is an externally supplied citation count; it is carried
    through so holdings can be correlated against it, never computed here.
    """

    __slots__ = _fields = (
        "record_id",
        "title",
        "oclc",
        "isbns",
        "contributors",
        "year",
        "language",
        "lc_class",
        "format",
        "citations",
    )

    def __init__(
        self,
        record_id: str,
        title: str,
        oclc: Optional[int] = None,
        isbns: tuple[Isbn, ...] = (),
        contributors: tuple[Contributor, ...] = (),
        year: Optional[int] = None,
        language: Optional[str] = None,
        lc_class: Optional[str] = None,
        format: str = "unknown",
        citations: Optional[int] = None,
    ) -> None:
        _set(self, "record_id", record_id)
        _set(self, "title", title)
        _set(self, "oclc", oclc)
        _set(self, "isbns", isbns)
        _set(self, "contributors", contributors)
        _set(self, "year", year)
        _set(self, "language", language)
        _set(self, "lc_class", lc_class)
        _set(self, "format", format)
        _set(self, "citations", citations)
        if not (
            type(record_id) is str
            and type(title) is str
            and type(language) in _STR_OR_NONE
            and type(lc_class) in _STR_OR_NONE
            and type(oclc) in _INT_OR_NONE
            and type(year) in _INT_OR_NONE
            and type(citations) in _INT_OR_NONE
            and record_id.isascii()
            and title.isascii()
            and (language or "").isascii()
            and (lc_class or "").isascii()
        ):
            _check_types(self, str, "record_id", "title", "language", "lc_class")
            _check_types(self, int, "oclc", "year", "citations")
            _check_text(self, "record_id", "title", "language", "lc_class")
        if not record_id:
            raise ValueError("record_id must be non-empty")
        if not title or not title.strip():
            raise ValueError(f"record {record_id}: title must be non-empty")
        if oclc is not None and oclc <= 0:
            raise ValueError(f"record {record_id}: oclc must be a positive integer")
        if not isinstance(isbns, tuple) or any(not isinstance(i, Isbn) for i in isbns):
            isbns = tuple(i if isinstance(i, Isbn) else Isbn(str(i)) for i in isbns)
            _set(self, "isbns", isbns)
        if len(isbns) > 1:
            # dedupe by canonical digits, keep a stable sorted order
            seen: dict[str, Isbn] = {}
            for i in isbns:
                seen.setdefault(i.digits, i)
            _set(self, "isbns", tuple(seen[d] for d in sorted(seen)))
        if not isinstance(contributors, tuple) or any(
            not isinstance(c, Contributor) for c in contributors
        ):
            contributors = tuple(
                c if isinstance(c, Contributor) else Contributor(*c) for c in contributors
            )
            _set(self, "contributors", contributors)
        if lc_class is not None:
            trimmed = lc_class.strip()
            if not trimmed:
                raise ValueError(f"record {record_id}: lc_class must be non-empty")
            _set(self, "lc_class", trimmed)
        if format not in FORMATS:
            raise ValueError(f"record {record_id}: unknown format {format!r}")
        if citations is not None and citations < 0:
            raise ValueError(f"record {record_id}: citations must be >= 0")


class LibraryOrg(_Entity):
    """A holding institution."""

    __slots__ = _fields = ("library_id", "name", "country", "kind", "memberships")

    def __init__(
        self,
        library_id: str,
        name: str,
        country: str,
        kind: str = DEFAULT_KIND,
        memberships: frozenset[str] = frozenset(),
    ) -> None:
        _set(self, "library_id", library_id)
        _set(self, "name", name)
        _set(self, "country", country)
        _set(self, "kind", kind)
        _set(self, "memberships", memberships)
        _check_types(self, str, "library_id", "name", "country", "kind")
        if not self.library_id:
            raise ValueError("library_id must be non-empty")
        _set(self, "country", self.country.strip().upper())
        if not self.country:
            raise ValueError(f"library {self.library_id}: country must be non-empty")
        if self.kind not in LIBRARY_KINDS:
            raise ValueError(f"library {self.library_id}: unknown kind {self.kind!r}")
        _check_strings(self, "memberships", frozenset)
        _check_text(self, "library_id", "name", "country", "memberships")


def _check_holding(record_id: object, library_id: object, channel: object) -> None:
    """Raise TypeError or ValueError unless the three fields make a valid
    holding: three str, non-empty ids and a known channel."""
    if (
        type(record_id) is str
        and type(library_id) is str
        and type(channel) is str
        and record_id
        and library_id
        and channel in _CHANNEL_CODES
    ):
        return
    fields = (("record_id", record_id), ("library_id", library_id), ("channel", channel))
    for name, value in fields:
        if type(value) is not str:
            raise TypeError(f"Holding {name} must be str, not {value!r}")
    if not record_id or not library_id:
        raise ValueError("holding needs both record_id and library_id")
    raise ValueError(f"unknown acquisition channel: {channel!r}")


class Holding(NamedTuple):
    """One (record, library) inclusion event, the triple a snapshot takes
    and gives back; `CatalogSnapshot` checks it."""

    record_id: str
    library_id: str
    channel: str = "unspecified"


class LibraryFilter(_Entity):
    """Restricts the library population; all clauses compose conjunctively.

    An absent (None) field means no restriction on that axis. Channel
    exclusion applies to holdings, not to the libraries themselves.
    Each given field is a collection of str, as `_check_strings` rules (a
    bare str is not one). Countries, kinds and channels fold case, as
    their vocabularies do; memberships are free-form tags and match
    exactly as stored.
    """

    __slots__ = _fields = ("countries", "kinds", "required_memberships", "excluded_channels")

    def __init__(
        self,
        countries: Optional[frozenset[str]] = None,
        kinds: Optional[frozenset[str]] = None,
        required_memberships: Optional[frozenset[str]] = None,
        excluded_channels: Optional[frozenset[str]] = None,
    ) -> None:
        _set(self, "countries", countries)
        _set(self, "kinds", kinds)
        _set(self, "required_memberships", required_memberships)
        _set(self, "excluded_channels", excluded_channels)
        for name in self._fields:
            if getattr(self, name) is not None:
                _check_strings(self, name, frozenset)
        if self.countries is not None:
            _set(self, "countries", frozenset(c.strip().upper() for c in self.countries))
        if self.kinds is not None:
            kinds = frozenset(k.lower() for k in self.kinds)
            bad = kinds.difference(LIBRARY_KINDS)
            if bad:
                raise ValueError(f"unknown library kinds: {sorted(bad)}")
            _set(self, "kinds", kinds)
        if self.excluded_channels is not None:
            channels = frozenset(c.lower() for c in self.excluded_channels)
            bad = channels.difference(CHANNELS)
            if bad:
                raise ValueError(f"unknown acquisition channels: {sorted(bad)}")
            _set(self, "excluded_channels", channels)

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


class AggregateUnit(_Entity):
    """A named set of records assessed together (an oeuvre, a press, a field)."""

    __slots__ = _fields = ("unit_id", "label", "member_record_ids")

    def __init__(self, unit_id: str, label: str, member_record_ids: frozenset[str]) -> None:
        _set(self, "unit_id", unit_id)
        _set(self, "label", label)
        _set(self, "member_record_ids", member_record_ids)
        if not unit_id:
            raise ValueError("unit_id must be non-empty")
        members = frozenset(member_record_ids)
        if not members:
            raise ValueError(f"unit {unit_id}: member set must be non-empty")
        _set(self, "member_record_ids", members)


class CatalogSnapshot:
    """Immutable dataset of records + libraries + holdings.

    Referential integrity is checked at construction and duplicate
    (record, library) holdings collapse to the first given. Records and
    libraries are entity tuples sorted by id, with the id lookups behind
    `get_record` and `get_library`. Holdings are three parallel columns
    sorted by (record, library): `holding_records` indexes `records`,
    `holding_libraries` indexes `libraries` and `holding_channels`
    indexes CHANNELS. Holdings go in as (record_id, library_id, channel)
    triples; a triple whose ids or channel do not resolve is checked
    against the holding rule before the IntegrityError for a dangling id
    is raised, so a malformed holding fails with the rule's message.
    `holdings()` gives them back as `Holding`s, built from the columns.
    Every count over a snapshot is derived elsewhere. `memo` is scratch
    space for such derived artifacts (compiled views, work clusters):
    safe because nothing is ever mutated after construction, so
    concurrent builders of one entry compute equal values.
    """

    __slots__ = (
        "records",
        "libraries",
        "holding_records",
        "holding_libraries",
        "holding_channels",
        "memo",
        "_records_by_id",
        "_libraries_by_id",
    )

    def __init__(
        self,
        records: Iterable[BookRecord],
        libraries: Iterable[LibraryOrg],
        holdings: Iterable[tuple[str, str, str]],
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
        self.records: tuple[BookRecord, ...] = tuple(
            records_by_id[k] for k in sorted(records_by_id)
        )
        self.libraries: tuple[LibraryOrg, ...] = tuple(
            libraries_by_id[k] for k in sorted(libraries_by_id)
        )
        record_index = {rec.record_id: i for i, rec in enumerate(self.records)}
        library_index = {lib.library_id: i for i, lib in enumerate(self.libraries)}
        # the key record index * width + library index sorts as (record_id, library_id)
        width = len(self.libraries)
        codes: dict[int, int] = {}
        for record_id, library_id, channel in holdings:
            try:
                key = record_index[record_id] * width + library_index[library_id]
                code = _CHANNEL_CODES[channel]
            except (KeyError, TypeError):
                _check_holding(record_id, library_id, channel)
                if record_id not in record_index:
                    raise IntegrityError(f"holding references unknown record: {record_id}")
                raise IntegrityError(f"holding references unknown library: {library_id}")
            codes.setdefault(key, code)
        keys = sorted(codes)
        self.holding_records = array("I", [key // width for key in keys])
        self.holding_libraries = array("I", [key % width for key in keys])
        self.holding_channels = array("B", [codes[key] for key in keys])
        self.memo: dict = {}
        self._records_by_id = records_by_id
        self._libraries_by_id = libraries_by_id

    @classmethod
    def _from_columns(
        cls,
        records: tuple[BookRecord, ...],
        libraries: tuple[LibraryOrg, ...],
        holding_records: array,
        holding_libraries: array,
        holding_channels: array,
        records_by_id: Optional[dict[str, BookRecord]] = None,
    ) -> "CatalogSnapshot":
        """A snapshot over finished parts, taken as they are and unchecked:
        entity tuples sorted by id and holding columns that index them,
        sorted by (record, library). The id lookups are built here unless
        `records_by_id`, a lookup over these very records, is given."""
        snapshot = cls.__new__(cls)
        snapshot.records = records
        snapshot.libraries = libraries
        snapshot.holding_records = holding_records
        snapshot.holding_libraries = holding_libraries
        snapshot.holding_channels = holding_channels
        snapshot.memo = {}
        if records_by_id is None:
            records_by_id = {record.record_id: record for record in records}
        snapshot._records_by_id = records_by_id
        snapshot._libraries_by_id = {library.library_id: library for library in libraries}
        return snapshot

    # equality is structural over the entity sets; the memo is derived
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CatalogSnapshot):
            return NotImplemented
        return (
            self.records == other.records
            and self.libraries == other.libraries
            and self.holding_records == other.holding_records
            and self.holding_libraries == other.holding_libraries
            and self.holding_channels == other.holding_channels
        )

    def __repr__(self) -> str:
        return (
            f"CatalogSnapshot(records={len(self.records)}, "
            f"libraries={len(self.libraries)}, holdings={self.n_holdings})"
        )

    def holdings(self) -> Iterator[Holding]:
        """Every holding, in (record_id, library_id) order, built from the
        columns as the iteration reaches it."""
        record_ids = [record.record_id for record in self.records]
        library_ids = [library.library_id for library in self.libraries]
        for ri, li, code in zip(
            self.holding_records, self.holding_libraries, self.holding_channels
        ):
            yield Holding(record_ids[ri], library_ids[li], CHANNELS[code])

    @property
    def n_records(self) -> int:
        return len(self.records)

    @property
    def n_libraries(self) -> int:
        return len(self.libraries)

    @property
    def n_holdings(self) -> int:
        return len(self.holding_records)

    def get_record(self, record_id: str) -> Optional[BookRecord]:
        return self._records_by_id.get(record_id)

    def get_library(self, library_id: str) -> Optional[LibraryOrg]:
        return self._libraries_by_id.get(library_id)


def apply_filter(
    snapshot: CatalogSnapshot, library_filter: Optional[LibraryFilter]
) -> CatalogSnapshot:
    """Restrict a snapshot's library population.

    Records are never dropped; holdings survive only if their library does
    and their channel is not excluded. The empty filter returns the very
    same snapshot object, so its memoized views and work clusters stay
    warm. Filtering is idempotent and two filters commute, since every
    clause is a pure predicate on the library or the holding.

    The filtered snapshot shares the parent's records and record lookup.
    Its holdings are the parent's columns under a library mask and a
    channel mask, with library indexes renumbered over the kept
    libraries; the (record, library) order survives, since the kept
    libraries keep their relative order.
    """
    if library_filter is None or library_filter.is_empty:
        return snapshot
    kept: list[LibraryOrg] = []
    renumbered: list[Optional[int]] = []
    for library in snapshot.libraries:
        if library_filter.admits_library(library):
            renumbered.append(len(kept))
            kept.append(library)
        else:
            renumbered.append(None)
    channel_kept = [library_filter.admits_channel(channel) for channel in CHANNELS]
    mask = [
        renumbered[li] is not None and channel_kept[code]
        for li, code in zip(snapshot.holding_libraries, snapshot.holding_channels)
    ]
    return CatalogSnapshot._from_columns(
        snapshot.records,
        tuple(kept),
        array("I", compress(snapshot.holding_records, mask)),
        array("I", [renumbered[li] for li in compress(snapshot.holding_libraries, mask)]),
        array("B", compress(snapshot.holding_channels, mask)),
        snapshot._records_by_id,
    )
