"""Identifier normalization and edition-to-work clustering.

Canonical ISBN form is the string of 13 ASCII digits; a digit of another
script, or a superscript, is no ISBN digit. Ten-digit inputs are
validated against their own modulus-11 check character first and only
then promoted to the 978 range, so a typo is reported as a checksum
problem rather than silently laundered into a different book.

Editions of one work are grouped by a transitive closure over three
evidence relations: shared OCLC number, shared canonical ISBN, equal
work key. The key folds case, punctuation, and diacritics but keeps the
primary contributor, because identical titles by different people are
different works. The rule is a stated approximation; edition counting
in union catalogs is fuzzy at the source.
"""

from __future__ import annotations

import re
import unicodedata
from functools import cache
from typing import Callable, NamedTuple, Optional

from .errors import (
    IsbnChecksumError,
    IsbnConversionError,
    IsbnFormatError,
    WorkKeyError,
)
from .model import BookRecord, CatalogSnapshot, Isbn, isbn13_check_digit

_SEPARATORS = re.compile(r"[-\s‐-―]+")
_OCLC_PREFIX = re.compile(r"^\(OCoLC\)\D*(\d+)$", re.ASCII)
_NON_ALNUM = re.compile(r"[^0-9a-z]+")


def isbn10_check_char(first9: str) -> str:
    """Modulus-11 check character: positions 1..9 weighted by their position."""
    if len(first9) != 9 or not first9.isascii() or not first9.isdigit():
        raise ValueError("expected 9 digits")
    total = sum((i + 1) * int(c) for i, c in enumerate(first9))
    remainder = total % 11
    return "X" if remainder == 10 else str(remainder)


def normalize_isbn(raw: str) -> Isbn:
    """Parse hyphenated or bare ISBN-10/13 text into a canonical Isbn.

    Raises IsbnFormatError when the stripped text is not ISBN-shaped and
    IsbnChecksumError when the shape is right but the check digit is not.
    """
    if not isinstance(raw, str):
        raise IsbnFormatError(f"ISBN input must be a string, got {type(raw).__name__}")
    compact = _SEPARATORS.sub("", raw.strip()).upper()
    if not compact:
        raise IsbnFormatError("empty ISBN")
    if not compact.isascii():
        raise IsbnFormatError(f"ISBN must be written in ASCII: {raw!r}")
    if len(compact) == 13:
        if not compact.isdigit():
            raise IsbnFormatError(f"ISBN-13 must be all digits: {raw!r}")
        try:
            return Isbn(compact)
        except ValueError:  # the shape is right, so only the check digit is wrong
            raise IsbnChecksumError(f"ISBN-13 check digit mismatch: {raw!r}") from None
    if len(compact) == 10:
        body, check = compact[:9], compact[9]
        if not body.isdigit() or (check != "X" and not check.isdigit()):
            raise IsbnFormatError(f"ISBN-10 must be 9 digits plus digit or X: {raw!r}")
        if check != isbn10_check_char(body):
            raise IsbnChecksumError(f"ISBN-10 check character mismatch: {raw!r}")
        body13 = "978" + body
        return Isbn(body13 + isbn13_check_digit(body13))
    raise IsbnFormatError(f"ISBN must have 10 or 13 significant characters: {raw!r}")


def isbn13_to_isbn10(isbn: "Isbn | str") -> str:
    """Shorten a 978-range ISBN-13 to its ISBN-10 form.

    Other prefixes (979 and beyond) have no 10-digit equivalent, so they
    raise IsbnConversionError.
    """
    digits = isbn.digits if isinstance(isbn, Isbn) else str(isbn)
    if len(digits) != 13 or not digits.isascii() or not digits.isdigit():
        raise IsbnConversionError(f"not a canonical ISBN-13: {digits!r}")
    if not digits.startswith("978"):
        raise IsbnConversionError(f"no ISBN-10 form outside the 978 range: {digits!r}")
    body = digits[3:12]
    return body + isbn10_check_char(body)


def parse_oclc(raw: str) -> Optional[int]:
    """Extract an OCLC control number from a prefixed field value.

    Accepts "(OCoLC)123" and "(OCoLC)ocm00123" style values; for bare
    inputs, a pure digit string. Digits are ASCII, as for ISBNs. Returns
    None when the value is not an OCLC number.
    """
    text = raw.strip()
    match = _OCLC_PREFIX.match(text)
    if match:
        number = int(match.group(1))
        return number if number > 0 else None
    if text.isascii() and text.isdigit() and int(text) > 0:
        return int(text)
    return None


# --- work clustering --------------------------------------------------------

def fold_text(text: str) -> str:
    """Casefold, strip diacritics, turn punctuation runs into single spaces.

    ASCII text has no compatibility forms and no combining marks, so it
    skips the decomposition and strip, which would return it unchanged.
    """
    if not text.isascii():
        decomposed = unicodedata.normalize("NFKD", text)
        text = "".join(c for c in decomposed if not unicodedata.combining(c))
    return _NON_ALNUM.sub(" ", text.casefold()).strip()


class WorkKey(NamedTuple):
    """Normalized (title, primary contributor) pair identifying a work."""

    normalized_title: str
    primary_contributor: str


class _WorkCluster(NamedTuple):
    work_key: WorkKey
    member_record_ids: frozenset[str]


class WorkCluster(_WorkCluster):
    """One work: the editions that the evidence closure pulled together.

    Members linked through shared identifiers may carry differing keys;
    the cluster is labeled by the key of its smallest member id so the
    label is deterministic. Building one, `_replace` included, checks
    that it has a member and stores the members as a frozenset.
    """

    __slots__ = ()

    def __new__(cls, work_key: WorkKey, member_record_ids: frozenset[str]) -> "WorkCluster":
        if not member_record_ids:
            raise ValueError("cluster must have at least one member")
        return super().__new__(cls, work_key, frozenset(member_record_ids))

    def _replace(self, **changes: object) -> "WorkCluster":
        return WorkCluster(*super()._replace(**changes))


def work_key(record: BookRecord, fold: Callable[[str], str] = fold_text) -> WorkKey:
    """Deterministic edition-insensitive key for a record.

    Case, punctuation, diacritics, and surrounding whitespace are folded
    away; publication year and format never enter the key, because those
    vary between editions of one work. `fold` is `fold_text` or a
    memoized equivalent of it.
    """
    title = fold(record.title)
    if not title:
        raise WorkKeyError(
            f"record {record.record_id}: title has no letters or digits to key on"
        )
    primary = ""
    for contributor in record.contributors:
        if contributor.role == "author":
            primary = fold(contributor.name)
            break
    else:
        if record.contributors:
            primary = fold(record.contributors[0].name)
    return WorkKey(title, primary)


class _UnionFind:
    """Path-halving union-find over record ids."""

    def __init__(self, items) -> None:
        self.parent = {item: item for item in items}

    def find(self, item: str) -> str:
        parent = self.parent
        while parent[item] != item:
            parent[item] = parent[parent[item]]
            item = parent[item]
        return item

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def cluster_works(snapshot: CatalogSnapshot) -> list[WorkCluster]:
    """Partition the snapshot's records into works.

    Two records land in one cluster iff they are connected through any
    chain of: shared OCLC number, shared canonical ISBN, equal work key.
    Records whose titles fold to nothing carry no key evidence but still
    link through identifiers. The result is order-independent and cached
    on the snapshot.
    """
    cached = snapshot.memo.get("work_clusters")
    if cached is not None:
        return cached

    uf = _UnionFind(r.record_id for r in snapshot.records)
    by_oclc: dict[int, str] = {}
    by_isbn: dict[str, str] = {}
    by_key: dict[WorkKey, str] = {}
    keys: dict[str, WorkKey] = {}
    fold = cache(fold_text)  # each distinct string folds once per build
    for record in snapshot.records:
        rid = record.record_id
        if record.oclc is not None:
            anchor = by_oclc.setdefault(record.oclc, rid)
            uf.union(anchor, rid)
        for isbn in record.isbns:
            anchor = by_isbn.setdefault(isbn.digits, rid)
            uf.union(anchor, rid)
        try:
            key = work_key(record, fold)
        except WorkKeyError:
            continue
        keys[rid] = key
        anchor = by_key.setdefault(key, rid)
        uf.union(anchor, rid)

    groups: dict[str, set[str]] = {}
    for record in snapshot.records:
        groups.setdefault(uf.find(record.record_id), set()).add(record.record_id)

    clusters = []
    for members in groups.values():
        label_source = min(members)
        key = keys.get(label_source)
        if key is None:
            key = WorkKey("", "")
        clusters.append(WorkCluster(key, frozenset(members)))
    clusters.sort(key=lambda c: min(c.member_record_ids))
    snapshot.memo["work_clusters"] = clusters
    return clusters
