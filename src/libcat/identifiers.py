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
_ALNUM = re.compile(r"[0-9a-z]+")


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
    return " ".join(_ALNUM.findall(text.casefold()))


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


def _key_parts(record: BookRecord, fold: Callable[[str], str]) -> Optional[tuple[str, str]]:
    """The record's folded (title, primary contributor), or None when the
    title folds to nothing."""
    title = fold(record.title)
    if not title:
        return None
    primary = ""
    for contributor in record.contributors:
        if contributor.role == "author":
            primary = fold(contributor.name)
            break
    else:
        if record.contributors:
            primary = fold(record.contributors[0].name)
    return title, primary


def work_key(record: BookRecord, fold: Callable[[str], str] = fold_text) -> WorkKey:
    """Deterministic edition-insensitive key for a record.

    Case, punctuation, diacritics, and surrounding whitespace are folded
    away; publication year and format never enter the key, because those
    vary between editions of one work. `fold` is `fold_text` or a
    memoized equivalent of it.
    """
    parts = _key_parts(record, fold)
    if parts is None:
        raise WorkKeyError(
            f"record {record.record_id}: title has no letters or digits to key on"
        )
    return WorkKey._make(parts)


def cluster_works(snapshot: CatalogSnapshot) -> list[WorkCluster]:
    """Partition the snapshot's records into works.

    Two records land in one cluster iff they are connected through any
    chain of: shared OCLC number, shared canonical ISBN, equal work key.
    Records whose titles fold to nothing carry no key evidence but still
    link through identifiers. Clusters come in ascending order of their
    smallest member id, each labelled by that member's key. The result
    is order-independent and cached on the snapshot.

    Union-find runs over record indexes. The records are sorted by id,
    so each group's first index is its smallest member, and collecting
    the groups in index order gives the cluster order without a sort.
    """
    cached = snapshot.memo.get("work_clusters")
    if cached is not None:
        return cached

    records = snapshot.records
    parent = list(range(len(records)))

    def find(index: int) -> int:  # with path halving
        while parent[index] != index:
            parent[index] = index = parent[parent[index]]
        return index

    def union(anchor: int, index: int) -> None:
        root, other = find(anchor), find(index)
        if root != other:
            parent[other] = root

    by_oclc: dict[int, int] = {}
    by_isbn: dict[str, int] = {}
    by_key: dict[tuple[str, str], int] = {}
    keys: list[Optional[tuple[str, str]]] = []
    fold = cache(fold_text)  # each distinct string folds once per build
    # An anchor that `setdefault` has just stored is the record itself.
    for index, record in enumerate(records):
        if record.oclc is not None:
            anchor = by_oclc.setdefault(record.oclc, index)
            if anchor != index:
                union(anchor, index)
        for isbn in record.isbns:
            anchor = by_isbn.setdefault(isbn.digits, index)
            if anchor != index:
                union(anchor, index)
        key = _key_parts(record, fold)
        keys.append(key)
        if key is not None:
            anchor = by_key.setdefault(key, index)
            if anchor != index:
                union(anchor, index)

    groups: dict[int, list[int]] = {}
    for index in range(len(records)):
        groups.setdefault(find(index), []).append(index)

    clusters = []
    for members in groups.values():
        key = keys[members[0]]
        clusters.append(WorkCluster(
            WorkKey("", "") if key is None else WorkKey._make(key),
            frozenset([records[index].record_id for index in members]),
        ))
    snapshot.memo["work_clusters"] = clusters
    return clusters
