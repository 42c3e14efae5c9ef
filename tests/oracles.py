"""Independently coded reference implementations used by the test suite.

Everything here is written the slow, obvious way, on purpose, and shares
no code with the package under test. Where a formula has two textbook
formulations (ISBN check digits, rank correlation), the oracle uses the
other one, so an algebra slip in the package cannot cancel out here.
"""

from __future__ import annotations

import json
import math
import random
import xml.etree.ElementTree as ET
from collections import Counter
from typing import Callable, Iterable, Optional, Sequence, Union


# --- ISBN ----------------------------------------------------------------

def isbn13_is_valid(digits: str) -> bool:
    """Whole-string test: weighted sum of all 13 digits divisible by 10."""
    if len(digits) != 13 or not digits.isascii() or not digits.isdigit():
        return False
    total = 0
    for i, ch in enumerate(digits):
        weight = 3 if i % 2 == 1 else 1
        total += weight * int(ch)
    return total % 10 == 0


def isbn10_is_valid(chars: str) -> bool:
    """Whole-string test: sum of (11 - position) * value divisible by 11.

    Positions count from 1, so the weights run 10 down to 1. The canon
    example 0306406152 sums to 132 = 12 * 11 under these weights.
    """
    if len(chars) != 10:
        return False
    total = 0
    for i, ch in enumerate(chars):
        if ch.isascii() and ch.isdigit():
            value = int(ch)
        elif ch in ("X", "x") and i == 9:
            value = 10
        else:
            return False
        total += (10 - i) * value
    return total % 11 == 0


def make_isbn10(rng: random.Random) -> str:
    """Random valid ISBN-10, check character brute-forced against the oracle."""
    body = "".join(str(rng.randrange(10)) for _ in range(9))
    for candidate in "0123456789X":
        if isbn10_is_valid(body + candidate):
            return body + candidate
    raise AssertionError("unreachable: some check character always validates")


def make_isbn13(rng: random.Random, prefix: str = "978") -> str:
    """Random valid ISBN-13, check digit brute-forced against the oracle."""
    body = prefix + "".join(str(rng.randrange(10)) for _ in range(12 - len(prefix)))
    for candidate in "0123456789":
        if isbn13_is_valid(body + candidate):
            return body + candidate
    raise AssertionError("unreachable: some check digit always validates")


def isbn10_to_13(chars: str) -> str:
    """Prefix with 978 and brute-force the new check digit."""
    body = "978" + chars[:9]
    for candidate in "0123456789":
        if isbn13_is_valid(body + candidate):
            return body + candidate
    raise AssertionError("unreachable")


# --- JSON lines ------------------------------------------------------------

def decode_json_lines(
    text: str,
) -> tuple[list[tuple[int, object]], Optional[tuple[int, str]]]:
    """Decode a JSON-lines text one line at a time with plain `json.loads`.

    Lines split the way a text-mode file read splits them (at "\n", "\r\n"
    and a lone "\r"); each is stripped and blank ones are skipped. Returns
    the (line number, value) pairs before the first line json.loads
    rejects, and that line's (number, error message), or None when every
    line decodes.
    """
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    decoded: list[tuple[int, object]] = []
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            decoded.append((number, json.loads(line)))
        except json.JSONDecodeError as exc:
            return decoded, (number, exc.msg)
    return decoded, None


# --- XML records ---------------------------------------------------------

def _xml_local_name(tag: str) -> str:
    return tag.rsplit("}", 1)[-1].lower()


def marc_record_nodes(root: ET.Element) -> list[ET.Element]:
    """MARC-XML records of a whole tree: a root named record is the only
    one; otherwise each record element at any depth, in document order."""
    if _xml_local_name(root.tag) == "record":
        return [root]
    return [el for el in root.iter() if _xml_local_name(el.tag) == "record"]


def dc_record_nodes(root: ET.Element) -> list[ET.Element]:
    """Dublin Core records of a whole tree: the root itself when a child
    of it is named title, else each child of the root."""
    if any(_xml_local_name(el.tag) == "title" for el in root):
        return [root]
    return list(root)


def parse_whole_tree(
    document: "str | bytes",
    select: Callable[[ET.Element], list],
    read: Callable[[ET.Element], object],
) -> Union[str, tuple[list, list[tuple[str, str]]]]:
    """The record loop over the whole parsed tree, built before any record
    is read: (records, rejections), or the ParseError message owed to a
    document that is not well-formed or declares an encoding the parser
    cannot read.

    `select` picks the record nodes, numbered "record N" from 1; `read`
    turns one into a record, or None when it has no title. Untitled nodes
    are rejected in number order, then each record whose id an earlier
    record already took.
    """
    try:
        root = ET.fromstring(document)
    except (ET.ParseError, ValueError, LookupError) as exc:
        return f"not well-formed XML: {exc}"
    rejections: list[tuple[str, str]] = []
    parsed = []
    for index, node in enumerate(select(root), start=1):
        record = read(node)
        if record is None:
            rejections.append((f"record {index}", "missing title"))
        else:
            parsed.append((f"record {index}", record))
    records = []
    seen: dict[str, str] = {}
    for locator, record in parsed:
        earlier = seen.get(record.record_id)
        if earlier is not None:
            rejections.append((locator, f"duplicate of {earlier}"))
            continue
        seen[record.record_id] = locator
        records.append(record)
    return records, rejections


# --- ranking and correlation ---------------------------------------------

def average_ranks(values: Sequence[float]) -> list[float]:
    """Fractional ranks by counting: rank = #smaller + (#equal + 1) / 2."""
    ranks = []
    for v in values:
        smaller = sum(1 for w in values if w < v)
        equal = sum(1 for w in values if w == v)
        ranks.append(smaller + (equal + 1) / 2)
    return ranks


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    return cov / math.sqrt(vx * vy)


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Rank both coordinates, then Pearson on the ranks. No shortcuts."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need two paired samples")
    if all(x == xs[0] for x in xs) or all(y == ys[0] for y in ys):
        raise ValueError("constant coordinate")
    return pearson(average_ranks(xs), average_ranks(ys))


def competition_ranks(values: Sequence[float]) -> list[int]:
    """Standard competition ranking of values, best (largest) first.

    Sort-based route: rank of v is 1 + the number of strictly larger
    values, computed by scanning a sorted copy.
    """
    ordered = sorted(values, reverse=True)
    ranks = []
    for v in values:
        position = 0
        while position < len(ordered) and ordered[position] > v:
            position += 1
        ranks.append(position + 1)
    return ranks


# --- clustering -----------------------------------------------------------

def bfs_clusters(
    items: Sequence[str],
    related: dict[str, set[str]],
) -> list[frozenset[str]]:
    """Connected components by breadth-first search over an explicit adjacency."""
    seen: set[str] = set()
    components: list[frozenset[str]] = []
    for start in items:
        if start in seen:
            continue
        queue = [start]
        seen.add(start)
        component = {start}
        while queue:
            node = queue.pop(0)
            for neighbor in related.get(node, ()):  # noqa: B909 (static dict)
                if neighbor not in seen:
                    seen.add(neighbor)
                    component.add(neighbor)
                    queue.append(neighbor)
        components.append(frozenset(component))
    return components


def cluster_records_bruteforce(records: Iterable) -> list[frozenset[str]]:
    """Cluster book records by pairwise evidence, O(n^2), no union-find.

    Two records are related when they share an OCLC number, share a
    canonical ISBN, or produce equal work keys. The work key comes from
    the package under test; the traversal does not.
    """
    from libcat.identifiers import work_key

    recs = list(records)
    adjacency: dict[str, set[str]] = {r.record_id: set() for r in recs}
    for a in recs:
        for b in recs:
            if a.record_id >= b.record_id:
                continue
            linked = False
            if a.oclc is not None and b.oclc is not None and a.oclc == b.oclc:
                linked = True
            if not linked:
                a_isbns = {i.digits for i in a.isbns}
                b_isbns = {i.digits for i in b.isbns}
                if a_isbns & b_isbns:
                    linked = True
            if not linked:
                try:
                    linked = work_key(a) == work_key(b)
                except Exception:
                    linked = False
            if linked:
                adjacency[a.record_id].add(b.record_id)
                adjacency[b.record_id].add(a.record_id)
    return bfs_clusters([r.record_id for r in recs], adjacency)


# --- counting and formatting ----------------------------------------------

def inclusions_bruteforce(holdings: Iterable, record_ids: set[str]) -> int:
    """Count holdings touching the record set by direct scan."""
    return sum(1 for h in holdings if h.record_id in record_ids)


def distinct_holders_bruteforce(holdings: Iterable, record_id: str) -> int:
    return len({h.library_id for h in holdings if h.record_id == record_id})


def holder_counts(holdings: Iterable) -> Counter:
    """Distinct holders per record id, counted over the set of
    (record, library) pairs; a record nobody holds counts 0."""
    return Counter(record_id for record_id, _ in {(h.record_id, h.library_id) for h in holdings})


def records_by_class(records: Iterable) -> dict:
    """Classified records grouped by class, in input order."""
    by_class: dict = {}
    for record in records:
        if record.lc_class is not None:
            by_class.setdefault(record.lc_class, []).append(record)
    return by_class


def kept_holdings(libraries: Iterable, holdings: Iterable, library_filter) -> list:
    """The holdings a library filter keeps, reading each clause directly:
    the holder must pass every library clause, the channel must not be
    excluded."""
    if library_filter is None:
        return list(holdings)
    f = library_filter
    kept = {
        library.library_id
        for library in libraries
        if (f.countries is None or library.country in f.countries)
        and (f.kinds is None or library.kind in f.kinds)
        and (f.required_memberships is None or f.required_memberships <= library.memberships)
    }
    excluded = f.excluded_channels or ()
    return [h for h in holdings if h.library_id in kept and h.channel not in excluded]


def metric_values_bruteforce(records: Iterable, holdings: Iterable, name: str) -> list:
    """One per-record metric in record-id order, None where undefined:
    libcitations counts the record's distinct holders in the holding
    lines, citations is the record's field, and CNLS divides libcitations
    by the plain mean over the record's class (None without a class or
    when that mean is 0)."""
    holders: dict = {}
    for h in holdings:
        holders.setdefault(h.record_id, set()).add(h.library_id)
    values = []
    for record in sorted(records, key=lambda r: r.record_id):
        count = len(holders.get(record.record_id, ()))
        if name == "libcitations":
            values.append(count)
        elif name == "citations":
            values.append(record.citations)
        elif record.lc_class is None:
            values.append(None)
        else:
            peers = [
                len(holders.get(r.record_id, ())) for r in records if r.lc_class == record.lc_class
            ]
            mean = sum(peers) / len(peers)
            values.append(None if mean == 0 else count / mean)
    return values


def complete_rows(columns: Sequence[list]) -> list[tuple]:
    """The rows across the columns that hold no None."""
    return [row for row in zip(*columns) if all(value is not None for value in row)]


def percent_string(count: int, total: int) -> str:
    """count/total as a percentage, 2 decimals, ties away from zero.

    Integer-only arithmetic: scale to hundredths of a percent, then apply
    half-up on the remainder. Independent of the decimal module.
    """
    if total <= 0:
        raise ValueError("total must be positive")
    numerator = count * 100 * 100  # hundredths of a percent
    quotient, remainder = divmod(numerator, total)
    if remainder * 2 >= total:
        quotient += 1
    return f"{quotient // 100}.{quotient % 100:02d}"


def rate_string(numerator: int, denominator: int, places: int = 4) -> str:
    """Exact decimal division rendered half-up to `places`, integers only."""
    if denominator <= 0:
        raise ValueError("denominator must be positive")
    scale = 10 ** places
    scaled = numerator * scale
    quotient, remainder = divmod(scaled, denominator)
    if remainder * 2 >= denominator:
        quotient += 1
    whole, frac = divmod(quotient, scale)
    return f"{whole}.{frac:0{places}d}"
