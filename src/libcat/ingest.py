"""Parsing external record formats and persisting the canonical dataset.

Two XML inputs are supported, a Dublin Core flavor and MARC-XML, reading
only the narrow field subset the indicators need; everything else in the
source is ignored. Records that cannot yield a title are rejected per
record, not per document, and the parse report reconciles exactly:
accepted + rejected = records encountered.

The canonical on-disk form is line-delimited JSON, one entity per line,
tagged "R" (record), "L" (library), "H" (holding). Optional fields are
omitted when absent, never written as null. Saves are deterministic
(sorted by id) and atomic (write-then-rename).
"""

from __future__ import annotations

import contextlib
import fcntl
import gc
import hashlib
import itertools
import json
import os
import re
import sys
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from .errors import DatasetError, IsbnError, ParseError
from .identifiers import normalize_isbn, parse_oclc
from .model import (
    DEFAULT_KIND,
    BookRecord,
    CatalogSnapshot,
    Contributor,
    Isbn,
    LibraryOrg,
    _check_holding,
)
from .render import _JSON_LINE

_YEAR = re.compile(r"\d{4}")
_ISBD_TRAIL = " /:;,.="


@dataclass
class ParseReport:
    """Per-document tally of what was kept and what was dropped, and why."""

    accepted: int = 0
    rejections: list[tuple[str, str]] = field(default_factory=list)

    @property
    def rejected(self) -> int:
        return len(self.rejections)


def _local_name(tag: str) -> str:
    return tag.rsplit("}", 1)[-1].lower()


def _parse_xml(document: "str | bytes") -> ET.Element:
    try:
        return ET.fromstring(document)
    except (ET.ParseError, ValueError) as exc:
        raise ParseError(f"not well-formed XML: {exc}") from exc


def _record_id_for(fields: dict) -> str:
    digest = hashlib.sha1(
        json.dumps(fields, sort_keys=True, ensure_ascii=False).encode("utf-8")
    ).hexdigest()
    return "r" + digest[:12]


def _build_record(
    title: str,
    contributors: list[tuple[str, str]],
    isbns: list[Isbn],
    oclc: Optional[int],
    year: Optional[int],
    language: Optional[str],
    lc_class: Optional[str],
) -> BookRecord:
    fields = {
        "title": title,
        "contributors": contributors,
        "isbns": sorted({i.digits for i in isbns}),
        "oclc": oclc,
        "year": year,
        "language": language,
        "lc": lc_class,
    }
    return BookRecord(
        record_id=_record_id_for(fields),
        title=title,
        oclc=oclc,
        isbns=tuple(isbns),
        contributors=tuple(Contributor(name, role) for name, role in contributors),
        year=year,
        language=language,
        lc_class=lc_class,
    )


def _parse_records(
    document: "str | bytes",
    select: Callable[[ET.Element], list[ET.Element]],
    read: Callable[[ET.Element], Optional[BookRecord]],
) -> tuple[list[BookRecord], ParseReport]:
    """The record loop both XML formats share.

    `select` picks the record nodes from the root, numbered "record N"
    from 1; `read` turns one node into a record, or None when it has no
    title. Untitled nodes are rejected in document order, then a second
    pass rejects each record whose id an earlier record already took.
    """
    report = ParseReport()
    parsed: list[tuple[str, BookRecord]] = []
    for index, node in enumerate(select(_parse_xml(document)), start=1):
        record = read(node)
        if record is None:
            report.rejections.append((f"record {index}", "missing title"))
        else:
            parsed.append((f"record {index}", record))
    records: list[BookRecord] = []
    seen: dict[str, str] = {}
    for locator, record in parsed:
        earlier = seen.get(record.record_id)
        if earlier is not None:
            report.rejections.append((locator, f"duplicate of {earlier}"))
            continue
        seen[record.record_id] = locator
        records.append(record)
        report.accepted += 1
    return records, report


# --- Dublin Core -------------------------------------------------------------

def _sniff_identifier(value: str) -> tuple[Optional[Isbn], Optional[int]]:
    """Classify one stripped dc:identifier value as (ISBN, None),
    (None, OCLC number) or, for noise, (None, None)."""
    upper = value.upper()
    if value.startswith("(OCoLC)"):
        return None, parse_oclc(value)
    if upper.startswith("OCLC"):
        return None, parse_oclc(value[4:].lstrip(" :="))
    if upper.startswith("ISBN"):
        value = value[4:].lstrip(" :=")
    try:
        return normalize_isbn(value), None
    except IsbnError:
        return None, None


def _dc_nodes(root: ET.Element) -> list[ET.Element]:
    if any(_local_name(el.tag) == "title" for el in root):
        return [root]
    return list(root)


def _read_dc(node: ET.Element) -> Optional[BookRecord]:
    title = oclc = year = language = lc_class = None
    contributors: list[tuple[str, str]] = []
    isbns: list[Isbn] = []
    for el in node.iter():
        name = _local_name(el.tag)
        text = (el.text or "").strip()
        if not text:
            continue
        if name == "title" and title is None:
            title = text
        elif name == "creator":
            contributors.append((text, "author"))
        elif name == "contributor":
            contributors.append((text, "other"))
        elif name == "identifier":
            isbn, number = _sniff_identifier(text)
            if isbn is not None:
                isbns.append(isbn)
            if oclc is None:
                oclc = number
        elif name == "date" and year is None:
            match = _YEAR.search(text)
            if match:
                year = int(match.group())
        elif name == "language" and language is None:
            language = text
        elif name == "subject" and lc_class is None:
            lc_class = text
    if not title:
        return None
    return _build_record(title, contributors, isbns, oclc, year, language, lc_class)


def parse_dublin_core(document: "str | bytes") -> tuple[list[BookRecord], ParseReport]:
    """Parse a Dublin Core XML document into book records.

    Element matching is by local name, so any dc namespace prefix works.
    Each child of the root is one record; a root that itself carries a
    title element is treated as a single record.
    """
    return _parse_records(document, _dc_nodes, _read_dc)


# --- MARC-XML ----------------------------------------------------------------

def _marc_nodes(root: ET.Element) -> list[ET.Element]:
    if _local_name(root.tag) == "record":
        return [root]
    return [el for el in root.iter() if _local_name(el.tag) == "record"]


def _marc_fields(node: ET.Element) -> dict[str | tuple[str, str], list[str]]:
    """Non-empty values in document order, keyed by control-field tag
    ("001") or by (datafield tag, subfield code) (("245", "a"))."""
    out: dict[str | tuple[str, str], list[str]] = {}
    for el in node.iter():
        name = _local_name(el.tag)
        if name == "controlfield":
            values = [(el.get("tag", ""), el.text)]
        elif name == "datafield":
            tag = el.get("tag", "")
            values = [
                ((tag, sf.get("code", "")), sf.text)
                for sf in el
                if _local_name(sf.tag) == "subfield"
            ]
        else:
            continue
        for key, text in values:
            text = (text or "").strip()
            if text:
                out.setdefault(key, []).append(text)
    return out


def _read_marc(node: ET.Element) -> Optional[BookRecord]:
    fields = _marc_fields(node)
    title = None
    for value in fields.get(("245", "a"), []):
        trimmed = value.rstrip(_ISBD_TRAIL).strip()
        if trimmed:
            title = trimmed
            break
    if not title:
        return None

    contributors: list[tuple[str, str]] = []
    for tag, role in (("100", "author"), ("700", "other")):
        for value in fields.get((tag, "a"), []):
            name = value.rstrip(",. ").strip()
            if name:
                contributors.append((name, role))

    isbns: list[Isbn] = []
    for value in fields.get(("020", "a"), []):
        token = value.split()[0] if value.split() else ""
        try:
            isbns.append(normalize_isbn(token))
        except IsbnError:
            continue

    oclc: Optional[int] = None
    for value in fields.get("001", []) + fields.get(("035", "a"), []):
        if value.startswith("(OCoLC)"):
            oclc = parse_oclc(value)
            if oclc is not None:
                break

    year: Optional[int] = None
    for value in fields.get("008", []):
        chunk = value[7:11]
        if len(chunk) == 4 and chunk.isascii() and chunk.isdigit():
            year = int(chunk)
            break

    lc_values = fields.get(("050", "a"), [])
    lc_class = lc_values[0].strip() if lc_values else None
    return _build_record(title, contributors, isbns, oclc, year, None, lc_class)


def parse_marc_xml(document: "str | bytes") -> tuple[list[BookRecord], ParseReport]:
    """Parse MARC-XML into book records, reading the minimal field subset.

    245$a is the title (trailing ISBD punctuation trimmed), 100$a/700$a
    are contributors, 020$a holds ISBNs (first token; invalid ones are
    skipped), 001/035 yield an OCLC number only when prefixed "(OCoLC)",
    008 positions 7-10 give the year, 050$a the classification heading.
    """
    return _parse_records(document, _marc_nodes, _read_marc)


# --- canonical dataset -------------------------------------------------------

def _record_line(record: BookRecord) -> dict:
    line: dict = {"t": "R", "id": record.record_id}
    if record.oclc is not None:
        line["oclc"] = record.oclc
    if record.isbns:
        line["isbns"] = [i.digits for i in record.isbns]
    line["title"] = record.title
    if record.contributors:
        line["contributors"] = [[c.name, c.role] for c in record.contributors]
    if record.year is not None:
        line["year"] = record.year
    if record.language is not None:
        line["lang"] = record.language
    if record.lc_class is not None:
        line["lc"] = record.lc_class
    line["format"] = record.format
    if record.citations is not None:
        line["citations"] = record.citations
    return line


def _array(obj: dict, key: str) -> list:
    """The JSON array at `key`, empty when absent; anything else, an
    object included, is a TypeError."""
    value = obj.get(key, [])
    if type(value) is not list:
        raise TypeError(f"{key} must be an array, not {type(value).__name__}")
    return value


def _contributor(pair: object, shared: dict[tuple[str, str], Contributor]) -> Contributor:
    """The Contributor a [name, role] array names, taken from `shared`
    when an earlier line named the same pair (a Contributor is frozen, so
    records may share one), else built and, if valid, added to it."""
    if type(pair) is not list or len(pair) != 2:
        raise TypeError("each contributor must be a [name, role] array")
    name, role = pair
    if type(name) is not str or type(role) is not str:
        return Contributor(name, role)  # raises the type error
    key = (name, role)
    contributor = shared.get(key)
    if contributor is None:
        contributor = shared[key] = Contributor(name, role)
    return contributor


def _parse_record_line(obj: dict, shared: dict[tuple[str, str], Contributor]) -> BookRecord:
    return BookRecord(
        record_id=obj["id"],
        title=obj["title"],
        oclc=obj.get("oclc"),
        isbns=tuple(Isbn(d) for d in _array(obj, "isbns")),
        contributors=tuple(_contributor(pair, shared) for pair in _array(obj, "contributors")),
        year=obj.get("year"),
        language=obj.get("lang"),
        lc_class=obj.get("lc"),
        format=obj.get("format", "unknown"),
        citations=obj.get("citations"),
    )


def save_dataset(snapshot: CatalogSnapshot, path: "str | os.PathLike") -> None:
    """Write the snapshot to one JSON object per line, atomically.

    Output order is records, libraries, holdings, each sorted by id, so
    equal snapshots produce byte-identical files. Each line is encoded as
    it is built, so no more than one line's dict is alive at a time.
    """
    encode = _JSON_LINE.encode
    lines = [encode(_record_line(record)) + "\n" for record in snapshot.records]
    for library in snapshot.libraries:
        obj: dict = {
            "t": "L",
            "id": library.library_id,
            "name": library.name,
            "country": library.country,
            "kind": library.kind,
        }
        if library.memberships:
            obj["memberships"] = sorted(library.memberships)
        lines.append(encode(obj) + "\n")
    for record_id, library_id, channel in snapshot.holdings():
        obj = {"t": "H", "record": record_id, "library": library_id, "channel": channel}
        lines.append(encode(obj) + "\n")
    _write_atomic(os.fspath(path), "".join(lines))


_temp_ids = itertools.count()


def _write_atomic(path: str, text: str) -> None:
    """Replace the file at `path` with `text` by write-then-rename.

    The temp file is unique to this call (named from the process id and
    a per-process counter, created exclusively), so concurrent writers of
    one path never rename or remove each other's temp file: readers see
    one whole version. It is created 0666 less the umask, as open() would.
    Every caller writes JSON, so a lone surrogate, which UTF-8 cannot
    encode, is written as its JSON escape (`\\ud800`) and reads back equal.
    """
    directory, name = os.path.split(path)
    while True:
        tmp = os.path.join(directory, f".{name}.{os.getpid()}-{next(_temp_ids)}")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w", encoding="utf-8", errors="backslashreplace") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


@contextlib.contextmanager
def _lock_sidecar(path: "str | os.PathLike") -> Iterator[None]:
    """Hold an exclusive flock on the sidecar `<path>.lock` for the with-block.

    Processes that each take it around a read-modify-write of `path` run
    that step one at a time, so none overwrites another's update. The
    lock file stays in place: deleting it would let a waiter and a later
    process lock two different files. Opening or locking it may raise
    OSError, before the with-block runs.
    """
    fd = os.open(os.fspath(path) + ".lock", os.O_RDWR | os.O_CREAT, 0o666)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)  # releases the flock


_scan_once = json.JSONDecoder().scan_once


def _decode_line(line: str, number: int) -> object:
    """Decode one stripped dataset line exactly as `json.loads` would.

    The C scanner alone decodes a well-formed line and skips the
    per-call checks `json.loads` makes; anything else goes through
    `json.loads`, so a bad line fails with its usual message. The scanner
    raises StopIteration when no value starts at the index,
    JSONDecodeError for a value that is malformed, ValueError for an
    integer past the int-string digit limit and RecursionError for
    nesting too deep, so all of them fall back.
    """
    try:
        obj, end = _scan_once(line, 0)
        if end == len(line):
            return obj
    except (StopIteration, ValueError, RecursionError):
        pass
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise DatasetError(f"line {number}: not valid JSON ({exc.msg})") from exc
    except (ValueError, RecursionError) as exc:
        raise DatasetError(f"line {number}: not decodable JSON ({exc})") from exc


# A byte that is not UTF-8, as a text read with errors="surrogateescape" keeps it.
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def _json_lines(path: "str | os.PathLike") -> Iterator[tuple[int, object]]:
    """Each non-blank line of a JSON-lines file as (line number from 1,
    value decoded by `_decode_line`), split as a text-mode read splits
    lines. A leading UTF-8 byte-order mark is skipped; a byte that is not
    UTF-8 is a DatasetError naming its line."""
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for number, raw in enumerate(fh, start=1):
            if not raw.isascii() and (bad := _ESCAPED_BYTE.search(raw)) is not None:
                byte = ord(bad.group()) - 0xDC00
                raise DatasetError(f"line {number}: byte 0x{byte:02x} is not UTF-8")
            stripped = raw.strip()
            if stripped:
                yield number, _decode_line(stripped, number)


@contextlib.contextmanager
def _collector_paused() -> Iterator[None]:
    """Keep the cyclic collector off for the with-block, then restore the
    caller's setting, enabled or disabled, however the block ends."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def load_dataset(path: "str | os.PathLike") -> CatalogSnapshot:
    """Load a canonical dataset file; malformed lines name their line number.

    Holding lines are most lines, so their tag is tested first. Each is
    checked by `_check_holding`, and its three strings are interned into
    three lists, which the snapshot reads as triples: ids and channels
    repeat across lines, so each distinct string is held once until the
    snapshot has built its columns. Record lines share one Contributor
    per distinct (name, role) pair within this load. The collector is
    paused while lines decode and the snapshot is built: loading makes
    many objects and no reference cycles, so every collection it would
    set off walks a growing heap for nothing.
    """
    records: list[BookRecord] = []
    libraries: list[LibraryOrg] = []
    holding_records: list[str] = []
    holding_libraries: list[str] = []
    holding_channels: list[str] = []
    contributors: dict[tuple[str, str], Contributor] = {}
    intern = sys.intern
    with _collector_paused():
        for number, obj in _json_lines(path):
            if not isinstance(obj, dict) or "t" not in obj:
                raise DatasetError(f"line {number}: expected an object with a 't' tag")
            tag = obj["t"]
            try:
                if tag == "H":
                    record_id, library_id = obj["record"], obj["library"]
                    channel = obj.get("channel", "unspecified")
                    _check_holding(record_id, library_id, channel)
                    holding_records.append(intern(record_id))
                    holding_libraries.append(intern(library_id))
                    holding_channels.append(intern(channel))
                elif tag == "R":
                    records.append(_parse_record_line(obj, contributors))
                elif tag == "L":
                    libraries.append(
                        LibraryOrg(
                            library_id=obj["id"],
                            name=obj["name"],
                            country=obj["country"],
                            kind=obj.get("kind", DEFAULT_KIND),
                            memberships=obj.get("memberships", frozenset()),
                        )
                    )
                else:
                    raise DatasetError(f"line {number}: unknown entity tag {tag!r}")
            except DatasetError:
                raise
            except (KeyError, TypeError, ValueError) as exc:
                raise DatasetError(f"line {number}: {exc}") from exc
        holdings = zip(holding_records, holding_libraries, holding_channels)
        return CatalogSnapshot(records, libraries, holdings)


def merge_snapshots(base: CatalogSnapshot, delta: CatalogSnapshot) -> CatalogSnapshot:
    """Union of two snapshots; on id collisions the base entity wins.

    A snapshot keeps the first holding given for a (record, library)
    pair, so passing the base's holdings first lets them win too.
    """
    records = {r.record_id: r for r in delta.records}
    records.update({r.record_id: r for r in base.records})
    libraries = {lib.library_id: lib for lib in delta.libraries}
    libraries.update({lib.library_id: lib for lib in base.libraries})
    holdings = itertools.chain(base.holdings(), delta.holdings())
    return CatalogSnapshot(records.values(), libraries.values(), holdings)
