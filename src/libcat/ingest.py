"""Parsing external record formats and persisting the canonical dataset.

Two XML inputs are supported, a Dublin Core flavor and MARC-XML, reading
only the narrow field subset the indicators need; everything else in the
source is ignored. Records that cannot yield a title are rejected per
record, not per document, and the parse report reconciles exactly:
accepted + rejected = records encountered.

Both are parsed as a stream (`_parse_records`): the standard library's
`iterparse` reads the document 16 KiB at a time, each record is read
when its end tag arrives, and once no record is open the finished nodes
are dropped from their parent. So a parse holds one record's subtree and
one read's nodes, not the document's tree, and exports of any length
parse in bounded memory.

The canonical on-disk form is line-delimited JSON, one entity per line,
tagged "R" (record), "L" (library), "H" (holding). Optional fields are
omitted when absent, never written as null. Saves are deterministic
(sorted by id), atomic (write-then-rename) and durable (synced before
and after the rename).

Loading keeps a snapshot sidecar, `<dataset>.snap`: the snapshot last
decoded from the file, under the sha256 of the bytes it was decoded
from. A load whose file hashes the same rebuilds that snapshot from the
sidecar instead of decoding and checking every line again; any other
load decodes the file and rewrites the sidecar, best-effort. The
sidecar only ever changes how fast a load is, never what it returns or
raises.
"""

from __future__ import annotations

import contextlib
import fcntl
import functools
import gc
import hashlib
import io
import itertools
import json
import marshal
import mmap
import os
import re
import stat
import sys
from array import array
from collections import deque
from operator import attrgetter
from typing import TYPE_CHECKING, BinaryIO, Callable, Iterator, Optional, Sequence

from . import model
from .errors import DatasetError, IsbnError, ParseError
from .identifiers import normalize_isbn, parse_oclc
from .model import (
    DEFAULT_KIND,
    BookRecord,
    CatalogSnapshot,
    Contributor,
    Isbn,
    LibraryOrg,
    _SURROGATE,
    _check_holding,
)
from .render import _JSON_LINE

if TYPE_CHECKING:  # the XML parser loads only when an XML input is parsed
    import xml.etree.ElementTree as ET

_YEAR = re.compile(r"\d{4}")
_ISBD_TRAIL = " /:;,.="


class ParseReport:
    """Per-document tally of what was kept and what was dropped, and why."""

    __slots__ = ("accepted", "rejections")

    def __init__(
        self, accepted: int = 0, rejections: Optional[list[tuple[str, str]]] = None
    ) -> None:
        self.accepted = accepted
        self.rejections = [] if rejections is None else rejections

    def __eq__(self, other: object) -> bool:
        if type(other) is not ParseReport:
            return NotImplemented
        return (self.accepted, self.rejections) == (other.accepted, other.rejections)

    def __repr__(self) -> str:
        return f"ParseReport(accepted={self.accepted!r}, rejections={self.rejections!r})"

    @property
    def rejected(self) -> int:
        return len(self.rejections)


_LOCAL_NAMES_HELD = 4096


class _LocalNames(dict):
    """Tag to lower-cased local name ("{ns}Title" to "title"), memoized:
    an export repeats a handful of tags hundreds of thousands of times. A
    pure cache, kept to _LOCAL_NAMES_HELD tags, so a document of distinct
    tags cannot grow it without bound."""

    def __missing__(self, tag: str) -> str:
        name = tag.rsplit("}", 1)[-1].lower()
        if len(self) < _LOCAL_NAMES_HELD:
            self[tag] = name
        return name


_local_name = _LocalNames().__getitem__


def _stream(document: "str | bytes | BinaryIO") -> "BinaryIO | io.StringIO":
    """`document` as a file `iterparse` can read: an open file as it is, a
    str or bytes wrapped in one. A str holding a lone surrogate first
    raises the UnicodeEncodeError that parsing the whole str raises."""
    if hasattr(document, "read"):
        return document
    if isinstance(document, str):
        if not document.isascii() and _SURROGATE.search(document):
            document.encode("utf-8")
        return io.StringIO(document)
    return io.BytesIO(document)


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
    document: "str | bytes | BinaryIO",
    is_record: Callable[[int, str], bool],
    read: Callable[[ET.Element], Optional[BookRecord]],
) -> tuple[list[BookRecord], ParseReport]:
    """The record loop both XML formats share, streamed.

    `is_record(depth, tag)` says at its start tag whether a node (the
    root at depth 0) is a record; a root that is a record is the only
    one. Records are numbered "record N" from 1 in start-tag order, and
    `read` turns each into a record, or None when it has no title, at its
    end tag. A record nested in another stays in the outer one's subtree,
    so both are taken, in number order, when the outer one ends. Once no
    record is open, a finished node's parent drops its children, so
    memory holds the open record and one read's nodes, never the whole
    tree. Untitled records are rejected, and then each record whose id
    an earlier record already took, both in number order.
    """
    import xml.etree.ElementTree as ET

    report = ParseReport()
    records: list[BookRecord] = []
    duplicates: list[tuple[str, str]] = []
    seen: dict[str, int] = {}  # record id -> number of the record that took it

    def take(number: int, record: Optional[BookRecord]) -> None:
        if record is None:
            report.rejections.append((f"record {number}", "missing title"))
        elif (earlier := seen.setdefault(record.record_id, number)) != number:
            duplicates.append((f"record {number}", f"duplicate of record {earlier}"))
        else:
            records.append(record)

    path: list[ET.Element] = []  # the open nodes, the root first
    open_records: list[tuple[int, int]] = []  # (depth, number), outermost first
    done: list[tuple[int, Optional[BookRecord]]] = []  # read, in the open outermost record
    started = 0
    root_is_record = False
    try:
        for event, node in ET.iterparse(_stream(document), ("start", "end")):
            if event == "start":
                if not root_is_record and is_record(len(path), node.tag):
                    root_is_record = not path
                    started += 1
                    open_records.append((len(path), started))
                path.append(node)
                continue
            path.pop()
            if open_records and open_records[-1][0] == len(path):
                done.append((open_records.pop()[1], read(node)))
                if not open_records:
                    for number, record in sorted(done, key=lambda pair: pair[0]):
                        take(number, record)
                    done.clear()
            if path and not open_records:
                del path[-1][:]  # the parent is in no record: nothing reads its children
    except (ET.ParseError, ValueError, LookupError) as exc:
        # expat's own faults are ET.ParseError, with its line and column,
        # whichever read holds them; a declared encoding the parser cannot
        # read is a ValueError or LookupError, a lone surrogate a ValueError
        raise ParseError(f"not well-formed XML: {exc}") from exc
    report.rejections += duplicates
    report.accepted = len(records)
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


class _RootTitle(Exception):
    """A child of the root is named title, so the root is the one record."""


def _is_dc_item(depth: int, tag: str) -> bool:
    if depth == 1 and _local_name(tag) == "title":
        raise _RootTitle
    return depth == 1


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


def parse_dublin_core(
    document: "str | bytes | BinaryIO",
) -> tuple[list[BookRecord], ParseReport]:
    """Parse a Dublin Core XML document (text, bytes or an open binary
    file) into book records.

    Element matching is by local name, so any dc namespace prefix works.
    Each child of the root is one record; a root that itself carries a
    title element is treated as a single record. The parse takes the
    children as records until a child named title starts, and then parses
    again from the start with the root as the record, so it never keeps
    the children to find out. A file that cannot seek back is read whole
    first.
    """
    start = None
    if hasattr(document, "read"):
        if document.seekable():
            start = document.tell()
        else:
            document = document.read()
    try:
        return _parse_records(document, _is_dc_item, _read_dc)
    except _RootTitle:
        if start is not None:
            document.seek(start)
        return _parse_records(document, lambda depth, tag: depth == 0, _read_dc)


# --- MARC-XML ----------------------------------------------------------------

def _is_marc_record(depth: int, tag: str) -> bool:
    return _local_name(tag) == "record"


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


def parse_marc_xml(
    document: "str | bytes | BinaryIO",
) -> tuple[list[BookRecord], ParseReport]:
    """Parse MARC-XML into book records, reading the minimal field subset.

    245$a is the title (trailing ISBD punctuation trimmed), 100$a/700$a
    are contributors, 020$a holds ISBNs (first token; invalid ones are
    skipped), 001/035 yield an OCLC number only when prefixed "(OCoLC)",
    008 positions 7-10 give the year, 050$a the classification heading.
    A root named record is the one record; otherwise every record element
    at any depth is one. `document` is text, bytes or an open binary file.
    """
    return _parse_records(document, _is_marc_record, _read_marc)


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
    it is built, so no more than one line's dict is alive at a time. The
    write is durable: once this returns, a crash keeps the new file.
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
    _write_atomic(os.fspath(path), "".join(lines), durable=True)


_temp_ids = itertools.count()


def _write_atomic(path: str, data: "str | bytes", durable: bool = False) -> None:
    """Replace the file at `path` with `data` by write-then-rename.

    The temp file is unique to this call (named from the process id and
    a per-process counter, created exclusively), so concurrent writers of
    one path never rename or remove each other's temp file: readers see
    one whole version. It is created 0666 less the umask, as open() would.
    Bytes are written as they are and text as strict UTF-8: no entity
    holds a lone surrogate, so text that does is a bug, and it raises
    UnicodeEncodeError before any file is made.

    When `durable`, the temp file is synced before the rename and its
    directory after it, so a crash leaves the old or the new file whole,
    never an empty one. The dataset is written so. The snapshot sidecar,
    which a load can always rebuild, is not; nor is the quota state file,
    which this creates and `client.QuotaStore` then writes in place.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    directory, name = os.path.split(path)
    while True:
        tmp = os.path.join(directory, f".{name}.{os.getpid()}-{next(_temp_ids)}")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            if durable:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    if durable:
        fd = os.open(directory or os.curdir, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


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


def _json_lines(binary: BinaryIO) -> Iterator[tuple[int, object]]:
    """Each non-blank line of an open JSON-lines file, read as text, as
    (line number from 1, value decoded by `_decode_line`), split as a
    text-mode read splits lines. A leading UTF-8 byte-order mark is
    skipped; a byte that is not UTF-8 is a DatasetError naming its line.
    Closes the file when the lines run out."""
    with io.TextIOWrapper(binary, encoding="utf-8-sig", errors="surrogateescape") as fh:
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

    A regular file is first looked up in its snapshot sidecar,
    `<path>.snap`: when the sidecar holds the snapshot last decoded from
    exactly these bytes, by this code, that snapshot is rebuilt from it
    and nothing is decoded (see `_read_sidecar`). Otherwise, the sidecar
    missing, stale, foreign or unreadable, the lines are decoded as
    below, and the sidecar is then rewritten, best-effort, under the
    digest of the bytes that were decoded.

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
    with open(path, "rb", buffering=0) as raw:
        if not stat.S_ISREG(os.fstat(raw.fileno()).st_mode):
            return _decode_dataset(io.BufferedReader(raw))
        sidecar = os.fsdecode(path) + ".snap"
        try:
            snapshot = _read_sidecar(sidecar, _sha256(raw))
        except OSError:
            snapshot = None
        if snapshot is not None:
            return snapshot
        raw.seek(0)
        hashed = _Hashed(raw)
        snapshot = _decode_dataset(io.BufferedReader(hashed))
    _write_sidecar(sidecar, hashed.sha.digest(), snapshot)
    return snapshot


def _decode_dataset(binary: BinaryIO) -> CatalogSnapshot:
    """The snapshot the JSON lines of `binary` hold, checked line by line."""
    records: list[BookRecord] = []
    libraries: list[LibraryOrg] = []
    holding_records: list[str] = []
    holding_libraries: list[str] = []
    holding_channels: list[str] = []
    contributors: dict[tuple[str, str], Contributor] = {}
    intern = sys.intern
    with _collector_paused():
        for number, obj in _json_lines(binary):
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


# --- snapshot sidecar ----------------------------------------------------------
#
# `<dataset>.snap` is _SNAP_MAGIC, then three sha256 digests (the dataset
# bytes the snapshot was decoded from, `_layout_key()`, the payload), then
# the payload: `_snapshot_columns` of the snapshot, marshalled. marshal
# reads back only plain values and runs no code, unlike pickle.

_SNAP_MAGIC = b"libcat snapshot sidecar\n"
_DIGEST_SIZE = hashlib.sha256().digest_size
_HASH_CHUNK = 1 << 16  # below the allocator's default mmap threshold


def _sha256(raw: BinaryIO) -> bytes:
    """The sha256 of what is left to read in `raw`, read a chunk at a time."""
    sha = hashlib.sha256()
    buffer = bytearray(_HASH_CHUNK)
    with memoryview(buffer) as view:
        while count := raw.readinto(buffer):
            sha.update(view[:count])
    return sha.digest()


class _Hashed(io.RawIOBase):
    """`raw` read through, every byte it hands on added to `sha`."""

    def __init__(self, raw: BinaryIO) -> None:
        super().__init__()
        self.raw = raw
        self.sha = hashlib.sha256()

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        count = self.raw.readinto(buffer)
        with memoryview(buffer) as view:
            self.sha.update(view[:count])
        return count


@functools.cache
def _layout_key() -> bytes:
    """A digest of everything a sidecar's payload depends on beyond the
    dataset bytes: the entity fields, the marshal format, the byte order
    and item sizes of the holding columns, and the source of this module
    and of the model, whose checks the snapshot passed. A sidecar written
    under any other key is stale."""
    sha = hashlib.sha256()
    layout = (
        [list(kind._fields) for kind in (BookRecord, Isbn, Contributor, LibraryOrg)],
        marshal.version,
        sys.byteorder,
        array("I").itemsize,
        array("B").itemsize,
    )
    sha.update(repr(layout).encode())
    for module in (model, sys.modules[__name__]):
        with open(module.__file__, "rb") as source:
            sha.update(source.read())
    return sha.digest()


def _snapshot_columns(snapshot: CatalogSnapshot) -> tuple:
    """A snapshot as plain values: one column per record field and per
    library field, then the three holding columns as bytes. A record
    field that holds a tuple of entities (contributors, ISBNs) is the
    pair (the distinct entities' values, each record's tuple as indexes
    into those), so each distinct entity is rebuilt once."""
    records = snapshot.records

    def column(name: str) -> tuple:
        cells = tuple(map(attrgetter(name), records))
        if name not in _SHARED:
            return cells
        value_of = _SHARED[name][0]
        values: dict = {}  # each distinct value -> its index
        indexes = tuple(
            tuple(values.setdefault(value_of(entity), len(values)) for entity in entities)
            for entities in cells
        )
        return tuple(values), indexes

    library_columns = tuple(
        tuple(
            tuple(sorted(library.memberships)) if name == "memberships"
            else getattr(library, name)
            for library in snapshot.libraries
        )
        for name in LibraryOrg._fields
    )
    return (
        tuple(map(column, BookRecord._fields)),
        library_columns,
        snapshot.holding_records.tobytes(),
        snapshot.holding_libraries.tobytes(),
        snapshot.holding_channels.tobytes(),
    )


# A record field that holds a tuple of entities -> (the plain value that
# `_snapshot_columns` writes for an entity, how `_rebuild` builds the
# entities back from a tuple of those values).
_SHARED: dict[str, tuple[Callable, Callable[[tuple], list]]] = {
    "contributors": (
        lambda contributor: (contributor.name, contributor.role),
        lambda pairs: [Contributor(name, role) for name, role in pairs],
    ),
    "isbns": (lambda isbn: isbn.digits, lambda digits: _entities(Isbn, [digits])),
}


def _entities(kind: type, columns: Sequence[Sequence]) -> list:
    """Entities of the `model` entity class `kind` whose fields hold
    `columns` (one per field, in field order), built without `__init__`:
    only for values taken from entities that passed its checks."""
    names = kind._fields
    if len(columns) != len(names) or len(set(map(len, columns))) != 1:
        raise ValueError("columns do not fit the fields")
    entities = list(map(object.__new__, itertools.repeat(kind, len(columns[0]))))
    for name, column in zip(names, columns):
        deque(map(getattr(kind, name).__set__, entities, column), maxlen=0)
    return entities


def _rebuild(columns: tuple) -> CatalogSnapshot:
    """The snapshot that `_snapshot_columns` turned into `columns`. Each
    distinct contributor is built, and so checked, once; the holding
    columns are read back from their bytes, and the memo starts empty."""
    record_columns, library_columns, *holdings = columns
    record_columns = list(record_columns)
    for i, name in enumerate(BookRecord._fields):
        if name in _SHARED:
            values, indexes = record_columns[i]
            entities = _SHARED[name][1](values)
            record_columns[i] = [tuple(map(entities.__getitem__, each)) for each in indexes]
    library_columns = [
        [frozenset(tags) for tags in column] if name == "memberships" else column
        for name, column in zip(LibraryOrg._fields, library_columns)
    ]
    holding_records, holding_libraries, holding_channels = array("I"), array("I"), array("B")
    for column, data in zip((holding_records, holding_libraries, holding_channels), holdings):
        column.frombytes(data)
    return CatalogSnapshot._from_columns(
        tuple(_entities(BookRecord, record_columns)),
        tuple(_entities(LibraryOrg, library_columns)),
        holding_records,
        holding_libraries,
        holding_channels,
    )


def _open_sidecar(sidecar: str) -> Optional[BinaryIO]:
    """`sidecar` open for reading when it is a regular file, else None;
    a FIFO of that name is not waited on. FileNotFoundError if absent."""
    fh = open(os.open(sidecar, os.O_RDONLY | os.O_NONBLOCK), "rb")
    if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
        return fh
    fh.close()
    return None


def _read_sidecar(sidecar: str, digest: bytes) -> Optional[CatalogSnapshot]:
    """The snapshot in `sidecar` when it is whole and was written from the
    dataset bytes whose sha256 is `digest`, under this `_layout_key()`;
    else None. May raise OSError.

    Such a snapshot passed every check of a load, so it is rebuilt
    without them. Equal bytes give an equal snapshot, so a hand edit of
    the dataset, or a change of this code, is a miss, never stale data.
    """
    fh = _open_sidecar(sidecar)
    if fh is None:
        return None
    with fh:
        header = fh.read(len(_SNAP_MAGIC) + 3 * _DIGEST_SIZE)
        if header[:-_DIGEST_SIZE] != _SNAP_MAGIC + digest + _layout_key():
            return None
        # The payload is read into memory mapped for this load alone and
        # unmapped after it: a buffer from the allocator would leave the
        # heap holding its size, which raised a caller's peak RSS.
        size = os.fstat(fh.fileno()).st_size - len(header)
        with mmap.mmap(-1, max(size, 1)) as buffer, \
                memoryview(buffer)[: fh.readinto(buffer)] as payload:
            if hashlib.sha256(payload).digest() != header[-_DIGEST_SIZE:]:
                return None
            with _collector_paused():
                try:
                    columns = marshal.loads(payload)
                except (EOFError, ValueError, TypeError):
                    return None
    with _collector_paused():
        try:
            return _rebuild(columns)
        except (ValueError, TypeError, IndexError):
            return None


def _replaceable(sidecar: str) -> bool:
    """Whether `sidecar` is absent or starts as a sidecar does: a file of
    that name that is no sidecar is the user's, and stays. May raise
    OSError."""
    try:
        fh = _open_sidecar(sidecar)
    except FileNotFoundError:
        return True
    if fh is None:
        return False
    with fh:
        return fh.read(len(_SNAP_MAGIC)) == _SNAP_MAGIC


def _write_sidecar(sidecar: str, digest: bytes, snapshot: CatalogSnapshot) -> None:
    """Write `snapshot` as the sidecar of the dataset bytes whose sha256 is
    `digest`, unless a file that is no sidecar holds the name.

    Best-effort: an OSError (a read-only directory, a name too long)
    leaves things as they are and costs the next load one decode. Not
    durable, for the same reason, and unlocked, so a load never waits on
    a save: the header ties the payload to its dataset bytes, and the
    rename is atomic.
    """
    try:
        if not _replaceable(sidecar):
            return
        with _collector_paused():
            payload = marshal.dumps(_snapshot_columns(snapshot))
        header = _SNAP_MAGIC + digest + _layout_key() + hashlib.sha256(payload).digest()
        _write_atomic(sidecar, header + payload)
    except OSError:
        pass


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
