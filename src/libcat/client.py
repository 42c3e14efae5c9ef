"""HTTP client for a union-catalog locations API, with a daily quota guard.

The client looks records up on two paths of the remote service:

    /content/libraries/{OCLC_Number}
    /content/libraries/isbn/{ISBN}

Responses arrive as JSON or as an XML variant of the same shape, chosen
by the server's Content-Type:

    {"record": {"title": …, "oclc": …, "isbns": […]},
     "locations": [{"name": …, "country": …, "institution_id": …}]}

    <locationResponse>
      <record><title>…</title><oclc>…</oclc><isbn>…</isbn></record>
      <locations><location><name>…</name><country>…</country>
        <institutionId>…</institutionId></location></locations>
    </locationResponse>

Both variants decode to the JSON shape and then pass one rule: every
location needs a non-blank name, country and institution id (JSON may
send the id as an integer), each stripped of surrounding spaces, and
the first location per institution id wins; the record's title must be
a string and its OCLC number an integer or text that reads as one. A
body that breaks the rule is a TransportError, which `harvest` reports
per record.

Every physical HTTP request, retries and 404s included, costs one unit
of a daily budget (default 50 000 per UTC day). The budget is checked
and charged before the socket is touched, and can persist to a state
file so separate process runs, concurrent ones included, share one
day's allowance.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import functools
import http.client
import json
import math
import os
import queue
import re
import select
import ssl
import threading
import time
import urllib.parse
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from .errors import LibcatError, QuotaExceededError, QuotaStateError, TransportError
from .identifiers import normalize_isbn
from .ingest import _lock_sidecar, _write_atomic
from .model import BookRecord, CatalogSnapshot, Holding, LibraryOrg
from .model import _check_strings, _check_types

DEFAULT_QUOTA_LIMIT = 50_000
DEFAULT_RETRIES = 3
DEFAULT_BACKOFF_SECONDS = 0.5
MAX_PARALLELISM = 32


@dataclass(frozen=True, slots=True)
class Location:
    """One holding institution as reported by the locations API."""

    name: str
    country: str
    institution_id: str

    def __post_init__(self) -> None:
        _check_types(self, str, "name", "country", "institution_id")
        for attr in ("name", "country", "institution_id"):
            value = getattr(self, attr).strip()
            if not value:
                raise ValueError(f"location {attr} must be non-blank")
            object.__setattr__(self, attr, value)


@dataclass(frozen=True, slots=True)
class MatchedRecord:
    """The bibliographic fragment a lookup matched, as far as the API tells."""

    title: Optional[str] = None
    oclc: Optional[int] = None
    isbns: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        _check_types(self, str, "title")
        _check_types(self, int, "oclc")
        _check_strings(self, "isbns", tuple)


@dataclass(frozen=True, slots=True)
class LocationResponse:
    matched_record: Optional[MatchedRecord]
    locations: tuple[Location, ...]

    @property
    def is_empty(self) -> bool:
        return self.matched_record is None and not self.locations


EMPTY_RESPONSE = LocationResponse(matched_record=None, locations=())


@dataclass(frozen=True, slots=True)
class QuotaState:
    """Point-in-time view of the daily consultation budget."""

    day: dt.date
    used: int
    limit: int

    @property
    def remaining(self) -> int:
        return max(0, self.limit - self.used)


def _utc_today() -> dt.date:
    return dt.datetime.now(dt.timezone.utc).date()


class QuotaStore:
    """Daily request budget with optional cross-process persistence.

    consume() charges before any request is issued; once the limit is
    reached it raises without side effects. The counter resets when the
    UTC day changes. Accounting is serialized under one lock, so
    concurrent lookups never overshoot the limit. With a state file,
    construction, consume() and state() also hold an exclusive flock on
    the sidecar `<path>.lock` while they read the file and roll the day;
    consume() then charges and writes it before letting go, so processes
    that share the file lose no charge. The file is read only under the
    flock, as a charge writes it in place.

    The first charge creates the file whole, by write-then-rename. Each
    later charge writes the new JSON over the old with one pwrite at
    offset 0, padded with spaces to the file's size, so the file never
    shrinks and a process killed after the write leaves whole JSON
    (trailing spaces are JSON whitespace). No write is synced: a harvest
    charges once per request, 1,104 times in one benchmark run, and a
    sync took each write from about 0.15 to 0.55 ms on ext4. So a machine
    crash can lose the last charges, or leave a file that reads as
    unreadable.
    """

    def __init__(
        self,
        limit: int = DEFAULT_QUOTA_LIMIT,
        state_path: "str | os.PathLike | None" = None,
        today: Optional[Callable[[], dt.date]] = None,
    ) -> None:
        if limit < 0:
            raise ValueError("quota limit must be non-negative")
        self.limit = limit
        self.state_path = os.fspath(state_path) if state_path is not None else None
        self._today = today if today is not None else _utc_today
        self._lock = threading.Lock()
        self._day, self._used = dt.date.min, 0
        if self.state_path is not None:
            self.state()  # a corrupt file fails here, before any charge

    def _parse(self, data: bytes) -> tuple[dt.date, int]:
        """The (day, used) the state file's bytes record."""
        try:
            obj = json.loads(data.decode("utf-8"))
            day = dt.date.fromisoformat(obj["day"])
            used = obj["used"]
            if type(used) is not int or used < 0:
                raise ValueError("used must be a JSON integer >= 0")
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise QuotaStateError(
                f"unreadable quota state file {self.state_path}: {exc}"
            ) from exc
        return day, used

    def _account(self, charge: bool) -> QuotaState:
        """Under the lock (and the sidecar flock, reading the state file):
        roll the day, then, if `charge`, charge one request and persist."""
        with self._lock, contextlib.ExitStack() as stack:
            fd = None
            if self.state_path is not None:
                try:
                    stack.enter_context(_lock_sidecar(self.state_path))
                except OSError as exc:
                    raise QuotaStateError(
                        f"cannot lock quota state file {self.state_path}: {exc}"
                    ) from exc
                fd, data = self._read(os.O_RDWR if charge else os.O_RDONLY)
                if fd is None:
                    self._day, self._used = dt.date.min, 0
                else:
                    stack.callback(os.close, fd)
                    self._day, self._used = self._parse(data)
            today = self._today()
            if today != self._day:
                self._day, self._used = today, 0
            if charge:
                if self._used >= self.limit:
                    raise QuotaExceededError(
                        f"daily limit of {self.limit} consultations is exhausted "
                        f"({self._used} used)"
                    )
                self._used += 1
                if self.state_path is not None:
                    self._write(fd, len(data))
            return QuotaState(self._day, self._used, self.limit)

    def _read(self, flags: int) -> tuple[Optional[int], bytes]:
        """Open the state file with `flags` and read it whole: (fd, bytes),
        or (None, b"") when there is no file yet."""
        try:
            fd = os.open(self.state_path, flags)
        except FileNotFoundError:
            return None, b""
        except OSError as exc:
            verb = "cannot write" if flags & os.O_RDWR else "unreadable"
            raise QuotaStateError(f"{verb} quota state file {self.state_path}: {exc}") from exc
        try:
            with open(fd, "rb", closefd=False) as fh:
                return fd, fh.read()
        except OSError as exc:
            os.close(fd)
            raise QuotaStateError(
                f"unreadable quota state file {self.state_path}: {exc}"
            ) from exc

    def _write(self, fd: Optional[int], size: int) -> None:
        """Record (day, used): over the open file `fd` of `size` bytes in
        place, or as a new file when there is none."""
        text = json.dumps({"day": self._day.isoformat(), "used": self._used})
        try:
            if fd is None:
                _write_atomic(self.state_path, text)
                return
            data = text.encode("ascii").ljust(size)
            written = os.pwrite(fd, data, 0)
            if written != len(data):
                raise OSError(f"short write, {written} of {len(data)} bytes")
        except OSError as exc:
            raise QuotaStateError(
                f"cannot write quota state file {self.state_path}: {exc}"
            ) from exc

    def consume(self) -> int:
        """Charge one request; returns the remaining budget.

        Raises QuotaExceededError, charging nothing, when the budget is
        spent.
        """
        return self._account(charge=True).remaining

    def state(self) -> QuotaState:
        return self._account(charge=False)


def _text(element: Optional[ET.Element]) -> Optional[str]:
    if element is None or element.text is None:
        return None
    stripped = element.text.strip()
    return stripped if stripped else None


def _build_response(kind: str, decode: Callable[[], object]) -> LocationResponse:
    """Build a response from `decode()`, the body in the JSON shape,
    under the module's decode rule; any failure, the decode's included,
    is a TransportError."""
    try:
        obj = decode()
        record = None
        fragment = obj.get("record")
        if fragment is not None:
            oclc = fragment.get("oclc")
            record = MatchedRecord(
                title=fragment.get("title"),
                oclc=int(oclc) if isinstance(oclc, str) else oclc,
                isbns=fragment.get("isbns", ()),
            )
        locations: dict[str, Location] = {}
        for item in obj.get("locations", ()):
            inst = item.get("institution_id")
            location = Location(
                item.get("name"),
                item.get("country"),
                str(inst) if type(inst) is int else inst,
            )
            locations.setdefault(location.institution_id, location)
    except (ValueError, TypeError, AttributeError, RecursionError, ET.ParseError) as exc:
        raise TransportError(f"malformed {kind} location response: {exc}") from exc
    return LocationResponse(record, tuple(locations.values()))


def _response_from_json(body: bytes) -> LocationResponse:
    return _build_response("JSON", lambda: json.loads(body.decode("utf-8")))


def _response_from_xml(body: bytes) -> LocationResponse:
    def shape() -> dict:
        obj: dict = {"record": None, "locations": []}
        for element in ET.fromstring(body).iter():
            tag = element.tag.rsplit("}", 1)[-1]
            if tag == "record":
                obj["record"] = {
                    "title": _text(element.find("title")),
                    "oclc": _text(element.find("oclc")),
                    "isbns": [t for t in map(_text, element.findall("isbn")) if t],
                }
            elif tag == "location":
                obj["locations"].append({
                    "name": _text(element.find("name")),
                    "country": _text(element.find("country")),
                    "institution_id": _text(element.find("institutionId")),
                })
        return obj

    return _build_response("XML", shape)


class _KeepAlive:
    """The default `send`: a pool of keep-alive connections, one per
    request in flight, each put back for the next request once answered."""

    def __init__(self, base: urllib.parse.SplitResult) -> None:
        tls = {"context": ssl.create_default_context()} if base.scheme == "https" else {}
        kind = http.client.HTTPSConnection if tls else http.client.HTTPConnection
        # the port is given, as http.client would misread a bare IPv6 host
        self._open = functools.partial(kind, base.hostname, base.port or kind.default_port, **tls)
        self._origin_length = len(f"{base.scheme}://{base.netloc}")
        self._idle: list[http.client.HTTPConnection] = []

    def __call__(self, url: str, headers: dict, timeout: float) -> tuple[int, str, bytes]:
        try:
            connection = self._idle.pop()
        except IndexError:
            connection = self._open(timeout=timeout)
        else:
            if connection.sock is not None:
                poller = select.poll()
                poller.register(connection.sock, select.POLLIN)
                if poller.poll(0):  # the server closed it while idle: reopen, uncharged
                    connection.close()
        try:
            connection.request("GET", url[self._origin_length:], headers=headers)
            response = connection.getresponse()
            answer = response.status, response.getheader("Content-Type", ""), response.read()
        except BaseException:
            connection.close()
            raise
        self._idle.append(connection)
        return answer

    def close(self) -> None:
        """Close every idle connection; one used again reconnects."""
        for connection in self._idle:
            connection.close()


class CatalogClient:
    """Budgeted, retrying client for the two location lookups."""

    def __init__(
        self,
        base_url: str,
        quota: Optional[QuotaStore] = None,
        api_key: Optional[str] = None,
        api_key_header: str = "X-API-Key",
        retries: int = DEFAULT_RETRIES,
        timeout: float = 10.0,
        parallelism: int = 1,
        send: Optional[Callable[[str, dict, float], tuple[int, str, bytes]]] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        # The URL is sent as given, so printable ASCII only. No port means the
        # scheme's; a bad IP literal or a port outside 0-65535 raises ValueError.
        try:
            base = urllib.parse.urlsplit(self.base_url)
            valid = base.hostname and base.port != 0
        except ValueError:
            valid = False
        if not (valid and re.fullmatch(r"(?i)https?://[!-~]+", base_url)):
            raise ValueError(
                f"base_url must be a printable http(s) URL with host, port 1-65535: {base_url!r}"
            )
        if retries < 1:
            raise ValueError("retries must be at least 1")
        if not 1 <= parallelism <= MAX_PARALLELISM:
            raise ValueError(f"parallelism must be between 1 and {MAX_PARALLELISM}")
        if not 0 < timeout < math.inf:
            raise ValueError("timeout must be a positive, finite number of seconds")
        self.quota = quota if quota is not None else QuotaStore()
        self.api_key = api_key
        self.api_key_header = api_key_header
        self.retries = retries
        self.timeout = timeout
        self.parallelism = parallelism
        self._send = send if send is not None else _KeepAlive(base)
        self._sleep = sleep

    def close(self) -> None:
        """Close the connections the default `send` holds; an injected
        `send` is left alone. A later lookup reconnects."""
        if isinstance(self._send, _KeepAlive):
            self._send.close()

    def _get(self, path: str) -> Optional[tuple[str, bytes]]:
        """One logical lookup: quota-charged attempts with backoff.

        Returns (content type, body) on 200, None on 404. Connection errors
        and 5xx are retried; any other status, a redirect too, fails at once.
        """
        url = self.base_url + path
        headers = {"Accept": "application/json"}
        if self.api_key:
            headers[self.api_key_header] = self.api_key
        failure: Optional[TransportError] = None
        for attempt in range(self.retries):
            self.quota.consume()
            try:
                status, content_type, body = self._send(url, headers, self.timeout)
            except (OSError, http.client.HTTPException) as exc:
                failure = TransportError(f"request failed for {path}: {exc}")
            else:
                if status == 200:
                    return content_type, body
                if status == 404:
                    return None
                if 500 <= status < 600:
                    failure = TransportError(f"server error {status} for {path}")
                else:
                    raise TransportError(f"unexpected status {status} for {path}")
            if attempt + 1 < self.retries:
                self._sleep(DEFAULT_BACKOFF_SECONDS * (2 ** attempt))
        assert failure is not None
        raise failure

    def _lookup(self, path: str) -> LocationResponse:
        result = self._get(path)
        if result is None:
            return EMPTY_RESPONSE
        content_type, body = result
        if "xml" in content_type.lower():
            return _response_from_xml(body)
        return _response_from_json(body)

    def get_by_oclc_number(self, number: int) -> LocationResponse:
        if not isinstance(number, int) or number <= 0:
            raise ValueError(f"OCLC number must be a positive integer: {number!r}")
        return self._lookup(f"/content/libraries/{number}")

    def get_by_isbn(self, isbn) -> LocationResponse:
        digits = isbn.digits if hasattr(isbn, "digits") else normalize_isbn(str(isbn)).digits
        return self._lookup(f"/content/libraries/isbn/{digits}")


@dataclass(frozen=True, slots=True)
class HarvestResult:
    """Outcome of harvesting holdings for a batch of records.

    `delta` bundles the completed records with the libraries and
    holdings discovered for them, ready to merge into a dataset. A
    record appears in `skipped` when it was never looked up (no usable
    identifier, or the budget ran out first) and in `errors` when its
    lookup failed after retries.
    """

    queried: tuple[str, ...]
    skipped: tuple[tuple[str, str], ...]
    errors: tuple[tuple[str, str], ...]
    quota_exhausted: bool
    delta: CatalogSnapshot


def _lookups(
    client: CatalogClient, records: Sequence[BookRecord]
) -> Iterator[tuple[BookRecord, "LocationResponse | LibcatError | None"]]:
    """Yield each record with its lookup's outcome, in record order: the
    response, or the QuotaExceededError or TransportError the lookup
    raised; None for a record with no identifier, which gets no lookup.

    `client.parallelism` worker threads each take the next identified
    record from one shared iterator and look it up, so no lookup waits
    for the reader. Outcomes that arrive before their turn wait in a dict
    until the reader gets to them. Any other exception is raised here in
    its record's turn. It, or a reader that stops early, stops every
    worker before its next lookup: at most `client.parallelism` lookups
    are in flight after it, and none is left queued to send requests and
    charge quota.
    """
    todo = ((i, r) for i, r in enumerate(records) if r.oclc is not None or r.isbns)
    take = threading.Lock()
    stop = threading.Event()
    arrived: queue.SimpleQueue = queue.SimpleQueue()

    def work() -> None:
        while True:
            with take:
                item = None if stop.is_set() else next(todo, None)
            if item is None:
                return
            index, record = item
            try:
                if record.oclc is not None:
                    outcome = client.get_by_oclc_number(record.oclc)
                else:
                    outcome = client.get_by_isbn(record.isbns[0])
            except (QuotaExceededError, TransportError) as exc:
                outcome = exc
            except BaseException as exc:  # the reader raises it in its turn
                stop.set()
                arrived.put((index, exc, True))
                return
            arrived.put((index, outcome, False))

    workers = [threading.Thread(target=work) for _ in range(client.parallelism)]
    try:
        for worker in workers:
            worker.start()
        early: dict[int, tuple[object, bool]] = {}
        for index, record in enumerate(records):
            if record.oclc is None and not record.isbns:
                yield record, None
                continue
            while index not in early:
                key, outcome, fatal = arrived.get()
                early[key] = outcome, fatal
            outcome, fatal = early.pop(index)
            if fatal:
                raise outcome
            yield record, outcome
    finally:
        stop.set()
        for worker in workers:
            if worker.is_alive():
                worker.join()


def harvest(client: CatalogClient, records: Sequence[BookRecord]) -> HarvestResult:
    """Fetch holders for each record, by OCLC number when present else ISBN.

    `client.parallelism` threads each take the next record and look it
    up, so the batch runs at the server's pace with at most that many
    lookups in flight; outcomes are folded into the result in record
    order, so it is the same whatever the parallelism. A record with
    neither identifier gets no request. Each institution's library is
    built from the first location that names it.
    Transport failures are collected per record and the rest of the
    batch proceeds. Once the budget is spent, the quota refuses each
    later lookup before its request, so those records are skipped as
    "quota exhausted" and the result carries what was gathered. A batch
    that runs across UTC midnight goes on with the new day's budget, so
    the quota then reports only the new day's charges.
    """
    skipped: list[tuple[str, str]] = []
    errors: list[tuple[str, str]] = []
    completed: list[BookRecord] = []
    libraries: dict[str, LibraryOrg] = {}
    holdings: list[Holding] = []
    quota_exhausted = False
    with contextlib.closing(_lookups(client, records)) as outcomes:
        for record, outcome in outcomes:
            if outcome is None:
                skipped.append((record.record_id, "no OCLC number or ISBN"))
            elif isinstance(outcome, QuotaExceededError):
                quota_exhausted = True
                skipped.append((record.record_id, "quota exhausted"))
            elif isinstance(outcome, TransportError):
                errors.append((record.record_id, str(outcome)))
            else:
                completed.append(record)
                for loc in outcome.locations:
                    if loc.institution_id not in libraries:
                        libraries[loc.institution_id] = LibraryOrg(
                            loc.institution_id, loc.name, loc.country
                        )
                    holdings.append(Holding(record.record_id, loc.institution_id))
    return HarvestResult(
        queried=tuple(record.record_id for record in completed),
        skipped=tuple(skipped),
        errors=tuple(errors),
        quota_exhausted=quota_exhausted,
        delta=CatalogSnapshot(completed, libraries.values(), holdings),
    )
