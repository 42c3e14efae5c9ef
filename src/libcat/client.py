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
import json
import math
import os
import threading
import time
import xml.etree.ElementTree as ET
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import requests

from .errors import QuotaExceededError, QuotaStateError, TransportError
from .identifiers import normalize_isbn
from .ingest import _lock_sidecar, _write_atomic
from .model import BookRecord, CatalogSnapshot, Holding, LibraryOrg, build_snapshot
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
    consume() and state() also hold an exclusive flock on the sidecar
    `<path>.lock` while they re-read the file, roll the day, charge and
    rewrite it, so processes that share the file lose no charge.
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
        self._day, self._used = self._load()

    def _load(self) -> tuple[dt.date, int]:
        if self.state_path is None:
            return self._today(), 0
        try:
            with open(self.state_path, encoding="utf-8") as fh:
                obj = json.load(fh)
            day = dt.date.fromisoformat(obj["day"])
            used = obj["used"]
            if type(used) is not int or used < 0:
                raise ValueError("used must be a JSON integer >= 0")
        except FileNotFoundError:
            return self._today(), 0
        except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
            raise QuotaStateError(
                f"unreadable quota state file {self.state_path}: {exc}"
            ) from exc
        return day, used

    @contextlib.contextmanager
    def _locked(self) -> Iterator[None]:
        """Hold the accounting lock; with a state file, flock its sidecar
        and reload the shared state, so the caller works on the latest."""
        with self._lock:
            if self.state_path is None:
                yield
                return
            with contextlib.ExitStack() as stack:
                try:
                    stack.enter_context(_lock_sidecar(self.state_path))
                except OSError as exc:
                    raise QuotaStateError(
                        f"cannot lock quota state file {self.state_path}: {exc}"
                    ) from exc
                self._day, self._used = self._load()
                yield

    def _persist_locked(self) -> None:
        if self.state_path is None:
            return
        try:
            _write_atomic(
                self.state_path,
                json.dumps({"day": self._day.isoformat(), "used": self._used}),
            )
        except OSError as exc:
            raise QuotaStateError(
                f"cannot write quota state file {self.state_path}: {exc}"
            ) from exc

    def _roll_locked(self) -> None:
        today = self._today()
        if today != self._day:
            self._day = today
            self._used = 0

    def consume(self) -> int:
        """Charge one request; returns the remaining budget.

        Raises QuotaExceededError, charging nothing, when the budget is
        spent.
        """
        with self._locked():
            self._roll_locked()
            if self._used >= self.limit:
                raise QuotaExceededError(
                    f"daily limit of {self.limit} consultations is exhausted "
                    f"({self._used} used)"
                )
            self._used += 1
            self._persist_locked()
            return self.limit - self._used

    def state(self) -> QuotaState:
        with self._locked():
            self._roll_locked()
            return QuotaState(self._day, self._used, self.limit)


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
        session: Optional[requests.Session] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if not base_url:
            raise ValueError("base_url is required")
        if retries < 1:
            raise ValueError("retries must be at least 1")
        if not 1 <= parallelism <= MAX_PARALLELISM:
            raise ValueError(f"parallelism must be between 1 and {MAX_PARALLELISM}")
        if not 0 < timeout < math.inf:
            raise ValueError("timeout must be a positive, finite number of seconds")
        self.base_url = base_url.rstrip("/")
        self.quota = quota if quota is not None else QuotaStore()
        self.api_key = api_key
        self.api_key_header = api_key_header
        self.retries = retries
        self.timeout = timeout
        self.parallelism = parallelism
        self._session = session if session is not None else requests.Session()
        self._sleep = sleep

    def _get(self, path: str) -> Optional[tuple[str, bytes]]:
        """One logical lookup: quota-charged attempts with backoff.

        Returns (content type, body) on 200, None on 404. Non-404 client
        errors fail immediately; connection errors and 5xx are retried.
        """
        url = self.base_url + path
        headers = {"Accept": "application/json"}
        if self.api_key:
            headers[self.api_key_header] = self.api_key
        failure: Optional[TransportError] = None
        for attempt in range(self.retries):
            self.quota.consume()
            try:
                response = self._session.get(url, headers=headers, timeout=self.timeout)
            except requests.RequestException as exc:
                failure = TransportError(f"request failed for {path}: {exc}")
            else:
                if response.status_code == 200:
                    return response.headers.get("Content-Type", ""), response.content
                if response.status_code == 404:
                    return None
                if 500 <= response.status_code < 600:
                    failure = TransportError(
                        f"server error {response.status_code} for {path}"
                    )
                else:
                    raise TransportError(
                        f"unexpected status {response.status_code} for {path}"
                    )
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
    holdings discovered for them, ready to merge into a dataset;
    `libraries` and `holdings` read their sorted tuples from it. A
    record appears in `skipped` when it was never looked up (no usable
    identifier, or the budget ran out first) and in `errors` when its
    lookup failed after retries.
    """

    queried: tuple[str, ...]
    skipped: tuple[tuple[str, str], ...]
    errors: tuple[tuple[str, str], ...]
    quota_exhausted: bool
    delta: CatalogSnapshot

    @property
    def libraries(self) -> tuple[LibraryOrg, ...]:
        return self.delta.libraries

    @property
    def holdings(self) -> tuple[Holding, ...]:
        return self.delta.holdings


def _lookups(
    pool: ThreadPoolExecutor, client: CatalogClient, records: Sequence[BookRecord]
) -> Iterator[tuple[BookRecord, Optional[Future]]]:
    """Yield each record with its lookup's future (None without an
    identifier) in record order, submitting only while fewer than
    `client.parallelism` lookups run: a reader that stops early leaves
    no queued lookups behind to send requests and charge quota."""
    window: deque[tuple[BookRecord, Optional[Future]]] = deque()
    for record in records:
        future = None
        if record.oclc is not None:
            future = pool.submit(client.get_by_oclc_number, record.oclc)
        elif record.isbns:
            future = pool.submit(client.get_by_isbn, record.isbns[0])
        window.append((record, future))
        running = [f for _, f in window if f is not None and not f.done()]
        if len(running) >= client.parallelism:
            wait(running, return_when=FIRST_COMPLETED)
        while window and (window[0][1] is None or window[0][1].done()):
            yield window.popleft()
    yield from window


def harvest(client: CatalogClient, records: Sequence[BookRecord]) -> HarvestResult:
    """Fetch holders for each record, by OCLC number when present else ISBN.

    At most `client.parallelism` lookups run at once, on that many
    threads, and they are read back in record order. A record with
    neither identifier gets no request.
    Transport failures are collected per record and the rest of the
    batch proceeds. Once the budget is spent, the quota refuses each
    later lookup before its request, so those records are skipped as
    "quota exhausted" and the result carries what was gathered. A batch
    that runs across UTC midnight goes on with the new day's budget.
    """
    skipped: list[tuple[str, str]] = []
    errors: list[tuple[str, str]] = []
    completed: list[BookRecord] = []
    libraries: dict[str, LibraryOrg] = {}
    holdings: list[Holding] = []
    quota_exhausted = False
    with ThreadPoolExecutor(max_workers=client.parallelism) as pool:
        for record, future in _lookups(pool, client, records):
            if future is None:
                skipped.append((record.record_id, "no OCLC number or ISBN"))
                continue
            try:
                response = future.result()
            except QuotaExceededError:
                quota_exhausted = True
                skipped.append((record.record_id, "quota exhausted"))
                continue
            except TransportError as exc:
                errors.append((record.record_id, str(exc)))
                continue
            completed.append(record)
            for loc in response.locations:
                libraries.setdefault(
                    loc.institution_id,
                    LibraryOrg(loc.institution_id, loc.name, loc.country),
                )
                holdings.append(Holding(record.record_id, loc.institution_id))
    return HarvestResult(
        queried=tuple(record.record_id for record in completed),
        skipped=tuple(skipped),
        errors=tuple(errors),
        quota_exhausted=quota_exhausted,
        delta=build_snapshot(completed, libraries.values(), holdings),
    )
