"""Quota accounting, the HTTP client, and harvesting against the replay server."""

import contextlib
import copy
import datetime as dt
import json
import os
import random
import re
import socket
import struct
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
import xml.etree.ElementTree as ET
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import datasets
import libcat.client
import oracles
from libcat.client import (
    EMPTY_RESPONSE,
    MAX_PARALLELISM,
    CatalogClient,
    MatchedRecord,
    QuotaStore,
    _response_from_json,
    _response_from_xml,
    harvest,
)
from libcat.errors import (
    IsbnError,
    QuotaExceededError,
    QuotaStateError,
    TransportError,
)
from libcat.fixture import FixtureServer
from libcat.model import BookRecord, CatalogSnapshot, Holding, Isbn, LibraryOrg

ISBN_A = "9780306406157"
ISBN_B = "9780231085625"


@pytest.fixture(scope="module")
def corpus():
    records = [
        BookRecord("r1", "Widely held work", oclc=1001, isbns=(Isbn(ISBN_A),)),
        BookRecord("r2", "Narrowly held work", isbns=(Isbn(ISBN_B),)),
        BookRecord("r3", "Unidentified work"),
        BookRecord("r4", "Unheld work", oclc=1002),
    ]
    libraries = [
        LibraryOrg("aaa", "Alpha Library", "US", "academic"),
        LibraryOrg("bbb", "Beta Library", "GB", "public"),
        LibraryOrg("ccc", "Gamma Library", "DE", "other"),
    ]
    holdings = [
        Holding("r1", "aaa"),
        Holding("r1", "bbb"),
        Holding("r1", "ccc"),
        Holding("r2", "aaa"),
        Holding("r3", "bbb"),
    ]
    return CatalogSnapshot(records, libraries, holdings)


@pytest.fixture()
def server(corpus):
    with FixtureServer(corpus) as fixture:
        yield fixture


def make_client(server, limit=10_000, **kwargs):
    return CatalogClient(
        server.base_url, quota=QuotaStore(limit), sleep=lambda _: None, **kwargs
    )


def reply(status, body=b"{}", content_type="application/json"):
    """What the client's `send` returns: (status, content type, body)."""
    return status, content_type, body


class ScriptedSend:
    """Stand-in for the client's `send`, driven by a url -> outcome callable."""

    def __init__(self, script):
        self.script = script
        self.calls = []
        self.headers = []

    def __call__(self, url, headers, timeout):
        self.calls.append(url)
        self.headers.append(dict(headers))
        outcome = self.script(url, len(self.calls))
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


class TestQuotaStore:
    def test_consume_charges_and_reports_remaining(self):
        store = QuotaStore(limit=5)
        assert store.consume() == 4
        store.consume()
        assert store.consume() == 2
        state = store.state()
        assert state.used == 3
        assert state.remaining == 2

    def test_exhaustion_charges_nothing(self):
        store = QuotaStore(limit=2)
        store.consume()
        store.consume()
        with pytest.raises(QuotaExceededError):
            store.consume()
        assert store.state().used == 2

    def test_zero_limit_blocks_immediately(self):
        store = QuotaStore(limit=0)
        with pytest.raises(QuotaExceededError):
            store.consume()

    def test_state_persists_across_instances(self, tmp_path):
        path = tmp_path / "quota.json"
        store = QuotaStore(limit=10, state_path=path)
        for _ in range(7):
            store.consume()
        reloaded = QuotaStore(limit=10, state_path=path)
        assert reloaded.state().used == 7
        for _ in range(3):
            reloaded.consume()
        with pytest.raises(QuotaExceededError):
            reloaded.consume()
        assert QuotaStore(limit=10, state_path=path).state().used == 10

    @pytest.mark.parametrize(
        "text",
        [
            "{broken",
            *('{"day": "2026-08-17", "used": ' + used + "}" for used in (
                "-3", "1e400", "true", "1.5", '"5"', "null", "[" * 100_000 + "]" * 100_000,
            )),
        ],
        ids=[
            "broken", "negative", "overflowing-float", "bool", "float", "text", "null",
            "nested-too-deep",
        ],
    )
    def test_corrupt_state_file_is_reported(self, tmp_path, text):
        path = tmp_path / "quota.json"
        path.write_text(text)
        with pytest.raises(QuotaStateError, match="quota state file"):
            QuotaStore(limit=10, state_path=path)

    def test_day_rollover_resets_usage(self):
        days = [dt.date(2026, 8, 16)]
        store = QuotaStore(limit=3, today=lambda: days[0])
        for _ in range(3):
            store.consume()
        with pytest.raises(QuotaExceededError):
            store.consume()
        days[0] = dt.date(2026, 8, 17)
        assert store.consume() == 2
        assert store.state().day == dt.date(2026, 8, 17)
        assert store.state().used == 1

    def test_concurrent_consumers_never_overshoot(self):
        store = QuotaStore(limit=200)
        exhausted = threading.Event()

        def spin():
            while not exhausted.is_set():
                try:
                    store.consume()
                except QuotaExceededError:
                    exhausted.set()

        threads = [threading.Thread(target=spin) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert store.state().used == 200

    def test_processes_sharing_a_state_file_lose_no_charge(self, tmp_path, subprocess_env):
        path = tmp_path / "quota.json"
        child = (
            "import sys\n"
            "from libcat.client import QuotaStore\n"
            "store = QuotaStore(limit=10_000, state_path=sys.argv[1])\n"
            "print('ready', flush=True)\n"
            "sys.stdin.read()\n"
            "for _ in range(500):\n"
            "    store.consume()\n"
        )
        with contextlib.ExitStack() as stack:
            procs = [
                stack.enter_context(subprocess.Popen(
                    [sys.executable, "-c", child, str(path)], env=subprocess_env, text=True,
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                ))
                for _ in range(2)
            ]
            for p in procs:  # runs before each Popen exit, which waits unbounded
                stack.callback(p.kill)
            assert [p.stdout.readline() for p in procs] == ["ready\n", "ready\n"]
            for p in procs:  # both start charging at once
                p.stdin.close()
            codes = [p.wait(timeout=60) for p in procs]
            assert codes == [0, 0], [p.stderr.read() for p in procs]
        assert json.loads(path.read_text())["used"] == 1000

    def test_charges_after_the_first_write_the_file_in_place(self, tmp_path, monkeypatch):
        path = tmp_path / "quota.json"
        store = QuotaStore(limit=100, state_path=path)
        store.consume()  # no file yet: created whole, by write-then-rename
        renames = []
        monkeypatch.setattr(libcat.client, "_write_atomic", lambda *a: renames.append(a))
        monkeypatch.setattr(os, "replace", lambda *a: renames.append(a))
        for _ in range(5):
            store.consume()
        assert renames == []
        monkeypatch.undo()
        assert QuotaStore(limit=100, state_path=path).state().used == 6

    def test_a_charge_pads_the_file_and_never_shrinks_it(self, tmp_path):
        path = tmp_path / "quota.json"
        path.write_text('{"day": "2026-08-16", "used": 1234}')  # as earlier versions write it
        days = [dt.date(2026, 8, 16)]
        store = QuotaStore(limit=10_000, state_path=path, today=lambda: days[0])
        store.consume()
        assert path.read_bytes() == b'{"day": "2026-08-16", "used": 1235}'
        days[0] = dt.date(2026, 8, 17)
        store.consume()
        data = path.read_bytes()
        assert data == b'{"day": "2026-08-17", "used": 1}'.ljust(35)
        assert json.loads(data) == {"day": "2026-08-17", "used": 1}

    def test_a_killed_charger_leaves_a_whole_file_that_lost_no_reported_charge(
        self, tmp_path, subprocess_env
    ):
        path = tmp_path / "quota.json"
        day = dt.date(2026, 8, 17)
        QuotaStore(limit=10**9, state_path=path, today=lambda: day).consume()
        child = (
            "import datetime as dt, sys\n"
            "from libcat.client import QuotaStore\n"
            "store = QuotaStore(10**9, sys.argv[1], lambda: dt.date(2026, 8, 17))\n"
            "print('ready', flush=True)\n"
            "for n in range(1, 10**9):\n"
            "    store.consume()\n"
            "    print(n, flush=True)\n"
        )
        rng = random.Random(24)
        used = 1
        for delay in sorted(rng.uniform(0.005, 0.06) for _ in range(4)):
            with subprocess.Popen(
                [sys.executable, "-c", child, str(path)], env=subprocess_env, text=True,
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            ) as proc:
                try:
                    assert proc.stdout.readline() == "ready\n"
                    reported = []
                    reader = threading.Thread(
                        target=lambda: reported.extend(map(int, proc.stdout))
                    )
                    reader.start()
                    time.sleep(delay)
                finally:
                    proc.kill()
                reader.join(timeout=30)
                assert not reader.is_alive()
            state = json.loads(path.read_bytes())
            assert state["day"] == day.isoformat()
            charged = reported[-1] if reported else 0
            assert state["used"] >= used + charged
            used = state["used"]
        assert used > 1

    def test_old_and_new_chargers_sharing_a_file_lose_no_charge(
        self, tmp_path, subprocess_env
    ):
        path = tmp_path / "quota.json"
        day = dt.date(2026, 8, 17)
        QuotaStore(limit=10**6, state_path=path, today=lambda: day).consume()
        new = (
            "import datetime as dt, sys\n"
            "from libcat.client import QuotaStore\n"
            "store = QuotaStore(10**6, sys.argv[1], lambda: dt.date(2026, 8, 17))\n"
            "print('ready', flush=True)\n"
            "sys.stdin.read()\n"
            "for _ in range(300):\n"
            "    store.consume()\n"
        )
        old = (  # each charge locks, reads, then replaces the file by rename
            "import json, sys\n"
            "from libcat.ingest import _lock_sidecar, _write_atomic\n"
            "print('ready', flush=True)\n"
            "sys.stdin.read()\n"
            "for _ in range(300):\n"
            "    with _lock_sidecar(sys.argv[1]):\n"
            "        with open(sys.argv[1], encoding='utf-8') as fh:\n"
            "            state = json.load(fh)\n"
            "        state['used'] += 1\n"
            "        _write_atomic(sys.argv[1], json.dumps(state))\n"
        )
        with contextlib.ExitStack() as stack:
            procs = [
                stack.enter_context(subprocess.Popen(
                    [sys.executable, "-c", code, str(path)], env=subprocess_env, text=True,
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                ))
                for code in (new, old)
            ]
            for p in procs:  # runs before each Popen exit, which waits unbounded
                stack.callback(p.kill)
            assert [p.stdout.readline() for p in procs] == ["ready\n", "ready\n"]
            for p in procs:  # both start charging at once
                p.stdin.close()
            codes = [p.wait(timeout=60) for p in procs]
            assert codes == [0, 0], [p.stderr.read() for p in procs]
        assert json.loads(path.read_bytes()) == {"day": day.isoformat(), "used": 601}

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 60), st.integers(0, 40))
    def test_usage_is_monotone_within_a_day(self, charges, limit):
        store = QuotaStore(limit=limit)
        previous = 0
        for _ in range(charges):
            try:
                assert store.consume() == limit - previous - 1
            except QuotaExceededError:
                assert previous == limit
            used = store.state().used
            assert used >= previous
            assert used <= limit
            previous = used
        assert previous == min(charges, limit)

    def test_a_unit_reserved_before_midnight_is_charged_again_when_spent_after(self, tmp_path):
        day, next_day = dt.date(2026, 8, 16), dt.date(2026, 8, 17)
        days = [day]
        path = tmp_path / "quota.json"
        store = QuotaStore(10, path, today=lambda: days[0])
        assert store._reserve(1, threading.Event())
        assert json.loads(path.read_bytes()) == {"day": day.isoformat(), "used": 1}
        days[0] = next_day
        assert store.consume() == 9
        assert json.loads(path.read_bytes()) == {"day": next_day.isoformat(), "used": 1}
        store._release()  # the old day's unit stays charged to it; nothing to give back
        assert (store.state().day, store.state().used) == (next_day, 1)

    def test_a_spent_reservation_touches_no_file_and_release_returns_the_rest(self, tmp_path):
        path = tmp_path / "quota.json"
        store = QuotaStore(10, path)
        for _ in range(3):
            assert store._reserve(3, threading.Event())
        charged = path.read_bytes()
        assert store.consume() == 7
        assert path.read_bytes() == charged
        store._release()
        assert store.state().used == 1
        store._release()  # nothing is banked any more
        assert store.state().used == 1

    def test_release_gives_back_only_to_the_banked_day_and_never_below_zero(self, tmp_path):
        day = dt.date(2026, 8, 16)
        path = tmp_path / "quota.json"
        store = QuotaStore(10, path, today=lambda: day)
        for _ in range(3):
            store._reserve(3, threading.Event())
        path.write_text(json.dumps({"day": day.isoformat(), "used": 1}))  # another process's edit
        store._release()
        assert json.loads(path.read_bytes()) == {"day": day.isoformat(), "used": 0}
        store._reserve(1, threading.Event())
        next_day = {"day": "2026-08-17", "used": 4}  # another process's clock passed midnight
        path.write_text(json.dumps(next_day))
        store._release()
        assert json.loads(path.read_bytes()) == next_day

    def test_a_stopped_reservation_charges_nothing(self):
        store = QuotaStore(10)
        stop = threading.Event()
        assert store._reserve(1, stop)
        stop.set()
        assert not store._reserve(1, stop)  # one unit is banked, so it would wait
        assert store.state().used == 1


class TestResponseParsing:
    def test_malformed_json_is_a_transport_error(self):
        with pytest.raises(TransportError):
            _response_from_json(b"{nope")
        with pytest.raises(TransportError):
            _response_from_json(b'{"locations": [{"name": "x"}]}')
        with pytest.raises(TransportError):
            _response_from_json(
                b'{"locations": [{"name": 5, "country": "US", "institution_id": "i1"}]}'
            )
        with pytest.raises(TransportError):
            _response_from_json(b"[" * 100_000 + b"]" * 100_000)

    def test_malformed_xml_is_a_transport_error(self):
        with pytest.raises(TransportError):
            _response_from_xml(b"<locationResponse>")
        with pytest.raises(TransportError):
            _response_from_xml(
                b"<locationResponse><locations><location><name>n</name>"
                b"</location></locations></locationResponse>"
            )

    @pytest.mark.parametrize("field", ["name", "country", "institution_id"])
    @pytest.mark.parametrize("value", [None, "", "  "], ids=["missing", "empty", "blank"])
    def test_both_formats_reject_a_missing_or_blank_location_field(self, field, value):
        location = {"name": "Lib", "country": "US", "institution_id": "i1"}
        if value is None:
            del location[field]
        else:
            location[field] = value
        as_json = json.dumps({"record": None, "locations": [location]}).encode()
        tags = {"name": "name", "country": "country", "institution_id": "institutionId"}
        as_xml = (
            "<locationResponse><locations><location>"
            + "".join(f"<{tags[k]}>{v}</{tags[k]}>" for k, v in location.items())
            + "</location></locations></locationResponse>"
        ).encode()
        with pytest.raises(TransportError, match="JSON"):
            _response_from_json(as_json)
        with pytest.raises(TransportError, match="XML"):
            _response_from_xml(as_xml)

    def test_both_formats_decode_to_the_same_response(self):
        as_json = (
            b'{"record": {"title": "T", "oclc": 12, "isbns": ["9780306406157"]},'
            b' "locations": [{"name": " Lib ", "country": "US", "institution_id": 7}]}'
        )
        as_xml = (
            b"<locationResponse><record><title>T</title><oclc>12</oclc>"
            b"<isbn>9780306406157</isbn></record><locations><location>"
            b"<name>Lib</name><country>US</country><institutionId>7</institutionId>"
            b"</location></locations></locationResponse>"
        )
        assert _response_from_json(as_json) == _response_from_xml(as_xml)
        assert _response_from_json(as_json).locations[0].institution_id == "7"

    @pytest.mark.parametrize(
        "body",
        [
            b'{"locations": [{"name": "x", "country": "US", "institution_id": null}]}',
            b'{"record": {"title": "T", "oclc": "12x"}, "locations": []}',
            b'{"record": {"title": "T", "oclc": true}, "locations": []}',
            b'{"record": {"title": 5}, "locations": []}',
            b'{"record": {"isbns": "978"}}',
            b"[]",
        ],
        ids=["null-id", "oclc-text", "oclc-bool", "title-int", "isbns-str", "not-an-object"],
    )
    def test_ill_typed_json_is_a_transport_error(self, body):
        with pytest.raises(TransportError):
            _response_from_json(body)

    def test_non_numeric_xml_oclc_is_a_transport_error(self):
        with pytest.raises(TransportError, match="12x"):
            _response_from_xml(
                b"<locationResponse><record><title>T</title><oclc>12x</oclc>"
                b"</record></locationResponse>"
            )

    def test_duplicate_institutions_collapse(self):
        body = (
            b'{"record": null, "locations": ['
            b'{"name": "A", "country": "US", "institution_id": "x"},'
            b'{"name": "B", "country": "GB", "institution_id": "x"}]}'
        )
        response = _response_from_json(body)
        assert len(response.locations) == 1
        assert response.locations[0].name == "A"


VALID_BODY = {
    "record": {"title": "T", "oclc": 7, "isbns": [ISBN_A]},
    "locations": [{"name": "Lib", "country": "US", "institution_id": "i1"}],
}
# The key path of each replaced value; the empty path replaces the whole body.
BODY_FIELDS = [
    (), ("record",), ("record", "title"), ("record", "oclc"), ("record", "isbns"),
    ("locations",), ("locations", 0), ("locations", 0, "name"),
    ("locations", 0, "country"), ("locations", 0, "institution_id"),
]

VALID_XML = (
    b"<locationResponse><record><title>T</title><oclc>7</oclc>"
    b"<isbn>9780306406157</isbn></record><locations><location><name>Lib</name>"
    b"<country>US</country><institutionId>i1</institutionId></location>"
    b"</locations></locationResponse>"
)
# Every element of VALID_XML, each of which occurs once, root first.
XML_TAGS = [
    "locationResponse", "record", "title", "oclc", "isbn", "locations", "location",
    "name", "country", "institutionId",
]


class TestResponseProperty:
    @pytest.mark.parametrize(
        "field", BODY_FIELDS, ids=lambda f: "-".join(map(str, f)) or "body"
    )
    @settings(max_examples=40, deadline=None)
    @given(value=datasets.JSON_VALUES)
    @datasets.edge_examples
    def test_one_replaced_value_decodes_typed_or_is_a_transport_error(self, field, value):
        body = copy.deepcopy(VALID_BODY)
        if field:
            parent = body
            for key in field[:-1]:
                parent = parent[key]
            parent[field[-1]] = value
        else:
            body = value
        assert_typed_or_transport_error(_response_from_json, json.dumps(body).encode("utf-8"))

    @pytest.mark.parametrize("tag", XML_TAGS)
    @settings(max_examples=40, deadline=None)
    @given(text=st.text(st.characters(blacklist_categories=("Cs",)), max_size=8))
    def test_one_replaced_xml_text_decodes_typed_or_is_a_transport_error(self, tag, text):
        root = ET.fromstring(VALID_XML)
        next(root.iter(tag)).text = text
        assert_typed_or_transport_error(_response_from_xml, ET.tostring(root))

    @pytest.mark.parametrize("tag", XML_TAGS[1:])
    @pytest.mark.parametrize("copies", [0, 2], ids=["dropped", "duplicated"])
    def test_one_dropped_or_duplicated_xml_element_decodes_typed_or_is_a_transport_error(
        self, tag, copies
    ):
        root = ET.fromstring(VALID_XML)
        parent = next(p for p in root.iter() if p.find(tag) is not None)
        index = list(parent).index(parent.find(tag))
        parent[index:index + 1] = [copy.deepcopy(parent[index]) for _ in range(copies)]
        assert_typed_or_transport_error(_response_from_xml, ET.tostring(root))


def assert_typed_or_transport_error(decode, body):
    """`decode(body)` raises nothing but TransportError, and every field
    of what it returns holds its declared type."""
    try:
        response = decode(body)
    except TransportError:
        return
    record = response.matched_record
    if record is not None:
        assert record.title is None or type(record.title) is str
        assert record.oclc is None or type(record.oclc) is int
        assert type(record.isbns) is tuple
        assert all(type(isbn) is str for isbn in record.isbns)
    assert type(response.locations) is tuple
    for location in response.locations:
        assert type(location.name) is str
        assert type(location.country) is str
        assert type(location.institution_id) is str


class TestClientLookups:
    def test_oclc_lookup_returns_sorted_locations(self, server):
        client = make_client(server)
        response = client.get_by_oclc_number(1001)
        assert [loc.institution_id for loc in response.locations] == [
            "aaa",
            "bbb",
            "ccc",
        ]
        assert response.matched_record.title == "Widely held work"
        assert response.matched_record.oclc == 1001
        assert response.matched_record.isbns == (ISBN_A,)

    def test_isbn_lookup_normalizes_ten_digit_form(self, server):
        client = make_client(server)
        response = client.get_by_isbn("0-306-40615-2")
        assert len(response.locations) == 3

    def test_isbn_lookup_accepts_isbn_value(self, server):
        client = make_client(server)
        response = client.get_by_isbn(Isbn(ISBN_B))
        assert [loc.institution_id for loc in response.locations] == ["aaa"]

    def test_unknown_identifier_is_empty_not_error(self, server):
        client = make_client(server)
        response = client.get_by_oclc_number(999_999)
        assert response is EMPTY_RESPONSE
        assert response.is_empty

    def test_matched_but_unheld_record_is_not_empty(self, server):
        client = make_client(server)
        response = client.get_by_oclc_number(1002)
        assert response.locations == ()
        assert not response.is_empty
        assert response.matched_record.title == "Unheld work"

    def test_xml_variant_parses_to_the_same_answer(self):
        as_json = (
            b'{"record": {"title": "Widely held work", "oclc": 1001, "isbns": ["' + ISBN_A.encode()
            + b'"]}, "locations": [{"name": "Alpha Library", "country": "US", "institution_id":'
            b' "aaa"}, {"name": "Beta Library", "country": "GB", "institution_id": "bbb"}]}'
        )
        as_xml = (
            b"<locationResponse><record><title>Widely held work</title><oclc>1001</oclc>"
            b"<isbn>" + ISBN_A.encode() + b"</isbn></record><locations>"
            b"<location><name>Alpha Library</name><country>US</country>"
            b"<institutionId>aaa</institutionId></location>"
            b"<location><name>Beta Library</name><country>GB</country>"
            b"<institutionId>bbb</institutionId></location></locations></locationResponse>"
        )
        answers = [reply(200, as_json), reply(200, as_xml, "application/xml")]
        send = ScriptedSend(lambda url, n: answers[n - 1])
        client = CatalogClient("http://unit.test", quota=QuotaStore(10), send=send)
        via_json = client.get_by_oclc_number(1001)
        via_xml = client.get_by_oclc_number(1001)
        assert via_xml == via_json
        assert [loc.institution_id for loc in via_json.locations] == ["aaa", "bbb"]
        assert via_json.matched_record == MatchedRecord("Widely held work", 1001, (ISBN_A,))
        assert send.calls == ["http://unit.test/content/libraries/1001"] * 2

    @pytest.mark.parametrize(
        "base_url",
        ["http://127.0.0.1:abc", "http://127.0.0.1:-1", "http://127.0.0.1:0", "http://[::1]:99999"],
    )
    @pytest.mark.parametrize("injected", [False, True], ids=["default-send", "injected-send"])
    def test_a_bad_port_is_refused_with_or_without_send(self, base_url, injected):
        send = ScriptedSend(lambda url, n: reply(404)) if injected else None
        with pytest.raises(ValueError, match="^base_url must be .*" + re.escape(repr(base_url))):
            CatalogClient(base_url, quota=QuotaStore(10), send=send)

    @pytest.mark.parametrize("port", [1, 8080, 65535])
    def test_ports_from_1_to_65535_are_accepted(self, port):
        send = ScriptedSend(lambda url, n: reply(404))
        client = CatalogClient(f"http://127.0.0.1:{port}", quota=QuotaStore(10), send=send)
        assert client.get_by_oclc_number(1) is EMPTY_RESPONSE
        assert send.calls == [f"http://127.0.0.1:{port}/content/libraries/1"]

    @pytest.mark.parametrize(
        "key, header, sent",
        [
            ("k-123", "wskey", {"Accept": "application/json", "wskey": "k-123"}),
            ("k-123", "X-API-Key", {"Accept": "application/json", "X-API-Key": "k-123"}),
            (None, "wskey", {"Accept": "application/json"}),
            ("", "wskey", {"Accept": "application/json"}),
        ],
        ids=["custom-header", "default-header", "no-key", "empty-key"],
    )
    def test_the_api_key_goes_in_its_header_and_only_when_given(self, key, header, sent):
        send = ScriptedSend(lambda url, n: reply(404))
        client = CatalogClient(
            "http://unit.test", quota=QuotaStore(10), api_key=key, api_key_header=header, send=send
        )
        client.get_by_oclc_number(1)
        client.get_by_isbn(ISBN_A)
        assert send.headers == [sent, sent]

    def test_malformed_identifier_fails_fast(self, server):
        client = make_client(server, retries=3)
        before = server.request_count
        with pytest.raises(TransportError):
            client._get("/content/libraries/isbn/123")
        assert server.request_count == before + 1
        assert client.quota.state().used == 1

    @pytest.mark.parametrize(
        "path, status",
        [
            ("/content/libraries/0", 400),
            ("/content/libraries/%C2%B2", 400),  # a superscript 2
            ("/content/libraries/isbn/123", 400),
            ("/content/libraries/issn/0138-9130", 404),
            ("/content/libraries/sn/1001", 404),
            ("/content/libraries/1001/extra", 404),
            ("/content/other/1001", 404),
        ],
    )
    def test_fixture_answers_only_the_two_lookup_paths(self, server, path, status):
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(server.base_url + path, timeout=10)
        caught.value.close()
        assert caught.value.code == status

    @pytest.mark.parametrize(
        "setting",
        [
            {"timeout": 0},
            {"timeout": -1},
            {"timeout": float("nan")},
            {"timeout": float("inf")},
            {"parallelism": 0},
            {"parallelism": MAX_PARALLELISM + 1},
        ],
    )
    def test_out_of_range_settings_are_rejected(self, setting):
        with pytest.raises(ValueError):
            CatalogClient("http://unit.test", quota=QuotaStore(10), **setting)

    def test_parallelism_may_reach_the_maximum(self):
        client = CatalogClient("http://unit.test", parallelism=MAX_PARALLELISM)
        assert client.parallelism == MAX_PARALLELISM

    def test_invalid_arguments_cost_nothing(self, server):
        client = make_client(server)
        with pytest.raises(ValueError):
            client.get_by_oclc_number(0)
        with pytest.raises(IsbnError):
            client.get_by_isbn("junk")
        assert client.quota.state().used == 0
        assert server.request_count == 0

    def test_every_request_charges_quota_including_misses(self, server):
        client = make_client(server)
        client.get_by_oclc_number(1001)
        client.get_by_oclc_number(999_999)
        assert client.quota.state().used == 2

    def test_quota_blocks_before_the_socket(self, server):
        client = make_client(server, limit=2)
        client.get_by_oclc_number(1001)
        client.get_by_isbn(ISBN_B)
        before = server.request_count
        with pytest.raises(QuotaExceededError):
            client.get_by_oclc_number(1001)
        assert server.request_count == before


class TestFixtureServer:
    def test_a_client_that_resets_before_its_answer_is_dropped_quietly(self, corpus, capsys):
        with FixtureServer(corpus) as fixture:
            address = urllib.parse.urlsplit(fixture.base_url)
            for _ in range(3):
                with socket.create_connection((address.hostname, address.port)) as sock:
                    sock.sendall(b"GET /content/libraries/1001 HTTP/1.1\r\nHost: x\r\n\r\n")
                    # linger 0: close sends a reset, not a FIN
                    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            response = make_client(fixture).get_by_oclc_number(1001)
        # closing the server joined every handler thread, so all they wrote is here
        assert capsys.readouterr().err == ""
        assert len(response.locations) == 3


class TestRetries:
    def test_connection_errors_are_retried_with_backoff(self):
        good = reply(
            200, b'{"record": {"title": "T"}, "locations": []}'
        )
        send = ScriptedSend(
            lambda url, n: ConnectionError("boom") if n < 3 else good
        )
        sleeps = []
        client = CatalogClient(
            "http://unit.test",
            quota=QuotaStore(10),
            retries=3,
            send=send,
            sleep=sleeps.append,
        )
        response = client.get_by_oclc_number(5)
        assert response.matched_record.title == "T"
        assert sleeps == [0.5, 1.0]
        assert client.quota.state().used == 3

    def test_server_errors_exhaust_retries_then_raise(self):
        send = ScriptedSend(lambda url, n: reply(503))
        sleeps = []
        client = CatalogClient(
            "http://unit.test",
            quota=QuotaStore(10),
            retries=3,
            send=send,
            sleep=sleeps.append,
        )
        with pytest.raises(TransportError):
            client.get_by_oclc_number(5)
        assert len(send.calls) == 3
        assert sleeps == [0.5, 1.0]
        assert client.quota.state().used == 3

    def test_client_errors_do_not_retry(self):
        send = ScriptedSend(lambda url, n: reply(403))
        client = CatalogClient(
            "http://unit.test",
            quota=QuotaStore(10),
            retries=3,
            send=send,
            sleep=lambda _: None,
        )
        with pytest.raises(TransportError):
            client.get_by_oclc_number(5)
        assert len(send.calls) == 1
        assert client.quota.state().used == 1

    def test_each_retry_charges_the_quota(self):
        send = ScriptedSend(lambda url, n: reply(500))
        client = CatalogClient(
            "http://unit.test",
            quota=QuotaStore(2),
            retries=3,
            send=send,
            sleep=lambda _: None,
        )
        with pytest.raises(QuotaExceededError):
            client.get_by_oclc_number(5)
        assert len(send.calls) == 2


class CountingServer(ThreadingHTTPServer):
    """A local server that counts the requests and connections it handled
    and releases `closed` each time it has closed a connection."""

    def __init__(self, handler):
        super().__init__(("127.0.0.1", 0), handler)
        self.requests = 0
        self.connections = 0
        self.closed = threading.Semaphore(0)

    @property
    def base_url(self):
        return "http://%s:%d" % self.server_address[:2]

    def process_request(self, request, client_address):
        self.connections += 1
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.closed.release()


@contextlib.contextmanager
def serving(handler):
    server = CountingServer(handler)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


class QuietHandler(BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass

    def answer(self, status, *headers):
        body = b'{"record": null, "locations": []}'
        self.server.requests += 1
        self.send_response(status)
        for name, value in (
            ("Content-Type", "application/json"), ("Content-Length", str(len(body))), *headers
        ):
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)


class KeepAliveHandler(QuietHandler):
    protocol_version = "HTTP/1.1"

    def do_GET(self):
        self.answer(200)


class TestTransport:
    def test_a_redirect_is_not_followed_and_costs_one_charge(self):
        class Redirecting(QuietHandler):
            def do_GET(self):
                if self.path.endswith("/1"):
                    self.answer(302, ("Location", "/content/libraries/2"))
                else:
                    self.answer(200)

        sleeps = []
        with serving(Redirecting) as server:
            client = CatalogClient(server.base_url, quota=QuotaStore(10), sleep=sleeps.append)
            with pytest.raises(TransportError, match="unexpected status 302"):
                client.get_by_oclc_number(1)
        assert server.requests == client.quota.state().used == 1
        assert sleeps == []

    def test_a_failed_request_closes_its_connection(self):
        class GarbledFirst(QuietHandler):
            protocol_version = "HTTP/1.1"

            def do_GET(self):
                if self.server.requests == 0:
                    self.server.requests += 1
                    self.wfile.write(b"garbage\r\n\r\n")
                else:
                    self.answer(200)

        sleeps = []
        with serving(GarbledFirst) as server:
            client = CatalogClient(
                server.base_url, quota=QuotaStore(10), retries=2, sleep=sleeps.append
            )
            try:
                assert client.get_by_oclc_number(1).locations == ()
            finally:
                client.close()
        assert server.requests == client.quota.state().used == 2
        assert server.connections == 2
        assert sleeps == [0.5]

    @pytest.mark.parametrize("closes", [False, True], ids=["kept-open", "closed-while-idle"])
    def test_an_idle_connection_is_reused_or_reopened_for_free(self, closes):
        class KeepAlive(QuietHandler):
            protocol_version = "HTTP/1.1"

            def do_GET(self):
                self.answer(200)
                # the answer said nothing of closing, as a server timing out idle ones
                self.close_connection = closes

        sleeps = []
        with serving(KeepAlive) as server:
            client = CatalogClient(server.base_url, quota=QuotaStore(10), sleep=sleeps.append)
            try:
                for number in (1, 2, 3):
                    assert client.get_by_oclc_number(number).locations == ()
                    if closes:
                        assert server.closed.acquire(timeout=10)
            finally:
                client.close()
        assert server.requests == client.quota.state().used == 3
        assert server.connections == (3 if closes else 1)
        assert sleeps == []

    def test_close_shuts_every_connection_and_a_later_lookup_reconnects(self):
        records = [BookRecord(f"r{i}", "T", oclc=i) for i in range(1, 7)]
        with serving(KeepAliveHandler) as server:
            client = CatalogClient(server.base_url, quota=QuotaStore(100), parallelism=2)
            for _ in range(2):
                assert harvest(client, records).queried == tuple(r.record_id for r in records)
            # the pool outlives each harvest's threads and never outgrows the lookups in flight
            opened = server.connections
            assert 1 <= opened <= 2
            client.close()
            for _ in range(opened):
                assert server.closed.acquire(timeout=10)
            assert client.get_by_oclc_number(1).locations == ()
            assert server.connections == opened + 1
            client.close()
            assert server.closed.acquire(timeout=10)
        assert server.requests == client.quota.state().used == 13

    def test_pooled_connections_are_never_shared_between_lookups_in_flight(self):
        records = [BookRecord(f"r{i}", "T", oclc=i) for i in range(1, 201)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with serving(KeepAliveHandler) as server:
                client = CatalogClient(server.base_url, quota=QuotaStore(1000), parallelism=8)
                result = harvest(client, records)
                client.close()
        finally:
            sys.setswitchinterval(interval)
        # a connection handed to two lookups at once would garble one of them
        assert result.errors == ()
        assert len(result.queried) == server.requests == client.quota.state().used == 200
        assert server.connections <= 8

    def test_close_leaves_an_injected_send_alone(self):
        send = ScriptedSend(lambda url, n: reply(404))
        send.close = lambda: pytest.fail("close() reached an injected send")
        client = CatalogClient("http://unit.test", quota=QuotaStore(10), send=send)
        client.close()
        assert client.get_by_oclc_number(1) is EMPTY_RESPONSE


class TestHarvest:
    def test_mixed_batch(self, corpus, server):
        client = make_client(server)
        result = harvest(client, corpus.records)
        assert result.queried == ("r1", "r2", "r4")
        assert result.skipped == (("r3", "no OCLC number or ISBN"),)
        assert result.errors == ()
        assert not result.quota_exhausted
        pairs = {(h.record_id, h.library_id) for h in result.delta.holdings()}
        assert pairs == {("r1", "aaa"), ("r1", "bbb"), ("r1", "ccc"), ("r2", "aaa")}
        assert [lib.library_id for lib in result.delta.libraries] == ["aaa", "bbb", "ccc"]
        assert result.delta.n_records == 3
        assert oracles.distinct_holders_bruteforce(result.delta.holdings(), "r4") == 0

    def test_harvested_entities_carry_neutral_defaults(self, corpus, server):
        client = make_client(server)
        result = harvest(client, corpus.records[:1])
        assert all(lib.kind == "other" for lib in result.delta.libraries)
        assert all(h.channel == "unspecified" for h in result.delta.holdings())

    def test_quota_exhaustion_keeps_partial_results(self, corpus, server):
        client = make_client(server, limit=2)
        result = harvest(client, corpus.records)
        assert result.quota_exhausted
        assert result.queried == ("r1", "r2")
        reasons = dict(result.skipped)
        assert reasons["r4"] == "quota exhausted"
        assert reasons["r3"] == "no OCLC number or ISBN"

    def test_parallel_quota_exhaustion_sends_no_further_request(self, corpus, server):
        client = make_client(server, limit=2, parallelism=4)
        result = harvest(client, corpus.records)
        assert len(result.queried) == 2
        assert server.request_count == client.quota.state().used == 2
        assert result.quota_exhausted
        identified = {"r1", "r2", "r4"}
        assert dict(result.skipped) == {
            "r3": "no OCLC number or ISBN",
            **{rid: "quota exhausted" for rid in identified - set(result.queried)},
        }

    def test_transport_errors_do_not_stop_the_batch(self):
        good = reply(
            200,
            b'{"record": {"title": "T", "oclc": 1}, "locations": '
            b'[{"name": "A", "country": "US", "institution_id": "aaa"}]}',
        )

        def script(url, n):
            return reply(500) if url.endswith("/2") else good

        send = ScriptedSend(script)
        client = CatalogClient(
            "http://unit.test",
            quota=QuotaStore(100),
            retries=2,
            send=send,
            sleep=lambda _: None,
        )
        records = [
            BookRecord("r1", "Good", oclc=1),
            BookRecord("r2", "Bad", oclc=2),
            BookRecord("r3", "No identifier"),
        ]
        result = harvest(client, records)
        assert result.queried == ("r1",)
        assert [rid for rid, _ in result.errors] == ["r2"]
        assert result.skipped == (("r3", "no OCLC number or ISBN"),)
        assert client.quota.state().used == 3

    @pytest.mark.parametrize("field", ["name", "country", "institution_id"])
    def test_a_lone_surrogate_in_a_location_fails_that_record_alone(self, field):
        """A JSON escape may send a lone surrogate, which no library may
        hold: that answer is malformed, and the batch goes on."""
        location = {"name": "A", "country": "US", "institution_id": "aaa"}
        good = json.dumps({"locations": [location]}).encode()
        bad = json.dumps({"locations": [{**location, field: "B\ud800"}]}).encode()
        send = ScriptedSend(lambda url, n: reply(200, bad if url.endswith("/2") else good))
        client = CatalogClient("http://unit.test", quota=QuotaStore(100), send=send)
        records = [BookRecord(f"r{i}", "T", oclc=i) for i in (1, 2, 3)]
        result = harvest(client, records)
        assert result.queried == ("r1", "r3")
        ((record_id, message),) = result.errors
        assert record_id == "r2"
        assert message.startswith(f"malformed JSON location response: Location {field} holds")
        assert result.delta.n_holdings == 2

    @pytest.mark.parametrize("parallelism", [1, 3])
    def test_an_unexpected_error_leaves_no_queued_lookups(self, parallelism):
        send = ScriptedSend(lambda url, n: RuntimeError("boom"))
        client = CatalogClient(
            "http://unit.test",
            quota=QuotaStore(100),
            send=send,
            sleep=lambda _: None,
            parallelism=parallelism,
        )
        records = [BookRecord(f"r{i}", "T", oclc=i) for i in range(1, 20)]
        with pytest.raises(RuntimeError):
            harvest(client, records)
        assert 1 <= len(send.calls) <= parallelism
        assert client.quota.state().used == len(send.calls)

    def test_a_harvest_across_utc_midnight_reports_only_the_new_day(self, tmp_path):
        day, next_day = dt.date(2026, 8, 16), dt.date(2026, 8, 17)
        path = tmp_path / "quota.json"
        path.write_text(json.dumps({"day": day.isoformat(), "used": 97}))
        send = ScriptedSend(lambda url, n: reply(404))
        # charge k precedes request k, so charges 4 to 6 fall on the new day
        quota = QuotaStore(
            1000, path, today=lambda: next_day if len(send.calls) >= 3 else day
        )
        client = CatalogClient("http://unit.test", quota=quota, send=send)
        result = harvest(client, [BookRecord(f"r{i}", "T", oclc=i) for i in range(1, 7)])
        assert len(result.queried) == len(send.calls) == 6
        state = quota.state()
        assert (state.day, state.used) == (next_day, 3)
        # padded to the length it reached at "used": 100
        assert path.read_bytes() == b'{"day": "2026-08-17", "used": 3}'.ljust(34)

    def test_workers_look_each_record_up_once_and_fold_in_record_order(self):
        def script(url, n):
            number = int(url.rsplit("/", 1)[1])
            if number % 10 == 1:
                time.sleep(0.005)  # later records' answers arrive first
            return reply(200, json.dumps({"locations": [
                {"name": "L", "country": "US", "institution_id": f"i{number % 7}"},
            ]}).encode())

        records = [
            BookRecord(f"r{i}", "T", oclc=i) if i % 5 else BookRecord(f"r{i}", "T")
            for i in range(1, 301)
        ]
        results = {}

        def run(parallelism):
            send = ScriptedSend(script)
            client = CatalogClient(
                "http://unit.test", quota=QuotaStore(10_000), send=send,
                parallelism=parallelism,
            )
            results[parallelism] = send, harvest(client, records), client.quota.state().used

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for parallelism in (1, 8):
                runner = threading.Thread(target=run, args=(parallelism,))
                runner.start()
                runner.join(timeout=60)
                assert not runner.is_alive()
        finally:
            sys.setswitchinterval(interval)
        send, result, used = results[8]
        assert sorted(send.calls) == sorted(results[1][0].calls)
        assert len(set(send.calls)) == len(send.calls) == used == 240
        assert result == results[1][1]
        assert result.queried == tuple(r.record_id for r in records if r.oclc is not None)

    def test_parallel_matches_sequential(self, corpus, server):
        sequential = harvest(make_client(server, parallelism=1), corpus.records)
        parallel = harvest(make_client(server, parallelism=4), corpus.records)
        assert parallel == sequential

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10**9))
    def test_round_trip_reconstructs_known_holdings(self, seed):
        rng = random.Random(seed)
        snap = datasets.harvestable_snapshot(rng, max_records=25)
        with FixtureServer(snap) as fixture:
            client = CatalogClient(
                fixture.base_url, quota=QuotaStore(10_000), sleep=lambda _: None
            )
            result = harvest(client, snap.records)
        identified = {
            r.record_id for r in snap.records if r.oclc is not None or r.isbns
        }
        assert set(result.queried) == identified
        expected = {
            (h.record_id, h.library_id)
            for h in snap.holdings()
            if h.record_id in identified
        }
        got = {(h.record_id, h.library_id) for h in result.delta.holdings()}
        assert got == expected


def identified_batch(n=40):
    """Records with an OCLC number, an ISBN only, or neither, interleaved."""
    records = []
    for i in range(1, n + 1):
        if i % 7 == 0:
            records.append(BookRecord(f"r{i}", "No identifier"))
        elif i % 3 == 0:
            records.append(BookRecord(f"r{i}", "By ISBN", isbns=(Isbn(ISBN_B),)))
        else:
            records.append(BookRecord(f"r{i}", "By OCLC", oclc=i))
    return records


class TestReservations:
    """A harvest charges each record's unit ahead, while earlier requests
    are in flight, and spends it on the record's request."""

    @pytest.mark.parametrize("parallelism", [1, 2, 8])
    def test_every_request_is_charged_once(self, corpus, parallelism, tmp_path):
        records = identified_batch()
        with FixtureServer(corpus) as fixture:
            quota = QuotaStore(10_000, tmp_path / "quota.json")
            client = CatalogClient(fixture.base_url, quota=quota, parallelism=parallelism)
            try:
                result = harvest(client, records)
            finally:
                client.close()
            identified = sum(1 for r in records if r.oclc is not None or r.isbns)
            assert fixture.request_count == quota.state().used == identified
        assert len(result.queried) == identified

    @pytest.mark.parametrize("parallelism", [1, 2, 8])
    def test_no_more_than_parallelism_units_are_charged_and_unsent(self, parallelism, tmp_path):
        quota = QuotaStore(10_000, tmp_path / "quota.json")
        unsent = []

        def script(url, n):
            unsent.append(quota.state().used - len(send.calls))
            time.sleep(0.001)
            return reply(404)

        send = ScriptedSend(script)
        client = CatalogClient(
            "http://unit.test", quota=quota, send=send, parallelism=parallelism
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, to catch a lost charge
        try:
            harvest(client, [BookRecord(f"r{i}", "T", oclc=i) for i in range(1, 61)])
        finally:
            sys.setswitchinterval(interval)
        assert len(unsent) == quota.state().used == 60
        assert 0 <= min(unsent) and max(unsent) <= parallelism

    def test_a_fatal_error_leaves_no_unsent_charge(self, tmp_path):
        quota = QuotaStore(10_000, tmp_path / "quota.json")

        def script(url, n):
            time.sleep(0.002)
            return reply(404) if n <= 5 else RuntimeError("boom")

        send = ScriptedSend(script)
        client = CatalogClient("http://unit.test", quota=quota, send=send, parallelism=8)
        with pytest.raises(RuntimeError):
            harvest(client, [BookRecord(f"r{i}", "T", oclc=i) for i in range(1, 41)])
        assert quota.state().used == len(send.calls)
        assert 6 <= len(send.calls) <= 5 + 8

    @pytest.mark.parametrize("parallelism", [1, 2, 8])
    def test_the_budget_goes_to_the_first_identified_records(self, parallelism):
        records = identified_batch()
        send = ScriptedSend(lambda url, n: reply(404))
        client = CatalogClient(
            "http://unit.test", quota=QuotaStore(9), send=send, retries=1,
            parallelism=parallelism,
        )
        result = harvest(client, records)
        identified = [r for r in records if r.oclc is not None or r.isbns]
        assert result.queried == tuple(r.record_id for r in identified[:9])
        assert sorted(send.calls) == sorted(
            f"http://unit.test/content/libraries/{r.oclc}" if r.oclc is not None
            else f"http://unit.test/content/libraries/isbn/{ISBN_B}"
            for r in identified[:9]
        )
        assert [rid for rid, why in result.skipped if why == "quota exhausted"] == [
            r.record_id for r in identified[9:]
        ]

    @pytest.mark.parametrize("parallelism, identified", [(32, 1), (8, 3), (2, 20)])
    def test_no_more_lookup_threads_than_identified_records(self, parallelism, identified):
        before = threading.active_count()
        counts = []

        def script(url, n):
            counts.append(threading.active_count())
            time.sleep(0.002)
            return reply(404)

        client = CatalogClient(
            "http://unit.test", quota=QuotaStore(100), send=ScriptedSend(script),
            parallelism=parallelism,
        )
        records = [BookRecord(f"r{i}", "T", oclc=i) for i in range(1, identified + 1)]
        harvest(client, [*records, BookRecord("r0", "No identifier")])
        assert len(counts) == identified
        # the caller's threads, then the dispatcher and the lookup threads
        assert max(counts) <= before + 1 + min(parallelism, identified)
