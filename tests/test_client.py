"""Quota accounting, the HTTP client, and harvesting against the replay server."""

import contextlib
import copy
import datetime as dt
import json
import random
import subprocess
import sys
import threading
import urllib.error
import urllib.request
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import datasets
import oracles
from libcat.client import (
    EMPTY_RESPONSE,
    MAX_PARALLELISM,
    CatalogClient,
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
from libcat.fixture import serve_fixture
from libcat.model import BookRecord, Holding, Isbn, LibraryOrg, build_snapshot

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
    return build_snapshot(records, libraries, holdings)


@pytest.fixture()
def server(corpus):
    with serve_fixture(corpus) as fixture:
        yield fixture


def make_client(server, limit=10_000, **kwargs):
    return CatalogClient(
        server.base_url, quota=QuotaStore(limit), sleep=lambda _: None, **kwargs
    )


class FakeResponse:
    def __init__(self, status_code, body=b"{}", content_type="application/json"):
        self.status_code = status_code
        self.content = body
        self.headers = {"Content-Type": content_type}


class ScriptedSession:
    """Stand-in for requests.Session driven by a url -> outcome callable."""

    def __init__(self, script):
        self.script = script
        self.calls = []

    def get(self, url, headers=None, timeout=None):
        self.calls.append(url)
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

    def test_xml_variant_parses_to_the_same_answer(self, server):
        client = make_client(server)
        plain = client.get_by_oclc_number(1001)
        via_xml = client._lookup("/content/libraries/1001?format=xml")
        assert via_xml.locations == plain.locations
        assert via_xml.matched_record == plain.matched_record

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


class TestRetries:
    def test_connection_errors_are_retried_with_backoff(self):
        import requests as requests_module

        good = FakeResponse(
            200, b'{"record": {"title": "T"}, "locations": []}'
        )
        session = ScriptedSession(
            lambda url, n: requests_module.ConnectionError("boom") if n < 3 else good
        )
        sleeps = []
        client = CatalogClient(
            "http://unit.test",
            quota=QuotaStore(10),
            retries=3,
            session=session,
            sleep=sleeps.append,
        )
        response = client.get_by_oclc_number(5)
        assert response.matched_record.title == "T"
        assert sleeps == [0.5, 1.0]
        assert client.quota.state().used == 3

    def test_server_errors_exhaust_retries_then_raise(self):
        session = ScriptedSession(lambda url, n: FakeResponse(503))
        sleeps = []
        client = CatalogClient(
            "http://unit.test",
            quota=QuotaStore(10),
            retries=3,
            session=session,
            sleep=sleeps.append,
        )
        with pytest.raises(TransportError):
            client.get_by_oclc_number(5)
        assert len(session.calls) == 3
        assert sleeps == [0.5, 1.0]
        assert client.quota.state().used == 3

    def test_client_errors_do_not_retry(self):
        session = ScriptedSession(lambda url, n: FakeResponse(403))
        client = CatalogClient(
            "http://unit.test",
            quota=QuotaStore(10),
            retries=3,
            session=session,
            sleep=lambda _: None,
        )
        with pytest.raises(TransportError):
            client.get_by_oclc_number(5)
        assert len(session.calls) == 1
        assert client.quota.state().used == 1

    def test_each_retry_charges_the_quota(self):
        session = ScriptedSession(lambda url, n: FakeResponse(500))
        client = CatalogClient(
            "http://unit.test",
            quota=QuotaStore(2),
            retries=3,
            session=session,
            sleep=lambda _: None,
        )
        with pytest.raises(QuotaExceededError):
            client.get_by_oclc_number(5)
        assert len(session.calls) == 2


class TestHarvest:
    def test_mixed_batch(self, corpus, server):
        client = make_client(server)
        result = harvest(client, corpus.records)
        assert result.queried == ("r1", "r2", "r4")
        assert result.skipped == (("r3", "no OCLC number or ISBN"),)
        assert result.errors == ()
        assert not result.quota_exhausted
        pairs = {(h.record_id, h.library_id) for h in result.holdings}
        assert pairs == {("r1", "aaa"), ("r1", "bbb"), ("r1", "ccc"), ("r2", "aaa")}
        assert [lib.library_id for lib in result.libraries] == ["aaa", "bbb", "ccc"]
        assert result.delta.n_records == 3
        assert oracles.distinct_holders_bruteforce(result.delta.holdings, "r4") == 0

    def test_harvested_entities_carry_neutral_defaults(self, corpus, server):
        client = make_client(server)
        result = harvest(client, corpus.records[:1])
        assert all(lib.kind == "other" for lib in result.libraries)
        assert all(h.channel == "unspecified" for h in result.holdings)

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
        good = FakeResponse(
            200,
            b'{"record": {"title": "T", "oclc": 1}, "locations": '
            b'[{"name": "A", "country": "US", "institution_id": "aaa"}]}',
        )

        def script(url, n):
            return FakeResponse(500) if url.endswith("/2") else good

        session = ScriptedSession(script)
        client = CatalogClient(
            "http://unit.test",
            quota=QuotaStore(100),
            retries=2,
            session=session,
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

    @pytest.mark.parametrize("parallelism", [1, 3])
    def test_an_unexpected_error_leaves_no_queued_lookups(self, parallelism):
        session = ScriptedSession(lambda url, n: RuntimeError("boom"))
        client = CatalogClient(
            "http://unit.test",
            quota=QuotaStore(100),
            session=session,
            sleep=lambda _: None,
            parallelism=parallelism,
        )
        records = [BookRecord(f"r{i}", "T", oclc=i) for i in range(1, 20)]
        with pytest.raises(RuntimeError):
            harvest(client, records)
        assert 1 <= len(session.calls) <= parallelism
        assert client.quota.state().used == len(session.calls)

    def test_parallel_matches_sequential(self, corpus, server):
        sequential = harvest(make_client(server, parallelism=1), corpus.records)
        parallel = harvest(make_client(server, parallelism=4), corpus.records)
        assert parallel == sequential

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10**9))
    def test_round_trip_reconstructs_known_holdings(self, seed):
        rng = random.Random(seed)
        snap = datasets.harvestable_snapshot(rng, max_records=25)
        with serve_fixture(snap) as fixture:
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
            for h in snap.holdings
            if h.record_id in identified
        }
        got = {(h.record_id, h.library_id) for h in result.delta.holdings}
        assert got == expected
