"""End-to-end command-line behavior, driven in process through run()."""

import contextlib
import dataclasses
import errno
import io
import json
import os
import pathlib
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import oracles
import libcat.client
from libcat import indicators
from libcat.cli import run
from libcat.fixture import FixtureServer
from libcat.ingest import load_dataset, merge_snapshots, save_dataset
from libcat.model import (
    BookRecord,
    CatalogSnapshot,
    Holding,
    Isbn,
    LibraryOrg,
)

ISBN_F2 = "9780306406157"

DC_DOC = """<collection>
  <item>
    <title>Mapping Scientific Frontiers</title>
    <creator>Chen, Chaomei</creator>
  </item>
  <item>
    <title>Little Science, Big Science</title>
    <creator>Price, Derek</creator>
  </item>
  <item>
    <creator>Titleless, Tome</creator>
  </item>
</collection>
"""


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def analysis_dataset(tmp_path):
    """Four books over four libraries with known counts and citations."""
    records = [
        BookRecord(
            "b1", "Handbook of Metrics", lc_class="QA76", citations=9,
            contributors=(("Cole, Ada", "author"),),
        ),
        BookRecord(
            "b2", "Atlas of Maps", lc_class="QA76", citations=5,
            contributors=(("Cole, Ada", "author"),),
        ),
        BookRecord(
            "b3", "Pocket Guide", lc_class="Z669", citations=1,
            contributors=(("Finch, Ben", "author"),),
        ),
        BookRecord("b4", "Unclassified Notes"),
    ]
    libraries = [
        LibraryOrg("l1", "First Academic", "US", "academic", frozenset({"ARL"})),
        LibraryOrg("l2", "City Public", "US", "public"),
        LibraryOrg("l3", "Overseas Academic", "GB", "academic"),
        LibraryOrg("l4", "Depot", "DE", "other"),
    ]
    holdings = [
        Holding("b1", "l1"),
        Holding("b1", "l2"),
        Holding("b1", "l3"),
        Holding("b2", "l1"),
        Holding("b3", "l2"),
        Holding("b3", "l4", "donation"),
    ]
    path = tmp_path / "analysis.jsonl"
    save_dataset(CatalogSnapshot(records, libraries, holdings), path)
    return str(path)


@pytest.fixture()
def fetch_world(tmp_path):
    """A dataset lacking holdings plus a replay server that knows them."""
    records = [
        BookRecord("f1", "Fetched one", oclc=501),
        BookRecord("f2", "Fetched two", isbns=(Isbn(ISBN_F2),)),
        BookRecord("f3", "Fetched three"),
    ]
    libraries = [
        LibraryOrg("la", "Server Lib A", "US", "other"),
        LibraryOrg("lb", "Server Lib B", "GB", "other"),
    ]
    holdings = [Holding("f1", "la"), Holding("f1", "lb"), Holding("f2", "la")]
    dataset = tmp_path / "fetch.jsonl"
    save_dataset(CatalogSnapshot(records, (), ()), dataset)
    server = FixtureServer(CatalogSnapshot(records, libraries, holdings))
    yield str(dataset), server
    server.close()


@contextlib.contextmanager
def answering(content_type, body, seen_headers=None):
    """A server that answers every GET with 200 and this one body, and
    appends each request's headers to `seen_headers` when given."""

    class Handler(BaseHTTPRequestHandler):
        def log_message(self, *args):
            pass

        def do_GET(self):
            if seen_headers is not None:
                seen_headers.append(dict(self.headers))
            self.send_response(200)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        yield "http://%s:%d" % server.server_address[:2]
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


class TestUsage:
    def test_no_arguments_is_a_usage_error(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 64

    def test_unknown_command_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 64

    def test_unknown_output_format_is_a_usage_error(self, capsys, analysis_dataset):
        code, _, _ = run_cli(
            capsys, "indicators", "--dataset", analysis_dataset,
            "--all-books", "--output", "html",
        )
        assert code == 64

    def test_bad_filter_spec_is_a_usage_error(self, capsys, analysis_dataset):
        code, _, err = run_cli(
            capsys, "indicators", "--dataset", analysis_dataset,
            "--all-books", "--filter", "planet=earth",
        )
        assert code == 64
        assert "filter" in err

    @pytest.mark.parametrize("spec", ["country", "country=", "country= , "])
    def test_filter_clause_without_a_value_is_a_usage_error(self, capsys, analysis_dataset, spec):
        code, out, err = run_cli(
            capsys, "report", "--dataset", analysis_dataset, "--filter", spec,
        )
        assert (code, out) == (64, "")
        assert err.startswith("error: bad --filter: filter clause needs key=value")

    @pytest.mark.parametrize(
        "spec", ["country=US;country=GB", "kind=academic; KIND=public"]
    )
    def test_repeated_filter_key_is_a_usage_error(self, capsys, analysis_dataset, spec):
        code, out, err = run_cli(
            capsys, "report", "--dataset", analysis_dataset, "--filter", spec,
        )
        assert code == 64
        assert err.startswith("error: bad --filter: filter key ")
        assert err.endswith(" is repeated\n")
        assert out == ""

    @pytest.mark.parametrize(
        "canonical, variant",
        [
            ("country=US,GB", "COUNTRY= us , gb"),
            ("kind=academic", "kind=Academic"),
            ("exclude-channel=donation", "exclude-channel=Donation"),
        ],
        ids=["country", "kind", "channel"],
    )
    def test_filter_values_are_normalized_by_the_model(
        self, capsys, analysis_dataset, canonical, variant
    ):
        _, expected, _ = run_cli(
            capsys, "report", "--dataset", analysis_dataset, "--filter", canonical,
        )
        code, got, _ = run_cli(
            capsys, "report", "--dataset", analysis_dataset, "--filter", variant,
        )
        assert code == 0
        assert got == expected

    @pytest.mark.parametrize(
        "flag", [("--filter", "country=US"), ("--output", "csv")], ids=["filter", "output"]
    )
    def test_filter_is_not_an_ingest_or_fetch_flag(self, capsys, tmp_path, flag):
        dataset = str(tmp_path / "catalog.jsonl")
        code, _, err = run_cli(
            capsys, "ingest", "--input", str(tmp_path / "export.xml"),
            "--format", "marcxml", "--dataset", dataset, *flag,
        )
        assert code == 64
        assert flag[0] in err
        code, _, _ = run_cli(capsys, "fetch", "--all", "--dataset", dataset, *flag)
        assert code == 64


class TestIngest:
    def test_dublin_core_ingest_reports_and_persists(self, capsys, tmp_path):
        source = tmp_path / "batch.xml"
        source.write_text(DC_DOC)
        dataset = tmp_path / "cat.jsonl"
        code, out, err = run_cli(
            capsys, "ingest", "--input", str(source),
            "--format", "dublincore", "--dataset", str(dataset),
        )
        assert code == 0
        assert out.strip() == "accepted=2 rejected=1 libraries=0 holdings=0"
        assert "missing title" in err
        assert load_dataset(dataset).n_records == 2

    def test_reingest_is_idempotent(self, capsys, tmp_path):
        source = tmp_path / "batch.xml"
        source.write_text(DC_DOC)
        dataset = tmp_path / "cat.jsonl"
        run_cli(capsys, "ingest", "--input", str(source), "--format", "dublincore",
                "--dataset", str(dataset))
        first = dataset.read_bytes()
        code, _, _ = run_cli(
            capsys, "ingest", "--input", str(source), "--format", "dublincore",
            "--dataset", str(dataset),
        )
        assert code == 0
        assert dataset.read_bytes() == first

    def test_nothing_accepted_exits_two_and_writes_nothing(self, capsys, tmp_path):
        source = tmp_path / "empty.xml"
        source.write_text("<collection><item><creator>A</creator></item></collection>")
        dataset = tmp_path / "cat.jsonl"
        code, out, _ = run_cli(
            capsys, "ingest", "--input", str(source), "--format", "dublincore",
            "--dataset", str(dataset),
        )
        assert code == 2
        assert out.strip() == "accepted=0 rejected=1 libraries=0 holdings=0"
        assert not dataset.exists()

    def test_jsonl_delta_without_records_is_merged(self, capsys, tmp_path):
        dataset, source = tmp_path / "cat.jsonl", tmp_path / "libraries.jsonl"
        save_dataset(CatalogSnapshot([BookRecord("r1", "Only")], (), ()), dataset)
        source.write_text('{"t":"L","id":"l1","name":"Lib","country":"US"}\n')
        code, out, _ = run_cli(
            capsys, "ingest", "--input", str(source), "--format", "jsonl",
            "--dataset", str(dataset),
        )
        assert code == 0
        assert out.strip() == "accepted=0 rejected=0 libraries=1 holdings=0"
        merged = load_dataset(dataset)
        assert merged.n_records == 1
        assert merged.get_library("l1").name == "Lib"

    def test_empty_jsonl_delta_exits_two_and_writes_nothing(self, capsys, tmp_path):
        source = tmp_path / "empty.jsonl"
        source.write_text("\n")
        dataset = tmp_path / "cat.jsonl"
        code, out, _ = run_cli(
            capsys, "ingest", "--input", str(source), "--format", "jsonl",
            "--dataset", str(dataset),
        )
        assert code == 2
        assert out.strip() == "accepted=0 rejected=0 libraries=0 holdings=0"
        assert not dataset.exists()

    def test_missing_input_exits_one(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "ingest", "--input", str(tmp_path / "nope.xml"),
            "--format", "marcxml", "--dataset", str(tmp_path / "cat.jsonl"),
        )
        assert code == 1
        assert "cannot read" in err

    @pytest.mark.parametrize("fmt", ["marcxml", "dublincore"])
    def test_input_that_fails_mid_read_exits_one(self, capsys, tmp_path, monkeypatch, fmt):
        """The parsers read the open input a chunk at a time, so a read
        error can come after records were parsed; it still names the input."""
        source = tmp_path / "export.xml"
        source.write_text("<collection>" + "<item><title>T</title></item>" * 5000)
        real_open = open

        class FailingSecondRead:
            def __init__(self, fh):
                self._fh, self._reads = fh, 0

            def __getattr__(self, name):
                return getattr(self._fh, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._fh.close()

            def read(self, size=-1):
                self._reads += 1
                if self._reads == 2:
                    raise OSError(errno.EIO, "Input/output error")
                return self._fh.read(size)

        def failing_open(path, *args, **kwargs):
            fh = real_open(path, *args, **kwargs)
            return FailingSecondRead(fh) if path == str(source) else fh

        monkeypatch.setattr("builtins.open", failing_open)
        code, out, err = run_cli(
            capsys, "ingest", "--input", str(source), "--format", fmt,
            "--dataset", str(tmp_path / "cat.jsonl"),
        )
        assert code == 1
        assert out == ""
        assert err == f"error: cannot read input {source}: [Errno 5] Input/output error\n"
        assert not (tmp_path / "cat.jsonl").exists()

    def test_malformed_input_exits_one(self, capsys, tmp_path):
        source = tmp_path / "broken.xml"
        source.write_text("<collection><item>")
        code, _, _ = run_cli(
            capsys, "ingest", "--input", str(source), "--format", "dublincore",
            "--dataset", str(tmp_path / "cat.jsonl"),
        )
        assert code == 1

    def test_missing_jsonl_input_is_named_as_the_input(self, capsys, tmp_path):
        source = tmp_path / "nope.jsonl"
        code, _, err = run_cli(
            capsys, "ingest", "--input", str(source), "--format", "jsonl",
            "--dataset", str(tmp_path / "cat.jsonl"),
        )
        assert code == 1
        assert err.startswith(f"error: cannot read input {source}: ")

    def test_bad_jsonl_input_line_is_named_as_the_input(self, capsys, tmp_path):
        source = tmp_path / "delta.jsonl"
        source.write_text('{"t": "R", "id": "r1"}\n')
        dataset = tmp_path / "cat.jsonl"
        code, _, err = run_cli(
            capsys, "ingest", "--input", str(source), "--format", "jsonl",
            "--dataset", str(dataset),
        )
        assert code == 1
        assert err == f"error: input {source}: line 1: 'title'\n"
        assert not dataset.exists()

    def test_unknown_format_is_a_usage_error(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "ingest", "--input", "x", "--format", "tsv",
            "--dataset", str(tmp_path / "cat.jsonl"),
        )
        assert code == 64

    def test_jsonl_ingest_merges_datasets(self, capsys, tmp_path, analysis_dataset):
        dataset = tmp_path / "combined.jsonl"
        code, out, _ = run_cli(
            capsys, "ingest", "--input", analysis_dataset, "--format", "jsonl",
            "--dataset", str(dataset),
        )
        assert code == 0
        assert out.strip() == "accepted=4 rejected=0 libraries=4 holdings=6"
        assert load_dataset(dataset).n_records == 4

    def test_unlockable_dataset_exits_one(self, capsys, tmp_path, analysis_dataset):
        code, _, err = run_cli(
            capsys, "ingest", "--input", analysis_dataset, "--format", "jsonl",
            "--dataset", str(tmp_path / "missing" / "cat.jsonl"),
        )
        assert code == 1
        assert err.startswith("error: cannot lock dataset")

    def test_unwritable_dataset_exits_one(self, capsys, tmp_path, analysis_dataset):
        # `<name>.lock` just fits the file-name limit, but the save's temp
        # file `.<name>.<pid>-<n>` is longer for any pid of two digits or more.
        name = "d" * (os.pathconf(tmp_path, "PC_NAME_MAX") - len(".lock"))
        code, _, err = run_cli(
            capsys, "ingest", "--input", analysis_dataset, "--format", "jsonl",
            "--dataset", str(tmp_path / name),
        )
        assert code == 1
        assert err.startswith("error: cannot write dataset")
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "analysis.jsonl", "analysis.jsonl.snap", name + ".lock"
        ]

    def test_ingest_after_a_killed_save_works_and_leaves_its_temp_file(
        self, capsys, tmp_path, subprocess_env
    ):
        """A save killed before its rename skips the handler that removes
        its temp file. The next writer neither needs nor touches it."""
        dataset = tmp_path / "cat.jsonl"
        save_dataset(CatalogSnapshot([BookRecord("r1", "Base")], [], []), dataset)
        child = (
            "import os, sys\n"
            "from libcat.ingest import save_dataset\n"
            "from libcat.model import BookRecord, CatalogSnapshot\n"
            "os.replace = lambda src, dst: os._exit(9)\n"
            "save_dataset(CatalogSnapshot([BookRecord('r2', 'Lost')], [], []), sys.argv[1])\n"
        )
        killed = subprocess.run(
            [sys.executable, "-c", child, str(dataset)], env=subprocess_env, timeout=60
        )
        assert killed.returncode == 9
        (stale,) = [p for p in tmp_path.iterdir() if p.name.startswith(".cat.jsonl.")]
        left = stale.read_bytes()
        delta = tmp_path / "delta.jsonl"
        save_dataset(CatalogSnapshot([BookRecord("r3", "New")], [], []), delta)
        code, out, _ = run_cli(
            capsys, "ingest", "--input", str(delta), "--format", "jsonl",
            "--dataset", str(dataset),
        )
        assert code == 0
        assert out == "accepted=1 rejected=0 libraries=0 holdings=0\n"
        assert [r.record_id for r in load_dataset(dataset).records] == ["r1", "r3"]
        assert stale.read_bytes() == left

    def test_concurrent_ingests_lose_no_record(self, tmp_path, subprocess_env):
        dataset = tmp_path / "shared.jsonl"
        save_dataset(CatalogSnapshot((), (), ()), dataset)
        inputs = []
        for side in "ab":
            path = tmp_path / f"{side}.jsonl"
            records = [BookRecord(f"{side}{i:04d}", f"Title {side}{i}") for i in range(5000)]
            save_dataset(CatalogSnapshot(records, (), ()), path)
            inputs.append(path)
        child = (
            "import sys\n"
            "from libcat.cli import run\n"
            "print('ready', flush=True)\n"
            "sys.stdin.read()\n"
            "sys.exit(run(['ingest', '--format', 'jsonl', '--input', sys.argv[1],\n"
            "              '--dataset', sys.argv[2]]))\n"
        )
        with contextlib.ExitStack() as stack:
            procs = [
                stack.enter_context(subprocess.Popen(
                    [sys.executable, "-c", child, str(path), str(dataset)], env=subprocess_env,
                    text=True, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                ))
                for path in inputs
            ]
            for p in procs:  # runs before each Popen exit, which waits unbounded
                stack.callback(p.kill)
            assert [p.stdout.readline() for p in procs] == ["ready\n", "ready\n"]
            for p in procs:  # both start their ingest at once
                p.stdin.close()
            codes = [p.wait(timeout=60) for p in procs]
            assert codes == [0, 0], [p.stderr.read() for p in procs]
        assert load_dataset(dataset).n_records == 10_000


class TestFetch:
    def test_fetch_all_merges_holdings(self, capsys, fetch_world):
        dataset, server = fetch_world
        code, out, err = run_cli(
            capsys, "fetch", "--all", "--dataset", dataset,
            "--base-url", server.base_url,
        )
        assert code == 0
        assert "fetched=2 skipped=1 errors=0 holdings=3 libraries=2" in out
        assert "quota_used=2/50000" in out
        assert "skipped f3: no OCLC number or ISBN" in err
        merged = load_dataset(dataset)
        assert merged.n_holdings == 3
        assert oracles.distinct_holders_bruteforce(merged.holdings(), "f1") == 2
        assert merged.get_library("la").name == "Server Lib A"

    def test_fetch_by_isbn_selects_one_record(self, capsys, fetch_world):
        dataset, server = fetch_world
        code, out, _ = run_cli(
            capsys, "fetch", "--isbn", "0-306-40615-2", "--dataset", dataset,
            "--base-url", server.base_url,
        )
        assert code == 0
        assert "fetched=1" in out
        assert load_dataset(dataset).n_holdings == 1

    def test_fetch_by_oclc_with_no_match_is_empty_success(self, capsys, fetch_world):
        dataset, server = fetch_world
        code, out, _ = run_cli(
            capsys, "fetch", "--oclc", "999", "--dataset", dataset,
            "--base-url", server.base_url,
        )
        assert code == 0
        assert "fetched=0" in out

    def test_quota_exhaustion_exits_three_with_partial_merge(self, capsys, fetch_world):
        dataset, server = fetch_world
        code, out, err = run_cli(
            capsys, "fetch", "--all", "--dataset", dataset,
            "--base-url", server.base_url, "--quota", "1",
        )
        assert code == 3
        assert "quota exhausted" in err
        merged = load_dataset(dataset)
        assert oracles.distinct_holders_bruteforce(merged.holdings(), "f1") == 2
        assert oracles.distinct_holders_bruteforce(merged.holdings(), "f2") == 0

    def test_base_url_can_come_from_the_environment(self, capsys, fetch_world, monkeypatch):
        dataset, server = fetch_world
        monkeypatch.setenv("LCA_BASE_URL", server.base_url)
        code, out, _ = run_cli(capsys, "fetch", "--all", "--dataset", dataset)
        assert code == 0
        assert "fetched=2" in out

    def test_missing_base_url_is_a_usage_error(self, capsys, fetch_world, monkeypatch):
        dataset, _ = fetch_world
        monkeypatch.delenv("LCA_BASE_URL", raising=False)
        code, _, err = run_cli(capsys, "fetch", "--all", "--dataset", dataset)
        assert code == 64
        assert "base URL" in err

    @pytest.mark.parametrize(
        "base_url",
        [
            "localhost:8080", "ftp://example.org", "http://",
            "http://127.0.0.1:port", "http://127.0.0.1/a b",
            "http://127.0.0.1:0", "http://127.0.0.1:99999", "http://[::1", "http://[zz]",
        ],
    )
    def test_base_url_without_http_scheme_or_host_is_a_usage_error_before_any_charge(
        self, capsys, fetch_world, tmp_path, base_url
    ):
        dataset, server = fetch_world
        with open(dataset, "rb") as fh:
            before = fh.read()
        state = tmp_path / "q.json"
        code, out, err = run_cli(
            capsys, "fetch", "--all", "--dataset", dataset,
            "--base-url", base_url, "--quota-state", str(state),
        )
        assert (code, out) == (64, "")
        assert err.startswith("error: base_url must be ") and repr(base_url) in err
        assert not state.exists()
        with open(dataset, "rb") as fh:
            assert fh.read() == before

    @pytest.mark.parametrize(
        "flag, message",
        [("--quota=-1", "quota limit must be non-negative"), ("--retries=0", "retries must be")],
    )
    def test_negative_quota_or_zero_retries_is_a_usage_error_before_any_charge(
        self, capsys, fetch_world, tmp_path, flag, message
    ):
        dataset, server = fetch_world
        state = tmp_path / "q.json"
        code, out, err = run_cli(
            capsys, "fetch", "--all", "--dataset", dataset,
            "--base-url", server.base_url, "--quota-state", str(state), flag,
        )
        assert (code, out) == (64, "")
        assert err.startswith("error: ") and message in err
        assert not state.exists()
        assert server.request_count == 0

    def test_api_key_from_the_environment_goes_in_the_named_header(
        self, capsys, fetch_world, monkeypatch
    ):
        dataset, _ = fetch_world
        monkeypatch.setenv("LCA_API_KEY", "k-123")
        seen = []
        with answering("application/json", b'{"record": null, "locations": []}', seen) as url:
            code, out, _ = run_cli(
                capsys, "fetch", "--all", "--dataset", dataset,
                "--base-url", url, "--api-key-header", "wskey",
            )
        assert code == 0
        assert "fetched=2" in out
        assert [headers.get("wskey") for headers in seen] == ["k-123", "k-123"]
        assert not any("X-API-Key" in headers for headers in seen)

    def test_quota_state_spans_invocations(self, capsys, fetch_world, tmp_path):
        dataset, server = fetch_world
        state = tmp_path / "quota-state.json"
        run_cli(
            capsys, "fetch", "--all", "--dataset", dataset,
            "--base-url", server.base_url, "--quota", "10",
            "--quota-state", str(state),
        )
        code, out, _ = run_cli(
            capsys, "fetch", "--all", "--dataset", dataset,
            "--base-url", server.base_url, "--quota", "10",
            "--quota-state", str(state),
        )
        assert code == 0
        assert "quota_used=4/10" in out

    def test_unwritable_quota_state_exits_one(self, capsys, fetch_world, tmp_path):
        dataset, server = fetch_world
        code, _, err = run_cli(
            capsys, "fetch", "--all", "--dataset", dataset,
            "--base-url", server.base_url,
            "--quota-state", str(tmp_path / "missing" / "q.json"),
        )
        assert code == 1
        assert err.startswith("error: ") and "quota state file" in err
        assert server.request_count == 0

    def test_quota_state_that_cannot_be_saved_exits_one_before_any_request(
        self, capsys, fetch_world, tmp_path, monkeypatch
    ):
        dataset, server = fetch_world
        with open(dataset, "rb") as fh:
            before = fh.read()
        state = tmp_path / "q.json"

        def disk_full(path, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(libcat.client, "_write_atomic", disk_full)
        code, out, err = run_cli(
            capsys, "fetch", "--all", "--dataset", dataset,
            "--base-url", server.base_url, "--quota-state", str(state),
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot write quota state file {state}: ")
        assert server.request_count == 0
        with open(dataset, "rb") as fh:
            assert fh.read() == before

    def test_non_positive_timeout_is_a_usage_error_before_any_charge(
        self, capsys, fetch_world, tmp_path
    ):
        dataset, server = fetch_world
        state = tmp_path / "q.json"
        code, _, err = run_cli(
            capsys, "fetch", "--all", "--dataset", dataset,
            "--base-url", server.base_url, "--timeout", "0",
            "--quota-state", str(state),
        )
        assert code == 64
        assert "timeout" in err
        assert not state.exists()
        assert server.request_count == 0

    def test_fetch_keeps_what_another_process_saved_during_the_harvest(
        self, capsys, fetch_world, monkeypatch
    ):
        dataset, server = fetch_world
        harvest = libcat.client.harvest

        def harvest_while_another_ingest_lands(client, records):
            result = harvest(client, records)
            before = load_dataset(dataset)
            extra = CatalogSnapshot([BookRecord("x1", "Ingested meanwhile")], (), ())
            save_dataset(merge_snapshots(before, extra), dataset)
            return result

        monkeypatch.setattr(libcat.client, "harvest", harvest_while_another_ingest_lands)
        code, _, _ = run_cli(
            capsys, "fetch", "--all", "--dataset", dataset, "--base-url", server.base_url,
        )
        assert code == 0
        merged = load_dataset(dataset)
        assert merged.get_record("x1").title == "Ingested meanwhile"
        assert merged.n_holdings == 3

    def test_fetch_recreates_a_dataset_removed_during_the_harvest(
        self, capsys, fetch_world, monkeypatch
    ):
        dataset, server = fetch_world
        harvest = libcat.client.harvest

        def harvest_then_remove_the_dataset(client, records):
            result = harvest(client, records)
            os.remove(dataset)
            return result

        monkeypatch.setattr(libcat.client, "harvest", harvest_then_remove_the_dataset)
        code, _, _ = run_cli(
            capsys, "fetch", "--all", "--dataset", dataset, "--base-url", server.base_url,
        )
        assert code == 0
        recreated = load_dataset(dataset)
        assert [r.record_id for r in recreated.records] == ["f1", "f2"]
        assert recreated.n_holdings == 3

    @pytest.mark.parametrize(
        "content_type, body",
        [
            (
                "application/xml",
                b"<locationResponse><record><title>T</title><oclc>12x</oclc></record>"
                b"</locationResponse>",
            ),
            (
                "application/json",
                b'{"record": null, "locations": '
                b'[{"name": "x", "country": "", "institution_id": "i1"}]}',
            ),
            (
                "application/json",
                b'{"record": null, "locations": '
                b'[{"name": "x", "country": "US", "institution_id": null}]}',
            ),
        ],
        ids=["xml-oclc-text", "json-country-empty", "json-id-null"],
    )
    def test_malformed_answer_is_a_per_record_failure(
        self, capsys, fetch_world, content_type, body
    ):
        dataset, _ = fetch_world
        with answering(content_type, body) as base_url:
            code, out, err = run_cli(
                capsys, "fetch", "--oclc", "501", "--dataset", dataset,
                "--base-url", base_url,
            )
        assert code == 0
        assert "fetched=0 skipped=0 errors=1 holdings=0" in out
        assert err.startswith("failed f1: malformed ")
        assert "Traceback" not in err
        assert load_dataset(dataset).n_holdings == 0

    def test_non_integer_quota_variable_is_a_usage_error(
        self, capsys, fetch_world, monkeypatch
    ):
        dataset, server = fetch_world
        monkeypatch.setenv("LCA_QUOTA", "abc")
        code, _, err = run_cli(
            capsys, "fetch", "--all", "--dataset", dataset, "--base-url", server.base_url,
        )
        assert code == 64
        assert "LCA_QUOTA must be an integer" in err
        assert server.request_count == 0

    @pytest.mark.parametrize(
        "used",
        ["1e400", "true", "1.5", '"5"', "[" * 100_000 + "]" * 100_000],
        ids=["overflowing-float", "bool", "float", "text", "nested-too-deep"],
    )
    def test_quota_state_usage_that_is_not_a_json_integer_exits_one(
        self, capsys, fetch_world, tmp_path, used
    ):
        dataset, server = fetch_world
        state = tmp_path / "q.json"
        state.write_text('{"day": "2026-08-17", "used": ' + used + "}")
        code, _, err = run_cli(
            capsys, "fetch", "--all", "--dataset", dataset,
            "--base-url", server.base_url, "--quota-state", str(state),
        )
        assert code == 1
        assert err.startswith("error: ") and "quota state file" in err
        assert "Traceback" not in err
        assert server.request_count == 0

    def test_bad_isbn_selector_is_a_usage_error(self, capsys, fetch_world):
        dataset, server = fetch_world
        code, _, _ = run_cli(
            capsys, "fetch", "--isbn", "garbage", "--dataset", dataset,
            "--base-url", server.base_url,
        )
        assert code == 64


class TestIndicatorsCommand:
    def test_all_books_csv_golden(self, capsys, analysis_dataset):
        code, out, _ = run_cli(
            capsys, "indicators", "--all-books", "--dataset", analysis_dataset,
            "--output", "csv",
        )
        assert code == 0
        assert out.splitlines() == [
            "record,title,libcitations,cnls,rank,class_size",
            "b1,Handbook of Metrics,3,1.5000,1,2",
            "b3,Pocket Guide,2,1.0000,1,1",
            "b2,Atlas of Maps,1,0.5000,2,2",
            "b4,Unclassified Notes,0,,,",
        ]

    def test_all_books_markdown_shape(self, capsys, analysis_dataset):
        code, out, _ = run_cli(
            capsys, "indicators", "--all-books", "--dataset", analysis_dataset,
        )
        lines = out.splitlines()
        assert lines[0] == "| record | title | libcitations | cnls | rank | class_size |"
        assert lines[1].startswith("| ---")
        assert len(lines) == 6

    def test_markdown_title_with_line_breaks_stays_on_its_row(self, capsys, tmp_path):
        path = tmp_path / "breaks.jsonl"
        save_dataset(CatalogSnapshot([BookRecord("r1", "Line one\nline two\r\nthree")], [], []), path)
        code, out, _ = run_cli(capsys, "indicators", "--all-books", "--dataset", str(path))
        assert code == 0
        assert out.splitlines()[2:] == ["| r1 | Line one<br>line two<br>three | 0 |  |  |  |"]

    def test_filter_narrows_counts(self, capsys, analysis_dataset):
        code, out, _ = run_cli(
            capsys, "indicators", "--all-books", "--dataset", analysis_dataset,
            "--filter", "country=US", "--output", "csv",
        )
        assert code == 0
        by_record = {
            line.split(",")[0]: line.split(",")[2] for line in out.splitlines()[1:]
        }
        assert by_record == {"b1": "2", "b2": "1", "b3": "1", "b4": "0"}

    def test_channel_exclusion_filter(self, capsys, analysis_dataset):
        code, out, _ = run_cli(
            capsys, "indicators", "--all-books", "--dataset", analysis_dataset,
            "--filter", "exclude-channel=donation", "--output", "csv",
        )
        by_record = {
            line.split(",")[0]: line.split(",")[2] for line in out.splitlines()[1:]
        }
        assert by_record["b3"] == "1"

    def test_single_author_profile(self, capsys, analysis_dataset):
        code, out, _ = run_cli(
            capsys, "indicators", "--author", "cole ada",
            "--dataset", analysis_dataset, "--output", "csv",
        )
        assert code == 0
        assert out.splitlines() == [
            "author,works,publications,holdings",
            "cole ada,2,2,4",
        ]

    def test_all_author_profiles_ranked(self, capsys, analysis_dataset):
        code, out, _ = run_cli(
            capsys, "indicators", "--authors", "--dataset", analysis_dataset,
            "--output", "csv",
        )
        assert code == 0
        assert out.splitlines() == [
            "author,works,publications,holdings",
            '"Cole, Ada",2,2,4',
            '"Finch, Ben",1,1,2',
        ]

    def test_heading_that_folds_to_nothing_is_no_author(self, capsys, analysis_dataset, tmp_path):
        snapshot = load_dataset(analysis_dataset)
        records = [
            dataclasses.replace(r, contributors=(*r.contributors, ("!!!", "other")))
            if r.record_id == "b3" else r
            for r in snapshot.records
        ]
        records.append(BookRecord("b5", "Exclamations", contributors=(("!!!", "author"),)))
        noisy = tmp_path / "noisy.jsonl"
        save_dataset(
            CatalogSnapshot(records, snapshot.libraries, [*snapshot.holdings(), Holding("b5", "l1")]),
            noisy,
        )
        code, out, _ = run_cli(
            capsys, "indicators", "--authors", "--dataset", str(noisy), "--output", "csv",
        )
        assert code == 0
        assert out.splitlines() == [
            "author,works,publications,holdings",
            '"Cole, Ada",2,2,4',
            '"Finch, Ben",1,1,2',
        ]

    @pytest.mark.parametrize(
        "argv, read",
        [
            (["report"], set()),
            (["correlate"], set()),
            (["indicators", "--unit", "pair=b1,b2", "--benchmark", "@all"], set()),
            (["indicators", "--authors"], {"authors"}),
            (["indicators", "--all-books"], {"classes", "books"}),
            (["correlate", "--metrics", "libcitations,cnls"], {"classes"}),
        ],
        ids=["report", "correlate", "unit", "authors", "all-books", "correlate-cnls"],
    )
    def test_a_command_builds_only_the_view_tables_it_reads(
        self, capsys, analysis_dataset, monkeypatch, argv, read
    ):
        seen = set()
        for name in ("classes", "books", "authors"):
            def spy(view, name=name, table=getattr(indicators._View, name)):
                seen.add(name)
                return table(view)

            monkeypatch.setattr(indicators._View, name, spy)
        rows = []
        book_row = indicators.BookIndicators
        monkeypatch.setattr(indicators, "BookIndicators", lambda *a: rows.append(a) or book_row(*a))
        code, _, _ = run_cli(capsys, *argv, "--dataset", analysis_dataset)
        assert code == 0
        assert seen == read
        assert bool(rows) == ("books" in read)

    def test_unknown_author_exits_four(self, capsys, analysis_dataset):
        code, _, err = run_cli(
            capsys, "indicators", "--author", "Nobody, Known",
            "--dataset", analysis_dataset,
        )
        assert code == 4

    def test_unit_report_with_benchmark(self, capsys, analysis_dataset):
        code, out, _ = run_cli(
            capsys, "indicators", "--unit", "pair=b1,b2", "--benchmark", "@all",
            "--dataset", analysis_dataset, "--output", "jsonl",
        )
        assert code == 0
        (row,) = [json.loads(line) for line in out.splitlines()]
        # pair: ci 4 over 2 titles, benchmark cir 6/4
        assert row == {
            "unit": "pair",
            "label": "pair",
            "n_titles": "2",
            "ci": "4",
            "cir": "2.0000",
            "rcir": "1.3333",
            "dr": "0.5000",
        }

    @pytest.mark.parametrize("mark", ["", "\ufeff"], ids=["plain", "byte-order-mark"])
    def test_units_file_and_ordering(self, capsys, analysis_dataset, tmp_path, mark):
        units = tmp_path / "units.jsonl"
        units.write_text(
            mark + '{"id": "top", "label": "Top pair", "members": ["b1", "b3"]}\n'
            '{"id": "rest", "label": "The rest", "members": ["b2", "b4"]}\n',
            encoding="utf-8",
        )
        code, out, _ = run_cli(
            capsys, "indicators", "--unit", "top", "--unit", "rest",
            "--units", str(units), "--dataset", analysis_dataset, "--output", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[1].startswith("top,Top pair,2,5,")
        assert lines[2].startswith("rest,The rest,2,1,")

    @pytest.mark.parametrize(
        "line",
        [
            b'{"id": "u1", "label": 7, "members": ["b1"]}',
            b'{"id": "u1", "members": "b1"}',
            b'{"id": 5, "members": ["b1"]}',
            b'{"id": "u1", "members": ["b1", 2]}',
            b'{"id": "u1", "members": [',
            b'["u1"]',
            b'{"id": "u1", "members": ["b\xff"]}',
            b"[" * 100_000,
        ],
        ids=[
            "label-int", "members-text", "id-int", "member-int", "bad-json", "not-an-object",
            "not-utf8", "nested-too-deep",
        ],
    )
    def test_malformed_units_line_exits_one(self, capsys, analysis_dataset, tmp_path, line):
        units = tmp_path / "units.jsonl"
        units.write_bytes(b'{"id": "ok", "members": ["b1"]}\n' + line + b"\n")
        code, _, err = run_cli(
            capsys, "indicators", "--unit", "u1", "--units", str(units),
            "--dataset", analysis_dataset,
        )
        assert code == 1
        assert err.startswith(f"error: units file {units}: line 2: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("table", ["--all-books", "--authors"])
    @pytest.mark.parametrize(
        "flag, value", [("--benchmark", "nope"), ("--units", "units.jsonl")]
    )
    def test_unit_flags_without_unit_are_a_usage_error(
        self, capsys, analysis_dataset, table, flag, value
    ):
        code, out, err = run_cli(
            capsys, "indicators", table, flag, value, "--dataset", analysis_dataset,
        )
        assert code == 64
        assert err == f"error: {flag} applies only with --unit\n"
        assert out == ""

    def test_units_file_defining_an_id_twice_exits_one(
        self, capsys, analysis_dataset, tmp_path
    ):
        units = tmp_path / "units.jsonl"
        units.write_text(
            '{"id": "u", "members": ["b1"]}\n'
            '{"id": "other", "members": ["b2"]}\n'
            '{"id": "u", "members": ["b3"]}\n'
        )
        code, out, err = run_cli(
            capsys, "indicators", "--unit", "u", "--units", str(units),
            "--dataset", analysis_dataset,
        )
        assert code == 1
        assert err == f"error: units file {units}: line 3: unit 'u' is already defined\n"
        assert out == ""

    @pytest.mark.parametrize(
        "second", ["top", "top=b2", " top"], ids=["same-spec", "inline", "spaced"]
    )
    def test_unit_given_twice_is_a_usage_error(
        self, capsys, analysis_dataset, tmp_path, second
    ):
        units = tmp_path / "units.jsonl"
        units.write_text('{"id": "top", "members": ["b1"]}\n')
        code, out, err = run_cli(
            capsys, "indicators", "--unit", "top", "--unit", second,
            "--units", str(units), "--dataset", analysis_dataset,
        )
        assert code == 64
        assert err == "error: --unit 'top' is given twice\n"
        assert out == ""

    def test_missing_units_file_exits_one(self, capsys, analysis_dataset, tmp_path):
        units = tmp_path / "absent.jsonl"
        code, _, err = run_cli(
            capsys, "indicators", "--unit", "u1", "--units", str(units),
            "--dataset", analysis_dataset,
        )
        assert code == 1
        assert err.startswith(f"error: cannot read units file {units}: ")

    def test_filter_leaving_no_catalog_exits_two(self, capsys, analysis_dataset):
        code, _, err = run_cli(
            capsys, "indicators", "--unit", "@all", "--filter", "country=ZZ",
            "--dataset", analysis_dataset,
        )
        assert code == 2
        assert "no catalogs remain after filtering" in err

    def test_unheld_benchmark_exits_two(self, capsys, analysis_dataset):
        code, _, err = run_cli(
            capsys, "indicators", "--unit", "x=b1", "--benchmark", "y=b4",
            "--dataset", analysis_dataset,
        )
        assert code == 2
        assert "zero inclusions per title" in err

    def test_rcir_blank_without_benchmark(self, capsys, analysis_dataset):
        code, out, _ = run_cli(
            capsys, "indicators", "--unit", "pair=b1,b2",
            "--dataset", analysis_dataset, "--output", "csv",
        )
        assert code == 0
        assert out.splitlines()[1] == "pair,pair,2,4,2.0000,,0.5000"

    def test_undefined_unit_exits_four(self, capsys, analysis_dataset):
        code, _, err = run_cli(
            capsys, "indicators", "--unit", "ghost", "--dataset", analysis_dataset,
        )
        assert code == 4
        assert "ghost" in err

    def test_unit_with_unknown_member_exits_four(self, capsys, analysis_dataset):
        code, _, _ = run_cli(
            capsys, "indicators", "--unit", "u=b1,zz", "--dataset", analysis_dataset,
        )
        assert code == 4

    def test_unit_with_no_id_exits_four(self, capsys, analysis_dataset):
        code, out, err = run_cli(
            capsys, "indicators", "--unit", "=b1", "--dataset", analysis_dataset,
        )
        assert code == 4
        assert err == "error: unit '': unit_id must be non-empty\n"
        assert out == ""

    def test_unit_with_no_members_exits_four(self, capsys, analysis_dataset):
        code, _, _ = run_cli(
            capsys, "indicators", "--unit", "u=", "--dataset", analysis_dataset,
        )
        assert code == 4

    def test_empty_dataset_exits_two(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code, _, _ = run_cli(
            capsys, "indicators", "--all-books", "--dataset", str(empty),
        )
        assert code == 2

    def test_missing_dataset_exits_one(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "indicators", "--all-books",
            "--dataset", str(tmp_path / "absent.jsonl"),
        )
        assert code == 1

    @pytest.mark.parametrize(
        "line",
        [
            b"{nope",
            b'{"t":"R","id":"r2","title":"\xff"}',
            b'{"t":"R","id":"r2","title":"T","isbns":{"9780306406157":0}}',
            b'{"t":"R","id":"r2","title":"T","contributors":[{"Smith":1,"author":2}]}',
        ],
        ids=["bad-json", "not-utf8", "isbns-object", "contributor-object"],
    )
    @pytest.mark.parametrize(
        "command", [["indicators", "--all-books"], ["report"]], ids=["indicators", "report"]
    )
    def test_corrupt_dataset_exits_one(self, capsys, tmp_path, command, line):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b'{"t":"R","id":"r1","title":"T"}\n' + line + b"\n")
        code, out, err = run_cli(capsys, *command, "--dataset", str(bad))
        assert code == 1
        assert err.startswith(f"error: dataset {bad}: line 2: ")
        assert "Traceback" not in err
        assert out == ""


class TestCorrelateCommand:
    def test_default_metric_pair(self, capsys, analysis_dataset):
        code, out, _ = run_cli(capsys, "correlate", "--dataset", analysis_dataset)
        assert code == 0
        assert out.strip() == "0.5000"

    def test_order_does_not_matter(self, capsys, analysis_dataset):
        _, first, _ = run_cli(capsys, "correlate", "--dataset", analysis_dataset)
        _, second, _ = run_cli(
            capsys, "correlate", "--metrics", "citations,libcitations",
            "--dataset", analysis_dataset,
        )
        assert first == second

    def test_matrix_output(self, capsys, analysis_dataset):
        code, out, _ = run_cli(
            capsys, "correlate", "--matrix", "--dataset", analysis_dataset,
            "--output", "csv",
        )
        assert code == 0
        assert out.splitlines() == [
            "metric,libcitations,citations",
            "libcitations,1.0000,0.5000",
            "citations,0.5000,1.0000",
        ]

    def test_cnls_metric_drops_unclassified_records(self, capsys, analysis_dataset):
        # US libraries only: b1, b2, b3 pair as (2, 4/3), (1, 2/3), (1, 1);
        # b4 has no class, so it has no CNLS and drops out of the sample
        code, out, _ = run_cli(
            capsys, "correlate", "--metrics", "libcitations,cnls",
            "--filter", "country=US", "--dataset", analysis_dataset,
        )
        assert code == 0
        assert out.strip() == "0.8660"

    @pytest.mark.parametrize("matrix", [(), ("--matrix",)], ids=["pair", "matrix"])
    def test_repeated_metric_is_a_usage_error(self, capsys, analysis_dataset, matrix):
        code, out, err = run_cli(
            capsys, "correlate", *matrix, "--metrics", "libcitations,libcitations",
            "--dataset", analysis_dataset,
        )
        assert code == 64
        assert err == "error: correlate metrics must be distinct\n"
        assert out == ""

    def test_unknown_metric_is_a_usage_error(self, capsys, analysis_dataset):
        code, _, err = run_cli(
            capsys, "correlate", "--metrics", "libcitations,velocity",
            "--dataset", analysis_dataset,
        )
        assert code == 64
        assert "velocity" in err
        assert "libcitations, citations, cnls" in err

    @pytest.mark.parametrize("matrix", [(), ("--matrix",)], ids=["pair", "matrix"])
    def test_one_metric_is_a_usage_error(self, capsys, analysis_dataset, matrix):
        code, _, err = run_cli(
            capsys, "correlate", "--metrics", "libcitations", *matrix,
            "--dataset", analysis_dataset,
        )
        assert code == 64
        assert ("at least two" if matrix else "exactly two") in err

    def test_empty_dataset_exits_two(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code, _, err = run_cli(capsys, "correlate", "--dataset", str(empty))
        assert code == 2
        assert "dataset has no records" in err

    def test_constant_metric_exits_five(self, capsys, tmp_path):
        records = [
            BookRecord(f"c{i}", f"Title {i}", citations=i + 1) for i in range(3)
        ]
        libraries = [LibraryOrg("l1", "Lib", "US")]
        holdings = [Holding(r.record_id, "l1") for r in records]
        path = tmp_path / "flat.jsonl"
        save_dataset(CatalogSnapshot(records, libraries, holdings), path)
        code, _, err = run_cli(capsys, "correlate", "--dataset", str(path))
        assert code == 5
        assert err == "error: metric 'libcitations' is constant\n"

    @pytest.mark.parametrize(
        "citations", [(10**400, 5, 1), (2**53 + 1, 2**53, 1)],
        ids=["past-float-range", "past-2**53"],
    )
    @pytest.mark.parametrize("matrix", [(), ("--matrix",)], ids=["pair", "matrix"])
    def test_huge_citation_counts_rank_by_their_order(self, capsys, tmp_path, citations, matrix):
        # held by 3, 2 and 1 libraries, in the citations' order, so rho is 1
        records = [BookRecord(f"c{i}", f"T{i}", citations=c) for i, c in enumerate(citations)]
        libraries = [LibraryOrg(f"l{j}", "Lib", "US") for j in range(3)]
        holdings = [Holding(f"c{i}", f"l{j}") for i in range(3) for j in range(3 - i)]
        path = tmp_path / "huge.jsonl"
        save_dataset(CatalogSnapshot(records, libraries, holdings), path)
        assert f'"citations":{citations[0]}' in path.read_text()
        code, out, err = run_cli(
            capsys, "correlate", *matrix, "--output", "csv", "--dataset", str(path)
        )
        assert (code, err) == (0, "")
        assert out.splitlines() == (
            ["metric,libcitations,citations", "libcitations,1.0000,1.0000",
             "citations,1.0000,1.0000"]
            if matrix else ["1.0000"]
        )

    def test_nan_citation_exits_one(self, capsys, tmp_path):
        path = tmp_path / "nan.jsonl"
        path.write_text(
            '{"t":"R","id":"c1","title":"One","citations":NaN}\n'
            '{"t":"R","id":"c2","title":"Two","citations":3}\n'
            '{"t":"R","id":"c3","title":"Three","citations":5}\n'
            '{"t":"L","id":"l1","name":"Lib","country":"US"}\n'
            '{"t":"H","record":"c1","library":"l1"}\n'
            '{"t":"H","record":"c2","library":"l1"}\n'
        )
        code, _, err = run_cli(capsys, "correlate", "--dataset", str(path))
        assert code == 1
        assert err.startswith(f"error: dataset {path}: line 1:")
        assert "Traceback" not in err

    def test_too_few_complete_rows_exits_two(self, capsys, tmp_path):
        records = [
            BookRecord("c1", "Cited", citations=3),
            BookRecord("c2", "Uncited"),
            BookRecord("c3", "Also uncited"),
        ]
        path = tmp_path / "sparse.jsonl"
        save_dataset(CatalogSnapshot(records, [], []), path)
        for matrix in ((), ("--matrix",)):
            code, _, err = run_cli(capsys, "correlate", *matrix, "--dataset", str(path))
            assert code == 2
            assert err == "error: need at least 2 complete rows, got 1\n"


class TestReportCommand:
    def test_composition_and_coverage_tables(self, capsys, analysis_dataset):
        code, out, _ = run_cli(
            capsys, "report", "--dataset", analysis_dataset, "--output", "csv",
        )
        assert code == 0
        first, second = out.strip().split("\n\n")
        assert first.splitlines() == [
            "country,academic,academic_pct,public,public_pct,other,other_pct,total,total_pct",
            "DE,0,0.00,0,0.00,1,100.00,1,25.00",
            "GB,1,50.00,0,0.00,0,0.00,1,25.00",
            "US,1,50.00,1,100.00,0,0.00,2,50.00",
            "total,2,100.00,1,100.00,1,100.00,4,100.00",
        ]
        assert second.splitlines() == [
            "metric,covered,total,pct",
            "libcitations,3,4,75.00",
            "citations,3,4,75.00",
        ]

    def test_kind_filter_zeroes_other_columns(self, capsys, analysis_dataset):
        code, out, _ = run_cli(
            capsys, "report", "--dataset", analysis_dataset,
            "--filter", "kind=academic", "--output", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n\n")[0].splitlines()
        assert lines[1] == "GB,1,50.00,0,,0,,1,50.00"
        assert lines[2] == "US,1,50.00,0,,0,,1,50.00"

    def test_empty_dataset_exits_two(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code, _, _ = run_cli(capsys, "report", "--dataset", str(empty))
        assert code == 2


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, capsys, analysis_dataset):
        outputs = set()
        for _ in range(2):
            for argv in (
                ["indicators", "--all-books", "--dataset", analysis_dataset],
                ["indicators", "--authors", "--dataset", analysis_dataset],
                ["report", "--dataset", analysis_dataset],
            ):
                code, out, _ = run_cli(capsys, *argv)
                assert code == 0
                outputs.add((tuple(argv), out))
        assert len(outputs) == 3


# Each file a user names: the argv naming it at PATH beside a good
# dataset at GOOD, what its error lines call it, and a malformed file
# with the reason its error line gives.
NAMED_FILES = [
    pytest.param(
        ["indicators", "--all-books", "--dataset", "PATH"], "dataset", b"{nope\n",
        "line 1: not valid JSON (Expecting property name enclosed in double quotes)",
        id="dataset",
    ),
    pytest.param(
        ["ingest", "--format", "jsonl", "--input", "PATH", "--dataset", "GOOD"], "input",
        b"{nope\n", "line 1: not valid JSON (Expecting property name enclosed in double quotes)",
        id="jsonl-input",
    ),
    pytest.param(
        ["ingest", "--format", "marcxml", "--input", "PATH", "--dataset", "GOOD"], "input",
        b"<collection><record>", "not well-formed XML: no element found: line 1, column 20",
        id="marcxml-input",
    ),
    pytest.param(
        ["ingest", "--format", "dublincore", "--input", "PATH", "--dataset", "GOOD"], "input",
        b"<collection><item>", "not well-formed XML: no element found: line 1, column 18",
        id="dublincore-input",
    ),
    pytest.param(
        ["indicators", "--unit", "u", "--units", "PATH", "--dataset", "GOOD"], "units file",
        b'{"id": "u"}\n', "line 1: 'members'",
        id="units",
    ),
]


class TestNamedFiles:
    @pytest.mark.parametrize("argv, what, malformed, reason", NAMED_FILES)
    @pytest.mark.parametrize("state", ["missing", "malformed"])
    def test_an_unreadable_file_exits_one_naming_it(
        self, capsys, tmp_path, analysis_dataset, argv, what, malformed, reason, state
    ):
        path = tmp_path / "named"
        if state == "malformed":
            path.write_bytes(malformed)
        good = pathlib.Path(analysis_dataset).read_bytes()
        places = {"PATH": str(path), "GOOD": analysis_dataset}
        code, out, err = run_cli(capsys, *(places.get(arg, arg) for arg in argv))
        assert code == 1
        assert out == ""
        if state == "missing":
            assert err == (
                f"error: cannot read {what} {path}: "
                f"[Errno 2] No such file or directory: '{path}'\n"
            )
        else:
            assert err == f"error: {what} {path}: {reason}\n"
        assert pathlib.Path(analysis_dataset).read_bytes() == good


class TestStdout:
    """A character stdout cannot encode, such as a lone surrogate that a
    dataset line may carry as a JSON escape, is printed as its backslash
    escape; everything else prints as it is."""

    @pytest.fixture()
    def surrogate_dataset(self, tmp_path):
        path = tmp_path / "surrogate.jsonl"
        path.write_text(
            '{"t":"R","id":"r\\udc80","title":"A","contributors":[["X\\ud800y","author"]],'
            '"lc":"QA"}\n'
            '{"t":"L","id":"l1","name":"Lib","country":"US"}\n'
            '{"t":"H","record":"r\\udc80","library":"l1"}\n'
        )
        return str(path)

    @staticmethod
    def run_to_bytes(monkeypatch, errors, *argv):
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors=errors)
        monkeypatch.setattr(sys, "stdout", stdout)
        code = run(list(argv))
        stdout.flush()
        return code, stdout.buffer.getvalue()

    @pytest.mark.parametrize(
        "fmt, table",
        [
            ("csv", b"author,works,publications,holdings\r\nX\\ud800y,1,1,1\n"),
            (
                "md",
                b"| author | works | publications | holdings |\n| --- | --- | --- | --- |\n"
                b"| X\\ud800y | 1 | 1 | 1 |\n",
            ),
            (
                "jsonl",
                b'{"author":"X\\ud800y","works":"1","publications":"1","holdings":"1"}\n',
            ),
        ],
    )
    def test_a_lone_surrogate_prints_escaped(self, monkeypatch, surrogate_dataset, fmt, table):
        code, out = self.run_to_bytes(
            monkeypatch, "strict", "indicators", "--authors", "--output", fmt,
            "--dataset", surrogate_dataset,
        )
        assert code == 0
        assert out == table
        if fmt == "jsonl":
            assert json.loads(out)["author"] == "X\ud800y"

    def test_what_stdout_can_encode_prints_as_it_is(self, monkeypatch, surrogate_dataset):
        code, out = self.run_to_bytes(
            monkeypatch, "surrogateescape", "indicators", "--all-books", "--output", "csv",
            "--dataset", surrogate_dataset,
        )
        assert code == 0
        assert out == b"record,title,libcitations,cnls,rank,class_size\r\nr\x80,A,1,1.0000,1,1\n"


class FailingStdout(io.TextIOBase):
    """A stdout whose every write raises `error`."""

    def __init__(self, error):
        self.error = error

    def write(self, text):
        raise self.error


class TestUnwritableStdout:
    """A table or summary line that cannot be written ends the command
    with exit 1: quietly for a reader that closed the pipe, otherwise with
    one `error: cannot write output: …` line. Never a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["indicators", "--all-books", "--output", "csv"],
            ["correlate"],
            ["report"],
        ],
        ids=["table", "single-line", "two-tables"],
    )
    @pytest.mark.parametrize(
        "error, message",
        [
            (BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE)), ""),
            (
                OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)),
                "error: cannot write output: [Errno 28] No space left on device\n",
            ),
        ],
        ids=["broken-pipe", "disk-full"],
    )
    def test_a_failed_write_exits_one(
        self, capsys, monkeypatch, analysis_dataset, argv, error, message
    ):
        monkeypatch.setattr(sys, "stdout", FailingStdout(error))
        code = run([*argv, "--dataset", analysis_dataset])
        assert code == 1
        assert capsys.readouterr().err == message

    def test_a_reader_that_closes_early_gets_no_traceback(self, tmp_path, subprocess_env):
        # Well past a 64 KiB pipe buffer, so the writer is still writing
        # when the reader goes.
        records = [BookRecord(f"r{i:05d}", f"A title long enough to fill rows {i}")
                   for i in range(4000)]
        path = tmp_path / "big.jsonl"
        save_dataset(CatalogSnapshot(records, [LibraryOrg("l1", "L", "US")],
                                     [Holding(r.record_id, "l1") for r in records]), path)
        with subprocess.Popen(
            [sys.executable, "-m", "libcat.cli", "indicators", "--all-books",
             "--dataset", str(path), "--output", "csv"],
            env=subprocess_env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        ) as child:
            try:
                assert child.stdout.readline().startswith(b"record,title,")
                child.stdout.close()
                assert child.wait(timeout=60) == 1
                assert child.stderr.read() == b""
            finally:
                child.kill()
