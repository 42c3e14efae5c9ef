"""`bench/replay.py`'s ReplayServer, which subclasses FixtureServer, still
serves a harvest as the harvest workload expects: every request is
charged once, its 404 counter sees the miss, and the keep-alive
connections are reused across lookups."""

import contextlib
import importlib.util
import io
import re
import shutil
import sys
from pathlib import Path

from libcat import cli
from libcat.client import CatalogClient, QuotaStore, _utc_today, harvest
from libcat.ingest import load_dataset
from libcat.model import BookRecord, CatalogSnapshot, Holding, LibraryOrg


def load_bench(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", Path(__file__).resolve().parent.parent / "bench" / f"{name}.py"
    )
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_replay():
    return load_bench("replay")


def test_replay_server_serves_a_parallel_harvest():
    replay = load_replay()

    class PeerRecording(replay.ReplayServer):
        """Notes the client end of every connection a request came in on."""

        def __init__(self, snapshot) -> None:
            self.peers = set()
            super().__init__(snapshot)

        def _handler_class(self):
            server = self

            class Handler(super()._handler_class()):
                def do_GET(self) -> None:
                    server.peers.add(self.client_address)
                    super().do_GET()

            return Handler

    records = [BookRecord(f"r{i}", f"Title {i}", oclc=100 + i) for i in range(5)]
    libraries = [LibraryOrg("l1", "One", "US"), LibraryOrg("l2", "Two", "GB")]
    holdings = [Holding("r0", "l1"), Holding("r0", "l2"), Holding("r3", "l2")]
    unknown = BookRecord("r9", "Not in the catalog", oclc=999)
    with PeerRecording(CatalogSnapshot(records, libraries, holdings)) as server:
        client = CatalogClient(server.base_url, quota=QuotaStore(100), parallelism=2)
        try:
            result = harvest(client, [*records, unknown])
        finally:
            client.close()
        requests = server.request_count
    assert result.queried == ("r0", "r1", "r2", "r3", "r4", "r9")
    assert result.errors == result.skipped == ()
    assert sorted((h.record_id, h.library_id) for h in result.delta.holdings()) == [
        ("r0", "l1"), ("r0", "l2"), ("r3", "l2"),
    ]
    assert client.quota.state().used == requests == 6
    assert server.not_found == 1
    # one keep-alive connection per worker at most, each reused
    assert 1 <= len(server.peers) <= client.parallelism


def test_every_fetch_pass_of_the_harvest_workload_passes_its_check(tmp_path):
    """`lca fetch --all --parallelism 2` as the harvest workload runs it,
    15 times over on the tiny inputs: each run prints the expected counts,
    charges one unit per request the server saw, and sees the expected
    404s."""
    replay, catalog = load_replay(), load_bench("catalog")
    inputs = catalog.harvest_inputs(1, "tiny")
    expected = inputs.expected
    served, pristine = tmp_path / "served.jsonl", tmp_path / "records.jsonl"
    dataset, quota = tmp_path / "harvested.jsonl", tmp_path / "quota.json"
    inputs.server.write(served)
    catalog.write_jsonl(pristine, inputs.dataset_records)
    with replay.ReplayServer(load_dataset(served)) as server:
        for run in range(15):
            shutil.copyfile(pristine, dataset)
            quota.unlink(missing_ok=True)
            requests, not_found, day = server.request_count, server.not_found, _utc_today()
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run([
                    "fetch", "--all", "--parallelism", "2", "--quota-state", str(quota),
                    "--base-url", server.base_url, "--dataset", str(dataset),
                ])
            requests = server.request_count - requests
            not_found = server.not_found - not_found
            printed = {k: int(v) for k, v in re.findall(r"(\w+)=(\d+)", out.getvalue())}
            problems = [
                f"{k}={printed.get(k)} expected {expected[k]}"
                for k in ("fetched", "skipped", "errors", "holdings", "libraries")
                if printed.get(k) != expected[k]
            ]
            # a run across 00:00 UTC charges its later requests to the new day (README)
            if day == _utc_today() and not (
                requests == printed.get("quota_used") == expected["requests"]
            ):
                problems.append(
                    f"server saw {requests} requests, quota_used={printed.get('quota_used')}, "
                    f"expected {expected['requests']}"
                )
            if not_found != expected["not_found"]:
                problems.append(f"{not_found} answers were 404, expected {expected['not_found']}")
            assert code == 0 and not problems, (
                f"run {run}: exit {code}, {problems}; stdout {out.getvalue()!r}; "
                f"stderr {err.getvalue()[-300:]!r}"
            )
