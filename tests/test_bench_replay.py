"""`bench/replay.py`'s ReplayServer, which subclasses FixtureServer, still
serves a harvest as the harvest workload expects: every request is
charged once, its 404 counter sees the miss, and the keep-alive
connections are reused across lookups."""

import importlib.util
import sys
from pathlib import Path

from libcat.client import CatalogClient, QuotaStore, harvest
from libcat.model import BookRecord, CatalogSnapshot, Holding, LibraryOrg


def load_replay():
    spec = importlib.util.spec_from_file_location(
        "bench_replay", Path(__file__).resolve().parent.parent / "bench" / "replay.py"
    )
    replay = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(replay)
    return replay


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
