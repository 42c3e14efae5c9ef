"""The libcat names `bench/tracing.py` wraps and reads still exist and
still behave as it expects: its Tracer, installed over a few `lca`
commands run through `cli.run`, records their spans and counts, and
uninstalling it puts every original back."""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import libcat
from libcat import cli, client, fixture, identifiers, indicators, ingest, model, render, stats
from libcat.fixture import FixtureServer
from libcat.ingest import save_dataset
from libcat.model import BookRecord, CatalogSnapshot, Holding, LibraryOrg

MODULES = (libcat, cli, client, fixture, identifiers, indicators, ingest, model, render, stats)
METHODS = (
    (model.CatalogSnapshot, "__init__"),
    (client.CatalogClient, "get_by_oclc_number"),
    (client.CatalogClient, "get_by_isbn"),
    (client.QuotaStore, "consume"),
)


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    )
    tracing = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def bindings() -> dict:
    """Every module-level binding and traced method, by owner and name."""
    out = {
        (module.__name__, attr): value for module in MODULES for attr, value in vars(module).items()
    }
    out.update({(cls.__name__, name): cls.__dict__[name] for cls, name in METHODS})
    return out


def lca(*argv: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.run(list(argv))


def test_tracer_records_libcat_spans_and_restores_the_originals(tmp_path):
    records = [BookRecord("r1", "One", oclc=11), BookRecord("r2", "Two", oclc=12)]
    libraries = [LibraryOrg("l1", "Lib", "US", "academic"), LibraryOrg("l2", "Other", "GB")]
    held = CatalogSnapshot(records, libraries, [Holding("r1", "l1"), Holding("r2", "l2")])
    dataset, delta, document = (tmp_path / name for name in ("dataset", "delta", "dc.xml"))
    save_dataset(CatalogSnapshot(records, libraries, [Holding("r1", "l1")]), dataset)
    save_dataset(held, delta)
    document.write_text("<collection><item><title>Three</title></item></collection>")
    before = bindings()
    tracer = load_tracing().Tracer()
    with FixtureServer(held) as server:
        tracer.install()
        try:
            assert cli.load_dataset is not before[("libcat.cli", "load_dataset")]
            assert lca("report", "--dataset", str(dataset)) == 0
            assert lca("ingest", "--format", "jsonl", "--input", str(delta),
                       "--dataset", str(dataset)) == 0
            assert lca("ingest", "--format", "dublincore", "--input", str(document),
                       "--dataset", str(dataset)) == 0
            assert lca("fetch", "--all", "--dataset", str(dataset),
                       "--base-url", server.base_url) == 0
            requests = server.request_count
        finally:
            tracer.uninstall()
    assert bindings() == before
    names = {span.name for span in tracer.spans}
    assert {"model.snapshot_build", "ingest.load_dataset"} <= names
    metrics = tracer.metrics()
    assert requests == 2
    assert metrics["client.quota_consume.calls"] == requests
    assert metrics["client.lookups"] == requests
    assert metrics["client.errors"] == metrics["client.not_found"] == 0
    assert metrics["ingest.accepted"] == 1
    assert metrics["ingest.load_dataset.lines"] > 0
