"""What `lca` loads at start-up: read commands never import the network layer."""

import json
import subprocess
import sys

import pytest

import libcat
from libcat.ingest import save_dataset
from libcat.model import BookRecord, CatalogSnapshot, Holding, LibraryOrg

NETWORK_MODULES = ("requests", "urllib3", "http.client", "http.server", "concurrent.futures")

# Runs in a fresh interpreter: imports the CLI, then runs each read
# command, and reports which network modules each step newly loaded.
CHILD = """
import io, json, sys
from contextlib import redirect_stdout
NETWORK = {network!r}
before = set(sys.modules)
def loaded():
    return sorted(m for m in NETWORK if m in sys.modules and m not in before)
steps = {{}}
from libcat.cli import run
steps["import libcat.cli"] = [0, loaded()]
for argv in {commands!r}:
    with redirect_stdout(io.StringIO()):
        code = run(argv)
    steps[" ".join(argv[:2])] = [code, loaded()]
print(json.dumps(steps))
"""


@pytest.fixture()
def small_dataset(tmp_path):
    records = [
        BookRecord("b1", "First", lc_class="QA76", citations=3),
        BookRecord("b2", "Second", lc_class="QA76", citations=1),
        BookRecord("b3", "Third", citations=2),
    ]
    libraries = [LibraryOrg("l1", "One", "US", "academic"), LibraryOrg("l2", "Two", "GB")]
    holdings = [Holding("b1", "l1"), Holding("b1", "l2"), Holding("b2", "l1")]
    path = tmp_path / "small.jsonl"
    save_dataset(CatalogSnapshot(records, libraries, holdings), path)
    return str(path)


def test_read_commands_never_load_the_network_layer(small_dataset, subprocess_env):
    base = ["--dataset", small_dataset, "--output", "csv"]
    commands = [
        ["indicators", "--all-books", *base],
        ["indicators", "--authors", *base],
        ["correlate", *base],
        ["report", *base],
    ]
    child = CHILD.format(network=NETWORK_MODULES, commands=commands)
    proc = subprocess.run(
        [sys.executable, "-c", child], env=subprocess_env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout)
    assert list(steps) == [
        "import libcat.cli", "indicators --all-books", "indicators --authors",
        "correlate --dataset", "report --dataset",
    ]
    assert steps == {step: [0, []] for step in steps}


def test_libcat_loads_nothing_outside_the_standard_library(subprocess_env):
    child = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import libcat, libcat.cli, libcat.client, libcat.fixture\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child], env=subprocess_env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert {"libcat.client", "http.client"} <= set(loaded)
    allowed = sys.stdlib_module_names | {"libcat"}
    assert [m for m in loaded if m.partition(".")[0] not in allowed] == []


def test_the_network_names_still_resolve_from_the_package():
    from libcat.client import CatalogClient, harvest
    from libcat.fixture import FixtureServer

    assert libcat.CatalogClient is CatalogClient
    assert libcat.harvest is harvest
    assert libcat.FixtureServer is FixtureServer
    lazy = {"CatalogClient", "HarvestResult", "Location", "LocationResponse",
            "MatchedRecord", "QuotaState", "QuotaStore", "harvest",
            "FixtureServer"}
    assert lazy <= set(libcat.__all__)
    assert lazy <= set(dir(libcat))
    namespace = {}
    exec("from libcat import *", namespace)
    assert namespace["CatalogClient"] is CatalogClient
    assert namespace["harvest"] is harvest
    assert namespace["FixtureServer"] is FixtureServer
    assert set(libcat.__all__) <= set(namespace)


def test_an_unknown_package_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        libcat.nope  # noqa: B018
    assert not hasattr(libcat, "nope")
