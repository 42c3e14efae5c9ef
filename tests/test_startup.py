"""What `lca` loads at start-up: each command imports only the layers it
runs. Read commands never import the network layer; the rank statistics,
the XML parser and the csv writer load only for the commands that use
them (the XML parser for an XML ingest and for `fetch`, whose client
decodes XML answers). No command but `fetch` loads `dataclasses` or
`inspect`."""

import json
import pathlib
import subprocess
import sys

import pytest

import libcat
from libcat.ingest import load_dataset, save_dataset
from libcat.model import BookRecord, CatalogSnapshot, Holding, LibraryOrg

NETWORK_MODULES = ("requests", "urllib3", "http.client", "http.server", "concurrent.futures")
# Loaded only by the commands that use them: correlate, an XML ingest, --output csv.
DEFERRED_MODULES = ("libcat.stats", "xml.etree.ElementTree", "csv")

# Loaded by no analysis command: libcat's own types are NamedTuples and
# slotted classes. Only `fetch`'s client types are dataclasses.
INTROSPECTION_MODULES = ("dataclasses", "inspect")

# What the child below imports before it first looks at sys.modules.
PREAMBLE = """
import io, json, sys
from contextlib import redirect_stdout
"""

# Runs in a fresh interpreter: imports the CLI, then runs each command in
# turn, and reports for each step its exit code and which of the watched
# modules it newly loaded. Given a dataset to serve, it first starts a
# FixtureServer on it, whose URL replaces BASE_URL in the commands.
CHILD = PREAMBLE + """
WATCHED = {watched!r}
def loaded():
    return sorted(m for m in WATCHED if m in sys.modules)
steps = []
seen = loaded()
from libcat.cli import run
steps.append(["import libcat.cli", 0, sorted(set(loaded()) - set(seen))])
base_url = None
if {served!r} is not None:
    from libcat.fixture import FixtureServer
    from libcat.ingest import load_dataset
    base_url = FixtureServer(load_dataset({served!r})).base_url
for argv in {commands!r}:
    seen = loaded()
    with redirect_stdout(io.StringIO()):
        code = run([base_url if arg == "BASE_URL" else arg for arg in argv])
    steps.append([" ".join(argv), code, sorted(set(loaded()) - set(seen))])
print(json.dumps(steps))
"""


def run_child(watched, commands, env, served=None):
    """[step, exit code, watched modules it newly loaded] for `import
    libcat.cli` and then each of `commands`, run in one fresh interpreter;
    with `served`, against a FixtureServer on that dataset."""
    child = CHILD.format(watched=watched, commands=commands, served=served)
    proc = subprocess.run(
        [sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture()
def small_dataset(tmp_path):
    records = [
        BookRecord("b1", "First", oclc=101, lc_class="QA76", citations=3),
        BookRecord("b2", "Second", oclc=102, lc_class="QA76", citations=1),
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
    steps = run_child(NETWORK_MODULES, commands, subprocess_env)
    assert steps == [
        ["import libcat.cli", 0, []], *([" ".join(argv), 0, []] for argv in commands)
    ]


def test_each_deferred_layer_loads_only_for_the_command_that_uses_it(
    small_dataset, subprocess_env, tmp_path
):
    marc = tmp_path / "marc.xml"
    marc.write_text(
        '<collection><record><datafield tag="245"><subfield code="a">Fourth</subfield>'
        "</datafield></record></collection>"
    )
    jsonl = ["--dataset", small_dataset, "--output", "jsonl"]
    commands = [
        ["indicators", "--all-books", *jsonl],
        ["indicators", "--authors", *jsonl],
        ["report", *jsonl],
        ["correlate", *jsonl],
        ["indicators", "--all-books", "--dataset", small_dataset, "--output", "csv"],
        ["ingest", "--format", "marcxml", "--input", str(marc),
         "--dataset", str(tmp_path / "new.jsonl")],
    ]
    steps = run_child(DEFERRED_MODULES, commands, subprocess_env)
    assert steps == [
        ["import libcat.cli", 0, []],
        [" ".join(commands[0]), 0, []],
        [" ".join(commands[1]), 0, []],
        [" ".join(commands[2]), 0, []],
        [" ".join(commands[3]), 0, ["libcat.stats"]],
        [" ".join(commands[4]), 0, ["csv"]],
        [" ".join(commands[5]), 0, ["xml.etree.ElementTree"]],
    ]
    fetched = tmp_path / "fetched.jsonl"
    fetched.write_bytes(pathlib.Path(small_dataset).read_bytes())
    fetch = ["fetch", "--all", "--dataset", str(fetched), "--base-url", "BASE_URL"]
    steps = run_child(DEFERRED_MODULES, [fetch], subprocess_env, served=small_dataset)
    assert steps == [
        ["import libcat.cli", 0, []], [" ".join(fetch), 0, ["xml.etree.ElementTree"]]
    ]
    assert load_dataset(fetched).n_holdings == 3


def test_no_analysis_command_loads_dataclasses_or_inspect(small_dataset, subprocess_env, tmp_path):
    # Each step reports only what it newly loads, so first make sure that
    # the child has not loaded them before libcat is imported.
    bare = subprocess.run(
        [sys.executable, "-c",
         PREAMBLE + f"print(json.dumps([m for m in {INTROSPECTION_MODULES!r} if m in sys.modules]))"],
        env=subprocess_env, capture_output=True, text=True, timeout=60,
    )
    assert bare.returncode == 0, bare.stderr
    assert json.loads(bare.stdout) == []
    base = ["--dataset", small_dataset, "--output", "jsonl"]
    commands = [
        ["indicators", "--all-books", *base],
        ["indicators", "--authors", *base],
        ["indicators", "--unit", "@all", *base],
        ["correlate", *base],
        ["correlate", "--matrix", "--metrics", "libcitations,citations,cnls", *base],
        ["report", *base],
        ["ingest", "--format", "jsonl", "--input", small_dataset,
         "--dataset", str(tmp_path / "merged.jsonl")],
    ]
    steps = run_child(INTROSPECTION_MODULES, commands, subprocess_env)
    assert steps == [
        ["import libcat.cli", 0, []], *([" ".join(argv), 0, []] for argv in commands)
    ]


def test_the_stats_names_resolve_from_a_package_that_has_not_loaded_them(subprocess_env):
    child = (
        "import json, sys\n"
        "import libcat\n"
        "before = 'libcat.stats' in sys.modules\n"
        "names = ('CorrelationMatrix', 'correlation_matrix', 'spearman', 'stats')\n"
        "listed = [n in libcat.__all__ and n in dir(libcat) for n in names]\n"
        "stats = libcat.stats\n"
        "star = {}\n"
        "exec('from libcat import *', star)\n"
        "same = [getattr(libcat, n) is star[n] is getattr(stats, n) for n in names[:3]]\n"
        "print(json.dumps([before, listed, libcat.spearman is stats.spearman, same]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child], env=subprocess_env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False, [True] * 4, True, [True] * 3]


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
