"""Source hygiene that needs no linter: every module parses as the oldest
Python the package supports, no module imports a name it never uses, no
private name, at module level or in a class, goes unused by the package,
no public function only forwards to another name, only the entry
point and the load's pause switch the cyclic collector, and only the
harvest's lookup loop reserves and gives back quota units."""

import ast
import functools
import re
from pathlib import Path

import pytest

import libcat

PACKAGE = sorted(Path(libcat.__file__).parent.glob("*.py"))
MODULES = [path for path in PACKAGE if path.name != "__init__.py"]


def _imported_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _referenced_names(tree: ast.AST) -> set[str]:
    """Every bare name the module reads, including inside string annotations."""
    names = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    annotations = [
        node.annotation
        for node in ast.walk(tree)
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None
    ]
    annotations += [
        node.returns
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns
    ]
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _referenced_names(ast.parse(node.value, mode="eval"))
    return names


def _python_floor() -> tuple[int, int]:
    """The (major, minor) of pyproject.toml's `requires-python = ">=X.Y"`."""
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    (floor,) = re.findall(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject.read_text(), re.M)
    return int(floor[0]), int(floor[1])


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_every_module_parses_as_the_oldest_supported_python(path):
    """Syntax newer than the floor (`except*` is 3.11) would fail there."""
    ast.parse(path.read_text(encoding="utf-8"), feature_version=_python_floor())


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert sorted(_imported_names(tree) - _referenced_names(tree)) == []


def _private_definitions(tree: ast.Module) -> set[str]:
    """The `_name` functions, classes and assignments at module level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


@functools.cache
def _package_uses() -> frozenset[str]:
    """Every name any package module reads, as a bare name, an attribute
    (`ingest._write_atomic`) or an import (`from .ingest import _lock_sidecar`)."""
    names = set()
    for path in PACKAGE:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names |= _referenced_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return frozenset(names)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_every_private_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert sorted(_private_definitions(tree) - _package_uses()) == []


def _private_members(tree: ast.Module) -> set[str]:
    """The `_name` methods and `__slots__` entries of every class, nested
    classes included."""
    names = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(item.name)
            elif isinstance(item, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets
            ):
                names.update(
                    c.value
                    for c in ast.walk(item.value)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)
                )
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


@functools.cache
def _attribute_reads() -> frozenset[str]:
    """Every attribute name any package module reads (`self._holders`);
    an assignment to an attribute is not a read."""
    names = set()
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return frozenset(names)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_every_private_member_is_read(path):
    """Every `_name` method and `_name` slot of a class is read as an
    attribute somewhere in the package. The match is by name alone, so the
    check cannot separate two classes that use the same private name: one
    class reading `self._holders` covers a stale `_holders` slot in another."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert sorted(_private_members(tree) - _attribute_reads()) == []


def _forwarders(tree: ast.Module) -> set[str]:
    """The public module-level functions whose whole body, after an
    optional docstring, is `return Name(<their own parameters, in order>)`."""
    names = set()
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
            continue
        body = node.body
        if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            body = body[1:]
        if len(body) != 1 or not isinstance(body[0], ast.Return):
            continue
        call = body[0].value
        if not isinstance(call, ast.Call) or not isinstance(call.func, ast.Name) or call.keywords:
            continue
        arguments = node.args
        params = [a.arg for a in (*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs)]
        if [a.id if isinstance(a, ast.Name) else None for a in call.args] == params:
            names.add(node.name)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_public_function_only_forwards(path):
    """A public function that passes its parameters straight to another
    name is a second name for one job; callers should use the real one."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert sorted(_forwarders(tree)) == []


def _imports_module(tree: ast.AST, module: str) -> bool:
    """Whether the tree imports `module` or a submodule of it, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == module for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == module:
                return True
    return False


def test_no_module_imports_dataclasses():
    """`dataclasses` (and the `inspect` it pulls in) costs every process
    that loads it. libcat's types are NamedTuples and `_Entity`s, so no
    module needs it, the client's included."""
    importers = [
        path.name
        for path in PACKAGE
        if _imports_module(ast.parse(path.read_text(encoding="utf-8")), "dataclasses")
    ]
    assert importers == []


COLLECTOR_SWITCHES = {"disable", "enable", "freeze"}


def _owned_nodes(node: ast.AST, where: str = ""):
    """Every node under `node`, with the dotted name of the function or
    class that encloses it, or "" at module level."""
    for child in ast.iter_child_nodes(node):
        yield where, child
        inner = where
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{where}.{child.name}" if where else child.name
        yield from _owned_nodes(child, inner)


def _collector_switches(tree: ast.AST) -> set[str]:
    """Where the tree names `gc.disable`, `gc.enable` or `gc.freeze`, or
    imports a name from `gc`."""
    return {
        where
        for where, node in _owned_nodes(tree)
        if (isinstance(node, ast.ImportFrom) and node.module == "gc")
        or (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "gc"
            and node.attr in COLLECTOR_SWITCHES
        )
    }


def test_only_the_entry_point_and_the_load_pause_switch_the_collector():
    """The collector is process-wide state. Only the `lca` entry point may
    turn it off for good and freeze it, and only the load's pause may turn
    it off for a with-block and back on; library code never leaves it
    changed."""
    switches = sorted(
        f"{path.stem}.{where}"
        for path in PACKAGE
        for where in _collector_switches(ast.parse(path.read_text(encoding="utf-8")))
    )
    assert switches == ["cli.main", "ingest._collector_paused"]


def test_only_the_harvest_dispatcher_reserves_and_releases_quota():
    """A unit `QuotaStore._reserve` banks is charged but unsent until a
    lookup spends it. Only `client._lookups` looks the records up, so only
    its dispatcher may reserve and only its finish may give units back;
    any other caller could bank a unit no request spends."""
    callers = sorted(
        f"{path.stem}.{where}"
        for path in PACKAGE
        for where, node in _owned_nodes(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in {"_reserve", "_release"}
    )
    assert callers == ["client._lookups.dispatch", "client._lookups.finish"]
