"""The package's internal import graph: every import of one ``vaspnet``
module by another, at module level, under ``if TYPE_CHECKING:`` or inside a
function, is an edge, and the graph has no cycle. Outside it, the simulation
imports no PyYAML."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "vaspnet"
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _imported_modules(node):
    """The ``vaspnet`` modules one import statement names."""
    if isinstance(node, ast.Import):
        names = [alias.name.split(".") for alias in node.names]
        return {parts[1] for parts in names if parts[0] == "vaspnet" and len(parts) > 1}
    if node.level == 0 and (node.module or "").split(".")[0] != "vaspnet":
        return set()
    if node.module and node.module != "vaspnet":
        return {node.module.split(".")[-1]}
    return {alias.name for alias in node.names if alias.name in MODULES}


def _imports(tree):
    return [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def _function_level_imports(tree):
    found = []
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [node.lineno for node in _imports(func)]
    return found


GRAPH = {
    name: set().union(*(_imported_modules(node) for node in _imports(tree))) - {"__init__"}
    for name, tree in MODULES.items()
}


def test_graph_counts_every_kind_of_import():
    tree = ast.parse(
        "from typing import TYPE_CHECKING\n"
        "from . import crypto\n"
        "import vaspnet.chain\n"
        "if TYPE_CHECKING:\n    from .vasp import VaspNode\n"
        "def f():\n    from .harness import Simulation\n"
    )
    assert set().union(*(_imported_modules(n) for n in _imports(tree))) == {
        "crypto", "chain", "vasp", "harness"}
    assert _function_level_imports(tree) == [7]


def test_internal_import_graph_is_acyclic():
    done: set[str] = set()

    def visit(name, path):
        assert name not in path, "import cycle: " + " -> ".join(path[path.index(name):] + [name])
        if name in done:
            return
        for target in sorted(GRAPH[name]):
            visit(target, path + [name])
        done.add(name)

    for name in sorted(GRAPH):
        visit(name, [])
    assert "vasp" not in GRAPH["network"]


def test_no_type_checking_import_and_no_function_level_import():
    for name, tree in MODULES.items():
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {a.name for n in _imports(tree) for a in n.names}
        assert "TYPE_CHECKING" not in names, name
        assert _function_level_imports(tree) == [], name


def test_every_import_is_read():
    """Each name a module imports is read in it, annotations included, unless
    its import line is marked ``# noqa: F401`` (a re-export); ``__future__``
    imports are directives."""
    for name, tree in MODULES.items():
        if name == "__init__":
            continue
        lines = (SRC / f"{name}.py").read_text().splitlines()
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in _imports(tree):
            if (getattr(node, "module", None) == "__future__"
                    or "# noqa: F401" in lines[node.end_lineno - 1]):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                assert bound in read, f"{name}.py:{node.lineno} imports {bound}, never read"


def test_simulation_does_not_import_yaml():
    """PyYAML is the command line's: a fresh interpreter that imports the
    package and the harness, as a benchmark worker does, leaves it unloaded."""
    code = "import sys, vaspnet, vaspnet.harness; sys.exit(2 if 'yaml' in sys.modules else 0)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert proc.returncode == 0, proc.stderr or "vaspnet imported yaml"
