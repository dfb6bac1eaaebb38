"""The library computes on one bit format, packed int rows.

Dense 0/1 arrays stay at the library's edge.  Only pauli.py may read an
operator's dense x_bits/z_bits views, and outside gf2.py a module may
call gf2's dense edge helpers only where EDGE allows it; builders.py
and welding.py do not import numpy at all.  The check parses the
sources, so it needs no import hook and sees code that no test happens
to run.
"""

import ast
import inspect
from pathlib import Path

import weldkit
from weldkit import gf2

SRC = Path(weldkit.__file__).parent
VIEWS = {"x_bits", "z_bits"}
DENSE = {
    name
    for name, obj in vars(gf2).items()
    if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == gf2.__name__
}
# Where outside gf2.py each dense helper may run: a module, or a function
# in a module.  The public dense functions run nowhere else.
EDGE = {name: frozenset() for name in DENSE} | {
    "_pack": frozenset(),
    "_unpack": frozenset(),
    # the two array constructors pack their 0/1 input once
    "_packed_block": frozenset({"css.py:GeneratingSet.__init__", "pauli.py:PauliOperator.__init__"}),
    # the read-only x_rows/z_rows and x_bits/z_bits views
    "_view": frozenset({"css.py", "pauli.py"}),
}
NO_NUMPY = {"builders.py", "welding.py"}


def _scoped(tree):
    """(node, dotted name of the enclosing functions and classes) for every node."""
    stack = [(tree, "")]
    while stack:
        node, scope = stack.pop()
        yield node, scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        stack.extend((child, scope) for child in ast.iter_child_nodes(node))


def conversions(module: str, source: str, allowed: set | None = None) -> list[str]:
    """Dense reads, calls and imports in source that the edge rules forbid.

    Each allowed EDGE site that source uses is added to allowed.
    """
    found = []
    for node, scope in _scoped(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in VIEWS and module != "pauli.py":
            found.append(f"{module}:{node.lineno} reads .{node.attr}")
        if module in NO_NUMPY and (
            (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "numpy" for a in node.names))
            or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy")
        ):
            found.append(f"{module}:{node.lineno} imports numpy")
        if module == "gf2.py":
            continue
        if (
            isinstance(node, ast.Attribute)
            and node.attr in EDGE
            and isinstance(node.value, ast.Name)
            and node.value.id == "gf2"
        ):
            sites = EDGE[node.attr] & {module, f"{module}:{scope}"}
            if not sites:
                found.append(f"{module}:{node.lineno} uses gf2.{node.attr}")
            elif allowed is not None:
                allowed.update((node.attr, site) for site in sites)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "gf2":
            for alias in node.names:
                if alias.name in EDGE:
                    found.append(f"{module}:{node.lineno} imports gf2.{alias.name}")
    return sorted(found)


def test_the_check_sees_both_kinds_of_conversion():
    assert DENSE == {"as_matrix"}
    source = (
        "from . import gf2\n"
        "from .gf2 import as_matrix\n"
        "import numpy as np\n"
        "class GeneratingSet:\n"
        "    def __init__(self, rows):\n"
        "        self.rows = gf2._packed_block('x', rows, 3)\n"
        "def _trace(op, m):\n"
        "    return gf2._pack(m), gf2._unpack(m, 3), gf2._view(m, 3), op.x_bits\n"
    )
    used = set()
    assert conversions("css.py", source, used) == [
        "css.py:2 imports gf2.as_matrix",
        "css.py:8 reads .x_bits",
        "css.py:8 uses gf2._pack",
        "css.py:8 uses gf2._unpack",
    ]
    assert used == {("_packed_block", "css.py:GeneratingSet.__init__"), ("_view", "css.py")}
    for module in ("builders.py", "welding.py"):
        assert conversions(module, source) == [
            f"{module}:2 imports gf2.as_matrix",
            f"{module}:3 imports numpy",
            f"{module}:6 uses gf2._packed_block",
            f"{module}:8 reads .x_bits",
            f"{module}:8 uses gf2._pack",
            f"{module}:8 uses gf2._unpack",
            f"{module}:8 uses gf2._view",
        ]
    # _packed_block is allowed in PauliOperator's constructor, not in any other
    assert "pauli.py:6 uses gf2._packed_block" in conversions("pauli.py", source)
    assert conversions("gf2.py", source) == ["gf2.py:8 reads .x_bits"]


def test_only_pauli_reads_views_and_only_gf2_calls_dense_functions():
    modules = sorted(SRC.glob("*.py"))
    assert {"pauli.py", "gf2.py", "css.py", "welding.py", "builders.py"} <= {m.name for m in modules}
    used = set()
    found = [hit for m in modules for hit in conversions(m.name, m.read_text(), used)]
    assert found == []
    # every allowance names a site that still needs it
    assert used == {(name, site) for name, sites in EDGE.items() for site in sites}
