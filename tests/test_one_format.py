"""The library computes on one bit format, packed int rows.

Only pauli.py may read an operator's dense x_bits/z_bits views, and only
gf2.py may call gf2's public dense functions; everything else works on
the packed rows.  The check parses the sources, so it needs no import
hook and sees code that no test happens to run.
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


def conversions(module: str, source: str) -> list[str]:
    """Reads of the dense views and calls of the dense gf2 functions in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in VIEWS and module != "pauli.py":
            found.append(f"{module}:{node.lineno} reads .{node.attr}")
        if module == "gf2.py":
            continue
        if (
            isinstance(node, ast.Attribute)
            and node.attr in DENSE
            and isinstance(node.value, ast.Name)
            and node.value.id == "gf2"
        ):
            found.append(f"{module}:{node.lineno} uses gf2.{node.attr}")
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "gf2":
            for alias in node.names:
                if alias.name in DENSE:
                    found.append(f"{module}:{node.lineno} imports gf2.{alias.name}")
    return found


def test_the_check_sees_both_kinds_of_conversion():
    assert {"rank", "null_space", "rref", "as_matrix", "as_vector"} <= DENSE
    source = (
        "from . import gf2\n"
        "from .gf2 import null_space\n"
        "def f(op, m):\n"
        "    return gf2.rank(m), op.x_bits, op.z_bits\n"
    )
    assert len(conversions("css.py", source)) == 4
    assert conversions("pauli.py", source) == [
        "pauli.py:2 imports gf2.null_space",
        "pauli.py:4 uses gf2.rank",
    ]
    assert conversions("gf2.py", source) == ["gf2.py:4 reads .x_bits", "gf2.py:4 reads .z_bits"]


def test_only_pauli_reads_views_and_only_gf2_calls_dense_functions():
    modules = sorted(SRC.glob("*.py"))
    assert {"pauli.py", "gf2.py", "css.py", "welding.py"} <= {m.name for m in modules}
    found = [hit for m in modules for hit in conversions(m.name, m.read_text())]
    assert found == []
