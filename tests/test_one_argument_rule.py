"""Caller arguments are read by one rule, in errors.py.

Every module reads its caller's integers through errors._integer and
errors._integers, so outside errors.py only ising.py, the independent
oracle that imports nothing from weldkit, may call operator.index.  A
second check keeps the imports honest: no module imports a name it never
uses, so a deleted helper cannot linger as a dead import.  Both checks
parse the sources, so they need no import hook and see code that no test
happens to run.
"""

import ast
from pathlib import Path

import weldkit

SRC = Path(weldkit.__file__).parent
# modules that may call operator.index
INDEX_READERS = {"errors.py", "ising.py"}


def index_calls(module: str, source: str) -> list[str]:
    """operator.index reads and imports in source, unless module may make them."""
    if module in INDEX_READERS:
        return []
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "index"
            and isinstance(node.value, ast.Name)
            and node.value.id == "operator"
        ):
            found.append(f"{module}:{node.lineno} uses operator.index")
        if isinstance(node, ast.ImportFrom) and node.module == "operator":
            if any(alias.name == "index" for alias in node.names):
                found.append(f"{module}:{node.lineno} imports operator.index")
    return sorted(found)


def unused_imports(module: str, source: str) -> list[str]:
    """Names source imports but neither reads nor lists in __all__."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= {item.value for item in node.value.elts}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [(alias.asname or alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [(alias.asname or alias.name) for alias in node.names]
        else:
            continue
        found += [f"{module}:{node.lineno} imports {name}" for name in bound if name not in used]
    return sorted(found)


def test_the_checks_see_index_calls_and_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import operator\n"
        "import numpy as np\n"
        "from operator import index\n"
        "from dataclasses import dataclass, field\n"
        "__all__ = ['index']\n"
        "@dataclass\n"
        "class Walk:\n"
        "    def __post_init__(self):\n"
        "        self.q = operator.index(self.q)\n"
    )
    assert index_calls("energy.py", source) == [
        "energy.py:10 uses operator.index",
        "energy.py:4 imports operator.index",
    ]
    assert index_calls("errors.py", source) == index_calls("ising.py", source) == []
    assert unused_imports("verify.py", source) == [
        "verify.py:3 imports np",
        "verify.py:5 imports field",
    ]


def test_only_errors_and_ising_call_operator_index():
    modules = sorted(SRC.glob("*.py"))
    assert INDEX_READERS < {m.name for m in modules}
    assert [hit for m in modules for hit in index_calls(m.name, m.read_text())] == []
    # the allowance is still needed: both modules read integers themselves
    assert all("operator.index(" in (SRC / name).read_text() for name in INDEX_READERS)


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(SRC.glob("*.py"))
    assert [hit for m in modules for hit in unused_imports(m.name, m.read_text())] == []
