import ast
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from weldkit import ising
from weldkit.ising import MAX_SPINS, spin_flip_barrier


def path_edges(n):
    return [(i, i + 1) for i in range(n - 1)]


def star_edges(leaves):
    return [(0, i + 1) for i in range(leaves)]


def grid_edges(a, b):
    edges = []
    for x in range(a):
        for y in range(b):
            if x + 1 < a:
                edges.append((x * b + y, (x + 1) * b + y))
            if y + 1 < b:
                edges.append((x * b + y, x * b + y + 1))
    return edges


def all_spins(n):
    return (1 << n) - 1


def test_chains_cost_one_domain_wall():
    for n in range(2, 7):
        assert spin_flip_barrier(n, path_edges(n), all_spins(n)) == 1


def test_stars_cost_half_the_leaves():
    assert spin_flip_barrier(3, star_edges(2), all_spins(3)) == 1
    assert spin_flip_barrier(4, star_edges(3), all_spins(4)) == 2
    assert spin_flip_barrier(6, star_edges(5), all_spins(6)) == 3


def test_square_grids():
    assert spin_flip_barrier(4, grid_edges(2, 2), all_spins(4)) == 2
    assert spin_flip_barrier(6, grid_edges(2, 3), all_spins(6)) == 3
    assert spin_flip_barrier(9, grid_edges(3, 3), all_spins(9)) == 4


def test_endpoints_count_toward_the_peak():
    # flipping only the hub leaves every bond frustrated at the target
    assert spin_flip_barrier(4, star_edges(3), 0b0001) == 3


def test_same_start_and_target_is_free():
    assert spin_flip_barrier(5, path_edges(5), 0) == 0
    mask = 0b00110
    assert spin_flip_barrier(5, path_edges(5), mask, start_mask=mask) == 2


def test_input_validation():
    with pytest.raises(ValueError):
        spin_flip_barrier(0, [], 0)
    with pytest.raises(ValueError):
        spin_flip_barrier(MAX_SPINS + 1, [], 0)
    with pytest.raises(ValueError):
        spin_flip_barrier(3, [(0, 3)], 0)
    with pytest.raises(ValueError):
        spin_flip_barrier(3, [(1, 1)], 0)
    with pytest.raises(ValueError):
        spin_flip_barrier(3, [], 1 << 3)
    # a bond that is not a pair is named, whatever it is instead
    with pytest.raises(ValueError, match=r"bond 1 is not a pair"):
        spin_flip_barrier(3, [1, 2], 1)
    with pytest.raises(ValueError, match=r"bond \(0, 1, 2\) is not a pair"):
        spin_flip_barrier(3, [(0, 1, 2)], 1)


@pytest.mark.parametrize(
    "args",
    [(2.5, [(0, 1)], 3), ("3", [(0, 1)], 3), (3, [(0, 1.5)], 3), (3, [(0, 1)], 3.0), (3, [(0, 1)], 3, "1")],
    ids=["n_spins-float", "n_spins-str", "bond-float", "target-float", "start-str"],
)
def test_integers_are_never_truncated(args):
    with pytest.raises(ValueError, match="must be an integer"):
        spin_flip_barrier(*args)
    assert spin_flip_barrier(np.int64(3), [(np.int32(0), 1)], np.uint8(3), np.int64(0)) == 1


def _reference_spin_flip_barrier(n_spins, edges, target_mask, start_mask=0):
    # the from-scratch oracle: every visited neighbour recounts all bonds
    n = int(n_spins)
    if not 0 < n <= MAX_SPINS:
        raise ValueError(f"n_spins must be in 1..{MAX_SPINS}, got {n_spins}")
    bonds = []
    for u, v in edges:
        u, v = int(u), int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"bond ({u},{v}) leaves the spin range")
        if u == v:
            raise ValueError(f"bond ({u},{v}) ties a spin to itself")
        bonds.append((u, v))
    start = int(start_mask)
    target = int(target_mask)
    if not (0 <= start < 1 << n and 0 <= target < 1 << n):
        raise ValueError("spin masks must fit in n_spins bits")

    def frustration(s):
        return sum(1 for u, v in bonds if ((s >> u) ^ (s >> v)) & 1)

    floor = max(frustration(start), frustration(target))
    for threshold in range(floor, len(bonds) + 1):
        seen = {start}
        stack = [start]
        while stack:
            s = stack.pop()
            if s == target:
                return threshold
            for j in range(n):
                t = s ^ (1 << j)
                if t not in seen and frustration(t) <= threshold:
                    seen.add(t)
                    stack.append(t)
    raise AssertionError("flipping one frustrated bond at a time always connects")


def _random_bonds(rng, n):
    # random pairs, so some spins stay isolated; half the graphs repeat a
    # bond or two
    bonds = []
    if n > 1:
        for _ in range(rng.randrange(2 * n)):
            u, v = rng.sample(range(n), 2)
            bonds.append((u, v))
    if bonds and rng.random() < 0.5:
        bonds += rng.choices(bonds, k=rng.randrange(1, 3))
    return bonds


def _frustration(bonds, s):
    return sum(1 for u, v in bonds if ((s >> u) ^ (s >> v)) & 1)


def test_local_update_matches_the_from_scratch_oracle():
    rng = random.Random(5)
    above_the_floor = 0
    for case in range(420):
        n = 1 + case % 14
        bonds = _random_bonds(rng, n)
        start = rng.randrange(1 << n) if case % 3 else 0
        target = start if case % 7 == 0 else rng.randrange(1 << n)
        want = _reference_spin_flip_barrier(n, bonds, target, start)
        assert spin_flip_barrier(n, bonds, target, start) == want, (n, bonds, start, target)
        above_the_floor += want > max(_frustration(bonds, start), _frustration(bonds, target))
    # enough cases exhaust a threshold before reaching the target, so the
    # target-first order is checked where it must not stop the search early
    assert above_the_floor >= 20
    # a doubled bond counts twice along the way
    assert spin_flip_barrier(2, [(0, 1), (0, 1)], 0b01) == 2


def outside_imports(source: str) -> list[str]:
    """Imports in source that are relative or leave the standard library."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [(0, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [(node.level, node.module or "")]
        else:
            continue
        for level, name in names:
            if level or name.split(".")[0] not in sys.stdlib_module_names:
                found.append(f"{node.lineno}: {'.' * level}{name}")
    return found


def test_the_oracle_imports_only_the_standard_library():
    # its independence from the engine it cross-checks rests on this
    source = "import operator\nimport numpy as np\nfrom . import energy\nfrom weldkit.gf2 import rank\n"
    assert outside_imports(source) == ["2: numpy", "3: .", "4: weldkit.gf2"]
    source = Path(ising.__file__).read_text()
    assert outside_imports(source) == []
    assert "import operator" in source
