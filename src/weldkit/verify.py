"""Built-in checks: golden welds plus randomized oracle comparisons.

The golden section pins a handful of small assemblies to their known
groups.  The randomized section generates weld instances whose shared
patterns are valid by construction, compares weld against the kernel
oracle on each, then spoils instances in targeted ways and insists the
preconditions catch them.  The CLI seeds this, which is the reason it
takes a seed at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gf2
from .builders import (
    SolidSpec,
    SurfaceSpec,
    build_solid,
    build_surface,
    build_two_qubit,
    build_welded_solid,
    build_welded_surface,
    path,
    surface_welding_chain,
)
from .css import CssCode, GeneratingSet, encoded_qubits, groups_equal
from .errors import ValidationError, WeldError
from .pauli import parse_operator
from .welding import weld, weld_oracle

__all__ = [
    "CheckResult",
    "VerificationReport",
    "random_weld_case",
    "run_verification",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def summary(self) -> str:
        lines = []
        for check in self.checks:
            mark = "ok  " if check.ok else "FAIL"
            suffix = f"  ({check.detail})" if check.detail else ""
            lines.append(f"{mark} {check.name}{suffix}")
        return "\n".join(lines)


def _golden_checks() -> list[CheckResult]:
    checks = []

    merged = weld(build_two_qubit(), build_two_qubit(), [(1, 0)], "z")
    want = CssCode(
        GeneratingSet._packed(
            3,
            [parse_operator("XXI").x, parse_operator("IXX").x],
            [parse_operator("ZZZ").z],
        )
    )
    checks.append(
        CheckResult(
            "two-qubit z-weld gives the three-qubit group",
            groups_equal(merged, want),
        )
    )

    sizes = tuple(code.n for _, code in surface_welding_chain())
    checks.append(
        CheckResult(
            "welding chain qubit counts",
            sizes == (2, 3, 5, 7, 8, 13),
            f"got {sizes}",
        )
    )

    spec = SurfaceSpec(2, 2)
    checks.append(
        CheckResult(
            "single rough surface weld reproduces the plain patch",
            groups_equal(
                build_welded_surface(path(2), "rough", spec), build_surface(spec)
            ),
        )
    )

    solid = SolidSpec(1, 1, 2)
    checks.append(
        CheckResult(
            "single solid weld reproduces the plain solid",
            groups_equal(build_welded_solid(path(2), solid), build_solid(solid)),
        )
    )
    return checks


def _independent_patterns(rng, shared: int, count: int) -> np.ndarray:
    while True:
        patterns = rng.integers(0, 2, size=(count, shared), dtype=np.uint8)
        if len(gf2._echelon(gf2._pack(patterns))) == count:
            return patterns


def _weld_side(rng, patterns, shared_positions, n: int, weld_type: str) -> CssCode:
    """A stabilizer code whose weld-type rows realize the given patterns.

    One touching row per pattern (pattern bits on the shared slots,
    noise elsewhere) plus a few interior-only rows; the opposite type
    is the kernel, which forces commutation and zero encoded qubits.
    """
    interior = sorted(set(range(n)) - set(shared_positions))
    rows = []
    for pattern in patterns:
        row = np.zeros(n, dtype=np.uint8)
        row[list(shared_positions)] = pattern
        row[interior] = rng.integers(0, 2, size=len(interior), dtype=np.uint8)
        rows.append(row)
    for _ in range(int(rng.integers(0, 3))):
        row = np.zeros(n, dtype=np.uint8)
        row[interior] = rng.integers(0, 2, size=len(interior), dtype=np.uint8)
        if row.any():
            rows.append(row)
    patterned = gf2._pack(rows)
    kernel = gf2._kernel(patterned, n)
    if weld_type == "z":
        return CssCode(GeneratingSet._packed(n, kernel, patterned))
    return CssCode(GeneratingSet._packed(n, patterned, kernel))


def random_weld_case(rng, max_side: int = 12):
    """A weld instance valid by construction.

    Returns (code1, code2, ident, weld_type).  Both sides share the
    same independent restriction patterns, so the matching and
    independence preconditions hold, and weld must agree with the
    kernel oracle on the result.  Each side needs room for up to three
    shared qubits and one interior qubit, so max_side is at least 4.
    """
    if max_side < 4:
        raise ValidationError(f"max_side must be at least 4, got {max_side}")
    weld_type = "z" if rng.integers(0, 2) else "x"
    shared = int(rng.integers(1, 4))
    count = int(rng.integers(1, shared + 1))
    patterns = _independent_patterns(rng, shared, count)
    sides = []
    idents = []
    for _ in range(2):
        n = shared + int(rng.integers(1, max_side - shared + 1))
        positions = tuple(int(q) for q in rng.permutation(n)[:shared])
        sides.append(_weld_side(rng, patterns, positions, n, weld_type))
        idents.append(positions)
    ident = list(zip(idents[0], idents[1]))
    return sides[0], sides[1], ident, weld_type


def _spoiled_cases(rng):
    """Broken weld instances, each tagged with the check that must fire."""
    cases = []

    # One side misses a pattern: its partner strands on the other side.
    shared = 2
    base = _independent_patterns(rng, shared, 2)
    lonely = _weld_side(rng, base, (0, 1), 5, "z")
    other = _weld_side(rng, base[:1], (0, 1), 5, "z")
    cases.append(((lonely, other, [(0, 0), (1, 1)], "z"), "well_matched"))

    # Three touching rows, independent in full but rank two on the weld.
    dependent = np.array(
        [
            [0, 1, 1, 0, 0, 0],
            [1, 0, 0, 1, 0, 0],
            [1, 1, 0, 0, 1, 0],
        ],
        dtype=np.uint8,
    )
    rows = gf2._pack(dependent)
    kernel = gf2._kernel(rows, 6)
    left = CssCode(GeneratingSet._packed(6, rows, kernel))
    right = CssCode(GeneratingSet._packed(6, rows, kernel))
    cases.append(((left, right, [(0, 0), (1, 1)], "x"), "weld_independence"))

    # Same object on both ends.
    twin = _weld_side(rng, base, (0, 1), 5, "z")
    cases.append(((twin, twin, [(0, 0), (1, 1)], "z"), "self_weld"))
    return cases


def run_verification(
    seed: int = 0, rounds: int = 200, max_side: int = 12
) -> VerificationReport:
    """Golden welds, oracle agreement rounds, and rejection checks."""
    if rounds < 0:
        raise ValidationError(f"rounds must not be negative, got {rounds}")
    checks = _golden_checks()
    rng = np.random.default_rng(seed)

    agreements = 0
    zero_encoded = 0
    first_failure = ""
    for i in range(rounds):
        code1, code2, ident, weld_type = random_weld_case(rng, max_side)
        merged = weld(code1, code2, ident, weld_type)
        if groups_equal(merged, weld_oracle(code1, code2, ident, weld_type)):
            agreements += 1
        elif not first_failure:
            first_failure = f"round {i} disagreed"
        if encoded_qubits(merged) == 0:
            zero_encoded += 1
    checks.append(
        CheckResult(
            f"weld matches oracle on {rounds} random instances",
            agreements == rounds,
            first_failure or f"{agreements}/{rounds}",
        )
    )
    checks.append(
        CheckResult(
            "welded outputs encode zero qubits",
            zero_encoded == rounds,
            f"{zero_encoded}/{rounds}",
        )
    )

    for args, expected in _spoiled_cases(rng):
        name = f"spoiled instance raises {expected}"
        try:
            weld(*args)
        except WeldError as err:
            witnessed = expected == "self_weld" or err.witness is not None
            checks.append(
                CheckResult(name, err.check == expected and witnessed, str(err))
            )
        except ValidationError as err:
            checks.append(CheckResult(name, False, f"wrong rejection: {err}"))
        else:
            checks.append(CheckResult(name, False, "weld accepted it"))

    try:
        weld(build_surface(SurfaceSpec(2, 2)), build_two_qubit(), [(0, 0)], "z")
        checks.append(CheckResult("logical-carrying input rejected", False))
    except ValidationError:
        checks.append(CheckResult("logical-carrying input rejected", True))

    return VerificationReport(tuple(checks))
