"""End-to-end checks, one per shipping criterion.

Each test records a PASS/FAIL line for the terminal summary and pins
its own wall-clock budget.  Numeric expectations are exact integers or
exact fractions throughout; nothing here is tuned to tolerance bands.
"""

import time
from fractions import Fraction

import numpy as np

import gf2_reference as ref
from conftest import record
from weldkit import gf2
from weldkit.builders import (
    SolidSpec,
    SurfaceSpec,
    build_solid,
    build_surface,
    build_two_qubit,
    build_welded_solid,
    build_welded_surface,
    grid2d,
    path,
    region_graph_from_weld_graph,
    star,
    surface_welding_chain,
)
from weldkit.css import (
    CssCode,
    GeneratingSet,
    distance,
    dumps,
    encoded_qubits,
    groups_equal,
    loads,
    permute_qubits,
    syndrome,
)
from weldkit.energy import (
    barrier_exponents,
    barrier_unchanged_by_rough_welds,
    exact_barrier,
    parity_lower_bound,
    tune_scaling,
    verify_bound,
    walk_barrier,
)
from weldkit.ising import spin_flip_barrier
from weldkit.pauli import PauliOperator, multiply, permute_operator, restrict
from weldkit.welding import weld, weld_oracle


def test_criterion_1_golden_welds():
    start = time.perf_counter()
    merged = weld(build_two_qubit(), build_two_qubit(), [(1, 0)], "z")
    want = CssCode(GeneratingSet(3, [[1, 1, 0], [0, 1, 1]], [[1, 1, 1]]))
    oracle = weld_oracle(build_two_qubit(), build_two_qubit(), [(1, 0)], "z")
    checks = [
        groups_equal(merged, want),
        groups_equal(merged, oracle),
        groups_equal(
            build_welded_surface(path(2), "rough", SurfaceSpec(2, 2)),
            build_surface(SurfaceSpec(2, 2)),
        ),
        groups_equal(
            build_welded_solid(path(2), SolidSpec(1, 1, 2)),
            build_solid(SolidSpec(1, 1, 2)),
        ),
    ]
    elapsed = time.perf_counter() - start
    ok = all(checks) and elapsed < 1.0
    record(1, ok, f"golden welds match their groups exactly in {elapsed:.3f}s")
    assert ok


def test_criterion_2_welding_chain():
    start = time.perf_counter()
    chain = surface_welding_chain()
    sizes = tuple(code.n for _, code in chain)
    largest = chain[-1][1]
    dx, dz = distance(largest)
    elapsed = time.perf_counter() - start
    ok = (
        sizes == (2, 3, 5, 7, 8, 13)
        and encoded_qubits(largest) == 1
        and min(dx, dz) >= 3
        and elapsed < 10.0
    )
    record(
        2,
        ok,
        f"chain sizes {sizes}, 13-qubit distances ({dx},{dz}) in {elapsed:.2f}s",
    )
    assert ok


def test_criterion_3_randomized_oracle_agreement(verification_report):
    report, elapsed = verification_report
    oracle = next(c for c in report.checks if "matches oracle" in c.name)
    spoiled = [c for c in report.checks if c.name.startswith("spoiled instance")]
    rejected = next(c for c in report.checks if "logical-carrying" in c.name)
    ok = (
        oracle.ok
        and len(spoiled) == 3
        and all(c.ok for c in spoiled)
        and rejected.ok
        and elapsed < 60.0
    )
    record(
        3,
        ok,
        f"{oracle.detail} oracle agreements, {len(spoiled)} spoiled instances "
        f"rejected with witnesses in {elapsed:.2f}s",
    )
    assert ok


def test_criterion_4_welds_encode_zero(verification_report):
    report, _ = verification_report
    check = next(c for c in report.checks if "encode zero" in c.name)
    record(4, check.ok, f"{check.detail} randomized welds encode zero qubits")
    assert check.ok


def test_criterion_5_welded_assembly_barriers():
    start = time.perf_counter()
    surface = build_welded_surface(star(3), "rough", SurfaceSpec(2, 2))
    surface_report = verify_bound(surface, "z")
    solid = build_welded_solid(star(3), SolidSpec(1, 1, 2))
    solid_report = verify_bound(solid, "z")
    elapsed = time.perf_counter() - start
    ok = (
        surface_report.saturated
        and surface_report.exact.barrier == 2
        and solid_report.saturated
        and solid_report.exact.barrier == 2
        and walk_barrier(solid, solid_report.witness) == 2
        and elapsed < 300.0
    )
    record(
        5,
        ok,
        "three-piece welded surface and solid both reach barrier 2, "
        f"bound saturated, in {elapsed:.2f}s",
    )
    assert ok


def test_criterion_6_flat_solid_ladder():
    start = time.perf_counter()
    barriers = []
    saturated = []
    for d in (1, 2, 3):
        report = verify_bound(build_solid(SolidSpec(d, d, 1)), "x")
        barriers.append(report.exact.barrier)
        saturated.append(report.saturated)
    elapsed = time.perf_counter() - start
    monotone = all(a <= b for a, b in zip(barriers, barriers[1:]))
    ok = barriers == [2, 4, 5] and all(saturated) and monotone and elapsed < 60.0
    record(
        6,
        ok,
        f"one-level solids reach exact barriers {barriers}, each equal to "
        f"its parity bound, in {elapsed:.2f}s",
    )
    assert ok


def test_criterion_7_membrane_invariance():
    start = time.perf_counter()
    reports = [
        barrier_unchanged_by_rough_welds(graph, SolidSpec(1, 1, 2))
        for graph in (path(2), path(3), star(3))
    ]
    elapsed = time.perf_counter() - start
    ok = (
        all(r.unchanged for r in reports)
        and all(r.single.barrier == 2 for r in reports)
        and elapsed < 60.0
    )
    values = [(r.welded.barrier, r.single.barrier) for r in reports]
    record(
        7,
        ok,
        f"welded vs single membrane barriers {values} in {elapsed:.2f}s",
    )
    assert ok


def test_criterion_8_spin_model_correspondence():
    start = time.perf_counter()
    graphs = (
        [path(n) for n in range(2, 7)]
        + [star(leaves) for leaves in range(2, 6)]
        + [grid2d(a, b) for a in (2, 3) for b in (2, 3)]
    )
    agreements = 0
    for graph in graphs:
        region = region_graph_from_weld_graph(graph, "x")
        rep = PauliOperator.from_support(region.n, z=tuple(range(region.n)))
        bound = parity_lower_bound(region, rep).barrier
        index = {v: i for i, v in enumerate(graph.vertices)}
        edges = [(index[u], index[v]) for u, v in graph.edges]
        spins = len(graph.vertices)
        direct = spin_flip_barrier(spins, edges, (1 << spins) - 1)
        agreements += bound == direct
    elapsed = time.perf_counter() - start
    ok = agreements == len(graphs) and elapsed < 60.0
    record(
        8,
        ok,
        f"parity bound equals the spin-flip barrier on {agreements}/"
        f"{len(graphs)} graphs in {elapsed:.2f}s",
    )
    assert ok


def test_criterion_9_scaling_exponents():
    plan = tune_scaling(qubit_budget=10**9)
    exponents = barrier_exponents(2)
    ok = (
        plan.alpha == Fraction(2)
        and exponents == (Fraction(2, 9), Fraction(2, 3))
        and plan.barrier_qubit_exponent == Fraction(2, 9)
        and plan.barrier_length_exponent == Fraction(2, 3)
        and plan.distance_length_exponent == Fraction(4, 3)
        and (plan.piece_size, plan.pieces_per_axis) == (100, 10)
    )
    record(
        9,
        ok,
        "balanced plan exponents are exactly 2/9, 2/3, and 4/3 "
        f"(pieces {plan.piece_size} x {plan.pieces_per_axis}^3)",
    )
    assert ok


def _random_operator(rng, n):
    return PauliOperator(
        n,
        rng.integers(0, 2, size=n, dtype=np.uint8),
        rng.integers(0, 2, size=n, dtype=np.uint8),
    )


def test_criterion_10_property_suites():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    cases = 1000

    involution = 0
    for _ in range(cases):
        a, b = _random_operator(rng, 10), _random_operator(rng, 10)
        involution += multiply(a, a).is_identity and multiply(a, multiply(a, b)) == b

    multiplicative = 0
    for _ in range(cases):
        a, b = _random_operator(rng, 10), _random_operator(rng, 10)
        support = tuple(int(q) for q in np.flatnonzero(rng.integers(0, 2, 10)))
        lhs = restrict(multiply(a, b), support)
        rhs = multiply(restrict(a, support), restrict(b, support))
        multiplicative += lhs == rhs

    assembly = build_welded_surface(star(3), "rough", SurfaceSpec(2, 2))
    linear = 0
    for _ in range(cases):
        a, b = _random_operator(rng, assembly.n), _random_operator(rng, assembly.n)
        sa, sb = syndrome(assembly, a), syndrome(assembly, b)
        sab = syndrome(assembly, multiply(a, b))
        linear += set(sab.violated_x) == set(sa.violated_x) ^ set(sb.violated_x) and set(
            sab.violated_z
        ) == set(sa.violated_z) ^ set(sb.violated_z)

    round_trips = 0
    for _ in range(cases):
        n = int(rng.integers(2, 9))
        x_rows = rng.integers(0, 2, size=(int(rng.integers(1, n)), n), dtype=np.uint8)
        z_rows = ref.null_space(x_rows)
        assert gf2._kernel(gf2._pack(x_rows), n) == gf2._pack(z_rows)
        code = CssCode(GeneratingSet(n, x_rows, z_rows))
        as_text = loads(dumps(code, "text"))
        as_json = loads(dumps(code, "json"))
        round_trips += groups_equal(as_text, code) and groups_equal(as_json, code)

    base = build_solid(SolidSpec(1, 1, 1))
    replayed = 0
    for _ in range(cases):
        perm = tuple(int(q) for q in rng.permutation(base.n))
        moved = permute_qubits(base, perm)
        rep = permute_operator(base.logicals[0].x_rep, perm)
        result = exact_barrier(moved, rep, "x")
        replayed += (
            result.barrier == 2 and walk_barrier(moved, result.witness) == 2
        )

    elapsed = time.perf_counter() - start
    counts = (involution, multiplicative, linear, round_trips, replayed)
    ok = all(c == cases for c in counts) and elapsed < 60.0
    record(
        10,
        ok,
        f"five property suites at {cases} cases each, all clean, "
        f"in {elapsed:.1f}s",
    )
    assert ok
