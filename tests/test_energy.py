import hashlib
import heapq
import random
from fractions import Fraction
from itertools import count
from math import comb

import numpy as np
import pytest

from weldkit import energy, gf2
from weldkit.builders import (
    FlatRegionGraph,
    QubitPatch,
    SolidSpec,
    SurfaceSpec,
    build_repetition,
    build_solid,
    build_surface,
    build_welded_solid,
    build_welded_surface,
    cubic,
    flat_region_graph,
    grid2d,
    path,
    region_graph_from_weld_graph,
    star,
)
from weldkit.cli import SWEEP_STATE_CAP
from weldkit.css import permute_qubits
from weldkit.energy import (
    DEFAULT_STATE_CAP,
    BarrierResult,
    PauliWalk,
    _bottleneck_search,
    barrier_exponents,
    barrier_unchanged_by_rough_welds,
    exact_barrier,
    operator_barrier,
    parity_lower_bound,
    tune_scaling,
    verify_bound,
    walk_barrier,
)
from weldkit.errors import FeasibilityError, MetadataError, ValidationError
from weldkit.ising import spin_flip_barrier
from weldkit.pauli import PauliOperator, permute_operator


def test_walk_barrier_replays_a_hand_walk():
    code = build_repetition(3)
    walk = PauliWalk(((0, "z"), (1, "z"), (2, "z")))
    assert walk_barrier(code, walk) == 1
    assert len(walk) == 3
    with pytest.raises(ValidationError):
        walk_barrier(code, PauliWalk(((7, "z"),)))
    with pytest.raises(ValidationError):
        PauliWalk(((0, "q"),))


@pytest.mark.parametrize("qubit", [1.7, 2.0, "2", None])
def test_walks_take_integer_qubits_only(qubit):
    with pytest.raises(ValidationError, match="integers"):
        PauliWalk(((0, "x"), (qubit, "z")))
    walk = PauliWalk(((np.int64(1), "x"), (np.uint16(2), "z")))
    assert walk.steps == ((1, "x"), (2, "z"))
    assert all(type(q) is int for q, _ in walk.steps)


def test_repetition_barriers():
    code = build_repetition(5)
    phase = exact_barrier(code, code.logicals[0].z_rep, "z")
    assert phase.barrier == 1
    assert phase.method == "exact"
    # no z-type generators at all, so x walks never cost anything
    flip = exact_barrier(code, code.logicals[0].x_rep, "x")
    assert flip.barrier == 0


def test_witness_replay_matches_reported_barrier():
    for code, kind in [
        (build_surface(SurfaceSpec(2, 2)), "z"),
        (build_solid(SolidSpec(1, 1, 2)), "z"),
        (build_solid(SolidSpec(1, 1, 2)), "x"),
    ]:
        rep = code.logicals[0].z_rep if kind == "z" else code.logicals[0].x_rep
        result = exact_barrier(code, rep, kind)
        assert walk_barrier(code, result.witness) == result.barrier
        assert all(k == kind for _, k in result.witness.steps)


def test_barrier_is_permutation_invariant():
    code = build_solid(SolidSpec(1, 1, 2))
    rep = code.logicals[0].z_rep
    base = exact_barrier(code, rep, "z").barrier
    rng = np.random.default_rng(3)
    for _ in range(3):
        perm = tuple(int(i) for i in rng.permutation(code.n))
        moved = permute_qubits(code, perm)
        moved_rep = permute_operator(rep, perm)
        assert exact_barrier(moved, moved_rep, "z").barrier == base


def test_unit_solid_barriers():
    code = build_solid(SolidSpec(1, 1, 1))
    seam = exact_barrier(code, code.logicals[0].x_rep, "x")
    assert seam.barrier == 2
    # a weight-one membrane completes in a single free flip
    sheet = exact_barrier(code, code.logicals[0].z_rep, "z")
    assert sheet.barrier == 0
    direct = operator_barrier(code, code.logicals[0].x_rep)
    assert direct.barrier == seam.barrier


def test_plain_solid_z_membrane_is_cheap():
    code = build_solid(SolidSpec(1, 1, 2))
    tall = exact_barrier(code, code.logicals[0].x_rep, "x")
    flat = exact_barrier(code, code.logicals[0].z_rep, "z")
    assert tall.barrier == 2
    assert flat.barrier == 1


def test_exact_barrier_input_checks():
    code = build_surface(SurfaceSpec(2, 2))
    mixed = PauliOperator.from_support(code.n, x=(0,), z=(1,))
    with pytest.raises(ValidationError):
        exact_barrier(code, mixed, "z")
    stabilizer = PauliOperator(code.n, np.zeros(code.n, np.uint8), code.z_rows[0])
    with pytest.raises(ValidationError):
        exact_barrier(code, stabilizer, "z")
    charged = PauliOperator.from_support(code.n, z=(0,))
    with pytest.raises(ValidationError):
        exact_barrier(code, charged, "z")


def test_feasibility_cap_is_enforced():
    code = build_solid(SolidSpec(1, 1, 2))
    with pytest.raises(FeasibilityError) as exc:
        exact_barrier(code, code.logicals[0].z_rep, "z", cap=4)
    assert exc.value.required > exc.value.cap == 4
    with pytest.raises(FeasibilityError) as exc:
        operator_barrier(code, code.logicals[0].z_rep, cap=4)
    assert (exc.value.required, exc.value.cap) == (2**code.n, 4)
    graph = flat_region_graph(code, "z")
    with pytest.raises(FeasibilityError) as exc:
        parity_lower_bound(graph, code.logicals[0].x_rep, cap=4)
    assert (exc.value.required, exc.value.cap) == (2 ** len(graph.boundaries), 4)


@pytest.mark.parametrize(
    "cap, complaint",
    [
        (2.5, "state cap must be an integer, got 2.5"),
        ("5", "state cap must be an integer, got '5'"),
        (0, "state cap must be at least 1, got 0"),
        (-1, "state cap must be at least 1, got -1"),
    ],
)
def test_searches_reject_a_bad_state_cap(cap, complaint):
    code = build_solid(SolidSpec(1, 1, 2))
    rep = code.logicals[0]
    graph = flat_region_graph(code, "z")
    searches = (
        lambda: exact_barrier(code, rep.z_rep, "z", cap=cap),
        lambda: operator_barrier(code, rep.z_rep, cap=cap),
        lambda: parity_lower_bound(graph, rep.x_rep, cap=cap),
    )
    for search in searches:
        with pytest.raises(ValidationError) as exc:
            search()
        assert str(exc.value) == complaint


def test_searches_take_numpy_integer_caps():
    code = build_solid(SolidSpec(1, 1, 2))
    rep = code.logicals[0].z_rep
    assert exact_barrier(code, rep, "z", cap=np.int64(1 << 20)) == exact_barrier(code, rep, "z")


def test_bound_never_exceeds_exact():
    cases = [
        (build_solid(SolidSpec(1, 1, 1)), "x"),
        (build_solid(SolidSpec(2, 2, 1)), "x"),
        (build_welded_surface(star(3), "rough", SurfaceSpec(2, 2)), "z"),
        (build_welded_solid(star(3), SolidSpec(1, 1, 2)), "z"),
    ]
    for code, kind in cases:
        report = verify_bound(code, kind)
        assert report.ok
        assert report.bound.barrier <= report.exact.barrier


def test_flat_solids_saturate_the_grid_bound():
    # one-level solids: the X membrane's bound meets the exact barrier
    values = []
    for d in (1, 2):
        report = verify_bound(build_solid(SolidSpec(d, d, 1)), "x")
        assert report.saturated
        values.append(report.exact.barrier)
    assert values == [2, 4]


def test_welded_star_saturates():
    code = build_welded_solid(star(3), SolidSpec(1, 1, 2))
    report = verify_bound(code, "z")
    assert report.saturated
    assert report.exact.barrier == 2
    assert walk_barrier(code, report.witness) == 2


def test_membrane_barrier_survives_rough_welds():
    report = barrier_unchanged_by_rough_welds(path(3), SolidSpec(1, 1, 2))
    assert report.unchanged
    assert report.welded.barrier == report.single.barrier == 2


def test_parity_lower_bound_on_bare_graphs():
    graph = region_graph_from_weld_graph(path(4), "x")
    full = PauliOperator.from_support(graph.n, z=tuple(range(graph.n)))
    result = parity_lower_bound(graph, full)
    assert result.method == "parity_bound"
    assert result.barrier == 1
    hub = region_graph_from_weld_graph(star(3), "x")
    spread = PauliOperator.from_support(hub.n, z=tuple(range(hub.n)))
    assert parity_lower_bound(hub, spread).barrier == 2


def test_parity_lower_bound_rejects_open_regions():
    open_graph = FlatRegionGraph(
        "x",
        3,
        (QubitPatch("lobe", (0, 1, 2)),),
        (QubitPatch("rim", (0,)),),
        ((0,),),
    )
    rep = PauliOperator.from_support(3, z=(0, 1, 2))
    with pytest.raises(MetadataError):
        parity_lower_bound(open_graph, rep)


def test_parity_lower_bound_input_checks():
    graph = region_graph_from_weld_graph(path(3), "x")
    short = PauliOperator.from_support(graph.n + 1, z=(0,))
    with pytest.raises(ValidationError):
        parity_lower_bound(graph, short)
    wrong_kind = PauliOperator.from_support(graph.n, x=(0,))
    with pytest.raises(ValidationError):
        parity_lower_bound(graph, wrong_kind)


def test_trivial_target_is_free():
    graph = region_graph_from_weld_graph(path(3), "x")
    nothing = PauliOperator.from_support(graph.n)
    result = parity_lower_bound(graph, nothing)
    assert result.barrier == 0
    assert len(result.witness) == 0


def test_barrier_exponents_are_exact_fractions():
    qubit_exp, length_exp = barrier_exponents(2)
    assert qubit_exp == Fraction(2, 9)
    assert length_exp == Fraction(2, 3)
    q1, l1 = barrier_exponents(1)
    assert (q1, l1) == (Fraction(1, 6), Fraction(1, 2))
    with pytest.raises(ValidationError):
        barrier_exponents(0)
    with pytest.raises(ValidationError):
        barrier_exponents(-3)


def test_tune_scaling_balances_piece_size_against_count():
    plan = tune_scaling(qubit_budget=10**9)
    assert plan.alpha == Fraction(2)
    assert (plan.piece_size, plan.pieces_per_axis) == (100, 10)
    assert plan.qubits == 10**9
    assert plan.predicted_barrier == 100
    assert plan.barrier_qubit_exponent == Fraction(2, 9)
    assert plan.barrier_length_exponent == Fraction(2, 3)
    assert plan.distance_length_exponent == Fraction(4, 3)

    small = tune_scaling(side_length=10)
    assert small.piece_size * small.pieces_per_axis <= 10
    assert small.predicted_barrier == min(
        small.piece_size, small.pieces_per_axis**2
    )

    with pytest.raises(ValidationError):
        tune_scaling()
    with pytest.raises(ValidationError):
        tune_scaling(side_length=5, qubit_budget=100)
    with pytest.raises(ValidationError):
        tune_scaling(qubit_budget=0)
    for sizes in ({"side_length": 8.7}, {"side_length": "10"}, {"qubit_budget": 1e9}):
        with pytest.raises(ValidationError, match="must be integers"):
            tune_scaling(**sizes)
    assert tune_scaling(side_length=np.int64(10)) == small


def test_barrier_result_shape():
    code = build_repetition(3)
    result = exact_barrier(code, code.logicals[0].z_rep, "z")
    assert isinstance(result, BarrierResult)
    assert result.states_explored >= 1
    assert isinstance(result.witness, PauliWalk)


# ---------------------------------------------------------------------------
# the shared engine against the two searches it replaced


def _relax_paths(monkeypatch):
    # the engine relaxes a batch in numpy or state by state, chosen by its
    # size; run the caller once with every batch on each path
    for cells in (0, 1 << 62):
        monkeypatch.setattr(energy, "_NUMPY_MIN_CELLS", cells)
        yield


def _reference_bottleneck(n, masks, canon, target, kind):
    # per-state canonicalization, separate best and parent dicts
    if target == 0:
        return 0, (), 1
    tick = count()
    best = {0: (0, 0)}
    parent = {}
    heap = [(0, 0, next(tick), 0, 0)]
    explored = 0
    while heap:
        bott, steps, _, state, syn = heapq.heappop(heap)
        if (bott, steps) > best.get(state, (bott, steps)):
            continue
        explored += 1
        if state == target:
            trail = []
            while state:
                state, q = parent[state]
                trail.append((q, kind))
            return bott, tuple(reversed(trail)), explored
        for q in range(n):
            nsyn = syn ^ masks[q]
            nstate = canon(state ^ (1 << q))
            key = (max(bott, nsyn.bit_count()), steps + 1)
            if nstate not in best or key < best[nstate]:
                best[nstate] = key
                parent[nstate] = (state, q)
                heapq.heappush(heap, (key[0], key[1], next(tick), nstate, nsyn))
    raise AssertionError("unreachable target")


def _reference_exact(code, rep, kind):
    same = code.z_rows if kind == "z" else code.x_rows
    opp = code.x_rows if kind == "z" else code.z_rows
    bits = rep.z_bits if kind == "z" else rep.x_bits
    pivot_rows = gf2._reduced(gf2._pack(same))

    def canon(v):
        for p, row in pivot_rows:
            if (v >> p) & 1:
                v ^= row
        return v

    target = canon(gf2._pack(bits)[0])
    return _reference_bottleneck(code.n, gf2._pack(opp.T), canon, target, kind)


def _reference_operator(code, op):
    kind = "z" if op.is_z_type else "x"
    bits = op.z_bits if kind == "z" else op.x_bits
    opp = code.x_rows if kind == "z" else code.z_rows
    return _reference_bottleneck(
        code.n, gf2._pack(opp.T), lambda v: v, gf2._pack(bits)[0], kind
    )


def _reference_parity(graph, rep):
    # the private loop: adjacency lists and a frustration delta per flip
    kind = "z" if graph.particle_type == "x" else "x"
    support = set(rep.z_support() if kind == "z" else rep.x_support())
    spins = len(graph.boundaries)
    target = 0
    for j, boundary in enumerate(graph.boundaries):
        if len(support.intersection(boundary.qubits)) & 1:
            target |= 1 << j
    if target == 0:
        return 0, (), 1
    adjacency = [[] for _ in range(spins)]
    for u, v in graph.incidence:
        if u != v:
            adjacency[u].append(v)
            adjacency[v].append(u)
    tick = count()
    best = {0: (0, 0)}
    parent = {}
    heap = [(0, 0, next(tick), 0, 0)]
    explored = 0
    while heap:
        bott, steps, _, state, cost = heapq.heappop(heap)
        if (bott, steps) > best.get(state, (bott, steps)):
            continue
        explored += 1
        if state == target:
            trail = []
            while state:
                state, j = parent[state]
                trail.append((min(graph.boundaries[j].qubits), kind))
            return bott, tuple(reversed(trail)), explored
        for j in range(spins):
            mine = (state >> j) & 1
            delta = sum(1 if ((state >> k) & 1) == mine else -1 for k in adjacency[j])
            key = (max(bott, cost + delta), steps + 1)
            nstate = state ^ (1 << j)
            if nstate not in best or key < best[nstate]:
                best[nstate] = key
                parent[nstate] = (state, j)
                heapq.heappush(heap, (key[0], key[1], next(tick), nstate, cost + delta))
    raise AssertionError("unreachable target")


def _outcome(result):
    return result.barrier, result.witness.steps, result.states_explored


def test_exact_and_operator_searches_match_the_reference_engine(monkeypatch):
    for _ in _relax_paths(monkeypatch):
        _exact_and_operator_searches_match_the_reference_engine()


def _exact_and_operator_searches_match_the_reference_engine():
    codes = [
        build_surface(SurfaceSpec(2, 2)),
        build_surface(SurfaceSpec(2, 3)),
        build_surface(SurfaceSpec(3, 2)),
        build_solid(SolidSpec(1, 1, 1)),
        build_solid(SolidSpec(1, 1, 2)),
        build_solid(SolidSpec(2, 2, 1)),
        build_solid(SolidSpec(2, 1, 2)),
        build_welded_solid(star(3), SolidSpec(1, 1, 2)),
        # 84 moves a state over hundreds of states: many ties at one key;
        # its 2^free bound on the coset space passes the default cap
        build_welded_solid(grid2d(2, 2), SolidSpec(2, 2, 2)),
    ]
    for code in codes:
        for cls in code.logicals:
            for kind, rep in (("x", cls.x_rep), ("z", cls.z_rep)):
                got = _outcome(exact_barrier(code, rep, kind, cap=1 << 64))
                assert got == _reference_exact(code, rep, kind)
    small = [build_repetition(4), build_surface(SurfaceSpec(2, 2))]
    small.append(build_solid(SolidSpec(1, 1, 1)))
    for code in small:
        cls = code.logicals[0]
        charged = PauliOperator.from_support(code.n, x=(0, 2))
        for op in (cls.x_rep, cls.z_rep, charged, PauliOperator.identity(code.n)):
            assert _outcome(operator_barrier(code, op)) == _reference_operator(code, op)


def _random_region_graph(rng, spins):
    # boundary j owns one or two qubits; every region holds the qubits of
    # its two boundaries plus one interior qubit of its own
    boundaries, qubit = [], 0
    for j in range(spins):
        width = rng.choice((1, 2))
        boundaries.append(QubitPatch(f"b{j}", range(qubit, qubit + width)))
        qubit += width
    pairs = [(j, j + 1) for j in range(spins - 1)] or [(0, 0)]
    for _ in range(rng.randrange(spins + 1)):
        pairs.append((rng.randrange(spins), rng.randrange(spins)))
    pairs.append(pairs[0])  # a multi-bond
    pairs.append((spins - 1, spins - 1))  # a self-loop
    regions = []
    for r, (u, v) in enumerate(pairs):
        inside = boundaries[u].qubits + boundaries[v].qubits + (qubit,)
        regions.append(QubitPatch(f"r{r}", inside))
        qubit += 1
    return FlatRegionGraph("x", qubit, regions, boundaries, pairs)


def test_parity_bound_matches_the_reference_engine(monkeypatch):
    for _ in _relax_paths(monkeypatch):
        _parity_bound_matches_the_reference_engine()


def _parity_bound_matches_the_reference_engine():
    rng = random.Random(11)
    for spins in (1, 2, 3, 5, 7, 9):
        for _ in range(6):
            graph = _random_region_graph(rng, spins)
            support = [q for q in range(graph.n) if rng.random() < 0.5]
            reps = [PauliOperator.from_support(graph.n, z=support)]
            # even parity on every boundary: target 0
            reps.append(PauliOperator.from_support(graph.n, z=graph.regions[0].qubits[-1:]))
            for rep in reps:
                got = _outcome(parity_lower_bound(graph, rep))
                assert got == _reference_parity(graph, rep)
    # a self-loop adds no bond, so it never costs anything
    loop = _random_region_graph(random.Random(0), 1)
    one = PauliOperator.from_support(loop.n, z=loop.boundaries[0].qubits[:1])
    assert _outcome(parity_lower_bound(loop, one)) == (0, ((0, "z"),), 2)


# Target vertex sets of the benchmark's certify workload, one grid of
# each dimension; each needs tens of thousands of search states.
_CERTIFY_TARGETS = {
    (2, 3, 3): (
        ((0, 0, 2), (0, 2, 0), (0, 2, 1)),
        ((0, 1, 0), (1, 0, 0), (1, 1, 0)),
        ((0, 0, 1), (1, 0, 0), (1, 2, 1)),
        ((0, 1, 0), (1, 0, 0), (1, 0, 2)),
    ),
    (4, 5): (
        ((1, 3), (2, 0), (3, 1)),
        ((1, 3), (1, 4), (2, 0)),
        ((1, 0), (2, 4), (3, 0)),
        ((1, 0), (2, 4), (3, 1)),
    ),
}


def test_parity_bound_equals_the_spin_flip_barrier_at_certify_scale():
    for dims, targets in _CERTIFY_TARGETS.items():
        graph = cubic(*dims) if len(dims) == 3 else grid2d(*dims)
        region = region_graph_from_weld_graph(graph, "x")
        index = {v: i for i, v in enumerate(graph.vertices)}
        edges = [(index[u], index[v]) for u, v in graph.edges]
        for target in targets:
            spins = sorted(index[v] for v in target)
            rep = PauliOperator.from_support(region.n, z=spins)
            bound = parity_lower_bound(region, rep).barrier
            mask = sum(1 << j for j in spins)
            assert bound == spin_flip_barrier(len(graph.vertices), edges, mask), target


def _pin(result):
    # every field of a BarrierResult: barrier, witness steps and both counts
    return hashlib.sha256(repr(result).encode()).hexdigest()[:16]


def test_certify_searches_keep_their_pinned_results():
    pins = {}
    for dims, targets in _CERTIFY_TARGETS.items():
        graph = cubic(*dims) if len(dims) == 3 else grid2d(*dims)
        region = region_graph_from_weld_graph(graph, "x")
        index = {v: i for i, v in enumerate(graph.vertices)}
        for target in targets:
            rep = PauliOperator.from_support(region.n, z=sorted(index[v] for v in target))
            pins[dims, target] = _pin(parity_lower_bound(region, rep))
    for spec in (SolidSpec(2, 2, 3), SolidSpec(3, 3, 2)):
        code = build_solid(spec)
        pins[spec] = _pin(exact_barrier(code, code.logicals[0].x_rep, "x", cap=1 << 64))
    for graph in (star(4), grid2d(2, 2)):
        code = build_welded_solid(graph, SolidSpec(2, 2, 2))
        for kind in ("x", "z"):
            report = verify_bound(code, kind, 0, cap=1 << 64)
            pins[graph.name, kind] = (_pin(report.bound), _pin(report.exact))
    assert list(pins.values()) == [
        "0c13c400b0fc4ca3",
        "5ed729da04b71489",
        "6c5c12442c4694b4",
        "37086b1e5a81e872",
        "aa8f6321d109401f",
        "58f9ddde83123e4b",
        "3554d1b6b5bc7f0b",
        "86361fd5b24248b7",
        "8829f3222c1e3bbc",
        "294c97cd0a2a2159",
        ("ccc7df348011f005", "497293aabc871943"),
        ("f1113f7443308ab5", "2820da7fd17afc87"),
        ("ccc7df348011f005", "7b760bf3a5946c0f"),
        ("ac315e95b92cf345", "4a4fb54ae20e88f4"),
    ], pins


def test_sweep_searches_keep_their_pinned_results():
    # the 30 searches of `weldkit sweep --max-size 3 --max-pieces 4`
    pins = []
    for d in range(1, 4):
        for pieces in range(1, 5):
            spec = SolidSpec(d, d, 2)
            if pieces == 1:
                code = build_solid(spec)
            else:
                code = build_welded_solid(grid2d(pieces, pieces), spec)
            logical = code.logicals[0]
            for kind, rep in (("x", logical.x_rep), ("z", logical.z_rep)):
                try:
                    pins.append(_pin(exact_barrier(code, rep, kind, SWEEP_STATE_CAP)))
                except FeasibilityError:
                    pass
                graph = flat_region_graph(code, "z" if kind == "x" else "x")
                pins.append(_pin(parity_lower_bound(graph, rep, SWEEP_STATE_CAP)))
    assert pins == [
        "14d3321885d3abd5", "788596d22b64d5dd", "36a3bc3e569ca4af", "e7e5e088d656d04e",
        "d3d9773e0c90023d", "788596d22b64d5dd", "4443ef751136c635", "67a22483518378a9",
        "788596d22b64d5dd", "2930d3c834c5082e", "788596d22b64d5dd", "ae6afe65e6a4202a",
        "ccc7df348011f005", "8211ca304fab70df", "96075bcee17eda73", "ccc7df348011f005",
        "ac315e95b92cf345", "ccc7df348011f005", "10ee352e531d6d36", "ccc7df348011f005",
        "20e671ada59aeeb1", "73f61713293c0d59", "6ea5ef52db7e81ab", "d41f7177391a7f8d",
        "73f61713293c0d59", "67fe210a1cb724e8", "73f61713293c0d59", "32840423724b83bc",
        "73f61713293c0d59", "fed73c1cef229904",
    ]


# ---------------------------------------------------------------------------
# the engine itself on arbitrary move tables


def _reference_moves(masks, flips, target):
    # every move of every pop pushed at once into one heap of
    # (peak, length, push counter); a witness step is a move index
    if target == 0:
        return 0, (), 1
    tick = count()
    best = {0: (0, 0)}
    parent = {}
    heap = [(0, 0, next(tick), 0, 0)]
    explored = 0
    while heap:
        bott, steps, _, state, syn = heapq.heappop(heap)
        if (bott, steps) > best[state]:
            continue
        explored += 1
        if state == target:
            trail = []
            while state:
                state, j = parent[state]
                trail.append((j, "x"))
            return bott, tuple(reversed(trail)), explored
        for j, (mask, flip) in enumerate(zip(masks, flips)):
            nsyn = syn ^ mask
            nstate = state ^ flip
            key = (max(bott, nsyn.bit_count()), steps + 1)
            if nstate not in best or key < best[nstate]:
                best[nstate] = key
                parent[nstate] = (state, j)
                heapq.heappush(heap, (key[0], key[1], next(tick), nstate, nsyn))
    raise AssertionError("unreachable target")


def _random_move_table(rng):
    bits = rng.randrange(1, 11)
    width = rng.randrange(2, 7)
    # unit masks and flips pile up along a walk, so the peak can pass
    # every single move's cost
    sparse = rng.random() < 0.5
    masks, flips = [], []
    for _ in range(rng.randrange(1, 11)):
        roll = rng.random()
        if roll < 0.15:
            masks.append(0)
        elif roll < 0.25 and masks:
            masks.append(rng.choice(masks))
        elif sparse:
            masks.append(1 << rng.randrange(8))
        else:
            masks.append(rng.getrandbits(bits))
        roll = rng.random()
        if roll < 0.15 and flips:
            flips.append(rng.choice(flips))  # the same flip again
        elif roll < 0.35 and len(flips) >= 2:
            first, second = rng.sample(flips, 2)
            flips.append(first ^ second)  # a flip the others already span
        elif roll < 0.4:
            flips.append(0)
        elif sparse:
            flips.append(1 << rng.randrange(width))
        else:
            flips.append(rng.randrange(1, 1 << width))
    target, tries = 0, 5 if rng.random() < 0.9 else 0
    while tries and not target:
        tries -= 1
        for flip in flips:
            if rng.random() < 0.5:
                target ^= flip
    return masks, flips, target


def test_engine_matches_a_heap_over_random_move_tables(monkeypatch):
    for _ in _relax_paths(monkeypatch):
        _engine_matches_a_heap_over_random_move_tables()


def _engine_matches_a_heap_over_random_move_tables():
    rng = random.Random(8)
    seen = dict.fromkeys(("repeat", "zero mask", "dependent", "target 0", "climb"), 0)
    for _ in range(3000):
        masks, flips, target = _random_move_table(rng)
        steps = [(j, "x") for j in range(len(masks))]
        result = _bottleneck_search(masks, flips, target, steps, "exact")
        want = _reference_moves(masks, flips, target)
        assert _outcome(result) == want, (masks, flips, target)
        assert result.states_explored <= result.states_stored
        seen["repeat"] += len(set(flips)) < len(flips)
        seen["zero mask"] += 0 in masks
        seen["dependent"] += any(
            (a ^ b) in flips for i, a in enumerate(flips) for b in flips[:i] if a and b and a != b
        )
        seen["target 0"] += target == 0
        seen["climb"] += want[0] > max(mask.bit_count() for mask in masks)
    assert min(seen.values()) >= 100, seen


def _wide_move_table(rng, width):
    # masks and flips whose highest bit is bit width - 1, so syndromes
    # and states fill one or more 64-bit words up to their last bit
    moves = rng.randrange(2, 11)
    sparse = rng.random() < 0.5

    def draw():
        if not sparse:
            return rng.getrandbits(width)
        value = 0
        for _ in range(3):
            value |= 1 << rng.randrange(width)
        return value

    masks = [draw() for _ in range(moves)]
    flips = [draw() for _ in range(moves)]
    masks[rng.randrange(moves)] |= 1 << (width - 1)
    flips[rng.randrange(moves)] |= 1 << (width - 1)
    target = 0
    for flip in flips:
        if rng.random() < 0.5:
            target ^= flip
    return masks, flips, target


@pytest.mark.parametrize("width", [63, 64, 65, 128, 129, 200, 300])
def test_engine_matches_a_heap_over_wide_move_tables(monkeypatch, width):
    for _ in _relax_paths(monkeypatch):
        rng = random.Random(width)
        for _ in range(40):
            masks, flips, target = _wide_move_table(rng, width)
            assert max(mask.bit_length() for mask in masks) == width
            assert max(flip.bit_length() for flip in flips) == width
            steps = [(j, "x") for j in range(len(masks))]
            result = _bottleneck_search(masks, flips, target, steps, "exact")
            assert _outcome(result) == _reference_moves(masks, flips, target)


def test_engine_matches_a_heap_when_a_bucket_outgrows_a_batch():
    # 12 unit flips under one shared mask: every walk of length L pays the
    # mask's weight from the first step on, so the bucket at length 6
    # holds all comb(12, 6) states of weight 6
    assert comb(12, 6) > energy._BATCH_STATES
    flips = [1 << j for j in range(12)]
    steps = [(j, "x") for j in range(12)]
    wide = (1 << 129) | 0x5555_5555_5555_5555_5555
    for mask in (0, wide):
        masks = [mask] * 12
        # every spin, then a weight-6 state deep inside its bucket
        for target in ((1 << 12) - 1, 0b1101_0010_1100):
            result = _bottleneck_search(masks, flips, target, steps, "exact")
            want = _reference_moves(masks, flips, target)
            assert _outcome(result) == want
            assert result.states_explored > comb(12, 6)


def test_a_waiting_level_relaxes_in_pop_order(monkeypatch):
    # Unit flips: a state is a set of moves and costs the weight of their
    # masks XORed.  {m0} pops at peak 2 (index 4) and waits at 3; {m2}
    # pops after it (index 5) and waits at 4.  When level 3 opens, {m0}
    # rescans and waits again at 4, so level 4's list holds {m2} ahead
    # of the older {m0}.  Both reach the target {m0, m2} at (4, 2), and
    # in pop order {m0} pushes it first and becomes its parent.
    masks, flips, target = [0b0101, 0b0010, 0b1010], [1, 2, 4], 0b101
    steps = [(j, "x") for j in range(3)]
    for _ in _relax_paths(monkeypatch):
        result = _bottleneck_search(masks, flips, target, steps, "exact")
        assert _outcome(result) == _reference_moves(masks, flips, target)
        assert result.witness.steps == ((0, "x"), (2, "x"))


def test_one_word_rows_match_the_byte_rows():
    values = (0, 1, 12345, 1 << 63, (1 << 63) | 1, (1 << 64) - 1)
    one = energy._words(values, 1)
    two = energy._words(values, 2)
    assert one.shape == (len(values), 1)
    assert one[:, 0].tolist() == two[:, 0].tolist() == list(values)
    assert not two[:, 1].any()


def test_stored_states_stay_near_the_explored_ones():
    solid = build_solid(SolidSpec(3, 3, 2))
    result = exact_barrier(solid, solid.logicals[0].x_rep, "x", cap=1 << 64)
    assert (result.barrier, result.states_explored) == (5, 11709)
    assert result.states_stored <= 3 * result.states_explored
    graph = grid2d(4, 5)
    region = region_graph_from_weld_graph(graph, "x")
    index = {v: i for i, v in enumerate(graph.vertices)}
    target = _CERTIFY_TARGETS[(4, 5)][2]
    rep = PauliOperator.from_support(region.n, z=sorted(index[v] for v in target))
    bound = parity_lower_bound(region, rep)
    assert (bound.barrier, bound.states_explored) == (8, 3043)
    assert bound.states_stored <= 3 * bound.states_explored
    assert _bottleneck_search([1], [1], 0, [(0, "x")], "exact").states_stored == 1


def test_engine_matches_the_reference_past_the_default_cap():
    code = build_solid(SolidSpec(2, 2, 3))
    rep = code.logicals[0].x_rep
    with pytest.raises(FeasibilityError):
        exact_barrier(code, rep, "x")
    result = exact_barrier(code, rep, "x", cap=1 << 64)
    assert _outcome(result) == _reference_exact(code, rep, "x")
    assert result.states_stored <= 3 * result.states_explored < DEFAULT_STATE_CAP
