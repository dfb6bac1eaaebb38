"""Every public entry point reads integers and Pauli kinds by one rule.

An integer goes through operator.index: a float or a numeric string
raises ValidationError, however close to an integer it is, a numpy
integer is taken as its value, and a value below the argument's bound
raises too.  A kind is "x" or "z"; weld and flat_region_graph also take
upper case.  The rows name the argument each entry point reads.
"""

import numpy as np
import pytest

from weldkit.builders import (
    FlatRegionGraph,
    QubitPatch,
    SolidSpec,
    SurfaceSpec,
    build_repetition,
    build_solid,
    build_two_qubit,
    cubic,
    flat_region_graph,
    grid2d,
    path,
    region_graph_from_weld_graph,
    star,
)
from weldkit.css import (
    CssCode,
    GeneratingSet,
    distance,
    fold_logical,
    permute_qubits,
    promote_to_logical,
)
from weldkit.energy import (
    PauliWalk,
    exact_barrier,
    operator_barrier,
    parity_lower_bound,
    tune_scaling,
    verify_bound,
)
from weldkit.errors import ValidationError
from weldkit.pauli import PauliOperator, parse_operator, permute_operator, restrict
from weldkit.verify import random_weld_case, run_verification
from weldkit.welding import QubitIdentification, weld, weld_oracle


class Index:
    """An integer only through __index__, as operator.index reads it."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


REPETITION = build_repetition(3)
SOLID = build_solid(SolidSpec(1, 1, 2))
SOLID_GRAPH = flat_region_graph(SOLID, "z")
PROMOTABLE = CssCode(GeneratingSet(3, [[1, 1, 0], [0, 1, 1], [1, 0, 1]], [[1, 1, 1]]))
BOUNDARIES = tuple(QubitPatch(f"b{q}", (q,)) for q in range(2))
REGIONS = (QubitPatch("r0", (0, 1)),)

# (entry point and argument, call with the argument, a good value, its bound or None)
INTEGERS = [
    ("path-n", lambda v: path(v), 3, 1),
    ("star-leaves", lambda v: star(v), 2, 1),
    ("grid2d-b", lambda v: grid2d(2, v), 2, 1),
    ("cubic-c", lambda v: cubic(2, 2, v), 2, 1),
    ("SurfaceSpec-height", lambda v: SurfaceSpec(2, v), 2, 1),
    ("SolidSpec-dz", lambda v: SolidSpec(1, 1, v), 2, 1),
    ("build_repetition-length", lambda v: build_repetition(v), 3, 2),
    ("QubitPatch-qubits", lambda v: QubitPatch("a", (0, v)), 1, None),
    ("FlatRegionGraph-incidence", lambda v: FlatRegionGraph("x", 2, REGIONS, BOUNDARIES, ((0, v),)), 1, 0),
    ("PauliWalk-qubit", lambda v: PauliWalk(((0, "x"), (v, "z"))), 1, 0),
    ("QubitIdentification-pairs", lambda v: QubitIdentification(((v, 0),)), 1, None),
    ("weld-ident", lambda v: weld(build_two_qubit(), build_two_qubit(), [(v, 0)], "z"), 1, 0),
    ("weld_oracle-ident", lambda v: weld_oracle(build_two_qubit(), build_two_qubit(), [(0, v)], "z"), 1, 0),
    ("PauliOperator-n", lambda v: PauliOperator(v, [0] * 2, [0] * 2), 2, 0),
    ("from_support-n", lambda v: PauliOperator.from_support(v), 2, 0),
    ("from_support-qubit", lambda v: PauliOperator.from_support(3, x=(v,)), 1, 0),
    ("identity-n", lambda v: PauliOperator.identity(v), 2, 0),
    ("GeneratingSet-n", lambda v: GeneratingSet(v, [[1, 1]], []), 2, 0),
    ("restrict-support", lambda v: restrict(parse_operator("XYZ"), [v]), 1, 0),
    ("permute_operator-perm", lambda v: permute_operator(parse_operator("XYZ"), [v, 0, 2]), 1, 0),
    ("permute_qubits-perm", lambda v: permute_qubits(REPETITION, [v, 0, 2]), 1, 0),
    ("promote_to_logical-index", lambda v: promote_to_logical(PROMOTABLE, "z", v), 0, 0),
    ("fold_logical-class_index", lambda v: fold_logical(REPETITION, v, "z"), 0, 0),
    ("verify_bound-class_index", lambda v: verify_bound(SOLID, "z", v), 0, 0),
    ("distance-rank_cap", lambda v: distance(REPETITION, rank_cap=v), 24, 1),
    ("exact_barrier-cap", lambda v: exact_barrier(SOLID, SOLID.logicals[0].z_rep, "z", v), 64, 1),
    ("operator_barrier-cap", lambda v: operator_barrier(REPETITION, REPETITION.logicals[0].z_rep, v), 64, 1),
    ("parity_lower_bound-cap", lambda v: parity_lower_bound(SOLID_GRAPH, SOLID.logicals[0].x_rep, v), 64, 1),
    ("tune_scaling-side_length", lambda v: tune_scaling(side_length=v), 10, 1),
    ("tune_scaling-qubit_budget", lambda v: tune_scaling(qubit_budget=v), 1000, 1),
    ("random_weld_case-max_side", lambda v: random_weld_case(np.random.default_rng(0), v), 6, 4),
    ("run_verification-seed", lambda v: run_verification(seed=v, rounds=1), 3, 0),
    ("run_verification-rounds", lambda v: run_verification(rounds=v), 1, 0),
    ("run_verification-max_side", lambda v: run_verification(rounds=0, max_side=v), 6, 4),
]


@pytest.mark.parametrize("call, good, least", [row[1:] for row in INTEGERS], ids=[row[0] for row in INTEGERS])
def test_integer_arguments_are_read_through_operator_index(call, good, least):
    for bad in (good + 0.5, float(good), str(good), None):
        with pytest.raises(ValidationError):
            call(bad)
    if least is not None:
        with pytest.raises(ValidationError):
            call(least - 1)
    call(np.int64(good))
    call(np.int32(good))
    call(Index(good))


KINDS = [
    ("GeneratingSet.columns", lambda k: REPETITION.gens.columns(k), False),
    ("promote_to_logical", lambda k: promote_to_logical(PROMOTABLE, k, 0), False),
    ("fold_logical", lambda k: fold_logical(REPETITION, 0, k), False),
    ("exact_barrier", lambda k: exact_barrier(REPETITION, REPETITION.logicals[0].z_rep, k), False),
    ("verify_bound", lambda k: verify_bound(SOLID, k), False),
    ("PauliWalk", lambda k: PauliWalk(((0, k),)), False),
    ("FlatRegionGraph", lambda k: FlatRegionGraph(k, 2, REGIONS, BOUNDARIES, ((0, 1),)), False),
    ("region_graph_from_weld_graph", lambda k: region_graph_from_weld_graph(path(2), k), False),
    ("flat_region_graph", lambda k: flat_region_graph(SOLID, k), True),
    ("weld", lambda k: weld(build_two_qubit(), build_two_qubit(), [(1, 0)], k), True),
    ("weld_oracle", lambda k: weld_oracle(build_two_qubit(), build_two_qubit(), [(1, 0)], k), True),
]


@pytest.mark.parametrize("call, upper", [row[1:] for row in KINDS], ids=[row[0] for row in KINDS])
def test_kinds_are_x_or_z(call, upper):
    for bad in ("y", "", "xz", 1, None):
        with pytest.raises(ValidationError):
            call(bad)
    # the one kind that every row accepts: the repetition code's logical is z-type
    call("z")
    if upper:
        call("Z")
    else:
        with pytest.raises(ValidationError):
            call("Z")


@pytest.mark.parametrize(
    "call",
    [
        lambda: weld(build_two_qubit(), build_two_qubit(), [(1, 0, 2)], "z"),
        lambda: weld(build_two_qubit(), build_two_qubit(), [5], "z"),
        lambda: QubitIdentification(((1,),)),
        lambda: PauliWalk(((0, "x", 1),)),
        lambda: PauliWalk((3,)),
    ],
    ids=["weld-triple", "weld-bare-int", "ident-single", "walk-triple", "walk-bare-int"],
)
def test_entries_that_are_not_pairs_raise_validation_error(call):
    with pytest.raises(ValidationError, match="must be pairs"):
        call()


def test_fold_logical_slices_with_the_coerced_index():
    code = CssCode(GeneratingSet(2, [[1, 0], [0, 1]], []))
    once = promote_to_logical(code, "x", 0, parse_operator("ZI"))
    twice = promote_to_logical(once, "x", 0, parse_operator("IZ"))
    for index in (0, 1):
        folded = fold_logical(twice, Index(index), "x")
        assert folded.logicals == twice.logicals[:index] + twice.logicals[index + 1 :]
        assert folded.gens.x_packed == twice.gens.x_packed + (twice.logicals[index].x_rep.x,)
        assert fold_logical(twice, np.int64(index), "x").logicals == folded.logicals
