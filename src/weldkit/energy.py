"""Energy barriers over stabilizer groups.

An error configuration costs the number of stored generators it
violates.  A walk flips one qubit at a time, and its barrier is the
highest cost it ever pays.  The exact minimum over all walks comes
from a bottleneck search on syndrome cosets; flat-region metadata
yields a parity lower bound cheap enough to check against the exact
number on desk-sized instances.  tune_scaling picks welded-solid
dimensions that trade barrier height against qubit count.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, repeat

import numpy as np

from . import gf2
from .builders import (
    FlatRegionGraph,
    SolidSpec,
    WeldGraph,
    _sizes,
    build_solid,
    build_welded_solid,
    flat_region_graph,
)
from .css import CssCode, _cap, _logical, syndrome
from .errors import FeasibilityError, MetadataError, ValidationError
from .pauli import PauliOperator

__all__ = [
    "DEFAULT_STATE_CAP",
    "PauliWalk",
    "BarrierResult",
    "BoundReport",
    "WeldInvarianceReport",
    "ScalingPlan",
    "walk_barrier",
    "exact_barrier",
    "operator_barrier",
    "parity_lower_bound",
    "verify_bound",
    "barrier_unchanged_by_rough_welds",
    "barrier_exponents",
    "tune_scaling",
]

# Bottleneck searches refuse to enumerate more states than this.
DEFAULT_STATE_CAP = 1 << 22

# The search engine prices a batch's moves in numpy, _BATCH_STATES states
# at a time; a batch of fewer than _NUMPY_MIN_CELLS (state, move) pairs
# relaxes state by state instead (see _bottleneck_search).
_BATCH_STATES = 256
_NUMPY_MIN_CELLS = 512


@dataclass(frozen=True)
class PauliWalk:
    """A sequence of single-qubit flips, each a (qubit, kind) pair."""

    steps: tuple[tuple[int, str], ...]

    def __post_init__(self):
        try:
            steps = tuple((operator.index(q), str(kind)) for q, kind in self.steps)
        except TypeError:
            raise ValidationError(f"walk qubits must be integers: {self.steps!r}") from None
        for q, kind in steps:
            if q < 0:
                raise ValidationError(f"negative qubit {q} in walk")
            if kind not in ("x", "z"):
                raise ValidationError(f"walk step kind must be 'x' or 'z', got {kind!r}")
        object.__setattr__(self, "steps", steps)

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class BarrierResult:
    method: str  # "exact" or "parity_bound"
    barrier: int
    witness: PauliWalk
    states_explored: int
    states_stored: int  # states holding a best key when the search returned


@dataclass(frozen=True)
class BoundReport:
    """A parity bound next to the exact barrier it underestimates."""

    bound: BarrierResult
    exact: BarrierResult
    ok: bool
    saturated: bool

    @property
    def witness(self) -> PauliWalk:
        return self.exact.witness


@dataclass(frozen=True)
class WeldInvarianceReport:
    welded: BarrierResult
    single: BarrierResult
    unchanged: bool


def walk_barrier(code: CssCode, walk: PauliWalk) -> int:
    """Peak violation count along a walk, measured after every step.

    Costs are counted against the stored generating set, so redundant
    rows are deliberately counted once each.
    """
    # vx[q] toggles the violation bits of every stored x row hitting q
    vx = code.gens.columns("x")
    vz = code.gens.columns("z")
    sx = sz = 0
    peak = 0
    for q, kind in walk.steps:
        if q >= code.n:
            raise ValidationError(f"walk step on qubit {q} of a {code.n}-qubit code")
        if kind == "z":
            sx ^= vx[q]
        else:
            sz ^= vz[q]
        cost = sx.bit_count() + sz.bit_count()
        if cost > peak:
            peak = cost
    return peak


def _words(values, width):
    # one row of width little-endian 64-bit words per int
    if width == 1:
        return np.array(values, dtype=np.uint64).reshape(len(values), 1)
    data = b"".join([v.to_bytes(8 * width, "little") for v in values])
    return np.frombuffer(data, dtype="<u8").reshape(len(values), width)


def _bottleneck_search(masks, flips, target, steps, method):
    """Lexicographic Dijkstra on (peak cost, length) over search states.

    Move j toggles the syndrome bits masks[j], XORs flips[j] into the
    state and records the walk step steps[j].  Moves run in ascending
    order, so witnesses are deterministic; a state's cost is the
    popcount of the syndrome that rides along with it.

    The queue is a bucket queue (Dial, CACM 1969): (peak, length) packs
    into one int key, each key holds a FIFO bucket of (state, syndrome)
    and a heap holds each pending key once.  A move out of a bucket adds
    one to the length, so it lands in a strictly larger key and a bucket
    never grows while it drains; states therefore pop in (peak, length,
    push order), the order of a heap with a tie-breaking counter.

    Only states the current peak level can reach are stored.  A state
    popped at level P relaxes its moves of cost at most P; its dearer
    moves wait under their smallest cost, in that cost level's list of
    (pop index, state, syndrome).  When level P drains, the least
    waiting level P' opens: its list, sorted by pop index, rescans, its
    states apply just their moves of cost P' and wait again under their
    next dearer cost, in a higher level's list.  Every such candidate
    was known before level P' opened, in parent pop order and then move
    order, so each state keeps the same earliest push of its smallest
    key as if every move had been pushed at once.  Pop indices are
    unique, so the sort gives the order of a heap on (cost, pop index):
    a list can hold fresher states ahead of older ones that a rescan at
    a lower level sent on.

    States relax in batches: one popped bucket, or one rescan group.
    numpy prices every (state, move) pair of a batch at once, and a
    Python loop applies, in (state, move) order, just the moves that
    fit, so pushes come in the order a per-state loop makes them:
      - every push made while bucket K drains lands at key K + 1, so no
        live state of K changes while K drains, and the whole bucket's
        staleness is known before it relaxes;
      - if the target is live at position p of its bucket, only the p
        states before it relax, and the counts returned are those a
        per-state loop stops at;
      - each member of a rescan group waits again above the level, so
        it never rejoins the group.
    A batch prices at most _BATCH_STATES states at a time, bounding its
    arrays.  A batch of fewer than _NUMPY_MIN_CELLS (state, move) pairs
    relaxes state by state through the same entry, relax_batch: the
    dozen numpy calls of a batch cost more than the plain loop below
    about 300 pairs, and most of a sweep's batches are that small.
    """
    if target == 0:
        return BarrierResult(method, 0, PauliWalk(()), 1, 1)
    moves = tuple(enumerate(zip(masks, flips)))
    # states lie in the span of the flips, at most 2^k of them for k
    # bits set across all flips; a stored walk is simple, so every length
    # pushed is at most 2^k and fits in k + 1 low bits
    span = bits = 0
    for flip in flips:
        span |= flip
    for mask in masks:
        bits |= mask
    shift = span.bit_count() + 1
    length_mask = (1 << shift) - 1
    # no cost reaches this, so a relax that returns it left nothing waiting
    ceiling = bits.bit_count() + 1
    width = max(1, -(-bits.bit_length() // 64))
    mask_words = None  # made by the first batch priced in numpy
    cost_type = np.min_scalar_type(ceiling)
    # state -> (key, previous state, move)
    best = {0: (0, 0, -1)}
    buckets = {0: [(0, 0)]}
    keys = [0]
    # smallest cost above the level it was left at -> [(pop index, state, syndrome)]
    waiting = {}

    def relax(state, syn, low, level, index):
        # apply the moves costing low..level, one step past the state's
        # stored walk; wait under index at the least dearer cost
        nkey = (level << shift) | ((best[state][0] & length_mask) + 1)
        above = ceiling
        for j, (mask, flip) in moves:
            nsyn = syn ^ mask
            cost = nsyn.bit_count()
            if cost > level:
                if cost < above:
                    above = cost
            elif cost >= low:
                nstate = state ^ flip
                old = best.get(nstate)
                if old is None or nkey < old[0]:
                    best[nstate] = (nkey, state, j)
                    bucket = buckets.get(nkey)
                    if bucket is None:
                        buckets[nkey] = [(nstate, nsyn)]
                        heapq.heappush(keys, nkey)
                    else:
                        bucket.append((nstate, nsyn))
        if above < ceiling:
            later = waiting.get(above)
            if later is None:
                waiting[above] = [(index, state, syn)]
            else:
                later.append((index, state, syn))

    def relax_batch(batch, indices, low, level, key=None):
        # relax (state, syndrome) pairs in order, the i-th waiting under
        # the i-th index; a popped bucket passes its key, and every move
        # out of it lands at key + 1
        nonlocal mask_words
        if len(batch) * len(moves) < _NUMPY_MIN_CELLS:
            for (state, syn), index in zip(batch, indices):
                relax(state, syn, low, level, index)
            return
        if mask_words is None:
            mask_words = _words(masks, width)
        indices = iter(indices)
        for start in range(0, len(batch), _BATCH_STATES):
            states, syns = zip(*batch[start : start + _BATCH_STATES])
            cost = np.bitwise_count(_words(syns, width)[:, None, :] ^ mask_words)
            cost = cost.sum(axis=2, dtype=cost_type)
            dear = cost > level
            aboves = np.where(dear, cost, ceiling).min(axis=1).tolist()
            for state, syn, above, index in zip(states, syns, aboves, indices):
                if above < ceiling:
                    later = waiting.get(above)
                    if later is None:
                        waiting[above] = [(index, state, syn)]
                    else:
                        later.append((index, state, syn))
            fits = (cost >= low) & ~dear if low else ~dear
            rows, cols = (axis.tolist() for axis in np.nonzero(fits))
            if key is None:
                base = level << shift
                nkeys = [base | ((best[state][0] & length_mask) + 1) for state in states]
                nkeys = map(nkeys.__getitem__, rows)
            else:
                nkeys = repeat(key + 1)
            for i, j, nkey in zip(rows, cols, nkeys):
                state = states[i]
                nstate = state ^ flips[j]
                old = best.get(nstate)
                if old is None or nkey < old[0]:
                    best[nstate] = (nkey, state, j)
                    nsyn = syns[i] ^ masks[j]
                    bucket = buckets.get(nkey)
                    if bucket is None:
                        buckets[nkey] = [(nstate, nsyn)]
                        heapq.heappush(keys, nkey)
                    else:
                        bucket.append((nstate, nsyn))

    explored = 0
    while True:
        while keys:
            key = heapq.heappop(keys)
            peak = key >> shift
            live = [entry for entry in buckets.pop(key) if best[entry[0]][0] == key]
            if best.get(target, (None,))[0] == key:
                # the target pops in this bucket: stop where it does
                found = [state for state, _ in live].index(target)
                relax_batch(live[:found], count(explored + 1), 0, peak, key)
                trail = []
                state = target
                while state:
                    _, state, j = best[state]
                    trail.append(steps[j])
                walk = PauliWalk(tuple(reversed(trail)))
                return BarrierResult(method, peak, walk, explored + found + 1, len(best))
            relax_batch(live, count(explored + 1), 0, peak, key)
            explored += len(live)
        if not waiting:
            raise AssertionError("flip space is connected, target must be reachable")
        peak = min(waiting)
        group = waiting.pop(peak)
        group.sort()
        indices = [index for index, _, _ in group]
        group = [(state, syn) for _, state, syn in group]
        relax_batch(group, indices, peak, peak)


def exact_barrier(
    code: CssCode, rep: PauliOperator, kind: str, cap: int = DEFAULT_STATE_CAP
) -> BarrierResult:
    """Least possible peak cost over walks from the identity to rep.

    Two errors differing by a stabilizer are the same state, so the
    search runs over cosets of the same-type rows; the witness ends on
    some representative of rep's class, not necessarily rep itself.
    Raises FeasibilityError when the coset space outgrows cap.
    """
    cap = _cap(cap, "state cap")
    if kind not in ("x", "z"):
        raise ValidationError(f"kind must be 'x' or 'z', got {kind!r}")
    if rep.n != code.n:
        raise ValidationError(f"operator is on {rep.n} qubits, code has {code.n}")
    if not (rep.is_z_type if kind == "z" else rep.is_x_type):
        raise ValidationError(f"representative must be a pure {kind}-type operator")
    if syndrome(code, rep).count:
        raise ValidationError("representative violates the group")
    same = code.gens.z_packed if kind == "z" else code.gens.x_packed
    opp = "x" if kind == "z" else "z"
    basis = gf2._echelon(same)
    free = code.n - len(basis)
    if (1 << free) > cap:
        raise FeasibilityError(
            "coset space exceeds the state cap", required=1 << free, cap=cap
        )
    # a state is the member of its coset with no pivot bits; that map is
    # linear, so one flip moves a state by the flip's own image
    target = gf2._residual(basis, rep.z if kind == "z" else rep.x)
    if target == 0:
        raise ValidationError("representative is a stabilizer, not a logical")
    flips = [gf2._residual(basis, 1 << q) for q in range(code.n)]
    steps = [(q, kind) for q in range(code.n)]
    return _bottleneck_search(code.gens.columns(opp), flips, target, steps, "exact")


def operator_barrier(
    code: CssCode, op: PauliOperator, cap: int = DEFAULT_STATE_CAP
) -> BarrierResult:
    """Least peak cost over walks ending exactly on op.

    No quotient by stabilizers: the raw flip space has 2^n states, so
    this is for cross-checks on small codes.  op may violate the
    group; the endpoint's own cost then counts toward the peak.
    """
    cap = _cap(cap, "state cap")
    if op.n != code.n:
        raise ValidationError(f"operator is on {op.n} qubits, code has {code.n}")
    if op.is_z_type:
        kind, target, opp = "z", op.z, "x"
    elif op.is_x_type:
        kind, target, opp = "x", op.x, "z"
    else:
        raise ValidationError("operator must be pure x-type or pure z-type")
    if (1 << code.n) > cap:
        raise FeasibilityError(
            "flip space exceeds the state cap", required=1 << code.n, cap=cap
        )
    flips = [1 << q for q in range(code.n)]
    steps = [(q, kind) for q in range(code.n)]
    return _bottleneck_search(code.gens.columns(opp), flips, target, steps, "exact")


def parity_lower_bound(
    region_graph: FlatRegionGraph, rep: PauliOperator, cap: int = DEFAULT_STATE_CAP
) -> BarrierResult:
    """Barrier lower bound from boundary-crossing parities alone.

    Whenever the error's parities on a region's two boundaries
    disagree, a violated generator sits inside that region, so no walk
    beats the bottleneck over boundary-flip orderings.  The search
    state is one spin per boundary; any qubit flip toggles at most one
    spin because boundaries are disjoint.
    """
    cap = _cap(cap, "state cap")
    kind = "z" if region_graph.particle_type == "x" else "x"
    if rep.n != region_graph.n:
        raise ValidationError(
            f"operator is on {rep.n} qubits, region graph covers {region_graph.n}"
        )
    if not (rep.is_z_type if kind == "z" else rep.is_x_type):
        raise ValidationError(
            f"a flat-{region_graph.particle_type} graph bounds {kind}-type logicals"
        )
    support = set(rep.z_support() if kind == "z" else rep.x_support())
    spins = len(region_graph.boundaries)
    if (1 << spins) > cap:
        raise FeasibilityError(
            "spin space exceeds the state cap", required=1 << spins, cap=cap
        )
    target = 0
    for j, boundary in enumerate(region_graph.boundaries):
        if len(support.intersection(boundary.qubits)) & 1:
            target |= 1 << j
    # masks[j] has one bit per bond at spin j; a popcount counts frustrated bonds
    masks = [0] * spins
    bond = 0
    for patch, incident in zip(region_graph.regions, region_graph.incidence):
        if len(incident) != 2:
            raise MetadataError(
                f"parity bound needs two boundaries per region, "
                f"{patch.label!r} touches {len(incident)}"
            )
        if incident[0] != incident[1]:
            masks[incident[0]] |= 1 << bond
            masks[incident[1]] |= 1 << bond
            bond += 1
    flips = [1 << j for j in range(spins)]
    steps = [(min(b.qubits), kind) for b in region_graph.boundaries]
    return _bottleneck_search(masks, flips, target, steps, "parity_bound")


def verify_bound(
    code: CssCode, kind: str, class_index: int = 0, cap: int = DEFAULT_STATE_CAP
) -> BoundReport:
    """Check the parity bound against the exact barrier for one logical.

    A kind-z walk pays in violated x-type generators, so the bound
    comes from the flat graph of the opposite particle type.
    """
    if kind not in ("x", "z"):
        raise ValidationError(f"kind must be 'x' or 'z', got {kind!r}")
    logical = _logical(code, class_index)
    rep = logical.z_rep if kind == "z" else logical.x_rep
    graph = flat_region_graph(code, "x" if kind == "z" else "z")
    bound = parity_lower_bound(graph, rep, cap)
    exact = exact_barrier(code, rep, kind, cap)
    return BoundReport(
        bound,
        exact,
        bound.barrier <= exact.barrier,
        bound.barrier == exact.barrier,
    )


def barrier_unchanged_by_rough_welds(
    graph: WeldGraph, spec: SolidSpec, cap: int = DEFAULT_STATE_CAP
) -> WeldInvarianceReport:
    """Compare the welded membrane barrier with the single-solid value.

    Rough welds raise the bar for the merged string only; the membrane
    of the assembly should climb exactly as high as it does in one
    piece.
    """
    welded = build_welded_solid(graph, spec)
    single = build_solid(spec)
    welded_result = exact_barrier(welded, welded.logicals[0].x_rep, "x", cap)
    single_result = exact_barrier(single, single.logicals[0].x_rep, "x", cap)
    return WeldInvarianceReport(
        welded_result, single_result, welded_result.barrier == single_result.barrier
    )


# ---------------------------------------------------------------------------
# scaling


@dataclass(frozen=True)
class ScalingPlan:
    """Welded-solid dimensions picked for the best barrier.

    piece_size is the side of one cubic piece, pieces_per_axis the
    count of pieces along each axis of the weld graph.  The barrier
    grows like the smaller of piece distance and squared piece count,
    which balances at pieces_per_axis ~ sqrt(piece_size); alpha
    records that design exponent.
    """

    alpha: Fraction
    piece_size: int
    pieces_per_axis: int
    qubits: int
    predicted_barrier: int
    predicted_distance: int
    barrier_qubit_exponent: Fraction
    barrier_length_exponent: Fraction
    distance_length_exponent: Fraction


def barrier_exponents(alpha) -> tuple[Fraction, Fraction]:
    """Barrier growth exponents against qubit count and linear size.

    With piece size d and d^(1/alpha) pieces per axis, total qubits
    grow like d^(3(1+1/alpha)) and linear size like d^(1+1/alpha), so
    a barrier of order d gives the exponents returned here.
    """
    a = Fraction(alpha)
    if a <= 0:
        raise ValidationError("alpha must be positive")
    return a / (3 * (1 + a)), a / (1 + a)


def _distance_length_exponent(alpha: Fraction) -> Fraction:
    # distance ~ min(d^2, d R^3) with R ~ d^(1/alpha)
    return min(2 * alpha, alpha + 3) / (1 + alpha)


def tune_scaling(side_length=None, qubit_budget=None) -> ScalingPlan:
    """Pick piece size and piece count under one resource limit.

    Give either side_length (piece size times pieces per axis) or
    qubit_budget (their cubes multiplied).  Maximizes the predicted
    barrier min(d, R^2); ties prefer fewer qubits, then fewer pieces.
    """
    if (side_length is None) == (qubit_budget is None):
        raise ValidationError("give exactly one of side_length or qubit_budget")
    candidates = []
    if qubit_budget is not None:
        (budget,) = _sizes((qubit_budget,), "qubit_budget")
        if budget < 1:
            raise ValidationError("qubit_budget must be at least 1")
        pieces = 1
        while pieces**3 <= budget:
            room = budget // pieces**3
            size = max(1, round(room ** (1 / 3)))
            while size**3 > room:
                size -= 1
            while (size + 1) ** 3 <= room:
                size += 1
            if size >= 1:
                candidates.append((size, pieces))
            pieces += 1
    else:
        (length,) = _sizes((side_length,), "side_length")
        if length < 1:
            raise ValidationError("side_length must be at least 1")
        for pieces in range(1, length + 1):
            size = length // pieces
            if size < 1:
                break
            candidates.append((size, pieces))

    def rating(cand):
        size, pieces = cand
        return (min(size, pieces * pieces), -(size**3 * pieces**3), -pieces)

    size, pieces = max(candidates, key=rating)
    alpha = Fraction(2)
    qubit_exp, length_exp = barrier_exponents(alpha)
    return ScalingPlan(
        alpha=alpha,
        piece_size=size,
        pieces_per_axis=pieces,
        qubits=size**3 * pieces**3,
        predicted_barrier=min(size, pieces * pieces),
        predicted_distance=min(size * size, size * pieces**3),
        barrier_qubit_exponent=qubit_exp,
        barrier_length_exponent=length_exp,
        distance_length_exponent=_distance_length_exponent(alpha),
    )
