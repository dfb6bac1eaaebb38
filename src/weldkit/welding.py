"""Welding two CSS codes along identified qubits.

A weld contracts chosen qubit pairs between two codes into single
qubits, then rebuilds a generating set on the smaller register: the
opposite-type generators of both codes carry over unchanged, weld-type
generators that avoid the shared qubits carry over individually, and
weld-type generators that touch the shared qubits are combined in
matched pairs, one from each side.  Two precondition checks make the
pairing sound; weld runs both and raises WeldError with a witness.  A
kernel-based construction of the same group serves as an independent
ground truth in tests.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections.abc import Iterator
from dataclasses import dataclass

from . import gf2
from .css import CssCode, GeneratingSet, _row_operator, encoded_qubits, validate_or_raise
from .errors import ValidationError, WeldError, _integers, _kind
from .pauli import PauliOperator, format_operator


@dataclass(frozen=True)
class QubitIdentification:
    """Pairs (qubit of code 1, qubit of code 2) to contract.

    Components are integers, never truncated from floats or parsed from
    strings, and distinct within each side, so a qubit is glued at most
    once.  Range checks happen at contraction time, when both register
    sizes are known.
    """

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        try:
            pairs = [(a, b) for a, b in self.pairs]
        except (TypeError, ValueError):  # an entry that is not a pair
            raise ValidationError(f"identified qubits must be pairs, got {self.pairs!r}") from None
        firsts = _integers([a for a, _ in pairs], "identified qubits")
        seconds = _integers([b for _, b in pairs], "identified qubits")
        object.__setattr__(self, "pairs", tuple(zip(firsts, seconds)))
        if len(set(firsts)) != len(firsts):
            raise ValidationError("a code-1 qubit appears in two identification pairs")
        if len(set(seconds)) != len(seconds):
            raise ValidationError("a code-2 qubit appears in two identification pairs")

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def swapped(self) -> "QubitIdentification":
        """The same pairing read from code 2's point of view."""
        return QubitIdentification(tuple((b, a) for a, b in self.pairs))


def as_identification(ident) -> QubitIdentification:
    if isinstance(ident, QubitIdentification):
        return ident
    return QubitIdentification(ident)


def parse_identification(text: str) -> QubitIdentification:
    """Read an identification from lines "i j"; "#" starts a comment."""
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ValidationError(
                f"identification line {lineno}: expected two indices, got {line!r}"
            )
        try:
            pairs.append((int(tokens[0]), int(tokens[1])))
        except ValueError as exc:
            raise ValidationError(
                f"identification line {lineno}: bad integer in {line!r}"
            ) from exc
    return QubitIdentification(tuple(pairs))


@dataclass(frozen=True)
class WeldLayout:
    """Placement of both codes on the contracted register.

    Code-1 qubits keep their indices and unshared code-2 qubits are
    appended in code-2 order, so layouts are deterministic and
    round-trippable.  Code 1's embedding is the identity, so only code
    2's is stored; the two agree exactly on the identified pairs.
    """

    n: int
    embed2: tuple[int, ...]
    shared: tuple[int, ...]

    @property
    def mask(self) -> int:
        """The shared qubits as an int row, bit q = qubit q."""
        return sum(1 << q for q in self.shared)  # the qubits are distinct


def _layout(n1: int, n2: int, ident) -> WeldLayout:
    pair_map: dict[int, int] = {}
    for a, b in as_identification(ident):
        if not 0 <= a < n1:
            raise ValidationError(
                f"identification names qubit {a} of code 1, which has {n1} qubits"
            )
        if not 0 <= b < n2:
            raise ValidationError(
                f"identification names qubit {b} of code 2, which has {n2} qubits"
            )
        pair_map[b] = a
    n = n1 + n2 - len(pair_map)
    fresh = iter(range(n1, n))
    embed2 = tuple([pair_map[j] if j in pair_map else next(fresh) for j in range(n2)])
    return WeldLayout(n, embed2, tuple(pair_map.values()))


def contract(
    code1, code2, ident
) -> tuple[WeldLayout, GeneratingSet, GeneratingSet]:
    """Lay both codes out on one register, gluing the identified pairs.

    Returns the layout plus both generating sets re-expressed on the
    contracted register; each group is unchanged up to relabeling.
    """
    gens1 = code1.gens if isinstance(code1, CssCode) else code1
    gens2 = code2.gens if isinstance(code2, CssCode) else code2
    layout = _layout(gens1.n, gens2.n, ident)
    embed = layout.embed2
    set2 = GeneratingSet._packed(
        layout.n, gf2._relabel(gens2.x_packed, embed), gf2._relabel(gens2.z_packed, embed)
    )
    # code-1 qubits keep their indices, so its rows carry over as they are
    return layout, gens1._widened(layout.n), set2


def _typed_rows(gens: GeneratingSet, kind: str) -> tuple[int, ...]:
    return gens.z_packed if kind == "z" else gens.x_packed


def _format_row(row: int, kind: str, n: int) -> str:
    return format_operator(_row_operator(n, kind, row))


def _require_seam(sides, mask: int, kind: str, n: int):
    """Raise WeldError unless the weld-type rows are well matched and independent.

    sides holds each side's seam, {position: row} for its weld-type rows
    that meet mask, in block order; witnesses name rows by key.  Returns
    each side's map from a restriction to its first key, for the pairing.
    Well matched: every restriction of one side is one of the other
    side's; the witness names the first row without a partner.
    Independent: no product of a side's touching rows avoids the weld
    without vanishing, a rank comparison of their restrictions against
    the full rows; the witness lists such a subset, shrunk greedily, best
    effort.  Neither check depends on the order of a side's rows, only
    the witnesses do.
    """
    firsts = [{row & mask: i for i, row in reversed(seam.items())} for seam in sides]
    for side, seam in enumerate(sides, start=1):
        partners = firsts[2 - side]
        for i, row in seam.items():
            if row & mask not in partners:
                witness = {
                    "side": side,
                    "index": i,
                    "generator": _format_row(row, kind, n),
                    "shared_restriction": _format_row(row & mask, kind, n),
                }
                raise WeldError(
                    "well_matched", witness, f"unmatched weld-touching generator: {witness}"
                )
    for side, seam in enumerate(sides, start=1):
        hits = list(seam.values())
        # rank(restrictions) <= rank(hits) <= len(hits), so a full
        # restriction rank settles it without the wide rows
        rank = len(gf2._echelon([row & mask for row in hits]))
        if rank == len(hits) or rank == len(gf2._echelon(hits)):
            continue
        chosen = gf2._vanishing_subset(hits, mask, n)
        product = functools.reduce(operator.xor, (hits[j] for j in chosen))
        keys = list(seam)
        witness = {
            "subset": tuple(keys[j] for j in chosen),
            "product": _format_row(product, kind, n),
        }
        raise WeldError(
            "weld_independence",
            witness,
            f"code {side} generators multiply to identity on the weld: {witness}",
        )
    return firsts


@dataclass(eq=False)
class _Indexed:
    """A code being welded onto: packed rows, bit q = qubit q, under handles.

    other holds the rows of the type opposite kind, in order.  rows maps
    a handle to each kind-type row, in block order: a dict keeps that
    order when rows are deleted and appended.  Handles start as block
    positions and are drawn from handles, never reused, so a caller
    that keeps handles across welds knows a row is gone exactly when
    its handle has left rows.
    """

    kind: str
    n: int
    other: list
    rows: dict
    handles: Iterator[int]

    @classmethod
    def of(cls, gens: GeneratingSet, kind: str) -> "_Indexed":
        rows = _typed_rows(gens, kind)
        other = list(_typed_rows(gens, "x" if kind == "z" else "z"))
        return cls(kind, gens.n, other, dict(enumerate(rows)), itertools.count(len(rows)))

    def gens(self) -> GeneratingSet:
        rows = list(self.rows.values())
        x, z = (self.other, rows) if self.kind == "z" else (rows, self.other)
        return GeneratingSet._packed(self.n, x, z)


def _weld_core(asm: _Indexed, gens2: GeneratingSet, ident, at_seam=None):
    """Weld gens2 onto asm in place, at the cost of gens2 plus the seam.

    asm becomes the output: the opposite-type rows of code 1 then code 2,
    and the weld-type rows that avoid the weld, code 1's then code 2's,
    then one a ^ b ^ (a & mask) per matched pair (a, b), ordered as the
    restrictions' 0/1 arrays compare as bytes.  Returns the layout, the
    seam (untouched2, matched) those last rows came from, and the rows
    added to asm.rows, by handle.  contract keeps code-1 qubits and
    appends code 2's unshared ones, so only gens2's rows are relabelled,
    at a cost of their weight.

    at_seam, {handle: row} for every row of asm meeting the mask, is
    code 1's seam; without it (a single weld) one scan of the block finds
    it, keyed by position.  A passed seam that fails is checked again on
    the whole block, so that the witness names rows by position.  A
    welded row keeps a's handle and a's restriction to the weld.

    With both checks passed, two rows of one side share a restriction
    only if they are equal (their product would avoid the weld), so a
    repeated row is welded once.  The output needs no check: this weld
    equals weld_oracle, whose output is the full commutant of the adopted
    block, so k=0 inputs give a valid k=0 output.
    """
    layout = _layout(asm.n, gens2.n, ident)
    n, mask, kind, embed, rows = layout.n, layout.mask, asm.kind, layout.embed2, asm.rows
    passed = at_seam is not None
    if not passed:
        at_seam = {h: row for h, row in rows.items() if row & mask}
    rows2 = gf2._relabel(_typed_rows(gens2, kind), embed)
    seam2 = {i: row for i, row in enumerate(rows2) if row & mask}
    untouched2 = [row for row in rows2 if not row & mask]
    try:
        first1, first2 = _require_seam((at_seam, seam2), mask, kind, n)
    except WeldError:
        if passed:  # raise it again with code 1's rows named by block position
            block = {i: row for i, row in enumerate(rows.values()) if row & mask}
            _require_seam((block, seam2), mask, kind, n)
        raise
    # restrictions compare as their 0/1 arrays do as bytes: as their bits
    # read upward from the lowest shared qubit, with bin dropping the zeros
    # past the highest set bit, which leaves the order unchanged
    low = min(layout.shared, default=0)
    keys = sorted(first1, key=lambda r: bin(r >> low)[:1:-1])
    matched = [(at_seam[first1[key]], seam2[first2[key]]) for key in keys]
    for h in at_seam:
        del rows[h]
    added = dict(zip(asm.handles, untouched2))
    for key, (a, b) in zip(keys, matched):
        added[first1[key]] = a ^ b ^ (a & mask)
    rows.update(added)
    asm.other += gf2._relabel(_typed_rows(gens2, "x" if kind == "z" else "z"), embed)
    asm.n = n
    return layout, (untouched2, matched), added


@dataclass(frozen=True)
class TraceEntry:
    """One output generator with its per-side decomposition.

    op == part1 * part2 * shared_part always holds.  For a welded entry
    the parts are the two paired generators and their common weld
    restriction; otherwise the generator sits in its own side's slot
    and the remaining factors are the identity.
    """

    kind: str  # "adopted" | "untouched" | "welded"
    block: str  # "x" | "z", which output block the row lives in
    row: int
    op: PauliOperator
    part1: PauliOperator
    part2: PauliOperator
    shared_part: PauliOperator


@dataclass(frozen=True)
class WeldTrace:
    """What weld attached to its output: the layout and one entry per output row."""

    weld_type: str
    layout: WeldLayout
    entries: tuple[TraceEntry, ...]


def _trace(
    layout: WeldLayout, kind: str, gens1: GeneratingSet, gens: GeneratingSet, seam
) -> WeldTrace:
    """The dense decomposition of weld's output, row by row.

    gens1 is code 1, whose rows keep their bits on the output register,
    and gens the output; seam is what _weld_core returned with it.
    """
    n, mask = layout.n, layout.mask
    other = "x" if kind == "z" else "z"
    untouched2, matched = seam
    welded = _typed_rows(gens, kind)
    untouched1 = welded[: len(welded) - len(untouched2) - len(matched)]
    adopted1 = _typed_rows(gens1, other)
    identity = PauliOperator._packed(n, 0, 0)
    entries: list[TraceEntry] = []
    row = {"x": 0, "z": 0}
    # each of these rows sits alone in its side's slot
    for label, block, side, rows in (
        ("adopted", other, 1, adopted1),
        ("adopted", other, 2, _typed_rows(gens, other)[len(adopted1):]),
        ("untouched", kind, 1, untouched1),
        ("untouched", kind, 2, untouched2),
    ):
        for r in rows:
            op = _row_operator(n, block, r)
            parts = (op, identity) if side == 1 else (identity, op)
            entries.append(TraceEntry(label, block, row[block], op, *parts, identity))
            row[block] += 1
    for a, b in matched:
        ops = [_row_operator(n, kind, r) for r in (a ^ b ^ (a & mask), a, b, a & mask)]
        entries.append(TraceEntry("welded", kind, row[kind], *ops))
        row[kind] += 1
    return WeldTrace(kind, layout, tuple(entries))


def _require_weldable(code: CssCode, label: str):
    """Raise unless code is a valid k=0 code without logicals.

    A code object is frozen, so one that passed is marked in its
    __dict__ and not checked again; a failing one raises on every call.
    """
    if "_weldable" in code.__dict__:
        return
    validate_or_raise(code)
    if code.logicals:
        raise ValidationError(f"{label} carries promoted logicals, fold them back first")
    k = encoded_qubits(code)
    if k != 0:
        raise ValidationError(f"{label} encodes {k} qubits, welding needs zero")
    code.__dict__["_weldable"] = True


def _require_stabilizer_inputs(code1: CssCode, code2: CssCode):
    if code1 is code2:
        raise WeldError(
            "self_weld",
            None,
            "cannot weld a code object with itself; build a second copy to weld twins",
        )
    _require_weldable(code1, "code 1")
    _require_weldable(code2, "code 2")


def _weld_gens(code1: CssCode, code2: CssCode, ident, kind: str):
    """weld's output generating set, layout and seam, without the trace.

    kind is already read ("x" or "z").  Runs every check weld runs; only
    the trace is left out, for callers that would throw it away.
    """
    _require_stabilizer_inputs(code1, code2)
    asm = _Indexed.of(code1.gens, kind)
    layout, seam, _ = _weld_core(asm, code2.gens, ident)
    return asm.gens(), layout, seam


def weld(code1: CssCode, code2: CssCode, ident, weld_type: str) -> CssCode:
    """Glue two codes along identified qubits.

    Both inputs must encode zero qubits, with any logical classes
    folded back into the generators first.  Both precondition checks
    run on the contracted inputs; a failure raises WeldError carrying
    the check name and a witness.  The output generating set holds
    every opposite-type generator of both codes, every weld-type
    generator that avoids the shared qubits, and one combined generator
    per restriction to the shared qubits, joining the first generator
    with that restriction on each side.  A trace mapping output
    generators to their per-side parts is attached; run_verification's
    random rounds compare the group without it, and the trace is
    checked by the welding tests.
    """
    kind = _kind(weld_type.lower() if isinstance(weld_type, str) else weld_type, "weld_type")
    gens, layout, seam = _weld_gens(code1, code2, ident, kind)
    return CssCode(gens, (), None, _trace(layout, kind, code1.gens, gens, seam))


def weld_oracle(code1: CssCode, code2: CssCode, ident, weld_type: str) -> CssCode:
    """Ground-truth weld: adopt one type, solve for the other.

    For a Z-type weld this adopts the X-type generators of both codes
    and takes the full space of Z-type operators commuting with them,
    computed as a GF(2) kernel; an X-type weld is symmetric.  No
    pairing and no matching or independence preconditions, so it serves
    as an independent definition to test weld against.
    """
    kind = _kind(weld_type.lower() if isinstance(weld_type, str) else weld_type, "weld_type")
    _require_stabilizer_inputs(code1, code2)
    layout, set1, set2 = contract(code1, code2, ident)
    if kind == "z":
        x_rows = set1.x_packed + set2.x_packed
        gens = GeneratingSet._packed(layout.n, x_rows, gf2._kernel(x_rows, layout.n))
    else:
        z_rows = set1.z_packed + set2.z_packed
        gens = GeneratingSet._packed(layout.n, gf2._kernel(z_rows, layout.n), z_rows)
    return CssCode(gens)
