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

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import gf2
from .css import CssCode, GeneratingSet, encoded_qubits, validate_or_raise
from .errors import MetadataError, ValidationError, WeldError
from .pauli import PauliOperator, commutes, format_operator


def _norm_type(weld_type: str) -> str:
    if isinstance(weld_type, str) and weld_type.lower() in ("x", "z"):
        return weld_type.lower()
    raise ValidationError(f"weld_type must be 'z' or 'x', got {weld_type!r}")


@dataclass(frozen=True)
class QubitIdentification:
    """Pairs (qubit of code 1, qubit of code 2) to contract.

    Components are distinct within each side, so a qubit is glued at
    most once.  Range checks happen at contraction time, when both
    register sizes are known.
    """

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        norm = tuple((int(a), int(b)) for a, b in self.pairs)
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

    def embed_rows(self, rows: np.ndarray, side: int) -> np.ndarray:
        emb = np.asarray(self._embedding(side), dtype=np.int64)
        rows = gf2.as_matrix(rows, emb.size)
        out = np.zeros((rows.shape[0], self.n), dtype=np.uint8)
        out[:, emb] = rows
        return out

    def embed_operator(self, op: PauliOperator, side: int) -> PauliOperator:
        xb = self.embed_rows(op.x_bits.reshape(1, -1), side)[0]
        zb = self.embed_rows(op.z_bits.reshape(1, -1), side)[0]
        return PauliOperator(self.n, xb, zb)

    def shared_mask(self) -> np.ndarray:
        return _shared_mask(self.n, self.shared)


def contract(
    code1, code2, ident
) -> tuple[WeldLayout, GeneratingSet, GeneratingSet]:
    """Lay both codes out on one register, gluing the identified pairs.

    Returns the layout plus both generating sets re-expressed on the
    contracted register; each group is unchanged up to relabeling.
    """
    ident = as_identification(ident)
    gens1 = code1.gens if isinstance(code1, CssCode) else code1
    gens2 = code2.gens if isinstance(code2, CssCode) else code2
    n1, n2 = gens1.n, gens2.n
    pair_map: dict[int, int] = {}
    for a, b in ident:
        if not 0 <= a < n1:
            raise ValidationError(
                f"identification names qubit {a} of code 1, which has {n1} qubits"
            )
        if not 0 <= b < n2:
            raise ValidationError(
                f"identification names qubit {b} of code 2, which has {n2} qubits"
            )
        pair_map[b] = a
    embed2 = []
    fresh = n1
    for j in range(n2):
        if j in pair_map:
            embed2.append(pair_map[j])
        else:
            embed2.append(fresh)
            fresh += 1
    layout = WeldLayout(
        n1 + n2 - len(ident),
        tuple(range(n1)),
        tuple(embed2),
        tuple(a for a, _ in ident),
    )
    set1 = GeneratingSet(
        layout.n, layout.embed_rows(gens1.x_rows, 1), layout.embed_rows(gens1.z_rows, 1)
    )
    set2 = GeneratingSet(
        layout.n, layout.embed_rows(gens2.x_rows, 2), layout.embed_rows(gens2.z_rows, 2)
    )
    return layout, set1, set2


def _weld_rows(gens: GeneratingSet, kind: str) -> np.ndarray:
    return gens.z_rows if kind == "z" else gens.x_rows


def _format_row(bits: np.ndarray, kind: str, n: int) -> str:
    zero = np.zeros(n, dtype=np.uint8)
    op = PauliOperator(n, bits, zero) if kind == "x" else PauliOperator(n, zero, bits)
    return format_operator(op)


def _shared_mask(n: int, shared) -> np.ndarray:
    mask = np.zeros(n, dtype=np.uint8)
    for q in shared:
        if not 0 <= int(q) < n:
            raise ValidationError(f"shared qubit {q} is outside the {n}-qubit register")
        mask[int(q)] = 1
    return mask


class _Split(NamedTuple):
    """One side's weld-type rows, restricted to the shared qubits once.

    first maps the restriction of each weld-touching row, as bytes, to
    the first row that has it.
    """

    rows: np.ndarray
    on_weld: np.ndarray
    touching: list[int]
    untouched: list[int]
    first: dict[bytes, int]


def _split(rows: np.ndarray, mask: np.ndarray) -> _Split:
    on_weld = rows & mask
    touching: list[int] = []
    untouched: list[int] = []
    first: dict[bytes, int] = {}
    for i, hit in enumerate(on_weld.any(axis=1).tolist()):
        if hit:
            touching.append(i)
            first.setdefault(on_weld[i].tobytes(), i)
        else:
            untouched.append(i)
    return _Split(rows, on_weld, touching, untouched, first)


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
                    "shared_restriction": _format_row(split.on_weld[i], kind, n),
                }
    return None


def _dependent(split: _Split, kind: str, n: int):
    """Witness for touching rows whose product avoids the weld, or None."""
    if not split.touching:
        return None
    full = split.rows[split.touching]
    on_weld = split.on_weld[split.touching]
    if gf2.rank(on_weld) == gf2.rank(full):
        return None
    # every dependency of the full rows also kills the restrictions, so
    # rank deficit means some coefficient vector kills only the latter
    kernel_full = gf2.null_space(full.T)
    kernel_weld = gf2.null_space(on_weld.T)
    coeff = None
    for cand in kernel_weld:
        if not gf2.in_row_space(kernel_full, cand):
            coeff = gf2.reduce_vector(kernel_full, cand)
            break
    coeff = gf2.reduce_weight(coeff, kernel_full)
    chosen = np.nonzero(coeff)[0]
    product = np.bitwise_xor.reduce(full[chosen], axis=0)
    return {
        "subset": tuple(split.touching[j] for j in chosen),
        "product": _format_row(product, kind, n),
    }


def check_well_matched(set1, set2, layout: WeldLayout, weld_type: str):
    """Does every weld-touching generator have a partner across the weld?

    Only generators of the weld type matter.  A generator touching the
    shared qubits is matched when the other side has a generator with
    the same restriction to the shared qubits.  Returns (True, None) or
    (False, witness) with the first unmatched generator named.
    """
    kind = _norm_type(weld_type)
    mask = layout.shared_mask()
    split1, split2 = (
        _split(_weld_rows(s.gens if isinstance(s, CssCode) else s, kind), mask)
        for s in (set1, set2)
    )
    witness = _unmatched(split1, split2, kind, layout.n)
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
    split = _split(_weld_rows(gens, kind), _shared_mask(gens.n, shared))
    witness = _dependent(split, kind, gens.n)
    return witness is None, witness


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


def _assemble(
    layout: WeldLayout,
    set1: GeneratingSet,
    set2: GeneratingSet,
    kind: str,
    split1: _Split,
    split2: _Split,
    pairs: list[tuple[int, int]],
) -> tuple[GeneratingSet, WeldTrace]:
    """Build the output blocks and the trace from a chosen pairing."""
    n = layout.n
    weld1, weld2 = split1.rows, split2.rows
    keep1, keep2 = (s.x_rows if kind == "z" else s.z_rows for s in (set1, set2))
    un1, un2 = split1.untouched, split2.untouched
    welded_list = [weld1[i] ^ weld2[j] ^ split1.on_weld[i] for i, j in pairs]
    welded = np.array(welded_list, dtype=np.uint8).reshape(-1, n)
    keep_rows = np.vstack([keep1, keep2])
    weld_rows = np.vstack([weld1[un1], weld2[un2], welded])
    if kind == "z":
        gens = GeneratingSet(n, keep_rows, weld_rows)
    else:
        gens = GeneratingSet(n, weld_rows, keep_rows)

    zero = np.zeros(n, dtype=np.uint8)
    identity = PauliOperator.identity(n)

    def weld_op(bits):
        return PauliOperator(n, bits, zero) if kind == "x" else PauliOperator(n, zero, bits)

    def keep_op(bits):
        return PauliOperator(n, bits, zero) if kind == "z" else PauliOperator(n, zero, bits)

    entries: list[TraceEntry] = []
    keep_block = "x" if kind == "z" else "z"
    row = 0
    for side, block in ((1, keep1), (2, keep2)):
        for bits in block:
            op = keep_op(bits)
            entries.append(
                TraceEntry(
                    "adopted", keep_block, row, op,
                    op if side == 1 else identity,
                    op if side == 2 else identity,
                    identity,
                )
            )
            row += 1
    row = 0
    for side, rows, idxs in ((1, weld1, un1), (2, weld2, un2)):
        for i in idxs:
            op = weld_op(rows[i])
            entries.append(
                TraceEntry(
                    "untouched", kind, row, op,
                    op if side == 1 else identity,
                    op if side == 2 else identity,
                    identity,
                )
            )
            row += 1
    for (i, j), bits in zip(pairs, welded_list):
        entries.append(
            TraceEntry(
                "welded", kind, row, weld_op(bits),
                weld_op(weld1[i]), weld_op(weld2[j]), weld_op(split1.on_weld[i]),
            )
        )
        row += 1
    return gens, WeldTrace(kind, layout, tuple(entries))


def _require_stabilizer_inputs(code1: CssCode, code2: CssCode):
    if code1 is code2:
        raise WeldError(
            "self_weld",
            None,
            "cannot weld a code object with itself; build a second copy to weld twins",
        )
    for label, code in (("code 1", code1), ("code 2", code2)):
        validate_or_raise(code)
        if code.logicals:
            raise ValidationError(f"{label} carries promoted logicals, fold them back first")
        k = encoded_qubits(code)
        if k != 0:
            raise ValidationError(f"{label} encodes {k} qubits, welding needs zero")


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
    layout, set1, set2 = contract(code1, code2, ident)
    mask = layout.shared_mask()
    split1 = _split(_weld_rows(set1, kind), mask)
    split2 = _split(_weld_rows(set2, kind), mask)
    witness = _unmatched(split1, split2, kind, layout.n)
    if witness is not None:
        raise WeldError(
            "well_matched", witness, f"unmatched weld-touching generator: {witness}"
        )
    for side, split in ((1, split1), (2, split2)):
        witness = _dependent(split, kind, layout.n)
        if witness is not None:
            raise WeldError(
                "weld_independence",
                witness,
                f"code {side} generators multiply to identity on the weld: {witness}",
            )
    # With both checks passed, two rows of one side share a restriction
    # only if they are equal (their product would avoid the weld), so a
    # repeated row is welded once, with its first copy.
    pairs = [(split1.first[key], split2.first[key]) for key in sorted(split1.first)]
    # No output check: a welded row a ^ b ^ (a & mask) overlaps each adopted
    # row of either side evenly, as a or b does, since b & mask == a & mask.
    gens, trace = _assemble(layout, set1, set2, kind, split1, split2, pairs)
    return CssCode(gens, (), None, trace)


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
        x_rows = np.vstack([set1.x_rows, set2.x_rows])
        gens = GeneratingSet(layout.n, x_rows, gf2.null_space(x_rows))
    else:
        z_rows = np.vstack([set1.z_rows, set2.z_rows])
        gens = GeneratingSet(layout.n, gf2.null_space(z_rows), z_rows)
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
    size = len(trace.layout._embedding(side))
    if op.n != size:
        raise ValidationError(f"operator acts on {op.n} qubits, but side {side} has {size}")
    embedded = trace.layout.embed_operator(op, side)
    if embedded.is_identity:
        # the other side's entries keep the identity in this slot
        raise ValidationError("operator is not a tracked generator of that side")
    # comparing raw bytes skips the per-entry array_equal calls
    key = (embedded.x_bits.tobytes(), embedded.z_bits.tobytes())
    for entry in trace.entries:
        part = entry.part1 if side == 1 else entry.part2
        if (part.x_bits.tobytes(), part.z_bits.tobytes()) == key:
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
