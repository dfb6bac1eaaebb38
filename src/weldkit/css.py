"""CSS stabilizer groups as GF(2) row spaces.

A generating set keeps its X-type and Z-type generators in two separate
bit matrices, one generator per row.  A code is a generating set plus
any promoted logical classes.  Generator order is preserved everywhere
and is part of the public identity of syndromes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import gf2
from .errors import FeasibilityError, ValidationError
from .pauli import PauliOperator, format_operator, parse_operator

# distance() enumerates an entire stabilizer coset, so it refuses groups
# whose same-type rank exceeds this.
DISTANCE_RANK_CAP = 24


@dataclass(frozen=True, eq=False)
class GeneratingSet:
    n: int
    x_rows: np.ndarray
    z_rows: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x_rows", gf2.as_matrix(self.x_rows, self.n))
        object.__setattr__(self, "z_rows", gf2.as_matrix(self.z_rows, self.n))
        for name, rows in (("x", self.x_rows), ("z", self.z_rows)):
            if rows.shape[1] != self.n:
                raise ValidationError(
                    f"{name} generators have {rows.shape[1]} columns, expected {self.n}"
                )

    def x_ops(self) -> list[PauliOperator]:
        zero = np.zeros(self.n, dtype=np.uint8)
        return [PauliOperator(self.n, row, zero) for row in self.x_rows]

    def z_ops(self) -> list[PauliOperator]:
        zero = np.zeros(self.n, dtype=np.uint8)
        return [PauliOperator(self.n, zero, row) for row in self.z_rows]


@dataclass(frozen=True)
class LogicalClass:
    """A promoted encoded qubit, one representative per type.

    The two representatives anticommute with each other and commute with
    every generator of the code that owns them.
    """

    x_rep: PauliOperator
    z_rep: PauliOperator


@dataclass(frozen=True)
class Syndrome:
    violated_x: tuple[int, ...]
    violated_z: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.violated_x) + len(self.violated_z)


@dataclass(frozen=True, eq=False)
class CssCode:
    gens: GeneratingSet
    logicals: tuple[LogicalClass, ...] = ()
    region_metadata: dict | None = field(default=None, compare=False)
    weld_trace: object | None = field(default=None, compare=False)

    @property
    def n(self) -> int:
        return self.gens.n

    @property
    def x_rows(self) -> np.ndarray:
        return self.gens.x_rows

    @property
    def z_rows(self) -> np.ndarray:
        return self.gens.z_rows


@dataclass(frozen=True)
class CssViolation:
    message: str
    x_index: int | None = None
    z_index: int | None = None


def validate(gens: GeneratingSet | CssCode) -> CssViolation | None:
    """Check pairwise commutation, returning the first offending pair.

    Standard CSS form is structural here (the two blocks are stored
    separately), so the only thing that can go wrong inside a generating
    set is an X generator overlapping a Z generator on an odd number of
    qubits.  For a full code the logical representatives are checked too;
    one on another register raises ValidationError.
    """
    code = gens if isinstance(gens, CssCode) else None
    if code is not None:
        gens = code.gens
    # z_masks[q] marks the z generators touching qubit q; XOR-ing them
    # over an x row's support leaves the z generators it anticommutes with
    z_masks = gf2._pack(gens.z_rows.T)
    overlap = [0] * gens.x_rows.shape[0]
    for i, q in zip(*(idx.tolist() for idx in np.nonzero(gens.x_rows))):
        overlap[i] ^= z_masks[q]
    for i, hits in enumerate(overlap):
        if hits:
            j = (hits & -hits).bit_length() - 1
            return CssViolation(
                f"x generator {i} anticommutes with z generator {j}", x_index=i, z_index=j
            )
    if code is None:
        return None
    return _logical_violation(gens, code.logicals)


def _logical_violation(gens: GeneratingSet, logicals) -> CssViolation | None:
    """The first fault among the logical classes against gens, or None.

    A representative on another register is malformed input rather than
    a fault of the group, so it raises like a misshapen generator block.
    """
    for ci, cls in enumerate(logicals):
        for kind, rep in (("x", cls.x_rep), ("z", cls.z_rep)):
            if rep.n != gens.n:
                raise ValidationError(
                    f"logical {kind} rep of class {ci} acts on {rep.n} qubits, "
                    f"the code has {gens.n}"
                )
    for ci, cls in enumerate(logicals):
        if not cls.x_rep.is_x_type or not cls.z_rep.is_z_type:
            return CssViolation(f"logical class {ci} representatives are not pure")
        if int(cls.x_rep.x_bits @ cls.z_rep.z_bits) % 2 == 0:
            return CssViolation(f"logical class {ci} representatives commute")
        if (gens.z_rows @ cls.x_rep.x_bits % 2).any():
            return CssViolation(f"logical x rep of class {ci} anticommutes with a generator")
        if (gens.x_rows @ cls.z_rep.z_bits % 2).any():
            return CssViolation(f"logical z rep of class {ci} anticommutes with a generator")
        # a stabilizer rep fails above: its overlap with a commuting partner is even
        for cj, other in enumerate(logicals):
            if cj == ci:
                continue
            if int(cls.x_rep.x_bits @ other.z_rep.z_bits) % 2:
                return CssViolation(f"logical classes {ci} and {cj} overlap")
    return None


def validate_or_raise(gens: GeneratingSet | CssCode):
    violation = validate(gens)
    if violation is not None:
        raise ValidationError(violation.message)


def rank_gf2(gens: GeneratingSet | CssCode) -> int:
    """Dimension of the generated group as a GF(2) vector space."""
    if isinstance(gens, CssCode):
        gens = gens.gens
    return gf2.rank(gens.x_rows) + gf2.rank(gens.z_rows)


def encoded_qubits(code: CssCode | GeneratingSet) -> int:
    gens = code.gens if isinstance(code, CssCode) else code
    return gens.n - rank_gf2(gens)


def groups_equal(a, b) -> bool:
    """True iff the two generating sets span the same group."""
    ga = a.gens if isinstance(a, CssCode) else a
    gb = b.gens if isinstance(b, CssCode) else b
    if ga.n != gb.n:
        raise ValidationError(f"qubit count mismatch: {ga.n} vs {gb.n}")
    return gf2.row_spaces_equal(ga.x_rows, gb.x_rows) and gf2.row_spaces_equal(
        ga.z_rows, gb.z_rows
    )


def syndrome(code: CssCode | GeneratingSet, error: PauliOperator) -> Syndrome:
    """Index sets of the generators that anticommute with the error.

    The map is linear: the syndrome of a product is the symmetric
    difference of the syndromes.
    """
    gens = code.gens if isinstance(code, CssCode) else code
    if error.n != gens.n:
        raise ValidationError(f"error on {error.n} qubits, code has {gens.n}")
    # a pure-X row is violated by the Z part of the error, and vice versa
    vx = np.nonzero((gens.x_rows @ error.z_bits) % 2)[0]
    vz = np.nonzero((gens.z_rows @ error.x_bits) % 2)[0]
    return Syndrome(tuple(int(i) for i in vx), tuple(int(i) for i in vz))


def _drop_row(rows: np.ndarray, index: int) -> tuple[np.ndarray, np.ndarray]:
    if not 0 <= index < rows.shape[0]:
        raise ValidationError(f"generator index {index} out of range")
    keep = np.delete(rows, index, axis=0)
    return keep, rows[index]


def promote_to_logical(
    code: CssCode, kind: str, index: int, partner: PauliOperator | None = None
) -> CssCode:
    """Remove one generator and install it as a logical representative.

    The generator must be independent of the rest, otherwise its removal
    would not change the group and nothing new would be encoded.  The
    anticommuting representative of the opposite type is solved for when
    not supplied.  Either way the classes are then checked as validate
    checks them.  The weld trace is dropped, since the rows change.
    """
    n = code.n
    if kind == "x":
        remaining, row = _drop_row(code.x_rows, index)
        gens = GeneratingSet(n, remaining, code.z_rows)
        rep = PauliOperator(n, row, np.zeros(n, np.uint8))
        in_rest = gf2.in_row_space(remaining, row)
    elif kind == "z":
        remaining, row = _drop_row(code.z_rows, index)
        gens = GeneratingSet(n, code.x_rows, remaining)
        rep = PauliOperator(n, np.zeros(n, np.uint8), row)
        in_rest = gf2.in_row_space(remaining, row)
    else:
        raise ValidationError(f"kind must be 'x' or 'z', got {kind!r}")
    if in_rest:
        raise ValidationError(
            f"{kind} generator {index} is dependent, removing it does not change the group"
        )
    draft = CssCode(gens, code.logicals, code.region_metadata)
    if partner is None:
        partner = anticommuting_partner(draft, rep)
    cls = LogicalClass(x_rep=rep, z_rep=partner) if kind == "x" else LogicalClass(
        x_rep=partner, z_rep=rep
    )
    logicals = code.logicals + (cls,)
    violation = _logical_violation(gens, logicals)
    if violation is not None:
        raise ValidationError(violation.message)
    return replace(draft, logicals=logicals)


def fold_logical(code: CssCode, class_index: int, kind: str) -> CssCode:
    """Inverse of promotion: push one representative back into the generators.

    The class is dropped entirely; its other representative stops being a
    logical operator once its partner joins the group.  The weld trace is
    dropped, since the rows change.
    """
    if not 0 <= class_index < len(code.logicals):
        raise ValidationError(f"logical class {class_index} out of range")
    cls = code.logicals[class_index]
    logicals = code.logicals[:class_index] + code.logicals[class_index + 1 :]
    if kind == "x":
        gens = GeneratingSet(
            code.n, np.vstack([code.x_rows, cls.x_rep.x_bits]), code.z_rows
        )
    elif kind == "z":
        gens = GeneratingSet(
            code.n, code.x_rows, np.vstack([code.z_rows, cls.z_rep.z_bits])
        )
    else:
        raise ValidationError(f"kind must be 'x' or 'z', got {kind!r}")
    return CssCode(gens, logicals, code.region_metadata)


def anticommuting_partner(code: CssCode, logical_rep: PauliOperator) -> PauliOperator:
    """A pure operator of the opposite type that anticommutes with the rep.

    The result commutes with every generator and with the representatives
    of every other logical class.  Among the affine solution set the
    back-substitution solution (free variables zero) is taken, then its
    weight is reduced greedily against the homogeneous kernel; minimality
    is best effort, not guaranteed.
    """
    n = code.n
    if logical_rep.n != n:
        raise ValidationError(
            f"representative acts on {logical_rep.n} qubits, the code has {n}"
        )
    if logical_rep.is_x_type and not logical_rep.is_identity:
        same_rows = [code.x_rows]
        same_bits = logical_rep.x_bits
        other_reps = [c.x_rep.x_bits for c in code.logicals]
    elif logical_rep.is_z_type and not logical_rep.is_identity:
        same_rows = [code.z_rows]
        same_bits = logical_rep.z_bits
        other_reps = [c.z_rep.z_bits for c in code.logicals]
    else:
        raise ValidationError("representative must be pure and nontrivial")
    # drop the class whose representative we are pairing, if present
    other_reps = [r for r in other_reps if not np.array_equal(r, same_bits)]
    constraints = np.vstack(same_rows + [np.array(other_reps).reshape(-1, n)] + [same_bits])
    targets = np.zeros(constraints.shape[0], np.uint8)
    targets[-1] = 1
    v = gf2.solve(constraints, targets)
    if v is None:
        raise ValidationError("no anticommuting partner exists, the input is not logical")
    v = gf2.reduce_weight(v, gf2.null_space(constraints))
    if logical_rep.is_x_type:
        return PauliOperator(n, np.zeros(n, np.uint8), v)
    return PauliOperator(n, v, np.zeros(n, np.uint8))


def _coset_min_weight(base: int, reduced_masks: list[int]) -> int:
    """Minimum Hamming weight over base XOR span(reduced_masks)."""
    best = base.bit_count()
    acc = base
    r = len(reduced_masks)
    # gray-code sweep over the full span, one XOR per step
    for i in range(1, 1 << r):
        acc ^= reduced_masks[(i & -i).bit_length() - 1]
        w = acc.bit_count()
        if w < best:
            best = w
    return best


def distance(code: CssCode, rank_cap: int = DISTANCE_RANK_CAP) -> tuple[int, int]:
    """Exhaustive per-type distances (d_x, d_z).

    Each distance is the minimum weight over every nontrivial logical
    coset of that type.  Enumeration covers the whole same-type
    stabilizer span, so the same-type ranks are capped.
    """
    if not code.logicals:
        raise ValidationError("distance needs at least one promoted logical class")
    results = []
    for kind in ("x", "z"):
        rows = code.x_rows if kind == "x" else code.z_rows
        reduced, _ = gf2.rref(rows)
        r = reduced.shape[0]
        k = len(code.logicals)
        if r + k > rank_cap:
            raise FeasibilityError(
                f"{kind} coset enumeration needs 2^{r + k} states, cap is 2^{rank_cap}",
                required=r + k,
                cap=rank_cap,
            )
        stab_masks = gf2._pack(reduced)
        rep_masks = gf2._pack(
            [(c.x_rep.x_bits if kind == "x" else c.z_rep.z_bits) for c in code.logicals]
        )
        best = None
        for combo in range(1, 1 << k):
            base = 0
            for j in range(k):
                if combo >> j & 1:
                    base ^= rep_masks[j]
            w = _coset_min_weight(base, stab_masks)
            best = w if best is None else min(best, w)
        results.append(best)
    return results[0], results[1]


def permute_qubits(code: CssCode, perm) -> CssCode:
    """Relabel qubits: old index q becomes perm[q].

    Generators, their order, and logical representatives all follow the
    relabeling.  Builder region metadata and the weld trace are dropped,
    because their qubit sets are positional.
    """
    perm = list(int(p) for p in perm)
    n = code.n
    if sorted(perm) != list(range(n)):
        raise ValidationError("perm must be a permutation of all qubit indices")
    inv = np.argsort(perm)
    gens = GeneratingSet(n, code.x_rows[:, inv], code.z_rows[:, inv])

    def move(op: PauliOperator) -> PauliOperator:
        return PauliOperator(n, op.x_bits[inv], op.z_bits[inv])

    logicals = tuple(LogicalClass(move(c.x_rep), move(c.z_rep)) for c in code.logicals)
    return CssCode(gens, logicals)


# ---------------------------------------------------------------------------
# exchange formats


def to_text(code: CssCode) -> str:
    lines = [f"n={code.n} k={len(code.logicals)}"]
    for op in code.gens.x_ops():
        lines.append(f"X: {format_operator(op)}")
    for op in code.gens.z_ops():
        lines.append(f"Z: {format_operator(op)}")
    for cls in code.logicals:
        lines.append(f"LX: {format_operator(cls.x_rep)}")
        lines.append(f"LZ: {format_operator(cls.z_rep)}")
    return "\n".join(lines) + "\n"


def from_text(text: str) -> CssCode:
    header = None
    tagged: list[tuple[str, str]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            header = line
            continue
        if ":" not in line:
            raise ValidationError(f"bad code line {line!r}")
        tag, body = line.split(":", 1)
        tagged.append((tag.strip().upper(), body.strip()))
    if header is None:
        raise ValidationError("empty code text")
    fields = dict(
        part.split("=", 1) for part in header.replace(",", " ").split() if "=" in part
    )
    try:
        n = int(fields["n"])
        k = int(fields.get("k", "0"))
    except (KeyError, ValueError) as exc:
        raise ValidationError(f"bad header {header!r}") from exc
    if n < 0:
        raise ValidationError(f"bad header {header!r}: n must not be negative")
    xs, zs, lxs, lzs = [], [], [], []
    buckets = {"X": xs, "Z": zs, "LX": lxs, "LZ": lzs}
    for tag, body in tagged:
        if tag not in buckets:
            raise ValidationError(f"unknown line tag {tag!r}")
        buckets[tag].append(parse_operator(body, n))
    if len(lxs) != len(lzs):
        raise ValidationError("LX and LZ line counts differ")
    if len(lxs) != k:
        raise ValidationError(f"header says k={k} but found {len(lxs)} logical pairs")
    for op, tag in [(o, "X") for o in xs] + [(o, "LX") for o in lxs]:
        if not op.is_x_type:
            raise ValidationError(f"{tag} line holds a non-X operator")
    for op, tag in [(o, "Z") for o in zs] + [(o, "LZ") for o in lzs]:
        if not op.is_z_type:
            raise ValidationError(f"{tag} line holds a non-Z operator")
    gens = GeneratingSet(
        n,
        np.array([o.x_bits for o in xs], np.uint8) if xs else np.zeros((0, n), np.uint8),
        np.array([o.z_bits for o in zs], np.uint8) if zs else np.zeros((0, n), np.uint8),
    )
    logicals = tuple(LogicalClass(x, z) for x, z in zip(lxs, lzs))
    return CssCode(gens, logicals)


def to_json_dict(code: CssCode) -> dict:
    return {
        "n": code.n,
        "x_gens": [format_operator(op) for op in code.gens.x_ops()],
        "z_gens": [format_operator(op) for op in code.gens.z_ops()],
        "logical_x": [format_operator(c.x_rep) for c in code.logicals],
        "logical_z": [format_operator(c.z_rep) for c in code.logicals],
    }


def from_json_dict(data: dict) -> CssCode:
    try:
        n = int(data["n"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError("code json needs an integer 'n'") from exc
    lines = [f"n={n} k={len(data.get('logical_x', []))}"]
    lines += [f"X: {s}" for s in data.get("x_gens", [])]
    lines += [f"Z: {s}" for s in data.get("z_gens", [])]
    for x, z in zip(data.get("logical_x", []), data.get("logical_z", [])):
        lines.append(f"LX: {x}")
        lines.append(f"LZ: {z}")
    if len(data.get("logical_x", [])) != len(data.get("logical_z", [])):
        raise ValidationError("logical_x and logical_z lengths differ")
    return from_text("\n".join(lines))


def dumps(code: CssCode, fmt: str = "text") -> str:
    if fmt == "text":
        return to_text(code)
    if fmt == "json":
        return json.dumps(to_json_dict(code), indent=2) + "\n"
    raise ValidationError(f"unknown code format {fmt!r}")


def loads(text: str) -> CssCode:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return from_json_dict(json.loads(text))
    return from_text(text)
