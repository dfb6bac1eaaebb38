"""CSS stabilizer groups as GF(2) row spaces.

A generating set keeps its X-type and Z-type generators in two blocks
of packed rows (gf2's one row format), with read-only dense views.  A
code is a generating set plus any promoted logical classes.  Generator
order is preserved everywhere and is part of the public identity of
syndromes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import gf2
from .errors import FeasibilityError, ValidationError, _integer, _integers, _kind
from .pauli import PauliOperator, format_operator, parse_operator

# distance() enumerates an entire stabilizer coset, so it refuses groups
# whose same-type rank exceeds this.
DISTANCE_RANK_CAP = 24


@dataclass(frozen=True, eq=False, init=False)
class GeneratingSet:
    """X-type and Z-type generators on n qubits, one int per row, bit q = qubit q.

    The constructor packs 0/1 array-likes once.  x_rows and z_rows are
    (rows, n) uint8 views, made on first read and read-only so they
    cannot drift from the packed rows.
    """

    n: int
    x_packed: tuple[int, ...]
    z_packed: tuple[int, ...]

    def __init__(self, n: int, x_rows, z_rows):
        n = _integer(n, "qubit count", 0)
        self.__dict__.update(
            n=n,
            x_packed=gf2._packed_block("x generator", x_rows, n),
            z_packed=gf2._packed_block("z generator", z_rows, n),
        )

    @classmethod
    def _packed(cls, n: int, x_packed, z_packed) -> GeneratingSet:
        """A set from packed rows, each an int in [0, 1 << n)."""
        gens = cls.__new__(cls)
        gens.__dict__.update(n=n, x_packed=tuple(x_packed), z_packed=tuple(z_packed))
        gf2._check_packed(gens.x_packed + gens.z_packed, n)
        return gens

    def _widened(self, n: int) -> GeneratingSet:
        """The same rows on n >= self.n qubits; they already fit, so no check."""
        gens = GeneratingSet.__new__(GeneratingSet)
        gens.__dict__.update(n=n, x_packed=self.x_packed, z_packed=self.z_packed)
        return gens

    def __reduce__(self):  # copies and pickles rebuild the views read-only
        return GeneratingSet._packed, (self.n, self.x_packed, self.z_packed)

    @cached_property
    def x_rows(self) -> np.ndarray:
        return gf2._view(self.x_packed, self.n)

    @cached_property
    def z_rows(self) -> np.ndarray:
        return gf2._view(self.z_packed, self.n)

    def columns(self, kind: str) -> tuple[int, ...]:
        """Per-qubit masks of one block: bit i of entry q is bit q of row i."""
        return tuple(gf2._transpose(getattr(self, f"{_kind(kind)}_packed"), self.n))

    def x_ops(self) -> list[PauliOperator]:
        return [_row_operator(self.n, "x", row) for row in self.x_packed]

    def z_ops(self) -> list[PauliOperator]:
        return [_row_operator(self.n, "z", row) for row in self.z_packed]


def _row_operator(n: int, kind: str, row: int) -> PauliOperator:
    """The pure operator of type kind on the qubits of a packed row."""
    return PauliOperator._packed(n, row, 0) if kind == "x" else PauliOperator._packed(n, 0, row)


def _anticommuting(rows, v: int) -> tuple[int, ...]:
    """Indices of the packed rows that overlap packed row v on an odd count."""
    return tuple(i for i, row in enumerate(rows) if (row & v).bit_count() & 1)


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
    # columns[q] marks the z rows touching qubit q, so XOR-ing them over an
    # x row's support leaves the z rows it overlaps on an odd count; the
    # transpose serves this one pass, so it is not cached on gens
    columns = gf2._transpose(gens.z_packed, gens.n)
    for i, row in enumerate(gens.x_packed):
        hits = 0
        while row:
            low = row & -row
            hits ^= columns[low.bit_length() - 1]
            row ^= low
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
        if not (cls.x_rep.x & cls.z_rep.z).bit_count() & 1:
            return CssViolation(f"logical class {ci} representatives commute")
        if _anticommuting(gens.z_packed, cls.x_rep.x):
            return CssViolation(f"logical x rep of class {ci} anticommutes with a generator")
        if _anticommuting(gens.x_packed, cls.z_rep.z):
            return CssViolation(f"logical z rep of class {ci} anticommutes with a generator")
        # a stabilizer rep fails above: its overlap with a commuting partner is even
        for cj, other in enumerate(logicals):
            if cj == ci:
                continue
            if (cls.x_rep.x & other.z_rep.z).bit_count() & 1:
                return CssViolation(f"logical classes {ci} and {cj} overlap")
    return None


def validate_or_raise(gens: GeneratingSet | CssCode):
    violation = validate(gens)
    if violation is not None:
        raise ValidationError(violation.message)


def encoded_qubits(code: CssCode | GeneratingSet) -> int:
    """n less the rank of the generated group over GF(2)."""
    gens = code.gens if isinstance(code, CssCode) else code
    return gens.n - len(gf2._echelon(gens.x_packed)) - len(gf2._echelon(gens.z_packed))


def groups_equal(a, b) -> bool:
    """True iff the two generating sets span the same group."""
    ga = a.gens if isinstance(a, CssCode) else a
    gb = b.gens if isinstance(b, CssCode) else b
    if ga.n != gb.n:
        raise ValidationError(f"qubit count mismatch: {ga.n} vs {gb.n}")
    return _same_span(ga.x_packed, gb.x_packed) and _same_span(ga.z_packed, gb.z_packed)


def _same_span(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """True iff the packed rows a and b span the same space.

    Equal tuples need no elimination, as for the adopted block of a weld
    and its oracle.  Otherwise b's span lies in a's and has its rank.
    """
    if a == b:
        return True
    basis = gf2._echelon(a)
    return len(gf2._echelon(b)) == len(basis) and not any(gf2._residual(basis, row) for row in b)


def syndrome(code: CssCode | GeneratingSet, error: PauliOperator) -> Syndrome:
    """Index sets of the generators that anticommute with the error.

    The map is linear: the syndrome of a product is the symmetric
    difference of the syndromes.
    """
    gens = code.gens if isinstance(code, CssCode) else code
    if error.n != gens.n:
        raise ValidationError(f"error on {error.n} qubits, code has {gens.n}")
    # a pure-X row is violated by the Z part of the error, and vice versa
    return Syndrome(_anticommuting(gens.x_packed, error.z), _anticommuting(gens.z_packed, error.x))


def promote_to_logical(
    code: CssCode, kind: str, index: int, partner: PauliOperator | None = None
) -> CssCode:
    """Remove one generator and install it as a logical representative.

    The generator must be independent of the rest, otherwise its removal
    would not change the group and nothing new would be encoded.  No
    elimination tests that.  The anticommuting representative of the
    opposite type is solved for when not supplied, and the solve fails
    for a dependent row.  Either way the classes are then checked as
    validate checks them, and a partner that anticommutes with the row
    and commutes with every remaining row proves the row independent.
    The weld trace is dropped, since the rows change.
    """
    n = code.n
    index = _integer(index, "generator index")
    blocks = {"x": list(code.gens.x_packed), "z": list(code.gens.z_packed)}
    remaining = blocks[_kind(kind)]
    if not 0 <= index < len(remaining):
        raise ValidationError(f"generator index {index} out of range")
    row = remaining.pop(index)
    gens = GeneratingSet._packed(n, blocks["x"], blocks["z"])
    rep = _row_operator(n, kind, row)
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


def _logical(code: CssCode, index: int) -> LogicalClass:
    """The code's logical class at index, which must be in range."""
    index = _integer(index, "logical class index")
    if not 0 <= index < len(code.logicals):
        raise ValidationError(
            f"logical class {index} out of range, the code has {len(code.logicals)}"
        )
    return code.logicals[index]


def fold_logical(code: CssCode, class_index: int, kind: str) -> CssCode:
    """Inverse of promotion: push one representative back into the generators.

    The class is dropped entirely; its other representative stops being a
    logical operator once its partner joins the group.  The weld trace is
    dropped, since the rows change.
    """
    class_index = _integer(class_index, "logical class index")
    cls = _logical(code, class_index)
    logicals = code.logicals[:class_index] + code.logicals[class_index + 1 :]
    x, z = code.gens.x_packed, code.gens.z_packed
    if _kind(kind) == "x":
        x += (cls.x_rep.x,)
    else:
        z += (cls.z_rep.z,)
    gens = GeneratingSet._packed(code.n, x, z)
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
        kind, same, reps = "x", logical_rep.x, [c.x_rep.x for c in code.logicals]
    elif logical_rep.is_z_type and not logical_rep.is_identity:
        kind, same, reps = "z", logical_rep.z, [c.z_rep.z for c in code.logicals]
    else:
        raise ValidationError("representative must be pure and nontrivial")
    # drop the class whose representative we are pairing, if present
    others = [rep for rep in reps if rep != same]
    constraints = [*getattr(code.gens, f"{kind}_packed"), *others, same]
    solved = gf2._solve(constraints, 1 << len(constraints) - 1, n)
    if solved is None:
        raise ValidationError("no anticommuting partner exists, the input is not logical")
    v, reduced = solved
    v = gf2._reduce_weight(v, gf2._reduced_kernel(reduced, n))
    return _row_operator(n, "z" if kind == "x" else "x", v)


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
    rank_cap = _integer(rank_cap, "rank_cap", 1)
    if not code.logicals:
        raise ValidationError("distance needs at least one promoted logical class")
    results = []
    for kind in ("x", "z"):
        rows = code.gens.x_packed if kind == "x" else code.gens.z_packed
        stab_masks = [row for _, row in gf2._reduced(rows)]
        r = len(stab_masks)
        k = len(code.logicals)
        if r + k > rank_cap:
            raise FeasibilityError(
                f"{kind} coset enumeration needs 2^{r + k} states, cap is 2^{rank_cap}",
                required=r + k,
                cap=rank_cap,
            )
        rep_masks = [(c.x_rep.x if kind == "x" else c.z_rep.z) for c in code.logicals]
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
    perm = _integers(perm, "perm")
    n = code.n
    if sorted(perm) != list(range(n)):
        raise ValidationError("perm must be a permutation of all qubit indices")
    gens = GeneratingSet._packed(
        n, gf2._relabel(code.gens.x_packed, perm), gf2._relabel(code.gens.z_packed, perm)
    )

    def move(op: PauliOperator) -> PauliOperator:
        return PauliOperator._packed(n, *gf2._relabel((op.x, op.z), perm))

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
    fields: dict[str, str] = {}
    for token in header.replace(",", " ").split():
        key, eq, value = token.partition("=")
        if not eq or key not in ("n", "k") or key in fields:
            raise ValidationError(f"bad header token {token!r}: want n= and k= once each")
        fields[key] = value
    try:
        n = int(fields["n"])
        k = int(fields.get("k", "0"))
    except (KeyError, ValueError) as exc:
        raise ValidationError(f"bad header {header!r}") from exc
    if n < 0:
        raise ValidationError(f"bad header {header!r}: n must not be negative")
    return _from_tagged(n, k, tagged)


def _from_tagged(n: int, k: int, tagged: list[tuple[str, str]]) -> CssCode:
    """A code from (tag, operator text) pairs, the tags X, Z, LX and LZ."""
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
    gens = GeneratingSet._packed(n, [o.x for o in xs], [o.z for o in zs])
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
    if not isinstance(data, dict):
        raise ValidationError(f"code json must be an object, got {type(data).__name__}")
    for key in data:
        if key not in ("n", "x_gens", "z_gens", "logical_x", "logical_z"):
            raise ValidationError(f"code json has an unknown key {key!r}")
    n = data.get("n")
    if type(n) is not int or n < 0:
        raise ValidationError("code json needs a non-negative integer 'n'")
    tagged = []
    for field, tag in (("x_gens", "X"), ("z_gens", "Z"), ("logical_x", "LX"), ("logical_z", "LZ")):
        ops = data.get(field, [])
        if not isinstance(ops, list) or not all(isinstance(op, str) for op in ops):
            raise ValidationError(f"code json field {field!r} must be a list of strings")
        tagged += [(tag, op) for op in ops]
    if len(data.get("logical_x", [])) != len(data.get("logical_z", [])):
        raise ValidationError("logical_x and logical_z lengths differ")
    return _from_tagged(n, len(data.get("logical_x", [])), tagged)


def dumps(code: CssCode, fmt: str = "text") -> str:
    if fmt == "text":
        return to_text(code)
    if fmt == "json":
        return json.dumps(to_json_dict(code), indent=2) + "\n"
    raise ValidationError(f"unknown code format {fmt!r}")


def loads(text: str) -> CssCode:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise ValidationError(f"bad JSON: {err}") from None
        return from_json_dict(data)
    return from_text(text)
