"""Phase-free Pauli operators on a fixed qubit register.

An operator is a pair of GF(2) bit vectors, stored as packed rows in
gf2's one row format: x marks the qubits carrying an X factor, z the
qubits carrying a Z factor, bit q for qubit q, and a qubit with both
bits set carries a Y.  Global phases are quotiented out, so every
operator is its own inverse and multiplication is XOR on both rows.
The module functions compute on the packed rows; x_bits and z_bits are
read-only uint8 views for readers that want arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import gf2
from .errors import ValidationError, _integer, _integers

# Dense strings stay readable only for small registers; beyond this the
# sparse rendering is used.
DENSE_LIMIT = 64


@dataclass(frozen=True, init=False)
class PauliOperator:
    """An operator on n qubits, its X and Z parts as ints, bit q = qubit q.

    The constructor takes the parts as 0/1 array-likes of length n and
    packs them once.  x_bits and z_bits are length-n uint8 views, made
    on first read and read-only so they cannot drift from the packed
    rows.
    """

    n: int
    x: int
    z: int

    def __init__(self, n: int, x_bits, z_bits):
        n = _integer(n, "qubit count", 0)
        (x,) = gf2._packed_block("x_bits", [x_bits], n)
        (z,) = gf2._packed_block("z_bits", [z_bits], n)
        self.__dict__.update(n=n, x=x, z=z)
        self.__post_init__()

    @classmethod
    def _packed(cls, n: int, x: int, z: int) -> PauliOperator:
        """An operator from packed rows, each an int in [0, 1 << n)."""
        op = cls.__new__(cls)
        op.__dict__.update(n=n, x=x, z=z)
        op.__post_init__()
        return op

    # Every construction ends here, and bench/tracer.py counts these calls.
    def __post_init__(self):
        gf2._check_packed((self.x, self.z), self.n)

    def __reduce__(self):  # copies and pickles rebuild the views read-only
        return PauliOperator._packed, (self.n, self.x, self.z)

    @cached_property
    def x_bits(self) -> np.ndarray:
        return gf2._view((self.x,), self.n)[0]

    @cached_property
    def z_bits(self) -> np.ndarray:
        return gf2._view((self.z,), self.n)[0]

    @staticmethod
    def identity(n: int) -> PauliOperator:
        return PauliOperator.from_support(n)

    @staticmethod
    def from_support(n: int, x=(), z=()) -> PauliOperator:
        n = _integer(n, "qubit count", 0)
        xb = zb = 0
        for q in x:
            xb ^= _bit(q, n)
        for q in z:
            zb ^= _bit(q, n)
        return PauliOperator._packed(n, xb, zb)

    def __mul__(self, other: PauliOperator) -> PauliOperator:
        return multiply(self, other)

    def __repr__(self) -> str:
        return f"PauliOperator({format_operator(self)!r})"

    @property
    def is_identity(self) -> bool:
        return not (self.x or self.z)

    @property
    def is_x_type(self) -> bool:
        return not self.z

    @property
    def is_z_type(self) -> bool:
        return not self.x

    def support(self) -> tuple[int, ...]:
        return _qubits(self.x | self.z)

    def x_support(self) -> tuple[int, ...]:
        return _qubits(self.x)

    def z_support(self) -> tuple[int, ...]:
        return _qubits(self.z)


def _qubits(row: int) -> tuple[int, ...]:
    """The set bits of a packed row, ascending."""
    out = []
    while row:
        low = row & -row
        out.append(low.bit_length() - 1)
        row ^= low
    return tuple(out)


def _bit(q: int, n: int) -> int:
    """The packed row of qubit q alone."""
    q = _integer(q, "qubit")
    if not 0 <= q < n:
        raise ValidationError(f"qubit {q} out of range for {n} qubits")
    return 1 << q


def _check_sizes(a: PauliOperator, b: PauliOperator):
    if a.n != b.n:
        raise ValidationError(f"operator size mismatch: {a.n} vs {b.n}")


def multiply(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    """Phase-free product, the XOR of both packed rows."""
    _check_sizes(a, b)
    return PauliOperator._packed(a.n, a.x ^ b.x, a.z ^ b.z)


def symplectic(a: PauliOperator, b: PauliOperator) -> int:
    _check_sizes(a, b)
    return ((a.x & b.z) ^ (a.z & b.x)).bit_count() & 1


def commutes(a: PauliOperator, b: PauliOperator) -> bool:
    """True iff a and b commute, via the binary symplectic form."""
    return symplectic(a, b) == 0


def weight(p: PauliOperator) -> int:
    """Number of qubits on which p acts nontrivially."""
    return (p.x | p.z).bit_count()


def restrict(p: PauliOperator, support) -> PauliOperator:
    """Keep the factors of p on the given qubits, identity elsewhere.

    The register size is unchanged.  Restriction is idempotent and
    multiplicative: restrict(p * q, s) == restrict(p, s) * restrict(q, s).
    When two supports cover every qubit, p factors as the product of its
    two restrictions times the restriction to their intersection.
    """
    mask = 0
    for q in support:
        mask |= _bit(q, p.n)
    return PauliOperator._packed(p.n, p.x & mask, p.z & mask)


def permute_operator(p: PauliOperator, perm) -> PauliOperator:
    """Relabel qubits: the factor on qubit q moves to qubit perm[q]."""
    perm = _integers(perm, "perm")
    if sorted(perm) != list(range(p.n)):
        raise ValidationError("perm must be a permutation of all qubit indices")
    return PauliOperator._packed(p.n, *gf2._relabel((p.x, p.z), perm))


def format_operator(p: PauliOperator, style: str = "auto") -> str:
    """Render as a dense string like "XXIZZ" or as a sparse listing.

    The sparse form reads "n=5; X:0,1; Z:3,4" where a qubit named in both
    lists carries a Y.  style picks "dense" or "sparse" explicitly;
    "auto" uses dense from 1 up to 64 qubits, and sparse ("n=0") on
    none, whose dense string would be empty.
    """
    if style == "auto":
        style = "dense" if 0 < p.n <= DENSE_LIMIT else "sparse"
    if style == "dense":
        return "".join("IXZY"[(p.x >> q & 1) | (p.z >> q & 1) << 1] for q in range(p.n))
    if style == "sparse":
        parts = [f"n={p.n}"]
        for label, qubits in (("X", p.x_support()), ("Z", p.z_support())):
            if qubits:
                parts.append(f"{label}:" + ",".join(map(str, qubits)))
        return "; ".join(parts)
    raise ValidationError(f"unknown style {style!r}")


def parse_operator(text: str, n: int | None = None) -> PauliOperator:
    """Parse either rendering produced by format_operator.

    Dense strings fix their own length; for the sparse form an explicit
    n option overrides a missing "n=" field.
    """
    text = text.strip()
    if not text:
        raise ValidationError("empty operator text")
    if "=" in text or ":" in text:
        return _parse_sparse(text, n)
    x = z = 0
    for q, ch in enumerate(text):
        if ch not in "IXYZ":
            raise ValidationError(f"bad dense operator character {ch!r}")
        x |= (ch in "XY") << q
        z |= (ch in "ZY") << q
    if n is not None and n != len(text):
        raise ValidationError(f"dense operator has {len(text)} qubits, expected {n}")
    return PauliOperator._packed(len(text), x, z)


def _parse_sparse(text: str, n: int | None) -> PauliOperator:
    xs: list[int] = []
    zs: list[int] = []
    for raw in text.split(";"):
        part = raw.strip()
        if not part:
            continue
        try:
            if part.startswith("n="):
                declared = int(part[2:].strip())
                if n is not None and n != declared:
                    raise ValidationError(
                        f"operator declares n={declared}, expected {n}"
                    )
                n = declared
            elif part.startswith("X:"):
                xs.extend(int(tok) for tok in part[2:].split(",") if tok.strip())
            elif part.startswith("Z:"):
                zs.extend(int(tok) for tok in part[2:].split(",") if tok.strip())
            else:
                raise ValidationError(f"bad sparse operator field {part!r}")
        except ValueError:
            raise ValidationError(f"bad number in operator field {part!r}")
    if n is None:
        raise ValidationError("sparse operator needs an n= field")
    return PauliOperator.from_support(n, x=xs, z=zs)
