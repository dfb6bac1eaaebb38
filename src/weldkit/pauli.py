"""Phase-free Pauli operators on a fixed qubit register.

An operator is a pair of GF(2) bit vectors: x_bits marks qubits carrying
an X factor, z_bits marks qubits carrying a Z factor, and a qubit with
both bits set carries a Y.  Global phases are quotiented out, so every
operator is its own inverse and multiplication is componentwise XOR.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gf2
from .errors import ValidationError

# Dense strings stay readable only for small registers; beyond this the
# sparse rendering is used.
DENSE_LIMIT = 64


@dataclass(frozen=True)
class PauliOperator:
    n: int
    x_bits: np.ndarray = field(compare=False)
    z_bits: np.ndarray = field(compare=False)

    def __post_init__(self):
        object.__setattr__(self, "x_bits", gf2.as_vector(self.x_bits, self.n))
        object.__setattr__(self, "z_bits", gf2.as_vector(self.z_bits, self.n))

    @staticmethod
    def identity(n: int) -> "PauliOperator":
        return PauliOperator(n, np.zeros(n, dtype=np.uint8), np.zeros(n, dtype=np.uint8))

    @staticmethod
    def from_support(n: int, x=(), z=()) -> "PauliOperator":
        xb = np.zeros(n, dtype=np.uint8)
        zb = np.zeros(n, dtype=np.uint8)
        for q in x:
            _check_index(q, n)
            xb[q] ^= 1
        for q in z:
            _check_index(q, n)
            zb[q] ^= 1
        return PauliOperator(n, xb, zb)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliOperator):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.x_bits, other.x_bits)
            and np.array_equal(self.z_bits, other.z_bits)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.x_bits.tobytes(), self.z_bits.tobytes()))

    def __mul__(self, other: "PauliOperator") -> "PauliOperator":
        return multiply(self, other)

    def __repr__(self) -> str:
        return f"PauliOperator({format_operator(self)!r})"

    @property
    def is_identity(self) -> bool:
        return not (self.x_bits.any() or self.z_bits.any())

    @property
    def is_x_type(self) -> bool:
        return not self.z_bits.any()

    @property
    def is_z_type(self) -> bool:
        return not self.x_bits.any()

    def support(self) -> tuple[int, ...]:
        return tuple(int(q) for q in np.nonzero(self.x_bits | self.z_bits)[0])

    def x_support(self) -> tuple[int, ...]:
        return tuple(int(q) for q in np.nonzero(self.x_bits)[0])

    def z_support(self) -> tuple[int, ...]:
        return tuple(int(q) for q in np.nonzero(self.z_bits)[0])


def _check_index(q: int, n: int):
    if not 0 <= q < n:
        raise IndexError(f"qubit {q} out of range for {n} qubits")


def _check_sizes(a: PauliOperator, b: PauliOperator):
    if a.n != b.n:
        raise ValueError(f"operator size mismatch: {a.n} vs {b.n}")


def multiply(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    """Phase-free product, the componentwise XOR of both bit vectors."""
    _check_sizes(a, b)
    return PauliOperator(a.n, a.x_bits ^ b.x_bits, a.z_bits ^ b.z_bits)


def symplectic(a: PauliOperator, b: PauliOperator) -> int:
    _check_sizes(a, b)
    return int(a.x_bits @ b.z_bits + a.z_bits @ b.x_bits) % 2


def commutes(a: PauliOperator, b: PauliOperator) -> bool:
    """True iff a and b commute, via the binary symplectic form."""
    return symplectic(a, b) == 0


def weight(p: PauliOperator) -> int:
    """Number of qubits on which p acts nontrivially."""
    return int(np.count_nonzero(p.x_bits | p.z_bits))


def restrict(p: PauliOperator, support) -> PauliOperator:
    """Keep the factors of p on the given qubits, identity elsewhere.

    The register size is unchanged.  Restriction is idempotent and
    multiplicative: restrict(p * q, s) == restrict(p, s) * restrict(q, s).
    When two supports cover every qubit, p factors as the product of its
    two restrictions times the restriction to their intersection.
    """
    mask = np.zeros(p.n, dtype=np.uint8)
    for q in support:
        _check_index(int(q), p.n)
        mask[int(q)] = 1
    return PauliOperator(p.n, p.x_bits & mask, p.z_bits & mask)


def permute_operator(p: PauliOperator, perm) -> PauliOperator:
    """Relabel qubits: the factor on qubit q moves to qubit perm[q]."""
    perm = [int(q) for q in perm]
    if sorted(perm) != list(range(p.n)):
        raise ValidationError("perm must be a permutation of all qubit indices")
    inv = np.argsort(perm)
    return PauliOperator(p.n, p.x_bits[inv], p.z_bits[inv])


_DENSE_CHARS = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}


def format_operator(p: PauliOperator, style: str = "auto") -> str:
    """Render as a dense string like "XXIZZ" or as a sparse listing.

    The sparse form reads "n=5; X:0,1; Z:3,4" where a qubit named in both
    lists carries a Y.  style picks "dense" or "sparse" explicitly;
    "auto" uses dense up to 64 qubits.
    """
    if style == "auto":
        style = "dense" if p.n <= DENSE_LIMIT else "sparse"
    if style == "dense":
        return "".join(
            _DENSE_CHARS[(int(x), int(z))] for x, z in zip(p.x_bits, p.z_bits)
        )
    if style == "sparse":
        parts = [f"n={p.n}"]
        xs = np.nonzero(p.x_bits)[0]
        zs = np.nonzero(p.z_bits)[0]
        if xs.size:
            parts.append("X:" + ",".join(str(int(q)) for q in xs))
        if zs.size:
            parts.append("Z:" + ",".join(str(int(q)) for q in zs))
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
    xb = []
    zb = []
    for ch in text:
        if ch not in "IXYZ":
            raise ValidationError(f"bad dense operator character {ch!r}")
        xb.append(1 if ch in "XY" else 0)
        zb.append(1 if ch in "ZY" else 0)
    if n is not None and n != len(xb):
        raise ValidationError(f"dense operator has {len(xb)} qubits, expected {n}")
    return PauliOperator(len(xb), np.array(xb, dtype=np.uint8), np.array(zb, dtype=np.uint8))


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
    try:
        return PauliOperator.from_support(n, x=xs, z=zs)
    except IndexError as err:
        raise ValidationError(str(err))
