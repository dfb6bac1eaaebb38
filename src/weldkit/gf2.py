"""Linear algebra over GF(2).

The package stores one row format: a Python int with bit q = column q,
so a row operation is one XOR.  Generating sets and Pauli operators
hold such packed rows, and the library computes only on them through
the private helpers here.  Rank and membership use a semi-echelon basis
keyed by each row's lowest set bit; _reduced back-substitutes it to the
unique reduced form, from which _solve reads a solution and _kernel a
kernel basis, both on packed rows.

Dense 0/1 arrays appear only at the library's edge.  _packed_block packs
and validates array-likes in the two array constructors, GeneratingSet
and PauliOperator, through as_matrix and _pack; _view gives the
read-only uint8 views of packed rows.  _check_packed validates rows built
inside.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError


def as_matrix(rows, width: int | None = None) -> np.ndarray:
    """Coerce to a 2-d uint8 matrix mod 2.

    An empty row list needs an explicit width so downstream shape checks
    stay meaningful.
    """
    a = np.asarray(rows, dtype=np.uint8)
    if a.ndim == 1:
        a = a.reshape(1, -1) if a.size else a.reshape(0, width or 0)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    if width is not None and a.shape[0] == 0:
        a = a.reshape(0, width)
    return a % 2


def _pack(mat) -> list[int]:
    packed = np.packbits(as_matrix(mat), axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _unpack(rows: list[int], width: int) -> np.ndarray:
    step = (width + 7) // 8
    data = b"".join(r.to_bytes(step, "little") for r in rows)
    packed = np.frombuffer(data, np.uint8).reshape(len(rows), step)
    return np.unpackbits(packed, axis=1, count=width, bitorder="little")


def _packed_block(name: str, rows, width: int) -> tuple[int, ...]:
    """Rows of width columns given as any 0/1 array-like, packed."""
    try:
        a = np.asarray(rows)
        if not ((a == 0) | (a == 1)).all():
            raise ValidationError(f"{name} entries must be 0 or 1")
        a = as_matrix(a, width)
    except ValueError as err:  # a ragged list or a block that is not 2-d
        raise ValidationError(f"{name} rows do not form a matrix: {err}") from None
    if a.shape[1] != width:
        raise ValidationError(f"{name} rows have {a.shape[1]} columns, expected {width}")
    return tuple(_pack(a))


def _check_packed(rows, width: int):
    """Raise ValidationError unless every row is an int in [0, 1 << width)."""
    for row in rows:
        if not (isinstance(row, int) and 0 <= row and row.bit_length() <= width):
            raise ValidationError(f"{row!r} is not a packed row on {width} qubits")


def _view(rows, width: int) -> np.ndarray:
    """The (rows, width) uint8 matrix of packed rows, read-only."""
    view = _unpack(list(rows), width)
    view.flags.writeable = False
    return view


def _relabel(rows, targets) -> list[int]:
    """Each packed row with its bit q moved to bit targets[q]."""
    out = []
    for row in rows:
        moved = 0
        while row:
            low = row & -row
            moved |= 1 << targets[low.bit_length() - 1]
            row ^= low
        out.append(moved)
    return out


def _transpose(rows, width: int) -> list[int]:
    """Packed columns of packed rows: bit i of entry q is bit q of rows[i]."""
    cols = [0] * width
    for i, row in enumerate(rows):
        bit = 1 << i
        while row:
            low = row & -row
            cols[low.bit_length() - 1] |= bit
            row ^= low
    return cols


def _echelon(rows: list[int]) -> dict[int, int]:
    """Semi-echelon basis of the span, keyed by each row's lowest set bit."""
    basis: dict[int, int] = {}
    for r in rows:
        while r:
            low = r & -r
            if low not in basis:
                basis[low] = r
                break
            r ^= basis[low]
    return basis


def _residual(basis: dict[int, int], v: int) -> int:
    """v with every pivot bit of basis cleared; zero iff v is in the span."""
    out = 0
    while v:
        low = v & -v
        if low in basis:
            v ^= basis[low]
        else:
            out |= low
            v ^= low
    return out


def _reduced(rows: list[int]) -> list[tuple[int, int]]:
    """Canonical reduced rows as (pivot column, row), by ascending pivot."""
    basis = _echelon(rows)
    done: dict[int, int] = {}
    for low in sorted(basis, reverse=True):  # the rows above low are reduced
        done[low] = _residual(done, basis[low])
    return [(low.bit_length() - 1, done[low]) for low in sorted(done)]


def _kernel(rows, width: int) -> list[int]:
    """Packed basis of {x : every row & x has even weight}, x below 1 << width.

    One vector per free column f of the reduced rows, in ascending f: bit
    f plus the pivot bit of every reduced row that has bit f.
    """
    return _reduced_kernel(_reduced(rows), width)


def _reduced_kernel(red: list[tuple[int, int]], width: int) -> list[int]:
    """_kernel of rows already in _reduced form."""
    pivots = [c for c, _ in red]
    cols = _transpose([row for _, row in red], width)
    free = sorted(set(range(width)).difference(pivots))
    return [(1 << f) | m for f, m in zip(free, _relabel([cols[f] for f in free], pivots))]


def _solve(rows, target: int, width: int):
    """(x, _reduced(rows)) with row i & x of weight parity bit i of target, or None.

    Free columns are zero: x has bit c for each reduced row of the rows
    augmented by their target bit at column width that has that bit set.
    A consistent system has no pivot at column width, so those reduced
    rows with that bit dropped keep distinct, cleared pivots and span the
    rows: they are the rows' own reduced form, handed back so a caller
    can take _reduced_kernel without reducing the rows again.
    """
    red = _reduced([row | (target >> i & 1) << width for i, row in enumerate(rows)])
    if red and red[-1][0] == width:
        return None
    x = 0
    for c, row in red:
        x |= (row >> width & 1) << c
    low = (1 << width) - 1
    return x, [(c, row & low) for c, row in red]


def _reduce_weight(v: int, rows) -> int:
    """v plus rows, added in order while one makes it strictly lighter."""
    improved = True
    while improved:
        improved = False
        for row in rows:
            if (v ^ row).bit_count() < v.bit_count():
                v ^= row
                improved = True
    return v


def _vanishing_subset(rows: list[int], mask: int, width: int) -> list[int]:
    """Indices of packed rows whose sum is zero on mask but not outright.

    Needs rank(row & mask for each row) < rank(rows).  The subset is
    shrunk greedily against the full rows' dependencies, best effort.
    """
    kernel_full = _kernel(_transpose(rows, width), len(rows))
    kernel_weld = _kernel(_transpose([row & mask for row in rows], width), len(rows))
    basis = _echelon(kernel_full)
    cand = next(c for c in kernel_weld if _residual(basis, c))
    coeff = _reduce_weight(_residual(basis, cand), kernel_full)
    return [i for i in range(len(rows)) if coeff >> i & 1]
