"""Linear algebra over GF(2).

The package stores one row format: a Python int with bit q = column q,
so a row operation is one XOR; the private helpers work on such packed
rows.  Rank and membership use a semi-echelon basis keyed by each row's
lowest set bit; _reduced back-substitutes it to the unique reduced form.
The public functions take 2-d uint8 matrices with entries in {0, 1},
pack them, and never modify their arguments.
"""

from __future__ import annotations

import numpy as np


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


def as_vector(v, width: int | None = None) -> np.ndarray:
    a = np.asarray(v, dtype=np.uint8).ravel() % 2
    if width is not None and a.size != width:
        raise ValueError(f"expected vector of length {width}, got {a.size}")
    return a


def _pack(mat) -> list[int]:
    packed = np.packbits(as_matrix(mat), axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _unpack(rows: list[int], width: int) -> np.ndarray:
    step = (width + 7) // 8
    data = b"".join(r.to_bytes(step, "little") for r in rows)
    packed = np.frombuffer(data, np.uint8).reshape(len(rows), step)
    return np.unpackbits(packed, axis=1, count=width, bitorder="little")


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


def rref(mat) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form.

    Returns (reduced, pivot_columns).  Zero rows are dropped, so the
    reduced matrix has exactly rank(mat) rows and is a canonical form of
    the row space: two matrices have equal row spaces iff their rref
    arrays are equal.
    """
    a = as_matrix(mat)
    red = _reduced(_pack(a))
    return _unpack([row for _, row in red], a.shape[1]), [c for c, _ in red]


def rank(mat) -> int:
    return len(_echelon(_pack(mat)))


def reduce_vector(mat, vec) -> np.ndarray:
    """Residual of vec after eliminating against the rows of mat."""
    v = as_vector(vec)
    return _unpack([_residual(_echelon(_pack(mat)), _pack(v[None])[0])], v.size)[0]


def in_row_space(mat, vec) -> bool:
    return not _residual(_echelon(_pack(mat)), _pack(as_vector(vec)[None])[0])


def solve(a, b) -> np.ndarray | None:
    """One solution x of a @ x == b (mod 2), or None if inconsistent.

    Free variables are set to zero, which makes the result deterministic.
    """
    a = as_matrix(a)
    rows, cols = a.shape
    b = as_vector(b, rows)
    aug = np.concatenate([a, b.reshape(-1, 1)], axis=1)
    x = np.zeros(cols, dtype=np.uint8)
    for c, row in _reduced(_pack(aug)):
        if c == cols:
            return None
        x[c] = row >> cols & 1
    return x


def express_in_rows(mat, vec) -> np.ndarray | None:
    """Coefficients c with c @ mat == vec (mod 2), or None.

    Coefficients refer to the rows of mat as given, not to the reduced
    form.
    """
    a = as_matrix(mat)
    return solve(a.T, as_vector(vec, a.shape[1]))


def reduce_weight(vec, mat) -> np.ndarray:
    """vec plus a greedy choice of rows of mat, never heavier than vec.

    Each pass over the rows, in order, adds every row that lowers the
    weight, until a pass adds none; the result need not be of least weight.
    """
    v = as_vector(vec)
    rows = as_matrix(mat, v.size)
    improved = True
    while improved:
        improved = False
        for row in rows:
            candidate = v ^ row
            if int(candidate.sum()) < int(v.sum()):
                v = candidate
                improved = True
    return v


def null_space(mat) -> np.ndarray:
    """Rows form a basis of the right kernel {x : mat @ x == 0 (mod 2)}."""
    a = as_matrix(mat)
    red, pivots = rref(a)
    pivots = np.asarray(pivots, dtype=np.intp)
    is_free = np.ones(a.shape[1], dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((free.size, a.shape[1]), dtype=np.uint8)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = red[:, free].T
    return basis


def row_spaces_equal(a, b) -> bool:
    a, b = as_matrix(a), as_matrix(b)
    return a.shape[1] == b.shape[1] and _reduced(_pack(a)) == _reduced(_pack(b))


def _vanishing_subset(rows: list[int], mask: int, width: int) -> list[int]:
    """Indices of packed rows whose sum is zero on mask but not outright.

    Needs rank(row & mask for each row) < rank(rows).  The subset is
    shrunk greedily against the full rows' dependencies, best effort.
    """
    full = _unpack(rows, width)
    kernel_full = null_space(full.T)
    kernel_weld = null_space((full & _unpack([mask], width)).T)
    cand = next(c for c in kernel_weld if not in_row_space(kernel_full, c))
    coeff = reduce_weight(reduce_vector(kernel_full, cand), kernel_full)
    return np.flatnonzero(coeff).tolist()
