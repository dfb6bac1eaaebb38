"""Linear algebra over GF(2).

The package stores one row format: a Python int with bit q = column q,
so a row operation is one XOR; the private helpers work on such packed
rows.  Rank and membership use a semi-echelon basis keyed by each row's
lowest set bit; _reduced back-substitutes it to the unique reduced form,
from which _solve reads a solution and _kernel a kernel basis, both on
packed rows.  The public functions take 2-d uint8 matrices with entries
in {0, 1}, pack them, and never modify their arguments.
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
    solved = _solve(_pack(a), _pack(as_vector(b, rows)[None])[0], cols)
    return None if solved is None else _unpack([solved[0]], cols)[0]


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
    return _unpack([_reduce_weight(_pack(v[None])[0], _pack(as_matrix(mat, v.size)))], v.size)[0]


def null_space(mat) -> np.ndarray:
    """Rows form a basis of the right kernel {x : mat @ x == 0 (mod 2)}."""
    a = as_matrix(mat)
    return _unpack(_kernel(_pack(a), a.shape[1]), a.shape[1])


def row_spaces_equal(a, b) -> bool:
    a, b = as_matrix(a), as_matrix(b)
    return a.shape[1] == b.shape[1] and _reduced(_pack(a)) == _reduced(_pack(b))


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
