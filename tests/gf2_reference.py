"""Dense numpy references for gf2's packed kernels.

Each routine eliminates 0/1 uint8 arrays column by column, the way gf2
did before rows were packed, and calls nothing in weldkit, so a test can
check a packed kernel against it.  Inputs are 0/1 array-likes and the
results are uint8 arrays.
"""

import numpy as np


def _matrix(mat) -> np.ndarray:
    a = np.asarray(mat, dtype=np.uint8) % 2
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    return a


def rref(mat):
    """(reduced rows, pivot columns); zero rows are dropped."""
    a = _matrix(mat).copy()
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        hits = np.nonzero(a[r:, c])[0]
        if hits.size == 0:
            continue
        lead = r + int(hits[0])
        if lead != r:
            a[[r, lead]] = a[[lead, r]]
        for i in np.nonzero(a[:, c])[0]:
            if i != r:
                a[i] ^= a[r]
        pivots.append(c)
        r += 1
    return a[:r], pivots


def reduce_vector(mat, vec) -> np.ndarray:
    """vec with every pivot column of rref(mat) cleared; zero iff vec is in the span."""
    red, pivots = rref(mat)
    v = np.asarray(vec, dtype=np.uint8) % 2
    for row, c in zip(red, pivots):
        if v[c]:
            v = v ^ row
    return v


def solve(a, b):
    """x with a @ x == b (mod 2) and every free variable zero, or None."""
    a = _matrix(a)
    cols = a.shape[1]
    b = np.asarray(b, dtype=np.uint8).reshape(-1, 1)
    red, pivots = rref(np.concatenate([a, b], axis=1))
    x = np.zeros(cols, dtype=np.uint8)
    for row, c in zip(red, pivots):
        if c == cols:
            return None
        x[c] = row[cols]
    return x


def null_space(mat) -> np.ndarray:
    """One kernel vector per free column f, ascending: bit f plus the pivots whose row has f."""
    a = _matrix(mat)
    cols = a.shape[1]
    red, pivots = rref(a)
    free = [c for c in range(cols) if c not in set(pivots)]
    basis = np.zeros((len(free), cols), dtype=np.uint8)
    for i, f in enumerate(free):
        basis[i, f] = 1
        for row, c in zip(red, pivots):
            if row[f]:
                basis[i, c] = 1
    return basis


def numpy_null_space(mat) -> np.ndarray:
    """null_space built with fancy indexing on the reduced rows, a second construction."""
    a = _matrix(mat)
    red, pivots = rref(a)
    pivots = np.asarray(pivots, dtype=np.intp)
    is_free = np.ones(a.shape[1], dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((free.size, a.shape[1]), dtype=np.uint8)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = red[:, free].T
    return basis


def reduce_weight(vec, mat) -> np.ndarray:
    """vec plus rows of mat, added in order while one makes it strictly lighter."""
    v = np.asarray(vec, dtype=np.uint8) % 2
    improved = True
    while improved:
        improved = False
        for row in _matrix(mat):
            candidate = v ^ row
            if int(candidate.sum()) < int(v.sum()):
                v = candidate
                improved = True
    return v


def vanishing_subset(full, mask) -> list[int]:
    """Indices of rows of full whose sum is zero on the 0/1 mask but not outright.

    The first dependency of the masked rows that is not one of the full
    rows, reduced against the full rows' dependencies and then shrunk
    greedily.
    """
    full = _matrix(full)
    kernel_full = null_space(full.T)
    kernel_weld = null_space((full & np.asarray(mask, dtype=np.uint8)).T)
    cand = next(c for c in kernel_weld if reduce_vector(kernel_full, c).any())
    coeff = reduce_weight(reduce_vector(kernel_full, cand), kernel_full)
    return np.flatnonzero(coeff).tolist()
