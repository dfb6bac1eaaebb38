import numpy as np
import pytest

from weldkit import gf2


def test_as_matrix_shapes():
    m = gf2.as_matrix([[1, 0, 1], [0, 1, 1]])
    assert m.shape == (2, 3)
    assert m.dtype == np.uint8
    empty = gf2.as_matrix([], width=4)
    assert empty.shape == (0, 4)


def test_rref_known():
    m = gf2.as_matrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    reduced, pivots = gf2.rref(m)
    assert list(pivots) == [0, 1]
    assert gf2.rank(m) == 2
    # third row is the sum of the first two
    assert gf2.in_row_space(m, np.array([1, 0, 1], dtype=np.uint8))


def test_rref_idempotent_and_span_preserving():
    rng = np.random.default_rng(11)
    for _ in range(100):
        m = rng.integers(0, 2, size=(5, 8), dtype=np.uint8)
        reduced, pivots = gf2.rref(m)
        again, again_pivots = gf2.rref(reduced)
        assert np.array_equal(reduced[: len(pivots)], again[: len(again_pivots)])
        assert gf2.row_spaces_equal(m, reduced)


def test_reduce_vector_lands_in_coset():
    m = gf2.as_matrix([[1, 1, 0, 0], [0, 0, 1, 1]])
    v = np.array([1, 1, 1, 1], dtype=np.uint8)
    reduced = gf2.reduce_vector(m, v)
    assert not reduced.any()
    w = np.array([1, 0, 0, 0], dtype=np.uint8)
    assert gf2.reduce_vector(m, w).any()


def test_null_space_is_orthogonal_complement():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = rng.integers(0, 2, size=(4, 9), dtype=np.uint8)
        kernel = gf2.null_space(m)
        assert kernel.shape[1] == 9
        assert kernel.shape[0] == 9 - gf2.rank(m)
        if kernel.shape[0] and m.shape[0]:
            assert not ((m @ kernel.T) % 2).any()
        assert gf2.rank(kernel) == kernel.shape[0]


def test_solve_and_express():
    m = gf2.as_matrix([[1, 0, 1, 0], [0, 1, 1, 0], [0, 0, 0, 1]])
    rng = np.random.default_rng(3)
    for _ in range(50):
        coeffs = rng.integers(0, 2, size=3, dtype=np.uint8)
        v = (coeffs @ m) % 2
        got = gf2.express_in_rows(m, v.astype(np.uint8))
        assert got is not None
        assert np.array_equal((got @ m) % 2, v)
    assert gf2.express_in_rows(m, np.array([1, 1, 1, 1], dtype=np.uint8)) is None


def test_row_spaces_equal_detects_difference():
    a = gf2.as_matrix([[1, 1, 0], [0, 1, 1]])
    b = gf2.as_matrix([[1, 0, 1], [0, 1, 1], [1, 1, 0]])
    c = gf2.as_matrix([[1, 1, 1]])
    assert gf2.row_spaces_equal(a, b)
    assert not gf2.row_spaces_equal(a, c)


def test_in_row_space_rejects_outsiders():
    m = gf2.as_matrix([[1, 1, 0, 0]])
    assert gf2.in_row_space(m, np.array([1, 1, 0, 0], dtype=np.uint8))
    assert gf2.in_row_space(m, np.zeros(4, dtype=np.uint8))
    assert not gf2.in_row_space(m, np.array([1, 0, 0, 0], dtype=np.uint8))


def _reference_rref(mat):
    # the dense uint8 elimination that gf2 used before rows were packed
    a = gf2.as_matrix(mat).copy()
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


def _reference_reduce(mat, vec):
    red, pivots = _reference_rref(mat)
    v = gf2.as_vector(vec).copy()
    for row, c in zip(red, pivots):
        if v[c]:
            v ^= row
    return v


def _reference_solve(a, b):
    a = gf2.as_matrix(a)
    cols = a.shape[1]
    red, pivots = _reference_rref(np.concatenate([a, b.reshape(-1, 1)], axis=1))
    x = np.zeros(cols, dtype=np.uint8)
    for row, c in zip(red, pivots):
        if c == cols:
            return None
        x[c] = row[cols]
    return x


def _reference_null_space(mat):
    a = gf2.as_matrix(mat)
    cols = a.shape[1]
    red, pivots = _reference_rref(a)
    free = [c for c in range(cols) if c not in set(pivots)]
    basis = np.zeros((len(free), cols), dtype=np.uint8)
    for i, f in enumerate(free):
        basis[i, f] = 1
        for row, c in zip(red, pivots):
            if row[f]:
                basis[i, c] = 1
    return basis


def _random_matrix(rng, rows, cols):
    # low-rank and sparse cases reach dependent rows and empty columns
    kind = rng.integers(0, 3)
    if kind == 0:
        return rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
    if kind == 1:
        return (rng.random((rows, cols)) < 0.1).astype(np.uint8)
    inner = int(rng.integers(1, 4))
    left = rng.integers(0, 2, size=(rows, inner), dtype=np.uint8)
    right = rng.integers(0, 2, size=(inner, cols), dtype=np.uint8)
    return ((left.astype(np.int64) @ right) % 2).astype(np.uint8)


@pytest.mark.parametrize("cols", [0, 1, 7, 8, 9, 63, 64, 65, 200])
def test_packed_core_matches_dense_elimination(cols):
    rng = np.random.default_rng(cols)
    for rows in (0, 1, 2, 5, 13, 70):
        for _ in range(4):
            m = _random_matrix(rng, rows, cols)
            red, pivots = gf2.rref(m)
            ref_red, ref_pivots = _reference_rref(m)
            assert red.dtype == np.uint8 and red.shape == ref_red.shape
            assert np.array_equal(red, ref_red) and pivots == ref_pivots
            assert gf2.rank(m) == len(ref_pivots)
            member = (rng.integers(0, 2, size=rows, dtype=np.uint8) @ m) % 2
            for vec in (rng.integers(0, 2, size=cols, dtype=np.uint8), member):
                want = _reference_reduce(m, vec)
                got = gf2.reduce_vector(m, vec)
                assert got.dtype == np.uint8 and np.array_equal(got, want)
                assert gf2.in_row_space(m, vec) == (not want.any())
            b = rng.integers(0, 2, size=rows, dtype=np.uint8)
            for target in (b, (m @ rng.integers(0, 2, size=cols, dtype=np.uint8)) % 2):
                got, want = gf2.solve(m, target), _reference_solve(m, target)
                assert (got is None) == (want is None)
                if want is not None:
                    assert np.array_equal(got, want)
            kernel = gf2.null_space(m)
            assert kernel.dtype == np.uint8
            assert np.array_equal(kernel, _reference_null_space(m))
            other = _random_matrix(rng, rows, cols)
            for b_mat in (other, red, np.vstack([m, member[None, :]])):
                want = np.array_equal(ref_red, _reference_rref(b_mat)[0])
                assert gf2.row_spaces_equal(m, b_mat) == want


@pytest.mark.parametrize("cols", [0, 1, 9, 64, 65, 130])
def test_one_reduction_yields_the_solution_and_the_kernel(cols):
    rng = np.random.default_rng(300 + cols)
    for rows in (0, 1, 5, 13, 70):
        for _ in range(4):
            packed = gf2._pack(_random_matrix(rng, rows, cols))
            x = gf2._pack(rng.integers(0, 2, size=(1, cols), dtype=np.uint8))[0]
            # bit i of a consistent target is the parity of row i & x
            consistent = sum(((row & x).bit_count() & 1) << i for i, row in enumerate(packed))
            noise = gf2._pack(rng.integers(0, 2, size=(1, rows), dtype=np.uint8))[0]
            for target in (noise, consistent):
                solved = gf2._solve(packed, target, cols)
                want = _reference_solve(gf2._unpack(packed, cols), gf2._unpack([target], rows)[0])
                assert (solved is None) == (want is None)
                if solved is None:
                    continue
                assert gf2._unpack([solved[0]], cols)[0].tolist() == want.tolist()
                assert solved[1] == gf2._reduced(packed)
                assert gf2._reduced_kernel(solved[1], cols) == gf2._kernel(packed, cols)


def _numpy_null_space(mat):
    # the numpy construction null_space used before kernels were packed
    a = gf2.as_matrix(mat)
    red, pivots = gf2.rref(a)
    pivots = np.asarray(pivots, dtype=np.intp)
    is_free = np.ones(a.shape[1], dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((free.size, a.shape[1]), dtype=np.uint8)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = red[:, free].T
    return basis


def _dense_reduce_weight(vec, mat):
    # the uint8 loop reduce_weight ran before it worked on packed rows
    v = gf2.as_vector(vec).copy()
    improved = True
    while improved:
        improved = False
        for row in gf2.as_matrix(mat, v.size):
            candidate = v ^ row
            if int(candidate.sum()) < int(v.sum()):
                v = candidate
                improved = True
    return v


@pytest.mark.parametrize("cols", [0, 1, 7, 8, 9, 63, 64, 65, 200])
def test_kernel_matches_the_numpy_construction(cols):
    rng = np.random.default_rng(100 + cols)
    # unit lower times unit upper triangular is invertible
    lower = np.tril(rng.integers(0, 2, size=(cols, cols)), -1) + np.eye(cols, dtype=np.int64)
    upper = np.triu(rng.integers(0, 2, size=(cols, cols)), 1) + np.eye(cols, dtype=np.int64)
    invertible = ((lower @ upper) % 2).astype(np.uint8)
    noisy = _random_matrix(rng, 9, cols)
    cases = [
        np.zeros((0, cols), dtype=np.uint8),
        invertible,
        invertible[: cols // 2],
        np.vstack([noisy, noisy[:3], noisy[:1]]),
        _random_matrix(rng, 40, cols),
    ]
    for m in cases:
        kernel, want = gf2.null_space(m), _numpy_null_space(m)
        assert (kernel.dtype, kernel.shape) == (want.dtype, want.shape)
        assert kernel.tobytes() == want.tobytes()
        assert gf2._kernel(gf2._pack(m), cols) == gf2._pack(want)
        assert kernel.shape[0] == cols - gf2.rank(m)
        assert not ((m.astype(np.int64) @ kernel.T) % 2).any()
        vec = rng.integers(0, 2, size=cols, dtype=np.uint8)
        reduced = gf2.reduce_weight(vec, kernel)
        assert reduced.tobytes() == _dense_reduce_weight(vec, kernel).tobytes()
    assert gf2.null_space(invertible).shape == (0, cols)


def _dense_vanishing_subset(rows, mask, width):
    # the dense routine _vanishing_subset ran before it worked on packed rows
    full = gf2._unpack(rows, width)
    kernel_full = gf2.null_space(full.T)
    kernel_weld = gf2.null_space((full & gf2._unpack([mask], width)).T)
    cand = next(c for c in kernel_weld if not gf2.in_row_space(kernel_full, c))
    coeff = _dense_reduce_weight(gf2.reduce_vector(kernel_full, cand), kernel_full)
    return np.flatnonzero(coeff).tolist()


def test_vanishing_subset_matches_the_dense_routine():
    rng = np.random.default_rng(17)
    found = 0
    while found < 200:
        width = int(rng.integers(2, 30))
        rows = gf2._pack(_random_matrix(rng, int(rng.integers(2, 12)), width))
        mask = gf2._pack((rng.random(width) < 0.2).astype(np.uint8))[0]
        if len(gf2._echelon([row & mask for row in rows])) == len(gf2._echelon(rows)):
            continue
        found += 1
        subset = gf2._vanishing_subset(rows, mask, width)
        assert subset == _dense_vanishing_subset(rows, mask, width)
        product = 0
        for i in subset:
            product ^= rows[i]
        assert product and not product & mask
