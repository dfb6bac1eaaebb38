import gf2_reference as ref
import numpy as np
import pytest

from weldkit import gf2


def _row(vec) -> int:
    """A 0/1 vector as one packed row."""
    return gf2._pack([vec])[0]


def _dense(red, width):
    """The rows and pivot columns of a _reduced form, as ref.rref gives them."""
    return gf2._unpack([row for _, row in red], width), [c for c, _ in red]


def test_as_matrix_shapes():
    m = gf2.as_matrix([[1, 0, 1], [0, 1, 1]])
    assert m.shape == (2, 3)
    assert m.dtype == np.uint8
    empty = gf2.as_matrix([], width=4)
    assert empty.shape == (0, 4)


def test_rref_known():
    m = gf2.as_matrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    rows = gf2._pack(m)
    reduced, pivots = _dense(gf2._reduced(rows), 3)
    assert pivots == [0, 1]
    assert reduced.tolist() == ref.rref(m)[0].tolist()
    assert len(gf2._echelon(rows)) == 2
    # third row is the sum of the first two
    assert not gf2._residual(gf2._echelon(rows), _row([1, 0, 1]))


def test_rref_idempotent_and_span_preserving():
    rng = np.random.default_rng(11)
    for _ in range(100):
        m = rng.integers(0, 2, size=(5, 8), dtype=np.uint8)
        red = gf2._reduced(gf2._pack(m))
        assert gf2._reduced([row for _, row in red]) == red
        reduced, pivots = _dense(red, 8)
        want, want_pivots = ref.rref(m)
        assert np.array_equal(reduced, want) and pivots == want_pivots
        assert np.array_equal(ref.rref(reduced)[0], want)


def test_reduce_vector_lands_in_coset():
    m = gf2.as_matrix([[1, 1, 0, 0], [0, 0, 1, 1]])
    basis = gf2._echelon(gf2._pack(m))
    for v in ([1, 1, 1, 1], [1, 0, 0, 0]):
        reduced = gf2._residual(basis, _row(v))
        assert gf2._unpack([reduced], 4)[0].tolist() == ref.reduce_vector(m, v).tolist()
    assert not gf2._residual(basis, _row([1, 1, 1, 1]))
    assert gf2._residual(basis, _row([1, 0, 0, 0]))


def test_null_space_is_orthogonal_complement():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = rng.integers(0, 2, size=(4, 9), dtype=np.uint8)
        packed = gf2._kernel(gf2._pack(m), 9)
        kernel = gf2._unpack(packed, 9)
        assert kernel.shape[1] == 9
        assert kernel.shape[0] == 9 - len(ref.rref(m)[1])
        if kernel.shape[0] and m.shape[0]:
            assert not ((m @ kernel.T) % 2).any()
        assert len(gf2._echelon(packed)) == kernel.shape[0] == len(ref.rref(kernel)[1])


def test_solve_and_express():
    m = gf2.as_matrix([[1, 0, 1, 0], [0, 1, 1, 0], [0, 0, 0, 1]])
    # coefficients c with c @ m == v solve m.T @ c == v
    columns = gf2._pack(m.T)
    rng = np.random.default_rng(3)
    for _ in range(50):
        coeffs = rng.integers(0, 2, size=3, dtype=np.uint8)
        v = (coeffs @ m) % 2
        solved = gf2._solve(columns, _row(v), 3)
        assert solved is not None
        got = gf2._unpack([solved[0]], 3)[0]
        assert got.tolist() == ref.solve(m.T, v).tolist()
        assert np.array_equal((got @ m) % 2, v)
    assert gf2._solve(columns, _row([1, 1, 1, 1]), 3) is None
    assert ref.solve(m.T, [1, 1, 1, 1]) is None


def test_row_spaces_equal_detects_difference():
    a = gf2.as_matrix([[1, 1, 0], [0, 1, 1]])
    b = gf2.as_matrix([[1, 0, 1], [0, 1, 1], [1, 1, 0]])
    c = gf2.as_matrix([[1, 1, 1]])
    assert gf2._reduced(gf2._pack(a)) == gf2._reduced(gf2._pack(b))
    assert gf2._reduced(gf2._pack(a)) != gf2._reduced(gf2._pack(c))
    assert np.array_equal(ref.rref(a)[0], ref.rref(b)[0])
    assert not np.array_equal(ref.rref(a)[0], ref.rref(c)[0])


def test_in_row_space_rejects_outsiders():
    m = gf2.as_matrix([[1, 1, 0, 0]])
    basis = gf2._echelon(gf2._pack(m))
    for v, inside in (([1, 1, 0, 0], True), ([0, 0, 0, 0], True), ([1, 0, 0, 0], False)):
        assert (not gf2._residual(basis, _row(v))) == inside
        assert (not ref.reduce_vector(m, v).any()) == inside


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
            packed = gf2._pack(m)
            red, pivots = _dense(gf2._reduced(packed), cols)
            ref_red, ref_pivots = ref.rref(m)
            assert red.dtype == np.uint8 and red.shape == ref_red.shape
            assert np.array_equal(red, ref_red) and pivots == ref_pivots
            basis = gf2._echelon(packed)
            assert len(basis) == len(ref_pivots)
            member = (rng.integers(0, 2, size=rows, dtype=np.uint8) @ m) % 2
            for vec in (rng.integers(0, 2, size=cols, dtype=np.uint8), member):
                want = ref.reduce_vector(m, vec)
                got = gf2._unpack([gf2._residual(basis, _row(vec))], cols)[0]
                assert np.array_equal(got, want)
            b = rng.integers(0, 2, size=rows, dtype=np.uint8)
            for target in (b, (m @ rng.integers(0, 2, size=cols, dtype=np.uint8)) % 2):
                solved, want = gf2._solve(packed, _row(target), cols), ref.solve(m, target)
                assert (solved is None) == (want is None)
                if want is not None:
                    assert np.array_equal(gf2._unpack([solved[0]], cols)[0], want)
            kernel = gf2._unpack(gf2._kernel(packed, cols), cols)
            assert np.array_equal(kernel, ref.null_space(m))
            other = _random_matrix(rng, rows, cols)
            for b_mat in (other, red, np.vstack([m, member[None, :]])):
                want = np.array_equal(ref_red, ref.rref(b_mat)[0])
                assert (gf2._reduced(packed) == gf2._reduced(gf2._pack(b_mat))) == want


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
                want = ref.solve(gf2._unpack(packed, cols), gf2._unpack([target], rows)[0])
                assert (solved is None) == (want is None)
                if solved is None:
                    continue
                assert gf2._unpack([solved[0]], cols)[0].tolist() == want.tolist()
                assert solved[1] == gf2._reduced(packed)
                assert gf2._reduced_kernel(solved[1], cols) == gf2._kernel(packed, cols)


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
        packed = gf2._kernel(gf2._pack(m), cols)
        kernel, want = gf2._unpack(packed, cols), ref.numpy_null_space(m)
        assert (kernel.dtype, kernel.shape) == (want.dtype, want.shape)
        assert kernel.tobytes() == want.tobytes()
        assert packed == gf2._pack(want)
        assert kernel.shape[0] == cols - len(ref.rref(m)[1])
        assert not ((m.astype(np.int64) @ kernel.T) % 2).any()
        vec = rng.integers(0, 2, size=cols, dtype=np.uint8)
        reduced = gf2._unpack([gf2._reduce_weight(_row(vec), packed)], cols)[0]
        assert reduced.tobytes() == ref.reduce_weight(vec, kernel).tobytes()
    assert gf2._kernel(gf2._pack(invertible), cols) == []


def test_vanishing_subset_matches_the_dense_routine():
    rng = np.random.default_rng(17)
    found = 0
    while found < 200:
        width = int(rng.integers(2, 30))
        rows = gf2._pack(_random_matrix(rng, int(rng.integers(2, 12)), width))
        mask_bits = (rng.random(width) < 0.2).astype(np.uint8)
        mask = gf2._pack(mask_bits)[0]
        if len(gf2._echelon([row & mask for row in rows])) == len(gf2._echelon(rows)):
            continue
        found += 1
        subset = gf2._vanishing_subset(rows, mask, width)
        assert subset == ref.vanishing_subset(gf2._unpack(rows, width), mask_bits)
        product = 0
        for i in subset:
            product ^= rows[i]
        assert product and not product & mask
