import copy
import pickle

import numpy as np
import pytest

from weldkit.errors import ValidationError
from weldkit.pauli import (
    DENSE_LIMIT,
    PauliOperator,
    commutes,
    format_operator,
    multiply,
    parse_operator,
    permute_operator,
    restrict,
    symplectic,
    weight,
)


def random_op(rng, n):
    return PauliOperator(
        n,
        rng.integers(0, 2, size=n, dtype=np.uint8),
        rng.integers(0, 2, size=n, dtype=np.uint8),
    )


def test_from_support_and_accessors():
    p = PauliOperator.from_support(5, x=(0, 2), z=(2, 4))
    assert p.x_support() == (0, 2)
    assert p.z_support() == (2, 4)
    assert p.support() == (0, 2, 4)
    assert weight(p) == 3
    assert not p.is_identity
    assert PauliOperator.identity(5).is_identity


def test_multiply_is_an_involution():
    rng = np.random.default_rng(2)
    for _ in range(300):
        p = random_op(rng, 8)
        assert multiply(p, p).is_identity
        q = random_op(rng, 8)
        assert multiply(multiply(p, q), q) == p


def test_commutes_matches_symplectic_form():
    rng = np.random.default_rng(7)
    for _ in range(300):
        p, q = random_op(rng, 6), random_op(rng, 6)
        overlap = int(np.sum(p.x_bits & q.z_bits) + np.sum(p.z_bits & q.x_bits)) % 2
        assert symplectic(p, q) == overlap
        assert commutes(p, q) == (overlap == 0)


def test_restriction_is_multiplicative():
    rng = np.random.default_rng(13)
    for _ in range(300):
        p, q = random_op(rng, 10), random_op(rng, 10)
        support = tuple(int(i) for i in rng.permutation(10)[: rng.integers(1, 10)])
        left = restrict(multiply(p, q), support)
        right = multiply(restrict(p, support), restrict(q, support))
        assert left == right


def test_parse_format_round_trip_dense():
    for text in ("XXIZZ", "IIIII", "XZXZX", "YY"):
        p = parse_operator(text)
        assert format_operator(p) == text.replace("Y", "Y")
        assert parse_operator(format_operator(p)) == p


def test_parse_format_round_trip_sparse():
    p = parse_operator("n=5; X:0,1; Z:3,4")
    assert p == PauliOperator.from_support(5, x=(0, 1), z=(3, 4))
    big = PauliOperator.from_support(DENSE_LIMIT + 10, x=(0,), z=(DENSE_LIMIT,))
    text = format_operator(big)
    assert text.startswith("n=")
    assert parse_operator(text) == big


def test_format_style_override():
    p = PauliOperator.from_support(4, x=(1,))
    assert format_operator(p, style="dense") == "IXII"
    sparse = format_operator(p, style="sparse")
    assert parse_operator(sparse) == p


def test_parse_rejects_garbage():
    with pytest.raises(ValidationError, match="empty operator text"):
        parse_operator("")
    with pytest.raises(ValidationError):
        parse_operator("XQX")
    with pytest.raises(ValidationError):
        parse_operator("n=3; X:7")
    with pytest.raises(ValidationError):
        parse_operator("n=x; X:0")


def test_operations_across_registers_raise_validation_error():
    a, b = parse_operator("XZ"), parse_operator("XZI")
    for op in (multiply, symplectic, commutes):
        with pytest.raises(ValidationError, match="size mismatch"):
            op(a, b)


@pytest.mark.parametrize("q", [-1, 3, 64])
def test_off_register_qubits_raise_validation_error(q):
    with pytest.raises(ValidationError, match="out of range"):
        PauliOperator.from_support(3, x=[0, q])
    with pytest.raises(ValidationError, match="out of range"):
        PauliOperator.from_support(3, z=[q])
    with pytest.raises(ValidationError, match="out of range"):
        restrict(parse_operator("XYZ"), [1, q])


@pytest.mark.parametrize("q", [1.5, 1.7, 1.0, "1", None])
def test_non_integer_qubits_raise_validation_error(q):
    with pytest.raises(ValidationError, match="must be an integer"):
        PauliOperator.from_support(3, x=[q])
    with pytest.raises(ValidationError, match="must be an integer"):
        PauliOperator.from_support(3, z=[0, q])
    with pytest.raises(ValidationError, match="must be an integer"):
        restrict(parse_operator("XYZ"), [q])


def test_numpy_integer_qubits_are_accepted():
    qubits = np.array([0, 2], dtype=np.int64)
    assert PauliOperator.from_support(3, x=qubits, z=[np.uint8(1)]) == parse_operator("XZX")
    assert restrict(parse_operator("XYZ"), qubits[1:]) == parse_operator("IIZ")


def test_permute_operator_moves_support():
    p = PauliOperator.from_support(4, x=(0,), z=(3,))
    perm = (2, 0, 1, 3)  # old index -> new index
    q = permute_operator(p, perm)
    assert q.x_support() == (2,)
    assert q.z_support() == (3,)


def test_permute_operator_respects_products():
    rng = np.random.default_rng(23)
    for _ in range(200):
        p, q = random_op(rng, 7), random_op(rng, 7)
        perm = tuple(int(i) for i in rng.permutation(7))
        assert permute_operator(multiply(p, q), perm) == multiply(
            permute_operator(p, perm), permute_operator(q, perm)
        )


def test_operator_equality_and_hash():
    a = PauliOperator.from_support(3, x=(1,))
    b = PauliOperator.from_support(3, x=(1,))
    c = PauliOperator.from_support(3, z=(1,))
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert len({a, b, c}) == 2


@pytest.mark.parametrize(
    "n, x_bits, z_bits",
    [
        (3, [2, 0, 0], [0, 0, 0]),  # an entry past 1 would otherwise wrap mod 2
        (3, [-1, 0, 0], [0, 0, 0]),
        (3, [1, 0], [0, 0, 0]),
        (3, [0, 0, 0], [[0, 0, 0]]),
        (3, [[1], [0, 0]], [0, 0, 0]),
        (-1, [], []),
        (2.0, [0, 0], [0, 0]),
    ],
    ids=["entry-2", "entry-minus-1", "short", "2-d", "ragged", "n-negative", "n-float"],
)
def test_constructor_rejects_malformed_input(n, x_bits, z_bits):
    with pytest.raises(ValidationError):
        PauliOperator(n, x_bits, z_bits)


@pytest.mark.parametrize("n", [-1, 2.0, "3"])
def test_support_constructors_reject_a_bad_register_size(n):
    with pytest.raises(ValidationError, match="qubit count"):
        PauliOperator.from_support(n)
    with pytest.raises(ValidationError, match="qubit count"):
        PauliOperator.identity(n)


@pytest.mark.parametrize("row", [1 << 3, -1, 1 << 70, 1.0, np.int64(1)])
def test_packed_constructor_rejects_rows_off_the_register(row):
    with pytest.raises(ValidationError, match="not a packed row"):
        PauliOperator._packed(3, 0b101, row)
    with pytest.raises(ValidationError, match="not a packed row"):
        PauliOperator._packed(3, row, 0)


def test_constructor_packs_bit_q_as_qubit_q():
    p = PauliOperator(5, [1, 0, 0, 1, 1], np.array([0, 1, 0, 0, 1], dtype=np.uint8))
    assert (p.n, p.x, p.z) == (5, 0b11001, 0b10010)
    assert p == PauliOperator._packed(5, 0b11001, 0b10010)
    assert format_operator(p) == "XZIXY"
    assert PauliOperator(0, [], []) == PauliOperator.identity(0)


def test_views_are_read_only_and_cached():
    q = PauliOperator(3, [1, 0, 0], [0, 0, 0])
    members = {q}
    assert q.x_bits is q.x_bits
    assert q.x_bits.dtype == np.uint8 and q.x_bits.tolist() == [1, 0, 0]
    with pytest.raises(ValueError):
        q.x_bits[2] = 1
    with pytest.raises(ValueError):
        q.z_bits[:] = 1
    # reading the views changed nothing the set sees
    assert q in members and format_operator(q) == "XII"
    for clone in (pickle.loads(pickle.dumps(q)), copy.deepcopy(q)):
        assert clone == q and clone in members
        with pytest.raises(ValueError):
            clone.x_bits[2] = 1
        with pytest.raises(ValueError):
            clone.z_bits[0] = 1
        assert format_operator(clone) == "XII"


WIDTHS = [0, 1, 7, 8, 9, 63, 64, 65, 200]


def _sparse_reference(n, x, z):
    parts = [f"n={n}"]
    for label, bits in (("X", x), ("Z", z)):
        if bits.any():
            parts.append(f"{label}:" + ",".join(str(q) for q in np.nonzero(bits)[0]))
    return "; ".join(parts)


@pytest.mark.parametrize("n", WIDTHS)
def test_operations_match_a_dense_reference(n):
    """Every module function against numpy on the arrays the operators came from."""
    rng = np.random.default_rng(1000 + n)
    for _ in range(25):
        px, pz, qx, qz = (rng.integers(0, 2, size=n, dtype=np.uint8) for _ in range(4))
        p, q = PauliOperator(n, px, pz), PauliOperator(n, qx, qz)
        assert p.x_bits.tolist() == px.tolist() and p.z_bits.tolist() == pz.tolist()

        prod = multiply(p, q)
        assert prod == PauliOperator(n, px ^ qx, pz ^ qz)
        overlap = int(np.sum(px & qz) + np.sum(pz & qx)) % 2
        assert symplectic(p, q) == overlap
        assert commutes(p, q) == (overlap == 0)
        assert weight(p) == int(np.count_nonzero(px | pz))

        support = rng.permutation(n)[: rng.integers(0, n + 1)]
        mask = np.zeros(n, dtype=np.uint8)
        mask[support] = 1
        assert restrict(p, support) == PauliOperator(n, px & mask, pz & mask)

        perm = rng.permutation(n)
        inv = np.argsort(perm)
        assert permute_operator(p, perm) == PauliOperator(n, px[inv], pz[inv])

        assert p.support() == tuple(int(i) for i in np.nonzero(px | pz)[0])
        assert p.x_support() == tuple(int(i) for i in np.nonzero(px)[0])
        assert p.z_support() == tuple(int(i) for i in np.nonzero(pz)[0])

        dense = "".join("IXZY"[a + 2 * b] for a, b in zip(px.tolist(), pz.tolist()))
        assert format_operator(p, style="dense") == dense
        sparse = _sparse_reference(n, px, pz)
        assert format_operator(p, style="sparse") == sparse
        # n=0 renders sparse, as "n=0": its dense string would be empty
        assert format_operator(p) == (dense if 0 < n <= DENSE_LIMIT else sparse)
        assert parse_operator(format_operator(p)) == p
        assert parse_operator(sparse) == p
        if n:
            assert parse_operator(dense) == p
