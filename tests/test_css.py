import copy
import hashlib
import pickle
from dataclasses import replace

import gf2_reference as ref
import numpy as np
import pytest

from weldkit.builders import (
    SolidSpec,
    SurfaceSpec,
    build_repetition,
    build_solid,
    build_surface,
    build_two_qubit,
    build_welded_solid,
    build_welded_surface,
    grid2d,
    star,
)
from weldkit.css import (
    CssCode,
    GeneratingSet,
    LogicalClass,
    anticommuting_partner,
    distance,
    dumps,
    encoded_qubits,
    fold_logical,
    from_json_dict,
    from_text,
    groups_equal,
    loads,
    permute_qubits,
    promote_to_logical,
    syndrome,
    to_json_dict,
    to_text,
    validate,
    validate_or_raise,
)
from weldkit import gf2
from weldkit.errors import FeasibilityError, ValidationError
from weldkit.pauli import PauliOperator, multiply, parse_operator


def steane_like_block():
    # the three-qubit phase-flip group as a plain generating set
    return GeneratingSet(3, [[1, 1, 0], [0, 1, 1]], [])


def test_validate_flags_anticommuting_rows():
    bad = GeneratingSet(2, [[1, 0]], [[1, 0]])
    violation = validate(bad)
    assert violation is not None
    assert violation.x_index == 0 and violation.z_index == 0
    with pytest.raises(ValidationError):
        validate_or_raise(bad)
    assert validate(GeneratingSet(2, [[1, 1]], [[1, 1]])) is None


def test_validate_reports_first_pair_in_row_major_order():
    rng = np.random.default_rng(7)
    for n in (5, 9, 64, 130):
        for _ in range(20):
            z = rng.integers(0, 2, size=(int(rng.integers(1, n)), n), dtype=np.uint8)
            kernel = ref.null_space(z)
            assert gf2._kernel(gf2._pack(z), n) == gf2._pack(kernel)
            x = (rng.integers(0, 2, size=(n, kernel.shape[0]), dtype=np.uint8) @ kernel) % 2
            assert validate(GeneratingSet(n, x, z)) is None
            for _ in range(int(rng.integers(2, 6))):
                # one flipped bit anticommutes the x row with every z row on it
                x[rng.integers(0, x.shape[0]), rng.integers(0, n)] ^= 1
            overlap = (x.astype(np.int64) @ z.T.astype(np.int64)) % 2
            violation = validate(GeneratingSet(n, x, z))
            if not overlap.any():
                assert violation is None
                continue
            i, j = (int(v) for v in np.argwhere(overlap)[0])
            assert (violation.x_index, violation.z_index) == (i, j)
            assert violation.message == f"x generator {i} anticommutes with z generator {j}"


def test_validate_logical_messages():
    code = build_surface(SurfaceSpec(2, 2))
    cls = code.logicals[0]
    n = code.n
    assert validate(code) is None

    def message(*classes):
        violation = validate(replace(code, logicals=classes))
        return violation.message if violation is not None else None

    mixed = PauliOperator(n, cls.x_rep.x_bits, cls.x_rep.x_bits)
    assert message(LogicalClass(mixed, cls.z_rep)) == (
        "logical class 0 representatives are not pure"
    )
    assert message(LogicalClass(cls.x_rep, PauliOperator.identity(n))) == (
        "logical class 0 representatives commute"
    )
    # a qubit outside the partner's support that some generator touches
    q = next(q for q in range(n) if not cls.z_rep.z_bits[q] and code.z_rows[:, q].any())
    flip = PauliOperator.from_support(n, x=(q,))
    assert message(LogicalClass(multiply(cls.x_rep, flip), cls.z_rep)) == (
        "logical x rep of class 0 anticommutes with a generator"
    )
    q = next(q for q in range(n) if not cls.x_rep.x_bits[q] and code.x_rows[:, q].any())
    flip = PauliOperator.from_support(n, z=(q,))
    assert message(LogicalClass(cls.x_rep, multiply(cls.z_rep, flip))) == (
        "logical z rep of class 0 anticommutes with a generator"
    )
    assert message(cls, cls) == "logical classes 0 and 1 overlap"


def test_stabilizer_rep_is_reported_as_commuting():
    # a rep in its own-type span overlaps evenly with a partner that
    # commutes with every generator, so no "is a stabilizer" check is needed
    code = build_surface(SurfaceSpec(2, 2))
    cls = code.logicals[0]
    n = code.n
    zero = np.zeros(n, np.uint8)
    x_stab = PauliOperator(n, code.x_rows[0] ^ code.x_rows[1], zero)
    z_stab = PauliOperator(n, zero, code.z_rows[0] ^ code.z_rows[1])
    for bad in (LogicalClass(x_stab, cls.z_rep), LogicalClass(cls.x_rep, z_stab)):
        violation = validate(replace(code, logicals=(bad,)))
        assert violation.message == "logical class 0 representatives commute"


def test_logical_rep_on_another_register_is_a_validation_error():
    code = CssCode(GeneratingSet(2, [[1, 0], [0, 1]], []))
    with pytest.raises(ValidationError, match="acts on 3 qubits, the code has 2"):
        promote_to_logical(code, "x", 0, parse_operator("ZII"))
    surface = build_surface(SurfaceSpec(2, 2))
    cls = surface.logicals[0]
    wide = PauliOperator.from_support(surface.n + 1, x=(0,))
    with pytest.raises(ValidationError, match=f"acts on {surface.n + 1} qubits"):
        validate(replace(surface, logicals=(LogicalClass(wide, cls.z_rep),)))


def test_encoded_qubits_counts_rank_deficit():
    assert encoded_qubits(CssCode(steane_like_block())) == 1
    assert encoded_qubits(build_two_qubit()) == 0
    assert encoded_qubits(build_surface(SurfaceSpec(2, 2))) == 1


def test_syndrome_is_linear():
    code = build_surface(SurfaceSpec(2, 2))
    rng = np.random.default_rng(1)
    for _ in range(100):
        a = PauliOperator(
            code.n,
            rng.integers(0, 2, size=code.n, dtype=np.uint8),
            rng.integers(0, 2, size=code.n, dtype=np.uint8),
        )
        b = PauliOperator(
            code.n,
            rng.integers(0, 2, size=code.n, dtype=np.uint8),
            rng.integers(0, 2, size=code.n, dtype=np.uint8),
        )
        sa, sb = syndrome(code, a), syndrome(code, b)
        sab = syndrome(code, multiply(a, b))
        assert set(sab.violated_x) == set(sa.violated_x) ^ set(sb.violated_x)
        assert set(sab.violated_z) == set(sa.violated_z) ^ set(sb.violated_z)


def test_groups_equal_ignores_presentation():
    a = CssCode(GeneratingSet(3, [[1, 1, 0], [0, 1, 1]], [[1, 1, 1]]))
    b = CssCode(GeneratingSet(3, [[1, 1, 0], [1, 0, 1]], [[1, 1, 1]]))
    c = CssCode(GeneratingSet(3, [[1, 1, 0]], [[1, 1, 1]]))
    assert groups_equal(a, b)
    assert not groups_equal(a, c)


def _reference_equal(a, b):
    """True iff both blocks of a and b have the same dense reduced rows."""
    return all(
        np.array_equal(ref.rref(ra)[0], ref.rref(rb)[0])
        for ra, rb in ((a.x_rows, b.x_rows), (a.z_rows, b.z_rows))
    )


def _same_span(rng, block):
    """block's span in another presentation: mixed rows, shuffled, a zero row added."""
    mixed = block.copy()
    for i in range(1, len(mixed)):
        for j in np.flatnonzero(rng.integers(0, 2, size=i)):
            mixed[i] ^= block[j]  # a unitriangular mix keeps the span
    zero = np.zeros((1, block.shape[1]), np.uint8)
    return rng.permutation(np.concatenate([mixed, zero]))


def _block_pairs(rng, n):
    """Pairs of (rows, n) blocks: same rows, same span, random, one rank less, empty."""
    a = rng.integers(0, 2, size=(int(rng.integers(0, 6)), n), dtype=np.uint8)
    if len(a) and rng.integers(0, 2):  # a zero row and a repeated row
        a = np.concatenate([a, np.zeros((1, n), np.uint8), a[:1]])
    empty = np.zeros((0, n), np.uint8)
    yield a, a.copy()
    yield a, _same_span(rng, a)
    yield a, rng.integers(0, 2, size=a.shape, dtype=np.uint8)
    yield a, ref.rref(a)[0][1:]
    yield a, empty
    yield empty, a


def test_groups_equal_matches_the_reference_on_random_blocks():
    rng = np.random.default_rng(22)
    seen = dict.fromkeys(("same rows", "same span", "same rank", "other rank", "empty"), 0)
    for _ in range(150):
        n = int(rng.integers(1, 9))
        for a, b in _block_pairs(rng, n):
            ranks = len(ref.rref(a)[0]), len(ref.rref(b)[0])
            other = rng.integers(0, 2, size=(int(rng.integers(0, 4)), n), dtype=np.uint8)
            for blocks in ((a, b, other, other), (other, other, a, b)):
                x1, x2, z1, z2 = blocks
                g1, g2 = GeneratingSet(n, x1, z1), GeneratingSet(n, x2, z2)
                want = _reference_equal(g1, g2)
                assert groups_equal(g1, g2) is want
                assert groups_equal(g2, g1) is want
                assert groups_equal(CssCode(g1), g2) is want
            if not (len(a) and len(b)):
                seen["empty"] += 1
            elif np.array_equal(a, b):
                seen["same rows"] += 1
            elif ranks[0] != ranks[1]:
                seen["other rank"] += 1
            else:
                same = np.array_equal(ref.rref(a)[0], ref.rref(b)[0])
                seen["same span" if same else "same rank"] += 1
    assert min(seen.values()) >= 20, seen


def test_groups_equal_rejects_sets_on_different_registers():
    with pytest.raises(ValidationError, match="qubit count mismatch: 2 vs 3"):
        groups_equal(GeneratingSet(2, [[1, 1]], []), GeneratingSet(3, [[1, 1, 0]], []))


def test_promote_and_fold_round_trip():
    code = CssCode(
        GeneratingSet(3, [[1, 1, 0], [0, 1, 1], [1, 0, 1]], [[1, 1, 1]])
    )
    promoted = promote_to_logical(code, "z", 0)
    assert encoded_qubits(promoted) == 1
    assert len(promoted.logicals) == 1
    assert promoted.logicals[0].z_rep == parse_operator("ZZZ")
    folded = fold_logical(promoted, 0, "z")
    assert encoded_qubits(folded) == 0
    assert groups_equal(folded, code)
    for index in (1, -1):
        with pytest.raises(ValidationError, match=f"class {index} out of range, the code has 1"):
            fold_logical(promoted, index, "z")


def test_promote_rejects_dependent_row_removal():
    # the x rows sum to zero, so dropping any one leaves the group intact
    code = CssCode(
        GeneratingSet(3, [[1, 1, 0], [0, 1, 1], [1, 0, 1]], [[1, 1, 1]])
    )
    with pytest.raises(ValidationError):
        promote_to_logical(code, "x", 0)
    with pytest.raises(ValidationError):
        promote_to_logical(code, "q", 0)


def test_promote_finds_a_dependent_row_through_its_partner():
    # x row 0 is the sum of the other two, so no operator anticommutes with
    # it alone: the solve for a partner fails, a partner that commutes with
    # the other rows commutes with it too, and one that anticommutes with
    # it anticommutes with another row
    code = CssCode(
        GeneratingSet(3, [[1, 1, 0], [0, 1, 1], [1, 0, 1]], [[1, 1, 1]])
    )
    with pytest.raises(ValidationError, match="no anticommuting partner exists"):
        promote_to_logical(code, "x", 0)
    with pytest.raises(ValidationError, match="class 0 representatives commute"):
        promote_to_logical(code, "x", 0, parse_operator("ZZZ"))
    with pytest.raises(ValidationError, match="z rep of class 0 anticommutes with a generator"):
        promote_to_logical(code, "x", 0, parse_operator("ZII"))


def test_promote_accepts_explicit_partner_only_if_valid():
    code = CssCode(
        GeneratingSet(3, [[1, 1, 0], [0, 1, 1], [1, 0, 1]], [[1, 1, 1]])
    )
    partner = PauliOperator.from_support(3, x=(0,))
    promoted = promote_to_logical(code, "z", 0, partner)
    assert promoted.logicals[0].x_rep == partner
    commuting = PauliOperator.from_support(3, x=(0, 1))
    with pytest.raises(ValidationError):
        promote_to_logical(code, "z", 0, commuting)


def test_promote_checks_a_supplied_partner_against_the_other_classes():
    code = CssCode(GeneratingSet(2, [[1, 0], [0, 1]], []))
    once = promote_to_logical(code, "x", 0, parse_operator("ZI"))
    # ZZ anticommutes with IX, but also with XI, the first class's x rep
    with pytest.raises(ValidationError, match="logical classes 0 and 1 overlap"):
        promote_to_logical(once, "x", 0, parse_operator("ZZ"))
    twice = promote_to_logical(once, "x", 0, parse_operator("IZ"))
    assert validate(twice) is None


def test_anticommuting_partner_properties():
    code = build_surface(SurfaceSpec(2, 2))
    rep = code.logicals[0].z_rep
    partner = anticommuting_partner(code, rep)
    assert partner.is_x_type
    assert int(partner.x_bits @ rep.z_bits) % 2 == 1
    assert not ((code.z_rows @ partner.x_bits) % 2).any()


def _dense_partner(code, rep):
    # the dense solve anticommuting_partner ran before it used packed rows,
    # on the numpy references rather than on the kernels it runs
    n = code.n
    if rep.is_x_type:
        same_rows, same_bits = code.x_rows, rep.x_bits
        other_reps = [c.x_rep.x_bits for c in code.logicals]
    else:
        same_rows, same_bits = code.z_rows, rep.z_bits
        other_reps = [c.z_rep.z_bits for c in code.logicals]
    other_reps = [r for r in other_reps if not np.array_equal(r, same_bits)]
    constraints = np.vstack([same_rows, np.array(other_reps).reshape(-1, n), same_bits])
    targets = np.zeros(constraints.shape[0], np.uint8)
    targets[-1] = 1
    v = ref.reduce_weight(ref.solve(constraints, targets), ref.null_space(constraints))
    zero = np.zeros(n, np.uint8)
    return PauliOperator(n, zero, v) if rep.is_x_type else PauliOperator(n, v, zero)


def _assert_partner_matches_the_dense_solve(code, rep):
    got, want = anticommuting_partner(code, rep), _dense_partner(code, rep)
    for a, b in ((got.x_bits, want.x_bits), (got.z_bits, want.z_bits)):
        assert a.tobytes() == b.tobytes()


def test_anticommuting_partner_matches_the_dense_solve_on_random_codes():
    from weldkit.verify import random_weld_case

    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(40):
        for code in random_weld_case(rng, max_side=16)[:2]:
            for kind in ("x", "z"):
                # a second promotion meets the same-type rep of another class
                promoted = code
                for _ in range(min(2, len(getattr(code.gens, f"{kind}_packed")))):
                    try:
                        promoted = promote_to_logical(promoted, kind, 0)
                    except ValidationError:  # a dependent row
                        break
                    cls = promoted.logicals[-1]
                    rep = cls.x_rep if kind == "x" else cls.z_rep
                    # the rep's own class is left out of the constraints
                    _assert_partner_matches_the_dense_solve(promoted, rep)
                    _assert_partner_matches_the_dense_solve(
                        replace(promoted, logicals=promoted.logicals[:-1]), rep
                    )
                    checked += 1
    assert checked > 100


def test_anticommuting_partner_matches_the_dense_solve_on_a_large_solid():
    from weldkit.builders import SolidSpec, build_solid

    code = fold_logical(build_solid(SolidSpec(8, 8, 8)), 0, "z")
    assert code.n == 1656
    promoted = promote_to_logical(code, "z", len(code.gens.z_packed) - 1)
    draft = replace(promoted, logicals=())
    _assert_partner_matches_the_dense_solve(draft, promoted.logicals[0].z_rep)


def test_anticommuting_partner_rejects_another_register():
    code = build_surface(SurfaceSpec(2, 2))
    for n in (code.n + 1, code.n - 1):
        rep = PauliOperator.from_support(n, z=(0,))
        with pytest.raises(
            ValidationError, match=f"acts on {n} qubits, the code has {code.n}"
        ):
            anticommuting_partner(code, rep)


def test_distance_of_known_codes():
    rep = build_repetition(3)
    dx, dz = distance(rep)
    assert (dx, dz) == (1, 3)
    surf = build_surface(SurfaceSpec(2, 2))
    assert distance(surf) == (3, 2)
    square = build_surface(SurfaceSpec(2, 3))
    assert square.n == 13
    assert distance(square) == (3, 3)
    with pytest.raises(FeasibilityError) as exc:
        distance(square, rank_cap=4)
    assert exc.value.required > exc.value.cap == 4
    for rank_cap, complaint in ((2.5, "an integer, got 2.5"), (0, "at least 1, got 0")):
        with pytest.raises(ValidationError, match=f"rank_cap must be {complaint}"):
            distance(square, rank_cap=rank_cap)


def test_permute_qubits_preserves_structure():
    code = build_surface(SurfaceSpec(2, 2))
    rng = np.random.default_rng(9)
    perm = tuple(int(i) for i in rng.permutation(code.n))
    moved = permute_qubits(code, perm)
    assert validate(moved) is None
    assert encoded_qubits(moved) == 1
    back = tuple(perm.index(i) for i in range(code.n))
    assert groups_equal(permute_qubits(moved, back), code)


def test_text_round_trip():
    code = build_surface(SurfaceSpec(2, 2))
    text = to_text(code)
    assert text.splitlines()[0] == f"n={code.n} k=1"
    again = from_text(text)
    assert groups_equal(again, code)
    assert again.logicals[0].x_rep == code.logicals[0].x_rep
    assert again.logicals[0].z_rep == code.logicals[0].z_rep


def test_a_code_on_no_qubits_round_trips():
    code = CssCode(GeneratingSet._packed(0, [0], []))
    assert to_text(code) == "n=0 k=0\nX: n=0\n"
    for again in (from_text(to_text(code)), loads(dumps(code, "json"))):
        assert (again.n, again.gens.x_packed, again.gens.z_packed) == (0, (0,), ())


def test_json_round_trip():
    code = build_repetition(4)
    data = to_json_dict(code)
    assert set(data) >= {"n", "x_gens", "z_gens", "logical_x", "logical_z"}
    again = loads(dumps(code, "json"))
    assert groups_equal(again, code)
    assert again.logicals == code.logicals


# sha256 of both exports, prefix of 16 hex digits, taken before operators
# held packed rows; the welded solid is past DENSE_LIMIT, so sparse lines.
@pytest.mark.parametrize(
    "build, text_digest, json_digest",
    [
        (lambda: build_surface(SurfaceSpec(4, 3)), "5b92e28f53fcdb0b", "f631a2fe632c07f8"),
        (
            lambda: fold_logical(build_surface(SurfaceSpec(1, 3)), 0, "z"),
            "17cdf24e5978c0e0",
            "6d588fb790f38dfb",
        ),
        (lambda: build_solid(SolidSpec(2, 2, 3)), "51e48bbd5a2392f0", "c265f4dd6e91522c"),
        (
            lambda: build_welded_solid(grid2d(2, 2), SolidSpec(2, 2, 2)),
            "764e235f0c685e57",
            "c7b099e75b985ef2",
        ),
        (
            lambda: build_welded_surface(star(3), "smooth", SurfaceSpec(2, 2)),
            "a51523d815dce7c0",
            "b0cb7ea5254bd2d9",
        ),
    ],
    ids=["surface-4x3", "surface-1x3-folded", "solid-2x2x3", "welded-solid-84q", "welded-surface"],
)
def test_exports_are_pinned(build, text_digest, json_digest):
    code = build()
    for fmt, digest in (("text", text_digest), ("json", json_digest)):
        text = dumps(code, fmt)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
        assert dumps(loads(text), fmt) == text


def test_loads_detects_format():
    code = build_two_qubit()
    assert groups_equal(loads(dumps(code, "text")), code)
    assert groups_equal(loads(dumps(code, "json")), code)


@pytest.mark.parametrize("text", ['{"n": 1', "{not json", '{"n": 1}}'])
def test_loads_reports_bad_json_as_a_validation_error(text):
    with pytest.raises(ValidationError, match="bad JSON"):
        loads(text)


def test_from_text_rejects_malformed():
    with pytest.raises(ValidationError):
        from_text("n=two k=0\n")
    with pytest.raises(ValidationError):
        from_text("n=2 k=0\nX: XX\nQ: ZZ\n")
    with pytest.raises(ValidationError):
        from_text("n=2 k=0\nX: XXX\n")
    with pytest.raises(ValidationError, match="negative"):
        from_text("n=-1 k=0\n")
    with pytest.raises(ValidationError, match="LX and LZ line counts differ"):
        from_text("n=1 k=1\nLX: X\n")
    with pytest.raises(ValidationError, match="header says k=2 but found 1"):
        from_text("n=1 k=2\nLX: X\nLZ: Z\n")
    with pytest.raises(ValidationError, match="X line holds a non-X operator"):
        from_text("n=1 k=0\nX: Z\n")
    with pytest.raises(ValidationError, match="Z line holds a non-Z operator"):
        from_text("n=1 k=0\nZ: X\n")
    for empty in ("", "# nothing but a comment\n"):
        with pytest.raises(ValidationError, match="empty code text"):
            from_text(empty)
    with pytest.raises(ValidationError, match="bad code line"):
        from_text("n=1 k=0\nX X\n")


def test_dumps_rejects_an_unknown_format():
    with pytest.raises(ValidationError, match="unknown code format 'yaml'"):
        dumps(build_two_qubit(), "yaml")


@pytest.mark.parametrize(
    "data, field",
    [
        ({"n": 3, "x_gens": None}, "x_gens"),
        ({"n": 3, "logical_x": 5, "logical_z": 5}, "logical_x"),
        ({"n": 2, "z_gens": ["ZZ", 3]}, "z_gens"),
        ({"n": 2, "logical_x": ["XX"], "logical_z": "ZZ"}, "logical_z"),
    ],
)
def test_json_operator_lists_must_hold_strings(data, field):
    with pytest.raises(ValidationError, match=f"field '{field}' must be a list of strings"):
        from_json_dict(data)


@pytest.mark.parametrize("n, gen", [(2.7, "XX"), (True, "X"), ("3", "XXX"), (None, "X")])
def test_json_qubit_count_must_be_a_json_integer(n, gen):
    with pytest.raises(ValidationError, match="integer 'n'"):
        from_json_dict({"n": n, "x_gens": [gen]})


def test_json_operators_are_parsed_one_by_one():
    # a newline inside an operator string must not start a new text line
    with pytest.raises(ValidationError):
        from_json_dict({"n": 1, "x_gens": ["X\nZ: Z"]})
    code = from_json_dict({"n": 2, "x_gens": ["XX"], "z_gens": ["ZZ"]})
    assert groups_equal(code, build_two_qubit())


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65, 200])
@pytest.mark.parametrize("rows", [0, 1, 5])
def test_views_round_trip_the_packed_rows(n, rows):
    rng = np.random.default_rng(n * 10 + rows)
    x = rng.integers(0, 2, size=(rows, n), dtype=np.uint8)
    z = rng.integers(0, 2, size=(rows + 1, n), dtype=np.uint8)
    dense = GeneratingSet(n, x, z)
    packed = GeneratingSet._packed(n, dense.x_packed, dense.z_packed)
    for gens in (dense, packed):
        assert gens.x_rows.shape == (rows, n) and gens.z_rows.shape == (rows + 1, n)
        assert gens.x_rows.dtype == np.uint8
        assert gens.x_rows.tobytes() == x.tobytes()
        assert gens.z_rows.tobytes() == z.tobytes()
        assert gens.x_packed == tuple(sum(int(b) << q for q, b in enumerate(r)) for r in x)
        assert list(gens.columns("x")) == gf2._pack(x.T)
        assert list(gens.columns("z")) == gf2._pack(z.T)


def test_columns_rejects_an_unknown_kind():
    gens = GeneratingSet(2, [[1, 1]], [[1, 1]])
    with pytest.raises(ValidationError, match="kind must be"):
        gens.columns("y")


def test_views_are_read_only_and_cached():
    gens = GeneratingSet(3, [[1, 1, 0]], [[1, 1, 1]])
    assert gens.x_rows is gens.x_rows
    with pytest.raises(ValueError):
        gens.x_rows[0, 0] = 0
    with pytest.raises(ValueError):
        gens.z_rows[:] = 0
    assert gens.x_packed == (0b011,) and gens.z_packed == (0b111,)
    edited = gens.x_rows.copy()
    edited[0, 0] = 0
    assert gens.x_rows.tolist() == [[1, 1, 0]]
    for clone in (pickle.loads(pickle.dumps(gens)), copy.deepcopy(gens)):
        assert (clone.n, clone.x_packed, clone.z_packed) == (3, (0b011,), (0b111,))
        with pytest.raises(ValueError):
            clone.x_rows[0, 0] = 0


@pytest.mark.parametrize("row", [1 << 3, -1, 1 << 70, 1.0, np.int64(1)])
def test_packed_constructor_rejects_rows_off_the_register(row):
    with pytest.raises(ValidationError, match="not a packed row"):
        GeneratingSet._packed(3, [0b101], [row])


@pytest.mark.parametrize(
    "n, x_rows",
    [
        (1, [[-1]]),
        (1, [[2]]),
        (2, [[1, 0.5]]),
        (2, [["1", "0"]]),
        (1, [[[1]]]),
        (2, [[1, 0], [1]]),
        (2, [[1, 0, 1]]),
        (-1, []),
        (1.5, []),
    ],
    ids=["negative", "two", "fraction", "strings", "3-d", "ragged", "width", "n<0", "n-float"],
)
def test_malformed_generator_blocks_are_rejected(n, x_rows):
    with pytest.raises(ValidationError):
        GeneratingSet(n, x_rows, [])


def test_array_likes_pack_as_before():
    assert GeneratingSet(3, [], np.zeros((0, 5))).x_packed == ()
    assert GeneratingSet(3, [1, 0, 1], [[True, True, False]]).x_packed == (0b101,)
    assert GeneratingSet(2, [[1.0, 0.0]], []).x_packed == (0b01,)
    assert GeneratingSet(np.int64(2), [[0, 1]], []).n == 2


def test_syndrome_and_logical_checks_match_a_dense_reference():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 70))
        x = rng.integers(0, 2, size=(int(rng.integers(1, n + 1)), n), dtype=np.uint8)
        z = ref.null_space(x)
        assert gf2._kernel(gf2._pack(x), n) == gf2._pack(z)
        code = CssCode(GeneratingSet(n, x, z))
        for _ in range(5):
            xb, zb = rng.integers(0, 2, size=(2, n), dtype=np.uint8)
            got = syndrome(code, PauliOperator(n, xb, zb))
            assert got.violated_x == tuple(np.flatnonzero(x @ zb % 2))
            assert got.violated_z == tuple(np.flatnonzero(z @ xb % 2))
            # a class is accepted only if both reps commute with every generator
            zero = np.zeros(n, np.uint8)
            xr, zr = PauliOperator(n, xb, zero), PauliOperator(n, zero, zb)
            if int(xb @ zb) % 2:
                violation = validate(CssCode(code.gens, (LogicalClass(xr, zr),)))
                clean = not (z @ xb % 2).any() and not (x @ zb % 2).any()
                assert (violation is None) == clean
