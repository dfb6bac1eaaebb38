import copy
import hashlib
import json
import pickle
from dataclasses import replace
from pathlib import Path

import gf2_reference as ref
import numpy as np
import pytest

from weldkit import css, gf2, welding
from weldkit.builders import (
    SolidSpec,
    SurfaceSpec,
    build_solid_by_welding,
    build_surface,
    build_two_qubit,
    build_welded_solid,
    build_welded_surface,
    cubic,
    path,
    star,
    surface_welding_chain,
)
from weldkit.css import (
    CssCode,
    GeneratingSet,
    encoded_qubits,
    groups_equal,
    permute_qubits,
    validate,
)
from weldkit.errors import ValidationError, WeldError
from weldkit.pauli import PauliOperator, commutes, format_operator, multiply, parse_operator
from weldkit.verify import _spoiled_cases, random_weld_case, run_verification
from weldkit.welding import (
    QubitIdentification,
    WeldTrace,
    contract,
    parse_identification,
    weld,
    weld_oracle,
)


# Reference pairing: each side's weld-touching rows grouped by their
# restriction to the shared qubits, each group sorted by full row and
# paired in order, extras against the other side's first row.
def reference_check_well_matched(set1, set2, layout, kind):
    mask = shared_mask(layout)
    rows1 = set1.z_rows if kind == "z" else set1.x_rows
    rows2 = set2.z_rows if kind == "z" else set2.x_rows
    seen1 = {(row & mask).tobytes() for row in rows1 if (row & mask).any()}
    seen2 = {(row & mask).tobytes() for row in rows2 if (row & mask).any()}
    for side, rows, other in ((1, rows1, seen2), (2, rows2, seen1)):
        for i, row in enumerate(rows):
            on_weld = row & mask
            if on_weld.any() and on_weld.tobytes() not in other:
                witness = {
                    "side": side,
                    "index": i,
                    "generator": format_operator(typed_op(row, kind)),
                    "shared_restriction": format_operator(typed_op(on_weld, kind)),
                }
                return False, witness
    return True, None


def reference_match_pairs(rows1, rows2, mask):
    def grouped(rows):
        groups = {}
        for i, row in enumerate(rows):
            if (row & mask).any():
                groups.setdefault((row & mask).tobytes(), []).append(i)
        for bucket in groups.values():
            bucket.sort(key=lambda i: rows[i].tobytes())
        return groups

    side1, side2 = grouped(rows1), grouped(rows2)
    pairs = []
    for key in sorted(side1):
        a, b = side1[key], side2[key]
        common = min(len(a), len(b))
        pairs.extend((a[i], b[i]) for i in range(common))
        pairs.extend((a[i], b[0]) for i in range(common, len(a)))
        pairs.extend((a[0], b[i]) for i in range(common, len(b)))
    return pairs


def shared_mask(layout):
    return np.isin(np.arange(layout.n), layout.shared).astype(np.uint8)


def typed_op(bits, kind):
    zero = np.zeros(bits.size, dtype=np.uint8)
    if kind == "x":
        return PauliOperator(bits.size, bits, zero)
    return PauliOperator(bits.size, zero, bits)


def op_bytes(op):
    return op.x_bits.tobytes() + op.z_bits.tobytes()


def reference_entries(code1, code2, ident, kind):
    """Trace entries, as bytes, that the reference pairing gives."""
    layout, set1, set2 = contract(code1, code2, ident)
    mask = shared_mask(layout)
    assert reference_check_well_matched(set1, set2, layout, kind) == (True, None)
    other = "x" if kind == "z" else "z"
    rows = {"x": (set1.x_rows, set2.x_rows), "z": (set1.z_rows, set2.z_rows)}
    none = bytes(2 * layout.n)
    entries = []
    for label, block in (("adopted", other), ("untouched", kind)):
        row = 0
        for side, block_rows in enumerate(rows[block], start=1):
            for bits in block_rows:
                if label == "untouched" and (bits & mask).any():
                    continue
                op = op_bytes(typed_op(bits, block))
                parts = (op, none) if side == 1 else (none, op)
                entries.append((label, block, row, op, *parts, none))
                row += 1
    weld1, weld2 = rows[kind]
    for i, j in reference_match_pairs(weld1, weld2, mask):
        a, b = weld1[i], weld2[j]
        parts = (a ^ b ^ (a & mask), a, b, a & mask)
        ops = (op_bytes(typed_op(p, kind)) for p in parts)
        entries.append(("welded", kind, row, *ops))
        row += 1
    return entries


def golden_weld():
    return weld(build_two_qubit(), build_two_qubit(), [(1, 0)], "z")


def test_golden_weld_produces_three_qubit_group():
    merged = golden_weld()
    want = CssCode(GeneratingSet(3, [[1, 1, 0], [0, 1, 1]], [[1, 1, 1]]))
    assert merged.n == 3
    assert groups_equal(merged, want)
    assert encoded_qubits(merged) == 0


def test_golden_weld_trace_decomposition():
    trace = golden_weld().weld_trace
    assert sorted(e.kind for e in trace.entries) == ["adopted", "adopted", "welded"]
    for entry in trace.entries:
        product = multiply(multiply(entry.part1, entry.part2), entry.shared_part)
        assert entry.op == product

    [merged_row] = [e for e in trace.entries if e.kind == "welded"]
    assert merged_row.op == parse_operator("ZZZ")
    assert merged_row.part1 == parse_operator("ZZI")
    assert merged_row.part2 == parse_operator("IZZ")
    assert merged_row.shared_part == PauliOperator.from_support(3, z=(1,))


def test_repeated_weld_row_pairs_with_the_first_partner():
    base = build_two_qubit()
    doubled = CssCode(GeneratingSet(2, base.x_rows, [[1, 1], [1, 1]]))
    merged = weld(doubled, base, [(1, 0)], "z")
    assert groups_equal(merged, weld_oracle(doubled, base, [(1, 0)], "z"))
    welded = [e.op for e in merged.weld_trace.entries if e.kind == "welded"]
    assert welded == [parse_operator("ZZZ")]


def test_anticommuting_entries_single_out_the_weld():
    # a probe that anticommutes with one pre-weld generator (code 1's ZZ)
    # and commutes with the rest meets only the generator that absorbed it
    merged = golden_weld()
    probe = PauliOperator.from_support(3, x=(0,))
    hits = [e.kind for e in merged.weld_trace.entries if not commutes(e.op, probe)]
    assert hits == ["welded"]


def test_only_a_direct_weld_output_carries_a_trace():
    # a trace names the rows weld produced; a function that rewrites the
    # rows drops it rather than keep a stale one, and the builders weld
    # through their own loop, which makes none
    merged = golden_weld()
    promoted = css.promote_to_logical(merged, "x", 0)
    rewritten = [
        permute_qubits(merged, (2, 0, 1)),
        promoted,
        css.fold_logical(replace(promoted, weld_trace=merged.weld_trace), 0, "x"),
        build_welded_solid(star(3), SolidSpec(1, 1, 2)),
        *(code for _, code in surface_welding_chain()),
    ]
    for code in rewritten:
        assert code.weld_trace is None


def test_weld_matches_kernel_oracle_on_random_cases():
    rng = np.random.default_rng(7)
    for rounds, max_side in ((60, 12), (200, 24)):
        for _ in range(rounds):
            code1, code2, ident, weld_type = random_weld_case(rng, max_side=max_side)
            merged = weld(code1, code2, ident, weld_type)
            assert groups_equal(merged, weld_oracle(code1, code2, ident, weld_type))
            assert encoded_qubits(merged) == 0
            assert validate(merged) is None


def test_weld_and_oracle_return_the_same_adopted_rows():
    # groups_equal compares equal row tuples for free; its other blocks still count
    rng = np.random.default_rng(2212)
    seen = {"x": 0, "z": 0}
    dropped = 0
    while min(seen.values()) < 200:
        code1, code2, ident, kind = random_weld_case(rng, max_side=24)
        if seen[kind] == 200:
            continue
        seen[kind] += 1
        merged = weld(code1, code2, ident, kind)
        oracle = weld_oracle(code1, code2, ident, kind)
        adopted = "x_packed" if kind == "z" else "z_packed"
        assert getattr(merged.gens, adopted) == getattr(oracle.gens, adopted)
        # drop one weld-type row that the others do not span
        rows = merged.z_rows if kind == "z" else merged.x_rows
        rank = len(ref.rref(rows)[0])
        lone = [i for i in range(len(rows)) if len(ref.rref(np.delete(rows, i, 0))[0]) < rank]
        if not lone:
            continue
        fewer = np.delete(rows, lone[0], 0)
        x_rows, z_rows = (merged.x_rows, fewer) if kind == "z" else (fewer, merged.z_rows)
        thinned = GeneratingSet(merged.n, x_rows, z_rows)
        assert getattr(thinned, adopted) == getattr(oracle.gens, adopted)
        assert not groups_equal(thinned, oracle)
        assert not groups_equal(oracle, thinned)
        dropped += 1
    assert dropped >= 300


def test_trace_free_weld_returns_welds_rows_and_layout():
    rng = np.random.default_rng(2510)
    seen = {"x": 0, "z": 0}
    while min(seen.values()) < 200:
        code1, code2, ident, kind = random_weld_case(rng, max_side=24)
        if seen[kind] == 200:
            continue
        seen[kind] += 1
        gens, layout, _ = welding._weld_gens(code1, code2, ident, kind)
        merged = weld(code1, code2, ident, kind)
        assert isinstance(merged.weld_trace, WeldTrace)
        assert type(gens.x_packed) is type(gens.z_packed) is tuple
        assert (gens.x_packed, gens.z_packed) == (merged.gens.x_packed, merged.gens.z_packed)
        assert layout == merged.weld_trace.layout


def test_single_welds_scan_their_seam_without_an_index(monkeypatch):
    # only a graph weld's assembly indexes rows, at its boundary qubits;
    # a single weld finds code 1's seam in one scan of its block
    indexed = []
    index_rows = welding._Indexed.index_rows

    def counting(self, *args):
        indexed.append(args)
        return index_rows(self, *args)

    monkeypatch.setattr(welding._Indexed, "index_rows", counting)
    code1, code2, ident, kind = random_weld_case(np.random.default_rng(5), max_side=24)
    assert ident
    weld(code1, code2, ident, kind)
    welding._weld_gens(code1, code2, ident, kind)
    assert indexed == []


def test_verify_rounds_build_no_trace(monkeypatch):
    traced = []

    def counting(*args):
        traced.append(args[1])
        return trace(*args)

    trace = welding._trace
    monkeypatch.setattr(welding, "_trace", counting)
    counts = []
    for rounds in (0, 50):
        traced.clear()
        assert run_verification(seed=4, rounds=rounds).ok
        counts.append(len(traced))
    # the golden two-qubit z-weld; the spoiled and logical-carrying
    # inputs are rejected before a trace is made
    assert counts == [1, 1] and traced == ["z"]


def test_weld_reproduces_the_reference_pairing():
    rng = np.random.default_rng(5)
    for rounds, max_side in ((100, 12), (100, 24)):
        for _ in range(rounds):
            code1, code2, ident, weld_type = random_weld_case(rng, max_side=max_side)
            merged = weld(code1, code2, ident, weld_type)
            want = reference_entries(code1, code2, ident, weld_type)
            got = [
                (e.kind, e.block, e.row)
                + tuple(op_bytes(op) for op in (e.op, e.part1, e.part2, e.shared_part))
                for e in merged.weld_trace.entries
            ]
            assert got == want
            for block, rows in (("x", merged.x_rows), ("z", merged.z_rows)):
                assert [op_bytes(typed_op(r, block)) for r in rows] == [
                    e[3] for e in want if e[1] == block
                ]


def test_weld_trace_entries_are_pinned_by_digest():
    # recorded when the trace was still built from dense embedded copies
    rng = np.random.default_rng(1208)
    digest = hashlib.sha256()
    for i in range(300):
        code1, code2, ident, kind = random_weld_case(rng, max_side=12 if i < 150 else 24)
        trace = weld(code1, code2, ident, kind).weld_trace
        digest.update(f"{trace.layout.n}|".encode())
        for e in trace.entries:
            digest.update(f"{e.kind},{e.block},{e.row};".encode())
            for op in (e.op, e.part1, e.part2, e.shared_part):
                digest.update(op_bytes(op))
    assert digest.hexdigest() == (
        "efff42879c44d0a8687c2b0869c0e0294ccf43fcc89e1d28c39bc5b64970ae7a"
    )


def test_trace_views_match_the_packed_rows_and_are_read_only():
    rng = np.random.default_rng(16)
    for _ in range(40):
        trace = weld(*random_weld_case(rng)).weld_trace
        for e in trace.entries:
            for op in (e.op, e.part1, e.part2, e.shared_part):
                assert PauliOperator(op.n, op.x_bits, op.z_bits) == op
                for view in (op.x_bits, op.z_bits):
                    with pytest.raises(ValueError):
                        view[0] = 1 - view[0]


def test_weld_outputs_copy_with_their_trace():
    rng = np.random.default_rng(28)
    for merged in [golden_weld()] + [weld(*random_weld_case(rng)) for _ in range(20)]:
        for clone in (pickle.loads(pickle.dumps(merged)), copy.deepcopy(merged)):
            assert clone.weld_trace == merged.weld_trace
            assert (clone.gens.x_packed, clone.gens.z_packed) == (
                merged.gens.x_packed,
                merged.gens.z_packed,
            )
            for e in clone.weld_trace.entries:
                for op in (e.op, e.part1, e.part2, e.shared_part):
                    assert not (op.x_bits.flags.writeable or op.z_bits.flags.writeable)


def test_weld_and_oracle_validate_each_input_code_once(monkeypatch):
    calls = []
    real = css.validate
    monkeypatch.setattr(css, "validate", lambda code: calls.append(code) or real(code))
    code1, code2 = build_two_qubit(), build_two_qubit()
    merged = weld(code1, code2, [(1, 0)], "z")
    assert groups_equal(merged, weld_oracle(code1, code2, [(1, 0)], "z"))
    assert calls == [code1, code2]


def test_rejected_inputs_raise_on_every_call(monkeypatch):
    # encodes one qubit, and carries a promoted logical
    encoding = CssCode(GeneratingSet(2, [[1, 1]], []))
    surface = build_surface(SurfaceSpec(2, 2))
    calls = []
    real = css.validate
    monkeypatch.setattr(css, "validate", lambda code: calls.append(code) or real(code))
    for bad, message in ((encoding, "encodes 1 qubits"), (surface, "promoted logicals")):
        for attempt in (weld, weld_oracle, weld):
            with pytest.raises(ValidationError, match=message):
                attempt(bad, build_two_qubit(), [(0, 0)], "z")
    assert calls == [encoding] * 3 + [surface] * 3


def test_weld_raises_the_witnesses_of_the_reference_checks():
    for (code1, code2, ident, kind), check in _spoiled_cases(np.random.default_rng(3)):
        if check == "self_weld":
            continue
        with pytest.raises(WeldError) as exc:
            weld(code1, code2, ident, kind)
        assert exc.value.check == check
        witness = exc.value.witness
        layout, set1, set2 = contract(code1, code2, ident)
        if check == "well_matched":
            assert reference_check_well_matched(set1, set2, layout, kind) == (False, witness)
            continue
        # the witness indexes the first side whose touching rows lose rank on the weld
        mask = shared_mask(layout)
        for gens in (set1, set2):
            rows = gens.z_rows if kind == "z" else gens.x_rows
            touching = rows[(rows & mask).any(axis=1)]
            if len(ref.rref(touching & mask)[0]) < len(ref.rref(touching)[0]):
                break
        else:
            pytest.fail("neither side is dependent on the weld")
        product = np.bitwise_xor.reduce(rows[list(witness["subset"])])
        assert product.any() and not (product & mask).any()
        assert format_operator(typed_op(product, kind)) == witness["product"]


def test_weld_is_symmetric_up_to_relabeling():
    rng = np.random.default_rng(11)
    for _ in range(6):
        code1, code2, ident, weld_type = random_weld_case(rng, max_side=8)
        pairing = QubitIdentification(tuple(tuple(p) for p in ident))
        forward = weld(code1, code2, pairing, weld_type)
        backward = weld(code2, code1, pairing.swapped(), weld_type)
        assert forward.n == backward.n

        lay_f = forward.weld_trace.layout
        lay_b = backward.weld_trace.layout
        # code 1 keeps its qubit indices on either layout
        perm = [0] * forward.n
        for i, q in enumerate(lay_b.embed2):
            perm[q] = i
        for j in range(code2.n):
            perm[j] = lay_f.embed2[j]
        assert groups_equal(permute_qubits(backward, perm), forward)


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_welded_solid(star(3), SolidSpec(1, 1, 2)),
        lambda: build_solid_by_welding(SolidSpec(1, 1, 2)),
        lambda: build_welded_surface(path(4), "smooth", SurfaceSpec(2, 2)),
    ],
    ids=["welded-solid", "solid-by-welding", "smooth-surface"],
)
def test_welded_builds_validate_each_generating_set_once(monkeypatch, build):
    # holding every validated set keeps its id() from being reused
    seen = []
    original = css.validate

    def recording(gens):
        seen.append(gens.gens if isinstance(gens, CssCode) else gens)
        return original(gens)

    monkeypatch.setattr(css, "validate", recording)
    build()
    assert len(seen) > 1
    assert len({id(gens) for gens in seen}) == len(seen)


def test_graph_welds_check_independence_on_the_restrictions_alone(monkeypatch):
    # a full restriction rank settles independence, so no seam check of a
    # graph build echelons the merged string or any row past its seam
    masks, ranked = [], []
    seam, echelon = welding._require_seam, gf2._echelon

    def recording_seam(sides, mask, kind, n):
        masks.append(mask)
        try:
            return seam(sides, mask, kind, n)
        finally:
            masks.pop()

    def recording_echelon(rows):
        if masks:
            ranked.append(all(row & ~masks[-1] == 0 for row in rows))
        return echelon(rows)

    monkeypatch.setattr(welding, "_require_seam", recording_seam)
    monkeypatch.setattr(gf2, "_echelon", recording_echelon)
    build_welded_solid(cubic(3, 3, 3), SolidSpec(1, 1, 2))
    assert ranked and all(ranked)


def test_unmatched_generator_is_rejected_with_witness():
    touching = build_two_qubit()
    bare = CssCode(GeneratingSet(2, [[1, 0], [0, 1]], []))
    with pytest.raises(WeldError) as exc:
        weld(touching, bare, [(1, 0)], "z")
    assert exc.value.check == "well_matched"
    witness = exc.value.witness
    assert witness["side"] == 1 and witness["index"] == 0
    assert "Z" in witness["shared_restriction"]


def test_dependent_weld_restrictions_are_rejected():
    # independent in full, but rank two once restricted to the weld
    rows = np.array(
        [
            [0, 1, 1, 0, 0, 0],
            [1, 0, 0, 1, 0, 0],
            [1, 1, 0, 0, 1, 0],
        ],
        dtype=np.uint8,
    )
    kernel = ref.null_space(rows)
    assert gf2._kernel(gf2._pack(rows), 6) == gf2._pack(kernel)
    left = CssCode(GeneratingSet(6, rows, kernel))
    right = CssCode(GeneratingSet(6, rows.copy(), kernel.copy()))
    with pytest.raises(WeldError) as exc:
        weld(left, right, [(0, 0), (1, 1)], "x")
    assert exc.value.check == "weld_independence"
    assert exc.value.witness is not None
    assert "subset" in exc.value.witness and "product" in exc.value.witness


def test_welding_a_code_to_itself_is_rejected():
    twin = build_two_qubit()
    with pytest.raises(WeldError) as exc:
        weld(twin, twin, [(0, 0)], "z")
    assert exc.value.check == "self_weld"
    # two equal but distinct objects are fine
    merged = weld(build_two_qubit(), build_two_qubit(), [(0, 0)], "z")
    assert merged.n == 3


def test_inputs_must_encode_nothing():
    surface = build_surface(SurfaceSpec(2, 2))
    with pytest.raises(ValidationError) as exc:
        weld(surface, build_two_qubit(), [(0, 0)], "z")
    assert not isinstance(exc.value, WeldError)


def test_weld_type_is_checked():
    with pytest.raises(ValidationError):
        weld(build_two_qubit(), build_two_qubit(), [(0, 0)], "y")


def test_contract_layout_and_embeddings():
    layout, set1, set2 = contract(build_two_qubit(), build_two_qubit(), [(1, 0)])
    assert (layout.n, layout.embed2) == (3, (1, 2))
    assert layout.shared == (1,)
    assert set1.z_rows.tolist() == [[1, 1, 0]]
    assert set2.z_rows.tolist() == [[0, 1, 1]]


def test_contract_range_checks():
    with pytest.raises(ValidationError):
        contract(build_two_qubit(), build_two_qubit(), [(5, 0)])
    with pytest.raises(ValidationError):
        contract(build_two_qubit(), build_two_qubit(), [(0, 5)])


@pytest.mark.parametrize("pairs", [((1.7, 0),), ((1.0, 0),), ((0, "3"),), (("1", "0"),)])
def test_identification_rejects_non_integers(pairs):
    with pytest.raises(ValidationError, match="must be integers"):
        QubitIdentification(pairs)
    with pytest.raises(ValidationError, match="must be integers"):
        weld(build_two_qubit(), build_two_qubit(), pairs, "z")


def test_identification_accepts_numpy_integers():
    ident = QubitIdentification(((np.int64(1), np.uint8(0)),))
    assert ident.pairs == ((1, 0),)
    assert all(type(q) is int for q in ident.pairs[0])


def test_parse_identification_accepts_comments_and_blanks():
    ident = parse_identification("0 3\n# full line comment\n2 1  # trailing\n\n")
    assert ident.pairs == ((0, 3), (2, 1))
    assert len(ident) == 2


def test_parse_identification_rejects_malformed():
    with pytest.raises(ValidationError):
        parse_identification("0 1 2\n")
    with pytest.raises(ValidationError):
        parse_identification("0 x\n")
    with pytest.raises(ValidationError):
        parse_identification("0 1\n0 2\n")
    with pytest.raises(ValidationError):
        parse_identification("0 1\n2 1\n")


def test_verify_reports_match_the_bench_reference():
    # the benchmark's verify workload checks the same reports, digested as
    # bench/workloads.py report_digest does; the digest pins the random
    # stream and the spoiled instances' witnesses
    reference = Path(__file__).resolve().parents[1] / "bench" / "reference" / "verify.json"
    want = json.loads(reference.read_text())
    for seed in (0, 3):
        report = run_verification(seed=seed, rounds=1000, max_side=24)
        checks = [(check.name, check.ok, check.detail) for check in report.checks]
        assert hashlib.sha256(repr(checks).encode() + b"|").hexdigest() == want[str(seed)]


def test_verification_rejects_bad_arguments():
    with pytest.raises(ValidationError, match="rounds"):
        run_verification(rounds=-1)
    with pytest.raises(ValidationError, match="seed must not be negative, got -3"):
        run_verification(seed=-3, rounds=1)
    for seed in (1.5, "2", None):
        with pytest.raises(ValidationError, match="seed must be an integer"):
            run_verification(seed=seed, rounds=1)
    assert run_verification(seed=np.int64(3), rounds=2) == run_verification(seed=3, rounds=2)
    for rounds in (0, 1):
        for max_side in (3, -7):
            with pytest.raises(ValidationError, match=f"max_side must be at least 4, got {max_side}"):
                run_verification(rounds=rounds, max_side=max_side)
    with pytest.raises(ValidationError, match="max_side"):
        random_weld_case(np.random.default_rng(0), max_side=3)
    for sizes in ({"rounds": 2.5}, {"rounds": "3"}, {"rounds": 3, "max_side": 6.5}):
        with pytest.raises(ValidationError, match="rounds and max_side must be integers"):
            run_verification(**sizes)
    with pytest.raises(ValidationError, match="max_side must be integers"):
        random_weld_case(np.random.default_rng(0), 6.5)
    assert run_verification(rounds=np.int64(2), max_side=np.uint8(6)).ok
    # the smallest side that always fits three shared qubits and an interior one
    rng = np.random.default_rng(0)
    for _ in range(50):
        code1, code2, ident, weld_type = random_weld_case(rng, max_side=4)
        merged = weld(code1, code2, ident, weld_type)
        assert groups_equal(merged, weld_oracle(code1, code2, ident, weld_type))
