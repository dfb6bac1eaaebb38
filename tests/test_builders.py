import hashlib
from dataclasses import replace

import numpy as np
import pytest

import weldkit.builders as builders
from weldkit import gf2
from weldkit.builders import (
    FlatRegionGraph,
    QubitPatch,
    SolidSpec,
    SurfaceSpec,
    WeldGraph,
    build_repetition,
    build_solid,
    build_solid_by_welding,
    build_surface,
    build_surface_by_welding,
    build_two_qubit,
    build_welded_solid,
    build_welded_surface,
    cubic,
    flat_region_graph,
    grid2d,
    parse_weld_graph,
    path,
    region_graph_from_weld_graph,
    star,
    surface_welding_chain,
)
from weldkit.css import (
    CssCode,
    GeneratingSet,
    encoded_qubits,
    fold_logical,
    groups_equal,
    syndrome,
    validate,
)
from weldkit.errors import MetadataError, ValidationError, WeldError
from weldkit.pauli import PauliOperator
from weldkit.welding import contract, weld, weld_oracle


def test_welding_chain_sizes():
    chain = surface_welding_chain()
    assert tuple(code.n for _, code in chain) == (2, 3, 5, 7, 8, 13)
    for label, code in chain:
        assert validate(code) is None, label


@pytest.mark.parametrize("width,height", [(1, 1), (1, 3), (2, 2), (2, 3), (3, 2)])
def test_surfaces_by_welding_match_direct(width, height):
    spec = SurfaceSpec(width, height)
    direct = build_surface(spec)
    welded = build_surface_by_welding(spec)
    assert welded.n == direct.n
    assert groups_equal(welded, direct)
    assert encoded_qubits(welded) == 1


@pytest.mark.parametrize(
    "dx,dy,dz", [(1, 1, 1), (1, 1, 2), (2, 1, 2), (1, 1, 3), (2, 2, 1)]
)
def test_solids_by_welding_match_direct(dx, dy, dz):
    spec = SolidSpec(dx, dy, dz)
    direct = build_solid(spec)
    welded = build_solid_by_welding(spec)
    assert welded.n == direct.n
    assert groups_equal(welded, direct)
    assert encoded_qubits(welded) == 1


def test_repetition_is_the_parity_chain():
    code = build_repetition(3)
    assert code.n == 3
    assert validate(code) is None
    assert encoded_qubits(code) == 1
    assert code.x_rows.tolist() == [[1, 1, 0], [0, 1, 1]]
    assert code.z_rows.shape[0] == 0


def test_single_edge_graph_reproduces_one_piece():
    # path(2) has one edge, so the assembly is a lone patch
    lone = build_welded_surface(path(2), "rough", SurfaceSpec(2, 2))
    assert groups_equal(lone, build_surface(SurfaceSpec(2, 2)))
    block = build_welded_solid(path(2), SolidSpec(1, 1, 2))
    assert groups_equal(block, build_solid(SolidSpec(1, 1, 2)))


def test_welded_assembly_sizes():
    # pieces share their boundary faces, so totals shrink accordingly
    assert build_welded_surface(path(3), "rough", SurfaceSpec(2, 2)).n == 13
    assert build_welded_solid(path(3), SolidSpec(1, 1, 2)).n == 20
    assert build_welded_solid(star(3), SolidSpec(1, 1, 2)).n == 28
    assert build_welded_solid(grid2d(2, 2), SolidSpec(1, 1, 2)).n == 32


def test_welded_assemblies_encode_one_qubit():
    for graph in (path(3), star(3), grid2d(2, 2)):
        surface = build_welded_surface(graph, "rough", SurfaceSpec(2, 2))
        assert validate(surface) is None
        assert encoded_qubits(surface) == 1
        solid = build_welded_solid(graph, SolidSpec(1, 1, 2))
        assert validate(solid) is None
        assert encoded_qubits(solid) == 1


def _build_with_stray_face(monkeypatch, on_membrane: bool):
    """build_welded_solid(path(3), SolidSpec(2, 2, 2)) with a lone Z added to its faces.

    The lone Z sits on a qubit of the first piece's top layer, which the
    promoted membrane covers, or on a qubit off that layer.  A lone Z
    anticommutes with the X generators on its qubit, so no product of Z
    generators can equal it.
    """
    real = builders._phantom_welded_faces

    def with_stray_face(graph, asm, lay):
        faces = real(graph, asm, lay)
        assert faces
        embed = asm.piece_embeddings[0][1]
        membrane = {embed[q] for q in lay.layer(0)}
        q = min(membrane if on_membrane else set(range(asm.code.n)) - membrane)
        return faces[:1] + [1 << q] + faces[1:]

    monkeypatch.setattr(builders, "_phantom_welded_faces", with_stray_face)
    build_welded_solid(path(3), SolidSpec(2, 2, 2))


def test_phantom_face_outside_the_group_is_caught(monkeypatch):
    # the membrane overlaps the stray face once, so the promotion refuses it
    with pytest.raises(ValidationError, match="logical x rep of class 0 anticommutes"):
        _build_with_stray_face(monkeypatch, on_membrane=True)


def test_phantom_face_off_the_membrane_is_caught_by_validate(monkeypatch):
    with pytest.raises(ValidationError, match=r"x generator \d+ anticommutes with z generator"):
        _build_with_stray_face(monkeypatch, on_membrane=False)


def test_welded_solid_checks_its_group_with_one_transpose(monkeypatch):
    widths = []
    real = gf2._transpose

    def counting(rows, width):
        widths.append(width)
        return real(rows, width)

    monkeypatch.setattr(gf2, "_transpose", counting)
    code = build_welded_solid(cubic(2, 2, 2), SolidSpec(2, 2, 2))
    assert widths.count(code.n) == 1
    assert "_x_columns" not in code.gens.__dict__
    assert "_z_columns" not in code.gens.__dict__


def test_smooth_welding_also_encodes_one_qubit():
    code = build_welded_surface(star(3), "smooth", SurfaceSpec(2, 2))
    assert validate(code) is None
    assert encoded_qubits(code) == 1


def test_region_metadata_structure():
    code = build_welded_surface(path(3), "rough", SurfaceSpec(2, 2))
    split = flat_region_graph(code, "x")
    roaming = flat_region_graph(code, "z")
    # one region per piece for the split type, one assembly-wide region
    assert len(split.regions) == 2
    assert len(roaming.regions) == 1
    assert roaming.regions[0].qubits == tuple(range(code.n))
    assert len(roaming.boundaries) == 2
    # boundary qubit sets never overlap
    for graph in (split, roaming):
        seen = set()
        for patch in graph.boundaries:
            assert not seen.intersection(patch.qubits)
            seen.update(patch.qubits)


def region_digest(code) -> str:
    h = hashlib.sha256()
    for kind, graph in sorted(code.region_metadata.items()):
        patches = [
            [(p.label, p.qubits) for p in group]
            for group in (graph.regions, graph.boundaries)
        ]
        record = (kind, graph.particle_type, graph.n, patches, graph.incidence)
        h.update(repr(record).encode())
    return h.hexdigest()[:16]


def code_digest(code) -> str:
    h = hashlib.sha256()
    h.update(repr((code.n, code.x_rows.shape, code.z_rows.shape)).encode())
    h.update(code.x_rows.tobytes())
    h.update(code.z_rows.tobytes())
    for cls in code.logicals:
        for op in (cls.x_rep, cls.z_rep):
            h.update(op.x_bits.tobytes())
            h.update(op.z_bits.tobytes())
    if code.region_metadata:
        h.update(region_digest(code).encode())
    return h.hexdigest()[:16]


# Rows in order, logicals and region metadata of the welded routes, pinned
# so that a change to the assembly loop shows as a changed output.
@pytest.mark.parametrize(
    "size, digest",
    [
        ((1, 1), "43b35b10fd3b3a81"),
        ((1, 2), "9767b1664ccccfeb"),
        ((1, 3), "5e8e2de4ff6d52ce"),
        ((1, 4), "e34869d7c9bb0d14"),
        ((2, 1), "63c3036bb404bdf6"),
        ((2, 2), "1038436776736192"),
        ((2, 3), "00ab0069267c0b57"),
        ((2, 4), "e41d344ce5911cd3"),
        ((3, 1), "9c920ea0d7405e81"),
        ((3, 2), "36f8563f8fb2e3a4"),
        ((3, 3), "60eb38486b4ed844"),
        ((3, 4), "dfcc1577c858b628"),
        ((4, 1), "81bf7df0daf96eca"),
        ((4, 2), "783490baa2ea6744"),
        ((4, 3), "ad29c57e421ba4d0"),
        ((4, 4), "6b18fb96dafb940a"),
        ((5, 1), "c953176745eecdd7"),
        ((5, 2), "c78a227af1af2467"),
        ((5, 3), "f28fd7c88e8a0db7"),
        ((5, 4), "05f84537ae4eb7e6"),
    ],
)
def test_surface_by_welding_is_pinned(size, digest):
    assert code_digest(build_surface_by_welding(SurfaceSpec(*size))) == digest


def test_surface_welding_chain_is_pinned():
    want = [
        ("two-qubit", "4fbe237cf78f3919"),
        ("three-qubit", "ef90ce9a3d1436e1"),
        ("five-qubit", "9767b1664ccccfeb"),
        ("seven-qubit", "38028a2e3cb693bb"),
        ("eight-qubit", "1038436776736192"),
        ("thirteen-qubit", "00ab0069267c0b57"),
    ]
    assert [(label, code_digest(code)) for label, code in surface_welding_chain()] == want


@pytest.mark.parametrize(
    "size, digest",
    [
        ((1, 1, 1), "7f33add2bcc2bb0e"),
        ((1, 1, 2), "bd80e71dd4f4570d"),
        ((2, 1, 2), "e77c2512653ffb4d"),
        ((2, 2, 3), "8343257b008bdec4"),
    ],
)
def test_solid_by_welding_is_pinned(size, digest):
    assert code_digest(build_solid_by_welding(SolidSpec(*size))) == digest


# The direct builders, pinned the same way: their index bookkeeping is
# shared with the welded routes, so a change to it shows here first.
@pytest.mark.parametrize(
    "build, digest",
    [
        (lambda: build_surface(SurfaceSpec(1, 1)), "43b35b10fd3b3a81"),
        (lambda: fold_logical(build_surface(SurfaceSpec(1, 1)), 0, "z"), "ebd484891a2a4112"),
        (lambda: build_surface(SurfaceSpec(3, 1)), "9c920ea0d7405e81"),
        (lambda: fold_logical(build_surface(SurfaceSpec(3, 1)), 0, "z"), "b4bad8965a275800"),
        (lambda: build_surface(SurfaceSpec(1, 3)), "2b2c4b479759151a"),
        (lambda: fold_logical(build_surface(SurfaceSpec(1, 3)), 0, "z"), "d58819c1caaf5ace"),
        (lambda: build_surface(SurfaceSpec(4, 3)), "f8fc44e31c2aa5c0"),
        (lambda: fold_logical(build_surface(SurfaceSpec(4, 3)), 0, "z"), "5e16fcd9cd5f1355"),
        (lambda: build_solid(SolidSpec(1, 1, 1)), "56d004b773484fcc"),
        (lambda: build_solid(SolidSpec(1, 1, 1, True)), "318a2a34488b134c"),
        (lambda: build_solid(SolidSpec(2, 3, 1)), "d14ff34b6c234fcc"),
        (lambda: build_solid(SolidSpec(2, 3, 1, True)), "2b54f4f3a9972d3a"),
        (lambda: build_solid(SolidSpec(3, 2, 2)), "71bfe5354a244bd1"),
        (lambda: build_solid(SolidSpec(3, 2, 2, True)), "71a6629c5b0e6ef9"),
        (lambda: build_solid(SolidSpec(2, 2, 3)), "7d34707978cc8fdf"),
        (lambda: build_solid(SolidSpec(2, 2, 3, True)), "7de88a9ce39bf1bb"),
    ],
    ids=[
        "surface-1x1", "surface-1x1-folded", "surface-3x1", "surface-3x1-folded",
        "surface-1x3", "surface-1x3-folded", "surface-4x3", "surface-4x3-folded",
        "solid-1x1x1", "solid-1x1x1-plaq", "solid-2x3x1", "solid-2x3x1-plaq",
        "solid-3x2x2", "solid-3x2x2-plaq", "solid-2x2x3", "solid-2x2x3-plaq",
    ],
)
def test_direct_builders_are_pinned(build, digest):
    assert code_digest(build()) == digest


def test_horizontal_plaquettes_are_redundant():
    plain = build_solid(SolidSpec(2, 2, 3))
    full = build_solid(SolidSpec(2, 2, 3, horizontal_plaquettes=True))
    assert full.z_rows.shape[0] > plain.z_rows.shape[0]
    assert validate(full) is None
    assert groups_equal(full, plain)
    # Z particles cannot cross a sheet silently any more, so no flat-Z graph
    assert flat_region_graph(full, "x") == flat_region_graph(plain, "x")
    with pytest.raises(MetadataError):
        flat_region_graph(full, "z")
    spec = SolidSpec(1, 1, 2, horizontal_plaquettes=True)
    with pytest.raises(ValidationError, match="half-plaquette"):
        build_welded_solid(path(3), spec)
    with pytest.raises(ValidationError, match="half-plaquettes"):
        build_solid_by_welding(spec)
    # a numpy bool is a flag too, kept as a bool
    assert SolidSpec(2, 2, 3, np.True_).horizontal_plaquettes is True


@pytest.mark.parametrize(
    "build, digest",
    [
        (lambda: build_welded_solid(star(3), SolidSpec(1, 1, 2)), "7264a376be0396fd"),
        (
            lambda: build_welded_solid(grid2d(2, 2), SolidSpec(1, 1, 2)),
            "7e4582bce0f910a1",
        ),
        (
            lambda: build_welded_surface(star(3), "rough", SurfaceSpec(2, 2)),
            "efacddc6846103ca",
        ),
        (
            lambda: build_welded_surface(path(3), "smooth", SurfaceSpec(2, 2)),
            "f87fb044661c30f8",
        ),
        (lambda: build_solid(SolidSpec(2, 2, 3)), "4de6c26007ad76bd"),
    ],
    ids=["solid-star3", "solid-grid2x2", "rough-surface", "smooth-surface", "solid"],
)
def test_region_metadata_is_pinned(build, digest):
    # labels, qubit sets, their order and the incidence, all of both types
    assert region_digest(build()) == digest


# Rows in order, logicals and region metadata of the welded assemblies.
@pytest.mark.parametrize(
    "build, digest",
    [
        (lambda: build_welded_solid(star(3), SolidSpec(1, 1, 2)), "cea77beef35b3bcb"),
        (lambda: build_welded_solid(star(3), SolidSpec(2, 2, 2)), "f5ff719a5745f7d0"),
        (lambda: build_welded_solid(grid2d(2, 2), SolidSpec(1, 1, 2)), "6099c099fb87cb25"),
        (lambda: build_welded_solid(grid2d(2, 2), SolidSpec(2, 2, 2)), "b6ce6ced7db15e29"),
        (lambda: build_welded_solid(cubic(2, 2, 2), SolidSpec(1, 1, 2)), "8b2778871c11c08c"),
        (lambda: build_welded_solid(cubic(2, 2, 2), SolidSpec(2, 2, 2)), "ea29614151c06b4c"),
        (lambda: build_welded_solid(cubic(3, 3, 3), SolidSpec(1, 1, 2)), "c8951835645f4207"),
        (lambda: build_welded_solid(cubic(4, 4, 4), SolidSpec(1, 1, 2)), "caac66c38de1884d"),
        (lambda: build_welded_surface(path(3), "rough", SurfaceSpec(2, 2)), "37440f63c85887e1"),
        (lambda: build_welded_surface(path(3), "rough", SurfaceSpec(3, 3)), "539359d86297fcfa"),
        (lambda: build_welded_surface(path(3), "smooth", SurfaceSpec(2, 2)), "abc040a5eb58020c"),
        (lambda: build_welded_surface(path(3), "smooth", SurfaceSpec(3, 3)), "bff625e249bcddbd"),
        (lambda: build_welded_surface(star(3), "rough", SurfaceSpec(2, 2)), "e1582e4fe7c4b395"),
        (lambda: build_welded_surface(star(3), "rough", SurfaceSpec(3, 3)), "3876e742ed513dc8"),
        (lambda: build_welded_surface(star(3), "smooth", SurfaceSpec(2, 2)), "3556ff311dc586e6"),
        (lambda: build_welded_surface(star(3), "smooth", SurfaceSpec(3, 3)), "43e2cdca885c194c"),
        (
            lambda: build_welded_surface(grid2d(3, 3), "rough", SurfaceSpec(2, 2)),
            "9340035782cb4310",
        ),
        (
            lambda: build_welded_surface(grid2d(3, 3), "rough", SurfaceSpec(3, 3)),
            "e979a0de21b342d7",
        ),
        (
            lambda: build_welded_surface(grid2d(3, 3), "smooth", SurfaceSpec(2, 2)),
            "c0adb52079f14ed5",
        ),
        (
            lambda: build_welded_surface(grid2d(3, 3), "smooth", SurfaceSpec(3, 3)),
            "3fc1da8fd4dcf8bd",
        ),
        (lambda: build_welded_surface(star(3), "smooth", SurfaceSpec(2, 1)), "3ca95d313cc722ce"),
    ],
    ids=[
        "solid-star3-1x1x2", "solid-star3-2x2x2", "solid-grid2x2-1x1x2",
        "solid-grid2x2-2x2x2", "solid-cubic2-1x1x2", "solid-cubic2-2x2x2",
        "solid-cubic3-1x1x2", "solid-cubic4-1x1x2",
        "rough-path3-2x2", "rough-path3-3x3", "smooth-path3-2x2", "smooth-path3-3x3",
        "rough-star3-2x2", "rough-star3-3x3", "smooth-star3-2x2", "smooth-star3-3x3",
        "rough-grid3x3-2x2", "rough-grid3x3-3x3", "smooth-grid3x3-2x2",
        "smooth-grid3x3-3x3", "smooth-star3-2x1",
    ],
)
def test_welded_builds_are_pinned(build, digest):
    assert code_digest(build()) == digest


def packed_digest(code) -> str:
    """code_digest's record read from the packed rows, with no dense view.

    Rows go through int.to_bytes, so a large build hashes without
    unpacking a uint8 matrix per block.
    """
    h = hashlib.sha256()
    width = (code.n + 7) // 8
    shape = (code.n, len(code.gens.x_packed), len(code.gens.z_packed), len(code.logicals))
    h.update(repr(shape).encode())
    rows = [*code.gens.x_packed, *code.gens.z_packed]
    for cls in code.logicals:
        rows += [cls.x_rep.x, cls.x_rep.z, cls.z_rep.x, cls.z_rep.z]
    for row in rows:
        h.update(row.to_bytes(width, "little"))
    h.update(region_digest(code).encode())
    return h.hexdigest()[:16]


# Larger welded solids than the pins above: the sweep's largest cell, a
# cubic assembly of 4x4x4 solids (n = 9,855), and 540 welds through one
# merged string (n = 3,024).
@pytest.mark.parametrize(
    "build, n, digest",
    [
        (lambda: build_welded_solid(grid2d(4, 4), SolidSpec(3, 3, 2)), 832, "4daf5ecbcd54701a"),
        (
            lambda: build_welded_solid(cubic(3, 3, 3), SolidSpec(4, 4, 4)),
            9855,
            "f99042412c23b14a",
        ),
        (
            lambda: build_welded_solid(cubic(6, 6, 6), SolidSpec(1, 1, 2)),
            3024,
            "f0b69e8f6b474beb",
        ),
    ],
    ids=["solid-grid4x4-3x3x2", "solid-cubic3-4x4x4", "solid-cubic6-1x1x2"],
)
def test_large_welded_builds_are_pinned(build, n, digest):
    code = build()
    assert code.n == n
    assert packed_digest(code) == digest


def _rough_piece(spoil=None) -> CssCode:
    """The 13-qubit rough surface piece, its Z rows changed by spoil if given.

    Rows 0 and 1 meet the top layer (qubits 0-2), 4 and 5 the bottom layer
    (10-12), 2 and 3 neither, and the folded string, row 6, both.
    """
    gens = builders._lattice_gens(builders._Lattice(2, 0, 3), "z")
    z_rows = list(gens.z_packed)
    if spoil is not None:
        spoil(z_rows)
    return CssCode(GeneratingSet._packed(gens.n, gens.x_packed, z_rows))


def _unmatched_on_top(z_rows):
    # the same group, but row 0's restriction to the top layer is gone
    z_rows[0] ^= z_rows[1]


def _dependent_on_bottom(z_rows):
    # row 4 times row 2, which avoids both layers: two rows now share
    # row 4's bottom restriction, and their product avoids the weld
    z_rows.append(z_rows[4] ^ z_rows[2])


@pytest.mark.parametrize(
    "spoiled_edge, spoil, check",
    [
        ((3, 4), _unmatched_on_top, "well_matched"),
        ((2, 3), _dependent_on_bottom, "weld_independence"),
    ],
    ids=["well-matched", "independence"],
)
def test_graph_loop_rejects_with_the_witness_of_weld(spoiled_edge, spoil, check):
    # the fourth weld of a path fails on the assembly's side; its witness
    # names rows by their position in the whole assembled block, as weld's
    # does on the same three-weld assembly and piece
    lay = builders._Lattice(2, 0, 3)
    ends = (lay.layer(0), lay.layer(2))
    pieces = {edge: _rough_piece() for edge in path(5).edges}
    pieces[spoiled_edge] = _rough_piece(spoil)
    with pytest.raises(WeldError) as looped:
        builders._weld_along_graph(path(5), pieces.__getitem__, ends, "z")
    partial = builders._weld_along_graph(path(4), pieces.__getitem__, ends, "z")
    pairs = list(zip(partial.vertex_qubits[3], ends[0]))
    with pytest.raises(WeldError) as direct:
        weld(partial.code, pieces[3, 4], pairs, "z")
    assert looped.value.check == direct.value.check == check
    assert looped.value.witness == direct.value.witness
    assert str(looped.value) == str(direct.value)
    # the assembly's side fails, at rows past the first piece's
    witness = looped.value.witness
    if check == "well_matched":
        assert witness["side"] == 1
        positions = [witness["index"]]
    else:
        assert str(looped.value).startswith("code 1 ")
        positions = witness["subset"]
    assert max(positions) >= len(pieces[0, 1].gens.z_packed)


@pytest.mark.parametrize(
    "spoiled_edge, spoil",
    [((3, 4), _unmatched_on_top), ((2, 3), _dependent_on_bottom)],
    ids=["well-matched", "independence"],
)
def test_only_a_rejected_graph_weld_checks_its_seam_again(monkeypatch, spoiled_edge, spoil):
    # a single weld's handles are its block positions, so one check names
    # the witness; a graph weld's seam comes from the loop's vertex
    # handles, so a rejected one checks the whole block again, to name
    # rows by position
    import weldkit.welding as welding

    lay = builders._Lattice(2, 0, 3)
    ends = (lay.layer(0), lay.layer(2))
    pieces = {edge: _rough_piece() for edge in path(5).edges}
    pieces[spoiled_edge] = _rough_piece(spoil)
    partial = builders._weld_along_graph(path(4), pieces.__getitem__, ends, "z")
    pairs = list(zip(partial.vertex_qubits[3], ends[0]))
    checks = _count_calls(monkeypatch, welding, "_require_seam")
    with pytest.raises(WeldError):
        weld(partial.code, pieces[3, 4], pairs, "z")
    assert len(checks) == 1
    checks.clear()
    with pytest.raises(WeldError):
        builders._weld_along_graph(path(5), pieces.__getitem__, ends, "z")
    # three welds pass with one check each, and the fourth fails twice
    assert len(checks) == 3 + 2


def test_graph_welds_visit_only_their_pieces(monkeypatch):
    # each weld of the loop checks both sides' seams, never the
    # assembly's block, whose seam the loop's vertex handles find
    import weldkit.welding as welding

    checks = _count_calls(monkeypatch, welding, "_require_seam")
    code = build_welded_solid(cubic(2, 2, 2), SolidSpec(1, 1, 2))
    assert len(checks) == 12
    visited = [len(seam) for sides, *_ in checks for seam in sides]
    assert max(visited) < len(code.gens.z_packed) // 4


@pytest.mark.parametrize(
    "build",
    [
        # cycles, and vertices of degree 3
        lambda: build_welded_solid(cubic(2, 2, 2), SolidSpec(2, 2, 2)),
        lambda: build_welded_surface(star(4), "smooth", SurfaceSpec(2, 2)),
        # the five-qubit chain welds a piece whose two ends coincide
        lambda: build_surface_by_welding(SurfaceSpec(3, 4)),
        lambda: build_solid_by_welding(SolidSpec(2, 2, 2)),
    ],
    ids=["cubic-solid", "star-surface", "surface-chain", "solid-strips"],
)
def test_graph_loop_hands_the_weld_core_its_whole_seam(monkeypatch, build):
    # the seam the loop passes is every row of the block that meets the
    # shared qubits, as a scan of the block would find it
    import weldkit.welding as welding

    real = welding._weld_core
    passed = []

    def checked(asm, gens2, ident, at_seam=None):
        if at_seam is not None:
            mask = welding._layout(asm.n, gens2.n, ident).mask
            assert at_seam == {h: row for h, row in asm.rows.items() if row & mask}
            passed.append(len(at_seam))
        return real(asm, gens2, ident, at_seam)

    monkeypatch.setattr(builders, "_weld_core", checked)
    build()
    assert passed and max(passed) > 0


def _count_core_welds(monkeypatch) -> list:
    """Count calls of the weld core, through weld and from the builders."""
    import weldkit.welding as welding

    calls = _count_calls(monkeypatch, welding, "_weld_core")
    monkeypatch.setattr(builders, "_weld_core", welding._weld_core)
    return calls


def _count_calls(monkeypatch, module, name) -> list:
    """Wrap module.name so each call appends to the returned list."""
    real = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize(
    "build, pieces, distinct",
    [
        # every vertex of cubic(2,2,2) meets three pieces: one end variant
        (lambda: build_welded_solid(cubic(2, 2, 2), SolidSpec(1, 1, 2)), 12, 1),
        # the end pieces of a path meet others at one end, the middle at both
        (lambda: build_welded_solid(path(4), SolidSpec(1, 1, 2)), 3, 3),
        (lambda: build_welded_surface(grid2d(3, 3), "rough", SurfaceSpec(2, 2)), 12, 1),
        (lambda: build_welded_surface(star(3), "smooth", SurfaceSpec(2, 2)), 3, 1),
    ],
    ids=["solid", "solid-path4", "rough-surface", "smooth-surface"],
)
def test_welded_builds_validate_each_code_once(monkeypatch, build, pieces, distinct):
    # each distinct piece object is built and validated once, however many
    # edges it serves, and the builder validates its final code; the
    # assembly itself never is
    import weldkit.css as css

    welds = _count_core_welds(monkeypatch)
    validations = _count_calls(monkeypatch, css, "validate")
    build()
    assert len(welds) == pieces
    assert len(validations) == distinct + 1


@pytest.mark.parametrize(
    "build, count, checks",
    [
        # every loop welds its first piece onto nothing: two welds make
        # the three-qubit half and two more the five-qubit piece, once
        # per build; then one weld per column piece and one per stacked
        # row piece.  Validated once each: the two-qubit piece, the half,
        # the five-qubit piece, the stacked two-row piece, the final code
        (lambda: build_surface_by_welding(SurfaceSpec(5, 4)), 4 + 5 + 3, 5),
        (lambda: build_surface_by_welding(SurfaceSpec(3, 2)), 4 + 3, 4),
        # three-qubit, five-, seven-, eight- and thirteen-qubit rungs; the
        # seven-qubit rung validates no final code
        (
            lambda: surface_welding_chain(),
            2 + (4 + 1) + (4 + 2) + (4 + 2) + (4 + 2 + 2),
            1 + 4 + 3 + 4 + 5,
        ),
    ],
    ids=["surface-5x4", "surface-3x2", "chain"],
)
def test_repeated_pieces_are_built_once(monkeypatch, build, count, checks):
    # a piece object serves every edge of its loop and is validated once
    import weldkit.css as css

    welds = _count_core_welds(monkeypatch)
    validations = _count_calls(monkeypatch, css, "validate")
    build()
    assert len(welds) == count
    assert len(validations) == checks


def test_fresh_piece_objects_are_each_validated(monkeypatch):
    # make_piece keeps no reference to its pieces, so a checked piece could
    # be freed and its id reused by a later, unchecked one
    import weldkit.css as css

    class Padded(CssCode):
        # a size no other object in the loop has, so a new piece gets the
        # memory, and so the id, of the last piece freed
        __slots__ = tuple(f"pad{i}" for i in range(40))

    # _count_calls keeps the arguments, which would keep the pieces alive
    validations = []
    real = css.validate
    monkeypatch.setattr(css, "validate", lambda code: validations.append(1) or real(code))
    asm = builders._weld_along_graph(
        path(9), lambda edge: Padded(build_two_qubit().gens), ((0,), (1,)), "z"
    )
    assert asm.code.n == 9
    assert len(validations) == 8


def _oracle_along_graph(graph, make_piece, piece_ends, weld_type):
    """The code _weld_along_graph builds, by weld_oracle one weld at a time."""
    edges = builders._ordered_edges(graph)
    # a piece object may serve several edges, and the oracle refuses to
    # weld one object to itself
    code = replace(make_piece(edges[0]))
    vertex_qubits = dict(zip(edges[0], piece_ends))
    for edge in edges[1:]:
        piece = make_piece(edge)
        pairs = [
            pair
            for vertex, end in zip(edge, piece_ends)
            if vertex in vertex_qubits
            for pair in zip(vertex_qubits[vertex], end)
        ]
        embed = contract(code, piece, pairs)[0].embed2
        code = weld_oracle(code, piece, pairs, weld_type)
        for vertex, end in zip(edge, piece_ends):
            vertex_qubits.setdefault(vertex, [embed[q] for q in end])
    return code


def _assert_assemblies_match_the_oracle(monkeypatch, build):
    real = builders._weld_along_graph
    calls = []

    def recording(*args):
        asm = real(*args)
        calls.append((args, asm.code))
        return asm

    monkeypatch.setattr(builders, "_weld_along_graph", recording)
    build()
    assert calls
    for args, code in calls:
        assert groups_equal(code, _oracle_along_graph(*args))


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_welded_solid(cubic(3, 3, 3), SolidSpec(1, 1, 2)),
        lambda: build_welded_surface(cubic(3, 3, 3), "smooth", SurfaceSpec(3, 3)),
    ],
    ids=["rough-solid", "smooth-surface"],
)
def test_packed_assembly_matches_the_oracle_on_cubic_graph(monkeypatch, build):
    _assert_assemblies_match_the_oracle(monkeypatch, build)


def _random_connected_graph(rng, size):
    """A random spanning tree on size vertices plus a few random chords."""
    edges = {(int(rng.integers(0, v)), v) for v in range(1, size)}
    for _ in range(int(rng.integers(0, size))):
        u, v = sorted(int(q) for q in rng.choice(size, 2, replace=False))
        edges.add((u, v))
    order = rng.permutation(len(edges))
    edges = sorted(edges)
    return WeldGraph(tuple(range(size)), tuple(edges[i] for i in order))


def test_packed_assembly_matches_the_oracle_on_random_graphs(monkeypatch):
    rng = np.random.default_rng(17)
    builds = (
        lambda graph: build_welded_solid(graph, SolidSpec(1, 1, 2)),
        lambda graph: build_welded_surface(graph, "rough", SurfaceSpec(2, 2)),
        lambda graph: build_welded_surface(graph, "smooth", SurfaceSpec(2, 2)),
    )
    for _ in range(10):
        for build in builds:
            graph = _random_connected_graph(rng, int(rng.integers(2, 7)))
            with monkeypatch.context() as patch:
                _assert_assemblies_match_the_oracle(patch, lambda: build(graph))


@pytest.mark.parametrize(
    "build",
    [
        lambda graph: build_welded_solid(graph, SolidSpec(1, 1, 2)),
        lambda graph: build_welded_surface(graph, "rough", SurfaceSpec(2, 2)),
        lambda graph: build_welded_surface(graph, "smooth", SurfaceSpec(2, 2)),
    ],
    ids=["solid", "rough-surface", "smooth-surface"],
)
def test_isolated_vertex_is_rejected(build):
    # vertex 2 is touched by no edge, so no piece can carry its boundary
    graph = WeldGraph((0, 1, 2), ((0, 1),))
    with pytest.raises(ValidationError, match="connected"):
        build(graph)


def test_region_graph_rejects_negative_qubits():
    patch = QubitPatch("a", (-1, 0))
    with pytest.raises(ValidationError, match="out of range"):
        FlatRegionGraph("x", 2, (patch,), (QubitPatch("b", (0,)),), ((0,),))


def test_region_graph_rejects_incidence_outside_the_boundaries():
    # boundary 2 touches no region; index 7 must not stand in for it
    boundaries = tuple(QubitPatch(f"b{q}", (q,)) for q in range(3))
    regions = (QubitPatch("r0", (0, 3)), QubitPatch("r1", (1, 4)))
    with pytest.raises(ValidationError, match="boundary index"):
        FlatRegionGraph("x", 5, regions, boundaries, ((0, 7), (1,)))
    # every listed boundary is real, but index 9 names none
    boundaries = tuple(QubitPatch(f"b{q}", (q,)) for q in range(2))
    regions = (QubitPatch("r0", (0, 1)), QubitPatch("r1", (1,)))
    with pytest.raises(ValidationError, match="boundary index"):
        FlatRegionGraph("x", 2, regions, boundaries, ((0, 1), (1, 9)))


def test_region_graph_rejects_boundaries_that_share_a_qubit():
    boundaries = (QubitPatch("b0", (0, 1)), QubitPatch("b1", (1, 2)))
    regions = (QubitPatch("r0", (0, 1, 2)),)
    with pytest.raises(ValidationError, match="boundary b1 shares qubits"):
        FlatRegionGraph("x", 3, regions, boundaries, ((0, 1),))


@pytest.mark.parametrize(
    "incidence, region, boundary",
    [
        # r0 meets b1 and b2 without listing them; the lowest is named
        (((0,), (2,)), "r0", "b1"),
        # r1 lists b0, which it does not meet
        (((0, 1, 2), (0, 2)), "r1", "b0"),
    ],
)
def test_region_graph_rejects_incidence_that_disagrees_with_the_qubits(
    incidence, region, boundary
):
    boundaries = tuple(QubitPatch(f"b{q}", (q,)) for q in range(3))
    regions = (QubitPatch("r0", (0, 1, 2)), QubitPatch("r1", (2, 3)))
    message = f"incidence of region {region} and boundary {boundary} disagrees"
    with pytest.raises(ValidationError, match=message):
        FlatRegionGraph("x", 4, regions, boundaries, incidence)


def test_region_graph_rejects_a_boundary_that_touches_no_region():
    boundaries = tuple(QubitPatch(f"b{q}", (q,)) for q in range(3))
    regions = (QubitPatch("r0", (0, 1)),)
    with pytest.raises(ValidationError, match="every boundary must touch"):
        FlatRegionGraph("x", 3, regions, boundaries, ((0, 1),))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: WeldGraph((0, 1, 2), ((0, 1, 2),)), "edge (0, 1, 2) must have two endpoints"),
        (lambda: WeldGraph((0, 1), (5,)), "edge 5 must have two endpoints"),
        (
            lambda: WeldGraph(([0], [1]), (([0], [1]),)),
            "labels must be hashable, got ([0], [1]), (([0], [1]),)",
        ),
        (
            lambda: WeldGraph((0, 1), (([0], 1),)),
            "labels must be hashable, got (0, 1), (([0], 1),)",
        ),
        (
            lambda: build_solid(SolidSpec(1, 1, 2, "no")),
            "horizontal_plaquettes must be True or False, got 'no'",
        ),
        (
            lambda: build_welded_solid(WeldGraph((0,), ()), SolidSpec(1, 1, 2)),
            "weld graph has no edges, nothing to build",
        ),
        (
            lambda: FlatRegionGraph(
                "x", 2, (QubitPatch("r0", (0, 1)),), (QubitPatch("b0", (0,)),), ((0,), (0,))
            ),
            "incidence must list boundaries per region",
        ),
        (
            lambda: build_welded_surface(path(2), "jagged", SurfaceSpec(2, 2)),
            "boundary_type must be 'rough' or 'smooth'",
        ),
        (
            lambda: build_welded_solid(path(2), SolidSpec(1, 1, 1)),
            "welding needs dz >= 2 so the two rough layers are distinct",
        ),
    ],
    ids=[
        "edge-arity",
        "edge-not-a-pair",
        "unhashable-labels",
        "unhashable-endpoint",
        "flat-flag",
        "no-edges",
        "incidence-length",
        "boundary-type",
        "flat-solid",
    ],
)
def test_malformed_builder_inputs_raise_validation_error(call, message):
    with pytest.raises(ValidationError) as exc:
        call()
    assert type(exc.value) is ValidationError
    assert str(exc.value) == message


@pytest.mark.parametrize("qubit", [1.7, 1.0, "3", None])
def test_qubit_patches_take_integer_qubits_only(qubit):
    with pytest.raises(ValidationError, match="integers"):
        QubitPatch("a", (0, qubit))
    assert QubitPatch("a", (np.int64(3), np.uint8(1), 3)).qubits == (1, 3)


@pytest.mark.parametrize("index", [1.0, 0.5, "1"])
def test_region_graph_takes_integer_incidence_only(index):
    boundaries = tuple(QubitPatch(f"b{q}", (q,)) for q in range(2))
    regions = (QubitPatch("r0", (0, 1)),)
    with pytest.raises(ValidationError, match="integer"):
        FlatRegionGraph("x", 2, regions, boundaries, ((0, index),))
    graph = FlatRegionGraph("x", 2, regions, boundaries, ((np.int64(1), np.int32(0)),))
    assert graph.incidence == ((0, 1),)
    assert all(type(b) is int for b in graph.incidence[0])


def test_region_metadata_missing_raises():
    with pytest.raises(MetadataError):
        flat_region_graph(build_two_qubit(), "x")
    with pytest.raises(ValidationError):
        flat_region_graph(build_surface(SurfaceSpec(2, 2)), "y")


def test_split_type_errors_count_incident_regions():
    # a rough weld merges Z strings, so star violations split per piece:
    # one Z error on a three-way weld qubit upsets one star per piece,
    # while an interior qubit upsets the usual two
    code = build_welded_surface(star(3), "rough", SurfaceSpec(2, 2))
    split = flat_region_graph(code, "x")
    hub = next(b for b in split.boundaries if sum(1 for row in split.incidence if split.boundaries.index(b) in row) == 3)
    weld_qubit = hub.qubits[0]
    interior = next(
        q for q in range(code.n)
        if not any(q in b.qubits for b in split.boundaries)
    )
    on_weld = syndrome(code, PauliOperator.from_support(code.n, z=(weld_qubit,)))
    off_weld = syndrome(code, PauliOperator.from_support(code.n, z=(interior,)))
    assert len(on_weld.violated_x) == 3
    assert len(off_weld.violated_x) == 2


def test_graph_constructors():
    assert len(path(4).edges) == 3
    assert path(4).degree(path(4).vertices[1]) == 2
    hub_graph = star(5)
    hub = max(hub_graph.vertices, key=hub_graph.degree)
    assert hub_graph.degree(hub) == 5
    # a*b vertices; edges join lattice neighbours
    assert len(grid2d(2, 3).vertices) == 6
    assert len(grid2d(2, 3).edges) == 2 * 2 + 3 * 1
    assert len(cubic(2, 2, 2).edges) == 12
    assert grid2d(3, 3).is_connected()


@pytest.mark.parametrize(
    "make",
    [
        lambda: path(2.5),
        lambda: path(None),
        lambda: star("3"),
        lambda: grid2d(2, 1.5),
        lambda: cubic(2, 2, "2"),
    ],
    ids=["path-float", "path-none", "star-str", "grid2d-float", "cubic-str"],
)
def test_graph_generators_reject_non_integer_sizes(make):
    with pytest.raises(ValidationError, match="must be integers"):
        make()


def test_graph_generators_take_sizes_as_integers():
    assert grid2d(True, 2).name == "grid2d(1,2)"
    assert grid2d(True, 2) == grid2d(1, 2)
    assert cubic(np.int64(2), 2, np.uint8(2)) == cubic(2, 2, 2)
    assert path(np.int32(3)).name == "path(3)" and star(np.int64(2)).name == "star(2)"
    for make in (lambda: path(0), lambda: star(0), lambda: grid2d(0, 2), lambda: cubic(2, -1, 2)):
        with pytest.raises(ValidationError, match="at least"):
            make()


_GRAPH_PINS = [
    (path(3), "path(3)", (0, 1, 2), ((0, 1), (1, 2))),
    (star(2), "star(2)", (0, 1, 2), ((0, 1), (0, 2))),
    (
        grid2d(3, 2),
        "grid2d(3,2)",
        ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)),
        (
            ((0, 0), (1, 0)), ((0, 0), (0, 1)), ((1, 0), (2, 0)), ((1, 0), (1, 1)),
            ((2, 0), (2, 1)), ((0, 1), (1, 1)), ((1, 1), (2, 1)),
        ),
    ),
    (
        cubic(2, 2, 2),
        "cubic(2,2,2)",
        (
            (0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0),
            (0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1),
        ),
        (
            ((0, 0, 0), (1, 0, 0)), ((0, 0, 0), (0, 1, 0)), ((0, 0, 0), (0, 0, 1)),
            ((1, 0, 0), (1, 1, 0)), ((1, 0, 0), (1, 0, 1)), ((0, 1, 0), (1, 1, 0)),
            ((0, 1, 0), (0, 1, 1)), ((1, 1, 0), (1, 1, 1)), ((0, 0, 1), (1, 0, 1)),
            ((0, 0, 1), (0, 1, 1)), ((1, 0, 1), (1, 1, 1)), ((0, 1, 1), (1, 1, 1)),
        ),
    ),
]


@pytest.mark.parametrize(
    "graph, name, vertices, edges", _GRAPH_PINS, ids=[pin[1] for pin in _GRAPH_PINS]
)
def test_graph_generators_are_pinned(graph, name, vertices, edges):
    # the welded builders weld pieces in edge order, so these orders fix
    # every welded code's qubit and generator-row order
    assert graph.name == name
    assert graph.vertices == vertices
    assert graph.edges == edges


@pytest.mark.parametrize(
    "graph",
    [cubic(4, 4, 4), star(3), WeldGraph((0, 1, 2, "lone"), ((0, 1), (2, 1)))],
    ids=["cubic4", "star3", "isolated"],
)
def test_degree_and_connectivity_match_a_scan_of_every_edge(graph):
    for vertex in graph.vertices:
        assert graph.degree(vertex) == sum(vertex in edge for edge in graph.edges)
    assert graph.degree("absent") == 0
    # grow the component of the first vertex by rescanning every edge
    seen, grew = {graph.vertices[0]}, True
    while grew:
        grew = False
        for u, v in graph.edges:
            if (u in seen) != (v in seen):
                seen |= {u, v}
                grew = True
    assert graph.is_connected() == (len(seen) == len(graph.vertices))


def test_weld_graph_validation():
    with pytest.raises(ValidationError):
        WeldGraph(("a", "a"), ())
    with pytest.raises(ValidationError):
        WeldGraph(("a", "b"), (("a", "a"),))
    with pytest.raises(ValidationError):
        WeldGraph(("a", "b"), (("a", "c"),))
    with pytest.raises(ValidationError):
        WeldGraph(("a", "b"), (("a", "b"), ("b", "a")))
    disconnected = WeldGraph(("a", "b", "c", "d"), (("a", "b"), ("c", "d")))
    assert not disconnected.is_connected()
    assert WeldGraph((), ()).is_connected() is False
    with pytest.raises(ValidationError):
        build_welded_surface(disconnected, "rough", SurfaceSpec(1, 1))


def test_parse_weld_graph():
    graph = parse_weld_graph("v a\nv b\n# comment\ne a b\n")
    assert graph.vertices == ("a", "b")
    assert graph.edges == (("a", "b"),)
    with pytest.raises(ValidationError):
        parse_weld_graph("w a\n")
    with pytest.raises(ValidationError):
        parse_weld_graph("e a\n")


def test_region_graph_from_weld_graph_shape():
    graph = region_graph_from_weld_graph(star(3), "z")
    assert graph.particle_type == "z"
    assert graph.n == 4
    assert len(graph.regions) == 3
    assert len(graph.boundaries) == 4
    assert all(len(row) == 2 for row in graph.incidence)


def test_deep_solid_regression():
    # three stacked levels exercise the upper horizontal sheets
    spec = SolidSpec(2, 2, 3)
    code = build_solid(spec)
    assert validate(code) is None
    assert encoded_qubits(code) == 1
    meta = flat_region_graph(code, "z")
    assert meta.n == code.n


def test_spec_validation():
    with pytest.raises(ValidationError):
        build_surface(SurfaceSpec(0, 2))
    with pytest.raises(ValidationError):
        build_solid(SolidSpec(1, 0, 1))
    with pytest.raises(ValidationError):
        build_repetition(1)
    for length in (2.5, "3"):
        with pytest.raises(ValidationError, match="must be integers"):
            build_repetition(length)
    code = build_repetition(np.int64(3))
    assert type(code.n) is int and code.gens.x_packed == build_repetition(3).gens.x_packed
    for make in (lambda: SolidSpec(1.5, 1, 2), lambda: SolidSpec(1, 1, 2.0), lambda: SurfaceSpec("2", 2)):
        with pytest.raises(ValidationError, match="must be integers"):
            make()
    spec = SolidSpec(np.int64(1), 1, np.uint8(2))
    assert spec == SolidSpec(1, 1, 2) and type(spec.dx) is type(spec.dz) is int
    assert type(SurfaceSpec(np.int32(2), 2).width) is int
