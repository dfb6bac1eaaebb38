"""Lattice code constructors: surfaces, solids, and their welded assemblies.

Qubits live on lattice edges.  A surface patch has rough top and bottom
boundaries and smooth sides; a solid is a cubic lattice with the
horizontal edges at the top and bottom faces removed, which leaves those
two faces rough.  The welded families place one piece per edge of a
WeldGraph and identify matching boundary qubits at shared vertices.

Each constructor returns an immutable CssCode that passes validate, with
its logical classes installed and, for lattice families, flat-region
metadata attached: a record of where each particle type moves freely,
which the energy module turns into parity lower bounds.  Lattice rows
come from one enumeration, _Lattice: the X rows are the stars level by
level over its column grid, the Z rows the half-plaquettes of faces().
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace

from . import gf2
from .css import (
    CssCode,
    GeneratingSet,
    LogicalClass,
    fold_logical,
    permute_qubits,
    promote_to_logical,
    validate_or_raise,
)
from .errors import MetadataError, ValidationError, _integers, _kind
from .pauli import PauliOperator
from .welding import _Indexed, _require_weldable, _weld_core

__all__ = [
    "SurfaceSpec",
    "SolidSpec",
    "WeldGraph",
    "QubitPatch",
    "FlatRegionGraph",
    "path",
    "star",
    "grid2d",
    "cubic",
    "parse_weld_graph",
    "flat_region_graph",
    "region_graph_from_weld_graph",
    "build_two_qubit",
    "build_repetition",
    "build_surface",
    "build_surface_by_welding",
    "surface_welding_chain",
    "build_solid",
    "build_solid_by_welding",
    "build_welded_surface",
    "build_welded_solid",
]


# ---------------------------------------------------------------------------
# specs


def _integer_sizes(spec, fields: tuple[str, ...], what: str):
    """Set each named field of a frozen spec to its int, at least 1, or raise ValidationError."""
    sizes = _integers(tuple(getattr(spec, field) for field in fields), what, 1)
    for field, size in zip(fields, sizes):
        object.__setattr__(spec, field, size)


@dataclass(frozen=True)
class SurfaceSpec:
    """Surface patch size in plaquettes: width columns by height rows."""

    width: int
    height: int

    def __post_init__(self):
        _integer_sizes(self, ("width", "height"), "surface width and height")


@dataclass(frozen=True)
class SolidSpec:
    """Solid block size in cells; dz counts vertical cells top to bottom."""

    dx: int
    dy: int
    dz: int
    horizontal_plaquettes: bool = False

    def __post_init__(self):
        _integer_sizes(self, ("dx", "dy", "dz"), "solid cell counts")
        flat = self.horizontal_plaquettes
        if flat not in (True, False):
            raise ValidationError(f"horizontal_plaquettes must be True or False, got {flat!r}")
        object.__setattr__(self, "horizontal_plaquettes", bool(flat))


# ---------------------------------------------------------------------------
# weld graphs


@dataclass(frozen=True)
class WeldGraph:
    """Abstract layout of a welded assembly.

    Vertices label shared rough (or smooth) boundaries; each edge is one
    code piece whose two boundaries sit at the edge's endpoints.  Labels
    are opaque; the generators below use ints and coordinate tuples.
    """

    vertices: tuple
    edges: tuple
    name: str = ""

    def __post_init__(self):
        vertices = tuple(self.vertices)
        edges = tuple(tuple(e) if isinstance(e, Iterable) else e for e in self.edges)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        try:
            seen = set(vertices)
            hash(edges)
        except TypeError:  # an unhashable label, of a vertex or an endpoint
            raise ValidationError(f"labels must be hashable, got {vertices!r}, {edges!r}") from None
        if len(seen) != len(self.vertices):
            raise ValidationError("duplicate vertex labels in weld graph")
        adjacent: dict = {v: set() for v in self.vertices}
        for edge in self.edges:
            if not isinstance(edge, tuple) or len(edge) != 2:
                raise ValidationError(f"edge {edge!r} must have two endpoints")
            u, v = edge
            if u == v:
                raise ValidationError(f"self-loop at {u!r} is not weldable")
            if u not in seen or v not in seen:
                raise ValidationError(f"edge {edge!r} references unknown vertices")
            if v in adjacent[u]:
                raise ValidationError(f"duplicate edge {edge!r}")
            adjacent[u].add(v)
            adjacent[v].add(u)
        object.__setattr__(self, "_adjacent", adjacent)

    def degree(self, vertex) -> int:
        return len(self._adjacent.get(vertex, ()))

    def is_connected(self) -> bool:
        if not self.vertices:
            return False
        todo = [self.vertices[0]]
        seen = {self.vertices[0]}
        while todo:
            for w in self._adjacent[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        return len(seen) == len(self.vertices)


def path(n: int) -> WeldGraph:
    """Path with n vertices (n - 1 edges)."""
    (n,) = _integers((n,), "path length", 1)
    return WeldGraph(
        tuple(range(n)), tuple((i, i + 1) for i in range(n - 1)), f"path({n})"
    )


def star(leaves: int) -> WeldGraph:
    """Star with one center (label 0) and the given number of leaves."""
    (leaves,) = _integers((leaves,), "star leaf count", 1)
    return WeldGraph(
        tuple(range(leaves + 1)),
        tuple((0, i) for i in range(1, leaves + 1)),
        f"star({leaves})",
    )


def _mesh(kind: str, dims) -> WeldGraph:
    """Grid of vertices with the given side lengths and nearest-neighbor edges.

    Vertices are coordinate tuples, first axis fastest; each vertex
    lists its edges to the next vertex along each axis, in axis order.
    """
    sides = _integers(dims, f"{kind} sides", 1)
    vertices = [()]
    strides = []  # per axis, how far the next vertex along it is in the list
    for side in sides:
        strides.append(len(vertices))
        vertices = [v + (i,) for i in range(side) for v in vertices]
    edges = tuple(
        (v, vertices[i + stride])
        for i, v in enumerate(vertices)
        for axis, (side, stride) in enumerate(zip(sides, strides))
        if v[axis] + 1 < side
    )
    return WeldGraph(tuple(vertices), edges, f"{kind}({','.join(map(str, sides))})")


def grid2d(a: int, b: int) -> WeldGraph:
    """a-by-b grid of vertices with nearest-neighbor edges."""
    return _mesh("grid2d", (a, b))


def cubic(a: int, b: int, c: int) -> WeldGraph:
    """a-by-b-by-c cubic lattice of vertices with nearest-neighbor edges."""
    return _mesh("cubic", (a, b, c))


def parse_weld_graph(text: str) -> WeldGraph:
    """Read a graph from "v <label>" and "e <label> <label>" lines."""
    vertices: list[str] = []
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "v" and len(fields) == 2:
            vertices.append(fields[1])
        elif fields[0] == "e" and len(fields) == 3:
            edges.append((fields[1], fields[2]))
        else:
            raise ValidationError(f"line {lineno}: expected 'v <label>' or 'e <a> <b>'")
    return WeldGraph(tuple(vertices), tuple(edges), "file")


def _ordered_edges(graph: WeldGraph) -> list[tuple]:
    """Edges reordered so each one touches a previously seen vertex.

    The first edge seeds the visited set.  A disconnected graph, one with
    a vertex that no edge touches included, cannot be welded into a
    single code.
    """
    if not graph.edges:
        raise ValidationError("weld graph has no edges, nothing to build")
    if not graph.is_connected():
        raise ValidationError("weld graph must be connected")
    remaining = list(graph.edges)
    ordered = [remaining.pop(0)]
    visited = set(ordered[0])
    while remaining:
        pos = next(
            i for i, (u, v) in enumerate(remaining) if u in visited or v in visited
        )
        ordered.append(remaining.pop(pos))
        visited.update(ordered[-1])
    return ordered


# ---------------------------------------------------------------------------
# flat region graphs


@dataclass(frozen=True)
class QubitPatch:
    label: str
    qubits: tuple[int, ...]

    def __post_init__(self):
        qubits = set(_integers(self.qubits, f"{self.label}: qubits"))
        object.__setattr__(self, "qubits", tuple(sorted(qubits)))


@dataclass(frozen=True)
class FlatRegionGraph:
    """Where one particle type moves freely, and the boundaries between.

    particle_type names the quasi-particle that roams each region without
    making new ones; a single opposite-type error on a boundary qubit
    flips the particle parity of every incident region.  Boundaries are
    pairwise disjoint qubit sets; regions contain their boundaries.
    """

    particle_type: str
    n: int
    regions: tuple[QubitPatch, ...]
    boundaries: tuple[QubitPatch, ...]
    incidence: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _kind(self.particle_type, "particle_type")
        object.__setattr__(self, "regions", tuple(self.regions))
        object.__setattr__(self, "boundaries", tuple(self.boundaries))
        incidence = tuple(
            tuple(sorted(_integers(row, "incidence boundary indices"))) for row in self.incidence
        )
        object.__setattr__(self, "incidence", incidence)
        if len(self.incidence) != len(self.regions):
            raise ValidationError("incidence must list boundaries per region")
        for row in self.incidence:
            if row and not 0 <= row[0] <= row[-1] < len(self.boundaries):
                raise ValidationError(
                    f"boundary index out of range in incidence row {row}"
                )
        for patch in self.regions + self.boundaries:
            if patch.qubits and not 0 <= patch.qubits[0] <= patch.qubits[-1] < self.n:
                raise ValidationError(f"{patch.label}: qubit index out of range")
        owner: dict[int, int] = {}  # qubit -> the boundary holding it
        for b, patch in enumerate(self.boundaries):
            if not owner.keys().isdisjoint(patch.qubits):
                raise ValidationError(
                    f"boundary {patch.label} shares qubits with another boundary"
                )
            owner.update(dict.fromkeys(patch.qubits, b))
        for region, row in zip(self.regions, self.incidence):
            met = {owner[q] for q in region.qubits if q in owner}
            wrong = met.symmetric_difference(row)
            if wrong:
                raise ValidationError(
                    f"incidence of region {region.label} and boundary "
                    f"{self.boundaries[min(wrong)].label} disagrees with their qubit sets"
                )
        if len(set().union(*self.incidence)) != len(self.boundaries):
            raise ValidationError("every boundary must touch at least one region")


def flat_region_graph(code: CssCode, particle_type: str) -> FlatRegionGraph:
    """Look up the builder-attached region graph for one particle type."""
    kind = _kind(str(particle_type).lower(), "particle_type")
    meta = code.region_metadata
    if not meta or kind not in meta:
        raise MetadataError(
            f"no flat-{kind} region metadata on this code; only builder outputs "
            "carry region graphs"
        )
    return meta[kind]


def region_graph_from_weld_graph(
    graph: WeldGraph, particle_type: str = "x"
) -> FlatRegionGraph:
    """Abstract region graph: one spin-sized boundary per vertex.

    Each vertex becomes a single-qubit boundary and each edge a region
    holding exactly its two endpoint qubits.  Useful for studying the
    parity bound on a bare graph shape, detached from any lattice.
    """
    index = {v: i for i, v in enumerate(graph.vertices)}
    boundaries = tuple(QubitPatch(str(v), (index[v],)) for v in graph.vertices)
    regions = []
    incidence = []
    for u, v in graph.edges:
        regions.append(QubitPatch(f"{u}-{v}", (index[u], index[v])))
        incidence.append((index[u], index[v]))
    return FlatRegionGraph(
        particle_type, len(graph.vertices), tuple(regions), boundaries, tuple(incidence)
    )


def _one_region(kind: str, n: int, label: str, sides) -> FlatRegionGraph:
    """One region over the whole register, between two (label, qubits) sides."""
    return FlatRegionGraph(
        kind,
        n,
        (QubitPatch(label, tuple(range(n))),),
        tuple(QubitPatch(side_label, qubits) for side_label, qubits in sides),
        ((0, 1),),
    )


# ---------------------------------------------------------------------------
# small builders


def _mask(support) -> int:
    """A packed row with bit q toggled once per occurrence of q in support."""
    row = 0
    for q in support:
        row ^= 1 << q
    return row


def build_two_qubit() -> CssCode:
    """The smallest weldable piece: two qubits stabilized by XX and ZZ."""
    return CssCode(GeneratingSet._packed(2, [3], [3]))


def build_repetition(length: int) -> CssCode:
    """Length-n repetition code: XX on neighbors, logical Z across all."""
    (length,) = _integers((length,), "repetition length", 2)
    gens = GeneratingSet._packed(length, [3 << i for i in range(length - 1)], ())
    code = CssCode(
        gens,
        (
            LogicalClass(
                x_rep=PauliOperator.from_support(length, x=(0,)),
                z_rep=PauliOperator.from_support(length, z=range(length)),
            ),
        ),
    )
    validate_or_raise(code)
    return code


# ---------------------------------------------------------------------------
# the lattice


class _Lattice:
    """Index bookkeeping for a solid block of dx by dy by dz cells.

    Per vertical level z: the layer of vertical edges, then (below the
    top boundary) the two families of horizontal edges at level z + 1.
    Horizontal edges exist only at interior levels 1..dz-1.

    The vertical columns form a (dx+1) x (dy+1) grid, listed x fastest
    in grid, and edges(axis) is the one enumeration of its edges along
    an axis, in grid order.  A half-plaquette hangs off one grid edge at
    one level, and faces() yields their keys (axis, x, y, z), x edges
    then y edges, level by level within each axis: the one enumeration
    that fixes the order of the Z generator rows.

    A surface patch is the slab dy = 0: width dx, height dz.  Its rows
    are the layers, its top and bottom rows layer(0) and layer(dz - 1),
    its left and right columns column(0, 0) and column(dx, 0), and its
    rungs the hx edges; no hy edge exists.
    """

    def __init__(self, dx: int, dy: int, dz: int):
        self.dx, self.dy, self.dz = dx, dy, dz
        self.cols = (dx + 1) * (dy + 1)
        self.hx_count = dx * (dy + 1)
        self.hy_count = (dx + 1) * dy
        self.level_stride = self.cols + self.hx_count + self.hy_count
        self.n = dz * self.cols + (dz - 1) * (self.hx_count + self.hy_count)
        self.grid = [(x, y) for y in range(dy + 1) for x in range(dx + 1)]

    def vq(self, x: int, y: int, z: int) -> int:
        return z * self.level_stride + y * (self.dx + 1) + x

    def hx(self, x: int, y: int, z: int) -> int:
        return (z - 1) * self.level_stride + self.cols + y * self.dx + x

    def hy(self, x: int, y: int, z: int) -> int:
        return (z - 1) * self.level_stride + self.cols + self.hx_count + y * (self.dx + 1) + x

    # per grid axis: the step to the next column and the rung, the
    # horizontal edge that joins the two columns at an interior level
    _AXES = {"x": (1, 0, hx), "y": (0, 1, hy)}

    def layer(self, z: int) -> tuple[int, ...]:
        return tuple(self.vq(x, y, z) for x, y in self.grid)

    def column(self, x: int, y: int) -> tuple[int, ...]:
        return tuple(self.vq(x, y, z) for z in range(self.dz))

    def edges(self, axis: str) -> list[tuple[int, int]]:
        """The grid edges along axis, each named by its first column (x, y)."""
        sx, sy, _ = self._AXES[axis]
        return [(x, y) for x, y in self.grid if x + sx <= self.dx and y + sy <= self.dy]

    def faces(self) -> Iterator[tuple[str, int, int, int]]:
        """Every half-plaquette key (axis, x, y, z), in generator-row order."""
        for axis in "xy":
            edges = self.edges(axis)
            for z in range(self.dz):
                for x, y in edges:
                    yield axis, x, y, z

    def star_support(self, x: int, y: int, z: int) -> list[int]:
        support = [self.vq(x, y, z - 1), self.vq(x, y, z)]
        if x > 0:
            support.append(self.hx(x - 1, y, z))
        if x < self.dx:
            support.append(self.hx(x, y, z))
        if y > 0:
            support.append(self.hy(x, y - 1, z))
        if y < self.dy:
            support.append(self.hy(x, y, z))
        return support

    def face_support(self, axis: str, x: int, y: int, z: int) -> list[int]:
        """The half-plaquette on the grid edge from column (x, y) at level z."""
        sx, sy, rung = self._AXES[axis]
        corner = self.vq(x, y, z)
        # the next column's qubit at level z is sx + sy * (dx + 1) further on
        support = [corner, corner + sx + sy * (self.dx + 1)]
        if z >= 1:
            support.append(rung(self, x, y, z))
        if z + 1 <= self.dz - 1:
            support.append(rung(self, x, y, z + 1))
        return support

    def sheet(self, axis: str, x: int, y: int) -> tuple[int, ...]:
        """The two columns of a grid edge and every rung between them."""
        sx, sy, rung = self._AXES[axis]
        interior = tuple(rung(self, x, y, z) for z in range(1, self.dz))
        return self.column(x, y) + self.column(x + sx, y + sy) + interior


def _lattice_gens(lay: _Lattice, fold: str = "", horizontal: bool = False) -> GeneratingSet:
    """Stars and half-plaquettes of lay, plus horizontal plaquettes if asked.

    fold="x" appends the top X string layer(0) as the last X row and
    fold="z" the left Z string column(0, 0) as the last Z row: the k=0
    form a weld consumes.
    """
    stars = [lay.star_support(x, y, z) for z in range(1, lay.dz) for x, y in lay.grid]
    faces = [lay.face_support(axis, x, y, z) for axis, x, y, z in lay.faces()]
    if horizontal:
        faces += [
            [lay.hx(x, y, z), lay.hx(x, y + 1, z), lay.hy(x, y, z), lay.hy(x + 1, y, z)]
            for z in range(1, lay.dz)
            for x, y in lay.grid
            if x < lay.dx and y < lay.dy
        ]
    if fold == "x":
        stars.append(lay.layer(0))
    elif fold == "z":
        faces.append(lay.column(0, 0))
    return GeneratingSet._packed(lay.n, map(_mask, stars), map(_mask, faces))


def _lattice_code(lay: _Lattice, meta: dict, horizontal: bool = False) -> CssCode:
    """The lattice code with its (top X string, left Z string) class."""
    code = CssCode(
        _lattice_gens(lay, horizontal=horizontal),
        (
            LogicalClass(
                x_rep=PauliOperator.from_support(lay.n, x=lay.layer(0)),
                z_rep=PauliOperator.from_support(lay.n, z=lay.column(0, 0)),
            ),
        ),
        meta,
    )
    validate_or_raise(code)
    return code


# ---------------------------------------------------------------------------
# surface codes


def _rough_region(lay: _Lattice, label: str) -> dict:
    """Flat-X metadata: one region between lay's rough top and bottom layers.

    With one vertical layer (dz = 1) the two rough boundaries coincide
    and carry no X-particle bookkeeping, so the metadata stays empty.
    """
    if lay.dz < 2:
        return {}
    sides = (("rough top", lay.layer(0)), ("rough bottom", lay.layer(lay.dz - 1)))
    return {"x": _one_region("x", lay.n, label, sides)}


def _surface_region_metadata(spec: SurfaceSpec) -> dict:
    lay = _Lattice(spec.width, 0, spec.height)
    meta = {
        "z": _one_region(
            "z",
            lay.n,
            "surface",
            (
                ("smooth left", lay.column(0, 0)),
                ("smooth right", lay.column(spec.width, 0)),
            ),
        )
    }
    meta.update(_rough_region(lay, "surface"))
    return meta


def build_surface(spec: SurfaceSpec) -> CssCode:
    """Surface patch with rough top/bottom and smooth sides.

    The top-row X string and the left-column Z string are its single
    logical class (k=1).  fold_logical(code, 0, kind) pushes one of them
    into the generators, the k=0 form a weld of that type consumes.
    """
    lay = _Lattice(spec.width, 0, spec.height)
    return _lattice_code(lay, _surface_region_metadata(spec))


# ---------------------------------------------------------------------------
# the surface welding chain


_FIVE_PERM = (0, 2, 1, 3, 4)


def _rep3() -> CssCode:
    """Three-qubit piece from welding two two-qubit pieces at one qubit."""
    piece = build_two_qubit()
    return _weld_along_graph(path(3), lambda edge: piece, ((0,), (1,)), "z").code


def _row_index(rows, support) -> int:
    """Index of the first packed row supported on exactly the given qubits."""
    try:
        return rows.index(_mask(support))
    except ValueError:
        raise ValidationError("no generator row has the expected support") from None


def _repick_x_rows(code: CssCode, new_rows) -> CssCode:
    """Swap in an equivalent X generating list, verified over GF(2)."""
    if gf2._reduced(code.gens.x_packed) != gf2._reduced(new_rows):
        raise AssertionError("re-picked X rows generate a different group")
    return CssCode(GeneratingSet._packed(code.n, new_rows, code.gens.z_packed))


def _five_two_stars() -> CssCode:
    """Five-qubit patch, X string folded, generated by its stars and string.

    Two-qubit pieces Z-welded at both their qubits 0 give the three-qubit
    half {XXI, XIX, ZZZ}, whose X rows both hold qubit 0, so an X-weld of
    two halves at qubit 1 touches one generator per side and makes the
    left star and the top and bottom strings; the bottom string is then
    replaced by the product of all three rows, the right star.  On
    either side column the two touching rows restrict to the whole
    column (a star) and its top qubit (the string), so fives weld along
    a shared column with no re-pick, each weld merging two stars into an
    interior one.  Joining two fives along a column plus its rung keeps
    the three restrictions distinct and independent as well.
    """
    two = build_two_qubit()
    half = _weld_along_graph(path(3), lambda edge: two, ((0,), (0,)), "z").code
    raw = _weld_along_graph(path(3), lambda edge: half, ((1,), (1,)), "x").code
    code = permute_qubits(raw, _FIVE_PERM)
    x = list(code.gens.x_packed)
    bottom = _row_index(x, (3, 4))
    top = _row_index(x, (0, 1))
    star = _row_index(x, (0, 2, 3))
    x[bottom] ^= x[top] ^ x[star]
    return _repick_x_rows(code, x)


def _row_patch(width: int, height: int) -> CssCode:
    """build_surface(SurfaceSpec(width, height)) by X welds, height 1 or 2.

    One piece, built once, serves every column pair, welded side by
    side: a two-qubit piece for one row, a five-qubit piece for two.
    The stars and the merged top string are then re-picked as the X
    generating list, so the remaining generators are exactly the stars,
    which the left-column partner commutes with.
    """
    lay = _Lattice(width, 0, height)
    piece = build_two_qubit() if height == 1 else _five_two_stars()
    code = _weld_strips(lay, piece)
    code = _repick_x_rows(code, _lattice_gens(lay, "x").x_packed)
    left = PauliOperator.from_support(code.n, z=lay.column(0, 0))
    return promote_to_logical(code, "x", len(code.gens.x_packed) - 1, left)


def build_surface_by_welding(spec: SurfaceSpec) -> CssCode:
    """Assemble build_surface(spec) from two-qubit pieces alone.

    Two-qubit pieces weld into three-qubit strips, pairs of strips into
    five-qubit patches, fives weld side by side into a two-row patch,
    and rows stack by rough welds.  One-row patches are two-qubit pieces
    welded in a line.  The result matches build_surface(spec) row for
    row on the canonical layout.
    """
    if spec.height <= 2:
        code = _row_patch(spec.width, spec.height)
    else:
        # height - 1 two-row pieces, each sharing its top row with the
        # bottom row of the piece above; a piece folds its Z string (k = 0)
        row = _Lattice(spec.width, 0, 2)
        piece = fold_logical(_row_patch(spec.width, 2), 0, "z")
        asm = _weld_along_graph(
            path(spec.height),
            lambda edge: piece,
            (row.layer(0), row.layer(1)),
            "z",
        )
        top = PauliOperator.from_support(asm.code.n, x=row.layer(0))
        left = _lift(asm, row.column(0, 0))
        code = promote_to_logical(asm.code, "z", _row_index(asm.code.gens.z_packed, left), top)
    code = replace(code, region_metadata=_surface_region_metadata(spec))
    validate_or_raise(code)
    return code


def _seven_by_welding() -> CssCode:
    """Two five-qubit patches overlapping on a column and its rung."""
    five = _five_two_stars()
    raw = _weld_along_graph(path(3), lambda edge: five, ((0, 2, 3), (1, 2, 4)), "x").code
    partner = PauliOperator.from_support(raw.n, z=(0, 3))
    # the two top strings (0, 1) merge at qubit 1 into (0, 1, 5)
    return promote_to_logical(raw, "x", _row_index(raw.gens.x_packed, (0, 1, 5)), partner)


def surface_welding_chain() -> tuple[tuple[str, CssCode], ...]:
    """The small-code ladder, every rung built by welding.

    Returns (label, code) pairs: the two-qubit piece, the three-qubit
    strip, and the 5-, 7-, 8-, and 13-qubit patches.
    """
    return (
        ("two-qubit", build_two_qubit()),
        ("three-qubit", _rep3()),
        ("five-qubit", build_surface_by_welding(SurfaceSpec(1, 2))),
        ("seven-qubit", _seven_by_welding()),
        ("eight-qubit", build_surface_by_welding(SurfaceSpec(2, 2))),
        ("thirteen-qubit", build_surface_by_welding(SurfaceSpec(2, 3))),
    )


# ---------------------------------------------------------------------------
# solid codes


def _sheet_region_graph(lay: _Lattice, n: int, lift) -> FlatRegionGraph:
    """Flat-Z graph of a solid: sheets between neighbouring columns.

    lift maps a support on one solid's register to the qubits it covers
    on the n-qubit register: the identity for a single solid, the union
    over every piece's embedding for a welded one.
    """
    columns = [QubitPatch(f"column ({x},{y})", lift(lay.column(x, y))) for x, y in lay.grid]
    order = {pos: i for i, pos in enumerate(lay.grid)}
    regions = []
    incidence = []
    for axis in "xy":
        sx, sy, _ = lay._AXES[axis]
        for x, y in lay.edges(axis):
            regions.append(QubitPatch(f"sheet {axis} ({x},{y})", lift(lay.sheet(axis, x, y))))
            incidence.append((order[(x, y)], order[(x + sx, y + sy)]))
    return FlatRegionGraph(
        "z", n, tuple(regions), tuple(columns), tuple(incidence)
    )


def _solid_region_metadata(spec: SolidSpec) -> dict:
    lay = _Lattice(spec.dx, spec.dy, spec.dz)
    meta = _rough_region(lay, "solid")
    if not spec.horizontal_plaquettes:
        # With horizontal plaquettes generated, Z particles can no longer
        # cross a sheet silently, so the sheet decomposition only holds
        # for the half-plaquette generating set.
        meta["z"] = _sheet_region_graph(lay, lay.n, lambda support: support)
    return meta


def build_solid(spec: SolidSpec) -> CssCode:
    """Cubic block with rough top/bottom faces and smooth sides.

    Logicals: the X membrane across the top vertical layer against the Z
    string down one corner column.  Horizontal plaquettes are generated
    only when flagged; they are in the group either way, as products of
    four half-plaquettes.
    """
    lay = _Lattice(spec.dx, spec.dy, spec.dz)
    return _lattice_code(lay, _solid_region_metadata(spec), spec.horizontal_plaquettes)


# ---------------------------------------------------------------------------
# welded assemblies


@dataclass
class _Assembly:
    """Accumulator for piece-by-piece welding along a graph."""

    code: CssCode
    vertex_qubits: dict
    piece_embeddings: list


def _weld_along_graph(
    graph: WeldGraph, make_piece, piece_ends, weld_type: str
) -> _Assembly:
    """Weld one piece per edge, joining boundaries at shared vertices.

    make_piece(edge) returns a k=0 piece whose folded string shows up at
    both of its boundaries; piece_ends gives the two ordered boundary
    qubit tuples (first vertex, second vertex); one piece object may
    serve several edges.  The assembly is one welding._Indexed from the
    first piece (welded onto nothing) on.  A weld shares only the qubits
    of its edge's known vertices, so the loop keeps each vertex's handles
    of the rows meeting its qubits, taken from the rows added by the weld
    that reaches it first (no other row meets it), and hands the weld
    core those still in the block as its seam; a welded row keeps its
    code-1 handle and restriction, so each weld costs its piece plus its
    seam, not the whole assembly.  Each distinct piece object is
    validated and ranked once and the assembly never: weld equals
    weld_oracle, whose output is the full commutant of the adopted
    block, so k=0 inputs give a valid k=0 output.

    The folded strings merge into one generator row, the union of every
    piece's string: _lift(asm, string support).  Once both weld checks
    pass, no other row of either side restricts to the weld as the
    string does, since two rows with one restriction multiply to an
    operator that avoids the weld, which the independence check rejects
    unless the rows are equal.  So each weld joins the two strings into
    their union, and the row is found by its support afterwards.
    """
    block = _Indexed.of(GeneratingSet._packed(0, (), ()), weld_type)
    vertex_qubits: dict = {}
    handles: dict = {}  # vertex -> handles of the rows that meet its qubits
    embeddings = []
    for edge in _ordered_edges(graph):
        piece = make_piece(edge)
        _require_weldable(piece, "piece")
        pairs, seam = [], {}
        for vertex, end in zip(edge, piece_ends):
            if vertex in vertex_qubits:
                pairs.extend(zip(vertex_qubits[vertex], end))
                seam.update((h, block.rows[h]) for h in handles[vertex] if h in block.rows)
        layout, _, added = _weld_core(block, piece.gens, pairs, seam)
        embed = layout.embed2
        for vertex, end in zip(edge, piece_ends):
            if vertex not in vertex_qubits:
                vertex_qubits[vertex] = qubits = tuple(embed[q] for q in end)
                mask = sum(1 << q for q in set(qubits))
                handles[vertex] = {h for h, row in added.items() if row & mask}
        embeddings.append((edge, embed))
    return _Assembly(CssCode(block.gens()), vertex_qubits, embeddings)


def _lift(asm: _Assembly, support) -> set[int]:
    """The qubits a per-piece support covers, over every piece of asm."""
    return {embed[q] for _, embed in asm.piece_embeddings for q in support}


def _weld_strips(lay: _Lattice, piece: CssCode) -> CssCode:
    """Width-1 strips X-welded side by side into lay's canonical layout.

    piece is a _Lattice(1, 0, lay.dz) strip with its top string folded.
    On each edge of the column grid it joins the edge's two columns, its
    rungs becoming hx edges along x and hy edges along y; the merged top
    string is the row on lay.layer(0).
    """
    strip = _Lattice(1, 0, lay.dz)
    asm = _weld_along_graph(
        grid2d(lay.dx + 1, lay.dy + 1),
        lambda edge: piece,
        (strip.column(0, 0), strip.column(1, 0)),
        "x",
    )
    # the strip is one sheet, which lands on the sheet of its grid edge
    whole = strip.sheet("x", 0, 0)
    perm = [-1] * asm.code.n
    for ((x, y), (xv, _)), embed in asm.piece_embeddings:
        for q, target in zip(whole, lay.sheet("x" if xv > x else "y", x, y)):
            perm[embed[q]] = target
    if sorted(perm) != list(range(asm.code.n)):
        raise AssertionError("strip welding did not cover the lattice exactly once")
    return permute_qubits(asm.code, perm)


def _piece_region_graph(
    graph: WeldGraph, asm: _Assembly, particle_type: str, label: str
) -> FlatRegionGraph:
    """One region per welded piece, one boundary per weld-graph vertex."""
    vindex = {v: i for i, v in enumerate(graph.vertices)}
    boundaries = tuple(
        QubitPatch(f"boundary {v}", asm.vertex_qubits[v]) for v in graph.vertices
    )
    regions = tuple(
        QubitPatch(f"{label} {u}-{v}", embed)
        for (u, v), embed in asm.piece_embeddings
    )
    incidence = tuple((vindex[u], vindex[v]) for (u, v), _ in asm.piece_embeddings)
    return FlatRegionGraph(particle_type, asm.code.n, regions, boundaries, incidence)


def build_welded_surface(
    graph: WeldGraph, boundary_type: str, spec: SurfaceSpec
) -> CssCode:
    """One surface patch per graph edge, welded at shared boundaries.

    Rough welding joins top/bottom rows with Z-type welds and promotes
    the merged Z string; smooth welding joins side columns with X-type
    welds and promotes the merged X string.  Flat-region metadata: a
    weld merges one generator type, so the opposite particle type
    splits there and gets one region per piece, while the welded type
    roams the whole assembly as a single region.
    """
    btype = str(boundary_type).lower()
    if btype not in ("rough", "smooth"):
        raise ValidationError("boundary_type must be 'rough' or 'smooth'")
    lay = _Lattice(spec.width, 0, spec.height)
    top, bottom = lay.layer(0), lay.layer(spec.height - 1)
    left, right = lay.column(0, 0), lay.column(spec.width, 0)
    if btype == "rough":
        if spec.height < 2:
            raise ValidationError(
                "rough welding needs height >= 2 so the two rough rows differ"
            )
        weld_type, ends, string = "z", (top, bottom), left
        free_sides = (("smooth left side", left), ("smooth right side", right))
    else:
        weld_type, ends, string = "x", (left, right), top
        free_sides = (("rough top side", top), ("rough bottom side", bottom))

    piece = CssCode(_lattice_gens(lay, weld_type))
    asm = _weld_along_graph(graph, lambda edge: piece, ends, weld_type)
    code = asm.code

    first_boundary = asm.vertex_qubits[asm.piece_embeddings[0][0][0]]
    if btype == "rough":
        partner = PauliOperator.from_support(code.n, x=first_boundary)
        rows = code.gens.z_packed
    else:
        partner = PauliOperator.from_support(code.n, z=first_boundary)
        rows = code.gens.x_packed
    index = _row_index(rows, _lift(asm, string))
    code = promote_to_logical(code, weld_type, index, partner)

    # Particles of the type opposite the weld split at the vertex
    # boundaries, one region per piece.  Welded-type particles cross
    # the welds freely: one region, bounded by the assembly's two free
    # sides, each the union of the per-piece sides (adjacent pieces
    # share their corners).
    split_kind = "x" if weld_type == "z" else "z"
    meta = {split_kind: _piece_region_graph(graph, asm, split_kind, "piece")}
    if spec.height >= 2:
        # Rough pieces have height >= 2.  One-row smooth pieces have a single
        # rough side, which leaves the welded particle type nothing to move between.
        meta[weld_type] = _one_region(
            weld_type,
            code.n,
            "assembly",
            [(label, _lift(asm, side)) for label, side in free_sides],
        )
    code = replace(code, region_metadata=meta)
    validate_or_raise(code)
    return code


def _repick_solid_layers(gens: GeneratingSet, lay: _Lattice, layers) -> CssCode:
    """Make the half-plaquettes of each given rough layer independent on its weld.

    The half-plaquettes at one rough layer restrict to the edges of the
    (dx+1) x (dy+1) column grid, which has cycles, so products of them
    can vanish on the weld.  Keeping a spanning comb (all x edges plus
    the y edges at x=0) and multiplying each remaining y-edge plaquette
    by its comb cycle clears that plaquette off the layer entirely.
    """
    at = {key: i for i, key in enumerate(lay.faces())}
    z_rows = list(gens.z_packed)
    for z in layers:
        for x, y in lay.edges("y"):
            if x == 0:
                cycle = z_rows[at["y", 0, y, z]]
            else:
                # the comb cycle closed by the y edge at x
                cycle ^= z_rows[at["x", x - 1, y, z]] ^ z_rows[at["x", x - 1, y + 1, z]]
                z_rows[at["y", x, y, z]] ^= cycle
    return CssCode(GeneratingSet._packed(gens.n, gens.x_packed, z_rows))


def _phantom_welded_faces(graph: WeldGraph, asm: _Assembly, lay: _Lattice) -> list[int]:
    """Reconstruct the welded non-comb plaquettes dropped by re-picking.

    A weld of deg pieces would have produced, for each y-edge of the
    column grid outside the comb, the product of all incident layer
    plaquettes times the weld restriction when the piece count is even:
    the union of those plaquettes, which share only the edge's two weld
    qubits.  Those operators are still in the group; appending them
    restores the plain half-plaquette energy landscape at every weld.
    """
    incident: dict = {}
    for (u, v), embed in asm.piece_embeddings:
        incident.setdefault(u, []).append((embed, 0))
        incident.setdefault(v, []).append((embed, lay.dz - 1))
    off_comb = [(x, y) for x, y in lay.edges("y") if x > 0]
    return [
        _mask({embed[q] for embed, z in incident[vertex] for q in lay.face_support("y", x, y, z)})
        for vertex in graph.vertices
        if graph.degree(vertex) >= 2
        for x, y in off_comb
    ]


def build_welded_solid(graph: WeldGraph, spec: SolidSpec) -> CssCode:
    """One solid per graph edge, rough boundaries welded at shared vertices.

    The Z strings of all pieces merge into one welded string, promoted
    against the membrane of the first piece.  The faces the re-picked
    layers dropped are added back with no check of their own: the
    assembly encodes k=0, so its Z block is the full commutant of its X
    block, and a face is in the group exactly when it commutes with every
    X row, which the promotion's class check and the closing validate
    test.  Neither eliminates a generator block.
    Flat-X regions are the solids with the boundary layers between them;
    flat-Z sheets continue straight through the welds, so their grid
    keeps the single-solid shape whatever the graph looks like.
    """
    if spec.horizontal_plaquettes:
        raise ValidationError(
            "welded solids use the half-plaquette generating set; build the "
            "pieces with horizontal_plaquettes=False"
        )
    if spec.dz < 2:
        raise ValidationError(
            "welding needs dz >= 2 so the two rough layers are distinct"
        )
    lay = _Lattice(spec.dx, spec.dy, spec.dz)
    shared = {v: graph.degree(v) >= 2 for v in graph.vertices}

    @functools.cache
    def variant(top: bool, bottom: bool) -> CssCode:
        # top and bottom say which of its rough layers meet other pieces;
        # the folded string is the last row, which the re-picks never touch
        layers = [z for z, meets in ((0, top), (spec.dz - 1, bottom)) if meets]
        return _repick_solid_layers(_lattice_gens(lay, "z"), lay, layers)

    ends = (lay.layer(0), lay.layer(spec.dz - 1))
    asm = _weld_along_graph(graph, lambda e: variant(shared[e[0]], shared[e[1]]), ends, "z")

    code = asm.code
    phantoms = _phantom_welded_faces(graph, asm, lay)
    if phantoms:
        z_rows = code.gens.z_packed + tuple(phantoms)
        code = CssCode(GeneratingSet._packed(code.n, code.gens.x_packed, z_rows))

    first_embed = asm.piece_embeddings[0][1]
    membrane = PauliOperator.from_support(code.n, x=[first_embed[q] for q in lay.layer(0)])
    string = _lift(asm, lay.column(0, 0))
    code = promote_to_logical(code, "z", _row_index(code.gens.z_packed, string), membrane)

    # Flat-Z columns and sheets of every piece fuse across the welds into
    # one column and one sheet each.
    meta = {
        "x": _piece_region_graph(graph, asm, "x", "solid"),
        "z": _sheet_region_graph(lay, code.n, lambda support: _lift(asm, support)),
    }
    code = replace(code, region_metadata=meta)
    validate_or_raise(code)
    return code


def build_solid_by_welding(spec: SolidSpec) -> CssCode:
    """Assemble build_solid(spec) by X-welding tall thin strips.

    One height-dz, width-1 surface strip per sheet of the solid, welded
    along the column grid by smooth welds; the merged membrane is
    promoted at the end.  A cross-check route for build_solid with
    horizontal_plaquettes=False.
    """
    if spec.horizontal_plaquettes:
        raise ValidationError(
            "the strip construction generates half-plaquettes only; use "
            "horizontal_plaquettes=False"
        )
    lay = _Lattice(spec.dx, spec.dy, spec.dz)
    code = _weld_strips(lay, CssCode(_lattice_gens(_Lattice(1, 0, spec.dz), "x")))
    partner = PauliOperator.from_support(code.n, z=lay.column(0, 0))
    code = promote_to_logical(code, "x", _row_index(code.gens.x_packed, lay.layer(0)), partner)
    code = replace(code, region_metadata=_solid_region_metadata(spec))
    validate_or_raise(code)
    return code
