"""Structured tetrahedral mesh of an axis-aligned box.

Every grid cube is split into six tetrahedra sharing the cube's main
diagonal (Kuhn split), which is face-conforming across the structured grid
and gives a globally consistent edge orientation: every edge points from
its lower to its higher global vertex index.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

__all__ = ["BoxMesh", "MeshDiagnostics", "build_box_mesh", "validate_mesh"]

# Local edges of a tet, each directed first -> second local vertex.
LOCAL_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

_VOLUME_TOL = 1e-12  # relative mismatch of the cell volumes' sum and the box
_PERMS = tuple(itertools.permutations((0, 1, 2)))
_PARITY = tuple(
    1 if p in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1 for p in _PERMS
)


@dataclass(frozen=True)
class BoxMesh:
    """Tetrahedral mesh of [0, Lx] x [0, Ly] x [0, Lz].

    ``edges`` hold global vertex pairs with the lower index first;
    ``cell_edge_signs`` record whether a cell's local edge direction agrees
    with the global one.  The boundary flags are read off integer grid
    indices, so they are exact.
    """

    dims: tuple[float, float, float]
    resolution: tuple[int, int, int]
    vertices: np.ndarray = field(repr=False)       # (nv, 3) float
    cells: np.ndarray = field(repr=False)          # (nc, 4) int
    cell_volumes: np.ndarray = field(repr=False)   # (nc,)
    edges: np.ndarray = field(repr=False)          # (ne, 2) int, sorted pairs
    cell_edges: np.ndarray = field(repr=False)     # (nc, 6) int
    cell_edge_signs: np.ndarray = field(repr=False)  # (nc, 6) +-1
    boundary_vertex: np.ndarray = field(repr=False)  # (nv,) bool
    boundary_edge: np.ndarray = field(repr=False)    # (ne,) bool

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    def dump_text(self, stream) -> None:
        """Plain-text debug dump: 'v x y z', 'c a b c d', 'e a b flag' lines."""
        for x, y, z in self.vertices:
            stream.write(f"v {float(x)!r} {float(y)!r} {float(z)!r}\n")
        for a, b, c, d in self.cells:
            stream.write(f"c {a} {b} {c} {d}\n")
        for (a, b), flag in zip(self.edges, self.boundary_edge):
            stream.write(f"e {a} {b} {int(flag)}\n")


def _box_dims(dims) -> tuple[float, float, float]:
    dims = tuple(float(d) for d in dims)
    if len(dims) != 3:
        raise ValueError("dims must have three entries")
    if not all(0 < d < math.inf for d in dims):
        raise ValueError("box side lengths must be positive and finite")
    return dims


def _box_resolution(resolution) -> tuple[int, int, int]:
    resolution = tuple(int(n) for n in resolution)
    if len(resolution) != 3:
        raise ValueError("resolution must have three entries")
    if any(n < 1 for n in resolution):
        raise ValueError("resolution must be at least one cell per axis")
    return resolution


def _cell_volume(dims, resolution) -> float:
    """The volume of each Kuhn tetrahedron, which must be a normal double, and
    the ratio of the longest cell side to the shortest, which must be finite:
    a cell's determinant and its inverse then neither overflow nor underflow.

    The volume is formed from the sides' mantissas and exponents, so no
    partial product under- or overflows, and the verdict does not depend on
    the axis order.
    """
    sides = sorted(d / n for d, n in zip(dims, resolution))
    parts = [math.frexp(h) for h in sides]
    mantissa = math.prod(m for m, _ in parts) / 6.0
    try:
        volume = math.ldexp(mantissa, sum(e for _, e in parts))
    except OverflowError:
        volume = math.inf
    if not sys.float_info.min <= volume < math.inf:
        raise ValueError(f"dims give cells of volume {volume!r}, not a normal double")
    if sides[-1] / sides[0] == math.inf:
        raise ValueError(
            f"dims give cell sides {sides[0]!r} and {sides[-1]!r}, whose ratio "
            "overflows"
        )
    return volume


def build_box_mesh(dims, resolution) -> BoxMesh:
    """Mesh the box with resolution[i] cubes per axis, 6 tets per cube."""
    dims = _box_dims(dims)
    resolution = _box_resolution(resolution)
    _cell_volume(dims, resolution)

    nx, ny, nz = resolution
    h = np.array(dims) / np.array(resolution)

    # x index varies fastest: vertex id = i + (nx+1) * (j + (ny+1) * k)
    zz, yy, xx = np.meshgrid(
        np.arange(nz + 1), np.arange(ny + 1), np.arange(nx + 1), indexing="ij"
    )
    vertex_grid = np.stack([xx, yy, zz], axis=-1).reshape(-1, 3)
    vertices = vertex_grid * h

    def vid(g):
        return g[..., 0] + (nx + 1) * (g[..., 1] + (ny + 1) * g[..., 2])

    base = np.stack(
        np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"),
        axis=-1,
    ).reshape(-1, 3)

    unit = np.eye(3, dtype=int)
    cube_cells = []
    for perm, parity in zip(_PERMS, _PARITY):
        g0 = base
        g1 = g0 + unit[perm[0]]
        g2 = g1 + unit[perm[1]]
        g3 = g2 + unit[perm[2]]
        if parity < 0:
            g1, g2 = g2, g1
        cube_cells.append(np.stack([vid(g0), vid(g1), vid(g2), vid(g3)], axis=1))
    # group the six tets of each cube together
    cells = np.stack(cube_cells, axis=1).reshape(-1, 4)

    p = vertices[cells]
    cell_volumes = (
        np.linalg.det(p[:, 1:] - p[:, :1]) / 6.0
    )
    if np.any(cell_volumes <= 0):
        raise AssertionError("Kuhn split produced a non-positive cell volume")

    local = np.array(LOCAL_EDGES)
    pairs = cells[:, local]                       # (nc, 6, 2)
    signs = np.where(pairs[..., 0] < pairs[..., 1], 1, -1).astype(np.int8)
    sorted_pairs = np.sort(pairs, axis=-1)
    flat = sorted_pairs.reshape(-1, 2)
    edges, inverse = np.unique(flat, axis=0, return_inverse=True)
    cell_edges = inverse.reshape(-1, 6)

    lo = vertex_grid == 0
    hi = vertex_grid == np.array(resolution)
    boundary_vertex = np.any(lo | hi, axis=1)
    e0, e1 = edges[:, 0], edges[:, 1]
    boundary_edge = np.any((lo[e0] & lo[e1]) | (hi[e0] & hi[e1]), axis=1)

    return BoxMesh(
        dims=dims,
        resolution=resolution,
        vertices=vertices,
        cells=cells,
        cell_volumes=cell_volumes,
        edges=edges,
        cell_edges=cell_edges,
        cell_edge_signs=signs,
        boundary_vertex=boundary_vertex,
        boundary_edge=boundary_edge,
    )


@dataclass(frozen=True)
class MeshDiagnostics:
    volume_sum: float
    min_cell_volume: float
    euler_characteristic: int
    violations: tuple[str, ...]


def validate_mesh(mesh: BoxMesh) -> MeshDiagnostics:
    """Check volumes, orientation, and the Euler characteristic of a ball."""
    violations = []

    p = mesh.vertices[mesh.cells]
    vols = np.linalg.det(p[:, 1:] - p[:, :1]) / 6.0
    min_vol = float(vols.min()) if vols.size else 0.0
    if np.any(vols <= 0):
        bad = int(np.argmax(vols <= 0))
        violations.append(f"cell {bad} has non-positive volume {float(vols[bad])!r}")

    # summed in units of the Kuhn cell volume, a normal double, so that the
    # check also holds on boxes whose volume overflows
    unit = _cell_volume(mesh.dims, mesh.resolution)
    unit_sum = float((vols / unit).sum())
    vol_sum = unit_sum * unit
    n_box = 6 * math.prod(mesh.resolution)
    if abs(unit_sum - n_box) > _VOLUME_TOL * n_box:
        violations.append(
            f"cell volumes sum to {unit_sum!r} Kuhn cell volumes of {unit!r}, "
            f"the box holds {n_box}"
        )

    faces = np.sort(
        mesh.cells[:, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]], axis=-1
    ).reshape(-1, 3)
    n_faces = np.unique(faces, axis=0).shape[0]
    euler = mesh.n_vertices - mesh.n_edges + n_faces - mesh.n_cells
    if euler != 1:
        violations.append(f"Euler characteristic {euler}, expected 1 for a ball")

    return MeshDiagnostics(
        volume_sum=vol_sum,
        min_cell_volume=min_vol,
        euler_characteristic=euler,
        violations=tuple(violations),
    )
