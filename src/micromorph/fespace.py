"""Discrete spaces: vector P1 for the displacement, lowest-order edge
elements (three row copies) for the micro-distortion.

Boundary conditions are built into the dof maps: every boundary vertex is
eliminated from the displacement space (zero trace) and every boundary edge
from the micro-distortion space (zero tangential trace row-wise).

Layouts:

* displacement dofs are vertex-major: dof(vertex, comp) = 3*rank + comp
* micro-distortion dofs are row-major over three independent edge fields:
  dof(edge, row) = row * n_interior_edges + rank
* the product vector stacks the displacement block first
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .mesh import BoxMesh

__all__ = [
    "DofMap",
    "QuadratureRule",
    "quadrature_rule",
    "FESystem",
    "build_u_space",
    "build_p_space",
    "build_fe_system",
    "interpolate_u",
    "interpolate_p",
]

N_LOCAL = 30  # 4 vertices x 3 components + 6 edges x 3 rows


@dataclass(frozen=True)
class DofMap:
    n_dofs: int
    entity_rank: np.ndarray = field(repr=False)  # per vertex or edge, -1 constrained
    constrained: np.ndarray = field(repr=False)  # per vertex or edge


def build_u_space(mesh: BoxMesh) -> DofMap:
    """Vector P1 on interior vertices; boundary vertices constrained."""
    constrained = mesh.boundary_vertex
    rank = -np.ones(mesh.n_vertices, dtype=int)
    interior = np.flatnonzero(~constrained)
    rank[interior] = np.arange(interior.size)
    return DofMap(
        n_dofs=3 * interior.size,
        entity_rank=rank,
        constrained=constrained,
    )


def build_p_space(mesh: BoxMesh) -> DofMap:
    """Three edge-element fields on interior edges; boundary edges constrained."""
    constrained = mesh.boundary_edge
    rank = -np.ones(mesh.n_edges, dtype=int)
    interior = np.flatnonzero(~constrained)
    rank[interior] = np.arange(interior.size)
    return DofMap(
        n_dofs=3 * interior.size,
        entity_rank=rank,
        constrained=constrained,
    )


@dataclass(frozen=True)
class QuadratureRule:
    """Barycentric points and weights on the reference tetrahedron.

    Weights sum to the reference volume 1/6; the physical weight on a cell
    of volume V is 6 * V * weight.
    """

    degree: int
    points: np.ndarray = field(repr=False)   # (nq, 4) barycentric
    weights: np.ndarray = field(repr=False)  # (nq,)


def quadrature_rule() -> QuadratureRule:
    """The symmetric 4-point rule, exact for polynomials of degree 2."""
    a = 0.5854101966249685
    b = 0.1381966011250105
    pts = np.full((4, 4), b)
    np.fill_diagonal(pts, a)
    wts = np.full(4, 1.0 / 24.0)
    return QuadratureRule(2, pts, wts)


@dataclass(frozen=True)
class FESystem:
    """Mesh plus both dof maps, geometry caches, and the product layout.

    ``grad_hats[c, a]`` is the constant physical gradient of barycentric
    function a on cell c.  ``cell_dofs[c]`` maps the 30 local dofs (12
    displacement then 18 micro-distortion) to product-space indices, -1 for
    constrained dofs.
    """

    mesh: BoxMesh
    u_map: DofMap
    p_map: DofMap
    quadrature: QuadratureRule
    grad_hats: np.ndarray = field(repr=False)   # (nc, 4, 3)
    cell_dofs: np.ndarray = field(repr=False)   # (nc, 30)

    @property
    def n_u_dofs(self) -> int:
        return self.u_map.n_dofs

    @property
    def n_p_dofs(self) -> int:
        return self.p_map.n_dofs

    @property
    def n_dofs(self) -> int:
        return self.u_map.n_dofs + self.p_map.n_dofs

    @cached_property
    def pair_keys(self) -> np.ndarray:
        """Sorted keys ``row * n_dofs + col``, row <= col, of every pair of
        free dofs that share a cell: the upper triangle of the sparsity
        pattern of every assembled form.  Built on first use from the
        dof-cell incidence matrix, then kept.
        """
        import scipy.sparse as sp

        n = self.n_dofs
        free = self.cell_dofs >= 0
        cells = np.nonzero(free)[0]
        incidence = sp.csr_matrix(
            (np.ones(cells.size), (self.cell_dofs[free], cells)),
            shape=(n, self.mesh.n_cells),
        )
        pairs = (incidence @ incidence.T).tocsr()
        pairs.sort_indices()
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(pairs.indptr))
        upper = pairs.indices >= rows
        return rows[upper] * n + pairs.indices[upper]


def _cell_grad_hats(mesh: BoxMesh) -> np.ndarray:
    p = mesh.vertices[mesh.cells]                    # (nc, 4, 3)
    jac = (p[:, 1:] - p[:, :1]).transpose(0, 2, 1)   # columns are edge vectors
    inv_t = np.linalg.inv(jac).transpose(0, 2, 1)
    ref = np.array(
        [[-1.0, -1.0, -1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    )
    return np.einsum("cij,aj->cai", inv_t, ref)


def _cell_dof_table(mesh: BoxMesh, u_map: DofMap, p_map: DofMap) -> np.ndarray:
    nc = mesh.n_cells
    table = -np.ones((nc, N_LOCAL), dtype=int)
    vrank = u_map.entity_rank[mesh.cells]            # (nc, 4)
    for a in range(4):
        for i in range(3):
            col = 3 * a + i
            r = vrank[:, a]
            table[:, col] = np.where(r >= 0, 3 * r + i, -1)
    erank = p_map.entity_rank[mesh.cell_edges]       # (nc, 6)
    n_int = p_map.n_dofs // 3
    offset = u_map.n_dofs
    for e in range(6):
        for i in range(3):
            col = 12 + 3 * e + i
            r = erank[:, e]
            table[:, col] = np.where(r >= 0, offset + i * n_int + r, -1)
    return table


def build_fe_system(mesh: BoxMesh) -> FESystem:
    u_map = build_u_space(mesh)
    p_map = build_p_space(mesh)
    return FESystem(
        mesh=mesh,
        u_map=u_map,
        p_map=p_map,
        quadrature=quadrature_rule(),  # exact for the moments of assembly
        grad_hats=_cell_grad_hats(mesh),
        cell_dofs=_cell_dof_table(mesh, u_map, p_map),
    )


_GAUSS3 = (
    (0.5 * (1.0 - np.sqrt(0.6)), 5.0 / 18.0),
    (0.5, 4.0 / 9.0),
    (0.5 * (1.0 + np.sqrt(0.6)), 5.0 / 18.0),
)


def interpolate_u(sys: FESystem, f) -> np.ndarray:
    """Vertex interpolation of x -> R^3 onto the constrained space."""
    coeffs = np.zeros(sys.n_u_dofs)
    rank = sys.u_map.entity_rank
    for v in np.flatnonzero(rank >= 0):
        coeffs[3 * rank[v]: 3 * rank[v] + 3] = f(sys.mesh.vertices[v])
    return coeffs


def interpolate_p(sys: FESystem, f) -> np.ndarray:
    """Edge interpolation of x -> R^{3x3}: row-wise tangential circulations.

    Circulations are computed with 3-point Gauss, exact for polynomial rows
    up to degree five along each straight edge.
    """
    n_int = sys.n_p_dofs // 3
    coeffs = np.zeros(sys.n_p_dofs)
    rank = sys.p_map.entity_rank
    verts = sys.mesh.vertices
    for e in np.flatnonzero(rank >= 0):
        a, b = sys.mesh.edges[e]
        pa, pb = verts[a], verts[b]
        circ = np.zeros(3)
        for s, w in _GAUSS3:
            circ += w * np.asarray(f(pa + s * (pb - pa))) @ (pb - pa)
        for row in range(3):
            coeffs[row * n_int + rank[e]] = circ[row]
    return coeffs
