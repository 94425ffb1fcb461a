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

from .mesh import LOCAL_EDGES, BoxMesh

__all__ = [
    "DofMap",
    "QUADRATURE_POINTS",
    "QUADRATURE_WEIGHTS",
    "FESystem",
    "build_fe_system",
    "interpolate_u",
    "interpolate_p",
]

@dataclass(frozen=True)
class DofMap:
    n_dofs: int
    entity_rank: np.ndarray = field(repr=False)  # per vertex or edge, -1 constrained


def _dof_map(constrained: np.ndarray) -> DofMap:
    """Three dofs on each entity not flagged ``constrained``, ranked in order."""
    rank = -np.ones(constrained.size, dtype=int)
    interior = np.flatnonzero(~constrained)
    rank[interior] = np.arange(interior.size)
    return DofMap(n_dofs=3 * interior.size, entity_rank=rank)


# The symmetric 4-point rule on the reference tetrahedron, exact for
# polynomials of degree 2: barycentric points (4, 4) and weights summing to
# the reference volume 1/6, so the physical weight on a cell of volume V is
# 6 * V * weight.
QUADRATURE_POINTS = np.full((4, 4), 0.1381966011250105)
np.fill_diagonal(QUADRATURE_POINTS, 0.5854101966249685)
QUADRATURE_WEIGHTS = np.full(4, 1.0 / 24.0)
QUADRATURE_POINTS.setflags(write=False)
QUADRATURE_WEIGHTS.setflags(write=False)

_EDGE_A, _EDGE_B = np.array(LOCAL_EDGES).T   # local end vertices of each edge


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
        boolean dof-cell incidence matrix, whose product with its transpose
        is the pattern (only its structure is read), then kept.
        """
        import scipy.sparse as sp

        n = self.n_dofs
        free = self.cell_dofs >= 0
        cells = np.nonzero(free)[0]
        incidence = sp.csr_matrix(
            (np.ones(cells.size, dtype=bool), (self.cell_dofs[free], cells)),
            shape=(n, self.mesh.n_cells),
        )
        pairs = (incidence @ incidence.T).tocsr()
        pairs.sort_indices()
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(pairs.indptr))
        upper = pairs.indices >= rows
        return rows[upper] * n + pairs.indices[upper]

    @cached_property
    def unit_duals(self) -> np.ndarray:
        """The load table: column k is the dual vector of entry k of a uniform
        (f, vec m), V/4 at each u-dof (a, i) and row i of m dotted with the
        integral of w_e at each P-dof (e, i).  Built on first use, then kept
        read-only, like :attr:`pair_keys`."""
        vol = self.mesh.cell_volumes
        weight = vol[:, None] * (6.0 * QUADRATURE_WEIGHTS)
        w = _edge_functions(self, np.arange(self.mesh.n_cells))
        w_int = np.einsum("cq,cqek->cek", weight, w)          # (nc, 6, 3)
        table = np.zeros((self.n_dofs, 12))
        for j, dofs in enumerate(self.cell_dofs.T):  # one local dof: cells sum in order
            free = dofs >= 0
            if j < 12:
                np.add.at(table[:, j % 3], dofs[free], vol[free] / 4.0)
            else:
                e, i = divmod(j - 12, 3)
                np.add.at(table[:, 3 + 3 * i: 6 + 3 * i], dofs[free], w_int[free, e])
        table.setflags(write=False)  # shared by every later load of this system
        return table


def _edge_functions(sys: FESystem, cells: np.ndarray) -> np.ndarray:
    """Edge functions s_e (lam_a g_b - lam_b g_a) of ``cells`` at the
    quadrature points, (nc, nq, 6, 3)."""
    lam = QUADRATURE_POINTS                               # (nq, 4)
    g = sys.grad_hats[cells]
    ga, gb = g[:, None, _EDGE_A], g[:, None, _EDGE_B]     # (nc, 1, 6, 3)
    sign = sys.mesh.cell_edge_signs[cells][:, None, :, None]
    return (lam[:, _EDGE_A, None] * gb - lam[:, _EDGE_B, None] * ga) * sign


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
    row = np.arange(3)
    vrank = u_map.entity_rank[mesh.cells][:, :, None]        # (nc, 4, 1)
    erank = p_map.entity_rank[mesh.cell_edges][:, :, None]   # (nc, 6, 1)
    u = np.where(vrank >= 0, 3 * vrank + row, -1)
    p = np.where(erank >= 0, u_map.n_dofs + row * (p_map.n_dofs // 3) + erank, -1)
    return np.concatenate([u.reshape(nc, 12), p.reshape(nc, 18)], axis=1)


def build_fe_system(mesh: BoxMesh) -> FESystem:
    u_map = _dof_map(mesh.boundary_vertex)
    p_map = _dof_map(mesh.boundary_edge)
    return FESystem(
        mesh=mesh,
        u_map=u_map,
        p_map=p_map,
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
