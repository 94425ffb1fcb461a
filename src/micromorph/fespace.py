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

import enum
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .mesh import LOCAL_EDGES, BoxMesh

__all__ = [
    "DofKind",
    "DofMap",
    "QuadratureRule",
    "quadrature_rule",
    "FESystem",
    "build_u_space",
    "build_p_space",
    "build_fe_system",
    "eval_u_basis",
    "eval_p_basis",
    "interpolate_u",
    "interpolate_p",
    "evaluate_u",
    "evaluate_p",
    "evaluate_curl_p",
    "evaluate_grad_u",
]

N_LOCAL = 30  # 4 vertices x 3 components + 6 edges x 3 rows


class DofKind(enum.Enum):
    NODAL_VECTOR = "nodal-vector"
    EDGE_ROWS = "edge-rows"


@dataclass(frozen=True)
class DofMap:
    kind: DofKind
    n_dofs: int
    n_entities: int
    entity_rank: np.ndarray = field(repr=False)  # (n_entities,), -1 constrained
    constrained: np.ndarray = field(repr=False)  # (n_entities,) bool

    @property
    def n_constrained(self) -> int:
        return int(self.constrained.sum())


def build_u_space(mesh: BoxMesh) -> DofMap:
    """Vector P1 on interior vertices; boundary vertices constrained."""
    constrained = mesh.boundary_vertex
    rank = -np.ones(mesh.n_vertices, dtype=int)
    interior = np.flatnonzero(~constrained)
    rank[interior] = np.arange(interior.size)
    return DofMap(
        kind=DofKind.NODAL_VECTOR,
        n_dofs=3 * interior.size,
        n_entities=mesh.n_vertices,
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
        kind=DofKind.EDGE_ROWS,
        n_dofs=3 * interior.size,
        n_entities=mesh.n_edges,
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


def quadrature_rule(degree: int = 2) -> QuadratureRule:
    if degree <= 1:
        pts = np.full((1, 4), 0.25)
        wts = np.array([1.0 / 6.0])
        return QuadratureRule(1, pts, wts)
    if degree == 2:
        a = 0.5854101966249685
        b = 0.1381966011250105
        pts = np.full((4, 4), b)
        np.fill_diagonal(pts, a)
        wts = np.full(4, 1.0 / 24.0)
        return QuadratureRule(2, pts, wts)
    raise ValueError(f"no quadrature rule of degree {degree}")


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

    def split(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return w[..., : self.n_u_dofs], w[..., self.n_u_dofs:]

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


def build_fe_system(mesh: BoxMesh, quad_degree: int = 2) -> FESystem:
    u_map = build_u_space(mesh)
    p_map = build_p_space(mesh)
    return FESystem(
        mesh=mesh,
        u_map=u_map,
        p_map=p_map,
        quadrature=quadrature_rule(quad_degree),
        grad_hats=_cell_grad_hats(mesh),
        cell_dofs=_cell_dof_table(mesh, u_map, p_map),
    )


def eval_u_basis(sys: FESystem, cell: int, bary) -> tuple[np.ndarray, np.ndarray]:
    """Hat values (4,) and their constant physical gradients (4, 3)."""
    bary = np.asarray(bary, dtype=float)
    return bary.copy(), sys.grad_hats[cell].copy()


def eval_p_basis(sys: FESystem, cell: int, bary) -> tuple[np.ndarray, np.ndarray]:
    """Edge basis values (6, 3) and constant curls (6, 3), globally oriented.

    Local edge (a, b) carries w = lam_a grad lam_b - lam_b grad lam_a with
    curl 2 grad lam_a x grad lam_b, flipped where the local direction
    disagrees with the global low-to-high orientation.
    """
    bary = np.asarray(bary, dtype=float)
    g = sys.grad_hats[cell]
    signs = sys.mesh.cell_edge_signs[cell]
    values = np.empty((6, 3))
    curls = np.empty((6, 3))
    for e, (a, b) in enumerate(LOCAL_EDGES):
        values[e] = signs[e] * (bary[a] * g[b] - bary[b] * g[a])
        curls[e] = signs[e] * 2.0 * np.cross(g[a], g[b])
    return values, curls


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


def _local_u(sys: FESystem, u_coeffs: np.ndarray, cell: int) -> np.ndarray:
    """(4, 3) nodal values on a cell, zeros at constrained vertices."""
    out = np.zeros((4, 3))
    rank = sys.u_map.entity_rank[sys.mesh.cells[cell]]
    for a in range(4):
        if rank[a] >= 0:
            out[a] = u_coeffs[3 * rank[a]: 3 * rank[a] + 3]
    return out


def _local_p(sys: FESystem, p_coeffs: np.ndarray, cell: int) -> np.ndarray:
    """(6, 3) per-edge row circulations on a cell, zeros at constrained edges."""
    out = np.zeros((6, 3))
    rank = sys.p_map.entity_rank[sys.mesh.cell_edges[cell]]
    n_int = sys.n_p_dofs // 3
    for e in range(6):
        if rank[e] >= 0:
            for row in range(3):
                out[e, row] = p_coeffs[row * n_int + rank[e]]
    return out


def evaluate_u(sys: FESystem, u_coeffs: np.ndarray, cell: int, bary) -> np.ndarray:
    vals, _ = eval_u_basis(sys, cell, bary)
    return vals @ _local_u(sys, u_coeffs, cell)


def evaluate_grad_u(sys: FESystem, u_coeffs: np.ndarray, cell: int) -> np.ndarray:
    """Constant displacement gradient on a cell, rows are component gradients."""
    local = _local_u(sys, u_coeffs, cell)       # (4, 3) values
    return local.T @ sys.grad_hats[cell]


def evaluate_p(sys: FESystem, p_coeffs: np.ndarray, cell: int, bary) -> np.ndarray:
    vals, _ = eval_p_basis(sys, cell, bary)     # (6, 3)
    local = _local_p(sys, p_coeffs, cell)       # (6, 3) rows x edges
    return np.einsum("er,ej->rj", local, vals)


def evaluate_curl_p(sys: FESystem, p_coeffs: np.ndarray, cell: int) -> np.ndarray:
    _, curls = eval_p_basis(sys, cell, np.full(4, 0.25))
    local = _local_p(sys, p_coeffs, cell)
    return np.einsum("er,ej->rj", local, curls)
