import numpy as np
import pytest

from micromorph.fespace import (
    build_fe_system,
    build_p_space,
    build_u_space,
    interpolate_p,
    interpolate_u,
    quadrature_rule,
)
from micromorph.mesh import build_box_mesh
from oracles import eval_p_basis, eval_u_basis, evaluate_curl_p, evaluate_p, evaluate_u


def barycentric_of(mesh, cell, x):
    verts = mesh.vertices[mesh.cells[cell]]
    m = np.vstack([verts.T, np.ones(4)])
    return np.linalg.solve(m, np.append(x, 1.0))


class TestDofCounts:
    def test_u_space_sizes(self):
        for n, interior in ((1, 0), (2, 1), (3, 8)):
            m = build_box_mesh((1, 1, 1), (n, n, n))
            assert build_u_space(m).n_dofs == 3 * interior

    def test_p_space_single_cube(self, unit_mesh_1):
        # only the body diagonal is interior
        assert build_p_space(unit_mesh_1).n_dofs == 3

    def test_constrained_partition(self, unit_mesh_2):
        pm = build_p_space(unit_mesh_2)
        assert pm.n_dofs + 3 * int(pm.constrained.sum()) == 3 * unit_mesh_2.n_edges

    def test_interior_edges_grow_faster_than_boundary(self):
        prev_int, prev_bnd = -1, -1
        for n in range(1, 5):
            m = build_box_mesh((1, 1, 1), (n, n, n))
            interior = int((~m.boundary_edge).sum())
            boundary = int(m.boundary_edge.sum())
            assert boundary == 18 * n * n
            assert interior > prev_int
            prev_int, prev_bnd = interior, boundary


class TestQuadrature:
    def test_weights_sum_to_reference_volume(self):
        q = quadrature_rule()
        assert q.weights.sum() == pytest.approx(1 / 6, rel=1e-15)

    def test_degree_two_exact_on_quadratics(self):
        q = quadrature_rule()
        # reference integral of lam_a lam_b = 1/120 (a != b), lam_a^2 = 1/60
        for a in range(4):
            for b in range(4):
                val = np.sum(q.weights * q.points[:, a] * q.points[:, b])
                expect = 1 / 60 if a == b else 1 / 120
                assert val == pytest.approx(expect, rel=1e-14)


class TestNodalBasis:
    def test_partition_of_unity(self, sys_2, rng):
        for _ in range(5):
            cell = rng.integers(sys_2.mesh.n_cells)
            bary = rng.dirichlet(np.ones(4))
            vals, grads = eval_u_basis(sys_2, int(cell), bary)
            assert vals.sum() == pytest.approx(1.0, rel=1e-14)
            np.testing.assert_allclose(grads.sum(axis=0), 0.0, atol=1e-12)

    def test_linear_reproduction(self, sys_2, rng):
        a = np.array([0.3, -0.2, 0.7])
        mesh = sys_2.mesh
        for cell in range(0, mesh.n_cells, 7):
            verts = mesh.vertices[mesh.cells[cell]]
            nodal = verts @ a                       # a . x at the vertices
            bary = rng.dirichlet(np.ones(4))
            vals, _ = eval_u_basis(sys_2, cell, bary)
            x = bary @ verts
            assert vals @ nodal == pytest.approx(a @ x, abs=1e-13)


class TestEdgeBasis:
    def test_own_circulation_one_others_zero(self, sys_2):
        # 2-point Gauss is exact for the quadratic integrand along an edge
        mesh = sys_2.mesh
        gauss2 = (0.5 - 0.5 / np.sqrt(3), 0.5 + 0.5 / np.sqrt(3))
        for cell in range(0, mesh.n_cells, 11):
            for e in range(6):
                ge = mesh.cell_edges[cell, e]
                va, vb = mesh.edges[ge]
                pa, pb = mesh.vertices[va], mesh.vertices[vb]
                for e2 in range(6):
                    circ = 0.0
                    for s in gauss2:
                        bary = barycentric_of(mesh, cell, pa + s * (pb - pa))
                        vals, _ = eval_p_basis(sys_2, cell, bary)
                        circ += 0.5 * vals[e2] @ (pb - pa)
                    assert circ == pytest.approx(
                        1.0 if e2 == e else 0.0, abs=1e-13
                    )

    def test_constants_reproduced_with_zero_curl(self, rng):
        mesh = build_box_mesh((1.3, 0.9, 1.1), (2, 2, 2))
        sys = build_fe_system(mesh)
        c = rng.standard_normal((3, 3))
        for cell in range(0, mesh.n_cells, 5):
            coeffs = np.zeros((6, 3))
            for e in range(6):
                va, vb = mesh.edges[mesh.cell_edges[cell, e]]
                coeffs[e] = c @ (mesh.vertices[vb] - mesh.vertices[va])
            bary = rng.dirichlet(np.ones(4))
            vals, curls = eval_p_basis(sys, cell, bary)
            np.testing.assert_allclose(
                np.einsum("er,ej->rj", coeffs, vals), c, atol=1e-12
            )
            np.testing.assert_allclose(
                np.einsum("er,ej->rj", coeffs, curls), 0.0, atol=1e-12
            )


class TestConformity:
    @staticmethod
    def _shared_faces(mesh):
        from collections import defaultdict

        faces = defaultdict(list)
        for c in range(mesh.n_cells):
            for tri in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
                faces[tuple(sorted(mesh.cells[c][list(tri)]))].append(c)
        return [(k, v) for k, v in faces.items() if len(v) == 2]

    def test_tangential_trace_continuous(self, sys_2, rng):
        mesh = sys_2.mesh
        coeffs = rng.standard_normal(sys_2.n_p_dofs)
        for key, (c1, c2) in self._shared_faces(mesh)[::9]:
            p1, p2, p3 = mesh.vertices[list(key)]
            n = np.cross(p2 - p1, p3 - p1)
            n /= np.linalg.norm(n)
            lam = rng.dirichlet(np.ones(3))
            x = lam @ np.array([p1, p2, p3])
            traces = []
            for c in (c1, c2):
                p = evaluate_p(sys_2, coeffs, c, barycentric_of(mesh, c, x))
                traces.append(p - np.outer(p @ n, n))
            np.testing.assert_allclose(traces[0], traces[1], atol=1e-12)

    def test_zero_boundary_traces(self, sys_2, rng):
        mesh = sys_2.mesh
        u = rng.standard_normal(sys_2.n_u_dofs)
        p = rng.standard_normal(sys_2.n_p_dofs)
        # u vanishes at boundary vertices
        for v in np.flatnonzero(mesh.boundary_vertex)[::5]:
            cell = int(np.argmax((mesh.cells == v).any(axis=1)))
            a = int(np.argmax(mesh.cells[cell] == v))
            bary = np.zeros(4)
            bary[a] = 1.0
            np.testing.assert_allclose(
                evaluate_u(sys_2, u, cell, bary), 0.0, atol=1e-14
            )
        # P rows have zero tangential trace on boundary faces
        from collections import defaultdict

        faces = defaultdict(list)
        for c in range(mesh.n_cells):
            for tri in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
                faces[tuple(sorted(mesh.cells[c][list(tri)]))].append(c)
        boundary_faces = [
            (k, v[0]) for k, v in faces.items()
            if len(v) == 1 and mesh.boundary_vertex[list(k)].all()
        ]
        for key, c in boundary_faces[::13]:
            p1, p2, p3 = mesh.vertices[list(key)]
            n = np.cross(p2 - p1, p3 - p1)
            n /= np.linalg.norm(n)
            lam = rng.dirichlet(np.ones(3))
            x = lam @ np.array([p1, p2, p3])
            pm = evaluate_p(sys_2, p, c, barycentric_of(mesh, c, x))
            np.testing.assert_allclose(np.cross(pm, n), 0.0, atol=1e-12)

    def test_discrete_gradients_are_curl_free(self, sys_2, rng):
        # circulation of grad(phi) along an edge is phi(b) - phi(a)
        mesh = sys_2.mesh
        phi = rng.standard_normal(mesh.n_vertices)
        phi[mesh.boundary_vertex] = 0.0
        n_int = sys_2.n_p_dofs // 3
        coeffs = np.zeros(sys_2.n_p_dofs)
        for e in np.flatnonzero(sys_2.p_map.entity_rank >= 0):
            a, b = mesh.edges[e]
            r = sys_2.p_map.entity_rank[e]
            for row in range(3):
                coeffs[row * n_int + r] = phi[b] - phi[a]
        for cell in range(0, mesh.n_cells, 7):
            np.testing.assert_allclose(
                evaluate_curl_p(sys_2, coeffs, cell), 0.0, atol=1e-12
            )


class TestInterpolation:
    def test_interpolated_sine_bump_matches_at_vertices(self, sys_2):
        f = lambda x: np.sin(np.pi * x) * 2.0
        coeffs = interpolate_u(sys_2, f)
        mesh = sys_2.mesh
        for v in np.flatnonzero(~mesh.boundary_vertex):
            r = sys_2.u_map.entity_rank[v]
            np.testing.assert_allclose(
                coeffs[3 * r: 3 * r + 3], f(mesh.vertices[v]), rtol=1e-14
            )

    def test_interpolate_p_linear_field_exact(self, sys_2, rng):
        a = rng.standard_normal((3, 3))
        f = lambda x: a * (x @ np.ones(3))
        coeffs = interpolate_p(sys_2, f)
        mesh = sys_2.mesh
        n_int = sys_2.n_p_dofs // 3
        for e in np.flatnonzero(sys_2.p_map.entity_rank >= 0)[::4]:
            va, vb = mesh.edges[e]
            pa, pb = mesh.vertices[va], mesh.vertices[vb]
            mid = 0.5 * (pa + pb)
            expected = (a * (mid @ np.ones(3))) @ (pb - pa)
            r = sys_2.p_map.entity_rank[e]
            got = np.array([coeffs[row * n_int + r] for row in range(3)])
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-14)
