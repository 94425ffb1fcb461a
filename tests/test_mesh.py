import numpy as np
import pytest

from micromorph.mesh import build_box_mesh, validate_mesh


class TestCounts:
    def test_single_cube(self, unit_mesh_1):
        # 12 cube edges + 6 face diagonals + 1 body diagonal
        assert unit_mesh_1.n_vertices == 8
        assert unit_mesh_1.n_cells == 6
        assert unit_mesh_1.n_edges == 19

    def test_two_per_axis(self, unit_mesh_2):
        assert unit_mesh_2.n_vertices == 27
        assert unit_mesh_2.n_cells == 48

    def test_closed_form_edge_count(self):
        # axis edges + face diagonals + body diagonals of the structured split
        for n in (1, 2, 3):
            m = build_box_mesh((1, 1, 1), (n, n, n))
            expected = 3 * n * (n + 1) ** 2 + 3 * n * n * (n + 1) + n**3
            assert m.n_edges == expected

    def test_volume_partition(self):
        m = build_box_mesh((2.0, 0.5, 1.5), (2, 3, 1))
        assert m.cell_volumes.sum() == pytest.approx(1.5, rel=1e-12)
        assert m.n_cells == 6 * 2 * 3 * 1

    def test_refinement_scaling(self):
        m1 = build_box_mesh((1, 1, 1), (1, 2, 1))
        m2 = build_box_mesh((1, 1, 1), (2, 4, 2))
        assert m2.n_cells == 8 * m1.n_cells
        assert m2.cell_volumes.sum() == pytest.approx(m1.cell_volumes.sum(), rel=1e-12)


class TestValidation:
    def test_fresh_mesh_valid(self, unit_mesh_2):
        d = validate_mesh(unit_mesh_2)
        assert d.violations == ()
        assert d.euler_characteristic == 1
        assert d.min_cell_volume > 0

    def test_single_cube_euler(self, unit_mesh_1):
        assert validate_mesh(unit_mesh_1).euler_characteristic == 1

    def test_permuted_cell_reported(self, unit_mesh_1):
        import dataclasses

        cells = unit_mesh_1.cells.copy()
        cells[0, [0, 1]] = cells[0, [1, 0]]   # flips the signed volume
        broken = dataclasses.replace(unit_mesh_1, cells=cells)
        d = validate_mesh(broken)
        assert any("non-positive volume" in v for v in d.violations)


class TestOrientation:
    def test_edges_low_to_high(self, unit_mesh_2):
        e = unit_mesh_2.edges
        assert np.all(e[:, 0] < e[:, 1])

    def test_shared_edges_reference_one_global_edge(self, unit_mesh_2):
        # local pairs resolved through cell_edges must reproduce the global pair
        m = unit_mesh_2
        from micromorph.mesh import LOCAL_EDGES

        for c in range(m.n_cells):
            for e, (a, b) in enumerate(LOCAL_EDGES):
                va, vb = m.cells[c, a], m.cells[c, b]
                ge = m.edges[m.cell_edges[c, e]]
                assert {va, vb} == set(ge)
                expected_sign = 1 if va < vb else -1
                assert m.cell_edge_signs[c, e] == expected_sign

    def test_positive_volumes(self, unit_mesh_3):
        assert np.all(unit_mesh_3.cell_volumes > 0)


class TestBoundaryFlags:
    def test_single_cube_boundary(self, unit_mesh_1):
        assert unit_mesh_1.boundary_vertex.all()      # all 8 corners
        assert unit_mesh_1.boundary_edge.sum() == 18  # all but the body diagonal

    def test_interior_vertex_count(self, unit_mesh_3):
        assert (~unit_mesh_3.boundary_vertex).sum() == 8  # (3-1)^3

    def test_boundary_edge_needs_common_face(self):
        # both endpoints on the boundary but crossing the interior: not flagged
        m = build_box_mesh((1, 1, 1), (2, 2, 2))
        for (a, b), flag in zip(m.edges, m.boundary_edge):
            ga, gb = m.vertex_grid[a], m.vertex_grid[b]
            on_common_face = any(
                (ga[ax] == gb[ax]) and (ga[ax] in (0, m.resolution[ax]))
                for ax in range(3)
            )
            assert flag == on_common_face


class TestParameters:
    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            build_box_mesh((0, 1, 1), (1, 1, 1))
        with pytest.raises(ValueError):
            build_box_mesh((1, 1, 1), (0, 1, 1))
        with pytest.raises(ValueError):
            build_box_mesh((1, 1), (1, 1, 1))


class TestDump:
    def test_dump_round_numbers(self, unit_mesh_1, tmp_path):
        import io

        buf = io.StringIO()
        unit_mesh_1.dump_text(buf)
        lines = buf.getvalue().splitlines()
        assert sum(1 for l in lines if l.startswith("v ")) == 8
        assert sum(1 for l in lines if l.startswith("c ")) == 6
        assert sum(1 for l in lines if l.startswith("e ")) == 19
