import itertools

import numpy as np
import pytest

from micromorph.fespace import build_fe_system
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

    def test_huge_box_valid(self):
        # its volume overflows; a warning would be an error here
        d = validate_mesh(build_box_mesh((1.79e308, 2.0, 2.0), (2, 2, 2)))
        assert d.violations == ()

    @pytest.mark.parametrize(
        "dims, resolution", [((1.0, 1.0, 1.0), (1, 1, 1)), ((1.79e308, 2.0, 2.0), (2, 2, 2))]
    )
    def test_permuted_cell_breaks_the_volume_sum(self, dims, resolution):
        import dataclasses

        mesh = build_box_mesh(dims, resolution)
        cells = mesh.cells.copy()
        cells[0, [0, 1]] = cells[0, [1, 0]]
        d = validate_mesh(dataclasses.replace(mesh, cells=cells))
        [orientation, volume_sum] = d.violations
        assert "non-positive volume" in orientation
        assert volume_sum.startswith("cell volumes sum to")

    @pytest.mark.parametrize("dims", [(1.0, 1.0, 1.0), (1.79e308, 2.0, 2.0)])
    def test_dropped_cell_breaks_the_volume_sum(self, dims):
        # a cell with one boundary face leaves a hole that keeps the Euler
        # characteristic and every remaining volume positive
        import dataclasses

        mesh = build_box_mesh(dims, (2, 2, 2))
        faces = np.sort(
            mesh.cells[:, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]], axis=-1
        ).reshape(-1, 3)
        _, inverse, counts = np.unique(
            faces, axis=0, return_inverse=True, return_counts=True
        )
        boundary_faces = (counts[inverse.ravel()] == 1).reshape(-1, 4).sum(axis=1)
        drop = int(np.flatnonzero(boundary_faces == 1)[0])
        holed = dataclasses.replace(
            mesh,
            cells=np.delete(mesh.cells, drop, axis=0),
            cell_volumes=np.delete(mesh.cell_volumes, drop),
            cell_edges=np.delete(mesh.cell_edges, drop, axis=0),
            cell_edge_signs=np.delete(mesh.cell_edge_signs, drop, axis=0),
        )
        d = validate_mesh(holed)
        assert d.euler_characteristic == 1
        [volume_sum] = d.violations
        assert volume_sum.startswith("cell volumes sum to")
        assert volume_sum.endswith("the box holds 48")


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
        grid = np.rint(m.vertices / m.dims * m.resolution).astype(int)
        for (a, b), flag in zip(m.edges, m.boundary_edge):
            ga, gb = grid[a], grid[b]
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

    @pytest.mark.parametrize(
        "box, ok",
        [((1e-200, 1e-200, 1e300), False),   # volume ~2.1e-102, sides 1e500 apart
         ((1e250, 1e-120, 1e-120), False),
         ((1e300, 1e-150, 1e-150), False),
         ((1e300, 1e-160, 1e-140), False),
         ((1e154, 1e-154, 1.0), True),       # side ratio 1e308
         ((1.79e308, 2.0, 2.0), True)],
    )
    def test_verdict_does_not_depend_on_the_axis_order(self, box, ok):
        # a left-to-right product of the sides underflows in some orders, and
        # an overflowing side ratio leaves a cell matrix with no finite inverse
        for dims in itertools.permutations(box):
            if ok:
                assert build_fe_system(build_box_mesh(dims, (2, 2, 2))).n_dofs > 0
            else:
                with pytest.raises(ValueError, match="dims give cell sides"):
                    build_box_mesh(dims, (2, 2, 2))

    @pytest.mark.parametrize("side", [1e-110, 1e120])
    def test_rejects_cell_volume_outside_normal_doubles(self, side):
        # the volume (side / 2)^3 / 6 underflows to 0 or overflows to inf
        with pytest.raises(ValueError, match="dims"):
            build_box_mesh((side, side, side), (2, 2, 2))


class TestDump:
    def test_dump_round_numbers(self, unit_mesh_1):
        import io

        # every 'v x y z', 'c a b c d' and 'e a b flag' record reads back exactly
        for mesh in (unit_mesh_1, build_box_mesh((1.0, 0.7, 1.3), (2, 1, 3))):
            buf = io.StringIO()
            mesh.dump_text(buf)
            records = {"v": [], "c": [], "e": []}
            for line in buf.getvalue().splitlines():
                tag, *values = line.split()
                records[tag].append(values)
            assert records["v"] == [[repr(float(x)) for x in v] for v in mesh.vertices]
            cells = np.array(records["c"], dtype=int)
            edges = np.array(records["e"], dtype=int)
            np.testing.assert_array_equal(cells, mesh.cells)
            np.testing.assert_array_equal(edges[:, :2], mesh.edges)
            np.testing.assert_array_equal(edges[:, 2], mesh.boundary_edge)
