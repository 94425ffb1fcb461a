import re
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from micromorph.assembly import (
    FormSpec,
    LoadFunctional,
    TimeField,
    assemble_form,
    assemble_gram,
    assemble_load,
    assemble_w1,
    assemble_w2,
    form_spec_gram,
    form_spec_w1,
    form_spec_w2,
)
from micromorph.fespace import (
    QUADRATURE_POINTS,
    QUADRATURE_WEIGHTS,
    build_fe_system,
    interpolate_p,
    interpolate_u,
)
from micromorph.mesh import build_box_mesh
from micromorph.tensors import (
    ModelVariant,
    isotropic_curvature,
    isotropic_elastic,
    isotropic_material,
)
from oracles import (
    dense_form_matrix,
    eval_p_basis,
    prolongation,
    quadrature_point_form_matrix,
    random_material,
)


@pytest.fixture(scope="module")
def material():
    return isotropic_material(
        rho=1.4, micro_inertia=0.9, mu=1.1, length_scale=0.8,
        elastic=(1.2, 0.3), coupling=0.4, micro=(0.8, 0.2), curvature=0.9,
        inertia_elastic=(1.1, 0.2), inertia_coupling=0.3,
        inertia_micro=(0.7, 0.1), inertia_curvature=1.3,
    )


class TestAgainstDenseOracle:
    @pytest.mark.parametrize("res", [(1, 1, 1), (2, 2, 2)])
    def test_w1_matches_oracle(self, material, res):
        sys = build_fe_system(build_box_mesh((1, 1, 1), res))
        assembled = assemble_w1(material, sys).to_dense()
        oracle = dense_form_matrix(sys, form_spec_w1(material))
        np.testing.assert_allclose(assembled, oracle, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("res", [(1, 1, 1), (2, 2, 2)])
    def test_w2_matches_oracle(self, material, res):
        sys = build_fe_system(build_box_mesh((1, 1, 1), res))
        assembled = assemble_w2(material, sys).to_dense()
        oracle = dense_form_matrix(sys, form_spec_w2(material))
        np.testing.assert_allclose(assembled, oracle, rtol=0, atol=1e-12)

    def test_gram_matches_oracle(self, sys_2):
        assembled = assemble_gram(sys_2).to_dense()
        oracle = dense_form_matrix(sys_2, form_spec_gram())
        np.testing.assert_allclose(assembled, oracle, rtol=0, atol=1e-12)


class TestStructure:
    def test_exact_symmetry(self, material, sys_2):
        for op in (assemble_w1(material, sys_2), assemble_w2(material, sys_2)):
            d = op.matrix - op.matrix.T
            assert d.nnz == 0 or np.abs(d.data).max() == 0.0

    def test_mass_only_is_block_diagonal(self, sys_2):
        params = isotropic_material(
            inertia_elastic=(0.0, 0.0), inertia_coupling=0.0,
            inertia_micro=(0.0, 0.0), inertia_curvature=0.0,
        )
        w1 = assemble_w1(params, sys_2)
        dense = w1.to_dense()
        nu = sys_2.n_u_dofs
        assert np.abs(dense[:nu, nu:]).max() == 0.0
        # blocks equal separately assembled masses
        mass_u = assemble_form(sys_2, FormSpec(mass_u=1.0)).to_dense()[:nu, :nu]
        mass_p = assemble_form(sys_2, FormSpec(mass_p=1.0)).to_dense()[nu:, nu:]
        np.testing.assert_array_equal(dense[:nu, :nu], mass_u)
        np.testing.assert_array_equal(dense[nu:, nu:], mass_p)

    def test_zero_tensors_give_zero_w2(self, sys_2):
        params = isotropic_material(
            elastic=(0.0, 0.0), coupling=0.0, micro=(0.0, 0.0), curvature=0.0
        )
        w2 = assemble_w2(params, sys_2)
        assert w2.quadratic(np.ones(sys_2.n_dofs)) == 0.0

    def test_zero_vector_zero_form(self, material, sys_2):
        w1 = assemble_w1(material, sys_2)
        assert w1.quadratic(np.zeros(sys_2.n_dofs)) == 0.0

    def test_block_layout(self, material, sys_2):
        w1 = assemble_w1(material, sys_2)
        assert w1.layout.total == w1.matrix.shape[0]
        assert w1.layout.u_size == sys_2.n_u_dofs
        assert w1.layout.p_size == sys_2.n_p_dofs


class TestVariants:
    def test_simplified_drops_micro_mass(self, sys_2):
        full = isotropic_material()
        simp = isotropic_material(variant=ModelVariant.SIMPLIFIED_INERTIA)
        w_full = assemble_w1(full, sys_2).to_dense()
        w_simp = assemble_w1(simp, sys_2).to_dense()
        mass_p = assemble_form(sys_2, FormSpec(mass_p=1.0)).to_dense()
        np.testing.assert_allclose(w_full - w_simp, mass_p, atol=1e-13)

    def test_quasistatic_drops_both_masses(self, sys_2):
        quasi = isotropic_material(variant=ModelVariant.QUASISTATIC)
        full = isotropic_material()
        diff = assemble_w1(full, sys_2).to_dense() - assemble_w1(quasi, sys_2).to_dense()
        both = assemble_form(sys_2, FormSpec(mass_u=1.0, mass_p=1.0)).to_dense()
        np.testing.assert_allclose(diff, both, atol=1e-13)

    def test_zero_length_scale_drops_curl_terms(self, sys_2):
        zls = isotropic_material(
            variant=ModelVariant.ZERO_LENGTH_SCALE, length_scale=0.0
        )
        w2 = assemble_w2(zls, sys_2).to_dense()
        no_curl = dense_form_matrix(
            sys_2,
            FormSpec(
                sym_relative=zls.elastic, skew_relative=zls.coupling,
                sym_micro=zls.micro, curl=None,
            ),
        )
        np.testing.assert_allclose(w2, no_curl, atol=1e-12)


class TestQuadraticFormOracle:
    def test_random_fields_match_direct_quadrature(self, material, sys_2, rng):
        w1 = assemble_w1(material, sys_2)
        oracle = dense_form_matrix(sys_2, form_spec_w1(material))
        for _ in range(5):
            w = rng.standard_normal(sys_2.n_dofs)
            assert w1.quadratic(w) == pytest.approx(w @ oracle @ w, rel=1e-11)

    def test_boundedness_inequality(self, material, sys_2, rng):
        from micromorph.analysis import discrete_boundedness

        w2 = assemble_w2(material, sys_2)
        gram = assemble_gram(sys_2)
        m2 = discrete_boundedness(w2, gram)
        for _ in range(100):
            w = rng.standard_normal(sys_2.n_dofs)
            assert abs(w2.quadratic(w)) <= m2 * gram.quadratic(w) * (1 + 1e-8)


class TestRefinementConsistency:
    def test_interpolated_smooth_field_energy_converges(self, material):
        # reference: the same quadratic form sampled on the finest interpolant
        def u_field(x):
            return np.array([np.sin(np.pi * x[0]) * np.sin(np.pi * x[1]) *
                             np.sin(np.pi * x[2])] * 3)

        def p_field(x):
            s = np.sin(np.pi * x[0]) * np.sin(np.pi * x[1]) * np.sin(np.pi * x[2])
            return s * np.eye(3)

        values = []
        for n in (1, 2, 4):
            sys = build_fe_system(build_box_mesh((1, 1, 1), (n, n, n)))
            w = np.concatenate(
                [interpolate_u(sys, u_field), interpolate_p(sys, p_field)]
            )
            values.append(assemble_w2(material, sys).quadratic(w))
        ref_sys = build_fe_system(build_box_mesh((1, 1, 1), (8, 8, 8)))
        w_ref = np.concatenate(
            [interpolate_u(ref_sys, u_field), interpolate_p(ref_sys, p_field)]
        )
        ref = assemble_w2(material, ref_sys).quadratic(w_ref)
        errors = [abs(v - ref) for v in values]
        assert errors[1] < errors[0]
        assert errors[2] < errors[1]


class TestLoads:
    def test_zero_load(self, sys_2):
        vec = assemble_load(LoadFunctional.constant(), sys_2, 0.3)
        assert np.all(vec == 0.0)

    def test_constant_force_hat_integrals(self, sys_2):
        load = LoadFunctional.constant(f=np.array([1.0, 0.0, 0.0]))
        vec = assemble_load(load, sys_2, 0.0)
        mesh = sys_2.mesh
        # first-component entries are the hat integrals: sum of V/4 over support
        for v in np.flatnonzero(~mesh.boundary_vertex):
            r = sys_2.u_map.entity_rank[v]
            support = [c for c in range(mesh.n_cells) if v in mesh.cells[c]]
            expect = sum(mesh.cell_volumes[c] / 4 for c in support)
            assert vec[3 * r] == pytest.approx(expect, rel=1e-13)
            assert vec[3 * r + 1] == 0.0 and vec[3 * r + 2] == 0.0

    def test_linearity(self, sys_2, rng):
        f = rng.standard_normal(3)
        m = rng.standard_normal((3, 3))
        v1 = assemble_load(LoadFunctional.constant(f=f, m=m), sys_2, 0.0)
        v2 = assemble_load(LoadFunctional.constant(f=2 * f, m=2 * m), sys_2, 0.0)
        np.testing.assert_allclose(v2, 2 * v1, rtol=1e-15)

    def test_double_force_matches_quadrature(self, sys_2, rng):
        m = rng.standard_normal((3, 3))
        vec = assemble_load(LoadFunctional.constant(m=m), sys_2, 0.0)
        # oracle: <M, Phi_k> integrated with the dense machinery via the
        # identity <M, e_i (x) w_e> = row_i(M) . int w_e
        spec = FormSpec(mass_p=1.0)
        mass_p = dense_form_matrix(sys_2, spec)
        # constant field M interpolated exactly by the edge space per cell is
        # not global, so integrate directly instead:
        mesh = sys_2.mesh
        n_int = sys_2.n_p_dofs // 3
        oracle = np.zeros(sys_2.n_dofs)
        for c in range(mesh.n_cells):
            for qp, qw in zip(QUADRATURE_POINTS, QUADRATURE_WEIGHTS):
                vals, _ = eval_p_basis(sys_2, c, qp)
                for e in range(6):
                    r = sys_2.p_map.entity_rank[mesh.cell_edges[c, e]]
                    if r < 0:
                        continue
                    for i in range(3):
                        oracle[sys_2.n_u_dofs + i * n_int + r] += (
                            6 * mesh.cell_volumes[c] * qw * (m[i] @ vals[e])
                        )
        np.testing.assert_allclose(vec, oracle, atol=1e-14)

    def test_table_range_error(self, sys_2):
        tf = TimeField.table([0.0, 1.0], [np.zeros(3), np.ones(3)])
        load = LoadFunctional(tf, TimeField.zero((3, 3)))
        assemble_load(load, sys_2, 0.5)
        with pytest.raises(ValueError, match="outside"):
            assemble_load(load, sys_2, 1.5)

    def test_u_block_is_the_scaled_hat_integrals_bitwise(self, sys_2, rng):
        load = LoadFunctional(
            TimeField.polynomial([rng.standard_normal(3), rng.standard_normal(3)]),
            TimeField.table([0.0, 1.0], list(rng.standard_normal((2, 3, 3)))),
        )
        # hat integrals summed local vertex by local vertex, cells in order
        mesh, nu = sys_2.mesh, sys_2.n_u_dofs
        hats = np.zeros(nu // 3)
        rank = sys_2.u_map.entity_rank[mesh.cells]
        for a in range(4):
            r = rank[:, a]
            np.add.at(hats, r[r >= 0], mesh.cell_volumes[r >= 0] / 4.0)
        for t in (0.0, 0.37, 1.0):
            # the per-call formula for the u part: hat integrals scaled by f(t)
            ref_u = (hats[:, None] * load.body_force(t)[None, :]).ravel()
            assert np.array_equal(assemble_load(load, sys_2, t)[:nu], ref_u)
        with pytest.raises(ValueError, match="outside"):
            assemble_load(load, sys_2, 1.5)

    def test_load_table_is_built_once(self, monkeypatch):
        """Every call reads the table the FE system cached on the first."""
        import micromorph.fespace

        real = micromorph.fespace._edge_functions
        builds = []

        def counted(sys, cells):
            builds.append(cells.size)
            return real(sys, cells)

        monkeypatch.setattr(micromorph.fespace, "_edge_functions", counted)
        sys_ = build_fe_system(build_box_mesh((1, 1, 1), (2, 2, 2)))
        load = LoadFunctional(
            TimeField.polynomial([np.ones(3), np.arange(3.0)]),
            TimeField.polynomial([np.zeros((3, 3)), np.eye(3)]),
        )
        times = np.linspace(0.0, 1.0, 40)
        vectors = [assemble_load(load, sys_, t) for t in times]
        assert builds == [sys_.mesh.n_cells]
        assert sys_.unit_duals is sys_.unit_duals
        for t, vec in zip(times, vectors):
            f, m = load.body_force(t), load.double_force(t)
            assert np.array_equal(vec, sys_.unit_duals @ np.concatenate([f, m.ravel()]))

    def test_poly_evaluation(self):
        tf = TimeField.polynomial([np.zeros(3), np.array([0.0, 0.0, 2.0])])
        np.testing.assert_allclose(tf(1.5), [0, 0, 3.0])

    @pytest.mark.parametrize(
        "coefficients, t",
        [([np.zeros(3), np.array([1e308, 0.0, 0.0])], 10.0),   # a product overflows
         ([np.zeros(3), np.zeros(3), np.ones(3)], 1e200)],      # a power overflows
    )
    def test_value_that_is_not_finite_names_its_time(self, coefficients, t):
        # without a warning, which the test configuration turns into an error
        tf = TimeField.polynomial(coefficients)
        with pytest.raises(ValueError, match=re.escape(f"value at time {t!r} is not finite")):
            tf(t)
        with pytest.raises(ValueError, match="is not finite"):
            tf(np.float64(t))
        assert np.isfinite(tf(1.0)).all()


class TestOperators:
    def test_p_block_extraction(self, material, sys_2):
        w1 = assemble_w1(material, sys_2)
        nu = sys_2.n_u_dofs
        np.testing.assert_array_equal(
            w1.p_block().to_dense(), w1.to_dense()[nu:, nu:]
        )

    @pytest.mark.parametrize("k", [1, 32, 33, 71])
    def test_quadratic_of_a_stack_is_per_state(self, material, sys_2, rng, k):
        # 32 rows are one block; 33 and 71 end in a partial block
        w1 = assemble_w1(material, sys_2)
        rows = rng.standard_normal((k, sys_2.n_dofs))
        values = w1.quadratic(rows)
        ref = np.array([v @ (w1.matrix @ v) for v in rows])
        assert values.shape == (k,)
        assert np.abs(values - ref).max() <= 1e-13 * np.abs(ref).max()
        one = w1.quadratic(rows[0])
        assert type(one) is float and one == pytest.approx(ref[0], rel=1e-13)


@pytest.fixture(scope="module")
def sys_4():
    return build_fe_system(build_box_mesh((1, 1, 1), (4, 4, 4)))


@pytest.fixture(scope="module")
def sys_6():
    return build_fe_system(build_box_mesh((1, 1, 1), (6, 6, 6)))


# the two forms of analysis.korn_curl_constant
KORN_SPECS = (
    FormSpec(mass_p=1.0, curl=isotropic_curvature(1.0), curl_coeff=1.0),
    FormSpec(
        sym_micro=isotropic_elastic(0.5, 0.0),
        curl=isotropic_curvature(1.0),
        curl_coeff=1.0,
    ),
)


def _max_error(op, reference):
    return np.abs(op.to_dense() - reference).max() / np.abs(reference).max()


class TestMomentKernel:
    """The per-cell moment kernel against the per-quadrature-point kernel it
    replaced (same quadrature rule, every field tabulated at every point)."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        variant=st.sampled_from(list(ModelVariant)),
        res=st.sampled_from([1, 2]),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_anisotropic_forms(self, sys_1, sys_2, seed, variant, res):
        params = random_material(np.random.default_rng(seed), variant)
        sys = sys_1 if res == 1 else sys_2
        for spec in (form_spec_w1(params), form_spec_w2(params)):
            assert _max_error(
                assemble_form(sys, spec), quadrature_point_form_matrix(sys, spec)
            ) <= 1e-13

    @pytest.mark.parametrize("spec", [form_spec_gram(), *KORN_SPECS])
    def test_gram_and_korn_forms(self, sys_1, sys_2, spec):
        for sys in (sys_1, sys_2):
            assert _max_error(
                assemble_form(sys, spec), quadrature_point_form_matrix(sys, spec)
            ) <= 1e-13

    @pytest.mark.parametrize("res", [1, 2, 3])
    def test_gram_stores_no_zeros(self, res):
        # no u-P coupling in the Gram form: those entries are not stored
        sys = build_fe_system(build_box_mesh((1, 1, 1), (res, res, res)))
        reference = quadrature_point_form_matrix(sys, form_spec_gram())
        assert assemble_gram(sys).matrix.nnz == np.count_nonzero(reference)


class TestNestedMeshes:
    """The spaces at res 2n contain those at res n, and every integrand is
    integrated exactly, so the forms and loads on two nested meshes satisfy
    the Galerkin identity through the prolongation P of coarse fields."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        variant=st.sampled_from(list(ModelVariant)),
        res=st.sampled_from([1, 2]),
    )
    @settings(max_examples=12, deadline=None)
    def test_galerkin_identity(self, seed, variant, res):
        rng = np.random.default_rng(seed)
        params = random_material(rng, variant)
        dims = tuple(rng.uniform(0.3, 3.0, 3))
        coarse, fine = (build_fe_system(build_box_mesh(dims, (n, n, n)))
                        for n in (res, 2 * res))
        p = prolongation(coarse, fine)

        def error(got, ref):
            return np.abs(got - ref).max() / np.abs(ref).max()

        for assemble in (partial(assemble_w1, params), partial(assemble_w2, params),
                         assemble_gram):
            w_fine = assemble(fine).matrix
            assert error(p.T @ (w_fine @ p), assemble(coarse).to_dense()) <= 1e-13
        load = LoadFunctional(
            TimeField.polynomial(rng.standard_normal((2, 3))),
            TimeField.polynomial(rng.standard_normal((3, 3, 3))),
        )
        t = rng.uniform(0.0, 2.0)
        assert error(p.T @ assemble_load(load, fine, t),
                     assemble_load(load, coarse, t)) <= 1e-13


class TestBatches:
    def test_assembly_peak_memory(self, material, sys_4):
        assemble_w1(material, sys_4)  # imports and lazily built FE data come first
        tracemalloc.start()
        try:
            assemble_w1(material, sys_4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_assembly_peak_memory_res6(self, material, sys_6):
        # 1,296 cells: the peak is bounded by one batch, not by the mesh
        assemble_w1(material, sys_6)
        tracemalloc.start()
        try:
            assemble_w1(material, sys_6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
