import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from micromorph.analysis import (
    check_hypotheses,
    contraction_constant,
    detect_band_gaps,
    discrete_boundedness,
    discrete_coercivity,
    dispersion_curves,
    korn_curl_constant,
    well_posedness_report,
)
from micromorph.assembly import assemble_gram, assemble_w1, assemble_w2
from micromorph.errors import DefinitenessError, HypothesisError
from micromorph.fespace import build_fe_system
from micromorph.mesh import build_box_mesh
from micromorph.tensors import ConstitutiveTensor4, ModelVariant, isotropic_material
from oracles import plane_wave_pencil, strong_form_pencil


def translated(mesh, offset):
    """``mesh`` with every vertex moved by ``offset``."""
    return dataclasses.replace(mesh, vertices=mesh.vertices + np.array(offset))


class TestHypotheses:
    def test_identity_material_passes_everything(self):
        report = check_hypotheses(isotropic_material())
        assert report.hypotheses_satisfied
        assert [c.item for c in report.checks] == [
            "i", "ii", "iii", "iv", "v", "vi", "vii",
        ]

    def test_indefinite_potential_tensors_allowed(self):
        report = check_hypotheses(isotropic_material(elastic=(1.0, -1.0)))
        assert report.hypotheses_satisfied

    def test_negative_rate_elastic_fails_iii(self):
        report = check_hypotheses(isotropic_material(inertia_elastic=(-1.0, 0.0)))
        assert report.failed_items() == ["iii"]
        assert not report.hypotheses_satisfied

    def test_simplified_needs_definite_micro_rate(self):
        # zero micro-rate tensor passes the base checklist but fails the
        # variant's additional requirement
        params = isotropic_material(
            variant=ModelVariant.SIMPLIFIED_INERTIA,
            micro_inertia=0.0,
            inertia_micro=(0.0, 0.0),
        )
        report = check_hypotheses(params)
        base = [c for c in report.checks if c.item in "i ii iii iv v vi vii".split()]
        assert all(c.passed for c in base)
        assert report.failed_items() == ["micro-rate-definite"]

    def test_quasistatic_has_extra_check_too(self):
        params = isotropic_material(variant=ModelVariant.QUASISTATIC)
        report = check_hypotheses(params)
        assert any(c.item == "micro-rate-definite" for c in report.checks)
        assert report.hypotheses_satisfied


class TestDiscreteConstants:
    def test_m1_of_identical_pencil(self, sys_2, demo_material):
        gram = assemble_gram(sys_2)
        assert discrete_coercivity(gram, gram) == pytest.approx(1.0, rel=1e-8)

    def test_m1_positive_under_hypotheses(self, sys_2, sys_3, demo_material):
        for sys in (sys_2, sys_3):
            w1 = assemble_w1(demo_material, sys)
            gram = assemble_gram(sys)
            assert discrete_coercivity(w1, gram) > 1e-8

    def test_m1_regression_baseline(self, sys_2, demo_material):
        # recorded value, not ground truth
        w1 = assemble_w1(demo_material, sys_2)
        gram = assemble_gram(sys_2)
        assert discrete_coercivity(w1, gram) == pytest.approx(0.63897229, rel=1e-5)

    def test_m1_monotone_in_rate_elastic_scale(self, sys_2):
        gram = assemble_gram(sys_2)
        base = isotropic_material()
        scaled = isotropic_material(inertia_elastic=(10.0, 0.0))
        m_base = discrete_coercivity(assemble_w1(base, sys_2), gram)
        m_scaled = discrete_coercivity(assemble_w1(scaled, sys_2), gram)
        assert m_scaled >= m_base - 1e-12

    def test_m2_trivial_cases(self, sys_2):
        gram = assemble_gram(sys_2)
        zero = isotropic_material(
            elastic=(0.0, 0.0), coupling=0.0, micro=(0.0, 0.0), curvature=0.0
        )
        assert discrete_boundedness(assemble_w2(zero, sys_2), gram) == 0.0
        assert discrete_boundedness(gram, gram) == pytest.approx(1.0, rel=1e-8)

    def test_m2_matches_dense_oracle(self, sys_1, rng):
        params = isotropic_material(
            elastic=(0.7, -0.9), coupling=0.4, micro=(-0.2, 0.1), curvature=-0.5
        )
        w2 = assemble_w2(params, sys_1)
        gram = assemble_gram(sys_1)
        m2 = discrete_boundedness(w2, gram)
        w = scipy.linalg.eigh(
            w2.to_dense(), gram.to_dense(), eigvals_only=True
        )
        assert m2 == pytest.approx(np.abs(w).max(), rel=1e-8)

    def test_contraction_formula(self):
        c, delta = contraction_constant(1.0, 1.0)
        assert c == pytest.approx(math.sqrt(2.0))
        assert delta == pytest.approx(1.0 / (2.0 * 2.0**0.25))
        assert 2.0 * delta * math.sqrt(c) == pytest.approx(1.0, rel=1e-14)

    def test_constant_map_flag(self):
        c, delta = contraction_constant(2.0, 0.0)
        assert c == 0.0 and delta == math.inf

    def test_nonpositive_m1_raises(self):
        with pytest.raises(DefinitenessError):
            contraction_constant(0.0, 1.0)

    def test_translation_invariance(self, demo_material):
        # dyadic offset: coordinates subtract exactly, forms match bitwise
        base = build_fe_system(build_box_mesh((1, 1, 1), (2, 2, 2)))
        moved = build_fe_system(translated(base.mesh, (1.25, -0.5, 2.0)))
        for assemble in (assemble_w1, assemble_w2):
            a = assemble(demo_material, base).matrix
            b = assemble(demo_material, moved).matrix
            assert (a != b).nnz == 0

    def test_uniform_scaling_keeps_trajectory(self, sys_1, demo_material, rng):
        # scaling the rate tensors, densities, and load together leaves the
        # free-drift fixed point unchanged (potential form switched off)
        from micromorph.dynamics import DynamicState, picard_integrate

        s = 3.7
        zero_pot = dict(
            elastic=(0.0, 0.0), coupling=0.0, micro=(0.0, 0.0), curvature=0.0
        )
        base = isotropic_material(**zero_pot)
        scaled = isotropic_material(
            rho=s, micro_inertia=s,
            inertia_elastic=(s, 0.0), inertia_coupling=0.0,
            inertia_micro=(s, 0.0), inertia_curvature=s, **zero_pot,
        )
        gram = assemble_gram(sys_1)
        state0 = DynamicState.from_vectors(
            assemble_w1(base, sys_1).layout, 0.0,
            rng.standard_normal(3), rng.standard_normal(3),
        )
        load = rng.standard_normal(3)
        t1 = picard_integrate(
            state0, assemble_w1(base, sys_1), assemble_w2(base, sys_1),
            lambda t: load, 0.5, 2.0, n_t=9, gram=gram,
        )
        t2 = picard_integrate(
            state0, assemble_w1(scaled, sys_1), assemble_w2(scaled, sys_1),
            lambda t: s * load, 0.5, 2.0, n_t=9, gram=gram,
        )
        np.testing.assert_allclose(t1.positions, t2.positions, rtol=1e-9, atol=1e-11)
        # and m1 scales linearly
        m1a = discrete_coercivity(assemble_w1(base, sys_1), gram)
        m1b = discrete_coercivity(assemble_w1(scaled, sys_1), gram)
        assert m1b == pytest.approx(s * m1a, rel=1e-7)


class TestFullReport:
    def test_well_posed_verdict(self, sys_2, demo_material):
        report = well_posedness_report(
            demo_material, assemble_w1(demo_material, sys_2),
            assemble_w2(demo_material, sys_2), assemble_gram(sys_2),
        )
        assert report.well_posed
        assert report.coercivity > 0
        assert report.interval == pytest.approx(
            1.0 / (2.0 * math.sqrt(report.contraction)), rel=1e-14
        )

    def test_failed_hypothesis_fails_verdict(self, sys_2):
        bad = isotropic_material(inertia_elastic=(-1.0, 0.0))
        report = well_posedness_report(
            bad, assemble_w1(bad, sys_2), assemble_w2(bad, sys_2), assemble_gram(sys_2)
        )
        assert not report.well_posed
        assert "iii" in report.failed_items()


class TestKorn:
    def test_at_least_one(self, sys_1, sys_2):
        for sys in (sys_1, sys_2):
            assert korn_curl_constant(sys) >= 1.0 - 1e-10

    def test_refinement_stability(self, sys_2, sys_3):
        c2 = korn_curl_constant(sys_2)
        c3 = korn_curl_constant(sys_3)
        assert np.isfinite(c2) and np.isfinite(c3)
        assert max(c2, c3) / min(c2, c3) < 4.0

    def test_regression_baselines(self, sys_2, sys_3):
        # recorded values, not ground truth
        assert korn_curl_constant(sys_2) == pytest.approx(1.8098504, rel=1e-5)
        assert korn_curl_constant(sys_3) == pytest.approx(1.9063104, rel=1e-5)

    def test_translation_invariance(self):
        mesh = build_box_mesh((1, 1, 1), (2, 2, 2))
        a = korn_curl_constant(build_fe_system(mesh))
        b = korn_curl_constant(build_fe_system(translated(mesh, (0.5, 0.25, -1.0))))
        assert a == pytest.approx(b, rel=1e-10)


class TestDispersion:
    def test_pencil_matches_strong_form_oracle(self, demo_material):
        d = np.array([0.6, 0.8, 0.0])
        for k in (0.0, 0.7, 2.3):
            a1, b1 = plane_wave_pencil(demo_material, d, k)
            a2, b2 = strong_form_pencil(demo_material, d, k)
            np.testing.assert_allclose(a1, a2, atol=1e-13)
            np.testing.assert_allclose(b1, b2, atol=1e-13)

    def test_acoustic_triple_at_zero(self, demo_material):
        result = dispersion_curves(demo_material, (1, 0, 0), [0.0])
        freqs = result.frequencies[0]
        assert np.sum(freqs < 1e-8) == 3
        assert np.all(freqs[3:] > 1e-8)

    def test_zero_potential_means_all_branches_zero(self):
        params = isotropic_material(
            elastic=(0.0, 0.0), coupling=0.0, micro=(0.0, 0.0), curvature=0.0
        )
        result = dispersion_curves(params, (0, 0, 1), np.linspace(0, 2, 5))
        np.testing.assert_array_equal(result.frequencies, 0.0)

    def test_values_match_oracle_at_nonzero_k(self, demo_material):
        k = 1.3
        d = np.array([1.0, 0.0, 0.0])
        result = dispersion_curves(demo_material, d, [k])
        a, b = strong_form_pencil(demo_material, d, k)
        ref = np.sort(scipy.linalg.eigh(b, a, eigvals_only=True))
        ref = np.sqrt(np.clip(ref, 0.0, None))
        np.testing.assert_allclose(result.frequencies[0], ref, rtol=1e-8, atol=1e-10)

    def test_even_in_k(self, demo_material):
        d = np.array([0.0, 1.0, 0.0])
        for k in (0.4, 1.1):
            ap, bp = plane_wave_pencil(demo_material, d, k)
            am, bm = plane_wave_pencil(demo_material, d, -k)
            wp = np.sort(scipy.linalg.eigh(bp, ap, eigvals_only=True))
            wm = np.sort(scipy.linalg.eigh(bm, am, eigvals_only=True))
            np.testing.assert_allclose(wp, wm, rtol=1e-10, atol=1e-12)

    def test_gradient_micro_inertia_flattens_branches(self, demo_material):
        ks = np.linspace(0.0, 4.0, 9)
        d = (1, 0, 0)
        with_gradient = dispersion_curves(demo_material, d, ks)
        classical = dispersion_curves(
            isotropic_material(
                elastic=(1.0, -1.0),
                inertia_elastic=(0.0, 0.0), inertia_coupling=0.0,
                inertia_micro=(0.0, 0.0), inertia_curvature=0.0,
            ),
            d, ks,
        )
        # highest acoustic branch grows k-linearly classically but saturates
        # when the rate energy itself carries gradients
        assert (
            with_gradient.frequencies[-1, 2] < classical.frequencies[-1, 2]
        )

    def test_branches_bounded_with_gradient_inertia(self, demo_material):
        # rate-energy gradients grow with k^2 like the potential terms, so
        # every branch saturates; with classical inertia the top branch grows
        # nearly linearly in k
        ks = np.array([2.0, 16.0])
        d = (1, 0, 0)
        with_gradient = dispersion_curves(demo_material, d, ks).frequencies
        classical = dispersion_curves(
            isotropic_material(
                elastic=(1.0, -1.0),
                inertia_elastic=(0.0, 0.0), inertia_coupling=0.0,
                inertia_micro=(0.0, 0.0), inertia_curvature=0.0,
            ),
            d, ks,
        ).frequencies
        assert with_gradient[1, 11] / with_gradient[0, 11] < 1.1
        assert classical[1, 11] / classical[0, 11] > 4.0

    def test_quasistatic_pencil_rejected(self):
        params = isotropic_material(variant=ModelVariant.QUASISTATIC)
        with pytest.raises(HypothesisError):
            dispersion_curves(params, (1, 0, 0), [0.0])

    def test_direction_validation(self, demo_material):
        with pytest.raises(ValueError):
            dispersion_curves(demo_material, (0, 0, 0), [0.0])
        with pytest.raises(ValueError):
            dispersion_curves(demo_material, (1, 0, 0), [-1.0])


class TestBandGaps:
    def test_synthetic_gap(self, demo_material):
        result = dispersion_curves(demo_material, (1, 0, 0), np.linspace(0, 2, 9))
        gaps = detect_band_gaps(result)
        for g in gaps:
            assert g.upper > g.lower
            # no sampled frequency inside
            f = result.frequencies.ravel()
            assert not np.any((f > g.lower) & (f < g.upper))

    def test_gaps_disjoint_and_sorted(self, demo_material):
        result = dispersion_curves(demo_material, (1, 0, 0), np.linspace(0, 3, 13))
        gaps = detect_band_gaps(result)
        for g1, g2 in zip(gaps, gaps[1:]):
            assert g1.upper <= g2.lower

    def test_result_carries_its_gaps(self, demo_material):
        result = dispersion_curves(demo_material, (1, 0, 0), np.linspace(0, 3, 13))
        assert result.gaps == tuple(detect_band_gaps(result))
        single = dispersion_curves(demo_material, (1, 0, 0), [0.0])
        assert single.gaps == ()

    def test_micro_inertia_changes_gap_picture(self):
        # regression-pinned values on the documented isotropic set: the
        # gradient micro-inertia terms flatten the acoustic branches and open
        # gaps that the classical-inertia run (gradient rate terms zeroed)
        # does not show on the same window
        ks = np.linspace(0.0, 3.0, 13)
        base = isotropic_material(elastic=(1.0, -1.0))
        gaps_on = detect_band_gaps(dispersion_curves(base, (1, 0, 0), ks))
        classical = isotropic_material(
            elastic=(1.0, -1.0),
            inertia_elastic=(0.0, 0.0), inertia_coupling=0.0,
            inertia_micro=(0.0, 0.0), inertia_curvature=0.0,
        )
        gaps_off = detect_band_gaps(dispersion_curves(classical, (1, 0, 0), ks))
        assert len(gaps_on) == 2
        assert gaps_on[0].lower == pytest.approx(0.670216027, rel=1e-6)
        assert gaps_on[0].upper == pytest.approx(0.707106781, rel=1e-6)
        assert gaps_on[1].lower == pytest.approx(0.886438618, rel=1e-6)
        assert gaps_on[1].upper == pytest.approx(0.894427191, rel=1e-6)
        assert gaps_off == []

    def test_requires_two_samples(self, demo_material):
        result = dispersion_curves(demo_material, (1, 0, 0), [0.0])
        with pytest.raises(ValueError):
            detect_band_gaps(result)


def random_material(rng, variant=ModelVariant.FULL_INERTIA):
    """Anisotropic material: random positive definite rate tensors and
    random, generally indefinite potential tensors of every class."""
    zero_length = variant is ModelVariant.ZERO_LENGTH_SCALE
    base = isotropic_material(variant=variant, length_scale=0.0 if zero_length else 1.0)
    tensors = {}
    for name, t in base.tensors().items():
        dim = t.symmetry_class.dim
        q = rng.standard_normal((dim, dim))
        m = q @ q.T + 0.5 * np.eye(dim) if name.startswith("inertia_") else q + q.T
        tensors[name] = ConstitutiveTensor4(t.symmetry_class, m)
    return dataclasses.replace(
        base,
        rho=rng.uniform(0.1, 3.0),
        micro_inertia=rng.uniform(0.1, 3.0),
        mu=rng.uniform(0.1, 3.0),
        length_scale=0.0 if zero_length else rng.uniform(0.1, 2.0),
        **tensors,
    )


class TestPencilCoefficients:
    @given(
        seed=st.integers(0, 2**32 - 1),
        variant=st.sampled_from(list(ModelVariant)),
        k=st.floats(-5.0, 5.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_anisotropic_pencil_matches_oracle(self, seed, variant, k):
        rng = np.random.default_rng(seed)
        params = random_material(rng, variant)
        d = rng.standard_normal(3)
        a, b = plane_wave_pencil(params, d, k)
        a_ref, b_ref = strong_form_pencil(params, d, k)
        for x, ref in ((a, a_ref), (b, b_ref)):
            assert np.abs(x - ref).max() <= 1e-12 * max(np.abs(ref).max(), 1.0)


class TestBatchedDispersion:
    def test_matches_per_sample_eigh(self, rng):
        params = random_material(rng)
        d = np.array([0.3, -0.5, 0.8])
        ks = np.linspace(0.0, 4.0, 401)
        result = dispersion_curves(params, d, ks)
        for s in range(ks.size):
            a, b = plane_wave_pencil(params, result.direction, ks[s])
            ref = scipy.linalg.eigh(b, a, eigvals_only=True)
            scale = max(np.abs(ref).max(), 1.0)
            assert np.abs(result.omega_squared[s] - ref).max() <= 1e-12 * scale

    def test_hypothesis_error_names_first_failing_k(self):
        # no coupling-rate or curvature-rate tensor: a skew P costs no rate
        # energy at any k
        params = isotropic_material(
            variant=ModelVariant.QUASISTATIC,
            inertia_coupling=0.0,
            inertia_curvature=0.0,
        )
        with pytest.raises(HypothesisError, match=r"at k=\S*\b1\.0\b"):
            dispersion_curves(params, (1, 0, 0), [1.0, 2.0])
        # the plain quasistatic rate energy is definite except at k = 0
        quasistatic = isotropic_material(variant=ModelVariant.QUASISTATIC)
        with pytest.raises(HypothesisError, match=r"at k=\S*\b0\.0\b"):
            dispersion_curves(quasistatic, (1, 0, 0), [1.0, 0.0, 2.0])
