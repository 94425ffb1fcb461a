import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from micromorph.analysis import (
    _CLAMP_TOL,
    _plane_wave_symbol,
    _symbol_floor,
    check_hypotheses,
    contraction_constant,
    detect_band_gaps,
    discrete_boundedness,
    discrete_coercivity,
    dispersion_curves,
    korn_curl_constant,
    well_posedness_report,
)
from micromorph.assembly import (
    FormSpec,
    assemble_gram,
    assemble_w1,
    assemble_w2,
    form_spec_gram,
    form_spec_w1,
    form_spec_w2,
)
from micromorph.config import material_from_config, parse_config
from micromorph.errors import (
    ConfigError, DefinitenessError, HypothesisError, NonConvergenceError,
)
from micromorph.fespace import build_fe_system
from micromorph.mesh import build_box_mesh
from micromorph.tensors import (
    ModelVariant,
    isotropic_curvature,
    isotropic_elastic,
    isotropic_material,
)
from oracles import plane_wave_pencil, random_material, strong_form_pencil


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


BASE_ROWS = [
    ("i", "constitutive tensors carry the class symmetries", True, ""),
    ("ii", "potential tensors are bounded", True,
     "elastic<= 3.5, coupling<= 1, micro<= 3.5, curvature<= 1"),
    ("iii", "elastic-rate and curvature-rate tensors positive definite", True,
     "min moduli 2, 1"),
    ("iv", "micro-rate and coupling-rate tensors positive semi-definite", True, ""),
    ("v", "loads continuous in time with dual-space values", True,
     "all representable load specifications qualify"),
    ("vi", "initial data in the product space", True,
     "all representable discrete states qualify"),
    ("vii", "scalar parameters positive", True, ""),
]


@pytest.mark.parametrize(
    "params, rows",
    [(isotropic_material(), BASE_ROWS),
     (isotropic_material(variant=ModelVariant.SIMPLIFIED_INERTIA,
                         micro_inertia=0.0, inertia_micro=(0.0, 0.0)),
      BASE_ROWS + [("micro-rate-definite", "simplified variant requires a "
                    "positive definite micro-rate tensor", False, "min modulus 0")]),
     (isotropic_material(variant=ModelVariant.QUASISTATIC),
      BASE_ROWS + [("micro-rate-definite", "quasistatic variant requires a "
                    "positive definite micro-rate tensor", True, "min modulus 2")]),
     (isotropic_material(variant=ModelVariant.ZERO_LENGTH_SCALE, length_scale=0.0),
      BASE_ROWS),
     (isotropic_material(inertia_elastic=(-1.0, 0.0)),
      BASE_ROWS[:2]
      + [("iii", "elastic-rate and curvature-rate tensors positive definite",
          False, "min moduli -2, 1")]
      + BASE_ROWS[3:])],
    ids=["default", "simplified", "quasistatic", "zero-length-scale", "failing-iii"],
)
def test_checklist_rows_are_pinned(params, rows):
    """Every item, description, verdict and detail of the checklist, which
    report.txt prints verbatim."""
    checks = check_hypotheses(params).checks
    assert [(c.item, c.description, c.passed, c.detail) for c in checks] == rows


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

    def test_solver_failure_is_not_a_singular_form(self, monkeypatch):
        import scipy.sparse.linalg as spla

        def stalled(*args, **kwargs):
            raise spla.ArpackNoConvergence("no convergence", [], [])

        sys = build_fe_system(build_box_mesh((1, 1, 1), (4, 4, 4)))
        monkeypatch.setattr(spla, "eigsh", stalled)
        with pytest.raises(NonConvergenceError, match="ARPACK"):
            korn_curl_constant(sys)

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

    def test_unstable_branches_are_the_nan_frequencies(self):
        # c_e = (1, -2) has 2 mu + 3 lam < 0: the lowest branch is unstable
        # at every sample
        ks = np.linspace(0.0, 3.0, 13)
        result = dispersion_curves(isotropic_material(elastic=(1, -2)), (1, 0, 0), ks)
        unstable = result.unstable
        np.testing.assert_array_equal(unstable, np.isnan(result.frequencies))
        assert unstable.sum() == 13
        scale = np.maximum(np.abs(result.omega_squared).max(axis=1), 1.0)
        rows, _ = np.nonzero(unstable)
        assert np.all(result.omega_squared[unstable] < -1e-10 * scale[rows])
        assert result.gaps == ()

    def test_direction_validation(self, demo_material):
        with pytest.raises(ValueError):
            dispersion_curves(demo_material, (0, 0, 0), [0.0])
        with pytest.raises(ValueError):
            dispersion_curves(demo_material, (1, 0, 0), [-1.0])

    @pytest.mark.parametrize(
        "extreme, ordinary",
        [((1e308, 1e308, 0), (1, 1, 0)),        # the squared norm overflows
         ((3e-200, 4e-200, 0), (3, 4, 0)),      # it underflows to zero
         ((1e-320, 0, 0), (1, 0, 0)),           # a subnormal entry
         ((3e-160, 4e-160, 0), (3, 4, 0))],     # subnormal squares lose digits
    )
    def test_direction_is_scale_free(self, demo_material, extreme, ordinary):
        def solved(d):
            return dispersion_curves(demo_material, d, [1.0]).direction

        def parsed(d):
            line = " ".join(repr(float(x)) for x in d)
            cfg = parse_config(f"[analysis]\ndirection = {line}\n")
            return solved(cfg.analysis.direction)

        for unit in (solved, parsed):
            np.testing.assert_array_equal(unit(extreme), unit(ordinary))

    def test_overflowing_wavenumber_names_k_samples(self, demo_material):
        # k^2 overflows: no numpy warning and no LinAlgError, but the sample
        with pytest.raises(ValueError, match=r"k_samples: .* at k=1e\+200 "):
            dispersion_curves(demo_material, (1, 0, 0), [0.0, 1.0, 1e200, 1e300])


def random_isotropic_material(rng, variant):
    """Isotropic material whose tensors are all positive definite, so every
    branch is stable; each (mu, lambda) pair has 2 mu + 3 lambda > 0."""
    def positive():
        return rng.uniform(0.1, 3.0)

    def pair():
        mu = positive()
        return mu, rng.uniform(-0.6, 1.0) * mu

    zero_length = variant is ModelVariant.ZERO_LENGTH_SCALE
    return isotropic_material(
        variant=variant, rho=positive(), micro_inertia=positive(), mu=positive(),
        length_scale=0.0 if zero_length else positive(),
        elastic=pair(), coupling=positive(), micro=pair(), curvature=positive(),
        inertia_elastic=pair(), inertia_coupling=positive(), inertia_micro=pair(),
        inertia_curvature=positive(),
    )


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

    @pytest.mark.parametrize(
        "elastic, ks, stable",
        [((1, -2), np.linspace(0.0, 3.0, 13), 0),   # 2 mu + 3 lam < 0
         ((1, -1), [1.0], 1),
         ((1, -1), np.linspace(0.0, 3.0, 13), 13)],
    )
    def test_gaps_are_read_by_detect_band_gaps(self, elastic, ks, stable):
        result = dispersion_curves(isotropic_material(elastic=elastic), (1, 0, 0), ks)
        assert (~result.unstable.any(axis=1)).sum() == stable
        assert result.gaps == tuple(detect_band_gaps(result))
        assert (len(result.gaps) > 0) == (stable > 1)

    @pytest.mark.parametrize("ks", [[0.5, 0.5], [0.5, 1.0, 0.5], [0.0, 1.0, 2.0, -0.0]])
    def test_repeated_samples_are_rejected(self, demo_material, ks):
        with pytest.raises(ValueError, match="must not repeat"):
            dispersion_curves(demo_material, (1, 0, 0), ks)
        text = " ".join(repr(float(k)) for k in ks)
        with pytest.raises(ConfigError) as err:
            parse_config(f"[analysis]\nk_samples = {text}\n")
        assert [(ln, k) for ln, k, _ in err.value.issues] == [(2, "k_samples")]

    def test_unsorted_distinct_samples_are_accepted(self, demo_material):
        ks = np.linspace(0.0, 3.0, 13)
        order = np.random.default_rng(3).permutation(ks.size)
        shuffled = dispersion_curves(demo_material, (1, 0, 0), ks[order])
        ordered = dispersion_curves(demo_material, (1, 0, 0), ks)
        np.testing.assert_array_equal(shuffled.frequencies, ordered.frequencies[order])
        assert shuffled.gaps == ordered.gaps

    def test_requires_two_samples(self, demo_material):
        result = dispersion_curves(demo_material, (1, 0, 0), [0.0])
        assert detect_band_gaps(result) == []

    def test_round_off_between_degenerate_branches_is_no_gap(self):
        # two branches equal in exact arithmetic end one ulp apart near
        # omega = 1; only the real gap below them is reported
        cfg = parse_config("[material]\nvariant = zero-length-scale\nlc = 0\n")
        result = dispersion_curves(
            material_from_config(cfg), cfg.analysis.direction, cfg.analysis.k_samples
        )
        assert [(g.lower, g.upper) for g in result.gaps] == [
            (0.85329342275435183, 0.89442719099991552)
        ]

    @given(
        seed=st.integers(0, 2**32 - 1),
        variant=st.sampled_from(list(ModelVariant)),
        ks=st.lists(st.floats(0.01, 4.0), min_size=2, max_size=4, unique=True),
        clustered=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_gaps_are_wider_than_round_off(self, seed, variant, ks, clustered):
        # samples one ulp apart make every branch flat over them, so branches
        # that are degenerate at that k meet the rule head on
        rng = np.random.default_rng(seed)
        params = random_isotropic_material(rng, variant)
        if clustered:
            ks = ks[:1]
            while len(ks) < 4:
                ks.append(np.nextafter(ks[-1], np.inf))
        result = dispersion_curves(params, rng.standard_normal(3), ks)
        f = result.frequencies.ravel()
        for g in result.gaps:
            assert g.upper - g.lower > _CLAMP_TOL * max(g.upper, 1.0)
            assert not np.any((f > g.lower) & (f < g.upper))


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


class TestPlaneWaveSymbol:
    """Closed forms of the symbols of the Gram and Korn specs along a random
    unit d: a field f contributes |f|^2, |grad u|^2 = k^2 |u|^2 and
    |Curl P|^2 = k^2 sum_i P_i^T (I - d d^T) P_i."""

    @pytest.fixture()
    def d(self, rng):
        d = rng.standard_normal(3)
        return d / np.linalg.norm(d)

    @staticmethod
    def closed_form(d, mass_u, mass_p, grad_u):
        s0 = np.zeros((12, 12))
        s0[:3, :3] = mass_u * np.eye(3)
        s0[3:, 3:] = mass_p
        s2 = np.zeros((12, 12))
        s2[:3, :3] = grad_u * np.eye(3)
        s2[3:, 3:] = np.kron(np.eye(3), np.eye(3) - np.outer(d, d))
        return np.stack([s0, np.zeros((12, 12)), s2])

    def test_gram(self, d):
        expected = self.closed_form(d, 1.0, np.eye(9), 1.0)
        np.testing.assert_allclose(_plane_wave_symbol(form_spec_gram(), d), expected,
                                   rtol=0, atol=1e-14)

    def test_korn_forms(self, d):
        curl = isotropic_curvature(1.0)
        left = FormSpec(mass_p=1.0, curl=curl, curl_coeff=1.0)
        right = FormSpec(sym_micro=isotropic_elastic(0.5, 0.0), curl=curl, curl_coeff=1.0)
        transpose = np.eye(9).reshape(3, 3, 9).transpose(1, 0, 2).reshape(9, 9)
        for spec, mass_p in ((left, np.eye(9)), (right, 0.5 * (np.eye(9) + transpose))):
            np.testing.assert_allclose(_plane_wave_symbol(spec, d),
                                       self.closed_form(d, 0.0, mass_p, 0.0),
                                       rtol=0, atol=1e-14)


class TestNestedLadder:
    def test_constants_monotone_under_refinement(self, demo_material):
        # nested meshes: the coarse spaces lie in the fine ones, so m1 can
        # only drop and M2 and the Korn constant only grow
        m1, m2, korn = [], [], []
        for res in (1, 2, 4):
            sys = build_fe_system(build_box_mesh((1, 1, 1), (res,) * 3))
            gram = assemble_gram(sys)
            m1.append(discrete_coercivity(assemble_w1(demo_material, sys), gram))
            m2.append(discrete_boundedness(assemble_w2(demo_material, sys), gram))
            korn.append(korn_curl_constant(sys))
        assert m1[0] >= m1[1] >= m1[2] > 0
        assert m2[0] <= m2[1] <= m2[2]
        assert 1.0 <= korn[0] <= korn[1] <= korn[2]


class TestSymbolBracket:
    """The plane-wave symbols bound the continuum constants: every form is
    an integral of z^H S(xi) z over the wave vectors xi, so for every mesh
    m1_sym <= m1 <= m1_h and M2_h <= M2 <= M2_sym, where m1_sym is the
    infimum of lambda_min(A_W1, A_G) and M2_sym the supremum of
    max |lambda(A_W2, A_G)| over xi.  For the demo material the infimum is
    2 - sqrt 2, approached as k -> inf, and the supremum 4, taken at k = 0.
    Samples stop at k = 1e3: the k-form symbol loses digits far beyond."""

    DIRECTIONS = (np.array([1.0, 0.0, 0.0]), np.array([1.0, 2.0, 2.0]) / 3,
                  np.array([0.0, 0.6, 0.8]))
    KS = np.concatenate([[0.0], np.logspace(-3, 3, 240)])

    @classmethod
    def symbol_extremes(cls, params):
        """(inf lambda_min(A_W1, A_G), sup max |lambda(A_W2, A_G)|) over the
        sampled directions and wavenumbers, in the full variant."""
        specs = (form_spec_w1(params), form_spec_w2(params), form_spec_gram())
        powers = cls.KS[:, None] ** np.arange(3)
        low, high = math.inf, 0.0
        for d in cls.DIRECTIONS:
            symbols = (np.tensordot(powers, _plane_wave_symbol(s, d), 1) for s in specs)
            for a, b, g in zip(*symbols):
                low = min(low, scipy.linalg.eigh(a, g, eigvals_only=True)[0])
                high = max(high, np.abs(scipy.linalg.eigh(b, g, eigvals_only=True)).max())
        return low, high

    def test_discrete_constants_lie_inside_the_symbol_bracket(self, demo_material):
        m1_sym, m2_sym = self.symbol_extremes(demo_material)
        floor = 2.0 - math.sqrt(2.0)
        assert floor < m1_sym <= floor + 1e-6
        assert m2_sym == pytest.approx(4.0, rel=1e-12)
        _, m2_default = self.symbol_extremes(isotropic_material())
        assert m2_default == pytest.approx(7.0, rel=1e-12)
        for res in (2, 3, 4):
            sys = build_fe_system(build_box_mesh((1, 1, 1), (res,) * 3))
            gram = assemble_gram(sys)
            m1 = discrete_coercivity(assemble_w1(demo_material, sys), gram)
            m2 = discrete_boundedness(assemble_w2(demo_material, sys), gram)
            assert m1_sym < m1 and m2 < m2_sym
            # so the discrete c bounds the continuum c from below
            c_h, _ = contraction_constant(m1, m2)
            assert c_h < contraction_constant(m1_sym, m2_sym)[0]


class TestSymbolFloor:
    """The floor m1's eigensolve starts from: the sampled infimum of the
    symbols (A_W1, A_G) less a margin, under m1_h on every mesh."""

    def test_demo_floor_lies_just_under_its_infimum(self, demo_material):
        floor = _symbol_floor(form_spec_w1(demo_material), form_spec_gram())
        infimum = 2.0 - math.sqrt(2.0)   # approached as k -> inf
        assert infimum * (1 - 1e-6) < floor < infimum

    @given(seed=st.integers(0, 2**32 - 1), variant=st.sampled_from(list(ModelVariant)))
    @settings(max_examples=20, deadline=None)
    def test_floor_lies_under_dense_m1_on_random_materials(self, sys_2, seed, variant):
        # isotropic rate moduli that pass the checklist in every variant
        rng = np.random.default_rng(seed)
        zero_length = variant is ModelVariant.ZERO_LENGTH_SCALE
        params = isotropic_material(
            variant=variant, length_scale=0.0 if zero_length else rng.uniform(0.1, 2.0),
            rho=rng.uniform(0.1, 3.0), micro_inertia=rng.uniform(0.1, 3.0),
            inertia_elastic=(rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0)),
            inertia_coupling=rng.uniform(0.0, 1.0),
            inertia_micro=(rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0)),
            inertia_curvature=rng.uniform(0.5, 2.0),
        )
        floor = _symbol_floor(form_spec_w1(params), form_spec_gram())
        w1, gram = assemble_w1(params, sys_2), assemble_gram(sys_2)
        m1_h = scipy.linalg.eigh(w1.to_dense(), gram.to_dense(), eigvals_only=True)[0]
        assert 0.0 <= floor <= m1_h
        if variant is ModelVariant.QUASISTATIC:
            assert floor == 0.0   # a uniform wave carries no rate energy

    def test_assembled_operators_pass_their_floor(self, sys_2, demo_material,
                                                  monkeypatch):
        # an operator without its form (here a copy) starts the search at 0
        import micromorph.analysis

        w1, gram = assemble_w1(demo_material, sys_2), assemble_gram(sys_2)
        real = micromorph.analysis.extreme_generalized_eigenvalues
        floors = []

        def recorded(a, b, which, below=0.0):
            floors.append(below)
            return real(a, b, which, below)

        monkeypatch.setattr(micromorph.analysis, "extreme_generalized_eigenvalues", recorded)
        m1 = discrete_coercivity(w1, gram)
        from_zero = discrete_coercivity(dataclasses.replace(w1, spec=None), gram)
        assert from_zero == pytest.approx(m1, rel=1e-12)
        assert floors == [_symbol_floor(form_spec_w1(demo_material), form_spec_gram()), 0.0]


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

    def test_doubled_eigenvalue_of_a_huge_pencil_fails_residual_check(self, monkeypatch):
        # ||B||_1 + |omega^2| ||A||_1 overflows on this pencil unless it is
        # scaled into range first; an inf scale would pass the pair untested
        real = np.linalg.eigh

        def doubled(m):
            lam, y = real(m)
            lam[-1, 11] *= 2.0  # the top branch at k = 3
            return lam, y

        monkeypatch.setattr(np.linalg, "eigh", doubled)
        params = isotropic_material(elastic=(4e306, 0.0))
        with pytest.raises(NonConvergenceError, match="backward error"):
            dispersion_curves(params, (1, 0, 0), np.linspace(0.0, 3.0, 13))

    def test_singular_rate_symbol_is_refused(self):
        # a singular rate symbol whose smallest eigenvalue rounds to -1.8e-16;
        # a Cholesky factor can still exist for such a symbol, so only the
        # eigenvalue verdict refuses it
        params = isotropic_material(
            variant=ModelVariant.SIMPLIFIED_INERTIA,
            inertia_elastic=(0.0, 0.0),
            inertia_coupling=1.0,
            inertia_micro=(1.0, -2.0 / 3.0),
            inertia_curvature=0.0,
        )
        a, _ = plane_wave_pencil(params, np.array([1.0, 0.0, 0.0]), 0.3)
        assert abs(np.linalg.eigvalsh(a)[0]) < 1e-14
        with pytest.raises(HypothesisError, match=r"at k=0\.3 "):
            dispersion_curves(params, (1, 0, 0), [0.3])
