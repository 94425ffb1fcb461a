import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from micromorph.tensors import (
    ConstitutiveTensor4,
    Definiteness,
    MaterialParams,
    ModelVariant,
    SymmetryClass,
    classify_definiteness,
    isotropic_coupling,
    isotropic_elastic,
    isotropic_material,
    make_isotropic,
    skew,
    sym,
)
from oracles import apply4, dense_c4

EPS = np.finfo(float).eps


def random_tensor(symmetry_class, rng):
    d = symmetry_class.dim
    m = rng.standard_normal((d, d))
    return ConstitutiveTensor4(symmetry_class, m + m.T)


matrices = st.lists(
    st.floats(-10, 10, allow_nan=False), min_size=9, max_size=9
).map(lambda v: np.array(v).reshape(3, 3))


class TestMatrixAlgebra:
    @given(matrices)
    def test_sym_skew_decomposition(self, x):
        bound = 8 * EPS * np.linalg.norm(x)
        assert np.abs(sym(x) + skew(x) - x).max() <= bound

    @given(matrices)
    def test_parts_have_their_symmetry(self, x):
        s, a = sym(x), skew(x)
        assert np.array_equal(s, s.T)
        assert np.array_equal(a, -a.T)


class TestApply:
    def test_isotropic_identity_case(self):
        t = isotropic_elastic(1.0, 0.0)
        np.testing.assert_allclose(t.apply(np.eye(3)), 2.0 * np.eye(3))

    def test_elastic_annihilates_skew(self, rng):
        t = random_tensor(SymmetryClass.ELASTIC, rng)
        a = skew(rng.standard_normal((3, 3)))
        np.testing.assert_allclose(t.apply(a), 0.0, atol=1e-14)

    def test_coupling_annihilates_symmetric(self, rng):
        t = random_tensor(SymmetryClass.COUPLING, rng)
        s = sym(rng.standard_normal((3, 3)))
        np.testing.assert_allclose(t.apply(s), 0.0, atol=1e-14)

    def test_matches_quadruple_loop_contraction(self, rng):
        for cls in SymmetryClass:
            t = random_tensor(cls, rng)
            c4 = dense_c4(t)
            for _ in range(5):
                x = rng.standard_normal((3, 3))
                if cls is SymmetryClass.ELASTIC:
                    x = sym(x)
                elif cls is SymmetryClass.COUPLING:
                    x = skew(x)
                np.testing.assert_allclose(
                    t.apply(x), apply4(c4, x), rtol=1e-13, atol=1e-13
                )

    def test_output_symmetry_class(self, rng):
        x = rng.standard_normal((3, 3))
        y = random_tensor(SymmetryClass.ELASTIC, rng).apply(x)
        assert np.allclose(y, y.T)
        z = random_tensor(SymmetryClass.COUPLING, rng).apply(x)
        assert np.allclose(z, -z.T)

    def test_major_symmetry_bound(self, rng):
        for cls in SymmetryClass:
            t = random_tensor(cls, rng)
            tn = np.linalg.norm(t.matrix)
            for _ in range(10):
                x = rng.standard_normal((3, 3))
                y = rng.standard_normal((3, 3))
                lhs = np.sum(t.apply(x) * y)
                rhs = np.sum(x * t.apply(y))
                bound = 64 * EPS * tn * np.linalg.norm(x) * np.linalg.norm(y)
                assert abs(lhs - rhs) <= bound


class TestRepresentation:
    def test_identity_on_sym(self):
        t = ConstitutiveTensor4(SymmetryClass.ELASTIC, np.eye(6))
        np.testing.assert_array_equal(t.matrix, np.eye(6))

    def test_isotropic_eigenvalues(self):
        w = np.linalg.eigvalsh(isotropic_elastic(1, 0).matrix)
        np.testing.assert_allclose(w, [2] * 6, rtol=1e-14)
        w = np.sort(np.linalg.eigvalsh(isotropic_elastic(1, 1).matrix))
        np.testing.assert_allclose(w, [2, 2, 2, 2, 2, 5], rtol=1e-14)

    def test_curvature_identity(self):
        t = ConstitutiveTensor4(SymmetryClass.CURVATURE, np.eye(9))
        np.testing.assert_array_equal(t.matrix, np.eye(9))

    def test_quadratic_through_coordinates(self, rng):
        for cls in SymmetryClass:
            t = random_tensor(cls, rng)
            for _ in range(5):
                x = rng.standard_normal((3, 3))
                z = np.einsum("mij,ij->m", cls.basis, x)
                direct = np.sum(t.apply(x) * x)
                via_rep = z @ t.matrix @ z
                assert direct == pytest.approx(via_rep, rel=1e-12, abs=1e-13)

    def test_components_round_trip(self, rng):
        for cls in SymmetryClass:
            t = random_tensor(cls, rng)
            upper = t.matrix[np.triu_indices(cls.dim)]
            t2 = ConstitutiveTensor4.from_components(cls, upper)
            np.testing.assert_array_equal(t.matrix, t2.matrix)


class TestClassify:
    def test_identity_positive_definite(self):
        r = classify_definiteness(ConstitutiveTensor4(SymmetryClass.ELASTIC, np.eye(6)))
        assert r.classification is Definiteness.POSITIVE_DEFINITE
        assert r.min_modulus == pytest.approx(1.0)
        assert r.max_modulus == pytest.approx(1.0)

    def test_zero_semi_definite(self):
        r = classify_definiteness(
            ConstitutiveTensor4(SymmetryClass.ELASTIC, np.zeros((6, 6)))
        )
        assert r.classification is Definiteness.POSITIVE_SEMI_DEFINITE
        assert r.min_modulus == 0.0 == r.max_modulus

    def test_indefinite(self):
        r = classify_definiteness(isotropic_elastic(1.0, -1.0))
        assert r.classification is Definiteness.INDEFINITE
        assert r.min_modulus == pytest.approx(-1.0)

    def test_moduli_of_isotropic(self):
        r = classify_definiteness(isotropic_elastic(2.0, 1.0))
        assert r.min_modulus == pytest.approx(4.0)
        assert r.max_modulus == pytest.approx(7.0)

    @given(st.floats(1e-6, 1e6))
    @settings(max_examples=25)
    def test_scaling_preserves_classification(self, s):
        rng = np.random.default_rng(7)
        t = random_tensor(SymmetryClass.ELASTIC, rng)
        r1 = classify_definiteness(t)
        r2 = classify_definiteness(ConstitutiveTensor4(t.symmetry_class, s * t.matrix))
        assert r1.classification is r2.classification
        assert r2.min_modulus == pytest.approx(s * r1.min_modulus, rel=1e-10)
        assert r2.max_modulus == pytest.approx(s * r1.max_modulus, rel=1e-10)


class TestIsotropic:
    def test_coupling_scales_skew(self, rng):
        t = isotropic_coupling(3.0)
        a = skew(rng.standard_normal((3, 3)))
        np.testing.assert_allclose(t.apply(a), 6.0 * a, rtol=1e-14)

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            make_isotropic(SymmetryClass.ELASTIC, 1.0)
        with pytest.raises(ValueError):
            make_isotropic(SymmetryClass.COUPLING, 1.0, 2.0)

    def test_unknown_class(self):
        with pytest.raises(ValueError, match="unknown symmetry class"):
            make_isotropic("elastic", 1.0, 0.0)

    def test_matrix_shape_enforced(self):
        with pytest.raises(ValueError, match=r"coupling tensor needs a 3x3 matrix, got \(6, 6\)"):
            ConstitutiveTensor4(SymmetryClass.COUPLING, np.eye(6))

    def test_component_count_enforced(self):
        with pytest.raises(ValueError, match="21"):
            ConstitutiveTensor4.from_components(SymmetryClass.ELASTIC, range(20))

    def test_overflowing_moduli_rejected(self):
        # every entry is finite, the largest modulus (6 * 5e307) is not;
        # a RuntimeWarning on the way would fail the test
        with pytest.raises(ValueError, match="elastic tensor moduli must be finite"):
            ConstitutiveTensor4.from_components(SymmetryClass.ELASTIC, [5e307] * 21)
        t = ConstitutiveTensor4(SymmetryClass.ELASTIC, 1e307 * np.eye(6))
        assert classify_definiteness(t).max_modulus == pytest.approx(1e307, rel=1e-14)

    def test_moduli_above_half_the_float_range_build(self):
        # 0.5 * (m + m.T) would overflow: isotropic 0.6e308 has 2 mu = 1.2e308
        t = make_isotropic(SymmetryClass.ELASTIC, 0.6e308, 0.0)
        assert classify_definiteness(t).max_modulus == 1.2e308
        m = 1.5e308 * np.eye(6)
        np.testing.assert_array_equal(ConstitutiveTensor4(SymmetryClass.ELASTIC, m).matrix, m)

    def test_symmetrising_keeps_the_bits_of_normal_values(self, rng):
        for cls in SymmetryClass:
            m = rng.standard_normal((cls.dim, cls.dim)) * 10.0 ** rng.uniform(-300, 300)
            t = ConstitutiveTensor4(cls, m)
            np.testing.assert_array_equal(t.matrix, 0.5 * (m + m.T))


class TestMaterialParams:
    def test_scalar_validation(self):
        with pytest.raises(ValueError):
            isotropic_material(rho=0.0)
        with pytest.raises(ValueError):
            isotropic_material(mu=-1.0)
        with pytest.raises(ValueError):
            isotropic_material(micro_inertia=0.0)  # required in full variant

    @pytest.mark.parametrize("variant", list(ModelVariant))
    @pytest.mark.parametrize("name", ["rho", "mu", "micro_inertia", "length_scale"])
    def test_nan_scalar_rejected(self, name, variant):
        # the checklist's item (vii) passes every material that constructs
        scalars = {"length_scale": 0.0} if variant is ModelVariant.ZERO_LENGTH_SCALE else {}
        scalars[name] = float("nan")
        with pytest.raises(ValueError):
            isotropic_material(variant=variant, **scalars)

    def test_variant_inertia_terms(self):
        # the paper's four models: which mass terms the rate energy keeps
        kept = {v.value: (v.mass, v.micro_mass) for v in ModelVariant}
        assert kept == {
            "full": (True, True),
            "simplified": (True, False),
            "quasistatic": (False, False),
            "zero-length-scale": (True, True),
        }

    def test_simplified_allows_zero_micro_inertia(self):
        m = isotropic_material(
            variant=ModelVariant.SIMPLIFIED_INERTIA, micro_inertia=0.0
        )
        assert m.micro_inertia == 0.0

    def test_zero_length_scale_exact(self):
        with pytest.raises(ValueError):
            isotropic_material(variant=ModelVariant.ZERO_LENGTH_SCALE, length_scale=0.1)
        m = isotropic_material(variant=ModelVariant.ZERO_LENGTH_SCALE, length_scale=0.0)
        assert m.length_scale == 0.0
        with pytest.raises(ValueError):
            isotropic_material(length_scale=0.0)  # full variant needs positive

    def test_class_mismatch_rejected(self):
        good = isotropic_material()
        with pytest.raises(ValueError, match="symmetry class"):
            MaterialParams(
                rho=1, micro_inertia=1, mu=1, length_scale=1,
                elastic=good.coupling,  # wrong class
                coupling=good.coupling, micro=good.micro, curvature=good.curvature,
                inertia_elastic=good.inertia_elastic,
                inertia_coupling=good.inertia_coupling,
                inertia_micro=good.inertia_micro,
                inertia_curvature=good.inertia_curvature,
            )
