import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from micromorph import build_box_mesh, build_fe_system, linalg
from micromorph.assembly import FormSpec, assemble_form, assemble_gram, assemble_w1, assemble_w2
from micromorph.errors import DefinitenessError, NonConvergenceError
from micromorph.linalg import (
    DENSE_CUTOFF,
    DefiniteSolver,
    extreme_generalized_eigenvalues,
    hermitian_dense_eig,
)
from micromorph.tensors import isotropic_curvature, isotropic_elastic


def spd(rng, n, shift=None):
    q = rng.standard_normal((n, n))
    return q @ q.T + (n if shift is None else shift) * np.eye(n)


def ends(a, b):
    """(smallest, largest) eigenvalue of the pencil (a, b)."""
    return (
        extreme_generalized_eigenvalues(a, b, "smallest"),
        extreme_generalized_eigenvalues(a, b, "largest"),
    )


class TestExtremeGeneralized:
    def test_equal_operators(self, rng):
        a = sp.csr_matrix(spd(rng, 12))
        lo, hi = ends(a, a)
        assert lo == pytest.approx(1.0, rel=1e-8)
        assert hi == pytest.approx(1.0, rel=1e-8)

    def test_empty_operator_is_refused(self):
        empty = sp.csr_matrix((0, 0))
        with pytest.raises(ValueError, match="empty operator"):
            extreme_generalized_eigenvalues(empty, empty, "largest")

    def test_diagonal_pencil(self):
        a = sp.csr_matrix(np.diag([1.0, 4.0]))
        lo, hi = ends(a, sp.eye(2, format="csr"))
        assert (lo, hi) == (pytest.approx(1.0), pytest.approx(4.0))

    @pytest.mark.parametrize("n", [5, 12, 20])
    def test_random_spd_pencil_vs_dense(self, n, rng):
        a_d, b_d = spd(rng, n), spd(rng, n)
        lo, hi = ends(
            sp.csr_matrix(a_d), sp.csr_matrix(b_d)
        )
        w = scipy.linalg.eigh(a_d, b_d, eigvals_only=True)
        assert lo == pytest.approx(w[0], rel=1e-8)
        assert hi == pytest.approx(w[-1], rel=1e-8)

    def test_indefinite_left_operator(self, rng):
        a_d = np.diag(np.linspace(-3.0, 5.0, 15))
        lo, hi = ends(
            sp.csr_matrix(a_d), sp.eye(15, format="csr")
        )
        assert lo == pytest.approx(-3.0, rel=1e-8)
        assert hi == pytest.approx(5.0, rel=1e-8)

    def test_zero_operator(self):
        lo, hi = ends(
            sp.csr_matrix((6, 6)), sp.eye(6, format="csr")
        )
        assert lo == 0.0 == hi

    def test_congruence_invariance(self, rng):
        n = 10
        a_d, b_d = spd(rng, n), spd(rng, n)
        s = rng.standard_normal((n, n)) + n * np.eye(n)
        a2, b2 = s.T @ a_d @ s, s.T @ b_d @ s
        lo1, hi1 = ends(
            sp.csr_matrix(a_d), sp.csr_matrix(b_d)
        )
        lo2, hi2 = ends(
            sp.csr_matrix(a2), sp.csr_matrix(b2)
        )
        assert lo1 == pytest.approx(lo2, rel=1e-8)
        assert hi1 == pytest.approx(hi2, rel=1e-8)

    def test_scalar_pencil(self):
        lo, hi = ends(
            sp.csr_matrix(np.array([[3.0]])), sp.csr_matrix(np.array([[2.0]]))
        )
        assert lo == pytest.approx(1.5) == hi


N_SPARSE = DENSE_CUTOFF + 36  # large enough for the factorization path


def sparse_symmetric(rng, n, density=0.05):
    """Dense array of a random sparse symmetric matrix with a zero diagonal."""
    m = np.where(rng.random((n, n)) < density, rng.standard_normal((n, n)), 0.0)
    m = np.triu(m, 1)
    return m + m.T


def diagonally_dominant(rng, n, shift=1.0):
    m = sparse_symmetric(rng, n)
    return m + np.diag(np.abs(m).sum(axis=1) + shift)


def dense_spectrum(a_d, b_d):
    return scipy.linalg.eigh(a_d, b_d, eigvals_only=True)


@pytest.fixture(scope="module")
def step_operator(demo_material):
    """Newmark step operator W1 + 1e-4 W2 of the demo material at res 5."""
    system = build_fe_system(build_box_mesh((1.0, 1.0, 1.0), (5, 5, 5)))
    return (
        assemble_w1(demo_material, system).matrix
        + 1e-4 * assemble_w2(demo_material, system).matrix
    )


class TestSparsePath:
    def test_inertia_count_matches_dense(self, rng):
        m = sparse_symmetric(rng, N_SPARSE) + np.diag(rng.uniform(-3, 3, N_SPARSE))
        _, negatives = linalg._symmetric_lu(sp.csr_matrix(m))
        assert negatives == int(np.sum(np.linalg.eigvalsh(m) < 0))

    def test_smallest_is_true_minimum_of_indefinite_pencil(self, rng):
        n = N_SPARSE
        a_d = np.diag(np.r_[-4.0, -2.0, np.linspace(0.1, 5.0, n - 2)])
        b_d = np.diag(rng.uniform(1.0, 2.0, n))
        w = dense_spectrum(a_d, b_d)
        assert w[0] < 0 < w[np.argmin(np.abs(w))]   # nearest 0 is positive
        lo, hi = ends(sp.csr_matrix(a_d), sp.csr_matrix(b_d))
        assert lo == pytest.approx(w[0], rel=1e-10)
        assert hi == pytest.approx(w[-1], rel=1e-10)

    def test_factor_stores_no_supernode_padding(self, step_operator):
        # relaxed supernodes would store 1,001,050 entries for this
        # Newmark step operator against 727,126 in L and U; the factor's
        # own L and U copies are emptied, so a fresh one gives the fill
        lu, negatives = linalg._symmetric_lu(step_operator)
        fresh = scipy.sparse.linalg.splu(sp.csc_matrix(step_operator), **linalg._SPLU_OPTIONS)
        assert negatives == 0
        assert lu.nnz <= 1.001 * (fresh.L.nnz + fresh.U.nnz)

    def test_factor_keeps_no_csc_copy(self, step_operator, rng):
        # reading the pivots through lu.U makes scipy cache CSC copies of
        # L and U on the factor (8.7 MB here); the solver empties them
        held_by_csr = sum(
            a.nbytes for a in (step_operator.data, step_operator.indices, step_operator.indptr)
        )
        tracemalloc.start()
        try:
            solve = DefiniteSolver(step_operator)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        numpy_domain = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
        held = sum(t.size for t in snapshot.filter_traces([numpy_domain]).traces)
        assert held <= 1.5 * held_by_csr
        assert (solve._lu.L.nnz, solve._lu.U.nnz) == (0, 0)
        fresh = scipy.sparse.linalg.splu(sp.csc_matrix(step_operator), **linalg._SPLU_OPTIONS)
        assert solve.factor_nnz == fresh.nnz
        b = rng.standard_normal((step_operator.shape[0], 3))
        np.testing.assert_array_equal(solve(b), fresh.solve(b))
        np.testing.assert_array_equal(solve(b[:, 0]), fresh.solve(b[:, 0]))

    def test_factor_reads_the_certified_csr_in_place(self, step_operator, monkeypatch):
        # SuperLU gets the CSC view of the solver's own CSR arrays, no copy
        real = scipy.sparse.linalg.splu
        received = []

        def recorded(mat, **options):
            received.append(mat)
            return real(mat, **options)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", recorded)
        solve = DefiniteSolver(step_operator)
        (mat,) = received
        for name in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(mat, name), getattr(solve._mat, name))

    @pytest.mark.parametrize("res", [2, 3])
    @pytest.mark.parametrize("operator", ["W1", "step", "W1 - sigma Gram", "Gram", "Korn right"])
    def test_factor_equals_that_of_a_csc_copy(self, demo_material, rng, res, operator):
        system = build_fe_system(build_box_mesh((1.0, 1.0, 1.0), (res, res, res)))
        w1 = assemble_w1(demo_material, system).matrix
        gram = assemble_gram(system).matrix
        korn_right = assemble_form(system, FormSpec(  # as in korn_curl_constant
            sym_micro=isotropic_elastic(0.5, 0.0), curl=isotropic_curvature(1.0),
            curl_coeff=1.0,
        )).p_block().matrix
        mat = {
            "W1": w1,
            "step": w1 + 1e-4 * assemble_w2(demo_material, system).matrix,
            "W1 - sigma Gram": w1 - 0.59 * gram,
            "Gram": gram,
            "Korn right": korn_right,
        }[operator]
        lu, negatives = linalg._symmetric_lu(mat)
        fresh = scipy.sparse.linalg.splu(sp.csc_matrix(mat), **linalg._SPLU_OPTIONS)
        np.testing.assert_array_equal(lu.perm_r, fresh.perm_r)
        np.testing.assert_array_equal(lu.perm_c, fresh.perm_c)
        assert negatives == int(np.count_nonzero(fresh.U.diagonal() < 0))
        b = rng.standard_normal(mat.shape[0])
        np.testing.assert_array_equal(lu.solve(b), fresh.solve(b))

    def test_csr_csc_and_dense_inputs_agree(self, rng):
        # every input becomes the same canonical CSR before it is factored
        a_d = sparse_symmetric(rng, N_SPARSE) + np.diag(rng.uniform(-1, 3, N_SPARSE))
        b_d = diagonally_dominant(rng, N_SPARSE)
        rhs = rng.standard_normal(N_SPARSE)
        results = [
            (
                DefiniteSolver(form(b_d))(rhs),
                extreme_generalized_eigenvalues(form(a_d), form(b_d), "smallest"),
                extreme_generalized_eigenvalues(form(a_d), form(b_d), "largest"),
            )
            for form in (sp.csr_matrix, sp.csc_matrix, np.asarray)
        ]
        for x, lo, hi in results[1:]:
            np.testing.assert_array_equal(x, results[0][0])
            assert (lo, hi) == results[0][1:]

    def test_saddle_point_takes_fallback(self, rng):
        m = N_SPARSE // 2
        eye = sp.eye(m)
        a = sp.bmat([[None, eye], [eye, None]], format="csr")
        _, negatives = linalg._symmetric_lu(a)
        assert negatives is None   # zero diagonal forces off-diagonal pivots
        b_d = np.diag(rng.uniform(1.0, 2.0, 2 * m))
        w = dense_spectrum(a.toarray(), b_d)
        lo, hi = ends(a, sp.csr_matrix(b_d))
        assert lo == pytest.approx(w[0], rel=1e-10)
        assert hi == pytest.approx(w[-1], rel=1e-10)

    def test_singular_left_operator(self):
        # path-graph Laplacian: positive semi-definite, constants in the kernel
        n = N_SPARSE
        lap = sp.diags([-np.ones(n - 1), np.r_[1.0, 2.0 * np.ones(n - 2), 1.0],
                        -np.ones(n - 1)], [-1, 0, 1], format="csr")
        lo, hi = ends(lap, sp.eye(n, format="csr"))
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert hi == pytest.approx(2.0 + 2.0 * np.cos(np.pi / n), rel=1e-10)

    @pytest.mark.parametrize("bad", [-1.0, 0.0])
    def test_indefinite_or_singular_metric_raises(self, rng, bad):
        b_d = np.diag(np.r_[bad, np.ones(N_SPARSE - 1)])
        a = sp.csr_matrix(diagonally_dominant(rng, N_SPARSE))
        for which in ("smallest", "largest", "magnitude"):
            with pytest.raises(DefinitenessError):
                extreme_generalized_eigenvalues(a, sp.csr_matrix(b_d), which=which)

    def test_wrong_pair_fails_residual_check(self, rng, monkeypatch):
        real = scipy.sparse.linalg.eigsh

        def off_by_1e6(*args, **kwargs):
            w, v = real(*args, **kwargs)
            return w * (1.0 + 1e-6), v

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", off_by_1e6)
        a = sp.csr_matrix(diagonally_dominant(rng, N_SPARSE))
        b = sp.csr_matrix(diagonally_dominant(rng, N_SPARSE))
        for which in ("smallest", "largest", "magnitude"):
            with pytest.raises(NonConvergenceError) as err:
                extreme_generalized_eigenvalues(a, b, which=which)
            assert err.value.residual > 1e-8

    def test_missed_pair_reruns_asking_for_two(self, rng, monkeypatch):
        # asked for one pair, ARPACK can return a double end mixed with its copy
        real = scipy.sparse.linalg.eigsh
        asked = []

        def one_pair_off(*args, **kwargs):
            asked.append(kwargs["k"])
            w, v = real(*args, **kwargs)
            return (w * (1.0 + 1e-6), v) if kwargs["k"] == 1 else (w, v)

        a = sp.csr_matrix(sparse_symmetric(rng, N_SPARSE) + np.diag(rng.uniform(-1, 3, N_SPARSE)))
        b = sp.csr_matrix(diagonally_dominant(rng, N_SPARSE))
        lo, hi = scipy.linalg.eigh(a.toarray(), b.toarray(), eigvals_only=True)[[0, -1]]
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", one_pair_off)
        for which, end in (("smallest", lo), ("largest", hi), ("magnitude", max(lo, hi, key=abs))):
            asked.clear()
            assert extreme_generalized_eigenvalues(a, b, which) == pytest.approx(end, rel=1e-12)
            assert asked == [1, 2]

    def test_single_ends_match_both(self, rng):
        a_d = sparse_symmetric(rng, N_SPARSE) + np.diag(rng.uniform(-1, 3, N_SPARSE))
        a = sp.csr_matrix(a_d)
        b = sp.csr_matrix(diagonally_dominant(rng, N_SPARSE))
        lo, hi = ends(a, b)
        assert extreme_generalized_eigenvalues(a, b, which="smallest") == lo
        assert extreme_generalized_eigenvalues(a, b, which="largest") == hi
        mag = extreme_generalized_eigenvalues(a, b, which="magnitude")
        assert abs(mag) == pytest.approx(max(-lo, hi), rel=1e-10)

    def test_repeat_calls_bitwise_identical(self, rng):
        a = sp.csr_matrix(diagonally_dominant(rng, N_SPARSE))
        b = sp.csr_matrix(diagonally_dominant(rng, N_SPARSE))
        first = ends(a, b)
        assert all(ends(a, b) == first for _ in range(3))

    def test_second_smallest_pair_fails_minimum_certificate(self, monkeypatch):
        # a true eigenpair, so only the inertia count below it can reject it
        d = np.linspace(1.0, 10.0, N_SPARSE)
        second = np.eye(N_SPARSE)[:, [1]]
        monkeypatch.setattr(
            scipy.sparse.linalg, "eigsh", lambda *args, **kwargs: (d[[1]], second)
        )
        with pytest.raises(NonConvergenceError, match="below"):
            extreme_generalized_eigenvalues(
                sp.diags(d, format="csr"), sp.eye(N_SPARSE, format="csr"),
                which="smallest",
            )

    def test_unavailable_count_fails_minimum_certificate(self, monkeypatch):
        # a zero pivot proves A - sigma B is not positive definite, so it fails too
        real = linalg._symmetric_lu
        calls = []

        def count_unavailable(mat):
            calls.append(mat)  # B, then A, then the count of A - sigma B
            return (None, None) if len(calls) == 3 else real(mat)

        monkeypatch.setattr(linalg, "_symmetric_lu", count_unavailable)
        d = np.linspace(1.0, 10.0, N_SPARSE)
        with pytest.raises(NonConvergenceError, match="below"):
            extreme_generalized_eigenvalues(
                sp.diags(d, format="csr"), sp.eye(N_SPARSE, format="csr"),
                which="smallest",
            )
        assert len(calls) == 3

    @pytest.mark.parametrize(
        "which, a_definite, run",
        [("smallest", False, "SA"), ("smallest", True, "LM"), ("largest", False, "LA")],
    )
    def test_each_arpack_run_sees_one_live_factor(self, rng, monkeypatch, which,
                                                  a_definite, run):
        # an indefinite A must release its failed factor before the SA run
        real_lu, real_eigsh = linalg._symmetric_lu, scipy.sparse.linalg.eigsh
        live = weakref.WeakSet()
        seen = []

        class Factor:  # a SuperLU stand-in that a WeakSet can hold
            def __init__(self, lu):
                self._lu = lu

            def __getattr__(self, name):
                return getattr(self._lu, name)

            def solve(self, b):  # a bound solve keeps its factor alive
                return self._lu.solve(b)

        def tracked(mat):
            lu, negatives = real_lu(mat)
            factor = Factor(lu)
            live.add(factor)
            return factor, negatives

        def counted(*args, **kwargs):
            seen.append((kwargs["which"], len(live)))
            return real_eigsh(*args, **kwargs)

        monkeypatch.setattr(linalg, "_symmetric_lu", tracked)
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counted)
        d = np.linspace(0.1, 5.0, N_SPARSE)
        if not a_definite:
            d[:2] = -4.0, -2.0
        b = sp.diags(rng.uniform(1.0, 2.0, N_SPARSE), format="csr")
        extreme_generalized_eigenvalues(sp.diags(d, format="csr"), b, which=which)
        assert seen == [(run, 1)]

    @pytest.mark.parametrize(
        "which, a_kind, factors",
        [
            ("largest", "indefinite", ["B"]),
            ("magnitude", "indefinite", ["B"]),
            ("smallest", "definite", ["B", "A", "A - sigma B"]),
            ("smallest", "indefinite", ["B", "A (refused)", "B", "A - sigma B"]),
            *[(which, "zero", ["B"]) for which in ("smallest", "largest", "magnitude")],
            *[(which, "dense", []) for which in ("smallest", "largest", "magnitude")],
        ],
    )
    def test_factor_sequence_of_each_end(self, rng, monkeypatch, which, a_kind, factors):
        # the SuperLU factors each end builds, in order; a refused one counted
        # a negative pivot
        real_lu = linalg._symmetric_lu
        n = DENSE_CUTOFF if a_kind == "dense" else N_SPARSE
        d = {"zero": np.zeros(n), "definite": np.linspace(0.1, 5.0, n)}.get(
            a_kind, np.linspace(-2.0, 5.0, n)
        )
        a = sp.diags(d, format="csr")
        b = sp.diags(rng.uniform(1.0, 2.0, n), format="csr")
        seen = []

        def recorded(mat):
            lu, negatives = real_lu(mat)
            name = next((name for name, m in (("A", a), ("B", b)) if (mat != m).nnz == 0),
                        "A - sigma B")
            seen.append(name if negatives == 0 else f"{name} (refused)")
            return lu, negatives

        monkeypatch.setattr(linalg, "_symmetric_lu", recorded)
        extreme_generalized_eigenvalues(a, b, which=which)
        assert seen == factors

    @pytest.mark.parametrize(
        "ratio, factors",
        [(0.9, ["B", "A - below B", "A - sigma B"]),
         (1.1, ["B", "A - below B (refused)", "A", "A - sigma B"])],
    )
    def test_floor_shifts_the_bottom_end_or_falls_back(self, rng, monkeypatch, ratio,
                                                       factors):
        # a floor under m1 passes its count and is the shift; one above m1
        # is refused by its count, and the run is the one at 0, bit for bit
        real_lu, real_eigsh = linalg._symmetric_lu, scipy.sparse.linalg.eigsh
        a = sp.csr_matrix(diagonally_dominant(rng, N_SPARSE))
        b = sp.csr_matrix(diagonally_dominant(rng, N_SPARSE))
        m1 = extreme_generalized_eigenvalues(a, b, "smallest")
        below = ratio * m1
        named = (("A", a), ("B", b), ("A - below B", a - below * b))
        seen, shifts = [], []

        def recorded(mat):
            lu, negatives = real_lu(mat)
            name = next((name for name, m in named if (mat != m).nnz == 0), "A - sigma B")
            seen.append(name if negatives == 0 else f"{name} (refused)")
            return lu, negatives

        def shifted(*args, **kwargs):
            shifts.append(kwargs["sigma"])
            return real_eigsh(*args, **kwargs)

        monkeypatch.setattr(linalg, "_symmetric_lu", recorded)
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", shifted)
        lam = extreme_generalized_eigenvalues(a, b, "smallest", below=below)
        assert seen == factors
        if ratio < 1:
            assert shifts == [below]
            assert lam == pytest.approx(m1, rel=1e-12)
        else:
            assert shifts == [0.0]
            assert lam == m1

    def test_unknown_end_rejected(self):
        with pytest.raises(ValueError, match="which"):
            extreme_generalized_eigenvalues(sp.eye(3), sp.eye(3), which="middle")

    @given(
        n=st.integers(DENSE_CUTOFF + 1, DENSE_CUTOFF + 60),
        seed=st.integers(0, 2**32 - 1),
        definite=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_pencils_match_dense(self, n, seed, definite):
        rng = np.random.default_rng(seed)
        a_d = diagonally_dominant(rng, n) if definite else (
            sparse_symmetric(rng, n) + np.diag(rng.uniform(-2, 2, n))
        )
        b_d = diagonally_dominant(rng, n, shift=rng.uniform(0.1, 2.0))
        a, b = sp.csr_matrix(a_d), sp.csr_matrix(b_d)
        w = dense_spectrum(a_d, b_d)
        atol = 1e-10 * np.abs(w).max()
        lo, hi = ends(a, b)
        assert lo == pytest.approx(w[0], rel=1e-8, abs=atol)
        assert hi == pytest.approx(w[-1], rel=1e-8, abs=atol)
        mag = extreme_generalized_eigenvalues(a, b, which="magnitude")
        assert abs(mag) == pytest.approx(np.abs(w).max(), rel=1e-8)


class _PerturbedLU:
    """SuperLU stand-in whose first ``bad_calls`` solves are off by ``eps``."""

    def __init__(self, lu, eps, bad_calls):
        self._lu, self.eps, self.bad_calls = lu, eps, bad_calls

    def __getattr__(self, name):
        return getattr(self._lu, name)

    def solve(self, b):
        x = self._lu.solve(b)
        if self.bad_calls > 0:
            self.bad_calls -= 1
            x = x * (1.0 + self.eps)
        return x


def perturb_factors(monkeypatch, eps, bad_calls):
    real = linalg._symmetric_lu

    def patched(mat):
        lu, negatives = real(mat)
        return _PerturbedLU(lu, eps, bad_calls), negatives

    monkeypatch.setattr(linalg, "_symmetric_lu", patched)


class TestDefiniteSolver:
    def test_block_matches_columns(self, rng):
        a = sp.csr_matrix(diagonally_dominant(rng, N_SPARSE))
        b = rng.standard_normal((N_SPARSE, 7))
        solve = DefiniteSolver(a)
        block = solve(b)
        columns = np.column_stack([solve(b[:, j]) for j in range(7)])
        np.testing.assert_allclose(block, columns, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(block, np.linalg.solve(a.toarray(), b), rtol=1e-10)
        assert solve(b[:, 0]).shape == (N_SPARSE,)

    def test_counters(self, rng):
        a = sp.csr_matrix(diagonally_dominant(rng, N_SPARSE))
        solve = DefiniteSolver(a)
        solve(rng.standard_normal((N_SPARSE, 3)))
        solve(rng.standard_normal(N_SPARSE))
        assert solve.solves == 4
        assert solve.factor_nnz >= a.nnz
        assert 0.0 < solve.max_residual <= 1e-12
        solve.close()
        assert solve.solves == 4

    def test_zero_rhs(self, rng):
        solve = DefiniteSolver(sp.csr_matrix(diagonally_dominant(rng, N_SPARSE)))
        assert np.all(solve(np.zeros(N_SPARSE)) == 0.0)

    @pytest.mark.parametrize("bad", [-1.0, 0.0])
    def test_indefinite_or_singular_raises(self, rng, bad):
        a = diagonally_dominant(rng, N_SPARSE)
        a[0, :] = a[:, 0] = 0.0
        a[0, 0] = bad
        with pytest.raises(DefinitenessError):
            DefiniteSolver(sp.csr_matrix(a))

    def test_refused_factor_dies_with_its_constructor(self, monkeypatch):
        # the caught error's traceback holds the constructor's frame
        real_lu = linalg._symmetric_lu
        live = weakref.WeakSet()
        factored = []

        class Factor:  # a SuperLU stand-in that a WeakSet can hold
            def __init__(self, lu):
                self._lu = lu

        def tracked(mat):
            lu, negatives = real_lu(mat)
            factor = Factor(lu)
            live.add(factor)
            factored.append(negatives)
            return factor, negatives

        monkeypatch.setattr(linalg, "_symmetric_lu", tracked)
        d = np.linspace(-2.0, 5.0, N_SPARSE)
        with pytest.raises(DefinitenessError) as refused:
            DefiniteSolver(sp.diags(d, format="csr"), "A")
        assert refused.value.__traceback__ is not None
        assert factored == [int(np.count_nonzero(d < 0))]
        assert len(live) == 0

    def test_refinement_repairs_a_slightly_wrong_solve(self, rng, monkeypatch):
        perturb_factors(monkeypatch, 1e-11, bad_calls=1)
        a = sp.csr_matrix(diagonally_dominant(rng, N_SPARSE))
        b = rng.standard_normal(N_SPARSE)
        x = DefiniteSolver(a)(b)
        assert np.linalg.norm(a @ x - b) <= 1e-13 * np.linalg.norm(b)

    def test_perturbed_factor_raises(self, rng, monkeypatch):
        perturb_factors(monkeypatch, 1e-6, bad_calls=2)
        a = sp.csr_matrix(diagonally_dominant(rng, N_SPARSE))
        with pytest.raises(NonConvergenceError) as err:
            DefiniteSolver(a)(rng.standard_normal(N_SPARSE))
        assert err.value.residual > 1e-12

    def test_nan_rhs_raises(self, rng):
        solve = DefiniteSolver(sp.csr_matrix(diagonally_dominant(rng, N_SPARSE)))
        b = rng.standard_normal(N_SPARSE)
        b[3] = np.nan
        with pytest.raises(NonConvergenceError):
            solve(b)

    @pytest.mark.parametrize("scale", [1.0, 1e160, 1e200])
    def test_wrong_solve_is_refined_at_every_scale_of_b(self, monkeypatch, scale):
        # the squares of ||b|| overflow above ~1e154; the check must still see
        # the first solve's 1e-8 error, refine it and warn of nothing
        perturb_factors(monkeypatch, 1e-8, bad_calls=1)
        solve = DefiniteSolver(2.0 * sp.eye(50, format="csr"))
        b = np.full(50, scale)
        np.testing.assert_array_equal(solve(b), b / 2)
        assert solve.max_residual == 0.0

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_square_safe_norm_scales_only_out_of_range_slices(self, rng, scale):
        x = rng.standard_normal((30, 4))
        np.testing.assert_array_equal(
            linalg._square_safe_norm(x, axis=0), np.linalg.norm(x, axis=0)
        )
        ref = np.linalg.norm(x, axis=0) * [1.0, scale, scale, 1.0]
        x[:, 1:3] *= scale
        np.testing.assert_allclose(linalg._square_safe_norm(x, axis=0), ref, rtol=1e-15)

    def test_square_safe_norm_of_a_non_finite_slice_is_nan(self):
        x = np.array([[1.0, np.inf, np.nan, 0.0], [1e200, 1.0, 1.0, 0.0]])
        np.testing.assert_array_equal(
            linalg._square_safe_norm(x, axis=0), [1e200, np.nan, np.nan, 0.0]
        )


class TestHermitianDense:
    def test_real_diagonal(self):
        w = hermitian_dense_eig(np.diag([1.0, 2.0, 3.0]), np.eye(3))
        np.testing.assert_allclose(w, [1, 2, 3], rtol=1e-13)

    def test_metric_scaling_halves_eigenvalues(self, rng):
        n = 6
        h = hermitian(rng, (n, n))
        g = np.eye(n)
        w1 = hermitian_dense_eig(h, g)
        w2 = hermitian_dense_eig(h, 2 * g)
        np.testing.assert_allclose(w2, w1 / 2, rtol=1e-12)

    @pytest.mark.parametrize("shape", [(3,), (2, 3)])
    def test_non_square_rejected(self, shape):
        with pytest.raises(ValueError, match="H must be square"):
            hermitian_dense_eig(np.zeros(shape), np.eye(3))

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_dense_eig(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))

    @pytest.mark.parametrize("complex_side", ["H", "G"])
    def test_complex_pencil_is_refused_not_cast(self, complex_side):
        # casting to float would drop the imaginary part with only a warning
        # and solve another pencil; here a warning would be an error too
        h, g = np.array([[0.0, 1j], [-1j, 0.0]]), np.eye(2)
        if complex_side == "G":
            h, g = h.real, g + h
        with pytest.raises(ValueError, match="must be real"):
            hermitian_dense_eig(h, g)

    @pytest.mark.parametrize("s", [1e-200, 1.0, 1e200, 1e307])
    def test_scaled_pencil_scales_its_eigenvalues(self, rng, s):
        # no residual norm squares an entry into over- or underflow, and a
        # warning would be an error here
        h, g = hermitian(rng, (8, 8)), hpd(rng, (8, 8))
        w = hermitian_dense_eig(h, g)
        np.testing.assert_allclose(hermitian_dense_eig(s * h, g), s * w, rtol=1e-12)


def hermitian(rng, shape):
    """A real symmetric matrix, or a stack of them."""
    x = rng.standard_normal(shape)
    return x + x.swapaxes(-1, -2)


def hpd(rng, shape):
    """A real symmetric positive definite matrix, or a stack of them."""
    y = rng.standard_normal(shape)
    return y @ y.swapaxes(-1, -2) + shape[-1] * np.eye(shape[-1])


class TestHermitianDenseStacked:
    def test_stack_matches_per_slice_eigh(self, rng):
        h, g = hermitian(rng, (7, 12, 12)), hpd(rng, (7, 12, 12))
        w = hermitian_dense_eig(h, g)
        assert w.shape == (7, 12)
        for s in range(7):
            ref = scipy.linalg.eigh(h[s], g[s], eigvals_only=True)
            np.testing.assert_allclose(w[s], ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    def test_stack_without_metric(self, rng):
        h = hermitian(rng, (2, 3, 5, 5))
        w = hermitian_dense_eig(h, np.eye(5))
        assert w.shape == (2, 3, 5)
        np.testing.assert_allclose(w, np.linalg.eigvalsh(h), rtol=1e-12, atol=1e-12)

    def test_metric_not_definite_in_one_slice(self, rng):
        h, g = hermitian(rng, (4, 6, 6)), hpd(rng, (4, 6, 6))
        g[2] -= 2 * np.abs(np.linalg.eigvalsh(g[2])).max() * np.eye(6)
        with pytest.raises(DefinitenessError):
            hermitian_dense_eig(h, g)

    def test_non_hermitian_slice_rejected(self, rng):
        h = hermitian(rng, (3, 4, 4))
        h[1, 0, 1] += 1.0
        with pytest.raises(ValueError, match="H is not Hermitian"):
            hermitian_dense_eig(h, np.eye(4))

    def test_wrong_pair_fails_residual_check(self, rng, monkeypatch):
        h, g = hermitian(rng, (5, 8, 8)), hpd(rng, (5, 8, 8))
        real = np.linalg.eigh

        def one_value_off(a):
            lam, y = real(a)
            lam[3, 4] *= 1.0 + 1e-6
            return lam, y

        monkeypatch.setattr(np.linalg, "eigh", one_value_off)
        with pytest.raises(NonConvergenceError):
            hermitian_dense_eig(h, g)

    def test_nan_fails_residual_check(self):
        h = np.diag([1.0, np.nan])
        with pytest.raises(NonConvergenceError):
            hermitian_dense_eig(h, np.eye(2))
