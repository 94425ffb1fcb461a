import dataclasses
import functools

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

from micromorph.assembly import (
    BlockLayout,
    SparseSymOperator,
    TimeField,
    assemble_gram,
    assemble_load,
    assemble_w1,
    assemble_w2,
    LoadFunctional,
)
from micromorph.dynamics import (
    MAX_INTERVALS,
    DynamicState,
    newmark_integrate,
    picard_integrate,
    stationary_solve,
)
from micromorph.errors import DefinitenessError, NonConvergenceError, SolverError
from micromorph.linalg import _SOLVE_TOL, DefiniteSolver
from micromorph.tensors import ModelVariant, isotropic_material
from oracles import random_material


def dense_op(m, layout=None):
    m = np.atleast_2d(np.asarray(m, dtype=float))
    return SparseSymOperator(
        scipy.sparse.csr_matrix(m), layout or BlockLayout(m.shape[0], 0)
    )


def scalar_op(value):
    return dense_op([[float(value)]])


def euclid(op):
    """Identity operator on the layout of ``op``: the Euclidean norm."""
    return dense_op(np.eye(op.matrix.shape[0]), op.layout)


@pytest.fixture()
def oscillator():
    """Scalar surrogate: W1 = 1, W2 = omega^2, position starts at 1."""
    omega = 2.0
    layout = BlockLayout(1, 0)
    state0 = DynamicState.from_vectors(layout, 0.0, [1.0], [0.0])
    return scalar_op(1.0), scalar_op(omega**2), state0, omega


class TestStationarySolve:
    def test_zero_everything(self):
        w1 = scalar_op(1.0)
        solve = DefiniteSolver(w1.matrix)
        a = stationary_solve(solve, scalar_op(0.0), np.zeros(1), None)
        assert a == pytest.approx(0.0)

    def test_identity_recovery(self, rng):
        n = 8
        q = rng.standard_normal((n, n))
        w1 = dense_op(q @ q.T + n * np.eye(n))
        g = rng.standard_normal(n)
        a = stationary_solve(
            DefiniteSolver(w1.matrix), dense_op(np.zeros((n, n))), np.zeros(n),
            w1.matrix @ g,
        )
        np.testing.assert_allclose(a, g, rtol=1e-10, atol=1e-11)

    def test_matches_dense_oracle(self, rng):
        n = 12
        q = rng.standard_normal((n, n))
        w1_d = q @ q.T + n * np.eye(n)
        w2_d = rng.standard_normal((n, n))
        w2_d = w2_d + w2_d.T
        w_prev = rng.standard_normal(n)
        load = rng.standard_normal(n)
        a = stationary_solve(DefiniteSolver(w1_d), dense_op(w2_d), w_prev, load)
        ref = np.linalg.solve(w1_d, load - w2_d @ w_prev)
        np.testing.assert_allclose(a, ref, rtol=1e-10, atol=1e-10)


class TestPicardInterval:
    """One subinterval: t_final = delta, with c_est = 0 or the c of delta."""

    def test_constant_map_converges_immediately(self):
        # W2 = 0, no load: u(t) = u0 + t u0dot, the map ignores its input
        layout = BlockLayout(2, 0)
        w1 = dense_op(np.diag([1.0, 2.0]), layout)
        w2 = dense_op(np.zeros((2, 2)), layout)
        s0 = DynamicState.from_vectors(layout, 0.0, [1.0, -1.0], [0.5, 2.0])
        traj = picard_integrate(s0, w1, w2, None, 1.0, 0.0, n_t=9, gram=euclid(w1))
        assert traj.diagnostics["picard_iterations"] == [2]  # second sweep confirms
        for j, t in enumerate(traj.times):
            np.testing.assert_allclose(
                traj.positions[j], s0.position + t * s0.velocity, rtol=1e-14
            )

    def test_scalar_cosine(self, oscillator):
        w1, w2, s0, omega = oscillator
        delta = 0.5
        n_t = 33
        traj = picard_integrate(
            s0, w1, w2, None, delta, 0.0, n_t=n_t, gram=euclid(w1)
        )
        ratios = traj.diagnostics["contraction_ratios"][0]
        exact = np.cos(omega * traj.times)
        err = np.abs(traj.positions[:, 0] - exact).max()
        h = delta / (n_t - 1)
        assert err <= 5 * omega**4 * h**2  # trapezoid-order accuracy
        assert max(ratios) < 1.0

    def test_ratio_bounded_by_contraction_estimate(self, sys_2, demo_material, rng):
        from micromorph.analysis import (
            contraction_constant,
            discrete_boundedness,
            discrete_coercivity,
        )

        w1 = assemble_w1(demo_material, sys_2)
        w2 = assemble_w2(demo_material, sys_2)
        gram = assemble_gram(sys_2)
        m1 = discrete_coercivity(w1, gram)
        m2 = discrete_boundedness(w2, gram)
        c, delta = contraction_constant(m1, m2)
        s0 = DynamicState.from_vectors(
            w1.layout, 0.0,
            rng.standard_normal(sys_2.n_dofs), rng.standard_normal(sys_2.n_dofs),
        )
        traj = picard_integrate(s0, w1, w2, None, delta, c, n_t=9, gram=gram)
        assert traj.diagnostics["intervals"] == 1
        assert traj.diagnostics["delta"] == delta   # bitwise: one interval of delta
        ratios = traj.diagnostics["contraction_ratios"][0]
        assert ratios, "expected at least one measured ratio"
        assert max(ratios) <= delta**2 * c

    def test_nonconvergence_carries_history(self, oscillator):
        w1, w2, s0, omega = oscillator
        with pytest.raises(NonConvergenceError) as err:
            picard_integrate(s0, w1, w2, None, 10.0, 0.0, n_t=17, gram=euclid(w1))
        assert err.value.history is not None

    def test_rejects_bad_arguments(self, oscillator):
        w1, w2, s0, _ = oscillator
        with pytest.raises(ValueError):
            picard_integrate(s0, w1, w2, None, 0.0, 0.0, gram=euclid(w1))
        with pytest.raises(ValueError):
            picard_integrate(s0, w1, w2, None, 1.0, 0.0, n_t=2, gram=euclid(w1))
        for fixed_tol in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="fixed_tol"):
                picard_integrate(
                    s0, w1, w2, None, 0.1, 0.0, fixed_tol=fixed_tol, gram=euclid(w1)
                )
        for t_final in (-1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="t_final"):
                picard_integrate(s0, w1, w2, None, t_final, 1.0, gram=euclid(w1))
        for c_est in (-1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="c_est"):
                picard_integrate(s0, w1, w2, None, 1.0, c_est, gram=euclid(w1))


class TestLateStart:
    """t0 + k dt rounds at the ulp of t0, not of dt: a run that starts at
    t0 = 1e6 still has a uniform grid and the dynamics of a run from 0."""

    T0 = 1e6

    def test_picard(self, oscillator):
        w1, w2, s0, omega = oscillator
        late = DynamicState.from_vectors(w1.layout, self.T0, s0.position, s0.velocity)
        c = omega**2 * np.sqrt(2)
        traj = picard_integrate(late, w1, w2, None, 1e-3, c, n_t=9, gram=euclid(w1))
        ref = picard_integrate(s0, w1, w2, None, 1e-3, c, n_t=9, gram=euclid(w1))
        assert traj.times[0] == self.T0
        np.testing.assert_allclose(traj.times - self.T0, ref.times, atol=1e-9)
        np.testing.assert_array_equal(traj.positions, ref.positions)

    def test_newmark(self, oscillator):
        w1, w2, s0, _ = oscillator
        late = DynamicState.from_vectors(w1.layout, self.T0, s0.position, s0.velocity)
        traj = newmark_integrate(late, w1, w2, None, 1e-4, 10)
        ref = newmark_integrate(s0, w1, w2, None, 1e-4, 10)
        assert traj.times[0] == self.T0 and traj.n_nodes == 11
        np.testing.assert_array_equal(traj.positions, ref.positions)


class TestPicardIntegrate:
    def test_single_interval_when_t_small(self, oscillator):
        w1, w2, s0, omega = oscillator
        c = 4.0
        t_final = 0.1  # < delta = 1/(2*2) = 0.25
        traj = picard_integrate(s0, w1, w2, None, t_final, c, n_t=9, gram=euclid(w1))
        ref = picard_integrate(s0, w1, w2, None, t_final, 0.0, n_t=9, gram=euclid(w1))
        np.testing.assert_array_equal(traj.positions, ref.positions)
        assert traj.diagnostics["intervals"] == 1

    def test_gluing_is_bit_exact(self, oscillator):
        w1, w2, s0, omega = oscillator
        c = omega**2 * np.sqrt(2)
        traj = picard_integrate(s0, w1, w2, None, 1.0, c, n_t=9, gram=euclid(w1))
        n_int = traj.diagnostics["intervals"]
        assert n_int > 1
        # seam nodes appear once; positions there continue the previous
        # interval's terminal state bitwise by construction; verify the grid
        assert traj.n_nodes == n_int * 8 + 1
        dt = np.diff(traj.times)
        assert np.ptp(dt) <= 1e-12 * dt[0]

    def test_constant_map_flag(self, oscillator):
        w1, _, s0, _ = oscillator
        traj = picard_integrate(
            s0, w1, scalar_op(0.0), None, 2.0, 0.0, n_t=5, gram=euclid(w1)
        )
        assert traj.diagnostics["intervals"] == 1
        np.testing.assert_allclose(
            traj.positions[:, 0], 1.0 + 0.0 * traj.times, rtol=1e-14
        )

    def test_interval_budget_raises(self, oscillator):
        w1, w2, s0, _ = oscillator
        c_est = 1e12   # delta = 5e-7: 2e6 subintervals over T = 1
        assert 1.0 / (0.5 / np.sqrt(c_est)) > MAX_INTERVALS
        with pytest.raises(SolverError, match="MAX_INTERVALS"):
            picard_integrate(s0, w1, w2, None, 1.0, c_est, n_t=5, gram=euclid(w1))

    def test_interval_budget_message_is_short_for_huge_t_final(self, oscillator):
        w1, w2, s0, _ = oscillator
        with pytest.raises(SolverError, match=r"needs 4e\+300 subintervals") as err:
            picard_integrate(s0, w1, w2, None, 1e300, 4.0, n_t=5, gram=euclid(w1))
        assert len(str(err.value)) < 200

    def test_interval_budget_raises_when_the_count_overflows(self):
        # t_final / delta = 1e300 * 2 sqrt(1e300) overflows to inf
        op = scalar_op(1.0)
        with pytest.raises(SolverError, match=r"needs inf subintervals") as err:
            picard_integrate(DynamicState.zero(op.layout), op, op, None, 1e300, 1e300,
                             gram=op)
        assert "MAX_INTERVALS" in str(err.value)

    def test_linearity_in_data(self, oscillator):
        w1, w2, s0, omega = oscillator
        c = omega**2 * np.sqrt(2)
        load = lambda t: np.array([0.3 * np.sin(t)])
        traj1 = picard_integrate(s0, w1, w2, load, 1.0, c, n_t=9, gram=euclid(w1))
        s2 = DynamicState.from_vectors(w1.layout, 0.0, [2.0], [0.0])
        load2 = lambda t: np.array([0.6 * np.sin(t)])
        traj2 = picard_integrate(s2, w1, w2, load2, 1.0, c, n_t=9, gram=euclid(w1))
        np.testing.assert_allclose(
            traj2.positions, 2 * traj1.positions, rtol=1e-8, atol=1e-10
        )

    def test_deterministic(self, sys_1, demo_material):
        w1 = assemble_w1(demo_material, sys_1)
        w2 = assemble_w2(demo_material, sys_1)
        gram = assemble_gram(sys_1)
        s0 = DynamicState.from_vectors(
            w1.layout, 0.0, np.arange(3.0), np.ones(3)
        )
        load = lambda t: np.full(3, np.cos(t))
        run = lambda: picard_integrate(
            s0, w1, w2, load, 0.7, 5.0, n_t=9, gram=gram
        )
        t1, t2 = run(), run()
        assert np.array_equal(t1.positions, t2.positions)
        assert np.array_equal(t1.velocities, t2.velocities)

    def test_sweeps_do_not_depend_on_the_scale_of_the_data(self, sys_2, demo_material,
                                                           rng):
        # the Gram norms of a 1e200 state square past overflow unless they are
        # scaled first; W1 and W2 shrink by 1e-100, so the energies stay finite
        from micromorph.analysis import (
            contraction_constant,
            discrete_boundedness,
            discrete_coercivity,
        )

        w1 = assemble_w1(demo_material, sys_2)
        w2 = assemble_w2(demo_material, sys_2)
        gram = assemble_gram(sys_2)
        c, _ = contraction_constant(
            discrete_coercivity(w1, gram), discrete_boundedness(w2, gram)
        )
        n = sys_2.n_dofs
        w, wt = rng.standard_normal(n), rng.standard_normal(n)

        def run(data, operators):
            s0 = DynamicState.from_vectors(w1.layout, 0.0, data * w, data * wt)
            a, b = (SparseSymOperator(operators * op.matrix, op.layout) for op in (w1, w2))
            return picard_integrate(s0, a, b, None, 0.3, c, gram=gram)

        ref, big = run(1.0, 1.0), run(1e200, 1e-100)
        assert big.diagnostics["picard_iterations"] == [5, 5]
        assert ref.diagnostics["picard_iterations"] == [5, 5]
        error = np.abs(big.positions / 1e200 - ref.positions).max()
        assert error <= 1e-13 * np.abs(ref.positions).max()


class TestNewmark:
    def test_scalar_amplitude_and_energy(self, oscillator):
        w1, w2, s0, omega = oscillator
        dt = 0.1 / omega
        traj = newmark_integrate(s0, w1, w2, None, dt, 1000)
        total = traj.total_energy
        assert np.abs(total - total[0]).max() / total[0] <= 1e-10
        assert np.abs(traj.positions[:, 0]).max() <= 1.0 + 1e-10

    def test_zero_data_zero_trajectory(self, oscillator):
        w1, w2, _, _ = oscillator
        s0 = DynamicState.zero(w1.layout)
        traj = newmark_integrate(s0, w1, w2, None, 0.05, 50)
        assert np.all(traj.positions == 0.0)
        assert np.all(traj.velocities == 0.0)

    def test_rejects_bad_arguments(self, oscillator):
        w1, w2, s0, _ = oscillator
        for dt in (0.0, -1.0, float("inf"), float("nan"), 1e160):  # 1e160: beta dt^2
            with pytest.raises(ValueError, match="dt"):
                newmark_integrate(s0, w1, w2, None, dt, 5)
        with pytest.raises(ValueError, match="step"):
            newmark_integrate(s0, w1, w2, None, 0.1, 0)

    def test_load_called_once_per_node_in_time_order(self, oscillator):
        w1, w2, s0, _ = oscillator
        calls = []

        def load(t):
            calls.append(t)
            return np.array([np.sin(t)])

        traj = newmark_integrate(s0, w1, w2, load, 0.1, 7)
        assert calls == [float(t) for t in traj.times]

    def test_static_limit_time_average(self):
        # constant load on a 2-dof system with SPD W2: long-time average of
        # the oscillation equals the static solution W2^{-1} l
        layout = BlockLayout(2, 0)
        w1 = dense_op(np.eye(2), layout)
        w2_d = np.array([[4.0, 1.0], [1.0, 9.0]])
        w2 = dense_op(w2_d, layout)
        load_vec = np.array([1.0, -2.0])
        static = np.linalg.solve(w2_d, load_vec)
        s0 = DynamicState.zero(layout)
        period = 2 * np.pi / np.sqrt(np.linalg.eigvalsh(w2_d)[0])
        dt = period / 60
        n = int(400 * period / dt)
        traj = newmark_integrate(s0, w1, w2, lambda t: load_vec, dt, n)
        average = traj.positions.mean(axis=0)
        np.testing.assert_allclose(average, static, rtol=0.02, atol=0.02)

    def test_matches_picard_on_fe_system(self, sys_1, demo_material, rng):
        w1 = assemble_w1(demo_material, sys_1)
        w2 = assemble_w2(demo_material, sys_1)
        gram = assemble_gram(sys_1)
        from micromorph.analysis import (
            contraction_constant,
            discrete_boundedness,
            discrete_coercivity,
        )

        c, _ = contraction_constant(
            discrete_coercivity(w1, gram), discrete_boundedness(w2, gram)
        )
        s0 = DynamicState.from_vectors(
            w1.layout, 0.0, rng.standard_normal(3), rng.standard_normal(3)
        )
        picard = picard_integrate(s0, w1, w2, None, 0.5, c, n_t=17, gram=gram)
        h = picard.times[1] - picard.times[0]
        newmark = newmark_integrate(s0, w1, w2, None, h / 2, 2 * (picard.n_nodes - 1))
        err = np.abs(picard.positions - newmark.positions[::2]).max()
        assert err <= 5e-3 * np.abs(picard.positions).max()


    def test_picard_fixed_point_is_newmark_on_its_grid(self, sys_2, demo_material):
        # a converged trapezoid sweep satisfies the average-acceleration
        # update on the same nodes
        from micromorph.analysis import well_posedness_report

        w1 = assemble_w1(demo_material, sys_2)
        w2 = assemble_w2(demo_material, sys_2)
        gram = assemble_gram(sys_2)
        c = well_posedness_report(demo_material, w1, w2, gram).contraction
        rng = np.random.default_rng(0)
        s0 = DynamicState.from_vectors(
            w1.layout, 0.0,
            rng.standard_normal(sys_2.n_dofs), rng.standard_normal(sys_2.n_dofs),
        )
        load = functools.partial(
            assemble_load, LoadFunctional.constant(f=[0.0, 0.0, 1.0]), sys_2
        )
        picard = picard_integrate(s0, w1, w2, load, 0.5, c, n_t=9, fixed_tol=1e-14,
                                  gram=gram)
        assert (picard.diagnostics["intervals"], picard.n_nodes) == (3, 25)
        newmark = newmark_integrate(s0, w1, w2, load, 0.5 / 24, 24)

        def norms(x):
            return np.sqrt(np.einsum("ni,ni->n", x, (gram.matrix @ x.T).T))

        for a, b in ((picard.positions, newmark.positions),
                     (picard.velocities, newmark.velocities)):
            assert norms(a - b).max() <= 1e-12 * norms(a[-1:])[0]


class TestModalReference:
    """Both integrators against the exact solution of the undamped modal
    problem: eigh(W2, W1) gives W1-orthonormal modes Phi with frequencies
    sqrt(lambda), and with zero load w(T) = Phi (cos(sqrt(lambda) T) q0 +
    sin(sqrt(lambda) T) / sqrt(lambda) p0), q0 and p0 the modal data."""

    T = 0.5

    @pytest.fixture(scope="class")
    def problem(self, sys_2, demo_material):
        from micromorph.analysis import well_posedness_report

        w1, w2 = assemble_w1(demo_material, sys_2), assemble_w2(demo_material, sys_2)
        gram = assemble_gram(sys_2)
        c = well_posedness_report(demo_material, w1, w2, gram).contraction
        lam, phi = scipy.linalg.eigh(w2.to_dense(), w1.to_dense())
        rng = np.random.default_rng(0)
        s0 = DynamicState.from_vectors(
            w1.layout, 0.0,
            rng.standard_normal(sys_2.n_dofs), rng.standard_normal(sys_2.n_dofs),
        )
        omega = np.sqrt(lam)
        q0, p0 = (phi.T @ (w1.matrix @ x) for x in (s0.position, s0.velocity))
        t = self.T
        exact = phi @ (np.cos(omega * t) * q0 + np.sin(omega * t) / omega * p0)
        return w1, w2, gram, c, lam, s0, exact

    @staticmethod
    def halving_ratios(trajectories, gram, exact):
        errors = []
        for traj in trajectories:
            e = traj.positions[-1] - exact
            errors.append(np.sqrt(e @ (gram.matrix @ e)))
        return np.array(errors[:-1]) / errors[1:]

    def test_spectrum_lies_inside_the_contraction_chain(self, problem):
        # |W2(w, w)| <= M2 |w|_G^2 <= (M2 / m1) W1(w, w), and M2 / m1 = c / sqrt(2)
        _, _, _, c, lam, _, _ = problem
        assert 0.5 < lam.min() and lam.max() < 1.4
        assert np.abs(lam).max() <= c / np.sqrt(2)

    def test_newmark_is_second_order(self, problem):
        w1, w2, gram, _, _, s0, exact = problem
        runs = [newmark_integrate(s0, w1, w2, None, self.T / n, n)
                for n in (8, 16, 32, 64)]
        ratios = self.halving_ratios(runs, gram, exact)
        assert np.all((3.9 <= ratios) & (ratios <= 4.1)), ratios

    def test_picard_is_second_order(self, problem):
        w1, w2, gram, c, _, s0, exact = problem
        runs = [picard_integrate(s0, w1, w2, None, self.T, c, n_t=n_t, fixed_tol=1e-13,
                                 gram=gram)
                for n_t in (5, 9, 17, 33)]
        ratios = self.halving_ratios(runs, gram, exact)
        assert np.all((3.9 <= ratios) & (ratios <= 4.1)), ratios


class TestFactoredPath:
    @pytest.mark.parametrize("bad", [-1.0, 0.0])   # indefinite, singular
    def test_non_definite_w1_raises(self, bad):
        layout = BlockLayout(3, 0)
        w1 = dense_op(np.diag([1.0, bad, 2.0]), layout)
        w2 = dense_op(np.eye(3), layout)
        s0 = DynamicState.from_vectors(layout, 0.0, [1.0, 0.5, -1.0], np.zeros(3))
        with pytest.raises(DefinitenessError):
            picard_integrate(s0, w1, w2, None, 0.5, 4.0, n_t=5, gram=euclid(w1))
        with pytest.raises(DefinitenessError):
            newmark_integrate(s0, w1, w2, None, 0.1, 5)

    def test_solver_counters(self, sys_1, demo_material, rng):
        w1 = assemble_w1(demo_material, sys_1)
        w2 = assemble_w2(demo_material, sys_1)
        gram = assemble_gram(sys_1)
        s0 = DynamicState.from_vectors(
            w1.layout, 0.0, rng.standard_normal(3), rng.standard_normal(3)
        )
        tol = _SOLVE_TOL
        picard = picard_integrate(s0, w1, w2, None, 0.5, 5.0, n_t=9, gram=gram)
        interval = picard_integrate(s0, w1, w2, None, 0.1, 0.0, n_t=9, gram=euclid(w1))
        newmark = newmark_integrate(s0, w1, w2, None, 0.05, 20)
        for traj, n_t in ((picard, 9), (interval, 9), (newmark, 1)):
            d = traj.diagnostics
            assert d["solves"] == n_t * sum(d.get("picard_iterations", [21]))
            assert d["factor_nnz"] >= w1.matrix.nnz
            assert 0.0 <= d["max_solve_residual"] <= tol

    def test_node_interval(self, oscillator):
        w1, w2, s0, omega = oscillator
        traj = picard_integrate(
            s0, w1, w2, None, 1.0, omega**2 * np.sqrt(2), n_t=5, gram=euclid(w1)
        )
        n_int = traj.diagnostics["intervals"]
        assert traj.diagnostics["node_interval"] == [0] + [
            k for k in range(n_int) for _ in range(4)
        ]

    def test_newmark_matches_dense_stepping(self, sys_2, demo_material, rng):
        w1 = assemble_w1(demo_material, sys_2)
        w2 = assemble_w2(demo_material, sys_2)
        load = LoadFunctional.constant(f=np.array([0.3, 0.0, 1.0]))
        load_fn = lambda t: assemble_load(load, sys_2, t)
        n = sys_2.n_dofs
        s0 = DynamicState.from_vectors(
            w1.layout, 0.0, rng.standard_normal(n), rng.standard_normal(n)
        )
        dt, n_steps, beta, gamma = 0.05, 20, 0.25, 0.5
        traj = newmark_integrate(s0, w1, w2, load_fn, dt, n_steps)

        w1_d, w2_d = w1.to_dense(), w2.to_dense()
        eff = w1_d + beta * dt * dt * w2_d
        u, v = s0.position, s0.velocity
        a = np.linalg.solve(w1_d, load_fn(0.0) - w2_d @ u)
        ref = [u]
        for k in range(1, n_steps + 1):
            u_pred = u + dt * v + dt * dt * (0.5 - beta) * a
            v_pred = v + dt * (1.0 - gamma) * a
            a = np.linalg.solve(eff, load_fn(k * dt) - w2_d @ u_pred)
            u, v = u_pred + beta * dt * dt * a, v_pred + gamma * dt * a
            ref.append(u)
        ref = np.array(ref)
        assert np.abs(traj.positions - ref).max() <= 1e-10 * np.abs(ref).max()


class TestEnergy:
    @pytest.mark.parametrize("integrator", ["picard", "newmark"])
    def test_overflowing_start_names_time_zero(self, oscillator, integrator):
        w1, w2, _, omega = oscillator
        s0 = DynamicState.from_vectors(w1.layout, 0.0, [1e160], [0.0])
        with pytest.raises(ValueError, match=r"energy at t=0\.0 is not finite"):
            if integrator == "picard":
                picard_integrate(s0, w1, w2, None, 1.0, omega**2 * np.sqrt(2),
                                 gram=euclid(w1))
            else:
                newmark_integrate(s0, w1, w2, None, 0.1, 10)

    def test_energy_overflowing_mid_run_names_its_first_node(self, oscillator):
        # from rest under force f, x = (f / omega^2)(1 - cos omega t), so the
        # quadratic forms v^T W1 v and x^T W2 x, twice the energies, are
        # Q sin^2(omega t) and Q (1 - cos omega t)^2 with Q = f^2 / omega^2;
        # this Q keeps the first finite, and the second overflows between the
        # nodes t = 1.0 and t = 1.1
        w1, w2, _, omega = oscillator
        crossing = (1 - np.cos(2.1)) ** 2  # omega t = 2.1, t = 1.05
        f = omega * np.sqrt(np.finfo(float).max / crossing)
        s0 = DynamicState.zero(w1.layout)
        with pytest.raises(ValueError, match=r"energy at t=1\.1"):
            newmark_integrate(s0, w1, w2, lambda t: np.array([f]), 0.1, 15)

    def test_zero_state(self, oscillator):
        w1, w2, _, _ = oscillator
        s0 = DynamicState.zero(w1.layout)
        energies = (0.5 * w1.quadratic(s0.velocity), 0.5 * w2.quadratic(s0.position))
        assert energies == (0.0, 0.0)

    def test_kinetic_matches_integrand_quadrature(self, sys_2, demo_material, rng):
        from micromorph.assembly import form_spec_w1
        from oracles import dense_form_matrix

        w1 = assemble_w1(demo_material, sys_2)
        wt = rng.standard_normal(sys_2.n_dofs)
        state = DynamicState.from_vectors(
            w1.layout, 0.0, np.zeros(sys_2.n_dofs), wt
        )
        kin = 0.5 * w1.quadratic(state.velocity)
        oracle = dense_form_matrix(sys_2, form_spec_w1(demo_material))
        assert kin == pytest.approx(0.5 * wt @ oracle @ wt, rel=1e-11)

    def test_conservation_under_zero_load(self, sys_1, demo_material, rng):
        w1 = assemble_w1(demo_material, sys_1)
        w2 = assemble_w2(demo_material, sys_1)
        s0 = DynamicState.from_vectors(
            w1.layout, 0.0, rng.standard_normal(3), rng.standard_normal(3)
        )
        traj = newmark_integrate(s0, w1, w2, None, 0.02, 1000)
        total = traj.total_energy
        assert np.abs(total - total[0]).max() <= 1e-10 * abs(total[0])

    def test_trajectory_energies_match_per_node_energy(
        self, sys_2, demo_material, rng
    ):
        # 71 and 33 nodes: more than one block of rows, the last one partial
        w1 = assemble_w1(demo_material, sys_2)
        w2 = assemble_w2(demo_material, sys_2)
        gram = assemble_gram(sys_2)
        s0 = DynamicState.from_vectors(
            w1.layout, 0.0, rng.standard_normal(sys_2.n_dofs),
            rng.standard_normal(sys_2.n_dofs),
        )
        for traj in (
            newmark_integrate(s0, w1, w2, None, 0.01, 70),
            picard_integrate(s0, w1, w2, None, 0.5, 10.0, n_t=9, gram=gram),
        ):
            assert traj.n_nodes > 32
            per_node = np.array(
                [
                    (0.5 * w1.quadratic(v), 0.5 * w2.quadratic(w))
                    for v, w in zip(traj.velocities, traj.positions)
                ]
            )
            for values, ref in zip((traj.kinetic, traj.potential), per_node.T):
                assert np.abs(values - ref).max() <= 1e-13 * np.abs(ref).max()


# f = (0, 0, 1) + (0, 1, 0) t + (1, 0, 0) t^2 and m = 0.3 + 0.2 t^2 in every
# entry, and a piecewise linear table over [0, 1]
BALANCE_LOADS = {
    "poly": LoadFunctional(
        TimeField.polynomial([[0, 0, 1], [0, 1, 0], [1, 0, 0]]),
        TimeField.polynomial([np.full((3, 3), 0.3), np.zeros((3, 3)),
                              np.full((3, 3), 0.2)]),
    ),
    "table": LoadFunctional(
        TimeField.table([0.0, 0.4, 1.0], [[0, 0, 1], [1, -1, 0.5], [0, 2, 0]]),
        TimeField.table([0.0, 1.0], [np.full((3, 3), 0.3), -0.5 * np.eye(3)]),
    ),
}


def energy_balance_defect(traj, load):
    """max_n |E_{n+1} - E_n - (l_n + l_{n+1}) . (w_{n+1} - w_n) / 2| over
    max (kinetic + |potential|) + sum |work|; zero in exact arithmetic for
    average-acceleration Newmark and for Picard's fixed point on its grid.
    The scale is the size of the energies E sums, not of E: the growing
    modes of an indefinite W2 carry kinetic and potential energies that
    cancel in E, and their round-off scales with each."""
    energy = traj.total_energy
    loads = np.array([load(t) for t in traj.times])
    work = 0.5 * np.einsum(
        "ni,ni->n", loads[1:] + loads[:-1], np.diff(traj.positions, axis=0)
    )
    defect = np.abs(np.diff(energy) - work).max()
    size = traj.kinetic + np.abs(traj.potential)
    return defect / (size.max() + np.abs(work).sum())


class TestLoadedFESystem:
    @pytest.mark.parametrize(
        "variant, load_name",
        [(ModelVariant.FULL_INERTIA, "poly"), (ModelVariant.FULL_INERTIA, "table"),
         (ModelVariant.SIMPLIFIED_INERTIA, "poly"), (ModelVariant.QUASISTATIC, "poly"),
         (ModelVariant.ZERO_LENGTH_SCALE, "poly")],
    )
    def test_discrete_energy_balance(self, sys_3, variant, load_name):
        from micromorph.analysis import well_posedness_report

        zero_length = variant is ModelVariant.ZERO_LENGTH_SCALE
        params = isotropic_material(variant=variant, elastic=(1.0, -1.0),
                                    length_scale=0.0 if zero_length else 1.0)
        w1, w2 = assemble_w1(params, sys_3), assemble_w2(params, sys_3)
        gram = assemble_gram(sys_3)
        c = well_posedness_report(params, w1, w2, gram).contraction
        rng = np.random.default_rng(0)
        s0 = DynamicState.from_vectors(
            w1.layout, 0.0,
            rng.standard_normal(sys_3.n_dofs), rng.standard_normal(sys_3.n_dofs),
        )
        load = functools.partial(assemble_load, BALANCE_LOADS[load_name], sys_3)
        newmark = newmark_integrate(s0, w1, w2, load, 0.01, 100)
        assert energy_balance_defect(newmark, load) <= 1e-13
        fixed_tol = 1e-10
        picard = picard_integrate(s0, w1, w2, load, 1.0, c, fixed_tol=fixed_tol,
                                  gram=gram)
        assert energy_balance_defect(picard, load) <= 10 * fixed_tol
        # one Newmark velocity moved by 1e-8 breaks the balance
        moved = newmark.velocities[50].copy()
        moved[7] += 1e-8
        kinetic = newmark.kinetic.copy()
        kinetic[50] = 0.5 * w1.quadratic(moved)
        assert energy_balance_defect(
            dataclasses.replace(newmark, kinetic=kinetic), load
        ) > 1e-13

    @given(
        seed=st.integers(0, 2**32 - 1),
        variant=st.sampled_from(list(ModelVariant)),
        load_name=st.sampled_from(sorted(BALANCE_LOADS)),
    )
    @settings(max_examples=20, deadline=None)
    # a double top eigenvalue of (W2, G): one ARPACK pair misses its rule there
    @example(seed=248, variant=ModelVariant.FULL_INERTIA, load_name="poly")
    def test_energy_balance_on_random_materials(self, sys_2, seed, variant, load_name):
        # potential moduli of either sign, so W2 may be indefinite; rate
        # moduli that pass the checklist in every variant
        rng = np.random.default_rng(seed)
        zero_length = variant is ModelVariant.ZERO_LENGTH_SCALE

        def rate_pair():
            return rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0)

        params = isotropic_material(
            variant=variant, length_scale=0.0 if zero_length else 1.0,
            elastic=tuple(rng.uniform(-1, 1, 2)), coupling=rng.uniform(-1, 1),
            micro=tuple(rng.uniform(-1, 1, 2)), curvature=rng.uniform(-1, 1),
            inertia_elastic=rate_pair(), inertia_coupling=rng.uniform(0.0, 1.0),
            inertia_micro=rate_pair(), inertia_curvature=rng.uniform(0.5, 2.0),
        )
        self.assert_balanced_on_random_state(sys_2, params, rng, load_name)

    @given(
        seed=st.integers(0, 2**32 - 1),
        variant=st.sampled_from(list(ModelVariant)),
        load_name=st.sampled_from(sorted(BALANCE_LOADS)),
    )
    @settings(max_examples=20, deadline=None)
    def test_energy_balance_on_random_anisotropic_materials(self, sys_2, seed, variant,
                                                            load_name):
        # every tensor a random matrix of its class: rate tensors >= 0.5,
        # potential tensors indefinite in general
        rng = np.random.default_rng(seed)
        params = random_material(rng, variant)
        self.assert_balanced_on_random_state(sys_2, params, rng, load_name)

    @staticmethod
    def assert_balanced_on_random_state(system, params, rng, load_name):
        """Newmark (dt = 0.01, 100 steps) and Picard (T = 1) from a random
        state meet the discrete energy balance under ``BALANCE_LOADS[load_name]``."""
        from micromorph.analysis import well_posedness_report

        w1, w2 = assemble_w1(params, system), assemble_w2(params, system)
        gram = assemble_gram(system)
        c = well_posedness_report(params, w1, w2, gram).contraction
        s0 = DynamicState.from_vectors(
            w1.layout, 0.0,
            rng.standard_normal(system.n_dofs), rng.standard_normal(system.n_dofs),
        )
        load = functools.partial(assemble_load, BALANCE_LOADS[load_name], system)
        newmark = newmark_integrate(s0, w1, w2, load, 0.01, 100)
        assert energy_balance_defect(newmark, load) <= 1e-13
        fixed_tol = 1e-10
        picard = picard_integrate(s0, w1, w2, load, 1.0, c, fixed_tol=fixed_tol,
                                  gram=gram)
        assert energy_balance_defect(picard, load) <= 10 * fixed_tol

    def test_constant_force_drives_its_component(self, sys_2, demo_material):
        # response of the single interior vertex is dominated by the force
        # direction (the diagonal split breaks exact reflection symmetry)
        w1 = assemble_w1(demo_material, sys_2)
        w2 = assemble_w2(demo_material, sys_2)
        gram = assemble_gram(sys_2)
        load = LoadFunctional.constant(f=np.array([0.0, 0.0, 1.0]))
        load_fn = lambda t: assemble_load(load, sys_2, t)
        s0 = DynamicState.zero(w1.layout)
        traj = picard_integrate(s0, w1, w2, load_fn, 0.2, 10.0, n_t=9, gram=gram)
        final_u = traj.positions[-1][: sys_2.n_u_dofs]
        assert abs(final_u[2]) > 0
        assert abs(final_u[0]) < 0.2 * abs(final_u[2])
        assert abs(final_u[1]) < 0.2 * abs(final_u[2])

    def test_table_load_ending_at_t_final(self, sys_2, demo_material):
        # ten subintervals of 0.001 on one grid: the last load time is
        # t_final itself, where the table ends, not an ulp past it
        w1 = assemble_w1(demo_material, sys_2)
        w2 = assemble_w2(demo_material, sys_2)
        table = TimeField.table([0.0, 0.01], [np.zeros(3), np.array([0.0, 0.0, 1.0])])
        load = LoadFunctional(table, TimeField.zero((3, 3)))
        traj = picard_integrate(
            DynamicState.zero(w1.layout), w1, w2,
            functools.partial(assemble_load, load, sys_2),
            0.01, c_est=250000.0, gram=assemble_gram(sys_2),
        )
        assert traj.diagnostics["intervals"] == 10
        assert traj.times[-1] == 0.01
        assert np.any(traj.positions[-1] != 0.0)
