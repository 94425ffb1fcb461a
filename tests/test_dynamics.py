import numpy as np
import pytest
import scipy.sparse

from micromorph.assembly import (
    BlockLayout,
    SparseSymOperator,
    TimeField,
    assemble_gram,
    assemble_load,
    assemble_w1,
    assemble_w2,
    LoadFunctional,
    load_assembler,
)
from micromorph.dynamics import (
    MAX_INTERVALS,
    DynamicState,
    newmark_integrate,
    picard_integrate,
    stationary_solve,
)
from micromorph.errors import DefinitenessError, NonConvergenceError, SolverError
from micromorph.linalg import _SOLVE_TOL, definite_solver


def dense_op(m, layout=None):
    m = np.atleast_2d(np.asarray(m, dtype=float))
    return SparseSymOperator(
        scipy.sparse.csr_matrix(m), layout or BlockLayout(m.shape[0], 0)
    )


def scalar_op(value):
    return dense_op([[float(value)]])


def euclid(op):
    """Identity operator on the layout of ``op``: the Euclidean norm."""
    return dense_op(np.eye(op.dimension), op.layout)


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
        a = stationary_solve(definite_solver(w1), scalar_op(0.0), np.zeros(1), None)
        assert a == pytest.approx(0.0)

    def test_identity_recovery(self, rng):
        n = 8
        q = rng.standard_normal((n, n))
        w1 = dense_op(q @ q.T + n * np.eye(n))
        g = rng.standard_normal(n)
        a = stationary_solve(
            definite_solver(w1), dense_op(np.zeros((n, n))), np.zeros(n), w1.matvec(g)
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
        a = stationary_solve(
            definite_solver(dense_op(w1_d)), dense_op(w2_d), w_prev, load
        )
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


class TestLoadedFESystem:
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
            DynamicState.zero(w1.layout), w1, w2, load_assembler(load, sys_2),
            0.01, c_est=250000.0, gram=assemble_gram(sys_2),
        )
        assert traj.diagnostics["intervals"] == 10
        assert traj.times[-1] == 0.01
        assert np.any(traj.positions[-1] != 0.0)
