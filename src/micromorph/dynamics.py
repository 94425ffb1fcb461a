"""Time integration of the second-order weak problem W1(w_tt, .) + W2(w, .) = l(.).

Two integrators over the same operator pair:

* :func:`picard_integrate` - the constructive fixed-point scheme.  On one
  subinterval the map sends a candidate trajectory to the solution of a
  stationary problem at each time node followed by a double time
  integration (composite trapezoid) from the initial data; the subinterval
  length delta = 1/(2 sqrt(c)) makes the map a contraction with measured
  per-sweep ratios bounded by delta^2 * c.  Consecutive subintervals are
  glued by reseeding with the terminal state.  W1 is factored once per run
  and each sweep solves the stationary problems of all its nodes as one
  block of right-hand sides.
* :func:`newmark_integrate` - average-acceleration stepping (beta = 1/4,
  gamma = 1/2), unconditionally stable and energy conserving on the same
  linear system; used for cross-validation.  The effective operator
  W1 + beta dt^2 W2 is factored once and every step is one solve.

Loads are callables t -> dual vector (or None).  The operators solved with
must be positive definite: :func:`linalg.definite_solver` certifies that by
the inertia of their LU factor, else :class:`DefinitenessError`, and checks
the residual of every solve.  Each trajectory's diagnostics carry the
solver counters ``factor_nnz``, ``solves`` and ``max_solve_residual``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .assembly import BlockLayout, SparseSymOperator, combine_operators
from .errors import NonConvergenceError, SolverError
from .linalg import DefiniteSolver, definite_solver

__all__ = [
    "DynamicState",
    "Trajectory",
    "stationary_solve",
    "picard_interval",
    "picard_integrate",
    "newmark_integrate",
    "energy",
]

log = logging.getLogger(__name__)

MAX_INTERVALS = 10_000  # subinterval budget of one Picard run
_QUADRATIC_BLOCK = 32    # columns per sparse-times-block product
_BETA, _GAMMA = 0.25, 0.5  # Newmark average-acceleration parameters


@dataclass(frozen=True)
class DynamicState:
    """Coefficient vectors of position and velocity at one time."""

    t: float
    u: np.ndarray
    p: np.ndarray
    ut: np.ndarray
    pt: np.ndarray

    @property
    def position(self) -> np.ndarray:
        return np.concatenate([self.u, self.p])

    @property
    def velocity(self) -> np.ndarray:
        return np.concatenate([self.ut, self.pt])

    @classmethod
    def from_vectors(
        cls, layout: BlockLayout, t: float, w: np.ndarray, wt: np.ndarray
    ) -> "DynamicState":
        nu = layout.u_size
        w = np.asarray(w, dtype=float)
        wt = np.asarray(wt, dtype=float)
        if w.size != layout.total or wt.size != layout.total:
            raise ValueError("state vectors do not match the layout")
        return cls(t=float(t), u=w[:nu], p=w[nu:], ut=wt[:nu], pt=wt[nu:])

    @classmethod
    def zero(cls, layout: BlockLayout, t: float = 0.0) -> "DynamicState":
        z = np.zeros(layout.total)
        return cls.from_vectors(layout, t, z, z.copy())


@dataclass(frozen=True)
class Trajectory:
    """States on a uniform time grid with per-node energies and diagnostics."""

    times: np.ndarray
    positions: np.ndarray       # (n_nodes, n_dofs)
    velocities: np.ndarray      # (n_nodes, n_dofs)
    kinetic: np.ndarray
    potential: np.ndarray
    layout: BlockLayout
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        dt = np.diff(self.times)
        if dt.size and (np.any(dt <= 0) or np.ptp(dt) > 1e-10 * dt[0]):
            raise ValueError("trajectory grid must be strictly increasing, uniform")

    @property
    def n_nodes(self) -> int:
        return self.times.size

    def state(self, i: int) -> DynamicState:
        return DynamicState.from_vectors(
            self.layout, self.times[i], self.positions[i], self.velocities[i]
        )

    @property
    def total_energy(self) -> np.ndarray:
        return self.kinetic + self.potential


def energy(
    state: DynamicState, w1: SparseSymOperator, w2: SparseSymOperator
) -> tuple[float, float]:
    """(kinetic, potential) = (W1(wt, wt), W2(w, w)) / 2."""
    return (
        0.5 * w1.quadratic(state.velocity),
        0.5 * w2.quadratic(state.position),
    )


def stationary_solve(
    w1: SparseSymOperator,
    w2: SparseSymOperator,
    w_prev: np.ndarray,
    load_vec: np.ndarray | None,
    tol: float = 1e-12,
    solve: DefiniteSolver | None = None,
) -> np.ndarray:
    """One Lax-Milgram step: solve W1(a, .) = -W2(w_prev, .) + l(.).

    ``w_prev`` and ``load_vec`` are single vectors or (n, k) blocks whose k
    columns are solved together.  ``solve`` is a factor of W1 from
    :func:`definite_solver` kept across calls; without one, W1 is factored
    here and every residual must meet ``tol``.
    """
    rhs = -w2.matvec(w_prev)
    if load_vec is not None:
        rhs = rhs + load_vec
    if solve is None:
        solve = definite_solver(w1, tol)
    return solve(rhs)


def _solver_counters(*solvers: DefiniteSolver) -> dict:
    return {
        "factor_nnz": max(s.factor_nnz for s in solvers),
        "solves": sum(s.solves for s in solvers),
        "max_solve_residual": max(s.max_residual for s in solvers),
    }


def _quadratic_rows(op: SparseSymOperator | None, rows: np.ndarray) -> np.ndarray:
    """w^T A w for every row w of ``rows`` (w^T w when ``op`` is None).

    A is applied to blocks of ``_QUADRATIC_BLOCK`` rows at once, never to all
    rows, so the product stays small.
    """
    if op is None:
        return np.einsum("ij,ij->i", rows, rows)
    out = np.empty(rows.shape[0])
    for start in range(0, rows.shape[0], _QUADRATIC_BLOCK):
        block = rows[start:start + _QUADRATIC_BLOCK]
        out[start:start + block.shape[0]] = np.einsum(
            "ij,ji->i", block, op.matrix @ block.T
        )
    return out


def _gram_norms(gram: SparseSymOperator | None, rows: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(_quadratic_rows(gram, rows), 0.0))


def _energies(
    w1: SparseSymOperator, w2: SparseSymOperator, positions, velocities
) -> tuple[np.ndarray, np.ndarray]:
    """Kinetic and potential energy at every node."""
    return 0.5 * _quadratic_rows(w1, velocities), 0.5 * _quadratic_rows(w2, positions)


def _double_trapezoid(
    times: np.ndarray, acc: np.ndarray, w0: np.ndarray, wt0: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Nested cumulative trapezoid: velocity then position from accelerations."""
    h = times[1] - times[0]
    vel = np.empty_like(acc)
    vel[0] = wt0
    np.cumsum(0.5 * h * (acc[:-1] + acc[1:]), axis=0, out=vel[1:])
    vel[1:] += wt0
    pos = np.empty_like(acc)
    pos[0] = w0
    np.cumsum(0.5 * h * (vel[:-1] + vel[1:]), axis=0, out=pos[1:])
    pos[1:] += w0
    return pos, vel


def _load_at(load, times: np.ndarray) -> list[np.ndarray | None]:
    if load is None:
        return [None] * times.size
    return [np.asarray(load(float(t)), dtype=float) for t in times]


def _fixed_point(
    state0: DynamicState,
    w1: SparseSymOperator,
    w2: SparseSymOperator,
    load,
    delta: float,
    n_t: int,
    fixed_tol: float,
    max_iterations: int,
    gram: SparseSymOperator | None,
    solve: DefiniteSolver,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """Fixed-point sweeps on [t0, t0 + delta] with ``solve``, a factor of W1.

    Returns the node times, positions, velocities and the subinterval's
    diagnostics; energies are left to the callers that return them.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if n_t < 3:
        raise ValueError("need at least three time nodes")
    times = state0.t + np.linspace(0.0, delta, n_t)
    loads = None if load is None else np.column_stack(_load_at(load, times))
    w0 = state0.position
    wt0 = state0.velocity

    seed_scale = 1.0 + _gram_norms(gram, w0[None, :])[0]
    positions = np.tile(w0, (n_t, 1))
    velocities = np.tile(wt0, (n_t, 1))
    ratios: list[float] = []
    prev_diff = None
    iterations = 0

    for sweep in range(max_iterations):
        iterations = sweep + 1
        acc = stationary_solve(w1, w2, positions.T, loads, solve=solve).T
        new_pos, new_vel = _double_trapezoid(times, acc, w0, wt0)
        diff = float(_gram_norms(gram, new_pos - positions).max())
        if prev_diff is not None and prev_diff > 0:
            ratios.append(diff / prev_diff)
        positions, velocities = new_pos, new_vel
        if diff <= fixed_tol * seed_scale:
            break
        prev_diff = diff
    else:
        raise NonConvergenceError(
            f"fixed point not reached in {max_iterations} sweeps "
            f"(delta={delta!r} likely exceeds the contraction radius)",
            residual=prev_diff,
            history=ratios,
        )

    diagnostics = {
        "picard_iterations": [iterations],
        "contraction_ratios": [ratios],
        "residuals": [diff],      # final successive-difference Gram norm
        "delta": delta,
    }
    return times, positions, velocities, diagnostics


def picard_interval(
    state0: DynamicState,
    w1: SparseSymOperator,
    w2: SparseSymOperator,
    load,
    delta: float,
    n_t: int = 17,
    fixed_tol: float = 1e-10,
    max_iterations: int = 60,
    gram: SparseSymOperator | None = None,
    solve_tol: float = 1e-13,
) -> tuple[Trajectory, list[float]]:
    """Fixed-point iteration on one subinterval [t0, t0 + delta].

    Returns the converged trajectory on n_t uniform nodes and the measured
    per-sweep contraction ratios (successive-difference quotients in the
    max-over-nodes Gram norm).  Non-convergence raises
    :class:`NonConvergenceError` carrying the ratio history, which signals
    that delta exceeds the contraction radius.  W1 is factored here; each
    sweep solves all n_t stationary problems as one block, every residual
    within ``solve_tol``.
    """
    solve = definite_solver(w1, solve_tol)
    times, positions, velocities, diagnostics = _fixed_point(
        state0, w1, w2, load, delta, n_t, fixed_tol, max_iterations, gram, solve
    )
    kinetic, potential = _energies(w1, w2, positions, velocities)
    traj = Trajectory(
        times=times,
        positions=positions,
        velocities=velocities,
        kinetic=kinetic,
        potential=potential,
        layout=w1.layout,
        diagnostics={**diagnostics, **_solver_counters(solve)},
    )
    return traj, list(diagnostics["contraction_ratios"][0])


def picard_integrate(
    state0: DynamicState,
    w1: SparseSymOperator,
    w2: SparseSymOperator,
    load,
    t_final: float,
    c_est: float,
    n_t: int = 17,
    fixed_tol: float = 1e-10,
    max_iterations: int = 60,
    gram: SparseSymOperator | None = None,
    solve_tol: float = 1e-13,
) -> Trajectory:
    """Glue fixed-point subintervals of length 1/(2 sqrt(c_est)) over [0, T].

    The subinterval count is rounded up so the global grid stays uniform;
    each subinterval is seeded with the terminal state of the previous one,
    so glued states match bitwise at the seams.  c_est = 0 flags a constant
    map (unbounded contraction radius): a single subinterval is used.  A run
    that needs more than ``MAX_INTERVALS`` subintervals raises
    :class:`SolverError`; delta is never stretched past 1/(2 sqrt(c_est)).
    W1 is factored once for all subintervals.  ``diagnostics["node_interval"]``
    gives the subinterval of each node (node 0 belongs to the first).
    """
    if t_final <= 0:
        raise ValueError("t_final must be positive")
    if c_est < 0:
        raise ValueError("c_est must be nonnegative")
    if c_est == 0.0:
        delta = t_final
        log.info("constant-map flag: zero contraction constant, one interval")
    else:
        delta = 1.0 / (2.0 * math.sqrt(c_est))
        if delta > t_final:
            log.info("contraction interval %.3g capped at t_final", delta)
            delta = t_final
    n_int = max(1, math.ceil(t_final / delta - 1e-12))
    if n_int > MAX_INTERVALS:
        raise SolverError(
            f"contraction interval {delta!r} needs {n_int} subintervals over "
            f"t_final={t_final!r}, more than MAX_INTERVALS={MAX_INTERVALS}"
        )
    delta_eff = t_final / n_int

    solve = definite_solver(w1, solve_tol)
    positions = np.empty((n_int * (n_t - 1) + 1, w1.dimension))
    velocities = np.empty_like(positions)
    positions[0], velocities[0] = state0.position, state0.velocity
    iterations: list[int] = []
    all_ratios: list[list[float]] = []
    residuals: list[float] = []
    node_interval = [0]
    current = state0
    for interval in range(n_int):
        times, pos, vel, diagnostics = _fixed_point(
            current, w1, w2, load, delta_eff, n_t, fixed_tol, max_iterations,
            gram, solve,
        )
        nodes = slice(1 + interval * (n_t - 1), 1 + (interval + 1) * (n_t - 1))
        positions[nodes], velocities[nodes] = pos[1:], vel[1:]
        iterations.extend(diagnostics["picard_iterations"])
        all_ratios.extend(diagnostics["contraction_ratios"])
        residuals.extend(diagnostics["residuals"])
        node_interval.extend([interval] * (n_t - 1))
        current = DynamicState.from_vectors(w1.layout, times[-1], pos[-1], vel[-1])

    # exactly uniform node times (concatenated linspaces drift in ulps)
    times = state0.t + np.linspace(0.0, t_final, n_int * (n_t - 1) + 1)
    kinetic, potential = _energies(w1, w2, positions, velocities)
    return Trajectory(
        times=times,
        positions=positions,
        velocities=velocities,
        kinetic=kinetic,
        potential=potential,
        layout=w1.layout,
        diagnostics={
            "picard_iterations": iterations,
            "contraction_ratios": all_ratios,
            "residuals": residuals,
            "delta": delta_eff,
            "intervals": n_int,
            "c_est": c_est,
            "node_interval": node_interval,
            **_solver_counters(solve),
        },
    )


def newmark_integrate(
    state0: DynamicState,
    w1: SparseSymOperator,
    w2: SparseSymOperator,
    load,
    dt: float,
    n_steps: int,
    solve_tol: float = 1e-13,
) -> Trajectory:
    """Newmark stepping of W1(w_tt, .) + W2(w, .) = l(.).

    Average acceleration: beta = 1/4, gamma = 1/2.  W1 is factored for the
    initial acceleration and released; then the effective operator
    W1 + beta dt^2 W2 is factored once and every step is one solve with it,
    every residual within ``solve_tol``.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if n_steps < 1:
        raise ValueError("need at least one step")
    eff = combine_operators(1.0, w1, _BETA * dt * dt, w2)
    times = state0.t + dt * np.arange(n_steps + 1)
    loads = _load_at(load, times)

    n = w1.dimension
    positions = np.empty((n_steps + 1, n))
    velocities = np.empty((n_steps + 1, n))
    positions[0] = state0.position
    velocities[0] = state0.velocity

    initial = definite_solver(w1, solve_tol)
    a = stationary_solve(w1, w2, positions[0], loads[0], solve=initial)
    initial.close()  # one factor alive at a time
    step = definite_solver(eff, solve_tol)
    for k in range(n_steps):
        u_pred = positions[k] + dt * velocities[k] + dt * dt * (0.5 - _BETA) * a
        v_pred = velocities[k] + dt * (1.0 - _GAMMA) * a
        rhs = -w2.matvec(u_pred)
        if loads[k + 1] is not None:
            rhs = rhs + loads[k + 1]
        a = step(rhs)
        positions[k + 1] = u_pred + _BETA * dt * dt * a
        velocities[k + 1] = v_pred + _GAMMA * dt * a

    kinetic, potential = _energies(w1, w2, positions, velocities)
    return Trajectory(
        times=times,
        positions=positions,
        velocities=velocities,
        kinetic=kinetic,
        potential=potential,
        layout=w1.layout,
        diagnostics={
            "integrator": "newmark", "beta": _BETA, "gamma": _GAMMA,
            **_solver_counters(initial, step),
        },
    )
