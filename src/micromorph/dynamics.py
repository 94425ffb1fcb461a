"""Time integration of the second-order weak problem W1(w_tt, .) + W2(w, .) = l(.).

Two integrators over the same operator pair:

* :func:`picard_integrate` - the constructive fixed-point scheme.  On one
  subinterval the map sends a candidate trajectory to the solution of a
  stationary problem at each time node followed by a double time
  integration (composite trapezoid) from the initial data; the subinterval
  length delta = 1/(2 sqrt(c)) makes the map a contraction with measured
  per-sweep ratios bounded by delta^2 * c.  The subintervals are slices of
  one uniform node grid over [0, T] and are glued by starting each from the
  terminal state of the previous one; a single subinterval is the run with
  t_final <= delta (or c = 0).  W1 is factored once per run and each sweep
  solves the stationary problems of all its nodes as one block of
  right-hand sides.
* :func:`newmark_integrate` - average-acceleration stepping (beta = 1/4,
  gamma = 1/2), unconditionally stable and energy conserving on the same
  linear system; used for cross-validation.  The effective operator
  W1 + beta dt^2 W2 is factored once and every step is one solve.

Loads are callables t -> dual vector (or None).  The operators solved with
must be positive definite: :func:`linalg.definite_solver` certifies that by
the inertia of their LU factor, else :class:`DefinitenessError`, and checks
the residual of every solve.  Each trajectory's diagnostics carry the solver
counters ``factor_nnz``, ``solves`` and ``max_solve_residual``.
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
    "picard_integrate",
    "newmark_integrate",
]

log = logging.getLogger(__name__)

MAX_INTERVALS = 10_000  # subinterval budget of one Picard run
_MAX_SWEEPS = 60         # fixed-point sweep budget of one subinterval
_QUADRATIC_BLOCK = 32    # columns per sparse-times-block product
_BETA, _GAMMA = 0.25, 0.5  # Newmark average-acceleration parameters


@dataclass(frozen=True)
class DynamicState:
    """Coefficient vectors of position and velocity at one time."""

    t: float
    position: np.ndarray
    velocity: np.ndarray

    @classmethod
    def from_vectors(
        cls, layout: BlockLayout, t: float, w: np.ndarray, wt: np.ndarray
    ) -> "DynamicState":
        w = np.asarray(w, dtype=float)
        wt = np.asarray(wt, dtype=float)
        if w.shape != (layout.total,) or wt.shape != (layout.total,):
            raise ValueError("state vectors do not match the layout")
        return cls(float(t), w, wt)

    @classmethod
    def zero(cls, layout: BlockLayout) -> "DynamicState":
        return cls(0.0, np.zeros(layout.total), np.zeros(layout.total))


@dataclass(frozen=True)
class Trajectory:
    """States on a uniform time grid with per-node energies and diagnostics."""

    times: np.ndarray
    positions: np.ndarray       # (n_nodes, n_dofs)
    velocities: np.ndarray      # (n_nodes, n_dofs)
    kinetic: np.ndarray
    potential: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        # t0 + k dt rounds at the ulp of the largest time, not of dt
        dt = np.diff(self.times)
        if dt.size and (
            np.any(dt <= 0)
            or np.ptp(dt) > 1e-10 * dt[0] + 4 * np.spacing(np.abs(self.times).max())
        ):
            raise ValueError("trajectory grid must be strictly increasing, uniform")

    @property
    def n_nodes(self) -> int:
        return self.times.size

    @property
    def total_energy(self) -> np.ndarray:
        return self.kinetic + self.potential


def stationary_solve(
    solve: DefiniteSolver,
    w2: SparseSymOperator,
    w_prev: np.ndarray,
    load_vec: np.ndarray | None,
) -> np.ndarray:
    """One Lax-Milgram step: solve W1(a, .) = -W2(w_prev, .) + l(.).

    ``solve`` is a factor of W1 from :func:`definite_solver` kept across
    calls.  ``w_prev`` and ``load_vec`` are single vectors or (n, k) blocks
    whose k columns are solved together.
    """
    rhs = -w2.matvec(w_prev)
    if load_vec is not None:
        rhs = rhs + load_vec
    return solve(rhs)


def _solver_counters(*solvers: DefiniteSolver) -> dict:
    return {
        "factor_nnz": max(s.factor_nnz for s in solvers),
        "solves": sum(s.solves for s in solvers),
        "max_solve_residual": max(s.max_residual for s in solvers),
    }


def _quadratic_rows(op: SparseSymOperator, rows: np.ndarray) -> np.ndarray:
    """w^T A w for every row w of ``rows``.

    A is applied to blocks of ``_QUADRATIC_BLOCK`` rows at once, never to all
    rows, so the product stays small.
    """
    out = np.empty(rows.shape[0])
    for start in range(0, rows.shape[0], _QUADRATIC_BLOCK):
        block = rows[start:start + _QUADRATIC_BLOCK]
        out[start:start + block.shape[0]] = np.einsum(
            "ij,ji->i", block, op.matrix @ block.T
        )
    return out


def _gram_norms(gram: SparseSymOperator, rows: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(_quadratic_rows(gram, rows), 0.0))


def _energies(
    w1: SparseSymOperator, w2: SparseSymOperator, positions, velocities
) -> tuple[np.ndarray, np.ndarray]:
    """Kinetic and potential energy at every node."""
    return 0.5 * _quadratic_rows(w1, velocities), 0.5 * _quadratic_rows(w2, positions)


def _double_trapezoid(
    h: float, acc: np.ndarray, w0: np.ndarray, wt0: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Nested cumulative trapezoid with step h: velocity then position from
    accelerations."""
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
    times: np.ndarray,
    h: float,
    w0: np.ndarray,
    wt0: np.ndarray,
    w2: SparseSymOperator,
    load,
    fixed_tol: float,
    gram: SparseSymOperator,
    solve: DefiniteSolver,
) -> tuple[np.ndarray, np.ndarray, int, list[float], float]:
    """Fixed-point sweeps on the subinterval grid ``times`` of step h from
    (w0, wt0).

    ``solve`` is a factor of W1.  h is passed, not read off ``times``: a
    difference of two nodes rounds at the ulp of the nodes, not of h.
    Returns the positions and velocities at the nodes, the sweep count, the
    measured contraction ratios and the final successive-difference Gram
    norm.
    """
    loads = None if load is None else np.column_stack(_load_at(load, times))
    seed_scale = 1.0 + _gram_norms(gram, w0[None, :])[0]
    positions = np.tile(w0, (times.size, 1))
    velocities = np.tile(wt0, (times.size, 1))
    ratios: list[float] = []
    prev_diff = None

    for sweep in range(_MAX_SWEEPS):
        acc = stationary_solve(solve, w2, positions.T, loads).T
        new_pos, new_vel = _double_trapezoid(h, acc, w0, wt0)
        diff = float(_gram_norms(gram, new_pos - positions).max())
        if prev_diff is not None and prev_diff > 0:
            ratios.append(diff / prev_diff)
        positions, velocities = new_pos, new_vel
        if diff <= fixed_tol * seed_scale:
            return positions, velocities, sweep + 1, ratios, diff
        prev_diff = diff
    raise NonConvergenceError(
        f"fixed point not reached in {_MAX_SWEEPS} sweeps on "
        f"[{float(times[0])!r}, {float(times[-1])!r}] (the subinterval is likely "
        "longer than the contraction radius)",
        residual=prev_diff,
        history=ratios,
    )


def _check_time_nodes(n_t: int) -> None:
    if n_t < 3:
        raise ValueError("need at least three time nodes")


def _check_fixed_tol(fixed_tol: float) -> None:
    if not 0 < fixed_tol < math.inf:
        raise ValueError("fixed_tol must be positive and finite")


def picard_integrate(
    state0: DynamicState,
    w1: SparseSymOperator,
    w2: SparseSymOperator,
    load,
    t_final: float,
    c_est: float,
    n_t: int = 17,
    fixed_tol: float = 1e-10,
    *,
    gram: SparseSymOperator,
) -> Trajectory:
    """Glue fixed-point subintervals of length 1/(2 sqrt(c_est)) over [0, T].

    The subinterval count is rounded up, and all subintervals share one
    uniform grid of n_t - 1 steps each, built once, whose last node is
    exactly t0 + T; loads are evaluated on it.  Each subinterval starts from
    the terminal state of the previous one, so glued states match bitwise at
    the seams.  c_est = 0 flags a constant map (unbounded contraction
    radius): a single subinterval is used.  A run that needs more than
    ``MAX_INTERVALS`` subintervals raises :class:`SolverError`; delta is never
    stretched past 1/(2 sqrt(c_est)).  A subinterval not converged within
    ``_MAX_SWEEPS`` sweeps raises :class:`NonConvergenceError` carrying its
    ratio history.  Sweeps are measured in the product norm of ``gram``.

    W1 is factored once for all subintervals.  ``diagnostics`` carries per
    subinterval the sweep count (``picard_iterations``), the measured
    per-sweep contraction ratios (successive-difference quotients in the
    max-over-nodes Gram norm, ``contraction_ratios``) and the final residual;
    ``node_interval`` gives the subinterval of each node (node 0 belongs to
    the first).
    """
    if t_final <= 0:
        raise ValueError("t_final must be positive")
    if c_est < 0:
        raise ValueError("c_est must be nonnegative")
    _check_time_nodes(n_t)
    _check_fixed_tol(fixed_tol)
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

    solve = definite_solver(w1)
    h = t_final / (n_int * (n_t - 1))
    times = state0.t + np.linspace(0.0, t_final, n_int * (n_t - 1) + 1)
    positions = np.empty((times.size, w1.dimension))
    velocities = np.empty_like(positions)
    positions[0], velocities[0] = state0.position, state0.velocity
    iterations: list[int] = []
    all_ratios: list[list[float]] = []
    residuals: list[float] = []
    for interval in range(n_int):
        first = interval * (n_t - 1)
        nodes = slice(first, first + n_t)
        pos, vel, sweeps, ratios, residual = _fixed_point(
            times[nodes], h, positions[first], velocities[first], w2, load,
            fixed_tol, gram, solve,
        )
        positions[nodes], velocities[nodes] = pos, vel
        iterations.append(sweeps)
        all_ratios.append(ratios)
        residuals.append(residual)

    kinetic, potential = _energies(w1, w2, positions, velocities)
    return Trajectory(
        times=times,
        positions=positions,
        velocities=velocities,
        kinetic=kinetic,
        potential=potential,
        diagnostics={
            "picard_iterations": iterations,
            "contraction_ratios": all_ratios,
            "residuals": residuals,
            "delta": t_final / n_int,
            "intervals": n_int,
            "c_est": c_est,
            "node_interval": [0] + [k for k in range(n_int) for _ in range(n_t - 1)],
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
) -> Trajectory:
    """Newmark stepping of W1(w_tt, .) + W2(w, .) = l(.).

    Average acceleration: beta = 1/4, gamma = 1/2.  W1 is factored for the
    initial acceleration and released; then the effective operator
    W1 + beta dt^2 W2 is factored once and every step is one solve with it.
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

    initial = definite_solver(w1)
    a = stationary_solve(initial, w2, positions[0], loads[0])
    initial.close()  # one factor alive at a time
    step = definite_solver(eff)
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
        diagnostics={
            "integrator": "newmark", "beta": _BETA, "gamma": _GAMMA,
            **_solver_counters(initial, step),
        },
    )
