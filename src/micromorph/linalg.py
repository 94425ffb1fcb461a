"""Sparse symmetric solves and eigenvalue estimation.

Every factorization is SuperLU with diagonal pivots in a symmetric
ordering, P M P^T = L D L^T, so the signs of D count the negative
eigenvalues of M (Sylvester's law of inertia).  One factor is alive at a
time.

* :func:`definite_solver` - certify A > 0 by that count, factor once and
  solve vectors or (n, k) blocks; every column checks its own residual.
  Both integrators and the stationary solve run on it.
* :func:`extreme_generalized_eigenvalues` - one end of the spectrum of a
  symmetric pencil (A, B), B positive definite.  Small pencils use
  dense ``eigh``.  For larger ones the count certifies B > 0 before ARPACK
  runs: regular mode with the factor of B for the top end, and for the
  bottom end shift-invert at 0 when the count also certifies A > 0,
  regular mode otherwise.  Every returned eigenpair must pass a residual
  check, and a count of A - sigma B just below the bottom end proves that
  no eigenvalue lies under it.
* :func:`hermitian_dense_eig` - all eigenvalues of a dense Hermitian pencil
  or of a stack of them in one batched call: Cholesky reduction of the
  metric, then ``numpy.linalg.eigh``; every pair is residual-checked.

Every caller runs the paper's certification chain with the same settings,
so they are constants here: solves meet a relative residual of
``_SOLVE_TOL``, eigenpairs one of ``_EIG_TOL``, and ARPACK starts from the
vector seeded by ``_ARPACK_SEED``, so results repeat.

scipy is imported inside the functions that call it (here and in
``assembly``): importing it costs more than a ``dispersion`` run, which
needs numpy only.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DefinitenessError, NonConvergenceError

__all__ = [
    "DefiniteSolver",
    "definite_solver",
    "extreme_generalized_eigenvalues",
    "hermitian_dense_eig",
]


DENSE_CUTOFF = 64  # pencils with at most this many rows use dense eigh
_DENSE_RESIDUAL = 1e-10  # backward error accepted from hermitian_dense_eig
_HERMITIAN_TOL = 1e-10  # relative asymmetry accepted in its H and G
_SOLVE_TOL = 1e-13  # relative residual every factored solve must meet
_EIG_TOL = 1e-8  # relative residual every extreme eigenpair must meet
_ARPACK_SEED = 7  # seed of ARPACK's start vector
_ROUNDOFF = 1e-12  # backward error accepted where lambda ~ 0 leaves no scale
_ARPACK_WHICH = {"largest": "LA", "magnitude": "LM"}
_MINIMUM_GAP = 1e-6  # relative shift under m1 at which its inertia count runs


def _as_matrix(a):
    matrix = getattr(a, "matrix", None)
    return matrix if matrix is not None else a


def _symmetric_lu(mat):
    """SuperLU factor of symmetric ``mat`` and its count of negative
    eigenvalues.  SuperLU factors with diagonal pivots in a symmetric
    ordering, P M P^T = L D L^T, and D has as many negative entries as M
    has negative eigenvalues.  Both are None when M is exactly singular or
    a zero pivot forced an off-diagonal one (``perm_r != perm_c``)."""
    import scipy.sparse
    import scipy.sparse.linalg as spla

    try:
        lu = spla.splu(
            scipy.sparse.csc_matrix(mat), permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0, options=dict(SymmetricMode=True, Equil=False),
        )
    except RuntimeError:
        return None, None
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None, None
    return lu, int(np.count_nonzero(lu.U.diagonal() < 0))


def _definite_lu(mat, name: str):
    """SuperLU factor of ``mat`` once its inertia certifies ``mat`` > 0; a
    positive definite matrix never meets a zero pivot, so that fails too."""
    lu, negatives = _symmetric_lu(mat)
    if negatives != 0:
        found = "a zero pivot" if negatives is None else f"{negatives} negative pivots"
        raise DefinitenessError(f"{name} is not positive definite: its LU met {found}")
    return lu


def _inverse(lu):
    import scipy.sparse.linalg as spla

    return spla.LinearOperator(lu.shape, matvec=lu.solve, dtype=float)


class DefiniteSolver:
    """Solves A x = b with one certified SuperLU factor of A > 0.

    Call it on a vector or on an (n, k) block; the block goes to SuperLU in
    one call.  Every column must meet ||A x - b|| <= ``_SOLVE_TOL`` ||b||.
    A column that misses gets one step of iterative refinement, and one that
    still misses raises :class:`NonConvergenceError`.  ``factor_nnz`` is the fill
    of L + U, ``solves`` counts the right-hand sides solved and
    ``max_residual`` is the worst relative residual returned; they outlive
    :meth:`close`, which releases the factor.
    """

    def __init__(self, mat, lu):
        self._mat = mat
        self._lu = lu
        self.factor_nnz = int(lu.L.nnz + lu.U.nnz)
        self.solves = 0
        self.max_residual = 0.0

    def _relative_residuals(self, x: np.ndarray, b: np.ndarray):
        r = b - self._mat @ x
        norm_b = np.maximum(np.linalg.norm(b, axis=0), np.finfo(float).tiny)
        return r, np.linalg.norm(r, axis=0) / norm_b

    def __call__(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        block = b.reshape(b.shape[0], -1)
        x = self._lu.solve(block)
        r, rel = self._relative_residuals(x, block)
        missed = ~(rel <= _SOLVE_TOL)  # NaN misses too
        if missed.any():
            x[:, missed] += self._lu.solve(r[:, missed])
            _, rel[missed] = self._relative_residuals(x[:, missed], block[:, missed])
            if not np.all(rel <= _SOLVE_TOL):
                worst = float(rel.max())
                raise NonConvergenceError(
                    f"factored solve misses tol={_SOLVE_TOL!r} after one step of "
                    f"iterative refinement (relative residual {worst:.3g})",
                    residual=worst,
                )
        self.solves += block.shape[1]
        self.max_residual = max(self.max_residual, float(rel.max()))
        return x.reshape(b.shape)

    def close(self) -> None:
        self._lu = None


def definite_solver(a) -> DefiniteSolver:
    """Factor symmetric A once and return its :class:`DefiniteSolver`.

    The inertia of the LU certifies A > 0; a negative or zero pivot raises
    :class:`DefinitenessError`.
    """
    import scipy.sparse

    mat = scipy.sparse.csr_matrix(_as_matrix(a))
    return DefiniteSolver(mat, _definite_lu(mat, "the operator"))


def _certify_minimum(a_mat, b_mat, lam: float) -> None:
    """No eigenvalue of (A, B) lies below ``lam``: A - sigma B has no negative
    pivot for sigma just under it (Sylvester).  A Krylov run can converge to
    lambda_2 first, a true eigenpair that no residual check rejects."""
    sigma = lam - _MINIMUM_GAP * max(abs(lam), 1.0)
    _, below = _symmetric_lu(a_mat - sigma * b_mat)
    if below:  # None: an off-diagonal pivot leaves the count unavailable
        raise NonConvergenceError(
            f"{below} eigenvalue(s) lie below the returned smallest {lam!r}"
        )


def _sparse_pair(a_mat, b_mat, which: str) -> tuple[float, np.ndarray]:
    import scipy.sparse.linalg as spla

    v0 = np.random.default_rng(_ARPACK_SEED).standard_normal(a_mat.shape[0])

    def arpack(**kwargs):
        try:
            w, v = spla.eigsh(a_mat, k=1, M=b_mat, v0=v0, **kwargs)
        except spla.ArpackError as exc:
            raise NonConvergenceError(f"ARPACK ({kwargs['which']}) failed: {exc}")
        return float(w[0]), v[:, 0]

    b_inv = _inverse(_definite_lu(b_mat, "B"))
    if a_mat.count_nonzero() == 0:  # every vector is an eigenvector of 0
        return 0.0, v0
    if which != "smallest":
        return arpack(which=_ARPACK_WHICH[which], Minv=b_inv)
    b_inv = None  # one factorization alive at a time
    a_lu, negatives = _symmetric_lu(a_mat)
    if negatives == 0:  # A > 0: the eigenvalue nearest 0 is the smallest
        pair = arpack(sigma=0.0, which="LM", OPinv=_inverse(a_lu))
        a_lu = None  # release A's factor before the inertia count
    else:
        a_lu = None  # release A's factor before B is factored again
        pair = arpack(which="SA", Minv=_inverse(_definite_lu(b_mat, "B")))
    _certify_minimum(a_mat, b_mat, pair[0])
    return pair


def _check_pair(a_mat, b_mat, lam: float, x: np.ndarray) -> None:
    import scipy.sparse.linalg as spla

    ax, bx = a_mat @ x, b_mat @ x
    res = float(np.linalg.norm(ax - lam * bx))
    scale = max(float(np.linalg.norm(ax)), abs(lam) * float(np.linalg.norm(bx)))
    roundoff = _ROUNDOFF * (spla.norm(a_mat, 1) + abs(lam) * spla.norm(b_mat, 1))
    if res > max(_EIG_TOL * scale, roundoff * float(np.linalg.norm(x))):
        rel = res / scale if scale else math.inf
        raise NonConvergenceError(
            f"eigenpair lambda={lam!r} fails its residual check "
            f"({rel:.3g} > {_EIG_TOL!r})",
            residual=rel,
        )


def extreme_generalized_eigenvalues(a, b, which: str) -> float:
    """One extreme eigenvalue of A x = lambda B x, A symmetric, B positive
    definite: ``which`` is ``"smallest"``, ``"largest"`` or ``"magnitude"``
    (largest |lambda|, signed).

    Raises :class:`DefinitenessError` when B is not positive definite and
    :class:`NonConvergenceError` when the pair has ||Ax - lambda Bx|| >
    ``_EIG_TOL`` max(||Ax||, |lambda| ||Bx||) above round-off.
    """
    import scipy.linalg
    import scipy.sparse

    if which not in ("smallest", *_ARPACK_WHICH):
        raise ValueError(f"unknown which={which!r}")
    a_mat = scipy.sparse.csr_matrix(_as_matrix(a))
    b_mat = scipy.sparse.csr_matrix(_as_matrix(b))
    n = a_mat.shape[0]
    if n == 0:
        raise ValueError("empty operator")
    if n > DENSE_CUTOFF:
        lam, x = _sparse_pair(a_mat, b_mat, which)
    else:
        try:
            w, v = scipy.linalg.eigh(a_mat.toarray(), b_mat.toarray())
        except scipy.linalg.LinAlgError as exc:
            raise DefinitenessError(f"B is not positive definite: {exc}")
        at = {"smallest": 0, "largest": -1, "magnitude": int(np.argmax(np.abs(w)))}
        lam, x = float(w[at[which]]), v[:, at[which]]
    _check_pair(a_mat, b_mat, lam, x)
    return lam


def _adjoint(x: np.ndarray) -> np.ndarray:
    return x.conj().swapaxes(-1, -2)


def hermitian_dense_eig(h, g) -> np.ndarray:
    """All eigenvalues (ascending) of H z = lambda G z for dense Hermitian
    H and Hermitian positive definite G, or of each pencil of (..., n, n)
    stacks in one batched call.

    The Cholesky factor G = L L^H reduces each pencil to the standard
    problem of L^-1 H L^-H.  Raises :class:`DefinitenessError` when G has no
    Cholesky factor and :class:`NonConvergenceError` when a pair misses
    ||H z - lambda G z|| <= 1e-10 (||H||_1 + |lambda| ||G||_1) ||z||.
    """
    h = np.asarray(h, dtype=complex)
    n = h.shape[-1]
    if h.ndim < 2 or h.shape[-2] != n:
        raise ValueError("H must be square")
    g = np.broadcast_to(np.asarray(g, dtype=complex), h.shape)
    for name, x in (("H", h), ("G", g)):
        scale = np.maximum(np.abs(x).max(axis=(-2, -1)), 1e-300)
        if np.any(np.abs(x - _adjoint(x)).max(axis=(-2, -1)) > _HERMITIAN_TOL * scale):
            raise ValueError(f"{name} is not Hermitian within tolerance")
    try:
        chol = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise DefinitenessError(f"pencil metric is not positive definite: {exc}")
    lam, y = np.linalg.eigh(np.linalg.solve(chol, _adjoint(np.linalg.solve(chol, h))))
    z = np.linalg.solve(_adjoint(chol), y)
    residual = np.linalg.norm(h @ z - lam[..., None, :] * (g @ z), axis=-2)
    h_norm, g_norm = (np.linalg.norm(x, 1, axis=(-2, -1))[..., None] for x in (h, g))
    scale = (h_norm + np.abs(lam) * g_norm) * np.linalg.norm(z, axis=-2)
    if not np.all(residual <= _DENSE_RESIDUAL * scale):  # NaN misses too
        worst = float(np.max(residual / np.maximum(scale, np.finfo(float).tiny)))
        raise NonConvergenceError(
            f"dense eigenpair fails its residual check (backward error {worst:.3g})",
            residual=worst,
        )
    return lam
