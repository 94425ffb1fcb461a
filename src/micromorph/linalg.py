"""Sparse symmetric solves and eigenvalue estimation.

Every factorization is SuperLU with diagonal pivots in a symmetric
ordering, P M P^T = L D L^T, so the signs of D count the negative
eigenvalues of M (Sylvester's law of inertia).  Every factor is a
:class:`DefiniteSolver`, whose constructor certifies M > 0 by that count
or releases the factor and raises; one factor is alive at a time.

* :class:`DefiniteSolver` - the certified factor of a sparse or dense
  matrix: it solves vectors or (n, k) blocks, every column checking its
  own residual, and both integrators and the stationary solve run on it.
  Its :meth:`~DefiniteSolver.inverse` hands ARPACK the bare solve
  instead: the eigenpair ARPACK returns meets its own residual check and
  inertia count, so checking every inner solve would cost time and
  certify nothing more.
* :func:`extreme_generalized_eigenvalues` - one end of the spectrum of a
  symmetric pencil (A, B) of sparse or dense matrices, B positive
  definite, and the one door into ARPACK: it decides each end in the
  order its certificate needs.  Pencils of at most ``DENSE_CUTOFF`` rows
  go to :func:`hermitian_dense_eig`, the one dense solver.  For larger
  ones the count of B's factor certifies B > 0 first (A = 0 then returns
  0).  ARPACK runs once, in regular mode with that factor (``which`` as
  ``_ARPACK_WHICH`` spells it for each end), except at the bottom end,
  where B's factor dies and the caller's floor ``below`` (0 by default)
  picks the shift.  A - below B is factored, and when its count certifies
  it positive definite, no eigenvalue lies under ``below`` and ARPACK runs
  shift-invert there.  It maps lambda to 1/(lambda - sigma), so its
  convergence follows (lambda_1 - sigma)/(lambda_2 - sigma): for the bottom
  cluster of (W1, Gram) at res 6 that is 0.998 at sigma = 0 and 0.82 at
  the plane-wave floor 0.58579 that ``analysis`` passes.  A count that
  refuses the floor costs that one factor, and the sequence runs as for a
  floor of 0: shift-invert at 0 when the count of A certifies A > 0,
  regular mode on a new factor of B otherwise.  So a wrong floor costs
  time and never changes the answer.  The bottom end is then held to a
  count of A - sigma B just below the returned eigenvalue,
  which proves that no eigenvalue lies under it, and every ARPACK pair to
  the eigenpair rule below.  The run asks for one pair; when that pair
  misses the rule, the whole sequence runs once more asking for two
  (``_ARPACK_PAIRS``): asked for one, ARPACK can return a double end as
  a mix of its two copies, with a backward error above the rule, and
  asked for two it resolves both.
* :func:`hermitian_dense_eig` - all eigenvalues of a dense Hermitian pencil
  or of a stack of them in one batched call: Cholesky reduction of the
  metric, then ``numpy.linalg.eigh``; every pair meets the eigenpair rule.

Every caller runs the paper's certification chain with the same settings,
so they are constants here.  One rule accepts an eigenpair of either
path, :func:`_accept_pairs`: its normwise backward error
eta = ||A x - lambda B x|| / ((||A||_1 + |lambda| ||B||_1) ||x||) must be
at most ``_ARPACK_RESIDUAL`` for an ARPACK pair and ``_DENSE_RESIDUAL``
for a dense one.  Solves meet a relative residual of ``_SOLVE_TOL``, and
ARPACK starts from the vector seeded by ``_ARPACK_SEED``, so results
repeat.  Every 2-norm these checks take is :func:`_square_safe_norm`'s:
data whose largest entry lies outside (1/``_SQUARE_SAFE``,
``_SQUARE_SAFE``) is divided by that entry first, so no check squares an
entry into overflow (where it would pass without testing anything, or
refuse a correct answer) or into underflow.  By the same range test
(:func:`_out_of_range_max`), :func:`_accept_pairs` first brings A and B
into range by powers of two, lambda with them, so that no 1-norm sum
||A||_1 + |lambda| ||B||_1 overflows into an inf scale either.

SuperLU reads the certified CSR through its CSC view ``mat.T``, the same
``data``/``indices``/``indptr`` arrays and no copy: every matrix factored
here is exactly symmetric and canonical by construction (assembled as
U + U^T, or a block or linear combination of such), so that view is the
matrix itself.  A non-symmetric input would be factored as its transpose,
and the residual check of every :class:`DefiniteSolver` solve, taken on
the CSR itself, refuses that.

SuperLU factors without relaxed supernodes (``relax=1`` in
``_SPLU_OPTIONS``).  Its default amalgamates small subtrees of the
elimination tree into supernodes and stores their explicit zeros as
entries.  On these meshes that padding is 27% of the stored entries of
the Newmark step operator at res 5 (1.00M with it, 0.73M without) and 37%
at res 6, and it costs time in every factor and solve.  The row and
column orderings do not depend on it, so the pivots stay on the diagonal
and the inertia count is the same.

The count reads D through ``lu.U``, and scipy builds that attribute as CSC
copies of both L and U, cached on the factor for the rest of its life: as
much memory again as SuperLU's own supernodal storage.  Once the count is
read, :func:`_symmetric_lu` empties both copies in place, so a live factor
holds its supernodes and permutations only: the res-8 W1 factor adds 96 MB
of RSS instead of 210 MB (2-core Xeon, scipy 1.17.1).  Solves stay on
SuperLU's own triangular solves, which run on the supernodes: solving from
the CSC copies instead would keep the copies alive and take longer per
solve.

scipy is imported inside the functions that call it (here and in
``assembly``): importing it costs more than a ``dispersion`` run, which
needs numpy only.
"""

from __future__ import annotations

import numpy as np

from .errors import DefinitenessError, NonConvergenceError

__all__ = [
    "DefiniteSolver",
    "extreme_generalized_eigenvalues",
    "hermitian_dense_eig",
]


DENSE_CUTOFF = 64  # pencils with at most this many rows use hermitian_dense_eig
_DENSE_RESIDUAL = 1e-10  # backward error every hermitian_dense_eig pair must meet
_ARPACK_RESIDUAL = 1e-12  # backward error every ARPACK pair must meet
_HERMITIAN_TOL = 1e-10  # relative asymmetry accepted in its H and G
_SOLVE_TOL = 1e-13  # relative residual every factored solve must meet
_SQUARE_SAFE = 1e150  # largest entry in (1/this, this): a normal, finite squared norm
_ARPACK_SEED = 7  # seed of ARPACK's start vector
_ARPACK_PAIRS = (1, 2)  # pairs asked of each run; the second runs when the first misses
_ARPACK_WHICH = {"smallest": "SA", "largest": "LA", "magnitude": "LM"}  # regular mode
_MINIMUM_GAP = 1e-6  # relative shift under m1 at which its inertia count runs
_SPLU_OPTIONS = dict(  # every factor: diagonal pivots, no relaxed supernodes
    permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, relax=1,
    options=dict(SymmetricMode=True, Equil=False),
)


def _out_of_range_max(x: np.ndarray, axis=None) -> np.ndarray:
    """The largest magnitude s of each slice of ``x`` over ``axis`` (kept as
    length-1 axes) where s lies outside (1/``_SQUARE_SAFE``,
    ``_SQUARE_SAFE``), 1 where it lies inside or is 0: the one range test of
    :func:`_square_safe_norm` and :func:`_into_range`."""
    mag = np.abs(x) if np.iscomplexobj(x) else x
    s = np.maximum(mag.max(axis, keepdims=True), -mag.min(axis, keepdims=True))
    return np.where((1 / _SQUARE_SAFE < s) & (s < _SQUARE_SAFE) | (s == 0), 1.0, s)


def _square_safe_norm(x: np.ndarray, axis=None, norm=np.linalg.norm):
    """``norm(x, axis=axis)``, Euclidean by default, for a homogeneous norm
    that reduces ``axis``, taken where no square over- or underflows.

    A slice whose largest magnitude s lies outside (1/``_SQUARE_SAFE``,
    ``_SQUARE_SAFE``) is divided by s, or by the smallest normal number when
    s is subnormal (a complex division takes 1 / s, which would overflow),
    and its norm multiplied back; when no slice is out of range, ``x`` is
    used as it is, the same bits with no scaled copy.  A slice holding inf
    or NaN has norm NaN, which every acceptance test counts as a miss.
    """
    s = _out_of_range_max(x, axis)
    if np.all(s == 1.0):
        return norm(x, axis=axis)
    s = np.maximum(s, np.finfo(float).tiny)
    with np.errstate(invalid="ignore"):  # an infinite entry: inf / inf is NaN
        n = norm(x / s, axis=axis)
    return n * s.reshape(np.shape(n))


def _into_range(m):
    """``(m / 2**e, e)`` for sparse ``m``, e of shape (1,), or for each
    (n, n) slice of a dense stack, e of shape (..., 1, 1): e brings the
    largest magnitude of a slice out of range (:func:`_out_of_range_max`)
    into [1, 2), or as near as a normal power of two goes, and is 0 for a
    slice in range.  Where every e is 0, ``m`` comes back as it is, the
    same bits with no scaled copy."""
    sparse = not isinstance(m, np.ndarray)
    s = _out_of_range_max(m.data if sparse else m, None if sparse else (-2, -1))
    e = np.where(s == 1.0, 0, np.maximum(np.frexp(s)[1] - 1, -1022))
    if not e.any():
        return m, e
    p = np.ldexp(1.0, -e)
    return m * (p.item() if sparse else p), e


def _symmetric_lu(mat):
    """SuperLU factor of the exactly symmetric, canonical CSR ``mat`` and
    its count of negative eigenvalues.  SuperLU reads ``mat.T``, the CSC
    view of the same arrays, which is M itself when M = M^T (see the module
    docstring).  SuperLU factors with diagonal pivots in a symmetric
    ordering, P M P^T = L D L^T, and D has as many negative entries as M
    has negative eigenvalues.  Both are None when M is exactly singular or
    a zero pivot forced an off-diagonal one (``perm_r != perm_c``).  The
    factor's cached ``L`` and ``U`` copies are empty: its ``nnz``,
    permutations and solves are those of a fresh factor."""
    import scipy.sparse.linalg as spla

    try:
        lu = spla.splu(mat.T, **_SPLU_OPTIONS)
    except RuntimeError:
        return None, None
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None, None
    negatives = int(np.count_nonzero(lu.U.diagonal() < 0))
    for cached in (lu.L, lu.U):  # CSC copies, see the module docstring
        cached.data, cached.indices = cached.data[:0].copy(), cached.indices[:0].copy()
        cached.indptr = np.zeros_like(cached.indptr)
    return lu, negatives


class DefiniteSolver:
    """Solves A x = b with one certified SuperLU factor of A > 0.

    The constructor factors symmetric ``mat``, sparse or dense, and raises
    :class:`DefinitenessError` naming ``name`` unless the inertia of the LU
    certifies ``mat`` > 0; a positive definite matrix never meets a zero
    pivot, so that fails too.  Call it on a vector or on an (n, k) block;
    the block goes to SuperLU in one call.  Every column must meet
    ||A x - b|| <= ``_SOLVE_TOL`` ||b||.  A column that misses gets one step
    of iterative refinement, and one that still misses raises
    :class:`NonConvergenceError`.  ``factor_nnz`` is SuperLU's count of
    stored nonzeros in L + U, ``solves`` counts the right-hand sides solved
    and ``max_residual`` is the worst relative residual returned; they
    outlive :meth:`close`, which releases the factor.
    """

    def __init__(self, mat, name: str = "the operator"):
        import scipy.sparse

        mat = scipy.sparse.csr_matrix(mat)
        lu, negatives = _symmetric_lu(mat)
        if negatives != 0:
            del lu  # the traceback of the error keeps this frame alive
            found = "a zero pivot" if negatives is None else f"{negatives} negative pivots"
            raise DefinitenessError(f"{name} is not positive definite: its LU met {found}")
        self._mat = mat
        self._lu = lu
        self.factor_nnz = int(lu.nnz)
        self.solves = 0
        self.max_residual = 0.0

    def inverse(self):
        """A^-1 as a ``LinearOperator`` for ARPACK: the factor's bare solve,
        without the residual check of :meth:`__call__` (see the module
        docstring)."""
        import scipy.sparse.linalg as spla

        return spla.LinearOperator(self._mat.shape, matvec=self._lu.solve, dtype=float)

    def _relative_residuals(self, x: np.ndarray, b: np.ndarray):
        r = b - self._mat @ x
        norm_b = np.maximum(_square_safe_norm(b, axis=0), np.finfo(float).tiny)
        return r, _square_safe_norm(r, axis=0) / norm_b

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


def _certify_minimum(a_mat, b_mat, lam: float) -> None:
    """No eigenvalue of (A, B) lies below ``lam``: A - sigma B has no negative
    pivot for sigma just under it (Sylvester).  A Krylov run can converge to
    lambda_2 first, a true eigenpair that no residual check rejects."""
    sigma = lam - _MINIMUM_GAP * max(abs(lam), 1.0)
    try:
        DefiniteSolver(a_mat - sigma * b_mat, "A - sigma B just under it")
    except DefinitenessError as exc:
        raise NonConvergenceError(
            f"eigenvalue(s) lie below the returned smallest {lam!r}: {exc}"
        )


def _accept_pairs(a, b, lam: np.ndarray, x: np.ndarray, tol: float) -> None:
    """Accept the eigenpairs (``lam[..., j]``, ``x[..., :, j]``) of the
    pencil (A, B), sparse matrices or dense (..., n, n) stacks, when each
    has normwise backward error
    eta = ||A x - lambda B x|| / ((||A||_1 + |lambda| ||B||_1) ||x||) <= tol
    (Higham & Higham, SIAM J. Matrix Anal. Appl., 1998), its 2-norms
    square-safe; else raise :class:`NonConvergenceError` carrying the worst
    eta, NaN for a pair that is not finite.  A and B are scaled into range
    first (:func:`_into_range`), lambda with them, which leaves eta as it
    is: no sum or product here overflows into an inf scale that would pass
    the pair untested."""
    (a, e_a), (b, e_b) = _into_range(a), _into_range(b)
    lam = np.ldexp(lam, (e_b - e_a)[..., 0])
    a_norm, b_norm = (  # ||M||_1, the largest column sum of |M|, against lam
        np.asarray(abs(m).sum(axis=-2)).max(axis=-1)[..., None] for m in (a, b)
    )
    scale = (a_norm + np.abs(lam) * b_norm) * _square_safe_norm(x, axis=-2)
    residual = _square_safe_norm(a @ x - lam[..., None, :] * (b @ x), axis=-2)
    eta = residual / np.maximum(scale, np.finfo(float).tiny)  # an exact pair: 0
    if not np.all(eta <= tol):  # NaN misses too
        worst = float(np.max(eta))
        raise NonConvergenceError(
            f"eigenpair fails its residual check (backward error {worst:.3g} > {tol!r})",
            residual=worst,
        )


def extreme_generalized_eigenvalues(a, b, which: str, below: float = 0.0) -> float:
    """One extreme eigenvalue of A x = lambda B x for sparse or dense
    matrices, A symmetric, B positive definite: ``which`` is
    ``"smallest"``, ``"largest"`` or ``"magnitude"`` (largest |lambda|,
    signed).

    ``below`` is a floor the caller expects the smallest eigenvalue to lie
    above; the bottom end of a sparse pencil runs shift-invert there when
    the count of A - below B certifies it, and from 0 otherwise (see the
    module docstring).  The floor only picks the shift: the returned value
    meets the same checks from either one.

    Raises :class:`DefinitenessError` when B is not positive definite and
    :class:`NonConvergenceError` when ARPACK fails, when its pair has a
    backward error above ``_ARPACK_RESIDUAL`` (:func:`_accept_pairs`) or
    when a smallest one has an eigenvalue below it (:func:`_certify_minimum`);
    pencils of at most ``DENSE_CUTOFF`` rows meet
    :func:`hermitian_dense_eig`'s tolerance ``_DENSE_RESIDUAL`` instead.
    A pair that misses its backward error reruns the ARPACK sequence
    asking for two pairs, and the error is raised only when that misses
    too.  Every ARPACK run sees one live factor, and none outlives it.
    """
    import scipy.sparse
    import scipy.sparse.linalg as spla

    if which not in _ARPACK_WHICH:
        raise ValueError(f"unknown which={which!r}")
    a_mat = scipy.sparse.csr_matrix(a)
    b_mat = scipy.sparse.csr_matrix(b)
    n = a_mat.shape[0]
    if n == 0:
        raise ValueError("empty operator")
    if n <= DENSE_CUTOFF:  # every pair is residual-checked there
        w = hermitian_dense_eig(a_mat.toarray(), b_mat.toarray())
        return float(w[_end(w, which)])
    for pairs in _ARPACK_PAIRS:
        mode = dict(which=_ARPACK_WHICH[which], Minv=DefiniteSolver(b_mat, "B").inverse())
        if a_mat.count_nonzero() == 0:  # every vector is an eigenvector of 0
            return 0.0
        if which == "smallest":
            mode = None  # B's factor dies before the shifted one is built
            for sigma in (below, 0.0) if below else (0.0,):
                try:  # A - sigma B > 0: the eigenvalue nearest sigma is the smallest
                    mode = dict(sigma=sigma, which="LM", OPinv=DefiniteSolver(
                        a_mat - sigma * b_mat if sigma else a_mat, "A - sigma B").inverse())
                    break
                except DefinitenessError:  # refused: the next shift, or regular mode
                    pass
            else:  # regular mode on a new factor of B
                mode = dict(which=_ARPACK_WHICH[which],
                            Minv=DefiniteSolver(b_mat, "B").inverse())
        try:  # the start vector dies with the run, like the factor below
            w, v = spla.eigsh(a_mat, k=pairs, M=b_mat, **mode,
                              v0=np.random.default_rng(_ARPACK_SEED).standard_normal(n))
        except spla.ArpackError as exc:
            raise NonConvergenceError(f"ARPACK ({mode['which']}) failed: {exc}")
        del mode  # its factor dies before the count's is built
        j = _end(w, which)
        if which == "smallest":
            _certify_minimum(a_mat, b_mat, float(w[j]))
        try:
            _accept_pairs(a_mat, b_mat, w[[j]], v[:, [j]], _ARPACK_RESIDUAL)
        except NonConvergenceError:
            if pairs == _ARPACK_PAIRS[-1]:
                raise
        else:
            return float(w[j])


def _end(w: np.ndarray, which: str) -> int:
    """The index of the ``which`` end among the eigenvalues ``w``."""
    return int(np.argmax({"smallest": -w, "largest": w, "magnitude": np.abs(w)}[which]))


def _adjoint(x: np.ndarray) -> np.ndarray:
    return x.conj().swapaxes(-1, -2)


def hermitian_dense_eig(h, g) -> np.ndarray:
    """All eigenvalues (ascending) of H z = lambda G z for dense Hermitian
    H and Hermitian positive definite G, or of each pencil of (..., n, n)
    stacks in one batched call.

    The Cholesky factor G = L L^H reduces each pencil to the standard
    problem of L^-1 H L^-H.  Raises :class:`DefinitenessError` when G has no
    Cholesky factor and :class:`NonConvergenceError` when a pair misses
    ||H z - lambda G z|| <= ``_DENSE_RESIDUAL`` (||H||_1 + |lambda| ||G||_1) ||z||,
    the backward-error rule of :func:`_accept_pairs` with square-safe norms.
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
    _accept_pairs(h, g, lam, z, _DENSE_RESIDUAL)
    return lam
