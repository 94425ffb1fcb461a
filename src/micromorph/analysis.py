"""Numerical certification of well-posedness plus the plane-wave dispersion
and band-gap calculator.

Certification produces a report with (a) the hypothesis checklist evaluated
on the material tensors alone and (b) discrete constants computed from the
assembled operators: the coercivity constant m1 (smallest eigenvalue of the
rate-energy form against the product-norm Gram matrix), the boundedness
constant M2 (largest magnitude eigenvalue of the potential form), the
contraction constant c = sqrt(2) M2 / m1 produced by the existence proof's
estimate chain, and the fixed-point subinterval delta = 1/(2 sqrt(c)).

The dispersion calculator substitutes plane waves u = u0 exp(i(k d.x - w t)),
P = P0 exp(i(k d.x - w t)) into the strong-form balance equations with zero
loads: the gradient becomes i k (u0 x d^T) and the row-wise curl becomes the
i k cross-product map, yielding a 12 x 12 Hermitian pencil
w^2 A(k) z = B(k) z whose A collects the rate-energy (inertia) terms and B
the potential terms.  Every field is f0 z + i k f1 z, so both are exactly
quadratic in k: A(k) = A0 + k A1 + k^2 A2, likewise B.  The six coefficient
matrices are built once per direction, and all wavenumber samples are solved
in one batched eigensolve.  Frequencies are the square roots of the pencil
eigenvalues; band gaps are read off sampled branches.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .assembly import (
    FormSpec,
    SparseSymOperator,
    assemble_form,
    form_spec_w1,
    form_spec_w2,
)
from .errors import DefinitenessError, HypothesisError, NonConvergenceError
from .fespace import FESystem
from .linalg import extreme_generalized_eigenvalues, hermitian_dense_eig
from .tensors import (
    FULL_BASIS,
    Definiteness,
    DefinitenessReport,
    MaterialParams,
    ModelVariant,
    classify_definiteness,
    isotropic_curvature,
    isotropic_elastic,
)

__all__ = [
    "HypothesisCheck",
    "WellPosednessReport",
    "check_hypotheses",
    "discrete_coercivity",
    "discrete_boundedness",
    "contraction_constant",
    "well_posedness_report",
    "korn_curl_constant",
    "DispersionResult",
    "BandGap",
    "dispersion_curves",
    "detect_band_gaps",
]

_CLAMP_TOL = 1e-10  # relative size of a negative omega^2 read as round-off


@dataclass(frozen=True)
class HypothesisCheck:
    item: str
    description: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class WellPosednessReport:
    variant: ModelVariant
    tensor_reports: dict[str, DefinitenessReport]
    checks: tuple[HypothesisCheck, ...]
    coercivity: float | None = None        # m1
    boundedness: float | None = None       # M2
    contraction: float | None = None       # c
    interval: float | None = None          # delta = 1/(2 sqrt(c))
    constant_map: bool = False

    @property
    def hypotheses_satisfied(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def well_posed(self) -> bool:
        ok = self.hypotheses_satisfied
        if self.coercivity is not None:
            ok = ok and self.coercivity > 0
        return ok

    def failed_items(self) -> list[str]:
        return [c.item for c in self.checks if not c.passed]


def _definite(report: DefinitenessReport) -> bool:
    return report.classification is Definiteness.POSITIVE_DEFINITE


def _semi_definite(report: DefinitenessReport) -> bool:
    return report.classification is not Definiteness.INDEFINITE


def check_hypotheses(params: MaterialParams) -> WellPosednessReport:
    """Evaluate the existence theorem's hypothesis checklist on the material.

    Items: (i) tensor symmetry, (ii) boundedness of the potential tensors,
    (iii) positive definiteness of the elastic-rate and curvature-rate
    tensors, (iv) positive semi-definiteness of the micro-rate and
    coupling-rate tensors, (v)/(vi) load and initial-data regularity
    (satisfied by construction for every load and state this engine can
    represent), (vii) scalar positivity (enforced by :class:`MaterialParams`
    on construction).  The simplified and quasistatic variants additionally
    require a positive definite micro-rate tensor.
    """
    reports = {name: classify_definiteness(t) for name, t in params.tensors().items()}
    checks: list[HypothesisCheck] = []

    # storage is the symmetric matrix representation, so major symmetry is
    # structural; report the verified storage invariant
    sym_ok = all(
        np.array_equal(t.matrix, t.matrix.T) for t in params.tensors().values()
    )
    checks.append(
        HypothesisCheck(
            "i", "constitutive tensors carry the class symmetries", sym_ok
        )
    )

    bound_names = ("elastic", "coupling", "micro", "curvature")
    bounds = ", ".join(
        f"{n}<= {reports[n].max_modulus:.6g}" for n in bound_names
    )
    checks.append(
        HypothesisCheck(
            "ii",
            "potential tensors are bounded",
            all(np.isfinite(reports[n].max_modulus) for n in bound_names),
            bounds,
        )
    )

    iii_ok = _definite(reports["inertia_elastic"]) and _definite(
        reports["inertia_curvature"]
    )
    checks.append(
        HypothesisCheck(
            "iii",
            "elastic-rate and curvature-rate tensors positive definite",
            iii_ok,
            f"min moduli {reports['inertia_elastic'].min_modulus:.6g}, "
            f"{reports['inertia_curvature'].min_modulus:.6g}",
        )
    )

    iv_ok = _semi_definite(reports["inertia_micro"]) and _semi_definite(
        reports["inertia_coupling"]
    )
    checks.append(
        HypothesisCheck(
            "iv",
            "micro-rate and coupling-rate tensors positive semi-definite",
            iv_ok,
        )
    )

    checks.append(
        HypothesisCheck(
            "v",
            "loads continuous in time with dual-space values",
            True,
            "all representable load specifications qualify",
        )
    )
    checks.append(
        HypothesisCheck(
            "vi",
            "initial data in the product space",
            True,
            "all representable discrete states qualify",
        )
    )

    # MaterialParams rejects every nonpositive scalar on construction
    checks.append(HypothesisCheck("vii", "scalar parameters positive", True))

    v = params.variant
    if v in (ModelVariant.SIMPLIFIED_INERTIA, ModelVariant.QUASISTATIC):
        checks.append(
            HypothesisCheck(
                "micro-rate-definite",
                f"{v.value} variant requires a positive definite micro-rate tensor",
                _definite(reports["inertia_micro"]),
                f"min modulus {reports['inertia_micro'].min_modulus:.6g}",
            )
        )

    return WellPosednessReport(
        variant=v, tensor_reports=reports, checks=tuple(checks)
    )


def discrete_coercivity(w1: SparseSymOperator, gram: SparseSymOperator) -> float:
    """m1: smallest eigenvalue of the pencil (W1, Gram); positive certifies
    coercivity of the rate-energy form in the product norm."""
    return extreme_generalized_eigenvalues(w1, gram, which="smallest")


def discrete_boundedness(w2: SparseSymOperator, gram: SparseSymOperator) -> float:
    """M2: largest magnitude eigenvalue of (W2, Gram); the potential tensors
    may be indefinite, so either end of the spectrum can hold it."""
    return abs(extreme_generalized_eigenvalues(w2, gram, which="magnitude"))


def contraction_constant(m1: float, m2: float) -> tuple[float, float]:
    """(c, delta) from the proof's estimate chain: c = sqrt(2) M2 / m1 and
    delta = 1/(2 sqrt(c)); M2 = 0 flags a constant fixed-point map, reported
    as c = 0, delta = inf."""
    if m1 <= 0:
        raise DefinitenessError(
            f"coercivity constant must be positive, got {m1!r}"
        )
    if m2 < 0:
        raise ValueError("boundedness constant cannot be negative")
    if m2 == 0.0:
        return 0.0, math.inf
    c = math.sqrt(2.0) * m2 / m1
    return c, 1.0 / (2.0 * math.sqrt(c))


def well_posedness_report(
    params: MaterialParams,
    w1: SparseSymOperator,
    w2: SparseSymOperator,
    gram: SparseSymOperator,
) -> WellPosednessReport:
    """Checklist plus the discrete constants m1, M2, c, delta of the
    operators W1, W2 and Gram assembled for ``params`` on one mesh."""
    m1 = discrete_coercivity(w1, gram)
    m2 = discrete_boundedness(w2, gram)
    c, delta = contraction_constant(m1, m2) if m1 > 0 else (None, None)
    return dataclasses.replace(
        check_hypotheses(params),
        coercivity=m1,
        boundedness=m2,
        contraction=c,
        interval=delta,
        constant_map=(m2 == 0.0),
    )


def korn_curl_constant(sys: FESystem) -> float:
    """Korn-type certificate on the tangential-zero micro-distortion space.

    Largest eigenvalue C of (mass + curl-curl, sym-mass + curl-curl); a
    finite C with positive definite right form certifies
    ||P||^2 + ||Curl P||^2 <= C (||sym P||^2 + ||Curl P||^2) discretely.
    Always >= 1 because the forms differ by the skew mass, which is
    nonnegative.
    """
    if sys.n_p_dofs < 1:
        raise ValueError("micro-distortion space has no degrees of freedom")
    identity_curv = isotropic_curvature(1.0)
    left = assemble_form(
        sys, FormSpec(mass_p=1.0, curl=identity_curv, curl_coeff=1.0)
    ).p_block()
    right = assemble_form(
        sys,
        FormSpec(
            sym_micro=isotropic_elastic(0.5, 0.0),  # 2 mu sym = sym for mu = 1/2
            curl=identity_curv,
            curl_coeff=1.0,
        ),
    ).p_block()
    try:
        return extreme_generalized_eigenvalues(left, right, which="largest")
    except (DefinitenessError, NonConvergenceError) as exc:
        raise DefinitenessError(
            "sym-mass + curl-curl form is singular on the tangential-zero "
            f"space; the discrete Korn-type inequality fails: {exc}"
        )


# ---------------------------------------------------------------------------
# plane-wave dispersion


def _pencil_coefficients(
    params: MaterialParams, d: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(A0, A1, A2) and (B0, B1, B2), each stacked (3, 12, 12), of the
    Hermitian plane-wave pencil w^2 A z = B z along ``d``: A(k) = A0 + k A1
    + k^2 A2, likewise B.  z stacks the displacement amplitude (3) and the
    row-major micro-distortion amplitude (9).  A and B are the rate and
    potential forms of :mod:`assembly` evaluated on plane waves, so A
    respects the model variant; neither carries a ``grad_u`` term."""
    # the fields (u, grad u - P, P, Curl P) of amplitude z are (f0 + i k f1) z:
    # grad u = i k (u (x) d) and row i of Curl P is i k (d x P_i)
    u, p = np.eye(12)[:3], np.eye(12)[3:]
    grad = np.kron(np.eye(3), d[:, None]) @ u
    curl = np.kron(np.eye(3), np.cross(d, np.eye(3)).T) @ p
    f0 = np.vstack([u, -p, p, 0.0 * p])
    f1 = np.vstack([0.0 * u, grad, 0.0 * p, curl])

    def act(tensor) -> np.ndarray:
        # 9 x 9 matrix of X -> T.X on row-major X; T.X sees only the class
        # part (sym, skew or all) of X, so the sym/skew projections are implicit
        return tensor.apply(FULL_BASIS).reshape(9, 9).T

    def coefficients(spec: FormSpec) -> np.ndarray:
        # F^H M F, M the (symmetric, block-diagonal) energy of spec on the fields
        blocks = (
            spec.mass_u * np.eye(3),
            act(spec.sym_relative) + act(spec.skew_relative),
            spec.mass_p * np.eye(9) + act(spec.sym_micro),
            spec.curl_coeff * act(spec.curl),
        )
        m = np.zeros((30, 30))
        for lo, block in zip((0, 3, 12, 21), blocks):
            m[lo:lo + len(block), lo:lo + len(block)] = block
        cross = f0.T @ m @ f1
        return np.stack([f0.T @ m @ f0, 1j * (cross - cross.T), f1.T @ m @ f1])

    return coefficients(form_spec_w1(params)), coefficients(form_spec_w2(params))


@dataclass(frozen=True)
class BandGap:
    lower: float
    upper: float
    k_resolution: float   # coarsest sampling step behind this gap

    @property
    def width(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True)
class DispersionResult:
    """Sampled dispersion branches along one propagation direction.

    ``frequencies[s, j]`` is branch j at ``k_samples[s]`` (branches sorted
    ascending per sample); genuinely negative squared frequencies (possible
    with indefinite potential tensors) are kept in ``omega_squared`` and
    marked in ``unstable``, with NaN in ``frequencies``.  ``gaps`` hold the
    band gaps detected over the full sampled range (empty when fewer than
    two samples).
    """

    k_samples: np.ndarray
    direction: np.ndarray
    frequencies: np.ndarray      # (n_k, 12)
    omega_squared: np.ndarray    # (n_k, 12)
    unstable: np.ndarray = field(repr=False)  # (n_k, 12) bool
    gaps: tuple = ()

    @property
    def n_branches(self) -> int:
        return self.frequencies.shape[1]


def _unit_direction(direction) -> np.ndarray:
    d = np.asarray(direction, dtype=float)
    if d.shape != (3,):
        raise ValueError("direction must have three entries")
    nrm = np.linalg.norm(d)
    if not 0 < nrm < math.inf:
        raise ValueError("direction must be a nonzero finite vector")
    return d / nrm


def _wavenumbers(k_samples) -> np.ndarray:
    ks = np.asarray(k_samples, dtype=float)
    if ks.ndim != 1 or ks.size == 0:
        raise ValueError("k_samples must be a nonempty 1-d sequence")
    if not np.all((ks >= 0) & (ks < math.inf)):
        raise ValueError("wavenumber samples must be nonnegative and finite")
    return ks


def dispersion_curves(
    params: MaterialParams,
    direction,
    k_samples,
) -> DispersionResult:
    """Solve the plane-wave pencil for each wavenumber sample.

    Negative squared frequencies within 1e-10 (relative) of zero are
    round-off and clamped to zero; anything more negative is reported as an
    unstable branch.  A rate-energy pencil that is not positive definite
    violates the inertia hypotheses and raises :class:`HypothesisError`.
    """
    d = _unit_direction(direction)
    ks = _wavenumbers(k_samples)
    powers = ks[:, None] ** np.arange(3)
    a, b = (np.tensordot(powers, c, 1) for c in _pencil_coefficients(params, d))
    a_min = np.linalg.eigvalsh(a)[:, 0]
    bad = np.flatnonzero(a_min <= 0)
    if bad.size:
        s = bad[0]
        raise HypothesisError(
            f"rate-energy pencil not positive definite at k={ks[s]!r} "
            f"(min eigenvalue {a_min[s]!r}); inertia hypotheses violated"
        )
    omega2 = hermitian_dense_eig(b, a)

    scale = np.maximum(np.abs(omega2).max(axis=1, keepdims=True), 1.0)
    noise = (omega2 < 0) & (omega2 >= -_CLAMP_TOL * scale)
    clamped = np.where(noise, 0.0, omega2)
    unstable = clamped < 0
    freqs = np.where(unstable, np.nan, np.sqrt(np.maximum(clamped, 0.0)))
    result = DispersionResult(
        k_samples=ks,
        direction=d,
        frequencies=freqs,
        omega_squared=omega2,
        unstable=unstable,
    )
    if ks.size >= 2:
        result = dataclasses.replace(result, gaps=tuple(detect_band_gaps(result)))
    return result


def detect_band_gaps(result: DispersionResult) -> list[BandGap]:
    """Maximal open frequency intervals between consecutive sampled branches.

    A gap spans (max over k of branch j, min over k of branch j+1) when that
    interval is nonempty; this is exact only up to the attached sampling
    resolution.  Samples with unstable branches are excluded.
    """
    ks = result.k_samples
    if ks.size < 2:
        raise ValueError("need at least two wavenumber samples")
    mask = ~result.unstable.any(axis=1)
    if mask.sum() < 2:
        return []
    freqs = result.frequencies[mask]
    sel_ks = ks[mask]
    resolution = float(np.max(np.diff(np.sort(sel_ks))))

    gaps: list[BandGap] = []
    branch_max = freqs.max(axis=0)
    branch_min = freqs.min(axis=0)
    for j in range(freqs.shape[1] - 1):
        lo = float(branch_max[j])
        hi = float(branch_min[j + 1])
        if hi > lo:
            gaps.append(BandGap(lower=lo, upper=hi, k_resolution=resolution))
    # defensive: no sampled value may fall inside a reported gap
    flat = freqs.ravel()
    for g in gaps:
        inside = (flat > g.lower) & (flat < g.upper)
        if np.any(inside):
            raise AssertionError("sampled frequency inside a reported band gap")
    return gaps
