"""Numerical certification of well-posedness plus the plane-wave dispersion
and band-gap calculator.

Certification produces a report with (a) the hypothesis checklist evaluated
on the material tensors alone and (b) discrete constants computed from the
assembled operators: the coercivity constant m1 (smallest eigenvalue of the
rate-energy form against the product-norm Gram matrix), the boundedness
constant M2 (largest magnitude eigenvalue of the potential form), the
contraction constant c = sqrt(2) M2 / m1 produced by the existence proof's
estimate chain, and the fixed-point subinterval delta = 1/(2 sqrt(c)).
The m1 eigensolve starts at the floor of the plane-wave symbols below
(:func:`_symbol_floor`), which lies under m1 on every mesh, just under the
bottom cluster of the pencil.

The dispersion calculator substitutes plane waves u = u0 exp(i(k d.x - w t)),
P = P0 exp(i(k d.x - w t)) into the strong-form balance equations with zero
loads: the gradient becomes i k (u0 x d^T) and the row-wise curl becomes the
i k cross-product map, yielding a 12 x 12 pencil w^2 A(k) z = B(k) z
whose A and B are the symbols of the rate-energy (inertia) and potential
forms.  Every field is f0 z + i k f1 z, so a symbol is exactly quadratic
in k: A(k) = A0 + k A1 + k^2 A2.  It is Hermitian, and one diagonal
unitary similarity makes it real symmetric (:func:`_plane_wave_symbol`),
so the floor of m1 and the dispersion pencil are real.  The symbol of any
:class:`~micromorph.assembly.FormSpec` is built once per direction from
:func:`~micromorph.assembly.form_terms`, the reading the FE kernel uses too,
and all wavenumber samples are solved in one batched eigensolve.
Frequencies are the square roots of the pencil eigenvalues; band gaps are
read off sampled branches.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .assembly import (
    FormSpec,
    SparseSymOperator,
    assemble_form,
    assemble_gram,
    form_spec_w1,
    form_spec_w2,
    form_terms,
)
from .errors import DefinitenessError, HypothesisError, SolverError
from .fespace import FESystem
from .linalg import _SQUARE_SAFE, extreme_generalized_eigenvalues, hermitian_dense_eig
from .tensors import (
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

_CLAMP_TOL = 1e-10  # relative size of a negative omega^2 or a gap read as round-off
_FLOOR_KS = np.concatenate([[0.0], np.logspace(-3, 3, 240)])  # wavenumbers of m1's floor
_FLOOR_DIRECTION = np.array([1.0, 0.0, 0.0])  # the one direction they run along
_FLOOR_MARGIN = 1e-6  # relative drop of the sampled floor under its infimum
_EIGVALSH_ERROR = 12 * np.finfo(float).eps  # eigvalsh's absolute error over ||A||_1, n = 12


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

    @property
    def constant_map(self) -> bool:
        """M2 = 0: the fixed-point map ignores its input (c = 0)."""
        return self.boundedness == 0.0

    @property
    def hypotheses_satisfied(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def well_posed(self) -> bool:
        return self.hypotheses_satisfied and (
            self.coercivity is None or self.coercivity > 0
        )

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
    tensors = params.tensors()
    r = {name: classify_definiteness(t) for name, t in tensors.items()}
    potential = ("elastic", "coupling", "micro", "curvature")
    rows = [
        # the storage is the symmetric matrix representation, so major
        # symmetry is structural; the row reports that stored invariant
        ("i", "constitutive tensors carry the class symmetries",
         all(np.array_equal(t.matrix, t.matrix.T) for t in tensors.values())),
        ("ii", "potential tensors are bounded",
         all(np.isfinite(r[n].max_modulus) for n in potential),
         ", ".join(f"{n}<= {r[n].max_modulus:.6g}" for n in potential)),
        ("iii", "elastic-rate and curvature-rate tensors positive definite",
         _definite(r["inertia_elastic"]) and _definite(r["inertia_curvature"]),
         f"min moduli {r['inertia_elastic'].min_modulus:.6g}, "
         f"{r['inertia_curvature'].min_modulus:.6g}"),
        ("iv", "micro-rate and coupling-rate tensors positive semi-definite",
         _semi_definite(r["inertia_micro"])
         and _semi_definite(r["inertia_coupling"])),
        ("v", "loads continuous in time with dual-space values", True,
         "all representable load specifications qualify"),
        ("vi", "initial data in the product space", True,
         "all representable discrete states qualify"),
        # MaterialParams rejects every nonpositive scalar on construction
        ("vii", "scalar parameters positive", True),
    ]
    v = params.variant
    if not v.micro_mass:
        rows.append((
            "micro-rate-definite",
            f"{v.value} variant requires a positive definite micro-rate tensor",
            _definite(r["inertia_micro"]),
            f"min modulus {r['inertia_micro'].min_modulus:.6g}",
        ))
    return WellPosednessReport(
        variant=v, tensor_reports=r,
        checks=tuple(HypothesisCheck(*row) for row in rows),
    )


def _symbol_floor(spec: FormSpec, metric: FormSpec) -> float:
    """m1_sym (1 - ``_FLOOR_MARGIN``), m1_sym the least eigenvalue of the
    plane-wave symbols (S_spec(k), S_metric(k)) of the two forms over the
    wavenumbers ``_FLOOR_KS`` along ``_FLOOR_DIRECTION``, or 0 where that is
    not positive and finite.

    Why it lies under m1 on every mesh: u has zero trace and the rows of P
    zero tangential trace, so extending a discrete field by zero keeps the
    value of every constant-coefficient form, and Plancherel writes the form
    as the integral of z^H S(xi) z over the wave vectors xi.  So
    inf_xi lambda_min(S_spec, S_metric) <= m1 (continuum) <= m1_h.  For an
    isotropic material the symbol's spectrum does not depend on the
    direction, and the samples give that infimum up to the k-sampling
    (about 5e-7 relative above it for the demo material, whose infimum
    2 - sqrt 2 is approached as k -> inf; the margin covers that).  An
    anisotropic floor is sampled along one direction only and may lie above
    m1_h: the inertia count of the shifted factor decides, and a refused
    floor costs that one factor.  A rate energy without the displacement
    mass (the quasistatic variant) vanishes on a uniform wave, so its
    floor is 0.

    The batch is solved by :func:`~micromorph.linalg.hermitian_dense_eig`,
    so every pair meets the engine's one backward-error rule.  A pencil it
    refuses (a metric symbol that is not definite, a pair that misses the
    rule) has floor 0, like a symbol that overflows: 0 only costs m1's
    eigensolve the shift.
    """
    a, g = _symbols((spec, metric), _FLOOR_DIRECTION, _FLOOR_KS)
    if not (np.isfinite(a).all() and np.isfinite(g).all()):
        return 0.0   # a symbol that overflows has floor 0
    try:
        low = float(hermitian_dense_eig(a, g)[:, 0].min())
    except (SolverError, ValueError):
        return 0.0
    return low * (1.0 - _FLOOR_MARGIN) if 0.0 < low < math.inf else 0.0


def discrete_coercivity(w1: SparseSymOperator, gram: SparseSymOperator) -> float:
    """m1: smallest eigenvalue of the pencil (W1, Gram); positive certifies
    coercivity of the rate-energy form in the product norm.  When both
    operators carry the forms they were assembled from, the eigensolve
    starts at their symbol floor (:func:`_symbol_floor`), just under the
    bottom cluster, rather than at 0."""
    known = w1.spec is not None and gram.spec is not None
    below = _symbol_floor(w1.spec, gram.spec) if known else 0.0
    return extreme_generalized_eigenvalues(w1.matrix, gram.matrix, "smallest", below)


def discrete_boundedness(w2: SparseSymOperator, gram: SparseSymOperator) -> float:
    """M2: largest magnitude eigenvalue of (W2, Gram); the potential tensors
    may be indefinite, so either end of the spectrum can hold it."""
    return abs(extreme_generalized_eigenvalues(w2.matrix, gram.matrix, "magnitude"))


def _contraction_interval(c: float) -> float:
    """delta = 1/(2 sqrt(c)), on which one fixed-point sweep contracts by
    delta^2 c = 1/4; c = 0 is a constant map, which contracts on any
    interval: delta = inf."""
    return math.inf if c == 0.0 else 1.0 / (2.0 * math.sqrt(c))


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
    c = math.sqrt(2.0) * m2 / m1
    return c, _contraction_interval(c)


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
    )


def korn_curl_constant(sys: FESystem) -> float:
    """Korn-type certificate on the tangential-zero micro-distortion space.

    Largest eigenvalue C of (mass + curl-curl, sym-mass + curl-curl),
    whose left form is the P block of the product-norm Gram; a finite C
    with positive definite right form certifies
    ||P||^2 + ||Curl P||^2 <= C (||sym P||^2 + ||Curl P||^2) on this
    space.  C is a lower bound on the continuum constant: the spaces of
    nested meshes are nested, so refining can only raise it (1.018, 1.810
    and 1.951 at res 1, 2 and 4 on the unit box).  Always >= 1 because the
    forms differ by the skew mass, which is nonnegative.
    """
    left = assemble_gram(sys).p_block()
    sym_mass = isotropic_elastic(0.5, 0.0)   # 2 mu sym = sym for mu = 1/2
    right = assemble_form(sys, FormSpec(
        sym_micro=sym_mass, curl=isotropic_curvature(1.0), curl_coeff=1.0)).p_block()
    try:
        return extreme_generalized_eigenvalues(left.matrix, right.matrix, "largest")
    except DefinitenessError as exc:
        raise DefinitenessError(
            "sym-mass + curl-curl form is singular on the tangential-zero "
            f"space; the discrete Korn-type inequality fails: {exc}"
        )


# ---------------------------------------------------------------------------
# plane-wave dispersion


def _plane_wave_symbol(spec: FormSpec, d: np.ndarray) -> np.ndarray:
    """(S0, S1, S2) stacked (3, 12, 12): the real symmetric symbol S(k) =
    S0 + k S1 + k^2 S2 of the form ``spec`` on plane waves along the unit
    ``d``.  z stacks the displacement amplitude (3) and the row-major
    micro-distortion amplitude (9).

    On the waves of amplitudes z, z' the form is z'^H H(k) z with H(k)
    Hermitian, because every field is (f0 + i k f1) z.  Only the field
    grad u - P has both a k^0 part (P only) and a k^1 part (u only), so
    the imaginary part i k (C - C^T), C = f0^T M f1, couples u to P and
    nothing else.  The diagonal unitary similarity D = diag(i I_3, I_9),
    which multiplies the displacement amplitude by i, therefore gives
    S(k) = D^H H(k) D with S0 and S2 unchanged and S1 = -(C + C^T): a real
    symmetric symbol, and every pencil of two such symbols has the
    eigenvalues and definiteness of its Hermitian one."""
    # the fields of amplitude z are (f0 + i k f1) z:
    # grad u = i k (u (x) d) and row i of Curl P is i k (d x P_i)
    u, p = np.eye(12)[:3], np.eye(12)[3:]
    grad = np.kron(np.eye(3), d[:, None]) @ u
    curl = np.kron(np.eye(3), np.cross(d, np.eye(3)).T) @ p
    fields = {
        "u": (u, 0.0 * u),
        "grad u": (0.0 * p, grad),
        "grad u - P": (-p, grad),
        "P": (p, 0.0 * p),
        "Curl P": (0.0 * p, curl),
    }
    f0, f1 = (np.vstack(parts) for parts in zip(*fields.values()))
    m = np.zeros((39, 39))   # the block-diagonal energy of spec on the fields
    at = dict(zip(fields, (0, 3, 12, 21, 30)))
    for name, block in form_terms(spec):
        m[at[name]:at[name] + len(block), at[name]:at[name] + len(block)] += block
    cross = f0.T @ m @ f1
    return np.stack([f0.T @ m @ f0, -(cross + cross.T), f1.T @ m @ f1])


def _symbols(specs, d: np.ndarray, ks: np.ndarray) -> tuple:
    """The symbol S(k) of each form of ``specs`` along the unit ``d`` at
    every wavenumber of ``ks``, each stacked (n_k, 12, 12); a k^2 that
    overflows leaves entries inf or NaN, for the caller to refuse."""
    with np.errstate(over="ignore", invalid="ignore"):
        powers = ks[:, None] ** np.arange(3)
        return tuple(np.tensordot(powers, _plane_wave_symbol(s, d), 1) for s in specs)


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
    marked in ``unstable``, with NaN in ``frequencies``.
    """

    k_samples: np.ndarray
    direction: np.ndarray
    frequencies: np.ndarray      # (n_k, 12)
    omega_squared: np.ndarray    # (n_k, 12)

    @property
    def gaps(self) -> tuple:
        """The band gaps :func:`detect_band_gaps` reads off the samples."""
        return tuple(detect_band_gaps(self))

    @property
    def unstable(self) -> np.ndarray:
        """(n_k, 12) bool: the branches whose omega^2 is negative beyond
        round-off, which are the NaN frequencies."""
        return np.isnan(self.frequencies)

    @property
    def n_branches(self) -> int:
        return self.frequencies.shape[1]


def _unit_direction(direction) -> np.ndarray:
    d = np.asarray(direction, dtype=float)
    if d.shape != (3,):
        raise ValueError("direction must have three entries")
    scale = np.abs(d).max()
    if not 0 < scale < math.inf:
        raise ValueError("direction must be a nonzero finite vector")
    if not 1 / _SQUARE_SAFE < scale < _SQUARE_SAFE:
        d = d / scale  # its squared norm would under- or overflow
    return d / np.linalg.norm(d)


def _wavenumbers(k_samples) -> np.ndarray:
    """The wavenumber samples: nonnegative, finite and distinct, in any order;
    a repeated sample would read the spacing of branches at one k as gaps."""
    ks = np.asarray(k_samples, dtype=float)
    if ks.ndim != 1 or ks.size == 0:
        raise ValueError("k_samples must be a nonempty 1-d sequence")
    if not np.all((ks >= 0) & (ks < math.inf)):
        raise ValueError("wavenumber samples must be nonnegative and finite")
    if np.unique(ks).size != ks.size:
        raise ValueError("wavenumber samples must not repeat")
    return ks


def dispersion_curves(
    params: MaterialParams,
    direction,
    k_samples,
) -> DispersionResult:
    """Solve the plane-wave pencil for each wavenumber sample.

    Negative squared frequencies within 1e-10 (relative) of zero are
    round-off and clamped to zero; anything more negative is reported as an
    unstable branch.  A rate-energy pencil whose smallest eigenvalue is not
    above the round-off bound of ``eigvalsh``, 12 eps ||A(k)||_1, is not
    certified positive definite: that violates the inertia hypotheses and
    raises :class:`HypothesisError`, except at k = 0, where a singular one
    only means that a uniform wave carries no rate energy: that error asks
    for k > 0 instead.  A pencil that is not finite (k^2 overflows) raises
    ``ValueError``.
    """
    d = _unit_direction(direction)
    ks = _wavenumbers(k_samples)
    a, b = _symbols((form_spec_w1(params), form_spec_w2(params)), d, ks)
    finite = np.isfinite(a).all(axis=(1, 2)) & np.isfinite(b).all(axis=(1, 2))
    if not finite.all():
        k = float(ks[np.argmin(finite)])
        raise ValueError(f"k_samples: the plane-wave pencil at k={k!r} is not finite")
    a_min = np.linalg.eigvalsh(a)[:, 0]
    bound = _EIGVALSH_ERROR * np.abs(a).sum(axis=1).max(axis=1)  # n eps ||A(k)||_1
    bad = np.flatnonzero(a_min <= bound)
    if bad.size:
        s = bad[0]
        k, low = float(ks[s]), float(a_min[s])
        where = (f"rate-energy pencil not certified positive definite at k={k!r} "
                 f"(min eigenvalue {low!r} not above its round-off bound {float(bound[s])!r})")
        if k == 0.0 and low >= -_CLAMP_TOL * np.abs(a[s]).max():
            raise HypothesisError(
                f"{where}: a uniform wave carries no rate energy in this material, "
                "so wavenumber samples need k > 0"
            )
        raise HypothesisError(f"{where}; inertia hypotheses violated")
    omega2 = hermitian_dense_eig(b, a)

    scale = np.maximum(np.abs(omega2).max(axis=1, keepdims=True), 1.0)
    noise = (omega2 < 0) & (omega2 >= -_CLAMP_TOL * scale)
    clamped = np.where(noise, 0.0, omega2)
    freqs = np.where(clamped < 0, np.nan, np.sqrt(np.maximum(clamped, 0.0)))
    return DispersionResult(
        k_samples=ks,
        direction=d,
        frequencies=freqs,
        omega_squared=omega2,
    )


def detect_band_gaps(result: DispersionResult) -> list[BandGap]:
    """Maximal open frequency intervals between consecutive sampled branches.

    A gap spans (max over k of branch j, min over k of branch j+1) when that
    interval is wider than round-off, ``_CLAMP_TOL`` max(upper edge, 1), the
    rule that clamps omega^2; this is exact only up to the attached sampling
    resolution.  Samples with unstable branches are excluded; fewer than two
    stable samples give no gaps.  Each sample's branches are ascending, so no
    sample lies inside a gap.
    """
    mask = ~result.unstable.any(axis=1)
    if mask.sum() < 2:
        return []
    freqs = result.frequencies[mask]
    resolution = float(np.max(np.diff(np.sort(result.k_samples[mask]))))

    gaps: list[BandGap] = []
    branch_max = freqs.max(axis=0)
    branch_min = freqs.min(axis=0)
    for j in range(freqs.shape[1] - 1):
        lo = float(branch_max[j])
        hi = float(branch_min[j + 1])
        if hi - lo > _CLAMP_TOL * max(hi, 1.0):
            gaps.append(BandGap(lower=lo, upper=hi, k_resolution=resolution))
    return gaps
