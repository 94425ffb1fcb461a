"""Assembly of the two energy bilinear forms, the product-space Gram matrix,
and time-dependent load vectors.

One table-driven integrand kernel serves every form.  A form is described
by a :class:`FormSpec`: scalar mass coefficients plus constitutive tensors
acting on the symmetric/antisymmetric parts of the relative distortion
(grad u - P), on sym P, and on Curl P.  :func:`form_terms` is the one
reading of a spec, which the element kernel here and the plane-wave symbol
of :mod:`analysis` regroup.  Model variants only change the coefficient
table (:class:`~micromorph.tensors.ModelVariant` says which inertia terms
each keeps), never the code path.

Boundary-constrained dofs are eliminated, not penalized.  Each element
matrix is built from a few per-cell moments (see :func:`_element_blocks`);
each batch of cells adds its upper-triangular entries into the pattern that
the FE system caches (``FESystem.pair_keys``), and the operator is completed
as U + U^T, so it is exactly symmetric.
:func:`assemble_load` is the one load-vector function: the load table the FE
system caches (``FESystem.unit_duals``, built through the same dof table and
edge functions as the forms) times the load's values at t.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .fespace import (
    _EDGE_A, _EDGE_B, QUADRATURE_POINTS, QUADRATURE_WEIGHTS, FESystem, _edge_functions,
)
from .tensors import (
    ConstitutiveTensor4,
    MaterialParams,
    isotropic_curvature,
)

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "BlockLayout",
    "SparseSymOperator",
    "FormSpec",
    "form_spec_w1",
    "form_spec_w2",
    "form_spec_gram",
    "form_terms",
    "assemble_form",
    "assemble_w1",
    "assemble_w2",
    "assemble_gram",
    "TimeField",
    "LoadFunctional",
    "assemble_load",
]

_CHUNK = 128  # cells per assembly batch; one batch alive at a time bounds peak memory
_QUADRATIC_BLOCK = 32  # states per sparse-times-block product


@dataclass(frozen=True)
class BlockLayout:
    """Product-space layout: displacement block first, micro-distortion after."""

    u_size: int
    p_size: int

    @property
    def total(self) -> int:
        return self.u_size + self.p_size


@dataclass(frozen=True)
class SparseSymOperator:
    """Assembled symmetric bilinear form over the constrained dofs.

    ``spec`` is the form :func:`assemble_form` assembled it from, whose
    plane-wave symbol bounds its spectrum on every mesh; None for an
    operator built otherwise, such as a block or a scaled matrix."""

    matrix: sp.csr_matrix = field(repr=False)
    layout: BlockLayout
    spec: FormSpec | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        n = self.matrix.shape[0]
        if self.matrix.shape != (n, n):
            raise ValueError("operator matrix must be square")
        if self.layout.total != n:
            raise ValueError("block layout sizes must sum to the dimension")

    def quadratic(self, w: np.ndarray) -> float | np.ndarray:
        """w^T A w: a float for one state w, one value per row of a (k, n)
        stack.

        A is applied to blocks of ``_QUADRATIC_BLOCK`` rows at once, never to
        all rows, so the product stays small; one state is a block of one row.
        """
        rows = np.atleast_2d(w)
        out = np.empty(rows.shape[0])
        for start in range(0, rows.shape[0], _QUADRATIC_BLOCK):
            block = rows[start:start + _QUADRATIC_BLOCK]
            out[start:start + block.shape[0]] = np.einsum(
                "ij,ji->i", block, self.matrix @ block.T
            )
        return float(out[0]) if np.ndim(w) == 1 else out

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def p_block(self) -> "SparseSymOperator":
        n = self.layout.u_size
        return SparseSymOperator(
            self.matrix[n:, n:].tocsr(), BlockLayout(0, self.layout.p_size)
        )


@dataclass(frozen=True)
class FormSpec:
    """Coefficients of the generic integrand.

    mass_u * <u, v> + mass_p * <P, Q> + grad_u * <grad u, grad v>
    + <sym_relative . sym(grad u - P), sym(grad v - Q)>
    + <skew_relative . skew(grad u - P), skew(grad v - Q)>
    + <sym_micro . sym P, sym Q>
    + curl_coeff * <curl . Curl P, Curl Q>
    """

    mass_u: float = 0.0
    mass_p: float = 0.0
    grad_u: float = 0.0
    sym_relative: ConstitutiveTensor4 | None = None
    skew_relative: ConstitutiveTensor4 | None = None
    sym_micro: ConstitutiveTensor4 | None = None
    curl: ConstitutiveTensor4 | None = None
    curl_coeff: float = 1.0


def form_spec_w1(params: MaterialParams) -> FormSpec:
    """Rate-energy form: the mass terms the variant keeps plus the inertia
    tensors; a zero length scale silently removes the curvature-rate term.
    """
    v = params.variant
    return FormSpec(
        mass_u=params.rho if v.mass else 0.0,
        mass_p=params.micro_inertia if v.micro_mass else 0.0,
        sym_relative=params.inertia_elastic,
        skew_relative=params.inertia_coupling,
        sym_micro=params.inertia_micro,
        curl=params.inertia_curvature,
        curl_coeff=params.mu * params.length_scale**2,
    )


def form_spec_w2(params: MaterialParams) -> FormSpec:
    """Potential-energy form: the plain constitutive tensors, no mass terms."""
    return FormSpec(
        sym_relative=params.elastic,
        skew_relative=params.coupling,
        sym_micro=params.micro,
        curl=params.curvature,
        curl_coeff=params.mu * params.length_scale**2,
    )


def form_spec_gram() -> FormSpec:
    """Product norm of H1_0 x H(Curl): masses plus both derivative energies."""
    return FormSpec(
        mass_u=1.0,
        mass_p=1.0,
        grad_u=1.0,
        curl=isotropic_curvature(1.0),
        curl_coeff=1.0,
    )


def form_terms(spec: FormSpec) -> tuple[tuple[str, np.ndarray], ...]:
    """The integrand of ``spec`` as (field, M) terms, each adding <M f(w), f(v)>
    for the field f (u, grad u, grad u - P, P or Curl P, row-major) of w and v;
    an absent tensor is zero.  Consumers sum a field's terms in this order,
    which fixes the rounding of the operators and symbols built from them."""

    def action(tensor: ConstitutiveTensor4 | None) -> np.ndarray:
        return np.zeros((9, 9)) if tensor is None else tensor.action

    return (
        ("grad u - P", action(spec.sym_relative)),
        ("grad u - P", action(spec.skew_relative)),
        ("grad u", spec.grad_u * np.eye(9)),
        ("P", action(spec.sym_micro)),
        ("P", spec.mass_p * np.eye(9)),
        ("Curl P", spec.curl_coeff * action(spec.curl)),
        ("u", spec.mass_u * np.eye(3)),
    )


# moment blocks (uu, uP, PP, curl-curl) that each derivative field enters
_MOMENT_BLOCKS = {"grad u - P": [0, 1, 2], "grad u": [0], "P": [2], "Curl P": [3]}


def _full_index(action: np.ndarray) -> np.ndarray:
    """9x9 K with <M (e_i (x) v), e_j (x) v'> = sum_kl K[3k + l, 3i + j] v_k v'_l
    for a 9x9 M acting on row-major 3x3 matrices."""
    return action.reshape(3, 3, 3, 3).transpose(1, 3, 0, 2).reshape(9, 9)


def _block_tensors(spec: FormSpec) -> tuple[np.ndarray, np.ndarray]:
    """The 3x3 mass of u and the (4, 9, 9) full-index matrices acting on the
    uu, uP, PP and curl-curl moments, regrouped from :func:`form_terms`."""
    k = np.zeros((4, 9, 9))
    for name, m in form_terms(spec):
        if name == "u":
            mass = m
        else:
            k[_MOMENT_BLOCKS[name]] += _full_index(m)
    return mass, k


def _contract(moments: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Blocks (nc, x, 3, y, 3) from moments (nc, x, y, 3, 3) of v_x (x) v_y."""
    nc, nx, ny = moments.shape[:3]
    out = (moments.reshape(-1, 9) @ k).reshape(nc, nx, ny, 3, 3)
    return out.transpose(0, 1, 3, 2, 4)


def _element_blocks(sys: FESystem, spec: FormSpec, cells: np.ndarray):
    """uu (nc, 12, 12), uP (nc, 12, 18) and PP (nc, 18, 18) element blocks,
    built from per-cell moments; an all-zero uu or uP block is None.

    A u-dof (a, i) is lam_a e_i with grad u = e_i (x) g_a; a P-dof (e, i) is
    e_i (x) w_e with Curl = e_i (x) curl w_e.  Every tensor term between two
    dofs is therefore a full-index matrix applied to the integral of an
    outer product of their vector parts: g_a (x) g_b, g_a (x) w_f (with the
    minus sign of grad u - P), w_e (x) w_f and curl w_e (x) curl w_f.  The
    quadrature rule integrates these exactly.  The uu and PP blocks are
    symmetric up to round-off; the PU block is the transpose of uP.
    """
    mass, (k_uu, k_up, k_pp, k_curl) = _block_tensors(spec)
    lam = QUADRATURE_POINTS                               # (nq, 4)
    nc = cells.size
    g = sys.grad_hats[cells]                              # (nc, 4, 3)
    vol = sys.mesh.cell_volumes[cells]
    sign = sys.mesh.cell_edge_signs[cells][:, :, None]    # (nc, 6, 1)
    ga, gb = g[:, _EDGE_A], g[:, _EDGE_B]                 # (nc, 6, 3)
    weight = vol[:, None] * (6.0 * QUADRATURE_WEIGHTS)    # (nc, nq)
    cell_vol = vol[:, None, None, None, None]

    w = _edge_functions(sys, cells)                       # (nc, nq, 6, 3)
    w_flat = w.reshape(nc, -1, 18)
    ww = np.matmul(w_flat.transpose(0, 2, 1) * weight[:, None, :], w_flat)
    ww = ww.reshape(nc, 6, 3, 6, 3).transpose(0, 1, 3, 2, 4)
    curl = 2.0 * np.cross(ga, gb) * sign                  # (nc, 6, 3)
    pp = _contract(ww, k_pp) + _contract(
        cell_vol * curl[:, :, None, :, None] * curl[:, None, :, None, :], k_curl
    )

    uu = up = None
    if mass.any() or k_uu.any():
        uu = _contract(cell_vol * g[:, :, None, :, None] * g[:, None, :, None, :], k_uu)
        if mass.any():
            lam_lam = (lam.T * (6.0 * QUADRATURE_WEIGHTS)) @ lam   # reference 4x4 moment
            uu += cell_vol * mass[:, None, :] * lam_lam[:, None, :, None]
        uu = uu.reshape(nc, 12, 12)
    if k_up.any():
        w_int = np.einsum("cq,cqek->cek", weight, w)      # (nc, 6, 3)
        up = _contract(-g[:, :, None, :, None] * w_int[:, None, :, None, :], k_up)
        up = up.reshape(nc, 12, 18)
    return uu, up, pp.reshape(nc, 18, 18)


def _batch_entries(sys: FESystem, spec: FormSpec, cells: np.ndarray):
    """Pattern slots and values of one batch's upper-triangular entries.

    The uu and PP blocks are symmetrised and their diagonals halved, because
    the operator is completed as U + U^T; every uP entry lies above the
    diagonal, since the displacement dofs come first.
    """
    uu, up, pp = _element_blocks(sys, spec, cells)
    dofs = sys.cell_dofs[cells]
    u_dofs, p_dofs = dofs[:, :12], dofs[:, 12:]
    keys, values = [], []
    for rows, cols, block, diagonal in (
        (u_dofs, u_dofs, uu, True),
        (u_dofs, p_dofs, up, False),
        (p_dofs, p_dofs, pp, True),
    ):
        if block is None:
            continue
        if diagonal:
            block = 0.5 * (block + block.transpose(0, 2, 1))
            diag = np.arange(block.shape[1])
            block[:, diag, diag] *= 0.5
        rows, cols = rows[:, :, None], cols[:, None, :]
        upper = (rows >= 0) & (rows <= cols)
        keys.append((rows * sys.n_dofs + cols)[upper])
        values.append(block[upper])
    return np.searchsorted(sys.pair_keys, np.concatenate(keys)), np.concatenate(values)


def assemble_form(sys: FESystem, spec: FormSpec) -> SparseSymOperator:
    """Assemble the symmetric operator of a generic integrand.

    Cells are processed in fixed-size batches, each added into the
    upper-triangular pattern ``sys.pair_keys`` before the next is built.
    Exact zeros are not stored.  Raises ``ValueError`` when an entry is not
    finite, as when a finite modulus times the mesh's derivative scale
    overflows, before any factor or eigensolver sees it; the batches run
    with numpy's overflow and invalid-value warnings off, so that error is
    the one report of it.
    """
    import scipy.sparse as sp

    n = sys.n_dofs
    keys = sys.pair_keys
    data = np.zeros(keys.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, sys.mesh.n_cells, _CHUNK):
            cells = np.arange(start, min(start + _CHUNK, sys.mesh.n_cells))
            slots, values = _batch_entries(sys, spec, cells)
            np.add.at(data, slots, values)

    indptr = np.searchsorted(keys, np.arange(n + 1) * n)
    upper = sp.csr_matrix((data, keys % n, indptr), shape=(n, n))
    # exactly symmetric; the sparse sum also drops exact zeros
    matrix = upper + upper.T
    if not np.isfinite(matrix.data).all():
        raise ValueError(
            "assembled operator is not finite: a modulus overflows on this mesh"
        )
    return SparseSymOperator(matrix, BlockLayout(sys.n_u_dofs, sys.n_p_dofs), spec)


def assemble_w1(params: MaterialParams, sys: FESystem) -> SparseSymOperator:
    """Operator of the rate-energy (inertia) bilinear form."""
    return assemble_form(sys, form_spec_w1(params))


def assemble_w2(params: MaterialParams, sys: FESystem) -> SparseSymOperator:
    """Operator of the potential-energy bilinear form."""
    return assemble_form(sys, form_spec_w2(params))


def assemble_gram(sys: FESystem) -> SparseSymOperator:
    """Gram matrix of the H1_0 x H(Curl) product inner product."""
    return assemble_form(sys, form_spec_gram())


@dataclass(frozen=True)
class TimeField:
    """Spatially uniform, time-dependent field value.

    kinds: 'poly' (coefficients of powers of t, constant first); 'table'
    (sample times and values, linear interpolation, evaluation outside the
    table is a range error).  :meth:`zero` and :meth:`constant` build the
    degree-0 polynomial.
    """

    kind: str
    shape: tuple[int, ...]
    data: tuple = ()

    @classmethod
    def zero(cls, shape) -> "TimeField":
        return cls.polynomial([np.zeros(shape)])

    @classmethod
    def constant(cls, value) -> "TimeField":
        return cls.polynomial([value])

    @classmethod
    def polynomial(cls, coefficients) -> "TimeField":
        coeffs = [np.asarray(c, dtype=float) for c in coefficients]
        if not coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        shape = coeffs[0].shape
        if any(c.shape != shape for c in coeffs):
            raise ValueError("polynomial coefficients must share one shape")
        return cls("poly", shape, tuple(coeffs))

    @classmethod
    def table(cls, times, values) -> "TimeField":
        times = np.asarray(times, dtype=float)
        values = [np.asarray(v, dtype=float) for v in values]
        if times.ndim != 1 or len(values) != times.size or times.size < 2:
            raise ValueError("table needs matching times and values, two or more")
        if np.any(np.diff(times) <= 0):
            raise ValueError("table times must be strictly increasing")
        return cls("table", values[0].shape, (times, tuple(values)))

    def __call__(self, t: float) -> np.ndarray:
        """The value at ``t``; a ValueError names ``t`` outside a table or
        where the value is not finite (a power or a product overflowed)."""
        t = np.float64(t)  # powers overflow to inf instead of raising
        with np.errstate(over="ignore", invalid="ignore"):
            if self.kind == "poly":
                out = np.zeros(self.shape)
                for k, c in enumerate(self.data):
                    out = out + c * t**k
            else:
                times, values = self.data
                if t < times[0] or t > times[-1]:
                    raise ValueError(
                        f"time {float(t)!r} outside the sampled table "
                        f"[{float(times[0])!r}, {float(times[-1])!r}]"
                    )
                j = int(np.clip(np.searchsorted(times, t, side="right") - 1,
                                0, times.size - 2))
                s = (t - times[j]) / (times[j + 1] - times[j])
                out = (1.0 - s) * values[j] + s * values[j + 1]
        if not np.all(np.isfinite(out)):
            raise ValueError(f"value at time {float(t)!r} is not finite")
        return out


@dataclass(frozen=True)
class LoadFunctional:
    """Body force (3,) and double body force (3, 3) specifications."""

    body_force: TimeField
    double_force: TimeField

    @classmethod
    def constant(cls, f=None, m=None) -> "LoadFunctional":
        bf = TimeField.constant(f) if f is not None else TimeField.zero((3,))
        df = TimeField.constant(m) if m is not None else TimeField.zero((3, 3))
        return cls(bf, df)


def assemble_load(load: LoadFunctional, sys: FESystem, t: float) -> np.ndarray:
    """Dual vector of the load at time t over the product space: the load
    table ``sys.unit_duals``, built once per system, times (f(t), vec m(t))."""
    f, m = load.body_force(t), load.double_force(t)
    return sys.unit_duals @ np.concatenate([f, m.ravel()])
