"""Assembly of the two energy bilinear forms, the product-space Gram matrix,
and time-dependent load vectors.

One table-driven integrand kernel serves every form.  A form is described
by a :class:`FormSpec`: scalar mass coefficients plus constitutive tensors
acting on the symmetric/antisymmetric parts of the relative distortion
(grad u - P), on sym P, and on Curl P.  Model variants only change the
coefficient table, never the code path.

Boundary-constrained dofs are eliminated, not penalized.  Each element
matrix is built from a few per-cell moments (see :func:`_element_blocks`);
each batch of cells adds its upper-triangular entries into the pattern that
the FE system caches (``FESystem.pair_keys``), and the operator is completed
as U + U^T, so it is exactly symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .fespace import FESystem
from .mesh import LOCAL_EDGES
from .tensors import (
    ConstitutiveTensor4,
    MaterialParams,
    ModelVariant,
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
    "assemble_form",
    "assemble_w1",
    "assemble_w2",
    "assemble_gram",
    "TimeField",
    "LoadFunctional",
    "assemble_load",
    "load_assembler",
    "combine_operators",
]

_CHUNK = 128  # cells per assembly batch; one batch alive at a time bounds peak memory


@dataclass(frozen=True)
class BlockLayout:
    """Product-space layout: displacement block first, micro-distortion after."""

    u_size: int
    p_size: int

    @property
    def total(self) -> int:
        return self.u_size + self.p_size

    @property
    def p_offset(self) -> int:
        return self.u_size


@dataclass(frozen=True)
class SparseSymOperator:
    """Assembled symmetric bilinear form over the constrained dofs."""

    matrix: sp.csr_matrix = field(repr=False)
    layout: BlockLayout

    def __post_init__(self):
        n = self.matrix.shape[0]
        if self.matrix.shape != (n, n):
            raise ValueError("operator matrix must be square")
        if self.layout.total != n:
            raise ValueError("block layout sizes must sum to the dimension")

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def matvec(self, w: np.ndarray) -> np.ndarray:
        return self.matrix @ w

    def quadratic(self, w: np.ndarray) -> float:
        return float(w @ (self.matrix @ w))

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def p_block(self) -> "SparseSymOperator":
        n = self.layout.p_offset
        return SparseSymOperator(
            self.matrix[n:, n:].tocsr(), BlockLayout(0, self.layout.p_size)
        )


def combine_operators(
    a: float, op_a: SparseSymOperator, b: float, op_b: SparseSymOperator
) -> SparseSymOperator:
    """a * A + b * B with the shared layout preserved."""
    if op_a.layout != op_b.layout:
        raise ValueError("operators have different block layouts")
    return SparseSymOperator((a * op_a.matrix + b * op_b.matrix).tocsr(), op_a.layout)


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
    """Rate-energy form: mass terms plus the inertia tensors.

    The micro mass term is dropped in the simplified variant, both mass
    terms in the quasistatic one; a zero length scale silently removes the
    curvature-rate term.
    """
    v = params.variant
    mass_u = 0.0 if v is ModelVariant.QUASISTATIC else params.rho
    mass_p = (
        params.micro_inertia
        if v in (ModelVariant.FULL_INERTIA, ModelVariant.ZERO_LENGTH_SCALE)
        else 0.0
    )
    return FormSpec(
        mass_u=mass_u,
        mass_p=mass_p,
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


_EDGE_A, _EDGE_B = np.array(LOCAL_EDGES).T   # local end vertices of each edge
_INNER = np.outer(np.eye(3).ravel(), np.eye(3).ravel())   # <X, Y> in full index


def _full_index(tensor: ConstitutiveTensor4 | None) -> np.ndarray:
    """9x9 K with <T (e_i (x) v), e_j (x) v'> = sum_kl K[3k + l, 3i + j] v_k v'_l.

    This is B^T M B of the tensor's class basis B, regrouped; the class
    projection (sym, skew or none) is implicit in B.
    """
    if tensor is None:
        return np.zeros((9, 9))
    basis = tensor.symmetry_class.basis.reshape(-1, 9)
    k = (basis.T @ tensor.matrix @ basis).reshape(3, 3, 3, 3)   # [i, k, j, l]
    return k.transpose(1, 3, 0, 2).reshape(9, 9)


def _block_tensors(spec: FormSpec) -> tuple[np.ndarray, ...]:
    """Full-index matrices acting on the uu, uP, PP and curl-curl moments.

    The relative-distortion tensors act on all three blocks, the mass of P
    and the gradient term are <., .> on their moments, sym P only on PP.
    """
    relative = _full_index(spec.sym_relative) + _full_index(spec.skew_relative)
    return (
        relative + spec.grad_u * _INNER,
        relative,
        relative + _full_index(spec.sym_micro) + spec.mass_p * _INNER,
        spec.curl_coeff * _full_index(spec.curl),
    )


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
    k_uu, k_up, k_pp, k_curl = _block_tensors(spec)
    quad = sys.quadrature
    lam = quad.points                                     # (nq, 4)
    nc = cells.size
    g = sys.grad_hats[cells]                              # (nc, 4, 3)
    vol = sys.mesh.cell_volumes[cells]
    sign = sys.mesh.cell_edge_signs[cells][:, :, None]    # (nc, 6, 1)
    ga, gb = g[:, _EDGE_A], g[:, _EDGE_B]                 # (nc, 6, 3)
    weight = vol[:, None] * (6.0 * quad.weights)          # (nc, nq)
    cell_vol = vol[:, None, None, None, None]

    # edge functions s_e (lam_a g_b - lam_b g_a) at the quadrature points
    w = (
        lam[:, _EDGE_A, None] * gb[:, None] - lam[:, _EDGE_B, None] * ga[:, None]
    ) * sign[:, None]                                     # (nc, nq, 6, 3)
    w_flat = w.reshape(nc, -1, 18)
    ww = np.matmul(w_flat.transpose(0, 2, 1) * weight[:, None, :], w_flat)
    ww = ww.reshape(nc, 6, 3, 6, 3).transpose(0, 1, 3, 2, 4)
    curl = 2.0 * np.cross(ga, gb) * sign                  # (nc, 6, 3)
    pp = _contract(ww, k_pp) + _contract(
        cell_vol * curl[:, :, None, :, None] * curl[:, None, :, None, :], k_curl
    )

    uu = up = None
    if spec.mass_u or k_uu.any():
        uu = _contract(cell_vol * g[:, :, None, :, None] * g[:, None, :, None, :], k_uu)
        if spec.mass_u:
            lam_lam = (lam.T * (6.0 * quad.weights)) @ lam   # reference 4x4 moment
            delta = lam_lam[:, None, :, None] * np.eye(3)[:, None, :]   # (4, 3, 4, 3)
            uu += spec.mass_u * cell_vol * delta
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
    Exact zeros are not stored.
    """
    import scipy.sparse as sp

    n = sys.n_dofs
    keys = sys.pair_keys
    data = np.zeros(keys.size)
    for start in range(0, sys.mesh.n_cells, _CHUNK):
        cells = np.arange(start, min(start + _CHUNK, sys.mesh.n_cells))
        slots, values = _batch_entries(sys, spec, cells)
        np.add.at(data, slots, values)

    indptr = np.searchsorted(keys, np.arange(n + 1) * n)
    upper = sp.csr_matrix((data, keys % n, indptr), shape=(n, n))
    # exactly symmetric; the sparse sum also drops exact zeros
    return SparseSymOperator(upper + upper.T, BlockLayout(sys.n_u_dofs, sys.n_p_dofs))


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

    kinds: 'zero'; 'constant' (fixed value); 'poly' (coefficients of powers
    of t, constant first); 'table' (sample times and values, linear
    interpolation, evaluation outside the table is a range error).
    """

    kind: str
    shape: tuple[int, ...]
    data: tuple = ()

    @classmethod
    def zero(cls, shape) -> "TimeField":
        return cls("zero", tuple(shape))

    @classmethod
    def constant(cls, value) -> "TimeField":
        value = np.asarray(value, dtype=float)
        return cls("constant", value.shape, (value,))

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
        if self.kind == "zero":
            return np.zeros(self.shape)
        if self.kind == "constant":
            return self.data[0]
        if self.kind == "poly":
            out = np.zeros(self.shape)
            for k, c in enumerate(self.data):
                out = out + c * t**k
            return out
        times, values = self.data
        if t < times[0] or t > times[-1]:
            raise ValueError(
                f"time {float(t)!r} outside the sampled table "
                f"[{float(times[0])!r}, {float(times[-1])!r}]"
            )
        j = int(np.clip(np.searchsorted(times, t, side="right") - 1, 0, times.size - 2))
        s = (t - times[j]) / (times[j + 1] - times[j])
        return (1.0 - s) * values[j] + s * values[j + 1]


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


def _hat_integrals(sys: FESystem) -> np.ndarray:
    """Integral of each interior vertex hat function over the domain."""
    out = np.zeros(max(sys.n_u_dofs // 3, 1))
    rank = sys.u_map.entity_rank[sys.mesh.cells]   # (nc, 4)
    contrib = sys.mesh.cell_volumes / 4.0          # exact for linear hats
    for a in range(4):
        r = rank[:, a]
        np.add.at(out, r[r >= 0], contrib[r >= 0])
    return out


def _edge_integrals(sys: FESystem) -> np.ndarray:
    """(n_interior_edges, 3) integrals of each oriented edge function."""
    quad = sys.quadrature
    n_int = max(sys.n_p_dofs // 3, 1)
    out = np.zeros((n_int, 3))
    g = sys.grad_hats
    signs = sys.mesh.cell_edge_signs
    rank = sys.p_map.entity_rank[sys.mesh.cell_edges]
    lam_bar = quad.points.mean(axis=0)  # equal weights: mean is exact for linears
    for e, (a, b) in enumerate(LOCAL_EDGES):
        w_int = (
            (lam_bar[a] * g[:, b, :] - lam_bar[b] * g[:, a, :])
            * signs[:, e, None]
            * sys.mesh.cell_volumes[:, None]
        )
        r = rank[:, e]
        np.add.at(out, r[r >= 0], w_int[r >= 0])
    return out


def load_assembler(load: LoadFunctional, sys: FESystem):
    """``t -> assemble_load(load, sys, t)`` with the hat and edge integrals
    computed once, for loads evaluated at many times."""
    hats = _hat_integrals(sys) if sys.n_u_dofs else None
    w_int = _edge_integrals(sys) if sys.n_p_dofs else None    # (n_int, 3)

    def at(t: float) -> np.ndarray:
        f = load.body_force(t)
        m = load.double_force(t)
        out = np.zeros(sys.n_dofs)
        if hats is not None:
            out[: sys.n_u_dofs] = (hats[:, None] * f[None, :]).ravel()
        if w_int is not None:
            p = np.einsum("rj,ej->re", m, w_int)   # (row, edge)
            out[sys.n_u_dofs:] = p.reshape(sys.n_p_dofs)
        return out

    return at


def assemble_load(load: LoadFunctional, sys: FESystem, t: float) -> np.ndarray:
    """Dual vector of the load at time t over the product space."""
    return load_assembler(load, sys)(t)
