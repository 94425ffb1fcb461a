"""Assembly of the two energy bilinear forms, the product-space Gram matrix,
and time-dependent load vectors.

One table-driven integrand kernel serves every form.  A form is described
by a :class:`FormSpec`: scalar mass coefficients plus constitutive tensors
acting on the symmetric/antisymmetric parts of the relative distortion
(grad u - P), on sym P, and on Curl P.  Model variants only change the
coefficient table, never the code path.

Boundary-constrained dofs are eliminated, not penalized, so the assembled
operators keep exact symmetry: the final matrix is symmetrized entrywise,
which is bitwise exact because the (i, j) and (j, i) accumulants are equal
sums in the same order.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import MicromorphError
from .fespace import FESystem
from .mesh import LOCAL_EDGES
from .tensors import (
    ConstitutiveTensor4,
    MaterialParams,
    ModelVariant,
    SymmetryClass,
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

_CHUNK = 128  # cells per assembly batch; fixed so results do not depend on threads


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

    def diagonal(self) -> np.ndarray:
        return self.matrix.diagonal()

    def u_block(self) -> "SparseSymOperator":
        n = self.layout.u_size
        return SparseSymOperator(
            self.matrix[:n, :n].tocsr(), BlockLayout(n, 0)
        )

    def p_block(self) -> "SparseSymOperator":
        n = self.layout.p_offset
        return SparseSymOperator(
            self.matrix[n:, n:].tocsr(), BlockLayout(0, self.layout.p_size)
        )

    @classmethod
    def zeros(cls, layout: BlockLayout) -> "SparseSymOperator":
        import scipy.sparse as sp

        n = layout.total
        return cls(sp.csr_matrix((n, n)), layout)

    @classmethod
    def from_dense(cls, m, layout: BlockLayout | None = None) -> "SparseSymOperator":
        import scipy.sparse as sp

        m = np.atleast_2d(np.asarray(m, dtype=float))
        if layout is None:
            layout = BlockLayout(m.shape[0], 0)
        return cls(sp.csr_matrix(m), layout)


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


def _local_fields(sys: FESystem, cells: np.ndarray):
    """Per-cell basis fields at quadrature points for a batch of cells.

    Returns value arrays over the 30 local dofs: displacement values
    (nc, nq, 30, 3), micro-distortion values (nc, nq, 30, 3, 3), relative
    distortion grad u - P (same shape), the constant displacement gradients
    (nc, 30, 3, 3), and constant curls (nc, 30, 3, 3).
    """
    quad = sys.quadrature
    nq = quad.points.shape[0]
    nc = cells.size
    g = sys.grad_hats[cells]                       # (nc, 4, 3)
    signs = sys.mesh.cell_edge_signs[cells]        # (nc, 6)

    u_val = np.zeros((nc, nq, 30, 3))
    p_val = np.zeros((nc, nq, 30, 3, 3))
    grad_u = np.zeros((nc, 30, 3, 3))
    curl_p = np.zeros((nc, 30, 3, 3))

    lam = quad.points                              # (nq, 4)
    for a in range(4):
        for i in range(3):
            k = 3 * a + i
            u_val[:, :, k, i] = lam[:, a]
            grad_u[:, k, i, :] = g[:, a, :]

    for e, (a, b) in enumerate(LOCAL_EDGES):
        # (nc, nq, 3) edge function, (nc, 3) its constant curl
        w = (
            lam[None, :, a, None] * g[:, None, b, :]
            - lam[None, :, b, None] * g[:, None, a, :]
        ) * signs[:, e, None, None]
        c = 2.0 * np.cross(g[:, a, :], g[:, b, :]) * signs[:, e, None]
        for i in range(3):
            k = 12 + 3 * e + i
            p_val[:, :, k, i, :] = w
            curl_p[:, k, i, :] = c

    rel = grad_u[:, None, :, :, :] - p_val
    return u_val, p_val, rel, grad_u, curl_p


def _class_coords(x: np.ndarray, symmetry_class: SymmetryClass) -> np.ndarray:
    basis = symmetry_class.basis
    return np.einsum("mij,...ij->...m", basis, x)


def _assemble_chunk(sys: FESystem, spec: FormSpec, cells: np.ndarray):
    quad = sys.quadrature
    u_val, p_val, rel, grad_u, curl_p = _local_fields(sys, cells)
    vols = sys.mesh.cell_volumes[cells]
    w_phys = 6.0 * vols[:, None] * quad.weights[None, :]   # (nc, nq)

    local = np.zeros((cells.size, 30, 30))
    if spec.mass_u:
        local += spec.mass_u * np.einsum(
            "cq,cqki,cqli->ckl", w_phys, u_val, u_val, optimize=True
        )
    if spec.mass_p:
        local += spec.mass_p * np.einsum(
            "cq,cqkij,cqlij->ckl", w_phys, p_val, p_val, optimize=True
        )
    if spec.grad_u:
        local += (spec.grad_u * vols)[:, None, None] * np.einsum(
            "ckij,clij->ckl", grad_u, grad_u, optimize=True
        )

    # the tensor's class projects out the relevant part of each field
    for tensor, values in (
        (spec.sym_relative, rel),
        (spec.skew_relative, rel),
        (spec.sym_micro, p_val),
    ):
        if tensor is None:
            continue
        coords = _class_coords(values, tensor.symmetry_class)
        local += np.einsum(
            "cq,cqka,ab,cqlb->ckl", w_phys, coords, tensor.matrix, coords,
            optimize=True,
        )

    if spec.curl is not None and spec.curl_coeff:
        coords = _class_coords(curl_p, spec.curl.symmetry_class)
        local += (spec.curl_coeff * vols)[:, None, None] * np.einsum(
            "cka,ab,clb->ckl", coords, spec.curl.matrix, coords, optimize=True
        )

    dofs = sys.cell_dofs[cells]                    # (nc, 30)
    rows = np.broadcast_to(dofs[:, :, None], local.shape).ravel()
    cols = np.broadcast_to(dofs[:, None, :], local.shape).ravel()
    vals = local.ravel()
    keep = (rows >= 0) & (cols >= 0)
    return rows[keep], cols[keep], vals[keep]


def _n_threads() -> int:
    raw = os.environ.get("MICROMORPH_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise MicromorphError(f"MICROMORPH_THREADS must be an integer, got {raw!r}")


def assemble_form(sys: FESystem, spec: FormSpec) -> SparseSymOperator:
    """Assemble the symmetric operator of a generic integrand.

    Cells are processed in fixed-size batches; batches may run on a thread
    pool (MICROMORPH_THREADS) but are reduced in batch order, so the result
    is identical for any thread count.
    """
    import scipy.sparse as sp

    n = sys.n_dofs
    layout = BlockLayout(sys.n_u_dofs, sys.n_p_dofs)
    chunks = [
        np.arange(start, min(start + _CHUNK, sys.mesh.n_cells))
        for start in range(0, sys.mesh.n_cells, _CHUNK)
    ]
    workers = _n_threads()
    if workers > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda c: _assemble_chunk(sys, spec, c), chunks))
    else:
        parts = [_assemble_chunk(sys, spec, c) for c in chunks]

    rows = np.concatenate([p[0] for p in parts]) if parts else np.empty(0, int)
    cols = np.concatenate([p[1] for p in parts]) if parts else np.empty(0, int)
    vals = np.concatenate([p[2] for p in parts]) if parts else np.empty(0)
    mat = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    mat = ((mat + mat.T) * 0.5).tocsr()   # entrywise-exact symmetry
    return SparseSymOperator(mat, layout)


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
    def zero(cls) -> "LoadFunctional":
        return cls(TimeField.zero((3,)), TimeField.zero((3, 3)))

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
