"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the package's computational paths:
dense quadruple-loop tensor contraction, per-cell dense assembly from
first-principles basis formulas under a *different* quadrature rule
(degree-3 with a negative centroid weight), the per-quadrature-point
element kernel that the moment kernel of ``micromorph.assembly`` replaced,
a strong-form plane-wave pencil builder via explicit index expansion, and
the point evaluation of basis functions and discrete fields on one cell,
which only the tests need, and the prolongation of coarse fields onto a
nested fine mesh built on that point evaluation.  :func:`plane_wave_pencil`
is no oracle: it evaluates the package's own pencil at one wavenumber for
comparison, and :func:`random_material` draws the anisotropic inputs that
several test modules hand to both sides.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from micromorph.fespace import QUADRATURE_POINTS, QUADRATURE_WEIGHTS
from micromorph.mesh import LOCAL_EDGES
from micromorph.tensors import ConstitutiveTensor4, ModelVariant, isotropic_material


def dense_c4(tensor) -> np.ndarray:
    """Dense C[i,j,k,l] from the stored representation and class basis."""
    basis = tensor.symmetry_class.basis
    return np.einsum("mij,mn,nkl->ijkl", basis, tensor.matrix, basis)


def apply4(c4: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(C.X)_ij = C_ijkl X_kl by explicit loops."""
    out = np.zeros((3, 3), dtype=x.dtype)
    for i in range(3):
        for j in range(3):
            acc = 0.0
            for k in range(3):
                for l in range(3):
                    acc = acc + c4[i, j, k, l] * x[k, l]
            out[i, j] = acc
    return out


def apply4_complex(c4: np.ndarray, x: np.ndarray) -> np.ndarray:
    return apply4(c4, x.real) + 1j * apply4(c4, x.imag)


# degree-3 Keast rule: centroid with negative weight plus four points
_KEAST3_POINTS = np.array(
    [
        [0.25, 0.25, 0.25, 0.25],
        [0.5, 1 / 6, 1 / 6, 1 / 6],
        [1 / 6, 0.5, 1 / 6, 1 / 6],
        [1 / 6, 1 / 6, 0.5, 1 / 6],
        [1 / 6, 1 / 6, 1 / 6, 0.5],
    ]
)
_KEAST3_WEIGHTS = np.array([-2 / 15, 3 / 40, 3 / 40, 3 / 40, 3 / 40])  # sum 1/6


def _hat_coefficients(verts: np.ndarray) -> np.ndarray:
    """(4, 4) matrix whose column a holds (c0, cx, cy, cz) of hat_a."""
    m = np.hstack([np.ones((4, 1)), verts])
    return np.linalg.inv(m)


def dense_form_matrix(sys, spec, n_dofs: int | None = None) -> np.ndarray:
    """Dense assembly of a FormSpec by first-principles quadrature.

    Uses barycentric coordinates from a Vandermonde solve, the Keast
    degree-3 rule, and quadruple-loop tensor application.
    """
    mesh = sys.mesh
    n = sys.n_dofs if n_dofs is None else n_dofs
    out = np.zeros((n, n))
    c4 = {
        "sym_relative": dense_c4(spec.sym_relative) if spec.sym_relative else None,
        "skew_relative": dense_c4(spec.skew_relative) if spec.skew_relative else None,
        "sym_micro": dense_c4(spec.sym_micro) if spec.sym_micro else None,
        "curl": dense_c4(spec.curl) if spec.curl else None,
    }
    n_int_edges = sys.n_p_dofs // 3

    for c in range(mesh.n_cells):
        vids = mesh.cells[c]
        verts = mesh.vertices[vids]
        vol = mesh.cell_volumes[c]
        coeff = _hat_coefficients(verts)
        grads = coeff[1:, :].T                     # (4, 3) hat gradients

        # independent local -> global map
        gdofs = []
        for a in range(4):
            r = sys.u_map.entity_rank[vids[a]]
            for i in range(3):
                gdofs.append(3 * r + i if r >= 0 else -1)
        for e in range(6):
            ge = mesh.cell_edges[c, e]
            r = sys.p_map.entity_rank[ge]
            for i in range(3):
                gdofs.append(sys.n_u_dofs + i * n_int_edges + r if r >= 0 else -1)

        local = np.zeros((30, 30))
        for qp, qw in zip(_KEAST3_POINTS, _KEAST3_WEIGHTS):
            x = qp @ verts
            lam = coeff.T @ np.array([1.0, x[0], x[1], x[2]])
            w_phys = 6.0 * vol * qw

            u_vals = np.zeros((30, 3))
            p_vals = np.zeros((30, 3, 3))
            gu_vals = np.zeros((30, 3, 3))
            curl_vals = np.zeros((30, 3, 3))
            for a in range(4):
                for i in range(3):
                    k = 3 * a + i
                    u_vals[k, i] = lam[a]
                    gu_vals[k, i, :] = grads[a]
            for e, (a, b) in enumerate(LOCAL_EDGES):
                sign = 1.0 if vids[a] < vids[b] else -1.0
                w_e = sign * (lam[a] * grads[b] - lam[b] * grads[a])
                c_e = sign * 2.0 * np.cross(grads[a], grads[b])
                for i in range(3):
                    k = 12 + 3 * e + i
                    p_vals[k, i, :] = w_e
                    curl_vals[k, i, :] = c_e
            rel = gu_vals - p_vals

            for k in range(30):
                gk = gdofs[k]
                if gk < 0:
                    continue
                sym_rel_k = 0.5 * (rel[k] + rel[k].T)
                skew_rel_k = 0.5 * (rel[k] - rel[k].T)
                sym_p_k = 0.5 * (p_vals[k] + p_vals[k].T)
                t_rel = (
                    apply4(c4["sym_relative"], sym_rel_k)
                    if c4["sym_relative"] is not None else None
                )
                t_skew = (
                    apply4(c4["skew_relative"], skew_rel_k)
                    if c4["skew_relative"] is not None else None
                )
                t_micro = (
                    apply4(c4["sym_micro"], sym_p_k)
                    if c4["sym_micro"] is not None else None
                )
                t_curl = (
                    apply4(c4["curl"], curl_vals[k])
                    if c4["curl"] is not None else None
                )
                for l in range(30):
                    gl = gdofs[l]
                    if gl < 0:
                        continue
                    val = 0.0
                    if spec.mass_u:
                        val += spec.mass_u * u_vals[k] @ u_vals[l]
                    if spec.mass_p:
                        val += spec.mass_p * np.sum(p_vals[k] * p_vals[l])
                    if spec.grad_u:
                        val += spec.grad_u * np.sum(gu_vals[k] * gu_vals[l])
                    if t_rel is not None:
                        val += np.sum(t_rel * rel[l])
                    if t_skew is not None:
                        val += np.sum(t_skew * rel[l])
                    if t_micro is not None:
                        val += np.sum(t_micro * p_vals[l])
                    if t_curl is not None:
                        val += spec.curl_coeff * np.sum(t_curl * curl_vals[l])
                    local[k, l] += w_phys * val

        for k in range(30):
            if gdofs[k] < 0:
                continue
            for l in range(30):
                if gdofs[l] < 0:
                    continue
                out[gdofs[k], gdofs[l]] += local[k, l]
    return out


def _quadrature_point_fields(sys, cells):
    """Per-cell basis fields at the quadrature points of ``sys``.

    Displacement values (nc, nq, 30, 3), micro-distortion values
    (nc, nq, 30, 3, 3), relative distortion grad u - P (same shape),
    constant displacement gradients (nc, 30, 3, 3) and curls (nc, 30, 3, 3),
    dense over the 30 local dofs.
    """
    nq = QUADRATURE_POINTS.shape[0]
    nc = cells.size
    g = sys.grad_hats[cells]
    signs = sys.mesh.cell_edge_signs[cells]

    u_val = np.zeros((nc, nq, 30, 3))
    p_val = np.zeros((nc, nq, 30, 3, 3))
    grad_u = np.zeros((nc, 30, 3, 3))
    curl_p = np.zeros((nc, 30, 3, 3))

    lam = QUADRATURE_POINTS
    for a in range(4):
        for i in range(3):
            k = 3 * a + i
            u_val[:, :, k, i] = lam[:, a]
            grad_u[:, k, i, :] = g[:, a, :]

    for e, (a, b) in enumerate(LOCAL_EDGES):
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


def quadrature_point_form_matrix(sys, spec) -> np.ndarray:
    """Dense operator of a FormSpec from per-quadrature-point fields.

    Same quadrature rule as the package, but every field is tabulated at
    every point over all 30 local dofs, projected onto each tensor's class
    basis and contracted by one einsum per term; the sum is symmetrised.
    """
    cells = np.arange(sys.mesh.n_cells)
    u_val, p_val, rel, grad_u, curl_p = _quadrature_point_fields(sys, cells)
    vols = sys.mesh.cell_volumes
    w_phys = 6.0 * vols[:, None] * QUADRATURE_WEIGHTS[None, :]

    def coords(x, tensor):
        return np.einsum("mij,...ij->...m", tensor.symmetry_class.basis, x)

    local = np.zeros((cells.size, 30, 30))
    if spec.mass_u:
        local += spec.mass_u * np.einsum("cq,cqki,cqli->ckl", w_phys, u_val, u_val)
    if spec.mass_p:
        local += spec.mass_p * np.einsum(
            "cq,cqkij,cqlij->ckl", w_phys, p_val, p_val
        )
    if spec.grad_u:
        local += (spec.grad_u * vols)[:, None, None] * np.einsum(
            "ckij,clij->ckl", grad_u, grad_u
        )
    for tensor, values in (
        (spec.sym_relative, rel),
        (spec.skew_relative, rel),
        (spec.sym_micro, p_val),
    ):
        if tensor is None:
            continue
        c = coords(values, tensor)
        local += np.einsum(
            "cq,cqka,ab,cqlb->ckl", w_phys, c, tensor.matrix, c, optimize=True
        )
    if spec.curl is not None and spec.curl_coeff:
        c = coords(curl_p, spec.curl)
        local += (spec.curl_coeff * vols)[:, None, None] * np.einsum(
            "cka,ab,clb->ckl", c, spec.curl.matrix, c
        )

    n = sys.n_dofs
    out = np.zeros((n, n))
    dofs = sys.cell_dofs
    rows = np.broadcast_to(dofs[:, :, None], local.shape)
    cols = np.broadcast_to(dofs[:, None, :], local.shape)
    keep = (rows >= 0) & (cols >= 0)
    np.add.at(out, (rows[keep], cols[keep]), local[keep])
    return 0.5 * (out + out.T)


def strong_form_pencil(params, direction, k: float):
    """Plane-wave pencil built from the strong-form balance equations.

    Columns are the equations' amplitude operators applied to canonical unit
    amplitudes; tensor applications use the dense quadruple-loop contraction.
    """
    d = np.asarray(direction, dtype=float)
    ik = 1j * k
    c4 = {name: dense_c4(t) for name, t in params.tensors().items()}
    v = params.variant
    rho = params.rho if v.mass else 0.0
    j_mass = params.micro_inertia if v.micro_mass else 0.0
    mul2 = params.mu * params.length_scale**2

    def curlop(s):
        rows = [ik * np.cross(d, s[i]) for i in range(3)]
        return np.stack(rows)

    basis = []
    for i in range(3):
        u = np.zeros(3, complex)
        u[i] = 1.0
        basis.append((u, np.zeros((3, 3), complex)))
    for r in range(3):
        for c in range(3):
            p = np.zeros((3, 3), complex)
            p[r, c] = 1.0
            basis.append((np.zeros(3, complex), p))

    a = np.zeros((12, 12), complex)
    b = np.zeros((12, 12), complex)
    for col, (u, p) in enumerate(basis):
        e = ik * np.outer(u, d) - p
        sym_e = 0.5 * (e + e.T)
        skew_e = 0.5 * (e - e.T)
        sym_p = 0.5 * (p + p.T)
        sig_rate = apply4_complex(c4["inertia_elastic"], sym_e) + apply4_complex(
            c4["inertia_coupling"], skew_e
        )
        sig = apply4_complex(c4["elastic"], sym_e) + apply4_complex(
            c4["coupling"], skew_e
        )
        curl_p = curlop(p)
        kt = curlop(apply4_complex(c4["inertia_curvature"], curl_p))
        kk = curlop(apply4_complex(c4["curvature"], curl_p))

        force_rate = rho * u - ik * (sig_rate @ d)
        moment_rate = (
            j_mass * p
            + mul2 * kt
            - sig_rate
            + apply4_complex(c4["inertia_micro"], sym_p)
        )
        force_pot = -ik * (sig @ d)
        moment_pot = mul2 * kk - sig + apply4_complex(c4["micro"], sym_p)

        a[:3, col] = force_rate
        a[3:, col] = moment_rate.ravel()
        b[:3, col] = force_pot
        b[3:, col] = moment_pot.ravel()
    return a, b


def plane_wave_pencil(params, direction, k: float):
    """The Hermitian 12 x 12 pencil (A, B) of W1 and W2 at one wavenumber:
    the package's real symbols S, which ``dispersion_curves`` solves,
    evaluated at ``k`` and mapped back as D S D^H with D = diag(i I_3, I_9),
    so tests can set it entry by entry against :func:`strong_form_pencil`,
    which never applies that similarity."""
    from micromorph.analysis import _plane_wave_symbol
    from micromorph.assembly import form_spec_w1, form_spec_w2

    d = np.asarray(direction, dtype=float)
    phase = np.r_[np.full(3, 1j), np.ones(9)]
    symbols = (_plane_wave_symbol(f(params), d) for f in (form_spec_w1, form_spec_w2))
    return tuple(
        phase[:, None] * (s[0] + k * s[1] + k * k * s[2]) * phase.conj()[None, :]
        for s in symbols
    )


# ---------------------------------------------------------------------------
# point evaluation of basis functions and discrete fields on one cell


def eval_u_basis(sys, cell: int, bary) -> tuple[np.ndarray, np.ndarray]:
    """Hat values (4,) and their constant physical gradients (4, 3)."""
    bary = np.asarray(bary, dtype=float)
    return bary.copy(), sys.grad_hats[cell].copy()


def eval_p_basis(sys, cell: int, bary) -> tuple[np.ndarray, np.ndarray]:
    """Edge basis values (6, 3) and constant curls (6, 3), globally oriented.

    Local edge (a, b) carries w = lam_a grad lam_b - lam_b grad lam_a with
    curl 2 grad lam_a x grad lam_b, flipped where the local direction
    disagrees with the global low-to-high orientation.
    """
    bary = np.asarray(bary, dtype=float)
    g = sys.grad_hats[cell]
    signs = sys.mesh.cell_edge_signs[cell][:, None]
    a, b = np.array(LOCAL_EDGES).T
    values = signs * (bary[a, None] * g[b] - bary[b, None] * g[a])
    curls = signs * 2.0 * np.cross(g[a], g[b])
    return values, curls


def _local_u(sys, u_coeffs: np.ndarray, cell: int) -> np.ndarray:
    """(4, 3) nodal values on a cell, zeros at constrained vertices."""
    out = np.zeros((4, 3))
    rank = sys.u_map.entity_rank[sys.mesh.cells[cell]]
    for a in range(4):
        if rank[a] >= 0:
            out[a] = u_coeffs[3 * rank[a]: 3 * rank[a] + 3]
    return out


def _local_p(sys, p_coeffs: np.ndarray, cell: int) -> np.ndarray:
    """(6, 3) per-edge row circulations on a cell, zeros at constrained edges."""
    out = np.zeros((6, 3))
    rank = sys.p_map.entity_rank[sys.mesh.cell_edges[cell]]
    n_int = sys.n_p_dofs // 3
    for e in range(6):
        if rank[e] >= 0:
            for row in range(3):
                out[e, row] = p_coeffs[row * n_int + rank[e]]
    return out


def evaluate_u(sys, u_coeffs: np.ndarray, cell: int, bary) -> np.ndarray:
    vals, _ = eval_u_basis(sys, cell, bary)
    return vals @ _local_u(sys, u_coeffs, cell)


def evaluate_p(sys, p_coeffs: np.ndarray, cell: int, bary) -> np.ndarray:
    vals, _ = eval_p_basis(sys, cell, bary)     # (6, 3)
    local = _local_p(sys, p_coeffs, cell)       # (6, 3) rows x edges
    return np.einsum("er,ej->rj", local, vals)


def evaluate_curl_p(sys, p_coeffs: np.ndarray, cell: int) -> np.ndarray:
    _, curls = eval_p_basis(sys, cell, np.full(4, 0.25))
    local = _local_p(sys, p_coeffs, cell)
    return np.einsum("er,ej->rj", local, curls)


# 3-point Gauss on [0, 1]: (position, weight), exact up to degree five
_EDGE_GAUSS = ((0.5 - 0.5 * np.sqrt(0.6), 5 / 18), (0.5, 4 / 9),
               (0.5 + 0.5 * np.sqrt(0.6), 5 / 18))


def _host_cell(sys, points: np.ndarray) -> tuple[int, np.ndarray]:
    """A cell of ``sys`` holding every row of ``points`` and their (n, 4)
    barycentric coordinates there."""
    p0 = sys.mesh.vertices[sys.mesh.cells[:, 0]]                  # (nc, 3)
    bary = np.einsum("cai,cpi->cpa", sys.grad_hats, points[None] - p0[:, None])
    bary[:, :, 0] += 1.0
    inside = (bary >= -1e-10).all(axis=(1, 2))
    if not inside.any():
        raise ValueError("the fine mesh does not refine the coarse one")
    c = int(np.argmax(inside))
    return c, bary[c]


def prolongation(coarse, fine) -> np.ndarray:
    """(fine.n_dofs, coarse.n_dofs) matrix taking the coefficients of a coarse
    field to those of the same field on ``fine``, a mesh of the same box
    that refines ``coarse``.

    u: the coarse field at the fine vertices.  P: the 3-point Gauss
    circulation of the coarse edge field along each fine edge, exact because
    the field is linear on the coarse cell that holds the edge.
    """
    out = np.zeros((fine.n_dofs, coarse.n_dofs))
    verts = fine.mesh.vertices
    u_rank = fine.u_map.entity_rank
    for v in np.flatnonzero(u_rank >= 0):
        c, bary = _host_cell(coarse, verts[v][None])
        hats, _ = eval_u_basis(coarse, c, bary[0])
        for a, rank in enumerate(coarse.u_map.entity_rank[coarse.mesh.cells[c]]):
            if rank >= 0:
                for i in range(3):
                    out[3 * u_rank[v] + i, 3 * rank + i] = hats[a]
    p_rank = fine.p_map.entity_rank
    n_fine, n_coarse = fine.n_p_dofs // 3, coarse.n_p_dofs // 3
    for e in np.flatnonzero(p_rank >= 0):
        pa, pb = verts[fine.mesh.edges[e]]
        points = np.array([pa + s * (pb - pa) for s, _ in _EDGE_GAUSS])
        c, bary = _host_cell(coarse, points)
        circ = sum(w * eval_p_basis(coarse, c, b)[0] @ (pb - pa)
                   for (_, w), b in zip(_EDGE_GAUSS, bary))         # (6,)
        for f, rank in enumerate(coarse.p_map.entity_rank[coarse.mesh.cell_edges[c]]):
            if rank >= 0:
                for row in range(3):
                    out[fine.n_u_dofs + row * n_fine + p_rank[e],
                        coarse.n_u_dofs + row * n_coarse + rank] = circ[f]
    return out


def random_material(rng, variant=ModelVariant.FULL_INERTIA):
    """Anisotropic material: random positive definite rate tensors and
    random, generally indefinite potential tensors of every class."""
    zero_length = variant is ModelVariant.ZERO_LENGTH_SCALE
    base = isotropic_material(variant=variant, length_scale=0.0 if zero_length else 1.0)
    tensors = {}
    for name, t in base.tensors().items():
        dim = t.symmetry_class.dim
        q = rng.standard_normal((dim, dim))
        m = q @ q.T + 0.5 * np.eye(dim) if name.startswith("inertia_") else q + q.T
        tensors[name] = ConstitutiveTensor4(t.symmetry_class, m)
    return dataclasses.replace(
        base,
        rho=rng.uniform(0.1, 3.0),
        micro_inertia=rng.uniform(0.1, 3.0),
        mu=rng.uniform(0.1, 3.0),
        length_scale=0.0 if zero_length else rng.uniform(0.1, 2.0),
        **tensors,
    )
