"""Reference values for the CLI outputs, computed in a process of their own.

Usage (``run.py`` starts it once per run, before the timed passes):

    python3 reference.py <out.json> <command> <config.ini> [<command> <config.ini> ...]

For each invocation, from the same config file the CLI reads:

* ``check``: m1 and M2 from dense ``scipy.linalg.eigh`` of the assembled
  pencils (W1, Gram) and (W2, Gram).
* ``korn``: the Korn constant per level from dense ``eigh`` of the assembled
  (mass + curl-curl, sym-mass + curl-curl) pencil.
* ``dispersion``: squared frequencies and band gaps from the independent
  strong-form pencil of ``tests/oracles.py``.
* ``simulate``: average-acceleration stepping with sparse LU solves on the
  node spacing of the program's output.  For ``newmark`` that is the same
  scheme; for ``picard`` the converged trapezoid fixed point coincides with
  it algebraically, and the node count follows from the reference m1, M2.

``checks.py`` compares the outputs with these values.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402
import scipy.sparse.linalg as spla  # noqa: E402
from micromorph import (  # noqa: E402
    assemble_gram,
    assemble_load,
    assemble_w1,
    assemble_w2,
    build_box_mesh,
    build_fe_system,
    interpolate_p,
    interpolate_u,
    isotropic_curvature,
    isotropic_elastic,
)
from micromorph.assembly import FormSpec, assemble_form  # noqa: E402
from micromorph.config import (  # noqa: E402
    initial_field_callable,
    load_from_config,
    material_from_config,
    mesh_from_config,
    parse_config,
)
from oracles import strong_form_pencil  # noqa: E402

from checks import band_gaps, frequencies  # noqa: E402


def _sys_and_params(cfg):
    return build_fe_system(mesh_from_config(cfg)), material_from_config(cfg)


def _eigenvalue(a, b, index: int) -> float:
    """Eigenvalue ``index`` (ascending, -1 the largest) of A x = lambda B x."""
    k = index % a.shape[0]
    return float(scipy.linalg.eigh(a, b, eigvals_only=True, subset_by_index=[k, k])[0])


def certified_constants(cfg) -> tuple[float, float]:
    """(m1, M2) of the configured material and mesh, by dense eigensolves."""
    sys_, params = _sys_and_params(cfg)
    gram = assemble_gram(sys_).to_dense()
    w2 = assemble_w2(params, sys_).to_dense()
    m1 = _eigenvalue(assemble_w1(params, sys_).to_dense(), gram, 0)
    return m1, max(abs(_eigenvalue(w2, gram, 0)), abs(_eigenvalue(w2, gram, -1)))


def _korn_constant(sys_) -> float:
    curl = isotropic_curvature(1.0)
    left = assemble_form(sys_, FormSpec(mass_p=1.0, curl=curl, curl_coeff=1.0))
    right = assemble_form(sys_, FormSpec(
        sym_micro=isotropic_elastic(0.5, 0.0), curl=curl, curl_coeff=1.0))
    return _eigenvalue(left.p_block().to_dense(), right.p_block().to_dense(), -1)


def _squared_frequencies(params, direction, ks) -> np.ndarray:
    """Eigenvalues of the oracle pencil at every k.

    The strong-form pencil is exactly quadratic in k (each factor of its
    bilinear terms carries at most one i k), so the oracle is evaluated at
    k = 0, 1, 2 and interpolated; a direct evaluation at the largest k
    guards that assumption.
    """
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    p0, p1, p2 = (np.array(strong_form_pencil(params, d, k)) for k in (0.0, 1.0, 2.0))
    c2 = 0.5 * (p2 - 2.0 * p1 + p0)
    c1 = p1 - p0 - c2
    k_max = float(np.max(ks))
    direct = np.array(strong_form_pencil(params, d, k_max))
    interpolated = p0 + k_max * c1 + k_max**2 * c2
    if np.abs(interpolated - direct).max() > 1e-10 * np.abs(direct).max():
        raise RuntimeError("oracle pencil is not quadratic in k")
    pencils = (p0 + k * c1 + k * k * c2 for k in np.asarray(ks, dtype=float))
    return np.array([scipy.linalg.eigh(b, a, eigvals_only=True) for a, b in pencils])


def _average_acceleration(w1, w2, load_at, x0, v0, h, n_steps):
    """Newmark beta = 1/4, gamma = 1/2 with LU solves; returns (x, v) per node."""
    a = spla.splu(w1.tocsc()).solve(load_at(0) - w2 @ x0)
    eff = spla.splu((w1 + 0.25 * h * h * w2).tocsc())
    xs, vs = [x0], [v0]
    x, v = x0, v0
    for k in range(n_steps):
        x_pred = x + h * v + 0.25 * h * h * a
        v_pred = v + 0.5 * h * a
        a = eff.solve(load_at(k + 1) - w2 @ x_pred)
        x = x_pred + 0.25 * h * h * a
        v = v_pred + 0.5 * h * a
        xs.append(x)
        vs.append(v)
    return np.array(xs), np.array(vs)


def _initial_vector(spec, cfg, sys_, interpolate, shape, size):
    f = initial_field_callable(spec, cfg.mesh.dims, shape)
    return np.zeros(size) if f is None else interpolate(sys_, f)


def _trajectory(cfg) -> dict:
    sim = cfg.simulation
    sys_, params = _sys_and_params(cfg)
    w1 = assemble_w1(params, sys_).matrix
    w2 = assemble_w2(params, sys_).matrix
    if sim.integrator == "newmark":
        n_steps = max(1, round(sim.t_final / sim.dt))
        h = sim.dt
    else:
        m1, m2 = certified_constants(cfg)
        c = math.sqrt(2.0) * m2 / m1
        delta = min(1.0 / (2.0 * math.sqrt(c)), sim.t_final)
        n_steps = max(1, math.ceil(sim.t_final / delta - 1e-12)) * (
            sim.nodes_per_interval - 1)
        h = sim.t_final / n_steps
    load = load_from_config(cfg)
    times = h * np.arange(n_steps + 1)
    u = lambda spec: _initial_vector(spec, cfg, sys_, interpolate_u, (3,), sys_.n_u_dofs)
    p = lambda spec: _initial_vector(spec, cfg, sys_, interpolate_p, (3, 3), sys_.n_p_dofs)
    x0 = np.concatenate([u(sim.initial_u), p(sim.initial_p)])
    v0 = np.concatenate([u(sim.initial_ut), p(sim.initial_pt)])
    xs, vs = _average_acceleration(
        w1, w2, lambda k: assemble_load(load, sys_, float(times[k])), x0, v0, h, n_steps)
    ref = {
        "t": times,
        "kinetic": 0.5 * np.einsum("ij,ij->i", vs, (w1 @ vs.T).T),
        "potential": 0.5 * np.einsum("ij,ij->i", xs, (w2 @ xs.T).T),
    }
    for d in sim.sample_dofs:
        if d < sys_.n_dofs:
            ref[f"dof{d}"] = xs[:, d]
    return {name: column.tolist() for name, column in ref.items()}


def reference(command: str, config_text: str) -> dict:
    """Reference values for one CLI invocation, as JSON-ready data."""
    cfg = parse_config(config_text)
    if command == "check":
        m1, m2 = certified_constants(cfg)
        return {"m1": m1, "M2": m2}
    if command == "korn":
        res = np.array(cfg.mesh.resolution)
        return {"korn": [
            _korn_constant(build_fe_system(build_box_mesh(cfg.mesh.dims, res * 2**lv)))
            for lv in range(cfg.analysis.korn_levels)
        ]}
    if command == "dispersion":
        omega2 = _squared_frequencies(
            material_from_config(cfg), cfg.analysis.direction, cfg.analysis.k_samples)
        return {"omega2": omega2.tolist(), "gaps": band_gaps(frequencies(omega2))}
    if command == "simulate":
        return {"trajectory": _trajectory(cfg)}
    raise ValueError(f"no reference for command {command!r}")


def main(argv: list[str]) -> int:
    out, pairs = Path(argv[0]), argv[1:]
    refs = [reference(command, Path(config).read_text())
            for command, config in zip(pairs[::2], pairs[1::2])]
    out.write_text(json.dumps(refs))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
