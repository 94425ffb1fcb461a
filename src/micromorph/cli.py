"""Batch front-end: parse a run configuration, execute one command, emit CSV
artifacts plus a human-readable report.

Commands
--------
check             hypothesis checklist + discrete constants; exit 3 on failure
simulate          time integration, trajectory CSV
dispersion        branch CSV over the sampled wavenumbers + band-gap list
korn              Korn-type constant per refinement level
contraction-demo  per-sweep fixed-point ratios on one subinterval against
                  the bound delta^2 c, delta cut to the checked load window

Exit codes: 0 ok, 2 configuration error, 3 hypothesis failure (``simulate``,
``dispersion`` and ``contraction-demo`` check the hypotheses before
assembling), 4 solver failure; each failure prints one
``MICROMORPH-ERROR <class>: ...`` line to stderr.  The configuration is read
and every artifact is written as UTF-8.  A config that cannot be read or
decoded, an output directory that cannot be created or written, and a run
whose mesh or factor cannot be allocated all exit 2, since the path, the
size and the values come from the configuration.
The output directory (``--out``, ``out`` when omitted) is created by the
first artifact written, so a run refused before that leaves no directory
behind.

Every CSV starts with comment lines carrying the resolved configuration
(hash plus full key = value listing of the material, mesh, simulation and
analysis settings) and the column schema; floats are printed with 17
significant digits, so identical configurations produce byte-identical
artifacts wherever they are written.
"""

from __future__ import annotations

import argparse
import functools
import sys as _sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    check_hypotheses, dispersion_curves, korn_curl_constant, well_posedness_report,
)
from .assembly import assemble_gram, assemble_load, assemble_w1, assemble_w2
from .config import (
    RunConfig,
    config_digest,
    initial_state_from_config,
    load_from_config,
    material_from_config,
    mesh_from_config,
    parse_config,
    serialize_config,
)
from .dynamics import DynamicState, newmark_integrate, picard_integrate
from .errors import ConfigError, HypothesisError, MicromorphError, SolverError
from .fespace import build_fe_system
from .mesh import build_box_mesh

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_HYPOTHESIS = 3
_EXIT_SOLVER = 4

_OUT = "out"  # output directory when --out is not given


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write(path: Path, text: str) -> None:
    """Write one artifact as UTF-8, creating its directory on first write."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _write_csv(path: Path, cfg: RunConfig, columns: list[str], rows) -> None:
    lines = [f"# micromorph {__version__}", f"# config-sha256: {config_digest(cfg)}"]
    lines += [f"# cfg {raw}" for raw in serialize_config(cfg).splitlines() if raw]
    lines += ["# columns: " + ",".join(columns), ",".join(columns)]

    def cell(v) -> str:
        if isinstance(v, (float, np.floating)):
            return _fmt(v)
        return str(v)

    lines += [",".join(map(cell, row)) for row in rows]
    _write(path, "\n".join(lines) + "\n")


def _report_text(report) -> str:
    lines = [f"model variant: {report.variant.value}", "", "hypothesis checklist:"]
    for c in report.checks:
        status = "pass" if c.passed else "FAIL"
        detail = f"  [{c.detail}]" if c.detail else ""
        lines.append(f"  ({c.item}) {c.description}: {status}{detail}")
    lines.append("")
    lines.append("tensor definiteness (min / max modulus):")
    for name, r in report.tensor_reports.items():
        lines.append(
            f"  {name}: {r.classification.value}  "
            f"{r.min_modulus:.9g} / {r.max_modulus:.9g}"
        )
    lines.append("")
    if report.coercivity is not None:
        lines.append(f"discrete coercivity constant m1 = {report.coercivity:.12g}")
        lines.append(f"discrete boundedness constant M2 = {report.boundedness:.12g}")
        if report.constant_map:
            lines.append("potential form vanishes: fixed-point map is constant")
        elif report.contraction is not None:
            lines.append(f"contraction constant c = {report.contraction:.12g}")
            lines.append(f"fixed-point interval delta = {report.interval:.12g}")
    verdict = (
        "well-posed (existence hypotheses satisfied)"
        if report.well_posed
        else "NOT well-posed: failed items " + ", ".join(report.failed_items())
    )
    lines.append("")
    lines.append(f"verdict: {verdict}")
    return "\n".join(lines) + "\n"


def _require_well_posed(report, action: str) -> None:
    """HypothesisError naming the failed items unless ``report`` is well posed."""
    if not report.well_posed:
        failed = ", ".join(report.failed_items())
        raise HypothesisError(f"cannot {action}: failed items {failed}")


def _operators(cfg: RunConfig):
    """The run's material, FE system, W1 and W2, each built once."""
    params = material_from_config(cfg)
    sys_ = build_fe_system(mesh_from_config(cfg))
    return params, sys_, assemble_w1(params, sys_), assemble_w2(params, sys_)


def _cmd_check(cfg: RunConfig, out: Path) -> int:
    params, sys_, w1, w2 = _operators(cfg)
    report = well_posedness_report(params, w1, w2, assemble_gram(sys_))
    text = _report_text(report)
    _write(out / "report.txt", text)
    rows = [
        (name, r.classification.value, r.min_modulus, r.max_modulus)
        for name, r in report.tensor_reports.items()
    ]
    rows.append(("coercivity_m1", "", report.coercivity, report.coercivity))
    rows.append(("boundedness_m2", "", report.boundedness, report.boundedness))
    _write_csv(
        out / "moduli.csv", cfg,
        ["tensor", "classification", "min_modulus", "max_modulus"], rows,
    )
    print(text, end="")
    return _EXIT_OK if report.well_posed else _EXIT_HYPOTHESIS


def _picard(cfg: RunConfig, params, sys_, w1, w2, state0, interval):
    """Certify the run, then integrate from ``state0`` over
    [0, interval(report)] with its load, ``nodes_per_interval``, c and Gram
    matrix; returns the trajectory and the report.
    HypothesisError unless the material is well posed, so the report's c and
    delta are finite or flag a constant map (c = 0)."""
    gram = assemble_gram(sys_)
    report = well_posedness_report(params, w1, w2, gram)
    _require_well_posed(report, "integrate")
    sim = cfg.simulation
    traj = picard_integrate(
        state0, w1, w2, functools.partial(assemble_load, load_from_config(cfg), sys_),
        interval(report), report.contraction,
        n_t=sim.nodes_per_interval, gram=gram,
    )
    return traj, report


def _cmd_simulate(cfg: RunConfig, out: Path) -> int:
    params = material_from_config(cfg)
    sys_ = build_fe_system(mesh_from_config(cfg))
    sim = cfg.simulation
    samples = sim.sample_dofs
    beyond = [d for d in samples if d >= sys_.n_dofs]
    if beyond:  # before anything is assembled
        raise ValueError(
            f"sample_dofs {beyond} out of range: the system has n_dofs = {sys_.n_dofs}"
        )
    _require_well_posed(check_hypotheses(params), "integrate")
    w1, w2 = assemble_w1(params, sys_), assemble_w2(params, sys_)
    state0 = initial_state_from_config(cfg, sys_)
    if sim.integrator == "newmark":
        load_fn = functools.partial(assemble_load, load_from_config(cfg), sys_)
        traj = newmark_integrate(state0, w1, w2, load_fn, sim.dt, sim.n_steps)
    else:
        traj = _picard(cfg, params, sys_, w1, w2, state0, lambda _: sim.t_final)[0]
    columns = ["t", "kinetic", "potential"] + [f"dof{d}" for d in samples]
    columns += ["picard_iterations"]
    iters = traj.diagnostics.get("picard_iterations", [])
    node_interval = traj.diagnostics.get("node_interval")
    rows = []
    for i in range(traj.n_nodes):
        it = iters[node_interval[i]] if iters else 0
        rows.append(
            (traj.times[i], traj.kinetic[i], traj.potential[i])
            + tuple(traj.positions[i, d] for d in samples)
            + (it,)
        )
    _write_csv(out / "trajectory.csv", cfg, columns, rows)
    print(f"simulate: {traj.n_nodes} nodes -> {out / 'trajectory.csv'}")
    return _EXIT_OK


def _cmd_dispersion(cfg: RunConfig, out: Path) -> int:
    params = material_from_config(cfg)
    _require_well_posed(check_hypotheses(params), "compute dispersion")
    ana = cfg.analysis
    result = dispersion_curves(params, ana.direction, ana.k_samples)
    columns = ["k"] + [f"omega{j + 1}" for j in range(result.n_branches)]
    rows = [
        (result.k_samples[s],) + tuple(result.frequencies[s])
        for s in range(result.k_samples.size)
    ]
    _write_csv(out / "dispersion.csv", cfg, columns, rows)
    gaps = result.gaps
    d_text = " ".join(_fmt(x) for x in result.direction)
    lines = [
        f"band gaps along direction ({d_text}) "
        f"({result.k_samples.size} samples):"
    ]
    if gaps:
        for g in gaps:
            lines.append(
                f"  ({_fmt(g.lower)}, {_fmt(g.upper)})  width {_fmt(g.width)}  "
                f"[sampling resolution {_fmt(g.k_resolution)}]"
            )
    else:
        lines.append("  none detected at this sampling")
    _write(out / "gaps.txt", "\n".join(lines) + "\n")
    print("\n".join(lines))
    return _EXIT_OK


def _cmd_korn(cfg: RunConfig, out: Path) -> int:
    rows = []
    res = np.array(cfg.mesh.resolution)
    for level in range(cfg.analysis.korn_levels):
        r = tuple(int(x) for x in res * 2**level)
        sys_ = build_fe_system(build_box_mesh(cfg.mesh.dims, r))
        c = korn_curl_constant(sys_)
        rows.append((level, r[0], r[1], r[2], c))
        print(f"korn level {level} resolution {r}: C = {c:.9g}")
    _write_csv(out / "korn.csv", cfg, ["level", "nx", "ny", "nz", "c_est"], rows)
    return _EXIT_OK


def _cmd_contraction_demo(cfg: RunConfig, out: Path) -> int:
    params = material_from_config(cfg)
    _require_well_posed(check_hypotheses(params), "integrate")
    sys_ = build_fe_system(mesh_from_config(cfg))
    w1, w2 = assemble_w1(params, sys_), assemble_w2(params, sys_)
    state0 = initial_state_from_config(cfg, sys_)
    if not np.any(state0.position) and not np.any(state0.velocity):
        # a visible fixed point even for an all-zero config
        rng = np.random.default_rng(2024)
        state0 = DynamicState.from_vectors(
            w1.layout, 0.0,
            rng.standard_normal(sys_.n_dofs), rng.standard_normal(sys_.n_dofs),
        )
    # one subinterval of length delta, cut to the window whose loads
    # parse_config checked; a constant map (delta = inf) runs over that window
    traj, report = _picard(
        cfg, params, sys_, w1, w2, state0,
        lambda r: min(r.interval, cfg.simulation.load_end),
    )
    delta = traj.diagnostics["delta"]
    bound = delta**2 * report.contraction
    ratios = traj.diagnostics["contraction_ratios"][0]
    rows = [(i + 1, r, bound) for i, r in enumerate(ratios)]
    _write_csv(out / "contraction.csv", cfg, ["sweep", "ratio", "bound"], rows)
    print(
        f"contraction demo: delta = {_fmt(delta)}, theoretical bound "
        f"{_fmt(bound)}, measured max ratio "
        f"{_fmt(max(ratios)) if ratios else 'n/a'}"
    )
    return _EXIT_OK


_HANDLERS = {
    "check": _cmd_check,
    "simulate": _cmd_simulate,
    "dispersion": _cmd_dispersion,
    "korn": _cmd_korn,
    "contraction-demo": _cmd_contraction_demo,
}


def run(command: str, cfg: RunConfig, out_dir=_OUT) -> int:
    """Execute one command, writing into ``out_dir``; returns the process
    exit status."""
    if command not in _HANDLERS:
        raise ValueError(f"unknown command {command!r}")
    return _HANDLERS[command](cfg, Path(out_dir))


# How a failed run ends: the first row whose class the exception is an
# instance of gives the stderr label and the exit code.  The errors below
# MicromorphError trace back to the configuration: its values (ValueError,
# which covers UnicodeDecodeError and numpy's LinAlgError), its paths
# (OSError) and the sizes it asks for (MemoryError).
_FAILURES = (
    (ConfigError, "config", _EXIT_CONFIG),
    (HypothesisError, "hypothesis", _EXIT_HYPOTHESIS),
    (SolverError, "solver", _EXIT_SOLVER),
    (MicromorphError, "internal", _EXIT_SOLVER),
    (ValueError, "config", _EXIT_CONFIG),
    (OSError, "config", _EXIT_CONFIG),
    (MemoryError, "config", _EXIT_CONFIG),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="micromorph",
        description="Relaxed micromorphic elastodynamics: certification, "
        "simulation, and dispersion analysis.",
    )
    parser.add_argument("command", choices=_HANDLERS)
    parser.add_argument("--config", required=True, help="run configuration file")
    parser.add_argument("--out", default=_OUT,
                        help=f"output directory (default: {_OUT})")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(Path(args.config).read_text(encoding="utf-8"))
        return run(args.command, cfg, args.out)
    except Exception as exc:
        for cls, label, code in _FAILURES:
            if isinstance(exc, cls):
                print(f"MICROMORPH-ERROR {label}: {exc}", file=_sys.stderr)
                return code
        raise


if __name__ == "__main__":
    raise SystemExit(main())
