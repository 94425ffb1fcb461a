"""Span tracing of the program's modules from outside the program.

:class:`Tracer` replaces every public function of the traced modules with a
wrapper that records a span (name, start, end, parent, pass id) and, for a
few functions, counters read from the returned object.  Every module
attribute bound to an original function is rebound, which covers names
imported with ``from ... import`` (``dynamics.cg_solve``,
``analysis.assemble_w1``, ``cli.run``, ...).  Spans stay in memory until
:meth:`Tracer.dump`.

:func:`layer_metrics` turns the spans of one pass into the per-layer
metrics; ``PER_LAYER`` lists their names and units.  :func:`machine_info`
and :func:`thread_settings` describe the measured processes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import platform
import statistics
import sys
import time

MODULES = ("config", "mesh", "fespace", "assembly", "linalg", "dynamics",
           "analysis", "cli")

THREAD_VARS = ("MICROMORPH_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

CLI_COMMANDS = ("check", "korn", "dispersion", "simulate")

# name -> unit; times are seconds per pass, counts are per pass
PER_LAYER = {
    **{f"cli.{c}_s": "s" for c in CLI_COMMANDS},
    "config.parse_s": "s",
    "mesh.build_s": "s",
    "mesh.cells": "count",
    "fespace.build_s": "s",
    "fespace.dofs": "count",
    "fespace.interp_s": "s",
    "assembly.form_calls": "count",
    "assembly.form_s": "s",
    "assembly.nnz": "count",
    "assembly.load_calls": "count",
    "assembly.load_s": "s",
    "linalg.eig_calls": "count",
    "linalg.eig_s": "s",
    "linalg.cg_calls": "count",
    "linalg.cg_s": "s",
    "linalg.dense_eig_calls": "count",
    "linalg.dense_eig_s": "s",
    "dynamics.steps": "count",
    "dynamics.stationary_solves": "count",
    "dynamics.intervals": "count",
    "dynamics.sweeps": "count",
    "dynamics.sweeps_per_interval": "ratio",
    "dynamics.max_ratio_over_bound": "ratio",
    "analysis.cert_s": "s",
    "analysis.korn_s": "s",
    "analysis.pencil_calls": "count",
    "analysis.pencil_s": "s",
    **{f"{m}.self_s": "s" for m in MODULES},
    "trace.overhead": "ratio",
}


def thread_settings() -> dict[str, str]:
    """Thread counts pinned for every measured process.

    One thread: on a shared 2-core machine two BLAS threads made the same
    pass vary by about 12% between repeats against 3% with one.  BLAS reads
    these when numpy is first imported."""
    return {var: "1" for var in THREAD_VARS}


def machine_info() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": thread_settings(),
    }


def _trajectory_counts(traj) -> dict:
    diag = traj.diagnostics
    counts = {"steps": traj.n_nodes - 1}
    if "intervals" in diag:
        ratios = [r for interval in diag["contraction_ratios"] for r in interval]
        bound = diag["delta"] ** 2 * diag["c_est"]
        counts.update(
            intervals=diag["intervals"],
            sweeps=sum(diag["picard_iterations"]),
            max_ratio_over_bound=max(ratios) / bound if ratios and bound else 0.0,
        )
    return counts


# counters read from the arguments and result of a traced call
COUNTERS = {
    "cli.run": lambda args, kwargs, result: {"command": args[0]},
    "mesh.build_box_mesh": lambda args, kwargs, result: {"cells": result.n_cells},
    "fespace.build_fe_system": lambda args, kwargs, result: {"dofs": result.n_dofs},
    "assembly.assemble_form": lambda args, kwargs, result: {"nnz": result.matrix.nnz},
    "dynamics.picard_integrate": lambda args, kwargs, result: _trajectory_counts(result),
    "dynamics.newmark_integrate": lambda args, kwargs, result: _trajectory_counts(result),
}


class Tracer:
    """Records spans of wrapped calls for one pass of one process."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "pass": self.pass_id,
                    "parent": self._stack[-1] if self._stack else None,
                    "start": time.perf_counter(), "end": None}
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span["counts"] = counter(args, kwargs, result)
            return result

        return traced

    def install(self, package: str = "micromorph") -> None:
        """Wrap the public functions of MODULES and rebind every reference."""
        wrappers = {}
        for short in MODULES:
            module = importlib.import_module(f"{package}.{short}")
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(f"{short}.{name}", obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one pass from its spans (all its processes).

    Span ids are local to a process, so each span carries its process's
    ``proc`` index, set when the dumps are merged.
    """
    child_time: dict[tuple, float] = {}
    for s in spans:
        if s["parent"] is not None:
            key = (s["proc"], s["parent"])
            child_time[key] = child_time.get(key, 0.0) + s["end"] - s["start"]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(*names):
        return sum(s["end"] - s["start"] for n in names for s in named(n))

    def counts(name, key):
        return [s["counts"][key] for s in named(name) if key in s.get("counts", {})]

    out = {name: 0.0 for name in PER_LAYER}
    for s in spans:
        module = s["name"].split(".", 1)[0]
        own = s["end"] - s["start"] - child_time.get((s["proc"], s["id"]), 0.0)
        out[f"{module}.self_s"] += own
        if s["name"] == "cli.run":
            out[f"cli.{s['counts']['command']}_s"] += s["end"] - s["start"]

    trajectories = named("dynamics.picard_integrate") + named("dynamics.newmark_integrate")
    sums = lambda key: sum(t["counts"].get(key, 0) for t in trajectories)
    out.update({
        "config.parse_s": total("config.parse_config"),
        "mesh.build_s": total("mesh.build_box_mesh"),
        "mesh.cells": max(counts("mesh.build_box_mesh", "cells"), default=0),
        "fespace.build_s": total("fespace.build_fe_system"),
        "fespace.dofs": max(counts("fespace.build_fe_system", "dofs"), default=0),
        "fespace.interp_s": total("fespace.interpolate_u", "fespace.interpolate_p"),
        "assembly.form_calls": len(named("assembly.assemble_form")),
        "assembly.form_s": total("assembly.assemble_form"),
        "assembly.nnz": sum(counts("assembly.assemble_form", "nnz")),
        "assembly.load_calls": len(named("assembly.assemble_load")),
        "assembly.load_s": total("assembly.assemble_load"),
        "linalg.eig_calls": len(named("linalg.extreme_generalized_eigenvalues")),
        "linalg.eig_s": total("linalg.extreme_generalized_eigenvalues"),
        "linalg.cg_calls": len(named("linalg.cg_solve")),
        "linalg.cg_s": total("linalg.cg_solve"),
        "linalg.dense_eig_calls": len(named("linalg.hermitian_dense_eig")),
        "linalg.dense_eig_s": total("linalg.hermitian_dense_eig"),
        "dynamics.steps": sums("steps"),
        "dynamics.stationary_solves": len(named("dynamics.stationary_solve")),
        "dynamics.intervals": sums("intervals"),
        "dynamics.sweeps": sums("sweeps"),
        "dynamics.max_ratio_over_bound": max(
            (t["counts"].get("max_ratio_over_bound", 0.0) for t in trajectories),
            default=0.0),
        "analysis.cert_s": total("analysis.well_posedness_report"),
        "analysis.korn_s": total("analysis.korn_curl_constant"),
        "analysis.pencil_calls": len(named("analysis.plane_wave_pencil")),
        "analysis.pencil_s": total("analysis.plane_wave_pencil"),
    })
    if out["dynamics.intervals"]:
        out["dynamics.sweeps_per_interval"] = (
            out["dynamics.sweeps"] / out["dynamics.intervals"])
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over passes (counts repeat exactly)."""
    return {name: statistics.median(m[name] for m in per_pass) for name in PER_LAYER}
