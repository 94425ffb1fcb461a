"""Opt-in traced layer sweep: the per-resolution baseline of the layers.

Usage, from the root of a checkout:

    python3 perfbench/layers.py            # res 2, 4, 6 (about two minutes)
    python3 perfbench/layers.py --res8     # adds res 8 (several minutes more)

For each resolution it builds the unit-box system, assembles W1 + W2 + Gram,
certifies m1 and M2, and integrates Picard over T = 0.5 with the
library quick-start setup (demo material ``elastic = (1, -1)``, zero initial
state, constant body force (0, 0, 1)).  Every library call is traced with
``spans.Tracer``; the table reports span times and counters.  These are
per-layer data only, not a gated workload.  The record goes to
``.perfbench_work/layers/record.json`` unless ``--out`` names another file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import spans

os.environ.update(spans.thread_settings())  # before anything imports numpy

from run import SRC, WORK, require_program  # noqa: E402

RESOLUTIONS = (2, 4, 6)

COLUMNS = {  # column -> (span name, what is summed)
    "assemble_s": ("assembly.assemble_form", "time"),
    "m1_s": ("analysis.discrete_coercivity", "time"),
    "M2_s": ("analysis.discrete_boundedness", "time"),
    "picard_s": ("dynamics.picard_integrate", "time"),
    "cg_calls": ("linalg.cg_solve", "calls"),
    "nnz": ("assembly.assemble_form", "nnz"),
}


def _column(recorded: list[dict], name: str, what: str):
    chosen = [s for s in recorded if s["name"] == name]
    if what == "time":
        return sum(s["end"] - s["start"] for s in chosen)
    if what == "calls":
        return len(chosen)
    return sum(s["counts"][what] for s in chosen)


def sweep(resolutions) -> list[dict]:
    import numpy as np

    tracer = spans.Tracer(pass_id=0)
    tracer.install()
    import micromorph as mm

    params = mm.isotropic_material(elastic=(1.0, -1.0))
    load = mm.LoadFunctional.constant(f=np.array([0.0, 0.0, 1.0]))
    rows = []
    for pass_id, res in enumerate(resolutions):
        tracer.pass_id = pass_id
        first = len(tracer.spans)
        sys_ = mm.build_fe_system(mm.build_box_mesh((1.0, 1.0, 1.0), (res,) * 3))
        w1 = mm.assemble_w1(params, sys_)
        w2 = mm.assemble_w2(params, sys_)
        gram = mm.assemble_gram(sys_)
        m1 = mm.discrete_coercivity(w1, gram)
        m2 = mm.discrete_boundedness(w2, gram)
        c, _ = mm.contraction_constant(m1, m2)
        traj = mm.picard_integrate(
            mm.DynamicState.zero(w1.layout), w1, w2,
            lambda t: mm.assemble_load(load, sys_, t), t_final=0.5, c_est=c, gram=gram,
        )
        recorded = tracer.spans[first:]
        row = {"res": res, "dofs": sys_.n_dofs, "m1": m1, "M2": m2, "c": c,
               "intervals": traj.diagnostics["intervals"],
               "sweeps": sum(traj.diagnostics["picard_iterations"])}
        row.update({col: _column(recorded, *spec) for col, spec in COLUMNS.items()})
        rows.append(row)
        print(" ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                       for k, v in row.items()), flush=True)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--res8", action="store_true", help="also run res 8")
    parser.add_argument("--out", type=Path, default=WORK / "layers" / "record.json")
    args = parser.parse_args(argv)
    require_program()
    sys.path.insert(1, str(SRC))
    resolutions = RESOLUTIONS + ((8,) if args.res8 else ())
    record = {"machine": spans.machine_info(), "rows": sweep(resolutions)}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
