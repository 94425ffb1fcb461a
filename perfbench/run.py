"""End-to-end benchmark of the ``micromorph`` CLI.

Usage, from the root of a checkout (all three workloads, metrics by name):

    for w in certify simulate-picard simulate-newmark; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 15 --trace 0
    done

Load model: closed loop, one client, one process at a time.  A pass runs the
workload's CLI commands (see ``workloads.py``) one after another, each in a
fresh ``python -m micromorph`` process; the next pass starts when the
previous one ends, and passes repeat until ``--seconds`` have elapsed (at
least two passes).  ``MICROMORPH_THREADS`` and the BLAS thread variables are
pinned to 1 in every child and recorded.

Every invocation's outputs are compared (``checks.py``) with references
computed before the passes (``reference.py``); an invocation fails when it
exits non-zero or an output falls outside tolerance.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: median wall time of one pass;
* ``cpu_s``: median user + system CPU time of a pass's child processes;
* ``setup_s``: median wall time of a fresh interpreter that imports
  ``micromorph`` and parses the workload's config (one before the passes
  and two after each pass);
* ``peak_rss_mb``: median over passes of the largest ``ru_maxrss`` of a
  pass's CLI processes.

``error_rate`` (failed / attempted invocations) is carried by the result's
``failed`` and ``attempted`` fields and printed with the table.

``--trace 1`` alternates untraced passes with passes whose CLI processes run
under ``tracecli.py``, and reports the per-layer metrics of ``spans.py``
(medians over traced passes) plus ``trace.overhead``, the traced median pass
wall time over the untraced one, minus one.

The last line of standard output is the JSON result; the full record (seed,
generated configs, machine, per-pass samples, spans) is written to
``.perfbench_work/<workload>/record.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK = ROOT / ".perfbench_work"

import checks
import spans
import workloads

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
MIN_PASSES = 2  # untraced, or one untraced and one traced
SETUP_BEFORE = 1
SETUP_PER_PASS = 2
SETUP_CODE = ("import sys\nfrom micromorph.config import parse_config\n"
              "parse_config(open(sys.argv[1]).read())\n")


class MissingProgram(RuntimeError):
    pass


def require_program() -> None:
    for path in (SRC / "micromorph" / "__init__.py", TESTS / "oracles.py"):
        if not path.is_file():
            raise MissingProgram(f"{path.relative_to(ROOT)} not found")


def _child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC), **spans.thread_settings())
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # set-up times imports, not compiling
    return env


def spawn(argv: list[str], log: Path) -> dict:
    """Run one child to completion; wall seconds, CPU seconds, peak RSS."""
    with open(log, "w") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=_child_env(), stdout=fh,
                                stderr=subprocess.STDOUT, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0}


def measure_setup(config_paths: list[Path], work: Path, count: int) -> list[float]:
    """Wall times of fresh interpreters that import micromorph and parse a
    config, cycling through the workload's configs."""
    times = []
    for i in range(count):
        cfg = config_paths[i % len(config_paths)]
        run = spawn([sys.executable, "-c", SETUP_CODE, str(cfg)], work / "setup.log")
        if run["rc"] != 0:
            raise MissingProgram(f"import micromorph failed, see {work / 'setup.log'}")
        times.append(run["wall"])
    return times


def compute_references(invocations: list[dict], work: Path) -> list[dict]:
    """Reference values of every invocation, from ``reference.py`` in a child
    process so that this process stays small (see ``checks.py``)."""
    out = work / "references.json"
    argv = [sys.executable, str(HERE / "reference.py"), str(out)]
    for inv in invocations:
        argv += [inv["command"], str(inv["config"])]
    if spawn(argv, work / "reference.log")["rc"] != 0:
        raise RuntimeError(f"reference computation failed, see {work / 'reference.log'}")
    return json.loads(out.read_text())


def run_pass(invocations: list[dict], pass_id: int, work: Path, traced: bool) -> dict:
    """One closed-loop pass; outputs are checked after each child exits."""
    record = {"pass": pass_id, "traced": traced, "runs": [], "spans": []}
    for proc, inv in enumerate(invocations):
        out = work / f"out-{proc}-{inv['command']}"
        shutil.rmtree(out, ignore_errors=True)
        cli_args = [inv["command"], "--config", str(inv["config"]), "--out", str(out)]
        if traced:
            span_file = work / f"spans-{proc}.json"
            argv = [sys.executable, str(HERE / "tracecli.py"), str(span_file),
                    str(pass_id)] + cli_args
        else:
            argv = [sys.executable, "-m", "micromorph"] + cli_args
        run = spawn(argv, work / f"log-{proc}-{inv['command']}.txt")
        problems = ([f"{inv['command']} exited with {run['rc']}"] if run["rc"]
                    else checks.check(inv["command"], inv["reference"], out))
        run.update(command=inv["command"], problems=problems)
        record["runs"].append(run)
        if traced and span_file.is_file():
            loaded = json.loads(span_file.read_text())
            record["spans"] += [dict(s, proc=proc) for s in loaded]
    record["wall"] = sum(r["wall"] for r in record["runs"])
    record["cpu"] = sum(r["cpu"] for r in record["runs"])
    record["rss_mb"] = max(r["rss_mb"] for r in record["runs"])
    return record


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  size: str = "full") -> dict:
    """Run one workload; returns the full record, whose ``result`` is the
    contract's JSON object."""
    require_program()
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    invocations = []
    for i, (command, text) in enumerate(
            workloads.workload_invocations(workload, seed, size)):
        path = work / f"config-{i}-{command}.ini"
        path.write_text(text)
        invocations.append({"command": command, "config": path, "text": text})
    for inv, ref in zip(invocations, compute_references(invocations, work)):
        inv["reference"] = ref

    configs = [inv["config"] for inv in invocations]
    measure_setup(configs, work, 1)  # may compile bytecode; discarded
    # set-up samples are spread over the run, so that one slow spell of a
    # shared machine does not move all of them
    setup = [] if trace else measure_setup(configs, work, SETUP_BEFORE)
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(run_pass(invocations, len(passes), work, False))
        if trace:
            passes.append(run_pass(invocations, len(passes), work, True))
        else:
            setup += measure_setup(configs, work, SETUP_PER_PASS)

    runs = [r for p in passes for r in p["runs"]]
    failed = sum(1 for r in runs if r["problems"])
    plain = [p for p in passes if not p["traced"]]
    if trace:
        traced = [p for p in passes if p["traced"]]
        values = spans.median_metrics([spans.layer_metrics(p["spans"]) for p in traced])
        values["trace.overhead"] = (
            statistics.median(p["wall"] for p in traced)
            / statistics.median(p["wall"] for p in plain) - 1.0)
        units = spans.PER_LAYER
    else:
        values = {
            "wall_s": statistics.median(p["wall"] for p in plain),
            "cpu_s": statistics.median(p["cpu"] for p in plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain),
        }
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "size": size, "machine": spans.machine_info(),
        "configs": {f"{i}-{inv['command']}": inv["text"]
                    for i, inv in enumerate(invocations)},
        "setup_samples": setup, "passes": passes, "result": result,
    }
    (work / "record.json").write_text(json.dumps(record, indent=1, default=str))
    return record


def summary(record: dict) -> str:
    result = record["result"]
    plain = [p for p in record["passes"] if not p["traced"]]
    lines = [
        f"workload {record['workload']}  seed {record['seed']}  "
        f"passes {len(plain)} untraced, {len(record['passes']) - len(plain)} traced",
        "machine " + json.dumps(record["machine"], sort_keys=True),
    ]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:32s} {m['value']:>14.6g} {m['unit']}")
    lines.append(
        f"  {'error_rate':32s} {result['failed']}/{result['attempted']} "
        f"failed/attempted invocations")
    for p in record["passes"]:
        for r in p["runs"]:
            lines += [f"  FAILED pass {p['pass']} {r['command']}: {x}" for x in r["problems"]]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so spawn() stops the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except MissingProgram as exc:
        print(f"perfbench: cannot run the program: {exc}", file=sys.stderr)
        return 2
    print(summary(record))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
