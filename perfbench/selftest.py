"""Self-tests of the benchmark itself.

Usage, from the root of a checkout (about a minute):

    python3 perfbench/selftest.py

* BENCHMARK.json names exactly the metrics, units and workloads that
  ``run.py`` reports.
* Smoke: every workload at res 2, with tracing off and on; every metric
  appears with its unit and no invocation fails.
* Mutation: the reference m1 is scaled by 1 + 1e-3; the benchmark must count
  the ``check`` invocation as failed and report ``correct: false``.
"""

from __future__ import annotations

import json

import run
import spans
import workloads

SEED = workloads.DEFAULT_SEED


class SelfTestFailure(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestFailure(message)


def test_manifest() -> None:
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    expect(listed == run.END_TO_END, f"end_to_end {listed} != {run.END_TO_END}")
    listed = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    expect(listed == spans.PER_LAYER, f"per_layer {listed} != {spans.PER_LAYER}")
    names = tuple(w["name"] for w in manifest["workloads"])
    expect(names == workloads.WORKLOADS, f"workloads {names} != {workloads.WORKLOADS}")


def test_smoke() -> None:
    for workload in workloads.WORKLOADS:
        for trace, units in ((False, run.END_TO_END), (True, spans.PER_LAYER)):
            result = run.run_benchmark(workload, SEED, 0, trace, size="smoke")["result"]
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == units, f"{workload} trace={trace}: metrics {sorted(got)}")
            expect(result["correct"] and result["failed"] == 0,
                   f"{workload} trace={trace}: {result['failed']} failed")
            print(f"smoke {workload} trace={int(trace)}: ok "
                  f"({result['attempted']} invocations)", flush=True)


def test_mutation() -> None:
    original = run.compute_references

    def mutated(invocations, work):
        refs = original(invocations, work)
        for inv, ref in zip(invocations, refs):
            if inv["command"] == "check":
                ref["m1"] *= 1 + 1e-3
        return refs

    run.compute_references = mutated
    try:
        record = run.run_benchmark("certify", SEED, 0, False, size="smoke")
    finally:
        run.compute_references = original
    result = record["result"]
    runs = [r for p in record["passes"] for r in p["runs"]]
    checks = [r for r in runs if r["command"] == "check"]
    expect(not result["correct"] and result["failed"] == len(checks)
           and all(r["problems"] for r in checks),
           f"perturbed m1 not counted: {result['failed']}/{result['attempted']} "
           f"failed, {len(checks)} check invocations")
    print(f"mutation m1 * (1 + 1e-3): counted, error_rate "
          f"{result['failed']}/{result['attempted']}")


def main() -> int:
    for test in (test_manifest, test_smoke, test_mutation):
        try:
            test()
        except SelfTestFailure as exc:
            print(f"FAIL {test.__name__}: {exc}")
            return 1
    print("all benchmark self-tests passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
