"""Comparison of the CLI outputs with reference values, within tolerances.

The reference values come from ``reference.py``, which runs in a process of
its own.  This module needs only numpy, so the process that spawns and
measures the CLI stays small: a child's ``ru_maxrss`` includes the peak RSS
its parent had when it was spawned, so dense eigensolves in the parent
would show up in every CLI's ``peak_rss_mb``.

Comparisons are never byte for byte: the tolerances leave room for another
solver (ARPACK in place of Lanczos, a factorization in place of CG) to
change the last digits.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

RTOL_CONSTANT = 1e-6    # m1, M2, Korn C (Lanczos stops at residual 1e-8)
RTOL_OMEGA2 = 1e-8      # squared frequencies, relative to the sample's scale
RTOL_GAP = 1e-6         # band-gap end points
RTOL_TRAJECTORY = 1e-6  # energies and sampled dofs, relative to the column max
CLAMP_TOL = 1e-10       # the program's round-off clamp for omega^2 < 0


def read_csv(path: Path) -> dict[str, np.ndarray]:
    """Columns of a CLI CSV by name; comment lines are skipped."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    names = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:] if ln]
    return {
        name: np.array([row[j] for row in rows], dtype=object if name in
                       ("tensor", "classification") else float)
        for j, name in enumerate(names)
    }


def frequencies(omega2: np.ndarray) -> np.ndarray:
    """Frequencies by the program's rule: squared values within CLAMP_TOL
    (relative) below zero are round-off and clamped, more negative ones are
    unstable branches and give NaN."""
    scale = np.maximum(np.abs(omega2).max(axis=1, keepdims=True), 1.0)
    clamped = np.where((omega2 < 0) & (omega2 >= -CLAMP_TOL * scale), 0.0, omega2)
    return np.where(clamped < 0, np.nan, np.sqrt(np.maximum(clamped, 0.0)))


def band_gaps(freqs: np.ndarray) -> list[tuple[float, float]]:
    """(lower, upper) of each gap between consecutive branches, over the
    samples without unstable branches."""
    stable = freqs[~np.isnan(freqs).any(axis=1)]
    if stable.shape[0] < 2:
        return []
    top, bottom = stable.max(axis=0), stable.min(axis=0)
    return [(float(top[j]), float(bottom[j + 1]))
            for j in range(freqs.shape[1] - 1) if bottom[j + 1] > top[j]]


def _rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / max(abs(ref), 1e-300)


def _check_constants(ref: dict, out: Path) -> list[str]:
    table = read_csv(out / "moduli.csv")
    found = dict(zip(table["tensor"], table["min_modulus"]))
    problems = []
    for key, row in (("m1", "coercivity_m1"), ("M2", "boundedness_m2")):
        err = _rel_err(float(found.get(row, np.nan)), ref[key])
        if not err <= RTOL_CONSTANT:
            problems.append(f"{key} relative error {err:.3g} > {RTOL_CONSTANT}")
    return problems


def _check_korn(ref: dict, out: Path) -> list[str]:
    got = read_csv(out / "korn.csv")["c_est"]
    if got.size != len(ref["korn"]):
        return [f"korn: {got.size} levels, expected {len(ref['korn'])}"]
    return [
        f"korn level {lv} relative error {_rel_err(g, r):.3g} > {RTOL_CONSTANT}"
        for lv, (g, r) in enumerate(zip(got, ref["korn"]))
        if not _rel_err(g, r) <= RTOL_CONSTANT
    ]


def _parse_gaps(path: Path) -> list[tuple[float, float]]:
    gaps = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if line.startswith("("):
            lo, hi = line[1:line.index(")")].split(",")
            gaps.append((float(lo), float(hi)))
    return gaps


def _check_dispersion(ref: dict, out: Path) -> list[str]:
    table = read_csv(out / "dispersion.csv")
    omega2 = np.asarray(ref["omega2"])
    freqs = np.stack([table[f"omega{j + 1}"] for j in range(omega2.shape[1])], axis=1)
    if freqs.shape != omega2.shape:
        return [f"dispersion: {freqs.shape[0]} samples, expected {omega2.shape[0]}"]
    scale = np.maximum(np.abs(omega2).max(axis=1, keepdims=True), 1.0)
    tol = RTOL_OMEGA2 * scale
    got2 = np.where(np.isnan(freqs), -np.inf, freqs**2)
    ref_nan = np.isnan(frequencies(omega2))
    # a branch may sit on the clamp threshold: then either verdict is right
    borderline = np.abs(omega2 + CLAMP_TOL * scale) <= tol
    nan_mismatch = (np.isnan(freqs) != ref_nan) & ~borderline
    value_mismatch = ~np.isnan(freqs) & ~ref_nan & ~(np.abs(got2 - omega2) <= tol)
    problems = []
    if nan_mismatch.any() or value_mismatch.any():
        problems.append(
            f"dispersion: {int(nan_mismatch.sum())} stability and "
            f"{int(value_mismatch.sum())} value mismatches")
    got_gaps = _parse_gaps(out / "gaps.txt")
    wide = lambda gaps: [g for g in gaps if g[1] - g[0] > RTOL_GAP * max(1.0, g[1])]
    ref_gaps, got_wide = wide([tuple(g) for g in ref["gaps"]]), wide(got_gaps)
    matched = len(ref_gaps) == len(got_wide) and all(
        abs(g[0] - r[0]) <= RTOL_GAP * max(1.0, r[0])
        and abs(g[1] - r[1]) <= RTOL_GAP * max(1.0, r[1])
        for g, r in zip(got_wide, ref_gaps))
    if not matched:
        problems.append(f"band gaps {got_wide} differ from reference {ref_gaps}")
    return problems


def _check_trajectory(ref: dict, out: Path) -> list[str]:
    table = read_csv(out / "trajectory.csv")
    expect = ref["trajectory"]
    if table["t"].size != len(expect["t"]):
        return [f"simulate: {table['t'].size} nodes, expected {len(expect['t'])}"]
    problems = []
    for name, want in expect.items():
        want = np.asarray(want)
        got = table.get(name)
        if got is None:
            problems.append(f"simulate: column {name} missing")
            continue
        scale = max(float(np.abs(want).max()), 1e-12)
        err = float(np.abs(got - want).max()) / scale
        if not err <= RTOL_TRAJECTORY:
            problems.append(f"simulate: {name} relative error {err:.3g}")
    return problems


_CHECKS = {
    "check": _check_constants,
    "korn": _check_korn,
    "dispersion": _check_dispersion,
    "simulate": _check_trajectory,
}


def check(command: str, ref: dict, out: Path) -> list[str]:
    """Problems found in one invocation's outputs; empty when correct."""
    try:
        return _CHECKS[command](ref, out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"{command}: unreadable output ({type(exc).__name__}: {exc})"]
