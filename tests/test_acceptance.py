"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
All tolerances are pinned here, directly from the criteria.
"""

import numpy as np
import pytest
import scipy.linalg

import micromorph as mm
from micromorph.assembly import form_spec_w1, form_spec_w2
from micromorph.dynamics import DynamicState
from micromorph.tensors import ModelVariant
from oracles import dense_form_matrix, plane_wave_pencil, strong_form_pencil


def report(number: int, passed: bool, detail: str):
    print(f"ACCEPTANCE {number:2d}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def demo():
    """Identity-like rate tensors, bounded untilde set with indefinite
    elastic tensor."""
    return mm.isotropic_material(elastic=(1.0, -1.0))


@pytest.fixture(scope="module")
def systems():
    return {
        res: mm.build_fe_system(mm.build_box_mesh((1.0, 1.0, 1.0), (res,) * 3))
        for res in (1, 2, 3)
    }


@pytest.fixture(scope="module")
def grams(systems):
    return {res: mm.assemble_gram(sys) for res, sys in systems.items()}


def _variant_material(variant):
    if variant is ModelVariant.ZERO_LENGTH_SCALE:
        return mm.isotropic_material(
            variant=variant, length_scale=0.0, elastic=(1.0, -1.0)
        )
    if variant is ModelVariant.QUASISTATIC:
        return mm.isotropic_material(variant=variant, elastic=(1.0, -1.0))
    return mm.isotropic_material(variant=variant, elastic=(1.0, -1.0))


def _coercivity_gate(material, systems, grams, label, results):
    for res in (2, 3):
        m1 = mm.discrete_coercivity(
            mm.assemble_w1(material, systems[res]), grams[res]
        )
        results.append((m1 > 1e-8, f"{label} m1({res}^3) = {m1:.6g}"))
    return results


def _energy_gate(material, systems, label, results, steps=1000, dt=0.02):
    sys = systems[2]
    w1 = mm.assemble_w1(material, sys)
    w2 = mm.assemble_w2(material, sys)
    rng = np.random.default_rng(7)
    s0 = DynamicState.from_vectors(
        w1.layout, 0.0,
        0.5 * rng.standard_normal(sys.n_dofs), 0.5 * rng.standard_normal(sys.n_dofs),
    )
    traj = mm.newmark_integrate(s0, w1, w2, None, dt, steps)
    total = traj.total_energy
    drift = float(np.abs(total - total[0]).max() / abs(total[0]))
    results.append((drift <= 1e-9, f"{label} energy drift {drift:.3g}"))
    return results


def _contraction_gate(material, systems, grams, label, results):
    sys = systems[2]
    w1 = mm.assemble_w1(material, sys)
    w2 = mm.assemble_w2(material, sys)
    gram = grams[2]
    m1 = mm.discrete_coercivity(w1, gram)
    m2 = mm.discrete_boundedness(w2, gram)
    c, delta = mm.contraction_constant(m1, m2)
    rng = np.random.default_rng(11)
    s0 = DynamicState.from_vectors(
        w1.layout, 0.0,
        rng.standard_normal(sys.n_dofs), rng.standard_normal(sys.n_dofs),
    )
    traj = mm.picard_integrate(s0, w1, w2, None, delta, c, n_t=9, gram=gram)
    iters = traj.diagnostics["picard_iterations"][0]
    ratios = traj.diagnostics["contraction_ratios"][0]
    worst = max(ratios) if ratios else 0.0
    results.append(
        (worst <= 0.5, f"{label} max ratio {worst:.4g} (bound 0.25 theory)")
    )
    results.append((iters <= 25, f"{label} converged in {iters} sweeps"))
    return results


def _cross_validation_gate(material, systems, grams, label, results):
    sys = systems[2]
    w1 = mm.assemble_w1(material, sys)
    w2 = mm.assemble_w2(material, sys)
    gram = grams[2]
    m1 = mm.discrete_coercivity(w1, gram)
    m2 = mm.discrete_boundedness(w2, gram)
    c, _ = mm.contraction_constant(m1, m2)
    rng = np.random.default_rng(42)
    s0 = DynamicState.from_vectors(
        w1.layout, 0.0,
        0.3 * rng.standard_normal(sys.n_dofs), 0.3 * rng.standard_normal(sys.n_dofs),
    )

    def gram_norm(v):
        return float(np.sqrt(gram.quadratic(v)))

    errors = []
    for n_t in (5, 9, 17, 33):
        tp = mm.picard_integrate(
            s0, w1, w2, None, 0.5, c, n_t=n_t, gram=gram, fixed_tol=1e-12
        )
        h = tp.times[1] - tp.times[0]
        tn = mm.newmark_integrate(s0, w1, w2, None, h / 2, 2 * (tp.n_nodes - 1))
        errors.append(
            max(
                gram_norm(tp.positions[j] - tn.positions[2 * j])
                for j in range(tp.n_nodes)
            )
        )
    ratios = [errors[i] / errors[i + 1] for i in range(3)]
    ok = all(3.5 <= r <= 4.5 for r in ratios)
    results.append(
        (ok, f"{label} halving ratios " + ", ".join(f"{r:.3f}" for r in ratios))
    )
    return results


def test_criterion_01_hypothesis_gate(demo, systems, tmp_path):
    from micromorph.cli import main

    results = []
    report_ok = mm.check_hypotheses(demo)
    results.append(
        (report_ok.hypotheses_satisfied is True,
         "items (i)-(vii) all pass on the demo material")
    )
    flipped = mm.isotropic_material(
        elastic=(1.0, -1.0), inertia_elastic=(-1.0, 0.0)
    )
    report_bad = mm.check_hypotheses(flipped)
    results.append(
        (report_bad.failed_items() == ["iii"],
         "negative rate-elastic tensor flips exactly item (iii)")
    )
    results.append(
        (report_bad.hypotheses_satisfied is False, "verdict flips with it")
    )
    # the same gate through the check command
    good_ini = tmp_path / "good.ini"
    good_ini.write_text("[material]\nc_e = isotropic 1.0 -1.0\n")
    bad_ini = tmp_path / "bad.ini"
    bad_ini.write_text(
        "[material]\nc_e = isotropic 1.0 -1.0\nct_e = isotropic -1.0 0.0\n"
    )
    code_good = main(["check", "--config", str(good_ini), "--out", str(tmp_path / "a")])
    code_bad = main(["check", "--config", str(bad_ini), "--out", str(tmp_path / "b")])
    results.append((code_good == 0, "check exits 0 on the demo material"))
    results.append((code_bad == 3, "check exits 3 with the flipped tensor"))
    ok = all(r[0] for r in results)
    report(1, ok, "; ".join(r[1] for r in results))


def test_criterion_02_discrete_coercivity(demo, systems, grams):
    results = []
    _coercivity_gate(demo, systems, grams, "full", results)
    # simplified variant: dropping the micro-rate tensor collapses coercivity
    ratios = []
    for res in (2, 3):
        sys, gram = systems[res], grams[res]
        good = mm.isotropic_material(variant=ModelVariant.SIMPLIFIED_INERTIA)
        degenerate = mm.isotropic_material(
            variant=ModelVariant.SIMPLIFIED_INERTIA, inertia_micro=(0.0, 0.0)
        )
        m_good = mm.discrete_coercivity(mm.assemble_w1(good, sys), gram)
        m_bad = mm.discrete_coercivity(mm.assemble_w1(degenerate, sys), gram)
        ratios.append(m_bad / m_good)
        results.append(
            (m_bad < 0.1 * m_good,
             f"simplified {res}^3: m1 drops to {m_bad / m_good:.2%}")
        )
    # recorded regression ratios
    results.append((abs(ratios[0] - 0.019108) < 5e-4, f"ratio(2^3) {ratios[0]:.6f}"))
    results.append((abs(ratios[1] - 0.004372) < 5e-4, f"ratio(3^3) {ratios[1]:.6f}"))
    ok = all(r[0] for r in results)
    report(2, ok, "; ".join(r[1] for r in results))


def test_criterion_03_energy_conservation(demo, systems):
    results = _energy_gate(demo, systems, "full", [])
    report(3, all(r[0] for r in results), "; ".join(r[1] for r in results))


def test_criterion_04_contraction_bound(demo, systems, grams):
    results = _contraction_gate(demo, systems, grams, "full", [])
    report(4, all(r[0] for r in results), "; ".join(r[1] for r in results))


def test_criterion_05_integrator_cross_validation(demo, systems, grams):
    results = _cross_validation_gate(demo, systems, grams, "full", [])
    report(5, all(r[0] for r in results), "; ".join(r[1] for r in results))


def test_criterion_06_korn_certificate(systems):
    results = []
    values = {}
    for res in (2, 3):
        c = mm.korn_curl_constant(systems[res])
        values[res] = c
        results.append(
            (np.isfinite(c) and c >= 1.0 - 1e-12, f"C({res}^3) = {c:.6g}")
        )
    sys4 = mm.build_fe_system(mm.build_box_mesh((1.0, 1.0, 1.0), (4, 4, 4)))
    c4 = mm.korn_curl_constant(sys4)
    values[4] = c4
    results.append((np.isfinite(c4) and c4 >= 1.0 - 1e-12, f"C(4^3) = {c4:.6g}"))
    ratio = values[4] / values[2]
    results.append((1 / 4 < ratio < 4, f"refinement 2^3 -> 4^3 factor {ratio:.3f}"))
    # recorded regression baselines
    results.append((abs(values[2] - 1.8098504) < 1e-4, "baseline 2^3"))
    results.append((abs(values[3] - 1.9063104) < 1e-4, "baseline 3^3"))
    results.append((abs(values[4] - 1.9510694) < 1e-4, "baseline 4^3"))
    report(6, all(r[0] for r in results), "; ".join(r[1] for r in results))


def test_criterion_07_dispersion_structure(demo):
    results = []
    ks = np.linspace(0.0, 4.0, 9)
    d = np.array([1.0, 0.0, 0.0])
    disp = mm.dispersion_curves(demo, d, ks)

    freqs0 = disp.frequencies[0]
    results.append(
        (int(np.sum(freqs0 < 1e-8)) == 3, "exactly 3 near-zero branches at k=0")
    )
    a0, b0 = strong_form_pencil(demo, d, 0.0)
    ref0 = np.sort(scipy.linalg.eigh(b0, a0, eigvals_only=True))
    ref0 = np.sqrt(np.clip(ref0, 0.0, None))
    cutoff_err = float(
        np.abs(freqs0[3:] - ref0[3:]).max() / np.abs(ref0[3:]).max()
    )
    results.append(
        (np.all(freqs0[3:] > 1e-8) and cutoff_err <= 1e-8,
         f"9 positive cutoffs match brute-force pencil (rel err {cutoff_err:.2e})")
    )

    even_err = 0.0
    for k in (0.5, 2.0):
        ap, bp = plane_wave_pencil(demo, d, k)
        am, bm = plane_wave_pencil(demo, d, -k)
        wp = np.sort(scipy.linalg.eigh(bp, ap, eigvals_only=True))
        wm = np.sort(scipy.linalg.eigh(bm, am, eigvals_only=True))
        even_err = max(even_err, float(np.abs(wp - wm).max()))
    results.append((even_err <= 1e-10, f"even in k (err {even_err:.2e})"))

    classical = mm.isotropic_material(
        elastic=(1.0, -1.0),
        inertia_elastic=(0.0, 0.0), inertia_coupling=0.0,
        inertia_micro=(0.0, 0.0), inertia_curvature=0.0,
    )
    disp_classical = mm.dispersion_curves(classical, d, ks)
    flattened = disp.frequencies[-1, 2] < disp_classical.frequencies[-1, 2]
    results.append(
        (bool(flattened),
         f"gradient inertia flattens the top acoustic branch at k={ks[-1]:.2g} "
         f"({disp.frequencies[-1, 2]:.4g} < {disp_classical.frequencies[-1, 2]:.4g})")
    )
    report(7, all(r[0] for r in results), "; ".join(r[1] for r in results))


def test_criterion_08_limit_regimes(systems, grams):
    results = []
    zls = _variant_material(ModelVariant.ZERO_LENGTH_SCALE)
    _coercivity_gate(zls, systems, grams, "zero-length", results)
    _energy_gate(zls, systems, "zero-length", results)
    _contraction_gate(zls, systems, grams, "zero-length", results)
    _cross_validation_gate(zls, systems, grams, "zero-length", results)
    quasi = _variant_material(ModelVariant.QUASISTATIC)
    _coercivity_gate(quasi, systems, grams, "quasistatic", results)
    report(8, all(r[0] for r in results), "; ".join(r[1] for r in results))


def test_criterion_09_oracle_equivalence(demo, systems):
    sys = systems[1]
    results = []
    w1 = mm.assemble_w1(demo, sys)
    w2 = mm.assemble_w2(demo, sys)
    e1 = float(np.abs(w1.to_dense() - dense_form_matrix(sys, form_spec_w1(demo))).max())
    e2 = float(np.abs(w2.to_dense() - dense_form_matrix(sys, form_spec_w2(demo))).max())
    results.append((e1 <= 1e-12, f"W1 entrywise err {e1:.2e}"))
    results.append((e2 <= 1e-12, f"W2 entrywise err {e2:.2e}"))

    rng = np.random.default_rng(5)
    w_prev = rng.standard_normal(sys.n_dofs)
    load = rng.standard_normal(sys.n_dofs)
    a = mm.stationary_solve(mm.DefiniteSolver(w1.matrix), w2, w_prev, load)
    ref = np.linalg.solve(w1.to_dense(), load - w2.to_dense() @ w_prev)
    e3 = float(np.abs(a - ref).max() / np.abs(ref).max())
    results.append((e3 <= 1e-10, f"stationary solve vs dense {e3:.2e}"))
    report(9, all(r[0] for r in results), "; ".join(r[1] for r in results))


def test_criterion_10_determinism(tmp_path):
    from micromorph.cli import main

    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[material]\nc_e = isotropic 1.0 -1.0\n"
        "[mesh]\nresolution = 2 2 2\n"
        "[simulation]\nt_final = 0.2\ninitial_u = sine 1.0\ninitial_pt = sine 0.5\n"
    )
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append((out / "trajectory.csv").read_bytes())
    same = outs[0] == outs[1]
    report(10, same, f"byte-identical trajectory CSVs ({len(outs[0])} bytes)")
