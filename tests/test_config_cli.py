import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from micromorph.cli import main, run
from micromorph.config import (
    _FIELD_SHAPES,
    RunConfig,
    config_digest,
    initial_field_callable,
    initial_state_from_config,
    load_from_config,
    material_from_config,
    mesh_from_config,
    parse_config,
    serialize_config,
)
from micromorph.errors import ConfigError, MicromorphError

ROOT = Path(__file__).resolve().parents[1]

MINIMAL = """
[material]
variant = full
"""

DEMO = """
[material]
variant = full
c_e = isotropic 1.0 -1.0

[mesh]
resolution = 2 2 2

[simulation]
t_final = 0.2
initial_u = sine 1.0

[analysis]
k_samples = 0.0 0.5 1.0 1.5 2.0
"""


class TestParse:
    def test_minimal_fills_defaults_and_round_trips(self):
        cfg = parse_config(MINIMAL)
        assert cfg.mesh.resolution == (2, 2, 2)
        assert cfg.simulation.integrator == "picard"
        again = parse_config(serialize_config(cfg))
        assert again == cfg
        assert config_digest(again) == config_digest(cfg)

    def test_empty_config_is_all_defaults(self):
        assert parse_config("") == RunConfig()

    def test_unknown_key_names_key_and_line(self):
        text = "[material]\nrho = 1.0\nrho_typo = 2.0\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        (line, key, reason) = err.value.issues[0]
        assert key == "rho_typo"
        assert line == 3

    def test_tensor_arity_error_names_class(self):
        text = "[material]\nc_e = components " + " ".join(["1.0"] * 20) + "\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "elastic" in err.value.issues[0][2]
        assert "21" in err.value.issues[0][2]

    def test_unknown_section(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[materail]\nrho = 1\n")
        assert "unknown section" in err.value.issues[0][2]

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("[material]\nrho = 1\nrho = 2\n")

    def test_bad_variant(self):
        with pytest.raises(ConfigError, match="variant"):
            parse_config("[material]\nvariant = sideways\n")

    def test_component_tensor_round_trip(self):
        comps = " ".join(str(float(i)) for i in range(1, 22))
        cfg = parse_config(f"[material]\nc_e = components {comps}\n")
        params = material_from_config(cfg)
        assert params.elastic.matrix[0, 0] == 1.0
        again = parse_config(serialize_config(cfg))
        assert again == cfg

    def test_material_builder_applies_variant(self):
        cfg = parse_config("[material]\nvariant = zero-length-scale\nlc = 0.0\n")
        params = material_from_config(cfg)
        assert params.length_scale == 0.0


class TestCommands:
    @pytest.fixture()
    def demo_path(self, tmp_path):
        p = tmp_path / "demo.ini"
        p.write_text(DEMO)
        return p

    def test_check_well_posed_exit_zero(self, demo_path, tmp_path, capsys):
        code = main(["check", "--config", str(demo_path), "--out", str(tmp_path / "o")])
        assert code == 0
        out = capsys.readouterr().out
        assert "well-posed" in out
        assert (tmp_path / "o" / "report.txt").exists()
        assert (tmp_path / "o" / "moduli.csv").exists()

    def test_check_hypothesis_failure_exit_three(self, tmp_path, capsys):
        p = tmp_path / "bad.ini"
        p.write_text("[material]\nct_e = isotropic -1.0 0.0\n")
        code = main(["check", "--config", str(p), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "NOT well-posed" in capsys.readouterr().out

    def test_config_error_exit_two(self, tmp_path, capsys):
        p = tmp_path / "bad.ini"
        p.write_text("[material]\nrho_typo = 1\n")
        code = main(["check", "--config", str(p)])
        assert code == 2
        assert "MICROMORPH-ERROR config" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, issue",
        [("[output]\ndirectory = elsewhere\n", "line 1: output: unknown section"),
         ("[output]\nprecision = 17\n", "line 1: output: unknown section"),
         ("[output]\n", "line 1: output: unknown section"),
         ("[simulation]\nfixed_tol = 1e-10\n",
          "line 2: fixed_tol: unknown key in [simulation]"),
         ("[simulation]\nprecision = 17\n",
          "line 2: precision: unknown key in [simulation]")],
    )
    def test_output_settings_and_sweep_tolerance_exit_two(self, text, issue, tmp_path,
                                                          capsys):
        # --out alone names the output directory; the CSV precision and the
        # Picard sweep tolerance are constants of the program
        p = tmp_path / "run.ini"
        p.write_text(text)
        out = tmp_path / "o"
        assert main(["check", "--config", str(p), "--out", str(out)]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"MICROMORPH-ERROR config: {issue}")
        assert not out.exists() and not (tmp_path / "elsewhere").exists()

    def test_out_defaults_to_out_in_the_working_directory(self, tmp_path,
                                                          monkeypatch):
        p = tmp_path / "empty.ini"
        p.write_text("")
        run_dir = tmp_path / "cwd"
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        assert main(["check", "--config", str(p)]) == 0
        assert (run_dir / "out" / "moduli.csv").is_file()

    def test_missing_file_exit_two(self, tmp_path):
        assert main(["check", "--config", str(tmp_path / "nope.ini")]) == 2

    def test_key_without_value_exits_two(self, tmp_path, capsys):
        p = tmp_path / "bad.ini"
        p.write_text("[material]\nrho\n")
        out = tmp_path / "o"
        assert main(["check", "--config", str(p), "--out", str(out)]) == 2
        assert "line 2: rho: expected 'key = value'" in capsys.readouterr().err
        assert not out.exists()

    def test_picard_refuses_a_failed_hypothesis_before_any_output(self, tmp_path,
                                                                  capsys):
        p = tmp_path / "bad.ini"
        p.write_text("[material]\nct_e = isotropic 0 0\n")
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(p), "--out", str(out)]) == 3
        assert "cannot integrate: failed items iii" in capsys.readouterr().err
        assert not out.exists()

    def test_dispersion_without_gaps_says_so(self, tmp_path, capsys):
        p = tmp_path / "one.ini"
        p.write_text("[analysis]\nk_samples = 1.0\n")
        out = tmp_path / "o"
        assert main(["dispersion", "--config", str(p), "--out", str(out)]) == 0
        assert "none detected at this sampling" in capsys.readouterr().out
        assert "none detected at this sampling" in (out / "gaps.txt").read_text()

    @pytest.mark.parametrize("variant", ["quasistatic", "simplified"])
    def test_dispersion_at_k0_asks_for_positive_k(self, variant, tmp_path, capsys):
        # check calls both materials well posed; their default k_samples
        # start at k = 0, where a uniform wave carries no rate energy
        p = tmp_path / "run.ini"
        p.write_text(f"[material]\nvariant = {variant}\n")
        assert main(["check", "--config", str(p), "--out", str(tmp_path / "c")]) == 0
        capsys.readouterr()
        assert main(["dispersion", "--config", str(p), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("MICROMORPH-ERROR hypothesis: ")
        assert "at k=0.0 " in err
        assert "a uniform wave carries no rate energy" in err
        assert "need k > 0" in err
        assert "inertia hypotheses violated" not in err

    def test_simulate_zero_data_zero_trajectory(self, tmp_path):
        p = tmp_path / "zero.ini"
        p.write_text("[simulation]\nt_final = 0.1\n")
        code = main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")])
        assert code == 0
        rows = [
            l for l in (tmp_path / "o" / "trajectory.csv").read_text().splitlines()
            if l and not l.startswith("#") and not l.startswith("t,")
        ]
        for row in rows:
            values = [float(x) for x in row.split(",")[1:-1]]
            assert all(v == 0.0 for v in values)

    def test_simulate_deterministic_byte_identical(self, demo_path, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["simulate", "--config", str(demo_path), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(demo_path), "--out", str(out2)]) == 0
        b1 = (out1 / "trajectory.csv").read_bytes()
        b2 = (out2 / "trajectory.csv").read_bytes()
        assert b1 == b2

    def test_picard_iterations_column_on_multi_interval_run(self, tmp_path):
        from micromorph.cli import _operators, _picard

        text = DEMO.replace(
            "t_final = 0.2",
            "t_final = 1.2\nnodes_per_interval = 9\nload_f = poly 0 0 0 | 0 0 5",
        )
        p = tmp_path / "multi.ini"
        p.write_text(text)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(p), "--out", str(out)]) == 0
        rows = [
            l for l in (out / "trajectory.csv").read_text().splitlines()
            if l and not l.startswith("#") and not l.startswith("t,")
        ]
        column = [int(row.split(",")[-1]) for row in rows]

        cfg = parse_config(text)
        params, sys_, w1, w2 = _operators(cfg)
        state0 = initial_state_from_config(cfg, sys_)
        traj, _ = _picard(cfg, params, sys_, w1, w2, state0, lambda _: 1.2)
        iters = traj.diagnostics["picard_iterations"]
        assert len(iters) > 1 and len(set(iters)) > 1
        # the column as derived from the node index before the integrator
        # reported each node's subinterval
        per_interval = (traj.n_nodes - 1) // len(iters)
        expected = [
            iters[max(min((i - 1) // per_interval, len(iters) - 1), 0)]
            for i in range(traj.n_nodes)
        ]
        assert column == expected

    def test_check_twice_in_one_process_byte_identical(self, tmp_path):
        # res 3 (375 dofs) certifies through the sparse ARPACK path
        p = tmp_path / "res3.ini"
        p.write_text(DEMO.replace("resolution = 2 2 2", "resolution = 3 3 3"))
        outs = [tmp_path / "c1", tmp_path / "c2"]
        for out in outs:
            assert main(["check", "--config", str(p), "--out", str(out)]) == 0
        first, second = ((out / "moduli.csv").read_bytes() for out in outs)
        assert first == second

    def test_dispersion_twice_in_one_process_byte_identical(self, demo_path, tmp_path):
        outs = [tmp_path / "d1", tmp_path / "d2"]
        for out in outs:
            assert main(["dispersion", "--config", str(demo_path), "--out", str(out)]) == 0
        for name in ("dispersion.csv", "gaps.txt"):
            first, second = ((out / name).read_bytes() for out in outs)
            assert first == second

    def test_dispersion_artifacts(self, demo_path, tmp_path):
        out = tmp_path / "disp"
        assert main(["dispersion", "--config", str(demo_path), "--out", str(out)]) == 0
        text = (out / "dispersion.csv").read_text()
        assert "config-sha256" in text
        header = [l for l in text.splitlines() if l.startswith("k,")][0]
        assert header == "k," + ",".join(f"omega{j}" for j in range(1, 13))
        assert (out / "gaps.txt").exists()

    def test_korn_levels(self, tmp_path):
        p = tmp_path / "korn.ini"
        p.write_text("[mesh]\nresolution = 1 1 1\n[analysis]\nkorn_levels = 2\n")
        out = tmp_path / "o"
        assert main(["korn", "--config", str(p), "--out", str(out)]) == 0
        rows = [
            l for l in (out / "korn.csv").read_text().splitlines()
            if l and not l.startswith("#") and not l.startswith("level")
        ]
        assert len(rows) == 2

    def test_contraction_demo_ratios_under_bound(self, demo_path, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["contraction-demo", "--config", str(demo_path), "--out", str(out)]) == 0
        rows = [
            l for l in (out / "contraction.csv").read_text().splitlines()
            if l and not l.startswith("#") and not l.startswith("sweep")
        ]
        assert rows
        for row in rows:
            _, ratio, bound = row.split(",")
            assert float(ratio) <= float(bound)

    def test_contraction_demo_on_a_constant_map(self, tmp_path, capsys):
        # M2 = 0: delta = inf, so the demo runs one subinterval over t_final
        # and its bound delta^2 c is 0
        p = tmp_path / "constant.ini"
        p.write_text(
            "[material]\nc_e = isotropic 0 0\nc_c = isotropic 0\n"
            "c_micro = isotropic 0 0\nl_aniso = isotropic 0\n"
            "[simulation]\nt_final = 0.2\ninitial_u = sine 1.0\ninitial_ut = sine 1.0\n"
        )
        out = tmp_path / "o"
        assert main(["check", "--config", str(p), "--out", str(out)]) == 0
        assert "fixed-point map is constant" in capsys.readouterr().out
        assert main(["contraction-demo", "--config", str(p), "--out", str(out)]) == 0
        rows = [
            l for l in (out / "contraction.csv").read_text().splitlines()
            if l and not l.startswith("#") and not l.startswith("sweep")
        ]
        assert rows == ["1,0,0"]

    def test_csv_headers_carry_config(self, demo_path, tmp_path):
        out = tmp_path / "o"
        main(["simulate", "--config", str(demo_path), "--out", str(out)])
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0].startswith("# micromorph")
        assert lines[1].startswith("# config-sha256: ")
        assert any(l.startswith("# cfg [material]") for l in lines)
        assert any(l.startswith("# columns: t,kinetic,potential") for l in lines)

    def test_csv_header_names_no_output_setting(self, tmp_path):
        # the header holds what the run computes from, not where it writes
        p = tmp_path / "empty.ini"
        p.write_text("")
        texts = []
        for out in (tmp_path / "a", tmp_path / "b"):
            assert main(["check", "--config", str(p), "--out", str(out)]) == 0
            texts.append((out / "moduli.csv").read_text())
        assert texts[0] == texts[1]
        cfg = [l for l in texts[0].splitlines() if l.startswith("# cfg ")]
        assert [l for l in cfg if l.startswith("# cfg [")] == [
            "# cfg [material]", "# cfg [mesh]", "# cfg [simulation]", "# cfg [analysis]"
        ]
        for word in ("output", "directory", "precision", "fixed_tol"):
            assert not any(word in l for l in cfg), word

    def test_run_api_unknown_command(self):
        with pytest.raises(ValueError):
            run("frobnicate", RunConfig())


@pytest.mark.parametrize(
    "command, simulation, calls",
    [("check", "", 3),
     ("simulate", "", 3),
     ("simulate", "integrator = newmark\n", 2),   # no Gram matrix
     ("contraction-demo", "", 3),
     ("korn", "", 4),                             # two forms per level, 2 levels
     ("dispersion", "", 0)],
)
def test_assemble_form_calls_per_command(command, simulation, calls, tmp_path,
                                         monkeypatch):
    """Each command assembles every operator it needs once."""
    import micromorph.analysis
    import micromorph.assembly

    original = micromorph.assembly.assemble_form
    specs = []

    def counted(sys, spec):
        specs.append(spec)
        return original(sys, spec)

    monkeypatch.setattr(micromorph.assembly, "assemble_form", counted)
    monkeypatch.setattr(micromorph.analysis, "assemble_form", counted)
    p = tmp_path / "run.ini"
    p.write_text(DEMO.replace("[simulation]\n", "[simulation]\n" + simulation))
    assert main([command, "--config", str(p), "--out", str(tmp_path / "o")]) == 0
    assert len(specs) == calls


@pytest.mark.parametrize(
    "command, simulation, calls",
    [("check", "", 4),            # m1: Gram, W1, inertia count; M2: Gram
     ("simulate", "", 5),         # check's four, then W1 for every sweep
     ("simulate", "integrator = newmark\n", 2),   # W1, W1 + beta dt^2 W2
     ("contraction-demo", "", 5),
     ("korn", "", 2),             # the right-hand form, once per level
     ("dispersion", "", 0)],
)
def test_factorizations_per_command(command, simulation, calls, tmp_path,
                                    monkeypatch):
    """Each solver factors its operator once, however many solves it serves."""
    import micromorph.linalg

    original = micromorph.linalg._symmetric_lu
    factored = []

    def counted(mat):
        factored.append(mat.shape)
        return original(mat)

    monkeypatch.setattr(micromorph.linalg, "_symmetric_lu", counted)
    p = tmp_path / "run.ini"
    p.write_text(DEMO.replace("[simulation]\n", "[simulation]\n" + simulation))
    assert main([command, "--config", str(p), "--out", str(tmp_path / "o")]) == 0
    assert len(factored) == calls


def test_check_on_a_large_box_matches_the_dense_m1(tmp_path):
    """On a box of side 1e6, m1 = 1 - 1.3e-10, where shift-invert at 0 did
    not converge; started from the symbol floor, m1 matches a Jacobi-scaled
    dense reference."""
    import scipy.linalg

    from micromorph.assembly import assemble_gram, assemble_w1
    from micromorph.fespace import build_fe_system

    text = "[mesh]\ndims = 1e6 1e6 1e6\nresolution = 3 3 3\n"
    p = tmp_path / "big.ini"
    p.write_text(text)
    assert main(["check", "--config", str(p), "--out", str(tmp_path / "o")]) == 0
    row = next(line for line in (tmp_path / "o" / "moduli.csv").read_text().splitlines()
               if line.startswith("coercivity_m1,"))
    m1 = float(row.split(",")[2])

    cfg = parse_config(text)
    sys_ = build_fe_system(mesh_from_config(cfg))
    w1 = assemble_w1(material_from_config(cfg), sys_).to_dense()
    gram = assemble_gram(sys_).to_dense()
    scale = 1.0 / np.sqrt(np.diag(gram))
    dense = scipy.linalg.eigh(scale[:, None] * w1 * scale, scale[:, None] * gram * scale,
                              eigvals_only=True)[0]
    assert m1 == pytest.approx(dense, rel=1e-10)


# materials that check calls not well posed: no positive definite micro-rate
# tensor in the simplified variant, and an indefinite elastic-rate tensor
GATE_MATERIALS = [
    ("[material]\nvariant = simplified\nct_micro = isotropic 0 0\n"
     "ct_c = isotropic 1\n", "micro-rate-definite"),
    ("[material]\nct_e = isotropic -1 0\n", "iii"),
]


@pytest.mark.parametrize("material, failed", GATE_MATERIALS,
                         ids=["simplified-no-micro-rate", "indefinite-elastic-rate"])
@pytest.mark.parametrize(
    "command, section, action",
    [("simulate", "[simulation]\nintegrator = newmark\n", "integrate"),
     ("dispersion", "[analysis]\nk_samples = 0.0\n", "compute dispersion"),
     ("contraction-demo", "", "integrate")],
    ids=["newmark", "dispersion", "contraction-demo"],
)
def test_failed_checklist_refuses_before_assembly(material, failed, command, section,
                                                  action, tmp_path, capsys,
                                                  monkeypatch):
    """Every command with model output refuses what check calls not well
    posed: exit 3, one stderr line, nothing assembled, no output directory."""
    import micromorph.assembly

    calls = []
    original = micromorph.assembly.assemble_form

    def counted(sys, spec):
        calls.append(spec)
        return original(sys, spec)

    monkeypatch.setattr(micromorph.assembly, "assemble_form", counted)
    p = tmp_path / "run.ini"
    p.write_text(material + section)
    out = tmp_path / "o"
    assert main([command, "--config", str(p), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"MICROMORPH-ERROR hypothesis: cannot {action}: failed items {failed}\n"
    )
    assert calls == []
    assert not out.exists()


# loads whose value overflows at the end of the run (t_final)
OVERFLOWING_LOAD_F = "[simulation]\nt_final = 10\nload_f = poly 0 0 0 | 1e308 0 0\n"
OVERFLOWING_LOAD_F_NEWMARK = (
    "[simulation]\nt_final = 10\nintegrator = newmark\ndt = 0.5\n"
    "load_f = poly 0 0 0 | 1e308 0 0\n"
)
OVERFLOWING_LOAD_M = (
    "[simulation]\nt_final = 2\nload_m = poly ZEROS | ZEROS | 1e308 0 0 0 0 0 0 0 0\n"
).replace("ZEROS", " ".join(["0"] * 9))
OVERFLOWING_POWER = "[simulation]\nt_final = 1e200\nload_f = poly 0 0 0 | 0 0 0 | 1 0 0\n"
# every entry finite, the largest modulus (6 * 5e307) not
OVERFLOWING_MODULI = (
    "[material]\nc_e = components " + " ".join(["5e307"] * 21)
    + "\n[mesh]\nresolution = 2 2 2\n"
)


def _cli_subprocess(command: str, text: str, tmp_path):
    """``micromorph command`` on ``text`` in a fresh interpreter, so that
    every line a warning prints reaches its stderr."""
    p = tmp_path / "run.ini"
    p.write_text(text)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-m", "micromorph", command, "--config", str(p),
         "--out", str(tmp_path / "o")],
        env=env, capture_output=True, text=True, timeout=120,
    )


class TestRejectedValues:
    """Values that used to crash a command or pass silently exit 2 instead."""

    def test_issues_are_listed_in_line_order(self):
        text = ("[simulation]\nt_final = -1\nsample_dofs = -1 0\nintegrator = euler\n"
                "[analysis]\nkorn_levels = 0\n")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert [(ln, k) for ln, k, _ in err.value.issues] == [
            (2, "t_final"), (3, "sample_dofs"), (4, "integrator"), (6, "korn_levels")
        ]
        assert str(err.value).startswith("line 2: t_final: ")

    @pytest.mark.parametrize(
        "command, text, prefix",
        [("check", OVERFLOWING_LOAD_F, "line 3: load_f: value at time 10.0 is not finite"),
         ("simulate", OVERFLOWING_LOAD_F_NEWMARK, "line 5: load_f: value at time 10.0"),
         ("korn", OVERFLOWING_LOAD_M, "line 3: load_m: value at time 2.0"),
         ("dispersion", OVERFLOWING_POWER, "line 3: load_f: value at time 1e+200")],
    )
    def test_overflowing_load_is_one_stderr_line(self, command, text, prefix, tmp_path):
        proc = _cli_subprocess(command, text, tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [proc.stderr.strip()]
        assert proc.stderr.startswith(f"MICROMORPH-ERROR config: {prefix}")

    def test_overflowing_wavenumber_is_one_stderr_line(self, tmp_path):
        proc = _cli_subprocess("dispersion", "[analysis]\nk_samples = 0 1e200\n", tmp_path)
        assert proc.returncode == 2
        [line] = proc.stderr.splitlines()
        assert line.startswith("MICROMORPH-ERROR config: ") and "k_samples" in line

    def test_zero_direction_is_one_stderr_line(self, tmp_path):
        proc = _cli_subprocess("dispersion", "[analysis]\ndirection = 0 0 0\n", tmp_path)
        assert proc.returncode == 2
        [line] = proc.stderr.splitlines()
        assert line.startswith("MICROMORPH-ERROR config: ") and "direction" in line

    def test_huge_direction_is_accepted_without_warnings(self, tmp_path):
        proc = _cli_subprocess(
            "dispersion", "[analysis]\ndirection = 1e308 1e308 0\n", tmp_path
        )
        assert (proc.returncode, proc.stderr) == (0, "")

    @pytest.mark.parametrize(
        "key", ["load_f", "load_m", "initial_u", "initial_ut", "initial_p", "initial_pt"]
    )
    def test_empty_field_value_names_its_line(self, key):
        with pytest.raises(ConfigError) as err:
            parse_config(f"[simulation]\nt_final = 0.1\n{key} =\n")
        assert err.value.issues == [(3, key, "empty field specification")]

    @pytest.mark.parametrize(
        "text, key, line",
        [("[simulation]\nsample_dofs = -1 0\n", "sample_dofs", 2),
         ("[simulation]\nsample_dofs = 0 0 1\n", "sample_dofs", 2),
         ("[analysis]\nkorn_levels = 0\n", "korn_levels", 2),
         ("[mesh]\nresolution = 1 1 1\n[analysis]\nkorn_levels = -1\n",
          "korn_levels", 4),
         ("[simulation]\nt_final = 0\n", "t_final", 2),
         ("[simulation]\nt_final = -1\n", "t_final", 2),
         ("[simulation]\nt_final = inf\n", "t_final", 2),
         ("[simulation]\nintegrator = newmark\ndt = 0\n", "dt", 3),
         ("[simulation]\nintegrator = newmark\nt_final = 1e300\ndt = 1e-300\n",
          "dt", 4),
         ("[analysis]\ndirection = 0 0 0\n", "direction", 2),
         ("[analysis]\nk_samples = -1 0\n", "k_samples", 2),
         ("[mesh]\nresolution = 0 2 2\n", "resolution", 2),
         ("[mesh]\ndims = 1 1\n", "dims", 2),
         ("[simulation]\nnodes_per_interval = 2\n", "nodes_per_interval", 2),
         ("[material]\nrho = -1\n", "rho", 2),
         ("[material]\nrho = nan\n", "rho", 2),
         ("[material]\nmu = 0\n", "mu", 2),
         ("[material]\nvariant = full\nlc = 0\n", "lc", 3),
         ("[material]\nvariant = full\nj = 0\n", "j", 3),
         ("[material]\nrho = inf\n", "rho", 2),
         ("[material]\nmu = inf\n", "mu", 2),
         ("[material]\nrho = 1e400\n", "rho", 2),
         ("[material]\nc_e = isotropic inf 0\n", "c_e", 2),
         ("[material]\nc_e = isotropic nan 0\n", "c_e", 2),
         ("[material]\nc_e = isotropic 1e308 1e308\n", "c_e", 2),
         ("[simulation]\nload_f = constant nan 0 0\n", "load_f", 2),
         ("[simulation]\ninitial_u = sine inf\n", "initial_u", 2),
         ("[simulation]\nload_f = table 0 0 0 0 | nan 0 0 0\n", "load_f", 2),
         ("[mesh]\ndims = 1e-110 1e-110 1e-110\n", "dims", 2),
         ("[mesh]\ndims = 1e120 1e120 1e120\n", "dims", 2),
         ("[simulation]\nintegrator = newmark\ndt = 1e160\nt_final = 2e160\n",
          "dt", 3),
         (OVERFLOWING_LOAD_F, "load_f", 3),
         (OVERFLOWING_LOAD_F_NEWMARK, "load_f", 5),
         (OVERFLOWING_LOAD_M, "load_m", 3),
         (OVERFLOWING_POWER, "load_f", 3),
         (OVERFLOWING_MODULI, "c_e", 2),
         ("[mesh]\nresolution = 2 2\n", "resolution", 2),
         ("[material]\nl_aniso = isotropic 1 2\n", "l_aniso", 2),
         ("[simulation]\nload_f = table 0 1 2 3 | 0 4 5 6\n", "load_f", 2),
         ("[analysis]\ndirection = 1 0\n", "direction", 2),
         ("[analysis]\nk_samples =\n", "k_samples", 2)],
    )
    def test_out_of_range_integer_names_its_line(self, text, key, line):
        # the overflowing modulus warns while its tensor is built
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ConfigError) as err:
                parse_config(text)
        assert [(ln, k) for ln, k, _ in err.value.issues] == [(line, key)]

    def test_unknown_variant_keeps_variant_free_scalar_checks(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[material]\nvariant = fulll\nrho = -1\n")
        assert [(ln, k) for ln, k, _ in err.value.issues] == [
            (2, "variant"), (3, "rho")
        ]

    @pytest.mark.parametrize(
        "command, text",
        [("check", "[simulation]\nload_f =\n"),
         ("dispersion", "[simulation]\ninitial_u =\n"),
         ("korn", "[simulation]\nload_m =\n"),
         ("simulate", "[simulation]\nsample_dofs = -1 0\n"),
         ("simulate", "[simulation]\nsample_dofs = 0 0 1\n"),
         ("korn", "[analysis]\nkorn_levels = -1\n"),
         ("check", "[analysis]\ndirection = 0 0 0\n"),
         ("check", "[analysis]\nk_samples = -1 0\n"),
         ("dispersion", "[mesh]\nresolution = 0 2 2\n"),
         ("dispersion", "[mesh]\ndims = 1 1\n"),
         ("check", "[simulation]\nnodes_per_interval = 2\n"),
         ("check", "[material]\nrho = -1\n"),
         ("simulate", "[material]\nrho = nan\n"),
         ("korn", "[material]\nmu = 0\n"),
         ("dispersion", "[material]\nvariant = full\nlc = 0\n"),
         ("check", "[material]\nvariant = full\nj = 0\n"),
         ("check", "[material]\nrho = inf\n"),
         ("check", "[material]\nmu = inf\n"),
         ("check", "[material]\nrho = 1e400\n"),
         ("check", "[material]\nc_e = isotropic inf 0\n"),
         ("check", "[material]\nc_e = isotropic 1e308 1e308\n"),
         ("dispersion", "[material]\nc_e = isotropic nan 0\n"),
         ("simulate", "[simulation]\nload_f = constant nan 0 0\n"),
         ("simulate", "[simulation]\ninitial_u = sine inf\n"),
         ("check", "[simulation]\nload_f = table 0 0 0 0 | nan 0 0 0\n"),
         ("simulate", "[simulation]\nload_f = table 0 0 0 0 | nan 0 0 0\n"),
         ("check", "[mesh]\ndims = 1e-110 1e-110 1e-110\n"),
         ("check", "[mesh]\ndims = 1e120 1e120 1e120\n"),
         ("simulate",
          "[simulation]\nintegrator = newmark\ndt = 1e160\nt_final = 2e160\n"),
         ("check", OVERFLOWING_LOAD_F),
         ("simulate", OVERFLOWING_LOAD_F),
         ("simulate", OVERFLOWING_LOAD_F_NEWMARK),
         ("check", OVERFLOWING_LOAD_M),
         ("simulate", OVERFLOWING_POWER),
         ("check", OVERFLOWING_MODULI),
         ("simulate", OVERFLOWING_MODULI),
         ("dispersion", OVERFLOWING_MODULI),
         # refused after parsing: dof 3 of the 3 dofs of a res-1 mesh
         ("simulate", "[mesh]\nresolution = 1 1 1\n")],
    )
    def test_cli_exits_two(self, command, text, tmp_path, capsys):
        p = tmp_path / "bad.ini"
        p.write_text(text)
        out = tmp_path / "o"
        with np.errstate(over="ignore", invalid="ignore"):
            code = main([command, "--config", str(p), "--out", str(out)])
        assert code == 2
        assert "MICROMORPH-ERROR config" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [("c_e", "isotropic 1e308 1e308"),
         ("c_c", "isotropic 1e308"),
         ("l_aniso", "components " + " ".join(["1e308"] * 45)),
         ("c_e", "components " + " ".join(["5e307"] * 21))],
    )
    def test_overflowing_tensor_is_rejected_without_warnings(self, key, value,
                                                             tmp_path):
        text = f"[material]\n{key} = {value}\n"
        with pytest.raises(ConfigError) as err:  # a warning would be an error
            parse_config(text)
        assert [(ln, k) for ln, k, _ in err.value.issues] == [(2, key)]
        p = tmp_path / "bad.ini"
        p.write_text(text)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-m", "micromorph", "check", "--config", str(p),
             "--out", str(tmp_path / "o")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("MICROMORPH-ERROR config:")

    @pytest.mark.parametrize(
        "command, integrator",
        [("check", "picard"), ("simulate", "picard"), ("simulate", "newmark")],
    )
    def test_operator_overflowing_on_the_mesh_exits_two(self, command, integrator,
                                                        tmp_path):
        # the tensor is finite (moduli 1.2e308), its res-2 W2 is not
        text = (
            "[material]\nc_e = isotropic 0.6e308 0\n[mesh]\nresolution = 2 2 2\n"
            f"[simulation]\nintegrator = {integrator}\n"
        )
        proc = _cli_subprocess(command, text, tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "MICROMORPH-ERROR config: assembled operator is not finite: "
            "a modulus overflows on this mesh"
        ]
        assert proc.stdout == ""
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("dims", ["1e154 1e-154 1.0", "1.7e308 1.0 1.0"])
    @pytest.mark.parametrize(
        "command, integrator",
        [("check", "picard"), ("simulate", "picard"), ("simulate", "newmark")],
    )
    def test_box_overflowing_in_assembly_is_one_stderr_line(self, dims, command,
                                                            integrator, tmp_path,
                                                            capsys):
        # the box passes the mesh rule, its res-2 operators overflow; a numpy
        # warning would be an error here
        p = tmp_path / "run.ini"
        p.write_text(f"[mesh]\ndims = {dims}\n[simulation]\nintegrator = {integrator}\n")
        out = tmp_path / "o"
        assert main([command, "--config", str(p), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "MICROMORPH-ERROR config: assembled operator is not finite: "
            "a modulus overflows on this mesh"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("ks", ["0.5 0.5", "0.5 1.0 0.5"])
    def test_repeated_wavenumber_exits_two(self, ks, tmp_path, capsys):
        # a k sampled twice would read the branch spacings there as band gaps
        p = tmp_path / "run.ini"
        p.write_text(f"[analysis]\nk_samples = {ks}\n")
        out = tmp_path / "o"
        assert main(["dispersion", "--config", str(p), "--out", str(out)]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("MICROMORPH-ERROR config: line 2: k_samples: ")
        assert not out.exists()

    def test_unsorted_wavenumbers_are_accepted(self, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text("[analysis]\nk_samples = 1.0 0.0 0.5\n")
        assert main(["dispersion", "--config", str(p), "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize(
        "dims",
        [d for box in ((1e300, 1e-200, 1e-200), (1e250, 1e-120, 1e-120),
                       (1e300, 1e-150, 1e-150), (1e300, 1e-160, 1e-140))
         for d in itertools.permutations(box)],
    )
    def test_overflowing_side_ratio_exits_two_in_every_order(self, dims, tmp_path,
                                                             capsys):
        # the cells have normal volumes, but their largest side ratio
        # overflows, and so would the inverse of their vertex matrix
        p = tmp_path / "run.ini"
        p.write_text("[mesh]\ndims = " + " ".join(map(repr, dims)) + "\n")
        out = tmp_path / "o"
        assert main(["check", "--config", str(p), "--out", str(out)]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("MICROMORPH-ERROR config: line 2: dims: ")
        assert "ratio overflows" in line
        assert not out.exists()


class TestFailureTable:
    """Every failed run ends in one ``MICROMORPH-ERROR <class>:`` stderr line
    and the exit code of the first failure-table row the exception matches."""

    @pytest.mark.parametrize(
        "case", ["out_is_a_file", "directory_under_a_file", "undecodable",
                 "mesh_too_large"],
    )
    def test_config_side_failure_exits_two(self, case, tmp_path, capfd, monkeypatch):
        import micromorph.config

        p, afile = tmp_path / "run.ini", tmp_path / "afile"
        p.write_text("[mesh]\nresolution = 1 1 1\n")
        afile.write_text("")
        argv = ["check", "--config", str(p), "--out", str(tmp_path / "o")]
        if case == "out_is_a_file":
            argv[-1] = str(afile)
        elif case == "directory_under_a_file":
            argv[-1] = str(afile / "sub")
        elif case == "undecodable":
            p.write_bytes(b"[mesh]\nresolution = 1 1 1\n# \xff\n")
        else:
            def too_large(dims, resolution):
                raise MemoryError("Unable to allocate 7.11 PiB")

            monkeypatch.setattr(micromorph.config, "build_box_mesh", too_large)
        code = main(argv)
        out, err = capfd.readouterr()
        assert code == 2
        assert out == ""
        [line] = err.splitlines()
        assert line.startswith("MICROMORPH-ERROR config: ")

    def test_bare_package_error_is_internal(self, tmp_path, capfd, monkeypatch):
        from micromorph import cli

        def broken(cfg, out):
            raise MicromorphError("broken invariant")

        monkeypatch.setitem(cli._HANDLERS, "check", broken)
        p = tmp_path / "run.ini"
        p.write_text("[mesh]\nresolution = 1 1 1\n")
        assert main(["check", "--config", str(p), "--out", str(tmp_path / "o")]) == 4
        out, err = capfd.readouterr()
        assert out == ""
        assert err.splitlines() == ["MICROMORPH-ERROR internal: broken invariant"]


FIELD_SIZES = {"load_f": 3, "load_m": 9, "initial_u": 3, "initial_ut": 3,
               "initial_p": 9, "initial_pt": 9}


def _numbers(n: int) -> str:
    return " ".join(str(float(i + 1)) for i in range(n))


def _unbuildable_values(key: str) -> list:
    """A wrong arity for each kind the key takes, and the kinds it rejects."""
    n = FIELD_SIZES[key]
    values = [f"constant {_numbers(n - 1)}", f"constant {_numbers(n + 1)}",
              "zero 1 2"]
    if key.startswith("load"):
        values += [f"poly {_numbers(n)} | {_numbers(n + 1)}",
                   f"table 0 {_numbers(n)} | 1 {_numbers(n - 1)}",
                   "sine 1"]
    else:
        values += ["sine", "sine 1 2", f"poly {_numbers(n)}",
                   f"table 0 {_numbers(n)} | 1 {_numbers(n)}"]
    return values


def _newmark_config(line: str) -> str:
    return f"[mesh]\nresolution = 1 1 1\n\n[simulation]\nintegrator = newmark\n{line}\n"


class TestValuesBuiltAtParse:
    """Each tensor and field value is built once by parse_config, with the
    constructor the run uses, and its error names the value's line."""

    @pytest.mark.parametrize(
        "key, value",
        [(key, value) for key in FIELD_SIZES for value in _unbuildable_values(key)],
    )
    def test_unbuildable_field_names_its_line(self, key, value, tmp_path):
        text = _newmark_config(f"{key} = {value}")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert [(ln, k) for ln, k, _ in err.value.issues] == [(6, key)]
        p = tmp_path / "bad.ini"
        p.write_text(text)
        assert main(["check", "--config", str(p), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "line, message",
        [("initial_u = constant 1 2", "constant needs 3 numbers, got 2"),
         ("initial_u = poly 1 2 3", "unsupported initial kind 'poly'"),
         ("load_f = constant 1 2", "constant needs 3 numbers, got 2"),
         ("load_m = poly 1 2 3", "each poly coefficient needs 9 numbers, got 3"),
         ("load_f = table 0 1 2 3", "table needs matching times and values"),
         ("load_f = sine 1", "unsupported load kind 'sine'"),
         ("initial_u = table 0 1 2 3 | 1 1 2 3", "unsupported initial kind 'table'")],
    )
    @pytest.mark.parametrize("command", ["check", "simulate"])
    def test_cli_reports_line_and_key(self, command, line, message, tmp_path, capsys):
        p = tmp_path / "bad.ini"
        p.write_text(_newmark_config(line))
        out = tmp_path / "o"
        assert main([command, "--config", str(p), "--out", str(out)]) == 2
        key = line.split(" = ")[0]
        assert f"line 6: {key}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "value, message",
        [("isotropic 1.0", "elastic class takes two moduli (mu, lambda)"),
         ("isotropic 1.0 2.0 3.0", "elastic class takes two moduli (mu, lambda)"),
         ("components 1 2 3", "elastic tensor needs 21 components, got 3"),
         ("orthotropic 1 2", "unknown tensor kind 'orthotropic'"),
         ("isotropic 1.0 x", "could not convert string to float: 'x'")],
    )
    def test_unbuildable_tensor_names_its_line(self, value, message):
        with pytest.raises(ConfigError) as err:
            parse_config(f"[material]\nrho = 1.0\nc_e = {value}\n")
        assert err.value.issues == [(3, "c_e", message)]

    @settings(max_examples=150, deadline=None)
    @given(
        key=st.sampled_from(sorted(FIELD_SIZES)),
        kind=st.sampled_from(["zero", "constant", "sine", "poly", "table"]),
        arities=st.lists(st.integers(0, 10), min_size=1, max_size=3),
    )
    def test_every_accepted_field_builds(self, key, kind, arities):
        groups = [_numbers(n) for n in arities]
        if kind == "table":  # row j at time j
            groups = [f"{j} {g}" for j, g in enumerate(groups)]
        value = " | ".join(groups) if kind in ("poly", "table") else groups[0]
        try:
            cfg = parse_config(f"[simulation]\n{key} = {kind} {value}\n")
        except ConfigError:
            return
        shape = _FIELD_SHAPES[key]
        if key.startswith("load"):
            load = load_from_config(cfg)
            field = load.body_force if key == "load_f" else load.double_force
            assert field(0.0).shape == shape
        else:
            f = initial_field_callable(getattr(cfg.simulation, key), cfg.mesh.dims, shape)
            assert kind == "zero" or f((0.5, 0.25, 0.75)).shape == shape


class TestLoadTimesCovered:
    """A table load must cover every time the integrator evaluates it at:
    0 and t_final (picard) or dt * max(1, round(t_final / dt)) (newmark)."""

    @pytest.mark.parametrize(
        "simulation, table, end",
        [("integrator = newmark", "0 1 2 3 | 0.5 1 2 3", "1.0"),
         ("integrator = newmark\ndt = 0.35", "0 1 2 3 | 1 1 2 3", "1.0499999999999998"),
         ("integrator = picard\nt_final = 1.2", "0 1 2 3 | 1 1 2 3", "1.2"),
         ("integrator = picard", "0.1 1 2 3 | 1 1 2 3", "0.0")],
    )
    def test_check_names_the_uncovered_time(self, simulation, table, end, tmp_path,
                                            capsys):
        text = f"[mesh]\nresolution = 1 1 1\n[simulation]\n{simulation}\nload_f = table {table}\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        [(line, key, message)] = err.value.issues
        assert (line, key) == (len(text.splitlines()), "load_f")
        assert message.startswith(f"time {end} outside the sampled table")
        p = tmp_path / "table.ini"
        p.write_text(text)
        assert main(["check", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "load_f: time" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "simulation",
        ["integrator = newmark\nt_final = 1.0\ndt = 0.25",
         "integrator = newmark\nt_final = 1.1\ndt = 0.25",   # 4 steps, ends at 1.0
         "integrator = picard\nt_final = 1.0\ndt = 0"],      # picard ignores dt
    )
    def test_table_ending_at_the_last_load_time_parses(self, simulation):
        parse_config(f"[simulation]\n{simulation}\nload_f = table 0 1 2 3 | 1 1 2 3\n")

    @pytest.mark.parametrize(
        "simulation, table_end",
        [("t_final = 0.5", "0.5"),
         ("t_final = 1.0\nintegrator = newmark\ndt = 0.3", "0.9")],  # 3 steps
    )
    def test_contraction_demo_stays_in_the_load_window(
        self, simulation, table_end, tmp_path, monkeypatch
    ):
        # soft potential tensors: delta ~ 1.59, longer than the load window
        text = (
            "[material]\nc_e = isotropic 0.01 0\nc_c = isotropic 0.005\n"
            "c_micro = isotropic 0.01 0.005\nl_aniso = isotropic 0.01\n"
            f"[simulation]\n{simulation}\n"
            f"load_f = table 0.0 0 0 0 | {table_end} 0 0 1\n"
        )
        from micromorph import cli

        cfg = parse_config(text)
        params, sys_, w1, w2 = cli._operators(cfg)
        report = cli.well_posedness_report(params, w1, w2, cli.assemble_gram(sys_))
        window = cfg.simulation.load_end
        assert window < report.interval
        original, runs = cli.picard_integrate, []

        def recorded(*args, **kwargs):
            runs.append(original(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(cli, "picard_integrate", recorded)
        p = tmp_path / "soft.ini"
        p.write_text(text)
        out = tmp_path / "o"
        assert main(["contraction-demo", "--config", str(p), "--out", str(out)]) == 0
        [traj] = runs
        assert traj.diagnostics["intervals"] == 1
        assert traj.diagnostics["delta"] == window
        bound = window**2 * report.contraction
        assert bound < 0.25
        rows = [
            l.split(",") for l in (out / "contraction.csv").read_text().splitlines()
            if l and not l.startswith("#") and not l.startswith("sweep")
        ]
        assert rows
        for _, ratio, row_bound in rows:
            assert float(row_bound) == bound
            assert float(ratio) <= bound


def test_readme_config_example_parses_and_checks(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```ini\n(.*?)^```", readme, re.S | re.M)
    assert len(blocks) == 1
    parse_config(blocks[0])
    p = tmp_path / "readme.ini"
    p.write_text(blocks[0])
    assert main(["check", "--config", str(p), "--out", str(tmp_path / "o")]) == 0


def test_simulate_rejects_sample_dof_beyond_the_system(tmp_path, capsys):
    p = tmp_path / "dofs.ini"
    p.write_text("[simulation]\nt_final = 0.1\nsample_dofs = 0 99999\n")
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "MICROMORPH-ERROR config" in err
    assert "[99999]" in err and "n_dofs = 81" in err
    assert not (out / "trajectory.csv").exists()


def test_simulate_rejects_sample_dofs_before_assembling(tmp_path, capsys, monkeypatch):
    import micromorph.assembly

    calls = []
    original = micromorph.assembly.assemble_form

    def counted(sys, spec):
        calls.append(spec)
        return original(sys, spec)

    monkeypatch.setattr(micromorph.assembly, "assemble_form", counted)
    p = tmp_path / "dofs.ini"
    p.write_text("[mesh]\nresolution = 2 2 2\n\n[simulation]\nintegrator = newmark\n"
                 "t_final = 0.1\nsample_dofs = 0 99999\n")
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert ("MICROMORPH-ERROR config: sample_dofs [99999] out of range: "
            "the system has n_dofs = 81") in err
    assert calls == []


def _data_rows(csv_path):
    return [
        [float(x) for x in line.split(",")]
        for line in csv_path.read_text().splitlines()
        if line and not line.startswith("#") and not line[0].isalpha()
    ]


class TestHugeData:
    """Data whose squares overflow: every check still tests something, a run
    that succeeds prints nothing on stderr, and a failed one prints one line."""

    @pytest.mark.parametrize("modulus", ["1e200", "1e300", "4e306", "8e306"])
    def test_dispersion_of_huge_moduli_is_clean(self, modulus, tmp_path):
        proc = _cli_subprocess(
            "dispersion", f"[material]\nc_e = isotropic {modulus} 0\n", tmp_path
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        rows = _data_rows(tmp_path / "o" / "dispersion.csv")
        assert rows and np.isfinite(rows).all()

    @pytest.mark.parametrize("modulus", ["1e160", "1e200"])
    def test_newmark_on_huge_moduli_is_one_stderr_line(self, modulus, tmp_path):
        proc = _cli_subprocess("simulate", (
            f"[material]\nc_e = isotropic {modulus} 0\n[mesh]\nresolution = 2 2 2\n"
            "[simulation]\nintegrator = newmark\ndt = 0.1\nt_final = 0.1\n"
            "initial_u = sine 1\n"
        ), tmp_path)
        assert proc.returncode == 4
        [line] = proc.stderr.splitlines()
        assert line.startswith("MICROMORPH-ERROR solver: ")

    @staticmethod
    def _sine_run(integrator, amplitude):
        return (
            "[material]\nc_e = isotropic 1.0 -1.0\n"
            f"[simulation]\nintegrator = {integrator}\nt_final = 0.3\n"
            f"initial_u = sine {amplitude}\n"
        )

    @pytest.mark.parametrize("integrator", ["picard", "newmark"])
    def test_overflowing_energy_exits_two(self, integrator, tmp_path):
        proc = _cli_subprocess("simulate", self._sine_run(integrator, "1e154"), tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "MICROMORPH-ERROR config: the energy at t=0.0 is not finite: "
            "the state overflows"
        ]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("integrator", ["picard", "newmark"])
    def test_huge_finite_energy_is_written(self, integrator, tmp_path):
        proc = _cli_subprocess("simulate", self._sine_run(integrator, "1e150"), tmp_path)
        assert (proc.returncode, proc.stderr) == (0, "")
        rows = np.array(_data_rows(tmp_path / "o" / "trajectory.csv"))
        assert np.isfinite(rows).all()
        assert rows[0, 2] == pytest.approx(6.5e300, rel=1e-12)  # potential at t = 0
