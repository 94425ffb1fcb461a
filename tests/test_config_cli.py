import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from micromorph.cli import main, run
from micromorph.config import (
    _FIELD_SHAPES,
    RunConfig,
    config_digest,
    initial_field_callable,
    load_from_config,
    material_from_config,
    parse_config,
    serialize_config,
)
from micromorph.errors import ConfigError


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

    def test_missing_file_exit_two(self, tmp_path):
        assert main(["check", "--config", str(tmp_path / "nope.ini")]) == 2

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
        from micromorph.cli import _operators, _simulate_trajectory

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
        traj = _simulate_trajectory(cfg, *_operators(cfg))
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


class TestRejectedValues:
    """Values that used to crash a command or pass silently exit 2 instead."""

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
         ("[simulation]\nfixed_tol = -1\n", "fixed_tol", 2),
         ("[output]\nprecision = -1\n", "precision", 2),
         ("[output]\nprecision = 0\n", "precision", 2),
         ("[material]\nrho = -1\n", "rho", 2),
         ("[material]\nrho = nan\n", "rho", 2),
         ("[material]\nmu = 0\n", "mu", 2),
         ("[material]\nvariant = full\nlc = 0\n", "lc", 3),
         ("[material]\nvariant = full\nj = 0\n", "j", 3)],
    )
    def test_out_of_range_integer_names_its_line(self, text, key, line):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert [(ln, k) for ln, k, _ in err.value.issues] == [(line, key)]

    @pytest.mark.parametrize(
        "command, text",
        [("check", "[simulation]\nload_f =\n"),
         ("dispersion", "[simulation]\ninitial_u =\n"),
         ("korn", "[simulation]\nload_m =\n"),
         ("simulate", "[simulation]\nsample_dofs = -1 0\n"),
         ("korn", "[analysis]\nkorn_levels = -1\n"),
         ("check", "[analysis]\ndirection = 0 0 0\n"),
         ("check", "[analysis]\nk_samples = -1 0\n"),
         ("dispersion", "[mesh]\nresolution = 0 2 2\n"),
         ("dispersion", "[mesh]\ndims = 1 1\n"),
         ("check", "[simulation]\nnodes_per_interval = 2\n"),
         ("simulate", "[simulation]\nfixed_tol = -1\n"),
         ("check", "[output]\nprecision = -1\n"),
         ("check", "[output]\nprecision = 0\n"),
         ("check", "[material]\nrho = -1\n"),
         ("simulate", "[material]\nrho = nan\n"),
         ("korn", "[material]\nmu = 0\n"),
         ("dispersion", "[material]\nvariant = full\nlc = 0\n"),
         ("check", "[material]\nvariant = full\nj = 0\n")],
    )
    def test_cli_exits_two(self, command, text, tmp_path, capsys):
        p = tmp_path / "bad.ini"
        p.write_text(text)
        out = tmp_path / "o"
        assert main([command, "--config", str(p), "--out", str(out)]) == 2
        assert "MICROMORPH-ERROR config" in capsys.readouterr().err
        assert not out.exists()


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
