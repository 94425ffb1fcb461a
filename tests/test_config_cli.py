import pytest

from micromorph.cli import main, run
from micromorph.config import (
    RunConfig,
    config_digest,
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
        from micromorph.cli import _simulate_trajectory
        from micromorph.config import mesh_from_config
        from micromorph.fespace import build_fe_system

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
        sys_ = build_fe_system(mesh_from_config(cfg))
        traj, _ = _simulate_trajectory(cfg, material_from_config(cfg), sys_)
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
          "korn_levels", 4)],
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
         ("korn", "[analysis]\nkorn_levels = -1\n")],
    )
    def test_cli_exits_two(self, command, text, tmp_path, capsys):
        p = tmp_path / "bad.ini"
        p.write_text(text)
        out = tmp_path / "o"
        assert main([command, "--config", str(p), "--out", str(out)]) == 2
        assert "MICROMORPH-ERROR config" in capsys.readouterr().err
        assert not out.exists()
