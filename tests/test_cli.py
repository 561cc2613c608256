from __future__ import annotations

import math
import re
from dataclasses import fields

import numpy as np
import pytest

from clogsim.cli import (_SCHEMA, _parse_seed_spec, format_config, main,
                         parse_config, parse_config_text, write_run_artifacts)
from clogsim.engine import run
from clogsim.model import Chemistry, FilterConfig

from conftest import (CONFIG_DIR, DATA_DIR, ENTRANCE_CONCENTRATION, GROWTH, RATE_CONSTANT,
                      WALL_CONCENTRATION)

SMALL = """\
# four-cell test column
L_x = 2e-4
L_y = 2e-4
L_z = 2e-4
n_x = 4
n_y = 4
n_z = 4
p_grad = -1e4
mu = 1e-3
l_particle = 2.5e-5
N_particles = 1.389e7
r_filter = 1e-5
r_side = 2e-5
dt = 20000.0
time_limit = 100000.0
seed = 1
"""

SEALING = """\
L_x = 2e-4
L_y = 2e-4
L_z = 2e-4
n_x = 4
n_y = 4
n_z = 4
p_grad = -1e4
mu = 1e-3
l_particle = 2.5e-5
N_particles = 0.0
r_filter = 1e-5
r_side = 2e-5
chemistry.K = 1.6576116288274028e-4
chemistry.n = 1
chemistry.D = 1e-9
chemistry.mu2 = 0.100
chemistry.n2 = 1
chemistry.rho2 = 2710.0
chemistry.mu0 = 0.136
c0_entrance = 4.428044676470588e21
dt = adaptive
seal_fraction = 0.05
seed = 1
"""


def _kv(text: str) -> dict[str, str]:
    out = {}
    for line in text.strip().splitlines():
        if "=" in line:
            key, _, val = line.partition("=")
            out[key.strip()] = val.strip()
    return out


class TestParseConfig:
    def test_small_text(self):
        cfg = parse_config_text(SMALL)
        assert cfg.n_x == cfg.n_y == cfg.n_z == 4
        assert cfg.r_filter == 1e-5
        assert cfg.dt == 20000.0
        assert cfg.time_limit == 100000.0
        assert cfg.inlet_window is None
        assert cfg.chemistry is None
        assert cfg.blocking_law == "corrected"

    def test_comments_and_spacing(self):
        cfg = parse_config_text(SMALL.replace("n_x = 4", "n_x=4  # tight"))
        assert cfg.n_x == 4

    def test_chemistry_block(self):
        cfg = parse_config_text(SEALING)
        assert cfg.chemistry is not None
        assert cfg.chemistry.rate_constant == RATE_CONSTANT
        assert cfg.chemistry.reaction_order == 1
        assert cfg.c0_entrance == ENTRANCE_CONCENTRATION
        assert cfg.dt == "adaptive"
        assert cfg.seal_fraction == 0.05

    def test_window_forms(self):
        text = SMALL + "inlet_window = 2..3, 1..4\noutlet_window = full\n"
        cfg = parse_config_text(text)
        assert cfg.inlet_window == ((2, 3), (1, 4))
        assert cfg.outlet_window is None

    def test_radius_list(self):
        text = SMALL.replace("r_filter = 1e-5", "r_filter = 1e-5, 1.1e-5, 1.2e-5")
        cfg = parse_config_text(text)
        assert cfg.r_filter == (1e-5, 1.1e-5, 1.2e-5)

    @pytest.mark.parametrize("mutation, message", [
        (lambda t: t + "n_x = 5\n", "duplicate key"),
        (lambda t: t + "banana = 1\n", "unknown config keys"),
        (lambda t: t.replace("mu = 1e-3\n", ""), "missing required"),
        (lambda t: t + "chemistry.K = 1e-4\n", "incomplete chemistry"),
        (lambda t: t + "inlet_window = 2..3\n", "expects 'full'"),
        (lambda t: t.replace("mu = 1e-3", "mu = thick"), "expects a number"),
        (lambda t: t.replace("n_x = 4", "n_x = 4.5"), "expects an integer"),
        (lambda t: t + "blocking_law = fancy\n", "blocking_law"),
        (lambda t: t + "just a line\n", "expected 'key = value'"),
        (lambda t: t + "inlet_window = 2..3, 14\n", "spans like"),
    ])
    def test_rejects_malformed_text(self, mutation, message):
        with pytest.raises(ValueError, match=message):
            parse_config_text(mutation(SMALL))

    def test_validation_applied(self):
        with pytest.raises(ValueError, match="r_side"):
            parse_config_text(SMALL.replace("r_side = 2e-5", "r_side = 9e-5"))

    @pytest.mark.parametrize("key", ["chemistry.K", "chemistry.D", "chemistry.mu2",
                                     "chemistry.rho2", "chemistry.mu0"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_rejects_non_finite_chemistry(self, key, value):
        text = re.sub(rf"^{re.escape(key)} = .*$", f"{key} = {value}", SEALING, flags=re.M)
        with pytest.raises(ValueError, match=rf"^{re.escape(key)} must be positive and finite"):
            parse_config_text(text)

    @pytest.mark.parametrize("key, value, message", [
        ("chemistry.K", "inf", "chemistry.K must be positive and finite, got inf"),
        ("chemistry.mu0", "0", "chemistry.mu0 must be positive and finite, got 0.0"),
        ("chemistry.n", "0", "chemistry.n must be >= 1, got 0"),
    ])
    def test_chemistry_error_names_the_key(self, key, value, message):
        # not the Chemistry field (rate_constant, solute_molar_mass, reaction_order)
        text = re.sub(rf"^{re.escape(key)} = .*$", f"{key} = {value}", SEALING, flags=re.M)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_config_text(text)

    def test_schema_follows_the_config_fields(self):
        # a field and its config key leave or arrive together
        plain = sorted(row.field for row in _SCHEMA if not row.chemical)
        assert sorted(plain + ["chemistry"]) == sorted(f.name for f in fields(FilterConfig))
        chemical = sorted(row.field for row in _SCHEMA if row.chemical)
        assert chemical == sorted(f.name for f in fields(Chemistry))

    @pytest.mark.parametrize("value", ["9223372036854775808", "100000000000000000000",
                                       "1, 1, 100000000000000000000"])
    def test_multiplicity_beyond_int64_rejected(self, value):
        with pytest.raises(ValueError, match="aperture_multiplicity must be one integer"):
            parse_config_text(SMALL + f"aperture_multiplicity = {value}\n")

    def test_solver_sweep_is_an_unknown_key(self):
        with pytest.raises(ValueError, match="unknown config keys: solver_sweep"):
            parse_config_text(SMALL + "solver_sweep = cg\n")


class TestFormatConfig:
    @pytest.mark.parametrize("name", ["scenario1.cfg", "scenario2.cfg", "scenario3.cfg"])
    def test_shipped_configs_round_trip(self, name):
        cfg = parse_config(CONFIG_DIR / name)
        text = format_config(cfg)
        again = parse_config_text(text)
        assert again == cfg
        assert format_config(again) == text

    @pytest.fixture
    def all_extras(self, calcium):
        return FilterConfig(
            L_x=2e-4, L_y=2e-4, L_z=3e-4, n_x=4, n_y=4, n_z=6,
            p_grad=-0.123e4, mu=1.7e-3, l_particle=2.5e-5, N_particles=3.3e7,
            r_filter=(1e-5, 1.1e-5, 9e-6, 8.5e-6, 1.05e-5), r_side=2e-5,
            inlet_window=((1, 2), (2, 4)), outlet_window=((2, 3), (1, 1)),
            chemistry=calcium, c0_entrance=4.4e21, dt="adaptive",
            time_limit=3600.0, blocking_law="simple", seed=17,
            solver_tol=1e-20, solver_max_iter=5000,
            aperture_multiplicity=(2, 3, 2, 2, 1))

    def test_round_trip_with_all_extras(self, all_extras):
        cfg = all_extras
        text = format_config(cfg)
        assert parse_config_text(text) == cfg

    # the exact echo text, key order included; the round trips above would
    # still pass if the keys were reordered
    @pytest.mark.parametrize("name", ["scenario1", "scenario2", "scenario3"])
    def test_shipped_config_echo_is_pinned(self, name):
        text = format_config(parse_config(CONFIG_DIR / f"{name}.cfg"))
        assert text == (DATA_DIR / f"{name}.echo.cfg").read_text()

    def test_all_extras_echo_is_pinned(self, all_extras):
        assert format_config(all_extras) == (DATA_DIR / "all_extras.echo.cfg").read_text()

    def test_defaults_stay_out_of_the_echo(self):
        text = format_config(parse_config_text(SMALL))
        assert "solver_tol" not in text
        assert "solver_max_iter" not in text
        assert "aperture_multiplicity" not in text
        assert "chemistry" not in text


class TestSeedSpec:
    def test_forms(self):
        assert list(_parse_seed_spec("7")) == [7]
        assert list(_parse_seed_spec("1..3")) == [1, 2, 3]
        assert list(_parse_seed_spec("5..5")) == [5]

    def test_range_is_not_built_up_front(self):
        # a list of these seeds would take about 8 TB
        seeds = _parse_seed_spec("1..1000000000000")
        assert isinstance(seeds, range)
        assert len(seeds) == 10 ** 12 and seeds[0] == 1 and seeds[-1] == 10 ** 12

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError, match="empty"):
            _parse_seed_spec("9..3")
        for spec in ("many", "1.5", "1..x", "..3", ""):
            with pytest.raises(ValueError, match="--seed"):
                _parse_seed_spec(spec)


class TestSimulateCommand:
    def test_single_run_artifacts(self, tmp_path, capsys):
        cfg_path = tmp_path / "small.cfg"
        cfg_path.write_text(SMALL)
        out = tmp_path / "run"
        code = main(["simulate", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        for name in ("config_echo.cfg", "trace.csv", "membrane_maps.txt",
                     "membrane_maps.csv", "contamination.csv", "summary.txt"):
            assert (out / name).exists()
        summary = _kv((out / "summary.txt").read_text())
        assert summary["stop_reason"] == "time-limit"
        assert summary["seed"] == "1"
        assert float(summary["sim_time_s"]) == 100000.0
        trace_lines = (out / "trace.csv").read_text().strip().splitlines()
        assert trace_lines[0].startswith("time_s,dt_s,total_flow_m3_s")
        assert len(trace_lines) == 1 + 6  # five steps and the closing row
        echoed = parse_config(out / "config_echo.cfg")
        assert echoed == parse_config_text(SMALL)
        assert "time-limit" in capsys.readouterr().out

    def test_same_seed_runs_write_identical_trace(self, tmp_path):
        # scenario 1 on a 6^3 lattice: deposition keeps every step's pressure
        # system changing, so the solves start from extrapolated fields
        text = (CONFIG_DIR / "scenario1.cfg").read_text()
        text = re.sub(r"^(L_[xyz]) = .*$", r"\1 = 3e-4", text, flags=re.M)
        text = re.sub(r"^(n_[xyz]) = .*$", r"\1 = 6", text, flags=re.M)
        cfg_path = tmp_path / "s1_small.cfg"
        cfg_path.write_text(text.replace("6..14", "2..5"))
        traces = []
        for name in ("a", "b"):
            assert main(["simulate", "--config", str(cfg_path), "--out",
                         str(tmp_path / name), "--time-limit", "1.5e5"]) == 0
            traces.append((tmp_path / name / "trace.csv").read_bytes())
        assert traces[0] == traces[1]
        assert traces[0].count(b"\n") > 20

    def test_membrane_map_texture(self, tmp_path):
        cfg_path = tmp_path / "small.cfg"
        cfg_path.write_text(SMALL)
        out = tmp_path / "run"
        main(["simulate", "--config", str(cfg_path), "--out", str(out)])
        text = (out / "membrane_maps.txt").read_text()
        assert text.startswith("membrane 1\n")
        rows = [ln for ln in text.splitlines() if ln and not ln.startswith("membrane")]
        assert len(rows) == 3 * 4
        assert all(len(r) == 4 and set(r) <= {".", "#", "o"} for r in rows)

    def test_seed_range_makes_one_directory_each(self, tmp_path, capsys):
        cfg_path = tmp_path / "small.cfg"
        cfg_path.write_text(SMALL)
        out = tmp_path / "batch"
        code = main(["simulate", "--config", str(cfg_path), "--seed", "1..3",
                     "--out", str(out)])
        assert code == 0
        for seed in (1, 2, 3):
            assert (out / f"seed_{seed}" / "trace.csv").exists()
            echoed = parse_config(out / f"seed_{seed}" / "config_echo.cfg")
            assert echoed.seed == seed
        assert len(capsys.readouterr().out.strip().splitlines()) == 3

    def test_seed_range_past_maxsize_starts_its_first_seed(self, tmp_path, monkeypatch):
        # such a range has no len(); its first seed still gets its own directory
        class Stop(Exception):
            pass

        written = []

        def write_then_stop(config, trace, out_dir):
            written.append(out_dir)
            raise Stop

        monkeypatch.setattr("clogsim.cli.run", lambda config: None)
        monkeypatch.setattr("clogsim.cli.write_run_artifacts", write_then_stop)
        cfg_path = tmp_path / "small.cfg"
        cfg_path.write_text(SMALL)
        with pytest.raises(Stop):
            main(["simulate", "--config", str(cfg_path), "--seed",
                  "0..100000000000000000000", "--out", str(tmp_path / "batch")])
        assert [out_dir.name for out_dir in written] == ["seed_0"]

    def test_degenerate_run_exits_three(self, tmp_path):
        cfg_path = tmp_path / "seal.cfg"
        cfg_path.write_text(SEALING)
        code = main(["simulate", "--config", str(cfg_path), "--out",
                     str(tmp_path / "run")])
        assert code == 3
        summary = _kv((tmp_path / "run" / "summary.txt").read_text())
        assert summary["stop_reason"] == "degenerate"
        assert summary["blocked_facets"] == "0"

    def test_overrides_reach_the_echo(self, tmp_path):
        cfg_path = tmp_path / "seal.cfg"
        cfg_path.write_text(SEALING)
        out = tmp_path / "run"
        code = main(["simulate", "--config", str(cfg_path), "--out", str(out),
                     "--no-chemistry", "--dt", "1000", "--time-limit", "5000",
                     "--blocking-law", "simple"])
        assert code == 0
        echoed = parse_config(out / "config_echo.cfg")
        assert echoed.chemistry is None
        assert echoed.dt == 1000.0
        assert echoed.time_limit == 5000.0
        assert echoed.blocking_law == "simple"

    def test_time_limit_none_override(self, tmp_path):
        cfg_path = tmp_path / "seal.cfg"
        cfg_path.write_text(SEALING + "time_limit = 50.0\n")
        out = tmp_path / "run"
        code = main(["simulate", "--config", str(cfg_path), "--out", str(out),
                     "--time-limit", "none"])
        assert code == 3  # runs to disconnection instead of the 50 s cap
        assert parse_config(out / "config_echo.cfg").time_limit is None

    def test_missing_config_exits_one(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "absent.cfg"),
                     "--out", str(tmp_path / "run")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_broken_config_exits_one(self, tmp_path, capsys):
        cfg_path = tmp_path / "broken.cfg"
        cfg_path.write_text(SMALL + "banana = 1\n")
        code = main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "run")])
        assert code == 1
        assert "unknown config keys" in capsys.readouterr().err


class TestDesignCommand:
    def test_equal_contamination(self, capsys):
        code = main(["design", "--kind", "equal-contamination",
                     "--first-catch", "0.09", "--membranes", "11",
                     "--rod-length", "2.5e-5"])
        assert code == 0
        out = capsys.readouterr().out
        kv = _kv(out)
        assert kv["kind"] == "equal-contamination"
        assert kv["membranes"] == "11"
        assert float(kv["penetration"]) == pytest.approx(0.01, rel=1e-9)
        rows = [ln for ln in out.strip().splitlines() if ln[0].isdigit()]
        assert len(rows) == 11
        first = rows[0].split(",")
        assert float(first[1]) == pytest.approx(0.09)
        assert float(first[2]) == pytest.approx(1.2449272067072839e-05, rel=1e-12)

    def test_quantile_prints_both_forms(self, capsys):
        code = main(["design", "--kind", "quantile", "--layers", "12"])
        assert code == 0
        kv = _kv(capsys.readouterr().out)
        assert float(kv["penetration_product"]) == pytest.approx(
            5.372321709247829e-5, rel=1e-12)
        assert float(kv["penetration_shortcut"]) == pytest.approx(
            1.5389654375500732e-3, rel=1e-12)
        assert float(kv["penetration"]) == pytest.approx(
            float(kv["penetration_product"]), rel=1e-10)

    def test_uniform_to_file(self, tmp_path):
        target = tmp_path / "sched.txt"
        code = main(["design", "--kind", "uniform", "--catch", "0.3",
                     "--membranes", "5", "--out", str(target)])
        assert code == 0
        kv = _kv(target.read_text())
        assert float(kv["penetration"]) == pytest.approx(0.7 ** 5, rel=1e-12)

    def test_missing_parameters_exit_one(self, capsys):
        assert main(["design", "--kind", "quantile"]) == 1
        assert "needs --layers" in capsys.readouterr().err

    def test_infeasible_design_exits_one(self, capsys):
        code = main(["design", "--kind", "equal-contamination",
                     "--first-catch", "0.2", "--membranes", "11"])
        assert code == 1
        assert "first_catch" in capsys.readouterr().err

    def test_unknown_kind_is_usage_error(self):
        with pytest.raises(SystemExit):
            main(["design", "--kind", "other"])


def calibrate_argv(**overrides) -> list[str]:
    """``clogsim calibrate`` on the calcium measurement; ``overrides`` maps
    option names (underscores for dashes) to replacement text."""
    options = {"growth": repr(GROWTH), "mass_concentration": "1e-3",
               "solute_molar_mass": "0.136", "sediment_molar_mass": "0.100",
               "sediment_density": "2710.0", "diffusivity": "1e-9", "radius": "1e-6"}
    options.update(overrides)
    # --key=value, so that argparse takes a negative value as the value
    return ["calibrate"] + [f"--{name.replace('_', '-')}={value}"
                            for name, value in options.items()]


class TestCalibrateCommand:
    def test_calcium_numbers(self, capsys):
        code = main(calibrate_argv())
        assert code == 0
        kv = _kv(capsys.readouterr().out)
        assert float(kv["rate_constant"]) == pytest.approx(RATE_CONSTANT, rel=1e-12)
        assert float(kv["entrance_concentration_m3"]) == pytest.approx(
            ENTRANCE_CONCENTRATION, rel=1e-12)
        assert float(kv["wall_concentration_m3"]) == pytest.approx(
            WALL_CONCENTRATION, rel=1e-12)

    def test_unreachable_growth_exits_two(self, capsys):
        code = main(calibrate_argv(growth="1e-9"))
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("option, value, name", [
        ("growth", "inf", "growth"),
        ("mass_concentration", "inf", "mass_concentration"),
        ("solute_molar_mass", "0", "solute_molar_mass"),
        ("sediment_molar_mass", "nan", "sediment_molar_mass"),
        ("sediment_density", "0", "sediment_density"),
        ("diffusivity", "-1e-9", "diffusivity"),
        ("radius", "-1e-6", "radius"),
        ("radius", "0", "radius"),
        ("reaction_order", "0", "reaction_order"),
        ("stoichiometry", "0", "sediment_stoichiometry"),
    ])
    def test_impossible_argument_exits_one(self, capsys, option, value, name):
        code = main(calibrate_argv(**{option: value}))
        assert code == 1
        err = capsys.readouterr().err
        assert name in err and "infeasible" not in err


class TestEstimateCommand:
    def test_scenario_numbers(self, capsys):
        code = main(["estimate", "--config", str(CONFIG_DIR / "scenario1.cfg")])
        assert code == 0
        kv = _kv(capsys.readouterr().out)
        assert float(kv["aperture_flow_m3_s"]) == pytest.approx(
            5.561011695935633e-13, rel=1e-12)
        assert float(kv["particle_exposure_s_m3"]) == pytest.approx(
            35964678899376.12, rel=1e-12)
        assert float(kv["lifetime_s"]) == pytest.approx(2.5893e6, rel=1e-4)
        assert float(kv["capacity_particles"]) == pytest.approx(4000.0, rel=1e-12)

    def test_multiplicity_beyond_int64_exits_one(self, tmp_path, capsys):
        cfg_path = tmp_path / "big.cfg"
        cfg_path.write_text(SMALL + "aperture_multiplicity = 100000000000000000000\n")
        assert main(["estimate", "--config", str(cfg_path)]) == 1
        assert "aperture_multiplicity must be one integer" in capsys.readouterr().err


class TestWriteArtifacts:
    def test_requires_final_grid(self, tmp_path):
        cfg = parse_config_text(SMALL)
        trace = run(cfg)
        stripped = type(trace)(snapshots=trace.snapshots, stop_reason=trace.stop_reason,
                               n_membranes=trace.n_membranes, final_grid=None)
        with pytest.raises(ValueError, match="final grid"):
            write_run_artifacts(cfg, stripped, tmp_path / "x")

    def test_contamination_totals_match_summary(self, tmp_path):
        cfg = parse_config_text(SMALL)
        trace = run(cfg)
        paths = write_run_artifacts(cfg, trace, tmp_path / "r")
        rows = paths.contamination.read_text().strip().splitlines()[1:]
        assert len(rows) == 3
        catches = sum(int(r.split(",")[1]) for r in rows)
        summary = _kv(paths.summary.read_text())
        assert catches == int(summary["total_catches"])

    def test_no_numpy_reprs_leak_into_files(self, tmp_path):
        cfg = parse_config_text(SEALING)
        trace = run(cfg)
        paths = write_run_artifacts(cfg, trace, tmp_path / "r")
        for path in (paths.config_echo, paths.trace, paths.membrane_maps_csv,
                     paths.contamination, paths.summary):
            text = path.read_text()
            assert "np.float" not in text and "np.int" not in text
