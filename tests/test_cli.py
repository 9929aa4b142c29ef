import json

import pytest

from leosec.cli import EXIT_INPUT, EXIT_OK, EXIT_VALIDATION, main, parse_config
from leosec.config import ConfigError, config_to_dict, table2_config


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_preset_json(self, capsys):
        code, out, err = run_cli(["analyze", "--preset", "table2"], capsys)
        assert code == EXIT_OK
        assert err == ""
        doc = json.loads(out)
        assert set(doc) == {"p_av", "p_av_per_tier", "p_cov", "p_suc", "p_out", "p_sec"}
        assert len(doc["p_av_per_tier"]) == 3
        for key in ("p_av", "p_cov", "p_suc", "p_out", "p_sec"):
            assert 0.0 <= doc[key] <= 1.0

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(["analyze", "--format", "csv"], capsys)
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "metric,value"
        assert len(lines) == 8  # 3 availability rows + 4 link metrics

    def test_byte_stable_across_runs(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["analyze", "--out", str(p1)]) == EXIT_OK
        assert main(["analyze", "--out", str(p2)]) == EXIT_OK
        assert p1.read_bytes() == p2.read_bytes()

    def test_config_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "scenario.json"
        cfg_path.write_text(json.dumps(config_to_dict(table2_config())))
        code, out, _ = run_cli(["analyze", "--config", str(cfg_path)], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["p_sec"] > 0.0

    def test_quad_nodes_override(self, capsys):
        code, out, _ = run_cli(["analyze", "--quad-nodes", "32"], capsys)
        assert code == EXIT_OK
        coarse = json.loads(out)
        run_cli(["analyze"], capsys)  # flush
        code, out, _ = run_cli(["analyze"], capsys)
        fine = json.loads(out)
        # integrands are smooth; a different node budget converges to the
        # same refined values
        for key in ("p_cov", "p_suc", "p_out", "p_sec"):
            assert coarse[key] == pytest.approx(fine[key], abs=1e-9)


class TestSimulate:
    def test_json_structure(self, capsys):
        code, out, err = run_cli(["simulate", "--trials", "200", "--seed", "3"], capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert set(doc) == {"p_av", "p_av_per_tier", "p_cov", "p_suc", "p_out", "p_sec"}
        assert doc["p_cov"].keys() == {"mean", "stderr", "n_trials", "seed"}
        assert doc["p_cov"]["n_trials"] == 200
        assert doc["p_cov"]["seed"] == 3

    def test_csv_structure(self, capsys):
        code, out, _ = run_cli(["simulate", "--trials", "100", "--format", "csv"], capsys)
        assert code == EXIT_OK
        assert out.startswith("metric,mean,stderr,n_trials,seed\n")


class TestValidate:
    def test_all_pass_exit_zero(self, capsys):
        code, out, err = run_cli(["validate", "--trials", "1500", "--seed", "1"], capsys)
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "metric,analytic,mc_mean,mc_stderr,abs_diff,pass"
        assert len(lines) == 8
        assert all(line.endswith(",true") for line in lines[1:])
        assert err == ""

    def test_failing_row_exit_three(self, capsys):
        # a single trial cannot sit within the 0.02 band of a fractional metric
        code, out, _ = run_cli(["validate", "--trials", "1", "--seed", "1"], capsys)
        assert code == EXIT_VALIDATION
        assert ",false" in out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(["validate", "--trials", "400", "--format", "json"], capsys)
        doc = json.loads(out)
        assert {r["metric"] for r in doc} >= {"p_cov", "p_out", "p_sec"}


class TestSweep:
    def test_basic_csv(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--axis1", "gamma=0.2,0.8", "--metric", "p_sec"], capsys)
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "axis1,axis2,metric,engine,value,stderr"
        assert len(lines) == 3
        assert lines[1].startswith("0.2,,p_sec,analytic,")

    def test_unknown_parameter_exits_one(self, capsys):
        code, _, err = run_cli(["sweep", "--axis1", "warp=1,2"], capsys)
        assert code == EXIT_INPUT
        assert "warp" in err

    def test_missing_axis_exits_one(self, capsys):
        code, _, err = run_cli(["sweep"], capsys)
        assert code == EXIT_INPUT

    def test_malformed_axis_exits_one(self, capsys):
        code, _, err = run_cli(["sweep", "--axis1", "gamma"], capsys)
        assert code == EXIT_INPUT

    def test_same_parameter_on_both_axes_exits_one(self, capsys):
        code, out, err = run_cli(
            ["sweep", "--axis1", "gamma=0.2,0.6", "--axis2", "gamma=0.3,0.9"], capsys)
        assert code == EXIT_INPUT and out == ""
        assert "axis2:" in err

    def test_altitude_with_legit_tier_exits_one(self, capsys):
        code, out, err = run_cli(
            ["sweep", "--axis1", "altitude_m=600,1400", "--axis2", "legit_tier=0,2",
             "--metric", "p_av"], capsys)
        assert code == EXIT_INPUT and out == ""
        assert "axis2:" in err

    def test_two_axes_with_montecarlo(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--axis1", "gamma=0.3", "--axis2", "num_satellites=100,200",
             "--engine", "montecarlo", "--trials", "100", "--metric", "p_av"], capsys)
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert len(lines) == 3
        assert all(",montecarlo," in line for line in lines[1:])

    def test_byte_stable(self, tmp_path):
        args = ["sweep", "--axis1", "gamma=0.2,0.6", "--engine", "both",
                "--trials", "150", "--seed", "5"]
        p1, p2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert main(args + ["--out", str(p1)]) == EXIT_OK
        assert main(args + ["--out", str(p2)]) == EXIT_OK
        assert p1.read_bytes() == p2.read_bytes()


class TestOptimize:
    def test_json_output(self, capsys):
        code, out, _ = run_cli(["optimize", "--grid-points", "5"], capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert set(doc) == {"gamma_star", "p_sec_star", "grid"}
        assert len(doc["grid"]) == 5
        assert 0.0 < doc["gamma_star"] <= 1.0
        assert doc["p_sec_star"] >= max(g["p_sec"] for g in doc["grid"])

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(["optimize", "--grid-points", "4", "--format", "csv"], capsys)
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "gamma,p_sec,is_optimum"
        assert lines[-1].endswith(",true")


class TestInputErrors:
    def test_unknown_preset(self, capsys):
        code, out, err = run_cli(["analyze", "--preset", "tableX"], capsys)
        assert code == EXIT_INPUT
        assert out == ""
        assert "tableX" in err

    def test_bad_json_config(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        code, out, err = run_cli(["analyze", "--config", str(p)], capsys)
        assert code == EXIT_INPUT
        assert out == ""

    def test_missing_field_named_in_error(self, tmp_path, capsys):
        doc = config_to_dict(table2_config())
        del doc["tiers"]
        p = tmp_path / "incomplete.json"
        p.write_text(json.dumps(doc))
        code, _, err = run_cli(["analyze", "--config", str(p)], capsys)
        assert code == EXIT_INPUT
        assert "tiers" in err

    def test_invariant_violation_exits_one(self, tmp_path, capsys):
        doc = config_to_dict(table2_config())
        doc["info_ratio"] = 1.5
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        code, _, err = run_cli(["analyze", "--config", str(p)], capsys)
        assert code == EXIT_INPUT
        assert "info_ratio" in err

    def test_nonpositive_seed(self, capsys):
        code, _, err = run_cli(["simulate", "--seed", "0"], capsys)
        assert code == EXIT_INPUT

    def test_unknown_command(self, capsys):
        code, _, err = run_cli(["transmogrify"], capsys)
        assert code == EXIT_INPUT

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(["analyze", "--config", "/nonexistent.json"], capsys)
        assert code == EXIT_INPUT

    def test_nan_value_rejected_cleanly(self, tmp_path, capsys):
        # Python's json module accepts NaN literals; the schema must not
        doc = config_to_dict(table2_config())
        doc["device_density_per_km2"] = float("nan")
        p = tmp_path / "nan.json"
        p.write_text(json.dumps(doc))
        code, out, err = run_cli(["analyze", "--config", str(p)], capsys)
        assert code == EXIT_INPUT
        assert out == ""
        assert "device_density_per_km2" in err

    def test_malformed_thread_env_exits_one(self, capsys, monkeypatch):
        from leosec.montecarlo import THREADS_ENV_VAR
        monkeypatch.setenv(THREADS_ENV_VAR, "many")
        code, out, err = run_cli(["simulate", "--trials", "10"], capsys)
        assert code == EXIT_INPUT
        assert THREADS_ENV_VAR in err


class TestParseConfig:
    def test_parse_round_trip(self):
        cfg = table2_config()
        assert parse_config(json.dumps(config_to_dict(cfg))) == cfg

    def test_rejects_non_object(self):
        with pytest.raises(ConfigError):
            parse_config("[1, 2, 3]")


def test_manifest_validation(capsys):
    # seed and trial count below 1 are rejected while parsing, for any command
    for argv in (["analyze", "--seed", "0"], ["simulate", "--trials", "0"],
                 ["validate", "--trials", "-3"]):
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("error: ")
