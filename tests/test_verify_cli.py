import json
import math
import warnings

import pytest

from wrightlab.cli import main
from wrightlab.verify import (
    ConfigError,
    GridConfig,
    csv_to_report,
    report_to_csv,
    run_verification,
    summarize,
)


@pytest.fixture(autouse=True)
def pinned_clock(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")


def small_config(**extra):
    raw = {"cases": ["theorem4"],
           "grids": {"theorem4": {"alpha": [1.2], "beta": [0.8], "a": [0.0], "b": [1.0],
                                  "nu": [0.0], "mu": [1.5], "lam": [1.0],
                                  "p": [0.0, 0.8, [0.5, 0.5]]}}}
    raw.update(extra)
    return raw


class TestGridConfig:
    def test_unknown_field(self):
        with pytest.raises(ConfigError, match="unknown config field"):
            GridConfig.from_dict({"tolerancee": 1e-8})

    def test_unknown_case(self):
        with pytest.raises(ConfigError, match="unknown case"):
            GridConfig.from_dict({"grids": {"nope": {}}})

    def test_unknown_parameter(self):
        with pytest.raises(ConfigError, match="unknown parameter"):
            GridConfig.from_dict({"grids": {"theorem4": {"zeta": [1]}}})

    def test_parse_diagnostics(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"seed": 1,,}')
        with pytest.raises(ConfigError, match="line 1"):
            GridConfig.from_file(str(path))


class TestRunner:
    def test_small_run_passes(self):
        cfg = GridConfig.from_dict(small_config())
        report = run_verification(cfg)
        assert len(report["records"]) == 3
        assert all(r["status"] == "pass" for r in report["records"])
        line, code = summarize(report)
        assert code == 0 and "fail=0" in line

    def test_theorem4_p_zero_prefactor_tolerance(self):
        cfg = GridConfig.from_dict({
            "tolerance": 1e-12,
            "cases": ["theorem4"],
            "grids": {"theorem4": {"p": [0.0]}},
        })
        report = run_verification(cfg)
        assert report["records"], "grid should not be empty"
        for record in report["records"]:
            assert record["status"] == "pass"
            closed = complex(*record["closed_form"])
            params = record["params"]
            expected = ((params["nu"] + 1.0) ** -params["alpha"]
                        * (params["mu"] + 1.0) ** -params["beta"]
                        / (params["b"] - params["a"]))
            assert abs(closed - expected) <= 1e-12 * abs(expected)

    def test_out_of_domain_points_are_skipped_not_dropped(self):
        cfg = GridConfig.from_dict({
            "cases": ["theorem1"],
            "grids": {"theorem1": {"alpha": [1.2], "beta": [0.8], "alpha1": [0.5],
                                   "alpha2": [0.9], "x1": [1.5], "x2": [0.2],
                                   "lam": [1.0], "p": [0.0, 0.8]}},
        })
        report = run_verification(cfg)
        assert len(report["records"]) == 2
        assert all(r["status"] == "skipped-domain" for r in report["records"])
        _, code = summarize(report)
        assert code == 0

    def test_injected_failure_flips_exit_code(self):
        cfg = GridConfig.from_dict(small_config(tolerances={"theorem4": 1e-17}))
        report = run_verification(cfg)
        statuses = {r["status"] for r in report["records"]}
        assert "fail" in statuses
        _, code = summarize(report)
        assert code != 0

    def test_determinism_across_runs(self):
        cfg = GridConfig.from_dict(small_config(seed=7))
        text1 = json.dumps(run_verification(cfg), sort_keys=True)
        text2 = json.dumps(run_verification(cfg), sort_keys=True)
        assert text1 == text2

    def test_five_variable_lauricella_point_is_skipped(self):
        cfg = GridConfig.from_dict({
            "cases": ["lauricella"],
            "grids": {"lauricella": {"alphas": [[0.1, 0.2, 0.3, 0.4, 0.5]],
                                     "xs": [[0.1, 0.1, 0.1, 0.1, 0.1]],
                                     "lam": [1.0], "p": [0.5]}},
        })
        report = run_verification(cfg)
        assert [r["status"] for r in report["records"]] == ["skipped-domain"]
        assert summarize(report)[1] == 0

    def test_random_grid_override_keeps_run_seed(self):
        grids = {"theorem1-random": {"draw": [0]}}
        cfg = GridConfig.from_dict({"seed": 7, "cases": ["theorem1-random"], "grids": grids})
        assert [r["params"] for r in run_verification(cfg)["records"]] == [{"draw": 0, "seed": 7}]
        grids["theorem1-random"]["seed"] = [3]
        assert [r["params"] for r in run_verification(cfg)["records"]] == [{"draw": 0, "seed": 3}]

    def test_seed_changes_random_draws(self):
        base = {"cases": ["theorem1-random"]}
        rep_a = run_verification(GridConfig.from_dict(dict(base, seed=1)))
        rep_b = run_verification(GridConfig.from_dict(dict(base, seed=2)))
        assert rep_a["records"] != rep_b["records"]
        assert all(r["status"] == "pass" for r in rep_a["records"] + rep_b["records"])


class TestReportFormats:
    def test_csv_round_trip_identity(self):
        cfg = GridConfig.from_dict(small_config())
        report = run_verification(cfg)
        rebuilt = csv_to_report(report_to_csv(report))
        assert rebuilt["records"] == report["records"]

    def test_empty_report_is_header_only(self):
        text = report_to_csv({"meta": {}, "records": []})
        lines = text.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("case_name,")

    def test_row_count_matches_grid(self):
        cfg = GridConfig.from_dict(small_config())
        report = run_verification(cfg)
        text = report_to_csv(report)
        assert len(text.splitlines()) == 1 + len(report["records"])


class TestCli:
    def test_eval_exit_codes(self, capsys):
        assert main(["eval", "mittag_leffler", "\u03bb=1", "z=1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("mittag_leffler value=2.71828182845904")
        assert abs(float(out.split("value=")[1].split()[0]) - math.e) <= 1e-14

        assert main(["eval", "mittag_leffler", "lam=1", "z=1"]) == 0
        out = capsys.readouterr().out
        value = float(out.split("value=")[1].split()[0])
        assert abs(value - math.e) <= 1e-13

        assert main(["eval", "beta", "x=2", "y=3"]) == 0
        out = capsys.readouterr().out
        assert abs(float(out.split("value=")[1].split()[0]) - 1.0 / 12.0) <= 1e-14

        assert main(["eval", "mittag_leffler", "lam=0", "z=2"]) == 2
        assert main(["eval", "not_a_function"]) == 1
        assert main(["eval", "mittag_leffler", "lam=1"]) == 1  # missing argument

    @pytest.mark.parametrize("function", ["integral_direct", "lauricella_closed"])
    def test_eval_five_variables_is_a_domain_error(self, function, capsys):
        args = ["eval", function, "family=tn", "alpha=0.6", "beta=1.4",
                "alphas=[0.1,0.2,0.3,0.4,0.5]", "xs=[0.1,0.1,0.1,0.1,0.1]", "lam=1", "p=0.5"]
        if function == "lauricella_closed":
            args.remove("family=tn")
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("domain error: ")

    @pytest.mark.parametrize("params", [["gamma", "x=200"], ["pochhammer", "a=1e300", "n=5"],
                                        ["beta", "x=1e-320", "y=1"]])
    def test_eval_overflow_is_a_domain_error(self, params, capsys):
        assert main(["eval"] + params) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("domain error: ") and "exceeds double range" in captured.err
        assert "Traceback" not in captured.err

    def test_eval_env_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("WRIGHTLAB_MAX_TERMS", "4")
        assert main(["eval", "mittag_leffler", "lam=1", "z=1"]) == 3

    def test_verify_cli_byte_identical(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config(seed=3)))
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert main(["verify", "--config", str(cfg_path), "--out", str(out1)]) == 0
        assert main(["verify", "--config", str(cfg_path), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_verify_malformed_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"grids": {"theorem4": {"zeta": [1]}}}')
        assert main(["verify", "--config", str(cfg_path), "--out",
                     str(tmp_path / "r.json")]) == 1
        assert "unknown parameter" in capsys.readouterr().err

    def test_verify_non_numeric_grid_value(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"grids": {"theorem1": {"x1": ["abc"]}}}')
        assert main(["verify", "--config", str(cfg_path), "--out",
                     str(tmp_path / "r.json")]) == 1
        err = capsys.readouterr().err
        assert "'theorem1'" in err and "'x1'" in err and "'abc'" in err

    def test_grid_value_types(self):
        ok = {"theorem1": {"x1": [0.1, 0], "p": [0.5, [0.5, -0.5]]},
              "lauricella": {"alphas": [[0.3, 0.5]], "xs": [[0.2, -0.1]]}}
        assert GridConfig.from_dict({"grids": ok}).grids == ok
        for grid in ({"theorem1": {"x1": [True]}}, {"theorem1": {"x1": [[0.1, 0.2]]}},
                     {"theorem1": {"p": [[0.5, 0.5, 0.5]]}}, {"theorem1": {"p": [None]}},
                     {"lauricella": {"alphas": [0.3]}}, {"theorem1": {"x1": "0.1"}}):
            with pytest.raises(ConfigError, match="is not"):
                GridConfig.from_dict({"grids": grid})

    def test_eval_node_overflow_exits_3_without_warnings(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["eval", "integral_direct", "alpha=1.2", "beta=0.8", "alpha1=0.5",
                         "alpha2=0.9", "x1=0.3", "x2=-0.25", "lam=0.5", "p=-40"]) == 3
        assert "overflowed at n=" in capsys.readouterr().err

    def test_verify_case_filter_and_failure_exit(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config()))
        out = tmp_path / "r.json"
        code = main(["verify", "--config", str(cfg_path), "--out", str(out),
                     "--tolerance", "1e-17"])
        assert code == 4
        report = json.loads(out.read_text())
        assert any(r["status"] == "fail" for r in report["records"])

    def test_report_conversion_cli(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config()))
        json_path = tmp_path / "r.json"
        assert main(["verify", "--config", str(cfg_path), "--out", str(json_path)]) == 0
        csv_path = tmp_path / "r.csv"
        assert main(["report", str(json_path), "--format", "csv",
                     "--out", str(csv_path)]) == 0
        back_path = tmp_path / "r2.json"
        assert main(["report", str(csv_path), "--format", "json",
                     "--out", str(back_path)]) == 0
        original = json.loads(json_path.read_text())
        rebuilt = json.loads(back_path.read_text())
        assert original["records"] == rebuilt["records"]

    def test_report_missing_file(self, tmp_path):
        assert main(["report", str(tmp_path / "absent.json"), "--format", "csv"]) == 1

    def test_full_default_grid_passes(self, tmp_path):
        out = tmp_path / "full.json"
        assert main(["verify", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        statuses = {r["status"] for r in report["records"]}
        assert statuses == {"pass"}
        assert set(report["meta"]) == {"seed", "version", "timestamp"}

    def test_verify_csv_output_format(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config()))
        out = tmp_path / "r.csv"
        assert main(["verify", "--config", str(cfg_path), "--out", str(out),
                     "--format", "csv"]) == 0
        assert out.read_text().startswith("case_name,")

    def test_verify_jobs_parallel_matches_serial(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config(seed=5)))
        out1 = tmp_path / "serial.json"
        out2 = tmp_path / "parallel.json"
        assert main(["verify", "--config", str(cfg_path), "--out", str(out1)]) == 0
        assert main(["verify", "--config", str(cfg_path), "--out", str(out2),
                     "--jobs", "2"]) == 0
        assert out1.read_bytes() == out2.read_bytes()
