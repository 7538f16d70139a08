import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import pytest

import wrightlab.cli
import wrightlab.verify
from wrightlab import BinomialGen, DomainError, evaluate_generating_integral_direct
from wrightlab.cli import main
from wrightlab.verify import (
    ConfigError,
    GridConfig,
    csv_to_report,
    report_to_csv,
    run_verification,
    summarize,
)


# The default grid's records, recorded before the catalog and domain-check
# refactor: one JSON array per line, [case, params, closed_form, oracle,
# terms_used, node_evals, status].
DEFAULT_GRID = pathlib.Path(__file__).resolve().parent / "data" / "default_grid.jsonl"


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

    @pytest.mark.parametrize("cases", [["theorm1"], ["theorem4", "nosuch*"], []], ids=str)
    def test_case_patterns_must_match_a_family(self, cases):
        with pytest.raises(ConfigError, match="'cases'|pattern"):
            GridConfig.from_dict({"cases": cases})

    def test_parse_diagnostics(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"seed": 1,,}')
        with pytest.raises(ConfigError, match="line 1"):
            GridConfig.from_file(str(path))

    # JSON true/false are Python ints and NaN compares false: neither may
    # pass for a number (tolerance true used to pass every point), and an
    # infinite tolerance would pass every point too
    @pytest.mark.parametrize("raw", [
        {"tolerance": True}, {"seed": False}, {"jobs": True}, {"tolerance": math.nan},
        {"tolerances": {"theorem4": True}}, {"tolerances": {"theorem4": math.nan}},
        {"tolerance": math.inf}, {"tolerances": {"theorem4": math.inf}},
    ], ids=lambda raw: json.dumps(raw))
    def test_booleans_and_nan_are_not_numbers(self, raw, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(small_config(**raw)))
        assert main(["verify", "--config", str(path), "--out", str(tmp_path / "r.json")]) == 1
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "r.json").exists()


    # the flags go through the same checks as the config fields they set
    @pytest.mark.parametrize("flags", [
        ["--tolerance", "nan"], ["--tolerance", "-1"], ["--tolerance", "inf"],
        ["--jobs", "0"], ["--jobs", "-2"],
    ], ids=" ".join)
    def test_verify_flags_are_checked_like_the_config(self, flags, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(small_config()))
        for config in ([], ["--config", str(path)]):
            assert main(["verify", *config, *flags, "--out", str(tmp_path / "r.json")]) == 1
            assert capsys.readouterr().err.startswith("config error: ")
            assert not (tmp_path / "r.json").exists()


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

    def test_generating_point_outside_the_domain_is_skipped(self):
        # s < r: the spec refuses the point when the case is built
        cfg = GridConfig.from_dict({"cases": ["gen-binomial"],
                                    "grids": {"gen-binomial": {"r": [3.0]}}})
        report = run_verification(cfg)
        assert len(report["records"]) == 12
        assert {r["status"] for r in report["records"]} == {"skipped-domain"}
        assert summarize(report)[1] == 0

    def test_theorem6_point_with_mismatched_factors_is_skipped(self):
        # zip would drop the unmatched exponent and check a one-factor value
        cfg = GridConfig.from_dict({"cases": ["theorem6-binomial"], "grids": {
            "theorem6-binomial": {"alphas": [[0.4, 0.7, 0.9]], "xs": [[0.3, -0.2]]}}})
        report = run_verification(cfg)
        assert [r["status"] for r in report["records"]] == ["skipped-domain"] * 2
        assert summarize(report)[1] == 0

    def test_theorem4_lambda_zero_inside_xi_max_passes(self):
        # |p| * xi_max = 3.9 / 4 < 1: inside the domain, both routes agree
        cfg = GridConfig.from_dict({"cases": ["theorem4"], "grids": {"theorem4": {
            "lam": [0.0], "p": [3.9], "nu": [0.0], "mu": [0.0], "b": [1.0]}}})
        report = run_verification(cfg)
        assert [r["status"] for r in report["records"]] == ["pass"]

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

    # skipped-domain and error records hold nulls where the values go
    def test_csv_round_trip_of_records_without_values(self):
        report = run_verification(GridConfig.from_dict({
            "cases": ["theorem1", "gen-humbert"],
            "grids": {"theorem1": {"x2": [1.5]}, "gen-humbert": {"a": [1e300]}}}))
        assert {r["status"] for r in report["records"]} == {"skipped-domain", "error"}
        assert all(r["closed_form"] is None and r["oracle"] is None for r in report["records"])
        text = report_to_csv(report)
        assert csv_to_report(text)["records"] == report["records"]
        assert text.splitlines()[0].split(",") == [
            "case_name", "a", "alpha", "alpha1", "alpha2", "b", "beta", "delta", "lam", "omega",
            "p", "r", "s", "t", "x", "x1", "x2",
            "closed_form_re", "closed_form_im", "oracle_re", "oracle_im",
            "abs_err", "rel_err", "terms_used", "node_evals", "status"]

    def test_csv_trailing_blank_line_reads(self):
        report = run_verification(GridConfig.from_dict(small_config()))
        assert csv_to_report(report_to_csv(report) + "\n")["records"] == report["records"]

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

    @pytest.mark.parametrize("args", [
        ["theorem4", "alpha=1", "beta=1", "nu=0", "mu=0", "lam=0", "p=5"],
        ["integral_direct", "family=t4", "alpha=1", "beta=1", "nu=0", "mu=0", "lam=0", "p=5"],
        ["generating", "a=0.7", "r=0.8", "s=2.1", "delta=1", "omega=1", "lam=0", "p=5", "t=0.3"],
        # |p| xi_max = 1.07 at (t-a)/(b-t) = 3602; a 2,001-point grid read 8% low there
        ["theorem4", "alpha=1", "beta=1", "nu=-0.9987", "mu=3.683", "lam=0", "p=0.026"],
        ["integral_direct", "family=t4", "alpha=1", "beta=1", "nu=-0.9987", "mu=3.683", "lam=0",
         "p=0.026"],
    ])
    def test_eval_lambda_zero_outside_the_disc_is_a_domain_error(self, args, capsys):
        assert main(["eval"] + args) == 2
        assert capsys.readouterr().err.startswith("domain error: lam = 0 requires")

    def test_generating_oracle_refuses_lambda_zero_outside_the_disc(self):
        with pytest.raises(DomainError):
            evaluate_generating_integral_direct(BinomialGen(0.7), 0.8, 2.1, 1.0, 1.0, 0.0,
                                                5.0, 0.3)

    @pytest.mark.parametrize("args", [
        ["mittag_leffler", "lam=1", "z=-30"],
        ["theorem1", "alpha=1.2", "beta=0.8", "alpha1=0.5", "alpha2=0.9", "x1=0.3",
         "x2=-0.25", "lam=0.5", "p=-40"],
    ])
    def test_eval_cancellation_exits_3(self, args, capsys):
        assert main(["eval"] + args) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("convergence error: sum of |terms|")

    def test_verify_survives_a_point_that_overflows(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"cases": ["gen-humbert"],
                                        "grids": {"gen-humbert": {"a": [1e300]}}}))
        serial = tmp_path / "serial.json"
        pooled = tmp_path / "pooled.json"
        assert main(["verify", "--config", str(cfg_path), "--out", str(serial)]) == 4
        assert main(["verify", "--config", str(cfg_path), "--out", str(pooled),
                     "--jobs", "2"]) == 4
        assert "Traceback" not in capsys.readouterr().err
        records = json.loads(serial.read_text())["records"]
        assert len(records) == 2 and {r["status"] for r in records} == {"error"}
        assert serial.read_bytes() == pooled.read_bytes()

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

    def test_import_leaves_multiprocessing_unloaded(self):
        # only a pool run (--jobs N) imports multiprocessing and its socket modules
        code = ("import sys, wrightlab.verify, wrightlab.cli; "
                "sys.exit('multiprocessing' in sys.modules)")
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    # bad environment, case or output input is one line on stderr and exit 1,
    # never a traceback, and no output file
    @pytest.mark.parametrize("env, args", [
        ({"WRIGHTLAB_MAX_TERMS": "abc"}, ["verify"]),
        ({"WRIGHTLAB_MAX_TERMS": "0"}, ["verify"]),
        ({}, ["verify", "--case", "theorm1"]),
        ({}, ["verify", "--case", "ex4.1", "--out", "missing/r.json"]),
        ({}, ["report", "r.json", "--format", "csv", "--out", "missing/r.csv"]),
    ], ids=lambda value: " ".join(value if isinstance(value, list)
                                  else [f"{key}={v}" for key, v in value.items()]))
    def test_bad_input_exits_1_without_traceback(self, env, args, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps(small_config()))
        assert main(["verify", "--config", str(tmp_path / "cfg.json"),
                     "--out", str(tmp_path / "r.json")]) == 0
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        run = subprocess.run([sys.executable, "-m", "wrightlab", *args], cwd=tmp_path,
                             env={**os.environ, "PYTHONPATH": str(src), **env},
                             capture_output=True, text=True)
        assert run.returncode == 1
        assert "Traceback" not in run.stderr and len(run.stderr.splitlines()) == 1
        assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.json", "r.json"]

    def test_unwritable_out_is_refused_before_any_point(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(wrightlab.cli, "run_verification", lambda *args: calls.append(args))
        monkeypatch.setattr(wrightlab.verify, "evaluate_point", lambda *args: calls.append(args))
        out = tmp_path / "missing" / "r.json"
        assert main(["verify", "--case", "ex4.1", "--out", str(out)]) == 1
        assert calls == [] and "output error" in capsys.readouterr().err

    def test_out_probe_truncates_nothing(self, tmp_path, monkeypatch):
        def interrupted(cfg):
            raise RuntimeError("interrupted")

        monkeypatch.setattr(wrightlab.cli, "run_verification", interrupted)
        out = tmp_path / "r.json"
        out.write_text("earlier report")
        with pytest.raises(RuntimeError, match="interrupted"):
            main(["verify", "--case", "ex4.1", "--out", str(out)])
        assert out.read_text() == "earlier report"

    def test_closed_stdout_exits_1_without_traceback(self):
        read, write = os.pipe()
        os.close(read)
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        try:
            run = subprocess.run(
                [sys.executable, "-m", "wrightlab", "eval", "mittag_leffler", "lam=1", "z=1"],
                stdout=write, stderr=subprocess.PIPE, text=True,
                env={**os.environ, "PYTHONPATH": str(src)})
        finally:
            os.close(write)
        assert (run.returncode, run.stderr) == (1, "")

    def test_eval_node_overflow_exits_3_without_warnings(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["eval", "integral_direct", "alpha=1.2", "beta=0.8", "alpha1=0.5",
                         "alpha2=0.9", "x1=0.3", "x2=-0.25", "lam=0.5", "p=-40"]) == 3
        assert "overflowed at n=" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["mittag_leffler", "lam=0.3", "z=6+4j"],
        ["wright_psi", "upper=[[1,1]]", "lower=[[1,0.3]]", "z=6+4j"],
    ])
    def test_eval_overflowing_partial_sum_exits_3(self, args, capsys):
        # the partial sum's parts stay finite while its modulus overflows
        assert main(["eval"] + args) == 3
        assert "partial sum is non-finite" in capsys.readouterr().err

    def test_verify_sums_t3_points_outside_the_series_disc(self, tmp_path):
        # w = -u at u = 1, 2 is summed mirrored; u = -1.5 makes chi negative at t = 1
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"cases": ["theorem3"], "grids": {"theorem3": {
            "alpha": [0.9], "beta": [1.3], "gamma": [-0.7], "a": [0.0], "b": [1.0],
            "u": [1.0, 2.0, -1.5], "v": [1.0], "lam": [1.0], "p": [0.5]}}}))
        out = tmp_path / "r.json"
        assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert {r["params"]["u"]: r["status"] for r in report["records"]} == {
            1.0: "pass", 2.0: "pass", -1.5: "skipped-domain"}

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

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("content", [{"records": 5}, {"meta": {}}, {"records": [{}]}])
    def test_report_of_wrong_shape(self, tmp_path, capsys, content, fmt):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(content))
        out = tmp_path / "out"
        assert main(["report", str(path), "--format", fmt, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("report error: ")
        assert not out.exists()

    # a record field not of its declared shape (or a params key that is also a
    # column, whose CSV would not read back), a CSV row whose cell count is not
    # its header's, or a file that is no report: exit 1, never a traceback
    @pytest.mark.parametrize("field, value", [
        ("closed_form", 1.5), ("closed_form", [1.0]), ("oracle", ["1", 0.0]),
        ("abs_err", [1e-16]), ("status", "maybe"), ("params", {"x1": 0.3, "status": 1.0})],
        ids=str)
    def test_report_of_a_malformed_record(self, tmp_path, capsys, field, value):
        report = run_verification(GridConfig.from_dict(small_config()))
        report["records"][1][field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(report))
        assert main(["report", str(path), "--format", "csv"]) == 1
        assert capsys.readouterr().err.startswith(f"report error: record 1: {field} must be ")

    @pytest.mark.parametrize("mangle", [lambda row: row.rsplit(",", 3)[0],
                                        lambda row: row + ",1"], ids=["short", "long"])
    def test_report_of_a_csv_row_unlike_its_header(self, tmp_path, capsys, mangle):
        rows = report_to_csv(run_verification(GridConfig.from_dict(small_config()))).splitlines()
        rows[2] = mangle(rows[2])
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(rows) + "\n")
        assert main(["report", str(path), "--format", "json"]) == 1
        assert capsys.readouterr().err == (
            "report error: record 1: its CSV row does not have the header's 18 cells\n")

    @pytest.mark.parametrize("text, message", [
        ("[1, 2]", "a report must be a JSON object or a CSV with the record header"),
        ("case_name\n" + "x" * 200_000 + "\n", "CSV parse error: field larger than"),
        ('{"records": ' + "[" * 100_000 + "]" * 100_000 + "}", "maximum recursion depth"),
        ("case_name,status,closed_form_re,closed_form_im,oracle_re,oracle_im,abs_err,rel_err,"
         "terms_used,node_evals,status\n",
         "CSV header: a parameter column is named 'status', a report column"),
    ], ids=["json-array", "huge-cell", "deep-json", "param-named-status"])
    def test_report_of_a_file_that_is_no_report(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad"
        path.write_text(text)
        assert main(["report", str(path), "--format", "csv"]) == 1
        assert capsys.readouterr().err.startswith(f"report error: {message}")

    def test_full_default_grid_passes(self, tmp_path):
        out = tmp_path / "full.json"
        assert main(["verify", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        statuses = {r["status"] for r in report["records"]}
        assert statuses == {"pass"}
        assert set(report["meta"]) == {"seed", "version", "timestamp"}
        # no drift: counts and statuses exactly, values within 1e-15 relative
        golden = [json.loads(line) for line in DEFAULT_GRID.read_text().splitlines()]
        assert len(report["records"]) == len(golden)
        for record, (case, params, closed, oracle, terms, nodes, status) in zip(
                report["records"], golden):
            assert (record["case_name"], record["params"]) == (case, params)
            assert (record["terms_used"], record["node_evals"], record["status"]) == (
                terms, nodes, status)
            for got, want in ((record["closed_form"], closed), (record["oracle"], oracle)):
                assert abs(complex(*got) - complex(*want)) <= 1e-15 * abs(complex(*want))

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
