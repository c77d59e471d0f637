import json

import pytest

from mixedrates import acceptance, cli
from mixedrates.acceptance import CheckResult
from mixedrates.harness import EXPERIMENTS


def run_cli(args):
    return cli.main(list(args))


class TestRatesCommand:
    def test_coupled_example(self, capsys):
        assert run_cli(["rates", "--alpha", "4", "--beta", "2", "--term", "2:1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["tau_a"] == "1/6"
        assert out["tau_b"] == "1/3"
        assert out["regime"] == "coupled"

    def test_fraction_arguments(self, capsys):
        assert run_cli(["rates", "--alpha", "7/2", "--beta", "3/2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["tau_a"] == "1/5"
        assert out["lambda0"] == "1"

    def test_invalid_profile_exits_3(self, capsys):
        assert run_cli(["rates", "--alpha", "2", "--beta", "3"]) == 3
        assert "alpha > beta" in capsys.readouterr().err

    def test_malformed_term_exits_3(self):
        assert run_cli(["rates", "--alpha", "4", "--beta", "2", "--term", "21"]) == 3

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["rates", "--alpha", "4", "--beta", "2", "--frobnicate"])
        assert exc.value.code == 2


class TestSimulateCommand:
    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "# comment\nexperiment = shorth\nn_values = 100, 200, 400, 800\n"
            "replicates = 50\nmaster_seed = 3\n"
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(["simulate", "--config", str(cfg), "--out-dir", str(out1)]) == 0
        assert run_cli(["simulate", "--config", str(cfg), "--out-dir", str(out2)]) == 0
        assert (out1 / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_outputs_exist_and_parse(self, tmp_path):
        out = tmp_path / "run"
        assert (
            run_cli(
                [
                    "simulate", "--experiment", "shorth", "--n-values", "100,200,400,800",
                    "--replicates", "50", "--seed", "9", "--out-dir", str(out),
                ]
            )
            == 0
        )
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["rates"]) == {"m", "r"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 9
        assert (out / "plotdata" / "m_loglog.csv").exists()
        header = (out / "records.csv").read_text().splitlines()[0]
        assert header == "experiment,n,replicate,component,error,zero_flag,choice,tie_flag,diag_flags"

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "experiment = shorth\nn_values = 100, 200, 400, 800\n"
            "replicates = 50\nmaster_seed = 3\n"
        )
        out = tmp_path / "o"
        assert run_cli(
            ["simulate", "--config", str(cfg), "--seed", "4", "--out-dir", str(out)]
        ) == 0
        assert json.loads((out / "manifest.json").read_text())["master_seed"] == 4

    def test_unknown_config_key_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("experiment = shorth\nwibble = 3\n")
        assert run_cli(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 3
        assert "unknown key" in capsys.readouterr().err

    def test_missing_experiment_exits_3(self, tmp_path):
        assert run_cli(["simulate", "--out-dir", str(tmp_path)]) == 3

    def test_bad_ladder_exits_3(self, tmp_path):
        assert (
            run_cli(
                [
                    "simulate", "--experiment", "shorth", "--n-values", "100,200",
                    "--replicates", "50", "--out-dir", str(tmp_path),
                ]
            )
            == 3
        )

    def test_summary_and_design_mode_recorded(self, tmp_path):
        out = tmp_path / "run"
        assert (
            run_cli(
                [
                    "simulate", "--experiment", "lasso", "--n-values", "60,120,240,480",
                    "--replicates", "50", "--seed", "3", "--out-dir", str(out),
                    "--summary", "rmse", "--design-mode", "fixed",
                ]
            )
            == 0
        )
        summary = json.loads((out / "summary.json").read_text())
        assert summary["error_summary"] == "rmse"
        assert summary["params"]["design_mode"] == "fixed"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["summary"] == "rmse"

    @pytest.mark.parametrize("d", ["1", "4"])
    def test_lasso_dimension_outside_two_three_exits_3(self, tmp_path, capsys, d):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            f"experiment = lasso\nn_values = 60, 120, 240, 480\nreplicates = 50\nd = {d}\n"
        )
        assert run_cli(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 3
        assert "d must be 2 or 3" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


@pytest.fixture(scope="module")
def small_runs(tmp_path_factory):
    """One small simulate run per experiment, counting covariance estimates."""
    calls = []
    real = cli.estimate_kmeans_cov

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    outs = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "estimate_kmeans_cov", counting)
        for experiment in EXPERIMENTS:
            out = tmp_path_factory.mktemp(experiment)
            argv = [
                "simulate", "--experiment", experiment, "--n-values", "100,200,400,800",
                "--replicates", "50", "--seed", "5", "--out-dir", str(out),
            ]
            assert run_cli(argv) == 0
            outs[experiment] = out
    return outs, len(calls)


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_every_record_error_is_a_number(small_runs, experiment):
    outs, _ = small_runs
    rows = (outs[experiment] / "records.csv").read_text().splitlines()[1:]
    assert len(rows) > 0
    for row in rows:
        float(row.split(",")[4])


def test_kmeans_covariance_estimated_once_per_summary(small_runs):
    outs, cov_calls = small_runs
    summary = json.loads((outs["kmeans"] / "summary.json").read_text())
    assert len(summary["ks_vs_limit"]) == 4
    assert cov_calls == 1


class TestLimitCommand:
    def test_chernoff_csv(self, tmp_path):
        out = tmp_path / "draws.csv"
        assert (
            run_cli(
                ["limit", "--law", "chernoff", "--draws", "50", "--seed", "5",
                 "--out", str(out)]
            )
            == 0
        )
        lines = out.read_text().splitlines()
        assert lines[0] == "index,t"
        assert len(lines) == 51

    def test_lasso_first_to_stdout(self, capsys):
        assert run_cli(["limit", "--law", "lasso-first", "--draws", "5", "--seed", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "index,u"
        assert len(lines) == 6

    def test_dump_two_line(self, capsys):
        assert run_cli(["limit", "--dump-sample", "two-line", "--draws", "4", "--seed", "7"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "index,x,y"
        assert all(line.split(",")[1] in ("-1.0", "1.0") for line in lines[1:])

    def test_law_and_dump_are_exclusive(self, capsys):
        assert run_cli(["limit", "--law", "chernoff", "--dump-sample", "laplace"]) == 2
        assert run_cli(["limit"]) == 2

    def test_deterministic_output(self, capsys):
        run_cli(["limit", "--law", "lasso-first", "--draws", "10", "--seed", "5"])
        first = capsys.readouterr().out
        run_cli(["limit", "--law", "lasso-first", "--draws", "10", "--seed", "5"])
        assert capsys.readouterr().out == first


class TestVerifyCommand:
    def _fake_results(self, all_pass):
        return [
            CheckResult("a", True, {}, "t"),
            CheckResult("b", all_pass, {"x": 1.0}, "t"),
        ]

    def test_exit_zero_when_all_pass(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(
            cli, "run_all", lambda tier, master_seed, workers, progress: self._fake_results(True)
        )
        assert run_cli(["verify", "--quick", "--out-dir", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert [c["passed"] for c in manifest["checks"]] == [True, True]
        assert manifest["config"]["tier"] == "quick"

    def test_exit_four_on_failure(self, monkeypatch, capsys):
        monkeypatch.setattr(
            cli, "run_all", lambda tier, master_seed, workers, progress: self._fake_results(False)
        )
        assert run_cli(["verify", "--full"]) == 4
        assert "1/2 checks passed" in capsys.readouterr().out

    def test_manifest_records_check_wall_times(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(
            acceptance, "_check_list",
            lambda tier, master_seed, workers: [acceptance.check_rate_calculus],
        )
        assert run_cli(["verify", "--quick", "--out-dir", str(tmp_path)]) == 0
        checks = json.loads((tmp_path / "manifest.json").read_text())["checks"]
        assert len(checks) == 1
        assert checks[0]["wall_s"] > 0.0

    def test_tiers_are_exclusive(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["verify", "--quick", "--full"])
        assert exc.value.code == 2


def test_help_documents_exit_codes(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "exit codes" in out
    assert "verification failed" in out
