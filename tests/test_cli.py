import dataclasses
import hashlib
import importlib
import json
import os
import pkgutil
import platform
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import mixedrates
from mixedrates import acceptance, cli, harness, limits
from mixedrates.acceptance import CheckResult
from mixedrates.distributions import SeedStream
from mixedrates.estimators import DesignError
from mixedrates.harness import EXPERIMENTS, Experiment, LadderRecord


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
                    "--summary", "rmse", "--design-mode", "fixed", "--lambda0", "0.2",
                ]
            )
            == 0
        )
        summary = json.loads((out / "summary.json").read_text())
        assert summary["error_summary"] == "rmse"
        assert summary["params"]["design_mode"] == "fixed"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["summary"] == "rmse"
        # the plotted points are the ones each slope was fitted to; at this
        # penalty alpha2 is fitted, with most of its errors exact zeros
        assert summary["zero_fraction_alpha2"]["480"][0] > 0.5
        for comp, entry in summary["rates"].items():
            lines = (out / "plotdata" / f"{comp}_loglog.csv").read_text().splitlines()
            assert lines[0] == "log_n,log_rmse_error"
            x, y = np.array([line.split(",") for line in lines[1:]], dtype=float).T
            assert float(f"{np.polyfit(x, y, 1)[0]:.6g}") == entry["slope"]

    @pytest.mark.parametrize("experiment", ["shorth", "kmeans"])
    def test_parameter_the_experiment_does_not_take_exits_3(self, tmp_path, capsys, experiment):
        argv = [
            "simulate", "--experiment", experiment, "--n-values", "100,200,400,800",
            "--replicates", "50", "--gamma", "0.3", "--sigma", "1",
            "--out-dir", str(tmp_path / "o"),
        ]
        assert run_cli(argv) == 3
        assert "unknown parameters ['gamma', 'sigma']" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("d", ["1", "4"])
    def test_lasso_dimension_outside_two_three_exits_3(self, tmp_path, capsys, d):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            f"experiment = lasso\nn_values = 60, 120, 240, 480\nreplicates = 50\nd = {d}\n"
        )
        assert run_cli(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 3
        assert "d must be 2 or 3" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("threads", ["0", "-4"])
    def test_fewer_than_one_worker_exits_3(self, tmp_path, capsys, threads):
        argv = [
            "simulate", "--experiment", "shorth", "--n-values", "100,200,400,800",
            "--replicates", "50", "--threads", threads, "--out-dir", str(tmp_path / "o"),
        ]
        assert run_cli(argv) == 3
        assert f"must be >= 1, got {threads}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_file_with_zero_threads_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "experiment = shorth\nn_values = 100, 200, 400, 800\nreplicates = 50\nthreads = 0\n"
        )
        assert run_cli(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 3
        assert "must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


LADDER = ["--n-values", "60,120,240,480", "--replicates", "50", "--seed", "3"]


class TestSettingsFromRegistry:
    """Every registry parameter is a flag and a config-file key, with no
    edit to the CLI."""

    @pytest.mark.parametrize(
        "experiment, key",
        [(e, k) for e, exp in EXPERIMENTS.items() for k in exp.defaults],
    )
    def test_registry_parameter_is_a_flag_and_a_config_key(self, tmp_path, experiment, key):
        default = EXPERIMENTS[experiment].defaults[key]
        flag = "--" + key.replace("_", "-")
        args = cli.build_parser().parse_args(["simulate", flag, str(default)])
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"{key} = {default}\n")
        from_file = cli.parse_config_file(cfg)[key]
        for value in (getattr(args, key), from_file):
            assert value == default
            assert type(value) is type(default)

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_parameter_added_to_the_registry_reaches_the_summary(
        self, monkeypatch, tmp_path, capsys, source
    ):
        shorth = EXPERIMENTS["shorth"]
        monkeypatch.setitem(
            EXPERIMENTS, "shorth", dataclasses.replace(shorth, defaults={"bandwidth": 0.5})
        )
        argv = ["simulate", "--experiment", "shorth", *LADDER, "--out-dir", str(tmp_path / "o")]
        if source == "flag":
            argv += ["--bandwidth", "3"]
        else:
            cfg = tmp_path / "cfg.txt"
            cfg.write_text("bandwidth = 3\n")
            argv += ["--config", str(cfg)]
        assert run_cli(argv) == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert repr(summary["params"]) == repr({"bandwidth": 3.0})

    def test_dimension_flag_and_config_line_give_identical_records(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("d = 3\n")
        base = ["simulate", "--experiment", "lasso", *LADDER]
        assert run_cli([*base, "--d", "3", "--out-dir", str(tmp_path / "flag")]) == 0
        assert run_cli([*base, "--config", str(cfg), "--out-dir", str(tmp_path / "file")]) == 0
        flag, file = (tmp_path / "flag" / "records.csv"), (tmp_path / "file" / "records.csv")
        assert flag.read_bytes() == file.read_bytes()
        assert json.loads((tmp_path / "flag" / "summary.json").read_text())["params"]["d"] == 3


class TestSimulateExitCodes:
    """A value argparse cannot convert exits 2; a converted value that the
    registry or ``LadderConfig`` rejects exits 3, from a flag or a file."""

    @pytest.mark.parametrize(
        "setting, message",
        [
            (["--design-mode", "bogus"], "design_mode must be 'fresh' or 'fixed', got 'bogus'"),
            (["--summary", "bogus"], "summary must be 'median-abs' or 'rmse', got 'bogus'"),
            (["--gamma", "1.5"], "gamma must lie in (0, 1]"),
            (["--gamma", "0"], "gamma must lie in (0, 1]"),
            (["--lambda0", "-1"], "lambda0 and sigma must be nonnegative"),
            (["--sigma", "-1"], "lambda0 and sigma must be nonnegative"),
            (["--gamma", "nan"], "gamma must be finite, got nan"),
            (["--gamma", "inf"], "gamma must be finite, got inf"),
            (["--lambda0", "nan"], "lambda0 must be finite, got nan"),
            (["--lambda0", "inf"], "lambda0 must be finite, got inf"),
            (["--sigma", "nan"], "sigma must be finite, got nan"),
            (["--sigma", "inf"], "sigma must be finite, got inf"),
        ],
        ids=[
            "design-mode", "summary", "gamma-above-one", "gamma-zero", "lambda0-negative",
            "sigma-negative", "gamma-nan", "gamma-inf", "lambda0-nan", "lambda0-inf", "sigma-nan",
            "sigma-inf",
        ],
    )
    def test_value_the_registry_or_config_rejects_exits_3(
        self, monkeypatch, tmp_path, capsys, setting, message
    ):
        # rejected before any replicate runs: a replicate that ran would raise
        # TypeError, which main does not turn into an exit code
        def ran(*args):
            raise TypeError("ran")

        lasso = dataclasses.replace(EXPERIMENTS["lasso"], run_replicates=ran)
        monkeypatch.setitem(EXPERIMENTS, "lasso", lasso)
        argv = ["simulate", "--experiment", "lasso", *LADDER, *setting, "--out-dir", str(tmp_path)]
        assert run_cli(argv) == 3
        assert message in capsys.readouterr().err

    def test_summary_in_config_file_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("summary = bogus\n")
        argv = ["simulate", "--experiment", "lasso", *LADDER, "--config", str(cfg),
                "--out-dir", str(tmp_path / "o")]
        assert run_cli(argv) == 3
        assert "summary must be 'median-abs' or 'rmse', got 'bogus'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "setting",
        [
            ["--n-values", "60,abc"],
            ["--replicates", "abc"],
            ["--experiment", "bogus"],
        ],
        ids=["n-values", "replicates", "experiment"],
    )
    def test_value_argparse_cannot_read_exits_2(self, tmp_path, setting):
        with pytest.raises(SystemExit) as exc:
            run_cli(["simulate", "--experiment", "lasso", *LADDER, *setting,
                     "--out-dir", str(tmp_path)])
        assert exc.value.code == 2


def _readme_command_lines() -> list[str]:
    """The ``mixedrates ...`` lines of the README's "Command line" block,
    continuation lines joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [
        line.strip()
        for line in block.replace("\\\n", " ").splitlines()
        if line.strip().startswith("mixedrates ")
    ]


def test_readme_command_lines_parse():
    lines = _readme_command_lines()
    assert len(lines) >= 8
    for line in lines:
        cli.build_parser().parse_args(shlex.split(line, comments=True)[1:])


# name -> experiment and extra settings.  The lasso defaults pin alpha2 by
# the screen on every fit; --gamma 1 and --d 3 reach the grid, the polish and
# the Newton step.
SMALL_RUNS = {
    **{experiment: (experiment,) for experiment in EXPERIMENTS},
    "lasso-gamma1": ("lasso", "--gamma", "1"),
    "lasso-d3": ("lasso", "--d", "3"),
}


@pytest.fixture(scope="module")
def small_runs(tmp_path_factory):
    """One small simulate run per experiment, counting covariance estimates
    made through any module that holds ``limits.estimate_kmeans_cov``."""
    calls = []
    real = limits.estimate_kmeans_cov

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    outs = {}
    with pytest.MonkeyPatch.context() as mp:
        for name, module in list(sys.modules.items()):
            if name.startswith("mixedrates") and getattr(module, "estimate_kmeans_cov", None) is real:
                mp.setattr(module, "estimate_kmeans_cov", counting)
        for name, (experiment, *setting) in SMALL_RUNS.items():
            out = tmp_path_factory.mktemp(experiment)
            argv = [
                "simulate", "--experiment", experiment, "--n-values", "100,200,400,800",
                "--replicates", "50", "--seed", "5", "--out-dir", str(out), *setting,
            ]
            assert run_cli(argv) == 0
            outs[name] = out
    return outs, len(calls)


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_every_record_error_is_a_number(small_runs, experiment):
    outs, _ = small_runs
    rows = (outs[experiment] / "records.csv").read_text().splitlines()[1:]
    assert len(rows) > 0
    for row in rows:
        float(row.split(",")[4])


def test_kmeans_covariance_never_estimated_in_summary(small_runs):
    # the limit draws use the exact covariance 4 I
    outs, cov_calls = small_runs
    summary = json.loads((outs["kmeans"] / "summary.json").read_text())
    assert len(summary["ks_vs_limit"]) == 4
    assert cov_calls == 0


def test_manifests_carry_environment(small_runs, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(
        acceptance, "_check_list",
        lambda tier, master_seed, workers: [acceptance.check_rate_calculus],
    )
    assert run_cli(["verify", "--quick", "--out-dir", str(tmp_path)]) == 0
    outs, _ = small_runs
    for path in (outs["kmeans"] / "manifest.json", tmp_path / "manifest.json"):
        manifest = json.loads(path.read_text())
        env = manifest["environment"]
        assert env["mixedrates"] == mixedrates.__version__
        assert env["numpy"] == np.__version__
        assert env["python"] == platform.python_version()
        assert env["cpu_count"] == os.cpu_count()
        assert env["platform"]
        assert env["git_revision"] is None or len(env["git_revision"]) >= 40
        peak = manifest["peak_rss_mb"]  # MiB, from getrusage
        assert list(peak) == ["self", "children"]
        assert peak["self"] > 1.0 and peak["children"] >= 0.0
    monkeypatch.setattr(cli, "resource", None)
    assert cli._manifest("verify", {"master_seed": 1}, "now")["peak_rss_mb"] is None


@pytest.fixture
def fresh_git_revision():
    """``_git_revision`` with its per-process cache emptied before and after."""
    cli._git_revision.cache_clear()
    yield
    cli._git_revision.cache_clear()


def test_git_revision_is_none_without_git_or_checkout(monkeypatch, fresh_git_revision):
    def missing(*args, **kwargs):
        raise FileNotFoundError("git")

    monkeypatch.setattr(cli.subprocess, "run", missing)
    assert cli._git_revision() is None
    cli._git_revision.cache_clear()
    outside = subprocess.CompletedProcess([], 128, stdout="", stderr="fatal: not a git repository")
    monkeypatch.setattr(cli.subprocess, "run", lambda *args, **kwargs: outside)
    assert cli._git_revision() is None
    assert cli._environment()["git_revision"] is None


def test_git_revision_is_read_once_per_process(monkeypatch, fresh_git_revision):
    calls = []
    head = subprocess.CompletedProcess([], 0, stdout="ab" * 20 + "\n", stderr="")

    def run(*args, **kwargs):
        calls.append(args)
        return head

    monkeypatch.setattr(cli.subprocess, "run", run)
    first, second = cli._environment(), cli._environment()
    assert first["git_revision"] == second["git_revision"] == "ab" * 20
    assert len(calls) == 1


# sha256 of every output of the small_runs fixture but manifest.json, which
# holds timestamps.  A change that moves any byte of them, summary.json key
# order included, fails here.
SMALL_RUN_DIGESTS = {
    "lasso": {
        "plotdata/alpha1_loglog.csv": "a85869be57b8858ef029aaba72114b18b4dab2551a5b6aae87d972d1417147a4",
        "plotdata/alpha1_rescaled_vs_limit.csv": "c02f5e558a558f8156fa6abadbf31eadaafba889fc03e77b0f3fad69d7fe8132",
        "records.csv": "c5912380af9c6cf27a2328b2ab41b31d5c07878fe977c9924873a10ab7318e22",
        "summary.json": "f76bd1b5103cc2202a4d9e57eb677673a525065f1bd836eff63acdca4394773e",
    },
    "shorth": {
        "plotdata/m_loglog.csv": "dfe1c603cd57921927be9d45aceb13cf11b2634e7effa62706d12dd38c60647d",
        "plotdata/m_rescaled_vs_limit.csv": "c909da6c67c38a5df2240fae672d25f090faa9517247ecbdc6d2fbd14023f221",
        "plotdata/r_loglog.csv": "ac97d92b768b722a484fa0af990bb4571f86b157d108f5f0b4c4f176fc79193f",
        "plotdata/r_rescaled_vs_limit.csv": "aa1c904b29f4f68450a4258c3a8bd7913ec1416257299bc854b557f0568d84bf",
        "records.csv": "8a83613a3dea87c950e5564d0efae4b0df0561436fa9a7076a9ec21a0051a43f",
        "summary.json": "97d38460d8daeece4a6be71f9a2639db75915188cb7a4e8d4e6653928cf78e6d",
    },
    "kmeans": {
        "plotdata/delta_d_loglog.csv": "753d49fe84e15f8b4c8a147354a2e89aa1162f15301efdbe050e84338e54f9fa",
        "plotdata/delta_d_rescaled_vs_limit.csv": "9f8d58270c3d85fedb770929a6daa896031410e08db9d2b62c95396452519e24",
        "plotdata/delta_s_loglog.csv": "c7f84a858387648b57065a4de24f082ff4b7e1896f4931645cc2858f741c445e",
        "plotdata/delta_s_rescaled_vs_limit.csv": "0187a55143dbfa1d1ad54ec1ae3e8e352ac5468a44f28a4eaff67fdc7b16c155",
        "plotdata/eps_d_loglog.csv": "b5006d49ec08f557cda87795bf11372d62af74e227d753ff6465999b72ecfcd5",
        "plotdata/eps_d_rescaled_vs_limit.csv": "1df69e6fbda82af0c22f6699307a2c5269bcc48693cd89e7708c82918c11f56d",
        "plotdata/eps_s_loglog.csv": "45464ae7319b283582efc82b2f3b91d1f5e7e47b29523560b0d497a904eeb9f7",
        "plotdata/eps_s_rescaled_vs_limit.csv": "92c932c4247629bbde6c8946a2d3f073c16626125c40fb486365f81db8c78096",
        "records.csv": "148568a497d01e2a96b63865ba0593efc682dd21a672738f9ef50cefbac91249",
        "summary.json": "b52842fd11ef486353645b423456ab2ecaeb156d1b4caaa50eb43c75358c6105",
    },
    # the alpha1 limit law follows gamma: at gamma = 1 its mean is -3, not
    # -1.5, so the limit rows and ks_vs_limit (0.48 -> 0.12) moved; the
    # records and the log-log rows did not
    "lasso-gamma1": {
        "plotdata/alpha1_loglog.csv": "a79ab78c354482ee9b51d3cf1e11ab3ee3613fe8fddd9e22d255dedd17aad352",
        "plotdata/alpha1_rescaled_vs_limit.csv": "6ebb77302d1545849b7c1f13663b423fad887f653cd658fd506148ebff57ee45",
        "records.csv": "afcdceaccfb3758fd6b405bad652309e0516ef5fe471fd88511fa7911084dda2",
        "summary.json": "e3ee26e33e00cdead35021a8ba8a907b6a28c917de59177f94ebd889c0f986d7",
    },
    "lasso-d3": {
        "plotdata/alpha1_loglog.csv": "040ce6cb892a26fec18769a649f083e43a376a2e2e82e4f813d619ca9f6e7595",
        "plotdata/alpha1_rescaled_vs_limit.csv": "30779dcd81a9f7d40a1f461a87b0cfa67810e3815bb45f1e2fcf4615c6d8acbd",
        "records.csv": "3b75ff3650a0dfc116b7f3cd3fce99a25da61c8015d9d606637e96d12b1fda65",
        "summary.json": "35a194578ef86a89f3034f051b23926a7e9861eece9217d8ad7c8bf99130fe18",
    },
}


@pytest.mark.parametrize("run", SMALL_RUNS)
def test_small_run_outputs_are_byte_identical(small_runs, run):
    outs, _ = small_runs
    out = outs[run]
    digests = {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file() and path.name != "manifest.json"
    }
    assert digests == SMALL_RUN_DIGESTS[run]


def test_failed_replicate_left_out_of_plots_and_ks(monkeypatch, tmp_path, capsys):
    # a replicate that raises ends the run: exit 3, and no outputs
    shorth = EXPERIMENTS["shorth"]

    def run(params, master_seed, n, replicates):
        if n == 800 and 7 in replicates:
            raise DesignError("hit the box")
        return shorth.run_replicates(params, master_seed, n, replicates)

    monkeypatch.setitem(EXPERIMENTS, "shorth", dataclasses.replace(shorth, run_replicates=run))
    out = tmp_path / "shorth"
    argv = [
        "simulate", "--experiment", "shorth", "--n-values", "100,200,400,800",
        "--replicates", "50", "--seed", "5", "--out-dir", str(out),
    ]
    assert run_cli(argv) == 3
    assert "error: hit the box" in capsys.readouterr().err
    assert not (out / "records.csv").exists()


def _run_toy_replicates(params, master_seed, n, replicates):
    records = []
    for r in replicates:
        stream = SeedStream(master_seed, r * 100_000 + n)
        mean = float(stream.generator().standard_normal(n).mean())
        records.append(LadderRecord("toy", n, r, "mean", mean))
    return records


def _toy_law(params, master_seed, n, draws):
    return SeedStream(master_seed, 1).generator().standard_normal(draws)


def test_experiment_registered_only_in_the_registry_runs_end_to_end(
    monkeypatch, tmp_path, capsys
):
    # the sample mean of n standard normals: error rate n^(-1/2), limit N(0, 1)
    toy = Experiment(
        rates={"mean": Fraction(1, 2)},
        run_replicates=_run_toy_replicates,
        laws={"mean": _toy_law},
    )
    monkeypatch.setitem(EXPERIMENTS, "toy", toy)
    out = tmp_path / "toy"
    argv = [
        "simulate", "--experiment", "toy", "--n-values", "100,200,400,800",
        "--replicates", "50", "--seed", "5", "--out-dir", str(out),
    ]
    assert run_cli(argv) == 0
    assert len((out / "records.csv").read_text().splitlines()) == 1 + 4 * 50
    summary = json.loads((out / "summary.json").read_text())
    rate = summary["rates"]["mean"]
    assert rate["target"] == "-1/2"
    assert abs(rate["slope"] + 0.5) < 0.15
    ks = summary["ks_vs_limit"]["mean"]
    assert (ks["empirical"], ks["limit_draws"]) == (50, 50)
    assert sorted(p.name for p in (out / "plotdata").iterdir()) == [
        "mean_loglog.csv", "mean_rescaled_vs_limit.csv"
    ]


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

    def test_lasso_first_draws_the_registry_law(self, monkeypatch, capsys):
        # the law simulate compares alpha1 with: a registry default moves it,
        # and the flags that once set it apart are gone
        lasso = EXPERIMENTS["lasso"]
        argv = ["limit", "--law", "lasso-first", "--draws", "50", "--seed", "5"]
        assert run_cli([*argv, "--stream-index", "3"]) == 0
        want = harness.lasso_alpha1_draws(lasso.resolve(None), SeedStream(5, 3), 50)
        rows = capsys.readouterr().out.splitlines()[1:]
        assert rows == [f"{i},{float(v)!r}" for i, v in enumerate(want)]
        assert run_cli(argv) == 0
        default = capsys.readouterr().out
        defaults = {**lasso.defaults, "gamma": 1.0}
        monkeypatch.setitem(EXPERIMENTS, "lasso", dataclasses.replace(lasso, defaults=defaults))
        assert run_cli(argv) == 0
        assert capsys.readouterr().out != default
        for flag in ("--c11", "--lambda0", "--sigma"):
            with pytest.raises(SystemExit) as exc:
                run_cli([*argv, flag, "1"])
            assert exc.value.code == 2

    def test_dump_two_line(self, capsys):
        assert run_cli(["limit", "--dump-sample", "two-line", "--draws", "4", "--seed", "7"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "index,x,y"
        assert all(line.split(",")[1] in ("-1.0", "1.0") for line in lines[1:])

    @pytest.mark.parametrize(
        "argv, digest",
        [
            ("--law kmeans --draws 2000 --seed 1729",
             "0ef5a258ef60ce6b3073ba58bec2a45885f4121ead064fc17a1adfac354c23a1"),
            ("--dump-sample two-line --draws 1000 --seed 7",
             "7c8cc6050b0d3aa60068e9ca0c058c94e640aa0b0d9604297a79879ff1494e9e"),
            ("--law chernoff --draws 500 --seed 1729",
             "e4deee05d11d5459f0e0f0e10e894b45a8bb176c7b797144958912829185cc35"),
        ],
    )
    def test_outputs_are_pinned(self, capsys, argv, digest):
        # sha256 of the whole stdout, header and every digit of every draw
        assert run_cli(["limit", *argv.split()]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "horizon, step, error", [("1", "0.3", "not integral"), ("inf", "1", "T < inf")]
    )
    def test_bad_grid_exits_3(self, capsys, horizon, step, error):
        argv = ["limit", "--law", "chernoff", "--horizon", horizon, "--step", step]
        assert run_cli(argv) == 3
        assert error in capsys.readouterr().err

    def test_boundary_hit_exits_3(self, capsys):
        argv = ["limit", "--law", "chernoff", "--horizon", "0.5", "--draws", "200"]
        assert run_cli(argv) == 3
        assert "enlarge T" in capsys.readouterr().err

    @pytest.mark.parametrize("draws", ["0", "-3"])
    @pytest.mark.parametrize(
        "source",
        [
            ["--law", "chernoff"],
            ["--law", "lasso-first"],
            ["--law", "kmeans"],
            ["--dump-sample", "two-line"],
        ],
        ids=lambda a: a[1],
    )
    def test_fewer_than_one_draw_exits_3(self, tmp_path, capsys, source, draws):
        out = tmp_path / "draws.csv"
        assert run_cli(["limit", *source, "--draws", draws, "--out", str(out)]) == 3
        assert f"--draws must be >= 1, got {draws}" in capsys.readouterr().err
        assert not out.exists()

    def test_law_and_dump_are_exclusive(self, capsys):
        assert run_cli(["limit", "--law", "chernoff", "--dump-sample", "two-line"]) == 2
        assert run_cli(["limit"]) == 2

    def test_kmeans_ignores_cov_samples(self, tmp_path, capsys):
        # Sigma is exact: the old flag still parses and changes nothing
        plain, flagged = tmp_path / "plain.csv", tmp_path / "flagged.csv"
        argv = ["limit", "--law", "kmeans", "--draws", "20", "--seed", "5"]
        assert run_cli([*argv, "--out", str(plain)]) == 0
        assert run_cli([*argv, "--cov-samples", "2000000", "--out", str(flagged)]) == 0
        assert flagged.read_bytes() == plain.read_bytes()
        lines = plain.read_text().splitlines()
        assert lines[0] == "index,delta_s,eps_d,delta_d,eps_s"
        assert len(lines) == 21

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

    def test_manifest_keeps_measured_values_whole(self, monkeypatch, tmp_path, capsys):
        # the manifest writes every float so that it round-trips by repr;
        # only summary.json rounds to 6 significant figures
        measured = {
            "ks": 0.0123456789012345,
            "slopes": {"m": np.float64(-1.0 / 3.0)},
            "fractions": [(250, 0.8765432109876543)],
            "instances": 24,
        }
        monkeypatch.setattr(
            cli, "run_all",
            lambda tier, master_seed, workers, progress: [CheckResult("a", True, measured, "t")],
        )
        assert run_cli(["verify", "--quick", "--out-dir", str(tmp_path)]) == 0
        written = json.loads((tmp_path / "manifest.json").read_text())["checks"][0]["measured"]
        assert repr(written) == repr({
            "ks": 0.0123456789012345,
            "slopes": {"m": -0.3333333333333333},
            "fractions": [[250, 0.8765432109876543]],
            "instances": 24,
        })

    def test_manifest_records_check_wall_times(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(
            acceptance, "_check_list",
            lambda tier, master_seed, workers: [acceptance.check_rate_calculus],
        )
        assert run_cli(["verify", "--quick", "--out-dir", str(tmp_path)]) == 0
        checks = json.loads((tmp_path / "manifest.json").read_text())["checks"]
        assert len(checks) == 1
        assert checks[0]["wall_s"] > 0.0

    @pytest.mark.parametrize("threads", ["0", "-4"])
    def test_fewer_than_one_worker_exits_3(self, tmp_path, capsys, threads):
        argv = ["verify", "--quick", "--threads", threads, "--out-dir", str(tmp_path / "v")]
        assert run_cli(argv) == 3
        assert f"must be >= 1, got {threads}" in capsys.readouterr().err
        assert not (tmp_path / "v").exists()

    @pytest.mark.parametrize("threads", ["0", "-4"])
    def test_fewer_than_one_worker_runs_no_check(self, capsys, threads):
        assert run_cli(["verify", "--quick", "--threads", threads]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"workers (--threads) must be >= 1, got {threads}" in captured.err

    def test_tiers_are_exclusive(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["verify", "--quick", "--full"])
        assert exc.value.code == 2


def test_every_package_exception_is_a_value_error():
    # main turns a ValueError into exit 3; anything else would be a traceback
    classes = [
        obj
        for info in pkgutil.walk_packages(mixedrates.__path__, "mixedrates.")
        for obj in vars(importlib.import_module(info.name)).values()
        if isinstance(obj, type)
        and issubclass(obj, BaseException)
        and obj.__module__ == info.name
    ]
    names = {c.__name__ for c in classes}
    assert names >= {"BoundaryHitError", "ConfigError", "DesignError", "RateSpecError"}
    assert [c for c in classes if not issubclass(c, ValueError)] == []


def test_every_export_resolves():
    # a stale name in a module's __all__ breaks ``from module import *``
    for info in pkgutil.walk_packages(mixedrates.__path__, "mixedrates."):
        exec(f"from {info.name} import *", {})


def test_help_documents_exit_codes(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "exit codes" in out
    assert "verification failed" in out
