"""Command-line front end: rate calculus queries, Monte Carlo experiment
runs, limit-law sampling, and the acceptance suite.

A ``simulate`` run is a ``harness.LadderConfig`` plus a worker count.  Each
of its settings, and each parameter in the experiment registry, is one
config-file key and one flag read with one converter (``_settings``).

Exit codes: 0 success, 2 usage error, 3 invalid configuration or runtime
failure, 4 verification failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import platform
import subprocess
import sys
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import numpy as np

from . import __version__
from .acceptance import DEFAULT_SEED, TIERS, run_all
from .distributions import SeedStream
from .harness import (
    ERROR_SUMMARIES,
    EXPERIMENTS,
    LadderConfig,
    compare_with_limit,
    fit_rate,
    lasso_alpha1_draws,
    records_to_csv_lines,
    run_ladder,
)
from .limits import (
    ChernoffConfig, kmeans_two_line_sample, sample_chernoff_argmax, sample_kmeans_limit
)
from .rates import RateSpec, RateSpecError, derive_rates, parse_fraction

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_VERIFY = 4

_EPILOG = """\
exit codes:
  0  success
  2  usage error (unknown flags or malformed arguments)
  3  invalid configuration or runtime failure
  4  verification failed (one or more acceptance checks red)
"""


class ConfigError(ValueError):
    pass


@functools.cache
def _git_revision() -> str | None:
    """HEAD of the checkout this package was loaded from, or None when git
    is missing or the package does not sit in a git checkout.  Read once per
    process: every manifest a process writes names the same checkout."""
    try:
        proc = subprocess.run(
            ["git", "-C", str(Path(__file__).resolve().parent), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def _environment() -> dict:
    return {
        "mixedrates": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "git_revision": _git_revision(),
    }


def _manifest(command: str, config: dict, started: str, checks=(), outputs=()) -> dict:
    """The ``manifest.json`` of a run, finished now: everything needed to
    reproduce it bit-for-bit on the same build (``config`` holds its
    ``master_seed``), plus per-check outcomes when the run was a
    verification.  Floats in ``config`` and ``checks`` are kept whole."""
    return {
        "version": __version__,
        "environment": _environment(),
        "command": command,
        "config": _jsonable(config, float),
        "master_seed": config["master_seed"],
        "started": started,
        "finished": _utcnow(),
        "peak_rss_mb": _peak_rss_mb(),
        "checks": _jsonable(list(checks), float),
        "outputs": list(outputs),
    }


def _peak_rss_mb() -> dict | None:
    """Peak resident set size so far, in MiB, of this process ("self") and of
    the largest of its children that have been waited for ("children"), such
    as the pool workers; None where ``resource`` is missing."""
    if resource is None:
        return None
    unit = 2**20 if sys.platform == "darwin" else 2**10  # ru_maxrss: bytes or KiB
    return {
        who: resource.getrusage(flag).ru_maxrss / unit
        for who, flag in (("self", resource.RUSAGE_SELF), ("children", resource.RUSAGE_CHILDREN))
    }


def _sig6(x: float) -> float:
    """Round for report output; raw CSV keeps full precision."""
    if x == 0 or not math.isfinite(x):
        return x
    return float(f"{x:.6g}")


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


# ---------------------------------------------------------------------------
# simulate settings: each is the config-file key <key> and the flag --<key>
# with "_" written as "-" (master_seed is --seed), read with one converter


def _ladder(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.replace(",", " ").split())


# key -> (converter, flag help); everything but threads is a LadderConfig field
_RUN_SETTINGS = {
    "experiment": (str, "experiment to run"),
    "n_values": (_ladder, "comma-separated ladder, e.g. 250,500,1000,2000"),
    "replicates": (int, "replicates per ladder point"),
    "master_seed": (int, f"master seed (default {DEFAULT_SEED})"),
    "summary": (
        str,
        f"error aggregate for rate fits, one of {', '.join(ERROR_SUMMARIES)} "
        f"(default {LadderConfig.summary})",
    ),
    "threads": (int, "worker processes (default 1)"),
}


def _settings() -> dict:
    """``_RUN_SETTINGS`` and every registry parameter, read as the type of
    its default.  Built at call time, so the parser and the config file see
    the registry as it is then."""
    table = dict(_RUN_SETTINGS)
    for name, exp in EXPERIMENTS.items():
        for key, default in exp.defaults.items():
            table.setdefault(key, (type(default), f"{name} parameter (default {default})"))
    return table


def parse_config_file(path: Path) -> dict:
    settings = _settings()
    values: dict = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in settings:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = settings[key][0](val)
    return values


# ---------------------------------------------------------------------------
# subcommand: rates


def _cmd_rates(args) -> int:
    terms = []
    for term in args.term or []:
        g, _, e = term.partition(":")
        if not e:
            raise RateSpecError(f"term {term!r} must look like gamma:eta, e.g. 2:1")
        terms.append((parse_fraction(g), parse_fraction(e)))
    spec = RateSpec(parse_fraction(args.alpha), parse_fraction(args.beta), terms)
    result = derive_rates(spec)
    out = {"alpha": str(spec.alpha), "beta": str(spec.beta)}
    out.update(result.as_dict())
    print(json.dumps(out, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommand: simulate


def summarize(records, cfg: LadderConfig) -> tuple[dict, dict]:
    """Summary statistics plus plot-ready arrays; the rate fits aggregate
    errors by ``cfg.summary``.

    Returns (summary dict, plotdata dict of name -> list of rows).
    """
    exp = EXPERIMENTS[cfg.experiment]
    top_n = cfg.n_values[-1]
    # the config's fields, with its summary kind written as error_summary
    summary = dataclasses.asdict(cfg)
    summary["error_summary"] = summary.pop("summary")
    summary.update(rates={}, ks_vs_limit={})
    plotdata: dict = {}
    extras, collapsed = exp.summaries(records, cfg.n_values)
    summary.update(_jsonable(extras))

    for comp, exponent in exp.rates.items():
        if comp in collapsed:
            summary["rates"][comp] = {"status": "collapsed to 0"}
            continue
        est = fit_rate(records, comp, cfg.summary, exclude_zero_flagged=comp in exp.sparse)
        summary["rates"][comp] = {
            "slope": _sig6(est.slope),
            "slope_se": _sig6(est.slope_se),
            "intercept": _sig6(est.intercept),
            "n_range": [est.points[0][0], est.points[-1][0]],
            "target": str(-exponent),
        }
        rows = [("log_n", f"log_{cfg.summary.replace('-', '_')}_error")]
        rows += [(repr(math.log(n)), repr(math.log(v))) for n, v in est.points]
        plotdata[f"{comp}_loglog"] = rows

        # distributional comparison at the top rung, one limit draw per
        # replicate
        if comp not in exp.laws:
            continue
        law = compare_with_limit(
            cfg.experiment, records, comp, top_n, cfg.master_seed, cfg.replicates, cfg.params
        )
        summary["ks_vs_limit"][comp] = {
            "n": top_n,
            "rescale_exponent": str(exponent),
            "ks": _sig6(law.ks),
            "empirical": law.rescaled.size,
            "limit_draws": int(law.draws.size),
        }
        rows = [("kind", "value")]
        rows += [("empirical", repr(float(v))) for v in law.rescaled]
        rows += [("limit", repr(float(v))) for v in law.draws]
        plotdata[f"{comp}_rescaled_vs_limit"] = rows
    return summary, plotdata


def _write_outputs(out_dir: Path, records, summary, plotdata, manifest) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "records.csv").write_text("\n".join(records_to_csv_lines(records)) + "\n")
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    plot_dir = out_dir / "plotdata"
    plot_dir.mkdir(exist_ok=True)
    for name, rows in plotdata.items():
        lines = [",".join(str(c) for c in row) for row in rows]
        (plot_dir / f"{name}.csv").write_text("\n".join(lines) + "\n")


def _cmd_simulate(args) -> int:
    # values from the config file, overridden by every flag given
    settings = {"experiment": None, "n_values": (), "replicates": 0,
                "master_seed": DEFAULT_SEED, "threads": 1}
    if args.config:
        settings.update(parse_config_file(Path(args.config)))
    settings.update((k, v) for k in _settings() if (v := getattr(args, k)) is not None)
    threads = settings.pop("threads")
    params = {k: settings.pop(k) for k in list(settings) if k not in _RUN_SETTINGS}
    cfg = LadderConfig(**settings, params=params)
    started = _utcnow()
    records = run_ladder(cfg, workers=threads)
    summary, plotdata = summarize(records, cfg)
    manifest = _manifest(
        "simulate", {**dataclasses.asdict(cfg), "threads": threads}, started,
        outputs=["records.csv", "summary.json", "plotdata/"],
    )
    out_dir = Path(args.out_dir)
    _write_outputs(out_dir, records, summary, plotdata, manifest)
    print(f"wrote {len(records)} records to {out_dir}/records.csv")
    for comp, entry in summary["rates"].items():
        if "slope" in entry:
            print(f"  {comp}: slope {entry['slope']} (target {entry['target']})")
        else:
            print(f"  {comp}: {entry['status']}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommand: limit


def _cmd_limit(args) -> int:
    if args.draws < 1:
        raise ValueError(f"--draws must be >= 1, got {args.draws}")
    stream = SeedStream(args.seed, args.stream_index)
    if args.dump_sample:
        # x is the line (+/-1), y the double exponential along it
        pts = kmeans_two_line_sample(args.draws, stream)
        rows = [("index", "x", "y")] + [
            (i, repr(float(x)), repr(float(y))) for i, (y, x) in enumerate(pts)
        ]
    else:
        rows = _limit_rows(args, stream)
    text = "\n".join(",".join(str(c) for c in row) for row in rows) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {len(rows) - 1} rows to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _limit_rows(args, stream):
    if args.law == "chernoff":
        cfg = ChernoffConfig(c1=args.c1, c2=args.c2, T=args.horizon, h=args.step,
                             paths=args.draws)
        draws = sample_chernoff_argmax(cfg, stream)
        return [("index", "t")] + [(i, repr(float(v))) for i, v in enumerate(draws)]
    if args.law == "lasso-first":
        # the law simulate compares alpha1 with, at the registry's defaults
        draws = lasso_alpha1_draws(EXPERIMENTS["lasso"].resolve(None), stream, args.draws)
        return [("index", "u")] + [(i, repr(float(v))) for i, v in enumerate(draws)]
    # --law kmeans, the last of the parser's choices
    draws = sample_kmeans_limit(stream, args.draws)
    rows = [("index", "delta_s", "eps_d", "delta_d", "eps_s")]
    rows += [(i, *(repr(float(v)) for v in row)) for i, row in enumerate(draws)]
    return rows


# ---------------------------------------------------------------------------
# subcommand: verify


def _cmd_verify(args) -> int:
    tier = TIERS["full" if args.full else "quick"]
    started = _utcnow()
    results = run_all(tier, master_seed=args.seed, workers=args.threads, progress=print)
    ok = all(r.passed for r in results)
    if args.out_dir:
        manifest = _manifest(
            "verify",
            {"tier": tier.name, "master_seed": args.seed, "threads": args.threads},
            started,
            checks=[
                {
                    "name": r.name,
                    "passed": r.passed,
                    "threshold": r.threshold,
                    "measured": r.measured,
                    "wall_s": r.wall_s,
                }
                for r in results
            ],
        )
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    n_pass = sum(r.passed for r in results)
    print(f"{n_pass}/{len(results)} checks passed ({tier.name} tier, seed {args.seed})")
    return EXIT_OK if ok else EXIT_VERIFY


def _jsonable(obj, real=_sig6):
    """``obj`` with numpy scalars and fractions made JSON-ready and every float
    passed through ``real``: rounded to 6 significant figures by default (the
    summary), kept whole with ``float`` (the manifest, whose values round-trip
    by ``repr``)."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, dict):
        return {str(k): _jsonable(v, real) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v, real) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return real(float(obj))
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    return obj


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixedrates",
        description=__doc__.splitlines()[0],
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"mixedrates {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_rates = sub.add_parser(
        "rates", help="derive the two-block rate exponents of an exponent profile"
    )
    p_rates.add_argument("--alpha", required=True, help="slow-block degree, e.g. 3 or 7/2")
    p_rates.add_argument("--beta", required=True, help="fast-block degree (1 < beta < alpha)")
    p_rates.add_argument(
        "--term",
        action="append",
        metavar="GAMMA:ETA",
        help="cross-term degrees as fractions, e.g. 2:1 (repeatable)",
    )
    p_rates.set_defaults(func=_cmd_rates)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo ladder and write reports")
    p_sim.add_argument("--config", help="flat 'key = value' config file (# comments allowed)")
    for key, (convert, help_text) in _settings().items():
        flag = "--seed" if key == "master_seed" else "--" + key.replace("_", "-")
        # an experiment not in the registry is a usage error on the command line
        choices = EXPERIMENTS if key == "experiment" else None
        p_sim.add_argument(flag, dest=key, type=convert, choices=choices, help=help_text)
    p_sim.add_argument("--out-dir", default="out", help="output directory (default %(default)s)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_lim = sub.add_parser("limit", help="sample a limiting law (or dump raw source draws)")
    p_lim.add_argument("--law", choices=("chernoff", "lasso-first", "kmeans"))
    p_lim.add_argument(
        "--dump-sample",
        choices=("two-line",),
        help="emit raw draws of the two-line law (x, y) instead of a limit law",
    )
    p_lim.add_argument("--draws", type=int, default=1000)
    p_lim.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_lim.add_argument("--stream-index", type=int, default=0)
    p_lim.add_argument("--out", help="output CSV path (default: stdout)")
    p_lim.add_argument("--c1", type=float, default=1.0, help="squared diffusion scale")
    p_lim.add_argument(
        "--c2",
        type=float,
        default=-1.0,
        help=(
            "concave drift coefficient: the sampled objective is "
            "c2*t^2 + sqrt(c1)*B(t).  (Some treatments print the drift as the "
            "linear c2*t; with c2 < 0 that objective has no finite argmax, so "
            "the quadratic form from the coverage expansion is used here.)"
        ),
    )
    p_lim.add_argument("--horizon", type=float, help="grid horizon T (default: auto)")
    p_lim.add_argument("--step", type=float, help="grid step h (default: T/1000)")
    # Sigma is exact (KMEANS_SIGMA), so nothing estimates it: the flag is
    # accepted for old command lines (bench/workloads.py still passes it)
    # and ignored
    p_lim.add_argument("--cov-samples", type=int, help=argparse.SUPPRESS)
    p_lim.set_defaults(func=_cmd_limit)

    p_ver = sub.add_parser("verify", help="run the acceptance checks")
    tier_group = p_ver.add_mutually_exclusive_group()
    tier_group.add_argument("--quick", action="store_true", help="reduced-scale tier (default)")
    tier_group.add_argument(
        "--full", action="store_true",
        help="binding thresholds, 10-12 s at --threads 2 on 2 cores",
    )
    p_ver.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_ver.add_argument("--threads", type=int, default=1)
    p_ver.add_argument("--out-dir", help="write a manifest.json with per-check results")
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "limit" and bool(args.law) == bool(args.dump_sample):
        print("error: pass exactly one of --law or --dump-sample", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
