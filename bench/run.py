"""Benchmark of the mixedrates Monte Carlo laboratory.

    python3 bench/run.py --workload lasso-ladder|kmeans-ladder|law-checks
                         [--seed 1729] [--seconds 20] [--trace 0|1]

Run from the root of a source checkout: the program is imported from
``src/``.  Untraced (``--trace 0``), the run repeats whole rounds of the
workload while another round still fits in ``--seconds`` (at least one) and
reports the median round.  Traced (``--trace 1``), it runs one untraced
round, then one round with spans around the program's public functions, and
reports per-layer figures and the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import mixedrates
    from there, never from anywhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import mixedrates.cli  # noqa: F401  (imports every layer)
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import mixedrates from {src}: {exc}")
    import mixedrates

    if not Path(mixedrates.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"bench: mixedrates came from {mixedrates.__file__}, not {src}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("lasso-ladder", "kmeans-ladder", "law-checks"))
    p.add_argument("--seed", type=int, default=1729, help="workload seed (default %(default)s)")
    p.add_argument("--seconds", type=float, default=20.0, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def measure_setup(args) -> float:
    """Median wall time of fresh interpreters that import the program and
    build the workload's inputs, then exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"bench: set-up probe failed: {proc.stderr.decode()[-2000:]}")
    return statistics.median(times)


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def timed_round(workload, k: int) -> tuple[dict, float, float]:
    cpu0, t0 = _cpu_s(), time.perf_counter()
    res = workload.run(k)
    return res, time.perf_counter() - t0, _cpu_s() - cpu0


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import_program()
    from spans import Instruments, Tally, layer_metrics
    from workloads import WORKLOADS

    work = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, work)
    if args.setup_probe:
        return 0
    setup_s = measure_setup(args) if not args.trace else None

    tally = Tally()
    results, walls, cpus = [], [], []
    accounting = Instruments(trace=False, tally=tally)
    try:
        accounting.install()
        start = time.perf_counter()
        while True:
            res, wall, cpu = timed_round(workload, len(results))
            results.append(res)
            walls.append(wall)
            cpus.append(cpu)
            if args.trace or time.perf_counter() - start + wall > args.seconds:
                break
        accounting.uninstall()
        if args.trace:
            tracer = Instruments(trace=True, tally=tally)
            tracer.phase = "round"
            tracer.install()
            res, traced_wall, _ = timed_round(workload, len(results))
            results.append(res)
            if hasattr(workload, "pool_cells"):
                from mixedrates import harness

                tracer.tally, tracer.phase = None, "single-process"
                harness.run_cells(*workload.pool_cells())
            tracer.uninstall()
        peak_rss_mb = _peak_rss_mb()

        for res in results:
            workload.check(res, tally)
    finally:
        accounting.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    for msg in tally.failures:
        print(f"FAILED: {msg}")
    if args.trace:
        covered = tracer.top_level_s("round")
        print(f"trace: untraced round {walls[0]:.3f} s, traced round {traced_wall:.3f} s, "
              f"overhead {traced_wall - walls[0]:+.3f} s "
              f"({100 * (traced_wall / walls[0] - 1):+.1f}%); "
              f"top-level spans cover {100 * covered / traced_wall:.1f}% of the traced round")
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "untraced_wall_s": walls[0], "traced_wall_s": traced_wall,
            "spans": tracer.as_json(),
        }) + "\n")
        print(f"trace: spans written to {trace_file.relative_to(ROOT)}")
        metrics = layer_metrics(tracer, "round", "single-process")
    else:
        print(f"rounds: {len(walls)}, wall_s {[round(w, 3) for w in walls]}")
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
