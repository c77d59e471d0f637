"""Spans recorded from outside the program, around calls into its layers.

``Instruments.install`` replaces a public function of mixedrates with a
wrapper in every loaded ``mixedrates`` module that holds a reference to it, so
calls made through any import path are seen; ``uninstall`` puts the originals
back.  Spans stay in memory and are written once, at the end of a run.

The ``harness.run_cells`` wrapper also counts replicates and ``failed:``
flags in the records it returns.  That accounting is installed in untraced
runs too: it reads the return value and takes no time stamps.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from dataclasses import dataclass, field

# Span name -> (defining module, function).  The name's first part is the
# layer; the three distributions samplers are attributed to ``distributions``
# although kmeans_two_line_sample and generate_lasso_design live in limits and
# estimators, because they only draw the inputs.
TARGETS = {
    "estimators.fit_bridge_lasso": ("mixedrates.estimators.lasso", "fit_bridge_lasso"),
    "estimators.fit_kmeans2_global": ("mixedrates.estimators.kmeans", "fit_kmeans2_global"),
    "estimators.fit_shorth": ("mixedrates.estimators.shorth", "fit_shorth"),
    "distributions.generate_lasso_design": ("mixedrates.estimators.lasso", "generate_lasso_design"),
    "distributions.kmeans_two_line_sample": ("mixedrates.limits", "kmeans_two_line_sample"),
    "distributions.sample_gaussian_vector": ("mixedrates.distributions", "sample_gaussian_vector"),
    "harness.run_cells": ("mixedrates.harness", "run_cells"),
    "harness.stats.ks_two_sample": ("mixedrates.harness", "ks_two_sample"),
    "harness.stats.fit_rate": ("mixedrates.harness", "fit_rate"),
    "harness.stats.zero_fraction": ("mixedrates.harness", "zero_fraction"),
    "limits.sample_chernoff_argmax": ("mixedrates.limits", "sample_chernoff_argmax"),
    "limits.sample_shorth_r_limit": ("mixedrates.limits", "sample_shorth_r_limit"),
    "limits.sample_lasso_limits": ("mixedrates.limits", "sample_lasso_limits"),
    "limits.sample_kmeans_limit": ("mixedrates.limits", "sample_kmeans_limit"),
    "limits.estimate_kmeans_cov": ("mixedrates.limits", "estimate_kmeans_cov"),
    "cli.main": ("mixedrates.cli", "main"),
    "cli.summarize": ("mixedrates.cli", "summarize"),
    "acceptance.check_shorth_r_law": ("mixedrates.acceptance", "check_shorth_r_law"),
    "acceptance.check_shorth_m_law": ("mixedrates.acceptance", "check_shorth_m_law"),
}

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("estimators.fit_bridge_lasso.ms", "ms", "lower"),
    ("estimators.fit_bridge_lasso.self_s", "s", "lower"),
    ("estimators.fit_kmeans2_global.ms_top_n", "ms", "lower"),
    ("estimators.fit_kmeans2_global.self_s", "s", "lower"),
    ("estimators.fit_shorth.self_s", "s", "lower"),
    ("distributions.self_s", "s", "lower"),
    ("harness.run_cells.self_s", "s", "lower"),
    ("harness.run_cells.replicates", "count", "lower"),
    ("harness.pool_efficiency", "ratio", "higher"),
    ("harness.stats.self_s", "s", "lower"),
    ("limits.sample_chernoff_argmax.ms_per_path", "ms", "lower"),
    ("limits.sample_shorth_r_limit.self_s", "s", "lower"),
    ("limits.sample_kmeans_limit.ms_per_draw", "ms", "lower"),
    ("limits.sample_kmeans_limit.calls", "count", "lower"),
    ("limits.estimate_kmeans_cov.self_s", "s", "lower"),
    ("limits.estimate_kmeans_cov.calls", "count", "lower"),
    ("cli.summarize.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("acceptance.check_shorth_r_law.s", "s", "lower"),
    ("acceptance.check_shorth_m_law.s", "s", "lower"),
]


@dataclass
class Span:
    name: str
    phase: str
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


@dataclass
class Tally:
    """Operations attempted and failed, with one message per failure.
    ``known`` counts failures of a fault the benchmark names (see
    README.md): they count as failed but leave the run correct."""

    attempted: int = 0
    failed: int = 0
    known: int = 0
    failures: list = field(default_factory=list)

    def add(self, ok: bool, what: str, known: bool = False) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.known += known
            self.failures.append(("known fault: " if known else "") + what)

    @property
    def correct(self) -> bool:
        return self.failed == self.known


def _attrs_for(name: str, bound: inspect.BoundArguments, result) -> dict:
    """Sizes the metrics need, read from a call's arguments and result."""
    if name == "estimators.fit_kmeans2_global":
        return {"n": int(bound.arguments["sample"].shape[0])}
    if name == "harness.run_cells":
        return {"workers": int(bound.arguments.get("workers", 1))}
    if name in ("limits.sample_chernoff_argmax", "limits.sample_kmeans_limit"):
        return {"draws": int(len(result))}
    return {}


class Instruments:
    """Wrappers around the program's public functions.

    With ``trace=False`` only the run_cells accounting is installed; it adds
    to ``tally`` unless that is None.  ``phase`` labels the spans recorded
    from then on.
    """

    def __init__(self, trace: bool, tally: Tally | None):
        self.trace = trace
        self.tally = tally
        self.spans: list[Span] = []
        self.phase = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        names = TARGETS if self.trace else ["harness.run_cells"]
        for name in names:
            mod_name, fn_name = TARGETS[name]
            original = getattr(sys.modules[mod_name], fn_name)
            wrapper = self._wrap(name, original)
            for mod_key, mod in list(sys.modules.items()):
                if mod_key.split(".")[0] != "mixedrates":
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.trace:
                result = fn(*args, **kwargs)
                self._count_records(result)
                return result
            parent = self._stack[-1] if self._stack else None
            span = Span(name, self.phase, parent, time.perf_counter())
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent].child_s += span.dur
            span.attrs = _attrs_for(name, signature.bind(*args, **kwargs), result)
            if name == "harness.run_cells":
                span.attrs.update(self._count_records(result))
            return result

        return wrapper

    def _count_records(self, records) -> dict:
        """Replicates and failed replicates in one run_cells result.  A
        replicate fails when its records carry a ``failed:`` flag; run_cells
        itself lets up to 1% of them through."""
        by_cell: dict = {}
        for rec in records:
            key = (rec.n, rec.replicate)
            by_cell[key] = by_cell.get(key, False) or rec.diag_flags.startswith("failed:")
        if self.tally is not None:
            for (n, r), failed in sorted(by_cell.items()):
                self.tally.add(not failed, f"replicate n={n} r={r} flagged failed")
        return {"replicates": len(by_cell), "failed": sum(by_cell.values())}

    # -- summaries -------------------------------------------------------

    def select(self, phase: str, prefix: str = "") -> list[Span]:
        return [s for s in self.spans if s.phase == phase and s.name.startswith(prefix)]

    def top_level_s(self, phase: str) -> float:
        return sum(s.dur for s in self.select(phase) if s.parent is None)

    def as_json(self) -> list[dict]:
        return [
            {
                "id": i,
                "name": s.name,
                "phase": s.phase,
                "parent": s.parent,
                "start": s.start,
                "end": s.end,
                "self_s": s.self_s,
                **s.attrs,
            }
            for i, s in enumerate(self.spans)
        ]


def _self(spans) -> float:
    return float(sum(s.self_s for s in spans))


def _median_ms(spans) -> float:
    return 1e3 * statistics.median(s.dur for s in spans) if spans else 0.0


def _ms_per_draw(spans) -> float:
    draws = sum(s.attrs.get("draws", 0) for s in spans)
    return 1e3 * sum(s.dur for s in spans) / draws if draws else 0.0


def layer_metrics(ins: Instruments, round_phase: str, pool_phase: str) -> dict:
    """Per-layer figures from the traced round, plus the in-process pass of
    the pooled run_cells cells recorded under ``pool_phase`` (if any).

    Self times of code that ran in pool workers are not visible in this
    process, so fit_shorth and run_cells self times come from in-process
    run_cells calls only: the round's own on the ladders, the single-process
    pass on law-checks.  A metric of a layer the workload does not call
    reads 0.
    """
    def sel(prefix, phase=round_phase):
        return ins.select(phase, prefix)

    cells = sel("harness.run_cells")
    pooled = [s for s in cells if s.attrs.get("workers", 1) > 1]
    single = sel("harness.run_cells", pool_phase)
    in_process = [s for s in cells if s.attrs.get("workers", 1) <= 1] + single
    # Spans under a pooled run_cells ran in the workers and are not recorded
    # here, so every estimator or distributions span in these phases ran
    # in-process.
    def inner(prefix):
        return sel(prefix) + sel(prefix, pool_phase)

    if pooled and single:
        workers = pooled[0].attrs["workers"]
        efficiency = statistics.median(s.dur for s in single) / (
            workers * statistics.median(s.dur for s in pooled)
        )
    else:
        efficiency = 1.0  # one process does all the work

    kmeans = sel("estimators.fit_kmeans2_global")
    top_n = max((s.attrs.get("n", 0) for s in kmeans), default=0)
    sample_kmeans = sel("limits.sample_kmeans_limit")
    cov = sel("limits.estimate_kmeans_cov")
    values = {
        "estimators.fit_bridge_lasso.ms": _median_ms(sel("estimators.fit_bridge_lasso")),
        "estimators.fit_bridge_lasso.self_s": _self(sel("estimators.fit_bridge_lasso")),
        "estimators.fit_kmeans2_global.ms_top_n": _median_ms(
            [s for s in kmeans if s.attrs.get("n") == top_n]
        ),
        "estimators.fit_kmeans2_global.self_s": _self(kmeans),
        "estimators.fit_shorth.self_s": _self(inner("estimators.fit_shorth")),
        "distributions.self_s": _self(inner("distributions.")),
        "harness.run_cells.self_s": _self(in_process),
        "harness.run_cells.replicates": sum(s.attrs.get("replicates", 0) for s in cells),
        "harness.pool_efficiency": efficiency,
        "harness.stats.self_s": _self(sel("harness.stats.")),
        "limits.sample_chernoff_argmax.ms_per_path": _ms_per_draw(
            sel("limits.sample_chernoff_argmax")
        ),
        "limits.sample_shorth_r_limit.self_s": _self(sel("limits.sample_shorth_r_limit")),
        "limits.sample_kmeans_limit.ms_per_draw": _ms_per_draw(sample_kmeans),
        "limits.sample_kmeans_limit.calls": len(sample_kmeans),
        "limits.estimate_kmeans_cov.self_s": _self(cov),
        "limits.estimate_kmeans_cov.calls": len(cov),
        "cli.summarize.self_s": _self(sel("cli.summarize")),
        "cli.main.self_s": _self(sel("cli.main")),
        "acceptance.check_shorth_r_law.s": sum(
            s.dur for s in sel("acceptance.check_shorth_r_law")
        ),
        "acceptance.check_shorth_m_law.s": sum(
            s.dur for s in sel("acceptance.check_shorth_m_law")
        ),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
