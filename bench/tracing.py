"""Layer tracing from outside the library.

`Tracer.install()` replaces each traced public function, in every
spinsphere module namespace that holds it (and the experiment table
`cli.RUNNERS`), with a wrapper that records a span; `uninstall()` puts the
originals back.  The library itself is not modified.

A span is (name, start, end, parent span index, operation id, counts).
Counts come from call arguments and return values only, so they repeat
exactly for the same inputs.  `su2` is deliberately not traced: its
functions are called per element by every other layer and a wrapper would
cost more than the call.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import time
from pathlib import Path

import spinsphere
from spinsphere import cli

LAYERS = {name: importlib.import_module(f"spinsphere.{name}") for name in (
    "su2", "curvature", "evolution", "bloch", "collapse", "lens", "pairs",
    "randomness", "reports", "cli")}
_MODULES = (spinsphere, *LAYERS.values())


# The CLI experiments the workloads run; each gets a cli.<experiment> span.
EXPERIMENTS = ("born", "epr", "markov", "lens", "evolve", "bloch", "curvature",
               "uncertainty")


class _Rows:
    """Iterable that counts the rows write_csv consumes."""

    def __init__(self, rows):
        self.rows = rows
        self.n = 0

    def __iter__(self):
        for row in self.rows:
            self.n += 1
            yield row


def _steps_counts(prefix, result):
    flags, steps = result
    return {prefix: int(flags.size), "steps": int(steps.sum()),
            "max_steps": int(steps.max(initial=0))}


# Traced function -> counts(args, kwargs, result).  write_csv's rows are
# counted through _Rows, see Tracer._wrap.
TRACED = {
    "randomness.uniforms_at": lambda a, k, r: {"draws": int(r.size)},
    "randomness.derive_keys": None,
    "collapse.run_collapse_batch": lambda a, k, r: _steps_counts("trials", r),
    "collapse.run_collapse_trial": lambda a, k, r: {"steps": int(r.steps)},
    "collapse.run_ruin_walks": lambda a, k, r: _steps_counts("walks", r),
    "collapse.absorption_probabilities": None,
    "pairs.measure_first_z": None,
    "pairs.run_epr_batch": None,
    "pairs.epr_statistics": None,
    "lens.design_lens": None,
    "lens.integrate_ray": lambda a, k, r: {"steps": len(r) - 1},
    "evolution.integrate_numeric": lambda a, k, r: {"steps": len(r) - 1},
    "evolution.geodesic_planarity": None,
    "bloch.hopf_project": None,
    "bloch.uncertainty_margin": None,
    "curvature.sectional_curvature": None,
    "curvature.commutator_curvature_identity": None,
    "reports.write_csv": lambda a, k, r: {
        "bytes": os.path.getsize(a[0] if a else k["path"])},
    "reports.write_json_report": lambda a, k, r: {
        "bytes": os.path.getsize(a[0] if a else k["path"])},
    "cli.main": None,
}


class Tracer:
    """Keeps spans in memory while installed; one instance per run."""

    def __init__(self):
        self.spans: list = []
        self._stack = [-1]
        self.op = -1
        self._patches: list = []

    def install(self) -> None:
        for qualified, counter in TRACED.items():
            layer, attr = qualified.split(".")
            original = getattr(LAYERS[layer], attr)
            wrapper = self._wrap(qualified, original, counter)
            for module in _MODULES:
                if module.__dict__.get(attr) is original:
                    self._patches.append((module.__dict__, attr, original))
                    setattr(module, attr, wrapper)
        for experiment, runner in list(cli.RUNNERS.items()):
            self._patches.append((cli.RUNNERS, experiment, runner))
            cli.RUNNERS[experiment] = self._wrap(f"cli.{experiment}", runner, None)

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patches):
            namespace[attr] = original
        self._patches.clear()

    def take(self) -> list:
        """Return the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name, fn, counter):
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            rows = None
            if name == "reports.write_csv":
                args = list(args)
                if len(args) > 2:
                    rows = args[2] = _Rows(args[2])
                else:
                    rows = kwargs["rows"] = _Rows(kwargs["rows"])
            spans = self.spans
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans[index] = (name, t0, clock(), parent, self.op, {"raised": 1})
                raise
            t1 = clock()
            stack.pop()
            counts = counter(args, kwargs, result) if counter else {}
            if rows is not None:
                counts["rows"] = rows.n
            spans[index] = (name, t0, t1, parent, self.op, counts)
            return result

        traced.__wrapped__ = fn
        return traced


def write_jsonl(spans: list, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for i, (name, t0, t1, parent, op, counts) in enumerate(spans):
            handle.write(json.dumps({
                "id": i, "name": name, "start": t0, "end": t1,
                "parent": parent, "op": op, **counts,
            }) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass
# ---------------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list) -> dict[str, float]:
    """Aggregate one pass's spans into the per-layer metrics (except
    trace.overhead_ratio, which needs the untraced passes)."""
    agg: dict[str, dict] = {}
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    child_draws: dict[str, int] = {}
    child_rays = 0
    for i, (name, t0, t1, parent, _, counts) in enumerate(spans):
        a = agg.setdefault(name, {"calls": 0, "busy": 0.0, "self": 0.0,
                                  "max_steps": 0})
        a["calls"] += 1
        a["busy"] += t1 - t0
        a["self"] += t1 - t0 - child_time[i]
        for key, value in counts.items():
            if key == "max_steps":
                a[key] = max(a[key], value)
            else:
                a[key] = a.get(key, 0) + value
        if parent >= 0:
            parent_name = spans[parent][0]
            if name == "randomness.uniforms_at":
                child_draws[parent_name] = (
                    child_draws.get(parent_name, 0) + counts.get("draws", 0))
            elif name == "lens.integrate_ray" and parent_name == "lens.design_lens":
                child_rays += 1

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    uni, keys = "randomness.uniforms_at", "randomness.derive_keys"
    batch, trial = "collapse.run_collapse_batch", "collapse.run_collapse_trial"
    walks, oracle = "collapse.run_ruin_walks", "collapse.absorption_probabilities"
    design, ray = "lens.design_lens", "lens.integrate_ray"
    rk4, planarity = "evolution.integrate_numeric", "evolution.geodesic_planarity"
    out = {
        f"{uni}.calls": get(uni, "calls"),
        f"{uni}.draws": get(uni, "draws"),
        f"{uni}.busy_s": get(uni, "busy"),
        "randomness.draws_per_s": _ratio(get(uni, "draws"), get(uni, "busy")),
        f"{keys}.busy_s": get(keys, "busy"),
        f"{batch}.calls": get(batch, "calls"),
        f"{batch}.trials": get(batch, "trials"),
        f"{batch}.trial_steps": get(batch, "steps"),
        f"{batch}.max_steps": get(batch, "max_steps"),
        f"{batch}.busy_s": get(batch, "busy"),
        f"{batch}.self_s": get(batch, "self"),
        "collapse.trial_steps_per_s": _ratio(get(batch, "steps"), get(batch, "busy")),
        "collapse.draws_per_trial_step": _ratio(child_draws.get(batch, 0),
                                                get(batch, "steps")),
        f"{trial}.calls": get(trial, "calls"),
        f"{trial}.trial_steps": get(trial, "steps"),
        f"{trial}.busy_s": get(trial, "busy"),
        "pairs.measure_first_z.calls": get("pairs.measure_first_z", "calls"),
        "pairs.measure_first_z.busy_s": get("pairs.measure_first_z", "busy"),
        f"{walks}.calls": get(walks, "calls"),
        f"{walks}.walks": get(walks, "walks"),
        f"{walks}.walk_steps": get(walks, "steps"),
        f"{walks}.max_steps": get(walks, "max_steps"),
        f"{walks}.busy_s": get(walks, "busy"),
        "collapse.walk_steps_per_s": _ratio(get(walks, "steps"), get(walks, "busy")),
        "collapse.draws_per_walk_step": _ratio(child_draws.get(walks, 0),
                                               get(walks, "steps")),
        f"{oracle}.busy_s": get(oracle, "busy"),
        "pairs.run_epr_batch.self_s": get("pairs.run_epr_batch", "self"),
        "pairs.epr_statistics.busy_s": get("pairs.epr_statistics", "busy"),
        f"{design}.calls": get(design, "calls"),
        f"{design}.busy_s": get(design, "busy"),
        f"{design}.self_s": get(design, "self"),
        f"{ray}.calls": get(ray, "calls"),
        f"{ray}.ray_steps": get(ray, "steps"),
        f"{ray}.busy_s": get(ray, "busy"),
        "lens.ray_steps_per_s": _ratio(get(ray, "steps"), get(ray, "busy")),
        "lens.rays_per_design": _ratio(child_rays, get(design, "calls")),
        f"{rk4}.steps": get(rk4, "steps"),
        f"{rk4}.busy_s": get(rk4, "busy"),
        "evolution.rk4_steps_per_s": _ratio(get(rk4, "steps"), get(rk4, "busy")),
        f"{planarity}.busy_s": get(planarity, "busy"),
    }
    for name in ("bloch.hopf_project", "bloch.uncertainty_margin",
                 "curvature.sectional_curvature",
                 "curvature.commutator_curvature_identity"):
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.busy_s"] = get(name, "busy")
    csv, report = "reports.write_csv", "reports.write_json_report"
    out.update({
        f"{csv}.calls": get(csv, "calls"),
        f"{csv}.rows": get(csv, "rows"),
        f"{csv}.bytes": get(csv, "bytes"),
        f"{csv}.busy_s": get(csv, "busy"),
        f"{report}.bytes": get(report, "bytes"),
        f"{report}.busy_s": get(report, "busy"),
        "cli.main.calls": get("cli.main", "calls"),
        "cli.main.busy_s": get("cli.main", "busy"),
        "cli.main.self_s": get("cli.main", "self"),
    })
    for experiment in EXPERIMENTS:
        out[f"cli.{experiment}.busy_s"] = get(f"cli.{experiment}", "busy")
    return out


def combine(per_pass: list[dict], units: dict[str, str]) -> tuple[dict, list[str]]:
    """Counts from the first pass; timings as the median over passes.

    Returns the combined metrics and the names of counts that differed
    between passes (which would mean the program is not deterministic).
    """
    combined, unsteady = {}, []
    for name, first in per_pass[0].items():
        values = [p[name] for p in per_pass]
        if units[name] in ("s", "1/s"):
            combined[name] = statistics.median(values)
        else:
            combined[name] = first
            if any(v != first for v in values):
                unsteady.append(name)
    return combined, unsteady
