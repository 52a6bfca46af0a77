#!/usr/bin/env python3
"""spinsphere benchmark: runs one workload as a closed loop in this process.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --record          # re-pin bench/golden.json

It imports the library from the src/ directory beside bench/.  One
caller issues the workload's fixed operation list back to back (one pass),
and passes repeat while the next one is expected to end within --seconds.
Every output is checked and its digest compared with golden.json.  The
last line of standard output is one JSON object with the keys "correct",
"attempted", "failed" and "metrics".

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced and traced passes and reports the per-layer metrics
(see tracing.py); the spans of the first traced pass are written as JSON
lines to bench/out/.  The exit status is 0 when every operation passed,
1 when any failed, and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import os

# One caller and no extra threads: keep BLAS single-threaded.  This is set
# before numpy is imported, here and in the set-up children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
GOLDEN = BENCH / "golden.json"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("born-epr", "collapse-short", "walks-geometry")

INPUT_SETS = 8  # pinned input sets per workload
DIGEST_CHARS = 12  # hex digits of each pinned sha256
SETUP_SAMPLES = 7

# Set-up as the benchmark times it: a fresh interpreter imports the
# library and builds the workload's inputs, then says "ready".
_SETUP_CHILD = """
import sys
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.build(sys.argv[3], int(sys.argv[4]), Path(sys.argv[5]))
print("ready", flush=True)
"""

clock = time.perf_counter


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="run every workload on candidate input sets and "
                             "re-pin golden.json")
    args = parser.parse_args(argv)
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# Running passes
# ---------------------------------------------------------------------------

def run_pass(ops, pass_dir: Path, tracer=None):
    """Issue every operation once, back to back.

    Returns the pass wall time, each operation's output (or the exception
    it raised), its output directory and its latency.
    """
    outputs, out_dirs, latencies = [], [], []
    start = clock()
    for i, op in enumerate(ops):
        out_dir = pass_dir / f"{i:03d}" if op.kind == "cli" else None
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        try:
            out = op.run(out_dir)
        except Exception as exc:  # an operation that raises has failed
            out = exc
        latencies.append(clock() - t0)
        outputs.append(out)
        out_dirs.append(out_dir)
    wall = clock() - start
    for op, out in zip(ops, outputs):
        if isinstance(out, Exception):
            print(f"bench: {op.name} raised:", file=sys.stderr)
            traceback.print_exception(out, file=sys.stderr)
    return wall, outputs, out_dirs, latencies


class Tally:
    """Operation counts and failures over all passes of a run."""

    def __init__(self, ops, pinned):
        self.ops = ops
        self.pinned = pinned
        self.attempted = 0
        self.failed = 0
        self.finite_box = None

    def check(self, outputs, out_dirs) -> None:
        import workloads

        failures, digests, table = workloads.check_pass(self.ops, outputs, out_dirs)
        for i, digest in enumerate(digests):
            if failures[i] is None and (digest or "")[:DIGEST_CHARS] != self.pinned[i]:
                failures[i] = f"digest {digest[:DIGEST_CHARS]} != pinned {self.pinned[i]}"
        self.attempted += len(self.ops)
        for op, reason in zip(self.ops, failures):
            if reason is not None:
                self.failed += 1
                print(f"bench: FAILED {op.name}: {reason}", file=sys.stderr)
        if self.finite_box is None:
            self.finite_box = [{k: v for k, v in row.items() if k != "members"}
                               for row in table]


def measure_setup(workload: str, input_set: int, run_dir: Path) -> list[float]:
    samples = []
    for i in range(SETUP_SAMPLES):
        argv = [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(BENCH),
                workload, str(input_set), str(run_dir / f"setup-{i}")]
        t0 = clock()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            samples.append(clock() - t0)
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up child exited {proc.returncode}")
    return samples


def fits(start: float, seconds: float, *walls: list[float]) -> bool:
    """Whether another pass (or pair of passes) should still end within
    `seconds` of `start`, judged by the median passes so far."""
    ahead = sum(statistics.median(w) for w in walls)
    return clock() - start + ahead <= seconds


def quantiles_ms(latencies: list[float]) -> tuple[float, float]:
    deciles = statistics.quantiles(latencies, n=10)
    return statistics.median(latencies) * 1e3, deciles[8] * 1e3


def end_to_end(args, ops, input_set, tally, run_dir, info) -> dict:
    setup = measure_setup(args.workload, input_set, run_dir)
    walls, latencies = [], []
    start = clock()
    while not walls or fits(start, args.seconds, walls):
        pass_dir = run_dir / f"pass-{len(walls)}"
        wall, outputs, out_dirs, lat = run_pass(ops, pass_dir)
        tally.check(outputs, out_dirs)
        shutil.rmtree(pass_dir, ignore_errors=True)
        walls.append(wall)
        # Calls are the batch calls in collapse-short and the CLI
        # invocations elsewhere; single trials are checks, not calls.
        latencies += [t for op, t in zip(ops, lat) if op.kind != "single"]
    wall_s = statistics.median(walls)
    p50, p90 = quantiles_ms(latencies)
    info.update(passes=len(walls), pass_walls_s=walls, setup_samples_s=setup,
                call_samples=len(latencies),
                call_samples_beyond_p90=sum(t * 1e3 > p90 for t in latencies))
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall_s,
        "trials_per_s": sum(op.trials for op in ops) / wall_s,
        "call_p50_ms": p50,
        "call_p90_ms": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(args, ops, tally, run_dir, units, info) -> dict:
    import tracing

    tracer = tracing.Tracer()
    plain, traced, per_pass, first_spans = [], [], [], None
    start = clock()
    while not traced or fits(start, args.seconds, plain, traced):
        for trace_on in (False, True):
            pass_dir = run_dir / f"pass-{len(plain) + len(traced)}"
            if trace_on:
                tracer.install()
                try:
                    wall, outputs, out_dirs, _ = run_pass(ops, pass_dir, tracer)
                finally:
                    tracer.uninstall()
                spans = tracer.take()
                per_pass.append(tracing.layer_metrics(spans))
                first_spans = first_spans or spans
                traced.append(wall)
            else:
                wall, outputs, out_dirs, _ = run_pass(ops, pass_dir)
                plain.append(wall)
            tally.check(outputs, out_dirs)
            shutil.rmtree(pass_dir, ignore_errors=True)
    metrics, unsteady = tracing.combine(per_pass, units)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracing.write_jsonl(first_spans, trace_file)
    info.update(passes=len(plain), traced_passes=len(traced), spans=len(first_spans),
                trace_file=str(trace_file.relative_to(ROOT)),
                counts_differ_between_passes=unsteady)
    return metrics


# ---------------------------------------------------------------------------
# Run information and golden outputs
# ---------------------------------------------------------------------------

def machine_info() -> dict:
    import numpy

    info = {"nproc": os.cpu_count(), "cpu_model": platform.processor(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "loadavg_start": list(os.getloadavg())}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            if (index / "type").read_text().strip() != "Instruction":
                level = (index / "level").read_text().strip()
                info[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return info


def record() -> int:
    """Pin the first INPUT_SETS candidate input sets on which every
    operation passes, with the digest of every output."""
    import workloads

    golden = {"input_sets": INPUT_SETS, "digest_chars": DIGEST_CHARS,
              "workloads": {}, "rejected": {}}
    for name in WORKLOADS:
        accepted, rejected, candidate = {}, {}, 0
        while len(accepted) < INPUT_SETS:
            run_dir = OUT / f"record-{os.getpid()}"
            try:
                ops = workloads.build(name, candidate, run_dir / "inputs")
                _, outputs, out_dirs, _ = run_pass(ops, run_dir / "pass")
                failures, digests, _ = workloads.check_pass(ops, outputs, out_dirs)
            finally:
                shutil.rmtree(run_dir, ignore_errors=True)
            bad = [f"{op.name}: {f}" for op, f in zip(ops, failures) if f]
            if bad:
                rejected[str(candidate)] = bad
            else:
                accepted[str(candidate)] = " ".join(d[:DIGEST_CHARS] for d in digests)
            print(f"{name} input set {candidate}: "
                  f"{'rejected ' + '; '.join(bad) if bad else 'pinned'}",
                  file=sys.stderr)
            candidate += 1
        golden["workloads"][name] = accepted
        golden["rejected"][name] = rejected
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spinsphere" / "__init__.py").is_file():
        return fail(f"no spinsphere sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    if args.record:
        return record()
    try:
        spec = json.loads(SPEC.read_text(encoding="utf-8"))
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return fail(f"cannot read the benchmark definition: {exc}")
    import workloads

    pinned_sets = golden["workloads"][args.workload]
    pool = sorted(pinned_sets, key=int)
    input_set = pool[args.seed % len(pool)]
    info = {"workload": args.workload, "seed": args.seed,
            "input_set": int(input_set), "trace": args.trace, **machine_info()}
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    run_dir = OUT / f"run-{os.getpid()}"
    try:
        ops = workloads.build(args.workload, int(input_set), run_dir / "inputs")
        tally = Tally(ops, pinned_sets[input_set].split())
        if args.trace:
            metrics = per_layer(args, ops, tally, run_dir, units, info)
        else:
            metrics = end_to_end(args, ops, int(input_set), tally, run_dir, info)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if set(metrics) != set(units):
        return fail(f"metrics do not match BENCHMARK.json {group}: "
                    f"{sorted(set(metrics) ^ set(units))}")
    correct = tally.failed == 0 and not info.get("counts_differ_between_passes")
    info.update(attempted=tally.attempted, failed=tally.failed,
                error_rate=tally.failed / tally.attempted)
    if tally.finite_box:
        info["finite_box"] = tally.finite_box
    print(json.dumps({"run_info": info}))
    for name, unit in units.items():
        print(f"{name} = {metrics[name]!r} {unit}")
    print(f"error_rate = {tally.failed / tally.attempted!r} "
          f"({tally.failed} of {tally.attempted} operations)")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
