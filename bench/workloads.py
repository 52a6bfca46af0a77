"""The three benchmark workloads: their operation lists and output checks.

A workload is a fixed list of operations that one caller issues back to
back.  `build(name, input_set, inputs_dir)` makes the list from an input
set number; every Monte Carlo seed of every operation derives from it, so
the same input set always gives the same operations and the same outputs.

An operation returns its output; `check_pass` then judges every output of
one pass and returns, per operation, a failure reason (or None) and a
digest of the output.  The digests are compared with the pinned ones in
golden.json, which makes every run a bit-identity check as well.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from spinsphere import cli, collapse, pairs, randomness

# collapse-short checks each (box, weight) group of about 4k trials against
# the finite-box law.  Eight groups are tested per pass, so 4 sigma keeps the
# chance of a false alarm per pass near 5e-4.
FINITE_BOX_Z_MAX = 4.0
CLI_Z_MAX = 3.0

SHORT_WEIGHTS = (0.9, 0.75, 0.5, 0.3)
SHORT_SIZES = (64, 128, 256)
SHORT_BOXES = (math.pi / 8.0, math.pi / 16.0)
SHORT_BATCHES = 300
LENS_CONFIGS = ((0.05, 1.0), (0.1, 1.0), (0.2, 1.5))


@dataclass
class Op:
    """One operation: `run(out_dir)` does the work and returns its output."""

    name: str
    kind: str  # "cli", "batch" or "single"
    trials: int  # Monte Carlo trials (collapse trials or ruin walks) it runs
    run: Callable[[Path], object]
    meta: dict


def _cli_op(name: str, argv: list[str], trials: int) -> Op:
    def run(out_dir: Path) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main([*argv, "--out", str(out_dir)])

    return Op(name, "cli", trials, run, {"argv": argv})


def _born_epr(rng: random.Random, inputs_dir: Path) -> list[Op]:
    ops = []
    for c1sq, csv in ((0.9, False), (0.75, False), (0.5, True)):
        argv = ["born", "--c1sq", str(c1sq), "--trials", "30000",
                "--seed", str(rng.randrange(2**31))]
        if csv:
            argv.append("--outcomes-csv")
        ops.append(_cli_op(f"born c1sq={c1sq}", argv, 30_000))
    argv = ["epr", "--a-sq", "0.3", "--trials", "30000",
            "--seed", str(rng.randrange(2**31))]
    ops.append(_cli_op("epr a_sq=0.3", argv, 30_000))
    return ops


def _walks_geometry(rng: random.Random, inputs_dir: Path) -> list[Op]:
    ops = [_cli_op("markov", ["markov", "--trials", "20000",
                              "--seed", str(rng.randrange(2**31))],
                   5 * 20_000)]
    for displacement, span in LENS_CONFIGS:
        path = inputs_dir / f"lens_{displacement}_{span}.cfg"
        path.write_text(f"displacement={displacement}\nspan={span}\n",
                        encoding="utf-8")
        ops.append(_cli_op(f"lens d={displacement} span={span}",
                           ["lens", "--config", str(path)], 0))
    c1sq = str(round(rng.uniform(0.05, 0.95), 4))
    for experiment in ("evolve", "bloch"):
        ops.append(_cli_op(experiment,
                           [experiment, "--dt", "1e-4", "--c1sq", c1sq], 0))
    ops.append(_cli_op("curvature", ["curvature", "--planes", "3000",
                                     "--seed", str(rng.randrange(2**31))], 0))
    ops.append(_cli_op("uncertainty", ["uncertainty", "--states", "50000",
                                       "--seed", str(rng.randrange(2**31))], 0))
    return ops


def _collapse_short(rng: random.Random, inputs_dir: Path) -> list[Op]:
    states = {
        w: pairs.SingletSectorState(math.sqrt(w), math.sqrt(1.0 - w))
        for w in SHORT_WEIGHTS
    }
    boxes = {
        d: collapse.CaptureRegion(d, math.pi / 8.0, math.pi / 8.0)
        for d in SHORT_BOXES
    }
    ops: list[Op] = []
    wide = []  # indices of batch ops in the pi/8 box
    for k in range(SHORT_BATCHES):
        weight = SHORT_WEIGHTS[k % len(SHORT_WEIGHTS)]
        d_theta = SHORT_BOXES[(k // len(SHORT_WEIGHTS)) % len(SHORT_BOXES)]
        n = SHORT_SIZES[k % len(SHORT_SIZES)]
        seed = rng.randrange(2**31)
        phi, region = states[weight].effective_spinor, boxes[d_theta]

        def batch(out_dir, phi=phi, region=region, seed=seed, n=n):
            return collapse.run_collapse_batch(phi, region, seed, n)

        ops.append(Op(f"batch {k}", "batch", n, batch,
                      {"weight": weight, "d_theta": d_theta, "seed": seed}))
        if d_theta == SHORT_BOXES[0]:
            wide.append(len(ops) - 1)
        if k % 3 == 2:
            # Re-run one trial of an earlier wide-box batch on its own; the
            # single-trial path must reproduce the batch result exactly.
            ref = rng.choice(wide)
            ref_meta = ops[ref].meta
            index = rng.randrange(ops[ref].trials)
            state = states[ref_meta["weight"]]

            def single(out_dir, state=state, seed=ref_meta["seed"], index=index):
                record = pairs.measure_first_z(
                    state, randomness.TrialStream(seed, index),
                    boxes[SHORT_BOXES[0]])
                return record.first, record.steps

            ops.append(Op(f"single {len(ops)}", "single", 1, single,
                          {"ref": ref, "index": index}))
    return ops


_BUILDERS = {
    "born-epr": _born_epr,
    "collapse-short": _collapse_short,
    "walks-geometry": _walks_geometry,
}


def build(name: str, input_set: int, inputs_dir: Path) -> list[Op]:
    """The operation list of workload `name` for one input set."""
    inputs_dir.mkdir(parents=True, exist_ok=True)
    return _BUILDERS[name](random.Random(f"{name}:{input_set}"), inputs_dir)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _dir_digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _check_cli(op: Op, code, out_dir: Path) -> str | None:
    if code != 0:
        return f"exit code {code}"
    experiment = op.meta["argv"][0]
    report = json.loads(
        (out_dir / f"{experiment}_report.json").read_text(encoding="utf-8"))
    metrics = report["metrics"]
    if experiment == "born" and max(map(abs, metrics["z_scores"])) > CLI_Z_MAX:
        return f"Born z {metrics['z_scores']}"
    if experiment == "epr" and metrics["anti_correlation_violations"] != 0:
        return f"{metrics['anti_correlation_violations']} EPR violations"
    return None


def finite_box_p0(weight: float, d_theta: float) -> float:
    """P0 = 1/2 + 1/2 (sin dtheta / dtheta) cos theta0, cos theta0 = 2w - 1."""
    return 0.5 + 0.5 * (math.sin(d_theta) / d_theta) * (2.0 * weight - 1.0)


def finite_box_groups(ops: list[Op], outputs: list) -> list[dict]:
    """Pooled outcome-0 frequency per (box, weight), with both z-scores."""
    groups: dict[tuple, list] = {}
    for i, op in enumerate(ops):
        if op.kind == "batch" and not isinstance(outputs[i], BaseException):
            key = (op.meta["d_theta"], op.meta["weight"])
            entry = groups.setdefault(key, [0, 0, []])
            entry[0] += int((outputs[i][0] == 0).sum())
            entry[1] += op.trials
            entry[2].append(i)
    rows = []
    for (d_theta, weight), (zeros, n, members) in sorted(groups.items()):
        freq = zeros / n
        p0 = finite_box_p0(weight, d_theta)
        rows.append({
            "d_theta": d_theta,
            "weight": weight,
            "trials": n,
            "frequency": freq,
            "finite_box_p0": p0,
            "z_finite_box": (freq - p0) / math.sqrt(p0 * (1.0 - p0) / n),
            "z_born": (freq - weight) / math.sqrt(weight * (1.0 - weight) / n),
            "members": members,
        })
    return rows


def check_pass(ops: list[Op], outputs: list, out_dirs: list[Path | None]):
    """Judge one pass; returns (failure reason or None, digest) per op and
    the finite-box table of collapse-short (empty for other workloads)."""
    failures: list[str | None] = [None] * len(ops)
    digests: list[str | None] = [None] * len(ops)
    for i, (op, out) in enumerate(zip(ops, outputs)):
        if isinstance(out, BaseException):
            failures[i] = f"raised {type(out).__name__}: {out}"
            continue
        if op.kind == "cli":
            failures[i] = _check_cli(op, out, out_dirs[i])
            digests[i] = _dir_digest(out_dirs[i])
        elif op.kind == "batch":
            outcomes, steps = out
            digests[i] = hashlib.sha256(
                outcomes.astype("<i1").tobytes() + steps.astype("<i8").tobytes()
            ).hexdigest()
        else:
            first, steps = out
            digests[i] = hashlib.sha256(f"{first},{steps}".encode()).hexdigest()
            ref = outputs[op.meta["ref"]]
            if isinstance(ref, BaseException):
                failures[i] = "reference batch raised"
            else:
                eigenstate = 0 if first == 1 else 1
                j = op.meta["index"]
                if (eigenstate, steps) != (int(ref[0][j]), int(ref[1][j])):
                    failures[i] = (
                        f"single trial gave ({eigenstate}, {steps}), batch "
                        f"gave ({int(ref[0][j])}, {int(ref[1][j])})")
    table = finite_box_groups(ops, outputs)
    for row in table:
        if abs(row["z_finite_box"]) > FINITE_BOX_Z_MAX:
            for i in row["members"]:
                failures[i] = failures[i] or (
                    f"finite-box z {row['z_finite_box']:.2f} at "
                    f"d_theta={row['d_theta']:.4f} weight={row['weight']}")
    return failures, digests, table
