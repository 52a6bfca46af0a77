"""Command-line front end: named experiments with seeded, reproducible output.

Usage:
    spinsphere EXPERIMENT [--config FILE] [--out DIR] [--KEY VALUE ...]

Each run writes <experiment>_report.json (metrics, thresholds, pass flags,
and the fully resolved configuration, so any result can be re-run from its
own report) and at most one data file, <experiment>_0.csv, into the output
directory, and prints a one-line pass/fail summary; uncertainty, epr, and
born without --outcomes-csv write no CSV.  A run that fails
before it writes a file removes the directories it created for --out; one
that existed before is left in place.  Exit status: 0 pass,
1 threshold failure, 2 usage, configuration or output-directory error
(including a collapse run that would more likely than not hit its step
limit, an integration of more than MAX_STEPS steps, and a count over the
count budget), 3 no convergence
(a collapse trial or walk hit its step limit, or the lens search failed).

Each configuration key is one entry of PARAMS (type, default, valid range,
help), which builds the --key-with-dashes flags listed by `spinsphere
--help`, reads and checks configuration files, and fills the config echo.
Configuration files are flat KEY=VALUE text ('#' comments allowed);
command-line flags override file values.  All quantities are in Planck
units; mu, B, and hbar are individually settable for dimension-tracking runs.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .bloch import _bloch_xyz, energy_uncertainty, hopf_project, uncertainty_margin
from .collapse import (
    CaptureRegion,
    CollapseTimeoutError,
    absorption_probabilities,
    born_statistics,
    build_markov_chain,
    run_collapse_batch,
    run_ruin_walks,
    timeout_chance,
)
from .curvature import commutator_curvature_identity, sectional_curvature
from .evolution import (
    FieldParams,
    evolution_speed,
    evolve_exact,
    geodesic_planarity,
    integrate_numeric,
    speed_along,
)
from .lens import (
    LENS_DTAU,
    LENS_MISS_TOL,
    LensSearchError,
    design_lens,
    ray_energy,
)
from .pairs import SingletSectorState, epr_statistics, run_epr_batch
from .reports import write_csv, write_json_report
from .su2 import Spinor, _unit_pair, killing_inner


class Param(NamedTuple):
    """One configuration key.  `check` is (predicate, rule), left out where a
    library constructor already rejects bad values (CaptureRegion,
    FieldParams, build_markov_chain).  A `switch` is a no-value flag that sets 1."""

    type: type
    default: object
    help: str
    check: tuple[Callable[[object], bool], str] | None = None
    switch: bool = False


# The most steps one integration (an evolution trajectory or the lens ray)
# may take.  A run over it exits 2 before it allocates anything, whatever
# the machine's memory, instead of running for hours until it is killed.
MAX_STEPS = 10**7
# The most items one count may ask for: --trials, --states and --planes each,
# and markov's (delta_grid + 1)^2 chain cells.  A count over it exits 2 when
# the configuration is read, before anything is allocated.
_MAX_COUNT = 10**7

_POSITIVE = (lambda v: v > 0, "must be > 0")
_COUNT = (lambda v: 0 < v <= _MAX_COUNT, f"must lie in [1, {_MAX_COUNT:.0e}]")
_UNIT = (lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]")

PARAMS = {
    "seed": Param(int, 42, "base seed of every random stream"),
    "trials": Param(int, 20_000, "collapse trials, or walks per start (markov)", _COUNT),
    "c1sq": Param(float, 0.5, "weight |c1|^2 of the first eigenstate", _UNIT),
    "a_sq": Param(float, 0.5, "weight of the (+,-) branch of the EPR pair", _UNIT),
    "t_final": Param(float, None, "evolution time; by default 1.0, and a quarter turn "
                     "(pi/4)(hbar/|mu b0|) for e2-split", _POSITIVE),
    "dt": Param(float, 1e-3, "integrator step; runs take max(round(t_final/dt), 4) "
                "equal steps that end at t_final", _POSITIVE),
    "bx": Param(float, 0.0, "field component B_x (evolve, bloch)"),
    "by": Param(float, 0.0, "field component B_y (evolve, bloch)"),
    "bz": Param(float, 1.0, "field component B_z (evolve, bloch)"),
    "b0": Param(float, 1.0, "field strength along -Y (e2-split)",
                (lambda v: v != 0, "must be nonzero")),
    "mu": Param(float, 1.0, "magnetic moment, nonzero"),
    "hbar": Param(float, 1.0, "reduced Planck constant, positive"),
    "planes": Param(int, 100, "random planes besides the 3 basis planes (curvature)",
                    (lambda v: 0 <= v <= _MAX_COUNT, f"must lie in [0, {_MAX_COUNT:.0e}]")),
    "states": Param(int, 10_000, "random states (uncertainty)", _COUNT),
    "delta_grid": Param(int, 60, "intervals m >= 2 of the absorbing chain on [0, pi]",
                        (lambda v: v < math.isqrt(_MAX_COUNT),
                         f"must keep (delta_grid + 1)^2 chain cells <= {_MAX_COUNT:.0e}")),
    "region_width": Param(float, math.pi / 48.0, "capture half-width in theta, in (0, pi/8]"),
    "region_alpha": Param(float, math.pi / 8.0, "capture half-width in alpha, in (0, pi/8]"),
    "region_beta": Param(float, math.pi / 8.0, "capture half-width in beta, in (0, pi/8]"),
    "displacement": Param(float, 0.1, "lens target offset across the initial ray"),
    "span": Param(float, 1.0, "lens target distance along the initial ray", _POSITIVE),
    "outcomes_csv": Param(int, 0, "also write per-trial outcome rows (born)",
                          (lambda v: v in (0, 1), "must be 0 or 1"), switch=True),
}


class ConfigError(Exception):
    pass


def parse_config_file(path: str) -> dict:
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected KEY=VALUE, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in PARAMS:
            raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
        cast = PARAMS[key].type
        try:
            values[key] = cast(value)
        except ValueError:
            raise ConfigError(
                f"{path}:{line_no}: {key} must be {cast.__name__}, got {value!r}"
            ) from None
    return values


def resolve_config(args: argparse.Namespace) -> dict:
    """Defaults, then the config file, then flags; then each float key must be
    finite and each key must pass its check."""
    cfg = {key: param.default for key, param in PARAMS.items()}
    if args.config:
        cfg.update(parse_config_file(args.config))
    for key, param in PARAMS.items():
        override = getattr(args, key)
        if override is not None:
            cfg[key] = override
        value = cfg[key]
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}")
        if param.check and value is not None and not param.check[0](value):
            raise ConfigError(f"{key} {param.check[1]}, got {value}")
    return cfg


def _region(cfg, phi: Spinor) -> CaptureRegion:
    """The capture region of a batch of cfg["trials"] trials of phi; a
    ConfigError if, by the capture law, the batch more likely than not has
    a trial that exceeds the step limit (it would run long, then exit 3)."""
    region = CaptureRegion(cfg["region_width"], cfg["region_alpha"], cfg["region_beta"])
    chance = timeout_chance(phi, region, cfg["trials"])
    if chance >= 0.5:
        raise ConfigError(
            f"in this capture region a batch of {cfg['trials']} trials would exceed the "
            f"step limit with probability {chance:.3g}; widen the region or lower --trials")
    return region


def _weighted_state(c1_sq: float) -> Spinor:
    return Spinor(math.sqrt(c1_sq), math.sqrt(1.0 - c1_sq))


def _check_steps(n_steps, what: str) -> None:
    if not n_steps <= MAX_STEPS:
        raise ConfigError(f"{what} needs {n_steps:.3g} steps, more than the bound of {MAX_STEPS:.0e}")


def _trajectory(cfg, phi0: Spinor, params: FieldParams, t_default: float):
    """Integrate phi0 up to t_final (set to t_default when unset) in
    max(round(t_final / dt), 4) equal steps, so short runs end at t_final, not 4 dt."""
    if cfg["t_final"] is None:
        cfg["t_final"] = t_default
    steps = cfg["t_final"] / cfg["dt"]
    _check_steps(steps, f"t_final/dt = {cfg['t_final']}/{cfg['dt']}")
    n_steps = max(round(steps), 4)
    return integrate_numeric(phi0, params, cfg["t_final"] / n_steps, n_steps)


def _rows(*columns):
    """Rows of equal-length columns, each a range or a 1-D float64 or integer
    array.  A memoryview yields the Python scalars .tolist() gives, strided
    columns included, without a copy of any column."""
    return zip(*(c if isinstance(c, range) else memoryview(c) for c in columns))


_TRAJECTORY_HEADER = ["t", "re_c1", "im_c1", "re_c2", "im_c2"]


# ---------------------------------------------------------------------------
# Experiments: each returns (table, body).  table is None or (header, rows)
# of <experiment>_0.csv; body holds the report's metrics, thresholds and checks.
# ---------------------------------------------------------------------------

def run_evolve(cfg):
    params = FieldParams((cfg["bx"], cfg["by"], cfg["bz"]), cfg["mu"], cfg["hbar"])
    phi0 = _weighted_state(cfg["c1sq"])
    traj = _trajectory(cfg, phi0, params, 1.0)
    exact = evolve_exact(phi0, params, float(traj.times[-1]))
    terminal_error = float(np.abs(traj.states[-1] - exact.vector).max())
    speed_dev = float(np.abs(speed_along(traj) - evolution_speed(params)).max())
    planarity = geodesic_planarity(traj)
    table = _TRAJECTORY_HEADER, _rows(traj.times, *traj.states.view(float).T)
    return table, {
        "metrics": {
            "terminal_error": terminal_error,
            "speed_deviation": speed_dev,
            "planarity_residual": planarity,
            "max_norm_drift": traj.max_drift,
        },
        "thresholds": {
            "terminal_error": 1e-8,
            "speed_deviation": 1e-8,
            "planarity_residual": 1e-9,
        },
        "checks": {
            "terminal_error": terminal_error < 1e-8,
            "speed_deviation": speed_dev < 1e-8,
            "planarity_residual": planarity < 1e-9,
        },
    }


def run_bloch(cfg):
    params = FieldParams((cfg["bx"], cfg["by"], cfg["bz"]), cfg["mu"], cfg["hbar"])
    phi0 = _weighted_state(cfg["c1sq"])
    traj = _trajectory(cfg, phi0, params, 1.0)
    # Each state as a Spinor would hold it; no list of every state is built.
    points = np.empty((len(traj), 3))
    flat, parts = memoryview(points.reshape(-1)), iter(traj.states.flat)
    for j, c1, c2 in zip(range(0, 3 * len(traj), 3), parts, parts):
        flat[j], flat[j + 1], flat[j + 2] = _bloch_xyz(*_unit_pair(c1, c2))
    norm_dev = float(np.abs(np.sqrt(np.vecdot(points, points)) - 1.0).max())
    shifted = Spinor(phi0.c1 * np.exp(0.7j), phi0.c2 * np.exp(0.7j))
    phase_dev = float(np.abs(hopf_project(shifted) - hopf_project(phi0)).max())
    return (["t", "x", "y", "z"], _rows(traj.times, *points.T)), {
        "metrics": {"norm_deviation": norm_dev, "phase_invariance": phase_dev},
        "thresholds": {"norm_deviation": 1e-12, "phase_invariance": 1e-12},
        "checks": {
            "norm_deviation": norm_dev < 1e-12,
            "phase_invariance": phase_dev < 1e-12,
        },
    }


def run_curvature(cfg):
    rng = np.random.default_rng(cfg["seed"])
    basis = np.eye(3)
    planes = np.concatenate([
        np.stack([basis, basis[[1, 2, 0]]], axis=1),
        rng.normal(size=(cfg["planes"], 2, 3), scale=2.0),
    ])
    x, y = planes[:, 0], planes[:, 1]
    k = sectional_curvature(x, y)
    y_perp = y - (killing_inner(x, y) / killing_inner(x, x))[:, None] * x
    lhs, rhs = commutator_curvature_identity(x, y_perp)
    worst_sectional = float(np.abs(k - 1.0).max())
    worst_identity = float(np.abs(lhs - rhs).max())
    return (["plane", "sectional_curvature"], _rows(range(len(k)), k)), {
        "metrics": {
            "max_sectional_deviation": worst_sectional,
            "max_commutator_identity_error": worst_identity,
        },
        "thresholds": {
            "max_sectional_deviation": 1e-10,
            "max_commutator_identity_error": 1e-10,
        },
        "checks": {
            "sectional_curvature": worst_sectional < 1e-10,
            "commutator_identity": worst_identity < 1e-10,
        },
    }


# A margin computed in numpy differs from uncertainty_margin's by a few ulps
# of 1 (every coordinate is at most 1 in size), far less than this slack.  So
# the smallest scalar margin of a block is among the states whose numpy
# margin is within the slack of the block's smallest, and only those states
# are rescored with uncertainty_margin.
_MARGIN_SLACK = 1e-9


def _block_margins(rows):
    """(y^2 + z^2)(x^2 + z^2) - z^2 of each row (a, b, c, d), the state
    (a + bi, c + di), in numpy: close to, not bit-identical with,
    uncertainty_margin."""
    a, b, c, d = (rows / np.sqrt((rows * rows).sum(axis=1, keepdims=True))).T
    x, y, z = 2.0 * (a * c + b * d), 2.0 * (a * d - b * c), c * c + d * d - a * a - b * b
    return (y * y + z * z) * (x * x + z * z) - z * z


def _min_margin(rng, n):
    """The smallest uncertainty_margin of the next n states of rng's stream,
    one size-4 normal draw each; advances rng past them.

    Blocks of 1,024 rows draw the stream of one size-4 call per state,
    without holding every state at once.
    """
    worst = math.inf
    for lo in range(0, n, 1024):
        rows = rng.normal(size=(min(1024, n - lo), 4))
        m = _block_margins(rows)
        # Row (a, b, c, d) viewed as complex is (a + bi, c + di), bit for bit.
        for c1, c2 in rows[m <= m.min() + _MARGIN_SLACK].view(complex).tolist():
            worst = min(worst, uncertainty_margin(Spinor(c1, c2)))
    return worst


def run_uncertainty(cfg):
    rng = np.random.default_rng(cfg["seed"])
    worst_margin = _min_margin(rng, cfg["states"])
    errors = []
    # Each error is in units of max(1, |mu|), the scale of its rounding.  At
    # a large mu the direct variance overflows to inf or nan; np.max keeps a
    # nan, so the check fails instead of skipping it.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(1000):
            r = rng.normal(size=4)
            phi = Spinor(complex(r[0], r[1]), complex(r[2], r[3]))
            b = rng.normal(size=3)
            params = FieldParams(b / np.linalg.norm(b) * rng.uniform(0.5, 2.0), cfg["mu"])
            h = -params.mu * params.sigma_dot_b
            v = phi.vector
            variance = float((v.conj() @ h @ h @ v).real - (v.conj() @ h @ v).real ** 2)
            direct = math.sqrt(max(variance, 0.0))
            errors.append(abs(energy_uncertainty(phi, params) - direct) / max(1.0, abs(cfg["mu"])))
    worst_energy = float(np.max(errors))
    eigen_margin = uncertainty_margin(Spinor(1.0, 0.0))
    return None, {
        "metrics": {
            "min_margin": worst_margin,
            "margin_at_eigenstate": eigen_margin,
            "max_energy_uncertainty_error": worst_energy,
        },
        "thresholds": {
            "min_margin": -1e-12,
            "max_energy_uncertainty_error": 1e-10,
        },
        "checks": {
            "margin_nonnegative": worst_margin >= -1e-12,
            "eigenstate_margin_zero": abs(eigen_margin) < 1e-12,
            "energy_uncertainty": worst_energy < 1e-10,
        },
    }


def run_born(cfg):
    phi = _weighted_state(cfg["c1sq"])
    outcomes, steps = run_collapse_batch(phi, _region(cfg, phi), cfg["seed"], cfg["trials"])
    stats = born_statistics(outcomes, cfg["c1sq"])
    table = None
    if cfg["outcomes_csv"]:
        table = ["trial", "eigenstate", "steps"], _rows(range(len(outcomes)), outcomes, steps)
    z_ok = all(abs(z) <= 3.0 for z in stats["z_scores"])
    return table, {
        "metrics": {**stats, "mean_steps": float(steps.mean())},
        "thresholds": {"abs_z_max": 3.0},
        "checks": {"born_frequencies": z_ok},
    }


def run_markov(cfg):
    m = cfg["delta_grid"]
    chain = build_markov_chain(m)
    exact = absorption_probabilities(chain)
    closed = np.cos(chain.thetas / 2.0) ** 2
    oracle_error = float(np.abs(exact - closed).max())
    starts = sorted({max(1, (m * k) // 6) for k in range(1, 6)})
    n_walks = cfg["trials"]
    absorbed, _ = run_ruin_walks(chain, starts, [cfg["seed"] + s for s in starts], n_walks)
    mc_freq = {}
    z_worst = 0.0
    for start, row in zip(starts, absorbed):
        freq = float(row.mean())
        mc_freq[start] = freq
        sigma = math.sqrt(max(exact[start] * (1 - exact[start]), 1e-12) / n_walks)
        z_worst = max(z_worst, abs(freq - exact[start]) / sigma)
    rows = zip(memoryview(chain.thetas), memoryview(exact),
               (mc_freq.get(i, "") for i in range(m + 1)))
    return (["theta", "exact_u", "mc_frequency"], rows), {
        "metrics": {
            "oracle_max_error": oracle_error,
            "walk_starts": starts,
            "mc_frequencies": [mc_freq[s] for s in starts],
            "worst_walk_z": z_worst,
        },
        "thresholds": {"oracle_max_error": 1e-10, "abs_z_max": 3.0},
        "checks": {
            "absorption_oracle": oracle_error < 1e-10,
            "walk_frequencies": z_worst <= 3.0,
        },
    }


def run_lens(cfg):
    target = (cfg["span"], cfg["displacement"])
    _check_steps(2.5 * math.hypot(*target) / LENS_DTAU + 10, "the lens ray")
    design = design_lens(target)
    # The design's ray has int(2.5 |target| / LENS_DTAU) + 10 > n_steps steps.
    n_steps = int(2.5 * cfg["span"] / LENS_DTAU)
    ray = design.ray[: n_steps + 1]
    q, v = ray[:, 0], ray[:, 1]
    taus = LENS_DTAU * np.arange(n_steps + 1)
    rows = _rows(taus, q[:, 0], q[:, 1], ray_energy(q, v, design.field))
    return (["tau", "q0", "q1", "energy"], rows), {
        "metrics": {
            "miss_distance": design.miss,
            "amplitude": design.amplitude,
            "width": design.width,
            "center": [float(c) for c in design.center],
        },
        "thresholds": {"miss_distance": LENS_MISS_TOL},
        "checks": {"lens_miss": design.miss < LENS_MISS_TOL},
    }


def run_epr(cfg):
    a_sq = cfg["a_sq"]
    state = SingletSectorState(math.sqrt(a_sq), math.sqrt(1.0 - a_sq))
    region = _region(cfg, state.effective_spinor)
    first, second, _ = run_epr_batch(state, cfg["seed"], cfg["trials"], region)
    stats = epr_statistics(first, second, cfg["seed"])
    freq = stats["counts_plus_minus"] / stats["n_trials"]
    sigma = math.sqrt(max(a_sq * (1 - a_sq), 1e-12) / stats["n_trials"])
    z = (freq - a_sq) / sigma if sigma > 0 else 0.0
    return None, {
        "metrics": {**stats, "frequency_plus_minus": freq, "z_score": z},
        "thresholds": {"anti_correlation_violations": 0, "abs_z_max": 3.0},
        "checks": {
            "anti_correlation": stats["anti_correlation_violations"] == 0,
            "sector_frequency": abs(z) <= 3.0,
        },
    }


def run_e2_split(cfg):
    # Field along the negative Y axis takes the spin-up state through
    # (cos wt, sin wt) with w = mu b0 / hbar; a quarter period of
    # pi/(4 |w|) lands on the equal superposition (1, sign(w))/sqrt(2),
    # which the measurement then splits 50/50.
    b0 = cfg["b0"]
    params = FieldParams((0.0, -b0, 0.0), cfg["mu"], cfg["hbar"])
    if cfg["mu"] * b0 == 0.0:
        raise ConfigError(f"mu*b0 = {cfg['mu']}*{b0} underflows to 0")
    if cfg["t_final"] is None:
        cfg["t_final"] = (math.pi / 4.0) * cfg["hbar"] / abs(cfg["mu"] * b0)
        if cfg["t_final"] == 0.0:
            raise ConfigError(f"the quarter turn (pi/4) hbar/|mu b0| underflows to 0 "
                              f"at mu*b0 = {cfg['mu'] * b0}; set --t-final")
    traj = _trajectory(cfg, Spinor(1.0, 0.0), params, cfg["t_final"])
    terminal = evolve_exact(Spinor(1.0, 0.0), params, cfg["t_final"])
    target = np.array([1.0, math.copysign(1.0, cfg["mu"] * b0)]) / math.sqrt(2.0)
    split_error = float(np.abs(terminal.vector - target).max())
    region = _region(cfg, terminal)
    outcomes, steps = run_collapse_batch(terminal, region, cfg["seed"], cfg["trials"])
    stats = born_statistics(outcomes, 0.5)
    z_ok = all(abs(z) <= 3.0 for z in stats["z_scores"])
    table = _TRAJECTORY_HEADER, _rows(traj.times, *traj.states.view(float).T)
    return table, {
        "metrics": {
            "terminal_state_error": split_error,
            "numeric_vs_exact": float(np.abs(traj.states[-1] - terminal.vector).max()),
            **stats,
            "mean_steps": float(steps.mean()),
        },
        "thresholds": {"terminal_state_error": 1e-10, "abs_z_max": 3.0},
        "checks": {
            "terminal_state": split_error < 1e-10,
            "collapse_frequencies": z_ok,
        },
    }


RUNNERS = {
    "evolve": run_evolve,
    "bloch": run_bloch,
    "curvature": run_curvature,
    "uncertainty": run_uncertainty,
    "born": run_born,
    "markov": run_markov,
    "lens": run_lens,
    "epr": run_epr,
    "e2-split": run_e2_split,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # One "error:" line from main's handler, not argparse's usage block.
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spinsphere",
        description="Seeded experiments on the geometry of two-level quantum states.",
    )
    parser.add_argument("experiment", choices=RUNNERS)
    parser.add_argument("--config", help="flat KEY=VALUE file; flags override it")
    parser.add_argument("--out", default="out", help="output directory")
    for key, param in PARAMS.items():
        flag = "--" + key.replace("_", "-")
        if param.switch:
            parser.add_argument(flag, action="store_const", const=1, help=param.help)
            continue
        default = "" if param.default is None else f" (default: {param.default})"
        parser.add_argument(flag, type=param.type, help=param.help + default)
    return parser


def main(argv=None) -> int:
    experiment = "spinsphere"
    made = []
    try:
        args = build_parser().parse_args(argv)
        experiment = args.experiment
        cfg = resolve_config(args)
        out_dir = Path(args.out)
        made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
        out_dir.mkdir(parents=True, exist_ok=True)
        table, body = RUNNERS[experiment](cfg)
        stem = experiment.replace("-", "_")
        if table:
            write_csv(out_dir / f"{stem}_0.csv", *table)
        checks = body["checks"]
        passed = all(checks.values())
        report = {"experiment": experiment, "seed": cfg["seed"], "config": cfg, **body,
                  "pass": passed}
        write_json_report(out_dir / f"{stem}_report.json", report)
        failed = "" if passed else " failed=" + ",".join(k for k, ok in checks.items() if not ok)
        print(f"{experiment}: {'PASS' if passed else 'FAIL'}{failed}")
        return 0 if passed else 1
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        print(f"error: {experiment}: out of memory{detail}", file=sys.stderr)
        return 2
    except (CollapseTimeoutError, LensSearchError) as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        return 3
    finally:
        # A run that wrote nothing leaves none of the directories it made.
        for directory in made:
            with contextlib.suppress(OSError):
                directory.rmdir()


if __name__ == "__main__":
    sys.exit(main())
