"""Stochastic measurement model: fluctuating sources, capture, Born rule.

Measurement is modeled by two field sources, one anchored at each
eigenstate of the measured component.  Each source fluctuates over the
sphere of states as white noise in angular coordinates (theta, alpha,
beta) centered on its own eigenstate: theta on (-pi, pi] with density
(1/pi) cos^2(theta/2), alpha uniform on (-pi/2, pi/2], beta uniform on
(-pi, pi].  When a source lands inside a small angular box around the
measured state's coordinates, it captures the state, which collapses to
that source's eigenstate.  For a state at polar distance theta0 from an
eigenstate the per-step capture probability is, to first order in the box,

    dP = (1 / (2 pi^3)) cos^2(theta0 / 2) dV,      dV = box volume,

so competition between the two sources reproduces the Born weights
cos^2(theta0/2) : sin^2(theta0/2) in the small-box limit; `capture_law`
gives the exact per-tick probabilities of the engine.

The same absorption statistics arise from a coarser description: a
nearest-neighbor Markov chain on the grid theta_i = i pi / m whose
toward-zero bias is fixed by requiring h(theta) = cos^2(theta/2) to be
harmonic (a martingale), making the absorption probabilities equal h
exactly.  Both mechanisms, plus the exact linear-solve oracle for the
chain, live here.  The walks run in blocks of ticks like the kernel, and a
draw b steps its walk toward 0 when b >> 11 < ceil(p 2^53), i.e. u < p.

The capture kernel is the only code that maps draws to source
coordinates.  A trial reads six draws of its per-trial stream (see
`randomness`) per step, (theta, alpha, beta) for each source; draws u
stand for theta = F^-1(1 - u), alpha = pi/2 - pi u and beta = pi - 2 pi u.
The kernel never inverts F and turns no draw into a float: theta, alpha
and beta are each tested on the raw 64-bit draw against one exact integer
range per source, the grid points u = k 2^-53 of the box, so the capture
law is a product of three counts.  The kernel steps its live trials in
blocks of ticks, laid out (source, tick, row), that grow as the batch
thins: a tail of a few live trials takes a handful of long blocks.  Only
theta hits get the alpha, then the beta test, by small per-block tables
of draw offsets, starts and counts indexed by the hit's (source, tick).
A batch of fewer trials than half a buffer's rows, a single trial included,
is blocked as if it had that many, because below about half a buffer a
block's numpy calls cost more than its draws.
Draws are addressed by stream position, so the block widths change no
outcome.  The batch and single-trial paths share the kernel, so they
produce bit-identical outcomes.  A large batch of trials or of ruin walks
runs its kernel on contiguous slices in children forked for that batch by
`shards.sharded`, one started on each CPU the process may use, which exit
before the batch returns and die with the process that forked them; since
every trial and walk owns its stream, the outcomes do not depend on the
split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bloch import hopf_project, spinor_from_bloch
from .randomness import GOLDEN, TrialStream, bits_at, derive_keys, mix64
from .shards import sharded
from .su2 import Spinor

TWO_PI = 2.0 * math.pi
_REGION_MAX = math.pi / 8.0
# The step limit of a collapse trial, in every function that runs or scores one.
MAX_TRIAL_STEPS = 1_000_000
_TWO53 = 2**53
# The capture kernel advances trials in blocks of _BLOCK ticks and mixes the
# theta draws of at most _ROWS trials at a time, so that its two uint64
# buffers (512 KiB each) stay in a core's L2 cache.  Once at most half of
# cap = max(min(n, _ROWS), _ROWS // 2) trials are alive, a block spans up to
# _GROW times as many ticks, in proportion, so that rows times ticks stays
# within the buffers.  The floor of _ROWS // 2 widens the blocks of smaller
# batches and single trials: below about half a buffer, a block's numpy
# calls cost more than its draws.
_BLOCK = 32
_ROWS = 1024
_GROW = 16
# The ruin walks step slabs of at most _WALK_ROWS walks through blocks of
# _BLOCK ticks: a tick costs four numpy calls per slab, which outweigh the
# draws of 1,024 walks.  Their buffer holds 2 _BLOCK _WALK_ROWS draws (2 MiB).
_WALK_ROWS = 4096

# Bloch pole and tangent frame of each source chart (the chart is anchored
# at the source's own eigenstate; eigenstate 0 is the basis state (1, 0)).
_FRAMES = (
    (np.array([0.0, 0.0, -1.0]), np.array([1.0, 0.0, 0.0]), np.array([0.0, -1.0, 0.0])),
    (np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])),
)


class CollapseTimeoutError(RuntimeError):
    """A stochastic run exceeded its step budget before terminating."""


# ---------------------------------------------------------------------------
# Source distribution
# ---------------------------------------------------------------------------

def theta_cdf(theta):
    """F(theta) = (theta + sin(theta) + pi) / (2 pi)."""
    theta = np.asarray(theta, dtype=float)
    return (theta + np.sin(theta) + math.pi) / TWO_PI


# ---------------------------------------------------------------------------
# Capture geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CaptureRegion:
    """Angular half-widths of the capture box (each in (0, pi/8])."""

    d_theta: float
    d_alpha: float
    d_beta: float

    def __post_init__(self):
        for name, value in (
            ("d_theta", self.d_theta),
            ("d_alpha", self.d_alpha),
            ("d_beta", self.d_beta),
        ):
            if not 0.0 < value <= _REGION_MAX:
                raise ValueError(f"{name} must lie in (0, pi/8], got {value}")


DEFAULT_REGION = CaptureRegion(math.pi / 48.0, _REGION_MAX, _REGION_MAX)


def source_frame_coords(phi: Spinor, anchor: int) -> tuple[float, float, float]:
    """Coordinates (theta, alpha, beta) of a state in a source's chart.

    theta in (-pi, pi] is the signed polar distance from the anchor's
    projective point (the sign covers the second meridian of each
    alpha-curve), alpha in (-pi/2, pi/2] the azimuth, beta in (-pi, pi]
    the phase relative to the reference section of the fibration.
    """
    if anchor not in (0, 1):
        raise ValueError("anchor must be 0 or 1")
    v = hopf_project(phi)
    pole, ex, ey = _FRAMES[anchor]
    sx, sy = float(np.dot(v, ex)), float(np.dot(v, ey))
    polar = math.atan2(math.hypot(sx, sy), float(np.dot(v, pole)))
    azimuth = math.atan2(sy, sx)
    if -math.pi / 2.0 < azimuth <= math.pi / 2.0:
        theta, alpha = polar, azimuth
    elif azimuth > math.pi / 2.0:
        theta, alpha = -polar, azimuth - math.pi
    else:
        theta, alpha = -polar, azimuth + math.pi
    ref = spinor_from_bloch(v)
    inner = phi.inner(ref)
    beta = math.atan2(inner.imag, inner.real)
    return theta, alpha, beta


def _theta_u_interval(theta_c: float, d_theta: float) -> tuple[float, float]:
    """CDF values (lo, hi) of the box ends; lo > hi when the box wraps."""
    lo, hi = theta_c - d_theta, theta_c + d_theta
    if lo < -math.pi:
        lo += TWO_PI
    elif hi > math.pi:
        hi -= TWO_PI
    return float(theta_cdf(lo)), float(theta_cdf(hi))


def _theta_bit_range(lo: float, hi: float) -> tuple[int, int]:
    """Circular range (start, count) of raw draws b whose 1 - u lies in the box.

    u = k 2^-53 with k = b >> 11, so 1 - u = (2^53 - k) 2^-53 is exact and
    lo <= 1 - u <= hi holds exactly for 2^53 - floor(hi 2^53) <= k <=
    2^53 - ceil(lo 2^53).  A wrapped box (lo > hi) is the union of
    [lo, 1] and [0, hi], which join across k = 0 into one circular range.
    """
    first = _TWO53 - math.floor(hi * _TWO53)
    last = min(_TWO53 - math.ceil(lo * _TWO53), _TWO53 - 1)
    count = last - first + 1 + (_TWO53 if lo > hi else 0)
    return (first << 11) % 2**64, count << 11


def _circle_bit_range(center: float, halfwidth: float) -> tuple[int, int]:
    """Circular range (start, count) of raw draws b whose u lies in the arc.

    u = k 2^-53 with k = b >> 11 lies within halfwidth (< 1/2) of center on
    the unit circle exactly for ceil((center - halfwidth) 2^53) <= k <=
    floor((center + halfwidth) 2^53) mod 2^53, here in exact rationals.
    """
    c, w = Fraction(center), Fraction(halfwidth)
    first = math.ceil((c - w) * _TWO53)
    return (first << 11) % 2**64, (math.floor((c + w) * _TWO53) - first + 1) << 11


def _source_window(phi: Spinor, anchor: int, region: CaptureRegion) -> tuple:
    """Raw-draw ranges (start, count) of theta, alpha and beta of a source.

    Its draws b capture phi when (b - start) mod 2^64 < count holds for all
    three; alpha = pi/2 - pi u and beta = pi - 2 pi u make the alpha and
    beta boxes arcs of the unit circle in u.
    """
    theta_c, alpha_c, beta_c = source_frame_coords(phi, anchor)
    return (
        _theta_bit_range(*_theta_u_interval(theta_c, region.d_theta)),
        _circle_bit_range((math.pi / 2.0 - alpha_c) / math.pi, region.d_alpha / math.pi),
        _circle_bit_range((math.pi - beta_c) / TWO_PI, region.d_beta / TWO_PI),
    )


def capture_law(phi: Spinor, region: CaptureRegion) -> tuple[Fraction, Fraction]:
    """Exact per-tick capture probabilities (p0, p1) of the two sources.

    Source k captures phi on a tick when its three draws fall in the
    ranges of _source_window, so p_k is the product of their counts over
    2^192.
    """
    return tuple(
        Fraction(math.prod(count for _, count in _source_window(phi, k, region)), 2**192)
        for k in (0, 1)
    )


def timeout_chance(phi: Spinor, region: CaptureRegion, n_trials: int,
                   max_steps: int = MAX_TRIAL_STEPS) -> float:
    """Chance by capture_law that run_collapse_batch(phi, region, seed,
    n_trials, max_steps) has a trial that exceeds max_steps.

    A tick captures with p_any = p0 + p1 - p0 p1, so a trial times out with
    q = (1 - p_any)^max_steps and some trial of the batch with
    1 - (1 - q)^n_trials, here in log1p/expm1 form.
    """
    p0, p1 = capture_law(phi, region)
    q = math.exp(max_steps * math.log1p(-float(p0 + p1 - p0 * p1)))
    return -math.expm1(n_trials * math.log1p(-q)) if q < 1.0 else 1.0


# ---------------------------------------------------------------------------
# Collapse trials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CollapseOutcome:
    """Result of one measurement trial."""

    eigenstate: int
    steps: int

    def __post_init__(self):
        if self.eigenstate not in (0, 1):
            raise ValueError("eigenstate must be 0 or 1")


def _run_trials(windows, keys, start, max_steps):
    """Capture kernel of the batch and single-trial paths.

    Step t (from 0) of the trial on stream keys[r] reads draws
    start + 6 t + 3 k + (0, 1, 2) as the (theta, alpha, beta) of source k.
    Returns (eigenstates, steps); a trial without a capture within
    max_steps keeps eigenstate -1.  Entry [k, t, r] of a slab's block is
    the raw theta draw of source k at tick t for the slab's row r, so each
    source's theta test is one pass over a contiguous half of the block.
    A hit's flat entry is kt rows + r with kt = k width + t, which indexes
    per-block tables of 2 width draw offsets (j + 1) GOLDEN, starts and
    counts: an alpha or beta round is one gather of keys, one mix64 and one
    test on the hits left, and compacts only (kt, row).

    A block spans _BLOCK ticks times min(_GROW, max(1, cap // alive)), with
    cap = max(min(n, _ROWS), _ROWS // 2) and alive the live trials, clipped
    at max_steps.  The floor of _ROWS // 2 gives a smaller batch, or a
    single trial, wide blocks from its first tick: below about half a
    buffer, a block's numpy calls cost more than its draws.  Growth needs
    alive <= cap // 2 < _ROWS, so a grown block is one slab of
    alive * 2 _BLOCK min(_GROW, cap // alive) <= 2 _BLOCK min(cap, _GROW n)
    theta draws, the size of the buffers; a slab of _BLOCK ticks holds
    2 _BLOCK min(alive, _ROWS) <= 2 _BLOCK min(cap, n) draws.
    """
    n = keys.size
    cap = max(min(n, _ROWS), _ROWS // 2)
    eigenstates = np.full(n, -1, dtype=np.int8)
    steps = np.zeros(n, dtype=np.int64)
    # Raw-draw range (starts, counts)[c, k] of coordinate c of source k.
    starts, counts = np.array(windows, dtype=np.uint64).transpose(2, 1, 0)
    beta_grid = (counts[2] >> 11).astype(np.int64)
    # Entry [0 or 1, c - 1, k] is the start or count of alpha (c = 1) or beta.
    ab_ranges = np.array((starts[1:], counts[1:]))
    # Entry [k, t] is the offset 6 t + 3 k of the theta draw of source k at
    # tick t of a block; the alpha and beta draws follow it.
    ticks = min(_BLOCK * _GROW, max_steps)
    offsets = (6 * np.arange(ticks) + np.array([[0], [3]])).astype(np.uint64)
    ab_next = np.array([2, 3], dtype=np.uint64).reshape(2, 1, 1)
    bits_buf = np.empty(2 * _BLOCK * min(cap, _GROW * n), dtype=np.uint64)
    scratch_buf = np.empty_like(bits_buf)
    hit_buf = np.empty(bits_buf.size, dtype=bool)
    alive = np.arange(n)
    tick0 = 0
    while alive.size and tick0 < max_steps:
        blk = _BLOCK * min(_GROW, max(1, cap // alive.size))
        width = min(blk, max_steps - tick0)
        # Entry [k, t] is the index of the theta draw of source k at tick t.
        draws = offsets[:, :width] + np.uint64(start + 6 * tick0)
        alive_keys = keys[alive]
        hits = []
        for r0 in range(0, alive.size, _ROWS):
            rows = min(_ROWS, alive.size - r0)
            size = 2 * width * rows
            bits = bits_buf[:size].reshape(2, width, rows)
            bits_at(alive_keys[r0 : r0 + rows], draws[:, :, None],
                    out=bits, scratch=scratch_buf[:size].reshape(2, width, rows))
            hit = hit_buf[:size].reshape(2, width, rows)
            for k in (0, 1):
                np.subtract(bits[k], starts[0, k], out=bits[k])
                np.less(bits[k], counts[0, k], out=hit[k])
            f = hit_buf[:size].nonzero()[0]
            kt = f // rows
            row = f - kt * rows
            hits.append((kt, row + r0 if r0 else row))
        kt, row = hits[0] if len(hits) == 1 else map(np.concatenate, zip(*hits))
        # Row c - 1 of each table is indexed by kt: the alpha or beta draw's
        # (j + 1) GOLDEN, and its source's start and count.
        ab_steps = np.multiply(draws + ab_next, GOLDEN).reshape(2, -1)
        ab_start, ab_count = np.repeat(ab_ranges, width, axis=2)
        for c in (1, 2):  # alpha, then beta, of the draws that hit so far
            off = alive_keys[row]
            off += ab_steps[c - 1][kt]
            mix64(off, out=off)
            off -= ab_start[c - 1][kt]
            ok = (off < ab_count[c - 1][kt]).nonzero()[0]
            kt, row = kt[ok], row[ok]
        if row.size:
            # First capture per row; on a shared tick the beta draw nearer
            # the centre of its range wins (distance in half grid steps) and
            # an exact tie goes to source 0.  off[ok] holds the beta offsets.
            k, tick = np.divmod(kt, width)
            dist = np.abs(2 * (off[ok] >> 11).astype(np.int64) + 1 - beta_grid[k])
            order = np.lexsort((k, dist, tick, row))
            row, tick, k = row[order], tick[order], k[order]
            first = np.flatnonzero(np.concatenate(([True], row[1:] != row[:-1])))
            done = row[first]
            eigenstates[alive[done]] = k[first]
            steps[alive[done]] = tick0 + tick[first] + 1
            keep = np.ones(alive.size, dtype=bool)
            keep[done] = False
            alive = alive[keep]
        tick0 += blk
    return eigenstates, steps


def run_collapse_trial(
    phi: Spinor,
    region: CaptureRegion,
    rng: TrialStream,
    max_steps: int = MAX_TRIAL_STEPS,
) -> CollapseOutcome:
    """Run one single-push measurement trial.

    Two sources anchored at the eigenstates sample independently each
    step; the state is held static between samples (high-frequency limit
    of the source noise).  The first source whose box contains the state's
    coordinates decides the outcome; if both capture on the same step the
    tie goes to the source whose beta draw lies nearer the centre of its
    range (a fair, draw-free coin).  The trial consumes six draws of rng per step.

    Raises CollapseTimeoutError if no capture occurs within max_steps.
    """
    windows = tuple(_source_window(phi, k, region) for k in (0, 1))
    start = rng.position
    eigenstates, steps = _run_trials(windows, np.array([rng.key]), start, max_steps)
    if eigenstates[0] < 0:
        rng.skip(6 * max_steps)
        raise CollapseTimeoutError(f"no capture within {max_steps} steps")
    n = int(steps[0])
    rng.skip(6 * n)
    return CollapseOutcome(eigenstate=int(eigenstates[0]), steps=n)


def run_collapse_batch(
    phi: Spinor,
    region: CaptureRegion,
    seed: int,
    n_trials: int,
    max_steps: int = MAX_TRIAL_STEPS,
) -> tuple[np.ndarray, np.ndarray]:
    """Run n_trials independent trials; returns (eigenstates, steps).

    Trial i draws from the stream derived from (seed, i), exactly as a
    run_collapse_trial call with TrialStream(seed, i) would, so the two
    code paths agree bit for bit.  The trials advance in blocks of _BLOCK
    ticks while more than half of max(min(n_trials, _ROWS), _ROWS // 2)
    trials are alive, and of up to _GROW times as many ticks, in the same
    buffers, as fewer are; so a batch of fewer than _ROWS // 2 trials
    starts in wide blocks, since below about half a buffer a block's numpy
    calls cost more than its draws.  A block holds the theta draws by
    source, then tick, then trial, and tests each source's half on the raw
    64-bit values against its one integer range, with no float conversion.
    Only at the theta hits are the alpha and beta draws evaluated, by the
    same integer test (the streams are counter-based, so skipping draws is
    free), and one sort of the sparse captures picks each trial's first.

    A batch of at least shards._MIN_ITEMS trials is split into one
    contiguous slice per CPU of the process's affinity mask, each run by a
    child forked for this batch and reaped before it returns.  The
    outcomes are the same bit for bit on any number of CPUs; `taskset -c 0`
    keeps every batch in the calling process.

    Raises CollapseTimeoutError if any trial fails to terminate within
    max_steps.
    """
    windows = tuple(_source_window(phi, k, region) for k in (0, 1))
    keys = derive_keys(seed, np.arange(n_trials))
    eigenstates, steps = sharded(
        lambda lo, hi: _run_trials(windows, keys[lo:hi], 0, max_steps),
        n_trials, (np.int8, np.int64))
    left = int(np.count_nonzero(eigenstates < 0))
    if left:
        raise CollapseTimeoutError(
            f"{left} of {n_trials} trials exceeded {max_steps} steps"
        )
    return eigenstates, steps


def born_statistics(outcomes: np.ndarray, expected_p0: float) -> dict:
    """Counts, frequencies, and z-scores against the expected Born weight."""
    n = int(outcomes.size)
    counts = [int(np.sum(outcomes == 0)), int(np.sum(outcomes == 1))]
    expected = [expected_p0, 1.0 - expected_p0]
    sigma = math.sqrt(max(expected_p0 * (1.0 - expected_p0), 1e-300) / n)
    freqs = [c / n for c in counts]
    z_scores = [(freqs[k] - expected[k]) / sigma for k in (0, 1)]
    return {
        "n_trials": n,
        "per_eigenstate_counts": counts,
        "frequencies": freqs,
        "expected": expected,
        "z_scores": z_scores,
    }


# ---------------------------------------------------------------------------
# Absorbing Markov chain
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MarkovChainModel:
    """Nearest-neighbor collapse walk on theta_i = i pi / m.

    States 0 and m are absorbing; from interior state i the walk steps
    toward 0 with probability toward_zero_prob[i - 1].
    """

    m: int
    thetas: np.ndarray
    toward_zero_prob: np.ndarray


def build_markov_chain(m: int) -> MarkovChainModel:
    """Bias the walk so h(theta) = cos^2(theta/2) is exactly harmonic.

    Solving p h_{i-1} + (1 - p) h_{i+1} = h_i gives
    p_i = (h_i - h_{i+1}) / (h_{i-1} - h_{i+1}); h is strictly decreasing
    on [0, pi], so every p_i lies in (0, 1).
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    thetas = np.arange(m + 1) * (math.pi / m)
    h = np.cos(thetas / 2.0) ** 2
    p = (h[1:-1] - h[2:]) / (h[:-2] - h[2:])
    residual = np.abs(p * h[:-2] + (1.0 - p) * h[2:] - h[1:-1]).max()
    if residual > 1e-14 or p.min() < 0.0 or p.max() > 1.0:
        raise AssertionError("harmonicity construction failed")
    thetas.flags.writeable = False
    p.flags.writeable = False
    return MarkovChainModel(m=m, thetas=thetas, toward_zero_prob=p)


def absorption_probabilities(chain: MarkovChainModel) -> np.ndarray:
    """Exact linear-solve oracle for absorption at theta = 0.

    Solves u_i = p_i u_{i-1} + (1 - p_i) u_{i+1} with u_0 = 1, u_m = 0.
    """
    m = chain.m
    p = chain.toward_zero_prob
    a = np.zeros((m + 1, m + 1))
    rhs = np.zeros(m + 1)
    a[0, 0] = 1.0
    rhs[0] = 1.0
    a[m, m] = 1.0
    for i in range(1, m):
        a[i, i] = 1.0
        a[i, i - 1] = -p[i - 1]
        a[i, i + 1] = -(1.0 - p[i - 1])
    u = np.linalg.solve(a, rhs)
    if np.abs(a @ u - rhs).max() > 1e-10:
        raise np.linalg.LinAlgError("absorption system solve failed")
    return u


def _walk_thresholds(chain: MarkovChainModel) -> np.ndarray:
    """Entry _BLOCK + i: ceil(p_i 2^53) inside, 2^53 (toward 0) at i <= 0, 0 (away) at i >= m."""
    pad = np.full(_BLOCK + 1, _TWO53)
    return np.r_[pad, np.ceil(chain.toward_zero_prob * _TWO53), 0 * pad].astype(np.uint64)


def _run_walks(thresholds, m, keys, start, max_steps):
    """Walk kernel: walk r starts at state start[r] and draws from keys[r].

    Returns (absorbed_at_zero, steps); a walk not absorbed within max_steps
    has steps -1.  Each block of _BLOCK ticks makes one bits_at call per
    slab of at most _WALK_ROWS alive walks into a buffer of that bound,
    2 _BLOCK _WALK_ROWS draws with their scratch.  An absorbed walk keeps
    stepping away, so its overshoot at the end of the block gives its last
    step; `alive` is compacted once per block.
    """
    n = keys.size
    absorbed, steps = np.zeros(n, dtype=bool), np.full(n, -1, dtype=np.int64)
    # At tick c of a block, pos = position + c (+2 per step away, +0 toward 0) indexes views[c].
    views = [thresholds[_BLOCK - c :] for c in range(_BLOCK)]
    alive, position = np.arange(n), np.array(start)
    buf = np.empty((2, _BLOCK * min(n, _WALK_ROWS)), dtype=np.uint64)
    tick0 = 0
    while alive.size and tick0 < max_steps:
        width = min(_BLOCK, max_steps - tick0)
        for r0 in range(0, alive.size, _WALK_ROWS):
            pos = position[r0 : r0 + _WALK_ROWS]
            bits, scratch = buf[:, : width * pos.size].reshape(2, width, pos.size)
            bits_at(keys[r0 : r0 + pos.size], np.arange(tick0, tick0 + width)[:, None],
                    out=bits, scratch=scratch)
            np.right_shift(bits, np.uint64(11), out=bits)
            thr, away = np.empty(pos.size, dtype=np.uint64), np.empty(pos.size, dtype=bool)
            for view, row in zip(views, bits):
                view.take(pos, out=thr, mode="clip")  # in range; "raise" would buffer
                np.greater_equal(row, thr, out=away)
                pos += away
                pos += away
            pos -= width
        overshoot = np.maximum(-position, position - m)
        done = overshoot >= 0
        absorbed[alive[done]] = position[done] <= 0
        steps[alive[done]] = tick0 + width - overshoot[done]
        alive, keys, position = alive[~done], keys[~done], position[~done]
        tick0 += width
    return absorbed, steps


def run_ruin_walks(
    chain: MarkovChainModel,
    start_index,
    seed,
    n_walks: int,
    max_steps: int = 10_000_000,
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo walks; returns (absorbed_at_zero, steps) per walk.

    start_index and seed broadcast against each other to the shape of the
    groups, () for two scalars; the results have that shape plus
    (n_walks,).  Walk w of a group starts at its start_index and tests
    draw t of the stream (its seed, w) at step t against
    `_walk_thresholds`, so each group equals the call with its own scalars.
    All groups run as one batch, split over the CPUs like a collapse batch
    once it holds shards._MIN_ITEMS walks; each slice steps its walks in
    slabs of at most _WALK_ROWS through blocks of _BLOCK ticks.

    Raises CollapseTimeoutError if any walk is not absorbed within
    max_steps.
    """
    starts, seeds = np.broadcast_arrays(start_index, np.array(seed, dtype=object))
    if not np.all((0 < starts) & (starts < chain.m)):
        raise ValueError("start_index must be an interior state")
    walks = np.arange(n_walks)
    keys = np.array([derive_keys(s, walks) for s in seeds.flat], dtype=np.uint64).ravel()
    position = np.repeat(starts.ravel(), n_walks)
    thresholds = _walk_thresholds(chain)
    absorbed, steps = sharded(
        lambda lo, hi: _run_walks(thresholds, chain.m, keys[lo:hi], position[lo:hi], max_steps),
        keys.size, (bool, np.int64))
    left = int(np.count_nonzero(steps < 0))
    if left:
        raise CollapseTimeoutError(f"{left} of {keys.size} walks exceeded {max_steps} steps")
    shape = starts.shape + (n_walks,)
    return absorbed.reshape(shape), steps.reshape(shape)
