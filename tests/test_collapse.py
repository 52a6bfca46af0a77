"""Collapse-engine tests: source law, capture geometry, Born statistics.

Analytic oracles:
  * F(theta) = (theta + sin theta + pi) / (2 pi), checked against
    quadrature of the density, since the capture kernel's theta ranges
    are built on it;
  * E[cos theta] = 1/2 from the same integral;
  * capture ratios against the theta box masses of the exact capture
    law, which tend to cos^2 / sin^2 as the box shrinks;
  * the finite-box law 1/2 + (1/2)(sin d/d) cos theta0 of a wide box.
Statistical assertions run at 3 sigma with frozen seeds (the engine is
bit-reproducible, so these are fixed test vectors, not flaky checks).
"""

import hashlib
import math
import os
import signal
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, stats
from test_randomness import stream_uniforms

from spinsphere import collapse, shards
from spinsphere.collapse import (
    DEFAULT_REGION,
    CaptureRegion,
    CollapseOutcome,
    CollapseTimeoutError,
    born_statistics,
    build_markov_chain,
    capture_law,
    run_collapse_batch,
    run_collapse_trial,
    run_ruin_walks,
    source_frame_coords,
    theta_cdf,
)
from spinsphere.collapse import (
    _circle_bit_range,
    _run_trials,
    _source_window,
    _theta_bit_range,
    _theta_u_interval,
)
from spinsphere.randomness import TrialStream, bits_at, derive_keys, uniforms_at
from spinsphere.su2 import Spinor

N_BIG = 100_000


def state_with_weight(c1_sq: float) -> Spinor:
    return Spinor(math.sqrt(c1_sq), math.sqrt(1.0 - c1_sq))


def theta_pdf(theta):
    """The sources' theta density (1/pi) cos^2(theta/2) on (-pi, pi]."""
    return (1.0 + math.cos(theta)) / (2.0 * math.pi)


# ---------------------------------------------------------------------------
# Theta law
# ---------------------------------------------------------------------------

def test_density_normalizes_and_matches_cdf():
    total, _ = integrate.quad(theta_pdf, -math.pi, math.pi)
    assert total == pytest.approx(1.0, abs=1e-12)
    for theta in (-2.5, -0.3, 0.0, 0.4, 1.1, 3.0):
        partial, _ = integrate.quad(theta_pdf, -math.pi, theta)
        assert theta_cdf(theta) == pytest.approx(partial, abs=1e-10)
    assert theta_cdf(0.0) == pytest.approx(0.5)
    assert theta_cdf(-math.pi) == 0.0
    assert theta_cdf(math.pi) == 1.0


def test_expected_cosine_is_half():
    value, _ = integrate.quad(lambda t: math.cos(t) * theta_pdf(t), -math.pi, math.pi)
    assert value == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# Draws the capture kernel reads
# ---------------------------------------------------------------------------

def _count_in_theta_range(bits, lo, hi):
    """Raw theta draws whose 1 - u lies in [lo, hi], by the kernel's test."""
    start, count = _theta_bit_range(lo, hi)
    return int(np.count_nonzero(bits - np.uint64(start) < np.uint64(count)))


def _theta_bin_counts(bits, edges):
    """Counts of raw theta draws in the theta bins `edges`, and their law."""
    cdf = theta_cdf(edges)
    counts = [_count_in_theta_range(bits, lo, hi) for lo, hi in zip(cdf[:-1], cdf[1:])]
    return np.asarray(counts), np.diff(cdf)


def test_sampler_chi_square_binned():
    # Source 0's theta draws (positions 6 t) binned through the exact bit
    # ranges of 40 equal theta bins.
    bits = bits_at(TrialStream(353, 0).key, 6 * np.arange(N_BIG))
    counts, p = _theta_bin_counts(bits, np.linspace(-math.pi, math.pi, 41))
    assert counts.sum() == N_BIG
    assert stats.chisquare(counts, p * N_BIG).pvalue > 0.001


def test_sampler_median_and_mean():
    # The law's median is 0 (F(0) = 1/2). Means of theta and cos theta are
    # taken over 400 bins at their midpoints and checked at 3 sigma against
    # the same midpoints weighted by the law; the binned E[cos theta] sits
    # within 1e-4 of 1/2.
    bits = bits_at(TrialStream(57, 0).key, 6 * np.arange(N_BIG))
    below = _count_in_theta_range(bits, 0.0, float(theta_cdf(0.0)))
    assert abs(below - N_BIG / 2) < 3.0 * math.sqrt(N_BIG / 4)
    edges = np.linspace(-math.pi, math.pi, 401)
    counts, p = _theta_bin_counts(bits, edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    for values in (mid, np.cos(mid)):
        mean = float(np.dot(p, values))
        var = float(np.dot(p, values * values)) - mean * mean
        assert abs(float(np.dot(counts, values)) / N_BIG - mean) < 3.0 * math.sqrt(var / N_BIG)
    assert float(np.dot(p, np.cos(mid))) == pytest.approx(0.5, abs=1e-4)


def test_sampler_lag1_uncorrelated():
    # One source on successive ticks reads positions 6 t and 6 t + 6.
    source0 = uniforms_at(TrialStream(59, 0).key, 6 * np.arange(N_BIG + 1))
    r = float(np.corrcoef(source0[:-1], source0[1:])[0, 1])
    assert abs(r) < 3.0 / math.sqrt(N_BIG)


def test_sources_independent():
    # The two sources at one tick read positions 6 t and 6 t + 3.
    key = TrialStream(60, 0).key
    source0 = uniforms_at(key, 6 * np.arange(N_BIG))
    source1 = uniforms_at(key, 6 * np.arange(N_BIG) + 3)
    r = float(np.corrcoef(source0, source1)[0, 1])
    assert abs(r) < 3.0 / math.sqrt(N_BIG)


# ---------------------------------------------------------------------------
# Capture geometry
# ---------------------------------------------------------------------------

def test_capture_region_guard():
    with pytest.raises(ValueError):
        CaptureRegion(0.0, 0.1, 0.1)
    with pytest.raises(ValueError):
        CaptureRegion(0.1, math.pi / 4, 0.1)


def theta_box_mass(theta0, d):
    """Mass (d + cos(theta0) sin(d)) / pi of the theta density on the box
    [theta0 - d, theta0 + d]; to first order in d, (2 d / pi) cos^2(theta0/2)."""
    return (d + math.cos(theta0) * math.sin(d)) / math.pi


def test_capture_probability_values():
    # Source 0 at polar distance theta0 = 2 acos(|c1|) from the state.  Its
    # alpha and beta ranges do not depend on the state, so its capture
    # probabilities relate as the theta box masses; at theta0 = pi only
    # the O(d^3) term is left.
    region = CaptureRegion(0.1, 0.1, 0.1)
    d = region.d_theta
    far, _ = capture_law(state_with_weight(0.0), region)
    near, _ = capture_law(state_with_weight(1.0), region)
    mid, _ = capture_law(state_with_weight(0.5), region)
    mass = theta_box_mass(math.pi, d), theta_box_mass(0.0, d), theta_box_mass(math.pi / 2, d)
    assert float(far / near) == pytest.approx(mass[0] / mass[1], rel=1e-9)
    assert float(far / near) < d**2
    assert float(near / mid) == pytest.approx(mass[1] / mass[2], rel=1e-9)
    assert float(near / mid) == pytest.approx(2.0, abs=d**2)


def test_capture_ratio_is_born_ratio():
    # p0/p1 for a state at theta0 from one source and pi - theta0 from the
    # other is the ratio of the theta box masses, which tends to
    # |c1|^2/|c2|^2 as the box shrinks, whatever its alpha and beta widths.
    for c1_sq in (0.2, 0.5, 0.85):
        theta0 = 2.0 * math.acos(math.sqrt(c1_sq))
        for region in (CaptureRegion(0.05, 0.1, 0.2), CaptureRegion(0.3, 0.3, 0.3)):
            p0, p1 = capture_law(state_with_weight(c1_sq), region)
            d = region.d_theta
            exact = theta_box_mass(theta0, d) / theta_box_mass(math.pi - theta0, d)
            assert float(p0 / p1) == pytest.approx(exact, rel=1e-9)
            assert float(p0 / p1) == pytest.approx(c1_sq / (1 - c1_sq), rel=d**2)


def test_source_frame_coords_of_eigenstates():
    up = Spinor(1.0, 0.0)
    down = Spinor(0.0, 1.0)
    assert source_frame_coords(up, 0)[0] == pytest.approx(0.0, abs=1e-12)
    assert abs(source_frame_coords(up, 1)[0]) == pytest.approx(math.pi, abs=1e-12)
    assert source_frame_coords(down, 1)[0] == pytest.approx(0.0, abs=1e-12)


def test_source_frame_theta_is_projective_distance():
    rng = np.random.default_rng(62)
    for _ in range(200):
        r = rng.normal(size=4)
        phi = Spinor(complex(r[0], r[1]), complex(r[2], r[3]))
        theta0 = abs(source_frame_coords(phi, 0)[0])
        assert math.cos(theta0 / 2.0) ** 2 == pytest.approx(
            abs(phi.c1) ** 2, abs=1e-12
        )
        theta1 = abs(source_frame_coords(phi, 1)[0])
        assert theta0 + theta1 == pytest.approx(math.pi, abs=1e-9)


def test_weighted_state_sits_at_pi_over_3():
    theta0 = abs(source_frame_coords(state_with_weight(0.75), 0)[0])
    assert theta0 == pytest.approx(math.pi / 3.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Collapse trials
# ---------------------------------------------------------------------------

def test_single_trial_outcome_shape():
    out = run_collapse_trial(state_with_weight(0.5), DEFAULT_REGION, TrialStream(42, 0))
    assert out.eigenstate in (0, 1)
    assert out.steps >= 1


def test_single_trial_timeout():
    rng = TrialStream(42, 0)
    with pytest.raises(CollapseTimeoutError):
        run_collapse_trial(
            state_with_weight(0.5),
            CaptureRegion(1e-4, 1e-4, 1e-4),
            rng,
            max_steps=50,
        )
    assert rng.position == 6 * 50


def test_batch_matches_single_trials_bitwise():
    phi = state_with_weight(0.3)
    out, steps = run_collapse_batch(phi, DEFAULT_REGION, seed=77, n_trials=30)
    for i in range(30):
        single = run_collapse_trial(phi, DEFAULT_REGION, TrialStream(77, i))
        assert single.eigenstate == out[i]
        assert single.steps == steps[i]


def test_batch_deterministic():
    phi = state_with_weight(0.6)
    a = run_collapse_batch(phi, DEFAULT_REGION, seed=5, n_trials=500)
    b = run_collapse_batch(phi, DEFAULT_REGION, seed=5, n_trials=500)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


WIDE_BOX = CaptureRegion(math.pi / 8, math.pi / 8, math.pi / 8)


def outcome_digest(outcomes, steps) -> str:
    return hashlib.sha256(
        outcomes.astype("<i1").tobytes() + steps.astype("<i8").tobytes()
    ).hexdigest()


_fork = os.fork


def force_workers(monkeypatch, workers):
    """Make `shards.sharded` see `workers` CPUs: with 1 every batch runs
    in this process, with more a large batch forks one child per CPU.
    Returns the list of child pids forked by the calls that follow."""
    forks = []

    def fork():
        pid = _fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(shards, "_worker_count", lambda: workers)
    monkeypatch.setattr(os, "fork", fork)
    return forks


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


BOTH_PATHS = pytest.mark.parametrize("workers", [1, 2], ids=["serial", "sharded"])


# Pinned (outcomes, steps) of the batch engine; any change to the capture
# kernel or to the sharding must leave these bit-identical on both paths.
@BOTH_PATHS
@pytest.mark.parametrize(
    "phi, region, seed, digest",
    [
        (state_with_weight(0.9), DEFAULT_REGION, 101,
         "126a2a2ccbda3c4951e172e54c967d2fd25168a1a65c9d019cd19d322657cfbc"),
        (state_with_weight(0.75), DEFAULT_REGION, 202,
         "7dd65604ea431a5bef9b901729d56123d65449855ddb8aa182978ef70c078806"),
        (state_with_weight(0.5), DEFAULT_REGION, 303,
         "b1f1aa20fd1c1516186106cee3db737f28b96ad061c3c711c1c05cdb60b6b8e5"),
        (Spinor(0.6, 0.8j), WIDE_BOX, 404,
         "2a7fa87c02ae53ccf3caa4c0945f40a0af50d2e0edff589e2db3e0a557bad924"),
    ],
)
def test_batch_golden_digest(phi, region, seed, digest, workers, monkeypatch):
    forks = force_workers(monkeypatch, workers)
    outcomes, steps = run_collapse_batch(phi, region, seed, 10_000)
    assert outcome_digest(outcomes, steps) == digest
    assert len(forks) == (workers if workers > 1 else 0)
    assert_reaped(forks)


def test_blocked_engines_do_not_depend_on_block_or_slab_width(monkeypatch):
    # Both blocked engines read draws by absolute stream position, so odd
    # block, slab and growth widths must give exactly the outputs of the
    # default widths with _GROW = 1, a kernel whose blocks never grow.
    # Batches of 2 and 64 trials lie below the floor of _ROWS // 2 rows, so
    # their blocks are wide from the first tick.  The 5,000 walks take two
    # slabs at the default _WALK_ROWS.
    chain = build_markov_chain(60)
    phi = state_with_weight(0.3)
    sizes = (2, 64, 1000)
    walks = 5000
    assert collapse._WALK_ROWS < walks < 2 * collapse._WALK_ROWS
    assert max(*sizes, walks) < shards._MIN_ITEMS  # the serial batch path

    def run_all():
        return [run_ruin_walks(chain, 20, 13, walks),
                *(run_collapse_batch(phi, WIDE_BOX, 14, n) for n in sizes)]

    grows = (1, 3, collapse._GROW)
    monkeypatch.setattr(collapse, "_GROW", 1)
    narrow = run_all()
    default = (collapse._BLOCK, collapse._ROWS, collapse._WALK_ROWS)
    for block, rows, walk_rows in (default, (5, 7, 7)):
        monkeypatch.setattr(collapse, "_BLOCK", block)
        monkeypatch.setattr(collapse, "_ROWS", rows)
        monkeypatch.setattr(collapse, "_WALK_ROWS", walk_rows)
        for grow in grows:
            monkeypatch.setattr(collapse, "_GROW", grow)
            for want, got in zip(narrow, run_all()):
                assert np.array_equal(want[0], got[0]) and np.array_equal(want[1], got[1])


def test_small_batches_and_single_trials_run_in_wide_blocks(monkeypatch):
    # Each theta block is one bits_at call with out= (every batch here fits
    # one slab).  A batch below _ROWS // 2 trials is blocked as one of
    # _ROWS // 2 trials; blocks sized by the batch alone took 7, 7 and 7
    # blocks for 64, 128 and 256 trials and 96 for the 20 single trials.  A
    # batch of 1,000 trials is above the floor and keeps its blocks.
    blocks = [0]

    def counting_bits_at(*args, **kwargs):
        blocks[-1] += "out" in kwargs
        return bits_at(*args, **kwargs)

    monkeypatch.setattr(collapse, "bits_at", counting_bits_at)
    phi = state_with_weight(0.3)
    for n in (64, 128, 256):
        run_collapse_batch(phi, WIDE_BOX, 14, n)
        blocks.append(0)
    for i in range(20):
        run_collapse_trial(phi, WIDE_BOX, TrialStream(606, i))
    blocks.append(0)
    run_collapse_batch(phi, DEFAULT_REGION, 14, 1000)
    assert blocks == [2, 3, 4, 20, 40]


@BOTH_PATHS
def test_grown_blocks_stop_at_the_step_limit(workers, monkeypatch):
    # At most 512 trials are alive from tick 384 of the serial run (288 of
    # each sharded half), so blocks grow to 64 and 96 ticks and the last is
    # clipped at 500 steps, a multiple of no block; some trials capture at
    # step 500 itself.  Captures and the timeout message must match a kernel
    # whose blocks never grow.
    n = shards._MIN_ITEMS + 1
    phi = state_with_weight(0.5)
    keys = derive_keys(42, np.arange(n))
    windows = tuple(_source_window(phi, k, WIDE_BOX) for k in (0, 1))

    def run_slice(lo, hi):
        return _run_trials(windows, keys[lo:hi], 0, 500)

    results = []
    for grow in (1, collapse._GROW):
        monkeypatch.setattr(collapse, "_GROW", grow)
        forks = force_workers(monkeypatch, workers)
        with pytest.raises(CollapseTimeoutError) as info:
            run_collapse_batch(phi, WIDE_BOX, 42, n, max_steps=500)
        results.append((str(info.value), shards.sharded(run_slice, n, (np.int8, np.int64))))
        assert len(forks) == (2 * workers if workers > 1 else 0)
        assert_reaped(forks)
    (message, (eig, steps)), (grown_message, (grown_eig, grown_steps)) = results
    assert message == grown_message
    assert message == f"{np.count_nonzero(eig < 0)} of {n} trials exceeded 500 steps"
    assert np.array_equal(eig, grown_eig) and np.array_equal(steps, grown_steps)
    assert 0 < np.count_nonzero(eig < 0) < n and steps.max() == 500


def test_sharded_batch_with_uneven_slices(monkeypatch):
    # Slices of 4,097 and 4,098 trials on 2 CPUs; 2,731, 2,732 and 2,732 on 3.
    args = (state_with_weight(0.3), WIDE_BOX, 606, shards._MIN_ITEMS + 3)
    force_workers(monkeypatch, 1)
    serial = run_collapse_batch(*args)
    for workers in (2, 3):
        forks = force_workers(monkeypatch, workers)
        outcomes, steps = run_collapse_batch(*args)
        assert len(forks) == workers
        assert np.array_equal(outcomes, serial[0]) and np.array_equal(steps, serial[1])


@BOTH_PATHS
def test_batch_timeout_counts_every_trial(workers, monkeypatch):
    n = shards._MIN_ITEMS + 1
    forks = force_workers(monkeypatch, workers)
    with pytest.raises(CollapseTimeoutError) as info:
        run_collapse_batch(state_with_weight(0.5), CaptureRegion(1e-4, 1e-4, 1e-4),
                           42, n, max_steps=50)
    assert str(info.value) == f"{n} of {n} trials exceeded 50 steps"
    assert len(forks) == (workers if workers > 1 else 0)
    assert_reaped(forks)


def test_batch_reruns_the_slice_of_a_killed_child(monkeypatch):
    args = (state_with_weight(0.3), WIDE_BOX, 707, shards._MIN_ITEMS)
    force_workers(monkeypatch, 1)
    serial = run_collapse_batch(*args)
    forks = force_workers(monkeypatch, 2)
    parent, first_key = os.getpid(), derive_keys(707, np.arange(1))[0]
    run_trials = collapse._run_trials

    def kill_first_child(windows, keys, start, max_steps):
        if os.getpid() != parent and keys[0] == first_key:
            os.kill(os.getpid(), signal.SIGKILL)
        return run_trials(windows, keys, start, max_steps)

    monkeypatch.setattr(collapse, "_run_trials", kill_first_child)
    for _ in range(2):
        outcomes, steps = run_collapse_batch(*args)
        assert np.array_equal(outcomes, serial[0]) and np.array_equal(steps, serial[1])
    # Each batch forked its own children and reaped them all.
    assert len(forks) == 4
    assert_reaped(forks)


def test_children_are_reaped_when_the_parent_raises(monkeypatch):
    forks = force_workers(monkeypatch, 2)
    waitpid, calls = os.waitpid, []

    def interrupted_waitpid(pid, options):
        calls.append(pid)
        if len(calls) == 1:
            raise KeyboardInterrupt
        return waitpid(pid, options)

    monkeypatch.setattr(os, "waitpid", interrupted_waitpid)
    with pytest.raises(KeyboardInterrupt):
        run_collapse_batch(state_with_weight(0.5), DEFAULT_REGION, 8,
                           shards._MIN_ITEMS)
    assert len(forks) == 2
    assert_reaped(forks)


def test_a_ctrl_c_right_after_a_fork_still_reaps_the_child(monkeypatch):
    forks = force_workers(monkeypatch, 2)
    fork = os.fork

    def fork_then_interrupt():
        pid = fork()
        if pid:
            os.kill(os.getpid(), signal.SIGINT)
        return pid

    monkeypatch.setattr(os, "fork", fork_then_interrupt)
    with pytest.raises(KeyboardInterrupt):
        run_collapse_batch(state_with_weight(0.5), DEFAULT_REGION, 8,
                           shards._MIN_ITEMS)
    assert len(forks) == 1
    assert_reaped(forks)


def test_more_children_than_cpus_are_placed_in_turn(tmp_path, monkeypatch):
    # Three children on a two-CPU mask: child i asks for CPU i mod 2 alone,
    # then for the whole mask again, and runs its slice itself.
    args = (state_with_weight(0.3), WIDE_BOX, 606, shards._MIN_ITEMS + 3)
    force_workers(monkeypatch, 1)
    serial = run_collapse_batch(*args)
    forks = force_workers(monkeypatch, 3)
    log, parent, run_trials, calls = tmp_path / "affinity", os.getpid(), _run_trials, []

    def record(pid, cpus):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {sorted(cpus)}\n")

    def count_calls_here(*a):
        if os.getpid() == parent:
            calls.append(a)
        return run_trials(*a)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {4, 7})
    monkeypatch.setattr(os, "sched_setaffinity", record)
    monkeypatch.setattr(collapse, "_run_trials", count_calls_here)
    outcomes, steps = run_collapse_batch(*args)
    assert np.array_equal(outcomes, serial[0]) and np.array_equal(steps, serial[1])
    assert len(forks) == 3 and not calls
    assert_reaped(forks)
    lines = log.read_text().splitlines()
    for pid, cpu in zip(forks, (4, 7, 4)):
        assert [line for line in lines if line.startswith(f"{pid} ")] == [
            f"{pid} [{cpu}]", f"{pid} [4, 7]"]
    assert len(lines) == 6


def test_a_sharded_batch_leaves_the_callers_affinity(monkeypatch):
    before = os.sched_getaffinity(0)
    forks = force_workers(monkeypatch, 2)
    run_collapse_batch(state_with_weight(0.5), WIDE_BOX, 9, shards._MIN_ITEMS)
    assert len(forks) == 2
    assert os.sched_getaffinity(0) == before


# A parent that prints the pid of each child it forks, then runs a batch in
# a box no trial can hit: each slice would run its 10^6 steps for minutes.
_KILLED_PARENT = """
import os, sys
sys.path.insert(0, sys.argv[1])
from spinsphere import shards
from spinsphere.collapse import CaptureRegion, run_collapse_batch
from spinsphere.su2 import Spinor
fork = os.fork
def announce():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid
os.fork = announce
shards._worker_count = lambda: 2
run_collapse_batch(Spinor(1.0, 0.0), CaptureRegion(1e-6, 1e-6, 1e-6), 1,
                   2 * shards._MIN_ITEMS)
"""


def test_children_exit_with_a_killed_parent():
    # An orphaned child dies with its parent; one that lived on would hold
    # the pipe open, so reading the killed parent's output to its end would
    # not finish within the bound.
    src = os.path.dirname(os.path.dirname(collapse.__file__))
    proc = subprocess.Popen([sys.executable, "-c", _KILLED_PARENT, src],
                            stdout=subprocess.PIPE)
    children = [int(proc.stdout.readline()) for _ in range(2)]
    proc.kill()
    try:
        proc.communicate(timeout=5)
    except subprocess.TimeoutExpired:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
        raise


# Pinned single trials: (eigenstate, steps, stream position afterwards);
# a skipped stream starts its first step at the skipped position.
@pytest.mark.parametrize(
    "phi, region, seed, index, skip, expected",
    [
        (state_with_weight(0.75), DEFAULT_REGION, 202, 0, 0, (0, 52, 312)),
        (state_with_weight(0.75), DEFAULT_REGION, 202, 9_999, 0, (0, 755, 4530)),
        (Spinor(0.6, 0.8j), WIDE_BOX, 404, 17, 0, (1, 234, 1404)),
        (Spinor(0.6, 0.8j), WIDE_BOX, 404, 17, 5, (0, 73, 443)),
        (state_with_weight(0.3), WIDE_BOX, 505, 3, 1, (1, 94, 565)),
    ],
)
def test_single_trial_golden(phi, region, seed, index, skip, expected):
    rng = TrialStream(seed, index)
    rng.skip(skip)
    out = run_collapse_trial(phi, region, rng)
    assert (out.eigenstate, out.steps, rng.position) == expected


# ---------------------------------------------------------------------------
# Scalar oracle of the capture kernel
# ---------------------------------------------------------------------------

def _theta_hit(u_theta, lo, hi):
    """Float box test of u_theta = 1 - u; the box wraps when lo > hi."""
    if lo > hi:
        return u_theta >= lo or u_theta <= hi
    return lo <= u_theta <= hi


def _circ_dist(u, center):
    d = abs(u - center) % 1.0
    return min(d, 1.0 - d)


def _capture_from_uniforms(u6, windows):
    """Capture flags and tie fractions for one step's six uniforms.

    windows holds, per source, the CDF interval (lo, hi) of its theta box
    and the (center, halfwidth) in u of its alpha and beta boxes.
    """
    captured = []
    fractions = []
    for k, ((lo, hi), (alpha_c, alpha_w), (beta_c, beta_w)) in enumerate(windows):
        ok = _theta_hit(1.0 - u6[3 * k], lo, hi)
        if ok:
            ok = _circ_dist(u6[3 * k + 1], alpha_c) <= alpha_w
        if ok:
            d_beta = _circ_dist(u6[3 * k + 2], beta_c)
            ok = d_beta <= beta_w
            fractions.append(float(d_beta) / beta_w)
        else:
            fractions.append(2.0)
        captured.append(ok)
    return captured, fractions


def oracle_trial(windows, rng, max_steps):
    """(eigenstate, steps) of one trial, one step at a time; None on timeout."""
    for step in range(max_steps):
        captured, fractions = _capture_from_uniforms(stream_uniforms(rng, 6), windows)
        if captured[0] and captured[1]:
            return (0 if fractions[0] <= fractions[1] else 1), step + 1
        if captured[0] or captured[1]:
            return (0 if captured[0] else 1), step + 1
    return None


def oracle_windows(phi, region):
    """Float boxes of both sources: the CDF interval of the theta box, and
    the alpha = pi/2 - pi u and beta = pi - 2 pi u boxes as arcs in u."""
    windows = []
    for k in (0, 1):
        theta_c, alpha_c, beta_c = source_frame_coords(phi, k)
        windows.append((
            _theta_u_interval(theta_c, region.d_theta),
            ((math.pi / 2 - alpha_c) / math.pi, region.d_alpha / math.pi),
            ((math.pi - beta_c) / (2 * math.pi), region.d_beta / (2 * math.pi)),
        ))
    return windows


_ORACLE_CASES = [
    (Spinor(1, 0), DEFAULT_REGION),
    (Spinor(0, 1), DEFAULT_REGION),
    (Spinor(1, 0), WIDE_BOX),
    (Spinor(0, 1), WIDE_BOX),
    (state_with_weight(0.3), WIDE_BOX),
    (Spinor(0.6, 0.8j), WIDE_BOX),
    (Spinor(0.5 - 0.5j, -0.7), CaptureRegion(math.pi / 8, 0.2, 0.3)),
]


# widths (_BLOCK, _ROWS) = (5, 7) split the 40 trials into 6 slabs, and the
# blocks grow as the trials thin out: the hits of both sources then come
# from slabs at row offsets other than 0, and from blocks of every width.
@pytest.mark.parametrize(
    "phi, region, widths",
    [pytest.param(phi, region, None, id=f"phi{i}-region{i}")
     for i, (phi, region) in enumerate(_ORACLE_CASES)]
    + [pytest.param(phi, region, (5, 7), id=f"phi{i}-region{i}-5-tick-blocks-7-row-slabs")
       for i, (phi, region) in enumerate(_ORACLE_CASES)],
)
def test_kernel_matches_scalar_oracle(monkeypatch, phi, region, widths):
    if widths:
        monkeypatch.setattr(collapse, "_BLOCK", widths[0])
        monkeypatch.setattr(collapse, "_ROWS", widths[1])
    windows = oracle_windows(phi, region)
    out, steps = run_collapse_batch(phi, region, seed=606, n_trials=40)
    for i in range(40):
        expected = oracle_trial(windows, TrialStream(606, i), 1_000_000)
        assert (int(out[i]), int(steps[i])) == expected
        single = run_collapse_trial(phi, region, TrialStream(606, i))
        assert (single.eigenstate, single.steps) == expected


def _grid_range(first, count):
    """Raw-draw range of the grid points first, ..., first + count - 1."""
    return (first << 11) % 2**64, count << 11


# Per source, the beta range (a, m): its m grid points start a points below
# the grid point of the beta draw, which so lies |2 a + 1 - m| half grid
# steps from the centre of the range.
_TIE_CASES = [
    ((40, 81), (40, 81), 0, "both-centred"),
    ((43, 81), (37, 81), 0, "both-3-steps-off"),
    ((41, 81), (40, 81), 1, "1-nearer-by-a-step"),
    ((40, 81), (39, 81), 0, "0-nearer-by-a-step"),
    ((40, 82), (40, 81), 1, "1-nearer-by-half-a-step"),
]


@pytest.mark.parametrize(
    "beta0, beta1, winner, widths",
    [pytest.param(b0, b1, w, None, id=name) for b0, b1, w, name in _TIE_CASES]
    + [pytest.param(b0, b1, w, (5, 2), id=f"{name}-5-tick-blocks-2-row-slabs")
       for b0, b1, w, name in _TIE_CASES],
)
def test_kernel_same_tick_tie(monkeypatch, beta0, beta1, winner, widths):
    # Both sources capture at tick 5 of stream 2 and at no earlier tick:
    # each theta and alpha range is the single grid point of that tick's draw.
    # At widths (5, 2) the capture lies in the block of ticks 5-9 and in its
    # second slab, at row offset 2.
    if widths:
        monkeypatch.setattr(collapse, "_BLOCK", widths[0])
        monkeypatch.setattr(collapse, "_ROWS", widths[1])
    keys = derive_keys(707, np.arange(3))
    tick = 5
    grid = [int(b) >> 11 for b in bits_at(keys[2], 6 * tick + np.arange(6))]
    windows = [
        (_grid_range(grid[3 * k], 1), _grid_range(grid[3 * k + 1], 1),
         _grid_range(grid[3 * k + 2] - a, m))
        for k, (a, m) in enumerate((beta0, beta1))
    ]
    out, steps = _run_trials(windows, keys, 0, tick + 10)
    assert out.tolist() == [-1, -1, winner]
    assert steps[2] == tick + 1


# An alpha box of 1e-3 lets about one theta hit in 1,600 through, so most
# blocks run their beta round and the capture resolution on empty arrays,
# and most of the 300 trials time out at 200 steps.  Seed 11 also has
# captures by both sources.
@pytest.mark.parametrize("widths", [None, (5, 7)], ids=["default-widths", "5-tick-blocks-7-row-slabs"])
def test_kernel_empty_rounds_and_timeouts_match_oracle(monkeypatch, widths):
    if widths:
        monkeypatch.setattr(collapse, "_BLOCK", widths[0])
        monkeypatch.setattr(collapse, "_ROWS", widths[1])
    phi, region, n = Spinor(0.6, 0.8j), CaptureRegion(math.pi / 8, 1e-3, math.pi / 8), 300
    windows = tuple(_source_window(phi, k, region) for k in (0, 1))
    out, steps = _run_trials(windows, derive_keys(11, np.arange(n)), 0, 200)
    got = [(int(e), int(s)) if e >= 0 else None for e, s in zip(out, steps)]
    oracle = oracle_windows(phi, region)
    assert got == [oracle_trial(oracle, TrialStream(11, i), 200) for i in range(n)]
    assert {0, 1} <= set(out.tolist()) and np.count_nonzero(out < 0) > n - 10


def _bit_range_member(b, start, count):
    return (b - start) % 2**64 < count


def _float_member(b, lo, hi):
    return _theta_hit(1.0 - (b >> 11) * 2.0**-53, lo, hi)


def test_theta_bit_range_boundaries():
    rng = np.random.default_rng(808)
    grid = [int(k) * 2.0**-53 for k in rng.integers(0, 2**53, size=40)]
    windows = [(0.0, 0.3), (0.0, 0.0), (0.7, 1.0), (1.0, 1.0), (1.0, 0.3),
               (0.7, 0.0), (0.3, 0.3), (grid[0], grid[0])]
    windows += [tuple(rng.random(2)) for _ in range(100)]
    windows += [tuple(theta_cdf(rng.uniform(-math.pi, math.pi, 2))) for _ in range(100)]
    windows += list(zip(grid[1::2], grid[2::2]))
    for theta_c in rng.uniform(-math.pi, math.pi, 100):
        windows.append(_theta_u_interval(theta_c, rng.uniform(1e-6, math.pi / 8)))
    for lo, hi in windows:
        lo, hi = float(lo), float(hi)
        start, count = _theta_bit_range(lo, hi)
        first, last = start, (start + count - 1) % 2**64
        probes = [first - 1, first, last, last + 1]
        probes += [int(b) for b in rng.integers(0, 2**64, size=20, dtype=np.uint64)]
        for b in probes:
            b %= 2**64
            assert _bit_range_member(b, start, count) == _float_member(b, lo, hi), (
                lo, hi, b)


def _exact_arc_member(b, center, halfwidth):
    d = (Fraction(b >> 11, 2**53) - Fraction(center)) % 1
    return min(d, 1 - d) <= Fraction(halfwidth)


def test_circle_bit_range_boundaries():
    # Alpha and beta ranges against exact rational membership of the grid
    # point u = (b >> 11) 2^-53 in the arc, at both ends of each range.
    rng = np.random.default_rng(909)
    step = 2.0**-53
    arcs = [(rng.random(), rng.uniform(1e-6, 1 / 16)) for _ in range(100)]
    arcs += [(rng.uniform(0, 0.01), 0.02) for _ in range(20)]          # wrap below 0
    arcs += [(1 - rng.uniform(0, 0.01), 0.02) for _ in range(20)]      # wrap above 1
    arcs += [(0.0, 0.1), (0.5, 1 / 16), (1 - step, 1 / 16), (0.25, step),
             (0.25, step / 2), (0.25 + step / 4, step / 2), (0.25, 1e-300),
             (rng.random(), 3 * step), (0.75, 3 * step)]                 # tiny
    for phi in (Spinor(0.6, 0.8j), Spinor(0.5 - 0.5j, -0.7), state_with_weight(0.3)):
        for k in (0, 1):
            _, alpha_c, beta_c = source_frame_coords(phi, k)
            arcs += [((math.pi / 2 - alpha_c) / math.pi, math.pi / 8 / math.pi),
                     ((math.pi - beta_c) / (2 * math.pi), 0.2 / (2 * math.pi))]
    for center, halfwidth in arcs:
        start, count = _circle_bit_range(center, halfwidth)
        first, last = start, (start + count - 1) % 2**64
        probes = [first - 1, first, last, last + 1]
        probes += [int(b) for b in rng.integers(0, 2**64, size=20, dtype=np.uint64)]
        for b in probes:
            b %= 2**64
            assert _bit_range_member(b, start, count) == _exact_arc_member(
                b, center, halfwidth), (center, halfwidth, b)


def test_eigenstate_collapses_to_itself():
    # Competing source sits a half-turn away where its density toward the
    # state vanishes; the stray rate is the tail ratio
    # (d - sin d)/(d + sin d) ~ d^2/6 and shrinks with the region width.
    wide = CaptureRegion(math.pi / 12, math.pi / 8, math.pi / 8)
    narrow = CaptureRegion(math.pi / 36, math.pi / 8, math.pi / 8)
    out_w, _ = run_collapse_batch(Spinor(1, 0), wide, seed=9, n_trials=10_000)
    out_n, _ = run_collapse_batch(Spinor(1, 0), narrow, seed=9, n_trials=10_000)
    stray_wide = float(np.mean(out_w == 1))
    stray_narrow = float(np.mean(out_n == 1))
    assert stray_wide < 1e-2
    assert stray_narrow < 1.5e-3
    assert stray_narrow <= stray_wide
    assert float(np.mean(out_n == 0)) > 0.998


def test_symmetric_state_splits_evenly():
    out, _ = run_collapse_batch(
        state_with_weight(0.5), DEFAULT_REGION, seed=2024, n_trials=20_000
    )
    freq = float(np.mean(out == 0))
    assert abs(freq - 0.5) < 3.0 * math.sqrt(0.25 / 20_000)


def test_born_rule_weighted_state():
    out, _ = run_collapse_batch(
        state_with_weight(0.75), DEFAULT_REGION, seed=31, n_trials=20_000
    )
    freq = float(np.mean(out == 0))
    assert abs(freq - 0.75) < 3.0 * math.sqrt(0.75 * 0.25 / 20_000)


def test_finite_box_law():
    # A wide box realizes P0 = 1/2 + (1/2)(sin d/d) cos theta0, not Born's
    # cos^2(theta0/2) (cos theta0 = 2 c1^2 - 1); at c1^2 = 0.9 and d = pi/8,
    # 5e4 trials tell them apart.
    d, c1_sq, n = math.pi / 8, 0.9, 50_000
    out, _ = run_collapse_batch(state_with_weight(c1_sq), CaptureRegion(d, d, d),
                                seed=11, n_trials=n)
    freq = float(np.mean(out == 0))
    finite_box = 0.5 + 0.5 * (math.sin(d) / d) * (2.0 * c1_sq - 1.0)
    for p0, agrees in ((finite_box, True), (c1_sq, False)):
        z = (freq - p0) / math.sqrt(p0 * (1.0 - p0) / n)
        assert (abs(z) <= 3.0) == agrees, (p0, z)


def _window_law(phi, region):
    """(P0, p_any) of the law the kernel's integer windows realize.

    Source k captures on a tick with p_k = (theta count)(alpha count)(beta
    count) / 2^192 (collapse.capture_law).  A same-tick double capture is a
    fair coin (both beta ranges have one length, up to a grid point), so
    P0 = p0 (1 - p1/2) / p_any, and the steps are geometric with mean
    1/p_any.
    """
    p0, p1 = collapse.capture_law(phi, region)
    assert isinstance(p0, Fraction) and isinstance(p1, Fraction)
    p_any = p0 + p1 - p0 * p1
    return float(p0 * (1 - p1 / 2) / p_any), float(p_any)


@pytest.mark.parametrize(
    "c1_sq, region, n",
    [
        (0.9, WIDE_BOX, 50_000),
        (1.0, DEFAULT_REGION, 20_000),
        (0.75, DEFAULT_REGION, 20_000),
        (0.3, CaptureRegion(math.pi / 16, math.pi / 8, math.pi / 8), 20_000),
    ],
)
def test_engine_realizes_the_window_law(c1_sq, region, n):
    phi = state_with_weight(c1_sq)
    out, steps = run_collapse_batch(phi, region, seed=11, n_trials=n)
    p0, p_any = _window_law(phi, region)
    z_freq = (float(np.mean(out == 0)) - p0) / math.sqrt(p0 * (1.0 - p0) / n)
    z_steps = (float(steps.mean()) - 1.0 / p_any) / (math.sqrt((1.0 - p_any) / n) / p_any)
    assert abs(z_freq) <= 3.0 and abs(z_steps) <= 3.0, (z_freq, z_steps)


def test_timeout_chance_on_both_sides_of_one_half():
    # Against the plain formula 1 - (1 - (1 - p_any)^s)^n, where floats
    # resolve it: the smallest n that reaches 1/2 and the n below it.
    phi, region, max_steps = state_with_weight(0.75), DEFAULT_REGION, 5000
    p_any = float(_window_law(phi, region)[1])
    q = (1.0 - p_any) ** max_steps
    assert 1e-3 < q < 1e-2

    def chance(n):
        return 1.0 - (1.0 - q) ** n

    n = next(n for n in range(1, 10_000) if chance(n) >= 0.5)
    for trials, refused in ((n - 1, False), (n, True)):
        got = collapse.timeout_chance(phi, region, trials, max_steps)
        assert got == pytest.approx(chance(trials), rel=1e-9)
        assert (got >= 0.5) == refused


def test_timeout_chance_without_a_grid_point_in_the_box():
    # A theta box of 1e-17 at these states holds no grid point of either
    # source, so no trial can ever be captured.
    phi, region = Spinor(math.sqrt(0.5), -math.sqrt(0.5)), CaptureRegion(1e-17, 0.1, 0.1)
    assert collapse.capture_law(phi, region) == (0, 0)
    assert collapse.timeout_chance(phi, region, 1) == 1.0
    # One grid point: p_any is near 2^-57, so one trial of 10^6 steps
    # almost surely times out.
    region = CaptureRegion(1e-17, math.pi / 8, math.pi / 8)
    p_any = _window_law(state_with_weight(0.5), region)[1]
    assert 0 < p_any < 1e-16
    assert 1 - 1e-10 < collapse.timeout_chance(state_with_weight(0.5), region, 1) < 1


def test_memoryless_capture():
    # Outcome should be independent of how many fruitless steps preceded
    # it: chi-square on (outcome x step-quartile) counts.
    out, steps = run_collapse_batch(
        state_with_weight(0.5), DEFAULT_REGION, seed=88, n_trials=20_000
    )
    quartiles = np.quantile(steps, [0.25, 0.5, 0.75])
    bucket = np.digitize(steps, quartiles)
    table = np.zeros((2, 4))
    for k in range(2):
        for b in range(4):
            table[k, b] = np.sum((out == k) & (bucket == b))
    p = stats.chi2_contingency(table).pvalue
    assert p > 0.001


def test_born_statistics_schema():
    out = np.array([0, 0, 1, 0], dtype=np.int8)
    report = born_statistics(out, 0.75)
    assert report["n_trials"] == 4
    assert report["per_eigenstate_counts"] == [3, 1]
    assert report["expected"] == [0.75, 0.25]
    assert report["z_scores"][0] == pytest.approx(-report["z_scores"][1])


def test_collapse_outcome_validation():
    with pytest.raises(ValueError):
        CollapseOutcome(eigenstate=2, steps=1)


# ---------------------------------------------------------------------------
# Delta-state metric
# ---------------------------------------------------------------------------

def delta_overlap(a, b) -> float:
    """Inner product exp(-|a - b|^2) of two position delta states."""
    d = np.subtract(a, b, dtype=float)
    return float(np.exp(-np.dot(d, d)))


def delta_distance_sq(a, b) -> float:
    """Induced squared distance 2 (1 - exp(-|a - b|^2))."""
    return 2.0 * (1.0 - delta_overlap(a, b))


def test_delta_overlap_values():
    assert delta_overlap((1, 2, 3), (1, 2, 3)) == 1.0
    d = 0.1
    assert delta_overlap((0, 0, 0), (d, 0, 0)) == pytest.approx(
        math.exp(-0.01), abs=1e-15
    )
    assert delta_distance_sq((0, 0, 0), (d, 0, 0)) == pytest.approx(
        2 * (1 - math.exp(-0.01)), abs=1e-15
    )
    assert delta_distance_sq((0, 0, 0), (100, 0, 0)) == pytest.approx(2.0)


def test_delta_close_states_nearly_coincide():
    assert delta_distance_sq((0, 0, 0), (0.01, 0, 0)) < 3e-4
