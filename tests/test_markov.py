"""Absorbing-chain tests: harmonic bias, exact oracle, Monte Carlo walks."""

import hashlib
import math
import os
import signal

import numpy as np
import pytest
from test_collapse import BOTH_PATHS, assert_reaped, force_workers
from test_randomness import stream_uniforms

from spinsphere import collapse, shards
from spinsphere.collapse import (
    CollapseTimeoutError,
    absorption_probabilities,
    build_markov_chain,
    expected_absorption_steps,
    run_ruin_walks,
)
from spinsphere.randomness import TrialStream


def test_minimal_chain_bias():
    chain = build_markov_chain(2)
    assert chain.toward_zero_prob.shape == (1,)
    assert chain.toward_zero_prob[0] == pytest.approx(0.5, abs=1e-15)


def test_chain_validation():
    with pytest.raises(ValueError):
        build_markov_chain(1)


def test_bias_in_unit_interval_and_harmonic():
    for m in (2, 3, 16, 64, 301):
        chain = build_markov_chain(m)
        p = chain.toward_zero_prob
        assert p.min() > 0.0 and p.max() < 1.0
        h = np.cos(chain.thetas / 2.0) ** 2
        residual = np.abs(p * h[:-2] + (1 - p) * h[2:] - h[1:-1]).max()
        assert residual <= 1e-14


def test_bias_symmetry():
    chain = build_markov_chain(48)
    p = chain.toward_zero_prob
    assert np.abs(p + p[::-1] - 1.0).max() < 1e-12


def test_martingale_one_step_expectation():
    # Expected one-step change of h(theta) is zero at every interior state.
    chain = build_markov_chain(32)
    h = np.cos(chain.thetas / 2.0) ** 2
    p = chain.toward_zero_prob
    drift = p * h[:-2] + (1 - p) * h[2:] - h[1:-1]
    assert np.abs(drift).max() <= 1e-14


def test_absorption_matches_closed_form():
    chain = build_markov_chain(64)
    u = absorption_probabilities(chain)
    h = np.cos(chain.thetas / 2.0) ** 2
    assert u[0] == 1.0 and u[-1] == 0.0
    assert np.abs(u - h).max() < 1e-10


@pytest.mark.parametrize("m", [2, 3, 12, 60, 301])
def test_expected_absorption_steps_solve_the_recurrence(m):
    chain = build_markov_chain(m)
    p = chain.toward_zero_prob
    t = expected_absorption_steps(chain)
    # The dense solve of T_i - p_i T_{i-1} - (1 - p_i) T_{i+1} = 1 is the oracle.
    a = np.eye(m - 1) - np.diag(p[1:], -1) - np.diag(1.0 - p[:-1], 1)
    dense = np.linalg.solve(a, np.ones(m - 1))
    assert t.shape == (m + 1,) and t[0] == 0.0
    assert abs(t[m]) < 1e-12 * t.max()
    assert np.abs(t[1:-1] - dense).max() < 1e-12 * t.max()
    assert np.allclose(t, t[::-1], rtol=1e-12)  # the chain is symmetric about pi/2


def test_expected_absorption_steps_match_the_walks():
    # markov's five starts at m = 60: the mean steps of the walks from each
    # start lie within 4 sigma of T_start (about 180, 411, 507, 411, 180).
    chain = build_markov_chain(60)
    starts = [10, 20, 30, 40, 50]
    _, steps = run_ruin_walks(chain, starts, [42 + s for s in starts], 4000)
    t = expected_absorption_steps(chain)[starts]
    sigma = steps.std(axis=1) / math.sqrt(steps.shape[1])
    assert np.all(np.abs(steps.mean(axis=1) - t) < 4.0 * sigma)


def test_walks_match_oracle_at_five_starts():
    chain = build_markov_chain(12)
    u = absorption_probabilities(chain)
    n = 10_000
    for start in (2, 4, 6, 8, 10):
        absorbed, steps = run_ruin_walks(chain, start, seed=start, n_walks=n)
        freq = float(absorbed.mean())
        sigma = math.sqrt(u[start] * (1 - u[start]) / n)
        assert abs(freq - u[start]) < 3.0 * sigma
        assert steps.min() >= 1


def test_walk_from_pi_over_three():
    # pi/3 is a grid node of m = 60 (i = 20); absorption there is
    # cos^2(pi/6) = 3/4.
    chain = build_markov_chain(60)
    absorbed, _ = run_ruin_walks(chain, 20, seed=7, n_walks=20_000)
    assert abs(float(absorbed.mean()) - 0.75) < 3.0 * math.sqrt(0.1875 / 20_000)


def test_walk_determinism_and_guards():
    chain = build_markov_chain(8)
    a = run_ruin_walks(chain, 4, seed=3, n_walks=200)
    b = run_ruin_walks(chain, 4, seed=3, n_walks=200)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    with pytest.raises(ValueError):
        run_ruin_walks(chain, 0, seed=1, n_walks=10)
    with pytest.raises(CollapseTimeoutError):
        run_ruin_walks(chain, 4, seed=1, n_walks=10, max_steps=2)


# Pinned (absorbed, steps) of the walk engine; any change to run_ruin_walks
# or to the streams it reads must leave these bit-identical on both paths.
@BOTH_PATHS
@pytest.mark.parametrize(
    "m, start, seed, n_walks, digest",
    [
        (12, 6, 1, 5000, "e80231d9c86b06b6d626f41050fdf2b0ca1564c2294c7742086ec67e53386b93"),
        (60, 20, 7, 2000, "7b264e616ae881397884f2e5db9efd08cb2c0aab217c682fba288a4d75960870"),
        (5, 1, 99, 5000, "b81eb3e853a99c895ebe08562896a5806e0efe127d187427d18ffd09ef32c8c0"),
    ],
)
def test_walks_golden_digest(m, start, seed, n_walks, digest, workers, monkeypatch):
    # The sharded path also takes these small batches.
    monkeypatch.setattr(shards, "_MIN_ITEMS", 1)
    forks = force_workers(monkeypatch, workers)
    absorbed, steps = run_ruin_walks(build_markov_chain(m), start, seed, n_walks)
    data = absorbed.astype("<u1").tobytes() + steps.astype("<i8").tobytes()
    assert hashlib.sha256(data).hexdigest() == digest
    assert len(forks) == (workers if workers > 1 else 0)
    assert_reaped(forks)


# Three groups below shards._MIN_ITEMS that together reach it.
GROUPS = dict(chain=build_markov_chain(12), start_index=[2, 6, 10], seed=[5, 6, 7],
              n_walks=3000)


@BOTH_PATHS
def test_grouped_walks_equal_the_scalar_calls(workers, monkeypatch):
    chain, n = GROUPS["chain"], GROUPS["n_walks"]
    assert n < shards._MIN_ITEMS <= 3 * n
    force_workers(monkeypatch, 1)
    scalar = [run_ruin_walks(chain, start, seed, n)
              for start, seed in zip(GROUPS["start_index"], GROUPS["seed"])]
    forks = force_workers(monkeypatch, workers)
    absorbed, steps = run_ruin_walks(**GROUPS)
    assert absorbed.shape == steps.shape == (3, n)
    assert absorbed.dtype == bool and steps.dtype == np.int64
    assert np.array_equal(absorbed, [a for a, _ in scalar])
    assert np.array_equal(steps, [s for _, s in scalar])
    # A scalar start broadcasts over a sequence of seeds.
    absorbed, steps = run_ruin_walks(chain, 6, [5, 6, 7], n)
    assert np.array_equal(absorbed[1], scalar[1][0]) and np.array_equal(steps[1], scalar[1][1])
    assert len(forks) == (2 * workers if workers > 1 else 0)
    assert_reaped(forks)


def test_walks_rerun_the_slice_of_a_killed_child(monkeypatch):
    force_workers(monkeypatch, 1)
    serial = run_ruin_walks(**GROUPS)
    forks = force_workers(monkeypatch, 2)
    parent, run_walks = os.getpid(), collapse._run_walks

    def kill_first_child(thresholds, m, keys, start, max_steps):
        if os.getpid() != parent and start[0] == GROUPS["start_index"][0]:
            os.kill(os.getpid(), signal.SIGKILL)
        return run_walks(thresholds, m, keys, start, max_steps)

    monkeypatch.setattr(collapse, "_run_walks", kill_first_child)
    absorbed, steps = run_ruin_walks(**GROUPS)
    assert np.array_equal(absorbed, serial[0]) and np.array_equal(steps, serial[1])
    assert len(forks) == 2
    assert_reaped(forks)


def test_a_walk_timeout_in_a_child_is_counted_not_rerun(monkeypatch):
    force_workers(monkeypatch, 1)
    with pytest.raises(CollapseTimeoutError) as serial:
        run_ruin_walks(**GROUPS, max_steps=40)
    forks = force_workers(monkeypatch, 2)
    parent, run_walks, calls = os.getpid(), collapse._run_walks, []

    def count_calls_here(*args):
        if os.getpid() == parent:
            calls.append(args)
        return run_walks(*args)

    monkeypatch.setattr(collapse, "_run_walks", count_calls_here)
    with pytest.raises(CollapseTimeoutError) as sharded:
        run_ruin_walks(**GROUPS, max_steps=40)
    over = int(str(sharded.value).split()[0])
    assert str(sharded.value) == str(serial.value) == f"{over} of 9000 walks exceeded 40 steps"
    assert 0 < over < 9000
    assert len(forks) == 2 and not calls
    assert_reaped(forks)


def oracle_walks(chain, start, seed, n_walks):
    """Scalar reference: walk w steps toward 0 at step t when draw t of
    TrialStream(seed, w) is below p of its state; runs until absorbed."""
    p = chain.toward_zero_prob
    absorbed, steps = [], []
    for w in range(n_walks):
        stream, position, t = TrialStream(seed, w), start, 0
        while 0 < position < chain.m:
            position += -1 if stream_uniforms(stream, 1)[0] < p[position - 1] else 1
            t += 1
        absorbed.append(position == 0)
        steps.append(t)
    return np.array(absorbed, dtype=bool), np.array(steps, dtype=np.int64)


ORACLE_CASES = [(2, 1, 5, 300), (5, 2, 6, 300), (60, 3, 8, 300)]


@pytest.mark.parametrize("m, start, seed, n_walks", ORACLE_CASES)
def test_walks_match_scalar_oracle(m, start, seed, n_walks):
    chain = build_markov_chain(m)
    absorbed, steps = run_ruin_walks(chain, start, seed, n_walks)
    want_absorbed, want_steps = oracle_walks(chain, start, seed, n_walks)
    assert absorbed.dtype == bool and steps.dtype == np.int64
    assert np.array_equal(absorbed, want_absorbed)
    assert np.array_equal(steps, want_steps)


@pytest.mark.parametrize("m, start, seed, n_walks", ORACLE_CASES)
def test_walk_step_budget_edges(m, start, seed, n_walks):
    # The longest walk ends exactly at its own step count, so a budget of
    # that many steps passes and one less fails; budgets 1 and 31-33 sit
    # around the block width of 32 ticks.
    chain = build_markov_chain(m)
    want = oracle_walks(chain, start, seed, n_walks)
    longest = int(want[1].max())
    for budget in sorted({longest, longest - 1, 1, 31, 32, 33}):
        over = int(np.count_nonzero(want[1] > budget))
        if over:
            message = f"{over} of {n_walks} walks exceeded {budget} steps"
            with pytest.raises(CollapseTimeoutError, match=f"^{message}$"):
                run_ruin_walks(chain, start, seed, n_walks, max_steps=budget)
        else:
            absorbed, steps = run_ruin_walks(chain, start, seed, n_walks, max_steps=budget)
            assert np.array_equal(absorbed, want[0]) and np.array_equal(steps, want[1])


def test_walk_draws_stay_within_their_buffer(monkeypatch):
    # Each block of a slab draws into a fixed buffer of 2 _BLOCK _WALK_ROWS
    # uint64 (the draws and their scratch), however many walks the batch
    # holds (unbounded slabs cost 17% more peak memory).
    bound = 2 * collapse._BLOCK * collapse._WALK_ROWS
    sizes, bits_at = [], collapse.bits_at

    def recording_bits_at(keys, draw_indices, out, scratch):
        sizes.append(out.size + scratch.size)
        return bits_at(keys, draw_indices, out=out, scratch=scratch)

    monkeypatch.setattr(collapse, "bits_at", recording_bits_at)
    force_workers(monkeypatch, 1)
    run_ruin_walks(build_markov_chain(60), 20, 13, 3 * collapse._WALK_ROWS)
    assert sizes[:3] == [bound] * 3  # the first block's three full slabs
    assert max(sizes) == bound and len(sizes) > 3


def test_zero_walks_return_empty_arrays():
    absorbed, steps = run_ruin_walks(build_markov_chain(5), 2, seed=1, n_walks=0)
    assert absorbed.shape == steps.shape == (0,)
    assert absorbed.dtype == bool and steps.dtype == np.int64


@pytest.mark.parametrize("m", [2, 3, 60, 301])
def test_walk_thresholds_match_the_float_test(m):
    # A draw b steps toward 0 when k = b >> 11 is below the table entry of
    # its state; for interior states that must be exactly u = k 2^-53 < p.
    chain = build_markov_chain(m)
    table = collapse._walk_thresholds(chain)
    block = collapse._BLOCK
    assert table.dtype == np.uint64 and table.size == m + 1 + 2 * block
    for i, p in enumerate(chain.toward_zero_prob, start=1):
        c = math.ceil(p * 2**53)
        for k in (c - 1, c):
            for b in (k << 11, (k << 11) | 0x7FF):
                assert ((b >> 11) < int(table[block + i])) == (k * 2.0**-53 < p)
        assert (c - 1) * 2.0**-53 < p <= c * 2.0**-53
    # The pads force the step: toward 0 at or below state 0, away at or
    # above state m, for the smallest and the largest draw alike.
    for k in (0, 2**53 - 1):
        assert all(k < int(t) for t in table[: block + 1])
        assert not any(k < int(t) for t in table[block + m :])
