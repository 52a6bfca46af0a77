"""Per-trial stream determinism and distribution quality."""

import math
import warnings

import numpy as np
from scipy import stats

from spinsphere.collapse import (
    CaptureRegion,
    build_markov_chain,
    run_collapse_batch,
    run_ruin_walks,
)
from spinsphere.randomness import TrialStream, bits_at, derive_keys, mix64, uniforms_at
from spinsphere.su2 import Spinor


def splitmix64_finalizer(z: int) -> int:
    """SplitMix64 output permutation on Python ints, reduced modulo 2^64."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
    return z ^ (z >> 31)


def stream_uniforms(stream: TrialStream, n: int) -> np.ndarray:
    """The next n uniform draws of a stream, read by position with
    uniforms_at; the stream skips past them."""
    out = uniforms_at(stream.key, stream.position + np.arange(n))
    stream.skip(n)
    return out


def test_streams_are_deterministic():
    a = stream_uniforms(TrialStream(123, 5), 64)
    b = stream_uniforms(TrialStream(123, 5), 64)
    assert np.array_equal(a, b)


def test_streams_differ_across_trials_and_seeds():
    a = stream_uniforms(TrialStream(123, 5), 64)
    b = stream_uniforms(TrialStream(123, 6), 64)
    c = stream_uniforms(TrialStream(124, 5), 64)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_stream_matches_batch_addressing():
    keys = derive_keys(99, np.arange(10))
    for i in (0, 3, 9):
        stream = TrialStream(99, i)
        assert np.array_equal(stream_uniforms(stream, 20), uniforms_at(keys[i], np.arange(20)))


def test_stream_position_advances():
    s = TrialStream(1, 0)
    first = stream_uniforms(s, 3)
    second = stream_uniforms(s, 3)
    assert not np.array_equal(first, second)
    assert np.array_equal(
        np.concatenate([first, second]), stream_uniforms(TrialStream(1, 0), 6)
    )


def test_keys_unique_at_scale():
    keys = derive_keys(0, np.arange(200_000))
    assert len(np.unique(keys)) == 200_000


def test_unit_interval():
    u = stream_uniforms(TrialStream(7, 0), 100_000)
    assert u.min() >= 0.0
    assert u.max() < 1.0


def test_uniformity_ks():
    u = stream_uniforms(TrialStream(2024, 0), 100_000)
    statistic = stats.kstest(u, "uniform").statistic
    assert statistic < 1.9495 / math.sqrt(len(u))


def test_lag1_autocorrelation_small():
    u = stream_uniforms(TrialStream(11, 0), 100_000)
    x = u - u.mean()
    r1 = float(np.dot(x[:-1], x[1:]) / np.dot(x, x))
    assert abs(r1) < 3.0 / math.sqrt(len(u))


def test_cross_stream_correlation_small():
    a = stream_uniforms(TrialStream(11, 0), 100_000)
    b = stream_uniforms(TrialStream(11, 1), 100_000)
    xa, xb = a - a.mean(), b - b.mean()
    r = float(np.dot(xa, xb) / math.sqrt(np.dot(xa, xa) * np.dot(xb, xb)))
    assert abs(r) < 3.0 / math.sqrt(len(a))


def test_chi_square_uniform_bins():
    u = stream_uniforms(TrialStream(31337, 4), 100_000)
    counts, _ = np.histogram(u, bins=64, range=(0.0, 1.0))
    p = stats.chisquare(counts).pvalue
    assert p > 0.001


def test_mix64_wraps_without_warnings():
    # Every add and multiply here overflows.  uint64 ufuncs wrap silently on
    # scalar, 0-d and n-d operands, so mix64 needs no errstate of its own,
    # and derive_keys and bits_at (which call np.add and np.multiply
    # explicitly, even for 0-d indices) need none either.
    values = [2**63 + 12345, 2**64 - 1, 0x9E3779B97F4A7C15]
    top = [0, 2**63 + 5, 2**64 - 1]
    golden = values[2]

    def key(seed, i):
        return splitmix64_finalizer(
            splitmix64_finalizer((seed + golden) % 2**64)
            ^ splitmix64_finalizer((i + 1) * golden % 2**64)
        )

    def bits(k, j):
        return splitmix64_finalizer((k + (j + 1) * golden) % 2**64)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        zero_d = mix64(np.array(values[0], dtype=np.uint64))
        scalar = mix64(np.uint64(values[0]))
        array = mix64(np.array(values, dtype=np.uint64))
        inplace = np.array(values, dtype=np.uint64)
        mix64(inplace, out=inplace, scratch=np.empty_like(inplace))
        for seed in top:
            keys = derive_keys(seed, np.array(top, dtype=np.uint64))
            assert keys.tolist() == [key(seed, i) for i in top]
            for i in top:
                assert int(derive_keys(seed, np.uint64(i))) == key(seed, i)
                assert int(derive_keys(seed, np.array(i, dtype=np.uint64))) == key(seed, i)
            for j in top:
                assert int(bits_at(keys[2], np.uint64(j))) == bits(key(seed, top[2]), j)
                assert int(bits_at(keys[1], np.array(j, dtype=np.uint64))) == bits(
                    key(seed, top[1]), j)
            grid = bits_at(keys[:, None], np.array(top, dtype=np.uint64))
            assert grid.tolist() == [[bits(key(seed, i), j) for j in top] for i in top]
    assert int(zero_d) == int(scalar) == splitmix64_finalizer(values[0])
    assert array.tolist() == inplace.tolist() == [splitmix64_finalizer(v) for v in values]
    # The first output of SplitMix64 seeded with 0.
    assert int(array[2]) == 0xE220A8397B1DCDAF


def test_numpy_integer_seeds_equal_python_ints():
    # A numpy integer seed, negative ones included, names the same streams
    # as the Python int of its value (it once raised OverflowError).
    chain = build_markov_chain(8)
    phi, region = Spinor(0.6, 0.8), CaptureRegion(math.pi / 8, math.pi / 8, math.pi / 8)
    for seed in (-3, -(2**63), 2**63 - 1, 0):
        for numpy_seed in (np.int64(seed), np.array(seed)):
            assert derive_keys(numpy_seed, np.arange(4)).tolist() == derive_keys(
                seed, np.arange(4)).tolist()
            walks = run_ruin_walks(chain, 4, numpy_seed, 5)
            for got, want in zip(walks, run_ruin_walks(chain, 4, seed, 5)):
                assert np.array_equal(got, want)
            batch = run_collapse_batch(phi, region, numpy_seed, 20)
            for got, want in zip(batch, run_collapse_batch(phi, region, seed, 20)):
                assert np.array_equal(got, want)
    assert derive_keys(np.uint64(2**64 - 1), [0]).tolist() == derive_keys(-1, [0]).tolist()
