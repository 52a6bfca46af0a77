"""Deterministic per-trial random streams.

Every Monte Carlo trial in this package draws from its own stream, derived
purely from (master seed, trial index).  A draw is a pure function

    u(seed, trial, j) = (mix64(key(seed, trial) + (j + 1) * GOLDEN) >> 11) / 2^53,

where mix64 is the SplitMix64 output permutation, so trial i's stream is
exactly a SplitMix64 sequence seeded with key(seed, i).  Because no
generator state is threaded between draws, results are bit-identical no
matter how trials are scheduled or batched, and a batch engine may skip
evaluating draws whose values cannot influence the outcome without
changing any other draw.

numpy's stateful generators are deliberately not used here: creating one
generator object per trial dominates the runtime at 10^5 trials, while
this scheme vectorizes over (trial, draw-index) arrays.  Statistical
quality is enforced by the distribution tests in the suite.
"""

from __future__ import annotations

import numpy as np

GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53 = 2.0**-53


def mix64(z: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """SplitMix64 finalizer on uint64 values (wraps modulo 2^64).

    With `out` (which may be z itself) and `scratch` arrays of z's shape it
    works in place and allocates nothing.  It needs no np.errstate: explicit
    ufunc calls wrap uint64 without a warning, even on scalar or 0-d
    operands; only numpy's scalar operators (+, *) check for overflow, so
    derive_keys and bits_at call np.add and np.multiply as well.
    """
    z = np.asarray(z, dtype=np.uint64)
    z = np.bitwise_xor(z, np.right_shift(z, np.uint64(30), out=scratch), out=out)
    z = np.multiply(z, _MIX1, out=out)
    z = np.bitwise_xor(z, np.right_shift(z, np.uint64(27), out=scratch), out=out)
    z = np.multiply(z, _MIX2, out=out)
    return np.bitwise_xor(z, np.right_shift(z, np.uint64(31), out=scratch), out=out)


def derive_keys(seed: int, trial_indices) -> np.ndarray:
    """Per-trial stream keys from the master seed (any integer, taken
    modulo 2^64; a numpy integer is the Python int of the same value)."""
    idx = np.asarray(trial_indices, dtype=np.uint64)
    base = np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)
    step = np.multiply(np.add(idx, np.uint64(1)), GOLDEN)
    return mix64(mix64(np.add(base, GOLDEN)) ^ mix64(step))


def bits_at(keys: np.ndarray, draw_indices, out=None, scratch=None) -> np.ndarray:
    """Raw 64-bit draws mix64(key + (j + 1) * GOLDEN) of the keyed streams.

    `keys` and `draw_indices` broadcast against each other; `out` and
    `scratch` of the broadcast shape make it allocate nothing (see mix64).
    """
    j = np.asarray(draw_indices, dtype=np.uint64)
    z = np.add(keys, np.multiply(np.add(j, np.uint64(1)), GOLDEN), out=out)
    return mix64(z, out=out, scratch=scratch)


def uniforms_at(keys: np.ndarray, draw_indices) -> np.ndarray:
    """Uniform [0, 1) draws at absolute positions of the keyed streams.

    Entry j of a stream is its raw draw bits_at(key, j) mapped to the unit
    interval by its top 53 bits: u = (bits >> 11) * 2^-53.
    """
    return (bits_at(keys, draw_indices) >> np.uint64(11)).astype(np.float64) * _U53


class TrialStream:
    """Sequential view of one trial's stream; used by `run_collapse_trial`.

    `key` is the stream's key and `position` the index of its next draw;
    a trial reads its draws at those absolute positions (`bits_at`) and
    then skips past them, so consecutive trials on one TrialStream read
    the same numbers as the batched addressing.
    """

    def __init__(self, seed: int, trial_index: int = 0):
        self.key = derive_keys(seed, [trial_index])[0]
        self.position = 0

    def skip(self, n: int) -> None:
        self.position += n
