"""The EPR measurement of a spin pair, driven by the collapse engine.

A pair state lives on the unit sphere of C^2 (x) C^2, with amplitudes
c_ij on the product basis phi_i psi_j, i, j in {+, -}.  The
zero-total-angular-momentum sector a phi+ psi- + b phi- psi+ is treated
as an effective two-level system whose "classical" points are the
product states phi+ psi- and phi- psi+; measuring the Z component of the
first spin runs the single-push collapse machinery on (a, b) and reports
structurally opposite values for the two particles.  Collapse to
eigenstate e (0 for phi+ psi-, 1 for phi- psi+) gives the spin values
(1 - 2 e, 2 e - 1), so they name the classical point reached.  A single
measurement returns them in a MeasurementRecord with the collapse steps;
a batch returns them as arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .collapse import (
    DEFAULT_REGION,
    CaptureRegion,
    run_collapse_batch,
    run_collapse_trial,
)
from .randomness import TrialStream
from .su2 import Spinor, over


@dataclass(frozen=True)
class SingletSectorState:
    """State a phi+ psi- + b phi- psi+ of the zero-momentum sector."""

    a: complex
    b: complex

    def __post_init__(self):
        n = float(np.hypot(abs(self.a), abs(self.b)))
        if n == 0.0 or not np.isfinite(n):
            raise ValueError("cannot normalize a zero sector state")
        object.__setattr__(self, "a", over(self.a, n))
        object.__setattr__(self, "b", over(self.b, n))

    @property
    def effective_spinor(self) -> Spinor:
        """The sector as a two-level state on the basis (phi+ psi-, phi- psi+)."""
        return Spinor(self.a, self.b)


@dataclass(frozen=True)
class MeasurementRecord:
    """Outcome of a joint Z measurement on the pair: the spin values
    (+1, -1) at phi+ psi- or (-1, +1) at phi- psi+, and the collapse steps."""

    first: int
    second: int
    steps: int


def measure_first_z(
    s: SingletSectorState,
    rng: TrialStream,
    region: CaptureRegion = DEFAULT_REGION,
) -> MeasurementRecord:
    """Measure the Z spin of the first particle (and thereby the second).

    The sector state collapses to one of the classical points through the
    single-push source competition; the particles' reported values are
    opposite in every trial by construction of the sector.
    """
    outcome = run_collapse_trial(s.effective_spinor, region, rng)
    first = 1 - 2 * outcome.eigenstate
    return MeasurementRecord(first=first, second=-first, steps=outcome.steps)


def run_epr_batch(
    s: SingletSectorState,
    seed: int,
    n_trials: int,
    region: CaptureRegion = DEFAULT_REGION,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n_trials joint measurements with per-trial streams (seed, i).

    Returns the arrays (first, second, steps): the Z values (+1 or -1) of
    the two spins and the collapse steps of each trial.  Trial i matches
    measure_first_z on TrialStream(seed, i).
    """
    eigenstates, steps = run_collapse_batch(s.effective_spinor, region, seed, n_trials)
    first = 1 - 2 * eigenstates
    return first, -first, steps


def epr_statistics(first: np.ndarray, second: np.ndarray, seed: int) -> dict:
    """Summary of an EPR run (the spin arrays of run_epr_batch) in the
    report schema."""
    return {
        "n_trials": int(first.size),
        "seed": seed,
        "counts_plus_minus": int(np.count_nonzero((first == 1) & (second == -1))),
        "counts_minus_plus": int(np.count_nonzero((first == -1) & (second == 1))),
        "anti_correlation_violations": int(np.count_nonzero(first != -second)),
    }
