"""Spin evolution in a homogeneous magnetic field.

The equation of motion is ``i hbar dphi/dt = -mu (sigma . B) phi``; its
solution through phi0 is the one-parameter propagator

    phi_t = exp((i/hbar) mu (sigma . B) t) phi0
          = (cos(theta) I + i sin(theta) sigma . n) phi0,

with theta = mu |B| t / hbar and n = B/|B|.  These curves are great
circles of S^3 traversed at the constant speed mu |B| / hbar, which is
what the diagnostics in this module verify: `speed_along` evaluates the
velocity-field norm sample by sample and `geodesic_planarity` measures
how far a sampled trajectory is from lying in a 2-plane of R^4.

The generic fourth-order integrator exists for dynamics that have no
closed form (perturbed metrics); for the homogeneous field it is checked
against the exact propagator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .su2 import PAULI, Spinor


class ZeroFieldError(ValueError):
    """Evolution requested in a vanishing magnetic field."""


class StepSizeError(ValueError):
    """Integrator step too large for the requested accuracy."""


@dataclass(frozen=True)
class FieldParams:
    """Homogeneous magnetic field B with moment mu, in Planck units."""

    B: np.ndarray
    mu: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        b = np.asarray(self.B, dtype=float).reshape(3).copy()
        b.flags.writeable = False
        object.__setattr__(self, "B", b)
        if self.mu == 0.0:
            raise ValueError("mu must be nonzero")
        if self.hbar <= 0.0:
            raise ValueError("hbar must be positive")

    @property
    def field_norm(self) -> float:
        return float(np.linalg.norm(self.B))

    @property
    def omega(self) -> float:
        """Angular frequency mu |B| / hbar."""
        return self.mu * self.field_norm / self.hbar

    @property
    def sigma_dot_b(self) -> np.ndarray:
        return sum(bk * s for bk, s in zip(self.B, PAULI))


@dataclass(frozen=True)
class Trajectory:
    """Sampled states along an evolution; immutable after construction.

    `max_drift` records the largest pre-renormalization deviation of the
    state norm from 1 seen by the integrator (0 for exact sampling).
    """

    times: np.ndarray
    states: np.ndarray
    meta: FieldParams
    max_drift: float = 0.0

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float).reshape(-1)
        s = np.asarray(self.states, dtype=complex).reshape(-1, 2)
        if len(t) != len(s):
            raise ValueError("times and states must have equal length")
        if len(t) > 1 and not np.all(np.diff(t) > 0.0):
            raise ValueError("times must be strictly increasing")
        norms = np.linalg.norm(s, axis=1)
        if np.abs(norms - 1.0).max(initial=0.0) > 1e-9:
            raise ValueError("states must be unit-normalized to 1e-9")
        t.flags.writeable = False
        s.flags.writeable = False
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", s)

    def __len__(self) -> int:
        return len(self.times)

    def spinor(self, i: int) -> Spinor:
        return Spinor(self.states[i, 0], self.states[i, 1])


def evolve_exact(phi0: Spinor, p: FieldParams, t: float) -> Spinor:
    """Apply the closed-form propagator to phi0.

    Raises ZeroFieldError when |B| = 0 (no evolution axis).
    """
    b = p.field_norm
    if b == 0.0:
        raise ZeroFieldError("evolution requires a nonzero field")
    theta = p.mu * b * t / p.hbar
    n = p.B / b
    u = math.cos(theta) * np.eye(2, dtype=complex) + 1j * math.sin(theta) * (
        sum(nk * s for nk, s in zip(n, PAULI))
    )
    v = u @ phi0.vector
    return Spinor(v[0], v[1])


def evolution_speed(p: FieldParams) -> float:
    """Speed of evolution on S^3: mu |B| / hbar, field direction irrelevant."""
    return abs(p.mu) * p.field_norm / p.hbar


def _velocity(states: np.ndarray, p: FieldParams) -> np.ndarray:
    """dphi/dt = (i/hbar) mu (sigma.B) phi for each row of `states`."""
    return (1j * p.mu / p.hbar) * states @ p.sigma_dot_b.T


def speed_along(traj: Trajectory) -> np.ndarray:
    """Velocity-field norm at every sample of a trajectory."""
    return np.linalg.norm(_velocity(traj.states, traj.meta), axis=1)


def integrate_numeric(
    phi0: Spinor, p: FieldParams, dt: float, n_steps: int
) -> Trajectory:
    """Classical fourth-order one-step integration of the spin equation.

    The state is renormalized after every step; the largest
    pre-normalization norm deviation is reported as `max_drift` on the
    returned trajectory rather than silently discarded.

    Raises StepSizeError when dt * |omega| > 0.1 (accuracy guard) and
    ZeroFieldError for a vanishing field.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if p.field_norm == 0.0:
        raise ZeroFieldError("evolution requires a nonzero field")
    if dt * abs(p.omega) > 0.1:
        raise StepSizeError(
            f"dt*|omega| = {dt * abs(p.omega):.3g} exceeds the 0.1 accuracy guard"
        )
    gen = (1j * p.mu / p.hbar) * p.sigma_dot_b
    state = phi0.vector
    states = np.empty((n_steps + 1, 2), dtype=complex)
    states[0] = state
    max_drift = 0.0
    for k in range(n_steps):
        k1 = gen @ state
        k2 = gen @ (state + 0.5 * dt * k1)
        k3 = gen @ (state + 0.5 * dt * k2)
        k4 = gen @ (state + dt * k3)
        state = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        norm = np.linalg.norm(state)
        max_drift = max(max_drift, abs(norm - 1.0))
        state = state / norm
        states[k + 1] = state
    times = dt * np.arange(n_steps + 1)
    return Trajectory(times, states, p, max_drift)


def geodesic_planarity(traj: Trajectory) -> float:
    """Great-circle residual: third singular value of the R^4 sample matrix.

    A trajectory lying on the intersection of S^3 with a plane through the
    origin spans a 2-dimensional subspace of R^4, so the residual vanishes
    for exact geodesics and is order 1 for genuinely non-planar paths.
    """
    if len(traj) < 4:
        raise ValueError("planarity needs at least 4 samples")
    s = traj.states
    points = np.column_stack([s[:, 0].real, s[:, 0].imag, s[:, 1].real, s[:, 1].imag])
    singular = np.linalg.svd(points, compute_uv=False)
    return float(singular[2])
