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
import sys
from dataclasses import dataclass, field

import numpy as np

from .floats import fma
from .su2 import PAULI, Spinor


class ZeroFieldError(ValueError):
    """Evolution requested in a vanishing magnetic field."""


class StepSizeError(ValueError):
    """Integrator step too large for the requested accuracy."""


@dataclass(frozen=True, eq=False)
class FieldParams:
    """Homogeneous magnetic field B with moment mu, in Planck units.

    |B| (`field_norm`) and the matrix sigma . B (`sigma_dot_b`) are
    computed once, when the instance is made; B and sigma . B are
    read-only arrays.  |B| is sqrt(B . B) while B . B is a normal float,
    and math.hypot (which scales) where B . B over- or underflows.
    """

    B: np.ndarray
    mu: float = 1.0
    hbar: float = 1.0
    field_norm: float = field(init=False, repr=False, compare=False)
    sigma_dot_b: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        b = np.asarray(self.B, dtype=float).reshape(3).copy()
        b.flags.writeable = False
        object.__setattr__(self, "B", b)
        if self.mu == 0.0:
            raise ValueError("mu must be nonzero")
        if self.hbar <= 0.0:
            raise ValueError("hbar must be positive")
        sigma_b = sum(bk * s for bk, s in zip(b, PAULI))
        sigma_b.flags.writeable = False
        with np.errstate(over="ignore"):
            sq = float(b.dot(b))
        norm = math.sqrt(sq) if sys.float_info.min <= sq < math.inf else math.hypot(*b)
        object.__setattr__(self, "field_norm", norm)
        object.__setattr__(self, "sigma_dot_b", sigma_b)

    @property
    def omega(self) -> float:
        """Angular frequency mu |B| / hbar."""
        return self.mu * self.field_norm / self.hbar


@dataclass(frozen=True, eq=False)
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


def _gen_times(g, x):
    """gen @ x for a complex pair x as (re, im) parts, rounded as BLAS's
    zgemv rounds it: each row is the sum of two complex products z * x_j,
    each (fma(z.re, x_j.re, -(z.im * x_j.im)), fma(z.re, x_j.im, z.im * x_j.re)).

    g holds each entry z of the 2x2 matrix gen, row by row, as
    (z.re, z.im, -z.im); -(z.im * y) is (-z.im) * y exactly."""
    g00r, g00i, g00n, g01r, g01i, g01n, g10r, g10i, g10n, g11r, g11i, g11n = g
    ar, ai, br, bi = x
    return (
        fma(g00r, ar, g00n * ai) + fma(g01r, br, g01n * bi),
        fma(g00r, ai, g00i * ar) + fma(g01r, bi, g01i * br),
        fma(g10r, ar, g10n * ai) + fma(g11r, br, g11n * bi),
        fma(g10r, ai, g10i * ar) + fma(g11r, bi, g11i * br),
    )


def _plus_scaled(x, s, k):
    """x + s * k for complex pairs x, k as (re, im) parts and a real s, as
    numpy rounds it: s is promoted to s + 0j, and 0 * (the other part) sets
    the sign of a zero."""
    xar, xai, xbr, xbi = x
    kar, kai, kbr, kbi = k
    return (
        xar + (s * kar - 0.0 * kai),
        xai + (s * kai + 0.0 * kar),
        xbr + (s * kbr - 0.0 * kbi),
        xbi + (s * kbi + 0.0 * kbr),
    )


def integrate_numeric(
    phi0: Spinor, p: FieldParams, dt: float, n_steps: int
) -> Trajectory:
    """Classical fourth-order one-step integration of the spin equation.

    The state is renormalized after every step; the largest
    pre-normalization norm deviation is reported as `max_drift` on the
    returned trajectory rather than silently discarded.

    The step runs on Python floats, the (re, im) parts of both
    components, with the formulas of the complex numpy step it replaced,
    in the same order, and with that step's roundings on a BLAS that uses
    fused multiply-adds: `gen @ state` as `_gen_times`, each real times
    complex as in `_plus_scaled`, the norm as
    sqrt(fma(b.re, b.re, a.re * a.re) + fma(b.im, b.im, a.im * a.im)), and
    the division by the norm as numpy's complex division, a multiply by
    1/norm.  Each multiply-add is `floats.fma`, rounded once exactly, so
    the bits no longer depend on the BLAS kernel of the machine.

    Raises StepSizeError when dt * |omega| > 0.1 (accuracy guard) and
    ZeroFieldError for a vanishing field or an omega that underflows to 0.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if p.field_norm == 0.0:
        raise ZeroFieldError("evolution requires a nonzero field")
    if p.omega == 0.0:
        raise ZeroFieldError("omega = mu |B| / hbar underflows to 0")
    if dt * abs(p.omega) > 0.1:
        raise StepSizeError(
            f"dt*|omega| = {dt * abs(p.omega):.3g} exceeds the 0.1 accuracy guard"
        )
    gen = (1j * p.mu / p.hbar) * p.sigma_dot_b
    g = [part for z in gen.ravel().tolist() for part in (z.real, z.imag, -z.imag)]
    half, sixth = 0.5 * dt, dt / 6.0
    state = (phi0.c1.real, phi0.c1.imag, phi0.c2.real, phi0.c2.imag)
    # Allocated before the loop, so a step count too large to hold fails here.
    states = np.empty((n_steps + 1, 2), dtype=complex)
    flat = memoryview(states.view(float).reshape(-1))
    flat[0], flat[1], flat[2], flat[3] = state
    max_drift = 0.0
    for j in range(4, 4 * n_steps + 4, 4):
        k1 = _gen_times(g, state)
        k2 = _gen_times(g, _plus_scaled(state, half, k1))
        k3 = _gen_times(g, _plus_scaled(state, half, k2))
        k4 = _gen_times(g, _plus_scaled(state, dt, k3))
        # k1 + 2 k2 + 2 k3 + k4, added left to right
        partial = _plus_scaled(_plus_scaled(k1, 2.0, k2), 2.0, k3)
        total = (partial[0] + k4[0], partial[1] + k4[1], partial[2] + k4[2], partial[3] + k4[3])
        ar, ai, br, bi = _plus_scaled(state, sixth, total)
        norm = math.sqrt(fma(br, br, ar * ar) + fma(bi, bi, ai * ai))
        max_drift = max(max_drift, abs(norm - 1.0))
        inv = 1.0 / norm  # numpy divides by norm + 0j: (re + im * 0) / norm
        state = ((ar + ai * 0.0) * inv, (ai - ar * 0.0) * inv,
                 (br + bi * 0.0) * inv, (bi - br * 0.0) * inv)
        flat[j], flat[j + 1], flat[j + 2], flat[j + 3] = state
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
