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

    The step runs on Python floats, the (re, im) parts of both
    components, with the formulas of the complex numpy step it replaced,
    in the same order, and with that step's roundings on a BLAS that uses
    fused multiply-adds.  Each k = gen @ x sums two complex products z * x_j
    a row, each (fma(z.re, x_j.re, -(z.im * x_j.im)), fma(z.re, x_j.im,
    z.im * x_j.re)); each real s times a complex k is numpy's promotion of s
    to s + 0j, whose 0 * (the other part) sets the sign of a zero; the norm
    is sqrt(fma(b.re, b.re, a.re * a.re) + fma(b.im, b.im, a.im * a.im)),
    and the division by it numpy's complex division, a multiply by 1/norm.
    Each multiply-add is `floats.fma`, rounded once exactly, so the bits no
    longer depend on the BLAS kernel of the machine.  The diagonal entries
    of gen = i(mu/hbar) sigma.B have real part +-0 (or nan), and so do the
    off-diagonal ones when B_y = 0; their terms are written a * b + c,
    fma's own result for such a factor, without the call.

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
    (g00r, g00i), (g01r, g01i), (g10r, g10i), (g11r, g11i) = (
        (z.real, z.imag) for z in gen.ravel().tolist())
    # -(z.im * y) is (-z.im) * y exactly.
    g00n, g01n, g10n, g11n = -g00i, -g01i, -g10i, -g11i
    off = g01r == 0.0 == g10r
    half, sixth = 0.5 * dt, dt / 6.0
    stages = ((half, 1), (half, 2), (dt, 3), (sixth, 4))
    ar, ai, br, bi = phi0.c1.real, phi0.c1.imag, phi0.c2.real, phi0.c2.imag
    # Allocated before the loop, so a step count too large to hold fails here.
    states = np.empty((n_steps + 1, 2), dtype=complex)
    flat = memoryview(states.view(float).reshape(-1))
    flat[0], flat[1], flat[2], flat[3] = ar, ai, br, bi
    max_drift = 0.0
    for j in range(4, 4 * n_steps + 4, 4):
        # Stage k: k = gen @ x, then x = state + s * (k, or at the last stage
        # k1 + 2 k2 + 2 k3 + k4, added left to right).
        xar, xai, xbr, xbi = ar, ai, br, bi
        for s, stage in stages:
            kar = ((g00r * xar + g00n * xai)
                   + (g01r * xbr + g01n * xbi if off else fma(g01r, xbr, g01n * xbi)))
            kai = ((g00r * xai + g00i * xar)
                   + (g01r * xbi + g01i * xbr if off else fma(g01r, xbi, g01i * xbr)))
            kbr = ((g10r * xar + g10n * xai if off else fma(g10r, xar, g10n * xai))
                   + (g11r * xbr + g11n * xbi))
            kbi = ((g10r * xai + g10i * xar if off else fma(g10r, xai, g10i * xar))
                   + (g11r * xbi + g11i * xbr))
            if stage == 1:
                tar, tai, tbr, tbi = kar, kai, kbr, kbi
            elif stage < 4:
                tar, tai = tar + (2.0 * kar - 0.0 * kai), tai + (2.0 * kai + 0.0 * kar)
                tbr, tbi = tbr + (2.0 * kbr - 0.0 * kbi), tbi + (2.0 * kbi + 0.0 * kbr)
            else:
                kar, kai, kbr, kbi = tar + kar, tai + kai, tbr + kbr, tbi + kbi
            xar, xai = ar + (s * kar - 0.0 * kai), ai + (s * kai + 0.0 * kar)
            xbr, xbi = br + (s * kbr - 0.0 * kbi), bi + (s * kbi + 0.0 * kbr)
        norm = math.sqrt(fma(xbr, xbr, xar * xar) + fma(xbi, xbi, xai * xai))
        max_drift = max(max_drift, abs(norm - 1.0))
        inv = 1.0 / norm  # numpy divides by norm + 0j: (re + im * 0) / norm
        ar, ai = (xar + xai * 0.0) * inv, (xai - xar * 0.0) * inv
        br, bi = (xbr + xbi * 0.0) * inv, (xbi - xbr * 0.0) * inv
        flat[j], flat[j + 1], flat[j + 2], flat[j + 3] = ar, ai, br, bi
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
