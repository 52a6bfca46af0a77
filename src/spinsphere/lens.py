"""Geodesics of conformally flat metrics g = eta^2 * identity.

With the parameter tau defined by d(tau) = ds / eta, geodesics of such a
metric satisfy the geometrical-optics ray equation

    d^2 q / d tau^2 = (1/2) grad(eta^2),

i.e. Newtonian motion of a unit mass in the potential U = -eta^2 / 2.
The one field is `GaussianBump`, eta^2 = 1 plus a Gaussian dent of
amplitude A >= 0, with its analytic gradient as float functions of the
point (x, y) of the plane; A = 0 is the flat medium.  `integrate_ray`
returns a ray as one array with a (q, v) row per leapfrog step.  The ray
invariant E = |v|^2/2 - eta^2(q)/2 is conserved, which is the
integrator's primary diagnostic; `ray_energy` evaluates it along a ray.
`design_lens` searches the bumps of amplitude up to LENS_MAX_AMPLITUDE
for one that bends the ray launched from LENS_START with velocity
LENS_V0 onto a target point ("denting" the space so the geodesic lands
where the measurement wants it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .floats import fma

LENS_MISS_TOL = 1e-3  # a lens design is accepted when its ray passes this close
LENS_DTAU = 2e-3  # leapfrog step of the lens search's rays
LENS_START = (0.0, 0.0)  # every lens ray starts here ...
LENS_V0 = (1.0, 0.0)  # ... with this velocity dq/dtau
LENS_MAX_AMPLITUDE = 8.0  # the largest dent A the search tries


class LensSearchError(RuntimeError):
    """No perturbation in the configured family reached the target."""


class GaussianBump:
    """eta^2 = 1 + A exp(-|q - c|^2 / w^2) over the plane, with its analytic
    gradient, as float functions of the point (x, y).  A = 0 is the flat
    medium eta^2 = 1, whose rays are straight lines.

    |q - c|^2 is fma(dy, dy, dx * dx), the rounding of the BLAS dot
    product this field was first written with."""

    def __init__(self, center, amplitude: float, width: float):
        self.cx, self.cy = (float(c) for c in center)
        self.amplitude = amplitude
        self.w_sq = width**2

    def eta_sq(self, x: float, y: float) -> float:
        dx = x - self.cx
        dy = y - self.cy
        return 1.0 + self.amplitude * math.exp(-fma(dy, dy, dx * dx) / self.w_sq)

    def grad_eta_sq(self, x: float, y: float) -> tuple[float, float]:
        dx = x - self.cx
        dy = y - self.cy
        w_sq = self.w_sq
        scale = (-2.0 / w_sq) * (self.amplitude * math.exp(-fma(dy, dy, dx * dx) / w_sq))
        return scale * dx, scale * dy


def _plane_points(points) -> list:
    """Rows of a float array of shape (n, 2) as [x, y] lists."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError(f"expected points of the plane, shape (n, 2), got {points.shape}")
    return points.tolist()


def ray_energy(q, v, field: GaussianBump) -> np.ndarray:
    """Conserved ray invariant E = |v|^2 / 2 - eta^2(q) / 2 of every row of
    the positions q and velocities v, each of shape (n, 2); |v|^2 is
    fma(vy, vy, vx * vx), as in `GaussianBump`."""
    return np.array([
        0.5 * fma(vy, vy, vx * vx) - 0.5 * field.eta_sq(x, y)
        for (x, y), (vx, vy) in zip(_plane_points(q), _plane_points(v))
    ])


def integrate_ray(
    q0, v0, field: GaussianBump, dtau: float, n_steps: int
) -> np.ndarray:
    """Leapfrog (velocity Verlet) integration of the ray equation from
    position q0 and velocity v0 = dq/dtau at tau = 0, both points of the
    plane.

    Returns an array of shape (n_steps + 1, 2, 2): ray[k, 0] is q and
    ray[k, 1] is v at tau = k * dtau, the start included.  The scheme is
    symplectic, so E oscillates within an O(dtau^2) band instead of
    drifting.

    The step runs on Python floats, one coordinate at a time, with the
    operations of the numpy array step it replaced in the same order.  It
    has no multiply-add of its own; where a field or `ray_energy` has one
    (a squared distance or speed), it is `floats.fma`, rounded once
    exactly, so rays do not depend on the BLAS kernel of the machine.
    """
    if dtau <= 0.0:
        raise ValueError("dtau must be positive")
    (x, y), (vx, vy) = _plane_points([q0, v0])
    half = 0.5 * dtau
    grad = field.grad_eta_sq
    gx, gy = grad(x, y)
    ax, ay = 0.5 * gx, 0.5 * gy
    # Allocated before the loop, so a step count too large to hold fails here.
    ray = np.empty((n_steps + 1, 2, 2))
    flat = memoryview(ray.reshape(-1))
    flat[0], flat[1], flat[2], flat[3] = x, y, vx, vy
    for j in range(4, 4 * n_steps + 4, 4):
        hx = vx + half * ax
        hy = vy + half * ay
        x = x + dtau * hx
        y = y + dtau * hy
        gx, gy = grad(x, y)
        ax, ay = 0.5 * gx, 0.5 * gy
        vx = hx + half * ax
        vy = hy + half * ay
        flat[j], flat[j + 1], flat[j + 2], flat[j + 3] = x, y, vx, vy
    return ray


def _min_distance_to_point(positions: np.ndarray, target: np.ndarray) -> float:
    """Minimum distance from a polyline to a point (segment-exact)."""
    a = positions[:-1]
    b = positions[1:]
    ab = b - a
    denom = np.einsum("ij,ij->i", ab, ab)
    t = np.einsum("ij,ij->i", target - a, ab) / np.where(denom > 0, denom, 1.0)
    t = np.clip(t, 0.0, 1.0)
    nearest = a + t[:, None] * ab
    dists = np.linalg.norm(nearest - target, axis=1)
    end = np.linalg.norm(positions[-1] - target)
    return float(min(dists.min(), end))


@dataclass(frozen=True, eq=False)
class LensDesign:
    """Result of a lens search: the field, the achieved miss distance, and
    `ray`, the `integrate_ray` array of the ray the miss was measured on."""

    field: GaussianBump
    amplitude: float
    width: float
    center: np.ndarray
    miss: float
    ray: np.ndarray


def design_lens(target) -> LensDesign:
    """Find a Gaussian dent of eta^2 that steers the lens ray onto the target.

    The ray starts at LENS_START with velocity LENS_V0, so the target is
    (span, displacement): its distance along the launch and across it.
    The ray is traced with step LENS_DTAU for 2.5 |target| units of tau,
    plus 10 steps; the perturbation is A exp(-|q - c|^2/w^2) with the
    center placed halfway down the unperturbed ray and offset by
    w/sqrt(2) toward the target side, where the transverse pull of the
    bump is strongest (a bump centered on the target itself mostly
    accelerates the ray along-track and saturates).  For each width in the
    ladder (0.5, 0.25, 1.0) times |target|, the amplitude is bracketed by
    an upward doubling scan of the signed lateral miss, up to
    LENS_MAX_AMPLITUDE, and then bisected, at most 60 times; a width's
    bisection stops early once its bracket's two rays lie too close
    together for any ray between them to come within LENS_MISS_TOL (the
    sign change was a jump of the closest step between arcs of the ray,
    not a crossing of the target).  The search reports the best
    achieved miss distance and raises LensSearchError when no member of
    the family gets within LENS_MISS_TOL (the family is finite; existence
    of some perturbation is the model's claim, not a guarantee for this
    family).

    A target already on the unperturbed ray is accepted with the flat
    field and reported as A = 0, w = 0, centered on the target.
    """
    target = np.asarray(target, dtype=float)
    if np.allclose(LENS_START, target):
        raise ValueError("span and displacement put the lens target on the "
                         f"ray's start {LENS_START}")
    flat = GaussianBump((0.0, 0.0), 0.0, 1.0)

    with np.errstate(over="ignore"):  # a target beyond ~1e154 is inf away
        distance = float(np.linalg.norm(target))
    steps = 2.5 * distance / LENS_DTAU
    if not math.isfinite(steps):
        raise ValueError(f"the target is too far for the ray: {steps:g} steps")
    n_steps = int(steps) + 10

    flat_ray = integrate_ray(LENS_START, LENS_V0, flat, LENS_DTAU, n_steps)
    flat_positions = flat_ray[:, 0]
    flat_miss = _min_distance_to_point(flat_positions, target)
    best = LensDesign(flat, 0.0, 0.0, target.copy(), flat_miss, flat_ray)
    if best.miss < LENS_MISS_TOL:
        return best

    # Signed miss: component of the closest-approach offset along the
    # direction from the unperturbed ray toward the target; negative means
    # under-bent, positive over-bent, so a sign change brackets A.  The
    # closest flat sample is at least the flat miss (>= LENS_MISS_TOL)
    # away, so aim is a unit vector.
    closest_idx = np.argmin(np.linalg.norm(flat_positions - target, axis=1))
    aim = target - flat_positions[closest_idx]
    aim = aim / np.linalg.norm(aim)

    def probe(a, width, center):
        """Trace amplitude a and keep it as best if it misses least.  Returns
        whether the ray passes beyond the target (a NaN signed miss does
        not), and its positions with its miss."""
        nonlocal best
        field = GaussianBump(center, a, width)
        ray = integrate_ray(LENS_START, LENS_V0, field, LENS_DTAU, n_steps)
        positions = ray[:, 0]
        idx = np.argmin(np.linalg.norm(positions - target, axis=1))
        miss = _min_distance_to_point(positions, target)
        if miss < best.miss:
            best = LensDesign(field, a, width, center.copy(), miss, ray)
        return float(np.dot(positions[idx] - target, aim)) > 0.0, (positions, miss)

    def stuck(lo, hi):
        """Whether bisecting between the rays lo and hi, each its positions
        and miss, cannot succeed: each step of one ray lies within d of the
        other's, and both miss by at least d + LENS_MISS_TOL, so a ray
        between them (within about d of both, for a smooth family) misses
        too.  Rays on either side of the target, a true sign change, miss
        by less than about d."""
        d = np.linalg.norm(lo[0] - hi[0], axis=1).max()
        return min(lo[1], hi[1]) - d >= LENS_MISS_TOL

    midpoint = 0.5 * flat_positions[closest_idx]
    for width in (0.5 * distance, 0.25 * distance, 1.0 * distance):
        center = midpoint + (width / math.sqrt(2.0)) * aim
        lo_a, a, lo = 0.0, LENS_MAX_AMPLITUDE / 64.0, (flat_positions, flat_miss)
        while a <= LENS_MAX_AMPLITUDE:
            over, hi = probe(a, width, center)
            if over:
                break
            lo_a, a, lo = a, 2.0 * a, hi
        else:
            continue
        hi_a = a
        for _ in range(60):
            if stuck(lo, hi):
                break
            mid = 0.5 * (lo_a + hi_a)
            over, ray = probe(mid, width, center)
            if over:
                hi_a, hi = mid, ray
            else:
                lo_a, lo = mid, ray
            if best.miss < LENS_MISS_TOL:
                return best
    if best.miss < LENS_MISS_TOL:
        return best
    raise LensSearchError(
        f"no (A, w) in the family reached miss < {LENS_MISS_TOL:g}; "
        f"best miss {best.miss:.3e}"
    )
