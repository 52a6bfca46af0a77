"""Geodesics of conformally flat metrics g = eta^2 * identity.

With the parameter tau defined by d(tau) = ds / eta, geodesics of such a
metric satisfy the geometrical-optics ray equation

    d^2 q / d tau^2 = (1/2) grad(eta^2),

i.e. Newtonian motion of a unit mass in the potential U = -eta^2 / 2.
A field carries eta^2 and its analytic gradient as float functions of
the point (x, y) of the plane.  `integrate_ray` returns a ray as one
array with a (q, v) row per leapfrog step.  The ray invariant
E = |v|^2/2 - eta^2(q)/2 is conserved, which is the integrator's
primary diagnostic; `ray_energy` evaluates it along a ray.
`design_lens` searches a family of localized Gaussian perturbations of
eta^2 for one that bends a given ray onto a target point ("denting" the
space so the geodesic lands where the measurement wants it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .floats import fma

LENS_MISS_TOL = 1e-3  # a lens design is accepted when its ray passes this close
LENS_DTAU = 2e-3  # leapfrog step of the lens search's rays


class FieldEvaluationError(RuntimeError):
    """A refractive field could not be evaluated at a ray position."""


class LensSearchError(RuntimeError):
    """No perturbation in the configured family reached the target."""


class RefractiveField:
    """Scalar field eta^2 over the plane, with its analytic gradient.

    eta_sq_fn(x, y) returns eta^2 at the point (x, y) as a float, and
    grad_fn(x, y) returns its gradient as a float pair (gx, gy).  eta^2
    must be positive and finite wherever it is evaluated; a failure of
    either function is raised as FieldEvaluationError naming the point.
    """

    def __init__(self, eta_sq_fn, grad_fn):
        self._eta_sq_fn = eta_sq_fn
        self._grad_fn = grad_fn

    def eta_sq(self, x: float, y: float) -> float:
        try:
            value = float(self._eta_sq_fn(x, y))
        except Exception as exc:
            raise FieldEvaluationError(f"eta^2 failed at q=({x}, {y})") from exc
        if not math.isfinite(value) or value <= 0.0:
            raise FieldEvaluationError(
                f"eta^2 must be positive and finite, got {value} at q=({x}, {y})"
            )
        return value

    def grad_eta_sq(self, x: float, y: float) -> tuple[float, float]:
        try:
            gx, gy = self._grad_fn(x, y)
        except Exception as exc:
            raise FieldEvaluationError(f"grad eta^2 failed at q=({x}, {y})") from exc
        return gx, gy


def uniform_field() -> RefractiveField:
    """Homogeneous medium eta^2 = 1: straight-line rays."""
    return RefractiveField(lambda x, y: 1.0, lambda x, y: (0.0, 0.0))


def gaussian_bump_field(center, amplitude: float, width: float) -> RefractiveField:
    """eta^2 = 1 + A exp(-|q - c|^2 / w^2), with analytic gradient.

    |q - c|^2 is fma(dy, dy, dx * dx), the rounding of the BLAS dot
    product this field was first written with."""
    cx, cy = (float(c) for c in center)
    w_sq = width**2

    def eta_sq(x, y):
        dx = x - cx
        dy = y - cy
        return 1.0 + amplitude * math.exp(-fma(dy, dy, dx * dx) / w_sq)

    def grad(x, y):
        dx = x - cx
        dy = y - cy
        scale = (-2.0 / w_sq) * (amplitude * math.exp(-fma(dy, dy, dx * dx) / w_sq))
        return scale * dx, scale * dy

    return RefractiveField(eta_sq, grad)


def _plane_points(points) -> list:
    """Rows of a float array of shape (n, 2) as [x, y] lists."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError(f"expected points of the plane, shape (n, 2), got {points.shape}")
    return points.tolist()


def ray_energy(q, v, field: RefractiveField) -> np.ndarray:
    """Conserved ray invariant E = |v|^2 / 2 - eta^2(q) / 2 of every row of
    the positions q and velocities v, each of shape (n, 2); |v|^2 is
    fma(vy, vy, vx * vx), as in `gaussian_bump_field`."""
    return np.array([
        0.5 * fma(vy, vy, vx * vx) - 0.5 * field.eta_sq(x, y)
        for (x, y), (vx, vy) in zip(_plane_points(q), _plane_points(v))
    ])


def integrate_ray(
    q0, v0, field: RefractiveField, dtau: float, n_steps: int
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
    gx, gy = field.grad_eta_sq(x, y)
    ax, ay = 0.5 * gx, 0.5 * gy
    ray = [x, y, vx, vy]
    for _ in range(n_steps):
        hx = vx + half * ax
        hy = vy + half * ay
        x = x + dtau * hx
        y = y + dtau * hy
        gx, gy = field.grad_eta_sq(x, y)
        ax, ay = 0.5 * gx, 0.5 * gy
        vx = hx + half * ax
        vy = hy + half * ay
        ray += (x, y, vx, vy)
    return np.array(ray).reshape(n_steps + 1, 2, 2)


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

    field: RefractiveField
    amplitude: float
    width: float
    center: np.ndarray
    miss: float
    ray: np.ndarray


def design_lens(phi_a, v0, target, max_amplitude: float = 8.0) -> LensDesign:
    """Find a Gaussian dent of eta^2 that steers the ray onto the target.

    The ray starts at phi_a with velocity v0 in the flat chart (eta^2 = 1)
    and is traced with step LENS_DTAU for 2.5 |target - phi_a| / |v0|
    units of tau, plus 10 steps; the perturbation is
    A exp(-|q - c|^2/w^2) with the center placed halfway down the
    unperturbed ray and offset by w/sqrt(2) toward the target side, where
    the transverse pull of the bump is strongest (a bump centered on the
    target itself mostly accelerates the ray along-track and saturates).
    For each width in the ladder (0.5, 0.25, 1.0) times the distance to
    the target, the amplitude is bracketed by an upward doubling scan of
    the signed lateral miss, up to max_amplitude, and then bisected.  The
    search reports the best achieved miss distance and raises
    LensSearchError when no member of the family gets within
    LENS_MISS_TOL (the family is finite; existence of some perturbation
    is the model's claim, not a guarantee for this family).

    A target already on the unperturbed ray is accepted with A = 0.
    """
    phi_a = np.asarray(phi_a, dtype=float)
    target = np.asarray(target, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if np.allclose(phi_a, target):
        raise ValueError("phi_a and target must differ")
    flat = uniform_field()

    with np.errstate(over="ignore"):  # a target beyond ~1e154 is inf away
        span = float(np.linalg.norm(target - phi_a))
    speed = max(float(np.linalg.norm(v0)), 1e-12)
    steps = 2.5 * span / (speed * LENS_DTAU)
    if not math.isfinite(steps):
        raise ValueError(f"the target is too far for the ray: {steps:g} steps")
    n_steps = int(steps) + 10

    flat_ray = integrate_ray(phi_a, v0, flat, LENS_DTAU, n_steps)
    flat_positions = flat_ray[:, 0]
    best = LensDesign(flat, 0.0, 0.0, target.copy(),
                      _min_distance_to_point(flat_positions, target), flat_ray)
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

    def beyond(a, width, center):
        """Trace amplitude a, keep it as best if it misses least, and say
        whether the ray passes beyond the target (a NaN signed miss does not)."""
        nonlocal best
        field = gaussian_bump_field(center, a, width)
        ray = integrate_ray(phi_a, v0, field, LENS_DTAU, n_steps)
        positions = ray[:, 0]
        idx = np.argmin(np.linalg.norm(positions - target, axis=1))
        miss = _min_distance_to_point(positions, target)
        if miss < best.miss:
            best = LensDesign(field, a, width, center.copy(), miss, ray)
        return float(np.dot(positions[idx] - target, aim)) > 0.0

    midpoint = phi_a + 0.5 * (flat_positions[closest_idx] - phi_a)
    for width in (0.5 * span, 0.25 * span, 1.0 * span):
        center = midpoint + (width / math.sqrt(2.0)) * aim
        lo_a, a = 0.0, max_amplitude / 64.0
        while a <= max_amplitude:
            if beyond(a, width, center):
                break
            lo_a, a = a, 2.0 * a
        else:
            continue
        hi_a = a
        for _ in range(60):
            mid = 0.5 * (lo_a + hi_a)
            if beyond(mid, width, center):
                hi_a = mid
            else:
                lo_a = mid
            if best.miss < LENS_MISS_TOL:
                return best
    if best.miss < LENS_MISS_TOL:
        return best
    raise LensSearchError(
        f"no (A, w) in the family reached miss < {LENS_MISS_TOL:g}; "
        f"best miss {best.miss:.3e}"
    )
