"""Levi-Civita geometry of the invariant metric on SU(2) = S^3.

Everything here is computed algebraically from the structure constants:
the connection on left-invariant fields is half the bracket, the curvature
operator is a quarter of the nested bracket, and every tangent plane has
sectional curvature 1 in Planck units.  A finite-difference oracle on the
embedded sphere lives in the test suite, not here.
"""

from __future__ import annotations

import numpy as np

from .su2 import commutator, killing_inner, killing_norm

_DEGENERATE_TOL = 1e-12
_ORTHO_TOL = 1e-10


class DegeneratePlaneError(ValueError):
    """The two tangent vectors do not span a plane."""


class OrthogonalityError(ValueError):
    """Inputs were required to be orthogonal in the invariant metric."""


def curvature(x, y, z):
    """Curvature operator on left-invariant fields: (1/4)[[X, Y], Z]."""
    return 0.25 * commutator(commutator(x, y), z)


def _gram(x, y):
    xx = killing_inner(x, x)
    yy = killing_inner(y, y)
    xy = killing_inner(x, y)
    return xx * yy - xy * xy


def sectional_curvature(x, y):
    """Sectional curvature of the plane spanned by X and Y.

    Evaluates (1/4) ([X,Y], [X,Y]) / (|X|^2 |Y|^2 - (X,Y)^2) and equals 1
    for every plane in Planck units.  The Gram determinant in the
    denominator makes the value independent of the choice of (not
    necessarily orthogonal) spanning vectors.  Rows of (..., 3) inputs are
    separate planes; any degenerate row raises.
    """
    denom = _gram(x, y)
    if np.any(denom < _DEGENERATE_TOL):
        raise DegeneratePlaneError(
            f"vectors span a degenerate plane (gram={np.min(denom):.3e})"
        )
    c = commutator(x, y)
    return 0.25 * killing_inner(c, c) / denom


def commutator_curvature_identity(x, y):
    """Both sides of |[X, Y]|^2 = 4 R(p) |X|^2 |Y|^2 for orthogonal X, Y.

    The left side is the squared norm of the bracket.  The right side
    evaluates R(p) through the curvature operator, (R(X,Y)X, Y)/gram, so
    the two routes only agree because of the invariance of the metric.
    Rows of (..., 3) inputs are separate pairs; any row that is not
    orthogonal or does not span a plane raises.
    """
    nx, ny = killing_norm(x), killing_norm(y)
    if np.any(np.abs(killing_inner(x, y)) > _ORTHO_TOL * np.maximum(1.0, nx * ny)):
        raise OrthogonalityError("X and Y must be orthogonal")
    gram = _gram(x, y)
    if np.any(gram < _DEGENERATE_TOL):
        raise DegeneratePlaneError("X and Y do not span a plane")
    c = commutator(x, y)
    lhs = killing_inner(c, c)
    r_p = killing_inner(curvature(x, y, x), y) / gram
    rhs = 4.0 * r_p * nx * nx * ny * ny
    return lhs, rhs
