"""Geometric quantum mechanics of two-level systems.

Unitary spin evolution as geodesic motion on the sphere of states,
projective (Bloch) geometry of measurement, and a stochastic
metric-perturbation model of collapse that reproduces the Born rule.

The package namespace re-exports nothing: import the submodules
(``spinsphere.su2``, ``spinsphere.bloch``, ``spinsphere.collapse``, ...).
"""
