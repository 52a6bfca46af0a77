"""Geometric quantum mechanics of two-level systems.

Unitary spin evolution as geodesic motion on the sphere of states,
projective (Bloch) geometry of measurement, and a stochastic
metric-perturbation model of collapse that reproduces the Born rule.
"""

from .su2 import (
    BlochVector,
    MatRep,
    Spinor,
    commutator,
    embed_r3,
    killing_inner,
    killing_norm,
    omega,
    omega_inverse,
    pauli_product,
)
from .curvature import (
    DegeneratePlaneError,
    OrthogonalityError,
    commutator_curvature_identity,
    connection_coeff,
    curvature,
    sectional_curvature,
)
from .evolution import (
    FieldParams,
    StepSizeError,
    Trajectory,
    ZeroFieldError,
    evolution_speed,
    evolve_exact,
    geodesic_planarity,
    integrate_numeric,
    speed_along,
)
from .bloch import (
    ChartSingularityError,
    PauliMoments,
    energy_uncertainty,
    fs_distance,
    hopf_project,
    inhomogeneous_coord,
    pauli_moments,
    projective_speed,
    spinor_from_bloch,
    transition_probability,
    uncertainty_margin,
    variance_on_geodesic,
)
from .collapse import (
    DEFAULT_REGION,
    CaptureRegion,
    CollapseOutcome,
    CollapseTimeoutError,
    MarkovChainModel,
    absorption_probabilities,
    born_statistics,
    build_markov_chain,
    capture_probability,
    delta_distance_sq,
    delta_overlap,
    run_collapse_batch,
    run_collapse_trial,
    run_ruin_walks,
    source_frame_coords,
    theta_cdf,
    theta_pdf,
)
from .lens import (
    FieldEvaluationError,
    LensDesign,
    LensSearchError,
    RefractiveField,
    SingularHamiltonianError,
    design_lens,
    gaussian_bump_field,
    hamiltonian_metric,
    integrate_ray,
    ray_energy,
    uniform_field,
)
from .pairs import (
    MeasurementRecord,
    PairState,
    SingletSectorState,
    epr_statistics,
    is_entangled,
    measure_first_z,
    run_epr_batch,
    tensor_state,
)
from .randomness import TrialStream, derive_keys, uniforms_at

__all__ = [name for name in dir() if not name.startswith("_")]
