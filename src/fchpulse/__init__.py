"""Numerical laboratory for multi-pulse dynamics in one-dimensional
fourth-order phase-field gradient flows.

The package builds the low-energy n-pulse manifold of the inner-scaled
energy J(u) = int (1/2)(u'' - W'(u))^2 on [0, d/epsilon], simulates the
mass-preserving gradient flows u_t = -G grad J(u) for the spectral family
G = lam1^s D^{-s} (s in [0,1]), verifies the spectral and energy-landscape
hypotheses behind the slow-motion theory numerically, and integrates the
reduced pulse-position dynamics for comparison against the full flow.
"""

__version__ = "0.1.0"

from .core import (
    AdmissibilityError,
    ChecksumError,
    ConfigError,
    DomainError,
    ExtractionError,
    FchError,
    Grid,
    GridMismatchError,
    InvalidFieldError,
    MassSplitError,
    NoHomoclinicError,
    RefinementError,
    ScalarField,
    StiffnessError,
    SystemParams,
    ToleranceError,
    ValidationError,
    WellError,
    inner_product_x,
    norm,
)
from .wellmodel import (
    BackgroundProfile,
    DoubleWell,
    PulseProfile,
    default_well,
    far_field_params,
    solve_background,
    solve_homoclinic,
    stable_edge_floor,
)
from .ansatz import (
    AnsatzProfile,
    InternalParams,
    PulseConfiguration,
    PulseManifold,
    mass,
)
from .operators import (
    gradient_symbols,
    nonlinear_remainder,
    zero_mass_projection,
)
from .spectral import (
    AlignmentReport,
    CoercivityReport,
    ProfilePoint,
    SpectrumReport,
    coercivity_constant,
    el_bounds,
    run_hypothesis_suite,
    spectral_gap_report,
    symmetrized_gap,
    tangent_alignment,
)
from .dynamics import (
    ReducedModel,
    SimulationState,
    Trajectory,
    alpha_scaling,
    extract_pulse_positions,
    integrate_reduced,
    pulse_velocity_projection,
    run,
    step,
    velocity_scale,
)
from .harness import (
    ExperimentConfig,
    Laboratory,
    RunManifest,
    parse_config,
    run_experiment,
)
