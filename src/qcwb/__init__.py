"""qcwb: a numerical workbench for quadratic matrix relation systems.

The package revolves around triples (h, x, k) of complex matrices subject to
the relations h*h + x*x = h, k*k + xx* = k, kx = xh, hk = 0, equivalently
encoded by a 2x2 block projection.  It provides residual measurement, a
relation DSL, functional-calculus smoothing of approximate solutions into
exact ones, corner/linking-algebra structure maps, and an index (winding)
pipeline over a discretized interval algebra.
"""

from .linalg import (
    DEFAULT_PROFILE,
    PROFILES,
    DimMismatch,
    EigenSystem,
    GapTooSmall,
    NoConvergence,
    NotHermitian,
    NotPositive,
    RealFunction,
    ToleranceProfile,
    adjoint,
    frac_power,
    func_calc,
    herm_eig,
    jacobi_eigh,
    nearest_projection,
    op_norm,
    unitary_exp,
)
from .qc_model import (
    FactorizationResidualTooLarge,
    QcTriple,
    canonical_fiber,
    canonical_generators,
    factor_x,
    high_level_residuals,
    low_level_residuals,
    positivity_residuals,
    t_matrix,
)
from .structures import (
    CornerQuad,
    CornerSystem,
    LinkingElement,
    SupportViolation,
    corner_ideal_equality,
    homotopy_theta,
    linking_adjoint,
    linking_mul,
    linking_to_dense,
    make_corner_system,
    rho,
    theta_is_homomorphism,
)
from .relations import (
    FUNCTIONS,
    QC_RELATION_SOURCE,
    NotHermitianAtFnApp,
    RelationSet,
    RelationSyntaxError,
    SamplerExhausted,
    UnboundVariable,
    ValidationError,
    delta_eps_sweep,
    evaluate,
    parse,
    parse_expression,
    perturbation_sampler,
    pretty,
    residuals,
)
from .smoothing import (
    NoWorkableTheta,
    ResidualTooLarge,
    SmoothingParams,
    SmoothingReport,
    SpectralGapFailure,
    auto_theta,
    make_gminus,
    make_gplus,
    make_qminus,
    make_qplus,
    smooth_representation,
)
from .boundary import (
    BoundaryResult,
    EndpointDefect,
    GridFunction,
    IntervalModel,
    LiftResidual,
    NoSpectralGap,
    PhaseStepTooLarge,
    WindingIllConditioned,
    WindingIndexMismatch,
    boundary_unitary,
    builtin_scenario,
    exact_projection_lift,
    homotopy_collapse,
    lift_T,
    run_scenario,
    winding_number,
)

__version__ = "0.1.0"
