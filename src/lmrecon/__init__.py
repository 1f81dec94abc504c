"""Levenberg-Marquardt solver for ill-posed nonlinear operator equations.

The regularization parameter of every step is selected by the discrepancy
principle, noisy runs stop by the discrepancy criterion, and a lattice scan
over a compact box turns the local convergence guarantees into global
reconstruction algorithms for finitely many measurements.
"""

from .engine import (
    HypothesisReport,
    IterationTrace,
    SolverConfig,
    TheoryConstantsExact,
    TheoryConstantsNoisy,
    TraceRecord,
    compute_constants_exact,
    compute_constants_noisy,
    iterations_for_accuracy,
    kstar_log_estimate,
    kstar_upper_bound,
    landweber_run,
    nu_additional_bound,
    qtilde,
    rate_bound,
    run_exact,
    run_noisy,
    tangential_cone_eta,
)
from .errors import (
    CertificationFailed,
    ConditionViolated,
    ConfigInvalid,
    DegenerateModel,
    DimensionMismatch,
    DivergenceDetected,
    DomainViolation,
    FactorizationFailure,
    LatticeTooLarge,
    NoCandidateFound,
    NonConvergence,
    NonFiniteOutput,
    RootInfeasible,
    SolverError,
    ZeroResidual,
)
from .gallery import (
    GalleryProblem,
    estimate_stability_constants,
    exp_decay,
    gallery_ids,
    get_problem,
    quadratic_perturbation,
    scalar_linear,
    verify_certificate,
)
from .operators import (
    ForwardModel,
    StabilityCertificate,
    apply_forward,
    check_domain,
    estimate_jacobian_norm,
    finite_difference_jacobian,
    jacobian_matrix,
    recenter,
)
from .recon import (
    CompactBox,
    Lattice,
    MeasurementOperator,
    build_lattice,
    compose_measured_model,
    lattice_radius,
    reconstruct_exact,
    reconstruct_noisy,
    scan_for_initial_guess,
)
from .step import StepDiagnostics, lm_step

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
