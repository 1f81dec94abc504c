"""Exception hierarchy for the solver library.

Every failure mode that carries meaning for the calling code gets its own
class; the CLI maps them onto exit codes.
"""


class SolverError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(SolverError):
    """Vector or matrix dimensions do not match the model."""


class DomainViolation(SolverError):
    """A point lies outside the admissible ball of the forward model."""


class NonFiniteOutput(SolverError):
    """The forward map or its Jacobian returned NaN or inf."""


class FactorizationFailure(SolverError):
    """The Gram matrix J J* is asymmetric or has a negative eigenvalue: the
    adjoint action is inconsistent with the Jacobian."""


class RootInfeasible(SolverError):
    """The Morozov target is unreachable: the residual's part orthogonal to the
    Jacobian range has norm at least q * ||r||."""


class NonConvergence(SolverError):
    """An iterative search exhausted its budget without meeting tolerance,
    or a LAPACK routine failed to converge."""


class ZeroResidual(SolverError):
    """The residual is exactly zero; the iterate already solves the equation."""


class ConditionViolated(SolverError):
    """A theorem hypothesis fails for the supplied constants (e.g. rho >= rho')."""


class NoCandidateFound(SolverError):
    """No lattice point satisfies the measured-data proximity test."""


class LatticeTooLarge(SolverError):
    """The covering lattice would exceed the point cap."""


class DegenerateModel(SolverError):
    """Two distinct points map to identical data; stability fails on this box."""


class CertificationFailed(SolverError):
    """An estimated certificate did not survive re-verification."""


class DivergenceDetected(SolverError):
    """The residual grew far beyond its running minimum."""


class ConfigInvalid(SolverError):
    """A run configuration violates the schema or a value constraint."""
