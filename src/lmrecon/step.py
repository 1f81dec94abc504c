"""One Levenberg-Marquardt update with Morozov-selected shift.

The update solves the shifted normal system in data space,

    z = (J J^T + alpha I)^{-1} r,      x_next = x + J^T z,

with ``alpha`` chosen so that ``alpha * ||z|| = q * ||r||`` (the discrepancy
principle for the regularization parameter).  The data-space Gram matrix is
small for the problems this library targets, so each candidate ``alpha`` costs
one Cholesky factorization and the same solve serves both the root-finding
objective and the final step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    FactorizationFailure,
    NonConvergence,
    RootInfeasible,
    ZeroResidual,
)
from .operators import (
    ForwardModel,
    apply_forward,
    as_vector,
    check_domain,
    estimate_jacobian_norm,
    jacobian_matrix,
    require_finite,
    require_in_domain,
)

# Geometric shrink applied to the lower bracket end per probe, and probe cap.
BRACKET_SHRINK = 1e-2
BRACKET_PROBES = 30
BISECTION_MAX = 200


@dataclass
class StepDiagnostics:
    """Per-step record of the quantities the theory constrains.

    ``morozov_lhs`` is ``alpha * ||(J J^T + alpha I)^{-1} r||`` and must match
    ``morozov_rhs = q * ||r||`` to the root-finder tolerance.  ``mdp_prime_lhs``
    is the linearized post-step residual ``||r - J s||``, which equals
    ``q * ||r||`` identically for the exact Morozov parameter.  ``alpha_bound``
    is the ceiling ``q/(1-q) * ||J||^2``.  ``omega_margin`` is
    ``q * ||r|| / ||r - J (x_truth - x)||`` and is only populated by the
    drivers when a ground truth is available.
    """

    alpha: float
    residual_norm: float
    morozov_lhs: float
    morozov_rhs: float
    mdp_prime_lhs: float
    alpha_bound: float
    bracket_iters: int
    omega_margin: float | None = None
    domain_ok: bool = True

    @property
    def mdp_prime_rel_err(self) -> float:
        return abs(self.mdp_prime_lhs - self.morozov_rhs) / self.residual_norm


def gram_matrix(model: ForwardModel, x) -> np.ndarray:
    """Assemble J J^T via one adjoint and one forward Jacobian action per column."""
    x = as_vector(x, model.dim_x, "x")
    m = model.dim_y
    g = np.empty((m, m))
    for j in range(m):
        e = np.zeros(m)
        e[j] = 1.0
        v = as_vector(model.jacobian_adjoint_apply(x, e), model.dim_x, "J* e_j")
        g[:, j] = as_vector(model.jacobian_apply(x, v), model.dim_y, "J J* e_j")
    return g


def _factor_shifted(gram: np.ndarray, alpha: float):
    if not alpha > 0:
        raise FactorizationFailure(f"shift alpha = {alpha} must be positive")
    asym = float(np.max(np.abs(gram - gram.T)))
    if asym > 1e-8 * (1.0 + float(np.max(np.abs(gram)))):
        raise FactorizationFailure(
            f"Gram matrix asymmetry {asym:.3e}: the adjoint action is inconsistent"
        )
    shifted = gram + alpha * np.eye(gram.shape[0])
    try:
        return scipy.linalg.cho_factor(shifted, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise FactorizationFailure(
            f"shifted Gram matrix not SPD at alpha = {alpha}: {exc}"
        ) from exc


def solve_shifted_system(model: ForwardModel, x, alpha: float, r,
                         gram: np.ndarray | None = None) -> np.ndarray:
    """Solve (J J^T + alpha I) z = r by SPD factorization of the Gram matrix.

    A few rounds of iterative refinement keep the backward residual at the
    1e-12 * ||r|| level.  When the shift nearly vanishes against a
    rank-deficient Gram matrix the kernel component of z grows like 1/alpha
    and rounding noise of size eps * ||gram|| * ||z|| becomes unavoidable; the
    refinement then stops at that floor.
    """
    r = as_vector(r, model.dim_y, "r")
    if gram is None:
        gram = gram_matrix(model, x)
    factor = _factor_shifted(gram, alpha)
    shifted = gram + alpha * np.eye(gram.shape[0])
    z = scipy.linalg.cho_solve(factor, r)
    rnorm = float(np.linalg.norm(r))
    for _ in range(5):
        defect = r - shifted @ z
        if float(np.linalg.norm(defect)) <= 1e-13 * rnorm:
            break
        z = z + scipy.linalg.cho_solve(factor, defect)
    return z


def morozov_value(model: ForwardModel, x, alpha: float, r,
                  gram: np.ndarray | None = None) -> float:
    """phi(alpha) = alpha * ||(J J^T + alpha I)^{-1} r||.

    phi is strictly increasing in alpha and tends to ||r|| as alpha grows.
    """
    z = solve_shifted_system(model, x, alpha, r, gram=gram)
    return alpha * float(np.linalg.norm(z))


def _select_alpha(model: ForwardModel, x, r, q: float, tol_alpha: float,
                  gram: np.ndarray | None = None):
    """Bisection in log(alpha); returns (alpha, z, iterations, alpha_bound)."""
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    r = as_vector(r, model.dim_y, "r")
    rnorm = float(np.linalg.norm(r))
    if rnorm == 0.0:
        raise ZeroResidual("residual is zero; nothing to regularize")
    if gram is None:
        gram = gram_matrix(model, x)
    jac_norm = estimate_jacobian_norm(model, x, iters=100, check=False)
    target = q * rnorm
    alpha_bound = q / (1.0 - q) * jac_norm**2

    def phi(a: float) -> float:
        z = solve_shifted_system(model, x, a, r, gram=gram)
        return a * float(np.linalg.norm(z)), z

    # Upper end: the classical ceiling, doubled for estimation slack.  The
    # ceiling uses an estimated norm, so expand defensively if it falls short.
    hi = 2.0 * alpha_bound if alpha_bound > 0 else 1.0
    phi_hi, z_hi = phi(hi)
    expansions = 0
    while phi_hi < target and expansions < 60:
        hi *= 10.0
        phi_hi, z_hi = phi(hi)
        expansions += 1
    if phi_hi < target:
        raise NonConvergence("could not bracket the Morozov target from above")
    if abs(phi_hi - target) <= tol_alpha * target:
        return hi, z_hi, 0, alpha_bound

    # Lower end: shrink geometrically until phi drops below the target.  If it
    # never does (or the shift becomes too small to factor against a
    # rank-deficient Gram matrix), the target is unreachable: q||r|| does not
    # exceed the norm of the residual component outside the Jacobian range.
    lo = hi
    phi_lo = phi_hi
    for _ in range(BRACKET_PROBES):
        lo *= BRACKET_SHRINK
        try:
            phi_lo, z_lo = phi(lo)
        except FactorizationFailure:
            break
        if phi_lo < target:
            break
    if not phi_lo < target:
        raise RootInfeasible(
            "Morozov target q*||r|| unreachable: the residual has a dominant "
            "component orthogonal to the Jacobian range"
        )
    if abs(phi_lo - target) <= tol_alpha * target:
        return lo, z_lo, 0, alpha_bound

    for it in range(1, BISECTION_MAX + 1):
        mid = float(np.sqrt(lo * hi))
        phi_mid, z_mid = phi(mid)
        if abs(phi_mid - target) <= tol_alpha * target:
            return mid, z_mid, it, alpha_bound
        if phi_mid < target:
            lo = mid
        else:
            hi = mid
    raise NonConvergence(
        f"alpha bisection did not meet tolerance {tol_alpha} in {BISECTION_MAX} steps"
    )


def select_alpha(model: ForwardModel, x, r, q: float,
                 tol_alpha: float = 1e-10) -> float:
    """Regularization parameter with alpha*||(JJ^T+alpha I)^{-1} r|| = q*||r||."""
    alpha, _, _, _ = _select_alpha(model, x, r, q, tol_alpha)
    return alpha


def lm_step(model: ForwardModel, x, y_obs, q: float,
            tol_alpha: float = 1e-10,
            domain_mode: str = "error"):
    """One Levenberg-Marquardt update from ``x`` toward data ``y_obs``.

    Returns ``(x_next, StepDiagnostics)``.  Raises :class:`ZeroResidual` when
    the residual vanishes (the caller should declare convergence) and
    :class:`DomainViolation` when the update leaves the ball and
    ``domain_mode`` is ``"error"``; with ``"warn"`` the violation is recorded
    in the diagnostics instead.  Raises :class:`NonFiniteOutput` when the
    residual or the Gram matrix holds NaN or inf.
    """
    if domain_mode not in ("error", "warn", "off"):
        raise ValueError("domain_mode must be 'error', 'warn' or 'off'")
    x = as_vector(x, model.dim_x, "x")
    y_obs = as_vector(y_obs, model.dim_y, "y_obs")
    r = y_obs - apply_forward(model, x, check=(domain_mode == "error"))
    require_finite(r, "residual y - F(x)")
    rnorm = float(np.linalg.norm(r))
    if rnorm == 0.0:
        raise ZeroResidual("residual is zero at the current iterate")

    gram = gram_matrix(model, x)
    require_finite(gram, "Gram matrix J J*")
    alpha, z, iters, alpha_bound = _select_alpha(model, x, r, q, tol_alpha,
                                                 gram=gram)
    s = as_vector(model.jacobian_adjoint_apply(x, z), model.dim_x, "J* z")
    x_next = x + s
    linearized = r - as_vector(model.jacobian_apply(x, s), model.dim_y, "J s")

    diag = StepDiagnostics(
        alpha=alpha,
        residual_norm=rnorm,
        morozov_lhs=alpha * float(np.linalg.norm(z)),
        morozov_rhs=q * rnorm,
        mdp_prime_lhs=float(np.linalg.norm(linearized)),
        alpha_bound=alpha_bound,
        bracket_iters=iters,
    )

    if domain_mode != "off" and not check_domain(model, x_next):
        diag.domain_ok = False
        if domain_mode == "error":
            require_in_domain(model, x_next, "LM update")
    return x_next, diag


def commutation_residual(model: ForwardModel, x, alpha: float, v) -> float:
    """Defect of (J J^T + a I)^{-1} J v  =  J (J^T J + a I)^{-1} v.

    Both sides are assembled densely; a nonzero defect beyond rounding signals
    an inconsistent Jacobian/adjoint pair.
    """
    x = as_vector(x, model.dim_x, "x")
    v = as_vector(v, model.dim_x, "v")
    j = jacobian_matrix(model, x)
    m, n = j.shape
    lhs = np.linalg.solve(j @ j.T + alpha * np.eye(m), j @ v)
    rhs = j @ np.linalg.solve(j.T @ j + alpha * np.eye(n), v)
    return float(np.linalg.norm(lhs - rhs))
