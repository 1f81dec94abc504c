"""One Levenberg-Marquardt update with Morozov-selected shift.

The update solves the shifted normal system in data space,

    z = (J J^T + alpha I)^{-1} r,      x_next = x + J^T z,

with ``alpha`` chosen so that ``alpha * ||z|| = q * ||r||`` (the discrepancy
principle for the regularization parameter).  The data-space Gram matrix
J J^T is small for the problems this library targets, so each step takes one
eigendecomposition ``J J^T = U diag(lam) U^T``.  The Morozov function, its
root, the ceiling ``alpha_bound``, the feasibility test and the solve for
``z`` all follow from that one spectrum in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    jacobian_matrix,
    require_finite,
    require_in_domain,
)

# Cap on the Newton iterations of the shift selection.
NEWTON_MAX = 100


@dataclass
class StepDiagnostics:
    """Per-step record of the quantities the theory constrains.

    ``morozov_lhs`` is ``alpha * ||(J J^T + alpha I)^{-1} r||`` and must match
    ``morozov_rhs = q * ||r||`` to the root-finder tolerance.  ``mdp_prime_lhs``
    is the linearized post-step residual ``||r - J s||``, which equals
    ``q * ||r||`` identically for the exact Morozov parameter.  ``alpha_bound``
    is the ceiling ``q/(1-q) * ||J||^2``.  ``bracket_iters`` counts the
    Newton iterations of the shift selection (0 when ``alpha_bound`` itself
    meets the tolerance).  ``omega_margin`` is
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


def _spectrum(model: ForwardModel, x, gram: np.ndarray | None):
    """Eigenpairs ``(lam, u)`` of the Gram matrix, ascending, with eigenvalues
    in the numerical null space (at most ``dim_y * eps * lam_max``) set to 0.

    Raises :class:`NonFiniteOutput` on NaN or inf entries and
    :class:`FactorizationFailure` when the matrix is asymmetric or indefinite,
    both signs of an inconsistent adjoint action.
    """
    if gram is None:
        gram = gram_matrix(model, x)
    require_finite(gram, "Gram matrix J J*")
    asym = float(np.max(np.abs(gram - gram.T)))
    if asym > 1e-8 * (1.0 + float(np.max(np.abs(gram)))):
        raise FactorizationFailure(
            f"Gram matrix asymmetry {asym:.3e}: the adjoint action is inconsistent"
        )
    lam, u = np.linalg.eigh(gram)
    cutoff = gram.shape[0] * np.finfo(float).eps * max(float(lam[-1]), 0.0)
    if lam[0] < -cutoff:
        raise FactorizationFailure(
            f"Gram matrix has eigenvalue {lam[0]:.3e} < 0: "
            "the adjoint action is inconsistent"
        )
    return np.where(lam > cutoff, lam, 0.0), u


def solve_shifted_system(model: ForwardModel, x, alpha: float, r,
                         gram: np.ndarray | None = None) -> np.ndarray:
    """Solve (J J^T + alpha I) z = r through the eigendecomposition of the
    Gram matrix: ``z = U (U^T r / (lam + alpha))``."""
    r = as_vector(r, model.dim_y, "r")
    if not alpha > 0:
        raise FactorizationFailure(f"shift alpha = {alpha} must be positive")
    lam, u = _spectrum(model, x, gram)
    return u @ ((u.T @ r) / (lam + alpha))


def morozov_value(model: ForwardModel, x, alpha: float, r,
                  gram: np.ndarray | None = None) -> float:
    """phi(alpha) = alpha * ||(J J^T + alpha I)^{-1} r||.

    phi is strictly increasing in alpha and tends to ||r|| as alpha grows.
    """
    z = solve_shifted_system(model, x, alpha, r, gram=gram)
    return alpha * float(np.linalg.norm(z))


def _select_alpha(model: ForwardModel, x, r, q: float, tol_alpha: float):
    """Safeguarded Newton on the Morozov equation; returns
    (alpha, z, Newton iterations, alpha_bound).

    With ``c = U^T r``, ``phi(alpha) = ||alpha / (lam + alpha) * c||``.  The
    root lies in ``(0, alpha_bound]``, ``alpha_bound = q/(1-q) * lam_max``,
    and exists iff the part of ``r`` in the null space of J J^T has norm
    below ``q * ||r||``.  In ``t = 1/alpha``, ``1/phi`` is increasing and
    concave (the secular function of More 1978 for ``diag(1/lam)``), so
    Newton steps on ``1/phi - 1/(q ||r||)`` from ``alpha_bound`` approach the
    root from above without overshooting; a step that leaves the bracket
    falls back to bisection.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    r = as_vector(r, model.dim_y, "r")
    rnorm = float(np.linalg.norm(r))
    if rnorm == 0.0:
        raise ZeroResidual("residual is zero; nothing to regularize")
    lam, u = _spectrum(model, x, None)
    c = u.T @ r
    target = q * rnorm
    if float(np.linalg.norm(c[lam == 0.0])) >= target:
        raise RootInfeasible(
            "Morozov target q*||r|| unreachable: the residual has a dominant "
            "component orthogonal to the Jacobian range"
        )
    alpha_bound = q / (1.0 - q) * float(lam[-1])

    lo, hi = 0.0, alpha_bound
    alpha = alpha_bound
    for it in range(NEWTON_MAX + 1):
        w = alpha / (lam + alpha)
        phi = float(np.linalg.norm(w * c))
        if abs(phi - target) <= tol_alpha * target:
            return alpha, u @ (c / (lam + alpha)), it, alpha_bound
        if phi < target:
            lo = alpha
        else:
            hi = alpha
        # d(1/phi)/dt = slope / phi**3 in t = 1/alpha
        slope = float(np.sum(lam * c**2 * w**3))
        alpha = 1.0 / (1.0 / alpha + phi**2 * (phi - target) / (target * slope))
        if not lo < alpha < hi:
            alpha = 0.5 * (lo + hi)
    raise NonConvergence(
        f"Morozov Newton iteration did not meet tolerance {tol_alpha} "
        f"in {NEWTON_MAX} steps"
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

    alpha, z, iters, alpha_bound = _select_alpha(model, x, r, q, tol_alpha)
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
