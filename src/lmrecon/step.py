"""One Levenberg-Marquardt update with Morozov-selected shift.

The update is a function of the iterate ``x`` and its residual
``r = y - F(x)``: it solves the shifted normal system in data space,

    z = (J J^T + alpha I)^{-1} r,      x_next = x + J^T z,

with ``alpha`` chosen so that ``alpha * ||z|| = q * ||r||`` (the discrepancy
principle for the regularization parameter).  The step never evaluates F and
never checks the admissible ball; the iteration loop in
:mod:`lmrecon.engine` does both, once per iterate.  Each step builds J densely
from ``dim_x`` Jacobian actions and J* from ``dim_y`` adjoint actions, forms
the data-space Gram matrix ``G = J J*`` by one product, and takes one
eigendecomposition ``G = U diag(lam) U^T``: of G itself when
``dim_y <= dim_x``, and of the ``dim_x x dim_x`` projection of G on range(J)
when ``dim_y > dim_x``, where the rest of the spectrum is zero.  The Morozov
function, its root, the ceiling ``alpha_bound``, the feasibility test and the
solve for ``z`` all follow from that one spectrum in closed form, and the
update ``J* z`` and its linearized residual reuse the dense factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    FactorizationFailure,
    NonConvergence,
    RootInfeasible,
    ZeroResidual,
)
from .operators import ForwardModel, as_vector, jacobian_matrix, require_finite

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
    drivers when a ground truth is available.  The ball check is the loop's.
    """

    alpha: float
    residual_norm: float
    morozov_lhs: float
    morozov_rhs: float
    mdp_prime_lhs: float
    alpha_bound: float
    bracket_iters: int
    omega_margin: float | None = None

    @property
    def mdp_prime_rel_err(self) -> float:
        return abs(self.mdp_prime_lhs - self.morozov_rhs) / self.residual_norm


def gram_matrix(model: ForwardModel, x):
    """Assemble the data-space Gram matrix ``G = J @ J*`` from dense factors;
    returns ``(G, J, J*)``.

    J is built from ``dim_x`` Jacobian actions on the unit vectors of the
    parameter space, and the ``dim_x x dim_y`` matrix J* from ``dim_y``
    adjoint actions on the unit vectors of the data space.  G is their one
    matrix product, so the adjoint enters it exactly as the model supplies it.
    """
    x = as_vector(x, model.dim_x, "x")
    j = jacobian_matrix(model, x)
    m = model.dim_y
    j_adj = np.empty((model.dim_x, m))
    for i in range(m):
        e = np.zeros(m)
        e[i] = 1.0
        j_adj[:, i] = as_vector(model.jacobian_adjoint_apply(x, e), model.dim_x,
                                "J* e_i")
    return j @ j_adj, j, j_adj


def _spectrum(model: ForwardModel, x):
    """Eigenpairs ``(lam, u)`` of the Gram matrix ``G = J J*``, ascending,
    with eigenvalues in the numerical null space (at most
    ``dim_y * eps * lam_max``) set to 0; returns ``(lam, u, J, J*)`` with the
    dense factors from :func:`gram_matrix`.

    Raises :class:`NonFiniteOutput` on NaN or inf entries and
    :class:`FactorizationFailure` when G is asymmetric or indefinite, both
    signs of an inconsistent adjoint action.  When ``dim_y <= dim_x`` the
    ``dim_y x dim_y`` matrix G itself is decomposed.  When ``dim_y > dim_x``
    the columns of G are J times vectors, so G lives on range(J): with an
    orthonormal basis Q of range(J) from a reduced QR of J, only the
    ``dim_x x dim_x`` matrix ``Q^T G Q = W diag(lam) W^T`` is decomposed and
    ``u = Q W`` has ``dim_x`` columns.  The rest of the spectrum of a
    symmetric G is exact zeros, on the complement of range(J) (see
    :func:`_split`).
    """
    gram, j, j_adj = gram_matrix(model, x)
    require_finite(gram, "Gram matrix J J*")
    asym = float(np.abs(gram - gram.T).max())
    if asym > 1e-8 * (1.0 + float(np.abs(gram).max())):
        raise FactorizationFailure(
            f"Gram matrix asymmetry {asym:.3e}: the adjoint action is inconsistent"
        )
    m, n = j.shape
    if m > n:
        basis = np.linalg.qr(j)[0]
        lam, w = np.linalg.eigh(basis.T @ gram @ basis)
        u = basis @ w
    else:
        lam, u = np.linalg.eigh(gram)
    cutoff = m * np.finfo(float).eps * max(float(lam[-1]), 0.0)
    if lam[0] < -cutoff:
        raise FactorizationFailure(
            f"Gram matrix has eigenvalue {lam[0]:.3e} < 0: "
            "the adjoint action is inconsistent"
        )
    return np.where(lam > cutoff, lam, 0.0), u, j, j_adj


def _split(u: np.ndarray, r: np.ndarray):
    """``(c, rest)``: the coordinates ``c = U^T r`` of ``r`` on the
    eigenvectors and the part ``rest = r - U c`` outside their span, which
    lies in the null space of the Gram matrix (exactly 0.0 when ``u`` is
    square)."""
    c = u.T @ r
    if u.shape[1] == u.shape[0]:
        return c, 0.0
    return c, r - u @ c


def solve_shifted_system(model: ForwardModel, x, alpha: float, r) -> np.ndarray:
    """Solve (J J^T + alpha I) z = r through the eigendecomposition of the
    Gram matrix: ``z = U (U^T r / (lam + alpha)) + rest / alpha``."""
    r = as_vector(r, model.dim_y, "r")
    if not alpha > 0:
        raise FactorizationFailure(f"shift alpha = {alpha} must be positive")
    lam, u, _, _ = _spectrum(model, x)
    c, rest = _split(u, r)
    return u @ (c / (lam + alpha)) + rest / alpha


def morozov_value(model: ForwardModel, x, alpha: float, r) -> float:
    """phi(alpha) = alpha * ||(J J^T + alpha I)^{-1} r||.

    phi is strictly increasing in alpha and tends to ||r|| as alpha grows.
    """
    z = solve_shifted_system(model, x, alpha, r)
    return alpha * float(np.linalg.norm(z))


def _select_alpha(lam: np.ndarray, u: np.ndarray, r: np.ndarray, q: float,
                  tol_alpha: float):
    """Safeguarded Newton on the Morozov equation for the Gram spectrum
    ``(lam, u)`` from :func:`_spectrum`; returns
    (alpha, z, Newton iterations, alpha_bound).

    With ``(c, rest)`` from :func:`_split`,
    ``phi(alpha)^2 = ||alpha / (lam + alpha) * c||^2 + ||rest||^2``.  The
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
    rnorm = float(np.linalg.norm(r))
    if rnorm == 0.0:
        raise ZeroResidual("residual is zero; nothing to regularize")
    c, rest = _split(u, r)
    rest_sq = float(np.dot(rest, rest))
    target = q * rnorm
    null = c[lam == 0.0]
    if math.sqrt(float(null @ null) + rest_sq) >= target:
        raise RootInfeasible(
            "Morozov target q*||r|| unreachable: the residual has a dominant "
            "component orthogonal to the Jacobian range"
        )
    alpha_bound = q / (1.0 - q) * float(lam[-1])
    lam_c2 = lam * c * c

    lo, hi = 0.0, alpha_bound
    alpha = alpha_bound
    for it in range(NEWTON_MAX + 1):
        w = alpha / (lam + alpha)
        wc = w * c
        phi = math.sqrt(float(wc @ wc) + rest_sq)
        if abs(phi - target) <= tol_alpha * target:
            return alpha, u @ (c / (lam + alpha)) + rest / alpha, it, alpha_bound
        if phi < target:
            lo = alpha
        else:
            hi = alpha
        # d(1/phi)/dt = slope / phi**3 in t = 1/alpha
        slope = float(lam_c2 @ (w * w * w))
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
    r = as_vector(r, model.dim_y, "r")
    lam, u, _, _ = _spectrum(model, x)
    alpha, _, _, _ = _select_alpha(lam, u, r, q, tol_alpha)
    return alpha


def lm_step(model: ForwardModel, x, r, q: float, tol_alpha: float = 1e-10):
    """One Levenberg-Marquardt update from ``x``, given its residual
    ``r = y - F(x)``.

    Returns ``(x_next, StepDiagnostics)``.  Makes no forward call and applies
    no domain policy; the caller owns both.  Raises :class:`ZeroResidual`
    when ``r`` vanishes (the caller should declare convergence) and
    :class:`NonFiniteOutput` when ``r`` or the Gram matrix holds NaN or inf.
    """
    x = as_vector(x, model.dim_x, "x")
    r = as_vector(r, model.dim_y, "r")
    require_finite(r, "residual r")
    lam, u, j, j_adj = _spectrum(model, x)
    alpha, z, iters, alpha_bound = _select_alpha(lam, u, r, q, tol_alpha)
    s = j_adj @ z
    rnorm = float(np.linalg.norm(r))
    diag = StepDiagnostics(
        alpha=alpha,
        residual_norm=rnorm,
        morozov_lhs=alpha * float(np.linalg.norm(z)),
        morozov_rhs=q * rnorm,
        mdp_prime_lhs=float(np.linalg.norm(r - j @ s)),
        alpha_bound=alpha_bound,
        bracket_iters=iters,
    )
    return x + s, diag


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
