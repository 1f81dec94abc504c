"""One Levenberg-Marquardt update with Morozov-selected shift.

The update is a function of the iterate ``x`` and its residual
``r = y - F(x)``: it solves the shifted normal system in data space,

    z = (J J^T + alpha I)^{-1} r,      x_next = x + J^T z,

with ``alpha`` chosen so that ``alpha * ||z|| = q * ||r||`` (the discrepancy
principle for the regularization parameter).  The step never evaluates F and
never checks the admissible ball; the iteration loop in
:mod:`lmrecon.engine` does both, once per iterate.  Each step builds J densely
from ``dim_x`` Jacobian actions and takes one eigendecomposition
``G = U diag(lam) U^T`` of the data-space Gram matrix ``G = J J*``.  G is
zero on the complement of range(J), so only its projection on range(J) is
formed: with ``J = Q R`` for an orthonormal Q whose span holds range(J)
(the identity when ``dim_y <= dim_x``, the reduced QR's otherwise),
``Q^T G Q = R (J* Q)``, from one adjoint action per column of Q.  That one
spectrum is a :class:`Spectrum`; the Morozov function, its root, the ceiling
``alpha_bound``, the feasibility test and the solve for ``z`` all follow from
it in closed form, and the update ``J* z`` and its linearized residual reuse
its factors.  The QR and the eigendecomposition each call LAPACK once,
through numpy's own gufuncs (:func:`lmrecon.operators._reduced_qr` and
:func:`lmrecon.operators._eigh`), with the bits of ``np.linalg.qr`` and
``np.linalg.eigh`` but without their Python wrappers, which cost more than
LAPACK itself on desk-sized matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    FactorizationFailure,
    NonConvergence,
    RootInfeasible,
    ZeroResidual,
)
from .operators import (ForwardModel, _eigh, _reduced_qr, as_vector, finite_norm,
                        jacobian_matrix, require_finite, vector_norm)

# Cap on the Newton iterations of the shift selection.
NEWTON_MAX = 100

_EPS = float(np.finfo(float).eps)


@dataclass
class StepDiagnostics:
    """Per-step record of the quantities the theory constrains.

    ``morozov_lhs`` is ``alpha * ||(J J^T + alpha I)^{-1} r||`` and must match
    ``morozov_rhs = q * ||r||`` to the root-finder tolerance.  ``mdp_prime_lhs``
    is the linearized post-step residual ``||r - J s||``, which equals
    ``q * ||r||`` identically for the exact Morozov parameter.  ``alpha_bound``
    is the ceiling ``q/(1-q) * ||J||^2``.  ``bracket_iters`` counts the
    Newton iterations of the shift selection (0 when ``alpha_bound`` itself
    meets the tolerance).  Every field is set by :func:`lm_step`; the
    omega-condition and the ball check are the loop's and leave no mark here.
    """

    alpha: float
    residual_norm: float
    morozov_lhs: float
    morozov_rhs: float
    mdp_prime_lhs: float
    alpha_bound: float
    bracket_iters: int

    @property
    def mdp_prime_rel_err(self) -> float:
        return abs(self.mdp_prime_lhs - self.morozov_rhs) / self.residual_norm


def gram_matrix(model: ForwardModel, x):
    """Assemble the Gram matrix ``G = J J*`` on range(J) from dense factors;
    returns ``(gram, J, adj, basis)``.

    J is built from ``dim_x`` Jacobian actions on the unit vectors of the
    parameter space.  With an orthonormal Q whose span holds range(J) and
    the ``R`` of ``J = Q R``, ``adj`` is the matrix ``J* Q`` from one adjoint
    action per column of Q and ``gram`` is ``R @ J* Q = Q^T G Q``.  When
    ``dim_y <= dim_x`` that Q is the identity, R is J, ``gram`` is G itself
    and ``basis`` is None.  When ``dim_y > dim_x``, ``basis`` is the Q of the
    reduced QR, :func:`_reduced_qr`'s, the bits of ``np.linalg.qr(J)``.
    Either way the adjoint enters ``gram`` exactly as the model supplies it.
    Raises :class:`NonFiniteOutput` when J or the adjoint's matrix holds NaN
    or inf, before either enters a product.
    """
    x = as_vector(x, model.dim_x, "x")
    j = jacobian_matrix(model, x)
    require_finite(j, "Jacobian J(x)")
    m, n = j.shape
    basis, upper = _reduced_qr(j) if m > n else (np.eye(m), j)
    adj = np.empty((n, basis.shape[1]))
    for i in range(basis.shape[1]):
        adj[:, i] = as_vector(
            model.jacobian_adjoint_apply(x, basis[:, i].copy()), n, "J* q_i")
    require_finite(adj, "adjoint J* Q")
    return upper @ adj, j, adj, basis if m > n else None


class Spectrum(NamedTuple):
    """Eigenpairs ``(lam, u)`` of the Gram matrix ``G = J J*``, ascending,
    with the dense factors they came from: ``j`` (J), and the adjoint's
    action as ``adj`` and ``basis`` from :func:`gram_matrix` (J* itself and
    None when ``dim_y <= dim_x``, ``J* Q`` and Q when ``dim_y > dim_x``).

    ``u`` has ``min(dim_y, dim_x)`` orthonormal columns.  When it has fewer
    than ``dim_y``, G is exactly zero on the complement of their span;
    :meth:`split` accounts for that part of ``r``, so no caller needs to
    know which case it has.
    """

    lam: np.ndarray
    u: np.ndarray
    j: np.ndarray
    adj: np.ndarray
    basis: np.ndarray | None

    def split(self, r: np.ndarray):
        """``(c, rest)``: the coordinates ``c = U^T r`` of ``r`` on the
        eigenvectors and the part ``rest = r - U c`` outside their span, in
        the null space of G (exactly 0.0 when ``u`` is square)."""
        c = self.u.T @ r
        if self.u.shape[1] == self.u.shape[0]:
            return c, 0.0
        return c, r - self.u @ c

    def adjoint(self, z: np.ndarray) -> np.ndarray:
        """``J* z``: ``adj @ z``, or ``(J* Q)(Q^T z)`` when ``dim_y > dim_x``,
        where a consistent adjoint annihilates the part of ``z`` outside
        range(J)."""
        if self.basis is None:
            return self.adj @ z
        return self.adj @ (self.basis.T @ z)


def _spectrum(model: ForwardModel, x) -> Spectrum:
    """The :class:`Spectrum` of the Gram matrix ``G = J J*`` at ``x``, with
    eigenvalues in the numerical null space (at most
    ``dim_y * eps * lam_max``) set to 0 and the factors from
    :func:`gram_matrix`.

    Raises :class:`NonFiniteOutput` on NaN or inf entries (of J or the
    adjoint's matrix, from :func:`gram_matrix`, or of their product when it
    overflows) and :class:`FactorizationFailure` when the matrix
    :func:`gram_matrix` returns is asymmetric or indefinite, both signs of an
    inconsistent adjoint action.  When ``dim_y <= dim_x`` that matrix is the ``dim_y x dim_y`` G
    itself.  When ``dim_y > dim_x`` it is the ``dim_x x dim_x`` projection
    ``Q^T G Q = W diag(lam) W^T`` of G on range(J), and ``u = Q W`` has
    ``dim_x`` columns; the columns of G are J times vectors, so the rest of
    the spectrum of a symmetric G is exact zeros, on the complement of
    range(J).  The eigenpairs are :func:`_eigh`'s, the bits of
    ``np.linalg.eigh``.  ``lam`` is ascending, so the clip to 0 runs only
    when ``lam[0]`` is at most the cutoff; otherwise it would copy ``lam``
    unchanged.

    ``max|G|`` is taken once: it scales the asymmetry gate, and the matrix's
    finiteness is read off it, since a NaN or inf entry makes it NaN or inf.
    Only then are the entries checked one by one, before ``G - G^T`` could
    warn on ``inf - inf``.
    """
    gram, j, adj, basis = gram_matrix(model, x)
    scale = float(np.maximum.reduce(np.abs(gram), axis=None))
    if not math.isfinite(scale):
        require_finite(gram, "Gram matrix J J*")
    asym = float(np.maximum.reduce(np.abs(gram - gram.T), axis=None))
    if asym > 1e-8 * (1.0 + scale):
        raise FactorizationFailure(
            f"Gram matrix asymmetry {asym:.3e}: the adjoint action is inconsistent"
        )
    lam, u = _eigh(gram)
    if basis is not None:
        u = basis @ u
    cutoff = j.shape[0] * _EPS * max(float(lam[-1]), 0.0)
    if lam[0] < -cutoff:
        raise FactorizationFailure(
            f"Gram matrix has eigenvalue {lam[0]:.3e} < 0: "
            "the adjoint action is inconsistent"
        )
    if lam[0] <= cutoff:
        lam = np.where(lam > cutoff, lam, 0.0)
    return Spectrum(lam, u, j, adj, basis)


def _select_alpha(spec: Spectrum, r: np.ndarray, q: float, tol_alpha: float,
                  rnorm: float):
    """Safeguarded Newton on the Morozov equation for the Gram spectrum
    ``spec`` from :func:`_spectrum`; returns
    (alpha, z, Newton iterations, alpha_bound).  ``rnorm`` is ``||r||``,
    which the caller has taken by :func:`finite_norm`, so it is finite.

    With ``(c, rest) = spec.split(r)``,
    ``phi(alpha)^2 = ||alpha / (lam + alpha) * c||^2 + ||rest||^2``.  The
    root lies in ``(0, alpha_bound]``, ``alpha_bound = q/(1-q) * lam_max``,
    and exists iff the part of ``r`` in the null space of J J^T has norm
    below ``q * ||r||``.  In ``t = 1/alpha``, ``1/phi`` is increasing and
    concave (the secular function of More 1978 for ``diag(1/lam)``), so
    Newton steps on ``1/phi - 1/(q ||r||)`` from ``alpha_bound`` approach the
    root from above without overshooting; a step that leaves the bracket
    falls back to bisection.  Each iterate forms ``lam + alpha`` once, for
    its weights and for the returned ``z``.

    The null-space coordinates ``c[lam == 0.0]`` are gathered only when
    ``lam[0] == 0.0``: :func:`_spectrum`'s clip leaves ``lam`` ascending
    with every zero in front, so there is none otherwise.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    if rnorm == 0.0:
        raise ZeroResidual("residual is zero; nothing to regularize")
    lam, u = spec.lam, spec.u
    c, rest = spec.split(r)
    rest_sq = float(np.dot(rest, rest))
    target = q * rnorm
    null_sq = rest_sq
    if lam[0] == 0.0:
        null = c[lam == 0.0]
        null_sq += float(null @ null)
    if math.sqrt(null_sq) >= target:
        raise RootInfeasible(
            "Morozov target q*||r|| unreachable: the residual has a dominant "
            "component orthogonal to the Jacobian range"
        )
    alpha_bound = q / (1.0 - q) * float(lam[-1])
    lam_c2 = lam * c * c

    lo, hi = 0.0, alpha_bound
    alpha = alpha_bound
    for it in range(NEWTON_MAX + 1):
        if alpha == 0.0:
            # q/(1-q) lam_max, or a bisection, underflowed: q is near the
            # smallest float, and no positive shift is representable
            raise NonConvergence("Morozov Newton iteration underflows to alpha = 0")
        shifted = lam + alpha
        w = alpha / shifted
        wc = w * c
        phi = math.sqrt(float(wc @ wc) + rest_sq)
        if abs(phi - target) <= tol_alpha * target:
            return alpha, u @ (c / shifted) + rest / alpha, it, alpha_bound
        if phi < target:
            lo = alpha
        else:
            hi = alpha
        # d(1/phi)/dt = slope / phi**3 in t = 1/alpha
        slope = float(lam_c2 @ (w * w * w))
        try:
            alpha = 1.0 / (1.0 / alpha + phi**2 * (phi - target) / (target * slope))
        except ZeroDivisionError as exc:
            # target * slope underflowed to 0: no Newton step is representable
            raise NonConvergence(
                f"Morozov Newton step at alpha = {alpha:.3e} underflows"
            ) from exc
        if not lo < alpha < hi:
            alpha = 0.5 * (lo + hi)
    raise NonConvergence(
        f"Morozov Newton iteration did not meet tolerance {tol_alpha} "
        f"in {NEWTON_MAX} steps"
    )


def lm_step(model: ForwardModel, x, r, q: float, tol_alpha: float = 1e-10):
    """One Levenberg-Marquardt update from ``x``, given its residual
    ``r = y - F(x)``.

    Returns ``(x_next, StepDiagnostics)``.  Makes no forward call and applies
    no domain policy; the caller owns both.  Raises :class:`ZeroResidual`
    when ``r`` vanishes (the caller should declare convergence),
    :class:`NonFiniteOutput` when ``r``, J, the adjoint's matrix or the Gram
    matrix holds NaN or inf, and :class:`NonConvergence` when ``||r||``
    overflows, since no shift meets an infinite Morozov target ``q * ||r||``.

    ``||r||`` is taken once, by :func:`finite_norm`, the rule the iteration
    loop of :mod:`lmrecon.engine` takes it by, and r's finiteness is read
    off it; the shift selection and the diagnostics reuse it.  The
    finiteness of J and of the adjoint's matrix is checked in
    :func:`gram_matrix`, before either enters a product, and the Gram
    matrix's is read off ``max|G|`` in :func:`_spectrum`.
    """
    x = as_vector(x, model.dim_x, "x")
    r = as_vector(r, model.dim_y, "r")
    rnorm = finite_norm(r, "residual r")
    spec = _spectrum(model, x)
    alpha, z, iters, alpha_bound = _select_alpha(spec, r, q, tol_alpha, rnorm)
    s = spec.adjoint(z)
    diag = StepDiagnostics(
        alpha=alpha,
        residual_norm=rnorm,
        morozov_lhs=alpha * vector_norm(z),
        morozov_rhs=q * rnorm,
        mdp_prime_lhs=vector_norm(r - spec.j @ s),
        alpha_bound=alpha_bound,
        bracket_iters=iters,
    )
    return x + s, diag

