"""Forward-operator abstraction.

A :class:`ForwardModel` bundles a nonlinear map ``F`` between finite-dimensional
Euclidean spaces together with the action of its Jacobian ``J(x)`` and the
adjoint action ``J(x)^T``.  The admissible set is the ball

    B = { x : 0.5 * ||x - center||^2 <= radius_sq },

and every operation checks membership unless the caller opts out.  Models are
immutable and all operations here are pure functions of their inputs, so
instances can be shared freely across threads.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, DomainViolation, NonFiniteOutput

Vector = np.ndarray


def as_vector(v, dim: int, name: str = "vector") -> Vector:
    """Coerce ``v`` to a float64 1-D array of length ``dim``."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.shape[0] != dim:
        raise DimensionMismatch(
            f"{name} has shape {arr.shape}, expected ({dim},)"
        )
    return arr


@dataclass(frozen=True, eq=False)
class ForwardModel:
    """Nonlinear operator F with Jacobian and adjoint-Jacobian actions.

    Parameters
    ----------
    dim_x, dim_y : int
        Dimensions of the parameter and data spaces.
    center : array
        Center of the admissible ball.
    radius_sq : float
        Ball parameter rho' > 0, in units of ``0.5 * ||x - center||^2``.
        ``inf`` makes the whole space admissible.
    forward : callable
        ``x -> F(x)``, mapping (dim_x,) to (dim_y,).
    jacobian_apply : callable
        ``(x, v) -> J(x) v``, linear in ``v``.
    jacobian_adjoint_apply : callable
        ``(x, w) -> J(x)^T w``.
    """

    dim_x: int
    dim_y: int
    center: Vector
    radius_sq: float
    forward: Callable[[Vector], Vector]
    jacobian_apply: Callable[[Vector, Vector], Vector]
    jacobian_adjoint_apply: Callable[[Vector, Vector], Vector]

    def __post_init__(self):
        object.__setattr__(
            self, "center", as_vector(self.center, self.dim_x, "center")
        )
        if not self.radius_sq > 0:
            raise ValueError("radius_sq must be positive")


def check_domain(model: ForwardModel, x) -> bool:
    """True iff ``0.5 * ||x - center||^2 <= radius_sq``."""
    x = as_vector(x, model.dim_x, "x")
    return 0.5 * float(np.dot(x - model.center, x - model.center)) <= model.radius_sq


def require_in_domain(model: ForwardModel, x, what: str = "point") -> None:
    if not check_domain(model, x):
        d2 = 0.5 * float(np.sum((as_vector(x, model.dim_x) - model.center) ** 2))
        raise DomainViolation(
            f"{what} outside admissible ball: 0.5*||x-center||^2 = {d2:.6g} "
            f"> radius_sq = {model.radius_sq:.6g}"
        )


def require_finite(values, what: str) -> None:
    """Raise :class:`NonFiniteOutput` unless every entry of ``values`` is finite."""
    if not np.isfinite(values).all():
        raise NonFiniteOutput(f"{what} is not finite: the model returned NaN or inf")


def apply_forward(model: ForwardModel, x, check: bool = True) -> Vector:
    """Evaluate F(x), optionally verifying the ball constraint first."""
    x = as_vector(x, model.dim_x, "x")
    if check:
        require_in_domain(model, x)
    y = as_vector(model.forward(x), model.dim_y, "F(x)")
    return y


def recenter(model: ForwardModel, center, radius_sq: float | None = None) -> ForwardModel:
    """New model with the admissible ball moved to ``center``."""
    center = as_vector(center, model.dim_x, "center")
    if radius_sq is None:
        radius_sq = model.radius_sq
    return dataclasses.replace(model, center=center, radius_sq=radius_sq)


def jacobian_matrix(model: ForwardModel, x) -> np.ndarray:
    """Assemble the dense Jacobian by applying J(x) to the basis vectors."""
    x = as_vector(x, model.dim_x, "x")
    cols = []
    for i in range(model.dim_x):
        e = np.zeros(model.dim_x)
        e[i] = 1.0
        cols.append(as_vector(model.jacobian_apply(x, e), model.dim_y, "J e_i"))
    return np.column_stack(cols)


def estimate_jacobian_norm(model: ForwardModel, x, iters: int = 100,
                           check: bool = True) -> float:
    """Estimate ||J(x)|| by power iteration on J^T J.

    Starts from the normalized all-ones vector for reproducibility.  The
    returned value is a lower bound that converges to the largest singular
    value as ``iters`` grows.
    """
    x = as_vector(x, model.dim_x, "x")
    if check:
        require_in_domain(model, x)
    if iters < 1:
        raise ValueError("iters must be >= 1")
    v = np.ones(model.dim_x) / np.sqrt(model.dim_x)
    sigma = 0.0
    for _ in range(iters):
        w = as_vector(model.jacobian_apply(x, v), model.dim_y, "J v")
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return sigma
        sigma = nw
        u = as_vector(model.jacobian_adjoint_apply(x, w), model.dim_x, "J* w")
        nu = float(np.linalg.norm(u))
        if nu == 0.0:
            return sigma
        v = u / nu
    return sigma


def finite_difference_jacobian(model: ForwardModel, x, h: float = 1e-5,
                               check: bool = True) -> np.ndarray:
    """Central-difference Jacobian: column i is (F(x+h e_i) - F(x-h e_i)) / 2h."""
    x = as_vector(x, model.dim_x, "x")
    if h <= 0:
        raise ValueError("h must be positive")
    cols = []
    for i in range(model.dim_x):
        e = np.zeros(model.dim_x)
        e[i] = h
        fp = apply_forward(model, x + e, check=check)
        fm = apply_forward(model, x - e, check=check)
        cols.append((fp - fm) / (2.0 * h))
    return np.column_stack(cols)


def adjoint_defect(model: ForwardModel, x, v, w) -> float:
    """|<J v, w> - <v, J^T w>| for one test pair."""
    x = as_vector(x, model.dim_x, "x")
    v = as_vector(v, model.dim_x, "v")
    w = as_vector(w, model.dim_y, "w")
    jv = as_vector(model.jacobian_apply(x, v), model.dim_y, "J v")
    jtw = as_vector(model.jacobian_adjoint_apply(x, w), model.dim_x, "J* w")
    return abs(float(np.dot(jv, w)) - float(np.dot(v, jtw)))


def max_adjoint_defect(model: ForwardModel, points, samples: int = 100,
                       seed: int = 0) -> float:
    """Largest relative adjoint defect over random (x, v, w) triples.

    The defect at each triple is normalized by ``1 + ||J v|| * ||w||`` so the
    result compares directly against an absolute tolerance like 1e-10.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    points = [as_vector(p, model.dim_x, "x") for p in points]
    for _ in range(samples):
        x = points[rng.integers(len(points))]
        v = rng.standard_normal(model.dim_x)
        w = rng.standard_normal(model.dim_y)
        jv = as_vector(model.jacobian_apply(x, v), model.dim_y, "J v")
        scale = 1.0 + float(np.linalg.norm(jv)) * float(np.linalg.norm(w))
        worst = max(worst, adjoint_defect(model, x, v, w) / scale)
    return worst


@dataclass(frozen=True)
class StabilityCertificate:
    """Constants under which the convergence theory applies.

    ``lip_deriv`` (L) bounds the Lipschitz variation of the Jacobian,
    ``jac_bound`` (L-hat) bounds its operator norm, ``holder_const`` (C_F) and
    ``holder_eps`` realize the inverse Hoelder stability estimate

        (1/sqrt(2)) ||x - x~|| <= C_F ||F(x) - F(x~)||^((1+eps)/2),

    all on the ball with parameter ``domain_rho_prime``.  ``forward_lip``
    (L-tilde) is a Lipschitz constant of the forward map itself,
    ``recon_const`` (C-tilde) the measured-data stability constant

        ||x - x~|| <= 2 C~ ||Q(F(x)) - Q(F(x~))||,

    and ``q_norm`` the operator norm of the measurement map.
    """

    lip_deriv: float
    jac_bound: float
    holder_const: float
    holder_eps: float
    domain_rho_prime: float
    forward_lip: float
    recon_const: float
    q_norm: float = 1.0
    provenance: str = "user"

    def __post_init__(self):
        for name in ("lip_deriv", "jac_bound", "holder_const",
                     "domain_rho_prime", "forward_lip", "recon_const"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")
        if not 0.0 < self.holder_eps <= 1.0:
            raise ValueError("holder_eps must lie in (0, 1]")
        if self.q_norm < 0:
            raise ValueError("q_norm must be non-negative")
        if self.provenance not in ("user", "oracle-estimated"):
            raise ValueError("provenance must be 'user' or 'oracle-estimated'")
