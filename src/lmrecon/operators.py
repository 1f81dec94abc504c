"""Forward-operator abstraction.

A :class:`ForwardModel` bundles a nonlinear map ``F`` between finite-dimensional
Euclidean spaces together with the action of its Jacobian ``J(x)`` and the
adjoint action ``J(x)^T``.  The admissible set is the ball

    B = { x : 0.5 * ||x - center||^2 <= radius_sq },

and the iteration loop of ``engine`` is its one owner: it tests every
iterate with :func:`check_domain`, and the operations here evaluate wherever
they are asked to.  Models are immutable and all operations here are pure
functions of their inputs, so instances can be shared freely across threads.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
# numpy's own LAPACK gufuncs, the routines that np.linalg.qr, eigh and svd
# call: bound by name, so that a numpy without them fails here, at import
from numpy.linalg._umath_linalg import eigh_lo, qr_r_raw, qr_reduced, svd

from .errors import DimensionMismatch, DomainViolation, NonConvergence, NonFiniteOutput

Vector = np.ndarray

# Points (or sample pairs) per array pass in the batched loops: large enough
# that per-block Python overhead vanishes, small enough that peak memory does
# not grow with the sample count.
STACK_BLOCK = 1024

# Step of the central differences in finite_difference_jacobian.
FD_STEP = 1e-5


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
    forward_batch : callable, optional
        ``xs -> F`` at every row of a (k, dim_x) array, as a (k, dim_y) array.
    jacobian_batch : callable, optional
        ``xs -> J`` at every row of a (k, dim_x) array, as a
        (k, dim_y, dim_x) array.

    The two batched callables only make stacked evaluation faster: row ``i``
    must equal ``forward(xs[i])`` and ``jacobian_matrix(model, xs[i])`` bit
    for bit, so every result is the same with or without them.  Leave a
    callable unset when the stacked arithmetic rounds differently; the
    stacking helpers :func:`forward_stack` and :func:`jacobian_stack` then
    evaluate point by point.
    """

    dim_x: int
    dim_y: int
    center: Vector
    radius_sq: float
    forward: Callable[[Vector], Vector]
    jacobian_apply: Callable[[Vector, Vector], Vector]
    jacobian_adjoint_apply: Callable[[Vector, Vector], Vector]
    forward_batch: Callable[[np.ndarray], np.ndarray] | None = None
    jacobian_batch: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "center", as_vector(self.center, self.dim_x, "center")
        )
        if not self.radius_sq > 0:
            raise ValueError("radius_sq must be positive")


def _half_dist_sq(model: ForwardModel, x) -> float:
    """``0.5 * ||x - center||^2``."""
    d = as_vector(x, model.dim_x, "x") - model.center
    return 0.5 * float(np.dot(d, d))


def check_domain(model: ForwardModel, x) -> bool:
    """True iff ``0.5 * ||x - center||^2 <= radius_sq``."""
    return _half_dist_sq(model, x) <= model.radius_sq


def domain_violation(model: ForwardModel, x, what: str = "point") -> DomainViolation:
    """The :class:`DomainViolation` for a point ``x`` outside the ball,
    naming it ``what`` and giving the ``0.5 * ||x - center||^2`` that
    :func:`check_domain` compares."""
    return DomainViolation(
        f"{what} outside admissible ball: 0.5*||x-center||^2 = "
        f"{_half_dist_sq(model, x):.6g} > radius_sq = {model.radius_sq:.6g}"
    )


def require_in_domain(model: ForwardModel, x, what: str = "point") -> None:
    if not check_domain(model, x):
        raise domain_violation(model, x, what)


def require_finite(values, what: str) -> None:
    """Raise :class:`NonFiniteOutput` unless every entry of ``values`` is finite.

    The entries are checked one by one only when ``values . values`` is not
    finite, which any NaN or inf entry makes it.  ``np.vdot`` raises no
    floating-point warning, so non-finite values raise before any product
    with them could warn on ``inf * 0``.
    """
    values = np.asarray(values)
    if not (math.isfinite(np.vdot(values, values))
            or np.isfinite(values).all()):
        raise NonFiniteOutput(f"{what} is not finite: the model returned NaN or inf")


def vector_norm(v: np.ndarray) -> float:
    """``float(np.linalg.norm(v))`` of a real float array, bit for bit,
    without numpy's Python wrapper: the square root of the same dot product
    of ``v.ravel(order="K")`` with itself, with the same overflow warning
    when that product overflows to inf."""
    v = v.ravel(order="K")
    return math.sqrt(v.dot(v))


def finite_norm(v: np.ndarray, what: str) -> float:
    """The checked Euclidean norm of ``v``: :func:`vector_norm`'s bits when
    they are finite.  Otherwise raises :class:`NonFiniteOutput` as
    ``require_finite(v, what)`` does when ``v`` holds NaN or inf, and
    :class:`NonConvergence` naming ``what`` when a finite ``v`` has a norm
    that overflows to inf, which no step, stopping test or scale can use.

    The dot product is taken once, by ``np.vdot``, which gives the same bits
    on the same contiguous array but raises no floating-point warning; the
    entries are checked one by one only when the norm is not finite.
    """
    v = v.ravel(order="K")
    if math.isfinite(norm := math.sqrt(np.vdot(v, v))):
        return norm
    require_finite(v, what)
    raise NonConvergence(f"{what} has a norm that overflows to inf")


def apply_forward(model: ForwardModel, x) -> Vector:
    """Evaluate F(x), inside the ball or not."""
    x = as_vector(x, model.dim_x, "x")
    return as_vector(model.forward(x), model.dim_y, "F(x)")


def recenter(model: ForwardModel, center, radius_sq: float) -> ForwardModel:
    """New model whose admissible ball has ``center`` and ``radius_sq``."""
    center = as_vector(center, model.dim_x, "center")
    return dataclasses.replace(model, center=center, radius_sq=radius_sq)


def jacobian_matrix(model: ForwardModel, x) -> np.ndarray:
    """Assemble the dense Jacobian by applying J(x) to the basis vectors."""
    x = as_vector(x, model.dim_x, "x")
    j = np.empty((model.dim_y, model.dim_x))
    for i in range(model.dim_x):
        e = np.zeros(model.dim_x)
        e[i] = 1.0
        j[:, i] = as_vector(model.jacobian_apply(x, e), model.dim_y, "J e_i")
    return j


def _as_points(model: ForwardModel, xs) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != model.dim_x:
        raise DimensionMismatch(
            f"points have shape {xs.shape}, expected (k, {model.dim_x})"
        )
    return xs


def _as_stack(out, shape: tuple, name: str) -> np.ndarray:
    arr = np.asarray(out, dtype=float)
    if arr.shape != shape:
        raise DimensionMismatch(f"{name} has shape {arr.shape}, expected {shape}")
    return arr


def forward_stack(model: ForwardModel, xs) -> np.ndarray:
    """F at every row of the (k, dim_x) array ``xs``, as a (k, dim_y) array.

    Uses ``model.forward_batch`` when the model has one and calls
    ``model.forward`` point by point otherwise; no ball check.
    """
    xs = _as_points(model, xs)
    if model.forward_batch is not None:
        return _as_stack(model.forward_batch(xs), (xs.shape[0], model.dim_y),
                         "batched F(x)")
    out = np.empty((xs.shape[0], model.dim_y))
    for i, x in enumerate(xs):
        out[i] = as_vector(model.forward(x), model.dim_y, "F(x)")
    return out


def jacobian_stack(model: ForwardModel, xs) -> np.ndarray:
    """J at every row of ``xs``, as a (k, dim_y, dim_x) array.

    Uses ``model.jacobian_batch`` when the model has one and
    :func:`jacobian_matrix` point by point otherwise.
    """
    xs = _as_points(model, xs)
    shape = (xs.shape[0], model.dim_y, model.dim_x)
    if model.jacobian_batch is not None:
        return _as_stack(model.jacobian_batch(xs), shape, "batched J(x)")
    out = np.empty(shape)
    for i, x in enumerate(xs):
        out[i] = jacobian_matrix(model, x)
    return out


def row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row of a 2-D array.

    Each entry has the bits of ``np.linalg.norm(row)`` (both take the square
    root of one dot product per row), except where the squared norm is not
    a normal float on a row of finite entries that are not all zero: where
    it is subnormal, and so lost bits or underflowed to 0, or where it
    overflows to inf.  Such a row gets the rescaled norm ``m * ||row / m||``
    with ``m = max|row|`` (Blue 1978), so that only an all-zero row has
    norm 0 and only a norm past the float range is inf.  A NaN row keeps
    its NaN and a row with an inf entry its inf; neither stops the rescue
    of another.  No floating-point warning is raised.  A call that needs no
    rescue pays for an ``np.errstate`` and two reductions.
    """
    with np.errstate(over="ignore"):
        norms = np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])
        # 2**-511 is the square root of the smallest normal float; fmin and
        # fmax skip the NaN of a NaN row, which min and max would return
        if (np.fmin.reduce(norms, initial=math.inf) < 2.0**-511
                or np.fmax.reduce(norms, initial=0.0) == math.inf):
            at = np.flatnonzero((norms < 2.0**-511) | (norms == math.inf))
            scale = np.abs(rows[at]).max(axis=1, initial=0.0)
            keep = (scale > 0.0) & (scale < math.inf)
            at, scale = at[keep], scale[keep]
            # a scaled row has an entry of size 1, so its squared norm is
            # normal; the product overflows only where the norm does
            norms[at] = scale * row_norms(rows[at] / scale[:, None])
    return norms


def _lapack_errstate(routine: str):
    """The floating-point state numpy's wrappers call LAPACK under: a
    failure of ``routine`` sets the invalid flag, which raises
    :class:`NonConvergence` where numpy's wrapper raises ``LinAlgError``;
    no other flag warns."""
    def failure(err, flag):
        raise NonConvergence(f"LAPACK {routine} failed: the matrix has NaN or "
                             "inf entries, or the routine did not converge")
    return np.errstate(call=failure, invalid="call", over="ignore",
                       divide="ignore", under="ignore")


@functools.cache
def _upper_mask(rows: int, cols: int) -> np.ndarray:
    """The read-only mask of the entries ``np.triu`` keeps in a
    ``rows x cols`` matrix."""
    mask = ~np.tri(rows, cols, k=-1, dtype=bool)
    mask.flags.writeable = False
    return mask


def _reduced_qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(Q, R) = np.linalg.qr(a)`` of a real 2-D array ``a``, bit for bit,
    without numpy's Python wrapper: the same two gufunc calls on a copy of
    ``a`` (which the first overwrites) under :func:`_lapack_errstate`, and
    R as ``np.triu``'s ``np.where`` over a cached mask.  ``a`` is left
    unmodified."""
    a = a.astype(float)
    with _lapack_errstate("QR factorization"):
        tau = qr_r_raw(a, signature="d->d")
        q = qr_reduced(a, tau, signature="dd->d")
    rows = min(a.shape)
    return q, np.where(_upper_mask(rows, a.shape[1]), a[:rows], 0.0)


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(w, v) = np.linalg.eigh(a)`` of a real symmetric 2-D array, bit for
    bit: one call of the gufunc it wraps, reading the lower triangle,
    under :func:`_lapack_errstate`."""
    with _lapack_errstate("symmetric eigendecomposition"):
        return eigh_lo(a, signature="d->dd")


def _spectral_norm(a: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(a, 2, axis=(-2, -1))`` of a real 2-D array or stack
    of them, bit for bit: the largest of each matrix's singular values from
    one call of the gufunc it wraps, under :func:`_lapack_errstate`."""
    with _lapack_errstate("SVD"):
        s = svd(a, signature="d->d")
    return s.max(axis=-1, initial=0.0)


def jacobian_norms(model: ForwardModel, xs, what: str) -> np.ndarray:
    """The exact spectral norm ||J(x)|| at every row of the (k, dim_x) array
    ``xs``: J by one :func:`jacobian_stack`, and the bits of
    ``np.linalg.norm(J, 2)`` by one stacked LAPACK call
    (:func:`_spectral_norm`); no ball check.  Raises
    :class:`NonFiniteOutput` naming ``what`` when a Jacobian holds NaN or
    inf, before the SVD sees it, and :class:`NonConvergence` when the SVD
    fails.
    """
    jacs = jacobian_stack(model, xs)
    require_finite(jacs, what)
    return _spectral_norm(jacs)


def estimate_jacobian_norm(model: ForwardModel, x, iters: int = 100,
                           check: bool = True) -> float:
    """:func:`jacobian_norms` at the one point ``x``, checked against the
    ball unless ``check`` is false.

    ``iters`` has no effect and must be >= 1; it stays for existing callers
    that pass it.
    """
    x = as_vector(x, model.dim_x, "x")
    if check:
        require_in_domain(model, x)
    if iters < 1:
        raise ValueError("iters must be >= 1")
    return float(jacobian_norms(model, x[None], "Jacobian J(x)")[0])


def finite_difference_jacobian(model: ForwardModel, x) -> np.ndarray:
    """Central-difference Jacobian: column i is (F(x+h e_i) - F(x-h e_i)) / 2h
    with h = ``FD_STEP``."""
    x = as_vector(x, model.dim_x, "x")
    cols = []
    for i in range(model.dim_x):
        e = np.zeros(model.dim_x)
        e[i] = FD_STEP
        fp = apply_forward(model, x + e)
        fm = apply_forward(model, x - e)
        cols.append((fp - fm) / (2.0 * FD_STEP))
    return np.column_stack(cols)


def max_adjoint_defect(model: ForwardModel, points, samples: int = 100,
                       seed: int = 0) -> float:
    """Largest relative adjoint defect over random (x, v, w) triples.

    The defect ``|<J v, w> - <v, J* w>|`` at each triple is normalized by
    ``1 + ||J v|| * ||w||`` so the result compares directly against an
    absolute tolerance like 1e-10.  The norms have the bits of
    ``np.linalg.norm``, and the inner products are ``np.vdot``'s, which
    raise no floating-point warning: a gap that overflows gives an infinite
    defect, which fails any tolerance.  Raises :class:`NonFiniteOutput` when
    ``J v`` or ``J* w`` holds NaN or inf, which would otherwise give a NaN
    defect that the running maximum drops, and :class:`NonConvergence`
    (from :func:`finite_norm`) when ``||J v||`` overflows.  Otherwise
    ``||J v||`` is below ``2**512``, as is the ``||w||`` of a standard
    normal ``w``, so the scale is finite and never divides a gap, however
    wrong the adjoint, down to 0.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    points = [as_vector(p, model.dim_x, "x") for p in points]
    for _ in range(samples):
        x = points[rng.integers(len(points))]
        v = rng.standard_normal(model.dim_x)
        w = rng.standard_normal(model.dim_y)
        jv = as_vector(model.jacobian_apply(x, v), model.dim_y, "J v")
        scale = 1.0 + finite_norm(jv, "Jacobian action J v") * vector_norm(w)
        jtw = as_vector(model.jacobian_adjoint_apply(x, w), model.dim_x, "J* w")
        require_finite(jtw, "adjoint action J* w")
        gap = abs(float(np.vdot(jv, w)) - float(np.vdot(v, jtw)))
        worst = max(worst, gap / scale)
    return worst


# Every certificate provenance -> whether it arms a guarantee: the oracle's
# re-verified constants do, constants taken on trust (the default) do not.
PROVENANCES = {"user": False, "oracle-estimated": True}


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
        if not self.q_norm >= 0:
            raise ValueError("q_norm must be non-negative")
        # only the ball may be the whole space
        for name in ("lip_deriv", "jac_bound", "holder_const", "forward_lip",
                     "recon_const", "q_norm"):
            if getattr(self, name) == math.inf:
                raise ValueError(f"{name} must be finite")
        if not (isinstance(self.provenance, str) and self.provenance in PROVENANCES):
            choices = " or ".join(map(repr, PROVENANCES))
            raise ValueError(f"provenance must be {choices}")
