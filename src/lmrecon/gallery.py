"""Desk-scale test problems with known truth and brute-force constant estimation.

Each shipped problem bundles a forward model, the planted solution, a
stability certificate (closed-form where the model is linear, sampled
otherwise) and a default search box.  The sampling oracle estimates every
certificate constant as an inflated maximum over random pairs plus a coarse
deterministic grid, and a fresh-seed re-verification pass guards against
unlucky sampling.  Both passes share one pair kernel, an array pass over
blocks of pairs; the sampled problems supply batched callables so that
the kernel evaluates F and J once per block rather than once per point.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificationFailed, DegenerateModel
from .operators import (
    STACK_BLOCK,
    ForwardModel,
    StabilityCertificate,
    as_vector,
    forward_stack,
    jacobian_stack,
    require_finite,
    row_norms,
)
from .recon import CompactBox

INFLATION = 1.05
# Linear models have exactly zero Jacobian variation; the certificate still
# needs a strictly positive Lipschitz constant.
LIP_FLOOR = 1e-14
GRID_PER_AXIS = 4
REVERIFY_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class GalleryProblem:
    """A forward model with planted truth and certified constants."""

    id: str
    model: ForwardModel
    x_dagger: np.ndarray
    certificate: StabilityCertificate
    default_box: CompactBox
    y_exact: np.ndarray
    default_x0: np.ndarray
    notes: str
    linear: bool = False


@dataclass
class CertificateReport:
    """Result of re-checking a certificate on fresh sample pairs."""

    ok: bool
    violations: dict
    worst_ratio: dict


def _pair_arrays(box: CompactBox, samples: int, seed: int):
    """Random pairs in the box plus all pairs of a coarse grid."""
    rng = np.random.default_rng(seed)
    n = box.dim
    ext = box.upper - box.lower
    first = box.lower + rng.random((samples, n)) * ext
    second = box.lower + rng.random((samples, n)) * ext
    axes = [
        np.linspace(lo, up, GRID_PER_AXIS) if up > lo else np.array([lo])
        for lo, up in zip(box.lower, box.upper)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    gpts = np.column_stack([m.ravel() for m in mesh])
    gi, gj = np.triu_indices(gpts.shape[0], k=1)
    return (np.vstack([first, gpts[gi]]), np.vstack([second, gpts[gj]]))


def _spectral_norms(stack: np.ndarray) -> np.ndarray:
    return np.linalg.norm(stack, 2, axis=(1, 2))


def _pair_quantities(model: ForwardModel, pa: np.ndarray, pb: np.ndarray):
    """Per-pair norms behind every certificate inequality.

    Returns ``(jac, d, jd, fd)``.  ``jac`` holds ``||J(a)||`` and
    ``||J(b)||`` for every pair (a, b).  The other three arrays run over the
    pairs with a != b and hold ``||a - b||``, ``||J(a) - J(b)||`` and
    ``||F(a) - F(b)||``.  Raises :class:`DegenerateModel`, naming the first
    such pair, when distinct arguments share their data, and
    :class:`NonFiniteOutput` when the model returns NaN or inf.

    One array pass per block of ``STACK_BLOCK`` pairs: F and J are stacked
    through :func:`forward_stack` / :func:`jacobian_stack` and every norm is
    taken by a batched call with the bits of the per-pair ``np.linalg.norm``,
    so the results do not depend on the block size or on whether the model
    has batched callables.
    """
    jac = np.empty((pa.shape[0], 2))
    apart = np.empty((pa.shape[0], 3))
    kept = 0
    for start in range(0, pa.shape[0], STACK_BLOCK):
        a = pa[start:start + STACK_BLOCK]
        b = pb[start:start + STACK_BLOCK]
        ja, jb = jacobian_stack(model, a), jacobian_stack(model, b)
        require_finite((ja, jb), "Jacobian at a sample pair")
        jac[start:start + a.shape[0]] = np.column_stack(
            (_spectral_norms(ja), _spectral_norms(jb)))
        d = row_norms(a - b)
        keep = d != 0.0
        a, b = a[keep], b[keep]
        fa, fb = forward_stack(model, a), forward_stack(model, b)
        require_finite((fa, fb), "forward value at a sample pair")
        fd = row_norms(fa - fb)
        if not fd.all():
            i = np.flatnonzero(fd == 0.0)[0]
            raise DegenerateModel(
                f"F({a[i]}) = F({b[i]}) with distinct arguments: "
                "no stability on this box"
            )
        apart[kept:kept + fd.shape[0]] = np.column_stack(
            (d[keep], _spectral_norms(ja[keep] - jb[keep]), fd))
        kept += fd.shape[0]
    require_finite(apart[:kept], "pair difference norms")
    return (jac.ravel(), *apart[:kept].T)


def _peak(values: np.ndarray) -> float:
    return float(np.max(values, initial=0.0))


def _pow(values: np.ndarray, exponent: float) -> np.ndarray:
    # Python's float pow rather than np.power: numpy's vectorized pow can
    # differ from libm's in the last bit, and a certificate must not depend
    # on which SIMD path the numpy build takes.
    return np.array([v ** exponent for v in values.tolist()])


def estimate_stability_constants(model: ForwardModel, box: CompactBox,
                                 eps: float, samples: int = 10000,
                                 seed: int = 0) -> StabilityCertificate:
    """Sample-maximum estimate of every certificate constant, inflated by 5%.

    The certificate is for ``model`` with the identity measurement
    (``q_norm = 1``); to certify a measured model Q o F, pass
    ``compose_measured_model(model, q_op)``.  ``domain_rho_prime`` is taken
    from the largest ball centered in the box that the box still contains, so
    the certificate is valid on that ball.
    """
    if samples < 10**4:
        raise ValueError("at least 10^4 sample pairs are required")
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    pa, pb = _pair_arrays(box, samples, seed)
    jac, d, jd, fd = _pair_quantities(model, pa, pb)
    exponent = (1.0 + eps) / 2.0
    inradius = 0.5 * float(np.min(box.upper - box.lower))
    rho_prime = 0.5 * inradius**2 if inradius > 0 else model.radius_sq
    return StabilityCertificate(
        lip_deriv=INFLATION * max(_peak(jd / d), LIP_FLOOR),
        jac_bound=INFLATION * _peak(jac),
        holder_const=INFLATION * _peak((d / math.sqrt(2.0)) / _pow(fd, exponent)),
        holder_eps=eps,
        domain_rho_prime=rho_prime,
        forward_lip=INFLATION * _peak(fd / d),
        recon_const=INFLATION * _peak(0.5 * d / fd),
        q_norm=1.0,
        provenance="oracle-estimated",
    )


def verify_certificate(model: ForwardModel, box: CompactBox,
                       cert: StabilityCertificate, samples: int = 10000,
                       seed: int = 1) -> CertificateReport:
    """Check every certificate inequality on a fresh sample of pairs.

    A pair violates an inequality when its ratio exceeds 1 + 1e-12 (the slack
    absorbs rounding in certificates that hold with equality).
    """
    pa, pb = _pair_arrays(box, samples, seed)
    jac, d, jd, fd = _pair_quantities(model, pa, pb)
    exponent = (1.0 + cert.holder_eps) / 2.0
    ratios = {
        "jac_bound": jac / cert.jac_bound,
        "lip_deriv": jd / (cert.lip_deriv * d),
        "holder": (d / math.sqrt(2.0)) / (cert.holder_const * _pow(fd, exponent)),
        "forward_lip": fd / (cert.forward_lip * d),
        "recon": d / (2.0 * cert.recon_const * fd),
    }
    counts = {key: int(np.count_nonzero(r > 1.0 + REVERIFY_SLACK))
              for key, r in ratios.items()}
    worst = {key: _peak(r) for key, r in ratios.items()}
    ok = all(v == 0 for v in counts.values())
    return CertificateReport(ok=ok, violations=counts, worst_ratio=worst)


def scalar_linear(a: float, x_dagger: float) -> GalleryProblem:
    """F(x) = a x on the line; every constant is available in closed form.

    The derivative is constant, so any positive Lipschitz constant is valid;
    1.0 keeps the guaranteed entry radius at a usable size.  The stability
    constant (1/(sqrt(2)|a|)) makes the inverse estimate hold with equality.
    """
    if a == 0:
        raise ValueError("a must be nonzero")
    a = float(a)
    x_dagger = float(x_dagger)

    model = ForwardModel(
        dim_x=1, dim_y=1,
        center=np.array([x_dagger]),
        radius_sq=a * a,
        forward=lambda x: a * x,
        jacobian_apply=lambda x, v: a * v,
        jacobian_adjoint_apply=lambda x, w: a * w,
    )
    cert = StabilityCertificate(
        lip_deriv=1.0,
        jac_bound=abs(a),
        holder_const=1.0 / (math.sqrt(2.0) * abs(a)),
        holder_eps=1.0,
        domain_rho_prime=a * a,
        forward_lip=abs(a),
        recon_const=1.0 / (2.0 * abs(a)),
        q_norm=1.0,
        provenance="user",
    )
    box = CompactBox(np.array([x_dagger - 0.5]), np.array([x_dagger + 0.5]))
    return GalleryProblem(
        id=f"scalar-linear-a{a:g}",
        model=model,
        x_dagger=np.array([x_dagger]),
        certificate=cert,
        default_box=box,
        y_exact=np.array([a * x_dagger]),
        default_x0=np.array([x_dagger - 0.5]),
        notes="closed-form linear map; residual contracts by exactly q per step",
        linear=True,
    )


def _ball_of(box: CompactBox) -> dict:
    """Center and ``radius_sq`` of the largest ball centered in ``box``."""
    inradius = 0.5 * float(np.min(box.upper - box.lower))
    return {"center": 0.5 * (box.lower + box.upper), "radius_sq": 0.5 * inradius**2}


def _exp_decay_model(t: np.ndarray, box: CompactBox) -> ForwardModel:
    """F(x)_i = x1 * exp(-x2 * t_i) on the ball of ``box``."""

    def forward(x):
        return x[0] * np.exp(-x[1] * t)

    def japply(x, v):
        e = np.exp(-x[1] * t)
        return e * (v[0] - x[0] * t * v[1])

    def jadj(x, w):
        e = np.exp(-x[1] * t)
        return np.array([float(np.dot(e, w)),
                         float(np.dot(-x[0] * t * e, w))])

    def forward_batch(xs):
        return xs[:, :1] * np.exp(-xs[:, 1:] * t)

    def jacobian_batch(xs):
        # the columns J e_1 and J e_2, rounded as japply rounds them
        e = np.exp(-xs[:, 1:] * t)
        return np.stack((e, e * (0.0 - xs[:, :1] * t)), axis=2)

    return ForwardModel(
        dim_x=2, dim_y=t.shape[0], **_ball_of(box),
        forward=forward, jacobian_apply=japply, jacobian_adjoint_apply=jadj,
        forward_batch=forward_batch, jacobian_batch=jacobian_batch,
    )


def _quadratic_model(a_mat: np.ndarray, eta: float, box: CompactBox) -> ForwardModel:
    """F(x) = A x + eta * x**2 on the ball of ``box``."""
    diag = np.arange(a_mat.shape[0])

    def forward(x):
        return a_mat @ x + eta * x * x

    def japply(x, v):
        return a_mat @ v + 2.0 * eta * x * v

    def jadj(x, w):
        return a_mat.T @ w + 2.0 * eta * x * w

    def forward_batch(xs):
        # one matrix-vector product per row: X @ A.T rounds differently
        return (a_mat @ xs[:, :, None])[:, :, 0] + eta * xs * xs

    def jacobian_batch(xs):
        jac = np.repeat(a_mat[None], xs.shape[0], axis=0)
        jac[:, diag, diag] += 2.0 * eta * xs
        return jac

    return ForwardModel(
        dim_x=diag.shape[0], dim_y=diag.shape[0], **_ball_of(box),
        forward=forward, jacobian_apply=japply, jacobian_adjoint_apply=jadj,
        forward_batch=forward_batch, jacobian_batch=jacobian_batch,
    )


def exp_decay(times, x_dagger) -> GalleryProblem:
    """Two-parameter exponential decay F(x)_i = x1 * exp(-x2 * t_i) on the
    box [0.5, 1.5]^2."""
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.shape[0] < 2 or np.unique(t).shape[0] < 2:
        raise ValueError("need at least two distinct sample times")
    x_dagger = as_vector(x_dagger, 2, "x_dagger")
    if np.any(x_dagger <= 0):
        raise ValueError("x_dagger must lie in the positive quadrant")
    box = CompactBox(np.array([0.5, 0.5]), np.array([1.5, 1.5]))
    model = _exp_decay_model(t, box)
    cert = estimate_stability_constants(model, box, eps=1.0, seed=101)
    report = verify_certificate(model, box, cert, seed=102)
    if not report.ok:
        raise CertificationFailed(
            f"exponential-decay certificate failed re-verification: {report.violations}"
        )
    # Default start close enough to the truth that the linearization-error
    # condition (omega = 2) verifiably holds along the run.
    return GalleryProblem(
        id="exp-decay",
        model=model,
        x_dagger=x_dagger,
        certificate=cert,
        default_box=box,
        y_exact=model.forward(x_dagger),
        default_x0=x_dagger + np.array([-0.1, 0.1]),
        notes=("genuinely nonlinear decay fit; satisfies the Jacobian and "
               "adjoint identities, used for composition and scan tests"),
    )


def quadratic_perturbation(mat, eta: float) -> GalleryProblem:
    """F(x) = A x + eta * (x ** 2), componentwise square, on [-0.5, 0.5]^n.

    With a well-conditioned A and moderate eta the map stays Lipschitz-stable
    on the default box, which is what the convergence-rate checks need.
    Raises :class:`CertificationFailed` when eta is too large for the box.
    """
    a_mat = np.atleast_2d(np.asarray(mat, dtype=float))
    n = a_mat.shape[0]
    if a_mat.shape != (n, n):
        raise ValueError("A must be square")
    smin = float(np.linalg.svd(a_mat, compute_uv=False)[-1])
    if smin <= 0:
        raise ValueError("A must be invertible")
    box = CompactBox(np.full(n, -0.5), np.full(n, 0.5))
    signs = np.array([(-1.0) ** i for i in range(n)])
    x_dagger = 0.25 * signs * (1.0 - 0.2 * np.arange(n))

    model = _quadratic_model(a_mat, eta, box)
    try:
        cert = estimate_stability_constants(model, box, eps=1.0, seed=202)
        report = verify_certificate(model, box, cert, seed=203)
    except DegenerateModel as exc:
        raise CertificationFailed(
            f"eta = {eta} destroys injectivity on the box: {exc}"
        ) from exc
    if not report.ok:
        raise CertificationFailed(
            f"quadratic certificate failed re-verification: {report.violations}"
        )
    return GalleryProblem(
        id=f"quadratic-{n}d",
        model=model,
        x_dagger=x_dagger,
        certificate=cert,
        default_box=box,
        y_exact=model.forward(x_dagger),
        default_x0=x_dagger + 0.06 * np.array([(-1.0) ** i for i in range(n)]),
        notes=("tunable nonlinearity with Lipschitz-stable inverse; the main "
               "vehicle for the convergence-rate and noisy-data guarantees"),
    )


def sabotaged_adjoint_fixture() -> GalleryProblem:
    """Fault-injection fixture: the adjoint action is scaled by 2%.

    Not part of the shipped gallery; exists so the verification command can
    demonstrate that a broken adjoint is caught.
    """
    good = get_problem("exp-decay")
    # F and J are unchanged, so the batched callables carry over
    broken_model = dataclasses.replace(
        good.model,
        jacobian_adjoint_apply=lambda x, w: 1.02 * good.model.jacobian_adjoint_apply(x, w),
    )
    return GalleryProblem(
        id="sabotaged-adjoint",
        model=broken_model,
        x_dagger=good.x_dagger,
        certificate=good.certificate,
        default_box=good.default_box,
        y_exact=good.y_exact,
        default_x0=good.default_x0,
        notes="deliberately inconsistent adjoint; for fault-injection tests only",
    )


_BUILDERS = {
    "scalar-linear": lambda: scalar_linear(2.0, 0.5),
    "scalar-linear-unit": lambda: scalar_linear(1.0, 0.5),
    "exp-decay": lambda: exp_decay((0.0, 1.0, 2.0), (1.2, 0.7)),
    "exp-decay-2pt": lambda: exp_decay((0.0, 1.0), (0.8, 1.2)),
    "quadratic-2d": lambda: quadratic_perturbation(np.eye(2), 0.25),
    "quadratic-3d": lambda: quadratic_perturbation(np.eye(3), 0.2),
}

_FIXTURE_BUILDERS = {
    "sabotaged-adjoint": sabotaged_adjoint_fixture,
}

_CACHE: dict[str, GalleryProblem] = {}


def gallery_ids() -> list[str]:
    return list(_BUILDERS)


def get_problem(problem_id: str) -> GalleryProblem:
    """Problem registry lookup, fault fixtures included; builds lazily and
    caches."""
    if problem_id not in _CACHE:
        builder = _BUILDERS.get(problem_id) or _FIXTURE_BUILDERS.get(problem_id)
        if builder is None:
            known = sorted([*_BUILDERS, *_FIXTURE_BUILDERS])
            raise KeyError(f"unknown problem '{problem_id}'; known: {known}")
        prob = builder()
        if prob.id != problem_id:
            prob = dataclasses.replace(prob, id=problem_id)
        _CACHE[problem_id] = prob
    return _CACHE[problem_id]
