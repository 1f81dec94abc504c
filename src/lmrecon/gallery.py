"""Desk-scale test problems with known truth and brute-force constant estimation.

Each shipped problem bundles a forward model, the planted solution, a
stability certificate (closed-form where the model is linear, sampled
otherwise) and a default search box.  The sampling oracle estimates every
certificate constant as an inflated maximum over random pairs plus a coarse
deterministic grid, and a fresh-seed re-verification pass guards against
unlucky sampling.  Both passes share one pair kernel, an array pass over
blocks of pairs; the sampled problems supply batched callables so that
the kernel evaluates F and J once per block rather than once per point.

Spectral norms are screened, not taken by LAPACK's SVD: each Jacobian (or
Jacobian difference) is scaled by its largest absolute entry, and the norm
is the square root of the largest eigenvalue of the smaller Gram matrix
(closed form up to 2 x 2, ``eigvalsh`` above), scaled back.  A screened
norm is within a few ulps of ``np.linalg.norm(J, 2)``, but not always
equal to it.  Only two consumers read these norms, and each compares them
with one pivot: the estimator with the sample peak, the re-verification
with the violation threshold.  :func:`_settle` re-takes the SVD on the few
entries whose screened value lies within ``SCREEN_TOL`` of that pivot, so
every certificate and violation count has the bits that LAPACK's norms on
every pair would give.
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
    _spectral_norm,
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
# Relative distance from a pivot within which a screened spectral norm is
# re-taken by LAPACK.  The screen's rounding error grows with the matrix
# size; measured against LAPACK it stays <= 1.1e-15 relative on shapes up
# to 4 x 4 and on random 1000 x 2 and 50 x 50 stacks.
SCREEN_TOL = 1e-12


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
    linear: bool = False


@dataclass
class CertificateReport:
    """Result of re-checking a certificate on fresh sample pairs."""

    ok: bool
    violations: dict


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
    """Screened largest singular value of every matrix in a (k, m, n) stack.

    Scaling by the largest absolute entry keeps the squares in the Gram
    matrix from underflowing or overflowing; a zero matrix gets exactly 0,
    and an empty stack an empty array.
    The matrices are laid out batch-last, so that every operation acts on
    rows of k values, and each Gram entry is summed row by row, in row
    order, one addition of k values at a time: each norm has the same bits
    whatever the stack's k.  The row loop makes m - 1 numpy calls per entry
    where ``np.add.accumulate`` makes one, but writes no m partial sums.
    On x86-64 with numpy 2.4 it is the faster of the two on a full block
    (k = 1024) at every shape tried, up to 100 x 12 (57 against 90 ms a
    stack), and the slower on a 100-matrix stack of 100 x 12 (10 against
    5 ms).  The shipped problems have m <= 3; re-measure before a wider
    problem leans on this screen.
    """
    if stack.shape[1] < stack.shape[2]:
        stack = stack.transpose(0, 2, 1)
    cols = np.ascontiguousarray(stack.transpose(2, 1, 0))  # (n, m, k), m >= n
    scale = np.abs(cols).max(axis=(0, 1), initial=0.0)
    unit = cols / np.where(scale > 0.0, scale, 1.0)

    def gram(i, j):
        # sequential sums; np.sum may sum pairwise when k = 1
        ui, uj = unit[i], unit[j]
        total = ui[0] * uj[0]
        for row in range(1, ui.shape[0]):
            total = total + ui[row] * uj[row]
        return total

    n = unit.shape[0]
    if n == 1:
        lam = gram(0, 0)
    elif n == 2:
        a, b, d = gram(0, 0), gram(0, 1), gram(1, 1)
        lam = 0.5 * (a + d) + np.hypot(0.5 * (a - d), b)
    else:
        full = np.empty((unit.shape[2], n, n))
        for i in range(n):
            for j in range(i + 1):
                full[:, i, j] = full[:, j, i] = gram(i, j)
        lam = np.linalg.eigvalsh(full)[:, -1]
    return scale * np.sqrt(lam)


def _settle(model: ForwardModel, pa: np.ndarray, pb: np.ndarray,
            jac: np.ndarray, jd: np.ndarray, jac_cut, jd_cut):
    """``jac`` and ``jd`` of :func:`_pair_quantities` on the pairs
    ``(pa, pb)``, with LAPACK's spectral norm wherever the screen cannot
    decide.

    Each cut is ``(ratio, pivot)``: the values that the consumer compares
    with one pivot, a sample peak or a violation threshold, entry by entry.
    An entry whose ratio lies within ``SCREEN_TOL`` of the pivot gets
    LAPACK's spectral norm (:func:`_spectral_norm`, the bits of
    ``np.linalg.norm(., 2)``); a zero norm is exact and stays.  J is rebuilt
    for those entries a block at a time; by the ``ForwardModel`` contract
    its rows are the ones that were screened.
    """
    settled = []
    for norms, (ratio, pivot), diff in ((jac, jac_cut, False), (jd, jd_cut, True)):
        near = np.flatnonzero((np.abs(ratio - pivot) <= SCREEN_TOL * pivot)
                              & (norms != 0.0))
        if not near.shape[0]:
            settled.append(norms)
            continue
        if diff:  # jd runs over the pairs with a != b
            at = np.flatnonzero(row_norms(pa - pb) != 0.0)[near]
            first, second = pa[at], pb[at]
        else:  # jac holds ||J(a_0)||, ||J(b_0)||, ||J(a_1)||, ...
            first = np.stack((pa, pb), axis=1).reshape(-1, pa.shape[1])[near]
        norms = norms.copy()
        for start in range(0, near.shape[0], STACK_BLOCK):
            part = slice(start, start + STACK_BLOCK)
            stack = jacobian_stack(model, first[part])
            if diff:
                stack = stack - jacobian_stack(model, second[part])
            norms[near[part]] = _spectral_norm(stack)
        settled.append(norms)
    return settled


def _pair_quantities(model: ForwardModel, pa: np.ndarray, pb: np.ndarray):
    """Per-pair norms behind every certificate inequality.

    Returns ``(jac, d, jd, fd)``.  ``jac`` holds ``||J(a)||`` and
    ``||J(b)||`` for every pair (a, b).  The other three arrays run over the
    pairs with a != b and hold ``||a - b||``, ``||J(a) - J(b)||`` and
    ``||F(a) - F(b)||``.  Raises :class:`DegenerateModel`, naming the first
    such pair, when distinct arguments share their data, and
    :class:`NonFiniteOutput` when the model returns NaN or inf.

    One array pass per block of ``STACK_BLOCK`` pairs.  J and F are each
    taken once, by :func:`jacobian_stack` / :func:`forward_stack` on the
    block's first points stacked over its second points, and ``||J(a)||``,
    ``||J(b)||`` by one call of the screen :func:`_spectral_norms`.  Vector
    norms are taken by :func:`row_norms` (the bits of the per-pair
    ``np.linalg.norm``).  Every row is computed on its own, by the
    ``ForwardModel`` batch contract and the screen's independence of the
    stack size, so the results do not depend on the block size, on the
    stacking or on whether the model has batched callables.  A block is
    indexed down to its pairs with a != b, before F is taken, only when it
    has a pair with a == b, which random pairs and the pairs of distinct
    grid points never are.  The spectral norms are screened: pass them
    through :func:`_settle` before comparing them with a peak or a
    threshold.
    """
    jac = np.empty((pa.shape[0], 2))
    apart = np.empty((pa.shape[0], 3))
    kept = 0
    for start in range(0, pa.shape[0], STACK_BLOCK):
        rows = slice(start, start + STACK_BLOCK)
        a, b = pa[rows], pb[rows]
        k = a.shape[0]
        ab = np.concatenate((a, b))  # a's rows, then b's
        jab = jacobian_stack(model, ab)
        require_finite(jab, "Jacobian at a sample pair")
        norms = _spectral_norms(jab)
        jac[rows, 0], jac[rows, 1] = norms[:k], norms[k:]
        d = row_norms(a - b)
        if not d.all():
            keep = d != 0.0
            d, both = d[keep], np.concatenate((keep, keep))
            ab, jab, k = ab[both], jab[both], d.shape[0]
        fab = forward_stack(model, ab)
        require_finite(fab, "forward value at a sample pair")
        fd = row_norms(fab[:k] - fab[k:])
        if not fd.all():
            i = np.flatnonzero(fd == 0.0)[0]
            raise DegenerateModel(
                f"F({ab[i]}) = F({ab[k + i]}) with distinct arguments: "
                "no stability on this box"
            )
        out = apart[kept:kept + k]
        out[:, 0], out[:, 2] = d, fd
        out[:, 1] = _spectral_norms(jab[:k] - jab[k:])
        kept += k
    require_finite(apart[:kept], "pair difference norms")
    return (jac.ravel(), *apart[:kept].T)


def _peak(values: np.ndarray) -> float:
    return float(np.max(values, initial=0.0))


def _pow(values: np.ndarray, exponent: float) -> np.ndarray:
    """``values ** exponent`` entry by entry, by Python's float pow rather
    than np.power: numpy's vectorized pow can differ from libm's in the last
    bit, and a certificate must not depend on which SIMD path the numpy
    build takes.  ``x ** 1.0`` is ``x``, so exponent 1 returns ``values``
    itself."""
    if exponent == 1.0:
        return values
    return np.array([v ** exponent for v in values.tolist()])


def estimate_stability_constants(model: ForwardModel, box: CompactBox,
                                 eps: float, samples: int = 10000,
                                 seed: int = 0) -> StabilityCertificate:
    """Sample-maximum estimate of every certificate constant, inflated by 5%.

    The certificate is for ``model`` with the identity measurement
    (``q_norm = 1``); to certify a measured model Q o F, pass
    ``compose_measured_model(model, q_op)``.  ``domain_rho_prime`` is taken
    from the largest ball centered in the box that the box still contains, so
    the certificate is valid on that ball.  Raises :class:`DegenerateModel`,
    naming the box, when no sampled pair has distinct points (a one-point
    box), and whenever :func:`_pair_quantities` does.
    """
    if samples < 10**4:
        raise ValueError("at least 10^4 sample pairs are required")
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    pa, pb = _pair_arrays(box, samples, seed)
    jac, d, jd, fd = _pair_quantities(model, pa, pb)
    if not d.shape[0]:
        raise DegenerateModel(
            f"no sampled pair of distinct points in the box "
            f"[{box.lower.tolist()}, {box.upper.tolist()}]: no stability "
            "constant to estimate")
    jac, jd = _settle(model, pa, pb, jac, jd,
                      (jac, _peak(jac)), (jd / d, _peak(jd / d)))
    exponent = (1.0 + eps) / 2.0
    rho_prime = _ball_of(box)["radius_sq"] or model.radius_sq
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
                       cert: StabilityCertificate, seed: int = 1) -> CertificateReport:
    """Check every certificate inequality on 10^4 fresh pairs.

    A pair violates an inequality when its ratio exceeds 1 + 1e-12 (the slack
    absorbs rounding in certificates that hold with equality).
    """
    pa, pb = _pair_arrays(box, 10**4, seed)
    jac, d, jd, fd = _pair_quantities(model, pa, pb)
    cut = 1.0 + REVERIFY_SLACK
    jac, jd = _settle(model, pa, pb, jac, jd, (jac / cert.jac_bound, cut),
                      (jd / (cert.lip_deriv * d), cut))
    exponent = (1.0 + cert.holder_eps) / 2.0
    ratios = {
        "jac_bound": jac / cert.jac_bound,
        "lip_deriv": jd / (cert.lip_deriv * d),
        "holder": (d / math.sqrt(2.0)) / (cert.holder_const * _pow(fd, exponent)),
        "forward_lip": fd / (cert.forward_lip * d),
        "recon": d / (2.0 * cert.recon_const * fd),
    }
    counts = {key: int(np.count_nonzero(r > cut)) for key, r in ratios.items()}
    ok = all(v == 0 for v in counts.values())
    return CertificateReport(ok=ok, violations=counts)


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


def certify(model: ForwardModel, box: CompactBox, eps: float,
            seed: int) -> StabilityCertificate:
    """The oracle's certificate for ``model`` on ``box`` at Hoelder exponent
    ``eps``, estimated on ``seed`` and re-verified on the fresh ``seed + 1``,
    the one guard on sampled maxima, which are only lower bounds.  Raises
    :class:`CertificationFailed` when the model is not injective on the box
    or the certificate fails re-verification."""
    try:
        cert = estimate_stability_constants(model, box, eps=eps, seed=seed)
        report = verify_certificate(model, box, cert, seed=seed + 1)
    except DegenerateModel as exc:
        raise CertificationFailed(
            f"the model is not injective on the box: {exc}") from exc
    if not report.ok:
        raise CertificationFailed(
            f"the certificate failed re-verification: {report.violations}")
    return cert


def _certified(problem_id: str, model: ForwardModel, box: CompactBox,
               x_dagger: np.ndarray, x0: np.ndarray, seed: int) -> GalleryProblem:
    """The gallery problem with :func:`certify`'s certificate for ``model``
    on ``box`` at eps = 1."""
    return GalleryProblem(id=problem_id, model=model, x_dagger=x_dagger,
                          certificate=certify(model, box, 1.0, seed),
                          default_box=box, y_exact=model.forward(x_dagger),
                          default_x0=x0)


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
    # Default start close enough to the truth that the linearization-error
    # condition (omega = 2) verifiably holds along the run.
    return _certified("exp-decay", _exp_decay_model(t, box), box, x_dagger,
                      x_dagger + np.array([-0.1, 0.1]), seed=101)


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
    return _certified(f"quadratic-{n}d", _quadratic_model(a_mat, eta, box), box,
                      x_dagger, x_dagger + 0.06 * signs, seed=202)


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
    return dataclasses.replace(good, id="sabotaged-adjoint", model=broken_model)


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
