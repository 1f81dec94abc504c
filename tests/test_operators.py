import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GALLERY_IDS, linear_model, non_finite_model, sample_ball
from lmrecon.errors import DimensionMismatch, DomainViolation, NonConvergence, NonFiniteOutput
from lmrecon.operators import (
    ForwardModel,
    _eigh,
    _lapack_errstate,
    _reduced_qr,
    _spectral_norm,
    StabilityCertificate,
    apply_forward,
    check_domain,
    estimate_jacobian_norm,
    finite_difference_jacobian,
    finite_norm,
    jacobian_matrix,
    max_adjoint_defect,
    recenter,
    require_in_domain,
    row_norms,
    vector_norm,
)

WITNESS_SLACK = 1.0 + 1e-12


def test_apply_forward_scalar_linear():
    model = linear_model([[2.0]])
    assert apply_forward(model, [3.0])[0] == 6.0


def test_apply_forward_at_center_passes_domain_check():
    model = linear_model([[2.0]], center=np.array([1.0]), radius_sq=0.5)
    assert check_domain(model, model.center)
    assert apply_forward(model, model.center)[0] == 2.0


def test_apply_forward_exp_decay_closed_form(gallery_problems):
    # the model of exp_decay((0.0, 1.0), x_dagger) for any x_dagger
    prob = gallery_problems["exp-decay-2pt"]
    out = apply_forward(prob.model, [1.0, 1.0])
    assert np.allclose(out, [1.0, math.exp(-1.0)], rtol=0, atol=1e-15)


def test_require_in_domain_raises_outside_ball():
    model = linear_model([[2.0]], radius_sq=0.5)
    with pytest.raises(DomainViolation, match=r"= 50 > radius_sq = 0\.5"):
        require_in_domain(model, [10.0], "x0")
    # the ball is the iteration loop's: F is evaluated there all the same
    assert apply_forward(model, [10.0])[0] == 20.0


def test_dimension_mismatch():
    model = linear_model([[2.0]])
    with pytest.raises(DimensionMismatch):
        apply_forward(model, [1.0, 2.0])
    with pytest.raises(DimensionMismatch):
        check_domain(model, [1.0, 2.0])


@pytest.mark.parametrize("x,expected", [
    ((1.0, 1.0), True),    # 0.5 * 2 = 1 <= 1, boundary
    ((2.0, 0.0), False),   # 0.5 * 4 = 2 > 1
    ((0.0, 0.0), True),    # center
])
def test_check_domain_examples(x, expected):
    model = ForwardModel(
        dim_x=2, dim_y=2, center=np.zeros(2), radius_sq=1.0,
        forward=lambda v: v,
        jacobian_apply=lambda v, w: w,
        jacobian_adjoint_apply=lambda v, w: w,
    )
    assert check_domain(model, x) is expected


def test_recenter_moves_ball():
    model = linear_model([[1.0]], radius_sq=0.5)
    moved = recenter(model, [3.0], 2.0)
    assert check_domain(moved, [3.0])
    assert check_domain(moved, [1.0])
    assert not check_domain(moved, [0.0])
    assert moved.radius_sq == 2.0


def test_jacobian_norm_scalar():
    model = linear_model([[2.0]])
    assert abs(estimate_jacobian_norm(model, [0.0], iters=1) - 2.0) <= 1e-12


def test_jacobian_norm_diagonal():
    model = linear_model(np.diag([1.0, 3.0]))
    assert abs(estimate_jacobian_norm(model, [0.0, 0.0], iters=100) - 3.0) <= 1e-8


def test_jacobian_norm_exp_decay_vs_dense_svd(gallery_problems):
    # the model of exp_decay((0.0, 1.0, 2.0), x_dagger) for any x_dagger
    prob = gallery_problems["exp-decay"]
    x = np.array([1.0, 1.0])
    dense = float(np.linalg.svd(jacobian_matrix(prob.model, x),
                                compute_uv=False)[0])
    est = estimate_jacobian_norm(prob.model, x, iters=200)
    assert est <= dense + 1e-12
    assert abs(est - dense) <= 1e-8 * dense


def tall_quadratic_model(dim_y: int, dim_x: int, eta: float, seed: int) -> ForwardModel:
    """F(x) = A x + eta (B x)^2 with Gaussian A and B scaled by 1/sqrt(dim_y)."""
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((2, dim_y, dim_x)) / math.sqrt(dim_y)
    return ForwardModel(
        dim_x=dim_x, dim_y=dim_y, center=np.zeros(dim_x), radius_sq=math.inf,
        forward=lambda x: a @ x + eta * (b @ x) ** 2,
        jacobian_apply=lambda x, v: a @ v + 2.0 * eta * (b @ x) * (b @ v),
        jacobian_adjoint_apply=lambda x, w: a.T @ w + 2.0 * eta * (b.T @ ((b @ x) * w)),
    )


def assert_norm_is_dense(model: ForwardModel, points) -> None:
    for x in points:
        dense = float(np.linalg.norm(jacobian_matrix(model, x), 2))
        # non-negative floats: equal values are equal bits
        assert estimate_jacobian_norm(model, x, check=False) == dense


@pytest.mark.parametrize("pid", GALLERY_IDS)
def test_jacobian_norm_is_the_dense_spectral_norm(pid, gallery_problems):
    prob = gallery_problems[pid]
    assert_norm_is_dense(prob.model,
                         [prob.default_x0, prob.x_dagger, prob.model.center])


def test_jacobian_norm_is_the_dense_spectral_norm_tall():
    model = tall_quadratic_model(100, 12, 0.3, seed=4)
    assert_norm_is_dense(model, np.random.default_rng(5).standard_normal((4, 12)))


def test_jacobian_norm_rejects_nan_jacobian_and_no_iterations():
    with pytest.raises(NonFiniteOutput):
        estimate_jacobian_norm(non_finite_model("jacobian_apply"), [1.0])
    with pytest.raises(ValueError, match="iters must be >= 1"):
        estimate_jacobian_norm(linear_model([[2.0]]), [0.0], iters=0)


def test_finite_difference_linear_exact():
    model = linear_model([[2.0]])
    fd = finite_difference_jacobian(model, [0.0])
    assert abs(fd[0, 0] - 2.0) <= 1e-9


def test_finite_difference_square_map():
    model = ForwardModel(
        dim_x=1, dim_y=1, center=np.zeros(1), radius_sq=1e6,
        forward=lambda x: x * x,
        jacobian_apply=lambda x, v: 2.0 * x * v,
        jacobian_adjoint_apply=lambda x, w: 2.0 * x * w,
    )
    fd = finite_difference_jacobian(model, [3.0])
    assert abs(fd[0, 0] - 6.0) <= 1e-6


def test_finite_difference_matches_analytic_quadratic(gallery_problems):
    prob = gallery_problems["quadratic-2d"]
    rng = np.random.default_rng(5)
    x = sample_ball(prob.model.center, prob.model.radius_sq, rng)
    jac = jacobian_matrix(prob.model, x)
    fd = finite_difference_jacobian(prob.model, x)
    assert np.linalg.norm(fd - jac) <= 1e-6 * (1.0 + np.linalg.norm(jac))


def _adjoint_defect(model, x, v, w) -> float:
    """``|<J v, w> - <v, J* w>|`` for one test pair, with J applied afresh."""
    jtw = model.jacobian_adjoint_apply(x, w)
    return abs(float(np.dot(model.jacobian_apply(x, v), w)) - float(np.dot(v, jtw)))


@pytest.mark.parametrize("pid", GALLERY_IDS)
def test_adjoint_identity_sampled(pid, gallery_problems):
    prob = gallery_problems[pid]
    model = prob.model
    rng = np.random.default_rng(42)
    for _ in range(100):
        x = sample_ball(model.center, model.radius_sq, rng)
        v = rng.standard_normal(model.dim_x)
        w = rng.standard_normal(model.dim_y)
        jv = model.jacobian_apply(x, v)
        scale = 1.0 + float(np.linalg.norm(jv)) * float(np.linalg.norm(w))
        assert _adjoint_defect(model, x, v, w) <= 1e-10 * scale


def test_max_adjoint_defect_applies_j_once_per_sample():
    from lmrecon.cli import counting_model
    from lmrecon.gallery import sabotaged_adjoint_fixture

    prob = sabotaged_adjoint_fixture()
    model, counts = counting_model(prob.model)
    points = [prob.default_x0, prob.x_dagger]
    got = max_adjoint_defect(model, points, samples=40, seed=3)
    assert counts == {"forward": 0, "jacobian": 40, "adjoint": 40}
    # the same draws and arithmetic, with the reference applying J again
    rng = np.random.default_rng(3)
    want = 0.0
    for _ in range(40):
        x = points[rng.integers(len(points))]
        v = rng.standard_normal(model.dim_x)
        w = rng.standard_normal(model.dim_y)
        jv = model.jacobian_apply(x, v)
        scale = 1.0 + float(np.linalg.norm(jv)) * float(np.linalg.norm(w))
        want = max(want, _adjoint_defect(model, x, v, w) / scale)
    assert got == want > 1e-3


@pytest.mark.parametrize("part", ["jacobian_apply", "jacobian_adjoint_apply"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_max_adjoint_defect_rejects_non_finite_actions(part, value):
    # the action is not finite at the second of two points only; a NaN
    # defect there would drop out of the running maximum, leaving the
    # defect of the first point alone
    good = linear_model([[2.0, 0.0], [1.0, 3.0]])
    bad_x = np.array([0.5, 0.5])
    action = getattr(good, part)
    broken = dataclasses.replace(good, **{part: lambda x, u: (
        np.full_like(action(x, u), value) if np.array_equal(x, bad_x)
        else action(x, u))})
    assert max_adjoint_defect(broken, [np.zeros(2)], samples=20, seed=1) <= 1e-10
    with pytest.raises(NonFiniteOutput, match="not finite"):
        max_adjoint_defect(broken, [np.zeros(2), bad_x], samples=20, seed=1)


def test_max_adjoint_defect_refuses_an_overflowing_scale():
    # a 2x adjoint shows at scale 1 and at 1e153, where ||J v||^2 is still
    # finite and so is every sample's scale 1 + ||J v|| ||w||; at 1e160,
    # ||J v||^2 overflows, and an infinite scale would divide every gap to
    # 0, so the check refuses it, naming J v; no case warns
    def doubled(scale):
        model = linear_model(scale * np.eye(2))
        return dataclasses.replace(
            model, jacobian_adjoint_apply=lambda x, w: 2.0 * scale * w)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1.0, 1e153):
            assert max_adjoint_defect(doubled(scale), [np.zeros(2)],
                                      samples=100, seed=11) > 0.5
        with pytest.raises(NonConvergence, match="^Jacobian action J v has a "
                           "norm that overflows to inf$"):
            max_adjoint_defect(doubled(1e160), [np.zeros(2)], samples=100,
                               seed=11)
        # an infinite gap over a finite scale is an infinite defect, which
        # fails any tolerance
        huge = dataclasses.replace(
            linear_model([[1.0]]),
            jacobian_adjoint_apply=lambda x, w: np.full(1, 1.7e308))
        assert max_adjoint_defect(huge, [np.zeros(1)], samples=100,
                                  seed=11) == math.inf


@pytest.mark.parametrize("pid", GALLERY_IDS)
def test_finite_difference_jacobian_sampled(pid, gallery_problems):
    prob = gallery_problems[pid]
    model = prob.model
    rng = np.random.default_rng(43)
    for _ in range(10):
        x = sample_ball(model.center, 0.8 * model.radius_sq, rng)
        jac = jacobian_matrix(model, x)
        fd = finite_difference_jacobian(model, x)
        assert (np.linalg.norm(fd - jac)
                <= 1e-5 * (1.0 + np.linalg.norm(jac)))


@pytest.mark.parametrize("pid", GALLERY_IDS)
def test_lipschitz_witness(pid, gallery_problems):
    prob = gallery_problems[pid]
    model, cert = prob.model, prob.certificate
    rng = np.random.default_rng(44)
    for _ in range(200):
        x, y = sample_ball(model.center, model.radius_sq, rng, count=2)
        lhs = np.linalg.norm(jacobian_matrix(model, x)
                             - jacobian_matrix(model, y), 2)
        assert lhs <= cert.lip_deriv * np.linalg.norm(x - y) * WITNESS_SLACK


@pytest.mark.parametrize("pid", GALLERY_IDS)
def test_holder_witness(pid, gallery_problems):
    prob = gallery_problems[pid]
    model, cert = prob.model, prob.certificate
    exponent = (1.0 + cert.holder_eps) / 2.0
    rng = np.random.default_rng(45)
    for _ in range(200):
        x, y = sample_ball(model.center, model.radius_sq, rng, count=2)
        lhs = np.linalg.norm(x - y) / math.sqrt(2.0)
        fd = np.linalg.norm(apply_forward(model, x)
                            - apply_forward(model, y))
        assert lhs <= cert.holder_const * fd**exponent * WITNESS_SLACK


def test_certificate_validation():
    good = dict(lip_deriv=1.0, jac_bound=1.0, holder_const=1.0, holder_eps=1.0,
                domain_rho_prime=1.0, forward_lip=1.0, recon_const=1.0)
    StabilityCertificate(**good)
    with pytest.raises(ValueError):
        StabilityCertificate(**{**good, "holder_eps": 0.0})
    with pytest.raises(ValueError):
        StabilityCertificate(**{**good, "lip_deriv": 0.0})
    with pytest.raises(ValueError):
        StabilityCertificate(**{**good, "provenance": "guessed"})
    # an infinite q_norm once took the hit radius to 0, and the lattice
    # blamed the target accuracy; only the ball may be the whole space
    StabilityCertificate(**{**good, "domain_rho_prime": math.inf})
    for name in ("lip_deriv", "jac_bound", "holder_const", "forward_lip",
                 "recon_const", "q_norm"):
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            StabilityCertificate(**{**good, name: math.inf})


@st.composite
def norm_vectors(draw):
    """A float vector of length 1 to 1024 at a scale from 1e-300 to 1e300,
    so that its squared norm may underflow or overflow to inf; some draws
    hold NaN or inf entries, and some are strided views."""
    n = draw(st.integers(1, 1024), label="length")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    scale = 10.0 ** draw(st.floats(-300.0, 300.0), label="log10 scale")
    step = draw(st.sampled_from([1, 1, 2, -3]), label="stride")
    v = (rng.standard_normal(n * abs(step)) * scale)[::step]
    for value in draw(st.lists(st.sampled_from([np.nan, np.inf, -np.inf]),
                               max_size=3), label="non-finite entries"):
        v[rng.integers(n)] = value
    return v


def _norm_and_warnings(norm, v):
    """``norm(v)`` as ``float.hex``, and the floating-point warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = float(norm(v))
    return float.hex(value), [str(w.message) for w in caught]


@settings(max_examples=300, deadline=None)
@given(v=norm_vectors())
def test_vector_norm_is_numpys_norm(v):
    # the one norm rule: row_norms' bits for v as a single row, NaN and inf
    # included, rescued where the squared norm is subnormal, zero or
    # overflows.  Nothing warns
    norm, caught = _norm_and_warnings(vector_norm, v)
    assert caught == []
    assert norm == _norm_and_warnings(lambda v: row_norms(v.ravel()[None])[0], v)[0]


@settings(max_examples=300, deadline=None)
@given(v=norm_vectors())
def test_finite_norm_is_the_checked_norm(v):
    # finite_norm(v) is row_norms' bits for v as a single row wherever the
    # squared norm does not overflow; a NaN or inf entry raises
    # NonFiniteOutput and a squared norm that overflows NonConvergence, each
    # naming v; nothing warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if not np.isfinite(v).all():
            with pytest.raises(NonFiniteOutput, match="^v is not finite"):
                finite_norm(v, "v")
        elif math.isfinite(np.vdot(v, v)):
            assert float.hex(finite_norm(v, "v")) == \
                float.hex(float(row_norms(v.ravel()[None])[0]))
        else:
            with pytest.raises(NonConvergence,
                               match="^v has a norm that overflows to inf$"):
                finite_norm(v, "v")


@settings(max_examples=100, deadline=None)
@given(k=st.integers(1, 8), n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_row_norms_are_numpys_unless_their_squares_leave_the_normal_range(k, n, seed):
    # rows whose largest entry has a size from 1e-320 to 1e308, some of
    # them zero: a row whose squared norm is normal keeps np.linalg.norm's
    # bits, and one whose squared norm is subnormal (its norm is below
    # 2**-511) or overflows gets the accurate norm of math.hypot (to the
    # last subnormal step where it is subnormal, inf where it overflows), 0
    # only when every entry is; nothing warns.  Each row is scaled from a
    # normal draw divided by its largest entry, so the draw itself never
    # overflows
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((k, n))
    rows /= np.abs(rows).max(axis=1, keepdims=True)
    rows *= 10.0 ** rng.uniform(-320.0, 308.0, (k, 1))
    rows[rng.random(k) < 0.2] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = row_norms(rows)
    for norm, row in zip(got.tolist(), rows):
        # 2**-1022 is the smallest normal float
        if 2.0**-1022 <= float(np.vdot(row, row)) < math.inf:
            assert norm.hex() == float(np.linalg.norm(row)).hex()
        else:
            assert norm == pytest.approx(math.hypot(*row), rel=1e-14, abs=5e-324)
            assert (norm == 0.0) == (not row.any())


def test_row_norms_rescue_both_ends_beside_nan_and_inf_rows():
    # 3e-161**2 and 4e-161**2 are subnormal, so their dot product keeps few
    # bits (np.linalg.norm gives 4.99997e-161), and (3e154)**2 + (4e154)**2
    # overflows, yet the norm 5e154 is finite; a NaN row keeps its NaN and a
    # row with an inf entry its inf without stopping the rescue, a norm past
    # the float range is inf, and nothing warns
    rows = np.array([[3e-161, 4e-161], [3e154, 4e154], [np.nan, 1.0],
                     [np.inf, 1.0], [1.7e308, 1.7e308], [0.0, 0.0], [3.0, 4.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = row_norms(rows)
        # nor does a NaN row hide an overflow when no square is subnormal
        assert row_norms(rows[1:3])[0] == got[1]
    assert got[0] == pytest.approx(math.hypot(3e-161, 4e-161), rel=1e-15, abs=0.0)
    assert got[1] == pytest.approx(5e154, rel=1e-15, abs=0.0)
    assert math.isnan(got[2]) and got[3] == got[4] == math.inf
    assert got[5] == 0.0 and got[6] == 5.0


@pytest.mark.parametrize("s", [1e-158, 1e-300])
def test_oracle_constants_of_a_tiny_linear_map(s):
    # F(x) = s x on [0, 1]: every ||F(a) - F(b)|| has a subnormal square,
    # yet the oracle's forward_lip is s and its recon_const 1/(2 s), up to
    # the rounding of s a - s b; the root of a subnormal square is off by
    # up to 40 % here
    from lmrecon.gallery import INFLATION, estimate_stability_constants
    from lmrecon.recon import CompactBox

    box = CompactBox(np.zeros(1), np.ones(1))
    cert = estimate_stability_constants(linear_model([[s]]), box, eps=1.0, seed=3)
    assert cert.forward_lip / INFLATION == pytest.approx(s, rel=1e-12, abs=0.0)
    assert cert.recon_const / INFLATION == pytest.approx(0.5 / s, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("s", [1e154, 1e160, 1e300])
def test_oracle_constants_of_a_huge_batched_linear_map(s):
    # F(x) = s x on [0, 1]^2, with batched callables: every ||F(a) - F(b)||
    # may have a squared norm that overflows, yet every F value is finite,
    # and the oracle's forward_lip and jac_bound are s and its recon_const
    # 1/(2 s)
    from lmrecon.gallery import INFLATION, estimate_stability_constants
    from lmrecon.recon import CompactBox

    a = s * np.eye(2)
    model = dataclasses.replace(
        linear_model(a), forward_batch=lambda xs: xs @ a.T,
        jacobian_batch=lambda xs: np.broadcast_to(a, (xs.shape[0], 2, 2)).copy())
    box = CompactBox(np.zeros(2), np.ones(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = estimate_stability_constants(model, box, eps=1.0, seed=3)
    assert cert.forward_lip / INFLATION == pytest.approx(s, rel=2e-14, abs=0.0)
    assert cert.jac_bound / INFLATION == pytest.approx(s, rel=2e-14, abs=0.0)
    assert cert.recon_const / INFLATION == pytest.approx(0.5 / s, rel=2e-14, abs=0.0)


@st.composite
def lapack_matrices(draw):
    """A tall or square float matrix from 1 x 1 to 60 x 60 at a scale from
    1e-150 to 1e150; some draws are zero, some have rank below their column
    count, and some are strided views."""
    n = draw(st.integers(1, 60), label="columns")
    m = draw(st.integers(n, 60), label="rows")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    scale = 10.0 ** draw(st.floats(-150.0, 150.0), label="log10 scale")
    kind = draw(st.sampled_from(["full", "full", "rank-deficient", "zero"]),
                label="kind")
    if kind == "zero":
        return np.zeros((m, n))
    if kind == "rank-deficient":
        rank = draw(st.integers(0, n - 1), label="rank")
        a = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    else:
        a = rng.standard_normal((m, n))
    if draw(st.booleans(), label="strided"):
        a = np.repeat(a, 2, axis=1)[:, ::2]
    return a * scale


def _bits(*arrays):
    return [(a.shape, a.tobytes()) for a in arrays]


@st.composite
def lapack_stacks(draw):
    """A stack of 1 to 6 float matrices, each 1 x 1 to 6 x 6 (tall or wide),
    at one scale from 1e-150 to 1e150; some matrices are zero."""
    k, m, n = (draw(st.integers(1, 6), label=axis)
               for axis in ("matrices", "rows", "columns"))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    stack = rng.standard_normal((k, m, n)) * 10.0 ** draw(
        st.floats(-150.0, 150.0), label="log10 scale")
    stack[rng.random(k) < 0.25] = 0.0
    return stack


@settings(max_examples=300, deadline=None)
@given(a=lapack_matrices(), stack=lapack_stacks())
def test_lapack_helpers_are_numpys_functions(a, stack):
    # the same bits as numpy's public functions, and the inputs left as
    # they were
    before, stack_before = a.copy(), stack.copy()
    assert _bits(*_reduced_qr(a)) == _bits(*np.linalg.qr(a))
    assert _bits(_spectral_norm(a)) == _bits(np.linalg.norm(a, 2))
    assert _bits(_spectral_norm(stack)) == _bits(np.linalg.norm(stack, 2, axis=(1, 2)))
    n = a.shape[1]
    sym = a[:n] + a[:n].T
    assert _bits(*_eigh(sym)) == _bits(*np.linalg.eigh(sym))
    assert _bits(a, stack) == _bits(before, stack_before)


def test_svd_failure_is_a_solver_error():
    # numpy's wrapper raises its own LinAlgError on a NaN matrix; the helper
    # raises the library's NonConvergence, which the CLI maps to exit code 2
    nan = np.full((3, 2), np.nan)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.norm(nan, 2)
    for a in (nan, np.stack((np.ones((3, 2)), nan))):
        with pytest.raises(NonConvergence, match="LAPACK SVD failed"):
            _spectral_norm(a)
    # a NaN Jacobian is still reported as the model's fault, before the SVD
    with pytest.raises(NonFiniteOutput):
        estimate_jacobian_norm(non_finite_model("jacobian_apply"), [1.0])


@pytest.mark.parametrize("routine", ["QR factorization",
                                     "symmetric eigendecomposition", "SVD"])
def test_lapack_errstate(routine):
    # the invalid flag is how a LAPACK gufunc reports failure: each helper's
    # state turns it into NonConvergence naming the routine; a NaN matrix
    # reaches only the SVD's, so 0/0 raises the flag here
    with pytest.raises(NonConvergence, match=f"^LAPACK {routine} failed"):
        with _lapack_errstate(routine):
            np.divide(np.zeros(1), np.zeros(1))
    # overflow, division by zero and underflow stay silent, as under
    # numpy's wrappers
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with _lapack_errstate(routine):
            big = np.multiply(np.full(1, 1e300), 1e300)
            inf = np.divide(np.ones(1), np.zeros(1))
            tiny = np.multiply(np.full(1, 1e-300), 1e-300)
    assert (big[0], inf[0], tiny[0]) == (math.inf, math.inf, 0.0)
