import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from conftest import linear_model, non_finite_model
from lmrecon import gallery
from lmrecon import step as stepmod
from lmrecon.cli import counting_model, main
from lmrecon.errors import (
    FactorizationFailure,
    NonConvergence,
    NonFiniteOutput,
    RootInfeasible,
    SolverError,
    ZeroResidual,
)
from lmrecon.gallery import get_problem
from lmrecon.engine import SolverConfig, run_exact
from lmrecon.operators import (ForwardModel, finite_norm, jacobian_matrix,
                               max_adjoint_defect)
from lmrecon.step import _select_alpha, _spectrum, lm_step


def _dense_z(a, alpha, r):
    """``(A A^T + alpha I)^{-1} r`` by a dense solve."""
    return np.linalg.solve(a @ a.T + alpha * np.eye(a.shape[0]), r)


def test_solve_shifted_scalar():
    # J = 2, q = 1/2: the root is alpha = 4 and z = 1 / (4 + alpha)
    a = np.array([[2.0]])
    alpha, z = _select_alpha(_spectrum(linear_model(a), [0.0]), np.ones(1), 0.5,
                             1e-10, 1.0)[:2]
    assert abs(z[0] - 0.125) <= 1e-11
    assert abs(z[0] - _dense_z(a, alpha, np.ones(1))[0]) <= 1e-15


def test_solve_shifted_dominant_alpha_limit():
    # q near 1 puts the root far above ||J J^T||, where z tends to r / alpha
    a = np.array([[2.0, 1.0], [0.5, 3.0]])
    r = np.array([1.0, -2.0])
    spec = _spectrum(linear_model(a), [0.0, 0.0])
    alpha, z = _select_alpha(spec, r, 1.0 - 1e-9, 1e-10,
                             float(np.linalg.norm(r)))[:2]
    assert alpha > 1e9
    assert np.linalg.norm(z - r / alpha) <= 1e-6 * np.linalg.norm(r / alpha)
    assert np.linalg.norm(z - _dense_z(a, alpha, r)) <= 1e-14 * np.linalg.norm(z)


def test_solve_shifted_diagonal():
    # q = sqrt(0.13) puts the root at alpha = 1, where z = (1/2, 1/10)
    a = np.diag([1.0, 3.0])
    r = np.ones(2)
    alpha, z = _select_alpha(_spectrum(linear_model(a), [0.0, 0.0]), r,
                             math.sqrt(0.13), 1e-12, math.sqrt(2.0))[:2]
    assert abs(alpha - 1.0) <= 1e-10
    assert np.allclose(z, [1.0 / (1.0 + alpha), 1.0 / (9.0 + alpha)],
                       rtol=0, atol=1e-15)
    assert np.allclose(z, [0.5, 0.1], rtol=0, atol=1e-10)


def test_solve_shifted_residual_tolerance():
    # Backward residual at the contract level, at the roots for several q on
    # a tall J whose residual has a part outside range(J)
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 3))
    spec = _spectrum(linear_model(a), np.zeros(3))
    r = a @ rng.standard_normal(3) + 0.1 * rng.standard_normal(4)
    alphas = []
    for q in (0.2, 0.5, 0.9):
        alpha, z = _select_alpha(spec, r, q, 1e-10, float(np.linalg.norm(r)))[:2]
        defect = np.linalg.norm((a @ a.T + alpha * np.eye(4)) @ z - r)
        assert defect <= 1e-12 * np.linalg.norm(r)
        alphas.append(alpha)
    assert alphas[0] < 1.0 < alphas[-1]


def test_solve_shifted_rejects_nonpositive_alpha():
    # q lam_max underflows to 0 for J = 1e-160: no positive shift exists
    model = linear_model([[1e-160]])
    with pytest.raises(NonConvergence, match="underflows to alpha = 0"):
        _select_alpha(_spectrum(model, [0.0]), np.ones(1), 1e-5, 1e-10, 1.0)


def test_broken_adjoint_gives_asymmetric_gram():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    wrong = np.array([[1.0, 3.0], [2.5, 4.0]])
    model = ForwardModel(
        dim_x=2, dim_y=2, center=np.zeros(2), radius_sq=1e6,
        forward=lambda x: a @ x,
        jacobian_apply=lambda x, v: a @ v,
        jacobian_adjoint_apply=lambda x, w: wrong.T @ w,
    )
    with pytest.raises(FactorizationFailure, match="asymmetry"):
        _spectrum(model, [0.0, 0.0])
    with pytest.raises(FactorizationFailure, match="asymmetry"):
        lm_step(model, [0.0, 0.0], [1.0, 1.0], 0.5)


def test_sign_flipped_adjoint_gives_indefinite_gram():
    # J* = -J^T keeps the Gram matrix symmetric but makes it negative definite
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    model = ForwardModel(
        dim_x=2, dim_y=2, center=np.zeros(2), radius_sq=1e6,
        forward=lambda x: a @ x,
        jacobian_apply=lambda x, v: a @ v,
        jacobian_adjoint_apply=lambda x, w: -a.T @ w,
    )
    with pytest.raises(FactorizationFailure, match="eigenvalue"):
        _spectrum(model, [0.0, 0.0])
    with pytest.raises(FactorizationFailure, match="eigenvalue"):
        lm_step(model, [0.0, 0.0], [1.0, 1.0], 0.5)


def test_morozov_scalar_value():
    # J = 2, q = 1/2: phi(alpha) = alpha / (4 + alpha) meets 1/2 at 4
    _, diag = lm_step(linear_model([[2.0]]), [0.0], [1.0], 0.5)
    assert abs(diag.morozov_lhs - 0.5) <= 1e-10
    assert abs(diag.morozov_lhs - diag.alpha / (4.0 + diag.alpha)) <= 1e-15


def test_morozov_large_alpha_limit():
    # phi tends to ||r|| as alpha grows; q near 1 needs a shift above 1e9
    _, diag = lm_step(linear_model([[2.0]]), [0.0], [1.0], 1.0 - 1e-9)
    assert diag.alpha > 1e9
    assert abs(diag.morozov_lhs - 1.0) <= 1e-6


def test_morozov_diagonal_hand_value():
    # hand evaluation at alpha = 1: 1 * ||(1/2, 1/10)|| = sqrt(0.26), which
    # q = sqrt(0.13) asks for; cross-check by a brute-force dense solve
    a = np.diag([1.0, 3.0])
    r = np.ones(2)
    _, diag = lm_step(linear_model(a), [0.0, 0.0], r, math.sqrt(0.13),
                      tol_alpha=1e-12)
    brute = diag.alpha * np.linalg.norm(_dense_z(a, diag.alpha, r))
    assert abs(diag.alpha - 1.0) <= 1e-10
    assert abs(diag.morozov_lhs - math.sqrt(0.26)) <= 1e-11
    assert abs(diag.morozov_lhs - brute) <= 1e-14


def test_morozov_strictly_increasing():
    # phi increases in alpha, so its root for the target q ||r|| increases
    # with q, and the dense phi at each root is q ||r||
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 2))
    r = a @ rng.standard_normal(2) + 0.05 * rng.standard_normal(3)
    rnorm = float(np.linalg.norm(r))
    spec = _spectrum(linear_model(a), np.zeros(2))
    qs = np.sort(rng.uniform(0.1, 0.99, 30))
    alphas = [_select_alpha(spec, r, q, 1e-12, rnorm)[0] for q in qs]
    for q, alpha in zip(qs, alphas):
        dense = alpha * np.linalg.norm(_dense_z(a, alpha, r))
        assert abs(dense - q * rnorm) <= 1e-10 * rnorm
    for lo, hi in zip(alphas, alphas[1:]):
        assert hi > lo


def test_select_alpha_scalar_closed_form():
    model = linear_model([[2.0]])
    alpha = _select_alpha(_spectrum(model, [0.0]), [1.0], 0.5, 1e-10, 1.0)[0]
    assert abs(alpha - 4.0) <= 1e-9


def test_select_alpha_saturates_ceiling():
    # a = 1, q = 0.9: the root q a^2/(1-q) = 9 equals the classical ceiling.
    model = linear_model([[1.0]])
    alpha = _select_alpha(_spectrum(model, [0.0]), [1.0], 0.9, 1e-10, 1.0)[0]
    assert abs(alpha - 9.0) <= 1e-8


def test_select_alpha_diagonal_grid_oracle():
    model = linear_model(np.diag([1.0, 3.0]))
    r = np.array([1.0, 1.0])
    target = 0.5 * np.linalg.norm(r)
    alpha = _select_alpha(_spectrum(model, [0.0, 0.0]), r, 0.5, 1e-12,
                          float(np.linalg.norm(r)))[0]

    # independent oracle: closed-form phi on a dense grid
    grid = np.linspace(alpha * 0.5, alpha * 1.5, 10**6)
    phi = grid * np.sqrt((1.0 / (1.0 + grid)) ** 2 + (1.0 / (9.0 + grid)) ** 2)
    best = grid[np.argmin(np.abs(phi - target))]
    assert abs(alpha - best) <= (grid[1] - grid[0]) * 2


def test_select_alpha_root_infeasible():
    # J maps onto the first coordinate only; a residual orthogonal to that
    # range keeps phi above q*||r|| for every alpha.
    a = np.array([[1.0], [0.0]])
    model = linear_model(a)
    with pytest.raises(RootInfeasible):
        _select_alpha(_spectrum(model, [0.0]), [0.0, 1.0], 0.5, 1e-10, 1.0)


def test_select_alpha_zero_residual():
    model = linear_model([[2.0]])
    with pytest.raises(ZeroResidual):
        _select_alpha(_spectrum(model, [0.0]), [0.0], 0.5, 1e-10, 0.0)


def test_lm_step_scalar_chain():
    model = linear_model([[2.0]])
    x_next, diag = lm_step(model, [0.0], [1.0], 0.5)
    assert abs(x_next[0] - 0.25) <= 1e-11
    assert abs(diag.alpha - 4.0) <= 1e-9
    assert abs(diag.alpha_bound - 4.0) <= 1e-12
    assert abs(diag.mdp_prime_lhs - 0.5) <= 1e-10
    # post-step residual equals q * r for the linear model
    assert abs((1.0 - 2.0 * x_next[0]) - 0.5) <= 1e-10


def test_lm_step_zero_residual():
    # y = 1 = F(0.5), so r = y - F(x) vanishes
    model = linear_model([[2.0]])
    with pytest.raises(ZeroResidual):
        lm_step(model, [0.5], [0.0], 0.5)


@pytest.mark.parametrize("part", ["jacobian_apply", "jacobian_adjoint_apply"])
def test_lm_step_non_finite_output(part):
    with pytest.raises(NonFiniteOutput):
        lm_step(non_finite_model(part), [0.0], [1.0], 0.5)


def test_lm_step_non_finite_residual():
    with pytest.raises(NonFiniteOutput):
        lm_step(linear_model([[2.0]]), [0.0], [np.nan], 0.5)


@pytest.mark.parametrize("part", ["jacobian_apply", "jacobian_adjoint_apply"])
def test_spectral_kernel_non_finite_output(part):
    model = non_finite_model(part)
    with pytest.raises(NonFiniteOutput):
        _spectrum(model, [0.0])


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 2), (2, 3)],
                         ids=["scalar", "square", "tall", "wide"])
def test_gram_matrix_that_overflows_raises(shape):
    # J = 1e200 E is finite and so is its adjoint, but J J* overflows to inf:
    # a typed error that names the product, and no warning from numpy
    model = linear_model(1e200 * np.eye(*shape))
    with pytest.raises(NonConvergence, match="^Gram matrix J J\\* overflows: "):
        _spectrum(model, np.zeros(shape[1]))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("part", ["jacobian_apply", "jacobian_adjoint_apply"])
@pytest.mark.parametrize("shape", [(2, 2), (3, 2), (2, 3)],
                         ids=["square", "tall", "wide"])
def test_non_finite_factor_raises_before_any_product_warns(shape, part, value):
    # F(x) = 2 E x with E the (dim_y, dim_x) identity, except that ``part``
    # returns (value, 1, ..., 1): the zeros of E meet the non-finite entry
    # in J J* or R (J* Q), where inf * 0 would warn
    dim_y, dim_x = shape
    bad = np.ones(dim_y if part == "jacobian_apply" else dim_x)
    bad[0] = value
    model = dataclasses.replace(linear_model(2.0 * np.eye(dim_y, dim_x)),
                                **{part: lambda *args: bad.copy()})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteOutput):
            lm_step(model, np.zeros(dim_x), np.ones(dim_y), 0.5)


def test_lm_step_model_calls():
    # no forward evaluation (the caller passes the residual) and dim_x
    # Jacobian and, on a tall J, dim_x adjoint actions (on a basis of
    # range(J)) for the factors of the Gram matrix, which the update and its
    # linearized residual reuse, whatever the shift selection does
    a = np.random.default_rng(4).standard_normal((5, 2))
    model, counts = counting_model(linear_model(a))
    lm_step(model, [0.1, -0.2], a @ [0.9, 0.7], 0.5)
    assert counts == {"forward": 0, "jacobian": 2, "adjoint": 2}


@pytest.mark.parametrize("shape", [(3, 3), (2, 5)], ids=["square", "wide"])
def test_lm_step_model_calls_square_and_wide(shape):
    # when dim_y <= dim_x, J* is built densely from dim_y adjoint actions
    a = np.random.default_rng(5).standard_normal(shape)
    model, counts = counting_model(linear_model(a))
    x = np.linspace(0.1, 0.5, shape[1])
    lm_step(model, x, a @ (x + 0.3), 0.5)
    assert counts == {"forward": 0, "jacobian": shape[1], "adjoint": shape[0]}


@st.composite
def quadratic_step_problems(draw):
    """``F(x) = A x + eta x_0 (x . x) 1`` with a random square, tall or wide
    A, a random point x and a residual ``J(x) v + noise * e`` for random v
    and e: J depends on x, and some tall draws have a residual the shift
    selection cannot fit."""
    shape = draw(st.sampled_from(["square", "tall", "wide"]), label="shape")
    k = draw(st.integers(1, 6), label="size")
    extra = draw(st.integers(1, 6), label="extra")
    m, n = {"square": (k, k), "tall": (k + extra, k), "wide": (k, k + extra)}[shape]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    a = rng.standard_normal((m, n))
    eta = draw(st.floats(0.0, 1.0), label="eta")
    ones = np.ones(m)

    def jac(x, v):
        return a @ v + eta * (v[0] * (x @ x) + 2.0 * x[0] * (x @ v)) * ones

    def jac_adj(x, w):
        g = eta * w.sum()
        out = a.T @ w + 2.0 * g * x[0] * x
        out[0] += g * (x @ x)
        return out

    model = ForwardModel(
        dim_x=n, dim_y=m, center=np.zeros(n), radius_sq=1e6,
        forward=lambda x: a @ x + eta * x[0] * (x @ x) * ones,
        jacobian_apply=jac, jacobian_adjoint_apply=jac_adj)
    x = rng.standard_normal(n)
    noise = draw(st.floats(0.0, 1.0), label="noise")
    r = jac(x, rng.standard_normal(n)) + noise * rng.standard_normal(m)
    return model, x, r


def _step_outcome(model, x, r, q, **kwargs):
    """``lm_step``'s update and every diagnostic field as bytes and
    ``float.hex``, or the type and message of what it raised."""
    try:
        x_next, diag = lm_step(model, x, r, q, **kwargs)
    except SolverError as exc:
        return type(exc), str(exc)
    return x_next.tobytes(), [float(v).hex() for v in dataclasses.astuple(diag)]


@settings(max_examples=150, deadline=None)
@given(problem=quadratic_step_problems(), q=st.floats(0.05, 0.95),
       tol=st.sampled_from([1e-13, 1e-10, 1e-3]))
def test_given_rnorm_gives_the_same_bits(problem, q, tol):
    # the loop's ||r|| handed in as rnorm changes no bit of the update, of
    # any diagnostic, or of the error a failing step raises
    model, x, r = problem
    assert _step_outcome(model, x, r, q, tol_alpha=tol) == _step_outcome(
        model, x, r, q, tol_alpha=tol, rnorm=finite_norm(r, "residual r"))


def test_given_rnorm_is_not_taken_again(monkeypatch):
    # with rnorm the step takes no norm of r, and the LM drivers pass it
    a = np.random.default_rng(6).standard_normal((3, 2))
    model = linear_model(a)
    x, r = np.array([0.1, -0.2]), a @ [0.9, 0.7]
    want = lm_step(model, x, r, 0.5)

    def no_norm(*args):
        raise AssertionError("finite_norm called")

    monkeypatch.setattr(stepmod, "finite_norm", no_norm)
    with pytest.raises(AssertionError, match="finite_norm called"):
        lm_step(model, x, r, 0.5)
    got = lm_step(model, x, r, 0.5, rnorm=float(np.linalg.norm(r)))
    assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]
    trace = run_exact(model, None, a @ [1.0, 1.0], x, SolverConfig(q=0.5, max_iters=3))
    assert trace.iterations == 3


def _linear_problem(draw, m, n):
    """An m x n matrix A with prescribed singular values in [1/2, 2] and a
    drawn rank, plus orthonormal bases of range(A) and its complement."""
    k = draw(st.integers(1, min(m, n)), label="rank")
    sv = draw(st.lists(st.floats(0.5, 2.0), min_size=k, max_size=k),
              label="singular values")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    u, _ = np.linalg.qr(rng.standard_normal((m, m)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = u[:, :k] @ np.diag(sv) @ v[:, :k].T
    return a, u[:, :k], u[:, k:], rng


@st.composite
def linear_problems(draw):
    """A x, possibly wide and rank-deficient (see :func:`_linear_problem`)."""
    m = draw(st.integers(1, 8), label="dim_y")
    n = draw(st.integers(1, 4), label="dim_x")
    return _linear_problem(draw, m, n)


@st.composite
def tall_linear_problems(draw):
    """A x with dim_x <= dim_y / 3, possibly rank-deficient: the Gram kernel
    decomposes only its projection on range(A)."""
    m = draw(st.integers(3, 40), label="dim_y")
    n = draw(st.integers(1, m // 3), label="dim_x")
    return _linear_problem(draw, m, n)


def _mixed_residual(range_basis, null_basis, rng, null_share):
    """Unit residual whose part orthogonal to range(A) has norm null_share."""
    range_part = range_basis @ rng.standard_normal(range_basis.shape[1])
    null_part = null_basis @ rng.standard_normal(null_basis.shape[1])
    return (np.sqrt(1.0 - null_share**2) * range_part / np.linalg.norm(range_part)
            + null_share * null_part / np.linalg.norm(null_part))


@settings(max_examples=80, deadline=None)
@given(problem=linear_problems(), q=st.floats(0.05, 0.95),
       null_share=st.floats(0.0, 0.9))
def test_linear_step_properties(problem, q, null_share):
    # residual with a null-space part of norm null_share * q * ||r||
    a, range_basis, null_basis, rng = problem
    x = rng.standard_normal(a.shape[1])
    r = range_basis @ rng.standard_normal(range_basis.shape[1])
    if null_basis.shape[1] > 0:
        b = null_basis @ rng.standard_normal(null_basis.shape[1])
        share = null_share * q
        r = (np.sqrt(1.0 - share**2) * r / np.linalg.norm(r)
             + share * b / np.linalg.norm(b))
    y = a @ x + r
    tol = 1e-10
    x_next, diag = lm_step(linear_model(a), x, r, q, tol_alpha=tol)
    rnorm = np.linalg.norm(r)
    assert 0.0 < diag.alpha <= diag.alpha_bound
    assert abs(diag.alpha_bound - q / (1.0 - q) * np.linalg.norm(a, 2) ** 2) \
        <= 1e-12 * diag.alpha_bound
    # Morozov equation, checked by an independent dense solve
    m = a.shape[0]
    z = np.linalg.solve(a @ a.T + diag.alpha * np.eye(m), r)
    assert abs(diag.alpha * np.linalg.norm(z) - q * rnorm) <= 2 * tol * q * rnorm
    # mdp' identity: the linearized residual equals q * ||r||
    assert diag.mdp_prime_rel_err <= 2 * tol * q + 1e-13
    # for a linear map the post-step residual ratio is exactly q
    ratio = np.linalg.norm(y - a @ x_next) / rnorm
    assert abs(ratio - q) <= 2 * tol * q + 1e-13


@settings(max_examples=80, deadline=None)
@given(problem=linear_problems(), q=st.floats(0.05, 0.95),
       null_share=st.floats(0.0, 1.0))
def test_root_infeasible_iff_null_component_dominates(problem, q, null_share):
    # the residual's part orthogonal to range(J) has norm null_share * ||r||;
    # shares within 0.02 of q are left out as too close to the boundary
    a, range_basis, null_basis, rng = problem
    assume(null_basis.shape[1] > 0 and abs(null_share - q) >= 0.02)
    range_part = range_basis @ rng.standard_normal(range_basis.shape[1])
    null_part = null_basis @ rng.standard_normal(null_basis.shape[1])
    r = (np.sqrt(1.0 - null_share**2) * range_part / np.linalg.norm(range_part)
         + null_share * null_part / np.linalg.norm(null_part))
    spec = _spectrum(linear_model(a), np.zeros(a.shape[1]))
    rnorm = float(np.linalg.norm(r))
    if null_share >= q:
        with pytest.raises(RootInfeasible):
            _select_alpha(spec, r, q, 1e-10, rnorm)
    else:
        alpha = _select_alpha(spec, r, q, 1e-10, rnorm)[0]
        phi = alpha * np.linalg.norm(_dense_z(a, alpha, r))
        assert abs(phi - q) <= 1e-9


@settings(max_examples=80, deadline=None)
@given(problem=tall_linear_problems(), q=st.floats(0.05, 0.95),
       null_share=st.floats(0.0, 0.9))
def test_tall_kernel_matches_full_decomposition(problem, q, null_share):
    # the residual's part orthogonal to range(A) has norm null_share * q
    a, range_basis, null_basis, rng = problem
    model = linear_model(a)
    x = rng.standard_normal(a.shape[1])
    r = _mixed_residual(range_basis, null_basis, rng, null_share * q)

    # reference root of the Morozov equation on the full dim_y x dim_y
    # spectrum: phi is increasing, phi(0+) = null_share * q ||r||, and phi
    # reaches q ||r|| at the latest at the ceiling q/(1-q) lam_max
    lam, u = np.linalg.eigh(a @ a.T)
    c = u.T @ r
    target = q * np.linalg.norm(r)
    ceiling = q / (1.0 - q) * lam[-1]
    reference = brentq(
        lambda al: np.linalg.norm(al / (lam + al) * c) - target,
        1e-12 * ceiling, 2.0 * ceiling, xtol=1e-300, rtol=1e-15)
    chosen, z = _select_alpha(_spectrum(model, x), r, q, 1e-13,
                              float(np.linalg.norm(r)))[:2]
    assert abs(chosen - reference) <= 1e-9 * reference
    dense = _dense_z(a, chosen, r)
    assert np.linalg.norm(z - dense) <= 1e-10 * np.linalg.norm(dense)
    # the step's z carries the null-space part of r as well
    _, diag = lm_step(model, x, r, q, tol_alpha=1e-13)
    assert abs(diag.alpha - reference) <= 1e-9 * reference
    assert abs(diag.morozov_lhs - target) <= 1e-9 * target


def _tall_model(adjoint):
    """A 6 x 2 linear model whose adjoint action applies ``adjoint.T``."""
    a = np.random.default_rng(11).standard_normal((6, 2))
    model = ForwardModel(
        dim_x=2, dim_y=6, center=np.zeros(2), radius_sq=1e6,
        forward=lambda x: a @ x,
        jacobian_apply=lambda x, v: a @ v,
        jacobian_adjoint_apply=lambda x, w: adjoint(a).T @ w,
    )
    return model, a


def _perturbed(a):
    b = a.copy()
    b[0, 1] += 0.5
    return b


@pytest.mark.parametrize("adjoint", [_perturbed, lambda a: -a],
                         ids=["asymmetric", "sign-flipped"])
def test_tall_inconsistent_adjoint_rejected(adjoint):
    model, a = _tall_model(adjoint)
    x = np.array([0.3, -0.1])
    y = a @ [1.0, 0.5] + 0.01
    r = y - a @ x
    with pytest.raises(FactorizationFailure):
        _spectrum(model, x)
    with pytest.raises(FactorizationFailure):
        lm_step(model, x, r, 0.5)


def test_tall_scaled_adjoint_accepted():
    # J* = 1.02 J^T keeps the Gram matrix symmetric positive semidefinite, so
    # the step goes through and only the adjoint check can report the defect
    model, a = _tall_model(lambda a: 1.02 * a)
    x = np.array([0.3, -0.1])
    _, diag = lm_step(model, x, a @ [1.0, 0.5] + 0.01 - a @ x, 0.5)
    assert diag.alpha > 0.0


def _morozov_reference(lam, c, q, rnorm):
    """The Morozov root on a full data-space spectrum ``(lam, c = U^T r)``:
    phi is increasing and reaches q ||r|| at the latest at the ceiling
    q/(1-q) lam_max."""
    ceiling = q / (1.0 - q) * lam[-1]
    return brentq(
        lambda al: np.linalg.norm(al / (lam + al) * c) - q * rnorm,
        1e-12 * ceiling, 2.0 * ceiling, xtol=1e-300, rtol=1e-15)


@st.composite
def tall_quadratic_steps(draw):
    """A step on F(x) = A x + eta (B x)^2 with dim_y > dim_x: the model, the
    iterate and the residual towards a point at distance 0.1."""
    m = draw(st.integers(2, 60), label="dim_y")
    n = draw(st.integers(1, min(m - 1, 8)), label="dim_x")
    eta = draw(st.floats(0.0, 0.5), label="eta")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    a = rng.standard_normal((m, n)) / math.sqrt(m)
    b = rng.standard_normal((m, n)) / math.sqrt(m)

    def forward(x):
        bx = b @ x
        return a @ x + eta * bx * bx

    model = ForwardModel(
        dim_x=n, dim_y=m, center=np.zeros(n), radius_sq=math.inf,
        forward=forward,
        jacobian_apply=lambda x, v: a @ v + 2.0 * eta * (b @ x) * (b @ v),
        jacobian_adjoint_apply=lambda x, w: (a.T @ w
                                             + 2.0 * eta * (b.T @ ((b @ x) * w))),
    )
    x = rng.standard_normal(n)
    d = rng.standard_normal(n)
    return model, x, forward(x + 0.1 * d / np.linalg.norm(d)) - forward(x)


@settings(max_examples=60, deadline=None)
@given(step=tall_quadratic_steps(), q=st.floats(0.2, 0.9))
def test_tall_step_matches_dense_reference(step, q):
    # alpha, x_next and the linearized residual against a dense solve on the
    # full dim_y x dim_y Gram matrix J J^T
    model, x, r = step
    j = jacobian_matrix(model, x)
    gram = j @ j.T
    lam, u = np.linalg.eigh(gram)
    rnorm = np.linalg.norm(r)
    alpha = _morozov_reference(lam, u.T @ r, q, rnorm)
    x_ref = x + j.T @ np.linalg.solve(gram + alpha * np.eye(r.shape[0]), r)
    mdp_ref = np.linalg.norm(r - j @ (x_ref - x))

    x_next, diag = lm_step(model, x, r, q, tol_alpha=1e-13)
    assert abs(diag.alpha - alpha) <= 1e-10 * alpha
    assert np.linalg.norm(x_next - x_ref) <= 1e-10 * np.linalg.norm(x_ref - x)
    assert abs(diag.mdp_prime_lhs - mdp_ref) <= 1e-10 * mdp_ref


def _off_range_adjoint(model):
    """``model`` with J* replaced by ``J^T + C (I - Q Q^T)``, Q an orthonormal
    basis of range(J): the same action on range(J), a wrong one elsewhere."""
    rng = np.random.default_rng(23)
    c = rng.standard_normal((model.dim_x, model.dim_y))

    def adjoint(x, w):
        basis = np.linalg.qr(jacobian_matrix(model, x))[0]
        return model.jacobian_adjoint_apply(x, w) + c @ (w - basis @ (basis.T @ w))

    return dataclasses.replace(model, jacobian_adjoint_apply=adjoint)


def test_off_range_adjoint_leaves_tall_step_unchanged(monkeypatch, tmp_path):
    # A tall step applies J* only to a basis of range(J), so an adjoint that
    # is wrong only off range(J) gives the same step up to rounding; the step
    # cannot see the defect, and verify's adjoint-consistency row reports it.
    prob = get_problem("exp-decay")
    broken = _off_range_adjoint(prob.model)
    x = np.array([0.9, 1.1])
    r = prob.y_exact - prob.model.forward(x)
    x_good, diag_good = lm_step(prob.model, x, r, 0.5)
    x_bad, diag_bad = lm_step(broken, x, r, 0.5)
    assert np.linalg.norm(x_bad - x_good) <= 1e-12 * np.linalg.norm(x_good - x)
    assert abs(diag_bad.alpha - diag_good.alpha) <= 1e-12 * diag_good.alpha
    assert max_adjoint_defect(broken, [x], samples=100, seed=11) > 1e-2

    reports = {}
    for name, problem in (("good", prob),
                          ("bad", dataclasses.replace(prob, model=broken))):
        monkeypatch.setattr(gallery, "get_problem", lambda pid, p=problem: p)
        out = tmp_path / f"{name}.report"
        config = tmp_path / f"{name}.yaml"
        config.write_text(f"problem_id: exp-decay\nmode: verify\nq: 0.5\n"
                          f"max_iters: 10\noutput_path: {out}\n")
        reports[name] = (main(["verify", "--config", str(config)]),
                         dict(line.split()[:2] for line in
                              out.read_text().splitlines()))
    assert reports["good"][0] == 0 and reports["bad"][0] == 5
    assert reports["bad"][1].pop("adjoint-consistency") == "FAIL"
    assert reports["good"][1].pop("adjoint-consistency") == "PASS"
    assert reports["bad"][1] == reports["good"][1]


def test_lm_step_identity_on_exp_decay():
    prob = get_problem("exp-decay")
    x = np.array([0.9, 1.1])
    y = prob.model.forward(prob.x_dagger)
    _, diag = lm_step(prob.model, x, y - prob.model.forward(x), 0.5,
                      tol_alpha=1e-10)
    # Morozov parameter makes the linearized post-step residual exactly q*||r||
    assert abs(diag.mdp_prime_lhs / diag.residual_norm - 0.5) <= 1e-8


def test_lm_step_alpha_bound_dense_oracle():
    prob = get_problem("exp-decay")
    x = prob.default_x0.copy()
    y = prob.y_exact
    for _ in range(5):
        x_next, diag = lm_step(prob.model, x, y - prob.model.forward(x), 0.5)
        dense = float(np.linalg.norm(jacobian_matrix(prob.model, x), 2))
        assert diag.alpha <= 0.5 / 0.5 * dense**2 * (1.0 + 1e-8)
        x = x_next


def test_underflowing_newton_step_is_non_convergence():
    # at q = 5e-324, q ||r|| times the Newton slope underflows to 0: the
    # shift search reports that it cannot go on instead of dividing by 0
    with pytest.raises(NonConvergence, match="underflows"):
        lm_step(linear_model([[2.0]]), np.zeros(1), np.ones(1), 5e-324)
