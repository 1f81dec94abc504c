import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from conftest import linear_model, non_finite_model
from lmrecon.cli import counting_model
from lmrecon.errors import (
    FactorizationFailure,
    NonFiniteOutput,
    RootInfeasible,
    ZeroResidual,
)
from lmrecon.gallery import get_problem
from lmrecon.operators import ForwardModel, jacobian_matrix
from lmrecon.step import _select_alpha, _spectrum, commutation_residual, lm_step


def test_solve_shifted_scalar():
    model = linear_model([[2.0]])
    z = _spectrum(model, [0.0]).solve(4.0, [1.0])
    assert abs(z[0] - 0.125) <= 1e-15


def test_solve_shifted_dominant_alpha_limit():
    model = linear_model([[2.0, 1.0], [0.5, 3.0]])
    r = np.array([1.0, -2.0])
    alpha = 1e12
    z = _spectrum(model, [0.0, 0.0]).solve(alpha, r)
    assert np.linalg.norm(z - r / alpha) <= 1e-6 * np.linalg.norm(r / alpha)


def test_solve_shifted_diagonal():
    model = linear_model(np.diag([1.0, 3.0]))
    z = _spectrum(model, [0.0, 0.0]).solve(1.0, [1.0, 1.0])
    assert np.allclose(z, [0.5, 0.1], rtol=0, atol=1e-14)


def test_solve_shifted_residual_tolerance():
    # Backward residual at the contract level; the shift must not vanish
    # against ||J J^T|| or the kernel component of z amplifies rounding noise
    # beyond what any double-precision solve can repair.
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 3))
    model = linear_model(a)
    r = rng.standard_normal(4)
    for alpha in (1e-2, 1.0, 1e4):
        z = _spectrum(model, np.zeros(3)).solve(alpha, r)
        defect = np.linalg.norm((a @ a.T + alpha * np.eye(4)) @ z - r)
        assert defect <= 1e-12 * np.linalg.norm(r)


def test_solve_shifted_rejects_nonpositive_alpha():
    model = linear_model([[2.0]])
    with pytest.raises(FactorizationFailure):
        _spectrum(model, [0.0]).solve(0.0, [1.0])
    with pytest.raises(FactorizationFailure):
        _spectrum(model, [0.0]).solve(-1.0, [1.0])


def test_broken_adjoint_gives_asymmetric_gram():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    wrong = np.array([[1.0, 3.0], [2.5, 4.0]])
    model = ForwardModel(
        dim_x=2, dim_y=2, center=np.zeros(2), radius_sq=1e6,
        forward=lambda x: a @ x,
        jacobian_apply=lambda x, v: a @ v,
        jacobian_adjoint_apply=lambda x, w: wrong.T @ w,
    )
    with pytest.raises(FactorizationFailure):
        _spectrum(model, [0.0, 0.0]).solve(1.0, [1.0, 1.0])


def test_sign_flipped_adjoint_gives_indefinite_gram():
    # J* = -J^T keeps the Gram matrix symmetric but makes it negative definite
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    model = ForwardModel(
        dim_x=2, dim_y=2, center=np.zeros(2), radius_sq=1e6,
        forward=lambda x: a @ x,
        jacobian_apply=lambda x, v: a @ v,
        jacobian_adjoint_apply=lambda x, w: -a.T @ w,
    )
    with pytest.raises(FactorizationFailure):
        _spectrum(model, [0.0, 0.0]).solve(1.0, [1.0, 1.0])
    with pytest.raises(FactorizationFailure):
        lm_step(model, [0.0, 0.0], [1.0, 1.0], 0.5)


def test_morozov_scalar_value():
    model = linear_model([[2.0]])
    assert abs(_spectrum(model, [0.0]).phi(4.0, [1.0]) - 0.5) <= 1e-14


def test_morozov_large_alpha_limit():
    model = linear_model([[2.0]])
    assert abs(_spectrum(model, [0.0]).phi(1e12, [1.0]) - 1.0) <= 1e-6


def test_morozov_diagonal_hand_value():
    model = linear_model(np.diag([1.0, 3.0]))
    value = _spectrum(model, [0.0, 0.0]).phi(1.0, [1.0, 1.0])
    # hand evaluation: 1 * ||(1/2, 1/10)|| = sqrt(0.26); cross-check by a
    # brute-force dense solve
    hand = math.sqrt(0.26)
    a = np.diag([1.0, 3.0])
    brute = np.linalg.solve(a @ a.T + np.eye(2), np.ones(2))
    assert abs(value - hand) <= 1e-14
    assert abs(value - np.linalg.norm(brute)) <= 1e-14


def test_morozov_strictly_increasing():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 2))
    model = linear_model(a)
    r = rng.standard_normal(3)
    x = np.zeros(2)
    alphas = np.sort(rng.uniform(1e-4, 1e4, 30))
    spec = _spectrum(model, x)
    values = [spec.phi(al, r) for al in alphas]
    for lo, hi in zip(values, values[1:]):
        assert hi > lo - 1e-13


def test_select_alpha_scalar_closed_form():
    model = linear_model([[2.0]])
    alpha = _select_alpha(_spectrum(model, [0.0]), [1.0], 0.5, 1e-10)[0]
    assert abs(alpha - 4.0) <= 1e-9


def test_select_alpha_saturates_ceiling():
    # a = 1, q = 0.9: the root q a^2/(1-q) = 9 equals the classical ceiling.
    model = linear_model([[1.0]])
    alpha = _select_alpha(_spectrum(model, [0.0]), [1.0], 0.9, 1e-10)[0]
    assert abs(alpha - 9.0) <= 1e-8


def test_select_alpha_diagonal_grid_oracle():
    model = linear_model(np.diag([1.0, 3.0]))
    r = np.array([1.0, 1.0])
    target = 0.5 * np.linalg.norm(r)
    alpha = _select_alpha(_spectrum(model, [0.0, 0.0]), r, 0.5, 1e-12)[0]

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
        _select_alpha(_spectrum(model, [0.0]), [0.0, 1.0], 0.5, 1e-10)


def test_select_alpha_zero_residual():
    model = linear_model([[2.0]])
    with pytest.raises(ZeroResidual):
        _select_alpha(_spectrum(model, [0.0]), [0.0], 0.5, 1e-10)


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
        _select_alpha(_spectrum(model, [0.0]), [1.0], 0.5, 1e-10)
    with pytest.raises(NonFiniteOutput):
        _spectrum(model, [0.0]).solve(1.0, [1.0])


def test_lm_step_model_calls():
    # no forward evaluation (the caller passes the residual) and dim_x
    # Jacobian and dim_y adjoint actions for the dense factors of the Gram
    # matrix, which the update and its linearized residual reuse, whatever
    # the shift selection does
    a = np.random.default_rng(4).standard_normal((5, 2))
    model, counts = counting_model(linear_model(a))
    lm_step(model, [0.1, -0.2], a @ [0.9, 0.7], 0.5)
    assert counts == {"forward": 0, "jacobian": 2, "adjoint": 5}


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
    if null_share >= q:
        with pytest.raises(RootInfeasible):
            _select_alpha(spec, r, q, 1e-10)
    else:
        alpha = _select_alpha(spec, r, q, 1e-10)[0]
        assert abs(spec.phi(alpha, r) - q) <= 1e-9


@settings(max_examples=80, deadline=None)
@given(problem=tall_linear_problems(), q=st.floats(0.05, 0.95),
       null_share=st.floats(0.0, 0.9), log_alpha=st.floats(-3.0, 3.0))
def test_tall_kernel_matches_full_decomposition(problem, q, null_share,
                                                log_alpha):
    # the residual's part orthogonal to range(A) has norm null_share * q
    a, range_basis, null_basis, rng = problem
    m = a.shape[0]
    model = linear_model(a)
    x = rng.standard_normal(a.shape[1])
    r = _mixed_residual(range_basis, null_basis, rng, null_share * q)

    alpha = 10.0**log_alpha
    z = _spectrum(model, x).solve(alpha, r)
    dense = np.linalg.solve(a @ a.T + alpha * np.eye(m), r)
    assert np.linalg.norm(z - dense) <= 1e-10 * np.linalg.norm(dense)

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
    chosen = _select_alpha(_spectrum(model, x), r, q, 1e-13)[0]
    assert abs(chosen - reference) <= 1e-9 * reference
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
        _spectrum(model, x).solve(1.0, r)
    with pytest.raises(FactorizationFailure):
        _select_alpha(_spectrum(model, x), r, 0.5, 1e-10)
    with pytest.raises(FactorizationFailure):
        lm_step(model, x, r, 0.5)


def test_tall_scaled_adjoint_accepted():
    # J* = 1.02 J^T keeps the Gram matrix symmetric positive semidefinite, so
    # the step goes through and only the adjoint check can report the defect
    model, a = _tall_model(lambda a: 1.02 * a)
    x = np.array([0.3, -0.1])
    _, diag = lm_step(model, x, a @ [1.0, 0.5] + 0.01 - a @ x, 0.5)
    assert diag.alpha > 0.0


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


def test_commutation_identity_gallery():
    rng = np.random.default_rng(9)
    for pid in ("exp-decay", "quadratic-2d"):
        prob = get_problem(pid)
        x = prob.default_x0
        for _ in range(20):
            v = rng.standard_normal(prob.model.dim_x)
            for alpha in (1e-3, 1.0, 1e3):
                assert commutation_residual(prob.model, x, alpha, v) <= 1e-10
