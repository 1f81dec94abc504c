import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
from lmrecon.step import (
    commutation_residual,
    gram_matrix,
    lm_step,
    morozov_value,
    select_alpha,
    solve_shifted_system,
)


def test_solve_shifted_scalar():
    model = linear_model([[2.0]])
    z = solve_shifted_system(model, [0.0], 4.0, [1.0])
    assert abs(z[0] - 0.125) <= 1e-15


def test_solve_shifted_dominant_alpha_limit():
    model = linear_model([[2.0, 1.0], [0.5, 3.0]])
    r = np.array([1.0, -2.0])
    alpha = 1e12
    z = solve_shifted_system(model, [0.0, 0.0], alpha, r)
    assert np.linalg.norm(z - r / alpha) <= 1e-6 * np.linalg.norm(r / alpha)


def test_solve_shifted_diagonal():
    model = linear_model(np.diag([1.0, 3.0]))
    z = solve_shifted_system(model, [0.0, 0.0], 1.0, [1.0, 1.0])
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
        z = solve_shifted_system(model, np.zeros(3), alpha, r)
        defect = np.linalg.norm((a @ a.T + alpha * np.eye(4)) @ z - r)
        assert defect <= 1e-12 * np.linalg.norm(r)


def test_solve_shifted_rejects_nonpositive_alpha():
    model = linear_model([[2.0]])
    with pytest.raises(FactorizationFailure):
        solve_shifted_system(model, [0.0], 0.0, [1.0])
    with pytest.raises(FactorizationFailure):
        solve_shifted_system(model, [0.0], -1.0, [1.0])


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
        solve_shifted_system(model, [0.0, 0.0], 1.0, [1.0, 1.0])


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
        solve_shifted_system(model, [0.0, 0.0], 1.0, [1.0, 1.0])
    with pytest.raises(FactorizationFailure):
        lm_step(model, [0.0, 0.0], [1.0, 1.0], 0.5)


def test_morozov_scalar_value():
    model = linear_model([[2.0]])
    assert abs(morozov_value(model, [0.0], 4.0, [1.0]) - 0.5) <= 1e-14


def test_morozov_large_alpha_limit():
    model = linear_model([[2.0]])
    assert abs(morozov_value(model, [0.0], 1e12, [1.0]) - 1.0) <= 1e-6


def test_morozov_diagonal_hand_value():
    model = linear_model(np.diag([1.0, 3.0]))
    value = morozov_value(model, [0.0, 0.0], 1.0, [1.0, 1.0])
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
    gram = gram_matrix(model, x)
    alphas = np.sort(rng.uniform(1e-4, 1e4, 30))
    values = [morozov_value(model, x, al, r, gram=gram) for al in alphas]
    for lo, hi in zip(values, values[1:]):
        assert hi > lo - 1e-13


def test_select_alpha_scalar_closed_form():
    model = linear_model([[2.0]])
    alpha = select_alpha(model, [0.0], [1.0], 0.5)
    assert abs(alpha - 4.0) <= 1e-9


def test_select_alpha_saturates_ceiling():
    # a = 1, q = 0.9: the root q a^2/(1-q) = 9 equals the classical ceiling.
    model = linear_model([[1.0]])
    alpha = select_alpha(model, [0.0], [1.0], 0.9)
    assert abs(alpha - 9.0) <= 1e-8


def test_select_alpha_diagonal_grid_oracle():
    model = linear_model(np.diag([1.0, 3.0]))
    r = np.array([1.0, 1.0])
    target = 0.5 * np.linalg.norm(r)
    alpha = select_alpha(model, [0.0, 0.0], r, 0.5, tol_alpha=1e-12)

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
        select_alpha(model, [0.0], [0.0, 1.0], 0.5)


def test_select_alpha_zero_residual():
    model = linear_model([[2.0]])
    with pytest.raises(ZeroResidual):
        select_alpha(model, [0.0], [0.0], 0.5)


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
    model = linear_model([[2.0]])
    with pytest.raises(ZeroResidual):
        lm_step(model, [0.5], [1.0], 0.5)


@pytest.mark.parametrize("part", ["forward", "jacobian_apply",
                                  "jacobian_adjoint_apply"])
def test_lm_step_non_finite_output(part):
    with pytest.raises(NonFiniteOutput):
        lm_step(non_finite_model(part), [0.0], [1.0], 0.5)


@pytest.mark.parametrize("part", ["jacobian_apply", "jacobian_adjoint_apply"])
def test_spectral_kernel_non_finite_output(part):
    model = non_finite_model(part)
    with pytest.raises(NonFiniteOutput):
        select_alpha(model, [0.0], [1.0], 0.5)
    with pytest.raises(NonFiniteOutput):
        solve_shifted_system(model, [0.0], 1.0, [1.0])


def test_lm_step_model_calls():
    # one forward evaluation for the residual; dim_y adjoint and dim_y
    # Jacobian actions for the Gram matrix, plus one of each for the update
    # and its linearized residual, whatever the shift selection does
    a = np.random.default_rng(4).standard_normal((5, 2))
    model, counts = counting_model(linear_model(a))
    lm_step(model, [0.1, -0.2], a @ [1.0, 0.5], 0.5)
    assert counts == {"forward": 1, "jacobian": 6, "adjoint": 6}


@st.composite
def linear_problems(draw):
    """A x with prescribed singular values in [1/2, 2], possibly wide and
    rank-deficient, plus orthonormal bases of range(A) and its complement."""
    m = draw(st.integers(1, 8), label="dim_y")
    n = draw(st.integers(1, 4), label="dim_x")
    k = draw(st.integers(1, min(m, n)), label="rank")
    sv = draw(st.lists(st.floats(0.5, 2.0), min_size=k, max_size=k),
              label="singular values")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    u, _ = np.linalg.qr(rng.standard_normal((m, m)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = u[:, :k] @ np.diag(sv) @ v[:, :k].T
    return a, u[:, :k], u[:, k:], rng


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
    x_next, diag = lm_step(linear_model(a), x, y, q, tol_alpha=tol)
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
    model = linear_model(a)
    x = np.zeros(a.shape[1])
    if null_share >= q:
        with pytest.raises(RootInfeasible):
            select_alpha(model, x, r, q)
    else:
        alpha = select_alpha(model, x, r, q)
        assert abs(morozov_value(model, x, alpha, r) - q) <= 1e-9


def test_lm_step_identity_on_exp_decay():
    prob = get_problem("exp-decay")
    x = np.array([0.9, 1.1])
    y = prob.model.forward(prob.x_dagger)
    _, diag = lm_step(prob.model, x, y, 0.5, tol_alpha=1e-10)
    # Morozov parameter makes the linearized post-step residual exactly q*||r||
    assert abs(diag.mdp_prime_lhs / diag.residual_norm - 0.5) <= 1e-8


def test_lm_step_alpha_bound_dense_oracle():
    prob = get_problem("exp-decay")
    x = prob.default_x0.copy()
    y = prob.y_exact
    for _ in range(5):
        x_next, diag = lm_step(prob.model, x, y, 0.5)
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
