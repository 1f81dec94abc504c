import math

import numpy as np
import pytest

from conftest import GALLERY_IDS, linear_model, sample_ball
from lmrecon.errors import DimensionMismatch, DomainViolation
from lmrecon.operators import (
    ForwardModel,
    StabilityCertificate,
    adjoint_defect,
    apply_forward,
    check_domain,
    estimate_jacobian_norm,
    finite_difference_jacobian,
    jacobian_matrix,
    recenter,
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


def test_apply_forward_outside_ball_raises():
    model = linear_model([[2.0]], radius_sq=0.5)
    with pytest.raises(DomainViolation):
        apply_forward(model, [10.0])
    # explicit opt-out skips the check
    assert apply_forward(model, [10.0], check=False)[0] == 20.0


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
    moved = recenter(model, [3.0])
    assert check_domain(moved, [3.0])
    assert not check_domain(moved, [0.0])
    assert moved.radius_sq == model.radius_sq


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


def test_finite_difference_linear_exact():
    model = linear_model([[2.0]])
    fd = finite_difference_jacobian(model, [0.0], 1e-5)
    assert abs(fd[0, 0] - 2.0) <= 1e-9


def test_finite_difference_square_map():
    model = ForwardModel(
        dim_x=1, dim_y=1, center=np.zeros(1), radius_sq=1e6,
        forward=lambda x: x * x,
        jacobian_apply=lambda x, v: 2.0 * x * v,
        jacobian_adjoint_apply=lambda x, w: 2.0 * x * w,
    )
    fd = finite_difference_jacobian(model, [3.0], 1e-5)
    assert abs(fd[0, 0] - 6.0) <= 1e-6


def test_finite_difference_matches_analytic_quadratic(gallery_problems):
    prob = gallery_problems["quadratic-2d"]
    rng = np.random.default_rng(5)
    x = sample_ball(prob.model.center, prob.model.radius_sq, rng)
    jac = jacobian_matrix(prob.model, x)
    fd = finite_difference_jacobian(prob.model, x, 1e-5, check=False)
    assert np.linalg.norm(fd - jac) <= 1e-6 * (1.0 + np.linalg.norm(jac))


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
        assert adjoint_defect(model, x, v, w) <= 1e-10 * scale


@pytest.mark.parametrize("pid", GALLERY_IDS)
def test_finite_difference_jacobian_sampled(pid, gallery_problems):
    prob = gallery_problems[pid]
    model = prob.model
    rng = np.random.default_rng(43)
    for _ in range(10):
        x = sample_ball(model.center, 0.8 * model.radius_sq, rng)
        jac = jacobian_matrix(model, x)
        fd = finite_difference_jacobian(model, x, 1e-5, check=False)
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
        fd = np.linalg.norm(apply_forward(model, x, check=False)
                            - apply_forward(model, y, check=False))
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
