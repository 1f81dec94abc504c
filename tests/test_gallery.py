import math

import numpy as np
import pytest

from conftest import GALLERY_IDS, linear_model, non_finite_model
from lmrecon.errors import CertificationFailed, DegenerateModel, NonFiniteOutput
from lmrecon.gallery import (
    INFLATION,
    estimate_stability_constants,
    exp_decay,
    get_problem,
    quadratic_perturbation,
    sabotaged_adjoint_fixture,
    scalar_linear,
    verify_certificate,
)
from lmrecon.operators import (
    ForwardModel,
    apply_forward,
    finite_difference_jacobian,
    jacobian_matrix,
)
from lmrecon.recon import CompactBox


class TestEstimator:
    def test_scalar_closed_forms(self):
        prob = scalar_linear(2.0, 0.5)
        cert = estimate_stability_constants(prob.model, prob.default_box,
                                            eps=1.0, samples=10000, seed=1)
        assert abs(cert.holder_const - 1.05 / (2.0 * math.sqrt(2.0))) <= 1e-12
        assert abs(cert.jac_bound - 2.1) <= 1e-12
        assert abs(cert.forward_lip - 2.1) <= 1e-12
        assert cert.provenance == "oracle-estimated"

    def test_linear_model_lipschitz_estimate_is_floor(self):
        model = linear_model(np.array([[1.0, 0.3], [0.0, 2.0]]))
        box = CompactBox(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        cert = estimate_stability_constants(model, box, eps=1.0,
                                            samples=10000, seed=2)
        assert cert.lip_deriv < 1e-12

    def test_requires_enough_samples(self):
        prob = scalar_linear(2.0, 0.5)
        with pytest.raises(ValueError):
            estimate_stability_constants(prob.model, prob.default_box,
                                         eps=1.0, samples=100)

    def test_degenerate_model(self):
        model = ForwardModel(
            dim_x=1, dim_y=1, center=np.zeros(1), radius_sq=1e6,
            forward=lambda x: np.array([1.0]),
            jacobian_apply=lambda x, v: np.zeros(1),
            jacobian_adjoint_apply=lambda x, w: np.zeros(1),
        )
        box = CompactBox(np.array([0.0]), np.array([1.0]))
        with pytest.raises(DegenerateModel):
            estimate_stability_constants(model, box, eps=1.0, samples=10000)

    @pytest.mark.parametrize("part, value", [
        ("jacobian_apply", np.nan),
        ("jacobian_apply", np.inf),
        ("forward", np.nan),
        ("forward", np.inf),
    ])
    def test_non_finite_output(self, part, value):
        # Neither a numpy LinAlgError from the spectral norm nor a
        # certificate built from NaN sample maxima may come out.
        model = non_finite_model(part, value)
        box = CompactBox(np.array([-1.0]), np.array([1.0]))
        with pytest.raises(NonFiniteOutput):
            estimate_stability_constants(model, box, eps=1.0, samples=10000)
        cert = scalar_linear(2.0, 0.0).certificate
        with pytest.raises(NonFiniteOutput):
            verify_certificate(model, box, cert, samples=10000)


class TestClosedFormBounds:
    """Raw oracle maxima against closed forms for F(x) = x + eta * x**2.

    Re-verification shares the pair kernel with estimation, so it cannot
    catch a fault in that kernel; these bounds come from the model alone.  On
    [-1/2, 1/2]^n: J(x) = I + 2 eta diag(x), so ||J(x)|| <= 1 + eta and
    Lip(J) = 2 eta, and F(a) - F(b) = (I + eta diag(a + b)) (a - b) gives
    (1 - eta) ||a - b|| <= ||F(a) - F(b)|| <= (1 + eta) ||a - b||.
    """

    @pytest.mark.parametrize("pid, eta", [("quadratic-2d", 0.25),
                                          ("quadratic-3d", 0.2)])
    def test_raw_maxima_within_closed_forms(self, pid, eta, gallery_problems):
        cert = gallery_problems[pid].certificate
        bounds = {
            "jac_bound": 1.0 + eta,
            "lip_deriv": 2.0 * eta,
            "forward_lip": 1.0 + eta,
            "holder_const": 1.0 / (math.sqrt(2.0) * (1.0 - eta)),
            "recon_const": 1.0 / (2.0 * (1.0 - eta)),
        }
        raw = {name: getattr(cert, name) / INFLATION for name in bounds}
        for name, bound in bounds.items():
            assert raw[name] <= bound * (1.0 + 1e-12), name
        # The coarse grid holds the box corners and axis-aligned pairs, where
        # the first two bounds are attained.
        assert raw["jac_bound"] >= bounds["jac_bound"] * (1.0 - 1e-12)
        assert raw["lip_deriv"] >= bounds["lip_deriv"] * (1.0 - 1e-12)


class TestScalarLinear:
    def test_holder_estimate_with_equality(self):
        prob = scalar_linear(2.0, 0.5)
        c_f = prob.certificate.holder_const
        # (1/sqrt 2)|d| <= C_F * |2d| holds with equality for C_F = 1/(2 sqrt 2)
        assert abs(c_f - 1.0 / (2.0 * math.sqrt(2.0))) <= 1e-15
        d = 0.37
        assert d / math.sqrt(2.0) <= c_f * (2.0 * d) * (1.0 + 1e-12)

    def test_rejects_zero_slope(self):
        with pytest.raises(ValueError):
            scalar_linear(0.0, 0.5)


class TestExpDecay:
    def test_zero_decay_rate_is_constant(self):
        prob = exp_decay((0.0, 1.0, 2.0), (1.0, 1.0))
        out = apply_forward(prob.model, [1.0, 0.0], check=False)
        assert np.allclose(out, 1.0, rtol=0, atol=0)

    def test_closed_form_value(self):
        prob = exp_decay((0.0, 1.0), (1.0, 1.0))
        assert np.allclose(prob.y_exact, [1.0, math.exp(-1.0)])

    def test_jacobian_row_matches_finite_differences(self):
        prob = exp_decay((0.0, 1.0), (1.0, 1.0))
        x = np.array([1.0, 1.0])
        jac = jacobian_matrix(prob.model, x)
        assert np.allclose(jac[1], [math.exp(-1.0), -math.exp(-1.0)],
                           rtol=0, atol=1e-15)
        fd = finite_difference_jacobian(prob.model, x, 1e-5, check=False)
        assert np.max(np.abs(fd - jac)) <= 1e-6

    def test_needs_two_distinct_times(self):
        with pytest.raises(ValueError):
            exp_decay((1.0, 1.0), (1.0, 1.0))
        with pytest.raises(ValueError):
            exp_decay((1.0,), (1.0, 1.0))


class TestQuadraticPerturbation:
    def test_eta_zero_reduces_to_linear(self):
        prob = quadratic_perturbation(np.diag([1.0, 2.0]), 0.0)
        # smallest singular value 1 -> raw C_F = 1/sqrt(2), inflated by 1.05
        assert abs(prob.certificate.holder_const
                   - 1.05 / math.sqrt(2.0)) <= 5e-3
        assert prob.certificate.lip_deriv < 1e-12

    def test_lipschitz_witness_value(self):
        prob = quadratic_perturbation(np.eye(2), 0.1)
        # sup ||J(x) - J(y)|| / ||x - y|| = 2 eta = 0.2, then 5% inflation
        assert abs(prob.certificate.lip_deriv - 0.21) <= 0.01
        rng = np.random.default_rng(4)
        box = prob.default_box
        for _ in range(300):
            a = box.lower + rng.random(2) * (box.upper - box.lower)
            b = box.lower + rng.random(2) * (box.upper - box.lower)
            lhs = np.linalg.norm(jacobian_matrix(prob.model, a)
                                 - jacobian_matrix(prob.model, b), 2)
            assert lhs <= prob.certificate.lip_deriv * np.linalg.norm(a - b) \
                * (1.0 + 1e-12)

    def test_zero_maps_to_zero(self):
        prob = quadratic_perturbation(np.eye(2), 0.25)
        assert np.array_equal(
            apply_forward(prob.model, [0.0, 0.0], check=False), [0.0, 0.0]
        )

    def test_large_eta_fails_certification(self):
        with pytest.raises(CertificationFailed):
            quadratic_perturbation(np.eye(2), 5.0)

    def test_rejects_singular_matrix(self):
        with pytest.raises(ValueError):
            quadratic_perturbation(np.array([[1.0, 0.0], [0.0, 0.0]]), 0.1)


@pytest.mark.parametrize("pid", GALLERY_IDS)
def test_exact_data_reproduced(pid, gallery_problems):
    prob = gallery_problems[pid]
    out = apply_forward(prob.model, prob.x_dagger, check=False)
    assert np.max(np.abs(out - prob.y_exact)) <= 1e-14


@pytest.mark.parametrize("pid", GALLERY_IDS)
def test_default_points_inside_ball(pid, gallery_problems):
    prob = gallery_problems[pid]
    from lmrecon.operators import check_domain

    assert check_domain(prob.model, prob.x_dagger)
    assert check_domain(prob.model, prob.default_x0)
    assert prob.default_box.contains(prob.x_dagger)


def test_sabotaged_fixture_fails_adjoint():
    from lmrecon.operators import max_adjoint_defect

    prob = sabotaged_adjoint_fixture()
    defect = max_adjoint_defect(prob.model, [prob.default_x0], samples=20,
                                seed=1)
    assert defect > 1e-3


def test_registry_unknown_id():
    with pytest.raises(KeyError):
        get_problem("no-such-problem")


def test_reverification_catches_understated_certificate():
    import dataclasses

    prob = get_problem("quadratic-2d")
    bad = dataclasses.replace(prob.certificate,
                              jac_bound=prob.certificate.jac_bound / 2.0)
    report = verify_certificate(prob.model, prob.default_box, bad,
                                samples=10000, seed=12)
    assert not report.ok
    assert report.violations["jac_bound"] > 0
