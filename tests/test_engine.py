import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import linear_model, non_finite_model
from lmrecon.cli import counting_model
from lmrecon.engine import (
    SolverConfig,
    compute_constants_exact,
    compute_constants_noisy,
    iterations_for_accuracy,
    kstar_log_estimate,
    kstar_upper_bound,
    landweber_run,
    nu_additional_bound,
    qtilde,
    rate_bound,
    run_exact,
    run_noisy,
    tangential_cone_eta,
)
from lmrecon.errors import (
    ConditionViolated,
    ConfigInvalid,
    DivergenceDetected,
    NonFiniteOutput,
)
from lmrecon.gallery import get_problem
from lmrecon.operators import ForwardModel, StabilityCertificate, check_domain


def unit_cert(eps=1.0, rho_prime=10.0, lip=1.0, jac=1.0, holder=1.0):
    return StabilityCertificate(
        lip_deriv=lip, jac_bound=jac, holder_const=holder, holder_eps=eps,
        domain_rho_prime=rho_prime, forward_lip=1.0, recon_const=1.0,
    )


class TestConstantsExact:
    def test_unit_example(self):
        tc = compute_constants_exact(unit_cert(), 0.5)
        assert abs(tc.rho - 0.03125) <= 1e-15
        assert abs(tc.c - 0.125) <= 1e-15
        assert tc.q_condition_ok and tc.rho_lt_rho_prime

    def test_vanishing_q_limit(self):
        tc = compute_constants_exact(unit_cert(), 1e-6)
        assert tc.rho <= 1e-12 * 0.5 * 0.25 + 1e-20
        assert tc.c <= 1e-6

    def test_eps_half_exponent(self):
        tc = compute_constants_exact(unit_cert(eps=0.5), 0.5)
        assert abs(tc.rho - 0.001953125) <= 1e-15

    def test_condition_violated_on_small_ball(self):
        with pytest.raises(ConditionViolated):
            compute_constants_exact(unit_cert(rho_prime=0.01), 0.5)
        tc = compute_constants_exact(unit_cert(rho_prime=0.01), 0.5,
                                     strict=False)
        assert not tc.rho_lt_rho_prime


class TestConstantsNoisy:
    def test_r_value(self):
        tc = compute_constants_noisy(unit_cert(), 0.5, 4.0)
        assert abs(tc.R - 0.1875) <= 1e-15

    def test_r_boundary_raises(self):
        with pytest.raises(ConditionViolated):
            compute_constants_noisy(unit_cert(), 0.5, 3.0)

    def test_rho_value(self):
        tc = compute_constants_noisy(unit_cert(), 0.5, 4.0)
        assert abs(tc.rho - 0.0078125) <= 1e-15

    def test_c_prime_coefficient(self):
        tc = compute_constants_noisy(unit_cert(), 0.5, 4.0)
        assert abs(tc.c_prime_coeff - 0.25 * 16 * 0.1875) <= 1e-13


class TestRateBound:
    def test_k0_is_rho_lipschitz_case(self):
        tc = compute_constants_exact(unit_cert(), 0.5)
        assert rate_bound(0, tc, 1.0) == tc.rho

    def test_k0_is_rho_holder_case(self):
        tc = compute_constants_exact(unit_cert(eps=0.5), 0.5)
        assert abs(rate_bound(0, tc, 0.5) - tc.rho) <= 1e-15 * tc.rho

    def test_k10_repeated_multiplication_oracle(self):
        tc = compute_constants_exact(unit_cert(), 0.5)
        expected = tc.rho
        for _ in range(10):
            expected *= 1.0 - tc.c
        assert abs(rate_bound(10, tc, 1.0) - expected) <= 1e-15
        # frozen from the oracle: 0.03125 * 0.875^10
        assert abs(expected - 0.008221111755119637) <= 1e-15


class TestIterationsForAccuracy:
    def test_target_at_rho(self):
        tc = compute_constants_exact(unit_cert(), 0.5)
        assert iterations_for_accuracy(tc.rho, tc, 1.0) == 0

    def test_lipschitz_case_example(self):
        tc = compute_constants_exact(unit_cert(), 0.5)
        m = iterations_for_accuracy(0.008, tc, 1.0)
        assert m == 11
        assert rate_bound(11, tc, 1.0) <= 0.008 < rate_bound(10, tc, 1.0)

    def test_holder_case_matches_scan(self):
        tc = compute_constants_exact(unit_cert(eps=0.5), 0.5)
        target = 1e-7
        m = iterations_for_accuracy(target, tc, 0.5)
        scan = 0
        while rate_bound(scan, tc, 0.5) > target:
            scan += 1
        assert m == scan


class TestKstarBound:
    def test_direct_arithmetic(self):
        from lmrecon.engine import TheoryConstantsNoisy

        cert = unit_cert()
        tc = TheoryConstantsNoisy(rho=0.03125, R=0.1875, kstar_bound=None,
                                  c_prime_coeff=0.75, rho_lt_rho_prime=True)
        bound = kstar_upper_bound(tc, cert, 0.5, 4.0, 0.01)
        # 0.03125 / (0.25 * 0.1875 * 0.0016) = 416.66..
        assert bound == 416

    def test_formula_uses_noisy_rho(self):
        cert = unit_cert()
        tc = compute_constants_noisy(cert, 0.5, 4.0)
        bound = kstar_upper_bound(tc, cert, 0.5, 4.0, 0.01)
        assert bound == math.floor(0.0078125 / (0.25 * 0.1875 * 0.0016))

    def test_delta_scaling(self):
        cert = unit_cert()
        tc = compute_constants_noisy(cert, 0.5, 4.0)
        b1 = kstar_upper_bound(tc, cert, 0.5, 4.0, 0.01)
        b2 = kstar_upper_bound(tc, cert, 0.5, 4.0, 0.02)
        exact = cert.jac_bound**2 * tc.rho / (0.25 * tc.R * (4.0 * 0.02) ** 2)
        assert b2 == math.floor(exact)
        assert abs(b1 / 4 - b2) <= 1

    def test_monotone_in_r(self):
        cert = unit_cert()
        bounds = []
        for tau in (3.5, 4.0, 8.0):
            tc = compute_constants_noisy(cert, 0.5, tau)
            bounds.append(tc.R)
        assert bounds == sorted(bounds)


class TestQtilde:
    def test_zero_initial_error(self):
        assert qtilde(0.5, unit_cert(), 0.0) == 0.5

    def test_hand_arithmetic(self):
        s = 0.1 / math.sqrt(2.0)
        expected = (0.5 + s) / (1.0 - s)
        value = qtilde(0.5, unit_cert(), 0.1)
        assert abs(value - expected) <= 1e-15
        assert abs(value - 0.61413) <= 1e-5

    def test_monotone_in_initial_error(self):
        values = [qtilde(0.5, unit_cert(), e0) for e0 in (0.0, 0.05, 0.1, 0.3)]
        assert values == sorted(values)
        assert len(set(values)) == len(values)

    def test_condition_violations(self):
        with pytest.raises(ConditionViolated):
            qtilde(0.5, unit_cert(eps=0.5), 0.1)
        bound = nu_additional_bound(unit_cert())
        with pytest.raises(ConditionViolated):
            qtilde(bound + 0.01, unit_cert(), 0.1)
        with pytest.raises(ConditionViolated):
            qtilde(0.5, unit_cert(), 2.0)  # L*C_F/sqrt(2)*e0 >= 1

    def test_log_estimate(self):
        assert kstar_log_estimate(0.5, 1.0, 4.0, 1e-3) == \
            math.ceil(1.0 + math.log(250.0) / math.log(2.0))
        assert kstar_log_estimate(0.5, 1e-4, 4.0, 1e-3) == 0


class TestRunExact:
    def test_scalar_geometric_residuals(self):
        prob = get_problem("scalar-linear")
        cfg = SolverConfig(q=0.5, max_iters=20, tol_alpha=1e-13)
        trace = run_exact(prob.model, prob.x_dagger, prob.y_exact,
                          np.array([0.0]), cfg)
        res = trace.residuals()
        assert len(res) == 21
        expected = 2.0 ** -np.arange(21)
        assert np.max(np.abs(res - expected)) <= 1e-12

    def test_start_at_solution(self):
        prob = get_problem("scalar-linear")
        cfg = SolverConfig(q=0.5, max_iters=20)
        trace = run_exact(prob.model, prob.x_dagger, prob.y_exact,
                          prob.x_dagger, cfg)
        assert trace.terminal == "zero_residual"
        assert trace.iterations == 0

    def test_quadratic_rate_bound(self):
        prob = get_problem("quadratic-2d")
        tc = compute_constants_exact(prob.certificate, 0.5)
        cfg = SolverConfig(q=0.5, max_iters=iterations_for_accuracy(1e-8, tc, 1.0))
        trace = run_exact(prob.model, prob.x_dagger, prob.y_exact,
                          prob.default_x0, cfg, tc)
        assert trace.hypothesis.armed
        gams = trace.gammas()
        for k, g in enumerate(gams):
            assert g <= rate_bound(k, tc, 1.0) * (1.0 + 1e-9)

    def test_target_error_stopping(self):
        prob = get_problem("quadratic-2d")
        cfg = SolverConfig(q=0.5, max_iters=100, stop_mode="target_error",
                           target_gamma=1e-6)
        trace = run_exact(prob.model, prob.x_dagger, prob.y_exact,
                          prob.default_x0, cfg)
        assert trace.terminal == "target_reached"
        assert trace.records[-1].gamma <= 1e-6

    def test_rejects_discrepancy_mode(self):
        prob = get_problem("scalar-linear")
        cfg = SolverConfig(q=0.5, max_iters=5, tau=2.0, delta=1e-3,
                           stop_mode="discrepancy")
        with pytest.raises(ConfigInvalid):
            run_exact(prob.model, None, prob.y_exact, np.array([0.0]), cfg)

    def test_non_finite_start_raises_without_a_step(self):
        cfg = SolverConfig(q=0.5, max_iters=0)
        with pytest.raises(NonFiniteOutput):
            run_exact(non_finite_model("forward"), None, np.array([1.0]),
                      np.array([0.0]), cfg)

    def test_non_finite_iterate(self):
        # F turns NaN at x1 = 0.25, the first LM iterate from 0 toward 2 x = 1
        model = ForwardModel(
            dim_x=1, dim_y=1, center=np.zeros(1), radius_sq=1e6,
            forward=lambda x: 2.0 * x if x[0] < 0.1 else np.full(1, np.nan),
            jacobian_apply=lambda x, v: 2.0 * v,
            jacobian_adjoint_apply=lambda x, w: 2.0 * w,
        )
        cfg = SolverConfig(q=0.5, max_iters=5)
        with pytest.raises(NonFiniteOutput):
            run_exact(model, None, np.array([1.0]), np.array([0.0]), cfg)


class TestRunNoisy:
    def test_kstar_zero_when_data_good_enough(self):
        prob = get_problem("scalar-linear")
        cfg = SolverConfig(q=0.5, max_iters=10, tau=2.0, delta=1.0,
                           stop_mode="discrepancy")
        trace = run_noisy(prob.model, prob.x_dagger, prob.y_exact,
                          np.array([0.0]), cfg)
        assert trace.terminal == "discrepancy_stop"
        assert trace.k_star == 0
        assert trace.iterations == 0

    def test_scalar_recurrence_oracle(self):
        # Independent oracle: run the closed-form scalar recurrence on the
        # same fixed noise realization and count steps to the threshold.
        a, q, tau, delta = 2.0, 0.5, 4.0, 1e-3
        rng = np.random.default_rng(123)
        u = rng.standard_normal(1)
        y_delta = 1.0 + delta * u / np.linalg.norm(u)

        x, steps = 0.0, 0
        while abs(y_delta[0] - a * x) > tau * delta:
            r = y_delta[0] - a * x
            x += r * (1.0 - q) / a
            steps += 1

        prob = get_problem("scalar-linear")
        cfg = SolverConfig(q=q, max_iters=100, tau=tau, delta=delta,
                           stop_mode="discrepancy", tol_alpha=1e-12)
        trace = run_noisy(prob.model, prob.x_dagger, y_delta,
                          np.array([0.0]), cfg)
        assert trace.k_star == steps
        assert trace.records[trace.k_star].residual <= tau * delta
        for rec in trace.records[:trace.k_star]:
            assert rec.residual > tau * delta

    def test_zero_delta_degenerates_to_exact(self):
        prob = get_problem("scalar-linear")
        cfg = SolverConfig(q=0.5, max_iters=300, tau=2.0, delta=0.0,
                           stop_mode="discrepancy")
        trace = run_noisy(prob.model, prob.x_dagger, prob.y_exact,
                          np.array([0.0]), cfg)
        # threshold 0 is only met at the numerical floor
        assert trace.terminal in ("zero_residual", "discrepancy_stop")
        assert trace.records[-1].residual <= 1e-12

    def test_budget_before_discrepancy(self):
        prob = get_problem("scalar-linear")
        cfg = SolverConfig(q=0.5, max_iters=2, tau=4.0, delta=1e-6,
                           stop_mode="discrepancy")
        trace = run_noisy(prob.model, prob.x_dagger, prob.y_exact,
                          np.array([0.0]), cfg)
        assert trace.terminal == "budget_exhausted"
        assert trace.k_star is None


class TestLandweber:
    def test_scalar_one_step_special_tuning(self):
        prob = get_problem("scalar-linear")
        cfg = SolverConfig(q=0.5, max_iters=5)
        trace = landweber_run(prob.model, prob.y_exact, np.array([0.0]),
                              0.25, cfg, x_dagger=prob.x_dagger)
        # x1 = 0 + 0.25 * 2 * (1 - 0) = 0.5 = truth
        assert trace.terminal == "zero_residual"
        assert trace.iterations == 1
        assert trace.records[1].residual == 0.0

    def test_scalar_contraction_factor(self):
        prob = get_problem("scalar-linear")
        cfg = SolverConfig(q=0.5, max_iters=10)
        trace = landweber_run(prob.model, prob.y_exact, np.array([0.0]),
                              0.1, cfg, x_dagger=prob.x_dagger)
        res = trace.residuals()
        ratios = res[1:] / res[:-1]
        assert np.max(np.abs(ratios - 0.6)) <= 1e-12

    def test_step_scale_precondition(self):
        prob = get_problem("scalar-linear")
        cfg = SolverConfig(q=0.5, max_iters=5)
        with pytest.raises(ConditionViolated):
            landweber_run(prob.model, prob.y_exact, np.array([0.0]), 1.0, cfg)

    def test_divergence_detected(self):
        # gradient step fine at x0 but explosive once iterates grow
        model = ForwardModel(
            dim_x=1, dim_y=1, center=np.zeros(1), radius_sq=1e12,
            forward=lambda x: x + 10.0 * x**3,
            jacobian_apply=lambda x, v: (1.0 + 30.0 * x**2) * v,
            jacobian_adjoint_apply=lambda x, w: (1.0 + 30.0 * x**2) * w,
        )
        cfg = SolverConfig(q=0.5, max_iters=100, domain_mode="warn")
        with pytest.raises(DivergenceDetected):
            landweber_run(model, np.array([50.0]), np.array([0.0]), 0.9, cfg)


    @pytest.mark.parametrize("part", ["forward", "jacobian_adjoint_apply"])
    def test_non_finite_output(self, part):
        cfg = SolverConfig(q=0.5, max_iters=5)
        with pytest.raises(NonFiniteOutput):
            landweber_run(non_finite_model(part), np.array([1.0]),
                          np.array([0.0]), 0.1, cfg)

    def test_default_step_scale(self):
        prob = get_problem("scalar-linear")
        cfg = SolverConfig(q=0.5, max_iters=10)
        default = landweber_run(prob.model, prob.y_exact, np.array([0.0]),
                                None, cfg, x_dagger=prob.x_dagger)
        explicit = landweber_run(prob.model, prob.y_exact, np.array([0.0]),
                                 0.9 / 4.0, cfg, x_dagger=prob.x_dagger)
        assert default.residuals().tolist() == explicit.residuals().tolist()

    def test_non_finite_last_iterate(self):
        # F turns NaN after the one step the budget allows.
        model = ForwardModel(
            dim_x=1, dim_y=1, center=np.zeros(1), radius_sq=1e6,
            forward=lambda x: 2.0 * x if x[0] < 0.1 else np.full(1, np.nan),
            jacobian_apply=lambda x, v: 2.0 * v,
            jacobian_adjoint_apply=lambda x, w: 2.0 * w,
        )
        cfg = SolverConfig(q=0.5, max_iters=1)
        with pytest.raises(NonFiniteOutput):
            landweber_run(model, np.array([1.0]), np.array([0.0]), 0.1, cfg)

    def test_floor_warning(self):
        prob = get_problem("scalar-linear")
        cfg = SolverConfig(q=0.5, max_iters=200)
        trace = landweber_run(prob.model, prob.y_exact, np.array([0.0]),
                              0.1, cfg)
        assert trace.terminal == "zero_residual"
        assert trace.records[-1].residual > 0.0
        assert any("machine-precision floor" in w for w in trace.warnings)

    def test_budget_before_discrepancy_warning(self):
        prob = get_problem("scalar-linear")
        cfg = SolverConfig(q=0.5, max_iters=2, tau=4.0, delta=1e-6,
                           stop_mode="discrepancy")
        trace = landweber_run(prob.model, prob.y_exact, np.array([0.0]),
                              0.1, cfg)
        assert trace.terminal == "budget_exhausted"
        assert trace.k_star is None
        assert trace.warnings == [
            "iteration budget exhausted before the discrepancy criterion"
        ]

    def test_target_error_stopping(self):
        prob = get_problem("scalar-linear")
        cfg = SolverConfig(q=0.5, max_iters=100, stop_mode="target_error",
                           target_gamma=1e-6)
        trace = landweber_run(prob.model, prob.y_exact, np.array([0.0]),
                              0.1, cfg, x_dagger=prob.x_dagger)
        assert trace.terminal == "target_reached"
        gams = trace.gammas()
        assert gams[-1] <= 1e-6 < gams[-2]

    def test_domain_violation_is_a_terminal(self):
        # x1 = 0.2 * 2 * 1 = 0.4 leaves the ball 0.5 x^2 <= 0.01.
        model = linear_model(2.0, radius_sq=0.01)
        cfg = SolverConfig(q=0.5, max_iters=5, domain_mode="error")
        trace = landweber_run(model, np.array([1.0]), np.array([0.0]),
                              0.2, cfg)
        assert trace.terminal == "domain_violation"
        assert trace.iterations == 0
        assert trace.x_final.tolist() == [0.0]
        assert len(trace.warnings) == 1

    def test_default_step_scale_needs_nonzero_jacobian(self):
        model = ForwardModel(
            dim_x=1, dim_y=1, center=np.zeros(1), radius_sq=1e6,
            forward=lambda x: x * x,
            jacobian_apply=lambda x, v: 2.0 * x * v,
            jacobian_adjoint_apply=lambda x, w: 2.0 * x * w,
        )
        cfg = SolverConfig(q=0.5, max_iters=5)
        with pytest.raises(ConditionViolated):
            landweber_run(model, np.array([1.0]), np.array([0.0]), None, cfg)


class TestSolverConfigValidation:
    def test_q_range(self):
        with pytest.raises(ConfigInvalid):
            SolverConfig(q=1.5, max_iters=1)

    def test_discrepancy_needs_tau(self):
        with pytest.raises(ConfigInvalid):
            SolverConfig(q=0.5, max_iters=1, stop_mode="discrepancy")
        with pytest.raises(ConfigInvalid):
            SolverConfig(q=0.5, max_iters=1, stop_mode="discrepancy", tau=1.0,
                         delta=1e-3)

    def test_target_needs_gamma(self):
        with pytest.raises(ConfigInvalid):
            SolverConfig(q=0.5, max_iters=1, stop_mode="target_error")


def test_tangential_cone_eta_shrinks_with_ball():
    cert = unit_cert()
    etas = [tangential_cone_eta(cert, rp) for rp in (1.0, 0.1, 0.01)]
    assert etas == sorted(etas, reverse=True)
    # eps = 1: eta = (L/2) * 2 sqrt(2 rho') * sqrt(2) C_F
    assert abs(etas[0] - 0.5 * 2.0 * math.sqrt(2.0) * math.sqrt(2.0)) <= 1e-14


def test_trace_determinism():
    prob = get_problem("quadratic-2d")
    cfg = SolverConfig(q=0.5, max_iters=15)
    traces = [
        run_exact(prob.model, prob.x_dagger, prob.y_exact, prob.default_x0, cfg)
        for _ in range(2)
    ]
    a, b = traces
    assert a.terminal == b.terminal
    for ra, rb in zip(a.records, b.records):
        assert (ra.k, ra.alpha, ra.residual, ra.gamma, ra.step_norm,
                ra.mdp_prime_rel_err) == \
               (rb.k, rb.alpha, rb.residual, rb.gamma, rb.step_norm,
                rb.mdp_prime_rel_err)


@pytest.mark.parametrize("driver", ["exact", "noisy", "landweber"])
def test_one_forward_call_per_iterate(driver, gallery_problems):
    # the loop evaluates F once per iterate and the steps reuse its residual
    prob = gallery_problems["quadratic-2d"]
    model, counts = counting_model(prob.model)
    args = (prob.y_exact, prob.default_x0)
    if driver == "exact":
        trace = run_exact(model, prob.x_dagger, *args,
                          SolverConfig(q=0.5, max_iters=5))
    elif driver == "noisy":
        cfg = SolverConfig(q=0.5, max_iters=5, tau=2.0, delta=1e-12,
                           stop_mode="discrepancy")
        trace = run_noisy(model, prob.x_dagger, *args, cfg)
    else:
        trace = landweber_run(model, *args, 0.1,
                              SolverConfig(q=0.5, max_iters=5),
                              x_dagger=prob.x_dagger)
    assert trace.iterations == 5
    assert counts["forward"] == 1 + trace.iterations


def _recording(model):
    """``model`` with every point F is evaluated at appended to a list."""
    points = []

    def forward(x):
        points.append(np.array(x))
        return model.forward(x)

    return dataclasses.replace(model, forward=forward), points


@st.composite
def small_ball_problems(draw):
    """Exact data of a linear model A x whose ball around x0 = 0 is small
    enough that the iterates toward a drawn truth may leave it."""
    n = draw(st.integers(1, 3), label="dim_x")
    m = draw(st.integers(1, 4), label="dim_y")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    a = rng.standard_normal((m, n))
    radius_sq = draw(st.floats(1e-3, 1.0), label="radius_sq")
    return linear_model(a, radius_sq=radius_sq), a @ rng.standard_normal(n)


def _run(driver, model, y, domain_mode):
    """The run from x0 = 0 and the points F was evaluated at."""
    recorded, points = _recording(model)
    cfg = SolverConfig(q=0.5, max_iters=8, domain_mode=domain_mode)
    x0 = np.zeros(model.dim_x)
    if driver == "lm":
        trace = run_exact(recorded, None, y, x0, cfg)
    else:
        trace = landweber_run(recorded, y, x0, None, cfg)
    return trace, points


@settings(max_examples=100, deadline=None)
@given(problem=small_ball_problems(), driver=st.sampled_from(["lm", "landweber"]))
def test_domain_policy(problem, driver):
    model, y = problem
    # "warn": every iterate is recorded, with one warning per iterate outside
    warned, points = _run(driver, model, y, "warn")
    assert len(points) == warned.iterations + 1
    outside = [not check_domain(model, p) for p in points]
    assert not outside[0]
    assert sum("outside admissible ball" in w
               for w in warned.warnings) == sum(outside)
    # "error": the same iterates up to the first one outside, which ends the
    # run unrecorded
    strict, kept = _run(driver, model, y, "error")
    assert all(check_domain(model, p) for p in kept)
    first = outside.index(True) if any(outside) else len(points)
    assert len(kept) == first
    assert all(np.array_equal(p, w) for p, w in zip(kept, points))
    if first < len(points):
        assert strict.terminal == "domain_violation"
        assert strict.iterations == first - 1
        assert np.array_equal(strict.x_final, points[first - 1])
    else:
        assert strict.terminal == warned.terminal
