import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import linear_model, non_finite_model
from lmrecon import engine, tracefile
from lmrecon.checks import _REL_SLACK, monotonicity, omega_condition_holds
from lmrecon.cli import counting_model, make_noise
from lmrecon.engine import (
    SolverConfig,
    TraceRecord,
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
    NonConvergence,
    NonFiniteOutput,
)
from lmrecon.gallery import get_problem
from lmrecon.step import lm_step
from lmrecon.operators import (PROVENANCES, ForwardModel, StabilityCertificate,
                               check_domain, recenter, vector_norm)
from lmrecon.recon import MeasurementOperator, reconstruct_exact, reconstruct_noisy


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

    def test_q_condition_violated(self):
        # q(1 - q) = 0.25 against 2 L-hat^2 C_F^(4/(1+eps)) = 0.02
        with pytest.raises(ConditionViolated,
                           match=r"q\(1-q\) = 0\.25 must be < 0\.02; adjust q"):
            compute_constants_exact(unit_cert(jac=0.1), 0.5)
        tc = compute_constants_exact(unit_cert(jac=0.1), 0.5, strict=False)
        assert not tc.q_condition_ok and tc.rho_lt_rho_prime

    def test_condition_violated_on_small_ball(self):
        with pytest.raises(ConditionViolated):
            compute_constants_exact(unit_cert(rho_prime=0.01), 0.5)
        tc = compute_constants_exact(unit_cert(rho_prime=0.01), 0.5,
                                     strict=False)
        assert not tc.rho_lt_rho_prime

    @pytest.mark.parametrize("compute, args", [
        (compute_constants_exact, (0.65,)), (compute_constants_noisy, (0.65, 4.0))])
    def test_overflowing_rho_is_infinite(self, compute, args):
        # (q / (2 L C_F^2))^(2/eps) overflows a float at eps = 0.05
        tc = compute(unit_cert(eps=0.05, lip=1e-14), *args, strict=False)
        assert tc.rho == math.inf and not tc.rho_lt_rho_prime


    @pytest.mark.parametrize("compute, args", [
        (compute_constants_exact, (0.5,)), (compute_constants_noisy, (0.5, 4.0))])
    @pytest.mark.parametrize("fields", [
        {"jac": 1e300}, {"jac": 5e-324}, {"holder": 1e300}, {"lip": 5e-324,
                                                           "holder": 5e-324}])
    def test_constants_outside_the_float_range(self, compute, args, fields):
        # a square that overflows, or a divisor that underflows to 0, violates
        # the hypotheses; a caller that only records the flags gets NaN
        # constants, on which nothing is armed
        with pytest.raises(ConditionViolated, match="outside the float range"):
            compute(unit_cert(**fields), *args)
        tc = compute(unit_cert(**fields), *args, strict=False)
        assert math.isnan(tc.rho) and not tc.rho_lt_rho_prime


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

    @pytest.mark.parametrize("tau", [math.inf, math.nan])
    def test_tau_must_be_finite(self, tau):
        # an infinite tau once gave R = 3/4 and kstar_bound = 0
        with pytest.raises(ConfigInvalid, match="^tau must be > 1 and finite$"):
            compute_constants_noisy(unit_cert(), 0.5, tau, delta=1e-3)


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

    def test_zero_base_of_the_holder_rate_is_a_condition_violation(self):
        # rho = inf and c = 0 make the Hoelder rate's base c k p + rho^(-p)
        # exactly 0, which Python's pow refuses to raise to -1/p
        from lmrecon.engine import TheoryConstantsExact

        tc = TheoryConstantsExact(rho=math.inf, c=0.0, q_condition_ok=True,
                                  rho_lt_rho_prime=True)
        with pytest.raises(ZeroDivisionError):
            rate_bound(1, tc, 0.5)
        with pytest.raises(ConditionViolated, match="^no iteration count"):
            iterations_for_accuracy(1.0, tc, 0.5)

    def test_holder_case_matches_scan(self):
        tc = compute_constants_exact(unit_cert(eps=0.5), 0.5)
        target = 1e-7
        m = iterations_for_accuracy(target, tc, 0.5)
        scan = 0
        while rate_bound(scan, tc, 0.5) > target:
            scan += 1
        assert m == scan


def _float_range_ends_first(target_gamma, tc, eps):
    """Whether ``rate_bound`` at 1, 2, 4, ... leaves the float range (raises)
    before any of these counts reaches ``target_gamma``: then no count a
    float can hold reaches it."""
    k = 1
    while True:
        try:
            if rate_bound(k, tc, eps) <= target_gamma:
                return False
        except (OverflowError, ZeroDivisionError):
            return True
        k *= 2


def test_iterations_for_accuracy_is_the_smallest_count():
    # seeded random constants, with c down to 1e-17, where 1 - c rounds to 1:
    # the count reaches the target and the count before it does not, or the
    # search raises exactly when the float range ends first
    from lmrecon.engine import TheoryConstantsExact

    rng = np.random.default_rng(1818)
    eps_choices = [1.0, 0.5, 1.0 / 3.0]
    outcomes, rounded = set(), 0
    for _ in range(3000):
        rho = 10.0 ** rng.uniform(-12.0, 2.0)
        c = (10.0 ** rng.uniform(-17.0, 0.0) if rng.random() < 0.8
             else rng.uniform(0.0, 1.0))
        c = min(max(c, 1e-17), math.nextafter(1.0, 0.0))
        eps = (eps_choices[rng.integers(3)] if rng.random() < 0.75
               else 1.0 - rng.random())
        target = rho * 10.0 ** -rng.uniform(0.0, 14.0)
        rounded += 1.0 - c == 1.0
        tc = TheoryConstantsExact(rho=rho, c=c, q_condition_ok=True,
                                  rho_lt_rho_prime=True)
        case = (rho, c, eps, target)
        try:
            m = iterations_for_accuracy(target, tc, eps)
        except ConditionViolated:
            assert _float_range_ends_first(target, tc, eps), case
            outcomes.add("raise")
            continue
        assert rate_bound(m, tc, eps) <= target, case
        assert m == 0 or rate_bound(m - 1, tc, eps) > target, case
        outcomes.add("large" if m > 10**12 else "small")
    assert outcomes == {"raise", "large", "small"} and rounded > 0


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

    def test_underflowing_noise_level_has_no_bound(self):
        # (tau delta)^2 underflows to 0 at delta = 1e-200: no finite bound
        cert = unit_cert()
        tc = compute_constants_noisy(cert, 0.5, 4.0, delta=1e-200)
        assert tc.kstar_bound is None
        assert kstar_upper_bound(tc, cert, 0.5, 4.0, 1e-200) is None

    def test_overflowing_noise_level_bound_is_zero(self):
        # (tau delta)^2 overflows to inf at delta = 1e200: the bound is 0
        tc = compute_constants_noisy(unit_cert(), 0.5, 4.0)
        assert kstar_upper_bound(tc, unit_cert(), 0.5, 4.0, 1e200) == 0

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

    @pytest.mark.parametrize("delta", [0.0, -1e-3, math.nan])
    def test_log_estimate_needs_a_positive_noise_level(self, delta):
        # the error kstar_upper_bound raises, not a ZeroDivisionError at 0
        # or int(nan)'s ValueError at NaN
        with pytest.raises(ValueError, match="^delta must be positive$"):
            kstar_log_estimate(0.5, 1.0, 4.0, delta)

    def test_log_estimate_of_a_quotient_beyond_the_float_range(self):
        # ||r0|| / (tau delta) = 2^1073 overflows, its log does not
        assert kstar_log_estimate(1.0 / 7.0, 1.0, 2.0, 5e-324) == \
            math.ceil(1.0 + 1073.0 * math.log(2.0) / math.log(7.0)) == 384


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

    def test_step_whose_square_overflows_has_a_finite_norm(self):
        # F(x) = 1e-10 x with y = (1e150, 1e150): at q = 0.5 each step is
        # 5e9 r, whose squared length overflows, as do the squares of the
        # step's Morozov norm and of the iterates' distance to the center;
        # every step norm is still finite, and nothing warns
        model = linear_model(1e-10 * np.eye(2), radius_sq=math.inf)
        cfg = SolverConfig(q=0.5, max_iters=3, domain_mode="warn")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = run_exact(model, None, np.full(2, 1e150), np.zeros(2), cfg)
        assert trace.terminal == "budget_exhausted" and not trace.warnings
        norms = [rec.step_norm for rec in trace.records[1:]]
        assert norms == pytest.approx(
            [math.sqrt(2.0) * 5e159 / 2**k for k in range(3)], rel=1e-14)
        for k, norm in enumerate(norms):
            step = trace.iterates[k + 1] - trace.iterates[k]
            assert norm == math.hypot(*step)


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

    @pytest.mark.parametrize("step_scale", [math.nan, 0.0, -1.0, math.inf])
    def test_step_scale_must_be_positive_and_finite(self, step_scale):
        # a NaN step would end in domain_violation, 0 would never move and
        # a negative step would climb the residual: each fails before the
        # loop evaluates F
        prob = get_problem("quadratic-2d")
        model, counts = counting_model(prob.model)
        cfg = SolverConfig(q=0.5, max_iters=5, domain_mode="warn")
        with pytest.raises(ConditionViolated, match="must be positive and finite"):
            landweber_run(model, prob.y_exact, prob.default_x0, step_scale, cfg)
        assert counts["forward"] == counts["adjoint"] == 0

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

    @pytest.mark.parametrize("fields, match", [
        ({"max_iters": -1}, "max_iters must be >= 0"),
        ({"tol_alpha": 0.0}, "tol_alpha must be positive"),
        ({"tol_alpha": math.nan}, "tol_alpha must be positive"),
        ({"stop_mode": "forever"}, "stop_mode must be one of"),
        ({"stop_mode": "discrepancy", "tau": 4.0, "delta": -1e-3},
         "delta must be >= 0"),
        ({"domain_mode": "clip"}, "domain_mode must be 'error' or 'warn'"),
        ({"tol_alpha": math.inf}, "tol_alpha must be positive and finite"),
        ({"stop_mode": "discrepancy", "tau": 4.0, "delta": math.nan},
         "delta must be >= 0"),
    ])
    def test_invalid_field(self, fields, match):
        with pytest.raises(ConfigInvalid, match=match):
            SolverConfig(**{"q": 0.5, "max_iters": 1, **fields})

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("key, fields, message", [
        ("tau", {"stop_mode": "discrepancy", "delta": 1e-3},
         "discrepancy stopping requires tau > 1 and finite"),
        ("delta", {"stop_mode": "discrepancy", "tau": 4.0},
         "delta must be >= 0 and finite"),
        ("target_gamma", {"stop_mode": "target_error"},
         "target_error stopping requires target_gamma > 0 and finite"),
    ])
    def test_non_finite_value_rejected(self, key, fields, message, value):
        # an infinite threshold or target stops every run at k = 0
        with pytest.raises(ConfigInvalid) as info:
            SolverConfig(q=0.5, max_iters=1, **fields, **{key: value})
        assert str(info.value) == message


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


@pytest.mark.parametrize("driver", ["exact", "noisy", "landweber"])
def test_trace_carries_its_constants(driver, gallery_problems):
    # an LM trace keeps the very constants it ran under; Landweber has none
    prob = gallery_problems["quadratic-2d"]
    args = (prob.y_exact, prob.default_x0)
    if driver == "exact":
        tc = compute_constants_exact(prob.certificate, 0.5, strict=False)
        trace = run_exact(prob.model, prob.x_dagger, *args,
                          SolverConfig(q=0.5, max_iters=3), tc)
    elif driver == "noisy":
        tc = compute_constants_noisy(prob.certificate, 0.5, 4.0, delta=1e-3,
                                     strict=False)
        cfg = SolverConfig(q=0.5, max_iters=3, tau=4.0, delta=1e-3,
                           stop_mode="discrepancy")
        trace = run_noisy(prob.model, prob.x_dagger, *args, cfg, tc)
    else:
        tc = None
        trace = landweber_run(prob.model, *args, 0.1,
                              SolverConfig(q=0.5, max_iters=3),
                              x_dagger=prob.x_dagger)
    assert trace.constants is tc


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


def _hex(value) -> str:
    return float.hex(value) if isinstance(value, float) else repr(value)


def trace_digest(trace, omega_ok) -> str:
    """sha256 of everything a driver reports: the terminal, k_star, every
    record, every step's diagnostics, x_final and the warnings, with each
    float as ``float.hex``, and the theory flags: the gamma and
    error-monotonicity flags by ``monotonicity`` for a run with the truth
    and a hypothesis report (None otherwise), and ``omega_ok``, the run's
    omega-condition flag (None for a Landweber run)."""
    lines = [f"{trace.terminal} {trace.k_star}"]
    lines += [" ".join(_hex(v) for v in dataclasses.astuple(rec))
              for rec in trace.records]
    lines += [" ".join(_hex(v) for v in dataclasses.astuple(diag))
              for diag in trace.step_diagnostics]
    lines.append(" ".join(_hex(float(v)) for v in trace.x_final))
    lines += trace.warnings
    theory = trace.hypothesis is not None and trace.records[0].gamma is not None
    flags = monotonicity(trace.records) if theory else (None, None)
    lines.append(repr((*flags, omega_ok, trace.hypothesis)))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def pinned_trace(prob, driver):
    """One run of ``driver`` on ``prob`` from its default start, 60 steps at
    most, with the theory constants of its certificate and the ball policy
    "warn", and its omega-condition flag as ``verify`` takes it: omega = 2
    for the exact run, ``1/(1 - R)`` for the noisy one and None for
    Landweber.  The noisy data lie at distance 1e-3 from the exact data.  The
    "-ball" runs move the ball to the start and shrink it to a quarter of the
    start's ``gamma``, so the iterates leave it: under "warn" for LM, under
    "error" for Landweber."""
    model, domain_mode = prob.model, "warn"
    if driver.endswith("-ball"):
        driver = driver[:-len("-ball")]
        radius_sq = 0.125 * float(np.sum((prob.default_x0 - prob.x_dagger) ** 2))
        model = recenter(model, prob.default_x0, radius_sq)
        domain_mode = "warn" if driver == "exact" else "error"
    cfg = SolverConfig(q=0.5, max_iters=60, domain_mode=domain_mode)
    if driver == "exact":
        tc = compute_constants_exact(prob.certificate, 0.5, strict=False)
        trace = run_exact(model, prob.x_dagger, prob.y_exact, prob.default_x0,
                          cfg, tc)
        return trace, omega_condition_holds(model, trace, prob.x_dagger, 0.5, 2.0)
    if driver == "noisy":
        delta = 1e-3
        cfg = dataclasses.replace(cfg, tau=4.0, delta=delta,
                                  stop_mode="discrepancy")
        tc = compute_constants_noisy(prob.certificate, 0.5, 4.0, delta=delta,
                                     strict=False)
        u = np.random.default_rng(5).standard_normal(model.dim_y)
        y_delta = prob.y_exact + delta * u / np.linalg.norm(u)
        trace = run_noisy(model, prob.x_dagger, y_delta, prob.default_x0, cfg, tc)
        return trace, omega_condition_holds(model, trace, prob.x_dagger, 0.5,
                                            1.0 / (1.0 - tc.R))
    return landweber_run(model, prob.y_exact, prob.default_x0, None, cfg,
                         x_dagger=prob.x_dagger), None


PINNED_DRIVERS = ("exact", "noisy", "landweber", "exact-ball", "landweber-ball")
# problem -> the ``trace_digest`` of each of PINNED_DRIVERS, recorded with
# numpy 2.4 and its bundled OpenBLAS on x86-64.
PINNED_TRACES = {
    "scalar-linear": (
        "b3c2ccfbfc0a7945bfc622feebfa48f6f1beb5f4ab3d5e65b861eac3f486bb50",
        "2828a6522dba3b7a9b1cce4e6290e11efdaf51f6d19bae3290aab09cf3359d1c",
        "77bc53b0a87257f03219bf659b67961ecfe036b899e17807b4b4700b04ea7c3e",
        "1b4724a86771a4acc9eeab4f13e8af4162a1d2a36ce3942a8922466307e1789d",
        "5f32659873c578498081b3e072ca5a41bbfc0e5eae395854d9bc47696dfceab3"),
    "scalar-linear-unit": (
        "6269152288154ce7ff2139d3d8f08bd0974505d9564d6d10655e2d6b7da6025f",
        "4b5f529818f3a15df0f20d2b4650d6f078def9dcb0fcc550ec56bab501243741",
        "ffdb531cbba01ef3cca4c67c17bb5695f3bfd0370a581baae40860c3b5133f17",
        "9be9482657be8a125157b084f852be8286b5b312e7b7b19dfdfcd3d9129c5e2f",
        "dffbc68eae0a0dd2a99049984c72e42c2e203d2e34230bd8be988ed3ae4a094a"),
    "exp-decay": (
        "15eedc2cf93a5a0bcdd1357d1fb619a8a999824b1811f81c69add28c4af6634c",
        "aef6744faa7597bfbfdc7fae184456deeb1bf20f1df9e7792dbb0f734c930b01",
        "355bf21d2b9494943ee8494109babb1d195f1d53009e66dc67468b42292ca5b5",
        "691bbd926ce2b97bd943192d54099d6d58156a65b422adb0d0d5b36beac923ce",
        "ea9a5544a10884900614bc01bd933da8d1d4854ab3c44de34bd3a773f8bb2590"),
    "exp-decay-2pt": (
        "ade9249d64c94ed19af59ce46a5bbd31e342d488f67fcbcb192420a422cc0b23",
        "d2494ca0c3de7d6b67a4411bb0dd9c56c6a56c30246364e4872e58eda4b86201",
        "b78c7b3484a9e3629a927b1f44b31ba05dda4c6a7f4d9489d3f1dd6844658c0f",
        "b6dec0554a533987963acfd6a5f4a505cd3ad7ba5d9bee9c794520297fb1fa23",
        "71194127d9caffc67510318ddcf4a0ca09d24cf796d90f4ed45e5461bf05fdfc"),
    "quadratic-2d": (
        "9979c90906730337ba79f184ab4439d03e38971018c5cbdfba3882a08c8766bb",
        "3915bc2809e70b8c2b5df96ea5fcef0da2286ad0db3c8d7ed088966a7210ac0f",
        "a8789bc0d56556fc6026a81dd86f3b6e37962a995ec6385764b66b0f42fc0c2a",
        "37e8d5d4304e807079995829c5f868ae522499e9b955336631e01bf99fe9104e",
        "1aa9250ebd36efc241aa4dc54b292763e5563006ee87086d4bd237c416b0c9db"),
    "quadratic-3d": (
        "6e07ac392fda5a6838e9b02cc8b7f38ff97b967b7e8ed26305345410091f9177",
        "2dd97ad75ff2eebed2d2f1f21154df382509de7523517dab1b4f538d2dcdc9ef",
        "9b063b005dc6af1288432ab4cbd79b318e6bd1ff4132cbf341c795a72de5eed9",
        "91169d2b710b72eb4b048f8dc7906c6079afbe82be8456ddb10c8f73908a2e0b",
        "f00bcd37b62fee878c11f9e36d46a2548d5a8f4e7aa6c82eabd60be62b12c58d"),
}


@pytest.mark.parametrize("pid", PINNED_TRACES)
def test_driver_traces_pinned(pid, gallery_problems):
    prob = gallery_problems[pid]
    digests = tuple(trace_digest(*pinned_trace(prob, driver))
                    for driver in PINNED_DRIVERS)
    assert digests == PINNED_TRACES[pid]


def _tall_model(m, n, seed):
    """F(x) = A x + 0.3 (B x)^2 on R^n -> R^m with Gaussian A and B scaled by
    1/sqrt(m), its unit-norm truth, and a start whose linearized residual
    ||J(truth) d|| is 0.05."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n)) / math.sqrt(m)
    b = rng.standard_normal((m, n)) / math.sqrt(m)

    def forward(x):
        bx = b @ x
        return a @ x + 0.3 * bx * bx

    model = ForwardModel(
        dim_x=n, dim_y=m, center=np.zeros(n), radius_sq=math.inf,
        forward=forward,
        jacobian_apply=lambda x, v: a @ v + 0.6 * (b @ x) * (b @ v),
        jacobian_adjoint_apply=lambda x, w: a.T @ w + 0.6 * (b.T @ ((b @ x) * w)))
    truth = rng.standard_normal(n)
    truth /= np.linalg.norm(truth)
    d = rng.standard_normal(n)
    d /= np.linalg.norm(d)
    x0 = truth + 0.05 / np.linalg.norm(model.jacobian_apply(truth, d)) * d
    return model, truth, x0, rng


def tall_trace(shape, driver):
    """One run of ``driver`` on the tall model of ``shape``: exact LM for 8
    steps, noisy LM with discrepancy stopping on data at distance 1e-3, or
    Landweber for 60 steps with the step size from ``||J(x0)||``, and its
    omega-condition flag as in :func:`pinned_trace` (tau = 4 gives
    R = 0.1875 at q = 0.5)."""
    m, n = shape
    model, truth, x0, rng = _tall_model(m, n, seed=m + n)
    y = model.forward(truth)
    if driver == "exact":
        trace = run_exact(model, truth, y, x0, SolverConfig(q=0.5, max_iters=8))
        return trace, omega_condition_holds(model, trace, truth, 0.5, 2.0)
    if driver == "noisy":
        u = rng.standard_normal(m)
        cfg = SolverConfig(q=0.5, max_iters=60, tau=4.0, delta=1e-3,
                           stop_mode="discrepancy")
        trace = run_noisy(model, truth, y + 1e-3 * u / np.linalg.norm(u), x0, cfg)
        return trace, omega_condition_holds(model, trace, truth, 0.5,
                                            1.0 / (1.0 - 0.1875))
    return landweber_run(model, y, x0, None, SolverConfig(q=0.5, max_iters=60),
                         x_dagger=truth), None


# (dim_y, dim_x) -> the ``trace_digest`` of the exact, noisy and Landweber
# runs of ``tall_trace``, recorded with numpy 2.4 and its bundled OpenBLAS on
# x86-64.  These take the reduced-QR path of the step.
PINNED_TALL_TRACES = {
    (100, 12): (
        "7a346c16bd07cf04da632a7da352c09275f9fb3ef97143badb11a2471cb64dc0",
        "016f0c481ed9406ff412c7d9b6eb2c8325496109461175f56556a50a40ba9c57",
        "dd37234fecdea09bf2fb2db1b3eed674a1f67359cac7ea8f0a695456bfd110a9"),
    (400, 50): (
        "3f3718c970097b61af8e586540a777bea0455d8b02d3a74f4d29d1a6f1019c83",
        "d066135bb52c4067a5b328da420c7dadcbaff7f092448688494627b3901569e7",
        "8532bef6f5a61321dfb0769cc41a1988bacdb40540f9923a4e57a733b556235c"),
}


@pytest.mark.parametrize("shape", PINNED_TALL_TRACES)
def test_tall_traces_pinned(shape):
    digests = tuple(trace_digest(*tall_trace(shape, driver))
                    for driver in ("exact", "noisy", "landweber"))
    assert digests == PINNED_TALL_TRACES[shape]


def _broken_model(dim, part, entries):
    """F(x) = 2 x on R^dim, except that ``part`` ("forward",
    "jacobian_apply" or "jacobian_adjoint_apply") returns ``entries``,
    built without arithmetic on them."""
    calls = {
        "forward": lambda x: 2.0 * x,
        "jacobian_apply": lambda x, v: 2.0 * v,
        "jacobian_adjoint_apply": lambda x, w: 2.0 * w,
    }
    calls[part] = lambda *args: entries.copy()
    return ForwardModel(dim_x=dim, dim_y=dim, center=np.zeros(dim),
                        radius_sq=math.inf, **calls)


@st.composite
def non_finite_runs(draw):
    """A driver, and a model one part of which returns a vector with NaN or
    inf entries.  The other entries of a residual, a Landweber gradient or
    the Jacobian that sets Landweber's step span the finite range up to
    1e300, where the squared norm overflows.  Where the part reaches the LM
    step's J J*, which is formed before any check, the other entries stay
    near 1 and inf comes only in one dimension: inf * 0 in that product
    warns, as it always has."""
    driver = draw(st.sampled_from(["exact", "noisy", "landweber", "lm_step"]),
                  label="driver")
    part = draw(st.sampled_from(["forward", "jacobian_apply",
                                 "jacobian_adjoint_apply"]), label="part")
    dim = draw(st.integers(1, 3), label="dim")
    gram = driver != "landweber" and part != "forward"
    finite = st.floats(0.5, 2.0) if gram else st.floats(-1e300, 1e300)
    bad = [np.nan] if gram and dim > 1 else [np.nan, np.inf, -np.inf]
    entries = np.array(draw(st.lists(finite, min_size=dim, max_size=dim),
                            label="entries"))
    for i in draw(st.lists(st.integers(0, dim - 1), min_size=1, max_size=dim),
                  label="non-finite at"):
        entries[i] = draw(st.sampled_from(bad), label="value")
    return driver, _broken_model(dim, part, entries)


@settings(max_examples=200, deadline=None)
@given(run=non_finite_runs())
def test_non_finite_values_raise_without_a_warning(run):
    # a NaN or inf residual, Gram matrix or Landweber gradient raises
    # NonFiniteOutput, and no floating-point warning comes before it
    driver, model = run
    y, x0 = np.zeros(model.dim_y), np.ones(model.dim_x)
    cfg = SolverConfig(q=0.5, max_iters=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteOutput):
            if driver == "exact":
                run_exact(model, None, y, x0, cfg)
            elif driver == "noisy":
                run_noisy(model, None, y, x0, dataclasses.replace(
                    cfg, tau=2.0, delta=1e-3, stop_mode="discrepancy"))
            elif driver == "landweber":
                # a broken Jacobian is caught by the step size's ||J(x0)||,
                # a broken forward or adjoint by the loop or the step
                landweber_run(model, y, x0, 0.1, cfg)
            else:
                lm_step(model, x0, y - model.forward(x0), 0.5)


def _offset_model(dim):
    """F(x) = x + 1e200 (1, ..., 1): finite residuals near y = 0 whose
    squared norm overflows."""
    offset = np.full(dim, 1e200)
    return ForwardModel(dim_x=dim, dim_y=dim, center=np.zeros(dim),
                        radius_sq=math.inf, forward=lambda x: x + offset,
                        jacobian_apply=lambda x, v: 1.0 * v,
                        jacobian_adjoint_apply=lambda x, w: 1.0 * w)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("driver", ["exact", "noisy", "landweber", "lm_step"])
def test_overflowing_residual_norm(dim, driver):
    # ||r|| = inf from finite entries: every driver stops on the first
    # residual, before any step, and lm_step before its shift search, since
    # no shift meets an infinite target; the error names the residual, and
    # no floating-point warning is raised
    model, y, x0 = _offset_model(dim), np.zeros(dim), np.zeros(dim)
    cfg = SolverConfig(q=0.5, max_iters=3)
    what = "residual r" if driver == "lm_step" else r"residual y - F\(x\)"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergence,
                           match=f"^{what} has a norm that overflows to inf$"):
            if driver == "exact":
                run_exact(model, None, y, x0, cfg)
            elif driver == "noisy":
                run_noisy(model, None, y, x0, dataclasses.replace(
                    cfg, tau=2.0, delta=1e-3, stop_mode="discrepancy"))
            elif driver == "landweber":
                landweber_run(model, y, x0, 0.5, cfg)
            else:
                lm_step(model, x0, -np.full(dim, 1e200), 0.5)


@pytest.mark.parametrize("driver", ["exact", "landweber"])
def test_floor_of_data_whose_squared_norm_overflows(driver):
    # F(x) = x + 1e155 (J = I): ||y||^2 overflows, yet the machine-precision
    # floor 100 eps (1 + ||y||), about 3.1e141, stays finite, so a run that
    # starts at a residual of 1.41e143 steps until it falls below the floor
    shift = np.full(2, 1e155)
    model = ForwardModel(dim_x=2, dim_y=2, center=np.zeros(2),
                         radius_sq=math.inf, forward=lambda x: x + shift,
                         jacobian_apply=lambda x, v: 1.0 * v,
                         jacobian_adjoint_apply=lambda x, w: 1.0 * w)
    truth = np.array([3e142, -2e142])
    y, x0 = truth + shift, truth + 1e143
    cfg = SolverConfig(q=0.5, max_iters=50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if driver == "exact":
            trace = run_exact(model, truth, y, x0, cfg)
        else:
            trace = landweber_run(model, y, x0, None, cfg, x_dagger=truth)
    floor = 100.0 * np.finfo(float).eps * (1.0 + math.hypot(*y))
    residuals = trace.residuals()
    assert trace.terminal == "zero_residual"
    # y - F(x) rounds at the 2e139 spacing of floats near 1e155
    assert residuals[0] == pytest.approx(math.sqrt(2.0) * 1e143, rel=1e-3)
    assert trace.iterations >= 2
    assert residuals[-1] <= floor < residuals[-2]
    assert floor == pytest.approx(3.14e141, rel=1e-2)


def _assert_record(trace, x_dagger=None):
    """The trace keeps one iterate per record, ending at ``x_final``; each
    recorded step norm and ``gamma`` has the bits the iterates give."""
    iterates = trace.iterates
    assert len(iterates) == len(trace.records)
    assert trace.x_final is iterates[-1]
    for k, rec in enumerate(trace.records[1:]):
        step = vector_norm(iterates[k + 1] - iterates[k])
        assert float.hex(step) == float.hex(rec.step_norm)
    if x_dagger is not None:
        for point, rec in zip(iterates, trace.records):
            d = point - x_dagger
            assert float.hex(0.5 * float(np.add.reduce(d * d))) == \
                float.hex(rec.gamma)


def _traced_run(prob, driver):
    """``driver``'s trace on ``prob``, and the array it was handed as x0."""
    cfg = SolverConfig(q=0.5, max_iters=30)
    x0 = prob.default_x0.copy()
    if driver == "exact":
        tc = compute_constants_exact(prob.certificate, 0.5, strict=False)
        return run_exact(prob.model, prob.x_dagger, prob.y_exact, x0, cfg,
                         tc), x0
    if driver == "noisy":
        delta = 1e-3
        cfg = dataclasses.replace(cfg, tau=4.0, delta=delta,
                                  stop_mode="discrepancy")
        return run_noisy(prob.model, prob.x_dagger,
                         make_noise(prob.y_exact, delta, 7), x0, cfg), x0
    if driver == "landweber":
        return landweber_run(prob.model, prob.y_exact, x0, None, cfg,
                             x_dagger=prob.x_dagger), x0
    # the reconstructions start at the scanned point the summary reports;
    # exp-decay runs on the run-scale constants of the c07 presets
    cert = prob.certificate
    if prob.id == "exp-decay":
        cert = dataclasses.replace(cert, lip_deriv=0.5, holder_const=0.81,
                                   recon_const=2.0, provenance="user")
    q_op = MeasurementOperator.identity(prob.model.dim_y)
    if driver == "reconstruct-exact":
        _, trace = reconstruct_exact(prob.model, q_op, prob.default_box, cert,
                                     0.5, 1e-10, prob.y_exact,
                                     x_dagger=prob.x_dagger)
    else:
        delta = 1e-3 if prob.id == "exp-decay" else 1e-6
        _, trace = reconstruct_noisy(prob.model, q_op, prob.default_box, cert,
                                     0.5, 4.0, delta,
                                     make_noise(prob.y_exact, delta, 55), 200,
                                     x_dagger=prob.x_dagger)
    return trace, trace.recon.x0


@pytest.mark.parametrize("driver", ["exact", "noisy", "landweber",
                                    "reconstruct-exact", "reconstruct-noisy"])
@pytest.mark.parametrize("pid", ["exp-decay", "quadratic-2d"])
def test_trace_keeps_every_iterate(pid, driver, gallery_problems):
    prob = gallery_problems[pid]
    trace, x0 = _traced_run(prob, driver)
    assert trace.iterations > 0
    _assert_record(trace, prob.x_dagger)
    # the first iterate is a copy: the caller may reuse its array
    start = x0.copy()
    x0[:] = np.nan
    assert np.array_equal(trace.iterates[0], start)


@pytest.mark.parametrize("pid", ["exp-decay", "quadratic-2d"])
def test_trace_keeps_no_rejected_iterate(pid, gallery_problems):
    # the ball moves to the start and shrinks to 0.8 gamma_0, so the truth
    # lies outside; under "error" the update that leaves it ends the run
    # unrecorded, in the records and the iterates alike
    prob = gallery_problems[pid]
    radius_sq = 0.4 * float(np.sum((prob.default_x0 - prob.x_dagger) ** 2))
    model = recenter(prob.model, prob.default_x0, radius_sq)
    trace = run_exact(model, prob.x_dagger, prob.y_exact, prob.default_x0,
                      SolverConfig(q=0.5, max_iters=30, domain_mode="error"))
    assert trace.terminal == "domain_violation"
    assert trace.iterations > 0
    _assert_record(trace, prob.x_dagger)
    assert all(check_domain(model, x) for x in trace.iterates)


@pytest.mark.parametrize("block", [1, 2, 7])
def test_record_columns_keep_their_bits_across_stack_blocks(block, monkeypatch,
                                                            gallery_problems):
    # gamma and the step norm are filled after the run, STACK_BLOCK + 1
    # stacked iterates at a time; blocks of 1, 2 and 7 put block edges all
    # over these runs, and every row keeps the bits its iterates give it
    monkeypatch.setattr(engine, "STACK_BLOCK", block)
    prob = gallery_problems["quadratic-2d"]
    cfg = SolverConfig(q=0.5, max_iters=40, domain_mode="warn")
    trace = landweber_run(prob.model, prob.y_exact, prob.default_x0, None, cfg,
                          x_dagger=prob.x_dagger)
    assert trace.iterations > 2 * block
    _assert_record(trace, prob.x_dagger)
    target = dataclasses.replace(cfg, stop_mode="target_error", target_gamma=1e-20)
    trace = run_exact(prob.model, prob.x_dagger, prob.y_exact, prob.default_x0,
                      target)
    assert trace.iterations > 2 * block
    _assert_record(trace, prob.x_dagger)
    # F(x) = 1e-10 x with y = (1e150, 1e150): the squares of the first 20
    # step norms overflow and those of the rest do not
    model = linear_model(1e-10 * np.eye(2), radius_sq=math.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = run_exact(model, None, np.full(2, 1e150), np.zeros(2),
                          dataclasses.replace(cfg, max_iters=30))
    norms = [rec.step_norm for rec in trace.records[1:]]
    assert norms[19] * norms[19] == math.inf > norms[20] * norms[20]
    _assert_record(trace)


NARROW = ("scalar-linear", "exp-decay", "exp-decay-2pt", "quadratic-2d",
          "quadratic-3d")


@settings(max_examples=60, deadline=None)
@given(pid=st.sampled_from(NARROW), seed=st.integers(0, 2**32 - 1),
       distance=st.floats(1e-3, 0.3), exponent=st.floats(-30.0, -2.0),
       q=st.floats(0.1, 0.9))
def test_target_stop_reads_the_columns_a_budget_run_records(pid, seed, distance,
                                                            exponent, q):
    # the loop takes gamma per update only under a target_error stop; the
    # other runs get theirs after the run.  From one start both record the
    # same bits on their common rows, and the target run stops at the first
    # row whose recorded gamma reaches the target
    prob = get_problem(pid)
    direction = np.random.default_rng(seed).standard_normal(prob.model.dim_x)
    x0 = prob.x_dagger + distance * direction / np.linalg.norm(direction)
    target_gamma = 10.0 ** exponent
    budget = SolverConfig(q=q, max_iters=30, domain_mode="warn")
    target = dataclasses.replace(budget, stop_mode="target_error",
                                 target_gamma=target_gamma)

    def columns(cfg):
        trace = run_exact(prob.model, prob.x_dagger, prob.y_exact, x0, cfg)
        return trace.terminal, [
            (rec.k, rec.residual.hex(), rec.gamma.hex(),
             None if rec.step_norm is None else rec.step_norm.hex())
            for rec in trace.records]

    _, budget_rows = columns(budget)
    terminal, target_rows = columns(target)
    assert target_rows == budget_rows[:len(target_rows)]
    gammas = [float.fromhex(row[2]) for row in target_rows]
    assert all(gamma > target_gamma for gamma in gammas[:-1])
    if terminal == "target_reached":
        assert gammas[-1] <= target_gamma
    elif terminal == "budget_exhausted":
        assert gammas[-1] > target_gamma


def test_trace_of_infeasible_first_step():
    # r = (0, 1) is orthogonal to range(J): no step is taken, and the trace
    # keeps the start alone
    trace = run_exact(linear_model([[1.0], [0.0]]), None, [0.0, 1.0], [0.0],
                      SolverConfig(q=0.5, max_iters=5))
    assert trace.terminal == "root_infeasible"
    _assert_record(trace)
    assert trace.iterates == [np.zeros(1)]


@pytest.mark.parametrize("provenance", PROVENANCES)
def test_provenance_table_decides_arming(provenance):
    # on quadratic-2d every other hypothesis of both drivers holds, so the
    # certificate's provenance alone decides whether a guarantee arms
    prob = get_problem("quadratic-2d")
    cert = dataclasses.replace(prob.certificate, provenance=provenance)
    exact = run_exact(prob.model, prob.x_dagger, prob.y_exact, prob.default_x0,
                      SolverConfig(q=0.5, max_iters=5),
                      compute_constants_exact(cert, 0.5))
    noisy = run_noisy(prob.model, prob.x_dagger, prob.y_exact, prob.default_x0,
                      SolverConfig(q=0.5, max_iters=5, tau=4.0, delta=1e-3,
                                   stop_mode="discrepancy"),
                      compute_constants_noisy(cert, 0.5, 4.0, delta=1e-3))
    for trace in (exact, noisy):
        assert trace.hypothesis.cert_provenance == provenance
        assert trace.hypothesis.armed is PROVENANCES[provenance]


def _rows(*cells):
    """Trace rows with the given ``(gamma, step_norm)``."""
    return [TraceRecord(k, None, 1.0, gamma, step_norm, None)
            for k, (gamma, step_norm) in enumerate(cells)]


class TestMonotonicity:
    @pytest.mark.parametrize("gamma", [0.0, 1e-3, 0.5, 1.0, 3.0, 1e6])
    def test_gamma_rise_at_the_slack_passes_one_ulp_more_fails(self, gamma):
        edge = gamma + _REL_SLACK * max(gamma, 1.0)
        assert monotonicity(_rows((gamma, None), (edge, 0.0)))[0]
        above = math.nextafter(edge, math.inf)
        assert not monotonicity(_rows((gamma, None), (above, 0.0)))[0]

    @pytest.mark.parametrize("step_norm", [1e-5, 1e-3, 0.5, 2.0])
    def test_error_decrease_equal_to_the_bound_fails(self, step_norm):
        # from gamma to 0 the decrease is 2 gamma, exactly the bound
        bound = step_norm**2 - 1e-12
        gamma = bound / 2.0
        assert not monotonicity(_rows((gamma, None), (0.0, step_norm)))[1]
        above = math.nextafter(gamma, math.inf)
        assert monotonicity(_rows((above, None), (0.0, step_norm))) == (True, True)

    def test_every_step_is_judged(self):
        rows = _rows((1.0, None), (0.5, 0.1), (0.75, 0.1), (0.5, 0.1))
        assert monotonicity(rows) == (False, False)
        assert monotonicity(rows[:2]) == (True, True)
        assert monotonicity(rows[2:]) == (True, True)
        assert monotonicity(rows[:1]) == (True, True)

    def test_nan_fails_only_the_error_decrease(self):
        assert monotonicity(_rows((1.0, None), (math.nan, 0.1))) == (True, False)
        assert monotonicity(_rows((math.nan, None), (0.5, 0.1))) == (True, False)
        assert monotonicity(_rows((1.0, None), (0.5, math.nan))) == (True, False)


def _assert_read_off_the_trace_file(trace):
    text = tracefile.dumps(tracefile.TraceFile.from_trace(trace, {}))
    rows = tracefile.loads(text).rows
    columns = [(rec.gamma, rec.step_norm) for rec in trace.records]
    assert [(row.gamma, row.step_norm) for row in rows] == columns
    assert columns[0][0] is not None
    assert monotonicity(rows) == monotonicity(trace.records)


# every pinned driver trace has the truth, and its verdict on the rows a trace
# file reads back is the verdict on the run's own records
@pytest.mark.parametrize("driver", PINNED_DRIVERS)
@pytest.mark.parametrize("pid", PINNED_TRACES)
def test_monotonicity_is_read_off_the_trace_file(pid, driver, gallery_problems):
    _assert_read_off_the_trace_file(pinned_trace(gallery_problems[pid], driver)[0])


@pytest.mark.parametrize("driver", ["exact", "noisy", "landweber"])
@pytest.mark.parametrize("shape", PINNED_TALL_TRACES)
def test_tall_monotonicity_is_read_off_the_trace_file(shape, driver):
    _assert_read_off_the_trace_file(tall_trace(shape, driver)[0])
