"""The paper's guarantees as properties of random problems that meet their
hypotheses.

Every problem is ``F(x) = A x + eta x∘x`` on the box ``[-b, b]^n``, with A
orthogonal and n <= 4, drawn with its closed-form certificate.  For a and c
in the box, ``F(a) - F(c) = (A + eta diag(a + c)) (a - c)`` and
``J(a) - J(c) = 2 eta diag(a - c)``, and every singular value of
``A + eta diag(v)`` with ``|v_i| <= 2b`` lies within ``2 eta b`` of 1 (Weyl).
With ``sigma = 1 - 2 eta b`` and ``diam = 2 b sqrt(n)`` this gives upper
bounds on the box, exact for A = I:

    jac_bound = forward_lip = 1 + 2 eta b,    lip_deriv = 2 eta,
    recon_const = 0.5 / sigma,
    holder_const = diam^((1 - eps)/2) / (sqrt(2) sigma^((1 + eps)/2)),

with ``domain_rho_prime = b^2 / 2``, the ball ``gallery._quadratic_model``
takes from the box.  Each test runs the drivers ``verify`` uses on a draw
whose hypotheses hold, and checks one guarantee at the slack the acceptance
tests and the verify rows use.
"""

import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lmrecon.checks import _tangential_cone_worst, monotonicity, omega_condition_holds
from lmrecon.cli import make_noise
from lmrecon.engine import (SolverConfig, compute_constants_exact, compute_constants_noisy,
                            iterations_for_accuracy, kstar_log_estimate, qtilde, rate_bound,
                            run_exact, run_noisy, tangential_cone_eta)
from lmrecon.errors import ConditionViolated
from lmrecon.gallery import INFLATION, _quadratic_model, estimate_stability_constants
from lmrecon.operators import ForwardModel, StabilityCertificate
from lmrecon.recon import (CompactBox, MeasurementOperator, lattice_radius, reconstruct_exact,
                           reconstruct_noisy)

B = 0.5
EXPONENTS = (1.0, 0.75, 0.5, 1.0 / 3.0)
# steps of an exact run: the rate bound is checked at every one of them
STEPS = 40
SEEDS = st.integers(0, 2**32 - 1)


class Quadratic(NamedTuple):
    model: ForwardModel
    box: CompactBox
    cert: StabilityCertificate


def closed_form_certificate(n: int, eta: float, eps: float) -> StabilityCertificate:
    sigma, diam = 1.0 - 2.0 * eta * B, 2.0 * B * math.sqrt(n)
    return StabilityCertificate(
        lip_deriv=2.0 * eta, jac_bound=1.0 + 2.0 * eta * B,
        holder_const=diam ** ((1.0 - eps) / 2.0)
        / (math.sqrt(2.0) * sigma ** ((1.0 + eps) / 2.0)),
        holder_eps=eps, domain_rho_prime=B * B / 2.0,
        forward_lip=1.0 + 2.0 * eta * B, recon_const=0.5 / sigma,
        # the one provenance that arms a guarantee; these constants are
        # proven, which is more than the oracle's sampled maxima are
        provenance="oracle-estimated")


@st.composite
def quadratics(draw, dims=st.integers(1, 4), etas=st.floats(0.2, 0.8),
               eps=st.just(1.0), orthogonal=st.booleans()):
    """``F(x) = A x + eta x∘x`` on ``[-b, b]^n`` with its certificate; A is
    the identity or a random orthogonal matrix."""
    n, eta, eps = draw(dims), draw(etas), draw(eps)
    a_mat = np.eye(n)
    if draw(orthogonal):
        a_mat = np.linalg.qr(np.random.default_rng(draw(SEEDS)).standard_normal((n, n)))[0]
    box = CompactBox(np.full(n, -B), np.full(n, B))
    return Quadratic(_quadratic_model(a_mat, eta, box), box,
                     closed_form_certificate(n, eta, eps))


class Setup(NamedTuple):
    prob: Quadratic
    q: float
    tc: object
    truth: np.ndarray
    x0: np.ndarray
    tau: float | None = None
    delta: float | None = None
    noise_seed: int = 0


def _start(seed: int, n: int, reach: float, rho: float):
    """A truth uniform in the ball of radius b/2 about the centre, and a
    start at ``reach`` times the largest distance that keeps ``gamma_0 <
    rho`` and the ball about the truth through the start inside the model's
    ball; by error monotonicity every iterate stays in that ball."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((2, n))
    truth = 0.5 * B * rng.random() ** (1.0 / n) * g[0] / np.linalg.norm(g[0])
    dist = reach * min(math.sqrt(2.0 * rho), B - float(np.linalg.norm(truth)))
    return truth, truth + dist * g[1] / np.linalg.norm(g[1])


@st.composite
def setups(draw, problems=quadratics(), noisy=False):
    """A problem, q, a truth and a start under which the exact-data rates
    arm, or with ``noisy`` the noisy-data guarantees: tau above the least
    value that keeps ``R > 0``, and a noise level with a finite bound on the
    stopping index."""
    prob, q = draw(problems), draw(st.floats(0.1, 0.9))
    if noisy:
        tau = (4.0 / q + 1.0) / 3.0 * draw(st.floats(1.05, 4.0))
        delta = 10.0 ** draw(st.floats(-8.0, -1.0))
        tc = compute_constants_noisy(prob.cert, q, tau, delta=delta, strict=False)
        assume(tc.rho_lt_rho_prime and tc.kstar_bound is not None)
        noise = (tau, delta, draw(SEEDS))
    else:
        tc = compute_constants_exact(prob.cert, q, strict=False)
        assume(tc.q_condition_ok and tc.rho_lt_rho_prime)
        noise = ()
    truth, x0 = _start(draw(SEEDS), prob.model.dim_x, draw(st.floats(0.01, 0.99)),
                       tc.rho)
    return Setup(prob, q, tc, truth, x0, *noise)


def armed_run(s: Setup, max_iters: int = STEPS):
    """The exact-data run of ``max_iters`` steps, or for a noisy setup the
    discrepancy-stopped run on a budget of the stopping-index bound."""
    y = s.prob.model.forward(s.truth)
    if s.tau is None:
        trace = run_exact(s.prob.model, s.truth, y, s.x0,
                          SolverConfig(q=s.q, max_iters=max_iters), s.tc)
    else:
        cfg = SolverConfig(q=s.q, max_iters=s.tc.kstar_bound, tau=s.tau,
                           delta=s.delta, stop_mode="discrepancy")
        trace = run_noisy(s.prob.model, s.truth, make_noise(y, s.delta, s.noise_seed),
                          s.x0, cfg, s.tc)
    assert trace.hypothesis.armed
    return trace


def _assert_rates(s: Setup):
    trace = armed_run(s)
    eps = s.prob.cert.holder_eps
    for k, gamma in enumerate(trace.gammas()):
        assert gamma <= rate_bound(k, s.tc, eps) * (1.0 + 1e-9), (k, gamma)


@settings(max_examples=40, deadline=None)
@pytest.mark.parametrize("orthogonal", [False, True], ids=["identity", "orthogonal"])
@given(data=st.data())
def test_exact_rate_bound(orthogonal, data):
    """Property 1: at eps = 1, gamma_k <= rho (1 - c)^k at every k."""
    _assert_rates(data.draw(setups(quadratics(orthogonal=st.just(orthogonal)))))


@settings(max_examples=25, deadline=None)
@pytest.mark.parametrize("eps", EXPONENTS[1:], ids=["3/4", "1/2", "1/3"])
@given(data=st.data())
def test_sublinear_rate_bound(eps, data):
    """Property 2: at eps < 1, gamma_k is under the sublinear rate bound."""
    _assert_rates(data.draw(setups(quadratics(eps=st.just(eps)))))


@settings(max_examples=40, deadline=None)
@given(s=setups())
def test_exact_run_is_monotone(s):
    """Property 3: the omega-condition holds, and the error and gamma do
    not increase."""
    trace = armed_run(s)
    assert omega_condition_holds(s.prob.model, trace, s.truth, s.q, 2.0)
    assert monotonicity(trace.records) == (True, True)


@settings(max_examples=40, deadline=None)
@given(s=setups())
def test_linearized_residual_identity(s):
    """Property 4: every step meets the Morozov identity within the verify
    row's tolerance."""
    tol_alpha = SolverConfig(q=s.q, max_iters=0).tol_alpha
    trace = armed_run(s)
    assert trace.step_diagnostics
    for diag in trace.step_diagnostics:
        assert diag.mdp_prime_rel_err <= max(1e-8, 2.0 * tol_alpha * s.q)


@settings(max_examples=40, deadline=None)
@given(s=setups(quadratics(eps=st.sampled_from(EXPONENTS))),
       decades=st.floats(0.0, 8.0))
def test_budget_for_accuracy_reaches_the_target(s, decades):
    """Property 5: a run of ``iterations_for_accuracy(target)`` steps ends
    with gamma <= target."""
    target = s.tc.rho * 10.0 ** -decades
    try:
        budget = iterations_for_accuracy(target, s.tc, s.prob.cert.holder_eps)
    except ConditionViolated:
        assume(False)
    trace = armed_run(s, max_iters=budget)
    assert trace.gammas()[-1] <= target


@settings(max_examples=40, deadline=None)
@given(s=setups(noisy=True))
def test_discrepancy_stop_is_sound_and_bounded(s):
    """Property 6: k* is the first index with residual <= tau delta, and
    k* <= kstar_upper_bound."""
    trace = armed_run(s)
    res, k_star = trace.residuals(), trace.k_star
    assert trace.terminal == "discrepancy_stop"
    assert np.all(res[:k_star] > s.tau * s.delta) and res[k_star] <= s.tau * s.delta
    assert k_star <= s.tc.kstar_bound


@settings(max_examples=40, deadline=None)
@given(s=setups(noisy=True))
def test_residuals_contract_by_qtilde(s):
    """Property 7: up to k* each residual ratio is <= q~, k* is within the
    logarithmic estimate, and gamma does not increase."""
    trace = armed_run(s)
    res = trace.residuals()
    try:
        qt = qtilde(s.q, s.prob.cert, float(np.linalg.norm(s.x0 - s.truth)))
        log_bound = kstar_log_estimate(qt, float(res[0]), s.tau, s.delta)
    except ConditionViolated:
        assume(False)
    assert np.all(res[1:] / res[:-1] <= qt + 1e-9)
    assert trace.k_star <= log_bound
    assert monotonicity(trace.records)[0]


@settings(max_examples=15, deadline=None)
@given(prob=quadratics(eps=st.sampled_from(EXPONENTS)))
def test_tangential_cone_at_the_verify_radius(prob):
    """Property 8: the linearization error is within eta of the data
    difference on the ball ``verify_rows`` derives: rho' shrunk until the
    implied eta is below 1."""
    cert = prob.cert
    rho_tc = cert.domain_rho_prime
    eta = tangential_cone_eta(cert, rho_tc)
    if eta >= 1.0:
        rho_tc *= (0.9 / eta) ** ((1.0 + cert.holder_eps) / cert.holder_eps)
        eta = tangential_cone_eta(cert, rho_tc)
    assert _tangential_cone_worst(prob.model, eta, math.sqrt(2.0 * rho_tc)) <= 1.0


@settings(max_examples=10, deadline=None)
@given(prob=quadratics(dims=st.integers(1, 3), eps=st.sampled_from(EXPONENTS)),
       seed=SEEDS)
def test_sampled_constants_within_closed_forms(prob, seed):
    """Property 9: the oracle's sampled maxima never exceed the closed forms
    (at n <= 3, since the oracle's grid has 4^n points).

    ``lip_deriv`` is left out: on close pairs ``||J(a) - J(b)||`` is a
    difference of rounded Jacobians, and its ratio to ``2 eta ||a - b||``
    can exceed 1 by about 1e-12 at n = 1.
    """
    est = estimate_stability_constants(prob.model, prob.box, prob.cert.holder_eps,
                                       seed=seed)
    for name in ("jac_bound", "forward_lip", "recon_const", "holder_const"):
        assert getattr(est, name) / INFLATION <= getattr(prob.cert, name) * (1.0 + 1e-12), name


@st.composite
def reconstructions(draw, noisy: bool):
    """A problem with n <= 2 and eta <= 0.3, a truth in the inner half of
    the box, and q in [0.3, 0.7] drawn from the range where the constants
    arm (``rho < rho'``) and the lattice has at most 4900 points.  At
    eps = 1, rho grows as q^2, and while rho < 2 so does the lattice radius."""
    prob = draw(quadratics(dims=st.integers(1, 2), etas=st.floats(0.2, 0.3)))
    n = prob.model.dim_x
    # the noisy rho is that of any tau, and a quarter of the exact one
    rho_half = compute_constants_exact(prob.cert, 0.5, strict=False).rho / (4.0 if noisy else 1.0)
    q_hi = 0.5 * math.sqrt(prob.cert.domain_rho_prime / rho_half)
    cells = math.floor(4900 ** (1.0 / n))
    q_lo = 0.5 * math.sqrt(B * math.sqrt(n) / cells / lattice_radius(prob.cert, rho_half))
    lo, hi = max(0.3, q_lo), min(0.7, q_hi)
    assume(lo < hi)
    q = lo + draw(st.floats(0.0, 1.0, exclude_max=True)) * (hi - lo)
    # q rounds to q_hi when the draw is within an ulp of 1, and rho(q_hi)
    # rounds to rho' itself, so the bound is checked at the q drawn
    rho = compute_constants_exact(prob.cert, q, strict=False).rho / (4.0 if noisy else 1.0)
    assume(rho < prob.cert.domain_rho_prime)
    truth = np.array(draw(st.lists(st.floats(-B / 2, B / 2), min_size=n, max_size=n)))
    return prob, q, truth


@settings(max_examples=25, deadline=None)
@pytest.mark.parametrize("noisy", [False, True], ids=["exact", "noisy"])
@given(data=st.data())
def test_reconstruction_lands_near_the_truth(noisy, data):
    """Property 10: the exact reconstruction ends within sqrt(2 target) of
    the truth, and the noisy one within 2 C~ (tau + 1) delta."""
    prob, q, truth = data.draw(reconstructions(noisy))
    q_op = MeasurementOperator.identity(prob.model.dim_y)
    y = prob.model.forward(truth)
    if not noisy:
        x, _ = reconstruct_exact(prob.model, q_op, prob.box, prob.cert, q, 1e-10, y,
                                 x_dagger=truth)
        assert np.linalg.norm(x - truth) <= math.sqrt(2e-10)
        return
    tau = (4.0 / q + 1.0) / 3.0 * data.draw(st.floats(1.05, 4.0))
    delta = 10.0 ** data.draw(st.floats(-8.0, -4.0))
    x, trace = reconstruct_noisy(prob.model, q_op, prob.box, prob.cert, q, tau, delta,
                                 make_noise(y, delta, data.draw(SEEDS)), 200,
                                 x_dagger=truth)
    assert trace.terminal == "discrepancy_stop"
    assert np.linalg.norm(x - truth) <= 2.0 * prob.cert.recon_const * (tau + 1.0) * delta
