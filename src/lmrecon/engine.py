"""Iteration drivers and the convergence-theory constant calculators.

``run_exact`` and ``run_noisy`` drive the Levenberg-Marquardt update from
:mod:`lmrecon.step` through one iteration loop, ``_iterate``; every step's
diagnostics land in an :class:`IterationTrace`.  The loop evaluates F once
per iterate and applies the admissible-ball policy to every update; the
steps are functions of the iterate and its residual.  The constant
calculators evaluate, literally, the formulas that the convergence
guarantees are stated in terms of, and each run carries those constants and
a hypothesis report so that rate checks can distinguish "the theory applies
and must hold" from "exploratory run, observe only".

A plain Landweber driver, run by the same loop, is the comparison baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    ConditionViolated,
    ConfigInvalid,
    DivergenceDetected,
    RootInfeasible,
)
from .operators import (
    PROVENANCES,
    STACK_BLOCK,
    ForwardModel,
    StabilityCertificate,
    apply_forward,
    as_vector,
    check_domain,
    domain_violation,
    finite_norm,
    jacobian_norms,
    require_finite,
    require_in_domain,
    row_norms,
    vector_norm,
)
from .step import StepDiagnostics, lm_step

STOP_MODES = ("fixed_budget", "target_error", "discrepancy")

# Residuals below this multiple of machine epsilon (times the data scale) are
# dominated by rounding noise in y - F(x); the iteration stops there.
_FLOOR_EPS = 100.0 * np.finfo(float).eps


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters: contraction factor q, stopping rule, budgets, and the
    admissible-ball policy ``domain_mode`` ("error" or "warn")."""

    q: float
    max_iters: int
    tau: float | None = None
    delta: float = 0.0
    tol_alpha: float = 1e-10
    stop_mode: str = "fixed_budget"
    target_gamma: float | None = None
    domain_mode: str = "error"

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise ConfigInvalid(f"q = {self.q} must lie in the open interval (0, 1)")
        if self.max_iters < 0:
            raise ConfigInvalid("max_iters must be >= 0")
        if not 0.0 < self.tol_alpha < math.inf:
            raise ConfigInvalid("tol_alpha must be positive and finite")
        if self.stop_mode not in STOP_MODES:
            raise ConfigInvalid(f"stop_mode must be one of {STOP_MODES}")
        if self.stop_mode == "discrepancy":
            if self.tau is None or not 1.0 < self.tau < math.inf:
                raise ConfigInvalid("discrepancy stopping requires tau > 1 and finite")
            if not 0.0 <= self.delta < math.inf:
                raise ConfigInvalid("delta must be >= 0 and finite")
        if self.stop_mode == "target_error":
            if self.target_gamma is None or not 0.0 < self.target_gamma < math.inf:
                raise ConfigInvalid(
                    "target_error stopping requires target_gamma > 0 and finite")
        if self.domain_mode not in ("error", "warn"):
            raise ConfigInvalid("domain_mode must be 'error' or 'warn'")


@dataclass(frozen=True)
class TheoryConstantsExact:
    """Constants of the exact-data convergence guarantee."""

    rho: float
    c: float
    q_condition_ok: bool
    rho_lt_rho_prime: bool
    cert_provenance: str = "user"


@dataclass(frozen=True)
class TheoryConstantsNoisy:
    """Constants of the noisy-data guarantee (discrepancy stopping)."""

    rho: float
    R: float
    kstar_bound: int | None
    c_prime_coeff: float
    rho_lt_rho_prime: bool
    cert_provenance: str = "user"
    nu_bound: float | None = None


@dataclass
class HypothesisReport:
    """Which theorem hypotheses verifiably hold for a given run."""

    q_condition_ok: bool | None = None
    rho_lt_rho_prime: bool | None = None
    x0_condition_ok: bool | None = None
    r_positive: bool | None = None
    nu_additional_ok: bool | None = None
    cert_provenance: str | None = None
    armed: bool = False


@dataclass
class TraceRecord:
    """One trace row; row 0 is the initial state with alpha unset."""

    k: int
    alpha: float | None
    residual: float
    gamma: float | None
    step_norm: float | None
    mdp_prime_rel_err: float | None


@dataclass
class IterationTrace:
    """Complete record of one solver run; ``iterates[k]`` is the iterate of
    ``records[k]``, ``x_final`` the last of them, and ``y_obs`` the data
    the run fitted; :mod:`lmrecon.checks` judges the guarantees off it.
    The records' gamma and step-norm columns are read off the iterates once
    the run has ended, with the bits a per-step evaluation gives them."""

    records: list[TraceRecord]
    terminal: str
    iterates: list[np.ndarray]
    k_star: int | None = None
    step_diagnostics: list[StepDiagnostics] = field(default_factory=list)
    hypothesis: HypothesisReport | None = None
    y_obs: np.ndarray | None = None
    warnings: list[str] = field(default_factory=list)
    recon: object | None = None
    constants: TheoryConstantsExact | TheoryConstantsNoisy | None = None

    @property
    def x_final(self) -> np.ndarray:
        return self.iterates[-1]

    @property
    def iterations(self) -> int:
        return len(self.records) - 1

    def residuals(self) -> np.ndarray:
        return np.array([rec.residual for rec in self.records])

    def gammas(self) -> np.ndarray:
        return np.array(
            [rec.gamma if rec.gamma is not None else np.nan for rec in self.records]
        )


def _power(base: float, exponent: float) -> float:
    """``base ** exponent``, or inf where the float result overflows."""
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


def _out_of_range(q: float) -> ConditionViolated:
    """The error for certificate constants whose theory constants at ``q``
    overflow, or divide by a product that underflows to 0.  Without
    ``strict`` those constants are NaN instead, and nothing is armed."""
    return ConditionViolated(
        f"the certificate constants and q = {q:.6g} put a theory constant "
        "outside the float range"
    )


def _big_r(q: float, tau: float) -> float:
    """The noisy-data margin ``R = 3/4 - (1/q + 1/4)/tau``, which the
    guarantees need positive."""
    return 0.75 - (1.0 / q + 0.25) / tau


def compute_constants_exact(cert: StabilityCertificate, q: float,
                            strict: bool = True) -> TheoryConstantsExact:
    """Evaluate the exact-data guarantee constants for the given certificate.

    With ``strict`` (the default) a failed hypothesis raises
    :class:`ConditionViolated`; otherwise the flags record the failure and the
    caller is expected to treat any rate claims as observations only.
    """
    if not 0.0 < q < 1.0:
        raise ConfigInvalid("q must lie in (0, 1)")
    lip, jac, cf, eps = (cert.lip_deriv, cert.jac_bound,
                         cert.holder_const, cert.holder_eps)
    try:
        den = 2.0 * jac**2 * cf ** (4.0 / (1.0 + eps))
        q_ok = q * (1.0 - q) < den
        rho = 1.0 / (2.0 * jac**2) * _power(q / (2.0 * lip * cf**2), 2.0 / eps)
        c = q * (1.0 - q) / den
    except (OverflowError, ZeroDivisionError) as exc:
        if strict:
            raise _out_of_range(q) from exc
        q_ok, rho, c = False, math.nan, math.nan
    rho_ok = rho < cert.domain_rho_prime
    if strict:
        if not q_ok:
            raise ConditionViolated(
                f"q(1-q) = {q * (1 - q):.6g} must be < {den:.6g}; adjust q"
            )
        if not rho_ok:
            raise ConditionViolated(
                f"rho = {rho:.6g} must be < rho' = {cert.domain_rho_prime:.6g}; "
                "adjust q or enlarge the admissible ball"
            )
    return TheoryConstantsExact(
        rho=rho, c=c, q_condition_ok=q_ok, rho_lt_rho_prime=rho_ok,
        cert_provenance=cert.provenance,
    )


def compute_constants_noisy(cert: StabilityCertificate, q: float, tau: float,
                            delta: float | None = None,
                            strict: bool = True) -> TheoryConstantsNoisy:
    """Evaluate the noisy-data guarantee constants; errors if R <= 0."""
    if not 0.0 < q < 1.0:
        raise ConfigInvalid("q must lie in (0, 1)")
    if not 1.0 < tau < math.inf:
        raise ConfigInvalid("tau must be > 1 and finite")
    lip, jac, cf, eps = (cert.lip_deriv, cert.jac_bound,
                         cert.holder_const, cert.holder_eps)
    big_r = _big_r(q, tau)
    try:
        rho = 1.0 / (2.0 * jac**2) * _power(q / (4.0 * lip * cf**2), 2.0 / eps)
        c_prime_coeff = q * (1.0 - q) * tau**2 * big_r / jac**2
    except (OverflowError, ZeroDivisionError) as exc:
        if strict:
            raise _out_of_range(q) from exc
        rho = c_prime_coeff = math.nan
    rho_ok = rho < cert.domain_rho_prime
    if strict:
        if not big_r > 0:
            raise ConditionViolated(
                f"R = 3/4 - (1/q + 1/4)/tau = {big_r:.6g} must be positive; "
                "increase tau"
            )
        if not rho_ok:
            raise ConditionViolated(
                f"rho = {rho:.6g} must be < rho' = {cert.domain_rho_prime:.6g}"
            )
    tc = TheoryConstantsNoisy(
        rho=rho, R=big_r, kstar_bound=None,
        c_prime_coeff=c_prime_coeff,
        rho_lt_rho_prime=rho_ok, cert_provenance=cert.provenance,
        nu_bound=nu_additional_bound(cert) if eps == 1.0 else None,
    )
    if delta is not None and delta > 0 and big_r > 0:
        tc = replace(tc, kstar_bound=kstar_upper_bound(tc, cert, q, tau, delta))
    return tc


def rate_bound(k: int, tc: TheoryConstantsExact, eps: float) -> float:
    """Guaranteed upper bound on gamma_k = 0.5 ||x_k - x_truth||^2."""
    if eps == 1.0:
        return tc.rho * (1.0 - tc.c) ** k
    p = (1.0 - eps) / (1.0 + eps)
    return (tc.c * k * p + tc.rho ** (-p)) ** (-1.0 / p)


def iterations_for_accuracy(target_gamma: float, tc: TheoryConstantsExact,
                            eps: float) -> int:
    """Smallest M with ``rate_bound(M) <= target_gamma``.

    ``rate_bound`` does not increase with M, so M is bracketed by doubling
    from 1 and then bisected.  Raises :class:`ConditionViolated` when no M
    that a float can hold reaches the target: the contraction ``1 - c``
    rounds to 1, or the count overflows.
    """
    if not target_gamma > 0:
        raise ValueError("target_gamma must be positive")
    if target_gamma >= tc.rho:
        return 0

    def reached(k):
        return rate_bound(k, tc, eps) <= target_gamma

    # lo and hi bracket the answer: lo = 0 or not reached(lo - 1), and
    # reached(hi)
    lo, hi = 0, 1
    try:
        while not reached(hi):
            lo, hi = hi + 1, 2 * hi
    except (OverflowError, ZeroDivisionError) as exc:
        raise ConditionViolated(
            "no iteration count a float can hold takes the rate bound to "
            f"target_gamma = {target_gamma:.6g}"
        ) from exc
    while lo < hi:
        mid = (lo + hi) // 2
        if reached(mid):
            hi = mid
        else:
            lo = mid + 1
    return hi


def kstar_upper_bound(tc: TheoryConstantsNoisy, cert: StabilityCertificate,
                      q: float, tau: float, delta: float) -> int | None:
    """floor( Lhat^2 rho / (q (1-q) R (tau delta)^2) ), or None when that is
    no finite float (``(tau delta)^2`` underflows to 0, or the quotient
    overflows): no finite bound, so nothing is armed on it."""
    if not delta > 0:
        raise ValueError("delta must be positive")
    if not tc.R > 0:
        raise ConditionViolated("R must be positive for the stopping-index bound")
    den = q * (1.0 - q) * tc.R * _power(tau * delta, 2)
    bound = _power(cert.jac_bound, 2) * tc.rho / den if den > 0.0 else math.inf
    return int(math.floor(bound)) if math.isfinite(bound) else None


def nu_additional_bound(cert: StabilityCertificate) -> float:
    """Upper limit on q for the logarithmic stopping estimate."""
    s = 2.0 * math.sqrt(2.0) * cert.jac_bound * cert.holder_const
    return s / (1.0 + s)


def tangential_cone_eta(cert: StabilityCertificate, rho_prime: float) -> float:
    """Linearization-error factor implied by the stability certificate.

    On a ball with parameter ``rho_prime`` the linearization error is bounded
    by this multiple of the data difference; below 1 it yields the classical
    tangential cone condition.  Shrinks with the ball:
    eta = (L/2) * (2 sqrt(2 rho'))^(2 eps/(1+eps)) * (sqrt(2) C_F)^(2/(1+eps)).
    """
    eps = cert.holder_eps
    diam = 2.0 * math.sqrt(2.0 * rho_prime)
    return (cert.lip_deriv / 2.0
            * diam ** (2.0 * eps / (1.0 + eps))
            * _power(math.sqrt(2.0) * cert.holder_const, 2.0 / (1.0 + eps)))


def qtilde(q: float, cert: StabilityCertificate, initial_error: float) -> float:
    """Effective residual contraction factor under the extra smallness condition.

    ``initial_error`` is ``||x0 - x_truth||``.  Requires the Lipschitz case
    (eps = 1), q below :func:`nu_additional_bound`, and the initial error small
    enough that the denominator stays positive.
    """
    if cert.holder_eps != 1.0:
        raise ConditionViolated("the logarithmic stopping estimate needs eps = 1")
    if not 0.0 < q < nu_additional_bound(cert):
        raise ConditionViolated(
            f"q = {q} violates q < {nu_additional_bound(cert):.6g}"
        )
    s = cert.lip_deriv * cert.holder_const / math.sqrt(2.0) * initial_error
    if not s < 1.0:
        raise ConditionViolated(
            "initial error too large: L*C_F/sqrt(2) * e0 must be < 1"
        )
    return (q + s) / (1.0 - s)


def kstar_log_estimate(q_tilde: float, r0_norm: float, tau: float,
                       delta: float) -> int:
    """ceil(1 + log(||r0|| / (tau delta)) / log(1 / q_tilde)); where the
    quotient overflows, its log is taken as a difference of logs.  Raises
    ``ValueError`` unless ``delta`` is positive, as
    :func:`kstar_upper_bound` does."""
    if not delta > 0:
        raise ValueError("delta must be positive")
    if not 0.0 < q_tilde < 1.0:
        raise ConditionViolated("q_tilde must lie in (0, 1) for a finite estimate")
    if r0_norm <= tau * delta:
        return 0
    ratio = r0_norm / (tau * delta)
    log_ratio = (math.log(ratio) if ratio < math.inf
                 else math.log(r0_norm) - math.log(tau * delta))
    return int(math.ceil(1.0 + log_ratio / math.log(1.0 / q_tilde)))


def _iterate(model: ForwardModel, y_obs, x0, cfg: SolverConfig, step,
             x_dagger=None, hypothesis: HypothesisReport | None = None,
             constants=None) -> IterationTrace:
    """The one iteration loop behind every driver.

    ``step(x, r, residual)`` takes the iterate, its residual
    ``r = y - F(x)`` and ``residual = ||r||``, and returns
    ``(x_next, diag)``; ``diag`` is the step's :class:`StepDiagnostics`, or
    None for steps that keep none.  The loop owns the stopping rules, the
    terminals and the warnings.  It is the only code that evaluates F on an
    iterate (``residual_at``, once per iterate) and the only code that
    applies ``cfg.domain_mode`` to an update: under ``"error"`` an update
    outside the ball ends the run with terminal ``domain_violation`` and is
    not recorded; under ``"warn"`` it adds a warning and is recorded.  The
    trace keeps one iterate per record: a copy of ``x0``, then each recorded
    ``x_next``, which a step returns as a fresh array, and the data
    ``y_obs``.  Given the truth, a hypothesis report and the theory
    ``constants``, which the trace keeps, it checks the entry condition
    ``gamma_0 <= rho``, whose failure disarms the report and is a warning
    of the trace.  It judges no guarantee: :mod:`lmrecon.checks` reads the
    omega-condition and the monotonicity of gamma and of the error off the
    trace.

    Per update the loop computes only what a stopping rule or the ball
    policy reads: the step, the ball test (with the violation's message
    built only for an update outside the ball), F and ``||r||``, by
    :func:`lmrecon.operators.finite_norm` in ``residual_at``, which reads
    r's finiteness off that norm and raises :class:`NonConvergence` when it
    overflows, as :func:`lm_step` does.  ``step`` receives ``||r||``, and
    neither step takes it again: an LM step hands it to :func:`lm_step` as
    ``rnorm``.  Given the truth, gamma is taken once for ``gamma_0`` and
    then per update only under a ``target_error`` stop, which reads it.
    The loop keeps ``||r_k||``, those gammas and the step diagnostics in
    lists; :func:`_records` builds the records from them after the run and
    fills the record-only columns, the other gammas and every step norm,
    in one array pass over the kept iterates.
    """
    x = as_vector(x0, model.dim_x, "x0")
    y_obs = as_vector(y_obs, model.dim_y, "y_obs")
    truth = x_dagger is not None
    if truth:
        x_dagger = as_vector(x_dagger, model.dim_x, "x_dagger")
    threshold = cfg.tau * cfg.delta if cfg.stop_mode == "discrepancy" else None

    trace = IterationTrace(records=[], terminal="budget_exhausted",
                           iterates=[x.copy()], hypothesis=hypothesis,
                           y_obs=y_obs, constants=constants)
    if cfg.domain_mode == "error":
        require_in_domain(model, x, "x0")
    elif not check_domain(model, x):
        trace.warnings.append("x0 lies outside the admissible ball")

    def gamma_at(point):
        d = point - x_dagger
        return 0.5 * float(np.add.reduce(d * d))

    gamma = gamma_at(x) if truth else None
    if truth and hypothesis is not None and constants is not None:
        hypothesis.x0_condition_ok = ok = gamma <= constants.rho
        if not ok:
            trace.warnings.append(f"entry condition fails: gamma_0 = "
                                  f"{gamma:.6g} > rho = {constants.rho:.6g}")
        hypothesis.armed = hypothesis.armed and ok
    # gamma of a later iterate only where a stopping rule reads it
    target = (cfg.target_gamma if cfg.stop_mode == "target_error" and truth
              else None)

    def residual_at(point):
        r = y_obs - apply_forward(model, point)
        return r, finite_norm(r, "residual y - F(x)")

    r, residual = residual_at(x)
    residuals = [residual]
    gammas = [gamma]
    diags = []
    floor = _FLOOR_EPS * (1.0 + vector_norm(y_obs))

    k = 0
    while True:
        if threshold is not None and residual <= threshold:
            trace.terminal = "discrepancy_stop"
            trace.k_star = k
            break
        if residual <= floor:
            trace.terminal = "zero_residual"
            if residual != 0.0:
                trace.warnings.append(
                    f"residual {residual:.3e} at the machine-precision floor; "
                    "treated as converged"
                )
            break
        if target is not None and gamma <= target:
            trace.terminal = "target_reached"
            break
        if k >= cfg.max_iters:
            trace.terminal = "budget_exhausted"
            if threshold is not None:
                trace.warnings.append(
                    "iteration budget exhausted before the discrepancy criterion"
                )
            break

        try:
            x_next, diag = step(x, r, residual)
        except RootInfeasible as exc:
            trace.terminal = "root_infeasible"
            trace.warnings.append(str(exc))
            break
        if not check_domain(model, x_next):
            trace.warnings.append(
                str(domain_violation(model, x_next, f"iterate {k + 1}")))
            if cfg.domain_mode == "error":
                trace.terminal = "domain_violation"
                break

        x = x_next
        r, residual = residual_at(x)
        if target is not None:
            gamma = gamma_at(x)
            gammas.append(gamma)
        k += 1
        residuals.append(residual)
        diags.append(diag)
        trace.iterates.append(x)

    trace.records = _records(trace.iterates, residuals, gammas, diags, x_dagger)
    trace.step_diagnostics = [diag for diag in diags if diag is not None]
    return trace


def _records(iterates, residuals, gammas, diags, x_dagger) -> list[TraceRecord]:
    """The trace rows of a finished run, one per iterate.

    The loop keeps ``||r_k||``, the step diagnostics and the gammas it
    computed: gamma_0, and under a ``target_error`` stop every later one.
    The record-only columns are filled here in one array pass over at most
    ``STACK_BLOCK + 1`` stacked iterates at a time, with the bits a per-row
    evaluation gives them: each step norm ``vector_norm(x_{k+1} - x_k)``'s,
    by :func:`row_norms`, whose rule it is, and each missing gamma
    ``0.5 * np.add.reduce(d * d)``'s with ``d = x_k - x_dagger``, which the
    reduction along a row takes by the same pairwise sum.  A run of no step
    stacks nothing.
    """
    if x_dagger is None:
        gammas = [None] * len(iterates)
    fill_gamma = len(gammas) < len(iterates)
    steps = [None]
    for start in range(0, len(iterates) - 1, STACK_BLOCK):
        xs = np.array(iterates[start:start + STACK_BLOCK + 1])
        steps += row_norms(xs[1:] - xs[:-1]).tolist()
        if fill_gamma:
            d = xs[1:] - x_dagger
            gammas += (0.5 * np.add.reduce(d * d, axis=1)).tolist()
    alphas = [None] + [None if diag is None else diag.alpha for diag in diags]
    mdp_errs = [None] + [None if diag is None else diag.mdp_prime_rel_err
                         for diag in diags]
    return [TraceRecord(*row) for row in zip(
        range(len(iterates)), alphas, residuals, gammas, steps, mdp_errs)]


def _lm_stepper(model: ForwardModel, cfg: SolverConfig):
    # ``lm_step`` is looked up at call time, so a profiler that wraps this
    # module's global sees every step.
    return lambda x, r, residual: lm_step(model, x, r, cfg.q,
                                          tol_alpha=cfg.tol_alpha, rnorm=residual)


def run_exact(model: ForwardModel, x_dagger, y, x0, cfg: SolverConfig,
              tc: TheoryConstantsExact | None = None) -> IterationTrace:
    """Drive the LM iteration on exact data until budget, target, or x = x_truth.

    When the ground truth is supplied, gamma_k is recorded per row, for
    ``verify`` to judge; the run makes the same model calls with the truth
    as without it.  The trace keeps the
    data and the iterates, at which ``verify`` checks the shift ceiling and
    the omega-condition (with omega = 2, as in the exact-data analysis).
    """
    if cfg.stop_mode == "discrepancy":
        raise ConfigInvalid("use run_noisy for discrepancy stopping")
    if cfg.stop_mode == "target_error" and x_dagger is None:
        raise ConfigInvalid("target_error stopping requires a ground truth")
    hyp = HypothesisReport()
    if tc is not None:
        hyp.q_condition_ok = tc.q_condition_ok
        hyp.rho_lt_rho_prime = tc.rho_lt_rho_prime
        hyp.cert_provenance = tc.cert_provenance
        hyp.armed = (tc.q_condition_ok and tc.rho_lt_rho_prime
                     and PROVENANCES.get(tc.cert_provenance, False))
    return _iterate(model, y, x0, cfg, _lm_stepper(model, cfg),
                    x_dagger=x_dagger, hypothesis=hyp, constants=tc)


def run_noisy(model: ForwardModel, x_dagger, y_delta, x0, cfg: SolverConfig,
              tc: TheoryConstantsNoisy | None = None) -> IterationTrace:
    """Drive the LM iteration on noisy data with discrepancy stopping.

    Stops at the first iterate whose residual is <= tau * delta and records
    that index as ``k_star`` (0 is allowed).  If the budget runs out first the
    trace is still returned, with terminal status ``budget_exhausted``.
    ``delta = 0`` degenerates to exact data with stopping threshold 0.
    ``verify`` checks the omega-condition on the trace, with
    ``omega = 1/(1 - R)``, where R is positive.
    """
    if cfg.stop_mode != "discrepancy":
        raise ConfigInvalid("run_noisy requires stop_mode = 'discrepancy'")
    hyp = HypothesisReport()
    hyp.r_positive = _big_r(cfg.q, cfg.tau) > 0
    if tc is not None:
        hyp.rho_lt_rho_prime = tc.rho_lt_rho_prime
        hyp.cert_provenance = tc.cert_provenance
        if tc.nu_bound is not None:
            hyp.nu_additional_ok = cfg.q < tc.nu_bound
        hyp.armed = (tc.R > 0 and tc.rho_lt_rho_prime
                     and PROVENANCES.get(tc.cert_provenance, False))
    return _iterate(model, y_delta, x0, cfg, _lm_stepper(model, cfg),
                    x_dagger=x_dagger, hypothesis=hyp, constants=tc)


def landweber_run(model: ForwardModel, y_obs, x0, step_scale: float | None,
                  cfg: SolverConfig, x_dagger=None) -> IterationTrace:
    """Gradient-descent baseline: x <- x + step_scale * J^T (y - F(x)).

    ``step_scale=None`` takes ``0.9 / ||J(x0)||^2``, with the spectral norm
    of the dense Jacobian.  Runs the LM drivers' loop, so it shares their
    stopping rules, terminals, warnings and domain policy, and its trace has
    the same format (alpha and the linearized-residual column stay unset);
    the step uses the loop's residual and its norm, and makes no forward
    call; the gradient ``J^T r`` is checked entry by entry only when
    ``g . g`` is not finite.  Raises
    :class:`DivergenceDetected` if the residual grows tenfold over its
    running minimum, :class:`ConditionViolated` if the step size is not
    positive and finite or violates ``step_scale * ||J||^2 <= 1`` at the
    starting point (or is left to the default while ``J(x0) = 0``), before
    any step, :class:`NonFiniteOutput` when the
    residual, ``J(x0)`` or ``J^T r`` holds NaN or inf, and
    :class:`NonConvergence` when the residual's norm overflows.
    """
    x = as_vector(x0, model.dim_x, "x0")
    y_obs = as_vector(y_obs, model.dim_y, "y_obs")
    jn = float(jacobian_norms(model, x[None], "Jacobian J(x)")[0])
    jn_sq = _power(jn, 2)
    if step_scale is None:
        if jn == 0.0:
            raise ConditionViolated("J(x0) = 0: no default step size exists")
        if not 0.0 < jn_sq < math.inf:
            raise ConditionViolated(
                f"||J(x0)||^2 = {jn_sq:.6g} is out of the float range: no "
                "default step size exists"
            )
        step_scale = 0.9 / jn_sq
    if not 0.0 < step_scale < math.inf:
        raise ConditionViolated(
            f"step_scale = {step_scale!r} must be positive and finite")
    if step_scale * jn_sq > 1.0 + 1e-9:
        raise ConditionViolated(
            f"step_scale * ||J||^2 = {step_scale * jn_sq:.6g} exceeds 1"
        )

    min_residual = math.inf
    k = 0

    def step(x, r, residual):
        nonlocal min_residual, k
        min_residual = min(min_residual, residual)
        if residual > 10.0 * min_residual:
            raise DivergenceDetected(
                f"residual {residual:.6g} grew 10x over its minimum "
                f"{min_residual:.6g} at step {k}"
            )
        k += 1
        g = as_vector(model.jacobian_adjoint_apply(x, r), model.dim_x, "J* r")
        require_finite(g, "gradient J* r")
        return x + step_scale * g, None

    return _iterate(model, y_obs, x, cfg, step, x_dagger=x_dagger)
