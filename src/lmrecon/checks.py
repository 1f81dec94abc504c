"""The checks behind ``lmrecon verify``: operator identities, the paper's
guarantees on an exact and a noisy run, the tangential cone condition and a
fresh-seed certificate re-verification, one ``(name, status, detail)`` row
each.  A check whose hypothesis does not hold reports ``NOT ARMED``."""

from __future__ import annotations

import math

import numpy as np

# The oracle and the operator suites are called through their modules, so a
# profiler that wraps a module's functions sees the calls made from here.
from . import gallery, operators
from .engine import kstar_log_estimate, qtilde, rate_bound, tangential_cone_eta
from .errors import ConditionViolated
from .operators import (STACK_BLOCK, ForwardModel, apply_forward, forward_stack,
                        jacobian_stack, require_finite, row_norms, vector_norm)

VERIFY_SAMPLES = 10000
# slack for identities that hold exactly in the analysis but are evaluated in
# floating point
_REL_SLACK = 1e-12


def _tangential_cone_worst(model: ForwardModel, eta: float, rad: float) -> float:
    """Largest ``||F(a) - F(b) - J(a)(a - b)|| / (eta ||F(a) - F(b)||)`` over
    ``VERIFY_SAMPLES`` pairs drawn uniformly from the ball of radius ``rad``
    about the model's center.

    Each block draws ``2 STACK_BLOCK`` points from one seeded stream, the
    pairs' first points over their second points, as
    ``center + (rad U^(1/n) / ||g||) g`` with ``g`` standard normal in the
    model's ``n`` dimensions and ``U`` uniform (Muller 1959), so every draw
    lies in the ball in any dimension.  A pair with F(a) = F(b) is skipped.
    A block in which every pair is skipped ends the sampling (F does not
    separate points of a ball that small), and the largest ratio found so
    far is returned: NaN when there is none.  Raises
    :class:`NonFiniteOutput` when F at a drawn point, or J at a taken
    pair's first point, holds NaN or inf.

    F is taken once per block on the stacked points, and a block whose
    pairs are all taken is sliced rather than indexed.  Every ratio has the
    bits of a per-pair evaluation, by the ``ForwardModel`` batch contract.
    For n <= 2 the radius ``U^(1/n)`` is the identity or a square root,
    both correctly rounded; for n >= 3 it is numpy's vectorized pow, whose
    last bit can depend on the SIMD instructions numpy was built for.
    """
    rng = np.random.default_rng(17)
    worst = 0.0
    needed = VERIFY_SAMPLES
    k, n = STACK_BLOCK, model.dim_x
    while needed > 0:
        g = rng.standard_normal((2 * k, n))
        radii = rad * rng.random(2 * k) ** (1.0 / n)
        xs = model.center + (radii / row_norms(g))[:, None] * g
        f = forward_stack(model, xs)
        require_finite(f, "forward value at a tangential-cone pair")
        fd = f[:k] - f[k:]
        rhs = eta * row_norms(fd)
        apart = rhs != 0.0
        # a block whose pairs are all taken is sliced, without copies
        take = slice(needed) if apart.all() else np.flatnonzero(apart)[:needed]
        x_a, x_b, fd, rhs = xs[:k][take], xs[k:][take], fd[take], rhs[take]
        if not rhs.shape[0]:
            break
        jac = jacobian_stack(model, x_a)
        require_finite(jac, "Jacobian at a tangential-cone pair")
        jd = (jac @ (x_a - x_b)[:, :, None])[:, :, 0]
        worst = float(np.fmax.reduce(row_norms(fd - jd) / rhs, initial=worst))
        needed -= rhs.shape[0]
    return worst if needed < VERIFY_SAMPLES else math.nan


def omega_condition_holds(model: ForwardModel, trace, x_dagger, q: float,
                          omega: float) -> bool:
    """Whether the omega-condition, the linearization bound under which the
    error decreases (Hanke 1997),
    ``||r_k - J(x_k)(x_dagger - x_k)|| <= (q/omega) ||r_k||``, holds up to a
    relative ``_REL_SLACK`` at every iterate ``x_k`` of ``trace`` that took
    a recorded step, with ``r_k = trace.y_obs - F(x_k)`` and ``||r_k||`` the
    record's residual; a NaN side does not fail it."""
    def holds(x, residual):
        r = trace.y_obs - apply_forward(model, x)
        lhs = vector_norm(r - model.jacobian_apply(x, x_dagger - x))
        return not lhs > (q / omega) * residual * (1.0 + _REL_SLACK)

    return all(holds(x, rec.residual)
               for x, rec in zip(trace.iterates[:trace.iterations], trace.records))


def monotonicity(records) -> tuple[bool, bool]:
    """``(gamma_monotone, error_monotone)`` over each step k -> k + 1 of a
    run's rows: ``gamma_{k+1} <= gamma_k + _REL_SLACK max(gamma_k, 1)``, and
    the Lyapunov decrease ``2 gamma_k - 2 gamma_{k+1} > step_norm_{k+1}^2 -
    1e-12`` (Hanke 1997), which a NaN fails.  Reads only the ``gamma`` and
    ``step_norm`` columns, which a trace file keeps bit for bit."""
    pairs = list(zip(records, records[1:]))
    gamma_monotone = not any(
        b.gamma > a.gamma + _REL_SLACK * max(a.gamma, 1.0) for a, b in pairs)
    error_monotone = all(
        2.0 * a.gamma - 2.0 * b.gamma > b.step_norm**2 - 1e-12 for a, b in pairs)
    return gamma_monotone, error_monotone


def verify_rows(prob, cert, trace, ntrace, q: float, tol_alpha: float,
                tau: float, delta: float) -> list[tuple[str, str, str]]:
    """The verify rows for ``prob`` under ``cert``, from the exact-data run
    ``trace`` and the discrepancy-stopped ``ntrace``; both start at
    ``prob.default_x0`` and carry their theory constants.

    The ``alpha-ceiling`` row takes ``||J(x_k)||`` at every iterate that
    took a step with one :func:`operators.jacobian_norms` call.
    """
    model = prob.model
    rows = []

    def check(name: str, ok: bool, detail: str):
        rows.append((name, "PASS" if ok else "FAIL", detail))

    # Operator identities at representative points.
    points = [prob.default_x0, prob.x_dagger, model.center]
    defect = operators.max_adjoint_defect(model, points, samples=100, seed=11)
    check("adjoint-consistency", defect <= 1e-10, f"max rel defect {defect:.3e}")
    fd_worst = 0.0
    for p in points:
        jac = operators.jacobian_matrix(model, p)
        fd = operators.finite_difference_jacobian(model, p)
        # a NaN defect would drop out of the running maximum
        require_finite(jac, "Jacobian at a verify point")
        require_finite(fd, "finite-difference Jacobian at a verify point")
        fd_worst = max(fd_worst, vector_norm(fd - jac) / (1.0 + vector_norm(jac)))
    check("jacobian-finite-difference", fd_worst <= 1e-5,
          f"max rel defect {fd_worst:.3e}")

    # Exact-data run.
    steps = trace.step_diagnostics
    if not steps:
        for name in ("mdp-prime-identity", "alpha-ceiling", "residual-ratio-q",
                     "error-monotonicity", "gamma-monotone"):
            rows.append((name, "NOT ARMED", "no steps taken"))
    else:
        worst_mdp = max(d.mdp_prime_rel_err for d in steps)
        # ||r - J s|| = alpha ||z||, so the error inherits the root-finder
        # tolerance on the Morozov value, as the residual ratio does below
        mdp_tol = max(1e-8, 2.0 * tol_alpha * q)
        check("mdp-prime-identity", worst_mdp <= mdp_tol,
              f"max rel err {worst_mdp:.3e} over {len(steps)} steps")
        dense_norms = operators.jacobian_norms(
            model, np.array(trace.iterates[:len(steps)]),
            "Jacobian at a recorded iterate").tolist()
        worst_ceiling = max([0.0] + [diag.alpha / (q / (1.0 - q) * dense**2)
                                     for diag, dense in zip(steps, dense_norms)])
        check("alpha-ceiling", worst_ceiling <= 1.0 + 1e-8,
              f"max alpha/bound {worst_ceiling:.12f}")
        if prob.linear:
            res = trace.residuals()
            dev = float(np.max(np.abs(res[1:] / res[:-1] - q)))
            # the ratio inherits the root-finder tolerance on the Morozov value
            ratio_tol = max(1e-12, 2.0 * tol_alpha * q)
            check("residual-ratio-q", dev <= ratio_tol, f"max dev {dev:.3e}")
        else:
            rows.append(("residual-ratio-q", "NOT ARMED", "nonlinear problem"))
        if omega_condition_holds(model, trace, prob.x_dagger, q, 2.0):
            gamma_monotone, error_monotone = monotonicity(trace.records)
            check("error-monotonicity", error_monotone, "Lyapunov decrease")
            check("gamma-monotone", gamma_monotone,
                  "0.5||x_k - x_truth||^2 non-increasing")
        else:
            for name in ("error-monotonicity", "gamma-monotone"):
                rows.append((name, "NOT ARMED", "omega-condition failed"))
    if trace.hypothesis.armed:
        gams = trace.gammas()
        bounds = np.array([rate_bound(k, trace.constants, cert.holder_eps)
                           for k in range(len(gams))])
        worst = float(np.nanmax(gams / (bounds * (1.0 + 1e-9))))
        check("rate-bound-exact", worst <= 1.0, f"max gamma/bound {worst:.6f}")
    else:
        rows.append(("rate-bound-exact", "NOT ARMED", "hypothesis failed"))

    # Noisy-data run.
    k_star, kstar_bound = ntrace.k_star, ntrace.constants.kstar_bound
    res = ntrace.residuals()
    # why the noisy run has no stopping index, when it has none
    no_stop = ("budget exhausted" if ntrace.terminal == "budget_exhausted"
               else f"run ended in {ntrace.terminal}") + " before the stopping index"
    if k_star is not None:
        sound = bool(np.all(res[:k_star] > tau * delta)
                     and res[k_star] <= tau * delta)
        check("discrepancy-soundness", sound, f"k_star={k_star}")
    else:
        rows.append(("discrepancy-soundness", "NOT ARMED", no_stop))
    if not ntrace.hypothesis.armed:
        rows.append(("kstar-bound", "NOT ARMED", "hypothesis failed"))
    else:
        causes = []
        if kstar_bound is None:
            causes.append("no finite bound on the stopping index")
        if k_star is None:
            causes.append(no_stop)
        if causes:
            rows.append(("kstar-bound", "NOT ARMED", "; ".join(causes)))
        else:
            check("kstar-bound", k_star <= kstar_bound,
                  f"k_star={k_star} <= {kstar_bound}")
    big_r = ntrace.constants.R
    if not ntrace.iterations:
        rows.append(("gamma-monotone-noisy", "NOT ARMED", "no steps taken"))
    elif not big_r > 0:
        rows.append(("gamma-monotone-noisy", "NOT ARMED",
                     f"R = {big_r:.6g} is not positive: no omega-condition"))
    elif omega_condition_holds(model, ntrace, prob.x_dagger, q,
                               1.0 / (1.0 - big_r)):
        check("gamma-monotone-noisy", monotonicity(ntrace.records)[0],
              "up to the stopping index" if k_star is not None
              else f"over all {ntrace.iterations} steps; {no_stop}")
    else:
        rows.append(("gamma-monotone-noisy", "NOT ARMED", "omega-condition failed"))
    kbound = None
    if k_star is not None and delta > 0:
        e0 = vector_norm(prob.default_x0 - prob.x_dagger)
        try:
            qt = qtilde(q, cert, e0)
            kbound = kstar_log_estimate(qt, float(res[0]), tau, delta)
        except ConditionViolated:
            pass
    if ntrace.iterations and kbound is not None:
        ratios = res[1:] / res[:-1]
        ok = bool(np.all(ratios <= qt + 1e-9)) and k_star <= kbound
        check("qtilde-contraction", ok,
              f"q~={qt:.6f} max ratio {float(np.max(ratios)):.6f} "
              f"k_star={k_star} <= {kbound}")
    else:
        # the first cause that keeps the row from arming
        nu = ntrace.constants.nu_bound
        rows.append(("qtilde-contraction", "NOT ARMED",
                     "no steps taken" if not ntrace.iterations
                     else no_stop if k_star is None
                     else "delta = 0" if not delta > 0
                     else f"eps = {cert.holder_eps:g}: the estimate needs eps = 1"
                     if nu is None
                     else f"q = {q:g} >= nu = {nu:.6g}" if not q < nu
                     else "smallness condition not met"))

    # Tangential cone on a ball small enough for eta < 1.
    rho_tc = cert.domain_rho_prime
    eta = tangential_cone_eta(cert, rho_tc)
    if eta >= 1.0:
        rho_tc *= (0.9 / eta) ** ((1.0 + cert.holder_eps) / cert.holder_eps)
        eta = tangential_cone_eta(cert, rho_tc)
    rad = math.sqrt(2.0 * rho_tc)
    # an infinite (or NaN) ball has no uniform draw
    worst_tcc = (_tangential_cone_worst(model, eta, rad) if math.isfinite(rad)
                 else math.nan)
    if math.isnan(worst_tcc):
        rows.append(("tangential-cone", "NOT ARMED",
                     f"no pair with F(a) != F(b) sampled at rho'={rho_tc:.3e}"))
    else:
        check("tangential-cone", worst_tcc <= 1.0,
              f"eta={eta:.4f} at rho'={rho_tc:.3e}, max lhs/rhs {worst_tcc:.4f}")

    # Re-verification on a fresh seed, of a certificate that arms guarantees.
    if operators.PROVENANCES[cert.provenance]:
        report = gallery.verify_certificate(model, prob.default_box, cert, seed=977)
        check("certificate-reverification", report.ok,
              f"violations {report.violations}")
    else:
        rows.append(("certificate-reverification", "NOT ARMED",
                     "user-supplied certificate"))
    return rows
