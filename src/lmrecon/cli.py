"""Command-line front end: solve, reconstruct, verify, compare.

Every command takes a YAML config (see config.py for the schema), writes its
primary artifact to the configured output path and prints a short summary.
Exit codes are a fixed function of the outcome:

    0  clean termination
    1  invalid configuration
    2  root-finding infeasible, domain violation, non-finite model output,
       or budget exhausted before the discrepancy criterion
    3  a theorem hypothesis failed for the supplied constants
    4  no lattice candidate passed the measured-data test
    5  a verification check failed
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

from . import gallery
from .config import RECONSTRUCT_MODES, RunConfig, load_config
from .engine import (
    SolverConfig,
    compute_constants_exact,
    compute_constants_noisy,
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
from .errors import (
    ConditionViolated,
    ConfigInvalid,
    DomainViolation,
    NoCandidateFound,
    RootInfeasible,
    SolverError,
)
from .operators import (
    STACK_BLOCK,
    ForwardModel,
    StabilityCertificate,
    finite_difference_jacobian,
    forward_stack,
    jacobian_matrix,
    jacobian_stack,
    max_adjoint_defect,
    row_norms,
)
from .recon import (
    CompactBox,
    MeasurementOperator,
    reconstruct_exact,
    reconstruct_noisy,
)
from .step import commutation_residual
from .tracefile import TraceFile, flatten_header, write_trace

CLEAN_TERMINALS = ("zero_residual", "discrepancy_stop", "target_reached")

VERIFY_DEFAULTS = {"tau": 4.0, "delta": 1e-3, "max_iters": 30}
VERIFY_SAMPLES = 10000


def make_noise(y: np.ndarray, delta: float, seed: int) -> np.ndarray:
    """y + delta * u/||u|| with a seeded draw, so ||noise|| = delta exactly."""
    if delta == 0.0:
        return y.copy()
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(y.shape[0])
    return y + delta * u / np.linalg.norm(u)


def counting_model(model: ForwardModel):
    """Wrap a model so forward/Jacobian/adjoint evaluations are counted.

    The batched callables are dropped, so every evaluation goes through a
    counted one.
    """
    counts = {"forward": 0, "jacobian": 0, "adjoint": 0}

    def counted(key, fn):
        def call(*args):
            counts[key] += 1
            return fn(*args)
        return call

    wrapped = dataclasses.replace(
        model, forward=counted("forward", model.forward),
        jacobian_apply=counted("jacobian", model.jacobian_apply),
        jacobian_adjoint_apply=counted("adjoint", model.jacobian_adjoint_apply),
        forward_batch=None, jacobian_batch=None,
    )
    return wrapped, counts


def _resolve_certificate(prob, cfg: RunConfig) -> StabilityCertificate:
    cert = prob.certificate
    if cfg.eps != cert.holder_eps:
        # a different stability exponent needs freshly estimated constants
        cert = gallery.estimate_stability_constants(
            prob.model, prob.default_box, eps=cfg.eps, samples=10000, seed=303,
        )
    if cfg.measurement not in (None, "identity"):
        # only the reconstruct modes accept a measurement; the oracle
        # certified F, not the Q o F that reconstruction runs on
        cert = dataclasses.replace(cert, provenance="user")
    if cfg.constants_override:
        fields = dict(cfg.constants_override)
        fields.setdefault("provenance", "user")
        cert = dataclasses.replace(cert, **fields)
    return cert


def _resolve_measurement(cfg: RunConfig, dim_y: int) -> MeasurementOperator:
    meas = cfg.measurement
    if meas is None or meas == "identity":
        return MeasurementOperator.identity(dim_y)
    if meas == "average":
        return MeasurementOperator.averaging(dim_y)
    if meas == "first-coordinate":
        return MeasurementOperator.row_selector(dim_y, [0])
    matrix = np.asarray(meas, dtype=float)
    if matrix.shape[1] != dim_y:
        raise ConfigInvalid(
            f"measurement matrix has {matrix.shape[1]} columns, data dimension is {dim_y}"
        )
    return MeasurementOperator(matrix)


def _check_dim(field: str, values: list, prob) -> None:
    if len(values) != prob.model.dim_x:
        raise ConfigInvalid(
            f"config field '{field}': has dimension {len(values)}, "
            f"problem '{prob.id}' has {prob.model.dim_x} unknowns"
        )


def _resolve_box(cfg: RunConfig, prob) -> CompactBox:
    if cfg.box is None:
        return prob.default_box
    _check_dim("box", cfg.box["lower"], prob)
    return CompactBox(np.array(cfg.box["lower"]), np.array(cfg.box["upper"]))


def _resolve_x0(cfg: RunConfig, prob) -> np.ndarray:
    if cfg.x0 is None:
        return prob.default_x0
    _check_dim("x0", cfg.x0, prob)
    return np.array(cfg.x0, dtype=float)


def _get_problem(cfg: RunConfig):
    try:
        return gallery.get_problem(cfg.problem_id)
    except KeyError as exc:
        raise ConfigInvalid(str(exc)) from exc


def _header(cfg: RunConfig, prob, cert: StabilityCertificate,
            constants=None, trace=None) -> dict:
    head = {}
    echo = {k: v for k, v in dataclasses.asdict(cfg).items() if v is not None}
    head.update(flatten_header("config", echo))
    head["problem.x_dagger"] = list(map(float, prob.x_dagger))
    head.update(flatten_header(
        "certificate", {f: getattr(cert, f) for f in (
            "lip_deriv", "jac_bound", "holder_const", "holder_eps",
            "domain_rho_prime", "forward_lip", "recon_const", "q_norm",
            "provenance")}
    ))
    if constants is not None:
        head.update(flatten_header("constants", dataclasses.asdict(constants)))
    if trace is not None and trace.hypothesis is not None:
        head.update(flatten_header("hypothesis",
                                   dataclasses.asdict(trace.hypothesis)))
    if trace is not None and trace.recon is not None:
        head.update(flatten_header("recon", trace.recon.as_dict()))
    if trace is not None and trace.x_final is not None:
        head["result.x_final"] = list(map(float, trace.x_final))
    return head


def _solve_exit(trace, discrepancy_mode: bool) -> int:
    if trace.terminal in CLEAN_TERMINALS:
        return 0
    if trace.terminal == "budget_exhausted":
        return 2 if discrepancy_mode else 0
    return 2


def cmd_solve(cfg: RunConfig, seed: int | None) -> int:
    if cfg.mode not in ("exact", "noisy", "landweber"):
        raise ConfigInvalid(f"mode '{cfg.mode}' is not handled by 'solve'")
    prob = _get_problem(cfg)
    cert = _resolve_certificate(prob, cfg)
    x0 = _resolve_x0(cfg, prob)
    noise_seed = cfg.noise_seed if seed is None else seed

    constants = None
    if cfg.mode == "exact":
        constants = compute_constants_exact(cert, cfg.q, strict=False)
        stop = "target_error" if cfg.target_gamma is not None else "fixed_budget"
        scfg = SolverConfig(q=cfg.q, max_iters=cfg.max_iters,
                            tol_alpha=cfg.tol_alpha, stop_mode=stop,
                            target_gamma=cfg.target_gamma, domain_mode="warn")
        trace = run_exact(prob.model, prob.x_dagger, prob.y_exact, x0, scfg,
                          constants)
    elif cfg.mode == "noisy":
        constants = compute_constants_noisy(cert, cfg.q, cfg.tau,
                                            delta=cfg.delta, strict=False)
        y_delta = make_noise(prob.y_exact, cfg.delta, noise_seed)
        scfg = SolverConfig(q=cfg.q, max_iters=cfg.max_iters, tau=cfg.tau,
                            delta=cfg.delta, tol_alpha=cfg.tol_alpha,
                            stop_mode="discrepancy", domain_mode="warn")
        trace = run_noisy(prob.model, prob.x_dagger, y_delta, x0, scfg,
                          constants)
    else:
        y_obs = prob.y_exact
        stop = "fixed_budget"
        tau = delta = None
        if cfg.delta is not None and cfg.tau is not None:
            y_obs = make_noise(prob.y_exact, cfg.delta, noise_seed)
            stop, tau, delta = "discrepancy", cfg.tau, cfg.delta
        scfg = SolverConfig(q=cfg.q, max_iters=cfg.max_iters, tau=tau,
                            delta=delta or 0.0, stop_mode=stop,
                            domain_mode="warn")
        trace = landweber_run(prob.model, y_obs, x0, cfg.step_scale, scfg,
                              x_dagger=prob.x_dagger)

    tf = TraceFile.from_trace(trace, _header(cfg, prob, cert, constants, trace))
    write_trace(cfg.output_path, tf)
    err = float(np.linalg.norm(trace.x_final - prob.x_dagger))
    print(f"{cfg.mode}: terminal={trace.terminal} iters={trace.iterations} "
          f"k_star={trace.k_star} final_error={err:.6e} -> {cfg.output_path}")
    return _solve_exit(trace, scfg.stop_mode == "discrepancy")


def cmd_reconstruct(cfg: RunConfig, seed: int | None) -> int:
    if cfg.mode not in RECONSTRUCT_MODES:
        raise ConfigInvalid(f"mode '{cfg.mode}' is not handled by 'reconstruct'")
    prob = _get_problem(cfg)
    cert = _resolve_certificate(prob, cfg)
    q_op = _resolve_measurement(cfg, prob.model.dim_y)
    box = _resolve_box(cfg, prob)
    y_measured = q_op(prob.y_exact)
    noise_seed = cfg.noise_seed if seed is None else seed

    if cfg.mode == "reconstruct_exact":
        constants = compute_constants_exact(cert, cfg.q)
        x_hat, trace = reconstruct_exact(
            prob.model, q_op, box, cert, cfg.q, cfg.target_gamma, y_measured,
            x_dagger=prob.x_dagger, tol_alpha=cfg.tol_alpha,
        )
    else:
        constants = compute_constants_noisy(cert, cfg.q, cfg.tau, delta=cfg.delta)
        y_delta = make_noise(y_measured, cfg.delta, noise_seed)
        x_hat, trace = reconstruct_noisy(
            prob.model, q_op, box, cert, cfg.q, cfg.tau, cfg.delta, y_delta,
            cfg.max_iters, x_dagger=prob.x_dagger, tol_alpha=cfg.tol_alpha,
        )

    tf = TraceFile.from_trace(trace, _header(cfg, prob, cert, constants, trace))
    write_trace(cfg.output_path, tf)
    rs = trace.recon
    err = float(np.linalg.norm(x_hat - prob.x_dagger))
    print(f"{cfg.mode}: lattice={rs.lattice_size} scanned={rs.scanned} "
          f"x0={np.array2string(rs.x0, precision=6)} terminal={trace.terminal} "
          f"k_star={trace.k_star} final_error={err:.6e} -> {cfg.output_path}")
    return _solve_exit(trace, cfg.mode == "reconstruct_noisy")


def _render(rows) -> str:
    """The verification table: one ``name  STATUS (detail)`` line per
    ``(name, status, detail)`` row."""
    width = max(len(name) for name, _, _ in rows) + 2
    return "".join(f"{name:<{width}}{status} ({detail})\n"
                   for name, status, detail in rows)


def _tangential_cone_worst(model: ForwardModel, eta: float, rad: float) -> float:
    """Largest ``||F(a) - F(b) - J(a)(a - b)|| / (eta ||F(a) - F(b)||)`` over
    ``VERIFY_SAMPLES`` pairs drawn uniformly from the ball of radius ``rad``
    about the model's center.

    Candidate pairs come ``STACK_BLOCK`` at a time from one seeded stream, in
    the order of successive single draws; a pair with a point outside the
    ball, or with F(a) = F(b), is skipped.
    """
    rng = np.random.default_rng(17)
    worst = 0.0
    needed = VERIFY_SAMPLES
    while needed > 0:
        z = rng.uniform(-rad, rad, (STACK_BLOCK, 2, model.dim_x))
        z = z[~np.any(np.sum(z * z, axis=2) > rad * rad, axis=1)]
        x_a, x_b = model.center + z[:, 0], model.center + z[:, 1]
        fd = forward_stack(model, x_a) - forward_stack(model, x_b)
        rhs = eta * row_norms(fd)
        take = np.flatnonzero(rhs != 0.0)[:needed]
        x_a, x_b, fd, rhs = x_a[take], x_b[take], fd[take], rhs[take]
        jd = (jacobian_stack(model, x_a) @ (x_a - x_b)[:, :, None])[:, :, 0]
        worst = max([worst, *(row_norms(fd - jd) / rhs).tolist()])
        needed -= take.shape[0]
    return worst


def cmd_verify(cfg: RunConfig, seed: int | None) -> int:
    if cfg.mode != "verify":
        raise ConfigInvalid(f"mode '{cfg.mode}' is not handled by 'verify'")
    prob = _get_problem(cfg)
    cert = _resolve_certificate(prob, cfg)
    model = prob.model
    tau = cfg.tau if cfg.tau is not None else VERIFY_DEFAULTS["tau"]
    delta = cfg.delta if cfg.delta is not None else VERIFY_DEFAULTS["delta"]
    budget = cfg.max_iters if cfg.max_iters is not None else VERIFY_DEFAULTS["max_iters"]
    noise_seed = cfg.noise_seed if seed is None else seed
    rows = []

    def check(name: str, ok: bool, detail: str):
        rows.append((name, "PASS" if ok else "FAIL", detail))

    # Operator identities at representative points.
    points = [prob.default_x0, prob.x_dagger, model.center]
    defect = max_adjoint_defect(model, points, samples=100, seed=11)
    check("adjoint-consistency", defect <= 1e-10, f"max rel defect {defect:.3e}")
    fd_worst = 0.0
    for p in points:
        jac = jacobian_matrix(model, p)
        fd = finite_difference_jacobian(model, p, 1e-5, check=False)
        fd_worst = max(fd_worst, float(np.linalg.norm(fd - jac))
                       / (1.0 + float(np.linalg.norm(jac))))
    check("jacobian-finite-difference", fd_worst <= 1e-5,
          f"max rel defect {fd_worst:.3e}")
    comm = commutation_residual(model, prob.default_x0, 1.0,
                                np.ones(model.dim_x))
    check("commutation-identity", comm <= 1e-10, f"defect {comm:.3e}")

    # Exact-data run.
    tc = compute_constants_exact(cert, cfg.q, strict=False)
    scfg = SolverConfig(q=cfg.q, max_iters=budget, tol_alpha=cfg.tol_alpha,
                        domain_mode="warn")
    trace = run_exact(model, prob.x_dagger, prob.y_exact, prob.default_x0,
                      scfg, tc, record_iterates=True)
    steps = trace.step_diagnostics
    if steps:
        worst_mdp = max(d.mdp_prime_rel_err for d in steps)
        check("mdp-prime-identity", worst_mdp <= 1e-8,
              f"max rel err {worst_mdp:.3e} over {len(steps)} steps")
        worst_ceiling = 0.0
        for diag, x_k in zip(steps, trace.iterates):
            dense = float(np.linalg.norm(jacobian_matrix(model, x_k), 2))
            ceiling = cfg.q / (1.0 - cfg.q) * dense**2
            worst_ceiling = max(worst_ceiling, diag.alpha / ceiling)
        check("alpha-ceiling", worst_ceiling <= 1.0 + 1e-8,
              f"max alpha/bound {worst_ceiling:.12f}")
    if prob.linear and trace.iterations >= 1:
        res = trace.residuals()
        dev = float(np.max(np.abs(res[1:] / res[:-1] - cfg.q)))
        # the ratio inherits the root-finder tolerance on the Morozov value
        ratio_tol = max(1e-12, 2.0 * cfg.tol_alpha * cfg.q)
        check("residual-ratio-q", dev <= ratio_tol, f"max dev {dev:.3e}")
    else:
        rows.append(("residual-ratio-q", "NOT ARMED", "nonlinear problem"))
    if trace.omega_ok:
        check("error-monotonicity",
              bool(trace.error_monotonicity_ok), "Lyapunov decrease")
        check("gamma-monotone", bool(trace.gamma_monotone),
              "0.5||x_k - x_truth||^2 non-increasing")
    else:
        rows.append(("error-monotonicity", "NOT ARMED", "omega-condition failed"))
        rows.append(("gamma-monotone", "NOT ARMED", "omega-condition failed"))
    if trace.hypothesis.armed:
        gams = trace.gammas()
        bounds = np.array([rate_bound(k, tc, cert.holder_eps)
                           for k in range(len(gams))])
        worst = float(np.nanmax(gams / (bounds * (1.0 + 1e-9))))
        check("rate-bound-exact", worst <= 1.0, f"max gamma/bound {worst:.6f}")
    else:
        rows.append(("rate-bound-exact", "NOT ARMED", "hypothesis failed"))

    # Noisy-data run.
    tcn = compute_constants_noisy(cert, cfg.q, tau, delta=delta, strict=False)
    y_delta = make_noise(prob.y_exact, delta, noise_seed)
    ncfg = SolverConfig(q=cfg.q, max_iters=max(budget, 200), tau=tau,
                        delta=delta, tol_alpha=cfg.tol_alpha,
                        stop_mode="discrepancy", domain_mode="warn")
    ntrace = run_noisy(model, prob.x_dagger, y_delta, prob.default_x0, ncfg, tcn)
    if ntrace.k_star is not None:
        res = ntrace.residuals()
        sound = bool(np.all(res[:ntrace.k_star] > tau * delta)
                     and res[ntrace.k_star] <= tau * delta)
        check("discrepancy-soundness", sound, f"k_star={ntrace.k_star}")
    else:
        rows.append(("discrepancy-soundness", "NOT ARMED",
                     "budget exhausted before the stopping index"))
    if ntrace.hypothesis.armed and ntrace.hypothesis.x0_condition_ok and \
            ntrace.k_star is not None and delta > 0:
        bound = kstar_upper_bound(tcn, cert, cfg.q, tau, delta)
        check("kstar-bound", ntrace.k_star <= bound,
              f"k_star={ntrace.k_star} <= {bound}")
    else:
        rows.append(("kstar-bound", "NOT ARMED", "hypothesis failed"))
    if ntrace.omega_ok:
        check("gamma-monotone-noisy", bool(ntrace.gamma_monotone),
              "up to the stopping index")
    else:
        rows.append(("gamma-monotone-noisy", "NOT ARMED", "omega-condition failed"))
    e0 = float(np.linalg.norm(prob.default_x0 - prob.x_dagger))
    if (cert.holder_eps == 1.0 and 0.0 < cfg.q < nu_additional_bound(cert)
            and cert.lip_deriv * cert.holder_const / math.sqrt(2.0) * e0 < 1.0
            and ntrace.k_star is not None and delta > 0):
        qt = qtilde(cfg.q, cert, e0)
        res = ntrace.residuals()
        ratios = res[1:] / res[:-1] if len(res) > 1 else np.array([0.0])
        kbound = kstar_log_estimate(qt, float(res[0]), tau, delta)
        ok = bool(np.all(ratios <= qt + 1e-9)) and ntrace.k_star <= kbound
        check("qtilde-contraction", ok,
              f"q~={qt:.6f} max ratio {float(np.max(ratios)):.6f} "
              f"k_star={ntrace.k_star} <= {kbound}")
    else:
        rows.append(("qtilde-contraction", "NOT ARMED", "smallness condition not met"))

    # Tangential cone on a ball small enough for eta < 1.
    rho_tc = cert.domain_rho_prime
    eta = tangential_cone_eta(cert, rho_tc)
    if eta >= 1.0:
        shrink = (0.9 / eta) ** ((1.0 + cert.holder_eps) / cert.holder_eps)
        rho_tc *= shrink
        eta = tangential_cone_eta(cert, rho_tc)
    worst_tcc = _tangential_cone_worst(model, eta, math.sqrt(2.0 * rho_tc))
    check("tangential-cone", worst_tcc <= 1.0,
          f"eta={eta:.4f} at rho'={rho_tc:.3e}, max lhs/rhs {worst_tcc:.4f}")

    # Certificate re-verification on a fresh seed.
    if cert.provenance == "oracle-estimated":
        report = gallery.verify_certificate(model, prob.default_box, cert,
                                            samples=VERIFY_SAMPLES, seed=977)
        check("certificate-reverification", report.ok,
              f"violations {report.violations}")
    else:
        rows.append(("certificate-reverification", "NOT ARMED",
                     "user-supplied certificate"))

    text = _render(rows)
    print(text, end="")
    with open(cfg.output_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return 5 if any(status == "FAIL" for _, status, _ in rows) else 0


def _iterations_to(trace, threshold: float):
    res = trace.residuals()
    idx = np.nonzero(res <= threshold)[0]
    return int(idx[0]) if idx.size else None


def cmd_compare(cfg: RunConfig, seed: int | None) -> int:
    if cfg.mode not in ("exact", "noisy"):
        raise ConfigInvalid("compare requires mode 'exact' or 'noisy'")
    prob = _get_problem(cfg)
    x0 = _resolve_x0(cfg, prob)
    noise_seed = cfg.noise_seed if seed is None else seed
    noisy = cfg.mode == "noisy"
    y_obs = (make_noise(prob.y_exact, cfg.delta, noise_seed)
             if noisy else prob.y_exact)

    rows = []
    for method in ("lm", "landweber"):
        wrapped, counts = counting_model(prob.model)
        if noisy:
            scfg = SolverConfig(q=cfg.q, max_iters=cfg.max_iters, tau=cfg.tau,
                                delta=cfg.delta, tol_alpha=cfg.tol_alpha,
                                stop_mode="discrepancy", domain_mode="warn")
        else:
            scfg = SolverConfig(q=cfg.q, max_iters=cfg.max_iters,
                                tol_alpha=cfg.tol_alpha, domain_mode="warn")
        if method == "lm":
            runner = run_noisy if noisy else run_exact
            trace = runner(wrapped, prob.x_dagger, y_obs, x0, scfg)
        else:
            trace = landweber_run(wrapped, y_obs, x0, cfg.step_scale, scfg,
                                  x_dagger=prob.x_dagger)
        iters = max(trace.iterations, 1)
        cost = (counts["forward"] + counts["jacobian"] + counts["adjoint"]) / iters
        rows.append((
            method,
            _iterations_to(trace, 1e-4),
            _iterations_to(trace, 1e-6),
            _iterations_to(trace, 1e-8),
            f"{cost:.2f}",
            trace.k_star,
            trace.iterations,
        ))

    lines = [
        f"# lmrecon-compare problem={cfg.problem_id} q={cfg.q} mode={cfg.mode}",
        "method,iters_to_1e-4,iters_to_1e-6,iters_to_1e-8,"
        "evals_per_iteration,k_star,iterations",
    ]
    for row in rows:
        lines.append(",".join("" if v is None else str(v) for v in row))
    text = "\n".join(lines) + "\n"
    print(text, end="")
    with open(cfg.output_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return 0


_COMMANDS = {
    "solve": cmd_solve,
    "reconstruct": cmd_reconstruct,
    "verify": cmd_verify,
    "compare": cmd_compare,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lmrecon",
        description="Levenberg-Marquardt solver and benchmark for ill-posed "
                    "nonlinear operator equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="YAML config path")
        cmd.add_argument("--output", default=None,
                         help="override the config's output path")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the config's noise seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.output is not None:
            cfg.output_path = args.output
        code = _COMMANDS[args.command](cfg, args.seed)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ConditionViolated as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return 3
    except NoCandidateFound as exc:
        print(f"scan failed: {exc}", file=sys.stderr)
        return 4
    except (RootInfeasible, DomainViolation) as exc:
        print(f"solver stopped: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
