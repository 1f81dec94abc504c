"""Command-line front end: solve, reconstruct, verify, compare.

Every command takes a YAML config (see config.py for the schema), writes its
primary artifact to the configured output path and prints a short summary.
The module only wires: every command's runs go through one run path,
``_run``; the reconstruction pipeline lives in recon.py and the verification
checks in checks.py.
``main`` maps each ``SolverError`` to its exit code by class (``_EXITS``):

    0  clean termination
    1  ConfigInvalid: invalid configuration, a mode or key the command
       does not handle, or an output file that cannot be written
    2  RootInfeasible, DomainViolation, NonFiniteOutput, NonConvergence,
       ZeroResidual, DivergenceDetected, FactorizationFailure,
       DimensionMismatch, DegenerateModel, CertificationFailed,
       LatticeTooLarge; or a run that ends on no clean terminal
    3  ConditionViolated: a theorem hypothesis failed for the supplied
       constants (never from verify, which reports it as a NOT ARMED row)
    4  NoCandidateFound: no lattice candidate passed the measured-data test
    5  a verification check failed
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import checks, gallery
from .config import _CHECKS, READS, RunConfig, check_command, load_config
from .engine import (
    SolverConfig,
    compute_constants_exact,
    compute_constants_noisy,
    landweber_run,
    run_exact,
    run_noisy,
)
from .errors import (
    ConditionViolated,
    ConfigInvalid,
    DomainViolation,
    NoCandidateFound,
    RootInfeasible,
    SolverError,
)
from .operators import ForwardModel, StabilityCertificate, vector_norm
from .recon import (
    CompactBox,
    MeasurementOperator,
    reconstruct_exact,
    reconstruct_noisy,
)
from .tracefile import TraceFile, dumps, flatten_header

CLEAN_TERMINALS = ("zero_residual", "discrepancy_stop", "target_reached")

VERIFY_DEFAULTS = {"tau": 4.0, "delta": 1e-3, "max_iters": 30}


def make_noise(y: np.ndarray, delta: float, seed: int) -> np.ndarray:
    """y + delta * u/||u|| with a seeded draw, so ||noise|| = delta exactly."""
    if delta == 0.0:
        return y.copy()
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(y.shape[0])
    return y + delta * u / vector_norm(u)


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


def _resolve_certificate(prob, cfg: RunConfig, q_op: MeasurementOperator | None = None,
                         box: CompactBox | None = None) -> StabilityCertificate:
    """The certificate a run on ``prob`` uses under ``cfg``, given the
    resolved measurement and search box of a mode that reads them."""
    cert = prob.certificate
    if cfg.eps != cert.holder_eps:
        # a different stability exponent needs its own certificate
        cert = gallery.certify(prob.model, prob.default_box, cfg.eps, seed=303)
    # the certificate is for F on the problem's box: not for the Q o F of a
    # measurement other than the identity, nor on a box that reaches outside
    # that one (on a sub-box each constant, a supremum, still holds), and no
    # config can vouch for the constants it overrides
    home = prob.default_box
    if (cfg.constants_override or (q_op is not None and not q_op.is_identity)
            or (box is not None and not (np.all(box.lower >= home.lower)
                                         and np.all(box.upper <= home.upper)))):
        try:
            cert = dataclasses.replace(cert, **(cfg.constants_override or {}),
                                       provenance="user")
        except ValueError as exc:
            raise ConfigInvalid(f"config field 'constants_override': {exc}") from exc
    return cert


def _resolve_measurement(cfg: RunConfig, prob) -> MeasurementOperator:
    """The configured Q on the problem's data; one whose rank is below the
    problem's unknowns is a config error, since Q o F cannot be injective."""
    meas, dim_y = cfg.measurement or "identity", prob.model.dim_y
    if isinstance(meas, str):
        q_op = MeasurementOperator.identity(dim_y)
    elif len(meas[0]) != dim_y:
        raise ConfigInvalid(
            f"measurement matrix has {len(meas[0])} columns, data dimension is {dim_y}"
        )
    else:
        q_op = MeasurementOperator(meas)
    rank = int(np.linalg.matrix_rank(q_op.matrix))
    if rank < prob.model.dim_x:
        raise ConfigInvalid(
            f"config field 'measurement': rank {rank} is below the "
            f"{prob.model.dim_x} unknowns of problem '{prob.id}', so Q o F "
            "cannot be injective")
    return q_op


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


def _write(path, text: str) -> None:
    """Write an output file; one that cannot be written is a config error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigInvalid(f"cannot write output file {path}: {exc}") from exc


def _get_problem(cfg: RunConfig):
    try:
        return gallery.get_problem(cfg.problem_id)
    except KeyError as exc:
        raise ConfigInvalid(exc.args[0]) from exc


def _header(cfg: RunConfig, prob, cert: StabilityCertificate, trace) -> dict:
    head = {}
    echo = {k: v for k, v in dataclasses.asdict(cfg).items() if v is not None}
    head.update(flatten_header("config", echo))
    head["problem.x_dagger"] = list(map(float, prob.x_dagger))
    head.update(flatten_header("certificate", dataclasses.asdict(cert)))
    for section, part in (("constants", trace.constants),
                          ("hypothesis", trace.hypothesis)):
        if part is not None:
            head.update(flatten_header(section, dataclasses.asdict(part)))
    if trace.recon is not None:
        head.update(flatten_header("recon", trace.recon.as_dict()))
    head["result.x_final"] = list(map(float, trace.x_final))
    return head


def _exit(trace, cfg: RunConfig) -> int:
    """0 for a clean terminal, and for an exhausted budget unless the run
    stops by the discrepancy principle; 2 otherwise."""
    if trace.terminal in CLEAN_TERMINALS:
        return 0
    if trace.terminal == "budget_exhausted" and cfg.tau is None:
        return 0
    return 2


def _run(cfg: RunConfig, prob, cert: StabilityCertificate, method: str,
         q_op: MeasurementOperator | None = None, box: CompactBox | None = None):
    """Run LM, Landweber or the reconstruction pipeline (``method`` "lm",
    "landweber" or "reconstruct", which measures through ``q_op`` and scans
    ``box``) on ``prob`` as ``cfg`` says and return the trace, which keeps
    every iterate; an LM trace carries its theory constants for ``cert`` and
    its hypothesis report.

    The stopping rule is the discrepancy principle when tau is set, else the
    accuracy target when target_gamma is set, else the budget.
    """
    model, x0, y_obs = prob.model, _resolve_x0(cfg, prob), prob.y_exact
    if method == "reconstruct":
        y_obs = q_op(y_obs)
    if cfg.tau is not None:
        stop = "discrepancy"
        y_obs = make_noise(y_obs, cfg.delta, cfg.noise_seed)
    else:
        stop = "target_error" if cfg.target_gamma is not None else "fixed_budget"
    if method == "reconstruct":
        if cfg.tau is None:
            return reconstruct_exact(
                model, q_op, box, cert, cfg.q, cfg.target_gamma, y_obs,
                x_dagger=prob.x_dagger, tol_alpha=cfg.tol_alpha)[1]
        return reconstruct_noisy(
            model, q_op, box, cert, cfg.q, cfg.tau, cfg.delta, y_obs,
            cfg.max_iters, x_dagger=prob.x_dagger, tol_alpha=cfg.tol_alpha)[1]
    scfg = SolverConfig(q=cfg.q, max_iters=cfg.max_iters, tau=cfg.tau,
                        delta=cfg.delta or 0.0, tol_alpha=cfg.tol_alpha,
                        stop_mode=stop, target_gamma=cfg.target_gamma,
                        domain_mode="warn")
    if method == "landweber":
        return landweber_run(model, y_obs, x0, cfg.step_scale, scfg,
                             x_dagger=prob.x_dagger)
    if cfg.tau is not None:
        constants = compute_constants_noisy(cert, cfg.q, cfg.tau,
                                            delta=cfg.delta, strict=False)
        return run_noisy(model, prob.x_dagger, y_obs, x0, scfg, constants)
    constants = compute_constants_exact(cert, cfg.q, strict=False)
    return run_exact(model, prob.x_dagger, y_obs, x0, scfg, constants)


def _run_to_trace(cfg: RunConfig, method: str) -> int:
    """Run ``method`` (see :func:`_run`), write the trace, print a summary
    line and return the exit code."""
    prob = _get_problem(cfg)
    q_op = box = None
    if any("measurement" in keys for keys in READS[cfg.mode][1].values()):
        # the measurement and the search box, once, for the modes that read them
        q_op, box = _resolve_measurement(cfg, prob), _resolve_box(cfg, prob)
    cert = _resolve_certificate(prob, cfg, q_op, box)
    trace = _run(cfg, prob, cert, method, q_op, box)
    tf = TraceFile.from_trace(trace, _header(cfg, prob, cert, trace))
    _write(cfg.output_path, dumps(tf))
    rs = trace.recon
    run = (f"terminal={trace.terminal} iters={trace.iterations}" if rs is None
           else f"lattice={rs.lattice_size} scanned={rs.scanned} "
           f"x0={np.array2string(rs.x0, precision=6)} terminal={trace.terminal}")
    err = vector_norm(trace.x_final - prob.x_dagger)
    print(f"{cfg.mode}: {run} k_star={trace.k_star} final_error={err:.6e} "
          f"-> {cfg.output_path}")
    return _exit(trace, cfg)


def cmd_solve(cfg: RunConfig) -> int:
    return _run_to_trace(cfg, "landweber" if cfg.mode == "landweber" else "lm")


def cmd_reconstruct(cfg: RunConfig) -> int:
    return _run_to_trace(cfg, "reconstruct")


def cmd_verify(cfg: RunConfig) -> int:
    cfg = dataclasses.replace(cfg, **{k: v for k, v in VERIFY_DEFAULTS.items()
                                      if getattr(cfg, k) is None})
    prob = _get_problem(cfg)
    cert = _resolve_certificate(prob, cfg)
    trace = _run(dataclasses.replace(cfg, tau=None), prob, cert, "lm")
    ntrace = _run(dataclasses.replace(cfg, max_iters=max(cfg.max_iters, 200)),
                  prob, cert, "lm")
    rows = checks.verify_rows(prob, cert, trace, ntrace, cfg.q, cfg.tol_alpha,
                              cfg.tau, cfg.delta)
    # one "name  STATUS (detail)" line per row
    width = max(len(name) for name, _, _ in rows) + 2
    text = "".join(f"{name:<{width}}{status} ({detail})\n"
                   for name, status, detail in rows)
    print(text, end="")
    _write(cfg.output_path, text)
    return 5 if any(status == "FAIL" for _, status, _ in rows) else 0


def _iterations_to(trace, threshold: float):
    res = trace.residuals()
    idx = np.nonzero(res <= threshold)[0]
    return int(idx[0]) if idx.size else None


def cmd_compare(cfg: RunConfig) -> int:
    prob = _get_problem(cfg)
    cert = _resolve_certificate(prob, cfg)
    rows = []
    for method in ("lm", "landweber"):
        # no truth, which the table never reads: the counts are solver work
        model, counts = counting_model(prob.model)
        trace = _run(cfg, dataclasses.replace(prob, model=model, x_dagger=None),
                     cert, method)
        iters = max(trace.iterations, 1)
        cost = (counts["forward"] + counts["jacobian"] + counts["adjoint"]) / iters
        rows.append((method, *(_iterations_to(trace, t) for t in (1e-4, 1e-6, 1e-8)),
                     f"{cost:.2f}", trace.k_star, trace.iterations))

    lines = [
        f"# lmrecon-compare problem={cfg.problem_id} q={cfg.q} mode={cfg.mode}",
        "method,iters_to_1e-4,iters_to_1e-6,iters_to_1e-8,"
        "evals_per_iteration,k_star,iterations",
    ]
    lines += [",".join("" if v is None else str(v) for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    print(text, end="")
    _write(cfg.output_path, text)
    return 0


_COMMANDS = {
    "solve": cmd_solve,
    "reconstruct": cmd_reconstruct,
    "verify": cmd_verify,
    "compare": cmd_compare,
}

# (error class, exit code, stderr label): main reports an error by the first
# entry whose class it is an instance of
_EXITS = (
    (ConfigInvalid, 1, "config error"),
    (ConditionViolated, 3, "hypothesis violated"),
    (NoCandidateFound, 4, "scan failed"),
    ((RootInfeasible, DomainViolation), 2, "solver stopped"),
    (SolverError, 2, "error"),
)


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


# parse_args keeps no state between calls, so every main call shares one
# parser rather than paying for a build
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.noise_seed = _CHECKS["noise_seed"](args.seed, "noise_seed")
        check_command(cfg, args.command)
        if args.output is not None:
            cfg.output_path = args.output
        return _COMMANDS[args.command](cfg)
    except SolverError as exc:
        code, label = next(pair for cls, *pair in _EXITS if isinstance(exc, cls))
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
