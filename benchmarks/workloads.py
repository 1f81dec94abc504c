"""The four benchmark workloads: inputs from the seed, the timed call, the check.

Each workload builds what its jobs share in ``__init__`` (that is the set-up
the benchmark times, with ``stage()`` called after each costly step), draws the run's job list once in ``make_jobs``, runs one
job in ``run`` (the only timed call) and checks its output in ``check``.  The
list has the same composition for every seed; the seed only draws the inputs
(starting points, noise, truths, models, preset order).  The benchmark runs
the list several times and keeps each job's fastest pass.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import shutil
import statistics
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
Q = 0.5
TAU = 4.0


@dataclass
class Job:
    kind: str
    label: str
    args: dict
    info: dict = field(default_factory=dict)


def _no_stage() -> None:
    """Default set-up stage hook: the benchmark passes one that times the stage."""


def _unit(rng, n: int) -> np.ndarray:
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _noisy(rng, y: np.ndarray, delta: float) -> np.ndarray:
    """y + delta * u/||u||: noise of norm exactly delta in a seeded direction."""
    return y + delta * _unit(rng, y.shape[0])


def _check_discrepancy(trace, delta: float) -> str | None:
    if trace.terminal != "discrepancy_stop" or trace.k_star is None:
        return f"terminal {trace.terminal}, expected discrepancy_stop"
    res = trace.residuals()
    k = trace.k_star
    if not (np.all(res[:k] > TAU * delta) and res[k] <= TAU * delta):
        return f"k_star = {k} is not the first index with residual <= tau*delta"
    return None


def _check_exact(trace, truth, tol: float, terminals) -> str | None:
    if trace.terminal not in terminals:
        return f"terminal {trace.terminal}, expected one of {terminals}"
    err = float(np.linalg.norm(trace.x_final - truth))
    if not err <= tol:
        return f"error {err:.3e} exceeds {tol:.3e}"
    return None


def _quartiles(values) -> dict:
    if len(values) < 2:
        return {"min": min(values, default=None), "max": max(values, default=None)}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"min": min(values), "q1": q1, "median": q2, "q3": q3, "max": max(values)}


def _mix(jobs) -> dict:
    mix: dict = {}
    for job in jobs:
        mix[job.label] = mix.get(job.label, 0) + 1
    return mix


class Solve:
    """LM and Landweber jobs on the narrow gallery problems (dim_y <= 3)."""

    name = "solve"
    PROBLEMS = ("scalar-linear", "exp-decay", "exp-decay-2pt", "quadratic-2d",
                "quadratic-3d")
    DELTAS = (1e-2, 1e-3, 1e-4)
    # Jobs per (problem, driver, delta): 4 x 25 = 100 jobs, enough for p90.
    DRAWS = 4
    START_FRACTION = 0.5
    TARGET_GAMMA = 1e-12
    MAX_ITERS = 200
    LANDWEBER_ITERS = 100

    def __init__(self, lm, rng, stage=_no_stage):
        self.lm = lm
        self.problems = {}
        for pid in self.PROBLEMS:
            self.problems[pid] = lm.get_problem(pid)
            stage()
        self.constants = {}
        self.entry_radius = {}
        for pid, prob in self.problems.items():
            cert = prob.certificate
            tc = lm.compute_constants_exact(cert, Q, strict=False)
            tcn = lm.compute_constants_noisy(cert, Q, TAU, strict=False)
            self.constants[pid] = (tc, tcn)
            # Entry ball 0.5||x0 - x_truth||^2 <= rho, capped at the ball the
            # certificate holds on.
            self.entry_radius[pid] = math.sqrt(2.0 * min(tc.rho, cert.domain_rho_prime))

    def _start(self, rng, pid: str) -> np.ndarray:
        """A seeded direction at START_FRACTION of the entry radius from the truth.

        A fixed distance keeps the step count of each job type nearly the same
        from seed to seed; a uniform draw in the ball made p50 move by a fifth.
        """
        prob = self.problems[pid]
        model = prob.model
        radius = self.START_FRACTION * self.entry_radius[pid]
        while True:
            x0 = prob.x_dagger + radius * _unit(rng, model.dim_x)
            if 0.5 * float(np.sum((x0 - model.center) ** 2)) <= model.radius_sq:
                return x0

    def make_jobs(self, rng) -> list[Job]:
        jobs = []
        for _ in range(self.DRAWS):
            for pid in self.PROBLEMS:
                y = self.problems[pid].y_exact
                jobs.append(Job("exact", f"{pid}/exact",
                                {"pid": pid, "x0": self._start(rng, pid)}))
                for delta in self.DELTAS:
                    jobs.append(Job("noisy", f"{pid}/noisy/{delta:g}",
                                    {"pid": pid, "x0": self._start(rng, pid), "delta": delta,
                                     "y": _noisy(rng, y, delta)}))
                jobs.append(Job("landweber", f"{pid}/landweber",
                                {"pid": pid, "x0": self._start(rng, pid)}))
        return [jobs[i] for i in rng.permutation(len(jobs))]

    def warmup(self) -> None:
        prob = self.problems["quadratic-2d"]
        self.run(Job("exact", "warmup", {"pid": "quadratic-2d", "x0": prob.default_x0}))

    def run(self, job: Job):
        lm = self.lm
        prob = self.problems[job.args["pid"]]
        tc, tcn = self.constants[job.args["pid"]]
        x0 = job.args["x0"]
        if job.kind == "exact":
            cfg = lm.SolverConfig(q=Q, max_iters=self.MAX_ITERS, stop_mode="target_error",
                                  target_gamma=self.TARGET_GAMMA, domain_mode="warn")
            return lm.run_exact(prob.model, prob.x_dagger, prob.y_exact, x0, cfg, tc)
        if job.kind == "noisy":
            cfg = lm.SolverConfig(q=Q, max_iters=self.MAX_ITERS, tau=TAU,
                                  delta=job.args["delta"], stop_mode="discrepancy",
                                  domain_mode="warn")
            return lm.run_noisy(prob.model, prob.x_dagger, job.args["y"], x0, cfg, tcn)
        # Landweber with the CLI's default step 0.9/||J(x0)||^2.
        jn = lm.estimate_jacobian_norm(prob.model, x0, iters=200, check=False)
        cfg = lm.SolverConfig(q=Q, max_iters=self.LANDWEBER_ITERS, domain_mode="warn")
        return lm.landweber_run(prob.model, prob.y_exact, x0, 0.9 / jn**2, cfg,
                                x_dagger=prob.x_dagger)

    def check(self, job: Job, trace) -> str | None:
        job.info["iterations"] = trace.iterations
        truth = self.problems[job.args["pid"]].x_dagger
        if job.kind == "exact":
            return _check_exact(trace, truth, math.sqrt(2.0 * self.TARGET_GAMMA),
                                ("target_reached", "zero_residual"))
        if job.kind == "noisy":
            return _check_discrepancy(trace, job.args["delta"])
        if trace.terminal not in ("zero_residual", "budget_exhausted"):
            return f"terminal {trace.terminal}"
        return None

    def models(self):
        return [p.model for p in self.problems.values()]

    def shape(self, jobs) -> dict:
        return {
            "problems": {pid: {"dim_x": p.model.dim_x, "dim_y": p.model.dim_y,
                               "entry_radius": self.entry_radius[pid]}
                         for pid, p in self.problems.items()},
            "start_distance": f"{self.START_FRACTION} x entry_radius",
            "target_gamma": self.TARGET_GAMMA,
            "job_mix": _mix(jobs),
            "iterations": _quartiles([j.info["iterations"] for j in jobs
                                      if "iterations" in j.info]),
        }

    def close(self) -> None:
        pass


class SolveWide:
    """The same drivers on generated wide models F(x) = A x + eta (B x)^2.

    Starts are scaled so that the linearized initial residual
    ||J(x_truth) e0|| is START_RESIDUAL, and exact jobs run a fixed budget of
    steps, so every job of one size does the same number of LM steps (noisy
    jobs stop at k_star = 1).  The drivers take the sizes in turn, so each
    driver sees seven sizes spread over the whole range.
    """

    name = "solve-wide"
    # 21 sizes, dim_y from 100 to 400 in steps of 15 and dim_x = dim_y / 8.
    # With four sizes, p50 jumped between job types from seed to seed; with
    # 21 the latencies are close to a continuum.
    SIZES = tuple((m, round(m / 8)) for m in range(100, 401, 15))
    ETA = 0.3
    START_RESIDUAL = 0.05
    EXACT_STEPS = 3
    # Each step contracts the residual by q = 1/2; three steps must shrink the
    # error at least fourfold.
    EXACT_ERROR_RATIO = 0.25
    DELTA = 1e-2
    MAX_ITERS = 100
    LANDWEBER_ITERS = 100

    def __init__(self, lm, rng, stage=_no_stage):
        self.lm = lm
        self.cases = [self._model(rng, m, n) for m, n in self.SIZES]
        stage()

    def _model(self, rng, m: int, n: int):
        a = rng.standard_normal((m, n)) / math.sqrt(m)
        b = rng.standard_normal((m, n)) / math.sqrt(m)
        eta = self.ETA

        def forward(x):
            bx = b @ x
            return a @ x + eta * bx * bx

        def jacobian_apply(x, v):
            return a @ v + 2.0 * eta * (b @ x) * (b @ v)

        def jacobian_adjoint_apply(x, w):
            return a.T @ w + 2.0 * eta * (b.T @ ((b @ x) * w))

        model = self.lm.ForwardModel(
            dim_x=n, dim_y=m, center=np.zeros(n), radius_sq=math.inf,
            forward=forward, jacobian_apply=jacobian_apply,
            jacobian_adjoint_apply=jacobian_adjoint_apply)
        truth = _unit(rng, n)
        return {"model": model, "truth": truth, "y": forward(truth)}

    def _start(self, rng, case) -> np.ndarray:
        truth = case["truth"]
        d = _unit(rng, truth.shape[0])
        jd = case["model"].jacobian_apply(truth, d)
        return truth + self.START_RESIDUAL / float(np.linalg.norm(jd)) * d

    def make_jobs(self, rng) -> list[Job]:
        jobs = []
        for i, case in enumerate(self.cases):
            kind = ("exact", "noisy", "landweber")[i % 3]
            args = {"case": i, "x0": self._start(rng, case)}
            if kind == "noisy":
                args["y"] = _noisy(rng, case["y"], self.DELTA)
            jobs.append(Job(kind, f"{case['model'].dim_y}x{case['model'].dim_x}/{kind}",
                            args))
        return [jobs[i] for i in rng.permutation(len(jobs))]

    def warmup(self) -> None:
        case = self.cases[0]
        self.run(Job("exact", "warmup", {"case": 0, "x0": case["truth"] + 0.01}))

    def run(self, job: Job):
        lm = self.lm
        case = self.cases[job.args["case"]]
        model, truth, x0 = case["model"], case["truth"], job.args["x0"]
        if job.kind == "exact":
            cfg = lm.SolverConfig(q=Q, max_iters=self.EXACT_STEPS)
            return lm.run_exact(model, truth, case["y"], x0, cfg)
        if job.kind == "noisy":
            cfg = lm.SolverConfig(q=Q, max_iters=self.MAX_ITERS, tau=TAU, delta=self.DELTA,
                                  stop_mode="discrepancy")
            return lm.run_noisy(model, truth, job.args["y"], x0, cfg)
        jn = lm.estimate_jacobian_norm(model, x0, iters=200, check=False)
        cfg = lm.SolverConfig(q=Q, max_iters=self.LANDWEBER_ITERS)
        return lm.landweber_run(model, case["y"], x0, 0.9 / jn**2, cfg, x_dagger=truth)

    def check(self, job: Job, trace) -> str | None:
        job.info["iterations"] = trace.iterations
        truth = self.cases[job.args["case"]]["truth"]
        if job.kind == "exact":
            e0 = float(np.linalg.norm(job.args["x0"] - truth))
            return _check_exact(trace, truth, self.EXACT_ERROR_RATIO * e0,
                                ("budget_exhausted", "zero_residual"))
        if job.kind == "noisy":
            return _check_discrepancy(trace, self.DELTA)
        if trace.terminal not in ("zero_residual", "budget_exhausted"):
            return f"terminal {trace.terminal}"
        return None

    def models(self):
        return [case["model"] for case in self.cases]

    def shape(self, jobs) -> dict:
        return {
            "sizes": [{"dim_y": m, "dim_x": n, "gram_rank_at_most": n}
                      for m, n in self.SIZES],
            "eta": self.ETA, "start_residual": self.START_RESIDUAL,
            "exact_steps": self.EXACT_STEPS, "delta": self.DELTA,
            "job_mix": _mix(jobs),
            "iterations": _quartiles([j.info["iterations"] for j in jobs
                                      if "iterations" in j.info]),
        }

    def close(self) -> None:
        pass


class Reconstruct:
    """Lattice scan plus local solve on exp-decay (run-scale constants) and quadratic-2d.

    ``recon_const`` sets the lattice size: on exp-decay with the c07a/b
    overrides the exact lattices come to about 2e3, 1e4 and 1e5 points and
    the noisy ones to about 2e3, 3e4 and 1e5.  Each spec gets STRATA truths.
    Along the slowest lattice axis, truth k sits at the (k + 1/2)/STRATA
    quantile of the box; the other coordinate is uniform.  The first hits
    therefore sit near 1/6, 1/2 and 5/6 of the scan order on every seed, so
    early and late hits are equally represented.  A uniform draw along that
    axis moved p90 by a quarter from seed to seed.
    """

    name = "reconstruct"
    OVERRIDES = {"lip_deriv": 0.5, "holder_const": 0.81, "provenance": "user"}
    RECON_CONSTS = {"exact": (2.0, 4.4, 13.7), "noisy": (0.5, 1.9, 3.5)}
    TARGET_GAMMA = 1e-10
    DELTA = 1e-3
    MAX_ITERS = 200
    STRATA = 3

    def __init__(self, lm, rng, stage=_no_stage):
        self.lm = lm
        exp = lm.get_problem("exp-decay")
        stage()
        quad = lm.get_problem("quadratic-2d")
        stage()
        self.problems = {"exp-decay": exp, "quadratic-2d": quad}
        self.specs = []
        for mode, consts in self.RECON_CONSTS.items():
            for rc in consts:
                cert = dataclasses.replace(exp.certificate, recon_const=rc, **self.OVERRIDES)
                self.specs.append(("exp-decay", mode, cert, f"exp-decay/{mode}/C{rc:g}"))
        for mode in ("exact", "noisy"):
            self.specs.append(("quadratic-2d", mode, quad.certificate,
                               f"quadratic-2d/{mode}/oracle"))
        self.measurements = {pid: lm.MeasurementOperator.identity(p.model.dim_y)
                             for pid, p in self.problems.items()}

    def _truth(self, rng, pid: str, stratum: int) -> np.ndarray:
        box = self.problems[pid].default_box
        u = rng.random(box.dim)
        u[0] = (stratum + 0.5) / self.STRATA
        return box.lower + u * (box.upper - box.lower)

    def make_jobs(self, rng) -> list[Job]:
        jobs = []
        for spec_id, (pid, mode, _, label) in enumerate(self.specs):
            for stratum in range(self.STRATA):
                truth = self._truth(rng, pid, stratum)
                y = self.problems[pid].model.forward(truth)
                if mode == "noisy":
                    y = _noisy(rng, y, self.DELTA)
                jobs.append(Job(mode, label, {"spec": spec_id, "truth": truth, "y": y}))
        return [jobs[i] for i in rng.permutation(len(jobs))]

    def warmup(self) -> None:
        spec_id = len(self.specs) - 1
        prob = self.problems["quadratic-2d"]
        truth = prob.default_box.lower + 0.5 * (prob.default_box.upper - prob.default_box.lower)
        y = prob.model.forward(truth) + self.DELTA / math.sqrt(2.0)
        self.run(Job("noisy", "warmup", {"spec": spec_id, "truth": truth, "y": y}))

    def run(self, job: Job):
        lm = self.lm
        pid, mode, cert, _ = self.specs[job.args["spec"]]
        prob = self.problems[pid]
        q_op = self.measurements[pid]
        if mode == "exact":
            return lm.reconstruct_exact(prob.model, q_op, prob.default_box, cert, Q,
                                        self.TARGET_GAMMA, job.args["y"],
                                        x_dagger=job.args["truth"])
        return lm.reconstruct_noisy(prob.model, q_op, prob.default_box, cert, Q, TAU,
                                    self.DELTA, job.args["y"], self.MAX_ITERS,
                                    x_dagger=job.args["truth"])

    def check(self, job: Job, out) -> str | None:
        x_hat, trace = out
        pid, mode, _, _ = self.specs[job.args["spec"]]
        summary = trace.recon
        job.info.update(lattice=summary.lattice_size, scanned=summary.scanned,
                        hit_fraction=summary.chosen_index / summary.lattice_size)
        truth = job.args["truth"]
        err = float(np.linalg.norm(x_hat - truth))
        if mode == "exact":
            # gamma <= target_gamma, i.e. ||x - x_truth|| <= sqrt(2 target_gamma)
            tol = math.sqrt(2.0 * self.TARGET_GAMMA)
            if trace.terminal not in ("zero_residual", "budget_exhausted"):
                return f"terminal {trace.terminal}"
        else:
            problem = _check_discrepancy(trace, self.DELTA)
            if problem:
                return problem
            # Stability estimate with the oracle's measured-data constant:
            # ||x - x_truth|| <= 2 C~ ||F(x) - F(x_truth)|| <= 2 C~ (tau + 1) delta.
            tol = 2.0 * self.problems[pid].certificate.recon_const * (TAU + 1.0) * self.DELTA
        if not err <= tol:
            return f"error {err:.3e} exceeds {tol:.3e}"
        return None

    def models(self):
        return [p.model for p in self.problems.values()]

    def shape(self, jobs) -> dict:
        lattices, hits = {}, []
        for job in jobs:
            if "lattice" in job.info:
                lattices[job.label] = job.info["lattice"]
                hits.append(job.info["hit_fraction"])
        return {
            "lattice_points": lattices,
            "first_hit_fraction": _quartiles(hits),
            "early_hit_share": sum(h < 0.25 for h in hits) / len(hits) if hits else None,
            "late_hit_share": sum(h >= 0.75 for h in hits) / len(hits) if hits else None,
            "strata_per_spec": self.STRATA,
            "job_mix": _mix(jobs),
        }

    def close(self) -> None:
        pass


def _preset_command(path: Path, mode: str) -> str:
    if mode == "verify":
        return "verify"
    if mode.startswith("reconstruct"):
        return "reconstruct"
    return "compare" if "compare" in path.stem else "solve"


class Presets:
    """Every presets/*.yaml through lmrecon.cli.main, in-process."""

    name = "presets"
    EXPECTED_EXIT = {"fault_sabotaged_adjoint": 5}

    def __init__(self, lm, rng, stage=_no_stage):
        self.lm = lm
        self.paths = sorted((ROOT / "presets").glob("*.yaml"))
        if not self.paths:
            raise FileNotFoundError(f"no presets under {ROOT / 'presets'}")
        configs = {p: lm.config.load_config(p) for p in self.paths}
        self.commands = {p: _preset_command(p, cfg.mode) for p, cfg in configs.items()}
        self.problem_ids = sorted({cfg.problem_id for cfg in configs.values()})
        for pid in self.problem_ids:
            lm.gallery.get_problem(pid)
            stage()
        self.outdir = Path(tempfile.mkdtemp(prefix=".bench-", dir=ROOT))
        self.reference: dict[str, bytes] = {}

    def make_jobs(self, rng) -> list[Job]:
        return [Job(self.commands[self.paths[i]], self.paths[i].stem,
                    {"path": self.paths[i]})
                for i in rng.permutation(len(self.paths))]

    def warmup(self) -> None:
        path = self.paths[0]
        self.run(Job(self.commands[path], "warmup", {"path": path}))

    def run(self, job: Job):
        path = job.args["path"]
        out = self.outdir / (path.stem + ".out")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return self.lm.cli.main([job.kind, "--config", str(path),
                                     "--output", str(out)])

    def check(self, job: Job, code) -> str | None:
        stem = job.args["path"].stem
        expected = self.EXPECTED_EXIT.get(stem, 0)
        if code != expected:
            return f"exit code {code}, expected {expected}"
        data = (self.outdir / (stem + ".out")).read_bytes()
        first = self.reference.setdefault(stem, data)
        if data != first:
            return "output differs from the first pass"
        if self.commands[job.args["path"]] in ("solve", "reconstruct"):
            text = data.decode("utf-8")
            tracefile = self.lm.tracefile
            if tracefile.dumps(tracefile.loads(text)) != text:
                return "trace file does not round-trip through loads/dumps"
        return None

    def models(self):
        return [self.lm.gallery.get_problem(pid).model for pid in self.problem_ids]

    def shape(self, jobs) -> dict:
        return {
            "presets": {p.stem: self.commands[p] for p in self.paths},
            "gallery_problems": self.problem_ids,
            "job_mix": {cmd: sum(1 for j in jobs if j.kind == cmd)
                        for cmd in sorted(set(self.commands.values()))},
        }

    def close(self) -> None:
        shutil.rmtree(self.outdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Solve, SolveWide, Reconstruct, Presets)}
