"""lmrecon benchmark: one closed-loop client on one of four workloads.

Run from anywhere; the repository root is found from this file's location:

    python3 benchmarks/run.py --workload solve --seed 1 --seconds 5 --trace 0

``--trace 0`` prints the end-to-end metrics (setup_s, jobs_per_s, job_ms_p50,
job_ms_p90, peak_rss_mb); ``--trace 1`` prints the per-layer metrics of a
traced run.  Every job's output is checked; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A report (environment, workload shape, sample counts) is written under
``.bench_out/`` in the repository root, and in a traced run the spans too.
See benchmarks/README.md for what each workload and metric is for.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# One BLAS thread: the client is one closed loop on one core.  On a 2-core box
# a second BLAS thread gained nothing (a 400x50 exact job took 3.3-3.9 s with
# one thread, 3.5-4.6 s with two) and competes with whatever else runs on the
# other core.  Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import inspect  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Set-up is timed in this process and again in fresh child processes, up to
# SETUP_REPEATS samples in all, while the raw samples so far sum to less than
# SETUP_BUDGET_S; the median is reported.  Set-ups that build oracle-certified
# gallery problems take 5-19 s on a 2-core box and are timed once: repeating
# them would add that much again to every run.
SETUP_REPEATS = 3
SETUP_BUDGET_S = 5.0
# Thread count of the thread-pool probe: 2, never more than the CPUs we have.
THREADS = min(2, os.cpu_count() or 1)
# A percentile is resolved when at least ten samples lie beyond it.
P90_MIN_JOBS = 100


# Every run makes at least this many passes over its job list, so that each
# job's latency is the best of two or more.
MIN_PASSES = 2
# HostProbe's time on the reference host (2-core x86-64 VM, CPython 3.11,
# numpy 2.4 on OpenBLAS 0.3.31, one BLAS thread) while its other core is idle.
PROBE_REFERENCE_S = 4.7e-3


@dataclasses.dataclass
class Result:
    index: int
    job: object
    latency: float
    scaled: float
    error: str | None


class HostProbe:
    """A fixed piece of work, timed between jobs, that measures the host's speed.

    On a shared 2-core host the same job ran 1.7x slower for tens of seconds
    at a time while the other core was busy.  The probe mixes what the jobs
    spend their time on (Python calls, small numpy and LAPACK calls, the
    per-point arithmetic of a lattice scan, one 150x150 Cholesky) and slows
    down with them, so ``latency * PROBE_REFERENCE_S / probe`` is the latency
    on a host as fast as the reference one.  In a 75-s trial, scaling by such
    a probe cut the swing of 4-s medians from 1.7x to 1.16x on a solve job
    and from 1.5x to 1.2x on a 300x37 solve-wide job.
    """

    def __init__(self):
        import numpy as np
        import scipy.linalg

        self._np, self._linalg = np, scipy.linalg
        self._small = 4.0 * np.eye(3) + 0.1
        big = np.random.default_rng(0).standard_normal((150, 150))
        self._big = big @ big.T + 150.0 * np.eye(150)
        self()  # the first call pays one-off costs; do not let it scale anything

    @staticmethod
    def _step(x: float) -> float:
        return x * 1.0001 + 1.0

    def __call__(self) -> float:
        np, linalg = self._np, self._linalg
        start = time.perf_counter()
        x = 0.0
        for _ in range(3000):
            x = self._step(x)
        v = np.ones(3)
        for _ in range(150):
            v = linalg.cho_solve(linalg.cho_factor(self._small, lower=True), v)
            np.linalg.norm(v)
        t = np.arange(3.0)
        for i in range(100):
            np.linalg.norm(np.asarray(v, dtype=float)[0] * np.exp(-i * 1e-3 * t) - v)
        for _ in range(3):
            linalg.cho_factor(self._big, lower=True)
        return time.perf_counter() - start


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the ceil(p/100 * n)-th smallest value."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]


def best_latencies(results, field: str = "scaled") -> list[float]:
    """Each job's fastest pass, in seconds (host-scaled unless ``field="latency"``)."""
    best: dict = {}
    for r in results:
        best[r.index] = min(best.get(r.index, math.inf), getattr(r, field))
    return list(best.values())


def run_phase(wl, jobs, seconds: float, min_passes: int, probe, tracer=None):
    """Closed loop over the job list: each job starts when the previous one is checked.

    Whole passes over ``jobs`` run until ``seconds`` have passed and at least
    ``min_passes`` are done.  Only ``wl.run`` is timed; the host probe runs
    between jobs, and checks are not timed either.  Returns one result per job
    run, the median probe time and, when traced, the model callbacks made
    inside jobs.
    """
    results = []
    calls = {"forward": 0, "jacobian": 0, "adjoint": 0}
    start = time.perf_counter()
    passes = 0
    probe_before = probe()
    probe_times = [probe_before]
    while passes < min_passes or time.perf_counter() - start < seconds:
        for index, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = len(results)
                before = dict(tracer.calls)
            t0 = time.perf_counter()
            try:
                out = wl.run(job)
                error = None
            except Exception as exc:  # a failed job is counted, not fatal
                out, error = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
            if tracer is not None:
                tracer.job = None
                for key in calls:
                    calls[key] += tracer.calls[key] - before[key]
            probe_after = probe()
            probe_times.append(probe_after)
            scaled = latency * 2.0 * PROBE_REFERENCE_S / (probe_before + probe_after)
            probe_before = probe_after
            if error is None:
                error = wl.check(job, out)
            results.append(Result(index, job, latency, scaled, error))
        passes += 1
    return results, statistics.median(probe_times), calls


class SetupClock:
    """Set-up time, host-scaled stage by stage like the job latencies.

    ``stage()`` closes a stage: its wall time is scaled by the mean of the
    probes at its two ends.  The first stage (interpreter start to the first
    probe, mostly imports) is scaled by the first probe alone.  Probe time
    itself is left out of both the raw and the scaled sums.
    """

    def __init__(self, probe):
        self._probe = probe
        now = time.perf_counter()
        self._last_probe = probe()
        self.raw = now - T_START
        self.scaled = self.raw * PROBE_REFERENCE_S / self._last_probe
        self._last_t = time.perf_counter()

    def stage(self) -> None:
        now = time.perf_counter()
        probe = self._probe()
        self.raw += now - self._last_t
        self.scaled += (now - self._last_t) * 2.0 * PROBE_REFERENCE_S / (
            self._last_probe + probe)
        self._last_probe = probe
        self._last_t = time.perf_counter()


def child_setup_seconds(args) -> tuple[float, float]:
    """Set-up time of a fresh process running the same workload and seed."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    return child["setup_s"], child["setup_s_raw"]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy
    import scipy
    import yaml
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        blas = {}
    blas["threads"] = blas_threads()
    blas["env"] = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                              "MKL_NUM_THREADS") if k in os.environ}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "blas": blas,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def latency_summary(results) -> dict:
    """Sample counts and both the host-scaled and the raw wall-clock figures."""
    summary = {"jobs": len({r.index for r in results}), "runs": len(results),
               "p90_resolved": len({r.index for r in results}) >= P90_MIN_JOBS}
    for field in ("scaled", "latency"):
        best = best_latencies(results, field)
        summary[f"{field}_best"] = {"jobs_per_s": len(best) / sum(best),
                                    "p50_ms": percentile(best, 50) * 1e3,
                                    "p90_ms": percentile(best, 90) * 1e3}
    summary["passes"] = summary["runs"] // summary["jobs"]
    summary["host_slowdown_median"] = statistics.median(r.latency / r.scaled for r in results)
    by_label: dict = {}
    for r in results:
        by_label.setdefault(r.job.label, []).append(r.scaled * 1e3)
    summary["scaled_median_ms_by_label"] = {k: statistics.median(v)
                                            for k, v in sorted(by_label.items())}
    return summary


def end_to_end(args, wl, jobs, clock: SetupClock, probe):
    results, probe_s, _ = run_phase(wl, jobs, args.seconds, MIN_PASSES, probe)
    rss = peak_rss_mb()
    setups, raw = [clock.scaled], [clock.raw]
    while len(setups) < SETUP_REPEATS and sum(raw) < SETUP_BUDGET_S:
        scaled_s, raw_s = child_setup_seconds(args)
        setups.append(scaled_s)
        raw.append(raw_s)
    best = best_latencies(results)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "jobs_per_s": (len(best) / sum(best), "1/s"),
        "job_ms_p50": (percentile(best, 50) * 1e3, "ms"),
        "job_ms_p90": (percentile(best, 90) * 1e3, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    details = {"setup_s_samples": setups, "setup_s_raw_samples": raw,
               "probe_median_s": probe_s, "latency": latency_summary(results)}
    return results, metrics, details


PROBE_JOBS = 3


def run_probes(lm, tracer, workdir: Path):
    """PROBE_JOBS fixed jobs that between them reach every traced layer.

    A workload that never calls into a layer takes that layer's metrics from
    these probes instead (the report names the source of every metric).
    Returns the exp-decay problem the first probe built.
    """
    tracer.job = "probe:build"
    prob = lm.exp_decay((0.0, 1.0, 2.0), (1.2, 0.7))
    tracer.count_models([prob.model])
    tracer.job = "probe:reconstruct"
    cert = dataclasses.replace(prob.certificate, lip_deriv=0.5, holder_const=0.81,
                               recon_const=2.0, provenance="user")
    truth = [1.3, 0.9]
    lm.reconstruct_exact(prob.model, lm.MeasurementOperator.identity(prob.model.dim_y),
                         prob.default_box, cert, 0.5, 1e-10, prob.model.forward(truth),
                         x_dagger=truth)
    tracer.job = "probe:cli"
    config = workdir / "probe.yaml"
    config.write_text("problem_id: scalar-linear\nmode: exact\nq: 0.5\n"
                      "max_iters: 30\noutput_path: probe.trace\n", encoding="utf-8")
    out = workdir / "probe.trace"
    with contextlib.redirect_stdout(io.StringIO()):
        code = lm.cli.main(["solve", "--config", str(config), "--output", str(out)])
    lm.tracefile.read_trace(out)
    tracer.job = None
    if code != 0:
        raise RuntimeError(f"probe CLI job exited with {code}")
    return prob


def traced(args, wl, jobs, lm, host):
    import tracing

    # Half of --seconds untraced, half traced, at least one pass each; the
    # overhead compares the two halves on the same jobs.
    untraced, _, _ = run_phase(wl, jobs, args.seconds / 2, 1, host)
    tracer = tracing.Tracer()
    tracer.count_models(wl.models())
    tracer.install(lm)
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as workdir:
        try:
            results, _, calls = run_phase(wl, jobs, args.seconds / 2, 1, host, tracer)
            tracer.phase = "probe"
            prob = run_probes(lm, tracer, Path(workdir))
            tracer.phase = "threads"
            threads_used = thread_probes(lm, tracer, prob)
        finally:
            tracer.uninstall()
    workload, probe, threads = tracing.scopes(tracer, len(results), PROBE_JOBS, calls)
    values, sources = tracing.layer_metrics(workload, probe)
    for tag in ("t1", "t2"):
        for name in ("recon.scan_us_per_point", "gallery.estimate_us_per_pair"):
            unit, _, formula = tracing.LAYER_METRICS[name]
            values[f"{name}.{tag}"] = (formula(threads[tag]), unit)
            sources[f"{name}.{tag}"] = "thread probe"
    p50_untraced = percentile(best_latencies(untraced), 50)
    p50_traced = percentile(best_latencies(results), 50)
    values["trace.overhead_ms_p50"] = ((p50_traced - p50_untraced) * 1e3, "ms")
    details = {
        "metric_source": sources,
        "untraced": latency_summary(untraced),
        "traced": latency_summary(results),
        "thread_probe_threads": threads_used,
        "targets_missing": tracer.missing,
        "spans": len(tracer.spans),
    }
    return untraced + results, values, details, tracer


def thread_probes(lm, tracer, prob) -> int:
    """Same scan and same estimate at 1 thread (tag t1) and THREADS threads (t2).

    The scan covers a ~3e4-point lattice whose only hit is its last point, so
    every point is evaluated on both paths.  Returns the thread count used,
    1 when the library no longer takes a ``threads`` argument.
    """
    box = prob.default_box
    lattice = lm.build_lattice(box, 0.004)
    measured = lm.compose_measured_model(
        prob.model, lm.MeasurementOperator.identity(prob.model.dim_y))
    y = measured.forward(lattice.points[-1])
    has_threads = ("threads" in inspect.signature(lm.scan_for_initial_guess).parameters
                   and "threads" in inspect.signature(
                       lm.estimate_stability_constants).parameters)
    threads = THREADS if has_threads else 1
    for tag, n in (("t1", 1), ("t2", threads)):
        kwargs = {"threads": n} if has_threads else {}
        tracer.job = tag
        _, hit, _ = lm.scan_for_initial_guess(lattice, measured, y, 1e-12, details=True,
                                              **kwargs)
        if hit != lattice.size - 1:
            raise RuntimeError(f"thread probe scan hit {hit}, expected {lattice.size - 1}")
        lm.estimate_stability_constants(prob.model, box, eps=1.0, samples=10000, seed=7,
                                        **kwargs)
    tracer.job = None
    return threads


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("solve", "solve-wide", "reconstruct", "presets"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time the set-up, print it and exit (used for repeats)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lmrecon" / "__init__.py").is_file():
        print(f"lmrecon sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import lmrecon
    import lmrecon.cli
    import lmrecon.config
    import lmrecon.gallery
    import lmrecon.tracefile
    import workloads

    setup_seq, jobs_seq = np.random.SeedSequence(args.seed).spawn(2)
    probe = HostProbe()
    clock = SetupClock(probe)
    wl = workloads.WORKLOADS[args.workload](lmrecon, np.random.default_rng(setup_seq),
                                            clock.stage)
    try:
        wl.warmup()
        clock.stage()
        if args.setup_only:
            print(json.dumps({"setup_s": clock.scaled, "setup_s_raw": clock.raw}))
            return 0
        jobs = wl.make_jobs(np.random.default_rng(jobs_seq))
        tracer = None
        if args.trace:
            results, metrics, details, tracer = traced(args, wl, jobs, lmrecon, probe)
        else:
            results, metrics, details = end_to_end(args, wl, jobs, clock, probe)
        shape = wl.shape(jobs)
    finally:
        wl.close()

    failures = [r for r in results if r.error is not None]
    for r in failures[:10]:
        print(f"FAILED {r.job.label}: {r.error}", file=sys.stderr)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), "shape": shape,
              "details": details,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"report-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, default=str)
    if tracer is not None:
        tracer.dump(OUT / f"spans-{stem}.json.gz")

    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:14.6g} {unit}")
    lat = details.get("latency") or details["traced"]
    print(f"{'jobs':45s} {lat['jobs']:14d} x {lat['passes']} passes "
          f"(p90 resolved: {lat['p90_resolved']}; "
          f"host slowdown {lat['host_slowdown_median']:.2f})")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
