"""Span tracing around calls into the lmrecon modules, and the per-layer metrics.

The tracer replaces module-level functions of ``lmrecon.*`` with wrappers that
record one span per call (name, start, end, parent span, job id, phase) and
puts everything back on ``uninstall``.  Every module namespace that holds the
function object (and every module-level dict, such as the CLI's command table)
is patched, so calls between the library's own modules are traced too.  Model
callables are counted in place, the way ``cli.counting_model`` counts them.
Spans stay in memory until the run ends.

Nothing here changes what the library computes; a traced run only adds the
wrapper cost, which the benchmark reports as ``trace.overhead_ms_p50``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

MODULES = ("engine", "step", "operators", "recon", "gallery", "tracefile",
           "config", "cli")


def _iterations(args, kwargs, result):
    return result.iterations


def _bracket_iters(args, kwargs, result):
    return result[1].bracket_iters


def _scanned(args, kwargs, result):
    return result[2] if isinstance(result, tuple) else None


def _pairs(args, kwargs, result):
    return result[0].shape[0]


def _rows_in(args, kwargs, result):
    return len(args[0].rows)


def _rows_out(args, kwargs, result):
    return len(result.rows)


# (module, function, note): the note extracts a count from the call's result
# or arguments and is stored on the span.  Tiny helpers that run once per
# scanned point (apply_forward, check_domain, as_vector) are left out: a span
# costs about as much as they do.
TARGETS = (
    ("engine", "run_exact", _iterations),
    ("engine", "run_noisy", _iterations),
    ("engine", "landweber_run", _iterations),
    ("engine", "_run_lm", None),
    ("step", "lm_step", _bracket_iters),
    ("step", "_select_alpha", None),
    ("step", "gram_matrix", None),
    ("step", "solve_shifted_system", None),
    ("step", "_factor_shifted", None),
    ("step", "commutation_residual", None),
    ("operators", "jacobian_matrix", None),
    ("operators", "estimate_jacobian_norm", None),
    ("operators", "finite_difference_jacobian", None),
    ("operators", "max_adjoint_defect", None),
    ("recon", "reconstruct_exact", None),
    ("recon", "reconstruct_noisy", None),
    ("recon", "scan_for_initial_guess", _scanned),
    ("recon", "build_lattice", None),
    ("recon", "compose_measured_model", None),
    ("gallery", "get_problem", None),
    ("gallery", "estimate_stability_constants", None),
    ("gallery", "verify_certificate", None),
    ("gallery", "_pair_arrays", _pairs),
    ("gallery", "scalar_linear", None),
    ("gallery", "exp_decay", None),
    ("gallery", "quadratic_perturbation", None),
    ("gallery", "sabotaged_adjoint_fixture", None),
    ("tracefile", "dumps", _rows_in),
    ("tracefile", "loads", _rows_out),
    ("tracefile", "write_trace", None),
    ("tracefile", "read_trace", None),
    ("config", "load_config", None),
    ("config", "parse_text", None),
    ("config", "parse", None),
    ("cli", "main", None),
    ("cli", "cmd_solve", None),
    ("cli", "cmd_reconstruct", None),
    ("cli", "cmd_verify", None),
    ("cli", "cmd_compare", None),
    ("cli", "make_noise", None),
    ("cli", "_header", None),
    ("cli", "_resolve_certificate", None),
)

DRIVERS = ("engine.run_exact", "engine.run_noisy", "engine.landweber_run")
PIPELINES = ("recon.reconstruct_exact", "recon.reconstruct_noisy")
# Builders that run the sampling oracle (estimate + fresh-seed verify); the
# closed-form scalar_linear costs nothing and would dilute the mean.
ORACLE_BUILDERS = ("gallery.exp_decay", "gallery.quadratic_perturbation")
MODEL_FIELDS = (("forward", "forward"), ("jacobian_apply", "jacobian"),
                ("jacobian_adjoint_apply", "adjoint"))


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: int | None
    phase: str
    note: float | None
    forward_calls: int


class Tracer:
    """Records spans at the lmrecon module boundaries while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.calls = {"forward": 0, "jacobian": 0, "adjoint": 0}
        self.job: int | None = None
        self.phase = "jobs"
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, note):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            fwd0 = tracer.calls["forward"]
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(
                    sid, name, start, end, parent, tracer.job, tracer.phase,
                    note(args, kwargs, result) if note and result is not None else None,
                    tracer.calls["forward"] - fwd0,
                ))

        return traced

    def install(self, package) -> None:
        """Patch every TARGETS function wherever lmrecon's modules hold it."""
        mods = [package] + [importlib.import_module(f"{package.__name__}.{m}")
                            for m in MODULES]
        for module, fname, note in TARGETS:
            owner = importlib.import_module(f"{package.__name__}.{module}")
            original = getattr(owner, fname, None)
            if original is None:
                self.missing.append(f"{module}.{fname}")
                continue
            wrapped = self._wrap(f"{module}.{fname}", original, note)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        self._restore.append((mod, attr, original))
                    elif isinstance(value, dict):
                        for key, item in list(value.items()):
                            if item is original:
                                value[key] = wrapped
                                self._restore.append((value, key, original))

    def count_models(self, models) -> None:
        """Count forward/Jacobian/adjoint callbacks of the given models in place."""
        seen = set()
        for model in models:
            if id(model) in seen:
                continue
            seen.add(id(model))
            for field, key in MODEL_FIELDS:
                original = getattr(model, field)

                def counted(*args, _fn=original, _key=key):
                    self.calls[_key] += 1
                    return _fn(*args)

                # ForwardModel is frozen; __post_init__ uses the same escape.
                object.__setattr__(model, field, counted)
                self._restore.append((model, field, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                object.__setattr__(owner, key, original)
        self._restore.clear()

    def dump(self, path) -> None:
        """Write every span as gzipped JSON, one list of fields per span."""
        names = ("id", "name", "start", "end", "parent", "job", "phase",
                 "note", "forward_calls")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": names,
                       "spans": [[getattr(s, n) for n in names] for s in self.spans]},
                      fh)


class Scope:
    """Aggregates over one set of spans, with ``jobs`` timed jobs behind them."""

    def __init__(self, spans: list[Span], jobs: int, child_time: dict, names: dict,
                 job_calls: dict | None = None):
        self.jobs = jobs
        self.job_calls = job_calls or {}
        self.by_name: dict[str, list[Span]] = {}
        for span in spans:
            self.by_name.setdefault(span.name, []).append(span)
        self._spans = spans
        self._child_time = child_time
        self._names = names

    def has(self, *names) -> bool:
        return any(self.by_name.get(n) for n in names)

    def count(self, *names) -> int:
        return sum(len(self.by_name.get(n, ())) for n in names)

    def seconds(self, *names, parent=None) -> float:
        return sum(s.end - s.start for n in names for s in self.by_name.get(n, ())
                   if parent is None or self._names.get(s.parent) in parent)

    def notes(self, *names) -> float:
        return sum(s.note or 0 for n in names for s in self.by_name.get(n, ()))

    def forward_calls(self, *names) -> int:
        return sum(s.forward_calls for n in names for s in self.by_name.get(n, ()))

    def children_notes(self, child: str, parents) -> float:
        return sum(s.note or 0 for s in self.by_name.get(child, ())
                   if self._names.get(s.parent) in parents)

    def self_seconds(self, module: str) -> float:
        """Time inside ``module``'s spans not covered by their child spans, in jobs."""
        prefix = module + "."
        return sum(s.end - s.start - self._child_time.get(s.id, 0.0)
                   for s in self._spans
                   if s.job is not None and s.name.startswith(prefix))


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


# name -> (unit, spans the workload must contain to be measured there, formula).
# A metric whose spans the workload never produced is taken from the probe
# phase instead, which touches every layer once on fixed inputs.
LAYER_METRICS = {
    "step.select_alpha_us_per_step": (
        "us", ("step._select_alpha",),
        lambda s: _ratio(s.seconds("step._select_alpha"), s.count("step.lm_step"), 1e6)),
    "step.bracket_iters_per_step": (
        "count", ("step.lm_step",),
        lambda s: _ratio(s.notes("step.lm_step"), s.count("step.lm_step"))),
    "step.factorizations_per_step": (
        "count", ("step.lm_step",),
        lambda s: _ratio(s.count("step._factor_shifted"), s.count("step.lm_step"))),
    "step.jac_norm_us_per_step": (
        "us", ("step.lm_step",),
        lambda s: _ratio(s.seconds("operators.estimate_jacobian_norm",
                                   parent=("step._select_alpha", "step.lm_step")),
                         s.count("step.lm_step"), 1e6)),
    "step.gram_us_per_call": (
        "us", ("step.gram_matrix",),
        lambda s: _ratio(s.seconds("step.gram_matrix"), s.count("step.gram_matrix"), 1e6)),
    "operators.forward_calls_per_job": (
        "count", (), lambda s: _ratio(s.job_calls.get("forward", 0), s.jobs)),
    "operators.jac_calls_per_job": (
        "count", (), lambda s: _ratio(s.job_calls.get("jacobian", 0), s.jobs)),
    "operators.adj_calls_per_job": (
        "count", (), lambda s: _ratio(s.job_calls.get("adjoint", 0), s.jobs)),
    "operators.jacobian_matrix_us": (
        "us", ("operators.jacobian_matrix",),
        lambda s: _ratio(s.seconds("operators.jacobian_matrix"),
                         s.count("operators.jacobian_matrix"), 1e6)),
    "engine.iters_per_job": (
        "count", DRIVERS, lambda s: _ratio(s.notes(*DRIVERS), s.jobs)),
    "engine.loop_self_ms_per_job": (
        "ms", DRIVERS, lambda s: _ratio(s.self_seconds("engine"), s.jobs, 1e3)),
    "recon.scan_us_per_point": (
        "us", ("recon.scan_for_initial_guess",),
        lambda s: _ratio(s.seconds("recon.scan_for_initial_guess"),
                         s.notes("recon.scan_for_initial_guess"), 1e6)),
    "recon.points_scanned_per_job": (
        "count", PIPELINES,
        lambda s: _ratio(s.notes("recon.scan_for_initial_guess"), s.count(*PIPELINES))),
    "recon.forward_evals_per_scanned_point": (
        "count", ("recon.scan_for_initial_guess",),
        lambda s: _ratio(s.forward_calls("recon.scan_for_initial_guess"),
                         s.notes("recon.scan_for_initial_guess"))),
    "recon.build_lattice_ms": (
        "ms", ("recon.build_lattice",),
        lambda s: _ratio(s.seconds("recon.build_lattice"),
                         s.count("recon.build_lattice"), 1e3)),
    "recon.local_solve_ms_per_job": (
        "ms", PIPELINES,
        lambda s: _ratio(s.seconds("engine.run_exact", "engine.run_noisy",
                                   parent=PIPELINES),
                         s.count(*PIPELINES), 1e3)),
    "gallery.estimate_us_per_pair": (
        "us", ("gallery.estimate_stability_constants",),
        lambda s: _ratio(s.seconds("gallery.estimate_stability_constants"),
                         s.children_notes("gallery._pair_arrays",
                                          ("gallery.estimate_stability_constants",)),
                         1e6)),
    "gallery.verify_us_per_pair": (
        "us", ("gallery.verify_certificate",),
        lambda s: _ratio(s.seconds("gallery.verify_certificate"),
                         s.children_notes("gallery._pair_arrays",
                                          ("gallery.verify_certificate",)),
                         1e6)),
    "gallery.build_s_per_problem": (
        "s", ORACLE_BUILDERS,
        lambda s: _ratio(s.seconds(*ORACLE_BUILDERS), s.count(*ORACLE_BUILDERS))),
    "tracefile.dumps_us_per_row": (
        "us", ("tracefile.dumps",),
        lambda s: _ratio(s.seconds("tracefile.dumps"), s.notes("tracefile.dumps"), 1e6)),
    "tracefile.loads_us_per_row": (
        "us", ("tracefile.loads",),
        lambda s: _ratio(s.seconds("tracefile.loads"), s.notes("tracefile.loads"), 1e6)),
    "config.load_ms": (
        "ms", ("config.load_config",),
        lambda s: _ratio(s.seconds("config.load_config"),
                         s.count("config.load_config"), 1e3)),
    "cli.self_ms_per_job": (
        "ms", ("cli.main",),
        lambda s: _ratio(s.self_seconds("cli"), s.count("cli.main"), 1e3)),
}
for _module in ("step", "operators", "recon", "gallery", "tracefile", "config"):
    LAYER_METRICS[f"{_module}.self_ms_per_job"] = (
        "ms", tuple(f"{m}.{f}" for m, f, _ in TARGETS if m == _module),
        lambda s, m=_module: _ratio(s.self_seconds(m), s.jobs, 1e3))


def scopes(tracer: Tracer, jobs: int, probe_jobs: int, job_calls: dict):
    """Workload, probe and thread-probe scopes over the recorded spans."""
    names = {s.id: s.name for s in tracer.spans}
    names[None] = None
    child_time: dict = defaultdict(float)
    for s in tracer.spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    workload = Scope([s for s in tracer.spans if s.phase == "jobs"], jobs,
                     child_time, names, job_calls)
    probe = Scope([s for s in tracer.spans if s.phase == "probe"], probe_jobs,
                  child_time, names)
    threads = {}
    for s in tracer.spans:
        if s.phase == "threads":
            threads.setdefault(s.job, []).append(s)
    threads = {tag: Scope(spans, 0, child_time, names) for tag, spans in threads.items()}
    return workload, probe, threads


def layer_metrics(workload: Scope, probe: Scope):
    """Every LAYER_METRICS value, and which scope each came from."""
    values, sources = {}, {}
    for name, (unit, needs, formula) in LAYER_METRICS.items():
        here = not needs or workload.has(*needs)
        scope = workload if here else probe
        values[name] = (formula(scope), unit)
        sources[name] = "workload" if here else "probe"
    return values, sources
