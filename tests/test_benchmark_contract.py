"""The benchmark's tracer patches lmrecon functions by name, and its
workloads call lmrecon functions.

``benchmarks/tracing.py`` lists them in ``TARGETS``; a name it cannot find is
reported as missing and its spans vanish from a ``--trace 1`` run.  The first
test pins the names that are missing on purpose, so that a refactor that
drops a traced name fails here.  The second binds every library call of
``benchmarks/run.py`` and ``benchmarks/workloads.py`` to the signature it
calls, so that a refactor that drops a parameter a benchmark passes fails
here rather than in a benchmark run.
"""

import ast
import functools
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"

# Traced names that the library no longer defines.
KNOWN_MISSING = {"engine._run_lm", "step.solve_shifted_system",
                 "step._factor_shifted", "step.commutation_residual",
                 "tracefile.write_trace"}


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves string annotations through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_traced_names_exist():
    missing = {f"{module}.{name}"
               for module, name, _ in load_tracing().TARGETS
               if getattr(importlib.import_module(f"lmrecon.{module}"), name,
                          None) is None}
    assert missing == KNOWN_MISSING


def _library_calls(path: Path):
    """``(name, line, positional count, keywords)`` of every call of an
    lmrecon object in a benchmark source, spelled ``lm.<name>(...)`` or
    ``self.lm.<name>(...)``; ``*args`` and ``**kwargs`` are not counted."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        chain, func = [], node.func
        while isinstance(func, ast.Attribute):
            chain.append(func.attr)
            func = func.value
        if isinstance(func, ast.Name) and func.id == "self" and chain[-1:] == ["lm"]:
            chain.pop()
        elif not (isinstance(func, ast.Name) and func.id == "lm"):
            continue
        yield (".".join(reversed(chain)), node.lineno,
               sum(not isinstance(arg, ast.Starred) for arg in node.args),
               [kw.arg for kw in node.keywords if kw.arg is not None])


def test_benchmark_calls_bind_to_the_library():
    # a library signature change that would break a benchmark run fails
    # here: each call's positional count and explicit keywords must bind
    import lmrecon
    for module in ("cli", "config", "gallery", "tracefile"):
        importlib.import_module(f"lmrecon.{module}")
    unbound, calls = [], 0
    for name in ("run.py", "workloads.py"):
        path = TRACING.parent / name
        for dotted, line, positional, keywords in _library_calls(path):
            calls += 1
            target = functools.reduce(getattr, dotted.split("."), lmrecon)
            try:
                inspect.signature(target).bind(*[None] * positional,
                                               **dict.fromkeys(keywords))
            except TypeError as exc:
                unbound.append(f"{name}:{line} lm.{dotted}: {exc}")
    assert calls > 30
    assert unbound == []
