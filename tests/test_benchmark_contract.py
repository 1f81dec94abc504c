"""The benchmark's tracer patches lmrecon functions by name.

``benchmarks/tracing.py`` lists them in ``TARGETS``; a name it cannot find is
reported as missing and its spans vanish from a ``--trace 1`` run.  This test
pins the names that are missing on purpose, so that a refactor that drops a
traced name fails here.
"""

import importlib
import importlib.util
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
