"""The benchmark's span tracer names tmsim functions by string; a refactor
that drops or renames one must fail here rather than in a traced run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{name}"
               for module, names in tracing.TRACED.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"tmsim.{module}"),
                                       name, None))]
    assert not missing, f"traced but not defined in tmsim: {missing}"
