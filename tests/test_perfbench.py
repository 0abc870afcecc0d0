"""The benchmark names tmsim functions by string and gates each workload's
output; a refactor that drops or renames a traced function, or that changes
what a workload writes or computes, must fail here rather than in a
benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from tmsim.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # a dataclass under `from __future__ import annotations` looks its
    # module up in sys.modules while it is being defined
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")


def test_traced_functions_exist():
    tracing = _load("tracing")
    missing = [f"{module}.{name}"
               for module, names in tracing.TRACED.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"tmsim.{module}"),
                                       name, None))]
    assert not missing, f"traced but not defined in tmsim: {missing}"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_writes_its_artifacts_and_passes_its_gate(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    for argv in workload.steps(7, str(tmp_path)):
        assert main(argv) == 0, argv
    assert {p.name for p in tmp_path.iterdir()} == set(workload.artifacts)
    workload.check(tmp_path)
