"""The benchmark names tmsim functions by string and gates each workload's
output; a refactor that drops or renames a traced function, or that changes
what a workload writes or computes, must fail here rather than in a
benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from tmsim import presets, tomography
from tmsim.cli import main
from tmsim.pdc import reduced_density_matrix

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


def test_notes_read_real_calls():
    # each hook reads attributes of its function's arguments or result, by
    # name, only while a traced benchmark runs
    tracing = _load("tracing")
    config = presets.merge_overrides(presets.preset_config("a"),
                                     {"grid": {"count": 64}})
    jsa = presets.build_state(config)
    rho = reduced_density_matrix(jsa, presets.tomography_basis(config),
                                 config.basis.dimension)
    pset = tomography.mub_bases(config.basis.dimension)
    records = tomography.simulate_counts(rho, pset, seed=7)
    calls = {"pdc.schmidt_decompose": [((jsa,), {}), ((), {"jsa": jsa})],
             "pdc.schmidt_weights": [((jsa,), {})],
             "tomography.mle_reconstruct": [((records, pset), {})]}
    assert set(calls) == set(tracing.NOTES)
    notes = []
    for name, arguments in calls.items():
        module, attr = name.split(".")
        fn = getattr(importlib.import_module(f"tmsim.{module}"), attr)
        for args, kwargs in arguments:
            notes.append(tracing.NOTES[name](args, kwargs, fn(*args, **kwargs)))
    assert notes[:3] == [{"cells": 64 * 64}] * 3
    assert set(notes[3]) == {"iterations", "converged"}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_writes_its_artifacts_and_passes_its_gate(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    for argv in workload.steps(7, str(tmp_path)):
        assert main(argv) == 0, argv
    assert {p.name for p in tmp_path.iterdir()} == set(workload.artifacts)
    workload.check(tmp_path)
