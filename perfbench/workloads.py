"""The benchmark's workloads: the CLI calls of one pass, the artifacts a
pass must leave, and the correctness gate each pass must clear.  Their
names and the reason each exists are in BENCHMARK.json.

A gate raises :class:`GateError` on a wrong result and otherwise returns
the pass's quality figures.  Tolerances are those of the acceptance suite,
of the tomography tests and of ``ModalDensityMatrix`` itself, never looser.
Every gate holds for any seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

SCAN_A_VALUES = "0,1e5,2e5,3.8e5,6e5,1e6"
PURITY_LAW_GATE = 1e-3   # acceptance criterion 1
UNCHIRPED_PURITY_GATE = 0.999  # acceptance criterion 2
# the ceiling of tests/test_tomography.py; over seeds 1-100 the
# reconstructions reach at most 0.0039 (preset a, cli-stages) and 0.0112
# (preset b)
RECON_TRACE_DISTANCE_GATE = 0.02
HERMITIAN_TOL = 1e-10    # ModalDensityMatrix validation
PSD_TOL = 1e-8
TRACE_TOL = 1e-8

PRESET_ARTIFACTS = (
    "counts.csv", "counts.json", "filter_analysis.json", "jsa.csv", "jsa.json",
    "jsi.csv", "manifest.json", "reconstruction_log.json", "rho_hat.json",
    "rho_true.json", "schmidt.json", "summary.json")
STAGE_ARTIFACTS = (
    "rho.json", "counts.csv", "counts.json", "rho_hat.json",
    "reconstruction_log.json", "bootstrap.json", "mapping.csv",
    "separability.json", "projection.json", "filter.json")


class GateError(Exception):
    """A pass produced output that fails the correctness gate."""


@dataclass(frozen=True)
class Workload:
    name: str
    steps: Callable[[int, str], list]  # (seed, output dir) -> CLI argv lists
    artifacts: tuple
    check: Callable[[Path], dict]      # output dir -> quality figures


def _load_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _density(path: Path) -> np.ndarray:
    data = _load_json(path)
    return np.asarray(data["re"], dtype=float) + 1j * np.asarray(data["im"], dtype=float)


def _check_state(rho: np.ndarray, label: str) -> None:
    if np.max(np.abs(rho - rho.conj().T)) > HERMITIAN_TOL:
        raise GateError(f"{label} is not Hermitian")
    smallest = np.linalg.eigvalsh(rho).min()
    if smallest < -PSD_TOL:
        raise GateError(f"{label} is not PSD (smallest eigenvalue {smallest:.3e})")
    if abs(np.trace(rho).real - 1.0) > TRACE_TOL:
        raise GateError(f"{label} trace is {np.trace(rho).real!r}, not 1")


def _trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


def _reconstruction(out: Path, truth: str) -> dict:
    if _load_json(out / "reconstruction_log.json")["converged"] is not True:
        raise GateError("the MLE reconstruction did not converge")
    rho_hat = _density(out / "rho_hat.json")
    rho_true = _density(out / truth)
    _check_state(rho_hat, "rho_hat")
    _check_state(rho_true, truth)
    distance = _trace_distance(rho_hat, rho_true)
    if not distance < RECON_TRACE_DISTANCE_GATE:
        raise GateError(f"trace distance to {truth} is {distance:.3e}, "
                        f">= {RECON_TRACE_DISTANCE_GATE}")
    return {"recon_trace_distance": distance}


def _check_preset(out: Path) -> dict:
    return _reconstruction(out, "rho_true.json")


def _check_scan(out: Path) -> dict:
    lines = (out / "chirp_scan.csv").read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, map(float, ln.split(",")))) for ln in lines[1:]]
    expected = [float(a) for a in SCAN_A_VALUES.split(",")]
    if [row["chirp_fs2"] for row in rows] != expected:
        raise GateError(f"chirp_scan.csv rows do not match {SCAN_A_VALUES}")
    if not rows[0]["svd_purity"] >= UNCHIRPED_PURITY_GATE:
        raise GateError(f"unchirped purity {rows[0]['svd_purity']!r} "
                        f"< {UNCHIRPED_PURITY_GATE}")
    err = max(abs(row["svd_purity"] - row["analytic_purity"]) for row in rows)
    if not err < PURITY_LAW_GATE:
        raise GateError(f"purity law error {err:.3e} >= {PURITY_LAW_GATE}")
    return {"purity_law_err": err}


def _check_stages(out: Path) -> dict:
    quality = _reconstruction(out, "rho.json")
    probability = _load_json(out / "projection.json")["probability"]
    if not 0.0 <= probability <= 1.0:
        raise GateError(f"projection probability {probability} outside [0, 1]")
    separability = _load_json(out / "separability.json")["separability"]
    if not 0.0 < separability <= 1.0 + 1e-12:
        raise GateError(f"separability {separability} outside (0, 1]")
    std = _load_json(out / "bootstrap.json")["purity_std"]
    if not (np.isfinite(std) and std >= 0.0):
        raise GateError(f"bootstrap purity_std {std} is not a finite spread")
    return quality


def _preset_steps(case: str):
    return lambda seed, out: [["preset", case, "--seed", str(seed), "--out", out]]


def _scan_steps(seed: int, out: str) -> list:
    # the chirp scan draws no random numbers, so the seed does not enter
    return [["chirp-scan", "--a-values", SCAN_A_VALUES, "--grid-count", "1024",
             "--out", out]]


def _stage_steps(seed: int, out: str) -> list:
    return [
        ["rho", "--out", out],
        ["tomo", "simulate", "--rho", f"{out}/rho.json", "--seed", str(seed),
         "--out", out],
        ["tomo", "reconstruct", "--counts", f"{out}/counts.csv", "--out", out],
        ["tomo", "bootstrap", "--counts", f"{out}/counts.csv", "--resamples", "20",
         "--seed", str(seed), "--out", out],
        ["qpg", "map", "--count", "512", "--out", out],
        ["qpg", "project", "--rho", f"{out}/rho.json", "--mode-order", "0",
         "--out", out],
        ["qpg", "filter", "--weights", "0.8,0.2", "--filter-order", "0",
         "--out", out],
    ]


WORKLOADS = {w.name: w for w in (
    Workload("preset-b", _preset_steps("b"), PRESET_ARTIFACTS, _check_preset),
    Workload("preset-a", _preset_steps("a"), PRESET_ARTIFACTS, _check_preset),
    Workload("chirp-scan-1024", _scan_steps, ("chirp_scan.csv",), _check_scan),
    Workload("cli-stages", _stage_steps, STAGE_ARTIFACTS, _check_stages),
)}
