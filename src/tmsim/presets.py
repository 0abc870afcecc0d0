"""Experiment configuration, the four pair-source presets and the scan and
pipeline runners behind the command line.

A preset run builds the joint amplitude from the configured pump and
phasematching, takes its partial trace over the idler in the frozen
tomography basis, simulates a full mutually-unbiased measurement, and
reconstructs the state with bootstrap error bars.  Every run writes a
manifest with the fully resolved configuration; re-running from a manifest
reproduces all outputs byte for byte.

A chirp scan builds no joint amplitude.  The chirp only sets the pump's
phase, so the scan samples the intensity, its marginal widths, the purity's
crop and the unchirped pump on the crop once (`pdc.ScanSupport`), and each
row multiplies the pump's crop slice by its chirp phase and takes the Gram
purity of the amplitude on the crop; a row agrees with the single-state
path, `build_state`, to within rounding, not bit for bit.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import reprlib
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, serialize
from .errors import InvalidArgumentError
from .pdc import (
    JointSpectralAmplitude,
    PhasematchingModel,
    ScanSupport,
    build_jsa,
    chirp_purity_analytic,
    g2_from_purity,
    jsi_marginal_sigmas,
    matched_phasematching_width,
    background_mixed_g2,
    reduced_density_matrix,
    schmidt_decompose,
    schmidt_purity,
    sum_frequency_grid,
)
from .qpg import FilterSpec, SelectivityModel, apply_mode_filter
from .serialize import write_text
from .spectral import (
    ChirpPhase,
    ComplexSpectrum,
    HermiteGaussParams,
    amplitude_width,
    apply_chirp,
    hg_mode,
    make_grid,
    wavelength_to_omega,
)
from .tomography import (
    MAX_POISSON_MEAN,
    MLEConfig,
    monte_carlo_errors,
    mub_bases,
    simulate_counts,
)

TOOL_VERSION = __version__

#: the decorrelated reference source that fixes the crystal and the basis
REFERENCE_PUMP_CENTER_NM = 769.0
REFERENCE_PUMP_FWHM_NM = 1.72

#: reconstructed purity / purity expected from the joint intensity
TABLE_REFERENCE = {
    "a": {"reconstructed_purity": 0.896, "jsi_purity": 0.995},
    "b": {"reconstructed_purity": 0.523, "jsi_purity": 0.652},
    "c": {"reconstructed_purity": 0.317, "jsi_purity": 0.377},
    "d": {"reconstructed_purity": 0.531, "jsi_purity": 0.542},
}


def _require(condition: bool, name: str, message: str) -> None:
    if not condition:
        raise InvalidArgumentError(f"{name}: {message}")


def _is_finite(value) -> bool:
    try:  # an int beyond the largest double overflows on the way
        return math.isfinite(value)
    except OverflowError:
        return False


def _admits(declared, value) -> bool:
    if isinstance(value, bool):
        return False
    origin, args = typing.get_origin(declared), typing.get_args(declared)
    if origin is typing.Union:  # Optional[T]
        return value is None or _admits(args[0], value)
    if origin is list:  # stored as a tuple once checked
        return (isinstance(value, (list, tuple))
                and all(_admits(args[0], v) for v in value))
    if declared is float:
        return isinstance(value, (int, float)) and _is_finite(value)
    return isinstance(value, declared)


@functools.cache
def _field_types(cls) -> dict:
    return typing.get_type_hints(cls)


def _check_types(record, prefix: str) -> None:
    """Reject a field value its declared type does not admit: an int field
    takes an int, a float field an int or a float that is a finite double
    (no inf, nan or int beyond 1.8e308), a list field a list of its element
    type (or a tuple of them), None only an Optional field, and bool
    nothing.  Values are checked, never converted, so a manifest records
    them as given."""
    hints = _field_types(type(record))
    for f in dataclasses.fields(record):
        value = getattr(record, f.name)
        if not _admits(hints[f.name], value):
            finite = " with a finite double value" if "float" in f.type else ""
            raise InvalidArgumentError(
                f"{prefix}{f.name}: must be of type {f.type}{finite}, "
                f"got {reprlib.repr(value)}")


@dataclass(frozen=True)
class PumpConfig:
    shape_order: int = 0
    center_nm: float = REFERENCE_PUMP_CENTER_NM
    fwhm_nm: float = REFERENCE_PUMP_FWHM_NM
    chirp_fs2: float = 0.0

    def __post_init__(self):
        _check_types(self, "pump.")
        _require(self.shape_order in (0, 1), "pump.shape_order",
                 f"must be 0 or 1, got {self.shape_order}")
        _require(self.center_nm > 0, "pump.center_nm",
                 f"must be positive, got {self.center_nm}")
        _require(self.fwhm_nm > 0, "pump.fwhm_nm",
                 f"must be positive, got {self.fwhm_nm}")

    def amplitude_sigma(self) -> float:
        return amplitude_width(self.center_nm, self.fwhm_nm)


#: the reference source (default pump, matched 45-degree Gaussian ridge) is
#: exactly exp(-ds^2/sp^2) * exp(-di^2/sp^2), sp the pump's amplitude width:
#: one Schmidt mode, HG0 of this width, which the crystal and basis share
REFERENCE_WIDTH = matched_phasematching_width(PumpConfig().amplitude_sigma())


@dataclass(frozen=True)
class PhasematchingConfig:
    angle_deg: float = 45.0
    width_rad_per_fs: Optional[float] = None  # None: matched to the reference pump
    shape: str = "gaussian"

    def __post_init__(self):
        _check_types(self, "phasematching.")
        self.model()

    def model(self) -> PhasematchingModel:
        width = self.width_rad_per_fs
        if width is None:  # crystal fixed by the decorrelated source
            width = REFERENCE_WIDTH
        return PhasematchingModel(angle_deg=self.angle_deg, width=width,
                                  shape=self.shape)


@dataclass(frozen=True)
class BasisConfig:
    dimension: int = 7
    width_rad_per_fs: Optional[float] = None  # None: REFERENCE_WIDTH

    def __post_init__(self):
        _check_types(self, "basis.")
        _require(self.dimension >= 1, "basis.dimension",
                 f"must be >= 1, got {self.dimension}")
        if self.width_rad_per_fs is not None:
            _require(self.width_rad_per_fs > 0, "basis.width_rad_per_fs",
                     f"must be positive, got {self.width_rad_per_fs}")

    def width(self) -> float:
        """Amplitude width of the basis modes, `REFERENCE_WIDTH` unless given."""
        width = self.width_rad_per_fs
        return REFERENCE_WIDTH if width is None else width


@dataclass(frozen=True)
class QpgConfig:
    crosstalk: float = 0.0
    per_order_falloff: Optional[list[float]] = None
    filter_efficiency: float = 0.22

    def __post_init__(self):
        _check_types(self, "qpg.")
        if self.per_order_falloff is not None:
            object.__setattr__(self, "per_order_falloff",
                               tuple(self.per_order_falloff))
        self.selectivity()
        _require(0.0 <= self.filter_efficiency <= 1.0, "qpg.filter_efficiency",
                 f"must lie in [0, 1], got {self.filter_efficiency}")

    def selectivity(self) -> SelectivityModel:
        return SelectivityModel(crosstalk=self.crosstalk,
                                per_order_falloff=self.per_order_falloff)


@dataclass(frozen=True)
class TomographyConfig:
    flux: float = 1e5
    background: float = 0.0
    seed: int = 7
    resamples: int = 100

    def __post_init__(self):
        _check_types(self, "tomography.")
        # numpy cannot sample Poisson means beyond MAX_POISSON_MEAN
        _require(0 < self.flux <= MAX_POISSON_MEAN, "tomography.flux",
                 f"must lie in (0, {MAX_POISSON_MEAN:.0e}], got {self.flux}")
        _require(0 <= self.background <= MAX_POISSON_MEAN, "tomography.background",
                 f"must lie in [0, {MAX_POISSON_MEAN:.0e}], got {self.background}")
        _require(self.seed >= 0, "tomography.seed",
                 f"must be >= 0, got {self.seed}")
        _require(self.resamples >= 2, "tomography.resamples",
                 f"must be >= 2, got {self.resamples}")


@dataclass(frozen=True)
class GridConfig:
    count: int = 512
    signal_center_nm: float = 1540.0

    def __post_init__(self):
        _check_types(self, "grid.")
        _require(self.count >= 16, "grid.count", f"must be >= 16, got {self.count}")
        _require(self.signal_center_nm > 0, "grid.signal_center_nm",
                 f"must be positive, got {self.signal_center_nm}")


@dataclass(frozen=True)
class ExperimentConfig:
    """A complete run configuration; it and its sections are frozen, and
    each section checks its values when it is built."""

    pump: PumpConfig = field(default_factory=PumpConfig)
    phasematching: PhasematchingConfig = field(default_factory=PhasematchingConfig)
    basis: BasisConfig = field(default_factory=BasisConfig)
    qpg: QpgConfig = field(default_factory=QpgConfig)
    tomography: TomographyConfig = field(default_factory=TomographyConfig)
    grid: GridConfig = field(default_factory=GridConfig)

    def __post_init__(self):
        _check_types(self, "")

    def to_dict(self) -> dict:
        """Nested plain dict of the configuration, list fields as lists."""
        return dataclasses.asdict(self, dict_factory=lambda items: {
            name: list(value) if isinstance(value, tuple) else value
            for name, value in items})


_SECTIONS = typing.get_type_hints(ExperimentConfig)

#: the presets as overrides of the default (decorrelated reference) source
_PRESET_OVERRIDES = {
    "a": {},
    "b": {"pump": {"fwhm_nm": 0.54}},
    "c": {"pump": {"fwhm_nm": 1.49, "chirp_fs2": 0.38e6}},
    "d": {"pump": {"shape_order": 1, "fwhm_nm": 1.31},
          "phasematching": {"angle_deg": 41.0}},
}


def merge_overrides(config: ExperimentConfig, overrides: dict) -> ExperimentConfig:
    """Copy of a configuration with a partial nested-dict override applied;
    ``config`` itself is left unchanged.

    This is the only path from a dict to a configuration: it rejects a
    non-object override, unknown sections and unknown fields, and the
    sections check their values as they are built.
    """
    if not isinstance(overrides, dict):
        raise InvalidArgumentError("configuration must be a JSON object")
    merged = config.to_dict()
    for section, value in overrides.items():
        if section not in _SECTIONS:
            raise InvalidArgumentError(f"unknown configuration section {section!r}")
        if not isinstance(value, dict):
            raise InvalidArgumentError(f"{section}: must be a JSON object")
        unknown = set(value) - set(merged[section])
        if unknown:
            raise InvalidArgumentError(
                f"{section}: unknown field(s) {sorted(unknown)}")
        merged[section].update(value)
    return ExperimentConfig(**{section: cls(**merged[section])
                               for section, cls in _SECTIONS.items()})


def preset_config(case: str) -> ExperimentConfig:
    """Configuration of one of the four pair-source presets.

    a: broadband decorrelated source; b: narrowband (anticorrelated);
    c: chirped pump (phase-correlated); d: first-order pump shape on a
    tilted ridge, favouring the odd mode.
    """
    if not isinstance(case, str) or case not in _PRESET_OVERRIDES:
        raise InvalidArgumentError(f"preset case must be one of a-d, got {case!r}")
    return merge_overrides(ExperimentConfig(), _PRESET_OVERRIDES[case])


# --- building blocks -------------------------------------------------------

def experiment_grids(config: ExperimentConfig):
    """Signal/idler grids sized for the state and the tomography basis."""
    sigma_pump = config.pump.amplitude_sigma()
    sigma_pm = config.phasematching.model().width
    # the frozen basis's highest order must still fit on the grid
    half_span = max(4.3 * np.sqrt(config.basis.dimension) * config.basis.width(),
                    7.0 * max(sigma_pump, sigma_pm))
    omega_signal = wavelength_to_omega(config.grid.signal_center_nm)
    omega_pump = wavelength_to_omega(config.pump.center_nm)
    omega_idler = omega_pump - omega_signal
    if min(omega_signal, omega_idler) <= half_span:
        raise InvalidArgumentError(
            "pump.center_nm/grid.signal_center_nm/basis.width_rad_per_fs/"
            "basis.dimension/phasematching.width_rad_per_fs/pump.fwhm_nm: the signal "
            f"or idler grid (centres {omega_signal:.6g} and {omega_idler:.6g} rad/fs, "
            f"half span {half_span:.6g} rad/fs) reaches a non-positive frequency")
    signal_grid = make_grid(omega_signal, 2 * half_span, config.grid.count)
    idler_grid = make_grid(omega_idler, 2 * half_span, config.grid.count)
    return signal_grid, idler_grid


def pump_spectrum(config: ExperimentConfig, signal_grid, idler_grid
                  ) -> ComplexSpectrum:
    """Pump envelope, chirped, sampled at the sum frequencies w_s + w_i of
    the signal and idler grids (`pdc.sum_frequency_grid`), the points at
    which `build_jsa` and `pdc.ScanSupport` read it."""
    grid = sum_frequency_grid(signal_grid, idler_grid)
    pump = hg_mode(HermiteGaussParams(order=config.pump.shape_order,
                                      center=grid.center,
                                      width=config.pump.amplitude_sigma()), grid)
    if config.pump.chirp_fs2:
        pump = apply_chirp(pump, ChirpPhase(coefficient=config.pump.chirp_fs2,
                                            center=grid.center))
    return pump


def build_state(config: ExperimentConfig) -> JointSpectralAmplitude:
    """Joint spectral amplitude of the configured source."""
    signal_grid, idler_grid = experiment_grids(config)
    pump = pump_spectrum(config, signal_grid, idler_grid)
    return build_jsa(pump, config.phasematching.model(), signal_grid, idler_grid)


def tomography_basis(config: ExperimentConfig) -> HermiteGaussParams:
    """The frozen Hermite-Gauss tomography basis, centred on the signal grid.

    Its width is `BasisConfig.width()`: `basis.width_rad_per_fs` if given,
    else `REFERENCE_WIDTH`; that one basis serves every preset, mirroring a
    single gate configuration.  A width below half the grid spacing is
    rejected: the basis modes would fall between the grid points.
    """
    signal_grid, _ = experiment_grids(config)
    width = config.basis.width()
    _require(width >= signal_grid.spacing / 2, "basis.width_rad_per_fs",
             f"the basis modes fall between the grid points: width {width:.6g} "
             f"rad/fs is below half the grid spacing {signal_grid.spacing:.6g} rad/fs")
    return HermiteGaussParams(order=0, center=signal_grid.center, width=width)


# --- runners ---------------------------------------------------------------

def run_preset(case: str, config: Optional[ExperimentConfig] = None,
               output_dir: str = ".") -> dict:
    """Run the full pipeline for one preset and write its artifacts.

    Emits the joint amplitude (CSV and JSON) and intensity, the mode
    weights, simulated counts for the complete measurement set, the
    reconstructed state with bootstrap errors, a summary against the
    published reference values, and a manifest that reproduces the run.

    ``config`` is the resolved configuration (the preset's own if None);
    the artifacts go to ``output_dir``.  Returns the summary dict with
    extra ``output_dir`` and ``converged`` entries, the latter telling
    whether the maximum-likelihood estimate converged.
    """
    preset = preset_config(case)  # rejects an unknown case before any work
    config = preset if config is None else config

    jsa = build_state(config)
    svd_purity = schmidt_purity(jsa)
    sigma_s, sigma_i = jsi_marginal_sigmas(jsa)
    analytic_purity = chirp_purity_analytic(config.pump.chirp_fs2, sigma_s, sigma_i)
    g2 = g2_from_purity(svd_purity)

    basis = tomography_basis(config)
    rho_true = reduced_density_matrix(jsa, basis, config.basis.dimension)

    pset = mub_bases(config.basis.dimension)
    sel = config.qpg.selectivity()
    records = simulate_counts(rho_true, pset, sel,
                              flux=config.tomography.flux,
                              background=config.tomography.background,
                              seed=config.tomography.seed)
    errors = monte_carlo_errors(records, pset, MLEConfig(),
                                resamples=config.tomography.resamples,
                                seed=config.tomography.seed + 1)
    recon = errors.baseline

    summary = {
        "case": case,
        "svd_purity": svd_purity,
        "analytic_purity": analytic_purity,
        "g2": g2,
        "reconstructed_purity": recon.rho_hat.purity(),
        "purity_std": errors.purity_std,
        "nonconverged_resamples": errors.nonconverged,
        "worst_resample_certificate": errors.worst_certificate,
        "basis_width_rad_per_fs": basis.width,
        "reference": TABLE_REFERENCE[case],
    }
    filter_analysis = _filter_analysis(rho_true, config.qpg.filter_efficiency)

    out = Path(output_dir)
    serialize.write_jsa(jsa, out)
    write_text(out / "counts.csv", serialize.count_records_to_csv(records))
    dec = schmidt_decompose(jsa, max_modes=20)
    write_text(out / "schmidt.json",
               serialize.dump_json(serialize.schmidt_to_dict(dec)))
    write_text(out / "counts.json",
               serialize.dump_json(serialize.count_records_to_dict(records)))
    write_text(out / "rho_true.json",
               serialize.dump_json(serialize.density_to_dict(rho_true)))
    write_text(out / "rho_hat.json",
               serialize.dump_json(serialize.density_to_dict(recon.rho_hat)))
    write_text(out / "reconstruction_log.json",
               serialize.dump_json(serialize.reconstruction_log_to_dict(recon)))
    write_text(out / "filter_analysis.json", serialize.dump_json(filter_analysis))
    write_text(out / "summary.json", serialize.dump_json(summary))
    write_text(out / "manifest.json", manifest_text(case, config))
    return dict(summary, output_dir=str(out), converged=recon.converged)


def _filter_analysis(rho_true, efficiency: float) -> dict:
    """Add-drop filtering of the reduced state's eigenmodes for the first
    two basis orders, at the configured conversion efficiency."""
    eigenvalues, eigenvectors = np.linalg.eigh(rho_true.entries)
    order = np.argsort(eigenvalues)[::-1]
    weights = np.clip(eigenvalues[order], 0.0, None)
    weights = weights / weights.sum()
    coeffs = eigenvectors[:, order].T  # row k: mode k in the tomography basis
    analysis = {"efficiency": efficiency,
                "input_g2": 1.0 + float(np.sum(weights**2))}
    for target in (0, 1):
        mode = np.zeros(rho_true.dimension, dtype=complex)
        mode[target] = 1.0
        result = apply_mode_filter(weights, coeffs,
                                   FilterSpec(mode=mode, efficiency=efficiency))
        analysis[f"filter_order_{target}"] = {
            "transmitted_g2": result.transmitted_g2,
            "upconverted_g2": result.upconverted_g2,
            "upconverted_fraction": result.upconverted_fraction,
        }
    return analysis


def manifest_text(case: str, config: ExperimentConfig) -> str:
    """Fully resolved run description; floats keep full precision so a
    replay sees bit-identical inputs.

    The output directory is an argument of the run, not part of the
    configuration, so replaying into any directory reproduces every file
    byte for byte, manifest included.
    """
    manifest = {"case": case, "config": config.to_dict(), "version": TOOL_VERSION}
    return json.dumps(manifest, sort_keys=True, indent=2) + "\n"


def load_manifest(manifest_path: str):
    """The case and the validated configuration recorded in a manifest."""
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise InvalidArgumentError("manifest must be a JSON object")
    for key in ("case", "config"):
        if key not in manifest:
            raise InvalidArgumentError(f"manifest is missing the {key!r} entry")
    return manifest["case"], merge_overrides(ExperimentConfig(), manifest["config"])


def run_from_manifest(manifest_path: str, output_dir: str = ".") -> dict:
    """Re-run a preset exactly as recorded in its manifest."""
    case, config = load_manifest(manifest_path)
    return run_preset(case, config, output_dir=output_dir)


def chirp_scan(chirp_values, config: ExperimentConfig,
               background_fraction: float = 0.04) -> list:
    """Purity and g2 versus pump chirp for the configured source.

    Each row carries the closed-form purity evaluated at the state's
    marginal widths, the purity of the full Schmidt spectrum, the implied g2
    and the g2 after admixing a Poissonian background of the given count
    fraction.

    A chirp only multiplies the pump by a unit phase, so the grids, the
    intensity |f|^2, its marginal widths and the purity's crop are the
    same for every row: one :class:`pdc.ScanSupport`, sampled from the
    configured pump without its chirp, takes them once per call, and every
    row's analytic purity reads its widths.  Every chirp is checked as
    ``pump.chirp_fs2`` before that sampling.  A row then multiplies the
    pump's crop slice by its chirp phase, forms the Hankel window of that
    slice on the crop times the kept ridge, and takes the Gram purity of
    that block; no row builds a configuration, a pump or a full-grid
    amplitude.  Each row matches `schmidt_purity` and `jsi_marginal_sigmas`
    of `build_state` of the row's configuration to within a few units of
    roundoff, not bit for bit.
    """
    if not 0.0 <= background_fraction < 1.0:
        raise InvalidArgumentError(
            f"background fraction must lie in [0, 1), got {background_fraction}")
    chirps = [float(chirp) for chirp in chirp_values]
    for chirp in chirps:  # PumpConfig's own check, before any sampling
        dataclasses.replace(config.pump, chirp_fs2=chirp)
    grids = experiment_grids(config)
    unchirped = dataclasses.replace(
        config, pump=dataclasses.replace(config.pump, chirp_fs2=0.0))
    support = ScanSupport(pump_spectrum(unchirped, *grids),
                          config.phasematching.model(), *grids)
    rows = []
    for chirp in chirps:
        svd_purity = support.purity(chirp)
        g2 = g2_from_purity(svd_purity)
        rows.append({"chirp_fs2": chirp,
                     "analytic_purity": chirp_purity_analytic(chirp, *support.sigmas),
                     "svd_purity": svd_purity,
                     "g2": g2,
                     "g2_background_mixed": background_mixed_g2(
                         g2, 1.0 - background_fraction, background_fraction)})
    return rows


def chirp_scan_csv(rows) -> str:
    columns = ["chirp_fs2", "analytic_purity", "svd_purity", "g2",
               "g2_background_mixed"]
    return serialize.float_rows_to_csv(",".join(columns),
                                       [[row[c] for c in columns] for row in rows])
