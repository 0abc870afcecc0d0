"""Frequency grids, Hermite-Gauss spectral modes, chirp phases and unit
conversions: the shared numerical substrate of the toolkit.

Internal units are angular frequency in rad/fs, time in fs and chirp in fs^2,
which keeps all magnitudes O(1) for femtosecond pulses.  Conversions from
nm / GHz live only in :func:`convert_bandwidth` and :func:`invert_bandwidth`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    IncompatibleGridError,
    InvalidArgumentError,
    UnsupportedOrderError,
)

SPEED_OF_LIGHT_M_PER_S = 299_792_458.0

#: intensity FWHM = 2 sqrt(2 ln 2) x intensity standard deviation
FWHM_PER_SIGMA = 2.0 * np.sqrt(2.0 * np.log(2.0))

#: Hermite recurrence stays well-conditioned up to this order
MAX_HG_ORDER = 20


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform grid of angular frequencies (rad/fs).

    Point j sits at ``center + (j - (count - 1)/2) * spacing``, so the grid
    is always symmetric about its center.
    """

    center: float
    spacing: float
    count: int

    def __post_init__(self):
        if not np.isfinite(self.center):
            raise InvalidArgumentError("grid center must be finite")
        if not (np.isfinite(self.spacing) and self.spacing > 0):
            raise InvalidArgumentError(
                f"grid spacing must be positive, got {self.spacing}")
        if int(self.count) != self.count or self.count < 2:
            raise InvalidArgumentError(
                f"grid needs an integer count >= 2, got {self.count}")
        object.__setattr__(self, "count", int(self.count))

    @property
    def points(self) -> np.ndarray:
        return self.center + self.offsets

    @property
    def offsets(self) -> np.ndarray:
        """Signed distances from the grid center (exactly antisymmetric)."""
        j = np.arange(self.count, dtype=float)
        return (j - (self.count - 1) / 2.0) * self.spacing

    @property
    def span(self) -> float:
        return self.spacing * (self.count - 1)

    @property
    def minimum(self) -> float:
        return self.center - self.span / 2.0

    @property
    def maximum(self) -> float:
        return self.center + self.span / 2.0


def make_grid(center: float, span: float, count: int) -> FrequencyGrid:
    """Grid of `count` points covering [center - span/2, center + span/2]."""
    if not (np.isfinite(span) and span > 0):
        raise InvalidArgumentError(f"span must be positive, got {span}")
    if int(count) != count or count < 2:
        raise InvalidArgumentError(f"count must be an integer >= 2, got {count}")
    return FrequencyGrid(center=center, spacing=span / (count - 1), count=int(count))


@dataclass(frozen=True, eq=False)
class ComplexSpectrum:
    """Sampled complex spectral amplitude on a :class:`FrequencyGrid`.

    When normalized, sum(|a_j|^2) * spacing == 1, so physical quantities
    built from inner products are grid-independent.
    """

    grid: FrequencyGrid
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.array(self.amplitudes, dtype=complex)
        if amp.shape != (self.grid.count,):
            raise InvalidArgumentError(
                f"expected {self.grid.count} amplitudes, got shape {amp.shape}")
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2) * self.grid.spacing)

    def normalized(self) -> "ComplexSpectrum":
        n2 = self.norm_squared()
        if n2 <= 0.0:
            raise InvalidArgumentError("cannot normalize an all-zero spectrum")
        return ComplexSpectrum(self.grid, self.amplitudes / np.sqrt(n2))


@dataclass(frozen=True)
class HermiteGaussParams:
    """Descriptor of a Hermite-Gauss spectral mode family.

    `width` is the amplitude width parameter sigma of
    ``H_n((w - w0)/sigma) exp(-(w - w0)^2 / (2 sigma^2))``.
    """

    order: int
    center: float
    width: float

    def __post_init__(self):
        if int(self.order) != self.order or self.order < 0:
            raise InvalidArgumentError(
                f"order must be a non-negative integer, got {self.order}")
        if self.order > MAX_HG_ORDER:
            raise UnsupportedOrderError(
                f"order {self.order} exceeds supported maximum {MAX_HG_ORDER}")
        if not (np.isfinite(self.width) and self.width > 0):
            raise InvalidArgumentError(f"width must be positive, got {self.width}")
        object.__setattr__(self, "order", int(self.order))


@dataclass(frozen=True)
class ChirpPhase:
    """Quadratic spectral phase exp[i A (w - w0)^2], A in fs^2."""

    coefficient: float
    center: float

    def __post_init__(self):
        if not (np.isfinite(self.coefficient) and np.isfinite(self.center)):
            raise InvalidArgumentError("chirp coefficient and center must be finite")


def hermite_values(order: int, x: np.ndarray) -> np.ndarray:
    """Physicists' Hermite polynomial H_n(x) by the three-term recurrence."""
    if order > MAX_HG_ORDER:
        raise UnsupportedOrderError(
            f"order {order} exceeds supported maximum {MAX_HG_ORDER}")
    h_prev = np.ones_like(x)
    if order == 0:
        return h_prev
    h = 2.0 * x
    for k in range(1, order):
        h_prev, h = h, 2.0 * x * h - 2.0 * k * h_prev
    return h


def hg_envelope(params: HermiteGaussParams, detuning: np.ndarray) -> np.ndarray:
    """Unnormalized Hermite-Gauss envelope H_n(x) exp(-x^2/2), x the
    detuning from the mode center over its width, at an array of detunings
    of any shape."""
    x = detuning / params.width
    return hermite_values(params.order, x) * np.exp(-0.5 * x * x)


def hg_mode(params: HermiteGaussParams, grid: FrequencyGrid) -> ComplexSpectrum:
    """Discretized Hermite-Gauss mode, normalized on the grid.

    Warns when the grid does not reach +-4 sigma sqrt(n+1) around the mode
    center, where the mode still carries non-negligible amplitude.
    """
    reach = 4.0 * params.width * np.sqrt(params.order + 1.0)
    if grid.minimum > params.center - reach or grid.maximum < params.center + reach:
        warnings.warn(
            f"grid [{grid.minimum:.6g}, {grid.maximum:.6g}] does not span "
            f"+-{reach:.6g} around {params.center:.6g}; mode order "
            f"{params.order} will be truncated", stacklevel=2)
    # offsets keep symmetric points exactly antisymmetric about the center
    detuning = grid.offsets + (grid.center - params.center)
    values = hg_envelope(params, detuning)
    return ComplexSpectrum(grid, values.astype(complex)).normalized()


def apply_chirp(spectrum: ComplexSpectrum, chirp: ChirpPhase) -> ComplexSpectrum:
    """Multiply by exp[i A (w - w0)^2]; moduli are untouched."""
    grid = spectrum.grid
    # from the offsets, as in hg_mode: the phase carries no rounding of the
    # absolute frequencies, which A (w - w0) would amplify
    detuning = grid.offsets + (grid.center - chirp.center)
    phase = np.exp(1j * chirp.coefficient * detuning**2)
    return ComplexSpectrum(grid, spectrum.amplitudes * phase)


class BandwidthConversion(NamedTuple):
    """Frequency-domain view of a wavelength bandwidth."""

    fwhm_frequency_ghz: float
    sigma_omega: float  # intensity standard deviation, rad/fs


def convert_bandwidth(center_wavelength_nm: float,
                      fwhm_wavelength_nm: float) -> BandwidthConversion:
    """Convert an intensity-FWHM wavelength bandwidth to frequency units.

    Returns the intensity FWHM in GHz and the corresponding intensity
    standard deviation of angular frequency in rad/fs
    (FWHM = 2 sqrt(2 ln 2) sigma); both must come out finite and positive.
    """
    if not (0 < center_wavelength_nm < np.inf and 0 < fwhm_wavelength_nm < np.inf):
        raise InvalidArgumentError(
            "center and FWHM wavelengths must both be finite and positive, got "
            f"{center_wavelength_nm} nm and {fwhm_wavelength_nm} nm")
    try:  # on Python floats a square out of range raises, where numpy warns
        center, fwhm = float(center_wavelength_nm), float(fwhm_wavelength_nm)
        fwhm_hz = SPEED_OF_LIGHT_M_PER_S * fwhm * 1e-9 / (center * 1e-9) ** 2
    except (ZeroDivisionError, OverflowError):
        fwhm_hz = np.nan
    fwhm_ghz = fwhm_hz * 1e-9
    sigma_rad_per_fs = 2.0 * np.pi * fwhm_hz * 1e-15 / FWHM_PER_SIGMA
    if not (0 < fwhm_ghz < np.inf and 0 < sigma_rad_per_fs < np.inf):
        raise InvalidArgumentError(
            f"the bandwidth conversion of {center_wavelength_nm} nm and "
            f"{fwhm_wavelength_nm} nm is not finite and positive")
    return BandwidthConversion(fwhm_frequency_ghz=fwhm_ghz,
                               sigma_omega=sigma_rad_per_fs)


def invert_bandwidth(center_wavelength_nm: float,
                     fwhm_frequency_ghz: float) -> float:
    """Inverse of :func:`convert_bandwidth`: FWHM in GHz back to nm, which
    must come out finite and positive."""
    if not (0 < center_wavelength_nm < np.inf and 0 < fwhm_frequency_ghz < np.inf):
        raise InvalidArgumentError(
            "center wavelength and FWHM frequency must both be finite and "
            f"positive, got {center_wavelength_nm} nm and {fwhm_frequency_ghz} GHz")
    try:
        center, fwhm = float(center_wavelength_nm), float(fwhm_frequency_ghz)
        fwhm_nm = (fwhm * 1e9 * (center * 1e-9) ** 2 / SPEED_OF_LIGHT_M_PER_S) * 1e9
    except OverflowError:
        fwhm_nm = np.nan
    if not 0 < fwhm_nm < np.inf:
        raise InvalidArgumentError(
            f"the bandwidth conversion of {center_wavelength_nm} nm and "
            f"{fwhm_frequency_ghz} GHz is not finite and positive")
    return fwhm_nm


def wavelength_to_omega(wavelength_nm: float) -> float:
    """Vacuum wavelength in nm to angular frequency in rad/fs."""
    if not 0 < wavelength_nm < np.inf:
        raise InvalidArgumentError(
            f"wavelength must be finite and positive, got {wavelength_nm}")
    return 2.0 * np.pi * SPEED_OF_LIGHT_M_PER_S * 1e-6 / wavelength_nm


def inner_product(a: ComplexSpectrum, b: ComplexSpectrum) -> complex:
    """<a|b> = sum conj(a_j) b_j * spacing; conjugate-linear in `a`."""
    if (a.grid.center != b.grid.center or a.grid.spacing != b.grid.spacing
            or a.grid.count != b.grid.count):
        raise IncompatibleGridError(
            f"grids differ: {a.grid} vs {b.grid}")
    return complex(np.sum(np.conj(a.amplitudes) * b.amplitudes) * a.grid.spacing)
