"""Quantum pulse gate model: sum-frequency mapping functions and their
separability, projective measurements with imperfect selectivity, and
add-drop temporal-mode filtering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BasisMismatchError, InvalidArgumentError
from .pdc import ModalDensityMatrix, _frozen_complex, _kernel_schmidt
from .spectral import FrequencyGrid, HermiteGaussParams, hg_envelope


@dataclass(frozen=True, eq=False)
class MappingFunction:
    """Sampled sum-frequency kernel xi(w_in, w_out), unit total weight."""

    input_grid: FrequencyGrid
    output_grid: FrequencyGrid
    values: np.ndarray  # shape (input count, output count)

    def __post_init__(self):
        vals = _frozen_complex(self.values)
        expected = (self.input_grid.count, self.output_grid.count)
        if vals.shape != expected:
            raise InvalidArgumentError(
                f"values shape {vals.shape} does not match grids {expected}")
        weight = (np.vdot(vals, vals).real
                  * self.input_grid.spacing * self.output_grid.spacing)
        if not abs(weight - 1.0) <= 1e-10:
            raise InvalidArgumentError(
                f"mapping function not normalized: weight {float(weight)}")
        object.__setattr__(self, "values", vals)


def build_mapping(qpg_pump: HermiteGaussParams, output_pm: HermiteGaussParams,
                  input_grid: FrequencyGrid, output_grid: FrequencyGrid,
                  group_velocity_mismatch: float = 0.0) -> MappingFunction:
    """Mapping function xi(w_in, w_out) = pump(w_out - w_in) x phasematching.

    Both factors are Hermite-Gauss envelopes evaluated exactly at every
    grid pair, with no sampled spectrum in between.  At zero group-velocity
    mismatch the phasematching depends on the output frequency alone; a
    nonzero dimensionless mismatch skews its ridge so the accepted output
    frequency shifts with the input detuning.
    """
    d_in = input_grid.offsets[:, None]
    d_out = output_grid.offsets[None, :]
    alpha = hg_envelope(qpg_pump, d_out - d_in + (
        output_grid.center - input_grid.center - qpg_pump.center))
    phi = hg_envelope(output_pm, d_out - group_velocity_mismatch * d_in + (
        output_grid.center - output_pm.center))

    values = alpha * phi
    power = np.abs(values)
    weight = (np.sum(np.square(power, out=power))
              * input_grid.spacing * output_grid.spacing)
    if weight <= 0.0:
        raise InvalidArgumentError(
            "pump and phasematching do not overlap on the requested grids")
    xi = (values / np.sqrt(weight)).astype(complex)
    xi.flags.writeable = False  # handed over without a copy
    return MappingFunction(input_grid, output_grid, xi)


@dataclass(frozen=True, eq=False)
class SelectivityReport:
    """Schmidt view of a mapping function; `input_modes` is the (k, n)
    `signal_modes` matrix of its :class:`~tmsim.pdc.SchmidtDecomposition`."""

    schmidt_weights: np.ndarray
    input_modes: np.ndarray
    separability: float


def separability_report(xi: MappingFunction, max_modes: int = 20) -> SelectivityReport:
    """Decompose a mapping function into its `max_modes` leading modes.

    Separability is the largest squared singular value as a share of the
    full spectrum, s_0^2 / ||xi||_F^2 (1 for a rank-one, perfectly
    mode-selective gate), not renormalized over the kept modes;
    `schmidt_weights` are renormalized over the kept modes."""
    dec = _kernel_schmidt(xi.values, xi.input_grid, max_modes)
    return SelectivityReport(
        schmidt_weights=dec.weights, input_modes=dec.signal_modes,
        separability=float(dec.weights[0] * (1.0 - dec.residual_weight)))


@dataclass(frozen=True)
class SelectivityModel:
    """Imperfect projector: depolarizing crosstalk plus an optional
    per-order efficiency falloff.

    `crosstalk` routes that fraction of every projection to a uniform
    background over the basis; `per_order_falloff` scales the efficiency of
    each basis order (orders beyond the list keep efficiency 1).
    """

    crosstalk: float = 0.0
    per_order_falloff: Optional[tuple] = None

    def __post_init__(self):
        if not 0.0 <= self.crosstalk <= 1.0:
            raise InvalidArgumentError(
                f"crosstalk must lie in [0, 1], got {self.crosstalk}")
        if self.per_order_falloff is not None:
            falloff = tuple(float(f) for f in self.per_order_falloff)
            if any(not 0.0 < f <= 1.0 for f in falloff):
                raise InvalidArgumentError(
                    "per-order falloff entries must lie in (0, 1]")
            object.__setattr__(self, "per_order_falloff", falloff)

    def order_efficiencies(self, dimension: int) -> np.ndarray:
        eff = np.ones(dimension)
        if self.per_order_falloff is not None:
            n = min(dimension, len(self.per_order_falloff))
            eff[:n] = self.per_order_falloff[:n]
        return eff


def _as_unit_mode(mode: Sequence, dimension: int) -> np.ndarray:
    vec = np.asarray(mode, dtype=complex)
    if vec.shape != (dimension,):
        raise InvalidArgumentError(
            f"mode has shape {vec.shape}, expected ({dimension},)")
    norm = np.linalg.norm(vec)
    if not abs(norm - 1.0) <= 1e-10:
        raise InvalidArgumentError(
            f"mode must be unit norm, got |mode| = {float(norm)}")
    return vec


def gate_operators(kets: np.ndarray,
                   sel: SelectivityModel = SelectivityModel()) -> np.ndarray:
    """Effective POVM elements E_i = (1 - eps)|m~_i><m~_i| + eps I/d, shape
    (n, d, d), of the gate set to each row of the (n, d) unit `kets`, where
    m~ = m sqrt(falloff) carries the per-order amplitude falloff."""
    kets = np.asarray(kets, dtype=complex)
    d = kets.shape[1]
    if sel.per_order_falloff is not None:
        kets = kets * np.sqrt(sel.order_efficiencies(d))
    ops = kets[:, :, None] * np.conj(kets)[:, None, :]
    if sel.crosstalk:
        ops = (1.0 - sel.crosstalk) * ops + sel.crosstalk / d * np.eye(d)
    return ops


def project_probability(rho: ModalDensityMatrix, mode: Sequence,
                        sel: SelectivityModel = SelectivityModel()) -> float:
    """Probability Tr(rho E), clipped to [0, 1], of the gate registering the
    state in the given mode; E is the mode's `gate_operators` element."""
    op = gate_operators(_as_unit_mode(mode, rho.dimension)[None], sel)[0]
    return float(np.clip(np.einsum("ab,ba->", op, rho.entries).real, 0.0, 1.0))


@dataclass(frozen=True)
class FilterSpec:
    """Mode to remove (coefficients in the truncated basis) and the
    conversion efficiency of the removal."""

    mode: np.ndarray
    efficiency: float

    def __post_init__(self):
        vec = np.array(self.mode, dtype=complex)
        norm = np.linalg.norm(vec)
        if not abs(norm - 1.0) <= 1e-10:
            raise InvalidArgumentError(
                f"filter mode must be unit norm, got |mode| = {float(norm)}")
        if not 0.0 <= self.efficiency <= 1.0:
            raise InvalidArgumentError(
                f"efficiency must lie in [0, 1], got {self.efficiency}")
        vec.flags.writeable = False
        object.__setattr__(self, "mode", vec)


@dataclass(frozen=True, eq=False)
class ModeFilterResult:
    """Weights and statistics of both output arms of the add-drop filter."""

    transmitted_weights: np.ndarray
    upconverted_weights: np.ndarray
    transmitted_g2: float
    upconverted_g2: float
    transmitted_fraction: float
    upconverted_fraction: float
    upconverted_empty: bool


def apply_mode_filter(weights: Sequence, mode_coefficients: np.ndarray,
                      spec: FilterSpec) -> ModeFilterResult:
    """Partially remove one mode from a weighted mixture of modes.

    `weights` are the mixture weights; row k of `mode_coefficients` holds
    the k-th mode's coefficients in the truncated basis the filter mode is
    written in.  The component of each mode along the filter mode is
    upconverted with probability `efficiency`; both arms are renormalized
    and their g2 = 1 + sum(w^2) reported.  A rank-one upconverted arm has
    g2 = 2 exactly.

    Raises
    ------
    BasisMismatchError
        If any mode loses more than 1e-3 of its norm in the truncated basis.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0 or not (np.all(w >= 0) and 0 < w.sum() < np.inf):
        raise InvalidArgumentError(
            "weights must be finite and non-negative with positive sum")
    coeffs = np.asarray(mode_coefficients, dtype=complex)
    if coeffs.shape[0] != w.size:
        raise InvalidArgumentError(
            f"{w.size} weights but {coeffs.shape[0]} coefficient rows")
    if coeffs.shape[1] != spec.mode.size:
        raise InvalidArgumentError(
            f"coefficient rows have length {coeffs.shape[1]}, filter mode "
            f"has length {spec.mode.size}")
    row_norms = np.sum(np.abs(coeffs) ** 2, axis=1)
    leakage = 1.0 - row_norms
    if np.any(leakage > 1e-3):
        raise BasisMismatchError(
            f"mode leakage outside the truncated basis reaches {leakage.max():.3e} "
            "(limit 1e-3)")

    selected = np.abs(coeffs @ np.conj(spec.mode)) ** 2
    selected = np.minimum(selected, 1.0)
    upconverted = w * spec.efficiency * selected
    transmitted = w - upconverted

    total = w.sum()
    transmitted_fraction = float(transmitted.sum() / total)
    upconverted_fraction = float(upconverted.sum() / total)

    t_norm = transmitted / transmitted.sum() if transmitted.sum() > 0 else transmitted
    empty = not upconverted.sum() > 0
    if empty:
        u_norm = upconverted
        u_g2 = float("nan")
    else:
        u_norm = upconverted / upconverted.sum()
        u_g2 = 1.0 + float(np.sum(u_norm**2))
    t_g2 = 1.0 + float(np.sum(t_norm**2)) if transmitted.sum() > 0 else float("nan")
    return ModeFilterResult(
        transmitted_weights=t_norm, upconverted_weights=u_norm,
        transmitted_g2=t_g2, upconverted_g2=u_g2,
        transmitted_fraction=transmitted_fraction,
        upconverted_fraction=upconverted_fraction,
        upconverted_empty=empty)
