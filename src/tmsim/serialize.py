"""Byte-stable serialization of toolkit objects to JSON and CSV.

All floating-point data is rendered as %.12e with sorted JSON keys, so
identical inputs always produce identical bytes.  Float arrays are filled
in block-wise: one string ``%`` call fills a template of %.12e slots with
every value of the array (``_fill``), which gives the same bytes as
``format_float`` per value at a fraction of the Python calls.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import InvalidArgumentError
from .pdc import JointSpectralAmplitude, ModalDensityMatrix, SchmidtDecomposition
from .qpg import MappingFunction, ModeFilterResult, SelectivityReport
from .spectral import ComplexSpectrum, FrequencyGrid
from .tomography import CountRecord, ProjectorSet, ReconstructionResult

FLOAT_FORMAT = "%.12e"


def format_float(value: float) -> str:
    return FLOAT_FORMAT % float(value)


def _fill(template: str, values) -> str:
    """Fill the FLOAT_FORMAT slots of ``template`` with ``values`` in C
    order, in one ``%`` call."""
    return template % tuple(np.asarray(values, dtype=float).ravel().tolist())


def _json_template(shape: tuple) -> str:
    """A JSON array of FLOAT_FORMAT slots nested to ``shape``."""
    template = FLOAT_FORMAT
    for size in reversed(shape):
        template = "[" + ",".join([template] * size) + "]"
    return template


def float_rows_to_csv(header: str, rows) -> str:
    """``header``, then one line per row of ``rows``, one float per column
    the header names."""
    values = np.asarray(rows, dtype=float).reshape(-1, header.count(",") + 1)
    line = "\n" + ",".join([FLOAT_FORMAT] * values.shape[1])
    return header + _fill(line * len(values), values) + "\n"


def dump_json(obj) -> str:
    """Render a plain dict/list tree with sorted keys and %.12e floats."""
    parts = []
    _render_json(obj, parts)
    return "".join(parts) + "\n"


def _render_json(obj, parts) -> None:
    if obj is None:
        parts.append("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        # JSON has no NaN/inf; empty-branch statistics serialize as null
        parts.append(format_float(obj) if np.isfinite(obj) else "null")
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise InvalidArgumentError("JSON object keys must be strings")
            if i:
                parts.append(",")
            parts.append(json.dumps(key) + ":")
            _render_json(obj[key], parts)
        parts.append("}")
    elif isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and np.isfinite(obj).all():
            parts.append(_fill(_json_template(obj.shape), obj))
        else:
            # integers, booleans and non-finite floats (null) element-wise;
            # a 0-d array becomes its scalar
            _render_json(obj.tolist(), parts)
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, item in enumerate(obj):
            if i:
                parts.append(",")
            _render_json(item, parts)
        parts.append("]")
    else:
        raise InvalidArgumentError(
            f"cannot serialize object of type {type(obj).__name__}")


def grid_to_dict(grid: FrequencyGrid) -> dict:
    return {"center": grid.center, "spacing": grid.spacing, "count": grid.count}


def grid_from_dict(data: dict) -> FrequencyGrid:
    return FrequencyGrid(center=float(data["center"]),
                         spacing=float(data["spacing"]),
                         count=int(data["count"]))


def spectrum_to_dict(spectrum: ComplexSpectrum) -> dict:
    return {"grid": grid_to_dict(spectrum.grid),
            "re": spectrum.amplitudes.real,
            "im": spectrum.amplitudes.imag}


def spectrum_from_dict(data: dict) -> ComplexSpectrum:
    grid = grid_from_dict(data["grid"])
    amp = np.asarray(data["re"], dtype=float) + 1j * np.asarray(data["im"], dtype=float)
    return ComplexSpectrum(grid, amp)


def spectrum_to_csv(spectrum: ComplexSpectrum) -> str:
    amp = spectrum.amplitudes
    return float_rows_to_csv("omega_rad_per_fs,real,imag",
                             np.column_stack([spectrum.grid.points, amp.real, amp.imag]))


def jsa_to_dict(jsa: JointSpectralAmplitude) -> dict:
    return {"signal_grid": grid_to_dict(jsa.signal_grid),
            "idler_grid": grid_to_dict(jsa.idler_grid),
            "re": jsa.amplitudes.real,
            "im": jsa.amplitudes.imag}


def _grid_pair_csv(header: str, row_grid: FrequencyGrid, col_grid: FrequencyGrid,
                   *columns: np.ndarray) -> str:
    """One line per grid point: the row and column frequencies, then each
    (row count, column count) array's value there.  A grid row is one fill
    of a template that holds its frequencies already formatted."""
    slots = ("," + FLOAT_FORMAT) * len(columns)
    cells = [f",{format_float(w)}{slots}" for w in col_grid.points]
    values = np.stack(columns, axis=-1)  # one grid row's cells, interleaved
    lines = [header]
    for w_row, row in zip(row_grid.points, values):
        prefix = format_float(w_row)
        lines.append(_fill(prefix + ("\n" + prefix).join(cells), row))
    return "\n".join(lines) + "\n"


def jsa_to_csv(jsa: JointSpectralAmplitude) -> str:
    return _grid_pair_csv("omega_s,omega_i,real,imag", jsa.signal_grid,
                          jsa.idler_grid, jsa.amplitudes.real, jsa.amplitudes.imag)


def jsi_to_csv(jsa: JointSpectralAmplitude) -> str:
    """Phase-blind |f|^2 view of a joint amplitude."""
    return _grid_pair_csv("omega_s,omega_i,intensity", jsa.signal_grid,
                          jsa.idler_grid, jsa.intensity())


def mapping_to_csv(xi: MappingFunction) -> str:
    return _grid_pair_csv("omega_in,omega_out,real,imag", xi.input_grid,
                          xi.output_grid, xi.values.real, xi.values.imag)


def density_to_dict(rho: ModalDensityMatrix) -> dict:
    return {"d": rho.dimension,
            "re": rho.entries.real,
            "im": rho.entries.imag,
            "leakage": rho.leakage}


def density_from_dict(data: dict) -> ModalDensityMatrix:
    entries = (np.asarray(data["re"], dtype=float)
               + 1j * np.asarray(data["im"], dtype=float))
    return ModalDensityMatrix(dimension=int(data["d"]), entries=entries,
                              leakage=float(data.get("leakage", 0.0)))


def schmidt_to_dict(dec: SchmidtDecomposition) -> dict:
    return {"weights": dec.weights,
            "residual_weight": dec.residual_weight}


def reconstruction_log_to_dict(result: ReconstructionResult) -> dict:
    return {"iterations": result.iterations,
            "converged": result.converged,
            "final_log_likelihood_per_count": float(result.log_likelihood[-1])}


def projector_set_to_dict(pset: ProjectorSet) -> dict:
    return {"dimension": pset.dimension,
            "projectors": [{"basis_index": p.basis_index,
                            "element_index": p.element_index,
                            "re": p.coefficients.real,
                            "im": p.coefficients.imag}
                           for p in pset.projectors]}


def count_records_to_csv(records) -> str:
    lines = ["basis_index,element_index,counts,exposure"]
    for rec in records:
        lines.append(f"{rec.basis_index},{rec.element_index},{rec.counts},"
                     f"{format_float(rec.exposure)}")
    return "\n".join(lines) + "\n"


def count_records_from_csv(text: str) -> list:
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    expected = ["basis_index", "element_index", "counts", "exposure"]
    if header != expected:
        raise InvalidArgumentError(
            f"count CSV header must be {','.join(expected)}, got {lines[0]!r}")
    records = []
    for ln in lines[1:]:
        basis, element, counts, exposure = ln.split(",")
        records.append(CountRecord(basis_index=int(basis),
                                   element_index=int(element),
                                   counts=int(counts),
                                   exposure=float(exposure)))
    return records


def count_records_to_dict(records) -> dict:
    return {"records": [{"basis_index": rec.basis_index,
                         "element_index": rec.element_index,
                         "counts": rec.counts,
                         "exposure": rec.exposure}
                        for rec in records]}


def selectivity_report_to_dict(report: SelectivityReport) -> dict:
    return {"schmidt_weights": report.schmidt_weights,
            "separability": report.separability}


def filter_result_to_dict(result: ModeFilterResult) -> dict:
    return {"transmitted_weights": result.transmitted_weights,
            "upconverted_weights": result.upconverted_weights,
            "transmitted_g2": result.transmitted_g2,
            "upconverted_g2": result.upconverted_g2,
            "transmitted_fraction": result.transmitted_fraction,
            "upconverted_fraction": result.upconverted_fraction,
            "upconverted_empty": result.upconverted_empty}
