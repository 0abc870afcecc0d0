"""Byte-stable serialization of toolkit objects to JSON and CSV.

All floating-point data is rendered as %.12e with sorted JSON keys, so
identical inputs always produce identical bytes.

Float arrays reach text through one numpy kernel (``_float_slots``) and
one layout step (``_layout``) instead of one ``%`` conversion per value.
The kernel writes ``FLOAT_FORMAT % v`` for every value into a fixed-width,
NUL-padded slot of ASCII bytes:

- the decimal exponent is ``floor(log10|v|)``, corrected by one where the
  scaled mantissa falls outside [1e12, 1e13);
- the 13-digit mantissa is ``|v| * 10**(12 - e)``, rounded to an integer,
  with the product taken in ``np.longdouble`` against a table of correctly
  rounded powers of ten;
- digits, sign and exponent are written by lookups into small tables of
  packed ASCII words.

The product carries a relative error of about one ``np.longdouble``
epsilon, so a mantissa whose fractional part lies within ``_TIE_WINDOW``
of one half cannot be rounded safely.  Those values, and every NaN and
infinity, are converted by ``%`` one at a time into the same slot, so the
output is identical to ``format_float`` per value by construction.  Where
``np.longdouble`` is a plain double the window is wider and more values
take the ``%`` path; the output stays exact.

The layout step puts each field's separator after it and drops the NUL
padding, in chunks of ``_CHUNK`` values so that the working set stays
small.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import InvalidArgumentError
from .pdc import JointSpectralAmplitude, ModalDensityMatrix, SchmidtDecomposition
from .qpg import MappingFunction, ModeFilterResult, SelectivityReport
from .spectral import ComplexSpectrum, FrequencyGrid
from .tomography import CountRecord, ProjectorSet, ReconstructionResult

FLOAT_FORMAT = "%.12e"


def format_float(value: float) -> str:
    return FLOAT_FORMAT % float(value)


_SLOT = 24        # slot bytes: "-d.dddddddddddde-ddd" is 20, in three uint64 words
_SEP_AT = 21      # separators start here: past the kernel's and %'s text
_CHUNK = 1 << 15  # values per layout step
_E_LO, _E_HI = -325, 309  # exponents the kernel can reach, correction included
# A mantissa below 1e13 is off by at most 1e13 * eps; four times that is a
# safe distance from a rounding tie.
_TIE_WINDOW = 4e13 * float(np.finfo(np.longdouble).eps)


def _build_tables():
    """Scale factors 10**(12 - e) and the ASCII words the kernel writes:
    4-digit groups, sign with leading digit and point, and exponents."""
    exps = np.arange(_E_LO, _E_HI + 1).tolist()
    # correctly rounded by the C library's string-to-long-double conversion
    pow10 = np.array([f"1e{12 - e}" for e in exps]).astype(np.longdouble)
    digits = np.arange(48, 58, dtype=np.uint8)  # b"0" to b"9"
    quads = np.empty((10, 10, 10, 10, 4), np.uint8)
    for place in range(4):
        quads[..., place] = digits.reshape((10,) + (1,) * (3 - place))
    heads = np.array([f"{sign}{d}." for sign in ("", "-") for d in range(10)], "S4")
    exponents = np.array([f"e{e:+03d}" for e in exps], "S8")
    return (pow10, quads.view(np.uint32).ravel(), heads.view(np.uint32),
            exponents.view(np.uint64))


_POW10, _QUADS, _HEADS, _EXPONENTS = _build_tables()


def _float_slots(values) -> np.ndarray:
    """An ``(n, _SLOT)`` uint8 array whose row i holds the ASCII bytes of
    ``FLOAT_FORMAT % values[i]``, NUL-padded, for the n values of the
    flattened float64 array ``values``."""
    v = np.asarray(values, dtype=np.float64).ravel()
    mag = np.abs(v)
    regular = np.isfinite(v) & (mag != 0)
    mag = np.where(regular, mag, 1.0)
    # errstate: on a platform whose long double is a plain double, 10**337
    # overflows; such values fail the range check and take the % path
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.floor(np.log10(mag)).astype(np.int64)
        m = mag * _POW10[e - _E_LO]
        shift = (m >= 1e13).astype(np.int64) - (m < 1e12)
        fix = np.flatnonzero(shift)
        if fix.size:
            e[fix] += shift[fix]
            m[fix] = mag[fix] * _POW10[e[fix] - _E_LO]
        n = m.astype(np.int64)
        frac = (m - n).astype(np.float64)  # exact: n <= m < n + 1
    n += frac > 0.5
    exact = (np.abs(frac - 0.5) > _TIE_WINDOW) & (n >= 10**12) & (n <= 10**13)
    slow = np.flatnonzero(~(exact & regular) & (v != 0))  # ties, NaN, inf
    carry = n == 10**13  # 9.9999999999995e(k) rounds up to 1.000000000000e(k+1)
    n[carry] = 10**12
    e += carry
    n *= regular  # zeros print as 0.000000000000e+00
    e *= regular
    n[slow] = 0
    e[slow] = 0
    slots = np.empty((v.size, _SLOT), np.uint8)
    words = slots.view(np.uint32)
    lead = n // 10**12
    n -= lead * 10**12
    high = n // 10**8
    n -= high * 10**8
    mid = n // 10**4
    words[:, 0] = _HEADS[np.signbit(v) * 10 + lead]
    words[:, 1] = _QUADS[high]
    words[:, 2] = _QUADS[mid]
    words[:, 3] = _QUADS[n - mid * 10**4]
    slots.view(np.uint64)[:, 2] = _EXPONENTS[e - _E_LO]
    if slow.size:
        text = "".join([(FLOAT_FORMAT % x).ljust(_SLOT, "\0")
                        for x in v[slow].tolist()])
        slots[slow] = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, _SLOT)
    return slots


def _separators(texts) -> np.ndarray:
    """One NUL-padded row of bytes per separator text."""
    width = max(map(len, texts))
    return np.frombuffer("".join(t.ljust(width, "\0") for t in texts).encode("ascii"),
                         np.uint8).reshape(len(texts), width)


# indexed by the number of axes a field closes: 0 inside a line, 1 at its
# end, 2 at the end of the table
_CSV_SEPARATORS = _separators([",", "\n", "\n"])


def _json_separators(rank: int) -> np.ndarray:
    return _separators(["]" * z + "," + "[" * z for z in range(rank)] + ["]" * rank])


def _layout(slots: np.ndarray, start: int, shape: tuple, seps: np.ndarray) -> str:
    """The text of the whole last-axis rows of a C-ordered array of
    ``shape`` whose fields from flat index ``start`` on have ``slots``:
    each field followed by ``seps[z]``, z being the number of axes it
    closes, with the NULs dropped."""
    width = shape[-1] if shape else 1
    rows = len(slots) // width
    row_ends = np.arange(start // width + 1, start // width + rows + 1)
    closed = np.full(rows, 1 if shape else 0)  # a 0-d array closes no axis
    period = 1
    for size in reversed(shape[:-1]):
        period *= size
        closed += row_ends % period == 0
    stop = _SEP_AT + seps.shape[1]
    if stop > _SLOT:
        slots = np.pad(slots, ((0, 0), (0, stop - _SLOT)))
    cells = slots.reshape(rows, width, -1)
    cells[:, :-1, _SEP_AT:stop] = seps[0]
    cells[:, -1, _SEP_AT:stop] = seps[closed]
    return slots.tobytes().translate(None, b"\0").decode("ascii")


def _float_text(shape: tuple, fields, seps: np.ndarray) -> str:
    """The text of a C-ordered array of ``shape`` whose fields ``a`` to
    ``b`` have the slots ``fields(a, b)``, laid out in chunks of whole
    last-axis rows."""
    size = int(np.prod(shape))
    step = max(1, _CHUNK // shape[-1]) * shape[-1] if shape else 1
    return "".join([_layout(fields(a, min(a + step, size)), a, shape, seps)
                    for a in range(0, size, step)])


def _float_array_text(values: np.ndarray, seps: np.ndarray) -> str:
    flat = values.reshape(-1)
    return _float_text(values.shape, lambda a, b: _float_slots(flat[a:b]), seps)


def float_rows_to_csv(header: str, rows) -> str:
    """``header``, then one line per row of ``rows``, one float per column
    the header names."""
    values = np.asarray(rows, dtype=float).reshape(-1, header.count(",") + 1)
    return header + "\n" + _float_array_text(values, _CSV_SEPARATORS)


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
        if obj.dtype.kind == "f" and obj.size and np.isfinite(obj).all():
            parts.append("[" * obj.ndim)
            parts.append(_float_array_text(obj, _json_separators(obj.ndim)))
        else:
            # integers, booleans, non-finite floats (null) and empty shapes
            # element-wise
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
    (row count, column count) array's value there.  The frequencies are
    formatted once per grid and their slots repeated on every line."""
    row_slots = _float_slots(row_grid.points)
    col_slots = _float_slots(col_grid.points)
    values = np.stack(columns, axis=-1).reshape(-1, len(columns))
    width = 2 + len(columns)

    def fields(a, b):
        first, stop = a // width, b // width
        lines = np.arange(first, stop)
        slots = np.empty((stop - first, width, _SLOT), np.uint8)
        slots[:, 0] = row_slots[lines // col_grid.count]
        slots[:, 1] = col_slots[lines % col_grid.count]
        slots[:, 2:] = _float_slots(values[first:stop]).reshape(stop - first, -1, _SLOT)
        return slots.reshape(-1, _SLOT)

    return header + "\n" + _float_text((len(values), width), fields, _CSV_SEPARATORS)


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
    """Parse ``density_to_dict`` output, naming any malformed entry."""
    if not isinstance(data, dict):
        raise InvalidArgumentError("density matrix must be a JSON object")
    d, leakage = data["d"], data.get("leakage", 0.0)
    if type(d) is not int:
        raise InvalidArgumentError(f"density matrix 'd': must be an integer, got {d!r}")
    if type(leakage) not in (int, float):
        raise InvalidArgumentError("density matrix 'leakage': must be a number")
    parts = {}
    for key in ("re", "im"):
        try:
            parts[key] = np.asarray(data[key], dtype=float)
        except (TypeError, ValueError) as exc:
            raise InvalidArgumentError(f"density matrix {key!r}: {exc}") from exc
        if parts[key].shape != (d, d):
            raise InvalidArgumentError(f"density matrix {key!r}: expected shape "
                                       f"({d}, {d}), got {parts[key].shape}")
    return ModalDensityMatrix(dimension=d, entries=parts["re"] + 1j * parts["im"],
                              leakage=float(leakage))


def schmidt_to_dict(dec: SchmidtDecomposition) -> dict:
    return {"weights": dec.weights,
            "residual_weight": dec.residual_weight}


def reconstruction_log_to_dict(result: ReconstructionResult) -> dict:
    return {"iterations": result.iterations,
            "converged": result.converged,
            "certificate": result.certificate,
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
    """Parse ``count_records_to_csv`` output; a malformed line raises
    InvalidArgumentError naming its line number."""
    lines = [(number, ln) for number, ln in enumerate(text.splitlines(), start=1)
             if ln.strip()]
    expected = ["basis_index", "element_index", "counts", "exposure"]
    header = lines[0][1] if lines else ""
    if header.split(",") != expected:
        raise InvalidArgumentError(
            f"count CSV header must be {','.join(expected)}, got {header!r}")
    records = []
    for number, ln in lines[1:]:
        fields = ln.split(",")
        if len(fields) != len(expected):
            raise InvalidArgumentError(
                f"count CSV line {number}: expected {len(expected)} fields, "
                f"got {len(fields)} in {ln!r}")
        basis, element, counts, exposure = fields
        try:
            records.append(CountRecord(basis_index=int(basis),
                                       element_index=int(element),
                                       counts=int(counts),
                                       exposure=float(exposure)))
        except ValueError as exc:
            raise InvalidArgumentError(f"count CSV line {number}: {exc}") from exc
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


def write_text(path: Path, text: str) -> None:
    """Write an artifact as UTF-8 with ``\\n`` line endings, creating its directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")
