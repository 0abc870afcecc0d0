"""Byte-stable serialization of toolkit objects to JSON and CSV.

All floating-point data is rendered as %.12e with sorted JSON keys, so
identical inputs always produce identical bytes.

Float arrays reach text through one numpy kernel (``_float_slots``) and
one layout step (``_layout``) instead of one ``%`` conversion per value.
The kernel writes ``FLOAT_FORMAT % v`` for every value into a fixed-width,
NUL-padded slot of ASCII bytes.  The slot array starts as the template of
``0.000000000000e+00``, so zeros cost no arithmetic: ``-0.0`` only gets
the ``-`` head, and every later step runs on the nonzero values alone and
writes their words straight into the template:

- the decimal exponent is ``floor(log10|v|)``;
- the scaled mantissa is ``m = |v| * 10**(12 - e)``, the product taken in
  ``np.longdouble`` against a table of correctly rounded powers of ten;
- its integer part ``n = int(m)`` is the one range check: only where n
  falls outside [1e12, 1e13) is e corrected by one and m taken again (for
  m >= 0 this is the test on m itself, because both bounds are integers);
- n, rounded by the fractional part, gives the 13 digits, and digits,
  sign and exponent are written by lookups into small tables of packed
  ASCII words.

The product carries a relative error of about one ``np.longdouble``
epsilon, so a mantissa whose fractional part lies within ``_TIE_WINDOW``
of one half cannot be rounded safely.  Those values, and every NaN and
infinity, are converted by ``%`` one at a time into the same slot, so the
output is identical to ``format_float`` per value by construction.  Where
``np.longdouble`` is a plain double the window is wider, more values take
the ``%`` path, and a product that overflows fails the range check and
takes it too; the output stays exact.

Text is laid out in chunks of about ``_CHUNK`` values, each in buffers
that an artifact allocates once, over ``bytearray`` objects, and reuses;
``bytearray.translate`` on a buffer drops its NULs.  A grid CSV
(``_GridLines``) formats each frequency once per grid and writes the
column texts and separators into its line buffer once, so a block copies
in only its row texts and its values' slots.  The text of a grid artifact
never exists whole, and ``write_jsa`` writes its CSV lines and JSON
arrays side by side.  JSON arrays render NaN and infinity as ``null``.
"""

from __future__ import annotations

import contextlib
import json
import os
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
_CELL = _SEP_AT + 1  # a value and its separator in a grid line
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


# the slot of 0.0 as the kernel writes it: head "0.", three "0000" groups
# and the exponent "e+00", in three uint64 words
_ZERO_WORDS = np.concatenate([_HEADS[[0]], _QUADS[[0, 0, 0]],
                              _EXPONENTS[[-_E_LO]].view(np.uint32)]).view(np.uint64)
_NEG_ZERO = np.float64(-0.0).view(np.uint64)  # the bits of -0.0


def _mantissas(x: np.ndarray):
    """The decimal exponent e and rounded 13-digit mantissa n of each of the
    nonzero float64 values ``x``, and the indices of the values left to
    ``%``: NaN, infinity, mantissas within ``_TIE_WINDOW`` of a rounding
    tie and any that no exponent correction brought into range.  Those get
    the valid placeholder e = 0, n = 10**12."""
    mag = np.abs(x)
    leave = ~(mag < np.inf)
    mag[leave] = 1.0
    # errstate: on a platform whose long double is a plain double, 10**337
    # overflows; the cast of such an m is out of range and takes the % path
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.floor(np.log10(mag)).astype(np.int64)
        m = mag * _POW10[e - _E_LO]
        # int(m) is floor(m) for m >= 0, so with integer bounds n is in
        # range exactly where m is
        n = m.astype(np.int64)
        fix = np.flatnonzero((n < 10**12) | (n >= 10**13))
        if fix.size:
            e[fix] += (n[fix] >= 10**13).astype(np.int64) - (n[fix] < 10**12)
            m[fix] = mag[fix] * _POW10[e[fix] - _E_LO]
            n[fix] = m[fix].astype(np.int64)
            leave[fix] |= (n[fix] < 10**12) | (n[fix] >= 10**13)
        # drop each array once it is spent: a smaller working set touches
        # fewer fresh pages
        del mag
        frac = np.subtract(m, n, out=m).astype(np.float64)  # exact: n <= m < n + 1
        del m
    n += frac > 0.5
    frac -= 0.5
    leave |= np.abs(frac, out=frac) <= _TIE_WINDOW
    carry = n == 10**13  # 9.9999999999995e(k) rounds up to 1.000000000000e(k+1)
    n[carry] = 10**12
    e += carry
    slow = np.flatnonzero(leave)
    n[slow] = 10**12
    e[slow] = 0
    return e, n, slow


def _float_slots(values, out=None) -> np.ndarray:
    """An ``(n, _SLOT)`` uint8 array whose row i holds the ASCII bytes of
    ``FLOAT_FORMAT % values[i]``, NUL-padded, for the n values of the
    flattened float64 array ``values``: the first n rows of the C-ordered
    array ``out`` if given, else a new array.  Zeros keep the template
    every slot starts as; only the nonzero values are converted."""
    v = np.asarray(values, dtype=np.float64).ravel()
    slots = np.empty((v.size, _SLOT), np.uint8) if out is None else out[:v.size]
    words64 = slots.view(np.uint64)
    for k, word in enumerate(_ZERO_WORDS):
        words64[:, k] = word
    slots.view(np.uint32)[v.view(np.uint64) == _NEG_ZERO, 0] = _HEADS[10]  # "-0."
    at = np.flatnonzero(v)
    x = v[at]
    e, n, slow = _mantissas(x)
    top = n // 10**8  # the leading digit and the first group, below 10**5
    low = (n - top * 10**8).astype(np.uint32)  # the last two groups
    del n
    top = top.astype(np.uint32)
    lead = top // 10**4
    mid = low // 10**4
    words = slots.view(np.uint32).reshape(-1)  # six per slot
    word = at * 6  # the first word of each nonzero value's slot
    words[word] = _HEADS[np.signbit(x) * 10 + lead]
    word += 1
    words[word] = _QUADS[top - lead * 10**4]
    word += 1
    words[word] = _QUADS[mid]
    word += 1
    words[word] = _QUADS[low - mid * 10**4]
    words64.reshape(-1)[at * 3 + 2] = _EXPONENTS[e - _E_LO]
    if slow.size:
        text = "".join([(FLOAT_FORMAT % y).ljust(_SLOT, "\0")
                        for y in x[slow].tolist()])
        slots[at[slow]] = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, _SLOT)
    return slots


def _text_rows(texts) -> np.ndarray:
    """One row of ASCII bytes per text, NUL-padded to the longest."""
    width = max(map(len, texts))
    return np.frombuffer("".join(t.ljust(width, "\0") for t in texts).encode("ascii"),
                         np.uint8).reshape(len(texts), width)


# indexed by the number of axes a field closes: 0 inside a line, 1 at its
# end, 2 at the end of the table
_CSV_SEPARATORS = _text_rows([",", "\n", "\n"])


def _json_separators(rank: int) -> np.ndarray:
    return _text_rows(["]" * z + "," + "[" * z for z in range(rank)] + ["]" * rank])


def _byte_array(*shape):
    """A zeroed uint8 array of ``shape`` and the bytearray it views, from
    which ``_nul_free`` takes its text."""
    buffer = bytearray(int(np.prod(shape)))
    return np.frombuffer(buffer, np.uint8).reshape(shape), buffer


def _nul_free(buffer: bytearray, size: int) -> bytearray:
    """The first ``size`` bytes of ``buffer`` with the NULs dropped."""
    return (buffer if size == len(buffer) else buffer[:size]).translate(None, b"\0")


_NULL_SLOT = np.frombuffer(b"null".ljust(_SLOT, b"\0"), np.uint8)


def _nulled(slots: np.ndarray, values) -> np.ndarray:
    """``slots`` of ``values`` with JSON's ``null`` in place of NaN and
    infinity, written in place."""
    slots[~np.isfinite(values).ravel()] = _NULL_SLOT
    return slots


def _json_slots(values, out) -> np.ndarray:
    return _nulled(_float_slots(values, out), values)


def _layout(slots: np.ndarray, start: int, shape: tuple, seps: np.ndarray,
            buffer: bytearray) -> bytearray:
    """The text of the whole last-axis rows of a C-ordered array of
    ``shape`` whose fields from flat index ``start`` on have ``slots``, the
    leading rows of an array over ``buffer``: each field followed by
    ``seps[z]``, z being the number of axes it closes, with the NULs
    dropped.  The separators may be written into ``slots``."""
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
        padded, buffer = _byte_array(len(slots), stop)
        padded[:, :_SLOT] = slots
        slots = padded
    cells = slots.reshape(rows, width, -1)
    # the separator inside a row, seps[0], is a comma, and a slot is NUL
    # from _SEP_AT on, so it takes one byte
    cells[:, :-1, _SEP_AT] = ord(",")
    cells[:, -1, _SEP_AT:stop] = seps[closed]
    return _nul_free(buffer, slots.nbytes)


def _float_chunks(values: np.ndarray, seps: np.ndarray, slots=_float_slots):
    """The text of the float array ``values``, each field's slot made by
    ``slots`` into one reused slot array, yielded in chunks of whole
    last-axis rows."""
    flat = values.reshape(-1)
    step = max(1, _CHUNK // values.shape[-1]) * values.shape[-1] if values.ndim else 1
    out, buffer = _byte_array(min(step, flat.size), _SLOT)
    for a in range(0, flat.size, step):
        yield _layout(slots(flat[a:a + step], out), a, values.shape, seps, buffer)


def _text(chunks) -> str:
    return b"".join(chunks).decode("ascii")


def float_rows_to_csv(header: str, rows) -> str:
    """``header``, then one line per row of ``rows``, one float per column
    the header names."""
    values = np.asarray(rows, dtype=float).reshape(-1, header.count(",") + 1)
    return header + "\n" + _text(_float_chunks(values, _CSV_SEPARATORS))


class _Rendered:
    """A JSON value given as the chunks of its text, which ``_render_json``
    writes as they come."""

    def __init__(self, chunks):
        self.chunks = chunks


def dump_json(obj) -> str:
    """Render a plain dict/list tree with sorted keys and %.12e floats."""
    parts = []
    _render_json(obj, parts.append)
    parts.append(b"\n")
    return _text(parts)


def _render_json(obj, write) -> None:
    """Pass the ASCII text of ``obj`` to ``write`` in chunks of bytes."""
    if obj is None:
        write(b"null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        write(b"true" if obj else b"false")
    elif isinstance(obj, (int, np.integer)):
        write(b"%d" % int(obj))
    elif isinstance(obj, (float, np.floating)):
        # JSON has no NaN/inf; empty-branch statistics serialize as null
        write(format_float(obj).encode("ascii") if np.isfinite(obj) else b"null")
    elif isinstance(obj, str):
        write(json.dumps(obj).encode("ascii"))
    elif isinstance(obj, dict):
        write(b"{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise InvalidArgumentError("JSON object keys must be strings")
            if i:
                write(b",")
            write(json.dumps(key).encode("ascii") + b":")
            _render_json(obj[key], write)
        write(b"}")
    elif isinstance(obj, _Rendered):
        for chunk in obj.chunks:
            write(chunk)
    elif isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and obj.size:
            write(b"[" * obj.ndim)
            for chunk in _float_chunks(obj, _json_separators(obj.ndim), _json_slots):
                write(chunk)
        else:
            # integers, booleans and empty shapes element-wise
            _render_json(obj.tolist(), write)
    elif isinstance(obj, (list, tuple)):
        write(b"[")
        for i, item in enumerate(obj):
            if i:
                write(b",")
            _render_json(item, write)
        write(b"]")
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


_JSA_HEADER = b"omega_s,omega_i,real,imag\n"
_JSI_HEADER = b"omega_s,omega_i,intensity\n"
_MAPPING_HEADER = b"omega_in,omega_out,real,imag\n"


def _row_blocks(shape: tuple, fields_per_point: int):
    """``(first, stop)`` of each block of whole grid rows, about ``_CHUNK``
    fields each, of a grid of ``shape`` written ``fields_per_point`` fields
    per point."""
    step = max(1, _CHUNK // (shape[1] * fields_per_point))
    return [(a, min(a + step, shape[0])) for a in range(0, shape[0], step)]


def _items(array: np.ndarray) -> np.ndarray:
    """Each last-axis row of the uint8 ``array`` as one void item, which
    numpy copies about twice as fast as its bytes one by one."""
    return array.view(f"V{array.shape[-1]}")


class _GridLines:
    """The CSV lines of a grid, one per point: its row and column
    frequencies, then its value in each of ``columns`` arrays, laid out
    ``rows`` grid rows at a time in one reused line buffer.

    Each frequency's text with its comma is formatted once per grid and
    NUL-padded to the longest of its axis.  The column texts and every
    separator are written into the buffer once; a block copies in only its
    rows' texts and the slots of its values, each into a cell of
    ``_SEP_AT + 1`` bytes whose last byte is the separator.  ``slots``
    holds each column's reused slot array with its bytearray."""

    def __init__(self, row_grid: FrequencyGrid, col_grid: FrequencyGrid, rows: int,
                 columns: int):
        row_texts = _text_rows([format_float(w) + "," for w in row_grid.points.tolist()])
        col_texts = _text_rows([format_float(w) + "," for w in col_grid.points.tolist()])
        width = row_texts.shape[1]
        start = width + col_texts.shape[1]  # the first value cell
        self.lines, self.buffer = _byte_array(rows, col_grid.count, start + columns * _CELL)
        self.lines[:, :, width:start] = col_texts
        ends = np.arange(start + _SEP_AT, self.lines.shape[2], _CELL)
        self.lines[:, :, ends[:-1]] = ord(",")
        self.lines[:, :, ends[-1]] = ord("\n")
        self.row_texts = _items(row_texts)
        self.prefixes = _items(self.lines[:, :, :width])
        self.cells = [_items(self.lines[:, :, at:at + _SEP_AT]) for at in ends - _SEP_AT]
        self.slots = [_byte_array(rows * col_grid.count, _SLOT) for _ in range(columns)]

    def text(self, first: int, *blocks: np.ndarray) -> bytearray:
        """The lines of the grid rows from ``first`` on, whose values are
        the rows of ``blocks``, one per column."""
        rows = len(blocks[0])
        self.prefixes[:rows] = self.row_texts[first:first + rows, None]
        for block, (out, _), cells in zip(blocks, self.slots, self.cells):
            slots = _float_slots(block, out)
            cells[:rows] = _items(slots[:, :_SEP_AT]).reshape(rows, -1, 1)
        return _nul_free(self.buffer, self.lines[:rows].nbytes)


def _grid_pair_chunks(header: bytes, row_grid: FrequencyGrid, col_grid: FrequencyGrid,
                      *columns: np.ndarray):
    """``header``, then one line per grid point: the row and column
    frequencies, then each (row count, column count) array's value there,
    yielded in blocks of grid rows."""
    blocks = _row_blocks(columns[0].shape, 2 + len(columns))
    lines = _GridLines(row_grid, col_grid, blocks[0][1], len(columns))
    yield header
    for a, b in blocks:
        yield lines.text(a, *(column[a:b] for column in columns))


def jsa_to_csv(jsa: JointSpectralAmplitude) -> str:
    return _text(_grid_pair_chunks(_JSA_HEADER, jsa.signal_grid, jsa.idler_grid,
                                   jsa.amplitudes.real, jsa.amplitudes.imag))


def jsi_to_csv(jsa: JointSpectralAmplitude) -> str:
    """Phase-blind |f|^2 view of a joint amplitude."""
    return _text(_grid_pair_chunks(_JSI_HEADER, jsa.signal_grid, jsa.idler_grid,
                                   jsa.intensity()))


def mapping_csv_chunks(xi: MappingFunction):
    """The text of ``mapping.csv`` in chunks of bytes, for ``write_text``."""
    return _grid_pair_chunks(_MAPPING_HEADER, xi.signal_grid, xi.idler_grid,
                             xi.amplitudes.real, xi.amplitudes.imag)


def mapping_to_csv(xi: MappingFunction) -> str:
    return _text(mapping_csv_chunks(xi))


def write_jsa(jsa: JointSpectralAmplitude, out: Path) -> None:
    """Write the joint amplitude's grid files, jsa.csv, jsi.csv and
    jsa.json, into the directory ``out``.

    The three files are written side by side, one block of grid rows at a
    time, so each real part, imaginary part and intensity is formatted
    once: jsa.json's arrays are laid out from the slots of jsa.csv's
    columns.  jsa.json's keys are sorted, so its "im" array streams with
    the CSV files and only the laid-out "re" array is held until "im" is
    complete.
    """
    amplitudes = jsa.amplitudes
    shape = amplitudes.shape
    blocks = _row_blocks(shape, 4)
    jsa_lines = _GridLines(jsa.signal_grid, jsa.idler_grid, blocks[0][1], 2)
    jsi_lines = _GridLines(jsa.signal_grid, jsa.idler_grid, blocks[0][1], 1)
    (re, re_buffer), (im, im_buffer) = jsa_lines.slots
    seps = _json_separators(2)
    re_text = [b"[["]
    with (_artifact(out / "jsa.csv") as csv, _artifact(out / "jsi.csv") as jsi,
          _artifact(out / "jsa.json") as js):
        csv.write(_JSA_HEADER)
        jsi.write(_JSI_HEADER)

        def im_text():
            # rendering "im" drives the CSV files
            yield b"[["
            for a, b in blocks:
                block = amplitudes[a:b]
                csv.write(jsa_lines.text(a, block.real, block.imag))
                jsi.write(jsi_lines.text(a, np.abs(block) ** 2))
                start = a * shape[1]
                # held until "im" is complete: as bytes, which keep no room
                # for the NULs that the bytearray dropped
                re_text.append(bytes(_layout(_nulled(re[:block.size], block.real), start,
                                             shape, seps, re_buffer)))
                yield _layout(_nulled(im[:block.size], block.imag), start, shape, seps,
                              im_buffer)

        _render_json(dict(jsa_to_dict(jsa), re=_Rendered(re_text),
                          im=_Rendered(im_text())), js.write)
        js.write(b"\n")


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


@contextlib.contextmanager
def _artifact(path: Path):
    """A binary file, in a new directory if need be, that becomes ``path``
    only when the block completes.  Until then its bytes go to a temporary
    file next to ``path``, which an exception removes, so a failed write
    leaves neither a partial artifact nor the temporary file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "wb") as fh:
            yield fh
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def write_text(path: Path, text) -> None:
    """Write an artifact, a ``str`` as UTF-8 or an iterable of ASCII byte
    chunks as they come, with ``\\n`` line endings, creating its
    directory.  The artifact appears whole or not at all."""
    with _artifact(path) as fh:
        if isinstance(text, str):
            fh.write(text.encode("utf-8"))
        else:
            fh.writelines(text)
