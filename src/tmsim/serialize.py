"""Byte-stable serialization of toolkit objects to JSON and CSV.

All floating-point data is rendered as %.12e with sorted JSON keys, so
identical inputs always produce identical bytes.

Each artifact shape has one text path.  The grid files (``jsa.csv``,
``jsi.csv``, ``jsa.json`` and ``mapping.csv``, 512 x 512 values and more)
are laid out from one numpy kernel (``_float_slots``) in reused line
buffers.  Every other number, a density matrix, a projector, a weight or
a row of a chirp scan, is one ``%`` conversion, which costs less than
the kernel's fixed numpy overhead on arrays of a few values.

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

Each finite value's slot has the kernel's layout: its head (sign,
leading digit and point), its 12 decimals and its exponent at bytes 0, 4
and 16, each part NUL-padded, so the slots of values of one sign and one
exponent width share their NULs; the kernel reports when every slot of a
call does.

Grid text is laid out in the row blocks of ``pdc._row_blocks``, whole
grid rows of about ``pdc._BLOCK`` values each, in a line buffer that an
artifact allocates once, over a ``bytearray``, and reuses.  A grid CSV
(``_GridLines``) formats each frequency once per grid and writes the
column texts and separators into its line buffer once per layout, so a
block copies in only its row texts and its values' text.  Where every
value of each of a block's columns shares one slot layout and no
frequency text is padded, which is most blocks of a smooth one-signed
kernel, the block is laid out at its exact width by two copies per value
and handed out as a view of the buffer.  Any other block, one that mixes
signs or exponent widths or holds NaN or infinity, takes cells of one
width with the slots' NULs, and ``bytearray.translate`` drops them.
jsa.json's two arrays, each in its own ``_ArrayRows``, hold their
brackets and commas in the same way, and copy in the slots of jsa.csv's
columns, with ``null`` in place of NaN and infinity.  The text of a grid
artifact never exists whole, and ``write_jsa`` writes its CSV lines and
JSON arrays side by side.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from pathlib import Path

import numpy as np

from .errors import InvalidArgumentError
from .pdc import (
    JointSpectralAmplitude,
    ModalDensityMatrix,
    SchmidtDecomposition,
    _row_blocks,
)
from .qpg import MappingFunction, ModeFilterResult
from .spectral import ComplexSpectrum, FrequencyGrid
from .tomography import CountRecord, ProjectorSet, ReconstructionResult

FLOAT_FORMAT = "%.12e"


def format_float(value: float) -> str:
    return FLOAT_FORMAT % float(value)


_SLOT = 24        # slot bytes: "-d.dddddddddddde-ddd" is 20, in three uint64 words
_SEP_AT = 21      # separators start here: past the kernel's and %'s text
_CELL = _SEP_AT + 1  # a value and its separator in a grid line
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


def _float_slots(values, out=None) -> tuple:
    """An ``(n, _SLOT)`` uint8 array whose row i holds the ASCII bytes of
    ``FLOAT_FORMAT % values[i]``, NUL-padded, for the n values of the
    flattened float64 array ``values``: the first n rows of the C-ordered
    array ``out`` if given, else a new array; and the slots' layout.

    A finite value's slot holds its sign, leading digit and point in
    bytes 0 to 3, its 12 decimals in bytes 4 to 15 and its exponent from
    byte 16 on, each part NUL-padded.  The layout is the pair of text
    bytes in the first and last part, (2, 4) for ``d.`` and ``e+dd`` up
    to (3, 5) for ``-d.`` and ``e-ddd``, where every slot has the same
    pair, and None where the slots mix pairs or hold NaN or infinity,
    whose text fills its slot from byte 0.  Zeros keep the template every
    slot starts as; only the nonzero values are converted."""
    v = np.asarray(values, dtype=np.float64).ravel()
    slots = np.empty((v.size, _SLOT), np.uint8) if out is None else out[:v.size]
    words64 = slots.view(np.uint64)
    for k, word in enumerate(_ZERO_WORDS):
        words64[:, k] = word
    negative_zeros = v.view(np.uint64) == _NEG_ZERO
    slots.view(np.uint32)[negative_zeros, 0] = _HEADS[10]  # "-0."
    at = np.flatnonzero(v)
    x = v[at]
    e, n, slow = _mantissas(x)
    negative = np.signbit(x)
    top = n // 10**8  # the leading digit and the first group, below 10**5
    low = (n - top * 10**8).astype(np.uint32)  # the last two groups
    del n
    top = top.astype(np.uint32)
    lead = top // 10**4
    mid = low // 10**4
    words = slots.view(np.uint32).reshape(-1)  # six per slot
    word = at * 6  # the first word of each nonzero value's slot
    words[word] = _HEADS[negative * 10 + lead]
    word += 1
    words[word] = _QUADS[top - lead * 10**4]
    word += 1
    words[word] = _QUADS[mid]
    word += 1
    words[word] = _QUADS[low - mid * 10**4]
    words64.reshape(-1)[at * 3 + 2] = _EXPONENTS[e - _E_LO]
    # the layout: one sign over all slots, and one exponent width, read
    # from e (0 where the value is left to %) and from %'s own texts
    signs = np.count_nonzero(negative) + np.count_nonzero(negative_zeros)
    wide = 0
    if e.size and not -100 < e.min() <= e.max() < 100:
        wide = np.count_nonzero((e <= -100) | (e >= 100))
    uniform = signs in (0, v.size)
    if slow.size:
        texts = [FLOAT_FORMAT % y for y in x[slow].tolist()]
        parts = [t.partition(".") for t in texts]
        # a finite value's text in the kernel's layout, so that one tie
        # leaves its block's layout as it is; NaN and infinity from byte 0
        text = "".join([(head + dot).ljust(4, "\0") + tail[:12] + tail[12:].ljust(8, "\0")
                        if dot else t.ljust(_SLOT, "\0")
                        for t, (head, dot, tail) in zip(texts, parts)])
        slots[at[slow]] = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, _SLOT)
        uniform &= all(dot for _, dot, _ in parts)
        wide += sum(len(tail) == 17 for _, _, tail in parts)
    if not uniform or wide not in (0, v.size):
        return slots, None
    return slots, (2 + int(signs > 0), 4 + int(wide > 0))


def _text_rows(texts) -> np.ndarray:
    """One row of ASCII bytes per text, NUL-padded to the longest."""
    width = max(map(len, texts))
    return np.frombuffer("".join(t.ljust(width, "\0") for t in texts).encode("ascii"),
                         np.uint8).reshape(len(texts), width)


def _nul_free(buffer: bytearray, size: int) -> bytearray:
    """The first ``size`` bytes of ``buffer`` with the NULs dropped."""
    return (buffer if size == len(buffer) else buffer[:size]).translate(None, b"\0")


_NULL_SLOT = np.frombuffer(b"null".ljust(_SLOT, b"\0"), np.uint8)


def _nulled(slots: np.ndarray, values) -> np.ndarray:
    """``slots`` of ``values`` with JSON's ``null`` in place of NaN and
    infinity, written in place."""
    slots[~np.isfinite(values).ravel()] = _NULL_SLOT
    return slots


def _text(chunks) -> str:
    """The text of byte chunks, each copied before the next is made: a
    chunk may be a view of a buffer that the next one reuses."""
    return b"".join([bytes(chunk) for chunk in chunks]).decode("ascii")


def float_rows_to_csv(header: str, rows) -> str:
    """``header``, then one line per row of ``rows``, one float per column
    the header names."""
    values = np.asarray(rows, dtype=float).reshape(-1, header.count(",") + 1)
    return header + "\n" + "".join([",".join(map(format_float, row)) + "\n"
                                    for row in values.tolist()])


def dump_json(obj) -> str:
    """Render a plain dict/list tree with sorted keys and %.12e floats."""
    return _render_json(obj) + "\n"


def _render_json(obj) -> str:
    """The JSON text of ``obj``."""
    if isinstance(obj, (float, np.floating)):
        # JSON has no NaN/inf; empty-branch statistics serialize as null
        return format_float(obj) if math.isfinite(obj) else "null"
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return "%d" % int(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise InvalidArgumentError("JSON object keys must be strings")
            items.append(json.dumps(key) + ":" + _render_json(obj[key]))
        return "{" + ",".join(items) + "}"
    if isinstance(obj, np.ndarray):
        # a 0-d array becomes its scalar, and a complex entry is rejected
        return _render_json(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join([_render_json(item) for item in obj]) + "]"
    raise InvalidArgumentError(f"cannot serialize object of type {type(obj).__name__}")


def grid_to_dict(grid: FrequencyGrid) -> dict:
    return {"center": grid.center, "spacing": grid.spacing, "count": grid.count}


def spectrum_to_csv(spectrum: ComplexSpectrum) -> str:
    amp = spectrum.amplitudes
    return float_rows_to_csv("omega_rad_per_fs,real,imag",
                             np.column_stack([spectrum.grid.points, amp.real, amp.imag]))


_JSA_HEADER = b"omega_s,omega_i,real,imag\n"
_JSI_HEADER = b"omega_s,omega_i,intensity\n"
_MAPPING_HEADER = b"omega_in,omega_out,real,imag\n"


def _items(array: np.ndarray) -> np.ndarray:
    """Each last-axis row of the uint8 ``array`` as one void item, which
    numpy copies about twice as fast as its bytes one by one."""
    return array.view(f"V{array.shape[-1]}")


def _cell_width(layout) -> int:
    """The bytes of a value's text in its cell: its slot's first
    ``_SEP_AT``, NULs included, where the slots of a block mix layouts
    (None), else the text alone."""
    return _SEP_AT if layout is None else layout[0] + 12 + layout[1]


def _cell_copies(lines: np.ndarray, at: int, layout) -> list:
    """The copies that take a value's slot of ``layout`` into its cell,
    from byte ``at`` of the last axis of ``lines``: (the cells as items,
    first slot byte, end slot byte) each.  A slot of one layout leaves its
    NULs behind: its head, then its decimals with its exponent."""
    if layout is None:
        return [(_items(lines[..., at:at + _SEP_AT]), 0, _SEP_AT)]
    head, tail = layout
    return [(_items(lines[..., at:at + head]), 0, head),
            (_items(lines[..., at + head:at + head + 12 + tail]), 4, 16 + tail)]


class _GridLines:
    """The CSV lines of a grid, one per point: its row and column
    frequencies, then its value in each of ``columns`` arrays, laid out
    ``rows`` grid rows at a time in one reused line buffer.

    Each frequency's text with its comma is formatted once per grid and
    NUL-padded to the longest of its axis.  The column texts and every
    separator are written into the buffer once per layout of the lines; a
    block copies in only its rows' texts and its values' slots.  Where
    every value of each of a block's columns has one layout and no
    frequency text is padded, the block's lines are laid out at their
    exact width and handed out as they are; otherwise each value takes a
    cell of ``_SEP_AT`` bytes and a separator, and the lines are handed
    out with their NULs dropped.  Both layouts share the buffer: a block
    whose layout differs from the last one's rewrites the column texts and
    separators first.  ``slots`` holds each column's reused slot array,
    and ``layouts`` the slot layouts of the last block's columns."""

    def __init__(self, row_grid: FrequencyGrid, col_grid: FrequencyGrid, rows: int,
                 columns: int):
        row_texts = _text_rows([format_float(w) + "," for w in row_grid.points.tolist()])
        self.col_texts = _text_rows([format_float(w) + "," for w in col_grid.points.tolist()])
        # exact widths need one text length per axis: texts with no NUL
        self.exact = bool(row_texts.all() and self.col_texts.all())
        self.width = row_texts.shape[1]
        self.start = self.width + self.col_texts.shape[1]  # the first value cell
        self.shape = (rows, col_grid.count)
        self.buffer = bytearray(rows * col_grid.count * (self.start + columns * _CELL))
        self.row_texts = _items(row_texts)
        self.slots = [np.empty((rows * col_grid.count, _SLOT), np.uint8)
                      for _ in range(columns)]
        self._lay((None,) * columns)

    def _lay(self, layouts: tuple) -> None:
        """Lay the line buffer out for values of ``layouts``, one per column."""
        widths = np.array([_cell_width(layout) for layout in layouts])
        ends = self.start + np.cumsum(widths + 1) - 1  # each value's separator
        count = int(np.prod(self.shape)) * (ends[-1] + 1)
        lines = np.frombuffer(self.buffer, np.uint8, count).reshape(*self.shape, -1)
        lines[:, :, self.width:self.start] = self.col_texts
        lines[:, :, ends[:-1]] = ord(",")
        lines[:, :, ends[-1]] = ord("\n")
        self.lines, self.key = lines, layouts
        self.prefixes = _items(lines[:, :, :self.width])
        self.copies = [_cell_copies(lines, at, layout)
                       for at, layout in zip(ends - widths, layouts)]

    def text(self, first: int, *blocks: np.ndarray):
        """The lines of the grid rows from ``first`` on, whose values are
        the rows of ``blocks``, one per column: a view of the line buffer,
        valid until the next call, where they have their exact width."""
        rows = len(blocks[0])
        slots = [_float_slots(block, out) for block, out in zip(blocks, self.slots)]
        self.layouts = tuple(layout for _, layout in slots)
        exact = self.exact and None not in self.layouts
        key = self.layouts if exact else (None,) * len(blocks)
        if key != self.key:
            self._lay(key)
        self.prefixes[:rows] = self.row_texts[first:first + rows, None]
        for (block_slots, _), copies in zip(slots, self.copies):
            for cells, lo, hi in copies:
                cells[:rows] = _items(block_slots[:, lo:hi]).reshape(rows, -1, 1)
        size = self.lines[:rows].nbytes
        return memoryview(self.buffer)[:size] if exact else _nul_free(self.buffer, size)


def _grid_pair_chunks(header: bytes, row_grid: FrequencyGrid, col_grid: FrequencyGrid,
                      *columns: np.ndarray):
    """``header``, then one line per grid point: the row and column
    frequencies, then each (row count, column count) array's value there,
    yielded in blocks of grid rows."""
    count, cols = columns[0].shape
    blocks = _row_blocks(count, cols * (2 + len(columns)))
    lines = _GridLines(row_grid, col_grid, blocks[0].stop, len(columns))
    yield header
    for rows in blocks:
        yield lines.text(rows.start, *(column[rows] for column in columns))


def jsa_to_csv(jsa: JointSpectralAmplitude) -> str:
    return _text(_grid_pair_chunks(_JSA_HEADER, jsa.signal_grid, jsa.idler_grid,
                                   jsa.amplitudes.real, jsa.amplitudes.imag))


def jsi_to_csv(jsa: JointSpectralAmplitude) -> str:
    """Phase-blind |f|^2 view of a joint amplitude."""
    return _text(_grid_pair_chunks(_JSI_HEADER, jsa.signal_grid, jsa.idler_grid,
                                   jsa.intensity()))


def mapping_csv_chunks(xi: MappingFunction):
    """The text of ``mapping.csv`` in chunks of bytes, for ``write_text``:
    a chunk may be a view of a reused buffer, valid until the next one is
    taken, so a caller that holds chunks copies each."""
    return _grid_pair_chunks(_MAPPING_HEADER, xi.signal_grid, xi.idler_grid,
                             xi.amplitudes.real, xi.amplitudes.imag)


def mapping_to_csv(xi: MappingFunction) -> str:
    return _text(mapping_csv_chunks(xi))


class _ArrayRows:
    """The rows of the JSON array of a grid of ``count`` rows and ``cols``
    columns, ``[v,...,v],`` each and ``[v,...,v]]`` the last, laid out
    ``rows`` grid rows at a time in one reused line buffer.

    The brackets and commas are written into the buffer once per layout
    of the rows; a block copies in only its values' slots, at the exact
    width of their text where the slots have one layout, else into cells
    of ``_SEP_AT`` bytes whose NULs are dropped, as in :class:`_GridLines`."""

    def __init__(self, count: int, rows: int, cols: int):
        self.count, self.shape = count, (rows, cols)
        self.buffer = bytearray(rows * (cols * _CELL + 2))
        self._lay(None)

    def _lay(self, layout) -> None:
        """Lay the line buffer out for values of ``layout``."""
        rows, cols = self.shape
        cell = _cell_width(layout) + 1
        lines = np.frombuffer(self.buffer, np.uint8, rows * (cols * cell + 2))
        lines = lines.reshape(rows, -1)
        lines[:, 0] = ord("[")
        lines[:, cell:-1:cell] = ord(",")
        lines[:, -2] = ord("]")
        lines[:, -1] = ord(",")
        self.lines, self.key = lines, layout
        self.copies = _cell_copies(lines[:, 1:-1].reshape(rows, cols, cell), 0, layout)

    def text(self, first: int, slots: np.ndarray, layout):
        """The lines of the grid rows from ``first`` on, whose values'
        slots of ``layout`` are the rows of ``slots``: a view of the line
        buffer, valid until the next call, where they have one layout."""
        rows = len(slots) // self.shape[1]
        if layout != self.key:
            self._lay(layout)
        for cells, lo, hi in self.copies:
            cells[:rows] = _items(slots[:, lo:hi]).reshape(rows, -1, 1)
        if first + rows == self.count:
            self.lines[rows - 1, -1] = ord("]")
        size = self.lines[:rows].nbytes
        return memoryview(self.buffer)[:size] if layout else _nul_free(self.buffer, size)


def write_jsa(jsa: JointSpectralAmplitude, out: Path) -> None:
    """Write the joint amplitude's grid files, jsa.csv, jsi.csv and
    jsa.json, into the directory ``out``.

    The three files are written side by side, one block of grid rows at a
    time, so each real part, imaginary part and intensity is formatted
    once: jsa.json's arrays are laid out from the slots of jsa.csv's
    columns, with NaN and infinity as ``null``.  jsa.json's keys are
    sorted, so its "im" array streams with the CSV files and only the
    laid-out "re" array is held until "im" is complete.
    """
    amplitudes = jsa.amplitudes
    count, cols = amplitudes.shape
    blocks = _row_blocks(count, cols * 4)
    rows = blocks[0].stop
    jsa_lines = _GridLines(jsa.signal_grid, jsa.idler_grid, rows, 2)
    jsi_lines = _GridLines(jsa.signal_grid, jsa.idler_grid, rows, 1)
    re, im = jsa_lines.slots
    re_rows, im_rows = _ArrayRows(count, rows, cols), _ArrayRows(count, rows, cols)
    re_text = []
    with (_artifact(out / "jsa.csv") as csv, _artifact(out / "jsi.csv") as jsi,
          _artifact(out / "jsa.json") as js):
        csv.write(_JSA_HEADER)
        jsi.write(_JSI_HEADER)
        js.write(b'{"idler_grid":%s,"im":[' % _render_json(
            grid_to_dict(jsa.idler_grid)).encode("ascii"))
        for block_rows in blocks:
            a, block = block_rows.start, amplitudes[block_rows]
            csv.write(jsa_lines.text(a, block.real, block.imag))
            jsi.write(jsi_lines.text(a, np.abs(block) ** 2))
            re_layout, im_layout = jsa_lines.layouts
            # held until "im" is complete: as bytes, a copy out of the
            # reused buffer that keeps no room for dropped NULs
            re_text.append(bytes(re_rows.text(
                a, _nulled(re[:block.size], block.real), re_layout)))
            js.write(im_rows.text(a, _nulled(im[:block.size], block.imag), im_layout))
        js.write(b',"re":[')
        js.writelines(re_text)
        js.write(b',"signal_grid":%s}\n' % _render_json(
            grid_to_dict(jsa.signal_grid)).encode("ascii"))


def density_to_dict(rho: ModalDensityMatrix) -> dict:
    return {"d": rho.dimension,
            "re": rho.entries.real,
            "im": rho.entries.imag,
            "leakage": rho.leakage}


def density_from_dict(data: dict) -> ModalDensityMatrix:
    """Parse ``density_to_dict`` output, naming any malformed entry."""
    if not isinstance(data, dict):
        raise InvalidArgumentError("density matrix must be a JSON object")
    for key in ("d", "re", "im"):
        if key not in data:
            raise InvalidArgumentError(f"density matrix is missing the {key!r} entry")
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


def selectivity_report_to_dict(dec: SchmidtDecomposition) -> dict:
    return {"schmidt_weights": dec.weights, "separability": dec.separability}


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
