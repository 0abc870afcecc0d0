import json
import os
import tempfile
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from tmsim import (
    ComplexSpectrum,
    CountRecord,
    FrequencyGrid,
    HermiteGaussParams,
    InvalidArgumentError,
    JointSpectralAmplitude,
    MappingFunction,
    ModalDensityMatrix,
    GateSpec,
    build_mapping,
    hg_mode,
    make_grid,
)
from tmsim import cli, pdc, presets, serialize
from tmsim.cli import main

SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, 1e-300, -1e-300,
                  np.nan, np.inf, -np.inf]
# each class the kernel treats apart: zeros of both signs, subnormals,
# regular values and a rounding tie
MIXED_FLOATS = [v for v in SPECIAL_FLOATS if np.isfinite(v)] + [
    -5e-324, 2.2250738585072009e-308, 1.5, -2.75e-7, 6.02214076e23, 0.5, 2.0 ** -19]


def sample_spectrum():
    grid = make_grid(1.223, 0.02, 16)
    return hg_mode(HermiteGaussParams(order=0, center=1.223, width=2e-3), grid)


def sample_jsa(count=12):
    signal = make_grid(1.223, 0.02, count)
    idler = make_grid(1.220, 0.02, count)
    a = hg_mode(HermiteGaussParams(0, 1.223, 2e-3), signal)
    b = hg_mode(HermiteGaussParams(0, 1.220, 2e-3), idler)
    return JointSpectralAmplitude(signal, idler,
                                  np.outer(a.amplitudes, b.amplitudes))


def sample_density():
    entries = np.diag([0.6, 0.3, 0.1]).astype(complex)
    return ModalDensityMatrix(dimension=3, entries=entries, leakage=0.02)


def unchecked(cls, **fields):
    """A frozen toolkit object holding ``fields`` as given, without the
    constructor's checks, so writers can be fed finite values of any
    weight: the signs and exponents that a grid's layouts turn on."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def reference_grid_pair_csv(header, row_grid, col_grid, *columns):
    """The per-cell grid writer that the block-filled one replaced."""
    col_points = [serialize.format_float(w) for w in col_grid.points]
    lines = [header]
    for w_row, *rows in zip(row_grid.points, *columns):
        prefix = serialize.format_float(w_row)
        cells = zip(col_points, *([serialize.format_float(v) for v in row.tolist()]
                                  for row in rows))
        lines.extend(f"{prefix},{','.join(cell)}" for cell in cells)
    return "\n".join(lines) + "\n"


def reference_jsa_json(signal, idler, re_text, im_text):
    """jsa.json around the given texts of its "re" and "im" arrays."""
    grid = {name: serialize.dump_json(serialize.grid_to_dict(g))[:-1]
            for name, g in (("signal", signal), ("idler", idler))}
    return (f'{{"idler_grid":{grid["idler"]},"im":{im_text},"re":{re_text},'
            f'"signal_grid":{grid["signal"]}}}\n')


def read(path):
    return path.read_bytes().decode("ascii")


def non_finite_grid(rows, cols, seed=3):
    """Complex (rows, cols) values with NaN, infinite and signed-zero cells."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    values[0, 1] = complex(np.nan, 0.5)
    values[1, 0] = complex(np.inf, -np.inf)
    values[rows - 1, cols - 1] = complex(-0.0, np.nan)
    values[2, 3] = complex(1e-310, -1e300)
    return values


def slot_texts(slots):
    """The text of each slot of ``slots``."""
    return [row.tobytes().rstrip(b"\0").replace(b"\0", b"").decode("ascii")
            for row in slots]


def kernel_slot(text):
    """The slot the kernel writes for a value of text ``text``: its head,
    decimals and exponent at bytes 0, 4 and 16, each part NUL-padded."""
    head, dot, tail = text.partition(".")
    return (head + dot).ljust(4, "\0") + tail[:12] + tail[12:].ljust(8, "\0")


def text_layout(texts):
    """The (head, exponent) text bytes that every slot of ``texts``
    shares, or None where they differ."""
    layouts = {(len(t.partition(".")[0]) + 1, len(t.partition(".")[2]) - 12)
               for t in texts}
    return layouts.pop() if len(layouts) == 1 else None


def kernel_texts(values):
    """The text of each slot the formatting kernel writes for ``values``,
    after checking each slot's bytes and the layout the kernel reports."""
    slots, layout = serialize._float_slots(values)
    texts = slot_texts(slots)
    assert [row.tobytes().decode("ascii") for row in slots] == list(map(kernel_slot, texts))
    if texts:
        assert layout == text_layout(texts)
    return texts


def finite(values):
    """The finite values of ``values``, the kernel's domain."""
    return values[np.isfinite(values)]


def percent_texts(values):
    return [serialize.FLOAT_FORMAT % v for v in np.asarray(values, dtype=float).ravel().tolist()]


def reference_json_fill(arr):
    """The template fill the JSON float-array writer used before the
    kernel: a nested template of FLOAT_FORMAT slots filled by one ``%``."""
    template = serialize.FLOAT_FORMAT
    for size in reversed(arr.shape):
        template = "[" + ",".join([template] * size) + "]"
    return template % tuple(arr.ravel().tolist())


def edge_floats():
    """Finite values at the kernel's decision boundaries: zeros, the extremes,
    both neighbours of every power of ten, mantissas one half unit above
    and below a 13-digit boundary, and exact binary ties."""
    values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
              np.finfo(float).max, -np.finfo(float).max, 1.0000000000005,
              9.9999999999995, 0.5, 2.0 ** -19, 1.9073486328125e-06]
    for k in range(-323, 309):
        power = float(f"1e{k}")
        values += [power, np.nextafter(power, 0.0), np.nextafter(power, np.inf),
                   float(f"9.9999999999995e{k}"), float(f"1.0000000000005e{k}"),
                   float(f"9.9999999999994999e{k}"), float(f"1.00000000000049999e{k}")]
    for k in range(0, 1075):
        tie = float(np.ldexp(0.5, -k))  # 2**-(k+1); its decimal digits end in 5
        values += [tie, 3.0 * tie, 5.0 * tie, 7.0 * tie, float(np.ldexp(1.0, k % 1024))]
    values = finite(np.array(values))  # 9.9999999999995e308 is inf
    return np.concatenate([values, -values])


class TestDumpJson:
    def test_sorted_keys_and_float_format(self):
        text = serialize.dump_json({"b": 1.5, "a": 2, "c": [True, None, "x"]})
        assert text == '{"a":2,"b":1.500000000000e+00,"c":[true,null,"x"]}\n'

    def test_numpy_scalars(self):
        text = serialize.dump_json({"x": np.float64(0.25), "n": np.int64(3)})
        assert text == '{"n":3,"x":2.500000000000e-01}\n'

    def test_unserializable_rejected(self):
        with pytest.raises(InvalidArgumentError):
            serialize.dump_json({"x": object()})

    def test_byte_stable(self):
        payload = {"values": list(np.linspace(0, 1, 7)), "name": "run"}
        assert serialize.dump_json(payload) == serialize.dump_json(payload)

    def test_zero_dimensional_arrays_render_as_scalars(self):
        text = serialize.dump_json({"x": np.array(1.0), "nan": np.array(np.nan),
                                    "inf": np.array(-np.inf), "n": np.array(3),
                                    "b": np.array(True)})
        assert text == '{"b":true,"inf":null,"n":3,"nan":null,"x":1.000000000000e+00}\n'

    def test_non_finite_array_entries_become_null(self):
        arr = np.array([[1.0, np.nan], [np.inf, -np.inf]])
        assert serialize.dump_json({"v": arr}) == \
            '{"v":[[1.000000000000e+00,null],[null,null]]}\n'

    def test_integer_and_bool_arrays(self):
        text = serialize.dump_json({"i": np.arange(3), "b": np.array([[True], [False]])})
        assert text == '{"b":[[true],[false]],"i":[0,1,2]}\n'

    def test_complex_arrays_rejected(self):
        for arr in (np.array([1j]), np.array(1 + 1j)):
            with pytest.raises(InvalidArgumentError):
                serialize.dump_json({"x": arr})

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.float64,
                      hnp.array_shapes(min_dims=0, max_dims=5, min_side=0, max_side=4),
                      elements=st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))))
    @example(np.array(SPECIAL_FLOATS))
    @example(np.zeros((2, 0, 3)))
    @example(np.zeros((0, 4)))
    @example(np.zeros((3, 0)))
    @example(np.array(-0.0))
    @example(np.array(2.5))
    @example(np.arange(24.0).reshape(2, 3, 4) - 11.5)
    @example(np.full((2, 1, 2, 1, 2), -1e-310))
    @example(np.array([[5e-324, -1e-300], [1e300, -1e300]]))
    @example(non_finite_grid(5, 8).imag.reshape(2, 4, 5))
    @example(np.nan_to_num(non_finite_grid(5, 8).imag.reshape(2, 4, 5), posinf=2.5,
                           neginf=-1e-310))
    def test_float_arrays_match_the_list_path(self, arr):
        text = serialize.dump_json(arr)
        assert text == serialize.dump_json(arr.tolist())
        if arr.size and np.isfinite(arr).all():
            assert text == reference_json_fill(arr) + "\n"


class TestFloatKernel:
    """The numpy formatting kernel against one ``%`` conversion per value."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              allow_subnormal=True), max_size=40))
    def test_matches_percent_on_floats(self, values):
        values = np.array(values, dtype=float)
        assert kernel_texts(values) == percent_texts(values)

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.uint64, st.integers(0, 40)))
    def test_matches_percent_on_bit_patterns(self, bits):
        values = finite(bits.view(np.float64))
        assert kernel_texts(values) == percent_texts(values)

    def test_matches_percent_on_edges(self):
        values = edge_floats()
        assert kernel_texts(values) == percent_texts(values)

    def test_matches_percent_on_random_patterns(self):
        rng = np.random.default_rng(11)
        bits = rng.integers(0, 2**64, size=100_000, dtype=np.uint64, endpoint=False)
        spread = rng.normal(size=50_000) * 10.0 ** rng.integers(-320, 300, 50_000)
        for values in (finite(bits.view(np.float64)), spread):
            assert kernel_texts(values) == percent_texts(values)

    @pytest.mark.parametrize("values", [
        np.zeros(70), np.full(70, -0.0),
        np.random.default_rng(4).normal(size=70) * 10.0 ** np.linspace(-300, 300, 70)],
        ids=["zeros", "negative-zeros", "zero-free"])
    def test_matches_percent_on_uniform_blocks(self, values):
        assert kernel_texts(values) == percent_texts(values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(MIXED_FLOATS),
                              st.floats(allow_nan=False, allow_infinity=False,
                                        allow_subnormal=True)), max_size=60))
    def test_matches_percent_on_mixed_blocks(self, values):
        values = np.array(values, dtype=float)
        assert kernel_texts(values) == percent_texts(values)

    def test_matches_percent_on_shuffled_classes(self):
        # zeros of both signs among every other class, in runs and alone,
        # so that a nonzero value written to the wrong slot shows
        rng = np.random.default_rng(13)
        values = np.concatenate([
            np.zeros(3000), np.full(500, -0.0), rng.uniform(-1, 1, 500) * 2.0 ** -1060,
            rng.normal(size=3000) * 10.0 ** rng.integers(-300, 300, 3000)])
        shuffled = rng.permutation(values)
        for block in (values, shuffled, shuffled[:1], shuffled[::7]):
            assert kernel_texts(block) == percent_texts(block)

    def test_exact_where_long_double_is_a_plain_double(self, monkeypatch):
        # float64 powers of ten (10**309 and above overflow) and the tie
        # window that a double's epsilon gives
        with np.errstate(over="ignore"):
            powers = np.array([f"1e{12 - e}" for e in
                               range(serialize._E_LO, serialize._E_HI + 1)]).astype(float)
        assert np.isinf(powers).any()
        monkeypatch.setattr(serialize, "_POW10", powers)
        monkeypatch.setattr(serialize, "_TIE_WINDOW", 4e13 * float(np.finfo(float).eps))
        rng = np.random.default_rng(11)
        bits = rng.integers(0, 2**64, size=100_000, dtype=np.uint64, endpoint=False)
        for values in (edge_floats(), finite(bits.view(np.float64))):
            assert kernel_texts(values) == percent_texts(values)

    def test_powers_of_ten_are_correctly_rounded(self):
        # the tie window assumes every scale factor is the nearest long double
        for e, power in zip(range(serialize._E_LO, serialize._E_HI + 1), serialize._POW10):
            exact = Fraction(10) ** (12 - e)
            error = abs(Fraction(*power.as_integer_ratio()) - exact)
            for neighbour in (np.nextafter(power, power * 2), np.nextafter(power, 0)):
                assert error <= abs(Fraction(*neighbour.as_integer_ratio()) - exact)


class TestSpectrumFormats:
    def test_csv_schema(self):
        text = serialize.spectrum_to_csv(sample_spectrum())
        lines = text.strip().splitlines()
        assert lines[0] == "omega_rad_per_fs,real,imag"
        assert len(lines) == 17

    def test_csv_matches_per_value_loop(self):
        grid = make_grid(1.223, 0.02, 7)
        spectrum = ComplexSpectrum(grid, non_finite_grid(7, 4)[:, 1])
        lines = ["omega_rad_per_fs,real,imag"]
        for w, a in zip(spectrum.grid.points, spectrum.amplitudes):
            lines.append(f"{serialize.format_float(w)},{serialize.format_float(a.real)},"
                         f"{serialize.format_float(a.imag)}")
        assert serialize.spectrum_to_csv(spectrum) == "\n".join(lines) + "\n"


class TestJsaFormats:
    def test_csv_has_four_columns_and_full_grid(self):
        jsa = sample_jsa(count=12)
        lines = serialize.jsa_to_csv(jsa).strip().splitlines()
        assert lines[0] == "omega_s,omega_i,real,imag"
        assert len(lines) == 1 + 12 * 12
        assert all(len(line.split(",")) == 4 for line in lines[1:])

    def test_jsi_drops_phase(self):
        lines = serialize.jsi_to_csv(sample_jsa()).strip().splitlines()
        assert lines[0] == "omega_s,omega_i,intensity"
        values = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(v >= 0 for v in values)


class TestGridCsvMatchesPerCellLoop:
    """The block-filled grid writers, and the files ``write_jsa`` and the
    mapping chunks write, against the per-cell loop they replaced, on a
    non-square grid holding signed zeros, subnormals and three-digit
    exponents, each |f|^2 finite as in a kernel."""

    signal = make_grid(1.223, 0.02, 5)
    idler = make_grid(1.220, 0.03, 8)
    values = np.nan_to_num(non_finite_grid(5, 8), nan=-0.0, posinf=1e150, neginf=-1e-310)
    values[2, 3] = complex(1e-310, -1e150)

    def test_jsa_and_jsi(self, tmp_path):
        jsa = unchecked(JointSpectralAmplitude, signal_grid=self.signal,
                        idler_grid=self.idler, amplitudes=self.values)
        expected_jsa = reference_grid_pair_csv(
            "omega_s,omega_i,real,imag", self.signal, self.idler,
            self.values.real, self.values.imag)
        assert first_difference(serialize.jsa_to_csv(jsa), expected_jsa) is None
        expected_jsi = reference_grid_pair_csv(
            "omega_s,omega_i,intensity", self.signal, self.idler, jsa.intensity())
        assert first_difference(serialize.jsi_to_csv(jsa), expected_jsi) is None
        serialize.write_jsa(jsa, tmp_path)
        assert first_difference(read(tmp_path / "jsa.csv"), expected_jsa) is None
        assert first_difference(read(tmp_path / "jsi.csv"), expected_jsi) is None
        assert first_difference(read(tmp_path / "jsa.json"), reference_jsa_json(
            self.signal, self.idler, serialize.dump_json(self.values.real.tolist())[:-1],
            serialize.dump_json(self.values.imag.tolist())[:-1])) is None

    def test_mapping(self, tmp_path):
        xi = unchecked(MappingFunction, signal_grid=self.signal,
                       idler_grid=self.idler, amplitudes=self.values)
        expected = reference_grid_pair_csv(
            "omega_in,omega_out,real,imag", self.signal, self.idler,
            self.values.real, self.values.imag)
        assert first_difference(serialize.mapping_to_csv(xi), expected) is None
        serialize.write_text(tmp_path / "mapping.csv", serialize.mapping_csv_chunks(xi))
        assert first_difference(read(tmp_path / "mapping.csv"), expected) is None

    @pytest.mark.parametrize("chunk", [1, 5, 7, 64])
    def test_chunks_that_split_the_grid(self, monkeypatch, tmp_path, chunk):
        monkeypatch.setattr(pdc, "_BLOCK", chunk)
        self.test_jsa_and_jsi(tmp_path)
        self.test_mapping(tmp_path)

    @pytest.mark.parametrize("chunk", [7, 1000, pdc._BLOCK])
    def test_real_grid_with_flushed_corners(self, monkeypatch, tmp_path, chunk):
        # preset b's amplitude: im is zero everywhere, and build_jsa
        # flushes about a quarter of re to +0, in the two corners off its
        # anti-diagonal ridge
        monkeypatch.setattr(pdc, "_BLOCK", chunk)
        jsa = presets.build_state(presets.merge_overrides(
            presets.preset_config("b"), {"grid": {"count": 40}}))
        re, im = jsa.amplitudes.real, jsa.amplitudes.imag
        assert not im.any() and 0.1 < np.mean(re == 0) < 0.5
        assert re[0, 0] == re[-1, -1] == 0 and re[0, -1] != 0
        serialize.write_jsa(jsa, tmp_path)
        assert first_difference(read(tmp_path / "jsa.csv"), reference_grid_pair_csv(
            "omega_s,omega_i,real,imag", jsa.signal_grid, jsa.idler_grid, re, im)) is None
        assert first_difference(read(tmp_path / "jsi.csv"), reference_grid_pair_csv(
            "omega_s,omega_i,intensity", jsa.signal_grid, jsa.idler_grid,
            np.abs(jsa.amplitudes) ** 2)) is None
        assert first_difference(read(tmp_path / "jsa.json"), reference_jsa_json(
            jsa.signal_grid, jsa.idler_grid, reference_json_fill(re),
            reference_json_fill(im))) is None
        xi = MappingFunction(jsa.signal_grid, jsa.idler_grid, jsa.amplitudes)
        serialize.write_text(tmp_path / "mapping.csv", serialize.mapping_csv_chunks(xi))
        assert first_difference(read(tmp_path / "mapping.csv"), reference_grid_pair_csv(
            "omega_in,omega_out,real,imag", jsa.signal_grid, jsa.idler_grid, re, im)) is None

    def test_grid_larger_than_a_chunk(self, tmp_path):
        # 181 x 191 lines of 4 fields: neither a multiple of the chunk nor
        # of the line length
        signal, idler = make_grid(1.223, 0.02, 181), make_grid(1.220, 0.03, 191)
        rng = np.random.default_rng(5)
        values = rng.normal(size=(181, 191)) + 1j * rng.normal(size=(181, 191))
        jsa = unchecked(JointSpectralAmplitude, signal_grid=signal,
                        idler_grid=idler, amplitudes=values)
        expected = reference_grid_pair_csv(
            "omega_s,omega_i,real,imag", signal, idler, values.real, values.imag)
        assert first_difference(serialize.jsa_to_csv(jsa), expected) is None
        serialize.write_jsa(jsa, tmp_path)
        assert first_difference(read(tmp_path / "jsa.csv"), expected) is None
        assert first_difference(read(tmp_path / "jsi.csv"), reference_grid_pair_csv(
            "omega_s,omega_i,intensity", signal, idler, np.abs(values) ** 2)) is None
        assert first_difference(read(tmp_path / "jsa.json"), reference_jsa_json(
            signal, idler, reference_json_fill(values.real),
            reference_json_fill(values.imag))) is None
        xi = unchecked(MappingFunction, signal_grid=signal, idler_grid=idler,
                       amplitudes=values)
        serialize.write_text(tmp_path / "mapping.csv", serialize.mapping_csv_chunks(xi))
        assert first_difference(read(tmp_path / "mapping.csv"), reference_grid_pair_csv(
            "omega_in,omega_out,real,imag", signal, idler, values.real, values.imag)) is None


def long_then_zero_grid(rows, cols, long_rows, seed=11):
    """Complex (rows, cols) values whose first ``long_rows`` rows hold the
    longest texts, negative parts with 3-digit exponents, and whose other
    rows are all zeros."""
    rng = np.random.default_rng(seed)
    size = (long_rows, cols)
    values = np.zeros((rows, cols), complex)
    values.real[:long_rows] = -rng.uniform(1, 10, size) * 10.0 ** -rng.integers(100, 150, size)
    values.imag[:long_rows] = -rng.uniform(1, 10, size) * 10.0 ** rng.integers(100, 150, size)
    return values


def first_difference(text, expected):
    """None where ``text == expected``, else where they first differ and
    both texts around it: a short report where pytest would diff whole
    grid files."""
    if text == expected:
        return None
    at = len(os.path.commonprefix([text, expected]))
    return at, text[max(0, at - 40):at + 40], expected[max(0, at - 40):at + 40]


def assert_grid_files(tmp_path, signal, idler, values):
    """``write_jsa`` and the mapping chunks of ``values`` on the grids
    against the per-cell loop."""
    jsa = unchecked(JointSpectralAmplitude, signal_grid=signal, idler_grid=idler,
                    amplitudes=values)
    serialize.write_jsa(jsa, tmp_path)
    intensity = np.abs(values) ** 2
    assert first_difference(read(tmp_path / "jsa.csv"), reference_grid_pair_csv(
        "omega_s,omega_i,real,imag", signal, idler, values.real, values.imag)) is None
    assert first_difference(read(tmp_path / "jsi.csv"), reference_grid_pair_csv(
        "omega_s,omega_i,intensity", signal, idler, intensity)) is None
    assert first_difference(read(tmp_path / "jsa.json"), reference_jsa_json(
        signal, idler, serialize.dump_json(values.real.tolist())[:-1],
        serialize.dump_json(values.imag.tolist())[:-1])) is None
    xi = unchecked(MappingFunction, signal_grid=signal, idler_grid=idler,
                   amplitudes=values)
    serialize.write_text(tmp_path / "mapping.csv", serialize.mapping_csv_chunks(xi))
    assert first_difference(read(tmp_path / "mapping.csv"), reference_grid_pair_csv(
        "omega_in,omega_out,real,imag", signal, idler, values.real, values.imag)) is None


class TestReusedLineBuffers:
    """The grid writers lay out every block of rows in one reused line
    buffer, from one reused slot array per column, so no text of an
    earlier block may show in a later or shorter one."""

    @pytest.mark.parametrize("chunk", [1, 7, 64, pdc._BLOCK])
    def test_long_texts_then_zeros(self, monkeypatch, tmp_path, chunk):
        # 5 columns: 1, 1, 3 and 1638 rows per block, the last one short
        # at 64 and at the default
        monkeypatch.setattr(pdc, "_BLOCK", chunk)
        signal, idler = make_grid(1.223, 0.02, 3500), make_grid(1.220, 0.03, 5)
        values = long_then_zero_grid(3500, 5, long_rows=1700)
        blocks = pdc._row_blocks(values.shape[0], values.shape[1] * 4)
        assert values[blocks[-1].start:].any() == (len(blocks) == 1)
        assert_grid_files(tmp_path, signal, idler, values)
        text = read(tmp_path / "jsa.csv")
        assert "-9." in text and "e-1" in text

    @pytest.mark.parametrize("chunk", [1, 64, pdc._BLOCK])
    def test_frequencies_straddling_zero(self, monkeypatch, tmp_path, chunk):
        # "-5.000000000000e-01," is one byte longer than "5.000000000000e-01,"
        monkeypatch.setattr(pdc, "_BLOCK", chunk)
        signal = FrequencyGrid(center=0.0, spacing=0.5, count=7)
        idler = FrequencyGrid(center=0.05, spacing=0.1, count=6)
        rng = np.random.default_rng(2)
        values = rng.normal(size=(7, 6)) + 1j * rng.normal(size=(7, 6))
        values /= np.sqrt(np.vdot(values, values).real * signal.spacing * idler.spacing)
        jsa = JointSpectralAmplitude(signal, idler, values)
        for grid in (signal, idler):
            assert len({len(serialize.format_float(w)) for w in grid.points}) == 2
        assert_grid_files(tmp_path, signal, idler, jsa.amplitudes)
        lines = read(tmp_path / "jsa.csv").splitlines()
        assert lines[1].startswith("-1.500000000000e+00,-2.000000000000e-01,")
        assert lines[-1].startswith("1.500000000000e+00,3.000000000000e-01,")
        # the narrowest grid: one comma in a JSON row, and "]]" closing each
        # array on its last row, which at chunk 1 is a block of its own
        signal = FrequencyGrid(center=0.0, spacing=0.5, count=2)
        idler = FrequencyGrid(center=-0.05, spacing=0.2, count=2)
        for grid in (signal, idler):
            assert len({len(serialize.format_float(w)) for w in grid.points}) == 2
        values = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert_grid_files(tmp_path, signal, idler, values)


# a 13-digit mantissa this close to a rounding tie is left to %
WIDE_TIE = 1.4226872211975e-150


def pattern_row(pattern, cols, rng):
    """One grid row of ``cols`` values of a text pattern: one sign with
    two-digit exponents (positive, negative), three-digit exponents
    (wide), either sign (mixed), both exponent widths (widths), zeros of
    either sign, or a rounding tie that ``%`` converts among one-signed
    values of its exponent width (tie, negative-tie, wide-tie).  Each
    |v|^2 is finite, as in a kernel."""
    values = rng.uniform(1.0, 10.0, cols) * 10.0 ** rng.integers(-98, 99, cols)
    if pattern == "negative":
        values = -values
    elif pattern == "wide":
        values = rng.uniform(1.0, 10.0, cols) * 10.0 ** rng.choice(
            np.r_[-299:-99, 100:153], cols)
    elif pattern == "mixed":
        values *= rng.choice([-1.0, 1.0], cols)
    elif pattern == "widths":
        values[rng.integers(cols)] = rng.choice([1e-150, WIDE_TIE])
    elif pattern == "zeros":
        values[:] = 0.0
    elif pattern == "negative-zeros":
        values[:] = -0.0
    elif pattern in ("tie", "negative-tie"):
        values[rng.integers(cols)] = 2.0 ** -19  # 1.9073486328125e-06
        values *= -1.0 if pattern == "negative-tie" else 1.0
    elif pattern == "wide-tie":
        values = rng.uniform(1.0, 10.0, cols) * 10.0 ** -rng.integers(100, 300, cols)
        values[rng.integers(cols)] = WIDE_TIE
    return values


ROW_PATTERNS = ("positive", "negative", "wide", "mixed", "widths", "zeros",
                "negative-zeros", "tie", "negative-tie", "wide-tie")


@st.composite
def patterned_grids(draw):
    """Grids of 2-6 x 2-5 complex values whose real and imaginary parts
    take a pattern of ``pattern_row`` per grid row, on frequency axes that
    straddle zero, so that their texts are padded, or stay positive."""
    rows, cols = draw(st.integers(2, 6)), draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.empty((rows, cols), complex)
    for part in (values.real, values.imag):
        for row in part:
            row[:] = pattern_row(draw(st.sampled_from(ROW_PATTERNS)), cols, rng)
    center = 0.0 if draw(st.booleans()) else 1.223
    return (FrequencyGrid(center=center, spacing=0.5, count=rows),
            FrequencyGrid(center=center, spacing=0.25, count=cols), values)


def predicted_drops(signal, idler, values):
    """How many blocks of ``write_jsa``'s files keep the NUL drop: those
    whose frequency texts are padded, or one of whose columns mixes text
    layouts (by ``%``'s texts); jsa.json's blocks go one array at a time.
    mapping.csv's blocks are jsa.csv's."""
    count, cols = values.shape
    padded = any(len({len(serialize.format_float(w)) for w in grid.points}) > 1
                 for grid in (signal, idler))
    intensity = np.abs(values) ** 2

    def mixed(*parts):
        return any(text_layout(percent_texts(part)) is None for part in parts)

    drops = {"jsa.csv": 0, "jsi.csv": 0, "jsa.json": 0}
    for rows in pdc._row_blocks(count, cols * 4):
        re, im = values.real[rows], values.imag[rows]
        drops["jsa.csv"] += padded or mixed(re, im)
        drops["jsi.csv"] += padded or mixed(intensity[rows])
        drops["jsa.json"] += mixed(re) + mixed(im)
    return drops


def counted_drops(write) -> int:
    """How many times ``write()`` drops NULs from a line buffer."""
    calls, nul_free = [], serialize._nul_free
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(serialize, "_nul_free",
                      lambda *args: calls.append(None) or nul_free(*args))
        write()
    return len(calls)


class TestFixedWidthBlocks:
    """A block whose columns' values each share one text layout, on axes
    whose frequency texts have one length, is laid out at its exact width
    and skips the NUL drop; every other block keeps it.  Both give the
    bytes of the per-cell loop."""

    @pytest.mark.parametrize("block", [1, 64, 32768])
    @settings(max_examples=150, deadline=None)
    @given(grid=patterned_grids())
    @example(grid=(FrequencyGrid(center=1.223, spacing=0.5, count=3),
                   FrequencyGrid(center=1.223, spacing=0.25, count=2),
                   np.array([[2.0**-19, 1.5], [-0.0, -2.0], [1e-150, 3e150]]) + 0j))
    def test_grid_files_match_reference(self, block, grid):
        signal, idler, values = grid
        with pytest.MonkeyPatch.context() as monkeypatch, \
                tempfile.TemporaryDirectory() as directory:
            monkeypatch.setattr(pdc, "_BLOCK", block)
            out = Path(directory)
            jsa = unchecked(JointSpectralAmplitude, signal_grid=signal, idler_grid=idler,
                            amplitudes=values)
            xi = unchecked(MappingFunction, signal_grid=signal, idler_grid=idler,
                           amplitudes=values)
            drops = counted_drops(lambda: serialize.write_jsa(jsa, out))
            intensity = np.abs(values) ** 2
            mapping_drops = counted_drops(lambda: serialize.write_text(
                out / "mapping.csv", serialize.mapping_csv_chunks(xi)))
            expected = predicted_drops(signal, idler, values)
            assert drops == sum(expected.values())
            assert mapping_drops == expected["jsa.csv"]
            assert first_difference(read(out / "jsa.csv"), reference_grid_pair_csv(
                "omega_s,omega_i,real,imag", signal, idler, values.real,
                values.imag)) is None
            assert first_difference(read(out / "jsi.csv"), reference_grid_pair_csv(
                "omega_s,omega_i,intensity", signal, idler, intensity)) is None
            assert first_difference(read(out / "jsa.json"), reference_jsa_json(
                signal, idler, serialize.dump_json(values.real.tolist())[:-1],
                serialize.dump_json(values.imag.tolist())[:-1])) is None
            assert first_difference(read(out / "mapping.csv"), reference_grid_pair_csv(
                "omega_in,omega_out,real,imag", signal, idler, values.real,
                values.imag)) is None

    def test_ties_are_left_to_percent(self):
        for tie in (2.0 ** -19, -2.0 ** -19, WIDE_TIE):
            assert serialize._mantissas(np.array([tie]))[2].size == 1

    def test_preset_a_and_gate_mapping_skip_the_drop(self, tmp_path):
        # preset a: every block of jsa.csv and jsa.json, and 28 of jsi.csv's
        # 32, whose other 4 mix two- and three-digit exponents in the tails;
        # the gate mapping: every block, its rounding ties included
        jsa = presets.build_state(presets.preset_config("a"))
        assert predicted_drops(jsa.signal_grid, jsa.idler_grid, jsa.amplitudes) == {
            "jsa.csv": 0, "jsi.csv": 4, "jsa.json": 0}
        assert counted_drops(lambda: serialize.write_jsa(jsa, tmp_path)) == 4
        xi = build_mapping(*GateSpec().inputs())
        re = xi.amplitudes.real
        assert serialize._mantissas(re[re != 0])[2].size  # ties left to %
        assert counted_drops(lambda: serialize.write_text(
            tmp_path / "mapping.csv", serialize.mapping_csv_chunks(xi))) == 0
        assert len(pdc._row_blocks(512, 512 * 4)) == 32


def traced_peak(write) -> int:
    """The peak of memory traced while ``write()`` runs, in bytes."""
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def failing_on_second_block(monkeypatch, error, calls_per_block, directory, seen):
    """Make ``_float_slots`` raise ``error`` when the second block of grid
    rows is formatted, after listing ``directory`` into ``seen``."""
    real, blocks = serialize._float_slots, []

    def slots(values, out=None):
        if np.ndim(values) == 2:  # grid rows, not grid points
            blocks.append(None)
            if len(blocks) > calls_per_block:
                seen.extend(sorted(p.name for p in directory.iterdir()))
                raise error
        return real(values, out)

    monkeypatch.setattr(pdc, "_BLOCK", 64)
    monkeypatch.setattr(serialize, "_float_slots", slots)


class TestStreamedWrites:
    """Grid artifacts go to disk block by block, through a temporary file
    that becomes the artifact only once it is whole."""

    MAX_PEAK = 16 * 2**20  # the whole-string writers peaked at 42 MiB

    def test_failed_write_jsa_leaves_no_file(self, monkeypatch, tmp_path):
        (tmp_path / "jsa.csv").write_text("previous run")
        seen = []
        failing_on_second_block(monkeypatch, RuntimeError("kernel"), 3, tmp_path, seen)
        with pytest.raises(RuntimeError, match="kernel"):
            serialize.write_jsa(sample_jsa(count=12), tmp_path)
        # the three files were open as temporaries beside the old artifact
        assert len(seen) == 4 and all(name.endswith(".tmp") for name in seen[:3])
        assert [p.name for p in tmp_path.iterdir()] == ["jsa.csv"]
        assert (tmp_path / "jsa.csv").read_text() == "previous run"

    @pytest.mark.parametrize("command, calls_per_block", [
        (["jsa", "--grid-count", "16"], 3), (["qpg", "map", "--count", "16"], 2)])
    def test_os_error_mid_write_exits_4(self, monkeypatch, tmp_path, command,
                                        calls_per_block):
        seen = []
        failing_on_second_block(monkeypatch, OSError("disk full"), calls_per_block,
                                tmp_path, seen)
        assert main([*command, "--out", str(tmp_path)]) == 4
        assert seen and all(name.endswith(".tmp") for name in seen)
        assert list(tmp_path.iterdir()) == []

    def test_write_jsa_peak_memory(self, tmp_path):
        jsa = presets.build_state(presets.preset_config("b"))
        assert jsa.amplitudes.shape == (512, 512)
        peak = traced_peak(lambda: serialize.write_jsa(jsa, tmp_path))
        assert peak <= self.MAX_PEAK
        assert first_difference(read(tmp_path / "jsa.csv"), serialize.jsa_to_csv(jsa)) is None

    def test_mapping_csv_peak_memory(self, monkeypatch, tmp_path):
        mappings = []

        def keep(*args, **kwargs):
            mappings.append(build_mapping(*args, **kwargs))
            return mappings[-1]

        monkeypatch.setattr(cli, "build_mapping", keep)
        assert main(["qpg", "map", "--count", "512", "--out", str(tmp_path)]) == 0
        (xi,) = mappings
        again = tmp_path / "again.csv"
        peak = traced_peak(lambda: serialize.write_text(again,
                                                        serialize.mapping_csv_chunks(xi)))
        assert peak <= self.MAX_PEAK
        assert first_difference(read(again), read(tmp_path / "mapping.csv")) is None


class TestChirpScanCsv:
    columns = ["chirp_fs2", "analytic_purity", "svd_purity", "g2",
               "g2_background_mixed"]

    def reference(self, rows):
        lines = [",".join(self.columns)]
        for row in rows:
            lines.append(",".join(serialize.format_float(row[c]) for c in self.columns))
        return "\n".join(lines) + "\n"

    def test_matches_per_value_loop(self):
        rows = [dict(zip(self.columns, SPECIAL_FLOATS[i:i + 5]))
                for i in range(len(SPECIAL_FLOATS) - 4)]
        rows.append(dict(zip(self.columns, [0, 1, 2.5, 3.8e5, 2])))
        assert presets.chirp_scan_csv(rows) == self.reference(rows)

    def test_no_rows(self):
        assert presets.chirp_scan_csv([]) == self.reference([]) == \
            ",".join(self.columns) + "\n"

    def test_float_rows_match_percent(self):
        rows = non_finite_grid(5, 8).real[:, :3]
        assert serialize.float_rows_to_csv("a,b,c", rows) == "a,b,c\n" + "".join(
            ",".join(percent_texts(row)) + "\n" for row in rows)


class TestDensityFormats:
    def test_schema(self):
        data = json.loads(serialize.dump_json(
            serialize.density_to_dict(sample_density())))
        assert set(data) == {"d", "re", "im", "leakage"}
        assert data["d"] == 3

    def test_round_trip(self):
        rho = sample_density()
        data = json.loads(serialize.dump_json(serialize.density_to_dict(rho)))
        back = serialize.density_from_dict(data)
        np.testing.assert_allclose(back.entries, rho.entries, atol=1e-11)
        assert back.leakage == pytest.approx(rho.leakage, rel=1e-11)


class TestCountRecordFormats:
    def test_csv_round_trip(self):
        records = [CountRecord(0, 1, 42, 1.0), CountRecord(3, 2, 0, 0.5)]
        text = serialize.count_records_to_csv(records)
        back = serialize.count_records_from_csv(text)
        assert [(r.basis_index, r.element_index, r.counts, r.exposure)
                for r in back] == \
               [(r.basis_index, r.element_index, r.counts, r.exposure)
                for r in records]

    def test_bad_header_rejected(self):
        with pytest.raises(InvalidArgumentError):
            serialize.count_records_from_csv("a,b,c,d\n1,2,3,4\n")

    @pytest.mark.parametrize("text", ["", "\n \n"])
    def test_empty_file_rejected(self, text):
        with pytest.raises(InvalidArgumentError, match="header"):
            serialize.count_records_from_csv(text)

    @pytest.mark.parametrize("line, message", [
        ("0,0,5", "expected 4 fields, got 3"),
        ("0,0,5,1,2", "expected 4 fields, got 5"),
        ("0,0,x,1.0", "invalid literal"),
        ("0,0,5,abc", "could not convert"),
        ("0,0,-5,1.0", "non-negative"),
    ])
    def test_malformed_line_named(self, line, message):
        text = f"basis_index,element_index,counts,exposure\n\n0,1,4,1.0\n{line}\n"
        with pytest.raises(InvalidArgumentError, match=f"line 4: .*{message}"):
            serialize.count_records_from_csv(text)


class TestSerializeBenchmarks:
    """Timings of the JSA and mapping writers on a 256 x 256 grid, one of
    them on a real mapping function, of ``write_jsa`` on preset a, whose
    blocks skip the NUL drop, and on preset b, whose blocks mostly keep
    it, and of the formatting kernel against one ``%`` per value on
    512 x 512 values; pytest-benchmark prints them with
    ``pytest --benchmark-only -k serialize``."""

    jsa = sample_jsa(count=256)

    def test_jsa_json(self, benchmark, tmp_path):
        benchmark.pedantic(serialize.write_jsa, args=(self.jsa, tmp_path),
                           rounds=3, iterations=1)
        assert len(json.loads(read(tmp_path / "jsa.json"))["re"]) == 256

    def test_jsa_csv(self, benchmark):
        text = benchmark.pedantic(serialize.jsa_to_csv, args=(self.jsa,),
                                  rounds=3, iterations=1)
        assert text.count("\n") == 1 + 256 * 256

    def test_jsi_csv(self, benchmark):
        text = benchmark.pedantic(serialize.jsi_to_csv, args=(self.jsa,),
                                  rounds=3, iterations=1)
        assert text.count("\n") == 1 + 256 * 256

    def test_mapping_csv(self, benchmark):
        xi = MappingFunction(self.jsa.signal_grid, self.jsa.idler_grid,
                             self.jsa.amplitudes)
        text = benchmark.pedantic(serialize.mapping_to_csv, args=(xi,),
                                  rounds=3, iterations=1)
        assert text.count("\n") == 1 + 256 * 256

    def test_real_mapping_csv(self, benchmark):
        # build_mapping's product is real, so half the fields, every imag
        # one, are zeros that the kernel takes from its template
        input_grid, output_grid = make_grid(1.223, 0.05, 256), make_grid(2.4, 0.05, 256)
        xi = build_mapping(HermiteGaussParams(0, 2.4 - 1.223, 0.01),
                           HermiteGaussParams(0, 2.4, 0.01), input_grid, output_grid)
        assert not xi.amplitudes.imag.any()
        text = benchmark.pedantic(lambda: b"".join(
            [bytes(chunk) for chunk in serialize.mapping_csv_chunks(xi)]),
            rounds=3, iterations=1)
        assert text.decode("ascii") == serialize.mapping_to_csv(xi)
        assert text.count(b"\n") == 1 + 256 * 256

    @pytest.mark.parametrize("case", ["a", "b"], ids=["a-exact-width", "b-nul-drop"])
    def test_write_jsa_preset(self, benchmark, tmp_path, case):
        # preset a's blocks are laid out at their exact width, all but 4 of
        # jsi.csv's; preset b's mixed-sign real parts and intensities keep
        # the NUL drop, and only its zero "im" array skips it
        jsa = presets.build_state(presets.preset_config(case))
        benchmark.pedantic(serialize.write_jsa, args=(jsa, tmp_path),
                           rounds=3, iterations=1)
        drops = counted_drops(lambda: serialize.write_jsa(jsa, tmp_path))
        assert drops == {"a": 4, "b": 96}[case]

    def test_kernel_against_percent_512(self, benchmark):
        values = sample_jsa(count=512).amplitudes.real
        start = time.perf_counter()
        reference = percent_texts(values)
        benchmark.extra_info["percent_s"] = time.perf_counter() - start
        slots, _ = benchmark.pedantic(serialize._float_slots, args=(values,),
                                      rounds=1, iterations=1)
        assert first_difference("\n".join(slot_texts(slots)), "\n".join(reference)) is None
