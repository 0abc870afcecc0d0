import json
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from tmsim import (
    ComplexSpectrum,
    CountRecord,
    HermiteGaussParams,
    InvalidArgumentError,
    JointSpectralAmplitude,
    MappingFunction,
    ModalDensityMatrix,
    hg_mode,
    make_grid,
)
from tmsim import presets, serialize

SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, 1e-300, -1e-300,
                  np.nan, np.inf, -np.inf]


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
    constructor's checks, so writers can be fed non-finite values."""
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


def non_finite_grid(rows, cols, seed=3):
    """Complex (rows, cols) values with NaN, infinite and signed-zero cells."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    values[0, 1] = complex(np.nan, 0.5)
    values[1, 0] = complex(np.inf, -np.inf)
    values[rows - 1, cols - 1] = complex(-0.0, np.nan)
    values[2, 3] = complex(1e-310, -1e300)
    return values


def kernel_texts(values):
    """The text of each slot the formatting kernel writes for ``values``."""
    return [row.tobytes().rstrip(b"\0").replace(b"\0", b"").decode("ascii")
            for row in serialize._float_slots(values)]


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
    """Values at the kernel's decision boundaries: zeros, the extremes,
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
    values = np.array(values)
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
    def test_float_arrays_match_the_list_path(self, arr):
        text = serialize.dump_json(arr)
        assert text == serialize.dump_json(arr.tolist())
        if arr.size and np.isfinite(arr).all():
            assert text == reference_json_fill(arr) + "\n"


class TestFloatKernel:
    """The numpy formatting kernel against one ``%`` conversion per value."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                              allow_subnormal=True), max_size=40))
    def test_matches_percent_on_floats(self, values):
        values = np.array(values, dtype=float)
        assert kernel_texts(values) == percent_texts(values)

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.uint64, st.integers(0, 40)))
    def test_matches_percent_on_bit_patterns(self, bits):
        values = bits.view(np.float64)
        assert kernel_texts(values) == percent_texts(values)

    def test_matches_percent_on_edges(self):
        values = edge_floats()
        assert kernel_texts(values) == percent_texts(values)

    def test_matches_percent_on_random_patterns(self):
        rng = np.random.default_rng(11)
        bits = rng.integers(0, 2**64, size=100_000, dtype=np.uint64, endpoint=False)
        spread = rng.normal(size=50_000) * 10.0 ** rng.integers(-320, 300, 50_000)
        for values in (bits.view(np.float64), spread):
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
    """The block-filled grid writers against the per-cell loop they
    replaced, on a non-square grid holding NaN and infinite cells."""

    signal = make_grid(1.223, 0.02, 5)
    idler = make_grid(1.220, 0.03, 8)
    values = non_finite_grid(5, 8)

    def test_jsa_and_jsi(self):
        jsa = unchecked(JointSpectralAmplitude, signal_grid=self.signal,
                        idler_grid=self.idler, amplitudes=self.values)
        assert serialize.jsa_to_csv(jsa) == reference_grid_pair_csv(
            "omega_s,omega_i,real,imag", self.signal, self.idler,
            self.values.real, self.values.imag)
        with np.errstate(invalid="ignore", over="ignore"):
            intensity = jsa.intensity()
            assert serialize.jsi_to_csv(jsa) == reference_grid_pair_csv(
                "omega_s,omega_i,intensity", self.signal, self.idler, intensity)
        assert np.isnan(intensity).any() and np.isinf(intensity).any()

    def test_mapping(self):
        xi = unchecked(MappingFunction, input_grid=self.signal,
                       output_grid=self.idler, values=self.values)
        assert serialize.mapping_to_csv(xi) == reference_grid_pair_csv(
            "omega_in,omega_out,real,imag", self.signal, self.idler,
            self.values.real, self.values.imag)

    @pytest.mark.parametrize("chunk", [1, 5, 7, 64])
    def test_chunks_that_split_the_grid(self, monkeypatch, chunk):
        monkeypatch.setattr(serialize, "_CHUNK", chunk)
        self.test_jsa_and_jsi()
        self.test_mapping()
        rows = self.values.real[:, :3]
        assert serialize.float_rows_to_csv("a,b,c", rows) == "a,b,c\n" + "".join(
            ",".join(percent_texts(row)) + "\n" for row in rows)
        arr = np.nan_to_num(self.values.imag.reshape(2, 4, 5), posinf=2.5, neginf=-1e-310)
        assert serialize.dump_json(arr) == reference_json_fill(arr) + "\n"

    def test_grid_larger_than_a_chunk(self):
        # 181 x 191 lines of 4 fields: neither a multiple of the chunk nor
        # of the line length
        signal, idler = make_grid(1.223, 0.02, 181), make_grid(1.220, 0.03, 191)
        rng = np.random.default_rng(5)
        values = rng.normal(size=(181, 191)) + 1j * rng.normal(size=(181, 191))
        jsa = unchecked(JointSpectralAmplitude, signal_grid=signal,
                        idler_grid=idler, amplitudes=values)
        assert serialize.jsa_to_csv(jsa) == reference_grid_pair_csv(
            "omega_s,omega_i,real,imag", signal, idler, values.real, values.imag)


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
    """Timings of the JSA and mapping writers on a 256 x 256 grid, and of
    the formatting kernel against one ``%`` call on 512 x 512 values;
    pytest-benchmark prints them with ``pytest --benchmark-only -k serialize``."""

    jsa = sample_jsa(count=256)

    def test_jsa_json(self, benchmark):
        text = benchmark.pedantic(
            lambda: serialize.dump_json(serialize.jsa_to_dict(self.jsa)),
            rounds=3, iterations=1)
        assert len(json.loads(text)["re"]) == 256

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

    def test_kernel_against_percent_512(self, benchmark):
        values = sample_jsa(count=512).amplitudes.real
        start = time.perf_counter()
        reference = "v" + ("\n" + serialize.FLOAT_FORMAT) * values.size % tuple(
            values.ravel().tolist()) + "\n"
        benchmark.extra_info["percent_s"] = time.perf_counter() - start
        text = benchmark.pedantic(serialize.float_rows_to_csv,
                                  args=("v", values.reshape(-1, 1)),
                                  rounds=1, iterations=1)
        assert text == reference
