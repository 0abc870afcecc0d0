import json

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
                      hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
                      elements=st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))))
    @example(np.array(SPECIAL_FLOATS))
    @example(np.zeros((2, 0, 3)))
    @example(np.zeros((0, 4)))
    @example(np.array(-0.0))
    @example(np.array([[5e-324, -1e-300], [1e300, -1e300]]))
    def test_float_arrays_match_the_list_path(self, arr):
        assert serialize.dump_json(arr) == serialize.dump_json(arr.tolist())


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

    def test_json_round_trip(self):
        # %.12e keeps 13 significant digits; round trips to that precision
        spectrum = sample_spectrum()
        data = json.loads(serialize.dump_json(serialize.spectrum_to_dict(spectrum)))
        back = serialize.spectrum_from_dict(data)
        assert back.grid.count == spectrum.grid.count
        assert back.grid.center == pytest.approx(spectrum.grid.center, rel=1e-12)
        assert back.grid.spacing == pytest.approx(spectrum.grid.spacing, rel=1e-12)
        np.testing.assert_allclose(back.amplitudes, spectrum.amplitudes, rtol=1e-11)


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


class TestSerializeBenchmarks:
    """Timings of the JSA writers on a 256 x 256 grid; pytest-benchmark
    prints them with ``pytest --benchmark-only -k serialize``."""

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
