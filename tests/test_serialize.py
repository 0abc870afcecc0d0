import json

import numpy as np
import pytest

from tmsim import (
    CountRecord,
    HermiteGaussParams,
    InvalidArgumentError,
    JointSpectralAmplitude,
    ModalDensityMatrix,
    hg_mode,
    make_grid,
)
from tmsim import serialize


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


class TestSpectrumFormats:
    def test_csv_schema(self):
        text = serialize.spectrum_to_csv(sample_spectrum())
        lines = text.strip().splitlines()
        assert lines[0] == "omega_rad_per_fs,real,imag"
        assert len(lines) == 17

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
