import numpy as np
import pytest
from hypothesis import given, strategies as st

from tmsim import (
    ChirpPhase,
    ComplexSpectrum,
    FrequencyGrid,
    HermiteGaussParams,
    InvalidArgumentError,
    UnsupportedOrderError,
    apply_chirp,
    convert_bandwidth,
    hg_mode,
    make_grid,
)
from tmsim.spectral import (FWHM_PER_SIGMA, SPEED_OF_LIGHT_M_PER_S, amplitude_width,
                            omega_to_wavelength, wavelength_to_omega)


class TestMakeGrid:
    def test_uniform_points(self):
        grid = make_grid(center=1.223, span=0.04, count=5)
        np.testing.assert_allclose(grid.points,
                                   [1.203, 1.213, 1.223, 1.233, 1.243],
                                   atol=1e-15)

    def test_two_point_endpoints(self):
        grid = make_grid(center=0.0, span=2.0, count=2)
        np.testing.assert_allclose(grid.points, [-1.0, 1.0], atol=0)

    def test_negative_span_rejected(self):
        with pytest.raises(InvalidArgumentError):
            make_grid(center=1.0, span=-1.0, count=8)

    def test_single_point_rejected(self):
        with pytest.raises(InvalidArgumentError):
            make_grid(center=1.0, span=1.0, count=1)

    @pytest.mark.parametrize("center,spacing,count,message", [
        (float("nan"), 0.02, 16, "grid center must be finite"),
        (float("inf"), 0.02, 16, "grid center must be finite"),
        (1.2, 0.0, 16, "grid spacing must be positive, got 0.0"),
        (1.2, -0.02, 16, "grid spacing must be positive, got -0.02"),
        (1.2, float("inf"), 16, "grid spacing must be positive, got inf"),
        (1.2, float("nan"), 16, "grid spacing must be positive, got nan"),
        (1.2, 0.02, 2.7, "grid needs an integer count >= 2, got 2.7"),
        (1.2, 0.02, 1, "grid needs an integer count >= 2, got 1"),
    ])
    def test_grid_fields_checked(self, center, spacing, count, message):
        with pytest.raises(InvalidArgumentError, match=message):
            FrequencyGrid(center=center, spacing=spacing, count=count)

    def test_integral_count_stored_as_int(self):
        grid = FrequencyGrid(center=1.2, spacing=0.02, count=16.0)
        assert type(grid.count) is int and grid.count == 16
        assert grid.points.shape == (16,)


def _mode(order, width=1.0, center=0.0, count=512, halfspan_sigmas=None):
    if halfspan_sigmas is None:
        halfspan_sigmas = 6.0 * np.sqrt(7.0)
    grid = make_grid(center, 2 * halfspan_sigmas * width, count)
    return hg_mode(HermiteGaussParams(order=order, center=center, width=width), grid)


def _overlap(a, b) -> complex:
    """<a|b> = sum conj(a_j) b_j * spacing of two spectra on one grid."""
    assert a.grid == b.grid
    return complex(np.sum(np.conj(a.amplitudes) * b.amplitudes) * a.grid.spacing)


class TestHermiteGaussModes:
    def test_gaussian_peaks_at_center(self):
        mode = _mode(0, width=0.3, center=1.2)
        peak = np.argmax(np.abs(mode.amplitudes))
        assert abs(mode.grid.points[peak] - 1.2) <= mode.grid.spacing / 2

    @pytest.mark.parametrize("n", range(7))
    @pytest.mark.parametrize("m", range(7))
    def test_orthonormality(self, n, m):
        a = _mode(n)
        b = _mode(m)
        expected = 1.0 if n == m else 0.0
        assert abs(_overlap(a, b) - expected) < 1e-6

    def test_first_order_antisymmetric(self):
        mode = _mode(1, count=513)  # odd count puts a point on the center
        amp = mode.amplitudes
        np.testing.assert_allclose(amp, -amp[::-1], atol=1e-10)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8])
    def test_parity_exact(self, n):
        mode = _mode(n, count=512)
        amp = mode.amplitudes
        np.testing.assert_array_equal(amp, (-1.0) ** n * amp[::-1])

    def test_order_cap(self):
        with pytest.raises(UnsupportedOrderError):
            HermiteGaussParams(order=21, center=0.0, width=1.0)

    def test_small_grid_warns(self):
        grid = make_grid(0.0, 2.0, 64)  # only +-1 sigma
        with pytest.warns(UserWarning, match="does not span"):
            hg_mode(HermiteGaussParams(order=0, center=0.0, width=1.0), grid)

    def test_normalized(self):
        for n in (0, 3, 7):
            assert abs(_mode(n).norm_squared() - 1.0) < 1e-12

    def test_grid_refinement_stable(self):
        coarse = abs(_overlap(_mode(2, count=512), _mode(4, count=512)))
        fine = abs(_overlap(_mode(2, count=1024), _mode(4, count=1024)))
        assert abs(coarse - fine) < 1e-6


class TestApplyChirp:
    def test_zero_chirp_is_identity(self):
        mode = _mode(0)
        chirped = apply_chirp(mode, ChirpPhase(coefficient=0.0, center=0.0))
        np.testing.assert_array_equal(chirped.amplitudes, mode.amplitudes)

    def test_moduli_unchanged(self):
        mode = _mode(2, width=0.002)
        chirped = apply_chirp(mode, ChirpPhase(coefficient=3.8e5, center=0.0))
        np.testing.assert_allclose(np.abs(chirped.amplitudes),
                                   np.abs(mode.amplitudes), atol=1e-14)

    def test_unitary(self):
        mode = _mode(1, width=0.002)
        chirped = apply_chirp(mode, ChirpPhase(coefficient=1e6, center=0.0))
        assert abs(chirped.norm_squared() - mode.norm_squared()) < 1e-12


class TestConvertBandwidth:
    def test_input_photon_bandwidth(self):
        # 619.406 GHz intensity FWHM
        assert convert_bandwidth(1540.0, 4.9) == pytest.approx(
            2 * np.pi * 619.406e-6 / FWHM_PER_SIGMA, rel=1e-4)

    def test_upconverted_bandwidth(self):
        # 58.733 GHz intensity FWHM
        assert convert_bandwidth(558.0, 0.061) == pytest.approx(
            2 * np.pi * 58.733e-6 / FWHM_PER_SIGMA, rel=1e-4)

    def test_sizes_the_mode_it_describes(self):
        # an HG0 of amplitude width sqrt(2) sigma (amplitude_width) has the
        # |psi|^2 FWHM 2 pi c dlambda / lambda^2 that sigma was converted from
        fwhm = 2 * np.pi * SPEED_OF_LIGHT_M_PER_S * 1.72e-9 / (769e-9) ** 2 * 1e-15
        width = amplitude_width(769.0, 1.72)
        grid = make_grid(0.0, 10 * width, 20001)
        mode = hg_mode(HermiteGaussParams(0, 0.0, width), grid)
        intensity = np.abs(mode.amplitudes) ** 2
        above = grid.points[intensity >= intensity.max() / 2]
        # the half-maximum crossings lie within one spacing outside the
        # outermost points at or above half maximum
        inner = above[-1] - above[0]
        assert inner <= fwhm < inner + 2 * grid.spacing

    @pytest.mark.parametrize("center,fwhm", [(-1.0, 1.0), (1540.0, 0.0), (0.0, 1.0)])
    def test_nonpositive_rejected(self, center, fwhm):
        with pytest.raises(InvalidArgumentError):
            convert_bandwidth(center, fwhm)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("slot", [0, 1])
    def test_non_finite_rejected(self, bad, slot):
        # inf used to give sigma = inf or a zero frequency, and NaN passed
        args = [769.0, 1.72]
        args[slot] = bad
        with pytest.raises(InvalidArgumentError, match="finite and positive"):
            convert_bandwidth(*args)

    @pytest.mark.parametrize("args", [
        (1e-300, 1.72),   # the squared centre underflows to zero
        (1e300, 1.72),    # the squared centre overflows
        (1e-150, 1e300),  # the frequency FWHM overflows
        (1e100, 1e-300),  # the frequency FWHM underflows to zero
        (769.0, 1e300),   # the frequency FWHM overflows at a visible centre
    ])
    def test_unrepresentable_result_rejected(self, args):
        with pytest.raises(InvalidArgumentError, match="not finite and positive"):
            convert_bandwidth(*args)

    def test_numpy_scalars_convert_like_floats(self):
        assert convert_bandwidth(np.float64(769.0), np.float64(1.72)) \
            == convert_bandwidth(769.0, 1.72)
        with pytest.raises(InvalidArgumentError, match="not finite and positive"):
            convert_bandwidth(np.float64(1e-300), np.float64(1.72))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 0.0, -1.0])
    @pytest.mark.parametrize("convert", [wavelength_to_omega, omega_to_wavelength])
    def test_wavelength_to_omega_rejects(self, bad, convert):
        with pytest.raises(InvalidArgumentError, match="finite and positive"):
            convert(bad)

    @given(st.floats(1e-3, 1e7))
    def test_omega_to_wavelength_inverts_within_one_ulp(self, wavelength_nm):
        # two correctly rounded quotients by the same constant: the second
        # lands within x u / (1 - u) < ulp(x) of x before it is rounded
        back = omega_to_wavelength(wavelength_to_omega(wavelength_nm))
        assert abs(back - wavelength_nm) <= np.spacing(wavelength_nm)

    def test_wavelength_to_omega(self):
        # 2 pi c / 1540 nm
        assert wavelength_to_omega(1540.0) == pytest.approx(1.22316, rel=1e-5)


class TestComplexSpectrum:
    def test_length_checked(self):
        grid = make_grid(0.0, 1.0, 8)
        with pytest.raises(InvalidArgumentError):
            ComplexSpectrum(grid, np.ones(7, dtype=complex))

    def test_amplitudes_read_only(self):
        mode = _mode(0)
        with pytest.raises(ValueError):
            mode.amplitudes[0] = 1.0

    def test_normalize_null_rejected(self):
        grid = make_grid(0.0, 1.0, 8)
        null = ComplexSpectrum(grid, np.zeros(8, dtype=complex))
        with pytest.raises(InvalidArgumentError):
            null.normalized()
