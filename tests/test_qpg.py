import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tmsim import (
    BasisMismatchError,
    FilterSpec,
    HermiteGaussParams,
    InvalidArgumentError,
    MappingFunction,
    ModalDensityMatrix,
    SelectivityModel,
    apply_mode_filter,
    build_mapping,
    hg_mode,
    make_grid,
    project_probability,
    separability_report,
    wavelength_to_omega,
)

OMEGA_IN = wavelength_to_omega(1540.0)
OMEGA_PUMP = wavelength_to_omega(876.0)
OMEGA_OUT = OMEGA_IN + OMEGA_PUMP


def _sigma(fwhm_ghz):
    # intensity FWHM in GHz -> amplitude width parameter in rad/fs
    return np.sqrt(2.0) * 2 * np.pi * fwhm_ghz * 1e9 * 1e-15 / (2 * np.sqrt(2 * np.log(2)))


def make_qpg_mapping(pump_order=0, skew=0.0, count=256,
                     pump_fwhm_ghz=620.0, output_fwhm_ghz=59.0):
    sigma_pump = _sigma(pump_fwhm_ghz)
    sigma_out = _sigma(output_fwhm_ghz)
    input_grid = make_grid(OMEGA_IN, 12 * sigma_pump, count)
    output_grid = make_grid(OMEGA_OUT, 14 * sigma_out, count)
    pump = HermiteGaussParams(pump_order, OMEGA_PUMP, sigma_pump)
    pm = HermiteGaussParams(0, OMEGA_OUT, sigma_out)
    return build_mapping(pump, pm, input_grid, output_grid,
                         group_velocity_mismatch=skew), input_grid, sigma_pump


def correlated_ridge_mapping():
    """Flat phasematching (an HG0 far wider than the grid) and a near-delta
    pump: the output tracks the input."""
    input_grid = make_grid(OMEGA_IN, 0.02, 192)
    output_grid = make_grid(OMEGA_OUT, 0.02, 192)
    pm = HermiteGaussParams(0, OMEGA_OUT, 100.0)
    pump = HermiteGaussParams(0, OMEGA_PUMP, 4e-4)
    return build_mapping(pump, pm, input_grid, output_grid)


def pure_state(order, dimension=7):
    entries = np.zeros((dimension, dimension), dtype=complex)
    entries[order, order] = 1.0
    return ModalDensityMatrix(dimension=dimension, entries=entries)


def basis_vector(order, dimension=7):
    vec = np.zeros(dimension, dtype=complex)
    vec[order] = 1.0
    return vec


class TestBuildMapping:
    def test_narrow_output_is_mode_selective(self):
        xi, _, _ = make_qpg_mapping()
        assert separability_report(xi).separability > 0.99

    def test_correlated_ridge_is_inseparable(self):
        assert separability_report(correlated_ridge_mapping()).separability < 0.2

    def test_shaped_pump_selects_matching_mode(self):
        xi, input_grid, sigma_pump = make_qpg_mapping(pump_order=1)
        report = separability_report(xi)
        target = hg_mode(HermiteGaussParams(1, OMEGA_IN, sigma_pump), input_grid)
        assert report.input_modes.shape == (20, input_grid.count)
        overlap = abs(np.sqrt(input_grid.spacing)
                      * np.vdot(target.amplitudes, report.input_modes[0])) ** 2
        assert overlap > 0.98

    def test_gaussian_gate_has_geometric_schmidt_spectrum(self):
        # two Gaussian envelopes make a Gaussian kernel, whose Schmidt weights
        # fall geometrically (2.254e-3 per mode here); a sampled, interpolated
        # pump stops that at its own noise floor
        xi = make_qpg_mapping()[0]
        weights = separability_report(xi, max_modes=8).schmidt_weights
        ratios = weights[1:7] / weights[:6]
        assert ratios == pytest.approx(np.full(6, ratios[0]), rel=1e-3)

    def test_values_cannot_change_after_construction(self):
        xi = make_qpg_mapping(count=64)[0]
        grids = xi.input_grid, xi.output_grid
        assert xi.values.dtype == complex and not xi.values.flags.writeable
        # a read-only array that owns its buffer is taken as is
        assert MappingFunction(*grids, xi.values).values is xi.values
        # a writeable array, or a read-only view of one, is copied
        values = np.array(xi.values)
        view = values.view()
        view.flags.writeable = False
        copies = [MappingFunction(*grids, v) for v in (values, view)]
        values[...] = 0.0
        for copy in copies:
            assert copy.values.tobytes() == xi.values.tobytes()
            assert not copy.values.flags.writeable

    def test_zero_mismatch_beats_any_skew(self):
        base = separability_report(make_qpg_mapping()[0]).separability
        for skew in (0.2, 1.0, 3.0):
            skewed = separability_report(make_qpg_mapping(skew=skew)[0]).separability
            assert base >= skewed


class TestSeparabilityReport:
    def test_rank_one_product(self):
        input_grid = make_grid(0.0, 14.0, 96)
        output_grid = make_grid(10.0, 15.0, 96)
        a = hg_mode(HermiteGaussParams(0, 0.0, 1.0), input_grid)
        b = hg_mode(HermiteGaussParams(2, 10.0, 1.0), output_grid)
        xi = MappingFunction(input_grid, output_grid,
                             np.outer(a.amplitudes, b.amplitudes))
        report = separability_report(xi)
        assert abs(report.separability - 1.0) < 1e-10

    def test_balanced_two_mode_kernel(self):
        input_grid = make_grid(0.0, 14.0, 96)
        output_grid = make_grid(10.0, 14.0, 96)
        modes_in = [hg_mode(HermiteGaussParams(k, 0.0, 1.0), input_grid)
                    for k in (0, 1)]
        modes_out = [hg_mode(HermiteGaussParams(k, 10.0, 1.0), output_grid)
                     for k in (0, 1)]
        values = sum(np.outer(a.amplitudes, b.amplitudes)
                     for a, b in zip(modes_in, modes_out)) / np.sqrt(2.0)
        xi = MappingFunction(input_grid, output_grid, values)
        report = separability_report(xi)
        assert report.separability == pytest.approx(0.5, abs=1e-10)

    def test_separability_is_a_share_of_the_full_spectrum(self):
        # 20 kept modes hold ~92% of this kernel; renormalizing over them
        # would read 0.0772 against the true 0.0711
        xi = correlated_ridge_mapping()
        svals = np.linalg.svd(xi.values, compute_uv=False)
        report = separability_report(xi)
        assert report.separability == pytest.approx(
            svals[0] ** 2 / np.sum(svals**2), abs=1e-12)
        assert report.schmidt_weights[0] > report.separability + 1e-3


class TestProjectProbability:
    def test_aligned_projector(self):
        assert project_probability(pure_state(0), basis_vector(0)) == pytest.approx(1.0)

    def test_orthogonal_projector(self):
        assert project_probability(pure_state(0), basis_vector(1)) == 0.0

    def test_maximally_mixed_uniform(self):
        rho = ModalDensityMatrix(dimension=7, entries=np.eye(7) / 7.0)
        for eps in (0.0, 0.3, 1.0):
            sel = SelectivityModel(crosstalk=eps)
            for mode in (basis_vector(0), basis_vector(5),
                         np.ones(7, dtype=complex) / np.sqrt(7.0)):
                assert project_probability(rho, mode, sel) == pytest.approx(1 / 7)

    def test_full_crosstalk_depolarizes(self):
        sel = SelectivityModel(crosstalk=1.0)
        for order in range(3):
            rho = pure_state(order)
            for mode_order in range(7):
                p = project_probability(rho, basis_vector(mode_order), sel)
                assert p == pytest.approx(1 / 7)

    def test_falloff_scales_pure_orders(self):
        sel = SelectivityModel(per_order_falloff=(1.0, 0.8, 0.6))
        assert project_probability(pure_state(1), basis_vector(1), sel) \
            == pytest.approx(0.8)
        # orders beyond the list keep unit efficiency
        assert project_probability(pure_state(4), basis_vector(4), sel) \
            == pytest.approx(1.0)

    def test_non_unit_mode_rejected(self):
        with pytest.raises(InvalidArgumentError):
            project_probability(pure_state(0), np.ones(7))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            project_probability(pure_state(0), basis_vector(0, dimension=5))

    def test_crosstalk_inversion_reproduces_ratio(self):
        # ((1 - e) + e/7) / (e/7) == 111 at e = 7/117
        sel = SelectivityModel(crosstalk=7.0 / 117.0)
        ratio = (project_probability(pure_state(0), basis_vector(0), sel)
                 / project_probability(pure_state(0), basis_vector(1), sel))
        assert ratio == pytest.approx(111.0, rel=1e-12)

    def test_reported_crosstalk_scale(self):
        sel = SelectivityModel(crosstalk=0.0628)
        ratio = (project_probability(pure_state(0), basis_vector(0), sel)
                 / project_probability(pure_state(0), basis_vector(1), sel))
        assert 90.0 < ratio < 120.0

    def test_impure_state_ratio_drops(self):
        # weights with purity ~0.93, dominant mode shared with the projector
        weights = np.array([0.9643, 0.03, 0.0045, 0.0012])
        entries = np.zeros((7, 7), dtype=complex)
        entries[:4, :4] = np.diag(weights / weights.sum())
        sel = SelectivityModel(crosstalk=7.0 / 117.0)
        ratios = [project_probability(rho, basis_vector(0), sel)
                  / project_probability(rho, basis_vector(1), sel)
                  for rho in (pure_state(0),
                              ModalDensityMatrix(dimension=7, entries=entries))]
        assert ratios[1] < ratios[0]
        assert 5.0 < ratios[1] < 60.0

    def test_crosstalk_range_checked(self):
        with pytest.raises(InvalidArgumentError):
            SelectivityModel(crosstalk=1.2)
        with pytest.raises(InvalidArgumentError):
            SelectivityModel(per_order_falloff=(0.0, 1.0))


class TestApplyModeFilter:
    def test_primary_mode_filter_oracle(self):
        result = apply_mode_filter([0.8, 0.2], np.eye(2),
                                   FilterSpec(mode=[1.0, 0.0], efficiency=0.22))
        np.testing.assert_allclose(result.transmitted_weights,
                                   [0.7572815533980584, 0.24271844660194175],
                                   atol=1e-12)
        assert result.transmitted_g2 == pytest.approx(1.632387595437836, abs=1e-12)
        assert result.upconverted_g2 == 2.0

    def test_secondary_mode_filter_raises_g2(self):
        result = apply_mode_filter([0.8, 0.2], np.eye(2),
                                   FilterSpec(mode=[0.0, 1.0], efficiency=0.22))
        assert result.transmitted_g2 == pytest.approx(1.72689553754311, abs=1e-12)
        assert result.transmitted_g2 > 1.68

    def test_zero_efficiency_passthrough(self):
        result = apply_mode_filter([0.7, 0.3], np.eye(2),
                                   FilterSpec(mode=[1.0, 0.0], efficiency=0.0))
        np.testing.assert_allclose(result.transmitted_weights, [0.7, 0.3], atol=1e-15)
        assert result.upconverted_empty
        assert np.isnan(result.upconverted_g2)

    def test_rank_one_upconverted_thermal(self):
        for target in (0, 1):
            mode = [0.0, 0.0]
            mode[target] = 1.0
            result = apply_mode_filter([0.6, 0.4], np.eye(2),
                                       FilterSpec(mode=mode, efficiency=0.22))
            assert result.upconverted_g2 == 2.0  # exact

    def test_weight_bookkeeping(self):
        weights = np.array([0.5, 0.3, 0.2])
        mode = np.array([0.6, 0.8j, 0.0], dtype=complex)
        result = apply_mode_filter(weights, np.eye(3),
                                   FilterSpec(mode=mode, efficiency=0.37))
        recombined = (result.transmitted_fraction + result.upconverted_fraction)
        assert abs(recombined - 1.0) < 1e-12

    @pytest.mark.parametrize("eta", [0.1, 0.22, 0.5, 0.9])
    def test_direction_law(self, eta):
        for w0, w1 in ((0.8, 0.2), (0.2, 0.8)):
            base = w0**2 + w1**2
            drop_primary = apply_mode_filter(
                [w0, w1], np.eye(2), FilterSpec(mode=[1.0, 0.0], efficiency=eta))
            drop_secondary = apply_mode_filter(
                [w0, w1], np.eye(2), FilterSpec(mode=[0.0, 1.0], efficiency=eta))
            p_primary = np.sum(drop_primary.transmitted_weights**2)
            p_secondary = np.sum(drop_secondary.transmitted_weights**2)
            if w0 > w1:  # removing the dominant mode balances the mixture
                assert p_primary < base
                assert p_secondary > base
            else:       # dominance reversed, trends flip
                assert p_primary > base
                assert p_secondary < base

    def test_superposition_filter_splits_weight(self):
        mode = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
        result = apply_mode_filter([0.8, 0.2], np.eye(2),
                                   FilterSpec(mode=mode, efficiency=1.0))
        # each mixture component loses half its weight to the filter mode
        assert result.upconverted_fraction == pytest.approx(0.5)
        assert not result.upconverted_empty

    def test_leaky_modes_rejected(self):
        coeffs = np.array([[0.9, 0.0], [0.0, 1.0]], dtype=complex)  # norm 0.81
        with pytest.raises(BasisMismatchError):
            apply_mode_filter([0.5, 0.5], coeffs,
                              FilterSpec(mode=[1.0, 0.0], efficiency=0.2))

    @settings(max_examples=200, deadline=None)
    @given(weights=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=6)
           .filter(lambda w: sum(w) > 0), d=st.integers(1, 6),
           efficiency=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_weight_is_conserved(self, weights, d, efficiency, seed):
        rng = np.random.default_rng(seed)
        kets = rng.normal(size=(len(weights) + 1, 2 * d)).view(complex)
        kets /= np.linalg.norm(kets, axis=1, keepdims=True)
        result = apply_mode_filter(weights, kets[1:],
                                   FilterSpec(mode=kets[0], efficiency=efficiency))
        assert abs(result.transmitted_fraction + result.upconverted_fraction
                   - 1.0) <= 1e-12
        # an empty arm keeps its zero weights and has no g2
        for arm, g2 in ((result.transmitted_weights, result.transmitted_g2),
                        (result.upconverted_weights, result.upconverted_g2)):
            if arm.sum() > 0:
                assert abs(arm.sum() - 1.0) <= 1e-12
                assert 1.0 <= g2 <= 2.0 + 1e-12
            else:
                assert np.isnan(g2)
        assert result.upconverted_empty == (not result.upconverted_weights.sum() > 0)

    def test_filter_spec_validation(self):
        with pytest.raises(InvalidArgumentError):
            FilterSpec(mode=[1.0, 1.0], efficiency=0.2)
        with pytest.raises(InvalidArgumentError):
            FilterSpec(mode=[1.0, 0.0], efficiency=1.2)


NAN_ARRAY = np.full((3, 4), np.nan)
NAN_NEXT_TO_INF = np.array([[np.nan, np.inf, 0.0, 0.0],
                            [0.0, 0.0, 0.0, 0.0],
                            [0.0, 0.0, 0.0, 0.0]])


class TestNonFiniteRejected:
    """NaN compares False against any tolerance, so every check must be
    written to pass only on a finite value within it."""

    @pytest.mark.parametrize("values", [NAN_ARRAY, NAN_NEXT_TO_INF])
    def test_mapping_function(self, values):
        grids = make_grid(0.0, 1.0, 3), make_grid(0.0, 1.0, 4)
        with pytest.raises(InvalidArgumentError, match="not normalized"):
            MappingFunction(*grids, values)

    @pytest.mark.parametrize("mode", [[np.nan, np.nan], [np.nan, np.inf]])
    def test_modes(self, mode):
        with pytest.raises(InvalidArgumentError, match="unit norm"):
            FilterSpec(mode=mode, efficiency=0.2)
        rho = ModalDensityMatrix(dimension=2, entries=np.eye(2) / 2.0)
        with pytest.raises(InvalidArgumentError, match="unit norm"):
            project_probability(rho, mode)

    @pytest.mark.parametrize("weights", [[np.nan, 0.2], [np.inf, 0.2]])
    def test_filter_weights(self, weights):
        with pytest.raises(InvalidArgumentError, match="finite"):
            apply_mode_filter(weights, np.eye(2),
                              FilterSpec(mode=[1.0, 0.0], efficiency=0.2))
