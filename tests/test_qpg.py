import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tmsim import (
    BasisMismatchError,
    FilterSpec,
    FrequencyGrid,
    GateSpec,
    HermiteGaussParams,
    InvalidArgumentError,
    JointSpectralAmplitude,
    MappingFunction,
    ModalDensityMatrix,
    SchmidtDecomposition,
    SelectivityModel,
    apply_mode_filter,
    build_mapping,
    hg_mode,
    make_grid,
    project_probability,
    separability_report,
    wavelength_to_omega,
)
from tmsim import pdc
from tmsim.spectral import hg_envelope

OMEGA_IN = wavelength_to_omega(1540.0)
OMEGA_PUMP = wavelength_to_omega(876.0)
OMEGA_OUT = OMEGA_IN + OMEGA_PUMP


def make_qpg_mapping(pump_order=0, skew=0.0, count=256):
    """The gate of `tmsim qpg map` on `count` x `count` grids."""
    gate = GateSpec(qpg_pump_shape_order=pump_order, count=count)
    return build_mapping(*gate.inputs(), group_velocity_mismatch=skew)


def quotient_normalized_mapping(qpg_pump, output_pm, input_grid, output_grid,
                                group_velocity_mismatch=0.0) -> np.ndarray:
    """`build_mapping`'s kernel formed over the whole grid at once,
    normalized by the complex quotient by sqrt(weight) and then flushed
    below sqrt(tiny): the bits the blocked build and its real reciprocal
    product must reproduce."""
    d_in = input_grid.offsets[:, None]
    d_out = output_grid.offsets[None, :]
    alpha = hg_envelope(qpg_pump, d_out - d_in + (
        output_grid.center - input_grid.center - qpg_pump.center))
    phi = hg_envelope(output_pm, d_out - group_velocity_mismatch * d_in + (
        output_grid.center - output_pm.center))
    values = (alpha * phi).astype(complex)
    weight = np.sum(np.abs(values) ** 2) * input_grid.spacing * output_grid.spacing
    values /= np.sqrt(weight)
    parts = values.view(float)
    parts[np.abs(parts) < np.sqrt(np.finfo(float).tiny)] = 0.0
    return values


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
        xi = make_qpg_mapping()
        assert separability_report(xi).separability > 0.99

    def test_correlated_ridge_is_inseparable(self):
        assert separability_report(correlated_ridge_mapping()).separability < 0.2

    def test_shaped_pump_selects_matching_mode(self):
        pump, _, input_grid, _ = GateSpec(qpg_pump_shape_order=1, count=256).inputs()
        report = separability_report(make_qpg_mapping(pump_order=1))
        target = hg_mode(HermiteGaussParams(1, OMEGA_IN, pump.width), input_grid)
        assert report.signal_modes.shape == (20, input_grid.count)
        overlap = abs(np.sqrt(input_grid.spacing)
                      * np.vdot(target.amplitudes, report.signal_modes[0])) ** 2
        assert overlap > 0.98

    def test_gaussian_gate_has_geometric_schmidt_spectrum(self):
        # two Gaussian envelopes make a Gaussian kernel, whose Schmidt weights
        # fall geometrically (2.365e-3 per mode here); a sampled, interpolated
        # pump stops that at its own noise floor
        xi = make_qpg_mapping()
        weights = separability_report(xi, max_modes=8).weights
        ratios = weights[1:7] / weights[:6]
        assert ratios == pytest.approx(np.full(6, ratios[0]), rel=1e-3)

    def test_is_the_joint_amplitude_type(self):
        # the type's checks and copy rules are tested in test_pdc
        assert MappingFunction is JointSpectralAmplitude
        xi = make_qpg_mapping(count=64)
        assert type(xi) is JointSpectralAmplitude
        assert xi.amplitudes.dtype == complex and not xi.amplitudes.flags.writeable
        # the built array is handed over without a copy
        assert MappingFunction(xi.signal_grid, xi.idler_grid,
                               xi.amplitudes).amplitudes is xi.amplitudes

    @pytest.mark.parametrize("gate, skew", [(GateSpec(), 0.0), (GateSpec(), 0.5),
                                            (GateSpec(qpg_pump_shape_order=1), 0.0)],
                             ids=["qpg-map", "skew-0.5", "hg1-gate-pump"])
    def test_normalization_matches_complex_quotient_bit_for_bit(self, gate, skew):
        built = build_mapping(*gate.inputs(), skew).amplitudes
        reference = quotient_normalized_mapping(*gate.inputs(), skew)
        assert np.array_equal(built.view(np.uint64), reference.view(np.uint64))

    @pytest.mark.parametrize("pump_order", [0, 1])
    @pytest.mark.parametrize("skew", [0.0, 0.5])
    def test_blocked_build_matches_whole_grid_bit_for_bit(self, pump_order, skew):
        # 300 input rows of 200 outputs end in a partial row block
        pump, pm, input_grid, _ = GateSpec(qpg_pump_shape_order=pump_order,
                                           count=300).inputs()
        output_grid = make_grid(pm.center, 14 * pm.width, 200)
        inputs = (pump, pm, input_grid, output_grid, skew)
        assert input_grid.count % (pdc._BLOCK // output_grid.count) != 0
        built = build_mapping(*inputs).amplitudes
        reference = quotient_normalized_mapping(*inputs)
        assert np.array_equal(built.view(np.uint64), reference.view(np.uint64))

    def test_qpg_map_build_peak(self):
        # the 4.2 MB mapping and the 2.1 MB buffer of |.|^2 are the floor; a
        # build through whole-grid temporaries peaked at 14.7 MB
        inputs = GateSpec().inputs()
        assert inputs[2].count == inputs[3].count == 512
        tracemalloc.start()
        try:
            build_mapping(*inputs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9e6

    def test_zero_mismatch_beats_any_skew(self):
        base = separability_report(make_qpg_mapping()).separability
        for skew in (0.2, 1.0, 3.0):
            skewed = separability_report(make_qpg_mapping(skew=skew)).separability
            assert base >= skewed


class TestGateSpec:
    """`inputs()` gives, equal as floats, the arguments `tmsim qpg map`
    has always passed to `build_mapping` for these flags."""

    PUMP = HermiteGaussParams(0, 2.1502871772932113, 0.0022702325887662546)
    INPUT = FrequencyGrid(1.2231503683823721, 5.488742154842347e-05, 512)
    OUTPUT = FrequencyGrid(3.3734375456755834, 6.063718360236089e-06, 512)

    @pytest.mark.parametrize("gate, expected", [
        (GateSpec(), (PUMP, HermiteGaussParams(0, OUTPUT.center, 0.00022132572014861725),
                      INPUT, OUTPUT)),
        (GateSpec(qpg_pump_shape_order=1),
         (HermiteGaussParams(1, PUMP.center, PUMP.width),
          HermiteGaussParams(0, OUTPUT.center, 0.00022132572014861725), INPUT, OUTPUT)),
        (GateSpec(output_fwhm_nm=0.5, count=300),
         (PUMP, HermiteGaussParams(0, OUTPUT.center, 0.0018141452471198136),
          FrequencyGrid(INPUT.center, 9.380425555600131e-05, 300),
          FrequencyGrid(OUTPUT.center, 8.494325571798458e-05, 300))),
    ], ids=["defaults", "hg1-gate-pump", "wide-output-300"])
    def test_inputs_are_the_commands_former_arguments(self, gate, expected):
        assert gate.inputs() == expected


class TestSeparabilityReport:
    def test_is_the_source_decomposition(self):
        # the gate's modes in the source's form: input modes on the rows,
        # output modes on the columns
        xi = make_qpg_mapping(count=128)
        report = separability_report(xi, max_modes=6)
        assert type(report) is SchmidtDecomposition
        assert report.signal_modes.shape == report.idler_modes.shape == (6, 128)
        assert report.signal_grid is xi.signal_grid

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
        svals = np.linalg.svd(xi.amplitudes, compute_uv=False)
        report = separability_report(xi)
        assert report.separability == pytest.approx(
            svals[0] ** 2 / np.sum(svals**2), abs=1e-12)
        assert report.weights[0] > report.separability + 1e-3


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
