import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from tmsim import (
    BasisMismatchError,
    BasisMismatchWarning,
    ChirpPhase,
    ComplexSpectrum,
    GateSpec,
    HermiteGaussParams,
    InvalidArgumentError,
    JointSpectralAmplitude,
    ModalDensityMatrix,
    PhasematchingModel,
    SchmidtDecomposition,
    apply_chirp,
    background_mixed_g2,
    build_jsa,
    build_mapping,
    chirp_purity_analytic,
    convert_bandwidth,
    g2_from_purity,
    hg_mode,
    jsi_marginal_sigmas,
    make_grid,
    matched_phasematching_width,
    mean_photon_from_g11,
    mode_overlap_matrix,
    reduced_density_matrix,
    schmidt_decompose,
    schmidt_purity,
    separability_report,
)
from tmsim import pdc, presets
from tmsim.pdc import _PM_SHAPES, fit_basis_width, schmidt_weights
from tmsim.spectral import FrequencyGrid, amplitude_width

# decorrelated-source parameters: 1.72 nm pump at 769 nm
PUMP_SIGMA = amplitude_width(769.0, 1.72)
PM_WIDTH = matched_phasematching_width(PUMP_SIGMA)


def gaussian_jsa(pump_order=0, pump_sigma=PUMP_SIGMA, pm_width=PM_WIDTH,
                 angle=45.0, chirp=0.0, count=320):
    """Source model sized so Hermite-Gauss bases up to order 6 fit."""
    marginal_sigma = pump_sigma / np.sqrt(2.0)
    half_span = max(6.0 * marginal_sigma, 10.7 * PM_WIDTH)
    signal_grid = make_grid(1.223, 2.0 * half_span, count)
    idler_grid = make_grid(1.220, 2.0 * half_span, count)
    pump_grid = pdc.sum_frequency_grid(signal_grid, idler_grid)
    pump = hg_mode(HermiteGaussParams(order=pump_order, center=pump_grid.center,
                                      width=pump_sigma), pump_grid)
    if chirp:
        pump = apply_chirp(pump, ChirpPhase(coefficient=chirp,
                                            center=pump_grid.center))
    pm = PhasematchingModel(angle_deg=angle, width=pm_width)
    return build_jsa(pump, pm, signal_grid, idler_grid)


#: the grid of the chirp-scan-1024 benchmark workload, and its chirp values
SCAN_CONFIG = presets.merge_overrides(presets.preset_config("a"),
                                      {"grid": {"count": 1024}})
SCAN_A_VALUES = (0.0, 1e5, 2e5, 3.8e5, 6e5, 1e6)
SCAN_ROW_CONFIG = presets.merge_overrides(SCAN_CONFIG, {"pump": {"chirp_fs2": 1e6}})


def scan_inputs(config=SCAN_ROW_CONFIG):
    """Pump, phasematching and grids of a scan row, by default the
    chirp-scan-1024 row at 1e6 fs^2, whose pump holds the 2047 sum
    frequencies."""
    signal_grid, idler_grid = presets.experiment_grids(config)
    pump = presets.pump_spectrum(config, signal_grid, idler_grid)
    return pump, config.phasematching.model(), signal_grid, idler_grid


def closed_form_jsa(config, signal_grid, idler_grid) -> np.ndarray:
    """The configured source with an order-0 pump and a Gaussian ridge,
    pump(w_s[i] + w_i[j]) x phasematching(w_s[i], w_i[j]) evaluated at every
    pair and normalized; the sum's detuning from the pump centre
    c_s + c_i is taken from the grid offsets, so it carries no rounding of
    the absolute frequencies."""
    detuning = signal_grid.offsets[:, None] + idler_grid.offsets[None, :]
    x = detuning / config.pump.amplitude_sigma()
    pump = np.exp(-0.5 * x * x) * np.exp(1j * config.pump.chirp_fs2 * detuning**2)
    pm = config.phasematching.model()
    theta = np.deg2rad(pm.angle_deg)
    u = (-signal_grid.offsets[:, None] * np.sin(theta)
         + idler_grid.offsets[None, :] * np.cos(theta))
    values = pump * np.exp(-u**2 / (2.0 * pm.width**2))
    weight = np.sum(np.abs(values) ** 2) * signal_grid.spacing * idler_grid.spacing
    return values / np.sqrt(weight)


def quotient_normalized_jsa(pump, pm, signal_grid, idler_grid) -> np.ndarray:
    """`build_jsa`'s amplitude formed over the whole grid at once,
    normalized by the complex quotient by sqrt(weight) and then flushed
    below sqrt(tiny): the bits the blocked build and its real reciprocal
    product must reproduce."""
    alpha = np.lib.stride_tricks.sliding_window_view(pump.amplitudes,
                                                     idler_grid.count)
    theta = np.deg2rad(pm.angle_deg)
    u = (-signal_grid.offsets[:, None] * np.sin(theta)
         + idler_grid.offsets[None, :] * np.cos(theta))
    if pm.shape == "gaussian":
        phi = np.exp(-u**2 / (2.0 * pm.width**2))
    else:
        scale = pdc._SINC_HALF_POWER_ARG / (pdc._GAUSS_HALF_POWER_ARG * pm.width)
        phi = np.sinc(scale * u / np.pi)
    values = alpha * phi
    weight = np.sum(np.abs(values) ** 2) * signal_grid.spacing * idler_grid.spacing
    values /= np.sqrt(weight)
    parts = values.view(float)
    parts[np.abs(parts) < np.sqrt(np.finfo(float).tiny)] = 0.0
    return values


def product_jsa(count=64):
    """Exactly separable (rank-one) joint amplitude."""
    signal_grid = make_grid(0.0, 14.0, count)
    idler_grid = make_grid(0.0, 16.0, count)
    a = hg_mode(HermiteGaussParams(order=0, center=0.0, width=1.0), signal_grid)
    b = hg_mode(HermiteGaussParams(order=1, center=0.0, width=1.2), idler_grid)
    values = np.outer(a.amplitudes, b.amplitudes)
    return JointSpectralAmplitude(signal_grid, idler_grid, values)


class TestBuildJsa:
    def test_matched_widths_give_separable_state(self):
        weights = schmidt_weights(gaussian_jsa())
        assert np.sum(weights**2) > 0.99

    def test_odd_pump_gives_two_dominant_modes(self):
        weights = schmidt_weights(gaussian_jsa(pump_order=1))
        assert weights[0] + weights[1] > 0.99
        assert weights[1] > 0.4

    def test_narrowband_pump_anticorrelated_and_mixed(self):
        narrow_sigma = amplitude_width(769.0, 0.54)
        jsa = gaussian_jsa(pump_sigma=narrow_sigma)
        weights = schmidt_weights(jsa)
        assert np.sum(weights**2) < 0.7
        # intensity covariance between signal and idler detunings is negative
        intensity = jsa.intensity()
        intensity = intensity / intensity.sum()
        ws = jsa.signal_grid.points - jsa.signal_grid.center
        wi = jsa.idler_grid.points - jsa.idler_grid.center
        cov = np.sum(intensity * np.outer(ws, wi))
        assert cov < 0

    def test_pump_off_the_sum_grid_rejected(self):
        signal_grid = make_grid(1.223, 0.06, 64)
        idler_grid = make_grid(1.220, 0.06, 64)
        sums = pdc.sum_frequency_grid(signal_grid, idler_grid)
        assert (sums.count, sums.spacing) == (127, signal_grid.spacing)
        assert sums.center == signal_grid.center + idler_grid.center
        params = HermiteGaussParams(order=0, center=sums.center, width=PUMP_SIGMA)
        build_jsa(hg_mode(params, sums), PhasematchingModel(45.0, PM_WIDTH),
                  signal_grid, idler_grid)
        # the same span sampled twice as densely, and a shifted centre
        for grid in (make_grid(sums.center, sums.span, 2 * sums.count - 1),
                     FrequencyGrid(sums.center + sums.spacing / 2, sums.spacing,
                                   sums.count)):
            with pytest.raises(InvalidArgumentError, match="sum-frequency grid"):
                build_jsa(hg_mode(params, grid), PhasematchingModel(45.0, PM_WIDTH),
                          signal_grid, idler_grid)

    def test_unequal_spacings_rejected(self):
        signal_grid = make_grid(1.223, 0.06, 320)
        idler_grid = make_grid(1.220, 0.06, 256)
        with pytest.raises(InvalidArgumentError, match="one spacing"):
            pdc.sum_frequency_grid(signal_grid, idler_grid)
        pump = hg_mode(HermiteGaussParams(order=0, center=2.443, width=PUMP_SIGMA),
                       make_grid(2.443, 0.12, 575))
        with pytest.raises(InvalidArgumentError, match="one spacing"):
            build_jsa(pump, PhasematchingModel(45.0, PM_WIDTH), signal_grid, idler_grid)

    def test_normalization(self):
        jsa = gaussian_jsa(count=128)
        total = np.sum(np.abs(jsa.amplitudes) ** 2) * jsa.cell_area
        assert abs(total - 1.0) < 1e-10

    def test_amplitudes_cannot_change_after_construction(self):
        jsa = gaussian_jsa(count=64)
        grids = jsa.signal_grid, jsa.idler_grid
        assert not jsa.amplitudes.flags.writeable
        # a read-only array that owns its buffer is taken as is
        assert JointSpectralAmplitude(*grids, jsa.amplitudes).amplitudes is jsa.amplitudes
        # a writeable array, or a read-only view of one, is copied
        values = np.array(jsa.amplitudes)
        view = values.view()
        view.flags.writeable = False
        copies = [JointSpectralAmplitude(*grids, v) for v in (values, view)]
        values[...] = 0.0
        for copy in copies:
            assert copy.amplitudes.tobytes() == jsa.amplitudes.tobytes()
            assert not copy.amplitudes.flags.writeable

    @pytest.mark.parametrize("config", [
        *(presets.preset_config(case) for case in "abcd"), SCAN_ROW_CONFIG],
        ids=["a", "b", "c", "d", "scan-1024-chirp-1e6"])
    def test_normalization_matches_complex_quotient_bit_for_bit(self, config):
        # a real division by sqrt(weight) would be off by one ulp in places
        signal_grid, idler_grid = presets.experiment_grids(config)
        inputs = (presets.pump_spectrum(config, signal_grid, idler_grid),
                  config.phasematching.model(), signal_grid, idler_grid)
        built = build_jsa(*inputs).amplitudes
        reference = quotient_normalized_jsa(*inputs)
        assert np.array_equal(built.view(np.uint64), reference.view(np.uint64))

    @pytest.mark.parametrize("count, per_row", [(7, 5), (300, 200), (3500, 20),
                                                (3, 40_000)])
    def test_row_blocks_tile_the_rows(self, count, per_row):
        # the one plan of the kernel builder and the grid writers: the most
        # whole rows within _BLOCK values (at least one), the last block
        # clipped to the row count
        blocks = pdc._row_blocks(count, per_row)
        assert [b.start for b in blocks] == [0] + [b.stop for b in blocks[:-1]]
        assert blocks[-1].stop == count
        step = blocks[0].stop
        assert {b.stop - b.start for b in blocks[:-1]} <= {step}
        assert step == 1 or step * per_row <= pdc._BLOCK
        assert len(blocks) == 1 or (step + 1) * per_row > pdc._BLOCK

    @pytest.mark.parametrize("shape", _PM_SHAPES)
    @pytest.mark.parametrize("counts", [(7, 5), (300, 200), (1000, 700),
                                        (3, 40_000)],
                             ids=["under-one-block", "300x200", "1000x700",
                                  "row-wider-than-a-block"])
    def test_blocked_build_matches_whole_grid_bit_for_bit(self, counts, shape):
        # grids that fill less than one block, end in a partial block, or
        # hold one row per block; the chirped odd pump gives both parts signs
        spacing = 12.0 * PUMP_SIGMA / max(counts)
        signal_grid, idler_grid = (FrequencyGrid(center, spacing, count)
                                   for center, count in zip((1.223, 1.220), counts))
        pump_grid = pdc.sum_frequency_grid(signal_grid, idler_grid)
        pump = apply_chirp(
            hg_mode(HermiteGaussParams(order=1, center=pump_grid.center,
                                       width=PUMP_SIGMA), pump_grid),
            ChirpPhase(coefficient=3e5, center=pump_grid.center))
        inputs = (pump, PhasematchingModel(45.0, PM_WIDTH, shape=shape),
                  signal_grid, idler_grid)
        built = build_jsa(*inputs).amplitudes
        reference = quotient_normalized_jsa(*inputs)
        assert np.array_equal(built.view(np.uint64), reference.view(np.uint64))

    def test_sinc_shape_close_to_gaussian_at_matched_width(self):
        marginal = PUMP_SIGMA / np.sqrt(2.0)
        signal_grid = make_grid(1.223, 12 * marginal, 128)
        idler_grid = make_grid(1.220, 12 * marginal, 128)
        pump_grid = pdc.sum_frequency_grid(signal_grid, idler_grid)
        pump = hg_mode(HermiteGaussParams(order=0, center=pump_grid.center,
                                          width=PUMP_SIGMA), pump_grid)
        sinc = build_jsa(pump, PhasematchingModel(45.0, PM_WIDTH, shape="sinc"),
                         signal_grid, idler_grid)
        gauss = build_jsa(pump, PhasematchingModel(45.0, PM_WIDTH, shape="gaussian"),
                          signal_grid, idler_grid)
        overlap = abs(np.sum(np.conj(sinc.amplitudes) * gauss.amplitudes)
                      * sinc.cell_area)
        assert overlap > 0.9

    def test_scan_row_build_peak(self):
        # the 16 MB amplitude and the 8 MB buffer of |.|^2 are the floor; a
        # build through whole-grid temporaries peaked at 44 MB
        tracemalloc.start()
        try:
            presets.build_state(SCAN_ROW_CONFIG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 28e6

    @pytest.mark.parametrize("counts", [None, (300, 200)])
    def test_pump_read_at_every_sum(self, counts):
        # None: the 1024 x 1024 scan row at chirp 1e6 fs^2; else a 300 x 200
        # grid of one spacing (four scan spacings, so the state fits)
        _, pm, signal_grid, idler_grid = scan_inputs()
        if counts is not None:
            signal_grid, idler_grid = (
                FrequencyGrid(grid.center, 4 * grid.spacing, count)
                for grid, count in zip((signal_grid, idler_grid), counts))
        pump = presets.pump_spectrum(SCAN_ROW_CONFIG, signal_grid, idler_grid)
        values = build_jsa(pump, pm, signal_grid, idler_grid).amplitudes
        reference = closed_form_jsa(SCAN_ROW_CONFIG, signal_grid, idler_grid)
        assert values.shape == (signal_grid.count, idler_grid.count)
        largest = np.max(np.abs(reference))
        assert np.max(np.abs(values - reference)) <= 1e-13 * largest


def scan_support(config):
    """The :class:`pdc.ScanSupport` a chirp scan of `config` samples, from
    its pump without the chirp, and the grids."""
    grids = presets.experiment_grids(config)
    unchirped = presets.merge_overrides(config, {"pump": {"chirp_fs2": 0.0}})
    return pdc.ScanSupport(presets.pump_spectrum(unchirped, *grids),
                           config.phasematching.model(), *grids), grids


def row_reference_block(support, config, grids):
    """A scan row's block as the scan formed it while each row built its
    own pump: `pump_spectrum` of the row's configuration, its slice on the
    crop's sums, the Hankel window there times the kept ridge, flushed."""
    pump = presets.pump_spectrum(config, *grids).amplitudes
    sums = pump[support.rows.start + support.cols.start:
                support.rows.stop + support.cols.stop - 1]
    values = (np.lib.stride_tricks.sliding_window_view(sums, support.ridge.shape[1])
              * support.ridge)
    pdc._flusher(values.shape)(values)
    return values


class TestScanSupport:
    """The chirp-independent crop, widths and ridge of a scan, taken once."""

    @pytest.mark.parametrize("shape", _PM_SHAPES)
    @pytest.mark.parametrize("config", [SCAN_ROW_CONFIG, presets.preset_config("d")],
                             ids=["scan-1024-chirp-1e6", "d"])
    def test_block_is_the_amplitude_on_its_crop(self, config, shape):
        # the support is sampled from the unchirped pump; the row's block
        # is the chirped amplitude's crop within 4 eps |f| per entry
        # (measured <= 7.4e-16 |f| over 360 rows of varied sources):
        # build_jsa scales the product by 1/sqrt(weight), the support its
        # ridge before the product
        config = presets.merge_overrides(config, {"phasematching": {"shape": shape}})
        support, grids = scan_support(config)
        assert not support.ridge.flags.writeable
        jsa = presets.build_state(config)
        assert (support.rows, support.cols) == pdc._support_block(*jsa.marginals)
        reference = jsa.amplitudes[support.rows, support.cols]
        block = support.block(config.pump.chirp_fs2)
        assert block.shape == reference.shape == support.ridge.shape
        assert np.all(np.abs(block - reference)
                      <= 4.0 * np.finfo(float).eps * np.abs(reference)
                      + np.sqrt(np.finfo(float).tiny))
        for got, want in zip(support.sigmas, jsi_marginal_sigmas(jsa)):
            assert got == pytest.approx(want, rel=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(count=st.integers(16, 512), order=st.sampled_from([0, 1]),
           shape=st.sampled_from(_PM_SHAPES),
           chirp=st.one_of(st.sampled_from([0.0, -0.0, 1e200]),
                           st.floats(-1.0, 1.0)))
    @example(count=1024, order=0, shape="gaussian", chirp=1e6)
    @example(count=512, order=1, shape="gaussian", chirp=0.0)
    @example(count=300, order=1, shape="sinc", chirp=-0.0)
    @example(count=16, order=0, shape="gaussian", chirp=1e200)
    def test_block_keeps_the_bits_of_a_row_built_from_its_pump(self, count, order,
                                                               shape, chirp):
        # a share in [-1, 1] of the resolved chirp (resolved_chirp), or one
        # of 0, -0.0 (which pump_spectrum leaves unchirped, while the block
        # multiplies by exp(0j)) and 1e200 fs^2, far past what the grid
        # resolves; the examples hold the chirp-scan-1024 row at 1e6 fs^2
        config = presets.merge_overrides(presets.preset_config("a"), {
            "grid": {"count": count}, "pump": {"shape_order": order},
            "phasematching": {"shape": shape}})
        if chirp and abs(chirp) <= 1.0:
            chirp = resolved_chirp(config, chirp).pump.chirp_fs2
        support, grids = scan_support(config)
        row = presets.merge_overrides(config, {"pump": {"chirp_fs2": chirp}})
        block = support.block(chirp)
        assert block.tobytes() == row_reference_block(support, row, grids).tobytes()

    def test_rejects_a_pump_off_its_grid(self):
        config = presets.preset_config("a")
        _, pm, signal_grid, idler_grid = scan_inputs(config)
        wider = FrequencyGrid(signal_grid.center, signal_grid.spacing,
                              signal_grid.count + 1)
        with pytest.raises(InvalidArgumentError, match="sum-frequency grid"):
            pdc.ScanSupport(presets.pump_spectrum(config, wider, idler_grid), pm,
                            signal_grid, idler_grid)

    def test_pump_off_the_ridge_rejected(self):
        # a normalized pump meets a 45-degree ridge on every antidiagonal,
        # so it is the ridge that misses: 1e-100 rad/fs wide, it underflows
        # to 0 at every grid point
        pump, _, signal_grid, idler_grid = scan_inputs(presets.preset_config("a"))
        pm = PhasematchingModel(30.0, 1e-100)
        for build in (build_jsa, pdc.ScanSupport):
            with pytest.raises(InvalidArgumentError, match="do not overlap"):
                build(pump, pm, signal_grid, idler_grid)


def _assert_flushed(values):
    """No part of a built amplitude lies in (0, sqrt(tiny)), and no zero
    carries a sign."""
    parts = values.view(float)
    magnitude = np.abs(parts)
    assert not np.any((magnitude > 0) & (magnitude < np.sqrt(np.finfo(float).tiny)))
    assert not np.any((parts == 0) & np.signbit(parts))


def assert_gram_inputs_flushed(scan, *args):
    """Run `scan(*args)` with every block that reaches the Gram product of
    :func:`pdc._block_purity` checked by :func:`_assert_flushed` on its way
    in; returns the scan's result."""
    calls = []

    def checked(block):
        _assert_flushed(block)
        calls.append(block.shape)
        return gram(block)

    gram = pdc._block_purity
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pdc, "_block_purity", checked)
        result = scan(*args)
    assert len(calls) == len(result)
    return result


class TestFlush:
    """`build_jsa`, `build_mapping` and a scan row's block set every part
    below sqrt(tiny) to +0, the real and the imaginary parts each through
    their own mask."""

    @pytest.mark.parametrize("chirp", SCAN_A_VALUES)
    def test_scan_rows(self, chirp):
        # every block a scan row hands to the Gram product
        assert_gram_inputs_flushed(presets.chirp_scan, [chirp], SCAN_CONFIG)

    @pytest.mark.parametrize("case", "abcd")
    def test_presets(self, case):
        # preset d's odd pump gives negative parts that underflow
        _assert_flushed(presets.build_state(presets.preset_config(case)).amplitudes)

    def test_pump_with_negative_zero_imaginary_parts(self):
        # a real odd pump, negative on one lobe, whose imaginary parts are
        # all -0.0
        pump, pm, signal_grid, idler_grid = scan_inputs(presets.preset_config("d"))
        values = np.empty_like(pump.amplitudes)
        values.real = pump.amplitudes.real
        values.imag = -0.0
        pump = ComplexSpectrum(pump.grid, values)
        assert np.all(np.signbit(pump.amplitudes.imag))
        assert np.any(pump.amplitudes.real < 0)
        _assert_flushed(build_jsa(pump, pm, signal_grid, idler_grid).amplitudes)

    @pytest.mark.parametrize("gate, skew", [(GateSpec(), 0.0), (GateSpec(), 0.5),
                                            (GateSpec(qpg_pump_shape_order=1), 0.0)],
                             ids=["qpg-map", "skew-0.5", "hg1-gate-pump"])
    def test_qpg_maps(self, gate, skew):
        # the skewed map holds ~45 000 nonzero parts below sqrt(tiny)
        # before the flush
        _assert_flushed(build_mapping(*gate.inputs(), skew).amplitudes)


NAN_ARRAY = np.full((3, 4), np.nan)
NAN_NEXT_TO_INF = np.array([[np.nan, np.inf, 0.0, 0.0],
                            [0.0, 0.0, 0.0, 0.0],
                            [0.0, 0.0, 0.0, 0.0]])


class TestNonFiniteRejected:
    """NaN compares False against any tolerance, so every check must be
    written to pass only on a finite value within it."""

    @pytest.mark.parametrize("values", [NAN_ARRAY, NAN_NEXT_TO_INF])
    def test_joint_amplitude(self, values):
        grids = make_grid(0.0, 1.0, 3), make_grid(0.0, 1.0, 4)
        with pytest.raises(InvalidArgumentError, match="not normalized"):
            JointSpectralAmplitude(*grids, values)

    @pytest.mark.parametrize("weights", [[np.nan], [np.inf, np.nan]])
    def test_schmidt_weights(self, weights):
        grid = make_grid(0.0, 16.0, 64)
        modes = np.eye(len(weights), grid.count)
        with pytest.raises(InvalidArgumentError):
            SchmidtDecomposition(weights=weights, signal_modes=modes,
                                 idler_modes=modes, signal_grid=grid)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
    @pytest.mark.parametrize("entries", [np.full((2, 2), np.nan),
                                         np.array([[np.nan, 0.0], [0.0, np.inf]])])
    def test_density_matrix(self, entries):
        with pytest.raises(InvalidArgumentError):
            ModalDensityMatrix(dimension=2, entries=entries)

    @pytest.mark.parametrize("leakage", [np.nan, -0.5, 7.0, np.inf])
    def test_density_matrix_leakage(self, leakage):
        with pytest.raises(InvalidArgumentError, match="leakage must lie in"):
            ModalDensityMatrix(dimension=2, entries=np.eye(2) / 2.0, leakage=leakage)


class TestSchmidtDecompose:
    def test_rank_one_input(self):
        dec = schmidt_decompose(product_jsa(), max_modes=5)
        assert abs(dec.weights[0] - 1.0) < 1e-8
        assert np.all(dec.weights[1:] < 1e-8)

    def test_odd_pump_weights_balanced(self):
        dec = schmidt_decompose(gaussian_jsa(pump_order=1), max_modes=4)
        assert abs(dec.weights[0] - 0.5) < 1e-3
        assert abs(dec.weights[1] - 0.5) < 1e-3

    def test_chirped_matches_analytic(self):
        chirp = 0.38e6
        jsa = gaussian_jsa(chirp=chirp)
        svd_purity = float(np.sum(schmidt_weights(jsa)**2))
        sigma_s, sigma_i = jsi_marginal_sigmas(jsa)
        assert abs(svd_purity - chirp_purity_analytic(chirp, sigma_s, sigma_i)) < 1e-3

    def test_modes_orthonormal(self):
        dec = schmidt_decompose(gaussian_jsa(pump_order=1, count=128), max_modes=6)
        for modes in (dec.signal_modes, dec.idler_modes):
            assert modes.shape == (6, 128)
            assert np.max(np.abs(modes @ modes.conj().T - np.eye(6))) < 1e-6

    def test_reconstruction_consistency(self):
        # unit-discrete-norm rows: the mode functions are u / sqrt(h_s) and
        # v / sqrt(h_i), so f = sum_k sqrt(w_k) u_k v_k / sqrt(h_s h_i)
        jsa = gaussian_jsa(pump_order=1, count=128)
        dec = schmidt_decompose(jsa, max_modes=40)
        assert dec.residual_weight < 1e-8
        rebuilt = ((dec.signal_modes.T * np.sqrt(dec.weights)) @ dec.idler_modes
                   / np.sqrt(jsa.cell_area))
        err = np.sqrt(np.sum(np.abs(jsa.amplitudes - rebuilt) ** 2) * jsa.cell_area)
        assert err < 1e-6

    def test_truncation_reports_residual(self):
        narrow_sigma = amplitude_width(769.0, 0.54)
        dec = schmidt_decompose(gaussian_jsa(pump_sigma=narrow_sigma), max_modes=2)
        assert dec.residual_weight > 1e-3
        assert abs(dec.weights.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("signal_rows, idler_rows", [(1, 2), (2, 1), (3, 3)])
    def test_one_mode_per_weight(self, signal_rows, idler_rows):
        grid = make_grid(0.0, 16.0, 8)
        with pytest.raises(InvalidArgumentError, match="one signal and one idler"):
            SchmidtDecomposition(weights=[0.75, 0.25],
                                 signal_modes=np.eye(signal_rows, grid.count),
                                 idler_modes=np.eye(idler_rows, 5), signal_grid=grid)

    def test_signal_modes_span_their_grid(self):
        # 7-sample rows on an 8-point grid would reach mode_overlap_matrix
        # and fail there in numpy's matmul
        grid = make_grid(0.0, 16.0, 8)
        with pytest.raises(InvalidArgumentError, match="7 samples on a grid of 8"):
            SchmidtDecomposition(weights=[1.0], signal_modes=np.eye(1, 7),
                                 idler_modes=np.eye(1, 5), signal_grid=grid)


def _gapped(full, j):
    """Whether Schmidt share `full[j]` is >= 1e-8 and its relative gap to
    its neighbours in the full spectrum `full` is >= 1e-3, so that its
    singular vectors are well determined."""
    neighbours = [full[i] for i in (j - 1, j + 1) if 0 <= i < full.size]
    gap = min((abs(full[j] - w) for w in neighbours), default=np.inf) / full[j]
    return full[j] >= 1e-8 and gap >= 1e-3


def _anchor_phase(mode):
    """The unit phase of the lowest-index sample of `mode` whose |u| is
    within 1e-9 (relative) of its largest."""
    magnitude = np.abs(mode)
    pivot = mode[np.flatnonzero(magnitude >= (1.0 - 1e-9) * magnitude.max())[0]]
    return pivot / abs(pivot)


def _assert_matches_svd(values, max_modes, reference=None):
    """The truncated decomposition of the unit-weight kernel of `values`,
    `values` / sqrt(||A||_F^2 h_s h_i) on a grid pair of spacings h_s and
    h_i, against the full SVD of `values`.

    Kept weights taken as shares of the full spectrum, and the residual,
    must match to 1e-12.  Every kept signal mode's anchor must be real
    positive.  Every mode of weight >= 1e-8 whose relative gap to its
    neighbours is >= 1e-3 must match to 1e-8 in norm, on both sides, the
    reference phase-fixed by the same lowest-index rule."""
    rows, cols = values.shape
    row_grid, col_grid = make_grid(0.0, 2.0, rows), make_grid(1.0, 3.0, cols)
    u_ref, s_ref, vh_ref = (np.linalg.svd(values, full_matrices=False)
                            if reference is None else reference)
    full = s_ref**2 / np.sum(s_ref**2)
    scale = np.sqrt(np.vdot(values, values).real * row_grid.spacing * col_grid.spacing)
    jsa = JointSpectralAmplitude(row_grid, col_grid, values / scale)
    dec = schmidt_decompose(jsa, max_modes)
    keep = min(max_modes, rows, cols)
    assert dec.signal_grid == row_grid
    assert dec.weights.shape == (keep,)
    assert dec.signal_modes.shape == (keep, rows)
    assert dec.idler_modes.shape == (keep, cols)
    assert np.max(np.abs(dec.weights * (1.0 - dec.residual_weight)
                         - full[:keep])) <= 1e-12
    assert abs(dec.residual_weight - full[keep:].sum()) <= 1e-12
    for j in range(keep):
        assert _anchor_phase(dec.signal_modes[j]) == pytest.approx(1.0, abs=1e-15)
        if not _gapped(full, j):
            continue
        phase = _anchor_phase(u_ref[:, j])
        assert np.linalg.norm(dec.signal_modes[j] - u_ref[:, j] * np.conj(phase)) <= 1e-8
        assert np.linalg.norm(dec.idler_modes[j] - vh_ref[j] * phase) <= 1e-8


@st.composite
def spectral_kernels(draw):
    """Complex 16-96 x 16-96 kernels of random rank whose singular values
    fall as exp(-decay k), with a max_modes from 1 to min(m, n) + 5."""
    rows = draw(st.integers(16, 96))
    cols = draw(st.integers(16, 96))
    rank = draw(st.integers(1, min(rows, cols)))
    decay = draw(st.floats(0.0, 2.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    left, right = (np.linalg.qr(rng.standard_normal((size, rank))
                                + 1j * rng.standard_normal((size, rank)))[0]
                   for size in (rows, cols))
    values = (left * np.exp(-decay * np.arange(rank))) @ right.conj().T
    return values, draw(st.integers(1, min(rows, cols) + 5))


@pytest.fixture(scope="module")
def qpg_map_kernel():
    """The 512 x 512 mapping function `tmsim qpg map` decomposes."""
    xi = build_mapping(*GateSpec().inputs())
    assert xi.amplitudes.shape == (512, 512)
    return xi


class TestTruncatedSchmidt:
    """The range-finder decomposition against ``np.linalg.svd``."""

    @settings(max_examples=200, deadline=None)
    @given(spectral_kernels())
    def test_matches_svd(self, kernel):
        _assert_matches_svd(*kernel)

    @pytest.fixture(scope="class")
    def preset_svds(self):
        cache = {}

        def get(case):
            if case not in cache:
                values = presets.build_state(presets.preset_config(case)).amplitudes
                cache[case] = values, np.linalg.svd(values, full_matrices=False)
            return cache[case]
        return get

    @pytest.mark.parametrize("max_modes", (1, 8, 20))
    @pytest.mark.parametrize("case", "abcd")
    def test_presets(self, preset_svds, case, max_modes):
        values, reference = preset_svds(case)
        assert values.shape == (512, 512)
        _assert_matches_svd(values, max_modes, reference)

    @pytest.mark.parametrize("max_modes", (1, 8, 20))
    def test_qpg_map_kernel(self, qpg_map_kernel, max_modes):
        _assert_matches_svd(qpg_map_kernel.amplitudes, max_modes)

    @pytest.fixture(scope="class")
    def scan_svd(self):
        values = build_jsa(*scan_inputs()).amplitudes
        return values, np.linalg.svd(values, full_matrices=False)

    @pytest.mark.parametrize("max_modes", (1, 8, 20))
    def test_chirp_scan_kernel(self, scan_svd, max_modes):
        # the 1024 x 1024 scan row at chirp 1e6 fs^2
        values, reference = scan_svd
        assert values.shape == (1024, 1024)
        _assert_matches_svd(values, max_modes, reference)

    def test_flat_spectrum(self):
        # singular values within 2e-10 of each other: any vector passes the
        # triplet misfit test, so only the missed-energy test widens the sketch
        rng = np.random.default_rng(0)
        left, right = (np.linalg.qr(rng.standard_normal((21, 21))
                                    + 1j * rng.standard_normal((21, 21)))[0]
                       for _ in range(2))
        _assert_matches_svd((left * np.exp(-1e-11 * np.arange(21))) @ right.conj().T, 4)

    @pytest.mark.parametrize("case", "abc")
    def test_gaussian_presets_follow_geometric_law(self, case):
        # a Gaussian kernel's full-spectrum shares are (1 - mu) mu^k with
        # mu = (1 - P) / (1 + P), so the 20 kept modes leave mu^20 behind;
        # measured max |share - law|: 3.3e-16 (a), 2.2e-16 (b), 4.0e-16 (c),
        # and |residual - mu^20| / mu^20: 9.4e-13 (b), 1.7e-15 (c); preset
        # a's residual, 5.3e-31, is the deflation's rounding floor
        jsa = presets.build_state(presets.preset_config(case))
        assert jsa.amplitudes.shape == (512, 512)
        dec = schmidt_decompose(jsa, max_modes=20)
        purity = schmidt_purity(jsa)
        mu = (1.0 - purity) / (1.0 + purity)
        law = (1.0 - mu) * mu ** np.arange(20)
        assert np.max(np.abs(dec.weights * (1.0 - dec.residual_weight) - law)) <= 2e-15
        assert abs(dec.residual_weight - mu**20) <= 1e-11 * mu**20 + 1e-28
        assert dec.separability == dec.weights[0] * (1.0 - dec.residual_weight)

    @settings(max_examples=30, deadline=None)
    @given(count=st.sampled_from([256, 512]), fwhm=st.floats(0.4, 2.0),
           angle=st.floats(30.0, 60.0), share=st.floats(-1.0, 1.0))
    def test_gaussian_sources_follow_geometric_law(self, count, fwhm, angle, share):
        # the law of the presets above over TestChirpOracleRegion's resolved
        # region.  Measured max of |share - law| and |residual - mu^20|:
        # <= 1.3e-15 while the pump's phase steps at most 0.6 x 3 rad
        # between grid neighbours (|share| <= 0.6; 200 random draws and the
        # corners fwhm 0.4-2 nm, angle 30-60 degrees); beyond, the sampled
        # kernel leaves the Gaussian long before its purity does: at 256
        # points 1.6e-12 (0.7), 3.9e-10 (0.8), 2.3e-8 (0.9) and 3.3e-7 at
        # the 3 rad edge, where the purity still holds to 1e-9
        config = resolved_chirp(presets.merge_overrides(presets.preset_config("a"), {
            "grid": {"count": count}, "pump": {"fwhm_nm": fwhm},
            "phasematching": {"angle_deg": angle}}), share)
        jsa = presets.build_state(config)
        dec = schmidt_decompose(jsa, max_modes=20)
        purity = schmidt_purity(jsa)
        mu = (1.0 - purity) / (1.0 + purity)
        law = (1.0 - mu) * mu ** np.arange(20)
        bound = 1e-14 if abs(share) <= 0.6 else 1e-6
        assert np.max(np.abs(dec.weights * (1.0 - dec.residual_weight) - law)) <= bound
        assert abs(dec.residual_weight - mu**20) <= bound

    def test_repeat_is_bit_identical(self):
        jsa = presets.build_state(presets.preset_config("c"))
        first, second = (schmidt_decompose(jsa, max_modes=20) for _ in range(2))
        assert first.weights.tobytes() == second.weights.tobytes()
        assert first.residual_weight == second.residual_weight
        assert first.signal_modes.tobytes() == second.signal_modes.tobytes()
        assert first.idler_modes.tobytes() == second.idler_modes.tobytes()


def _both_paths(jsa, max_modes):
    """``schmidt_decompose`` of the real kernel ``jsa`` and of i times it,
    which has the same singular values and takes the complex sketch."""
    turned = JointSpectralAmplitude(jsa.signal_grid, jsa.idler_grid, 1j * jsa.amplitudes)
    return schmidt_decompose(jsa, max_modes), schmidt_decompose(turned, max_modes)


class TestRealKernels:
    """A kernel whose imaginary part is zero everywhere is decomposed in
    real arithmetic, and agrees with the complex path to rounding.

    Each path's weights carry the rounding of its own QR and SVD steps,
    ~3e-16 from LAPACK's full SVD on preset b, so the two agree to a few
    units of 2^-53 of the total weight, not to one: measured max over
    150 random sources below 8.5 units on the weights and 5 on
    ``residual_weight``, 10.25 on preset b's weights, 1 on preset d's and
    0.08 on the gate mapping's.  The bound is 2^-48, 32 units.  The
    agreement holds where the range finder resolves every kept mode to
    rounding, as it does for smooth sources; near-degenerate weights at the
    cut are only pinned to the finder's 1e-10 tolerance on either path."""

    BOUND = 2.0 ** -48

    def assert_paths_agree(self, jsa, max_modes):
        assert not jsa.amplitudes.imag.any()
        real, turned = _both_paths(jsa, max_modes)
        assert np.max(np.abs(real.weights - turned.weights)) <= self.BOUND
        assert abs(real.residual_weight - turned.residual_weight) <= self.BOUND

    @settings(max_examples=25, deadline=None)
    @given(count=st.integers(64, 512), fwhm=st.floats(0.4, 2.0),
           angle=st.floats(30.0, 60.0), order=st.sampled_from([0, 1]),
           shape=st.sampled_from(_PM_SHAPES), max_modes=st.integers(1, 20))
    def test_sources_match_the_complex_path(self, count, fwhm, angle, order, shape,
                                            max_modes):
        self.assert_paths_agree(presets.build_state(presets.merge_overrides(
            presets.preset_config("a"), {
                "grid": {"count": count},
                "pump": {"fwhm_nm": fwhm, "shape_order": order},
                "phasematching": {"angle_deg": angle, "shape": shape}})), max_modes)

    @pytest.mark.parametrize("case", "abd")
    def test_presets_match_the_complex_path(self, case):
        self.assert_paths_agree(presets.build_state(presets.preset_config(case)), 20)

    def test_gate_mapping_matches_the_complex_path(self, qpg_map_kernel):
        self.assert_paths_agree(qpg_map_kernel, 20)

    def test_sketch_follows_the_kernel(self, monkeypatch):
        # a zero imaginary part of either sign takes the real sketch; one
        # subnormal imaginary entry, or a chirp, takes the complex one
        seen, triplets = [], pdc._leading_triplets
        monkeypatch.setattr(pdc, "_leading_triplets",
                            lambda values, *args: seen.append(values.dtype) or
                            triplets(values, *args))
        jsa = presets.build_state(presets.merge_overrides(
            presets.preset_config("a"), {"grid": {"count": 64}}))
        negative_zero = jsa.amplitudes.copy()
        negative_zero.imag = -0.0
        assert np.signbit(negative_zero.imag).all()
        tiny = jsa.amplitudes.copy()
        tiny[0, 0] += 5e-324j
        chirped = presets.build_state(presets.preset_config("c"))
        for values in (jsa.amplitudes, negative_zero, tiny):
            schmidt_decompose(JointSpectralAmplitude(jsa.signal_grid, jsa.idler_grid,
                                                     values), 4)
        schmidt_decompose(chirped, 4)
        assert seen == [np.float64, np.float64, np.complex128, np.complex128]


class TestPurityAndG2:
    def test_g2_values(self):
        assert g2_from_purity(1.0) == 2.0
        assert g2_from_purity(0.5) == 1.5
        assert g2_from_purity(0.929) == pytest.approx(1.929)

    def test_g2_range_check(self):
        with pytest.raises(InvalidArgumentError):
            g2_from_purity(1.5)
        with pytest.raises(InvalidArgumentError):
            g2_from_purity(-0.1)


def _normalized(values, cell_area):
    """A normalized kernel carrying the three attributes the weight and
    purity functions read, its marginals from the helper the amplitude's
    own ``marginals`` use; it also takes 1 x n and n x 1 shapes, which no
    frequency grid pair can (a grid needs two points)."""
    amplitudes = values / (np.linalg.norm(values) * np.sqrt(cell_area))
    return SimpleNamespace(amplitudes=amplitudes, cell_area=cell_area,
                           marginals=pdc._intensity_marginals(amplitudes))


_ENTRY = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


@st.composite
def kernels(draw):
    """Random complex kernels: full-rank, rank-one or rank-one plus a 1e-7
    perturbation, in square, tall, wide and single-row/column shapes."""
    rows = draw(st.integers(1, 12))
    cols = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["full", "rank-one", "near-rank-one"]))
    if kind == "full":
        values = draw(hnp.arrays(np.complex128, (rows, cols), elements=_ENTRY))
    else:
        u = draw(hnp.arrays(np.complex128, rows, elements=_ENTRY))
        v = draw(hnp.arrays(np.complex128, cols, elements=_ENTRY))
        values = np.outer(u, v)
        if kind == "near-rank-one":
            values = values + 1e-7 * draw(
                hnp.arrays(np.complex128, (rows, cols), elements=_ENTRY))
    assume(np.linalg.norm(values) > 0)
    return _normalized(values, draw(st.floats(1e-6, 1e3)))


def _spectrum_purity(jsa) -> float:
    return float(np.sum(schmidt_weights(jsa) ** 2))


def _gram_purity(values) -> float:
    """Purity from the complex Gram matrix of the whole kernel."""
    gram = values @ values.conj().T
    return float(np.vdot(gram, gram).real / np.trace(gram).real ** 2)


#: the crop's stated bound |P_crop - P| <= 2^-53 P, plus the rounding of
#: forming either Gram matrix on kernels of at most 12 x 12
_CROP_BOUND = 2.0**-53 + 1e-13


@st.composite
def framed_kernels(draw):
    """A random core of up to 6 x 6 in a frame of up to three rows or
    columns per side; each side's strip weighs a drawn multiple of the
    crop tolerance (the core has unit weight), on either side of 1."""
    core = draw(hnp.arrays(np.complex128, (draw(st.integers(1, 6)),
                                           draw(st.integers(1, 6))),
                           elements=_ENTRY))
    assume(np.linalg.norm(core) > 0)
    top, bottom, left, right = (draw(st.integers(0, 3)) for _ in range(4))
    rows, cols = core.shape[0] + top + bottom, core.shape[1] + left + right
    values = np.zeros((rows, cols), dtype=complex)
    values[top:rows - bottom, left:cols - right] = core / np.linalg.norm(core)
    tolerance = 2.0**-57 / min(rows, cols)
    for strip in (np.s_[:top, :], np.s_[rows - bottom:, :],
                  np.s_[top:rows - bottom, :left],
                  np.s_[top:rows - bottom, cols - right:]):
        noise = draw(hnp.arrays(np.complex128, values[strip].shape, elements=_ENTRY))
        if np.linalg.norm(noise) > 0:
            share = draw(st.sampled_from([0.0, 0.25, 0.99, 1.01, 4.0, 1e6]))
            values[strip] = noise * np.sqrt(share * tolerance) / np.linalg.norm(noise)
    return _normalized(values, draw(st.floats(1e-6, 1e3)))


class TestSchmidtPurity:
    @settings(max_examples=200, deadline=None)
    @given(kernels())
    @example(_normalized(np.ones((1, 7), dtype=complex), 1.0))
    @example(_normalized(np.ones((7, 1), dtype=complex), 0.3))
    @example(_normalized(np.eye(5, dtype=complex), 2.0))
    @example(_normalized(np.arange(12, dtype=complex).reshape(3, 4) ** 2, 1e-4))
    # Im G = 0; Re G = 0; and a tall kernel, whose Gram is over its columns
    @example(_normalized(np.arange(20).reshape(4, 5) % 7 + 0j, 1.0))
    @example(_normalized(1j * (np.arange(20).reshape(5, 4) % 3 + 1.0), 0.5))
    @example(_normalized(np.arange(24).reshape(8, 3) % 5
                         + 1j * (np.arange(24).reshape(8, 3) % 4), 1e-2))
    def test_matches_weight_spectrum(self, jsa):
        assert schmidt_purity(jsa) == pytest.approx(_spectrum_purity(jsa), rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(framed_kernels())
    # an exactly-zero border; a flat kernel, of which nothing is cropped
    @example(_normalized(np.pad(np.arange(1, 7).reshape(2, 3) + 1j, 2), 1.0))
    @example(_normalized(np.ones((6, 9), dtype=complex), 0.5))
    # 1 x n and n x 1 kernels with negligible ends
    @example(_normalized(np.array([[1e-30, 1e-9, 1.0, 2.0, 1e-25]], dtype=complex), 1.0))
    @example(_normalized(np.array([[0.0], [1e-20], [3.0], [1j], [0.0]]), 2.0))
    # all weight in one row, the rest exactly zero: purity 1
    @example(_normalized(np.pad(np.arange(1, 6)[None, :] * (1 + 2j), ((3, 4), (0, 0))),
                         1.0))
    def test_crop_keeps_untruncated_purity(self, jsa):
        a = jsa.amplitudes
        assert abs(schmidt_purity(jsa) - _gram_purity(a)) <= _CROP_BOUND * _gram_purity(a)
        # the dropped runs are the longest whose weight per end is within
        # eps ||A||_F^2, eps = 2^-57 / min(n, m) (a 1e-12 slack leaves ties
        # to rounding)
        weights = np.abs(a) ** 2
        tolerance = 2.0**-57 / min(a.shape) * weights.sum()
        for span, axis in zip(pdc._support_block(*jsa.marginals), (1, 0)):
            w = weights.sum(axis=axis)
            assert 0 <= span.start < span.stop <= w.size
            assert w[:span.start].sum() <= tolerance * (1 + 1e-12)
            assert w[span.stop:].sum() <= tolerance * (1 + 1e-12)
            assert w[:span.start + 1].sum() > tolerance * (1 - 1e-12)
            assert w[span.stop - 1:].sum() > tolerance * (1 - 1e-12)

    def test_scan_row_crops_its_border(self):
        # the 1024 x 1024 grid is sized for the 7-mode basis, so the Gram of
        # a scan row is formed over ~58% of its rows and of its columns
        jsa = presets.build_state(SCAN_ROW_CONFIG)
        # the marginals are computed once, read-only, and shared with
        # jsi_marginal_sigmas
        assert jsa.marginals is jsa.marginals
        assert not any(m.flags.writeable for m in jsa.marginals)
        for span in pdc._support_block(*jsa.marginals):
            assert span.stop - span.start <= 0.6 * 1024

    def test_scan_row_peak(self):
        # the 1024 x 1024 row at 3.8e5 fs^2: the 592 x 592 block is read in
        # place and Q - Q^T overwrites Q, so one n x n product and one strip
        # are the peak (3.27 MiB; a second product would add 2.67 MiB)
        jsa = presets.build_state(presets.merge_overrides(
            SCAN_CONFIG, {"pump": {"chirp_fs2": 3.8e5}}))
        jsa.marginals  # cached on the amplitude, outside the purity's own peak
        tracemalloc.start()
        try:
            schmidt_purity(jsa)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20

    @pytest.mark.parametrize("chirp", (0.0, 1e6))
    def test_2048_grid(self, chirp):
        config = presets.merge_overrides(
            SCAN_CONFIG, {"grid": {"count": 2048}, "pump": {"chirp_fs2": chirp}})
        jsa = presets.build_state(config)
        purity = schmidt_purity(jsa)
        analytic = chirp_purity_analytic(chirp, *jsi_marginal_sigmas(jsa))
        assert abs(purity - analytic) <= 1e-12
        a = jsa.amplitudes
        gram = a.conj().T @ a
        complex_purity = float(np.vdot(gram, gram).real / np.trace(gram).real ** 2)
        assert purity == pytest.approx(complex_purity, rel=1e-12)

    @pytest.mark.parametrize("case", "abcd")
    def test_presets(self, case):
        jsa = presets.build_state(presets.preset_config(case))
        assert jsa.amplitudes.shape == (512, 512)
        assert schmidt_purity(jsa) == pytest.approx(_spectrum_purity(jsa), rel=1e-12)
        # build_jsa flushes the parts whose products underflow, which slow
        # the Gram product
        parts = np.abs(jsa.amplitudes.view(float))
        assert not np.any((parts > 0) & (parts < np.sqrt(np.finfo(float).tiny)))


def reference_chirp_scan(chirp_values, config, background_fraction=0.04):
    """The scan loop as written before ``schmidt_purity``: purity from the
    full SVD weight spectrum."""
    rows = []
    for chirp in chirp_values:
        run_cfg = presets.merge_overrides(config, {"pump": {"chirp_fs2": float(chirp)}})
        jsa = presets.build_state(run_cfg)
        weights = schmidt_weights(jsa)
        svd_purity = float(np.sum(weights**2))
        sigma_s, sigma_i = jsi_marginal_sigmas(jsa)
        analytic = chirp_purity_analytic(float(chirp), sigma_s, sigma_i)
        g2 = g2_from_purity(svd_purity)
        mixed = background_mixed_g2(g2, 1.0 - background_fraction,
                                    background_fraction)
        rows.append({"chirp_fs2": float(chirp),
                     "analytic_purity": analytic,
                     "svd_purity": svd_purity,
                     "g2": g2,
                     "g2_background_mixed": mixed})
    return rows


class TestChirpScanRows:
    """The 1024 x 1024 scan of the benchmark, against the SVD loop."""

    @pytest.fixture(scope="class")
    def scans(self):
        return (presets.chirp_scan(SCAN_A_VALUES, SCAN_CONFIG),
                reference_chirp_scan(SCAN_A_VALUES, SCAN_CONFIG))

    def test_purity_matches_weight_spectrum(self, scans):
        rows, reference = scans
        assert [r["svd_purity"] for r in rows] == pytest.approx(
            [r["svd_purity"] for r in reference], rel=1e-12)

    def test_rows_match_reference_loop(self, scans):
        # the scan's widths come from the chirp-independent intensity
        # |pump| x ridge, not from each row's amplitude: rounding apart
        rows, reference = scans
        assert [list(r) for r in rows] == [list(r) for r in reference]
        for row, ref in zip(rows, reference):
            assert row["chirp_fs2"] == ref["chirp_fs2"]
            assert row["analytic_purity"] == pytest.approx(ref["analytic_purity"],
                                                           rel=1e-14)
            for key in ("svd_purity", "g2", "g2_background_mixed"):
                assert row[key] == pytest.approx(ref[key], rel=1e-12)

    def test_rows_match_single_state_path(self, scans):
        # the crop and widths come from the chirp-independent intensity, and
        # each row's block is its amplitude's crop to rounding
        # (TestScanRowsProperty measures the gap)
        rows, _ = scans
        for chirp, row in zip(SCAN_A_VALUES, rows):
            jsa = presets.build_state(
                presets.merge_overrides(SCAN_CONFIG, {"pump": {"chirp_fs2": chirp}}))
            assert row["svd_purity"] == pytest.approx(schmidt_purity(jsa), rel=1e-14)
            assert row["analytic_purity"] == pytest.approx(
                chirp_purity_analytic(chirp, *jsi_marginal_sigmas(jsa)), rel=1e-14)

    def test_two_row_scan_peak(self):
        # sampling: the 8 MiB ridge and the 2.67 MiB ridge on the 592 x 592
        # crop; a row: that crop ridge, its 5.35 MiB complex block and the
        # Gram's 2.67 MiB product.  Measured 11.35 MiB (32.3 MiB while each
        # row built its full 1024 x 1024 amplitude); the bound leaves 0.65 MiB
        tracemalloc.start()
        try:
            presets.chirp_scan(SCAN_A_VALUES[:2], SCAN_CONFIG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2**20

    def test_purity_follows_closed_form(self, scans):
        # the pump is evaluated at the JSA's own sums, so only rounding
        # separates the Gram purity from the chirp law
        rows, _ = scans
        for row in rows:
            assert abs(row["svd_purity"] - row["analytic_purity"]) <= 1e-12


#: largest phase step (rad) of the chirped pump between grid neighbours at
#: 3 sigma of its amplitude in the resolved region; at 512 x 512, 1.5e6 fs^2
#: steps 3.07 rad and 4e6 fs^2 already misses the closed form by 2%
_RESOLVED_STEP = 3.0


def resolved_chirp(config, share):
    """`config` with `share` (in [-1, 1]) of the largest chirp its grid
    resolves by `_RESOLVED_STEP`."""
    spacing = presets.experiment_grids(config)[0].spacing
    chirp = share * _RESOLVED_STEP / (
        2.0 * 3.0 * config.pump.amplitude_sigma() * spacing)
    return presets.merge_overrides(config, {"pump": {"chirp_fs2": chirp}})


class TestChirpOracleRegion:
    """`schmidt_purity` follows the closed-form chirp law over the whole
    region where the grid resolves the pump's phase, not at one point."""

    @settings(max_examples=30, deadline=None)
    @given(count=st.sampled_from([256, 512]), share=st.floats(-1.0, 1.0))
    def test_purity_follows_closed_form(self, count, share):
        config = resolved_chirp(presets.merge_overrides(
            presets.preset_config("a"), {"grid": {"count": count}}), share)
        jsa = presets.build_state(config)
        analytic = chirp_purity_analytic(config.pump.chirp_fs2,
                                         *jsi_marginal_sigmas(jsa))
        assert abs(schmidt_purity(jsa) - analytic) <= 1e-9


class TestScanRowsProperty:
    """Every scan row against the single-state path, over sources: each
    row's purity within 1e-14 of `schmidt_purity` of `build_state` of its
    configuration, and the scan's widths within 1e-14 of its
    `jsi_marginal_sigmas` (measured over 360 rows: <= 8.2e-16 and
    <= 4.2e-16); every block that reaches a row's Gram is flushed."""

    @settings(max_examples=25, deadline=None)
    @given(count=st.integers(64, 512), fwhm=st.floats(0.4, 2.0),
           angle=st.floats(30.0, 60.0), order=st.sampled_from([0, 1]),
           shape=st.sampled_from(_PM_SHAPES),
           shares=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3))
    def test_rows_match_single_state_path(self, count, fwhm, angle, order, shape,
                                          shares):
        config = presets.merge_overrides(presets.preset_config("a"), {
            "grid": {"count": count},
            "pump": {"fwhm_nm": fwhm, "shape_order": order},
            "phasematching": {"angle_deg": angle, "shape": shape}})
        chirps = [resolved_chirp(config, share).pump.chirp_fs2 for share in shares]
        rows = assert_gram_inputs_flushed(presets.chirp_scan, chirps, config)
        widths = scan_support(config)[0].sigmas
        for chirp, row in zip(chirps, rows):
            jsa = presets.build_state(
                presets.merge_overrides(config, {"pump": {"chirp_fs2": chirp}}))
            assert row["svd_purity"] == pytest.approx(schmidt_purity(jsa), rel=1e-14)
            sigmas = jsi_marginal_sigmas(jsa)
            assert widths == pytest.approx(sigmas, rel=1e-14)
            assert row["analytic_purity"] == pytest.approx(
                chirp_purity_analytic(chirp, *sigmas), rel=1e-14)


class TestPurityBenchmarks:
    """Purity from the Gram identity against the full weight spectrum, the
    reduced state and the truncated decompositions, on 512 x 512 kernels;
    what a 1024 x 1024 chirp scan runs, its once-per-scan sampling with one
    row at chirp 1e6 fs^2, and the six-row scan; the purity of that row's
    full amplitude at 1024 x 1024 and 2048 x 2048.  pytest-benchmark prints
    them with ``pytest --benchmark-only -k Purity``."""

    jsa = presets.build_state(presets.preset_config("b"))

    def test_scan_sampling_and_row(self, benchmark):
        # a scan's ScanSupport from the unchirped pump, then one row
        unchirped, pm, signal_grid, idler_grid = scan_inputs(SCAN_CONFIG)

        def sample_and_row():
            support = pdc.ScanSupport(unchirped, pm, signal_grid, idler_grid)
            return support.purity(1e6), support.sigmas

        purity, sigmas = benchmark.pedantic(sample_and_row, rounds=3, iterations=1)
        assert abs(purity - chirp_purity_analytic(1e6, *sigmas)) <= 1e-12

    def test_schmidt_purity_scan_row(self, benchmark):
        jsa = presets.build_state(SCAN_ROW_CONFIG)
        purity = benchmark.pedantic(schmidt_purity, args=(jsa,),
                                    rounds=3, iterations=1)
        analytic = chirp_purity_analytic(1e6, *jsi_marginal_sigmas(jsa))
        assert abs(purity - analytic) <= 1e-12

    def test_schmidt_purity_scan_row_2048(self, benchmark):
        config = presets.merge_overrides(SCAN_ROW_CONFIG, {"grid": {"count": 2048}})
        jsa = presets.build_state(config)
        purity = benchmark.pedantic(schmidt_purity, args=(jsa,),
                                    rounds=3, iterations=1)
        analytic = chirp_purity_analytic(1e6, *jsi_marginal_sigmas(jsa))
        assert abs(purity - analytic) <= 1e-12

    def test_chirp_scan_1024(self, benchmark):
        # the library cost of the chirp-scan-1024 workload's six rows
        rows = benchmark.pedantic(presets.chirp_scan, args=(SCAN_A_VALUES, SCAN_CONFIG),
                                  rounds=3, iterations=1)
        assert [row["chirp_fs2"] for row in rows] == list(SCAN_A_VALUES)
        for row in rows:
            assert abs(row["svd_purity"] - row["analytic_purity"]) <= 1e-12

    def test_schmidt_purity(self, benchmark):
        purity = benchmark.pedantic(schmidt_purity, args=(self.jsa,),
                                    rounds=3, iterations=1)
        assert 0.0 < purity < 1.0

    def test_schmidt_weights(self, benchmark):
        weights = benchmark.pedantic(schmidt_weights, args=(self.jsa,),
                                     rounds=3, iterations=1)
        assert weights.size == 512

    def test_reduced_density_matrix(self, benchmark):
        basis = presets.tomography_basis(presets.preset_config("b"))
        rho = benchmark.pedantic(reduced_density_matrix, args=(self.jsa, basis, 7),
                                 rounds=3, iterations=1)
        assert rho.leakage < 0.1  # 0.025: inside the band that does not warn

    @pytest.mark.parametrize("max_modes", (20, 1))
    def test_schmidt_decompose(self, benchmark, max_modes):
        dec = benchmark.pedantic(schmidt_decompose, args=(self.jsa, max_modes),
                                 rounds=3, iterations=1)
        assert dec.weights.size == max_modes

    def test_separability_report(self, benchmark, qpg_map_kernel):
        report = benchmark.pedantic(separability_report, args=(qpg_map_kernel,),
                                    rounds=3, iterations=1)
        assert 0.99 < report.separability <= 1.0


class TestJsaKernelBenchmarks:
    """Timing of `build_jsa` on the full 1024 x 1024 amplitude of the
    chirp-scan configuration at chirp 1e6 fs^2, against its 2047-point
    pump, and on the same state at 2048 x 2048, as `build_state` builds
    them (a scan row forms only its crop); pytest-benchmark prints them
    with ``pytest --benchmark-only -k Kernel``."""

    inputs = scan_inputs()

    def test_build_jsa(self, benchmark):
        pump = self.inputs[0]
        assert pump.grid.count == 2047
        jsa = benchmark.pedantic(build_jsa, args=self.inputs, rounds=3, iterations=1)
        assert jsa.amplitudes.shape == (1024, 1024)

    def test_build_jsa_2048(self, benchmark):
        inputs = scan_inputs(presets.merge_overrides(SCAN_ROW_CONFIG,
                                                     {"grid": {"count": 2048}}))
        jsa = benchmark.pedantic(build_jsa, args=inputs, rounds=3, iterations=1)
        assert jsa.amplitudes.shape == (2048, 2048)


class TestReducedDensityMatrix:
    def test_matched_state_is_basis_aligned(self):
        jsa = gaussian_jsa()
        width = fit_basis_width(schmidt_decompose(jsa, max_modes=10))
        basis = HermiteGaussParams(order=0, center=1.223, width=width)
        rho = reduced_density_matrix(jsa, basis, 7)
        assert abs(rho.entries[0, 0].real - 1.0) < 1e-3
        assert rho.leakage < 1e-3

    def test_odd_pump_occupies_first_two_modes(self):
        # the matched-state basis width also diagonalizes the odd-pump state
        basis = HermiteGaussParams(order=0, center=1.223,
                                   width=PUMP_SIGMA / np.sqrt(2.0))
        rho = reduced_density_matrix(gaussian_jsa(pump_order=1), basis, 7)
        diag = np.diag(rho.entries).real
        assert abs(diag[0] - 0.5) < 5e-3
        assert abs(diag[1] - 0.5) < 5e-3

    def test_purity_consistent_with_weights(self):
        # basis fitted to this state's own dominant mode, so the first
        # seven modes capture essentially all of the mixture
        narrow_sigma = amplitude_width(769.0, 0.54)
        jsa = gaussian_jsa(pump_sigma=narrow_sigma)
        dec = schmidt_decompose(jsa, max_modes=20)
        basis = HermiteGaussParams(order=0, center=1.223,
                                   width=fit_basis_width(dec))
        rho = reduced_density_matrix(jsa, basis, 7)
        assert abs(rho.purity() - np.sum(dec.weights**2)) < 1e-3

    def test_badly_mismatched_basis_raises(self):
        tiny = HermiteGaussParams(order=0, center=1.223,
                                  width=PUMP_SIGMA / np.sqrt(2.0) / 40.0)
        with pytest.raises(BasisMismatchError):
            reduced_density_matrix(gaussian_jsa(), tiny, 2)

    def test_moderately_mismatched_basis_warns(self):
        # width ratio 3 captures ~60% of a Gaussian, inside the warning band
        offset = HermiteGaussParams(order=0, center=1.223,
                                    width=PUMP_SIGMA / np.sqrt(2.0) / 3.0)
        with pytest.warns(UserWarning, match="leakage"):
            reduced_density_matrix(gaussian_jsa(), offset, 2)

    @pytest.mark.parametrize("case", "bcd")
    def test_is_the_partial_trace_of_the_full_spectrum(self, case):
        # rho_mn = sum_k gamma_k <HG_m|psi_k><psi_k|HG_n> over every Schmidt
        # mode of the full SVD, none truncated; preset c's 20 leading modes
        # leave out 1.6e-5 of its weight
        config = presets.preset_config(case)
        jsa = presets.build_state(config)
        basis = presets.tomography_basis(config)
        grid = jsa.signal_grid
        hg = np.array([hg_mode(HermiteGaussParams(order=m, center=basis.center,
                                                  width=basis.width), grid).amplitudes
                       for m in range(7)])
        u_mat, svals, _ = np.linalg.svd(jsa.amplitudes, full_matrices=False)
        gamma = svals**2 * jsa.cell_area
        overlaps = np.sqrt(grid.spacing) * hg.conj() @ u_mat  # <HG_m|psi_k>
        expected = (overlaps * gamma) @ overlaps.conj().T
        leakage = 1.0 - np.trace(expected).real
        with warnings.catch_warnings():  # preset c leaks 0.31 of its weight
            warnings.simplefilter("ignore", BasisMismatchWarning)
            rho = reduced_density_matrix(jsa, basis, 7)
        assert abs(rho.leakage - leakage) <= 1e-12
        np.testing.assert_allclose(rho.entries, expected / (1.0 - leakage),
                                   rtol=0, atol=1e-12)

    def test_overlap_matrix_shape(self):
        dec = schmidt_decompose(gaussian_jsa(count=128), max_modes=4)
        basis = HermiteGaussParams(order=0, center=1.223,
                                   width=PUMP_SIGMA / np.sqrt(2.0))
        coeffs = mode_overlap_matrix(dec, basis, 5)
        assert coeffs.shape == (4, 5)

        # the values on preset d: |<HG_m|psi_k>|^2 against LAPACK's modes,
        # |sqrt(h_s) conj(B) u_ref|^2, for every gapped mode
        config = presets.preset_config("d")
        jsa = presets.build_state(config)
        basis = presets.tomography_basis(config)
        coeffs = mode_overlap_matrix(schmidt_decompose(jsa, max_modes=8), basis, 7)
        assert coeffs.shape == (8, 7)
        u_ref, s_ref, _ = np.linalg.svd(jsa.amplitudes, full_matrices=False)
        full = s_ref**2 / np.sum(s_ref**2)
        grid = jsa.signal_grid
        expected = np.sqrt(grid.spacing) * pdc.hg_basis(basis, 7, grid).conj() @ u_ref
        gapped = [j for j in range(8) if _gapped(full, j)]
        assert gapped
        for j in gapped:
            np.testing.assert_allclose(np.abs(coeffs[j]) ** 2,
                                       np.abs(expected[:, j]) ** 2, rtol=0, atol=1e-10)


def gaussian_rho_oracle(config):
    """Grid-free reduced state and leakage of a Gaussian source (order-0
    pump, Gaussian ridge) in its Hermite-Gauss tomography basis.

    In the offsets v = (x, y) from the grid centres the amplitude is
    exp(-v^T M v / 2).  With the basis's generating function
    g(x, t) = sum_m phi_m(x) t^m / sqrt(m!), sum rho_mn t^m u^n / sqrt(m! n!)
    is a Gaussian integral over (x, x', y), c exp([t u] R [t u]^T / 2), so
    each entry is a finite sum of its Taylor coefficients.  Returns the
    unit-trace matrix and 1 - trace, the leakage, as the sampled state does.
    """
    sigma, chirp = config.pump.amplitude_sigma(), config.pump.chirp_fs2
    pm, wb = config.phasematching.model(), config.basis.width()
    s, c = np.sin(np.deg2rad(pm.angle_deg)), np.cos(np.deg2rad(pm.angle_deg))
    m = ((1 / sigma**2 - 2j * chirp) * np.ones((2, 2))
         + np.array([[s * s, -s * c], [-s * c, c * c]]) / pm.width**2)
    k = np.array([[m[0, 0] + 1 / wb**2, 0, m[0, 1]],
                  [0, np.conj(m[0, 0]) + 1 / wb**2, np.conj(m[0, 1])],
                  [m[0, 1], np.conj(m[0, 1]), 2 * m[1, 1].real]])
    r = 2 * np.linalg.inv(k)[:2, :2] / wb**2 - np.eye(2)
    # (2 pi)^(3/2) / sqrt(det K) over the weight pi / sqrt(det Re M) and the
    # squared norm sqrt(pi) wb of g
    scale = 2 * np.sqrt(2 * np.linalg.det(m.real) / np.linalg.det(k).real) / wb
    d, fact = config.basis.dimension, math.factorial
    rho = np.zeros((d, d), dtype=complex)
    for p in range(d):
        for q in range(p % 2, d, 2):
            rho[p, q] = scale * math.sqrt(fact(p) * fact(q)) * sum(
                r[0, 1] ** j / fact(j) * (r[0, 0] / 2) ** ((p - j) // 2)
                / fact((p - j) // 2) * (r[1, 1] / 2) ** ((q - j) // 2) / fact((q - j) // 2)
                for j in range(p % 2, min(p, q) + 1, 2))
    trace = rho.trace().real
    return rho / trace, 1.0 - trace


class TestGaussianOracle:
    """`reduced_density_matrix` against :func:`gaussian_rho_oracle`, entry
    by entry: within 2e-15 for rho and 1e-14 for the leakage, on presets a-c
    at 256, 512 and 1024 points (measured <= 3.3e-16 and 6.7e-16) and on
    Gaussian sources whose chirp lies in `TestChirpOracleRegion`'s resolved
    region (over 400 draws <= 3.3e-16 and 4.2e-15).  Draws the basis cannot
    hold, leakage above 0.49, are skipped: the sampled state raises above 0.5."""

    @staticmethod
    def _assert_matches(config):
        rho, leakage = gaussian_rho_oracle(config)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BasisMismatchWarning)
            got = reduced_density_matrix(presets.build_state(config),
                                         presets.tomography_basis(config),
                                         config.basis.dimension)
        assert np.abs(got.entries - rho).max() <= 2e-15
        assert abs(got.leakage - max(leakage, 0.0)) <= 1e-14

    @pytest.mark.parametrize("count", [256, 512, 1024])
    @pytest.mark.parametrize("case", "abc")
    def test_presets(self, case, count):
        self._assert_matches(presets.merge_overrides(presets.preset_config(case),
                                                     {"grid": {"count": count}}))

    @settings(max_examples=30, deadline=None)
    @given(count=st.sampled_from([256, 512]), fwhm=st.floats(0.4, 2.0),
           angle=st.floats(30.0, 60.0), share=st.floats(-1.0, 1.0))
    def test_gaussian_sources(self, count, fwhm, angle, share):
        config = resolved_chirp(presets.merge_overrides(presets.preset_config("a"), {
            "grid": {"count": count}, "pump": {"fwhm_nm": fwhm},
            "phasematching": {"angle_deg": angle}}), share)
        assume(gaussian_rho_oracle(config)[1] <= 0.49)
        self._assert_matches(config)


class TestFitBasisWidth:
    def test_recovers_matched_mode_width(self):
        dec = schmidt_decompose(gaussian_jsa(), max_modes=1)
        width = fit_basis_width(dec)
        assert width == pytest.approx(PUMP_SIGMA / np.sqrt(2.0), rel=1e-4)

    @pytest.mark.parametrize("count", [64, 512, 1024])
    @pytest.mark.parametrize("signal_center_nm", [1540.0, 1530.0])
    def test_reference_width_is_the_fitted_width(self, count, signal_center_nm):
        # the frozen basis's closed form against a fit to the reference
        # source's dominant mode; they agree to 3.1e-8, the fit's resolution
        grid = presets.GridConfig(count=count, signal_center_nm=signal_center_nm)
        reference = presets.build_state(presets.ExperimentConfig(grid=grid))
        width = fit_basis_width(schmidt_decompose(reference, max_modes=1))
        assert presets.REFERENCE_WIDTH == pytest.approx(width, rel=1e-5)


class TestChirpPurityAnalytic:
    def test_unchirped(self):
        assert chirp_purity_analytic(0.0, 1.0, 2.0) == 1.0

    def test_algebraic_point(self):
        # 16 A^2 s_s^2 s_i^2 = 3  ->  purity 1/2
        sigma = 1.0
        chirp = np.sqrt(3.0 / 16.0)
        assert chirp_purity_analytic(chirp, sigma, sigma) == pytest.approx(0.5)

    def test_measured_marginals_bracket_reported_purity(self):
        # signal 4.9 nm at 1540 nm, idler 3.6 nm at the energy-conserving partner
        sigma_s = convert_bandwidth(1540.0, 4.9)
        idler_nm = 1.0 / (1.0 / 769.0 - 1.0 / 1540.0)
        sigma_i = convert_bandwidth(idler_nm, 3.6)
        purity = chirp_purity_analytic(0.38e6, sigma_s, sigma_i)
        assert 0.30 < purity < 0.38

    @pytest.mark.parametrize("chirp, sigma", [
        (1e200, 0.01),  # the chirp's square exceeds the largest double
        (1e150, 1e10),  # the finite square times the widths does
        (np.float64(1e200), np.float64(0.01)),
    ])
    def test_beyond_largest_double_is_the_limit(self, chirp, sigma):
        assert chirp_purity_analytic(chirp, sigma, sigma) == 0.0


class TestPhotonNumberInference:
    def test_reported_values(self):
        mean_n = mean_photon_from_g11(8.303, 1.929)
        assert 0.15 < mean_n < 0.16

    def test_inversion_identity(self):
        for n in (0.1, 0.5, 2.0):
            assert mean_photon_from_g11(2.0 + 1.0 / n, 2.0) == pytest.approx(n)

    def test_unphysical_rejected(self):
        with pytest.raises(InvalidArgumentError):
            mean_photon_from_g11(1.5, 2.0)


class TestBackgroundMixedG2:
    def test_no_background(self):
        assert background_mixed_g2(1.7, 100.0, 0.0) == pytest.approx(1.7)

    def test_poisson_plus_poisson(self):
        for split in (0.1, 0.5, 0.9):
            assert background_mixed_g2(1.0, split, 1 - split) == pytest.approx(1.0)

    def test_both_zero_rejected(self):
        with pytest.raises(InvalidArgumentError):
            background_mixed_g2(2.0, 0.0, 0.0)

    def test_four_percent_background_value(self):
        assert background_mixed_g2(2.0, 0.96, 0.04) == pytest.approx(1.9216)

    def test_against_photon_count_simulation(self):
        # oracle: thermal signal (g2 = 2) merged with Poisson background
        rng = np.random.default_rng(1234)
        pulses = 4_000_000
        mean_signal, mean_background = 0.48, 0.02
        signal = rng.geometric(1.0 / (1.0 + mean_signal), size=pulses) - 1
        background = rng.poisson(mean_background, size=pulses)
        n = signal + background
        g2_mc = np.mean(n * (n - 1.0)) / np.mean(n) ** 2
        g2_model = background_mixed_g2(2.0, mean_signal, mean_background)
        assert g2_model < 2.0
        assert abs(g2_mc - g2_model) < 0.01


class TestInvariants:
    def test_purity_monotone_in_chirp(self):
        chirps = [0.0, 1e5, 2e5, 4e5, 8e5]
        purities = [float(np.sum(schmidt_weights(gaussian_jsa(chirp=a, count=192))**2))
                    for a in chirps]
        assert all(p1 >= p2 - 1e-9 for p1, p2 in zip(purities, purities[1:]))

    def test_jsi_blind_to_chirp(self):
        flat = gaussian_jsa(count=128)
        chirped = gaussian_jsa(chirp=0.38e6, count=128)
        peak = flat.intensity().max()
        np.testing.assert_allclose(chirped.intensity(), flat.intensity(),
                                   atol=1e-12 * peak)

    def test_g2_bounds(self):
        for jsa in (gaussian_jsa(count=128), gaussian_jsa(pump_order=1, count=128)):
            g2 = g2_from_purity(float(np.sum(schmidt_weights(jsa)**2)))
            assert 1.0 <= g2 <= 2.0
