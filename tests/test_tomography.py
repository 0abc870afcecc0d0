import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tmsim import presets, tomography
from tmsim import (
    CountRecord,
    IllPosedError,
    InvalidArgumentError,
    MLEConfig,
    ModalDensityMatrix,
    Projector,
    ProjectorSet,
    SelectivityModel,
    UnsupportedDimensionError,
    expected_counts,
    gate_operators,
    mle_reconstruct,
    monte_carlo_errors,
    mub_bases,
    simulate_counts,
    state_metrics,
)
from tmsim.errors import BasisMismatchWarning
from tmsim.pdc import reduced_density_matrix
from tmsim.tomography import (
    _apg,
    _density_projection,
    _flat_operators,
    _hermitian_span_rank,
    _operator_sum,
    _probabilities,
    _record_arrays,
)


def random_rho(seed, d=7, k=14):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k))
    rho = g @ g.conj().T
    return ModalDensityMatrix(dimension=d, entries=rho / np.trace(rho).real)


def pure_state(order, d=7):
    entries = np.zeros((d, d), dtype=complex)
    entries[order, order] = 1.0
    return ModalDensityMatrix(dimension=d, entries=entries)


def exact_records(rho, pset, scale=1e9):
    probs = [np.real(np.conj(p.coefficients) @ rho.entries @ p.coefficients)
             for p in pset.projectors]
    return [CountRecord(p.basis_index, p.element_index, int(round(scale * q)))
            for p, q in zip(pset.projectors, probs)]


class TestMubBases:
    def test_qubit_triple(self):
        pset = mub_bases(2)
        mats = {p.basis_index: {} for p in pset.projectors}
        for p in pset.projectors:
            mats[p.basis_index][p.element_index] = p.coefficients
        inv = 1 / np.sqrt(2)
        np.testing.assert_allclose(mats[0][0], [1, 0], atol=1e-15)
        np.testing.assert_allclose(mats[0][1], [0, 1], atol=1e-15)
        np.testing.assert_allclose(mats[1][0], [inv, inv], atol=1e-15)
        np.testing.assert_allclose(mats[1][1], [inv, -inv], atol=1e-15)
        np.testing.assert_allclose(mats[2][0], [inv, 1j * inv], atol=1e-15)
        np.testing.assert_allclose(mats[2][1], [inv, -1j * inv], atol=1e-15)

    def test_seven_dimensional_count(self):
        pset = mub_bases(7)
        assert len(pset.projectors) == 56
        assert len({p.basis_index for p in pset.projectors}) == 8

    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_unbiasedness(self, d):
        pset = mub_bases(d)
        coeffs = pset.coefficient_matrix()
        bases = np.array([p.basis_index for p in pset.projectors])
        overlap_sq = np.abs(coeffs.conj() @ coeffs.T) ** 2
        cross_pairs = 0
        for i in range(len(coeffs)):
            for j in range(len(coeffs)):
                if bases[i] == bases[j]:
                    expected = 1.0 if i == j else 0.0
                    assert abs(overlap_sq[i, j] - expected) < 1e-10
                else:
                    assert abs(overlap_sq[i, j] - 1.0 / d) < 1e-12
                    cross_pairs += 1
        assert cross_pairs == (d + 1) * d * d * d

    @pytest.mark.parametrize("d", [1, 4, 6, 9, 12])
    def test_non_prime_rejected(self, d):
        with pytest.raises(UnsupportedDimensionError):
            mub_bases(d)

    def test_projector_set_validates_orthogonality(self):
        good = np.eye(2, dtype=complex)
        with pytest.raises(InvalidArgumentError, match="overlap"):
            ProjectorSet(dimension=2, projectors=(
                Projector(0, 0, good[0]),
                Projector(0, 1, np.array([1, 1]) / np.sqrt(2))))

    def test_overlap_error_names_the_pair(self):
        eye = np.eye(3, dtype=complex)
        # pairs (0, 3), (1, 2) and (2, 3) overlap; the first one is named
        with pytest.raises(InvalidArgumentError,
                           match="projectors 0 and 3 of basis 4 overlap by 7.071e-01"):
            ProjectorSet(dimension=3, projectors=(
                Projector(5, 0, eye[0]),
                Projector(4, 0, eye[0]),
                Projector(4, 1, eye[1]),
                Projector(4, 2, np.array([0, 1, 1]) / np.sqrt(2)),
                Projector(4, 3, np.array([1, 0, 1]) / np.sqrt(2))))

    def test_coefficient_matrix_is_built_once_read_only(self):
        pset = mub_bases(5)
        coeffs = pset.coefficient_matrix()
        assert coeffs is pset.coefficient_matrix()
        assert coeffs.shape == (30, 5) and not coeffs.flags.writeable
        for row, proj in zip(coeffs, pset.projectors):
            np.testing.assert_array_equal(row, proj.coefficients)

    @pytest.mark.parametrize("vector", [[np.nan, np.nan], [np.nan, np.inf]])
    def test_non_finite_projector_rejected(self, vector):
        with pytest.raises(InvalidArgumentError, match="unit norm"):
            Projector(0, 0, np.array(vector))


class TestSimulateCounts:
    def test_deterministic_per_seed(self):
        rho = random_rho(3)
        pset = mub_bases(7)
        a = simulate_counts(rho, pset, flux=1e4, seed=5)
        b = simulate_counts(rho, pset, flux=1e4, seed=5)
        c = simulate_counts(rho, pset, flux=1e4, seed=6)
        assert [r.counts for r in a] == [r.counts for r in b]
        assert [r.counts for r in a] != [r.counts for r in c]

    def test_maximally_mixed_rates(self):
        rho = ModalDensityMatrix(dimension=7, entries=np.eye(7) / 7.0)
        pset = mub_bases(7)
        rates = expected_counts(rho, pset, flux=7000.0, background=11.0)
        np.testing.assert_allclose(rates, 1011.0, atol=1e-9)

    def test_high_flux_matches_probabilities(self):
        rho = random_rho(8)
        pset = mub_bases(7)
        flux = 1e6
        records = simulate_counts(rho, pset, flux=flux, seed=2)
        rates = expected_counts(rho, pset, flux=flux)
        for rec, lam in zip(records, rates):
            assert abs(rec.counts - lam) <= 3.0 * np.sqrt(lam + 1.0)

    def test_counts_are_nonnegative_ints(self):
        records = simulate_counts(random_rho(1), mub_bases(7), flux=100.0, seed=0)
        assert all(isinstance(r.counts, int) and r.counts >= 0 for r in records)

    def test_record_validation(self):
        with pytest.raises(InvalidArgumentError):
            CountRecord(0, 0, counts=-1)
        with pytest.raises(InvalidArgumentError,
                           match="basis_index must be non-negative, got -1"):
            CountRecord(-1, 0, counts=3)
        with pytest.raises(InvalidArgumentError,
                           match="element_index must be non-negative, got -2"):
            CountRecord(0, -2, counts=3)
        for exposure in (0.0, np.inf, np.nan):
            with pytest.raises(InvalidArgumentError, match="finite and positive"):
                CountRecord(0, 0, counts=3, exposure=exposure)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidArgumentError, match="seed must be >= 0"):
            simulate_counts(random_rho(1), mub_bases(7), seed=-1)

    @pytest.mark.parametrize("bad", [-1.0, 0.0, np.inf, np.nan])
    def test_exposures_must_be_finite_and_positive(self, bad):
        # the rule CountRecord applies, checked before any mean is formed
        rho, pset = random_rho(1, d=3), mub_bases(3)
        exposures = [1.0] * 5 + [bad] + [1.0] * 6
        for call in (expected_counts, simulate_counts):
            with pytest.raises(InvalidArgumentError,
                               match=f"exposure must be finite and positive, got {bad}"):
                call(rho, pset, exposures=exposures)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError, match="dimension"):
            expected_counts(random_rho(1, d=5), mub_bases(7))


class TestMleReconstruct:
    def test_exact_data_round_trip(self):
        pset = mub_bases(7)
        # a certificate below ~1e-13 is out of reach in double precision
        cfg = MLEConfig(tolerance=1e-12, max_iterations=30000)
        for seed in (0, 1, 4):
            rho = random_rho(seed)
            result = mle_reconstruct(exact_records(rho, pset), pset, cfg)
            assert state_metrics(result.rho_hat, rho).trace_distance < 1e-6

    def test_pure_state_recovery(self):
        pset = mub_bases(7)
        records = simulate_counts(pure_state(0), pset, flux=1e6, seed=12)
        result = mle_reconstruct(records, pset)
        assert result.rho_hat.purity() > 0.999
        assert result.converged

    def test_log_likelihood_monotone(self):
        pset = mub_bases(7)
        records = simulate_counts(random_rho(42), pset, flux=1e4, seed=3)
        result = mle_reconstruct(records, pset, MLEConfig(tolerance=1e-12))
        steps = np.diff(result.log_likelihood)
        assert steps.min() > -1e-12

    def test_record_order_irrelevant(self):
        pset = mub_bases(7)
        records = simulate_counts(random_rho(9), pset, flux=1e4, seed=4)
        shuffled = list(records)
        np.random.default_rng(0).shuffle(shuffled)
        a = mle_reconstruct(records, pset)
        b = mle_reconstruct(shuffled, pset)
        assert state_metrics(a.rho_hat, b.rho_hat).trace_distance < 1e-12

    def test_insufficient_span_rejected(self):
        pset = mub_bases(7)
        # a single basis (7 projectors) cannot determine 49 real parameters
        partial = [CountRecord(0, j, 100) for j in range(7)]
        with pytest.raises(IllPosedError):
            mle_reconstruct(partial, pset)

    @pytest.mark.parametrize("count", [7, 48, 49, 56])
    def test_span_rank_matches_per_projector_loop(self, count):
        kets = np.array([p.coefficients for p in mub_bases(7).projectors])[:count]
        d = kets.shape[1]
        iu = np.triu_indices(d, k=1)
        vecs = np.empty((count, d * d))
        for i, ket in enumerate(kets):
            outer = np.outer(ket, np.conj(ket))
            vecs[i] = np.concatenate([np.real(np.diag(outer)),
                                      np.sqrt(2.0) * np.real(outer[iu]),
                                      np.sqrt(2.0) * np.imag(outer[iu])])
        flat = _flat_operators(kets)
        # the float view of the flattened operators and the orthonormal
        # coordinates have the same Gram matrix, so the same singular values
        np.testing.assert_allclose(flat @ flat.T, vecs @ vecs.T,
                                   rtol=0, atol=1e-15)
        assert (_hermitian_span_rank(flat)
                == np.linalg.matrix_rank(vecs, tol=1e-10))

    def test_zero_counts_rejected(self):
        pset = mub_bases(7)
        empty = [CountRecord(p.basis_index, p.element_index, 0)
                 for p in pset.projectors]
        with pytest.raises(InvalidArgumentError):
            mle_reconstruct(empty, pset)

    def test_background_subtraction_floors_at_zero(self):
        pset = mub_bases(7)
        records = simulate_counts(pure_state(0), pset, flux=1e5,
                                  background=50.0, seed=7)
        plain = mle_reconstruct(records, pset)
        cleaned = mle_reconstruct(records, pset, subtract_background=50.0)
        assert cleaned.rho_hat.purity() > plain.rho_hat.purity()

    def test_nan_background_rejected(self):
        pset = mub_bases(3)
        records = simulate_counts(pure_state(0, d=3), pset, flux=1e3, seed=7)
        with pytest.raises(InvalidArgumentError, match="background"):
            simulate_counts(pure_state(0, d=3), pset, flux=1e3, background=np.nan)
        with pytest.raises(InvalidArgumentError, match="subtract_background"):
            mle_reconstruct(records, pset, subtract_background=np.nan)

    def test_crosstalk_bias_direction(self):
        # simulating with crosstalk but fitting without it caps the purity
        pset = mub_bases(7)
        records = simulate_counts(pure_state(0), pset,
                                  SelectivityModel(crosstalk=0.05),
                                  flux=1e6, seed=21)
        result = mle_reconstruct(records, pset)
        assert result.rho_hat.purity() < 0.97
        assert result.rho_hat.purity() == pytest.approx(0.9164, abs=5e-3)

    def test_per_basis_exposures_recovered(self):
        # one flux weight per basis, as in one instrument setting per basis
        pset = mub_bases(7)
        rho = random_rho(6)
        exposures = np.repeat([1.0, 0.5, 2.0, 1.5, 0.7, 1.2, 0.9, 1.1], 7)
        records = simulate_counts(rho, pset, flux=3e5, seed=19,
                                  exposures=exposures)
        result = mle_reconstruct(records, pset)
        assert state_metrics(result.rho_hat, rho).trace_distance < 0.02

    @pytest.mark.parametrize("case", ["one record dropped", "per-projector exposures"])
    def test_unmodelled_record_sets_rejected(self, case):
        # both sets still span, but sum_i w_i E_i is not a multiple of I, so
        # R rho R used to converge silently 0.10 and 0.11 (trace distance)
        # away from the state, against 1.0e-4 for the complete uniform set
        pset = mub_bases(7)
        if case == "one record dropped":
            records = simulate_counts(random_rho(1), pset, flux=1e9, seed=1)[1:]
        else:
            records = simulate_counts(random_rho(1), pset, flux=1e9, seed=1,
                                      exposures=np.linspace(0.5, 3.0, 56))
        with pytest.raises(InvalidArgumentError, match="multiple of the identity"):
            mle_reconstruct(records, pset)
        with pytest.raises(InvalidArgumentError, match="multiple of the identity"):
            monte_carlo_errors(records, pset, resamples=2, seed=0)

    def test_estimator_consistency_in_flux(self):
        pset = mub_bases(7)
        rho = random_rho(42)
        distances = []
        for flux in (1e3, 1e4, 1e5, 1e6):
            records = simulate_counts(rho, pset, flux=flux, seed=11)
            result = mle_reconstruct(records, pset)
            distances.append(state_metrics(result.rho_hat, rho).trace_distance)
        assert all(a > b for a, b in zip(distances, distances[1:]))


class TestStateMetrics:
    def test_identical_states(self):
        rho = random_rho(5)
        metrics = state_metrics(rho, rho)
        assert metrics.fidelity == pytest.approx(1.0, abs=1e-12)
        assert metrics.trace_distance == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        metrics = state_metrics(pure_state(0), pure_state(1))
        assert metrics.fidelity == pytest.approx(0.0, abs=1e-12)
        assert metrics.trace_distance == pytest.approx(1.0, abs=1e-12)

    def test_pure_versus_maximally_mixed(self):
        mixed = ModalDensityMatrix(dimension=7, entries=np.eye(7) / 7.0)
        metrics = state_metrics(pure_state(3), mixed)
        assert metrics.fidelity == pytest.approx(1.0 / 7.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            state_metrics(pure_state(0, d=7), pure_state(0, d=5))

    @settings(max_examples=200, deadline=None)
    @given(shape=st.integers(2, 7).flatmap(
        lambda d: st.tuples(st.just(d), st.integers(1, d), st.integers(1, d))),
           seed=st.integers(0, 2**32 - 1))
    def test_fidelity_properties(self, shape, seed):
        # 1e-6 covers the sqrt(eps) error of the square root of a
        # rank-deficient state; 3000 random pairs stayed below 6.1e-8
        d, rank_a, rank_b = shape
        rho = random_rho(seed, d=d, k=rank_a)
        sigma = random_rho(seed + 1, d=d, k=rank_b)
        fidelity = state_metrics(rho, sigma).fidelity
        assert 0.0 <= fidelity <= 1.0 + 1e-6
        assert abs(fidelity - state_metrics(sigma, rho).fidelity) <= 1e-6
        assert abs(state_metrics(rho, rho).fidelity - 1.0) <= 1e-6
        kets = np.random.default_rng(seed).normal(size=(2, d, 2)) @ [1, 1j]
        psi, phi = kets / np.linalg.norm(kets, axis=1, keepdims=True)
        pure = [ModalDensityMatrix(dimension=d, entries=np.outer(v, v.conj()))
                for v in (psi, phi)]
        overlap = abs(np.vdot(psi, phi)) ** 2
        assert abs(state_metrics(*pure).fidelity - overlap) <= 1e-6


class TestMonteCarloErrors:
    def test_high_flux_spread_is_small(self):
        pset = mub_bases(7)
        records = simulate_counts(random_rho(42), pset, flux=1e5, seed=13)
        errors = monte_carlo_errors(records, pset, resamples=100, seed=17)
        assert errors.purity_std < 0.01
        assert errors.fidelity_std < 0.01

    def test_deterministic_per_seed(self):
        pset = mub_bases(7)
        records = simulate_counts(random_rho(1), pset, flux=1e4, seed=2)
        a = monte_carlo_errors(records, pset, resamples=5, seed=3)
        b = monte_carlo_errors(records, pset, resamples=5, seed=3)
        np.testing.assert_array_equal(a.purities, b.purities)

    def test_baseline_is_the_plain_fit(self, preset_records):
        pset = mub_bases(7)
        for records in (simulate_counts(random_rho(1), pset, flux=1e4, seed=2),
                        preset_records["a"], preset_records["b"]):
            errors = monte_carlo_errors(records, pset, resamples=2, seed=3)
            direct = mle_reconstruct(records, pset)
            np.testing.assert_array_equal(errors.baseline.rho_hat.entries,
                                          direct.rho_hat.entries)
            np.testing.assert_array_equal(errors.baseline.log_likelihood,
                                          direct.log_likelihood)
            assert errors.baseline.iterations == direct.iterations
            assert errors.baseline.converged == direct.converged

    def test_fidelities_are_state_metrics_of_each_resample(self, monkeypatch):
        pset = mub_bases(7)
        records = simulate_counts(random_rho(4), pset, flux=1e4, seed=6)
        solves = []

        def recording_apg(*args):
            solves.append(_apg(*args))
            return solves[-1]

        monkeypatch.setattr(tomography, "_apg", recording_apg)
        errors = monte_carlo_errors(records, pset, resamples=8, seed=5)
        assert len(solves) == 1  # the baseline is row 0 of the one solve
        resampled = solves[0][0][1:]
        assert len(resampled) == len(errors.fidelities) == 8
        for rho, fidelity in zip(resampled, errors.fidelities):
            state = ModalDensityMatrix(dimension=7, entries=rho)
            assert state_metrics(errors.baseline.rho_hat, state).fidelity == fidelity

    def test_zero_counts_propagates(self):
        pset = mub_bases(7)
        empty = [CountRecord(p.basis_index, p.element_index, 0)
                 for p in pset.projectors]
        with pytest.raises(InvalidArgumentError):
            monte_carlo_errors(empty, pset, resamples=5, seed=0)

    def test_flux_doubling_shrinks_spread(self):
        pset = mub_bases(7)
        rho = random_rho(42)
        stds = []
        for flux in (5e4, 1e5):
            records = simulate_counts(rho, pset, flux=flux, seed=13)
            errors = monte_carlo_errors(records, pset, resamples=60, seed=17)
            stds.append(errors.purity_std)
        ratio = stds[0] / stds[1]
        assert abs(ratio - np.sqrt(2.0)) / np.sqrt(2.0) < 0.3

    def test_resample_count_validated(self):
        pset = mub_bases(7)
        records = simulate_counts(random_rho(0), pset, flux=1e3, seed=1)
        with pytest.raises(InvalidArgumentError):
            monte_carlo_errors(records, pset, resamples=1, seed=0)

    def test_negative_seed_rejected(self):
        pset = mub_bases(7)
        records = simulate_counts(random_rho(0), pset, flux=1e3, seed=1)
        with pytest.raises(InvalidArgumentError, match="seed must be >= 0"):
            monte_carlo_errors(records, pset, resamples=2, seed=-3)


@pytest.fixture(scope="module")
def preset_count_sets():
    """Simulated counts of the preset a-d states at seeds 7 (the default) and
    11, keyed by (case, seed), as `preset` draws them."""
    records = {}
    for case in "abcd":
        for seed in (7, 11):
            config = presets.merge_overrides(presets.preset_config(case),
                                             {"tomography": {"seed": seed}})
            jsa = presets.build_state(config)
            with warnings.catch_warnings():  # preset c leaks 0.31 of its weight
                warnings.simplefilter("ignore", BasisMismatchWarning)
                rho = reduced_density_matrix(jsa, presets.tomography_basis(config),
                                             config.basis.dimension)
            records[case, seed] = simulate_counts(
                rho, mub_bases(7), config.qpg.selectivity(),
                flux=config.tomography.flux,
                background=config.tomography.background, seed=seed)
    return records


@pytest.fixture(scope="module")
def preset_records(preset_count_sets):
    """Simulated counts of the preset a and b states at the default seed."""
    return {case: preset_count_sets[case, 7] for case in "ab"}


class TestBatchedKernel:
    @pytest.mark.parametrize("case", "ab")
    def test_rows_match_one_fit_per_record_set(self, preset_records, case):
        # the reference is the per-resample loop the bootstrap used to run
        pset = mub_bases(7)
        records = preset_records[case]
        kets, observed, weights = _record_arrays(records, pset)
        for seed in (1, 2, 3):
            counts = np.random.default_rng(seed).poisson(
                observed, size=(4, observed.size))
            rhos, iterations, converged, _, _ = _apg(
                kets, counts.astype(float), weights, MLEConfig())
            assert converged.all()
            for row, rho, count in zip(counts, rhos, iterations):
                single = mle_reconstruct(
                    [replace(rec, counts=int(n)) for rec, n in zip(records, row)],
                    pset)
                assert count == single.iterations
                assert np.abs(rho - single.rho_hat.entries).max() <= 1e-13

    def test_stopped_rows_are_left_unchanged(self):
        pset = mub_bases(7)
        records = simulate_counts(random_rho(3), pset, flux=1e4, seed=5)
        kets, observed, weights = _record_arrays(records, pset)
        counts = np.random.default_rng(0).poisson(
            observed, size=(8, observed.size)).astype(float)
        full = _apg(kets, counts, weights, MLEConfig())
        first = int(full[1].argmin())
        stop = int(full[1][first])
        later = full[1] > stop
        assert later.any()
        # cut every row off at the first stop: up to there both runs did
        # the same arithmetic, so the rest of the full run never touched it
        cut = _apg(kets, counts, weights, MLEConfig(max_iterations=stop))
        np.testing.assert_array_equal(cut[0][first], full[0][first])
        assert cut[1][first] == stop and cut[2][first]
        assert not cut[2][later].any()

    def test_history_is_the_log_likelihood_trace(self):
        # row 0's trace does not depend on the rows fitted alongside it
        pset = mub_bases(7)
        records = simulate_counts(random_rho(2), pset, flux=1e4, seed=5)
        result = mle_reconstruct(records, pset)
        assert result.log_likelihood.shape == (result.iterations + 1,)
        kets, observed, weights = _record_arrays(records, pset)
        draws = np.random.default_rng(0).poisson(observed, size=(8, observed.size))
        counts = np.concatenate([observed[None], draws])
        _, iterations, _, _, trace = _apg(kets, counts, weights, MLEConfig())
        assert (iterations[1:] < iterations[0]).any()
        assert (iterations[1:] > iterations[0]).any()
        np.testing.assert_array_equal(trace, result.log_likelihood)
        capped = _apg(kets, counts, weights, MLEConfig(max_iterations=5))
        np.testing.assert_array_equal(capped[4], result.log_likelihood[:6])

    def test_nonconverged_resamples_counted(self):
        pset = mub_bases(7)
        records = simulate_counts(random_rho(1), pset, flux=1e4, seed=2)
        capped = monte_carlo_errors(records, pset, MLEConfig(max_iterations=5),
                                    resamples=4, seed=3)
        assert capped.nonconverged == 4
        assert np.isfinite(capped.purities).all()  # still in the statistics
        assert monte_carlo_errors(records, pset, resamples=4,
                                  seed=3).nonconverged == 0

    def test_zero_total_resample_raises(self):
        pset = mub_bases(7)
        records = [CountRecord(p.basis_index, p.element_index, int(i == 0))
                   for i, p in enumerate(pset.projectors)]
        # Poisson(1) draws nothing with probability 1/e
        draws = np.random.default_rng(0).poisson([1.0] + [0.0] * 55, size=(20, 56))
        assert (draws.sum(axis=1) == 0).any()
        with pytest.raises(InvalidArgumentError, match="total counts"):
            monte_carlo_errors(records, pset, MLEConfig(max_iterations=50),
                               resamples=20, seed=0)


def random_kets(rng, n, d):
    kets = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    return kets / np.linalg.norm(kets, axis=1, keepdims=True)


class TestPackedKernel:
    """The products with the flat operators that `_apg` iterates with,
    against the complex formulas over `gate_operators`."""

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 60), d=st.integers(1, 9), size=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1))
    # cancellation: a probability of 0.0131 from terms summing to 10.3 in
    # magnitude, off by 2.0e-16
    @example(n=1, d=7, size=1, seed=122992928)
    def test_products_match_the_complex_formula(self, n, d, size, seed):
        # each result is held to 1e-14 of the magnitude of its summed terms,
        # which bounds the rounding of a sum whatever it cancels to
        rng = np.random.default_rng(seed)
        kets = random_kets(rng, n, d)
        g = rng.normal(size=(size, d, d)) + 1j * rng.normal(size=(size, d, d))
        rho = g + np.conj(g).transpose(0, 2, 1)
        ratios = rng.uniform(0.0, 3.0, size=(size, n))
        ops = gate_operators(kets)
        flat = _flat_operators(kets)
        probs = np.einsum("nab,kba->kn", ops, rho).real
        terms = np.einsum("nab,kba->kn", np.abs(ops), np.abs(rho))
        np.testing.assert_array_less(np.abs(_probabilities(rho, flat) - probs),
                                     1e-14 * terms)
        growth = np.einsum("kn,nab->kab", ratios, ops)
        terms = np.einsum("kn,nab->kab", ratios, np.abs(ops))
        np.testing.assert_array_less(np.abs(_operator_sum(ratios, flat) - growth),
                                     1e-14 * terms)

    @settings(max_examples=40, deadline=None)
    @given(d=st.sampled_from([2, 3, 5, 7]), rank=st.integers(1, 7),
           flux=st.floats(10.0, 1e6), size=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1))
    def test_estimates_are_states_fitted_row_by_row(self, d, rank, flux, size,
                                                   seed):
        rng = np.random.default_rng(seed)
        pset = mub_bases(d)
        exposures = np.repeat(rng.uniform(0.5, 2.0, d + 1), d)  # per basis
        records = simulate_counts(random_rho(seed, d=d, k=min(rank, d)), pset,
                                  flux=flux, seed=seed, exposures=exposures)
        coords, observed, weights = _record_arrays(records, pset)
        counts = rng.poisson(observed, size=(size, observed.size)).astype(float)
        counts[counts.sum(axis=1) == 0, 0] = 1.0
        cfg = MLEConfig(max_iterations=200)
        rhos, iterations, _, _, _ = _apg(coords, counts, weights, cfg)
        np.testing.assert_array_equal(rhos, np.conj(rhos).transpose(0, 2, 1))
        assert np.linalg.eigvalsh(rhos).min() >= -1e-12
        np.testing.assert_allclose(np.einsum("bii->b", rhos), 1.0,
                                   rtol=0, atol=1e-12)
        for row in range(size):
            alone = _apg(coords, counts[row:row + 1], weights, cfg)
            np.testing.assert_array_equal(alone[0][0], rhos[row])
            assert alone[1][0] == iterations[row]


def _mean_log_likelihood(ops, counts, rho):
    """sum_i f_i log Tr(rho E_i) over the records with counts."""
    freqs = counts / counts.sum()
    probs = np.einsum("nab,ba->n", ops, rho).real
    seen = freqs > 0
    return float(freqs[seen] @ np.log(probs[seen]))


def _rrhor(ops, counts, dilution=0.5, tolerance=1e-10, max_iterations=100_000):
    """The diluted R rho R iteration the fit ran before the projected-gradient
    solver, with its stop rule: the mean log-likelihood of a step changes by
    less than `tolerance`.  Complete unit-exposure record sets only."""
    freqs = counts / counts.sum()
    d = ops.shape[1]
    rho, previous = np.eye(d, dtype=complex) / d, -np.inf
    for _ in range(max_iterations):
        current = _mean_log_likelihood(ops, counts, rho)
        if abs(current - previous) < tolerance:
            break
        previous = current
        probs = np.einsum("nab,ba->n", ops, rho).real
        growth = ((1.0 - dilution) * np.eye(d)
                  + dilution * np.einsum("n,nab->ab", freqs / probs, ops))
        rho = growth @ rho @ growth
        rho = rho / np.trace(rho).real
    return rho


class TestSolver:
    """The accelerated projected-gradient fit: its certificate recomputed
    from `gate_operators`, its projection, and the likelihood it reaches
    against the R rho R iteration it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(d=st.sampled_from([2, 3, 5, 7]), rank=st.integers(1, 7),
           flux=st.floats(10.0, 1e6), size=st.integers(1, 5),
           tolerance=st.sampled_from([1e-6, 1e-8, 1e-10]),
           seed=st.integers(0, 2**32 - 1))
    def test_converged_rows_are_certified_states(self, d, rank, flux, size,
                                                 tolerance, seed):
        rng = np.random.default_rng(seed)
        pset = mub_bases(d)
        exposures = np.repeat(rng.uniform(0.5, 2.0, d + 1), d)  # per basis
        records = simulate_counts(random_rho(seed, d=d, k=min(rank, d)), pset,
                                  flux=flux, seed=seed, exposures=exposures)
        coords, observed, weights = _record_arrays(records, pset)
        counts = rng.poisson(observed, size=(size, observed.size)).astype(float)
        counts[counts.sum(axis=1) == 0, 0] = 1.0
        rhos, _, converged, certificates, _ = _apg(
            coords, counts, weights,
            MLEConfig(max_iterations=5000, tolerance=tolerance))
        assert converged.all()
        ops = gate_operators(pset.coefficient_matrix())
        for rho, row, certificate in zip(rhos, counts, certificates):
            assert np.linalg.eigvalsh(rho).min() >= -1e-12
            assert abs(np.trace(rho) - 1.0) <= 1e-12
            # R = sum_i f_i / p_i E_i; a zero frequency adds nothing
            freqs = row / row.sum()
            probs = np.einsum("nab,ba->n", ops, rho).real
            ratios = np.divide(freqs, probs, out=np.zeros_like(freqs),
                               where=freqs > 0)
            recomputed = np.linalg.eigvalsh(np.einsum("n,nab->ab", ratios, ops))
            assert recomputed[-1] - 1.0 <= tolerance
            assert abs(recomputed[-1] - 1.0 - certificate) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(d=st.integers(1, 9), size=st.integers(1, 4),
           scale=st.floats(1e-3, 1e3), seed=st.integers(0, 2**32 - 1))
    def test_projection_is_the_nearest_state(self, d, size, scale, seed):
        # P is the projection of X onto the convex set of density matrices
        # iff <X - P, Y - P> <= 0 for every density matrix Y
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(size, d, 2 * d)).view(complex)
        hermitian = scale * (g + np.conj(g).transpose(0, 2, 1))
        projected, _ = _density_projection(hermitian)
        assert np.linalg.eigvalsh(projected).min() >= -1e-12
        np.testing.assert_allclose(np.einsum("bii->b", projected), 1.0,
                                   rtol=0, atol=1e-12)
        for x, p in zip(hermitian, projected):
            for rank in (1, d):
                y = random_rho(int(rng.integers(2**32)), d=d, k=rank).entries
                assert np.einsum("ab,ba->", x - p, y - p).real <= 1e-12

    @pytest.mark.parametrize("seed", [7, 11])
    @pytest.mark.parametrize("case", "abcd")
    def test_likelihood_at_least_rrhor(self, preset_count_sets, case, seed):
        records = preset_count_sets[case, seed]
        pset = mub_bases(7)
        counts = np.array([rec.counts for rec in records], dtype=float)
        ops = gate_operators(pset.coefficient_matrix())
        fit = mle_reconstruct(records, pset)
        assert fit.converged and fit.certificate <= 1e-8
        assert (_mean_log_likelihood(ops, counts, fit.rho_hat.entries)
                >= _mean_log_likelihood(ops, counts, _rrhor(ops, counts)) - 1e-12)


def _old_project_probability(rho, mode, sel):
    """The per-projector formula of the pulse gate before the POVM builder:
    (1 - eps) <m~|rho|m~> + eps Tr(rho)/d with m~ = m sqrt(falloff),
    clipped to [0, 1]."""
    weighted = mode * np.sqrt(sel.order_efficiencies(rho.dimension))
    overlap = float(np.real(np.conj(weighted) @ rho.entries @ weighted))
    trace = float(np.trace(rho.entries).real)
    p = (1.0 - sel.crosstalk) * overlap + sel.crosstalk * trace / rho.dimension
    return min(max(p, 0.0), 1.0)


crosstalks = st.floats(0.0, 1.0)
falloffs = st.one_of(st.none(), st.lists(
    st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=15).map(tuple))


class TestMeasurementModel:
    """`gate_operators` against the per-projector formula and the algebra
    of the complete mutually unbiased set."""

    @settings(max_examples=200, deadline=None)
    @given(d=st.sampled_from([2, 3, 5, 7]), rank=st.integers(1, 7),
           seed=st.integers(0, 2**32 - 1), crosstalk=crosstalks, falloff=falloffs,
           flux=st.floats(1.0, 1e6), background=st.floats(0.0, 100.0))
    def test_expected_counts_match_per_projector_loop(self, d, rank, seed,
                                                      crosstalk, falloff, flux,
                                                      background):
        rho = random_rho(seed, d=d, k=min(rank, d))
        pset = mub_bases(d)
        sel = SelectivityModel(crosstalk=crosstalk, per_order_falloff=falloff)
        probs = np.array([_old_project_probability(rho, p.coefficients, sel)
                          for p in pset.projectors])
        rates = expected_counts(rho, pset, sel, flux=flux, background=background)
        # the absolute floor covers probabilities that cancel to ~0
        np.testing.assert_allclose(rates, flux * probs + background,
                                   rtol=1e-13, atol=1e-15 * flux)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 12), d=st.integers(1, 9),
           seed=st.integers(0, 2**32 - 1), crosstalk=crosstalks, falloff=falloffs)
    def test_elements_are_psd(self, n, d, seed, crosstalk, falloff):
        rng = np.random.default_rng(seed)
        kets = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
        kets /= np.linalg.norm(kets, axis=1, keepdims=True)
        ops = gate_operators(kets, SelectivityModel(crosstalk, falloff))
        assert ops.shape == (n, d, d)
        np.testing.assert_allclose(ops, np.conj(ops).transpose(0, 2, 1),
                                   rtol=0, atol=1e-15)
        assert np.linalg.eigvalsh(ops).min() >= -1e-12

    @settings(max_examples=200, deadline=None)
    @given(d=st.sampled_from([2, 3, 5, 7, 11, 13]), crosstalk=crosstalks,
           falloff=falloffs)
    def test_mub_elements_sum_to_the_falloff_diagonal(self, d, crosstalk,
                                                      falloff):
        pset = mub_bases(d)
        coeffs = pset.coefficient_matrix()
        overlaps = np.abs(np.conj(coeffs) @ coeffs.T) ** 2
        bases = np.array([p.basis_index for p in pset.projectors])
        same = bases[:, None] == bases[None, :]
        expected = np.where(same, np.eye(len(bases)), 1.0 / d)
        np.testing.assert_allclose(overlaps, expected, rtol=0, atol=1e-12)

        sel = SelectivityModel(crosstalk, falloff)
        total = gate_operators(coeffs, sel).sum(axis=0)
        target = (d + 1) * ((1.0 - crosstalk) * np.diag(sel.order_efficiencies(d))
                            + crosstalk * np.eye(d))
        np.testing.assert_allclose(total, target, rtol=0, atol=1e-12)

    def test_ideal_elements_are_the_plain_outer_products(self):
        # the MLE kernel reads these; bit-for-bit equality keeps its
        # iteration counts
        kets = mub_bases(7).coefficient_matrix()
        np.testing.assert_array_equal(
            gate_operators(kets), kets[:, :, None] * np.conj(kets)[:, None, :])


class TestBootstrapBenchmarks:
    """Timing of the batched bootstrap (the baseline and 20 resamples in one
    solve) on the preset-a counts; pytest-benchmark prints it with
    ``pytest --benchmark-only -k bootstrap``."""

    def test_monte_carlo_errors(self, benchmark, preset_records):
        errors = benchmark.pedantic(
            monte_carlo_errors, args=(preset_records["a"], mub_bases(7)),
            kwargs={"resamples": 20, "seed": 8}, rounds=3, iterations=1)
        assert errors.baseline.converged and errors.nonconverged == 0


class TestKernelBenchmarks:
    """Timing of one `_apg` solve of a preset bootstrap at seed 7: the
    observed counts and their 100 resamples, 101 rows.  Preset b takes
    5 744 row-iterations (the R rho R iteration it replaced took 199 676);
    preset d, whose rank-deficient rows run on alone, takes 25 777.
    pytest-benchmark prints the solve times with
    ``pytest --benchmark-only -k Kernel``; `extra_info`, which
    ``--benchmark-json FILE`` writes out, holds the row-iteration count and
    the best round's cost per row-iteration in microseconds."""

    @pytest.mark.parametrize("case", "bd")
    def test_apg(self, benchmark, preset_count_sets, case):
        flat, observed, weights = _record_arrays(preset_count_sets[case, 7],
                                                 mub_bases(7))
        draws = np.random.default_rng(8).poisson(observed, (100, observed.size))
        counts = np.concatenate([observed[None], draws])
        _, iterations, converged, _, _ = benchmark.pedantic(
            _apg, args=(flat, counts, weights, MLEConfig()),
            rounds=3, iterations=1)
        assert converged.all()
        row_iterations = int(iterations.sum())
        benchmark.extra_info["row_iterations"] = row_iterations
        if benchmark.stats:  # None under --benchmark-disable
            benchmark.extra_info["us_per_row_iteration"] = (
                1e6 * benchmark.stats.stats.min / row_iterations)
