from dataclasses import replace

import numpy as np
import pytest

from tmsim import presets
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
    mle_reconstruct,
    monte_carlo_errors,
    mub_bases,
    simulate_counts,
    state_metrics,
)
from tmsim.pdc import reduced_density_matrix, schmidt_decompose
from tmsim.tomography import _hermitian_span_rank, _record_arrays, _rrhor


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
        with pytest.raises(InvalidArgumentError):
            CountRecord(0, 0, counts=3, exposure=0.0)


class TestMleReconstruct:
    def test_exact_data_round_trip(self):
        pset = mub_bases(7)
        cfg = MLEConfig(tolerance=1e-16, max_iterations=30000, dilution=1.0)
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
        assert (_hermitian_span_rank(kets)
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
        assert metrics.purity_a == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            state_metrics(pure_state(0, d=7), pure_state(0, d=5))


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

    def test_baseline_is_the_plain_fit(self):
        pset = mub_bases(7)
        records = simulate_counts(random_rho(1), pset, flux=1e4, seed=2)
        errors = monte_carlo_errors(records, pset, resamples=2, seed=3)
        direct = mle_reconstruct(records, pset)
        np.testing.assert_array_equal(errors.baseline.rho_hat.entries,
                                      direct.rho_hat.entries)
        assert errors.baseline.iterations == direct.iterations

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


@pytest.fixture(scope="module")
def preset_records():
    """Simulated counts of the preset a and b states, as `preset` draws them."""
    records = {}
    for case in "ab":
        config = presets.preset_config(case)
        dec = schmidt_decompose(presets.build_state(config), max_modes=20)
        rho = reduced_density_matrix(dec, presets.tomography_basis(config),
                                     config.basis.dimension)
        records[case] = simulate_counts(rho, mub_bases(7),
                                        flux=config.tomography.flux,
                                        seed=config.tomography.seed)
    return records


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
            rhos, iterations, converged, _ = _rrhor(
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
        full = _rrhor(kets, counts, weights, MLEConfig())
        first = int(full[1].argmin())
        stop = int(full[1][first])
        later = full[1] > stop
        assert later.any()
        # cut every row off at the first stop: up to there both runs did
        # the same arithmetic, so the rest of the full run never touched it
        cut = _rrhor(kets, counts, weights, MLEConfig(max_iterations=stop))
        np.testing.assert_array_equal(cut[0][first], full[0][first])
        assert cut[1][first] == stop and cut[2][first]
        assert not cut[2][later].any()

    def test_history_is_the_log_likelihood_trace(self):
        pset = mub_bases(7)
        records = simulate_counts(random_rho(2), pset, flux=1e4, seed=4)
        result = mle_reconstruct(records, pset)
        assert result.log_likelihood.shape == (result.iterations + 1,)
        kets, counts, weights = _record_arrays(records, pset)
        _, _, _, final = _rrhor(kets, counts[None], weights, MLEConfig())
        assert final[0] == result.log_likelihood[-1]

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
