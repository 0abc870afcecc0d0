"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with -s or -rA to see them).  Tolerances are fixed
here, not tuned at run time.
"""

import time

import numpy as np
import pytest

from tmsim import (
    CountRecord,
    FilterSpec,
    MLEConfig,
    ModalDensityMatrix,
    SelectivityModel,
    apply_mode_filter,
    mean_photon_from_g11,
    mle_reconstruct,
    mode_overlap_matrix,
    mub_bases,
    schmidt_decompose,
    simulate_counts,
    state_metrics,
)
from tmsim import presets


def report(number: int, text: str) -> None:
    print(f"criterion {number:2d}: PASS - {text}")


# --- shared expensive runs --------------------------------------------------

@pytest.fixture(scope="session")
def chirp_rows():
    """Matched decorrelated-source scan over the six chirp settings."""
    values = [0.0, 0.1e6, 0.2e6, 0.38e6, 0.6e6, 1.0e6]
    config = presets.preset_config("a")  # 512-point grids by default
    start = time.perf_counter()
    rows = presets.chirp_scan(values, config)
    return rows, time.perf_counter() - start


@pytest.fixture(scope="session")
def preset_runs(tmp_path_factory):
    """Default-parameter runs of all four presets, with wall times."""
    base = tmp_path_factory.mktemp("presets")
    runs = {}
    for case in "abcd":
        out = base / case
        start = time.perf_counter()
        summary = presets.run_preset(case, output_dir=str(out))
        runs[case] = {"summary": summary, "seconds": time.perf_counter() - start,
                      "path": out}
    return runs


# --- criteria ---------------------------------------------------------------

def test_criterion_01_chirp_purity_oracle(chirp_rows):
    rows, seconds = chirp_rows
    for row in rows:
        gap = abs(row["svd_purity"] - row["analytic_purity"])
        assert gap < 1e-3, (f"chirp {row['chirp_fs2']:g}: SVD "
                            f"{row['svd_purity']:.6f} vs analytic "
                            f"{row['analytic_purity']:.6f}")
    assert seconds < 60.0, f"scan took {seconds:.1f}s"
    report(1, f"six chirp settings within 1e-3 of the closed form "
              f"({seconds:.1f}s)")


def test_criterion_02_unchirped_limit(chirp_rows):
    rows, _ = chirp_rows
    unchirped = rows[0]
    assert unchirped["chirp_fs2"] == 0.0
    assert unchirped["svd_purity"] >= 0.999
    report(2, f"unchirped matched source purity {unchirped['svd_purity']:.6f}")


def test_criterion_03_odd_pump_weights():
    # ideal symmetric configuration: exactly balanced weight pair
    config = presets.merge_overrides(presets.preset_config("d"),
                                     {"phasematching": {"angle_deg": 45.0}})
    dec = schmidt_decompose(presets.build_state(config), max_modes=8)
    assert abs(dec.weights[0] - 0.5) < 1e-3
    assert abs(dec.weights[1] - 0.5) < 1e-3

    # tilted-ridge preset: unequal weights, the larger on the odd mode
    config_d = presets.preset_config("d")
    dec_d = schmidt_decompose(presets.build_state(config_d), max_modes=8)
    assert dec_d.weights[0] - dec_d.weights[1] > 0.01
    basis = presets.tomography_basis(config_d)
    coeffs = mode_overlap_matrix(dec_d, basis, 2)
    dominant = np.abs(coeffs[0]) ** 2
    assert dominant[1] > dominant[0], "dominant mode should be the odd one"
    report(3, f"balanced pair at 45 deg; tilted preset weights "
              f"({dec_d.weights[0]:.3f}, {dec_d.weights[1]:.3f}) with the "
              f"larger on the first-order mode")


def test_criterion_04_mub_suite():
    pset = mub_bases(7)
    assert len(pset.projectors) == 56
    coeffs = pset.coefficient_matrix()
    bases = np.array([p.basis_index for p in pset.projectors])
    overlap_sq = np.abs(coeffs.conj() @ coeffs.T) ** 2
    cross = 0
    for i in range(56):
        for j in range(56):
            if bases[i] == bases[j]:
                expected = 1.0 if i == j else 0.0
                assert abs(overlap_sq[i, j] - expected) < 1e-10
            elif i < j:
                assert abs(overlap_sq[i, j] - 1.0 / 7.0) < 1e-12
                cross += 1
    assert cross == 1372  # all unordered cross-basis pairs
    report(4, f"8 bases x 7 states; {cross} cross-basis overlaps at 1/7 "
              f"within 1e-12")


def _random_rho(seed, d=7, columns=14):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(d, columns)) + 1j * rng.normal(size=(d, columns))
    rho = g @ g.conj().T
    return ModalDensityMatrix(dimension=d, entries=rho / np.trace(rho).real)


def test_criterion_05_mle_round_trip():
    start = time.perf_counter()
    pset = mub_bases(7)
    exact_cfg = MLEConfig(tolerance=1e-12, max_iterations=30000)
    worst_distance = 0.0
    fidelities = []
    for seed in range(20):
        rho = _random_rho(seed)
        probs = [float(np.real(np.conj(p.coefficients) @ rho.entries
                               @ p.coefficients))
                 for p in pset.projectors]
        noiseless = [CountRecord(p.basis_index, p.element_index,
                                 int(round(1e9 * q)))
                     for p, q in zip(pset.projectors, probs)]
        estimate = mle_reconstruct(noiseless, pset, exact_cfg)
        distance = state_metrics(estimate.rho_hat, rho).trace_distance
        worst_distance = max(worst_distance, distance)
        assert distance < 1e-6, f"seed {seed}: trace distance {distance:.2e}"

        noisy = simulate_counts(rho, pset, flux=1e5, seed=1000 + seed)
        noisy_estimate = mle_reconstruct(noisy, pset)
        fidelities.append(state_metrics(noisy_estimate.rho_hat, rho).fidelity)
    mean_fidelity = float(np.mean(fidelities))
    seconds = time.perf_counter() - start
    assert mean_fidelity > 0.99
    assert seconds < 300.0, f"round trip took {seconds:.0f}s"
    report(5, f"20 states: worst exact-data distance {worst_distance:.2e}, "
              f"mean noisy fidelity {mean_fidelity:.4f} ({seconds:.0f}s)")


def test_criterion_06_crosstalk_bias():
    pset = mub_bases(7)
    pure = np.zeros((7, 7), dtype=complex)
    pure[0, 0] = 1.0
    rho = ModalDensityMatrix(dimension=7, entries=pure)
    records = simulate_counts(rho, pset, SelectivityModel(crosstalk=0.05),
                              flux=1e6, seed=21)
    estimate = mle_reconstruct(records, pset)
    purity = estimate.rho_hat.purity()
    assert purity < 0.97
    report(6, f"pure state under 5% unmodelled crosstalk reconstructs at "
              f"purity {purity:.4f} < 0.97")


def test_criterion_07_filter_direction_law():
    eta = 0.22
    for weights, forward in (((0.8, 0.2), True), ((0.2, 0.8), False)):
        base_g2 = 1.0 + weights[0] ** 2 + weights[1] ** 2
        drop0 = apply_mode_filter(weights, np.eye(2),
                                  FilterSpec(mode=[1.0, 0.0], efficiency=eta))
        drop1 = apply_mode_filter(weights, np.eye(2),
                                  FilterSpec(mode=[0.0, 1.0], efficiency=eta))
        if forward:
            assert base_g2 - drop0.transmitted_g2 > 0.03
            assert drop1.transmitted_g2 > base_g2
        else:  # dominance reversed, so both directions flip
            assert drop0.transmitted_g2 > base_g2
            assert base_g2 - drop1.transmitted_g2 > 0.03
    report(7, "transmitted g2 falls > 0.03 when the dominant mode is "
              "removed and rises otherwise; reversed weights reverse both")


def test_criterion_08_upconverted_statistics():
    result = apply_mode_filter([0.8, 0.2], np.eye(2),
                               FilterSpec(mode=[1.0, 0.0], efficiency=0.22))
    assert result.upconverted_g2 == 2.0  # exact, not approximate
    assert abs(result.upconverted_g2 - 1.975) <= 2 * 0.015 + 1e-12
    report(8, "rank-one upconverted branch reports g2 = 2.000 exactly")


def test_criterion_09_photon_number_inversion():
    mean_n = mean_photon_from_g11(8.303, 1.929)
    assert 0.15 <= mean_n <= 0.16
    report(9, f"inferred mean photon number {mean_n:.4f}")


def test_criterion_10_preset_ordering(preset_runs):
    purity = {case: preset_runs[case]["summary"]["reconstructed_purity"]
              for case in "abcd"}
    for case in "abcd":
        seconds = preset_runs[case]["seconds"]
        assert seconds < 120.0, f"case {case} took {seconds:.0f}s"
    assert purity["a"] > max(purity["b"], purity["d"])
    assert abs(purity["d"] - purity["b"]) <= 0.1       # "d approx b"
    assert min(purity["d"], purity["b"]) > purity["c"]
    ordered = ", ".join(f"{case}={purity[case]:.3f}" for case in "abcd")
    report(10, f"reconstructed purities {ordered} obey a > d ~ b > c")


def test_criterion_11_manifest_determinism(preset_runs, tmp_path):
    source = preset_runs["a"]["path"]
    replay = tmp_path / "replay"
    presets.run_from_manifest(str(source / "manifest.json"),
                              output_dir=str(replay))
    names = sorted(p.name for p in source.iterdir())
    assert names == sorted(p.name for p in replay.iterdir())
    for name in names:
        assert (source / name).read_bytes() == (replay / name).read_bytes(), name
    report(11, f"manifest replay reproduced {len(names)} files byte for byte")
