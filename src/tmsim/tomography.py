"""Projective tomography: mutually unbiased projector sets, Poissonian count
simulation, iterative maximum-likelihood reconstruction and Monte Carlo
uncertainty estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    IllPosedError,
    InvalidArgumentError,
    UnsupportedDimensionError,
)
from .pdc import ModalDensityMatrix
from .qpg import SelectivityModel, project_probability


@dataclass(frozen=True, eq=False)
class Projector:
    """Unit-norm projection mode labelled by (basis, element)."""

    basis_index: int
    element_index: int
    coefficients: np.ndarray

    def __post_init__(self):
        vec = np.array(self.coefficients, dtype=complex)
        if vec.ndim != 1:
            raise InvalidArgumentError("projector coefficients must be 1-D")
        if abs(np.linalg.norm(vec) - 1.0) > 1e-12:
            raise InvalidArgumentError(
                f"projector ({self.basis_index}, {self.element_index}) is not "
                f"unit norm: {np.linalg.norm(vec)!r}")
        vec.flags.writeable = False
        object.__setattr__(self, "coefficients", vec)


@dataclass(frozen=True, eq=False)
class ProjectorSet:
    """Measurement set grouped into orthonormal bases."""

    dimension: int
    projectors: tuple

    def __post_init__(self):
        object.__setattr__(self, "projectors", tuple(self.projectors))
        by_basis = {}
        for proj in self.projectors:
            if proj.coefficients.size != self.dimension:
                raise InvalidArgumentError(
                    f"projector ({proj.basis_index}, {proj.element_index}) has "
                    f"length {proj.coefficients.size}, expected {self.dimension}")
            by_basis.setdefault(proj.basis_index, []).append(proj)
        for basis_index, group in by_basis.items():
            for i, p in enumerate(group):
                for q in group[i + 1:]:
                    overlap = abs(np.vdot(p.coefficients, q.coefficients))
                    if overlap > 1e-10:
                        raise InvalidArgumentError(
                            f"projectors {p.element_index} and {q.element_index} of "
                            f"basis {basis_index} overlap by {overlap:.3e}")

    def coefficient_matrix(self) -> np.ndarray:
        return np.array([p.coefficients for p in self.projectors])


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    k = 3
    while k * k <= n:
        if n % k == 0:
            return False
        k += 2
    return True


def mub_bases(dimension: int) -> ProjectorSet:
    """The d + 1 mutually unbiased bases of a prime dimension d.

    Basis 0 is computational.  For odd primes, basis a + 1 has elements
    e_j[k] = w^(a k^2 + j k) / sqrt(d) with w = exp(2 pi i / d); every
    cross-basis overlap squared equals 1/d.  d = 2 uses the standard qubit
    triple Z, X, Y (the quadratic construction needs fourth roots there).
    """
    if not _is_prime(dimension):
        raise UnsupportedDimensionError(
            f"mutually unbiased basis construction needs a prime dimension, "
            f"got {dimension}")
    d = dimension
    projectors = []
    eye = np.eye(d, dtype=complex)
    for j in range(d):
        projectors.append(Projector(0, j, eye[j]))
    if d == 2:
        inv = 1.0 / np.sqrt(2.0)
        extra = [
            [np.array([inv, inv]), np.array([inv, -inv])],
            [np.array([inv, 1j * inv]), np.array([inv, -1j * inv])],
        ]
        for a, basis in enumerate(extra):
            for j, vec in enumerate(basis):
                projectors.append(Projector(a + 1, j, vec))
        return ProjectorSet(dimension=d, projectors=tuple(projectors))
    roots = np.exp(2j * np.pi * np.arange(d) / d)
    k = np.arange(d)
    for a in range(d):
        for j in range(d):
            phases = roots[(a * k * k + j * k) % d]
            projectors.append(Projector(a + 1, j, phases / np.sqrt(d)))
    return ProjectorSet(dimension=d, projectors=tuple(projectors))


@dataclass(frozen=True)
class CountRecord:
    """Observed counts for one projector; exposure is a relative flux weight."""

    basis_index: int
    element_index: int
    counts: int
    exposure: float = 1.0

    def __post_init__(self):
        if int(self.counts) != self.counts or self.counts < 0:
            raise InvalidArgumentError(
                f"counts must be a non-negative integer, got {self.counts}")
        if not self.exposure > 0:
            raise InvalidArgumentError(
                f"exposure must be positive, got {self.exposure}")
        object.__setattr__(self, "counts", int(self.counts))


#: largest Poisson mean simulated; numpy's sampler stops near 9.2e18
MAX_POISSON_MEAN = 1e18


def expected_counts(rho: ModalDensityMatrix, pset: ProjectorSet,
                    sel: SelectivityModel = SelectivityModel(),
                    flux: float = 1.0, background: float = 0.0,
                    exposures: Optional[Sequence] = None) -> np.ndarray:
    """Poisson means flux * exposure * p + background for every projector.

    Raises InvalidArgumentError if a mean is not finite or exceeds
    MAX_POISSON_MEAN.
    """
    if not flux > 0:
        raise InvalidArgumentError(f"flux must be positive, got {flux}")
    if background < 0:
        raise InvalidArgumentError(f"background must be >= 0, got {background}")
    if exposures is None:
        exposures = np.ones(len(pset.projectors))
    exposures = np.asarray(exposures, dtype=float)
    if exposures.shape != (len(pset.projectors),):
        raise InvalidArgumentError("need one exposure per projector")
    probs = np.array([project_probability(rho, p.coefficients, sel)
                      for p in pset.projectors])
    rates = flux * exposures * probs + background
    if not np.all(rates <= MAX_POISSON_MEAN):
        raise InvalidArgumentError(
            f"Poisson means must be finite and at most {MAX_POISSON_MEAN:.0e}, "
            f"got {float(rates.max())!r}")
    return rates


def simulate_counts(rho: ModalDensityMatrix, pset: ProjectorSet,
                    sel: SelectivityModel = SelectivityModel(),
                    flux: float = 1e5, background: float = 0.0,
                    seed: int = 0,
                    exposures: Optional[Sequence] = None) -> list:
    """Draw one Poissonian count record per projector.

    `flux` is the mean total count budget of one complete basis.  Records
    come out in projector order and are reproducible for a fixed seed.
    """
    rates = expected_counts(rho, pset, sel, flux, background, exposures)
    rng = np.random.default_rng(seed)
    counts = rng.poisson(rates)
    if exposures is None:
        exposures = np.ones(len(pset.projectors))
    return [CountRecord(p.basis_index, p.element_index, int(n), float(w))
            for p, n, w in zip(pset.projectors, counts, exposures)]


@dataclass(frozen=True)
class MLEConfig:
    """Knobs of the diluted iterative reconstruction."""

    max_iterations: int = 100_000
    tolerance: float = 1e-10
    dilution: float = 0.5

    def __post_init__(self):
        if self.max_iterations < 1:
            raise InvalidArgumentError("max_iterations must be >= 1")
        if not self.tolerance > 0:
            raise InvalidArgumentError("tolerance must be positive")
        if not 0.0 < self.dilution <= 1.0:
            raise InvalidArgumentError(
                f"dilution must lie in (0, 1], got {self.dilution}")


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    rho_hat: ModalDensityMatrix
    log_likelihood: np.ndarray
    iterations: int
    converged: bool


def _hermitian_span_rank(kets: np.ndarray) -> int:
    """Rank of the projectors' span inside the real space of Hermitian
    matrices."""
    d = kets.shape[1]
    outers = kets[:, :, None] * np.conj(kets)[:, None, :]
    rows, cols = np.triu_indices(d, k=1)
    upper = outers[:, rows, cols]
    vecs = np.concatenate([np.real(np.diagonal(outers, axis1=1, axis2=2)),
                           np.sqrt(2.0) * np.real(upper),
                           np.sqrt(2.0) * np.imag(upper)], axis=1)
    return int(np.linalg.matrix_rank(vecs, tol=1e-10))


def _record_arrays(records: Sequence, pset: ProjectorSet,
                   subtract_background: float = 0.0):
    """Projector kets, background-floored counts and exposures of the
    records, in record order."""
    by_label = {(p.basis_index, p.element_index): p for p in pset.projectors}
    kets = []
    counts = []
    weights = []
    for rec in records:
        key = (rec.basis_index, rec.element_index)
        if key not in by_label:
            raise InvalidArgumentError(f"record {key} has no matching projector")
        kets.append(by_label[key].coefficients)
        counts.append(max(rec.counts - subtract_background, 0.0))
        weights.append(rec.exposure)
    if not kets:
        raise InvalidArgumentError("no count records supplied")
    return (np.array(kets), np.array(counts, dtype=float),
            np.array(weights, dtype=float))


def _rrhor(kets: np.ndarray, counts: np.ndarray, weights: np.ndarray,
           cfg: MLEConfig, history: Optional[list] = None):
    """Diluted R rho R iteration for a stack of count vectors at once.

    `kets` (n, d) are the measured projectors, `weights` (n,) their
    exposures and each row of `counts` (B, n) one data set, normalized by
    its own total.  Every row starts from the maximally mixed state and
    stops on the iteration its mean log-likelihood changes by less than
    `cfg.tolerance`; it then leaves the active set and later iterations do
    not touch it.  When `history` is a list, the mean log-likelihoods of
    the active rows are appended to it at the start and after every step.

    Returns the Hermitian-symmetrized estimates (B, d, d), the iteration
    count (B,), the convergence flag (B,) and the final mean
    log-likelihood (B,) of every row.
    """
    n, d = kets.shape
    size = counts.shape[0]
    totals = counts.sum(axis=1)
    if np.any(totals <= 0):
        raise InvalidArgumentError("total counts must be positive")
    # row i of `outer` is |m_i><m_i| flattened, so R = ratios @ outer and
    # p = Re(rho_flat @ conj(outer).T).  Both products are taken row by row,
    # as (B, 1, .) stacks: numpy sends a one-row product to gemv and a
    # B-row one to gemm, whose rounding differs, and a row's stop iteration
    # must not depend on the batch it is fitted in.
    outer = (kets[:, :, None] * np.conj(kets)[:, None, :]).reshape(n, d * d)
    outer_h = np.conj(outer).T
    lam = cfg.dilution
    damping = (1.0 - lam) * np.eye(d, dtype=complex)

    def mean_log_likelihood(probs, counts, totals):
        weighted = weights * probs
        terms = np.where(counts > 0,
                         counts * np.log(np.maximum(weighted, 1e-300)), 0.0)
        return terms.sum(axis=1) / totals - np.log(weighted.sum(axis=1))

    estimates = np.empty((size, d, d), dtype=complex)
    iterations = np.full(size, cfg.max_iterations)
    converged = np.zeros(size, dtype=bool)
    log_likelihood = np.empty(size)

    rows = np.arange(size)
    rho = np.repeat(np.eye(d, dtype=complex)[None] / d, size, axis=0)
    probs = np.real(rho.reshape(-1, 1, d * d) @ outer_h)[:, 0]
    current = mean_log_likelihood(probs, counts, totals)
    if history is not None:
        history.append(current)
    for step in range(1, cfg.max_iterations + 1):
        ratios = counts / (totals[:, None] * np.maximum(probs, 1e-300))
        growth = damping + lam * (ratios[:, None, :] @ outer).reshape(-1, d, d)
        rho = growth @ rho @ np.conj(growth).transpose(0, 2, 1)
        rho = rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]
        probs = np.real(rho.reshape(-1, 1, d * d) @ outer_h)[:, 0]
        previous, current = current, mean_log_likelihood(probs, counts, totals)
        if history is not None:
            history.append(current)
        done = np.abs(current - previous) < cfg.tolerance
        if done.any():
            stopped = rows[done]
            estimates[stopped] = rho[done]
            iterations[stopped] = step
            converged[stopped] = True
            log_likelihood[stopped] = current[done]
            keep = ~done
            if not keep.any():
                break
            rows, rho, probs = rows[keep], rho[keep], probs[keep]
            current, counts, totals = current[keep], counts[keep], totals[keep]
    else:
        estimates[rows] = rho
        log_likelihood[rows] = current
    estimates = 0.5 * (estimates + np.conj(estimates).transpose(0, 2, 1))
    return estimates, iterations, converged, log_likelihood


def mle_reconstruct(records: Sequence, pset: ProjectorSet,
                    cfg: MLEConfig = MLEConfig(),
                    subtract_background: float = 0.0) -> ReconstructionResult:
    """Maximum-likelihood state estimate by the diluted R rho R iteration.

    Iterates rho <- normalize[G rho G] with G = (1 - lambda) I + lambda R
    and R = sum_i n_i / (N p_i) |m_i><m_i|, which is positive semidefinite
    by construction at every step.  Convergence is declared when the
    per-count log-likelihood changes by less than the configured tolerance.

    `subtract_background` removes a known mean background from every record
    (floored at zero) before fitting; default is no subtraction.

    Raises
    ------
    IllPosedError
        If the recorded projectors do not span the space of Hermitian
        matrices, so no unique estimate exists.
    InvalidArgumentError
        If the records carry no counts at all.
    """
    if subtract_background < 0:
        raise InvalidArgumentError("subtract_background must be >= 0")
    kets, counts, weights = _record_arrays(records, pset, subtract_background)
    d = pset.dimension
    if _hermitian_span_rank(kets) < d * d:
        raise IllPosedError(
            "recorded projectors do not span the state space; "
            f"need {d * d} independent directions")
    trace = []
    rho, iterations, converged, _ = _rrhor(kets, counts[None], weights, cfg,
                                           history=trace)
    result = ModalDensityMatrix(dimension=d, entries=rho[0])
    return ReconstructionResult(rho_hat=result,
                                log_likelihood=np.concatenate(trace),
                                iterations=int(iterations[0]),
                                converged=bool(converged[0]))


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    evals, evecs = np.linalg.eigh(mat)
    evals = np.clip(evals, 0.0, None)
    return (evecs * np.sqrt(evals)) @ evecs.conj().T


@dataclass(frozen=True)
class StateMetrics:
    purity_a: float
    fidelity: float
    trace_distance: float


def state_metrics(rho_a: ModalDensityMatrix,
                  rho_b: ModalDensityMatrix) -> StateMetrics:
    """Purity of the first state plus Uhlmann fidelity and trace distance
    between the two."""
    if rho_a.dimension != rho_b.dimension:
        raise InvalidArgumentError(
            f"dimension mismatch: {rho_a.dimension} vs {rho_b.dimension}")
    a = rho_a.entries
    b = rho_b.entries
    sqrt_a = _psd_sqrt(a)
    inner = np.linalg.eigvalsh(sqrt_a @ b @ sqrt_a)
    fidelity = float(np.sum(np.sqrt(np.clip(inner, 0.0, None))) ** 2)
    distance = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))
    return StateMetrics(purity_a=rho_a.purity(), fidelity=fidelity,
                        trace_distance=distance)


@dataclass(frozen=True, eq=False)
class MonteCarloErrors:
    purity_mean: float
    purity_std: float
    fidelity_std: float
    purities: np.ndarray
    fidelities: np.ndarray
    baseline: ReconstructionResult  # the fit to the observed counts
    nonconverged: int  # resamples that hit max_iterations; still included


def monte_carlo_errors(records: Sequence, pset: ProjectorSet,
                       cfg: MLEConfig = MLEConfig(), resamples: int = 100,
                       seed: int = 0) -> MonteCarloErrors:
    """Poissonian bootstrap of the reconstruction.

    Each resample redraws every record as Poisson(n_i) and reconstructs;
    reported are the spread of the purity and of the fidelity against the
    baseline reconstruction.  All resample counts are drawn up front from
    one seeded generator and fitted together in one batched solve, each
    under the same stop rule as a single fit, so results do not depend on
    evaluation order.

    Raises
    ------
    InvalidArgumentError
        If fewer than two resamples are asked for, or a resample draws no
        counts at all.
    """
    if resamples < 2:
        raise InvalidArgumentError(f"resamples must be >= 2, got {resamples}")
    baseline = mle_reconstruct(records, pset, cfg)
    kets, observed, weights = _record_arrays(records, pset)
    rng = np.random.default_rng(seed)
    resampled = rng.poisson(observed, size=(resamples, observed.size))
    rhos, _, converged, _ = _rrhor(kets, resampled.astype(float), weights, cfg)

    purities = np.einsum("rab,rba->r", rhos, rhos).real
    # F(estimate, baseline) = (tr sqrt(sqrt(b) r sqrt(b)))^2, symmetric in r, b
    sqrt_base = _psd_sqrt(baseline.rho_hat.entries)
    inner = np.linalg.eigvalsh(sqrt_base @ rhos @ sqrt_base)
    fidelities = np.sum(np.sqrt(np.clip(inner, 0.0, None)), axis=1) ** 2
    return MonteCarloErrors(
        purity_mean=float(purities.mean()),
        purity_std=float(purities.std(ddof=1)),
        fidelity_std=float(fidelities.std(ddof=1)),
        purities=purities, fidelities=fidelities, baseline=baseline,
        nonconverged=int(np.count_nonzero(~converged)))
