"""Projective tomography: mutually unbiased projector sets, Poissonian count
simulation, iterative maximum-likelihood reconstruction and Monte Carlo
uncertainty estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (
    IllPosedError,
    InvalidArgumentError,
    UnsupportedDimensionError,
)
from .pdc import ModalDensityMatrix
from .qpg import SelectivityModel, gate_operators


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
        if not abs(np.linalg.norm(vec) - 1.0) <= 1e-12:
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
    _coefficients: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "projectors", tuple(self.projectors))
        for proj in self.projectors:
            if proj.coefficients.size != self.dimension:
                raise InvalidArgumentError(
                    f"projector ({proj.basis_index}, {proj.element_index}) has "
                    f"length {proj.coefficients.size}, expected {self.dimension}")
        coeffs = np.array([p.coefficients for p in self.projectors],
                          dtype=complex).reshape(-1, self.dimension)
        bases = np.array([p.basis_index for p in self.projectors])
        for basis_index in dict.fromkeys(bases.tolist()):
            members = np.flatnonzero(bases == basis_index)
            overlaps = np.triu(np.abs(np.conj(coeffs[members]) @ coeffs[members].T), 1)
            pairs = np.argwhere(overlaps > 1e-10)
            if pairs.size:
                i, j = pairs[0]
                raise InvalidArgumentError(
                    f"projectors {self.projectors[members[i]].element_index} and "
                    f"{self.projectors[members[j]].element_index} of basis "
                    f"{basis_index} overlap by {overlaps[i, j]:.3e}")
        coeffs.flags.writeable = False
        object.__setattr__(self, "_coefficients", coeffs)

    def coefficient_matrix(self) -> np.ndarray:
        """Read-only (n, d) stack of the projector kets, in projector order."""
        return self._coefficients


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % k for k in range(2, int(n**0.5) + 1))


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
    if d == 2:
        inv = 1.0 / np.sqrt(2.0)
        extra = np.array([[inv, inv], [inv, -inv], [inv, 1j * inv], [inv, -1j * inv]])
    else:
        roots = np.exp(2j * np.pi * np.arange(d) / d)
        a, j, k = np.ix_(np.arange(d), np.arange(d), np.arange(d))
        extra = (roots[(a * k * k + j * k) % d] / np.sqrt(d)).reshape(d * d, d)
    rows = np.concatenate([np.eye(d, dtype=complex), extra])
    return ProjectorSet(dimension=d, projectors=tuple(
        Projector(i // d, i % d, row) for i, row in enumerate(rows)))


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
        if not 0 < self.exposure < np.inf:
            raise InvalidArgumentError(
                f"exposure must be finite and positive, got {self.exposure}")
        object.__setattr__(self, "counts", int(self.counts))


#: largest Poisson mean simulated; numpy's sampler stops near 9.2e18
MAX_POISSON_MEAN = 1e18


def expected_counts(rho: ModalDensityMatrix, pset: ProjectorSet,
                    sel: SelectivityModel = SelectivityModel(),
                    flux: float = 1.0, background: float = 0.0,
                    exposures: Optional[Sequence] = None) -> np.ndarray:
    """Poisson means flux * exposure * p + background for every projector.

    Raises InvalidArgumentError if an exposure is not finite and positive,
    or a mean is not finite or exceeds MAX_POISSON_MEAN.
    """
    if not flux > 0:
        raise InvalidArgumentError(f"flux must be positive, got {flux}")
    if not background >= 0:
        raise InvalidArgumentError(f"background must be >= 0, got {background}")
    if pset.dimension != rho.dimension:
        raise InvalidArgumentError(
            f"projectors have dimension {pset.dimension}, state {rho.dimension}")
    if exposures is None:
        exposures = np.ones(len(pset.projectors))
    exposures = np.asarray(exposures, dtype=float)
    if exposures.shape != (len(pset.projectors),):
        raise InvalidArgumentError("need one exposure per projector")
    bad = exposures[~((exposures > 0) & (exposures < np.inf))]
    if bad.size:
        raise InvalidArgumentError(
            f"exposure must be finite and positive, got {bad[0]}")
    ops = gate_operators(pset.coefficient_matrix(), sel)
    probs = np.clip(np.einsum("nab,ba->n", ops, rho.entries).real, 0.0, 1.0)
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
    if not seed >= 0:
        raise InvalidArgumentError(f"seed must be >= 0, got {seed}")
    exposures = np.ones(len(pset.projectors)) if exposures is None else exposures
    rates = expected_counts(rho, pset, sel, flux, background, exposures)
    counts = np.random.default_rng(seed).poisson(rates)
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


def _hermitian_packing(d: int):
    """Index maps between the float view of a complex (d, d) matrix and
    its d^2 real Hermitian coordinates: Re of the diagonal, then Re and Im
    of the strict upper triangle, row-major.

    `gather` picks the coordinates out of the 2 d^2 floats of the view.
    `scatter` rebuilds the view from [x, -x, 0], 2 d^2 + 1 floats: the
    lower triangle reads the upper one with its imaginary part negated,
    and the diagonal's imaginary part reads the trailing zero.
    """
    diag, upper = np.diag_indices(d), np.triu_indices(d, 1)
    lower, m = upper[::-1], len(upper[0])
    view = np.arange(2 * d * d).reshape(d, d, 2)
    gather = np.concatenate([view[diag][:, 0], view[upper][:, 0], view[upper][:, 1]])
    scatter = np.full((d, d, 2), 2 * d * d)
    scatter[diag + (0,)] = np.arange(d)
    scatter[upper + (0,)] = scatter[lower + (0,)] = d + np.arange(m)
    scatter[upper + (1,)] = d + m + np.arange(m)
    scatter[lower + (1,)] = d * d + d + m + np.arange(m)
    return gather, scatter.reshape(-1)


def _hermitian_coordinates(kets: np.ndarray) -> np.ndarray:
    """(n, d^2) real coordinates of the ideal gate operators of the (n, d)
    `kets`, in `_hermitian_packing` order with the off-diagonal columns
    doubled, so that Tr(rho E_i) is x . C[i] for rho's coordinates x."""
    d = kets.shape[1]
    ops = gate_operators(kets)
    coords = ops.reshape(len(ops), -1).view(float).take(_hermitian_packing(d)[0], axis=1)
    coords[:, d:] *= 2.0
    return coords


def _probabilities(rho: np.ndarray, coords: np.ndarray, gather: np.ndarray):
    """Tr(rho E_i), shape (B, n), for the Hermitian (B, d, d) stack `rho`
    and the operators' `_hermitian_coordinates`, from rho's upper triangle."""
    x = rho.reshape(len(rho), -1).view(float).take(gather, axis=1)
    return (x[:, None, :] @ coords.T)[:, 0]


def _hermitian(x: np.ndarray, scatter: np.ndarray) -> np.ndarray:
    """The (B, d, d) Hermitian matrices of the (B, d^2) coordinates `x`."""
    d = int(np.sqrt(x.shape[1]))
    full = np.concatenate([x, -x, np.zeros((len(x), 1))], axis=1).take(scatter, axis=1)
    return full.view(complex).reshape(len(x), d, d)


def _hermitian_span_rank(coords: np.ndarray) -> int:
    """Rank of the projectors' span inside the real space of Hermitian
    matrices, read from their `_hermitian_coordinates`."""
    return int(np.linalg.matrix_rank(coords, tol=1e-10))


#: largest relative deviation of sum_i w_i E_i from a multiple of I that a
#: fit accepts
IDENTITY_TOLERANCE = 1e-9


def _record_arrays(records: Sequence, pset: ProjectorSet,
                   subtract_background: float = 0.0):
    """Hermitian coordinates of the recorded projectors, background-floored
    counts and exposures of the records, in record order: the front end of
    every fit.

    Raises IllPosedError unless the projectors span the Hermitian matrices,
    and InvalidArgumentError unless the exposure-weighted measurement
    operators sum to a multiple of the identity, which the R rho R fixed
    point assumes."""
    if not subtract_background >= 0:
        raise InvalidArgumentError("subtract_background must be >= 0")
    if not records:
        raise InvalidArgumentError("no count records supplied")
    index = {(p.basis_index, p.element_index): i for i, p in enumerate(pset.projectors)}
    labels = [(rec.basis_index, rec.element_index) for rec in records]
    for key in labels:
        if key not in index:
            raise InvalidArgumentError(f"record {key} has no matching projector")
    d = pset.dimension
    coords = _hermitian_coordinates(
        pset.coefficient_matrix()[[index[key] for key in labels]])
    if _hermitian_span_rank(coords) < d ** 2:
        raise IllPosedError(
            "recorded projectors do not span the state space; "
            f"need {d ** 2} independent directions")
    weights = np.array([rec.exposure for rec in records], dtype=float)
    h = weights @ coords  # sum_i w_i E_i, its off-diagonal entries doubled
    scale = h[:d].mean()
    deviation = max(np.abs(h[:d] - scale).max(),
                    0.5 * np.abs(h[d:]).max(initial=0.0)) / scale
    if not deviation <= IDENTITY_TOLERANCE:
        raise InvalidArgumentError(
            "the exposure-weighted measurement operators do not sum to a "
            f"multiple of the identity (relative deviation {deviation:.3e}); "
            "R rho R fits only such record sets: record every projector of a "
            "basis with one exposure (the H-normalised iteration of ROADMAP "
            "item 2 would lift this)")
    counts = [max(rec.counts - subtract_background, 0.0) for rec in records]
    return coords, np.array(counts, dtype=float), weights


def _rrhor(coords: np.ndarray, counts: np.ndarray, weights: np.ndarray,
           cfg: MLEConfig):
    """Diluted R rho R iteration for a stack of count vectors at once.

    `coords` (n, d^2) are the measured operators' `_hermitian_coordinates`,
    `weights` (n,) their exposures and each row of `counts` (B, n) one data
    set, normalized by its own total.  Every row starts from the maximally
    mixed state and stops on the iteration its mean log-likelihood changes
    by less than `cfg.tolerance`; it then leaves the active set and later
    iterations do not touch it.

    Returns the Hermitian-symmetrized estimates (B, d, d), the iteration
    count (B,), the convergence flag (B,) and row 0's mean log-likelihood
    at the start and after every step it took.
    """
    size = counts.shape[0]
    d = int(np.sqrt(coords.shape[1]))
    totals = counts.sum(axis=1)
    if np.any(totals <= 0):
        raise InvalidArgumentError("total counts must be positive")
    # p = x @ coords.T for rho's coordinates x, and R's coordinates are
    # ratios @ coords with the off-diagonal ones doubled.  Both products
    # are taken row by row, as (B, 1, .) stacks: numpy sends a one-row
    # product to gemv and a B-row one to gemm, whose rounding differs, and
    # a row's stop iteration must not depend on the batch it is fitted in.
    gather, scatter = _hermitian_packing(d)
    lam = cfg.dilution
    # G = (1 - lam) I + lam R in coordinates; the 0.5 undoes the doubled
    # off-diagonal columns of `coords`
    scale = np.full(d * d, 0.5 * lam)
    scale[:d] = lam
    shift = np.zeros(d * d)
    shift[:d] = 1.0 - lam
    freqs = counts / totals[:, None]

    def mean_log_likelihood(probs, freqs):
        # a zero frequency times the floored, finite log adds nothing
        weighted = weights * probs
        return ((freqs * np.log(np.maximum(weighted, 1e-300))).sum(axis=1)
                - np.log(weighted.sum(axis=1)))

    estimates = np.empty((size, d, d), dtype=complex)
    iterations = np.full(size, cfg.max_iterations)
    converged = np.zeros(size, dtype=bool)

    rows = np.arange(size)
    rho = np.repeat(np.eye(d, dtype=complex)[None] / d, size, axis=0)
    probs = _probabilities(rho, coords, gather)
    current = mean_log_likelihood(probs, freqs)
    trace = [current[0]]
    for step in range(1, cfg.max_iterations + 1):
        ratios = freqs / np.maximum(probs, 1e-300)
        growth = _hermitian((ratios[:, None, :] @ coords)[:, 0] * scale + shift,
                            scatter)
        rho = growth @ rho @ growth  # G is Hermitian by construction
        rho *= (1.0 / np.einsum("bii->b", rho).real)[:, None, None]
        probs = _probabilities(rho, coords, gather)
        previous, current = current, mean_log_likelihood(probs, freqs)
        if rows[0] == 0:
            trace.append(current[0])
        done = np.abs(current - previous) < cfg.tolerance
        if done.any():
            stopped = rows[done]
            estimates[stopped] = rho[done]
            iterations[stopped] = step
            converged[stopped] = True
            keep = ~done
            if not keep.any():
                break
            rows, rho, probs = rows[keep], rho[keep], probs[keep]
            current, freqs = current[keep], freqs[keep]
    else:
        estimates[rows] = rho
    estimates = 0.5 * (estimates + np.conj(estimates).transpose(0, 2, 1))
    return estimates, iterations, converged, np.array(trace)


def _fit(records: Sequence, pset: ProjectorSet, cfg: MLEConfig,
         subtract_background: float = 0.0, resamples: int = 0, seed: int = 0):
    """Fit the records' counts as row 0 of one batched solve, above their
    `resamples` Poisson redraws from one generator seeded with `seed`.
    Returns row 0's reconstruction and the other rows' estimates and flags."""
    coords, observed, weights = _record_arrays(records, pset, subtract_background)
    draws = np.random.default_rng(seed).poisson(observed, (resamples, len(observed)))
    rhos, iterations, converged, trace = _rrhor(
        coords, np.concatenate([observed[None], draws]), weights, cfg)
    baseline = ReconstructionResult(
        rho_hat=ModalDensityMatrix(dimension=pset.dimension, entries=rhos[0]),
        log_likelihood=trace, iterations=int(iterations[0]),
        converged=bool(converged[0]))
    return baseline, rhos[1:], converged[1:]


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
        If the records carry no counts at all, or their exposure-weighted
        projectors do not sum to a multiple of the identity.
    """
    return _fit(records, pset, cfg, subtract_background)[0]


def _fidelities(reference: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Uhlmann fidelity (tr sqrt(sqrt(a) b sqrt(a)))^2 of the reference
    state a with every state b of the (B, d, d) stack; symmetric in a, b."""
    evals, evecs = np.linalg.eigh(reference)
    sqrt_ref = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T
    inner = np.linalg.eigvalsh(sqrt_ref @ stack @ sqrt_ref)
    return np.sum(np.sqrt(np.clip(inner, 0.0, None)), axis=1) ** 2


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
    a, b = rho_a.entries, rho_b.entries
    fidelity = float(_fidelities(a, b[None])[0])
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
    baseline reconstruction, which is row 0 of the same batched solve.
    Every row stops under the rule of a single fit, so results do not
    depend on evaluation order.

    Raises
    ------
    InvalidArgumentError
        If fewer than two resamples are asked for, the seed is negative,
        the records fail the checks of `mle_reconstruct`, or a resample
        draws no counts at all.
    """
    if resamples < 2:
        raise InvalidArgumentError(f"resamples must be >= 2, got {resamples}")
    if not seed >= 0:
        raise InvalidArgumentError(f"seed must be >= 0, got {seed}")
    baseline, rhos, converged = _fit(records, pset, cfg,
                                     resamples=resamples, seed=seed)
    purities = np.einsum("rab,rba->r", rhos, rhos).real
    fidelities = _fidelities(baseline.rho_hat.entries, rhos)
    return MonteCarloErrors(
        purity_mean=float(purities.mean()),
        purity_std=float(purities.std(ddof=1)),
        fidelity_std=float(fidelities.std(ddof=1)),
        purities=purities, fidelities=fidelities, baseline=baseline,
        nonconverged=int(np.count_nonzero(~converged)))
