"""Projective tomography: mutually unbiased projector sets, Poissonian count
simulation, certified maximum-likelihood reconstruction and Monte Carlo
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
                f"unit norm: {float(np.linalg.norm(vec))}")
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
        for name in ("basis_index", "element_index"):
            if getattr(self, name) < 0:
                raise InvalidArgumentError(
                    f"{name} must be non-negative, got {getattr(self, name)}")
        if not 0 < self.exposure < np.inf:
            raise InvalidArgumentError(
                f"exposure must be finite and positive, got {self.exposure}")
        object.__setattr__(self, "counts", int(self.counts))


#: largest Poisson mean simulated; numpy's sampler stops near 9.2e18
MAX_POISSON_MEAN = 1e18


def _exposure_array(exposures: Optional[Sequence], count: int) -> np.ndarray:
    """The `count` exposures, finite and positive, as floats; all 1 if None."""
    exposures = np.ones(count) if exposures is None else np.asarray(exposures, float)
    if exposures.shape != (count,):
        raise InvalidArgumentError("need one exposure per projector")
    bad = exposures[~((exposures > 0) & (exposures < np.inf))]
    if bad.size:
        raise InvalidArgumentError(
            f"exposure must be finite and positive, got {bad[0]}")
    return exposures


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
    exposures = _exposure_array(exposures, len(pset.projectors))
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
    exposures = _exposure_array(exposures, len(pset.projectors))
    rates = expected_counts(rho, pset, sel, flux, background, exposures)
    counts = np.random.default_rng(seed).poisson(rates)
    return [CountRecord(p.basis_index, p.element_index, int(n), float(w))
            for p, n, w in zip(pset.projectors, counts, exposures)]


@dataclass(frozen=True)
class MLEConfig:
    """Knobs of the maximum-likelihood fit.  `tolerance` bounds the
    certificate lambda_max(R) - 1 of an accepted estimate; double precision
    does not reach values much below 1e-13."""

    max_iterations: int = 100_000
    tolerance: float = 1e-8

    def __post_init__(self):
        if self.max_iterations < 1:
            raise InvalidArgumentError("max_iterations must be >= 1")
        if not 0 < self.tolerance < np.inf:
            raise InvalidArgumentError(
                f"tolerance must be finite and positive, got {self.tolerance}")


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    rho_hat: ModalDensityMatrix
    log_likelihood: np.ndarray
    iterations: int
    converged: bool
    certificate: float  # lambda_max(R) - 1 at the estimate; 0 at the optimum


def _flat_operators(kets: np.ndarray) -> np.ndarray:
    """The (n, 2 d^2) float view of the flattened ideal gate operators of
    the (n, d) `kets`: Tr(rho E_i) is the dot product of the float views of
    a Hermitian rho and E_i, and sum_i r_i E_i the complex view of r @ flat."""
    return gate_operators(kets).reshape(len(kets), -1).view(float)


def _probabilities(rho: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """Tr(rho E_i), shape (B, n), for the Hermitian (B, d, d) stack `rho`
    and the operators' `_flat_operators`.  The product is taken row by
    row, as a (B, 1, .) stack: numpy sends a one-row product to gemv and a
    B-row one to gemm, whose rounding differs, and a row's result must not
    depend on its batch."""
    return (rho.reshape(len(rho), 1, -1).view(float) @ flat.T)[:, 0]


def _operator_sum(ratios: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """The (B, d, d) matrices sum_i r_i E_i for the (B, n) `ratios`, taken
    row by row like `_probabilities`."""
    d = int(np.sqrt(flat.shape[1] // 2))
    return (ratios[:, None, :] @ flat)[:, 0].view(complex).reshape(len(ratios), d, d)


def _hermitian_span_rank(flat: np.ndarray) -> int:
    """Rank of the projectors' span inside the real space of Hermitian
    matrices, read from their `_flat_operators`."""
    return int(np.linalg.matrix_rank(flat, tol=1e-10))


#: largest relative deviation of sum_i w_i E_i from a multiple of I that a
#: fit accepts
IDENTITY_TOLERANCE = 1e-9


def _record_arrays(records: Sequence, pset: ProjectorSet,
                   subtract_background: float = 0.0):
    """Flat operators (`_flat_operators`) of the recorded projectors,
    background-floored counts and exposures of the records, in record
    order: the front end of every fit.

    Raises IllPosedError unless the projectors span the Hermitian matrices,
    and InvalidArgumentError unless the exposure-weighted measurement
    operators sum to a multiple of the identity: only then is the expected
    total count the same for every state, so that the fit's objective
    -sum_i f_i log p_i may leave it out."""
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
    flat = _flat_operators(pset.coefficient_matrix()[[index[key] for key in labels]])
    if _hermitian_span_rank(flat) < d ** 2:
        raise IllPosedError(
            "recorded projectors do not span the state space; "
            f"need {d ** 2} independent directions")
    weights = np.array([rec.exposure for rec in records], dtype=float)
    h = (weights @ flat).view(complex).reshape(d, d)  # sum_i w_i E_i
    scale = h.diagonal().real.mean()
    deviation = np.abs((h - scale * np.eye(d)).view(float)).max() / scale
    if not deviation <= IDENTITY_TOLERANCE:
        raise InvalidArgumentError(
            "the exposure-weighted measurement operators do not sum to a "
            f"multiple of the identity (relative deviation {deviation:.3e}); "
            "the likelihood fit leaves out the expected total count, which "
            "is only right for such record sets: record every projector of a "
            "basis with one exposure (a log tr(H rho) term in the objective, "
            "ROADMAP item 2, would lift this)")
    counts = [max(rec.counts - subtract_background, 0.0) for rec in records]
    return flat, np.array(counts, dtype=float), weights


def _density_projection(rho: np.ndarray):
    """The density matrices nearest in Frobenius norm to the Hermitian
    (B, d, d) stack: each eigenvalue spectrum goes onto the unit simplex
    under the same eigenvectors, which are returned too.

    The simplex projection of a spectrum lambda is max(lambda - s, 0) with
    s the largest (sum of the k largest eigenvalues - 1) / k over k."""
    evals, evecs = np.linalg.eigh(rho)
    d = evals.shape[1]
    shifts = (np.cumsum(evals[:, ::-1], axis=1) - 1.0) / np.arange(1, d + 1)
    weights = np.maximum(evals - shifts.max(axis=1, keepdims=True), 0.0)
    return (evecs * weights[:, None, :]) @ np.conj(evecs).transpose(0, 2, 1), evecs


def _apg(flat: np.ndarray, counts: np.ndarray, weights: np.ndarray,
         cfg: MLEConfig):
    """Accelerated projected-gradient maximum likelihood for a stack of
    count vectors at once (Shang, Zhang & Ng, PRA 95, 062336, 2017).

    `flat` (n, 2 d^2) are the measured operators' `_flat_operators`,
    `weights` (n,) their exposures and each row of `counts` (B, n) one data
    set with frequencies f = counts / total.  Each row minimizes
    F(rho) = -sum_i f_i log p_i over the density matrices, starting from the
    maximally mixed state, by projected gradient steps with Nesterov
    momentum, a gradient restart and a backtracking step size of its own,
    on the complex (B, d, d) stack that the projection returns.  A row
    stops on the first iterate whose gradient certificate lambda_max(R) - 1,
    with R = -grad F = sum_i f_i / p_i E_i, is at most `cfg.tolerance`
    (Glancy, Knill & Girard, NJP 14, 095017, 2012); it then leaves the
    active set and later iterations do not touch it.

    Returns the estimates (B, d, d), each the exactly Hermitian
    (x + x^H) / 2 of its iterate x, the iteration count (B,), the
    convergence flag (B,), the certificate of each returned estimate (B,)
    and row 0's mean log-likelihood at the start and after every step it
    took.
    """
    size = counts.shape[0]
    d = int(np.sqrt(flat.shape[1] // 2))
    totals = counts.sum(axis=1)
    if np.any(totals <= 0):
        raise InvalidArgumentError("total counts must be positive")
    freqs = counts / totals[:, None]

    def objective(probs, freqs):
        # a zero frequency times the floored, finite log adds nothing
        return -(freqs * np.log(np.maximum(probs, 1e-300))).sum(axis=1)

    def mean_log_likelihood(probs, freqs):  # of one row, for the trace
        weighted = weights * probs
        return (freqs @ np.log(np.maximum(weighted, 1e-300))
                - np.log(weighted.sum()))

    def projected_step(y, r_y, step):  # the projection of y + step R(y)
        x, basis = _density_projection(y + step[:, None, None] * r_y)
        return x, _probabilities(x, flat), basis

    def rejected(x, probs, y, probs_y, value_y, ratios, step, freqs):
        # F(x) above the quadratic model of F around y, in which
        # tr(R(y) (x - y)) = ratios . (p(x) - p(y)); the 1e-15 slack absorbs
        # the rounding of F, without which the step collapses near the optimum
        move = (x - y).reshape(len(x), -1).view(float)  # |x - y|^2 = move . move
        bound = (value_y - (ratios * (probs - probs_y)).sum(axis=1)
                 + (move * move).sum(axis=1) / (2.0 * step)
                 + 1e-15 * np.abs(value_y))
        return ~(objective(probs, freqs) <= bound)

    # every row is filled in on the iteration it stops, the last one at most
    estimates = np.empty((size, d, d), dtype=complex)
    iterations = np.empty(size, dtype=int)
    converged = np.empty(size, dtype=bool)
    certificates = np.empty(size)

    rows = np.arange(size)
    x = np.repeat(np.eye(d, dtype=complex)[None] / d, size, axis=0)
    probs = _probabilities(x, flat)
    y, probs_y, value_y = x, probs, objective(probs, freqs)
    theta, step = np.ones(size), np.ones(size)
    trace = [mean_log_likelihood(probs[0], freqs[0])]
    for iteration in range(1, cfg.max_iterations + 1):
        ratios = freqs / np.maximum(probs_y, 1e-300)
        r_y = _operator_sum(ratios, flat)
        new, probs_new, basis = projected_step(y, r_y, step)
        retry = np.flatnonzero(rejected(new, probs_new, y, probs_y, value_y,
                                        ratios, step, freqs))
        while retry.size:
            step[retry] *= 0.5
            new[retry], probs_new[retry], basis[retry] = projected_step(
                y[retry], r_y[retry], step[retry])
            retry = retry[rejected(new[retry], probs_new[retry], y[retry],
                                   probs_y[retry], value_y[retry],
                                   ratios[retry], step[retry], freqs[retry])]
        # Nesterov momentum, restarted when the step went against R(y)
        restart = (ratios * (probs_new - probs)).sum(axis=1) < 0.0
        theta_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta * theta))
        momentum = np.where(restart, 0.0, (theta - 1.0) / theta_next)
        theta = np.where(restart, 1.0, theta_next)
        x_old, probs_old, x, probs = x, probs, new, probs_new
        if rows[0] == 0:
            trace.append(mean_log_likelihood(probs[0], freqs[0]))
        ratios = freqs / np.maximum(probs, 1e-300)
        r_matrix = _operator_sum(ratios, flat)
        # R's Rayleigh quotients on the eigenvectors of the projection bound
        # lambda_max(R) from below, so only the rows they do not rule out
        # need R's eigenvalues
        quotients = (np.conj(basis) * (r_matrix @ basis)).sum(axis=1).real
        certificate = quotients.max(axis=1) - 1.0
        last = iteration == cfg.max_iterations
        exact = (certificate <= cfg.tolerance) | last
        if exact.any():
            certificate[exact] = np.linalg.eigvalsh(r_matrix[exact])[:, -1] - 1.0
        stop = (certificate <= cfg.tolerance) | last
        if stop.any():
            stopped, done = rows[stop], x[stop]
            estimates[stopped] = 0.5 * (done + np.conj(done).transpose(0, 2, 1))
            iterations[stopped] = iteration
            converged[stopped] = certificate[stop] <= cfg.tolerance
            certificates[stopped] = certificate[stop]
            keep = ~stop
            if not keep.any():
                break
            rows, freqs, theta, step, momentum = (
                a[keep] for a in (rows, freqs, theta, step, momentum))
            x, probs, x_old, probs_old = (
                a[keep] for a in (x, probs, x_old, probs_old))
        # the momentum point; p is linear in rho, so p(y) needs no product.
        # A row whose y leaves some p_i <= 0 restarts from its iterate.
        y = x + momentum[:, None, None] * (x - x_old)
        probs_y = probs + momentum[:, None] * (probs - probs_old)
        outside = (probs_y <= 0.0).any(axis=1)
        if outside.any():
            y[outside], probs_y[outside] = x[outside], probs[outside]
            theta[outside] = 1.0
        value_y = objective(probs_y, freqs)
        step *= 1.2
    return estimates, iterations, converged, certificates, np.array(trace)


def _fit(records: Sequence, pset: ProjectorSet, cfg: MLEConfig,
         subtract_background: float = 0.0, resamples: int = 0, seed: int = 0):
    """Fit the records' counts as row 0 of one batched solve, above their
    `resamples` Poisson redraws from one generator seeded with `seed`.
    Returns row 0's reconstruction and the other rows' estimates, flags and
    certificates."""
    flat, observed, weights = _record_arrays(records, pset, subtract_background)
    counts = observed[None]
    if resamples:
        if observed.max() > MAX_POISSON_MEAN:
            raise InvalidArgumentError(
                f"counts must be at most {MAX_POISSON_MEAN:.0e} to be "
                f"resampled, got {observed.max():.6g}")
        draws = np.random.default_rng(seed).poisson(observed, (resamples, len(observed)))
        counts = np.concatenate([counts, draws])
    rhos, iterations, converged, certificates, trace = _apg(flat, counts, weights, cfg)
    baseline = ReconstructionResult(
        rho_hat=ModalDensityMatrix(dimension=pset.dimension, entries=rhos[0]),
        log_likelihood=trace, iterations=int(iterations[0]),
        converged=bool(converged[0]), certificate=float(certificates[0]))
    return baseline, rhos[1:], converged[1:], certificates[1:]


def mle_reconstruct(records: Sequence, pset: ProjectorSet,
                    cfg: MLEConfig = MLEConfig(),
                    subtract_background: float = 0.0) -> ReconstructionResult:
    """Maximum-likelihood state estimate by accelerated projected gradient.

    Minimizes -sum_i f_i log p_i over the density matrices, with f_i the
    observed frequencies and p_i = Tr(rho |m_i><m_i|); every iterate is a
    density matrix.  Convergence is declared on the first iterate whose
    certificate lambda_max(R) - 1, R = sum_i f_i / p_i |m_i><m_i|, is at
    most the configured tolerance: it bounds the log-likelihood per count
    that any state could still gain.

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
    fidelity: float
    trace_distance: float


def state_metrics(rho_a: ModalDensityMatrix,
                  rho_b: ModalDensityMatrix) -> StateMetrics:
    """Uhlmann fidelity and trace distance between two states."""
    if rho_a.dimension != rho_b.dimension:
        raise InvalidArgumentError(
            f"dimension mismatch: {rho_a.dimension} vs {rho_b.dimension}")
    a, b = rho_a.entries, rho_b.entries
    fidelity = float(_fidelities(a, b[None])[0])
    distance = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))
    return StateMetrics(fidelity=fidelity, trace_distance=distance)


@dataclass(frozen=True, eq=False)
class MonteCarloErrors:
    purity_mean: float
    purity_std: float
    fidelity_std: float
    purities: np.ndarray
    fidelities: np.ndarray
    baseline: ReconstructionResult  # the fit to the observed counts
    nonconverged: int  # resamples that hit max_iterations; still included
    worst_certificate: float  # largest lambda_max(R) - 1 of the resamples


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
        the records fail the checks of `mle_reconstruct`, a count exceeds
        MAX_POISSON_MEAN, or a resample draws no counts at all.
    """
    if resamples < 2:
        raise InvalidArgumentError(f"resamples must be >= 2, got {resamples}")
    if not seed >= 0:
        raise InvalidArgumentError(f"seed must be >= 0, got {seed}")
    baseline, rhos, converged, certificates = _fit(records, pset, cfg,
                                                   resamples=resamples, seed=seed)
    purities = np.einsum("rab,rba->r", rhos, rhos).real
    fidelities = _fidelities(baseline.rho_hat.entries, rhos)
    return MonteCarloErrors(
        purity_mean=float(purities.mean()),
        purity_std=float(purities.std(ddof=1)),
        fidelity_std=float(fidelities.std(ddof=1)),
        purities=purities, fidelities=fidelities, baseline=baseline,
        nonconverged=int(np.count_nonzero(~converged)),
        worst_certificate=float(certificates.max()))
