"""Photon-pair model: joint spectral amplitudes from pump and phasematching,
their Schmidt decomposition, reduced modal density matrices and the photon
statistics derived from them.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BasisMismatchError, BasisMismatchWarning, InvalidArgumentError
from .spectral import (
    ComplexSpectrum,
    FrequencyGrid,
    HermiteGaussParams,
    hg_mode,
    inner_product,
)

_PM_SHAPES = ("gaussian", "sinc")

#: solves sinc(x)^2 = 1/2; pins the sinc width to the Gaussian -3 dB point
_SINC_HALF_POWER_ARG = 1.3915573777836395
_GAUSS_HALF_POWER_ARG = float(np.sqrt(np.log(2.0)))


@dataclass(frozen=True)
class PhasematchingModel:
    """Phasematching ridge in the (w_s, w_i) plane.

    `angle_deg` is the orientation of the ridge measured from the signal
    axis (the ridge line has slope tan(angle)); `width` is the Gaussian
    amplitude width along the direction perpendicular to the ridge.  The
    sinc option matches the Gaussian at the -3 dB intensity point.
    """

    angle_deg: float
    width: float
    shape: str = "gaussian"

    def __post_init__(self):
        if not (np.isfinite(self.width) and self.width > 0):
            raise InvalidArgumentError(
                f"phasematching width must be positive, got {self.width}")
        if not 0.0 < self.angle_deg < 90.0:
            raise InvalidArgumentError(
                f"phasematching angle must lie in (0, 90) degrees, got {self.angle_deg}")
        if self.shape not in _PM_SHAPES:
            raise InvalidArgumentError(
                f"phasematching shape must be one of {_PM_SHAPES}, got {self.shape!r}")

    def ridge(self, signal_grid: FrequencyGrid, idler_grid: FrequencyGrid,
              rows: slice) -> np.ndarray:
        """The ridge phi(w_s, w_i) on the given `rows` of the signal grid,
        as a (rows, idler count) float array that the caller may keep."""
        theta = np.deg2rad(self.angle_deg)
        u = (-signal_grid.offsets[rows, None] * np.sin(theta)
             + idler_grid.offsets[None, :] * np.cos(theta))
        if self.shape == "gaussian":
            np.square(u, out=u)
            u /= -2.0 * self.width**2
            return np.exp(u, out=u)
        scale = _SINC_HALF_POWER_ARG / (_GAUSS_HALF_POWER_ARG * self.width)
        return np.sinc(scale * u / np.pi)


def matched_phasematching_width(pump_amplitude_sigma: float) -> float:
    """Width that makes a 45-degree Gaussian ridge separable for a Gaussian
    pump of the given amplitude width (pump told apart from the ridge by
    running along the sum direction)."""
    if pump_amplitude_sigma <= 0:
        raise InvalidArgumentError("pump width must be positive")
    return pump_amplitude_sigma / np.sqrt(2.0)


def _frozen_complex(values) -> np.ndarray:
    """`values` as a read-only C-contiguous complex array that no one can
    write through: a read-only complex array that owns its buffer is taken
    as is, anything else is copied and the copy marked read-only."""
    arr = np.asarray(values)
    if (arr.dtype != complex or arr.flags.writeable or arr.base is not None
            or not arr.flags.c_contiguous):
        arr = np.array(arr, dtype=complex, order="C")
        arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class JointSpectralAmplitude:
    """Sampled two-frequency kernel of unit weight: the source's amplitude
    f(w_s, w_i), and the gate's mapping xi(w_in, w_out) as
    :data:`tmsim.qpg.MappingFunction`, input on the rows, output on the columns."""

    signal_grid: FrequencyGrid
    idler_grid: FrequencyGrid
    amplitudes: np.ndarray  # shape (signal count, idler count)

    def __post_init__(self):
        amp = _frozen_complex(self.amplitudes)
        expected = (self.signal_grid.count, self.idler_grid.count)
        if amp.shape != expected:
            raise InvalidArgumentError(
                f"amplitude array shape {amp.shape} does not match grids {expected}")
        total = np.vdot(amp, amp).real * self.cell_area
        if not abs(total - 1.0) <= 1e-10:
            raise InvalidArgumentError(
                f"joint amplitude not normalized: weight {float(total)}")
        object.__setattr__(self, "amplitudes", amp)

    @property
    def cell_area(self) -> float:
        return self.signal_grid.spacing * self.idler_grid.spacing

    def intensity(self) -> np.ndarray:
        """Phase-blind |f|^2 (what a spectrally resolved measurement sees)."""
        intensity = np.abs(self.amplitudes)
        return np.square(intensity, out=intensity)

    @functools.cached_property
    def marginals(self) -> tuple:
        """Signal and idler marginals of |f|^2, the row and column sums of
        re^2 + im^2 over the grid points (no cell area), as read-only
        arrays; computed on first use (:func:`_intensity_marginals`)."""
        return _intensity_marginals(self.amplitudes)


def _intensity_marginals(values: np.ndarray) -> tuple:
    """Row and column sums of re^2 + im^2 of a C-contiguous complex array,
    from two ``einsum`` passes over its float view, as read-only views of
    one array that is allocated before the passes' temporary, so that a
    long-lived amplitude pins one small block of the heap, not two."""
    z = values.view(float)
    n, m = values.shape
    sums = np.empty(n + m)
    np.einsum("ij,ij->i", z, z, out=sums[:n])
    np.einsum("ij,ij->j", z, z).reshape(-1, 2).sum(axis=1, out=sums[n:])
    sums.flags.writeable = False
    return sums[:n], sums[n:]


def sum_frequency_grid(signal_grid: FrequencyGrid,
                       idler_grid: FrequencyGrid) -> FrequencyGrid:
    """The n_s + n_i - 1 sums w_s[i] + w_i[j] of two grids of one spacing h:
    point k = i + j of a grid centred on c_s + c_i with spacing h."""
    if signal_grid.spacing != idler_grid.spacing:
        raise InvalidArgumentError(
            f"the signal and idler grids must share one spacing for their sums "
            f"to form a grid, got {signal_grid.spacing!r} and {idler_grid.spacing!r}")
    return FrequencyGrid(center=signal_grid.center + idler_grid.center,
                         spacing=signal_grid.spacing,
                         count=signal_grid.count + idler_grid.count - 1)


#: values per row block, so that each block's temporaries stay in cache:
#: a 512 kB complex block of :func:`_build_kernel`'s two passes, or the
#: text fields of one layout step of :mod:`tmsim.serialize`'s grid files
_BLOCK = 1 << 15


def _row_blocks(count: int, per_row: int) -> list:
    """Slices of whole rows, about ``_BLOCK`` values each, of a grid of
    `count` rows of `per_row` values; the last one stops at `count`."""
    step = max(1, _BLOCK // per_row)
    return [slice(start, min(start + step, count)) for start in range(0, count, step)]


def _build_kernel(row_grid: FrequencyGrid, col_grid: FrequencyGrid,
                  fill) -> JointSpectralAmplitude:
    """The unit-weight kernel on `row_grid` x `col_grid` whose unnormalized
    product `fill(rows, out)` writes into `out`, the given `rows` of the
    complex result.

    Two passes over blocks of whole rows of about ``_BLOCK`` cells form no
    full-grid temporary besides the result and one float buffer of |.|^2.
    The first fills each block and its |.|^2; the weight is one ``np.sum``
    over the buffer, the same pairwise sum as over a whole-grid |.|^2, so
    it keeps its bits.  The second multiplies each block's real and
    imaginary parts by 1/sqrt(weight), the factor numpy's complex quotient
    by sqrt(weight) multiplies by, so the parts match that quotient bit
    for bit without a complex division.  It then sets every part below
    sqrt(tiny) ~ 1.5e-154 to +0, the real and the imaginary parts each
    through their own mask, which keeps the scatter's branches predictable
    on a real kernel: products of two such parts underflow, which slows
    down the BLAS products taken over the kernel, and they carry no weight.
    """
    blocks = _row_blocks(row_grid.count, col_grid.count)
    values = np.empty((row_grid.count, col_grid.count), dtype=complex)
    power = np.empty(values.shape)
    for rows in blocks:
        fill(rows, values[rows])
        np.square(np.abs(values[rows], out=power[rows]), out=power[rows])
    weight = np.sum(power) * row_grid.spacing * col_grid.spacing
    del power
    if weight <= 0.0:
        raise InvalidArgumentError(
            "pump and phasematching do not overlap on the requested grids")

    factor = 1.0 / np.sqrt(weight)
    flush = _flusher(values[blocks[0]].shape)
    for rows in blocks:
        block = values[rows]
        parts = block.view(float)
        parts *= factor
        flush(block)
    values.flags.writeable = False  # handed over without a copy
    return JointSpectralAmplitude(row_grid, col_grid, values)


def _flusher(shape: tuple):
    """A function that sets every part below sqrt(tiny) of a complex row
    block of at most `shape` to +0, the real and the imaginary parts each
    through their own mask.  One |part| buffer and one mask serve every
    block: fresh block-sized temporaries per part come from the heap and
    grow the resident set."""
    tiny = np.sqrt(np.finfo(float).tiny)
    magnitude = np.empty(shape)
    small = np.empty(shape, dtype=bool)

    def flush(block: np.ndarray) -> None:
        k = len(block)
        for part in (block.real, block.imag):
            np.less(np.abs(part, out=magnitude[:k]), tiny, out=small[:k])
            part[small[:k]] = 0.0
    return flush


def _check_pump_grid(pump: ComplexSpectrum, signal_grid: FrequencyGrid,
                     idler_grid: FrequencyGrid) -> None:
    """Reject a pump sampled on any other grid than the sum-frequency grid
    of the signal and idler grids, whose point i + j is w_s[i] + w_i[j]."""
    sums = sum_frequency_grid(signal_grid, idler_grid)
    if pump.grid != sums:
        raise InvalidArgumentError(
            f"the pump must be sampled on the sum-frequency grid {sums} of the "
            f"signal and idler grids, got {pump.grid}")


def build_jsa(pump: ComplexSpectrum, pm: PhasematchingModel,
              signal_grid: FrequencyGrid, idler_grid: FrequencyGrid
              ) -> JointSpectralAmplitude:
    """Joint spectral amplitude = pump(w_s + w_i) x phasematching(w_s, w_i).

    The pump must be sampled on :func:`sum_frequency_grid` of the signal
    and idler grids, so its point i + j is the pump at w_s[i] + w_i[j] and
    the pump factor is read as the Hankel matrix alpha[i, j] = pump[i + j],
    with no interpolation.

    Each row block of :func:`_build_kernel` is its pump rows times the
    ridge ``pm.ridge(signal_grid, idler_grid, rows)``.

    Raises
    ------
    InvalidArgumentError
        If the two grids differ in spacing, or the pump is sampled on any
        other grid than their sum-frequency grid.
    """
    _check_pump_grid(pump, signal_grid, idler_grid)
    alpha = np.lib.stride_tricks.sliding_window_view(pump.amplitudes,
                                                     idler_grid.count)
    return _build_kernel(signal_grid, idler_grid, lambda rows, out: np.multiply(
        alpha[rows], pm.ridge(signal_grid, idler_grid, rows), out=out))


class ScanSupport:
    """What a scan over the pump's spectral phase keeps fixed on one
    signal x idler grid pair: the crop of :func:`schmidt_purity`, the
    marginal widths of :func:`jsi_marginal_sigmas` and the ridge.

    A spectral phase multiplies the pump by a unit phase, so |f|^2, its
    marginals, the crop (:func:`_support_block`) and the marginal widths
    are the same for every pump of one modulus.  They are taken once, from
    the intensity (|pump| x ridge)^2, sampled block by block; only the
    ridge on the crop is kept, scaled by 1/sqrt(weight), so that
    :meth:`block` has the scale of the unit-weight amplitude.  A pump then
    costs its Hankel window on the crop times that ridge and the Gram
    product of :meth:`purity`; no full-grid amplitude is formed.

    Since |e^{i phi}| = 1 +- one ulp, the border runs the crop drops from
    any pump of this modulus weigh what they weigh in the intensity, to
    rounding, so :func:`schmidt_purity`'s bound |P_crop - P| <= 2^-53 P
    still holds.

    Raises
    ------
    InvalidArgumentError
        If the pump is not on the grids' sum-frequency grid, or it does not
        overlap the ridge.
    """

    def __init__(self, pump: ComplexSpectrum, pm: PhasematchingModel,
                 signal_grid: FrequencyGrid, idler_grid: FrequencyGrid):
        _check_pump_grid(pump, signal_grid, idler_grid)
        n, m = signal_grid.count, idler_grid.count
        modulus = np.abs(pump.amplitudes)
        alpha = np.lib.stride_tricks.sliding_window_view(modulus, m)
        ridge = np.empty((n, m))
        row_sums, col_sums = np.empty(n), np.zeros(m)
        for rows in _row_blocks(n, m):
            ridge[rows] = pm.ridge(signal_grid, idler_grid, rows)
            power = alpha[rows] * ridge[rows]
            np.square(power, out=power)
            power.sum(axis=1, out=row_sums[rows])
            col_sums += power.sum(axis=0)
        weight = row_sums.sum() * signal_grid.spacing * idler_grid.spacing
        if not weight > 0.0:
            raise InvalidArgumentError(
                "pump and phasematching do not overlap on the requested grids")
        self.grids = (signal_grid, idler_grid)
        self.sigmas = _marginal_sigmas((row_sums, col_sums), self.grids)
        self.rows, self.cols = _support_block(row_sums, col_sums)
        self.ridge = ridge[self.rows, self.cols] * (1.0 / np.sqrt(weight))
        self.ridge.flags.writeable = False
        modulus.flags.writeable = False
        self.modulus = modulus

    def block(self, pump: ComplexSpectrum) -> np.ndarray:
        """The unit-weight amplitude of `pump` on the crop: its Hankel
        window there times the kept ridge, formed over row blocks and
        flushed below sqrt(tiny) as :func:`_build_kernel` flushes.

        `pump` must be sampled on the grids' sum-frequency grid and differ
        from the support's pump only by a phase: its modulus must match to
        4 ulp (plus the smallest normal double, for subnormal tails)."""
        _check_pump_grid(pump, *self.grids)
        drift = np.abs(np.abs(pump.amplitudes) - self.modulus)
        if not np.all(drift <= 4.0 * np.finfo(float).eps * self.modulus
                      + np.finfo(float).tiny):
            raise InvalidArgumentError(
                "the pump's modulus differs from that of the pump the scan "
                "support was sampled with; only its phase may change")
        first = self.rows.start + self.cols.start
        window = np.lib.stride_tricks.sliding_window_view(
            pump.amplitudes[first:self.rows.stop + self.cols.stop - 1],
            self.ridge.shape[1])
        values = np.empty(self.ridge.shape, dtype=complex)
        blocks = _row_blocks(*values.shape)
        flush = _flusher(values[blocks[0]].shape)
        for rows in blocks:
            np.multiply(window[rows], self.ridge[rows], out=values[rows])
            flush(values[rows])
        return values

    def purity(self, pump: ComplexSpectrum) -> float:
        """:func:`schmidt_purity` of the amplitude of `pump`, from the Gram
        product over :meth:`block`."""
        return _block_purity(self.block(pump))


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    """Descending mode weights with paired signal/idler mode matrices.

    `weights` sum to one over the kept modes; `residual_weight` is the
    fraction discarded by truncation before renormalization.  Row k of the
    read-only (k, n) `signal_modes`, sampled on `signal_grid`, and (k, m)
    `idler_modes` is the k-th singular vector pair in unit discrete norm,
    sum |u_j|^2 = 1.  The pair's phase makes the signal row's anchor, its
    lowest-index sample within 1e-9 (relative, far above rounding) of its
    largest |u|, real and positive.
    """

    weights: np.ndarray
    signal_modes: np.ndarray
    idler_modes: np.ndarray
    signal_grid: FrequencyGrid
    residual_weight: float = 0.0

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise InvalidArgumentError("weights must be a non-empty 1-D sequence")
        if np.any(w < -1e-12):
            raise InvalidArgumentError("weights must be non-negative")
        if np.any(np.diff(w) > 1e-12):
            raise InvalidArgumentError("weights must be sorted in descending order")
        if not abs(w.sum() - 1.0) <= 1e-8:
            raise InvalidArgumentError(f"weights must sum to 1, got {float(w.sum())}")
        signal = _frozen_complex(self.signal_modes)
        idler = _frozen_complex(self.idler_modes)
        if not (signal.ndim == idler.ndim == 2 and len(signal) == len(idler) == w.size):
            raise InvalidArgumentError("one signal and one idler mode per weight")
        if signal.shape[1] != self.signal_grid.count:
            raise InvalidArgumentError(
                f"signal modes of {signal.shape[1]} samples on a grid of "
                f"{self.signal_grid.count} points")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "signal_modes", signal)
        object.__setattr__(self, "idler_modes", idler)

    @property
    def separability(self) -> float:
        """The leading mode's share of the full spectrum,
        s_0^2 / ||A||_F^2: 1 for a rank-one kernel, such as a perfectly
        mode-selective gate's mapping; not renormalized over the kept modes."""
        return float(self.weights[0] * (1.0 - self.residual_weight))


#: seed of the range finder's Gaussian test matrix, fixed so that a kernel
#: always gets the same decomposition and the artifacts built from it repeat
#: byte for byte
_SKETCH_SEED = 20110217
#: subspace iterations per sketch
_POWER_ITERATIONS = 2
#: a kept triplet is accepted when ||A v_j - s_j u_j|| <= _TRIPLET_TOL * s_0
_TRIPLET_TOL = 1e-10


def _leading_triplets(values: np.ndarray, k: int, total: float):
    """Leading `k` singular triplets of a matrix of squared Frobenius norm
    `total` by a seeded randomized range finder (Halko, Martinsson &
    Tropp, SIAM Rev. 53, 217, 2011).

    A Gaussian sketch of width l = max(2k, k + 10), complex for a complex
    matrix and real for a real one, is refined by two QR-stabilized
    subspace iterations into an orthonormal basis Q of the dominant range;
    the SVD of the small l x n matrix Q^H A gives the triplets.  The real
    sketch is the complex one's real part, its first draw.  The triplets
    are accepted once every kept pair satisfies
    ||A v_j - s_j u_j|| <= 1e-10 s_0 and the energy the sketch misses,
    ||A||_F^2 - ||Q^H A||_F^2, is at most s_(k-1)^2 + 1e-10 ||A||_F^2 (a
    flat spectrum passes the first test with any vectors); otherwise l
    doubles.  At l = min(m, n) the projection is exact, so the loop ends.
    """
    rows, cols = values.shape
    full = min(rows, cols)
    width = min(max(2 * k, k + 10), full)
    adjoint = values.conj().T
    while True:
        rng = np.random.default_rng(_SKETCH_SEED)
        sketch = rng.standard_normal((cols, width))
        if np.iscomplexobj(values):
            sketch = sketch + 1j * rng.standard_normal((cols, width))
        basis = np.linalg.qr(values @ sketch)[0]
        for _ in range(_POWER_ITERATIONS):
            basis = np.linalg.qr(adjoint @ basis)[0]
            basis = np.linalg.qr(values @ basis)[0]
        small = basis.conj().T @ values
        u_small, svals, vh_mat = np.linalg.svd(small, full_matrices=False)
        u_mat = basis @ u_small[:, :k]
        svals, vh_mat = svals[:k], vh_mat[:k]
        misfit = np.linalg.norm(values @ vh_mat.conj().T - u_mat * svals, axis=0)
        missed = total - np.vdot(small, small).real
        if width == full or (np.all(misfit <= _TRIPLET_TOL * svals[0]) and
                             missed <= svals[-1] ** 2 + _TRIPLET_TOL * total):
            return u_mat, svals, vh_mat
        width = min(2 * width, full)


def schmidt_decompose(jsa: JointSpectralAmplitude,
                      max_modes: int = 20) -> SchmidtDecomposition:
    """Leading Schmidt modes of a joint amplitude, or of any two-frequency
    kernel such as a gate's mapping, truncated to `max_modes`.

    The leading min(max_modes, m, n) singular triplets of the sampled
    matrix come from :func:`_leading_triplets`, a seeded randomized range
    finder that stops once every kept triplet satisfies
    ||A v_j - s_j u_j|| <= 1e-10 s_0 and the sketch misses less energy
    than the smallest kept weight, so no full SVD is taken and a repeated
    call gives identical bits.  Weights are the squared singular values
    renormalized over the kept modes.  The discarded fraction of the full
    spectrum is ``residual_weight``, the share of ||A||_F^2 left in the
    deflated kernel, ||A - U_k S_k V_k^H||_F^2 / ||A||_F^2, a form that is
    never negative and free of the cancellation in 1 - sum(kept shares);
    so ``weights * (1 - residual_weight)`` are the full-spectrum shares.
    The cell area cancels.  Modes are the kept columns of U and rows of
    V^H, phase-fixed by the rule of :class:`SchmidtDecomposition`.  A
    kernel whose imaginary part is zero everywhere, such as a gate's
    mapping or an unchirped source, has real singular vectors and is
    decomposed in real arithmetic, at about a quarter of the flops.
    """
    if max_modes < 1:
        raise InvalidArgumentError(f"max_modes must be >= 1, got {max_modes}")
    values = jsa.amplitudes
    if not values.imag.any():
        values = np.ascontiguousarray(values.real)
    keep = min(max_modes, *values.shape)
    total = np.vdot(values, values).real
    u_mat, svals, vh_mat = _leading_triplets(values, keep, total)
    deflated = (u_mat * svals) @ vh_mat
    np.subtract(values, deflated, out=deflated)  # one full-grid temporary
    residual = float(np.vdot(deflated, deflated).real / total)
    magnitude = np.abs(u_mat)
    anchor = np.argmax(magnitude >= (1.0 - 1e-9) * magnitude.max(axis=0), axis=0)
    pivot = u_mat[anchor, np.arange(keep)]
    phase = pivot / np.abs(pivot)
    return SchmidtDecomposition(weights=svals**2 / np.sum(svals**2),
                                signal_modes=u_mat.T * np.conj(phase)[:, None],
                                idler_modes=vh_mat * phase[:, None],
                                signal_grid=jsa.signal_grid, residual_weight=residual)


def schmidt_weights(jsa: JointSpectralAmplitude) -> np.ndarray:
    """All normalized Schmidt weights by a full SVD, nothing truncated.

    It costs more than :func:`schmidt_decompose` for a few leading modes
    (at 512 x 512, ~0.075 s against ~0.02 s for 20 modes); use it when the
    whole spectrum is needed.  For the purity alone use
    :func:`schmidt_purity`, which needs no SVD.
    """
    svals = np.linalg.svd(jsa.amplitudes, compute_uv=False)
    gamma = svals**2 * jsa.cell_area
    return gamma / gamma.sum()


def _support_span(weights: np.ndarray, tolerance: float) -> slice:
    """The slice left after dropping the longest leading and the longest
    trailing run of non-negative `weights` whose sums are each at most
    `tolerance`."""
    start = np.searchsorted(np.cumsum(weights), tolerance, side="right")
    stop = weights.size - np.searchsorted(np.cumsum(weights[::-1]), tolerance,
                                          side="right")
    return slice(int(start), int(stop))


def _support_block(rows: np.ndarray, cols: np.ndarray) -> tuple:
    """Row and column slices of the block of a kernel, given its |A|^2 row
    and column sums, that :func:`schmidt_purity` keeps: each of the four
    border runs it drops carries at most eps ||A||_F^2,
    eps = 2^-57 / min(n, m)."""
    tolerance = 2.0**-57 / min(rows.size, cols.size) * rows.sum()
    return _support_span(rows, tolerance), _support_span(cols, tolerance)


def schmidt_purity(jsa: JointSpectralAmplitude) -> float:
    """Purity sum_k gamma_k^2 over all Schmidt weights, without an SVD.

    With G = A A^H the Gram matrix of the sampled amplitude over its
    shorter axis, the squared singular values are the eigenvalues of G, so
    sum s^4 = ||G||_F^2 and sum s^2 = tr G.  Their ratio is the purity of
    the untruncated, normalized weights; the cell area cancels.

    G is formed only over the kernel's non-negligible block.  The longest
    leading and trailing runs of rows, and of columns, whose weight per
    end is at most eps ||A||_F^2, eps = 2^-57 / min(n, m), are dropped
    (:func:`_support_block`, which reads the amplitude's ``marginals``, the
    same sums :func:`jsi_marginal_sigmas` reads); where no border is that
    light the block is the whole kernel.  The dropped weight is
    delta <= 4 eps ||A||_F^2.  Removed rows enter ||G||_F^2 only through
    off-diagonal blocks, and removed columns only through a positive
    semidefinite term of trace at most delta, so
    0 <= ||A A^H||_F^2 - ||A_c A_c^H||_F^2 <= 2 delta ||A||_F^2 + delta^2.
    With P >= 1 / min(n, m) this gives
    |P_crop - P| <= 2^-53 P: the reported value is the untruncated purity
    to within one unit roundoff, below the rounding of forming G itself.
    The grids are sized for the tomography basis, so a 1024 x 1024
    chirp-scan row keeps ~58% of its rows and of its columns, and the
    product below costs ~19% of the full Gram's.

    G is formed in real arithmetic.  With A = X + iY and z the (n, 2m)
    float view of the block, Re G = X X^T + Y Y^T = z z^T, which numpy
    runs as one symmetric rank-k update because both operands share one
    buffer, and Im G = Q^T - Q with Q = X Y^T.  So ||G||_F^2 =
    ||Re G||_F^2 + ||Q - Q^T||_F^2 and tr G = tr Re G, at 2n^2 m real
    multiply-adds against 4n^2 m for the complex product.
    Q - Q^T overwrites Q one strip of rows and its mirrored columns at a
    time (:func:`_row_blocks`), so a wide block, read in place, holds one
    n x n product and one strip (:func:`_block_purity`, which a
    :class:`ScanSupport` row calls on its own block).
    """
    rows, cols = _support_block(*jsa.marginals)
    return _block_purity(jsa.amplitudes[rows, cols])


def _block_purity(a: np.ndarray) -> float:
    """||G||_F^2 / (tr G)^2 of the Gram matrix G of the complex block `a`
    over its shorter axis, in the real arithmetic of :func:`schmidt_purity`."""
    if a.shape[0] > a.shape[1]:
        a = np.ascontiguousarray(a.T)  # conj(A^H A): the same spectrum
    z = a.view(float)
    real = z @ z.T
    trace = np.trace(real)
    total = np.vdot(real, real)
    del real  # free Re G before Q is formed
    q = a.real @ a.imag.T
    n = len(q)
    for strip in _row_blocks(n, n):
        diff = q[strip, strip.start:] - q[strip.start:, strip].T
        q[strip, strip.start:] = diff
        np.negative(diff.T, out=q[strip.start:, strip])
    return float((total + np.vdot(q, q)) / trace ** 2)


def jsi_marginal_sigmas(jsa: JointSpectralAmplitude) -> tuple:
    """Intensity standard deviations (rad/fs) of the signal and idler
    marginals of |f|^2; blind to any spectral phase.

    The marginals are the amplitude's cached ``marginals``, the row and
    column sums of re^2 + im^2 that :func:`schmidt_purity` crops by, so
    no n x m intensity array is formed.
    """
    return _marginal_sigmas(jsa.marginals, (jsa.signal_grid, jsa.idler_grid))


def _marginal_sigmas(marginals: tuple, grids: tuple) -> tuple:
    """Standard deviations of the two marginals, of any common scale, each
    over the points of its grid."""
    sigmas = []
    for marginal, grid in zip(marginals, grids):
        marginal = marginal / marginal.sum()
        mean = float(np.sum(grid.points * marginal))
        sigmas.append(float(np.sqrt(np.sum((grid.points - mean) ** 2 * marginal))))
    return tuple(sigmas)


def g2_from_purity(purity: float) -> float:
    """Marginal second-order autocorrelation 1 + P of a low-gain pair source."""
    if not -1e-9 <= purity <= 1.0 + 1e-9:
        raise InvalidArgumentError(f"purity must lie in [0, 1], got {purity}")
    return 1.0 + min(max(purity, 0.0), 1.0)


@dataclass(frozen=True, eq=False)
class ModalDensityMatrix:
    """d x d density matrix in a truncated mode basis.

    `leakage` records the weight lost to modes outside the truncation
    before the matrix was renormalized to unit trace.
    """

    dimension: int
    entries: np.ndarray
    leakage: float = 0.0

    def __post_init__(self):
        mat = np.array(self.entries, dtype=complex)
        d = self.dimension
        if mat.shape != (d, d):
            raise InvalidArgumentError(
                f"expected a {d}x{d} matrix, got shape {mat.shape}")
        if not np.max(np.abs(mat - mat.conj().T)) <= 1e-10:
            raise InvalidArgumentError("density matrix must be Hermitian")
        eigenvalues = np.linalg.eigvalsh(mat)
        if eigenvalues.min() < -1e-8:
            raise InvalidArgumentError(
                f"density matrix must be positive semidefinite; "
                f"smallest eigenvalue {eigenvalues.min():.3e}")
        if not abs(np.trace(mat).real - 1.0) <= 1e-8:
            raise InvalidArgumentError(
                f"density matrix trace must be 1, got {float(np.trace(mat).real)}")
        if not 0.0 <= self.leakage <= 1.0:
            raise InvalidArgumentError(
                f"density matrix leakage must lie in [0, 1], got {self.leakage!r}")
        mat.flags.writeable = False
        object.__setattr__(self, "entries", mat)

    def purity(self) -> float:
        return float(np.real(np.trace(self.entries @ self.entries)))


def hg_basis(basis: HermiteGaussParams, dimension: int,
             grid: FrequencyGrid) -> np.ndarray:
    """First `dimension` Hermite-Gauss modes of the family sampled on a
    grid, as the rows of a (dimension, grid count) matrix."""
    return np.array([hg_mode(HermiteGaussParams(order=k, center=basis.center,
                                                width=basis.width), grid).amplitudes
                     for k in range(dimension)])


def mode_overlap_matrix(dec: SchmidtDecomposition, basis: HermiteGaussParams,
                        dimension: int) -> np.ndarray:
    """Overlaps <HG_m | psi_k> as an array of shape (modes, dimension)."""
    grid = dec.signal_grid
    hg = hg_basis(basis, dimension, grid)
    return np.sqrt(grid.spacing) * dec.signal_modes @ hg.conj().T


def reduced_density_matrix(jsa: JointSpectralAmplitude, basis: HermiteGaussParams,
                           dimension: int) -> ModalDensityMatrix:
    """Reduced signal-photon state in the truncated Hermite-Gauss basis.

    The partial trace over the idler of the sampled amplitude, with no
    Schmidt truncation: with C = h_s conj(B) A the overlaps of the basis
    rows B with each idler column of A, rho = h_i C C^H.  The weight
    falling outside the truncated basis, 1 - tr rho, is reported as
    leakage and the matrix is renormalized to unit trace.  Leakage above
    0.1 warns; above 0.5 the basis is considered unusable and an error is
    raised.
    """
    if dimension < 1:
        raise InvalidArgumentError(f"dimension must be >= 1, got {dimension}")
    grid = jsa.signal_grid
    overlaps = grid.spacing * hg_basis(basis, dimension, grid).conj() @ jsa.amplitudes
    rho = jsa.idler_grid.spacing * overlaps @ overlaps.conj().T
    trace = float(np.trace(rho).real)
    leakage = 1.0 - trace
    if leakage > 0.5:
        raise BasisMismatchError(
            f"basis captures only {trace:.3f} of the state (leakage {leakage:.3f})")
    if leakage > 0.1:
        warnings.warn(
            f"basis leakage {leakage:.3f} exceeds 0.1; consider a wider basis",
            BasisMismatchWarning, stacklevel=2)
    rho = rho / trace
    rho = 0.5 * (rho + rho.conj().T)
    return ModalDensityMatrix(dimension=dimension, entries=rho,
                              leakage=max(leakage, 0.0))


def fit_basis_width(dec: SchmidtDecomposition) -> float:
    """Width of the grid-centred HG0 that maximizes the overlap with the
    dominant mode, bracketed around that mode's measured amplitude width:
    the check of the closed-form `presets.REFERENCE_WIDTH`, and the only
    function that needs scipy, which only the `test` extra installs."""
    from scipy.optimize import minimize_scalar

    grid = dec.signal_grid
    psi0 = ComplexSpectrum(grid, dec.signal_modes[0] / np.sqrt(grid.spacing))
    center = grid.center
    density = np.abs(dec.signal_modes[0]) ** 2  # unit discrete norm
    mean = float(np.sum(grid.points * density))
    std = float(np.sqrt(np.sum((grid.points - mean) ** 2 * density)))
    guess = np.sqrt(2.0) * std  # amplitude width of a Gaussian with that intensity std

    def negative_overlap(width: float) -> float:
        mode = hg_mode(HermiteGaussParams(order=0, center=center, width=width), grid)
        return -abs(inner_product(mode, psi0)) ** 2

    result = minimize_scalar(negative_overlap, bounds=(guess / 4.0, guess * 4.0),
                             method="bounded", options={"xatol": guess * 1e-9})
    return float(result.x)


def chirp_purity_analytic(chirp_fs2: float, sigma_s: float,
                          sigma_i: float) -> float:
    """Closed-form purity of a separable Gaussian pair state whose pump
    carries quadratic spectral phase.

    `sigma_s` and `sigma_i` are the intensity standard deviations (rad/fs)
    of the signal and idler marginals.  Where the chirp term exceeds the
    largest double the purity is its limit, 0.0.
    """
    if not (sigma_s > 0 and sigma_i > 0):
        raise InvalidArgumentError("marginal widths must be positive")
    chirp, sigma_s, sigma_i = float(chirp_fs2), float(sigma_s), float(sigma_i)
    try:  # on Python floats ** raises on overflow, * gives inf; neither warns
        spread = 16.0 * chirp**2 * sigma_s**2 * sigma_i**2
    except OverflowError:
        return 0.0
    return float(1.0 / np.sqrt(1.0 + spread))


def mean_photon_from_g11(g11: float, g2: float) -> float:
    """Mean photon number from the cross- and auto-correlation values,
    <n> = 1/(g11 - g2)."""
    if not g11 > g2:
        raise InvalidArgumentError(
            f"cross-correlation g11={g11} must exceed g2={g2}")
    return 1.0 / (g11 - g2)


def background_mixed_g2(g2_signal: float, signal_rate: float,
                        background_rate: float) -> float:
    """g2 of a signal mixed with an independent Poissonian background.

    Rates are mean counts per unit time; the background contributes g2 = 1.
    """
    if signal_rate < 0 or background_rate < 0:
        raise InvalidArgumentError("rates must be non-negative")
    total = signal_rate + background_rate
    if total == 0:
        raise InvalidArgumentError("signal and background rates cannot both be zero")
    s, b = signal_rate, background_rate
    return (g2_signal * s**2 + 2.0 * s * b + b**2) / total**2
