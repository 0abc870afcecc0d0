"""Temporal-mode toolkit: photon-pair sources in the time-frequency mode
basis, a mode-selective pulse-gate model, and maximum-likelihood state
tomography from projective count data."""

from .errors import (
    BasisMismatchError,
    BasisMismatchWarning,
    IllPosedError,
    IncompatibleGridError,
    InvalidArgumentError,
    ToolkitError,
    UnsupportedDimensionError,
    UnsupportedOrderError,
)
from .pdc import (
    JointSpectralAmplitude,
    ModalDensityMatrix,
    PhasematchingModel,
    SchmidtDecomposition,
    background_mixed_g2,
    build_jsa,
    chirp_purity_analytic,
    fit_basis_width,
    g2_from_purity,
    jsi_marginal_sigmas,
    matched_phasematching_width,
    mean_photon_from_g11,
    mode_overlap_matrix,
    reduced_density_matrix,
    schmidt_decompose,
    schmidt_purity,
    schmidt_weights,
)
from .qpg import (
    FilterSpec,
    MappingFunction,
    ModeFilterResult,
    SelectivityModel,
    SelectivityReport,
    SuppressionRatio,
    apply_mode_filter,
    build_mapping,
    gate_operators,
    project_probability,
    separability_report,
    suppression_ratio,
)
from .spectral import (
    BandwidthConversion,
    ChirpPhase,
    ComplexSpectrum,
    FrequencyGrid,
    HermiteGaussParams,
    apply_chirp,
    convert_bandwidth,
    hg_mode,
    inner_product,
    invert_bandwidth,
    make_grid,
    wavelength_to_omega,
)
from .tomography import (
    CountRecord,
    MLEConfig,
    MonteCarloErrors,
    Projector,
    ProjectorSet,
    ReconstructionResult,
    StateMetrics,
    expected_counts,
    mle_reconstruct,
    monte_carlo_errors,
    mub_bases,
    simulate_counts,
    state_metrics,
)

__version__ = "0.1.0"
