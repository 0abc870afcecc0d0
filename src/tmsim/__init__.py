"""Temporal-mode toolkit: photon-pair sources in the time-frequency mode
basis, a mode-selective pulse-gate model, and maximum-likelihood state
tomography from projective count data."""

from .errors import (
    BasisMismatchError,
    BasisMismatchWarning,
    IllPosedError,
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
    g2_from_purity,
    jsi_marginal_sigmas,
    matched_phasematching_width,
    mean_photon_from_g11,
    mode_overlap_matrix,
    reduced_density_matrix,
    schmidt_decompose,
    schmidt_purity,
)
from .qpg import (
    FilterSpec,
    GateSpec,
    MappingFunction,
    ModeFilterResult,
    SelectivityModel,
    apply_mode_filter,
    build_mapping,
    gate_operators,
    project_probability,
    separability_report,
)
from .spectral import (
    ChirpPhase,
    ComplexSpectrum,
    FrequencyGrid,
    HermiteGaussParams,
    apply_chirp,
    convert_bandwidth,
    hg_mode,
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
