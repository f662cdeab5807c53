"""photonmem: storage-and-release single-photon simulator with a homodyne
verification stack.

The package covers the full loop of a two-cavity optical memory experiment:
coupled-cavity release dynamics produce temporal mode functions, a homodyne
synthesizer generates quadrature frames, and the estimation stack recovers
mode functions (PCA), photon-number distributions (MLE), Wigner functions,
and memory-lifetime fits.
"""

from ._version import __version__
from .cavity import (
    CavityParams,
    CavityRates,
    LifetimeEstimate,
    ReleaseResult,
    ShutterSchedule,
    calibrate_shutter_detuning,
    derive_rates,
    simulate_release,
    storage_lifetime,
)
from .config import ExperimentConfig, load_config, save_config
from .counting import (
    G2Estimate,
    JitterKernel,
    JitterOutcome,
    TimeDensity,
    detection_density,
    g2_from_counts,
    jitter_decohered,
    simulate_heralded_clicks,
)
from .errors import (
    DegenerateInputError,
    FitFailureError,
    InsufficientDataError,
    NumericFailureError,
    PhotonMemError,
    UndefinedCorrelationError,
    UnstableEstimateError,
)
from .estimation import (
    BootstrapResult,
    DecayFit,
    HistogramOverlay,
    MleResult,
    PcaResult,
    TomographyReport,
    autocovariance,
    bootstrap_purity,
    fit_exponential_decay,
    histogram_with_overlay,
    mle_photon_distribution,
    pca_from_frames,
    pca_leading_mode,
)
from .fock import (
    FockDiagonalState,
    WignerSection,
    apply_loss,
    g2_zero,
    mean_photon,
    purity_under_mismatch,
    quadrature_pdf,
    wigner,
    wigner_origin,
    wigner_section,
)
from .modes import (
    ComplexEnvelope,
    ModeFunction,
    clip_and_renormalize,
    detuning_overlap_penalty,
    inner_product,
    normalized_mode,
    overlap_sq,
    read_mode_csv,
    time_shift,
    write_mode_csv,
)
from .pipeline import SweepReport, emit_figure_data, estimate_frames, run_sweep
from .synth import (
    AdcSpec,
    FrameSet,
    ImperfectionConfig,
    extract_quadratures,
    load_frames,
    save_frames,
    synth_condition,
)

__all__ = [name for name in dir() if not name.startswith("_")]
