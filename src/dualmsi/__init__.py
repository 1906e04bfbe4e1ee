"""Dual-mode multispectral imaging analysis toolkit.

Synthetic reflectance/transmittance acquisition, the correction pipeline
(dark current, flat-field, spectral balance, bilateral filtering),
superpixel data matrices with merged-mode fusion, PCA/LDA feature
extraction, five classifiers with a leakage-safe split protocol, the
KL-divergence adulteration metric with its linear functional map, and a
simulation of the controller firmware's byte protocol and capture
handshake (the firmware side only; there is no host codec).
"""

__version__ = "0.1.0"

from .core import (
    BandSet,
    Label,
    Mode,
    Sample,
    SpectralCube,
    TABLE1_WAVELENGTHS,
    crop,
    load_dataset,
    load_sample,
    save_dataset,
    save_sample,
)
from .errors import (
    DegenerateReferenceError,
    DimensionMismatchError,
    DualMsiError,
    EmptyDataError,
    HandshakeTimeoutError,
    MissingFrameError,
    ModeMismatchError,
    UnpairedSampleError,
    ValidationError,
)
from .synth import (
    Curve,
    IlluminationProfile,
    LedSpec,
    MaterialSpec,
    MixtureSpec,
    NoiseSpec,
    SceneConfig,
    effective_band_response,
    led_emission,
    render,
    render_repeat_series,
)
from .studies import (
    CaseStudyConfig,
    StudyDataset,
    StudyKind,
    generate_case_study,
    render_white_reference,
)
from .preprocess import (
    Corrections,
    PipelineOptions,
    quantize_sample,
    SpatialGain,
    SpectralGain,
    apply_spatial_gain,
    apply_spectral_gain,
    bilateral_filter,
    fit_corrections,
    fit_spatial_gain,
    fit_spectral_gain,
    preprocess_pipeline,
    subtract_dark,
)
from .features import (
    DataMatrix,
    Normalizer,
    Projection,
    SignatureTable,
    apply_normalizer,
    band_normalize,
    build_matrix,
    lda_fit,
    merge,
    pca_fit,
    project,
    spectral_signature,
    superpixels,
)
from .models import (
    ConfusionMatrix,
    DecisionTree,
    Granularity,
    KNearestNeighbors,
    LinearSVM,
    LogisticRegressionGD,
    RandomForest,
    Split,
    evaluate,
    split_matrix,
    stratified_split,
)
from .divergence import (
    Distribution,
    FunctionalMap,
    adulteration_curve,
    fit_linear,
    histogram,
    kl_divergence,
    lda_feature_extractor,
    median_curve,
)
from .devicelink import (
    FirmwareConfig,
    FirmwareState,
    capture_handshake,
    firmware_step,
    run_sequential_capture,
)
from .harness import (
    repeatability_report,
    run_case_study,
    spatial_consistency_report,
)
