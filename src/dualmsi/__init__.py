"""Dual-mode multispectral imaging analysis toolkit.

Synthetic reflectance/transmittance acquisition, the correction pipeline
(dark current, flat-field, spectral balance, bilateral filtering),
superpixel data matrices with merged-mode fusion, PCA/LDA feature
extraction, five classifiers with a leakage-safe split protocol, the
KL-divergence adulteration metric with its linear functional map, and a
simulation of the controller firmware's byte protocol and capture
handshake (the firmware side only; there is no host codec).

``import dualmsi`` loads no submodule: a name below, or a submodule, is
imported on first use (PEP 562), so a CLI command loads only its layer.
"""

__version__ = "0.1.0"

# Each submodule and the public names it defines that the package exports.
_EXPORTS = {
    "core": (
        "BandSet", "Label", "Mode", "Sample", "SpectralCube", "TABLE1_WAVELENGTHS", "crop",
        "load_dataset", "load_sample", "save_dataset", "save_sample",
    ),
    "errors": (
        "DegenerateReferenceError", "DimensionMismatchError", "DualMsiError", "EmptyDataError",
        "HandshakeTimeoutError", "MissingFrameError", "ModeMismatchError", "UnpairedSampleError",
        "ValidationError",
    ),
    "jsonio": (),
    "pgm": (),
    "synth": (
        "Curve", "Device", "IlluminationProfile", "LedSpec", "MaterialSpec", "MixtureSpec",
        "NoiseSpec", "SceneConfig", "effective_band_response", "led_emission", "render",
        "render_repeat_series",
    ),
    "materials": (),
    "studies": (
        "CaseStudyConfig", "StudyDataset", "StudyKind", "generate_case_study",
        "plan_case_study", "render_white_reference",
    ),
    "preprocess": (
        "Corrections", "PipelineOptions", "quantize_sample", "apply_spatial_gain",
        "apply_spectral_gain", "bilateral_filter", "fit_corrections", "fit_spatial_gain",
        "fit_spectral_gain", "preprocess_pipeline", "subtract_dark",
    ),
    "features": (
        "DataMatrix", "Normalizer", "Projection", "SignatureTable", "apply_normalizer",
        "band_normalize", "build_matrix", "lda_fit", "merge", "pca_fit", "project",
        "spectral_signature", "superpixels",
    ),
    "models": (
        "ConfusionMatrix", "DecisionTree", "KNearestNeighbors", "LinearSVM",
        "LogisticRegressionGD", "RandomForest", "Split", "evaluate", "split_matrix",
        "stratified_split",
    ),
    "divergence": (
        "Distribution", "FunctionalMap", "adulteration_curve", "fit_linear", "histogram",
        "kl_divergence", "lda_feature_extractor", "median_curve",
    ),
    "devicelink": (
        "FirmwareConfig", "FirmwareState", "capture_handshake", "firmware_step",
        "run_sequential_capture",
    ),
    "harness": ("repeatability_report", "run_case_study", "spatial_consistency_report"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    from importlib import import_module

    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
