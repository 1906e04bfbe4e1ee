"""The lazy ``dualmsi`` namespace: it exports the same names as when it
imported every submodule up front, each resolves on first use to the
object its module defines, and ``import dualmsi`` loads no submodule."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dualmsi

SUBMODULES = frozenset(
    "core errors jsonio pgm synth materials studies preprocess features models divergence "
    "devicelink harness".split()
)
# Every name the package exported while ``__init__`` imported each one.
NAMES = frozenset("""
BandSet CaseStudyConfig ConfusionMatrix Corrections Curve DataMatrix DecisionTree
DegenerateReferenceError Device DimensionMismatchError Distribution DualMsiError EmptyDataError
FirmwareConfig FirmwareState FunctionalMap HandshakeTimeoutError
IlluminationProfile KNearestNeighbors Label LedSpec LinearSVM LogisticRegressionGD
MaterialSpec MissingFrameError MixtureSpec Mode ModeMismatchError NoiseSpec Normalizer
PipelineOptions Projection RandomForest Sample SceneConfig SignatureTable
SpectralCube Split StudyDataset StudyKind TABLE1_WAVELENGTHS
UnpairedSampleError ValidationError adulteration_curve apply_normalizer apply_spatial_gain
apply_spectral_gain band_normalize bilateral_filter build_matrix capture_handshake crop
effective_band_response evaluate firmware_step fit_corrections fit_linear fit_spatial_gain
fit_spectral_gain generate_case_study histogram kl_divergence lda_feature_extractor
lda_fit led_emission load_dataset load_sample median_curve merge pca_fit plan_case_study
preprocess_pipeline project quantize_sample render render_repeat_series
render_white_reference repeatability_report run_case_study run_sequential_capture
save_dataset save_sample spatial_consistency_report spectral_signature split_matrix
stratified_split subtract_dark superpixels
""".split())


def fresh(code: str):
    """The JSON ``code`` prints last, run in a fresh interpreter."""
    src = str(Path(dualmsi.__file__).parents[1])
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, env={**os.environ, "PYTHONPATH": src})
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_all_lists_every_name_and_submodule():
    assert set(dualmsi.__all__) == NAMES | SUBMODULES


def test_star_import_and_dir_list_the_same_names():
    star, listed = fresh(
        "import json, dualmsi\n"
        "ns = {}\n"
        "exec('from dualmsi import *', ns)\n"
        "print(json.dumps([sorted(set(ns) - {'__builtins__'}),"
        " sorted(n for n in dir(dualmsi) if not n.startswith('_'))]))"
    )
    assert set(star) == set(listed) == NAMES | SUBMODULES


@pytest.mark.parametrize("name", sorted(NAMES))
def test_name_is_the_object_its_module_defines(name):
    value = getattr(dualmsi, name)
    module = importlib.import_module(value.__module__) if hasattr(value, "__qualname__") else None
    if module is None:  # a constant: find the one submodule that holds it
        (module,) = [m for m in map(importlib.import_module, (f"dualmsi.{s}" for s in SUBMODULES))
                     if vars(m).get(name) is value]
    assert module.__name__.split(".")[0] == "dualmsi"
    assert vars(module)[name] is value
    assert getattr(value, "__qualname__", name) == name


@pytest.mark.parametrize("name", sorted(SUBMODULES))
def test_submodule_name_is_the_submodule(name):
    assert getattr(dualmsi, name) is importlib.import_module(f"dualmsi.{name}")


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        dualmsi.no_such_name
    assert not hasattr(dualmsi, "cmd_synth")
    with pytest.raises(ImportError):
        from dualmsi import no_such_name  # noqa: F401


def test_bare_import_loads_no_submodule_and_no_numpy():
    loaded = fresh("import json, sys, dualmsi\n"
                   "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in "
                   "('dualmsi', 'numpy'))))")
    assert loaded == ["dualmsi"]


def test_devicelink_import_loads_no_numpy():
    # the firmware simulation checks its numbers with errors.check_number alone
    loaded = fresh("import json, sys, dualmsi.devicelink\n"
                   "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in "
                   "('dualmsi', 'numpy'))))")
    assert loaded == ["dualmsi", "dualmsi.devicelink", "dualmsi.errors"]
