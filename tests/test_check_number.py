"""One rule for every numeric parameter: each is checked by
``errors.check_number``, so a value is refused exactly when it breaks the
parameter's rule, and the error names the parameter first."""

import math
import numbers
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualmsi import devicelink, materials, preprocess, synth
from dualmsi.core import BandSet, Label, Mode, crop
from dualmsi.devicelink import FirmwareConfig, FirmwareState, SimCamera, capture_handshake, firmware_step
from dualmsi.divergence import histogram
from dualmsi.errors import ValidationError, check_number
from dualmsi.features import DataMatrix, lda_fit, pca_fit, superpixels
from dualmsi.models import (
    DecisionTree,
    KNearestNeighbors,
    LinearSVM,
    LogisticRegressionGD,
    RandomForest,
    stratified_split,
)
from dualmsi.preprocess import SpectralGain, bilateral_filter, fit_spatial_gain
from dualmsi.studies import CaseStudyConfig, StudyKind
from dualmsi.synth import IlluminationProfile, LedSpec, MixtureSpec, NoiseSpec, SceneConfig

from conftest import make_cube

FLOAT_CUBE = make_cube({405: np.full((4, 4), 0.5), 530: np.full((4, 4), 0.25)})
RAW_CUBE = make_cube({530: np.zeros((4, 5), dtype=np.uint16)})
SCENE = SceneConfig(BandSet((530,)), Mode.REFLECTANCE, MixtureSpec.pure(materials.TURMERIC),
                    width=2, height=2)
# 3 classes of 4 rows in 3 columns, two samples a class
MATRIX = DataMatrix(
    values=np.random.default_rng(0).normal(size=(12, 3)),
    col_labels=("a", "b", "c"),
    row_meta=tuple((f"s{i // 2}", Label.adulteration(5.0 * (i // 4))) for i in range(12)),
)
TRAIN = np.arange(8.0).reshape(4, 2), np.array([0.0, 0.0, 1.0, 1.0])


def at_least(low):
    return lambda x: x >= low


def above(low):
    return lambda x: x > low


def within(low, high):
    return lambda x: low <= x <= high


def repeat_series(n_times=3, drift_amplitude=None):
    with mock.patch.object(synth, "render"):  # only the checks run
        synth.render_repeat_series(SCENE, n_times, drift_amplitude)


def bilateral(**options):
    """``bilateral_filter`` with its filtering left out: a valid window may be wide."""
    def unfiltered(frames, top, rows, *args):
        return frames[:, top : top + rows]

    with mock.patch.multiple(preprocess, _bilateral_paired=unfiltered, _bilateral_direct=unfiltered):
        bilateral_filter(FLOAT_CUBE.values, **options)


def study(**fields):
    CaseStudyConfig.for_kind(StudyKind.COLOR_CHART, **fields)


# (parameter, build call with the value in that parameter, rule, integer, optional)
PARAMETERS = [
    # synth
    ("fwhm_nm", lambda v: LedSpec(530, v), above(0), False, False),
    ("relative_power", lambda v: LedSpec(530, 30.0, v), above(0), False, False),
    ("fraction", lambda v: MixtureSpec.binary(materials.TURMERIC, materials.RICE_FLOUR, v),
     within(0, 1), False, False),
    ("depth", lambda v: MixtureSpec.pure(materials.COCONUT_OIL, v), above(0), False, False),
    ("radial_falloff", lambda v: IlluminationProfile(radial_falloff=v), at_least(0), False, False),
    ("base", lambda v: IlluminationProfile(base=v), lambda x: 0 < x <= 1, False, False),
    ("ratio", IlluminationProfile.corner_ratio, lambda x: 0 < x <= 1, False, False),
    *((name, lambda v, name=name: NoiseSpec(**{name: v}), at_least(0), False, False)
      for name in ("dark_mean", "dark_sd", "shot_sd_fraction", "drift_amplitude",
                   "texture_shared_sd", "texture_band_sd")),
    ("texture_block", lambda v: NoiseSpec(texture_block=v), at_least(1), True, False),
    ("width", lambda v: SceneConfig(BandSet((530,)), Mode.REFLECTANCE, SCENE.mixture, width=v),
     at_least(1), True, False),
    ("height", lambda v: SceneConfig(BandSet((530,)), Mode.REFLECTANCE, SCENE.mixture, height=v),
     at_least(1), True, False),
    ("n_times", lambda v: repeat_series(n_times=v), at_least(2), True, False),
    ("drift_amplitude", lambda v: repeat_series(drift_amplitude=v), at_least(0), False, True),
    # studies
    ("replicates", lambda v: study(replicates=v), at_least(1), True, False),
    ("levels", lambda v: study(levels=(v,)), within(0, 100), False, False),
    ("n_classes", lambda v: study(n_classes=v), within(1, materials.PALETTE_SIZE), True, False),
    *((name, lambda v, name=name: study(**{name: v}), at_least(0), False, False)
      for name in ("fraction_jitter_sd", "depth_jitter_sd", "refl_scale_jitter_sd",
                   "refl_tilt_jitter_sd", "refl_band_jitter_sd", "trans_scale_jitter_sd",
                   "trans_tilt_jitter_sd", "trans_band_jitter_sd")),
    ("depth", lambda v: study(depth=v), above(0), False, False),
    # preprocess
    ("window", lambda v: fit_spatial_gain(FLOAT_CUBE, window=v), lambda x: x >= 1 and x % 2,
     True, False),
    ("floor", lambda v: fit_spatial_gain(FLOAT_CUBE, floor=v), lambda x: 0 < x <= 1, False, False),
    ("window", lambda v: bilateral(window=v), lambda x: x >= 1 and x % 2, True, False),
    ("sigma_s", lambda v: bilateral_filter(FLOAT_CUBE.values, sigma_s=v), within(1e-150, 1e150),
     False, False),
    ("sigma_r", lambda v: bilateral_filter(FLOAT_CUBE.values, sigma_r=v), within(1e-150, 1e150),
     False, False),
    ("scale", lambda v: SpectralGain({530: v}), above(0), False, False),
    # features: 3 columns, 3 classes
    ("block", lambda v: superpixels(RAW_CUBE, v), within(1, 4), True, False),
    ("k", lambda v: lda_fit(MATRIX, k=v), within(1, 2), True, True),
    ("k", lambda v: pca_fit(MATRIX, k=v), within(1, 3), True, True),
    # divergence
    ("n_bins", lambda v: histogram([0.5], n_bins=v), at_least(1), True, False),
    ("epsilon", lambda v: histogram([0.5], epsilon=v), above(0), False, False),
    # models: KNN's k at most the 4 training rows
    ("k", lambda v: KNearestNeighbors(k=v).fit(*TRAIN), within(1, 4), True, False),
    ("max_depth", lambda v: DecisionTree(max_depth=v), at_least(1), True, True),
    ("min_leaf", lambda v: DecisionTree(min_leaf=v), at_least(1), True, False),
    ("n_trees", lambda v: RandomForest(n_trees=v), at_least(1), True, False),
    ("mtry", lambda v: RandomForest(mtry=v), at_least(1), True, True),
    ("max_depth", lambda v: RandomForest(max_depth=v), at_least(1), True, True),
    ("min_leaf", lambda v: RandomForest(min_leaf=v), at_least(1), True, False),
    ("l2", lambda v: LogisticRegressionGD(l2=v), at_least(0), False, False),
    ("lr", lambda v: LogisticRegressionGD(lr=v), above(0), False, False),
    ("lr_decay", lambda v: LogisticRegressionGD(lr_decay=v), at_least(0), False, False),
    ("epochs", lambda v: LogisticRegressionGD(epochs=v), at_least(1), True, False),
    ("tol", lambda v: LogisticRegressionGD(tol=v), at_least(0), False, False),
    ("c", lambda v: LinearSVM(c=v), above(0), False, False),
    ("lr", lambda v: LinearSVM(lr=v), above(0), False, False),
    ("lr_decay", lambda v: LinearSVM(lr_decay=v), at_least(0), False, False),
    ("epochs", lambda v: LinearSVM(epochs=v), at_least(1), True, False),
    ("fraction", lambda v: stratified_split(MATRIX, v), lambda x: 0 < x < 1, False, False),
    # devicelink: 13 bands by default
    ("n_bands", lambda v: FirmwareConfig(n_bands=v), at_least(1), True, False),
    ("timeout_steps", lambda v: FirmwareConfig(timeout_steps=v), at_least(1), True, False),
    ("exposure_steps", lambda v: SimCamera(exposure_steps=v), at_least(1), True, False),
    ("band", capture_handshake, within(0, 12), True, False),
    ("pwm", lambda v: FirmwareState(pwm=(v,) + (0,) * 7), within(0, 255), True, False),
    ("pots", lambda v: firmware_step(FirmwareState(), devicelink.TICK, (0,) * 7 + (v,)),
     within(0, 255), True, False),
    # core: a 5 x 4 frame
    ("adulteration_pct", lambda v: Label(adulteration_pct=v), within(0, 100), False, False),
    ("x", lambda v: crop(RAW_CUBE, v, 0, 1, 1), within(0, 4), True, False),
    ("y", lambda v: crop(RAW_CUBE, 0, v, 1, 1), within(0, 3), True, False),
    ("w", lambda v: crop(RAW_CUBE, 1, 0, v, 1), within(1, 4), True, False),
    ("h", lambda v: crop(RAW_CUBE, 0, 1, 1, v), within(1, 3), True, False),
]

# boundaries and their neighbours, non-finite values, a bool, a fraction
# for an integer parameter and an int beyond the float range
SPECIAL = [0, 0.0, -0.0, 1, 2, 0.5, 1.5, 2.5, -1, 3, 4, 5, 12, 13, 24, 25, 100, 100.5, 101,
           255, 256, math.nan, math.inf, -math.inf, True, False, 10**400, -(10**400),
           np.int64(2), np.float64(0.5), math.nextafter(1.0, 0.0)]


def rule_holds(value, rule, integer, optional) -> bool:
    if value is None:
        return optional
    if isinstance(value, bool) or not isinstance(value, numbers.Integral if integer else numbers.Real):
        return False
    try:
        finite = math.isfinite(value)
    except OverflowError:
        return False
    return finite and bool(rule(value))


def assert_checked(name, build, rule, integer, optional, value):
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        try:
            build(value)
        except ValidationError as exc:
            assert not rule_holds(value, rule, integer, optional), f"{value!r} refused: {exc}"
            assert str(exc).startswith(f"{name} must be"), str(exc)
            return
    assert rule_holds(value, rule, integer, optional), f"{value!r} accepted"


IDS = [f"{i}-{row[0]}" for i, row in enumerate(PARAMETERS)]


@pytest.mark.parametrize("name, build, rule, integer, optional", PARAMETERS, ids=IDS)
@settings(max_examples=15, deadline=None)
@given(value=st.one_of(st.sampled_from(SPECIAL), st.integers(-30, 30),
                       st.floats(-300.0, 300.0), st.floats()))
def test_a_value_is_refused_exactly_when_it_breaks_the_rule(name, build, rule, integer, optional,
                                                            value):
    assert_checked(name, build, rule, integer, optional, value)


@pytest.mark.parametrize("name, build, rule, integer, optional", PARAMETERS, ids=IDS)
def test_every_special_value(name, build, rule, integer, optional):
    for value in SPECIAL + [None] * optional:
        assert_checked(name, build, rule, integer, optional, value)


def test_negative_zero_is_returned_as_zero():
    assert math.copysign(1.0, check_number("x", -0.0, 0)) == 1.0
    assert math.copysign(1.0, NoiseSpec(dark_sd=-0.0).dark_sd) == 1.0


def test_message_states_the_rule():
    cases = [
        (("k", 2.5, 1), dict(integer=True), "k must be an integer >= 1, got 2.5"),
        (("lr", 0.0, 0), dict(strict=True), "lr must be a finite number > 0, got 0.0"),
        (("base", math.nan, 0, 1), dict(strict=True), "base must be a finite number in (0, 1], got nan"),
        (("mtry", 0, 1), dict(optional=True, integer=True), "mtry must be null or an integer >= 1, got 0"),
    ]
    for args, kwargs, message in cases:
        with pytest.raises(ValidationError) as info:
            check_number(*args, **kwargs)
        assert str(info.value) == message

