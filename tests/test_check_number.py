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


def repeat_series(n_times):
    with mock.patch.object(synth, "render"):  # only the checks run
        synth.render_repeat_series(SCENE, n_times)


def bilateral(**options):
    """``bilateral_filter`` with its filtering left out: a valid window may be wide."""
    def unfiltered(frames, top, rows, *args):
        return frames[:, top : top + rows]

    with mock.patch.multiple(preprocess, _bilateral_paired=unfiltered, _bilateral_direct=unfiltered):
        bilateral_filter(FLOAT_CUBE.values, **options)


def study(**fields):
    CaseStudyConfig.for_kind(StudyKind.COLOR_CHART, **fields)


# (owner.parameter, build call with the value in that parameter, rule, integer, optional);
# the error names the parameter, the part after the last dot
PARAMETERS = [
    # synth
    ("LedSpec.fwhm_nm", lambda v: LedSpec(530, v), above(0), False, False),
    ("LedSpec.relative_power", lambda v: LedSpec(530, 30.0, v), above(0), False, False),
    ("MixtureSpec.fraction", lambda v: MixtureSpec.binary(materials.TURMERIC, materials.RICE_FLOUR, v),
     within(0, 1), False, False),
    ("MixtureSpec.depth", lambda v: MixtureSpec.pure(materials.COCONUT_OIL, v), above(0), False, False),
    ("IlluminationProfile.radial_falloff", lambda v: IlluminationProfile(radial_falloff=v), at_least(0),
     False, False),
    ("IlluminationProfile.base", lambda v: IlluminationProfile(base=v), lambda x: 0 < x <= 1, False, False),
    ("corner_ratio.ratio", IlluminationProfile.corner_ratio, lambda x: 0 < x <= 1, False, False),
    *((f"NoiseSpec.{name}", lambda v, name=name: NoiseSpec(**{name: v}), at_least(0), False, False)
      for name in ("dark_mean", "dark_sd", "shot_sd_fraction", "drift_amplitude",
                   "texture_shared_sd", "texture_band_sd")),
    ("NoiseSpec.texture_block", lambda v: NoiseSpec(texture_block=v), at_least(1), True, False),
    ("SceneConfig.width", lambda v: SceneConfig(BandSet((530,)), Mode.REFLECTANCE, SCENE.mixture, width=v),
     at_least(1), True, False),
    ("SceneConfig.height", lambda v: SceneConfig(BandSet((530,)), Mode.REFLECTANCE, SCENE.mixture, height=v),
     at_least(1), True, False),
    ("render_repeat_series.n_times", repeat_series, at_least(2), True, False),
    # studies
    ("CaseStudyConfig.replicates", lambda v: study(replicates=v), at_least(1), True, False),
    ("CaseStudyConfig.levels", lambda v: study(levels=(v,)), within(0, 100), False, False),
    ("CaseStudyConfig.n_classes", lambda v: study(n_classes=v), within(1, materials.PALETTE_SIZE), True,
     False),
    *((f"CaseStudyConfig.{name}", lambda v, name=name: study(**{name: v}), at_least(0), False, False)
      for name in ("fraction_jitter_sd", "depth_jitter_sd", "refl_scale_jitter_sd",
                   "refl_tilt_jitter_sd", "refl_band_jitter_sd", "trans_scale_jitter_sd",
                   "trans_tilt_jitter_sd", "trans_band_jitter_sd")),
    ("CaseStudyConfig.depth", lambda v: study(depth=v), above(0), False, False),
    # preprocess
    ("fit_spatial_gain.window", lambda v: fit_spatial_gain(FLOAT_CUBE, window=v),
     lambda x: x >= 1 and x % 2, True, False),
    ("fit_spatial_gain.floor", lambda v: fit_spatial_gain(FLOAT_CUBE, floor=v), lambda x: 0 < x <= 1,
     False, False),
    ("bilateral_filter.window", lambda v: bilateral(window=v), lambda x: x >= 1 and x % 2, True, False),
    ("bilateral_filter.sigma_s", lambda v: bilateral_filter(FLOAT_CUBE.values, sigma_s=v),
     within(1e-150, 1e150), False, False),
    ("bilateral_filter.sigma_r", lambda v: bilateral_filter(FLOAT_CUBE.values, sigma_r=v),
     within(1e-150, 1e150), False, False),
    ("SpectralGain.scale", lambda v: SpectralGain({530: v}), above(0), False, False),
    # features: 3 columns, 3 classes
    ("superpixels.block", lambda v: superpixels(RAW_CUBE, v), within(1, 4), True, False),
    ("lda_fit.k", lambda v: lda_fit(MATRIX, k=v), within(1, 2), True, True),
    ("pca_fit.k", lambda v: pca_fit(MATRIX, k=v), within(1, 3), True, True),
    # divergence
    ("histogram.n_bins", lambda v: histogram([0.5], n_bins=v), at_least(1), True, False),
    ("histogram.epsilon", lambda v: histogram([0.5], epsilon=v), above(0), False, False),
    # models: KNN's k at most the 4 training rows
    ("KNearestNeighbors.k", lambda v: KNearestNeighbors(k=v).fit(*TRAIN), within(1, 4), True, False),
    ("DecisionTree.max_depth", lambda v: DecisionTree(max_depth=v), at_least(1), True, True),
    ("DecisionTree.min_leaf", lambda v: DecisionTree(min_leaf=v), at_least(1), True, False),
    ("RandomForest.n_trees", lambda v: RandomForest(n_trees=v), at_least(1), True, False),
    ("RandomForest.mtry", lambda v: RandomForest(mtry=v), at_least(1), True, True),
    ("RandomForest.max_depth", lambda v: RandomForest(max_depth=v), at_least(1), True, True),
    ("RandomForest.min_leaf", lambda v: RandomForest(min_leaf=v), at_least(1), True, False),
    ("LogisticRegressionGD.l2", lambda v: LogisticRegressionGD(l2=v), at_least(0), False, False),
    ("LogisticRegressionGD.lr", lambda v: LogisticRegressionGD(lr=v), above(0), False, False),
    ("LogisticRegressionGD.lr_decay", lambda v: LogisticRegressionGD(lr_decay=v), at_least(0), False,
     False),
    ("LogisticRegressionGD.epochs", lambda v: LogisticRegressionGD(epochs=v), at_least(1), True, False),
    ("LogisticRegressionGD.tol", lambda v: LogisticRegressionGD(tol=v), at_least(0), False, False),
    ("LinearSVM.c", lambda v: LinearSVM(c=v), above(0), False, False),
    ("LinearSVM.lr", lambda v: LinearSVM(lr=v), above(0), False, False),
    ("LinearSVM.lr_decay", lambda v: LinearSVM(lr_decay=v), at_least(0), False, False),
    ("LinearSVM.epochs", lambda v: LinearSVM(epochs=v), at_least(1), True, False),
    ("stratified_split.fraction", lambda v: stratified_split(MATRIX, v), lambda x: 0 < x < 1, False,
     False),
    # devicelink: 13 bands by default
    ("FirmwareConfig.n_bands", lambda v: FirmwareConfig(n_bands=v), at_least(1), True, False),
    ("FirmwareConfig.timeout_steps", lambda v: FirmwareConfig(timeout_steps=v), at_least(1), True, False),
    ("SimCamera.exposure_steps", lambda v: SimCamera(exposure_steps=v), at_least(1), True, False),
    ("capture_handshake.band", capture_handshake, within(0, 12), True, False),
    ("FirmwareState.pwm", lambda v: FirmwareState(pwm=(v,) + (0,) * 7), within(0, 255), True, False),
    ("firmware_step.pots", lambda v: firmware_step(FirmwareState(), devicelink.TICK, (0,) * 7 + (v,)),
     within(0, 255), True, False),
    # core: a 5 x 4 frame
    ("Label.adulteration_pct", lambda v: Label(adulteration_pct=v), within(0, 100), False, False),
    # a whole float is a class: a matrix CSV holds class 3 as 3.0
    ("Label.class_id", lambda v: Label(class_id=v), lambda x: x >= 0 and x == int(x), False, False),
    ("crop.x", lambda v: crop(RAW_CUBE, v, 0, 1, 1), within(0, 4), True, False),
    ("crop.y", lambda v: crop(RAW_CUBE, 0, v, 1, 1), within(0, 3), True, False),
    ("crop.w", lambda v: crop(RAW_CUBE, 1, 0, v, 1), within(1, 4), True, False),
    ("crop.h", lambda v: crop(RAW_CUBE, 0, 1, 1, v), within(1, 3), True, False),
]
IDS = [row[0] for row in PARAMETERS]

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


def assert_checked(param, build, rule, integer, optional, value):
    name = param.rsplit(".", 1)[1]
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        try:
            build(value)
        except ValidationError as exc:
            assert not rule_holds(value, rule, integer, optional), f"{value!r} refused: {exc}"
            assert str(exc).startswith(f"{name} must be"), str(exc)
            return
    assert rule_holds(value, rule, integer, optional), f"{value!r} accepted"


def test_ids_are_unique():
    assert len(set(IDS)) == len(IDS)


@pytest.mark.parametrize("param, build, rule, integer, optional", PARAMETERS, ids=IDS)
@settings(max_examples=15, deadline=None)
@given(value=st.one_of(st.sampled_from(SPECIAL), st.integers(-30, 30),
                       st.floats(-300.0, 300.0), st.floats()))
def test_a_value_is_refused_exactly_when_it_breaks_the_rule(param, build, rule, integer, optional,
                                                            value):
    assert_checked(param, build, rule, integer, optional, value)


@pytest.mark.parametrize("param, build, rule, integer, optional", PARAMETERS, ids=IDS)
def test_every_special_value(param, build, rule, integer, optional):
    for value in SPECIAL + [None] * optional:
        assert_checked(param, build, rule, integer, optional, value)


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

