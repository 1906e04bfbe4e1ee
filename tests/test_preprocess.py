import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualmsi.core import TABLE1_WAVELENGTHS, BandSet, Label, Mode, Sample
from dualmsi.errors import (
    DegenerateReferenceError,
    DimensionMismatchError,
    ValidationError,
)
from dualmsi.jsonio import json_value
from dualmsi.preprocess import (
    BilateralOptions,
    Corrections,
    PipelineOptions,
    SaturationClipWarning,
    apply_spatial_gain,
    apply_spectral_gain,
    bilateral_filter,
    fit_corrections,
    fit_spatial_gain,
    fit_spectral_gain,
    preprocess_pipeline,
    subtract_dark,
)
from dualmsi.studies import CaseStudyConfig, StudyKind, render_white_reference
from dualmsi.synth import IlluminationProfile

from conftest import make_cube, random_raw_sample


def make_float(values_by_band, mode=Mode.REFLECTANCE):
    return make_cube({wl: np.asarray(v, dtype=np.float64) for wl, v in values_by_band.items()}, mode=mode)


class TestSubtractDark:
    def test_formula(self):
        raw = np.full((2, 2), 1000, dtype=np.uint16)
        dark = np.full((2, 2), 100, dtype=np.uint16)
        out = subtract_dark(make_cube({530: raw}, dark=dark))
        assert np.allclose(out.frame(530), 900 / 65535)
        assert np.all(out.dark == 0.0)

    def test_clamps_at_zero(self):
        raw = np.full((2, 2), 50, dtype=np.uint16)
        dark = np.full((2, 2), 100, dtype=np.uint16)
        out = subtract_dark(make_cube({530: raw}, dark=dark))
        assert np.all(out.frame(530) == 0.0)

    def test_zero_dark_is_pure_scaling(self):
        raw = np.arange(4, dtype=np.uint16).reshape(2, 2) * 1000
        out = subtract_dark(make_cube({530: raw}))
        assert np.allclose(out.frame(530), raw / 65535)

    def test_output_in_unit_interval(self):
        rng = np.random.default_rng(0)
        sample = random_raw_sample(rng, size=16)
        out = subtract_dark(sample.cube)
        for wl in out.band_set:
            v = out.frame(wl)
            assert v.min() >= 0.0 and v.max() <= 1.0


class TestSpatialGain:
    def test_flat_white_gives_unit_gain(self):
        white = make_float({530: np.full((20, 20), 0.5)})
        gain, flags = fit_spatial_gain(white)
        assert np.allclose(gain, 1.0)
        assert not flags.any()

    def test_gain_is_ratio_to_max(self):
        # left half 0.8, right half 0.4 (well away from the seam):
        # smoothed interior keeps those values, so gains are 1.0 and 2.0
        values = np.full((30, 40), 0.8)
        values[:, 20:] = 0.4
        gain, _ = fit_spatial_gain(make_float({530: values}), window=3)
        assert gain[0, 15, 5] == pytest.approx(1.0)
        assert gain[0, 15, 35] == pytest.approx(2.0)

    def test_floor_caps_and_flags(self):
        values = np.full((20, 20), 1.0)
        values[0, 0] = 1e-6
        gain, flags = fit_spatial_gain(make_float({530: values}), window=1, floor=0.05)
        assert flags[0, 0, 0]
        assert gain[0, 0, 0] == pytest.approx(20.0)

    def test_all_zero_band_rejected(self):
        with pytest.raises(DegenerateReferenceError):
            fit_spatial_gain(make_float({530: np.zeros((8, 8))}))

    def test_apply_identity_and_mismatch(self):
        cube = make_float({530: np.full((8, 8), 0.25)})
        assert apply_spatial_gain(cube, np.ones((1, 8, 8))) == cube
        for other in ((1, 4, 4), (2, 8, 8)):
            with pytest.raises(DimensionMismatchError):
                apply_spatial_gain(cube, np.ones(other))

    def test_flat_field_identity_per_pixel(self):
        # gain fitted from a white capture, applied to that same capture:
        # every unflagged pixel lands within 2% of the band maximum.  The
        # white is a frame-averaged capture (tiny residual noise) under a
        # pure linear tilt, where box smoothing is unbiased.
        from dualmsi.synth import NoiseSpec

        config = CaseStudyConfig.for_kind(
            StudyKind.TURMERIC,
            illumination=IlluminationProfile(tilt_x=0.15, tilt_y=0.10, radial_falloff=0.0),
            noise=NoiseSpec(dark_mean=80, dark_sd=1.0, shot_sd_fraction=0.001,
                            texture_shared_sd=0.0, texture_band_sd=0.0),
        )
        white = render_white_reference(config, Mode.REFLECTANCE, master_seed=13)
        dark_sub = subtract_dark(white.cube)
        gain, flags = fit_spatial_gain(dark_sub)
        flat = apply_spatial_gain(dark_sub, gain)
        for frame, band_flags in zip(flat.values, flags):
            values = frame[~band_flags]
            assert (values / values.max()).min() >= 0.98

    @pytest.mark.parametrize("corner_ratio", [0.3, 0.5, 0.7, 0.9])
    def test_flat_field_property(self, corner_ratio):
        # fit+apply on the fitting reference flattens it to <= 2% rel std
        config = CaseStudyConfig.for_kind(
            StudyKind.TURMERIC,
            illumination=IlluminationProfile.corner_ratio(corner_ratio),
        )
        white = render_white_reference(config, Mode.REFLECTANCE, master_seed=21)
        dark_sub = subtract_dark(white.cube)
        gain, flags = fit_spatial_gain(dark_sub)
        flat = apply_spatial_gain(dark_sub, gain)
        for frame, band_flags in list(zip(flat.values, flags))[::4]:
            values = frame[~band_flags]
            assert values.std() / values.mean() <= 0.02


class TestSpectralGain:
    def test_ratio_to_best_band(self):
        cube = make_float({405: np.full((6, 6), 0.25), 530: np.full((6, 6), 0.5)})
        scale_405, scale_530 = fit_spectral_gain(cube)
        assert scale_530 == pytest.approx(1.0)
        assert scale_405 == pytest.approx(2.0)

    def test_equal_bands_unit_gain(self):
        cube = make_float({405: np.full((6, 6), 0.4), 530: np.full((6, 6), 0.4)})
        assert all(v == pytest.approx(1.0) for v in fit_spectral_gain(cube))

    def test_zero_mean_band_rejected(self):
        cube = make_float({405: np.zeros((6, 6)), 530: np.full((6, 6), 0.4)})
        with pytest.raises(DegenerateReferenceError):
            fit_spectral_gain(cube)

    def test_apply_scales_and_clamps(self):
        cube = make_float({405: np.full((4, 4), 0.6), 530: np.full((4, 4), 0.9)})
        with pytest.warns(SaturationClipWarning):
            out = apply_spectral_gain(cube, np.array([1.5, 2.0]))
        assert np.allclose(out.frame(405), 0.9)
        assert np.allclose(out.frame(530), 1.0)

    def test_unit_gain_identity(self):
        cube = make_float({405: np.full((4, 4), 0.6)})
        out = apply_spectral_gain(cube, np.array([1.0]))
        assert out == cube
        with pytest.raises(DimensionMismatchError):
            apply_spectral_gain(cube, np.array([1.0, 1.0]))


def bilateral_reference(frame, sigma_s, sigma_r, window):
    """Direct double-sum evaluation; the oracle the fast path must match."""
    half = window // 2
    padded = np.pad(frame, half, mode="edge")
    out = np.zeros_like(frame, dtype=np.float64)
    for y in range(frame.shape[0]):
        for x in range(frame.shape[1]):
            num = den = 0.0
            for dy in range(-half, half + 1):
                for dx in range(-half, half + 1):
                    q = padded[y + half + dy, x + half + dx]
                    w = math.exp(-(dx * dx + dy * dy) / (2 * sigma_s**2)) * math.exp(
                        -((frame[y, x] - q) ** 2) / (2 * sigma_r**2)
                    )
                    num += w * q
                    den += w
            out[y, x] = num / den
    return out


class TestBilateral:
    def test_constant_frame_unchanged(self):
        frame = np.full((9, 9), 0.37)
        assert np.array_equal(bilateral_filter(frame), frame)

    def test_matches_double_sum_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(4):
            frame = rng.uniform(0, 1, (7, 7))
            got = bilateral_filter(frame, sigma_s=1.5, sigma_r=0.2, window=5)
            want = bilateral_reference(frame, 1.5, 0.2, 5)
            assert np.allclose(got, want, atol=1e-12)

    def test_step_edge_preserved(self):
        frame = np.zeros((7, 7))
        frame[:, 4:] = 1.0
        out = bilateral_filter(frame, sigma_s=2.0, sigma_r=0.05, window=5)
        assert np.abs(out - frame).max() < 0.01

    def test_large_sigma_r_equals_gaussian_blur(self):
        # with the range kernel ~1, the bilateral reduces to a plain
        # (truncated, renormalized) Gaussian convolution
        frame = np.zeros((9, 9))
        frame[4, 4] = 1e-6  # tiny impulse keeps range term ~1 exactly enough
        sigma_s, window = 1.2, 5
        got = bilateral_filter(frame, sigma_s=sigma_s, sigma_r=1e6, window=window)
        half = window // 2
        kernel = np.array(
            [
                [math.exp(-(dx * dx + dy * dy) / (2 * sigma_s**2)) for dx in range(-half, half + 1)]
                for dy in range(-half, half + 1)
            ]
        )
        padded = np.pad(frame, half, mode="edge")
        want = np.zeros_like(frame)
        for y in range(9):
            for x in range(9):
                patch = padded[y : y + window, x : x + window]
                want[y, x] = (patch * kernel).sum() / kernel.sum()
        assert np.allclose(got, want, atol=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_contraction_toward_local_window(self, seed):
        rng = np.random.default_rng(seed)
        frame = rng.uniform(0, 1, (8, 8))
        out = bilateral_filter(frame, sigma_s=2.0, sigma_r=0.1, window=3)
        padded = np.pad(frame, 1, mode="edge")
        for y in range(8):
            for x in range(8):
                window = padded[y : y + 3, x : x + 3]
                assert window.min() - 1e-12 <= out[y, x] <= window.max() + 1e-12

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            bilateral_filter(np.zeros((4, 4)), window=4)
        with pytest.raises(ValidationError):
            bilateral_filter(np.zeros((4, 4)), sigma_s=0.0)

    @pytest.mark.parametrize("shape", [(4,), (2, 3, 4, 4)])
    def test_rejects_arrays_that_are_not_frames_or_stacks(self, shape):
        with pytest.raises(ValidationError):
            bilateral_filter(np.zeros(shape))

    @pytest.mark.parametrize("shape", [(2, 0, 3), (4, 0)])
    def test_rejects_frames_without_rows_or_columns(self, shape):
        with pytest.raises(ValidationError, match="rows and columns"):
            bilateral_filter(np.zeros(shape))


class TestPipeline:
    @pytest.fixture()
    def white_and_corrections(self):
        # the bands of random_raw_sample
        config = CaseStudyConfig.for_kind(StudyKind.TURMERIC, width=40, height=40,
                                          band_set=BandSet((405, 530, 660)))
        white = render_white_reference(config, Mode.REFLECTANCE, master_seed=3)
        return config, white, fit_corrections(white)

    def test_dark_subtraction_runs_with_every_other_stage_off(self):
        rng = np.random.default_rng(1)
        sample = random_raw_sample(rng)
        options = PipelineOptions(crop=None, spatial=False, spectral=False, bilateral=None)
        out = preprocess_pipeline(sample, None, options)
        assert out.cube == subtract_dark(sample.cube)
        assert out.provenance == ("dark",)
        with pytest.raises(ValidationError, match="raw cube"):  # dark subtraction needs a raw cube
            preprocess_pipeline(out, None, options)

    @pytest.mark.filterwarnings("ignore::dualmsi.preprocess.SaturationClipWarning")
    def test_stage_order_recorded(self, white_and_corrections):
        config, white, corrections = white_and_corrections
        rng = np.random.default_rng(2)
        sample = random_raw_sample(rng, size=48)
        # gains are fitted at the 40x40 analysis size, so the crop stage
        # must bring the raw 48x48 capture to the same window first
        options = PipelineOptions(crop=(4, 4, 40, 40), spectral=True)
        out = preprocess_pipeline(sample, corrections, options)
        assert out.provenance[0] == "crop(4,4,40,40)"
        assert out.provenance[1:4] == ("dark", "spatial", "spectral")
        assert out.provenance[4].startswith("bilateral")
        assert out.cube.width == 40

    @pytest.mark.filterwarnings("ignore::dualmsi.preprocess.SaturationClipWarning")
    def test_spectral_defaults_off_for_transmittance(self, white_and_corrections):
        config, white, corrections = white_and_corrections
        rng = np.random.default_rng(3)
        sample = random_raw_sample(rng, size=40, mode=Mode.TRANSMITTANCE)
        out = preprocess_pipeline(sample, corrections, PipelineOptions(bilateral=None))
        assert "spectral" not in out.provenance
        refl = random_raw_sample(rng, size=40, mode=Mode.REFLECTANCE)
        out_r = preprocess_pipeline(refl, corrections, PipelineOptions(bilateral=None))
        assert "spectral" in out_r.provenance

    def test_corrections_reduce_spatial_variation(self):
        # tilted-illumination scene: per-band coefficient of variation must
        # shrink once spatial-spectral corrections run
        config = CaseStudyConfig.for_kind(StudyKind.TURMERIC, width=50, height=50)
        white = render_white_reference(config, Mode.REFLECTANCE, master_seed=5)
        corrections = fit_corrections(white)
        from dualmsi.studies import generate_case_study
        data = generate_case_study(
            CaseStudyConfig.for_kind(StudyKind.TURMERIC, replicates=1, levels=(0.0, 5.0), width=50, height=50),
            master_seed=5,
        )
        sample = data.reflectance[0]
        plain = preprocess_pipeline(sample, None, PipelineOptions(spatial=False, spectral=False, bilateral=None))
        fixed = preprocess_pipeline(sample, corrections, PipelineOptions(spectral=True, bilateral=None))
        for wl in list(sample.cube.band_set)[::4]:
            cv_plain = plain.cube.frame(wl).std() / plain.cube.frame(wl).mean()
            cv_fixed = fixed.cube.frame(wl).std() / fixed.cube.frame(wl).mean()
            assert cv_fixed < cv_plain

    @pytest.mark.filterwarnings("ignore::dualmsi.preprocess.SaturationClipWarning")
    def test_deterministic(self, white_and_corrections):
        config, white, corrections = white_and_corrections
        rng = np.random.default_rng(4)
        sample = random_raw_sample(rng, size=40)
        options = PipelineOptions(spectral=True)
        a = preprocess_pipeline(sample, corrections, options)
        b = preprocess_pipeline(sample, corrections, options)
        assert a == b and a.provenance == b.provenance

    def test_missing_gain_rejected(self):
        rng = np.random.default_rng(5)
        sample = random_raw_sample(rng)
        with pytest.raises(ValidationError):
            preprocess_pipeline(sample, None, PipelineOptions(spatial=True, bilateral=None))

    @settings(max_examples=50, deadline=None)
    @given(
        bands=st.lists(st.lists(st.sampled_from(TABLE1_WAVELENGTHS), min_size=1, max_size=5, unique=True)
                       .map(sorted), min_size=2, max_size=2),
        stages=st.sampled_from([(True, False), (False, True), (True, None), (False, None)]),
        mode=st.sampled_from(Mode),
    )
    def test_gains_of_another_band_set_are_refused(self, bands, stages, mode):
        # a cube whose bands were a strict subset of the white's was once
        # corrected, and a missing band raised at its stage
        white_bands, sample_bands = map(BandSet, bands)
        corrections = Corrections(white_bands, np.ones((len(white_bands), 4, 4)), np.ones(len(white_bands)))
        cube = make_cube({wl: np.full((4, 4), 1000, np.uint16) for wl in sample_bands}, mode=mode)
        sample = Sample("s", cube, Label.adulteration(0.0))
        spatial, spectral = stages
        options = PipelineOptions(spatial=spatial, spectral=spectral, bilateral=None)
        if white_bands == sample_bands or not (spatial or options.spectral_enabled(mode)):
            assert preprocess_pipeline(sample, corrections, options).cube.band_set == sample_bands
        else:
            with pytest.raises(ValidationError, match="has the bands"):
                preprocess_pipeline(sample, corrections, options)

    @pytest.mark.parametrize(
        "gain, scale",
        [((2, 4, 4), (3,)), ((3, 4, 4), (2,)), ((3, 4), (3,)), ((3, 4, 4), (3, 1))],
        ids=["few-maps", "few-factors", "flat-maps", "nested-factors"],
    )
    def test_corrections_line_up_with_their_bands(self, gain, scale):
        bands = BandSet((405, 530, 660))
        with pytest.raises(ValidationError):
            Corrections(bands, np.ones(gain), np.ones(scale))

    def test_corrections_are_locked(self):
        corrections = Corrections(BandSet((530,)), np.ones((1, 2, 2)), [1.5])
        for arr in (corrections.gain, corrections.scale):
            with pytest.raises(ValueError):
                arr[0] = 2.0

    @settings(max_examples=50, deadline=None)
    @given(
        crop=st.none() | st.tuples(*[st.integers(0, 99)] * 4),
        flags=st.tuples(st.booleans(), st.none() | st.booleans()),
        bilateral=st.none() | st.builds(
            BilateralOptions, st.integers(1, 9), st.floats(0.1, 5.0), st.integers(1, 3)
        ),
    )
    def test_options_json_round_trip(self, crop, flags, bilateral):
        # the CLI reads "options" with json_value; any options object
        # written as plain JSON reads back equal
        spatial, spectral = flags
        options = PipelineOptions(crop, spatial, spectral, bilateral)
        text = json.dumps(dataclasses.asdict(options))
        assert json_value(PipelineOptions, json.loads(text), "options") == options

    def test_options_json_defaults_match_constructor(self):
        def read(obj):
            return json_value(PipelineOptions, obj, "options")

        assert read({}) == PipelineOptions()
        assert read({"bilateral": None}).bilateral is None
        assert read({"bilateral": {}}).bilateral == BilateralOptions()
        assert read({"bilateral": {"window": 7}}).bilateral == BilateralOptions(window=7)
        for bad in ({"bilateral": 5}, {"crop": [1, 2]}, {"dark": True},
                    {"bilateral": {"sigma": 1.0}}, {"spectral": 1}, [1]):
            with pytest.raises(ValidationError):
                read(bad)
