import hashlib
import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualmsi.core import TABLE1_WAVELENGTHS, BandSet, Mode
from dualmsi.errors import ValidationError
from dualmsi.synth import (
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
from dualmsi.studies import (
    ADULTERATION_LEVELS,
    CaseStudyConfig,
    StudyKind,
    generate_case_study,
    plan_case_study,
)

TWO_BANDS = BandSet((405, 530))
TWO_LEDS = {405: LedSpec(405, 20.0, 1.0), 530: LedSpec(530, 30.0, 1.0)}


def flat_material(albedo=0.5, absorbance=1.0):
    return MaterialSpec("flat", Curve.constant(albedo), Curve.constant(absorbance))


def quiet_scene(**overrides):
    defaults = dict(
        band_set=TWO_BANDS,
        mode=Mode.REFLECTANCE,
        mixture=MixtureSpec.pure(flat_material()),
        illumination=IlluminationProfile.flat(0.5),
        noise=NoiseSpec.none(),
        width=6,
        height=6,
        rng_seed=1,
        leds=TWO_LEDS,
    )
    defaults.update(overrides)
    return SceneConfig(**defaults)


class TestLedEmission:
    def test_peak_equals_power(self):
        assert led_emission(LedSpec(530, 30.0, 1.0), 530) == pytest.approx(1.0)
        assert led_emission(LedSpec(660, 20.0, 0.8), 660) == pytest.approx(0.8)

    def test_half_maximum_at_half_fwhm(self):
        led = LedSpec(530, 30.0, 1.0)
        assert led_emission(led, 545) == pytest.approx(0.5)
        assert led_emission(led, 515) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValidationError):
            LedSpec(530, 0.0, 1.0)
        with pytest.raises(ValidationError):
            LedSpec(530, 20.0, 0.0)


class TestMixture:
    def test_fraction_sum_enforced(self):
        a, b = flat_material(0.2), flat_material(0.6)
        with pytest.raises(ValidationError):
            MixtureSpec(((a, 0.5), (b, 0.6)))
        with pytest.raises(ValidationError):
            MixtureSpec(((a, 1.0),), depth=0.0)

    def test_albedo_bounds_validated(self):
        with pytest.raises(ValidationError):
            MaterialSpec("bad", Curve.constant(1.2), Curve.constant(0.1))
        with pytest.raises(ValidationError):
            MaterialSpec("bad", Curve.constant(0.5), Curve.constant(-0.1))


class TestBandResponse:
    def test_constant_albedo_passes_through(self):
        mix = MixtureSpec.pure(flat_material(albedo=0.4))
        got = effective_band_response(mix, LedSpec(530, 30.0, 1.0), Mode.REFLECTANCE)
        assert got == pytest.approx(0.4, abs=1e-12)

    def test_linear_mixing_of_constants(self):
        mix = MixtureSpec(((flat_material(0.2), 0.5), (flat_material(0.6), 0.5)))
        got = effective_band_response(mix, LedSpec(660, 25.0, 1.0), Mode.REFLECTANCE)
        assert got == pytest.approx(0.4, abs=1e-12)

    def test_beer_lambert_against_scalar_exponential(self):
        # constant absorbance a=1.0 over depth ln(2): response must equal
        # exp(-0.6931...) = 0.5 computed independently
        depth = 0.6931
        mix = MixtureSpec.pure(flat_material(absorbance=1.0), depth=depth)
        got = effective_band_response(mix, LedSpec(530, 30.0, 1.0), Mode.TRANSMITTANCE)
        assert got == pytest.approx(math.exp(-depth), abs=1e-12)

    def test_linear_mixing_consistency_reflectance(self):
        # response is linear in albedo, so mixture response equals the
        # fraction-weighted sum of pure responses
        rng = np.random.default_rng(0)
        led = LedSpec(621, 32.0, 0.72)
        for _ in range(20):
            grid = np.linspace(350, 960, 8)
            mats = [
                MaterialSpec(
                    f"m{i}",
                    Curve(tuple(zip(grid, rng.uniform(0.05, 0.95, grid.size)))),
                    Curve.constant(0.3),
                )
                for i in range(3)
            ]
            f = rng.dirichlet(np.ones(3))
            mix = MixtureSpec(tuple(zip(mats, f)))
            expected = sum(
                fi * effective_band_response(MixtureSpec.pure(m), led, Mode.REFLECTANCE)
                for m, fi in zip(mats, f)
            )
            got = effective_band_response(mix, led, Mode.REFLECTANCE)
            assert got == pytest.approx(expected, abs=1e-9)

    def test_transmittance_monotone_in_absorbance_and_depth(self):
        led = LedSpec(770, 42.0, 0.86)
        base = effective_band_response(
            MixtureSpec.pure(flat_material(absorbance=0.5), depth=1.0), led, Mode.TRANSMITTANCE
        )
        more_absorbing = effective_band_response(
            MixtureSpec.pure(flat_material(absorbance=0.8), depth=1.0), led, Mode.TRANSMITTANCE
        )
        deeper = effective_band_response(
            MixtureSpec.pure(flat_material(absorbance=0.5), depth=1.5), led, Mode.TRANSMITTANCE
        )
        assert more_absorbing < base
        assert deeper < base

    @settings(max_examples=30, deadline=None)
    @given(
        a=st.floats(0.0, 3.0),
        bump=st.floats(1e-6, 2.0),
        depth=st.floats(0.1, 3.0),
        extra=st.floats(1e-6, 2.0),
    )
    def test_monotonicity_property(self, a, bump, depth, extra):
        led = LedSpec(530, 30.0, 1.0)
        low = effective_band_response(
            MixtureSpec.pure(flat_material(absorbance=a), depth=depth), led, Mode.TRANSMITTANCE
        )
        high = effective_band_response(
            MixtureSpec.pure(flat_material(absorbance=a + bump), depth=depth),
            led,
            Mode.TRANSMITTANCE,
        )
        deeper = effective_band_response(
            MixtureSpec.pure(flat_material(absorbance=a), depth=depth + extra),
            led,
            Mode.TRANSMITTANCE,
        )
        assert high <= low + 1e-12
        assert deeper <= low + 1e-12


class TestIllumination:
    def test_flat_map(self):
        m = IlluminationProfile.flat(0.5).map(8, 6)
        assert m.shape == (6, 8)
        assert np.allclose(m, 0.5)

    def test_corner_ratio(self):
        profile = IlluminationProfile.corner_ratio(0.7, base=1.0)
        m = profile.map(101, 101)
        assert m.max() == pytest.approx(1.0, rel=1e-3)
        assert m[0, 0] / m.max() == pytest.approx(0.7, rel=0.02)

    def test_rejects_nonpositive_map(self):
        profile = IlluminationProfile(tilt_x=3.0, tilt_y=0.0, radial_falloff=0.0)
        with pytest.raises(ValidationError):
            profile.map(100, 100)


class TestRender:
    def test_closed_form_no_noise(self):
        sample = render(quiet_scene())
        for wl in TWO_BANDS:
            assert np.all(sample.cube.frame(wl) == round(65535 * 0.25))
        assert np.all(sample.cube.dark == 0)
        assert sample.cube.frame(530).max() < 65535

    def test_deterministic_given_seed(self):
        scene = quiet_scene(noise=NoiseSpec(), rng_seed=42)
        assert render(scene) == render(scene)
        other = render(quiet_scene(noise=NoiseSpec(), rng_seed=43))
        assert other != render(scene)

    def test_saturation_clamps_and_flags(self):
        scene = quiet_scene(
            mixture=MixtureSpec.pure(flat_material(albedo=1.0)),
            illumination=IlluminationProfile.flat(1.0),
            noise=NoiseSpec(dark_mean=500.0, dark_sd=0.0, shot_sd_fraction=0.0,
                            texture_shared_sd=0.0, texture_band_sd=0.0),
        )
        sample = render(scene)
        assert sample.cube.frame(530).max() == 65535

    def test_values_always_in_range(self):
        scene = quiet_scene(
            noise=NoiseSpec(dark_mean=300, dark_sd=200, shot_sd_fraction=0.8),
            band_gains=(5.0, 5.0),
            rng_seed=9,
        )
        sample = render(scene)
        for wl in TWO_BANDS:
            v = sample.cube.frame(wl)
            assert v.min() >= 0 and v.max() <= 65535

    @settings(max_examples=40, deadline=None)
    @given(gain=st.floats(4.0, 1e300), dark_mean=st.floats(0.0, 500.0))
    def test_bright_signal_saturates(self, gain, dark_mean):
        # gain 4 puts the flat scene at full scale; far above, the count
        # must stay there and not wrap through the integer cast
        noise = NoiseSpec(dark_mean=dark_mean, dark_sd=0.0, shot_sd_fraction=0.0,
                          texture_shared_sd=0.0, texture_band_sd=0.0)
        sample = render(quiet_scene(noise=noise, band_gains=(gain, gain)))
        assert np.all(sample.cube.values == 65535)

    @settings(max_examples=40, deadline=None)
    @given(gains=st.lists(st.floats(0.0, 1e300), min_size=2, max_size=2).map(sorted),
           shot=st.floats(0.0, 0.05))
    def test_counts_are_monotone_in_gain(self, gains, shot):
        noise = NoiseSpec(shot_sd_fraction=shot)
        low, high = (render(quiet_scene(noise=noise, rng_seed=5, band_gains=(g, g)))
                     for g in gains)
        assert np.all(high.cube.values >= low.cube.values)

    def test_non_finite_signal_is_validation_error(self):
        noise = NoiseSpec(shot_sd_fraction=1e300)
        with pytest.raises(ValidationError, match="not finite"):
            render(quiet_scene(noise=noise, band_gains=(1e300, 1.0)))

    @settings(max_examples=40, deadline=None)
    @given(bands=st.lists(st.sampled_from(TABLE1_WAVELENGTHS), min_size=1, unique=True).map(sorted),
           n_gains=st.integers(0, len(TABLE1_WAVELENGTHS)))
    def test_band_gains_are_one_per_band(self, bands, n_gains):
        # once a wavelength-keyed map that left a missing band at 1.0
        def scene():
            return SceneConfig(band_set=BandSet(bands), mode=Mode.REFLECTANCE,
                               mixture=MixtureSpec.pure(flat_material()), band_gains=(1.5,) * n_gains)

        if n_gains == len(bands):
            assert scene().band_gains == (1.5,) * n_gains
        else:
            with pytest.raises(ValidationError, match="band gains for the"):
                scene()

    def test_band_gains_scale_signal(self):
        base = render(quiet_scene())
        gained = render(quiet_scene(band_gains=(2.0, 1.0)))
        assert np.all(gained.cube.frame(405) == 2 * base.cube.frame(405))
        assert np.array_equal(gained.cube.frame(530), base.cube.frame(530))


class TestRepeatSeries:
    def test_zero_drift_is_bit_identical(self):
        scene = quiet_scene(noise=NoiseSpec(drift_amplitude=0.0))
        series = list(render_repeat_series(scene, 4))
        assert all(s.cube == series[0].cube for s in series[1:])

    def test_needs_at_least_two(self):
        with pytest.raises(ValidationError):
            render_repeat_series(quiet_scene(), 1)

    def test_drift_bounded_by_amplitude(self):
        scene = quiet_scene(rng_seed=7, noise=replace(NoiseSpec.none(), drift_amplitude=0.04))
        series = render_repeat_series(scene, 10)
        means = np.array([s.cube.frame(530).mean() for s in series])
        deviation = np.abs(means - means.mean()).max() / means.mean()
        assert 0.0 < deviation < 0.09


class TestCaseStudies:
    def test_turmeric_counts_and_pairing(self):
        config = CaseStudyConfig.for_kind(StudyKind.TURMERIC, width=12, height=12)
        data = generate_case_study(config, master_seed=1)
        assert len(data.reflectance) == 81
        assert len(data.transmittance) == 81
        assert [s.id for s in data.reflectance] == [s.id for s in data.transmittance]
        labels = {s.label.adulteration_pct for s in data.reflectance}
        assert labels == set(ADULTERATION_LEVELS)
        modes = {s.cube.mode for s in data.reflectance}
        assert modes == {Mode.REFLECTANCE}

    def test_coconut_oil_counts(self):
        config = CaseStudyConfig.for_kind(StudyKind.COCONUT_OIL, width=12, height=12)
        data = generate_case_study(config, master_seed=1)
        assert len(data.transmittance) == 72
        assert len(data.reflectance) == 0

    def test_color_chart_counts(self):
        config = CaseStudyConfig.for_kind(StudyKind.COLOR_CHART, replicates=4, width=12, height=12)
        data = generate_case_study(config, master_seed=1)
        assert len(data.reflectance) == 96
        assert {s.label.class_id for s in data.reflectance} == set(range(24))

    def test_deterministic_given_master_seed(self):
        config = CaseStudyConfig.for_kind(StudyKind.COCONUT_OIL, replicates=2, width=10, height=10)
        a = generate_case_study(config, master_seed=5)
        b = generate_case_study(config, master_seed=5)
        assert all(x == y for x, y in zip(a.transmittance, b.transmittance))

    def test_config_kind_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="config is for the turmeric study, not coconut_oil"):
            CaseStudyConfig.from_json(StudyKind.COCONUT_OIL, {"kind": "turmeric"})

    @settings(max_examples=25, deadline=None)
    @given(
        kind=st.sampled_from(StudyKind),
        master_seed=st.integers(0, 2**64 - 1),
        replicates=st.integers(1, 2),
        levels=st.lists(st.integers(0, 100), min_size=2, max_size=3, unique=True),
        n_classes=st.integers(1, 4),
        width=st.integers(10, 16),
        height=st.integers(10, 16),
    )
    def test_rendering_the_plan_one_capture_at_a_time_equals_generate(
        self, kind, master_seed, replicates, levels, n_classes, width, height
    ):
        config = CaseStudyConfig.for_kind(
            kind, replicates=replicates, levels=tuple(map(float, levels)), n_classes=n_classes,
            width=width, height=height,
        )
        data = generate_case_study(config, master_seed)
        generated = [*data.reflectance, *data.transmittance]
        plan = plan_case_study(config, master_seed)
        assert sorted(scene.sample_id for scene in plan) == sorted(s.id for s in generated)
        by_key = {(s.id, s.cube.mode): s for s in generated}
        # last capture first, each rendered alone: no render depends on another
        for scene in reversed(plan):
            sample = render(scene)
            want = by_key.pop((scene.sample_id, scene.mode))
            assert sample.id == want.id == scene.sample_id
            assert sample.label == want.label == scene.label
            assert sample.cube.mode is want.cube.mode
            assert sample.cube.band_set == want.cube.band_set
            assert sample.cube.values.dtype == want.cube.values.dtype
            assert sample.cube.values.tobytes() == want.cube.values.tobytes()
            assert sample.cube.dark.tobytes() == want.cube.dark.tobytes()
        assert not by_key

    # sha256 over every rendered capture of seeds 0 and 1 (2 replicates,
    # 5 colour classes, 20 x 20 frames): id, label, mode, values and dark
    PLAN_DIGESTS = {
        StudyKind.TURMERIC: "133df0ce5f180d6dd7c6a72abc123d8af315317aeb5b574cbd68d0991f9a7a73",
        StudyKind.COCONUT_OIL: "b40e2692b9434e6202e6f8b062db72733d62cbf21fc8c89307f41f6ea122a41f",
        StudyKind.COLOR_CHART: "bb104955b5e8d643cb749bd34730741e0088a7f05bb30673f539b28ed96f0073",
    }

    @pytest.mark.parametrize("kind", list(StudyKind), ids=lambda kind: kind.value)
    def test_plan_renders_the_recorded_bytes(self, kind):
        config = CaseStudyConfig.for_kind(kind, replicates=2, n_classes=5, width=20, height=20)
        digest = hashlib.sha256()
        for seed in (0, 1):
            for scene in plan_case_study(config, seed):
                sample = render(scene)
                digest.update(json.dumps([sample.id, sample.label.to_json(), sample.cube.mode.value]).encode())
                digest.update(sample.cube.values.tobytes())
                digest.update(sample.cube.dark.tobytes())
        assert digest.hexdigest() == self.PLAN_DIGESTS[kind]


CONFIG_FIELDS = [f.name for f in fields(CaseStudyConfig)]
NESTED_KEYS = [f.name for spec in (NoiseSpec, IlluminationProfile, BandSet) for f in fields(spec)]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(NESTED_KEYS) | st.text(max_size=4), inner, max_size=3),
    max_leaves=10,
)


class TestStudyConfigJson:
    def test_empty_object_gives_the_kind_defaults(self):
        for kind in StudyKind:
            assert CaseStudyConfig.from_json(kind, {}) == CaseStudyConfig.for_kind(kind)
            assert CaseStudyConfig.from_json(kind, {"kind": kind.value}) == CaseStudyConfig.for_kind(kind)

    def test_reads_fields_and_nested_specs(self):
        obj = {"replicates": 3, "levels": [0, 10], "depth": 2, "noise": {"dark_mean": 70},
               "illumination": {"center": [1, 2]}}
        config = CaseStudyConfig.from_json(StudyKind.COCONUT_OIL, obj)
        assert config == CaseStudyConfig.for_kind(
            StudyKind.COCONUT_OIL,
            replicates=3,
            levels=(0.0, 10.0),
            depth=2.0,
            noise=NoiseSpec(dark_mean=70.0),
            illumination=IlluminationProfile(center=(1.0, 2.0)),
        )

    @pytest.mark.parametrize(
        "obj", [{"n_times": 4}, {"kind": "ignored"}, {"kind": "coconut_oil"}, {"kind": 1}]
    )
    def test_unknown_keys_and_other_kinds_are_validation_errors(self, obj):
        with pytest.raises(ValidationError):
            CaseStudyConfig.from_json(StudyKind.TURMERIC, obj)

    @pytest.mark.parametrize(
        "obj",
        [{"replicates": "3"}, {"replicates": True}, {"depth": False}, {"width": 1.0},
         {"levels": [0, "5"]}, {"noise": {"bogus": 1}}, {"noise": []},
         {"illumination": {"center": [1, 2, 3]}}, {"band_set": {"wavelengths_nm": [405.5]}},
         {"depth": 10**400}],
    )
    def test_wrong_types_are_validation_errors(self, obj):
        with pytest.raises(ValidationError):
            CaseStudyConfig.from_json(StudyKind.TURMERIC, obj)

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(list(StudyKind)),
        obj=st.dictionaries(st.sampled_from(CONFIG_FIELDS), JSON_VALUES, max_size=4),
    )
    def test_any_json_gives_a_config_or_validation_error(self, kind, obj):
        try:
            config = CaseStudyConfig.from_json(kind, obj)
        except ValidationError:
            return
        assert config.kind is kind


class TestStudyConfigChecks:
    @settings(max_examples=200, deadline=None)
    @given(
        levels=st.lists(
            st.floats(-5.0, 105.0) | st.sampled_from([0.0, 0.5, 5.0, 40.0, 100.0]), min_size=2, max_size=5
        ),
    )
    def test_levels_in_range_with_distinct_sample_ids_are_accepted(self, levels):
        ids = [f"coconut_oil-{int(level):02d}-r00" for level in levels if 0.0 <= level <= 100.0]
        valid = len(ids) == len(levels) and len(set(ids)) == len(ids)
        if valid:
            assert CaseStudyConfig.for_kind(StudyKind.COCONUT_OIL, levels=tuple(levels)).levels == tuple(levels)
        else:
            with pytest.raises(ValidationError):
                CaseStudyConfig.for_kind(StudyKind.COCONUT_OIL, levels=tuple(levels))

    @pytest.mark.parametrize(
        "overrides",
        [{"levels": (0.0, math.nan)}, {"levels": (-math.inf, 40.0)}, {"levels": (0.0, math.inf)}],
        ids=["nan-level", "minus-inf-level", "inf-level"],
    )
    def test_non_finite_or_negative_values_raise(self, overrides):
        # the CLI's reader refuses NaN and Infinity first; library callers stop here
        with pytest.raises(ValidationError):
            CaseStudyConfig.for_kind(StudyKind.TURMERIC, **overrides)

    def test_scene_takes_the_study_device_settings(self):
        config = CaseStudyConfig.for_kind(StudyKind.TURMERIC, width=12, height=8, noise=NoiseSpec(dark_sd=2.0))
        mixture = MixtureSpec.pure(flat_material())
        gains = (1.0,) * len(config.band_set)
        scene = config.scene(Mode.TRANSMITTANCE, mixture, 7, width=6, band_gains=gains)
        assert scene == SceneConfig(
            band_set=config.band_set, mode=Mode.TRANSMITTANCE, mixture=mixture,
            illumination=config.illumination, noise=config.noise, width=6, height=8, rng_seed=7,
            band_gains=gains,
        )
