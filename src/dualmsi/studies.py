"""Case-study dataset generators built on the scene renderer.

Three fixtures mirror the validation experiments: turmeric powder
adulterated with rice flour (both modes, paired per replicate for merged
analysis), coconut oil adulterated with palm oil (transmittance only),
and a 24-color calibration chart (reflectance only).

Replicate-to-replicate nuisance variation is modeled explicitly: small
fraction errors from sample preparation, pour-depth variation for
dissolved/liquid specimens, packing-density scale changes for powders,
and per-capture LED drive drift (each band is a separate exposure).
These magnitudes are fixture calibration, not measured device values.

A study is first planned: :func:`plan_case_study` lists every capture's
sample id and scene (label and mode included) without rendering, which
costs next to nothing.  :func:`generate_case_study` renders the whole
plan and holds every raw cube; a caller that needs one sample at a time,
as ``harness.run_case_study`` does, renders the captures in turn and
drops each cube before rendering the next, with the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from enum import Enum

import numpy as np

from . import materials
from .core import BandSet, Label, Mode, Sample, json_call, json_value
from .errors import ValidationError
from .synth import (
    IlluminationProfile,
    MixtureSpec,
    NoiseSpec,
    SceneConfig,
    render,
    require_nonnegative,
    stream,
)


class StudyKind(Enum):
    TURMERIC = "turmeric"
    COCONUT_OIL = "coconut_oil"
    COLOR_CHART = "color_chart"


ADULTERATION_LEVELS = tuple(float(p) for p in range(0, 41, 5))


@dataclass(frozen=True)
class CaseStudyConfig:
    """Knobs for one synthetic case study; per-kind defaults via ``for_kind``."""

    kind: StudyKind
    replicates: int
    levels: tuple[float, ...] = ADULTERATION_LEVELS
    n_classes: int = 24
    width: int = 100
    height: int = 100
    band_set: BandSet = BandSet.thirteen_band()
    illumination: IlluminationProfile = IlluminationProfile()
    noise: NoiseSpec = NoiseSpec()
    depth: float = 1.0
    # Replicate-level nuisance magnitudes (all standard deviations).  The
    # multiplicative per-capture drift is low-rank by design: one global
    # scale and one smooth spectral tilt per mode, plus a small white
    # residue per band.
    fraction_jitter_sd: float = 0.001
    depth_jitter_sd: float = 0.015
    refl_scale_jitter_sd: float = 0.03
    refl_tilt_jitter_sd: float = 0.02
    refl_band_jitter_sd: float = 0.006
    trans_scale_jitter_sd: float = 0.012
    trans_tilt_jitter_sd: float = 0.008
    trans_band_jitter_sd: float = 0.003
    # Specimen heterogeneity growth with adulterant fraction: the shared
    # texture sd is scaled by (1 + gain * fraction).
    texture_adulteration_gain: float = 0.0

    def __post_init__(self):
        require_nonnegative(
            self,
            "texture_adulteration_gain",
            *(f.name for f in fields(self) if f.name.endswith("_jitter_sd")),
        )
        if not all(0.0 <= level <= 100.0 for level in self.levels):
            raise ValidationError(f"levels must lie in [0, 100], got {list(self.levels)}")
        if len({int(level) for level in self.levels}) != len(self.levels):
            # a sample id holds int(level), so two such levels would share ids
            raise ValidationError(f"no two levels may share a whole percent, got {list(self.levels)}")
        if self.replicates < 1:
            raise ValidationError("replicates must be >= 1")
        if self.kind is not StudyKind.COLOR_CHART and len(self.levels) < 2:
            raise ValidationError("adulteration study needs at least 2 levels")
        if self.kind is StudyKind.COLOR_CHART and not 1 <= self.n_classes <= materials.PALETTE_SIZE:
            raise ValidationError(
                f"n_classes must lie in [1, {materials.PALETTE_SIZE}], got {self.n_classes}"
            )

    def scene(self, mode: Mode, mixture: MixtureSpec, rng_seed: int, **overrides) -> SceneConfig:
        """One capture's scene under the study's band set, illumination,
        noise and frame size; ``overrides`` sets other ``SceneConfig``
        fields or replaces these."""
        device = dict(band_set=self.band_set, illumination=self.illumination, noise=self.noise,
                      width=self.width, height=self.height)
        return SceneConfig(mode=mode, mixture=mixture, rng_seed=rng_seed, **{**device, **overrides})

    @classmethod
    def for_kind(cls, kind: StudyKind, **overrides) -> "CaseStudyConfig":
        return cls(kind=kind, **{**_KIND_DEFAULTS[kind], **overrides})

    @classmethod
    def from_json(cls, kind: StudyKind, obj: dict) -> "CaseStudyConfig":
        """The ``kind`` defaults with every field that ``obj`` names read
        from JSON and type-checked.  A key that names no field, or a
        ``kind`` other than ``kind`` itself, raises ValidationError."""
        obj = dict(obj)
        given = json_value(StudyKind, obj.pop("kind", kind.value), "study kind")
        if given is not kind:
            raise ValidationError(f"config is for the {given.value} study, not {kind.value}")
        return json_call(cls, {**_KIND_DEFAULTS[kind], **obj}, "study config", kind)


# Per-kind settings that differ from the field defaults.
_KIND_DEFAULTS = {
    StudyKind.TURMERIC: dict(replicates=9),
    StudyKind.COCONUT_OIL: dict(
        replicates=8,
        depth_jitter_sd=0.005,
        trans_scale_jitter_sd=0.004,
        trans_tilt_jitter_sd=0.003,
        trans_band_jitter_sd=0.002,
    ),
    StudyKind.COLOR_CHART: dict(replicates=4, refl_scale_jitter_sd=0.02, refl_tilt_jitter_sd=0.012),
}


@dataclass(frozen=True)
class StudyDataset:
    """Generated samples per mode; paired studies share sample ids across modes."""

    kind: StudyKind
    reflectance: tuple[Sample, ...] = ()
    transmittance: tuple[Sample, ...] = ()


def _seed(*parts) -> int:
    return int(stream(*parts).integers(0, 2**63 - 1))


def _band_gains(
    rng: np.random.Generator,
    band_set: BandSet,
    scale_sd: float,
    tilt_sd: float,
    white_sd: float,
) -> dict[int, float]:
    """Per-capture LED drive drift: global scale x spectral tilt x white residue."""
    wls = np.array(list(band_set), dtype=np.float64)
    x = 2.0 * (wls - wls.mean()) / (wls.max() - wls.min() or 1.0)
    scale = 1.0 + scale_sd * rng.normal()
    tilt = 1.0 + tilt_sd * rng.normal() * x
    white = 1.0 + white_sd * rng.normal(size=wls.size)
    return {wl: float(g) for wl, g in zip(band_set, scale * tilt * white)}


@dataclass(frozen=True)
class Capture:
    """One planned capture of a study: the scene to render and the sample
    id to render it under.  The scene carries the label and mode."""

    sample_id: str
    scene: SceneConfig

    def render(self) -> Sample:
        return render(self.scene, sample_id=self.sample_id)


def _adulteration_captures(config: CaseStudyConfig, master_seed: int, base, adulterant) -> list[Capture]:
    captures = []
    paired = config.kind is StudyKind.TURMERIC
    for li, level in enumerate(config.levels):
        for rep in range(config.replicates):
            sid = f"{config.kind.value}-{int(level):02d}-r{rep:02d}"
            label = Label.adulteration(level)
            rng = stream(master_seed, config.kind.value, li, rep, "jitter")
            fraction = float(np.clip(level / 100.0 + rng.normal(0.0, config.fraction_jitter_sd), 0.0, 1.0))
            depth = config.depth * (1.0 + rng.normal(0.0, config.depth_jitter_sd))
            noise = config.noise
            if config.texture_adulteration_gain > 0.0:
                noise = replace(
                    noise,
                    texture_shared_sd=noise.texture_shared_sd
                    * (1.0 + config.texture_adulteration_gain * fraction),
                )
            refl_gains = _band_gains(
                rng,
                config.band_set,
                config.refl_scale_jitter_sd,
                config.refl_tilt_jitter_sd,
                config.refl_band_jitter_sd,
            )
            trans_gains = _band_gains(
                rng,
                config.band_set,
                config.trans_scale_jitter_sd,
                config.trans_tilt_jitter_sd,
                config.trans_band_jitter_sd,
            )

            if paired:
                scene = config.scene(
                    Mode.REFLECTANCE,
                    MixtureSpec.binary(base, adulterant, fraction),
                    _seed(master_seed, sid, "R"),
                    noise=noise,
                    band_gains=refl_gains,
                    label=label,
                )
                captures.append(Capture(sid, scene))

            scene_t = config.scene(
                Mode.TRANSMITTANCE,
                MixtureSpec.binary(base, adulterant, fraction, depth=max(depth, 1e-6)),
                _seed(master_seed, sid, "T"),
                noise=noise,
                band_gains=trans_gains,
                label=label,
            )
            captures.append(Capture(sid, scene_t))
    return captures


def _color_chart_captures(config: CaseStudyConfig, master_seed: int) -> list[Capture]:
    captures = []
    for class_id in range(config.n_classes):
        material = materials.color_chart_material(class_id)
        for rep in range(config.replicates):
            sid = f"color-{class_id:02d}-r{rep:02d}"
            rng = stream(master_seed, "color_chart", class_id, rep, "jitter")
            gains = _band_gains(
                rng,
                config.band_set,
                config.refl_scale_jitter_sd,
                config.refl_tilt_jitter_sd,
                config.refl_band_jitter_sd,
            )
            scene = config.scene(
                Mode.REFLECTANCE,
                MixtureSpec.pure(material),
                _seed(master_seed, sid),
                band_gains=gains,
                label=Label.color(class_id),
            )
            captures.append(Capture(sid, scene))
    return captures


# Base material and adulterant of each adulteration study.
_MIXTURES = {
    StudyKind.TURMERIC: (materials.TURMERIC, materials.RICE_FLOUR),
    StudyKind.COCONUT_OIL: (materials.COCONUT_OIL, materials.PALM_OIL),
}


def plan_case_study(
    kind: StudyKind, config: CaseStudyConfig | None = None, master_seed: int = 0
) -> tuple[Capture, ...]:
    """Every capture of one case study, in render order, without rendering.

    Turmeric plans a reflectance and a transmittance capture per replicate
    (same preparation, so the same jittered mixture feeds both modes);
    coconut oil plans transmittance only; the color chart reflectance
    only.  Each capture renders the same sample whenever it is rendered,
    so a caller may render them one at a time and drop each in turn.
    """
    config = CaseStudyConfig.for_kind(kind) if config is None else config
    if config.kind is not kind:
        raise ValidationError(f"config is for {config.kind}, requested {kind}")
    if kind is StudyKind.COLOR_CHART:
        return tuple(_color_chart_captures(config, master_seed))
    return tuple(_adulteration_captures(config, master_seed, *_MIXTURES[kind]))


def generate_case_study(
    kind: StudyKind, config: CaseStudyConfig | None = None, master_seed: int = 0
) -> StudyDataset:
    """Render the whole plan of one case study (:func:`plan_case_study`)
    deterministically from the master seed; paired studies share sample
    ids across modes."""
    samples = [capture.render() for capture in plan_case_study(kind, config, master_seed)]
    return StudyDataset(
        kind=kind, **{mode.value: tuple(s for s in samples if s.cube.mode is mode) for mode in Mode}
    )


def render_white_reference(
    config: CaseStudyConfig, mode: Mode, master_seed: int = 0
) -> Sample:
    """Uniform white capture under the study's device settings.

    This is the reference the correction pipeline is fitted on; it shares
    the study's illumination profile, noise model and band set.
    """
    scene = config.scene(
        mode,
        MixtureSpec.pure(materials.WHITE_REFERENCE),
        _seed(master_seed, "white", mode.value),
        label=Label.adulteration(0.0),
    )
    return render(scene, sample_id=f"white-{mode.value}")
