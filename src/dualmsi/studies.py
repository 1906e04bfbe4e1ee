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
        require_nonnegative(self, *(f.name for f in fields(self) if f.name.endswith("_jitter_sd")))
        if self.replicates < 1:
            raise ValidationError("replicates must be >= 1")
        if self.kind is not StudyKind.COLOR_CHART and len(self.levels) < 2:
            raise ValidationError("adulteration study needs at least 2 levels")
        if self.kind is StudyKind.COLOR_CHART and not 1 <= self.n_classes <= materials.PALETTE_SIZE:
            raise ValidationError(
                f"n_classes must lie in [1, {materials.PALETTE_SIZE}], got {self.n_classes}"
            )

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


def _adulteration_samples(config: CaseStudyConfig, master_seed: int, base, adulterant):
    refl, trans = [], []
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
                mixture = MixtureSpec.binary(base, adulterant, fraction)
                scene = SceneConfig(
                    band_set=config.band_set,
                    mode=Mode.REFLECTANCE,
                    mixture=mixture,
                    illumination=config.illumination,
                    noise=noise,
                    width=config.width,
                    height=config.height,
                    rng_seed=_seed(master_seed, sid, "R"),
                    band_gains=refl_gains,
                    label=label,
                )
                refl.append(render(scene, sample_id=sid))

            mixture_t = MixtureSpec.binary(base, adulterant, fraction, depth=max(depth, 1e-6))
            scene_t = SceneConfig(
                band_set=config.band_set,
                mode=Mode.TRANSMITTANCE,
                mixture=mixture_t,
                illumination=config.illumination,
                noise=noise,
                width=config.width,
                height=config.height,
                rng_seed=_seed(master_seed, sid, "T"),
                band_gains=trans_gains,
                label=label,
            )
            trans.append(render(scene_t, sample_id=sid))
    return tuple(refl), tuple(trans)


def _color_chart_samples(config: CaseStudyConfig, master_seed: int):
    samples = []
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
            scene = SceneConfig(
                band_set=config.band_set,
                mode=Mode.REFLECTANCE,
                mixture=MixtureSpec.pure(material),
                illumination=config.illumination,
                noise=config.noise,
                width=config.width,
                height=config.height,
                rng_seed=_seed(master_seed, sid),
                band_gains=gains,
                label=Label.color(class_id),
            )
            samples.append(render(scene, sample_id=sid))
    return tuple(samples)


def generate_case_study(
    kind: StudyKind, config: CaseStudyConfig | None = None, master_seed: int = 0
) -> StudyDataset:
    """Generate one case-study dataset deterministically from the master seed.

    Turmeric yields paired reflectance+transmittance samples per replicate
    (same preparation, so the same jittered mixture feeds both modes);
    coconut oil is transmittance-only; the color chart reflectance-only.
    """
    config = CaseStudyConfig.for_kind(kind) if config is None else config
    if config.kind is not kind:
        raise ValidationError(f"config is for {config.kind}, requested {kind}")
    if kind is StudyKind.TURMERIC:
        refl, trans = _adulteration_samples(
            config, master_seed, materials.TURMERIC, materials.RICE_FLOUR
        )
        return StudyDataset(kind=kind, reflectance=refl, transmittance=trans)
    if kind is StudyKind.COCONUT_OIL:
        _, trans = _adulteration_samples(
            config, master_seed, materials.COCONUT_OIL, materials.PALM_OIL
        )
        return StudyDataset(kind=kind, transmittance=trans)
    samples = _color_chart_samples(config, master_seed)
    return StudyDataset(kind=kind, reflectance=samples)


def render_white_reference(
    config: CaseStudyConfig, mode: Mode, master_seed: int = 0
) -> Sample:
    """Uniform white capture under the study's device settings.

    This is the reference the correction pipeline is fitted on; it shares
    the study's illumination profile, noise model and band set.
    """
    scene = SceneConfig(
        band_set=config.band_set,
        mode=mode,
        mixture=MixtureSpec.pure(materials.WHITE_REFERENCE),
        illumination=config.illumination,
        noise=config.noise,
        width=config.width,
        height=config.height,
        rng_seed=_seed(master_seed, "white", mode.value),
        label=Label.adulteration(0.0),
    )
    return render(scene, sample_id=f"white-{mode.value}")
