"""Case-study dataset generators built on the scene renderer.

Three fixtures mirror the validation experiments: turmeric powder
adulterated with rice flour (both modes, paired per replicate for merged
analysis), coconut oil adulterated with palm oil (transmittance only),
and a 24-color calibration chart (reflectance only).  Everything that
differs between them lives in one table, :data:`STUDIES`: each study's
modes, specimen, config defaults and analysis.

Replicate-to-replicate nuisance variation is modeled explicitly: small
fraction errors from sample preparation, pour-depth variation for
dissolved/liquid specimens, and per-capture LED drive drift (each band is
a separate exposure).  These magnitudes are fixture calibration, not
measured device values.

A study is a pure function of its config, which names its kind, and a
master seed.  It is first planned: :func:`plan_case_study` lists the
scene of every capture (sample id, label and mode included) without
rendering, which costs next to nothing.  :func:`generate_case_study`
renders the whole plan and holds every raw cube; a caller that needs one
sample at a time, as ``harness.run_case_study`` and the ``synth`` command
do, renders the scenes in turn and drops each cube before rendering the
next, with the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path

import numpy as np

from . import materials
from .core import Label, Mode, Sample, save_dataset
from .errors import ValidationError, check_number
from .jsonio import json_call, json_value
from .synth import Device, MaterialSpec, MixtureSpec, SceneConfig, render, stream


class StudyKind(Enum):
    TURMERIC = "turmeric"
    COCONUT_OIL = "coconut_oil"
    COLOR_CHART = "color_chart"


@dataclass(frozen=True)
class StudySpec:
    """One case study: what it captures, and how it is analysed.

    Each replicate is captured in every one of ``modes``, in that order.
    ``mixture`` is the base material and adulterant of an adulteration
    study, None for the colour chart.  ``defaults`` holds the
    ``CaseStudyConfig`` fields whose values differ from the field defaults.

    Accuracy tables are keyed variant -> matrix -> projection, leaving out
    every axis with a single entry.  ``scatter_key``/``loadings_key`` name
    the report entries taken from the corrected LDA run on the last matrix;
    ``kl_band`` adds the KL curve and functional map computed on that
    band's column of the corrected transmittance matrix.
    """

    modes: tuple[Mode, ...]
    mixture: tuple[MaterialSpec, MaterialSpec] | None
    defaults: dict[str, object]
    split_tag: str
    variants: tuple[str, ...] = ("corrected",)
    projections: tuple[str, ...] = ("LDA",)
    classifiers: tuple[str, ...] | None = None  # None: all five
    scatter_key: str | None = None
    loadings_key: str | None = None
    kl_band: int | None = None


STUDIES: dict[StudyKind, StudySpec] = {
    StudyKind.TURMERIC: StudySpec(
        modes=(Mode.REFLECTANCE, Mode.TRANSMITTANCE),
        mixture=(materials.TURMERIC, materials.RICE_FLOUR),
        defaults=dict(replicates=9),
        split_tag="turmeric-split",
        variants=("corrected", "uncorrected"),
        scatter_key="merged_lda_scatter",
        loadings_key="merged_lda_loadings",
    ),
    StudyKind.COCONUT_OIL: StudySpec(
        modes=(Mode.TRANSMITTANCE,),
        mixture=(materials.COCONUT_OIL, materials.PALM_OIL),
        defaults=dict(replicates=8, depth_jitter_sd=0.005, trans_scale_jitter_sd=0.004,
                      trans_tilt_jitter_sd=0.003, trans_band_jitter_sd=0.002),
        split_tag="oil-split",
        classifiers=("logistic", "knn", "svm", "decision_tree"),
        # The divergence curve is built on a single mid-contrast band
        # rather than the leading LDA component: on this fixture the
        # discriminant axis separates levels so completely that their
        # distributions share no support with the reference, and the
        # divergence of disjoint smoothed histograms collapses to one
        # constant.  A band with moderate absorbance contrast keeps the
        # distributions overlapping, so the divergence grows smoothly with
        # adulteration.
        kl_band=621,
    ),
    StudyKind.COLOR_CHART: StudySpec(
        modes=(Mode.REFLECTANCE,),
        mixture=None,
        defaults=dict(replicates=4, refl_scale_jitter_sd=0.02, refl_tilt_jitter_sd=0.012),
        split_tag="chart-split",
        projections=("PCA", "LDA"),
        scatter_key="lda_scatter",
    ),
}


ADULTERATION_LEVELS = tuple(float(p) for p in range(0, 41, 5))


@dataclass(frozen=True)
class CaseStudyConfig(Device):
    """Knobs for one synthetic case study: the capture settings it
    inherits from ``Device``, set by keyword, and the study's own;
    per-kind defaults via ``for_kind``."""

    kind: StudyKind
    replicates: int
    levels: tuple[float, ...] = ADULTERATION_LEVELS
    n_classes: int = 24
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

    def __post_init__(self):
        for name in (f.name for f in fields(self) if f.name.endswith("_jitter_sd")):
            object.__setattr__(self, name, check_number(name, getattr(self, name), 0))
        for level in self.levels:
            check_number("levels", level, 0, 100)
        if len({int(level) for level in self.levels}) != len(self.levels):
            # a sample id holds int(level), so two such levels would share ids
            raise ValidationError(f"no two levels may share a whole percent, got {list(self.levels)}")
        check_number("replicates", self.replicates, 1, integer=True)
        check_number("depth", self.depth, 0, strict=True)
        if STUDIES[self.kind].mixture is None:
            check_number("n_classes", self.n_classes, 1, materials.PALETTE_SIZE, integer=True)
        elif len(self.levels) < 2:
            raise ValidationError("adulteration study needs at least 2 levels")
        super().__post_init__()

    def drift_sd(self, mode: Mode) -> tuple[float, float, float]:
        """The (scale, tilt, white residue) drift sds of a capture in ``mode``."""
        if mode is Mode.REFLECTANCE:
            return self.refl_scale_jitter_sd, self.refl_tilt_jitter_sd, self.refl_band_jitter_sd
        return self.trans_scale_jitter_sd, self.trans_tilt_jitter_sd, self.trans_band_jitter_sd

    @classmethod
    def for_kind(cls, kind: StudyKind, **overrides) -> "CaseStudyConfig":
        return cls(kind=kind, **{**STUDIES[kind].defaults, **overrides})

    @classmethod
    def from_json(cls, kind: StudyKind, obj: dict) -> "CaseStudyConfig":
        """The ``kind`` defaults with every field that ``obj`` names read
        from JSON and type-checked.  A key that names no field, or a
        ``kind`` other than ``kind`` itself, raises ValidationError."""
        obj = dict(obj)
        given = json_value(StudyKind, obj.pop("kind", kind.value), "study kind")
        if given is not kind:
            raise ValidationError(f"config is for the {given.value} study, not {kind.value}")
        return json_call(cls, {**STUDIES[kind].defaults, **obj}, "study config", kind)


@dataclass(frozen=True)
class StudyDataset:
    """Generated samples per mode; paired studies share sample ids across modes."""

    kind: StudyKind
    reflectance: tuple[Sample, ...] = ()
    transmittance: tuple[Sample, ...] = ()


def derive_seed(*parts) -> int:
    """A seed in [0, 2**63 - 1) drawn from the stream that ``parts`` name."""
    return int(stream(*parts).integers(0, 2**63 - 1))


def _band_gains(rng: np.random.Generator, config: CaseStudyConfig, mode: Mode) -> tuple[float, ...]:
    """Per-capture LED drive drift in ``mode``, in band-set order: global
    scale x spectral tilt x white residue."""
    scale_sd, tilt_sd, white_sd = config.drift_sd(mode)
    wls = np.array(list(config.band_set), dtype=np.float64)
    x = 2.0 * (wls - wls.mean()) / (wls.max() - wls.min() or 1.0)
    scale = 1.0 + scale_sd * rng.normal()
    tilt = 1.0 + tilt_sd * rng.normal() * x
    white = 1.0 + white_sd * rng.normal(size=wls.size)
    return tuple((scale * tilt * white).tolist())


def _adulteration_captures(config: CaseStudyConfig, master_seed: int, spec: StudySpec) -> list[SceneConfig]:
    base, adulterant = spec.mixture
    captures = []
    for li, level in enumerate(config.levels):
        for rep in range(config.replicates):
            sid = f"{config.kind.value}-{int(level):02d}-r{rep:02d}"
            rng = stream(master_seed, config.kind.value, li, rep, "jitter")
            fraction = float(np.clip(level / 100.0 + rng.normal(0.0, config.fraction_jitter_sd), 0.0, 1.0))
            depth = config.depth * (1.0 + rng.normal(0.0, config.depth_jitter_sd))
            # one preparation feeds every mode; reflectance reads no depth
            mixture = MixtureSpec.binary(base, adulterant, fraction, depth=max(depth, 1e-6))
            # both modes' drifts are drawn, reflectance first, whatever the
            # study captures: a transmittance-only study keeps its stream order
            gains = {mode: _band_gains(rng, config, mode) for mode in Mode}
            for mode in spec.modes:
                captures.append(config.scene(mode, mixture, derive_seed(master_seed, sid, mode.tag),
                                             band_gains=gains[mode], label=Label.adulteration(level),
                                             sample_id=sid))
    return captures


def _color_chart_captures(config: CaseStudyConfig, master_seed: int, spec: StudySpec) -> list[SceneConfig]:
    (mode,) = spec.modes  # one mode: a sample's seed names no mode
    captures = []
    for class_id in range(config.n_classes):
        material = materials.color_chart_material(class_id)
        for rep in range(config.replicates):
            sid = f"color-{class_id:02d}-r{rep:02d}"
            rng = stream(master_seed, config.kind.value, class_id, rep, "jitter")
            captures.append(config.scene(mode, MixtureSpec.pure(material), derive_seed(master_seed, sid),
                                         band_gains=_band_gains(rng, config, mode),
                                         label=Label.color(class_id), sample_id=sid))
    return captures


def plan_case_study(config: CaseStudyConfig, master_seed: int = 0) -> tuple[SceneConfig, ...]:
    """The scene of every capture of the ``config.kind`` study, in render
    order, without rendering.

    Each replicate is captured in every mode of its ``STUDIES`` entry, in
    that order: turmeric in reflectance, then transmittance, from one
    preparation (the same jittered mixture feeds both modes); coconut oil
    in transmittance; the color chart in reflectance.  Each scene names
    its sample and renders the same one whenever it is rendered, so a
    caller may render them one at a time and drop each in turn.
    """
    spec = STUDIES[config.kind]
    planner = _color_chart_captures if spec.mixture is None else _adulteration_captures
    return tuple(planner(config, master_seed, spec))


def generate_case_study(config: CaseStudyConfig, master_seed: int = 0) -> StudyDataset:
    """Render the whole plan of the ``config.kind`` study
    (:func:`plan_case_study`) deterministically from the master seed;
    paired studies share sample ids across modes."""
    samples = [render(scene) for scene in plan_case_study(config, master_seed)]
    return StudyDataset(
        kind=config.kind, **{mode.value: tuple(s for s in samples if s.cube.mode is mode) for mode in Mode}
    )


def render_white_reference(device: Device, mode: Mode, master_seed: int = 0) -> Sample:
    """Uniform white capture in ``mode`` under the ``device`` settings.

    This is the reference the correction pipeline is fitted on; it shares
    the device's illumination profile, noise model and band set, so a
    study passes its config.
    """
    scene = device.scene(
        mode,
        MixtureSpec.pure(materials.WHITE_REFERENCE),
        derive_seed(master_seed, "white", mode.value),
        label=Label.adulteration(0.0),
        sample_id=f"white-{mode.value}",
    )
    return render(scene)


# --------------------------------------------------------------------------
# Command handler (``dualmsi synth``, listed in ``cli.COMMANDS``)
# --------------------------------------------------------------------------


def cmd_synth(
    args, out: Path, kind: StudyKind = StudyKind.TURMERIC, **study: CaseStudyConfig
) -> None:
    """Generate a case-study dataset (plus white references) on disk.

    Each mode's captures are rendered and written one at a time."""
    study_config = CaseStudyConfig.from_json(kind, study)
    plan = plan_case_study(study_config, args.seed)
    written = dict.fromkeys(Mode, 0)
    for mode in STUDIES[kind].modes:
        written[mode] = save_dataset((render(s) for s in plan if s.mode is mode), out / mode.value)
        save_dataset([render_white_reference(study_config, mode, args.seed)], out / f"white_{mode.value}")
    print(f"wrote {written[Mode.REFLECTANCE]} reflectance + {written[Mode.TRANSMITTANCE]} "
          f"transmittance samples to {out}")
