"""Deterministic synthetic acquisition: device model plus specimen optics.

Stands in for the physical illumination chamber so the whole analysis
chain can run on a desk.  The forward model reproduces the artifacts the
correction pipeline exists to remove: a slope-shaped illumination bias,
dark current, LED emission overlap, per-capture intensity drift and
sensor saturation.

Everything is a pure function of its config and seed.  Noise streams are
drawn from counter-based (Philox) generators keyed by a stable hash of
(master seed, sample, band), so outputs are bit-identical regardless of
evaluation order or parallelism.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .core import (
    BandSet,
    Label,
    Mode,
    Sample,
    SpectralCube,
    RAW_MAX,
)
from .errors import ValidationError, check_number

LN2 = float(np.log(2.0))


def stream(*key_parts) -> np.random.Generator:
    """Independent RNG stream keyed by a stable hash of the arguments.

    Philox is counter-based, so streams derived from distinct keys are
    statistically independent and reproducible across platforms.
    """
    digest = hashlib.blake2b(
        "/".join(str(p) for p in key_parts).encode("utf-8"), digest_size=16
    ).digest()
    key = np.frombuffer(digest, dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class LedSpec:
    """Gaussian emission model of one narrowband LED."""

    peak_nm: int
    fwhm_nm: float
    relative_power: float = 1.0

    def __post_init__(self):
        check_number("fwhm_nm", self.fwhm_nm, 0, strict=True)
        check_number("relative_power", self.relative_power, 0, strict=True)


def led_emission(led: LedSpec, wavelength_nm) -> np.ndarray | float:
    """Relative emitted intensity of ``led`` at the given wavelength(s).

    Gaussian in wavelength with the stated full width at half maximum;
    the value at the peak equals ``relative_power``.
    """
    lam = np.asarray(wavelength_nm, dtype=np.float64)
    out = led.relative_power * np.exp(
        -4.0 * LN2 * ((lam - led.peak_nm) / led.fwhm_nm) ** 2
    )
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class Curve:
    """Piecewise-linear spectral curve over wavelength (nm), edge-clamped."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pts = tuple((float(x), float(y)) for x, y in self.points)
        if len(pts) < 1:
            raise ValidationError("curve needs at least one control point")
        if any(b[0] <= a[0] for a, b in zip(pts, pts[1:])):
            raise ValidationError("curve control points must have increasing wavelength")
        object.__setattr__(self, "points", pts)

    def __call__(self, wavelength_nm) -> np.ndarray:
        xs = np.array([p[0] for p in self.points])
        ys = np.array([p[1] for p in self.points])
        return np.interp(np.asarray(wavelength_nm, dtype=np.float64), xs, ys)

    @classmethod
    def constant(cls, value: float) -> "Curve":
        return cls(((350.0, value), (960.0, value)))


@dataclass(frozen=True)
class MaterialSpec:
    """Optical stand-in for one ingredient.

    ``reflectance`` is the per-wavelength albedo in [0, 1];
    ``absorbance`` the per-wavelength absorption coefficient (per unit
    optical depth) used by the transmittance model.
    """

    name: str
    reflectance: Curve
    absorbance: Curve

    def __post_init__(self):
        grid = np.arange(350.0, 961.0)
        alb = self.reflectance(grid)
        if alb.min() < 0.0 or alb.max() > 1.0:
            raise ValidationError(f"{self.name}: albedo must stay within [0, 1]")
        a = self.absorbance(grid)
        if not np.all(np.isfinite(a)) or a.min() < 0.0:
            raise ValidationError(f"{self.name}: absorbance must be finite and >= 0")


@dataclass(frozen=True)
class MixtureSpec:
    """Weighted blend of materials with an optical path depth.

    Reflectance mixes albedo linearly in fraction; transmittance follows
    Beer-Lambert with fraction-weighted absorbances over ``depth``.
    """

    components: tuple[tuple[MaterialSpec, float], ...]
    depth: float = 1.0

    def __post_init__(self):
        comps = tuple((m, float(check_number("fraction", f, 0, 1))) for m, f in self.components)
        if not comps:
            raise ValidationError("mixture needs at least one component")
        total = sum(f for _, f in comps)
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"fractions must sum to 1 (got {total!r})")
        check_number("depth", self.depth, 0, strict=True)
        object.__setattr__(self, "components", comps)

    def albedo(self, wavelength_nm) -> np.ndarray:
        lam = np.asarray(wavelength_nm, dtype=np.float64)
        out = np.zeros_like(lam, dtype=np.float64)
        for material, fraction in self.components:
            out += fraction * material.reflectance(lam)
        return out

    def transmission(self, wavelength_nm) -> np.ndarray:
        lam = np.asarray(wavelength_nm, dtype=np.float64)
        total_absorbance = np.zeros_like(lam, dtype=np.float64)
        for material, fraction in self.components:
            total_absorbance += fraction * material.absorbance(lam)
        return np.exp(-total_absorbance * self.depth)

    @classmethod
    def pure(cls, material: MaterialSpec, depth: float = 1.0) -> "MixtureSpec":
        return cls(((material, 1.0),), depth=depth)

    @classmethod
    def binary(
        cls, base: MaterialSpec, adulterant: MaterialSpec, fraction: float, depth: float = 1.0
    ) -> "MixtureSpec":
        """Base material adulterated by ``fraction`` (in [0, 1]) of the other."""
        return cls(((base, 1 - fraction), (adulterant, fraction)), depth=depth)


def _trapezoid(y: np.ndarray, x: np.ndarray) -> float:
    """The trapezoid rule, in the arithmetic of ``scipy.integrate.trapezoid``.

    Importing ``scipy.integrate`` also loads ``scipy.optimize`` and
    ``scipy.sparse.linalg``, which every CLI process would pay for.
    """
    return ((x[1:] - x[:-1]) * (y[1:] + y[:-1]) / 2.0).sum()


def effective_band_response(mixture: MixtureSpec, led: LedSpec, mode: Mode) -> float:
    """Emission-weighted specimen response for one band, in [0, 1].

    Trapezoid rule on a 1 nm grid spanning peak +/- 3 FWHM; the LED power
    cancels out of the ratio, so this is purely the specimen response as
    seen through the LED's emission profile.
    """
    half = 3.0 * led.fwhm_nm
    lam = np.arange(led.peak_nm - half, led.peak_nm + half + 0.5)
    weights = led_emission(led, lam)
    if mode is Mode.REFLECTANCE:
        signal = mixture.albedo(lam)
    else:
        signal = mixture.transmission(lam)
    return float(_trapezoid(weights * signal, lam) / _trapezoid(weights, lam))


@dataclass(frozen=True)
class IlluminationProfile:
    """Spatial intensity map of the panel across the frame.

    map(x, y) = base * (1 + tilt_x*(x-cx)/W + tilt_y*(y-cy)/H)
                     * exp(-radial_falloff * r^2)

    with r measured in frame-normalized units from the center, so the same
    profile describes any resolution.  The map must stay positive over the
    whole frame.
    """

    tilt_x: float = 0.15
    tilt_y: float = 0.10
    radial_falloff: float = 0.713
    center: tuple[float, float] | None = None
    base: float = 0.75

    def __post_init__(self):
        check_number("radial_falloff", self.radial_falloff, 0)
        check_number("base", self.base, 0, 1, strict=True)

    def map(self, width: int, height: int) -> np.ndarray:
        cx, cy = self.center if self.center is not None else ((width - 1) / 2.0, (height - 1) / 2.0)
        x = (np.arange(width) - cx) / width
        y = (np.arange(height) - cy) / height
        xx, yy = np.meshgrid(x, y)
        tilt = 1.0 + self.tilt_x * xx + self.tilt_y * yy
        falloff = np.exp(-self.radial_falloff * (xx**2 + yy**2))
        out = self.base * tilt * falloff
        if out.min() <= 0.0:
            raise ValidationError("illumination map must be positive everywhere")
        return out

    @classmethod
    def flat(cls, base: float = 0.5) -> "IlluminationProfile":
        return cls(tilt_x=0.0, tilt_y=0.0, radial_falloff=0.0, base=base)

    @classmethod
    def corner_ratio(cls, ratio: float, base: float = 0.75) -> "IlluminationProfile":
        """Pure radial profile whose corner/peak intensity ratio is ``ratio``."""
        check_number("ratio", ratio, 0, 1, strict=True)
        # corner sits at normalized r^2 = 0.5
        return cls(tilt_x=0.0, tilt_y=0.0, radial_falloff=-2.0 * float(np.log(ratio)), base=base)


@dataclass(frozen=True)
class NoiseSpec:
    """Sensor and specimen noise model.

    ``dark_mean``/``dark_sd`` are dark-current counts; ``shot_sd_fraction``
    is per-pixel relative shot noise; ``drift_amplitude`` bounds the
    multiplicative temporal drift of repeat series.  The texture terms
    model specimen non-uniformity (powder packing, local concentration) as
    multiplicative fields drawn at ``texture_block`` resolution: one field
    shared by all bands plus a smaller independent field per band.
    """

    dark_mean: float = 80.0
    dark_sd: float = 8.0
    shot_sd_fraction: float = 0.01
    drift_amplitude: float = 0.0441
    texture_shared_sd: float = 0.015
    texture_band_sd: float = 0.005
    texture_block: int = 10

    def __post_init__(self):
        for name in ("dark_mean", "dark_sd", "shot_sd_fraction", "drift_amplitude",
                     "texture_shared_sd", "texture_band_sd"):
            object.__setattr__(self, name, check_number(name, getattr(self, name), 0))
        check_number("texture_block", self.texture_block, 1, integer=True)

    @classmethod
    def none(cls) -> "NoiseSpec":
        return cls(
            dark_mean=0.0,
            dark_sd=0.0,
            shot_sd_fraction=0.0,
            drift_amplitude=0.0,
            texture_shared_sd=0.0,
            texture_band_sd=0.0,
        )


#: Per-LED emission defaults: visible FWHMs 20-35 nm, NIR 40-50 nm, with
#: deliberately unequal powers so the spectral balancing step has real
#: work to do.
DEFAULT_LEDS: Mapping[int, LedSpec] = {
    365: LedSpec(365, 20.0, 0.60),
    405: LedSpec(405, 22.0, 0.80),
    428: LedSpec(428, 24.0, 0.70),
    473: LedSpec(473, 26.0, 0.90),
    530: LedSpec(530, 30.0, 1.00),
    575: LedSpec(575, 32.0, 0.65),
    621: LedSpec(621, 32.0, 0.72),
    660: LedSpec(660, 34.0, 0.78),
    735: LedSpec(735, 40.0, 0.62),
    770: LedSpec(770, 42.0, 0.86),
    830: LedSpec(830, 44.0, 0.95),
    850: LedSpec(850, 45.0, 0.90),
    890: LedSpec(890, 48.0, 0.80),
    940: LedSpec(940, 50.0, 0.70),
}


@dataclass(frozen=True)
class SceneConfig:
    """Everything needed to render one capture deterministically, and the
    id of the sample it renders."""

    band_set: BandSet
    mode: Mode
    mixture: MixtureSpec
    illumination: IlluminationProfile = IlluminationProfile()
    noise: NoiseSpec = NoiseSpec()
    width: int = 100
    height: int = 100
    rng_seed: int = 0
    leds: Mapping[int, LedSpec] = field(default_factory=lambda: dict(DEFAULT_LEDS))
    band_gains: Mapping[int, float] | None = None
    label: Label | None = None
    sample_id: str | None = None

    def __post_init__(self):
        check_number("width", self.width, 1, integer=True)
        check_number("height", self.height, 1, integer=True)
        missing = [wl for wl in self.band_set if wl not in self.leds]
        if missing:
            raise ValidationError(f"no LED spec for bands {missing}")


def render(scene: SceneConfig, intensity_scale: float = 1.0) -> Sample:
    """Render one sample from a scene config, named ``scene.sample_id``
    (``scene-<seed>`` when the scene has none).

    Per band: counts = clamp(round(65535 * power_b * response_b * gain_b *
    illum * (1 + texture) * (1 + shot)) + dark, 0, 65535) where
    ``response_b`` is the effective band response, ``power_b`` the LED's
    relative power and ``gain_b`` an optional per-capture drive factor.
    The dark frame holds dark noise only and is the exact array added to
    every band, so dark subtraction is unbiased.
    """
    illum = scene.illumination.map(scene.width, scene.height) * float(intensity_scale)
    shape = (scene.height, scene.width)
    noise = scene.noise

    dark_rng = stream(scene.rng_seed, "dark")
    dark_counts = dark_rng.normal(noise.dark_mean, noise.dark_sd, shape)
    dark = np.clip(np.rint(dark_counts), 0, RAW_MAX).astype(np.int64)

    def texture_field(rng: np.random.Generator) -> np.ndarray:
        block = noise.texture_block
        coarse = rng.normal(0.0, 1.0, (-(-scene.height // block), -(-scene.width // block)))
        full = np.repeat(np.repeat(coarse, block, axis=0), block, axis=1)
        return full[: scene.height, : scene.width]

    shared_texture = (
        noise.texture_shared_sd * texture_field(stream(scene.rng_seed, "texture"))
        if noise.texture_shared_sd > 0
        else 0.0
    )

    frames = []
    for index, wl in enumerate(scene.band_set):
        led = scene.leds[wl]
        response = effective_band_response(scene.mixture, led, scene.mode)
        gain = 1.0 if scene.band_gains is None else float(scene.band_gains.get(wl, 1.0))
        band_rng = stream(scene.rng_seed, "band", index, wl)
        shot = band_rng.normal(0.0, 1.0, shape)
        texture = shared_texture
        if noise.texture_band_sd > 0:
            texture = texture + noise.texture_band_sd * texture_field(
                stream(scene.rng_seed, "band-texture", index, wl)
            )
        with np.errstate(over="ignore", invalid="ignore"):  # rejected below
            signal = RAW_MAX * led.relative_power * response * gain * illum
            signal = signal * (1.0 + texture) * (1.0 + noise.shot_sd_fraction * shot)
        frames.append(np.rint(signal))

    signal = np.stack(frames)
    if not np.isfinite(signal).all():
        raise ValidationError("the rendered signal is not finite")
    # whole counts add exactly in float64 below 2**53, and a sum beyond
    # that saturates either way: no integer cast, so nothing wraps
    counts = np.clip(signal + dark, 0, RAW_MAX)
    cube = SpectralCube(
        values=counts.astype(np.uint16),
        dark=dark.astype(np.uint16),
        mode=scene.mode,
        band_set=scene.band_set,
    )
    label = scene.label if scene.label is not None else Label.adulteration(0.0)
    sid = f"scene-{scene.rng_seed & 0xFFFFFFFFFFFFFFFF:016x}" if scene.sample_id is None else scene.sample_id
    return Sample(id=sid, cube=cube, label=label)


def render_repeat_series(scene: SceneConfig, n_times: int) -> list[Sample]:
    """Render the same scene ``n_times`` with multiplicative temporal drift.

    Capture k, named ``repeat-<k>``, is scaled by (1 + a*u_k) with
    u_k ~ uniform[-1, 1] from the scene's seeded drift stream, and
    a = ``scene.noise.drift_amplitude``.
    """
    check_number("n_times", n_times, 2, integer=True)
    amplitude = scene.noise.drift_amplitude
    u = stream(scene.rng_seed, "drift").uniform(-1.0, 1.0, n_times)
    return [
        render(replace(scene, sample_id=f"repeat-{k:03d}"), intensity_scale=1.0 + amplitude * u[k])
        for k in range(n_times)
    ]
