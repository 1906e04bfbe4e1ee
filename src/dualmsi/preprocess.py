"""Correction chain: dark current, flat-field, spectral balance, bilateral.

The fixed stage order is crop -> dark subtraction -> spatial gain ->
spectral gain -> bilateral filter.  Gains are fitted once on a uniform
white reference and are immutable afterwards; every function here is pure,
so samples can be processed in parallel.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np
from scipy.ndimage import uniform_filter

from .core import RAW_MAX, Sample, SpectralCube, crop
from .errors import DegenerateReferenceError, DimensionMismatchError, ValidationError


class SaturationClipWarning(UserWarning):
    """Spectral gain pushed pixels above 1.0; they were clamped."""


def subtract_dark(cube: SpectralCube) -> SpectralCube:
    """Dark-subtract and normalize a raw cube to float frames in [0, 1].

    out = max(0, raw - dark) / 65535 per band; the output cube's dark
    frame is all zeros.
    """
    if not cube.is_raw:
        raise ValidationError("subtract_dark expects a raw cube")
    lifted = cube.values.astype(np.int64) - cube.dark.astype(np.int64)
    values = np.maximum(lifted, 0).astype(np.float64) / RAW_MAX
    return replace(cube, values=values, dark=np.zeros(cube.dark.shape))


@dataclass(frozen=True)
class SpatialGain:
    """Per-band multiplicative gain maps fitted from a white reference.

    ``flags`` marks pixels whose reference response fell below the floor;
    their gains are capped and they are excluded from spectral statistics.
    """

    gains: Mapping[int, np.ndarray]
    flags: Mapping[int, np.ndarray]
    window: int
    floor: float

    def __post_init__(self):
        object.__setattr__(self, "gains", dict(self.gains))
        object.__setattr__(self, "flags", dict(self.flags))


@dataclass(frozen=True)
class SpectralGain:
    """Per-band scalar balance factors (all >= 1, max-referenced)."""

    scale: Mapping[int, float]

    def __post_init__(self):
        scale = {int(wl): float(c) for wl, c in self.scale.items()}
        if any(not np.isfinite(c) or c <= 0 for c in scale.values()):
            raise ValidationError("spectral gains must be positive and finite")
        object.__setattr__(self, "scale", scale)


def fit_spatial_gain(white_cube: SpectralCube, window: int = 11, floor: float = 0.05) -> SpatialGain:
    """Fit flat-field gain maps from a dark-subtracted white capture.

    Each band is box-smoothed (edge-replicated) and the gain is the ratio
    of the smoothed maximum to the local smoothed response.  Pixels whose
    response is below ``floor`` of the maximum get their gain capped at
    1/floor and are flagged as unreliable.
    """
    if white_cube.is_raw:
        raise ValidationError("fit_spatial_gain expects a dark-subtracted float cube")
    if window < 1 or window % 2 == 0:
        raise ValidationError(f"smoothing window must be odd and >= 1: {window}")
    # size 1 along the band axis: each band is smoothed on its own
    smooth = uniform_filter(white_cube.values, size=(1, window, window), mode="nearest")
    peak = smooth.max(axis=(1, 2), keepdims=True)
    for wl, band_peak in zip(white_cube.band_set, peak.ravel()):
        if band_peak <= 0.0:
            raise DegenerateReferenceError(f"white reference band {wl} nm is all zero")
    low = smooth < floor * peak
    gain = peak / np.where(low, floor * peak, smooth)
    bands = white_cube.band_set
    return SpatialGain(
        gains=dict(zip(bands, gain)), flags=dict(zip(bands, low)), window=window, floor=floor
    )


def _in_band_order(table: Mapping[int, object], cube: SpectralCube, what: str) -> list:
    """The entries of a wavelength-keyed ``table`` in the cube's band-set order."""
    for wl in cube.band_set:
        if wl not in table:
            raise ValidationError(f"{what} for band {wl} nm")
    return [table[wl] for wl in cube.band_set]


def apply_spatial_gain(cube: SpectralCube, gain: SpatialGain) -> SpectralCube:
    """Multiply each band by its gain map, clamped to [0, 1]."""
    if cube.is_raw:
        raise ValidationError("apply_spatial_gain expects a float cube")
    gains = _in_band_order(gain.gains, cube, "spatial gain has no map")
    for wl, band_gain in zip(cube.band_set, gains):
        if band_gain.shape != cube.dark.shape:
            raise DimensionMismatchError(
                f"gain map for {wl} nm is {band_gain.shape}, cube is {cube.dark.shape}"
            )
    return replace(cube, values=np.clip(cube.values * np.stack(gains), 0.0, 1.0))


def fit_spectral_gain(white_cube: SpectralCube, spatial: SpatialGain | None = None) -> SpectralGain:
    """Fit per-band balance factors from a spatially corrected white capture.

    The factor for a band is max(mean response over bands) / this band's
    mean response, computed over unflagged pixels when flags are given.
    """
    if white_cube.is_raw:
        raise ValidationError("fit_spectral_gain expects a float cube")
    means = {}
    for wl in white_cube.band_set:
        values = white_cube.frame(wl)
        if spatial is not None and wl in spatial.flags:
            good = ~spatial.flags[wl]
            values = values[good] if good.any() else values
        mean = float(values.mean())
        if mean <= 0.0:
            raise DegenerateReferenceError(f"white reference band {wl} nm has zero mean")
        means[wl] = mean
    top = max(means.values())
    return SpectralGain(scale={wl: top / m for wl, m in means.items()})


def apply_spectral_gain(cube: SpectralCube, gain: SpectralGain) -> SpectralCube:
    """Scale each band by its balance factor, clamping to 1.0 with a warning."""
    if cube.is_raw:
        raise ValidationError("apply_spectral_gain expects a float cube")
    scale = np.array(_in_band_order(gain.scale, cube, "spectral gain has no factor"))
    scaled = cube.values * scale[:, None, None]
    clipped = int((scaled > 1.0).sum())
    if clipped:
        warnings.warn(
            f"spectral gain clamped {clipped} pixels at 1.0", SaturationClipWarning
        )
    return replace(cube, values=np.minimum(scaled, 1.0))


def bilateral_filter(
    values: np.ndarray, sigma_s: float = 2.0, sigma_r: float = 0.1, window: int = 5
) -> np.ndarray:
    """Edge-preserving smoothing of one frame.

    Each output pixel is the weighted mean of its window, with weights
    the product of a spatial Gaussian (sigma_s, in pixels) and a range
    Gaussian on intensity difference (sigma_r).  Edges are replicated.
    Output values stay inside the local input window's [min, max].
    """
    if window < 1 or window % 2 == 0:
        raise ValidationError(f"bilateral window must be odd and >= 1: {window}")
    if sigma_s <= 0 or sigma_r <= 0:
        raise ValidationError("bilateral sigmas must be positive")
    frame = np.asarray(values, dtype=np.float64)
    half = window // 2
    padded = np.pad(frame, half, mode="edge")
    # accumulate weighted differences from the center pixel: the result is
    # frame + num/den, which leaves a constant frame bit-exactly unchanged
    num = np.zeros_like(frame)
    den = np.zeros_like(frame)
    h, w = frame.shape
    for dy in range(-half, half + 1):
        for dx in range(-half, half + 1):
            shifted = padded[half + dy : half + dy + h, half + dx : half + dx + w]
            spatial = np.exp(-(dx * dx + dy * dy) / (2.0 * sigma_s**2))
            delta = shifted - frame
            weight = spatial * np.exp(-(delta**2) / (2.0 * sigma_r**2))
            num += weight * delta
            den += weight
    return frame + num / den


@dataclass(frozen=True)
class BilateralOptions:
    window: int = 5
    sigma_s: float = 2.0
    sigma_r: float = 0.1


@dataclass(frozen=True)
class PipelineOptions:
    """Which stages run; the order itself is fixed.

    Spectral balancing defaults ON for reflectance and OFF for
    transmittance, where near-saturated bands make extra spectral
    correction counterproductive for transparent liquids.
    """

    crop: tuple[int, int, int, int] | None = None
    dark: bool = True
    spatial: bool = True
    spectral: bool | None = None
    bilateral: BilateralOptions | None = BilateralOptions()

    def spectral_enabled(self, mode) -> bool:
        from .core import Mode

        if self.spectral is None:
            return mode is Mode.REFLECTANCE
        return self.spectral

    @classmethod
    def disabled(cls) -> "PipelineOptions":
        return cls(crop=None, dark=False, spatial=False, spectral=False, bilateral=None)


@dataclass(frozen=True)
class Corrections:
    """Fitted gains bundle passed to the pipeline."""

    spatial: SpatialGain | None = None
    spectral: SpectralGain | None = None


def fit_corrections(
    white_sample: Sample, window: int = 11, floor: float = 0.05
) -> Corrections:
    """Fit both gains from one raw white capture (dark-subtract, then fit)."""
    white = subtract_dark(white_sample.cube)
    spatial = fit_spatial_gain(white, window=window, floor=floor)
    flattened = apply_spatial_gain(white, spatial)
    spectral = fit_spectral_gain(flattened, spatial)
    return Corrections(spatial=spatial, spectral=spectral)


def quantize_sample(sample: Sample) -> Sample:
    """Re-quantize a preprocessed float sample to 16-bit for disk storage.

    Lossy (float precision is rounded to counts); the dark frame becomes
    all-zero since dark subtraction already happened.
    """
    cube = sample.cube
    if cube.is_raw:
        return sample
    values = np.rint(np.clip(cube.values, 0.0, 1.0) * RAW_MAX).astype(np.uint16)
    return Sample(
        id=sample.id,
        cube=replace(cube, values=values, dark=np.zeros(cube.dark.shape, dtype=np.uint16)),
        label=sample.label,
        provenance=sample.provenance + ("quantize",),
    )


def preprocess_pipeline(
    sample: Sample, corrections: Corrections | None, options: PipelineOptions
) -> Sample:
    """Run the enabled stages in fixed order and record them in provenance.

    Even with every stage disabled the output cube is float-normalized
    (raw/65535), so downstream feature code sees one numeric domain.
    """
    corrections = corrections or Corrections()
    cube = sample.cube
    applied: list[str] = []

    if options.crop is not None:
        x, y, w, h = options.crop
        cube = crop(cube, x, y, w, h)
        applied.append(f"crop({x},{y},{w},{h})")

    if options.dark:
        cube = subtract_dark(cube)
        applied.append("dark")
    elif cube.is_raw:
        values = cube.values.astype(np.float64) / RAW_MAX
        cube = replace(cube, values=values, dark=np.zeros(cube.dark.shape))

    if options.spatial:
        if corrections.spatial is None:
            raise ValidationError("spatial stage enabled but no spatial gain fitted")
        cube = apply_spatial_gain(cube, corrections.spatial)
        applied.append("spatial")

    if options.spectral_enabled(cube.mode):
        if corrections.spectral is None:
            raise ValidationError("spectral stage enabled but no spectral gain fitted")
        cube = apply_spectral_gain(cube, corrections.spectral)
        applied.append("spectral")

    if options.bilateral is not None:
        opts = options.bilateral
        filtered = [
            bilateral_filter(v, opts.sigma_s, opts.sigma_r, opts.window) for v in cube.values
        ]
        cube = replace(cube, values=np.stack(filtered))
        applied.append(f"bilateral(w={opts.window},ss={opts.sigma_s},sr={opts.sigma_r})")

    return Sample(
        id=sample.id,
        cube=cube,
        label=sample.label,
        provenance=sample.provenance + tuple(applied),
    )
