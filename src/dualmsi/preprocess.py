"""Correction chain: dark current, flat-field, spectral balance, bilateral.

The fixed stage order is crop -> dark subtraction -> spatial gain ->
spectral gain -> bilateral filter.  Gains are fitted once on a uniform
white reference as arrays in its band-set order, the order of the cube they
correct, and are locked read-only, so immutable afterwards; every function
here is pure, so samples can be processed in parallel.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import RAW_MAX, WORKING_MEMORY, BandSet, Mode, Sample, SpectralCube, crop, load_dataset, save_dataset
from .errors import (
    DegenerateReferenceError,
    DimensionMismatchError,
    ValidationError,
    check_number,
)


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


def box_mean(values: np.ndarray, window: int) -> np.ndarray:
    """Edge-replicated ``window`` x ``window`` box mean over the last two axes.

    Bit-identical to ``scipy.ndimage.uniform_filter`` with
    ``mode="nearest"`` and size 1 on any leading axis, because it repeats
    that filter's arithmetic: rows first, then columns, each as a running
    sum that starts at the sequential sum of the first ``window`` values,
    adds (entering - leaving) at each step and is divided by ``window`` on
    output.  ``cumsum`` adds in sequence, so it runs that loop exactly.
    """
    out = np.array(values, dtype=np.float64)
    if window == 1:
        return out
    before = window // 2
    for axis in (-2, -1):
        pad = [(0, 0)] * out.ndim
        pad[axis] = (before, window - before - 1)
        padded = np.moveaxis(np.pad(out, pad, mode="edge"), axis, 0)
        steps = np.zeros((padded.shape[0] - window + 1, *padded.shape[1:]))
        for entering in padded[:window]:
            steps[0] += entering
        np.subtract(padded[window:], padded[:-window], out=steps[1:])
        out = np.moveaxis(np.cumsum(steps, axis=0, out=steps) / window, 0, axis)
    return out


def fit_spatial_gain(
    white_cube: SpectralCube, window: int = 11, floor: float = 0.05
) -> tuple[np.ndarray, np.ndarray]:
    """Fit flat-field gain maps from a dark-subtracted white capture.

    Each band is box-smoothed (edge-replicated) and the gain is the ratio
    of the smoothed maximum to the local smoothed response.  Pixels whose
    response is below ``floor`` of the maximum get their gain capped at
    1/floor and are flagged as unreliable, to be left out of the spectral
    fit.  Returns the ``(B, h, w)`` gain maps and flags in band-set order.
    """
    if white_cube.is_raw:
        raise ValidationError("fit_spatial_gain expects a dark-subtracted float cube")
    check_number("window", window, 1, integer=True)
    check_number("floor", floor, 0, 1, strict=True)
    if window % 2 == 0:
        raise ValidationError(f"window must be odd, got {window}")
    # each band is smoothed on its own
    smooth = box_mean(white_cube.values, window)
    peak = smooth.max(axis=(1, 2), keepdims=True)
    for wl, band_peak in zip(white_cube.band_set, peak.ravel()):
        if band_peak <= 0.0:
            raise DegenerateReferenceError(f"white reference band {wl} nm is all zero")
    low = smooth < floor * peak
    return peak / np.where(low, floor * peak, smooth), low


def apply_spatial_gain(cube: SpectralCube, gain: np.ndarray) -> SpectralCube:
    """Multiply each band by its map of the ``(B, h, w)`` ``gain``, clamped to [0, 1]."""
    if cube.is_raw:
        raise ValidationError("apply_spatial_gain expects a float cube")
    if gain.shape != cube.values.shape:
        raise DimensionMismatchError(f"gain maps are {gain.shape}, cube is {cube.values.shape}")
    return replace(cube, values=np.clip(cube.values * gain, 0.0, 1.0))


def fit_spectral_gain(white_cube: SpectralCube, flags: np.ndarray | None = None) -> np.ndarray:
    """Fit the ``(B,)`` balance factors, in band-set order, from a
    spatially corrected white capture.

    The factor for a band is max(mean response over bands) / this band's
    mean response, computed over the pixels not in the ``(B, h, w)``
    ``flags`` of :func:`fit_spatial_gain` when they are given.
    """
    if white_cube.is_raw:
        raise ValidationError("fit_spectral_gain expects a float cube")
    if flags is not None and flags.shape != white_cube.values.shape:
        raise DimensionMismatchError(f"flags are {flags.shape}, cube is {white_cube.values.shape}")
    means = []
    for i, (wl, values) in enumerate(zip(white_cube.band_set, white_cube.values)):
        if flags is not None and (good := ~flags[i]).any():
            values = values[good]
        mean = float(values.mean())
        if mean <= 0.0:
            raise DegenerateReferenceError(f"white reference band {wl} nm has zero mean")
        means.append(mean)
    top = max(means)
    return np.array([top / m for m in means])


def apply_spectral_gain(cube: SpectralCube, scale: np.ndarray) -> SpectralCube:
    """Scale each band by its factor of the ``(B,)`` ``scale``, clamping to
    1.0 with a warning."""
    if cube.is_raw:
        raise ValidationError("apply_spectral_gain expects a float cube")
    if scale.shape != (len(cube.band_set),):
        raise DimensionMismatchError(f"{scale.shape} balance factors for {len(cube.band_set)} bands")
    scaled = cube.values * scale[:, None, None]
    clipped = int((scaled > 1.0).sum())
    if clipped:
        warnings.warn(
            f"spectral gain clamped {clipped} pixels at 1.0", SaturationClipWarning
        )
    return replace(cube, values=np.minimum(scaled, 1.0))


# Frame pixels per paired filtering pass: a chunk of this many band pixels
# keeps the per-offset buffers of one pass in cache.
_BILATERAL_CHUNK_PIXELS = 12_000


def bilateral_filter(
    values: np.ndarray, sigma_s: float = 2.0, sigma_r: float = 0.1, window: int = 5
) -> np.ndarray:
    """Edge-preserving smoothing of one ``(h, w)`` frame or each frame of a
    ``(B, h, w)`` stack.

    Each output pixel is the weighted mean of its window, with weights
    the product of a spatial Gaussian (sigma_s, in pixels) and a range
    Gaussian on intensity difference (sigma_r).  Edges are replicated.
    Output values stay inside the local input window's [min, max].

    A stack is filtered a chunk of frames at a time, sized to stay in
    cache.  The range weight of offset o at pixel p equals that of -o at
    p + o, so each mirror pair of offsets gets its weight and weighted
    difference computed once, on the padded grid.  That pass holds two
    buffers per pair; when one frame's do not fit ``WORKING_MEMORY``,
    each offset's weight is computed on its own instead, in strips of rows
    whose buffers fit (at least one row each).  The sums run in row-major
    offset order either way, so every frame gets the bits it would get on
    its own.
    """
    check_number("window", window, 1, integer=True)
    if window % 2 == 0:
        raise ValidationError(f"window must be odd, got {window}")
    # 2 sigma**2 is then a normal float: no weight divides by zero or overflows
    check_number("sigma_s", sigma_s, 1e-150, 1e150)
    check_number("sigma_r", sigma_r, 1e-150, 1e150)
    values = np.asarray(values, dtype=np.float64)
    if values.ndim not in (2, 3):
        raise ValidationError(f"bilateral filter needs a frame or a stack, got {values.ndim} dims")
    if 0 in values.shape[-2:]:
        raise ValidationError(f"bilateral filter needs frames with rows and columns, got {values.shape}")
    stack = values.reshape(-1, *values.shape[-2:])
    n, h, w = stack.shape
    half = window // 2
    padded_width = w + 2 * half
    # per padded pixel, 8 bytes each: a difference and a weight per mirror
    # pair of offsets, the padded frame, two sums and the output
    paired = 8 * (2 * (window * window // 2) + 4) * (h + 2 * half) * padded_width
    if paired <= WORKING_MEMORY:
        frames = max(1, min(_BILATERAL_CHUNK_PIXELS // (h * w), WORKING_MEMORY // paired))
        rows, filter_chunk = h, _bilateral_paired
    else:
        # the padded strip, and six buffers of output pixels
        frame = 8 * ((h + 2 * half) * padded_width + 6 * h * w)
        frames = max(1, WORKING_MEMORY // frame)
        rows = h if frame <= WORKING_MEMORY else max(
            1, (WORKING_MEMORY // 8 - 2 * half * padded_width) // (padded_width + 6 * w)
        )
        filter_chunk = _bilateral_direct
    out = np.empty_like(stack)
    for first in range(0, n, frames):
        for top in range(0, h, rows):
            out[first : first + frames, top : top + rows] = filter_chunk(
                stack[first : first + frames], top, rows, sigma_s, sigma_r, half
            )
    return out.reshape(values.shape)


def _edge_strip(frames: np.ndarray, top: int, rows: int, half: int) -> np.ndarray:
    """Rows ``top .. top + rows`` of each of the ``(b, h, w)`` frames with
    ``half`` more on every side, edges replicated."""
    h, w = frames.shape[1:]
    row = np.clip(np.arange(top - half, min(top + rows, h) + half), 0, h - 1)
    column = np.clip(np.arange(-half, w + half), 0, w - 1)
    return frames[:, row[:, None], column]


def _bilateral_paired(
    frames: np.ndarray, top: int, rows: int, sigma_s: float, sigma_r: float, half: int
) -> np.ndarray:
    """:func:`bilateral_filter` of rows ``top .. top + rows`` of ``frames``,
    each mirror pair of offsets at once.

    Works on the flattened padded strip, where offset (dy, dx) is a shift
    by dy * width + dx, so every array operation is contiguous.  Each sum
    covers the span from the first to the last output pixel; the padding
    inside it is computed and dropped.
    """
    padded = _edge_strip(frames, top, rows, half)
    h, w = padded.shape[1] - 2 * half, padded.shape[2] - 2 * half
    width = w + 2 * half
    flat = padded.ravel()
    lead = half * width + half
    span = slice(lead, flat.size - lead)
    center = flat[span]
    # accumulate weighted differences from the center pixel: the result is
    # frame + num/den, which leaves a constant frame bit-exactly unchanged
    num = np.zeros_like(center)
    den = np.zeros_like(center)
    offsets = [(dy, dx) for dy in range(-half, half + 1) for dx in range(-half, half + 1)]
    # one allocation for every pair: two dozen separate ones, all freed at
    # the end of a chunk, go back to the system and fault in again
    work = np.empty((len(offsets) // 2, 2, center.size + lead))
    pairs = []
    for (dy, dx), buffers in zip(offsets, work):
        # offset o = (dy, dx) now, its mirror -o after the center: at
        # index j, diff is the difference of o at span pixel j and minus
        # that of -o at span pixel j - shift.  The square, and so the
        # range weight, is the same for both.
        shift = -(dy * width + dx)
        diff = np.subtract(flat[lead - shift : span.stop], flat[lead : span.stop + shift],
                           out=buffers[0, : center.size + shift])
        weight = np.square(diff, out=buffers[1, : diff.size])
        np.divide(weight, -2.0 * sigma_r**2, out=weight)
        np.exp(weight, out=weight)
        np.multiply(weight, np.exp(-(dx * dx + dy * dy) / (2.0 * sigma_s**2)), out=weight)
        np.multiply(diff, weight, out=diff)
        num += diff[: center.size]
        den += weight[: center.size]
        pairs.append((diff[shift:], weight[shift:]))
    # the center offset adds a zero difference with weight exp(0) * exp(0)
    den += 1.0
    for weighted_diff, weight in reversed(pairs):
        num -= weighted_diff
        den += weight
    out = np.empty_like(flat)
    out[span] = center + num / den
    return out.reshape(padded.shape)[:, half : half + h, half : half + w]


def _bilateral_direct(
    frames: np.ndarray, top: int, rows: int, sigma_s: float, sigma_r: float, half: int
) -> np.ndarray:
    """:func:`bilateral_filter` of rows ``top .. top + rows`` of ``frames``,
    one offset at a time.  Offset -o's difference is minus that of o at
    the shifted pixel and its weight the same, so each pixel gets the bits
    of :func:`_bilateral_paired`."""
    padded = _edge_strip(frames, top, rows, half)
    h, w = padded.shape[1] - 2 * half, padded.shape[2] - 2 * half
    center = padded[:, half : half + h, half : half + w]
    num, den, diff, weight = np.zeros((4, *center.shape))
    for dy in range(-half, half + 1):
        for dx in range(-half, half + 1):
            if dy == dx == 0:  # a zero difference with weight exp(0) * exp(0)
                den += 1.0
                continue
            shifted = padded[:, half + dy : half + dy + h, half + dx : half + dx + w]
            np.subtract(shifted, center, out=diff)
            np.square(diff, out=weight)
            np.divide(weight, -2.0 * sigma_r**2, out=weight)
            np.exp(weight, out=weight)
            np.multiply(weight, np.exp(-(dx * dx + dy * dy) / (2.0 * sigma_s**2)), out=weight)
            np.multiply(diff, weight, out=diff)
            num += diff
            den += weight
    return center + num / den


@dataclass(frozen=True)
class BilateralOptions:
    window: int = 5
    sigma_s: float = 2.0
    sigma_r: float = 0.1


@dataclass(frozen=True)
class PipelineOptions:
    """Which stages run after dark subtraction, which always does; the
    order itself is fixed.

    Spectral balancing defaults ON for reflectance and OFF for
    transmittance, where near-saturated bands make extra spectral
    correction counterproductive for transparent liquids.
    """

    crop: tuple[int, int, int, int] | None = None
    spatial: bool = True
    spectral: bool | None = None
    bilateral: BilateralOptions | None = BilateralOptions()

    def spectral_enabled(self, mode: Mode) -> bool:
        if self.spectral is None:
            return mode is Mode.REFLECTANCE
        return self.spectral


@dataclass(frozen=True, eq=False)
class Corrections:
    """The gains fitted on a white reference, in its band-set order: the
    ``(B, h, w)`` flat-field maps ``gain`` and the ``(B,)`` balance factors
    ``scale``, each finite and > 0.  Both are locked read-only on
    construction."""

    band_set: BandSet
    gain: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        gain = np.array(self.gain, dtype=np.float64)
        scale = np.array([check_number("scale", c, 0, strict=True) for c in self.scale], dtype=np.float64)
        bands = len(self.band_set)
        if gain.ndim != 3 or gain.shape[0] != bands or scale.shape != (bands,):
            raise ValidationError(f"gain maps {gain.shape} and balance factors {scale.shape} "
                                  f"do not line up with the {bands} bands {self.band_set.wavelengths_nm}")
        for arr in (gain, scale):
            arr.setflags(write=False)
        object.__setattr__(self, "gain", gain)
        object.__setattr__(self, "scale", scale)


def fit_corrections(white_sample: Sample) -> Corrections:
    """Fit both gains from one raw white capture (dark-subtract, then fit)."""
    white = subtract_dark(white_sample.cube)
    gain, flags = fit_spatial_gain(white)
    scale = fit_spectral_gain(apply_spatial_gain(white, gain), flags)
    return Corrections(white.band_set, gain, scale)


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

    The sample must be raw: dark subtraction always runs, and turns the
    cube into floats in [0, 1] (raw/65535), the one numeric domain of the
    later stages and of the feature code.  The spatial and spectral stages
    need ``corrections`` fitted on a white of the sample's band set;
    without them, or with another band set, this raises ValidationError
    before any stage runs.
    """
    cube = sample.cube
    spectral = options.spectral_enabled(cube.mode)
    if options.spatial or spectral:
        if corrections is None:
            raise ValidationError("the spatial and spectral stages need gains fitted on a white reference")
        if cube.band_set != corrections.band_set:
            raise ValidationError(f"sample {sample.id} has the bands {cube.band_set.wavelengths_nm}, but the "
                                  f"gains were fitted on {corrections.band_set.wavelengths_nm}")
    applied: list[str] = []

    if options.crop is not None:
        x, y, w, h = options.crop
        cube = crop(cube, x, y, w, h)
        applied.append(f"crop({x},{y},{w},{h})")

    cube = subtract_dark(cube)
    applied.append("dark")

    if options.spatial:
        cube = apply_spatial_gain(cube, corrections.gain)
        applied.append("spatial")

    if spectral:
        cube = apply_spectral_gain(cube, corrections.scale)
        applied.append("spectral")

    if options.bilateral is not None:
        opts = options.bilateral
        filtered = bilateral_filter(cube.values, opts.sigma_s, opts.sigma_r, opts.window)
        cube = replace(cube, values=filtered)
        applied.append(f"bilateral(w={opts.window},ss={opts.sigma_s},sr={opts.sigma_r})")

    return Sample(
        id=sample.id,
        cube=cube,
        label=sample.label,
        provenance=sample.provenance + tuple(applied),
    )


def load_white_reference(path) -> Sample:
    """The one sample of the white-reference dataset ``path``.  A dataset
    of more than one sample raises ValidationError: which of them is the
    white cannot be told."""
    samples = load_dataset(path)
    white = next(samples)
    if next(samples, None) is not None:
        raise ValidationError(f"a white reference is one sample, but {path} holds more")
    return white


# --------------------------------------------------------------------------
# Command handler (``dualmsi preprocess``, listed in ``cli.COMMANDS``)
# --------------------------------------------------------------------------


def cmd_preprocess(
    args, out: Path, input: str, white: str | None = None,
    options: PipelineOptions = PipelineOptions(),
) -> None:
    """Apply the correction pipeline to a dataset directory, one sample at
    a time.

    The gains are fitted on the white capture cropped by ``options.crop``,
    the window the pipeline crops each sample to.  Every input sample must
    share the white's mode and band set, and its frame must hold the crop
    window or, without one, be the white's size: the manifests are checked
    before anything is written (ModeMismatchError, ValidationError,
    DimensionMismatchError).  Output frames are re-quantized to 16-bit for
    storage.
    """
    corrections = white_sample = None
    if white:
        white_sample = load_white_reference(white)
        cropped = white_sample.cube if options.crop is None else crop(white_sample.cube, *options.crop)
        corrections = fit_corrections(replace(white_sample, cube=cropped))
    samples = load_dataset(input, white=white_sample, window=options.crop)
    written = save_dataset(
        (quantize_sample(preprocess_pipeline(s, corrections, options)) for s in samples), out
    )
    print(f"preprocessed {written} samples -> {out}")
