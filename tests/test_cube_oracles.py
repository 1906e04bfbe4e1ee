"""The whole-array cube stages against per-frame reference implementations.

Each reference below applies a stage one band frame at a time, with the
float expressions of the per-frame code the single-array cube replaced.
The library must reproduce them bit for bit on arbitrary cubes, and emit
the same warnings.  The bilateral filter, the linear SVM's training loop,
the trapezoid rule of the band response and the box mean are held to the
plain or scipy code they replaced in the same way.
"""

import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import trapezoid
from scipy.ndimage import uniform_filter

from dualmsi import materials
from dualmsi.core import (
    RAW_MAX,
    BandSet,
    Label,
    Mode,
    Sample,
    SpectralCube,
    crop,
    load_sample,
    save_sample,
)
from dualmsi.errors import DegenerateReferenceError
from dualmsi.features import superpixels
from dualmsi.harness import repeatability_report, spatial_consistency_report
from dualmsi.models import LinearSVM
from dualmsi.pgm import read_pgm16
from dualmsi.preprocess import (
    BilateralOptions,
    Corrections,
    PipelineOptions,
    SaturationClipWarning,
    apply_spatial_gain,
    apply_spectral_gain,
    bilateral_filter,
    box_mean,
    fit_spatial_gain,
    fit_spectral_gain,
    preprocess_pipeline,
    quantize_sample,
    subtract_dark,
)
from dualmsi.studies import CaseStudyConfig, StudyKind, render_white_reference
from dualmsi.synth import LedSpec, MixtureSpec, effective_band_response, led_emission

WAVELENGTHS = (405, 530, 660, 770, 850)


# --------------------------------------------------------------------------
# Per-frame references: lists of 2-D arrays in band-set order.
# --------------------------------------------------------------------------


def ref_subtract_dark(frames, dark):
    d = dark.astype(np.int64)
    return [np.maximum(f.astype(np.int64) - d, 0).astype(np.float64) / RAW_MAX for f in frames]


def ref_fit_spatial_gain(frames, window, floor):
    gains, flags = [], []
    for f in frames:
        smooth = uniform_filter(f, size=window, mode="nearest")
        peak = float(smooth.max())
        if peak <= 0.0:
            return None
        low = smooth < floor * peak
        gains.append(peak / np.where(low, floor * peak, smooth))
        flags.append(low)
    return gains, flags


def ref_apply_spatial_gain(frames, gains):
    return [np.clip(f * g, 0.0, 1.0) for f, g in zip(frames, gains)]


def ref_apply_spectral_gain(frames, scales):
    out, clipped = [], 0
    for f, c in zip(frames, scales):
        scaled = f * c
        clipped += int((scaled > 1.0).sum())
        out.append(np.minimum(scaled, 1.0))
    messages = [f"spectral gain clamped {clipped} pixels at 1.0"] if clipped else []
    return out, messages


def ref_quantize(frames):
    return [np.rint(np.clip(f, 0.0, 1.0) * RAW_MAX).astype(np.uint16) for f in frames]


def ref_superpixels(frames, block):
    h, w = frames[0].shape
    ny, nx = h // block, w // block
    stack = np.stack(frames).astype(np.float64)[:, : ny * block, : nx * block]
    blocks = stack.reshape(len(frames), ny, block, nx, block).mean(axis=(2, 4))
    return blocks.reshape(len(frames), ny * nx).T


def ref_bilateral(frame, sigma_s, sigma_r, window):
    """One frame, one offset at a time, in row-major offset order."""
    half = window // 2
    padded = np.pad(frame, half, mode="edge")
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


def ref_svm_fit(x, y, c, lr, lr_decay, epochs):
    """``LinearSVM.fit``'s subgradient descent with one fresh gradient per
    epoch; returns (weights, bias)."""
    classes = np.unique(y)
    n, d = x.shape
    y_idx = np.searchsorted(classes, y)
    weights = np.zeros((classes.size, d))
    bias = np.zeros(classes.size)
    reg = 1.0 / (c * n)
    for epoch in range(epochs):
        scores = x @ weights.T + bias
        true_scores = scores[np.arange(n), y_idx]
        rival = scores.copy()
        rival[np.arange(n), y_idx] = -np.inf
        rival_idx = np.argmax(rival, axis=1)
        violating = 1.0 + rival[np.arange(n), rival_idx] - true_scores > 0.0
        push = np.zeros_like(scores)
        rows = np.nonzero(violating)[0]
        push[rows, rival_idx[rows]] += 1.0
        push[rows, y_idx[rows]] -= 1.0
        grad_w = reg * weights + push.T @ x / n
        grad_b = push.sum(axis=0) / n
        step = lr / (1.0 + lr_decay * epoch)
        weights -= step * grad_w
        bias -= step * grad_b
    return weights, bias


def ref_band_response(mixture, led, mode):
    half = 3.0 * led.fwhm_nm
    lam = np.arange(led.peak_nm - half, led.peak_nm + half + 0.5)
    weights = led_emission(led, lam)
    signal = mixture.albedo(lam) if mode is Mode.REFLECTANCE else mixture.transmission(lam)
    return float(trapezoid(weights * signal, lam) / trapezoid(weights, lam))


def ref_pipeline(frames, dark, corrections, options, mode):
    """The stage chain of ``preprocess_pipeline`` on frames; returns
    (frames, provenance, spectral-gain warning messages)."""
    applied, messages = [], []
    if options.crop is not None:
        x, y, w, h = options.crop
        frames = [f[y : y + h, x : x + w] for f in frames]
        dark = dark[y : y + h, x : x + w]
        applied.append(f"crop({x},{y},{w},{h})")
    frames = ref_subtract_dark(frames, dark)
    applied.append("dark")
    if options.spatial:
        frames = ref_apply_spatial_gain(frames, list(corrections.gain))
        applied.append("spatial")
    if options.spectral_enabled(mode):
        frames, messages = ref_apply_spectral_gain(frames, list(corrections.scale))
        applied.append("spectral")
    if options.bilateral is not None:
        b = options.bilateral
        frames = [ref_bilateral(f, b.sigma_s, b.sigma_r, b.window) for f in frames]
        applied.append(f"bilateral(w={b.window},ss={b.sigma_s},sr={b.sigma_r})")
    return frames, tuple(applied), messages


# --------------------------------------------------------------------------
# Strategies and helpers
# --------------------------------------------------------------------------


@st.composite
def raw_frames(draw, max_side=12, n=None, shape=None):
    """(frames, dark) of uint16 counts; extremes and dark above signal included."""
    n = n or draw(st.integers(1, len(WAVELENGTHS)))
    shape = shape or (draw(st.integers(1, max_side)), draw(st.integers(1, max_side)))
    counts = st.integers(0, RAW_MAX)
    stack = draw(hnp.arrays(np.uint16, (n, *shape), elements=counts))
    dark = draw(hnp.arrays(np.uint16, shape, elements=counts))
    return list(stack), dark


@st.composite
def float_frames(draw, max_side=12):
    n = draw(st.integers(1, len(WAVELENGTHS)))
    shape = (draw(st.integers(1, max_side)), draw(st.integers(1, max_side)))
    values = st.just(0.0) | st.just(1.0) | st.floats(1e-6, 1.0)
    return list(draw(hnp.arrays(np.float64, (n, *shape), elements=values)))


def cube_from(frames, dark=None, mode=Mode.REFLECTANCE):
    dark = np.zeros_like(frames[0]) if dark is None else dark
    return SpectralCube(
        values=np.stack(frames),
        dark=dark,
        mode=mode,
        band_set=BandSet(WAVELENGTHS[: len(frames)]),
    )


def same_bits(got: np.ndarray, want) -> bool:
    want = np.stack(want) if isinstance(want, list) else np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def spectral_messages(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    assert all(issubclass(w.category, SaturationClipWarning) for w in caught)
    return out, [str(w.message) for w in caught]


# --------------------------------------------------------------------------
# Stages
# --------------------------------------------------------------------------


class TestStagesMatchPerFrameReference:
    @settings(max_examples=80, deadline=None)
    @given(data=raw_frames())
    def test_subtract_dark(self, data):
        frames, dark = data
        out = subtract_dark(cube_from(frames, dark))
        assert same_bits(out.values, ref_subtract_dark(frames, dark))
        assert same_bits(out.dark, np.zeros(dark.shape))

    @settings(max_examples=80, deadline=None)
    @given(
        frames=float_frames(),
        window=st.sampled_from([1, 3, 5, 11]),
        floor=st.sampled_from([0.05, 0.5, 0.95]),
    )
    def test_fit_and_apply_spatial_gain(self, frames, window, floor):
        cube = cube_from(frames)
        want = ref_fit_spatial_gain(frames, window, floor)
        if want is None:
            with pytest.raises(DegenerateReferenceError):
                fit_spatial_gain(cube, window=window, floor=floor)
            return
        gain, flags = fit_spatial_gain(cube, window=window, floor=floor)
        assert same_bits(gain, want[0])
        assert same_bits(flags, want[1])
        out = apply_spatial_gain(cube, gain)
        assert same_bits(out.values, ref_apply_spatial_gain(frames, want[0]))

    @settings(max_examples=80, deadline=None)
    @given(frames=float_frames(), data=st.data())
    def test_apply_spatial_gain_with_drawn_maps(self, frames, data):
        shape = (len(frames), *frames[0].shape)
        maps = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(0.0, 30.0)))
        out = apply_spatial_gain(cube_from(frames), maps)
        assert same_bits(out.values, ref_apply_spatial_gain(frames, list(maps)))

    @settings(max_examples=100, deadline=None)
    @given(frames=float_frames(), data=st.data())
    def test_apply_spectral_gain_and_clip_warnings(self, frames, data):
        scales = data.draw(st.lists(st.floats(0.25, 4.0), min_size=len(frames), max_size=len(frames)))
        out, messages = spectral_messages(apply_spectral_gain, cube_from(frames), np.array(scales))
        want, want_messages = ref_apply_spectral_gain(frames, scales)
        assert same_bits(out.values, want)
        assert messages == want_messages

    @settings(max_examples=60, deadline=None)
    @given(frames=float_frames(), masked=st.booleans())
    @example(frames=[np.array([[0.0] * 9, [0.0] * 5 + [1.0, 0.0, 1.0, 0.0],
                               [0.0] * 3 + [0.75] + [0.0] * 5, [0.0] * 9])], masked=True)
    def test_fit_spectral_gain_uses_per_band_means(self, frames, masked):
        # an all-zero band is the spatial fit's own error
        assume(not masked or all(f.max() > 0 for f in frames))
        cube = cube_from(frames)
        flags = fit_spatial_gain(cube, window=3, floor=0.5)[1] if masked else None
        means = []
        for i, f in enumerate(frames):
            good = ~flags[i] if masked else np.ones(f.shape, bool)
            means.append(float((f[good] if good.any() else f).mean()))
        if min(means) <= 0:
            # the unflagged pixels of a band can all be 0 where its mean is not
            with pytest.raises(DegenerateReferenceError, match="zero mean"):
                fit_spectral_gain(cube, flags)
            return
        got = fit_spectral_gain(cube, flags)
        top = max(means)
        assert same_bits(got, np.array([top / m for m in means]))

    @settings(max_examples=80, deadline=None)
    @given(frames=float_frames())
    def test_quantize_sample(self, frames):
        sample = Sample("q", cube_from(frames), Label.adulteration(5.0), ("dark",))
        out = quantize_sample(sample)
        assert same_bits(out.cube.values, ref_quantize(frames))
        assert same_bits(out.cube.dark, np.zeros(frames[0].shape, dtype=np.uint16))
        assert out.provenance == ("dark", "quantize")

    @settings(max_examples=80, deadline=None)
    @given(data=raw_frames(), rect=st.tuples(*[st.integers(0, 12)] * 4))
    def test_crop(self, data, rect):
        frames, dark = data
        h, w = dark.shape
        x, y = min(rect[0], w - 1), min(rect[1], h - 1)
        cw, ch = 1 + rect[2] % (w - x), 1 + rect[3] % (h - y)
        out = crop(cube_from(frames, dark), x, y, cw, ch)
        assert same_bits(out.values, [f[y : y + ch, x : x + cw] for f in frames])
        assert same_bits(out.dark, dark[y : y + ch, x : x + cw])

    @settings(max_examples=60, deadline=None)
    @given(frames=float_frames(max_side=25), block=st.integers(1, 6))
    def test_superpixels(self, frames, block):
        assume(block <= min(frames[0].shape))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = superpixels(cube_from(frames), block=block)
        assert same_bits(got, ref_superpixels(frames, block))

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, len(WAVELENGTHS)),
        shape=st.tuples(st.integers(1, 8), st.integers(1, 8)),
        data=st.data(),
    )
    def test_repeatability_report(self, n, shape, data):
        series = data.draw(st.lists(raw_frames(n=n, shape=shape), min_size=2, max_size=4))
        samples = [Sample(f"r{k}", cube_from(f, d), Label.adulteration(0.0)) for k, (f, d) in enumerate(series)]
        report = repeatability_report(samples)
        for i, wl in enumerate(WAVELENGTHS[:n]):
            means = np.array([float(f[i].mean()) for f, _ in series])
            center = means.mean()
            want = 0.0 if center == 0 or np.all(means == means[0]) else float(
                np.abs(means - center).max() / center * 100.0
            )
            assert report["per_band_deviation_pct"][wl] == want


class TestPipelineMatchesPerFrameReference:
    @settings(max_examples=60, deadline=None)
    @given(
        data=raw_frames(max_side=10),
        white_seed=st.integers(0, 2**32 - 1),
        stages=st.tuples(st.booleans(), st.none() | st.booleans(), st.booleans()),
        mode=st.sampled_from(Mode),
        cropped=st.booleans(),
    )
    def test_pipeline(self, data, white_seed, stages, mode, cropped):
        frames, dark = data
        spatial_on, spectral, bilateral_on = stages
        shape = dark.shape
        crop_rect = (0, 0, max(1, shape[1] - 1), max(1, shape[0] - 1)) if cropped else None
        size = shape if crop_rect is None else (crop_rect[3], crop_rect[2])
        # gains of the cropped size, fitted on a white with every band lit
        rng = np.random.default_rng(white_seed)
        white_frames = list(rng.integers(1, RAW_MAX + 1, (len(frames), *size)).astype(np.uint16))
        white_cube = subtract_dark(cube_from(white_frames, np.zeros(size, np.uint16)))
        gain, flags = fit_spatial_gain(white_cube, window=3)
        corrections = Corrections(white_cube.band_set, gain, fit_spectral_gain(white_cube, flags))
        options = PipelineOptions(
            crop=crop_rect,
            spatial=spatial_on,
            spectral=spectral,
            bilateral=BilateralOptions(window=3, sigma_s=1.5, sigma_r=0.2) if bilateral_on else None,
        )
        sample = Sample("p", cube_from(frames, dark, mode), Label.adulteration(10.0))
        out, messages = spectral_messages(preprocess_pipeline, sample, corrections, options)
        want, provenance, want_messages = ref_pipeline(frames, dark, corrections, options, mode)
        assert same_bits(out.cube.values, want)
        assert same_bits(out.cube.dark, np.zeros(size))
        assert out.provenance == provenance
        assert messages == want_messages


# --------------------------------------------------------------------------
# Bilateral filter, SVM training, band response
# --------------------------------------------------------------------------

bilateral_args = st.tuples(
    st.floats(0.3, 5.0), st.floats(0.01, 2.0), st.sampled_from([1, 3, 5, 7])
)


class TestKernelsMatchPlainReference:
    @settings(max_examples=60, deadline=None)
    @given(
        stack=st.tuples(st.integers(1, 20), st.integers(1, 40), st.integers(1, 40)).flatmap(
            lambda shape: hnp.arrays(
                np.float64, shape, elements=st.just(0.0) | st.just(1.0) | st.floats(0.0, 1.0)
            )
        ),
        args=bilateral_args,
    )
    def test_bilateral_stack_and_frames(self, stack, args):
        want = [ref_bilateral(f, *args) for f in stack]
        assert same_bits(bilateral_filter(stack, *args), want)
        for frame, frame_want in zip(stack, want):
            assert same_bits(bilateral_filter(frame, *args), frame_want)

    @pytest.mark.parametrize("shape", [(13, 40, 40), (5, 100, 100), (1, 1, 1), (3, 1, 1)])
    @pytest.mark.parametrize("window", [1, 5, 7])
    def test_bilateral_chunked_stack_and_one_pixel(self, shape, window):
        # 13 bands of 40x40 and 5 of 100x100 take several chunks
        stack = np.random.default_rng(7).random(shape)
        want = [ref_bilateral(f, 2.0, 0.1, window) for f in stack]
        assert same_bits(bilateral_filter(stack, 2.0, 0.1, window), want)
        assert same_bits(bilateral_filter(stack[-1], 2.0, 0.1, window), want[-1])

    @settings(max_examples=150, deadline=None)
    @given(
        stack=st.tuples(st.integers(1, 4), st.integers(1, 40), st.integers(1, 40)).flatmap(
            lambda shape: hnp.arrays(
                np.float64,
                shape,
                # mixed magnitudes and signs, so a reordered sum shows in the bits
                elements=st.just(0.0) | st.just(-0.0) | st.floats(0.0, 1.0)
                | st.floats(-1e300, 1e300) | st.floats(-1e-300, 1e-300),
            )
        ),
        window=st.integers(0, 15).map(lambda k: 2 * k + 1),
    )
    def test_box_mean_stack_and_frames(self, stack, window):
        # windows up to 31 are wider than most drawn frames
        assert same_bits(box_mean(stack, window),
                         uniform_filter(stack, size=(1, window, window), mode="nearest"))
        assert same_bits(box_mean(stack[0], window),
                         uniform_filter(stack[0], size=window, mode="nearest"))

    @pytest.mark.parametrize("window", [1, 2, 11, 31])
    def test_box_mean_one_pixel(self, window):
        frame = np.array([[0.7]])
        assert same_bits(box_mean(frame, window), uniform_filter(frame, size=window, mode="nearest"))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32), width=st.integers(1, 30), height=st.integers(1, 30))
    def test_consistency_report_smoothed_intensity(self, seed, width, height):
        config = CaseStudyConfig.for_kind(StudyKind.TURMERIC, width=width, height=height)
        report = spatial_consistency_report(render_white_reference(config, Mode.REFLECTANCE, seed))
        for variant in (report.before, report.after):
            want = uniform_filter(variant.cube.values.sum(axis=0), size=11, mode="nearest")
            assert same_bits(variant.smoothed_intensity, want)

    @settings(max_examples=60, deadline=None)
    @given(
        problem=st.tuples(st.integers(1, 40), st.integers(1, 6)).flatmap(
            lambda nd: st.tuples(
                hnp.arrays(np.float64, nd, elements=st.floats(-10.0, 10.0)),
                hnp.arrays(np.float64, nd[0], elements=st.sampled_from([0.0, 1.5, 2.0, 7.0])),
            )
        ),
        c=st.floats(0.05, 10.0),
        lr=st.floats(0.01, 20.0),
        lr_decay=st.floats(0.0, 0.1),
        epochs=st.integers(1, 40),  # the constructor rejects epochs < 1
    )
    def test_svm_weights_and_bias(self, problem, c, lr, lr_decay, epochs):
        x, y = problem
        model = LinearSVM(c=c, lr=lr, lr_decay=lr_decay, epochs=epochs).fit(x, y)
        weights, bias = ref_svm_fit(x, y, c, lr, lr_decay, epochs)
        assert same_bits(model.weights, weights)
        assert same_bits(model.bias, bias)

    @settings(max_examples=200, deadline=None)
    @given(
        base=st.sampled_from([materials.TURMERIC, materials.COCONUT_OIL, materials.WHITE_REFERENCE]),
        adulterant=st.sampled_from([materials.RICE_FLOUR, materials.PALM_OIL])
        | st.integers(0, materials.PALETTE_SIZE - 1).map(materials.color_chart_material),
        fraction=st.floats(0.0, 1.0),
        depth=st.floats(0.01, 5.0),
        led=st.builds(
            LedSpec, st.integers(350, 1000), st.floats(0.5, 80.0), st.floats(0.05, 5.0)
        ),
        mode=st.sampled_from(Mode),
    )
    def test_band_response_trapezoid(self, base, adulterant, fraction, depth, led, mode):
        mixture = MixtureSpec.binary(base, adulterant, fraction, depth)
        got = effective_band_response(mixture, led, mode)
        assert same_bits(np.float64(got), np.float64(ref_band_response(mixture, led, mode)))


# --------------------------------------------------------------------------
# Disk format
# --------------------------------------------------------------------------


class TestSampleFilesMatchPerFrameReference:
    @settings(max_examples=40, deadline=None)
    @given(data=raw_frames(), order=st.randoms(use_true_random=False))
    def test_save_and_load_any_manifest_order(self, data, order):
        frames, dark = data
        sample = Sample("s", cube_from(frames, dark, Mode.TRANSMITTANCE), Label.color(3))
        with tempfile.TemporaryDirectory() as tmp:
            target = Path(tmp) / "s"
            save_sample(sample, target)
            wavelengths = WAVELENGTHS[: len(frames)]
            for wl, frame in zip(wavelengths, frames):
                assert same_bits(read_pgm16(target / f"band_{wl}.pgm"), frame)
            assert same_bits(read_pgm16(target / "dark.pgm"), dark)
            assert load_sample(target) == sample

            manifest_path = target / "manifest.json"
            manifest = json.loads(manifest_path.read_text())
            order.shuffle(manifest["bands"])
            manifest_path.write_text(json.dumps(manifest))
            loaded = load_sample(target)
        assert loaded.cube.band_set.wavelengths_nm == wavelengths
        assert same_bits(loaded.cube.values, frames)
        assert loaded == sample
