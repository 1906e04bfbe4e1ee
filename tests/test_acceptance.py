"""Acceptance criteria, one test per criterion.

Each test prints ``ACCEPTANCE <n> PASS (<elapsed> <= <budget>s): <what>``
on success and enforces both the functional assertions and the stated
time budget.  Expensive study bundles are computed once per session and
their wall time is charged to every criterion that consumes them.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from dualmsi.core import Label, Mode, Sample, load_sample, save_sample
from dualmsi.divergence import (
    Distribution,
    REFERENCE_OIL_POINTS,
    fit_linear,
    histogram,
    kl_divergence,
)
from dualmsi.features import build_matrix, merge, pca_fit
from dualmsi.harness import repeatability_report, run_case_study
from dualmsi.models import KNearestNeighbors, LogisticRegressionGD
from dualmsi.preprocess import (
    apply_spatial_gain,
    apply_spectral_gain,
    bilateral_filter,
    fit_spatial_gain,
    fit_spectral_gain,
    subtract_dark,
)
from dualmsi.studies import (
    CaseStudyConfig,
    StudyKind,
    generate_case_study,
    render_white_reference,
)
from dualmsi.synth import IlluminationProfile, NoiseSpec

from conftest import make_cube, random_raw_sample
from test_preprocess import bilateral_reference


@contextmanager
def criterion(number: int, budget_s: float, what: str, extra_elapsed: float = 0.0):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL: {what}")
        raise
    elapsed = time.perf_counter() - start + extra_elapsed
    line = f"ACCEPTANCE {number:02d} PASS ({elapsed:.2f}s <= {budget_s}s): {what}"
    print(line)
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


@pytest.fixture(scope="session")
def turmeric_bundle():
    start = time.perf_counter()
    bundle = run_case_study(CaseStudyConfig.for_kind(StudyKind.TURMERIC), master_seed=0)
    return bundle, time.perf_counter() - start


@pytest.fixture(scope="session")
def oil_bundle():
    start = time.perf_counter()
    bundle = run_case_study(CaseStudyConfig.for_kind(StudyKind.COCONUT_OIL), master_seed=0)
    return bundle, time.perf_counter() - start


@pytest.fixture(scope="session")
def chart_bundle():
    start = time.perf_counter()
    bundle = run_case_study(CaseStudyConfig.for_kind(StudyKind.COLOR_CHART), master_seed=0)
    return bundle, time.perf_counter() - start


def test_criterion_01_data_matrix_shape_law():
    with criterion(1, 1.0, "merged data-matrix width is 2B (26 for B=13)"):
        config = CaseStudyConfig.for_kind(StudyKind.TURMERIC, replicates=1, levels=(0.0, 40.0))
        data = generate_case_study(config, master_seed=0)
        assert len(config.band_set) == 13
        r = build_matrix(list(data.reflectance), Mode.REFLECTANCE)
        t = build_matrix(list(data.transmittance), Mode.TRANSMITTANCE)
        for sample in data.reflectance:
            rows = r.rows_for(sample.id)
            assert rows.size == 100  # 100x100 crop -> 100 superpixels
        assert r.values.shape[1] == 13
        m = merge(r, t)
        assert m.values.shape == (2 * 100, 26)
        again = merge(
            build_matrix(list(data.reflectance), Mode.REFLECTANCE),
            build_matrix(list(data.transmittance), Mode.TRANSMITTANCE),
        )
        assert np.array_equal(m.values, again.values)


def test_criterion_02_kl_metric():
    with criterion(2, 1.0, "KL identity, analytic two-bin value, non-negativity"):
        rng = np.random.default_rng(0)
        p_self = histogram(rng.normal(0.5, 0.1, 400), n_bins=32)
        assert kl_divergence(p_self, p_self) <= 1e-12

        p = Distribution(np.array([0.0, 0.5, 1.0]), np.array([0.5, 0.5]))
        q = Distribution(np.array([0.0, 0.5, 1.0]), np.array([0.25, 0.75]))
        expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert abs(kl_divergence(p, q) - expected) <= 1e-9

        for _ in range(1000):
            a = histogram(rng.uniform(0, 1, 40), n_bins=8)
            b = histogram(rng.uniform(0, 1, 40), n_bins=8)
            assert kl_divergence(a, b) >= 0.0


def test_criterion_03_functional_map(oil_bundle):
    bundle, fixture_elapsed = oil_bundle
    with criterion(3, 10.0, "functional map: stored curve + synthetic oil fit",
                   extra_elapsed=fixture_elapsed):
        fmap = fit_linear(REFERENCE_OIL_POINTS)
        assert abs(fmap.slope - 1.0497) <= 0.02 * 1.0497
        assert abs(fmap.intercept - (-1.001)) <= 0.02 * 1.001
        assert abs(fmap.r_squared - 0.9558) <= 0.01

        synth_map = bundle["functional_map_medians"]
        assert synth_map["slope"] > 0.0
        assert synth_map["r_squared"] >= 0.90


def test_criterion_04_turmeric_mode_ordering(turmeric_bundle):
    bundle, fixture_elapsed = turmeric_bundle
    with criterion(4, 60.0, "merged >= transmittance >= reflectance, merged >= 0.95",
                   extra_elapsed=fixture_elapsed):
        best = bundle["best"]["corrected"]
        assert best["merged"] >= best["transmittance"] - 0.02
        assert best["transmittance"] >= best["reflectance"] - 0.02
        assert best["merged"] >= max(best["reflectance"], best["transmittance"]) - 0.02
        assert best["merged"] >= 0.95


def test_criterion_05_oil_classification(oil_bundle):
    bundle, fixture_elapsed = oil_bundle
    with criterion(5, 60.0, "all four oil classifiers >= 0.85, best >= 0.92",
                   extra_elapsed=fixture_elapsed):
        accuracy = bundle["accuracy"]
        assert set(accuracy) == {"logistic", "knn", "svm", "decision_tree"}
        assert min(accuracy.values()) >= 0.85
        assert max(accuracy.values()) >= 0.92


def test_criterion_06_color_chart(chart_bundle):
    bundle, fixture_elapsed = chart_bundle
    with criterion(6, 60.0, "24-color chart: every classifier >= 0.80, best >= 0.88",
                   extra_elapsed=fixture_elapsed):
        for projection in ("PCA", "LDA"):
            table = bundle["accuracy"][projection]
            assert len(table) == 5
            assert min(table.values()) >= 0.80
            assert max(table.values()) >= 0.88


def test_criterion_07_flat_field():
    with criterion(7, 5.0, "corner/peak 0.7 white flattens to <= 2% per band"):
        config = CaseStudyConfig.for_kind(
            StudyKind.TURMERIC,
            illumination=IlluminationProfile.corner_ratio(0.7)
        )
        white = render_white_reference(config, Mode.REFLECTANCE, master_seed=0)
        dark_sub = subtract_dark(white.cube)
        spatial = fit_spatial_gain(dark_sub)
        flat = apply_spatial_gain(dark_sub, spatial)
        for wl in flat.band_set:
            good = ~spatial.flags[wl]
            values = flat.frame(wl)[good]
            assert values.std() / values.mean() <= 0.02
        spectral = fit_spectral_gain(flat, spatial)
        balanced = apply_spectral_gain(flat, spectral)
        means = np.array(
            [balanced.frame(wl)[~spatial.flags[wl]].mean() for wl in balanced.band_set]
        )
        assert (means.max() - means.min()) / means.mean() <= 0.02


def test_criterion_08_oracle_suites():
    with criterion(8, 5.0, "PCA/logistic-gradient/bilateral/KNN oracle equivalence"):
        rng = np.random.default_rng(1)

        # PCA vs brute-force covariance eigendecomposition
        for _ in range(10):
            data = rng.normal(size=(6, 3))
            proj = pca_fit(data, k=3)
            centered = data - data.mean(axis=0)
            cov = sum(np.outer(row, row) for row in centered) / (len(data) - 1)
            eigvals, eigvecs = np.linalg.eig(cov)
            order = np.argsort(eigvals.real)[::-1]
            assert np.allclose(proj.eigenvalues, eigvals.real[order], atol=1e-9)
            for k in range(3):
                dot = abs(np.dot(proj.components[k], eigvecs.real[:, order[k]]))
                assert abs(dot - 1.0) <= 1e-9

        # logistic gradient vs central finite differences
        x = rng.normal(size=(5, 3))
        y = np.array([0.0, 1.0, 2.0, 1.0, 0.0])
        model = LogisticRegressionGD(l2=1e-4)
        onehot = (y[:, None] == np.unique(y)[None, :]).astype(float)
        weights = rng.normal(size=(3, 3)) * 0.5
        bias = rng.normal(size=3) * 0.5
        _, grad_w, grad_b = model.loss_and_grads(x, onehot, weights, bias)
        eps = 1e-5
        for target, grad in ((weights, grad_w), (bias, grad_b)):
            it = np.nditer(target, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = target[idx]
                target[idx] = orig + eps
                up, *_ = model.loss_and_grads(x, onehot, weights, bias)
                target[idx] = orig - eps
                down, *_ = model.loss_and_grads(x, onehot, weights, bias)
                target[idx] = orig
                numeric = (up - down) / (2 * eps)
                rel = abs(numeric - grad[idx]) / max(abs(numeric) + abs(grad[idx]), 1e-8)
                assert rel < 1e-4
                it.iternext()

        # bilateral filter vs direct double-sum on 7x7 fixtures
        for _ in range(3):
            frame = rng.uniform(0, 1, (7, 7))
            fast = bilateral_filter(frame, sigma_s=1.5, sigma_r=0.15, window=5)
            slow = bilateral_reference(frame, 1.5, 0.15, 5)
            assert np.allclose(fast, slow, atol=1e-12)

        # KNN vs brute-force distance table on a 30-point fixture
        train_x = rng.normal(size=(30, 4))
        train_y = rng.integers(0, 3, 30).astype(float)
        queries = rng.normal(size=(15, 4))
        model = KNearestNeighbors(k=5).fit(train_x, train_y)
        got = model.predict(queries)
        for qi, q in enumerate(queries):
            dists = np.array([((q - row) ** 2).sum() for row in train_x])
            nearest = np.argsort(dists, kind="stable")[:5]
            votes = train_y[nearest]
            labels, counts = np.unique(votes, return_counts=True)
            tied = labels[counts == counts.max()]
            sums = np.array([dists[nearest][votes == l].sum() for l in tied])
            assert got[qi] == tied[np.argmin(sums)]


def test_criterion_09_repeatability():
    with criterion(9, 5.0, "drift deviation in (0, 5%], zero drift exactly 0%"):
        from dualmsi.synth import (
            Curve,
            MaterialSpec,
            MixtureSpec,
            SceneConfig,
            render_repeat_series,
        )
        from dualmsi.core import BandSet
        from dataclasses import replace

        material = MaterialSpec("m", Curve.constant(0.6), Curve.constant(0.4))
        scene = SceneConfig(
            band_set=BandSet.thirteen_band(),
            mode=Mode.REFLECTANCE,
            mixture=MixtureSpec.pure(material),
            illumination=IlluminationProfile(),
            noise=NoiseSpec(),
            width=60,
            height=60,
            rng_seed=0,
        )
        report = repeatability_report(render_repeat_series(scene, 10))
        assert 0.0 < report["max_deviation_pct"] <= 5.0

        quiet = replace(scene, noise=NoiseSpec.none())
        zero = repeatability_report(render_repeat_series(quiet, 5))
        assert zero["max_deviation_pct"] == 0.0


def test_criterion_10_protocol_conformance():
    with criterion(10, 5.0, "1000-step firmware fuzz + golden handshake transcript"):
        from dualmsi.devicelink import (
            FirmwareConfig,
            FirmwareState,
            OP_CAPTURE_ALL,
            OP_CAPTURE_BAND,
            OP_DONE,
            Phase,
            TICK,
            capture_handshake,
            firmware_step,
            render_transcript,
        )

        rng = np.random.default_rng(99)
        config = FirmwareConfig(n_bands=13, timeout_steps=6)
        state = FirmwareState()
        lit = set()
        for _ in range(1000):
            roll = rng.random()
            if roll < 0.3:
                inp = TICK
            elif roll < 0.6:
                inp = int(rng.integers(0, 256))
            else:
                inp = int(rng.choice([OP_CAPTURE_ALL, OP_CAPTURE_BAND, OP_DONE]))
            pots = tuple(int(v) for v in rng.integers(0, 256, 8))
            state, actions = firmware_step(state, inp, pots, config)
            for action in actions:
                if action.name == "LED_ON":
                    assert not lit  # at most one band lit
                    lit.add(action.arg)
                elif action.name == "LED_OFF":
                    assert action.arg in lit  # every on has its off
                    lit.remove(action.arg)
        for _ in range(config.timeout_steps + 1):  # drain to waiting
            state, actions = firmware_step(state, TICK, (0,) * 8, config)
            for action in actions:
                if action.name == "LED_OFF":
                    lit.remove(action.arg)
        assert state.phase is Phase.WAITING and not lit

        transcript = render_transcript(capture_handshake(2, FirmwareConfig(n_bands=13)))
        golden = (
            "t=0 controller LED_ON 2\n"
            "t=0 controller READY 2\n"
            "t=1 camera CAPTURE 2\n"
            "t=2 camera DONE 2\n"
            "t=2 controller LED_OFF 2\n"
        )
        assert transcript == golden


def test_criterion_11_format_round_trip(tmp_path):
    with criterion(11, 5.0, "save/load bit-exact for 50 randomized samples"):
        rng = np.random.default_rng(2)
        for i in range(50):
            if i == 0:  # force both 16-bit extremes
                values = np.array([[0, 65535], [65535, 0]], dtype=np.uint16)
                cube = make_cube({530: values}, dark=values, mode=Mode.TRANSMITTANCE)
                sample = Sample("extreme", cube, Label.adulteration(0.0))
            else:
                sample = random_raw_sample(
                    rng,
                    f"s{i:02d}",
                    n_bands=int(rng.integers(1, 6)),
                    size=int(rng.integers(1, 16)),
                    mode=Mode.TRANSMITTANCE if i % 2 else Mode.REFLECTANCE,
                )
            target = tmp_path / sample.id
            save_sample(sample, target)
            assert load_sample(target) == sample
