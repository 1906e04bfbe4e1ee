import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dualmsi.core import Mode
from dualmsi.divergence import (
    Distribution,
    REFERENCE_OIL_POINTS,
    adulteration_curve,
    fit_linear,
    histogram,
    kl_divergence,
    lda_feature_extractor,
    median_curve,
)
from dualmsi.errors import EmptyDataError, ValidationError
from dualmsi.features import DataMatrix, build_matrix, lda_fit, superpixels
from dualmsi.studies import CaseStudyConfig, StudyKind, generate_case_study


class TestHistogram:
    def test_single_bin_concentration(self):
        dist = histogram([0.5] * 100, n_bins=10)
        assert dist.probs.argmax() == 5
        assert dist.probs.max() > 0.999
        assert dist.probs.min() > 0.0

    def test_uniform_within_binomial_bound(self):
        rng = np.random.default_rng(1)
        n = 64_000
        dist = histogram(rng.uniform(0, 1, n), n_bins=64)
        p = 1 / 64
        sigma = math.sqrt(p * (1 - p) / n)
        assert np.all(np.abs(dist.probs - p) < 3 * sigma + 1e-6)

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyDataError):
            histogram([])

    def test_out_of_range_clipped_to_edges(self):
        dist = histogram([-5.0, 5.0], n_bins=4, value_range=(0.0, 1.0))
        assert dist.probs[0] == pytest.approx(0.5, abs=1e-6)
        assert dist.probs[-1] == pytest.approx(0.5, abs=1e-6)

    def test_probabilities_normalized_and_positive(self):
        dist = histogram([0.1, 0.9], n_bins=8, epsilon=1e-9)
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert dist.probs.min() > 0.0

    def test_distribution_invariants(self):
        with pytest.raises(ValidationError):
            Distribution(bin_edges=np.array([0.0, 1.0]), probs=np.array([0.5, 0.5]))
        with pytest.raises(ValidationError):
            Distribution(bin_edges=np.array([0.0, 0.0, 1.0]), probs=np.array([0.5, 0.5]))


class TestKl:
    def test_self_divergence_zero(self):
        rng = np.random.default_rng(1)
        dist = histogram(rng.normal(0.5, 0.1, 500), n_bins=32)
        assert kl_divergence(dist, dist) <= 1e-12

    def test_two_bin_analytic_case(self):
        p = Distribution(np.array([0.0, 0.5, 1.0]), np.array([0.5, 0.5]))
        q = Distribution(np.array([0.0, 0.5, 1.0]), np.array([0.25, 0.75]))
        expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert kl_divergence(p, q) == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(0.14384, abs=1e-5)

    def test_non_negative_over_random_pairs(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            p = histogram(rng.uniform(0, 1, 50), n_bins=8)
            q = histogram(rng.uniform(0, 1, 50), n_bins=8)
            assert kl_divergence(p, q) >= 0.0

    def test_edge_mismatch_rejected(self):
        p = histogram([0.5], n_bins=8)
        q = histogram([0.5], n_bins=16)
        with pytest.raises(ValidationError):
            kl_divergence(p, q)

    def test_invariant_under_common_permutation(self):
        rng = np.random.default_rng(3)
        p = histogram(rng.uniform(0, 1, 200), n_bins=16)
        q = histogram(rng.uniform(0, 1, 200), n_bins=16)
        perm = rng.permutation(16)
        p2 = Distribution(p.bin_edges, p.probs[perm] / p.probs[perm].sum())
        q2 = Distribution(q.bin_edges, q.probs[perm] / q.probs[perm].sum())
        assert kl_divergence(p2, q2) == pytest.approx(kl_divergence(p, q), abs=1e-9)


class TestFitLinear:
    def test_exact_line(self):
        points = [(x, 2.0 * x + 1.0) for x in range(6)]
        fmap = fit_linear(points)
        assert fmap.slope == pytest.approx(2.0, abs=1e-12)
        assert fmap.intercept == pytest.approx(1.0, abs=1e-12)
        assert fmap.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_y_degenerate(self):
        fmap = fit_linear([(0.0, 3.0), (1.0, 3.0), (2.0, 3.0)])
        assert fmap.slope == 0.0
        assert fmap.r_squared == 0.0

    def test_needs_two_distinct_x(self):
        with pytest.raises(ValidationError):
            fit_linear([(1.0, 2.0)])
        with pytest.raises(ValidationError):
            fit_linear([(1.0, 2.0), (1.0, 3.0)])

    def test_reference_oil_curve_regression(self):
        # frozen reference points must reproduce the published functional
        # map: slope 1.0497, intercept -1.001, R^2 0.9558
        fmap = fit_linear(REFERENCE_OIL_POINTS)
        assert fmap.slope == pytest.approx(1.0497, rel=0.02)
        assert fmap.intercept == pytest.approx(-1.001, rel=0.02)
        assert abs(fmap.r_squared - 0.9558) <= 0.01

    def test_reference_points_shape(self):
        levels = [p[0] for p in REFERENCE_OIL_POINTS]
        assert len(REFERENCE_OIL_POINTS) == 72
        assert sorted(set(levels)) == [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0]
        assert min(p[1] for p in REFERENCE_OIL_POINTS) >= 0.0


def transmittance_matrix(samples) -> DataMatrix:
    return build_matrix(list(samples), Mode.TRANSMITTANCE)


def band_curve(samples, wavelength_nm=621, **kwargs):
    matrix = transmittance_matrix(samples)
    band = matrix.values[:, matrix.col_labels.index(f"T:{wavelength_nm}")]
    return adulteration_curve(matrix, band, **kwargs)


class TestAdulterationCurve:
    def test_point_per_replicate(self, oil_study_full):
        data, config = oil_study_full
        points = band_curve(data.transmittance)
        assert len(points) == 72  # 9 levels x 8 replicates
        levels = sorted({p[0] for p in points})
        assert levels == list(config.levels)

    def test_reference_replicates_near_floor(self, oil_study_full):
        data, config = oil_study_full
        points = band_curve(data.transmittance)
        floor = [kl for lv, kl in points if lv == 0.0]
        top = [kl for lv, kl in points if lv == 40.0]
        assert max(floor) < min(top)

    def test_median_curve_monotone_on_fixture(self, oil_study_full):
        data, config = oil_study_full
        points = band_curve(data.transmittance)
        medians = median_curve(points)
        values = [kl for _, kl in medians]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_spearman_rank_correlation_is_one(self, oil_study_full):
        from scipy.stats import spearmanr

        data, config = oil_study_full
        points = band_curve(data.transmittance)
        medians = median_curve(points)
        rho, _ = spearmanr([l for l, _ in medians], [k for _, k in medians])
        assert rho == 1.0

    def test_signatures_monotone_in_absorbing_bands(self, oil_study_full):
        # palm oil absorbs more than coconut below ~660 nm, so mean band
        # intensity must fall strictly with adulteration level there
        from dualmsi.features import spectral_signature

        data, config = oil_study_full
        matrix = transmittance_matrix(data.transmittance)
        table = spectral_signature(matrix)
        for band in ("T:428", "T:473", "T:621"):
            col = table.bands.index(band)
            means = table.means[:, col]
            assert all(b < a for a, b in zip(means, means[1:]))

    def test_lda_extractor_runs(self, oil_study_full):
        data, config = oil_study_full
        samples = list(data.transmittance)[:32]
        matrix = transmittance_matrix(samples)
        values = lda_feature_extractor(matrix)[matrix.rows_for(samples[0].id)]
        assert values.ndim == 1 and values.size == (config.width // 10) ** 2

    def test_missing_reference_level_rejected(self, oil_study_full):
        data, config = oil_study_full
        nonzero = [s for s in data.transmittance if s.label.adulteration_pct != 0.0]
        with pytest.raises(ValidationError):
            band_curve(nonzero)

    def test_empty_rejected(self):
        empty = DataMatrix(values=np.zeros((0, 1)), col_labels=("T:621",), row_meta=())
        with pytest.raises(EmptyDataError):
            adulteration_curve(empty, np.zeros(0))

    def test_feature_length_must_match_rows(self, oil_study_full):
        data, config = oil_study_full
        matrix = transmittance_matrix(list(data.transmittance)[:18])
        with pytest.raises(ValidationError):
            adulteration_curve(matrix, np.zeros(matrix.n_rows - 1))


# --------------------------------------------------------------------------
# Oracle: the per-sample extractor paths the matrix API replaced
# --------------------------------------------------------------------------


def oracle_band_extractor(wavelength_nm, block=10):
    def extract(sample):
        rows = superpixels(sample.cube, block=block)
        return rows[:, sample.cube.band_set.index(wavelength_nm)]

    return extract


def oracle_lda_extractor(samples, block=10):
    matrix = build_matrix([s for s in samples if s.cube.mode is Mode.TRANSMITTANCE],
                          Mode.TRANSMITTANCE, block=block)
    proj = lda_fit(matrix, k=1)

    def extract(sample):
        return (superpixels(sample.cube, block=block) - proj.mean) @ proj.components[0]

    return extract


def oracle_curve(samples, extractor, reference_label=0.0, n_bins=24, epsilon=1e-9):
    values = {s.id: np.asarray(extractor(s), dtype=np.float64).ravel() for s in samples}
    pool = np.concatenate(list(values.values()))
    lo, hi = float(pool.min()), float(pool.max())
    if hi <= lo:
        hi = lo + 1e-9
    span = (lo, hi)
    reference = [values[s.id] for s in samples if s.label.adulteration_pct == reference_label]
    p = histogram(np.concatenate(reference), n_bins=n_bins, value_range=span, epsilon=epsilon)
    return [
        (s.label.adulteration_pct,
         kl_divergence(p, histogram(values[s.id], n_bins=n_bins, value_range=span, epsilon=epsilon)))
        for s in samples
    ]


@st.composite
def oil_datasets(draw):
    levels = draw(st.lists(st.sampled_from([0.0, 5.0, 10.0, 20.0, 40.0]), min_size=2, max_size=4,
                           unique=True).map(sorted))
    config = CaseStudyConfig.for_kind(
        StudyKind.COCONUT_OIL,
        levels=tuple(levels),
        replicates=draw(st.integers(2, 3)),
        width=draw(st.sampled_from([20, 30])),
        height=draw(st.sampled_from([20, 30])),
    )
    samples = list(generate_case_study(config, draw(st.integers(0, 2**32 - 1))).transmittance)
    return samples, draw(st.sampled_from(levels)), draw(st.integers(1, 32))


class TestCurveOracle:
    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=oil_datasets(), band=st.sampled_from([428, 621, 850]))
    def test_band_points_equal_per_sample_path(self, data, band):
        samples, reference, n_bins = data
        want = oracle_curve(samples, oracle_band_extractor(band), reference, n_bins)
        assert band_curve(samples, band, reference_label=reference, n_bins=n_bins) == want

    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=oil_datasets())
    def test_lda_points_equal_per_sample_path(self, data):
        samples, reference, n_bins = data
        want = oracle_curve(samples, oracle_lda_extractor(samples), reference, n_bins)
        matrix = transmittance_matrix(samples)
        got = adulteration_curve(matrix, lda_feature_extractor(matrix), reference, n_bins)
        assert got == want
