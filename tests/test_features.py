import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from dualmsi.core import Label, Mode
from dualmsi.errors import ModeMismatchError, UnpairedSampleError, ValidationError
from dualmsi.features import (
    DataMatrix,
    _fisher_eigh,
    apply_normalizer,
    band_normalize,
    build_matrix,
    lda_fit,
    merge,
    pca_fit,
    project,
    spectral_signature,
    superpixels,
)

from conftest import make_cube, random_raw_sample


def fisher_ratio(values: np.ndarray, keys: np.ndarray, direction: np.ndarray) -> float:
    """Between/within variance ratio of labeled data along a direction."""
    z = values @ direction
    classes = np.unique(keys)
    grand = z.mean()
    between = sum((z[keys == c].mean() - grand) ** 2 * (keys == c).sum() for c in classes)
    within = sum(((z[keys == c] - z[keys == c].mean()) ** 2).sum() for c in classes)
    return float(between / within) if within > 0 else float("inf")


def matrix_from(values, labels=None, cols=None, sample_ids=None):
    values = np.asarray(values, dtype=np.float64)
    n, d = values.shape
    labels = labels if labels is not None else [0.0] * n
    sample_ids = sample_ids if sample_ids is not None else [f"s{i}" for i in range(n)]
    cols = tuple(cols) if cols is not None else tuple(f"x{i}" for i in range(d))
    meta = tuple((sid, Label.adulteration(float(l))) for sid, l in zip(sample_ids, labels))
    return DataMatrix(values=values, col_labels=cols, row_meta=meta)


class TestSuperpixels:
    def test_hundred_superpixels_for_standard_crop(self):
        rng = np.random.default_rng(0)
        cube = make_cube({530: rng.integers(0, 65536, (100, 100)).astype(np.uint16)})
        assert superpixels(cube).shape == (100, 1)

    def test_constant_band(self):
        cube = make_cube({530: np.full((20, 20), 1234, dtype=np.uint16)})
        rows = superpixels(cube)
        assert np.allclose(rows, 1234.0)
        assert rows.shape == (4, 1)

    def test_quadrant_means(self):
        # quadrant constants picked so each block mean is exact
        values = np.zeros((20, 20), dtype=np.uint16)
        values[:10, :10] = 100
        values[:10, 10:] = 200
        values[10:, :10] = 300
        values[10:, 10:] = 400
        cube = make_cube({530: values})
        rows = superpixels(cube, block=10)
        assert rows[:, 0].tolist() == [100.0, 200.0, 300.0, 400.0]

    def test_remainder_dropped_with_warning(self):
        cube = make_cube({530: np.ones((25, 25), dtype=np.uint16)})
        with pytest.warns(UserWarning, match="trailing"):
            rows = superpixels(cube, block=10)
        assert rows.shape == (4, 1)

    def test_block_larger_than_frame(self):
        cube = make_cube({530: np.ones((8, 8), dtype=np.uint16)})
        with pytest.raises(ValidationError):
            superpixels(cube, block=10)

    def test_band_column_order_follows_band_set(self):
        cube = make_cube({
            405: np.full((10, 10), 10, dtype=np.uint16),
            530: np.full((10, 10), 20, dtype=np.uint16),
            660: np.full((10, 10), 30, dtype=np.uint16),
        })
        rows = superpixels(cube)
        assert rows[0].tolist() == [10.0, 20.0, 30.0]


class TestBuildAndMerge:
    def test_single_sample_rows_equal_superpixels(self):
        rng = np.random.default_rng(1)
        sample = random_raw_sample(rng, "one", n_bands=3, size=20)
        matrix = build_matrix([sample], Mode.REFLECTANCE)
        assert np.array_equal(matrix.values, superpixels(sample.cube))
        assert matrix.col_labels == ("R:405", "R:530", "R:660")
        assert all(sid == "one" for sid, _ in matrix.row_meta)

    def test_mode_mismatch(self):
        rng = np.random.default_rng(2)
        refl = random_raw_sample(rng, "a", mode=Mode.REFLECTANCE)
        with pytest.raises(ModeMismatchError):
            build_matrix([refl], Mode.TRANSMITTANCE)

    @pytest.mark.parametrize("n_samples", [1, 2, 5])
    def test_generator_equals_list(self, n_samples):
        rng = np.random.default_rng(5)
        samples = [random_raw_sample(rng, f"s{i}", n_bands=4, size=20 + 10 * (i % 2))
                   for i in range(n_samples)]
        want = build_matrix(samples, Mode.REFLECTANCE)
        got = build_matrix((s for s in samples), Mode.REFLECTANCE)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.col_labels == want.col_labels and got.row_meta == want.row_meta

    @pytest.mark.parametrize(
        "bad, error",
        [(None, ValidationError), ("mode", ModeMismatchError), ("bands", ValidationError)],
        ids=["empty", "mode", "band-set"],
    )
    def test_generator_raises_the_list_errors(self, bad, error):
        rng = np.random.default_rng(6)
        samples = [random_raw_sample(rng, f"s{i}", n_bands=3, size=10) for i in range(3)]
        if bad is None:
            samples = []
        elif bad == "mode":
            samples[2] = random_raw_sample(rng, "t", n_bands=3, size=10, mode=Mode.TRANSMITTANCE)
        else:
            samples[2] = random_raw_sample(rng, "b", n_bands=4, size=10)
        for given_samples in (samples, (s for s in samples)):
            with pytest.raises(error):
                build_matrix(given_samples, Mode.REFLECTANCE)

    def test_merge_concatenates_columns(self):
        r = matrix_from([[1.0, 2.0]], cols=("R:405", "R:530"), sample_ids=["s"])
        t = matrix_from([[3.0, 4.0]], cols=("T:405", "T:530"), sample_ids=["s"])
        m = merge(r, t)
        assert m.values.tolist() == [[1.0, 2.0, 3.0, 4.0]]
        assert m.col_labels == ("R:405", "R:530", "T:405", "T:530")

    def test_merge_shape_law(self):
        # p samples x alpha rows x B bands -> (alpha p) x 2B
        alpha, p, bands = 4, 3, 13
        rng = np.random.default_rng(3)
        ids = [f"s{i}" for i in range(p) for _ in range(alpha)]
        r = matrix_from(rng.random((alpha * p, bands)), sample_ids=ids,
                        cols=[f"R:{i}" for i in range(bands)])
        t = matrix_from(rng.random((alpha * p, bands)), sample_ids=ids,
                        cols=[f"T:{i}" for i in range(bands)])
        m = merge(r, t)
        assert m.values.shape == (alpha * p, 2 * bands)
        assert np.array_equal(m.values[:, :bands], r.values)

    def test_merge_rejects_unpaired(self):
        r = matrix_from([[1.0]], sample_ids=["s1"], cols=["R:405"])
        t = matrix_from([[1.0]], sample_ids=["s2"], cols=["T:405"])
        with pytest.raises(UnpairedSampleError):
            merge(r, t)

    def test_merge_rejects_row_count_mismatch(self):
        r = matrix_from([[1.0], [2.0]], sample_ids=["s", "s"], cols=["R:405"])
        t = matrix_from([[1.0], [2.0]], sample_ids=["s", "x"], cols=["T:405"])
        with pytest.raises(UnpairedSampleError):
            merge(r, t)

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        matrix = matrix_from(rng.random((5, 3)), labels=[0, 0, 5, 5, 10])
        path = tmp_path / "m.csv"
        matrix.to_csv(path)
        again = DataMatrix.from_csv(path)
        assert np.allclose(again.values, matrix.values)
        assert again.col_labels == matrix.col_labels
        assert [m[1].key for m in again.row_meta] == [0, 0, 5, 5, 10]


class TestNormalize:
    def test_midpoint_and_range(self):
        train = matrix_from([[0.2], [0.8], [0.5]])
        norm, scaled = band_normalize(train)
        assert scaled.values[:, 0] == pytest.approx([0.0, 1.0, 0.5])

    def test_constant_column_maps_to_half(self):
        train = matrix_from([[0.4, 1.0], [0.4, 2.0]])
        _, scaled = band_normalize(train)
        assert np.all(scaled.values[:, 0] == 0.5)

    def test_test_values_clipped(self):
        train = matrix_from([[0.2], [0.8]])
        norm, _ = band_normalize(train)
        test = matrix_from([[0.0], [1.0], [0.5]])
        out = apply_normalizer(norm, test)
        assert out.values[:, 0] == pytest.approx([0.0, 1.0, 0.5])

    def test_train_columns_span_unit_interval(self):
        rng = np.random.default_rng(5)
        train = matrix_from(rng.normal(size=(50, 4)))
        _, scaled = band_normalize(train)
        assert np.allclose(scaled.values.min(axis=0), 0.0)
        assert np.allclose(scaled.values.max(axis=0), 1.0)


class TestSignature:
    def test_constant_band(self):
        matrix = matrix_from([[0.3], [0.3]], labels=[5, 5])
        table = spectral_signature(matrix)
        assert table.labels == (5.0,)
        assert table.means[0, 0] == pytest.approx(0.3)
        assert table.sds[0, 0] == 0.0

    def test_two_classes_two_rows(self):
        matrix = matrix_from([[0.1], [0.9]], labels=[0, 40])
        table = spectral_signature(matrix)
        assert table.labels == (0.0, 40.0)
        assert table.row(0.0)[0] == pytest.approx(0.1)
        assert table.row(40.0)[0] == pytest.approx(0.9)


class TestPca:
    def test_rank_one_line(self):
        # points on y = 2x, zero mean: single direction (1,2)/sqrt(5),
        # second eigenvalue exactly zero
        x = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        data = np.column_stack([x, 2 * x])
        proj = pca_fit(matrix_from(data), k=2)
        expect = np.array([1.0, 2.0]) / np.sqrt(5.0)
        assert np.allclose(np.abs(proj.components[0]), expect, atol=1e-12)
        assert proj.components[0][1] > 0  # sign convention: largest entry positive
        assert proj.eigenvalues[1] == pytest.approx(0.0, abs=1e-12)

    def test_axis_aligned_variances(self):
        rng = np.random.default_rng(6)
        data = np.column_stack([2.0 * rng.normal(size=400), 1.0 * rng.normal(size=400)])
        proj = pca_fit(matrix_from(data), k=2)
        assert abs(proj.components[0][0]) > 0.99
        assert abs(proj.components[1][1]) > 0.99
        assert proj.eigenvalues[0] == pytest.approx(4.0, rel=0.2)
        assert proj.eigenvalues[1] == pytest.approx(1.0, rel=0.2)

    def test_full_rank_inverse_transform(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(20, 4))
        matrix = matrix_from(data)
        proj = pca_fit(matrix, k=4)
        projected = project(proj, matrix)
        recovered = projected.values @ proj.components + proj.mean
        assert np.allclose(recovered, data, atol=1e-9)

    def test_matches_bruteforce_eigendecomposition(self):
        # independent oracle: dense covariance + general eigensolver
        rng = np.random.default_rng(8)
        for _ in range(10):
            data = rng.normal(size=(6, 3))
            proj = pca_fit(matrix_from(data), k=3)
            centered = data - data.mean(axis=0)
            cov = np.zeros((3, 3))
            for row in centered:
                cov += np.outer(row, row)
            cov /= data.shape[0] - 1
            eigvals, eigvecs = np.linalg.eig(cov)
            order = np.argsort(eigvals.real)[::-1]
            eigvals = eigvals.real[order]
            eigvecs = eigvecs.real[:, order]
            assert np.allclose(proj.eigenvalues, eigvals, atol=1e-9)
            for k in range(3):
                dot = abs(np.dot(proj.components[k], eigvecs[:, k]))
                assert dot == pytest.approx(1.0, abs=1e-9)

    def test_transformed_covariance_is_diagonal(self):
        rng = np.random.default_rng(9)
        data = rng.normal(size=(60, 5)) @ rng.normal(size=(5, 5))
        matrix = matrix_from(data)
        proj = pca_fit(matrix, k=5)
        z = project(proj, matrix).values
        cov = np.cov(z.T)
        off = cov - np.diag(np.diag(cov))
        assert np.abs(off).max() < 1e-8
        assert proj.eigenvalues.sum() == pytest.approx(np.trace(np.cov(data.T)), abs=1e-8)

    def test_variance_target_selects_k(self):
        rng = np.random.default_rng(10)
        base = rng.normal(size=(200, 1))
        data = np.hstack([base, base * 0.999 + 1e-4 * rng.normal(size=(200, 1))])
        proj = pca_fit(matrix_from(data), variance_target=0.99)
        assert proj.k == 1

    def test_k_out_of_range(self):
        with pytest.raises(ValidationError):
            pca_fit(matrix_from(np.zeros((5, 2))), k=3)
        with pytest.raises(ValidationError):
            pca_fit(matrix_from(np.zeros((1, 2))), k=1)


class TestLda:
    def test_two_class_one_dim_threshold(self):
        # classes at -1 and +1 with tight spread: the single discriminant
        # projects them to separable scores; midway threshold is perfect
        rng = np.random.default_rng(11)
        a = -1.0 + 0.05 * rng.normal(size=30)
        b = 1.0 + 0.05 * rng.normal(size=30)
        data = np.concatenate([a, b])[:, None]
        labels = [0.0] * 30 + [40.0] * 30
        matrix = matrix_from(data, labels=labels)
        proj = lda_fit(matrix, k=1)
        z = project(proj, matrix).values[:, 0]
        thr = (z[:30].mean() + z[30:].mean()) / 2
        predicted = np.where(z > thr, 40.0, 0.0) if z[30:].mean() > thr else np.where(z < thr, 40.0, 0.0)
        assert np.all(predicted == np.array(labels))

    def test_k_bounded_by_classes(self):
        rng = np.random.default_rng(12)
        data = rng.normal(size=(90, 5))
        labels = np.repeat(np.arange(9.0), 10)
        matrix = matrix_from(data, labels=labels)
        with pytest.raises(ValidationError):
            lda_fit(matrix, k=9)
        proj = lda_fit(matrix)
        assert proj.k == 5  # min(C-1, d)

    def test_identical_means_gives_tiny_eigenvalues(self):
        rng = np.random.default_rng(13)
        data = rng.normal(size=(40, 3))
        labels = [0.0, 1.0] * 20
        shuffled = data.copy()
        matrix = matrix_from(shuffled, labels=labels)
        proj = lda_fit(matrix, k=1)
        assert proj.eigenvalues[0] < 1.0

    def test_component_beats_random_directions(self):
        rng = np.random.default_rng(14)
        means = np.array([[0, 0], [2, 1], [1, 3]])
        data = np.vstack([m + 0.4 * rng.normal(size=(40, 2)) for m in means])
        labels = np.repeat([0.0, 1.0, 2.0], 40)
        matrix = matrix_from(data, labels=labels)
        proj = lda_fit(matrix, k=1)
        best = fisher_ratio(data, labels, proj.components[0])
        for _ in range(100):
            direction = rng.normal(size=2)
            direction /= np.linalg.norm(direction)
            assert fisher_ratio(data, labels, direction) <= best + 1e-9

    def test_requires_two_rows_per_class(self):
        matrix = matrix_from([[0.0], [1.0], [2.0]], labels=[0, 0, 1])
        with pytest.raises(ValidationError):
            lda_fit(matrix)

    def test_loadings_cover_columns(self):
        rng = np.random.default_rng(15)
        data = rng.normal(size=(60, 4))
        labels = np.repeat([0.0, 1.0, 2.0], 20)
        matrix = matrix_from(data, labels=labels, cols=("R:405", "R:530", "T:405", "T:530"))
        proj = lda_fit(matrix)
        loadings = proj.loadings()
        assert loadings.shape == (4,)
        assert np.all(loadings >= 0)
        assert proj.col_labels == ("R:405", "R:530", "T:405", "T:530")

    @pytest.mark.parametrize("values", [
        [[0.0], [1.0], [np.nan], [2.0]],
        [[0.0], [np.inf], [1.0], [2.0]],
        [[1e300], [-1e300], [1e300], [-1e300]],  # the scatter overflows
    ], ids=["nan", "inf", "overflow"])
    def test_non_finite_values_raise(self, values):
        matrix = matrix_from(values, labels=[0, 0, 1, 1])
        with pytest.raises(ValidationError, match="not finite"):
            lda_fit(matrix)

    @pytest.mark.parametrize("columns", [
        lambda x: np.column_stack([x, x]),  # rank-deficient scatter
        lambda x: np.column_stack([x, np.ones_like(x)]),  # a column without scatter
    ], ids=["duplicate-column", "constant-column"])
    def test_near_zero_explicit_shrinkage_raises(self, columns):
        rng = np.random.default_rng(16)
        matrix = matrix_from(columns(rng.normal(size=40)), labels=[0.0, 1.0] * 20)
        assert lda_fit(matrix).k == 1  # the default shrinkage makes it definite
        with pytest.raises(ValidationError, match="not positive definite"):
            lda_fit(matrix, shrinkage=1e-300)


@st.composite
def definite_pencils(draw):
    """A between-class scatter ``a`` (PSD, rank at most C-1) and a symmetric
    positive definite ``b``: either a random one with a condition number
    up to 1e8, or the shrinkage form s_w + gamma I of a rank-deficient s_w
    with lda_fit's default gamma."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d, c = draw(st.integers(1, 26)), draw(st.integers(2, 12))
    means = rng.normal(size=(c - 1, d)) * 10.0 ** draw(st.floats(-3, 3))
    a = means.T @ means
    scale = 10.0 ** draw(st.floats(-3, 3))
    if draw(st.booleans()):
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        b = (q * np.logspace(0, -draw(st.floats(0, 8)), d)) @ q.T * scale
    else:
        rows = rng.normal(size=(draw(st.integers(1, d)), d)) * scale
        s_w = rows.T @ rows
        b = s_w + 1e-6 * np.trace(s_w) / d * np.eye(d)
    return a, b


class TestFisherEigh:
    @settings(max_examples=150, deadline=None)
    @given(pencil=definite_pencils())
    def test_matches_scipy_generalized_eigh(self, pencil):
        a, b = pencil
        got_w, got_v = _fisher_eigh(a, b)
        want_w, want_v = scipy.linalg.eigh(a, b)
        top = np.abs(want_w).max()
        np.testing.assert_allclose(got_w, want_w, rtol=0, atol=1e-7 * top)
        # eigenvectors are defined up to scale and sign, and only where
        # the eigenvalue is apart from its neighbours
        got_v = got_v / np.linalg.norm(got_v, axis=0)
        want_v = want_v / np.linalg.norm(want_v, axis=0)
        got_v *= np.where((got_v * want_v).sum(axis=0) < 0, -1.0, 1.0)
        padded = np.concatenate([[-np.inf], want_w, [np.inf]])
        gap = np.minimum(np.diff(padded)[:-1], np.diff(padded)[1:])
        clear = gap > 1e-3 * top
        np.testing.assert_allclose(got_v[:, clear], want_v[:, clear], rtol=0, atol=1e-6)

    def test_singular_b_raises(self):
        with pytest.raises(ValidationError, match="not positive definite"):
            _fisher_eigh(np.eye(2), np.ones((2, 2)))
