import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from dualmsi.core import Mode
from dualmsi.errors import ValidationError
from dualmsi import harness
from dualmsi.harness import (
    repeatability_report,
    run_case_study,
    run_pipeline_on_matrix,
    spatial_consistency_report,
    study_classifiers,
    write_accuracy_csv,
    write_grid,
    write_study_bundle,
)
from dualmsi.divergence import write_kl_curve_csv
from dualmsi.jsonio import write_json
from dualmsi.studies import CaseStudyConfig, StudyKind, render_white_reference
from dualmsi.synth import (
    Curve,
    IlluminationProfile,
    MaterialSpec,
    MixtureSpec,
    NoiseSpec,
    SceneConfig,
    render,
    render_repeat_series,
)


def repeat_scene(seed=3, drift=0.0441):
    from dualmsi.core import BandSet

    material = MaterialSpec("m", Curve.constant(0.6), Curve.constant(0.4))
    return SceneConfig(
        band_set=BandSet((405, 530, 660)),
        mode=Mode.REFLECTANCE,
        mixture=MixtureSpec.pure(material),
        illumination=IlluminationProfile(),
        noise=NoiseSpec(drift_amplitude=drift),
        width=40,
        height=40,
        rng_seed=seed,
    )


class TestRepeatability:
    def test_zero_drift_zero_deviation(self):
        series = render_repeat_series(repeat_scene(drift=0.0), 5)
        # shot/texture noise off for an exact zero
        scene = repeat_scene()
        from dataclasses import replace

        quiet = replace(scene, noise=NoiseSpec.none())
        series = render_repeat_series(quiet, 5)
        report = repeatability_report(series)
        assert report["max_deviation_pct"] == 0.0

    def test_default_drift_within_calibrated_band(self):
        series = render_repeat_series(repeat_scene(), 10)
        report = repeatability_report(series)
        assert 0.0 < report["max_deviation_pct"] <= 5.0

    def test_single_capture_rejected(self):
        series = list(render_repeat_series(repeat_scene(), 2))
        with pytest.raises(ValidationError):
            repeatability_report(series[:1])

    @staticmethod
    def report_peak(n_times: int) -> int:
        """The traced peak of a report over a series of ``n_times`` captures."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            repeatability_report(render_repeat_series(repeat_scene(), n_times))
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_report_holds_one_capture_at_a_time(self):
        # the series renders each capture when the report reaches it, and the
        # report keeps only its band means
        self.report_peak(2)  # first calls fill lazy caches
        short, long = self.report_peak(3), self.report_peak(60)
        capture = render(repeat_scene())
        capture_bytes = capture.cube.values.nbytes + capture.cube.dark.nbytes
        # slack: 60 captures' band means and drift draws
        assert long - short < capture_bytes + 16 * 1024

    def test_mixed_band_sets_rejected(self):
        from dataclasses import replace

        from dualmsi.core import BandSet

        scene = repeat_scene()
        other = replace(scene, band_set=BandSet((405, 530, 770)))
        with pytest.raises(ValidationError):
            repeatability_report([render(scene), render(other)])


class TestSpatialConsistency:
    def test_flat_noise_free_white_has_zero_heatmap(self):
        config = CaseStudyConfig.for_kind(
            StudyKind.TURMERIC,
            illumination=IlluminationProfile.flat(0.6),
            noise=NoiseSpec.none(),
            width=30,
            height=30,
        )
        white = render_white_reference(config, Mode.REFLECTANCE, master_seed=0)
        report = spatial_consistency_report(white)
        assert np.allclose(report.before.heatmap, 0.0)

    def test_corrections_reduce_mean_distance(self):
        config = CaseStudyConfig.for_kind(StudyKind.TURMERIC, width=60, height=60)
        white = render_white_reference(config, Mode.REFLECTANCE, master_seed=2)
        report = spatial_consistency_report(white)
        assert report.after.mean_distance < report.before.mean_distance

    def test_recommended_region_nonempty(self):
        config = CaseStudyConfig.for_kind(StudyKind.TURMERIC, width=60, height=60)
        white = render_white_reference(config, Mode.REFLECTANCE, master_seed=2)
        report = spatial_consistency_report(white)
        assert report.region_size > 0
        assert report.recommended_region.shape == (60, 60)


class TestPipelineRunner:
    def test_unknown_projection_rejected(self, turmeric_study_small):
        from dualmsi.features import build_matrix

        data, config = turmeric_study_small
        matrix = build_matrix(
            [s for s in data.reflectance],
            Mode.REFLECTANCE,
        )
        with pytest.raises(ValidationError):
            run_pipeline_on_matrix(matrix, study_classifiers(0, ["knn"]), 0, projection="TSNE")


STUDY_FILES = {
    StudyKind.TURMERIC: {
        "report.json", "accuracy_corrected.csv", "accuracy_uncorrected.csv", "merged_lda_scatter.dat",
    },
    StudyKind.COLOR_CHART: {"report.json", "accuracy.csv"},
    StudyKind.COCONUT_OIL: {"report.json", "accuracy.csv", "kl_curve.csv", "functional_map.json"},
}


class TestDeterminism:
    def run_oil(self):
        config = CaseStudyConfig.for_kind(StudyKind.COCONUT_OIL, replicates=3, width=30, height=30)
        return run_case_study(config, master_seed=9, classifier_kinds=("knn",))

    def test_oil_study_bundle_is_reproducible(self):
        a, b = self.run_oil(), self.run_oil()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_bundle_files_byte_identical(self, tmp_path):
        bundle = self.run_oil()
        write_study_bundle(bundle, tmp_path / "a")
        write_study_bundle(bundle, tmp_path / "b")
        for name in ("report.json", "kl_curve.csv", "functional_map.json", "accuracy.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("kind", list(StudyKind), ids=lambda k: k.value)
    def test_every_study_reruns_to_identical_files(self, tmp_path, kind):
        config = CaseStudyConfig.for_kind(kind, replicates=3, width=30, height=30)
        for out in ("a", "b"):
            bundle = run_case_study(config, master_seed=9, classifier_kinds=("knn",))
            write_study_bundle(bundle, tmp_path / out)
        names = {path.name for path in (tmp_path / "a").iterdir()}
        assert names == STUDY_FILES[kind]
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestWriters:
    def test_kl_curve_csv_format(self, tmp_path):
        points = [[0.0, 0.5], [0.0, 0.6], [5.0, 1.5]]
        path = tmp_path / "curve.csv"
        write_kl_curve_csv(points, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "level_pct,replicate,kl"
        assert lines[1].startswith("0.0,0,")
        assert lines[2].startswith("0.0,1,")
        assert lines[3].startswith("5.0,0,")

    def test_accuracy_csv(self, tmp_path):
        tables = {"PCA": {"knn": 0.9, "svm": 0.8}, "LDA": {"knn": 0.95, "svm": 0.85}}
        path = tmp_path / "acc.csv"
        write_accuracy_csv(tables, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "classifier,PCA,LDA"
        assert lines[1] == "knn,0.9,0.95"

    def test_grid_writer(self, tmp_path):
        path = tmp_path / "g.dat"
        write_grid(np.array([[1.0, 2.0], [3.0, 4.0]]), path)
        text = path.read_text()
        assert "0 0 1" in text and "1 1 4" in text
        assert "\n\n" in text  # row separator for gnuplot

    def test_json_writer_sorted(self, tmp_path):
        path = tmp_path / "r.json"
        write_json({"b": 1, "a": 2}, path)
        assert path.read_text() == '{\n  "a": 2,\n  "b": 1\n}\n'


class _FirstRun(Exception):
    pass


class TestMatrixStageMemory:
    """``run_case_study`` renders each sample when its rows are built and
    drops it before the next: the matrix stage holds one raw cube at a
    time, not the study's raw data."""

    SIZE = 60

    @classmethod
    def traced_peak(cls, replicates: int) -> tuple[int, int]:
        """Traced peak from the start of a turmeric study to its first
        ``run_pipeline_on_matrix`` call, when every matrix is built, and
        the row count of the matrix that call receives."""
        config = CaseStudyConfig.for_kind(
            StudyKind.TURMERIC, replicates=replicates, levels=(0.0, 40.0), width=cls.SIZE, height=cls.SIZE
        )
        seen = []

        def first_run(matrix, *args, **kwargs):
            seen.append((tracemalloc.get_traced_memory()[1], matrix.n_rows))
            raise _FirstRun

        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with mock.patch.object(harness, "run_pipeline_on_matrix", first_run):
                with pytest.raises(_FirstRun):
                    run_case_study(config, 0)
        finally:
            tracemalloc.stop()
        peak, rows = seen[0]
        return peak - base, rows

    def test_peak_does_not_grow_with_the_replicate_count(self):
        cells = (self.SIZE // 10) ** 2
        _, warm_rows = self.traced_peak(replicates=2)  # first calls fill lazy caches
        assert warm_rows == 2 * 2 * cells
        small, _ = self.traced_peak(replicates=2)  # 8 captures
        large, rows = self.traced_peak(replicates=6)  # 24 captures
        assert rows == 6 * 2 * cells
        raw_cube = (13 + 1) * self.SIZE * self.SIZE * 2  # uint16 band frames and dark frame
        # the 8 more samples per mode add rows to R (13 columns), T (13) and
        # merged (26) matrices of both correction variants
        extra_rows = 2 * (6 - 2) * 2 * cells * (13 + 13 + 26) * 8
        assert large - small < raw_cube + extra_rows
