"""Reliability studies and end-to-end case-study drivers.

Every study is a pure function of (config, master seed): generated data,
splits, model seeds and report contents all derive from the master seed,
so re-running writes byte-identical JSON/CSV artifacts.

Report files are plain data (JSON summaries, CSV tables, gnuplot-style
grid files for surfaces and heatmaps); nothing here depends on a plotting
library.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import materials
from .core import Mode, Sample, SpectralCube, load_dataset
from .divergence import adulteration_curve, fit_linear, median_curve, write_kl_curve_csv
from .errors import ValidationError
from .features import (
    DataMatrix,
    apply_normalizer,
    band_normalize,
    build_matrix,
    lda_fit,
    merge,
    pca_fit,
    project,
    spectral_signature,
    stack,
)
from .jsonio import write_json
from .models import (
    DecisionTree,
    Granularity,
    KNearestNeighbors,
    LinearSVM,
    LogisticRegressionGD,
    RandomForest,
    evaluate,
    split_matrix,
    stratified_split,
)
from .preprocess import (
    Corrections,
    PipelineOptions,
    box_mean,
    fit_corrections,
    preprocess_pipeline,
)
from .studies import (
    STUDIES,
    CaseStudyConfig,
    StudyKind,
    derive_seed,
    plan_case_study,
    render_white_reference,
)
from .synth import MixtureSpec, SceneConfig, render, render_repeat_series


# --------------------------------------------------------------------------
# Spatial consistency (intensity surface + spectral-distance heatmap)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SpatialVariant:
    """One correction variant of the white-reference study; the frames of
    its ``cube`` are the per-band intensity surfaces."""

    cube: SpectralCube
    heatmap: np.ndarray
    center: tuple[int, int]
    mean_distance: float
    smoothed_intensity: np.ndarray


@dataclass(frozen=True)
class SpatialConsistencyReport:
    before: SpatialVariant
    after: SpatialVariant
    recommended_region: np.ndarray

    @property
    def region_size(self) -> int:
        return int(self.recommended_region.sum())


def _spatial_variant(sample: Sample) -> SpatialVariant:
    cube = sample.cube
    total = cube.values.sum(axis=0)
    smoothed = box_mean(total, 11)
    flat_index = int(np.argmax(smoothed))
    cy, cx = np.unravel_index(flat_index, smoothed.shape)
    center_vec = cube.values[:, cy, cx]
    heatmap = np.sqrt(((cube.values - center_vec[:, None, None]) ** 2).sum(axis=0))
    return SpatialVariant(
        cube=cube,
        heatmap=heatmap,
        center=(int(cx), int(cy)),
        mean_distance=float(heatmap.mean()),
        smoothed_intensity=smoothed,
    )


def spatial_consistency_report(white_sample: Sample) -> SpatialConsistencyReport:
    """Before/after-correction intensity surfaces and spectral-distance heatmap.

    The heatmap is the Euclidean distance of each pixel's spectral vector
    from the vector at the peak of the smoothed total intensity.  The
    recommended acquisition region is the intersection of top-quartile
    intensity and bottom-quartile distance of the corrected variant.
    """
    corrections = fit_corrections(white_sample)
    plain = PipelineOptions(spatial=False, spectral=False, bilateral=None)
    full = PipelineOptions(spectral=True, bilateral=None)
    before = _spatial_variant(preprocess_pipeline(white_sample, None, plain))
    after = _spatial_variant(preprocess_pipeline(white_sample, corrections, full))

    intensity_cut = np.quantile(after.smoothed_intensity, 0.75)
    distance_cut = np.quantile(after.heatmap, 0.25)
    region = (after.smoothed_intensity >= intensity_cut) & (after.heatmap <= distance_cut)
    return SpatialConsistencyReport(before=before, after=after, recommended_region=region)


# --------------------------------------------------------------------------
# Repeatability (temporal drift)
# --------------------------------------------------------------------------


def repeatability_report(series: Sequence[Sample]) -> dict:
    """Per-band maximum percent deviation of mean intensity from the series mean."""
    series = list(series)
    if len(series) < 2:
        raise ValidationError("repeatability needs at least 2 captures")
    band_set = series[0].cube.band_set
    if any(s.cube.band_set != band_set for s in series):
        raise ValidationError("repeatability captures must share one band set")
    band_means = np.stack([s.cube.values.mean(axis=(1, 2)) for s in series], axis=1)
    deviations = {}
    for wl, means in zip(band_set, band_means):
        center = means.mean()
        if center == 0 or np.all(means == means[0]):
            # identical captures deviate by exactly zero; averaging identical
            # floats can otherwise leave a one-ulp residue
            deviations[wl] = 0.0
        else:
            deviations[wl] = float(np.abs(means - center).max() / center * 100.0)
    return {
        "per_band_deviation_pct": deviations,
        "max_deviation_pct": max(deviations.values()),
        "n_captures": len(series),
    }


# --------------------------------------------------------------------------
# Case-study drivers
# --------------------------------------------------------------------------

TRAIN_FRACTION = 0.75


def study_classifiers(master_seed: int, kinds: Sequence[str] | None = None) -> dict:
    """Fresh classifier instances with study-scale training budgets.

    Epoch counts and forest size are smaller than the library defaults, to
    keep a full study inside its time budget.  The epoch counts are caps,
    not a sign of convergence: all six logistic fits of the default
    turmeric study run their 800 epochs without the gradient falling
    below ``tol``, and ``LinearSVM`` has no stopping test at all.
    """
    all_models = {
        "decision_tree": lambda: DecisionTree(),
        "knn": lambda: KNearestNeighbors(k=5),
        "logistic": lambda: LogisticRegressionGD(lr=5.0, lr_decay=1e-3, epochs=800),
        "random_forest": lambda: RandomForest(n_trees=30, seed=derive_seed(master_seed, "forest")),
        "svm": lambda: LinearSVM(c=10.0, lr=50.0, lr_decay=5e-2, epochs=1200),
    }
    if kinds is None:
        return all_models
    return {k: all_models[k] for k in kinds}


def _standardize(train: DataMatrix, others: list[DataMatrix], eigenvalues: np.ndarray):
    """Normalize projected components, weighted by their discriminability.

    Each component is standardized on train statistics and then scaled by
    sqrt(eigenvalue / leading eigenvalue).  Plain per-component
    standardization would inflate near-zero-eigenvalue directions (which
    mostly encode per-replicate capture drift) to unit variance, letting
    distance- and margin-based classifiers memorize replicates.
    """
    mean = train.values.mean(axis=0)
    sd = train.values.std(axis=0)
    sd = np.where(sd == 0, 1.0, sd)
    top = max(float(eigenvalues[0]), 1e-12)
    weight = np.sqrt(np.maximum(eigenvalues, 0.0) / top)
    out = [train.with_values((train.values - mean) / sd * weight)]
    out.extend(m.with_values((m.values - mean) / sd * weight) for m in others)
    return out


def run_pipeline_on_matrix(
    matrix: DataMatrix,
    classifiers: Mapping[str, callable],
    split_seed: int,
    projection: str = "LDA",
) -> dict:
    """Split, normalize, project, train and evaluate one matrix.

    Returns each classifier's accuracy plus the fitted projection and the
    projected test matrix (for loadings and scatter reports).
    """
    split = stratified_split(matrix, TRAIN_FRACTION, seed=split_seed, granularity=Granularity.SAMPLE)
    train, test = split_matrix(matrix, split)
    normalizer, train_n = band_normalize(train)
    test_n = apply_normalizer(normalizer, test)

    fits = {"LDA": lda_fit, "PCA": pca_fit}  # built per call, so a patched fit is the one used
    if projection not in fits:
        raise ValidationError(f"unknown projection {projection!r}")
    proj = fits[projection](train_n)
    train_p = project(proj, train_n)
    test_p = project(proj, test_n)
    train_p, test_p = _standardize(train_p, [test_p], proj.eigenvalues)

    accuracies = {
        name: evaluate(make().fit(train_p.values, train_p.label_keys()), test_p).accuracy
        for name, make in classifiers.items()
    }
    return {"projection": proj, "test_projected": test_p, "accuracies": accuracies}


# Preprocessing of each correction variant.  "uncorrected" turns the
# fitted spatial and spectral gains off; both run dark subtraction and
# bilateral.
VARIANT_OPTIONS = {
    "corrected": PipelineOptions(),  # dark + spatial + mode-default spectral + bilateral
    "uncorrected": PipelineOptions(spatial=False, spectral=False),
}


def _variant_matrices(
    plan: Sequence[SceneConfig], corrections: Mapping[Mode, Corrections], variants: Sequence[str]
) -> dict[str, dict[str, DataMatrix]]:
    """Each variant's matrices: one per mode, plus their merge when there
    are two.

    One pass over the plan builds them all.  Each scene is rendered
    once, run through every variant's pipeline and reduced to superpixel
    rows, and its cubes are dropped before the next scene renders: one
    raw and one preprocessed cube are alive at a time.
    """
    parts: dict[str, dict[Mode, list[DataMatrix]]] = {v: {} for v in variants}
    for scene in plan:
        raw, mode = render(scene), scene.mode
        for v in variants:
            rows = build_matrix([preprocess_pipeline(raw, corrections[mode], VARIANT_OPTIONS[v])], mode)
            parts[v].setdefault(mode, []).append(rows)
        del raw  # before the next scene renders
    out = {}
    for v, by_mode in parts.items():
        matrices = {mode.value: stack(rows) for mode, rows in by_mode.items()}
        if len(matrices) == 2:
            matrices["merged"] = merge(matrices["reflectance"], matrices["transmittance"])
        out[v] = matrices
    return out


def _nest(cells: Mapping[tuple[str, ...], object]):
    """Nest values keyed by equal-length tuples, leaving out the key
    positions that hold a single value across all keys."""
    keys = list(cells)
    kept = [i for i in range(len(keys[0])) if len({key[i] for key in keys}) > 1]
    if not kept:
        return cells[keys[0]]
    out: dict = {}
    for key, value in cells.items():
        node = out
        for i in kept[:-1]:
            node = node.setdefault(key[i], {})
        node[key[kept[-1]]] = value
    return out


def _signature_summary(matrix: DataMatrix) -> dict:
    table = spectral_signature(matrix)
    return {
        "bands": list(table.bands),
        "levels": list(table.labels),
        "means": [[round(float(v), 6) for v in row] for row in table.means],
        "sds": [[round(float(v), 6) for v in row] for row in table.sds],
    }


def run_case_study(
    config: CaseStudyConfig, master_seed: int = 0, classifier_kinds: Sequence[str] | None = None
) -> dict:
    """Run the ``config.kind`` case study as its ``STUDIES`` spec lays out.

    The study's captures are planned, not rendered up front: one pass
    renders each capture once, feeds it to every correction variant of
    the spec and keeps only its superpixel rows, so one raw cube is alive
    at a time (``_variant_matrices``).  Each variant's matrices then run
    through every projection of the spec.  The report holds the accuracy
    tables, the corrected transmittance signatures, the spec's
    scatter/loadings/KL extras, and the best accuracy per matrix when the
    study merges modes.
    """
    spec = STUDIES[config.kind]
    if spec.kl_band is not None and spec.kl_band not in config.band_set:
        raise ValidationError(f"the {config.kind.value} study needs band {spec.kl_band} nm in its band set")
    plan = plan_case_study(config, master_seed)
    counts = Counter(scene.mode for scene in plan)
    corrections = {mode: fit_corrections(render_white_reference(config, mode, master_seed)) for mode in counts}
    classifiers = study_classifiers(
        master_seed, spec.classifiers if classifier_kinds is None else classifier_kinds
    )
    split_seed = derive_seed(master_seed, spec.split_tag)
    variant_matrices = _variant_matrices(plan, corrections, spec.variants)

    bundle: dict = {
        "kind": config.kind.value,
        "master_seed": master_seed,
        "counts": {mode.value: n for mode, n in counts.items()},
    }
    tables = {}
    for variant, matrices in variant_matrices.items():
        corrected = variant == "corrected"
        for name, matrix in matrices.items():
            for projection in spec.projections:
                run = run_pipeline_on_matrix(matrix, classifiers, split_seed, projection=projection)
                tables[variant, name, projection] = {
                    clf: round(accuracy, 6) for clf, accuracy in run["accuracies"].items()
                }
                if corrected and projection == "LDA":
                    lda_run = run  # the last matrix's run is the one reported
        if not corrected:
            continue
        if spec.scatter_key:
            test_p = lda_run["test_projected"]
            # two classes give one LD component; more give at least two
            bundle[spec.scatter_key] = [
                [*(round(float(v), 6) for v in row[:2]), meta[1].key]
                for row, meta in zip(test_p.values, test_p.row_meta)
            ]
        if spec.loadings_key:
            proj = lda_run["projection"]
            bundle[spec.loadings_key] = {
                col: round(float(w), 6) for col, w in zip(proj.col_labels, proj.loadings())
            }
        if "transmittance" in matrices:
            bundle["signatures"] = _signature_summary(matrices["transmittance"])
        if spec.kl_band is not None:
            transmittance = matrices["transmittance"]
            band = transmittance.values[:, config.band_set.index(spec.kl_band)]
            points = adulteration_curve(transmittance, band)
            medians = median_curve(points)
            bundle["kl_points"] = [[lv, round(kl, 6)] for lv, kl in points]
            bundle["kl_medians"] = [[lv, round(kl, 6)] for lv, kl in medians]
            bundle["functional_map"] = fit_linear(points).to_json()
            bundle["functional_map_medians"] = fit_linear(medians).to_json()
    bundle["accuracy"] = _nest(tables)
    if len(counts) == 2:
        bundle["best"] = _nest({key: max(table.values()) for key, table in tables.items()})
    return bundle


# --------------------------------------------------------------------------
# Report writers (deterministic bytes)
# --------------------------------------------------------------------------


def write_grid(values: np.ndarray, path) -> None:
    """Gnuplot-style grid data: ``x y value`` rows with blank lines per row."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = []
    for y, row in enumerate(np.asarray(values)):
        for x, v in enumerate(row):
            lines.append(f"{x} {y} {float(v):.9g}")
        lines.append("")
    path.write_text("\n".join(lines) + "\n")


def write_accuracy_csv(tables: Mapping[str, Mapping[str, float]], path) -> None:
    """Accuracy CSV: one row per classifier, one column per table."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    columns = list(tables)
    names = sorted({name for table in tables.values() for name in table})
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["classifier", *columns])
        for name in names:
            writer.writerow([name, *(tables[c].get(name, "") for c in columns)])


def write_study_bundle(bundle: dict, out_dir) -> None:
    """Write the JSON summary plus the flat CSV/plot artifacts of a study.

    The accuracy CSVs follow the shape of ``bundle["accuracy"]``: one file
    per correction variant when there are several, else ``accuracy.csv``
    (a single table becomes the one column of the study's one mode).
    """
    out = Path(out_dir)
    write_json(bundle, out / "report.json")
    accuracy = bundle["accuracy"]
    first = next(iter(accuracy.values()))
    if not isinstance(first, dict):
        write_accuracy_csv({mode: accuracy for mode in bundle["counts"]}, out / "accuracy.csv")
    elif isinstance(next(iter(first.values())), dict):
        for variant, tables in accuracy.items():
            write_accuracy_csv(tables, out / f"accuracy_{variant}.csv")
    else:
        write_accuracy_csv(accuracy, out / "accuracy.csv")
    if scatter := bundle.get("merged_lda_scatter"):
        header = [f"ld{i + 1}" for i in range(len(scatter[0]) - 1)] + ["label"]
        rows = [" ".join(map(str, row)) for row in [header, *scatter]]
        (out / "merged_lda_scatter.dat").write_text("\n".join(rows) + "\n")
    if "kl_points" in bundle:
        write_kl_curve_csv(bundle["kl_points"], out / "kl_curve.csv")
        write_json(bundle["functional_map"], out / "functional_map.json")


def write_consistency_report(report: SpatialConsistencyReport, out_dir, band: int | None = None) -> None:
    wavelengths = report.after.cube.band_set.wavelengths_nm
    shown = band if band is not None else wavelengths[len(wavelengths) // 2]
    if shown not in wavelengths:
        raise ValidationError(f"band {shown} nm is not in the band set {wavelengths}")
    out = Path(out_dir)
    summary = {
        "center_before": list(report.before.center),
        "center_after": list(report.after.center),
        "mean_distance_before": report.before.mean_distance,
        "mean_distance_after": report.after.mean_distance,
        "recommended_region_pixels": report.region_size,
    }
    write_json(summary, out / "consistency.json")
    write_grid(report.before.cube.frame(shown), out / f"surface_{shown}_before.dat")
    write_grid(report.after.cube.frame(shown), out / f"surface_{shown}_after.dat")
    write_grid(report.before.heatmap, out / "heatmap_before.dat")
    write_grid(report.after.heatmap, out / "heatmap_after.dat")
    write_grid(report.recommended_region.astype(float), out / "recommended_region.dat")


# --------------------------------------------------------------------------
# Command handlers (the three studies, ``dualmsi consistency`` and
# ``dualmsi repeatability``, listed in ``cli.COMMANDS``)
# --------------------------------------------------------------------------


def cmd_study(args, out: Path, kind: str, /, **study: CaseStudyConfig) -> None:
    """Run one case study (``kind`` is a ``StudyKind`` value) and write its bundle."""
    kind = StudyKind(kind)
    study_config = CaseStudyConfig.from_json(kind, study)
    bundle = run_case_study(study_config, args.seed)
    write_study_bundle(bundle, out)
    print(f"{kind.value} study -> {out / 'report.json'}")


def cmd_consistency(
    args, out: Path, white: str | None = None, kind: StudyKind = StudyKind.TURMERIC,
    mode: Mode = Mode.REFLECTANCE, band: int | None = None, **study: CaseStudyConfig,
) -> None:
    """Spatial consistency report from a white dataset (or a synthetic one)."""
    study_config = CaseStudyConfig.from_json(kind, study)
    if white is None:
        white_sample = render_white_reference(study_config, mode, args.seed)
    else:
        white_sample = next(load_dataset(white))
    report = spatial_consistency_report(white_sample)
    write_consistency_report(report, out, band=band)
    print(
        f"mean spectral distance {report.before.mean_distance:.5f} -> "
        f"{report.after.mean_distance:.5f}; recommended region {report.region_size} px"
    )


def cmd_repeatability(
    args, out: Path, kind: StudyKind = StudyKind.TURMERIC, mode: Mode = Mode.REFLECTANCE,
    n_times: int = 10, **study: CaseStudyConfig,
) -> None:
    study_config = CaseStudyConfig.from_json(kind, study)
    scene = study_config.scene(mode, MixtureSpec.pure(materials.TURMERIC), args.seed)
    series = render_repeat_series(scene, n_times)
    report = repeatability_report(series)
    report["per_band_deviation_pct"] = {
        str(k): v for k, v in report["per_band_deviation_pct"].items()
    }
    write_json(report, out / "repeatability.json")
    print(f"max deviation {report['max_deviation_pct']:.3f}% over {report['n_captures']} captures")
