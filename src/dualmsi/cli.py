"""Batch command-line interface.

One binary with subcommands; global flags ``--config`` (JSON file),
``--seed`` and ``--out``.  Exit codes: 0 success, 2 validation error,
3 IO error.

A handler's keyword parameters are its config schema: ``main`` reads each
key of the config object as the parameter it names, typed by its
annotation (``core.json_call``), and a key that names none exits 2.  The
study-reading handlers also take the ``CaseStudyConfig`` fields as
``**study`` and pass them on to ``CaseStudyConfig.from_json``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .core import Mode, json_call, load_dataset, read_json, save_dataset, write_json
from .devicelink import (
    FirmwareConfig,
    SimCamera,
    capture_handshake,
    render_transcript,
    run_sequential_capture,
)
from .divergence import adulteration_curve, fit_linear, lda_feature_extractor, median_curve
from .errors import DualMsiError, ValidationError
from .features import DataMatrix, LabelKind, build_matrix, merge
from .harness import (
    repeatability_report,
    run_case_study,
    spatial_consistency_report,
    write_consistency_report,
    write_kl_curve_csv,
    write_study_bundle,
)
from .models import (
    Granularity,
    MODEL_KINDS,
    evaluate,
    model_from_json,
    split_matrix,
    stratified_split,
)
from .preprocess import (
    PipelineOptions,
    fit_corrections,
    preprocess_pipeline,
    quantize_sample,
)
from .studies import CaseStudyConfig, StudyKind, plan_case_study, render_white_reference
from .synth import MixtureSpec, render_repeat_series
from . import materials

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    obj = read_json(path, "config")
    if not isinstance(obj, dict):
        raise ValidationError("config must be a JSON object")
    return obj


def _require_out(args) -> Path:
    if args.out is None:
        raise ValidationError("this command needs --out")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_synth(
    args, out: Path, kind: StudyKind | None = None, **study: CaseStudyConfig
) -> int:
    """Generate a case-study dataset (plus white references) on disk.

    Each mode's captures are rendered and written one at a time."""
    kind = kind or StudyKind(args.kind or "turmeric")
    study_config = CaseStudyConfig.from_json(kind, study)
    plan = plan_case_study(kind, study_config, args.seed)
    written = dict.fromkeys(Mode, 0)
    for mode in Mode:
        captures = [capture for capture in plan if capture.scene.mode is mode]
        if captures:
            written[mode] = save_dataset((c.render() for c in captures), out / mode.value)
            white = render_white_reference(study_config, mode, args.seed)
            save_dataset([white], out / f"white_{mode.value}")
    print(f"wrote {written[Mode.REFLECTANCE]} reflectance + {written[Mode.TRANSMITTANCE]} "
          f"transmittance samples to {out}")
    return EXIT_OK


def cmd_preprocess(
    args, out: Path, input: str, white: str | None = None,
    options: PipelineOptions = PipelineOptions(),
) -> int:
    """Apply the correction pipeline to a dataset directory, one sample at
    a time.

    Output frames are re-quantized to 16-bit for storage.
    """
    samples = load_dataset(input)
    corrections = fit_corrections(next(load_dataset(white))) if white else None
    written = save_dataset(
        (quantize_sample(preprocess_pipeline(s, corrections, options)) for s in samples), out
    )
    print(f"preprocessed {written} samples -> {out}")
    return EXIT_OK


def cmd_matrix(
    args, out: Path, input: str | None = None, mode: Mode | None = None,
    reflectance: str | None = None, transmittance: str | None = None, name: str = "matrix.csv",
) -> int:
    """Build a data matrix CSV from one or two (paired) dataset directories.

    ``name`` is the CSV's file name inside ``--out``.
    """
    if name in ("", ".", "..") or Path(name).name != name or "\0" in name:
        raise ValidationError(f"matrix name must be a plain file name, got {name!r}")
    if input is None and mode is None and None not in (reflectance, transmittance):
        r = build_matrix(load_dataset(reflectance), Mode.REFLECTANCE)
        t = build_matrix(load_dataset(transmittance), Mode.TRANSMITTANCE)
        matrix = merge(r, t)
    elif input is not None and reflectance is None and transmittance is None:
        matrix = build_matrix(load_dataset(input), mode or Mode.REFLECTANCE)
    else:
        raise ValidationError("config needs 'input' (and optionally 'mode') or else both "
                              "'reflectance' and 'transmittance'")
    path = out / name
    matrix.to_csv(path)
    print(f"wrote {matrix.n_rows}x{matrix.n_cols} matrix to {path}")
    return EXIT_OK


def cmd_train(
    args, out: Path, matrix: str, model: str = "decision_tree", params: dict | None = None,
    fraction: float = 0.75, granularity: Granularity = Granularity.SAMPLE,
    label_kind: LabelKind = LabelKind.ADULTERATION,
) -> int:
    """Split a matrix CSV, train one classifier, save model + split."""
    data = DataMatrix.from_csv(matrix, label_kind)
    if model not in MODEL_KINDS:
        raise ValidationError(f"unknown model {model!r} (choose from {sorted(MODEL_KINDS)})")
    classifier = json_call(MODEL_KINDS[model], params or {}, f"{model} params")
    split = stratified_split(data, fraction, args.seed, granularity)
    train, test = split_matrix(data, split)
    classifier.fit(train.values, train.label_keys())
    write_json(classifier.to_json(), out / "model.json")
    write_json(split.to_json(), out / "split.json")
    cm = evaluate(classifier, test)
    write_json(cm.to_json(), out / "train_eval.json")
    print(f"{model}: test accuracy {cm.accuracy:.4f} ({len(split.test_ids)} test units)")
    return EXIT_OK


def cmd_eval(
    args, out: Path, model: str, matrix: str, label_kind: LabelKind = LabelKind.ADULTERATION
) -> int:
    """Evaluate a saved model against a matrix CSV."""
    classifier = model_from_json(read_json(model, "model JSON"))
    cm = evaluate(classifier, DataMatrix.from_csv(matrix, label_kind))
    write_json(cm.to_json(), out / "eval.json")
    print(f"accuracy {cm.accuracy:.4f} over {cm.total} rows")
    return EXIT_OK


def cmd_kl_regress(
    args, out: Path, input: str, reference_label: float = 0.0, n_bins: int = 24
) -> int:
    """KL adulteration curve + linear functional map from a dataset directory."""
    matrix = build_matrix(load_dataset(input), Mode.TRANSMITTANCE)
    points = adulteration_curve(
        matrix, lda_feature_extractor(matrix), reference_label=reference_label, n_bins=n_bins
    )
    medians = median_curve(points)
    fmap = fit_linear(points)
    write_kl_curve_csv(points, out / "kl_curve.csv")
    write_json(fmap.to_json(), out / "functional_map.json")
    write_json(fit_linear(medians).to_json(), out / "functional_map_medians.json")
    print(f"functional map: slope {fmap.slope:.4f}, intercept {fmap.intercept:.4f}, "
          f"R^2 {fmap.r_squared:.4f}")
    return EXIT_OK


def cmd_study(args, out: Path, kind: StudyKind, /, **study: CaseStudyConfig) -> int:
    study_config = CaseStudyConfig.from_json(kind, study)
    bundle = run_case_study(kind, study_config, args.seed)
    write_study_bundle(bundle, out)
    print(f"{kind.value} study -> {out / 'report.json'}")
    return EXIT_OK


def cmd_consistency(
    args, out: Path, white: str | None = None, kind: StudyKind = StudyKind.TURMERIC,
    mode: Mode = Mode.REFLECTANCE, band: int | None = None, **study: CaseStudyConfig,
) -> int:
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
    return EXIT_OK


def cmd_repeatability(
    args, out: Path, kind: StudyKind = StudyKind.TURMERIC, mode: Mode = Mode.REFLECTANCE,
    n_times: int = 10, drift_amplitude: float | None = None, **study: CaseStudyConfig,
) -> int:
    study_config = CaseStudyConfig.from_json(kind, study)
    scene = study_config.scene(mode, MixtureSpec.pure(materials.TURMERIC), args.seed)
    series = render_repeat_series(scene, n_times, drift_amplitude)
    report = repeatability_report(series)
    report["per_band_deviation_pct"] = {
        str(k): v for k, v in report["per_band_deviation_pct"].items()
    }
    write_json(report, out / "repeatability.json")
    print(f"max deviation {report['max_deviation_pct']:.3f}% over {report['n_captures']} captures")
    return EXIT_OK


def cmd_protocol_sim(
    args, out: Path, n_bands: int = 13, timeout_steps: int = 16, exposure_steps: int = 1,
    fail: bool = False, sequential: bool = True, band: int = 0,
) -> int:
    """Run the capture handshake simulation and write the transcript."""
    fw = FirmwareConfig(n_bands=n_bands, timeout_steps=timeout_steps)
    camera = SimCamera(exposure_steps=exposure_steps, fail=fail)
    if sequential:
        transcript = run_sequential_capture(fw, camera)
    else:
        transcript = capture_handshake(band, fw, camera)
    (out / "transcript.log").write_text(render_transcript(transcript))
    print(f"{len(transcript)} events -> {out / 'transcript.log'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualmsi",
        description="Dual-mode multispectral imaging analysis toolkit",
    )
    parser.add_argument("--version", action="version", version=f"dualmsi {__version__}")
    parser.add_argument("--config", help="JSON config file", default=None)
    parser.add_argument("--seed", type=int, default=0, help="master seed (u64)")
    parser.add_argument("--out", help="output directory", default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a synthetic case-study dataset")
    synth.add_argument("--kind", choices=[k.value for k in StudyKind], default=None)
    sub.add_parser("preprocess", help="apply the correction pipeline to a dataset")
    sub.add_parser("matrix", help="build a superpixel data matrix CSV")
    sub.add_parser("train", help="train one classifier on a matrix CSV")
    sub.add_parser("eval", help="evaluate a saved model on a matrix CSV")
    sub.add_parser("kl-regress", help="KL curve + functional map for a dataset")
    sub.add_parser("colorcheck", help="run the 24-color palette study")
    sub.add_parser("turmeric", help="run the powder adulteration study")
    sub.add_parser("coconut-oil", help="run the liquid adulteration study")
    sub.add_parser("consistency", help="spatial consistency report")
    sub.add_parser("repeatability", help="temporal repeatability report")
    sub.add_parser("protocol-sim", help="controller/camera handshake simulation")
    return parser


# Each command's handler, and the positional arguments it takes after
# ``args`` and ``out``; its keyword parameters are read from the config.
COMMANDS = {
    "synth": (cmd_synth,),
    "preprocess": (cmd_preprocess,),
    "matrix": (cmd_matrix,),
    "train": (cmd_train,),
    "eval": (cmd_eval,),
    "kl-regress": (cmd_kl_regress,),
    "colorcheck": (cmd_study, StudyKind.COLOR_CHART),
    "turmeric": (cmd_study, StudyKind.TURMERIC),
    "coconut-oil": (cmd_study, StudyKind.COCONUT_OIL),
    "consistency": (cmd_consistency,),
    "repeatability": (cmd_repeatability,),
    "protocol-sim": (cmd_protocol_sim,),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        out = _require_out(args)
        handler, *extra = COMMANDS[args.command]
        return json_call(handler, config, f"{args.command} config", args, out, *extra)
    except (ValidationError, DualMsiError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
