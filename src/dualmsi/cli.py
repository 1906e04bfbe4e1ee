"""Batch command-line interface.

One binary with subcommands; global flags ``--config`` (JSON file),
``--seed`` and ``--out``.  Exit codes: 0 success, 2 validation error,
3 IO error.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from pathlib import Path
from typing import get_type_hints

from . import __version__
from .core import Mode, json_value, load_dataset, save_dataset
from .devicelink import (
    FirmwareConfig,
    SimCamera,
    capture_handshake,
    render_transcript,
    run_sequential_capture,
)
from .divergence import adulteration_curve, fit_linear, lda_feature_extractor, median_curve
from .errors import DualMsiError, ValidationError
from .features import DataMatrix, build_matrix, merge
from .harness import (
    repeatability_report,
    run_case_study,
    spatial_consistency_report,
    write_consistency_report,
    write_json,
    write_kl_curve_csv,
    write_study_bundle,
)
from .models import (
    Granularity,
    MODEL_KINDS,
    evaluate,
    load_model,
    save_model,
    split_matrix,
    stratified_split,
)
from .preprocess import (
    PipelineOptions,
    fit_corrections,
    preprocess_pipeline,
    quantize_sample,
)
from .studies import CaseStudyConfig, StudyKind, generate_case_study, render_white_reference
from .synth import MixtureSpec, SceneConfig, render_repeat_series
from . import materials

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    text = Path(path).read_text()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed config {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValidationError("config must be a JSON object")
    return obj


def _key(config: dict, key: str, hint, default=None):
    """``config[key]`` read as ``hint`` by ``json_value``, or ``default`` if absent."""
    return json_value(hint, config[key], key) if key in config else default


def _enum_value(enum, value, what: str):
    try:
        return enum(value)
    except ValueError:
        choices = ", ".join(k.value for k in enum)
        raise ValidationError(f"unknown {what} {value!r} (choose from: {choices})") from None


def _study_kind(name: str) -> StudyKind:
    return _enum_value(StudyKind, name, "study kind")


def _require_out(args) -> Path:
    if args.out is None:
        raise ValidationError("this command needs --out")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_synth(args, config: dict) -> int:
    """Generate a case-study dataset (plus white references) on disk."""
    kind = _study_kind(config.get("kind", args.kind or "turmeric"))
    study_config = CaseStudyConfig.from_json(kind, config)
    out = _require_out(args)
    data = generate_case_study(kind, study_config, args.seed)
    for mode, samples in (
        (Mode.REFLECTANCE, data.reflectance),
        (Mode.TRANSMITTANCE, data.transmittance),
    ):
        if samples:
            save_dataset(samples, out / mode.value)
            white = render_white_reference(study_config, mode, args.seed)
            save_dataset([white], out / f"white_{mode.value}")
    print(f"wrote {len(data.reflectance)} reflectance + {len(data.transmittance)} "
          f"transmittance samples to {out}")
    return EXIT_OK


def cmd_preprocess(args, config: dict) -> int:
    """Apply the correction pipeline to a dataset directory.

    Output frames are re-quantized to 16-bit for storage.
    """
    if "input" not in config:
        raise ValidationError("config needs 'input' (dataset directory)")
    out = _require_out(args)
    samples = load_dataset(_key(config, "input", str))
    options = _key(config, "options", PipelineOptions, PipelineOptions())
    corrections = None
    if white := _key(config, "white", str):
        corrections = fit_corrections(load_dataset(white)[0])
    quantized = [
        quantize_sample(preprocess_pipeline(s, corrections, options)) for s in samples
    ]
    save_dataset(quantized, out)
    print(f"preprocessed {len(quantized)} samples -> {out}")
    return EXIT_OK


def cmd_matrix(args, config: dict) -> int:
    """Build a data matrix CSV from one or two (paired) dataset directories."""
    out = _require_out(args)
    if "reflectance" in config and "transmittance" in config:
        r = build_matrix(load_dataset(_key(config, "reflectance", str)), Mode.REFLECTANCE)
        t = build_matrix(load_dataset(_key(config, "transmittance", str)), Mode.TRANSMITTANCE)
        matrix = merge(r, t)
    elif "input" in config:
        mode = _enum_value(Mode, config.get("mode", "reflectance"), "mode")
        matrix = build_matrix(load_dataset(_key(config, "input", str)), mode)
    else:
        raise ValidationError("config needs 'input' or 'reflectance'+'transmittance'")
    path = out / _key(config, "name", str, "matrix.csv")
    matrix.to_csv(path)
    print(f"wrote {matrix.n_rows}x{matrix.n_cols} matrix to {path}")
    return EXIT_OK


def _matrix_csv(config: dict) -> DataMatrix:
    label_kind = _key(config, "label_kind", str, "adulteration")
    return DataMatrix.from_csv(_key(config, "matrix", str), label_kind)


def cmd_train(args, config: dict) -> int:
    """Split a matrix CSV, train one classifier, save model + split."""
    if "matrix" not in config:
        raise ValidationError("config needs 'matrix' (CSV path)")
    out = _require_out(args)
    matrix = _matrix_csv(config)
    kind = _key(config, "model", str, "decision_tree")
    if kind not in MODEL_KINDS:
        raise ValidationError(f"unknown model {kind!r} (choose from {sorted(MODEL_KINDS)})")
    granularity = _enum_value(Granularity, config.get("granularity", "sample"), "granularity")
    params = config.get("params", {})
    if not isinstance(params, dict):
        raise ValidationError("'params' must be a JSON object")
    allowed = inspect.signature(MODEL_KINDS[kind]).parameters
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise ValidationError(f"unknown {kind} params {unknown} (choose from {sorted(allowed)})")
    hints = get_type_hints(MODEL_KINDS[kind].__init__)
    params = {k: json_value(hints[k], v, f"{kind} param {k}") for k, v in params.items()}
    split = stratified_split(matrix, _key(config, "fraction", float, 0.75), args.seed, granularity)
    train, test = split_matrix(matrix, split)
    model = MODEL_KINDS[kind](**params).fit(train.values, train.label_keys())
    save_model(model, out / "model.json")
    write_json(split.to_json(), out / "split.json")
    cm = evaluate(model, test)
    write_json(cm.to_json(), out / "train_eval.json")
    print(f"{kind}: test accuracy {cm.accuracy:.4f} ({len(split.test_ids)} test units)")
    return EXIT_OK


def cmd_eval(args, config: dict) -> int:
    """Evaluate a saved model against a matrix CSV."""
    for key in ("model", "matrix"):
        if key not in config:
            raise ValidationError(f"config needs '{key}'")
    out = _require_out(args)
    model = load_model(_key(config, "model", str))
    matrix = _matrix_csv(config)
    cm = evaluate(model, matrix)
    write_json(cm.to_json(), out / "eval.json")
    print(f"accuracy {cm.accuracy:.4f} over {cm.total} rows")
    return EXIT_OK


def cmd_kl_regress(args, config: dict) -> int:
    """KL adulteration curve + linear functional map from a dataset directory."""
    if "input" not in config:
        raise ValidationError("config needs 'input' (transmittance dataset directory)")
    out = _require_out(args)
    matrix = build_matrix(load_dataset(_key(config, "input", str)), Mode.TRANSMITTANCE)
    points = adulteration_curve(
        matrix,
        lda_feature_extractor(matrix),
        reference_label=_key(config, "reference_label", float, 0.0),
        n_bins=_key(config, "n_bins", int, 24),
    )
    medians = median_curve(points)
    fmap = fit_linear(points)
    write_kl_curve_csv(points, out / "kl_curve.csv")
    write_json(fmap.to_json(), out / "functional_map.json")
    write_json(fit_linear(medians).to_json(), out / "functional_map_medians.json")
    print(f"functional map: slope {fmap.slope:.4f}, intercept {fmap.intercept:.4f}, "
          f"R^2 {fmap.r_squared:.4f}")
    return EXIT_OK


def cmd_study(args, config: dict, kind: StudyKind) -> int:
    out = _require_out(args)
    study_config = CaseStudyConfig.from_json(kind, config)
    bundle = run_case_study(kind, study_config, args.seed)
    write_study_bundle(bundle, out)
    print(f"{kind.value} study -> {out / 'report.json'}")
    return EXIT_OK


def cmd_consistency(args, config: dict) -> int:
    """Spatial consistency report from a white dataset (or a synthetic one)."""
    out = _require_out(args)
    if "white" in config:
        white = load_dataset(_key(config, "white", str))[0]
    else:
        kind = _study_kind(config.get("kind", "turmeric"))
        study_config = CaseStudyConfig.from_json(kind, config)
        mode = _enum_value(Mode, config.get("mode", "reflectance"), "mode")
        white = render_white_reference(study_config, mode, args.seed)
    report = spatial_consistency_report(white)
    write_consistency_report(report, out, band=_key(config, "band", int | None))
    print(
        f"mean spectral distance {report.before.mean_distance:.5f} -> "
        f"{report.after.mean_distance:.5f}; recommended region {report.region_size} px"
    )
    return EXIT_OK


def cmd_repeatability(args, config: dict) -> int:
    out = _require_out(args)
    kind = _study_kind(config.get("kind", "turmeric"))
    study_config = CaseStudyConfig.from_json(kind, config)
    scene = SceneConfig(
        band_set=study_config.band_set,
        mode=_enum_value(Mode, config.get("mode", "reflectance"), "mode"),
        mixture=MixtureSpec.pure(materials.TURMERIC),
        illumination=study_config.illumination,
        noise=study_config.noise,
        width=study_config.width,
        height=study_config.height,
        rng_seed=args.seed,
    )
    series = render_repeat_series(
        scene, _key(config, "n_times", int, 10), _key(config, "drift_amplitude", float | None)
    )
    report = repeatability_report(series)
    report["per_band_deviation_pct"] = {
        str(k): v for k, v in report["per_band_deviation_pct"].items()
    }
    write_json(report, out / "repeatability.json")
    print(f"max deviation {report['max_deviation_pct']:.3f}% over {report['n_captures']} captures")
    return EXIT_OK


def cmd_protocol_sim(args, config: dict) -> int:
    """Run the capture handshake simulation and write the transcript."""
    out = _require_out(args)
    fw = FirmwareConfig(
        n_bands=_key(config, "n_bands", int, 13),
        timeout_steps=_key(config, "timeout_steps", int, 16),
    )
    camera = SimCamera(
        exposure_steps=_key(config, "exposure_steps", int, 1),
        fail=_key(config, "fail", bool, False),
    )
    if _key(config, "sequential", bool, True):
        transcript = run_sequential_capture(fw, camera)
    else:
        transcript = capture_handshake(_key(config, "band", int, 0), fw, camera)
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


COMMANDS = {
    "synth": cmd_synth,
    "preprocess": cmd_preprocess,
    "matrix": cmd_matrix,
    "train": cmd_train,
    "eval": cmd_eval,
    "kl-regress": cmd_kl_regress,
    "colorcheck": lambda a, c: cmd_study(a, c, StudyKind.COLOR_CHART),
    "turmeric": lambda a, c: cmd_study(a, c, StudyKind.TURMERIC),
    "coconut-oil": lambda a, c: cmd_study(a, c, StudyKind.COCONUT_OIL),
    "consistency": cmd_consistency,
    "repeatability": cmd_repeatability,
    "protocol-sim": cmd_protocol_sim,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        return COMMANDS[args.command](args, config)
    except (ValidationError, DualMsiError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
