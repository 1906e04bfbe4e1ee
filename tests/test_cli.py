import inspect
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, is_dataclass, replace
from enum import Enum
from pathlib import Path
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dualmsi
from dualmsi.cli import COMMANDS, command_handler, main
from dualmsi.core import WORKING_MEMORY, Label, Mode, Sample, crop, load_dataset, save_dataset
from dualmsi.jsonio import json_value
from dualmsi.models import MODEL_KINDS
from dualmsi.preprocess import PipelineOptions, fit_corrections, preprocess_pipeline, quantize_sample
from dualmsi.studies import CaseStudyConfig, StudyKind, generate_case_study, render_white_reference

from conftest import random_raw_sample
from test_features import matrix_from


def run(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def synth_dirs(tmp_path_factory):
    """One small turmeric dataset generated through the CLI."""
    out = tmp_path_factory.mktemp("cli") / "data"
    config = tmp_path_factory.mktemp("cfg") / "synth.json"
    config.write_text(json.dumps({"kind": "turmeric", "replicates": 2, "width": 30, "height": 30}))
    code = run(["--config", config, "--seed", 5, "--out", out, "synth"])
    assert code == 0
    return out


class TestSynthCommand:
    def test_writes_both_modes_and_whites(self, synth_dirs):
        refl = list(load_dataset(synth_dirs / "reflectance"))
        trans = list(load_dataset(synth_dirs / "transmittance"))
        assert len(refl) == 18 and len(trans) == 18
        assert (synth_dirs / "white_reflectance").is_dir()

    def test_unknown_kind_is_validation_error(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"kind": "chocolate"}))
        assert run(["--config", config, "--out", tmp_path / "o", "synth"]) == 2

    def test_missing_out_is_validation_error(self, tmp_path, capsys):
        assert run(["synth"]) == 2
        assert capsys.readouterr().err == "error: this command needs --out\n"

    @pytest.mark.parametrize(
        "extra",
        [{"replicates": "3"}, {"replicates": 2.5}, {"width": True}, {"levels": "0,5"},
         {"noise": {"bogus": 1}}, {"noise": {"dark_sd": -1}}, {"illumination": [1]},
         {"kind": "color_chart", "n_classes": 30, "replicates": 1, "width": 10, "height": 10},
         {"kind": "color_chart", "n_classes": 0, "replicates": 1, "width": 10, "height": 10}],
        ids=["string-int", "float-int", "bool-int", "string-levels", "unknown-noise-key",
             "negative-noise", "list-illumination", "classes-beyond-palette", "no-classes"],
    )
    def test_bad_study_config_values_exit_2(self, tmp_path, extra):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"kind": "turmeric", **extra}))
        assert run(["--config", config, "--out", tmp_path / "o", "synth"]) == 2
        assert not (tmp_path / "o" / "reflectance").exists()


class TestPreprocessMatrixTrainEval(object):
    def test_full_flow(self, synth_dirs, tmp_path):
        pre_cfg = tmp_path / "pre.json"
        pre_cfg.write_text(json.dumps({
            "input": str(synth_dirs / "transmittance"),
            "white": str(synth_dirs / "white_transmittance"),
            "options": {"bilateral": None},
        }))
        pre_out = tmp_path / "pre"
        assert run(["--config", pre_cfg, "--out", pre_out, "preprocess"]) == 0
        assert len(list(load_dataset(pre_out))) == 18

        mat_cfg = tmp_path / "mat.json"
        mat_cfg.write_text(json.dumps({"input": str(pre_out), "mode": "transmittance"}))
        mat_out = tmp_path / "mat"
        assert run(["--config", mat_cfg, "--out", mat_out, "matrix"]) == 0
        matrix_path = mat_out / "matrix.csv"
        assert matrix_path.is_file()

        train_cfg = tmp_path / "train.json"
        train_cfg.write_text(json.dumps({"matrix": str(matrix_path), "model": "decision_tree"}))
        train_out = tmp_path / "train"
        assert run(["--config", train_cfg, "--seed", 1, "--out", train_out, "train"]) == 0
        assert (train_out / "model.json").is_file()
        assert (train_out / "split.json").is_file()

        eval_cfg = tmp_path / "eval.json"
        eval_cfg.write_text(json.dumps({
            "model": str(train_out / "model.json"),
            "matrix": str(matrix_path),
        }))
        eval_out = tmp_path / "eval"
        assert run(["--config", eval_cfg, "--out", eval_out, "eval"]) == 0
        report = json.loads((eval_out / "eval.json").read_text())
        assert 0.0 <= report["accuracy"] <= 1.0

    def test_merged_matrix(self, synth_dirs, tmp_path):
        cfg = tmp_path / "m.json"
        cfg.write_text(json.dumps({
            "reflectance": str(synth_dirs / "reflectance"),
            "transmittance": str(synth_dirs / "transmittance"),
        }))
        out = tmp_path / "merged"
        assert run(["--config", cfg, "--out", out, "matrix"]) == 0
        header = (out / "matrix.csv").read_text().splitlines()[0]
        assert header.count("R:") == 13 and header.count("T:") == 13

    @pytest.mark.parametrize(
        "options",
        [{"crop": [1, 2]}, {"dark": "no"}, {"bilateral": {"sigma": 1.0}}],
        ids=["short-crop", "string-flag", "unknown-bilateral-key"],
    )
    def test_preprocess_with_bad_options_exits_2(self, synth_dirs, tmp_path, options):
        cfg = tmp_path / "pre.json"
        cfg.write_text(json.dumps({
            "input": str(synth_dirs / "transmittance"),
            "white": str(synth_dirs / "white_transmittance"),
            "options": options,
        }))
        assert run(["--config", cfg, "--out", tmp_path / "o", "preprocess"]) == 2
        assert not (tmp_path / "o").exists()

    def test_crop_also_applies_to_the_white(self, synth_dirs, tmp_path):
        # the gains are fitted at the window the crop leaves
        cfg = tmp_path / "pre.json"
        cfg.write_text(json.dumps({
            "input": str(synth_dirs / "reflectance"),
            "white": str(synth_dirs / "white_reflectance"),
            "options": {"crop": [0, 0, 20, 20]},
        }))
        assert run(["--config", cfg, "--out", tmp_path / "o", "preprocess"]) == 0
        white = next(load_dataset(synth_dirs / "white_reflectance"))
        corrections = fit_corrections(replace(white, cube=crop(white.cube, 0, 0, 20, 20)))
        options = PipelineOptions(crop=(0, 0, 20, 20))
        want = [quantize_sample(preprocess_pipeline(s, corrections, options))
                for s in load_dataset(synth_dirs / "reflectance")]
        assert list(load_dataset(tmp_path / "o")) == want

    def test_missing_input_dir_fails_cleanly(self, tmp_path):
        cfg = tmp_path / "x.json"
        cfg.write_text(json.dumps({"input": str(tmp_path / "nope")}))
        assert run(["--config", cfg, "--out", tmp_path / "o", "matrix"]) == 2


class TestUnknownMode:
    @pytest.mark.parametrize(
        "command, config",
        [("consistency", {"kind": "turmeric", "mode": "bogus", "width": 20, "height": 20}),
         ("repeatability", {"mode": "bogus", "width": 20, "height": 20})],
    )
    def test_synthetic_fixture_commands_exit_2(self, tmp_path, command, config):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        assert run(["--config", cfg, "--out", tmp_path / "o", command]) == 2

    def test_single_input_matrix_exits_2(self, synth_dirs, tmp_path):
        cfg = tmp_path / "m.json"
        cfg.write_text(json.dumps({"input": str(synth_dirs / "transmittance"), "mode": "bogus"}))
        assert run(["--config", cfg, "--out", tmp_path / "o", "matrix"]) == 2
        assert not (tmp_path / "o" / "matrix.csv").exists()


class TestCommandKeyTypes:
    @pytest.mark.parametrize(
        "command, config, artifact",
        [("repeatability", {"width": 20, "height": 20, "n_times": "4"}, "repeatability.json"),
         ("protocol-sim", {"n_bands": "13"}, "transcript.log"),
         ("protocol-sim", {"band": 7, "n_bands": 3}, "transcript.log"),
         ("consistency", {"width": 20, "height": 20, "band": 999}, "consistency.json"),
         ("consistency", {"width": 20, "height": 20, "band": "530"}, "consistency.json")],
        ids=["repeatability-n-times", "protocol-sim-n-bands", "protocol-sim-band-outside-n-bands",
             "consistency-band-outside-set", "consistency-string-band"],
    )
    def test_synthetic_commands_exit_2(self, tmp_path, command, config, artifact):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        assert run(["--config", cfg, "--out", tmp_path / "o", command]) == 2
        assert not (tmp_path / "o" / artifact).exists()

    @pytest.mark.parametrize(
        "command, config, artifact",
        [("kl-regress", {"n_bins": "24"}, "kl_curve.csv"),
         ("matrix", {"mode": "transmittance", "name": 5}, "5")],
        ids=["kl-regress-n-bins", "matrix-name"],
    )
    def test_dataset_commands_exit_2(self, synth_dirs, tmp_path, command, config, artifact):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"input": str(synth_dirs / "transmittance"), **config}))
        assert run(["--config", cfg, "--out", tmp_path / "o", command]) == 2
        assert not (tmp_path / "o" / artifact).exists()


class TestOtherCommands:
    def test_protocol_sim(self, tmp_path):
        out = tmp_path / "proto"
        assert run(["--out", out, "protocol-sim"]) == 0
        log = (out / "transcript.log").read_text()
        assert "LED_ON" in log and "LED_OFF" in log

    def test_protocol_sim_timeout_path(self, tmp_path):
        cfg = tmp_path / "p.json"
        cfg.write_text(json.dumps({"fail": True, "band": 1}))
        assert run(["--config", cfg, "--out", tmp_path / "o", "protocol-sim"]) == 2

    def test_protocol_sim_single_band(self, tmp_path):
        cfg = tmp_path / "p.json"
        cfg.write_text(json.dumps({"band": 1, "n_bands": 3}))
        assert run(["--config", cfg, "--out", tmp_path / "o", "protocol-sim"]) == 0
        lines = (tmp_path / "o" / "transcript.log").read_text().splitlines()
        assert [line.split(" ", 2)[2] for line in lines] == [
            "LED_ON 1", "READY 1", "CAPTURE 1", "DONE 1", "LED_OFF 1"]

    def test_protocol_sim_sequential_key_exits_2_naming_it(self, tmp_path, capsys):
        cfg = tmp_path / "p.json"
        cfg.write_text(json.dumps({"sequential": True, "band": 7}))
        assert run(["--config", cfg, "--out", tmp_path / "o", "protocol-sim"]) == 2
        assert "keys ['sequential']" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_repeatability(self, tmp_path):
        cfg = tmp_path / "r.json"
        cfg.write_text(json.dumps({"kind": "turmeric", "width": 24, "height": 24, "n_times": 4}))
        out = tmp_path / "rep"
        assert run(["--config", cfg, "--out", out, "repeatability"]) == 0
        report = json.loads((out / "repeatability.json").read_text())
        assert report["n_captures"] == 4

    def test_consistency(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kind": "turmeric", "width": 30, "height": 30}))
        out = tmp_path / "cons"
        assert run(["--config", cfg, "--out", out, "consistency"]) == 0
        summary = json.loads((out / "consistency.json").read_text())
        assert summary["mean_distance_after"] <= summary["mean_distance_before"]
        assert (out / "heatmap_after.dat").is_file()

    def test_kl_regress(self, synth_dirs, tmp_path):
        cfg = tmp_path / "kl.json"
        cfg.write_text(json.dumps({"input": str(synth_dirs / "transmittance")}))
        out = tmp_path / "kl"
        assert run(["--config", cfg, "--out", out, "kl-regress"]) == 0
        fmap = json.loads((out / "functional_map.json").read_text())
        assert set(fmap) == {"slope", "intercept", "r_squared"}
        lines = (out / "kl_curve.csv").read_text().splitlines()
        assert lines[0] == "level_pct,replicate,kl"
        assert len(lines) == 19  # 18 samples + header

    def test_malformed_config_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["--config", bad, "--out", tmp_path / "o", "synth"]) == 2


class TestMalformedModelAndTrainConfigs:
    @pytest.fixture
    def matrix_csv(self, tmp_path):
        rng = np.random.default_rng(0)
        labels = [lv for lv in (0.0, 5.0) for _ in range(6)]
        path = tmp_path / "m.csv"
        matrix_from(rng.normal(size=(12, 2)), labels=labels).to_csv(path)
        return path

    def run_with(self, tmp_path, command, config):
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps(config))
        return run(["--config", cfg, "--out", tmp_path / "o", command])

    def tree_json(self, tmp_path, matrix_csv):
        assert self.run_with(tmp_path, "train", {"matrix": str(matrix_csv)}) == 0
        return json.loads((tmp_path / "o" / "model.json").read_text())

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda o: o.pop("root"),
            lambda o: o["root"]["left"].pop("leaf"),
            lambda o: o["root"].pop("feature"),
            lambda o: o["root"].pop("threshold"),
            lambda o: o["root"].pop("left"),
            lambda o: o["root"].pop("right"),
            lambda o: o["root"].update(threshold=float("inf")),
            lambda o: o["root"].update(threshold=float("nan")),
            lambda o: o["root"].update(threshold=10**400),
        ],
        ids=["no-root", "no-leaf", "no-feature", "no-threshold", "no-left", "no-right",
             "inf-threshold", "nan-threshold", "huge-int-threshold"],
    )
    def test_eval_of_malformed_tree_exits_2(self, tmp_path, matrix_csv, mutate):
        model = self.tree_json(tmp_path, matrix_csv)
        mutate(model)
        path = tmp_path / "bad_model.json"
        path.write_text(json.dumps(model))
        config = {"model": str(path), "matrix": str(matrix_csv)}
        assert self.run_with(tmp_path, "eval", config) == 2

    @pytest.mark.parametrize("model", ["logistic", "linear_svm"])
    @pytest.mark.parametrize("key, value", [("weights", float("nan")), ("bias", float("-inf")),
                                            ("weights", 10**400)],
                             ids=["nan-weight", "inf-bias", "huge-int-weight"])
    def test_eval_of_non_finite_linear_model_exits_2(self, tmp_path, matrix_csv, model, key, value):
        assert self.run_with(tmp_path, "train", {"matrix": str(matrix_csv), "model": model}) == 0
        saved = json.loads((tmp_path / "o" / "model.json").read_text())
        if key == "weights":
            saved["weights"][0][0] = value
        else:
            saved["bias"][0] = value
        path = tmp_path / "bad_model.json"
        path.write_text(json.dumps(saved))
        assert self.run_with(tmp_path, "eval", {"model": str(path), "matrix": str(matrix_csv)}) == 2

    @pytest.mark.parametrize("key, value", [("train_x", float("nan")), ("train_y", float("-inf")),
                                            ("train_x", 10**400)],
                             ids=["nan-train-x", "inf-train-y", "huge-int-train-x"])
    def test_eval_of_non_finite_knn_model_exits_2(self, tmp_path, matrix_csv, key, value):
        config = {"matrix": str(matrix_csv), "model": "knn", "params": {"k": 1}}
        assert self.run_with(tmp_path, "train", config) == 0
        saved = json.loads((tmp_path / "o" / "model.json").read_text())
        if key == "train_x":
            saved["train_x"][0] = [value] * len(saved["train_x"][0])
        else:
            saved["train_y"][0] = value
        path = tmp_path / "bad_model.json"
        path.write_text(json.dumps(saved))
        assert self.run_with(tmp_path, "eval", {"model": str(path), "matrix": str(matrix_csv)}) == 2

    @pytest.mark.parametrize("model, key, value", [("knn", "k", 5.0), ("random_forest", "n_trees", 2.0),
                                                   ("random_forest", "bootstrap", "yes"),
                                                   ("random_forest", "seed", 1.5)])
    def test_eval_of_mistyped_saved_parameter_exits_2(self, tmp_path, capsys, matrix_csv, model, key,
                                                      value):
        params = {"k": 1} if model == "knn" else {"n_trees": 2}
        config = {"matrix": str(matrix_csv), "model": model, "params": params}
        assert self.run_with(tmp_path, "train", config) == 0
        saved = json.loads((tmp_path / "o" / "model.json").read_text())
        path = tmp_path / "bad_model.json"
        path.write_text(json.dumps({**saved, key: value}))
        capsys.readouterr()
        assert self.run_with(tmp_path, "eval", {"model": str(path), "matrix": str(matrix_csv)}) == 2
        assert f"{model} model JSON.{key} must be" in capsys.readouterr().err

    def test_eval_of_forest_with_too_many_trees_exits_2(self, tmp_path, capsys, matrix_csv):
        config = {"matrix": str(matrix_csv), "model": "random_forest", "params": {"n_trees": 2}}
        assert self.run_with(tmp_path, "train", config) == 0
        saved = json.loads((tmp_path / "o" / "model.json").read_text())
        saved["trees"].append(saved["trees"][0])
        path = tmp_path / "bad_model.json"
        path.write_text(json.dumps(saved))
        capsys.readouterr()
        assert self.run_with(tmp_path, "eval", {"model": str(path), "matrix": str(matrix_csv)}) == 2
        assert "random_forest model JSON needs" in capsys.readouterr().err

    def test_eval_of_unparsable_model_exits_2(self, tmp_path, matrix_csv):
        path = tmp_path / "bad_model.json"
        path.write_text("{not json")
        assert self.run_with(tmp_path, "eval", {"model": str(path), "matrix": str(matrix_csv)}) == 2

    @pytest.mark.parametrize(
        "extra",
        [{"params": {"depth": 3}}, {"params": [3]}, {"granularity": "bogus"},
         {"model": "knn", "params": {"k": "5"}},
         {"model": "random_forest", "params": {"bootstrap": 1}},
         {"model": "logistic", "params": {"epochs": 10.5}}, {"fraction": "0.5"}],
        ids=["unknown-param", "params-not-object", "bogus-granularity", "string-param",
             "int-for-bool-param", "float-for-int-param", "string-fraction"],
    )
    def test_train_with_bad_config_exits_2(self, tmp_path, matrix_csv, extra):
        assert self.run_with(tmp_path, "train", {"matrix": str(matrix_csv), **extra}) == 2

    def test_train_with_known_params_exits_0(self, tmp_path, matrix_csv):
        config = {"matrix": str(matrix_csv), "model": "random_forest",
                  "params": {"n_trees": 3, "max_depth": 2}}
        assert self.run_with(tmp_path, "train", config) == 0

    @pytest.mark.parametrize("model", ["logistic", "knn", "linear_svm"])
    def test_eval_on_wider_matrix_exits_2(self, tmp_path, matrix_csv, model):
        config = {"matrix": str(matrix_csv), "model": model, "params": {"k": 1} if model == "knn" else {}}
        assert self.run_with(tmp_path, "train", config) == 0
        wide = tmp_path / "wide.csv"
        labels = [lv for lv in (0.0, 5.0) for _ in range(6)]
        matrix_from(np.zeros((12, 3)), labels=labels).to_csv(wide)
        config = {"model": str(tmp_path / "o" / "model.json"), "matrix": str(wide)}
        assert self.run_with(tmp_path, "eval", config) == 2

    def test_train_with_null_optional_and_int_for_float_params_exits_0(self, tmp_path, matrix_csv):
        config = {"matrix": str(matrix_csv), "model": "random_forest",
                  "params": {"n_trees": 2, "max_depth": None, "mtry": 1}}
        assert self.run_with(tmp_path, "train", config) == 0
        config = {"matrix": str(matrix_csv), "model": "logistic", "params": {"lr": 1, "epochs": 20}}
        assert self.run_with(tmp_path, "train", config) == 0


class TestScatterComponents:
    @pytest.mark.parametrize(
        "command, config, header",
        [("turmeric", {"levels": [0, 5], "replicates": 2, "width": 20, "height": 20}, "ld1 label"),
         ("turmeric", {"levels": [0, 5, 10], "replicates": 2, "width": 20, "height": 20}, "ld1 ld2 label"),
         ("colorcheck", {"n_classes": 2, "replicates": 2, "width": 20, "height": 20}, None)],
        ids=["turmeric-two-levels", "turmeric-three-levels", "colorcheck-two-classes"],
    )
    def test_scatter_rows_hold_the_components_that_exist(self, tmp_path, command, config, header):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert run(["--config", cfg, "--out", out, command]) == 0
        report = json.loads((out / "report.json").read_text())
        width = len(header.split()) if header else 2
        key = "merged_lda_scatter" if command == "turmeric" else "lda_scatter"
        assert report[key] and all(len(row) == width for row in report[key])
        if header:
            lines = (out / "merged_lda_scatter.dat").read_text().splitlines()
            assert lines[0] == header
            assert all(len(line.split()) == width for line in lines[1:])


class TestOilStudyBandSet:
    def test_oil_study_without_its_kl_band_exits_2(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"band_set": {"wavelengths_nm": [405, 530, 660]},
                                   "replicates": 2, "width": 20, "height": 20}))
        assert run(["--config", cfg, "--out", tmp_path / "o", "coconut-oil"]) == 2
        assert not (tmp_path / "o" / "report.json").exists()


class TestNonFiniteStudyConfig:
    @pytest.mark.parametrize("command", ["coconut-oil", "turmeric"])
    @pytest.mark.parametrize(
        "extra",
        [{"levels": [0, float("nan")]}, {"levels": [float("-inf"), 40]},
         {"depth_jitter_sd": float("nan")}, {"depth_jitter_sd": float("inf")},
         {"depth_jitter_sd": -0.5}, {"levels": [0, 0, 40]}, {"levels": [0, 0.5, 40]},
         {"levels": [0, 101]}, {"levels": [-1, 40]}],
        ids=["nan-level", "inf-level", "nan-gain", "inf-gain", "negative-gain", "repeated-level",
             "levels-sharing-a-sample-id", "level-above-100", "negative-level"],
    )
    def test_study_config_exits_2(self, tmp_path, command, extra):
        cfg = tmp_path / "c.json"
        # json.dumps writes NaN/Infinity tokens, which the config reader refuses;
        # a negative sd and out-of-range or colliding levels are refused by CaseStudyConfig
        cfg.write_text(json.dumps({"replicates": 3, "levels": [0, 40], "width": 10, "height": 20, **extra}))
        assert run(["--config", cfg, "--out", tmp_path / "o", command]) == 2
        assert not (tmp_path / "o" / "report.json").exists()


def matrix_csv_lines() -> list[str]:
    labels = [lv for lv in (0.0, 5.0) for _ in range(6)]
    rows = np.random.default_rng(0).normal(size=(12, 2)).tolist()
    return ["sample_id,label,x0,x1"] + [
        f"s{i},{label!r},{a!r},{b!r}" for i, (label, (a, b)) in enumerate(zip(labels, rows))
    ]


class TestMatrixCsvRows:
    @pytest.mark.parametrize(
        "mutate",
        [lambda lines: lines.__setitem__(3, lines[3] + ",0.5"),
         lambda lines: lines.__setitem__(3, lines[3].rsplit(",", 1)[0]),
         lambda lines: lines.__setitem__(3, lines[3].rsplit(",", 1)[0] + ",abc"),
         lambda lines: lines.__setitem__(3, "s2"),
         lambda lines: lines.__setitem__(3, "s2,0.0,nan,1.0"),
         lambda lines: lines.__setitem__(3, "s2,inf,1.0,1.0"),
         lambda lines: lines.__setitem__(3, "s2,150,1.0,1.0")],
        ids=["ragged-long", "ragged-short", "non-numeric-cell", "one-field", "nan-cell",
             "infinite-label", "label-out-of-range"],
    )
    def test_train_exits_2_naming_the_line(self, tmp_path, capsys, mutate):
        lines = matrix_csv_lines()
        mutate(lines)
        path = tmp_path / "m.csv"
        path.write_text("\n".join(lines) + "\n")
        cfg = tmp_path / "t.json"
        cfg.write_text(json.dumps({"matrix": str(path)}))
        assert run(["--config", cfg, "--out", tmp_path / "o", "train"]) == 2
        assert f"{path} line 4" in capsys.readouterr().err

    def test_bytes_that_are_not_utf8_after_valid_rows_exit_2(self, tmp_path, capsys):
        # over 8 KB of valid rows: the reader parses some before it decodes the bad byte
        header, *rows = matrix_csv_lines()
        path = tmp_path / "m.csv"
        path.write_bytes(("\n".join([header, *rows * 20]) + "\n").encode() + b"s12,0.0,\xff,1.0\n")
        cfg = tmp_path / "t.json"
        cfg.write_text(json.dumps({"matrix": str(path)}))
        assert run(["--config", cfg, "--out", tmp_path / "o", "train"]) == 2
        assert f"matrix CSV {path} is not UTF-8" in capsys.readouterr().err

    def test_valid_csv_trains(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("\n".join(matrix_csv_lines()) + "\n")
        cfg = tmp_path / "t.json"
        cfg.write_text(json.dumps({"matrix": str(path)}))
        assert run(["--config", cfg, "--out", tmp_path / "o", "train"]) == 0


def test_preprocess_with_a_wide_bilateral_window_stays_within_the_working_memory(tmp_path):
    # the paired filtering form would ask for 2 * 32,512 buffers of the
    # 258 x 258 padded grid; the per-offset form needs a few kilobytes
    save_dataset([random_raw_sample(np.random.default_rng(0), "s", n_bands=1, size=4)],
                 tmp_path / "d")
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"input": str(tmp_path / "d"),
                               "options": {"spatial": False, "spectral": False,
                                           "bilateral": {"window": 255}}}))
    assert run(["--config", cfg, "--out", tmp_path / "warm", "preprocess"]) == 0
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert run(["--config", cfg, "--out", tmp_path / "o", "preprocess"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base <= WORKING_MEMORY + 2**20  # the command's own objects: 1 MiB
    assert file_bytes(tmp_path / "o") == file_bytes(tmp_path / "warm")


def tiny_dataset(path, modes=(Mode.TRANSMITTANCE,) * 4):
    """Raw 20x20 samples, alternating 0% and 5% labels, one per mode given."""
    rng = np.random.default_rng(0)
    samples = []
    for i, mode in enumerate(modes):
        sample = random_raw_sample(rng, f"s{i}", size=20, mode=mode)
        samples.append(Sample(sample.id, sample.cube, Label.adulteration(5.0 * (i % 2))))
    save_dataset(samples, path)
    return path


class TestManifestValidation:
    @pytest.mark.parametrize(
        "mutate",
        [lambda m: m["bands"][0].pop("wavelength_nm"),
         lambda m: m.update(dark=5),
         lambda m: m.update(bands={"wavelength_nm": 405, "file": "band_405.pgm"}),
         lambda m: m.update(label={"adulteration_pct": "5"}),
         lambda m: m.update(label={"class_id": "x"}),
         lambda m: m["bands"][0].update(wavelength_nm="405"),
         lambda m: m.update(width="20")],
        ids=["band-without-wavelength", "non-string-dark", "non-list-bands", "string-label",
             "string-class-id", "string-wavelength", "string-width"],
    )
    def test_matrix_exits_2(self, tmp_path, mutate):
        data = tiny_dataset(tmp_path / "d")
        manifest_path = data / "s1" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        mutate(manifest)
        manifest_path.write_text(json.dumps(manifest))
        cfg = tmp_path / "m.json"
        cfg.write_text(json.dumps({"input": str(data), "mode": "transmittance"}))
        assert run(["--config", cfg, "--out", tmp_path / "o", "matrix"]) == 2
        assert not (tmp_path / "o" / "matrix.csv").exists()

    @pytest.mark.parametrize("frame", ["dark", "band"])
    def test_absent_frame_exits_2(self, tmp_path, frame):
        data = tiny_dataset(tmp_path / "d")
        path = data / "s1" / "dark.pgm" if frame == "dark" else min((data / "s1").glob("band_*"))
        path.unlink()
        if frame == "band":
            path.mkdir()  # a directory in place of the frame
        cfg = tmp_path / "m.json"
        cfg.write_text(json.dumps({"input": str(data), "mode": "transmittance"}))
        assert run(["--config", cfg, "--out", tmp_path / "o", "matrix"]) == 2
        assert not (tmp_path / "o").exists()

    def test_kl_regress_on_mixed_modes_exits_2(self, tmp_path):
        modes = (Mode.TRANSMITTANCE, Mode.TRANSMITTANCE, Mode.REFLECTANCE, Mode.TRANSMITTANCE)
        data = tiny_dataset(tmp_path / "d", modes)
        cfg = tmp_path / "k.json"
        cfg.write_text(json.dumps({"input": str(data)}))
        assert run(["--config", cfg, "--out", tmp_path / "o", "kl-regress"]) == 2
        assert not (tmp_path / "o" / "kl_curve.csv").exists()


def file_bytes(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestStreamingChain:
    """``synth`` and ``preprocess`` write each sample as it is made, with the
    bytes of the eager path, and refuse a bad manifest before writing."""

    @settings(max_examples=9, deadline=None)
    @given(
        kind=st.sampled_from(list(StudyKind)),
        seed=st.integers(0, 2**32 - 1),
        replicates=st.integers(1, 2),
        size=st.integers(10, 16),
        levels=st.lists(st.integers(0, 100), min_size=2, max_size=3, unique=True),
        n_classes=st.integers(1, 4),
    )
    def test_synth_equals_generate_and_an_eager_save(
        self, tmp_path_factory, kind, seed, replicates, size, levels, n_classes
    ):
        study = {"replicates": replicates, "width": size, "height": size}
        study.update({"n_classes": n_classes} if kind is StudyKind.COLOR_CHART else {"levels": levels})
        root = tmp_path_factory.mktemp("synth")
        cfg = root / "synth.json"
        cfg.write_text(json.dumps({"kind": kind.value, **study}))
        assert run(["--config", cfg, "--seed", seed, "--out", root / "cli", "synth"]) == 0
        config = CaseStudyConfig.from_json(kind, study)
        data = generate_case_study(config, seed)
        for mode in Mode:
            samples = getattr(data, mode.value)
            if samples:
                save_dataset(list(samples), root / "eager" / mode.value)
                white = render_white_reference(config, mode, seed)
                save_dataset([white], root / "eager" / f"white_{mode.value}")
        assert file_bytes(root / "cli") == file_bytes(root / "eager")

    SIZE = 60

    def preprocess_peak(self, root: Path, replicates: int) -> int:
        """Traced peak of a default ``preprocess`` of the transmittance
        captures of a two-level turmeric study."""
        root.mkdir(exist_ok=True)
        data = root / f"data{replicates}"
        cfg = root / f"synth{replicates}.json"
        cfg.write_text(json.dumps({"kind": "turmeric", "replicates": replicates, "levels": [0, 40],
                                   "width": self.SIZE, "height": self.SIZE}))
        assert run(["--config", cfg, "--out", data, "synth"]) == 0
        cfg = root / f"pre{replicates}.json"
        cfg.write_text(json.dumps({"input": str(data / "transmittance"),
                                   "white": str(data / "white_transmittance")}))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert run(["--config", cfg, "--out", root / f"pre{replicates}", "preprocess"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - base

    def test_preprocess_peak_does_not_grow_with_the_sample_count(self, tmp_path):
        self.preprocess_peak(tmp_path / "warm", 2)  # first calls fill lazy caches
        small = self.preprocess_peak(tmp_path, 2)  # 4 samples
        large = self.preprocess_peak(tmp_path, 6)  # 12 samples
        float_cube = (13 + 1) * self.SIZE * self.SIZE * 8  # band frames and dark frame
        assert large - small < float_cube

    @pytest.mark.parametrize(
        "mutate",
        [lambda m: m["label"].update(adulteration_pct=float("nan")),
         lambda m: m.update(height="20")],
        ids=["nan-label", "string-height"],
    )
    def test_bad_last_manifest_exits_2_with_nothing_written(self, tmp_path, capsys, mutate):
        data = tiny_dataset(tmp_path / "d")
        manifest_path = data / "s3" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        mutate(manifest)
        manifest_path.write_text(json.dumps(manifest))
        cfg = tmp_path / "p.json"
        cfg.write_text(json.dumps({"input": str(data)}))
        assert run(["--config", cfg, "--out", tmp_path / "o", "preprocess"]) == 2
        assert str(data / "s3") in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_truncated_frame_in_a_middle_sample_exits_2_naming_it(self, tmp_path, capsys):
        data = tiny_dataset(tmp_path / "d")
        frame = next((data / "s1").glob("band_*.pgm"))
        frame.write_bytes(frame.read_bytes()[:-7])
        cfg = tmp_path / "p.json"
        cfg.write_text(json.dumps({"input": str(data), "options": {"spatial": False}}))
        assert run(["--config", cfg, "--out", tmp_path / "o", "preprocess"]) == 2
        assert str(frame) in capsys.readouterr().err
        # the samples before it are written, none after it
        assert sorted(p.name for p in (tmp_path / "o").iterdir()) == ["s0"]


def write_csv(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


class TestLabelKind:
    def train(self, tmp_path, config):
        cfg = tmp_path / "t.json"
        cfg.write_text(json.dumps(config))
        return run(["--config", cfg, "--out", tmp_path / "o", "train"])

    def test_bogus_kind_exits_2(self, tmp_path, capsys):
        path = write_csv(tmp_path / "m.csv", matrix_csv_lines())
        assert self.train(tmp_path, {"matrix": str(path), "label_kind": "bogus"}) == 2
        assert "choose from: adulteration, class" in capsys.readouterr().err
        assert not (tmp_path / "o" / "model.json").exists()

    def test_class_with_a_fractional_label_exits_2_naming_the_line(self, tmp_path, capsys):
        lines = [line.replace(",5.0,", ",2.5,") for line in matrix_csv_lines()]
        path = write_csv(tmp_path / "m.csv", lines)
        assert self.train(tmp_path, {"matrix": str(path), "label_kind": "class"}) == 2
        assert f"{path} line 8" in capsys.readouterr().err  # s6, the first 2.5
        assert not (tmp_path / "o" / "model.json").exists()
        assert self.train(tmp_path, {"matrix": str(path)}) == 0  # a percentage may be 2.5

    def test_class_with_integer_labels_trains_and_evaluates(self, tmp_path):
        lines = [line.replace(",5.0,", ",2.0,") for line in matrix_csv_lines()]
        path = write_csv(tmp_path / "m.csv", lines)
        assert self.train(tmp_path, {"matrix": str(path), "label_kind": "class"}) == 0
        assert json.loads((tmp_path / "o" / "train_eval.json").read_text())["labels"] == [0.0, 2.0]
        cfg = tmp_path / "e.json"
        cfg.write_text(json.dumps({"model": str(tmp_path / "o" / "model.json"),
                                   "matrix": str(path), "label_kind": "class"}))
        assert run(["--config", cfg, "--out", tmp_path / "e", "eval"]) == 0


class TestMatrixInputs:
    @pytest.mark.parametrize(
        "keys",
        [("input", "reflectance"), ("input", "transmittance"),
         ("input", "reflectance", "transmittance"), ("reflectance",), ("transmittance",),
         ("mode", "reflectance", "transmittance"), ("mode",), ()],
        ids=lambda keys: "+".join(keys) or "nothing",
    )
    def test_ambiguous_or_missing_inputs_exit_2(self, synth_dirs, tmp_path, keys):
        values = {"input": str(synth_dirs / "reflectance"), "mode": "reflectance",
                  "reflectance": str(synth_dirs / "reflectance"),
                  "transmittance": str(synth_dirs / "transmittance")}
        cfg = tmp_path / "m.json"
        cfg.write_text(json.dumps({k: values[k] for k in keys}))
        assert run(["--config", cfg, "--out", tmp_path / "o", "matrix"]) == 2
        assert not (tmp_path / "o" / "matrix.csv").exists()


class TestConsistencyWithWhite:
    @pytest.mark.parametrize(
        "extra, code",
        [({}, 0), ({"bogus": 1}, 2), ({"replicates": "3"}, 2), ({"kind": "bogus"}, 2),
         ({"mode": "bogus"}, 2)],
        ids=["white-only", "unknown-key", "bad-study-field", "bad-kind", "bad-mode"],
    )
    def test_keys_beside_white_are_checked(self, synth_dirs, tmp_path, extra, code):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"white": str(synth_dirs / "white_reflectance"), **extra}))
        assert run(["--config", cfg, "--out", tmp_path / "o", "consistency"]) == code
        assert (tmp_path / "o" / "consistency.json").exists() == (code == 0)


class TestMatrixName:
    @pytest.mark.parametrize("name", ["../escaped.csv", "", ".", "..", "sub/m.csv", "/tmp/m.csv",
                                      "m\0.csv"])
    def test_name_that_is_not_a_plain_file_name_exits_2(self, synth_dirs, tmp_path, name):
        cfg = tmp_path / "m.json"
        cfg.write_text(json.dumps({"input": str(synth_dirs / "reflectance"), "name": name}))
        out = tmp_path / "o" / "m"
        assert run(["--config", cfg, "--out", out, "matrix"]) == 2
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == [cfg]

    def test_plain_name_is_written_inside_out(self, synth_dirs, tmp_path):
        cfg = tmp_path / "m.json"
        cfg.write_text(json.dumps({"input": str(synth_dirs / "reflectance"), "name": "..m.csv"}))
        assert run(["--config", cfg, "--out", tmp_path / "o", "matrix"]) == 0
        assert (tmp_path / "o" / "..m.csv").is_file()


class TestUnknownKeys:
    @pytest.mark.parametrize("key", ["bogus", "args"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_unknown_key_exits_2_naming_it(self, tmp_path, capsys, command, key):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({key: 1}))
        out = tmp_path / "o"
        assert run(["--config", cfg, "--out", out, command]) == 2
        assert f"config keys ['{key}']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, own", [("synth", "kind"), ("consistency", "band"),
                                              ("consistency", "white"), ("repeatability", "mode")])
    def test_unknown_key_lists_the_command_keys_and_study_fields(
        self, tmp_path, capsys, command, own
    ):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"bnad": 530}))
        assert run(["--config", cfg, "--out", tmp_path / "o", command]) == 2
        choices = capsys.readouterr().err.split("choose from")[1]
        assert f"'{own}'" in choices and "'replicates'" in choices

    @pytest.mark.parametrize("command, kind", [("turmeric", "coconut_oil"),
                                               ("coconut-oil", "color_chart"),
                                               ("colorcheck", "turmeric")])
    def test_study_command_rejects_another_kind(self, tmp_path, command, kind):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kind": kind}))
        assert run(["--config", cfg, "--out", tmp_path / "o", command]) == 2
        assert not (tmp_path / "o").exists()


JSON_SCALARS = {bool: True, int: 3, float: 0.5, str: "x", dict: {}}


def assert_json_type(hint, what):
    """Assert ``json_value`` reads ``hint``, recursing into its parts."""
    if get_origin(hint) in (Union, UnionType):
        assert json_value(hint, None, what) is None
        (hint,) = [a for a in get_args(hint) if a is not type(None)]
    if is_dataclass(hint):
        hints = get_type_hints(hint)
        for f in fields(hint):
            assert_json_type(hints[f.name], f"{what}.{f.name}")
    elif get_origin(hint) is tuple:
        for arg in get_args(hint):
            if arg is not Ellipsis:
                assert_json_type(arg, what)
    elif isinstance(hint, type) and issubclass(hint, Enum):
        assert all(json_value(hint, m.value, what) is m for m in hint)
    else:
        assert hint in JSON_SCALARS, f"json_value cannot read {what}: {hint}"
        assert json_value(hint, JSON_SCALARS[hint], what) == JSON_SCALARS[hint]


HANDLERS = {name: command_handler(name) for name in COMMANDS}
READERS = [(f"command {name}", handler, 2 + len(extra)) for name, (handler, extra) in HANDLERS.items()]
READERS += [(f"model {name}", cls, 0) for name, cls in MODEL_KINDS.items()]


class TestReadableParameters:
    @pytest.mark.parametrize("name, fn, n_args", READERS, ids=[r[0] for r in READERS])
    def test_every_readable_parameter_has_a_json_type(self, name, fn, n_args):
        hints = get_type_hints(fn.__init__ if isinstance(fn, type) else fn)
        for param in list(inspect.signature(fn).parameters.values())[n_args:]:
            if param.kind is not param.VAR_KEYWORD:
                assert param.name in hints, f"{name}: {param.name} has no type hint"
                assert_json_type(hints[param.name], f"{name}: {param.name}")


def test_cli_import_leaves_scipy_integrate_and_optimize_unloaded():
    # both are slow to import, and the CLI's band response needs neither
    code = ("import sys, dualmsi.cli; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))")
    src = str(Path(dualmsi.__file__).parents[1])
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, env={**os.environ, "PYTHONPATH": src})
    assert result.stdout.strip() == "[]"


def loaded_modules(package: str, code: str, cwd: Path) -> list[str]:
    """The modules of ``package`` loaded after running ``code`` in a fresh interpreter."""
    code += ("\nimport json, sys; "
             f"print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == {package!r})))")
    src = str(Path(dualmsi.__file__).parents[1])
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=cwd,
                            check=True, env={**os.environ, "PYTHONPATH": src})
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # no command needs scipy: the LDA eigensolve runs on numpy's LAPACK
    assert loaded_modules("scipy", "import dualmsi.cli", tmp_path) == []


def write_lda_configs(root: Path) -> None:
    """Configs for a tiny turmeric study and a synth for ``kl-regress``."""
    study = {"replicates": 3, "levels": [0, 40], "width": 10, "height": 20}
    (root / "t.json").write_text(json.dumps(study))
    (root / "s.json").write_text(json.dumps({"kind": "coconut_oil", **study}))
    (root / "k.json").write_text(json.dumps({"input": "d/transmittance", "n_bins": 8}))


# the commands that fit an LDA projection, as code run in a fresh interpreter
LDA_RUNS = {
    "turmeric": "assert main(['--config', 't.json', '--out', 'o', 'turmeric']) == 0",
    "kl-regress": ("assert main(['--config', 's.json', '--out', 'd', 'synth']) == 0\n"
                   "assert main(['--config', 'k.json', '--out', 'k', 'kl-regress']) == 0"),
}


@pytest.mark.parametrize("command", sorted(LDA_RUNS))
def test_lda_commands_leave_scipy_unloaded(tmp_path, command):
    write_lda_configs(tmp_path)
    code = "from dualmsi.cli import main\n" + LDA_RUNS[command]
    assert loaded_modules("scipy", code, tmp_path) == []


@pytest.mark.parametrize("command", sorted(LDA_RUNS))
def test_lda_commands_run_with_scipy_blocked(tmp_path, command):
    # a None entry in sys.modules makes every scipy import raise ImportError,
    # as for an install with numpy alone
    write_lda_configs(tmp_path)
    code = "import sys\nsys.modules['scipy'] = None\nfrom dualmsi.cli import main\n" + LDA_RUNS[command]
    assert loaded_modules("scipy", code, tmp_path) == ["scipy"]


def test_synth_run_leaves_scipy_unloaded(tmp_path):
    config = {"kind": "coconut_oil", "replicates": 1, "levels": [0, 40], "width": 10, "height": 10}
    (tmp_path / "c.json").write_text(json.dumps(config))
    code = ("from dualmsi.cli import main\n"
            "assert main(['--config', 'c.json', '--out', 'o', 'synth']) == 0")
    assert loaded_modules("scipy", code, tmp_path) == []
    assert (tmp_path / "o" / "transmittance").is_dir()



SHELL = {"dualmsi", "dualmsi.cli", "dualmsi.errors", "dualmsi.jsonio"}


def test_cli_import_loads_only_the_shell(tmp_path):
    assert set(loaded_modules("dualmsi", "import dualmsi.cli", tmp_path)) == SHELL
    assert loaded_modules("numpy", "import dualmsi.cli", tmp_path) == []


# The shell's own work, which needs no numpy: (arguments, exit code)
SHELL_RUNS = [
    (["--help"], 0),
    (["--version"], 0),
    (["--config", "proto.json", "--out", "o", "protocol-sim"], 0),
    (["--config", "malformed.json", "--out", "o", "protocol-sim"], 2),
    (["protocol-sim"], 2),  # no --out
]


def shell_run(root: Path, argv: list[str], block_numpy: bool):
    """Exit code, output and written files of ``dualmsi argv`` run in a fresh
    interpreter in ``root``; a None entry in sys.modules makes every numpy
    import raise ImportError."""
    root.mkdir()
    (root / "proto.json").write_text('{"n_bands": 3}')
    (root / "malformed.json").write_text("{")
    code = "import sys\n" + ("sys.modules['numpy'] = None\n" if block_numpy else "")
    code += f"from dualmsi.cli import main\nsys.exit(main({argv!r}))"
    src = str(Path(dualmsi.__file__).parents[1])
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=root,
                            env={**os.environ, "PYTHONPATH": src})
    stderr = result.stderr.replace(str(root), "ROOT")
    return result.returncode, result.stdout, stderr, file_bytes(root)


@pytest.mark.parametrize("argv, exit_code", SHELL_RUNS, ids=[" ".join(a) for a, _ in SHELL_RUNS])
def test_shell_commands_run_with_numpy_blocked(tmp_path, argv, exit_code):
    blocked = shell_run(tmp_path / "blocked", argv, block_numpy=True)
    assert blocked[0] == exit_code
    assert blocked == shell_run(tmp_path / "loaded", argv, block_numpy=False)


@pytest.fixture(scope="module")
def chain_root(tmp_path_factory):
    """A tiny turmeric dataset, its merged matrix and a model, through the CLI."""
    root = tmp_path_factory.mktemp("chain")
    steps = [("synth", {"kind": "turmeric", "replicates": 3, "levels": [0, 40], "width": 10,
                        "height": 20}, "d"),
             ("matrix", {"reflectance": root / "d/reflectance",
                         "transmittance": root / "d/transmittance"}, "m"),
             ("train", {"matrix": root / "m/matrix.csv"}, "t")]
    for command, config, out in steps:
        (root / f"{command}.json").write_text(json.dumps(config, default=str))
        assert run(["--config", root / f"{command}.json", "--out", root / out, command]) == 0
    return root


# Each command's config (paths relative to ``chain_root``) and the layer
# modules it loads beyond the shell; every layer but ``devicelink`` loads
# ``core`` and ``pgm``.
CUBES = {"core", "pgm"}
CHAIN_RUNS = {
    "synth": ({"kind": "coconut_oil", "replicates": 1, "levels": [0, 40], "width": 10,
               "height": 10}, {"studies", "synth", "materials", *CUBES}),
    "preprocess": ({"input": "d/transmittance", "white": "d/white_transmittance"},
                   {"preprocess", *CUBES}),
    "matrix": ({"input": "d/reflectance"}, {"features", *CUBES}),
    "train": ({"matrix": "m/matrix.csv"}, {"models", "features", "synth", *CUBES}),
    "eval": ({"matrix": "m/matrix.csv", "model": "t/model.json"},
             {"models", "features", "synth", *CUBES}),
    "kl-regress": ({"input": "d/transmittance", "n_bins": 8}, {"divergence", "features", *CUBES}),
    "protocol-sim": ({"n_bands": 3}, {"devicelink"}),
    "consistency": ({"width": 20, "height": 20}, {"harness", "studies", "synth", "materials",
                                                  "preprocess", "features", "models", "divergence",
                                                  *CUBES}),
}


@pytest.mark.parametrize("command", sorted(CHAIN_RUNS))
def test_command_loads_only_its_layer(chain_root, tmp_path, command):
    config, layer = CHAIN_RUNS[command]
    (tmp_path / "c.json").write_text(json.dumps(config))
    argv = ["--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "o"), command]
    code = f"from dualmsi.cli import main\nassert main({argv!r}) == 0"
    loaded = set(loaded_modules("dualmsi", code, chain_root))
    assert loaded == SHELL | {f"dualmsi.{name}" for name in layer}


# Configs the config reader refuses (besides unknown keys, in TestUnknownKeys):
# a missing required key, and a mistyped key (own, nested or study field).
REFUSED_CONFIGS = [
    ("preprocess", {}),
    ("train", {}),
    ("eval", {"matrix": "m.csv"}),
    ("kl-regress", {}),
    ("synth", {"kind": 3}),
    ("synth", {"replicates": "3"}),
    ("preprocess", {"input": "d", "options": {"bilateral": {"window": "5"}}}),
    ("matrix", {"name": 3}),
    ("train", {"matrix": "m.csv", "fraction": "0.5"}),
    ("eval", {"model": "m.json", "matrix": "m.csv", "label_kind": 1}),
    ("kl-regress", {"input": "d", "n_bins": 8.5}),
    ("colorcheck", {"n_classes": "2"}),
    ("turmeric", {"levels": "0,40"}),
    ("coconut-oil", {"noise": {"dark_sd": "x"}}),
    ("consistency", {"band": "530"}),
    ("consistency", {"width": 2.5}),
    ("repeatability", {"n_times": 2.5}),
    ("protocol-sim", {"fail": "yes"}),
]


@pytest.mark.parametrize("command, config", REFUSED_CONFIGS,
                         ids=[f"{c}-{json.dumps(k)}" for c, k in REFUSED_CONFIGS])
def test_refused_config_exits_2_before_out_is_created(tmp_path, capsys, command, config):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    assert run(["--config", cfg, "--out", tmp_path / "o" / "x", command]) == 2
    assert f"{command} config" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


FAILED_COMMANDS = [
    ("turmeric", {"replicates": 0}, 2),
    ("synth", {"depth": 0}, 2),
    ("synth", {"depth": -5}, 2),
    ("coconut-oil", {"depth": 0}, 2),
    ("train", {"matrix": "m.csv", "model": "knn", "params": {"k": 0}}, 2),
    ("matrix", {"input": "d", "name": "../m.csv"}, 2),
    ("train", {"matrix": "missing.csv"}, 3),
]


def test_tree_too_deep_for_model_json_exits_2_and_leaves_no_out(tmp_path, capsys):
    # two samples a label, x interleaved so that the training rows alternate
    # labels: every split peels one row off, and the tree is as deep as the
    # training rows are many, beyond the depth JSON can nest
    n = sys.getrecursionlimit()
    offsets = [(0.0, 0), (0.0, 2), (5.0, 1), (5.0, 3)]
    rows = [f"s{s},{label!r},{4.0 * i + offset!r}" for s, (label, offset) in enumerate(offsets)
            for i in range(n // 2 + 100)]
    write_csv(tmp_path / "m.csv", ["sample_id,label,x", *rows])
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"matrix": str(tmp_path / "m.csv")}))
    assert run(["--config", cfg, "--out", tmp_path / "o" / "x", "train"]) == 2
    err = capsys.readouterr().err
    assert "nested too deeply" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, config, code", FAILED_COMMANDS,
                         ids=[f"{c}-{json.dumps(k)}" for c, k, _ in FAILED_COMMANDS])
def test_command_that_fails_before_writing_leaves_no_out(tmp_path, monkeypatch, command, config,
                                                         code):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.csv").write_text("\n".join(matrix_csv_lines()) + "\n")
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    assert run(["--config", cfg, "--out", tmp_path / "o" / "x", command]) == code
    assert not (tmp_path / "o").exists()
