"""Fuzz the CLI's input boundaries: whatever a config, a matrix CSV, a
model JSON, a manifest or a PGM header holds, ``main()`` returns 0, 2 or 3
and raises nothing.  The text files also get byte-level mutations, which
can leave them undecodable as UTF-8.  A config, model JSON or manifest
that holds NaN, Infinity, -Infinity or a number overflowing to inf exits
2 and leaves nothing under ``--out``.

Frame sizes and sample counts are never mutated, so every run stays tiny.
"""

import inspect
import json
import math
import shutil
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings, strategies as st

from dualmsi.cli import COMMANDS, command_handler, main
from dualmsi.core import Label, Mode, Sample, save_dataset
from dualmsi.models import MODEL_KINDS
from dualmsi.studies import CaseStudyConfig

from conftest import random_raw_sample

FUZZ = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
EXIT_CODES = {0, 2, 3}

TOKENS = st.sampled_from(
    ["", " ", "0", "-1", "5", "150", "0.5", "1e999", "nan", "inf", "-inf", "abc", '"', ",", "\n",
     "s0", "x0", "label", "sample_id"]
)
OVERFLOW = "<1e400>"  # a drawn value that dumps() writes as the bare literal 1e400
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 2000) | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["", "dark.pgm", "band_405.pgm", "transmittance", "reflectance", "../x"])
    | st.sampled_from([math.nan, math.inf, -math.inf, OVERFLOW]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["wavelength_nm", "file", "adulteration_pct", "class_id", "extra"]), inner, max_size=3
    ),
    max_leaves=6,
)


def dumps(obj) -> bytes:
    """``obj`` as JSON, with each ``OVERFLOW`` string written as 1e400."""
    return json.dumps(obj).replace(json.dumps(OVERFLOW), "1e400").encode()


def holds_non_finite(payload: bytes) -> bool:
    """Whether ``payload`` is JSON that holds NaN, Infinity, -Infinity or a
    number that overflows to inf."""
    found = []

    def number(token):
        found.append(not math.isfinite(float(token)))
        return 0.0

    try:
        json.loads(payload.decode("utf-8"), parse_constant=lambda token: found.append(True),
                   parse_float=number)
    except (ValueError, RecursionError):
        return False
    return any(found)


def check_non_finite_refused(payload: bytes, code: int, out: Path) -> None:
    """A ``payload`` holding a non-finite number exited 2 with nothing written."""
    if holds_non_finite(payload):
        event("non-finite number")
        assert code == 2
        assert not list(out.rglob("*"))


def run_in(root: Path, command: str, config: dict | bytes) -> int:
    """Run ``command`` with ``config``, an object or the config file's bytes."""
    cfg = root / f"{command}.json"
    cfg.write_bytes(config if isinstance(config, bytes) else dumps(config))
    return main(["--config", str(cfg), "--seed", "1", "--out", str(root / "out"), command])


@pytest.fixture(scope="module")
def seeds(tmp_path_factory):
    """A valid matrix CSV, a model of each kind trained on it and a
    four-sample dataset."""
    root = tmp_path_factory.mktemp("fuzz")
    labels = [lv for lv in (0.0, 5.0) for _ in range(6)]
    rows = np.random.default_rng(0).normal(size=(12, 2)).tolist()
    lines = ["sample_id,label,x0,x1"] + [
        f"s{i},{label!r},{a!r},{b!r}" for i, (label, (a, b)) in enumerate(zip(labels, rows))
    ]
    (root / "m.csv").write_text("\n".join(lines) + "\n")
    for kind in MODEL_KINDS:
        assert run_in(root, "train", {"matrix": str(root / "m.csv"), "model": kind}) == 0
        shutil.copy(root / "out" / "model.json", root / f"model-{kind}.json")
    rng = np.random.default_rng(1)
    samples = []
    for i in range(4):
        s = random_raw_sample(rng, f"s{i}", n_bands=2, size=10, mode=Mode.TRANSMITTANCE)
        samples.append(Sample(s.id, s.cube, Label.adulteration(5.0 * (i % 2))))
    save_dataset(samples, root / "data")
    (root / "synth").mkdir()
    synth = {"kind": "coconut_oil", "replicates": 2, "levels": [0, 40], "width": 10, "height": 10}
    assert run_in(root / "synth", "synth", synth) == 0
    return root


@st.composite
def byte_mutations(draw, data: bytes) -> bytes:
    """``data`` with one to three single bytes replaced by zero to two
    drawn bytes, or with a UTF-16 byte-order mark in front."""
    if draw(st.integers(0, 9)) == 0:
        return b"\xff\xfe" + data
    raw = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        if not raw:
            break
        at = draw(st.integers(0, len(raw) - 1))
        raw[at:at + 1] = draw(st.binary(min_size=0, max_size=2))
    return bytes(raw)


@st.composite
def csv_mutations(draw, lines):
    """Field- and line-level edits of the CSV, or byte-level ones."""
    if draw(st.booleans()):
        return draw(byte_mutations(("\n".join(lines) + "\n").encode()))
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        fields = lines[i].split(",")
        op = draw(st.sampled_from(["replace", "drop", "add", "delete-line", "duplicate-line", "insert"]))
        if op == "replace":
            fields[draw(st.integers(0, len(fields) - 1))] = draw(TOKENS)
        elif op == "drop":
            del fields[draw(st.integers(0, len(fields) - 1))]
        elif op == "add":
            fields.insert(draw(st.integers(0, len(fields))), draw(TOKENS))
        elif op == "delete-line":
            del lines[i]
            continue
        elif op == "duplicate-line":
            lines.insert(i, lines[i])
            continue
        else:
            text = lines[i]
            at = draw(st.integers(0, len(text)))
            fields = [text[:at] + draw(TOKENS) + text[at:]]
        lines[i] = ",".join(fields)
    text = "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n"]))
    return text.encode()


class TestMatrixCsvFuzz:
    @FUZZ
    @given(data=st.data(), command=st.sampled_from(["train", "eval"]))
    def test_train_and_eval_exit_cleanly(self, seeds, data, command):
        lines = (seeds / "m.csv").read_text().splitlines()
        payload = data.draw(csv_mutations(lines))
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "m.csv").write_bytes(payload)
            config = {"matrix": str(root / "m.csv")}
            if command == "eval":
                config["model"] = str(seeds / "model-decision_tree.json")
            assert run_in(root, command, config) in EXIT_CODES


@st.composite
def model_json_mutations(draw, model: dict):
    """Top-level key edits of a saved model's JSON, or byte-level ones."""
    text = json.dumps(model)
    if draw(st.booleans()):
        return draw(byte_mutations(text.encode()))
    keys = sorted(model)
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(keys))
        if draw(st.booleans()):
            model[key] = draw(JSON_VALUES)
        else:
            model.pop(key, None)
    return dumps(model)


class TestModelJsonFuzz:
    @FUZZ
    @given(data=st.data(), kind=st.sampled_from(sorted(MODEL_KINDS)))
    def test_eval_exits_cleanly(self, seeds, data, kind):
        model = json.loads((seeds / f"model-{kind}.json").read_text())
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            payload = data.draw(model_json_mutations(model))
            (root / "model.json").write_bytes(payload)
            config = {"model": str(root / "model.json"), "matrix": str(seeds / "m.csv")}
            code = run_in(root, "eval", config)
            assert code in EXIT_CODES
            check_non_finite_refused(payload, code, root / "out")


@pytest.mark.parametrize("target", ["config", "matrix", "model"])
def test_utf16_byte_order_mark_exits_2(seeds, tmp_path, capsys, target):
    config = {"model": str(seeds / "model-decision_tree.json"), "matrix": str(seeds / "m.csv")}
    if target != "config":
        original = Path(config[target])
        config[target] = str(tmp_path / original.name)
        Path(config[target]).write_bytes(b"\xff\xfe" + original.read_bytes())
    raw = json.dumps(config).encode()
    assert run_in(tmp_path, "eval", b"\xff\xfe" + raw if target == "config" else raw) == 2
    assert "utf-8" in capsys.readouterr().err


MANIFEST_KEYS = ["id", "mode", "label", "bit_depth", "dark", "bands"]  # width/height stay


@st.composite
def manifest_mutations(draw, manifest: dict):
    text = json.dumps(manifest)
    if draw(st.booleans()):
        return draw(byte_mutations(text.encode()))
    manifest = json.loads(text)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["set", "drop", "band-set", "band-drop", "extra"]))
        if op == "set":
            manifest[draw(st.sampled_from(MANIFEST_KEYS))] = draw(JSON_VALUES)
        elif op == "drop":
            manifest.pop(draw(st.sampled_from(MANIFEST_KEYS)), None)
        elif op == "extra":
            manifest["extra"] = draw(JSON_VALUES)
        elif isinstance(manifest.get("bands"), list) and manifest["bands"]:
            entry = manifest["bands"][draw(st.integers(0, len(manifest["bands"]) - 1))]
            if isinstance(entry, dict):
                key = draw(st.sampled_from(["wavelength_nm", "file"]))
                if op == "band-set":
                    entry[key] = draw(JSON_VALUES)
                else:
                    entry.pop(key, None)
    return dumps(manifest)


@st.composite
def pgm_header_mutations(draw, data: bytes):
    """Mutate the magic, maxval or separators of ``P5\\n<w> <h>\\n65535\\n``."""
    magic, dims, maxval, payload = data.split(b"\n", 3)
    op = draw(st.sampled_from(["magic", "maxval", "separator", "comment", "truncate"]))
    token = draw(st.sampled_from([b"", b"P2", b"P6", b"p5", b"0", b"255", b"65536", b"-1", b"x", b"#"]))
    if op == "magic":
        magic = token
    elif op == "maxval":
        maxval = token
    elif op == "comment":
        magic += b"\n# " + token
    elif op == "truncate":
        head = magic + b"\n" + dims + b"\n" + maxval + b"\n"
        return head[: draw(st.integers(0, len(head)))]
    sep = draw(st.sampled_from([b"\n", b" ", b"\t", b"\r\n", b""])) if op == "separator" else b"\n"
    return magic + sep + dims + b"\n" + maxval + b"\n" + payload


class TestDatasetFuzz:
    def dataset_copy(self, seeds, root: Path) -> Path:
        return Path(shutil.copytree(seeds / "data", root / "data"))

    @FUZZ
    @given(data=st.data())
    def test_matrix_with_mutated_manifest_exits_cleanly(self, seeds, data):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            path = self.dataset_copy(seeds, root) / "s1" / "manifest.json"
            payload = data.draw(manifest_mutations(json.loads(path.read_text())))
            path.write_bytes(payload)
            code = run_in(root, "matrix", {"input": str(root / "data"), "mode": "transmittance"})
            assert code in EXIT_CODES
            check_non_finite_refused(payload, code, root / "out")

    @FUZZ
    @given(data=st.data(), name=st.sampled_from(["dark.pgm", "band_405.pgm", "band_530.pgm"]))
    def test_matrix_with_mutated_pgm_header_exits_cleanly(self, seeds, data, name):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            path = self.dataset_copy(seeds, root) / "s2" / name
            path.write_bytes(data.draw(pgm_header_mutations(path.read_bytes())))
            assert run_in(root, "matrix", {"input": str(root / "data"), "mode": "transmittance"}) in EXIT_CODES


SIZE_KEYS = {"width", "height", "replicates", "levels", "n_times", "n_bands"}
CONFIG_FUZZ = settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def tiny_config(command: str, seeds: Path) -> dict:
    """A small valid config for ``command``, reading the ``seeds`` files."""
    study = {"replicates": 3, "levels": [0, 40], "width": 10, "height": 20, "depth": 1.0}
    return {
        "synth": {"kind": "coconut_oil", "replicates": 1, "levels": [0, 40], "width": 10, "height": 10},
        "preprocess": {"input": str(seeds / "synth" / "out" / "transmittance"),
                       "white": str(seeds / "synth" / "out" / "white_transmittance"),
                       "options": {"bilateral": None}},
        "matrix": {"input": str(seeds / "data"), "mode": "transmittance", "name": "m.csv"},
        "train": {"matrix": str(seeds / "m.csv"), "model": "decision_tree", "fraction": 0.75},
        "eval": {"model": str(seeds / "model-decision_tree.json"), "matrix": str(seeds / "m.csv"),
                 "label_kind": "adulteration"},
        "kl-regress": {"input": str(seeds / "synth" / "out" / "transmittance"), "n_bins": 8,
                       "reference_label": 0},
        "turmeric": {**study, "kind": "turmeric"},
        "coconut-oil": {**study, "kind": "coconut_oil"},
        "colorcheck": {"kind": "color_chart", "replicates": 3, "n_classes": 2, "width": 10,
                       "height": 20},
        "consistency": {"kind": "turmeric", "mode": "transmittance", "width": 20, "height": 20,
                        "band": 530},
        "repeatability": {"mode": "reflectance", "width": 10, "height": 10, "n_times": 2,
                          "noise": {"drift_amplitude": 0.01}},
        "protocol-sim": {"n_bands": 3, "timeout_steps": 4, "exposure_steps": 1, "fail": False,
                         "band": 0},
    }[command]


PARAM_VALUES = st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | st.sampled_from(["", "x"])


@st.composite
def classifier_params(draw) -> dict:
    """A ``train`` config's ``model``, and ``params`` keyed by that model's
    constructor parameters."""
    model = draw(st.sampled_from(sorted(MODEL_KINDS)))
    names = list(inspect.signature(MODEL_KINDS[model]).parameters)
    return {"model": model, "params": draw(st.dictionaries(st.sampled_from(names), PARAM_VALUES, max_size=3))}


def config_keys(command: str) -> set[str]:
    """Every key ``command`` reads: its handler's keyword parameters, plus
    the study fields for a handler that takes ``**study``."""
    handler, extra = command_handler(command)
    params = list(inspect.signature(handler).parameters.values())[2 + len(extra):]
    keys = {p.name for p in params if p.kind is not p.VAR_KEYWORD}
    if any(p.kind is p.VAR_KEYWORD for p in params):
        keys |= {f.name for f in fields(CaseStudyConfig)}
    return keys


class TestConfigFuzz:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_tiny_config_is_valid(self, seeds, tmp_path, command):
        assert run_in(tmp_path, command, tiny_config(command, seeds)) == 0

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @CONFIG_FUZZ
    @given(data=st.data())
    def test_mutated_config_exits_cleanly(self, seeds, command, data):
        config = tiny_config(command, seeds)
        keys = config_keys(command)
        mutable = sorted(set(config) - SIZE_KEYS)
        addable = sorted(keys - SIZE_KEYS - set(config))
        op = data.draw(st.sampled_from(["add-unknown", "drop", "replace", "bytes"] + ["add"] * bool(addable)))
        if op == "bytes":
            config = data.draw(byte_mutations(json.dumps(config).encode()))
        elif op == "add-unknown":
            config[data.draw(st.text(max_size=6).filter(lambda k: k not in keys))] = data.draw(JSON_VALUES)
        elif op == "add":
            config[data.draw(st.sampled_from(addable))] = data.draw(JSON_VALUES)
        elif op == "drop":
            del config[data.draw(st.sampled_from(mutable))]
        else:
            config[data.draw(st.sampled_from(mutable))] = data.draw(JSON_VALUES)
        payload = config if isinstance(config, bytes) else dumps(config)
        with tempfile.TemporaryDirectory() as tmp:
            code = run_in(Path(tmp), command, payload)
            check_non_finite_refused(payload, code, Path(tmp) / "out")
        event(f"{op}: exit {code}")
        assert code == 2 if op == "add-unknown" else code in EXIT_CODES

    @pytest.mark.parametrize(
        "command, key, token",
        [("synth", "depth", "Infinity"), ("synth", "depth", "1e400"),
         ("preprocess", "options", '{"bilateral": {"sigma_r": Infinity}}')],
        ids=["synth-infinite-depth", "synth-overflowing-depth", "preprocess-infinite-sigma-r"],
    )
    def test_non_finite_token_exits_2_naming_the_config(self, seeds, tmp_path, capsys, command, key, token):
        # each of these ran to exit 0 while the config reader accepted the token
        payload = json.dumps({**tiny_config(command, seeds), key: "@"}).replace('"@"', token)
        assert run_in(tmp_path, command, payload.encode()) == 2
        assert str(tmp_path / f"{command}.json") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @FUZZ
    @given(params=classifier_params())
    @example(params={"model": "logistic", "params": {"lr": 1e300}})
    @example(params={"model": "linear_svm", "params": {"lr": 1e300}})
    def test_drawn_classifier_params_exit_cleanly(self, seeds, params):
        # a parameter out of range, or a fit it makes diverge, exits 2
        # before any artifact is written; a saved model is strict JSON
        config = {**tiny_config("train", seeds), **params}
        with tempfile.TemporaryDirectory() as tmp:
            code = run_in(Path(tmp), "train", config)
            # glob, not iterdir: a config the reader refuses (NaN, Infinity)
            # exits before --out is made
            written = sorted(p.name for p in (Path(tmp) / "out").glob("*"))
            if code == 0:
                json.loads((Path(tmp) / "out" / "model.json").read_text(),
                           parse_constant=lambda token: pytest.fail(f"model.json holds {token}"))
        event(f"{params['model']}: exit {code}")
        assert code in {0, 2}
        assert written == ([] if code == 2 else ["model.json", "split.json", "train_eval.json"])

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("model", ["logistic", "linear_svm"])
    def test_diverging_fit_exits_2_without_a_model(self, seeds, tmp_path, model):
        config = {**tiny_config("train", seeds), "model": model, "params": {"lr": 1e300}}
        assert run_in(tmp_path, "train", config) == 2
        assert not (tmp_path / "out" / "model.json").exists()

    @pytest.mark.parametrize("key, value", [
        ("depth_jitter_sd", -1.0),
        ("fraction_jitter_sd", -1e-300),
        ("trans_band_jitter_sd", -1.0),
        ("noise", {"dark_sd": -1.0}),
        ("noise", {"dark_sd": 1e999}),
    ])
    def test_negative_noise_scale_exits_2(self, seeds, tmp_path, key, value):
        config = {**tiny_config("coconut-oil", seeds), key: value}
        assert run_in(tmp_path, "coconut-oil", config) == 2

    @pytest.mark.parametrize("key, zero", [
        ("depth_jitter_sd", -0.0),  # the fuzz draw that once exited 1
        ("fraction_jitter_sd", -0.0),
        ("noise", {"dark_sd": -0.0}),
    ])
    def test_negative_zero_noise_scale_runs_as_zero(self, seeds, tmp_path, key, zero):
        # Generator.normal rejects a scale whose sign bit is set
        outputs = []
        for i, value in enumerate([zero, json.loads(json.dumps(zero).replace("-0.0", "0.0"))]):
            root = tmp_path / str(i)
            root.mkdir()
            assert run_in(root, "coconut-oil", {**tiny_config("coconut-oil", seeds), key: value}) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted((root / "out").iterdir())})
        assert outputs[0] == outputs[1]
