"""The benchmark's workloads: which CLI commands run, on what, and how
their outputs are checked.

Each workload is a list of operations.  An operation is one call of
``dualmsi.cli.main`` with its own ``--out`` directory and config file,
run from the iteration's working directory so that every path in a
config or an artifact is relative.  An operation fails when it raises,
returns nonzero, leaves an expected artifact missing, or writes a file
whose sha256 differs from the recorded one.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
DIGESTS_PATH = BENCH_DIR / "digests.json"

# Fixture sizes.  The studies' default fixtures (81+81 cubes of 100x100
# for turmeric, 96 for the colour chart) take 23-50 s per iteration on a
# 2-core 2.1 GHz Xeon VM, too long to repeat inside one timed run; these
# keep every stage, level, class and classifier but fewer, smaller cubes.
FIXTURES = {
    "turmeric": {"replicates": 3, "width": 40, "height": 40},
    "colorcheck": {"replicates": 4, "width": 40, "height": 40},
    "cli-chain": {"replicates": 3, "width": 60, "height": 60},
}

# The chain passes the studies' bilateral settings explicitly:
# ``PipelineOptions.from_json({})`` turns bilateral off, while the
# studies' ``PipelineOptions()`` turns it on.
BILATERAL = {"window": 5, "sigma_s": 2.0, "sigma_r": 0.1}


@dataclass(frozen=True)
class Operation:
    """One CLI command: ``out`` is its output directory, ``expects`` the
    files (relative to ``out``) it must leave behind."""

    command: str
    out: str
    config: dict
    expects: tuple[str, ...]


def operations(workload: str, fixture: dict) -> list[Operation]:
    if workload == "turmeric":
        return [Operation("turmeric", "study", fixture, ("report.json", "accuracy_corrected.csv"))]
    if workload == "colorcheck":
        return [Operation("colorcheck", "study", fixture, ("report.json", "accuracy.csv"))]
    if workload != "cli-chain":
        raise KeyError(workload)
    return [
        Operation(
            "synth",
            "data",
            {"kind": "turmeric", **fixture},
            ("reflectance", "transmittance", "white_reflectance", "white_transmittance"),
        ),
        Operation(
            "preprocess",
            "pre_reflectance",
            {
                "input": "data/reflectance",
                "white": "data/white_reflectance",
                "options": {"bilateral": BILATERAL},
            },
            (),
        ),
        Operation(
            "preprocess",
            "pre_transmittance",
            {
                "input": "data/transmittance",
                "white": "data/white_transmittance",
                "options": {"bilateral": BILATERAL},
            },
            (),
        ),
        Operation(
            "matrix",
            "matrix",
            {"reflectance": "pre_reflectance", "transmittance": "pre_transmittance"},
            ("matrix.csv",),
        ),
        Operation(
            "train",
            "train",
            {"matrix": "matrix/matrix.csv", "model": "decision_tree"},
            ("model.json", "split.json", "train_eval.json"),
        ),
        Operation(
            "eval",
            "eval",
            {"model": "train/model.json", "matrix": "matrix/matrix.csv"},
            ("eval.json",),
        ),
        Operation(
            "kl-regress",
            "kl",
            {"input": "pre_transmittance"},
            ("kl_curve.csv", "functional_map.json", "functional_map_medians.json"),
        ),
        Operation("protocol-sim", "protocol", {}, ("transcript.log",)),
    ]


def input_size(workload: str, fixture: dict) -> dict:
    """Cubes rendered, superpixel matrix rows and raw bytes of one iteration's input."""
    n_bands = 13
    cubes = fixture["replicates"] * (24 if workload == "colorcheck" else 2 * 9)
    cells = (fixture["width"] // 10) * (fixture["height"] // 10)
    rows = cubes * cells if workload == "colorcheck" else cubes // 2 * cells
    raw_bytes = cubes * (n_bands + 1) * fixture["width"] * fixture["height"] * 2
    return {"cubes": cubes, "matrix_rows": rows, "raw_bytes": raw_bytes}


def accuracy(workload: str, root: Path) -> float:
    """The workload's headline accuracy, read back from its artifacts."""
    if workload == "turmeric":
        report = json.loads((root / "study" / "report.json").read_text())
        return float(report["best"]["corrected"]["merged"])
    if workload == "colorcheck":
        report = json.loads((root / "study" / "report.json").read_text())
        return float(max(report["accuracy"]["LDA"].values()))
    return float(json.loads((root / "train" / "train_eval.json").read_text())["accuracy"])


def kl_r2(workload: str, root: Path) -> float:
    """R^2 of the chain's KL functional map; 0 for the studies, which have none."""
    if workload != "cli-chain":
        return 0.0
    return float(json.loads((root / "kl" / "functional_map.json").read_text())["r_squared"])


def digests(root: Path, op: Operation) -> dict[str, str]:
    """sha256 of every file an operation wrote, keyed by path under ``root``."""
    out = {}
    for path in sorted((root / op.out).rglob("*")):
        if path.is_file():
            out[path.relative_to(root).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def recorded_digests(workload: str, seed: int, fixture: dict) -> dict[str, str] | None:
    """Digests recorded for this workload and seed, if they were recorded
    for the same fixture."""
    if not DIGESTS_PATH.is_file():
        return None
    entry = json.loads(DIGESTS_PATH.read_text()).get(workload, {})
    if entry.get("seed") != seed or entry.get("fixture") != fixture:
        return None
    return entry["files"]
