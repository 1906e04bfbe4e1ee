"""Seconds-long check of the benchmark itself.

    python3 bench/selfcheck.py

Runs every workload on a reduced fixture, untraced and traced, and
asserts that
- the last line is the result object with exactly the expected keys,
  every operation passed, and every metric of ``BENCHMARK.json``, as well
  as ``failed_ops_ratio``, ``accuracy`` and (on the chain) ``kl_r2``, is
  printed by name with its unit;
- the traced run has nonzero counts and times for each layer its workload
  exercises, and zero ``core.*`` bytes on the two studies, which do no
  dataset I/O;
- in a directory holding only ``BENCHMARK.json`` and ``bench/``, the
  benchmark exits nonzero without printing a result.
Exits 1 on the first failed assertion.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SMALL = json.dumps({"replicates": 2, "width": 20, "height": 20})

STUDY_LAYERS = [
    "models.random_forest.fit_s", "models.random_forest.trees", "models.decision_tree.fit_s",
    "models.svm.fit_s", "models.logistic.fit_s", "models.knn.predict_s", "models.predict_s",
    "models.evaluate_s", "models.rows_predicted", "models.split_s",
    "preprocess.bilateral_s", "preprocess.bilateral_frames", "preprocess.dark_s",
    "preprocess.spatial_s", "preprocess.spectral_s", "preprocess.fit_corrections_s",
    "preprocess.pipeline_calls", "studies.generate_s", "synth.render_s", "synth.render_calls",
    "features.build_matrix_s", "features.matrix_rows", "features.normalize_s",
    "features.lda_fit_s", "features.project_s",
    "harness.pipeline_on_matrix_s", "harness.write_bundle_s",
]
EXERCISED = {
    "turmeric": STUDY_LAYERS,
    "colorcheck": STUDY_LAYERS + ["features.pca_fit_s"],
    "cli-chain": [
        "models.decision_tree.fit_s", "models.predict_s", "models.evaluate_s",
        "models.rows_predicted", "models.split_s",
        "preprocess.bilateral_s", "preprocess.bilateral_frames", "preprocess.dark_s",
        "preprocess.spatial_s", "preprocess.spectral_s", "preprocess.fit_corrections_s",
        "preprocess.quantize_s", "preprocess.pipeline_calls",
        "core.save_dataset_s", "core.load_dataset_s", "core.bytes_written", "core.bytes_read",
        "studies.generate_s", "synth.render_s", "synth.render_calls",
        "features.build_matrix_s", "features.matrix_rows", "features.csv_s", "features.lda_fit_s",
        "divergence.extractor_fit_s", "divergence.curve_s", "divergence.kl_points",
        "divergence.kl_ceiling_share", "divergence.kl_r2",
        "cli.synth_s", "cli.preprocess_s", "cli.matrix_s", "cli.train_s", "cli.eval_s",
        "cli.kl-regress_s", "cli.protocol-sim_s", "devicelink.capture_s", "devicelink.events",
    ],
}
STUDY_ZERO = ["core.bytes_written", "core.bytes_read"]


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)


def run(cwd: Path, workload: str, trace: int, fixture: str | None = SMALL):
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
               "--seconds", "1", "--trace", str(trace)]
    if fixture:
        command += ["--fixture", fixture]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in EXERCISED:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run(ROOT, workload, trace)
            where = f"{workload} trace={trace}"
            check(proc.returncode == 0, f"{where} exited {proc.returncode}: {proc.stderr}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where} result keys")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{where} not correct: {lines}")
            check(set(result["metrics"]) == {m["name"] for m in wanted}, f"{where} metric names")
            for m in wanted:
                got = result["metrics"][m["name"]]
                check(got["unit"] == m["unit"], f"{where} {m['name']} unit {got['unit']}")
                check(any(l.startswith(f"{m['name']} = ") and l.endswith(f" {m['unit']}") for l in lines),
                      f"{where} {m['name']} not printed with its unit")
            if not trace:
                quality = ["failed_ops_ratio", "accuracy"] + (["kl_r2"] if workload == "cli-chain" else [])
                for name in quality:
                    check(any(l.startswith(f"{name} = ") and " ratio" in l for l in lines),
                          f"{where} {name} not printed with its unit")
            if trace:
                values = {k: v["value"] for k, v in result["metrics"].items()}
                for name in EXERCISED[workload]:
                    check(values[name] > 0, f"{where} {name} is {values[name]}")
                if workload != "cli-chain":
                    for name in STUDY_ZERO:
                        check(values[name] == 0, f"{where} {name} is {values[name]}, expected 0")
            print(f"ok {where}: {len(wanted)} metrics")

    (ROOT / ".bench_out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".bench_out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "turmeric", 0, fixture=None)
        check(proc.returncode != 0, "benchmark without sources exited 0")
        check(not proc.stdout.strip(), f"benchmark without sources printed {proc.stdout!r}")
        print("ok without sources: exits", proc.returncode, "and prints no result")
    finally:
        shutil.rmtree(bare)
    return 0


if __name__ == "__main__":
    sys.exit(main())
