"""dualmsi benchmark: run one workload through the CLI and report metrics.

    python3 bench/run.py --workload turmeric|colorcheck|cli-chain \\
        --seed N --seconds S --trace 0|1 [--fixture JSON]

Run from anywhere; the program is taken from ``src/`` next to this
directory, with no install step.  Each run starts fresh processes: a few
that only import ``dualmsi.cli`` (their median import time is
``setup_s``) and one worker that repeats the workload for ``--seconds``
(see ``bench/worker.py``).  BLAS and OpenMP are pinned to one thread.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` its per-layer metrics from a traced run.  Human-readable
lines (machine fingerprint, input size, every metric with its unit) come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Results and
spans are also written under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

SETUP_PROBES = 3  # import-only processes per run, besides the worker's own import
BLAS_THREADS = "1"
RUN_LIMIT_S = 170  # every run must end within 180 s


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def worker(args: list[str], env: dict, timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), *args],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dualmsi benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.FIXTURES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--fixture", help="JSON object overriding the fixture (quick checks)")
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "dualmsi" / "cli.py").is_file():
        return fail(f"no dualmsi sources under {ROOT / 'src'}")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS=BLAS_THREADS,
        OMP_NUM_THREADS=BLAS_THREADS,
        MKL_NUM_THREADS=BLAS_THREADS,
    )
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=out_dir))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        imports = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                imports.append(worker(["--probe"], env, RUN_LIMIT_S)["import_s"])
        command = [
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--work", str(work / "iterations"),
            "--spans", str(out_dir / f"spans-{tag}.json"),
        ]
        if args.fixture:
            command += ["--fixture", args.fixture]
        remaining = RUN_LIMIT_S - (time.monotonic() - started)
        result = worker(command, env, remaining)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    imports.append(result["import_s"])

    walls = result["walls"]
    if args.trace:
        values = result["layers"]
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(imports),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    missing = [m["name"] for m in wanted if values.get(m["name"]) is None]
    if missing:
        return fail(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    attempted, failed = result["attempted"], result["failed"]
    correct = failed == 0 and 0.0 < (result["accuracy"] or 0.0) <= 1.0
    fingerprint = {
        "nproc": os.cpu_count(),
        "blas_threads": int(BLAS_THREADS),
        **result["fingerprint"],
    }
    inputs = workloads.input_size(args.workload, result["fixture"])
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": fingerprint,
        "inputs": inputs,
        "wall_samples_s": walls,
        "traced_wall_samples_s": result["traced_walls"],
        "setup_samples_s": imports,
        "digests_checked": result["digests_checked"],
        "accuracy": result["accuracy"],
        "kl_r2": result["kl_r2"],
        "errors": result["errors"],
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    (out_dir / f"result-{tag}.json").write_text(json.dumps(report, indent=2) + "\n")

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# fingerprint " + " ".join(f"{k}={v}" for k, v in fingerprint.items()))
    print("# inputs " + " ".join(f"{k}={v}" for k, v in inputs.items()))
    q1, q2, q3 = quartiles(walls)
    print(f"# wall_s samples={len(walls)} q1={q1:.4f} median={q2:.4f} q3={q3:.4f}")
    # Quality figures: deterministic for a seed, so they are guarded by the
    # digest and rerun checks rather than by a bound across seeds.
    print(f"failed_ops_ratio = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} CLI commands; digests checked: {result['digests_checked']})")
    print(f"accuracy = {result['accuracy']} ratio")
    if args.workload == "cli-chain":
        print(f"kl_r2 = {result['kl_r2']} ratio")
    for error in result["errors"]:
        print("# failure: " + error.rstrip().replace("\n", "\n#   "))
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
