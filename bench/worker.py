"""One workload run in a fresh process: import, repeat, check, report.

    python3 bench/worker.py --probe
    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        --work DIR [--fixture JSON] [--spans FILE]

``--probe`` only imports ``dualmsi.cli`` and prints how long that took.
Otherwise the worker repeats the workload's iteration until the next one
would end past ``--seconds``, checks every operation's outputs, and
prints one JSON object as its last line.  With ``--trace 1`` it
alternates untraced and traced iterations; per-layer metrics come from
the traced ones, ``trace.overhead_s`` from the difference of the two.

Run it through ``bench/run.py``, which sets ``PYTHONPATH`` to the
checkout's ``src`` and pins the BLAS thread count.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402
import workloads  # noqa: E402


def import_cli():
    """Import ``dualmsi.cli``; return it and the seconds the import took."""
    start = time.perf_counter()
    from dualmsi import cli

    elapsed = time.perf_counter() - start
    src = Path(__file__).resolve().parent.parent / "src"
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"dualmsi imported from {cli.__file__}, not from {src}")
    return cli, elapsed


def fingerprint() -> dict:
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict form
        openblas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
    }


def run_iteration(cli, workload: str, fixture: dict, seed: int, root: Path, recorder=None):
    """Run every operation of one iteration inside ``root``.

    Returns (wall seconds, per-operation results).  Only the CLI calls
    are timed; writing configs and checking artifacts are not.
    """
    ops = workloads.operations(workload, fixture)
    (root / "configs").mkdir(parents=True)
    wall = 0.0
    results = []
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for i, op in enumerate(ops):
            config = Path("configs") / f"{i}-{op.command}.json"
            config.write_text(json.dumps(op.config))
            argv = ["--config", str(config), "--seed", str(seed), "--out", op.out, op.command]
            error = None
            span = recorder.span(f"cli.{op.command}") if recorder else contextlib.nullcontext()
            sink = io.StringIO()
            start = time.perf_counter()
            try:
                with span, contextlib.redirect_stdout(sink):
                    code = cli.main(argv)
            except SystemExit as exc:  # argparse exits on a malformed command line
                code = exc.code
            except Exception:  # an operation that raises counts as failed
                code, error = None, traceback.format_exc()
            wall += time.perf_counter() - start
            if error is None and code != 0:
                error = f"exit code {code}"
            missing = [name for name in op.expects if not (Path(op.out) / name).exists()]
            if error is None and missing:
                error = f"missing artifacts {missing}"
            results.append({"op": op, "error": error, "digests": workloads.digests(Path("."), op)})
    finally:
        os.chdir(cwd)
    return wall, results


def check_digests(results, reference: dict[str, str] | None, kind: str) -> None:
    """Mark an operation failed when a file it wrote differs from ``reference``."""
    if reference is None:
        return
    for result in results:
        if result["error"] is not None:
            continue
        own = {k: v for k, v in reference.items() if k.split("/")[0] == result["op"].out}
        if result["digests"] != own:
            differing = sorted(set(own.items()) ^ set(result["digests"].items()))
            result["error"] = f"{kind} digest mismatch: {sorted({k for k, _ in differing})}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path)
    parser.add_argument("--fixture", help="JSON object overriding the workload's fixture")
    parser.add_argument("--spans", type=Path, help="file the traced spans are written to")
    parser.add_argument("--record-digests", action="store_true",
                        help="write the first iteration's digests to bench/digests.json")
    args = parser.parse_args(argv)

    cli, import_s = import_cli()
    if args.probe:
        print(json.dumps({"import_s": import_s}))
        return 0

    fixture = dict(workloads.FIXTURES[args.workload])
    if args.fixture:
        fixture.update(json.loads(args.fixture))
    recorded = workloads.recorded_digests(args.workload, args.seed, fixture)

    start = time.perf_counter()
    walls = {False: [], True: []}
    layer_runs = []
    all_spans = []
    attempted = failed = 0
    errors = []
    first_digests = None
    accuracy = kl_r2 = None
    iteration = 0
    while True:
        traced = bool(args.trace) and iteration % 2 == 1
        root = args.work / f"iter{iteration}"
        recorder = spans.Recorder() if traced else None
        with spans.patched(recorder) if traced else contextlib.nullcontext():
            wall, results = run_iteration(cli, args.workload, fixture, args.seed, root, recorder)
        digests = {k: v for r in results for k, v in r["digests"].items()}
        if first_digests is None:
            first_digests = digests
            if all(r["error"] is None for r in results):
                try:
                    accuracy = workloads.accuracy(args.workload, root)
                    kl_r2 = workloads.kl_r2(args.workload, root)
                except (OSError, KeyError, TypeError, ValueError) as exc:
                    results[-1]["error"] = f"unreadable result: {type(exc).__name__}: {exc}"
        check_digests(results, recorded, "recorded")
        check_digests(results, first_digests, "rerun")
        attempted += len(results)
        for r in results:
            if r["error"] is not None:
                failed += 1
                errors.append(f"iteration {iteration} {r['op'].command} -> {r['op'].out}: {r['error']}")
        walls[traced].append(wall)
        if traced:
            layer_runs.append(spans.layer_metrics(recorder.spans))
            all_spans.append([dataclasses.asdict(s) for s in recorder.spans])
        shutil.rmtree(root)
        iteration += 1
        elapsed = time.perf_counter() - start
        typical = statistics.median(walls[False] + walls[True])
        enough = walls[False] and (walls[True] or not args.trace)
        if enough and elapsed + typical > args.seconds:
            break

    if args.record_digests:
        entry = {"seed": args.seed, "fixture": fixture, "files": first_digests}
        table = json.loads(workloads.DIGESTS_PATH.read_text()) if workloads.DIGESTS_PATH.is_file() else {}
        table[args.workload] = entry
        workloads.DIGESTS_PATH.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")

    out = {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "digests_checked": recorded is not None,
        "import_s": import_s,
        "walls": walls[False],
        "traced_walls": walls[True],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "accuracy": accuracy,
        "kl_r2": kl_r2,
        "fixture": fixture,
        "fingerprint": fingerprint(),
    }
    if args.trace:
        # counts repeat exactly; median_low keeps them whole numbers
        layers = {
            n: (statistics.median if n.endswith("_s") else statistics.median_low)(
                [run[n] for run in layer_runs]
            )
            for n in layer_runs[0]
        }
        layers["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
        layers["divergence.kl_r2"] = kl_r2 or 0.0
        for op in workloads.operations("cli-chain", fixture):
            layers.setdefault(f"cli.{op.command}_s", 0.0)
        out["layers"] = layers
        if args.spans:
            args.spans.write_text(json.dumps({"iterations": all_spans}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
