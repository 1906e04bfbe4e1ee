"""Span recorder that times dualmsi's layers from outside the package.

``patched(recorder)`` wraps the public functions listed in ``TARGETS`` for
the duration of a ``with`` block and restores the originals afterwards.
A function is replaced in its defining module *and* in every other
``dualmsi`` module that bound it with ``from .x import y``: ``harness``
and ``cli`` call ``evaluate``, ``build_matrix``, ``load_dataset`` and the
rest through their own namespaces, so patching only the defining module
would miss those calls.  Methods are patched on their class, which every
caller shares.

Spans carry a name, start and end (``perf_counter_ns``), the id of the
enclosing span, and optional counts.  They stay in memory; the caller
writes them out when the run ends.
"""

from __future__ import annotations

import importlib
import pkgutil
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start_ns: int
    end_ns: int = 0
    counts: dict = field(default_factory=dict)


class Recorder:
    """In-memory span list with a stack of open spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, time.perf_counter_ns())
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end_ns = time.perf_counter_ns()
            self._stack.pop()


# --------------------------------------------------------------------------
# Count hooks: called after the span closed, so their work is not timed.
# --------------------------------------------------------------------------


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def _saved_bytes(args, kwargs, result) -> dict:
    return {"bytes_written": _dir_bytes(kwargs.get("dir_path", args[1] if len(args) > 1 else None))}


def _loaded_bytes(args, kwargs, result) -> dict:
    return {"bytes_read": _dir_bytes(kwargs.get("dir_path", args[0] if args else None))}


def _predicted_rows(args, kwargs, result) -> dict:
    return {"rows": int(len(result))}


def _matrix_rows(args, kwargs, result) -> dict:
    return {"rows": int(result.n_rows)}


def _kl_points(args, kwargs, result) -> dict:
    kls = [kl for _, kl in result]
    top = max(kls)
    at_ceiling = sum(1 for kl in kls if abs(kl - top) <= 1e-9 * abs(top))
    return {"points": len(kls), "at_ceiling": at_ceiling}


def _events(args, kwargs, result) -> dict:
    return {"events": len(result)}


@dataclass(frozen=True)
class Target:
    """One wrapped function: ``attr`` is ``name`` or ``Class.method``.

    ``absorb`` makes the span own the time of every span nested in it, so
    a forest's fit includes the fits of its trees.
    """

    module: str
    attr: str
    span: str
    hook: object = None
    absorb: bool = False


TARGETS = (
    Target("dualmsi.models", "RandomForest.fit", "models.random_forest.fit", absorb=True),
    Target("dualmsi.models", "RandomForest.predict", "models.predict", _predicted_rows, absorb=True),
    Target("dualmsi.models", "DecisionTree.fit", "models.decision_tree.fit"),
    Target("dualmsi.models", "DecisionTree.predict", "models.predict", _predicted_rows),
    Target("dualmsi.models", "LinearSVM.fit", "models.svm.fit"),
    Target("dualmsi.models", "LinearSVM.predict", "models.predict", _predicted_rows),
    Target("dualmsi.models", "LogisticRegressionGD.fit", "models.logistic.fit"),
    Target("dualmsi.models", "LogisticRegressionGD.predict", "models.predict", _predicted_rows),
    Target("dualmsi.models", "KNearestNeighbors.predict", "models.knn.predict", _predicted_rows),
    Target("dualmsi.models", "evaluate", "models.evaluate"),
    Target("dualmsi.models", "stratified_split", "models.split"),
    Target("dualmsi.models", "split_matrix", "models.split"),
    Target("dualmsi.preprocess", "bilateral_filter", "preprocess.bilateral"),
    Target("dualmsi.preprocess", "subtract_dark", "preprocess.dark"),
    Target("dualmsi.preprocess", "apply_spatial_gain", "preprocess.spatial"),
    Target("dualmsi.preprocess", "apply_spectral_gain", "preprocess.spectral"),
    Target("dualmsi.preprocess", "fit_corrections", "preprocess.fit_corrections"),
    Target("dualmsi.preprocess", "quantize_sample", "preprocess.quantize"),
    Target("dualmsi.preprocess", "preprocess_pipeline", "preprocess.pipeline"),
    Target("dualmsi.core", "save_dataset", "core.save_dataset", _saved_bytes),
    Target("dualmsi.core", "load_dataset", "core.load_dataset", _loaded_bytes),
    Target("dualmsi.studies", "generate_case_study", "studies.generate"),
    Target("dualmsi.studies", "render_white_reference", "studies.generate"),
    Target("dualmsi.synth", "render", "synth.render"),
    Target("dualmsi.features", "build_matrix", "features.build_matrix", _matrix_rows),
    Target("dualmsi.features", "merge", "features.build_matrix"),
    Target("dualmsi.features", "band_normalize", "features.normalize"),
    Target("dualmsi.features", "apply_normalizer", "features.normalize"),
    Target("dualmsi.features", "lda_fit", "features.lda_fit"),
    Target("dualmsi.features", "pca_fit", "features.pca_fit"),
    Target("dualmsi.features", "project", "features.project"),
    Target("dualmsi.features", "DataMatrix.to_csv", "features.csv"),
    Target("dualmsi.features", "DataMatrix.from_csv", "features.csv"),
    Target("dualmsi.divergence", "lda_feature_extractor", "divergence.extractor_fit"),
    Target("dualmsi.divergence", "adulteration_curve", "divergence.curve", _kl_points),
    Target("dualmsi.harness", "run_pipeline_on_matrix", "harness.pipeline_on_matrix"),
    Target("dualmsi.harness", "write_study_bundle", "harness.write_bundle"),
    Target("dualmsi.devicelink", "run_sequential_capture", "devicelink.capture", _events),
    Target("dualmsi.devicelink", "capture_handshake", "devicelink.capture", _events),
)

ABSORBING = frozenset(t.span for t in TARGETS if t.absorb)


def _wrap(fn, target: Target, recorder: Recorder):
    def wrapper(*args, **kwargs):
        with recorder.span(target.span) as span:
            result = fn(*args, **kwargs)
        if target.hook is not None:
            span.counts.update(target.hook(args, kwargs, result))
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _package_modules() -> list:
    import dualmsi

    names = [f"dualmsi.{m.name}" for m in pkgutil.iter_modules(dualmsi.__path__)]
    return [dualmsi] + [importlib.import_module(n) for n in names]


@contextmanager
def patched(recorder: Recorder):
    """Route every call to a ``TARGETS`` function through ``recorder``."""
    modules = _package_modules()
    undo: list[tuple[object, str, object]] = []
    try:
        for target in TARGETS:
            owner = importlib.import_module(target.module)
            if "." in target.attr:
                cls_name, method = target.attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    new = classmethod(_wrap(raw.__func__, target, recorder))
                else:
                    new = _wrap(raw, target, recorder)
                undo.append((cls, method, raw))
                setattr(cls, method, new)
                continue
            original = getattr(owner, target.attr)
            wrapped = _wrap(original, target, recorder)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, name, original))
                        setattr(module, name, wrapped)
        yield recorder
    finally:
        for obj, name, original in reversed(undo):
            setattr(obj, name, original)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer times and counts of one workload iteration.

    A layer's time is the self time of its spans: their duration minus
    that of their direct children.  A span named in ``ABSORBING`` keeps
    its whole duration and its descendants are charged nothing, so a
    forest's fit includes the fits of its trees.  ``cli.*`` spans, one per
    command, report their whole duration.
    """
    by_id = {s.id: s for s in spans}
    absorbed = set()
    for s in spans:  # stored in start order, so parents come first
        if s.parent in absorbed or (s.parent is not None and by_id[s.parent].name in ABSORBING):
            absorbed.add(s.id)
    charged = {s.id: s.end_ns - s.start_ns for s in spans}
    for s in spans:
        if s.parent is not None and s.id not in absorbed:
            charged[s.parent] -= s.end_ns - s.start_ns

    out = {f"{name}_s": 0.0 for name in sorted({t.span for t in TARGETS})}
    counts: Counter = Counter()
    for s in spans:
        if s.name.startswith("cli."):
            key = f"{s.name}_s"
            out[key] = out.get(key, 0.0) + (s.end_ns - s.start_ns) / 1e9
        elif s.id in absorbed:
            counts[f"absorbed:{s.name}"] += 1
        else:
            out[f"{s.name}_s"] += charged[s.id] / 1e9
            counts[s.name] += 1
            counts.update({f"{s.name}:{key}": value for key, value in s.counts.items()})

    points = counts["divergence.curve:points"]
    out.update({
        "models.random_forest.trees": counts["absorbed:models.decision_tree.fit"],
        "models.rows_predicted": counts["models.predict:rows"] + counts["models.knn.predict:rows"],
        "preprocess.bilateral_frames": counts["preprocess.bilateral"],
        "preprocess.pipeline_calls": counts["preprocess.pipeline"],
        "core.bytes_written": counts["core.save_dataset:bytes_written"],
        "core.bytes_read": counts["core.load_dataset:bytes_read"],
        "synth.render_calls": counts["synth.render"],
        "features.matrix_rows": counts["features.build_matrix:rows"],
        "divergence.kl_points": points,
        "divergence.kl_ceiling_share": counts["divergence.curve:at_ceiling"] / points if points else 0.0,
        "devicelink.events": counts["devicelink.capture:events"],
    })
    return out
