"""The traced benchmark wraps library functions by name (``bench/spans.py``
``TARGETS``); renaming or removing one must fail here, not in the bench."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans_under_test", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def target_object(target):
    owner = importlib.import_module(target.module)
    if "." in target.attr:
        cls_name, method = target.attr.split(".")
        raw = vars(getattr(owner, cls_name))[method]
        return raw.__func__ if isinstance(raw, classmethod) else raw
    return getattr(owner, target.attr)


def test_every_span_target_is_wrapped_and_restored():
    spans = load_spans()
    originals = [target_object(t) for t in spans.TARGETS]
    with spans.patched(spans.Recorder()):
        for target, original in zip(spans.TARGETS, originals):
            assert target_object(target).__wrapped__ is original, target.attr
    assert [target_object(t) for t in spans.TARGETS] == originals
