"""The JSON boundary: strict JSON files and typed readers of JSON values.

:func:`read_json` and :func:`write_json` read and write strict JSON (no
non-finite numbers); :func:`json_value`, :func:`json_kwargs` and
:func:`json_call` read a JSON value as an annotated type or as the keyword
arguments of a function.  Nothing here imports numpy, so the CLI shell
(``dualmsi.cli``) starts without it.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
from dataclasses import is_dataclass
from enum import Enum
from pathlib import Path
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

from .errors import ValidationError


def _reject_non_finite(token: str):
    raise ValueError(f"{token} is not a finite number")


def _finite_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):  # a literal such as 1e400 overflows to inf
        _reject_non_finite(token)
    return value


def read_json(path, what: str):
    """The JSON value held by the UTF-8 file ``path``.

    ``NaN``, ``Infinity``, ``-Infinity`` and a number that overflows to inf
    are refused, as :func:`write_json` never writes them.  Bytes that are
    not UTF-8, malformed JSON and a refused number raise ValidationError
    naming ``what`` and the file; a file that cannot be read raises OSError.
    """
    raw = Path(path).read_bytes()
    try:
        return json.loads(
            raw.decode("utf-8"), parse_constant=_reject_non_finite, parse_float=_finite_float
        )
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise ValidationError(f"malformed {what} {path}: {exc}") from None


def write_json(obj, path) -> None:
    """Write ``obj`` to ``path`` as strict JSON with sorted keys; a
    non-finite float raises ValueError, so :func:`read_json` reads back
    everything written here.  ``obj`` is encoded before the parent
    directory is made: one nested too deeply to encode raises
    ValidationError, as :func:`read_json` does, and leaves nothing behind."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except RecursionError:
        raise ValidationError(f"cannot write {path}: JSON nested too deeply") from None
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def json_value(hint, value, what: str):
    """``value`` parsed from JSON as the annotated type ``hint``.

    Numbers must be JSON numbers (an int is accepted for a float, a bool
    never is), a string, bool or object must be one, an Enum comes from
    one of its values, tuples come from lists, ``X | None`` also takes
    null, and a dataclass comes from an object read by :func:`json_call`.
    Anything else raises ValidationError.
    """
    if get_origin(hint) in (Union, UnionType):
        if value is None and type(None) in get_args(hint):
            return None
        (hint,) = [a for a in get_args(hint) if a is not type(None)]
    args = get_args(hint)
    if get_origin(hint) is tuple and isinstance(value, list):
        if args[-1] is not Ellipsis and len(value) != len(args):
            raise ValidationError(f"{what} needs {len(args)} entries, got {len(value)}")
        return tuple(json_value(args[0], v, what) for v in value)
    if is_dataclass(hint) and isinstance(value, dict):
        return json_call(hint, value, what)
    if isinstance(hint, type) and issubclass(hint, Enum):
        members = {m.value: m for m in hint}
        if isinstance(value, str) and value in members:
            return members[value]
        raise ValidationError(f"unknown {what} {value!r} (choose from: {', '.join(members)})")
    if hint in (bool, str, dict) and isinstance(value, hint):
        return value
    if hint in (int, float) and isinstance(value, (int, float)) and not isinstance(value, bool):
        if hint is int and isinstance(value, int):
            return value
        if hint is float:
            try:
                return float(value)
            except OverflowError:
                raise ValidationError(f"{what} {value} is too large") from None
    raise ValidationError(f"{what} must be {getattr(hint, '__name__', hint)}, got {value!r}")


@functools.cache
def _readable(fn, n_args: int):
    """The type hints of the keyword parameters of ``fn`` that ``n_args``
    positional arguments leave unfilled, the required ones among them, the
    names of all its keyword parameters, and the keys its ``**rest`` takes
    with their type hints: none without one, else the fields of the
    dataclass it is annotated with.  A dataclass's hints are its fields',
    each resolved in the module of the class that declares it.  Cached:
    resolving string annotations is slow."""
    params = list(inspect.signature(fn).parameters.values())
    hints = get_type_hints(fn.__init__ if isinstance(fn, type) and not is_dataclass(fn) else fn)
    keyword = {p.name for p in params if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)}
    named = [p for p in params[n_args:] if p.name in keyword]
    rest = [hints[p.name] for p in params if p.kind is p.VAR_KEYWORD]
    return (
        {p.name: hints[p.name] for p in named},
        [p.name for p in named if p.default is p.empty],
        keyword,
        _readable(rest[0], 0)[0] if rest else {},
    )


def json_kwargs(fn, obj: dict, what: str, n_args: int) -> dict:
    """The keyword arguments read from the JSON object ``obj`` for ``fn``
    called with ``n_args`` positional arguments first.

    A key naming a parameter of ``fn`` that those arguments leave unfilled
    is read by :func:`json_value` as that parameter's annotated type.  A
    ``**rest`` of ``fn`` must be annotated with a dataclass: the names of
    its fields go to ``**rest``, each type-checked here and passed on as
    given.  Any other key raises ValidationError, naming every key ``fn``
    takes, as does a missing required parameter.
    """
    hints, required, keyword, passed_on = _readable(fn, n_args)
    unknown = sorted(k for k in obj if k not in hints and (k in keyword or k not in passed_on))
    if unknown:
        choices = sorted({*hints, *passed_on})
        raise ValidationError(f"unknown {what} keys {unknown} (choose from {choices})")
    missing = [name for name in required if name not in obj]
    if missing:
        raise ValidationError(f"{what} is missing keys {missing}")
    kwargs = {}
    for k, v in obj.items():
        if k in hints:
            v = json_value(hints[k], v, f"{what}.{k}")
        else:
            json_value(passed_on[k], v, f"{what}.{k}")
        kwargs[k] = v
    return kwargs


def json_call(fn, obj: dict, what: str, *args):
    """``fn(*args, **kwargs)`` with every keyword read from the JSON object
    ``obj`` by :func:`json_kwargs`."""
    return fn(*args, **json_kwargs(fn, obj, what, len(args)))
