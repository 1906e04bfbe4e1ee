"""Batch command-line interface.

One binary with subcommands; global flags ``--config`` (JSON file),
``--seed`` and ``--out``.  Exit codes: 0 success, 2 validation error,
3 IO error.

Each command's handler lives beside the layer it drives (``COMMANDS``),
and ``main`` imports only that module, so a command starts with its own
layer loaded and not the rest of the package.

A handler's keyword parameters are its config schema: ``main`` reads each
key of the config object as the parameter it names, typed by its
annotation (``jsonio.json_kwargs``); a key that names none, or a value of
the wrong type, exits 2.  ``--out`` appears at a handler's first write.  A
handler may end in a ``**rest``, which must be annotated with a dataclass:
the handler then also takes that dataclass's fields, type-checked, and
reads them into it.  The study handlers take the ``CaseStudyConfig``
fields as ``**study``, and ``consistency`` and ``repeatability`` the
``synth.Device`` fields as ``**device``.
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module
from pathlib import Path

from . import __version__
from .errors import DualMsiError, ValidationError
from .jsonio import json_kwargs, read_json

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    obj = read_json(path, "config")
    if not isinstance(obj, dict):
        raise ValidationError("config must be a JSON object")
    return obj


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
    for command, (help_text, *_) in COMMANDS.items():
        sub.add_parser(command, help=help_text)
    return parser


# Each command's help text, the module its handler lives in, the handler's
# name there, and the positional arguments it takes after ``args`` and
# ``out``.  Its keyword parameters are read from the config.
COMMANDS = {
    "synth": ("generate a synthetic case-study dataset", "studies", "cmd_synth"),
    "preprocess": ("apply the correction pipeline to a dataset", "preprocess", "cmd_preprocess"),
    "matrix": ("build a superpixel data matrix CSV", "features", "cmd_matrix"),
    "train": ("train one classifier on a matrix CSV", "models", "cmd_train"),
    "eval": ("evaluate a saved model on a matrix CSV", "models", "cmd_eval"),
    "kl-regress": ("KL curve + functional map for a dataset", "divergence", "cmd_kl_regress"),
    "colorcheck": ("run the 24-color palette study", "harness", "cmd_study", "color_chart"),
    "turmeric": ("run the powder adulteration study", "harness", "cmd_study", "turmeric"),
    "coconut-oil": ("run the liquid adulteration study", "harness", "cmd_study", "coconut_oil"),
    "consistency": ("spatial consistency report", "harness", "cmd_consistency"),
    "repeatability": ("temporal repeatability report", "harness", "cmd_repeatability"),
    "protocol-sim": ("controller/camera handshake simulation", "devicelink", "cmd_protocol_sim"),
}


def command_handler(command: str):
    """The handler of ``command``, imported from its module, and the
    positional arguments it takes after ``args`` and ``out``."""
    _, module, name, *extra = COMMANDS[command]
    return getattr(import_module(f"{__package__}.{module}"), name), extra


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        if args.out is None:
            raise ValidationError("this command needs --out")
        handler, extra = command_handler(args.command)
        kwargs = json_kwargs(handler, config, f"{args.command} config", 2 + len(extra))
        handler(args, Path(args.out), *extra, **kwargs)
        return EXIT_OK
    except DualMsiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
