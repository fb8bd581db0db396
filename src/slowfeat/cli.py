"""Command line: parse arguments and dispatch to the pipeline stages.

Each subcommand runs one ``slowfeat.pipeline`` function on the
``RunConfig`` built from ``--config`` and the flags, one flag per
config field.  Commands exit 0 on success and 1 with a one-line
diagnostic on failure.  The stage functions and the manifest reader
are re-exported here under their own names for callers that drive the
pipeline through this module.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import config as config_module
from . import dataio
from .config import RunConfig
from .dataio import MANIFEST_NAME, load_manifest  # re-exported
from .errors import InvalidInput, SlowFeatError
from .pipeline import (
    cmd_evaluate,
    cmd_featurize,
    cmd_fit_classifier,
    cmd_synth,
    cmd_toy_sfa,
    cmd_train,
)

_COMMANDS = {
    "synth": (cmd_synth, "generate a labeled synthetic dataset"),
    "train": (cmd_train,
              "fit a slow-feature model bank on the training split"),
    "featurize": (cmd_featurize, "compute ASD features for every sequence"),
    "fit-classifier": (cmd_fit_classifier,
                       "train the linear classifier on the training split"),
    "evaluate": (cmd_evaluate, "score the test split and write reports"),
    "toy-sfa": (cmd_toy_sfa,
                "demix the slow latent of the two-channel toy signal"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="slowfeat",
        description="slow-feature pipeline for sequence classification")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        # flags match whole: ``--delta`` must not be read as ``--delta-t``
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--config", metavar="PATH",
                       help="key = value config file")
        for field in config_module.field_names():
            p.add_argument("--" + field.replace("_", "-"),
                           dest="opt_" + field, metavar="V",
                           help=argparse.SUPPRESS)
    return parser


def config_from_args(args) -> RunConfig:
    base = dataio.load_config(args.config) if args.config else RunConfig()
    overrides = {}
    for field in config_module.field_names():
        raw = getattr(args, "opt_" + field)
        if raw is None:
            continue
        try:
            overrides[field] = config_module.parse_value(field, raw)
        except ValueError:
            raise InvalidInput(f"bad value {raw!r} for --{field}")
    return dataclasses.replace(base, **overrides) if overrides else base


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command][0](config_from_args(args))
    except (SlowFeatError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
