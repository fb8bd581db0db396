"""Slow feature learning for action sequence classification.

The pipeline: sample small space-time cuboids at motion boundaries,
learn slow feature functions over them (unsupervised, per class,
discriminative, or per class and spatial region), accumulate squared
derivatives of the responses into per-snippet feature vectors, and
classify with a linear model plus majority voting.
"""

import importlib

from . import (
    benchmark,
    classify,
    config,
    cuboid,
    dataio,
    features,
    linalg,
    pipeline,
    sfa,
    synth,
)
from .config import RunConfig
from .errors import NoSuchAttribute, SlowFeatError

__all__ = [
    "RunConfig",
    "SlowFeatError",
    "benchmark",
    "classify",
    "cli",
    "config",
    "cuboid",
    "dataio",
    "features",
    "linalg",
    "pipeline",
    "sfa",
    "synth",
]


def __getattr__(name):
    # ``cli`` loads on first use, so ``python -m slowfeat.cli`` runs a
    # module the package has not imported yet
    if name == "cli":
        return importlib.import_module(".cli", __name__)
    raise NoSuchAttribute(f"module {__name__!r} has no attribute {name!r}")
