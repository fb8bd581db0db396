"""Slow feature learning for action sequence classification.

The pipeline: sample small space-time cuboids at motion boundaries,
learn slow feature functions over them (unsupervised, per class,
discriminative, or per class and spatial region), accumulate squared
derivatives of the responses into per-snippet feature vectors, and
classify with a linear model plus majority voting.
"""

from . import (
    benchmark,
    classify,
    cli,
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
from .errors import SlowFeatError

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
