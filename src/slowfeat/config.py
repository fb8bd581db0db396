"""Run configuration shared by the command-line pipeline.

One flat dataclass holds every tunable of the pipeline.  Defaults are
the reference operating point: 16x16x7 cuboids, reformat window 3,
PCA to 50, 200 functions per class, gamma 0.2, a 2x3 region grid and a
25% sampling fraction.  Desk-scale experiments override via config
file or command-line flags.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import InvalidInput
from .sfa import STRATEGIES


@dataclass(frozen=True)
class RunConfig:
    strategy: str = "dsfa"
    # cuboid geometry and reformat window
    cuboid_h: int = 16
    cuboid_w: int = 16
    cuboid_d: int = 7
    delta_t: int = 3
    # slow-feature learning
    pca_dim: int = 50
    k_per_class: int = 200
    gamma: float = 0.2
    grid_nx: int = 2                # region columns (x cells)
    grid_ny: int = 3                # region rows (y cells)
    # cuboid sampling
    fraction: float = 0.25
    delta: float | None = None      # motion threshold; None picks it from data
    max_cuboids: int | None = None  # per-sequence training cap
    stride: int = 1                 # snippet step during featurize
    # classifier
    reg: float = 1.0
    epochs: int = 50
    mirror: bool = True             # augment sdsfa training features
    # experiment
    seed: int = 0
    classes: int = 4
    sequences_per_class: int = 20
    frames: int = 60
    height: int = 48
    width: int = 64
    noise_sigma: float = 2.0
    train_per_class: int = 15
    # artifact locations
    data_dir: str = "data"
    model_path: str = "model.sfam"
    features_dir: str = "features"
    classifier_path: str = "classifier.sfac"
    report_path: str = "report.txt"
    results_path: str = "results.txt"

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise InvalidInput(
                f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        for name in ("cuboid_h", "cuboid_w", "cuboid_d", "delta_t", "pca_dim",
                     "k_per_class", "grid_nx", "grid_ny", "stride", "epochs",
                     "classes", "sequences_per_class", "frames", "height",
                     "width", "train_per_class"):
            if getattr(self, name) < 1:
                raise InvalidInput(f"{name} must be >= 1")
        if not 0.0 < self.fraction <= 1.0:
            raise InvalidInput("fraction must be in (0, 1]")
        if self.gamma < 0:
            raise InvalidInput("gamma must be >= 0")
        if self.noise_sigma < 0:
            raise InvalidInput("noise_sigma must be >= 0")
        if self.delta is not None and self.delta < 0:
            raise InvalidInput("delta must be >= 0")
        if self.max_cuboids is not None and self.max_cuboids < 1:
            raise InvalidInput("max_cuboids must be >= 1")
        if self.reg <= 0:
            raise InvalidInput("reg must be positive")
        if self.train_per_class >= self.sequences_per_class:
            raise InvalidInput(
                "train_per_class must leave at least one test sequence")

    @property
    def cuboid_size(self):
        return (self.cuboid_h, self.cuboid_w, self.cuboid_d)

    @property
    def grid(self):
        return (self.grid_nx, self.grid_ny)


def field_names():
    return tuple(f.name for f in fields(RunConfig))


def parse_value(name: str, text: str):
    """Convert config text to the field's type.

    Optional numeric fields accept ``auto``/``none``.  Raises KeyError
    for unknown names and ValueError for unconvertible text.
    """
    types = {f.name: str(f.type) for f in fields(RunConfig)}
    kind = types[name]
    if kind == "int":
        return int(text)
    if kind == "float":
        return float(text)
    if kind in ("float | None", "int | None"):
        if text.lower() in ("auto", "none"):
            return None
        return float(text) if kind.startswith("float") else int(text)
    if kind == "bool":
        if text.lower() in ("true", "false"):
            return text.lower() == "true"
        raise ValueError(f"expected true/false, got {text!r}")
    return text
