"""Run configuration shared by the command-line pipeline.

One flat dataclass holds every tunable of the pipeline.  Defaults are
the reference operating point: 16x16x7 cuboids, a window of 3 frames,
PCA to 50, 200 functions per class, gamma 0.2, a 2x3 region grid and a
25% sampling fraction.  Desk-scale experiments override via config
file or command-line flags.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .classify import DEFAULT_REG
from .errors import FIELD_TYPES, InvalidInput, typed_fields
from .sfa import DEFAULT_GAMMA, STRATEGIES


@dataclass(frozen=True)
class RunConfig:
    strategy: str = "dsfa"
    # cuboid geometry and the frame window (delta_t) of its rows
    cuboid_h: int = 16
    cuboid_w: int = 16
    cuboid_d: int = 7
    delta_t: int = 3
    # slow-feature learning
    pca_dim: int = 50
    k_per_class: int = 200
    gamma: float = DEFAULT_GAMMA
    grid_nx: int = 2                # region columns (x cells)
    grid_ny: int = 3                # region rows (y cells)
    # cuboid sampling
    fraction: float = 0.25
    max_cuboids: int | None = None  # per-sequence training cap
    stride: int = 1                 # snippet step during featurize
    # classifier
    reg: float = DEFAULT_REG
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
        typed_fields(self, InvalidInput)
        for f in fields(self):  # an int is a count (the seed >= 0)
            value = getattr(self, f.name)
            low = 0 if f.name == "seed" else 1
            if f.type.startswith("int") and value is not None and value < low:
                raise InvalidInput(f"{f.name} must be >= {low}, got {value}")
        if self.strategy not in STRATEGIES:
            raise InvalidInput(
                f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if not 0.0 < self.fraction <= 1.0:
            raise InvalidInput("fraction must be in (0, 1]")
        if self.gamma < 0:
            raise InvalidInput("gamma must be >= 0")
        if self.noise_sigma < 0:
            raise InvalidInput("noise_sigma must be >= 0")
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

    The optional ``max_cuboids`` accepts ``auto``/``none``.  Raises
    KeyError for unknown names and ValueError for unconvertible text.
    """
    kind = {f.name: f.type for f in fields(RunConfig)}[name]
    if kind == "int | None" and text.lower() in ("auto", "none"):
        return None
    return FIELD_TYPES[kind][2](text)
