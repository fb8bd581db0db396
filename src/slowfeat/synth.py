"""Deterministic synthetic sequences for desk-scale experiments.

Two families of generators live here: a two-channel toy signal whose
slow latent is known exactly (the recovery oracle for the slow-feature
learner), and parametric moving-shape videos standing in for real
action footage.  Shape trajectories are pure functions of the
SynthSpec fields; the seed feeds pixel noise only, so reruns with a
different seed repeat the identical motion under fresh noise.  No other
module knows the classes: ``KINDS``, each class's parameter draws
(``class_spec``), the trajectories and the renderer, which draws all
frames as one array, are here, so a new kind changes this module alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cuboid import FrameSequence
from .errors import InvalidInput, InvalidSpec, typed_fields, whole_numbers

KINDS = ("h_bar_oscillate", "v_bar_oscillate", "blob_translate",
         "blob_pulse")

MIN_FRAMES = 14          # two default cuboid depths
_BACKGROUND = 20.0
_FOREGROUND = 180.0
_CARRIER_CYCLES = 41


def toy_slow_signal(length: int, seed: int = 0):
    """A slow sine hidden in quadratic mixtures of a fast carrier.

    Returns (observed, latent): observed columns are s + carrier^2 and
    the carrier itself, so a quadratic slow-feature model can demix the
    latent linearly.  The carrier phase is the only seeded quantity.
    """
    if length < 100:
        raise InvalidInput("toy signal needs at least 100 samples")
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    phase = rng.uniform(0.0, 2.0 * np.pi)
    t = np.arange(length)
    latent = np.sin(2.0 * np.pi * t / length)
    carrier = np.sin(2.0 * np.pi * _CARRIER_CYCLES * t / length + phase)
    observed = np.column_stack([latent + carrier ** 2, carrier])
    return observed, latent


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of one rendered sequence.

    ``size`` is the bar thickness or blob radius in pixels; oscillating
    kinds move by ``amplitude`` pixels with ``period`` frames per cycle,
    and ``blob_translate`` bounces horizontally at ``speed`` pixels per
    frame.  ``offset_y``/``offset_x`` displace the shape from the frame
    center.  All of those fix the trajectory; ``seed`` only drives the
    additive pixel noise.
    """

    kind: str
    height: int = 48
    width: int = 64
    frames: int = 60
    noise_sigma: float = 2.0
    seed: int = 0
    size: float = 6.0
    amplitude: float = 10.0
    period: float = 16.0
    speed: float = 1.0
    phase: float = 0.0
    offset_y: float = 0.0
    offset_x: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidSpec(f"unknown kind {self.kind!r}")
        whole_numbers((self.height, self.width, self.frames), InvalidSpec,
                      "height, width and frames")
        # the seed an integer, every float field a finite real number
        typed_fields(self, InvalidSpec, skip=("kind", "height", "width",
                                              "frames"))
        if self.frames < MIN_FRAMES:
            raise InvalidSpec(f"need at least {MIN_FRAMES} frames")
        if self.height < 8 or self.width < 8:
            raise InvalidSpec("frame must be at least 8x8")
        if self.noise_sigma < 0:
            raise InvalidSpec("noise_sigma must be >= 0")
        if self.size <= 0:
            raise InvalidSpec("size must be positive")
        if self.period <= 0:
            raise InvalidSpec("period must be positive")
        _trajectory(self)  # validates geometry


def _reflect(positions, low, high):
    """Fold unbounded coordinates into [low, high] by mirror bounces."""
    span = high - low
    if span <= 0:
        raise InvalidSpec("shape does not fit in the frame")
    u = np.mod(positions - low, 2.0 * span)
    return low + (span - np.abs(u - span))


def _trajectory(spec: SynthSpec):
    """Per-frame shape parameters: (cy, cx, half_h, half_w) arrays."""
    t = np.arange(spec.frames, dtype=float)
    cy = spec.height / 2.0 + spec.offset_y
    cx = spec.width / 2.0 + spec.offset_x
    wave = np.sin(2.0 * np.pi * t / spec.period + spec.phase)

    if spec.kind == "h_bar_oscillate":
        half_h, half_w = spec.size / 2.0, spec.width / 2.0
        centers_y, centers_x = cy + spec.amplitude * wave, spec.width / 2.0
        if centers_y.min() - spec.size / 2.0 < 0 or \
                centers_y.max() + spec.size / 2.0 > spec.height:
            raise InvalidSpec("bar oscillates out of the frame")
    elif spec.kind == "v_bar_oscillate":
        half_h, half_w = spec.height / 2.0, spec.size / 2.0
        centers_y, centers_x = spec.height / 2.0, cx + spec.amplitude * wave
        if centers_x.min() - spec.size / 2.0 < 0 or \
                centers_x.max() + spec.size / 2.0 > spec.width:
            raise InvalidSpec("bar oscillates out of the frame")
    elif spec.kind == "blob_translate":
        half_h = half_w = radius = spec.size
        margin = radius + 1.0
        centers_x = _reflect(cx + spec.speed * t, margin,
                             spec.width - margin)
        centers_y = cy
        if cy - radius < 0 or cy + radius > spec.height:
            raise InvalidSpec("blob does not fit vertically")
    else:  # blob_pulse
        half_h = half_w = radius = spec.size * (1.0 + 0.45 * wave)
        r_max = radius.max()
        if cy - r_max < 0 or cy + r_max > spec.height or \
                cx - r_max < 0 or cx + r_max > spec.width:
            raise InvalidSpec("pulsing blob does not fit in the frame")
        centers_y, centers_x = cy, cx
    return np.broadcast_arrays(centers_y, centers_x, half_h, half_w)


def render_action(spec: SynthSpec) -> np.ndarray:
    """Rasterize the spec into u8 frames (noise clipped, then rounded)."""
    # every frame at once: (T, 1, 1) parameters, (H, 1) rows, (W,) columns
    cy, cx, half_h, half_w = (a[:, None, None] for a in _trajectory(spec))
    ys = np.arange(spec.height, dtype=float)[:, None]
    xs = np.arange(spec.width, dtype=float)
    if spec.kind in ("h_bar_oscillate", "v_bar_oscillate"):
        # per-axis coverage of the pixel cell by the bar interval
        cov_y = np.clip(np.minimum(ys + 1.0, cy + half_h)
                        - np.maximum(ys, cy - half_h), 0.0, 1.0)
        cov_x = np.clip(np.minimum(xs + 1.0, cx + half_w)
                        - np.maximum(xs, cx - half_w), 0.0, 1.0)
        frames = cov_y * cov_x
    else:
        # disks: linear edge rolloff one pixel wide
        frames = np.hypot(ys + 0.5 - cy, xs + 0.5 - cx)
        np.subtract(half_h + 0.5, frames, out=frames)
        np.clip(frames, 0.0, 1.0, out=frames)
    frames *= _FOREGROUND
    frames += _BACKGROUND
    if spec.noise_sigma > 0:
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed]))
        frames += spec.noise_sigma * rng.standard_normal(frames.shape)
    return np.clip(np.rint(frames), 0, 255).astype(np.uint8)


def generate_action(spec: SynthSpec):
    """Render a spec into a FrameSequence of its uint8 frames, whose
    boxes are then the whole frame.

    Returns (sequence, class_label); the label is the kind's index.
    """
    return FrameSequence(render_action(spec)), KINDS.index(spec.kind)


def class_spec(class_index, seq_index, rng, height, width, frames,
               noise_sigma) -> SynthSpec:
    """Sequence ``seq_index`` of class ``KINDS[class_index]``: ``rng``
    draws its noise seed, then the kind's own parameters, in that order."""
    kind = KINDS[class_index]
    h, w = height, width
    common = dict(height=h, width=w, frames=frames, noise_sigma=noise_sigma,
                  seed=int(rng.integers(2 ** 31 - 1)))
    if kind in ("h_bar_oscillate", "v_bar_oscillate"):
        offset, extent = ("offset_y", h) if kind[0] == "h" else ("offset_x", w)
        return SynthSpec(
            kind, **common, size=0.12 * extent, amplitude=0.18 * extent,
            period=16.0, phase=rng.uniform(0, 2 * np.pi),
            **{offset: rng.uniform(-0.05, 0.05) * extent})
    radius = 0.1 * min(h, w)
    # blob positions cycle over a coarse grid so that every part of the
    # frame sees every blob class across a handful of sequences
    base_y = (-0.12 + 0.24 * (seq_index % 3) / 2.0) * h
    base_x = (-0.18 + 0.36 * (seq_index % 4) / 3.0) * w
    offset_y = base_y + rng.uniform(-0.03, 0.03) * h
    if kind == "blob_translate":
        speed = rng.choice([-1.0, 1.0]) * rng.uniform(0.9, 1.4)
        return SynthSpec(kind, **common, size=radius, speed=speed,
                         offset_y=offset_y,
                         offset_x=rng.uniform(-0.2, 0.2) * w)
    return SynthSpec(kind, **common, size=radius, period=9.0,
                     phase=rng.uniform(0, 2 * np.pi), offset_y=offset_y,
                     offset_x=base_x + rng.uniform(-0.03, 0.03) * w)
