"""Deterministic synthetic sequences for desk-scale experiments.

Two families of generators live here: a two-channel toy signal whose
slow latent is known exactly (the recovery oracle for the slow-feature
learner), and parametric moving-shape videos standing in for real
action footage.  Shape trajectories are pure functions of the
SynthSpec fields; the seed feeds pixel noise only, so reruns with a
different seed repeat the identical motion under fresh noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cuboid import FrameSequence
from .errors import InvalidInput, InvalidSpec

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
        if self.frames < MIN_FRAMES:
            raise InvalidSpec(f"need at least {MIN_FRAMES} frames")
        if self.height < 8 or self.width < 8:
            raise InvalidSpec("frame must be at least 8x8")
        if not 0 <= self.noise_sigma < np.inf:
            raise InvalidSpec("noise_sigma must be finite and >= 0")
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
        half_h = np.full_like(t, spec.size / 2.0)
        half_w = np.full_like(t, spec.width / 2.0)
        centers_y = cy + spec.amplitude * wave
        centers_x = np.full_like(t, spec.width / 2.0)
        if centers_y.min() - spec.size / 2.0 < 0 or \
                centers_y.max() + spec.size / 2.0 > spec.height:
            raise InvalidSpec("bar oscillates out of the frame")
    elif spec.kind == "v_bar_oscillate":
        half_h = np.full_like(t, spec.height / 2.0)
        half_w = np.full_like(t, spec.size / 2.0)
        centers_y = np.full_like(t, spec.height / 2.0)
        centers_x = cx + spec.amplitude * wave
        if centers_x.min() - spec.size / 2.0 < 0 or \
                centers_x.max() + spec.size / 2.0 > spec.width:
            raise InvalidSpec("bar oscillates out of the frame")
    elif spec.kind == "blob_translate":
        radius = spec.size
        margin = radius + 1.0
        centers_x = _reflect(cx + spec.speed * t, margin,
                             spec.width - margin)
        centers_y = np.full_like(t, cy)
        if cy - radius < 0 or cy + radius > spec.height:
            raise InvalidSpec("blob does not fit vertically")
        half_h = np.full_like(t, radius)
        half_w = half_h
    else:  # blob_pulse
        radius = spec.size * (1.0 + 0.45 * wave)
        r_max = radius.max()
        if cy - r_max < 0 or cy + r_max > spec.height or \
                cx - r_max < 0 or cx + r_max > spec.width:
            raise InvalidSpec("pulsing blob does not fit in the frame")
        centers_y = np.full_like(t, cy)
        centers_x = np.full_like(t, cx)
        half_h = radius
        half_w = radius
    return centers_y, centers_x, half_h, half_w


def _render_frame(spec, cy, cx, half_h, half_w):
    ys = np.arange(spec.height, dtype=float)
    xs = np.arange(spec.width, dtype=float)
    if spec.kind in ("h_bar_oscillate", "v_bar_oscillate"):
        # per-axis coverage of the pixel cell by the bar interval
        cov_y = np.clip(np.minimum(ys + 1.0, cy + half_h)
                        - np.maximum(ys, cy - half_h), 0.0, 1.0)
        cov_x = np.clip(np.minimum(xs + 1.0, cx + half_w)
                        - np.maximum(xs, cx - half_w), 0.0, 1.0)
        return np.outer(cov_y, cov_x)
    # disks: linear edge rolloff one pixel wide
    dist = np.hypot(ys[:, None] + 0.5 - cy, xs[None, :] + 0.5 - cx)
    return np.clip(half_h + 0.5 - dist, 0.0, 1.0)


def render_action(spec: SynthSpec) -> np.ndarray:
    """Rasterize the spec into u8 frames (noise clipped, then rounded)."""
    cys, cxs, hhs, hws = _trajectory(spec)
    frames = np.empty((spec.frames, spec.height, spec.width))
    for i in range(spec.frames):
        frames[i] = _BACKGROUND + _FOREGROUND * _render_frame(
            spec, cys[i], cxs[i], hhs[i], hws[i])
    if spec.noise_sigma > 0:
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed]))
        frames += spec.noise_sigma * rng.standard_normal(frames.shape)
    return np.clip(np.rint(frames), 0, 255).astype(np.uint8)


def generate_action(spec: SynthSpec):
    """Render a spec into a FrameSequence of its uint8 frames with
    full-frame boxes.

    Returns (sequence, class_label); the label is the kind's index.
    """
    boxes = np.tile([0, 0, spec.width, spec.height], (spec.frames, 1))
    return FrameSequence(render_action(spec), boxes), KINDS.index(spec.kind)
