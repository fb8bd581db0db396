"""Frame sequences, motion boundaries and space-time cuboid sampling.

The raw representation is a stack of grayscale frames.  A sequence is
normalized to zero mean and unit variance over all pixels, turned into
frame differences, and a 3x3 Sobel magnitude over each difference frame
thresholded at ``delta`` marks motion boundary pixels.  Cuboids of size
h x w x d are cut around sampled boundary pixels, then reformatted into
short vector sequences by sliding a window of ``delta_t`` frames.

Coordinates follow image convention: ``x`` is the column, ``y`` the
row.  A cuboid's origin is its spatial center and first frame; its
spatial extent covers rows ``[y - h//2, y - h//2 + h)`` and columns
``[x - w//2, x - w//2 + w)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DegenerateSequence,
    InvalidDelta,
    InvalidDimension,
    InvalidInput,
    OutsideBoundingBox,
    TooShort,
)

# Threshold default: this fraction of the 99th-percentile gradient
# magnitude over all difference frames of the sequence.
DELTA_FRACTION = 0.1
DELTA_PERCENTILE = 99.0

SOBEL_X = np.array([[-1.0, 0.0, 1.0],
                    [-2.0, 0.0, 2.0],
                    [-1.0, 0.0, 1.0]])


@dataclass(frozen=True)
class FrameSequence:
    """A (T, H, W) stack of frames with optional per-frame boxes.

    ``boxes`` rows are (x, y, w, h) in pixels, each fully inside the
    frame.  Frames may be uint8 (raw) or float (normalized/differenced).
    """

    frames: np.ndarray
    boxes: np.ndarray | None = None

    def __post_init__(self):
        if self.frames.ndim != 3 or self.frames.shape[0] < 1:
            raise InvalidDimension(
                f"frames must be (T, H, W) with T >= 1, got {self.frames.shape}")
        if self.boxes is not None:
            t, h, w = self.frames.shape
            boxes = np.asarray(self.boxes)
            if boxes.shape != (t, 4):
                raise InvalidDimension(
                    f"boxes must be ({t}, 4), got {boxes.shape}")
            bx, by, bw, bh = boxes.T
            if (bw < 1).any() or (bh < 1).any() or (bx < 0).any() \
                    or (by < 0).any() or (bx + bw > w).any() or (by + bh > h).any():
                raise InvalidInput("a bounding box falls outside the frame")

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def frame_shape(self) -> tuple[int, int]:
        return self.frames.shape[1], self.frames.shape[2]


def normalize_sequence(seq: FrameSequence) -> FrameSequence:
    """Scale the whole sequence to zero mean and unit variance.

    Mean and standard deviation are global over every pixel of every
    frame.  A constant sequence cannot be normalized.
    """
    frames = np.asarray(seq.frames, dtype=float)
    std = frames.std()
    if std == 0.0:
        raise DegenerateSequence("sequence is constant, cannot normalize")
    return FrameSequence((frames - frames.mean()) / std, seq.boxes)


def frame_difference(seq: FrameSequence) -> FrameSequence:
    """Forward frame differences: out[t] = in[t+1] - in[t].

    The result has one frame less; difference frame t inherits the box
    of frame t.
    """
    if seq.num_frames < 2:
        raise TooShort("frame_difference needs at least 2 frames")
    frames = np.asarray(seq.frames, dtype=float)
    boxes = None if seq.boxes is None else np.asarray(seq.boxes)[:-1]
    return FrameSequence(frames[1:] - frames[:-1], boxes)


def gradient_magnitude(frames: np.ndarray) -> np.ndarray:
    """3x3 Sobel gradient magnitude, zero on the one-pixel border.

    Takes one (H, W) frame or a (T, H, W) stack; every frame of a stack
    gets the same arithmetic as a single-frame call, bit for bit.
    """
    f = np.asarray(frames, dtype=float)
    if f.ndim not in (2, 3):
        raise InvalidDimension(
            f"frames must be (H, W) or (T, H, W), got shape {f.shape}")
    out = np.zeros_like(f)
    height, width = f.shape[-2:]
    if height < 3 or width < 3:
        return out
    gx = np.zeros(f.shape[:-2] + (height - 2, width - 2))
    gy = np.zeros_like(gx)
    for dy in range(3):
        for dx in range(3):
            kx = SOBEL_X[dy, dx]
            ky = SOBEL_X[dx, dy]
            patch = f[..., dy:dy + height - 2, dx:dx + width - 2]
            if kx:
                gx += kx * patch
            if ky:
                gy += ky * patch
    out[..., 1:-1, 1:-1] = np.hypot(gx, gy)
    return out


@dataclass(frozen=True)
class MotionMask:
    """Boolean motion-boundary mask plus the threshold that made it."""

    mask: np.ndarray
    delta: float


def motion_boundary(diff_frame: np.ndarray, delta: float,
                    bbox=None) -> MotionMask:
    """Threshold the Sobel magnitude of one difference frame.

    Pixels with magnitude strictly above ``delta`` are marked.  Border
    pixels, where the kernel does not fit, stay unmarked.  With a
    ``bbox`` of (x, y, w, h), pixels outside the box are cleared.
    """
    return _threshold(gradient_magnitude(diff_frame), delta, bbox)


def _threshold(magnitude, delta, bbox) -> MotionMask:
    if delta < 0:
        raise InvalidInput(f"delta must be >= 0, got {delta}")
    mask = magnitude > delta
    if bbox is not None:
        bx, by, bw, bh = (int(v) for v in bbox)
        limited = np.zeros_like(mask)
        limited[by:by + bh, bx:bx + bw] = mask[by:by + bh, bx:bx + bw]
        mask = limited
    return MotionMask(mask, float(delta))


def default_delta(diff_seq: FrameSequence, magnitude=None) -> float:
    """Data-relative threshold for a difference sequence.

    One tenth of the 99th-percentile interior gradient magnitude over
    all frames, which tracks contrast differences between sequences.
    ``magnitude``, the sequence's (T, H, W) ``gradient_magnitude`` when
    the caller already has it, saves computing it again.
    """
    if magnitude is None:
        magnitude = gradient_magnitude(diff_seq.frames)
    pooled = magnitude[:, 1:-1, 1:-1].ravel()
    if pooled.size == 0:
        pooled = np.zeros(1)
    return DELTA_FRACTION * float(np.percentile(pooled, DELTA_PERCENTILE))


def motion_masks(diff_seq: FrameSequence, delta: float | None = None,
                 use_boxes: bool = True) -> list[MotionMask]:
    """``motion_boundary`` of every frame from one Sobel pass.

    ``delta = None`` applies ``default_delta``; with ``use_boxes`` each
    frame's mask is limited to that frame's box, when the sequence has
    boxes.
    """
    magnitude = gradient_magnitude(diff_seq.frames)
    if delta is None:
        delta = default_delta(diff_seq, magnitude)
    boxes = diff_seq.boxes if use_boxes else None
    return [_threshold(m, delta, None if boxes is None else boxes[t])
            for t, m in enumerate(magnitude)]


@dataclass(frozen=True)
class Cuboid:
    """A small space-time block cut around a motion boundary pixel.

    ``data`` has shape (d, h, w), frame-major; ``(x, y)`` is the spatial
    center and ``t`` the first frame index in the source sequence.
    """

    x: int
    y: int
    t: int
    data: np.ndarray
    class_label: int | None = None
    region_label: int | None = None

    def __post_init__(self):
        if self.data.ndim != 3:
            raise InvalidDimension(
                f"cuboid data must be (d, h, w), got {self.data.shape}")

    @property
    def d(self) -> int:
        return self.data.shape[0]

    @property
    def h(self) -> int:
        return self.data.shape[1]

    @property
    def w(self) -> int:
        return self.data.shape[2]


def _mask_array(mask) -> np.ndarray:
    return mask.mask if isinstance(mask, MotionMask) else np.asarray(mask, bool)


def sample_cuboids(seq: FrameSequence, masks, fraction: float, size,
                   rng_seed: int, max_count: int | None = None,
                   class_label: int | None = None) -> list[Cuboid]:
    """Sample cuboids at motion boundary pixels, seeded and deterministic.

    For every start frame t over which a depth-d cuboid fits, pick
    ``ceil(fraction * count)`` of that frame's masked pixels uniformly
    without replacement, then keep the picks whose full h x w x d block
    lies inside the sequence.  ``masks[t]`` gates start frame t.  With
    ``max_count`` set, the pooled list is cut down by a seeded shuffle.
    """
    if not 0.0 < fraction <= 1.0:
        raise InvalidInput(f"fraction must be in (0, 1], got {fraction}")
    h, w, d = (int(v) for v in size)
    if h < 1 or w < 1 or d < 1:
        raise InvalidDimension(f"bad cuboid size {size}")
    frames = np.asarray(seq.frames, dtype=float)
    rng = np.random.default_rng(rng_seed)
    ts, ys, xs = [], [], []
    last_start = min(len(masks), frames.shape[0] - d + 1)
    for t in range(max(last_start, 0)):
        mask = _mask_array(masks[t])
        if mask.shape != frames.shape[1:]:
            raise InvalidDimension(
                f"mask {t} has shape {mask.shape}, frames are "
                f"{frames.shape[1:]}")
        y, x = pick_positions(mask, fraction, (h, w), rng)
        ts.append(np.full(y.size, t))
        ys.append(y)
        xs.append(x)
    if not ts:
        return []
    ts, ys, xs = np.concatenate(ts), np.concatenate(ys), np.concatenate(xs)
    if max_count is not None and ts.size > max_count:
        order = rng.permutation(ts.size)[:max_count]
        ts, ys, xs = ts[order], ys[order], xs[order]
    block = crop_cuboids(frames, ts, ys, xs, (h, w, d))
    return [Cuboid(x=int(x), y=int(y), t=int(t), data=data,
                   class_label=class_label)
            for t, y, x, data in zip(ts, ys, xs, block)]


def pick_positions(mask, fraction: float, patch, rng):
    """Seeded cuboid centres on one frame's mask.

    Picks ``ceil(fraction * count)`` of the mask's pixels uniformly
    without replacement (no draw when the mask is empty) and keeps those
    whose ``patch = (h, w)`` footprint lies inside the frame.  Returns
    the kept rows ``ys`` and columns ``xs`` in pick order.
    """
    h, w = patch
    ys, xs = np.nonzero(mask)
    if ys.size == 0:
        return ys, xs
    picks = rng.choice(ys.size, size=math.ceil(fraction * ys.size),
                       replace=False)
    ys, xs = ys[picks], xs[picks]
    y0, x0 = ys - h // 2, xs - w // 2
    height, width = mask.shape
    inside = (y0 >= 0) & (x0 >= 0) & (y0 + h <= height) & (x0 + w <= width)
    return ys[inside], xs[inside]


def crop_cuboids(frames: np.ndarray, ts, ys, xs, size) -> np.ndarray:
    """The (n, d, h, w) data of cuboids with first frames ``ts`` and
    centres ``(ys, xs)``, cut from ``frames`` in one indexing pass.

    Every cuboid must lie inside the (T, H, W) frame stack.
    """
    h, w, d = size
    ts = np.asarray(ts, dtype=np.intp)
    if ts.size == 0:
        return np.zeros((0, d, h, w))
    windows = sliding_window_view(frames, (d, h, w))
    return windows[ts, np.asarray(ys) - h // 2, np.asarray(xs) - w // 2]


def window_rows(block: np.ndarray, delta_t: int) -> np.ndarray:
    """``reformat`` of every cuboid of an (n, d, h, w) block at once.

    Returns ``(n, d - delta_t + 1, h * w * delta_t)``.  Row t of a
    cuboid is its patches t .. t + delta_t - 1, which lie next to each
    other in memory, so for a C-contiguous block the result is a
    read-only view that copies nothing.
    """
    n, d = block.shape[:2]
    if not 1 <= delta_t <= d:
        raise InvalidDelta(f"delta_t must be in [1, {d}], got {delta_t}")
    flat = block.reshape(n, d, -1)
    windows = sliding_window_view(flat, delta_t, axis=1)
    return windows.swapaxes(2, 3).reshape(n, d - delta_t + 1, -1)


def reformat(c: Cuboid, delta_t: int) -> np.ndarray:
    """Slide a window of ``delta_t`` frames over a cuboid.

    Returns a ``(d - delta_t + 1, h * w * delta_t)`` array; row t is the
    concatenation of patches t .. t + delta_t - 1, each flattened
    row-major.  With ``delta_t == d`` the single row reproduces the
    cuboid data exactly.
    """
    return window_rows(c.data[None], delta_t)[0]


def region_label(pos, bbox, grid) -> int:
    """Grid cell index of a position inside a bounding box.

    The box splits into ``grid = (n_x, n_y)`` cells; the cell column is
    ``floor((x - bx) * n_x / bw)`` clamped to the last column (same for
    rows), and the index is ``row * n_x + column``.  The x-mirror of a
    position maps to the x-mirrored cell whenever ``n_x`` divides the
    box width.
    """
    x, y = pos
    bx, by, bw, bh = bbox
    nx, ny = grid
    if not (bx <= x < bx + bw and by <= y < by + bh):
        raise OutsideBoundingBox(
            f"position {(x, y)} outside box {(bx, by, bw, bh)}")
    ix = min(int((x - bx) * nx // bw), nx - 1)
    iy = min(int((y - by) * ny // bh), ny - 1)
    return iy * nx + ix


def with_region_labels(cuboids, boxes, grid) -> list[Cuboid]:
    """Attach region labels using each cuboid's first-frame box.

    ``boxes[t]`` must be the (x, y, w, h) box of source frame t.  A
    cuboid whose center lies outside its box raises OutsideBoundingBox.
    """
    boxes = np.asarray(boxes)
    return [replace(c, region_label=region_label(
        (c.x, c.y), tuple(int(v) for v in boxes[c.t]), grid))
        for c in cuboids]
