"""Frame sequences, motion boundaries and space-time cuboid sampling.

The raw representation is a stack of grayscale frames.  A sequence is
normalized to zero mean and unit variance over all pixels and turned
into frame differences by one routine, ``normalized_differences``.  A
3x3 Sobel magnitude over each difference frame marks motion boundary
pixels where it exceeds ``default_delta``, a tenth of the sequence's
99th-percentile interior magnitude.  ``motion_masks`` is the one route
from a difference sequence to its boundaries; the threshold is never
the caller's to choose.  Cuboids of size h x w x d are cut around
sampled boundary pixels, then read as short vector sequences by
sliding a window of ``delta_t`` frames.

There are no per-cuboid or mask objects: ``motion_masks`` returns one
(T, H, W) bool array, the sampler returns the (n, 3) array of picked
``(t, y, x)`` origins, ``crop_cuboids`` cuts them into one
(n, d, h, w) array, ``window_rows`` views that array as minisequences
and ``region_label`` labels whole arrays of positions at once.
``LazyCuboids`` holds a training set as raw pixels and picks, and cuts
only the cuboids a read asks for, through that same routine.

Coordinates follow image convention: ``x`` is the column, ``y`` the
row.  A cuboid's origin is its spatial center and first frame; its
spatial extent covers rows ``[y - h//2, y - h//2 + h)`` and columns
``[x - w//2, x - w//2 + w)``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DegenerateSequence,
    InvalidDelta,
    InvalidDimension,
    InvalidInput,
    OutsideBoundingBox,
    TooShort,
    whole_numbers,
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
    """A (T, H, W) stack of frames with one box per frame.

    ``boxes`` rows are (x, y, w, h) in whole pixels (int64), each fully
    inside the frame; without boxes, every frame's box is the whole
    frame.  Frames may be uint8 (raw) or float (normalized/differenced).
    """

    frames: np.ndarray
    boxes: np.ndarray | None = None

    def __post_init__(self):
        try:
            object.__setattr__(self, "frames", np.asarray(self.frames))
        except ValueError:  # ragged nesting
            raise InvalidDimension(
                "frames must be (T, H, W), got a ragged nesting") from None
        if self.frames.ndim != 3 or self.frames.shape[0] < 1:
            raise InvalidDimension(
                f"frames must be (T, H, W) with T >= 1, got {self.frames.shape}")
        if self.frames.dtype.kind not in "biuf":
            raise InvalidInput(
                f"frames must be real numbers, got dtype {self.frames.dtype}")
        t, h, w = self.frames.shape
        boxes = np.tile([0, 0, w, h], (t, 1)) if self.boxes is None \
            else self.boxes
        try:
            shape = np.shape(boxes)
        except ValueError:  # ragged rows
            shape = "ragged rows"
        if shape != (t, 4):
            raise InvalidDimension(f"boxes must be ({t}, 4), got {shape}")
        object.__setattr__(self, "boxes",
                           whole_numbers(boxes, InvalidInput, "box values"))
        bx, by, bw, bh = self.boxes.T
        bad = (bw < 1) | (bh < 1) | (bx < 0) | (by < 0) \
            | (bx + bw > w) | (by + bh > h)
        if bad.any():
            raise InvalidInput(
                f"the box of frame {int(np.argmax(bad))} falls outside "
                f"the {h}x{w} frame")

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]


def normalization(frames):
    """The ``(mean, std)`` over every pixel of every frame by which
    ``normalized_differences`` scales a sequence.  A constant sequence
    cannot be normalized.
    """
    frames = np.asarray(frames, dtype=float)
    std = frames.std()
    if std == 0.0:
        raise DegenerateSequence("sequence is constant, cannot normalize")
    return frames.mean(), std


def normalized_differences(frames, mean, std) -> np.ndarray:
    """Forward differences of the frames scaled to zero mean and unit
    variance by ``(mean, std)``: ``out[t] = in[t + 1] - in[t]`` after
    ``(frames - mean) / std``, one frame less.

    Takes a raw or float (T, H, W) sequence or (n, T, h, w) stack of
    cuboid frames alike, differencing along the frame axis.  It is the
    only code that does this arithmetic, so a cuboid cut from a
    sequence's differences and one differenced from its own d + 1
    frames of pixels agree bit for bit.
    """
    return np.diff((frames - mean) / std, axis=-3)


def difference_sequence(seq: FrameSequence) -> FrameSequence:
    """The sequence's ``normalized_differences`` by its own
    ``normalization``; difference frame t keeps the box of frame t."""
    if seq.num_frames < 2:
        raise TooShort("frame differences need at least 2 frames")
    return FrameSequence(
        normalized_differences(seq.frames, *normalization(seq.frames)),
        seq.boxes[:-1])


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
    # a +-1 tap adds or subtracts the pixel, a +-2 tap the doubled
    # pixel; both are exact, so the sums are the multiplied taps' sums
    doubled = f + f
    for dy in range(3):
        for dx in range(3):
            for grad, k in ((gx, SOBEL_X[dy, dx]), (gy, SOBEL_X[dx, dy])):
                if k:
                    source = doubled if abs(k) == 2.0 else f
                    patch = source[..., dy:dy + height - 2, dx:dx + width - 2]
                    (np.add if k > 0 else np.subtract)(grad, patch, out=grad)
    gx *= gx
    gy *= gy
    gx += gy
    np.sqrt(gx, out=out[..., 1:-1, 1:-1])
    return out


def default_delta(magnitude: np.ndarray) -> float:
    """Data-relative threshold of a (T, H, W) Sobel magnitude stack.

    One tenth of the 99th-percentile interior gradient magnitude over
    all frames, which tracks contrast differences between sequences.
    """
    pooled = magnitude[:, 1:-1, 1:-1].ravel()
    if pooled.size == 0:
        pooled = np.zeros(1)
    return DELTA_FRACTION * float(np.percentile(pooled, DELTA_PERCENTILE))


def motion_masks(diff_seq: FrameSequence) -> np.ndarray:
    """The motion boundaries of a difference sequence, from one Sobel
    pass.

    Returns the (T, H, W) bool masks of the pixels whose
    ``gradient_magnitude`` is strictly above the sequence's
    ``default_delta``; border pixels, where the kernel does not fit,
    stay unmarked, and each frame's mask is cleared outside that
    frame's (x, y, w, h) box.  Non-finite frames can give a threshold
    that is not a number >= 0, which raises ``InvalidInput``.
    """
    magnitude = gradient_magnitude(diff_seq.frames)
    delta = default_delta(magnitude)
    if not delta >= 0:
        raise InvalidInput(f"motion threshold must be >= 0, got {delta}")
    mask = magnitude > delta
    inside = np.zeros_like(mask)
    for t, (bx, by, bw, bh) in enumerate(diff_seq.boxes):
        inside[t, by:by + bh, bx:bx + bw] = True
    mask &= inside
    return mask


def sample_cuboids(masks, fraction: float, size, rng_seed: int,
                   max_count: int | None = None) -> np.ndarray:
    """Sample cuboids at motion boundary pixels, seeded and deterministic.

    ``masks`` is one (T, H, W) bool stack, as ``motion_masks`` gives.
    For every start frame t in ``range(T - d + 1)``, pick
    ``ceil(fraction * count)`` of ``masks[t]``'s pixels uniformly
    without replacement, then keep the picks whose full h x w x d block
    lies inside the stack.  With ``max_count`` set, the pooled picks are
    cut down by a seeded shuffle.  Returns the (n, 3) int array of
    ``(t, y, x)`` origins for ``crop_cuboids`` to cut.
    """
    h, w, d = whole_numbers(size, InvalidDimension, f"cuboid size {size}",
                            low=1, shape=(3,)).tolist()
    try:
        masks = np.asarray(masks, dtype=bool)
    except ValueError:  # ragged nesting
        raise InvalidDimension("masks must be one (T, H, W) stack, "
                               "got a ragged nesting") from None
    if masks.ndim != 3:
        raise InvalidDimension(
            f"masks must be one (T, H, W) stack, got shape {masks.shape}")
    rng = np.random.default_rng(rng_seed)
    picks = [np.zeros((0, 3), dtype=np.intp)]
    for t in range(len(masks) - d + 1):
        y, x = pick_positions(masks[t], fraction, (h, w), rng)
        picks.append(np.column_stack([np.full(y.size, t), y, x]))
    picks = np.concatenate(picks)
    if max_count is not None and len(picks) > max_count:
        picks = picks[rng.permutation(len(picks))[:max_count]]
    return picks


def pick_positions(mask, fraction: float, patch, rng):
    """Seeded cuboid centres on one frame's mask.

    Picks ``ceil(fraction * count)`` of the mask's pixels uniformly
    without replacement (no draw when the mask is empty) and keeps those
    whose ``patch = (h, w)`` footprint lies inside the frame.  Returns
    the kept rows ``ys`` and columns ``xs`` in pick order.  Every
    sampler calls this, so it alone rejects a fraction outside (0, 1].
    """
    if not 0.0 < fraction <= 1.0:
        raise InvalidInput(f"fraction must be in (0, 1], got {fraction}")
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

    Every cuboid must lie inside the (T, H, W) frame stack, which must
    hold a whole cuboid even when n is 0.
    """
    h, w, d = size
    ts, ys, xs = (np.asarray(v, dtype=np.intp) for v in (ts, ys, xs))
    windows = sliding_window_view(frames, (d, h, w))
    return windows[ts, ys - h // 2, xs - w // 2]


def window_rows(block: np.ndarray, delta_t: int) -> np.ndarray:
    """Slide a window of ``delta_t`` frames over every cuboid of a block.

    Takes an (n, d, h, w) block, n possibly 0, and returns ``(n,
    d - delta_t + 1, h * w * delta_t)``: row t of a cuboid is the concatenation of its
    patches t .. t + delta_t - 1, each flattened row-major, so with
    ``delta_t == d`` the single row is the cuboid data.  Those patches
    lie next to each other in memory, so for a C-contiguous block the
    result is a read-only view that copies nothing.
    """
    n, d = block.shape[:2]
    _check_delta(delta_t, d)
    flat = block.reshape(n, d, math.prod(block.shape[2:]))
    windows = sliding_window_view(flat, delta_t, axis=1)
    return windows.swapaxes(2, 3).reshape(n, d - delta_t + 1,
                                          delta_t * flat.shape[2])


def _check_delta(delta_t, d):
    if not 1 <= delta_t <= d:
        raise InvalidDelta(f"delta_t must be in [1, {d}], got {delta_t}")


@dataclass(frozen=True, eq=False)
class LazyCuboids:
    """Cuboids of normalized frame differences, cut from raw pixels
    only when read.

    ``pixels`` holds each sequence's raw (T, H, W) frames, ``norms`` its
    ``normalization`` as one (mean, std) row, and ``picks`` is the
    (n, 4) int array of cuboid origins as (sequence, t, y, x) rows;
    ``size`` is (h, w, d).  Indexed by a slice, an index array or a
    bool mask, the set reads like the (n, d, h, w) array that
    ``crop_cuboids`` cuts from each sequence's ``difference_sequence``,
    bit for bit, as each cuboid's d + 1 frames of pixels go through the
    same ``normalized_differences``, but cuts only the picks asked for.
    ``windows(delta_t)`` reads the same set as its
    (n, length, dim) ``window_rows``, minisequences for ``sfa`` to fit;
    each read is a read-only view of the cuboids it cut.
    There is no conversion to an array: ``[:]`` cuts every pick.
    """

    pixels: tuple
    norms: np.ndarray
    picks: np.ndarray
    size: tuple
    delta_t: int | None = None

    @property
    def shape(self) -> tuple:
        h, w, d = self.size
        if self.delta_t is None:
            return (len(self.picks), d, h, w)
        return (len(self.picks), d - self.delta_t + 1, h * w * self.delta_t)

    def __len__(self) -> int:
        return len(self.picks)

    def windows(self, delta_t: int) -> LazyCuboids:
        """The set read as ``window_rows`` of ``delta_t`` frames."""
        _check_delta(delta_t, self.size[2])
        return dataclasses.replace(self, delta_t=delta_t)

    def __getitem__(self, index) -> np.ndarray:
        picks = self.picks[index]
        h, w, d = self.size
        block = np.empty((len(picks), d, h, w))
        for s in np.unique(picks[:, 0]):
            mine = picks[:, 0] == s
            block[mine] = normalized_differences(
                crop_cuboids(self.pixels[s], *picks[mine, 1:].T,
                             (h, w, d + 1)), *self.norms[s])
        if self.delta_t is None:
            return block
        return window_rows(block, self.delta_t)


def region_label(pos, bbox, grid):
    """Grid cell index of a position inside a bounding box.

    The box splits into ``grid = (n_x, n_y)`` cells; the cell column is
    ``floor((x - bx) * n_x / bw)`` clamped to the last column (same for
    rows), and the index is ``row * n_x + column``.  The x-mirror of a
    position maps to the x-mirrored cell whenever ``n_x`` divides the
    box width.  ``pos = (x, y)`` and the box fields may be scalars,
    giving an int, or arrays, giving an array of broadcast shape.
    """
    x, y = (np.asarray(v) for v in pos)
    bx, by, bw, bh = (np.asarray(v) for v in bbox)
    nx, ny = grid
    outside = ~((bx <= x) & (x < bx + bw) & (by <= y) & (y < by + bh))
    if outside.any():
        i = np.unravel_index(np.argmax(outside), outside.shape)
        x, y, bx, by, bw, bh = (np.broadcast_to(v, outside.shape)[i]
                                for v in (x, y, bx, by, bw, bh))
        raise OutsideBoundingBox(
            f"position {(int(x), int(y))} outside box "
            f"{(int(bx), int(by), int(bw), int(bh))}")
    ix = np.minimum((x - bx) * nx // bw, nx - 1)
    iy = np.minimum((y - by) * ny // bh, ny - 1)
    labels = iy * nx + ix
    return int(labels) if labels.ndim == 0 else labels
