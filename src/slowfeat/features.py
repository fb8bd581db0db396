"""Accumulated squared derivative (ASD) features over snippets.

A snippet is the set of cuboids sampled from ``d`` successive frames of
one sequence.  For every cuboid, each slow feature function contributes
the mean of its squared forward differences over the reformatted cuboid
(``1/(d - delta_t) * sum_t (y(t+1) - y(t))^2``); per-cuboid vectors are
laid out in the bank's model order and summed over the snippet's
cuboids, then L1-normalized.  A function that stays flat on a cuboid
contributes nearly zero, so small ASD entries mark the class (and
region) whose functions the motion obeys.

A whole bank is evaluated in one pass: cuboids are held as one
(n, d, h, w) array, and the models sharing a PCA and expansion (all of
a fitted bank's models) are reformatted, projected and expanded once,
with one matrix product against their stacked readouts.

For a region-gridded bank each cuboid contributes only to the block of
its own region; mirroring a feature permutes those region blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sfa
from .cuboid import (
    Cuboid,
    FrameSequence,
    crop_cuboids,
    motion_masks,
    pick_positions,
    region_label,
    window_rows,
)
from .errors import EmptySnippet, InvalidDimension, InvalidInput, TooShort
from .sfa import ModelBank, ModelGroup, SlowFeatureModel


@dataclass(frozen=True)
class Snippet:
    """Cuboids sampled from frames [start_frame, start_frame + d).

    ``cuboids`` is the (n, d, h, w) cuboid data, ``positions`` the
    (n, 2) centres as (y, x) rows, and ``regions`` each cuboid's grid
    cell, which ``sdsfa`` banks need (None when unlabeled).
    """

    sequence_id: str
    start_frame: int
    cuboids: np.ndarray
    positions: np.ndarray
    regions: np.ndarray | None = None


@dataclass(frozen=True)
class ASDFeature:
    """One snippet's feature vector.

    ``normalized`` records whether L1 normalization was applied; an
    all-zero vector (a snippet with no motion) stays unnormalized.
    """

    values: np.ndarray
    snippet_span: tuple[str, int]
    normalized: bool


def _window_length(input_dim: int, cuboid_shape) -> int:
    d, h, w = cuboid_shape
    if input_dim % (h * w) != 0:
        raise InvalidDimension(
            f"model input dim {input_dim} is not a multiple of the "
            f"cuboid patch size {h}x{w}")
    delta_t = input_dim // (h * w)
    if d - delta_t < 1:
        raise TooShort(
            f"cuboid depth {d} leaves no differences for window {delta_t}")
    return delta_t


def _group_squared_derivatives(block: np.ndarray,
                               group: ModelGroup) -> np.ndarray:
    """(n, d, h, w) cuboids -> (n, k) squared derivatives of one group.

    Output j of a model is ``w[:, j] . (h(x) - h0)``, so its forward
    difference is ``w[:, j] . (h(x_{t+1}) - h(x_t))`` and ``h0`` drops
    out: the expanded rows are differenced first, then multiplied by
    the stacked readouts once.
    """
    delta_t = _window_length(group.pca.in_dim, block.shape[1:])
    rows = window_rows(block, delta_t)
    n, length, dim = rows.shape
    expanded = group.expansion.expand(
        group.pca.transform(rows.reshape(n * length, dim)))
    dh = np.diff(expanded.reshape(n, length, -1), axis=1)
    # outputs are a function of the row alone, so bit-equal consecutive
    # rows must difference to exactly zero (batched BLAS may not)
    dh[(rows[:, 1:] == rows[:, :-1]).all(axis=2)] = 0.0
    dy = (dh.reshape(n * (length - 1), -1) @ group.w).reshape(
        n, length - 1, -1)
    return (dy * dy).mean(axis=1)


def bank_squared_derivatives(block, bank: ModelBank,
                             regions=None) -> np.ndarray:
    """Mean squared derivative of every bank output on every cuboid.

    ``block`` holds n cuboids as (n, d, h, w); the result is (n, k_total)
    in the bank's feature layout.  For an ``sdsfa`` bank, ``regions``
    gives each cuboid's grid cell and every column of another region's
    models is exactly zero.
    """
    block = np.asarray(block, dtype=float)
    out = np.empty((block.shape[0], bank.k_total))
    for group in bank.groups:
        out[:, group.columns] = _group_squared_derivatives(block, group)
    if bank.strategy == "sdsfa":
        if regions is None:
            raise InvalidInput("sdsfa features need region-labeled cuboids")
        column_regions = np.repeat([m.region_label for m in bank.models],
                                   [m.k for m in bank.models])
        own = column_regions == np.asarray(regions)[:, None]
        out = np.where(own, out, 0.0)
    return out


def squared_derivative(c: Cuboid, model: SlowFeatureModel) -> np.ndarray:
    """Mean squared forward difference of each model output on a cuboid.

    The cuboid is reformatted with the model's own window length
    (inferred from its input dimension), producing d - delta_t + 1
    response vectors and d - delta_t differences.
    """
    group, = sfa.group_models((model,))
    block = np.asarray(c.data, dtype=float)[None]
    return _group_squared_derivatives(block, group)[0]


def _bank_blocks(bank: ModelBank):
    """(offset, model) pairs in bank order plus the total width."""
    blocks = []
    offset = 0
    for m in bank.models:
        blocks.append((offset, m))
        offset += m.k
    return blocks, offset


def class_columns(bank: ModelBank) -> dict:
    """Feature column indices of each class's models, keyed by class."""
    columns = {}
    for offset, model in _bank_blocks(bank)[0]:
        columns.setdefault(model.class_label, []).extend(
            range(offset, offset + model.k))
    return {label: np.asarray(idx) for label, idx in columns.items()}


def asd_feature(snippet: Snippet, bank: ModelBank) -> ASDFeature:
    """Sum per-cuboid squared derivatives into one normalized vector.

    Cuboids are summed in canonical (y, x) order, so any input ordering
    produces a bit-identical result.  For an ``sdsfa`` bank a cuboid
    contributes only to the models of its own region and every cuboid
    must be region-labeled.  The vector is L1-normalized unless its sum
    is zero, in which case it is returned as-is and flagged.
    """
    if len(snippet.cuboids) == 0:
        raise EmptySnippet(
            f"snippet at frame {snippet.start_frame} of "
            f"{snippet.sequence_id!r} has no cuboids")
    order = np.lexsort((snippet.positions[:, 1], snippet.positions[:, 0]))
    regions = None if snippet.regions is None else snippet.regions[order]
    values = bank_squared_derivatives(
        snippet.cuboids[order], bank, regions).sum(axis=0)
    total_mass = float(values.sum())
    span = (snippet.sequence_id, snippet.start_frame)
    if total_mass > 0.0:
        return ASDFeature(values / total_mass, span, True)
    return ASDFeature(values, span, False)


def mirror_feature(f: ASDFeature, grid, per_region_block_dim: int) -> ASDFeature:
    """Permute region blocks as a horizontal flip of the grid would.

    Block ``iy * n_x + ix`` moves to ``iy * n_x + (n_x - 1 - ix)``; the
    values inside each block are untouched, so mirroring twice is the
    identity bit for bit.
    """
    nx, ny = int(grid[0]), int(grid[1])
    expected = nx * ny * per_region_block_dim
    if f.values.shape != (expected,):
        raise InvalidDimension(
            f"feature has shape {f.values.shape}, grid {grid} with "
            f"block dim {per_region_block_dim} needs ({expected},)")
    blocks = f.values.reshape(ny, nx, per_region_block_dim)
    return ASDFeature(blocks[:, ::-1, :].reshape(-1).copy(),
                      f.snippet_span, f.normalized)


def featurize_sequence(seq: FrameSequence, bank: ModelBank, size,
                       fraction: float, seed: int, delta: float | None = None,
                       stride: int = 1, sequence_id: str = "seq",
                       use_boxes: bool = True) -> list[ASDFeature]:
    """One ASD feature per snippet of ``d`` successive frames.

    ``seq`` is the (already differenced) sequence that cuboids are cut
    from.  Snippet starts run from 0 to num_frames - d in steps of
    ``stride``; each start samples cuboids from the motion boundaries of
    its own first frame, seeded per snippet so results do not depend on
    processing order.  ``delta = None`` applies the data-relative
    default.  A snippet with no cuboids yields an all-zero, unnormalized
    feature.
    """
    h, w, d = (int(v) for v in size)
    n = seq.num_frames
    if n < d:
        raise TooShort(f"sequence has {n} frames, snippets need {d}")
    if stride < 1:
        raise InvalidInput(f"stride must be >= 1, got {stride}")
    if bank.strategy == "sdsfa" and (seq.boxes is None or not use_boxes):
        raise InvalidInput("sdsfa featurization needs bounding boxes")
    masks = motion_masks(seq, delta, use_boxes)
    frames = np.asarray(seq.frames, dtype=float)

    out = []
    for start in range(0, n - d + 1, stride):
        rng = np.random.default_rng(
            np.random.SeedSequence([int(seed), start]))
        ys, xs = pick_positions(masks[start].mask, fraction, (h, w), rng)
        if ys.size == 0:
            out.append(ASDFeature(np.zeros(bank.k_total),
                                  (sequence_id, start), False))
            continue
        regions = None
        if bank.strategy == "sdsfa":
            bbox = tuple(int(v) for v in seq.boxes[start])
            regions = np.array([region_label((x, y), bbox, bank.grid)
                                for y, x in zip(ys.tolist(), xs.tolist())])
        block = crop_cuboids(frames, np.full(ys.size, start), ys, xs,
                             (h, w, d))
        out.append(asd_feature(
            Snippet(sequence_id, start, block, np.column_stack([ys, xs]),
                    regions), bank))
    return out


def block_sum_matrix(cuboids, bank: ModelBank):
    """Class-by-class mean block sums, the selectivity table's input.

    Entry (i, j) is the mean over class-i cuboids of the summed
    squared-derivative block under class-j's functions; for an
    ``sdsfa`` bank each cuboid is scored by the models of its own
    region.  Returns (matrix, class label order).  Cuboids must carry
    class labels (and region labels for ``sdsfa``).
    """
    classes = bank.class_labels
    if not classes:
        raise InvalidInput("block sums need a class-keyed bank")
    if any(c.class_label is None for c in cuboids):
        raise InvalidInput("block sums need class-labeled cuboids")
    labels = np.array([c.class_label for c in cuboids])
    for ci in classes:
        if not (labels == ci).any():
            raise InvalidInput(f"no cuboids for class {ci}")
    region_labels = [c.region_label for c in cuboids]
    regions = None if None in region_labels else np.array(region_labels)
    values = bank_squared_derivatives(
        np.stack([c.data for c in cuboids]), bank, regions)
    columns = class_columns(bank)
    matrix = np.zeros((len(classes), len(classes)))
    for i, ci in enumerate(classes):
        own = values[labels == ci]
        for j, cj in enumerate(classes):
            matrix[i, j] = float(own[:, columns[cj]].sum()) / len(own)
    return matrix, classes
