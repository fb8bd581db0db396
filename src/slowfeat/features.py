"""Accumulated squared derivative (ASD) features over snippets.

A snippet is the set of cuboids sampled from ``d`` successive frames of
one sequence.  For every cuboid, each slow feature function contributes
the mean of its squared forward differences over the cuboid's window rows
(``1/(d - delta_t) * sum_t (y(t+1) - y(t))^2``); per-cuboid vectors are
laid out in the bank's model order and summed over the snippet's
cuboids, then L1-normalized.  A function that stays flat on a cuboid
contributes nearly zero, so small ASD entries mark the class (and
region) whose functions the motion obeys.

A whole bank is evaluated in one pass: cuboids are held as one
(n, d, h, w) array, windowed, projected through the bank's one PCA and
expanded once, with one matrix product against the bank's stacked
readouts.

For a region-gridded bank each cuboid contributes only to the block of
its own region; mirroring a feature permutes those region blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import classify
from .cuboid import (
    FrameSequence,
    crop_cuboids,
    motion_masks,
    pick_positions,
    region_label,
    window_rows,
)
from .errors import (
    EmptySnippet,
    InvalidDimension,
    InvalidInput,
    SlowFeatError,
    TooShort,
)
from .sfa import ModelBank, quadratic_expand


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


def bank_squared_derivatives(block, bank: ModelBank,
                             regions=None) -> np.ndarray:
    """Mean squared derivative of every bank output on every cuboid.

    ``block`` holds n cuboids as (n, d, h, w); the result is (n, k_total)
    in the bank's feature layout.  Output j of a model is
    ``w[:, j] . (h(x) - h0)``, so its forward difference is
    ``w[:, j] . (h(x_{t+1}) - h(x_t))`` and ``h0`` drops out: the
    expanded rows are differenced first, then multiplied by the bank's
    stacked readouts once.  For an ``sdsfa`` bank, ``regions`` gives
    each cuboid's grid cell and every column of another region's models
    is exactly zero.
    """
    block = np.asarray(block, dtype=float)
    delta_t = _window_length(bank.pca.in_dim, block.shape[1:])
    rows = window_rows(block, delta_t)
    n, length, dim = rows.shape
    expanded = quadratic_expand(
        bank.pca.transform(rows.reshape(n * length, dim)))
    dh = np.diff(expanded.reshape(n, length, -1), axis=1)
    # outputs are a function of the row alone, so bit-equal consecutive
    # rows must difference to exactly zero (batched BLAS may not)
    dh[(rows[:, 1:] == rows[:, :-1]).all(axis=2)] = 0.0
    dy = (dh.reshape(n * (length - 1), -1) @ bank.w).reshape(
        n, length - 1, -1)
    out = (dy * dy).mean(axis=1)
    if bank.strategy == "sdsfa":
        if regions is None:
            raise InvalidInput("sdsfa features need region-labeled cuboids")
        column_regions = np.repeat([m.region_label for m in bank.models],
                                   [m.k for m in bank.models])
        own = column_regions == np.asarray(regions)[:, None]
        out = np.where(own, out, 0.0)
    return out


def class_columns(bank: ModelBank) -> dict:
    """Feature column indices of each class's models, keyed by class in
    bank order."""
    owners = [m.class_label for m in bank.models for _ in range(m.k)]
    return {label: np.flatnonzero([o == label for o in owners])
            for label in dict.fromkeys(owners)}


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
                       stride: int = 1,
                       sequence_id: str = "seq") -> list[ASDFeature]:
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
    if bank.strategy == "sdsfa" and seq.boxes is None:
        raise InvalidInput("sdsfa featurization needs bounding boxes")
    masks = motion_masks(seq, delta)
    frames = np.asarray(seq.frames, dtype=float)

    out = []
    for start in range(0, n - d + 1, stride):
        rng = np.random.default_rng(
            np.random.SeedSequence([int(seed), start]))
        ys, xs = pick_positions(masks[start], fraction, (h, w), rng)
        if ys.size == 0:
            out.append(ASDFeature(np.zeros(bank.k_total),
                                  (sequence_id, start), False))
            continue
        regions = None
        if bank.strategy == "sdsfa":
            regions = region_label((xs, ys), seq.boxes[start], bank.grid)
        block = crop_cuboids(frames, np.full(ys.size, start), ys, xs,
                             (h, w, d))
        out.append(asd_feature(
            Snippet(sequence_id, start, block, np.column_stack([ys, xs]),
                    regions), bank))
    return out


def class_block_sums(bank: ModelBank, values, labels) -> np.ndarray:
    """Class-by-class sums of feature mass, the selectivity table's input.

    ``values`` holds one row per snippet (or cuboid) in the bank's
    feature layout and ``labels`` its class.  Entry (i, j) is the sum,
    over the rows of the i-th class, of the columns of the j-th class's
    functions, classes in ascending order.
    """
    columns = class_columns(bank)
    classes = sorted(columns)
    values, labels = np.asarray(values), np.asarray(labels)
    return np.array([[values[labels == i][:, columns[j]].sum()
                      for j in classes] for i in classes])


def selectivity(bank: ModelBank, values, labels) -> float | None:
    """Average selectivity of a bank's functions on ASD features.

    This is the selectivity the paper reports for its control
    experiments: it is read from the ASD features of labeled snippets,
    the vectors the classifier sees, so it says how much more feature
    mass each class's slow functions accumulate on other classes'
    actions than on their own.  ``class_block_sums`` of the features
    goes through ``classify.selectivity_table``.  Returns None when the
    measure does not apply: a ``usfa`` bank (no class functions), rows
    that do not cover exactly the bank's classes, or a class whose own
    block sum is not positive.
    """
    if bank.strategy == "usfa":
        return None
    if sorted(set(np.asarray(labels).tolist())) != list(bank.class_labels):
        return None
    try:
        _, average = classify.selectivity_table(
            class_block_sums(bank, values, labels))
    except SlowFeatError:
        return None
    return average
