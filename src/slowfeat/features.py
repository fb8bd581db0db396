"""Accumulated squared derivative (ASD) features over snippets.

A snippet is the set of cuboids sampled from ``d`` successive frames of
one sequence.  For every cuboid, each slow feature function contributes
the mean of its squared forward differences over the cuboid's window rows
(``1/(d - delta_t) * sum_t (y(t+1) - y(t))^2``); per-cuboid vectors are
laid out in the bank's model order and summed over the snippet's
cuboids, then L1-normalized.  A function that stays flat on a cuboid
contributes nearly zero, so small ASD entries mark the class (and
region) whose functions the motion obeys.

A sequence is featurized in batches of whole snippets: each snippet's
cuboids are put in canonical (y, x) order and snippets are gathered
until a batch holds ``linalg.CHUNK`` cuboids or more.  A batch is one
(n, d, h, w) array, windowed and taken through ``sfa.project_and_expand``
with the bank's one PCA, as training's chunks were, then through one
matrix product against the bank's stacked readouts; each snippet's rows
are then summed in order.
``asd_feature`` is the same evaluation on one snippet.

For a region-gridded (``sdsfa``) bank each cuboid contributes only to
the block of its own region: the product is taken once per region,
that region's cuboids against its own readout columns.  Mirroring
features permutes those region blocks.  ``selectivity`` reads the
paper's class selectivity off labeled feature rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .cuboid import (
    FrameSequence,
    crop_cuboids,
    motion_masks,
    pick_positions,
    region_label,
    window_rows,
)
from .errors import EmptySnippet, InvalidDimension, InvalidInput, TooShort
from .sfa import ModelBank, project_and_expand


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


def _region_labels(regions, n: int, bank: ModelBank) -> np.ndarray:
    """Each cuboid's grid cell, checked against an ``sdsfa`` bank's grid."""
    if regions is None:
        raise InvalidInput("sdsfa features need region-labeled cuboids")
    labels = np.asarray(regions)
    n_regions = bank.grid[0] * bank.grid[1]
    if labels.shape != (n,):
        raise InvalidInput(
            f"{n} cuboids need {n} region labels, got shape {labels.shape}")
    if labels.dtype.kind not in "iuf" or not (
            (labels % 1 == 0) & (labels >= 0) & (labels < n_regions)).all():
        raise InvalidInput(
            f"region labels must be integers in [0, {n_regions})")
    return labels.astype(np.intp)


def bank_squared_derivatives(block, bank: ModelBank,
                             regions=None) -> np.ndarray:
    """Mean squared derivative of every bank output on every cuboid.

    ``block`` holds n cuboids as (n, d, h, w), n possibly 0; the result
    is (n, k_total) in the bank's feature layout.  Output j of a model is
    ``w[:, j] . (h(x) - h0)``, so its forward difference is
    ``w[:, j] . (h(x_{t+1}) - h(x_t))`` and ``h0`` drops out: rows from
    ``sfa.project_and_expand`` are differenced, then multiplied by the
    bank's stacked readouts.  For an ``sdsfa`` bank, ``regions`` gives
    each cuboid's grid cell; a region's cuboids meet only the contiguous
    columns of that region's models (banks are region-major), and every
    other column of theirs is exactly zero.
    """
    block = np.asarray(block, dtype=float)
    if block.ndim != 4:
        raise InvalidDimension(
            f"cuboids must be (n, d, h, w), got shape {block.shape}")
    n = len(block)
    delta_t = _window_length(bank.pca.in_dim, block.shape[1:])
    groups = [(slice(None), slice(None))]
    if bank.strategy == "sdsfa":
        labels = _region_labels(regions, n, bank)
        n_regions = bank.grid[0] * bank.grid[1]
        width = bank.k_total // n_regions
        groups = [(labels == r, slice(r * width, (r + 1) * width))
                  for r in range(n_regions)]
    rows = window_rows(block, delta_t)
    length = rows.shape[1]
    dh = np.diff(project_and_expand(bank.pca, rows), axis=1)
    # outputs are a function of the row alone, so bit-equal consecutive
    # rows must difference to exactly zero (batched BLAS may not)
    dh[(rows[:, 1:] == rows[:, :-1]).all(axis=2)] = 0.0
    out = np.zeros((n, bank.k_total))
    for own, columns in groups:
        part = dh[own]
        dy = part.reshape(-1, part.shape[2]) @ bank.w[:, columns]
        out[own, columns] = (dy * dy).reshape(
            len(part), length - 1, dy.shape[1]).mean(axis=1)
    return out


def _features(block, regions, bank: ModelBank, spans,
              sizes) -> list[ASDFeature]:
    """ASD features of snippets whose cuboids lie one after another in
    ``block``, ``sizes[i]`` cuboids for ``spans[i]``.

    Each snippet's rows are summed in block order: ``sum`` along the
    first axis adds row after row, as one snippet alone would be summed
    (``np.add.reduceat`` groups its adds differently).  The vector is
    L1-normalized unless its sum is zero, in which case it is returned
    as-is and flagged.
    """
    values = bank_squared_derivatives(block, bank, regions)
    out = []
    for span, part in zip(spans, np.split(values, np.cumsum(sizes)[:-1])):
        v = part.sum(axis=0)
        total_mass = float(v.sum())
        normalized = total_mass > 0.0
        out.append(ASDFeature(v / total_mass if normalized else v, span,
                              normalized))
    return out


def asd_feature(snippet: Snippet, bank: ModelBank) -> ASDFeature:
    """Sum per-cuboid squared derivatives into one normalized vector.

    Cuboids are summed in canonical (y, x) order, so any input ordering
    produces a bit-identical result.  For an ``sdsfa`` bank a cuboid
    contributes only to the models of its own region and every cuboid
    must be region-labeled.  The vector is L1-normalized unless its sum
    is zero, in which case it is returned as-is and flagged.
    """
    n = len(snippet.cuboids)
    if n == 0:
        raise EmptySnippet(
            f"snippet at frame {snippet.start_frame} of "
            f"{snippet.sequence_id!r} has no cuboids")
    if len(snippet.positions) != n:
        raise InvalidInput(
            f"{n} cuboids need {n} positions, got {len(snippet.positions)}")
    order = np.lexsort((snippet.positions[:, 1], snippet.positions[:, 0]))
    regions = None
    if bank.strategy == "sdsfa":
        regions = _region_labels(snippet.regions, n, bank)[order]
    span = (snippet.sequence_id, snippet.start_frame)
    return _features(snippet.cuboids[order], regions, bank, [span], [n])[0]


def mirror_features(values, grid) -> np.ndarray:
    """Permute the region blocks of every row as a horizontal flip of
    the grid would.

    ``values`` is an (n, width) matrix of features, each row ``n_x *
    n_y`` blocks of ``width // (n_x * n_y)`` values.  Block ``iy * n_x +
    ix`` moves to ``iy * n_x + (n_x - 1 - ix)``; the values inside each
    block are untouched, so mirroring twice is the identity bit for bit.
    """
    values = np.asarray(values)
    nx, ny = int(grid[0]), int(grid[1])
    if values.ndim != 2 or values.shape[1] % (nx * ny):
        raise InvalidDimension(
            f"features of shape {values.shape} are not rows of "
            f"{nx}x{ny} equal region blocks")
    n, width = values.shape
    blocks = values.reshape(n, ny, nx, width // (nx * ny))
    return blocks[:, :, ::-1, :].reshape(n, width)


def featurize_sequence(seq: FrameSequence, bank: ModelBank, size,
                       fraction: float, seed: int, stride: int = 1,
                       sequence_id: str = "seq") -> list[ASDFeature]:
    """One ASD feature per snippet of ``d`` successive frames.

    ``seq`` is the (already differenced) sequence that cuboids are cut
    from.  Snippet starts run from 0 to num_frames - d in steps of
    ``stride``; each start samples cuboids from the motion boundaries of
    its own first frame (``motion_masks``), seeded per snippet so results
    do not depend on processing order.  A snippet with no cuboids yields
    an all-zero, unnormalized feature.  An ``sdsfa`` bank reads each
    cuboid's region off its first frame's box.  A batch of snippets ends
    at the first snippet that brings it to ``linalg.CHUNK`` cuboids; each
    cuboid is projected and expanded on its own, so the batch a snippet
    shares can change only the last bits of the readout product and
    hence of its feature.
    """
    h, w, d = (int(v) for v in size)
    n, height, width = seq.frames.shape
    if n < d:
        raise TooShort(f"sequence has {n} frames, snippets need {d}")
    if h > height or w > width:
        raise InvalidInput(
            f"cuboid {h}x{w}x{d} does not fit {height}x{width} frames")
    if stride < 1:
        raise InvalidInput(f"stride must be >= 1, got {stride}")
    masks = motion_masks(seq)
    frames = np.asarray(seq.frames, dtype=float)

    picked = []  # (start, ys, xs) of every snippet, cuboids in (y, x) order
    for start in range(0, n - d + 1, stride):
        rng = np.random.default_rng(
            np.random.SeedSequence([int(seed), start]))
        ys, xs = pick_positions(masks[start], fraction, (h, w), rng)
        order = np.lexsort((xs, ys))
        picked.append((start, ys[order], xs[order]))
    out = []
    while picked:
        # whole snippets, until the batch holds linalg.CHUNK cuboids
        held = np.cumsum([ys.size for _, ys, _ in picked])
        take = int(np.searchsorted(held, linalg.CHUNK)) + 1
        batch, picked = picked[:take], picked[take:]
        first, ys, xs = zip(*batch)
        sizes = [v.size for v in ys]
        ts, ys, xs = (np.repeat(first, sizes), np.concatenate(ys),
                      np.concatenate(xs))
        regions = None
        if bank.strategy == "sdsfa":
            regions = region_label((xs, ys), seq.boxes[ts].T, bank.grid)
        block = crop_cuboids(frames, ts, ys, xs, (h, w, d))
        spans = [(sequence_id, start) for start in first]
        out.extend(_features(block, regions, bank, spans, sizes))
    return out


def selectivity(bank: ModelBank, values, labels) -> float | None:
    """Average selectivity of a bank's functions on ASD features.

    This is the selectivity the paper reports for its control
    experiments: it is read from the ASD features of labeled snippets,
    the vectors the classifier sees, so it says how much more feature
    mass each class's slow functions accumulate on other classes'
    actions than on their own.  ``values`` holds one row per snippet (or
    cuboid) in the bank's feature layout and ``labels`` its class.
    Entry (i, j) of the class table is the summed mass of class-i rows
    in the columns of the class-j functions, classes in ascending
    order.  Each row of the table is divided by its diagonal entry, so
    ratio (i, j) says how much louder the class-j functions are on
    class-i data than the class-i functions; larger is more selective.
    The average is the mean over rows of the smallest off-diagonal
    ratio (the worst confusable class pair).  Returns None when the
    measure does not apply: fewer than two classes (a ``usfa`` bank has
    no class functions), labels that are not exactly the bank's
    classes, or a table with a non-finite entry or a diagonal entry
    that is not positive.
    """
    classes = bank.class_labels
    values, labels = np.asarray(values), np.asarray(labels)
    if len(classes) < 2 or sorted(set(labels.tolist())) != list(classes):
        return None
    owner = np.arange(bank.k_total) // bank.k % len(classes)
    table = np.array([[values[labels == c][:, owner == j].sum()
                       for j in range(len(classes))] for c in classes],
                     dtype=float)
    diag = np.diag(table)
    if (diag <= 0).any() or not np.isfinite(table).all():
        return None
    ratios = table / diag[:, None]
    off = ratios + np.where(np.eye(len(classes), dtype=bool), np.inf, 0.0)
    return float(off.min(axis=1).mean())
