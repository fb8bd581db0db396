"""Accumulated squared derivative (ASD) features over snippets.

A snippet is the set of cuboids sampled from ``d`` successive frames of
one sequence.  For every cuboid, each slow feature function contributes
the mean of its squared forward differences over the cuboid's window rows
(``1/(d - delta_t) * sum_t (y(t+1) - y(t))^2``); per-cuboid vectors are
laid out in the bank's model order and summed over the snippet's
cuboids, then L1-normalized unless all zero (no motion).  A function
that stays flat on a cuboid contributes nearly zero, so small ASD
entries mark the class (and region) whose functions the motion obeys.

``featurize_sequence`` is the one route from cuboids to ASD features.
It takes a sequence in batches of whole snippets: each snippet's
cuboids are put in canonical (y, x) order and snippets are gathered
until a batch holds ``linalg.CHUNK`` cuboids or more.  A batch is one
(n, d, h, w) array, windowed and taken through ``sfa.project_and_expand``
with the bank's one PCA, as training's chunks were, then through one
matrix product against the bank's stacked readouts; each snippet's rows
are then summed in order.

On a grid of more than one cell each cuboid contributes only to the
block of its own region: the product is taken once per region, that
region's cuboids against its own readout columns.  Mirroring features
permutes those region blocks.  ``selectivity`` reads the paper's class
selectivity off labeled feature rows.
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
from .errors import InvalidDimension, InvalidInput, TooShort, whole_numbers
from .sfa import ModelBank, project_and_expand


@dataclass(frozen=True)
class ASDFeature:
    """One snippet's feature vector and the frame the snippet starts at."""

    values: np.ndarray
    start: int

    @property
    def normalized(self) -> bool:
        """Whether L1 normalization was applied.  Entries are
        nonnegative, so only an all-zero vector (a snippet with no
        motion) stays unnormalized."""
        return bool(self.values.any())


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

    ``block`` holds n cuboids as (n, d, h, w), n possibly 0; the result
    is (n, k_total) in the bank's feature layout.  Output j of a model is
    ``w[:, j] . (h(x) - h0)``, so its forward difference is
    ``w[:, j] . (h(x_{t+1}) - h(x_t))`` and ``h0`` drops out: rows from
    ``sfa.project_and_expand`` are differenced, then multiplied by the
    bank's stacked readouts.  On a grid of more than one cell, ``regions``
    gives each cuboid's cell; a region's cuboids meet only the contiguous
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
    n_regions = bank.grid[0] * bank.grid[1]
    if n_regions > 1:
        # None, as any other non-array, is rejected here
        labels = whole_numbers(regions, InvalidInput,
                               f"the region labels of {n} cuboids", low=0,
                               shape=(n,))
        if (labels >= n_regions).any():
            raise InvalidInput(f"region labels must be below {n_regions}")
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


def mirror_features(values, grid) -> np.ndarray:
    """Permute the region blocks of every row as a horizontal flip of
    the grid would.

    ``values`` is an (n, width) matrix of features, each row ``n_x *
    n_y`` blocks of ``width // (n_x * n_y)`` values.  Block ``iy * n_x +
    ix`` moves to ``iy * n_x + (n_x - 1 - ix)``; the values inside each
    block are untouched, so mirroring twice is the identity bit for bit.
    """
    values = np.asarray(values)
    nx, ny = whole_numbers(grid, InvalidDimension, f"grid {grid}",
                           low=1, shape=(2,)).tolist()
    if values.ndim != 2 or values.shape[1] % (nx * ny):
        raise InvalidDimension(
            f"features of shape {values.shape} are not rows of "
            f"{nx}x{ny} equal region blocks")
    n, width = values.shape
    blocks = values.reshape(n, ny, nx, width // (nx * ny))
    return blocks[:, :, ::-1, :].reshape(n, width)


def featurize_sequence(seq: FrameSequence, bank: ModelBank, size,
                       fraction: float, seed: int,
                       stride: int = 1) -> list[ASDFeature]:
    """One ASD feature per snippet of ``d`` successive frames.

    ``seq`` is the (already differenced) sequence that cuboids are cut
    from.  Snippet starts run from 0 to num_frames - d in steps of
    ``stride``; each start samples cuboids from the motion boundaries of
    its own first frame (``motion_masks``), seeded per snippet so results
    do not depend on processing order.  A snippet's cuboids are summed
    in canonical (y, x) order, so the order of the picks changes no bit.
    Each feature is L1-normalized unless its sum is zero (no cuboids, or
    none whose rows change), in which case it stays all zero.  Each
    cuboid's region is its cell of ``bank.grid`` in its first frame's
    box, and it contributes to that region's models only.  A batch of
    snippets ends at the first snippet that brings it to ``linalg.CHUNK``
    cuboids; each cuboid is projected and expanded on its own, so the
    batch a snippet shares can change only the last bits of the readout
    product and hence of its feature.
    """
    h, w, d = whole_numbers(size, InvalidInput, f"cuboid size {size}",
                            low=1, shape=(3,)).tolist()
    stride = int(whole_numbers(stride, InvalidInput, f"stride {stride}",
                               low=1, shape=()))
    n, height, width = seq.frames.shape
    if n < d:
        raise TooShort(f"sequence has {n} frames, snippets need {d}")
    if h > height or w > width:
        raise InvalidInput(
            f"cuboid {h}x{w}x{d} does not fit {height}x{width} frames")
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
        regions = region_label((xs, ys), seq.boxes[ts].T, bank.grid)
        block = crop_cuboids(frames, ts, ys, xs, (h, w, d))
        values = bank_squared_derivatives(block, bank, regions)
        # ``sum`` along the first axis adds row after row, so a snippet's
        # sum is the same in any batch (``np.add.reduceat`` groups its
        # adds differently)
        for start, part in zip(first,
                               np.split(values, np.cumsum(sizes)[:-1])):
            v = part.sum(axis=0)
            total_mass = float(v.sum())
            out.append(ASDFeature(v / total_mass if total_mass > 0.0
                                  else v, start))
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
