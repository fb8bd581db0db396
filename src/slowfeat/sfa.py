"""Slow feature learning: expansion, fitting strategies, learned transform.

A slow feature model maps a raw input vector x through PCA, the fixed
quadratic expansion h, centering by the training mean h0, and a linear
readout W whose columns solve a generalized eigenproblem:

    minimize   <(dy/dt)^2>        (temporal variation of each output)
    subject to zero mean, unit variance, decorrelation on training data.

Four strategies (``STRATEGIES``), all fit by ``fit_bank``, share that
machinery and differ in which data enters the objective and the
constraints:

* ``usfa``  - one model over all training minisequences.
* ``ssfa``  - one model per class, objective and constraints both
  restricted to that class.
* ``dsfa``  - one model per class; the objective trades the class's
  own temporal variation against the pooled variation of the other
  classes (weight ``gamma``), constraints taken over the union.
* ``sdsfa`` - dsfa run independently inside each cell of a spatial
  grid over the bounding box, one model per (class, region).

All four are one fit over cells: the whole set (usfa), one class (ssfa,
dsfa) or one (region, class) pair (sdsfa).  A fit takes two passes over
the minisequences, in chunks of ``linalg.CHUNK`` of them.  Pass 1 is
``linalg.pca_fit`` of every raw row, which merges the chunks' moments
with ``linalg.merge_moments``.  Pass 2 takes one cell's chunks at a
time through ``project_and_expand``, as featurize and ``apply`` do, and
merges their ``linalg.sequence_moments`` into that cell's mean,
covariance and derivative covariance.  No array of all rows is ever
built: beyond its input, a fit holds one chunk's rows and the moments
of the cells of one region, O(classes x D^2) for D expanded dimensions,
and solves and releases that region's models before it reads the next
region's chunks.  The input itself need not be held either: a fit reads
it only by ``len``, ``shape`` and indexing, so the training pipeline
passes the ``windows`` of a ``cuboid.LazyCuboids``, which cuts each
chunk from the raw pixels as a pass reads it.
The discriminative constraints of a region (the whole set for dsfa) are
merged from its class cells' moments by the same routine, so dsfa is
sdsfa on one region.

A bank is therefore one PCA and three arrays over its cells: the
expanded means, the readouts side by side in feature order, and the
eigenvalues (``ModelBank``).

The minisequences are one ``(n, length, dim)`` array, or a set read
like one (see ``linalg.as_minisequences``), so all have the same
length, which must be at least 2; derivatives are forward
differences with unit time step and never cross minisequence
boundaries.  Eigenvalues are kept in ascending order, so index 0 is the
slowest direction; for the discriminative objective the matrix is
indefinite and negative eigenvalues are meaningful, "slowest" means
most negative.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    InsufficientClassData,
    InsufficientRank,
    InvalidDimension,
    InvalidInput,
    TooShort,
    whole_numbers,
)

STRATEGIES = ("usfa", "ssfa", "dsfa", "sdsfa")

DEFAULT_GAMMA = 0.2


def quadratic_expand(x: np.ndarray) -> np.ndarray:
    """Expand each (n, I) row to [x_1..x_I, x_i * x_j for i <= j].

    Linear terms come first, then the products in row-scan order
    ((1,1), (1,2), .., (1,I), (2,2), ..).  Rows are expanded
    independently, to ``(n, I + I(I+1)/2)``.
    """
    rows = np.asarray(x, dtype=float)
    if rows.ndim != 2:
        raise InvalidDimension(
            f"expansion takes (n, I) rows, got shape {rows.shape}")
    n, dim = rows.shape
    out = np.empty((n, expanded_dim(dim)))
    out[:, :dim] = rows
    offset = dim
    # products of x_i with x_i .. x_I, written in place: no gathered
    # copies of the inputs
    for i in range(dim):
        np.multiply(rows[:, i:i + 1], rows[:, i:],
                    out=out[:, offset:offset + dim - i])
        offset += dim - i
    return out


def expanded_dim(input_dim: int) -> int:
    """Output dimension of ``quadratic_expand`` on ``input_dim`` inputs."""
    return input_dim + input_dim * (input_dim + 1) // 2


def project_and_expand(pca: linalg.PcaModel, x) -> np.ndarray:
    """``quadratic_expand`` of ``x`` projected by ``pca``: the one route
    from raw windows to readout inputs, for training, featurize and
    ``apply``.  ``x`` is ``(..., pca.in_dim)``, the result ``(...,
    expanded_dim(pca.out_dim))``.  A 3-D stack of minisequences gets one
    small product per minisequence, so a window projects to the same bits
    whatever else shares its chunk or batch.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != pca.in_dim:
        raise InvalidDimension(
            f"model expects input dim {pca.in_dim}, got shape {x.shape}")
    rows = pca.transform(x).reshape(-1, pca.out_dim)
    return quadratic_expand(rows).reshape(
        x.shape[:-1] + (expanded_dim(pca.out_dim),))


@dataclass(frozen=True)
class SlowFeatureModel:
    """One cell's slow feature functions, as views of a ``ModelBank``.

    ``w`` has shape (expanded_dim, k); output j of the model is
    ``w[:, j] . (h(pca(x)) - h0)``, with h the quadratic expansion,
    and ``eigenvalues[j]`` equals its mean squared derivative on the
    training data.  Only ``ModelBank`` builds these, once it has
    checked every array.
    """

    pca: linalg.PcaModel
    h0: np.ndarray
    w: np.ndarray
    eigenvalues: np.ndarray
    class_label: int | None = None
    region_label: int | None = None

    @property
    def k(self) -> int:
        return self.w.shape[1]


def apply(model: SlowFeatureModel, x: np.ndarray) -> np.ndarray:
    """Evaluate the model on a raw vector (or rows of vectors).

    Instantaneous: each output depends on one input vector only.
    """
    return (project_and_expand(model.pca, x) - model.h0) @ model.w


def delta_value(y) -> float:
    """Mean squared forward difference of a scalar sequence (unit dt)."""
    y = np.asarray(y, dtype=float).ravel()
    if y.shape[0] < 2:
        raise TooShort("delta_value needs at least 2 samples")
    d = np.diff(y)
    return float(np.mean(d * d))


@dataclass(frozen=True)
class ModelBank:
    """The fitted slow feature functions of one strategy, as arrays.

    A bank is ``k`` functions per cell, all behind one PCA and the
    quadratic expansion.  The cells are fixed by the strategy, one rule
    for all: one per (region, class), region-major and class-minor,
    where only ``sdsfa`` has regions (index running over the grid row by
    row) and ``usfa`` has the one class None.  ``h0`` is (cells, D),
    ``eigenvalues`` (cells, k) and ``w`` (D, cells * k): the readouts
    side by side in feature order, cell i in columns [i * k, (i + 1) * k).
    ``class_labels`` are sorted and distinct, empty exactly for usfa,
    and ``gamma`` is set exactly for the discriminative strategies.
    Every array is finite, the PCA's mean and explained eigenvalues fit
    its 2-D projection, and D is ``expanded_dim(pca.out_dim)``; anything
    else is ``InvalidInput``.  These checks run once and cover every
    array: ``models`` views cell i as a ``SlowFeatureModel`` of slices.
    """

    strategy: str
    pca: linalg.PcaModel
    h0: np.ndarray
    w: np.ndarray
    eigenvalues: np.ndarray
    class_labels: tuple[int, ...] = ()
    grid: tuple[int, int] = (1, 1)
    gamma: float | None = None
    models: tuple[SlowFeatureModel, ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise InvalidInput(f"unknown strategy {self.strategy!r}")
        gx, gy = self.grid
        if min(gx, gy) < 1 or (self.strategy != "sdsfa"
                                and self.grid != (1, 1)):
            raise InvalidInput(
                f"a {self.strategy} bank cannot have grid {self.grid}")
        labels = self.class_labels
        if list(labels) != sorted(set(labels)):
            raise InvalidInput(
                f"class labels {labels} are not sorted and distinct")
        if (self.strategy == "usfa") != (not labels):
            raise InvalidInput("a bank has class labels unless it is usfa")
        discriminative = self.strategy in ("dsfa", "sdsfa")
        if (self.gamma is None) == discriminative or (
                discriminative and not 0 <= self.gamma < np.inf):
            raise InvalidInput(
                f"a {self.strategy} bank cannot have gamma {self.gamma}")
        pca = self.pca
        if not all(np.isfinite(a).all() for a in (
                pca.mean, pca.projection, self.h0, self.w, self.eigenvalues)):
            raise InvalidInput("bank parameters must be finite")
        shape, cells = pca.projection.shape, gx * gy * max(1, len(labels))
        dim = expanded_dim(pca.out_dim) if len(shape) == 2 else None
        # k readouts of D expanded dims are independent only if k <= D
        if (dim is None or pca.mean.shape != (pca.in_dim,)
                or pca.explained_eigenvalues.shape != (pca.out_dim,)
                or self.h0.shape != (cells, dim) or self.eigenvalues.ndim != 2
                or self.eigenvalues.shape[0] != cells
                or not 1 <= self.k <= dim
                or self.w.shape != (dim, cells * self.k)):
            raise InvalidInput(
                f"a {self.strategy} bank needs a 2-D PCA, {cells} cells of "
                f"its D expanded dims and one k in [1, D], got PCA "
                f"projection {shape}, mean {pca.mean.shape} and "
                f"eigenvalues {pca.explained_eigenvalues.shape}, h0 "
                f"{self.h0.shape}, w {self.w.shape} and eigenvalues "
                f"{self.eigenvalues.shape}")
        classes, k = labels or (None,), self.k
        object.__setattr__(self, "models", tuple(
            SlowFeatureModel(
                self.pca, self.h0[i], self.w[:, i * k:(i + 1) * k],
                self.eigenvalues[i], class_label=classes[i % len(classes)],
                region_label=(i // len(classes)
                              if self.strategy == "sdsfa" else None))
            for i in range(cells)))

    @property
    def k(self) -> int:
        """Functions per cell."""
        return self.eigenvalues.shape[1]

    @property
    def k_total(self) -> int:
        return self.w.shape[1]


# ---------------------------------------------------------------------------
# fitting


def _per_sequence(values, count, what):
    """One int per minisequence; None gives zeros, a non-integer an error."""
    if values is None:
        return np.zeros(count, dtype=np.int64)
    values = whole_numbers(values, InvalidInput, what)
    if len(values) != count:
        raise InvalidDimension(
            f"{count} minisequences but {len(values)} {what}")
    return values


def _cell_moments(x, members, pca):
    """Pass 2: moments of the projected and expanded minisequences
    ``x[members]``, merged chunk by chunk."""
    return linalg.merge_moments(
        linalg.sequence_moments(
            project_and_expand(pca, x[members[i:i + linalg.CHUNK]]))
        for i in range(0, len(members), linalg.CHUNK))


def _solve_model(objective, constraint, k, what):
    """The ``k`` slowest readouts and their eigenvalues."""
    if np.abs(objective).max() == 0.0:
        raise InsufficientRank(
            f"{what}: derivative covariance is identically zero "
            "(data constant in time)")
    values, vectors = linalg.gen_eig_sym(objective, constraint)
    if len(values) < k:
        raise InsufficientRank(
            f"{what}: {k} slow features requested but only {len(values)} "
            "directions survive the rank cutoff")
    return vectors[:, :k], values[:k]


def _check_cells(counts, classes, by_region):
    """Every cell (class, or region x class) needs two minisequences."""
    for cell, count in enumerate(counts):
        if count < 2:
            r, c = divmod(cell, len(classes))
            where = f", region {r}" if by_region else ""
            raise InsufficientClassData(
                f"class {classes[c]}{where} has {count} minisequences, "
                "need at least 2")


def fit_bank(strategy, minisequences, pca_dim: int, k: int, labels=None,
             regions=None, grid=(1, 1), gamma=DEFAULT_GAMMA) -> ModelBank:
    """Fit the ``k`` slowest functions per cell of ``strategy``.

    A cell is the whole set for usfa, one class for ssfa and dsfa, and
    one (region, class) pair for sdsfa.  PCA to ``pca_dim`` is fit once
    on the union of all vectors; each cell's expanded mean, covariance
    B and derivative covariance A are merged from its chunks' moments.
    usfa and ssfa solve each cell's A against its own B, so ssfa's
    constraints hold on each class's own data, and with one class ssfa
    is usfa on that class.  In each region, the discriminative fits
    give class c the objective A_c minus ``gamma`` times the mean of
    the other classes' A (each normalized by its own difference count,
    so classes pool with equal weight), against the B and the mean of
    the region's union, merged from its cells' moments; ``gamma = 0``
    gives per-class slowness with union constraints.  The objective may
    be indefinite: negative eigenvalues are valid and sort first.

    ``labels`` give each minisequence's class (not read by usfa).
    ``regions`` give each one's cell index in ``[0, grid_x * grid_y)``
    of the whole-number ``grid``; only sdsfa reads them, ordering its
    models region-major then class-minor, and with a (1, 1) grid it is
    exactly dsfa.  Only dsfa and sdsfa read ``gamma``, a finite real
    >= 0.  ``k`` is a whole number >= 1.
    """
    if strategy not in STRATEGIES:
        raise InvalidInput(f"unknown strategy {strategy!r}")
    if strategy == "usfa":
        labels = None
    if strategy == "sdsfa":
        grid = tuple(whole_numbers(grid, InvalidDimension, f"grid {grid}",
                                   low=1, shape=(2,)).tolist())
    else:
        regions, grid = None, (1, 1)
    k = int(whole_numbers(k, InvalidDimension, f"k {k!r}", low=1, shape=()))
    discriminative = strategy in ("dsfa", "sdsfa")
    if discriminative and (isinstance(gamma, bool) or not isinstance(
            gamma, numbers.Real) or not 0 <= gamma < np.inf):
        raise InvalidInput(
            f"gamma must be a finite real >= 0, got {gamma!r}")
    x = linalg.as_minisequences(minisequences)
    if x.shape[1] < 2:
        raise TooShort(f"minisequences have {x.shape[1]} vectors, "
                       "need at least 2 for a derivative")
    n_regions = grid[0] * grid[1]
    labels = _per_sequence(labels, len(x), "labels")
    regions = _per_sequence(regions, len(x), "regions")
    outside = (regions < 0) | (regions >= n_regions)
    if outside.any():
        raise InvalidDimension(f"region index {regions[outside][0]} "
                               f"outside a grid of {n_regions} regions")
    classes, class_of = np.unique(labels, return_inverse=True)
    if discriminative and len(classes) < 2:
        raise InsufficientClassData(
            f"{strategy} needs at least 2 classes, got {len(classes)}")
    n_classes = len(classes)
    cells = regions * n_classes + class_of
    if strategy != "usfa":
        _check_cells(np.bincount(cells, minlength=n_regions * n_classes),
                     classes, strategy == "sdsfa")

    pca = linalg.pca_fit(x, pca_dim)
    # the bank's arrays, filled cell by cell, so that no cell's whole
    # eigenvector matrix outlives its solve
    dim = expanded_dim(pca.out_dim)
    h0s = np.empty((n_regions * n_classes, dim))
    w = np.empty((dim, n_regions * n_classes * k))
    eigenvalues = np.empty((n_regions * n_classes, k))
    for r in range(n_regions):
        region = [_cell_moments(x, np.flatnonzero(cells == c), pca)
                  for c in range(r * n_classes, (r + 1) * n_classes)]
        where = f", region {r}" if strategy == "sdsfa" else ""
        if discriminative:
            h0, b = linalg.merge_moments(region)[:2]
        for i, c in enumerate(classes):
            if discriminative:
                others = [m[2] for j, m in enumerate(region) if j != i]
                pooled = sum(others) / len(others)
                # exactly symmetric, as a combination of symmetric moments
                objective = region[i][2] - gamma * pooled
            else:
                h0, b, objective = region[i][:3]
            cell = r * n_classes + i
            h0s[cell] = h0
            w[:, cell * k:(cell + 1) * k], eigenvalues[cell] = _solve_model(
                objective, b, k, "training set" if strategy == "usfa"
                else f"class {c}{where}")
        # the bank holds copies: release the region before the next one
        region = h0 = b = objective = others = pooled = None
    return ModelBank(
        strategy, pca, h0s, w, eigenvalues,
        () if strategy == "usfa" else tuple(int(c) for c in classes),
        grid, gamma if discriminative else None)
