"""Slow feature learning: expansion, fitting strategies, learned transform.

A slow feature model maps a raw input vector x through PCA, the fixed
quadratic expansion h, centering by the training mean h0, and a linear
readout W whose columns solve a generalized eigenproblem:

    minimize   <(dy/dt)^2>        (temporal variation of each output)
    subject to zero mean, unit variance, decorrelation on training data.

Four fitting strategies share that machinery and differ in which data
enters the objective and the constraints:

* ``fit_usfa``  - one model over all training minisequences.
* ``fit_ssfa``  - one model per class, objective and constraints both
  restricted to that class.
* ``fit_dsfa``  - one model per class; the objective trades the class's
  own temporal variation against the pooled variation of the other
  classes (weight ``gamma``), constraints taken over the union.
* ``fit_sdsfa`` - ``fit_dsfa`` run independently inside each cell of a
  spatial grid over the bounding box, one model per (class, region).

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

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    InsufficientClassData,
    InsufficientRank,
    InvalidDimension,
    InvalidInput,
    TooShort,
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
    """One fitted set of slow feature functions.

    ``w`` has shape (expanded_dim, k); output j of the model is
    ``w[:, j] . (h(pca(x)) - h0)``, with h the quadratic expansion,
    and ``eigenvalues[j]`` equals its mean squared derivative on the
    training data.  Parameters must be finite and of matching shapes
    (``InvalidInput`` otherwise).
    """

    pca: linalg.PcaModel
    h0: np.ndarray
    w: np.ndarray
    eigenvalues: np.ndarray
    class_label: int | None = None
    region_label: int | None = None

    def __post_init__(self):
        arrays = (self.pca.mean, self.pca.projection, self.h0, self.w,
                  self.eigenvalues)
        if not all(np.isfinite(a).all() for a in arrays):
            raise InvalidInput("model parameters must be finite")
        if self.pca.projection.ndim != 2:
            raise InvalidInput("PCA projection must be 2-D")
        pca, dim = self.pca, expanded_dim(self.pca.out_dim)
        k = self.eigenvalues.size
        for name, a, shape in (
                ("PCA mean", pca.mean, (pca.in_dim,)),
                ("PCA explained eigenvalues", pca.explained_eigenvalues,
                 (pca.out_dim,)),
                ("h0", self.h0, (dim,)),
                ("w", self.w, (dim, k)),
                ("eigenvalues", self.eigenvalues, (k,))):
            if a.shape != shape:
                raise InvalidInput(
                    f"{name} has shape {a.shape}, expected {shape}")

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
    and ``gamma`` is set exactly for the discriminative strategies;
    anything else is ``InvalidInput``.

    ``models`` views cell i as a ``SlowFeatureModel``, whose checks of
    finiteness and shape cover every array of the bank.
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
        cells = gx * gy * max(1, len(labels))
        # k readouts of D expanded dims are independent only if k <= D
        if (self.h0.ndim != 2 or self.eigenvalues.ndim != 2
                or self.w.ndim != 2 or len(self.h0) != cells
                or self.eigenvalues.shape[0] != cells
                or not 1 <= self.k <= self.h0.shape[1]
                or self.w.shape[1] != cells * self.k):
            raise InvalidInput(
                f"a {self.strategy} bank needs {cells} cells of one k in "
                f"[1, D], got h0 {self.h0.shape}, w {self.w.shape} and "
                f"eigenvalues {self.eigenvalues.shape}")
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
    """One int per minisequence; None gives zeros."""
    if values is None:
        return np.zeros(count, dtype=np.int64)
    values = np.array([int(v) for v in values], dtype=np.int64)
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
    eig = linalg.gen_eig_sym(objective, constraint)
    available = eig.eigenvalues.shape[0]
    if available < k:
        raise InsufficientRank(
            f"{what}: {k} slow features requested but only {available} "
            "directions survive the rank cutoff")
    return eig.eigenvectors[:, :k], eig.eigenvalues[:k]


def _check_cells(counts, classes, by_region):
    """Every cell (class, or region x class) needs two minisequences."""
    for cell, count in enumerate(counts):
        if count < 2:
            r, c = divmod(cell, len(classes))
            where = f", region {r}" if by_region else ""
            raise InsufficientClassData(
                f"class {classes[c]}{where} has {count} minisequences, "
                "need at least 2")


def _fit(strategy, minisequences, labels, regions, grid, pca_dim, k,
         gamma) -> ModelBank:
    """The four strategies as one fit over cells.

    A cell is the whole set for usfa, one class for ssfa and dsfa, and
    one (region, class) pair for sdsfa; its mean, covariance B and
    derivative covariance A are merged from its chunks' moments.
    usfa and ssfa solve each cell's A against its own B.  In each
    region, the discriminative fits give class c the objective A_c
    minus ``gamma`` times the mean of the other classes' A (each
    normalized by its own difference count, so classes pool with equal
    weight), against the B and the mean of the region's union, merged
    from its cells' moments.
    """
    if k < 1:
        raise InvalidDimension(f"k must be >= 1, got {k}")
    discriminative = strategy in ("dsfa", "sdsfa")
    if discriminative and not 0 <= gamma < np.inf:
        raise InvalidInput(f"gamma must be finite and >= 0, got {gamma}")
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


def fit_usfa(minisequences, pca_dim: int, k: int) -> ModelBank:
    """Fit one unsupervised slow feature model on all minisequences.

    Pipeline: PCA to ``pca_dim`` on the union of all vectors, expand,
    center by the global expanded mean, then solve the generalized
    eigenproblem of the derivative covariance against the covariance.
    The ``k`` smallest eigenvalues and their B-normalized eigenvectors
    become the model; each eigenvalue equals the mean squared derivative
    of its output on the training data.
    """
    return _fit("usfa", minisequences, None, None, (1, 1), pca_dim, k, None)


def fit_ssfa(minisequences, labels, pca_dim: int,
             k_per_class: int) -> ModelBank:
    """Fit one slow feature model per class on that class's data alone.

    PCA is shared (fit on the union of all classes); the expanded mean,
    covariance and derivative covariance are all per-class, so the
    zero-mean / unit-variance / decorrelation constraints hold on each
    class's own training data.  With a single class this reduces to
    ``fit_usfa`` on that class.
    """
    return _fit("ssfa", minisequences, labels, None, (1, 1), pca_dim,
                k_per_class, None)


def fit_dsfa(minisequences, labels, pca_dim: int, k_per_class: int,
             gamma: float = DEFAULT_GAMMA) -> ModelBank:
    """Fit one discriminative slow feature model per class.

    Class c minimizes its own mean squared derivative while maximizing
    (weight ``gamma``) the pooled mean squared derivative of all other
    classes, under constraints taken over the union of classes.  The
    objective matrix may be indefinite; negative eigenvalues are valid
    and sort first.  ``gamma = 0`` reduces to per-class slowness with
    union constraints.
    """
    return _fit("dsfa", minisequences, labels, None, (1, 1), pca_dim,
                k_per_class, gamma)


def fit_sdsfa(minisequences, labels, regions, grid, pca_dim: int,
              k_per_class: int, gamma: float = DEFAULT_GAMMA) -> ModelBank:
    """Fit discriminative models independently inside each spatial region.

    ``regions`` assigns each minisequence a region index in
    ``[0, grid_x * grid_y)``; the bank holds one model per
    (region, class) pair, ordered region-major then class-minor.  PCA is
    fit once on the union of everything.  With a (1, 1) grid this is
    exactly ``fit_dsfa``.
    """
    gx, gy = int(grid[0]), int(grid[1])
    if gx < 1 or gy < 1:
        raise InvalidDimension(f"bad grid {grid}")
    return _fit("sdsfa", minisequences, labels, regions, (gx, gy), pca_dim,
                k_per_class, gamma)
