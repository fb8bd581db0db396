"""Slow feature learning: expansion, fitting strategies, learned transform.

A slow feature model maps a raw input vector x through PCA, a fixed
nonlinear expansion h, centering by the training mean h0, and a linear
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

Minisequences are ``(length, dim)`` arrays; derivatives are forward
differences with unit time step and never cross minisequence
boundaries.  Eigenvalues are kept in ascending order, so index 0 is the
slowest direction; for the discriminative objective the matrix is
indefinite and negative eigenvalues are meaningful, "slowest" means
most negative.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    EmptyTrainingSet,
    InsufficientClassData,
    InsufficientRank,
    InvalidDimension,
    InvalidInput,
    TooShort,
)

STRATEGIES = ("usfa", "ssfa", "dsfa", "sdsfa")

DEFAULT_GAMMA = 0.2


def quadratic_expand(x: np.ndarray) -> np.ndarray:
    """Expand each vector to [x_1..x_I, x_i * x_j for i <= j].

    Linear terms come first, then the products in row-scan order
    ((1,1), (1,2), .., (1,I), (2,2), ..).  A 1-D input returns a 1-D
    output; rows of a 2-D input are expanded independently.  Output
    dimension is I + I(I+1)/2.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    rows = np.atleast_2d(x)
    i, j = np.triu_indices(rows.shape[1])
    out = np.concatenate([rows, rows[:, i] * rows[:, j]], axis=1)
    return out[0] if single else out


def expanded_dim(input_dim: int, kind: str = "quadratic") -> int:
    if kind == "identity":
        return input_dim
    return input_dim + input_dim * (input_dim + 1) // 2


@dataclass(frozen=True)
class ExpansionSpec:
    """Which fixed nonlinear expansion a model applies after PCA."""

    kind: str
    input_dim: int

    def __post_init__(self):
        if self.kind not in ("identity", "quadratic"):
            raise ValueError(f"unknown expansion kind {self.kind!r}")
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")

    @property
    def output_dim(self) -> int:
        return expanded_dim(self.input_dim, self.kind)

    def expand(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "identity":
            return np.asarray(x, dtype=float)
        return quadratic_expand(x)


@dataclass(frozen=True)
class SlowFeatureModel:
    """One fitted set of slow feature functions.

    ``w`` has shape (expanded_dim, k); output j of the model is
    ``w[:, j] . (h(pca(x)) - h0)`` and ``eigenvalues[j]`` equals its
    mean squared derivative on the training data.
    """

    pca: linalg.PcaModel
    expansion: ExpansionSpec
    h0: np.ndarray
    w: np.ndarray
    eigenvalues: np.ndarray
    strategy: str
    class_label: int | None = None
    region_label: int | None = None
    gamma: float | None = None

    def __post_init__(self):
        arrays = (self.pca.mean, self.pca.projection, self.h0, self.w,
                  self.eigenvalues)
        if not all(np.isfinite(a).all() for a in arrays):
            raise InvalidInput("model parameters must be finite")

    @property
    def k(self) -> int:
        return self.w.shape[1]

    @property
    def input_dim(self) -> int:
        return self.pca.in_dim


def apply(model: SlowFeatureModel, x: np.ndarray) -> np.ndarray:
    """Evaluate the model on a raw vector (or rows of vectors).

    Instantaneous: each output depends on one input vector only.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != model.input_dim:
        raise InvalidDimension(
            f"model expects input dim {model.input_dim}, got {x.shape[-1]}")
    h = model.expansion.expand(model.pca.transform(x))
    return (h - model.h0) @ model.w


def delta_value(y) -> float:
    """Mean squared forward difference of a scalar sequence (unit dt)."""
    y = np.asarray(y, dtype=float).ravel()
    if y.shape[0] < 2:
        raise TooShort("delta_value needs at least 2 samples")
    d = np.diff(y)
    return float(np.mean(d * d))


@dataclass(frozen=True)
class ModelGroup:
    """Models of a bank that share one PCA and one expansion.

    ``w`` stacks the members' readouts column by column and ``columns``
    gives the bank feature column of each of its columns.
    """

    pca: linalg.PcaModel
    expansion: ExpansionSpec
    w: np.ndarray
    columns: np.ndarray


def _same_input_map(a: SlowFeatureModel, b: SlowFeatureModel) -> bool:
    return a.expansion == b.expansion and all(
        x.shape == y.shape and x.tobytes() == y.tobytes()
        for x, y in ((a.pca.mean, b.pca.mean),
                     (a.pca.projection, b.pca.projection)))


def group_models(models) -> tuple[ModelGroup, ...]:
    """Group models by bit-equal PCA and expansion, in first-seen order.

    Every fitting strategy fits one PCA for the whole bank, so a fitted
    bank is a single group; hand-built banks may carry one PCA per
    model.  Feature columns follow model order, each model's ``k``
    outputs in turn.
    """
    members: list[list] = []
    offset = 0
    for m in models:
        columns = np.arange(offset, offset + m.k)
        offset += m.k
        for group in members:
            if _same_input_map(group[0], m):
                group[1].append(m.w)
                group[2].append(columns)
                break
        else:
            members.append([m, [m.w], [columns]])
    return tuple(ModelGroup(first.pca, first.expansion, np.hstack(ws),
                            np.concatenate(columns))
                 for first, ws, columns in members)


@dataclass(frozen=True)
class ModelBank:
    """An ordered collection of fitted models for one strategy.

    Ordering defines the feature layout downstream: a single model for
    ``usfa``; one per class in ascending class order for ``ssfa`` and
    ``dsfa``; region-major, class-minor for ``sdsfa`` (region index runs
    over the grid row by row).
    """

    strategy: str
    models: tuple[SlowFeatureModel, ...]
    grid: tuple[int, int] = (1, 1)

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if not self.models:
            raise ValueError("a bank needs at least one model")
        if self.strategy == "usfa":
            if len(self.models) != 1:
                raise ValueError("usfa bank must hold exactly one model")
            if self.grid != (1, 1):
                raise ValueError("usfa bank grid must be (1, 1)")
        elif self.strategy in ("ssfa", "dsfa"):
            labels = [m.class_label for m in self.models]
            if any(l is None for l in labels) or sorted(set(labels)) != labels:
                raise ValueError(
                    f"{self.strategy} bank needs distinct ascending class labels")
            if self.grid != (1, 1):
                raise ValueError(f"{self.strategy} bank grid must be (1, 1)")
        else:
            gx, gy = self.grid
            if gx < 1 or gy < 1:
                raise ValueError(f"bad grid {self.grid}")
            n_regions = gx * gy
            classes = sorted({m.class_label for m in self.models})
            if None in classes:
                raise ValueError("sdsfa models need class labels")
            expected = [(r, c) for r in range(n_regions) for c in classes]
            got = [(m.region_label, m.class_label) for m in self.models]
            if got != expected:
                raise ValueError(
                    "sdsfa bank must hold one model per (region, class), "
                    "region-major and class-minor")

    @property
    def k_total(self) -> int:
        return sum(m.k for m in self.models)

    @functools.cached_property
    def groups(self) -> tuple[ModelGroup, ...]:
        """``group_models`` of this bank, computed once."""
        return group_models(self.models)

    @property
    def class_labels(self) -> tuple[int, ...]:
        if self.strategy == "usfa":
            return ()
        return tuple(sorted({m.class_label for m in self.models}))


# ---------------------------------------------------------------------------
# fitting


def _validate_minisequences(minisequences):
    seqs = [np.asarray(s, dtype=float) for s in minisequences]
    if not seqs:
        raise EmptyTrainingSet("no training minisequences")
    dim = seqs[0].shape[-1]
    for s in seqs:
        if s.ndim != 2 or s.shape[1] != dim:
            raise InvalidDimension(
                f"minisequences must all be (length, {dim}), got {s.shape}")
    return seqs, dim


def _expand_all(pca, expansion, seqs):
    return [expansion.expand(pca.transform(s)) for s in seqs]


def _diff_covariance(h_seqs):
    """Mean outer product of within-minisequence forward differences."""
    diffs = [s[1:] - s[:-1] for s in h_seqs if s.shape[0] >= 2]
    dim = h_seqs[0].shape[1]
    if not diffs:
        return np.zeros((dim, dim)), 0
    d = np.vstack(diffs)
    return linalg._symmetrize(d.T @ d / d.shape[0]), d.shape[0]


def _solve_model(objective, constraint, h0, pca, expansion, k, rel_cutoff,
                 strategy, class_label=None, region_label=None, gamma=None,
                 what="training set"):
    if np.abs(objective).max() == 0.0:
        raise InsufficientRank(
            f"{what}: derivative covariance is identically zero "
            "(data constant in time)")
    eig = linalg.gen_eig_sym(objective, constraint, rel_cutoff)
    available = eig.eigenvalues.shape[0]
    if available < k:
        raise InsufficientRank(
            f"{what}: {k} slow features requested but only {available} "
            "directions survive the rank cutoff")
    return SlowFeatureModel(
        pca=pca,
        expansion=expansion,
        h0=h0,
        w=eig.eigenvectors[:, :k].copy(),
        eigenvalues=eig.eigenvalues[:k].copy(),
        strategy=strategy,
        class_label=class_label,
        region_label=region_label,
        gamma=gamma,
    )


def _check_k(k):
    if k < 1:
        raise InvalidDimension(f"k must be >= 1, got {k}")


def fit_usfa(minisequences, pca_dim: int, k: int,
             rel_cutoff: float = linalg.DEFAULT_REL_CUTOFF,
             expansion: str = "quadratic") -> ModelBank:
    """Fit one unsupervised slow feature model on all minisequences.

    Pipeline: PCA to ``pca_dim`` on the union of all vectors, expand,
    center by the global expanded mean, then solve the generalized
    eigenproblem of the derivative covariance against the covariance.
    The ``k`` smallest eigenvalues and their B-normalized eigenvectors
    become the model; each eigenvalue equals the mean squared derivative
    of its output on the training data.
    """
    _check_k(k)
    seqs, _ = _validate_minisequences(minisequences)
    pca = linalg.pca_fit(np.vstack(seqs), pca_dim)
    spec = ExpansionSpec(expansion, pca_dim)
    h_seqs = _expand_all(pca, spec, seqs)
    h0, b, a, _, _ = linalg.sequence_moments(h_seqs)
    model = _solve_model(a, b, h0, pca, spec, k, rel_cutoff, "usfa")
    return ModelBank("usfa", (model,))


def _group_by_class(seqs, labels):
    labels = [int(l) for l in labels]
    if len(labels) != len(seqs):
        raise InvalidDimension(
            f"{len(seqs)} minisequences but {len(labels)} labels")
    groups: dict[int, list] = {}
    for s, l in zip(seqs, labels):
        groups.setdefault(l, []).append(s)
    return {c: groups[c] for c in sorted(groups)}


def fit_ssfa(minisequences, labels, pca_dim: int, k_per_class: int,
             rel_cutoff: float = linalg.DEFAULT_REL_CUTOFF,
             expansion: str = "quadratic") -> ModelBank:
    """Fit one slow feature model per class on that class's data alone.

    PCA is shared (fit on the union of all classes); the expanded mean,
    covariance and derivative covariance are all per-class, so the
    zero-mean / unit-variance / decorrelation constraints hold on each
    class's own training data.  With a single class this reduces to
    ``fit_usfa`` on that class.
    """
    _check_k(k_per_class)
    seqs, _ = _validate_minisequences(minisequences)
    groups = _group_by_class(seqs, labels)
    for c, group in groups.items():
        if len(group) < 2:
            raise InsufficientClassData(
                f"class {c} has {len(group)} minisequences, need at least 2")
    pca = linalg.pca_fit(np.vstack(seqs), pca_dim)
    spec = ExpansionSpec(expansion, pca_dim)
    models = []
    for c, group in groups.items():
        h_seqs = _expand_all(pca, spec, group)
        h0, b, a, _, _ = linalg.sequence_moments(h_seqs)
        models.append(_solve_model(
            a, b, h0, pca, spec, k_per_class, rel_cutoff,
            "ssfa", class_label=c, what=f"class {c}"))
    return ModelBank("ssfa", tuple(models))


def _fit_discriminative(groups, pca, spec, k_per_class, gamma, rel_cutoff,
                        strategy, region_label=None, cell=""):
    """Shared core of the discriminative fits.

    For each class c the objective is A_c - gamma * mean of the other
    classes' derivative covariances (each class's covariance already
    normalized by its own difference count, so classes pool with equal
    weight).  Centering and the constraint covariance come from the
    union of all classes.
    """
    h_by_class = {c: _expand_all(pca, spec, g) for c, g in groups.items()}
    all_h = [s for g in h_by_class.values() for s in g]
    h0, b, _, _, _ = linalg.sequence_moments(all_h)

    diff_cov = {}
    for c, h_seqs in h_by_class.items():
        a_c, count = _diff_covariance(h_seqs)
        if count == 0:
            raise InsufficientClassData(
                f"class {c}{cell} has no within-minisequence differences")
        diff_cov[c] = a_c

    classes = sorted(groups)
    models = []
    for c in classes:
        others = [diff_cov[o] for o in classes if o != c]
        pooled = sum(others) / len(others)
        objective = linalg._symmetrize(diff_cov[c] - gamma * pooled)
        models.append(_solve_model(
            objective, b, h0, pca, spec, k_per_class, rel_cutoff,
            strategy, class_label=c, region_label=region_label, gamma=gamma,
            what=f"class {c}{cell}"))
    return models


def fit_dsfa(minisequences, labels, pca_dim: int, k_per_class: int,
             gamma: float = DEFAULT_GAMMA,
             rel_cutoff: float = linalg.DEFAULT_REL_CUTOFF,
             expansion: str = "quadratic") -> ModelBank:
    """Fit one discriminative slow feature model per class.

    Class c minimizes its own mean squared derivative while maximizing
    (weight ``gamma``) the pooled mean squared derivative of all other
    classes, under constraints taken over the union of classes.  The
    objective matrix may be indefinite; negative eigenvalues are valid
    and sort first.  ``gamma = 0`` reduces to per-class slowness with
    union constraints.
    """
    _check_k(k_per_class)
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    seqs, _ = _validate_minisequences(minisequences)
    groups = _group_by_class(seqs, labels)
    if len(groups) < 2:
        raise InsufficientClassData(
            f"dsfa needs at least 2 classes, got {len(groups)}")
    for c, group in groups.items():
        if len(group) < 2:
            raise InsufficientClassData(
                f"class {c} has {len(group)} minisequences, need at least 2")
    pca = linalg.pca_fit(np.vstack(seqs), pca_dim)
    spec = ExpansionSpec(expansion, pca_dim)
    models = _fit_discriminative(
        groups, pca, spec, k_per_class, gamma, rel_cutoff, "dsfa")
    return ModelBank("dsfa", tuple(models))


def fit_sdsfa(minisequences, labels, regions, grid, pca_dim: int,
              k_per_class: int, gamma: float = DEFAULT_GAMMA,
              rel_cutoff: float = linalg.DEFAULT_REL_CUTOFF,
              expansion: str = "quadratic") -> ModelBank:
    """Fit discriminative models independently inside each spatial region.

    ``regions`` assigns each minisequence a region index in
    ``[0, grid_x * grid_y)``; the bank holds one model per
    (region, class) pair, ordered region-major then class-minor.  PCA is
    fit once on the union of everything.  With a (1, 1) grid this is
    exactly ``fit_dsfa``.
    """
    _check_k(k_per_class)
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    gx, gy = int(grid[0]), int(grid[1])
    if gx < 1 or gy < 1:
        raise InvalidDimension(f"bad grid {grid}")
    n_regions = gx * gy
    seqs, _ = _validate_minisequences(minisequences)
    labels = [int(l) for l in labels]
    regions = [int(r) for r in regions]
    if len(labels) != len(seqs) or len(regions) != len(seqs):
        raise InvalidDimension("labels and regions must match minisequences")
    for r in regions:
        if not 0 <= r < n_regions:
            raise InvalidDimension(f"region index {r} outside grid {grid}")

    classes = sorted(set(labels))
    if len(classes) < 2:
        raise InsufficientClassData(
            f"sdsfa needs at least 2 classes, got {len(classes)}")
    cells: dict[tuple[int, int], list] = {}
    for s, c, r in zip(seqs, labels, regions):
        cells.setdefault((r, c), []).append(s)
    for r in range(n_regions):
        for c in classes:
            if len(cells.get((r, c), ())) < 2:
                raise InsufficientClassData(
                    f"cell (class {c}, region {r}) has "
                    f"{len(cells.get((r, c), ()))} minisequences, need at least 2")

    pca = linalg.pca_fit(np.vstack(seqs), pca_dim)
    spec = ExpansionSpec(expansion, pca_dim)
    models = []
    for r in range(n_regions):
        groups = {c: cells[(r, c)] for c in classes}
        models.extend(_fit_discriminative(
            groups, pca, spec, k_per_class, gamma, rel_cutoff,
            "sdsfa", region_label=r, cell=f", region {r}"))
    return ModelBank("sdsfa", tuple(models), grid=(gx, gy))
