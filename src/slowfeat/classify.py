"""Linear multiclass classification and evaluation metrics.

The classifier is the paper's linear SVM: per class, one-vs-rest, the
minimum of reg/2 (|w|^2 + b^2) plus the mean squared hinge, found by
finite Newton steps until every gradient norm is at most 1e-6 of its
value at zero or ``epochs`` steps are taken (see ``train_linear``).
Evaluation helpers cover majority voting over per-snippet labels,
frame accuracy, confusion matrices and Fisher scores; the class
selectivity of ASD features is ``features.selectivity``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyInput,
    EmptyTrainingSet,
    InvalidDimension,
    InvalidInput,
    SingleClass,
    whole_numbers,
)

# ASD features are unit L1 norm, so hinge margins need far larger
# weights than a regularizer of order 1 allows
DEFAULT_REG = 1e-3
DEFAULT_EPOCHS = 100
_FISHER_EPS = 1e-12
# the solver's tolerances and caps, as train_linear states them
_TOL = 1e-6
_CG_TOL = 0.1
_CG_STEPS = 100
_ARMIJO = 0.01
_HALVINGS = 30


@dataclass(frozen=True)
class LinearClassifier:
    """One-vs-rest linear scorer: one weight row and bias per class."""

    weights: np.ndarray      # (C, D)
    biases: np.ndarray       # (C,)
    class_labels: tuple

    def __post_init__(self):
        if self.weights.ndim != 2 or self.weights.shape[0] < 2:
            raise InvalidDimension("need a (C, D) weight matrix with C >= 2")
        if self.biases.shape != (self.weights.shape[0],):
            raise InvalidDimension("one bias per class required")
        if len(self.class_labels) != self.weights.shape[0]:
            raise InvalidDimension("one label per class required")
        if len(set(self.class_labels)) != len(self.class_labels):
            raise InvalidInput(
                f"class labels {self.class_labels} repeat a label")
        if not (np.isfinite(self.weights).all()
                and np.isfinite(self.biases).all()):
            raise InvalidInput("classifier parameters must be finite")

    @property
    def dim(self):
        return self.weights.shape[1]


def _check_training_data(features, labels):
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels)
    if x.ndim != 2:
        raise InvalidDimension("features must be a 2-D sample matrix")
    if y.shape != (x.shape[0],):
        raise InvalidDimension(
            f"{x.shape[0]} samples but {y.shape} labels")
    if x.shape[0] == 0:
        raise EmptyTrainingSet("no training samples")
    classes = np.unique(y)
    if classes.size < 2:
        raise SingleClass("training data must contain at least 2 classes")
    return x, y, classes


def train_linear(features, labels, reg=DEFAULT_REG, epochs=DEFAULT_EPOCHS):
    """Fit a one-vs-rest linear SVM with the squared hinge loss.

    Class c's sign s_i is +1 on its rows and -1 on the others, and its
    model z = (w, b) minimizes

        f(z) = reg/2 (|w|^2 + b^2) + mean_i max(0, 1 - s_i (w . x_i + b))^2

    with the bias regularized as a feature of value 1 (LIBLINEAR's
    L2-loss SVM with B = 1).  f is strictly convex, so its minimum is
    unique.  It is found by finite Newton (Keerthi & DeCoste, JMLR
    2005) from z = 0, all classes at once.  A step solves H d = -grad f
    for the generalized Hessian H = reg I + (2/n) sum (x_i, 1)(x_i, 1)^T
    over the rows of margin below 1, by conjugate gradients
    preconditioned with H's diagonal over all rows, reg + (2/n)
    sum_i x_ij^2, to a residual of ``_CG_TOL`` |grad f| or at most
    ``_CG_STEPS`` steps; a product with H is two matrix products with
    the features.  Armijo backtracking halves each class's step length
    from 1, at most ``_HALVINGS`` times, until f falls by ``_ARMIJO`` of
    the decrease its slope predicts.  Training stops when |grad f| <=
    ``_TOL`` |grad f(0)| for every class, when no class can step, or
    after ``epochs`` Newton steps, so ``epochs`` is a cap.  Working
    memory beyond the features is a few (n, C) arrays.  There is no
    randomness: results are bit-deterministic.
    """
    x, y, classes = _check_training_data(features, labels)
    if isinstance(reg, bool) or not isinstance(reg, numbers.Real) or not (
            0 < reg < np.inf):
        raise InvalidInput(f"reg must be a finite real > 0, got {reg!r}")
    epochs = int(whole_numbers(epochs, InvalidInput, f"epochs {epochs!r}",
                               low=1, shape=()))
    n, dim = x.shape
    signs = np.where(y[:, None] == classes[None, :], 1.0, -1.0)  # (n, C)
    # NaN, inf and squares past float64's range all make diag non-finite
    diag = np.append(reg + 2.0 / n * np.einsum("ij,ij->j", x, x), reg + 2.0)
    if not np.isfinite(diag).all():
        raise InvalidInput(
            "features must be finite, with squares that do not overflow")

    # a (C, D) by (D, n) product keeps OpenBLAS's packing buffers
    # small: x @ w.T grew the peak RSS of a 3,240 x 480 fit by 6 MB
    def scores(v):      # (n, C): (x_i, 1) . v_c
        return (v[:, :dim] @ x.T).T + v[:, dim]

    def gather(q):      # (C, D + 1): sum_i q_ic (x_i, 1)
        return np.hstack([q.T @ x, q.sum(axis=0)[:, None]])

    def objective(margins, v):
        hinge = np.maximum(0.0, 1.0 - margins)
        return 0.5 * reg * (v * v).sum(axis=1) + (hinge * hinge).mean(axis=0)

    z = np.zeros((classes.size, dim + 1))             # [w | b] per class
    # at z = 0 every margin is 0
    limits = _TOL * np.linalg.norm(2.0 / n * gather(signs), axis=1)
    for _ in range(epochs):
        margins = signs * scores(z)
        active = margins < 1.0
        hinge = np.maximum(0.0, 1.0 - margins)
        grad = reg * z - 2.0 / n * gather(signs * hinge)
        norms = np.linalg.norm(grad, axis=1)
        live = norms > limits
        if not live.any():
            break
        # conjugate gradients on H d = -grad for the live classes
        d = np.zeros_like(z)
        r = -grad * live[:, None]
        u = r / diag
        p = u
        ru = (r * u).sum(axis=1)
        for _ in range(_CG_STEPS):
            going = np.linalg.norm(r, axis=1) > _CG_TOL * norms
            if not going.any():
                break
            hp = reg * p + 2.0 / n * gather(active * scores(p))
            alpha = np.divide(ru, (p * hp).sum(axis=1),
                              out=np.zeros_like(ru), where=going)
            d += alpha[:, None] * p
            r -= alpha[:, None] * hp
            u = r / diag
            ru, last = (r * u).sum(axis=1), ru
            beta = np.divide(ru, last, out=np.zeros_like(ru), where=going)
            p = u + beta[:, None] * p
        # Armijo backtracking: one step length per class
        moved = signs * scores(d)
        now = objective(margins, z)
        slope = _ARMIJO * (grad * d).sum(axis=1)
        t = live.astype(float)
        for _ in range(_HALVINGS):
            ok = objective(margins + t * moved,
                           z + t[:, None] * d) <= now + t * slope
            if ok.all():
                break
            t[~ok] /= 2.0
        t[~ok] = 0.0
        if not t.any():
            break
        z += t[:, None] * d
    return LinearClassifier(z[:, :dim].copy(), z[:, dim].copy(),
                            tuple(classes.tolist()))


def predict_many(clf: LinearClassifier, features):
    """Label of the highest-scoring class for each row of ``features``;
    ties go to the lowest class index."""
    x = np.asarray(features, dtype=float)
    if x.ndim != 2 or x.shape[1] != clf.dim:
        raise InvalidDimension(
            f"classifier expects (n, {clf.dim}), got {x.shape}")
    idx = np.argmax(x @ clf.weights.T + clf.biases, axis=1)
    labels = np.asarray(clf.class_labels)
    return labels[idx]


def majority_vote(frame_labels):
    """Most frequent label; ties go to the lowest label."""
    arr = np.asarray(frame_labels)
    if arr.size == 0:
        raise EmptyInput("majority_vote needs at least one label")
    values, counts = np.unique(arr, return_counts=True)
    return values[int(np.argmax(counts))].item()


def frame_accuracy(predicted, truth):
    """Fraction of positions where the labels agree."""
    p = np.asarray(predicted)
    t = np.asarray(truth)
    if p.shape != t.shape or p.ndim != 1:
        raise InvalidInput(f"label sequences differ: {p.shape} vs {t.shape}")
    if p.size == 0:
        raise InvalidInput("cannot score empty label sequences")
    return float((p == t).mean())


@dataclass(frozen=True)
class ConfusionMatrix:
    """Rows are predicted classes, columns are true classes."""

    counts: np.ndarray       # (C, C) ints
    class_labels: tuple

    def __post_init__(self):
        c = len(self.class_labels)
        if self.counts.shape != (c, c):
            raise InvalidDimension("counts must be square over the labels")
        if (self.counts < 0).any():
            raise InvalidInput("counts must be nonnegative")

    @property
    def total(self):
        return int(self.counts.sum())

    @property
    def accuracy(self):
        if self.total == 0:
            return 0.0
        return float(np.trace(self.counts)) / self.total

    def render(self) -> str:
        labels = [str(l) for l in self.class_labels]
        width = max(6, max(len(l) for l in labels) + 1)
        head = "pred\\true".ljust(width) + "".join(
            l.rjust(width) for l in labels)
        lines = [head]
        for i, l in enumerate(labels):
            row = l.ljust(width) + "".join(
                str(int(v)).rjust(width) for v in self.counts[i])
            lines.append(row)
        return "\n".join(lines)


def confusion_matrix(predicted, truth, class_labels) -> ConfusionMatrix:
    """Tally predicted-vs-true label pairs over ``class_labels``.

    Column sums equal the per-class instance counts, so trace/total is
    the plain accuracy.
    """
    p = np.asarray(predicted)
    t = np.asarray(truth)
    if p.shape != t.shape or p.ndim != 1:
        raise InvalidInput(f"label sequences differ: {p.shape} vs {t.shape}")
    labels = list(class_labels)
    index = {label: i for i, label in enumerate(labels)}
    counts = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for pi, ti in zip(p.tolist(), t.tolist()):
        if pi not in index or ti not in index:
            raise InvalidInput(f"label pair ({pi}, {ti}) outside class set")
        counts[index[pi], index[ti]] += 1
    return ConfusionMatrix(counts, tuple(labels))


def fisher_score(features, labels):
    """Between-class over within-class variance, per feature dimension.

    Between is the variance of the class means (ddof=1); within is the
    mean per-class population variance.  For two classes this reduces
    to (mu1 - mu2)^2 / (sigma1^2 + sigma2^2).  Returns (scores, mean).
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise InvalidDimension("features must be (n, D) with one label each")
    classes = np.unique(y)
    if classes.size < 2:
        raise SingleClass("fisher_score needs at least 2 classes")
    means = np.stack([x[y == c].mean(axis=0) for c in classes])
    within = np.stack([x[y == c].var(axis=0) for c in classes]).mean(axis=0)
    between = means.var(axis=0, ddof=1)
    per_dim = between / (within + _FISHER_EPS)
    return per_dim, float(per_dim.mean())
