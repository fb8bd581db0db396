"""Linear multiclass classification and evaluation metrics.

The classifier is a one-vs-rest hinge-loss linear model trained by
averaged Pegasos (Shalev-Shwartz, Singer, Srebro, ICML 2007): seeded
stochastic subgradient steps with step size 1/(reg t), the returned
model being the mean of all iterates, which keeps training fully
deterministic and self-contained.  ``train_linear`` states the exact
update and how it is computed: in blocks of steps with a few matrix
products each, a block's steps being the fixed point of one small
product, iterated from a guess.  Evaluation helpers
cover majority voting over per-snippet labels, frame accuracy,
confusion matrices and Fisher scores; the class selectivity of ASD
features is ``features.selectivity``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyInput,
    EmptyTrainingSet,
    InvalidDimension,
    InvalidInput,
    SingleClass,
)

DEFAULT_REG = 1.0
DEFAULT_EPOCHS = 50
_FISHER_EPS = 1e-12
# Pegasos steps per block: a block costs a few matrix products and at
# most one iteration (a small product and a threshold) per step
_BLOCK = 24
# the entries of a block's Gram matrix that do not pair a step with an
# earlier one: the diagonal and above
_NOT_EARLIER = ~np.tri(_BLOCK, k=-1, dtype=bool)


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
    if not np.isfinite(x).all():
        raise InvalidInput("features must be finite")
    classes = np.unique(y)
    if classes.size < 2:
        raise SingleClass("training data must contain at least 2 classes")
    return x, y, classes


def train_linear(features, labels, reg=DEFAULT_REG, epochs=DEFAULT_EPOCHS,
                 seed=0):
    """Fit a one-vs-rest hinge-loss classifier by averaged Pegasos.

    Every epoch visits the n samples in a fresh seeded permutation.
    Visit t = 1..T (T = epochs * n) of a sample x, whose sign vector s
    is +1 for its class and -1 for every other, makes one step for all
    C classes at once, with indicator a_c = [s_c (w_c . x + b_c) < 1]
    taken against the previous iterate:

        w_c <- (1 - 1/t) w_c + a_c s_c x / (reg t)
        b_c <- b_c + a_c s_c / (reg t)

    from w = b = 0, so step 1 violates every class.  The bias is not
    shrunk.  The returned model is the mean of all T iterates (w, b).

    The steps are not made one at a time.  The rescaled iterate
    v_t = t w_t obeys v_t = v_{t-1} + a s x / reg with no shrink, and
    step t's test reads s (v_{t-1} . x + (t-1) b_{t-1}) < t - 1 (< 1 at
    t = 1).  Steps go in blocks of ``_BLOCK``: one matrix product gives
    every block step's margin against the state at block start, one the
    block's Gram matrix, through which the steps made earlier in the
    block enter, and one product per block adds the recorded steps
    g = a s to the state.  A block's steps are the fixed point of one
    map: every step's margin is its block-start margin plus the strictly
    lower Gram block times the steps, and its g the threshold of that.
    Iterated from the guesses that the block-start margins give, each
    product makes one more leading step final, since row j of the
    strictly lower block reads only the steps before j; so the fixed
    point is unique and is reached in at most ``_BLOCK`` products
    (about 3 on the benchmark inputs).  The margins feed only the
    decisions, so the steps are the one-at-a-time loop's unless a
    margin lies within rounding of its limit.

    The means follow from the recorded steps: step k adds
    g_k x_k / reg to every later v_t, so
    sum_t w_t = sum_k g_k x_k / reg * sum_{t=k..T} 1/t and
    sum_t b_t = sum_k g_k (T - k + 1) / (reg k).  Results match the
    step-by-step form up to rounding (about 1e-14 relative on benchmark
    inputs).  Working memory beyond the features is O(``_BLOCK`` * D)
    plus a few vectors of length T.  Bit-deterministic given seed.
    """
    x, y, classes = _check_training_data(features, labels)
    if not (np.isfinite(reg) and reg > 0):
        raise InvalidInput("reg must be positive and finite")
    if epochs < 1:
        raise InvalidInput("epochs must be >= 1")
    n, dim = x.shape
    c = classes.size
    signs = np.where(y[:, None] == classes[None, :], 1.0, -1.0)  # (n, C)
    total = n * epochs
    # sum_{t=k..T} 1/t for every step k, added from the small end
    tails = np.cumsum(1.0 / np.arange(total, 0.0, -1.0))[::-1]

    rng = np.random.default_rng(seed)
    # state, sums and limits all carry a factor reg, which cancels
    state = np.zeros((c, dim + 1))    # reg * [v | b]
    w_sum = np.zeros((c, dim + 1))    # reg * sum_t w_t, first dim columns
    b_sum = np.zeros(c)               # reg * sum_t b_t
    for epoch in range(epochs):
        t = np.arange(epoch * n + 1.0, (epoch + 1) * n + 1.0)
        limits = reg * np.maximum(t - 1.0, 1.0)
        bias_weights = (total + 1.0 - t) / t
        epoch_tails = tails[epoch * n:(epoch + 1) * n]
        order = rng.permutation(n)
        for lo in range(0, n, _BLOCK):
            rows = order[lo:lo + _BLOCK]
            m = rows.size
            steps = slice(lo, lo + m)
            probe = np.empty((m, dim + 1))          # [x | t - 1]
            probe[:, :dim] = x[rows]
            probe[:, dim] = t[steps] - 1.0
            update = probe.copy()                   # [x | 1 / t]
            update[:, dim] = 1.0 / t[steps]
            # step j's margin is start[j] plus row j of the strictly
            # lower Gram block times the steps made before it
            gram = probe @ update.T
            gram[_NOT_EARLIER[:m, :m]] = 0.0
            start = probe @ state.T
            s = signs[rows]
            limit = limits[steps, None]
            # iterate from the block-start guesses to the fixed point;
            # each product makes one more leading step final
            g = s * (s * start < limit)
            while True:
                new = s * (s * (gram @ g + start) < limit)
                if (new == g).all():
                    break
                g = new
            state += g.T @ update
            w_sum += (g * epoch_tails[steps, None]).T @ update
            b_sum += g.T @ bias_weights[steps]
    scale = reg * total
    return LinearClassifier(w_sum[:, :dim] / scale, b_sum / scale,
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
