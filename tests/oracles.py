"""Independent reference implementations used only by the test suite.

Everything here is deliberately written the slow, obvious way and kept
separate from the package code paths: the Jacobi eigensolver below never
calls LAPACK, the covariance oracle uses explicit Python loops, and the
Sobel oracle walks pixels one by one; ``tap_loop_gradient_magnitude``
is the stacked Sobel pass the package used before it added and
subtracted its taps instead of multiplying them.  The per-model feature oracle is
the evaluation the package used before banks were evaluated in one
pass: every model reformats, projects and expands the cuboids itself,
one cuboid at a time.  ``scores``/``predict`` are the per-row dot
products the package's classifier once exposed for single features.
The Pegasos oracle is the classifier loop the package used before steps
were taken in blocks: one shrink and one update of the (C, D) iterate
per step, and the iterate added to a running sum at every step;
``stepwise_blocked_pegasos`` is the blocked loop the package used
before a block's steps were solved as a fixed point: the same blocks,
state and sums, with one vector-matrix product per step.
``hinge_objective`` is the objective both minimize.  ``centered_pca`` is
PCA as the package fitted it before covariances came from merged
moments: from one centered copy of all the rows.
``sym_eig_route_gen_eig`` is the generalized solve as the package took
it before it solved the whitened matrix with ``np.linalg.eigh``
directly: through the public ``linalg.sym_eig``, which checks,
symmetrizes and sign-fixes that matrix again.
Tests compare package output against these.
"""

import math

import numpy as np

from slowfeat import classify, cuboid, linalg, sfa


def jacobi_eig(m, tol=1e-12, max_sweeps=100):
    """Cyclic Jacobi rotations for a symmetric matrix.

    Returns (eigenvalues ascending, eigenvector columns).  Convergence:
    off-diagonal Frobenius norm below ``tol`` times the Frobenius norm
    of the input.
    """
    a = np.array(m, dtype=float)
    n = a.shape[0]
    v = np.eye(n)
    scale = math.sqrt(float((a * a).sum()))
    if scale == 0.0:
        return np.zeros(n), v
    for _ in range(max_sweeps):
        off = a - np.diag(np.diag(a))
        if math.sqrt(float((off * off).sum())) <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    values = np.diag(a).copy()
    order = np.argsort(values, kind="stable")
    return values[order], v[:, order]


def brute_force_gen_eig_values(a, b):
    """Eigenvalues of b^{-1} a via explicit inverse, sorted ascending."""
    vals = np.linalg.eigvals(np.linalg.inv(np.asarray(b, float)) @ np.asarray(a, float))
    return np.sort(vals.real)


def loop_moments(minisequences):
    """Covariance pair computed with explicit loops and outer products."""
    vectors = [np.asarray(v, float) for s in minisequences for v in s]
    n = len(vectors)
    dim = vectors[0].shape[0]
    mean = np.zeros(dim)
    for v in vectors:
        mean = mean + v
    mean = mean / n

    b = np.zeros((dim, dim))
    for v in vectors:
        z = v - mean
        b = b + np.outer(z, z)
    b = b / n

    a = np.zeros((dim, dim))
    count_a = 0
    for s in minisequences:
        s = np.asarray(s, float)
        for t in range(len(s) - 1):
            dz = s[t + 1] - s[t]
            a = a + np.outer(dz, dz)
            count_a += 1
    if count_a:
        a = a / count_a
    return mean, b, a, n, count_a


def sym_eig_route_gen_eig(a, b):
    """(eigenvalues, eigenvectors) of ``a W = b W diag(lam)`` by
    whitening, with the whitened matrix solved by ``linalg.sym_eig``
    and the signs fixed again on ``S V``."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    d, u = np.linalg.eigh((b + b.T) / 2.0)
    kept = d >= linalg.REL_CUTOFF * d.max()
    s = u[:, kept] / np.sqrt(d[kept])
    m = s.T @ a @ s
    inner = linalg.sym_eig((m + m.T) / 2.0)
    vectors = s @ inner.eigenvectors
    picked = vectors[np.abs(vectors).argmax(axis=0),
                     np.arange(vectors.shape[1])]
    return inner.eigenvalues, vectors * np.where(picked < 0.0, -1.0, 1.0)


def centered_pca(data, out_dim):
    """(mean, projection, explained eigenvalues) of PCA on the rows of
    ``data``, from the sample covariance of one centered copy."""
    data = np.asarray(data, dtype=float)
    n, in_dim = data.shape
    mean = data.mean(axis=0)
    centered = data - mean
    cov = centered.T @ centered / (n - 1)
    res = linalg.sym_eig((cov + cov.T) / 2.0)
    idx = np.arange(in_dim - 1, in_dim - 1 - out_dim, -1)
    return mean, res.eigenvectors[:, idx].T, res.eigenvalues[idx]


def loop_sobel_magnitude(frame):
    """3x3 Sobel gradient magnitude with explicit pixel loops.

    Border pixels, where the kernel does not fit, stay zero.
    """
    f = np.asarray(frame, float)
    h, w = f.shape
    kx = [[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]]
    out = np.zeros((h, w))
    for y in range(1, h - 1):
        for x in range(1, w - 1):
            gx = 0.0
            gy = 0.0
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    gx += kx[dy + 1][dx + 1] * f[y + dy, x + dx]
                    gy += kx[dx + 1][dy + 1] * f[y + dy, x + dx]
            out[y, x] = math.hypot(gx, gy)
    return out


def tap_loop_gradient_magnitude(frames):
    """``cuboid.gradient_magnitude`` as it multiplied every nonzero
    Sobel tap into a buffer before adding it, taps in (dy, dx) order."""
    f = np.asarray(frames, dtype=float)
    out = np.zeros_like(f)
    height, width = f.shape[-2:]
    if height < 3 or width < 3:
        return out
    gx = np.zeros(f.shape[:-2] + (height - 2, width - 2))
    gy = np.zeros_like(gx)
    tap = np.empty_like(gx)
    for dy in range(3):
        for dx in range(3):
            kx = cuboid.SOBEL_X[dy, dx]
            ky = cuboid.SOBEL_X[dx, dy]
            patch = f[..., dy:dy + height - 2, dx:dx + width - 2]
            if kx:
                gx += np.multiply(patch, kx, out=tap)
            if ky:
                gy += np.multiply(patch, ky, out=tap)
    gx *= gx
    gy *= gy
    gx += gy
    np.sqrt(gx, out=out[..., 1:-1, 1:-1])
    return out


def loop_delta(y):
    """Mean squared forward difference via a plain loop."""
    y = np.asarray(y, float)
    total = 0.0
    for t in range(len(y) - 1):
        total += (y[t + 1] - y[t]) ** 2
    return total / (len(y) - 1)


def loop_quadratic_expand(x):
    """Linear terms first, then x_i * x_j for i <= j in row-scan order."""
    x = np.asarray(x, float)
    out = list(x)
    for i in range(len(x)):
        for j in range(i, len(x)):
            out.append(x[i] * x[j])
    return np.array(out)


def loop_snippet_cuboids(frames, mask, start, fraction, size, rng_seed):
    """One snippet's cuboids, picked and cut one at a time.

    Returns the (n, 3) ``(t, y, x)`` origins and the (n, d, h, w) data.
    """
    h, w, d = size
    frames = np.asarray(frames, dtype=float)
    height, width = frames.shape[1], frames.shape[2]
    positions, data = [], []
    ys, xs = np.nonzero(mask)
    if ys.size:
        rng = np.random.default_rng(rng_seed)
        count = math.ceil(fraction * ys.size)
        for i in rng.choice(ys.size, size=count, replace=False):
            y, x = int(ys[i]), int(xs[i])
            y0, x0 = y - h // 2, x - w // 2
            if y0 < 0 or x0 < 0 or y0 + h > height or x0 + w > width:
                continue
            positions.append((start, y, x))
            data.append(frames[start:start + d, y0:y0 + h, x0:x0 + w].copy())
    return (np.array(positions, dtype=int).reshape(-1, 3),
            np.array(data).reshape(-1, d, h, w))


def loop_reformat(data, delta_t):
    """Rows of one (d, h, w) cuboid: patches t .. t + delta_t - 1, each
    flattened row-major, concatenated for every t."""
    flat = [patch.ravel() for patch in np.asarray(data, float)]
    return np.array([np.concatenate(flat[t:t + delta_t])
                     for t in range(len(flat) - delta_t + 1)])


def _model_squared_derivatives(block, model):
    """One model's mean squared output differences on (n, d, h, w) cuboids."""
    delta_t = model.pca.in_dim // (block.shape[2] * block.shape[3])
    stacked = np.stack([loop_reformat(c, delta_t) for c in block])
    n, length, dim = stacked.shape
    y = sfa.apply(model, stacked.reshape(n * length, dim))
    dy = np.diff(y.reshape(n, length, -1), axis=1)
    dy[(stacked[:, 1:] == stacked[:, :-1]).all(axis=2)] = 0.0
    return (dy * dy).mean(axis=1)


def per_model_squared_derivatives(block, bank, regions=None):
    """(n, k_total) squared derivatives of (n, d, h, w) cuboids, one
    model at a time.

    Rows follow the input order.  For an sdsfa bank a cuboid is scored
    only by the models of its own region (``regions``); other columns
    stay zero.
    """
    out = np.zeros((len(block), bank.k_total))
    offset = 0
    for model in bank.models:
        idx = [i for i in range(len(block))
               if bank.strategy != "sdsfa"
               or regions[i] == model.region_label]
        if idx:
            out[idx, offset:offset + model.k] = _model_squared_derivatives(
                block[idx], model)
        offset += model.k
    return out


def per_model_asd(block, positions, bank, regions=None):
    """ASD values of a snippet as (values, normalized), per model.

    Cuboids are summed in the order of their ``(t, y, x)`` positions;
    a zero sum stays unnormalized.
    """
    order = sorted(range(len(block)), key=lambda i: tuple(positions[i]))
    values = per_model_squared_derivatives(
        block[order], bank,
        None if regions is None else np.asarray(regions)[order]).sum(axis=0)
    total = float(values.sum())
    if total > 0.0:
        return values / total, True
    return values, False


def scores(clf, feature):
    """Per-class decision values for one feature vector, one dot each."""
    x = np.asarray(feature, dtype=float)
    return np.array([np.dot(w, x) for w in clf.weights]) + clf.biases


def predict(clf, feature):
    """Label of the highest-scoring class; ties go to the lowest index."""
    return clf.class_labels[int(np.argmax(scores(clf, feature)))]


def per_step_pegasos(features, labels, reg, epochs, seed):
    """Averaged one-vs-rest Pegasos, one step at a time."""
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels)
    classes = np.unique(y)
    n, dim = x.shape
    c = classes.size
    signs = np.where(y[:, None] == classes[None, :], 1.0, -1.0)  # (n, C)

    rng = np.random.default_rng(seed)
    w = np.zeros((c, dim))
    b = np.zeros(c)
    w_sum = np.zeros_like(w)
    b_sum = np.zeros_like(b)
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(n):
            t += 1
            eta = 1.0 / (reg * t)
            xi = x[i]
            viol = signs[i] * (w @ xi + b) < 1.0
            w *= 1.0 - eta * reg
            if viol.any():
                w[viol] += (eta * signs[i, viol])[:, None] * xi
                b[viol] += eta * signs[i, viol]
            w_sum += w
            b_sum += b
    return classify.LinearClassifier(w_sum / t, b_sum / t,
                                     tuple(classes.tolist()))


def stepwise_blocked_pegasos(features, labels, reg, epochs, seed):
    """``classify.train_linear``'s blocks with their steps made one at a
    time: each step's margin is one vector-matrix product over the
    block's Gram row and its block-start margin."""
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels)
    classes = np.unique(y)
    n, dim = x.shape
    c = classes.size
    signs = np.where(y[:, None] == classes[None, :], 1.0, -1.0)  # (n, C)
    total = n * epochs
    tails = np.cumsum(1.0 / np.arange(total, 0.0, -1.0))[::-1]

    rng = np.random.default_rng(seed)
    state = np.zeros((c, dim + 1))
    w_sum = np.zeros((c, dim + 1))
    b_sum = np.zeros(c)
    for epoch in range(epochs):
        t = np.arange(epoch * n + 1.0, (epoch + 1) * n + 1.0)
        limits = (reg * np.maximum(t - 1.0, 1.0)).tolist()
        bias_weights = (total + 1.0 - t) / t
        epoch_tails = tails[epoch * n:(epoch + 1) * n]
        order = rng.permutation(n)
        for lo in range(0, n, classify._BLOCK):
            rows = order[lo:lo + classify._BLOCK]
            m = rows.size
            steps = slice(lo, lo + m)
            probe = np.empty((m, dim + 1))          # [x | t - 1]
            probe[:, :dim] = x[rows]
            probe[:, dim] = t[steps] - 1.0
            update = probe.copy()                   # [x | 1 / t]
            update[:, dim] = 1.0 / t[steps]
            # row j of mixed @ z is step j's margin: the Gram row
            # picks up the block's earlier steps, which z holds in its
            # first m rows, and the identity its margin at block start
            mixed = np.empty((m, 2 * m))
            np.matmul(probe, update.T, out=mixed[:, :m])
            mixed[:, m:] = np.eye(m)
            z = np.empty((2 * m, c))
            z[:m] = 0.0
            np.matmul(probe, state.T, out=z[m:])
            g = z[:m]
            for row, s, limit, gj in zip(mixed, signs[rows], limits[steps],
                                         g):
                np.multiply(s, s * (row @ z) < limit, out=gj)
            state += g.T @ update
            w_sum += (g * epoch_tails[steps, None]).T @ update
            b_sum += g.T @ bias_weights[steps]
    scale = reg * total
    return classify.LinearClassifier(w_sum[:, :dim] / scale, b_sum / scale,
                                     tuple(classes.tolist()))


def hinge_objective(clf, features, labels, reg=classify.DEFAULT_REG):
    """One-vs-rest objective: sum over classes of reg/2 ||w||^2 + mean hinge."""
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels)
    signs = np.where(
        y[:, None] == np.asarray(clf.class_labels)[None, :], 1.0, -1.0)
    margins = signs * (x @ clf.weights.T + clf.biases)
    hinge = np.maximum(0.0, 1.0 - margins).mean(axis=0)
    return float((0.5 * reg * (clf.weights ** 2).sum(axis=1) + hinge).sum())
