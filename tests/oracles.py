"""Independent reference implementations used only by the test suite.

Everything here is deliberately written the slow, obvious way and kept
separate from the package code paths: the Jacobi eigensolver below never
calls LAPACK, the covariance oracle uses explicit Python loops, and the
Sobel oracle walks pixels one by one.  The per-model feature oracle is
the evaluation the package used before banks were evaluated in one
pass: every model reformats, projects and expands the cuboids itself.
Tests compare package output against these.
"""

import math

import numpy as np

from slowfeat import cuboid, sfa


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
    """Cuboid objects for one snippet, picked and cut one at a time."""
    h, w, d = size
    frames = np.asarray(frames, dtype=float)
    height, width = frames.shape[1], frames.shape[2]
    ys, xs = np.nonzero(mask)
    if ys.size == 0:
        return []
    rng = np.random.default_rng(rng_seed)
    count = math.ceil(fraction * ys.size)
    picks = rng.choice(ys.size, size=count, replace=False)
    out = []
    for i in picks:
        y, x = int(ys[i]), int(xs[i])
        y0, x0 = y - h // 2, x - w // 2
        if y0 < 0 or x0 < 0 or y0 + h > height or x0 + w > width:
            continue
        out.append(cuboid.Cuboid(
            x=x, y=y, t=start,
            data=frames[start:start + d, y0:y0 + h, x0:x0 + w].copy()))
    return out


def _model_squared_derivatives(cuboids, model):
    """One model's mean squared output differences on same-shaped cuboids."""
    delta_t = model.input_dim // (cuboids[0].h * cuboids[0].w)
    stacked = np.stack([cuboid.reformat(c, delta_t) for c in cuboids])
    n, length, dim = stacked.shape
    y = sfa.apply(model, stacked.reshape(n * length, dim))
    dy = np.diff(y.reshape(n, length, -1), axis=1)
    dy[(stacked[:, 1:] == stacked[:, :-1]).all(axis=2)] = 0.0
    return (dy * dy).mean(axis=1)


def per_model_squared_derivatives(cuboids, bank):
    """(n, k_total) squared derivatives, one model at a time.

    Rows follow the input order.  For an sdsfa bank a cuboid is scored
    only by the models of its own region; other columns stay zero.
    """
    out = np.zeros((len(cuboids), bank.k_total))
    offset = 0
    for model in bank.models:
        idx = [i for i, c in enumerate(cuboids)
               if bank.strategy != "sdsfa"
               or c.region_label == model.region_label]
        if idx:
            out[idx, offset:offset + model.k] = _model_squared_derivatives(
                [cuboids[i] for i in idx], model)
        offset += model.k
    return out


def per_model_asd(cuboids, bank):
    """ASD values of a snippet as (values, normalized), per model.

    Cuboids are summed in (t, y, x) order; a zero sum stays
    unnormalized.
    """
    ordered = sorted(cuboids, key=lambda c: (c.t, c.y, c.x))
    values = per_model_squared_derivatives(ordered, bank).sum(axis=0)
    total = float(values.sum())
    if total > 0.0:
        return values / total, True
    return values, False
