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
``dense_newton_svm`` minimizes ``classify.train_linear``'s
squared-hinge objective one class at a time by dense Newton steps: the
whole (D+1)^2 generalized Hessian solved by ``np.linalg.solve``, and
each step's length found by bisecting the objective's slope along it.
``squared_hinge_objective`` and ``squared_hinge_gradient`` are that
objective and its gradient, one entry or row per class.  ``centered_pca`` is
PCA as the package fitted it before covariances came from merged
moments: from one centered copy of all the rows.
``sym_eig_route_gen_eig`` is the generalized solve as the package took
it before it solved the whitened matrix with ``np.linalg.eigh``
directly: through a symmetric solver that symmetrized and sign-fixed
that matrix again, written out here with ``np.linalg.eigh`` and
``signed``.  ``sym_eig_route_pca`` is PCA as the package took it before
``pca_fit`` eigendecomposed its merged covariance directly: through
the same solver, which symmetrized the covariance first.  Neither
calls the package's eigensolver.
``pipeline_spec_for`` is each synthetic class's parameter draws as the
pipeline made them before ``synth`` owned its classes, and
``frame_loop_render`` renders a spec one frame at a time, as ``synth``
did before it drew every frame at once.
Tests compare package output against these.
"""

import math

import numpy as np

from slowfeat import classify, cuboid, linalg, pipeline, sfa, synth


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


def signed(vectors):
    """Each column flipped so its largest-magnitude entry (the first
    such row on a tie) is positive."""
    picked = vectors[np.abs(vectors).argmax(axis=0),
                     np.arange(vectors.shape[1])]
    return vectors * np.where(picked < 0.0, -1.0, 1.0)


def sym_eig(m):
    """(eigenvalues ascending, signed eigenvector columns) of the
    symmetrized ``m``."""
    values, vectors = np.linalg.eigh((m + m.T) / 2.0)
    return values, signed(vectors)


def sym_eig_route_gen_eig(a, b):
    """(eigenvalues, eigenvectors) of ``a W = b W diag(lam)`` by
    whitening, with the symmetrized whitened matrix solved by
    ``sym_eig`` and the signs fixed again on ``S V``."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    d, u = np.linalg.eigh((b + b.T) / 2.0)
    kept = d >= linalg.REL_CUTOFF * d.max()
    s = u[:, kept] / np.sqrt(d[kept])
    m = s.T @ a @ s
    values, vectors = sym_eig((m + m.T) / 2.0)
    return values, signed(s @ vectors)


def _top(cov, out_dim):
    """Leading ``out_dim`` (directions as rows, eigenvalues) of a
    covariance, largest first."""
    values, vectors = sym_eig(cov)
    idx = np.arange(len(cov) - 1, len(cov) - 1 - out_dim, -1)
    return vectors[:, idx].T, values[idx]


def centered_pca(data, out_dim):
    """(mean, projection, explained eigenvalues) of PCA on the rows of
    ``data``, from the sample covariance of one centered copy."""
    data = np.asarray(data, dtype=float)
    n = len(data)
    mean = data.mean(axis=0)
    centered = data - mean
    return (mean, *_top(centered.T @ centered / (n - 1), out_dim))


def sym_eig_route_pca(data, out_dim):
    """(mean, projection, explained eigenvalues) of PCA on every row of
    ``data``, rows or minisequences, from its moments merged over
    chunks of ``linalg.CHUNK`` entries, the covariance symmetrized and
    solved by ``sym_eig``."""
    data = np.asarray(data, dtype=float)
    in_dim = data.shape[-1]
    mean, b, _, n, _ = linalg.merge_moments(
        linalg.sequence_moments(data[i:i + linalg.CHUNK].reshape(-1, 1, in_dim))
        for i in range(0, len(data), linalg.CHUNK))
    return (mean, *_top(b * (n / (n - 1)), out_dim))


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


def _one_vs_rest(clf_labels, features, labels):
    """Rows with a bias column of ones, and the (n, C) sign matrix."""
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels)
    signs = np.where(y[:, None] == np.asarray(clf_labels)[None, :], 1.0, -1.0)
    return np.hstack([x, np.ones((len(x), 1))]), signs


def squared_hinge_objective(clf, features, labels, reg):
    """reg/2 (|w|^2 + b^2) + mean squared hinge, one entry per class."""
    xa, signs = _one_vs_rest(clf.class_labels, features, labels)
    z = np.hstack([clf.weights, clf.biases[:, None]])
    out = []
    for c, zc in enumerate(z):
        hinge = np.maximum(0.0, 1.0 - signs[:, c] * (xa @ zc))
        out.append(0.5 * reg * zc @ zc + np.mean(hinge ** 2))
    return np.array(out)


def squared_hinge_gradient(clf, features, labels, reg):
    """Gradient of ``squared_hinge_objective`` in (w, b), one row per class."""
    xa, signs = _one_vs_rest(clf.class_labels, features, labels)
    z = np.hstack([clf.weights, clf.biases[:, None]])
    out = []
    for c, zc in enumerate(z):
        hinge = np.maximum(0.0, 1.0 - signs[:, c] * (xa @ zc))
        out.append(reg * zc - 2.0 / len(xa) * xa.T @ (signs[:, c] * hinge))
    return np.array(out)


def dense_newton_svm(features, labels, reg, steps=100):
    """``classify.train_linear``'s objective minimized class by class:
    Newton steps on the dense generalized Hessian, each of the length
    that bisection puts at the minimum of the objective along it, until
    the gradient is 1e-12 of its norm at zero."""
    classes = tuple(np.unique(labels).tolist())
    xa, signs = _one_vs_rest(classes, features, labels)
    n, width = xa.shape
    z = np.zeros((len(classes), width))
    for c, s in enumerate(signs.T):
        start = None
        for _ in range(steps):
            margins = s * (xa @ z[c])
            grad = reg * z[c] - 2.0 / n * xa.T @ (s * np.maximum(
                0.0, 1.0 - margins))
            start = np.linalg.norm(grad) if start is None else start
            if np.linalg.norm(grad) <= 1e-12 * start:
                break
            active = xa[margins < 1.0]
            hessian = reg * np.eye(width) + 2.0 / n * active.T @ active
            d = np.linalg.solve(hessian, -grad)
            moved = s * (xa @ d)

            def slope(t):
                hinge = np.maximum(0.0, 1.0 - margins - t * moved)
                return reg * (z[c] + t * d) @ d - 2.0 / n * hinge @ moved

            low, high = 0.0, 1.0
            while slope(high) < 0.0:
                low, high = high, 2.0 * high
            for _ in range(100):
                mid = 0.5 * (low + high)
                low, high = (mid, high) if slope(mid) < 0.0 else (low, mid)
            z[c] += 0.5 * (low + high) * d
    return classify.LinearClassifier(z[:, :-1].copy(), z[:, -1].copy(),
                                     classes)


def pipeline_spec_for(config, class_index, seq_index):
    """Deterministic per-sequence motion parameters for one class."""
    rng = np.random.default_rng(np.random.SeedSequence(
        [config.seed, pipeline.TAG_SYNTH, class_index, seq_index]))
    kind = synth.KINDS[class_index]
    h, w = config.height, config.width
    common = dict(height=h, width=w, frames=config.frames,
                  noise_sigma=config.noise_sigma,
                  seed=int(rng.integers(2 ** 31 - 1)))
    if kind in ("h_bar_oscillate", "v_bar_oscillate"):
        offset, extent = ("offset_y", h) if kind[0] == "h" else ("offset_x", w)
        return synth.SynthSpec(
            kind, **common, size=0.12 * extent, amplitude=0.18 * extent,
            period=16.0, phase=rng.uniform(0, 2 * np.pi),
            **{offset: rng.uniform(-0.05, 0.05) * extent})
    radius = 0.1 * min(h, w)
    base_y = (-0.12 + 0.24 * (seq_index % 3) / 2.0) * h
    base_x = (-0.18 + 0.36 * (seq_index % 4) / 3.0) * w
    offset_y = base_y + rng.uniform(-0.03, 0.03) * h
    if kind == "blob_translate":
        speed = rng.choice([-1.0, 1.0]) * rng.uniform(0.9, 1.4)
        return synth.SynthSpec(kind, **common, size=radius, speed=speed,
                               offset_y=offset_y,
                               offset_x=rng.uniform(-0.2, 0.2) * w)
    return synth.SynthSpec(kind, **common, size=radius, period=9.0,
                           phase=rng.uniform(0, 2 * np.pi),
                           offset_y=offset_y,
                           offset_x=base_x + rng.uniform(-0.03, 0.03) * w)


def _render_frame(spec, cy, cx, half_h, half_w):
    ys = np.arange(spec.height, dtype=float)
    xs = np.arange(spec.width, dtype=float)
    if spec.kind in ("h_bar_oscillate", "v_bar_oscillate"):
        cov_y = np.clip(np.minimum(ys + 1.0, cy + half_h)
                        - np.maximum(ys, cy - half_h), 0.0, 1.0)
        cov_x = np.clip(np.minimum(xs + 1.0, cx + half_w)
                        - np.maximum(xs, cx - half_w), 0.0, 1.0)
        return np.outer(cov_y, cov_x)
    dist = np.hypot(ys[:, None] + 0.5 - cy, xs[None, :] + 0.5 - cx)
    return np.clip(half_h + 0.5 - dist, 0.0, 1.0)


def frame_loop_render(spec):
    """``synth.render_action`` with one ``_render_frame`` call per frame."""
    cys, cxs, hhs, hws = synth._trajectory(spec)
    frames = np.empty((spec.frames, spec.height, spec.width))
    for i in range(spec.frames):
        frames[i] = 20.0 + 180.0 * _render_frame(
            spec, cys[i], cxs[i], hhs[i], hws[i])
    if spec.noise_sigma > 0:
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed]))
        frames += spec.noise_sigma * rng.standard_normal(frames.shape)
    return np.clip(np.rint(frames), 0, 255).astype(np.uint8)
