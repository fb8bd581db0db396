import dataclasses
import inspect
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowfeat import cuboid, dataio, features, linalg, sfa
from slowfeat.errors import (
    EmptyTrainingSet,
    InsufficientClassData,
    InsufficientRank,
    InvalidDimension,
    InvalidInput,
    TooShort,
)

import oracles

MEAN_TOL = 1e-6
VAR_TOL = 1e-4
CORR_TOL = 1e-4
LAMBDA_DELTA_TOL = 1e-6


def smooth_minisequences(rng, n, length, dim):
    """Random smooth minisequences (cumulative sums of small steps)."""
    return [np.cumsum(rng.normal(scale=0.3, size=(length, dim)), axis=0)
            + rng.normal(scale=2.0, size=dim)
            for _ in range(n)]


def labeled_three_class_data(seed=0, per_class=15, length=6, dim=5):
    rng = np.random.default_rng(seed)
    seqs, labels = [], []
    for c in range(3):
        freq = 0.25 + 0.6 * c
        direction = np.zeros(dim)
        direction[c] = 1.0
        for _ in range(per_class):
            phase = rng.uniform(0, 2 * np.pi)
            t = np.arange(length)
            base = np.outer(np.sin(freq * t + phase), direction)
            seqs.append(base + 0.2 * rng.normal(size=(length, dim)))
            labels.append(c)
    return seqs, labels


def pooled_outputs(model, seqs):
    return np.vstack([sfa.apply(model, s) for s in seqs])


def pooled_delta(model, seqs):
    """Mean squared forward difference of each output, pooled over
    minisequences without crossing boundaries."""
    total = 0.0
    count = 0
    for s in seqs:
        y = sfa.apply(model, s)
        d = np.diff(y, axis=0)
        total = total + (d * d).sum(axis=0)
        count += d.shape[0]
    return total / count


def assert_constraints(model, seqs):
    y = pooled_outputs(model, seqs)
    assert np.abs(y.mean(axis=0)).max() < MEAN_TOL
    assert np.abs(y.var(axis=0) - 1.0).max() < VAR_TOL
    corr = np.corrcoef(y.T)
    off = corr - np.diag(np.diag(corr))
    assert np.abs(off).max() < CORR_TOL


# ---------------------------------------------------------------------------
# quadratic expansion


def test_expand_hand_case():
    out = sfa.quadratic_expand(np.array([[1.0, 2.0]]))
    assert np.array_equal(out, [[1.0, 2.0, 1.0, 2.0, 4.0]])


def test_expand_dimension_formula():
    assert sfa.expanded_dim(50) == 1325
    assert sfa.expanded_dim(2) == 5
    x = np.ones((3, 50))
    assert sfa.quadratic_expand(x).shape == (3, 1325)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=999))
def test_expand_matches_loop_oracle(dim, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, dim))
    assert np.allclose(sfa.quadratic_expand(x),
                       [oracles.loop_quadratic_expand(r) for r in x], atol=0)


def test_expand_rows_independent():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 3))
    batch = sfa.quadratic_expand(x)
    for i in range(4):
        assert np.array_equal(batch[i], sfa.quadratic_expand(x[i:i + 1])[0])


@pytest.mark.parametrize("shape", [(), (3,), (2, 3, 4)])
def test_expand_rejects_input_that_is_not_rows(shape):
    with pytest.raises(InvalidDimension):
        sfa.quadratic_expand(np.ones(shape))


# ---------------------------------------------------------------------------
# delta_value


def test_delta_hand_case():
    assert sfa.delta_value([0.0, 1.0, 0.0, 1.0]) == 1.0


def test_delta_constant_is_zero():
    assert sfa.delta_value(np.full(10, 3.3)) == 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=999))
def test_delta_matches_loop_oracle(n, seed):
    y = np.random.default_rng(seed).normal(size=n)
    assert abs(sfa.delta_value(y) - oracles.loop_delta(y)) < 1e-12


def test_delta_too_short():
    with pytest.raises(TooShort):
        sfa.delta_value([1.0])


# ---------------------------------------------------------------------------
# unsupervised fit


def test_usfa_constraints_and_lambda_delta_identity():
    rng = np.random.default_rng(4)
    seqs = smooth_minisequences(rng, 40, 7, 5)
    bank = sfa.fit_usfa(seqs, pca_dim=4, k=3)
    model = bank.models[0]
    assert_constraints(model, seqs)
    # each eigenvalue equals the measured mean squared derivative
    measured = pooled_delta(model, seqs)
    assert np.abs(measured - model.eigenvalues).max() < LAMBDA_DELTA_TOL
    # eigenvalues ascending
    assert np.all(np.diff(model.eigenvalues) >= 0)


def test_usfa_recovers_slow_latent_from_quadratic_mixture():
    # classic demixing: x1 = s + carrier^2, x2 = carrier; s is linear in
    # the quadratic expansion (s = x1 - x2^2), so the slowest output
    # should recover it almost perfectly.
    frames = 1500
    t = np.arange(frames)
    s = np.sin(2 * np.pi * t / frames)
    carrier = np.sin(2 * np.pi * 60 * t / frames + 0.7)
    x = np.stack([s + carrier ** 2, carrier], axis=1)
    bank = sfa.fit_usfa([x], pca_dim=2, k=2)
    y1 = sfa.apply(bank.models[0], x)[:, 0]
    corr = np.corrcoef(y1, s)[0, 1]
    assert abs(corr) > 0.95
    # slowing down: the first output varies slower than any
    # standardized input channel
    channel_deltas = [sfa.delta_value((c - c.mean()) / c.std()) for c in x.T]
    assert sfa.delta_value(y1) < min(channel_deltas)


def test_usfa_sign_convention():
    rng = np.random.default_rng(8)
    bank = sfa.fit_usfa(smooth_minisequences(rng, 30, 6, 4), pca_dim=3, k=2)
    w = bank.models[0].w
    for j in range(w.shape[1]):
        assert w[np.abs(w[:, j]).argmax(), j] > 0


def test_usfa_deterministic():
    rng = np.random.default_rng(2)
    seqs = smooth_minisequences(rng, 25, 6, 4)
    b1 = sfa.fit_usfa(seqs, pca_dim=3, k=2)
    b2 = sfa.fit_usfa(seqs, pca_dim=3, k=2)
    assert b1.models[0].w.tobytes() == b2.models[0].w.tobytes()
    assert b1.models[0].eigenvalues.tobytes() == b2.models[0].eigenvalues.tobytes()
    assert b1.models[0].h0.tobytes() == b2.models[0].h0.tobytes()


def test_usfa_errors():
    with pytest.raises(EmptyTrainingSet):
        sfa.fit_usfa([], pca_dim=2, k=1)
    rng = np.random.default_rng(0)
    seqs = smooth_minisequences(rng, 10, 5, 3)
    with pytest.raises(InsufficientRank):
        sfa.fit_usfa(seqs, pca_dim=3, k=10)
    with pytest.raises(InvalidDimension):
        sfa.fit_usfa(seqs, pca_dim=3, k=0)
    # constant-in-time data has a zero derivative covariance
    const = [np.tile(rng.normal(size=3), (5, 1)) for _ in range(8)]
    with pytest.raises(InsufficientRank):
        sfa.fit_usfa(const, pca_dim=2, k=1)


# ---------------------------------------------------------------------------
# supervised fit


def test_ssfa_per_class_constraints():
    seqs, labels = labeled_three_class_data()
    bank = sfa.fit_ssfa(seqs, labels, pca_dim=4, k_per_class=2)
    assert bank.strategy == "ssfa"
    assert bank.class_labels == (0, 1, 2)
    for model in bank.models:
        own = [s for s, l in zip(seqs, labels) if l == model.class_label]
        assert_constraints(model, own)


def test_ssfa_single_class_reduces_to_usfa():
    rng = np.random.default_rng(6)
    seqs = smooth_minisequences(rng, 20, 6, 4)
    ref = sfa.fit_usfa(seqs, pca_dim=3, k=2).models[0]
    got = sfa.fit_ssfa(seqs, [1] * len(seqs), pca_dim=3, k_per_class=2).models[0]
    assert np.allclose(got.w, ref.w, atol=1e-12)
    assert np.allclose(got.eigenvalues, ref.eigenvalues, atol=1e-12)


def test_ssfa_errors():
    seqs, labels = labeled_three_class_data(per_class=3)
    with pytest.raises(InsufficientClassData):
        sfa.fit_ssfa(seqs + [seqs[0]], labels + [7], pca_dim=3, k_per_class=1)
    with pytest.raises(InvalidDimension, match="labels"):
        sfa.fit_ssfa(seqs, labels[:-1], pca_dim=3, k_per_class=1)


# ---------------------------------------------------------------------------
# discriminative fit


def test_dsfa_union_constraints():
    seqs, labels = labeled_three_class_data(seed=3)
    bank = sfa.fit_dsfa(seqs, labels, pca_dim=4, k_per_class=2, gamma=0.2)
    for model in bank.models:
        # constraints are taken over the union of all classes
        assert_constraints(model, seqs)
    assert bank.gamma == 0.2


def test_dsfa_gamma_zero_equals_union_constraint_ssfa():
    # at gamma = 0 the per-class objective is the class's own derivative
    # covariance, so solving it against the union covariance by hand
    # must reproduce the fit
    seqs, labels = labeled_three_class_data(seed=12)
    bank = sfa.fit_dsfa(seqs, labels, pca_dim=3, k_per_class=2, gamma=0.0)
    pca = bank.models[0].pca
    h_all = [sfa.quadratic_expand(pca.transform(s)) for s in seqs]
    _, b_union, _, _, _ = linalg.sequence_moments(h_all)
    for model in bank.models:
        h_own = [h for h, l in zip(h_all, labels) if l == model.class_label]
        diffs = np.vstack([h[1:] - h[:-1] for h in h_own])
        a_own = (diffs.T @ diffs + (diffs.T @ diffs).T) / (2 * len(diffs))
        ref = linalg.gen_eig_sym(a_own, b_union)
        k = model.k
        assert np.allclose(model.eigenvalues, ref.eigenvalues[:k], atol=1e-8)
        assert np.allclose(np.abs(model.w), np.abs(ref.eigenvectors[:, :k]),
                           atol=1e-8)


def test_dsfa_negative_eigenvalues_sort_first():
    # with a large gamma the interclass term dominates and the smallest
    # eigenvalues go negative; ascending order must hold regardless
    seqs, labels = labeled_three_class_data(seed=5)
    bank = sfa.fit_dsfa(seqs, labels, pca_dim=4, k_per_class=3, gamma=5.0)
    for model in bank.models:
        assert np.all(np.diff(model.eigenvalues) >= 0)
    assert any(m.eigenvalues[0] < 0 for m in bank.models)


def test_dsfa_gamma_objective_monotonicity():
    # the eigensolution at gamma2 minimizes the gamma2 objective over
    # B-orthonormal sets, so it cannot lose to the gamma1 solution
    seqs, labels = labeled_three_class_data(seed=9)
    gamma1, gamma2 = 0.1, 0.8
    bank1 = sfa.fit_dsfa(seqs, labels, pca_dim=3, k_per_class=2, gamma=gamma1)
    bank2 = sfa.fit_dsfa(seqs, labels, pca_dim=3, k_per_class=2, gamma=gamma2)
    pca = bank1.models[0].pca
    h_all = {l: [] for l in set(labels)}
    for s, l in zip(seqs, labels):
        h_all[l].append(sfa.quadratic_expand(pca.transform(s)))

    def diff_cov(h_seqs):
        d = np.vstack([h[1:] - h[:-1] for h in h_seqs])
        return d.T @ d / len(d)

    a_by_class = {c: diff_cov(h) for c, h in h_all.items()}
    classes = sorted(a_by_class)
    for m1, m2 in zip(bank1.models, bank2.models):
        c = m1.class_label
        others = [a_by_class[o] for o in classes if o != c]
        e2 = a_by_class[c] - gamma2 * sum(others) / len(others)
        obj_at = lambda w: float(np.trace(w.T @ e2 @ w))
        assert obj_at(m2.w) <= obj_at(m1.w) + 1e-8


def test_dsfa_errors():
    seqs, labels = labeled_three_class_data(per_class=4)
    with pytest.raises(InsufficientClassData):
        sfa.fit_dsfa(seqs[:4], [0] * 4, pca_dim=3, k_per_class=1)
    with pytest.raises(InvalidInput):
        sfa.fit_dsfa(seqs, labels, pca_dim=3, k_per_class=1, gamma=-0.5)


@pytest.mark.parametrize("gamma", [float("nan"), float("inf")])
def test_dsfa_rejects_a_non_finite_gamma(gamma):
    seqs, labels = labeled_three_class_data(per_class=4)
    with pytest.raises(InvalidInput, match="gamma"):
        sfa.fit_dsfa(seqs, labels, pca_dim=3, k_per_class=1, gamma=gamma)


# ---------------------------------------------------------------------------
# spatially localized discriminative fit


def region_spread_data(seed=0, per_cell=6):
    rng = np.random.default_rng(seed)
    seqs, labels, regions = [], [], []
    for r in range(4):
        for c in range(2):
            freq = 0.3 + 0.5 * c + 0.1 * r
            for _ in range(per_cell):
                phase = rng.uniform(0, 2 * np.pi)
                t = np.arange(6)
                base = np.zeros((6, 4))
                base[:, c] = np.sin(freq * t + phase)
                seqs.append(base + 0.15 * rng.normal(size=(6, 4)))
                labels.append(c)
                regions.append(r)
    return seqs, labels, regions


def test_sdsfa_bank_layout_and_constraints():
    seqs, labels, regions = region_spread_data()
    bank = sfa.fit_sdsfa(seqs, labels, regions, grid=(2, 2),
                         pca_dim=3, k_per_class=2)
    assert bank.grid == (2, 2)
    got = [(m.region_label, m.class_label) for m in bank.models]
    assert got == [(r, c) for r in range(4) for c in (0, 1)]
    # constraints hold over each region's own union of classes
    for r in range(4):
        in_region = [s for s, rr in zip(seqs, regions) if rr == r]
        for m in bank.models:
            if m.region_label == r:
                assert_constraints(m, in_region)


def test_sdsfa_trivial_grid_equals_dsfa():
    seqs, labels = labeled_three_class_data(seed=21, per_class=6)
    ref = sfa.fit_dsfa(seqs, labels, pca_dim=3, k_per_class=2)
    got = sfa.fit_sdsfa(seqs, labels, [0] * len(seqs), grid=(1, 1),
                        pca_dim=3, k_per_class=2)
    for m_ref, m_got in zip(ref.models, got.models):
        assert np.allclose(m_got.w, m_ref.w, atol=1e-12)
        assert np.allclose(m_got.eigenvalues, m_ref.eigenvalues, atol=1e-12)


def test_sdsfa_empty_cell_error_names_the_cell():
    seqs, labels, regions = region_spread_data(per_cell=3)
    # remove everything for class 1 in region 2
    kept = [(s, l, r) for s, l, r in zip(seqs, labels, regions)
            if not (l == 1 and r == 2)]
    s2, l2, r2 = map(list, zip(*kept))
    with pytest.raises(InsufficientClassData, match=r"class 1.*region 2"):
        sfa.fit_sdsfa(s2, l2, r2, grid=(2, 2), pca_dim=3, k_per_class=1)


@pytest.mark.parametrize("grid,region", [((2, 2), 4), ((2, 2), -1),
                                         ((0, 2), 0), ((2, 0), 0)])
def test_sdsfa_rejects_a_region_outside_its_grid(grid, region):
    seqs, labels, regions = region_spread_data(per_cell=3)
    regions[0] = region
    with pytest.raises(InvalidDimension):
        sfa.fit_sdsfa(seqs, labels, regions, grid=grid, pca_dim=3,
                      k_per_class=1)


def test_the_fit_holds_one_region_at_a_time(monkeypatch):
    # weak references to every array of a region's moments and solves:
    # when a region's first cell is read, the earlier regions' arrays
    # must all be released
    seqs, labels, regions = region_spread_data()  # 4 regions, 2 classes
    tracked, reads = [], []
    cell_moments, solve_model = sfa._cell_moments, sfa._solve_model

    def track(arrays):
        tracked.extend((reads[-1], weakref.ref(a)) for a in arrays
                       if isinstance(a, np.ndarray))

    def spy_cell_moments(x, members, pca):
        region, cell = divmod(len(reads), 2)
        if cell == 0:
            held = sum(r < region and ref() is not None
                       for r, ref in tracked)
            assert held == 0, (f"region {region} starts with {held} arrays "
                               "of earlier regions alive")
        reads.append(region)
        out = cell_moments(x, members, pca)
        track(out)
        return out

    def spy_solve_model(objective, constraint, k, what):
        out = solve_model(objective, constraint, k, what)
        track((objective, constraint) + out)
        return out

    monkeypatch.setattr(sfa, "_cell_moments", spy_cell_moments)
    monkeypatch.setattr(sfa, "_solve_model", spy_solve_model)
    sfa.fit_sdsfa(seqs, labels, regions, grid=(2, 2), pca_dim=3,
                  k_per_class=2)
    assert reads == [0, 0, 1, 1, 2, 2, 3, 3]
    assert len(tracked) == 4 * (2 * 3 + 2 * 4)


# ---------------------------------------------------------------------------
# every strategy against loop moments of its own pools

POOL_RTOL = 1e-12


def relative_gap(got, expected):
    return np.linalg.norm(got - expected) / np.linalg.norm(expected)


def expanded(model, seqs):
    return [sfa.quadratic_expand(model.pca.transform(s)) for s in seqs]


def assert_solves(model, objective, constraint):
    """The model is the k slowest pairs of (objective, constraint)."""
    ref = linalg.gen_eig_sym(linalg._symmetrize(objective), constraint)
    k = model.k
    assert np.abs(model.eigenvalues - ref.eigenvalues[:k]).max() <= 1e-8
    assert np.allclose(np.abs(model.w), np.abs(ref.eigenvectors[:, :k]))


def pools_of(strategy, model, seqs, labels, regions):
    """(constraint pool, objective pools by class) a model is fitted on;
    the objective pools are None where the constraint pool is also the
    objective's."""
    def where(c=None, g=None):
        return [s for s, l, r in zip(seqs, labels, regions)
                if (c is None or l == c) and (g is None or r == g)]
    if strategy == "usfa":
        return seqs, None
    if strategy == "ssfa":
        return where(c=model.class_label), None
    g = model.region_label  # None for dsfa: one region
    return where(g=g), {c: where(c=c, g=g) for c in sorted(set(labels))}


def fit(strategy, seqs, labels, regions, gamma):
    if strategy == "usfa":
        return sfa.fit_usfa(seqs, pca_dim=3, k=2)
    if strategy == "ssfa":
        return sfa.fit_ssfa(seqs, labels, pca_dim=3, k_per_class=2)
    if strategy == "dsfa":
        return sfa.fit_dsfa(seqs, labels, pca_dim=3, k_per_class=2,
                            gamma=gamma)
    return sfa.fit_sdsfa(seqs, labels, regions, grid=(2, 2), pca_dim=3,
                         k_per_class=2, gamma=gamma)


@pytest.mark.parametrize("strategy", sfa.STRATEGIES)
def test_fit_matches_loop_moments_of_its_pools(strategy):
    seqs, labels, regions = region_spread_data(seed=4)
    # uneven cells: pooling must weight cells by rows
    kept = [i for i in range(len(seqs)) if i % 7]
    seqs = [seqs[i] for i in kept]
    labels = [labels[i] for i in kept]
    regions = [regions[i] for i in kept]
    gamma = 0.3
    for m in fit(strategy, seqs, labels, regions, gamma).models:
        constraint_pool, by_class = pools_of(strategy, m, seqs, labels,
                                             regions)
        mean, b, a, _, _ = oracles.loop_moments(expanded(m, constraint_pool))
        assert relative_gap(m.h0, mean) <= POOL_RTOL
        if by_class is None:
            assert_solves(m, a, b)
            continue
        h_cells = {c: expanded(m, p) for c, p in by_class.items()}
        # the constraints pooled from the class cells' moments are the
        # moments of the union, computed directly
        h0, b_pooled = linalg.merge_moments(
            linalg.sequence_moments(h) for h in h_cells.values())[:2]
        assert relative_gap(h0, mean) <= POOL_RTOL
        assert relative_gap(b_pooled, b) <= POOL_RTOL
        a_by_class = {c: oracles.loop_moments(h)[2]
                      for c, h in h_cells.items()}
        others = [a_c for c, a_c in a_by_class.items() if c != m.class_label]
        assert_solves(m, a_by_class[m.class_label]
                      - gamma * sum(others) / len(others), b)


CHUNK_RTOL = 1e-10

# chunk sizes by the count n of minisequences
CHUNKS = {"1": lambda n: 1, "2": lambda n: 2, "7": lambda n: 7,
          "n-1": lambda n: n - 1, "n": lambda n: n}


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("strategy", sfa.STRATEGIES)
def test_chunked_fit_matches_one_chunk(strategy, chunk, monkeypatch):
    # the default chunk holds all of these minisequences
    seqs, labels, regions = region_spread_data(seed=4)
    one = fit(strategy, seqs, labels, regions, 0.3)
    monkeypatch.setattr(linalg, "CHUNK", CHUNKS[chunk](len(seqs)))
    chunked = fit(strategy, seqs, labels, regions, 0.3)

    def gap(got, expected):
        return np.abs(got - expected).max() / np.abs(expected).max()
    pca, ref = chunked.pca, one.pca
    assert gap(pca.mean, ref.mean) <= CHUNK_RTOL
    assert gap(pca.projection, ref.projection) <= CHUNK_RTOL
    assert gap(pca.explained_eigenvalues,
               ref.explained_eigenvalues) <= CHUNK_RTOL
    for m, r in zip(chunked.models, one.models):
        assert gap(m.eigenvalues, r.eigenvalues) <= CHUNK_RTOL
        assert gap(np.abs(m.w), np.abs(r.w)) <= CHUNK_RTOL
        assert gap(m.h0, r.h0) <= CHUNK_RTOL


def test_minisequences_keep_their_boundaries():
    # independent random walks jump between one minisequence's end and
    # the next one's start: differences must stay inside each
    rng = np.random.default_rng(8)
    seqs = np.cumsum(rng.normal(size=(30, 5, 4)), axis=1)
    model = sfa.fit_usfa(seqs, pca_dim=4, k=3).models[0]
    mean, b, a, _, _ = oracles.loop_moments(expanded(model, seqs))
    assert relative_gap(model.h0, mean) <= POOL_RTOL
    assert_solves(model, a, b)
    assert np.abs(pooled_delta(model, seqs) - model.eigenvalues).max() \
        < LAMBDA_DELTA_TOL


@pytest.mark.parametrize("strategy", sfa.STRATEGIES)
def test_minisequences_of_one_vector_are_too_short(strategy):
    # delta_t == cuboid_d windows each cuboid into a single row, which
    # has no derivative
    block = np.random.default_rng(3).normal(size=(16, 4, 2, 2))
    minis = cuboid.window_rows(block, delta_t=4)
    assert minis.shape == (16, 1, 16)
    labels = [i % 2 for i in range(16)]
    regions = [i // 2 % 4 for i in range(16)]
    with pytest.raises(TooShort):
        fit(strategy, minis, labels, regions, 0.2)


# ---------------------------------------------------------------------------
# apply / model bank


def test_apply_is_instantaneous():
    rng = np.random.default_rng(13)
    seqs = smooth_minisequences(rng, 20, 6, 4)
    model = sfa.fit_usfa(seqs, pca_dim=3, k=2).models[0]
    x = rng.normal(size=(9, 4))
    batch = sfa.apply(model, x)
    for i in range(9):
        # batched and single-vector paths agree up to BLAS rounding
        assert np.allclose(batch[i], sfa.apply(model, x[i]), atol=1e-12)


def test_apply_rejects_wrong_dim():
    rng = np.random.default_rng(14)
    model = sfa.fit_usfa(smooth_minisequences(rng, 15, 5, 4),
                         pca_dim=3, k=1).models[0]
    with pytest.raises(InvalidDimension):
        sfa.apply(model, np.zeros(7))


def test_project_and_expand_keeps_each_minisequence_apart():
    rng = np.random.default_rng(15)
    pca = linalg.pca_fit(rng.normal(size=(40, 6)), 4)
    stack = rng.normal(size=(5, 3, 6))
    out = sfa.project_and_expand(pca, stack)
    assert out.shape == (5, 3, sfa.expanded_dim(4))
    for i in range(5):
        # a minisequence gets its own product: the same bits in any stack
        assert out[i].tobytes() == sfa.project_and_expand(
            pca, stack[i]).tobytes()
        assert out[i].tobytes() == sfa.project_and_expand(
            pca, stack[i:i + 1])[0].tobytes()
    rows = pca.transform(stack).reshape(-1, 4)
    assert np.allclose(out.reshape(-1, out.shape[2]), [
        oracles.loop_quadratic_expand(r) for r in rows], atol=1e-12)
    assert sfa.project_and_expand(pca, stack[0, 0]).shape == (14,)
    assert sfa.project_and_expand(pca, stack[:0]).shape == (0, 3, 14)
    for bad in (np.zeros((3, 5)), np.float64(1.0)):
        with pytest.raises(InvalidDimension):
            sfa.project_and_expand(pca, bad)


def dummy_model(k, class_label=None, region_label=None):
    pca = linalg.PcaModel(np.zeros(3), np.eye(3), np.ones(3))
    dim = sfa.expanded_dim(3)
    return sfa.SlowFeatureModel(
        pca=pca, h0=np.zeros(dim), w=np.zeros((dim, k)),
        eigenvalues=np.zeros(k), class_label=class_label,
        region_label=region_label)


@pytest.mark.parametrize("change", [
    dict(pca=linalg.PcaModel(np.zeros(4), np.eye(3), np.ones(3))),
    dict(pca=linalg.PcaModel(np.zeros(3), np.eye(3), np.ones(2))),
    dict(pca=linalg.PcaModel(np.zeros(3), np.eye(3)[:2], np.ones(3))),
    dict(pca=linalg.PcaModel(np.zeros(3), np.ones(3), np.ones(3))),
    dict(h0=np.zeros(sfa.expanded_dim(3) + 1)),
    dict(w=np.zeros((sfa.expanded_dim(3) - 1, 2))),
    dict(w=np.zeros(sfa.expanded_dim(3))),
    dict(eigenvalues=np.zeros(3)),
    dict(eigenvalues=np.zeros((2, 1)))])
def test_model_rejects_disagreeing_shapes(change):
    model = dummy_model(2)
    with pytest.raises(InvalidInput):
        dataclasses.replace(model, **change)


def test_model_rejects_non_finite_parameters():
    model = dummy_model(2)
    w = model.w.copy()
    w[1, 0] = np.nan
    with pytest.raises(InvalidInput):
        dataclasses.replace(model, w=w)
    for name in ("h0", "eigenvalues"):
        bad = getattr(model, name).copy()
        bad[0] = np.inf
        with pytest.raises(InvalidInput):
            dataclasses.replace(model, **{name: bad})
    for name in ("mean", "projection"):
        bad = getattr(model.pca, name).copy()
        bad.flat[0] = -np.inf
        with pytest.raises(InvalidInput):
            dataclasses.replace(
                model, pca=dataclasses.replace(model.pca, **{name: bad}))


DIM = sfa.expanded_dim(3)


def array_bank(strategy, class_labels=(), grid=(1, 1), k=1, pca_dim=3,
               **change):
    """A bank with the cells its class labels and grid give, each array
    numbered in order so that every cell's slices differ; ``change``
    replaces any argument of the constructor."""
    pca = linalg.PcaModel(np.zeros(pca_dim), np.eye(pca_dim),
                          np.ones(pca_dim))
    dim = sfa.expanded_dim(pca_dim)
    cells = grid[0] * grid[1] * max(1, len(class_labels))
    args = dict(strategy=strategy, pca=pca,
                h0=np.arange(cells * dim, dtype=float).reshape(cells, dim),
                w=np.arange(dim * cells * k, dtype=float).reshape(
                    dim, cells * k),
                eigenvalues=np.arange(cells * k, dtype=float).reshape(
                    cells, k),
                class_labels=tuple(class_labels), grid=grid,
                gamma=0.2 if strategy in ("dsfa", "sdsfa") else None)
    args.update(change)
    return sfa.ModelBank(**args)


def test_bank_k_total_six_classes():
    bank = array_bank("ssfa", range(6), k=200, pca_dim=19)
    assert (bank.k, bank.k_total) == (200, 1200)
    assert [m.w.shape for m in bank.models] == [(209, 200)] * 6


def test_bank_layout_validation():
    # a 2 x 1 grid of 2 classes is 4 cells: h0, w and eigenvalues must
    # each hold 4 cells of one k, at most the expanded dimension
    array_bank("sdsfa", (0, 1), (2, 1), k=2)
    array_bank("sdsfa", (0, 1), (2, 1), k=DIM)
    for change in (dict(h0=np.zeros((3, DIM))),
                   dict(h0=np.zeros(4 * DIM)),
                   dict(h0=np.zeros((4, DIM + 1))),
                   dict(w=np.zeros((DIM, 6))),
                   dict(w=np.zeros((DIM + 1, 8))),
                   dict(w=np.zeros(DIM * 8)),
                   dict(eigenvalues=np.zeros((2, 2))),
                   dict(eigenvalues=np.zeros((4, 3))),
                   dict(eigenvalues=np.zeros(8)),
                   dict(eigenvalues=np.zeros((4, 0)), w=np.zeros((DIM, 0))),
                   dict(eigenvalues=np.zeros((4, DIM + 1)),
                        w=np.zeros((DIM, 4 * (DIM + 1))))):
        with pytest.raises(InvalidInput):
            array_bank("sdsfa", (0, 1), (2, 1), k=2, **change)


# ``models`` are the class labels of each region's models
@pytest.mark.parametrize("strategy,models,grid", [
    # a usfa bank has no classes, others have sorted, distinct ones
    ("usfa", (0,), (1, 1)),
    ("ssfa", (1, 0), (1, 1)),
    ("dsfa", (0, 0), (1, 1)),
    # only an sdsfa bank has a grid, and every side of it is >= 1
    ("dsfa", (0, 1), (2, 1)),
    ("sdsfa", (0, 1, 1), (2, 1)),
    ("sdsfa", (0, 1), (0, 2)),
    ("ssfa", (), (1, 1)),
    ("sdsfa", (), (2, 1)),
    ("dfsa", (0, 1), (1, 1))])
def test_bank_layout_is_one_rule(strategy, models, grid):
    with pytest.raises(InvalidInput):
        array_bank(strategy, models, grid)


@pytest.mark.parametrize("strategy,models,grid", [
    ("usfa", (), (1, 1)),
    ("ssfa", (3,), (1, 1)),
    ("dsfa", (0, 2), (1, 1)),
    ("sdsfa", (0, 1), (1, 3))])
def test_bank_layout_accepts_each_strategys_cells(strategy, models, grid):
    bank = array_bank(strategy, models, grid, k=2)
    regions = range(3) if strategy == "sdsfa" else [None]
    assert [(m.region_label, m.class_label) for m in bank.models] \
        == [(r, c) for r in regions for c in (models or [None])]
    assert bank.class_labels == models
    for i, m in enumerate(bank.models):
        assert m.pca is bank.pca
        assert m.h0.tobytes() == bank.h0[i].tobytes()
        assert m.w.tobytes() == bank.w[:, 2 * i:2 * i + 2].tobytes()
        assert m.eigenvalues.tobytes() == bank.eigenvalues[i].tobytes()


@pytest.mark.parametrize("strategy,gamma", [
    ("usfa", 0.2), ("ssfa", 0.0), ("dsfa", None), ("sdsfa", None),
    ("dsfa", -0.5), ("dsfa", float("nan")), ("sdsfa", float("inf"))])
def test_bank_gamma_is_set_exactly_for_the_discriminative_strategies(
        strategy, gamma):
    classes = () if strategy == "usfa" else (0, 1)
    with pytest.raises(InvalidInput, match="gamma"):
        array_bank(strategy, classes, gamma=gamma)


@pytest.mark.parametrize("name", ["h0", "w", "eigenvalues", "mean",
                                  "projection"])
def test_bank_rejects_a_non_finite_value(name):
    bank = array_bank("dsfa", (0, 1), k=2)
    if name in ("mean", "projection"):
        bad = getattr(bank.pca, name).copy()
        bad.flat[-1] = np.nan
        change = dict(pca=dataclasses.replace(bank.pca, **{name: bad}))
    else:
        bad = getattr(bank, name).copy()
        bad.flat[-1] = np.inf
        change = {name: bad}
    with pytest.raises(InvalidInput, match="finite"):
        array_bank("dsfa", (0, 1), k=2, **change)


def test_training_keeps_the_names_the_benchmark_reads():
    # the benchmark's per-layer counters find these by name: cuboids
    # cut and kept are len() of sample_cuboids' result, re-sampled
    # with max_count=None; moment time is linalg.sequence_moments;
    # fit time and expanded dim come from the ModelBank of sfa.fit_*
    params = inspect.signature(cuboid.sample_cuboids).parameters
    assert params["max_count"].default is None
    mask = np.zeros((9, 9), bool)
    mask[3:6, 3:6] = True
    args = dict(seq=cuboid.FrameSequence(np.zeros((4, 9, 9))),
                masks=[mask] * 4, fraction=1.0, size=(3, 3, 2), rng_seed=0)
    assert len(cuboid.sample_cuboids(**args, max_count=None)) == 27
    assert len(cuboid.sample_cuboids(**args, max_count=5)) == 5
    assert callable(linalg.sequence_moments)
    for name in ("fit_usfa", "fit_ssfa", "fit_dsfa", "fit_sdsfa"):
        assert inspect.signature(getattr(sfa, name)).return_annotation \
            == "ModelBank"


def test_features_keep_the_names_the_benchmark_reads():
    # the benchmark's featurize hooks bind the arguments of
    # featurize_sequence and asd_feature by name, count len() of
    # args["snippet"].cuboids and read .normalized of each feature
    assert list(inspect.signature(features.featurize_sequence).parameters) \
        == ["seq", "bank", "size", "fraction", "seed", "stride",
            "sequence_id"]
    assert list(inspect.signature(features.asd_feature).parameters) \
        == ["snippet", "bank"]
    rng = np.random.default_rng(22)
    minis = rng.normal(size=(12, 3, 4))
    bank = sfa.fit_usfa(minis, pca_dim=2, k=2)
    snippet = features.Snippet("s", 0, rng.normal(size=(3, 4, 2, 2)),
                               np.zeros((3, 2)))
    assert len(snippet.cuboids) == 3
    assert features.asd_feature(snippet, bank).normalized is True
    seq = cuboid.FrameSequence(np.zeros((5, 6, 6)))
    out = features.featurize_sequence(seq, bank, (2, 2, 4), 1.0, seed=0)
    assert [f.normalized for f in out] == [False, False]


def test_loaded_banks_keep_the_names_the_benchmark_reads(tmp_path):
    # the benchmark's output check loads the bank and compares every
    # model's pca.in_dim and w.shape against sfa.expanded_dim(pca_dim),
    # called with one argument
    assert list(inspect.signature(sfa.expanded_dim).parameters) \
        == ["input_dim"]
    rng = np.random.default_rng(21)
    minis = [rng.normal(size=(5, 6)) for _ in range(16)]
    bank = sfa.fit_sdsfa(minis, [i % 2 for i in range(16)],
                         [i // 2 % 2 for i in range(16)], (2, 1),
                         pca_dim=3, k_per_class=2)
    path = tmp_path / "bank.sfam"
    dataio.save_bank(path, bank)
    loaded = dataio.load_bank(path)
    assert len(loaded.models) == 4
    for m in loaded.models:
        assert m.pca.in_dim == 6
        assert m.w.shape == (sfa.expanded_dim(3), 2)
