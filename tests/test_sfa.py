import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowfeat import linalg, sfa
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
    out = sfa.quadratic_expand(np.array([1.0, 2.0]))
    assert np.array_equal(out, [1.0, 2.0, 1.0, 2.0, 4.0])


def test_expand_dimension_formula():
    assert sfa.expanded_dim(50) == 1325
    assert sfa.expanded_dim(2) == 5
    x = np.ones(50)
    assert sfa.quadratic_expand(x).shape == (1325,)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=999))
def test_expand_matches_loop_oracle(dim, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=dim)
    assert np.allclose(sfa.quadratic_expand(x), oracles.loop_quadratic_expand(x),
                       atol=0)


def test_expand_rows_independent():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 3))
    batch = sfa.quadratic_expand(x)
    for i in range(4):
        assert np.array_equal(batch[i], sfa.quadratic_expand(x[i]))


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


# ---------------------------------------------------------------------------
# discriminative fit


def test_dsfa_union_constraints():
    seqs, labels = labeled_three_class_data(seed=3)
    bank = sfa.fit_dsfa(seqs, labels, pca_dim=4, k_per_class=2, gamma=0.2)
    for model in bank.models:
        # constraints are taken over the union of all classes
        assert_constraints(model, seqs)
        assert model.gamma == 0.2


def test_dsfa_gamma_zero_equals_union_constraint_ssfa():
    # at gamma = 0 the per-class objective is the class's own derivative
    # covariance, so solving it against the union covariance by hand
    # must reproduce the fit
    seqs, labels = labeled_three_class_data(seed=12)
    bank = sfa.fit_dsfa(seqs, labels, pca_dim=3, k_per_class=2, gamma=0.0)
    pca = bank.models[0].pca
    spec = bank.models[0].expansion
    h_all = [spec.expand(pca.transform(s)) for s in seqs]
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
    spec = bank1.models[0].expansion
    h_all = {l: [] for l in set(labels)}
    for s, l in zip(seqs, labels):
        h_all[l].append(spec.expand(pca.transform(s)))

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
    with pytest.raises(ValueError):
        sfa.fit_dsfa(seqs, labels, pca_dim=3, k_per_class=1, gamma=-0.5)


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


def dummy_model(k, class_label=None, region_label=None, strategy="ssfa"):
    pca = linalg.PcaModel(np.zeros(3), np.eye(3), np.ones(3))
    spec = sfa.ExpansionSpec("quadratic", 3)
    return sfa.SlowFeatureModel(
        pca=pca, expansion=spec, h0=np.zeros(spec.output_dim),
        w=np.zeros((spec.output_dim, k)), eigenvalues=np.zeros(k),
        strategy=strategy, class_label=class_label,
        region_label=region_label)


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


def test_bank_groups_share_one_input_map():
    # hand-built models with bit-equal but separate PCA arrays form one
    # group; a model with its own PCA forms another
    models = [dummy_model(2, class_label=c) for c in range(3)]
    shifted = dataclasses.replace(
        models[1].pca, mean=models[1].pca.mean + 1.0)
    models[1] = dataclasses.replace(models[1], pca=shifted)
    groups = sfa.ModelBank("ssfa", tuple(models)).groups
    assert [g.columns.tolist() for g in groups] == [[0, 1, 4, 5], [2, 3]]
    assert np.array_equal(groups[0].w,
                          np.hstack([models[0].w, models[2].w]))


def test_bank_k_total_six_classes():
    models = tuple(dummy_model(200, class_label=c) for c in range(6))
    bank = sfa.ModelBank("ssfa", models)
    assert bank.k_total == 1200


def test_bank_layout_validation():
    with pytest.raises(ValueError):
        sfa.ModelBank("usfa", (dummy_model(2, class_label=None),
                               dummy_model(2, class_label=None)))
    with pytest.raises(ValueError):
        sfa.ModelBank("ssfa", (dummy_model(2, class_label=1),
                               dummy_model(2, class_label=0)))
    # sdsfa models must come region-major, class-minor
    wrong = (dummy_model(1, 0, 0, "sdsfa"), dummy_model(1, 0, 1, "sdsfa"),
             dummy_model(1, 1, 0, "sdsfa"), dummy_model(1, 1, 1, "sdsfa"))
    with pytest.raises(ValueError):
        sfa.ModelBank("sdsfa", wrong, grid=(2, 1))
