import numpy as np
import pytest

from slowfeat import cuboid, features, sfa
from slowfeat.errors import (
    EmptySnippet,
    InvalidDimension,
    InvalidInput,
    TooShort,
)

import oracles

L1_TOL = 1e-10


def toy_cuboids(seed=0, per_class=30, d=7, h=4, w=4, omegas=(0.3, 2.2)):
    """Two classes of cuboids, same spatial footprint, different tempo."""
    rng = np.random.default_rng(seed)
    patterns = [rng.normal(size=(h, w)) for _ in omegas]
    out = []
    t = np.arange(d)
    for label, (omega, pattern) in enumerate(zip(omegas, patterns)):
        for _ in range(per_class):
            phase = rng.uniform(0, 2 * np.pi)
            wave = np.sin(omega * t + phase)
            data = wave[:, None, None] * pattern + \
                0.05 * rng.normal(size=(d, h, w))
            out.append(cuboid.Cuboid(x=2, y=2, t=0, data=data,
                                     class_label=label))
    return out


def fit_bank(cuboids, strategy="dsfa", delta_t=3, pca_dim=6, k=2, **kw):
    minis = [cuboid.reformat(c, delta_t) for c in cuboids]
    labels = [c.class_label for c in cuboids]
    if strategy == "usfa":
        return sfa.fit_usfa(minis, pca_dim, k, **kw)
    if strategy == "ssfa":
        return sfa.fit_ssfa(minis, labels, pca_dim, k, **kw)
    if strategy == "dsfa":
        return sfa.fit_dsfa(minis, labels, pca_dim, k, **kw)
    regions = [c.region_label for c in cuboids]
    return sfa.fit_sdsfa(minis, labels, regions, pca_dim=pca_dim,
                         k_per_class=k, **kw)


# ---------------------------------------------------------------------------
# squared_derivative


def test_squared_derivative_constant_cuboid_is_zero():
    cs = toy_cuboids(seed=1)
    bank = fit_bank(cs, "usfa")
    flat = cuboid.Cuboid(x=2, y=2, t=0, data=np.full((7, 4, 4), 0.37))
    v = features.squared_derivative(flat, bank.models[0])
    assert v.shape == (2,)
    assert np.abs(v).max() < 1e-20


def test_squared_derivative_matches_per_column_delta():
    cs = toy_cuboids(seed=2)
    bank = fit_bank(cs, "usfa")
    model = bank.models[0]
    c = cs[0]
    v = features.squared_derivative(c, model)
    y = sfa.apply(model, cuboid.reformat(c, 3))
    assert y.shape[0] == 5  # d=7, window 3 -> 5 response vectors
    expected = [oracles.loop_delta(y[:, j]) for j in range(y.shape[1])]
    assert np.allclose(v, expected, atol=1e-12)


def test_squared_derivative_depth_too_small():
    cs = toy_cuboids(seed=3)
    bank = fit_bank(cs, "usfa")
    shallow = cuboid.Cuboid(x=0, y=0, t=0, data=np.zeros((3, 4, 4)))
    with pytest.raises(TooShort):
        features.squared_derivative(shallow, bank.models[0])


def test_squared_derivative_wrong_patch_size():
    cs = toy_cuboids(seed=4)
    bank = fit_bank(cs, "usfa")
    wrong = cuboid.Cuboid(x=0, y=0, t=0, data=np.zeros((7, 5, 5)))
    with pytest.raises(InvalidDimension):
        features.squared_derivative(wrong, bank.models[0])


# ---------------------------------------------------------------------------
# asd_feature


def snippet_of(cuboids, start=0):
    """A snippet of ``Cuboid`` objects; regions only when all are labeled."""
    if not cuboids:
        return features.Snippet("seq", start, np.zeros((0, 0, 0, 0)),
                                np.zeros((0, 2), dtype=int))
    labels = [c.region_label for c in cuboids]
    return features.Snippet(
        "seq", start, np.stack([c.data for c in cuboids]),
        np.array([(c.y, c.x) for c in cuboids]),
        None if None in labels else np.array(labels))


def test_asd_l1_normalized_and_sized():
    cs = toy_cuboids(seed=5)
    bank = fit_bank(cs, "dsfa")
    f = features.asd_feature(snippet_of(cs[:10]), bank)
    assert f.values.shape == (bank.k_total,)
    assert f.normalized
    assert abs(f.values.sum() - 1.0) < L1_TOL
    assert (f.values >= 0).all()


def test_asd_order_invariance_is_bit_exact():
    cs = toy_cuboids(seed=6)
    # give cuboids distinct positions so the canonical sort is total
    cs = [cuboid.Cuboid(x=i % 5, y=i // 5, t=0, data=c.data,
                        class_label=c.class_label)
          for i, c in enumerate(cs)]
    bank = fit_bank(cs, "dsfa")
    rng = np.random.default_rng(0)
    chosen = cs[:12]
    shuffled = [chosen[i] for i in rng.permutation(12)]
    f1 = features.asd_feature(snippet_of(chosen), bank)
    f2 = features.asd_feature(snippet_of(shuffled), bank)
    assert f1.values.tobytes() == f2.values.tobytes()


def test_asd_zero_snippet_stays_unnormalized():
    cs = toy_cuboids(seed=7)
    bank = fit_bank(cs, "usfa")
    flat = [cuboid.Cuboid(x=3, y=3, t=0, data=np.zeros((7, 4, 4)))]
    f = features.asd_feature(snippet_of(flat), bank)
    assert not f.normalized
    assert np.abs(f.values).max() == 0.0


def test_asd_empty_snippet_rejected():
    cs = toy_cuboids(seed=8)
    bank = fit_bank(cs, "usfa")
    with pytest.raises(EmptySnippet):
        features.asd_feature(snippet_of([]), bank)


def test_asd_own_class_block_is_smallest():
    # cuboids moving at a class's own tempo leave its functions nearly
    # flat, so the matching block carries the least mass
    cs = toy_cuboids(seed=9, per_class=40)
    bank = fit_bank(cs, "dsfa", k=2)
    for label in (0, 1):
        own = [c for c in cs if c.class_label == label][:15]
        f = features.asd_feature(snippet_of(own), bank)
        block = {m.class_label: f.values[i * 2:(i + 1) * 2].sum()
                 for i, m in enumerate(bank.models)}
        other = 1 - label
        assert block[label] < block[other]


def test_ssfa_asd_lower_on_own_class():
    cs = toy_cuboids(seed=10, per_class=40)
    bank = fit_bank(cs, "ssfa", k=2)
    matrix, classes = features.block_sum_matrix(cs, bank)
    assert classes == (0, 1)
    # columns are the scoring class: own class sits on the diagonal
    assert matrix[0, 0] < matrix[1, 0]
    assert matrix[1, 1] < matrix[0, 1]


# ---------------------------------------------------------------------------
# region-gridded banks


def region_cuboids(seed=0, per_cell=20):
    """Two classes x two regions; tempo depends on class and region."""
    rng = np.random.default_rng(seed)
    out = []
    t = np.arange(7)
    for region in (0, 1):
        pattern = rng.normal(size=(4, 4))
        for label in (0, 1):
            omega = 0.3 + 1.8 * label + 0.2 * region
            for _ in range(per_cell):
                phase = rng.uniform(0, 2 * np.pi)
                data = np.sin(omega * t + phase)[:, None, None] * pattern \
                    + 0.05 * rng.normal(size=(7, 4, 4))
                out.append(cuboid.Cuboid(x=2, y=2, t=0, data=data,
                                         class_label=label,
                                         region_label=region))
    return out


def test_sdsfa_feature_confined_to_own_region_block():
    cs = region_cuboids()
    bank = fit_bank(cs, "sdsfa", grid=(2, 1), k=2)
    assert bank.k_total == 8  # 2 regions x 2 classes x k=2
    one = [c for c in cs if c.region_label == 1][:6]
    f = features.asd_feature(snippet_of(one), bank)
    # region 0 occupies the first two blocks, region 1 the last two
    assert np.abs(f.values[:4]).max() == 0.0
    assert f.values[4:].sum() > 0


def test_sdsfa_matching_cell_block_smallest():
    cs = region_cuboids(seed=3, per_cell=30)
    bank = fit_bank(cs, "sdsfa", grid=(2, 1), k=2)
    blocks, _ = features._bank_blocks(bank)
    for region in (0, 1):
        for label in (0, 1):
            own = [c for c in cs
                   if c.class_label == label and c.region_label == region][:10]
            f = features.asd_feature(snippet_of(own), bank)
            sums = {}
            for offset, m in blocks:
                if m.region_label == region:
                    sums[m.class_label] = f.values[offset:offset + m.k].sum()
            assert sums[label] < sums[1 - label]


def test_sdsfa_requires_region_labels():
    cs = region_cuboids()
    bank = fit_bank(cs, "sdsfa", grid=(2, 1), k=1)
    unlabeled = [cuboid.Cuboid(c.x, c.y, c.t, c.data, c.class_label, None)
                 for c in cs[:3]]
    with pytest.raises(InvalidInput):
        features.asd_feature(snippet_of(unlabeled), bank)


# ---------------------------------------------------------------------------
# one-pass bank evaluation against the per-model oracle

ORACLE_TOL = 1e-12


def bank_and_cuboids(strategy):
    """A bank fitted on the toy fixtures (4x4 patches, window 3)."""
    if strategy == "sdsfa":
        cs = region_cuboids(seed=12)
        return fit_bank(cs, "sdsfa", grid=(2, 1), k=2), cs
    cs = toy_cuboids(seed=12)
    return fit_bank(cs, strategy, k=2), cs


def regions_of(cuboids, bank):
    if bank.strategy != "sdsfa":
        return None
    return np.array([c.region_label for c in cuboids])


@pytest.mark.parametrize("strategy", sfa.STRATEGIES)
def test_bank_evaluation_matches_per_model_oracle(strategy):
    bank, cs = bank_and_cuboids(strategy)
    mixed = cs[::3]  # every class (and region) of the fixture
    got = features.bank_squared_derivatives(
        np.stack([c.data for c in mixed]), bank, regions_of(mixed, bank))
    expected = oracles.per_model_squared_derivatives(mixed, bank)
    # raw squared derivatives scale with the data (class models reach
    # 1e5 on other-class cuboids), so the bound is relative above 1
    assert (np.abs(got - expected)
            <= ORACLE_TOL * np.maximum(1.0, np.abs(expected))).all()

    f = features.asd_feature(snippet_of(mixed), bank)
    values, normalized = oracles.per_model_asd(mixed, bank)
    assert f.normalized == normalized
    assert np.abs(f.values - values).max() <= ORACLE_TOL


@pytest.mark.parametrize("strategy", sfa.STRATEGIES)
def test_bit_equal_frames_contribute_exactly_zero(strategy):
    bank, _ = bank_and_cuboids(strategy)
    pattern = np.random.default_rng(13).normal(size=(4, 4))
    still = cuboid.Cuboid(x=2, y=2, t=0, data=np.tile(pattern, (7, 1, 1)),
                          region_label=1 if strategy == "sdsfa" else None)
    values = features.bank_squared_derivatives(
        still.data[None], bank, regions_of([still], bank))
    assert (values == 0.0).all()
    f = features.asd_feature(snippet_of([still]), bank)
    assert not f.normalized
    assert (f.values == 0.0).all()


def test_sdsfa_cuboid_scores_exactly_zero_outside_own_region():
    bank, cs = bank_and_cuboids("sdsfa")
    mixed = cs[::7]
    assert {c.region_label for c in mixed} == {0, 1}
    values = features.bank_squared_derivatives(
        np.stack([c.data for c in mixed]), bank, regions_of(mixed, bank))
    block = bank.k_total // 2  # 2 regions x (2 classes x k=2)
    for row, c in zip(values, mixed):
        own = np.arange(block * c.region_label, block * (c.region_label + 1))
        assert (np.delete(row, own) == 0.0).all()
        assert (row[own] > 0.0).all()


@pytest.mark.parametrize("strategy", sfa.STRATEGIES)
def test_featurize_matches_per_model_oracle(strategy):
    bank, _ = bank_and_cuboids(strategy)
    diff_seq = diff_of(moving_square_sequence())
    size = (4, 4, 6)
    out = features.featurize_sequence(diff_seq, bank, size, fraction=0.5,
                                      seed=3)
    delta = cuboid.default_delta(diff_seq)
    compared = 0
    for f in out:
        start = f.snippet_span[1]
        mask = cuboid.motion_boundary(diff_seq.frames[start], delta,
                                      diff_seq.boxes[start]).mask
        cs = oracles.loop_snippet_cuboids(
            diff_seq.frames, mask, start, 0.5, size,
            np.random.SeedSequence([3, start]))
        if not cs:  # the square rests on every other frame
            assert not f.normalized
            assert (f.values == 0.0).all()
            continue
        if strategy == "sdsfa":
            cs = cuboid.with_region_labels(cs, diff_seq.boxes, bank.grid)
        values, normalized = oracles.per_model_asd(cs, bank)
        assert f.normalized == normalized
        assert np.abs(f.values - values).max() <= ORACLE_TOL
        compared += 1
    assert compared >= 2


# ---------------------------------------------------------------------------
# mirroring


def test_mirror_permutes_region_blocks():
    values = np.arange(12.0)  # grid (2, 3), block dim 2
    f = features.ASDFeature(values, ("seq", 0), True)
    m = features.mirror_feature(f, (2, 3), 2)
    # blocks [0 1 2 3 4 5] -> [1 0 3 2 5 4]
    expected = np.concatenate([values[2:4], values[0:2], values[6:8],
                               values[4:6], values[10:12], values[8:10]])
    assert np.array_equal(m.values, expected)


def test_mirror_is_involution_bit_exact():
    rng = np.random.default_rng(11)
    values = rng.random(30)  # grid (2, 3), block dim 5
    f = features.ASDFeature(values, ("seq", 4), True)
    twice = features.mirror_feature(
        features.mirror_feature(f, (2, 3), 5), (2, 3), 5)
    assert twice.values.tobytes() == f.values.tobytes()
    assert twice.snippet_span == f.snippet_span


def test_mirror_trivial_grid_is_identity():
    values = np.arange(6.0)
    f = features.ASDFeature(values, ("s", 0), True)
    m = features.mirror_feature(f, (1, 1), 6)
    assert np.array_equal(m.values, values)


def test_mirror_rejects_dim_mismatch():
    f = features.ASDFeature(np.zeros(10), ("s", 0), False)
    with pytest.raises(InvalidDimension):
        features.mirror_feature(f, (2, 3), 2)


# ---------------------------------------------------------------------------
# featurize_sequence


def moving_square_sequence(frames=12, side=16):
    """A bright square drifting one pixel per frame."""
    data = np.zeros((frames, side, side))
    for t in range(frames):
        data[t, 4:9, 2 + t // 2: 7 + t // 2] = 200.0
    data += 20.0
    boxes = np.tile([0, 0, side, side], (frames, 1))
    return cuboid.FrameSequence(data, boxes)


def diff_of(seq):
    return cuboid.frame_difference(cuboid.normalize_sequence(seq))


def featurize_bank(diff_seq, size=(4, 4, 4), delta_t=2):
    masks = [cuboid.motion_boundary(f, cuboid.default_delta(diff_seq))
             for f in diff_seq.frames]
    cs = cuboid.sample_cuboids(diff_seq, masks, 0.5, size, rng_seed=0)
    minis = [cuboid.reformat(c, delta_t) for c in cs]
    return sfa.fit_usfa(minis, pca_dim=6, k=2)


def test_featurize_one_feature_per_snippet():
    diff_seq = diff_of(moving_square_sequence())
    bank = featurize_bank(diff_seq)
    out = features.featurize_sequence(diff_seq, bank, (4, 4, 4),
                                      fraction=0.5, seed=3)
    assert len(out) == diff_seq.num_frames - 4 + 1
    for i, f in enumerate(out):
        assert f.snippet_span == ("seq", i)
        assert f.values.shape == (bank.k_total,)
        if f.normalized:
            assert abs(f.values.sum() - 1.0) < L1_TOL


def test_featurize_stride():
    diff_seq = diff_of(moving_square_sequence())
    bank = featurize_bank(diff_seq)
    out = features.featurize_sequence(diff_seq, bank, (4, 4, 4),
                                      fraction=0.5, seed=3, stride=3)
    assert [f.snippet_span[1] for f in out] == [0, 3, 6]


def test_featurize_deterministic():
    diff_seq = diff_of(moving_square_sequence())
    bank = featurize_bank(diff_seq)
    a = features.featurize_sequence(diff_seq, bank, (4, 4, 4), 0.5, seed=9)
    b = features.featurize_sequence(diff_seq, bank, (4, 4, 4), 0.5, seed=9)
    assert all(x.values.tobytes() == y.values.tobytes() for x, y in zip(a, b))


@pytest.mark.parametrize("fraction", [1.5, 0.0, -0.25, float("nan")])
def test_featurize_rejects_bad_fraction(fraction):
    diff_seq = diff_of(moving_square_sequence())
    bank = featurize_bank(diff_seq)
    with pytest.raises(InvalidInput):
        features.featurize_sequence(diff_seq, bank, (4, 4, 4), fraction,
                                    seed=0)


def test_featurize_too_short():
    diff_seq = diff_of(moving_square_sequence(frames=4))
    bank = featurize_bank(diff_of(moving_square_sequence()))
    with pytest.raises(TooShort):
        features.featurize_sequence(diff_seq, bank, (4, 4, 7), 0.5, seed=0)
