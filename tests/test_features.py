import numpy as np
import pytest

from slowfeat import cuboid, features, linalg, sfa
from slowfeat.errors import InvalidDimension, InvalidInput, TooShort

import oracles

L1_TOL = 1e-10


def toy_cuboids(seed=0, per_class=30, d=7, h=4, w=4, omegas=(0.3, 2.2)):
    """Two classes of cuboids, same spatial footprint, different tempo.

    Returns the (n, d, h, w) cuboids and their class labels.
    """
    rng = np.random.default_rng(seed)
    patterns = [rng.normal(size=(h, w)) for _ in omegas]
    data, labels = [], []
    t = np.arange(d)
    for label, (omega, pattern) in enumerate(zip(omegas, patterns)):
        for _ in range(per_class):
            phase = rng.uniform(0, 2 * np.pi)
            wave = np.sin(omega * t + phase)
            data.append(wave[:, None, None] * pattern
                        + 0.05 * rng.normal(size=(d, h, w)))
            labels.append(label)
    return np.array(data), np.array(labels)


def fit_bank(block, labels, strategy="dsfa", delta_t=3, pca_dim=6, k=2,
             regions=None, **kw):
    return sfa.fit_bank(strategy, cuboid.window_rows(block, delta_t),
                        pca_dim, k, labels=labels, regions=regions, **kw)


def squared_derivatives(block, model):
    """One model's squared derivatives through the bank evaluation."""
    bank = sfa.ModelBank("usfa", model.pca, model.h0[None], model.w,
                         model.eigenvalues[None])
    return features.bank_squared_derivatives(block, bank)


# ---------------------------------------------------------------------------
# squared derivatives of single cuboids


def test_squared_derivative_constant_cuboid_is_zero():
    bank = fit_bank(*toy_cuboids(seed=1), "usfa")
    flat = np.full((1, 7, 4, 4), 0.37)
    v = squared_derivatives(flat, bank.models[0])[0]
    assert v.shape == (2,)
    assert np.abs(v).max() < 1e-20


def test_squared_derivative_matches_per_column_delta():
    block, labels = toy_cuboids(seed=2)
    bank = fit_bank(block, labels, "usfa")
    model = bank.models[0]
    c = block[:1]
    v = squared_derivatives(c, model)[0]
    y = sfa.apply(model, oracles.loop_reformat(c[0], 3))
    assert y.shape[0] == 5  # d=7, window 3 -> 5 response vectors
    expected = [oracles.loop_delta(y[:, j]) for j in range(y.shape[1])]
    assert np.allclose(v, expected, atol=1e-12)


def test_squared_derivative_depth_too_small():
    bank = fit_bank(*toy_cuboids(seed=3), "usfa")
    shallow = np.zeros((1, 3, 4, 4))
    with pytest.raises(TooShort):
        squared_derivatives(shallow, bank.models[0])


def test_squared_derivative_wrong_patch_size():
    bank = fit_bank(*toy_cuboids(seed=4), "usfa")
    wrong = np.zeros((1, 7, 5, 5))
    with pytest.raises(InvalidDimension):
        squared_derivatives(wrong, bank.models[0])


# ---------------------------------------------------------------------------
# class blocks and selectivity


def test_asd_own_class_block_is_smallest():
    # cuboids moving at a class's own tempo leave its functions nearly
    # flat, so the matching block carries the least mass
    block, labels = toy_cuboids(seed=9, per_class=40)
    bank = fit_bank(block, labels, "dsfa", k=2)
    for label in (0, 1):
        own = block[labels == label][:15]
        v = features.bank_squared_derivatives(own, bank).sum(axis=0)
        sums = {m.class_label: v[i * 2:(i + 1) * 2].sum()
                for i, m in enumerate(bank.models)}
        other = 1 - label
        assert sums[label] < sums[other]


def class_block_sums(values, labels, k):
    """Entry (i, j): the feature mass of class-i rows in the columns of
    the class-j functions, for a bank of k functions per class."""
    classes = np.unique(labels)
    return np.array([[values[labels == i][:, np.arange(j * k, (j + 1) * k)]
                      .sum() for j in range(len(classes))] for i in classes])


def test_ssfa_asd_lower_on_own_class():
    block, labels = toy_cuboids(seed=10, per_class=40)
    bank = fit_bank(block, labels, "ssfa", k=2)
    # one row per cuboid; both classes have 40, so sums order as means
    values = features.bank_squared_derivatives(block, bank)
    matrix = class_block_sums(values, labels, 2)
    assert bank.class_labels == (0, 1)
    # columns are the scoring class: own class sits on the diagonal
    assert matrix[0, 0] < matrix[1, 0]
    assert matrix[1, 1] < matrix[0, 1]
    assert features.selectivity(bank, values, labels) > 1.0


def test_selectivity_is_the_table_of_class_block_sums():
    block, labels = toy_cuboids(seed=10, per_class=40)
    bank = fit_bank(block, labels, "dsfa", k=2)
    values = features.bank_squared_derivatives(block, bank)
    matrix = class_block_sums(values, labels, 2)
    own = [values[labels == c].sum(axis=0) for c in (0, 1)]
    assert np.allclose(matrix, [[o[:2].sum(), o[2:].sum()] for o in own],
                       rtol=1e-14, atol=0)
    # each row over its diagonal; the mean of the rows' smallest
    # off-diagonal ratios
    ratios = matrix / np.diag(matrix)[:, None]
    average = np.mean([np.delete(row, i).min()
                       for i, row in enumerate(ratios)])
    assert features.selectivity(bank, values, labels) == average


def test_selectivity_does_not_apply():
    block, labels = toy_cuboids(seed=10, per_class=40)
    values = np.ones((len(block), 4))
    assert features.selectivity(fit_bank(block, labels, "usfa", k=4),
                                values, labels) is None
    bank = fit_bank(block, labels, "dsfa", k=2)
    # rows of one class only, and a class whose own block is zero
    assert features.selectivity(bank, values[labels == 0],
                                labels[labels == 0]) is None
    values[labels == 1, 2:] = 0.0
    assert features.selectivity(bank, values, labels) is None


# ---------------------------------------------------------------------------
# region-gridded banks


def region_cuboids(seed=0, per_cell=20):
    """Two classes x two regions; tempo depends on class and region.

    Returns the (n, 7, 4, 4) cuboids, their class labels and regions.
    """
    rng = np.random.default_rng(seed)
    data, labels, regions = [], [], []
    t = np.arange(7)
    for region in (0, 1):
        pattern = rng.normal(size=(4, 4))
        for label in (0, 1):
            omega = 0.3 + 1.8 * label + 0.2 * region
            for _ in range(per_cell):
                phase = rng.uniform(0, 2 * np.pi)
                data.append(np.sin(omega * t + phase)[:, None, None] * pattern
                            + 0.05 * rng.normal(size=(7, 4, 4)))
                labels.append(label)
                regions.append(region)
    return np.array(data), np.array(labels), np.array(regions)


def fit_region_bank(block, labels, regions, **kw):
    return fit_bank(block, labels, "sdsfa", regions=regions, grid=(2, 1),
                    **kw)


def test_sdsfa_feature_confined_to_own_region_block():
    block, labels, regions = region_cuboids()
    bank = fit_region_bank(block, labels, regions, k=2)
    assert bank.k_total == 8  # 2 regions x 2 classes x k=2
    one = regions == 1
    v = features.bank_squared_derivatives(block[one][:6], bank,
                                          regions[one][:6]).sum(axis=0)
    # region 0 occupies the first two blocks, region 1 the last two
    assert np.abs(v[:4]).max() == 0.0
    assert v[4:].sum() > 0


def test_sdsfa_matching_cell_block_smallest():
    block, labels, regions = region_cuboids(seed=3, per_cell=30)
    bank = fit_region_bank(block, labels, regions, k=2)
    offsets = np.cumsum([0] + [m.k for m in bank.models])
    blocks = list(zip(offsets, bank.models))
    for region in (0, 1):
        for label in (0, 1):
            own = (labels == label) & (regions == region)
            v = features.bank_squared_derivatives(
                block[own][:10], bank, regions[own][:10]).sum(axis=0)
            sums = {}
            for offset, m in blocks:
                if m.region_label == region:
                    sums[m.class_label] = v[offset:offset + m.k].sum()
            assert sums[label] < sums[1 - label]


def test_sdsfa_requires_region_labels():
    block, labels, regions = region_cuboids()
    bank = fit_region_bank(block, labels, regions, k=1)
    with pytest.raises(InvalidInput):
        features.bank_squared_derivatives(block[:3], bank, regions=None)


# ---------------------------------------------------------------------------
# one-pass bank evaluation against the per-model oracle

ORACLE_TOL = 1e-12


def bank_and_cuboids(strategy):
    """A bank fitted on the toy fixtures (4x4 patches, window 3), with
    the cuboids and (for sdsfa) their regions."""
    if strategy == "sdsfa":
        block, labels, regions = region_cuboids(seed=12)
        return fit_region_bank(block, labels, regions, k=2), block, regions
    block, labels = toy_cuboids(seed=12)
    return fit_bank(block, labels, strategy, k=2), block, None


@pytest.mark.parametrize("strategy", sfa.STRATEGIES)
def test_bank_evaluation_matches_per_model_oracle(strategy):
    bank, block, regions = bank_and_cuboids(strategy)
    # every class (and region) of the fixture
    mixed = block[::3]
    mixed_regions = None if regions is None else regions[::3]
    got = features.bank_squared_derivatives(mixed, bank, mixed_regions)
    expected = oracles.per_model_squared_derivatives(mixed, bank,
                                                     mixed_regions)
    # raw squared derivatives scale with the data (class models reach
    # 1e5 on other-class cuboids), so the bound is relative above 1
    assert (np.abs(got - expected)
            <= ORACLE_TOL * np.maximum(1.0, np.abs(expected))).all()


@pytest.mark.parametrize("strategy", sfa.STRATEGIES)
def test_bit_equal_frames_contribute_exactly_zero(strategy):
    bank, _, _ = bank_and_cuboids(strategy)
    pattern = np.random.default_rng(13).normal(size=(4, 4))
    still = np.tile(pattern, (1, 7, 1, 1))
    regions = np.array([1]) if strategy == "sdsfa" else None
    values = features.bank_squared_derivatives(still, bank, regions)
    assert (values == 0.0).all()
    # in featurize, still snippets share their batch with moving ones:
    # starts 0-2 hold the repeated frame alone, later starts the square
    moving = diff_of(moving_square_sequence()).frames[:6]
    seq = cuboid.FrameSequence(np.concatenate([still_sequence(8).frames,
                                               moving]))
    out = features.featurize_sequence(seq, bank, (4, 4, 6), fraction=0.5,
                                      seed=3)
    assert all(fixture_picks(seq, start)[0].size for start in (0, 1, 2))
    for f in out[:3]:
        assert not f.normalized and (f.values == 0.0).all()
    assert sum(f.normalized for f in out[3:]) >= 2


def test_sdsfa_cuboid_scores_exactly_zero_outside_own_region():
    bank, block, regions = bank_and_cuboids("sdsfa")
    mixed, mixed_regions = block[::7], regions[::7]
    assert set(mixed_regions.tolist()) == {0, 1}
    values = features.bank_squared_derivatives(mixed, bank, mixed_regions)
    width = bank.k_total // 2  # 2 regions x (2 classes x k=2)
    for row, region in zip(values, mixed_regions):
        own = np.arange(width * region, width * (region + 1))
        assert (np.delete(row, own) == 0.0).all()
        assert (row[own] > 0.0).all()


@pytest.mark.parametrize("strategy", sfa.STRATEGIES)
def test_featurize_matches_per_model_oracle(strategy):
    bank, _, _ = bank_and_cuboids(strategy)
    diff_seq = diff_of(moving_square_sequence())
    size = (4, 4, 6)
    out = features.featurize_sequence(diff_seq, bank, size, fraction=0.5,
                                      seed=3)
    masks = cuboid.motion_masks(diff_seq)
    compared = 0
    for f in out:
        start = f.start
        positions, block = oracles.loop_snippet_cuboids(
            diff_seq.frames, masks[start], start, 0.5, size,
            np.random.SeedSequence([3, start]))
        if not len(block):  # the square rests on every other frame
            assert not f.normalized
            assert (f.values == 0.0).all()
            continue
        regions = None
        if strategy == "sdsfa":
            regions = [cuboid.region_label((x, y), diff_seq.boxes[t],
                                           bank.grid)
                       for t, y, x in positions.tolist()]
        values, normalized = oracles.per_model_asd(block, positions, bank,
                                                   regions)
        assert f.normalized == normalized
        assert np.abs(f.values - values).max() <= ORACLE_TOL
        compared += 1
    assert compared >= 2


def featurize_fixture(strategy, **kw):
    """A fixture bank and the features of the moving square under it."""
    bank, _, _ = bank_and_cuboids(strategy)
    diff_seq = diff_of(moving_square_sequence())
    out = features.featurize_sequence(diff_seq, bank, (4, 4, 6),
                                      fraction=0.5, seed=3, **kw)
    return bank, diff_seq, out


def fixture_picks(diff_seq, start):
    """The (ys, xs) that featurize_fixture samples for a snippet."""
    mask = cuboid.motion_masks(diff_seq)[start]
    rng = np.random.default_rng(np.random.SeedSequence([3, start]))
    return cuboid.pick_positions(mask, 0.5, (4, 4), rng)


def still_sequence(frames=12, side=16):
    """A difference sequence of one random frame repeated: the frame has
    edges, so cuboids are cut, but no cuboid changes in time."""
    frame = np.random.default_rng(13).uniform(-200.0, 200.0, (side, side))
    return cuboid.FrameSequence(np.tile(frame, (frames, 1, 1)))


def test_asd_l1_normalized_and_sized():
    for strategy in sfa.STRATEGIES:
        bank, _, out = featurize_fixture(strategy)
        assert sum(f.normalized for f in out) >= 2
        for f in out:
            assert f.values.shape == (bank.k_total,)
            if f.normalized:
                assert (f.values >= 0).all()
                assert abs(f.values.sum() - 1.0) < L1_TOL


def test_asd_order_invariance_is_bit_exact(monkeypatch):
    # the same picks in another order: the canonical (y, x) order of a
    # snippet's cuboids makes its sum, and so its bytes, the same
    shuffled = []

    def pick_shuffled(mask, fraction, patch, rng):
        ys, xs = cuboid.pick_positions(mask, fraction, patch, rng)
        order = np.random.default_rng(ys.size).permutation(ys.size)
        shuffled.append((order != np.arange(ys.size)).any())
        return ys[order], xs[order]

    for strategy in sfa.STRATEGIES:
        _, _, out = featurize_fixture(strategy)
        with monkeypatch.context() as m:
            m.setattr(features, "pick_positions", pick_shuffled)
            _, _, shuffled_out = featurize_fixture(strategy)
        assert [(f.start, f.normalized, f.values.tobytes())
                for f in shuffled_out] == [
            (f.start, f.normalized, f.values.tobytes()) for f in out]
    assert sum(shuffled) >= 8


def test_asd_zero_snippet_stays_unnormalized():
    # every cuboid's rows are bit-equal, so each sum is exactly zero
    seq = still_sequence()
    assert all(fixture_picks(seq, start)[0].size for start in range(7))
    for strategy in sfa.STRATEGIES:
        bank, _, _ = bank_and_cuboids(strategy)
        out = features.featurize_sequence(seq, bank, (4, 4, 6),
                                          fraction=0.5, seed=3)
        assert len(out) == 7
        for f in out:
            assert not f.normalized
            assert f.values.shape == (bank.k_total,)
            assert (f.values == 0.0).all()


@pytest.mark.parametrize("strategy", sfa.STRATEGIES)
def test_featurize_strides_agree_on_shared_starts(strategy):
    _, _, every = featurize_fixture(strategy, stride=1)
    _, _, second = featurize_fixture(strategy, stride=2)
    assert [f.start for f in second] == [0, 2, 4]
    for f in second:
        g = every[f.start]
        assert f.start == g.start
        assert f.normalized == g.normalized
        assert np.abs(f.values - g.values).max() <= ORACLE_TOL


@pytest.mark.parametrize("strategy", sfa.STRATEGIES)
def test_small_batches_match_one_batch(strategy, monkeypatch):
    # fitted before linalg.CHUNK is patched: only the batches change
    bank, _, _ = bank_and_cuboids(strategy)
    diff_seq = diff_of(moving_square_sequence())

    def featurize():
        return features.featurize_sequence(diff_seq, bank, (4, 4, 6),
                                           fraction=0.5, seed=3)
    monkeypatch.setattr(linalg, "CHUNK", 10**9)
    whole = featurize()
    monkeypatch.setattr(linalg, "CHUNK", 3)
    batched = featurize()
    # several snippets hold more cuboids than a batch's cap
    sizes = [fixture_picks(diff_seq, t)[0].size for t in range(len(whole))]
    assert sum(size > 3 for size in sizes) >= 2
    assert sum(not f.normalized for f in whole) >= 2
    for f, g in zip(batched, whole):
        assert f.start == g.start
        assert f.normalized == g.normalized
        if not g.normalized:
            assert (f.values == 0.0).all() and (g.values == 0.0).all()
        assert np.abs(f.values - g.values).max() <= ORACLE_TOL


@pytest.mark.parametrize("strategy", ["dsfa", "sdsfa"])
def test_a_last_batch_of_empty_snippets_changes_no_byte(strategy,
                                                        monkeypatch):
    bank, _, _ = bank_and_cuboids(strategy)
    diff_seq = diff_of(moving_square_sequence(frames=13))
    sizes = [fixture_picks(diff_seq, t)[0].size
             for t in range(diff_seq.num_frames - 6 + 1)]
    assert sizes[-1] == 0 and sizes[-2] > 0

    def featurize():
        return features.featurize_sequence(diff_seq, bank, (4, 4, 6),
                                           fraction=0.5, seed=3)
    monkeypatch.setattr(linalg, "CHUNK", 10**9)
    whole = featurize()
    # a batch ends at the snippet that brings it to CHUNK cuboids: the
    # second to last, so the last batch is the one empty snippet after it
    monkeypatch.setattr(linalg, "CHUNK", sum(sizes))
    cropped = []

    def crop(frames, ts, *rest):
        cropped.append(len(ts))
        return cuboid.crop_cuboids(frames, ts, *rest)
    monkeypatch.setattr(features, "crop_cuboids", crop)
    split = featurize()
    assert cropped == [sum(sizes), 0]
    assert [(f.start, f.normalized, f.values.tobytes())
            for f in split] == [(f.start, f.normalized,
                                 f.values.tobytes()) for f in whole]


@pytest.mark.parametrize("regions", [[0, 2, 1], [0, -1, 1], [0, 0.5, 1],
                                     [0, 1], [0, 1, 1, 0]])
def test_sdsfa_rejects_bad_region_labels(regions):
    # a (2, 1) grid has regions 0 and 1; an unchecked label would score
    # its cuboid against no columns or another region's
    bank, block, _ = bank_and_cuboids("sdsfa")
    with pytest.raises(InvalidInput):
        features.bank_squared_derivatives(block[:3], bank, regions)


@pytest.mark.parametrize("strategy", sfa.STRATEGIES)
def test_empty_block_gives_no_rows(strategy):
    bank, block, regions = bank_and_cuboids(strategy)
    out = features.bank_squared_derivatives(
        block[:0], bank, None if regions is None else regions[:0])
    assert out.shape == (0, bank.k_total)


@pytest.mark.parametrize("shape", [(7, 4, 4), (2, 1, 7, 4, 4), ()])
def test_block_that_is_not_4d_is_rejected(shape):
    bank, _, _ = bank_and_cuboids("dsfa")
    with pytest.raises(InvalidDimension):
        features.bank_squared_derivatives(np.zeros(shape), bank)


# ---------------------------------------------------------------------------
# mirroring


def test_mirror_permutes_region_blocks():
    values = np.arange(24.0).reshape(2, 12)  # grid (2, 3), block dim 2
    m = features.mirror_features(values, (2, 3))
    # blocks [0 1 2 3 4 5] -> [1 0 3 2 5 4], row by row
    expected = np.concatenate([values[:, 2:4], values[:, 0:2],
                               values[:, 6:8], values[:, 4:6],
                               values[:, 10:12], values[:, 8:10]], axis=1)
    assert np.array_equal(m, expected)


def test_mirror_is_involution_bit_exact():
    rng = np.random.default_rng(11)
    values = rng.random((4, 30))  # grid (2, 3), block dim 5
    twice = features.mirror_features(
        features.mirror_features(values, (2, 3)), (2, 3))
    assert twice.tobytes() == values.tobytes()


def test_mirror_trivial_grid_is_identity():
    values = np.arange(6.0)[None]
    m = features.mirror_features(values, (1, 1))
    assert np.array_equal(m, values)


def test_mirror_rejects_dim_mismatch():
    # a matrix of rows, not one feature vector
    with pytest.raises(InvalidDimension):
        features.mirror_features(np.zeros(12), (2, 3))


@pytest.mark.parametrize("grid", [(2.7, 3), (2, 3.5), (2, np.nan), (0, 3)])
def test_mirror_rejects_a_grid_that_is_not_whole_counts(grid):
    # truncated, (2.7, 3) mirrored as 2x3; a 0 count divided by zero
    with pytest.raises(InvalidDimension, match="integers"):
        features.mirror_features(np.zeros((2, 12)), grid)


@pytest.mark.parametrize("grid", [2, (2, 3, 1), ((2, 1), 3)])
def test_mirror_rejects_a_grid_of_another_length(grid):
    # unpacked, these escaped as a TypeError and a ValueError, and
    # np.asarray of the ragged ((2, 1), 3) as numpy's ValueError
    with pytest.raises(InvalidDimension, match="2 integers"):
        features.mirror_features(np.zeros((2, 12)), grid)


@pytest.mark.parametrize("width", [10, 13, 3])
def test_mirror_rejects_a_width_the_grid_does_not_divide(width):
    with pytest.raises(InvalidDimension):
        features.mirror_features(np.zeros((2, width)), (2, 3))


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
    return cuboid.difference_sequence(seq)


def featurize_bank(diff_seq, size=(4, 4, 4), delta_t=2):
    masks = cuboid.motion_masks(diff_seq)
    picks = cuboid.sample_cuboids(masks, 0.5, size, rng_seed=0)
    block = cuboid.crop_cuboids(diff_seq.frames, *picks.T, size)
    return sfa.fit_bank("usfa", cuboid.window_rows(block, delta_t), pca_dim=6,
                        k=2)


def test_featurize_one_feature_per_snippet():
    diff_seq = diff_of(moving_square_sequence())
    bank = featurize_bank(diff_seq)
    out = features.featurize_sequence(diff_seq, bank, (4, 4, 4),
                                      fraction=0.5, seed=3)
    assert len(out) == diff_seq.num_frames - 4 + 1
    for i, f in enumerate(out):
        assert f.start == i
        assert f.values.shape == (bank.k_total,)
        if f.normalized:
            assert abs(f.values.sum() - 1.0) < L1_TOL


def test_featurize_stride():
    diff_seq = diff_of(moving_square_sequence())
    bank = featurize_bank(diff_seq)
    out = features.featurize_sequence(diff_seq, bank, (4, 4, 4),
                                      fraction=0.5, seed=3, stride=3)
    assert [f.start for f in out] == [0, 3, 6]


@pytest.mark.parametrize("size,stride", [((2.9, 2, 3), 1), ((4, 4, 4.5), 1),
                                         ((4, 4, 4), 1.5), ((4, 4, 4), np.nan)])
def test_featurize_rejects_a_fractional_size_or_stride(size, stride):
    # truncated, (2.9, 2, 3) failed with a TooShort about the window,
    # and stride 1.5 escaped as a TypeError
    diff_seq = diff_of(moving_square_sequence())
    bank = featurize_bank(diff_seq)
    with pytest.raises(InvalidInput, match="integers"):
        features.featurize_sequence(diff_seq, bank, size, 0.5, seed=3,
                                    stride=stride)


@pytest.mark.parametrize("size,stride", [(2, 1), ((2, 2), 1),
                                         ((4, 4, 4), [2]),
                                         ((4, 4, 4), (2, 3))])
def test_featurize_rejects_a_size_or_stride_of_another_shape(size, stride):
    # unpacked or cast, these escaped as a TypeError or a ValueError
    diff_seq = diff_of(moving_square_sequence())
    bank = featurize_bank(diff_seq)
    with pytest.raises(InvalidInput, match="integers"):
        features.featurize_sequence(diff_seq, bank, size, 0.5, seed=3,
                                    stride=stride)


def test_featurize_takes_whole_float_sizes_and_strides():
    diff_seq = diff_of(moving_square_sequence())
    bank = featurize_bank(diff_seq)
    a = features.featurize_sequence(diff_seq, bank, (4, 4, 4), 0.5, seed=3,
                                    stride=3)
    b = features.featurize_sequence(diff_seq, bank, (4.0, 4.0, 4.0), 0.5,
                                    seed=3, stride=np.float64(3.0))
    assert [(f.start, f.values.tobytes()) for f in a] == \
        [(f.start, f.values.tobytes()) for f in b]


def test_featurize_deterministic():
    diff_seq = diff_of(moving_square_sequence())
    bank = featurize_bank(diff_seq)
    a = features.featurize_sequence(diff_seq, bank, (4, 4, 4), 0.5, seed=9)
    b = features.featurize_sequence(diff_seq, bank, (4, 4, 4), 0.5, seed=9)
    assert all(x.values.tobytes() == y.values.tobytes() for x, y in zip(a, b))


def test_sdsfa_featurizes_a_sequence_without_boxes_over_the_whole_frame():
    bank, _, _ = bank_and_cuboids("sdsfa")
    boxed = diff_of(moving_square_sequence())
    assert np.array_equal(boxed.boxes, np.tile([0, 0, 16, 16], (11, 1)))

    def featurize(seq):
        return [(f.start, f.normalized, f.values.tobytes())
                for f in features.featurize_sequence(seq, bank, (4, 4, 6),
                                                     fraction=0.5, seed=3)]
    out = featurize(cuboid.FrameSequence(boxed.frames))
    assert out == featurize(boxed)
    assert sum(normalized for _, normalized, _ in out) >= 2


# the bank reads 32-d windows: 4x4 patches of 2 frames, or 32x1 and
# 1x32 patches of one frame, which do not fit the 16x16 frames
@pytest.mark.parametrize("size,stride", [((4, 4, 4), 0), ((32, 1, 4), 1),
                                         ((1, 32, 4), 1)])
def test_featurize_rejects_a_zero_stride_or_a_cuboid_wider_than_frames(
        size, stride):
    diff_seq = diff_of(moving_square_sequence())
    bank = featurize_bank(diff_seq)
    assert bank.pca.in_dim == 32
    with pytest.raises(InvalidInput):
        features.featurize_sequence(diff_seq, bank, size, 0.5, seed=0,
                                    stride=stride)


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
