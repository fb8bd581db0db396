import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowfeat import cuboid
from slowfeat.errors import (
    DegenerateSequence,
    InvalidDelta,
    InvalidInput,
    OutsideBoundingBox,
    TooShort,
)

import oracles

SEED = st.integers(min_value=0, max_value=9999)


def step_edge_frame():
    # vertical step between columns 1 and 2
    f = np.zeros((5, 5))
    f[:, 2:] = 1.0
    return f


# ---------------------------------------------------------------------------
# normalization and differences


def test_normalize_zero_mean_unit_variance():
    rng = np.random.default_rng(0)
    seq = cuboid.FrameSequence(rng.integers(0, 256, size=(6, 8, 9)).astype(np.uint8))
    out = cuboid.normalize_sequence(seq)
    assert abs(out.frames.mean()) < 1e-12
    assert abs(out.frames.var() - 1.0) < 1e-10


def test_normalize_constant_sequence_rejected():
    seq = cuboid.FrameSequence(np.full((4, 5, 5), 7, dtype=np.uint8))
    with pytest.raises(DegenerateSequence):
        cuboid.normalize_sequence(seq)


def test_frame_difference_hand_case():
    frames = np.stack([np.full((3, 3), v, dtype=float) for v in (1.0, 4.0, 2.0)])
    out = cuboid.frame_difference(cuboid.FrameSequence(frames))
    assert out.num_frames == 2
    assert np.all(out.frames[0] == 3.0)
    assert np.all(out.frames[1] == -2.0)


def test_frame_difference_static_sequence_is_zero():
    frames = np.tile(np.arange(9.0).reshape(1, 3, 3), (5, 1, 1))
    out = cuboid.frame_difference(cuboid.FrameSequence(frames))
    assert np.abs(out.frames).max() == 0.0


def test_frame_difference_carries_boxes_of_first_frame():
    frames = np.zeros((3, 6, 6))
    boxes = np.array([[0, 0, 4, 4], [1, 1, 4, 4], [2, 2, 4, 4]])
    out = cuboid.frame_difference(cuboid.FrameSequence(frames, boxes))
    assert np.array_equal(out.boxes, boxes[:2])


def test_frame_difference_too_short():
    with pytest.raises(TooShort):
        cuboid.frame_difference(cuboid.FrameSequence(np.zeros((1, 3, 3))))


# ---------------------------------------------------------------------------
# Sobel motion boundaries


def test_sobel_step_edge_magnitude_four():
    mag = cuboid.gradient_magnitude(step_edge_frame())
    # interior pixels adjacent to the edge see magnitude 4, others 0
    for y in (1, 2, 3):
        assert mag[y, 1] == 4.0
        assert mag[y, 2] == 4.0
        assert mag[y, 3] == 0.0
    # border row/column stays zero
    assert np.abs(mag[0]).max() == 0.0
    assert np.abs(mag[:, 0]).max() == 0.0


@settings(max_examples=25, deadline=None)
@given(SEED, st.integers(min_value=3, max_value=8), st.integers(min_value=3, max_value=8))
def test_sobel_matches_loop_oracle(seed, h, w):
    frame = np.random.default_rng(seed).normal(size=(h, w))
    assert np.allclose(cuboid.gradient_magnitude(frame),
                       oracles.loop_sobel_magnitude(frame), atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(SEED, st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=8),
       st.integers(min_value=1, max_value=8))
def test_sobel_stack_bit_equals_per_frame_calls(seed, t, h, w):
    frames = np.random.default_rng(seed).normal(size=(t, h, w))
    stacked = cuboid.gradient_magnitude(frames)
    per_frame = np.stack([cuboid.gradient_magnitude(f) for f in frames])
    assert stacked.tobytes() == per_frame.tobytes()
    # math.hypot and numpy's hypot may round the last bit differently
    loops = np.stack([oracles.loop_sobel_magnitude(f) for f in frames])
    assert np.allclose(stacked, loops, atol=1e-12)


def test_motion_masks_match_per_frame_boundaries():
    rng = np.random.default_rng(5)
    frames = rng.normal(size=(5, 12, 14))
    boxes = np.array([[1, 2, 9, 8]] * 5)
    seq = cuboid.FrameSequence(frames, boxes)
    delta = cuboid.default_delta(seq)
    for use_boxes in (True, False):
        masks = cuboid.motion_masks(seq, use_boxes=use_boxes)
        for t, m in enumerate(masks):
            one = cuboid.motion_boundary(
                frames[t], delta, boxes[t] if use_boxes else None)
            assert m.delta == one.delta
            assert np.array_equal(m.mask, one.mask)


def test_motion_boundary_thresholding():
    mask = cuboid.motion_boundary(step_edge_frame(), delta=2.0).mask
    expected = np.zeros((5, 5), bool)
    expected[1:4, 1:3] = True
    assert np.array_equal(mask, expected)
    # an infinite threshold marks nothing
    none = cuboid.motion_boundary(step_edge_frame(), delta=np.inf).mask
    assert not none.any()


def test_motion_boundary_bbox_restriction():
    mask = cuboid.motion_boundary(step_edge_frame(), delta=2.0,
                                  bbox=(1, 1, 2, 2)).mask
    expected = np.zeros((5, 5), bool)
    expected[1:3, 1:3] = True
    assert np.array_equal(mask, expected)


def test_motion_boundary_rejects_negative_delta():
    with pytest.raises(InvalidInput):
        cuboid.motion_boundary(step_edge_frame(), delta=-1.0)


def test_default_delta_is_tenth_of_p99():
    rng = np.random.default_rng(3)
    frames = rng.normal(size=(4, 12, 12))
    seq = cuboid.FrameSequence(frames)
    mags = np.concatenate([
        oracles.loop_sobel_magnitude(f)[1:-1, 1:-1].ravel() for f in frames])
    expected = 0.1 * np.percentile(mags, 99)
    assert abs(cuboid.default_delta(seq) - expected) < 1e-12


# ---------------------------------------------------------------------------
# sampling


def interior_mask_sequence(n_pixels_side=10, frame=20, depth=1):
    frames = np.arange(depth * frame * frame, dtype=float).reshape(depth, frame, frame)
    seq = cuboid.FrameSequence(frames)
    mask = np.zeros((frame, frame), bool)
    lo = (frame - n_pixels_side) // 2
    mask[lo:lo + n_pixels_side, lo:lo + n_pixels_side] = True
    return seq, [cuboid.MotionMask(mask, 1.0)] * depth


def test_sample_quarter_fraction_exact_count():
    # fraction 0.25 on a mask of 100 pixels, all of which fit
    seq, masks = interior_mask_sequence()
    out = cuboid.sample_cuboids(seq, masks, fraction=0.25, size=(3, 3, 1),
                                rng_seed=0)
    assert len(out) == 25


def test_sample_full_fraction_takes_every_fitting_pixel():
    seq, masks = interior_mask_sequence()
    out = cuboid.sample_cuboids(seq, masks, fraction=1.0, size=(3, 3, 1),
                                rng_seed=1)
    assert len(out) == 100
    positions = {(c.t, c.y, c.x) for c in out}
    assert len(positions) == 100  # without replacement


def test_sample_skips_non_fitting_positions():
    seq, masks = interior_mask_sequence(n_pixels_side=20)  # mask touches borders
    out = cuboid.sample_cuboids(seq, masks, fraction=1.0, size=(5, 5, 1),
                                rng_seed=2)
    # centers need 2 pixels of margin, so only the inner 16x16 survive
    assert len(out) == 256


def test_sample_cuboid_data_matches_source():
    seq, masks = interior_mask_sequence(depth=1)
    out = cuboid.sample_cuboids(seq, masks, fraction=0.1, size=(3, 5, 1),
                                rng_seed=3)
    frames = seq.frames
    for c in out:
        y0, x0 = c.y - 1, c.x - 2
        assert np.array_equal(c.data, frames[c.t:c.t + 1, y0:y0 + 3, x0:x0 + 5])


def test_sample_deterministic_and_seed_sensitive():
    seq, masks = interior_mask_sequence()
    a = cuboid.sample_cuboids(seq, masks, 0.25, (3, 3, 1), rng_seed=7)
    b = cuboid.sample_cuboids(seq, masks, 0.25, (3, 3, 1), rng_seed=7)
    c = cuboid.sample_cuboids(seq, masks, 0.25, (3, 3, 1), rng_seed=8)
    assert [(q.t, q.y, q.x) for q in a] == [(q.t, q.y, q.x) for q in b]
    assert all(np.array_equal(p.data, q.data) for p, q in zip(a, b))
    assert [(q.t, q.y, q.x) for q in a] != [(q.t, q.y, q.x) for q in c]


def test_sample_max_count_truncates_by_seeded_shuffle():
    seq, masks = interior_mask_sequence()
    full = cuboid.sample_cuboids(seq, masks, 1.0, (3, 3, 1), rng_seed=5)
    cut = cuboid.sample_cuboids(seq, masks, 1.0, (3, 3, 1), rng_seed=5,
                                max_count=10)
    assert len(cut) == 10
    full_positions = {(q.t, q.y, q.x) for q in full}
    assert all((q.t, q.y, q.x) in full_positions for q in cut)


def test_sample_multi_frame_start_times():
    frames = np.zeros((6, 12, 12))
    seq = cuboid.FrameSequence(frames)
    mask = np.zeros((12, 12), bool)
    mask[6, 6] = True
    masks = [cuboid.MotionMask(mask, 0.5)] * 6
    out = cuboid.sample_cuboids(seq, masks, 1.0, (3, 3, 4), rng_seed=0)
    # depth-4 cuboids fit at start frames 0..2 only
    assert sorted(c.t for c in out) == [0, 1, 2]


def test_sample_rejects_bad_fraction():
    seq, masks = interior_mask_sequence()
    with pytest.raises(InvalidInput):
        cuboid.sample_cuboids(seq, masks, 0.0, (3, 3, 1), rng_seed=0)


# ---------------------------------------------------------------------------
# reformat


def make_cuboid(d=7, h=2, w=3):
    data = np.arange(d * h * w, dtype=float).reshape(d, h, w)
    return cuboid.Cuboid(x=1, y=1, t=0, data=data)


def test_reformat_shapes_and_content():
    c = make_cuboid()
    out = cuboid.reformat(c, delta_t=3)
    assert out.shape == (5, 2 * 3 * 3)
    flat = c.data.reshape(7, -1)
    for t in range(5):
        expected = np.concatenate([flat[t], flat[t + 1], flat[t + 2]])
        assert np.array_equal(out[t], expected)


def test_reformat_full_depth_round_trip():
    c = make_cuboid(d=4)
    out = cuboid.reformat(c, delta_t=4)
    assert out.shape == (1, c.data.size)
    assert np.array_equal(out[0], c.data.ravel())


def test_reformat_window_one():
    c = make_cuboid(d=3)
    out = cuboid.reformat(c, delta_t=1)
    assert out.shape == (3, 6)
    assert np.array_equal(out, c.data.reshape(3, -1))


def test_reformat_rejects_bad_delta():
    c = make_cuboid(d=4)
    for bad in (0, 5, -1):
        with pytest.raises(InvalidDelta):
            cuboid.reformat(c, bad)


# ---------------------------------------------------------------------------
# region labels


def test_region_center_of_even_box():
    # exact center of an even-sized box lands in the right/lower cell
    assert cuboid.region_label((50, 60), (0, 0, 100, 120), (2, 3)) == 3


def test_region_corners():
    bbox = (10, 20, 80, 90)
    grid = (2, 3)
    assert cuboid.region_label((10, 20), bbox, grid) == 0
    assert cuboid.region_label((89, 20), bbox, grid) == 1
    assert cuboid.region_label((10, 109), bbox, grid) == 4
    assert cuboid.region_label((89, 109), bbox, grid) == 5


def test_region_outside_box():
    with pytest.raises(OutsideBoundingBox):
        cuboid.region_label((5, 5), (10, 10, 20, 20), (2, 2))
    with pytest.raises(OutsideBoundingBox):
        cuboid.region_label((30, 15), (10, 10, 20, 20), (2, 2))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=1, max_value=60),
    SEED,
)
def test_region_mirror_property(nx, ny, cell_w, bh, seed):
    # when nx divides the box width, x-mirroring a position mirrors its
    # cell column and keeps its row
    bw = nx * cell_w
    rng = np.random.default_rng(seed)
    x = int(rng.integers(0, bw))
    y = int(rng.integers(0, bh))
    bbox = (0, 0, bw, bh)
    r = cuboid.region_label((x, y), bbox, (nx, ny))
    ix, iy = r % nx, r // nx
    mirrored = cuboid.region_label((bw - 1 - x, y), bbox, (nx, ny))
    assert mirrored == iy * nx + (nx - 1 - ix)


def test_with_region_labels():
    data = np.zeros((2, 3, 3))
    cuboids = [cuboid.Cuboid(x=4, y=4, t=0, data=data),
               cuboid.Cuboid(x=14, y=4, t=1, data=data)]
    boxes = np.array([[0, 0, 20, 10], [0, 0, 20, 10]])
    labeled = cuboid.with_region_labels(cuboids, boxes, (2, 1))
    assert [c.region_label for c in labeled] == [0, 1]
