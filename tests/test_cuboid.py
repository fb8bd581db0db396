import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowfeat import cuboid
from slowfeat.errors import (
    DegenerateSequence,
    InvalidDelta,
    InvalidDimension,
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
    frames = rng.integers(0, 256, size=(6, 8, 9)).astype(np.uint8)
    mean, std = cuboid.normalization(frames)
    assert mean == frames.astype(float).mean()
    assert std == frames.astype(float).std()
    # differences of normalized frames do not see a gain or an offset
    out = cuboid.difference_sequence(cuboid.FrameSequence(frames))
    scaled = cuboid.difference_sequence(cuboid.FrameSequence(3.0 * frames + 7.0))
    assert np.allclose(out.frames, scaled.frames, rtol=0, atol=1e-12)


def test_normalize_constant_sequence_rejected():
    seq = cuboid.FrameSequence(np.full((4, 5, 5), 7, dtype=np.uint8))
    with pytest.raises(DegenerateSequence):
        cuboid.difference_sequence(seq)


def test_frame_difference_hand_case():
    frames = np.stack([np.full((3, 3), v, dtype=float) for v in (1.0, 4.0, 2.0)])
    out = cuboid.normalized_differences(frames, 0.0, 1.0)
    assert out.shape == (2, 3, 3)
    assert np.all(out[0] == 3.0)
    assert np.all(out[1] == -2.0)
    # an (n, T, h, w) stack is differenced along each cuboid's frames
    stack = cuboid.normalized_differences(np.stack([frames, -frames]), 0.0, 1.0)
    assert np.array_equal(stack, np.stack([out, -out]))


def test_frame_difference_static_sequence_is_zero():
    frames = np.tile(np.arange(9.0).reshape(1, 3, 3), (5, 1, 1))
    out = cuboid.normalized_differences(frames, 0.0, 1.0)
    assert np.abs(out).max() == 0.0


def test_frame_difference_carries_boxes_of_first_frame():
    frames = np.arange(3 * 6 * 6, dtype=float).reshape(3, 6, 6)
    boxes = np.array([[0, 0, 4, 4], [1, 1, 4, 4], [2, 2, 4, 4]])
    out = cuboid.difference_sequence(cuboid.FrameSequence(frames, boxes))
    assert out.num_frames == 2
    assert np.array_equal(out.boxes, boxes[:2])


def test_a_sequence_without_boxes_has_the_whole_frame_as_every_box():
    frames = np.arange(3 * 5 * 7, dtype=float).reshape(3, 5, 7)
    seq = cuboid.FrameSequence(frames)
    assert np.array_equal(seq.boxes, np.tile([0, 0, 7, 5], (3, 1)))
    assert np.array_equal(cuboid.difference_sequence(seq).boxes,
                          np.tile([0, 0, 7, 5], (2, 1)))


@pytest.mark.parametrize("frames,boxes", [
    (np.zeros((5, 5)), None), (np.zeros((2, 1, 5, 5)), None),
    (np.zeros((0, 5, 5)), None), (np.zeros((2, 5, 5)), np.zeros((3, 4))),
    (np.zeros((2, 5, 5)), np.zeros((2, 5))), (np.zeros((2, 5, 5)),
                                              np.zeros(4)),
    (np.zeros((2, 5, 5)), [[0, 0, 5, 5], [0, 0, 5]]),
    ([[[0, 1]], [[1]]], None)])
def test_frame_sequence_rejects_frames_or_boxes_of_another_shape(frames,
                                                                 boxes):
    # np.asarray of the ragged box rows escaped as numpy's ValueError,
    # and ragged frames as the builtin AttributeError
    with pytest.raises(InvalidDimension):
        cuboid.FrameSequence(frames, boxes)


@pytest.mark.parametrize("frames", [
    np.full((3, 4, 4), "a"), np.ones((3, 4, 4), dtype=object),
    [[[None, None]], [[None, None]]], np.ones((3, 4, 4), dtype=complex)])
def test_frame_sequence_rejects_frames_that_are_not_real_numbers(frames):
    # string frames escaped difference_sequence as the builtin
    # ValueError, and object frames as the builtin TypeError
    with pytest.raises(InvalidInput, match="dtype"):
        cuboid.FrameSequence(frames)


def test_frame_sequence_takes_nested_lists_of_frames():
    # .ndim of the list escaped as the builtin AttributeError
    seq = cuboid.FrameSequence([[[0, 1]], [[1, 0]]])
    assert seq.frames.tolist() == [[[0, 1]], [[1, 0]]]
    assert seq.boxes.tolist() == [[0, 0, 2, 1], [0, 0, 2, 1]]
    frames = np.zeros((2, 1, 2), dtype=np.uint8)
    assert cuboid.FrameSequence(frames).frames is frames


@pytest.mark.parametrize("box", [(2.5, 0, 4.9, 9), (2, 0, 4, np.nan),
                                 (2, 0, np.inf, 9)])
def test_frame_sequence_rejects_a_box_that_is_not_whole_pixels(box):
    # truncated by the mask but not by region_label, (2.5, 0, 4.9, 9)
    # kept pixel (x, y) = (2, 1), which region_label put outside the box
    with pytest.raises(InvalidInput, match="integers"):
        cuboid.FrameSequence(np.zeros((1, 10, 10)), np.array([box]))


def test_frame_sequence_keeps_integer_valued_boxes_as_int64():
    frames = np.random.default_rng(0).normal(size=(1, 10, 10))
    seq = cuboid.FrameSequence(frames, np.array([[2.0, 0.0, 4.0, 9.0]]))
    assert seq.boxes.dtype == np.int64
    assert seq.boxes.tolist() == [[2, 0, 4, 9]]
    # every pixel the mask keeps lies inside its own box
    ts, ys, xs = np.nonzero(cuboid.motion_masks(seq))
    assert len(ts) and ((xs >= 2) & (xs < 6) & (ys < 9)).all()
    assert cuboid.region_label((xs, ys), seq.boxes[ts].T, (2, 1)).shape \
        == xs.shape


def test_frame_difference_too_short():
    with pytest.raises(TooShort):
        cuboid.difference_sequence(cuboid.FrameSequence(np.zeros((1, 3, 3))))


# ---------------------------------------------------------------------------
# Sobel motion boundaries


@pytest.mark.parametrize("shape", [(5,), (1, 2, 5, 5)])
def test_sobel_rejects_frames_that_are_not_2d_or_3d(shape):
    with pytest.raises(InvalidDimension):
        cuboid.gradient_magnitude(np.zeros(shape))


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
    # the oracle's math.hypot and the package's sqrt(gx*gx + gy*gy)
    # may round the last bit differently
    loops = np.stack([oracles.loop_sobel_magnitude(f) for f in frames])
    assert np.allclose(stacked, loops, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(SEED, st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=9),
       st.integers(min_value=1, max_value=9))
def test_sobel_bit_equals_the_multiplied_taps(seed, t, h, w):
    # adding and subtracting the taps gives the multiplied taps' bits,
    # also on infinities, NaNs and zeros of either sign
    rng = np.random.default_rng(seed)
    frames = rng.normal(size=(t, h, w))
    special = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 1e308])
    spots = rng.random(frames.shape) < 0.2
    frames[spots] = rng.choice(special, size=int(spots.sum()))
    with np.errstate(over="ignore", invalid="ignore"):
        for stack in (frames, frames[0]):
            assert (cuboid.gradient_magnitude(stack).tobytes()
                    == oracles.tap_loop_gradient_magnitude(stack).tobytes())


def test_sobel_bit_equals_the_multiplied_taps_on_a_desk_sized_stack():
    frames = np.random.default_rng(5).normal(size=(59, 48, 64))
    assert (cuboid.gradient_magnitude(frames).tobytes()
            == oracles.tap_loop_gradient_magnitude(frames).tobytes())


def two_step_frames(t=3):
    # steps of 1 (columns 3|4) and 10 (columns 8|9): interior magnitudes
    # 4 and 40, so the threshold is a tenth of 40, exactly 4
    f = np.zeros((7, 15))
    f[:, 4:] = 1.0
    f[:, 9:] = 11.0
    return np.repeat(f[None], t, axis=0)


def test_motion_masks_compare_strictly():
    frames = two_step_frames()
    magnitude = cuboid.gradient_magnitude(frames)
    assert cuboid.default_delta(magnitude) == 4.0
    assert (magnitude == 4.0).any()
    masks = cuboid.motion_masks(cuboid.FrameSequence(frames))
    assert masks.shape == frames.shape and masks.dtype == bool
    expected = np.zeros(frames.shape, bool)
    expected[:, 1:-1, 8:10] = True  # a magnitude of 4 is not above 4
    assert np.array_equal(masks, expected)
    # a still sequence has threshold 0, which no magnitude exceeds
    still = cuboid.motion_masks(cuboid.FrameSequence(np.zeros((2, 5, 5))))
    assert not still.any()


def test_motion_masks_leave_the_border_unmarked():
    frames = np.random.default_rng(4).normal(size=(3, 9, 11))
    masks = cuboid.motion_masks(cuboid.FrameSequence(frames))
    assert masks[:, 1:-1, 1:-1].any()
    interior = np.zeros(frames.shape, bool)
    interior[:, 1:-1, 1:-1] = True
    assert not (masks & ~interior).any()


def test_motion_masks_match_per_frame_boundaries():
    # each frame's mask is the sequence's boundaries cleared outside
    # that frame's box
    rng = np.random.default_rng(5)
    frames = rng.normal(size=(5, 12, 14))
    boxes = np.array([[1 + t, 2, 9 - t, 8] for t in range(5)])
    unboxed = cuboid.motion_masks(cuboid.FrameSequence(frames))
    masks = cuboid.motion_masks(cuboid.FrameSequence(frames, boxes))
    assert masks.shape == frames.shape and masks.dtype == bool
    for t, (bx, by, bw, bh) in enumerate(boxes):
        inside = np.zeros((12, 14), bool)
        inside[by:by + bh, bx:bx + bw] = True
        assert np.array_equal(masks[t], unboxed[t] & inside)
    assert masks.any() and not np.array_equal(masks, unboxed)


def test_motion_boundary_bbox_restriction():
    # the step edge marks rows 1-3 of columns 1-2; a 2x2 box at (1, 1)
    # keeps only rows 1-2 of them
    frames = step_edge_frame()[None]
    masks = cuboid.motion_masks(
        cuboid.FrameSequence(frames, np.array([[1, 1, 2, 2]])))
    expected = np.zeros((1, 5, 5), bool)
    expected[0, 1:3, 1:3] = True
    assert np.array_equal(masks, expected)


def test_motion_masks_reject_a_nan_threshold():
    frames = two_step_frames()
    frames[1, 3, 5] = np.nan
    with pytest.raises(InvalidInput):
        cuboid.motion_masks(cuboid.FrameSequence(frames))


def test_default_delta_is_tenth_of_p99():
    rng = np.random.default_rng(3)
    frames = rng.normal(size=(4, 12, 12))
    seq = cuboid.FrameSequence(frames)
    mags = np.concatenate([
        oracles.loop_sobel_magnitude(f)[1:-1, 1:-1].ravel() for f in frames])
    expected = 0.1 * np.percentile(mags, 99)
    magnitude = cuboid.gradient_magnitude(seq.frames)
    assert abs(cuboid.default_delta(magnitude) - expected) < 1e-12


# ---------------------------------------------------------------------------
# sampling


def interior_mask_sequence(n_pixels_side=10, frame=20, depth=1):
    frames = np.arange(depth * frame * frame, dtype=float).reshape(depth, frame, frame)
    seq = cuboid.FrameSequence(frames)
    mask = np.zeros((frame, frame), bool)
    lo = (frame - n_pixels_side) // 2
    mask[lo:lo + n_pixels_side, lo:lo + n_pixels_side] = True
    return seq, np.stack([mask] * depth)


def test_sample_quarter_fraction_exact_count():
    # fraction 0.25 on a mask of 100 pixels, all of which fit
    _, masks = interior_mask_sequence()
    out = cuboid.sample_cuboids(masks, fraction=0.25, size=(3, 3, 1),
                                rng_seed=0)
    assert len(out) == 25


def test_sample_full_fraction_takes_every_fitting_pixel():
    _, masks = interior_mask_sequence()
    out = cuboid.sample_cuboids(masks, fraction=1.0, size=(3, 3, 1),
                                rng_seed=1)
    assert len(out) == 100
    positions = {tuple(p) for p in out.tolist()}
    assert len(positions) == 100  # without replacement


def test_sample_skips_non_fitting_positions():
    _, masks = interior_mask_sequence(n_pixels_side=20)  # mask touches borders
    out = cuboid.sample_cuboids(masks, fraction=1.0, size=(5, 5, 1),
                                rng_seed=2)
    # centers need 2 pixels of margin, so only the inner 16x16 survive
    assert len(out) == 256


def test_sample_cuboid_data_matches_source():
    seq, masks = interior_mask_sequence(depth=1)
    out = cuboid.sample_cuboids(masks, fraction=0.1, size=(3, 5, 1),
                                rng_seed=3)
    frames = seq.frames
    data = cuboid.crop_cuboids(frames, *out.T, (3, 5, 1))
    for (t, y, x), block in zip(out, data):
        y0, x0 = y - 1, x - 2
        assert np.array_equal(block, frames[t:t + 1, y0:y0 + 3, x0:x0 + 5])


def test_sample_deterministic_and_seed_sensitive():
    seq, masks = interior_mask_sequence()
    a = cuboid.sample_cuboids(masks, 0.25, (3, 3, 1), rng_seed=7)
    b = cuboid.sample_cuboids(masks, 0.25, (3, 3, 1), rng_seed=7)
    c = cuboid.sample_cuboids(masks, 0.25, (3, 3, 1), rng_seed=8)
    assert a.tolist() == b.tolist()
    assert np.array_equal(cuboid.crop_cuboids(seq.frames, *a.T, (3, 3, 1)),
                          cuboid.crop_cuboids(seq.frames, *b.T, (3, 3, 1)))
    assert a.tolist() != c.tolist()


def test_sample_max_count_truncates_by_seeded_shuffle():
    _, masks = interior_mask_sequence()
    full = cuboid.sample_cuboids(masks, 1.0, (3, 3, 1), rng_seed=5)
    cut = cuboid.sample_cuboids(masks, 1.0, (3, 3, 1), rng_seed=5,
                                max_count=10)
    assert len(cut) == 10
    full_positions = {tuple(p) for p in full.tolist()}
    assert all(tuple(p) in full_positions for p in cut.tolist())


def test_sample_multi_frame_start_times():
    mask = np.zeros((12, 12), bool)
    mask[6, 6] = True
    masks = [mask] * 6
    out = cuboid.sample_cuboids(masks, 1.0, (3, 3, 4), rng_seed=0)
    # depth-4 cuboids fit at start frames 0..2 only
    assert sorted(out[:, 0]) == [0, 1, 2]


def test_sample_rejects_bad_fraction():
    _, masks = interior_mask_sequence()
    with pytest.raises(InvalidInput):
        cuboid.sample_cuboids(masks, 0.0, (3, 3, 1), rng_seed=0)


# truncated, a fractional size such as (2.9, 2, 3) was sampled as 2x2x3;
# the masks must be one (T, H, W) stack, not one (H, W) frame or a 4-D one
@pytest.mark.parametrize("size,mask_shape", [
    ((0, 3, 1), (1, 20, 20)), ((3, 3, 0), (1, 20, 20)), ((3, 3, 1), (20, 20)),
    ((2.9, 2, 3), (1, 20, 20)), ((3, 3, 1.5), (1, 20, 20)),
    ((3, np.nan, 1), (1, 20, 20)), ((3, 3, 1), (1, 1, 20, 20))])
def test_sample_rejects_a_bad_size_or_a_mask_of_another_shape(size,
                                                              mask_shape):
    with pytest.raises(InvalidDimension):
        cuboid.sample_cuboids(np.ones(mask_shape, bool), 1.0, size,
                              rng_seed=0)


def test_sample_rejects_a_ragged_stack():
    masks = [np.ones((20, 20), bool), np.ones((20, 19), bool)]
    with pytest.raises(InvalidDimension, match="ragged"):
        cuboid.sample_cuboids(masks, 1.0, (3, 3, 1), rng_seed=0)


@pytest.mark.parametrize("size", [3, (3, 3), ((3, 3), 1)])
def test_sample_rejects_a_size_of_another_length(size):
    # unpacked, these escaped as a TypeError and a ValueError, and
    # np.asarray of the ragged ((3, 3), 1) as numpy's ValueError
    _, masks = interior_mask_sequence()
    with pytest.raises(InvalidDimension, match="3 integers"):
        cuboid.sample_cuboids(masks, 1.0, size, rng_seed=0)


def test_sample_takes_a_whole_float_size():
    _, masks = interior_mask_sequence(depth=4)
    a = cuboid.sample_cuboids(masks, 1.0, (3, 3, 2), rng_seed=0)
    b = cuboid.sample_cuboids(masks, 1.0, (3.0, 3.0, 2.0), rng_seed=0)
    assert len(a) and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("fraction", [1.5, 0.0, -1.0, float("nan")])
def test_pick_positions_rejects_bad_fraction(fraction):
    rng = np.random.default_rng(0)
    _, masks = interior_mask_sequence()
    for mask in (masks[0], np.zeros((20, 20), bool)):
        with pytest.raises(InvalidInput):
            cuboid.pick_positions(mask, fraction, (3, 3), rng)


# ---------------------------------------------------------------------------
# reformat


def make_block(d=7, h=2, w=3):
    """One (d, h, w) cuboid as a (1, d, h, w) block."""
    return np.arange(d * h * w, dtype=float).reshape(1, d, h, w)


def test_reformat_shapes_and_content():
    block = make_block()
    out = cuboid.window_rows(block, delta_t=3)[0]
    assert out.shape == (5, 2 * 3 * 3)
    flat = block[0].reshape(7, -1)
    for t in range(5):
        expected = np.concatenate([flat[t], flat[t + 1], flat[t + 2]])
        assert np.array_equal(out[t], expected)


def test_reformat_full_depth_round_trip():
    block = make_block(d=4)
    out = cuboid.window_rows(block, delta_t=4)[0]
    assert out.shape == (1, block.size)
    assert np.array_equal(out[0], block.ravel())


def test_reformat_window_one():
    block = make_block(d=3)
    out = cuboid.window_rows(block, delta_t=1)[0]
    assert out.shape == (3, 6)
    assert np.array_equal(out, block[0].reshape(3, -1))


def test_reformat_rejects_bad_delta():
    block = make_block(d=4)
    for bad in (0, 5, -1):
        with pytest.raises(InvalidDelta):
            cuboid.window_rows(block, bad)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=6),
       SEED)
def test_window_rows_match_loop_reformat(n, d, seed):
    rng = np.random.default_rng(seed)
    block = rng.normal(size=(n, d, 3, 2))
    delta_t = int(rng.integers(1, d + 1))
    rows = cuboid.window_rows(block, delta_t)
    for c, got in zip(block, rows):
        assert np.array_equal(got, oracles.loop_reformat(c, delta_t))


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


def test_region_labels_of_arrays():
    # each position against its own first-frame box
    boxes = np.array([[0, 0, 20, 10], [0, 0, 20, 10]])
    labels = cuboid.region_label((np.array([4, 14]), np.array([4, 4])),
                                 boxes.T, (2, 1))
    assert labels.tolist() == [0, 1]


def test_region_labels_of_arrays_match_scalar_calls():
    rng = np.random.default_rng(3)
    bbox = (10, 20, 80, 90)
    xs = rng.integers(10, 90, size=50)
    ys = rng.integers(20, 110, size=50)
    labels = cuboid.region_label((xs, ys), bbox, (3, 2))
    assert labels.tolist() == [cuboid.region_label((int(x), int(y)), bbox,
                                                   (3, 2))
                               for x, y in zip(xs, ys)]
    with pytest.raises(OutsideBoundingBox):
        cuboid.region_label((np.append(xs, 95), np.append(ys, 30)), bbox,
                            (3, 2))
