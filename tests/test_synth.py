import dataclasses

import numpy as np
import pytest

from slowfeat import cuboid, pipeline, sfa, synth
from slowfeat.config import RunConfig
from slowfeat.errors import InvalidInput, InvalidSpec

import oracles


def noise_free(kind, **kw):
    return synth.SynthSpec(kind, noise_sigma=0.0, **kw)


# ---------------------------------------------------------------------------
# toy signal


def test_toy_shapes_and_determinism():
    obs, latent = synth.toy_slow_signal(200, seed=5)
    assert obs.shape == (200, 2)
    assert latent.shape == (200,)
    obs2, latent2 = synth.toy_slow_signal(200, seed=5)
    assert obs.tobytes() == obs2.tobytes()
    assert latent.tobytes() == latent2.tobytes()
    obs3, _ = synth.toy_slow_signal(200, seed=6)
    assert obs.tobytes() != obs3.tobytes()


def test_toy_latent_is_slowest():
    obs, latent = synth.toy_slow_signal(500, seed=0)
    d_latent = sfa.delta_value(latent)
    for j in range(2):
        assert d_latent < sfa.delta_value(obs[:, j])


def test_toy_too_short():
    with pytest.raises(InvalidInput):
        synth.toy_slow_signal(99)


def test_toy_quadratic_model_recovers_latent():
    obs, latent = synth.toy_slow_signal(600, seed=1)
    bank = sfa.fit_bank("usfa", [obs], pca_dim=2, k=2)
    y = sfa.apply(bank.models[0], obs)
    corr = np.corrcoef(y[:, 0], latent)[0, 1]
    assert abs(corr) > 0.95


# ---------------------------------------------------------------------------
# rendering determinism and quantization


def test_render_deterministic_and_noise_only_seeding():
    spec = synth.SynthSpec("blob_translate", seed=3)
    a = synth.render_action(spec)
    b = synth.render_action(spec)
    assert a.tobytes() == b.tobytes()
    # different seed, same trajectory: identical once noise is off
    quiet1 = synth.render_action(noise_free("blob_translate", seed=3))
    quiet2 = synth.render_action(noise_free("blob_translate", seed=99))
    assert quiet1.tobytes() == quiet2.tobytes()
    noisy2 = synth.render_action(
        dataclasses.replace(spec, seed=4))
    assert a.tobytes() != noisy2.tobytes()


@pytest.mark.parametrize("kind", synth.KINDS)
def test_render_is_u8_and_in_range(kind):
    frames = synth.render_action(synth.SynthSpec(kind, noise_sigma=60.0))
    assert frames.dtype == np.uint8
    assert frames.shape == (60, 48, 64)


@pytest.mark.parametrize("kind", synth.KINDS)
def test_every_kind_actually_moves(kind):
    frames = synth.render_action(noise_free(kind)).astype(float)
    diffs = np.abs(np.diff(frames, axis=0))
    moving_pairs = (diffs.reshape(len(diffs), -1).max(axis=1) > 0).mean()
    assert moving_pairs > 0.8
    assert diffs.sum() > 0


def test_translate_differences_hug_the_blob():
    spec = noise_free("blob_translate", size=5.0, speed=1.0)
    frames = synth.render_action(spec).astype(float)
    cys, cxs, hhs, _ = synth._trajectory(spec)
    diffs = np.abs(np.diff(frames, axis=0))
    ys = np.arange(spec.height)[:, None] + 0.5
    xs = np.arange(spec.width)[None, :] + 0.5
    for t in range(len(diffs)):
        active = diffs[t] > 0
        near = np.zeros_like(active)
        for u in (t, t + 1):
            dist = np.hypot(ys - cys[u], xs - cxs[u])
            near |= dist <= hhs[u] + 2.0
        assert not (active & ~near).any()


def test_bounce_stays_inside():
    spec = noise_free("blob_translate", speed=2.5, frames=120,
                      offset_x=-10.0)
    cys, cxs, hhs, _ = synth._trajectory(spec)
    assert (cxs - hhs[0] >= 0).all()
    assert (cxs + hhs[0] <= spec.width).all()


# ---------------------------------------------------------------------------
# spec validation


def test_invalid_specs_rejected():
    with pytest.raises(InvalidSpec):
        synth.SynthSpec("diagonal_bar")
    with pytest.raises(InvalidSpec):
        synth.SynthSpec("h_bar_oscillate", frames=10)
    with pytest.raises(InvalidSpec):
        synth.SynthSpec("h_bar_oscillate", size=60.0)  # thicker than frame
    with pytest.raises(InvalidSpec):
        synth.SynthSpec("h_bar_oscillate", amplitude=30.0)  # swings out
    with pytest.raises(InvalidSpec):
        synth.SynthSpec("blob_pulse", size=40.0)
    with pytest.raises(InvalidSpec):
        synth.SynthSpec("blob_translate", size=40.0)  # margins cross
    with pytest.raises(InvalidSpec):
        synth.SynthSpec("blob_translate", noise_sigma=-1.0)
    with pytest.raises(InvalidSpec):
        synth.SynthSpec("blob_pulse", period=0.0)


@pytest.mark.parametrize("kind,fields,what", [
    ("h_bar_oscillate", {"size": 0.0}, "size must be positive"),
    ("blob_pulse", {"size": -1.0}, "size must be positive"),
    ("v_bar_oscillate", {"amplitude": 40.0}, "bar oscillates out"),
    ("blob_translate", {"offset_y": -20.0}, "does not fit vertically")])
def test_invalid_specs_name_the_reason(kind, fields, what):
    with pytest.raises(InvalidSpec, match=what):
        synth.SynthSpec(kind, **fields)


@pytest.mark.parametrize("fields", [{"frames": 20.5}, {"height": 40.5},
                                    {"width": 56.25}, {"frames": np.nan}])
def test_fractional_frame_counts_and_sizes_rejected(fields):
    # drawn as one array, 20.5 frames would render as 21
    with pytest.raises(InvalidSpec, match="height, width and frames"):
        synth.SynthSpec("blob_pulse", **fields)


@pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
def test_non_finite_noise_rejected(sigma):
    with pytest.raises(InvalidSpec, match="noise_sigma"):
        synth.SynthSpec("blob_translate", noise_sigma=sigma)


# the type rule is read off the annotations, as RunConfig's is
SPEC_FLOATS = [f.name for f in dataclasses.fields(synth.SynthSpec)
               if f.type == "float"]


@pytest.mark.parametrize("seed", [2.5, 2.0, True, "3", None])
def test_spec_seed_must_be_an_integer(seed):
    # 2.5 constructed, then escaped render_action as a TypeError
    with pytest.raises(InvalidSpec, match="seed must be an integer"):
        synth.render_action(synth.SynthSpec("blob_pulse", seed=seed))


@pytest.mark.parametrize("value", ["3", True, None, [2.0]])
@pytest.mark.parametrize("field", SPEC_FLOATS)
def test_spec_float_fields_take_only_real_numbers(field, value):
    with pytest.raises(InvalidSpec, match=f"{field} must be a real number"):
        synth.SynthSpec("blob_pulse", **{field: value})


# noise_sigma's own case is test_non_finite_noise_rejected
@pytest.mark.parametrize("field", [f for f in SPEC_FLOATS
                                   if f != "noise_sigma"])
def test_spec_float_fields_must_be_finite(field):
    with pytest.raises(InvalidSpec, match=f"{field} must be finite"):
        synth.SynthSpec("blob_pulse", **{field: float("nan")})


def test_spec_takes_numpy_numbers():
    assert len(SPEC_FLOATS) == 8
    spec = synth.SynthSpec("blob_pulse", seed=np.int64(4), size=np.int32(5),
                           noise_sigma=np.float32(1.5))
    assert spec.seed == 4 and spec.size == 5
    assert synth.render_action(spec).shape == (60, 48, 64)


# ---------------------------------------------------------------------------
# sequence assembly


@pytest.mark.parametrize("kind,label", [(k, i)
                                        for i, k in enumerate(synth.KINDS)])
def test_generate_action_labels_and_boxes(kind, label):
    seq, got = synth.generate_action(synth.SynthSpec(kind))
    assert got == label
    assert isinstance(seq, cuboid.FrameSequence)
    assert seq.frames.shape == (60, 48, 64)
    assert np.array_equal(seq.boxes, np.tile([0, 0, 64, 48], (60, 1)))
    # the rendered u8 pixels, as the dataset stores them
    assert seq.frames.dtype == np.uint8


def test_generated_sequence_supports_the_pipeline():
    seq, _ = synth.generate_action(synth.SynthSpec("v_bar_oscillate",
                                                   seed=8))
    diff = cuboid.difference_sequence(seq)
    masks = cuboid.motion_masks(diff)
    cs = cuboid.sample_cuboids(masks, 0.25, (8, 8, 6), rng_seed=1)
    assert len(cs) > 50


# ---------------------------------------------------------------------------
# the class specs and the renderer against the code they replaced


@pytest.mark.parametrize("seed", [0, 1, 7, 123456])
@pytest.mark.parametrize("geometry", [(48, 64, 60, 2.0), (40, 56, 20, 0.5)])
def test_class_spec_matches_the_pipeline_draws(seed, geometry):
    height, width, frames, noise_sigma = geometry
    config = RunConfig(seed=seed, height=height, width=width, frames=frames,
                       noise_sigma=noise_sigma)
    for c in range(len(synth.KINDS)):
        for i in range(13):
            rng = np.random.default_rng(np.random.SeedSequence(
                [seed, pipeline.TAG_SYNTH, c, i]))
            got = synth.class_spec(c, i, rng, height, width, frames,
                                   noise_sigma)
            assert got == oracles.pipeline_spec_for(config, c, i)


@pytest.mark.parametrize("kind", synth.KINDS)
@pytest.mark.parametrize("noise_sigma", [0.0, 3.0])
@pytest.mark.parametrize("motion", [
    {},
    {"phase": 1.3, "offset_y": 2.5, "offset_x": -3.25, "speed": -1.2},
    {"phase": 4.0, "offset_y": -1.75, "offset_x": 4.5, "size": 4.5,
     "period": 7.0, "amplitude": 6.0}])
def test_render_matches_the_frame_loop(kind, noise_sigma, motion):
    spec = synth.SynthSpec(kind, frames=30, noise_sigma=noise_sigma, seed=5,
                           **motion)
    got = synth.render_action(spec)
    assert got.dtype == np.uint8
    assert got.tobytes() == oracles.frame_loop_render(spec).tobytes()


def test_render_matches_the_frame_loop_on_dataset_specs():
    config = RunConfig(seed=3)
    for c in range(len(synth.KINDS)):
        for i in range(4):
            spec = oracles.pipeline_spec_for(config, c, i)
            assert synth.render_action(spec).tobytes() == \
                oracles.frame_loop_render(spec).tobytes()
