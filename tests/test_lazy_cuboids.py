"""The training set is cut lazily from raw pixels, to the eager bits.

``pipeline._training_cuboids`` keeps each training sequence's uint8
pixels, its normalization and the picks; a ``cuboid.LazyCuboids`` cuts
a cuboid only when a pass reads it.  These tests pin that every cut is
byte-equal to ``crop_cuboids`` of the sequence's normalized frame
differences, that a fit on the lazy set equals a fit on its
materialized array byte for byte, and that no array of crops is held.
"""

import dataclasses
import os

import numpy as np
import pytest

from slowfeat import benchmark, cuboid, dataio, linalg, pipeline, sfa
from slowfeat.errors import InvalidDelta, InvalidDimension


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    """The desk benchmark dataset (seed 0) and its training split."""
    workdir = str(tmp_path_factory.mktemp("desk"))
    config = benchmark.bench_config(0, workdir)
    pipeline.cmd_synth(config)
    entries = pipeline.load_entries(config)
    train, _ = pipeline.split_entries(entries, config)
    return config, entries, train


@pytest.fixture(scope="module")
def training_sets(desk):
    """The dsfa and sdsfa training sets of the desk run."""
    config, entries, train = desk
    out = {}
    for strategy in ("dsfa", "sdsfa"):
        cfg = dataclasses.replace(config, strategy=strategy)
        out[strategy] = (cfg, pipeline._training_cuboids(cfg, entries, train))
    return out


@pytest.mark.parametrize("strategy", ["dsfa", "sdsfa"])
def test_every_lazy_crop_is_byte_equal_to_the_eager_crop(desk, training_sets,
                                                         strategy):
    _, _, train = desk
    config, cuboids = training_sets[strategy]
    data = cuboids.data
    assert len(data) == 7200
    got = data[:]
    assert got.shape == data.shape == (len(data),) + (
        config.cuboid_d, config.cuboid_h, config.cuboid_w)
    for s, entry in enumerate(train):
        mine = data.picks[:, 0] == s
        eager = cuboid.crop_cuboids(
            pipeline._entry_diff(config, entry).frames,
            *data.picks[mine, 1:].T, config.cuboid_size)
        assert got[mine].tobytes() == eager.tobytes()


def test_indexing_reads_like_the_materialized_array(training_sets):
    config, cuboids = training_sets["sdsfa"]
    data = cuboids.data
    whole = data[:]
    rng = np.random.default_rng(0)
    order = rng.permutation(len(data))[:500]
    mask = cuboids.regions == 1
    for index in (order, mask, slice(100, 1300, 7), 3, -1):
        assert data[index].tobytes() == whole[index].tobytes()
    windows = data.windows(config.delta_t)
    rows = cuboid.window_rows(whole, config.delta_t)
    assert windows.shape == rows.shape
    assert windows[order].tobytes() == rows[order].tobytes()
    assert windows[[]].shape == (0,) + rows.shape[1:]
    with pytest.raises(InvalidDelta):
        data.windows(config.cuboid_d + 1)


FITS = {
    "usfa": lambda x, c, cfg: sfa.fit_usfa(x, cfg.pca_dim, cfg.k_per_class),
    "ssfa": lambda x, c, cfg: sfa.fit_ssfa(x, c.labels, cfg.pca_dim,
                                           cfg.k_per_class),
    "dsfa": lambda x, c, cfg: sfa.fit_dsfa(x, c.labels, cfg.pca_dim,
                                           cfg.k_per_class, gamma=cfg.gamma),
    "sdsfa": lambda x, c, cfg: sfa.fit_sdsfa(
        x, c.labels, c.regions, cfg.grid, cfg.pca_dim, cfg.k_per_class,
        gamma=cfg.gamma),
}


@pytest.mark.parametrize("strategy", sfa.STRATEGIES)
def test_fits_on_the_lazy_and_the_materialized_set_are_byte_identical(
        training_sets, tmp_path, strategy):
    config, cuboids = training_sets["sdsfa"]
    lazy = cuboids.data.windows(config.delta_t)
    paths = [tmp_path / "lazy.sfam", tmp_path / "array.sfam"]
    for path, minis in zip(paths, (lazy, lazy[:])):
        dataio.save_bank(path, FITS[strategy](minis, cuboids, config))
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_as_minisequences_passes_the_lazy_set_through(training_sets):
    config, cuboids = training_sets["dsfa"]
    lazy = cuboids.data.windows(config.delta_t)
    assert linalg.as_minisequences(lazy) is lazy
    # lists still become one array, and ragged ones are still rejected
    assert linalg.as_minisequences([np.zeros((3, 2))] * 2).shape == (2, 3, 2)
    with pytest.raises(InvalidDimension):
        linalg.as_minisequences([np.zeros((3, 2)), np.zeros((4, 2))])


def _held_bytes(value, seen):
    """Bytes of every array reachable from ``value`` through tuples,
    lists and dataclass fields, each buffer counted once."""
    if isinstance(value, np.ndarray):
        base = value if value.base is None else value.base
        if id(base) in seen:
            return 0
        seen.add(id(base))
        return base.nbytes if isinstance(base, np.ndarray) else len(base)
    if isinstance(value, (tuple, list)):
        return sum(_held_bytes(v, seen) for v in value)
    if dataclasses.is_dataclass(value):
        return sum(_held_bytes(getattr(value, f.name), seen)
                   for f in dataclasses.fields(value))
    return 0


@pytest.mark.parametrize("strategy", ["dsfa", "sdsfa"])
def test_training_holds_the_pixels_and_picks_not_the_crops(desk,
                                                           training_sets,
                                                           strategy):
    config, entries, train = desk
    _, cuboids = training_sets[strategy]
    data = cuboids.data
    pixels = sum(dataio.load_sequence(
        os.path.join(config.data_dir, e.video)).nbytes for e in train)
    assert all(p.dtype == np.uint8 for p in data.pixels)
    assert data.picks.shape == (len(data), 4)
    # the pixels, the picks, labels and regions, and one (mean, std)
    # per training sequence; one float array of the crops is far more
    bound = (pixels + data.picks.nbytes + cuboids.labels.nbytes
             + (0 if cuboids.regions is None else cuboids.regions.nbytes)
             + 16 * len(train))
    assert _held_bytes(tuple(cuboids), set()) <= bound
    assert 8 * np.prod(data.shape) > bound
