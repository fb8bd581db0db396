"""Each stage's working set stays within what it must hold.

numpy reports every array allocation to ``tracemalloc``, so a stage's
traced peak above its starting level is a deterministic count of the
bytes it allocates.  On a small sdsfa desk run:

- fit-classifier holds the bank, its training rows once (on a grid of
  more than one column, each row's mirror written in place right after
  it) and about one sequence's matrix while reading; no list, stack or
  mirror of all rows;
- a fit and a sequence's featurize hold a few chunk-sized arrays above
  the pixels they are given, counted in units of one chunk's expanded
  minisequences (``linalg.CHUNK * length * D`` floats).
"""

import os
import tracemalloc

import pytest

from slowfeat import benchmark, cuboid, dataio, features, linalg, pipeline, sfa

# allowance on each bound for small arrays and Python objects
SLACK = 1.1
# a fit or a featurize holds a chunk's raw windows, their expanded rows
# and the products of each; one more chunk-sized copy exceeds this
CHUNK_MULTIPLE = 4.5


def traced_peak(fn, *args, **kwargs):
    """``(result, bytes)``: what ``fn`` returns and its traced peak
    above the level at its start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """A small sdsfa desk dataset, its training set and its bank (the
    fit's traced peak alongside)."""
    workdir = str(tmp_path_factory.mktemp("working-set"))
    config = benchmark.bench_config(2, workdir, strategy="sdsfa",
                                    sequences_per_class=6, train_per_class=4)
    pipeline.cmd_synth(config)
    entries = pipeline.load_entries(config)
    train, _ = pipeline.split_entries(entries, config)
    cuboids = pipeline._training_cuboids(config, entries, train)
    windows = cuboids.data.windows(config.delta_t)
    bank, fit_peak = traced_peak(
        sfa.fit_bank, config.strategy, windows, config.pca_dim,
        config.k_per_class, labels=cuboids.labels, regions=cuboids.regions,
        grid=config.grid, gamma=config.gamma)
    dataio.save_bank(config.model_path, bank)
    _, length, _ = windows.shape
    unit = linalg.CHUNK * length * bank.h0.shape[1] * 8
    return config, entries, train, bank, fit_peak, unit


def test_the_fit_holds_a_few_chunks(run):
    *_, fit_peak, unit = run
    assert fit_peak <= CHUNK_MULTIPLE * unit


def test_featurize_holds_a_few_chunks(run):
    config, entries, _, bank, _, unit = run
    for idx, entry in enumerate(entries):
        seq = cuboid.difference_sequence(pipeline._entry_sequence(config,
                                                                  entry))
        _, peak = traced_peak(
            features.featurize_sequence, seq, bank, config.cuboid_size,
            config.fraction,
            seed=pipeline.derive_seed(config.seed, pipeline.TAG_FEATURIZE,
                                      idx),
            stride=config.stride)
        assert peak <= CHUNK_MULTIPLE * unit, entry.sequence_id


def test_fit_classifier_writes_its_rows_once(run):
    config, _, train, bank, _, _ = run
    pipeline.cmd_featurize(config)
    # each training sequence's feature matrix, in bytes
    matrices = [8 * bank.k_total * len(dataio.load_features(os.path.join(
        config.features_dir, e.sequence_id + ".sfaf"))[1]) for e in train]
    rows = 2 * sum(matrices)  # each row and its mirror (a 2x3 grid)
    bank_bytes = sum(a.nbytes for a in (
        bank.pca.mean, bank.pca.projection, bank.pca.explained_eigenvalues,
        bank.h0, bank.w, bank.eigenvalues))
    _, peak = traced_peak(pipeline.cmd_fit_classifier, config)
    # the peak is set while the rows are read; an eighth of the rows'
    # bytes (one byte per value) stays allowed on top
    assert peak <= SLACK * (bank_bytes + rows + rows / 8 + max(matrices))
