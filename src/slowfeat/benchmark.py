"""Seeded end-to-end runs on the synthetic action benchmark.

One call generates a dataset, fits banks for the requested strategies,
trains the linear classifier, and scores the held-out split.  A
raw-pixel baseline feeds PCA of pooled snippet pixels to the identical
classifier, so representation quality is the only difference between
the two accuracy numbers.  The stages are the ``pipeline`` functions
behind the CLI subcommands, and the baseline derives its classifier
seed from the same stage tag.  Used by the experiment scripts, the
acceptance tests and the performance benchmark.
"""

import dataclasses
import os

import numpy as np

from . import classify, dataio, linalg, pipeline
from .config import RunConfig

# spatial block-mean pooling factor for raw-pixel snippets; keeps the
# baseline PCA covariance at a tractable size
BASELINE_POOL = 4


def bench_config(seed, workdir, **overrides) -> RunConfig:
    """Benchmark-scale configuration rooted at ``workdir``.

    4 classes x 20 sequences of 60 frames, split 15/5 per class.
    """
    fields = dict(
        strategy="dsfa",
        classes=4,
        sequences_per_class=20,
        train_per_class=15,
        frames=60,
        height=48,
        width=64,
        noise_sigma=2.0,
        cuboid_h=10,
        cuboid_w=10,
        cuboid_d=6,
        delta_t=3,
        pca_dim=20,
        k_per_class=20,
        gamma=0.2,
        fraction=0.15,
        max_cuboids=120,
        stride=2,
        epochs=100,
        # ASD features are unit L1 norm, so hinge margins need far
        # larger weights than the generic default regularizer allows
        reg=1e-3,
        seed=seed,
        data_dir=os.path.join(workdir, "data"),
    )
    fields.update(overrides)
    return _with_paths(RunConfig(**fields), workdir)


def _with_paths(config, workdir):
    tag = config.strategy
    return dataclasses.replace(
        config,
        model_path=os.path.join(workdir, tag + ".sfam"),
        features_dir=os.path.join(workdir, "features-" + tag),
        classifier_path=os.path.join(workdir, tag + ".sfac"),
        report_path=os.path.join(workdir, tag + "-report.txt"),
        results_path=os.path.join(workdir, tag + "-results.txt"),
    )


def artifact_paths(config):
    """Every file the pipeline writes for ``config``, feature files last."""
    paths = [config.model_path, config.classifier_path,
             config.report_path, config.results_path]
    if os.path.isdir(config.features_dir):
        paths.extend(os.path.join(config.features_dir, name)
                     for name in sorted(os.listdir(config.features_dir)))
    return paths


def run_strategy(config):
    """train -> featurize -> fit-classifier -> evaluate on existing data;
    returns the results that evaluate wrote."""
    pipeline.cmd_train(config)
    pipeline.cmd_featurize(config)
    pipeline.cmd_fit_classifier(config)
    return pipeline.cmd_evaluate(config)


def run_benchmark(seed, workdir, strategies=("dsfa",), baseline=True):
    """One seeded benchmark run; strategies share the same dataset.

    Returns ``{"configs": {name: RunConfig}, "strategies": {name:
    results dict}, "baseline": results dict | None}``.
    """
    base = bench_config(seed, workdir, strategy=strategies[0])
    pipeline.cmd_synth(base)
    out = {"configs": {}, "strategies": {}, "baseline": None}
    for name in strategies:
        config = _with_paths(dataclasses.replace(base, strategy=name),
                             workdir)
        out["configs"][name] = config
        out["strategies"][name] = run_strategy(config)
    if baseline:
        out["baseline"] = baseline_results(base)
    return out


# ---------------------------------------------------------------------------
# raw-pixel baseline


def _pooled_snippets(pixels, length, stride, pool):
    """Block-mean pooled raw pixels of every snippet, one row each."""
    frames = pixels.astype(float)
    t, h, w = frames.shape
    hp, wp = h - h % pool, w - w % pool
    pooled = frames[:, :hp, :wp].reshape(
        t, hp // pool, pool, wp // pool, pool).mean(axis=(2, 4))
    return np.stack([pooled[s:s + length].reshape(-1)
                     for s in range(0, t - length + 1, stride)])


def baseline_results(config):
    """Raw-pixel snippets -> PCA -> the identical linear classifier.

    Snippets are pooled by ``BASELINE_POOL``.  The PCA keeps as many
    directions as the discriminative feature vectors are wide (classes
    * k_per_class), so the classifier sees inputs of the same size.
    """
    entries = pipeline.load_entries(config)
    train, test = pipeline.split_entries(entries, config)
    snippets = {}
    for entry in entries:
        pixels = dataio.load_sequence(
            os.path.join(config.data_dir, entry.video))
        snippets[entry.sequence_id] = _pooled_snippets(
            pixels, config.cuboid_d, config.stride, BASELINE_POOL)

    rows = np.vstack([snippets[e.sequence_id] for e in train])
    labels = np.concatenate([[e.label] * len(snippets[e.sequence_id])
                             for e in train])
    out_dim = config.classes * config.k_per_class
    pca = linalg.pca_fit(rows, min(out_dim, rows.shape[1]))
    clf = classify.train_linear(
        pca.transform(rows), labels, reg=config.reg, epochs=config.epochs,
        seed=pipeline.derive_seed(config.seed, pipeline.TAG_CLASSIFIER))

    seq_pred, seq_true = [], []
    for entry in test:
        predictions = classify.predict_many(
            clf, pca.transform(snippets[entry.sequence_id]))
        seq_pred.append(classify.majority_vote(predictions))
        seq_true.append(entry.label)
    confusion = classify.confusion_matrix(seq_pred, seq_true,
                                          class_labels=list(clf.class_labels))
    return {"sequences": len(test),
            "pca_dim": pca.out_dim,
            "sequence_accuracy": confusion.accuracy}
