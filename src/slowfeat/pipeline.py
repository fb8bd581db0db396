"""The pipeline stages: synthesize, train, featurize, classify, report.

One function per stage of the method: ``cmd_synth`` writes the labeled
dataset, each sequence's spec drawn by ``synth.class_spec`` (no kind is
named here), ``cmd_train`` samples cuboids at motion boundaries and
fits a slow-feature bank on them, holding the training split's raw
pixels and the picks and cutting each chunk of cuboids when the fit
reads it, ``cmd_featurize`` accumulates squared derivatives (ASD) into
per-snippet features and moves their files into place once every
sequence has succeeded, ``cmd_fit_classifier`` trains the linear
classifier, and ``cmd_evaluate`` votes per sequence and writes the
report.  Stages communicate through files only (their formats are in
``dataio``), so each can be rerun or inspected in isolation.  Every
stage derives its randomness from the run seed plus a fixed stage tag,
which makes whole-pipeline reruns bit-reproducible.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from collections import namedtuple

import numpy as np

from . import classify, cuboid, dataio, features, sfa, synth
from .errors import EmptyTrainingSet, InvalidInput

# stage tags for seed derivation
TAG_SYNTH = 0
TAG_SPLIT = 1
TAG_SAMPLE = 2
TAG_FEATURIZE = 4


def derive_seed(*parts) -> int:
    """One integer seed from the run seed, a stage tag and indices."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


# ---------------------------------------------------------------------------
# dataset: manifest, split and synthesis


def load_entries(config):
    """The manifest entries of the dataset in ``config.data_dir``."""
    return dataio.load_manifest(os.path.join(config.data_dir,
                                             dataio.MANIFEST_NAME))


def split_entries(entries, config):
    """Seeded per-class split into (train, test), manifest order kept."""
    by_label = {}
    for e in entries:
        by_label.setdefault(e.label, []).append(e)
    train_ids = set()
    for label, group in sorted(by_label.items()):
        if config.train_per_class >= len(group):
            raise InvalidInput(
                f"class {label} has {len(group)} sequences, cannot hold "
                f"out a test set after {config.train_per_class} for training")
        rng = np.random.default_rng(
            np.random.SeedSequence([config.seed, TAG_SPLIT, label]))
        order = rng.permutation(len(group))
        train_ids.update(group[i].sequence_id
                         for i in order[:config.train_per_class])
    train = [e for e in entries if e.sequence_id in train_ids]
    test = [e for e in entries if e.sequence_id not in train_ids]
    return train, test


def cmd_synth(config):
    """Generate the labeled dataset: videos, boxes, manifest, config."""
    if config.classes > len(synth.KINDS):
        raise InvalidInput(
            f"at most {len(synth.KINDS)} classes available")
    os.makedirs(config.data_dir, exist_ok=True)
    entries = []
    for c in range(config.classes):
        for i in range(config.sequences_per_class):
            rng = np.random.default_rng(np.random.SeedSequence(
                [config.seed, TAG_SYNTH, c, i]))
            seq, label = synth.generate_action(synth.class_spec(
                c, i, rng, config.height, config.width, config.frames,
                config.noise_sigma))
            sequence_id = f"c{c}s{i:02d}"
            video, annotation = sequence_id + ".sfv", sequence_id + ".ann"
            dataio.save_sequence(os.path.join(config.data_dir, video),
                                 seq.frames)
            dataio.save_annotations(
                os.path.join(config.data_dir, annotation), seq.boxes)
            entries.append(dataio.Entry(sequence_id, label, video,
                                        annotation))
    dataio.save_manifest(os.path.join(config.data_dir, dataio.MANIFEST_NAME),
                         entries)
    dataio.save_config(os.path.join(config.data_dir, "dataset.cfg"), config)
    print(f"wrote {len(entries)} sequences to {config.data_dir}")
    return entries


def _entry_sequence(config, entry) -> cuboid.FrameSequence:
    """The entry's raw uint8 frames, with their boxes.  The run's cuboid
    must fit the frames, and its depth the frame differences."""
    pixels = dataio.load_sequence(os.path.join(config.data_dir, entry.video))
    frames, height, width = pixels.shape
    h, w, d = config.cuboid_size
    if h > height or w > width:
        raise InvalidInput(f"cuboid {h}x{w}x{d} does not fit {height}x{width} "
                           f"frames of {entry.sequence_id}")
    if d >= frames:
        raise InvalidInput(f"cuboid depth {d} needs {d + 1} frames; "
                           f"{entry.sequence_id} has {frames}")
    path = os.path.join(config.data_dir, entry.annotation)
    boxes = dataio.load_annotations(path, len(pixels))
    try:
        return cuboid.FrameSequence(pixels, boxes)
    except InvalidInput as exc:  # a box outside the video's frame
        raise InvalidInput(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# training


TrainingCuboids = namedtuple("TrainingCuboids", ["data", "labels", "regions"])


def _training_cuboids(config, entries, train) -> TrainingCuboids:
    """The sampled training cuboids as one ``cuboid.LazyCuboids``, with
    each cuboid's class and its cell of ``config.grid``.

    Each sequence is read once: its motion masks place the picks, and
    only its raw pixels and normalization are kept.  A cuboid is cut
    when a pass of the fit reads its chunk, so the crops are never held
    all at once.
    """
    index = {e.sequence_id: i for i, e in enumerate(entries)}
    pixels, norms, picks, labels, regions = [], [], [], [], []
    for s, entry in enumerate(train):
        seq = _entry_sequence(config, entry)
        diff = cuboid.difference_sequence(seq)
        masks = cuboid.motion_masks(diff)
        origins = cuboid.sample_cuboids(
            masks, config.fraction, config.cuboid_size,
            rng_seed=derive_seed(config.seed, TAG_SAMPLE,
                                 index[entry.sequence_id]),
            max_count=config.max_cuboids)
        pixels.append(seq.frames)
        norms.append(cuboid.normalization(seq.frames))
        picks.append(np.column_stack([np.full(len(origins), s), origins]))
        labels.append(np.full(len(origins), entry.label))
        ts, ys, xs = origins.T
        regions.append(cuboid.region_label((xs, ys), diff.boxes[ts].T,
                                           config.grid))
    if sum(len(p) for p in picks) == 0:
        raise EmptyTrainingSet("no training cuboids")
    data = cuboid.LazyCuboids(tuple(pixels), np.array(norms),
                              np.concatenate(picks), config.cuboid_size)
    return TrainingCuboids(data, np.concatenate(labels),
                           np.concatenate(regions))


def cmd_train(config):
    entries = load_entries(config)
    train, _ = split_entries(entries, config)
    cuboids = _training_cuboids(config, entries, train)
    bank = sfa.fit_bank(
        config.strategy, cuboids.data.windows(config.delta_t),
        config.pca_dim, config.k_per_class, labels=cuboids.labels,
        regions=cuboids.regions, grid=config.grid, gamma=config.gamma)
    dataio.save_bank(config.model_path, bank)
    print(f"fitted {config.strategy} bank on {len(cuboids.data)} cuboids "
          f"from {len(train)} sequences -> {config.model_path}")
    return bank


# ---------------------------------------------------------------------------
# featurization


def cmd_featurize(config):
    entries = load_entries(config)
    bank = dataio.load_bank(config.model_path)
    row_dim = config.cuboid_h * config.cuboid_w * config.delta_t
    if row_dim != bank.pca.in_dim:
        raise InvalidInput(
            f"cuboid {config.cuboid_h}x{config.cuboid_w} with delta_t "
            f"{config.delta_t} gives {row_dim}-d rows, but the bank "
            f"{config.model_path} takes {bank.pca.in_dim}-d rows")
    # the run's files go to a sibling directory first and join
    # features_dir only once every sequence has succeeded, so a failed
    # run leaves no mix of old and new files
    parent = os.path.dirname(os.path.abspath(config.features_dir))
    os.makedirs(parent, exist_ok=True)
    staging = tempfile.mkdtemp(prefix=".featurize-", dir=parent)
    try:
        total = still = 0
        for idx, entry in enumerate(entries):
            feats = features.featurize_sequence(
                cuboid.difference_sequence(_entry_sequence(config, entry)),
                bank, config.cuboid_size, config.fraction,
                seed=derive_seed(config.seed, TAG_FEATURIZE, idx),
                stride=config.stride)
            dataio.save_features(
                os.path.join(staging, entry.sequence_id + ".sfaf"),
                entry.sequence_id, feats, label=entry.label)
            total += len(feats)
            still += sum(not f.normalized for f in feats)
        os.makedirs(config.features_dir, exist_ok=True)
        for name in sorted(os.listdir(staging)):
            os.replace(os.path.join(staging, name),
                       os.path.join(config.features_dir, name))
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    print(f"wrote {total} features ({still} without motion, unnormalized) "
          f"for {len(entries)} sequences -> {config.features_dir}")
    return total


def _load_entry_features(config, entry, bank) -> np.ndarray:
    """The entry's (snippets, k_total) feature matrix, which must come
    from a bank of this layout."""
    path = os.path.join(config.features_dir, entry.sequence_id + ".sfaf")
    sequence_id, feats, label = dataio.load_features(path)
    if sequence_id != entry.sequence_id or label != entry.label:
        raise InvalidInput(
            f"{path} does not match manifest entry {entry.sequence_id}")
    values = np.vstack([f.values for f in feats]
                       or [np.empty((0, bank.k_total))])
    if values.shape[1] != bank.k_total:
        raise InvalidInput(
            f"{path} holds {values.shape[1]}-d features, but the "
            f"{bank.strategy} bank {config.model_path} has {bank.k_total} "
            "outputs")
    return values


# ---------------------------------------------------------------------------
# classifier fitting


def train_classifier(config, rows, labels) -> classify.LinearClassifier:
    """``config``'s linear classifier on ``rows``: its reg."""
    return classify.train_linear(rows, labels, reg=config.reg)


def cmd_fit_classifier(config):
    train, _ = split_entries(load_entries(config), config)
    bank = dataio.load_bank(config.model_path)
    # with more than one grid column the classifier also learns each
    # feature right after it with its region blocks mirrored, to absorb
    # left/right motion.  The rows are counted first and each is written
    # once into one array; no list, stack or mirror of all rows is held.
    copies = 2 if bank.grid[0] > 1 else 1
    counts = [len(_load_entry_features(config, e, bank)) for e in train]
    rows = np.empty((copies * sum(counts), bank.k_total))
    slots = rows.reshape(-1, copies, bank.k_total)
    for entry, start, count in zip(train, np.cumsum([0] + counts), counts):
        values = _load_entry_features(config, entry, bank)
        slots[start:start + count, 0] = values
        if copies == 2:
            slots[start:start + count, 1] = features.mirror_features(
                values, bank.grid)
    labels = np.repeat([e.label for e in train], counts).repeat(copies)
    clf = train_classifier(config, rows, labels)
    dataio.save_classifier(config.classifier_path, clf)
    print(f"trained classifier on {len(rows)} features "
          f"-> {config.classifier_path}")
    return clf


# ---------------------------------------------------------------------------
# evaluation


def score(clf, matrices, labels):
    """``(predictions, votes, confusion)``: each matrix's snippet labels
    and majority vote, and the votes' confusion against ``labels``."""
    predictions = [classify.predict_many(clf, m) for m in matrices]
    votes = [classify.majority_vote(p) for p in predictions]
    return predictions, votes, classify.confusion_matrix(
        votes, labels, class_labels=list(clf.class_labels))


def cmd_evaluate(config):
    _, test = split_entries(load_entries(config), config)
    bank = dataio.load_bank(config.model_path)
    clf = dataio.load_classifier(config.classifier_path)

    matrices = []
    for entry in test:
        matrices.append(_load_entry_features(config, entry, bank))
        if not len(matrices[-1]):
            raise InvalidInput(f"{entry.sequence_id} has no features")
    labels = [e.label for e in test]
    frame_pred, seq_pred, confusion = score(clf, matrices, labels)

    # one row per snippet: its feature and true label
    matrix = np.vstack(matrices)
    labels_arr = np.repeat(labels, [len(m) for m in matrices])
    seq_accuracy = confusion.accuracy
    frm_accuracy = classify.frame_accuracy(np.concatenate(frame_pred),
                                           labels_arr)
    _, fisher_mean = classify.fisher_score(matrix, labels_arr)
    selectivity = features.selectivity(bank, matrix, labels_arr)

    results = {
        "strategy": bank.strategy,
        "seed": config.seed,
        "sequences": len(test),
        "features": len(matrix),
        "sequence_accuracy": seq_accuracy,
        "frame_accuracy": frm_accuracy,
        "fisher_mean": fisher_mean,
    }
    if selectivity is not None:
        results["average_selectivity"] = selectivity

    lines = [f"strategy: {bank.strategy}",
             f"sequences: {len(test)}",
             f"sequence accuracy: {seq_accuracy!r}",
             f"frame accuracy: {frm_accuracy!r}",
             "",
             "confusion (rows predicted, cols true):",
             confusion.render(),
             ""]
    lines.extend(f"{e.sequence_id}: true {e.label} predicted {p}"
                 for e, p in zip(test, seq_pred))
    lines.append("")
    if selectivity is not None:
        lines.append(f"average selectivity: {selectivity!r}")
    lines.append(f"mean fisher score: {fisher_mean!r}")
    dataio.save_report(config.report_path, lines)
    dataio.save_results(config.results_path, results)
    print(f"sequence accuracy {seq_accuracy!r} over {len(test)} sequences "
          f"-> {config.report_path}")
    return results


# ---------------------------------------------------------------------------
# toy demixing


TOY_LENGTH = 2000


def cmd_toy_sfa(config):
    """Demix the slow latent of the ``TOY_LENGTH``-sample toy signal."""
    observed, latent = synth.toy_slow_signal(TOY_LENGTH, config.seed)
    bank = sfa.fit_bank("usfa", [observed], pca_dim=2, k=2)
    y = sfa.apply(bank.models[0], observed)
    corr = abs(float(np.corrcoef(y[:, 0], latent)[0, 1]))
    results = {
        "length": TOY_LENGTH,
        "seed": config.seed,
        "corr_slowest_vs_latent": corr,
        "delta_slowest": sfa.delta_value(y[:, 0]),
        "min_channel_delta": min(sfa.delta_value(observed[:, j])
                                 for j in range(observed.shape[1])),
    }
    dataio.save_results(config.results_path, results)
    print(f"|corr(y1, latent)| = {corr!r} -> {config.results_path}")
    return results
