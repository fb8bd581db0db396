"""Command-line pipeline: synthesize, train, featurize, classify, report.

Subcommands mirror the pipeline stages and communicate through files
only, so each stage can be rerun or inspected in isolation.  Every
stage derives its randomness from the run seed plus a fixed stage tag,
which makes whole-pipeline reruns bit-reproducible.  Commands exit 0 on
success and 1 with a one-line diagnostic on failure; output files are
written atomically, so failures never leave partial artifacts.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from collections import namedtuple

import numpy as np

from . import classify, cuboid, dataio, features, sfa, synth
from . import config as config_module
from .config import RunConfig
from .errors import EmptyTrainingSet, InvalidInput, ParseError, SlowFeatError

# stage tags for seed derivation
_TAG_SYNTH = 0
_TAG_SPLIT = 1
_TAG_SAMPLE = 2
_TAG_CLASSIFIER = 3
_TAG_FEATURIZE = 4

MANIFEST_NAME = "manifest.txt"

Entry = namedtuple("Entry", ["sequence_id", "label", "video", "annotation"])


def _derive_seed(*parts) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


# ---------------------------------------------------------------------------
# dataset manifest


def save_manifest(path, entries):
    lines = [f"{e.sequence_id} {e.label} {e.video} {e.annotation}"
             for e in entries]
    dataio._atomic_write_text(path, "\n".join(lines) + "\n")


def load_manifest(path):
    with open(path, "r", encoding="utf-8") as handle:
        raw = handle.read()
    entries = []
    seen = set()
    for lineno, line in enumerate(raw.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ParseError(f"expected `id label video annotation`, "
                             f"got {line!r}", line=lineno)
        sequence_id, label, video, annotation = parts
        if sequence_id in seen:
            raise ParseError(f"duplicate sequence id {sequence_id!r}",
                             line=lineno)
        seen.add(sequence_id)
        try:
            entries.append(Entry(sequence_id, int(label), video, annotation))
        except ValueError:
            raise ParseError(f"non-integer label {label!r}", line=lineno)
    if not entries:
        raise ParseError("manifest is empty", line=1)
    return entries


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
            np.random.SeedSequence([config.seed, _TAG_SPLIT, label]))
        order = rng.permutation(len(group))
        train_ids.update(group[i].sequence_id
                         for i in order[:config.train_per_class])
    train = [e for e in entries if e.sequence_id in train_ids]
    test = [e for e in entries if e.sequence_id not in train_ids]
    return train, test


# ---------------------------------------------------------------------------
# synthesis


def _spec_for(config, class_index, seq_index):
    """Deterministic per-sequence motion parameters for one class."""
    rng = np.random.default_rng(np.random.SeedSequence(
        [config.seed, _TAG_SYNTH, class_index, seq_index]))
    kind = synth.KINDS[class_index]
    h, w = config.height, config.width
    common = dict(height=h, width=w, frames=config.frames,
                  noise_sigma=config.noise_sigma,
                  seed=int(rng.integers(2 ** 31 - 1)))
    if kind == "h_bar_oscillate":
        return synth.SynthSpec(
            kind, **common, size=0.12 * h, amplitude=0.18 * h,
            period=16.0, phase=rng.uniform(0, 2 * np.pi),
            offset_y=rng.uniform(-0.05, 0.05) * h)
    if kind == "v_bar_oscillate":
        return synth.SynthSpec(
            kind, **common, size=0.12 * w, amplitude=0.18 * w,
            period=16.0, phase=rng.uniform(0, 2 * np.pi),
            offset_x=rng.uniform(-0.05, 0.05) * w)
    radius = 0.1 * min(h, w)
    # blob positions cycle over a coarse grid so that every part of the
    # frame sees every blob class across a handful of sequences
    base_y = (-0.12 + 0.24 * (seq_index % 3) / 2.0) * h
    base_x = (-0.18 + 0.36 * (seq_index % 4) / 3.0) * w
    offset_y = base_y + rng.uniform(-0.03, 0.03) * h
    if kind == "blob_translate":
        speed = rng.choice([-1.0, 1.0]) * rng.uniform(0.9, 1.4)
        return synth.SynthSpec(kind, **common, size=radius, speed=speed,
                               offset_y=offset_y,
                               offset_x=rng.uniform(-0.2, 0.2) * w)
    return synth.SynthSpec(kind, **common, size=radius, period=9.0,
                           phase=rng.uniform(0, 2 * np.pi),
                           offset_y=offset_y,
                           offset_x=base_x + rng.uniform(-0.03, 0.03) * w)


def cmd_synth(config):
    """Generate the labeled dataset: videos, boxes, manifest, config."""
    if config.classes > len(synth.KINDS):
        raise InvalidInput(
            f"at most {len(synth.KINDS)} classes available")
    os.makedirs(config.data_dir, exist_ok=True)
    entries = []
    for c in range(config.classes):
        for i in range(config.sequences_per_class):
            spec = _spec_for(config, c, i)
            seq, label = synth.generate_action(spec)
            sequence_id = f"c{c}s{i:02d}"
            video, annotation = sequence_id + ".sfv", sequence_id + ".ann"
            dataio.save_sequence(os.path.join(config.data_dir, video),
                                 seq.frames.astype(np.uint8))
            dataio.save_annotations(
                os.path.join(config.data_dir, annotation), seq.boxes)
            entries.append(Entry(sequence_id, label, video, annotation))
    save_manifest(os.path.join(config.data_dir, MANIFEST_NAME), entries)
    dataio.save_config(os.path.join(config.data_dir, "dataset.cfg"), config)
    print(f"wrote {len(entries)} sequences to {config.data_dir}")
    return entries


# ---------------------------------------------------------------------------
# shared loading helpers


def _load_entry_sequence(config, entry) -> cuboid.FrameSequence:
    pixels = dataio.load_sequence(os.path.join(config.data_dir, entry.video))
    boxes = dataio.load_annotations(
        os.path.join(config.data_dir, entry.annotation), len(pixels))
    return cuboid.FrameSequence(pixels.astype(float), boxes)


def _diff_sequence(seq):
    return cuboid.frame_difference(cuboid.normalize_sequence(seq))


def _entry_index(entries):
    return {e.sequence_id: i for i, e in enumerate(entries)}


# ---------------------------------------------------------------------------
# training


def _training_cuboids(config, entries, train):
    index = _entry_index(entries)
    cuboids = []
    for entry in train:
        diff = _diff_sequence(_load_entry_sequence(config, entry))
        masks = cuboid.motion_masks(diff, config.delta)
        sampled = cuboid.sample_cuboids(
            diff, masks, config.fraction, config.cuboid_size,
            rng_seed=_derive_seed(config.seed, _TAG_SAMPLE,
                                  index[entry.sequence_id]),
            max_count=config.max_cuboids, class_label=entry.label)
        if config.strategy == "sdsfa":
            sampled = cuboid.with_region_labels(sampled, diff.boxes,
                                                config.grid)
        cuboids.extend(sampled)
    return cuboids


def fit_bank_from_cuboids(config, cuboids) -> sfa.ModelBank:
    if not cuboids:
        raise EmptyTrainingSet("no training cuboids")
    minis = cuboid.window_rows(np.stack([c.data for c in cuboids]),
                               config.delta_t)
    labels = [c.class_label for c in cuboids]
    if config.strategy == "usfa":
        return sfa.fit_usfa(minis, config.pca_dim, config.k_per_class)
    if config.strategy == "ssfa":
        return sfa.fit_ssfa(minis, labels, config.pca_dim,
                            config.k_per_class)
    if config.strategy == "dsfa":
        return sfa.fit_dsfa(minis, labels, config.pca_dim,
                            config.k_per_class, gamma=config.gamma)
    regions = [c.region_label for c in cuboids]
    return sfa.fit_sdsfa(minis, labels, regions, config.grid,
                         config.pca_dim, config.k_per_class,
                         gamma=config.gamma)


def cmd_train(config):
    entries = load_manifest(os.path.join(config.data_dir, MANIFEST_NAME))
    train, _ = split_entries(entries, config)
    cuboids = _training_cuboids(config, entries, train)
    bank = fit_bank_from_cuboids(config, cuboids)
    dataio.save_bank(config.model_path, bank)
    print(f"fitted {config.strategy} bank on {len(cuboids)} cuboids "
          f"from {len(train)} sequences -> {config.model_path}")
    return bank


# ---------------------------------------------------------------------------
# featurization


def cmd_featurize(config):
    entries = load_manifest(os.path.join(config.data_dir, MANIFEST_NAME))
    bank = dataio.load_bank(config.model_path)
    os.makedirs(config.features_dir, exist_ok=True)
    total = 0
    for idx, entry in enumerate(entries):
        diff = _diff_sequence(_load_entry_sequence(config, entry))
        feats = features.featurize_sequence(
            diff, bank, config.cuboid_size, config.fraction,
            seed=_derive_seed(config.seed, _TAG_FEATURIZE, idx),
            delta=config.delta, stride=config.stride,
            sequence_id=entry.sequence_id)
        dataio.save_features(
            os.path.join(config.features_dir, entry.sequence_id + ".sfaf"),
            entry.sequence_id, feats, label=entry.label)
        total += len(feats)
    print(f"wrote {total} features for {len(entries)} sequences "
          f"-> {config.features_dir}")
    return total


def _load_entry_features(config, entry):
    path = os.path.join(config.features_dir, entry.sequence_id + ".sfaf")
    sequence_id, feats, label = dataio.load_features(path)
    if sequence_id != entry.sequence_id or label != entry.label:
        raise InvalidInput(
            f"{path} does not match manifest entry {entry.sequence_id}")
    return feats


# ---------------------------------------------------------------------------
# classifier fitting


def cmd_fit_classifier(config):
    entries = load_manifest(os.path.join(config.data_dir, MANIFEST_NAME))
    train, _ = split_entries(entries, config)
    bank = dataio.load_bank(config.model_path)
    rows, labels = [], []
    mirror = config.mirror and bank.strategy == "sdsfa"
    block_dim = bank.k_total // (bank.grid[0] * bank.grid[1])
    for entry in train:
        for f in _load_entry_features(config, entry):
            rows.append(f.values)
            labels.append(entry.label)
            if mirror:
                rows.append(features.mirror_feature(
                    f, bank.grid, block_dim).values)
                labels.append(entry.label)
    clf = classify.train_linear(
        np.asarray(rows), np.asarray(labels), reg=config.reg,
        epochs=config.epochs,
        seed=_derive_seed(config.seed, _TAG_CLASSIFIER))
    dataio.save_classifier(config.classifier_path, clf)
    print(f"trained classifier on {len(rows)} features "
          f"-> {config.classifier_path}")
    return clf


# ---------------------------------------------------------------------------
# evaluation


def _selectivity_from_features(bank, matrix, labels):
    """Per-class ASD block sums -> selectivity, None when inapplicable."""
    if bank.strategy == "usfa":
        return None
    columns = features.class_columns(bank)
    classes = sorted(columns)
    if sorted(set(labels)) != classes:
        return None
    sums = np.array([[matrix[labels == i][:, columns[j]].sum()
                      for j in classes] for i in classes])
    try:
        _, average = classify.selectivity_table(sums)
    except SlowFeatError:
        return None
    return average


def cmd_evaluate(config):
    entries = load_manifest(os.path.join(config.data_dir, MANIFEST_NAME))
    _, test = split_entries(entries, config)
    bank = dataio.load_bank(config.model_path)
    clf = dataio.load_classifier(config.classifier_path)

    frame_pred, frame_true = [], []
    seq_pred, seq_true, per_sequence = [], [], []
    feature_rows, feature_labels = [], []
    for entry in test:
        feats = _load_entry_features(config, entry)
        if not feats:
            raise InvalidInput(f"{entry.sequence_id} has no features")
        values = np.stack([f.values for f in feats])
        predictions = classify.predict_many(clf, values)
        voted = classify.majority_vote(predictions)
        frame_pred.extend(predictions.tolist())
        frame_true.extend([entry.label] * len(predictions))
        seq_pred.append(voted)
        seq_true.append(entry.label)
        per_sequence.append((entry.sequence_id, entry.label, voted))
        feature_rows.append(values)
        feature_labels.extend([entry.label] * len(values))

    matrix = np.vstack(feature_rows)
    labels_arr = np.asarray(feature_labels)
    confusion = classify.confusion_matrix(
        seq_pred, seq_true, class_labels=list(clf.class_labels))
    seq_accuracy = confusion.accuracy
    frm_accuracy = classify.frame_accuracy(frame_pred, frame_true)
    _, fisher_mean = classify.fisher_score(matrix, labels_arr)
    selectivity = _selectivity_from_features(bank, matrix, labels_arr)

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
    lines.extend(f"{sid}: true {t} predicted {p}"
                 for sid, t, p in per_sequence)
    lines.append("")
    if selectivity is not None:
        lines.append(f"average selectivity: {selectivity!r}")
    lines.append(f"mean fisher score: {fisher_mean!r}")
    dataio._atomic_write_text(config.report_path, "\n".join(lines) + "\n")
    dataio.save_results(config.results_path, results)
    print(f"sequence accuracy {seq_accuracy!r} over {len(test)} sequences "
          f"-> {config.report_path}")
    return results


# ---------------------------------------------------------------------------
# toy demixing


def cmd_toy_sfa(config, length=2000):
    observed, latent = synth.toy_slow_signal(length, config.seed)
    bank = sfa.fit_usfa([observed], pca_dim=2, k=2)
    y = sfa.apply(bank.models[0], observed)
    corr = abs(float(np.corrcoef(y[:, 0], latent)[0, 1]))
    results = {
        "length": length,
        "seed": config.seed,
        "corr_slowest_vs_latent": corr,
        "delta_slowest": sfa.delta_value(y[:, 0]),
        "min_channel_delta": min(sfa.delta_value(observed[:, j])
                                 for j in range(observed.shape[1])),
    }
    dataio.save_results(config.results_path, results)
    print(f"|corr(y1, latent)| = {corr!r} -> {config.results_path}")
    return results


# ---------------------------------------------------------------------------
# argument handling


_COMMANDS = {
    "synth": "generate a labeled synthetic dataset",
    "train": "fit a slow-feature model bank on the training split",
    "featurize": "compute ASD features for every sequence",
    "fit-classifier": "train the linear classifier on the training split",
    "evaluate": "score the test split and write reports",
    "toy-sfa": "demix the slow latent of the two-channel toy signal",
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="slowfeat",
        description="slow-feature pipeline for sequence classification")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH",
                       help="key = value config file")
        for field in config_module.field_names():
            p.add_argument("--" + field.replace("_", "-"),
                           dest="opt_" + field, metavar="V",
                           help=argparse.SUPPRESS)
        if name == "toy-sfa":
            p.add_argument("--length", type=int, default=2000,
                           help="toy signal length (default 2000)")
    return parser


def config_from_args(args) -> RunConfig:
    base = dataio.load_config(args.config) if args.config else RunConfig()
    overrides = {}
    for field in config_module.field_names():
        raw = getattr(args, "opt_" + field)
        if raw is None:
            continue
        try:
            overrides[field] = config_module.parse_value(field, raw)
        except ValueError:
            raise InvalidInput(f"bad value {raw!r} for --{field}")
    return dataclasses.replace(base, **overrides) if overrides else base


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        if args.command == "synth":
            cmd_synth(config)
        elif args.command == "train":
            cmd_train(config)
        elif args.command == "featurize":
            cmd_featurize(config)
        elif args.command == "fit-classifier":
            cmd_fit_classifier(config)
        elif args.command == "evaluate":
            cmd_evaluate(config)
        else:
            cmd_toy_sfa(config, length=args.length)
    except (SlowFeatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
