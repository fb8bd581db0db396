import os
import struct

import numpy as np
import pytest

from slowfeat import classify, cuboid, dataio, sfa
from slowfeat.config import RunConfig
from slowfeat.errors import (
    FormatError,
    InvalidInput,
    ParseError,
    TruncatedFile,
    UnsupportedVersion,
)
from slowfeat.features import ASDFeature


def random_video(rng, t=6, h=5, w=4):
    return rng.integers(0, 256, size=(t, h, w), dtype=np.uint8)


def fitted_bank(strategy="dsfa", seed=0):
    rng = np.random.default_rng(seed)
    minis, labels = [], []
    t = np.arange(8)
    for label, omega in enumerate((0.4, 1.9)):
        for _ in range(25):
            phase = rng.uniform(0, 2 * np.pi)
            base = np.sin(omega * t + phase)
            block = base[:, None] * rng.normal(size=6) \
                + 0.05 * rng.normal(size=(8, 6))
            minis.append(block)
            labels.append(label)
    if strategy == "usfa":
        return sfa.fit_usfa(minis, pca_dim=4, k=2)
    if strategy == "ssfa":
        return sfa.fit_ssfa(minis, labels, pca_dim=4, k_per_class=2)
    return sfa.fit_dsfa(minis, labels, pca_dim=4, k_per_class=2)


def banks_equal(a, b):
    if a.strategy != b.strategy or a.grid != b.grid:
        return False
    if len(a.models) != len(b.models):
        return False
    for m, n in zip(a.models, b.models):
        if (m.class_label, m.region_label, m.gamma, m.strategy) != \
                (n.class_label, n.region_label, n.gamma, n.strategy):
            return False
        if m.expansion != n.expansion:
            return False
        pairs = [(m.pca.mean, n.pca.mean),
                 (m.pca.projection, n.pca.projection),
                 (m.pca.explained_eigenvalues, n.pca.explained_eigenvalues),
                 (m.h0, n.h0), (m.w, n.w),
                 (m.eigenvalues, n.eigenvalues)]
        if not all(x.tobytes() == y.tobytes() for x, y in pairs):
            return False
    return True


# ---------------------------------------------------------------------------
# sequence files


def test_sequence_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    for i in range(5):
        frames = random_video(rng, t=2 + i)
        path = tmp_path / f"clip{i}.sfv"
        dataio.save_sequence(path, frames)
        again = dataio.load_sequence(path)
        assert again.tobytes() == frames.tobytes()
        assert again.shape == frames.shape
        assert path.stat().st_size == 16 + frames.size


def test_sequence_bad_magic(tmp_path):
    path = tmp_path / "bad.sfv"
    path.write_bytes(b"NOPE" + struct.pack("<III", 1, 1, 1) + b"\x00")
    with pytest.raises(FormatError):
        dataio.load_sequence(path)


def test_sequence_empty_rejected(tmp_path):
    path = tmp_path / "empty.sfv"
    path.write_bytes(b"SFV1" + struct.pack("<III", 0, 4, 4))
    with pytest.raises(FormatError):
        dataio.load_sequence(path)


def test_sequence_truncated_and_trailing(tmp_path):
    rng = np.random.default_rng(1)
    frames = random_video(rng)
    path = tmp_path / "clip.sfv"
    dataio.save_sequence(path, frames)
    whole = path.read_bytes()
    short = tmp_path / "short.sfv"
    short.write_bytes(whole[:-3])
    with pytest.raises(TruncatedFile):
        dataio.load_sequence(short)
    longer = tmp_path / "long.sfv"
    longer.write_bytes(whole + b"xx")
    with pytest.raises(FormatError):
        dataio.load_sequence(longer)


def test_sequence_save_rejects_bad_input(tmp_path):
    with pytest.raises(InvalidInput):
        dataio.save_sequence(tmp_path / "x.sfv", np.zeros((2, 3, 4)))
    with pytest.raises(InvalidInput):
        dataio.save_sequence(tmp_path / "x.sfv",
                             np.zeros((0, 3, 4), dtype=np.uint8))
    with pytest.raises(InvalidInput):
        dataio.save_sequence(tmp_path / "x.sfv",
                             np.zeros((3, 4), dtype=np.uint8))


def test_no_temp_files_left_behind(tmp_path):
    dataio.save_sequence(tmp_path / "a.sfv",
                         np.zeros((1, 2, 2), dtype=np.uint8))
    leftovers = [n for n in os.listdir(tmp_path) if n.startswith(".tmp")]
    assert leftovers == []


# ---------------------------------------------------------------------------
# annotations


def test_annotation_round_trip(tmp_path):
    boxes = np.array([[0, 0, 10, 8], [1, 2, 10, 8], [2, 4, 9, 7]])
    path = tmp_path / "boxes.txt"
    dataio.save_annotations(path, boxes)
    again = dataio.load_annotations(path, num_frames=3)
    assert np.array_equal(again, boxes)


def test_annotation_inheritance(tmp_path):
    path = tmp_path / "boxes.txt"
    path.write_text("0 1 2 10 8\n3 5 6 9 7\n")
    boxes = dataio.load_annotations(path, num_frames=5)
    expected = np.array([[1, 2, 10, 8]] * 3 + [[5, 6, 9, 7]] * 2)
    assert np.array_equal(boxes, expected)


def test_annotation_parse_errors(tmp_path):
    path = tmp_path / "boxes.txt"

    def expect(content, lineno):
        path.write_text(content)
        with pytest.raises(ParseError) as err:
            dataio.load_annotations(path, num_frames=10)
        assert err.value.line == lineno

    expect("0 1 2 10\n", 1)                       # wrong field count
    expect("0 1 2 10 8\n1 a 2 10 8\n", 2)         # non-integer
    expect("0 1 2 10 8\n0 1 2 10 8\n", 2)         # not strictly increasing
    expect("1 1 2 10 8\n", 1)                     # first frame missing
    expect("0 1 2 10 8\n12 1 2 10 8\n", 2)        # beyond sequence
    expect("0 1 2 0 8\n", 1)                      # degenerate box
    expect("", 1)                                 # no entries


def test_annotation_blank_lines_ok(tmp_path):
    path = tmp_path / "boxes.txt"
    path.write_text("\n0 1 2 10 8\n\n")
    boxes = dataio.load_annotations(path, num_frames=2)
    assert np.array_equal(boxes, [[1, 2, 10, 8]] * 2)


# ---------------------------------------------------------------------------
# model banks


@pytest.mark.parametrize("strategy", ["usfa", "ssfa", "dsfa"])
def test_bank_round_trip_bit_identical(tmp_path, strategy):
    bank = fitted_bank(strategy)
    path = tmp_path / "bank.sfam"
    dataio.save_bank(path, bank)
    again = dataio.load_bank(path)
    assert banks_equal(bank, again)
    x = np.random.default_rng(3).normal(size=6)
    for m, n in zip(bank.models, again.models):
        assert sfa.apply(m, x).tobytes() == sfa.apply(n, x).tobytes()


def region_fitted_banks(seed=0):
    """dsfa and single-region sdsfa banks fitted on identical data."""
    rng = np.random.default_rng(seed)
    minis, labels = [], []
    t = np.arange(8)
    for label, omega in enumerate((0.4, 1.9)):
        for _ in range(25):
            phase = rng.uniform(0, 2 * np.pi)
            base = np.sin(omega * t + phase)
            minis.append(base[:, None] * rng.normal(size=6)
                         + 0.05 * rng.normal(size=(8, 6)))
            labels.append(label)
    dsfa = sfa.fit_dsfa(minis, labels, pca_dim=4, k_per_class=2)
    sdsfa = sfa.fit_sdsfa(minis, labels, [0] * len(minis), (1, 1),
                          pca_dim=4, k_per_class=2)
    return dsfa, sdsfa


def test_sdsfa_bank_round_trip_reconstructs_regions(tmp_path):
    _, bank = region_fitted_banks()
    path = tmp_path / "bank.sfam"
    dataio.save_bank(path, bank)
    again = dataio.load_bank(path)
    assert banks_equal(bank, again)
    assert [m.region_label for m in again.models] == [0, 0]


def test_single_region_sdsfa_file_matches_dsfa_except_tag(tmp_path):
    dsfa, sdsfa = region_fitted_banks()
    p1, p2 = tmp_path / "d.sfam", tmp_path / "sd.sfam"
    dataio.save_bank(p1, dsfa)
    dataio.save_bank(p2, sdsfa)
    raw1, raw2 = p1.read_bytes(), p2.read_bytes()
    assert raw1[:8] == raw2[:8]
    assert raw1[8:12] == struct.pack("<I", sfa.STRATEGIES.index("dsfa"))
    assert raw2[8:12] == struct.pack("<I", sfa.STRATEGIES.index("sdsfa"))
    assert raw1[12:] == raw2[12:]


def test_bank_bad_magic_and_version(tmp_path):
    bank = fitted_bank("usfa")
    path = tmp_path / "bank.sfam"
    dataio.save_bank(path, bank)
    raw = bytearray(path.read_bytes())

    bad = tmp_path / "bad.sfam"
    bad.write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(FormatError):
        dataio.load_bank(bad)

    raw[4:8] = struct.pack("<I", 9)
    newer = tmp_path / "newer.sfam"
    newer.write_bytes(bytes(raw))
    with pytest.raises(UnsupportedVersion):
        dataio.load_bank(newer)


def test_bank_truncation(tmp_path):
    bank = fitted_bank("dsfa")
    path = tmp_path / "bank.sfam"
    dataio.save_bank(path, bank)
    raw = path.read_bytes()
    cut = tmp_path / "cut.sfam"
    cut.write_bytes(raw[:len(raw) // 2])
    with pytest.raises(TruncatedFile):
        dataio.load_bank(cut)


def test_bank_strategy_tag_contradicts_model_count(tmp_path):
    bank = fitted_bank("dsfa")  # two models
    path = tmp_path / "bank.sfam"
    dataio.save_bank(path, bank)
    raw = bytearray(path.read_bytes())
    raw[8:12] = struct.pack("<I", sfa.STRATEGIES.index("usfa"))
    forged = tmp_path / "forged.sfam"
    forged.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        dataio.load_bank(forged)


def test_bank_unknown_strategy_tag(tmp_path):
    bank = fitted_bank("usfa")
    path = tmp_path / "bank.sfam"
    dataio.save_bank(path, bank)
    raw = bytearray(path.read_bytes())
    raw[8:12] = struct.pack("<I", 7)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        dataio.load_bank(path)


def test_sdsfa_bank_with_empty_grid_is_a_format_error(tmp_path):
    _, bank = region_fitted_banks()
    path = tmp_path / "bank.sfam"
    dataio.save_bank(path, bank)
    raw = bytearray(path.read_bytes())
    raw[12:16] = struct.pack("<I", 0)  # grid (0, 1)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        dataio.load_bank(path)


def test_bank_with_nan_readout_is_a_format_error(tmp_path):
    bank = fitted_bank("usfa")
    m = bank.models[0]
    path = tmp_path / "bank.sfam"
    dataio.save_bank(path, bank)
    raw = bytearray(path.read_bytes())
    # header, then label, gamma, four dims, pca mean/projection/
    # eigenvalues and h0 come before w
    floats = (m.pca.in_dim + m.pca.projection.size
              + m.pca.out_dim + m.h0.size)
    offset = 24 + 8 + 8 + 16 + 8 * floats
    raw[offset:offset + 8] = struct.pack("<d", float("nan"))
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        dataio.load_bank(path)


# ---------------------------------------------------------------------------
# feature files


def test_features_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    feats = [ASDFeature(rng.random(6), ("clip07", i), i % 2 == 0)
             for i in range(5)]
    path = tmp_path / "clip07.sfaf"
    dataio.save_features(path, "clip07", feats, label=3)
    seq_id, again, label = dataio.load_features(path)
    assert seq_id == "clip07"
    assert label == 3
    assert len(again) == 5
    for f, g in zip(feats, again):
        assert f.values.tobytes() == g.values.tobytes()
        assert f.snippet_span == g.snippet_span
        assert f.normalized == g.normalized


def test_features_empty_round_trip(tmp_path):
    path = tmp_path / "empty.sfaf"
    dataio.save_features(path, "none", [], label=None)
    seq_id, feats, label = dataio.load_features(path)
    assert (seq_id, feats, label) == ("none", [], None)


def test_features_corrupt(tmp_path):
    path = tmp_path / "f.sfaf"
    dataio.save_features(
        path, "x", [ASDFeature(np.ones(3), ("x", 0), True)], label=1)
    raw = path.read_bytes()
    cut = tmp_path / "cut.sfaf"
    cut.write_bytes(raw[:-4])
    with pytest.raises(TruncatedFile):
        dataio.load_features(cut)
    bad = tmp_path / "bad.sfaf"
    bad.write_bytes(b"ZZZZ" + raw[4:])
    with pytest.raises(FormatError):
        dataio.load_features(bad)


def test_features_non_utf8_sequence_id_is_a_format_error(tmp_path):
    path = tmp_path / "f.sfaf"
    dataio.save_features(
        path, "x", [ASDFeature(np.ones(3), ("x", 0), True)], label=1)
    raw = bytearray(path.read_bytes())
    # magic, version, width, label, id length, then the id itself
    assert raw[24:25] == b"x"
    raw[24:25] = b"\xff"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        dataio.load_features(path)


def test_features_mixed_widths_rejected(tmp_path):
    feats = [ASDFeature(np.ones(3), ("x", 0), True),
             ASDFeature(np.ones(4), ("x", 1), True)]
    with pytest.raises(InvalidInput):
        dataio.save_features(tmp_path / "f.sfaf", "x", feats)


# ---------------------------------------------------------------------------
# classifier files


def test_classifier_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    clf = classify.LinearClassifier(
        rng.normal(size=(3, 7)), rng.normal(size=3), (0, 1, 2))
    path = tmp_path / "clf.sfac"
    dataio.save_classifier(path, clf)
    again = dataio.load_classifier(path)
    assert again.weights.tobytes() == clf.weights.tobytes()
    assert again.biases.tobytes() == clf.biases.tobytes()
    assert again.class_labels == clf.class_labels


def test_classifier_corrupt(tmp_path):
    rng = np.random.default_rng(6)
    clf = classify.LinearClassifier(
        rng.normal(size=(2, 3)), rng.normal(size=2), (0, 1))
    path = tmp_path / "clf.sfac"
    dataio.save_classifier(path, clf)
    raw = path.read_bytes()
    patched = bytearray(raw)
    patched[4:8] = struct.pack("<I", 2)
    bad = tmp_path / "bad.sfac"
    bad.write_bytes(bytes(patched))
    with pytest.raises(UnsupportedVersion):
        dataio.load_classifier(bad)
    cut = tmp_path / "cut.sfac"
    cut.write_bytes(raw[:20])
    with pytest.raises(TruncatedFile):
        dataio.load_classifier(cut)


# ---------------------------------------------------------------------------
# config files


def test_empty_config_gives_defaults(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("")
    assert dataio.load_config(path) == RunConfig()


def test_config_parses_types(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "gamma = 0.2\n"
        "pca_dim = 30\n"
        "strategy = ssfa\n"
        "delta = auto\n"
        "max_cuboids = 500\n"
        "mirror = false\n"
        "# a comment\n"
        "\n"
        "fraction = 0.5\n")
    cfg = dataio.load_config(path)
    assert cfg.gamma == 0.2
    assert cfg.pca_dim == 30
    assert cfg.strategy == "ssfa"
    assert cfg.delta is None
    assert cfg.max_cuboids == 500
    assert cfg.mirror is False
    assert cfg.fraction == 0.5


def test_config_bad_value_reports_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("pca_dim = 30\ngamma = abc\n")
    with pytest.raises(ParseError) as err:
        dataio.load_config(path)
    assert err.value.line == 2
    assert "gamma" in str(err.value)


def test_config_unknown_keys_listed(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("gama = 0.2\nncuboids = 7\npca_dim = 30\n")
    with pytest.raises(ParseError) as err:
        dataio.load_config(path)
    assert "gama" in str(err.value)
    assert "ncuboids" in str(err.value)


def test_config_rejects_duplicates_and_bad_lines(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("pca_dim = 30\npca_dim = 40\n")
    with pytest.raises(ParseError) as err:
        dataio.load_config(path)
    assert err.value.line == 2
    path.write_text("just words\n")
    with pytest.raises(ParseError):
        dataio.load_config(path)
    path.write_text("pca_dim = 1.5\n")
    with pytest.raises(ParseError):
        dataio.load_config(path)


def test_config_semantic_violation_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("fraction = 2.0\n")
    with pytest.raises(ParseError):
        dataio.load_config(path)


def test_config_save_load_round_trip(tmp_path):
    cfg = RunConfig(strategy="sdsfa", pca_dim=12, gamma=0.35, delta=1.25,
                    max_cuboids=400, mirror=False, fraction=0.125)
    path = tmp_path / "run.cfg"
    dataio.save_config(path, cfg)
    assert dataio.load_config(path) == cfg


# ---------------------------------------------------------------------------
# results files


def test_results_round_trip(tmp_path):
    path = tmp_path / "results.txt"
    dataio.save_results(path, {"accuracy": 0.95, "seed": 3, "note": "ok"})
    out = dataio.load_results(path)
    assert out == {"accuracy": "0.95", "seed": "3", "note": "ok"}


def test_results_duplicate_key_rejected(tmp_path):
    path = tmp_path / "results.txt"
    path.write_text("a = 1\na = 2\n")
    with pytest.raises(ParseError):
        dataio.load_results(path)
