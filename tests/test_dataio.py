import os
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from slowfeat import classify, cli, dataio, sfa
from slowfeat.config import RunConfig
from slowfeat.errors import (
    FormatError,
    InvalidInput,
    ParseError,
    SlowFeatError,
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
    if (a.strategy, a.grid, a.class_labels, a.gamma) != \
            (b.strategy, b.grid, b.class_labels, b.gamma):
        return False
    if [(m.class_label, m.region_label) for m in a.models] != \
            [(m.class_label, m.region_label) for m in b.models]:
        return False
    pairs = [(a.pca.mean, b.pca.mean),
             (a.pca.projection, b.pca.projection),
             (a.pca.explained_eigenvalues, b.pca.explained_eigenvalues),
             (a.h0, b.h0), (a.w, b.w), (a.eigenvalues, b.eigenvalues)]
    return all(x.shape == y.shape and x.tobytes() == y.tobytes()
               for x, y in pairs)


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
        assert str(err.value).startswith(f"{path}: line {lineno}: ")

    expect("0 1 2 10\n", 1)                       # wrong field count
    expect("0 1 2 10 8\n1 a 2 10 8\n", 2)         # non-integer
    expect("0 1 2 10 8\n0 1 2 10 8\n", 2)         # not strictly increasing
    expect("1 1 2 10 8\n", 1)                     # first frame missing
    expect("0 1 2 10 8\n12 1 2 10 8\n", 2)        # beyond sequence
    expect("0 1 2 0 8\n", 1)                      # degenerate box
    expect("", 1)                                 # no entries


def test_annotations_need_a_box_and_a_frame(tmp_path):
    path = tmp_path / "boxes.txt"
    with pytest.raises(InvalidInput):
        dataio.save_annotations(path, np.zeros((0, 4), dtype=int))
    assert not path.exists()
    path.write_text("0 1 2 10 8\n")
    with pytest.raises(InvalidInput):
        dataio.load_annotations(path, 0)


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


def test_bank_version_1_is_unsupported(tmp_path):
    bank = fitted_bank("dsfa")
    path = tmp_path / "bank.sfam"
    dataio.save_bank(path, bank)
    raw = bytearray(path.read_bytes())
    assert raw[4:8] == struct.pack("<I", 3)
    raw[4:8] = struct.pack("<I", 1)
    path.write_bytes(bytes(raw))
    with pytest.raises(UnsupportedVersion, match="version 1"):
        dataio.load_bank(path)


def test_bank_version_2_is_unsupported(tmp_path):
    # version 2 stored per-model records; such a bank must be retrained
    path = tmp_path / "bank.sfam"
    dataio.save_bank(path, fitted_bank("dsfa"))
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 2)
    path.write_bytes(bytes(raw))
    with pytest.raises(UnsupportedVersion, match=re.escape(
            f"{path}: bank version 2, supported 3")):
        dataio.load_bank(path)


@pytest.mark.parametrize("strategy", ["usfa", "dsfa", "sdsfa"])
def test_bank_stores_the_pca_once(tmp_path, strategy):
    bank = (region_fitted_banks()[1] if strategy == "sdsfa"
            else fitted_bank(strategy))
    path = tmp_path / "bank.sfam"
    dataio.save_bank(path, bank)
    pca = bank.pca
    pca_floats = pca.in_dim + pca.projection.size + pca.out_dim
    cells = len(bank.models)
    # header: magic, version, tag, grid, class count, k and gamma; then
    # the class labels, the PCA's dims and arrays, and h0, w and
    # eigenvalues over all cells
    header = 4 + 4 * 6 + 8 + 8 * len(bank.class_labels) + 8
    cell_floats = cells * (sfa.expanded_dim(pca.out_dim) * (1 + bank.k)
                           + bank.k)
    assert path.stat().st_size == header + 8 * (pca_floats + cell_floats)
    again = dataio.load_bank(path)
    assert all(m.pca is again.pca for m in again.models)


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
    path = tmp_path / "bank.sfam"
    dataio.save_bank(path, bank)
    raw = bytearray(path.read_bytes())
    # the header (no class labels for usfa) and PCA dims, the PCA's
    # mean/projection/eigenvalues and h0 come before w
    floats = (bank.pca.in_dim + bank.pca.projection.size
              + bank.pca.out_dim + bank.h0.size)
    offset = 36 + 8 + 8 * floats
    assert raw[offset:offset + 8] == struct.pack("<d", bank.w[0, 0])
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
    dataio.save_features(path, "none", [], label=0)
    seq_id, feats, label = dataio.load_features(path)
    assert (seq_id, feats, label) == ("none", [], 0)


def test_features_need_a_label(tmp_path):
    with pytest.raises(TypeError):
        dataio.save_features(tmp_path / "f.sfaf", "x", [])


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_features_with_a_non_finite_value_are_a_format_error(tmp_path, bad):
    values = np.ones(3)
    values[1] = bad
    path = tmp_path / "f.sfaf"
    dataio.save_features(path, "x", [ASDFeature(np.ones(3), ("x", 0), True),
                                     ASDFeature(values, ("x", 1), True)],
                         label=1)
    with pytest.raises(FormatError, match=re.escape(f"{path}: snippet at "
                                                    "frame 1")):
        dataio.load_features(path)


def test_features_mixed_widths_rejected(tmp_path):
    feats = [ASDFeature(np.ones(3), ("x", 0), True),
             ASDFeature(np.ones(4), ("x", 1), True)]
    with pytest.raises(InvalidInput):
        dataio.save_features(tmp_path / "f.sfaf", "x", feats, label=1)


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


def test_classifier_with_repeated_labels_is_a_format_error(tmp_path):
    path = tmp_path / "clf.sfac"
    dataio.save_classifier(path, classify.LinearClassifier(
        np.ones((2, 3)), np.zeros(2), (1, 2)))
    raw = bytearray(path.read_bytes())
    # magic, version and shape, then the labels
    assert raw[16:32] == struct.pack("<qq", 1, 2)
    raw[16:32] = struct.pack("<qq", 1, 1)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=re.escape(f"{path}: ")):
        dataio.load_classifier(path)


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
    # a file that declares one class
    patched = bytearray(raw)
    patched[8:12] = struct.pack("<I", 1)
    bad.write_bytes(bytes(patched))
    with pytest.raises(FormatError, match="shape 1x3"):
        dataio.load_classifier(bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["weights", "biases"])
def test_classifier_with_a_non_finite_parameter_is_a_format_error(
        tmp_path, field, bad):
    rng = np.random.default_rng(7)
    clf = classify.LinearClassifier(
        rng.normal(size=(2, 3)), rng.normal(size=2), (0, 1))
    getattr(clf, field)[-1] = bad
    path = tmp_path / "clf.sfac"
    dataio.save_classifier(path, clf)
    with pytest.raises(FormatError, match=re.escape(f"{path}: ")):
        dataio.load_classifier(path)


@pytest.mark.parametrize("what,magic,version,save,load", [
    ("bank", dataio.BANK_MAGIC, dataio.BANK_VERSION,
     lambda p: dataio.save_bank(p, fitted_bank("usfa")), dataio.load_bank),
    ("feature", dataio.FEATURES_MAGIC, dataio.FEATURES_VERSION,
     lambda p: dataio.save_features(
         p, "x", [ASDFeature(np.ones(3), ("x", 0), True)], label=1),
     dataio.load_features),
    ("classifier", dataio.CLASSIFIER_MAGIC, dataio.CLASSIFIER_VERSION,
     lambda p: dataio.save_classifier(p, classify.LinearClassifier(
         np.ones((2, 3)), np.zeros(2), (0, 1))), dataio.load_classifier)])
def test_binary_headers_name_the_file_and_the_versions(
        tmp_path, what, magic, version, save, load):
    path = tmp_path / "file.bin"
    save(path)
    raw = bytearray(path.read_bytes())
    assert raw[:4] == magic
    raw[4:8] = struct.pack("<I", version + 7)
    path.write_bytes(bytes(raw))
    with pytest.raises(UnsupportedVersion, match=re.escape(
            f"{path}: {what} version {version + 7}, supported {version}")):
        load(path)
    path.write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(FormatError, match=re.escape(f"{path}: bad magic")):
        load(path)


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
        "max_cuboids = 500\n"
        "# a comment\n"
        "\n"
        "fraction = 0.5\n")
    cfg = dataio.load_config(path)
    assert cfg.gamma == 0.2
    assert cfg.pca_dim == 30
    assert cfg.strategy == "ssfa"
    assert cfg.max_cuboids == 500
    assert cfg.fraction == 0.5


def test_config_bad_value_reports_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("pca_dim = 30\ngamma = abc\n")
    with pytest.raises(ParseError) as err:
        dataio.load_config(path)
    assert err.value.line == 2
    assert "gamma" in str(err.value)
    assert str(err.value).startswith(f"{path}: line 2: ")


def test_config_unknown_keys_listed(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("gama = 0.2\nncuboids = 7\npca_dim = 30\n")
    with pytest.raises(ParseError) as err:
        dataio.load_config(path)
    assert "gama" in str(err.value)
    assert "ncuboids" in str(err.value)


@pytest.mark.parametrize("value", ["true", "false"])
def test_config_mirror_is_an_unknown_key(tmp_path, value):
    # sdsfa classifiers always train on mirrored features too
    path = tmp_path / "run.cfg"
    path.write_text(f"seed = 3\nmirror = {value}\n")
    with pytest.raises(ParseError, match="unknown keys: mirror") as err:
        dataio.load_config(path)
    assert err.value.line == 2


def test_config_delta_is_an_unknown_key(tmp_path, capsys):
    # the motion threshold is always the data-relative default
    path = tmp_path / "run.cfg"
    path.write_text("seed = 3\ndelta = 1.0\n")
    with pytest.raises(ParseError, match="unknown keys: delta") as err:
        dataio.load_config(path)
    assert err.value.line == 2
    assert cli.main(["featurize", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "delta" in err and str(path) in err


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
    with pytest.raises(ParseError, match=re.escape(f"{path}: fraction")):
        dataio.load_config(path)


NON_FINITE = [(field, value)
              for field in ("gamma", "fraction", "reg", "noise_sigma")
              for value in ("nan", "inf", "-inf")]


@pytest.mark.parametrize("field,value", NON_FINITE)
def test_run_config_rejects_non_finite_floats(field, value):
    with pytest.raises(InvalidInput, match=field):
        RunConfig(**{field: float(value)})


# a file that sets the removed delta is rejected too, as an unknown key
@pytest.mark.parametrize("field,value", NON_FINITE + [
    ("delta", value) for value in ("nan", "inf", "-inf")])
def test_config_file_with_a_non_finite_float_is_a_parse_error(
        tmp_path, field, value):
    path = tmp_path / "run.cfg"
    path.write_text(f"seed = 3\n{field} = {value}\n")
    with pytest.raises(ParseError, match=field):
        dataio.load_config(path)


@pytest.mark.parametrize("field,value", [
    ("strategy", "pca"), ("pca_dim", 0), ("frames", -1), ("gamma", -0.1),
    ("noise_sigma", -1.0), ("max_cuboids", 0), ("reg", 0.0),
    ("reg", -1e-3)])
def test_run_config_rejects_values_out_of_range(field, value):
    with pytest.raises(InvalidInput, match=field):
        RunConfig(**{field: value})


def test_config_save_load_round_trip(tmp_path):
    cfg = RunConfig(strategy="sdsfa", pca_dim=12, gamma=0.35,
                    max_cuboids=400, fraction=0.125)
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


def test_a_failed_rename_leaves_no_temp_file(tmp_path, monkeypatch):
    def fail(src, dst):
        raise OSError("rename failed")
    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="rename failed"):
        dataio.save_results(tmp_path / "results.txt", {"accuracy": 1.0})
    assert os.listdir(tmp_path) == []


def test_results_duplicate_key_rejected(tmp_path):
    path = tmp_path / "results.txt"
    path.write_text("a = 1\na = 2\n")
    with pytest.raises(ParseError):
        dataio.load_results(path)


# ---------------------------------------------------------------------------
# manifests


def test_manifest_negative_label_is_a_parse_error(tmp_path):
    # a negative label cannot seed the split: the reader names it
    path = tmp_path / "manifest.txt"
    path.write_text("a 0 a.sfv a.ann\nb -1 b.sfv b.ann\n")
    with pytest.raises(ParseError, match=re.escape(
            f"{path}: line 2: negative label -1")):
        dataio.load_manifest(path)


# ---------------------------------------------------------------------------
# the error contract: readers raise SlowFeatError subclasses only


def test_annotations_non_utf8_is_a_parse_error(tmp_path):
    path = tmp_path / "a.ann"
    path.write_bytes(b"0 1 1 2 2\n1 1 1 \xff 2\n")
    with pytest.raises(ParseError,
                       match=re.escape(f"{path}: line 2: byte 16 ")):
        dataio.load_annotations(path, 3)


def test_config_non_utf8_is_a_parse_error(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"seed = 3\nstrategy = \xc3(\n")
    with pytest.raises(ParseError, match="line 2"):
        dataio.load_config(path)


def test_results_non_utf8_is_a_parse_error(tmp_path):
    path = tmp_path / "results.txt"
    path.write_bytes(b"\x80accuracy = 1.0\n")
    with pytest.raises(ParseError, match="line 1"):
        dataio.load_results(path)


def reader_cases(root):
    """(reader, path of a valid file) for every reader of the package."""
    rng = np.random.default_rng(0)
    cases = {}

    def add(name, reader, save, *payload):
        path = root / name
        save(path, *payload)
        cases[name] = (reader, path)

    add("sequence", dataio.load_sequence, dataio.save_sequence,
        random_video(rng))
    add("annotations", lambda p: dataio.load_annotations(p, 6),
        dataio.save_annotations, [[0, 0, 4, 5]] * 3 + [[1, 1, 3, 4]] * 3)
    for strategy in ("usfa", "ssfa", "dsfa"):
        add(f"bank-{strategy}", dataio.load_bank, dataio.save_bank,
            fitted_bank(strategy))
    minis = [rng.normal(size=(5, 4)) for _ in range(16)]
    add("bank-sdsfa", dataio.load_bank, dataio.save_bank,
        sfa.fit_sdsfa(minis, [i % 2 for i in range(16)],
                      [i // 2 % 2 for i in range(16)], (2, 1), pca_dim=3,
                      k_per_class=1))
    add("features", dataio.load_features, dataio.save_features, "seq-1",
        [ASDFeature(rng.random(4), ("seq-1", t), True) for t in range(3)],
        1)
    add("classifier", dataio.load_classifier, dataio.save_classifier,
        classify.LinearClassifier(rng.normal(size=(3, 4)), rng.normal(size=3),
                                  (0, 1, 2)))
    add("config", dataio.load_config, dataio.save_config,
        RunConfig(strategy="sdsfa", seed=4))
    add("results", dataio.load_results, dataio.save_results,
        {"strategy": "dsfa", "sequence_accuracy": 0.75})
    add("manifest", dataio.load_manifest, dataio.save_manifest,
        [dataio.Entry(f"c{i}", i % 2, f"c{i}.sfv", f"c{i}.ann")
         for i in range(4)])
    return cases


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    return reader_cases(tmp_path_factory.mktemp("valid"))


def mutate(data, raw, kind):
    """Truncate, extend or flip bytes of ``raw`` as hypothesis draws."""
    if kind == "truncate":
        return raw[:data.draw(st.integers(0, max(len(raw) - 1, 0)))]
    if kind == "extend":
        return raw + data.draw(st.binary(min_size=1, max_size=16))
    flipped = bytearray(raw)
    for _ in range(data.draw(st.integers(1, 4))):
        at = data.draw(st.integers(0, len(raw) - 1))
        flipped[at] ^= data.draw(st.integers(1, 255))
    return bytes(flipped)


READERS = ("sequence", "annotations", "bank-usfa", "bank-ssfa", "bank-dsfa",
           "bank-sdsfa", "features", "classifier", "config", "results",
           "manifest")


@pytest.mark.parametrize("name", READERS)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), kind=st.sampled_from(["truncate", "extend", "flip"]))
def test_mutated_files_raise_only_slowfeat_errors(valid_files, tmp_path,
                                                  name, data, kind):
    reader, path = valid_files[name]
    mutated = tmp_path / path.name
    mutated.write_bytes(mutate(data, path.read_bytes(), kind))
    try:
        reader(mutated)
    except SlowFeatError:
        pass
