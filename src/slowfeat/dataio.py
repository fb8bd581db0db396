"""Bit-exact persistence for sequences, annotations, models and features.

Binary layouts are fixed little-endian so files work as portable test
fixtures; all numeric payloads are f64 except raw video, which is u8.
Every writer goes through write-to-temp-then-rename, so a failure never
leaves a partial file behind, and every reader rejects malformed input
instead of guessing: bad magic or layout contradictions raise
FormatError, short files raise TruncatedFile, text problems raise
ParseError with a line number.
"""

from __future__ import annotations

import dataclasses
import os
import struct
import tempfile

import numpy as np

from . import config as config_module
from . import linalg, sfa
from .classify import LinearClassifier
from .config import RunConfig
from .errors import (
    FormatError,
    InvalidInput,
    ParseError,
    TruncatedFile,
    UnsupportedVersion,
)
from .features import ASDFeature

SEQUENCE_MAGIC = b"SFV1"
BANK_MAGIC = b"SFAM"
FEATURES_MAGIC = b"SFAF"
CLASSIFIER_MAGIC = b"SFAC"
BANK_VERSION = 1
FEATURES_VERSION = 1
CLASSIFIER_VERSION = 1

_EXPANSION_KINDS = ("identity", "quadratic")


def _atomic_write_bytes(path, data: bytes):
    """Write via a temp file in the same directory, then rename over."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-dataio-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write_text(path, text: str):
    _atomic_write_bytes(path, text.encode("utf-8"))


class _Reader:
    """Cursor over a byte string with hard bounds checking."""

    def __init__(self, data: bytes, path):
        self.data = data
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncatedFile(
                f"{self.path}: needed {self.pos + n} bytes, "
                f"file has {len(self.data)}")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def i64(self) -> int:
        return struct.unpack("<q", self.take(8))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.take(8))[0]

    def f64_array(self, count: int) -> np.ndarray:
        raw = self.take(8 * count)
        return np.frombuffer(raw, dtype="<f8", count=count).astype(
            np.float64, copy=True)

    def expect_end(self):
        if self.pos != len(self.data):
            raise FormatError(
                f"{self.path}: {len(self.data) - self.pos} trailing bytes")


def _read_file(path) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


# ---------------------------------------------------------------------------
# raw video sequences


def save_sequence(path, frames):
    """Write u8 grayscale frames as magic + T,H,W + frame-major pixels."""
    arr = np.asarray(frames)
    if arr.ndim != 3 or 0 in arr.shape:
        raise InvalidInput(f"frames must be a nonempty (T, H, W), "
                           f"got {arr.shape}")
    if arr.dtype != np.uint8:
        raise InvalidInput(f"frames must be uint8, got {arr.dtype}")
    t, h, w = arr.shape
    header = SEQUENCE_MAGIC + struct.pack("<III", t, h, w)
    _atomic_write_bytes(path, header + arr.tobytes(order="C"))


def load_sequence(path) -> np.ndarray:
    reader = _Reader(_read_file(path), path)
    if reader.take(4) != SEQUENCE_MAGIC:
        raise FormatError(f"{path}: bad magic, not a sequence file")
    t, h, w = reader.u32(), reader.u32(), reader.u32()
    if t == 0 or h == 0 or w == 0:
        raise FormatError(f"{path}: empty sequence ({t}x{h}x{w})")
    payload = reader.take(t * h * w)
    reader.expect_end()
    return np.frombuffer(payload, dtype=np.uint8).reshape(t, h, w).copy()


# ---------------------------------------------------------------------------
# bounding-box annotations


def save_annotations(path, boxes):
    """One `t x y w h` line per frame."""
    arr = np.asarray(boxes)
    if arr.ndim != 2 or arr.shape[1] != 4 or arr.shape[0] == 0:
        raise InvalidInput(f"boxes must be nonempty (N, 4), got {arr.shape}")
    lines = [f"{t} {b[0]} {b[1]} {b[2]} {b[3]}"
             for t, b in enumerate(arr.tolist())]
    _atomic_write_text(path, "\n".join(lines) + "\n")


def load_annotations(path, num_frames: int) -> np.ndarray:
    """Read boxes; frames without their own line inherit the previous box."""
    if num_frames < 1:
        raise InvalidInput("num_frames must be >= 1")
    with open(path, "r", encoding="utf-8") as handle:
        raw = handle.read()
    entries = {}
    last_t = -1
    for lineno, line in enumerate(raw.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 5:
            raise ParseError(f"expected `t x y w h`, got {line!r}",
                             line=lineno)
        try:
            t, x, y, w, h = (int(p) for p in parts)
        except ValueError:
            raise ParseError(f"non-integer field in {line!r}", line=lineno)
        if t <= last_t:
            raise ParseError(f"frame {t} not strictly increasing",
                             line=lineno)
        if t >= num_frames:
            raise ParseError(
                f"frame {t} beyond sequence of {num_frames}", line=lineno)
        if w < 1 or h < 1 or x < 0 or y < 0:
            raise ParseError(f"degenerate box {line!r}", line=lineno)
        entries[t] = (x, y, w, h)
        last_t = t
    if not entries:
        raise ParseError("annotation file has no entries", line=1)
    if 0 not in entries:
        raise ParseError("first frame has no box to inherit", line=1)
    out = np.empty((num_frames, 4), dtype=np.int64)
    current = entries[0]
    for t in range(num_frames):
        current = entries.get(t, current)
        out[t] = current
    return out


# ---------------------------------------------------------------------------
# model banks


def _pack_label(value) -> bytes:
    return struct.pack("<q", -1 if value is None else int(value))


def _pack_array(arr) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def save_bank(path, bank: sfa.ModelBank):
    """Serialize a model bank; load_bank(save_bank(b)) is bit-identical."""
    parts = [BANK_MAGIC,
             struct.pack("<II", BANK_VERSION, sfa.STRATEGIES.index(
                 bank.strategy)),
             struct.pack("<III", bank.grid[0], bank.grid[1],
                         len(bank.models))]
    for m in bank.models:
        # region labels are not stored: model order is region-major, so
        # they are reconstructed at load time
        gamma = -1.0 if m.gamma is None else float(m.gamma)
        parts.append(_pack_label(m.class_label))
        parts.append(struct.pack("<d", gamma))
        parts.append(struct.pack(
            "<IIII", _EXPANSION_KINDS.index(m.expansion.kind),
            m.pca.in_dim, m.pca.out_dim, m.k))
        parts.append(_pack_array(m.pca.mean))
        parts.append(_pack_array(m.pca.projection))
        parts.append(_pack_array(m.pca.explained_eigenvalues))
        parts.append(_pack_array(m.h0))
        parts.append(_pack_array(m.w))
        parts.append(_pack_array(m.eigenvalues))
    _atomic_write_bytes(path, b"".join(parts))


def _unpack_label(value: int):
    return None if value == -1 else value


def load_bank(path) -> sfa.ModelBank:
    reader = _Reader(_read_file(path), path)
    if reader.take(4) != BANK_MAGIC:
        raise FormatError(f"{path}: bad magic, not a model bank")
    version = reader.u32()
    if version != BANK_VERSION:
        raise UnsupportedVersion(
            f"{path}: bank version {version}, supported {BANK_VERSION}")
    strategy_index = reader.u32()
    if strategy_index >= len(sfa.STRATEGIES):
        raise FormatError(f"{path}: unknown strategy tag {strategy_index}")
    strategy = sfa.STRATEGIES[strategy_index]
    grid = (reader.u32(), reader.u32())
    count = reader.u32()
    n_regions = grid[0] * grid[1]
    if strategy == "sdsfa":
        if n_regions == 0 or count == 0 or count % n_regions != 0:
            raise FormatError(
                f"{path}: {count} models do not tile a {grid} grid")
        per_region = count // n_regions
    models = []
    for index in range(count):
        class_label = _unpack_label(reader.i64())
        region_label = index // per_region if strategy == "sdsfa" else None
        gamma = reader.f64()
        kind_index = reader.u32()
        if kind_index >= len(_EXPANSION_KINDS):
            raise FormatError(f"{path}: unknown expansion tag {kind_index}")
        kind = _EXPANSION_KINDS[kind_index]
        in_dim, out_dim, k = reader.u32(), reader.u32(), reader.u32()
        if in_dim == 0 or out_dim == 0 or k == 0 or out_dim > in_dim:
            raise FormatError(f"{path}: inconsistent model dims "
                              f"{in_dim}/{out_dim}/{k}")
        expansion = sfa.ExpansionSpec(kind, out_dim)
        expanded = expansion.output_dim
        if k > expanded:
            raise FormatError(f"{path}: {k} outputs from {expanded} dims")
        pca = linalg.PcaModel(
            reader.f64_array(in_dim),
            reader.f64_array(out_dim * in_dim).reshape(out_dim, in_dim),
            reader.f64_array(out_dim))
        try:
            models.append(sfa.SlowFeatureModel(
                pca=pca,
                expansion=expansion,
                h0=reader.f64_array(expanded),
                w=reader.f64_array(expanded * k).reshape(expanded, k),
                eigenvalues=reader.f64_array(k),
                strategy=strategy,
                class_label=class_label,
                region_label=region_label,
                gamma=None if gamma == -1.0 else gamma))
        except InvalidInput as exc:
            raise FormatError(f"{path}: model {index}: {exc}")
    reader.expect_end()
    try:
        return sfa.ModelBank(strategy, tuple(models), grid)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}")


# ---------------------------------------------------------------------------
# feature sets


def save_features(path, sequence_id: str, features, label=None):
    """Persist the ASD features of one sequence plus its class label."""
    feats = list(features)
    encoded_id = sequence_id.encode("utf-8")
    widths = {f.values.shape[0] for f in feats}
    if len(widths) > 1:
        raise InvalidInput(f"mixed feature widths {sorted(widths)}")
    k_total = widths.pop() if widths else 0
    parts = [FEATURES_MAGIC,
             struct.pack("<II", FEATURES_VERSION, k_total),
             _pack_label(label),
             struct.pack("<I", len(encoded_id)), encoded_id,
             struct.pack("<I", len(feats))]
    for f in feats:
        parts.append(struct.pack("<IB", int(f.snippet_span[1]),
                                 1 if f.normalized else 0))
        parts.append(_pack_array(f.values))
    _atomic_write_bytes(path, b"".join(parts))


def load_features(path):
    """Return (sequence_id, features, label)."""
    reader = _Reader(_read_file(path), path)
    if reader.take(4) != FEATURES_MAGIC:
        raise FormatError(f"{path}: bad magic, not a feature file")
    version = reader.u32()
    if version != FEATURES_VERSION:
        raise UnsupportedVersion(
            f"{path}: feature version {version}, supported "
            f"{FEATURES_VERSION}")
    k_total = reader.u32()
    label = _unpack_label(reader.i64())
    try:
        sequence_id = reader.take(reader.u32()).decode("utf-8")
    except UnicodeDecodeError:
        raise FormatError(f"{path}: sequence id is not UTF-8")
    count = reader.u32()
    feats = []
    for _ in range(count):
        start, flag = struct.unpack("<IB", reader.take(5))
        if flag > 1:
            raise FormatError(f"{path}: bad normalization flag {flag}")
        values = reader.f64_array(k_total)
        feats.append(ASDFeature(values, (sequence_id, start), bool(flag)))
    reader.expect_end()
    return sequence_id, feats, label


# ---------------------------------------------------------------------------
# classifiers


def save_classifier(path, clf: LinearClassifier):
    c, d = clf.weights.shape
    parts = [CLASSIFIER_MAGIC,
             struct.pack("<III", CLASSIFIER_VERSION, c, d)]
    parts.extend(struct.pack("<q", int(label)) for label in clf.class_labels)
    parts.append(_pack_array(clf.weights))
    parts.append(_pack_array(clf.biases))
    _atomic_write_bytes(path, b"".join(parts))


def load_classifier(path) -> LinearClassifier:
    reader = _Reader(_read_file(path), path)
    if reader.take(4) != CLASSIFIER_MAGIC:
        raise FormatError(f"{path}: bad magic, not a classifier file")
    version = reader.u32()
    if version != CLASSIFIER_VERSION:
        raise UnsupportedVersion(
            f"{path}: classifier version {version}, supported "
            f"{CLASSIFIER_VERSION}")
    c, d = reader.u32(), reader.u32()
    if c < 2 or d == 0:
        raise FormatError(f"{path}: bad classifier shape {c}x{d}")
    labels = tuple(reader.i64() for _ in range(c))
    weights = reader.f64_array(c * d).reshape(c, d)
    biases = reader.f64_array(c)
    reader.expect_end()
    return LinearClassifier(weights, biases, labels)


# ---------------------------------------------------------------------------
# key = value text: configs and result summaries


def _split_assignment(line: str, lineno: int):
    if "=" not in line:
        raise ParseError(f"expected `key = value`, got {line!r}", line=lineno)
    key, value = line.split("=", 1)
    return key.strip(), value.strip()


def load_config(path) -> RunConfig:
    """Parse a `key = value` config file; unknown keys are rejected."""
    with open(path, "r", encoding="utf-8") as handle:
        raw = handle.read()
    known = set(config_module.field_names())
    values = {}
    unknown = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, value = _split_assignment(stripped, lineno)
        if key not in known:
            unknown.append((key, lineno))
            continue
        if key in values:
            raise ParseError(f"duplicate key {key!r}", line=lineno)
        try:
            values[key] = config_module.parse_value(key, value)
        except ValueError:
            raise ParseError(f"bad value {value!r} for {key}", line=lineno)
    if unknown:
        names = ", ".join(sorted(k for k, _ in unknown))
        raise ParseError(f"unknown keys: {names}", line=unknown[0][1])
    try:
        return RunConfig(**values)
    except InvalidInput as exc:
        raise ParseError(str(exc))


def _format_value(value) -> str:
    if value is None:
        return "auto"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def save_config(path, config: RunConfig):
    lines = [f"{f.name} = {_format_value(getattr(config, f.name))}"
             for f in dataclasses.fields(RunConfig)]
    _atomic_write_text(path, "\n".join(lines) + "\n")


def save_results(path, mapping):
    """Write a flat `key = value` summary in insertion order."""
    lines = [f"{key} = {_format_value(value)}"
             for key, value in mapping.items()]
    _atomic_write_text(path, "\n".join(lines) + "\n")


def load_results(path) -> dict:
    """Read a results file back as a str -> str mapping."""
    with open(path, "r", encoding="utf-8") as handle:
        raw = handle.read()
    out = {}
    for lineno, line in enumerate(raw.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, value = _split_assignment(stripped, lineno)
        if key in out:
            raise ParseError(f"duplicate key {key!r}", line=lineno)
        out[key] = value
    return out
