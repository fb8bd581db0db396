"""Every file format of the pipeline, with bit-exact persistence.

Binary formats hold videos, model banks, features and classifiers; text
formats hold annotations, the dataset manifest, configs, results and
reports.  A bank is a header that fixes its cells, its one PCA and its
three cell arrays; a feature set is a header, its snippets' start
frames (u32) and their values; each array is stored whole.  Layouts are
fixed little-endian so files work as portable test fixtures; other
numeric payloads are f64 except raw video, which is u8.  Every writer
goes through write-to-temp-then-rename, so a failure never leaves a
partial file behind, and every reader rejects malformed input instead
of guessing: bad magic or layout contradictions raise FormatError,
short files raise TruncatedFile, text problems raise ParseError naming
the file and line.
"""

from __future__ import annotations

import dataclasses
import os
import struct
import tempfile
from collections import namedtuple

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
BANK_VERSION = 3
FEATURES_VERSION = 2
CLASSIFIER_VERSION = 1


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


def _write_lines(path, lines):
    """Write text lines, each ending in a newline, atomically."""
    _atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))


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

    def header(self, magic: bytes, version: int, what: str):
        """Check a binary file's magic and format version."""
        if self.take(4) != magic:
            raise FormatError(f"{self.path}: bad magic, not a {what} file")
        found = self.u32()
        if found != version:
            raise UnsupportedVersion(
                f"{self.path}: {what} version {found}, supported {version}")

    def expect_end(self):
        if self.pos != len(self.data):
            raise FormatError(
                f"{self.path}: {len(self.data) - self.pos} trailing bytes")


def _read_file(path) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def read_text(path) -> str:
    """A text file's contents; a byte that is not UTF-8 is a ParseError."""
    raw = _read_file(path)
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"byte {exc.start} is not UTF-8",
                         line=raw.count(b"\n", 0, exc.start) + 1, path=path)


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
    _write_lines(path, [f"{t} {b[0]} {b[1]} {b[2]} {b[3]}"
                        for t, b in enumerate(arr.tolist())])


def load_annotations(path, num_frames: int) -> np.ndarray:
    """Read boxes; frames without their own line inherit the previous box."""
    if num_frames < 1:
        raise InvalidInput("num_frames must be >= 1")
    raw = read_text(path)
    entries = {}
    last_t = -1
    for lineno, line in enumerate(raw.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 5:
            raise ParseError(f"expected `t x y w h`, got {line!r}",
                             line=lineno, path=path)
        try:
            t, x, y, w, h = (int(p) for p in parts)
        except ValueError:
            raise ParseError(f"non-integer field in {line!r}", line=lineno,
                             path=path)
        if t <= last_t:
            raise ParseError(f"frame {t} not strictly increasing",
                             line=lineno, path=path)
        if t >= num_frames:
            raise ParseError(f"frame {t} beyond sequence of {num_frames}",
                             line=lineno, path=path)
        if w < 1 or h < 1 or x < 0 or y < 0:
            raise ParseError(f"degenerate box {line!r}", line=lineno,
                             path=path)
        entries[t] = (x, y, w, h)
        last_t = t
    if not entries:
        raise ParseError("annotation file has no entries", line=1,
                         path=path)
    if 0 not in entries:
        raise ParseError("first frame has no box to inherit", line=1,
                         path=path)
    out = np.empty((num_frames, 4), dtype=np.int64)
    current = entries[0]
    for t in range(num_frames):
        current = entries.get(t, current)
        out[t] = current
    return out


# ---------------------------------------------------------------------------
# model banks


def _pack_array(arr) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def save_bank(path, bank: sfa.ModelBank):
    """Serialize a model bank; load_bank(save_bank(b)) is bit-identical.

    Version 3 layout: magic, version, strategy tag, grid, class count,
    k and gamma (-1 for none); the class labels; the bank's one PCA (in
    and out dims, mean, projection, explained eigenvalues); then the
    bank's h0 (cells x D), w (D x cells * k) and eigenvalues
    (cells x k), each whole.  The cells follow from the header.
    """
    pca = bank.pca
    gamma = -1.0 if bank.gamma is None else float(bank.gamma)
    parts = [BANK_MAGIC,
             struct.pack("<IIIIIId", BANK_VERSION,
                         sfa.STRATEGIES.index(bank.strategy), *bank.grid,
                         len(bank.class_labels), bank.k, gamma),
             struct.pack(f"<{len(bank.class_labels)}q", *bank.class_labels),
             struct.pack("<II", pca.in_dim, pca.out_dim)]
    parts.extend(_pack_array(a) for a in (
        pca.mean, pca.projection, pca.explained_eigenvalues, bank.h0, bank.w,
        bank.eigenvalues))
    _atomic_write_bytes(path, b"".join(parts))


def load_bank(path) -> sfa.ModelBank:
    """Read a version-3 bank; any other version is UnsupportedVersion."""
    reader = _Reader(_read_file(path), path)
    reader.header(BANK_MAGIC, BANK_VERSION, "bank")
    strategy_index = reader.u32()
    if strategy_index >= len(sfa.STRATEGIES):
        raise FormatError(f"{path}: unknown strategy tag {strategy_index}")
    grid = (reader.u32(), reader.u32())
    n_classes, k, gamma = reader.u32(), reader.u32(), reader.f64()
    labels = tuple(int(c) for c in np.frombuffer(
        reader.take(8 * n_classes), dtype="<i8"))
    in_dim, out_dim = reader.u32(), reader.u32()
    if in_dim == 0 or out_dim == 0 or out_dim > in_dim:
        raise FormatError(f"{path}: inconsistent PCA dims {in_dim}/{out_dim}")
    pca = linalg.PcaModel(
        reader.f64_array(in_dim),
        reader.f64_array(out_dim * in_dim).reshape(out_dim, in_dim),
        reader.f64_array(out_dim))
    cells = grid[0] * grid[1] * max(1, n_classes)
    dim = sfa.expanded_dim(out_dim)
    h0 = reader.f64_array(cells * dim).reshape(cells, dim)
    w = reader.f64_array(dim * cells * k).reshape(dim, cells * k)
    eigenvalues = reader.f64_array(cells * k).reshape(cells, k)
    reader.expect_end()
    try:
        return sfa.ModelBank(sfa.STRATEGIES[strategy_index], pca, h0, w,
                             eigenvalues, labels, grid,
                             None if gamma == -1.0 else gamma)
    except InvalidInput as exc:
        raise FormatError(f"{path}: {exc}")


# ---------------------------------------------------------------------------
# feature sets


def save_features(path, sequence_id: str, features, label: int):
    """Persist the ASD features of one sequence plus its class label.

    Version 2 layout: magic, version, feature width, the label (i64),
    the sequence id (u32 length, UTF-8) and the snippet count, then
    every snippet's start frame (u32) and the (count, width) values,
    each whole.
    """
    feats = list(features)
    encoded_id = sequence_id.encode("utf-8")
    widths = {f.values.shape[0] for f in feats}
    if len(widths) > 1:
        raise InvalidInput(f"mixed feature widths {sorted(widths)}")
    k_total = widths.pop() if widths else 0
    parts = [FEATURES_MAGIC,
             struct.pack("<II", FEATURES_VERSION, k_total),
             struct.pack("<q", int(label)),
             struct.pack("<I", len(encoded_id)), encoded_id,
             struct.pack(f"<I{len(feats)}I", len(feats),
                         *(f.start for f in feats)),
             _pack_array([f.values for f in feats])]
    _atomic_write_bytes(path, b"".join(parts))


def load_features(path):
    """Return (sequence_id, features, label) as ``save_features`` wrote
    them; every value is finite."""
    reader = _Reader(_read_file(path), path)
    reader.header(FEATURES_MAGIC, FEATURES_VERSION, "feature")
    k_total = reader.u32()
    label = reader.i64()
    try:
        sequence_id = reader.take(reader.u32()).decode("utf-8")
    except UnicodeDecodeError:
        raise FormatError(f"{path}: sequence id is not UTF-8")
    count = reader.u32()
    starts = np.frombuffer(reader.take(4 * count), dtype="<u4").tolist()
    values = reader.f64_array(count * k_total).reshape(count, k_total)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise FormatError(f"{path}: snippet at frame "
                          f"{starts[finite.argmin()]} has a non-finite value")
    reader.expect_end()
    return (sequence_id, [ASDFeature(v, t) for v, t in zip(values, starts)],
            label)


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
    reader.header(CLASSIFIER_MAGIC, CLASSIFIER_VERSION, "classifier")
    c, d = reader.u32(), reader.u32()
    if c < 2 or d == 0:
        raise FormatError(f"{path}: bad classifier shape {c}x{d}")
    labels = tuple(reader.i64() for _ in range(c))
    weights = reader.f64_array(c * d).reshape(c, d)
    biases = reader.f64_array(c)
    reader.expect_end()
    try:
        return LinearClassifier(weights, biases, labels)
    except InvalidInput as exc:
        raise FormatError(f"{path}: {exc}")


# ---------------------------------------------------------------------------
# key = value text: configs and result summaries


def _read_assignments(path) -> dict:
    """A `key = value` file as key -> (value, line number); blank and
    `#` lines are skipped, and a line without `=` or a repeated key is a
    ParseError."""
    out = {}
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(f"expected `key = value`, got {stripped!r}",
                             line=lineno, path=path)
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in out:
            raise ParseError(f"duplicate key {key!r}", line=lineno,
                             path=path)
        out[key] = (value, lineno)
    return out


def load_config(path) -> RunConfig:
    """Parse a `key = value` config file; unknown keys are rejected."""
    known = set(config_module.field_names())
    values = {}
    unknown = []
    for key, (value, lineno) in _read_assignments(path).items():
        if key not in known:
            unknown.append((key, lineno))
            continue
        try:
            values[key] = config_module.parse_value(key, value)
        except ValueError:
            raise ParseError(f"bad value {value!r} for {key}", line=lineno,
                             path=path)
    if unknown:
        names = ", ".join(sorted(k for k, _ in unknown))
        raise ParseError(f"unknown keys: {names}", line=unknown[0][1],
                         path=path)
    try:
        return RunConfig(**values)
    except InvalidInput as exc:
        raise ParseError(str(exc), path=path)


def _format_value(value) -> str:
    if value is None:
        return "auto"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def save_config(path, config: RunConfig):
    _write_lines(path, [f"{f.name} = {_format_value(getattr(config, f.name))}"
                        for f in dataclasses.fields(RunConfig)])


def save_results(path, mapping):
    """Write a flat `key = value` summary in insertion order."""
    _write_lines(path, [f"{key} = {_format_value(value)}"
                        for key, value in mapping.items()])


def load_results(path) -> dict:
    """Read a results file back as a str -> str mapping."""
    return {key: value
            for key, (value, _) in _read_assignments(path).items()}


def save_report(path, lines):
    """Write a plain-text report, one line per item of ``lines``."""
    _write_lines(path, lines)


# ---------------------------------------------------------------------------
# dataset manifest: one `id label video annotation` line per sequence


MANIFEST_NAME = "manifest.txt"

Entry = namedtuple("Entry", ["sequence_id", "label", "video", "annotation"])


def save_manifest(path, entries):
    _write_lines(path, [f"{e.sequence_id} {e.label} {e.video} {e.annotation}"
                        for e in entries])


def load_manifest(path):
    """Read the manifest's entries; ids are unique, labels integers
    >= 0."""
    entries = []
    seen = set()
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ParseError(f"expected `id label video annotation`, "
                             f"got {line!r}", line=lineno, path=path)
        sequence_id, label, video, annotation = parts
        if sequence_id in seen:
            raise ParseError(f"duplicate sequence id {sequence_id!r}",
                             line=lineno, path=path)
        seen.add(sequence_id)
        try:
            label = int(label)
        except ValueError:
            raise ParseError(f"non-integer label {label!r}", line=lineno,
                             path=path)
        if label < 0:
            raise ParseError(f"negative label {label}", line=lineno,
                             path=path)
        entries.append(Entry(sequence_id, label, video, annotation))
    if not entries:
        raise ParseError("manifest is empty", line=1, path=path)
    return entries
