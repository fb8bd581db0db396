"""Exception types shared across the package, and the input rules that
raise them: whole numbers and the field types of its dataclasses.

Every error raised by the library derives from :class:`SlowFeatError`,
so callers (and the CLI) can catch one base class.
"""

import math
import numbers
import os
from dataclasses import fields

import numpy as np


class SlowFeatError(Exception):
    """Base class for all errors raised by this package."""


class NoSuchAttribute(SlowFeatError, AttributeError):
    """The package has no attribute of this name; an ``AttributeError``
    too, as a module's ``__getattr__`` must raise."""


# linear algebra

class InvalidMatrix(SlowFeatError):
    """Input is not a finite square symmetric matrix of the expected shape."""


class NotPSD(SlowFeatError):
    """A matrix required to be positive semidefinite has a clearly negative eigenvalue."""


class DegenerateCovariance(SlowFeatError):
    """A covariance matrix has no usable directions left after rank truncation."""


class InvalidDimension(SlowFeatError):
    """A dimension argument or operand shape is out of range."""


# slow feature fitting

class EmptyTrainingSet(SlowFeatError):
    """No training data was supplied."""


class InsufficientRank(SlowFeatError):
    """Fewer usable eigendirections than requested slow features."""


class InsufficientClassData(SlowFeatError):
    """A class (or class/region cell) has too little data to fit."""


class TooShort(SlowFeatError):
    """A sequence is too short for the requested operation."""


# frame and cuboid handling

class DegenerateSequence(SlowFeatError):
    """A frame sequence is constant, so it cannot be normalized."""


class InvalidDelta(SlowFeatError):
    """The patch window length is outside [1, cuboid depth]."""


class OutsideBoundingBox(SlowFeatError):
    """A position falls outside the given bounding box."""


# classification and evaluation

class SingleClass(SlowFeatError):
    """An operation needing at least two classes saw only one."""


class EmptyInput(SlowFeatError):
    """An input collection is empty."""


class InvalidInput(SlowFeatError):
    """Inputs are malformed or mutually inconsistent."""


# file formats

class FormatError(SlowFeatError):
    """A file does not follow the expected binary or text format."""


class TruncatedFile(SlowFeatError):
    """A file ends before the payload announced by its header."""


class UnsupportedVersion(SlowFeatError):
    """A file declares a format version this code does not read."""


class ParseError(SlowFeatError):
    """A text file (config, manifest or annotation) fails to parse; the
    message names the file and the line, which ``line`` also carries."""

    def __init__(self, message, line=None, path=None):
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.line = line


# synthetic data

class InvalidSpec(SlowFeatError):
    """A synthetic sequence specification is geometrically impossible."""


def whole_numbers(values, error, what, low=-np.inf,
                  shape=None) -> np.ndarray:
    """``values`` as int64; ``error`` if one is not a whole number >= low,
    or, given ``shape``, if they do not have that shape."""
    try:
        values = np.asarray(values)
    except ValueError:  # ragged nesting: no array shape
        values = None
    if values is None or values.dtype.kind not in "iuf" or (
            shape is not None and values.shape != shape) or not (
            np.isfinite(values) & (values == np.round(values))
            & (values >= low)).all():
        raise error(f"{what} must be " + (f"{shape[0]} " if shape else "")
                    + "integers" + (f" >= {low}" if low > -np.inf else ""))
    return values.astype(np.int64)


# each field annotation: the values it takes, how an error names them,
# and how config text converts to one
FIELD_TYPES = {"float": (numbers.Real, "a real number", float),
               "int": (numbers.Integral, "an integer", int),
               "int | None": ((numbers.Integral, type(None)), "an integer",
                              int),
               "str": ((str, os.PathLike), "a string or path", str)}


def typed_fields(obj, error, skip=()) -> None:
    """``error`` unless every field of dataclass ``obj``, but those in
    ``skip``, holds what its annotation takes: never a bool, and a
    float finite."""
    for f in fields(obj):
        if f.name in skip:
            continue
        value = getattr(obj, f.name)
        allowed, name, _ = FIELD_TYPES[f.type]
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise error(f"{f.name} must be {name}, got {value!r}")
        if f.type == "float" and not isinstance(
                value, numbers.Integral) and not math.isfinite(value):
            raise error(f"{f.name} must be finite, got {value}")
