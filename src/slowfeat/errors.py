"""Exception types shared across the package.

Every error raised by the library derives from :class:`SlowFeatError`,
so callers (and the CLI) can catch one base class.
"""


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


# features

class EmptySnippet(SlowFeatError):
    """A snippet holds no cuboids."""


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
