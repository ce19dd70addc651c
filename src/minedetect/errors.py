"""Exception types raised by minedetect modules.

Every error maps to one rejected precondition or malformed input; callers
that need to distinguish conditions catch the concrete class, everything
else can catch :class:`MineDetectError`.
"""


class MineDetectError(Exception):
    """Base class for all minedetect errors."""


# --- flow parsing / feature extraction ---

class MissingColumnError(MineDetectError):
    """A column named in the schema is absent from the CSV header."""


class MalformedRowError(MineDetectError):
    """A CSV row failed type conversion or a flow invariant.

    Carries the 1-based line number of the offending row.
    """

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class NoFlowsError(MineDetectError):
    """The host has no flows inside the requested window."""


class EmptyInputError(MineDetectError):
    """An operation that needs at least one element got none."""


class AlreadyNormalizedError(MineDetectError):
    """normalize() was handed a vector that is already normalized."""


class UnnormalizedInputError(MineDetectError):
    """A raw vector reached an operation that requires normalized input."""


# --- graph operations ---

class UnknownVertexError(MineDetectError):
    """The vertex is not present in the graph."""


class WindowOutOfRangeError(MineDetectError):
    """Window index outside the generated scenario."""


# --- clustering / classification ---

class MissingHostStateError(MineDetectError):
    """A cluster member has no assigned state."""


class MissingVectorError(MineDetectError):
    """A cluster member has no feature vector."""


class EmptyTrainingSetError(MineDetectError):
    """KNN fit() got zero labeled examples."""


# --- metrics ---

class LengthMismatchError(MineDetectError):
    """Paired label/score sequences differ in length."""


class EmptyMatrixError(MineDetectError):
    """Confusion matrix with zero total count."""


class DegenerateLabelsError(MineDetectError):
    """Ranking metric needs at least one positive and one negative label."""


class ZeroSupportError(MineDetectError):
    """Weighted average over classes whose supports are all zero."""


# --- configuration ---

class InvalidConfigError(MineDetectError):
    """A config file or scenario description failed validation."""
