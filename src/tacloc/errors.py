"""Exception types shared across the library."""

from __future__ import annotations


class TaclocError(Exception):
    """Base class for all tacloc errors."""


class _FrameError(TaclocError):
    """An error that names the frame at fault, when there is one."""

    def __init__(self, message: str, frame_index: int | None = None):
        super().__init__(message)
        self.frame_index = frame_index


class MismatchedFrames(_FrameError):
    """Marker frames disagree in marker count."""


class TooFewMarkers(_FrameError):
    """Fewer than three markers; rigid registration is undefined."""


class DegenerateMarkers(_FrameError):
    """Marker covariance rank below 2; the rotation is unobservable."""


class TooFewFrames(TaclocError):
    """Not enough moving frames for the requested estimate."""


class IllConditioned(TaclocError):
    """Strict mode: the motion sequence does not determine the estimate."""


class AmbiguousDirection(TaclocError):
    """The direction null space has dimension >= 2; no unique answer."""


class RankDeficientBeyondLine(TaclocError):
    """The edge-point system determines fewer than 2 directions."""


class InvalidSchedule(TaclocError):
    """A scheduled motion violates the scenario's own contact constraint."""


class ParseError(TaclocError):
    """Malformed input file."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column


class SchemaVersionMismatch(TaclocError):
    """File declares a schema this library does not read."""


class NonFiniteValue(TaclocError, ValueError):
    """An array entry, in a file or given to a value type, is NaN or infinite; a ValueError."""
