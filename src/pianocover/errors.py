"""Exception hierarchy shared by all pianocover modules, and the text
reader that maps undecodable input onto it.

The CLI maps these onto exit codes: validation errors exit 1, I/O errors
(plain OSError) exit 2, numeric failures exit 3.
"""

from pathlib import Path


class PianoCoverError(Exception):
    """Base class for all library errors."""


class ValidationError(PianoCoverError, ValueError):
    """Bad argument values or malformed domain objects."""


class ParameterError(ValidationError):
    """A function was called with out-of-contract parameters."""


class FormatError(ValidationError):
    """Malformed binary or text input (SMF chunks, checkpoints, CSV).

    Carries the byte offset of the failure when known.
    """

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class NoBeatsError(ValidationError):
    """Beat tracking failed: audio too short, silent, or beatless."""


class AlignmentError(ValidationError):
    """A warping path is degenerate or does not cover the input."""


class UndefinedMetricError(ValidationError):
    """A metric has no defined value (zero-duration density, no voiced frames)."""


class DivergenceError(PianoCoverError):
    """Training produced a non-finite loss; carries the failing step."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


def read_text(path) -> str:
    """The contents of a text input file, decoded as UTF-8.

    Bytes that are not UTF-8 raise FormatError naming the file and the
    offset, so such a file is one invalid input like any other.
    """
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text", exc.start) from None
