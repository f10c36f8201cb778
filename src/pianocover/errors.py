"""Exception hierarchy shared by all pianocover modules, and the two
readers of untrusted input that map malformed bytes onto it: a byte
cursor for binary formats and a UTF-8 text reader.

The CLI maps these onto exit codes: validation errors exit 1, I/O errors
(plain OSError) and failed allocations (MemoryError) exit 2, numeric
failures exit 3.
"""

import struct
from pathlib import Path


class PianoCoverError(Exception):
    """Base class for all library errors."""


class ValidationError(PianoCoverError, ValueError):
    """Bad argument values or malformed domain objects."""


class ParameterError(ValidationError):
    """A function was called with out-of-contract parameters."""


class FormatError(ValidationError):
    """Malformed binary or text input (WAV and SMF chunks, checkpoints, CSV).

    Carries the byte offset of the failure when known.
    """

    def __init__(self, message, offset=None):
        self.reason = message
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset

    def in_file(self, path):
        """The same error with the file it was read from in front of it."""
        return FormatError(f"{path}: {self.reason}", self.offset)


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


class ByteCursor:
    """Read position over untrusted binary data (bytes or a memoryview).

    A read that runs past the end raises FormatError at the offset where
    that read began, so a truncated file is one invalid input like any
    other.
    """

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def skip(self, n: int) -> int:
        """Move past n bytes without copying them; returns where they start."""
        start = self.pos
        end = start + n
        if end > len(self.data):
            raise FormatError(f"unexpected end of data, wanted {n} more bytes", start)
        self.pos = end
        return start

    def take(self, n: int) -> bytes:
        start = self.skip(n)
        return bytes(self.data[start : self.pos])

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))
