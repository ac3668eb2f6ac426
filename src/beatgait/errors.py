"""Exception hierarchy shared across the package.

One error class per exit code; its exit_code is the command line's exit
status for it: InputError (2) for configuration or input errors,
InsufficientDataError (3) when the input data is insufficient,
RunFailedError (4) when a run fails its own checks. The message names
the cause.
"""

from contextlib import contextmanager


class BeatGaitError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class InputError(BeatGaitError):
    """Rejected input: bad values, commands, WAV files or tempi."""


class InsufficientDataError(BeatGaitError):
    """Too few samples, events or periodicity to compute the requested statistic."""

    exit_code = 3


class RunFailedError(BeatGaitError):
    """A run failed its own checks: non-finite state, or a missed curriculum bound."""

    exit_code = 4


@contextmanager
def writing(path):
    """Raise an OSError from the block as InputError("cannot write <path>: ...")."""
    try:
        yield
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc
