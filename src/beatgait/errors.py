"""Exception hierarchy shared across the package.

Each error class maps to one failure family, and its exit_code is the
command line's exit status for it: 2 for configuration or input
errors, 3 when the input data is insufficient, 4 when a curriculum run
fails or the oscillator state diverges.
"""

from contextlib import contextmanager


class BeatGaitError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class InputError(BeatGaitError):
    """Rejected input: non-finite, negative, or malformed values."""


class CommandRangeError(BeatGaitError):
    """Commanded gait frequency outside the trackable band."""


class IntegrationDivergedError(BeatGaitError):
    """Oscillator state became non-finite during integration."""

    exit_code = 4


class NotFittedError(BeatGaitError):
    """Prediction requested from an estimator that was never fitted."""


class InsufficientDataError(BeatGaitError):
    """Too few samples or events to compute the requested statistic."""

    exit_code = 3


class NoTempoError(BeatGaitError):
    """Onset envelope carries no periodicity to estimate a tempo from."""

    exit_code = 3


class FormatError(BeatGaitError):
    """Unsupported audio container, encoding, or sample rate."""


class TempoRangeError(BeatGaitError):
    """Tempo cannot be octave-folded into the trackable gait band."""


class CurriculumError(BeatGaitError):
    """The curriculum's rho = 1 evaluation missed the tracking bounds."""

    exit_code = 4


@contextmanager
def writing(path):
    """Raise an OSError from the block as InputError("cannot write <path>: ...")."""
    try:
        yield
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc
