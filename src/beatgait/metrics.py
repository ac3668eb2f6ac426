"""Evaluation metrics for gait-to-music synchronization runs.

Quantities scored: signed time offsets between kinematic beats and
music beats (and their worst case), the standard deviation of the
commanded intrinsic frequency (how much the modulator intervened),
stepping-frequency deviation statistics, and the matrix of wrapped
relative phase differences between the four oscillators. A SyncReport
bundles whichever of these a scenario produced.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import InsufficientDataError
from .oscillator import wrap_signed

def beat_alignment(kin_beats, music_beats, warmup_s: float):
    """Signed offset of each kinematic beat to its nearest music beat.

    Both series drop events before warmup_s first. Offsets are
    kinematic minus music, so a positive value means the step came
    late. A kinematic beat exactly halfway between two music beats
    pairs with the later one, keeping the tie on the negative (early)
    side. Returns (delta_t series, max absolute offset).
    """
    kin = np.asarray(kin_beats, dtype=float)
    mus = np.asarray(music_beats, dtype=float)
    kin = kin[kin >= warmup_s]
    mus = mus[mus >= warmup_s]
    if kin.size == 0 or mus.size == 0:
        raise InsufficientDataError("no beats left after discarding warm-up")
    right = np.searchsorted(mus, kin)
    # offsets to the beats before and after; past either end, both to the end beat
    to_lo = kin - mus[np.maximum(right - 1, 0)]
    to_hi = kin - mus[np.minimum(right, mus.size - 1)]
    # tie -> later beat, giving the negative offset
    deltas = np.where(to_lo < -to_hi, to_lo, to_hi)
    return deltas, float(np.abs(deltas).max())


def frequency_variance(omega_series) -> float:
    """Population standard deviation of a frequency command log: the run's clamped commands."""
    w = np.asarray(omega_series, dtype=float)
    if w.size < 2:
        raise InsufficientDataError(f"need at least 2 samples, got {w.size}")
    return float(w.std())


def frequency_deviation(freqs, f_cmd: float) -> tuple[float, float]:
    """Mean absolute deviation from the command, and population variance.

    freqs is the per-interval stepping frequency series (1/interval),
    never empty: stepping_frequency refuses fewer than 3 onsets.
    """
    f = np.asarray(freqs, dtype=float)
    return float(np.abs(f - f_cmd).mean()), float(f.var())


def relative_phase_differences(phases) -> np.ndarray:
    """Matrix of wrapped differences: entry (i, k) = wrap(phi_i - phi_k).

    Wrapping is to (-pi, pi], so the matrix is antisymmetric except
    that pi is its own negative on the ring. Takes the four final phases.
    """
    p = np.asarray(phases, dtype=float)
    return wrap_signed(p[:, None] - p[None, :])


@dataclass
class SyncReport:
    """Scored quantities of one scenario run, as plain floats; unused fields stay None."""

    delta_t_series: list = field(default_factory=list)
    delta_t_max: float | None = None
    omega_std: float | None = None
    freq_dev_mean: float | None = None
    freq_dev_var: float | None = None
    rpd_matrix: list | None = None

    def to_dict(self) -> dict:
        return asdict(self)
