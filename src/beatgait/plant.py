"""Surrogate stance plant: phases in, ground reaction forces out.

Stands in for robot dynamics when scoring the oscillator bank on a desk.
Each leg converts its phase to a stance weight (zero through swing, a
half-sine through stance peaking at 3*pi/2). The body is a rigid load
at the centre of a rectangle of feet whose compliance follows those
weights, N_i = w_i * (a + b*x_i + c*y_i), with a, b, c chosen so the
grounded feet balance the vertical load and both moments about the
centre of mass. That split has a closed form: each diagonal pair
carries load in proportion to the harmonic mean of its two stance
weights, shared equally between its feet (see support_shares). Total
vertical force is exactly mass*g whenever at least one leg is grounded
and zero during flight. Also hosts the event extractors: touchdowns
(contact_onsets, the rising edges of one leg's stance flag phi >= pi),
per-cycle force peaks (kinematic_beats, from one leg's force column)
and stepping frequencies; they take the loop's columns as built,
unchecked.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InsufficientDataError
from .oscillator import TWO_PI

#: Total stance weight below which the plant reports flight.
FLIGHT_THRESHOLD = 1e-6


class PlantConfig:
    """Plant constants, the same for every run.

    mass: body mass in kg
    g: gravitational acceleration, m/s^2
    force_scale: scales total supported load (1.0 conserves body weight)
    """

    mass = 12.0
    g = 9.81
    force_scale = 1.0


def stance_weight(phi: list) -> list:
    """Stance weights of a list of phases: 0 over [0, pi), sin(phi - pi) over [pi, 2*pi).

    Peaks at 1 when phi = 3*pi/2, the footfall phase. Phases are wrapped
    first, and each is computed on its own as a plain float.
    """
    w = []
    for p in phi:
        p %= TWO_PI
        w.append(math.sin(p - math.pi) if p >= math.pi else 0.0)
    return w


def support_shares(w: list) -> list:
    """Fraction of the supported load on each foot, from a list of four stance weights w.

    Feet sit at the corners of a rectangle centred on the centre of mass,
    so vertical-force and moment balance force the two feet of a
    diagonal (RF+LH, LF+RH) to carry equal loads. Under the compliance
    law N_i = w_i * (a + b*x_i + c*y_i) the pair loads come out in
    proportion to each pair's harmonic-mean stance weight h. Every foot
    therefore gets share h_pair / (2 * (h_RF_LH + h_LF_RH)). When both
    diagonals carry equal weights on their two feet, h equals those
    weights and the split is exactly w / sum(w).

    A grounded foot may carry zero load: a foot whose diagonal partner
    is in swing is not needed for balance. Typical cases are a foot that
    lands before its partner, and the odd foot of a three-foot support.

    The centre of mass lies inside the support polygon only while a
    whole diagonal is grounded. Without one, at most two feet are down,
    and on one side of the body. No split balances both moments then,
    and the body would tip. The plant balances the vertical load and the
    one moment the grounded feet can take: a lone foot carries
    everything and two feet carry half each. All zeros during flight
    (sum(w) at or below FLIGHT_THRESHOLD).
    """
    w_rf, w_lf, w_rh, w_lh = w
    # same summation order as numpy's sum over four values
    if w_rf + w_lf + w_rh + w_lh <= FLIGHT_THRESHOLD:
        return [0.0] * 4
    # each diagonal's harmonic mean, 0 if either weight is 0; equal weights
    # return exactly, so a diagonal-symmetric gait is shared bit for bit
    # like the plain w / sum(w) split
    h_a = w_rf if w_rf == w_lh else 2.0 * w_rf * w_lh / (w_rf + w_lh)
    h_b = w_lf if w_lf == w_rh else 2.0 * w_lf * w_rh / (w_lf + w_rh)
    if h_a + h_b > 0.0:
        total = h_a + h_b + h_b + h_a
        # share ratio first: equal weights then divide to exactly 1/n, which
        # keeps the mid-stance force plateau bit-uniform for beat extraction
        s_a, s_b = h_a / total, h_b / total
        return [s_a, s_b, s_b, s_a]
    grounded = [1.0 if v > 0.0 else 0.0 for v in w]
    n = sum(grounded)
    return [v / n for v in grounded]


def grf_from_phases(phases, config: PlantConfig):
    """Split supported body weight across grounded legs.

    N_i = force_scale * mass * g * s_i with s = support_shares(w) and w
    the stance weights; all zeros during flight. A list of four phases
    gives (forces, s), two lists, so a caller that needs the shares too
    reuses them instead of recomputing; four phases in any other form
    are read as an array and give the forces alone, as an array.
    """
    as_list = isinstance(phases, list)
    w = stance_weight(phases if as_list else np.asarray(phases, dtype=float).tolist())
    weight = config.force_scale * config.mass * config.g
    shares = support_shares(w)
    s0, s1, s2, s3 = shares
    forces = [weight * s0, weight * s1, weight * s2, weight * s3]
    return (forces, shares) if as_list else np.array(forces)


def contact_onsets(t: np.ndarray, stance: np.ndarray) -> np.ndarray:
    """Touchdown times: where one leg's stance column switches from zero to positive.

    t is the matching time column. The loop passes the leg's stance
    flag phi >= pi at each plant sample, so a touchdown is the first
    sample at or after the phase crosses pi, one per stride whatever
    load the foot carries. The first sample never counts (no
    predecessor). Touchdowns time stepping frequencies; a run times
    beats by kinematic_beats, about a quarter cycle later.
    """
    rising = (stance[1:] > 0.0) & (stance[:-1] == 0.0)
    return t[1:][rising]


def _true_runs(mask: np.ndarray):
    """Index ranges [start, stop) of the contiguous True runs of a boolean mask."""
    padded = np.concatenate([[False], mask, [False]])
    edges = np.flatnonzero(np.diff(padded.astype(int)))
    return list(zip(edges[0::2], edges[1::2]))


def kinematic_beats(t: np.ndarray, f: np.ndarray) -> np.ndarray:
    """One timestamp per interior stance period of the force column f, at its maximum.

    t is the matching time column. When the maximum is a plateau, the
    midpoint sample of the maximal run is used (floor division, so a
    two-sample plateau resolves to the earlier sample). Mid-plateau keeps
    the event at the stance center, where the peak of the underlying
    stance weight sits.

    Stance runs touching either end of the timeline are dropped: their
    peaks are artifacts of truncation rather than gait events. Stance
    periods here are runs of positive load, not of phi >= pi: a
    grounded foot carries no load until its diagonal partner lands (see
    support_shares), so one that loses its load mid-stance splits its
    stance into two runs and gets two beats.
    """
    beats = []
    for start, stop in _true_runs(f > 0.0):
        if start == 0 or stop == f.size:
            continue
        seg = f[start:stop]
        # longest run at the peak value, the earliest if several tie
        lo, hi = max(_true_runs(seg == seg.max()), key=lambda r: r[1] - r[0])
        beats.append(t[start + lo + (hi - 1 - lo) // 2])
    return np.asarray(beats, dtype=float)


def stepping_frequency(touchdowns) -> np.ndarray:
    """Per-interval stepping frequencies.

    Needs at least three touchdowns (two intervals); otherwise raises
    InsufficientDataError. Each frequency is 1 / (t_{k+1} - t_k); the
    touchdowns come from contact_onsets, so they increase.
    """
    t = np.asarray(touchdowns, dtype=float)
    if t.size < 3:
        raise InsufficientDataError(f"need at least 3 touchdowns, got {t.size}")
    return 1.0 / np.diff(t)
