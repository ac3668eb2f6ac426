"""Load-coupled phase oscillators for a quadruped gait.

One oscillator per leg, legs ordered (RF, LF, RH, LH). Each phase obeys

    dphi_i/dt = omega_tilde - sigma * G_i * (cos(phi_i) + xi)

integrated by explicit forward Euler and wrapped to [0, 2*pi). G_i is the
leg's normalized ground reaction force, so loaded legs are accelerated
through early stance (cos < 0) and held back in late stance (cos > 0),
which is what couples the four phases into a gait.

Two parameter regimes exist. With no velocity command the bank uses a
biased feedback (xi = 1) whose only stable fixed point is phi = 3*pi/2
with all legs loaded, i.e. the robot stands still. With a velocity
command each leg runs at the commanded angular frequency 2*pi*f with
unbiased feedback (xi = 0), and the lower-loaded diagonal pair is
re-initialized half a cycle ahead of the other so stepping starts as a
trot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

TWO_PI = 2.0 * math.pi

#: Leg order used by every 4-vector in the package.
LEG_ORDER = ("RF", "LF", "RH", "LH")

#: Phase at which a leg's stance force peaks (footfall reference).
FOOTFALL_PHASE = 1.5 * math.pi

#: Trackable gait frequency band in Hz, lower bound open, upper closed.
FREQ_BAND_HZ = (1.0, 4.0)

#: Velocity commands with magnitude at or below this keep the bank stationary.
STATIONARY_SPEED_LIMIT = 0.5

#: Moving-mode stance feedback gain sigma, rad/s.
STANCE_SIGMA = TWO_PI


def wrap_phase(phi):
    """Wrap angles into [0, 2*pi). Works on scalars and arrays."""
    out = np.mod(phi, TWO_PI)
    # np.mod can round up to the divisor for tiny negative inputs
    return np.where(out >= TWO_PI, 0.0, out) if np.ndim(out) else (
        0.0 if out >= TWO_PI else float(out)
    )


def wrap_signed(delta):
    """Wrap angle differences into (-pi, pi]. Works on scalars and arrays.

    A scalar (np.float64 included) is wrapped in plain floats and comes
    back as a float: Python's float % and np.mod share one
    fmod-and-correct rule, so it gets the bits of the array path.
    """
    if isinstance(delta, np.ndarray) and delta.ndim:
        out = np.mod(delta + math.pi, TWO_PI) - math.pi
        return np.where(out <= -math.pi, math.pi, out)
    out = (float(delta) + math.pi) % TWO_PI - math.pi
    return math.pi if out <= -math.pi else out


@dataclass(frozen=True)
class OscillatorParams:
    """Per-leg oscillator parameters.

    omega_tilde: intrinsic angular frequency, rad/s
    sigma: load feedback gain, rad/s
    xi: feedback bias (1 biases toward the standing fixed point)
    phi0: phase applied when the bank is (re)initialized, rad
    """

    omega_tilde: float
    sigma: float
    xi: float
    phi0: float


def stationary_params() -> tuple[OscillatorParams, ...]:
    """Parameter set for all four legs when there is no motion command."""
    p = OscillatorParams(omega_tilde=1.0, sigma=4.0, xi=1.0, phi0=FOOTFALL_PHASE)
    return (p, p, p, p)


def low_load_pair(forces) -> frozenset[int]:
    """Return the diagonal pair carrying less load, as leg numbers 1..4.

    Legs are numbered in LEG_ORDER, so {1, 4} is RF+LH and {2, 3} is
    LF+RH. Ties go to {2, 3}. Takes four finite forces, unchecked.
    """
    if forces[0] + forces[3] < forces[1] + forces[2]:
        return frozenset({1, 4})
    return frozenset({2, 3})


def select_params(v_x_cmd: float, f_cmd: float, forces) -> tuple[OscillatorParams, ...]:
    """Choose per-leg parameters from the motion command and current loads.

    Stationary (|v_x_cmd| <= 0.5): every leg gets (1, 4, 1, 3*pi/2).
    Moving: every leg gets omega_tilde = 2*pi*f_cmd, sigma = 2*pi, xi = 0;
    the low-load diagonal pair starts half a cycle ahead (phi0 = pi/2,
    mid-swing, since swing spans [0, pi)) and the loaded pair starts at
    phi0 = 3*pi/2 (mid-stance). On the trot limit cycle the stance
    feedback shifts the pairs by about 0.25 rad at the instant the loaded
    pair is at mid-stance, so this start lies that far off the cycle and
    the bank settles onto it over the first seconds.

    f_cmd must lie in (1.0, 4.0] Hz when moving, else InputError.
    phi0 only takes effect when a bank is built from the result; stepping
    never resets phases.
    """
    if abs(v_x_cmd) <= STATIONARY_SPEED_LIMIT:
        return stationary_params()
    if not (math.isfinite(f_cmd) and FREQ_BAND_HZ[0] < f_cmd <= FREQ_BAND_HZ[1]):
        raise InputError(
            f"f_cmd={f_cmd!r} outside ({FREQ_BAND_HZ[0]}, {FREQ_BAND_HZ[1]}] Hz"
        )
    swing_first = low_load_pair(forces)
    omega = TWO_PI * f_cmd
    out = []
    for leg in range(1, 5):
        phi0 = 0.5 * math.pi if leg in swing_first else FOOTFALL_PHASE
        out.append(OscillatorParams(omega_tilde=omega, sigma=STANCE_SIGMA, xi=0.0, phi0=phi0))
    return tuple(out)


def normalize_grf(forces, mass: float, g: float = 9.81):
    """Map per-leg forces in newtons to G = min(N / (mass*g), 1) in [0, 1]."""
    f = np.asarray(forces, dtype=float)
    vals = f.ravel().tolist()
    if not all(map(math.isfinite, vals)) or (vals and min(vals) < 0.0):
        raise InputError(f"forces must be finite and non-negative, got {forces!r}")
    if not (mass > 0.0 and g > 0.0):
        raise InputError(f"mass and g must be positive, got mass={mass}, g={g}")
    return np.minimum(f / (mass * g), 1.0)


@dataclass(frozen=True)
class OscillatorBank:
    """State of the four leg oscillators, built by make_bank.

    phases: shape (4,), each in [0, 2*pi)
    """

    phases: np.ndarray


def make_bank(params: tuple[OscillatorParams, ...]) -> OscillatorBank:
    """Build a bank at the parameters' initial phases (mode transitions only)."""
    phases = wrap_phase(np.array([p.phi0 for p in params], dtype=float))
    return OscillatorBank(phases=phases)


def param_arrays(params: tuple[OscillatorParams, ...]):
    """(omega_tilde, sigma, xi) as float arrays, one entry per leg."""
    om = np.array([p.omega_tilde for p in params], dtype=float)
    sg = np.array([p.sigma for p in params], dtype=float)
    xi = np.array([p.xi for p in params], dtype=float)
    return om, sg, xi


def phase_rate(phases, g_norm, om, sg, xi):
    """Right-hand side of the phase ODE for vector inputs."""
    return om - sg * np.asarray(g_norm, dtype=float) * (np.cos(phases) + xi)


def step_phases(phases, g_norm, dt: float, om, sg, xi):
    """One forward Euler step per leg; returns wrapped phases.

    phi + dt * (omega - sigma * G * (cos(phi) + xi)) mod 2*pi, computed
    leg by leg on plain floats. Lists of four floats, the loop's form,
    give a list, written out leg by leg; any other input is read as an
    array and gives an array of its shape, every other argument holding
    one value per phase (a size mismatch raises ValueError). Both paths
    evaluate the same expression in the same order. Unvalidated: a NaN
    phase stays NaN, and the simulation loop checks for one at every
    plant update.
    """
    if isinstance(phases, list):
        p0, p1, p2, p3 = phases
        g0, g1, g2, g3 = g_norm
        o0, o1, o2, o3 = om
        s0, s1, s2, s3 = sg
        x0, x1, x2, x3 = xi
        cos = math.cos
        p0 = (p0 + dt * (o0 - s0 * g0 * (cos(p0) + x0))) % TWO_PI
        p1 = (p1 + dt * (o1 - s1 * g1 * (cos(p1) + x1))) % TWO_PI
        p2 = (p2 + dt * (o2 - s2 * g2 * (cos(p2) + x2))) % TWO_PI
        p3 = (p3 + dt * (o3 - s3 * g3 * (cos(p3) + x3))) % TWO_PI
        # % rounds up to the divisor for tiny negative sums
        return [0.0 if p0 >= TWO_PI else p0, 0.0 if p1 >= TWO_PI else p1,
                0.0 if p2 >= TWO_PI else p2, 0.0 if p3 >= TWO_PI else p3]
    out = []
    flat = (np.asarray(a, dtype=float).ravel().tolist() for a in (phases, g_norm, om, sg, xi))
    for p, g, o, s, x in zip(*flat, strict=True):
        p = (p + dt * (o - s * g * (math.cos(p) + x))) % TWO_PI
        out.append(0.0 if p >= TWO_PI else p)
    return np.array(out).reshape(np.shape(phases))
