"""Beat-tracking frequency modulator and the reward metrics.

Every 50 ms the modulator compares the tracked leg's phase with the
music phase and commands an adjusted intrinsic frequency
omega_tilde = omega_m + delta_omega, where delta_omega is a clamped
proportional correction. Locking phi_j to theta makes the leg's
footfall (phase 3*pi/2) land on the beat (also anchored at 3*pi/2).

The stance-load feedback that shapes the gait also wobbles phi_j
within every cycle by up to sigma*G/omega (a quarter radian at 2 Hz),
which the plain proportional law cannot reject: its error ripples at
the stepping frequency, far above the loop bandwidth. Two optional
refinements address this without touching the default law:

* error_mode "footfall" subtracts the predicted within-cycle wobble
  from the measured phase before forming the error, so the controller
  steers the underlying phase ramp, whose 3*pi/2 crossing is the
  stance midpoint, onto the beat instead of chasing the ripple. The
  leg's own 3*pi/2 crossing, the footfall a run grades, then lands
  early: by 10 ms at 120 BPM, where the raw law lands 4 ms early.
* feedforward=True replaces the raw law with a one-tick solve for the
  command whose model rollout (same Euler step and force hold as the
  plant, the opposite diagonal pair rolled alongside) lands the
  end-of-tick phase exactly where the plain law would have put it were
  the stance feedback absent. The wobble is cancelled at its source and
  the logged error decays by (1 - k/rate) per tick. The solve is a
  secant search warm-started at the previous command, with Illinois
  regula falsi as its fallback.

Both refinements use only the modulator's inputs, the plant's load law,
the stance gain sigma of the run's oscillator bank and, for the rollout,
its feedback bias xi and one more leg of that bank (both passed in; the
footfall law's wobble model keeps xi = 0).

Also here: the four reward scores (phase-force shaping, rhythm
consistency on the unit ring, smoothed-beat windowing, and the binary
beat-coincidence reward) used to grade synchronization runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .oscillator import FOOTFALL_PHASE, TWO_PI, wrap_signed
from .plant import FLIGHT_THRESHOLD

if TYPE_CHECKING:
    from .harness import ScenarioConfig

#: Normalized load per leg on a steady trot (two legs share body weight).
TROT_G = 0.5

ERROR_MODES = ("raw", "footfall")

#: Bisection steps whose resolution the feedforward solve reaches; also its step cap.
SOLVE_STEPS = 40

#: Command clamp, rad/s: min(0.5*omega_m, pi) for every folded tempo, since omega_m > 2*pi.
DELTA_MAX = math.pi


@dataclass(frozen=True)
class ModulatorCommand:
    """One 20 Hz frequency command."""

    delta_omega: float
    omega_tilde: float
    phase_error: float


def ring_distance_sq(phi_obs, theta_obs) -> float:
    """Squared Euclidean distance between two unit-ring points, in [0, 4].

    Equals 2 - 2*cos(phi - theta); computed literally from the 2-D
    embeddings so the identity stays a checkable property rather than
    an assumption. Each observation is a (cos, sin) pair, taken as given.
    """
    pc, ps = phi_obs
    tc, ts = theta_obs
    return (pc - tc) ** 2 + (ps - ts) ** 2


def reward_rhythm(phi_obs, theta_obs, sigma_r: float = 1.0) -> float:
    """Rhythm consistency: exp(-sigma_r * squared ring distance).

    Runs grade with sigma_r = 1; sigma_r = 0 scores every pair 1.
    """
    return math.exp(-sigma_r * ring_distance_sq(phi_obs, theta_obs))


def reward_r1(b_t: float, phi_osc: float) -> float:
    """Smoothed-beat reward B(t) * exp(-(phi - 3*pi/2)^2), wrapped difference."""
    d = wrap_signed(phi_osc - FOOTFALL_PHASE)
    return b_t * math.exp(-(d * d))


def reward_r2(music_beat_in_tick: bool, beats_answered: bool) -> float:
    """Beat coincidence over one tick: -1 when a music beat in it goes unanswered."""
    if music_beat_in_tick and not beats_answered:
        return -1.0
    return 1.0


def reward_phase(g_norm, phases) -> float:
    """Phase-force shaping reward -sum(G_i * sin(phi_i)).

    Positive when loaded legs sit in stance (sin < 0), negative when
    force appears during swing. Takes four loads and four phases.
    """
    g = np.asarray(g_norm, dtype=float)
    p = np.asarray(phases, dtype=float)
    return float(-(g * np.sin(p)).sum())


def wobble_amplitude(omega_m: float, sigma: float) -> float:
    """Predicted within-cycle phase wobble sigma*G/omega on a steady trot."""
    return sigma * TROT_G / omega_m


def rollout_phase(phi_j: float, phi_pair: float, rate: float, sigma: float, xi: float,
                  horizon_s: float, substep_s: float, hold_steps: int) -> float:
    """Phase the trot model (stance gain sigma, bias xi) reaches after horizon_s at a fixed rate.

    Forward Euler at the loop's oscillator step substep_s, with the load
    held for hold_steps substeps like the plant's zero-order hold.
    phi_pair, the phase of the opposite diagonal pair, is rolled
    alongside with the surrogate's own load split for diagonal pairs
    whose feet move in step (at unit force scale), which reproduces the
    graded loads of the double-support windows around stance handoffs.
    The loads are set once per hold window; the two legs do not interact
    inside one, so each is stepped through it in turn, and the bias term
    sigma * G * xi, constant over the window, is folded into its rate.
    """
    n = max(1, int(round(horizon_s / substep_s)))
    cos = math.cos
    for start in range(0, n, hold_steps):
        wa = math.sin(phi_j - math.pi) if phi_j >= math.pi else 0.0
        wb = math.sin(phi_pair - math.pi) if phi_pair >= math.pi else 0.0
        total = 2.0 * (wa + wb)
        # sigma times each leg's load share, grouped as in sigma * G * cos(phi)
        ka = kb = 0.0
        if total > FLIGHT_THRESHOLD:
            ka = sigma * (wa / total)
            kb = sigma * (wb / total)
        ra, rb = rate - ka * xi, rate - kb * xi
        steps = range(min(hold_steps, n - start))
        for _ in steps:
            phi_j = (phi_j + substep_s * (ra - ka * cos(phi_j))) % TWO_PI
        for _ in steps:
            phi_pair = (phi_pair + substep_s * (rb - kb * cos(phi_pair))) % TWO_PI
    return phi_j


def _illinois(gap, lo: float, g_lo: float, hi: float, g_hi: float, width: float,
              h: float, steps: int) -> float:
    """Illinois regula falsi on a bracket with g_lo < 0 < g_hi, in at most steps rollouts.

    Secant steps halve the weight of an end kept twice in a row, and the
    midpoint stands in when the secant point leaves the bracket. The
    force hold and the load split make the end phase jump at some
    commands: a step that fails to halve its side's gap, still above
    what one stopping width moves the phase in free swing (h * width),
    marks a jump, and bisection finishes the solve. Stops once the
    bracket is no wider than width; returns a point of zero gap or the
    end with the smaller gap.
    """
    w_lo = w_hi = 1.0  # Illinois weights on the end gaps
    moved = 0  # the end the last step moved: +1 hi, -1 lo
    stalled = False
    for _ in range(steps):
        if hi - lo <= width:
            break
        x = hi - w_hi * g_hi * (hi - lo) / (w_hi * g_hi - w_lo * g_lo)
        if stalled or not lo < x < hi:
            x = 0.5 * lo + 0.5 * hi
        g = gap(x)
        if g == 0.0:
            return x
        stalled = stalled or abs(g) > max(0.5 * abs(g_hi if g > 0.0 else g_lo), h * width)
        if g > 0.0:
            w_lo *= 0.5 if moved > 0 else 1.0
            hi, g_hi, w_hi, moved = x, g, 1.0, 1
        else:
            w_hi *= 0.5 if moved < 0 else 1.0
            lo, g_lo, w_lo, moved = x, g, 1.0, -1
    return lo if -g_lo <= g_hi else hi


def feedforward_command(phi_j: float, phi_pair: float, theta: float, omega_m: float,
                        sigma: float, xi: float, gain_k: float, substep_s: float,
                        hold_steps: int, rate_hz: float, guess: float = 0.0) -> float:
    """Frequency offset that cancels the stance feedback over one tick.

    The proportional law alone leaves the within-cycle stance wobble in
    the phase: its ripple sits at the stepping frequency, above the
    20 Hz loop's reach. This instead solves for the constant offset
    delta whose model rollout lands the end-of-tick phase exactly where
    the plain law would put it if the feedback were absent, namely
    theta + omega_m*h plus the decayed error e*(1 - gain_k*h). The
    end phase grows monotonically with delta (faster command, earlier
    stance holds), so outside the reachable range the clamp bound
    +-DELTA_MAX is returned, matching the plain law's saturation.

    The solve is warm-started: from guess (clamped; in a run, the
    previous command) it takes secant steps, the first on the free-swing
    slope h, and stops once the gap is within h*width, what one stopping
    width moves the phase in free swing; where the root it has found
    lies within one width of a clamp end, that end's rollout decides
    saturation, as in the solve from the clamp ends. A step that leaves
    the clamp range, meets a slope that is not positive or fails to
    halve the gap hands over to Illinois regula falsi (Dowell and
    Jarratt, 1971) on the tightest sign-change bracket the secant has
    seen; when it has seen none, the two clamp-end rollouts first test
    for saturation and close the bracket. The warm start relies on the
    gap changing sign only at its root, not where the end phase wraps at
    +-pi. That needs DELTA_MAX*h <= pi/4, true at any command rate of at
    least 4 Hz (the run's is 20 Hz): the end phase then spans about
    2*DELTA_MAX*h <= pi/2 over the clamp range, and a range holding the
    root cannot also hold a wrap.

    Illinois stops once the bracket is no wider than width, what
    SOLVE_STEPS bisection steps leave of the clamp range. The solve
    rolls out each command at most once,
    2 + SOLVE_STEPS of them in all, so the fallback gets what the secant
    left: where it has to bisect after k secant rollouts, its bracket
    may end up to 2**k times wider than width.
    substep_s, hold_steps and rate_hz are the rollout's clock, sigma and xi
    its stance gain and feedback bias.
    """
    h = 1.0 / rate_hz
    e = wrap_signed(phi_j - theta)
    target = (theta + omega_m * h + e * (1.0 - gain_k * h)) % TWO_PI

    seen = {}  # gap by command: each rollout runs at most once per solve

    def gap(delta: float) -> float:
        if delta not in seen:
            seen[delta] = wrap_signed(rollout_phase(phi_j, phi_pair, omega_m + delta, sigma, xi,
                                                    h, substep_s, hold_steps) - target)
        return seen[delta]

    width = DELTA_MAX * 2.0 ** (1 - SOLVE_STEPS)
    lo = hi = g_lo = g_hi = None  # the tightest bracket seen, g_lo < 0 < g_hi
    x, slope = max(-DELTA_MAX, min(float(guess), DELTA_MAX)), h
    x_prev = g_prev = None
    while len(seen) < SOLVE_STEPS:  # two rollouts stay for the clamp ends
        g = gap(x)
        if abs(g) <= h * width:
            # a root within one width of a clamp end may lie past it:
            # that end's rollout decides saturation, as it would cold
            root = x - g / slope
            if g <= 0.0 and root >= DELTA_MAX - width and gap(DELTA_MAX) <= 0.0:
                return DELTA_MAX
            if g >= 0.0 and root <= width - DELTA_MAX and gap(-DELTA_MAX) >= 0.0:
                return -DELTA_MAX
            return x
        if g < 0.0:
            if lo is None or x > lo:
                lo, g_lo = x, g
        elif hi is None or x < hi:
            hi, g_hi = x, g
        if x_prev is not None:
            slope = (g - g_prev) / (x - x_prev)
            if not (slope > 0.0 and abs(g) <= 0.5 * abs(g_prev)):
                break
        x, x_prev, g_prev = x - g / slope, x, g
        if not -DELTA_MAX <= x <= DELTA_MAX:
            break
    if lo is None or hi is None:
        g_a, g_b = gap(-DELTA_MAX), gap(DELTA_MAX)
        if g_a >= 0.0:
            return -DELTA_MAX
        if g_b <= 0.0:
            return DELTA_MAX
        if lo is None:
            lo, g_lo = -DELTA_MAX, g_a
        if hi is None:
            hi, g_hi = DELTA_MAX, g_b
    return _illinois(gap, lo, g_lo, hi, g_hi, width, h, 2 + SOLVE_STEPS - len(seen))


def modulate(phi_obs_j, theta_obs, omega_m: float, sigma: float, xi: float,
             cfg: ScenarioConfig, pair_obs=None, guess: float = 0.0) -> ModulatorCommand:
    """One frequency command from the tracked leg's phase and the music phase.

    Default law: delta_omega = clamp(-k * e, +-DELTA_MAX) with
    e = wrap(phi_j - theta), so a leading oscillator slows down. The
    optional error correction and feedforward modes are described in
    the module docstring; the clamp always applies to the command.
    cfg, the run's resolved ScenarioConfig, sets gain_k, error_mode and
    feedforward; the feedforward rollout runs on the run's fixed clock
    and its plant rate, with sigma and xi, the tracked leg's stance gain
    and feedback bias in the run's bank; sigma also sets the footfall
    law's wobble, whose model keeps xi = 0.
    pair_obs, a (cos, sin) observation of a leg from the opposite
    diagonal pair, feeds the feedforward rollout model; the raw and
    footfall laws ignore it. guess is the command the feedforward solve
    starts from, in a run the previous one; the other laws ignore it too.
    The observations are unit (cos, sin) pairs and omega_m lies in the
    gait band, where fold_tempo puts it; none of them is checked here.
    """
    pc, ps = phi_obs_j
    tc, ts = theta_obs
    phi_j = math.atan2(ps, pc) % TWO_PI
    theta = math.atan2(ts, tc) % TWO_PI
    if cfg.error_mode == "footfall" and not cfg.feedforward:
        # steer the underlying ramp phi - wobble: the ramp crosses
        # 3*pi/2 at the stance midpoint, which is the footfall event
        # the force trace reports, so locking it to theta centers
        # footfalls on beats; the feedforward solve steers the raw error
        a = wobble_amplitude(omega_m, sigma)
        e = wrap_signed(phi_j - theta - a * max(0.0, -math.sin(phi_j)))
    else:
        e = wrap_signed(phi_j - theta)
    if cfg.feedforward:
        oc, os_ = pair_obs
        _, hold_steps, _ = cfg.ticks()
        delta = feedforward_command(phi_j, math.atan2(os_, oc) % TWO_PI, theta, omega_m, sigma,
                                    xi, cfg.gain_k, 1.0 / cfg.rate_oscillator_hz,
                                    hold_steps, cfg.rate_modulator_hz, guess=guess)
    else:
        delta = -cfg.gain_k * e
    delta = float(min(max(delta, -DELTA_MAX), DELTA_MAX))
    return ModulatorCommand(delta_omega=delta, omega_tilde=omega_m + delta,
                            phase_error=float(e))
