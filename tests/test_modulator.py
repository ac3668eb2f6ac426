import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beatgait import modulator
from beatgait.harness import ScenarioConfig, run_rhythm_sync
from beatgait.modulator import (
    SOLVE_STEPS,
    STANCE_SIGMA,
    TROT_G,
    feedforward_command,
    modulate,
    reward_phase,
    reward_r1,
    reward_r2,
    reward_rhythm,
    ring_distance_sq,
    rollout_phase,
    wobble_amplitude,
)
from beatgait.oscillator import FOOTFALL_PHASE, TWO_PI, wrap_signed

angles = st.floats(min_value=0.0, max_value=TWO_PI - 1e-9)

#: The rollout clock of the default loop: a 1 ms oscillator step, loads
#: held for 10 steps (a 100 Hz plant); feedforward_command takes the
#: 20 Hz command rate after it.
CLOCK = (1e-3, 10)


def unit(phi):
    return (math.cos(phi), math.sin(phi))


def run_cfg(**fields):
    """The resolved config of a rhythm_sync run on the raw error law, as modulate reads it."""
    return ScenarioConfig(**{"mode": "rhythm_sync", "error_mode": "raw", **fields}).resolve()


class TestRingDistance:
    def test_examples(self):
        assert ring_distance_sq(unit(1.0), unit(1.0)) == pytest.approx(0.0)
        assert ring_distance_sq(unit(1.0), unit(1.0 + math.pi)) == pytest.approx(4.0)
        assert ring_distance_sq(unit(0.0), unit(0.5 * math.pi)) == pytest.approx(2.0)

    @given(angles, angles)
    @settings(max_examples=300)
    def test_cosine_identity(self, a, b):
        d2 = ring_distance_sq(unit(a), unit(b))
        assert d2 == pytest.approx(2.0 - 2.0 * math.cos(a - b), abs=1e-9)
        assert 0.0 <= d2 <= 4.0 + 1e-12

    @pytest.mark.parametrize("obs", [(0.6, 0.8), [0.6, 0.8], np.array([0.6, 0.8]),
                                     (np.float64(0.6), np.float64(0.8)), (1, 0)])
    def test_pairs_of_two_accepted(self, obs):
        assert ring_distance_sq(obs, (float(obs[0]), float(obs[1]))) == 0.0


class TestRewards:
    def test_rhythm_examples(self):
        assert reward_rhythm(unit(1.0), unit(1.0), 1.0) == pytest.approx(1.0, abs=1e-12)
        assert reward_rhythm(unit(0.0), unit(math.pi), 1.0) == pytest.approx(
            math.exp(-4.0), abs=1e-12)
        assert reward_rhythm(unit(0.3), unit(2.2), 0.0) == pytest.approx(1.0, abs=1e-12)
        # runs grade with the default scale 1
        assert reward_rhythm(unit(0.3), unit(2.2)) == reward_rhythm(unit(0.3), unit(2.2), 1.0)

    def test_rhythm_monotone(self):
        errs = np.linspace(0, math.pi, 50)
        vals = [reward_rhythm(unit(e), unit(0.0), 1.0) for e in errs]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_r1_examples(self):
        assert reward_r1(1.0, FOOTFALL_PHASE) == pytest.approx(1.0, abs=1e-12)
        assert reward_r1(0.0, 1.23) == 0.0
        assert reward_r1(1.0, FOOTFALL_PHASE + 1.0) == pytest.approx(
            math.exp(-1.0), abs=1e-12)

    def test_r1_wraps_difference(self):
        # phase just below 2*pi sits 'near' the anchor through the wrap
        near = reward_r1(1.0, FOOTFALL_PHASE - TWO_PI + 0.1)
        assert near == pytest.approx(math.exp(-0.01), abs=1e-12)

    def test_r2_table(self):
        assert reward_r2(True, False) == -1.0
        assert reward_r2(True, True) == 1.0
        assert reward_r2(False, False) == 1.0
        assert reward_r2(False, True) == 1.0

    def test_phase_examples(self):
        g = np.array([1.0, 0, 0, 0])
        assert reward_phase(g, np.array([FOOTFALL_PHASE, 0, 0, 0])) == pytest.approx(
            1.0, abs=1e-12)
        g2 = np.array([0.5, 0, 0, 0])
        assert reward_phase(g2, np.array([0.5 * math.pi, 0, 0, 0])) == pytest.approx(
            -0.5, abs=1e-12)
        assert reward_phase(np.zeros(4), np.full(4, 1.0)) == 0.0


class TestModulate:
    OMEGA = TWO_PI * 2.0  # 120 BPM folded

    # 4 Hz, the band's closed upper edge, is commandable
    @pytest.mark.parametrize("f_hz", [2.0, 4.0])
    def test_lock_point(self, f_hz):
        omega = TWO_PI * f_hz
        cmd = modulate(unit(1.0), unit(1.0), omega, run_cfg())
        assert cmd.delta_omega == 0.0
        assert cmd.omega_tilde == omega

    def test_proportional_example(self):
        cfg = run_cfg(gain_k=2.0, delta_max=3.0)
        cmd = modulate(unit(0.1), unit(0.0), self.OMEGA, cfg)
        assert cmd.delta_omega == pytest.approx(-0.2, abs=1e-9)
        assert cmd.phase_error == pytest.approx(0.1, abs=1e-9)

    def test_clamp_example(self):
        cfg = run_cfg(gain_k=10.0, delta_max=2.0)
        cmd = modulate(unit(math.pi - 1e-9), unit(0.0), self.OMEGA, cfg)
        assert cmd.delta_omega == pytest.approx(-2.0)

    def test_sign_correctness(self):
        cfg = run_cfg()
        lead = modulate(unit(0.4), unit(0.1), self.OMEGA, cfg)
        lag = modulate(unit(0.1), unit(0.4), self.OMEGA, cfg)
        assert lead.delta_omega < 0 < lag.delta_omega

    def test_default_clamp_resolution(self):
        # default clamp min(0.5 * omega_m, pi) keeps omega_tilde positive
        cfg = run_cfg(gain_k=100.0)
        cmd = modulate(unit(3.0), unit(0.0), self.OMEGA, cfg)
        assert abs(cmd.delta_omega) <= 0.5 * self.OMEGA
        assert cmd.omega_tilde > 0

    def test_footfall_correction_in_stance(self):
        cfg = run_cfg(error_mode="footfall")
        phi = FOOTFALL_PHASE
        theta = 0.3
        cmd = modulate(unit(phi), unit(theta), self.OMEGA, cfg)
        a = wobble_amplitude(self.OMEGA)
        expected = wrap_signed(phi - theta - a * 1.0)  # -sin(3*pi/2) = 1
        assert cmd.phase_error == pytest.approx(expected, abs=1e-9)

    def test_footfall_matches_raw_in_swing(self):
        raw = modulate(unit(0.8), unit(0.3), self.OMEGA, run_cfg())
        foot = modulate(unit(0.8), unit(0.3), self.OMEGA, run_cfg(error_mode="footfall"))
        assert foot.phase_error == pytest.approx(raw.phase_error, abs=1e-12)

    @given(angles, angles)
    @settings(max_examples=300)
    def test_anti_windup_property(self, a, b):
        cfg = run_cfg(gain_k=4.0)
        cmd = modulate(unit(a), unit(b), self.OMEGA, cfg)
        assert abs(cmd.delta_omega) <= 0.5 * self.OMEGA + 1e-12
        assert cmd.omega_tilde > 0


class TestRollout:
    OMEGA = TWO_PI * 2.0

    def test_swing_is_pure_ramp(self):
        # both pairs in swing carry no load: advance is exactly rate * horizon
        out = rollout_phase(0.5, 0.5, self.OMEGA, 0.02, *CLOCK)
        assert out == pytest.approx((0.5 + self.OMEGA * 0.02) % TWO_PI, abs=1e-12)

    def test_stance_slows_single(self):
        # a lone stance leg (pair in swing) carries G = 0.5 exactly; in
        # late stance (cos > 0) that retards the phase
        phi, h = 1.7 * math.pi, 0.05
        out = rollout_phase(phi, 0.3 * math.pi, self.OMEGA, h, *CLOCK)
        ramp = (phi + self.OMEGA * h) % TWO_PI
        assert wrap_signed(out - ramp) < 0
        # the ideal-trot model: G = 0.5 through the whole stance
        ideal = phi
        for _ in range(50):
            ideal = (ideal + 1e-3 * (self.OMEGA - STANCE_SIGMA * TROT_G * math.cos(ideal))) % TWO_PI
        assert out == ideal

    def test_pair_rollout_shares_load(self):
        phi = 1.2 * math.pi
        lone = rollout_phase(phi, phi - math.pi, self.OMEGA, 0.05, *CLOCK)
        shared = rollout_phase(phi, phi, self.OMEGA, 0.05, *CLOCK)
        # an equal-phase pair halves each leg's share relative to TROT_G
        assert lone != pytest.approx(shared, abs=1e-6)

    def test_wobble_amplitude(self):
        assert wobble_amplitude(self.OMEGA) == pytest.approx(
            STANCE_SIGMA * TROT_G / self.OMEGA)

    @staticmethod
    def per_substep_rollout(phi_j, phi_pair, rate, horizon_s, substep_s, hold_steps):
        """The rollout as one loop over substeps, loads reset every hold_steps."""
        n = max(1, int(round(horizon_s / substep_s)))
        for s in range(n):
            if s % hold_steps == 0:
                wa = math.sin(phi_j - math.pi) if phi_j >= math.pi else 0.0
                wb = math.sin(phi_pair - math.pi) if phi_pair >= math.pi else 0.0
                total = 2.0 * (wa + wb)
                if total <= 1e-6:
                    ga = gb = 0.0
                else:
                    ga = wa / total
                    gb = wb / total
            phi_j = (phi_j + substep_s * (rate - STANCE_SIGMA * ga * math.cos(phi_j))) % TWO_PI
            phi_pair = (phi_pair + substep_s * (rate - STANCE_SIGMA * gb * math.cos(phi_pair))
                        ) % TWO_PI
        return phi_j

    @given(angles, angles, st.floats(min_value=0.0, max_value=40.0),
           st.sampled_from([1, 2, 7, 10, 20]), st.sampled_from([5e-4, 1e-3, 2e-3]),
           st.integers(min_value=0, max_value=6), st.integers(min_value=1, max_value=19))
    @settings(max_examples=500, deadline=None)
    def test_hold_windows_match_per_substep_loop(self, phi, pair, rate, hold_steps, step_s,
                                                 windows, extra):
        # most horizons end inside a hold window, which is cut short
        n = (windows * hold_steps + extra % hold_steps) or 1
        got = rollout_phase(phi, pair, rate, n * step_s, step_s, hold_steps)
        assert got == self.per_substep_rollout(phi, pair, rate, n * step_s, step_s, hold_steps)

    def test_double_support_matches_per_substep_loop(self):
        # with both legs loaded the load split rounds, and about one draw
        # in 500 would show a regrouped STANCE_SIGMA * wa / total
        rng = np.random.default_rng(12)
        for _ in range(20_000):
            phi, pair = rng.uniform(math.pi, TWO_PI, 2)
            rate = rng.uniform(0.0, 40.0)
            hold_steps = int(rng.choice([1, 2, 7, 10, 20]))
            step_s = float(rng.choice([5e-4, 1e-3, 2e-3]))
            horizon_s = int(rng.integers(1, 61)) * step_s
            args = (float(phi), float(pair), rate, horizon_s, step_s, hold_steps)
            assert rollout_phase(*args) == self.per_substep_rollout(*args)


def bisect_command(phi, pair, theta, omega_m, gain_k, delta_max):
    """The feedforward solve as 40 bisection steps: (delta, saturated)."""
    h = 1.0 / 20
    e = wrap_signed(phi - theta)
    target = (theta + omega_m * h + e * (1.0 - gain_k * h)) % TWO_PI

    def gap(delta):
        return wrap_signed(rollout_phase(phi, pair, omega_m + delta, h, *CLOCK) - target)

    lo, hi = -delta_max, delta_max
    g_lo, g_hi = gap(lo), gap(hi)
    if g_lo >= 0.0:
        return lo, True
    if g_hi <= 0.0:
        return hi, True
    best, best_gap = (lo, -g_lo) if -g_lo <= g_hi else (hi, g_hi)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        g = gap(mid)
        if abs(g) < best_gap:
            best, best_gap = mid, abs(g)
        if g >= 0.0:
            hi = mid
        else:
            lo = mid
    return best, False


class TestFeedforward:
    OMEGA = TWO_PI * 2.0

    def p_target(self, phi, theta, gain_k, h):
        e = wrap_signed(phi - theta)
        return (theta + self.OMEGA * h + e * (1.0 - gain_k * h)) % TWO_PI

    def test_hits_proportional_target(self):
        h = 1.0 / 20
        for phi in (0.3, 1.0, 2.5, 4.0, 5.5):
            theta, pair = phi - 0.15, (phi + math.pi) % TWO_PI
            delta = feedforward_command(phi, pair, theta, self.OMEGA, 2.0,
                                        0.5 * self.OMEGA, *CLOCK, 20)
            landed = rollout_phase(phi, pair, self.OMEGA + delta, h, *CLOCK)
            target = self.p_target(phi, theta, 2.0, h)
            assert abs(wrap_signed(landed - target)) <= 1e-9

    def test_saturates(self):
        # lagging theta by pi - 0.2 asks for more speed-up than the clamp allows
        delta = feedforward_command(0.0, math.pi, math.pi - 0.2, self.OMEGA, 4.0, 1.0, *CLOCK, 20)
        assert delta == 1.0

    # below delta_max = 0.25 the rollout's rounding noise (about 1e-15 rad
    # of gap) outgrows the gap change over one stopping width, and the
    # last digits of either solve are noise
    @given(angles, angles, st.floats(min_value=-1.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=40.0, exclude_min=True, exclude_max=True),
           st.floats(min_value=0.25, max_value=TWO_PI))
    @settings(max_examples=300, deadline=None)
    def test_matches_bisection(self, phi, pair, error, gain_k, delta_max):
        # phase errors up to 1 rad mix solves inside the clamp range with
        # saturated ones
        theta = (phi - error) % TWO_PI
        ref, saturated = bisect_command(phi, pair, theta, self.OMEGA, gain_k, delta_max)
        got = feedforward_command(phi, pair, theta, self.OMEGA, gain_k, delta_max, *CLOCK, 20)
        if saturated:
            assert got == ref
        else:
            # the bisection's own resolution is 2 * delta_max * 2**-40
            assert abs(got - ref) <= 4 * 2 * delta_max * 2.0 ** -SOLVE_STEPS

    def test_rollouts_per_solve(self, monkeypatch):
        counts = []
        rollout, solve = modulator.rollout_phase, modulator.feedforward_command

        def counted_rollout(*args, **kwargs):
            counts[-1] += 1
            return rollout(*args, **kwargs)

        def counted_solve(*args, **kwargs):
            counts.append(0)
            return solve(*args, **kwargs)

        monkeypatch.setattr(modulator, "rollout_phase", counted_rollout)
        monkeypatch.setattr(modulator, "feedforward_command", counted_solve)
        run_rhythm_sync(ScenarioConfig(mode="rhythm_sync", synth_bpm=120.0, duration=30.0,
                                       error_mode="raw", feedforward=True))
        assert len(counts) == 600
        assert sum(counts) / len(counts) <= 10
        assert max(counts) <= 2 + SOLVE_STEPS == 42

    def test_small_clamp_stops_at_noise_floor(self, monkeypatch):
        # below a 0.25 rad/s clamp the stopping width stays that of 0.25,
        # so the solve does not chase the rollout's rounding noise; 150
        # interior solves at each clamp, phase errors of 5% of the clamp
        h = 1.0 / 20
        rng = np.random.default_rng(20)
        rollout, counts, gaps = modulator.rollout_phase, [], []

        def counted_rollout(*args, **kwargs):
            counts[-1] += 1
            return rollout(*args, **kwargs)

        for delta_max in (0.01, 0.05):
            n_solves = len(counts) + 150
            while len(counts) < n_solves:
                phi, pair = rng.uniform(0.0, TWO_PI, 2)
                gain_k = rng.uniform(0.5, 4.0)
                theta = (phi - rng.uniform(-0.05, 0.05) * delta_max) % TWO_PI
                target = self.p_target(phi, theta, gain_k, h)

                def gap(delta):
                    return wrap_signed(rollout(phi, pair, self.OMEGA + delta, h, *CLOCK) - target)

                if not gap(-delta_max) < 0.0 < gap(delta_max):
                    continue  # saturated: two rollouts, no search
                counts.append(0)
                with monkeypatch.context() as m:
                    m.setattr(modulator, "rollout_phase", counted_rollout)
                    delta = feedforward_command(phi, pair, theta, self.OMEGA, gain_k, delta_max,
                                                *CLOCK, 20)
                gaps.append(abs(gap(delta)))
        assert sum(counts) / len(counts) <= 8
        assert max(counts) < 2 + SOLVE_STEPS
        assert max(gaps) <= 1e-12

    def solve_on(self, monkeypatch, end_offset, guess=0.0):
        """Solve on a synthetic model whose gap is end_offset(delta); (delta, rollouts)."""
        calls = []

        def rollout(phi, pair, rate, horizon_s, substep_s, hold_steps):
            calls.append(rate)
            return (self.OMEGA * horizon_s + end_offset(rate - self.OMEGA)) % TWO_PI

        monkeypatch.setattr(modulator, "rollout_phase", rollout)
        # theta = phi: zero phase error, so the target is the plain ramp
        return (feedforward_command(0.0, math.pi, 0.0, self.OMEGA, 2.0, math.pi, *CLOCK, 20,
                                    guess=guess), len(calls))

    def test_curved_gap_converges_fast(self, monkeypatch):
        # a convex gap holds one end of a plain regula falsi for many
        # steps; the Illinois weights release it
        a = 2.5 / (math.exp(0.2 * math.pi) - math.exp(0.1))
        delta, rollouts = self.solve_on(
            monkeypatch, lambda d: a * (math.exp(0.2 * d) - math.exp(0.1)))
        assert abs(delta - 0.5) <= 2 * math.pi * 2.0 ** -SOLVE_STEPS
        assert rollouts <= 12

    def test_jump_is_bisected(self, monkeypatch):
        # the gap jumps over zero at 0.3: no secant step lands near it,
        # so the solve bisects down to the jump and keeps the end below
        # it, whose gap is the smaller one
        delta, rollouts = self.solve_on(
            monkeypatch, lambda d: 0.05 * (d - 0.3) + (0.01 if d >= 0.3 else -0.003))
        assert 0.3 - 2 * math.pi * 2.0 ** -SOLVE_STEPS <= delta < 0.3
        assert rollouts <= 2 + SOLVE_STEPS

    @given(angles, angles, st.floats(min_value=-1.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=40.0, exclude_min=True, exclude_max=True),
           st.floats(min_value=0.25, max_value=TWO_PI), st.floats(min_value=-1.0, max_value=1.0))
    @settings(max_examples=300, deadline=None)
    def test_warm_start_matches_bisection(self, phi, pair, error, gain_k, delta_max, where):
        # any start inside the clamp range: saturated solves return the
        # clamp bound exactly, the others agree to test_matches_bisection's
        # tolerance
        theta = (phi - error) % TWO_PI
        ref, saturated = bisect_command(phi, pair, theta, self.OMEGA, gain_k, delta_max)
        got = feedforward_command(phi, pair, theta, self.OMEGA, gain_k, delta_max, *CLOCK, 20,
                                  guess=where * delta_max)
        if saturated:
            assert got == ref
        else:
            assert abs(got - ref) <= 4 * 2 * delta_max * 2.0 ** -SOLVE_STEPS

    @given(angles, angles, st.floats(min_value=-math.pi, max_value=math.pi),
           st.floats(min_value=0.1, max_value=40.0),
           st.sampled_from([0.01, 0.1, 1.0, math.pi, 15.0, 100.0, 1e308]),
           st.floats(min_value=-2.0, max_value=2.0))
    @settings(max_examples=200, deadline=None)
    def test_rollouts_capped(self, phi, pair, error, gain_k, delta_max, where):
        # small, default and wide clamps, starts inside and outside them
        calls = []

        def counted_rollout(*args):
            calls.append(args)
            return rollout_phase(*args)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(modulator, "rollout_phase", counted_rollout)
            got = feedforward_command(phi, pair, (phi - error) % TWO_PI, self.OMEGA, gain_k,
                                      delta_max, *CLOCK, 20, guess=where * min(delta_max, 10.0))
        assert abs(got) <= delta_max
        assert len(calls) <= 2 + SOLVE_STEPS

    @pytest.mark.parametrize("where", [-1.0, -0.5, 0.0, 0.29, 0.31, 1.0])
    @pytest.mark.parametrize("end_offset, flat", [
        (lambda d: 0.05 * (d - 0.3) + (0.01 if d >= 0.3 else -0.003), False),  # a jump at 0.3
        (lambda d: math.copysign(abs(d - 0.3) ** 0.2, d - 0.3), False),  # steep root, flat sides
        (lambda d: 1e-3 * (d - 0.3) ** 3 + 1e-9 * (d - 0.3), True),  # flat root
    ], ids=["jump", "steep", "flat"])
    def test_rollouts_capped_on_hard_gaps(self, monkeypatch, end_offset, flat, where):
        # gaps on which the secant stalls or crawls still end within the
        # rollout cap, at the solve's resolution about the root (or jump)
        # at 0.3; on the flat root the stop at |gap| <= h*width comes first
        delta, rollouts = self.solve_on(monkeypatch, end_offset, guess=where * math.pi)
        assert rollouts <= 2 + SOLVE_STEPS
        if flat:
            width = math.pi * 2.0 ** (1 - SOLVE_STEPS)
            assert abs(end_offset(delta)) <= width / 20
        else:
            assert abs(delta - 0.3) <= 2 * math.pi * 2.0 ** -SOLVE_STEPS

    def test_wide_clamp_ignores_guess(self):
        # delta_max * h > pi/4: the end phase may wrap within the clamp
        # range, and the solve runs from the clamp ends
        args = (1.0, 1.0 + math.pi, 0.8, self.OMEGA, 2.0, 20.0, *CLOCK, 20)
        cold = feedforward_command(*args)
        assert all(feedforward_command(*args, guess=g) == cold for g in (-20.0, -3.0, 5.0, 20.0))

    def test_warm_start_in_lock_runs(self, monkeypatch):
        # the C4 lock runs, each command started from the one before
        counts = []
        rollout, solve = modulator.rollout_phase, modulator.feedforward_command

        def counted_rollout(*args, **kwargs):
            counts[-1] += 1
            return rollout(*args, **kwargs)

        def counted_solve(*args, **kwargs):
            counts.append(0)
            return solve(*args, **kwargs)

        monkeypatch.setattr(modulator, "rollout_phase", counted_rollout)
        monkeypatch.setattr(modulator, "feedforward_command", counted_solve)
        for gain_k in (1.0, 2.0, 4.0):
            run_rhythm_sync(ScenarioConfig(mode="rhythm_sync", synth_bpm=120.0, duration=30.0,
                                           gain_k=gain_k, error_mode="raw", feedforward=True))
        assert len(counts) == 3 * 600
        assert sum(counts) / len(counts) <= 4
        assert max(counts) <= 2 + SOLVE_STEPS

    def test_rollout_on_run_clock(self, monkeypatch):
        # a 200 Hz plant on the 1 kHz oscillator and 20 Hz modulator
        # clock: every rollout spans one 50 ms command tick in 1 ms
        # steps, each load held for 5 of them (10 at the default 100 Hz)
        clocks = set()
        rollout = modulator.rollout_phase

        def recorded_rollout(phi, pair, rate, horizon_s, substep_s, hold_steps):
            clocks.add((horizon_s, substep_s, hold_steps))
            return rollout(phi, pair, rate, horizon_s, substep_s, hold_steps)

        monkeypatch.setattr(modulator, "rollout_phase", recorded_rollout)
        run_rhythm_sync(ScenarioConfig(mode="rhythm_sync", synth_bpm=120.0, duration=2.0,
                                       warmup_s=0.0, feedforward=True, rate_plant_hz=200))
        assert clocks == {(1.0 / 20, 1.0 / 1000, 5)}

    def test_feedforward_via_modulate(self):
        cfg = run_cfg(gain_k=2.0, feedforward=True)
        phi, theta = 2.0, 1.9
        cmd = modulate(unit(phi), unit(theta), self.OMEGA, cfg,
                       pair_obs=unit(phi + math.pi))
        assert abs(cmd.delta_omega) <= 0.5 * self.OMEGA
        assert cmd.phase_error == pytest.approx(wrap_signed(phi - theta), abs=1e-9)
