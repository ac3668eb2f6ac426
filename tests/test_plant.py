import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from beatgait.errors import InsufficientDataError
from beatgait.oscillator import FOOTFALL_PHASE, TWO_PI, normalize_grf
from beatgait.plant import (
    FLIGHT_THRESHOLD,
    PlantConfig,
    contact_onsets,
    grf_from_phases,
    kinematic_beats,
    stance_weight,
    stepping_frequency,
    support_shares,
)

CFG = PlantConfig()
MG = CFG.mass * CFG.g

# foot positions in units of the half-length and half-width of the
# support rectangle, centre of mass at the origin (RF, LF, RH, LH)
FORE_AFT = np.array([1.0, 1.0, -1.0, -1.0])
LEFT_RIGHT = np.array([-1.0, 1.0, -1.0, 1.0])

stance_phases = st.floats(math.pi + 1e-6, TWO_PI - 1e-6)
swing_phases = st.floats(0.0, math.pi - 1e-9)
# stance phases whose weight sin(phi - pi) is at least 1e-2
_MIN_W_OFFSET = math.asin(1e-2) + 1e-12
loaded_phases = st.floats(math.pi + _MIN_W_OFFSET, TWO_PI - _MIN_W_OFFSET)


def diagonal_grounded(phases):
    """True outside flight when RF+LH or LF+RH both carry stance weight."""
    w = stance_weight(list(phases))
    return bool(sum(w) > FLIGHT_THRESHOLD
                and ((w[0] > 0 and w[3] > 0) or (w[1] > 0 and w[2] > 0)))


@st.composite
def grounded_diagonal_vectors(draw, diagonal_legs, other_legs):
    """Phase vectors with a whole diagonal grounded, built rather than filtered.

    One diagonal (RF+LH or LF+RH) draws both phases from diagonal_legs,
    the other diagonal from other_legs.
    """
    phases = np.empty(4)
    diagonal = draw(st.sampled_from([(0, 3), (1, 2)]))
    for leg in range(4):
        phases[leg] = draw(diagonal_legs if leg in diagonal else other_legs)
    return phases


def timeline_from_force(force_column, rate=100.0):
    """A single-leg force series as (t, f) columns sampled at rate."""
    f = np.asarray(force_column, dtype=float)
    return np.arange(f.size) / rate, f


class TestStanceWeight:
    def test_examples(self):
        w = stance_weight([0.5 * math.pi, FOOTFALL_PHASE, 1.25 * math.pi])
        assert w[0] == 0.0
        assert w[1:] == pytest.approx([1.0, math.sqrt(2) / 2])

    def test_swing_region_zero(self):
        phi = np.linspace(0, math.pi, 100, endpoint=False)
        assert stance_weight(phi.tolist()) == [0.0] * 100

    def test_wraps_input(self):
        assert stance_weight([FOOTFALL_PHASE + TWO_PI]) == pytest.approx([1.0])


def _shares_via_pair_weight(w):
    """support_shares in its earlier form, with a helper per diagonal pair."""
    def pair_weight(p, q):
        return p if p == q else 2.0 * p * q / (p + q)

    w_rf, w_lf, w_rh, w_lh = w
    total = w_rf + w_lf + w_rh + w_lh
    h_a = pair_weight(w_rf, w_lh)
    h_b = pair_weight(w_lf, w_rh)
    if total <= FLIGHT_THRESHOLD:
        return [0.0] * 4
    if h_a + h_b > 0.0:
        total = h_a + h_b + h_b + h_a
        s_a, s_b = h_a / total, h_b / total
        return [s_a, s_b, s_b, s_a]
    grounded = [1.0 if v > 0.0 else 0.0 for v in w]
    n = sum(grounded)
    return [v / n for v in grounded]


class TestSupportShares:
    def test_matches_pair_weight_form_bit_for_bit(self):
        rng = np.random.default_rng(31)
        w = np.where(rng.random((60_000, 4)) < 0.3, 0.0, rng.uniform(0.0, 1.0, (60_000, 4)))
        # equal pair weights, one pair's weight zero, both pairs' weights
        # zero with feet grounded, flight, and tiny weights around its threshold
        w[:10_000, 3], w[:10_000, 2] = w[:10_000, 0], w[:10_000, 1]
        w[np.arange(10_000, 20_000), rng.choice([0, 3], 10_000)] = 0.0
        w[20_000:30_000, 0] = w[20_000:30_000, 1] = 0.0
        w[30_000:35_000] = 0.0
        w[35_000:40_000] *= 1e-6
        for row in w.tolist():
            want = np.array(_shares_via_pair_weight(row))
            assert np.array(support_shares(row)).tobytes() == want.tobytes(), row

    def test_one_example_per_branch(self):
        assert support_shares([0.5, 0.0, 0.0, 0.5]) == [0.5, 0.0, 0.0, 0.5]
        assert support_shares([0.3, 0.6, 0.0, 0.0]) == [0.5, 0.5, 0.0, 0.0]
        assert support_shares([0.0, 0.0, 0.7, 0.0]) == [0.0, 0.0, 1.0, 0.0]
        assert support_shares([1e-7] * 4) == [0.0] * 4


class TestGrf:
    def test_trot_split(self):
        n, _ = grf_from_phases([FOOTFALL_PHASE, 0.5 * math.pi,
                                0.5 * math.pi, FOOTFALL_PHASE], CFG)
        assert n[0] == pytest.approx(MG / 2)
        assert n[3] == pytest.approx(MG / 2)
        assert n[1] == 0.0 and n[2] == 0.0

    def test_flight(self):
        assert grf_from_phases([0.5 * math.pi] * 4, CFG) == ([0.0] * 4, [0.0] * 4)
        assert np.array_equal(
            grf_from_phases(np.full(4, 0.5 * math.pi), CFG), np.zeros(4))

    def test_single_stance_full_weight(self):
        n, _ = grf_from_phases([FOOTFALL_PHASE, 0.1, 0.2, 0.3], CFG)
        assert n[0] == pytest.approx(MG)
        g = normalize_grf(n, CFG.mass, CFG.g)
        assert g[0] == 1.0  # the only case where the clamp boundary is hit

    def test_equal_share_bit_uniform(self):
        # ratio-first sharing: equal weights give four bit-identical forces
        n, _ = grf_from_phases([FOOTFALL_PHASE] * 4, CFG)
        assert n[0] == n[1] == n[2] == n[3]
        assert sum(n) == pytest.approx(MG)

    @given(hnp.arrays(np.float64, 4, elements=st.floats(0, TWO_PI - 1e-9)))
    @settings(max_examples=300)
    def test_load_conservation(self, phases):
        n = grf_from_phases(phases, CFG)
        total = sum(stance_weight(phases.tolist()))
        if total > 1e-6:
            assert np.isclose(n.sum(), MG, rtol=1e-12)
        else:
            assert np.array_equal(n, np.zeros(4))
        assert np.all(n >= 0)
        # normalization never needs the clamp on shared support
        g = normalize_grf(n, CFG.mass, CFG.g)
        assert np.all(g <= 1.0)

    @given(stance_phases, stance_phases, swing_phases, swing_phases)
    def test_trot_support_diagonal_equal(self, rf, lh, lf, rh):
        # stance weights differ, loads do not
        n, _ = grf_from_phases([rf, lf, rh, lh], CFG)
        assert n[0] == n[3] == pytest.approx(MG / 2)
        assert n[1] == 0.0 and n[2] == 0.0

    @given(grounded_diagonal_vectors(stance_phases, st.floats(0, TWO_PI - 1e-9)))
    @settings(max_examples=200)
    def test_zero_moment_when_com_supported(self, phases):
        assert diagonal_grounded(phases)
        n = grf_from_phases(phases, CFG)
        assert abs(n @ FORE_AFT) <= 1e-9 * MG
        assert abs(n @ LEFT_RIGHT) <= 1e-9 * MG

    @given(grounded_diagonal_vectors(loaded_phases,
                                     st.one_of(st.floats(0.0, math.pi), loaded_phases)))
    @settings(max_examples=200)
    def test_matches_compliance_model_solve(self, phases):
        # reference: N_i = w_i * (a + b*x_i + c*y_i) with a, b, c solved
        # numerically from vertical-force and both moment balances; the
        # solve is ill-conditioned once a grounded foot's weight nears 0,
        # so every grounded foot carries a stance weight of at least 1e-2
        assert diagonal_grounded(phases)
        w = np.array(stance_weight(phases.tolist()))
        assert not np.any((w > 0) & (w < 1e-2))
        basis = np.stack([w, w * FORE_AFT, w * LEFT_RIGHT], axis=1)
        balance = np.stack([np.ones(4), FORE_AFT, LEFT_RIGHT])
        coef = np.linalg.pinv(balance @ basis) @ np.array([MG, 0.0, 0.0])
        assert np.allclose(grf_from_phases(phases, CFG), basis @ coef,
                           rtol=0.0, atol=1e-9 * MG)

    @given(st.floats(0, TWO_PI - 1e-9), st.floats(0, TWO_PI - 1e-9))
    @settings(max_examples=300)
    def test_diagonal_symmetric_matches_share_law(self, p, q):
        phases = [p, q, q, p]
        w = np.array(stance_weight(phases))
        expected = MG * (w / w.sum()) if w.sum() > 1e-6 else np.zeros(4)
        assert np.array_equal(grf_from_phases(phases, CFG)[0], expected)

    def test_list_forces_match_array_formula_bit_for_bit(self):
        # the simulation loop passes lists of four phases; the goldens were
        # made with the array formula, so every force must match it exactly,
        # and the shares handed back must be the ones the forces came from
        rng = np.random.default_rng(23)
        phases = rng.uniform(0.0, TWO_PI, (200_000, 4))
        # diagonal-symmetric and flight states take the other branches
        phases[:20_000, 2:] = phases[:20_000, 1::-1]
        phases[20_000:25_000] = rng.uniform(0.0, math.pi, (5_000, 4))
        w = np.where(phases >= math.pi, np.sin(phases - math.pi), 0.0)
        shares = np.array([support_shares(row) for row in w.tolist()])
        forces, got_shares = zip(*[grf_from_phases(p, CFG) for p in phases.tolist()])
        assert isinstance(forces[0], list) and isinstance(got_shares[0], list)
        assert np.array_equal(np.array(forces), MG * shares)
        assert np.array(got_shares).tobytes() == shares.tobytes()

    def test_odd_foot_of_three_unloaded(self):
        # RF landed early: LF+RH still balance the body, LH in swing
        n, _ = grf_from_phases([1.05 * math.pi, FOOTFALL_PHASE,
                                FOOTFALL_PHASE, 0.9 * math.pi], CFG)
        assert n[0] == 0.0 and n[3] == 0.0
        assert n[1] == n[2] == pytest.approx(MG / 2)

    @pytest.mark.parametrize("legs", [(0, 1), (2, 3), (0, 2), (1, 3)])
    def test_same_side_pair_splits_evenly(self, legs):
        # centre of mass off the support line: balance the moment along it
        phases = np.full(4, 0.5 * math.pi)
        phases[legs[0]], phases[legs[1]] = 1.1 * math.pi, 1.7 * math.pi
        n = grf_from_phases(phases, CFG)
        assert n[legs[0]] == n[legs[1]] == pytest.approx(MG / 2)
        assert n.sum() == pytest.approx(MG)

    def test_config_constants(self):
        assert (CFG.mass, CFG.g, CFG.force_scale) == (12.0, 9.81, 1.0)
        assert (PlantConfig.mass, PlantConfig.g, PlantConfig.force_scale) == (12.0, 9.81, 1.0)
        with pytest.raises(TypeError):
            PlantConfig(force_scale=0.5)


class TestContactOnsets:
    def test_example(self):
        onsets = contact_onsets(*timeline_from_force([0, 0, 5, 8, 0, 0, 6]))
        assert np.allclose(onsets, [0.02, 0.06])

    def test_constant_series(self):
        assert contact_onsets(*timeline_from_force([0, 0, 0, 0])).size == 0
        assert contact_onsets(*timeline_from_force([3, 3, 3, 3])).size == 0

    def test_first_sample_never_counts(self):
        assert np.allclose(contact_onsets(*timeline_from_force([5, 0, 5])), [0.02])


class TestKinematicBeats:
    def test_unique_peak(self):
        phi = np.linspace(math.pi, TWO_PI, 21, endpoint=False)
        force = MG * np.array(stance_weight(phi.tolist()))
        t, f = timeline_from_force(np.concatenate([[0.0], force, [0.0]]))
        beats = kinematic_beats(t, f)
        # half-sine peak sits mid-stance
        peak_index = 1 + int(np.argmax(force))
        assert np.allclose(beats, [t[peak_index]])

    def test_two_periods_two_beats(self):
        bump = [0, 2, 5, 2, 0]
        assert kinematic_beats(*timeline_from_force(bump + bump[1:])).size == 2

    def test_plateau_midpoint_floor(self):
        # two-sample plateau resolves to the earlier sample
        assert np.allclose(kinematic_beats(*timeline_from_force([0, 1, 2, 2, 1, 0])), [0.02])

    def test_three_sample_plateau_center(self):
        assert np.allclose(kinematic_beats(*timeline_from_force([0, 1, 2, 2, 2, 1, 0])), [0.03])

    def test_longest_peak_run_wins(self):
        # peak value 2 appears as a pair and as a singleton: pair wins
        assert np.allclose(kinematic_beats(*timeline_from_force([0, 1, 2, 2, 1, 2, 0])), [0.02])

    def test_truncated_runs_dropped(self):
        # the runs cut off at the start and at the end give no beat
        t, f = timeline_from_force([3, 1, 0, 0, 1, 2, 1, 0, 0, 2, 5])
        assert np.allclose(kinematic_beats(t, f), [0.05])
        assert kinematic_beats(*timeline_from_force([0, 1, 2, 1])).size == 0
        assert kinematic_beats(*timeline_from_force([1, 2, 1, 0])).size == 0
        assert kinematic_beats(*timeline_from_force([1, 2, 2, 1])).size == 0


class TestSteppingFrequency:
    def test_constant_interval(self):
        assert np.allclose(stepping_frequency([0.0, 0.5, 1.0]), [2.0, 2.0])

    def test_mixed_intervals(self):
        assert np.allclose(stepping_frequency([0.0, 0.5, 1.1]), [2.0, 1.0 / 0.6])

    def test_too_few(self):
        with pytest.raises(InsufficientDataError):
            stepping_frequency([0.0, 0.5])
