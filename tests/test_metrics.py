import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beatgait.errors import InsufficientDataError
from beatgait.metrics import (
    SyncReport,
    beat_alignment,
    frequency_deviation,
    frequency_variance,
    relative_phase_differences,
)


class TestBeatAlignment:
    def test_nearest_pairing(self):
        kin = [10.02, 11.01, 11.97]
        mus = [10.0, 11.0, 12.0]
        deltas, worst = beat_alignment(kin, mus, warmup_s=5.0)
        assert deltas == pytest.approx([0.02, 0.01, -0.03])
        assert worst == pytest.approx(0.03)

    def test_tie_pairs_with_later_beat(self):
        deltas, worst = beat_alignment([10.0], [9.9, 10.1], warmup_s=5.0)
        assert deltas[0] == pytest.approx(-0.1)
        assert worst == pytest.approx(0.1)

    def test_warmup_discard(self):
        # everything before 5 s drops from both series before pairing
        kin = [1.0, 6.05]
        mus = [1.4, 6.0]
        deltas, worst = beat_alignment(kin, mus, warmup_s=5.0)
        assert deltas.size == 1
        assert deltas[0] == pytest.approx(0.05)

    def test_custom_warmup(self):
        deltas, _ = beat_alignment([1.0, 2.0], [1.1, 2.1], warmup_s=0.0)
        assert deltas == pytest.approx([-0.1, -0.1])

    def test_before_first_and_after_last(self):
        deltas, _ = beat_alignment([9.0, 30.0], [10.0, 20.0], warmup_s=0.0)
        assert deltas == pytest.approx([-1.0, 10.0])

    def test_empty_after_warmup(self):
        with pytest.raises(InsufficientDataError):
            beat_alignment([1.0, 2.0], [6.0, 7.0], warmup_s=5.0)
        with pytest.raises(InsufficientDataError):
            beat_alignment([6.0], [1.0], warmup_s=5.0)

    def test_late_step_is_positive(self):
        deltas, _ = beat_alignment([10.3], [10.0, 11.0], warmup_s=5.0)
        assert deltas[0] > 0

    @given(st.floats(min_value=7.0, max_value=99.0))
    @settings(max_examples=200)
    def test_offset_matches_nearest_tooth(self, x):
        mus = np.arange(6.0, 101.0, 1.0)
        deltas, worst = beat_alignment([x], mus, warmup_s=5.0)
        gaps = np.abs(mus - x)
        assert worst == pytest.approx(float(gaps.min()), abs=1e-12)
        assert worst <= 0.5 + 1e-9


def _beat_alignment_loop(kin_beats, music_beats, warmup_s):
    """The per-beat loop beat_alignment once ran, kept as its reference."""
    kin = np.asarray(kin_beats, dtype=float)
    mus = np.asarray(music_beats, dtype=float)
    kin = kin[kin >= warmup_s]
    mus = mus[mus >= warmup_s]
    right = np.searchsorted(mus, kin)
    deltas = np.empty_like(kin)
    for i, (k, r) in enumerate(zip(kin, right)):
        lo = mus[r - 1] if r > 0 else None
        hi = mus[r] if r < mus.size else None
        if lo is None:
            deltas[i] = k - hi
        elif hi is None:
            deltas[i] = k - lo
        else:
            deltas[i] = (k - lo) if (k - lo) < (hi - k) else (k - hi)
    return deltas


# music beats on a quarter-second grid and kinematic beats on an eighth-second
# one, so ties (a step exactly halfway between two beats) are common
_MUSIC_TIMES = st.integers(0, 64).map(lambda n: n / 4.0)
_KIN_TIMES = st.one_of(st.integers(0, 136).map(lambda n: n / 8.0),
                       st.floats(0.0, 17.0, allow_nan=False))


class TestBeatAlignmentReference:
    @given(kin=st.lists(_KIN_TIMES, min_size=1, max_size=30),
           mus=st.lists(_MUSIC_TIMES, min_size=1, max_size=20, unique=True),
           warmup=st.one_of(st.sampled_from([0.0, 5.0]), _MUSIC_TIMES, _KIN_TIMES))
    @settings(max_examples=1000, deadline=None)
    def test_matches_per_beat_loop(self, kin, mus, warmup):
        mus = sorted(mus)
        if max(kin) < warmup or max(mus) < warmup:
            with pytest.raises(InsufficientDataError):
                beat_alignment(kin, mus, warmup_s=warmup)
            return
        deltas, worst = beat_alignment(kin, mus, warmup_s=warmup)
        ref = _beat_alignment_loop(kin, mus, warmup)
        assert np.array_equal(deltas, ref)
        assert np.array_equal(np.signbit(deltas), np.signbit(ref))
        assert worst == float(np.abs(ref).max())

    def test_edges(self):
        # before the first beat, a tie, on a beat, after the last, on the warm-up edge
        kin = [5.0, 5.5, 6.25, 7.0, 9.0]
        mus = [4.0, 6.0, 6.5, 7.0]
        deltas, _ = beat_alignment(kin, mus, warmup_s=5.0)
        ref = _beat_alignment_loop(kin, mus, 5.0)
        assert np.array_equal(deltas, ref)
        assert deltas.tolist() == [-1.0, -0.5, -0.25, 0.0, 2.0]


class TestFrequencyVariance:
    def test_population_std(self):
        w = [2.0, 2.0, 2.4, 1.6]
        assert frequency_variance(w) == pytest.approx(float(np.std(w)))

    def test_constant_series(self):
        assert frequency_variance([3.0] * 10) == 0.0

    def test_minimum_samples(self):
        with pytest.raises(InsufficientDataError):
            frequency_variance([2.0])


class TestFrequencyDeviation:
    def test_worked_example(self):
        mean_dev, var = frequency_deviation([2.1, 1.9], 2.0)
        assert mean_dev == pytest.approx(0.1)
        assert var == pytest.approx(0.01)

    def test_exact_tracking(self):
        mean_dev, var = frequency_deviation([2.5] * 8, 2.5)
        assert mean_dev == 0.0 and var == 0.0


class TestRelativePhaseDifferences:
    def test_trot_pattern(self):
        m = relative_phase_differences([0.0, math.pi, math.pi, 0.0])
        assert m[0, 3] == pytest.approx(0.0)
        assert m[1, 2] == pytest.approx(0.0)
        assert abs(m[0, 1]) == pytest.approx(math.pi)
        assert abs(m[2, 3]) == pytest.approx(math.pi)

    def test_wraps_into_signed_band(self):
        m = relative_phase_differences([1.5 * math.pi, 0.0, 0.0, 0.0])
        # 3*pi/2 wraps to -pi/2 on the signed ring
        assert m[0, 1] == pytest.approx(-0.5 * math.pi)

    def test_diagonal_zero(self):
        m = relative_phase_differences([0.3, 1.1, 4.0, 5.9])
        assert np.all(m[np.arange(4), np.arange(4)] == 0.0)

    def test_antisymmetry_off_pi(self):
        m = relative_phase_differences([0.2, 1.0, 2.0, 3.0])
        for i in range(4):
            for k in range(4):
                if abs(abs(m[i, k]) - math.pi) > 1e-9:
                    assert m[i, k] == pytest.approx(-m[k, i], abs=1e-12)


class TestSyncReport:
    def test_defaults_serialize(self):
        rep = SyncReport()
        d = rep.to_dict()
        assert d["delta_t_series"] == []
        assert d["delta_t_max"] is None and d["omega_std"] is None
        assert d["freq_dev_mean"] is None and d["rpd_matrix"] is None
        json.dumps(d)  # stays JSON-clean

    def test_numpy_values_cast(self):
        rep = SyncReport(delta_t_series=[np.float64(0.01)],
                         delta_t_max=np.float64(0.01),
                         omega_std=np.float64(0.002))
        d = rep.to_dict()
        assert isinstance(d["delta_t_max"], float)
        assert isinstance(d["delta_t_series"][0], float)
        json.dumps(d)
