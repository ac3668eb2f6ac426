import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beatgait.errors import InputError
from beatgait.oscillator import (
    FOOTFALL_PHASE,
    TWO_PI,
    OscillatorParams,
    low_load_pair,
    make_bank,
    normalize_grf,
    param_arrays,
    phase_rate,
    select_params,
    stationary_params,
    step_phases,
    wrap_phase,
    wrap_signed,
)

finite_angles = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)


class TestWrapping:
    def test_wrap_phase_range_bulk(self):
        # bulk randomized check; hypothesis below covers shrinkable edges
        rng = np.random.default_rng(7)
        x = rng.uniform(-1e6, 1e6, 200_000)
        w = wrap_phase(x)
        assert np.all(w >= 0.0) and np.all(w < TWO_PI)
        assert np.allclose(np.sin(w), np.sin(x), atol=1e-6)
        assert np.allclose(np.cos(w), np.cos(x), atol=1e-6)

    def test_wrap_signed_range_bulk(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(-1e6, 1e6, 200_000)
        w = wrap_signed(x)
        assert np.all(w > -math.pi) and np.all(w <= math.pi)
        assert np.allclose(np.sin(w), np.sin(x), atol=1e-6)

    @given(finite_angles)
    @settings(max_examples=300)
    def test_wrap_phase_property(self, x):
        w = wrap_phase(x)
        assert 0.0 <= w < TWO_PI
        assert math.isclose(math.cos(w), math.cos(x), abs_tol=1e-6)

    @given(finite_angles)
    @settings(max_examples=300)
    def test_wrap_signed_property(self, x):
        w = wrap_signed(x)
        assert -math.pi < w <= math.pi

    def test_wrap_edges(self):
        assert wrap_phase(TWO_PI) == 0.0
        assert wrap_phase(0.0) == 0.0
        # tiny negative values must not round up to the open bound
        assert 0.0 <= wrap_phase(-1e-18) < TWO_PI
        assert wrap_signed(math.pi) == math.pi
        assert wrap_signed(-math.pi) == math.pi
        assert wrap_signed(1.5 * math.pi) == pytest.approx(-0.5 * math.pi)

    def test_wrap_scalar_type(self):
        assert isinstance(wrap_phase(7.0), float)
        assert isinstance(wrap_signed(7.0), float)
        assert wrap_phase(np.array([7.0])).shape == (1,)

    @pytest.mark.parametrize("x", [math.pi, -math.pi, TWO_PI, -TWO_PI, 0.0, -0.0, 1e-16,
                                   -1e-16, 1e300, -1e300, math.nan, 7.0, -7.0])
    def test_wrap_signed_scalar_matches_np_mod(self, x):
        # the plain-float path gives the bits of the array path's np.mod rule
        ref = np.mod(np.float64(x) + math.pi, TWO_PI) - math.pi
        ref = math.pi if ref <= -math.pi else float(ref)
        for arg in (x, np.float64(x)):
            got = wrap_signed(arg)
            assert type(got) is float
            if math.isnan(ref):
                assert math.isnan(got)
            else:
                assert got == ref and math.copysign(1.0, got) == math.copysign(1.0, ref)
        assert np.array_equal(wrap_signed(np.array([x])), [ref], equal_nan=True)


class TestParams:
    def test_stationary_params(self):
        params = stationary_params()
        assert len(params) == 4
        for p in params:
            assert (p.omega_tilde, p.sigma, p.xi) == (1.0, 4.0, 1.0)
            assert p.phi0 == FOOTFALL_PHASE

    def test_low_load_pair(self):
        assert low_load_pair((100, 120, 110, 90)) == frozenset({1, 4})
        assert low_load_pair((120, 100, 90, 110)) == frozenset({2, 3})
        # tie falls to the lateral pair
        assert low_load_pair((100, 100, 100, 100)) == frozenset({2, 3})

    def test_select_params_stationary_gate(self):
        assert select_params(0.0, 2.0, (1, 1, 1, 1)) == stationary_params()
        assert select_params(0.5, 99.0, (1, 1, 1, 1)) == stationary_params()
        assert select_params(-0.3, 0.0, (1, 1, 1, 1)) == stationary_params()

    def test_select_params_moving(self):
        params = select_params(0.8, 2.0, (100, 120, 110, 90))
        for leg, p in enumerate(params, start=1):
            assert p.omega_tilde == pytest.approx(4.0 * math.pi)
            assert p.sigma == pytest.approx(TWO_PI)
            assert p.xi == 0.0
            expected = 0.5 * math.pi if leg in (1, 4) else FOOTFALL_PHASE
            assert p.phi0 == expected

    def test_select_params_band(self):
        with pytest.raises(InputError, match=r"f_cmd=.* outside \(1\.0, 4\.0\] Hz"):
            select_params(0.8, 5.0, (1, 1, 1, 1))
        with pytest.raises(InputError, match=r"f_cmd=.* outside \(1\.0, 4\.0\] Hz"):
            select_params(0.8, 1.0, (1, 1, 1, 1))
        with pytest.raises(InputError, match=r"f_cmd=.* outside \(1\.0, 4\.0\] Hz"):
            select_params(0.8, float("nan"), (1, 1, 1, 1))
        # upper bound closed: 4.0 Hz is commandable
        params = select_params(0.8, 4.0, (1, 1, 1, 1))
        assert params[0].omega_tilde == pytest.approx(8.0 * math.pi)

    def test_select_params_pure(self):
        a = select_params(0.8, 2.5, (100, 120, 110, 90))
        b = select_params(0.8, 2.5, (100, 120, 110, 90))
        assert a == b


class TestNormalization:
    def test_normalize_grf_values(self):
        g = normalize_grf([58.86, 0.0, 117.72, 200.0], mass=12.0)
        assert g[0] == pytest.approx(0.5)
        assert g[1] == 0.0
        assert g[2] == pytest.approx(1.0)
        assert g[3] == 1.0  # clamped

    def test_normalize_grf_validation(self):
        with pytest.raises(InputError):
            normalize_grf([-1.0, 0, 0, 0], mass=12.0)
        with pytest.raises(InputError):
            normalize_grf([np.inf, 0, 0, 0], mass=12.0)
        with pytest.raises(InputError):
            normalize_grf([1, 1, 1, 1], mass=0.0)


class TestStep:
    def test_pure_ramp_example(self):
        params = tuple(OscillatorParams(TWO_PI, TWO_PI, 0.0, 0.0) for _ in range(4))
        out = step_phases(np.zeros(4), np.zeros(4), 1e-3, *param_arrays(params))
        assert out[0] == pytest.approx(0.0062831853, abs=1e-9)

    def test_feedback_null_point(self):
        # with the stationary bias, cos(pi) + 1 = 0 kills the feedback
        om, sg, xi = param_arrays(stationary_params())
        rate = phase_rate(np.full(4, math.pi), np.ones(4), om, sg, xi)
        assert np.allclose(rate, 1.0)

    def test_stationary_rate_oracle(self):
        # phi = 0, quarter body weight: 1 - 4 * 0.25 * (1 + 1) = -1
        om, sg, xi = param_arrays(stationary_params())
        rate = phase_rate(np.zeros(4), np.full(4, 0.25), om, sg, xi)
        assert np.allclose(rate, -1.0)
        # footfall phase is the stationary fixed point at quarter load
        rate_fp = phase_rate(np.full(4, FOOTFALL_PHASE), np.full(4, 0.25), om, sg, xi)
        assert np.allclose(rate_fp, 0.0, atol=1e-12)

    def test_stationary_convergence(self):
        params = stationary_params()
        phases = wrap_phase(make_bank(params).phases + np.array([0.3, -0.2, 0.1, -0.4]))
        om, sg, xi = param_arrays(params)
        g = np.full(4, 0.25)
        # linearized decay rate at the fixed point is 1/s: 10 s ~ e^-10
        for _ in range(10_000):
            phases = step_phases(phases, g, 1e-3, om, sg, xi)
        assert np.allclose(wrap_signed(phases - FOOTFALL_PHASE), 0.0, atol=1e-3)

    def test_step_phases_wraps(self):
        rng = np.random.default_rng(3)
        phases = rng.uniform(0, TWO_PI, 4)
        om = np.full(4, 8 * math.pi)
        sg = np.full(4, TWO_PI)
        xi = np.zeros(4)
        for _ in range(2000):
            g = rng.uniform(0, 1, 4)
            phases = step_phases(phases, g, 1e-3, om, sg, xi)
            assert np.all(phases >= 0) and np.all(phases < TWO_PI)

    def test_zero_feedback_linearity(self):
        # 10 s of G = 0 stays on the exact ramp to 1e-6 rad
        omega = 4.0 * math.pi
        om, sg, xi = param_arrays(
            tuple(OscillatorParams(omega, TWO_PI, 0.0, 0.0) for _ in range(4)))
        phases = np.zeros(4)
        g = np.zeros(4)
        n = 10_000
        for _ in range(n):
            phases = step_phases(phases, g, 1e-3, om, sg, xi)
        expected = wrap_phase(omega * n * 1e-3)
        assert np.all(np.abs(wrap_signed(phases - expected)) <= 1e-6)

    def test_dt_refinement_agreement(self):
        # identical held G(t): dt=1e-3 and dt=1e-4 agree within 5e-3 rad over 10 s
        omega = 4.0 * math.pi
        om, sg, xi = param_arrays(
            tuple(OscillatorParams(omega, TWO_PI, 0.0, 0.0) for _ in range(4)))

        def run(dt, n):
            phases = np.array([FOOTFALL_PHASE, 0.5 * math.pi,
                               0.5 * math.pi, FOOTFALL_PHASE])
            # constant G so both trajectories see the same feedback signal
            g = np.array([0.5, 0.0, 0.0, 0.5])
            for _ in range(n):
                phases = step_phases(phases, g, dt, om, sg, xi)
            return phases

        coarse = run(1e-3, 10_000)
        fine = run(1e-4, 100_000)
        assert np.all(np.abs(wrap_signed(coarse - fine)) <= 5e-3)

    def test_list_step_matches_array_formula_bit_for_bit(self):
        # the simulation loop steps lists of four floats; the goldens were
        # made with this numpy formula on arrays, and must not move
        n = 200_000
        rng = np.random.default_rng(17)
        phi = rng.uniform(0.0, TWO_PI, (n, 4))
        g = rng.uniform(0.0, 1.0, (n, 4))
        moving = rng.random((n, 1)) < 0.5
        om = np.where(moving, TWO_PI * rng.uniform(1.001, 4.0, (n, 1)), 1.0) + 0.0 * phi
        sg = np.where(moving, TWO_PI, 4.0) + 0.0 * phi
        xi = np.where(moving, 0.0, 1.0) + 0.0 * phi
        want = np.mod(phi + 1e-3 * (om - sg * g * (np.cos(phi) + xi)), TWO_PI)
        want[want >= TWO_PI] = 0.0
        args = [a.tolist() for a in (phi, g, om, sg, xi)]
        got = [step_phases(p, gg, 1e-3, o, s, x) for p, gg, o, s, x in zip(*args)]
        assert isinstance(got[0], list)
        assert np.array_equal(np.array(got), want)
        assert np.array_equal(step_phases(phi, g, 1e-3, om, sg, xi), want)

    def test_array_arguments_must_match_phases(self):
        # no broadcasting: every argument holds one value per phase
        with pytest.raises(ValueError):
            step_phases(np.zeros(4), np.zeros(3), 1e-3, np.ones(4), np.ones(4), np.zeros(4))
        with pytest.raises(ValueError):
            step_phases(np.zeros((2, 4)), np.zeros((2, 4)), 1e-3, np.ones(4), 1.0, 0.0)

    def test_determinism_bitwise(self):
        params = select_params(0.8, 2.0, (1, 1, 1, 1))
        om, sg, xi = param_arrays(params)

        def run():
            phases = make_bank(params).phases
            rng = np.random.default_rng(11)
            for _ in range(500):
                phases = step_phases(phases, rng.uniform(0, 1, 4), 1e-3, om, sg, xi)
            return phases

        a, b = run(), run()
        assert np.array_equal(a, b)


class TestBank:
    def test_make_bank_initial_phases(self):
        params = select_params(0.8, 2.0, (100, 120, 110, 90))
        bank = make_bank(params)
        assert np.allclose(bank.phases, [0.5 * math.pi, FOOTFALL_PHASE,
                                         FOOTFALL_PHASE, 0.5 * math.pi])

    @given(st.lists(finite_angles, min_size=4, max_size=4))
    @settings(max_examples=200)
    def test_make_bank_wraps_any_start(self, phi0):
        # make_bank is the bank's one constructor, so it alone keeps the phases valid
        bank = make_bank(tuple(OscillatorParams(2.0, 1.0, 0.0, p) for p in phi0))
        assert bank.phases.shape == (4,)
        assert np.all((bank.phases >= 0.0) & (bank.phases < TWO_PI))
