import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beatgait.errors import InsufficientDataError
from beatgait.estimator import (
    EstimatorInput,
    FittedModel,
    fit,
    mix,
    predict,
)
from beatgait.oscillator import TWO_PI


def plant_dataset(n, rng, noise=0.0):
    """A batch of observations plus true normalized loads from random phase states."""
    phases = rng.uniform(0, TWO_PI, (2 * n + 10, 4))
    w = np.where(phases >= math.pi, np.sin(phases - math.pi), 0.0)  # stance weights
    total = w.sum(axis=1)
    keep = total > 1e-6
    phases, w, total = phases[keep][:n], w[keep][:n], total[keep][:n]
    assert len(phases) == n
    shares = w / total[:, None]
    inputs = EstimatorInput(contact_indicators=(phases >= math.pi).astype(float),
                            support_shares=shares)
    g = np.minimum(shares, 1.0)
    if noise:
        g = np.clip(g + rng.normal(0.0, noise, g.shape), 0.0, 1.0)
    return inputs, g


def features(inputs):
    """The [I, I*s] design matrix of a batch, one row per leg-sample."""
    ind = inputs.contact_indicators
    return np.stack([ind, ind * inputs.support_shares], axis=-1).reshape(-1, 2)


def rows(inputs):
    """The observations of a batch one at a time, as predict takes them."""
    return zip(inputs.contact_indicators, inputs.support_shares)


class TestInput:
    def test_validation(self):
        ok = EstimatorInput(contact_indicators=np.array([[0, 1, 1, 0]]),
                            support_shares=np.array([[0, 0.5, 1.0, 0]]))
        assert len(ok) == 1


class TestFit:
    def test_exact_on_plant_data(self):
        inputs, g = plant_dataset(250, np.random.default_rng(0))
        model = fit(inputs, g)
        assert model.mse <= 1e-10
        assert not model.rank_deficient
        # the load law is the indicator-masked share itself
        assert model.coeffs[0] == pytest.approx(0.0, abs=1e-9)
        assert model.coeffs[1] == pytest.approx(1.0, abs=1e-9)

    def test_noise_floor(self):
        inputs, g = plant_dataset(2000, np.random.default_rng(1), noise=0.01)
        model = fit(inputs, g)
        assert model.mse == pytest.approx(1e-4, abs=5e-5)

    def test_matches_per_observation_reference(self):
        # reference: the feature matrix stacked one observation at a time
        inputs, g = plant_dataset(3000, np.random.default_rng(4), noise=0.01)
        x = np.vstack([np.column_stack([i, i * s]) for i, s in rows(inputs)])
        coeffs, *_ = np.linalg.lstsq(x, g.reshape(-1), rcond=None)
        model = fit(inputs, g)
        assert model.coeffs.tobytes() == coeffs.tobytes()
        assert model.mse == float(np.mean((x @ coeffs - g.reshape(-1)) ** 2))

    def test_rank_deficient_flag(self):
        inputs = EstimatorInput(contact_indicators=np.ones((30, 4)),
                                support_shares=np.full((30, 4), 0.25))
        g = np.full((30, 4), 0.25)
        model = fit(inputs, g)
        assert model.rank_deficient
        assert np.all(np.isfinite(model.coeffs))
        # equal rows take the ridge solve
        x, y = features(inputs), g.reshape(-1)
        ridge = np.linalg.solve(x.T @ x + 1e-8 * np.eye(2), x.T @ y)
        assert model.coeffs.tobytes() == ridge.tobytes()

    @pytest.mark.parametrize("design", ["equal rows", "no stance", "constant share",
                                        "one leg-sample differs", "plant"])
    def test_rank_matches_matrix_rank(self, design):
        ind, sw = np.ones((30, 4)), np.full((30, 4), 0.25)
        if design == "no stance":
            ind[:] = 0.0
        elif design == "constant share":
            ind[::2] = 0.0
        elif design == "one leg-sample differs":
            sw[7, 2] = 0.5
        elif design == "plant":
            inputs, _ = plant_dataset(30, np.random.default_rng(5))
            ind, sw = inputs.contact_indicators, inputs.support_shares
        inputs = EstimatorInput(ind, sw)
        model = fit(inputs, np.full((30, 4), 0.25))
        assert model.rank_deficient == (np.linalg.matrix_rank(features(inputs)) < 2)
        assert model.rank_deficient == (design in ("equal rows", "no stance",
                                                   "constant share"))

    def test_sample_floor(self):
        inputs, g = plant_dataset(24, np.random.default_rng(2))
        with pytest.raises(InsufficientDataError):
            fit(inputs, g)
        # an empty batch is too small, not malformed
        with pytest.raises(InsufficientDataError, match="got 0"):
            fit(EstimatorInput(np.zeros((0, 4)), np.zeros((0, 4))), np.zeros((0, 4)))


class TestPredict:
    def model(self):
        inputs, g = plant_dataset(250, np.random.default_rng(5))
        return fit(inputs, g)

    def test_matches_plant(self):
        model = self.model()
        inputs, g = plant_dataset(50, np.random.default_rng(6))
        for obs, truth in zip(rows(inputs), g):
            assert np.allclose(predict(obs, model), truth, atol=1e-6)

    def test_zero_indicator_zero_prediction(self):
        model = self.model()
        obs = ([0.0, 1.0, 1.0, 0.0], [0.9, 0.5, 0.5, 0.9])
        pred = predict(obs, model)
        assert pred[0] == 0.0 and pred[3] == 0.0

    def test_clipped(self):
        model = FittedModel(coeffs=np.array([5.0, 5.0]), mse=0.0,
                            rank_deficient=False)
        obs = ([1.0] * 4, [1.0] * 4)
        assert np.all(np.array(predict(obs, model)) == 1.0)

    def test_matches_matrix_product_bit_for_bit(self):
        # the per-leg scalar form must round like clip([I, I*s] @ coeffs),
        # signed zeros included, so that runs reproduce their goldens
        rng = np.random.default_rng(9)
        inputs, _ = plant_dataset(2000, rng)
        for scale in (1.0, 1e-15):
            coeffs = rng.normal(0.0, scale, 2)
            model = FittedModel(coeffs=coeffs, mse=0.0, rank_deficient=False)
            for ind, sw in rows(inputs):
                want = np.clip(np.column_stack([ind, ind * sw]) @ coeffs, 0.0, 1.0)
                got = np.array(predict((ind.tolist(), sw.tolist()), model))
                assert got.tobytes() == want.tobytes()

    def test_negative_zero_becomes_zero(self):
        # I = 0 with negative coefficients sums -0.0 + -0.0 = -0.0
        model = FittedModel(coeffs=np.array([-0.5, -0.5]), mse=0.0, rank_deficient=False)
        pred = predict(([0.0] * 4, [0.3] * 4), model)
        assert pred == [0.0] * 4
        assert all(math.copysign(1.0, p) == 1.0 for p in pred)

    def test_nan_passes_through(self):
        # a NaN must reach the oscillators, whose divergence check names the run
        model = FittedModel(coeffs=np.array([0.1, 0.9]), mse=0.0, rank_deficient=False)
        pred = predict(([1.0, 1.0, 0.0, 1.0], [0.5, math.nan, 0.0, 0.5]), model)
        assert math.isnan(pred[1])
        assert pred[0] == pred[3] == 0.1 + 0.5 * 0.9 and pred[2] == 0.0


class TestMix:
    def test_endpoints(self):
        a = [0.1, 0.2, 0.3, 0.4]
        b = [0.9, 0.8, 0.7, 0.6]
        assert mix(a, b, 0.0) == a
        assert mix(a, b, 1.0) == b

    def test_blend_example(self):
        out = mix([0.8] * 4, [0.4] * 4, 0.5)
        assert isinstance(out, list) and np.allclose(out, 0.6)

    def test_clamped_at_one(self):
        out = mix([1.0] * 4, [1.0] * 4, 0.5)
        assert out == [1.0] * 4

    def test_matches_array_reference(self):
        rng = np.random.default_rng(10)
        for i in range(11):
            rho = i / 10
            for _ in range(200):
                a, b = rng.uniform(0, 1, 4), rng.uniform(0, 1, 4)
                want = np.minimum((1.0 - rho) * a + rho * b, 1.0)
                assert np.array(mix(a.tolist(), b.tolist(), rho)).tobytes() == want.tobytes()

    def test_nan_passes_through(self):
        for rho in (0.0, 0.5, 1.0):
            out = mix([0.2, math.nan, 0.4, 0.5], [0.1, 0.3, math.nan, 0.6], rho)
            assert math.isnan(out[1]) and math.isnan(out[2])
            assert out[0] == (1.0 - rho) * 0.2 + rho * 0.1
            assert out[3] == (1.0 - rho) * 0.5 + rho * 0.6

    @given(st.lists(st.floats(0, 1), min_size=4, max_size=4),
           st.lists(st.floats(0, 1), min_size=4, max_size=4),
           st.integers(min_value=0, max_value=10))
    @settings(max_examples=200)
    def test_range_property(self, a, b, i):
        out = np.array(mix(a, b, i / 10))
        assert np.all(out >= 0) and np.all(out <= 1)
