"""Normalized-GRF estimator and its training curriculum.

Learns to predict each leg's normalized load from proprioceptive
observations only: a binary indicator I, 1 while the leg's phase is in
stance (p >= pi), and the leg's support share s, its share of the
supported load (the joint-information proxy available on the desk).
I is not "loaded": a foot in stance whose diagonal partner swings
counts 1 and carries 0. Features are [I, I*s] per leg, pooled across
legs, fitted by closed form least squares. The plant's normalized load
is exactly linear in these features, so the fit is exact up to rounding.

Training data arrive as one batch: EstimatorInput holds (n, 4) arrays
of indicators and support shares, and fit builds the whole feature
matrix in one step. predict and mix are the closed loop's per-sample
calls. They take and return lists of plain floats, mix's list is what
the oscillators then hold, and nothing here re-checks the shapes and
ranges that the curriculum loop guarantees by construction.

The curriculum blends simulated and predicted loads into the feedback
path with a weight rho = iteration/N that grows from 0 to 1 across
the N training iterations, so the oscillators gradually switch from
ground truth to the estimator. Runs without any fitted model can hold the constant
FALLBACK_G = 0.25 (a quarter of body weight per leg) instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError

#: Per-leg prediction of the constant-fallback estimator.
FALLBACK_G = 0.25

#: Ridge term applied when the feature matrix is rank deficient.
RIDGE_EPS = 1e-8

MIN_FIT_SAMPLES = 100


@dataclass(frozen=True)
class EstimatorInput:
    """A batch of proprioceptive observations, one row per control instant.

    contact_indicators: (n, 4) binary flags, 1 while the leg's phase is in stance
    support_shares: (n, 4) values in [0, 1], each leg's share of the supported load
    """

    contact_indicators: np.ndarray
    support_shares: np.ndarray

    def __len__(self) -> int:
        return self.contact_indicators.shape[0]


@dataclass(frozen=True)
class FittedModel:
    """Least-squares coefficients over [I, I*s] plus training diagnostics."""

    coeffs: np.ndarray
    mse: float
    rank_deficient: bool


def fit(inputs: EstimatorInput, g_sim) -> FittedModel:
    """Closed-form least squares of normalized load onto [I, I*s] features.

    inputs: a batch of n observations; g_sim: the matching (n, 4) array
    of simulated normalized loads, taken as given. Legs pool into one
    shared model. Falls back to a ridge solve (eps 1e-8) when the design
    is rank deficient.
    """
    g = np.asarray(g_sim, dtype=float)
    n = len(inputs)
    if n * 4 < MIN_FIT_SAMPLES:
        raise InsufficientDataError(
            f"need at least {MIN_FIT_SAMPLES} leg-samples, got {n * 4}"
        )
    ind = inputs.contact_indicators
    # one row [I, I*s] per leg-sample, observation-major like the loads
    x = np.stack([ind, ind * inputs.support_shares], axis=-1).reshape(-1, 2)
    y = g.reshape(-1)
    # lstsq's rank uses matrix_rank's threshold, max(M, N) * eps * sigma_max
    coeffs, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
    rank_deficient = rank < x.shape[1]
    if rank_deficient:
        xtx = x.T @ x + RIDGE_EPS * np.eye(x.shape[1])
        coeffs = np.linalg.solve(xtx, x.T @ y)
    mse = float(np.mean((x @ coeffs - y) ** 2))
    return FittedModel(coeffs=coeffs, mse=mse, rank_deficient=rank_deficient)


def predict(obs, model: FittedModel) -> list[float]:
    """Predicted normalized load per leg, clipped to [0, 1].

    obs is one observation: a pair (indicators, support shares) of four
    values each, valid as one row of an EstimatorInput. Applies the
    fitted coefficients to [I, I*s]; a leg with indicator 0 has
    all-zero features and therefore predicts 0. A NaN prediction stays
    NaN, as under np.clip.
    """
    c0, c1 = model.coeffs.tolist()
    (i0, i1, i2, i3), (s0, s1, s2, s3) = obs
    p0 = i0 * c0 + (i0 * s0) * c1
    p1 = i1 * c0 + (i1 * s1) * c1
    p2 = i2 * c0 + (i2 * s2) * c1
    p3 = i3 * c0 + (i3 * s3) * c1
    # <= maps -0.0 to 0.0, as the matrix product [I, I*s] @ coeffs does
    return [0.0 if p0 <= 0.0 else 1.0 if p0 > 1.0 else p0,
            0.0 if p1 <= 0.0 else 1.0 if p1 > 1.0 else p1,
            0.0 if p2 <= 0.0 else 1.0 if p2 > 1.0 else p2,
            0.0 if p3 <= 0.0 else 1.0 if p3 > 1.0 else p3]


def mix(g_sim: list, g_pred: list, rho: float) -> list[float]:
    """Curriculum blend min((1 - rho) * G_sim + rho * G_pred, 1) of two lists of four loads.

    The loop builds both in [0, 1] (the plant's normalized loads and
    predict's clip), so nothing here checks them; a NaN passes through
    to the oscillators, whose divergence check names the run.
    """
    a0, a1, a2, a3 = g_sim
    b0, b1, b2, b3 = g_pred
    k = 1.0 - rho
    v0 = k * a0 + rho * b0
    v1 = k * a1 + rho * b1
    v2 = k * a2 + rho * b2
    v3 = k * a3 + rho * b3
    return [1.0 if v0 > 1.0 else v0, 1.0 if v1 > 1.0 else v1,
            1.0 if v2 > 1.0 else v2, 1.0 if v3 > 1.0 else v3]
