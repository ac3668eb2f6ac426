"""Normalized-GRF estimator and its training curriculum.

Learns to predict each leg's normalized load from proprioceptive
observations only: a binary foot contact indicator I and the leg's
stance weight s (the joint-information proxy available on the desk).
Features are [I, I*s] per leg, pooled across legs, fitted by closed
form least squares. On a steady trot the true normalized load is
exactly linear in these features, so the fit is exact up to rounding.

The curriculum blends simulated and predicted loads into the feedback
path with a weight rho that grows from 0 to 1 across training
iterations, so the oscillators gradually switch from ground truth to
the estimator. Runs without any fitted model can hold the constant
FALLBACK_G = 0.25 (a quarter of body weight per leg) instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, InsufficientDataError, NotFittedError

#: Per-leg prediction of the constant-fallback estimator.
FALLBACK_G = 0.25

#: Ridge term applied when the feature matrix is rank deficient.
RIDGE_EPS = 1e-8

MIN_FIT_SAMPLES = 100


@dataclass(frozen=True)
class EstimatorInput:
    """Proprioceptive observation for one control instant.

    contact_indicators: four binary flags, 1 while the foot is loaded
    stance_weights: four stance weights in [0, 1]
    """

    contact_indicators: np.ndarray
    stance_weights: np.ndarray

    def __post_init__(self):
        ind = np.asarray(self.contact_indicators, dtype=float)
        sw = np.asarray(self.stance_weights, dtype=float)
        if ind.shape != (4,) or sw.shape != (4,):
            raise InputError("indicators and stance weights must have shape (4,)")
        if not np.all((ind == 0.0) | (ind == 1.0)):
            raise InputError("contact indicators must be 0 or 1")
        if not np.all(np.isfinite(sw)) or np.any(sw < 0) or np.any(sw > 1):
            raise InputError("stance weights must lie in [0, 1]")
        object.__setattr__(self, "contact_indicators", ind)
        object.__setattr__(self, "stance_weights", sw)


@dataclass(frozen=True)
class CurriculumState:
    """Position in the training curriculum: rho = iteration / total."""

    iteration: int
    total: int
    rho: float

    def __post_init__(self):
        if self.total <= 0 or not (0 <= self.iteration <= self.total):
            raise InputError(
                f"need 0 <= iteration <= total, got {self.iteration}/{self.total}"
            )
        if abs(self.rho - self.iteration / self.total) > 1e-12:
            raise InputError("rho must equal iteration/total")

    @classmethod
    def at(cls, iteration: int, total: int) -> "CurriculumState":
        if total <= 0:
            raise InputError(f"total must be positive, got {total}")
        return cls(iteration=iteration, total=total, rho=iteration / total)


@dataclass(frozen=True)
class FittedModel:
    """Least-squares coefficients over [I, I*s] plus training diagnostics."""

    coeffs: np.ndarray
    mse: float
    rank_deficient: bool

    def to_dict(self) -> dict:
        return {
            "coeffs": [float(c) for c in self.coeffs],
            "mse": float(self.mse),
            "rank_deficient": bool(self.rank_deficient),
        }


def _features(inputs) -> np.ndarray:
    """Stack per-leg feature rows [I, I*s] for a sequence of observations."""
    rows = []
    for obs in inputs:
        ind = obs.contact_indicators
        rows.append(np.column_stack([ind, ind * obs.stance_weights]))
    return np.vstack(rows)


def fit(inputs, g_sim) -> FittedModel:
    """Closed-form least squares of normalized load onto [I, I*s] features.

    inputs: sequence of EstimatorInput; g_sim: matching (n, 4) array of
    simulated normalized loads. Legs pool into one shared model. Falls
    back to a ridge solve (eps 1e-8) when the design is rank deficient.
    """
    g = np.asarray(g_sim, dtype=float)
    n = len(inputs)
    if n == 0 or g.shape != (n, 4):
        raise InputError(f"need matching inputs and (n, 4) loads, got {g.shape}")
    if n * 4 < MIN_FIT_SAMPLES:
        raise InsufficientDataError(
            f"need at least {MIN_FIT_SAMPLES} leg-samples, got {n * 4}"
        )
    x = _features(inputs)
    y = g.reshape(-1)
    rank = np.linalg.matrix_rank(x)
    rank_deficient = rank < x.shape[1]
    if rank_deficient:
        xtx = x.T @ x + RIDGE_EPS * np.eye(x.shape[1])
        coeffs = np.linalg.solve(xtx, x.T @ y)
    else:
        coeffs, *_ = np.linalg.lstsq(x, y, rcond=None)
    mse = float(np.mean((x @ coeffs - y) ** 2))
    return FittedModel(coeffs=coeffs, mse=mse, rank_deficient=rank_deficient)


def predict(obs: EstimatorInput, model: FittedModel | None) -> np.ndarray:
    """Predicted normalized load per leg, clipped to [0, 1].

    Applies the fitted coefficients to [I, I*s]; a leg with indicator 0
    has all-zero features and therefore predicts 0.
    """
    if model is None:
        raise NotFittedError("no fitted model to predict with")
    ind = obs.contact_indicators
    x = np.column_stack([ind, ind * obs.stance_weights])
    return np.clip(x @ model.coeffs, 0.0, 1.0)


def mix(g_sim, g_pred, curriculum: CurriculumState) -> np.ndarray:
    """Curriculum blend min((1 - rho) * G_sim + rho * G_pred, 1)."""
    a = np.asarray(g_sim, dtype=float)
    b = np.asarray(g_pred, dtype=float)
    for name, arr in (("g_sim", a), ("g_pred", b)):
        if arr.shape != (4,) or np.any(arr < 0) or np.any(arr > 1):
            raise InputError(f"{name} must be four values in [0, 1]")
    rho = curriculum.rho
    return np.minimum((1.0 - rho) * a + rho * b, 1.0)
