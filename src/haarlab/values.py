"""Cubic polynomial state-value estimators.

V(s) = w3 . s^3 + w2 . s^2 + w1 . s + w0 with elementwise powers and no
cross terms. Fitting is ridge-regularized least squares on the feature
matrix [s^3, s^2, s, 1]; the ridge term keeps the system well posed on
near-duplicate states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import ShapeError

DEFAULT_RIDGE = 1e-5


@dataclass
class PolynomialValueEstimator:
    w3: np.ndarray
    w2: np.ndarray
    w1: np.ndarray
    w0: float

    @classmethod
    def zeros(cls, dim: int) -> "PolynomialValueEstimator":
        return cls(np.zeros(dim), np.zeros(dim), np.zeros(dim), 0.0)

    @property
    def dim(self) -> int:
        return self.w1.shape[0]

    def predict(self, s: np.ndarray) -> float | np.ndarray:
        s = np.asarray(s, dtype=np.float64)
        if s.shape[-1] != self.dim:
            raise ShapeError(f"state has dim {s.shape[-1]}, estimator expects {self.dim}")
        s2 = s * s
        out = s2 * s @ self.w3 + s2 @ self.w2 + s @ self.w1 + self.w0
        return float(out) if np.ndim(out) == 0 else out


def fold_input_scale(est: PolynomialValueEstimator, scale: np.ndarray) -> PolynomialValueEstimator:
    """Rewrite an estimator fit on (scale * s) to consume raw s."""
    scale = np.asarray(scale, dtype=np.float64)
    return PolynomialValueEstimator(est.w3 * scale ** 3, est.w2 * scale ** 2,
                                    est.w1 * scale, est.w0)


def fit_value(states: np.ndarray, targets: np.ndarray,
              ridge: float = DEFAULT_RIDGE) -> PolynomialValueEstimator:
    """Ridge least squares of targets on [s^3, s^2, s, 1].

    Solved as an augmented least-squares problem so that ill-conditioned
    feature matrices (duplicate states, widely different scales) stay
    stable.
    """
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    targets = np.asarray(targets, dtype=np.float64).ravel()
    if states.shape[0] == 0:
        raise ValueError("cannot fit a value estimator on an empty batch")
    if targets.shape[0] != states.shape[0]:
        raise ShapeError("states and targets must be aligned")
    n, d = states.shape
    n_feat = 3 * d + 1
    # the features [s^3, s^2, s, 1] over the ridge rows, written in place
    a = np.empty((n + n_feat, n_feat))
    s2 = np.multiply(states, states, out=a[:n, d:2 * d])
    np.multiply(s2, states, out=a[:n, :d])
    a[:n, 2 * d:3 * d] = states
    a[:n, 3 * d] = 1.0
    a[n:] = np.sqrt(ridge) * np.eye(n_feat)
    b = np.concatenate([targets, np.zeros(n_feat)])
    w, *_ = np.linalg.lstsq(a, b, rcond=None)
    return PolynomialValueEstimator(w[:d].copy(), w[d:2 * d].copy(), w[2 * d:3 * d].copy(),
                                    float(w[3 * d]))
