"""Trust-region policy updates with a monotonic-improvement contract.

An accepted update always satisfies both line-search conditions: mean
KL(old || new) within 1.5x the step size, and non-negative improvement
of the importance-weighted surrogate. Steps that cannot satisfy both
are rejected outright (parameters restored), never partially applied;
the concurrent two-level training scheme leans on this contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .params import NumericsError, ShapeError

KL_SLACK = 1.5  # accepted steps satisfy kl <= KL_SLACK * max_kl
CG_ITERATIONS = 10
CG_DAMPING = 0.1
BACKTRACK_RATIO = 0.8
MAX_BACKTRACKS = 15


@dataclass
class TrpoConfig:
    max_kl: float = 0.01

    def __post_init__(self):
        if not self.max_kl > 0:
            raise ValueError("max_kl must be positive")


@dataclass
class AdvantageBatch:
    """(s, a, A) samples plus the behavior policy's cached distribution."""
    observations: np.ndarray
    actions: np.ndarray
    advantages: np.ndarray
    old_log_probs: np.ndarray
    old_dist: object

    def __post_init__(self):
        self.observations = np.atleast_2d(np.asarray(self.observations, dtype=np.float64))
        self.advantages = np.asarray(self.advantages, dtype=np.float64).ravel()
        self.old_log_probs = np.asarray(self.old_log_probs, dtype=np.float64).ravel()
        n = self.observations.shape[0]
        if n < 1:
            raise ShapeError("advantage batch must contain at least one sample")
        if len(self.advantages) != n or len(self.old_log_probs) != n or len(self.actions) != n:
            raise ShapeError("advantage batch fields must be aligned")
        if not np.all(np.isfinite(self.advantages)):
            raise NumericsError("advantages contain non-finite values")

    def __len__(self) -> int:
        return self.observations.shape[0]


@dataclass
class TrpoDiagnostics:
    accepted: bool
    kl: float
    surrogate_before: float
    surrogate_after: float
    backtracks: int

    @property
    def improvement(self) -> float:
        return self.surrogate_after - self.surrogate_before


def surrogate_loss(batch: AdvantageBatch, policy) -> float:
    """mean(exp(logp - old_logp) * A); equals mean(A) at the old parameters."""
    return _surrogate(batch, policy.log_prob(batch.observations, batch.actions))


def _surrogate(batch: AdvantageBatch, logp: np.ndarray) -> float:
    return float(np.mean(np.exp(logp - batch.old_log_probs) * batch.advantages))


def conjugate_gradient(apply_a: Callable[[np.ndarray], np.ndarray], b: np.ndarray,
                       iters: int = 10, tol: float = 1e-10) -> np.ndarray:
    """Solve A x = b for symmetric positive-definite A given only A @ v."""
    x = np.zeros_like(b)
    r = b.copy()
    p = b.copy()
    rr = float(r @ r)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return x
    for _ in range(iters):
        if np.sqrt(rr) <= tol * b_norm:
            break
        ap = apply_a(p)
        if not np.all(np.isfinite(ap)):
            raise NumericsError("non-finite operator application in conjugate gradient")
        alpha = rr / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        rr_new = float(r @ r)
        p = r + (rr_new / rr) * p
        rr = rr_new
    if not np.all(np.isfinite(x)):
        raise NumericsError("conjugate gradient diverged")
    return x


def standardize_advantages(advantages: np.ndarray) -> np.ndarray:
    """Zero-mean unit-variance rescaling; preserves the sample ordering."""
    adv = np.asarray(advantages, dtype=np.float64)
    return (adv - adv.mean()) / (adv.std() + 1e-8)


def trpo_update(policy, batch: AdvantageBatch, cfg: TrpoConfig) -> TrpoDiagnostics:
    """One trust-region step on the policy; rejects rather than degrades.

    Returns diagnostics; the policy parameters are mutated only when the
    step is accepted.
    """
    theta_old = policy.flat()
    adv = standardize_advantages(batch.advantages)
    work = AdvantageBatch(batch.observations, batch.actions, adv,
                          batch.old_log_probs, batch.old_dist)
    # one forward pass at theta_old: the surrogate's weights, gradient and Fisher products
    fwd = policy.forward_batch(work.observations)
    weights = np.exp(policy.dist_log_prob(fwd.dist, work.actions) - work.old_log_probs) * adv
    surr_before = float(np.mean(weights))
    g = policy.grad_logprob_weighted(work.observations, work.actions, weights, fwd)
    if not np.all(np.isfinite(g)) or float(np.max(np.abs(g), initial=0.0)) < 1e-12:
        return TrpoDiagnostics(False, 0.0, surr_before, surr_before, 0)

    apply_a = policy.fvp_builder(work.observations, CG_DAMPING, fwd)

    try:
        step_dir = conjugate_gradient(apply_a, g, CG_ITERATIONS)
        s_as = float(step_dir @ apply_a(step_dir))
    except NumericsError:
        return TrpoDiagnostics(False, 0.0, surr_before, surr_before, 0)
    if not np.isfinite(s_as) or s_as <= 0.0:
        return TrpoDiagnostics(False, 0.0, surr_before, surr_before, 0)

    full_step = np.sqrt(2.0 * cfg.max_kl / s_as) * step_dir
    shrink = 1.0
    for backtracks in range(MAX_BACKTRACKS):
        policy.set_flat(theta_old + shrink * full_step)
        dist = policy.dist_params(work.observations)  # shared by the KL and the surrogate
        kl = policy.dist_kl(work.old_dist, dist)
        surr = _surrogate(work, policy.dist_log_prob(dist, work.actions))
        if (np.isfinite(kl) and np.isfinite(surr)
                and kl <= KL_SLACK * cfg.max_kl and surr - surr_before >= 0.0):
            return TrpoDiagnostics(True, float(kl), surr_before, float(surr), backtracks)
        shrink *= BACKTRACK_RATIO
    policy.set_flat(theta_old)
    return TrpoDiagnostics(False, 0.0, surr_before, surr_before, MAX_BACKTRACKS)
