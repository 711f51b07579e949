"""Two-level training core: segmented rollouts, one-step high-level
advantages, advantage-splitting auxiliary rewards, skill-length
annealing, and the per-iteration update cycle.

Rollout scheme: the high-level policy picks a skill from the full
observation every k low steps; the low-level policy runs that skill
(its one-hot appended to the ego observation) until the segment ends.
The high-level reward for a segment is the plain sum of the environment
rewards inside it. Low-level steps are later rewarded with the
segment's estimated high-level advantage split evenly over the
segment's actual length, so the per-segment sums reproduce the
advantage exactly; that conservation is enforced on every call and is
never disabled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .policies import CategoricalPolicy, GaussianPolicy
from .rollout import batch_metrics, episode_streams, run_lanes
from .trpo import AdvantageBatch, TrpoDiagnostics, trpo_update
from .values import PolynomialValueEstimator, fit_value, fold_input_scale

if TYPE_CHECKING:  # config imports pretrain, which imports this module
    from .config import ExperimentConfig


class ConservationError(RuntimeError):
    """Per-segment auxiliary rewards failed to sum to the advantage."""


def skill_length(k_0: int, k_s: int, N: int, iteration: int) -> int:
    """The skill length of an iteration of N: k_0 * exp(-tau * iteration)
    rounded half up, and never below k_s, where tau = 2 ln(k_0 / k_s) / N
    reaches k_s halfway through training (and holds k_0 = k_s fixed)."""
    tau = 2.0 * math.log(k_0 / k_s) / N
    return max(int(math.floor(k_0 * math.exp(-tau * iteration) + 0.5)), k_s)


@dataclass
class RolloutBatch:
    """One batch as arrays: row i of a per-step array is the i-th low
    step, row j of a per-segment array the j-th skill segment, both in
    simulation order."""
    # per low step
    low_l: np.ndarray        # the ego observation the low policy acted on, without the skill
    a_l: np.ndarray
    logp_l: np.ndarray
    dist_l: np.ndarray       # the low policy's distribution parameters
    done_l: np.ndarray       # the step ended its episode
    segment_id: np.ndarray
    # per segment
    s_h: np.ndarray          # observation the skill was chosen from
    s_h_next: np.ndarray     # observation after its last step
    a_h: np.ndarray          # skill index
    r_h: np.ndarray          # sum of the environment rewards inside it
    done_h: np.ndarray       # the segment ended its episode
    seg_len: np.ndarray
    logp_h: np.ndarray
    dist_h: np.ndarray
    # per episode
    success: np.ndarray
    total_return: np.ndarray

    def __post_init__(self):
        if int(self.seg_len.sum()) != len(self.low_l):
            raise ValueError("segment lengths do not cover the low-level steps")

    @property
    def n_low_steps(self) -> int:
        return len(self.low_l)


def skill_inputs(low: np.ndarray, skills, n_skills: int) -> np.ndarray:
    """The low policy's input rows: each ego row with its skill's one-hot
    appended."""
    n, low_dim = low.shape
    x = np.zeros((n, low_dim + n_skills))
    x[:, :low_dim] = low
    x[np.arange(n), low_dim + np.asarray(skills, dtype=np.intp)] = 1.0
    return x


class _SegmentCollector:
    """The hierarchical collector for run_lanes: each lane's skill comes
    from pi_h every k low steps of its episode (the first at its start),
    and pi_l acts on the ego observation with that skill's one-hot
    appended. Its lanes join every k steps, so all of them are at one
    phase of their segments and open them together. When segments open,
    each lane's stream gives its skill's uniform and then the k low-step
    noise rows of its segment, which pi_l.noise_rows turns into act's rows
    for every lane at once. Each step records the ego observation (the
    low level's learner rebuilds the policy input) and the number of the
    segment it opens, in the order segments open, or -1 if it opens none."""

    def __init__(self, pi_h, pi_l, n_skills: int, k: int):
        self.pi_h = pi_h
        self.pi_l = pi_l
        self.n_skills = n_skills
        self.k = self.period = k  # lanes join on segment boundaries
        self.noise_shape = (k, *pi_l.row_shape)
        self.blocks = []  # (s_h, a_h, logp_h, dist_h) rows of the segments each step opens
        self.opened = 0
        self.skill = self.x = self.none = None  # the lanes' skills, their input rows, L -1s

    def act(self, run, high):
        phase = run.steps[0] % self.k
        if phase == 0:
            u, eps = [], []
            for rng in run.rng:
                u.append(self.pi_h.noise(rng, 1))
                eps.append(self.pi_l.noise(rng, self.k))
            run.noise[:] = self.pi_l.noise_rows(np.stack(eps))
            s_h = high()
            skills, logps, dists = self.pi_h.act(s_h, np.concatenate(u))
            run.skill[:] = skills
            number = np.arange(self.opened, self.opened + len(skills))
            self.opened += len(skills)
            self.blocks.append((s_h, skills, logps, dists))
        # lanes that drop come with a new skill array: pi_l's input rows are
        # built anew then and when segments open, else only ego columns change
        if phase == 0 or run.skill is not self.skill:
            self.skill = run.skill
            self.x = skill_inputs(run.low, run.skill, self.n_skills)
            self.none = np.full(len(run.skill), -1)
        else:
            self.x[:, :run.low.shape[1]] = run.low
        a, logp, dist = self.pi_l.act(self.x, run.noise[:, phase])
        return a, (run.low, a, logp, dist, number if phase == 0 else self.none)


def collect_rollouts(pi_h, pi_l, env, n_skills: int, budget_low_steps: int, k: int,
                     seed: tuple[int, ...], lanes: int | None = None) -> RolloutBatch:
    """Simulate episodes until the low-step budget is met.

    Episodes run in lockstep lanes (rollout.run_lanes) that join every k
    steps, so all of them open their segments together: episode e is
    seeded by its index, and it is in the batch iff the episodes before
    it hold fewer than budget_low_steps steps; the batch's last episode
    always runs to completion. The lane count never changes the batch.
    A segment's s_h_next is the next segment's s_h, and zeros where the
    segment ends its episode (its value is never used there).
    """
    if k < 1 or budget_low_steps < 1:
        raise ValueError("k and the step budget must be >= 1")
    c = _SegmentCollector(pi_h, pi_l, n_skills, k)
    run = run_lanes(env, episode_streams(seed), budget_low_steps, c, lanes)
    low_l, a_l, logp_l, dist_l, number = run.columns
    opens = number >= 0  # the rows are in episode order, so segments are too
    segment_id = np.cumsum(opens) - 1
    s_h, a_h, logp_h, dist_h = (np.concatenate(block)[number[opens]] for block in zip(*c.blocks))
    n_segments = len(s_h)
    # bincount adds each segment's rewards in step order, as a running sum would
    r_h = np.bincount(segment_id, weights=run.reward, minlength=n_segments)
    done_h = np.zeros(n_segments, dtype=bool)
    done_h[segment_id[run.done]] = True
    s_h_next = np.zeros_like(s_h)
    s_h_next[:-1] = s_h[1:]
    s_h_next[done_h] = 0.0
    return RolloutBatch(
        low_l=low_l, a_l=a_l, logp_l=logp_l, dist_l=dist_l, done_l=run.done,
        segment_id=segment_id, s_h=s_h, s_h_next=s_h_next,
        a_h=a_h, r_h=r_h, done_h=done_h, seg_len=np.bincount(segment_id, minlength=n_segments),
        logp_h=logp_h, dist_h=dist_h, success=run.success, total_return=run.total_return)


def discounted_returns(rewards: np.ndarray, dones: np.ndarray, gamma: float) -> np.ndarray:
    """Discounted return-to-go of each row, restarting after a done row."""
    rs = rewards.tolist()
    ds = dones.tolist()
    out = [0.0] * len(rs)
    running = 0.0
    for i in range(len(rs) - 1, -1, -1):
        if ds[i]:
            running = 0.0
        running = rs[i] + gamma * running
        out[i] = running
    return np.array(out)


def estimate_high_advantages(batch: RolloutBatch, v_h: PolynomialValueEstimator,
                             gamma_h: float) -> np.ndarray:
    """One-step advantage r + gamma * V(s') - V(s), zero bootstrap at
    terminal segments."""
    live = np.where(batch.done_h, 0.0, 1.0)
    return batch.r_h + gamma_h * v_h.predict(batch.s_h_next) * live - v_h.predict(batch.s_h)


def assign_auxiliary_rewards(batch: RolloutBatch, advantages: np.ndarray) -> np.ndarray:
    """The auxiliary reward of every low step: A_j / seg_len_j for a step
    of segment j.

    The per-segment sums must reproduce A_j to 1e-9; this conservation
    check is a hard error (not an assert), so it can never be disabled.
    A non-finite advantage fails it.
    """
    advantages = np.asarray(advantages, dtype=np.float64)
    if advantages.shape != (len(batch.seg_len),):
        raise ValueError("advantages must align with the segments")
    r_l = (advantages / batch.seg_len)[batch.segment_id]
    # bincount adds each segment's rewards in step order
    sums = np.bincount(batch.segment_id, weights=r_l, minlength=len(advantages))
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails the check
        err = np.max(np.abs(sums - advantages), initial=0.0)
    if not err <= 1e-9:
        raise ConservationError(
            f"auxiliary rewards violate per-segment conservation by {err:.3e}")
    return r_l


def prepare_level_batches(batch: RolloutBatch, advantages: np.ndarray,
                          low_advantages: np.ndarray | None, pi_l, n_skills: int
                          ) -> tuple[AdvantageBatch, AdvantageBatch | None]:
    """Assemble the optimizer inputs for both levels.

    The high level consumes the one-step advantages directly. The low
    level trains on the inputs its policy acted on, each ego row with
    its segment's skill one-hot, built here once per batch; pi_l, which
    collected the batch, gives its old distribution. A low level that
    takes no step passes no advantages and gets no batch.
    """
    high_batch = AdvantageBatch(
        observations=batch.s_h,
        actions=batch.a_h,
        advantages=advantages,
        old_log_probs=batch.logp_h,
        old_dist=batch.dist_h,
    )
    if low_advantages is None:
        return high_batch, None
    low_batch = AdvantageBatch(
        observations=skill_inputs(batch.low_l, batch.a_h[batch.segment_id], n_skills),
        actions=batch.a_l,
        advantages=low_advantages,
        old_log_probs=batch.logp_l,
        old_dist=pi_l.old_dist(batch.dist_l),
    )
    return high_batch, low_batch


def haar_iteration(pi_h: CategoricalPolicy, pi_l: GaussianPolicy | CategoricalPolicy, env,
                   cfg: ExperimentConfig, seed: int, iteration: int,
                   lanes: int | None = None) -> tuple[dict, list[tuple[str, TrpoDiagnostics]]]:
    """One iteration of the concurrent (or alternate) update cycle.

    Collect cfg.B low steps at the iteration's skill length in `lanes`
    lockstep lanes (which change no byte of the batch), fit the
    high-level baseline on the batch's discounted returns, turn its
    one-step advantages into auxiliary low-level rewards, and update
    each level with its own trust-region step. Returns the batch's
    rollout.batch_metrics and a (level, diagnostics) pair for each level
    that took a step, as flat_iteration does.
    """
    k = skill_length(cfg.k_0, cfg.k_s, cfg.N, iteration)
    batch = collect_rollouts(pi_h, pi_l, env, cfg.n_skills, cfg.B, k, seed=(seed, iteration),
                             lanes=lanes)

    gamma_h = cfg.gamma ** k  # a k-step option's semi-MDP discount, as the theorem assumes
    v_h = fit_value_on_scaled(batch.s_h, discounted_returns(batch.r_h, batch.done_h, gamma_h),
                              env.high_obs_scale)
    advantages = estimate_high_advantages(batch, v_h, gamma_h)
    r_l = assign_auxiliary_rewards(batch, advantages)

    ordinal = iteration + 1  # 1-based: odd batches refresh the high level
    do_high = cfg.mode == "concurrent" or ordinal % 2 == 1
    do_low = (cfg.mode == "concurrent" or ordinal % 2 == 0) and cfg.algorithm != "frozen_skills"

    low_advantages = None
    if do_low:  # the low level's returns and baseline serve only its step
        returns_l = discounted_returns(r_l, batch.done_l, cfg.gamma)
        v_l = fit_value_on_scaled(batch.low_l, returns_l, env.low_obs_scale)
        low_advantages = returns_l - v_l.predict(batch.low_l)
    high_batch, low_batch = prepare_level_batches(batch, advantages, low_advantages, pi_l,
                                                  cfg.n_skills)

    updates = []
    if do_high:
        updates.append(("high", trpo_update(pi_h, high_batch, cfg.max_kl)))
    if do_low:
        updates.append(("low", trpo_update(pi_l, low_batch, cfg.max_kl)))
    return batch_metrics(k, batch.n_low_steps, batch.success, batch.total_return), updates


def fit_value_on_scaled(states: np.ndarray, targets: np.ndarray,
                        scale: np.ndarray) -> PolynomialValueEstimator:
    """Fit on rescaled inputs for conditioning (at fit_value's ridge),
    then fold the scale into the weights so the estimator consumes raw
    observations."""
    est = fit_value(states, targets, scale)
    return fold_input_scale(est, scale)
