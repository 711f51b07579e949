"""Initial skill set: directional-displacement pre-training in an open
arena in the task's body (its v_max and stumble threshold), set by its
budget alone (PretrainConfig). Zero iterations: the untrained-skills arm.

Each pre-training episode runs a single uniformly drawn skill; the
per-step reward is the agent's displacement projected on that skill's
target direction (unit vectors at angles 2*pi*j/n_skills). Skills share
one network with the same one-hot injection used by the main training
phase, so pre-trained parameters load directly. The proxy never reads
walls or goals: its inputs are the ego observation, the one-hot skill,
and the displacement, all task-independent. Each iteration takes one
trust-region step of at most PRETRAIN_MAX_KL on the advantages of the
proxy returns, discounted at PRETRAIN_GAMMA.

Proxy batches run in lockstep lanes (rollout.run_lanes) in an arena
whose horizon is the episode length, so the env's own timeout ends
each episode. A step's displacement runs to the next step's position,
or to the episode's final state after its last step. The skill probe
in tests/helpers.py runs the same collector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .envs.maze import build_maze
from .envs.point import EnvConfig, PointEnv
from .hierarchy import discounted_returns, fit_value_on_scaled, skill_inputs
from .nets import MlpSpec
from .policies import GaussianPolicy
from .rollout import episode_streams, run_lanes
from .trpo import AdvantageBatch, trpo_update

PRETRAIN_STREAM = 0x5E
INIT_STREAM = 0x11
PRETRAIN_MAX_KL = 0.01  # the trust region of every proxy update
PRETRAIN_GAMMA = 0.99   # the discount of the proxy returns


@dataclass
class PretrainConfig:
    iterations: int = 40  # 0: the skills keep their random initialization
    batch_low_steps: int = 6000
    episode_steps: int = 500

    def __post_init__(self):
        if self.iterations < 0 or self.batch_low_steps < 1 or self.episode_steps < 1:
            raise ValueError("pre-training counts must be positive")


def skill_direction(skill: int, n_skills: int) -> np.ndarray:
    angle = 2.0 * math.pi * skill / n_skills
    return np.array([math.cos(angle), math.sin(angle)])


def proxy_rewards(skill: np.ndarray, position: np.ndarray, next_position: np.ndarray,
                  n_skills: int) -> np.ndarray:
    """Each row's displacement, position to next_position, projected on
    the direction of its skill."""
    skill = np.asarray(skill)
    if skill.min() < 0 or skill.max() >= n_skills:
        raise ValueError("skill index out of range")
    d = np.array([skill_direction(j, n_skills) for j in range(n_skills)])[skill]
    dx = next_position[:, 0] - position[:, 0]
    dy = next_position[:, 1] - position[:, 1]
    return dx * d[:, 0] + dy * d[:, 1]


def open_field_env(steps: int, env_cfg: EnvConfig) -> PointEnv:
    """The open arena in env_cfg's physics, with episodes of `steps`
    steps. It has no goal: the arena only exists to let skills move."""
    return PointEnv(build_maze("open_field"), replace(env_cfg, max_episode_steps=steps))


def fresh_low_policy(n_skills: int, env: PointEnv, seed: int) -> GaussianPolicy:
    rng = np.random.default_rng(np.random.SeedSequence((seed, INIT_STREAM)))
    spec = MlpSpec(env.low_obs_dim + n_skills, output_dim=2)
    scale = np.concatenate([env.low_obs_scale, np.ones(n_skills)])
    return GaussianPolicy(spec, rng, input_scale=scale)


class _SkillCollector:
    """The collector for skill episodes of at most `horizon` steps on
    run_lanes: each lane runs one skill, skill_of(episode, rng) at its
    first step, and pi_l acts on the ego observation with that skill's
    one-hot appended, with the noise rows the stream gives for every step
    right after the skill. Records the ego observation, action, log-prob
    and mean, the position before the step and the skill (no copy: it
    writes only the lanes that joined this step, in the array just built)."""

    def __init__(self, pi_l, n_skills: int, skill_of, horizon: int):
        self.pi_l = pi_l
        self.period = 1  # lanes join on any step
        self.n_skills = n_skills
        self.skill_of = skill_of
        self.horizon = horizon
        self.noise_shape = (horizon, *pi_l.row_shape)

    def act(self, run, high):
        if run.steps[-1] == 0:  # lanes join at the end
            new = np.flatnonzero(run.steps == 0)
            for lane in new.tolist():  # each stream gives the skill, then the noise
                run.skill[lane] = self.skill_of(int(run.episode[lane]), run.rng[lane])
            run.noise[new] = self.pi_l.noise_rows(
                np.stack([self.pi_l.noise(rng, self.horizon) for rng in run.rng[new]]))
        a, logp, mu = self.pi_l.act(skill_inputs(run.low, run.skill, self.n_skills),
                                    run.noise[np.arange(len(run.steps)), run.steps])
        return a, (run.low, a, logp, mu, run.state.position, run.skill)


def pretrain_skills(cfg: PretrainConfig, n_skills: int, seed: int, env_cfg: EnvConfig):
    """Return (low-level policy for n_skills skills, per-iteration stats)
    after cfg.iterations trust-region updates on the proxy rewards, in
    open_field_env(cfg.episode_steps, env_cfg)."""
    env = open_field_env(cfg.episode_steps, env_cfg)
    pi_l = fresh_low_policy(n_skills, env, seed)
    stats = []
    for it in range(cfg.iterations):
        collector = _SkillCollector(pi_l, n_skills,
                                    lambda _, rng: int(rng.integers(n_skills)), env.horizon)
        run = run_lanes(env, episode_streams((seed, PRETRAIN_STREAM, it)), cfg.batch_low_steps,
                        collector)
        low, acts, logps, dists, position, skill = run.columns
        xs = skill_inputs(low, skill, n_skills)
        next_position = np.empty_like(position)
        next_position[:-1] = position[1:]
        next_position[run.done] = run.final.position
        rewards = proxy_rewards(skill, position, next_position, n_skills)
        returns = discounted_returns(rewards, run.done, PRETRAIN_GAMMA)
        v = fit_value_on_scaled(xs, returns, pi_l.input_scale)
        adv = returns - v.predict(xs)
        batch = AdvantageBatch(xs, acts, adv, logps, pi_l.old_dist(dists))
        diag = trpo_update(pi_l, batch, PRETRAIN_MAX_KL)
        stats.append({
            "iteration": it,
            "mean_step_reward": float(rewards.mean()),
            "kl": diag.kl,
            "accepted": diag.accepted,
        })
    return pi_l, stats
