"""Initial skill set: directional-displacement pre-training in an open
arena, or untouched random initialization.

Each pre-training episode runs a single uniformly drawn skill; the
per-step reward is the agent's displacement projected on that skill's
target direction (unit vectors at angles 2*pi*j/n_skills). Skills share
one network with the same one-hot injection used by the main training
phase, so pre-trained parameters load directly. The proxy never reads
walls or goals: its inputs are the ego observation, the one-hot skill,
and the displacement, all task-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .envs.maze import build_maze
from .envs.point import EnvConfig, PointEnv
from .nets import MlpSpec
from .policies import GaussianPolicy
from .trpo import AdvantageBatch, TrpoConfig, trpo_update
from .values import DEFAULT_RIDGE

PRETRAIN_STREAM = 0x5E
INIT_STREAM = 0x11


@dataclass
class PretrainConfig:
    n_skills: int = 6
    iterations: int = 40
    proxy: str = "velocity_direction"
    batch_low_steps: int = 6000
    episode_steps: int = 500
    gamma: float = 0.99
    hidden: tuple[int, ...] = (32, 32)

    def __post_init__(self):
        if self.proxy not in ("velocity_direction", "random_init"):
            raise ValueError(f"unknown pre-training proxy {self.proxy!r}")
        if self.proxy == "velocity_direction" and self.n_skills < 2:
            raise ValueError("velocity_direction needs at least 2 distinct directions")
        if (self.n_skills < 1 or self.iterations < 0 or self.batch_low_steps < 1
                or self.episode_steps < 1):
            raise ValueError("pre-training counts must be positive")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("pretrain.gamma must lie in (0, 1)")


def skill_direction(skill: int, n_skills: int) -> np.ndarray:
    angle = 2.0 * math.pi * skill / n_skills
    return np.array([math.cos(angle), math.sin(angle)])


def proxy_reward(skill: int, state, next_state, n_skills: int) -> float:
    """Displacement of the agent projected on the skill's direction."""
    if skill >= n_skills:
        raise ValueError("skill index out of range")
    d = skill_direction(skill, n_skills)
    dx = next_state.agent.position[0] - state.agent.position[0]
    dy = next_state.agent.position[1] - state.agent.position[1]
    return float(dx * d[0] + dy * d[1])


def open_field_env(env_cfg: EnvConfig | None = None) -> PointEnv:
    # no goal, no stumble: the arena only exists to let skills move
    if env_cfg is None:
        env_cfg = EnvConfig(stumble_enabled=False)
    return PointEnv(build_maze("open_field"), env_cfg)


def fresh_low_policy(cfg: PretrainConfig, env: PointEnv, seed: int) -> GaussianPolicy:
    rng = np.random.default_rng(np.random.SeedSequence((seed, INIT_STREAM)))
    spec = MlpSpec(env.low_obs_dim + cfg.n_skills, cfg.hidden, 2)
    scale = np.concatenate([env.low_obs_scale, np.ones(cfg.n_skills)])
    return GaussianPolicy(spec, rng, input_scale=scale)


def _collect_proxy_batch(pi_l, env, cfg: PretrainConfig, seed: int, iteration: int):
    xs, acts, rewards, dones, logps, dists = [], [], [], [], [], []
    total = 0
    ep = 0
    while total < cfg.batch_low_steps:
        rng = np.random.default_rng(
            np.random.SeedSequence((seed, PRETRAIN_STREAM, iteration, ep)))
        skill = int(rng.integers(cfg.n_skills))
        onehot = np.zeros(cfg.n_skills)
        onehot[skill] = 1.0
        state, obs = env.reset(rng)
        for t in range(cfg.episode_steps):
            x = np.empty(env.low_obs_dim + cfg.n_skills)
            x[:env.low_obs_dim] = obs.low
            x[env.low_obs_dim:] = onehot
            a, logp, dist = pi_l.act(x, rng)
            nxt, obs, _, done, _ = env.step(state, a)
            xs.append(x)
            acts.append(a)
            rewards.append(proxy_reward(skill, state, nxt, cfg.n_skills))
            dones.append(done or t == cfg.episode_steps - 1)
            logps.append(logp)
            dists.append(dist)
            state = nxt
            total += 1
            if done:
                break
        ep += 1
    return (np.stack(xs), np.stack(acts), np.array(rewards),
            np.array(dones, dtype=bool), np.array(logps), np.stack(dists))


def pretrain_skills(cfg: PretrainConfig, seed: int, env: PointEnv | None = None):
    """Return (low-level policy, per-iteration stats).

    random_init: the freshly initialized parameters, untouched.
    velocity_direction: trust-region updates on the proxy rewards.
    """
    env = env or open_field_env(EnvConfig(stumble_enabled=False,
                                          max_episode_steps=cfg.episode_steps))
    pi_l = fresh_low_policy(cfg, env, seed)
    if cfg.proxy == "random_init":
        return pi_l, []
    from .hierarchy import discounted_returns, fit_value_on_scaled
    x_scale = np.concatenate([env.low_obs_scale, np.ones(cfg.n_skills)])
    stats = []
    for it in range(cfg.iterations):
        xs, acts, rewards, dones, logps, dists = _collect_proxy_batch(
            pi_l, env, cfg, seed, it)
        returns = discounted_returns(rewards, dones, cfg.gamma)
        v = fit_value_on_scaled(xs, returns, x_scale, DEFAULT_RIDGE)
        adv = returns - v.predict(xs)
        batch = AdvantageBatch(xs, acts, adv, logps, (dists, pi_l.log_std.copy()))
        diag = trpo_update(pi_l, batch, TrpoConfig())
        stats.append({
            "iteration": it,
            "mean_step_reward": float(rewards.mean()),
            "kl": diag.kl,
            "accepted": diag.accepted,
        })
    return pi_l, stats


def skill_displacements(pi_l, env: PointEnv, n_skills: int, episodes_per_skill: int,
                        steps: int, seed: int) -> np.ndarray:
    """Mean displacement vector per skill over fresh seeded episodes."""
    out = np.zeros((n_skills, 2))
    for skill in range(n_skills):
        onehot = np.zeros(n_skills)
        onehot[skill] = 1.0
        acc = np.zeros(2)
        for ep in range(episodes_per_skill):
            rng = np.random.default_rng(
                np.random.SeedSequence((seed, 0xD1, skill, ep)))
            state, obs = env.reset(rng)
            start = state.agent.position.copy()
            for _ in range(steps):
                x = np.concatenate([obs.low, onehot])
                a, _, _ = pi_l.act(x, rng)
                state, obs, _, done, _ = env.step(state, a)
                if done:
                    break
            acc += state.agent.position - start
        out[skill] = acc / episodes_per_skill
    return out
