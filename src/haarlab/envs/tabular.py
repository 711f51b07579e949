"""Exact finite MDPs for verifying the hierarchy's improvement claims."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


@dataclass
class TabularMdp:
    transition: np.ndarray      # P[s, a, s']
    reward: np.ndarray          # R[s, a]
    initial_dist: np.ndarray    # rho0[s]
    terminal: np.ndarray = field(default=None)  # bool per state

    def __post_init__(self):
        self.transition = np.asarray(self.transition, dtype=np.float64)
        self.reward = np.asarray(self.reward, dtype=np.float64)
        self.initial_dist = np.asarray(self.initial_dist, dtype=np.float64)
        if self.terminal is None:
            self.terminal = np.zeros(self.transition.shape[0], dtype=bool)
        s, a, s2 = self.transition.shape
        if s != s2 or self.reward.shape != (s, a) or self.initial_dist.shape != (s,):
            raise ValueError("inconsistent MDP table shapes")
        rows = self.transition.sum(axis=2)
        if np.max(np.abs(rows - 1.0)) > 1e-12:
            raise ValueError("transition rows must sum to 1 within 1e-12")
        if abs(self.initial_dist.sum() - 1.0) > 1e-12:
            raise ValueError("initial distribution must sum to 1")

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    @property
    def n_actions(self) -> int:
        return self.transition.shape[1]


def random_mdp(n_states: int, n_actions: int, rng: np.random.Generator) -> TabularMdp:
    """Dirichlet-random transition rows and uniform [0, 1] rewards."""
    if n_states < 1 or n_actions < 1:
        raise ValueError("need at least one state and one action")
    transition = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))
    # exact renormalization so row sums hold to 1e-12 regardless of rounding
    transition = transition / transition.sum(axis=2, keepdims=True)
    reward = rng.uniform(0.0, 1.0, size=(n_states, n_actions))
    initial = rng.dirichlet(np.ones(n_states))
    initial = initial / initial.sum()
    return TabularMdp(transition, reward, initial)


def _sample_index(probs: np.ndarray, rng: np.random.Generator) -> int:
    c = np.cumsum(probs)
    return int(min(np.searchsorted(c, rng.random() * c[-1]), len(probs) - 1))


class TabularLanes(NamedTuple):
    """Episodes stepped together, one row per lane."""
    s: np.ndarray    # (L,) current states
    t: np.ndarray    # (L,) steps taken
    rng: np.ndarray  # (L,) each episode's stream, as objects


class TabularRolloutEnv:
    """Adapter exposing a TabularMdp through the rollout protocol.

    Observations at both levels are the one-hot state, at unit scale;
    episodes truncate after `horizon` low steps so infinite-horizon
    chains can be sampled. The transition noise draws from the episode
    stream handed to reset, which the episode state carries, so episodes
    may run interleaved.
    """

    def __init__(self, mdp: TabularMdp, horizon: int):
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        self.mdp = mdp
        self.horizon = horizon
        self.low_obs_dim = mdp.n_states
        self.high_obs_dim = mdp.n_states
        self.low_obs_scale = self.high_obs_scale = np.ones(mdp.n_states)
        self._eye = np.eye(mdp.n_states)

    def high_obs_batch(self, lanes: TabularLanes, low: np.ndarray) -> np.ndarray:
        return low

    def reset(self, rng: np.random.Generator) -> tuple[TabularLanes, np.ndarray]:
        """Start an episode: a one-lane batch and its one-hot state row."""
        s = _sample_index(self.mdp.initial_dist, rng)
        stream = np.empty(1, dtype=object)
        stream[0] = rng
        return TabularLanes(np.array([s]), np.array([0]), stream), self._eye[[s]]

    def step(self, lanes: TabularLanes, action):
        """Advance every lane one step; returns (lanes, one-hot rows,
        rewards, end codes) as PointEnv.step does: 2 at a terminal
        state, else 3 at the horizon; no state is a goal."""
        s_next = np.array([_sample_index(self.mdp.transition[s, int(a)], rng)
                           for s, a, rng in zip(lanes.s.tolist(), action, lanes.rng)])
        reward = self.mdp.reward[lanes.s, np.asarray(action, dtype=np.intp)]
        t = lanes.t + 1
        end = np.where(self.mdp.terminal[s_next], 2, np.where(t >= self.horizon, 3, 0))
        return TabularLanes(s_next, t, lanes.rng), self._eye[s_next], reward, end
