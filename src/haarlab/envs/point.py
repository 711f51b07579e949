"""Desk-scale point-mass agent in a grid maze.

Double-integrator dynamics: v <- clip_norm(v + a*dt, v_max), p <- p + v*dt
with exact swept collisions against wall cells (motion normal to a wall
face stops and that velocity component drops to zero; the tangential
component is preserved). The point mass does not rotate: the body frame
is the world frame, and every observation is taken in it.

Sustained overdrive stands in for the legged agent tripping: commanding
an action whose norm exceeds the stumble threshold for 3 consecutive
steps terminates the episode with the death reward. Reaching the goal
cell pays the goal reward; gather arenas instead pay per food/bomb
contact. All remaining rewards are zero, and no discounting happens
here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .maze import MazeSpec, sample_gather_sites
from .raycast import N_RAYS, goal_bearing, raycast

STUMBLE_STEPS = 3  # consecutive overdriven steps that count as a fall
LOW_OBS_DIM = 4
HIGH_OBS_DIM = LOW_OBS_DIM + N_RAYS + 2
_FACE_EPS = 1e-9  # resting offset from a wall face, in world units


@dataclass
class EnvConfig:
    goal_reward: float = 1000.0
    death_reward: float = -10.0
    food_reward: float = 1.0
    bomb_reward: float = -1.0
    max_episode_steps: int = 500
    action_scale: float = 4.0
    dt: float = 0.2
    v_max: float = 2.0
    ray_max: float = 16.0
    stumble_enabled: bool = True
    stumble_threshold: float = 1.5

    def __post_init__(self):
        if self.max_episode_steps < 1:
            raise ValueError("max_episode_steps must be >= 1")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not self.v_max > 0:
            raise ValueError("v_max must be positive")


@dataclass(slots=True)
class AgentState:
    position: np.ndarray
    velocity: np.ndarray
    alive: bool


@dataclass(slots=True)
class EpisodeState:
    agent: AgentState
    t: int
    overdrive: int
    done: bool
    food_sites: np.ndarray | None = None
    bomb_sites: np.ndarray | None = None
    food_active: np.ndarray | None = None
    bomb_active: np.ndarray | None = None


class ObservationPair:
    """Factored observation; the task-aware part is computed lazily
    because it is only consumed at skill-switch boundaries."""

    __slots__ = ("low", "_high", "_env", "_agent")

    def __init__(self, low: np.ndarray, env: "PointEnv", agent: AgentState,
                 high: np.ndarray | None = None):
        self.low = low
        self._high = high
        self._env = env
        self._agent = agent

    @property
    def high(self) -> np.ndarray:
        if self._high is None:
            self._high = self._env.high_obs_batch([self])[0]
        return self._high


class PointEnv:
    low_obs_dim = LOW_OBS_DIM
    high_obs_dim = HIGH_OBS_DIM

    def __init__(self, maze: MazeSpec, cfg: EnvConfig):
        self.maze = maze
        self.cfg = cfg

    # -- observations ---------------------------------------------------------

    def low_obs(self, agent: AgentState) -> np.ndarray:
        """Ego observation: velocity, then the constant inputs 0.0 and 1.0
        (sine and cosine of the fixed orientation, kept so that input
        dimensions and checkpoints stay as they were).

        Contains no wall or goal information by construction.
        """
        vx, vy = agent.velocity.tolist()
        return np.array((vx, vy, 0.0, 1.0))

    def high_obs_batch(self, observations: list[ObservationPair]) -> np.ndarray:
        """The high observations (ego observation, ray distances, goal
        bearing) of several pairs as rows, with one raycast and one
        goal_bearing call over all their positions. Rows are computed
        alone, so a pair's row does not depend on the rest of the batch."""
        positions = np.array([o._agent.position for o in observations])
        out = np.empty((len(observations), HIGH_OBS_DIM))
        out[:, :LOW_OBS_DIM] = [o.low for o in observations]
        out[:, LOW_OBS_DIM:LOW_OBS_DIM + N_RAYS] = raycast(positions, self.maze, self.cfg.ray_max)
        out[:, LOW_OBS_DIM + N_RAYS:] = goal_bearing(positions, self.maze.goal_center)
        return out

    def observe(self, agent: AgentState) -> ObservationPair:
        return ObservationPair(self.low_obs(agent), self, agent)

    @property
    def low_obs_scale(self) -> np.ndarray:
        """Per-input rescaling that maps observations to O(1) ranges."""
        v = self.cfg.v_max
        return np.array([1.0 / v, 1.0 / v, 1.0, 1.0])

    @property
    def high_obs_scale(self) -> np.ndarray:
        return np.concatenate([self.low_obs_scale,
                               np.full(N_RAYS, 1.0 / self.cfg.ray_max),
                               np.ones(2)])

    # -- episode control --------------------------------------------------------

    def reset(self, rng: np.random.Generator) -> tuple[EpisodeState, ObservationPair]:
        maze = self.maze
        if maze.kind in ("gather", "open_field"):
            position = maze.cell_center(maze.start_cells[0])
        else:
            cell = maze.start_cells[int(rng.integers(len(maze.start_cells)))]
            origin = np.array([cell[1] * maze.cell_size, cell[0] * maze.cell_size])
            position = origin + rng.random(2) * maze.cell_size
        agent = AgentState(position=position, velocity=np.zeros(2), alive=True)
        state = EpisodeState(agent=agent, t=0, overdrive=0, done=False)
        if maze.kind == "gather":
            food, bombs = sample_gather_sites(maze, rng)
            state.food_sites = food
            state.bomb_sites = bombs
            state.food_active = np.ones(len(food), dtype=bool)
            state.bomb_active = np.ones(len(bombs), dtype=bool)
        return state, self.observe(agent)

    def step(self, state: EpisodeState, action: np.ndarray):
        """Advance one low-level step.

        Returns (next_state, observation_pair, reward, done, info).
        """
        if state.done or not state.agent.alive:
            raise RuntimeError("cannot step a finished episode")
        cfg = self.cfg
        maze = self.maze
        agent = state.agent
        ax = float(action[0])
        ay = float(action[1])
        gain = cfg.action_scale * cfg.dt
        vx, vy = agent.velocity.tolist()
        vx += ax * gain
        vy += ay * gain
        speed = math.hypot(vx, vy)
        if speed > cfg.v_max:
            shrink = cfg.v_max / speed
            vx *= shrink
            vy *= shrink
        px, py = agent.position.tolist()
        px, py, vx, vy = _sweep(maze, px, py, vx, vy, cfg.dt)
        position = np.array((px, py))

        cmd = math.hypot(ax, ay)
        overdrive = state.overdrive + 1 if (cfg.stumble_enabled and cmd > cfg.stumble_threshold) else 0

        t = state.t + 1
        reward = 0.0
        done = False
        alive = True
        info = {"goal": False, "death": False, "timeout": False, "food": 0, "bombs": 0}

        food_active = state.food_active
        bomb_active = state.bomb_active
        if maze.goal_cell is not None and maze.cell_of((px, py)) == maze.goal_cell:
            reward = cfg.goal_reward
            done = True
            info["goal"] = True
        elif overdrive >= STUMBLE_STEPS:
            reward = cfg.death_reward
            done = True
            alive = False
            info["death"] = True
        else:
            if maze.kind == "gather":
                radius = 0.5 * maze.cell_size
                food_active = food_active.copy()
                bomb_active = bomb_active.copy()
                hits = _contacts(position, state.food_sites, food_active, radius)
                if hits:
                    reward += cfg.food_reward * hits
                    info["food"] = hits
                hits = _contacts(position, state.bomb_sites, bomb_active, radius)
                if hits:
                    reward += cfg.bomb_reward * hits
                    info["bombs"] = hits
            if t >= cfg.max_episode_steps:
                done = True
                info["timeout"] = True

        next_agent = AgentState(position=position, velocity=np.array((vx, vy)), alive=alive)
        next_state = EpisodeState(agent=next_agent, t=t, overdrive=overdrive, done=done,
                                  food_sites=state.food_sites, bomb_sites=state.bomb_sites,
                                  food_active=food_active, bomb_active=bomb_active)
        return next_state, self.observe(next_agent), reward, done, info


def _contacts(position: np.ndarray, sites: np.ndarray, active: np.ndarray, radius: float) -> int:
    hits = 0
    for i in range(len(sites)):
        if active[i]:
            dx = sites[i, 0] - position[0]
            dy = sites[i, 1] - position[1]
            if dx * dx + dy * dy <= radius * radius:
                active[i] = False
                hits += 1
    return hits


def _sweep(maze: MazeSpec, x: float, y: float, vx: float, vy: float, dt: float):
    """Move (x, y) with velocity (vx, vy) for dt, sliding along walls.

    Exact continuous collision: advance to the earliest wall-face
    crossing, zero the blocked velocity component, continue with the
    remaining time. The returned position never lies inside a wall cell.
    """
    cs = maze.cell_size
    remaining = dt
    # Track the current cell explicitly; positions may sit exactly on faces.
    col = int(x // cs)
    row = int(y // cs)
    for _ in range(128):
        if remaining <= 0.0 or (vx == 0.0 and vy == 0.0):
            break
        if vx > 0.0:
            t_x = ((col + 1) * cs - x) / vx
        elif vx < 0.0:
            t_x = (col * cs - x) / vx
        else:
            t_x = math.inf
        if vy > 0.0:
            t_y = ((row + 1) * cs - y) / vy
        elif vy < 0.0:
            t_y = (row * cs - y) / vy
        else:
            t_y = math.inf
        t_hit = min(t_x, t_y)
        if t_hit >= remaining:
            x += vx * remaining
            y += vy * remaining
            break
        x += vx * t_hit
        y += vy * t_hit
        remaining -= t_hit
        cross_x = t_x <= t_y
        cross_y = t_y <= t_x
        if cross_x:
            nxt = col + (1 if vx > 0.0 else -1)
            if maze.is_wall_cell(row, nxt):
                # rest just inside the free cell so the face stays crossable
                x = (col + 1) * cs - _FACE_EPS if vx > 0.0 else col * cs + _FACE_EPS
                vx = 0.0
            else:
                col = nxt
        if cross_y:
            nxt = row + (1 if vy > 0.0 else -1)
            if maze.is_wall_cell(nxt, col):
                y = (row + 1) * cs - _FACE_EPS if vy > 0.0 else row * cs + _FACE_EPS
                vy = 0.0
            else:
                row = nxt
    return x, y, vx, vy
