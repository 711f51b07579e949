"""Desk-scale point-mass agent in a grid maze.

Double-integrator dynamics: v <- clip_norm(v + a*ACTION_SCALE*DT, v_max),
p <- p + v*DT with exact swept collisions against wall cells (motion
normal to a wall face stops and that velocity component drops to zero;
the tangential component is preserved). The point mass does not rotate:
the body frame is the world frame, and every observation is taken in it.

Sustained overdrive stands in for the legged agent tripping: commanding
an action whose norm exceeds the stumble threshold for 3 consecutive
steps terminates the episode with the death reward; an infinite
threshold turns trips off. Reaching the goal cell pays the goal reward.
All remaining rewards are zero, and no discounting happens here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .maze import MazeSpec
from .raycast import N_RAYS, goal_bearing, raycast

DT = 0.2  # seconds per low-level step
ACTION_SCALE = 4.0  # acceleration per unit of action
RAY_MAX = 16.0  # the wall rays' range, in world units
STUMBLE_STEPS = 3  # consecutive overdriven steps that count as a fall
LOW_OBS_DIM = 2
HIGH_OBS_DIM = LOW_OBS_DIM + N_RAYS + 2
_FACE_EPS = 1e-9  # resting offset from a wall face, in world units
GOAL_REWARD = 1000.0
DEATH_REWARD = -10.0
# the reward of each end code: 0 runs on, 1 goal, 2 death, 3 timeout
_END_REWARD = np.array((0.0, GOAL_REWARD, DEATH_REWARD, 0.0))


@dataclass
class EnvConfig:
    max_episode_steps: int = 500
    v_max: float = 2.0
    stumble_threshold: float = 1.5  # inf: no action trips the agent

    def __post_init__(self):
        if self.max_episode_steps < 1:
            raise ValueError("max_episode_steps must be >= 1")
        if not (math.isfinite(self.v_max) and self.v_max > 0.0):
            raise ValueError("v_max must be finite and > 0")
        if not self.stumble_threshold > 0.0:  # NaN fails too
            raise ValueError("stumble_threshold must be > 0 (inf turns trips off)")


class EpisodeBatch(NamedTuple):
    """Episodes stepped together: each lane's state as array rows, lane
    axis first."""
    position: np.ndarray   # (L, 2)
    velocity: np.ndarray   # (L, 2)
    t: np.ndarray          # (L,)
    overdrive: np.ndarray  # (L,)


class PointEnv:
    low_obs_dim = LOW_OBS_DIM
    high_obs_dim = HIGH_OBS_DIM

    def __init__(self, maze: MazeSpec, cfg: EnvConfig):
        self.maze = maze
        self.cfg = cfg

    @property
    def horizon(self) -> int:
        """The most steps an episode runs."""
        return self.cfg.max_episode_steps

    # -- observations ---------------------------------------------------------

    def high_obs_batch(self, lanes: EpisodeBatch, low: np.ndarray) -> np.ndarray:
        """The high observations (ego observation, ray distances, goal
        bearing) of a batch's lanes as rows, given their ego rows `low`,
        with one raycast and one goal_bearing call over all positions.
        Rows are computed alone, so a lane's row does not depend on the
        rest of the batch."""
        out = np.empty((len(low), HIGH_OBS_DIM))
        out[:, :LOW_OBS_DIM] = low
        out[:, LOW_OBS_DIM:LOW_OBS_DIM + N_RAYS] = raycast(lanes.position, self.maze, RAY_MAX)
        out[:, LOW_OBS_DIM + N_RAYS:] = goal_bearing(lanes.position, self.maze.goal_center)
        return out

    @property
    def low_obs_scale(self) -> np.ndarray:
        """Per-input rescaling that maps observations to O(1) ranges."""
        v = self.cfg.v_max
        return np.array([1.0 / v, 1.0 / v])

    @property
    def high_obs_scale(self) -> np.ndarray:
        return np.concatenate([self.low_obs_scale,
                               np.full(N_RAYS, 1.0 / RAY_MAX),
                               np.ones(2)])

    # -- episode control --------------------------------------------------------

    def reset(self, rng: np.random.Generator) -> tuple[EpisodeBatch, np.ndarray]:
        """Start an episode: its state as a one-lane batch and its (1, 2)
        ego observation row (the zero velocity), at rest at a uniform
        point of a uniformly drawn start cell."""
        maze = self.maze
        cell = maze.start_cells[int(rng.integers(len(maze.start_cells)))]
        origin = np.array([cell[1] * maze.cell_size, cell[0] * maze.cell_size])
        position = origin + rng.random(2) * maze.cell_size
        state = EpisodeBatch(np.array([position], dtype=np.float64), np.zeros((1, 2)),
                             np.array([0]), np.array([0]))
        return state, np.zeros((1, 2))

    def step(self, state: EpisodeBatch, action):
        """Advance every lane one low-level step.

        Takes (L, 2) actions and returns (next batch, the (L, 2) ego
        observation rows, rewards, end codes): 0 runs on, then by
        precedence 1 the goal, 2 a death (fall), 3 the timeout. The ego
        observation is the velocity; it holds no wall or goal
        information.

        Each lane runs the scalar dynamics on plain floats (math.hypot
        speeds, the exact sweep, whose first leg runs inline). A Python
        loop over the lanes costs less here than numpy's per-call overhead
        for a few lanes at a time.
        """
        cfg = self.cfg
        maze = self.maze
        cs = maze.cell_size
        dt, v_max, horizon = DT, cfg.v_max, cfg.max_episode_steps
        goal_row, goal_col = maze.goal_cell or (None, None)
        gain = ACTION_SCALE * dt
        threshold = cfg.stumble_threshold
        hypot, floor, inf = math.hypot, math.floor, math.inf
        kinematics, overdrive, end = [], [], []  # kinematics: 4 floats per lane
        for (x, y), (vx, vy), (ax, ay), od, t in zip(
                state.position.tolist(), state.velocity.tolist(),
                np.asarray(action, dtype=np.float64).tolist(), state.overdrive.tolist(),
                state.t.tolist()):
            vx += ax * gain
            vy += ay * gain
            speed = hypot(vx, vy)
            if speed > v_max:
                shrink = v_max / speed
                vx *= shrink
                vy *= shrink
            # the sweep's first leg inline: a lane that reaches no cell face
            # within dt moves straight, by the float operations _sweep uses
            col = int(x // cs)
            row = int(y // cs)
            t_x = (((col + 1) * cs - x) / vx if vx > 0.0 else
                   (col * cs - x) / vx if vx < 0.0 else inf)
            t_y = (((row + 1) * cs - y) / vy if vy > 0.0 else
                   (row * cs - y) / vy if vy < 0.0 else inf)
            if t_x >= dt and t_y >= dt:
                x += vx * dt
                y += vy * dt
            else:
                x, y, vx, vy = _sweep(maze, x, y, vx, vy, dt)
            od = od + 1 if hypot(ax, ay) > threshold else 0
            kinematics += (x, y, vx, vy)
            overdrive.append(od)
            if floor(y / cs) == goal_row and floor(x / cs) == goal_col:
                end.append(1)
            elif od >= STUMBLE_STEPS:
                end.append(2)
            else:
                end.append(3 if t + 1 >= horizon else 0)
        kinematics = np.fromiter(kinematics, np.float64, len(kinematics)).reshape(-1, 4)
        end = np.array(end)
        nxt = EpisodeBatch(kinematics[:, :2], kinematics[:, 2:4], state.t + 1, np.array(overdrive))
        return nxt, nxt.velocity, _END_REWARD[end], end


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
