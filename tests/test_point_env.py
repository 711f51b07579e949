import math

import numpy as np
import pytest
from helpers import END_CODES, cell_of, end_code, step_loops

from haarlab.envs.maze import build_maze, parse_maze_text
from haarlab.envs.point import (DEATH_REWARD, DT, GOAL_REWARD, HIGH_OBS_DIM, LOW_OBS_DIM,
                                STUMBLE_STEPS, EnvConfig, EpisodeBatch, PointEnv)

FACE_EPS = 1e-9  # the env's resting offset from a wall face


def make_env(kind="c_maze", **cfg_kwargs):
    return PointEnv(build_maze(kind), EnvConfig(**cfg_kwargs))


def substep_move(maze, p, v, dt, n_sub):
    """Brute-force axis-separated sub-stepping oracle for the sweep."""
    x, y = float(p[0]), float(p[1])
    vx, vy = float(v[0]), float(v[1])
    h = dt / n_sub
    for _ in range(n_sub):
        nx = x + vx * h
        if maze.is_wall_cell(int(y // maze.cell_size), int(nx // maze.cell_size)):
            vx = 0.0
        else:
            x = nx
        ny = y + vy * h
        if maze.is_wall_cell(int(ny // maze.cell_size), int(x // maze.cell_size)):
            vy = 0.0
        else:
            y = ny
    return np.array([x, y]), np.array([vx, vy])


def state_at(env, position, velocity):
    """A one-lane batch at step 0 with this position and velocity."""
    return EpisodeBatch(np.array([position], dtype=float), np.array([velocity], dtype=float),
                        np.array([0]), np.array([0]))


def step_one(env, state, action):
    """Step a one-lane batch; returns (next batch, ego row, reward, done,
    end code)."""
    nxt, low, reward, end = env.step(state, np.reshape(action, (1, 2)))
    return nxt, low[0], float(reward[0]), bool(end[0] > 0), int(end[0])


def stacked(states):
    """One-lane batches as the lanes of one batch, in order."""
    return EpisodeBatch(*map(np.concatenate, zip(*states)))


# -- reset ---------------------------------------------------------------------

def test_open_field_reset_uniform_in_its_start_cell():
    # the open field starts as every arena does: it used to start every
    # episode at its start cell's center
    env = make_env("open_field")
    rng = np.random.default_rng(0)
    offsets = []
    for _ in range(4000):
        state, low = env.reset(rng)
        assert cell_of(env.maze, state.position[0]) == env.maze.start_cells[0]
        assert np.array_equal(state.velocity, np.zeros((1, 2)))
        assert (state.t.tolist(), state.overdrive.tolist()) == ([0], [0])
        offsets.append(state.position[0] % env.maze.cell_size)
    # each coordinate's offset in the cell falls in each quarter of it
    # about equally often
    quarters = np.floor(np.array(offsets) / env.maze.cell_size * 4).astype(int)
    for axis in range(2):
        counts = np.bincount(quarters[:, axis], minlength=4)
        chi2 = float(((counts - 1000.0) ** 2 / 1000.0).sum())
        assert chi2 <= 16.3  # p = 0.001 at 3 dof


def test_reset_uniform_over_start_cells():
    env = make_env("c_maze")
    rng = np.random.default_rng(1)
    counts = {cell: 0 for cell in env.maze.start_cells}
    n = 10_000
    for _ in range(n):
        state, _ = env.reset(rng)
        counts[cell_of(env.maze, state.position[0])] += 1
    expected = n / len(counts)
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 <= 9.0  # ~3 sigma for 1 dof


def test_reset_positions_inside_start_region_uniformly():
    env = make_env("c_maze")
    rng = np.random.default_rng(2)
    xs = []
    for _ in range(4000):
        state, _ = env.reset(rng)
        assert cell_of(env.maze, state.position[0]) in env.maze.start_cells
        xs.append(state.position[0, 0])
    # within-cell offsets should span the cell, not cluster at the center
    offs = np.array(xs) % env.maze.cell_size
    assert offs.min() < 0.2 and offs.max() > 3.8


def test_reset_observation_prefix_property():
    env = make_env("c_maze")
    state, low = env.reset(np.random.default_rng(3))
    high = env.high_obs_batch(state, low)
    assert low.shape == (1, LOW_OBS_DIM) == state.velocity.shape
    assert np.array_equal(low, state.velocity) and not low.any()  # at rest
    assert high.shape == (1, HIGH_OBS_DIM)
    assert np.array_equal(high[:, :LOW_OBS_DIM], low)


# -- dynamics -------------------------------------------------------------------

def test_zero_action_zero_velocity_stays_put():
    env = make_env("c_maze")
    state = state_at(env, env.maze.cell_center((1, 1)), [0.0, 0.0])
    nxt, low, reward, done, end = step_one(env, state, np.zeros(2))
    assert np.array_equal(nxt.position, state.position)
    assert reward == 0.0 and not done and end == 0


def test_step_into_goal_cell_pays_goal_reward():
    env = make_env("c_maze")
    goal_center = env.maze.cell_center(env.maze.goal_cell)
    start = goal_center + np.array([env.maze.cell_size, 0.0])  # one cell right of goal
    state = state_at(env, start, [-env.cfg.v_max, 0.0])
    total = 0.0
    for _ in range(20):
        state, low, reward, done, end = step_one(env, state, np.zeros(2))
        total += reward
        if done:
            break
    assert end == END_CODES["goal"] and done
    assert total == GOAL_REWARD


def test_wall_collision_preserves_tangential_motion():
    env = make_env("c_maze")
    cs = env.maze.cell_size
    # start cell (1,1); wall below at row 2, open to the right
    pos = np.array([1.5 * cs, 2.0 * cs - 0.1])
    vel = np.array([1.0, 1.5])
    state = state_at(env, pos, vel)
    nxt, *_ = step_one(env, state, np.zeros(2))
    new_pos, new_vel = nxt.position[0], nxt.velocity[0]
    assert not env.maze.is_wall_cell(*cell_of(env.maze, new_pos))
    assert new_pos[1] <= 2 * cs  # stopped at the wall face
    assert new_vel[1] == 0.0
    assert new_vel[0] == vel[0]  # tangential component preserved
    assert new_pos[0] > pos[0]


def test_sweep_matches_substepping_oracle():
    env = make_env("c_maze")
    maze = env.maze
    rng = np.random.default_rng(4)
    free = maze.free_cells()
    for _ in range(100):
        cell = free[int(rng.integers(len(free)))]
        frac = rng.uniform(0.05, 0.95, size=2)
        pos = np.array([(cell[1] + frac[0]) * maze.cell_size,
                        (cell[0] + frac[1]) * maze.cell_size])
        vel = rng.uniform(-1, 1, size=2)
        vel *= rng.uniform(0, env.cfg.v_max) / max(np.linalg.norm(vel), 1e-9)
        state = state_at(env, pos, vel)
        nxt, *_ = step_one(env, state, np.zeros(2))
        ref_pos, _ = substep_move(maze, pos, vel, DT, n_sub=20_000)
        assert not maze.is_wall_cell(*cell_of(maze, nxt.position[0]))
        assert np.max(np.abs(nxt.position[0] - ref_pos)) <= 1e-3


def test_speed_clipped_to_v_max():
    env = make_env("open_field")
    state, _ = env.reset(np.random.default_rng(5))
    for _ in range(10):
        state, *_ = step_one(env, state, np.array([1.0, 0.4]))
    assert np.linalg.norm(state.velocity[0]) <= env.cfg.v_max + 1e-12


def test_dynamics_deterministic():
    env = make_env("c_maze")
    state = state_at(env, env.maze.cell_center((1, 2)), [0.3, -0.2])
    a = step_one(env, state, np.array([0.5, 0.1]))
    b = step_one(env, state, np.array([0.5, 0.1]))
    assert np.array_equal(a[0].position, b[0].position)
    assert np.array_equal(a[0].velocity, b[0].velocity)


# -- stumble rule ----------------------------------------------------------------

def test_sustained_overdrive_causes_death():
    env = make_env("open_field")
    state, _ = env.reset(np.random.default_rng(6))
    big = np.array([env.cfg.stumble_threshold + 0.5, 0.0])
    rewards = []
    for i in range(STUMBLE_STEPS):
        state, _, reward, done, end = step_one(env, state, big)
        rewards.append(reward)
    assert done and end == END_CODES["death"] and state.overdrive[0] == STUMBLE_STEPS
    assert rewards == [0.0] * (STUMBLE_STEPS - 1) + [DEATH_REWARD]


def test_interrupted_overdrive_survives():
    env = make_env("open_field")
    state, _ = env.reset(np.random.default_rng(7))
    big = np.array([env.cfg.stumble_threshold + 0.5, 0.0])
    for action in [big, big, np.zeros(2), big, big]:
        state, _, _, done, end = step_one(env, state, action)
    assert not done and end == 0


def test_stumble_can_be_disabled():
    env = make_env("open_field", stumble_threshold=math.inf)
    state, _ = env.reset(np.random.default_rng(8))
    big = np.array([9.0, 0.0])
    for _ in range(10):
        state, _, _, done, end = step_one(env, state, big)
    assert not done and end == 0


@pytest.mark.parametrize("threshold, ends", [(math.inf, [0] * 49 + [END_CODES["timeout"]]),
                                              (1.5, [0, 0, END_CODES["death"]])])
def test_huge_action_trips_only_under_a_finite_threshold(threshold, ends):
    # an action of norm ~1.4e300 exceeds any finite threshold and none
    # exceeds inf: the lane then runs to its timeout and never ends with 2
    env = make_env("open_field", stumble_threshold=threshold, max_episode_steps=50)
    state, _ = env.reset(np.random.default_rng(8))
    huge = np.array([1e300, 1e300])
    got = []
    while not got or got[-1] == 0:
        state, _, _, _, end = step_one(env, state, huge)
        got.append(end)
    assert got == ends


# -- task independence and reward sets --------------------------------------------

def test_low_obs_ignores_maze():
    # the same motion, clear of walls in both mazes, gives the same ego row
    cfg = EnvConfig()
    env_a = PointEnv(build_maze("c_maze"), cfg)
    env_b = PointEnv(build_maze("mirrored"), cfg)
    state = state_at(env_a, [9.0, 6.0], [0.4, -0.1])
    low_a = step_one(env_a, state, np.zeros(2))[1]
    assert np.array_equal(low_a, step_one(env_b, state, np.zeros(2))[1])
    assert np.array_equal(low_a, [0.4, -0.1])


def test_maze_episode_rewards_in_allowed_set():
    env = make_env("c_maze", max_episode_steps=60)
    rng = np.random.default_rng(9)
    for _ in range(30):
        state, _ = env.reset(rng)
        total, done = 0.0, False
        while not done:
            state, _, reward, done, _ = step_one(env, state, rng.normal(0, 0.8, size=2))
            assert reward in (0.0, GOAL_REWARD, DEATH_REWARD)
            total += reward
        assert total in (0.0, GOAL_REWARD, DEATH_REWARD)


def test_timeout_sets_done():
    env = make_env("c_maze", max_episode_steps=5)
    state, _ = env.reset(np.random.default_rng(12))
    for _ in range(5):
        state, _, _, done, end = step_one(env, state, np.zeros(2))
    assert done and end == END_CODES["timeout"] and state.t[0] == 5


def test_obs_scales_shapes():
    env = make_env("c_maze")
    assert env.low_obs_scale.shape == (LOW_OBS_DIM,)
    assert env.high_obs_scale.shape == (HIGH_OBS_DIM,)


# -- lanes stepped as arrays ------------------------------------------------------

def random_lane(env, rng):
    """A one-lane batch anywhere in free space, with any speed, step count
    and overdrive count. One in three rests on a face of its cell, one in
    three heads exactly for a corner of it (same distance to both grid
    lines, exact in binary, and same speed on both axes). Returns (state,
    corner signs or None)."""
    maze, cs = env.maze, env.maze.cell_size
    state, _ = env.reset(rng)
    free = maze.free_cells()
    row, col = free[int(rng.integers(len(free)))]
    offset = rng.random(2) * cs
    velocity = rng.uniform(-1.0, 1.0, 2) * env.cfg.v_max
    kind, signs = int(rng.integers(3)), None
    if kind == 0:
        axis = int(rng.integers(2))
        offset[axis] = FACE_EPS if rng.integers(2) else cs - FACE_EPS
    elif kind == 1:
        signs = rng.choice((-1.0, 1.0), 2)
        d = int(rng.integers(1, 16)) / 64.0
        offset = np.where(signs > 0, cs - d, d)
        velocity = signs * rng.uniform(0.3, 0.7) * env.cfg.v_max
    state = state._replace(position=(np.array([col, row]) * cs + offset)[None],
                           velocity=velocity[None],
                           t=np.array([rng.integers(env.cfg.max_episode_steps)]),
                           overdrive=np.array([rng.integers(STUMBLE_STEPS)]))
    return state, signs


def test_batched_step_rows_equal_scalar_oracle_bit_for_bit():
    rng = np.random.default_rng(21)
    seen = dict.fromkeys(("lane_steps", "walls", "two_walls", "corners", "on_face", "goal",
                          "death", "timeout", "mixed_t"), 0)
    for kind in ("c_maze", "mirrored", "spiral", "open_field"):
        env = make_env(kind, max_episode_steps=40)
        cs = env.maze.cell_size
        for lanes in (1, 3, 16):
            states, signs = zip(*(random_lane(env, rng) for _ in range(lanes)))
            states, signs = list(states), list(signs)
            for _ in range(125):  # 4 kinds x 20 lanes x 125 = 10,000 lane steps
                actions = rng.normal(0.0, 1.0, (lanes, 2))
                for i, s in enumerate(signs):
                    if s is not None:  # keep |vx| == |vy|: same magnitude on both axes
                        actions[i] = s * abs(actions[i, 0])
                batch = stacked(states)
                nxt, low, reward, end = env.step(batch, actions)
                assert isinstance(nxt, EpisodeBatch) and low.shape == (lanes, LOW_OBS_DIM)
                seen["mixed_t"] += len(set(batch.t.tolist())) > 1
                for i, state in enumerate(states):
                    pos, vel, t, overdrive, r, d, info, walls, corners = step_loops(
                        env.maze, env.cfg, state, actions[i])
                    assert nxt.position[i].tobytes() == pos.tobytes()
                    assert nxt.velocity[i].tobytes() == vel.tobytes()
                    assert low[i].tobytes() == vel.tobytes()  # the ego row is the velocity
                    assert (nxt.t[i], nxt.overdrive[i]) == (t, overdrive)
                    assert reward[i].tobytes() == np.float64(r).tobytes() and (end[i] > 0) == d
                    assert end[i] == end_code(info) and end.dtype.kind == "i"
                    frac = state.position[0] / cs
                    seen["on_face"] += np.abs(frac - np.round(frac)).min() * cs < 2 * FACE_EPS
                    seen["walls"] += walls > 0
                    seen["two_walls"] += walls == 2
                    seen["corners"] += corners > 0
                    for key in ("goal", "death", "timeout"):
                        seen[key] += info[key]
                    seen["lane_steps"] += 1
                    if d:
                        states[i], signs[i] = random_lane(env, rng)
                    else:
                        states[i] = EpisodeBatch(pos[None], vel[None], np.array([t]),
                                                 np.array([overdrive]))
                        signs[i] = None
    assert seen["lane_steps"] >= 10_000
    assert min(seen.values()) >= 20, seen
