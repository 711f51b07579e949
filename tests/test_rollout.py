"""Lockstep lanes: the lane count changes no byte of a batch.

Both collectors (hierarchy.collect_rollouts and experiment.collect_flat)
run on rollout.run_lanes; every array they return must be the same bytes
for every lane count, the previous batch's episode count included, on
the point-mass maze, the open field and the tabular chain, including
budgets that end inside or exactly at the end of an episode and runs
that drop a speculative episode. Hierarchical lanes join on segment
boundaries, so every decision step sees its lanes at one phase of their
segments, and one high-level decision call serves each segment step.
The default lane count, ceil(budget / horizon), starts no episode outside
the batch when every episode runs its horizon. A finite set of streams
runs exactly its episodes, no finished lane is ever stepped, new episodes
start only on the collector's period boundaries or when no lane runs,
and the final state rows are each kept episode's state after its last
step. Each episode's return is the step-order sum of its reward rows and
it succeeds iff it ends in the goal cell; the trace records, for every
step, the skill its segment's decision chose.
"""

import csv
import math
from itertools import count
from typing import NamedTuple

import numpy as np
import pytest

from haarlab import experiment, hierarchy
from haarlab.envs.maze import build_maze
from haarlab.envs.point import DEATH_REWARD, EnvConfig, EpisodeBatch, PointEnv
from haarlab.experiment import _trace_trajectories, collect_flat
from haarlab.hierarchy import collect_rollouts
from haarlab.nets import MlpSpec
from haarlab.policies import CategoricalPolicy, GaussianPolicy
from haarlab.rollout import episode_streams, run_lanes
from haarlab.theory import absorbing_random_mdp

from helpers import TabularRolloutEnv, act_noise, table_heads

LANE_COUNTS = (1, 3, 16, None)  # None: the default, ceil(budget / horizon)
N_SKILLS = 3
BATCH_ARRAYS = ("low_l", "a_l", "logp_l", "dist_l", "done_l", "segment_id", "s_h", "s_h_next",
                "a_h", "r_h", "done_h", "seg_len", "logp_h", "dist_h", "success", "total_return")


def point_env(kind, **kw):
    return PointEnv(build_maze(kind), EnvConfig(**kw))


def neural_hierarchy(env, seed=0):
    rng = np.random.default_rng(seed)
    pi_h = CategoricalPolicy(MlpSpec(env.high_obs_dim, (16, 16), N_SKILLS), rng,
                             input_scale=env.high_obs_scale)
    pi_l = GaussianPolicy(MlpSpec(env.low_obs_dim + N_SKILLS, (16, 16), 2), rng,
                          input_scale=np.concatenate([env.low_obs_scale, np.ones(N_SKILLS)]))
    return pi_h, pi_l


def tabular_env(seed=3, horizon=12):
    """The env and linear softmax heads (pi_h, pi_l) over its one-hot inputs."""
    rng = np.random.default_rng(seed)
    mdp = absorbing_random_mdp(4, 2, rng, stop_prob=0.1)
    return TabularRolloutEnv(mdp, horizon=horizon), table_heads(mdp.n_states, N_SKILLS, 2, rng)


def flat_policy(env, seed=1):
    return GaussianPolicy(MlpSpec(env.high_obs_dim, (16, 16), 2), np.random.default_rng(seed),
                          input_scale=env.high_obs_scale)


def assert_same_bytes(runs):
    """Every run's arrays equal the first run's in dtype, shape and bytes,
    and come out C-contiguous."""
    first = runs[0]
    for run in runs:
        assert run.keys() == first.keys()
        for name, arr in run.items():
            assert arr.flags.c_contiguous, name
            assert arr.dtype == first[name].dtype and arr.shape == first[name].shape, name
            assert arr.tobytes() == first[name].tobytes(), name


def phase_spy(monkeypatch):
    """Makes every _SegmentCollector.act call check that its lanes share
    one phase, steps % k, and record their step counts; returns the list
    of records."""
    act = hierarchy._SegmentCollector.act
    seen = []

    def spy(self, run, high):
        assert len(set((run.steps % self.k).tolist())) == 1, run.steps
        seen.append(run.steps.tolist())
        return act(self, run, high)

    monkeypatch.setattr(hierarchy._SegmentCollector, "act", spy)
    return seen


def hierarchy_arrays(batch):
    return {name: getattr(batch, name) for name in BATCH_ARRAYS}


def flat_arrays(collected):
    obs, acts, means, logps, run = collected
    return {"obs": obs, "acts": acts, "means": means, "logps": logps, "reward": run.reward,
            "done": run.done, "success": run.success, "total_return": run.total_return}


def stumbling_env(kind, horizon):
    """Episodes that often trip before T, so lanes finish out of order."""
    return point_env(kind, max_episode_steps=horizon, stumble_threshold=0.9)


HIERARCHY_CASES = {
    "point_maze": (lambda: stumbling_env("c_maze", 40), 150, 4),
    "point_open_field": (lambda: stumbling_env("open_field", 25), 120, 5),
    "tabular": (tabular_env, 200, 2),
}


@pytest.mark.parametrize("case", sorted(HIERARCHY_CASES))
def test_hierarchy_batches_identical_for_every_lane_count(case, monkeypatch):
    make, budget, k = HIERARCHY_CASES[case]
    made = make()
    if case == "tabular":
        env, (pi_h, pi_l) = made
    else:
        env = made
        pi_h, pi_l = neural_hierarchy(env)
    # the training loop's lane count: the episodes of the batch before
    previous = collect_rollouts(pi_h, pi_l, env, N_SKILLS, budget, k, seed=(4, 0))
    seen = phase_spy(monkeypatch)  # every decision step sees one phase across its lanes
    batches = [collect_rollouts(pi_h, pi_l, env, N_SKILLS, budget, k, seed=(4, 1), lanes=lanes)
               for lanes in (*LANE_COUNTS, len(previous.success))]
    assert any(len(set(steps)) > 1 for steps in seen)  # some lanes joined a running wave
    assert batches[0].n_low_steps >= budget
    assert len(set(np.diff(np.flatnonzero(batches[0].done_l), prepend=-1))) > 1
    assert_same_bytes([hierarchy_arrays(b) for b in batches])


@pytest.mark.parametrize("lanes", [None, 3])
def test_hierarchical_trace_lanes_share_one_phase(tmp_path, monkeypatch, lanes):
    # the trace runs its collector's period, so its lanes would join on
    # segment boundaries as training's do even if fewer lanes than
    # episodes ran
    env = stumbling_env("c_maze", 40)
    pi_h, pi_l = neural_hierarchy(env)
    seen = phase_spy(monkeypatch)
    monkeypatch.setattr(experiment, "run_lanes",
                        lambda *args: run_lanes(*args, lanes=lanes))
    _trace_trajectories(str(tmp_path / "trajectories.csv"), env,
                        hierarchy._SegmentCollector(pi_h, pi_l, N_SKILLS, 3), 0)
    assert len({len(steps) for steps in seen}) > 1  # lanes ended at different steps
    # with the default, every episode starts in the first wave
    assert any(len(set(steps)) > 1 for steps in seen) == (lanes is not None)


@pytest.mark.parametrize("lanes", [None, 3])
def test_trace_skill_column_is_each_segments_decision(tmp_path, monkeypatch, lanes):
    # the hierarchical collector overwrites run.skill in place at every
    # decision, so a skill column recorded without a copy would show later
    # segments' skills in earlier rows
    env = stumbling_env("c_maze", 40)
    pi_h, pi_l = neural_hierarchy(env)
    k = 3
    collector = hierarchy._SegmentCollector(pi_h, pi_l, N_SKILLS, k)
    chosen = {}  # episode -> the skill of each of its segments, in order
    collector_act, decide = collector.act, pi_h.act
    lanes_of_step = []

    def spy_lanes(run, high):
        lanes_of_step.append(run.episode.tolist())
        return collector_act(run, high)

    def spy(s_h, u):
        skills, logps, dists = decide(s_h, u)
        for episode, skill in zip(lanes_of_step[-1], skills.tolist()):
            chosen.setdefault(episode, []).append(skill)
        return skills, logps, dists

    collector.act, pi_h.act = spy_lanes, spy
    monkeypatch.setattr(experiment, "run_lanes",
                        lambda *args: run_lanes(*args, lanes=lanes))
    path = tmp_path / "trajectories.csv"
    _trace_trajectories(str(path), env, collector, 0)
    with open(path, newline="") as fh:
        rows = [(int(r["episode"]), int(r["step"]), int(r["skill"])) for r in csv.DictReader(fh)]
    assert sorted(chosen) == sorted({episode for episode, _, _ in rows})
    assert any(len(set(segments)) > 1 for segments in chosen.values())
    for episode, step, skill in rows:
        # the row at step s holds the skill that ran step s - 1
        assert skill == (-1 if step == 0 else chosen[episode][(step - 1) // k])


class _Calls:
    """Counts the calls of a function, and the calls whose first argument
    passes `tally`."""

    def __init__(self, fn, tally=lambda first: False):
        self.fn = fn
        self.tally = tally
        self.calls = self.tallied = 0

    def __call__(self, first, *args):
        self.calls += 1
        self.tallied += bool(self.tally(first))
        return self.fn(first, *args)


@pytest.mark.parametrize("lanes", [None, 40])
def test_one_decision_call_per_segment_step(lanes):
    # lanes join on segment boundaries, so every lane opens its segments on
    # the same lockstep steps and one pi_h.act call decides for all of
    # them: at most ceil(steps / k) calls, plus one for each wave (a step
    # whose lanes all start their episodes)
    env = stumbling_env("c_maze", 40)
    pi_h, pi_l = neural_hierarchy(env)
    k = 4
    env.step = step = _Calls(env.step, tally=lambda state: (state.t == 0).all())
    pi_h.act = decide = _Calls(pi_h.act)
    batch = collect_rollouts(pi_h, pi_l, env, N_SKILLS, 600, k, seed=(4, 1), lanes=lanes)
    assert len(set(np.diff(np.flatnonzero(batch.done_l), prepend=-1))) > 1
    assert decide.calls <= math.ceil(step.calls / k) + step.tallied


FLAT_CASES = {
    "point_maze": (lambda: stumbling_env("c_maze", 40), 150),
    "point_open_field": (lambda: stumbling_env("open_field", 25), 120),
    "tabular": (tabular_env, 200),
}


@pytest.mark.parametrize("case", sorted(FLAT_CASES))
def test_flat_batches_identical_for_every_lane_count(case):
    make, budget = FLAT_CASES[case]
    made = make()
    if case == "tabular":
        # a softmax table over (state, action) acts on the one-hot state as a flat policy
        env, _ = made
        policy = CategoricalPolicy(MlpSpec(env.high_obs_dim, (), 2), np.random.default_rng(1))
    else:
        env = made
        policy = flat_policy(env)
    previous = collect_flat(policy, env, budget, (2, 4))[-1]
    runs = [collect_flat(policy, env, budget, (2, 5), lanes)
            for lanes in (*LANE_COUNTS, len(previous.success))]
    assert len(runs[0][0]) >= budget
    assert runs[0][-1].steps_taken == len(runs[0][0])  # one lane never speculates
    assert len(set(np.diff(np.flatnonzero(runs[0][-1].done), prepend=-1))) > 1
    assert_same_bytes([flat_arrays(r) for r in runs])


# Without stumbling every maze episode lasts exactly T steps, so the
# budget's edge cases can be set up exactly.
EDGES = {
    # budget, T, lanes -> episodes in the batch, steps taken by three lanes
    "budget_below_one_episode": (5, 12, 1, 12 + 5 + 3),
    "budget_met_at_an_episode_end": (20, 10, 2, 30),
    "running_episode_dropped": (15, 10, 2, 28),
}


@pytest.mark.parametrize("edge", sorted(EDGES))
def test_budget_edges(edge):
    budget, horizon, episodes, taken_by_three = EDGES[edge]
    env = point_env("c_maze", max_episode_steps=horizon, stumble_threshold=math.inf)
    policy = flat_policy(env)
    runs = [collect_flat(policy, env, budget, (0, 0), lanes) for lanes in LANE_COUNTS]
    for obs, _, _, _, run in runs:
        assert len(run.success) == episodes
        assert len(obs) == episodes * horizon
    assert runs[1][-1].steps_taken == taken_by_three
    assert runs[2][-1].steps_taken > len(runs[2][0])
    assert runs[3][-1].steps_taken == len(runs[3][0])  # the default never speculates here
    assert_same_bytes([flat_arrays(r) for r in runs])

    pi_h, pi_l = neural_hierarchy(env)
    batches = [collect_rollouts(pi_h, pi_l, env, N_SKILLS, budget, 4, seed=(0, 0), lanes=lanes)
               for lanes in LANE_COUNTS]
    assert len(batches[0].success) == episodes
    assert batches[0].n_low_steps == episodes * horizon
    assert_same_bytes([hierarchy_arrays(b) for b in batches])


def test_high_obs_batch_rows_equal_single_observations():
    env = point_env("c_maze", max_episode_steps=30)
    policy = flat_policy(env)
    rng = np.random.default_rng(9)
    states, lows = [], []
    for _ in range(20):
        state, low = env.reset(rng)  # a one-lane batch, stepped alone
        for _ in range(int(rng.integers(0, 8))):
            action = policy.act(env.high_obs_batch(state, low), act_noise(policy, rng, 1))[0]
            state, low, _, end = env.step(state, action)
            if end[0] > 0:
                break
        states.append(state)
        lows.append(low)
    batch = EpisodeBatch(*[None if f[0] is None else np.concatenate(f) for f in zip(*states)])
    rows = env.high_obs_batch(batch, np.concatenate(lows))
    for row, state, low in zip(rows, states, lows):
        assert row.tobytes() == env.high_obs_batch(state, low)[0].tobytes()


class _Countdown(NamedTuple):
    t: np.ndarray       # (L,) steps each lane has taken
    length: np.ndarray  # (L,) steps its episode runs
    tag: np.ndarray     # (L,) a value drawn at reset that names the episode


class CountdownEnv:
    """Episodes of lengths drawn from their streams, 1 to `horizon` steps
    (every one when `horizon` is fixed); counts resets and lane steps,
    and refuses to step a finished lane."""

    def __init__(self, horizon, fixed=False):
        self.horizon = horizon
        self.fixed = fixed
        self.resets = 0
        self.step_calls = 0
        self.lane_steps = 0

    def reset(self, rng):
        self.resets += 1
        return _Countdown(np.array([0]), np.array([self.length(rng)]),
                          np.array([rng.random()])), np.zeros((1, 1))

    def length(self, rng):
        return self.horizon if self.fixed else int(rng.integers(1, self.horizon + 1))

    def high_obs_batch(self, lanes, low):
        return low

    def step(self, lanes, actions):
        assert (lanes.t < lanes.length).all(), "a finished lane was stepped"
        self.step_calls += 1
        self.lane_steps += len(lanes.t)
        t = lanes.t + 1
        n = len(t)
        end = np.where(t >= lanes.length, 3, 0)  # every episode ends at its timeout
        return lanes._replace(t=t), np.zeros((n, 1)), np.ones(n), end


def countdown_episodes(env, seeds):
    """The (length, tag) each seed's stream gives an episode at reset."""
    out = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        out.append((env.length(rng), rng.random()))
    return out


class IdleCollector:
    period = 1
    noise_shape = ()

    def act(self, run, high):
        return np.zeros(len(run.episode)), ()


@pytest.mark.parametrize("budget, horizon", [(300, 60), (301, 60), (299, 60), (5000, 300)])
def test_default_lanes_run_every_episode_together(budget, horizon):
    # ceil(B/T) lanes hold the whole batch from the first step: no episode
    # runs alone after the others end, and none is started only to be dropped
    env = CountdownEnv(horizon, fixed=True)
    run = run_lanes(env, episode_streams((0,)), budget, IdleCollector())
    assert env.step_calls == horizon
    assert len(run.success) == -(-budget // horizon)
    assert run.steps_taken == len(run.reward) == len(run.success) * horizon


@pytest.mark.parametrize("lanes", LANE_COUNTS)
def test_finite_streams_run_exactly_their_episodes(lanes):
    # the trace's case: budget n * T for n streams, so every episode is in
    # the batch, and none starts once the streams run out
    env = CountdownEnv(9)
    episodes = countdown_episodes(env, range(7))
    lengths = [n for n, _ in episodes]
    assert len(set(lengths)) > 1
    run = run_lanes(env, (np.random.default_rng(seed) for seed in range(7)), 7 * env.horizon,
                    IdleCollector(), lanes)
    assert env.resets == len(run.success) == 7
    assert env.lane_steps == run.steps_taken == len(run.reward) == sum(lengths)
    assert (np.flatnonzero(run.done) + 1).tolist() == np.cumsum(lengths).tolist()
    assert run.final.t.tolist() == run.final.length.tolist() == lengths
    assert run.final.tag.tolist() == [tag for _, tag in episodes]


@pytest.mark.parametrize("lanes", LANE_COUNTS)
@pytest.mark.parametrize("budget", [1, 20, 41])
def test_final_rows_are_each_kept_episodes_last_state(lanes, budget):
    # with endless streams, 3 and 16 lanes start episodes that the budget
    # then drops: they have no final row
    env = CountdownEnv(9)
    run = run_lanes(env, (np.random.default_rng(seed) for seed in count()), budget,
                    IdleCollector(), lanes)
    episodes = countdown_episodes(env, range(len(run.success)))
    lengths = [n for n, _ in episodes]
    assert sum(lengths[:-1]) < budget <= sum(lengths) == len(run.reward)
    assert (np.flatnonzero(run.done) + 1).tolist() == np.cumsum(lengths).tolist()
    assert run.final.t.tolist() == run.final.length.tolist() == lengths
    assert run.final.tag.tolist() == [tag for _, tag in episodes]


@pytest.mark.parametrize("lanes", LANE_COUNTS)
def test_run_lanes_never_steps_a_finished_lane(lanes):
    # CountdownEnv.step refuses a finished lane, so every lane step taken
    # advances a running episode, the dropped ones included
    env = CountdownEnv(6)
    run = run_lanes(env, (np.random.default_rng(seed) for seed in count()), 50,
                    IdleCollector(), lanes)
    assert env.lane_steps == run.steps_taken >= len(run.reward) >= 50
    assert env.resets >= len(run.success)


def c_maze_drift(row, col):
    """Along the C-maze corridor: right along the top row, down the right
    column, then left along the bottom row to the goal."""
    if row == 1 and col < 5:
        return 1.0, 0.0
    if row < 3:
        return 0.0, 1.0
    return -1.0, 0.0


class Wander:
    """Acts on every step with the drift of each lane's cell plus `sd`
    times two standard normals from its episode's stream."""

    period = 1
    noise_shape = ()

    def __init__(self, drift, sd, cell_size):
        self.drift = drift
        self.sd = sd
        self.cell_size = cell_size

    def act(self, run, high):
        actions = []
        for (x, y), rng in zip(run.state.position.tolist(), run.rng):
            dx, dy = self.drift(math.floor(y / self.cell_size), math.floor(x / self.cell_size))
            ex, ey = rng.standard_normal(2).tolist()
            actions.append((dx + self.sd * ex, dy + self.sd * ey))
        return np.array(actions), ()


class RandomChoice:
    """Two actions, drawn uniformly from each episode's stream."""

    period = 1
    noise_shape = ()

    def act(self, run, high):
        return np.array([int(rng.integers(2)) for rng in run.rng]), ()


RETURN_CASES = {
    # the env and the collector of a batch of about `budget` steps
    "c_maze": (lambda: point_env("c_maze", max_episode_steps=150, stumble_threshold=1.4),
               lambda env: Wander(c_maze_drift, 0.4, env.maze.cell_size), 1500),
    "open_field": (lambda: point_env("open_field", max_episode_steps=60, stumble_threshold=1.5),
                   lambda env: Wander(lambda row, col: (0.0, 0.0), 1.0, env.maze.cell_size), 900),
    "tabular": (lambda: tabular_env()[0], lambda env: RandomChoice(), 200),
}


@pytest.mark.parametrize("lanes", LANE_COUNTS)
@pytest.mark.parametrize("case", sorted(RETURN_CASES))
def test_returns_and_successes_follow_the_step_rows(case, lanes):
    # the c_maze episodes reach the goal or trip, the open-field ones trip
    # or time out in an arena without a goal cell, and the tabular rewards
    # are fractions, whose sums depend on their order
    make_env, make_collector, budget = RETURN_CASES[case]
    env = make_env()
    run = run_lanes(env, (np.random.default_rng(seed) for seed in count()), budget,
                    make_collector(env), lanes)
    returns = []
    for rewards in np.split(run.reward, np.flatnonzero(run.done)[:-1] + 1):
        total = 0.0
        for reward in rewards.tolist():
            total += reward
        returns.append(total)
    assert run.total_return.tolist() == returns
    if case == "tabular":  # no state is a goal
        in_goal = [False] * len(returns)
    else:
        cs = env.maze.cell_size
        in_goal = [(math.floor(y / cs), math.floor(x / cs)) == env.maze.goal_cell
                   for x, y in run.final.position.tolist()]
    assert run.success.tolist() == in_goal
    if case == "c_maze":
        assert 0 < run.success.sum() < len(run.success)
        assert (run.reward == DEATH_REWARD).any()
    elif case == "open_field":
        assert not run.success.any() and {0.0, DEATH_REWARD} <= set(returns)
    else:
        assert len(set(returns)) > 1 and any(r != round(r) for r in returns)


class SkillOfEpisode:
    """Writes each episode's index into the skill column at its first
    step, or never writes it, and records the column on every step."""

    period = 1
    noise_shape = ()

    def __init__(self, writes):
        self.writes = writes

    def act(self, run, high):
        if self.writes:
            first = run.steps == 0
            run.skill[first] = run.episode[first]
        return np.zeros(len(run.episode)), (run.skill,)


@pytest.mark.parametrize("lanes", LANE_COUNTS)
def test_skill_column_follows_its_episode(lanes):
    # mixed lengths make lanes end, drop and refill out of step, so a
    # running episode's row moves whenever a lane before it ends
    env = CountdownEnv(9)
    run = run_lanes(env, (np.random.default_rng(seed) for seed in count()), 60,
                    SkillOfEpisode(True), lanes)
    lengths = [n for n, _ in countdown_episodes(env, range(len(run.success)))]
    assert len(set(lengths)) > 1
    assert run.columns[0].tolist() == np.repeat(np.arange(len(lengths)), lengths).tolist()

    run = run_lanes(env, (np.random.default_rng(seed) for seed in count()), 60,
                    SkillOfEpisode(False), lanes)
    assert len(run.columns[0]) >= 60 and (run.columns[0] == -1).all()


class JoinClock:
    """Joins every `period` steps and records the step counts of the
    running lanes on each lockstep step."""

    noise_shape = ()

    def __init__(self, period):
        self.period = period
        self.steps = []

    def act(self, run, high):
        self.steps.append(run.steps.tolist())
        return np.zeros(len(run.episode)), ()


@pytest.mark.parametrize("period", [1, 4, 7])
def test_lanes_join_only_on_period_boundaries(period):
    # a lane starts an episode on a lockstep step that is a multiple of the
    # period counted from its wave, or starts a wave when no lane runs; the
    # batch is the one period 1 gives
    runs = []
    for p in (1, period):
        env = CountdownEnv(9)
        clock = JoinClock(p)
        runs.append(run_lanes(env, (np.random.default_rng(seed) for seed in count()), 80, clock,
                              lanes=5))
    joins = wave = 0
    for i, steps in enumerate(clock.steps):
        fresh = [s == 0 for s in steps]
        if all(fresh):
            wave = i
        elif any(fresh):
            assert (i - wave) % period == 0
            joins += 1
    assert joins > 0
    first, run = runs
    for a, b in ((first.reward, run.reward), (first.done, run.done), (first.success, run.success),
                 (first.final.t, run.final.t), (first.final.tag, run.final.tag)):
        assert a.tobytes() == b.tobytes()
