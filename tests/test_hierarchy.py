import math

import numpy as np
import pytest

from haarlab import hierarchy
from haarlab.envs.maze import build_maze
from haarlab.envs.point import EnvConfig, PointEnv
from haarlab.config import ConfigError, ExperimentConfig, parse_config_text
from haarlab.hierarchy import (ConservationError, RolloutBatch,
                               assign_auxiliary_rewards, collect_rollouts, discounted_returns,
                               estimate_high_advantages, haar_iteration, prepare_level_batches,
                               skill_inputs, skill_length)
from haarlab.nets import MlpSpec
from haarlab.policies import CategoricalPolicy, GaussianPolicy
from haarlab.rollout import episode_rng
from haarlab.theory import geometric_sum
from haarlab.values import PolynomialValueEstimator

from helpers import act_noise, gaussian_noise_rows

N_SKILLS = 3


def make_env(kind="open_field", **kw):
    kw.setdefault("max_episode_steps", 40)
    return PointEnv(build_maze(kind), EnvConfig(**kw))


def tripping_env(max_episode_steps):
    """The C-maze with a low stumble threshold: most episodes trip, so
    their batches hold death rewards."""
    return make_env("c_maze", max_episode_steps=max_episode_steps, stumble_threshold=0.9)


def make_policies(env, seed=0):
    rng = np.random.default_rng(seed)
    pi_h = CategoricalPolicy(MlpSpec(env.high_obs_dim, (8,), N_SKILLS), rng,
                             input_scale=env.high_obs_scale)
    pi_l = GaussianPolicy(MlpSpec(env.low_obs_dim + N_SKILLS, (8,), 2), rng,
                          input_scale=np.concatenate([env.low_obs_scale, np.ones(N_SKILLS)]))
    return pi_h, pi_l


# -- skill schedule ---------------------------------------------------------------

def test_schedule_constant_when_tau_zero():
    # tau = 2 ln(k_0 / k_s) / N is exactly 0 when k_0 = k_s
    for i in range(100):
        assert skill_length(17, 17, 40, i) == 17


def test_schedule_formula_value():
    # tau = ln(10) / 10: a quarter of the way, k is 100 / sqrt(10) = 31.6
    assert skill_length(100, 10, 20, 5) == 32


def test_schedule_fully_anneals_halfway():
    assert skill_length(100, 10, 300, 150) == 10
    assert skill_length(100, 10, 300, 140) == 12  # 10 * e^(10 tau) = 11.66


def test_schedule_rounds_half_up(monkeypatch):
    # k_0 * exp(-tau * i) = k_0^(1 - 2i/N) * k_s^(2i/N) is never a half-integer
    # for integer arguments, so exp is stubbed to give one: 5 * 0.5 = 2.5,
    # which floor(x + 0.5) takes to 3 and Python's round to 2
    monkeypatch.setattr(hierarchy.math, "exp", lambda _: 0.5)
    assert skill_length(5, 1, 4, 1) == 3 and round(2.5) == 2


def test_schedule_floor_binds():
    assert skill_length(100, 10, 20, 15) == 10
    assert skill_length(100, 10, 20, 10_000) == 10


def test_schedule_monotone_and_floored():
    rng = np.random.default_rng(0)
    for _ in range(30):
        k1 = int(rng.integers(1, 2000))
        ks = int(rng.integers(1, k1 + 1))
        n = int(rng.integers(1, 2000))
        prev = None
        for i in [0, 1, 2, 5, 10, 100, 1000, 10_000, 100_000, 1_000_000]:
            k = skill_length(k1, ks, n, i)
            assert k >= ks
            if prev is not None:
                assert k <= prev
            prev = k


def test_schedule_validation():
    # the config checks the schedule's lengths
    with pytest.raises(ConfigError):
        ExperimentConfig(k_0=0, k_s=1)
    with pytest.raises(ConfigError):
        ExperimentConfig(k_0=5, k_s=10)
    cfg = ExperimentConfig(k_0=100, k_s=10, N=40)
    assert skill_length(cfg.k_0, cfg.k_s, cfg.N, 20) == 10


# -- rollout segmentation -----------------------------------------------------------

def test_exact_division_segmentation():
    env = make_env(max_episode_steps=10)
    pi_h, pi_l = make_policies(env)
    batch = collect_rollouts(pi_h, pi_l, env, N_SKILLS, budget_low_steps=10, k=5, seed=(0,))
    assert batch.n_low_steps == 10
    assert len(batch.seg_len) == 2
    assert all(n == 5 for n in batch.seg_len)
    assert batch.done_h[-1]


def test_truncated_final_segment():
    env = make_env(max_episode_steps=7)
    pi_h, pi_l = make_policies(env)
    batch = collect_rollouts(pi_h, pi_l, env, N_SKILLS, budget_low_steps=7, k=5, seed=(0,))
    assert batch.seg_len.tolist() == [5, 2]
    assert batch.done_h.tolist() == [False, True]


def test_budget_loops_episodes_to_completion():
    env = make_env(max_episode_steps=9)
    pi_h, pi_l = make_policies(env)
    batch = collect_rollouts(pi_h, pi_l, env, N_SKILLS, budget_low_steps=20, k=4, seed=(1,))
    assert batch.n_low_steps >= 20
    assert batch.n_low_steps % 9 == 0  # every episode ran to its 9-step cap
    assert batch.seg_len.sum() == batch.n_low_steps


def test_segment_rewards_match_replay_oracle():
    env = tripping_env(12)
    pi_h, pi_l = make_policies(env, seed=3)
    seed = (7,)
    k = 4
    batch = collect_rollouts(pi_h, pi_l, env, N_SKILLS, budget_low_steps=36, k=k, seed=seed)

    # independent replay: drive a fresh env with the same episode streams
    seg_sums, seg_highs, seg_next_highs, seg_done = [], [], [], []
    ep = 0
    total = 0
    while total < 36:
        rng = episode_rng(seed, ep)
        state, low = env.reset(rng)  # a one-lane batch, stepped alone
        done = False
        while not done:
            high = env.high_obs_batch(state, low)[0]
            seg_highs.append(high)
            skill = pi_h.act(high[None], act_noise(pi_h, rng, 1))[0][0]
            acc = 0.0
            for _ in range(k):
                x = np.concatenate([low[0], np.eye(N_SKILLS)[skill]])
                a, _, _ = pi_l.act(x[None], act_noise(pi_l, rng, 1))
                state, low, r, end = env.step(state, a)
                acc += float(r[0])
                done = bool(end[0] > 0)
                total += 1
                if done:
                    break
            seg_sums.append(acc)
            seg_next_highs.append(env.high_obs_batch(state, low)[0])
            seg_done.append(done)
        ep += 1
    assert len(seg_sums) == len(batch.r_h) and np.any(batch.r_h != 0.0)
    assert np.max(np.abs(batch.r_h - np.array(seg_sums))) <= 1e-12
    assert batch.s_h.tobytes() == np.stack(seg_highs).tobytes()
    # a terminal segment's s_h_next is never bootstrapped from: it is zeros
    terminal = np.array(seg_done)
    assert np.array_equal(batch.done_h, terminal) and terminal.any() and not terminal.all()
    assert batch.s_h_next[~terminal].tobytes() == np.stack(seg_next_highs)[~terminal].tobytes()
    assert batch.s_h_next[terminal].tobytes() == np.zeros_like(batch.s_h_next[terminal]).tobytes()


def low_inputs(batch, pi_l):
    """The rows the low level's trust-region step trains on."""
    zeros = np.zeros(batch.n_low_steps)
    return prepare_level_batches(batch, zeros[:len(batch.seg_len)], zeros, pi_l,
                                 N_SKILLS)[1].observations


def test_one_hot_purity():
    env = make_env()
    pi_h, pi_l = make_policies(env)
    batch = collect_rollouts(pi_h, pi_l, env, N_SKILLS, budget_low_steps=30, k=3, seed=(2,))
    x_l = low_inputs(batch, pi_l)
    assert x_l[:, :env.low_obs_dim].tobytes() == batch.low_l.tobytes()
    for x, seg in zip(x_l, batch.segment_id):
        block = x[env.low_obs_dim:]
        assert block.sum() == 1.0
        assert set(np.unique(block)) <= {0.0, 1.0}
        assert np.argmax(block) == batch.a_h[seg]


def test_no_observation_column_is_constant():
    # every input a policy or value fit sees varies over a maze batch: the
    # ego observation is the velocity, with no constant inputs beside it
    env = make_env("c_maze", max_episode_steps=60)
    pi_h, pi_l = make_policies(env)
    batch = collect_rollouts(pi_h, pi_l, env, N_SKILLS, budget_low_steps=600, k=5, seed=(4,))
    assert batch.low_l.shape[1] == 2 and batch.s_h.shape[1] == env.high_obs_dim == 24
    for rows in (batch.low_l, batch.s_h):
        assert (rows.max(axis=0) > rows.min(axis=0)).all()


@pytest.mark.parametrize("lanes", [None, 1, 16])  # 16 lanes start episodes the batch drops
def test_low_level_trains_on_the_inputs_its_policy_acted_on(lanes, monkeypatch):
    env = make_env()
    pi_h, pi_l = make_policies(env)
    acted = {}  # each episode's policy input rows, by episode index, in time order
    lanes_of_step = []  # each collector step's episode indices, lane by lane
    collector_act = hierarchy._SegmentCollector.act
    act = pi_l.act

    def spy_lanes(self, run, high):
        lanes_of_step.append(run.episode.tolist())
        return collector_act(self, run, high)

    def spy(x, noise):
        for row, episode in zip(x.copy(), lanes_of_step[-1]):
            acted.setdefault(episode, []).append(row)
        return act(x, noise)

    monkeypatch.setattr(hierarchy._SegmentCollector, "act", spy_lanes)
    pi_l.act = spy
    batch = collect_rollouts(pi_h, pi_l, env, N_SKILLS, budget_low_steps=100, k=3, seed=(4,),
                             lanes=lanes)
    # later episodes ran past the batch
    rows = [row for e in range(len(batch.success)) for row in acted[e]]
    assert low_inputs(batch, pi_l).tobytes() == np.array(rows).tobytes()


@pytest.mark.parametrize("lanes", [None, 16])  # 16 lanes drop the episodes the batch drops
def test_reused_low_inputs_equal_skill_inputs_at_every_step(lanes, monkeypatch):
    # the collector keeps one input buffer and rewrites only its ego columns
    # between segment openings; at every step, the steps right after lanes
    # drop included, pi_l must see the rows skill_inputs builds afresh
    env = make_env("c_maze", stumble_threshold=0.6)  # falls end episodes mid-segment
    pi_h, pi_l = make_policies(env, seed=2)
    runs = []  # the Running lanes of each collector step
    collector_act = hierarchy._SegmentCollector.act
    act = pi_l.act
    seen = {"steps": 0, "after_drop": 0}

    def spy_lanes(self, run, high):
        runs.append(run)
        return collector_act(self, run, high)

    def spy(x, noise):
        run = runs[-1]
        assert x.tobytes() == skill_inputs(run.low, run.skill, N_SKILLS).tobytes()
        seen["steps"] += 1
        if len(runs) > 1 and 0 < len(run.episode) < len(runs[-2].episode) and run.steps[0] % 7:
            seen["after_drop"] += 1
        return act(x, noise)

    monkeypatch.setattr(hierarchy._SegmentCollector, "act", spy_lanes)
    pi_l.act = spy
    batch = collect_rollouts(pi_h, pi_l, env, N_SKILLS, budget_low_steps=400, k=7, seed=(6,),
                             lanes=lanes)
    assert seen["steps"] == len(runs) and seen["after_drop"] >= 3, seen
    assert batch.n_low_steps >= 400


def test_segments_draw_the_skill_uniform_then_k_noise_rows():
    # after reset's draws (integers, random(2)), each segment takes its
    # skill's uniform and then a block of k low-step rows from the episode's
    # stream, the last segment's block included when the horizon cuts it short
    env = make_env("c_maze", max_episode_steps=12, stumble_threshold=math.inf)
    pi_h, pi_l = make_policies(env, seed=5)
    k = 5
    batch = collect_rollouts(pi_h, pi_l, env, N_SKILLS, budget_low_steps=12, k=k, seed=(3,))
    assert batch.seg_len.tolist() == [5, 5, 2]
    rng = episode_rng((3,), 0)
    rng.integers(len(env.maze.start_cells))
    rng.random(2)
    start = 0
    for j, n in enumerate(batch.seg_len.tolist()):
        u = rng.random()
        noise = gaussian_noise_rows(pi_l.log_std, rng.standard_normal((k, 2)))
        assert pi_h.act(batch.s_h[j:j + 1], [u])[0].tolist() == [batch.a_h[j]]
        x = skill_inputs(batch.low_l[start:start + n], np.full(n, batch.a_h[j]), N_SKILLS)
        assert pi_l.act(x, noise[:n])[0].tobytes() == batch.a_l[start:start + n].tobytes()
        start += n


def test_rollouts_deterministic():
    env = make_env()
    pi_h, pi_l = make_policies(env)

    def run():
        batch = collect_rollouts(pi_h, pi_l, env, N_SKILLS, budget_low_steps=25, k=4,
                                 seed=(5,))
        return batch.low_l, batch.a_l, batch.r_h

    x1, a1, r1 = run()
    x2, a2, r2 = run()
    assert np.array_equal(x1, x2) and np.array_equal(a1, a2) and np.array_equal(r1, r2)


# -- advantages and auxiliary rewards -----------------------------------------------

def fake_batch(seg_specs, low_dim=2):
    """seg_specs: list of (r_h, seg_len, done, s_val, s_next_val)."""
    segment_id, done_l = [], []
    for i, (_, seg_len, done, _, _) in enumerate(seg_specs):
        segment_id += [i] * seg_len
        done_l += [False] * (seg_len - 1) + [done]
    r_h, seg_len, done_h, s_val, s_next_val = zip(*seg_specs)
    n, n_seg = len(segment_id), len(seg_specs)
    return RolloutBatch(
        low_l=np.zeros((n, low_dim)), a_l=np.zeros((n, 1)), logp_l=np.zeros(n),
        dist_l=np.zeros((n, 1)), done_l=np.array(done_l), segment_id=np.array(segment_id),
        s_h=np.outer(s_val, np.ones(low_dim)), s_h_next=np.outer(s_next_val, np.ones(low_dim)),
        a_h=np.zeros(n_seg, dtype=np.intp), r_h=np.array(r_h, dtype=float),
        done_h=np.array(done_h), seg_len=np.array(seg_len), logp_h=np.zeros(n_seg),
        dist_h=np.zeros((n_seg, 2)), success=np.zeros(1, dtype=bool), total_return=np.zeros(1))


def linear_value(dim):
    # V(s) = s[0]
    w1 = np.zeros(dim)
    w1[0] = 1.0
    return PolynomialValueEstimator(np.zeros(dim), np.zeros(dim), w1, 0.0)


def test_one_step_advantage_substitution():
    batch = fake_batch([(0.0, 1, False, 0.5, 1.0)])
    adv = estimate_high_advantages(batch, linear_value(2), gamma_h=0.99)
    assert abs(adv[0] - (0.0 + 0.99 * 1.0 - 0.5)) <= 1e-12


def test_terminal_masks_bootstrap():
    batch = fake_batch([(1000.0, 1, True, 200.0, -77.0)])
    adv = estimate_high_advantages(batch, linear_value(2), gamma_h=0.99)
    assert abs(adv[0] - 800.0) <= 1e-12


def test_zero_value_gives_raw_reward():
    batch = fake_batch([(3.0, 2, False, 1.0, 2.0), (-1.0, 1, True, 0.5, 0.2)])
    adv = estimate_high_advantages(batch, PolynomialValueEstimator.zeros(2), 0.99)
    assert np.array_equal(adv, [3.0, -1.0])


def test_auxiliary_split_even():
    batch = fake_batch([(0.0, 4, False, 0, 0)])
    rs = assign_auxiliary_rewards(batch, np.array([2.0])).tolist()
    assert rs == [0.5] * 4
    assert abs(sum(rs) - 2.0) <= 1e-12


def test_auxiliary_zero_advantage():
    batch = fake_batch([(0.0, 3, False, 0, 0)])
    assert all(r == 0.0 for r in assign_auxiliary_rewards(batch, np.array([0.0])))


def test_auxiliary_truncated_segment_divides_by_actual_length():
    batch = fake_batch([(0.0, 3, True, 0, 0)])
    assert assign_auxiliary_rewards(batch, np.array([1.5])).tolist() == [0.5, 0.5, 0.5]


def test_auxiliary_conservation_property():
    rng = np.random.default_rng(6)
    for _ in range(20):
        segs = [(0.0, int(rng.integers(1, 9)), False, 0, 0) for _ in range(10)]
        segs[-1] = (0.0, segs[-1][1], True, 0, 0)
        batch = fake_batch(segs)
        adv = rng.standard_normal(10) * 1000
        r_l = assign_auxiliary_rewards(batch, adv)
        sums = np.zeros(10)
        for seg, r in zip(batch.segment_id, r_l):
            sums[seg] += r
        assert np.max(np.abs(sums - adv)) <= 1e-9


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_auxiliary_non_finite_advantage_fails_conservation(bad):
    batch = fake_batch([(0.0, 2, False, 0, 0), (0.0, 2, True, 0, 0)])
    with pytest.raises(ConservationError):
        assign_auxiliary_rewards(batch, np.array([bad, 1.0]))


def test_auxiliary_misaligned_advantages_rejected():
    batch = fake_batch([(0.0, 2, True, 0, 0)])
    with pytest.raises(ValueError):
        assign_auxiliary_rewards(batch, np.array([1.0, 2.0]))


# -- level batches --------------------------------------------------------------------

def test_low_advantage_pointwise_when_gamma_zero():
    batch = fake_batch([(0.0, 3, False, 0, 0), (0.0, 2, True, 0, 0)])
    adv = np.array([3.0, -2.0])
    returns = discounted_returns(assign_auxiliary_rewards(batch, adv), batch.done_l, 0.0)
    _, low_b = prepare_level_batches(batch, adv, returns, make_policies(make_env())[1], N_SKILLS)
    expected = [1.0, 1.0, 1.0, -1.0, -1.0]
    assert np.max(np.abs(low_b.advantages - expected)) <= 1e-12


def test_low_return_telescopes_to_advantage():
    # single segment, gamma_l = 1: return at the segment start is A
    batch = fake_batch([(0.0, 5, True, 0, 0)])
    adv = np.array([2.5])
    returns = discounted_returns(assign_auxiliary_rewards(batch, adv), batch.done_l, 1.0)
    assert abs(returns[0] - 2.5) <= 1e-12


def test_low_level_returns_match_independent_recursion():
    rng = np.random.default_rng(8)
    segs = []
    for i in range(12):
        segs.append((0.0, int(rng.integers(1, 6)), bool(rng.random() < 0.3), 0, 0))
    segs[-1] = (0.0, segs[-1][1], True, 0, 0)
    batch = fake_batch(segs)
    r_l = assign_auxiliary_rewards(batch, rng.standard_normal(12))
    gamma = 0.97
    got = discounted_returns(r_l, batch.done_l, gamma)

    # two oracles per episode: the explicit forward sum
    # sum_{u>=t} gamma^(u-t) r_u, and the backward recursion G_t = r_t + gamma G_{t+1}
    # from the episode's last step, which adds in the same order as the library
    rs = r_l.tolist()
    dones = batch.done_l.tolist()
    forward = np.zeros(len(rs))
    backward = np.zeros(len(rs))
    start = 0
    for i, d in enumerate(dones):
        if d or i == len(rs) - 1:
            for t in range(start, i + 1):
                forward[t] = sum(rs[u] * gamma ** (u - t) for u in range(t, i + 1))
            acc = 0.0
            for t in range(i, start - 1, -1):
                acc = rs[t] + gamma * acc
                backward[t] = acc
            start = i + 1
    assert np.max(np.abs(got - forward)) <= 1e-10
    assert got.tobytes() == backward.tobytes()


def test_high_level_returns_discount_per_decision():
    batch = fake_batch([(1.0, 2, False, 0, 0), (2.0, 2, False, 0, 0), (4.0, 1, True, 0, 0)])
    g = discounted_returns(batch.r_h, batch.done_h, 0.5)
    assert np.max(np.abs(g - [1.0 + 0.5 * 2.0 + 0.25 * 4.0, 2.0 + 0.5 * 4.0, 4.0])) <= 1e-12


# -- full iteration --------------------------------------------------------------------

def make_run(env, mode="concurrent", seed=0, algorithm="haar"):
    """Policies and a tiny config: k anneals from 6 towards 2, 60 low steps a batch."""
    cfg = ExperimentConfig(algorithm=algorithm, mode=mode, B=60, k_0=6, k_s=2, N=44,
                           n_skills=N_SKILLS)
    return (*make_policies(env, seed=seed), cfg)


def iterate(pi_h, pi_l, env, cfg, iteration, seed=0):
    return haar_iteration(pi_h, pi_l, env, cfg, seed, iteration)


def test_alternate_first_iteration_updates_only_high():
    env = tripping_env(20)
    pi_h, pi_l, cfg = make_run(env, mode="alternate")
    low_before = pi_l.flat()
    m, updates1 = iterate(pi_h, pi_l, env, cfg, 0)  # ordinal 1: high only
    assert m["mean_return"] != 0.0
    assert np.array_equal(pi_l.flat(), low_before)
    assert [level for level, _ in updates1] == ["high"]
    low_mid = pi_l.flat()
    m, updates2 = iterate(pi_h, pi_l, env, cfg, 1)  # ordinal 2: low only
    assert m["mean_return"] != 0.0
    assert [level for level, _ in updates2] == ["low"]
    assert not np.array_equal(pi_l.flat(), low_mid) or not updates2[0][1].accepted


def test_schedule_advances_once_per_iteration():
    env = make_env(max_episode_steps=20)
    pi_h, pi_l, cfg = make_run(env)
    ks = [iterate(pi_h, pi_l, env, cfg, i)[0]["k"] for i in range(3)]
    assert ks == [skill_length(6, 2, 44, i) for i in range(3)] == [6, 6, 5]


def test_reward_free_env_leaves_policies_unchanged():
    env = make_env("open_field", max_episode_steps=20, stumble_threshold=math.inf)
    pi_h, pi_l, cfg = make_run(env)
    h0, l0 = pi_h.flat(), pi_l.flat()
    _, updates = iterate(pi_h, pi_l, env, cfg, 0)
    assert np.max(np.abs(pi_h.flat() - h0)) <= 1e-12
    assert np.max(np.abs(pi_l.flat() - l0)) <= 1e-12
    assert [level for level, _ in updates] == ["high", "low"]
    assert not any(diag.accepted for _, diag in updates)


def test_frozen_low_level_never_updates():
    env = tripping_env(20)
    pi_h, pi_l, cfg = make_run(env, algorithm="frozen_skills")
    l0 = pi_l.flat()
    for i in range(2):
        assert iterate(pi_h, pi_l, env, cfg, i)[0]["mean_return"] != 0.0
    assert np.array_equal(pi_l.flat(), l0)


@pytest.mark.parametrize("mode, update_low, fits", [
    ("concurrent", False, [["high"], ["high"]]),   # frozen skills
    ("alternate", True, [["high"], ["high", "low"]]),
    ("concurrent", True, [["high", "low"], ["high", "low"]]),
])
def test_low_level_fits_only_for_its_step(monkeypatch, mode, update_low, fits):
    from haarlab import hierarchy

    env = tripping_env(20)
    pi_h, pi_l, cfg = make_run(env, mode=mode,
                               algorithm="haar" if update_low else "frozen_skills")
    calls = []

    def recording_fit(states, targets, scale):
        calls.append("high" if states.shape[1] == env.high_obs_dim else "low")
        return fit(states, targets, scale)

    fit = hierarchy.fit_value_on_scaled
    monkeypatch.setattr(hierarchy, "fit_value_on_scaled", recording_fit)
    for i, want in enumerate(fits):
        calls.clear()
        assert iterate(pi_h, pi_l, env, cfg, i)[0]["mean_return"] != 0.0
        assert calls == want


def test_iteration_metrics_schema():
    env = tripping_env(20)
    pi_h, pi_l, cfg = make_run(env)
    m, _ = iterate(pi_h, pi_l, env, cfg, 0)
    # the batch's own numbers: the run loop writes the iteration, the running
    # step total and the kl columns, and takes the episode count as the next
    # lane count
    assert set(m) == {"k", "steps", "episodes", "success_rate", "mean_return"}
    assert m["k"] == 6
    assert m["steps"] >= 60
    assert m["episodes"] >= 3
    assert m["mean_return"] != 0.0


def test_low_return_is_a_multiple_of_the_high_return_on_sampled_segments(monkeypatch):
    # the theorem's relation on real batches: with segment discount
    # gamma ** k, a low step rewarded A_n / k has, at an episode's first
    # step, the return geometric_sum(gamma, k) / k times the high level's
    # discounted advantage sum, for any advantages A
    cfg = parse_config_text("maze = c_maze\nstumble_threshold = inf\nT = 60\nk_0 = 12\n"
                            "k_s = 3\nN = 4\nB = 300\nn_skills = 3\npretrain.iterations = 0\n")
    env = cfg.build_env()
    pi_h, pi_l = make_policies(env)
    captured = []

    def capture(batch, v_h, gamma_h):
        captured.append((batch, gamma_h))
        return estimate(batch, v_h, gamma_h)

    estimate = hierarchy.estimate_high_advantages
    monkeypatch.setattr(hierarchy, "estimate_high_advantages", capture)
    ks = [haar_iteration(pi_h, pi_l, env, cfg, 3, it)[0]["k"] for it in range(cfg.N)]
    assert ks == [12, 6, 3, 3]
    rng = np.random.default_rng(7)
    for k, (batch, gamma_h) in zip(ks, captured):
        adv = rng.standard_normal(len(batch.seg_len))
        r_l = assign_auxiliary_rewards(batch, adv)
        low = discounted_returns(r_l, batch.done_l, cfg.gamma)
        low_abs = discounted_returns(np.abs(r_l), batch.done_l, cfg.gamma)
        high = discounted_returns(adv, batch.done_h, gamma_h)
        ends = np.flatnonzero(batch.done_h)
        checked = 0
        for first, last in zip(np.concatenate([[0], ends[:-1] + 1]), ends):
            if np.all(batch.seg_len[first:last + 1] == k):
                step = np.flatnonzero(batch.segment_id == first)[0]
                want = geometric_sum(cfg.gamma, k) / k * high[first]
                assert abs(low[step] - want) <= 1e-12 * low_abs[step]
                checked += 1
        assert checked >= 1
