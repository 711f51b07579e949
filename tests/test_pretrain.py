import itertools
import math

import numpy as np
import pytest

from haarlab import pretrain
from haarlab.checkpoint import load_checkpoint
from haarlab.config import ExperimentConfig
from haarlab.envs.point import DEATH_REWARD, DT, EnvConfig
from haarlab.experiment import policy_segments, run_pretrain
from haarlab.rollout import episode_rng
from haarlab.pretrain import (PretrainConfig, fresh_low_policy, open_field_env,
                              pretrain_skills, proxy_rewards, skill_direction)

from helpers import skill_displacements


def proxy(skill, p0, p1, n_skills=6):
    """The proxy reward of one step from p0 to p1."""
    return proxy_rewards(np.array([skill]), np.array([p0], dtype=float),
                         np.array([p1], dtype=float), n_skills)[0]


def test_proxy_zero_displacement():
    for skill in range(6):
        assert proxy(skill, [3.0, 4.0], [3.0, 4.0]) == 0.0


def test_proxy_along_first_direction():
    assert abs(proxy(0, [0.0, 0.0], skill_direction(0, 6)) - 1.0) <= 1e-12
    assert abs(proxy(1, [0.0, 0.0], skill_direction(0, 6)) - 0.5) <= 1e-12  # cos(60 deg)


def test_proxy_antisymmetric_for_opposite_skills():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a, b = rng.uniform(0, 10, 2), rng.uniform(0, 10, 2)
        for j in range(3):
            assert abs(proxy(j, a, b) + proxy(j + 3, a, b)) <= 1e-12


def state_at(env, position, velocity):
    """A one-lane batch of `env` at this position and velocity."""
    state, _ = env.reset(np.random.default_rng(0))
    return state._replace(position=np.array([position], dtype=float),
                          velocity=np.array([velocity], dtype=float))


def test_proxy_invariant_to_walls():
    # a pure function of the displacement: a step that a wall stopped short
    # pays what the same displacement pays in the open, wherever it happens
    env = open_field_env(5, EnvConfig())
    cs = env.maze.cell_size
    against_wall = env.maze.cell_center((1, 1)) - [0.5 * cs - 0.1, 0.0]
    nxt, *_ = env.step(state_at(env, against_wall, [-2.0, 0.0]), np.zeros((1, 2)))
    moved = nxt.position[0] - against_wall
    assert 0.0 < -moved[0] < 2.0 * DT  # the wall cut the step short
    in_open = env.maze.cell_center((5, 5))
    rows = np.array([against_wall, in_open])
    next_rows = np.array([nxt.position[0], in_open + moved])
    rewards = proxy_rewards(np.array([3, 3]), rows, next_rows, 6)
    assert abs(rewards[0] - rewards[1]) <= 1e-12 and abs(rewards[0] + moved[0]) <= 1e-12
    with pytest.raises(ValueError):
        proxy(6, [1.0, 2.0], [1.5, 2.5])


def test_random_init_returns_untouched_initializer_output():
    cfg = PretrainConfig(iterations=0)
    pol, stats = pretrain_skills(cfg, 6, seed=7, env_cfg=EnvConfig())
    assert stats == []
    fresh = fresh_low_policy(6, open_field_env(cfg.episode_steps, EnvConfig()), seed=7)
    assert np.array_equal(pol.flat(), fresh.flat())


def test_pretrain_input_is_ego_plus_one_hot_only():
    cfg = PretrainConfig()
    env = open_field_env(cfg.episode_steps, EnvConfig())
    pol = fresh_low_policy(5, env, seed=0)
    assert pol.spec.input_dim == env.low_obs_dim + 5


def test_pretraining_beats_random_policy_on_projection():
    # desk-budget pre-training: displacement along each skill's target
    # direction must dominate a random policy's by a wide margin
    cfg = PretrainConfig(iterations=12, batch_low_steps=3000, episode_steps=250)
    env_cfg = EnvConfig(stumble_threshold=math.inf, v_max=1.2)
    trained, _ = pretrain_skills(cfg, 6, seed=3, env_cfg=env_cfg)
    random_pol = fresh_low_policy(6, open_field_env(250, env_cfg), seed=3)

    disp_t = skill_displacements(trained, 6, episodes_per_skill=8, steps=150, seed=11,
                                 env_cfg=env_cfg)
    disp_r = skill_displacements(random_pol, 6, episodes_per_skill=8, steps=150, seed=11,
                                 env_cfg=env_cfg)
    proj_t = np.mean([disp_t[j] @ skill_direction(j, 6) for j in range(6)])
    proj_r = np.mean([disp_r[j] @ skill_direction(j, 6) for j in range(6)])
    assert proj_t >= 3.0 * max(proj_r, 1.0)

    # diversity: mean pairwise angle between displacement directions
    dirs = disp_t / np.linalg.norm(disp_t, axis=1, keepdims=True)
    angles = []
    for i in range(6):
        for j in range(i + 1, 6):
            angles.append(np.degrees(np.arccos(np.clip(dirs[i] @ dirs[j], -1, 1))))
    assert np.mean(angles) >= 30.0


def spy_on(monkeypatch, name):
    """Record what each call of pretrain.<name> returns."""
    calls = []
    original = getattr(pretrain, name)

    def spy(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append(out)
        return out
    monkeypatch.setattr(pretrain, name, spy)
    return calls


def test_pretrain_episodes_last_episode_steps_beyond_500(monkeypatch):
    # the arena pretrain_skills builds used to end every episode at the
    # environment's default 500 steps, whatever episode_steps said
    cfg = PretrainConfig(iterations=1, batch_low_steps=600, episode_steps=600)
    runs = spy_on(monkeypatch, "run_lanes")
    pretrain_skills(cfg, 2, seed=0, env_cfg=EnvConfig(stumble_threshold=math.inf))
    assert np.flatnonzero(runs[0].done).tolist() == [599]


def test_proxy_rewards_of_an_episode_sum_to_its_displacement(monkeypatch):
    # the last step's reward runs to the episode's final position, which
    # no recorded row holds; a stumble rule ends some episodes early
    cfg = PretrainConfig(iterations=2, batch_low_steps=400, episode_steps=40)
    runs = spy_on(monkeypatch, "run_lanes")
    rewards = spy_on(monkeypatch, "proxy_rewards")
    pretrain_skills(cfg, 4, seed=1, env_cfg=EnvConfig(stumble_threshold=1.0))
    assert len(runs) == len(rewards) == 2
    for run, reward in zip(runs, rewards):
        position, skill = run.columns[4:]
        ends = np.flatnonzero(run.done) + 1
        assert len(set(np.diff(ends, prepend=0).tolist())) > 1  # mixed episode lengths
        starts = np.concatenate(([0], ends[:-1]))
        for start, end, final in zip(starts, ends, run.final.position):
            assert (skill[start:end] == skill[start]).all()
            d = skill_direction(int(skill[start]), 4)
            expected = (final - position[start]) @ d
            assert abs(reward[start:end].sum() - expected) <= 1e-9


def test_run_pretrain_trains_in_the_config_body(tmp_path, monkeypatch):
    # the skills used to learn at the arena's own v_max of 2.0 with no
    # trips, whatever body the config's train runs them in
    cfg = ExperimentConfig(v_max=1.2, stumble_threshold=1.2, seeds=(0,), pretrain=PretrainConfig(
        iterations=2, batch_low_steps=400, episode_steps=40))
    runs = spy_on(monkeypatch, "run_lanes")
    segments, metadata = load_checkpoint(run_pretrain(cfg, str(tmp_path))[0])
    assert any((run.reward == DEATH_REWARD).any() for run in runs)  # some episodes end in a trip
    want = policy_segments(pi_l=pretrain_skills(cfg.pretrain, cfg.n_skills, 0,
                                                 cfg.env_config())[0])
    assert {key: value.tobytes() for key, value in segments.items()} == {
        key: value.tobytes() for key, value in want.items()}
    assert metadata["physics"] == {"v_max": 1.2, "stumble_threshold": 1.2}


def test_pretraining_streams_are_not_training_streams(monkeypatch):
    # pretraining iteration 233 (0xE9) used to hand run_lanes the episode
    # streams of training iteration 94 (0x5E), key for key
    states = []
    original = pretrain.run_lanes

    def spy(env, streams, budget, collector):
        streams, head = itertools.tee(streams)
        states.append([rng.bit_generator.state for rng in itertools.islice(head, 3)])
        return original(env, streams, budget, collector)
    monkeypatch.setattr(pretrain, "run_lanes", spy)
    cfg = PretrainConfig(iterations=234, batch_low_steps=6, episode_steps=2)
    pretrain_skills(cfg, 2, seed=5, env_cfg=EnvConfig())
    training = [episode_rng((5, 94), e).bit_generator.state for e in range(3)]
    assert all(state != training[e] for e in range(3) for state in states[233])
    assert states[233] == [episode_rng((5, pretrain.PRETRAIN_STREAM, 233), e).bit_generator.state
                           for e in range(3)]
