import numpy as np
import pytest

from haarlab import pretrain
from haarlab.envs.maze import build_maze
from haarlab.envs.point import AgentState, EnvConfig, EpisodeState, PointEnv
from haarlab.pretrain import (PretrainConfig, fresh_low_policy, open_field_env,
                              pretrain_skills, proxy_reward, skill_direction,
                              skill_displacements)


def fake_states(p0, p1):
    def st(p):
        agent = AgentState(position=np.asarray(p, dtype=float), velocity=np.zeros(2), alive=True)
        return EpisodeState(agent=agent, t=0, overdrive=0, done=False)
    return st(p0), st(p1)


def test_proxy_zero_displacement():
    a, b = fake_states([3.0, 4.0], [3.0, 4.0])
    for skill in range(6):
        assert proxy_reward(skill, a, b, 6) == 0.0


def test_proxy_along_first_direction():
    a, b = fake_states([0.0, 0.0], skill_direction(0, 6))
    assert abs(proxy_reward(0, a, b, 6) - 1.0) <= 1e-12
    assert abs(proxy_reward(1, a, b, 6) - 0.5) <= 1e-12  # cos(60 deg)


def test_proxy_antisymmetric_for_opposite_skills():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a, b = fake_states(rng.uniform(0, 10, 2), rng.uniform(0, 10, 2))
        for j in range(3):
            assert abs(proxy_reward(j, a, b, 6) + proxy_reward(j + 3, a, b, 6)) <= 1e-12


def test_proxy_invariant_to_walls():
    # pure function of the displacement: maze plays no role
    a, b = fake_states([1.0, 2.0], [1.5, 2.5])
    r1 = proxy_reward(2, a, b, 6)
    assert r1 == proxy_reward(2, a, b, 6)
    with pytest.raises(ValueError):
        proxy_reward(6, a, b, 6)


def test_random_init_returns_untouched_initializer_output():
    cfg = PretrainConfig(proxy="random_init", n_skills=6)
    env = open_field_env()
    pol, stats = pretrain_skills(cfg, seed=7, env=env)
    assert stats == []
    fresh = fresh_low_policy(cfg, env, seed=7)
    assert np.array_equal(pol.flat(), fresh.flat())


def test_pretrain_input_is_ego_plus_one_hot_only():
    cfg = PretrainConfig(n_skills=5)
    env = open_field_env()
    pol = fresh_low_policy(cfg, env, seed=0)
    assert pol.spec.input_dim == env.low_obs_dim + 5


def test_pretraining_beats_random_policy_on_projection():
    # desk-budget pre-training: displacement along each skill's target
    # direction must dominate a random policy's by a wide margin
    cfg = PretrainConfig(n_skills=6, iterations=12, batch_low_steps=3000,
                         episode_steps=250)
    env = open_field_env(EnvConfig(stumble_enabled=False, v_max=1.2))
    trained, _ = pretrain_skills(cfg, seed=3, env=env)
    random_pol = fresh_low_policy(cfg, env, seed=3)

    disp_t = skill_displacements(trained, env, 6, episodes_per_skill=8, steps=150, seed=11)
    disp_r = skill_displacements(random_pol, env, 6, episodes_per_skill=8, steps=150, seed=11)
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


def test_pretrain_episodes_last_episode_steps_beyond_500(monkeypatch):
    # the arena pretrain_skills builds used to end every episode at the
    # environment's default 500 steps, whatever episode_steps said
    cfg = PretrainConfig(n_skills=2, iterations=1, batch_low_steps=600, episode_steps=600,
                         hidden=(4,))
    dones = []
    collect = pretrain._collect_proxy_batch

    def spy(*args):
        batch = collect(*args)
        dones.append(batch[3])
        return batch
    monkeypatch.setattr(pretrain, "_collect_proxy_batch", spy)
    pretrain_skills(cfg, seed=0)
    assert np.flatnonzero(dones[0]).tolist() == [599]
