import numpy as np
import pytest

from haarlab.theory import TabularMdp, random_mdp

from helpers import TabularRolloutEnv


def test_single_state_self_loop():
    mdp = random_mdp(1, 1, np.random.default_rng(0))
    assert mdp.transition[0, 0, 0] == 1.0


def test_rows_stochastic():
    mdp = random_mdp(6, 3, np.random.default_rng(1))
    rows = mdp.transition.sum(axis=2)
    assert np.max(np.abs(rows - 1.0)) <= 1e-12
    assert abs(mdp.initial_dist.sum() - 1.0) <= 1e-12
    assert np.all(mdp.reward >= 0.0) and np.all(mdp.reward <= 1.0)


def test_fixed_seed_reproduces_bit_exactly():
    a = random_mdp(5, 2, np.random.default_rng(123))
    b = random_mdp(5, 2, np.random.default_rng(123))
    assert np.array_equal(a.transition, b.transition)
    assert np.array_equal(a.reward, b.reward)
    assert np.array_equal(a.initial_dist, b.initial_dist)


def test_validation_rejects_bad_rows():
    with pytest.raises(ValueError):
        TabularMdp(np.full((2, 1, 2), 0.4), np.zeros((2, 1)), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        random_mdp(0, 1, np.random.default_rng(0))


@pytest.mark.parametrize("horizon", [0, -3])
def test_rollout_env_rejects_a_horizon_below_one(horizon):
    with pytest.raises(ValueError, match="horizon"):
        TabularRolloutEnv(random_mdp(3, 2, np.random.default_rng(0)), horizon=horizon)


def test_interleaved_episodes_keep_their_own_streams():
    # each episode's transition noise must come from the stream handed to
    # its own reset, however episodes on one env interleave
    env = TabularRolloutEnv(random_mdp(5, 2, np.random.default_rng(8)), horizon=12)

    def transitions(state, action):
        state, low, reward, end = env.step(state, np.array([action]))
        return state, (int(np.argmax(low[0])), float(reward[0]), bool(end[0] > 0))

    alone = []
    for seed in (1, 2):
        state, _ = env.reset(np.random.default_rng(seed))
        steps = []
        for t in range(12):
            state, step = transitions(state, t % 2)
            steps.append(step)
        alone.append(steps)

    state_a, _ = env.reset(np.random.default_rng(1))
    state_b, _ = env.reset(np.random.default_rng(2))
    interleaved = ([], [])
    for t in range(12):
        state_a, step = transitions(state_a, t % 2)
        interleaved[0].append(step)
        state_b, step = transitions(state_b, t % 2)
        interleaved[1].append(step)
    assert list(interleaved) == alone
