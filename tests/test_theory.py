import numpy as np
import pytest

from haarlab import hierarchy, theory
from haarlab.config import ExperimentConfig
from haarlab.hierarchy import collect_rollouts, haar_iteration
from haarlab.theory import (TabularJointPolicy, TabularMdp, advantage_decomposition_residual,
                            auxiliary_start_value, composed_kernels, exact_eta, geometric_sum,
                            high_value, lowlevel_objective_relative_error, random_joint_policy,
                            random_mdp)

from helpers import (TabularRolloutEnv, exact_high_advantage, head_tables,
                     monotone_alternation_check, table_heads)


def single_state_mdp(reward=1.0):
    return TabularMdp(np.ones((1, 1, 1)), np.full((1, 1), reward), np.ones(1))


def uniform_policy(mdp, n_skills, k, gamma_h):
    s, a = mdp.n_states, mdp.n_actions
    return TabularJointPolicy(np.full((s, n_skills), 1.0 / n_skills),
                              np.full((s, n_skills, a), 1.0 / a), k, gamma_h)


def mc_eta(mdp, jp, n_episodes, horizon_high, rng):
    """Vectorized Monte-Carlo rollout oracle for the joint objective."""
    # each table row's cumulative sum, taken once: the same bytes as the
    # cumulative sum of the gathered rows, without a pass per draw
    cum_h = jp.pi_h.cumsum(axis=-1)
    cum_l = jp.pi_l.cumsum(axis=-1)
    cum_transition = mdp.transition.cumsum(axis=-1)
    s = rng.choice(mdp.n_states, size=n_episodes, p=mdp.initial_dist)
    total = np.zeros(n_episodes)
    for n in range(horizon_high):
        u = rng.random(n_episodes)
        z = (cum_h[s] < u[:, None]).sum(axis=1)
        z = np.minimum(z, jp.n_skills - 1)
        r_seg = np.zeros(n_episodes)
        for _ in range(jp.k):
            u = rng.random(n_episodes)
            a = (cum_l[s, z] < u[:, None]).sum(axis=1)
            a = np.minimum(a, mdp.n_actions - 1)
            r_seg += mdp.reward[s, a]
            u = rng.random(n_episodes)
            s = (cum_transition[s, a] < u[:, None]).sum(axis=1)
            s = np.minimum(s, mdp.n_states - 1)
        total += (jp.gamma_h ** n) * r_seg
    return total


# -- exact objective ---------------------------------------------------------------

def test_eta_geometric_series():
    mdp = single_state_mdp(1.0)
    jp = TabularJointPolicy(np.ones((1, 1)), np.ones((1, 1, 1)), k=1, gamma_h=0.5)
    assert abs(exact_eta(mdp, jp) - 2.0) <= 1e-12


def test_eta_zero_rewards():
    mdp = TabularMdp(np.ones((1, 1, 1)), np.zeros((1, 1)), np.ones(1))
    jp = uniform_policy(mdp, 2, 3, 0.9)
    assert exact_eta(mdp, jp) == 0.0


def test_eta_matches_monte_carlo():
    rng = np.random.default_rng(0)
    mdp = random_mdp(4, 3, rng)
    jp = random_joint_policy(mdp, n_skills=2, k=2, gamma_h=0.8, rng=rng)
    exact = exact_eta(mdp, jp)
    horizon = 60  # gamma_h^60 * k * r_max / (1 - gamma_h) < 1e-4
    returns = mc_eta(mdp, jp, n_episodes=1_000_000, horizon_high=horizon,
                     rng=np.random.default_rng(1))
    tail = 0.8 ** horizon * 2.0 / 0.2
    sigma = returns.std(ddof=1) / np.sqrt(len(returns))
    assert abs(exact - returns.mean()) <= 3.0 * sigma + tail


# -- exact advantage ----------------------------------------------------------------

def test_expected_advantage_is_zero_under_behavior_policy():
    rng = np.random.default_rng(2)
    for _ in range(10):
        mdp = random_mdp(4, 2, rng)
        jp = random_joint_policy(mdp, 3, 2, 0.9, rng)
        adv = exact_high_advantage(mdp, jp)
        per_state = np.einsum("sz,sz->s", jp.pi_h, adv)
        assert np.max(np.abs(per_state)) <= 1e-10


def test_single_skill_deterministic_mdp_zero_advantage():
    # one skill: the policy is the only option, so A == 0 everywhere
    rng = np.random.default_rng(3)
    mdp = random_mdp(3, 2, rng)
    jp = random_joint_policy(mdp, n_skills=1, k=2, gamma_h=0.9, rng=rng)
    adv = exact_high_advantage(mdp, jp)
    assert np.max(np.abs(adv)) <= 1e-10


def test_advantage_matches_power_series_enumeration():
    rng = np.random.default_rng(4)
    mdp = random_mdp(4, 3, rng)
    jp = random_joint_policy(mdp, 2, 2, 0.9, rng)
    from haarlab.theory import semi_mdp
    m, r_bar, pk, r_h = semi_mdp(mdp, jp)
    # brute-force value: truncated power series with tail < 1e-10
    horizon = int(np.ceil(np.log(1e-11 * (1 - 0.9) / 2.0) / np.log(0.9)))
    # direct accumulation: v = sum_n gamma^n M^n r_bar
    v = np.zeros(mdp.n_states)
    mat = np.eye(mdp.n_states)
    for n in range(horizon):
        v += (0.9 ** n) * (mat @ r_bar)
        mat = mat @ m
    adv_ref = r_h + 0.9 * np.einsum("zsp,p->sz", pk, v) - v[:, None]
    adv = exact_high_advantage(mdp, jp)
    assert np.max(np.abs(adv - adv_ref)) <= 1e-8


# -- decomposition identity ------------------------------------------------------------

def test_decomposition_residual_zero_for_same_policy():
    rng = np.random.default_rng(5)
    mdp = random_mdp(4, 2, rng)
    jp = random_joint_policy(mdp, 2, 2, 0.9, rng)
    assert advantage_decomposition_residual(mdp, jp, jp) <= 1e-12


def test_decomposition_residual_random_instances():
    rng = np.random.default_rng(6)
    worst = 0.0
    for i in range(40):
        n_s = int(rng.integers(2, 6))
        n_a = int(rng.integers(1, 4))
        n_z = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        gamma_h = 0.9 if i % 2 == 0 else 0.99
        mdp = random_mdp(n_s, n_a, rng)
        jp_old = random_joint_policy(mdp, n_z, k, gamma_h, rng)
        jp_new = random_joint_policy(mdp, n_z, k, gamma_h, rng)
        worst = max(worst, advantage_decomposition_residual(mdp, jp_old, jp_new))
    assert worst <= 1e-8


def test_decomposition_residual_high_level_only_change():
    # with the low level shared, the mixed advantage equals the old
    # policy's own table, which is the textbook form of the identity
    rng = np.random.default_rng(7)
    mdp = random_mdp(4, 3, rng)
    jp_old = random_joint_policy(mdp, 3, 2, 0.95, rng)
    pi_h_new = rng.dirichlet(np.ones(3), size=4)
    pi_h_new /= pi_h_new.sum(axis=1, keepdims=True)
    jp_new = TabularJointPolicy(pi_h_new, jp_old.pi_l, 2, 0.95)
    assert advantage_decomposition_residual(mdp, jp_old, jp_new) <= 1e-9


def test_decomposition_residual_scales_linearly_with_rewards():
    rng = np.random.default_rng(8)
    mdp = random_mdp(4, 2, rng)
    jp_old = random_joint_policy(mdp, 2, 2, 0.9, rng)
    jp_new = random_joint_policy(mdp, 2, 2, 0.9, rng)
    scale = 1000.0
    scaled = TabularMdp(mdp.transition, mdp.reward * scale, mdp.initial_dist)
    assert advantage_decomposition_residual(scaled, jp_old, jp_new) <= 1e-8 * scale


# -- low-level objective approximation ---------------------------------------------------

def eval_pair(rng, k, gamma_h, n_states=4, n_actions=3, n_skills=2,
              episodic=False):
    if episodic:
        from haarlab.theory import absorbing_random_mdp
        mdp = absorbing_random_mdp(n_states, n_actions, rng)
    else:
        mdp = random_mdp(n_states, n_actions, rng)
    jp_ref = random_joint_policy(mdp, n_skills, k, gamma_h, rng)
    pi_l_new = rng.dirichlet(np.ones(n_actions), size=(mdp.n_states, n_skills))
    pi_l_new /= pi_l_new.sum(axis=2, keepdims=True)
    jp_eval = TabularJointPolicy(jp_ref.pi_h, pi_l_new, k, gamma_h)
    return mdp, jp_ref, jp_eval


def test_lowlevel_error_zero_when_k_is_one():
    rng = np.random.default_rng(9)
    mdp, jp_ref, jp_eval = eval_pair(rng, k=1, gamma_h=0.9)
    assert lowlevel_objective_relative_error(mdp, jp_ref, jp_eval, gamma_l=0.9) <= 1e-12


def test_lowlevel_error_zero_when_discounts_match_exactly():
    # the step-by-step value against the theorem's right side
    rng = np.random.default_rng(10)
    for k in (2, 3, 5):
        gamma_h = 0.95
        gamma_l = gamma_h ** (1.0 / k)
        mdp, jp_ref, jp_eval = eval_pair(rng, k=k, gamma_h=gamma_h)
        assert lowlevel_objective_relative_error(mdp, jp_ref, jp_eval, gamma_l) <= 1e-10
        assert lowlevel_objective_relative_error(mdp, jp_ref, jp_eval, gamma_h) > 1e-3


def test_lowlevel_error_decreases_toward_one():
    # episodic setting: the objective is a finite sum, so the discount
    # substitution becomes exact as both discounts approach 1
    rng = np.random.default_rng(11)
    mdp, jp_ref, jp_eval = eval_pair(rng, k=5, gamma_h=0.9, episodic=True)
    errors = []
    for gamma in (0.9, 0.99, 0.999):
        jp_r = TabularJointPolicy(jp_ref.pi_h, jp_ref.pi_l, 5, gamma)
        jp_e = TabularJointPolicy(jp_eval.pi_h, jp_eval.pi_l, 5, gamma)
        errors.append(lowlevel_objective_relative_error(mdp, jp_r, jp_e, gamma_l=gamma))
    assert errors[0] > errors[1] > errors[2]


@pytest.mark.parametrize("gamma_l", [0.0, 1.0, 1.5, -0.5, np.nan])
def test_auxiliary_values_reject_gamma_l_outside_unit_interval(gamma_l):
    # at 1 the segment chain's I - M is singular; outside (0, 1) no discount is meant
    mdp, jp_ref, jp_eval = eval_pair(np.random.default_rng(12), k=3, gamma_h=0.9)
    v_ref = high_value(mdp, jp_ref)
    with pytest.raises(ValueError, match="gamma_l"):
        auxiliary_start_value(mdp, jp_eval, v_ref, gamma_l)
    with pytest.raises(ValueError, match="gamma_l"):
        lowlevel_objective_relative_error(mdp, jp_ref, jp_eval, gamma_l)


def test_geometric_sum_edge():
    assert geometric_sum(1.0, 7) == 7.0
    assert abs(geometric_sum(0.5, 3) - 1.75) <= 1e-15


def test_verification_suite_fails_a_wrong_closed_form(monkeypatch):
    # the suite's low-level check holds the step-by-step value against the
    # theorem's closed form, so a closed form 0.1% off must fail it
    assert all(row["pass"] for row in theory.verification_suite(5))
    exact = theory.geometric_sum
    monkeypatch.setattr(theory, "geometric_sum", lambda gamma, k: 1.001 * exact(gamma, k))
    rows = theory.verification_suite(5)
    assert not all(row["pass"] for row in rows)
    assert max(row["matched_discount_rel_error"] for row in rows) > 5e-4


# -- alternation ------------------------------------------------------------------------

def test_alternation_eta_non_decreasing():
    rng = np.random.default_rng(12)
    for trial in range(5):
        mdp = random_mdp(int(rng.integers(2, 5)), int(rng.integers(2, 4)), rng)
        jp = random_joint_policy(mdp, 2, 2, 0.9, rng)
        etas = monotone_alternation_check(mdp, jp, iterations=8)
        diffs = np.diff(etas)
        assert diffs.min() >= -1e-9


def test_alternation_constant_on_single_state():
    mdp = single_state_mdp(0.3)
    jp = TabularJointPolicy(np.ones((1, 1)), np.ones((1, 1, 1)), 2, 0.9)
    etas = monotone_alternation_check(mdp, jp, iterations=4)
    assert np.max(np.abs(etas - etas[0])) <= 1e-12


def test_alternation_fixed_at_optimum():
    # enumerate all deterministic joint policies of a tiny MDP, start
    # the alternation at the best one, and verify eta stays put
    rng = np.random.default_rng(13)
    mdp = random_mdp(2, 2, rng)
    best_eta, best = -np.inf, None
    for h0 in range(2):
        for h1 in range(2):
            for bits in range(16):
                pi_h = np.zeros((2, 2))
                pi_h[0, h0] = pi_h[1, h1] = 1.0
                pi_l = np.zeros((2, 2, 2))
                for idx in range(4):
                    s, z = divmod(idx, 2)
                    pi_l[s, z, (bits >> idx) & 1] = 1.0
                jp = TabularJointPolicy(pi_h, pi_l, 2, 0.9)
                eta = exact_eta(mdp, jp)
                if eta > best_eta:
                    best_eta, best = eta, jp
    etas = monotone_alternation_check(mdp, best, iterations=4)
    assert np.max(np.abs(etas - best_eta)) <= 1e-9


# -- link to the practical rollout implementation ------------------------------------------

def test_exact_eta_matches_hierarchy_rollouts():
    rng = np.random.default_rng(14)
    mdp = random_mdp(3, 2, rng)
    k, gamma_h = 2, 0.8
    pi_h, pi_l = table_heads(mdp.n_states, 2, mdp.n_actions, rng)
    jp = TabularJointPolicy(*head_tables(pi_h, pi_l, mdp.n_states, 2), k, gamma_h)
    n_high = 35  # truncation tail below ~4e-3
    env = TabularRolloutEnv(mdp)
    batch = collect_rollouts(pi_h, pi_l, env, n_skills=2, budget_low_steps=150_000,
                             horizon=k * n_high, k=k, seed=(99,))
    # discounted per-episode returns from the high-level transitions
    returns = []
    acc, n = 0.0, 0
    for r_h, done in zip(batch.r_h, batch.done_h):
        acc += (gamma_h ** n) * r_h
        n += 1
        if done:
            returns.append(acc)
            acc, n = 0.0, 0
    returns = np.array(returns)
    exact = exact_eta(mdp, jp)
    tail = gamma_h ** n_high * k * 1.0 / (1 - gamma_h)
    sigma = returns.std(ddof=1) / np.sqrt(len(returns))
    assert abs(exact - returns.mean()) <= 3 * sigma + tail


def train_table_heads(monkeypatch, iterations=3):
    """haar_iteration on the tabular env with linear softmax heads at both
    levels; returns the MDP, the heads, the config, each iteration's
    metrics and updates, and each batch with its high-level advantages."""
    rng = np.random.default_rng(21)
    mdp = random_mdp(3, 2, rng)
    env = TabularRolloutEnv(mdp)
    cfg = ExperimentConfig(B=300, T=12, k_0=4, k_s=2, N=4, n_skills=2, gamma=0.9, max_kl=0.02)
    pi_h, pi_l = table_heads(mdp.n_states, cfg.n_skills, mdp.n_actions, rng)
    assigned = []

    def record(batch, advantages):
        r_l = assign(batch, advantages)
        assigned.append((batch, advantages, r_l))
        return r_l

    assign = hierarchy.assign_auxiliary_rewards
    monkeypatch.setattr(hierarchy, "assign_auxiliary_rewards", record)
    runs = [haar_iteration(pi_h, pi_l, env, cfg, 5, it) for it in range(iterations)]
    monkeypatch.undo()
    return mdp, pi_h, pi_l, cfg, runs, assigned


def test_haar_iteration_trains_linear_softmax_heads_on_the_tabular_env(monkeypatch):
    mdp, pi_h, pi_l, cfg, runs, assigned = train_table_heads(monkeypatch)
    assert [metrics["k"] for metrics, _ in runs] == [4, 3, 2]
    for _, updates in runs:
        assert [(level, diag.accepted) for level, diag in updates] == \
            [("high", True), ("low", True)]
    # every low step of segment j carries A_j / seg_len_j, and they sum to A_j
    for batch, advantages, r_l in assigned:
        assert np.any(advantages != 0.0)
        assert np.array_equal(r_l, (advantages / batch.seg_len)[batch.segment_id])
        sums = np.zeros(len(advantages))
        for j, r in zip(batch.segment_id.tolist(), r_l.tolist()):
            sums[j] += r
        assert np.max(np.abs(sums - advantages)) <= 1e-9

    _, pi_h_again, pi_l_again, _, runs_again, _ = train_table_heads(monkeypatch)
    assert pi_h.flat().tobytes() == pi_h_again.flat().tobytes()
    assert pi_l.flat().tobytes() == pi_l_again.flat().tobytes()
    assert [m for m, _ in runs] == [m for m, _ in runs_again]

    pi_h_table, pi_l_table = head_tables(pi_h, pi_l, mdp.n_states, cfg.n_skills)
    assert pi_h_table.shape == (mdp.n_states, cfg.n_skills)
    assert pi_l_table.shape == (mdp.n_states, cfg.n_skills, mdp.n_actions)
    k = runs[-1][0]["k"]
    jp = TabularJointPolicy(pi_h_table, pi_l_table, k, cfg.gamma ** k)
    assert np.isfinite(exact_eta(mdp, jp))
