"""Acceptance suite: one test per criterion, each printing a PASS line.

Four exact or numerical criteria, each done in seconds:

1. the advantage-decomposition identity holds on 100 random tabular
   instances (residual <= 1e-8);
2. the low level's start value, evaluated step by step, equals the
   theorem's multiple of the high level's advantage sum at the matched
   discount gamma_l = gamma_h ** (1 / k), and its error at gamma_l =
   gamma_h shrinks as gamma -> 1;
3. auxiliary rewards conserve each segment's advantage on a live
   batch, and a corrupted segmentation raises ConservationError;
5. log-prob, surrogate and KL gradients and KL-Hessian-vector products
   match finite differences.

There is no criterion 4 and no end-to-end training gate: the claim
that HAAR beats flat TRPO and frozen skills on the sparse maze is not
checked by this suite.
"""

import time

import numpy as np

from haarlab.config import ExperimentConfig
from haarlab.hierarchy import (ConservationError, assign_auxiliary_rewards,
                               collect_rollouts)
from haarlab.nets import MlpSpec
from haarlab.policies import CategoricalPolicy, GaussianPolicy
from haarlab.pretrain import PretrainConfig
from haarlab.theory import (TabularJointPolicy, absorbing_random_mdp,
                            advantage_decomposition_residual, lowlevel_objective_relative_error,
                            random_joint_policy, random_mdp)
from haarlab.trpo import AdvantageBatch

from helpers import finite_diff_grad, fvp, kl_grad, log_prob, mean_kl, rel_err, surrogate_loss


def report(criterion, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance {criterion}] {status} {detail}")
    assert passed, f"criterion {criterion}: {detail}"


# -- criterion 1: advantage-decomposition identity ------------------------------------

def test_criterion_1_decomposition_identity():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(100):
        n_s = int(rng.integers(2, 6))        # |S| <= 5
        n_a = int(rng.integers(1, 4))        # primitive actions <= 3
        n_z = int(rng.integers(1, 4))        # skills <= 3
        k = int(rng.integers(1, 4))          # k <= 3
        gamma_h = (0.9, 0.99)[i % 2]
        mdp = random_mdp(n_s, n_a, rng)
        jp_old = random_joint_policy(mdp, n_z, k, gamma_h, rng)
        jp_new = random_joint_policy(mdp, n_z, k, gamma_h, rng)
        worst = max(worst, advantage_decomposition_residual(mdp, jp_old, jp_new))
    elapsed = time.perf_counter() - t0
    report(1, worst <= 1e-8 and elapsed < 60.0,
           f"max residual {worst:.3e} over 100 instances in {elapsed:.1f}s")


# -- criterion 2: low-level objective approximation ------------------------------------

def test_criterion_2_discount_approximation():
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    worst_matched = 0.0
    for _ in range(20):
        k = int(rng.integers(1, 6))
        gamma_h = float(rng.uniform(0.85, 0.99))
        mdp = absorbing_random_mdp(int(rng.integers(2, 5)), int(rng.integers(2, 4)), rng)
        jp_ref = random_joint_policy(mdp, 2, k, gamma_h, rng)
        pi_l_new = rng.dirichlet(np.ones(mdp.n_actions), size=(mdp.n_states, 2))
        pi_l_new /= pi_l_new.sum(axis=2, keepdims=True)
        jp_eval = TabularJointPolicy(jp_ref.pi_h, pi_l_new, k, gamma_h)
        gamma_l = gamma_h ** (1.0 / k)
        worst_matched = max(worst_matched, lowlevel_objective_relative_error(
            mdp, jp_ref, jp_eval, gamma_l))

    mdp = absorbing_random_mdp(4, 3, np.random.default_rng(11))
    jp_ref = random_joint_policy(mdp, 2, 5, 0.9, np.random.default_rng(12))
    rng2 = np.random.default_rng(13)
    pi_l_new = rng2.dirichlet(np.ones(3), size=(mdp.n_states, 2))
    pi_l_new /= pi_l_new.sum(axis=2, keepdims=True)
    errors = []
    for gamma in (0.9, 0.99, 0.999):
        jp_r = TabularJointPolicy(jp_ref.pi_h, jp_ref.pi_l, 5, gamma)
        jp_e = TabularJointPolicy(jp_ref.pi_h, pi_l_new, 5, gamma)
        errors.append(lowlevel_objective_relative_error(mdp, jp_r, jp_e, gamma))
    decreasing = errors[0] > errors[1] > errors[2]
    elapsed = time.perf_counter() - t0
    report(2, worst_matched <= 1e-10 and decreasing and elapsed < 60.0,
           f"matched-discount max error {worst_matched:.2e}; sweep "
           f"{[f'{e:.3g}' for e in errors]} in {elapsed:.1f}s")


# -- criterion 3: auxiliary-reward conservation -----------------------------------------

def test_criterion_3_conservation_enforced():
    # (a) live training batches satisfy per-segment conservation
    cfg = ExperimentConfig(N=2, B=400, T=60, k_0=7, k_s=3, seeds=(0,),
                           pretrain=PretrainConfig(iterations=0))
    env = cfg.build_env()
    from haarlab.experiment import fresh_high_policy
    from haarlab.pretrain import fresh_low_policy
    pi_h = fresh_high_policy(cfg, env, 0)
    pi_l = fresh_low_policy(cfg.n_skills, env, 0)
    batch = collect_rollouts(pi_h, pi_l, env, cfg.n_skills, 400, cfg.T, 7, seed=(0, 0))
    rng = np.random.default_rng(3)
    adv = rng.standard_normal(len(batch.seg_len)) * 1000.0
    r_l = assign_auxiliary_rewards(batch, adv)
    sums = np.zeros(len(batch.seg_len))
    for seg, r in zip(batch.segment_id, r_l):
        sums[seg] += r
    worst = float(np.max(np.abs(sums - adv)))

    # (b) the guard is a hard error and cannot be bypassed
    batch.seg_len[0] += 1  # corrupt the segmentation record
    try:
        assign_auxiliary_rewards(batch, adv)
        guard_fired = False
    except ConservationError:
        guard_fired = True
    report(3, worst <= 1e-9 and guard_fired,
           f"max |sum r_l - A| = {worst:.2e}; guard fires on corruption: {guard_fired}")


# -- criterion 5: gradient correctness ----------------------------------------------------

def _check_logprob_grads(make_policy, make_action, draws=20):
    worst = 0.0
    rng = np.random.default_rng(5)
    for _ in range(draws):
        pol = make_policy(rng)
        obs = rng.standard_normal((1, pol.spec.input_dim))
        action = make_action(pol, obs, rng)
        theta0 = pol.flat()

        def f(theta):
            pol.set_flat(theta)
            val = float(log_prob(pol, obs, action)[0])
            pol.set_flat(theta0)
            return val

        analytic = pol.grad_logprob_weighted(pol.forward_batch(obs), action, np.array([1.0]))
        numeric = finite_diff_grad(f, theta0, h=1e-5)
        worst = max(worst, float(rel_err(analytic, numeric).max()))
    return worst


def test_criterion_5_gradient_correctness():
    t0 = time.perf_counter()
    worst_gauss = _check_logprob_grads(
        lambda rng: GaussianPolicy(MlpSpec(3, (5, 4), 2), rng),
        lambda pol, obs, rng: rng.standard_normal((1, 2)))
    worst_cat = _check_logprob_grads(
        lambda rng: CategoricalPolicy(MlpSpec(3, (5, 4), 3), rng),
        lambda pol, obs, rng: rng.integers(3, size=1))

    # surrogate gradient at arbitrary parameters (importance ratio != 1)
    rng = np.random.default_rng(6)
    worst_surr = 0.0
    for _ in range(20):
        pol = GaussianPolicy(MlpSpec(3, (4,), 2), rng)
        obs = rng.standard_normal((6, 3))
        acts = rng.standard_normal((6, 2))
        old_logp = log_prob(pol, obs, acts)
        adv = rng.standard_normal(6)
        batch = AdvantageBatch(obs, acts, adv, old_logp, pol.dist_params(obs))
        theta0 = pol.flat() + 0.03 * rng.standard_normal(pol.params.size)
        pol.set_flat(theta0)
        theta0 = pol.flat()  # after log-std clamping

        def f(theta):
            pol.set_flat(theta)
            val = surrogate_loss(batch, pol)
            pol.set_flat(theta0)
            return val

        ratio = np.exp(log_prob(pol, obs, acts) - batch.old_log_probs)
        analytic = pol.grad_logprob_weighted(pol.forward_batch(obs), acts, ratio * adv)
        numeric = finite_diff_grad(f, theta0, h=1e-5)
        worst_surr = max(worst_surr, float(rel_err(analytic, numeric).max()))

    # KL-Hessian-vector products against finite differences of the exact
    # KL gradient along random directions
    rng = np.random.default_rng(8)
    worst_hvp = 0.0
    for i in range(20):
        if i % 2 == 0:
            pol = GaussianPolicy(MlpSpec(3, (4,), 2), rng)
        else:
            pol = CategoricalPolicy(MlpSpec(3, (4,), 3), rng)
        obs = rng.standard_normal((5, 3))
        old = pol.dist_params(obs)
        theta0 = pol.flat()
        v = rng.standard_normal(pol.params.size)
        h = 1e-5
        pol.set_flat(theta0 + h * v)
        gp = kl_grad(pol, old, obs)
        pol.set_flat(theta0 - h * v)
        gm = kl_grad(pol, old, obs)
        pol.set_flat(theta0)
        fd = (gp - gm) / (2 * h)
        hv = fvp(pol, obs, v, damping=0.0)
        denom = max(np.linalg.norm(hv), np.linalg.norm(fd), 1e-8)
        worst_hvp = max(worst_hvp, float(np.linalg.norm(hv - fd) / denom))

    # the KL gradient itself against finite differences of the mean KL,
    # from an old distribution away from the current parameters
    rng = np.random.default_rng(9)
    worst_kl = 0.0
    for i in range(20):
        if i % 2 == 0:
            pol = GaussianPolicy(MlpSpec(3, (4,), 2), rng)
        else:
            pol = CategoricalPolicy(MlpSpec(3, (4,), 3), rng)
        obs = rng.standard_normal((5, 3))
        theta0 = pol.flat()
        pol.set_flat(theta0 + 0.05 * rng.standard_normal(theta0.size))
        old = pol.dist_params(obs)
        pol.set_flat(theta0)

        def kl(theta):
            pol.set_flat(theta)
            val = mean_kl(pol, old, obs)
            pol.set_flat(theta0)
            return val

        numeric = finite_diff_grad(kl, theta0, h=1e-5)
        worst_kl = max(worst_kl, float(rel_err(kl_grad(pol, old, obs), numeric).max()))

    worst = max(worst_gauss, worst_cat, worst_surr, worst_kl, worst_hvp)
    elapsed = time.perf_counter() - t0
    report(5, worst <= 1e-4,
           f"max rel err: logprob_g={worst_gauss:.2e} logprob_c={worst_cat:.2e} "
           f"surrogate={worst_surr:.2e} kl={worst_kl:.2e} hvp={worst_hvp:.2e} "
           f"in {elapsed:.1f}s")
