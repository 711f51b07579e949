"""Exact tabular verification of the two-level improvement guarantees.

Everything here is closed-form linear algebra on small finite MDPs
(TabularMdp), no sampling. The high level of a two-level tabular policy
induces a semi-MDP whose one "step" is k primitive steps under a fixed
skill; that semi-MDP's kernels are computed as exact k-fold products.
A joint policy carries gamma_h; the low level's per-step discount
gamma_l is an argument of each function that uses it.

The `theory-check` command (verification_suite) verifies two claims,
each exposed as a residual it drives to numerical zero:

  * decomposition: the objective of a changed joint policy equals the
    old objective plus the discounted expected advantage-over-the-old-
    value along the new policy's own trajectories (with the reward and
    transition kernel inside the advantage taken from the new policy).
  * low-level objective: rewarding every low step with 1/k of the
    segment's high-level advantage makes the low level's discounted
    start value, solved step by step, a positive multiple of the high
    level's discounted advantage sum, exactly when gamma_low^k equals
    gamma_high and approximately when both discounts are near one.

The test suite's alternation check (exact greedy high-level improvement
interleaved with small gradient steps on the low level's auxiliary
objective never lowers the objective) and its adapter that runs these
MDPs through the rollout protocol live in tests/helpers.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class SingularSystemError(RuntimeError):
    """The value equations are singular (discount too close to 1)."""


@dataclass
class TabularMdp:
    transition: np.ndarray      # P[s, a, s']
    reward: np.ndarray          # R[s, a]
    initial_dist: np.ndarray    # rho0[s]
    terminal: np.ndarray = field(default=None)  # bool per state

    def __post_init__(self):
        self.transition = np.asarray(self.transition, dtype=np.float64)
        self.reward = np.asarray(self.reward, dtype=np.float64)
        self.initial_dist = np.asarray(self.initial_dist, dtype=np.float64)
        if self.terminal is None:
            self.terminal = np.zeros(self.transition.shape[0], dtype=bool)
        s, a, s2 = self.transition.shape
        if s != s2 or self.reward.shape != (s, a) or self.initial_dist.shape != (s,):
            raise ValueError("inconsistent MDP table shapes")
        rows = self.transition.sum(axis=2)
        if np.max(np.abs(rows - 1.0)) > 1e-12:
            raise ValueError("transition rows must sum to 1 within 1e-12")
        if abs(self.initial_dist.sum() - 1.0) > 1e-12:
            raise ValueError("initial distribution must sum to 1")

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    @property
    def n_actions(self) -> int:
        return self.transition.shape[1]


def random_mdp(n_states: int, n_actions: int, rng: np.random.Generator) -> TabularMdp:
    """Dirichlet-random transition rows and uniform [0, 1] rewards."""
    if n_states < 1 or n_actions < 1:
        raise ValueError("need at least one state and one action")
    transition = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))
    # exact renormalization so row sums hold to 1e-12 regardless of rounding
    transition = transition / transition.sum(axis=2, keepdims=True)
    reward = rng.uniform(0.0, 1.0, size=(n_states, n_actions))
    initial = rng.dirichlet(np.ones(n_states))
    initial = initial / initial.sum()
    return TabularMdp(transition, reward, initial)


@dataclass
class TabularJointPolicy:
    pi_h: np.ndarray    # (S, Z)
    pi_l: np.ndarray    # (S, Z, A)
    k: int
    gamma_h: float

    def __post_init__(self):
        self.pi_h = np.asarray(self.pi_h, dtype=np.float64)
        self.pi_l = np.asarray(self.pi_l, dtype=np.float64)
        if self.k < 1:
            raise ValueError("skill length k must be >= 1")
        if not 0.0 < self.gamma_h < 1.0:
            raise ValueError("gamma_h must lie in (0, 1)")
        if np.max(np.abs(self.pi_h.sum(axis=1) - 1.0)) > 1e-12:
            raise ValueError("pi_h rows must sum to 1 within 1e-12")
        if np.max(np.abs(self.pi_l.sum(axis=2) - 1.0)) > 1e-12:
            raise ValueError("pi_l rows must sum to 1 within 1e-12")

    @property
    def n_skills(self) -> int:
        return self.pi_h.shape[1]


def random_joint_policy(mdp: TabularMdp, n_skills: int, k: int, gamma_h: float,
                        rng: np.random.Generator) -> TabularJointPolicy:
    s, a = mdp.n_states, mdp.n_actions
    pi_h = rng.dirichlet(np.ones(n_skills), size=s)
    pi_l = rng.dirichlet(np.ones(a), size=(s, n_skills))
    pi_h = pi_h / pi_h.sum(axis=1, keepdims=True)
    pi_l = pi_l / pi_l.sum(axis=2, keepdims=True)
    return TabularJointPolicy(pi_h, pi_l, k, gamma_h)


def absorbing_random_mdp(n_states: int, n_actions: int, rng: np.random.Generator,
                         stop_prob: float = 0.15) -> TabularMdp:
    """Episodic variant: a random MDP plus a rewardless absorbing state
    reached with probability stop_prob from every (state, action)."""
    base = random_mdp(n_states, n_actions, rng)
    n = n_states + 1
    p = np.zeros((n, n_actions, n))
    p[:n_states, :, :n_states] = (1.0 - stop_prob) * base.transition
    p[:n_states, :, n_states] = stop_prob
    p[n_states, :, n_states] = 1.0
    p = p / p.sum(axis=2, keepdims=True)
    r = np.zeros((n, n_actions))
    r[:n_states] = base.reward
    rho = np.zeros(n)
    rho[:n_states] = base.initial_dist
    terminal = np.zeros(n, dtype=bool)
    terminal[n_states] = True
    return TabularMdp(p, r, rho, terminal)


def _masked_tables(mdp: TabularMdp):
    """Transition/reward with terminal states absorbing and rewardless."""
    p = mdp.transition
    r = mdp.reward
    if mdp.terminal.any():
        p = p.copy()
        r = r.copy()
        eye = np.eye(mdp.n_states)
        for s in np.nonzero(mdp.terminal)[0]:
            p[s, :, :] = eye[s]
            r[s, :] = 0.0
    return p, r


def skill_kernels(mdp: TabularMdp, jp: TabularJointPolicy):
    """Per-skill one-low-step kernel P_z (Z, S, S) and expected one-step
    reward r_z (Z, S) under the low-level policy."""
    p, r = _masked_tables(mdp)
    # P_z[s, s'] = sum_a pi_l[s, z, a] P[s, a, s']
    pz = np.einsum("sza,sap->zsp", jp.pi_l, p)
    rz = np.einsum("sza,sa->zs", jp.pi_l, r)
    return pz, rz


def composed_kernels(mdp: TabularMdp, jp: TabularJointPolicy):
    """k-step kernel per skill (Z, S, S) and the segment reward table
    r_h (S, Z): the undiscounted sum of the k expected step rewards."""
    pz, rz = skill_kernels(mdp, jp)
    z, s, _ = pz.shape
    pk = np.empty_like(pz)
    r_h = np.empty((s, z))
    for zi in range(z):
        acc_p = np.eye(s)
        acc_r = np.zeros(s)
        for _ in range(jp.k):
            acc_r = acc_r + acc_p @ rz[zi]
            acc_p = acc_p @ pz[zi]
        pk[zi] = acc_p
        r_h[:, zi] = acc_r
    return pk, r_h


def semi_mdp(mdp: TabularMdp, jp: TabularJointPolicy):
    """High-level chain: M[s, s'] marginalizes the k-step kernels over
    pi_h; r_bar is the expected segment reward per state."""
    pk, r_h = composed_kernels(mdp, jp)
    m = np.einsum("sz,zsp->sp", jp.pi_h, pk)
    r_bar = np.einsum("sz,sz->s", jp.pi_h, r_h)
    return m, r_bar, pk, r_h


def _solve(m: np.ndarray, gamma: float, b: np.ndarray) -> np.ndarray:
    """x with (I - gamma m) x = b, or SingularSystemError."""
    try:
        return np.linalg.solve(np.eye(m.shape[0]) - gamma * m, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(str(exc)) from exc


def high_value(mdp: TabularMdp, jp: TabularJointPolicy) -> np.ndarray:
    """Exact V_h: solve (I - gamma_h M) V = r_bar."""
    m, r_bar, _, _ = semi_mdp(mdp, jp)
    return _solve(m, jp.gamma_h, r_bar)


def exact_eta(mdp: TabularMdp, jp: TabularJointPolicy) -> float:
    """Expected start value of the joint policy."""
    return float(mdp.initial_dist @ high_value(mdp, jp))


def discounted_occupancy(initial_dist: np.ndarray, m: np.ndarray, gamma: float) -> np.ndarray:
    """Unnormalized sum_t gamma^t Pr(s_t = s) for the chain m."""
    return _solve(m.T, gamma, initial_dist)


def advantage_decomposition_residual(mdp: TabularMdp, jp_old: TabularJointPolicy,
                                     jp_new: TabularJointPolicy) -> float:
    """Residual of: eta(new) - eta(old) = E_new[sum gamma_h^n A(s_n, z_n)].

    The advantage inside the expectation backs up the *new* policy's
    segment reward and k-step kernel against the old policy's value
    (that is what the realized per-segment quantities along the new
    policy's trajectories are); for a pure high-level change this
    reduces to the old policy's own advantage table.
    """
    if jp_old.k != jp_new.k or jp_old.gamma_h != jp_new.gamma_h:
        raise ValueError("policies must share k and gamma_h")
    v_old = high_value(mdp, jp_old)
    m_new, _, _, _ = semi_mdp(mdp, jp_new)
    a_bar = np.einsum("sz,sz->s", jp_new.pi_h, mixed_advantage(mdp, jp_new, v_old))
    occ = discounted_occupancy(mdp.initial_dist, m_new, jp_new.gamma_h)
    expected = float(occ @ a_bar)
    return abs(exact_eta(mdp, jp_new) - exact_eta(mdp, jp_old) - expected)


def geometric_sum(gamma: float, k: int) -> float:
    if gamma == 1.0:
        return float(k)
    return (1.0 - gamma ** k) / (1.0 - gamma)


def verification_suite(n_instances: int = 100, seed: int = 0) -> list[dict]:
    """Randomized residual checks behind the `theory-check` command.

    Per instance: the advantage-decomposition residual on a random
    recurrent MDP (must be ~0), and the low-level objective's relative
    error on an episodic MDP with matched discounts (~0) and with
    gamma_l = gamma_h (the lemma's approximation, whose error shrinks
    as both discounts near one).
    """
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n_instances):
        n_s = int(rng.integers(2, 6))
        n_a = int(rng.integers(1, 4))
        n_z = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        gamma_h = 0.9 if i % 2 == 0 else 0.99
        mdp = random_mdp(n_s, n_a, rng)
        jp_old = random_joint_policy(mdp, n_z, k, gamma_h, rng)
        jp_new = random_joint_policy(mdp, n_z, k, gamma_h, rng)
        residual = advantage_decomposition_residual(mdp, jp_old, jp_new)

        epi = absorbing_random_mdp(n_s, n_a, rng)
        jp_r = random_joint_policy(epi, max(n_z, 2), k, gamma_h, rng)
        pi_l_new = rng.dirichlet(np.ones(n_a), size=(epi.n_states, max(n_z, 2)))
        pi_l_new /= pi_l_new.sum(axis=2, keepdims=True)
        jp_e = TabularJointPolicy(jp_r.pi_h, pi_l_new, k, gamma_h)
        gamma_match = gamma_h ** (1.0 / k)
        err_match = lowlevel_objective_relative_error(epi, jp_r, jp_e, gamma_match)
        err_approx = lowlevel_objective_relative_error(epi, jp_r, jp_e, gamma_h)
        rows.append({
            "instance": i,
            "n_states": n_s, "n_actions": n_a, "n_skills": n_z, "k": k,
            "gamma_h": gamma_h,
            "decomposition_residual": residual,
            "matched_discount_rel_error": err_match,
            "same_discount_rel_error": err_approx,
            "pass": bool(residual <= 1e-8 and err_match <= 1e-10),
        })
    return rows


def mixed_advantage(mdp: TabularMdp, jp_eval: TabularJointPolicy,
                    v_ref: np.ndarray) -> np.ndarray:
    """Expected realized advantage estimate per (state, skill).

    A segment run under jp_eval from (s, z) realizes the one-step
    estimate r_h + gamma_h V_ref(s_{+k}) - V_ref(s); its expectation
    backs up jp_eval's own segment reward and k-step kernel against the
    reference value. For jp_eval equal to the reference policy this is
    that policy's ordinary advantage table.
    """
    _, _, pk, r_h = semi_mdp(mdp, jp_eval)
    return r_h + jp_eval.gamma_h * np.einsum("zsp,p->sz", pk, v_ref) - v_ref[:, None]


def lowlevel_objective_relative_error(mdp: TabularMdp, jp_rewards: TabularJointPolicy,
                                      jp_eval: TabularJointPolicy, gamma_l: float) -> float:
    """Relative gap between the low level's start value, evaluated step
    by step with jp_rewards' value behind the auxiliary reward and
    jp_eval's trajectories (same pi_h, a possibly different low level),
    and the theorem's right side: geometric_sum(gamma_l, k) / k times the
    high level's gamma_h-discounted advantage sum. The two coincide
    exactly when gamma_l^k equals gamma_h."""
    if jp_rewards.k != jp_eval.k:
        raise ValueError("policies must share the skill length")
    v_ref = high_value(mdp, jp_rewards)
    exact = auxiliary_start_value(mdp, jp_eval, v_ref, gamma_l)
    m_eval, _, _, _ = semi_mdp(mdp, jp_eval)
    q = np.einsum("sz,sz->s", jp_eval.pi_h, mixed_advantage(mdp, jp_eval, v_ref))
    theorem = (geometric_sum(gamma_l, jp_eval.k) / jp_eval.k
               * float(discounted_occupancy(mdp.initial_dist, m_eval, jp_eval.gamma_h) @ q))
    return abs(exact - theorem) / max(abs(theorem), 1e-12)


def auxiliary_start_value(mdp: TabularMdp, jp_eval: TabularJointPolicy,
                          v_ref: np.ndarray, gamma_l: float) -> float:
    """Exact low-level start value under the auxiliary rewards, solved on
    the chain of low steps over (segment start s0, skill z, phase j,
    state s). Each step pays mixed_advantage[s0, z] / k (its segment's
    realized advantage estimate over v_ref, split over k steps) and is
    discounted by gamma_l; the step of phase k - 1 starts a new segment at
    the state it reaches, with a skill drawn from pi_h there."""
    if not 0.0 < gamma_l < 1.0:
        raise ValueError("gamma_l must lie in (0, 1)")
    k, pi_h = jp_eval.k, jp_eval.pi_h
    n_s, n_z = pi_h.shape
    pz, _ = skill_kernels(mdp, jp_eval)
    shape, s = (n_s, n_z, k, n_s), np.arange(n_s)
    chain, start = np.zeros(shape * 2), np.zeros(shape)
    start[s, :, 0, s] = mdp.initial_dist[:, None] * pi_h
    for s0 in range(n_s):
        for z in range(n_z):
            for j in range(k - 1):
                chain[s0, z, j, :, s0, z, j + 1, :] = pz[z]
            chain[s0, z, k - 1][:, s, :, 0, s] = pz[z].T[:, :, None] * pi_h[:, None, :]
    reward = np.broadcast_to(mixed_advantage(mdp, jp_eval, v_ref)[:, :, None, None] / k, shape)
    n = start.size
    return float(start.ravel() @ _solve(chain.reshape(n, n), gamma_l, reward.ravel()))
