"""Exact tabular verification of the two-level improvement guarantees.

Everything here is closed-form linear algebra on small finite MDPs, no
sampling. The high level of a two-level tabular policy induces a
semi-MDP whose one "step" is k primitive steps under a fixed skill;
that semi-MDP's kernels are computed as exact k-fold products.

Verified claims, each exposed as a residual the test suite drives to
numerical zero:

  * decomposition: the objective of a changed joint policy equals the
    old objective plus the discounted expected advantage-over-the-old-
    value along the new policy's own trajectories (with the reward and
    transition kernel inside the advantage taken from the new policy).
  * low-level objective: rewarding every low step with 1/k of the
    segment's high-level advantage makes the low level's discounted
    start value a positive multiple of the high level's discounted
    advantage sum, exactly when gamma_low^k equals gamma_high and
    approximately when both discounts are near one.
  * alternation: exact greedy high-level improvement interleaved with
    small gradient steps on the low level's auxiliary objective yields
    a non-decreasing objective sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envs.tabular import TabularMdp, random_mdp


class SingularSystemError(RuntimeError):
    """The value equations are singular (discount too close to 1)."""


@dataclass
class TabularJointPolicy:
    pi_h: np.ndarray    # (S, Z)
    pi_l: np.ndarray    # (S, Z, A)
    k: int
    gamma_h: float
    gamma_l: float

    def __post_init__(self):
        self.pi_h = np.asarray(self.pi_h, dtype=np.float64)
        self.pi_l = np.asarray(self.pi_l, dtype=np.float64)
        if self.k < 1:
            raise ValueError("skill length k must be >= 1")
        for name, g in (("gamma_h", self.gamma_h), ("gamma_l", self.gamma_l)):
            if not 0.0 < g < 1.0:
                raise ValueError(f"{name} must lie in (0, 1)")
        if np.max(np.abs(self.pi_h.sum(axis=1) - 1.0)) > 1e-12:
            raise ValueError("pi_h rows must sum to 1 within 1e-12")
        if np.max(np.abs(self.pi_l.sum(axis=2) - 1.0)) > 1e-12:
            raise ValueError("pi_l rows must sum to 1 within 1e-12")

    @property
    def n_skills(self) -> int:
        return self.pi_h.shape[1]


def random_joint_policy(mdp: TabularMdp, n_skills: int, k: int, gamma_h: float,
                        gamma_l: float, rng: np.random.Generator) -> TabularJointPolicy:
    s, a = mdp.n_states, mdp.n_actions
    pi_h = rng.dirichlet(np.ones(n_skills), size=s)
    pi_l = rng.dirichlet(np.ones(a), size=(s, n_skills))
    pi_h = pi_h / pi_h.sum(axis=1, keepdims=True)
    pi_l = pi_l / pi_l.sum(axis=2, keepdims=True)
    return TabularJointPolicy(pi_h, pi_l, k, gamma_h, gamma_l)


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


def exact_high_advantage(mdp: TabularMdp, jp: TabularJointPolicy) -> np.ndarray:
    """A[s, z] = r_h(s, z) + gamma_h (P_z^k V)(s) - V(s), all exact."""
    return mixed_advantage(mdp, jp, high_value(mdp, jp))


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
    gamma_l = gamma_h (small, the lemma's approximation regime).
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
        jp_old = random_joint_policy(mdp, n_z, k, gamma_h, 0.9, rng)
        jp_new = random_joint_policy(mdp, n_z, k, gamma_h, 0.9, rng)
        residual = advantage_decomposition_residual(mdp, jp_old, jp_new)

        epi = absorbing_random_mdp(n_s, n_a, rng)
        jp_r = random_joint_policy(epi, max(n_z, 2), k, gamma_h, 0.9, rng)
        pi_l_new = rng.dirichlet(np.ones(n_a), size=(epi.n_states, max(n_z, 2)))
        pi_l_new /= pi_l_new.sum(axis=2, keepdims=True)
        jp_e = TabularJointPolicy(jp_r.pi_h, pi_l_new, k, gamma_h, 0.9)
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
                                      jp_eval: TabularJointPolicy, gamma_l: float,
                                      eps: float = 1e-12) -> float:
    """Relative gap between the low level's exact discounted start value
    and its high-level-discount approximant.

    jp_rewards supplies the reference value function behind the
    auxiliary reward; jp_eval supplies the trajectories (same pi_h, a
    possibly different low level). Every low step of a segment started
    at (s, z) earns 1/k of the segment's realized advantage estimate.
    Exact side: per-low-step discount gamma_l, i.e. gamma_l^(n k) per
    high step n plus a within-segment geometric factor. Approximant:
    gamma_h per high step. The two coincide exactly when gamma_l^k
    equals gamma_h.
    """
    if jp_rewards.k != jp_eval.k:
        raise ValueError("policies must share the skill length")
    v_ref = high_value(mdp, jp_rewards)
    exact = _auxiliary_value(mdp, jp_eval, v_ref, gamma_l, gamma_l ** jp_eval.k)
    approx = _auxiliary_value(mdp, jp_eval, v_ref, gamma_l, jp_eval.gamma_h)
    return abs(exact - approx) / max(abs(approx), eps)


def _auxiliary_value(mdp: TabularMdp, jp_eval: TabularJointPolicy, v_ref: np.ndarray,
                     gamma_l: float, segment_discount: float) -> float:
    """Low-level start value under the auxiliary rewards: 1/k of each
    segment's realized advantage estimate over v_ref on each of its k
    steps, discounted by gamma_l within a segment and by
    segment_discount from one segment to the next."""
    if not 0.0 < gamma_l < 1.0:
        raise ValueError("gamma_l must lie in (0, 1)")
    m_eval, _, _, _ = semi_mdp(mdp, jp_eval)
    q = np.einsum("sz,sz->s", jp_eval.pi_h, mixed_advantage(mdp, jp_eval, v_ref))
    coef = geometric_sum(gamma_l, jp_eval.k) / jp_eval.k
    return coef * float(mdp.initial_dist @ _solve(m_eval, segment_discount, q))


def auxiliary_start_value(mdp: TabularMdp, jp_eval: TabularJointPolicy,
                          v_ref: np.ndarray, gamma_l: float) -> float:
    """Exact low-level expected start value under the auxiliary rewards
    (realized advantage estimate over v_ref, split over the segment)."""
    return _auxiliary_value(mdp, jp_eval, v_ref, gamma_l, gamma_l ** jp_eval.k)


def _low_level_eta_gradient(mdp: TabularMdp, jp: TabularJointPolicy) -> np.ndarray:
    """Exact gradient of the joint objective w.r.t. the low-level table.

    Adjoint form: with u the discounted occupancy over segment starts,
    v the value, and psi_i the value of the remaining segment from
    phase i (psi_k = gamma_h v, psi_i = r_z + P_z psi_{i+1}),

        d eta / d pi_l[s, z, a] =
            sum_i occupancy(s, z, phase i) * (R[s, a] + P[s, a, :] @ psi_{i+1}).

    With gamma_l^k = gamma_h the auxiliary objective equals
    (geometric factor) * (eta(new) - eta(reference)), so this is also
    the exact auxiliary-objective ascent direction up to a positive
    constant.
    """
    p, r = _masked_tables(mdp)
    pz, rz = skill_kernels(mdp, jp)
    m, r_bar, _, _ = semi_mdp(mdp, jp)
    v = _solve(m, jp.gamma_h, r_bar)
    u = discounted_occupancy(mdp.initial_dist, m, jp.gamma_h)
    grad = np.zeros_like(jp.pi_l)
    for z in range(jp.n_skills):
        psi = [None] * (jp.k + 1)
        psi[jp.k] = jp.gamma_h * v
        for i in range(jp.k - 1, -1, -1):
            psi[i] = rz[z] + pz[z] @ psi[i + 1]
        occ = jp.pi_h[:, z] * u
        for i in range(jp.k):
            grad[:, z, :] += occ[:, None] * (r + p @ psi[i + 1])
            occ = pz[z].T @ occ
    return grad


def monotone_alternation_check(mdp: TabularMdp, jp: TabularJointPolicy, iterations: int,
                               low_step: float = 1e-2, line_search_points: int = 33) -> np.ndarray:
    """Alternate exact high-level greedy improvement with a small exact-
    line-searched gradient step on the low level's auxiliary objective;
    return the joint objective after the start and after every
    improvement step (length 1 + 2*iterations).

    gamma_l is taken as gamma_h^(1/k), which makes the low level's
    auxiliary objective an exact positive affine image of the joint
    objective, so every accepted step improves both.
    """
    pi_h = jp.pi_h.copy()
    pi_l = jp.pi_l.copy()
    k, gamma_h = jp.k, jp.gamma_h
    gamma_l = gamma_h ** (1.0 / k)

    def joint(pi_h_c, pi_l_c):
        return TabularJointPolicy(pi_h_c, pi_l_c, k, gamma_h, gamma_l)

    etas = [exact_eta(mdp, joint(pi_h, pi_l))]
    for _ in range(iterations):
        # high level: exact greedy improvement on the induced semi-MDP
        greedy = np.argmax(exact_high_advantage(mdp, joint(pi_h, pi_l)), axis=1)
        pi_h = np.zeros_like(pi_h)
        pi_h[np.arange(mdp.n_states), greedy] = 1.0
        etas.append(exact_eta(mdp, joint(pi_h, pi_l)))

        # low level: auxiliary-objective ascent with feasible line search
        jp_cur = joint(pi_h, pi_l)
        v_ref = high_value(mdp, jp_cur)
        grad = _low_level_eta_gradient(mdp, jp_cur)
        grad -= grad.mean(axis=2, keepdims=True)  # stay on the simplex
        if float(np.max(np.abs(grad))) > 0.0:
            with np.errstate(divide="ignore"):
                limits = np.where(grad < 0.0, pi_l / np.maximum(-grad, 1e-300), np.inf)
            alpha_max = min(low_step, float(limits.min()))
            best_alpha = 0.0
            best_val = auxiliary_start_value(mdp, jp_cur, v_ref, gamma_l)
            for alpha in np.linspace(0.0, alpha_max, line_search_points)[1:]:
                cand = np.clip(pi_l + alpha * grad, 0.0, None)
                cand /= cand.sum(axis=2, keepdims=True)
                val = auxiliary_start_value(mdp, joint(pi_h, cand), v_ref, gamma_l)
                if val > best_val:
                    best_alpha, best_val = alpha, val
            if best_alpha > 0.0:
                pi_l = np.clip(pi_l + best_alpha * grad, 0.0, None)
                pi_l /= pi_l.sum(axis=2, keepdims=True)
        etas.append(exact_eta(mdp, joint(pi_h, pi_l)))
    return np.array(etas)
