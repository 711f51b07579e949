"""Shared independent oracles for the test suite.

Most deliberately avoid the library's own code paths: the MLP oracle
is a plain nested loop, and the gradient oracle is central finite
differences on whatever scalar function it is given. The last section
is different: its tabular rollout adapter, skill probe and alternation
check are built on the library's own rollout lanes, skill collector and
exact theory functions, which the tests check the learners against.
"""

from typing import NamedTuple

import numpy as np


def mlp_eval_loops(layer_dims, w, x):
    """Loop-based tanh MLP evaluation; independent of haarlab.nets."""
    pos = 0
    a = [float(v) for v in x]
    for li, (fan_in, fan_out) in enumerate(layer_dims):
        z = []
        for j in range(fan_out):
            acc = 0.0
            for i in range(fan_in):
                acc += w[pos + j * fan_in + i] * a[i]
            z.append(acc)
        pos += fan_in * fan_out
        for j in range(fan_out):
            z[j] += w[pos + j]
        pos += fan_out
        if li == len(layer_dims) - 1:
            a = z
        else:
            a = [np.tanh(v) for v in z]
    return np.array(a)


def finite_diff_grad(f, theta, h=1e-5):
    """Central finite differences of scalar f at theta."""
    theta = np.asarray(theta, dtype=np.float64)
    g = np.zeros_like(theta)
    for i in range(theta.size):
        tp = theta.copy()
        tm = theta.copy()
        tp[i] += h
        tm[i] -= h
        g[i] = (f(tp) - f(tm)) / (2.0 * h)
    return g


def rel_err(a, b, floor=1e-6):
    """Guarded per-coordinate relative error."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.abs(a - b) / denom


def cell_of(maze, position):
    """The (row, col) grid cell holding a world position."""
    return (int(np.floor(position[1] / maze.cell_size)),
            int(np.floor(position[0] / maze.cell_size)))


def raycast_loops(position, maze, ray_max, n_rays=20):
    """Loop-based range sensor; independent of haarlab.envs.raycast.

    Faces come straight from the wall grid. Per ray and face it does the
    library's floating-point operations in the library's order, so the
    readings agree bit for bit: t = (at - px) / dx for a face on x = at,
    the crossing at py + t * dy (x and y swap for y = at). The ray
    directions use numpy's cos and sin on the same angle array.
    The one exception is a zero reading from a point on a wall line. The
    minimum keeps whichever zero it meets first, and the two visit their
    walls in different orders, so one can read 0.0 where the other reads
    -0.0. test_readings_on_wall_lines_and_corners_equal_loop_oracle
    compares such readings by value.
    """
    cs = maze.cell_size
    walls = maze.walls
    rows, cols = walls.shape
    faces = []  # (axis, at, lo, hi); axis 0 is a face on x = at
    for r in range(rows):
        for c in range(cols):
            if not walls[r, c]:
                continue
            if c > 0 and not walls[r, c - 1]:
                faces.append((0, c * cs, r * cs, (r + 1) * cs))
            if c + 1 < cols and not walls[r, c + 1]:
                faces.append((0, (c + 1) * cs, r * cs, (r + 1) * cs))
            if r > 0 and not walls[r - 1, c]:
                faces.append((1, r * cs, c * cs, (c + 1) * cs))
            if r + 1 < rows and not walls[r + 1, c]:
                faces.append((1, (r + 1) * cs, c * cs, (c + 1) * cs))
    angles = np.arange(n_rays) * (2.0 * np.pi / n_rays)
    dxs = np.cos(angles).tolist()
    dys = np.sin(angles).tolist()
    p = (float(position[0]), float(position[1]))
    out = []
    for dx, dy in zip(dxs, dys):
        d = (dx, dy)
        best = float(ray_max)
        for axis, at, lo, hi in faces:
            if d[axis] == 0.0:
                continue
            t = (at - p[axis]) / d[axis]
            hit = p[1 - axis] + t * d[1 - axis]
            if t >= 0.0 and lo <= hit <= hi and t < best:
                best = t
        out.append(best)
    return np.array(out)


def act_noise(policy, rng, n):
    """n steps' noise drawn from rng, as the rows policy.act takes."""
    return policy.noise_rows(policy.noise(rng, n))


def gaussian_noise_rows(log_std, eps):
    """The noise rows GaussianPolicy.act takes for standard normal rows
    eps, by the per-step formulas, one row at a time: sigma * eps, then
    the action's log-density with eps @ eps as a one-row stacked
    product."""
    log_std = np.asarray(log_std, dtype=np.float64)
    rows = []
    for e in np.asarray(eps, dtype=np.float64):
        quad = float(np.matmul(e[None, None, :], e[None, :, None])[0, 0, 0])
        logp = -0.5 * quad - float(log_std.sum()) - 0.5 * len(log_std) * np.log(2.0 * np.pi)
        rows.append([*(np.exp(log_std) * e), logp])
    return np.array(rows).reshape(-1, len(log_std) + 1)


END_CODES = {"goal": 1, "death": 2, "timeout": 3}  # env.step's end codes; 0 runs on


def end_code(info) -> int:
    """The end code env.step gives the outcome step_loops reports in
    `info`: the goal before a death before the timeout, 0 for none."""
    return next((code for key, code in END_CODES.items() if info[key]), 0)


def step_loops(maze, cfg, state, action, face_eps=1e-9, stumble_steps=3):
    """Loop-based point-mass step; independent of haarlab.envs.point.

    `state` is a one-lane batch: its position, velocity, t and overdrive
    each hold one row. The scalar step, one float at a time: clip the
    speed with math.hypot, sweep to the earliest wall-face crossing
    (resting face_eps inside the free cell), then the goal, stumble and
    timeout rules in that order. Returns (position, velocity, t,
    overdrive, reward, done, info, walls_hit, corners): walls_hit counts
    the velocity components a wall zeroed, corners the moments the path
    met a vertical and a horizontal grid line at once. It reads only the
    reward constants, DT and ACTION_SCALE from the env.
    """
    import math

    from haarlab.envs.point import ACTION_SCALE, DEATH_REWARD, DT, GOAL_REWARD

    ax, ay = float(action[0]), float(action[1])
    gain = ACTION_SCALE * DT
    vx, vy = (float(v) for v in state.velocity[0])
    vx += ax * gain
    vy += ay * gain
    speed = math.hypot(vx, vy)
    if speed > cfg.v_max:
        shrink = cfg.v_max / speed
        vx *= shrink
        vy *= shrink
    x, y = (float(p) for p in state.position[0])
    cs = maze.cell_size
    rows, cols = maze.walls.shape

    def wall(r, c):
        return not (0 <= r < rows and 0 <= c < cols) or bool(maze.walls[r, c])

    remaining = DT
    col, row = int(x // cs), int(y // cs)
    walls_hit = corners = 0
    for _ in range(128):
        if remaining <= 0.0 or (vx == 0.0 and vy == 0.0):
            break
        t_x = (((col + 1) * cs - x) / vx if vx > 0.0 else
               (col * cs - x) / vx if vx < 0.0 else math.inf)
        t_y = (((row + 1) * cs - y) / vy if vy > 0.0 else
               (row * cs - y) / vy if vy < 0.0 else math.inf)
        t_hit = min(t_x, t_y)
        if t_hit >= remaining:
            x += vx * remaining
            y += vy * remaining
            break
        x += vx * t_hit
        y += vy * t_hit
        remaining -= t_hit
        cross_x, cross_y = t_x <= t_y, t_y <= t_x
        corners += cross_x and cross_y
        if cross_x:
            nxt = col + (1 if vx > 0.0 else -1)
            if wall(row, nxt):
                x = (col + 1) * cs - face_eps if vx > 0.0 else col * cs + face_eps
                vx = 0.0
                walls_hit += 1
            else:
                col = nxt
        if cross_y:
            nxt = row + (1 if vy > 0.0 else -1)
            if wall(nxt, col):
                y = (row + 1) * cs - face_eps if vy > 0.0 else row * cs + face_eps
                vy = 0.0
                walls_hit += 1
            else:
                row = nxt

    cmd = math.hypot(ax, ay)
    overdriven = cmd > cfg.stumble_threshold
    overdrive = int(state.overdrive[0]) + 1 if overdriven else 0
    t = int(state.t[0]) + 1
    reward, done = 0.0, False
    info = {"goal": False, "death": False, "timeout": False}
    if maze.goal_cell is not None and (math.floor(y / cs), math.floor(x / cs)) == maze.goal_cell:
        reward, done = GOAL_REWARD, True
        info["goal"] = True
    elif overdrive >= stumble_steps:
        reward, done = DEATH_REWARD, True
        info["death"] = True
    elif t >= cfg.max_episode_steps:
        done = True
        info["timeout"] = True
    return np.array((x, y)), np.array((vx, vy)), t, overdrive, reward, done, info, walls_hit, corners


# -- reference MLP core ----------------------------------------------------------
# The allocating forms of haarlab.nets' forward_cached, tanh_derivs,
# backward and rop_forward, kept verbatim so the in-place library code can
# be pinned to them bit for bit.

def _ref_layers(layer_dims, w):
    layers, pos = [], 0
    for fan_in, fan_out in layer_dims:
        W = w[pos:pos + fan_in * fan_out].reshape(fan_out, fan_in)
        pos += fan_in * fan_out
        layers.append((W, w[pos:pos + fan_out]))
        pos += fan_out
    return layers


def ref_forward_cached(spec, w, x):
    x = np.asarray(x, dtype=np.float64)
    layers = _ref_layers(spec.layer_dims, w)
    acts = [x]
    a = x
    last = len(layers) - 1
    for i, (W, b) in enumerate(layers):
        z = a @ W.T + b
        if i == last:
            return z, acts
        a = np.tanh(z)
        acts.append(a)
    raise AssertionError("unreachable")


def ref_tanh_derivs(acts):
    return [1.0 - a * a for a in acts[1:]]


def ref_backward(spec, w, acts, gy, derivs=None):
    layers = _ref_layers(spec.layer_dims, w)
    if derivs is None:
        derivs = ref_tanh_derivs(acts)
    grads = [None] * len(layers)
    delta = np.asarray(gy, dtype=np.float64)
    for i in range(len(layers) - 1, -1, -1):
        W, _ = layers[i]
        grads[i] = (delta.T @ acts[i], delta.sum(axis=0))
        if i > 0:
            delta = (delta @ W) * derivs[i - 1]
    flat = np.empty(spec.n_params)
    pos = 0
    for gW, gb in grads:
        flat[pos:pos + gW.size] = gW.ravel()
        pos += gW.size
        flat[pos:pos + gb.size] = gb
        pos += gb.size
    return flat


def ref_rop_forward(spec, w, v, acts, derivs=None):
    layers = _ref_layers(spec.layer_dims, w)
    vlayers = _ref_layers(spec.layer_dims, np.asarray(v, dtype=np.float64))
    if derivs is None:
        derivs = ref_tanh_derivs(acts)
    r = None
    last = len(layers) - 1
    for i, ((W, _), (Vw, vb)) in enumerate(zip(layers, vlayers)):
        a_in = acts[i]
        rz = a_in @ Vw.T + vb
        if r is not None:
            rz = rz + r @ W.T
        if i == last:
            return rz
        r = rz * derivs[i]
    raise AssertionError("unreachable")


def _ref_net_forward(policy, obs):
    w = policy.params.segment(policy.NET).copy()
    x = np.asarray(obs, dtype=np.float64) * policy.input_scale
    return (w, len(x), *ref_forward_cached(policy.spec, w, x))


def ref_grad_logprob_weighted(policy, obs, actions, weights):
    """The policy's weighted log-prob gradient through the reference core."""
    w, n, out, acts = _ref_net_forward(policy, obs)
    weights = np.asarray(weights, dtype=np.float64).ravel()
    gy, g_head = policy._logprob_out_grad(out, actions, weights, n)
    return np.concatenate([ref_backward(policy.spec, w, acts, gy), *g_head])


def ref_fvp(policy, obs, v, damping):
    """(F + damping I) v through the reference core and the allocating
    forms of both heads' Fisher blocks."""
    w, n, out, acts = _ref_net_forward(policy, obs)
    spec = policy.spec
    derivs = ref_tanh_derivs(acts)
    n_net = spec.n_params
    r = ref_rop_forward(spec, w, v[:n_net], acts, derivs)
    if hasattr(policy, "log_std"):
        gy, g_head = r * (np.exp(-2.0 * policy.log_std) / n), [2.0 * v[n_net:]]
    else:
        p = _softmax(out)
        gy, g_head = (p * r - p * (p * r).sum(axis=1, keepdims=True)) / n, []
    return np.concatenate([ref_backward(spec, w, acts, gy, derivs), *g_head]) + damping * v


def _softmax(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


# -- policy quantities over the batch API ------------------------------------------
# What the trust-region maths is checked against: log densities, the mean
# KL and its gradient, the Fisher-vector product and the surrogate, each
# over (n, d) rows through the policy's public batch methods.

def log_prob(policy, obs, actions):
    """Log densities of n actions at (n, d) observations."""
    return policy.dist_log_prob(policy.dist_params(obs), actions)


def mean_kl(policy, old_dist, obs):
    """Mean KL(old || current) over (n, d) observations, closed form."""
    return policy.dist_kl(old_dist, policy.dist_params(obs))


def kl_grad(policy, old_dist, obs):
    """Gradient of mean_kl w.r.t. the current parameters: the head's KL
    gradient at the network output, back-propagated by
    nets.backward_consuming."""
    from haarlab.nets import backward_consuming

    w, n, out, _, acts = policy.forward_batch(obs)
    if hasattr(policy, "log_std"):
        old_mu, old_log_std = old_dist
        inv_var = np.exp(-2.0 * policy.log_std)
        gy = (out - old_mu) * inv_var / n
        g_head = [(1.0 - (np.exp(2.0 * old_log_std) + (old_mu - out) ** 2) * inv_var)
                  .sum(axis=0) / n]
    else:
        gy, g_head = (_softmax(out) - np.exp(old_dist)) / n, []
    return np.concatenate([backward_consuming(policy.spec, w, acts, gy), *g_head])


def fvp(policy, obs, v, damping):
    """(F + damping I) v, F the KL Hessian at the current parameters."""
    return policy.fvp_builder(obs, damping)(v)


def surrogate_loss(batch, policy):
    """mean(exp(logp - old_logp) * A); equals mean(A) at the old parameters."""
    logp = log_prob(policy, batch.observations, batch.actions)
    return float(np.mean(np.exp(logp - batch.old_log_probs) * batch.advantages))


def ref_fit_value_weights(states, targets, ridge):
    """[w3, w2, w1, w0] as the value fit computed them from stacked copies."""
    s2 = states * states
    phi = np.concatenate([s2 * states, s2, states, np.ones((len(states), 1))], axis=1)
    a = np.vstack([phi, np.sqrt(ridge) * np.eye(phi.shape[1])])
    b = np.concatenate([targets, np.zeros(phi.shape[1])])
    return np.linalg.lstsq(a, b, rcond=None)[0]


# -- reference learning steps ------------------------------------------------------
# haarlab.values.fit_value and haarlab.trpo.trpo_update as they were before
# their all-zero fast paths: every batch takes the least-squares solve and
# the forward pass. Kept verbatim so the fast paths can be pinned to them.

def ref_fit_value(states, targets, ridge=1e-5):
    from haarlab.params import ShapeError
    from haarlab.values import PolynomialValueEstimator

    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    targets = np.asarray(targets, dtype=np.float64).ravel()
    if states.shape[0] == 0:
        raise ValueError("cannot fit a value estimator on an empty batch")
    if targets.shape[0] != states.shape[0]:
        raise ShapeError("states and targets must be aligned")
    n, d = states.shape
    n_feat = 3 * d + 1
    a = np.empty((n + n_feat, n_feat))
    s2 = np.multiply(states, states, out=a[:n, d:2 * d])
    np.multiply(s2, states, out=a[:n, :d])
    a[:n, 2 * d:3 * d] = states
    a[:n, 3 * d] = 1.0
    a[n:] = np.sqrt(ridge) * np.eye(n_feat)
    b = np.concatenate([targets, np.zeros(n_feat)])
    w, *_ = np.linalg.lstsq(a, b, rcond=None)
    return PolynomialValueEstimator(w[:d].copy(), w[d:2 * d].copy(), w[2 * d:3 * d].copy(),
                                    float(w[3 * d]))


def ref_trpo_update(policy, batch, max_kl):
    from haarlab.params import NumericsError
    from haarlab.trpo import (BACKTRACK_RATIO, CG_DAMPING, CG_ITERATIONS, FISHER_STRIDE,
                              KL_SLACK, MAX_BACKTRACKS, AdvantageBatch, TrpoDiagnostics,
                              _surrogate, conjugate_gradient, standardize_advantages)

    theta_old = policy.flat()
    adv = standardize_advantages(batch.advantages)
    work = AdvantageBatch(batch.observations, batch.actions, adv,
                          batch.old_log_probs, batch.old_dist)
    fwd = policy.forward_batch(work.observations)
    weights = np.exp(policy.dist_log_prob(fwd.dist, work.actions) - work.old_log_probs) * adv
    surr_before = float(np.mean(weights))
    g = policy.grad_logprob_weighted(fwd, work.actions, weights)
    if not np.all(np.isfinite(g)) or float(np.max(np.abs(g), initial=0.0)) < 1e-12:
        return TrpoDiagnostics(False, 0.0, surr_before, surr_before, 0)

    apply_a = policy.fvp_builder(work.observations[::FISHER_STRIDE], CG_DAMPING)

    try:
        step_dir = conjugate_gradient(apply_a, g, CG_ITERATIONS)
        s_as = float(step_dir @ apply_a(step_dir))
    except NumericsError:
        return TrpoDiagnostics(False, 0.0, surr_before, surr_before, 0)
    if not np.isfinite(s_as) or s_as <= 0.0:
        return TrpoDiagnostics(False, 0.0, surr_before, surr_before, 0)

    full_step = np.sqrt(2.0 * max_kl / s_as) * step_dir
    del fwd, apply_a
    shrink = 1.0
    for backtracks in range(MAX_BACKTRACKS):
        policy.set_flat(theta_old + shrink * full_step)
        dist = policy.dist_params(work.observations)
        kl = policy.dist_kl(work.old_dist, dist)
        surr = _surrogate(work, policy.dist_log_prob(dist, work.actions))
        if (np.isfinite(kl) and np.isfinite(surr)
                and kl <= KL_SLACK * max_kl and surr - surr_before >= 0.0):
            return TrpoDiagnostics(True, float(kl), surr_before, float(surr), backtracks)
        shrink *= BACKTRACK_RATIO
    policy.set_flat(theta_old)
    return TrpoDiagnostics(False, 0.0, surr_before, surr_before, MAX_BACKTRACKS)


# -- linear softmax heads over the tabular env -------------------------------------
# A CategoricalPolicy with no hidden layer over a one-hot input is a
# softmax table: the logits of state s are column s of W plus b.

def table_heads(n_states, n_skills, n_actions, rng):
    """pi_h over TabularRolloutEnv's one-hot state and pi_l over the state
    with the skill's one-hot appended, with standard normal parameters."""
    from haarlab.nets import MlpSpec
    from haarlab.policies import CategoricalPolicy

    heads = (CategoricalPolicy(MlpSpec(n_states, (), n_skills), rng),
             CategoricalPolicy(MlpSpec(n_states + n_skills, (), n_actions), rng))
    for head in heads:
        head.set_flat(rng.standard_normal(head.params.size))
    return heads


def head_tables(pi_h, pi_l, n_states, n_skills):
    """(pi_h[s, z], pi_l[s, z, a]) read with dist_params at every state and
    every (state, skill) input."""
    from haarlab.hierarchy import skill_inputs

    eye = np.eye(n_states)
    x = skill_inputs(np.repeat(eye, n_skills, axis=0), np.tile(np.arange(n_skills), n_states),
                     n_skills)
    return (np.exp(pi_h.dist_params(eye)),
            np.exp(pi_l.dist_params(x)).reshape(n_states, n_skills, -1))


# -- oracles on the library's own machinery ----------------------------------------
# Test-only code that runs on haarlab's rollout lanes and exact theory: a
# TabularMdp through the rollout protocol, the mean displacement of each
# pre-trained skill, and the monotone alternation of exact improvements.

def _sample_index(probs, rng):
    c = np.cumsum(probs)
    return int(min(np.searchsorted(c, rng.random() * c[-1]), len(probs) - 1))


class TabularLanes(NamedTuple):
    """Episodes stepped together, one row per lane."""
    s: np.ndarray    # (L,) current states
    t: np.ndarray    # (L,) steps taken
    rng: np.ndarray  # (L,) each episode's stream, as objects


class TabularRolloutEnv:
    """Adapter exposing a haarlab.theory.TabularMdp through the rollout
    protocol.

    Observations at both levels are the one-hot state, at unit scale;
    episodes truncate after `horizon` low steps so infinite-horizon
    chains can be sampled. The transition noise draws from the episode
    stream handed to reset, which the episode state carries, so episodes
    may run interleaved.
    """

    def __init__(self, mdp, horizon: int):
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        self.mdp = mdp
        self.horizon = horizon
        self.low_obs_dim = mdp.n_states
        self.high_obs_dim = mdp.n_states
        self.low_obs_scale = self.high_obs_scale = np.ones(mdp.n_states)
        self._eye = np.eye(mdp.n_states)

    def high_obs_batch(self, lanes, low):
        return low

    def reset(self, rng):
        """Start an episode: a one-lane batch and its one-hot state row."""
        s = _sample_index(self.mdp.initial_dist, rng)
        stream = np.empty(1, dtype=object)
        stream[0] = rng
        return TabularLanes(np.array([s]), np.array([0]), stream), self._eye[[s]]

    def step(self, lanes, action):
        """Advance every lane one step; returns (lanes, one-hot rows,
        rewards, end codes) as PointEnv.step does: 2 at a terminal
        state, else 3 at the horizon; no state is a goal."""
        s_next = np.array([_sample_index(self.mdp.transition[s, int(a)], rng)
                           for s, a, rng in zip(lanes.s.tolist(), action, lanes.rng)])
        reward = self.mdp.reward[lanes.s, np.asarray(action, dtype=np.intp)]
        t = lanes.t + 1
        end = np.where(self.mdp.terminal[s_next], 2, np.where(t >= self.horizon, 3, 0))
        return TabularLanes(s_next, t, lanes.rng), self._eye[s_next], reward, end


def skill_displacements(pi_l, n_skills, episodes_per_skill, steps, seed, env_cfg):
    """Mean displacement vector per skill over fresh seeded episodes of
    at most `steps` steps in pretrain.open_field_env(steps, env_cfg),
    collected as pre-training collects its proxy batches."""
    from haarlab.pretrain import _SkillCollector, open_field_env
    from haarlab.rollout import run_lanes

    env = open_field_env(steps, env_cfg)
    streams = (np.random.default_rng(np.random.SeedSequence((seed, 0xD1, skill, ep)))
               for skill in range(n_skills) for ep in range(episodes_per_skill))
    collector = _SkillCollector(pi_l, n_skills, lambda e, _: e // episodes_per_skill, steps)
    run = run_lanes(env, streams, n_skills * episodes_per_skill * steps, collector)
    first = np.concatenate(([0], np.flatnonzero(run.done)[:-1] + 1))  # each episode's first row
    disp = run.final.position - run.columns[4][first]
    return disp.reshape(n_skills, episodes_per_skill, 2).sum(axis=1) / episodes_per_skill


def exact_high_advantage(mdp, jp):
    """A[s, z] = r_h(s, z) + gamma_h (P_z^k V)(s) - V(s), all exact."""
    from haarlab.theory import high_value, mixed_advantage

    return mixed_advantage(mdp, jp, high_value(mdp, jp))


def _low_level_eta_gradient(mdp, jp):
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
    from haarlab.theory import (_masked_tables, _solve, discounted_occupancy, semi_mdp,
                                skill_kernels)

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


def monotone_alternation_check(mdp, jp, iterations, low_step=1e-2, line_search_points=33):
    """Alternate exact high-level greedy improvement with a small exact-
    line-searched gradient step on the low level's auxiliary objective;
    return the joint objective after the start and after every
    improvement step (length 1 + 2*iterations).

    gamma_l is taken as gamma_h^(1/k), which makes the low level's
    auxiliary objective an exact positive affine image of the joint
    objective, so every accepted step improves both.
    """
    from haarlab.theory import (TabularJointPolicy, auxiliary_start_value, exact_eta,
                                high_value)

    pi_h = jp.pi_h.copy()
    pi_l = jp.pi_l.copy()
    k, gamma_h = jp.k, jp.gamma_h
    gamma_l = gamma_h ** (1.0 / k)

    def joint(pi_h_c, pi_l_c):
        return TabularJointPolicy(pi_h_c, pi_l_c, k, gamma_h)

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
