"""Shared independent oracles for the test suite.

These deliberately avoid the library's own code paths: the MLP oracle
is a plain nested loop, and the gradient oracle is central finite
differences on whatever scalar function it is given.
"""

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


def raycast_loops(position, maze, ray_max, n_rays=20):
    """Loop-based range sensor; independent of haarlab.envs.raycast.

    Faces come straight from the wall grid. Per ray and face it does the
    library's floating-point operations in the library's order, so the
    readings agree bit for bit: t = (at - px) / dx for a face on x = at,
    the crossing at py + t * dy (x and y swap for y = at). The ray
    directions use numpy's cos and sin on the same angle array.
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


def step_loops(maze, cfg, state, action, face_eps=1e-9, stumble_steps=3):
    """Loop-based point-mass step; independent of haarlab.envs.point.

    The scalar step, one float at a time: clip the speed with math.hypot,
    sweep to the earliest wall-face crossing (resting face_eps inside the
    free cell), then the goal, stumble, gather and timeout rules in that
    order. Returns (position, velocity, t, overdrive, reward, done, info,
    food_active, bomb_active, walls_hit, corners): walls_hit counts the
    velocity components a wall zeroed, corners the moments the path met a
    vertical and a horizontal grid line at once.
    """
    import math

    ax, ay = float(action[0]), float(action[1])
    gain = cfg.action_scale * cfg.dt
    vx, vy = (float(v) for v in state.agent.velocity)
    vx += ax * gain
    vy += ay * gain
    speed = math.hypot(vx, vy)
    if speed > cfg.v_max:
        shrink = cfg.v_max / speed
        vx *= shrink
        vy *= shrink
    x, y = (float(p) for p in state.agent.position)
    cs = maze.cell_size
    rows, cols = maze.walls.shape

    def wall(r, c):
        return not (0 <= r < rows and 0 <= c < cols) or bool(maze.walls[r, c])

    remaining = cfg.dt
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
    overdrive = state.overdrive + 1 if (cfg.stumble_enabled and cmd > cfg.stumble_threshold) else 0
    t = state.t + 1
    reward, done = 0.0, False
    info = {"goal": False, "death": False, "timeout": False, "food": 0, "bombs": 0}
    food_active, bomb_active = state.food_active, state.bomb_active
    if maze.goal_cell is not None and (math.floor(y / cs), math.floor(x / cs)) == maze.goal_cell:
        reward, done = cfg.goal_reward, True
        info["goal"] = True
    elif overdrive >= stumble_steps:
        reward, done = cfg.death_reward, True
        info["death"] = True
    else:
        if maze.kind == "gather":
            radius = 0.5 * cs
            food_active, bomb_active = food_active.copy(), bomb_active.copy()
            for key, sites, active, pay in (
                    ("food", state.food_sites, food_active, cfg.food_reward),
                    ("bombs", state.bomb_sites, bomb_active, cfg.bomb_reward)):
                hits = 0
                for i in range(len(sites)):
                    dx = sites[i, 0] - x
                    dy = sites[i, 1] - y
                    if active[i] and dx * dx + dy * dy <= radius * radius:
                        active[i] = False
                        hits += 1
                if hits:
                    reward += pay * hits
                    info[key] = hits
        if t >= cfg.max_episode_steps:
            done = True
            info["timeout"] = True
    return (np.array((x, y)), np.array((vx, vy)), t, overdrive, reward, done, info,
            food_active, bomb_active, walls_hit, corners)


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
    batched = delta.ndim == 2
    for i in range(len(layers) - 1, -1, -1):
        W, _ = layers[i]
        a_in = acts[i]
        if batched:
            gW = delta.T @ a_in
            gb = delta.sum(axis=0)
        else:
            gW = np.outer(delta, a_in)
            gb = delta
        grads[i] = (gW, gb)
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
    x = np.atleast_2d(np.asarray(obs, dtype=np.float64)) * policy.input_scale
    return (w, len(x), *ref_forward_cached(policy.spec, w, x))


def ref_grad_logprob_weighted(policy, obs, actions, weights):
    """The policy's weighted log-prob gradient through the reference core."""
    w, n, out, acts = _ref_net_forward(policy, obs)
    weights = np.asarray(weights, dtype=np.float64).ravel()
    gy, g_head = policy._logprob_out_grad(out, policy._action_batch(actions), weights, n)
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
        e = np.exp(out - out.max(axis=-1, keepdims=True))
        p = e / e.sum(axis=-1, keepdims=True)
        gy, g_head = (p * r - p * (p * r).sum(axis=1, keepdims=True)) / n, []
    return np.concatenate([ref_backward(spec, w, acts, gy, derivs), *g_head]) + damping * v


def ref_fit_value_weights(states, targets, ridge):
    """[w3, w2, w1, w0] as the value fit computed them from stacked copies."""
    s2 = states * states
    phi = np.concatenate([s2 * states, s2, states, np.ones((len(states), 1))], axis=1)
    a = np.vstack([phi, np.sqrt(ridge) * np.eye(phi.shape[1])])
    b = np.concatenate([targets, np.zeros(phi.shape[1])])
    return np.linalg.lstsq(a, b, rcond=None)[0]
