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
