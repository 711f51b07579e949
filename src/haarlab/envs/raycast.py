"""Range sensor: 20 rays cast against the wall grid, plus an unoccluded
goal bearing.

The point mass does not rotate, so both live in the world frame. Rays
leave the agent at the fixed angles 2*pi*j/20 (ray 0 points along +x,
ray 5 along +y) and report the distance to the first wall face, capped
at ray_max. The bearing is the unit vector toward the goal; walls never
occlude it.

Implementation: every maze builds, once, a table of the wall faces
adjacent to free space (axis-aligned segments); all 20 rays are
intersected against all faces in one vectorized pass.
"""

from __future__ import annotations

import math

import numpy as np

N_RAYS = 20
_RAY_ANGLES = np.arange(N_RAYS) * (2.0 * math.pi / N_RAYS)
# rows (cos, sin) of the ray angles, and the same with exact zeros
# replaced by NaN for use as divisors
_RAY_DIRECTIONS = np.stack((np.cos(_RAY_ANGLES), np.sin(_RAY_ANGLES)))
_RAY_DIVISORS = np.where(_RAY_DIRECTIONS == 0.0, np.nan, _RAY_DIRECTIONS)


def face_table(walls: np.ndarray, cell_size: float) -> tuple[np.ndarray, ...]:
    """Wall faces touching free space, shaped for raycast.

    Face i lies on the line x = at[i] (axis 0, vertical) or y = at[i]
    (axis 1, horizontal) and spans [lo[i], hi[i]] along the other axis,
    in world units. Returns (axis, other, at, lo, hi, divisor, step):
    other = 1 - axis; at, lo and hi have shape (F, 1, 1); divisor and
    step, shape (F, 1, 20), hold each ray's direction component along the
    face's axis (exact zeros as NaN) and along the other axis.
    """
    cs = cell_size
    faces = []
    rows, cols = walls.shape
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
    table = np.array(faces, dtype=np.float64).reshape(-1, 4, 1, 1)
    axis = table[:, 0, 0, 0].astype(np.intp)
    other = 1 - axis
    return (axis, other, table[:, 1], table[:, 2], table[:, 3],
            _RAY_DIVISORS[axis][:, None], _RAY_DIRECTIONS[other][:, None])


def raycast(position: np.ndarray, maze, ray_max: float) -> np.ndarray:
    """Distances to the first wall along each of the 20 rays.

    position is one point (2,), giving 20 distances, or an (L, 2) batch,
    giving (L, 20) rows; each row is computed with the same float
    operations as a lone point, so it matches the 1-D call bit for bit.

    For a face on x = at the ray parameter is t = (at - px) / dx and the
    crossing lies at py + t * dy (x and y swap for y = at). A direction
    component of exactly zero never meets a face it is parallel to: as a
    NaN divisor it makes t NaN, and every comparison on NaN is false.
    """
    axis, other, at, lo, hi, divisor, step = maze.faces
    p = np.asarray(position, dtype=np.float64)
    pts = p.reshape(-1, 2).T[:, :, None]  # (2, L, 1): coordinate, point, ray
    t = (at - pts[axis]) / divisor        # (F, L, 20): face, point, ray
    hit = pts[other] + t * step
    ok = t >= 0.0
    ok &= hit >= lo
    ok &= hit <= hi
    dist = np.where(ok, t, np.inf).min(axis=0, initial=ray_max)
    return dist[0] if p.ndim == 1 else dist


def goal_bearing(position: np.ndarray, goal: np.ndarray | None) -> np.ndarray:
    """Unit vector to the goal; tasks without a goal report a zero vector.

    position is one point (2,) or an (L, 2) batch, giving (L, 2) rows.
    """
    p = np.asarray(position, dtype=np.float64)
    rows = p.reshape(-1, 2).tolist()
    out = np.zeros((len(rows), 2))
    if goal is not None:
        gx, gy = float(goal[0]), float(goal[1])
        for row, (px, py) in zip(out, rows):
            dx = gx - px
            dy = gy - py
            norm = math.hypot(dx, dy)
            if norm != 0.0:
                row[0] = dx / norm
                row[1] = dy / norm
    return out[0] if p.ndim == 1 else out
