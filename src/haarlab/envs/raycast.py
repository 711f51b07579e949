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
    """Wall faces touching free space, as columns (axis, other, at, lo, hi).

    Face i lies on the line x = at[i] (axis 0, vertical) or y = at[i]
    (axis 1, horizontal) and spans [lo[i], hi[i]] along the other axis,
    in world units; other = 1 - axis. at, lo and hi have shape (F, 1).
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
    table = np.array(faces, dtype=np.float64).reshape(-1, 4)
    axis = table[:, 0].astype(np.intp)
    return axis, 1 - axis, table[:, 1:2], table[:, 2:3], table[:, 3:4]


def raycast(position: np.ndarray, maze, ray_max: float) -> np.ndarray:
    """Distances to the first wall along each of the 20 rays.

    For a face on x = at the ray parameter is t = (at - px) / dx and the
    crossing lies at py + t * dy (x and y swap for y = at). A direction
    component of exactly zero never meets a face it is parallel to: as a
    NaN divisor it makes t NaN, and every comparison on NaN is false.
    """
    axis, other, at, lo, hi = maze.faces
    p = np.array(((float(position[0]),), (float(position[1]),)))
    t = (at - p.take(axis, axis=0)) / _RAY_DIVISORS.take(axis, axis=0)
    hit = p.take(other, axis=0) + t * _RAY_DIRECTIONS.take(other, axis=0)
    ok = t >= 0.0
    ok &= hit >= lo
    ok &= hit <= hi
    return np.where(ok, t, np.inf).min(axis=0, initial=ray_max)


def goal_bearing(position: np.ndarray, goal: np.ndarray | None) -> np.ndarray:
    """Unit vector to the goal; tasks without a goal report a zero vector."""
    if goal is None:
        return np.zeros(2)
    dx = float(goal[0]) - float(position[0])
    dy = float(goal[1]) - float(position[1])
    norm = math.hypot(dx, dy)
    if norm == 0.0:
        return np.zeros(2)
    return np.array([dx / norm, dy / norm])
