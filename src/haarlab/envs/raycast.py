"""Range sensor: 20 rays cast against the wall grid, plus an unoccluded
goal bearing.

The point mass does not rotate, so both live in the world frame. Rays
leave the agent at the fixed angles 2*pi*j/20 (ray 0 points along +x,
ray 5 along +y) and report the distance to the first wall face, capped
at ray_max. The bearing is the unit vector toward the goal; walls never
occlude it.

Implementation: every maze builds, once, a table of the wall segments
that bound free space. Each segment is a maximal run of collinear
wall-cell sides that touch free space, so a straight wall several cells
long is one segment, not one face per cell. All 20 rays are intersected
against all segments in one vectorized pass.
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
    """Maximal wall segments bounding free space, shaped for raycast.

    Every side of a wall cell that touches a free cell is a face; faces
    on one grid line whose spans meet end to end join into one segment.
    Segment i lies on the line x = at[i] (axis 0, vertical) or y = at[i]
    (axis 1, horizontal) and spans [lo[i], hi[i]] along the other axis,
    in world units. Returns (axis, other, at, lo, hi, divisor, step):
    other = 1 - axis; at, lo and hi have shape (F, 1, 1); divisor and
    step, shape (F, 1, 20), hold each ray's direction component along the
    segment's axis (exact zeros as NaN) and along the other axis.

    Joining changes no reading: the faces of one segment share the ray
    parameter and the crossing point, and the union of closed spans that
    touch is the joined span, so each ray's nearest hit is the same.
    """
    faces = []  # (axis, line, start) in cells; every face is one cell long
    rows, cols = walls.shape
    for r in range(rows):
        for c in range(cols):
            if not walls[r, c]:
                continue
            if c > 0 and not walls[r, c - 1]:
                faces.append((0, c, r))
            if c + 1 < cols and not walls[r, c + 1]:
                faces.append((0, c + 1, r))
            if r > 0 and not walls[r - 1, c]:
                faces.append((1, r, c))
            if r + 1 < rows and not walls[r + 1, c]:
                faces.append((1, r + 1, c))
    segments = []  # [axis, line, start, end] in cells
    for axis, line, start in sorted(faces):
        if segments and segments[-1][:2] == [axis, line] and segments[-1][3] == start:
            segments[-1][3] = start + 1
        else:
            segments.append([axis, line, start, start + 1])
    cs = cell_size
    table = np.array([[line * cs, start * cs, end * cs] for _, line, start, end in segments],
                     dtype=np.float64).reshape(-1, 3, 1, 1)
    axis = np.array([seg[0] for seg in segments], dtype=np.intp)
    other = 1 - axis
    return (axis, other, table[:, 0], table[:, 1], table[:, 2],
            _RAY_DIVISORS[axis][:, None], _RAY_DIRECTIONS[other][:, None])


def raycast(position: np.ndarray, maze, ray_max: float) -> np.ndarray:
    """Distances to the first wall along each of the 20 rays, as (L, 20)
    rows for an (L, 2) batch of points. Each row is computed with the same
    float operations whatever the batch, so it matches the one-row batch
    of its point bit for bit.

    For a segment on x = at the ray parameter is t = (at - px) / dx and the
    crossing lies at py + t * dy (x and y swap for y = at). A direction
    component of exactly zero never meets a segment it is parallel to: as a
    NaN divisor it makes t NaN, and every comparison on NaN is false.
    """
    axis, other, at, lo, hi, divisor, step = maze.faces
    # (2, L, 1): coordinate, point, ray
    pts = np.asarray(position, dtype=np.float64).T[:, :, None]
    t = (at - pts[axis]) / divisor        # (F, L, 20): segment, point, ray
    hit = pts[other] + t * step
    ok = t >= 0.0
    ok &= hit >= lo
    ok &= hit <= hi
    return np.where(ok, t, np.inf).min(axis=0, initial=ray_max)


def goal_bearing(position: np.ndarray, goal: np.ndarray | None) -> np.ndarray:
    """Unit vectors to the goal from an (L, 2) batch of points, as (L, 2)
    rows; arenas without a goal report zero vectors."""
    rows = np.asarray(position, dtype=np.float64).tolist()
    if goal is None:
        return np.zeros((len(rows), 2))
    gx, gy = float(goal[0]), float(goal[1])
    out = []  # two floats per point
    for px, py in rows:
        dx = gx - px
        dy = gy - py
        norm = math.hypot(dx, dy)
        out += (dx / norm, dy / norm) if norm != 0.0 else (0.0, 0.0)
    return np.fromiter(out, np.float64, len(out)).reshape(-1, 2)
