import gc

import numpy as np

from haarlab.envs.maze import build_maze, parse_maze_text
from haarlab.envs.raycast import N_RAYS, goal_bearing, raycast

from helpers import raycast_loops


def ray(position, maze, ray_max):
    """The 20 readings at one point, cast as a one-row batch."""
    return raycast(np.asarray(position)[None], maze, ray_max)[0]


def bearing(position, goal):
    """The goal bearing at one point, taken as a one-row batch."""
    return goal_bearing(np.asarray(position)[None], goal)[0]

CROSS = """\
#####
#...#
#.S.#
#...#
#####"""


def test_corridor_side_rays():
    # agent centered in a 3-cell-wide open block: side rays see 1.5 cells
    m = parse_maze_text(CROSS)
    pos = m.cell_center((2, 2))
    d = ray(pos, maze=m, ray_max=50.0)
    cs = m.cell_size
    assert d.shape == (N_RAYS,)
    assert abs(d[5] - 1.5 * cs) <= 1e-9   # +90 degrees
    assert abs(d[15] - 1.5 * cs) <= 1e-9  # -90 degrees
    assert abs(d[0] - 1.5 * cs) <= 1e-9   # forward
    assert abs(d[10] - 1.5 * cs) <= 1e-9  # backward


def test_rays_capped_at_ray_max():
    m = build_maze("open_field")
    pos = m.cell_center(m.start_cells[0])
    d = ray(pos, maze=m, ray_max=3.0)
    assert np.array_equal(d, np.full(N_RAYS, 3.0))


def test_goal_bearing_forward():
    direction = np.array([np.cos(0.7), np.sin(0.7)])
    pos = np.array([5.0, 5.0])
    b = bearing(pos, pos + 3.0 * direction)
    assert np.max(np.abs(b - direction)) <= 1e-12


def test_goal_bearing_lateral_and_norm():
    rng = np.random.default_rng(0)
    for _ in range(20):
        pos = rng.uniform(1, 9, size=2)
        goal = rng.uniform(1, 9, size=2)
        if np.allclose(pos, goal):
            continue
        b = bearing(pos, goal)
        assert abs(np.linalg.norm(b) - 1.0) <= 1e-12
        expected = (goal - pos) / np.linalg.norm(goal - pos)
        assert np.max(np.abs(b - expected)) <= 1e-12


def test_goal_bearing_without_goal_is_zero():
    assert np.array_equal(bearing(np.zeros(2), None), np.zeros(2))


def test_raycast_continuity_under_small_nudges():
    # |d(p + delta) - d(p)| <= L |delta| away from tangency; L = 1/cos(72 deg)
    # for axis-aligned faces and rays at multiples of 18 degrees.
    m = build_maze("c_maze")
    cs = m.cell_size
    rng = np.random.default_rng(1)
    lipschitz = 1.0 / np.cos(np.deg2rad(72.0)) + 0.5
    free = [c for c in m.free_cells()]
    checked = 0
    for _ in range(1000):
        cell = free[int(rng.integers(len(free)))]
        frac = rng.uniform(0.15, 0.85, size=2)
        pos = np.array([(cell[1] + frac[0]) * cs, (cell[0] + frac[1]) * cs])
        delta = rng.standard_normal(2)
        delta *= 1e-6 / np.linalg.norm(delta)
        d0 = ray(pos, m, ray_max=16.0)
        d1 = ray(pos + delta, m, ray_max=16.0)
        for j in range(N_RAYS):
            ang = 2 * np.pi * j / N_RAYS
            hit = pos + d0[j] * np.array([np.cos(ang), np.sin(ang)])
            fx = min(hit[0] % cs, cs - hit[0] % cs)
            fy = min(hit[1] % cs, cs - hit[1] % cs)
            if fx < 1e-3 and fy < 1e-3:
                continue  # corner hit: the contact face may flip
            assert abs(d1[j] - d0[j]) <= lipschitz * 1e-6 + 1e-12
            checked += 1
    assert checked > 10_000


def random_free_positions(maze, rng, n):
    free = maze.free_cells()
    cells = [free[i] for i in rng.integers(len(free), size=n)]
    frac = rng.random((n, 2))
    return [np.array([(c + fx) * maze.cell_size, (r + fy) * maze.cell_size])
            for (r, c), (fx, fy) in zip(cells, frac)]


def test_raycast_bit_identical_to_loop_oracle():
    rng = np.random.default_rng(11)
    checked = 0
    for kind in ("c_maze", "mirrored", "spiral", "open_field"):
        m = build_maze(kind)
        positions = random_free_positions(m, rng, 2500)  # four kinds: the 10,000 checked below
        # faces hit head-on and rays grazing a face line
        positions += [m.cell_center(cell) for cell in m.free_cells()]
        positions += [np.array([(c + 1) * m.cell_size - 1e-9, r * m.cell_size + 1e-9])
                      for r, c in m.free_cells()]
        for pos in positions:
            got = ray(pos, m, 16.0)
            want = raycast_loops(pos, m, 16.0)
            assert got.tobytes() == want.tobytes(), (kind, pos)
            checked += 1
    assert checked >= 10_000


# walls (2, 2) and (2, 4) put collinear faces on y = 2 with a gap between
# them; (2, 4), (3, 5) and (4, 4) touch only at corners, and their sides on
# x = 5 meet end to end although they face opposite ways
GAPS_AND_CORNERS = """\
#########
#S......#
#.#.#...#
#....#..#
#...#...#
#.......#
#########"""


def test_raycast_with_gaps_and_corners_bit_identical_to_loop_oracle():
    m = parse_maze_text(GAPS_AND_CORNERS)
    assert len(m.faces[0]) == 16  # from 40 faces
    positions = random_free_positions(m, np.random.default_rng(13), 3000)
    positions += [m.cell_center(cell) for cell in m.free_cells()]
    for pos in positions:
        assert ray(pos, m, 16.0).tobytes() == raycast_loops(pos, m, 16.0).tobytes(), pos


def test_segment_counts_of_built_in_mazes():
    counts = {kind: len(build_maze(kind).faces[0])
              for kind in ("c_maze", "mirrored", "spiral", "open_field")}
    assert counts == {"c_maze": 8, "mirrored": 8, "spiral": 12, "open_field": 4}


def test_readings_on_wall_lines_and_corners_equal_loop_oracle():
    # a reading from a point on a wall line can be 0.0 or -0.0 depending on
    # which face the minimum meets first, so these compare by value
    zeros = 0
    for m in [build_maze(kind) for kind in ("c_maze", "spiral")] + [
            parse_maze_text(GAPS_AND_CORNERS)]:
        cs = m.cell_size
        points = set()
        for r, c in m.free_cells():
            for dr in (0.0, 0.5, 1.0):
                for dc in (0.0, 0.5, 1.0):
                    if dr != 0.5 or dc != 0.5:  # corners and side midpoints
                        points.add(((c + dc) * cs, (r + dr) * cs))
        for pos in map(np.array, sorted(points)):
            got = ray(pos, m, 16.0)
            assert np.array_equal(got, raycast_loops(pos, m, 16.0)), pos
            zeros += int(np.count_nonzero(got == 0.0))
    assert zeros > 100


def test_faces_do_not_leak_between_mazes():
    # a maze built where a garbage-collected one lived must see its own walls
    rng = np.random.default_rng(4)
    for i in range(200):
        m = build_maze(("c_maze", "spiral")[i % 2])
        pos = random_free_positions(m, rng, 1)[0]
        assert np.array_equal(ray(pos, m, 16.0), raycast_loops(pos, m, 16.0))
        del m
        gc.collect(0)


def test_batched_raycast_and_bearing_rows_equal_single_calls():
    rng = np.random.default_rng(12)
    for kind in ("c_maze", "spiral", "open_field"):
        m = build_maze(kind)
        positions = random_free_positions(m, rng, 40)
        positions += [m.cell_center(cell) for cell in m.free_cells()[:10]]
        for lanes in (1, 3, 16, len(positions)):
            batch = np.array(positions[:lanes])
            rays = raycast(batch, m, 16.0)
            bearings = goal_bearing(batch, m.goal_center)
            assert rays.shape == (lanes, N_RAYS) and bearings.shape == (lanes, 2)
            for pos, ray_row, bearing_row in zip(batch, rays, bearings):
                assert ray_row.tobytes() == ray(pos, m, 16.0).tobytes()
                assert ray_row.tobytes() == raycast_loops(pos, m, 16.0).tobytes()
                assert bearing_row.tobytes() == bearing(pos, m.goal_center).tobytes()
