import pytest

from haarlab.envs.maze import (GOAL, LAYOUTS, MazeSpec, build_maze, n_connected_regions,
                               parse_maze_text)


def test_c_maze_layout():
    m = build_maze("c_maze")
    assert m.grid == tuple(LAYOUTS["c_maze"].splitlines())
    assert m.goal_cell == (3, 1)
    assert set(m.start_cells) == {(1, 1), (1, 2)}
    assert m.cell_size == 4.0


def test_mirrored_is_reflection():
    base = build_maze("c_maze")
    mirrored = build_maze("mirrored")
    rows, w = base.walls.shape
    for r in range(rows):
        for c in range(w):
            assert mirrored.grid[r][c] == base.grid[r][w - 1 - c]


@pytest.mark.parametrize("kind", ["c_maze", "mirrored", "spiral"])
def test_mazes_have_path_from_start_to_goal(kind):
    # every free cell, the start and goal cells among them, is one region
    m = build_maze(kind)
    free = m.free_cells()
    assert m.goal_cell in free and set(m.start_cells) <= set(free)
    assert n_connected_regions(free) == 1


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        build_maze("hexagon")


def test_boundary_must_be_walled():
    with pytest.raises(ValueError):
        parse_maze_text("###\n#S.\n###")


def test_single_start_region_required():
    with pytest.raises(ValueError):
        parse_maze_text("#####\n#S.S#\n#####")
    # adjacent start cells are one region
    m = parse_maze_text("#####\n#SS.#\n#####")
    assert len(m.start_cells) == 2


def test_goal_rules_per_kind():
    # the mazes have one goal and the arenas none: a fact of the layout
    # table, which MazeSpec does not re-check per kind
    assert {kind: text.count(GOAL) for kind, text in LAYOUTS.items()} == {
        "c_maze": 1, "mirrored": 1, "spiral": 1, "open_field": 0}
    # any layout may hold at most one goal, whatever its kind
    with pytest.raises(ValueError, match="at most one goal"):
        MazeSpec(tuple("######,#SGG.#,######".split(",")))
    assert MazeSpec(tuple("#####,#S..#,#####".split(","))).goal_cell is None


def test_load_maze_file(tmp_path):
    path = tmp_path / "maze.txt"
    path.write_text("#####\n#S.G#\n#####\n")
    m = build_maze(str(path), cell_size=2.0)
    assert m.grid == ("#####", "#S.G#", "#####") and m.goal_cell == (1, 3)
    assert m.cell_size == 2.0
    assert m.cell_center((1, 1)).tolist() == [3.0, 3.0]


def test_open_field_has_single_center_start():
    m = build_maze("open_field")
    assert len(m.start_cells) == 1
    r, c = m.start_cells[0]
    rows, cols = m.walls.shape
    assert r == rows // 2 and c == cols // 2
