"""Grid mazes built from uniform square blocks.

Layout text format (one character per cell, one row per line):
    '#' wall, '.' free, 'S' start cell, 'G' goal cell.
The boundary must be fully walled. Cell (row r, col c) spans the world
rectangle [c*cell_size, (c+1)*cell_size] x [r*cell_size, (r+1)*cell_size].
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .raycast import face_table

WALL, FREE, START, GOAL = "#", ".", "S", "G"

C_MAZE = """\
#######
#SS...#
#####.#
#G....#
#######"""

SPIRAL = """\
#######
#S....#
#####.#
#..G#.#
#.###.#
#.....#
#######"""

OPEN_FIELD = """\
###############
#.............#
#.............#
#.............#
#.............#
#.............#
#.............#
#......S......#
#.............#
#.............#
#.............#
#.............#
#.............#
#.............#
###############"""

# Built-in layouts by kind; "mirrored" is the left-right reflection of c_maze.
LAYOUTS = {"c_maze": C_MAZE,
           "mirrored": "\n".join(row[::-1] for row in C_MAZE.splitlines()),
           "spiral": SPIRAL, "open_field": OPEN_FIELD}


@dataclass
class MazeSpec:
    grid: tuple[str, ...]
    cell_size: float = 4.0
    walls: np.ndarray = field(init=False, repr=False)
    start_cells: tuple[tuple[int, int], ...] = field(init=False)
    goal_cell: tuple[int, int] | None = field(init=False)
    faces: tuple[np.ndarray, ...] = field(init=False, repr=False)  # wall segments, raycast.face_table
    open_cells: frozenset[tuple[int, int]] = field(init=False, repr=False)  # (row, col) not walled

    def __post_init__(self):
        rows = len(self.grid)
        if rows < 3 or any(len(r) != len(self.grid[0]) for r in self.grid):
            raise ValueError("maze grid must be rectangular with at least 3 rows")
        cols = len(self.grid[0])
        bad = set("".join(self.grid)) - {WALL, FREE, START, GOAL}
        if bad:
            raise ValueError(f"unknown maze characters: {sorted(bad)}")
        walls = np.zeros((rows, cols), dtype=bool)
        starts, goals = [], []
        for r, line in enumerate(self.grid):
            for c, ch in enumerate(line):
                if ch == WALL:
                    walls[r, c] = True
                elif ch == START:
                    starts.append((r, c))
                elif ch == GOAL:
                    goals.append((r, c))
        if not (walls[0].all() and walls[-1].all() and walls[:, 0].all() and walls[:, -1].all()):
            raise ValueError("maze boundary must be fully walled")
        if not starts:
            raise ValueError("maze needs at least one start cell")
        if n_connected_regions(starts) != 1:
            raise ValueError("start cells must form exactly one connected region")
        if len(goals) > 1:
            raise ValueError("at most one goal cell is supported")
        self.walls = walls
        self.start_cells = tuple(starts)
        self.goal_cell = goals[0] if goals else None
        self.faces = face_table(walls, self.cell_size)
        self.open_cells = frozenset(self.free_cells())

    def cell_center(self, cell: tuple[int, int]) -> np.ndarray:
        r, c = cell
        return np.array([(c + 0.5) * self.cell_size, (r + 0.5) * self.cell_size])

    @property
    def goal_center(self) -> np.ndarray | None:
        return None if self.goal_cell is None else self.cell_center(self.goal_cell)

    def is_wall_cell(self, r: int, c: int) -> bool:
        """True for a wall cell and for any cell outside the grid."""
        return (r, c) not in self.open_cells

    def free_cells(self) -> list[tuple[int, int]]:
        rs, cs = np.nonzero(~self.walls)
        return list(zip(rs.tolist(), cs.tolist()))


def n_connected_regions(cells: list[tuple[int, int]]) -> int:
    remaining = set(cells)
    regions = 0
    while remaining:
        regions += 1
        stack = [remaining.pop()]
        while stack:
            r, c = stack.pop()
            for nb in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
                if nb in remaining:
                    remaining.remove(nb)
                    stack.append(nb)
    return regions


def parse_maze_text(text: str, cell_size: float = 4.0) -> MazeSpec:
    rows = tuple(line for line in text.strip().splitlines())
    return MazeSpec(rows, cell_size=cell_size)


def build_maze(maze: str, cell_size: float = 4.0) -> MazeSpec:
    """The built-in layout LAYOUTS[maze] when `maze` is a kind, else the
    layout file at the path `maze` (from the working directory)."""
    if maze in LAYOUTS:
        return parse_maze_text(LAYOUTS[maze], cell_size)
    if not os.path.isfile(maze):
        raise ValueError(f"unknown maze kind {maze!r} (choose from {tuple(LAYOUTS)}, "
                         "or name a layout file)")
    with open(maze, "r", encoding="utf-8") as fh:
        return parse_maze_text(fh.read(), cell_size)

