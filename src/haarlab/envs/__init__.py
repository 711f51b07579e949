from .maze import MazeSpec, build_maze, load_maze_file, parse_maze_text, sample_gather_sites
from .point import EnvConfig, EpisodeBatch, PointEnv
from .raycast import N_RAYS, goal_bearing, raycast
from .tabular import TabularMdp, random_mdp

__all__ = [
    "MazeSpec", "build_maze", "load_maze_file", "parse_maze_text", "sample_gather_sites",
    "EnvConfig", "EpisodeBatch", "PointEnv",
    "N_RAYS", "goal_bearing", "raycast",
    "TabularMdp", "random_mdp",
]
