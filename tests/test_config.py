import glob
import math
import os

import pytest

from haarlab.config import ConfigError, ExperimentConfig, load_config, parse_config_text
from haarlab.envs.point import EnvConfig
from haarlab.pretrain import PretrainConfig


def test_defaults_mirror_reference_table():
    cfg = ExperimentConfig()
    assert cfg.task == "point_maze"
    assert cfg.gamma_h == 0.99 and cfg.gamma_l == 0.99
    assert cfg.k_0 == 100 and cfg.k_s == 10
    assert cfg.B == 5000 and cfg.N == 300
    assert cfg.max_kl == 0.01
    assert cfg.pretrain.n_skills == 6


def test_no_anneal_forces_constant_skill_length():
    cfg = ExperimentConfig(algorithm="haar_no_anneal", k_0=100, k_s=10)
    assert cfg.k_0 == cfg.k_s == 10
    assert cfg.annealing_tau == 0.0


def test_default_tau_fully_anneals_halfway():
    cfg = ExperimentConfig(N=300, k_0=100, k_s=10)
    tau = cfg.annealing_tau
    k_half = cfg.k_0 * math.exp(-tau * (cfg.N / 2))
    assert abs(k_half - cfg.k_s) < 1e-9


def test_validation_errors():
    with pytest.raises(ConfigError):
        ExperimentConfig(task="mujoco_ant")
    with pytest.raises(ConfigError):
        ExperimentConfig(algorithm="ppo")
    with pytest.raises(ConfigError):
        ExperimentConfig(N=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(gamma_h=1.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(seeds=())
    with pytest.raises(ConfigError):
        ExperimentConfig(k_0=5, k_s=10)
    with pytest.raises(ConfigError):
        ExperimentConfig(mode="parallel")


def test_unknown_maze_kind_refused_naming_the_kinds():
    with pytest.raises(ConfigError, match=r"unknown maze kind 'hexagon' \(choose from .*c_maze"):
        ExperimentConfig(maze="hexagon")
    with pytest.raises(ConfigError, match="hexagon"):
        parse_config_text("maze = hexagon\n")
    assert ExperimentConfig(maze="spiral").build_env().maze.kind == "spiral"


def test_parse_config_text_round_trip():
    text = """
    # experiment
    task = point_maze
    algorithm = haar
    N = 40
    B = 2000
    gamma_h = 0.95
    seeds = 1, 2, 3
    mode = alternate
    pretrain.iterations = 7
    pretrain.proxy = random_init
    """
    cfg = parse_config_text(text)
    assert cfg.N == 40 and cfg.B == 2000
    assert cfg.gamma_h == 0.95
    assert cfg.seeds == (1, 2, 3)
    assert cfg.mode == "alternate"
    assert cfg.pretrain.iterations == 7
    assert cfg.pretrain.proxy == "random_init"


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config_text("learning_rate = 0.1")


def test_parse_rejects_bad_value():
    with pytest.raises(ConfigError):
        parse_config_text("N = ten")
    with pytest.raises(ConfigError):
        parse_config_text("task point_maze")


@pytest.mark.parametrize("text, lines", [
    ("N = 3\nN = 7\n", "line 2: 'N' repeats line 1"),
    ("pretrain.iterations = 2\n# a comment\n\nk_s = 5\npretrain.iterations = 2\n",
     "line 5: 'pretrain.iterations' repeats line 1"),
])
def test_parse_rejects_repeated_key(text, lines):
    with pytest.raises(ConfigError, match=lines):
        parse_config_text(text)


def test_every_shipped_config_loads():
    root = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
    paths = sorted(glob.glob(os.path.join(root, "*.cfg")))
    assert paths
    for path in paths:
        load_config(path)


def test_overrides_apply_before_construction():
    text = "algorithm = haar_no_anneal\nk_0 = 100\nk_s = 10\n"
    assert parse_config_text(text).k_0 == 10
    cfg = parse_config_text(text, algorithm="haar")
    assert cfg.k_0 == 100 and cfg.annealing_tau > 0.0
    pinned = parse_config_text("k_0 = 100\nk_s = 10\n", no_annealing=True)
    assert pinned.k_0 == 10 and pinned.annealing_tau == 0.0


def test_string_overrides_parse_as_file_lines(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("N = 3\nseeds = 4\n")
    cfg = load_config(str(path), seeds="0,1", N="5")
    assert cfg.seeds == (0, 1) and cfg.N == 5
    with pytest.raises(ConfigError, match="seeds"):
        load_config(str(path), seeds="x")
    with pytest.raises(ConfigError, match="learning_rate"):
        load_config(str(path), learning_rate="0.1")


def test_load_config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("task = point_gather\nN = 5\nseeds = 4\n")
    cfg = load_config(str(path))
    assert cfg.task == "point_gather"
    assert cfg.maze_kind() == "gather"
    assert cfg.seeds == (4,)


def test_config_hash_sensitivity():
    a = ExperimentConfig(N=10)
    b = ExperimentConfig(N=11)
    assert a.config_hash() != b.config_hash()
    assert a.config_hash() == ExperimentConfig(N=10).config_hash()


def test_pretrain_n_skills_follows_experiment():
    cfg = ExperimentConfig(n_skills=4)
    assert cfg.pretrain.n_skills == 4


@pytest.mark.parametrize("text", ["pretrain.n_skills = 3\n",
                                  "n_skills = 4\npretrain.n_skills = 6\n"])
def test_config_file_rejects_pretrain_n_skills_unlike_n_skills(text):
    with pytest.raises(ConfigError, match=r"pretrain\.n_skills = \d+ differs from n_skills = \d+"):
        parse_config_text(text)


@pytest.mark.parametrize("kwargs", [{"pretrain": PretrainConfig(n_skills=3)},
                                    {"n_skills": 4, "pretrain": PretrainConfig()}])
def test_pretrain_n_skills_unlike_n_skills_rejected_in_python(kwargs):
    # the same rule as the config file's: a config built in Python used to
    # replace the pretrain count silently
    with pytest.raises(ConfigError, match=r"pretrain\.n_skills = \d+ differs from n_skills = \d+"):
        ExperimentConfig(**kwargs)
    n = kwargs.get("n_skills", 6)
    assert ExperimentConfig(n_skills=n, pretrain=PretrainConfig(n_skills=n)).pretrain.n_skills == n


def test_config_file_pretrain_n_skills_may_repeat_the_one_in_effect():
    cfg = parse_config_text("pretrain.n_skills = 4\n", n_skills=4)
    assert cfg.pretrain.n_skills == 4
    assert cfg.config_hash() == parse_config_text("", n_skills=4).config_hash()


def test_swimmer_variant_disables_stumble():
    assert ExperimentConfig(task="swimmer_maze_lite").env_config().stumble_enabled is False
    assert ExperimentConfig(task="point_maze").env_config().stumble_enabled is True


def test_maze_file_override(tmp_path):
    maze = tmp_path / "m.txt"
    maze.write_text("#####\n#S.G#\n#####\n")
    cfg = ExperimentConfig(maze_file=str(maze))
    env = cfg.build_env()
    assert env.maze.goal_cell == (1, 3)


def test_pretrain_config_validation():
    with pytest.raises(ValueError):
        PretrainConfig(proxy="entropy")
    with pytest.raises(ValueError):
        PretrainConfig(n_skills=1)
    # random_init does not need multiple directions
    PretrainConfig(n_skills=1, proxy="random_init")


@pytest.mark.parametrize("text", ["pretrain.episode_steps = 0", "pretrain.episode_steps = -3",
                                  "pretrain.gamma = 1.5", "pretrain.gamma = 1.0",
                                  "pretrain.gamma = 0.0"])
def test_config_file_rejects_bad_pretrain_horizon(text):
    # episode_steps = 0 used to make pre-training loop forever
    with pytest.raises(ConfigError):
        parse_config_text(text)


def test_pretrain_config_rejects_bad_horizon():
    with pytest.raises(ValueError):
        PretrainConfig(episode_steps=0)
    with pytest.raises(ValueError):
        PretrainConfig(gamma=1.5)
    PretrainConfig(episode_steps=1, gamma=0.5)


@pytest.mark.parametrize("text", ["max_kl = -1", "max_kl = 0", "max_kl = nan", "max_kl = inf",
                                  "ridge = -1", "ridge = nan",
                                  "cell_size = 0", "cell_size = -4", "cell_size = nan"])
def test_config_file_rejects_bad_max_kl_ridge_and_cell_size(text):
    # each used to fail only after a batch was collected, crash, or run on
    with pytest.raises(ConfigError, match=text.split()[0]):
        parse_config_text(text)


BAD_PHYSICS = ["ray_max = 0", "ray_max = -1", "stumble_threshold = nan", "action_scale = nan",
               "action_scale = -4", "dt = 0", "dt = inf", "v_max = nan", "v_max = -1"]


@pytest.mark.parametrize("text", BAD_PHYSICS)
def test_config_file_rejects_bad_physics(text):
    # each used to crash mid-run, fail only when the env was built, or
    # train on a silently changed rule (a NaN threshold never trips)
    with pytest.raises(ConfigError, match=text.split()[0]):
        parse_config_text(text)


@pytest.mark.parametrize("text", BAD_PHYSICS)
def test_env_config_rejects_bad_physics(text):
    # an env built without an ExperimentConfig gets the same checks
    name, value = (part.strip() for part in text.split("="))
    with pytest.raises(ValueError, match=name):
        EnvConfig(**{name: float(value)})


def test_boundary_ridge_and_small_positive_values_accepted():
    cfg = ExperimentConfig(max_kl=1e-6, ridge=0.0, cell_size=0.5)
    assert (cfg.max_kl, cfg.ridge, cfg.cell_size) == (1e-6, 0.0, 0.5)


@pytest.mark.parametrize("text", ["tau = nan", "tau = inf", "seeds = -1", "seeds = 0, 0",
                                  "pretrain.hidden = 0"])
def test_config_file_rejects_bad_tau_seeds_and_hidden(text):
    # each used to pass the load: a NaN tau quietly became the default
    # schedule, the rest failed after the run directory was written, and
    # duplicate seeds made two runs share seed_0/
    with pytest.raises(ConfigError, match=text.split()[0]):
        parse_config_text(text)
