import glob
import hashlib
import json
import math
import os

import pytest

from haarlab.checkpoint import load_checkpoint
from haarlab.config import ConfigError, ExperimentConfig, load_config, parse_config_text
from haarlab.envs.maze import build_maze
from haarlab.envs.point import EnvConfig
from haarlab.experiment import run_pretrain
from haarlab.hierarchy import skill_length
from haarlab.pretrain import PretrainConfig, fresh_low_policy, open_field_env

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def test_defaults_mirror_reference_table():
    cfg = ExperimentConfig()
    assert cfg.maze == "c_maze"
    assert cfg.gamma == 0.99
    assert cfg.k_0 == 100 and cfg.k_s == 10
    assert cfg.B == 5000 and cfg.N == 300
    assert cfg.max_kl == 0.01
    assert cfg.n_skills == 6


def test_no_anneal_forces_constant_skill_length():
    # the ablation arm is point_maze.cfg with k_0 = k_s, an ordinary haar config
    cfg = load_config(os.path.join(CONFIGS, "point_maze_no_anneal.cfg"))
    assert cfg.algorithm == "haar" and cfg.k_0 == cfg.k_s == 10
    assert {skill_length(cfg.k_0, cfg.k_s, cfg.N, i) for i in range(cfg.N + 1)} == {10}
    base = load_config(os.path.join(CONFIGS, "point_maze.cfg"))
    assert cfg.to_dict() == {**base.to_dict(), "k_0": 10}


def test_validation_errors():
    with pytest.raises(ConfigError):
        ExperimentConfig(algorithm="ppo")
    with pytest.raises(ConfigError):
        ExperimentConfig(N=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(gamma=1.0)
    with pytest.raises(ConfigError, match=r"gamma must lie in \(0, 1\)"):
        ExperimentConfig(gamma=0.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(seeds=())
    with pytest.raises(ConfigError):
        ExperimentConfig(k_0=5, k_s=10)
    with pytest.raises(ConfigError):
        ExperimentConfig(mode="parallel")


def test_unknown_maze_kind_refused_naming_the_kinds():
    with pytest.raises(ConfigError, match=r"unknown maze kind 'hexagon' \(choose from .*c_maze"
                                          r".*, or name a layout file\)"):
        ExperimentConfig(maze="hexagon")
    with pytest.raises(ConfigError, match="hexagon"):
        parse_config_text("maze = hexagon\n")
    assert ExperimentConfig(maze="spiral").build_env().maze.grid == build_maze("spiral").grid


def test_parse_config_text_round_trip():
    text = """
    # experiment
    maze = spiral
    algorithm = haar
    N = 40
    B = 2000
    gamma = 0.95
    seeds = 1, 2, 3
    mode = alternate
    pretrain.iterations = 7
    """
    cfg = parse_config_text(text)
    assert cfg.maze == "spiral"
    assert cfg.N == 40 and cfg.B == 2000
    assert cfg.gamma == 0.95
    assert cfg.seeds == (1, 2, 3)
    assert cfg.mode == "alternate"
    assert cfg.pretrain.iterations == 7


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config_text("learning_rate = 0.1")


def test_parse_rejects_bad_value():
    with pytest.raises(ConfigError):
        parse_config_text("N = ten")
    with pytest.raises(ConfigError):
        parse_config_text("maze c_maze")


@pytest.mark.parametrize("text, lines", [
    ("N = 3\nN = 7\n", "line 2: 'N' repeats line 1"),
    ("pretrain.iterations = 2\n# a comment\n\nk_s = 5\npretrain.iterations = 2\n",
     "line 5: 'pretrain.iterations' repeats line 1"),
])
def test_parse_rejects_repeated_key(text, lines):
    with pytest.raises(ConfigError, match=lines):
        parse_config_text(text)


def test_every_shipped_config_loads():
    paths = sorted(glob.glob(os.path.join(CONFIGS, "*.cfg")))
    names = set(map(os.path.basename, paths))
    assert {"point_maze_no_anneal.cfg", "point_maze_no_trips.cfg"} <= names
    for path in paths:
        load_config(path)


def test_overrides_apply_before_construction():
    # k_s = 200 alone exceeds the default k_0; the override makes it legal
    with pytest.raises(ConfigError, match="k_s cannot exceed k_0"):
        parse_config_text("k_s = 200\n")
    cfg = parse_config_text("k_s = 200\n", k_0="200")
    assert cfg.k_0 == cfg.k_s == 200
    # no field rewrites another: the config keeps the values it was given
    cfg = parse_config_text("algorithm = frozen_skills\nk_0 = 100\nk_s = 10\n", algorithm="haar")
    assert (cfg.algorithm, cfg.k_0, cfg.k_s) == ("haar", 100, 10)
    assert cfg.to_dict()["k_0"] == 100


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
    path.write_text("maze = spiral\nN = 5\nseeds = 4\n")
    cfg = load_config(str(path))
    assert cfg.maze == "spiral"
    assert cfg.build_env().maze.grid == build_maze("spiral").grid
    assert cfg.seeds == (4,)


def test_config_hash_sensitivity():
    a = ExperimentConfig(N=10)
    b = ExperimentConfig(N=11)
    assert a.config_hash() != b.config_hash()
    assert a.config_hash() == ExperimentConfig(N=10).config_hash()


def test_layout_file_hashed_by_its_grid(tmp_path, monkeypatch):
    # the hash used to take the path: a rewritten m.txt kept its hash,
    # while ./m.txt, the same file, got another
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.txt").write_text("#####\n#SG.#\n#####\n")
    first = parse_config_text("maze = m.txt\n").config_hash()
    assert parse_config_text("maze = ./m.txt\n").config_hash() == first
    (tmp_path / "m.txt").write_text("#####\n#S.G#\n#####\n")
    assert parse_config_text("maze = m.txt\n").config_hash() != first
    # a built-in kind is hashed by its name, so no shipped config's hash moved
    for path in sorted(glob.glob(os.path.join(CONFIGS, "*.cfg"))):
        cfg = load_config(path)
        blob = json.dumps(cfg.to_dict(), sort_keys=True).encode()
        assert cfg.config_hash() == hashlib.sha256(blob).hexdigest()[:12], path


def test_flat_trpo_refuses_alternate_mode():
    # flat TRPO has one level, and its runs used to echo a mode they ignored
    with pytest.raises(ConfigError, match="flat_trpo"):
        ExperimentConfig(algorithm="flat_trpo", mode="alternate")
    with pytest.raises(ConfigError, match="flat_trpo"):
        parse_config_text("algorithm = flat_trpo\nmode = alternate\n")


def test_pretrain_n_skills_follows_experiment(tmp_path):
    # the skills are pre-trained for the config's one count, n_skills
    cfg = ExperimentConfig(n_skills=4, pretrain=PretrainConfig(iterations=0))
    segments, metadata = load_checkpoint(run_pretrain(cfg, str(tmp_path))[0])
    want = fresh_low_policy(4, open_field_env(cfg.env_config()), 0)
    assert metadata["n_skills"] == 4
    assert segments["pi_l/mean_net"].tobytes() == want.params.segment("mean_net").tobytes()
    assert "pretrain.n_skills" not in cfg.to_dict()


@pytest.mark.parametrize("text", ["pretrain.n_skills = 3\n",
                                  "n_skills = 4\npretrain.n_skills = 6\n"])
def test_config_file_rejects_pretrain_n_skills_unlike_n_skills(text):
    # the count is said once: pretrain.n_skills is no key, whatever its value
    with pytest.raises(ConfigError, match=r"unknown config key 'pretrain\.n_skills'"):
        parse_config_text(text)
    with pytest.raises(ConfigError, match=r"unknown config key 'pretrain\.n_skills'"):
        parse_config_text(text.replace("= 3", "= 6"))


@pytest.mark.parametrize("kwargs", [{"n_skills": 3}, {"n_skills": 6}])
def test_pretrain_n_skills_unlike_n_skills_rejected_in_python(kwargs):
    # a PretrainConfig holds no count of its own, so none can differ from
    # n_skills: one that differed was once replaced silently
    with pytest.raises(TypeError, match="n_skills"):
        PretrainConfig(**kwargs)


def test_velocity_direction_needs_two_skills():
    with pytest.raises(ConfigError, match="n_skills >= 2"):
        ExperimentConfig(n_skills=1)
    with pytest.raises(ConfigError, match="n_skills >= 2"):
        parse_config_text("n_skills = 1\n")
    # untrained skills need no directions
    assert ExperimentConfig(n_skills=1, pretrain=PretrainConfig(iterations=0)).n_skills == 1
    assert parse_config_text("n_skills = 1\npretrain.iterations = 0\n").n_skills == 1


def test_no_trips_config_turns_trips_off():
    # the no-trips arm is point_maze.cfg's maze with an infinite stumble
    # threshold; run.json echoes it as Infinity, which json reads back
    cfg = load_config(os.path.join(CONFIGS, "point_maze_no_trips.cfg"))
    assert cfg.maze == "c_maze" and cfg.stumble_threshold == math.inf
    assert cfg.env_config().stumble_threshold == math.inf
    echo = json.dumps(cfg.to_dict())
    assert '"stumble_threshold": Infinity' in echo
    assert json.loads(echo) == cfg.to_dict()
    assert ExperimentConfig().env_config().stumble_threshold == 1.5


@pytest.mark.parametrize("text", ["task = point_maze\n", "task = swimmer_maze_lite\n",
                                  "ridge = 1e-5\n", "ridge = 0\n", "maze_file = m.txt\n",
                                  "dt = 0.2\n", "action_scale = 4.0\n", "ray_max = 16.0\n",
                                  "gamma_h = 0.99\n", "gamma_l = 0.99\n"])
def test_task_and_ridge_are_no_keys(text):
    # `maze` names the arena, a kind or a layout file; the value fit's
    # ridge and the point mass's dt, action scale and ray range are
    # constants; `gamma` is the one discount, per low step
    key = text.split()[0]
    with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
        parse_config_text(text)
    assert key not in ExperimentConfig().to_dict()


def test_maze_names_a_layout_file(tmp_path):
    maze = tmp_path / "m.txt"
    maze.write_text("#####\n#S.G#\n#####\n")
    for cfg in (ExperimentConfig(maze=str(maze), cell_size=2.0),
                parse_config_text(f"maze = {maze}\ncell_size = 2.0\n")):
        env = cfg.build_env()
        assert env.maze.grid == ("#####", "#S.G#", "#####")
        assert env.maze.goal_cell == (1, 3) and env.maze.cell_size == 2.0


def test_built_in_kind_wins_over_a_file_of_its_name(tmp_path, monkeypatch):
    # a layout file is resolved from the working directory, but a value
    # that is a kind always builds the kind
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spiral").write_text("#####\n#S.G#\n#####\n")
    maze = parse_config_text("maze = spiral\n").build_env().maze
    assert maze.grid == build_maze("spiral").grid
    file_maze = parse_config_text("maze = ./spiral\n").build_env().maze
    assert file_maze.grid == ("#####", "#S.G#", "#####")


@pytest.mark.parametrize("layout", [None, "#####\n#S.X#\n#####\n", "#####\n#..G#\n#####\n"],
                         ids=["missing", "bad_character", "no_start"])
def test_missing_or_malformed_layout_file_refused(tmp_path, layout):
    # refused when the config is built, before any run directory exists
    path = tmp_path / "m.txt"
    if layout is not None:
        path.write_text(layout)
    error = "unknown maze kind .* or name a layout file" if layout is None else "maze"
    with pytest.raises(ConfigError, match=error):
        parse_config_text(f"maze = {path}\n")


def test_pretrain_config_validation():
    with pytest.raises(ValueError):
        PretrainConfig(iterations=-1)
    PretrainConfig(iterations=0)


@pytest.mark.parametrize("text", ["pretrain.proxy = random_init\n",
                                  "pretrain.gamma = 0.99\n",
                                  "pretrain.hidden = 32, 32\n"])
def test_removed_pretrain_keys_refused(text):
    # pretraining is set by its budget alone: zero iterations are the
    # untrained-skills arm, and the discount and the net shape are fixed
    key = text.split()[0]
    with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
        parse_config_text(text)
    assert key not in ExperimentConfig().to_dict()


@pytest.mark.parametrize("text", ["pretrain.episode_steps = 0", "pretrain.episode_steps = -3",
                                  "pretrain.gamma = 1.5", "pretrain.gamma = 1.0",
                                  "pretrain.gamma = 0.0"])
def test_config_file_rejects_bad_pretrain_horizon(text):
    # episode_steps = 0 used to make pre-training loop forever; gamma is
    # no key now, so any pretrain.gamma line is refused
    with pytest.raises(ConfigError):
        parse_config_text(text)


def test_pretrain_config_rejects_bad_horizon():
    with pytest.raises(ValueError):
        PretrainConfig(episode_steps=0)
    PretrainConfig(episode_steps=1)


@pytest.mark.parametrize("text", ["max_kl = -1", "max_kl = 0", "max_kl = nan", "max_kl = inf",
                                  "ridge = -1", "ridge = nan",
                                  "cell_size = 0", "cell_size = -4", "cell_size = nan"])
def test_config_file_rejects_bad_max_kl_ridge_and_cell_size(text):
    # each used to fail only after a batch was collected, crash, or run on;
    # ridge is no key now, so any ridge line is refused
    with pytest.raises(ConfigError, match=text.split()[0]):
        parse_config_text(text)


BAD_PHYSICS = ["stumble_threshold = nan", "v_max = nan", "v_max = -1",
               "stumble_threshold = 0", "stumble_threshold = -1", "stumble_threshold = -inf"]
# the point mass's constants (envs.point.DT, ACTION_SCALE, RAY_MAX) are no keys
FIXED_PHYSICS = ["ray_max = 0", "ray_max = -1", "action_scale = nan", "action_scale = -4",
                 "dt = 0", "dt = inf"]


@pytest.mark.parametrize("text", BAD_PHYSICS + FIXED_PHYSICS)
def test_config_file_rejects_bad_physics(text):
    # each used to crash mid-run, fail only when the env was built, or
    # train on a silently changed rule (a NaN threshold never trips); a
    # line that sets a constant is refused as an unknown key
    with pytest.raises(ConfigError, match=text.split()[0]):
        parse_config_text(text)


@pytest.mark.parametrize("text", BAD_PHYSICS)
def test_env_config_rejects_bad_physics(text):
    # an env built without an ExperimentConfig gets the same checks
    name, value = (part.strip() for part in text.split("="))
    with pytest.raises(ValueError, match=name):
        EnvConfig(**{name: float(value)})


def test_boundary_and_small_positive_values_accepted():
    cfg = ExperimentConfig(max_kl=1e-6, cell_size=0.5, stumble_threshold=1e-9)
    assert (cfg.max_kl, cfg.cell_size, cfg.stumble_threshold) == (1e-6, 0.5, 1e-9)
    # the stumble threshold alone may be infinite: no action trips the agent
    assert parse_config_text("stumble_threshold = inf\n").stumble_threshold == math.inf


@pytest.mark.parametrize("text", ["tau = nan", "tau = inf", "seeds = -1", "seeds = 0, 0",
                                  "pretrain.hidden = 0"])
def test_config_file_rejects_bad_tau_seeds_and_hidden(text):
    # each used to pass the load: a NaN tau quietly became the default
    # schedule (tau is now no key at all, since k_0, k_s and N set the one
    # schedule), the rest failed after the run directory was written (the
    # net shape is now fixed, so pretrain.hidden is no key either), and
    # duplicate seeds made two runs share seed_0/
    with pytest.raises(ConfigError, match=text.split()[0]):
        parse_config_text(text)
