"""Experiment configuration: typed fields and the plain text
`key = value` config file format.

File format: one `key = value` pair per line; `#` starts a comment;
blank lines ignored. Keys are the field names below (hyperparameters
use the conventional short names N, B, k_0, k_s, T).
Pre-training fields nest as `pretrain.<field>`. `seeds` takes a comma
separated integer list. Unknown and repeated keys are rejected.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields

from .envs.maze import LAYOUTS, build_maze
from .envs.point import EnvConfig, PointEnv
from .pretrain import PretrainConfig

ALGORITHMS = ("haar", "flat_trpo", "frozen_skills")
MODES = ("concurrent", "alternate")


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    algorithm: str = "haar"
    N: int = 300                # training iterations
    B: int = 5000               # low-level steps collected per iteration
    gamma: float = 0.99         # discount per low step; a k-step segment's is gamma ** k
    k_0: int = 100              # initial skill length (k_0 = k_s holds it fixed)
    k_s: int = 10               # shortest skill length, reached halfway through training
    T: int = 500                # max low steps per episode
    n_skills: int = 6
    seeds: tuple[int, ...] = (0,)
    mode: str = "concurrent"
    max_kl: float = 0.01
    maze: str = "c_maze"        # the arena: a built-in kind (envs.maze.LAYOUTS) or a layout file
    cell_size: float = 4.0
    v_max: float = 2.0
    stumble_threshold: float = 1.5  # inf: the agent never trips
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)  # for n_skills skills

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r} (choose from {ALGORITHMS})")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r} (choose from {MODES})")
        if self.algorithm == "flat_trpo" and self.mode != "concurrent":
            raise ConfigError("flat_trpo has one level to update: it runs in concurrent mode only")
        for name in ("N", "B", "k_0", "k_s", "T", "n_skills"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if not 0.0 < self.gamma < 1.0:
            raise ConfigError("gamma must lie in (0, 1)")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if min(self.seeds) < 0:
            raise ConfigError("seeds must be >= 0")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be distinct: each one writes its own seed_<n> directory")
        for name in ("max_kl", "cell_size"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ConfigError(f"{name} must be finite and > 0")
        if self.k_s > self.k_0:
            raise ConfigError("k_s cannot exceed k_0")
        if self.pretrain.iterations > 0 and self.n_skills < 2:
            raise ConfigError("pre-training needs n_skills >= 2 directions")
        try:
            self.build_env()  # checks the maze and the physics
        except (OSError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    def env_config(self) -> EnvConfig:
        return EnvConfig(v_max=self.v_max, stumble_threshold=self.stumble_threshold)

    def build_env(self) -> PointEnv:
        return PointEnv(build_maze(self.maze, self.cell_size), self.env_config())

    def to_dict(self) -> dict:
        return {key: _plain(getattr(getattr(self, name), sub) if sub else getattr(self, name))
                for key, (name, sub, _) in _field_types().items()}

    def config_hash(self) -> str:
        values = self.to_dict()  # a layout file is hashed by its grid, not its path
        if self.maze not in LAYOUTS:
            values["maze"] = build_maze(self.maze).grid
        blob = json.dumps(values, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


def _plain(v):
    if isinstance(v, tuple):
        return list(v)
    return v


def _field_types() -> dict[str, tuple[str, str, str]]:
    """Each config key -> (its ExperimentConfig field, the PretrainConfig
    field under it or "", its annotation). The one place that nests the
    pre-training fields as pretrain.<field>."""
    types = {}
    for f in fields(ExperimentConfig):
        if f.name == "pretrain":
            for pf in fields(PretrainConfig):
                types[f"pretrain.{pf.name}"] = (f.name, pf.name, pf.type)
        else:
            types[f.name] = (f.name, "", f.type)
    return types


def _convert(raw: str, typ: str):
    raw = raw.strip()
    if typ == "tuple[int, ...]":
        if not raw:
            return ()
        return tuple(int(part.strip()) for part in raw.split(","))
    if typ in ("int",):
        return int(raw)
    if typ in ("float",):
        return float(raw)
    return raw


def _value(key: str, raw, types: dict, where: str):
    """raw as the value of a known key; a string is parsed as a file
    line's value is. where prefixes the error message."""
    if key not in types:
        raise ConfigError(f"{where}unknown config key {key!r}")
    if not isinstance(raw, str):
        return raw
    try:
        return _convert(raw, types[key][2])
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}bad value for {key}: {exc}") from exc


def parse_config_text(text: str, **overrides) -> ExperimentConfig:
    """The config the text describes; `overrides` (field name -> value,
    a string parsed as a file line's value is) replace its values before
    the config is built, so the rules applied at construction see the
    final values."""
    types = _field_types()
    values: dict = {}
    seen: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key in seen:
            raise ConfigError(f"line {lineno}: {key!r} repeats line {seen[key]}")
        values[key] = _value(key, raw, types, f"line {lineno}: ")
        seen[key] = lineno
    for key, raw in overrides.items():
        values[key] = _value(key, raw, types, "override: ")
    top, pre = {}, {}
    for key, value in values.items():
        name, sub, _ = types[key]
        (pre if sub else top)[sub or name] = value
    try:
        if pre:
            top["pretrain"] = PretrainConfig(**pre)
        return ExperimentConfig(**top)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str, **overrides) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), **overrides)
