"""Training, transfer, and reporting runs with seeded determinism.

Every run writes one directory per seed:

    metrics.csv       per-iteration training metrics (deterministic:
                      identical bytes for identical config, seed and
                      BLAS thread count; the wall_time_s column is
                      reserved and always 0.0, measured timing lives
                      in timing.csv / run.json)
    diagnostics.csv   per-update trust-region audit rows
    timing.csv        measured per-iteration wall time (not covered by
                      the determinism contract)
    trajectories.csv  post-training traced episodes (episode, step, x,
                      y, skill)
    checkpoint.bin    final parameters of all policies
    run.json          config echo, config hash, seed, file index

Seeds are independent: they may run in parallel processes without
changing any output byte.
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Callable

import numpy as np

from .checkpoint import CheckpointError, atomic_open, load_checkpoint, save_checkpoint
from .config import ConfigError, ExperimentConfig
from .hierarchy import (SkillSchedule, TrainState, discounted_returns, fit_value_on_scaled,
                        haar_iteration)
from .nets import MlpSpec
from .policies import CategoricalPolicy, GaussianPolicy
from .pretrain import fresh_low_policy, pretrain_skills
from .rollout import LANES, run_lanes
from .trpo import AdvantageBatch, TrpoConfig, TrpoDiagnostics, trpo_update

HIGH_INIT_STREAM = 0x12
FLAT_INIT_STREAM = 0x13
TRACE_STREAM = 0x7A

METRIC_COLUMNS = ("iteration", "low_steps_total", "k", "success_rate", "mean_return",
                  "high_kl", "low_kl", "high_surr_improve", "low_surr_improve",
                  "wall_time_s")
DIAG_COLUMNS = ("iteration", "level", "kl", "surrogate_before", "surrogate_after",
                "backtracks", "accepted")
TRACE_EPISODES = 10


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "True" if value else "False"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def fresh_high_policy(cfg: ExperimentConfig, env, seed: int) -> CategoricalPolicy:
    rng = np.random.default_rng(np.random.SeedSequence((seed, HIGH_INIT_STREAM)))
    return CategoricalPolicy(MlpSpec(env.high_obs_dim, (32, 32), cfg.n_skills), rng,
                             input_scale=env.high_obs_scale)


def fresh_flat_policy(cfg: ExperimentConfig, env, seed: int) -> GaussianPolicy:
    rng = np.random.default_rng(np.random.SeedSequence((seed, FLAT_INIT_STREAM)))
    return GaussianPolicy(MlpSpec(env.high_obs_dim, (32, 32), 2), rng,
                          input_scale=env.high_obs_scale)


def policy_segments(**policies) -> dict[str, np.ndarray]:
    """{"<name>/<segment>": values} for each segment of each name=policy."""
    return {f"{name}/{seg}": policy.params.segment(seg).copy()
            for name, policy in policies.items() for seg in policy.params.layout}


def load_policy_segments(path: str, **policies) -> dict:
    """Load what policy_segments wrote into each name=policy; returns the metadata."""
    segments, metadata = load_checkpoint(path)
    for name, policy in policies.items():
        for seg, (_, want) in policy.params.layout.items():
            key = f"{name}/{seg}"
            arr = segments.get(key)
            if arr is None:
                raise CheckpointError(f"checkpoint {path} lacks segment {key!r}")
            if arr.size != want:
                raise CheckpointError(
                    f"segment {key!r} has {arr.size} values, expected {want}: "
                    "checkpoint and config dimensions do not match")
            policy.params.set_segment(seg, arr)
    return metadata


@dataclass
class RunRecord:
    directory: str
    config_hash: str
    seed: int
    metrics_path: str
    checkpoint_path: str


class _CsvSink:
    def __init__(self, path: str, columns):
        self._fh = open(path, "w", newline="")
        self._writer = csv.writer(self._fh)
        self._writer.writerow(columns)

    def row(self, values):
        self._writer.writerow([_fmt(v) for v in values])

    def close(self):
        self._fh.close()


def _trace_trajectories(path: str, env, trace_policy, seed: int,
                        episodes=range(TRACE_EPISODES)):
    """Simulate fresh post-training episodes and dump positions.

    Each episode gets its own stream and a fresh policy from
    trace_policy(), so it runs the same alone as after the others.
    """
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("episode", "step", "x", "y", "skill"))
        for ep in episodes:
            rng = np.random.default_rng(np.random.SeedSequence((seed, TRACE_STREAM, ep)))
            act_fn = trace_policy()
            state, obs = env.reset(rng)
            step = 0
            writer.writerow((ep, step, _fmt(state.agent.position[0]),
                             _fmt(state.agent.position[1]), -1))
            done = False
            while not done:
                action, skill = act_fn(obs, rng)
                state, obs, _, done, _ = env.step(state, action)
                step += 1
                writer.writerow((ep, step, _fmt(state.agent.position[0]),
                                 _fmt(state.agent.position[1]), skill))


@dataclass
class _Algorithm:
    """What the run loop needs from one training algorithm."""
    # (iteration, low steps so far) -> (metrics, [(level, diagnostics)])
    iterate: Callable[[int, int], tuple[dict, list[tuple[str, TrpoDiagnostics]]]]
    segments: Callable[[], dict[str, np.ndarray]]  # checkpoint contents after training
    metadata: dict                                 # checkpoint metadata beyond the shared keys
    trace_policy: Callable[[], Callable]           # a fresh (obs, rng) -> (action, skill)
                                                   # for each trace episode


def run_single_seed(cfg: ExperimentConfig, seed: int, out_dir: str,
                    skills_checkpoint: str | None = None,
                    transfer: str | None = None,
                    source_checkpoint: str | None = None,
                    log=None) -> RunRecord:
    """Train one seed and persist its artifacts under out_dir/seed_<n>.

    log, when given, is called once per iteration after that
    iteration's rows are written. run.json, renamed into place last,
    marks a finished run.
    """
    run_dir = os.path.join(out_dir, f"seed_{seed}")
    os.makedirs(run_dir, exist_ok=True)
    if os.path.exists(os.path.join(run_dir, "run.json")):  # it would mark this run finished
        os.remove(os.path.join(run_dir, "run.json"))
    t0 = time.perf_counter()
    env = cfg.build_env()
    if cfg.algorithm == "flat_trpo":
        algo = _flat(cfg, env, seed)
    else:
        algo = _hierarchical(cfg, env, seed, skills_checkpoint, transfer, source_checkpoint)

    metrics = _CsvSink(os.path.join(run_dir, "metrics.csv"), METRIC_COLUMNS)
    diags = _CsvSink(os.path.join(run_dir, "diagnostics.csv"), DIAG_COLUMNS)
    timing = _CsvSink(os.path.join(run_dir, "timing.csv"), ("iteration", "wall_time_s"))
    final_success = 0.0
    low_steps = 0
    try:
        for it in range(cfg.N):
            t_it = time.perf_counter()
            m, updates = algo.iterate(it, low_steps)
            wall = time.perf_counter() - t_it
            metrics.row([m[c] for c in METRIC_COLUMNS[:-1]] + [0.0])  # wall_time_s: reserved
            for level, diag in updates:
                diags.row([m["iteration"], level, diag.kl, diag.surrogate_before,
                           diag.surrogate_after, diag.backtracks, diag.accepted])
            timing.row([m["iteration"], wall])
            final_success = m["success_rate"]
            low_steps = m["low_steps_total"]
            if log:
                log(f"iter {it + 1}/{cfg.N} k={m['k']} "
                    f"success={m['success_rate']:.2f} return={m['mean_return']:.1f}")
    finally:
        metrics.close()
        diags.close()
        timing.close()

    save_checkpoint(os.path.join(run_dir, "checkpoint.bin"), algo.segments(),
                    metadata={"algorithm": cfg.algorithm, "task": cfg.task, "seed": seed,
                              "config_hash": cfg.config_hash(), **algo.metadata})
    _trace_trajectories(os.path.join(run_dir, "trajectories.csv"), env, algo.trace_policy, seed)
    payload = {
        "config": cfg.to_dict(),
        "config_hash": cfg.config_hash(),
        "seed": seed,
        "transfer": transfer or "",
        "wall_time_total_s": time.perf_counter() - t0,
        "final_success_rate": final_success,
        "total_low_steps": low_steps,
        "metrics": "metrics.csv",
        "diagnostics": "diagnostics.csv",
        "checkpoint": "checkpoint.bin",
        "trajectories": "trajectories.csv",
    }
    with atomic_open(os.path.join(run_dir, "run.json")) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    return RunRecord(run_dir, cfg.config_hash(), seed,
                     os.path.join(run_dir, "metrics.csv"),
                     os.path.join(run_dir, "checkpoint.bin"))


def _hierarchical(cfg, env, seed, skills_checkpoint, transfer, source_checkpoint) -> _Algorithm:
    pi_h = fresh_high_policy(cfg, env, seed)
    pi_l = fresh_low_policy(cfg.pretrain, env, seed)
    if transfer in ("both", "low_only"):
        if not source_checkpoint:
            raise ConfigError("transfer runs need a source checkpoint")
        donors = {"pi_l": pi_l, "pi_h": pi_h} if transfer == "both" else {"pi_l": pi_l}
        load_policy_segments(source_checkpoint, **donors)
    elif transfer not in (None, "none"):
        raise ConfigError(f"unknown transfer mode {transfer!r}")
    elif skills_checkpoint:
        load_policy_segments(skills_checkpoint, pi_l=pi_l)
    elif cfg.pretrain.proxy != "random_init":
        raise ConfigError(
            "pre-trained skills are required (run the pretrain command first, "
            "or set pretrain.proxy = random_init)")

    state = TrainState(
        pi_h=pi_h, pi_l=pi_l,
        schedule=SkillSchedule(cfg.k_0, cfg.annealing_tau, cfg.k_s),
        n_skills=cfg.n_skills, gamma_h=cfg.gamma_h, gamma_l=cfg.gamma_l,
        batch_low_steps=cfg.B, trpo=TrpoConfig(max_kl=cfg.max_kl),
        seed=seed, mode=cfg.mode,
        update_low=cfg.algorithm != "frozen_skills",
        ridge=cfg.ridge)

    def trace_policy():
        """Each skill runs for the final skill length; every trace episode
        starts with a fresh skill choice."""
        skill_box = {"skill": -1, "left": 0}

        def act_fn(obs, rng):
            if skill_box["left"] == 0:
                skill_box["skill"], _, _ = pi_h.act(obs.high, rng)
                skill_box["left"] = state.schedule.current_k()
            x = np.empty(env.low_obs_dim + cfg.n_skills)
            x[:env.low_obs_dim] = obs.low
            x[env.low_obs_dim:] = 0.0
            x[env.low_obs_dim + skill_box["skill"]] = 1.0
            a, _, _ = pi_l.act(x, rng)
            skill_box["left"] -= 1
            return a, skill_box["skill"]
        return act_fn

    return _Algorithm(iterate=lambda it, low_steps: haar_iteration(state, env),
                      segments=lambda: policy_segments(pi_h=pi_h, pi_l=pi_l),
                      metadata={"n_skills": cfg.n_skills}, trace_policy=trace_policy)


def _flat(cfg, env, seed) -> _Algorithm:
    """Non-hierarchical baseline: one Gaussian policy on the full
    observation, trained on the raw environment rewards."""
    policy = fresh_flat_policy(cfg, env, seed)

    def act_fn(obs, rng):
        a, _, _ = policy.act(obs.high, rng)
        return a, -1

    return _Algorithm(
        iterate=lambda it, low_steps: flat_iteration(policy, env, cfg, seed, it, low_steps),
        segments=lambda: policy_segments(flat=policy),
        metadata={}, trace_policy=lambda: act_fn)


class _FlatCollector:
    """The flat collector for run_lanes: one policy acts on the full
    observation at every step."""

    def __init__(self, policy):
        self.policy = policy

    def act(self, run, high):
        obs = high()
        a, logp, mu = self.policy.act(obs, run.rngs)
        return a, (obs, a, mu, logp)


def collect_flat(policy, env, budget: int, seed: tuple[int, ...], lanes: int = LANES):
    """Whole episodes, in lockstep lanes, until `budget` steps are in the
    batch; returns (observations, actions, means, log-probs, LaneRun)."""
    run = run_lanes(env, seed, budget, _FlatCollector(policy), lanes)
    return (*run.columns, run)


def flat_iteration(policy, env, cfg: ExperimentConfig, seed: int, iteration: int,
                   low_steps_before: int):
    """One flat TRPO iteration: collect at least B steps of whole
    episodes, fit the value baseline on their discounted returns, and
    take one trust-region step. Returns the metrics and the
    (level, diagnostics) pair, as haar_iteration does."""
    obs, acts, means, logps, run = collect_flat(policy, env, cfg.B, (seed, iteration))
    rets = discounted_returns(run.reward, run.done, cfg.gamma_l)
    v = fit_value_on_scaled(obs, rets, env.high_obs_scale, cfg.ridge)
    adv = rets - v.predict(obs)
    batch = AdvantageBatch(obs, acts, adv, logps, (means, policy.log_std.copy()))
    diag = trpo_update(policy, batch, TrpoConfig(max_kl=cfg.max_kl))
    metrics = {
        "iteration": iteration,
        "low_steps_total": low_steps_before + len(obs),
        "k": 1,
        "success_rate": float(np.mean([e.success for e in run.episodes])),
        "mean_return": float(np.mean([e.total_return for e in run.episodes])),
        "high_kl": diag.kl,
        "low_kl": 0.0,
        "high_surr_improve": diag.improvement,
        "low_surr_improve": 0.0,
    }
    return metrics, [("flat", diag)]


def _seed_job(args):
    cfg, seed, out_dir, skills, transfer, source = args
    record = run_single_seed(cfg, seed, out_dir, skills_checkpoint=skills,
                             transfer=transfer, source_checkpoint=source)
    return record.directory


def run_train(cfg: ExperimentConfig, out_dir: str,
              skills: dict[int, str] | str | None = None,
              transfer: str | None = None,
              source: dict[int, str] | str | None = None,
              jobs: int = 1, log=None) -> list[str]:
    """Run every seed of the config; returns the run directories.

    `skills` / `source` may be a single checkpoint path (shared by all
    seeds) or a per-seed mapping. Seeds run as independent processes
    when jobs > 1; outputs are identical either way.
    """
    os.makedirs(out_dir, exist_ok=True)

    def pick(mapping, seed):
        if mapping is None or isinstance(mapping, str):
            return mapping
        return mapping[seed]

    tasks = [(cfg, seed, out_dir, pick(skills, seed), transfer, pick(source, seed))
             for seed in cfg.seeds]
    if jobs > 1 and len(tasks) > 1:
        with get_context("fork").Pool(min(jobs, len(tasks))) as pool:
            return pool.map(_seed_job, tasks)
    out = []
    for t in tasks:
        out.append(_seed_job(t))
        if log:
            log(f"finished {t[1]}")
    return out


def run_pretrain(cfg: ExperimentConfig, out_dir: str, jobs: int = 1) -> dict[int, str]:
    """Pre-train one skill set per seed; returns seed -> checkpoint path."""
    os.makedirs(out_dir, exist_ok=True)
    tasks = [(cfg, seed, out_dir) for seed in cfg.seeds]
    if jobs > 1 and len(tasks) > 1:
        with get_context("fork").Pool(min(jobs, len(tasks))) as pool:
            paths = pool.map(_pretrain_job, tasks)
    else:
        paths = [_pretrain_job(t) for t in tasks]
    return dict(zip(cfg.seeds, paths))


def _pretrain_job(args):
    cfg, seed, out_dir = args
    pi_l, stats = pretrain_skills(cfg.pretrain, seed)
    path = os.path.join(out_dir, f"skills_seed_{seed}.bin")
    save_checkpoint(path, policy_segments(pi_l=pi_l),
                    metadata={"n_skills": cfg.pretrain.n_skills,
                              "proxy": cfg.pretrain.proxy,
                              "env": "open_field/v1", "seed": seed,
                              "iterations": cfg.pretrain.iterations})
    with atomic_open(os.path.join(out_dir, f"skills_seed_{seed}.json")) as fh:
        json.dump({"stats": stats, "seed": seed}, fh, indent=2)
    return path


def read_metrics(path: str) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    out = {}
    for col in reader.fieldnames:
        vals = [row[col] for row in rows]
        if col in ("iteration", "low_steps_total", "k"):
            out[col] = np.array([int(v) for v in vals])
        else:
            out[col] = np.array([float(v) for v in vals])
    return out


def run_report(run_dirs: list[str], out_path: str) -> None:
    """Per-iteration mean and 95% confidence band over seeds.

    A run's run.json is written last, so a directory without a readable
    one is a run that did not finish, and is refused."""
    if not run_dirs:
        raise ValueError("report needs at least one run directory")
    for d in run_dirs:
        try:
            with open(os.path.join(d, "run.json")) as fh:
                json.load(fh)
        except (OSError, ValueError) as exc:
            raise ValueError(f"{d} is not a finished run: no readable run.json ({exc})") from exc
    per_seed = [read_metrics(os.path.join(d, "metrics.csv")) for d in run_dirs]
    n_iters = {len(m["iteration"]) for m in per_seed}
    if len(n_iters) != 1:
        raise ValueError(f"runs have mismatched iteration counts: {sorted(n_iters)}")
    n = len(per_seed)

    def band(key):
        data = np.stack([m[key] for m in per_seed])  # (seeds, iters)
        mean = data.mean(axis=0)
        if n == 1:
            half = np.zeros_like(mean)
        else:
            half = 1.96 * data.std(axis=0, ddof=1) / np.sqrt(n)
        return mean, half

    succ_mean, succ_half = band("success_rate")
    ret_mean, ret_half = band("mean_return")
    steps_mean, _ = band("low_steps_total")
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("iteration", "mean_low_steps", "success_mean", "success_ci95",
                         "return_mean", "return_ci95"))
        for i in range(len(succ_mean)):
            writer.writerow([str(i), _fmt(float(steps_mean[i])), _fmt(succ_mean[i]),
                             _fmt(succ_half[i]), _fmt(ret_mean[i]), _fmt(ret_half[i])])
