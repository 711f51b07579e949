"""Training and reporting runs with seeded determinism.

Every run writes one directory per seed:

    metrics.csv       per-iteration training metrics (deterministic:
                      identical bytes for identical config, seed,
                      BLAS thread count and BLAS kernel; measured
                      timing lives in timing.csv / run.json)
    diagnostics.csv   per-update trust-region audit rows
    timing.csv        measured per-iteration wall time (not covered by
                      the determinism contract)
    trajectories.csv  post-training traced episodes (episode, step, x,
                      y, skill), run in lockstep lanes by the
                      algorithm's own training collector
    checkpoint.bin    final parameters of all policies
    run.json          config echo, config hash, seed, start, file index

Seeds are independent: they may run in parallel processes without
changing any output byte.
"""

from __future__ import annotations

import csv
import ctypes
import hashlib
import json
import os
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from .checkpoint import CheckpointError, atomic_open, load_checkpoint, save_checkpoint
from .config import ConfigError, ExperimentConfig
from .hierarchy import (_SegmentCollector, discounted_returns, fit_value_on_scaled,
                        haar_iteration, skill_length)
from .nets import MlpSpec
from .policies import CategoricalPolicy, GaussianPolicy
from .pretrain import fresh_low_policy, pretrain_skills
from .rollout import batch_metrics, episode_streams, run_lanes
from .trpo import NO_STEP, AdvantageBatch, TrpoDiagnostics, trpo_update

HIGH_INIT_STREAM = 0x12
FLAT_INIT_STREAM = 0x13
TRACE_STREAM = 0x7A

METRIC_COLUMNS = ("iteration", "low_steps_total", "k", "success_rate", "mean_return",
                  "high_kl", "low_kl", "high_surr_improve", "low_surr_improve")
DIAG_COLUMNS = ("iteration", "level", "kl", "surrogate_before", "surrogate_after",
                "backtracks", "accepted")
TRACE_EPISODES = 10

# glibc's mallopt parameters (malloc.h) and the values every run sets
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20   # bytes: smaller blocks come from the heap
TRIM_THRESHOLD = 256 << 20  # bytes: free heap top kept from the kernel


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
    return CategoricalPolicy(MlpSpec(env.high_obs_dim, output_dim=cfg.n_skills), rng,
                             input_scale=env.high_obs_scale)


def fresh_flat_policy(cfg: ExperimentConfig, env, seed: int) -> GaussianPolicy:
    rng = np.random.default_rng(np.random.SeedSequence((seed, FLAT_INIT_STREAM)))
    return GaussianPolicy(MlpSpec(env.high_obs_dim, output_dim=2), rng,
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


class _CsvSink:
    def __init__(self, path: str, columns):
        self._fh = open(path, "w", newline="")
        self._writer = csv.writer(self._fh)
        self._writer.writerow(columns)

    def row(self, values):
        self._writer.writerow([_fmt(v) for v in values])

    def close(self):
        self._fh.close()


class _Traced:
    """Runs a training collector, recording for each step the position
    before it and the skill it ran (-1 for a collector that chooses
    none). The skill column is copied: a hierarchical collector
    overwrites run.skill in place at every decision."""

    def __init__(self, collector):
        self.collector = collector
        self.period = collector.period
        self.noise_shape = collector.noise_shape

    def act(self, run, high):
        actions, _ = self.collector.act(run, high)
        return actions, (run.state.position, run.skill.copy())


def _trace_trajectories(path: str, env, collector, seed: int, episodes=range(TRACE_EPISODES)):
    """Run fresh post-training episodes in lockstep lanes with a training
    collector and dump their positions.

    Each episode draws only from its own stream, so it runs the same
    alone as among the others; its skill segments start afresh.
    """
    streams = (np.random.default_rng(np.random.SeedSequence((seed, TRACE_STREAM, ep)))
               for ep in episodes)
    run = run_lanes(env, streams, len(episodes) * env.horizon, _Traced(collector))
    position, skill = run.columns
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("episode", "step", "x", "y", "skill"))
        start = 0
        for ep, end, last in zip(episodes, np.flatnonzero(run.done) + 1, run.final.position):
            xy = np.concatenate((position[start:end], last[None])).tolist()
            skills = [-1, *skill[start:end].tolist()]
            writer.writerows((ep, step, _fmt(x), _fmt(y), z)
                             for step, ((x, y), z) in enumerate(zip(xy, skills)))
            start = end


@dataclass
class _Algorithm:
    """What the run loop needs from one training algorithm."""
    # (iteration, lanes) -> (rollout.batch_metrics, [(level, diagnostics)])
    iterate: Callable[[int, int | None], tuple[dict, list[tuple[str, TrpoDiagnostics]]]]
    segments: Callable[[], dict[str, np.ndarray]]  # checkpoint contents after training
    metadata: dict                                 # checkpoint metadata beyond the shared keys
    collector: Callable[[], object]                # a fresh training collector, for the trace


def _keep_freed_pages() -> bool:
    """Keep freed heap pages in the process for reuse; returns whether
    it could.

    glibc maps blocks of MMAP_THRESHOLD bytes or more with mmap, and
    gives the free top of the heap back to the kernel once it exceeds
    TRIM_THRESHOLD. At its defaults (128 KiB each, raised as mapped
    blocks are freed), the low-level TRPO update's temporaries (README:
    4.40 MiB above its batch) go back to the kernel after every update
    and fault in again at the next one. No output byte depends on this.
    A C library without glibc's mallopt keeps its defaults.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, TypeError):  # no mallopt, or no process handle (Windows)
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    set_mmap = mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    set_trim = mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    return bool(set_mmap and set_trim)


def run_single_seed(cfg: ExperimentConfig, seed: int, out_dir: str,
                    skills_checkpoint: str | None = None,
                    high_checkpoint: str | None = None,
                    log=None) -> str:
    """Train one seed, persist its artifacts under out_dir/seed_<n> and
    return that directory. pi_l starts from skills_checkpoint and pi_h
    from high_checkpoint, each when given.

    log, when given, is called once per iteration after that
    iteration's rows are written, with a line that names the seed.
    run.json, renamed into place last, marks a finished run. A run
    refused while its env and policies are built writes nothing.
    """
    _keep_freed_pages()
    t0 = time.perf_counter()
    env = cfg.build_env()
    algo = _algorithm(cfg, env, seed, skills_checkpoint, high_checkpoint)
    start = {policy: hashlib.sha256(Path(path).read_bytes()).hexdigest() for policy, path
             in (("pi_l", skills_checkpoint), ("pi_h", high_checkpoint)) if path}
    run_dir = os.path.join(out_dir, f"seed_{seed}")
    os.makedirs(run_dir, exist_ok=True)
    if os.path.exists(os.path.join(run_dir, "run.json")):  # it would mark this run finished
        os.remove(os.path.join(run_dir, "run.json"))

    metrics = _CsvSink(os.path.join(run_dir, "metrics.csv"), METRIC_COLUMNS)
    diags = _CsvSink(os.path.join(run_dir, "diagnostics.csv"), DIAG_COLUMNS)
    timing = _CsvSink(os.path.join(run_dir, "timing.csv"), ("iteration", "wall_time_s"))
    final_success = 0.0
    low_steps = 0
    # the first batch runs ceil(B/T) lanes, each later one as many as the
    # batch before it had episodes, so it starts them all in one wave
    lanes = None
    try:
        for it in range(cfg.N):
            t_it = time.perf_counter()
            m, updates = algo.iterate(it, lanes)
            wall = time.perf_counter() - t_it
            low_steps += m["steps"]
            lanes = m["episodes"]
            # flat TRPO's one level fills the high columns; a level that took no step reports 0.0
            stepped = {"low" if level == "low" else "high": diag for level, diag in updates}
            high, low = stepped.get("high", NO_STEP), stepped.get("low", NO_STEP)
            metrics.row([it, low_steps, m["k"], m["success_rate"], m["mean_return"], high.kl,
                         low.kl, high.improvement, low.improvement])
            for level, diag in updates:
                diags.row([it, level, diag.kl, diag.surrogate_before,
                           diag.surrogate_after, diag.backtracks, diag.accepted])
            timing.row([it, wall])
            final_success = m["success_rate"]
            if log:
                log(f"seed {seed} iter {it + 1}/{cfg.N} k={m['k']} "
                    f"success={m['success_rate']:.2f} return={m['mean_return']:.1f}")
    finally:
        metrics.close()
        diags.close()
        timing.close()

    save_checkpoint(os.path.join(run_dir, "checkpoint.bin"), algo.segments(),
                    metadata={"algorithm": cfg.algorithm, "seed": seed, "start": start,
                              "config_hash": cfg.config_hash(), **algo.metadata})
    _trace_trajectories(os.path.join(run_dir, "trajectories.csv"), env, algo.collector(), seed)
    payload = {
        "config": cfg.to_dict(),
        "config_hash": cfg.config_hash(),
        "seed": seed,
        "start": start,
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
    return run_dir


def _algorithm(cfg, env, seed, skills_checkpoint, high_checkpoint) -> _Algorithm:
    """The seed's algorithm, its policies built and loaded from the
    given checkpoints; raises before anything is written if they do not
    fit the config."""
    if cfg.algorithm != "flat_trpo":
        return _hierarchical(cfg, env, seed, skills_checkpoint, high_checkpoint)
    if skills_checkpoint or high_checkpoint:
        raise ConfigError("flat_trpo trains its one policy from scratch: "
                          "it takes no --skills and no --high checkpoint")
    return _flat(cfg, env, seed)


def physics(cfg: ExperimentConfig) -> dict:
    """The body a config's policies act in, as their checkpoints record it."""
    return {"stumble_threshold": cfg.stumble_threshold, "v_max": cfg.v_max}


def _hierarchical(cfg, env, seed, skills_checkpoint, high_checkpoint) -> _Algorithm:
    pi_h = fresh_high_policy(cfg, env, seed)
    pi_l = fresh_low_policy(cfg.n_skills, env, seed)
    if not skills_checkpoint and cfg.pretrain.iterations > 0:
        raise ConfigError(
            "pre-trained skills are required (run the pretrain command first, "
            "or set pretrain.iterations = 0)")
    for path, policy in ((skills_checkpoint, {"pi_l": pi_l}), (high_checkpoint, {"pi_h": pi_h})):
        recorded = load_policy_segments(path, **policy).get("physics") if path else physics(cfg)
        if recorded != physics(cfg):
            raise CheckpointError(f"checkpoint {path} was trained in physics {recorded}, "
                                  f"but the config runs {physics(cfg)}")

    # the trace runs each skill for the skill length after the last iteration
    k_trace = skill_length(cfg.k_0, cfg.k_s, cfg.N, cfg.N)
    return _Algorithm(
        iterate=partial(haar_iteration, pi_h, pi_l, env, cfg, seed),
        segments=lambda: policy_segments(pi_h=pi_h, pi_l=pi_l),
        metadata={"n_skills": cfg.n_skills, "physics": physics(cfg)},
        collector=lambda: _SegmentCollector(pi_h, pi_l, cfg.n_skills, k_trace))


def _flat(cfg, env, seed) -> _Algorithm:
    """Non-hierarchical baseline: one Gaussian policy on the full
    observation, trained on the raw environment rewards."""
    policy = fresh_flat_policy(cfg, env, seed)
    return _Algorithm(
        iterate=partial(flat_iteration, policy, env, cfg, seed),
        segments=lambda: policy_segments(flat=policy),
        metadata={}, collector=lambda: _FlatCollector(policy, env.horizon))


class _FlatCollector:
    """The flat collector for run_lanes: one policy acts on the full
    observation at every step, with the noise rows its episode's stream
    gave for all of its `horizon` steps at the first. Lanes join at the
    end, so only a last lane at step 0 means that some lanes start."""

    def __init__(self, policy, horizon: int):
        self.policy = policy
        self.period = 1  # lanes join on any step
        self.horizon = horizon
        self.noise_shape = (horizon, *policy.row_shape)

    def act(self, run, high):
        if run.steps[-1] == 0:
            new = np.flatnonzero(run.steps == 0)
            run.noise[new] = self.policy.noise_rows(
                np.stack([self.policy.noise(rng, self.horizon) for rng in run.rng[new]]))
        obs = high()
        a, logp, mu = self.policy.act(obs, run.noise[np.arange(len(obs)), run.steps])
        return a, (obs, a, mu, logp)


def collect_flat(policy, env, budget: int, seed: tuple[int, ...], lanes: int | None = None):
    """Whole episodes, in lockstep lanes, until `budget` steps are in the
    batch; returns (observations, actions, means, log-probs, LaneRun)."""
    run = run_lanes(env, episode_streams(seed), budget, _FlatCollector(policy, env.horizon),
                    lanes)
    return (*run.columns, run)


def flat_iteration(policy, env, cfg: ExperimentConfig, seed: int, iteration: int,
                   lanes: int | None = None):
    """One flat TRPO iteration: collect at least B steps of whole
    episodes in `lanes` lockstep lanes, fit the value baseline on their
    discounted returns, and take one trust-region step. Returns the
    batch's rollout.batch_metrics (k is 1) and the (level, diagnostics)
    pair, as haar_iteration does."""
    obs, acts, means, logps, run = collect_flat(policy, env, cfg.B, (seed, iteration), lanes)
    rets = discounted_returns(run.reward, run.done, cfg.gamma)
    v = fit_value_on_scaled(obs, rets, env.high_obs_scale)
    adv = rets - v.predict(obs)
    batch = AdvantageBatch(obs, acts, adv, logps, policy.old_dist(means))
    diag = trpo_update(policy, batch, cfg.max_kl)
    return batch_metrics(1, len(obs), run.success, run.total_return), [("flat", diag)]


def run_train(cfg: ExperimentConfig, out_dir: str,
              skills: dict[int, str] | None = None,
              high: dict[int, str] | None = None,
              jobs: int = 1, log=None) -> list[str]:
    """Run every seed of the config; returns the run directories.

    `skills` / `high` map each seed to the checkpoint its pi_l / pi_h
    starts from. Every seed's policies are built and loaded once before
    the first seed runs, so a checkpoint that does not fit fails the
    whole run before anything is written. Seeds run as independent processes when
    jobs > 1; outputs are identical either way. log, when given, gets
    each seed's iteration lines (from the seed's own process when jobs >
    1, so it must pickle) and, in a serial run, each finished seed.
    """
    skills, high = skills or {}, high or {}
    tasks = [(cfg, seed, out_dir, skills.get(seed), high.get(seed), log) for seed in cfg.seeds]
    env = cfg.build_env()
    for seed in cfg.seeds:
        _algorithm(cfg, env, seed, skills.get(seed), high.get(seed))
    os.makedirs(out_dir, exist_ok=True)
    return _map_seeds(run_single_seed, tasks, jobs, log)


def run_pretrain(cfg: ExperimentConfig, out_dir: str, jobs: int = 1,
                 log=None) -> dict[int, str]:
    """Pre-train one skill set per seed; returns seed -> checkpoint path,
    out_dir/seed_<n>/checkpoint.bin as a train run's. log, when given,
    is called as each seed finishes in a serial run."""
    os.makedirs(out_dir, exist_ok=True)
    paths = _map_seeds(_pretrain_job, [(cfg, seed, out_dir) for seed in cfg.seeds], jobs, log)
    return dict(zip(cfg.seeds, paths))


def _map_seeds(job, tasks: list[tuple], jobs: int, log=None) -> list:
    """job(*task) for each task, whose second item is its seed, in order:
    in forked processes when jobs > 1 and there are several tasks,
    otherwise one at a time, logging each seed as it finishes."""
    if jobs > 1 and len(tasks) > 1:
        from multiprocessing import get_context  # only pooled runs pay for the import
        with get_context("fork").Pool(min(jobs, len(tasks))) as pool:
            return pool.starmap(job, tasks)
    out = []
    for t in tasks:
        out.append(job(*t))
        if log:
            log(f"finished {t[1]}")
    return out


def _pretrain_job(cfg, seed, out_dir):
    _keep_freed_pages()
    pi_l, stats = pretrain_skills(cfg.pretrain, cfg.n_skills, seed, cfg.env_config())
    seed_dir = os.path.join(out_dir, f"seed_{seed}")
    os.makedirs(seed_dir, exist_ok=True)
    path = os.path.join(seed_dir, "checkpoint.bin")
    save_checkpoint(path, policy_segments(pi_l=pi_l),
                    metadata={"n_skills": cfg.n_skills, "physics": physics(cfg), "seed": seed,
                              "iterations": cfg.pretrain.iterations})
    with atomic_open(os.path.join(seed_dir, "pretrain.json")) as fh:
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
