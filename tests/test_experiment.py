import copy
import csv
import hashlib
import json
import math
import os
import re
from dataclasses import replace

import numpy as np
import pytest

from haarlab.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from haarlab.cli import main
from haarlab.config import ConfigError, ExperimentConfig
from haarlab.experiment import (METRIC_COLUMNS, flat_iteration, fresh_flat_policy,
                                fresh_high_policy, physics, policy_segments, read_metrics,
                                run_pretrain, run_report, run_single_seed, run_train)
from haarlab.hierarchy import haar_iteration
from haarlab.pretrain import PretrainConfig, fresh_low_policy


def tiny_cfg(**kw):
    base = dict(N=3, B=200, T=40, k_0=8, k_s=4, seeds=(0,),
                pretrain=PretrainConfig(iterations=0, batch_low_steps=100, episode_steps=25))
    base.update(kw)
    return ExperimentConfig(**base)


def read_lines(path):
    with open(path, "rb") as fh:
        return fh.read()


def sha256(path):
    return hashlib.sha256(read_lines(path)).hexdigest()


def test_run_writes_expected_files(tmp_path):
    cfg = tiny_cfg()
    run_dir = run_single_seed(cfg, 0, str(tmp_path))
    for name in ("metrics.csv", "diagnostics.csv", "timing.csv", "trajectories.csv",
                 "checkpoint.bin", "run.json"):
        assert os.path.exists(os.path.join(run_dir, name))
    metrics = read_metrics(os.path.join(run_dir, "metrics.csv"))
    assert tuple(metrics) == METRIC_COLUMNS
    assert len(metrics["iteration"]) == cfg.N
    assert metrics["k"][0] == cfg.k_0
    # measured time lives in timing.csv and run.json, never in metrics.csv
    assert read_lines(os.path.join(run_dir, "metrics.csv")).splitlines()[0] == (
        b"iteration,low_steps_total,k,success_rate,mean_return,"
        b"high_kl,low_kl,high_surr_improve,low_surr_improve")
    with open(os.path.join(run_dir, "run.json")) as fh:
        payload = json.load(fh)
    assert payload["seed"] == 0
    assert payload["config_hash"] == cfg.config_hash()
    assert payload["wall_time_total_s"] > 0


def test_metrics_byte_identical_across_reruns(tmp_path):
    cfg = tiny_cfg()
    a = run_single_seed(cfg, 3, str(tmp_path / "a"))
    b = run_single_seed(cfg, 3, str(tmp_path / "b"))
    for name in ("metrics.csv", "checkpoint.bin"):
        assert read_lines(os.path.join(a, name)) == read_lines(os.path.join(b, name))


def test_frozen_skills_never_update_low_level(tmp_path):
    cfg = tiny_cfg(algorithm="frozen_skills", N=4)
    run_dir = run_single_seed(cfg, 1, str(tmp_path))
    segments, _ = load_checkpoint(os.path.join(run_dir, "checkpoint.bin"))
    env = cfg.build_env()
    fresh = fresh_low_policy(cfg.n_skills, env, 1)
    assert np.array_equal(segments["pi_l/mean_net"], fresh.params.segment("mean_net"))
    assert np.array_equal(segments["pi_l/log_std"], fresh.params.segment("log_std"))


def test_flat_trpo_runs_and_reports_k_one(tmp_path):
    cfg = tiny_cfg(algorithm="flat_trpo")
    run_dir = run_single_seed(cfg, 0, str(tmp_path))
    metrics = read_metrics(os.path.join(run_dir, "metrics.csv"))
    assert np.all(metrics["k"] == 1)
    assert np.all(metrics["low_kl"] == 0.0)
    segments, meta = load_checkpoint(os.path.join(run_dir, "checkpoint.bin"))
    assert "flat/mean_net" in segments and meta["algorithm"] == "flat_trpo"


def test_run_loop_writes_the_row_of_a_level_that_took_no_step(tmp_path):
    # alternate mode steps the high level in the first iteration and the low
    # one in the second: the run loop fills the columns of the level that
    # stepped from its update and the other level's with zeros (most
    # episodes trip at this stumble threshold, so both updates move)
    cfg = tiny_cfg(mode="alternate", N=2, maze="c_maze", stumble_threshold=0.9)
    run_dir = run_single_seed(cfg, 0, str(tmp_path))
    with open(os.path.join(run_dir, "metrics.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(os.path.join(run_dir, "diagnostics.csv"), newline="") as fh:
        diags = list(csv.DictReader(fh))
    assert all(float(row["mean_return"]) != 0.0 for row in rows)
    assert [(d["iteration"], d["level"], d["accepted"]) for d in diags] == \
        [("0", "high", "True"), ("1", "low", "True")]
    for row, diag, idle in zip(rows, diags, ("low", "high")):
        level = diag["level"]
        assert row[f"{level}_kl"] == diag["kl"]
        assert float(row[f"{level}_surr_improve"]) == \
            float(diag["surrogate_after"]) - float(diag["surrogate_before"])
        assert row[f"{idle}_kl"] == row[f"{idle}_surr_improve"] == "0.0"
    first, second = (int(row["low_steps_total"]) for row in rows)
    assert 200 <= first <= second - 200  # the running total of B-step batches


@pytest.mark.parametrize("algorithm, mode", [
    ("haar", "concurrent"), ("haar", "alternate"), ("flat_trpo", "concurrent")])
def test_an_iteration_depends_only_on_its_arguments(algorithm, mode):
    """Iteration 2 run alone, from copies of the policies it started
    from and a fresh environment, matches it run in sequence."""
    cfg = tiny_cfg(algorithm=algorithm, mode=mode)
    env = cfg.build_env()
    if algorithm == "flat_trpo":
        policies, iteration = [fresh_flat_policy(cfg, env, 0)], flat_iteration
    else:
        policies = [fresh_high_policy(cfg, env, 0), fresh_low_policy(cfg.n_skills, env, 0)]
        iteration = haar_iteration
    for it in range(2):
        iteration(*policies, env, cfg, 0, it)
    copies = copy.deepcopy(policies)
    in_sequence = iteration(*policies, env, cfg, 0, 2)
    alone = iteration(*copies, cfg.build_env(), cfg, 0, 2)
    assert alone == in_sequence
    assert [p.flat().tobytes() for p in copies] == [p.flat().tobytes() for p in policies]


def test_training_requires_skills_unless_random_init(tmp_path):
    cfg = tiny_cfg()
    cfg2 = replace(cfg, pretrain=replace(cfg.pretrain, iterations=1))
    with pytest.raises(ConfigError, match="or set pretrain.iterations = 0"):
        run_single_seed(cfg2, 0, str(tmp_path))


REFUSALS = {
    "no_skills": (dict(pretrain=PretrainConfig(iterations=1)), {}, ConfigError),
    "missing_maze_file": (dict(maze="absent_maze.txt"), {}, ConfigError),
    "missing_segment": ({}, dict(high_checkpoint="source.bin"), CheckpointError),
    "flat_skills": (dict(algorithm="flat_trpo"), dict(skills_checkpoint="skills.bin"),
                    ConfigError),
    "flat_transfer": (dict(algorithm="flat_trpo"), dict(high_checkpoint="source.bin"),
                      ConfigError),
}


@pytest.mark.parametrize("refusal", REFUSALS)
def test_refused_run_leaves_no_seed_directory(tmp_path, refusal):
    # each used to leave an empty seed_0/ behind: the run directory was
    # made before the env and the policies were built
    cfg_kw, run_kw, error = REFUSALS[refusal]
    src = tmp_path / "source.bin"
    save_checkpoint(str(src), {"pi_x/net": np.zeros(3)})  # lacks every policy segment
    run_kw = {key: str(tmp_path / name) for key, name in run_kw.items()}
    with pytest.raises(error):
        run_single_seed(tiny_cfg(**cfg_kw), 0, str(tmp_path / "out"), **run_kw)
    assert not (tmp_path / "out").exists()


NO_GOAL_MAZE = "#####\n#S..#\n#####\n"


def reward_free_cfg(tmp_path, **kw):
    # goalless strip + no stumble rule: every reward is exactly zero, so
    # both policies keep their startup parameters through training
    maze = tmp_path / "strip.txt"
    maze.write_text(NO_GOAL_MAZE)
    return tiny_cfg(maze=str(maze), stumble_threshold=math.inf, **kw)


def donor_run(tmp_path):
    """A reward-free config, which keeps both policies at their initial
    values so that the final checkpoint exposes exactly what was loaded
    at startup, and a source checkpoint of seed 77's policies; returns
    (cfg, its env, the source path, its segments)."""
    cfg = reward_free_cfg(tmp_path, N=2)
    env = cfg.build_env()
    donor = policy_segments(pi_h=fresh_high_policy(cfg, env, 77),
                            pi_l=fresh_low_policy(cfg.n_skills, env, 77))
    src = str(tmp_path / "source.bin")
    save_checkpoint(src, donor, {"physics": physics(cfg)})
    return cfg, env, src, donor


def run_from(tmp_path, name, cfg, **checkpoints):
    """run_single_seed of seed 5 from the given checkpoints; returns the
    final checkpoint's segments and its start, which run.json repeats."""
    run_dir = run_single_seed(cfg, 5, str(tmp_path / name), **checkpoints)
    segments, metadata = load_checkpoint(os.path.join(run_dir, "checkpoint.bin"))
    with open(os.path.join(run_dir, "run.json")) as fh:
        assert json.load(fh)["start"] == metadata["start"]
    return segments, metadata["start"]


def test_transfer_low_only_loads_only_low_segments(tmp_path):
    cfg, env, src, donor = donor_run(tmp_path)
    fresh = policy_segments(pi_h=fresh_high_policy(cfg, env, 5))
    sha = sha256(src)
    segments, start = run_from(tmp_path, "low_only", cfg, skills_checkpoint=src)
    assert start == {"pi_l": sha}
    assert np.array_equal(segments["pi_l/mean_net"], donor["pi_l/mean_net"])
    assert np.array_equal(segments["pi_h/logits_net"], fresh["pi_h/logits_net"])

    seg_both, start = run_from(tmp_path, "both", cfg, skills_checkpoint=src,
                               high_checkpoint=src)
    assert start == {"pi_l": sha, "pi_h": sha}
    assert all(np.array_equal(seg_both[key], donor[key]) for key in donor)


def test_high_alone_loads_only_high_segments(tmp_path):
    # a source with no pi_l segment: --high loads pi_h/* and nothing else
    cfg, env, src, donor = donor_run(tmp_path)
    save_checkpoint(src, {"pi_h/logits_net": donor["pi_h/logits_net"]}, {"physics": physics(cfg)})
    fresh = policy_segments(pi_l=fresh_low_policy(cfg.n_skills, env, 5))
    segments, start = run_from(tmp_path, "high", cfg, high_checkpoint=src)
    assert start == {"pi_h": sha256(src)}
    assert np.array_equal(segments["pi_h/logits_net"], donor["pi_h/logits_net"])
    assert all(np.array_equal(segments[key], fresh[key]) for key in fresh)


BODIES = {"v_max": {"stumble_threshold": math.inf, "v_max": 1.2},
          "stumble_threshold": {"stumble_threshold": 1.5, "v_max": 2.0},
          "no_record": None}


@pytest.mark.parametrize("level", ["skills", "high"])
@pytest.mark.parametrize("body", BODIES)
def test_checkpoint_of_another_body_is_refused(tmp_path, level, body):
    # pi_l reads velocities scaled by 1 / v_max and learned where trips
    # end episodes, so policies run only in the physics they trained in;
    # seed 1's checkpoint is refused before seed 0 runs
    cfg, _, src, donor = donor_run(tmp_path)
    other = str(tmp_path / "other.bin")
    save_checkpoint(other, donor, {} if BODIES[body] is None else {"physics": BODIES[body]})
    message = f"{other} was trained in physics {BODIES[body]}, but the config runs {physics(cfg)}"
    with pytest.raises(CheckpointError, match=re.escape(message)):
        run_train(replace(cfg, seeds=(0, 1)), str(tmp_path / "out"), **{level: {0: src, 1: other}})
    assert not (tmp_path / "out").exists()


def test_checkpoints_record_the_body_they_trained_in(tmp_path):
    # an infinite stumble threshold round-trips through the metadata JSON
    cfg = reward_free_cfg(tmp_path, N=1, pretrain=PretrainConfig(iterations=1, batch_low_steps=50,
                                                                 episode_steps=25))
    skills = run_pretrain(cfg, str(tmp_path / "skills"))[0]
    assert b'"stumble_threshold": Infinity' in read_lines(skills)
    run_dir = run_train(cfg, str(tmp_path / "run"), skills={0: skills})[0]
    trained = os.path.join(run_dir, "checkpoint.bin")
    run_train(cfg, str(tmp_path / "again"), skills={0: trained}, high={0: trained})
    want = {"v_max": 2.0, "stumble_threshold": math.inf}
    assert load_checkpoint(skills)[1]["physics"] == load_checkpoint(trained)[1]["physics"] == want
    flat_dir = run_train(replace(cfg, algorithm="flat_trpo"), str(tmp_path / "flat"))[0]
    assert "physics" not in load_checkpoint(os.path.join(flat_dir, "checkpoint.bin"))[1]


def _short_segments(cfg):
    return {"pi_l/mean_net": np.zeros(3), "pi_l/log_std": np.zeros(2),
            "pi_h/logits_net": np.zeros(4)}


def _without_log_std(cfg):
    env = cfg.build_env()
    segments = policy_segments(pi_h=fresh_high_policy(cfg, env, 0),
                               pi_l=fresh_low_policy(cfg.n_skills, env, 0))
    del segments["pi_l/log_std"]
    return segments


@pytest.mark.parametrize("make_segments, message",
                         [(_short_segments, "do not match"), (_without_log_std, "lacks segment")],
                         ids=["short_segments", "missing_log_std"])
def test_transfer_dimension_mismatch_rejected(tmp_path, make_segments, message):
    cfg = tiny_cfg()
    src = tmp_path / "bad.bin"
    save_checkpoint(str(src), make_segments(cfg))
    with pytest.raises(CheckpointError, match=message):
        run_single_seed(cfg, 0, str(tmp_path / "run"), skills_checkpoint=str(src),
                        high_checkpoint=str(src))


def test_run_train_multi_seed_and_parallel_identical(tmp_path):
    cfg = tiny_cfg(seeds=(0, 1))
    seq_dirs = run_train(cfg, str(tmp_path / "seq"), jobs=1)
    par_dirs = run_train(cfg, str(tmp_path / "par"), jobs=2)
    assert len(seq_dirs) == len(par_dirs) == 2
    for a, b in zip(seq_dirs, par_dirs):
        assert read_lines(os.path.join(a, "metrics.csv")) == \
            read_lines(os.path.join(b, "metrics.csv"))


def test_run_pretrain_writes_checkpoints(tmp_path):
    cfg = tiny_cfg(seeds=(0, 1))
    cfg = replace(cfg, pretrain=replace(cfg.pretrain, iterations=1))
    paths = run_pretrain(cfg, str(tmp_path))
    assert set(paths) == {0, 1}
    for seed, path in paths.items():
        segments, meta = load_checkpoint(path)
        assert meta["n_skills"] == cfg.n_skills and meta["iterations"] == 1
        assert "proxy" not in meta
        assert "pi_l/mean_net" in segments


def synth_run(tmp_path, name, successes, returns):
    d = tmp_path / name
    d.mkdir(parents=True)
    with open(d / "metrics.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRIC_COLUMNS)
        for i, (s, r) in enumerate(zip(successes, returns)):
            writer.writerow([i, (i + 1) * 100, 5, repr(float(s)), repr(float(r)),
                             0.0, 0.0, 0.0, 0.0, 0.0])
    (d / "run.json").write_text("{}")  # written last: the run finished
    return str(d)


def test_report_single_seed_zero_band(tmp_path):
    d = synth_run(tmp_path, "r0", [0.5, 0.7], [10.0, 20.0])
    out = tmp_path / "report.csv"
    run_report([d], str(out))
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[0]["success_mean"]) == 0.5
    assert float(rows[0]["success_ci95"]) == 0.0


def test_report_hand_computed_interval(tmp_path):
    vals = [0.2, 0.4, 0.3, 0.6, 0.5]
    dirs = [synth_run(tmp_path, f"r{i}", [v], [v * 10]) for i, v in enumerate(vals)]
    out = tmp_path / "report.csv"
    run_report(dirs, str(out))
    with open(out) as fh:
        row = next(csv.DictReader(fh))
    mean = float(np.mean(vals))
    half = 1.96 * float(np.std(vals, ddof=1)) / np.sqrt(5)
    assert abs(float(row["success_mean"]) - mean) <= 1e-9
    assert abs(float(row["success_ci95"]) - half) <= 1e-9


def test_report_constant_seeds_zero_band(tmp_path):
    dirs = [synth_run(tmp_path, f"c{i}", [0.4, 0.4], [7.0, 7.0]) for i in range(5)]
    out = tmp_path / "rep.csv"
    run_report(dirs, str(out))
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        assert float(row["success_ci95"]) == 0.0
        assert float(row["success_mean"]) == 0.4


def test_report_mismatched_lengths_rejected(tmp_path):
    d1 = synth_run(tmp_path, "a", [0.1], [1.0])
    d2 = synth_run(tmp_path, "b", [0.1, 0.2], [1.0, 2.0])
    with pytest.raises(ValueError):
        run_report([d1, d2], str(tmp_path / "x.csv"))


def test_crashed_rerun_is_not_reported_as_finished(tmp_path, monkeypatch):
    # a finished run re-run into the same directory and killed in iteration 2
    from haarlab import experiment

    cfg = tiny_cfg(algorithm="flat_trpo")
    run_dir = run_single_seed(cfg, 0, str(tmp_path))
    real = experiment.flat_iteration

    def killed(policy, env, cfg, seed, iteration, lanes):
        if iteration == 1:
            raise KeyboardInterrupt
        return real(policy, env, cfg, seed, iteration, lanes)

    monkeypatch.setattr(experiment, "flat_iteration", killed)
    with pytest.raises(KeyboardInterrupt):
        run_single_seed(cfg, 0, str(tmp_path))
    assert not os.path.exists(os.path.join(run_dir, "run.json"))
    with pytest.raises(ValueError, match="not a finished run"):
        run_report([run_dir], str(tmp_path / "r.csv"))
    assert len(read_metrics(os.path.join(run_dir, "metrics.csv"))["iteration"]) == 1


@pytest.mark.parametrize("marker", [None, '{"config": '])
def test_report_refuses_unfinished_run(tmp_path, capsys, marker):
    done = synth_run(tmp_path, "done", [0.1], [1.0])
    cut = synth_run(tmp_path, "cut", [0.2], [2.0])
    os.remove(os.path.join(cut, "run.json"))
    if marker is not None:  # killed while writing it
        with open(os.path.join(cut, "run.json"), "w") as fh:
            fh.write(marker)
    with pytest.raises(ValueError, match="cut"):
        run_report([done, cut], str(tmp_path / "r.csv"))
    assert main(["report", "--runs", done, cut, "--out", str(tmp_path / "r.csv")]) == 2
    assert "error:" in capsys.readouterr().err and not os.path.exists(tmp_path / "r.csv")


def test_trajectories_schema(tmp_path):
    cfg = tiny_cfg()
    run_dir = run_single_seed(cfg, 0, str(tmp_path))
    with open(os.path.join(run_dir, "trajectories.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0]) == {"episode", "step", "x", "y", "skill"}
    episodes = {int(r["episode"]) for r in rows}
    assert len(episodes) == 10
    for r in rows[1:]:
        if int(r["step"]) > 0:
            assert 0 <= int(r["skill"]) < cfg.n_skills


@pytest.mark.parametrize("algorithm", ["haar", "flat_trpo"])
def test_trace_episode_runs_as_it_would_alone(tmp_path, algorithm):
    # T is not a multiple of the skill length, so a skill in progress at an
    # episode's end would leak into the next episode if it were carried over
    from haarlab.experiment import _flat, _hierarchical, _trace_trajectories

    cfg = tiny_cfg(algorithm=algorithm, T=13, k_0=5, k_s=5)
    env = cfg.build_env()

    def trace(path, **kw):  # a freshly built algorithm each time
        algo = (_flat(cfg, env, 2) if algorithm == "flat_trpo"
                else _hierarchical(cfg, env, 2, None, None))
        _trace_trajectories(str(path), env, algo.collector(), 2, **kw)

    trace(tmp_path / "all.csv")
    with open(tmp_path / "all.csv") as fh:
        rows = list(csv.reader(fh))
    for ep in range(10):
        path = tmp_path / f"ep{ep}.csv"
        trace(path, episodes=[ep])
        with open(path) as fh:
            alone = list(csv.reader(fh))
        assert alone[1:] == [r for r in rows[1:] if r[0] == str(ep)]
        assert len(alone) > 1


@pytest.mark.parametrize("algorithm", ["haar", "flat_trpo"])
def test_reward_free_run_writes_the_full_paths_rows(tmp_path, monkeypatch, algorithm):
    """A run whose batches carry no reward (no goal in reach, no trips)
    fits no value and runs no policy forward pass for its steps, and
    writes what the full fit and trust-region step write."""
    from haarlab import experiment, hierarchy, policies

    from helpers import ref_fit_value, ref_trpo_update

    cfg = tiny_cfg(algorithm=algorithm, stumble_threshold=100.0)
    with monkeypatch.context() as m:
        # the reference fits the scaled copy the fit once made
        m.setattr(hierarchy, "fit_value",
                  lambda states, targets, scale: ref_fit_value(states * scale, targets))
        for module in (hierarchy, experiment):
            m.setattr(module, "trpo_update", ref_trpo_update)
        want = run_single_seed(cfg, 0, str(tmp_path / "full"))

    def unreachable(*args, **kwargs):
        raise AssertionError("a reward-free batch must take the fast paths")

    monkeypatch.setattr(np.linalg, "lstsq", unreachable)
    monkeypatch.setattr(policies._MlpPolicy, "forward_batch", unreachable)
    got = run_single_seed(cfg, 0, str(tmp_path / "fast"))
    assert np.all(read_metrics(os.path.join(got, "metrics.csv"))["mean_return"] == 0.0)
    for name in ("metrics.csv", "diagnostics.csv", "checkpoint.bin"):
        assert read_lines(os.path.join(got, name)) == \
            read_lines(os.path.join(want, name))
