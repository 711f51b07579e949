import csv
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from haarlab.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from haarlab.cli import main
from haarlab.config import ConfigError, ExperimentConfig
from haarlab.experiment import (METRIC_COLUMNS, fresh_high_policy, policy_segments,
                                read_metrics, run_pretrain, run_report, run_single_seed,
                                run_train)
from haarlab.pretrain import PretrainConfig, fresh_low_policy


def tiny_cfg(**kw):
    base = dict(N=3, B=200, T=40, k_0=8, k_s=4, seeds=(0,),
                pretrain=PretrainConfig(proxy="random_init", iterations=0,
                                        batch_low_steps=100, episode_steps=25))
    base.update(kw)
    return ExperimentConfig(**base)


def read_lines(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_run_writes_expected_files(tmp_path):
    cfg = tiny_cfg()
    rec = run_single_seed(cfg, 0, str(tmp_path))
    for name in ("metrics.csv", "diagnostics.csv", "timing.csv", "trajectories.csv",
                 "checkpoint.bin", "run.json"):
        assert os.path.exists(os.path.join(rec.directory, name))
    metrics = read_metrics(rec.metrics_path)
    assert tuple(metrics) == METRIC_COLUMNS
    assert len(metrics["iteration"]) == cfg.N
    assert metrics["k"][0] == cfg.k_0
    assert np.all(metrics["wall_time_s"] == 0.0)  # reserved column
    with open(os.path.join(rec.directory, "run.json")) as fh:
        payload = json.load(fh)
    assert payload["seed"] == 0
    assert payload["config_hash"] == cfg.config_hash()
    assert payload["wall_time_total_s"] > 0


def test_metrics_byte_identical_across_reruns(tmp_path):
    cfg = tiny_cfg()
    a = run_single_seed(cfg, 3, str(tmp_path / "a"))
    b = run_single_seed(cfg, 3, str(tmp_path / "b"))
    assert read_lines(a.metrics_path) == read_lines(b.metrics_path)
    assert read_lines(a.checkpoint_path) == read_lines(b.checkpoint_path)


def test_frozen_skills_never_update_low_level(tmp_path):
    cfg = tiny_cfg(algorithm="frozen_skills", N=4)
    rec = run_single_seed(cfg, 1, str(tmp_path))
    segments, _ = load_checkpoint(rec.checkpoint_path)
    env = cfg.build_env()
    fresh = fresh_low_policy(cfg.pretrain, env, 1)
    assert np.array_equal(segments["pi_l/mean_net"], fresh.params.segment("mean_net"))
    assert np.array_equal(segments["pi_l/log_std"], fresh.params.segment("log_std"))


def test_flat_trpo_runs_and_reports_k_one(tmp_path):
    cfg = tiny_cfg(algorithm="flat_trpo")
    rec = run_single_seed(cfg, 0, str(tmp_path))
    metrics = read_metrics(rec.metrics_path)
    assert np.all(metrics["k"] == 1)
    assert np.all(metrics["low_kl"] == 0.0)
    segments, meta = load_checkpoint(rec.checkpoint_path)
    assert "flat/mean_net" in segments and meta["algorithm"] == "flat_trpo"


def test_training_requires_skills_unless_random_init(tmp_path):
    cfg = tiny_cfg()
    cfg2 = replace(cfg, pretrain=replace(cfg.pretrain, proxy="velocity_direction"))
    with pytest.raises(ConfigError):
        run_single_seed(cfg2, 0, str(tmp_path))


NO_GOAL_MAZE = "#####\n#S..#\n#####\n"


def reward_free_cfg(tmp_path, **kw):
    # goalless strip + no stumble rule: every reward is exactly zero, so
    # both policies keep their startup parameters through training
    maze = tmp_path / "strip.txt"
    maze.write_text(NO_GOAL_MAZE)
    return tiny_cfg(maze_file=str(maze), task="swimmer_maze_lite", **kw)


def test_transfer_none_identical_to_plain_training(tmp_path):
    cfg = tiny_cfg()
    a = run_single_seed(cfg, 2, str(tmp_path / "plain"))
    b = run_single_seed(cfg, 2, str(tmp_path / "none"), transfer="none")
    assert read_lines(a.metrics_path) == read_lines(b.metrics_path)
    assert read_lines(a.checkpoint_path) == read_lines(b.checkpoint_path)


def test_transfer_low_only_loads_only_low_segments(tmp_path):
    # a reward-free maze keeps both policies at their initial values, so
    # the final checkpoint exposes exactly what was loaded at startup
    cfg = reward_free_cfg(tmp_path, N=2)
    env = cfg.build_env()
    donor_low = fresh_low_policy(cfg.pretrain, env, 77)
    donor_high = fresh_high_policy(cfg, env, 77)
    src = tmp_path / "source.bin"
    save_checkpoint(str(src), {
        "pi_h/logits_net": donor_high.params.segment("logits_net").copy(),
        "pi_l/mean_net": donor_low.params.segment("mean_net").copy(),
        "pi_l/log_std": donor_low.params.segment("log_std").copy(),
    })
    rec = run_single_seed(cfg, 5, str(tmp_path / "low_only"), transfer="low_only",
                          source_checkpoint=str(src))
    segments, _ = load_checkpoint(rec.checkpoint_path)
    fresh_h = fresh_high_policy(cfg, env, 5)
    assert np.array_equal(segments["pi_l/mean_net"], donor_low.params.segment("mean_net"))
    assert np.array_equal(segments["pi_h/logits_net"], fresh_h.params.segment("logits_net"))

    rec_both = run_single_seed(cfg, 5, str(tmp_path / "both"), transfer="both",
                               source_checkpoint=str(src))
    seg_both, _ = load_checkpoint(rec_both.checkpoint_path)
    assert np.array_equal(seg_both["pi_h/logits_net"], donor_high.params.segment("logits_net"))


def _short_segments(cfg):
    return {"pi_l/mean_net": np.zeros(3), "pi_l/log_std": np.zeros(2),
            "pi_h/logits_net": np.zeros(4)}


def _without_log_std(cfg):
    env = cfg.build_env()
    segments = policy_segments(pi_h=fresh_high_policy(cfg, env, 0),
                               pi_l=fresh_low_policy(cfg.pretrain, env, 0))
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
        run_single_seed(cfg, 0, str(tmp_path / "run"), transfer="both",
                        source_checkpoint=str(src))


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
    cfg = replace(cfg, pretrain=replace(cfg.pretrain, proxy="velocity_direction",
                                        iterations=1))
    paths = run_pretrain(cfg, str(tmp_path))
    assert set(paths) == {0, 1}
    for seed, path in paths.items():
        segments, meta = load_checkpoint(path)
        assert meta["n_skills"] == cfg.n_skills
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
    run_dir = run_single_seed(cfg, 0, str(tmp_path)).directory
    real = experiment.flat_iteration

    def killed(policy, env, cfg, seed, iteration, low_steps):
        if iteration == 1:
            raise KeyboardInterrupt
        return real(policy, env, cfg, seed, iteration, low_steps)

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
    rec = run_single_seed(cfg, 0, str(tmp_path))
    with open(os.path.join(rec.directory, "trajectories.csv")) as fh:
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
                else _hierarchical(cfg, env, 2, None, None, None))
        _trace_trajectories(str(path), env, algo.trace_policy, 2, **kw)

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
