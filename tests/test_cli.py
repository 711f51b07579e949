import csv
import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from haarlab.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from haarlab.cli import _resolve_per_seed, main
from haarlab.config import ConfigError, load_config

TINY = """
algorithm = haar
N = 2
B = 150
T = 30
k_0 = 6
k_s = 3
seeds = 0
pretrain.iterations = 1
pretrain.batch_low_steps = 100
pretrain.episode_steps = 25
"""
UNTRAINED = TINY.replace("pretrain.iterations = 1", "pretrain.iterations = 0")


def write_cfg(tmp_path, text=TINY, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_pretrain_then_train_then_report(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    skills_dir = str(tmp_path / "skills")
    assert main(["pretrain", "--config", cfg, "--out", skills_dir, "--quiet"]) == 0
    assert os.path.exists(os.path.join(skills_dir, "seed_0", "checkpoint.bin"))
    assert os.path.exists(os.path.join(skills_dir, "seed_0", "pretrain.json"))

    run_dir = str(tmp_path / "runs")
    assert main(["train", "--config", cfg, "--out", run_dir, "--skills", skills_dir,
                 "--quiet"]) == 0
    assert os.path.exists(os.path.join(run_dir, "seed_0", "metrics.csv"))

    report = str(tmp_path / "report.csv")
    assert main(["report", "--runs", run_dir, "--out", report]) == 0
    with open(report) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2  # N iterations


def test_train_without_skills_fails_cleanly(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code = main(["train", "--config", cfg, "--out", str(tmp_path / "r"), "--quiet"])
    assert code == 2
    assert "pre-trained skills" in capsys.readouterr().err
    assert not (tmp_path / "r" / "seed_0").exists()  # a refused run used to leave it empty


def test_untrained_skills_run_as_zero_pretraining_iterations(tmp_path):
    # pretrain.iterations = 0 is the untrained-skills arm: a train without
    # --skills runs as one from the skills that zero iterations write
    cfg = write_cfg(tmp_path, text=UNTRAINED)
    skills = str(tmp_path / "skills")
    assert main(["pretrain", "--config", cfg, "--out", skills, "--quiet"]) == 0
    runs = []
    for name, extra in (("bare", []), ("pretrained", ["--skills", skills])):
        assert main(["train", "--config", cfg, "--out", str(tmp_path / name), *extra,
                     "--quiet"]) == 0
        runs.append(tmp_path / name / "seed_0")
    bare, pretrained = runs
    assert (bare / "metrics.csv").read_bytes() == (pretrained / "metrics.csv").read_bytes()
    (segments, metadata), (want, want_metadata) = (
        load_checkpoint(str(run / "checkpoint.bin")) for run in runs)
    # only the record of what each run started from differs
    assert metadata.pop("start") == {}
    assert want_metadata.pop("start") == {"pi_l": sha256(os.path.join(skills, "seed_0",
                                                                       "checkpoint.bin"))}
    assert metadata == want_metadata and segments.keys() == want.keys()
    assert all(segments[key].tobytes() == want[key].tobytes() for key in want)


def test_missing_skills_checkpoint_fails(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code = main(["train", "--config", cfg, "--out", str(tmp_path / "r"),
                 "--skills", str(tmp_path / "nope.bin"), "--quiet"])
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_one_skills_file_serves_every_seed(tmp_path):
    path = tmp_path / "skills.bin"
    path.write_bytes(b"")
    assert _resolve_per_seed(str(path), (0, 1)) == {0: str(path), 1: str(path)}


def test_skills_directory_missing_a_seed_names_it(tmp_path):
    (tmp_path / "seed_0").mkdir()
    (tmp_path / "seed_0" / "checkpoint.bin").write_bytes(b"")
    with pytest.raises(CheckpointError, match="seed 1 not found"):
        _resolve_per_seed(str(tmp_path), (0, 1))


def test_skills_run_directory_resolves_each_seeds_checkpoint(tmp_path):
    # pretrain and train both write seed_<n>/checkpoint.bin; --skills
    # used to look for skills_seed_<n>.bin in any directory
    cfg = write_cfg(tmp_path, text=UNTRAINED)
    run = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(run), "--seed", "0,1", "--quiet"]) == 0
    assert _resolve_per_seed(str(run), (0, 1)) == {
        seed: os.path.join(str(run), f"seed_{seed}", "checkpoint.bin") for seed in (0, 1)}
    out = tmp_path / "from_run"
    assert main(["train", "--config", cfg, "--out", str(out), "--seed", "0,1",
                 "--skills", str(run), "--quiet"]) == 0
    for seed in (0, 1):
        with open(out / f"seed_{seed}" / "run.json") as fh:
            assert json.load(fh)["start"] == {
                "pi_l": sha256(run / f"seed_{seed}" / "checkpoint.bin")}


def test_report_runs_given_a_file_fails_cleanly(tmp_path, capsys):
    runs = write_cfg(tmp_path)  # a file where a run directory belongs
    code = main(["report", "--runs", runs, "--out", str(tmp_path / "report.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_config_given_a_directory_fails_cleanly(tmp_path, capsys):
    code = main(["train", "--config", str(tmp_path), "--out", str(tmp_path / "r"), "--quiet"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_config_fails_with_nonzero_exit(tmp_path, capsys):
    cfg = write_cfg(tmp_path, text="algorithm = quake\n", name="bad.cfg")
    code = main(["train", "--config", cfg, "--out", str(tmp_path / "r"), "--quiet"])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "pretrain"])
def test_unknown_maze_kind_fails_before_writing(command, tmp_path, capsys):
    cfg = write_cfg(tmp_path, text=TINY + "maze = hexagon\n", name="bad.cfg")
    out = tmp_path / "r"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert "unknown maze kind 'hexagon'" in capsys.readouterr().err
    assert not (out / "seed_0").exists()


def test_deleted_gather_kind_is_refused_before_writing(tmp_path, capsys):
    # an arena deleted for sensing nothing it was paid for (README) is now
    # an unknown kind
    cfg = write_cfg(tmp_path, text=TINY + "maze = gather\n", name="deleted.cfg")
    with pytest.raises(ConfigError, match=r"unknown maze kind 'gather' \(choose from \('c_maze', "
                                          r"'mirrored', 'spiral', 'open_field'\)"):
        load_config(cfg)
    out = tmp_path / "r"
    assert main(["train", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert "unknown maze kind 'gather'" in capsys.readouterr().err
    assert not out.exists()


def test_cli_train_is_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, text=UNTRAINED)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["train", "--config", cfg, "--out", a, "--quiet"]) == 0
    assert main(["train", "--config", cfg, "--out", b, "--quiet"]) == 0
    pa = os.path.join(a, "seed_0", "metrics.csv")
    pb = os.path.join(b, "seed_0", "metrics.csv")
    assert Path(pa).read_bytes() == Path(pb).read_bytes()


@pytest.mark.parametrize("quiet", [False, True], ids=["loud", "quiet"])
def test_pretrain_progress_follows_quiet(tmp_path, capsys, quiet):
    cfg = write_cfg(tmp_path)
    args = ["pretrain", "--config", cfg, "--out", str(tmp_path / "skills")]
    assert main(args + ["--quiet"] * quiet) == 0
    lines = capsys.readouterr().out.splitlines()
    assert ("finished 0" in lines) is not quiet
    assert any(line.startswith("seed 0: ") for line in lines)


@pytest.mark.parametrize("quiet", [False, True], ids=["loud", "quiet"])
def test_train_progress_names_each_iteration_and_follows_quiet(tmp_path, capsys, quiet):
    cfg = write_cfg(tmp_path, text=UNTRAINED)
    args = ["train", "--config", cfg, "--out", str(tmp_path / "r")]
    assert main(args + ["--quiet"] * quiet) == 0
    lines = capsys.readouterr().out.splitlines()
    iters = [line.split(" k=")[0] for line in lines if " iter " in line]
    assert iters == ([] if quiet else ["seed 0 iter 1/2", "seed 0 iter 2/2"])


def test_seed_override(tmp_path):
    cfg = write_cfg(tmp_path, text=UNTRAINED)
    out = str(tmp_path / "runs")
    assert main(["train", "--config", cfg, "--out", out, "--seed", "5,6",
                 "--quiet"]) == 0
    assert os.path.exists(os.path.join(out, "seed_5"))
    assert os.path.exists(os.path.join(out, "seed_6"))


def test_algorithm_override_keeps_the_file_k0(tmp_path):
    # --algorithm haar on a frozen_skills file anneals from the file's
    # k_0, as a file that says haar does
    frozen = UNTRAINED.replace("algorithm = haar", "algorithm = frozen_skills")
    other = write_cfg(tmp_path, text=frozen, name="frozen.cfg")
    plain = write_cfg(tmp_path, text=UNTRAINED)
    out, ref = str(tmp_path / "override"), str(tmp_path / "haar")
    assert main(["train", "--config", other, "--algorithm", "haar", "--out", out,
                 "--quiet"]) == 0
    assert main(["train", "--config", plain, "--out", ref, "--quiet"]) == 0
    with open(os.path.join(out, "seed_0", "metrics.csv")) as fh:
        assert [row["k"] for row in csv.DictReader(fh)] == ["6", "3"]
    for name in ("metrics.csv", "checkpoint.bin"):
        with open(os.path.join(out, "seed_0", name), "rb") as a, \
                open(os.path.join(ref, "seed_0", name), "rb") as b:
            assert a.read() == b.read()


def test_transfer_modes_via_cli(tmp_path):
    # both levels start from the source run with --skills and --high, the
    # low level alone with --skills; each run records the files it loaded
    cfg = write_cfg(tmp_path, text=UNTRAINED)
    src = str(tmp_path / "src")
    assert main(["train", "--config", cfg, "--out", src, "--quiet"]) == 0
    source = sha256(os.path.join(src, "seed_0", "checkpoint.bin"))

    target_text = UNTRAINED + "maze = mirrored\n"
    tcfg = write_cfg(tmp_path, text=target_text, name="target.cfg")
    for name, extra, start in (("both", ["--high", src], {"pi_l": source, "pi_h": source}),
                               ("low_only", [], {"pi_l": source})):
        out = str(tmp_path / f"tr_{name}")
        assert main(["train", "--config", tcfg, "--skills", src, *extra, "--out", out,
                     "--quiet"]) == 0
        with open(os.path.join(out, "seed_0", "run.json")) as fh:
            assert json.load(fh)["start"] == start
        assert load_checkpoint(os.path.join(out, "seed_0", "checkpoint.bin"))[1]["start"] == start


def test_transfer_command_is_gone(tmp_path, capsys):
    # a transfer is a train that starts from checkpoints
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["transfer", "--config", write_cfg(tmp_path), "--source", "src",
              "--transfer", "both", "--out", str(out), "--quiet"])
    assert exc.value.code == 2
    assert "invalid choice: 'transfer'" in capsys.readouterr().err
    assert not out.exists()


FLAT = "algorithm = flat_trpo\nN = 1\nB = 100\nT = 25\n"


def test_flat_trpo_refuses_transfer(tmp_path, capsys):
    # it used to exit 0 with a from-scratch run whose run.json said "both"
    cfg = write_cfg(tmp_path, text=FLAT)
    src = str(tmp_path / "src")
    assert main(["train", "--config", cfg, "--out", src, "--quiet"]) == 0
    out = tmp_path / "tr"
    for start in (["--high", src], ["--skills", src, "--high", src]):
        assert main(["train", "--config", cfg, *start, "--out", str(out), "--quiet"]) == 2
        assert "flat_trpo" in capsys.readouterr().err
    assert not (out / "seed_0").exists()


def test_flat_trpo_refuses_alternate_mode(tmp_path, capsys):
    # it used to run as concurrent while run.json echoed alternate
    out = tmp_path / "flat"
    assert main(["train", "--config", write_cfg(tmp_path, text=FLAT), "--mode", "alternate",
                 "--out", str(out), "--quiet"]) == 2
    assert "flat_trpo" in capsys.readouterr().err
    assert not out.exists()


def test_transfer_checks_every_seed_source_before_the_first_seed_runs(tmp_path, capsys):
    # seed 1's source lacks a segment: the transfer used to train all of
    # seed 0 and only then fail on seed 1
    cfg = write_cfg(tmp_path, text=UNTRAINED)
    src = tmp_path / "src"
    assert main(["train", "--config", cfg, "--out", str(src), "--seed", "0,1", "--quiet"]) == 0
    path = str(src / "seed_1" / "checkpoint.bin")
    segments, metadata = load_checkpoint(path)
    del segments["pi_l/mean_net"]
    save_checkpoint(path, segments, metadata)
    out = tmp_path / "tr"
    assert main(["train", "--config", cfg, "--skills", str(src), "--high", str(src),
                 "--seed", "0,1", "--out", str(out), "--quiet"]) == 2
    assert "lacks segment 'pi_l/mean_net'" in capsys.readouterr().err
    assert not (out / "seed_0").exists()


def test_train_refuses_skills_of_another_body(tmp_path, capsys):
    # skills pre-trained with trips, loaded by a train without them
    skills = tmp_path / "skills"
    assert main(["pretrain", "--config", write_cfg(tmp_path), "--out", str(skills),
                 "--quiet"]) == 0
    no_trips = write_cfg(tmp_path, TINY + "stumble_threshold = inf\n", "no_trips.cfg")
    out = tmp_path / "run"
    assert main(["train", "--config", no_trips, "--skills", str(skills), "--out", str(out),
                 "--quiet"]) == 2
    assert ("physics {'stumble_threshold': 1.5, 'v_max': 2.0}, but the config runs "
            "{'stumble_threshold': inf, 'v_max': 2.0}") in capsys.readouterr().err
    assert not out.exists()


def test_flat_trpo_refuses_skills(tmp_path, capsys):
    skills = tmp_path / "skills"
    assert main(["pretrain", "--config", write_cfg(tmp_path), "--out", str(skills),
                 "--quiet"]) == 0
    out = tmp_path / "flat"
    assert main(["train", "--config", write_cfg(tmp_path, text=FLAT, name="flat.cfg"),
                 "--out", str(out), "--skills", str(skills), "--quiet"]) == 2
    assert "flat_trpo" in capsys.readouterr().err
    assert not (out / "seed_0").exists()


def test_pretrain_mode_rejected_at_parse_time(tmp_path, capsys):
    # pre-training has no training mode to override
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["pretrain", "--config", write_cfg(tmp_path), "--out", str(out),
              "--mode", "alternate", "--quiet"])
    assert exc.value.code == 2
    assert "--mode" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, extra", [
    ("pretrain", ()), ("train", ("--skills", "src", "--high", "src"))])
def test_jobs_below_one_rejected_at_parse_time(tmp_path, capsys, command, extra):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    for bad in ("0", "-3", "x"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg, "--out", str(out), "--jobs", bad, "--quiet", *extra])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


def test_theory_check_cli(tmp_path):
    out = str(tmp_path / "theory.csv")
    assert main(["theory-check", "--out", out, "--instances", "5", "--seed", "3"]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    assert all(r["pass"] == "True" for r in rows)
    assert max(float(r["decomposition_residual"]) for r in rows) <= 1e-8


def test_theory_check_rejects_zero_instances(tmp_path, capsys):
    out = tmp_path / "theory.csv"
    for bad in ("0", "-1"):
        code = main(["theory-check", "--out", str(out), "--instances", bad])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
