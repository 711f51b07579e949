"""Pinned output bytes of tiny end-to-end runs.

Each phase runs in its own interpreter through the CLI, with every BLAS
thread count set to 1 (output bytes depend on it). The sha256 of every
deterministic artifact must equal the recorded value, so a change that
is meant to be a pure speed-up or refactor cannot move a single byte.
Re-record the values only for a change that alters results on purpose,
and say so in CHANGES.md.
"""

import hashlib
import os
import subprocess
import sys

import haarlab

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# A corridor whose goal a near-random policy reaches within T steps, so
# the goal branch of the dynamics shows up in the pinned bytes.
CORRIDOR = """\
#####
#SG.#
#####
"""

COMMON = """\
N = 3
B = 300
T = 60
seeds = 0
pretrain.iterations = 2
pretrain.batch_low_steps = 300
pretrain.episode_steps = 50
"""

CONFIGS = {
    "haar": ("task = point_maze\nmaze_file = corridor.txt\nk_0 = 12\nk_s = 3\n"
             "v_max = 1.2\nstumble_threshold = 1.2\n"),
    "frozen_skills": "task = point_gather\nalgorithm = frozen_skills\nk_0 = 5\nk_s = 5\n",
    "flat_trpo": "task = point_maze\nalgorithm = flat_trpo\nmaze_file = corridor.txt\n",
}

RUN_ARTIFACTS = ("metrics.csv", "diagnostics.csv", "trajectories.csv", "checkpoint.bin")

GOLDEN = {
    "pretrain/skills_seed_0.bin":
        "494708ebe6076f0b462e2fb5085d9d6b407b20ef6f58cb6dad1d3b886dbf04af",
    "haar/metrics.csv":
        "ab46a7322843b7d5e90d88b6494f5837369f16621cd5283d0d0f2626c4dcf40b",
    "haar/diagnostics.csv":
        "ba16ea9a82645d4863e84143f59cf40b6144b2c0fbfb57e2c5c86c8da2223c1a",
    "haar/trajectories.csv":
        "75de9d6924cc79bc7ac5dc2d9a9276f9159eeb754f6fb34570a98335ff19d160",
    "haar/checkpoint.bin":
        "c3e481e867d37cbce5460f304bab9f712f6d5f8ed90a42d4f18fed416e0a38a3",
    "frozen_skills/metrics.csv":
        "f4072a9da8264c06cbe36fb030645bfdf133d25b00aac5f2834f7665e0a0c281",
    "frozen_skills/diagnostics.csv":
        "43ff2a126828e06da09e022790cf9d0f1ec2b8b10b39d76ea8f25666e39c118a",
    "frozen_skills/trajectories.csv":
        "38fd4ed83e027cd78a54db9abe67e56348418887f597aace4b7d6e8793666ecb",
    "frozen_skills/checkpoint.bin":
        "20852e3c1c3b1a15c6f7b225d5a6aa53a8f5901eb8b078f8bc9278bc68fae106",
    "flat_trpo/metrics.csv":
        "a6faa79b6b22ac7fbca48f98dd551d838dab8a62a480b0b293a82f8e15684625",
    "flat_trpo/diagnostics.csv":
        "d6fd6b31f100125f349e326265c08b31e767d29714911adf8f298ce083e78f3d",
    "flat_trpo/trajectories.csv":
        "8b43caf1eb8471f8364aaca3195b9d50d49e67dab121989eaae4449424d9bdfe",
    "flat_trpo/checkpoint.bin":
        "d57daee0e2491137df705c48c2a46fb31bf77daceebc55317389b08b07c0734c",
}


def _cli(args, cwd):
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    src = os.path.dirname(os.path.dirname(os.path.abspath(haarlab.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "haarlab.cli", *args, "--quiet"],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_tiny_runs_match_recorded_bytes(tmp_path):
    (tmp_path / "corridor.txt").write_text(CORRIDOR)
    for name, text in CONFIGS.items():
        (tmp_path / f"{name}.cfg").write_text(COMMON + text)
    _cli(["pretrain", "--config", "haar.cfg", "--out", "skills"], tmp_path)
    got = {"pretrain/skills_seed_0.bin": _sha256(tmp_path / "skills" / "skills_seed_0.bin")}
    for name in CONFIGS:
        args = ["train", "--config", f"{name}.cfg", "--out", name]
        if name != "flat_trpo":
            args += ["--skills", "skills"]
        _cli(args, tmp_path)
        for artifact in RUN_ARTIFACTS:
            got[f"{name}/{artifact}"] = _sha256(tmp_path / name / "seed_0" / artifact)
    assert got == GOLDEN
