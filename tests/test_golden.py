"""Pinned output bytes of tiny end-to-end runs.

Each phase runs in its own interpreter through the CLI, with every BLAS
thread count set to 1 (output bytes depend on it). The sha256 of every
deterministic artifact and the config hash in every run.json must equal
the recorded value, so a change that is meant to be a pure speed-up or
refactor cannot move a single byte.
Re-record the values only for a change that alters results on purpose,
and say so in CHANGES.md.
"""

import hashlib
import json
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

HAAR = ("task = point_maze\nmaze_file = corridor.txt\nk_0 = 12\nk_s = 3\n"
        "v_max = 1.2\nstumble_threshold = 1.2\n")

CONFIGS = {
    "haar": HAAR,
    "frozen_skills": "task = point_gather\nalgorithm = frozen_skills\nk_0 = 5\nk_s = 5\n",
    "flat_trpo": "task = point_maze\nalgorithm = flat_trpo\nmaze_file = corridor.txt\n",
    "alternate": HAAR + "mode = alternate\n",
    "haar_no_anneal": HAAR + "algorithm = haar_no_anneal\n",
}

# name -> (subcommand, config, extra CLI arguments). Every train run but
# the flat baseline starts from the pre-trained skills; the transfers
# start from the haar run's checkpoint.
RUNS = {
    "haar": ("train", "haar", ()),
    "frozen_skills": ("train", "frozen_skills", ()),
    "flat_trpo": ("train", "flat_trpo", ()),
    "alternate": ("train", "alternate", ()),
    "haar_no_anneal": ("train", "haar_no_anneal", ()),
    "cli_override": ("train", "haar",
                     ("--algorithm", "frozen_skills", "--mode", "alternate", "--seed", "0")),
    "transfer_both": ("transfer", "haar", ("--transfer", "both", "--source", "haar")),
    "transfer_low_only": ("transfer", "haar", ("--transfer", "low_only", "--source", "haar")),
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
        "2ecd6992eb8ef4ad23e1d16cab15deb9f716edbda8131ef9cb32857575cf5694",
    "haar/checkpoint.bin":
        "c3e481e867d37cbce5460f304bab9f712f6d5f8ed90a42d4f18fed416e0a38a3",
    "haar/config_hash": "08c222801c74",
    "frozen_skills/metrics.csv":
        "f4072a9da8264c06cbe36fb030645bfdf133d25b00aac5f2834f7665e0a0c281",
    "frozen_skills/diagnostics.csv":
        "43ff2a126828e06da09e022790cf9d0f1ec2b8b10b39d76ea8f25666e39c118a",
    "frozen_skills/trajectories.csv":
        "38fd4ed83e027cd78a54db9abe67e56348418887f597aace4b7d6e8793666ecb",
    "frozen_skills/checkpoint.bin":
        "20852e3c1c3b1a15c6f7b225d5a6aa53a8f5901eb8b078f8bc9278bc68fae106",
    "frozen_skills/config_hash": "394a454acaaf",
    "flat_trpo/metrics.csv":
        "a6faa79b6b22ac7fbca48f98dd551d838dab8a62a480b0b293a82f8e15684625",
    "flat_trpo/diagnostics.csv":
        "d6fd6b31f100125f349e326265c08b31e767d29714911adf8f298ce083e78f3d",
    "flat_trpo/trajectories.csv":
        "8b43caf1eb8471f8364aaca3195b9d50d49e67dab121989eaae4449424d9bdfe",
    "flat_trpo/checkpoint.bin":
        "d57daee0e2491137df705c48c2a46fb31bf77daceebc55317389b08b07c0734c",
    "flat_trpo/config_hash": "abcafbd883fa",
    "alternate/metrics.csv":
        "9aeac4026e4188b2edfe750b6be068809ea17a721109fbd04959bb8be79a6e66",
    "alternate/diagnostics.csv":
        "c43cadc4d55df3d41b9937e3ef54fd12571ab1e4209c7f07d11de0bb9f6d8c9e",
    "alternate/trajectories.csv":
        "d8aff13326e07faf0bb747be64b8165e60d14ccf4a05f32f08ca7d8a2b3c3e3d",
    "alternate/checkpoint.bin":
        "78e1345422637e9ad5d649766c883ac451dcaf45766b7a7f6239097a8d386414",
    "alternate/config_hash": "777d15e2fb34",
    "haar_no_anneal/metrics.csv":
        "e7e81caaad0e2c0d45f95862f8889014b21d62a2e0465a955d99c860fa5bea19",
    "haar_no_anneal/diagnostics.csv":
        "a16ef85ed8983332ba42228b796887c4283d325bd42860e5a922256dcaabad36",
    "haar_no_anneal/trajectories.csv":
        "7d9461058e0e960cbe500ec36580dda1954e1ee59f94c576ac824f0387bdcd70",
    "haar_no_anneal/checkpoint.bin":
        "faa567d2ca2768d7a4b23af6ac3b81597db1e2c149f3bd1e72720a52984ad2d4",
    "haar_no_anneal/config_hash": "d10f47004bb0",
    "cli_override/metrics.csv":
        "ab52d9300cc5edaba12a827bc02c865215e6a5b64ca5a8814b7ee9a8f533b7ec",
    "cli_override/diagnostics.csv":
        "4288cb5eb864dc4c60e34a2e379a545f14f2efb4b419bc5942079d6b99648e0c",
    "cli_override/trajectories.csv":
        "c72fec564ee001cad43ddfe6d3d4abc228ce98fa73f8911678ba51f11eda6689",
    "cli_override/checkpoint.bin":
        "bee0814538370ebcbde5260be492e3eac3bae45218af69da634278d9b427cd58",
    "cli_override/config_hash": "5b51a2c177a2",
    "transfer_both/metrics.csv":
        "2ddcd04aefc764f862d25a00857a0cbec14f169f6fbc4520dd79e6ad1fa07506",
    "transfer_both/diagnostics.csv":
        "8719c53488eea96aa6b347a37776cf71b813b51fe50a18424d69c089590eedff",
    "transfer_both/trajectories.csv":
        "38642e94176d69000dc310710515534d2c5e4270ca22cce78e00179599e55a51",
    "transfer_both/checkpoint.bin":
        "b882c9f08997a6a8fbcbd5152e7760322234e8e121b27714a5b8c731e5d06cc6",
    "transfer_both/config_hash": "68488093d649",
    "transfer_low_only/metrics.csv":
        "0caffc6edb71ead8fdf3db15497f65c26f5babbe6cede576bc390ec6a073a5d8",
    "transfer_low_only/diagnostics.csv":
        "c5bf0f0b29d014d03aa9a03489c197a2e9dead7663e0855fbcd9131469c1ec15",
    "transfer_low_only/trajectories.csv":
        "25fadf7ee3979c0f3ac815a5febf1111c4e73450b0a8732c7271b70940ee3bfd",
    "transfer_low_only/checkpoint.bin":
        "131545d4023030e68fc3c046795a9395770ff1889cd503c0a973f25478fe53ea",
    "transfer_low_only/config_hash": "68488093d649",
}


def _cli(args, cwd):
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    src = os.path.dirname(os.path.dirname(os.path.abspath(haarlab.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "haarlab.cli", *args, "--quiet"],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def _config_hash(run_dir):
    with open(run_dir / "run.json") as fh:
        return json.load(fh)["config_hash"]


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_tiny_runs_match_recorded_bytes(tmp_path):
    (tmp_path / "corridor.txt").write_text(CORRIDOR)
    for name, text in CONFIGS.items():
        (tmp_path / f"{name}.cfg").write_text(COMMON + text)
    _cli(["pretrain", "--config", "haar.cfg", "--out", "skills"], tmp_path)
    got = {"pretrain/skills_seed_0.bin": _sha256(tmp_path / "skills" / "skills_seed_0.bin")}
    for name, (command, config, extra) in RUNS.items():
        args = [command, "--config", f"{config}.cfg", "--out", name, *extra]
        if command == "train" and config != "flat_trpo":
            args += ["--skills", "skills"]
        _cli(args, tmp_path)
        run_dir = tmp_path / name / "seed_0"
        for artifact in RUN_ARTIFACTS:
            got[f"{name}/{artifact}"] = _sha256(run_dir / artifact)
        got[f"{name}/config_hash"] = _config_hash(run_dir)
    assert got == GOLDEN
