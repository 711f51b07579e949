"""Pinned output bytes of tiny end-to-end runs.

Each phase runs in its own interpreter through the CLI, with every BLAS
thread count set to 1 and OpenBLAS's Haswell kernel (output bytes depend
on both; every AVX2 x86-64 CPU runs that kernel, whatever kernel OpenBLAS
would pick for it). The sha256 of every
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
from haarlab.checkpoint import load_checkpoint

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

HAAR = ("maze = corridor.txt\nk_0 = 12\nk_s = 3\n"
        "v_max = 1.2\nstumble_threshold = 1.2\n")

CONFIGS = {
    "haar": HAAR,
    # haar's body, as the skills it loads record it
    "frozen_skills": ("maze = c_maze\nv_max = 1.2\nstumble_threshold = 1.2\n"
                      "algorithm = frozen_skills\nk_0 = 5\nk_s = 5\n"),
    "flat_trpo": "algorithm = flat_trpo\nmaze = corridor.txt\n",
    "alternate": HAAR + "mode = alternate\n",
    "haar_no_anneal": HAAR.replace("k_0 = 12", "k_0 = 3"),  # the skill length held at k_s
}

SKILLS = ("--skills", "skills")

# name -> (config, extra train arguments), run in order. Every run but
# the flat baseline starts pi_l from the pre-trained skills, except the
# transfers: both levels, or pi_l alone, start from the haar run.
RUNS = {
    "haar": ("haar", SKILLS),
    "frozen_skills": ("frozen_skills", SKILLS),
    "flat_trpo": ("flat_trpo", ()),
    "alternate": ("alternate", SKILLS),
    "haar_no_anneal": ("haar_no_anneal", SKILLS),
    "cli_override": ("haar", (*SKILLS, "--algorithm", "frozen_skills", "--mode", "alternate",
                              "--seed", "0")),
    "transfer_both": ("haar_no_anneal", ("--skills", "haar", "--high", "haar")),
    "transfer_low_only": ("haar_no_anneal", ("--skills", "haar")),
}

RUN_ARTIFACTS = ("metrics.csv", "diagnostics.csv", "trajectories.csv", "checkpoint.bin")

GOLDEN = {
    "pretrain/seed_0/checkpoint.bin":
        "0f7feb8454845c95eb30400bf1348021db50e3c3cf65656e1563f0d8690d6eb3",
    "haar/metrics.csv":
        "e1cb73c966906a7c54c7edb6628a83ee434ff808b79c1f296a04558d8e3306f3",
    "haar/diagnostics.csv":
        "a3d92b6725ccc7ef10688b9fd9beaccb879cdff9b20f5fb14f21e67633a1a3e6",
    "haar/trajectories.csv":
        "733e4902f0b344f0d1b875f6bd4ad13390f37438cbdb0d3f551850c028f2423b",
    "haar/checkpoint.bin":
        "6c3179e6f67cc6fd763514b467affcd88b5ef940af07e4e7292f710bfbca7b9f",
    "haar/config_hash": "bcc31c5244dd",
    "frozen_skills/metrics.csv":
        "7e8a37745924a4d8eb22a217630082ee3152836e00239ab82f3958ff1b27a136",
    "frozen_skills/diagnostics.csv":
        "de5ab7e3a97ec6646fc2544f5236b47d582f009cbbc65e28cd9f10723f094b30",
    "frozen_skills/trajectories.csv":
        "5e848f7a0d1b1115326ab95a1f0edf8dffa755816aef7b788f130badc63d4211",
    "frozen_skills/checkpoint.bin":
        "51af115aa8358d3e7ac8ea6cf6cde6b48fa263edb61dfdc0deb8ab7e65c80154",
    "frozen_skills/config_hash": "e176f7e64180",
    "flat_trpo/metrics.csv":
        "62c0b0c78c9a53381e1a02b73708f2b9470a91329f0a27d47c2dab440c3b6dec",
    "flat_trpo/diagnostics.csv":
        "ca8f081b981a9f5f782cb91adc269279801ef2a71f2b06f517fb4ec3b69a5be0",
    "flat_trpo/trajectories.csv":
        "df2fc0d661715d881122ec9e43b5981347117464fb566cdc741526ed4957bf2c",
    "flat_trpo/checkpoint.bin":
        "8794731ffbf6edacb1c118f1331e92739112a8aa4e0d727db54dfb7c30d41b55",
    "flat_trpo/config_hash": "eeb9edce057f",
    "alternate/metrics.csv":
        "48591e604d029432c11bd9b76619609fd691bdcfe920916645b4670a1c61582a",
    "alternate/diagnostics.csv":
        "3cc203db61a4eaa240a1a70d01d576f3fb6d8d47647f1d1b3b46b9d86039bff4",
    "alternate/trajectories.csv":
        "105a53bbde787dedb47ef7a39d1450587b2446924956ef345692365a28e93ee3",
    "alternate/checkpoint.bin":
        "63d9226381f2f88093a4e1d78ca46f41f512d6fc9ac91a4548016998e1a87b42",
    "alternate/config_hash": "5509c751b7e8",
    "haar_no_anneal/metrics.csv":
        "c0f00634d2acb68d9b5cfa6f87dc9fb3cd6c3609442f45ef17752b2e5fe6cb62",
    "haar_no_anneal/diagnostics.csv":
        "07c6e3b0300ad9e6ff9d06a2fed6c5d9c72d5e1930ddb87149b829ec4dfd6f20",
    "haar_no_anneal/trajectories.csv":
        "8020ff3741b4d924d56e12b4e9f154881fc599794bd247426118c5a9e09ed4af",
    "haar_no_anneal/checkpoint.bin":
        "b82aa921a28315ce078c38220b1b484021325122ab146238414be83480a6e6a2",
    "haar_no_anneal/config_hash": "7570c9110ce1",
    "cli_override/metrics.csv":
        "6e9a5f1990673957b2cc23d8a1667015bb9696fb17d6a15d7e59c6cc07a81c01",
    "cli_override/diagnostics.csv":
        "604529b419691b897d09c0e62c08e66a5f04e1496e6a2df9aaf2fb4d54dac3ee",
    "cli_override/trajectories.csv":
        "7cab5e082c1a10e7fcd55003c77a644e9d75731afd08864495eb31d727a1520e",
    "cli_override/checkpoint.bin":
        "48787e95638e84b05819bded538d0a74561ca179e70090c5b07beb0266f8b64f",
    "cli_override/config_hash": "ec920270d3b5",
    "transfer_both/metrics.csv":
        "b9488da640d5df9d42ddfa5586581a852021df41ecc81a41b051fde041042729",
    "transfer_both/diagnostics.csv":
        "ab032087d823a504060ca5099fe73f22ef9ee7d1368fa7cdc0bd53dfab6f8850",
    "transfer_both/trajectories.csv":
        "a0d8498f93ff32e005cd889c93c36b113d8c72f321662062170c7565e79bb7db",
    "transfer_both/checkpoint.bin":
        "c41006635adb798b02b3f12b7afeba354c0f52e03e7a28daa4e9e231dcbeae8b",
    "transfer_both/config_hash": "7570c9110ce1",
    "transfer_low_only/metrics.csv":
        "46c8ee8c3985d0c6fae93f8a4c80bcf460857b9055d05f4beb7cd2c58e28d3f6",
    "transfer_low_only/diagnostics.csv":
        "cbf69881dacaccde455512e2fff875f5b889e377d8e2b22ea02cebbf2f9b8210",
    "transfer_low_only/trajectories.csv":
        "5666c504117412b775ca99cd29ae0ffc2180409f36c112e868d42106f14d0f4e",
    "transfer_low_only/checkpoint.bin":
        "6e86cdbb31498d58262e1265e40ec68b46f266b30ccb7ffa947436a92221d5c6",
    "transfer_low_only/config_hash": "7570c9110ce1",
}


def _cli(args, cwd):
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["OPENBLAS_CORETYPE"] = "Haswell"
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
    skills = _sha256(tmp_path / "skills" / "seed_0" / "checkpoint.bin")
    got = {"pretrain/seed_0/checkpoint.bin": skills}
    for name, (config, extra) in RUNS.items():
        _cli(["train", "--config", f"{config}.cfg", "--out", name, *extra], tmp_path)
        run_dir = tmp_path / name / "seed_0"
        for artifact in RUN_ARTIFACTS:
            got[f"{name}/{artifact}"] = _sha256(run_dir / artifact)
        got[f"{name}/config_hash"] = _config_hash(run_dir)
    moved = sorted(key for key in GOLDEN.keys() | got.keys() if got.get(key) != GOLDEN.get(key))
    assert got == GOLDEN, "moved: " + ", ".join(moved)
    # the two transfers and the k_0 = 3 train share a config hash; their
    # checkpoints still say which file each policy started from
    metadata = {name: load_checkpoint(str(tmp_path / name / "seed_0" / "checkpoint.bin"))[1]
                for name in ("flat_trpo", "haar_no_anneal", "transfer_both", "transfer_low_only")}
    haar = got["haar/checkpoint.bin"]
    assert {name: meta["start"] for name, meta in metadata.items()} == {
        "flat_trpo": {}, "haar_no_anneal": {"pi_l": skills},
        "transfer_both": {"pi_l": haar, "pi_h": haar}, "transfer_low_only": {"pi_l": haar}}
    assert len({got[f"{name}/config_hash"] for name in metadata if name != "flat_trpo"}) == 1
    # the hierarchical checkpoints record haar's body; flat TRPO's records none
    assert {name: meta.get("physics") for name, meta in metadata.items()} == {
        "flat_trpo": None, **{name: {"stumble_threshold": 1.2, "v_max": 1.2}
                              for name in ("haar_no_anneal", "transfer_both", "transfer_low_only")}}
    # frozen_skills trips in haar's body too, so its high level still steps
    diagnostics = (tmp_path / "frozen_skills" / "seed_0" / "diagnostics.csv").read_text()
    assert any(row.split(",")[1] == "high" and row.endswith(",True")
               for row in diagnostics.splitlines()[1:])
