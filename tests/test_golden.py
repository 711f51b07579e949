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
    "frozen_skills": ("maze = c_maze\nstumble_threshold = 0.9\nalgorithm = frozen_skills\n"
                      "k_0 = 5\nk_s = 5\n"),
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
        "55f332d9991a39444db3e8a443d62e3342c7e7850666a4cbf23eafe9f1d16555",
    "haar/metrics.csv":
        "40d5735d4298c501a4d5771fa66b5f8981973e9d2812ee3d8b31436f95861788",
    "haar/diagnostics.csv":
        "93e2796d99925b9de25a4fa99880f1d31ccc00b151670f441a5725c4bc9bfb20",
    "haar/trajectories.csv":
        "778c160ff6d77772111015f4ccd8fa7a60e125190bea547847f41a109e86ef29",
    "haar/checkpoint.bin":
        "9ca045341511e350299818265475dcdaa5c114ff1cd787fc6fe37c47d53bf422",
    "haar/config_hash": "bcc31c5244dd",
    "frozen_skills/metrics.csv":
        "30c9f18701411cdec32f33045f3aa6a90dd667f360b4d6f25c69834c7c96d2b3",
    "frozen_skills/diagnostics.csv":
        "0afa45fe9d1ec90270013c80b3cb2fb0aa8ac22600dd8b47905eea8aef99e1ae",
    "frozen_skills/trajectories.csv":
        "1baa116531a08341b27cfb95c3fa7b4eae8f67cc192dfa4730b32b6b46b03989",
    "frozen_skills/checkpoint.bin":
        "8b46f30fecbfbaee34f5755ac20afaafb413e0e58fa0c30405051bb82d41b396",
    "frozen_skills/config_hash": "cc72a8d55b14",
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
        "e19ebbbb77f0f0359dec25625b509ff7aded57d27d4be10ac8d742c93b30b94b",
    "alternate/diagnostics.csv":
        "83448b141d001fc2ed4de36f3176769fe69343bfde0e3262a664997018be724f",
    "alternate/trajectories.csv":
        "08a40a86154a044dabe3832f03f8cf3f687dba455179fe4466cce072f7b5dbcf",
    "alternate/checkpoint.bin":
        "a4025484f37b192971cc877c6767f8244e802a56f6aed9a0b3171f000b783fae",
    "alternate/config_hash": "5509c751b7e8",
    "haar_no_anneal/metrics.csv":
        "f350f6ebb91d8152f4a84580ab36017a57c66e77710fca5dbf0c2214ae9bf29c",
    "haar_no_anneal/diagnostics.csv":
        "585be355fd66b1083ec0ce2bb6b111cc49a6e43ad3787df20a96275c2efac59b",
    "haar_no_anneal/trajectories.csv":
        "3ab2a7500f8ad315698bb0b714544decb1392aba1e8a0b3d9a67d7e9f576a9cf",
    "haar_no_anneal/checkpoint.bin":
        "7a2a623903cb1f845aee7b5b1f47d9e2279ee393cb5b352a171a978187855750",
    "haar_no_anneal/config_hash": "7570c9110ce1",
    "cli_override/metrics.csv":
        "c098c0ffb484aa7d6069ef40a19a15d49dad023361a6c226233fbb9f30a92c6c",
    "cli_override/diagnostics.csv":
        "4574d3b425b23674d27d0fc101bbaa2f44630feeb9628f8e8a52aa2734d5d2a7",
    "cli_override/trajectories.csv":
        "2271bce4a2593f23de320f02de52ac388bfba06e7898c1a1f08f23d33074021b",
    "cli_override/checkpoint.bin":
        "ffabb0a37a6b2313e0b55589298c652cdd8666be330aef97379db1406713074d",
    "cli_override/config_hash": "ec920270d3b5",
    "transfer_both/metrics.csv":
        "f5325cf85c34507adabad7ba35d31e0a7cee48cb301afa41dab62772dab9364f",
    "transfer_both/diagnostics.csv":
        "e375772254e8c93f3bedfca7cdbc0b58966b1c19498d937969952b46b3055454",
    "transfer_both/trajectories.csv":
        "7d6051234f5bf673a5cd0e57b89026d4676493220b09a57491b4a79f1f7c0e80",
    "transfer_both/checkpoint.bin":
        "2ba793e422ef3aab6db77f2686936d7a1a2c3f5bce714b6c36ab07b1aba38dfe",
    "transfer_both/config_hash": "7570c9110ce1",
    "transfer_low_only/metrics.csv":
        "5171c6ffc587af7b64e488f71b5cd965355d62a082ce411f9582d78e38f767d4",
    "transfer_low_only/diagnostics.csv":
        "8f4387aa6630ade45c637c0486da3724e1103e82b4e3eda7cd1aa670bd65aba4",
    "transfer_low_only/trajectories.csv":
        "0864196b1d1a01a1d03e45de6158eccc99711d317ba9c299d60200ef99aa45c8",
    "transfer_low_only/checkpoint.bin":
        "43e04b3aebde1cf34c99463eca321abbc4d7548d72a63a2d6cce863434f4a52b",
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
