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
    "frozen_skills": "maze = gather\nalgorithm = frozen_skills\nk_0 = 5\nk_s = 5\n",
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
        "29168d89b5cd7de0bcc44564fdca52a57aa6f84430c0d4a4e11cf13ef5f191dc",
    "haar/metrics.csv":
        "9094895400bec327ec08ee7d66674b1916753f5b4d7215278d0a1e5260dffc97",
    "haar/diagnostics.csv":
        "f2a28dc9b2d758a5ba83b57dd6b2db6147c39a9c5c8b3c3ab2367746d51b8c63",
    "haar/trajectories.csv":
        "d85f34fdef2bde6d749cc5299cc873f5aa15536024c553993c95418e112b904a",
    "haar/checkpoint.bin":
        "d7ba926f43df33e3c13ae3704592285fd3d6d328bb0a11505c1204957aab971c",
    "haar/config_hash": "531971ac9afb",
    "frozen_skills/metrics.csv":
        "c935c4ad7e917f2984246c60f2c99383122fefb9f4f2b354bbe8fed890c116c1",
    "frozen_skills/diagnostics.csv":
        "d01f575eb57fc00b81e96044b6bd0c42b3c4c99f1177a696aa834db4201ca86d",
    "frozen_skills/trajectories.csv":
        "5f91776452880a8f1a388cba58d2ef66535b3d42788c7bea713258ad04475998",
    "frozen_skills/checkpoint.bin":
        "b49922d2fe96547c350d7b81f542647d4c76f327db23217b35f3aa8927f26c98",
    "frozen_skills/config_hash": "03240a9000f7",
    "flat_trpo/metrics.csv":
        "896d4e6e7de990608f557be29cecf39c4cee2794d802f2eece6790953d98b600",
    "flat_trpo/diagnostics.csv":
        "046e907075337da381545b628c8297147850654c620bfa8a6568a9599a560796",
    "flat_trpo/trajectories.csv":
        "d8a3a0758f997e42deb37d96bc111e09cb6e02bc6f678825615113717848a340",
    "flat_trpo/checkpoint.bin":
        "3a987cff3947edc03e2278cf3d763cd74aaa1737ae90d6a7d3f3dfec9fdefccc",
    "flat_trpo/config_hash": "af3f36b8ef90",
    "alternate/metrics.csv":
        "afc3417776f9c555d2bfdc1dd8e3570ebfb084031e2f56451dac2395af4820b3",
    "alternate/diagnostics.csv":
        "a809b77466377e8b1c02967be06509a77d52fbe30255f8b075adb4f8d2326db5",
    "alternate/trajectories.csv":
        "bf0cce57d865db6b52fa23db8d27c42206ca109d2227bebae2e28918967442a8",
    "alternate/checkpoint.bin":
        "f476b5f1de3a61ff5ed3c1ee879394ecb47b4fb9cf993cd67ac3ef23cda804f0",
    "alternate/config_hash": "4881b3c9e36d",
    "haar_no_anneal/metrics.csv":
        "e822a2bf8b086c0f96424bb46af933794b006947279aa7a4247c6427ddbb37dd",
    "haar_no_anneal/diagnostics.csv":
        "2a173aa1a59cc6c636f3988dbc9dd19e80e14a15b8e5fd6c815f1075b7195dac",
    "haar_no_anneal/trajectories.csv":
        "73722373acea99415a21ba6f9a2948c9fb32d72221deeab5a3faa4af56de8199",
    "haar_no_anneal/checkpoint.bin":
        "adb16d81af8ea2cf2a1eb7f1c7871d2a4fb734783c37c6a07a9fabcf92309f86",
    "haar_no_anneal/config_hash": "9fbc97dc4d6d",
    "cli_override/metrics.csv":
        "0e5bef6de97cb46db5c59e9d59d0cfbd8e5b055aa3fe77845c171404559cf228",
    "cli_override/diagnostics.csv":
        "d69eacca49577cad63fbb840e1029f0b66f037b09e0377ddfb00b21b4094048d",
    "cli_override/trajectories.csv":
        "94ab99ad9796232d6352c697e1e6d00458a1d9828e0833c20421ed6d199389f2",
    "cli_override/checkpoint.bin":
        "b041f43af7399fb55ca619fc1886ee875fdc4a60f10aaba5162aa728c034770d",
    "cli_override/config_hash": "bb429e6def9f",
    "transfer_both/metrics.csv":
        "806135d4dc479512c1b84024e36280b0ef0c78c142e3a6e0355c42c65f65e098",
    "transfer_both/diagnostics.csv":
        "a8fa7045eec1cc54e8b81b8bea6356473e2a438947cc5c61cff48929f308dbb4",
    "transfer_both/trajectories.csv":
        "306700ef0d67fd9373ebe265f0b3719fb3137dcc55081083b0d853e53ea71e5e",
    "transfer_both/checkpoint.bin":
        "eb3d6d2ae2f816e98e72ca270df85555886ad09baff418ac16a0d4d19a3125f7",
    "transfer_both/config_hash": "9fbc97dc4d6d",
    "transfer_low_only/metrics.csv":
        "93df42c4274065474713bd8ee33d41e3977646a116d4b8c09cbc81565ae9ce5f",
    "transfer_low_only/diagnostics.csv":
        "db89e6ad2e479f87b16908a50c88f0217aeed828047c24a98c0473277c1d42dd",
    "transfer_low_only/trajectories.csv":
        "3ace1b36133a286a5d022173310e62a941e18288ec9751db08011dcd95a60c87",
    "transfer_low_only/checkpoint.bin":
        "6917c2d2301bdcaa0b364430593936173bf7d9b167af21fc1b653437ef4cb720",
    "transfer_low_only/config_hash": "9fbc97dc4d6d",
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
