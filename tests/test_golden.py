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
        "29168d89b5cd7de0bcc44564fdca52a57aa6f84430c0d4a4e11cf13ef5f191dc",
    "haar/metrics.csv":
        "9094895400bec327ec08ee7d66674b1916753f5b4d7215278d0a1e5260dffc97",
    "haar/diagnostics.csv":
        "f2a28dc9b2d758a5ba83b57dd6b2db6147c39a9c5c8b3c3ab2367746d51b8c63",
    "haar/trajectories.csv":
        "d85f34fdef2bde6d749cc5299cc873f5aa15536024c553993c95418e112b904a",
    "haar/checkpoint.bin":
        "7faa294a4c6b1511d576e1d957bb3d28821b855a229a017dacda274d75db664c",
    "haar/config_hash": "cabb0d288e08",
    "frozen_skills/metrics.csv":
        "c935c4ad7e917f2984246c60f2c99383122fefb9f4f2b354bbe8fed890c116c1",
    "frozen_skills/diagnostics.csv":
        "d01f575eb57fc00b81e96044b6bd0c42b3c4c99f1177a696aa834db4201ca86d",
    "frozen_skills/trajectories.csv":
        "5f91776452880a8f1a388cba58d2ef66535b3d42788c7bea713258ad04475998",
    "frozen_skills/checkpoint.bin":
        "6caa66934807144e3623a3f502ad848e0339a3457b4ead951b1f72b2b6702371",
    "frozen_skills/config_hash": "03240a9000f7",
    "flat_trpo/metrics.csv":
        "896d4e6e7de990608f557be29cecf39c4cee2794d802f2eece6790953d98b600",
    "flat_trpo/diagnostics.csv":
        "046e907075337da381545b628c8297147850654c620bfa8a6568a9599a560796",
    "flat_trpo/trajectories.csv":
        "d8a3a0758f997e42deb37d96bc111e09cb6e02bc6f678825615113717848a340",
    "flat_trpo/checkpoint.bin":
        "8cf3c3791d90211bdf9a1565eb7715fda5cc00f690ca343dbd026eecb28ee665",
    "flat_trpo/config_hash": "54f3f7a0e8dd",
    "alternate/metrics.csv":
        "afc3417776f9c555d2bfdc1dd8e3570ebfb084031e2f56451dac2395af4820b3",
    "alternate/diagnostics.csv":
        "a809b77466377e8b1c02967be06509a77d52fbe30255f8b075adb4f8d2326db5",
    "alternate/trajectories.csv":
        "bf0cce57d865db6b52fa23db8d27c42206ca109d2227bebae2e28918967442a8",
    "alternate/checkpoint.bin":
        "01d165db3a592031abb4ab21edcc1cb4b32b2a0663649eddfa1e65f0daf987e1",
    "alternate/config_hash": "774538bb895a",
    "haar_no_anneal/metrics.csv":
        "e822a2bf8b086c0f96424bb46af933794b006947279aa7a4247c6427ddbb37dd",
    "haar_no_anneal/diagnostics.csv":
        "2a173aa1a59cc6c636f3988dbc9dd19e80e14a15b8e5fd6c815f1075b7195dac",
    "haar_no_anneal/trajectories.csv":
        "73722373acea99415a21ba6f9a2948c9fb32d72221deeab5a3faa4af56de8199",
    "haar_no_anneal/checkpoint.bin":
        "171d5ab0ca2e9ad9350a59af8d8de2673e51d193431327a1cc42558b45814711",
    "haar_no_anneal/config_hash": "55cfe93e93c7",
    "cli_override/metrics.csv":
        "0e5bef6de97cb46db5c59e9d59d0cfbd8e5b055aa3fe77845c171404559cf228",
    "cli_override/diagnostics.csv":
        "d69eacca49577cad63fbb840e1029f0b66f037b09e0377ddfb00b21b4094048d",
    "cli_override/trajectories.csv":
        "94ab99ad9796232d6352c697e1e6d00458a1d9828e0833c20421ed6d199389f2",
    "cli_override/checkpoint.bin":
        "21617fddba2d112d971fb5b5bf9de2e13ec09d8f0b2e3705a1a0e17134156b68",
    "cli_override/config_hash": "c1f7606d01ca",
    "transfer_both/metrics.csv":
        "806135d4dc479512c1b84024e36280b0ef0c78c142e3a6e0355c42c65f65e098",
    "transfer_both/diagnostics.csv":
        "a8fa7045eec1cc54e8b81b8bea6356473e2a438947cc5c61cff48929f308dbb4",
    "transfer_both/trajectories.csv":
        "306700ef0d67fd9373ebe265f0b3719fb3137dcc55081083b0d853e53ea71e5e",
    "transfer_both/checkpoint.bin":
        "b8a0fae0bf0cb01250d690f4975a76b30397e8343f7c53cf36f94c2751cd520c",
    "transfer_both/config_hash": "55cfe93e93c7",
    "transfer_low_only/metrics.csv":
        "93df42c4274065474713bd8ee33d41e3977646a116d4b8c09cbc81565ae9ce5f",
    "transfer_low_only/diagnostics.csv":
        "db89e6ad2e479f87b16908a50c88f0217aeed828047c24a98c0473277c1d42dd",
    "transfer_low_only/trajectories.csv":
        "3ace1b36133a286a5d022173310e62a941e18288ec9751db08011dcd95a60c87",
    "transfer_low_only/checkpoint.bin":
        "7bd1c7f7c33bcd8e7de4b46452f3882d3b34220bcabcc7724eaec4820ed24383",
    "transfer_low_only/config_hash": "55cfe93e93c7",
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
    moved = sorted(key for key in GOLDEN.keys() | got.keys() if got.get(key) != GOLDEN.get(key))
    assert got == GOLDEN, "moved: " + ", ".join(moved)
    # the two transfers and the k_0 = 3 train share a config hash; their
    # checkpoints still say how each run's policies started
    metadata = {name: load_checkpoint(str(tmp_path / name / "seed_0" / "checkpoint.bin"))[1]
                for name in ("haar_no_anneal", "transfer_both", "transfer_low_only")}
    assert {name: meta["transfer"] for name, meta in metadata.items()} == {
        "haar_no_anneal": "", "transfer_both": "both", "transfer_low_only": "low_only"}
    assert len({got[f"{name}/config_hash"] for name in metadata}) == 1
