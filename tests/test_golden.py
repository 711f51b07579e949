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
    # haar's body, as the skills it loads record it, on the corridor, whose
    # goal a near-random policy reaches, so the high level has reward to step on
    "frozen_skills": ("maze = corridor.txt\nv_max = 1.2\nstumble_threshold = 1.2\n"
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
        "c2c182a4756c15fdb171348eaa1316dc8a5d77372556ed968a819652f91b0229",
    "haar/metrics.csv":
        "374fd585da8997506068ecdeb4fe0cbc7feb4c239e4bc67a2845d195fb884b17",
    "haar/diagnostics.csv":
        "c04665950acc7c11c6aac86cff7dbeb9917eeb6a4dae5217b1293ddb8450fd68",
    "haar/trajectories.csv":
        "2e27f77fad665a71f9cc373c0fe837cde388939ef33bfff3f9a9fe6813d0dfab",
    "haar/checkpoint.bin":
        "b41cc20bf83a75f6d06c3f0460b942c2562baceb7ddc60b256ea3b6835cf87d8",
    "haar/config_hash": "bcc31c5244dd",
    "frozen_skills/metrics.csv":
        "cd549207b4ca64b1d21dba0acc4de915c6a24997f24630873bacac04748e3374",
    "frozen_skills/diagnostics.csv":
        "cded62dd1492002333f56b781a373349bde29e515ae2c3042de611ba0cfb1e03",
    "frozen_skills/trajectories.csv":
        "9888a75954b37ea7e97caf51be1503a4eaa1c99342e5927a756be1d6442f953a",
    "frozen_skills/checkpoint.bin":
        "9e9c927a9140ea5a3787831572f783c7f4b7ace79ef9783e5300e19e4306c629",
    "frozen_skills/config_hash": "59580ed0f20e",
    "flat_trpo/metrics.csv":
        "784385ed78556c94a4c438309b969ea39ed6525569e6a6356cc558720baea374",
    "flat_trpo/diagnostics.csv":
        "f8b8d83b142cc71e388e06bdbae788f57d73914c74c171198af5872f3f106556",
    "flat_trpo/trajectories.csv":
        "54567f65b5d3ee13268c9117746f27e7a3a8f474904d4a2a9cb900789863665f",
    "flat_trpo/checkpoint.bin":
        "c99b7c6d54800e21647feb20fe10aca1f5932f4b3586954c08f70ee36374a34c",
    "flat_trpo/config_hash": "eeb9edce057f",
    "alternate/metrics.csv":
        "2dc8121245b4a4a0b99c22f28dc812eb212bd91ee1603945377709c0dc2d55ef",
    "alternate/diagnostics.csv":
        "9fe4bc8273245adccb6d2b271634ec32c649467b24b67f7386a9f54f37a86581",
    "alternate/trajectories.csv":
        "575b0ae8a748b53c1aba956f62e33eb9cfda502f3ca3f0860d38297983da6b44",
    "alternate/checkpoint.bin":
        "c9e9737a6a124a7e64cd8b5fe0e92abddf08339e83f50301f493bf5bd0451bb4",
    "alternate/config_hash": "5509c751b7e8",
    "haar_no_anneal/metrics.csv":
        "705aef9f9bf82766ff7530ec9ae9cb6f375789c5c6bb0b3c66f09532529cf42a",
    "haar_no_anneal/diagnostics.csv":
        "27e64ee174d70d3966b222eb7ba334eb46b4350fdc8bf1f158974431fa514a41",
    "haar_no_anneal/trajectories.csv":
        "b4260f84104e968a205392bd7771df21fc9744b1f62a6306cf30ee3e3c2a9750",
    "haar_no_anneal/checkpoint.bin":
        "41910c95f1359ac866f0a8a659ca798acccd7aecbde1c8b98fb194411a0240bb",
    "haar_no_anneal/config_hash": "7570c9110ce1",
    "cli_override/metrics.csv":
        "c156298aba3667f56fd6bc829cea1ef65c5f6792e17b0f21630d83f8378a9f92",
    "cli_override/diagnostics.csv":
        "6072b7ddf24b2d2e6f5699049a8a4bb193e9d9efe279b20bf9dd3f0944795872",
    "cli_override/trajectories.csv":
        "19d96cba7ebd4ac5d3c3454d5ee99451103aa8f121bbe02ef3cdee4ff359a1a6",
    "cli_override/checkpoint.bin":
        "b9d68bb303b3822ceedc84e3042472086df67bc28bd55fff6d459b55e634363f",
    "cli_override/config_hash": "ec920270d3b5",
    "transfer_both/metrics.csv":
        "e213535bf51315abfb65856efef19b4b081998f0966f9b204e511d7a7a5452a9",
    "transfer_both/diagnostics.csv":
        "4cf4c349aa2db0dc8bc436b8f0a78c9348a278075fe8fb005977deceb48f0a59",
    "transfer_both/trajectories.csv":
        "e474c246473a093407cffb66b0adb84301231d4515a5e5868eba7ad7fae0a142",
    "transfer_both/checkpoint.bin":
        "b8cc0f3b94b799304b5eda8bf174957a26f6f73b57bf642446c5947b20ae5d65",
    "transfer_both/config_hash": "7570c9110ce1",
    "transfer_low_only/metrics.csv":
        "e5ce8f7a36162f391fd803c3595d4ecd81147c94848bb0a49f249a81bfa73277",
    "transfer_low_only/diagnostics.csv":
        "4bfa11dd5c594ae6c16437b8ec455206657c1cc12d97ab6b55398e0dea067277",
    "transfer_low_only/trajectories.csv":
        "67eeee052f0fcd436566e89e347b318314a85bc029539e5b736440f1ad8f112f",
    "transfer_low_only/checkpoint.bin":
        "4252620dda28a80d813bc55eea7ef2c588b9f50853b834ce7c55f3d08cace9a1",
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
    # frozen_skills reaches the corridor's goal, so its high level steps
    diagnostics = (tmp_path / "frozen_skills" / "seed_0" / "diagnostics.csv").read_text()
    assert any(row.split(",")[1] == "high" and row.endswith(",True")
               for row in diagnostics.splitlines()[1:])
