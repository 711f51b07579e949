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
        "795d5b220f1ea5a0d9058dd660d798c41fb2d6928da09cbc078fef24cbd10671",
    "haar/diagnostics.csv":
        "48e4f072b8560ac98b3c40f2d2747e6834aa2fb97d6ae17d8a0f1318c5d53675",
    "haar/trajectories.csv":
        "0963b5ae65ce9d11f2d8a4946cd8e126bd059fa74954b29d22583f9e7abc7910",
    "haar/checkpoint.bin":
        "febca9f8b210a22900fb48e279115ec3f104c42cd45fa249fc6643854e3d28cd",
    "haar/config_hash": "531971ac9afb",
    "frozen_skills/metrics.csv":
        "a0fb7dd6e50a1f6074ef79ba02deb8b959f5f3937898d87a0a814c908382dc3a",
    "frozen_skills/diagnostics.csv":
        "8fc82965939465e487dea51191a32febfd34783f5fb53327371464dc274b27db",
    "frozen_skills/trajectories.csv":
        "1baa116531a08341b27cfb95c3fa7b4eae8f67cc192dfa4730b32b6b46b03989",
    "frozen_skills/checkpoint.bin":
        "03da07ee18dd3636c76c7e3deda3669a5a77747e2691e1e90cd7f5374e51e671",
    "frozen_skills/config_hash": "9ad7b9e431c2",
    "flat_trpo/metrics.csv":
        "62c0b0c78c9a53381e1a02b73708f2b9470a91329f0a27d47c2dab440c3b6dec",
    "flat_trpo/diagnostics.csv":
        "ca8f081b981a9f5f782cb91adc269279801ef2a71f2b06f517fb4ec3b69a5be0",
    "flat_trpo/trajectories.csv":
        "df2fc0d661715d881122ec9e43b5981347117464fb566cdc741526ed4957bf2c",
    "flat_trpo/checkpoint.bin":
        "f4aec1434b9e6571243abb344ad945e1a5c6d89a2ea8ba42016d07b1f5b3f41f",
    "flat_trpo/config_hash": "af3f36b8ef90",
    "alternate/metrics.csv":
        "b34a1bfb0a293af2754b3b4096c284b6426520fb8dd12a66f38ec07999909a6e",
    "alternate/diagnostics.csv":
        "97933755032cf11ee3153f19abbb9a561aace7344ec293588d85195e8e6c17f5",
    "alternate/trajectories.csv":
        "84d2087575854f1c0200b776d11913067904faeffb29a10a16f02165d817b873",
    "alternate/checkpoint.bin":
        "c9b75f44624f2abe05931428315075f99d4ca84bd364e7764686926180f128cf",
    "alternate/config_hash": "4881b3c9e36d",
    "haar_no_anneal/metrics.csv":
        "11797077b79363238a4f711e2e87272b59c2510e74bd31294e8c2a984f97f5ef",
    "haar_no_anneal/diagnostics.csv":
        "75b0a50665e48d28d7a8d887d7c8cc94fe4fdaa5f4445afc32d3b750c40aa30b",
    "haar_no_anneal/trajectories.csv":
        "8b8f2a57e7d80486a22878afee5569787ae94b8bd2160715c549d5b1aa191557",
    "haar_no_anneal/checkpoint.bin":
        "a6c790878c90aabd22e1003894e032fd3cdcb822408969a6091eb8ac0d78b3b5",
    "haar_no_anneal/config_hash": "9fbc97dc4d6d",
    "cli_override/metrics.csv":
        "9499f0b8b67cdbb13aac2c41d46b55c4cb5632b5cca8af6a00e5499d75c5f4fa",
    "cli_override/diagnostics.csv":
        "9d84b8c27ab50aa73e07bce43584fd20ba30267793f867898584596b7baa612c",
    "cli_override/trajectories.csv":
        "2271bce4a2593f23de320f02de52ac388bfba06e7898c1a1f08f23d33074021b",
    "cli_override/checkpoint.bin":
        "1f0e36779fa6d9059e0ee7e48155006dcd539e73d0af79ab11f84d6ce2eaee54",
    "cli_override/config_hash": "bb429e6def9f",
    "transfer_both/metrics.csv":
        "6387ba42535edfa9238dbd8d8430133db0ab10e9097acc11c1200ba8b30e648c",
    "transfer_both/diagnostics.csv":
        "82f12b1b538d35592ebfb515cb0b7e1e92c476086d096ac4057c689805afffc5",
    "transfer_both/trajectories.csv":
        "c93e94c5fed99b818499c54007ce1284bb51bb9f8df61ff8fdfc3d2f0f4be5a6",
    "transfer_both/checkpoint.bin":
        "d0488f1e075409e614a4e13838e89fad11c611fd43332e25347f4f00771fe64b",
    "transfer_both/config_hash": "9fbc97dc4d6d",
    "transfer_low_only/metrics.csv":
        "dcc331bc183fcf487756df22daee6c1cc6bf935a9476b37e318fa2e73632f052",
    "transfer_low_only/diagnostics.csv":
        "61988ebf9a23a86b334b9a223a12920cf227925810424c7fbf59d9e9655af998",
    "transfer_low_only/trajectories.csv":
        "3f13329116e4bdfe3e075583e61086684b9c499aa632eb809c0a89faa18de4d8",
    "transfer_low_only/checkpoint.bin":
        "5c7014ff246315e0d2dfe45a0d8039900d5feb3eb8018dac4a40ecde3c750b43",
    "transfer_low_only/config_hash": "9fbc97dc4d6d",
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
