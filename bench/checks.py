"""Output checks on every haarlab run the benchmark makes, and the byte
fingerprints that must repeat across runs of the same code and seed."""

from __future__ import annotations

import csv
import hashlib
import json
import os

TRAIN_ARTIFACTS = ("metrics.csv", "diagnostics.csv", "timing.csv", "trajectories.csv",
                   "checkpoint.bin", "run.json")
KL_LIMIT = 1.5  # an accepted TRPO step must have kl <= KL_LIMIT * max_kl


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def read_rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_train(run_dir: str, cfg) -> list[str]:
    """Problems with one training run's artifacts; empty when all hold."""
    from haarlab.checkpoint import CheckpointError, load_checkpoint

    missing = [a for a in TRAIN_ARTIFACTS if not os.path.isfile(os.path.join(run_dir, a))]
    if missing:
        return [f"missing artifacts {missing}"]
    problems = []
    rows = read_rows(os.path.join(run_dir, "metrics.csv"))
    if len(rows) != cfg.N:
        problems.append(f"metrics.csv has {len(rows)} rows, expected N={cfg.N}")
    previous = 0
    for row in rows:
        steps = int(row["low_steps_total"])
        if steps - previous < cfg.B:
            problems.append(f"iteration {row['iteration']} collected {steps - previous} "
                            f"low steps, fewer than B={cfg.B}")
        previous = steps
    for row in read_rows(os.path.join(run_dir, "diagnostics.csv")):
        if row["accepted"] != "True":
            continue
        kl = float(row["kl"])
        gain = float(row["surrogate_after"]) - float(row["surrogate_before"])
        if not kl <= KL_LIMIT * cfg.max_kl:
            problems.append(f"accepted {row['level']} step at iteration {row['iteration']} "
                            f"has kl {kl} > {KL_LIMIT} * max_kl")
        if not gain >= 0.0:
            problems.append(f"accepted {row['level']} step at iteration {row['iteration']} "
                            f"lowers the surrogate by {-gain}")
    try:
        load_checkpoint(os.path.join(run_dir, "checkpoint.bin"))
        with open(os.path.join(run_dir, "run.json")) as fh:
            json.load(fh)
    except (CheckpointError, ValueError) as exc:
        problems.append(f"unreadable artifact: {exc}")
    return problems


def check_pretrain(skills_path: str) -> list[str]:
    from haarlab.checkpoint import CheckpointError, load_checkpoint

    if not os.path.isfile(skills_path):
        return [f"missing skills checkpoint {skills_path}"]
    try:
        segments, _ = load_checkpoint(skills_path)
    except CheckpointError as exc:
        return [f"unreadable skills checkpoint: {exc}"]
    if not {"pi_l/mean_net", "pi_l/log_std"} <= set(segments):
        return [f"skills checkpoint lacks low-level segments: {sorted(segments)}"]
    return []


class FingerprintStore:
    """sha256 of outputs per (code, generated config); a later run of the
    same key must reproduce them byte for byte."""

    def __init__(self, path: str):
        self.path = path
        self.data = {}
        if os.path.isfile(path):
            with open(path) as fh:
                self.data = json.load(fh)

    def check(self, key: str, fingerprints: dict[str, str]) -> list[str]:
        seen = self.data.setdefault(key, {})
        problems = [f"{name} sha256 {digest[:12]} differs from an earlier run's "
                    f"{seen[name][:12]}" for name, digest in fingerprints.items()
                    if name in seen and seen[name] != digest]
        for name, digest in fingerprints.items():
            seen.setdefault(name, digest)
        return problems

    def save(self) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.data, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.path)
