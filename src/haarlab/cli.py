"""Command line entry point.

Subcommands: pretrain, train, theory-check, report. Any
validation failure exits nonzero with a message on stderr before any
computation starts.
"""

from __future__ import annotations

import argparse
import csv
import functools
import os
import sys

from .checkpoint import CheckpointError
from .config import ALGORITHMS, MODES, ConfigError, ExperimentConfig, load_config


def _load_cfg(args) -> ExperimentConfig:
    """The config file with the command line's overrides applied to its
    values before the config is built, so its checks see the final ones."""
    overrides = {}
    if getattr(args, "seed", None):
        overrides["seeds"] = args.seed
    if getattr(args, "mode", None):
        overrides["mode"] = args.mode
    if getattr(args, "algorithm", None):
        overrides["algorithm"] = args.algorithm
    return load_config(args.config, **overrides)


def _log(args):
    """The progress printer of a training command: flushed lines, or
    None under --quiet."""
    return None if args.quiet else functools.partial(print, flush=True)


def _positive_int(raw: str) -> int:
    value = int(raw) if raw.strip().lstrip("+-").isdigit() else 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {raw!r}")
    return value


def _add_common(p):
    p.add_argument("--config", required=True,
                   help="plain-text config file (key = value lines)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", help="seed or comma separated seed list (overrides config)")
    p.add_argument("--jobs", type=_positive_int, default=1, help="parallel seed processes")
    p.add_argument("--quiet", action="store_true", help="suppress progress lines")


def cmd_pretrain(args) -> int:
    from .experiment import run_pretrain
    cfg = _load_cfg(args)
    paths = run_pretrain(cfg, args.out, jobs=args.jobs, log=_log(args))
    for seed, path in paths.items():
        print(f"seed {seed}: {path}")
    return 0


def cmd_train(args) -> int:
    from .experiment import run_train
    cfg = _load_cfg(args)
    skills, high = (_resolve_per_seed(path, cfg.seeds) if path else None
                    for path in (args.skills, args.high))
    dirs = run_train(cfg, args.out, skills=skills, high=high, jobs=args.jobs, log=_log(args))
    for d in dirs:
        print(d)
    return 0


def _resolve_per_seed(path: str, seeds) -> dict[int, str]:
    """{seed: checkpoint}: a file serves every seed, and a directory
    holds seed_<n>/checkpoint.bin for each, as pretrain and train write."""
    per_seed = os.path.isdir(path)
    mapping = {seed: os.path.join(path, f"seed_{seed}", "checkpoint.bin") if per_seed else path
               for seed in seeds}
    for seed, candidate in mapping.items():
        if not os.path.exists(candidate):
            raise CheckpointError(f"checkpoint for seed {seed} not found: {candidate}")
    return mapping


def cmd_theory_check(args) -> int:
    from .theory import verification_suite
    if args.instances < 1:
        raise ValueError("--instances must be >= 1")
    rows = verification_suite(n_instances=args.instances, seed=args.seed_value)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    n_fail = sum(1 for r in rows if not r["pass"])
    worst = max(r["decomposition_residual"] for r in rows)
    print(f"{len(rows)} instances, {n_fail} failures, "
          f"max decomposition residual {worst:.3e} -> {args.out}")
    return 0 if n_fail == 0 else 1


def cmd_report(args) -> int:
    from .experiment import run_report
    run_dirs = []
    for entry in args.runs:
        if os.path.isfile(os.path.join(entry, "metrics.csv")):
            run_dirs.append(entry)
        else:
            seeds = sorted(d for d in os.listdir(entry) if d.startswith("seed_"))
            run_dirs.extend(os.path.join(entry, d) for d in seeds)
    run_report(run_dirs, args.out)
    print(f"report over {len(run_dirs)} runs -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="haarlab",
        description="Two-level skill training with advantage-split auxiliary rewards")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="pre-train the initial skill set")
    _add_common(p)
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("train", help="run training for every seed")
    _add_common(p)
    p.add_argument("--mode", choices=MODES, help="override the training mode")
    p.add_argument("--algorithm", choices=ALGORITHMS)
    p.add_argument("--skills", help="checkpoint (file or directory) that pi_l starts from")
    p.add_argument("--high", help="run checkpoint (file or directory) that pi_h starts from")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("theory-check", help="exact verification of the improvement lemmas")
    p.add_argument("--out", required=True, help="report CSV path")
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--seed", dest="seed_value", type=int, default=0)
    p.set_defaults(fn=cmd_theory_check)

    p = sub.add_parser("report", help="aggregate run metrics into a plot-ready CSV")
    p.add_argument("--runs", nargs="+", required=True,
                   help="run directories (seed dirs or their parents)")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, CheckpointError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
