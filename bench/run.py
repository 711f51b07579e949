"""haarlab benchmark: time to success and step throughput of training runs.

    python3 bench/run.py --workload maze_anneal --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --smoke

Run from the root of a source checkout. Each workload is a closed loop of
one training process: one seed, no --jobs, each phase in a fresh
interpreter through haarlab's public entry points (worker.py). The
program only sees the config this script generates from a shipped one:
the workload's overrides, `seeds = <--seed>` and `N`, the number of
iterations that take about --seconds at the workload's nominal rate.

A run pre-trains the skills twice (when the workload uses them), probes
the train phase's set-up SETUP_PROBES times (half before the train, half
after, so they meet the host at two moments), trains once and checks
every output. With --trace 1 it instead trains under the tracer, after an
untraced reference run of the first quarter of the iterations, and
prints the per-layer metrics instead of the end-to-end ones. The last
line of stdout is the result object; the line before it holds every
metric, the learning outcome, fingerprints and provenance, which are
also kept under .bench_work/results/. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
WORK = os.path.join(ROOT, ".bench_work")
WORKER = os.path.join(BENCH, "worker.py")

RUN_LIMIT_S = 170.0       # a run must end within 180 s
SETUP_PROBES = 12         # half before the train, half after; setup_s is the
                          # median of these and the train's own set-up
PRETRAIN_REPEATS = 2      # pretrain_s is their median; their bytes must match
SUCCESS = 0.9
TAIL_BEYOND = 10          # iter_s_tail has this many samples above it

COMMON_LAYERS = ("envs.point.step", "envs.point.reset", "envs.raycast.raycast",
                 "envs.raycast.goal_bearing", "policies.gaussian.act", "checkpoint.save")
HAAR_LAYERS = COMMON_LAYERS + (
    "policies.categorical.act", "hierarchy.collect_rollouts",
    "hierarchy.assign_auxiliary_rewards", "hierarchy.prepare_level_batches",
    "values.fit.high", "values.fit.low", "trpo.high.update", "trpo.high.grad",
    "trpo.low.update", "trpo.low.grad", "checkpoint.load", "pretrain.pretrain_skills")
FLAT_LAYERS = COMMON_LAYERS + ("values.fit.flat", "trpo.flat.update", "trpo.flat.grad")


@dataclass(frozen=True)
class Workload:
    """One training workload; bench/README.md says why each was chosen."""
    config: str              # shipped config, relative to the checkout root
    nominal_iter_s: float    # seconds per iteration on a 2-core Xeon; sets N
    overrides: dict = field(default_factory=dict)
    pretrain: bool = True
    layers: tuple = HAAR_LAYERS


WORKLOADS = {
    "maze_anneal": Workload("configs/point_maze.cfg", nominal_iter_s=0.41),
    "flat_maze": Workload("configs/point_maze.cfg", nominal_iter_s=0.60,
                          overrides={"algorithm": "flat_trpo"}, pretrain=False,
                          layers=FLAT_LAYERS),
}

SMOKE_OVERRIDES = {"N": 3, "B": 200, "T": 100, "pretrain.iterations": 1,
                   "pretrain.batch_low_steps": 200, "pretrain.episode_steps": 50}

# The end-to-end metrics of the result line. The train's times are given
# host-adjusted: on a host whose speed changes by up to 1.6x in phases of
# seconds to minutes, the times as measured (kept in the record) spread
# past any allowed bound.
E2E_UNITS = {"setup_s": "s", "train_s_adj": "s", "iter_s_p50_adj": "s",
             "iter_s_tail_adj": "s", "low_steps_per_s_adj": "1/s",
             "train_cpu_s_adj": "s", "peak_rss_mb": "MB"}


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Every haarlab process runs with one BLAS thread, so a workload is a closed
# loop on one core. With a BLAS thread per vCPU on a small shared host, each
# matrix product waits for the slower of the cores, and run-to-run spread
# grows with the host's load.
WORKER_THREADS = {v: "1" for v in THREAD_VARS}


class Failure(Exception):
    """A haarlab process failed or its outputs did not check."""


# -- inputs ---------------------------------------------------------------------

def generate_config(base_path: str, overrides: dict) -> str:
    """The shipped config text with `overrides` replacing or adding keys."""
    pending = dict(overrides)
    out = []
    with open(base_path) as fh:
        for line in fh.read().splitlines():
            body = line.split("#", 1)[0]
            key = body.split("=", 1)[0].strip() if "=" in body else None
            out.append(f"{key} = {pending.pop(key)}" if key in pending else line)
    out += [f"{k} = {v}" for k, v in pending.items()]
    return "\n".join(out) + "\n"


def code_hash() -> str:
    """Identity of the code under test: every source, config and bench file."""
    h = hashlib.sha256()
    for top in ("src", "configs", "bench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith((".py", ".cfg")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


# -- provenance -----------------------------------------------------------------

def thread_env() -> dict:
    return {v: os.environ[v] for v in THREAD_VARS if v in os.environ}


def provenance() -> dict:
    import numpy as np
    try:
        # stop git at the checkout, which need not be a repository itself
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10, env=env).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": commit, "code_sha256": code_hash(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu, "python": platform.python_version(), "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": thread_env(), "worker_thread_env": WORKER_THREADS,
    }


def load_now() -> float:
    return os.getloadavg()[0]


# -- processes --------------------------------------------------------------------

class Runner:
    """Launches worker processes for one benchmark run and keeps the tally."""

    def __init__(self, run_dir: str, deadline: float):
        self.dir = run_dir
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.loads: list[dict] = []

    def launch(self, tag: str, phase: str, config: str, seed: int,
               skills: str | None = None, trace: bool = False,
               stop_after: int | None = None) -> dict:
        """Run one phase in a fresh interpreter; returns its result with
        `launch`/`exit` monotonic times. Raises Failure on any fault."""
        self.attempted += 1
        spec = {"phase": phase, "config": config, "seed": seed, "skills": skills,
                "trace": trace, "stop_after": stop_after, "out": os.path.join(self.dir, tag),
                "result": os.path.join(self.dir, f"{tag}.result.json")}
        spec_path = os.path.join(self.dir, f"{tag}.spec.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        load_before = load_now()
        with open(os.path.join(self.dir, f"{tag}.log"), "w") as log:
            launch = time.monotonic()
            proc = subprocess.Popen([sys.executable, WORKER, spec_path], cwd=ROOT,
                                    env=dict(os.environ, **WORKER_THREADS),
                                    stdout=log, stderr=subprocess.STDOUT)
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - launch))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                self.fail(f"{tag}: killed after the run's time limit")
            end = time.monotonic()
        self.loads.append({"tag": tag, "load_before": load_before, "load_after": load_now(),
                           "busy_at_start": load_before > (os.cpu_count() or 1)})
        if code != 0:
            with open(os.path.join(self.dir, f"{tag}.log")) as fh:
                tail = fh.read()[-600:]
            self.fail(f"{tag}: exit code {code}: {tail}")
        with open(spec["result"]) as fh:
            result = json.load(fh)
        result.update(launch=launch, exit=end)
        return result

    def fail(self, problem: str):
        self.failed += 1
        self.problems.append(problem)
        raise Failure(problem)

    def require(self, tag: str, problems: list[str]) -> None:
        """Count one failed run if an output check found problems."""
        if problems:
            self.fail(f"{tag}: " + "; ".join(problems))


# -- metrics ----------------------------------------------------------------------

def iteration_times(train: dict) -> list[float]:
    return [end - start for start, end in zip(train["iter_starts"], train["iter_ends"])]


def host_slowdowns(train: dict) -> list[float]:
    """The host's slowdown against hostref.REF_S at each reading: one
    before the first iteration and one after each."""
    from hostref import REF_S
    return [fastest / REF_S for fastest, _, _ in train["host_readings"]]


def adjusted_iteration_times(train: dict) -> list[float]:
    """Each iteration's time divided by the smaller slowdown of the
    readings on either side of it: its time at the reference speed. The
    smaller one, so that a reading another process interrupted for longer
    than both its passes does not count as a slow host."""
    slow = host_slowdowns(train)
    return [t / min(a, b) for t, a, b in zip(iteration_times(train), slow, slow[1:])]


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with TAIL_BEYOND samples above it: (value,
    percentile, samples beyond). With too few samples, the maximum."""
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def end_to_end(train: dict, setups: list[float], low_steps: int) -> tuple[dict, dict]:
    """The end-to-end metrics as measured, and host-adjusted (`*_adj`).

    The train process's wall and CPU times leave out the host readings
    the worker took. Adjusted, its set-up is scaled by the first reading,
    each iteration by the readings on either side of it, and what follows
    the last iteration by the last reading.
    """
    iters, adj = iteration_times(train), adjusted_iteration_times(train)
    slow = host_slowdowns(train)
    readings = train["host_readings"]
    train_s = train["exit"] - train["launch"] - sum(wall for _, wall, _ in readings)
    train_cpu_s = train["cpu_s"] - sum(cpu for _, _, cpu in readings)
    train_s_adj = ((train["first_reset"] - train["launch"]) / slow[0] + sum(adj)
                   + (train["exit"] - train["iter_starts"][-1]) / slow[-1])
    value, pct, beyond = tail(iters)
    value_adj, _, _ = tail(adj)
    metrics = {
        "setup_s": statistics.median(setups),
        "train_s": train_s,
        "iter_s_p50": statistics.median(iters),
        "iter_s_tail": value,
        "low_steps_per_s": low_steps / sum(iters),
        "train_cpu_s": train_cpu_s,
        "peak_rss_mb": train["maxrss_kb"] / 1024.0,
        "train_s_adj": train_s_adj,
        "iter_s_p50_adj": statistics.median(adj),
        "iter_s_tail_adj": value_adj,
        "low_steps_per_s_adj": low_steps / sum(adj),
        "train_cpu_s_adj": train_cpu_s * train_s_adj / train_s,
    }
    return metrics, {"iter_s_tail_percentile": pct, "iter_s_tail_beyond": beyond,
                     "iterations": len(iters), "host_slowdown": train_s / train_s_adj,
                     "host_slowdown_range": [min(slow), max(slow)]}


def learning(rows: list[dict], train: dict, pretrain_s: float) -> dict:
    success = [float(r["success_rate"]) for r in rows]
    hit = next((i for i, s in enumerate(success) if s >= SUCCESS), None)
    last = max(1, math.ceil(len(rows) / 10))
    return {
        "iters_to_success": None if hit is None else hit + 1,
        "time_to_success_s": None if hit is None
        else pretrain_s + train["iter_ends"][hit] - train["launch"],
        "final_success": statistics.fmean(success[-last:]),
        "mean_return": statistics.fmean(float(r["mean_return"]) for r in rows),
    }


STEP_LAYERS = ("envs.point.step", "envs.raycast.raycast", "envs.raycast.goal_bearing",
               "policies.gaussian.act")
LEVELS = ("high", "low", "flat")


def per_layer(trace: dict, pretrain_trace: dict | None, train: dict) -> tuple[dict, dict]:
    """(the metrics every workload records, the full per-layer table).

    Per-step layers report mean busy microseconds per call and their call
    count; per-iteration layers report mean milliseconds per call; TRPO
    parts are per update, pooled over levels or per level.
    """
    spans, counts, busy = trace["span_stats"], trace["counts"], trace["busy_s"]

    def step_us(name):
        n = counts.get(name, 0)
        return 1e6 * busy[name] / n if n else 0.0

    def span_ms(name, key="total_s"):
        s = spans.get(name)
        return 1e3 * s[key] / s["calls"] if s else 0.0

    def trpo(levels):
        outcomes = [o for lv in levels for o in trace["trpo"].get(lv, [])]
        n = len(outcomes)
        out = {}
        for part in ("update", "grad", "cg", "linesearch"):
            total = sum(spans[f"trpo.{lv}.{part}"]["total_s"] for lv in levels
                        if f"trpo.{lv}.{part}" in spans)
            out[f"{part}.ms"] = 1e3 * total / n if n else 0.0
        out["fvp.calls"] = sum(counts.get(f"trpo.{lv}.fvp", 0) for lv in levels)
        out["backtracks"] = sum(b for b, _ in outcomes)
        out["accept_rate"] = statistics.fmean(a for _, a in outcomes) if n else 0.0
        return out

    fits = [spans[f"values.fit.{lv}"] for lv in LEVELS if f"values.fit.{lv}" in spans]
    fit_calls = sum(f["calls"] for f in fits)
    rollouts = trace["rollouts"]
    common = {}
    for name in STEP_LAYERS:
        common[f"{name}.us"] = step_us(name)
        common[f"{name}.calls"] = counts.get(name, 0)
    common["envs.point.reset.calls"] = counts.get("envs.point.reset", 0)
    common["rollout.ms"] = 1e3 * statistics.fmean(d for d, _ in rollouts)
    common["rollout.self_ms"] = 1e3 * statistics.fmean(d - b for d, b in rollouts)
    common["values.fit.ms"] = 1e3 * sum(f["total_s"] for f in fits) / max(fit_calls, 1)
    common["values.fit.calls"] = fit_calls
    common.update({f"trpo.{k}": v for k, v in trpo(LEVELS).items()})
    common["checkpoint.save.ms"] = span_ms("checkpoint.save")
    common["experiment.finalize.s"] = train["returned"] - train["iter_starts"][-1]

    table = dict(common)
    table["policies.categorical.act.us"] = step_us("policies.categorical.act")
    table["policies.categorical.act.calls"] = counts.get("policies.categorical.act", 0)
    for name in ("collect_rollouts", "assign_auxiliary_rewards", "prepare_level_batches"):
        table[f"hierarchy.{name}.ms"] = span_ms(f"hierarchy.{name}")
    table["hierarchy.collect_rollouts.self_ms"] = span_ms("hierarchy.collect_rollouts", "self_s")
    for lv in LEVELS:
        table[f"values.fit.{lv}.ms"] = span_ms(f"values.fit.{lv}")
        table.update({f"trpo.{lv}.{k}": v for k, v in trpo((lv,)).items()})
    table["checkpoint.load.ms"] = span_ms("checkpoint.load")
    pre = (pretrain_trace or {}).get("span_stats", {}).get("pretrain.pretrain_skills")
    table["pretrain.pretrain_skills.s"] = pre["total_s"] if pre else 0.0
    return common, table


def missing_layers(workload: Workload, trace: dict, pretrain_trace: dict | None) -> list[str]:
    seen = set(trace["counts"]) | set(trace["span_stats"])
    if pretrain_trace:
        seen |= set(pretrain_trace["span_stats"])
    return [name for name in workload.layers if name not in seen]


# -- one run ------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: int, trace: bool, smoke: bool,
                 runner: Runner, store) -> dict:
    """Pretrain, probe set-up, train (and trace); returns the report."""
    from checks import check_pretrain, check_train, read_rows, sha256
    from haarlab.config import load_config

    w = WORKLOADS[name]
    overrides = dict(w.overrides, seeds=seed)
    overrides["N"] = max(TAIL_BEYOND + 1, round(seconds / w.nominal_iter_s))
    if smoke:
        overrides.update(SMOKE_OVERRIDES)
    text = generate_config(os.path.join(ROOT, w.config), overrides)
    config = os.path.join(runner.dir, f"{name}.cfg")
    with open(config, "w") as fh:
        fh.write(text)
    cfg = load_config(config)
    # The BLAS thread count changes the floating-point summation order, and
    # with it the output bytes, so it is part of what must repeat.
    key = hashlib.sha256((code_hash() + text + json.dumps(WORKER_THREADS, sort_keys=True))
                         .encode()).hexdigest()[:16]
    report: dict = {"workload": name, "seed": seed, "N": cfg.N, "B": cfg.B,
                    "config": text, "fingerprint_key": key}
    fingerprints: dict[str, str] = {}

    skills, pretrain_s, pretrain_trace = None, None, None
    if w.pretrain:
        walls = []
        for i in range(PRETRAIN_REPEATS):
            traced = trace and i == PRETRAIN_REPEATS - 1
            res = runner.launch(f"{name}.pretrain{i}", "pretrain", config, seed, trace=traced)
            runner.require(f"{name}.pretrain{i}", check_pretrain(res["skills"]))
            digest = sha256(res["skills"])
            if skills is not None and digest != fingerprints["skills.bin"]:
                runner.require(f"{name}.pretrain{i}", ["skills checkpoint differs between repeats"])
            skills, fingerprints["skills.bin"] = res["skills"], digest
            if not traced:
                walls.append(res["exit"] - res["launch"])
            pretrain_trace = res.get("trace", pretrain_trace)
        pretrain_s = statistics.median(walls)

    def checked_train(tag: str, traced: bool) -> tuple[dict, list[dict]]:
        res = runner.launch(tag, "train", config, seed, skills, trace=traced)
        runner.require(tag, check_train(res["run_dir"], cfg))
        if len(res["iter_ends"]) != cfg.N:
            runner.require(tag, [f"{len(res['iter_ends'])} iteration callbacks, expected {cfg.N}"])
        for artifact in ("metrics.csv", "checkpoint.bin"):
            fingerprints[artifact] = sha256(os.path.join(res["run_dir"], artifact))
        runner.require(tag, store.check(key, fingerprints))
        return res, read_rows(os.path.join(res["run_dir"], "metrics.csv"))

    report.update(pretrain_s=pretrain_s, fingerprints=fingerprints)

    def probe(i: int) -> float:
        res = runner.launch(f"{name}.probe{i}", "probe", config, seed, skills)
        return res["first_reset"] - res["launch"]

    if not trace:
        setups = [probe(i) for i in range(SETUP_PROBES // 2)]
        timed, rows = checked_train(f"{name}.train", False)
        setups.append(timed["first_reset"] - timed["launch"])
        setups += [probe(i) for i in range(SETUP_PROBES // 2, SETUP_PROBES)]
        e2e, tail_info = end_to_end(timed, setups, int(rows[-1]["low_steps_total"]))
        report.update(end_to_end=e2e, tail=tail_info, setup_samples_s=setups,
                      learning=learning(rows, timed, pretrain_s or 0.0))
        return report

    # The untraced reference for the overhead is the same run stopped after
    # its first quarter; tracing must leave those rows byte for byte.
    m = max(1, cfg.N // 4)
    base = runner.launch(f"{name}.untraced", "train", config, seed, skills, stop_after=m)
    traced, _ = checked_train(f"{name}.traced", True)
    with open(os.path.join(base["run_dir"], "metrics.csv")) as a, \
            open(os.path.join(traced["run_dir"], "metrics.csv")) as b:
        if a.read() != "".join(b.readlines()[:m + 1]):
            runner.require(f"{name}.traced", ["tracing changed metrics.csv"])
    missing = missing_layers(w, traced["trace"], pretrain_trace)
    runner.require(f"{name}.traced", [f"layers recorded no calls: {missing}"] if missing else [])
    common, table = per_layer(traced["trace"], pretrain_trace, traced)
    untraced_p50 = statistics.median(adjusted_iteration_times(base))
    traced_p50 = statistics.median(adjusted_iteration_times(traced)[:m])
    common["trace.overhead_pct"] = table["trace.overhead_pct"] = \
        100.0 * (traced_p50 / untraced_p50 - 1.0)
    report.update(per_layer=common, layers=table, overhead_iterations=m,
                  untraced_iter_s_p50=untraced_p50, traced_iter_s_p50=traced_p50)
    with open(os.path.join(runner.dir, f"{name}.trace.json"), "w") as fh:
        json.dump(traced["trace"], fh)
    return report


LAYER_UNITS = {"us": "us", "ms": "ms", "s": "s", "calls": "count", "backtracks": "count",
               "accept_rate": "ratio", "overhead_pct": "%"}


def unit_of(metric: str) -> str:
    return LAYER_UNITS[metric.rsplit(".", 1)[1].replace("self_ms", "ms")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="maze_anneal")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny N and B on every workload, timed and traced, in seconds")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "haarlab", "experiment.py")):
        print(f"error: no haarlab sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]
    from checks import FingerprintStore

    start = time.monotonic()
    tag = "smoke" if args.smoke else f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = os.path.join(WORK, "runs", tag)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    store = FingerprintStore(os.path.join(WORK, "fingerprints.json"))
    runner = Runner(run_dir, start + RUN_LIMIT_S)
    record = {"provenance": provenance(), "load_at_start": load_now(), "reports": []}

    if args.smoke:
        plan = [(name, trace) for name in sorted(WORKLOADS) for trace in (False, True)]
    else:
        plan = [(args.workload, args.trace == 1)]
    for name, trace in plan:
        try:
            record["reports"].append(run_workload(name, args.seed, args.seconds, trace,
                                                  args.smoke, runner, store))
        except Failure:
            break
    store.save()
    record.update(load_at_end=load_now(), processes=runner.loads, problems=runner.problems,
                  attempted=runner.attempted, failed=runner.failed,
                  failed_frac=runner.failed / max(runner.attempted, 1),
                  elapsed_s=time.monotonic() - start)
    with open(os.path.join(WORK, "results", f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    correct = runner.failed == 0 and len(record["reports"]) == len(plan)
    metrics = {}
    if correct and args.smoke:
        metrics = {"smoke_s": {"value": record["elapsed_s"], "unit": "s"}}
    elif correct and args.trace:
        metrics = {k: {"value": v, "unit": unit_of(k)}
                   for k, v in record["reports"][0]["per_layer"].items()}
    elif correct:
        e2e = record["reports"][0]["end_to_end"]
        metrics = {k: {"value": e2e[k], "unit": unit} for k, unit in E2E_UNITS.items()}
    summary = {k: record[k] for k in ("provenance", "problems", "failed_frac", "elapsed_s")}
    summary["reports"] = [{k: v for k, v in r.items() if k != "config"}
                          for r in record["reports"]]
    print(json.dumps(summary))
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
