"""One haarlab phase in a fresh interpreter, as the CLI runs it.

    python3 bench/worker.py SPEC.json

SPEC names the phase (`pretrain`, `train` or `probe`), the generated
config file, the seed, the output directory, the skills checkpoint, the
result file and whether to trace. The result file receives the
timestamps the harness needs (on the system-wide monotonic clock, so
they compare with the launch time the harness took), this process's
CPU time and peak RSS, and, when traced, the trace.

`probe` runs the train phase's set-up and stops when the first
iteration resets its first episode; `train` records that moment and the
end of every iteration through run_single_seed's log callback, and stops
after `stop_after` iterations when that is set. At that first reset and
after each iteration, `train` takes a reading of the host's speed
(hostref.py); each iteration starts when the reading before it ends. A
traced train freezes its per-step counts at the last iteration's end, so
the trajectory episodes run after training are not counted.

Every phase runs on one core, the last one it may use, so that the
readings measure the core the work ran on.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Stop(Exception):
    """Ends a probe at the first episode reset, or a train phase after
    `stop_after` iterations."""


def hook_first_reset(point_env_cls, on_first):
    """Call on_first() at the first PointEnv.reset, then restore reset."""
    original = point_env_cls.reset

    def reset(self, rng):
        point_env_cls.reset = original
        on_first()
        return original(self, rng)

    point_env_cls.reset = reset


def main(spec_path: str) -> None:
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(os.path.abspath(__file__))]
    from haarlab import experiment
    from haarlab.config import load_config
    from haarlab.envs.point import PointEnv
    import hostref

    tracer = None
    if spec["trace"]:
        from tracer import Tracer, clock, install
        tracer = Tracer()
        install(tracer)

    cfg = load_config(spec["config"])
    seed = spec["seed"]
    result: dict = {}
    if spec["phase"] == "pretrain":
        result["skills"] = experiment.run_pretrain(cfg, spec["out"])[seed]
    else:
        iter_starts: list[float] = []
        iter_ends: list[float] = []
        readings: list[tuple[float, float, float]] = []

        def read_host():
            readings.append(hostref.reading())
            iter_starts.append(time.monotonic())

        def first_reset():
            result["first_reset"] = time.monotonic()
            if spec["phase"] == "probe":
                raise Stop
            read_host()
            if tracer is not None:
                tracer.iteration_start(clock())

        def log(_msg):
            iter_ends.append(time.monotonic())
            read_host()
            if tracer is not None:
                tracer.iteration_start(clock())
                if len(iter_ends) == cfg.N:
                    tracer.freeze_steps()
            if len(iter_ends) == spec["stop_after"]:
                raise Stop

        hook_first_reset(PointEnv, first_reset)
        try:
            experiment.run_single_seed(cfg, seed, spec["out"],
                                       skills_checkpoint=spec["skills"], log=log)
        except Stop:
            pass
        result["run_dir"] = os.path.join(spec["out"], f"seed_{seed}")
        result["returned"] = time.monotonic()
        result.update(iter_starts=iter_starts, iter_ends=iter_ends, host_readings=readings)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["maxrss_kb"] = usage.ru_maxrss
    if tracer is not None:
        result["trace"] = tracer.dump()
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
