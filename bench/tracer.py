"""Per-layer tracing of one haarlab training process, from outside the package.

`install()` replaces each layer's public function at every name it is
bound under (module globals found by identity, class attributes for
methods) with a timing wrapper:

* per-iteration calls (rollout collection, value fits, TRPO updates and
  their gradient / CG phases, checkpoint I/O, pre-training) become spans
  with a parent, kept in memory and written out at the end;
* per-step calls (env.step/reset, raycast, goal_bearing, policy act,
  Fisher-vector products) only bump a count and a busy time, both in a
  global counter and on the span that encloses them, so memory stays
  bounded however many steps run.

A span's self time is its duration minus its child spans and the per-step
busy time recorded under it.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

clock = time.perf_counter

# a span is [name, start, end, parent index, per-step busy seconds inside it]
_NAME, _START, _END, _PARENT, _BUSY = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.trpo: dict[str, list] = defaultdict(list)  # level -> [(backtracks, accepted)]
        self.linesearch_start: dict[int, float] = {}     # update span index -> start
        self.rollouts: list[tuple[float, float]] = []    # (duration, per-step busy)
        self._phase_start: float | None = None
        self._phase_busy = 0.0
        self._in_step = False
        self._frozen: tuple[dict, dict] | None = None

    # -- recording --------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, clock(), 0.0, parent, 0.0])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index][_END] = clock()
        self._open.pop()

    def span(self, name_of, fn):
        """Wrap fn so each call records a span; name_of(args) names it."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(name_of(args))
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)
        return wrapper

    def step(self, name: str, fn):
        """Wrap fn so each call adds to a count and a busy time only."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_step:  # nested per-step call: its time is the caller's
                self.counts[name] += 1
                return fn(*args, **kwargs)
            self._in_step = True
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self._in_step = False
                self.counts[name] += 1
                self.busy[name] += dt
                self._phase_busy += dt
                if self._open:
                    self.spans[self._open[-1]][_BUSY] += dt
        return wrapper

    # -- iteration phases ---------------------------------------------------

    def iteration_start(self, t: float) -> None:
        """The rollout phase of an iteration runs from its start to its
        first value fit, whatever code collects the samples."""
        self._phase_start = t
        self._phase_busy = 0.0

    def close_rollout_phase(self) -> None:
        if self._phase_start is not None:
            self.rollouts.append((clock() - self._phase_start, self._phase_busy))
            self._phase_start = None

    def inside(self, prefix: str) -> bool:
        return any(self.spans[i][_NAME].startswith(prefix) for i in self._open)

    def open_update(self) -> int | None:
        """Index of the innermost open TRPO update span, if any."""
        for i in reversed(self._open):
            name = self.spans[i][_NAME]
            if name.startswith("trpo.") and name.endswith(".update"):
                return i
        return None

    def update_level(self) -> str:
        i = self.open_update()
        return "other" if i is None else self.spans[i][_NAME].split(".")[1]

    # -- summary ------------------------------------------------------------

    def span_stats(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[_PARENT] >= 0:
                child[s[_PARENT]] += s[_END] - s[_START]
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, s in enumerate(self.spans):
            d = out[s[_NAME]]
            dur = s[_END] - s[_START]
            d["calls"] += 1
            d["total_s"] += dur
            d["self_s"] += dur - child[i] - s[_BUSY]
        return dict(out)

    def freeze_steps(self) -> None:
        """Keep the per-step counts and busy times as they are now, so calls
        made after training (the trajectory episodes) are left out."""
        self._frozen = (dict(self.counts), dict(self.busy))

    def dump(self) -> dict:
        counts, busy = self._frozen or (dict(self.counts), dict(self.busy))
        return {"spans": self.spans,
                "span_stats": self.span_stats(),
                "counts": counts, "busy_s": busy,
                "trpo": dict(self.trpo), "rollouts": self.rollouts}


def _rebind(original, wrap) -> None:
    """Replace `original` at every module-global name of haarlab bound to
    it with wrap(module name); fail if nothing binds it any more."""
    found = False
    for name, mod in list(sys.modules.items()):
        if not (name == "haarlab" or name.startswith("haarlab.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrap(name))
                found = True
    if not found:
        raise RuntimeError(f"no binding of {original.__module__}.{original.__name__} found")


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of the already imported haarlab package."""
    import importlib

    from haarlab import checkpoint, hierarchy, pretrain, trpo
    from haarlab.envs.point import HIGH_OBS_DIM, PointEnv
    from haarlab.policies import CategoricalPolicy, GaussianPolicy
    raycast = importlib.import_module("haarlab.envs.raycast")  # the package re-exports the function

    # per-step layers
    PointEnv.step = tracer.step("envs.point.step", PointEnv.step)
    PointEnv.reset = tracer.step("envs.point.reset", PointEnv.reset)
    for fn in (raycast.raycast, raycast.goal_bearing):
        wrapped = tracer.step(f"envs.raycast.{fn.__name__}", fn)
        _rebind(fn, lambda module, w=wrapped: w)
    GaussianPolicy.act = tracer.step("policies.gaussian.act", GaussianPolicy.act)
    CategoricalPolicy.act = tracer.step("policies.categorical.act", CategoricalPolicy.act)

    # once per iteration
    for fn, name in ((hierarchy.collect_rollouts, "hierarchy.collect_rollouts"),
                     (hierarchy.assign_auxiliary_rewards, "hierarchy.assign_auxiliary_rewards"),
                     (hierarchy.prepare_level_batches, "hierarchy.prepare_level_batches"),
                     (checkpoint.save_checkpoint, "checkpoint.save"),
                     (checkpoint.load_checkpoint, "checkpoint.load"),
                     (pretrain.pretrain_skills, "pretrain.pretrain_skills")):
        wrapped = tracer.span(lambda args, n=name: n, fn)
        _rebind(fn, lambda module, w=wrapped: w)

    # Value fits. The experiment binding is the flat baseline's fit; every
    # other caller is hierarchical and fits either the 26-dim high
    # observation or the ego one (pre-training fits are labelled apart).
    def fit_level(module: str, states) -> str:
        if module == "haarlab.experiment":
            return "flat"
        if tracer.inside("pretrain."):
            return "pretrain"
        return "high" if states.shape[1] == HIGH_OBS_DIM else "low"

    def wrap_fit(module: str):
        fn = fit

        @functools.wraps(fn)
        def wrapper(states, *args, **kwargs):
            tracer.close_rollout_phase()
            index = tracer.begin(f"values.fit.{fit_level(module, states)}")
            try:
                return fn(states, *args, **kwargs)
            finally:
                tracer.end(index)
        return wrapper

    fit = hierarchy.fit_value_on_scaled
    _rebind(fit, wrap_fit)

    # TRPO: one update span per level, with grad and cg children, and a
    # line-search span from the update's first parameter write to its return.
    def update_level(module: str, policy) -> str:
        if module == "haarlab.experiment":
            return "flat"
        if module == "haarlab.pretrain":
            return "pretrain"
        return "high" if isinstance(policy, CategoricalPolicy) else "low"

    def wrap_update(module: str):
        fn = update

        @functools.wraps(fn)
        def wrapper(policy, batch, cfg):
            level = update_level(module, policy)
            index = tracer.begin(f"trpo.{level}.update")
            try:
                diag = fn(policy, batch, cfg)
            finally:
                tracer.end(index)
                start = tracer.linesearch_start.pop(index, None)
                if start is not None:
                    tracer.spans.append([f"trpo.{level}.linesearch", start,
                                         tracer.spans[index][_END], index, 0.0])
            tracer.trpo[level].append((int(diag.backtracks), bool(diag.accepted)))
            return diag
        return wrapper

    update = trpo.trpo_update
    _rebind(update, wrap_update)

    cg = tracer.span(lambda args: f"trpo.{tracer.update_level()}.cg", trpo.conjugate_gradient)
    _rebind(trpo.conjugate_gradient, lambda module: cg)
    for cls in (GaussianPolicy, CategoricalPolicy):
        cls.grad_logprob_weighted = tracer.span(
            lambda args: f"trpo.{tracer.update_level()}.grad", cls.grad_logprob_weighted)
        cls.fvp_builder = _fvp_builder_wrapper(tracer, cls.fvp_builder)
        cls.set_flat = _set_flat_wrapper(tracer, cls.set_flat)


def _fvp_builder_wrapper(tracer: Tracer, builder):
    """Count each application of the Fisher-vector product closure."""
    @functools.wraps(builder)
    def wrapper(self, *args, **kwargs):
        return tracer.step(f"trpo.{tracer.update_level()}.fvp", builder(self, *args, **kwargs))
    return wrapper


def _set_flat_wrapper(tracer: Tracer, set_flat):
    """The first parameter write inside an update starts its line search."""
    @functools.wraps(set_flat)
    def wrapper(self, values):
        index = tracer.open_update()
        if index is not None:
            tracer.linesearch_start.setdefault(index, clock())
        return set_flat(self, values)
    return wrapper
