"""Lockstep lanes: the one scheduler that runs the episodes of a batch.

Every episode the package runs goes through run_lanes: training batches,
pre-training's proxy batches, the skill probe and the post-training trace.
Episodes run side by side as the rows of one batch state. On each
lockstep step a collector chooses the actions of every running episode
with batched policy calls, asking for the high observations it needs in
one env.high_obs_batch call (one raycast over all of their positions),
and one env.step advances every lane.

How many lanes run is the caller's choice. The first training batch,
pre-training, the skill probe and the trace take ceil(budget /
env.horizon), the number of episodes a batch holds when each runs its
full horizon; every later training batch takes as many lanes as the
previous batch had episodes, so a batch whose episodes end early also
starts in one wave instead of refilling lanes one episode at a time.
Lanes join on boundaries: the collector sets a join period, and new
episodes start only on lockstep steps that are a multiple of it counted
from the current wave (when no lane runs, they start at once and the
count restarts). The hierarchical collector's period is its skill
length, so every lane opens its skill segments on the same steps and one
high-level decision serves them all; the flat and skill collectors join
on any step.

Collectors draw their noise when a lane decides, not on every step: the
hierarchical one draws a segment's skill uniform and then its k low-step
noise rows when the segment opens, the flat and skill collectors an
episode's T rows at its first step. Each block comes from the episode's
own stream, in the order a one-by-one loop draws the same values, and a
block holds the same values as that many single draws. The policy turns
the blocks of every lane that drew into the rows its act takes at once.

The caller hands run_lanes one stream (a Generator) per episode, in
episode order; training and pre-training batches use episode_streams(seed).
The batch is the one a sequential loop would collect. Episode e draws
only from its own stream, in the same order as it would alone, and
batched policy and env rows are computed row by row, so no value depends
on the lanes. Episode e belongs to the batch iff the episodes before it
hold fewer than `budget` steps, and every episode in the batch runs to
its end: lanes start episodes in index order while the steps taken so
far are below the budget and streams remain, and drop a running episode
as soon as the episodes before it reach the budget. Episodes started
beyond the batch are speculative steps that the budget drops. The rows
each step records come out in episode order, and within an episode in
time order; the env state after each episode's last step comes out as
one row per episode, so a row's next state is the following row's, or
that final row where the row ends its episode. Each episode's return and
whether it reached the goal, derived from its rows, come out by index.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice
from typing import Iterable, NamedTuple

import numpy as np

EPISODE_STREAM = 0xE9
GOAL = 1  # the end code of a step that reaches the goal: its episode succeeds


def batch_metrics(k: int, steps: int, success: np.ndarray, total_return: np.ndarray) -> dict:
    """What one training batch reports: its skill length, steps and
    episode count, and its episodes' success_rate and mean_return."""
    return {"k": k, "steps": steps, "episodes": len(success),
            "success_rate": float(np.mean(success)), "mean_return": float(np.mean(total_return))}


def episode_rng(seed: tuple[int, ...], episode: int) -> np.random.Generator:
    """Stream for one episode, independent of every other episode."""
    return np.random.default_rng(np.random.SeedSequence((*seed, EPISODE_STREAM, episode)))


def episode_streams(seed: tuple[int, ...]):
    """episode_rng(seed, e) for e = 0, 1, ...: the streams of a batch. seed is
    (run seed, iteration) for training and (run seed, pretrain.PRETRAIN_STREAM,
    iteration) for pre-training, so a pre-training key is one word longer than
    any training key of the same run seed and never equals one."""
    return (episode_rng(seed, e) for e in count())


class Running(NamedTuple):
    """The running episodes, one row per lane and in lane order."""
    episode: np.ndarray       # (L,) episode indices
    rng: np.ndarray           # (L,) the episodes' Generators, as objects
    skill: np.ndarray         # (L,) the skill each runs: -1 until a collector writes it in place
    steps: np.ndarray         # (L,) steps each episode has taken
    state: tuple              # the env's batch state (a NamedTuple of row arrays)
    low: np.ndarray           # (L, low_dim) the current ego observations
    noise: np.ndarray         # (L, *collector.noise_shape): unset until a collector
                              # draws each lane's noise and writes it in place


def _rows(batch: tuple, rows) -> tuple:
    """The lanes `rows` selects from a NamedTuple of row arrays (nested
    ones included)."""
    return type(batch)(*[a[rows] if type(a) is np.ndarray else _rows(a, rows) for a in batch])


def _joined(parts: list[tuple]) -> tuple:
    """The lanes of each batch in `parts`, in order."""
    return type(parts[0])(*[np.concatenate(x) if type(x[0]) is np.ndarray else _joined(x)
                            for x in zip(*parts)])


@dataclass
class LaneRun:
    """What a lockstep run returns: the rows each step recorded, for the
    steps of the batch's episodes, in episode order and within an episode
    in time order. Each per-step array is a C-contiguous view of the
    leading rows of its column, concatenated and then ordered in place."""
    columns: list[np.ndarray]  # the collector's per-step columns
    reward: np.ndarray
    done: np.ndarray
    final: tuple               # the env state after each episode's last step,
                               # one row per episode of the batch, by index
    success: np.ndarray        # each episode of the batch reached the goal, by index
    total_return: np.ndarray   # its undiscounted return, by index
    steps_taken: int           # every step, those of dropped episodes included


def _episode_order(episode_of, kept: int) -> np.ndarray:
    """A stable sort on the episode index (each episode keeps its own
    order) that drops the items of episodes `kept` and later."""
    episode_of = np.asarray(episode_of, dtype=np.intp)
    idx = np.argsort(episode_of, kind="stable")
    return idx[episode_of[idx] < kept]


def _first_excluded(lengths: list[int], budget: int) -> int:
    """The first episode whose predecessors hold `budget` steps or more
    (len(lengths) when there is none among those started)."""
    before = 0
    for e, n in enumerate(lengths):
        if before >= budget:
            return e
        before += n
    return len(lengths)


def run_lanes(env, streams: Iterable[np.random.Generator], budget: int, collector,
              lanes: int | None = None) -> LaneRun:
    """Run one episode per stream, episode e on the e-th, in lockstep lanes
    until the batch holds at least `budget` steps or the streams run out.

    `lanes` defaults to ceil(budget / env.horizon). New episodes start
    only on lockstep steps that are a multiple of the collector's period,
    counted from the current wave, or at once when no lane runs. No lane
    count changes a byte of the batch. The env supplies its horizon,
    reset(rng) for one episode (a one-lane batch state and its
    (1, low_dim) ego row), high_obs_batch(batch, low) and step(batch,
    actions) -> (batch, ego rows, rewards, end codes), with (L,) codes 0
    runs on, GOAL, 2 a fall (or other end state) and 3 the horizon.
    The collector supplies
      period
          the join period, in lockstep steps;
      noise_shape
          the shape of the noise one lane holds (running.noise[i]);
      act(running, high) -> (actions, columns)
          the actions of the Running lanes, in order, and a tuple of
          arrays with one row per lane that the step records; high()
          gives the high observation rows of every lane. A collector
          that chooses skills writes them into running.skill in place,
          and the noise it draws into running.noise; a lane keeps both
          until they are written again. The step records its arrays by
          reference, so none may be written again after act returns.
    """
    if lanes is None:
        lanes = -(-budget // env.horizon)
    if budget < 1 or lanes < 1 or collector.period < 1:
        raise ValueError("the step budget, the lane count and the period must be >= 1")
    streams = iter(streams)
    lengths: list[int] = []        # steps episode e has taken
    finals: list[tuple] = []       # (episodes, env state rows) as lanes end
    recorded: list[tuple] = []     # (episodes, rewards, end codes, *columns) of each step
    run = None
    total = 0                      # steps of every episode started so far
    clock = 0                      # lockstep steps since the current wave started
    while True:
        n = 0 if run is None else len(run.episode)
        if n < lanes and total < budget and (n == 0 or clock % collector.period == 0):
            if n == 0:
                clock = 0
            e0 = len(lengths)
            rngs = list(islice(streams, lanes - n))
            if rngs:
                m = len(rngs)
                states, lows = zip(*(env.reset(rng) for rng in rngs))
                lengths += [0] * m
                fresh = Running(np.arange(e0, e0 + m), np.fromiter(rngs, object, m), np.full(m, -1),
                                np.zeros(m, np.intp), _joined(states),
                                np.concatenate(lows), np.empty((m, *collector.noise_shape)))
                run = fresh if run is None else _joined([run, fresh])
        if run is None or not len(run.episode):
            break

        def high(run=run):
            return env.high_obs_batch(run.state, run.low)

        actions, columns = collector.act(run, high)
        state, low, reward, end = env.step(run.state, actions)
        done = end > 0
        np.add(run.steps, 1, out=run.steps)
        run = run._replace(state=state, low=low)
        recorded.append((run.episode, reward, end, *columns))
        total += len(run.episode)
        clock += 1
        ended = done.any()
        if ended:
            finished = np.flatnonzero(done)
            finals.append((run.episode[finished], _rows(state, finished)))
            for e, steps in zip(run.episode[finished].tolist(), run.steps[finished].tolist()):
                lengths[e] = steps
        if total >= budget:
            for e, steps in zip(run.episode.tolist(), run.steps.tolist()):
                lengths[e] = steps
            keep = ~done & (run.episode < _first_excluded(lengths, budget))
            if not keep.all():
                run = _rows(run, keep)
        elif ended:
            run = _rows(run, ~done)
    kept = _first_excluded(lengths, budget)
    episode, *recorded = zip(*recorded)  # each column, as the arrays of every step
    episode = np.concatenate(episode)
    order = _episode_order(episode, kept)
    for i, column in enumerate(map(np.concatenate, recorded)):
        recorded[i] = column[:len(order)]  # frees its step arrays before the next is joined
        column[:len(order)] = column[order]
    reward, end, *columns = recorded
    done = end > 0
    ended, final = zip(*finals)
    # bincount adds each episode's rewards in step order, as a running sum would
    return LaneRun(columns=columns, reward=reward, done=done,
                   final=_rows(_joined(final), _episode_order(np.concatenate(ended), kept)),
                   success=end[done] == GOAL,
                   total_return=np.bincount(episode[order], weights=reward, minlength=kept),
                   steps_taken=total)
