"""Lockstep lanes: the one scheduler that runs the episodes of a batch.

Up to LANES episodes run side by side. On each lockstep step a collector
chooses the actions of every running episode with batched policy calls,
each lane steps its own episode with the scalar env.step, and the high
observations the collector asks for are computed in one
env.high_obs_batch call (one raycast over all of their positions).

The batch is the one a sequential loop would collect. Episode e draws
only from its own stream episode_rng(seed, e), in the same order as it
would alone, and batched policy rows are computed row by row, so no
value depends on the lanes. Episode e belongs to the batch iff the
episodes before it hold fewer than `budget` steps, and every episode in
the batch runs to its end: lanes start episodes in index order while the
steps taken so far are below the budget, and drop a running episode as
soon as the episodes before it reach the budget. The rows each step
records come out in episode order, and within an episode in time order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Measured faster than 8 on both benchmark workloads (CHANGES.md); wider
# lanes also start more episodes that the budget then drops.
LANES = 16
EPISODE_STREAM = 0xE9


@dataclass
class EpisodeSummary:
    total_return: float
    success: bool


def episode_rng(seed: tuple[int, ...], episode: int) -> np.random.Generator:
    """Stream for one episode, independent of every other episode."""
    return np.random.default_rng(np.random.SeedSequence((*seed, EPISODE_STREAM, episode)))


class Lane:
    """One running episode: its index, stream, simulator state and
    observation, the high observation of that observation when the
    collector asked for it, and running totals. Collectors keep their
    own per-episode state on it as well."""

    def __init__(self, episode: int, rng: np.random.Generator, state, obs):
        self.episode = episode
        self.rng = rng
        self.state = state
        self.obs = obs
        self.high = None
        self.steps = 0
        self.total_return = 0.0
        self.success = False


@dataclass
class LaneRun:
    """What a lockstep run returns: the rows each step recorded, for the
    steps of the batch's episodes, in episode order and within an episode
    in time order. Each array is a C-contiguous view of the leading rows
    of one step buffer."""
    columns: list[np.ndarray]       # the collector's per-step columns
    reward: np.ndarray
    done: np.ndarray
    episodes: list[EpisodeSummary]  # the batch's episodes, by index
    steps_taken: int                # every step, those of dropped episodes included

    def order(self, episode_of) -> np.ndarray:
        """Indices that put items tagged with their episode into episode
        order, leaving out the items of episodes outside the batch."""
        return _episode_order(episode_of, len(self.episodes))


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


class _StepRows:
    """Per-step columns, filled one lockstep step (one row per lane) at a
    time. Each column is one buffer that doubles when full, not a list of
    small arrays that would grow and fragment the heap."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.columns = None
        self.n = 0

    def add(self, blocks):
        m = len(blocks[0])
        if self.columns is None:
            self.columns = [np.empty((max(self.capacity, m), *b.shape[1:]), b.dtype)
                            for b in blocks]
        elif self.n + m > len(self.columns[0]):
            self.columns = [np.concatenate((c, np.empty_like(c))) for c in self.columns]
        for column, block in zip(self.columns, blocks):
            column[self.n:self.n + m] = block
        self.n += m


def run_lanes(env, seed: tuple[int, ...], budget: int, collector, lanes: int = LANES) -> LaneRun:
    """Run episodes 0, 1, ... in lockstep lanes until the batch holds at
    least `budget` steps.

    The collector supplies three methods:
      start(lane)                 a new episode begins in `lane`
      act(lanes) -> (actions, columns)
                                  the actions of the running lanes, in
                                  order, and a tuple of arrays with one row
                                  per lane that the step records
      stepped(lane, reward, done) -> bool
                                  one step was taken; True asks for the
                                  high observation of the lane's new one
    A new episode always gets its high observation.
    """
    if budget < 1 or lanes < 1:
        raise ValueError("the step budget and the lane count must be >= 1")
    lengths: list[int] = []        # steps episode e has taken
    summaries: dict[int, EpisodeSummary] = {}
    rows = _StepRows(budget + budget // 4)  # about what speculative lanes take
    active: list[Lane] = []
    want_high: list[Lane] = []
    total = 0                      # steps of every episode started so far
    while True:
        while len(active) < lanes and total < budget:
            e = len(lengths)
            rng = episode_rng(seed, e)
            state, obs = env.reset(rng)
            lane = Lane(e, rng, state, obs)
            collector.start(lane)
            lengths.append(0)
            active.append(lane)
            want_high.append(lane)
        if want_high:
            highs = env.high_obs_batch([lane.obs for lane in want_high])
            for lane, high in zip(want_high, highs):
                lane.high = high
        if not active:
            break
        actions, columns = collector.act(active)
        rewards = []
        dones = []
        want_high = []
        running = []
        for lane, action in zip(active, actions):
            lane.state, lane.obs, reward, done, info = env.step(lane.state, action)
            lane.steps += 1
            lane.total_return += reward
            if info.get("goal"):
                lane.success = True
            lengths[lane.episode] = lane.steps
            rewards.append(reward)
            dones.append(done)
            if collector.stepped(lane, reward, done):
                want_high.append(lane)
            if done:
                summaries[lane.episode] = EpisodeSummary(lane.total_return, lane.success)
            else:
                running.append(lane)
        rows.add((np.array([lane.episode for lane in active]), np.array(rewards),
                  np.array(dones), *columns))
        total += len(active)
        active = running
        if total >= budget:
            cut = _first_excluded(lengths, budget)
            active = [lane for lane in active if lane.episode < cut]
            want_high = [lane for lane in want_high if lane.episode < cut]
    kept = _first_excluded(lengths, budget)
    order = _episode_order(rows.columns[0][:rows.n], kept)
    # Reorder inside the buffers and hand out their leading rows, so the
    # buffers live as long as the batch. Freed before the policy update,
    # they let the allocator return heap pages that the update's
    # temporaries then fault in again (about 3,600 more minor faults per
    # flat TRPO iteration at B = 5000).
    for column in rows.columns:
        column[:len(order)] = column[order]
    _, reward, done, *columns = (column[:len(order)] for column in rows.columns)
    return LaneRun(columns=columns, reward=reward, done=done,
                   episodes=[summaries[e] for e in range(kept)], steps_taken=total)
