"""Transition calculus for hierarchical goal-conditioned learning.

Everything a level stores is built here, as packed float64 rows
state | goal | action | next_state | reward | discount (pack_row; columns
reads them, and a row's width tells its goal width): sparse goal rewards
with termination-on-success, hindsight action transitions (the action is
the state reached, in goal space), hindsight goal relabeling (one block per
level, from its segments of step rows), subgoal-test penalties, and
exploration rows, which have no goal columns. RowTable, a float64 table
that doubles when full, holds rows while an episode runs: each level call's
rows and the episode's states. ReplayBuffer, a float32 ring of rows of
one width, holds each level's rows and the novelty model's visited positions.

Rewards are 0 or -1 (or -H for a failed subgoal test); the stored discount
is 0.99 except on terminal transitions, where it is exactly 0. One goal test,
within, decides a level's stop rule, task success, the subgoal test and every
relabeled reward. The rollout computes each verdict once, where it has the
floats, and hands it to the builder that writes it; only relabeling, which
makes up its goals, runs the test itself.
"""

from __future__ import annotations

import math

import numpy as np

from .envsim import position
from .errors import ShapeError

DISCOUNT = 0.99
STATE_DIM = 4   # (x, y, vx, vy)
GOAL_DIM = 2    # (x, y)
ACTION_DIM = 2  # every actor's output: a velocity command or a subgoal (x, y)


def columns(rows: np.ndarray):
    """(state, goal_or_None, action, next_state, reward, discount): views into
    one packed row, or into every row of a stack of them. The goal width is
    what the row width leaves, 0 for an exploration row."""
    ns = rows.shape[-1] - STATE_DIM - 2
    a = ns - ACTION_DIM
    return (rows[..., :STATE_DIM], rows[..., STATE_DIM:a] if a > STATE_DIM else None,
            rows[..., a:ns], rows[..., ns:-2], rows[..., -2], rows[..., -1])


def within(x: float, y: float, gx: float, gy: float, epsilon: float) -> bool:
    """The goal test: (x, y) lies in the open epsilon-ball around (gx, gy).
    Python floats and math.hypot, since a vectorised np.hypot or
    np.linalg.norm can differ in the last bit at the epsilon boundary."""
    return math.hypot(x - gx, y - gy) < epsilon


def pack_row(state, goal, action, next_state, reward: float,
             discount: float) -> np.ndarray:
    """One float64 row state | goal | action | next_state | reward | discount.
    A goal of None (an exploration row) leaves out the goal columns."""
    parts = (state, action, next_state) if goal is None else (state, goal, action, next_state)
    return np.concatenate((*parts, (reward, discount)), dtype=float)


def hindsight_action_transition(state, achieved_state, goal, reached: bool) -> np.ndarray:
    """Subgoal-level row whose action is what the lower levels actually
    achieved, whatever subgoal was proposed; reached is the level's own goal
    test on achieved_state, which ends the row's episode with reward 0."""
    return pack_row(state, goal, position(achieved_state), achieved_state,
                    0.0 if reached else -1.0, 0.0 if reached else DISCOUNT)


def subgoal_test_transition(state, proposed_subgoal, achieved_state, horizon: int,
                            goal) -> np.ndarray:
    """Penalty row for a tested subgoal the lower levels failed to reach:
    reward -horizon with discount 0; goal is None for the exploration policy.
    The caller writes one for a miss only: a reached subgoal's hindsight
    action transition already rewards it."""
    return pack_row(state, goal, proposed_subgoal, achieved_state, -float(horizon), 0.0)


def hindsight_goal_transitions(segments, num_relabels: int, epsilon: float,
                               rng: np.random.Generator) -> np.ndarray:
    """Relabel one level's segments, each a block of the step rows it stored
    (with or without goal columns), every segment against substitute goals
    drawn from its own achieved states.

    A segment's final achieved state is always its first substitute; the rest
    are uniform draws over the segment, drawn segment after segment. Every
    step is relabeled against every substitute goal of its segment: the result
    is one (num_relabels * total steps, width) block of rows with GOAL_DIM goal
    columns, segment outer, then goal, then step, each rewarded by within of
    its achieved position and its goal. An empty segment raises ValueError.
    """
    if any(len(seg) == 0 for seg in segments):
        raise ValueError("empty segment")
    width = 2 * STATE_DIM + GOAL_DIM + ACTION_DIM + 2
    if num_relabels <= 0:
        return np.empty((0, width))
    steps = np.concatenate(segments)
    states, _, actions, nexts, _, _ = columns(steps)
    achieved = position(nexts)
    xy = achieved.tolist()
    # per output row: the step it relabels, its goal's step, and its verdict
    step_of, goal_of, done = [], [], []
    start = 0
    for seg in segments:
        end = start + len(seg)
        picks = [end - 1] + [start + int(rng.integers(0, len(seg)))
                             for _ in range(num_relabels - 1)]
        span, seg_xy = range(start, end), xy[start:end]
        for p in picks:
            gx, gy = xy[p]
            done += [within(ax, ay, gx, gy, epsilon) for ax, ay in seg_xy]
            step_of += span
            goal_of += [p] * len(seg)
        start = end
    step_of = np.array(step_of)
    done = np.array(done)
    out = np.empty((len(done), width))
    s, g, a, ns, reward, discount = columns(out)
    s[:] = states[step_of]
    g[:] = achieved[goal_of]
    a[:] = actions[step_of]
    ns[:] = nexts[step_of]
    reward[:] = np.where(done, 0.0, -1.0)
    discount[:] = np.where(done, 0.0, DISCOUNT)
    return out


def exploration_transition(state, action, next_state, new: bool) -> np.ndarray:
    """Top-level exploration row (no goal columns): reward 0 and terminate
    (discount 0) when the novelty model finds next_state new (the verdict of
    rnd.exploration_reward), else reward -1 and discount 0.99."""
    return pack_row(state, None, action, next_state, 0.0 if new else -1.0,
                    0.0 if new else DISCOUNT)


class RowTable:
    """Float64 rows of one width, appended in order to a table that doubles
    when full, up to limit rows if a limit is given: room for a few rows is
    allocated up front, never for a budget. rows is the filled part, a view."""

    def __init__(self, width: int, capacity: int, limit: int = None):
        self.table = np.empty((capacity, width))
        self.n = 0
        self.limit = limit

    def append(self, row) -> None:
        """Copy row into the next row of the table."""
        n = self.n
        if n == len(self.table):
            grown = np.empty((2 * n if self.limit is None else min(2 * n, self.limit),
                              self.table.shape[1]))
            grown[:n] = self.table
            self.table = grown
        self.table[n] = row
        self.n = n + 1

    @property
    def rows(self) -> np.ndarray:
        return self.table[:self.n]


class ReplayBuffer:
    """Uniform-sampling FIFO ring of float32 rows of one width: a level's
    packed rows (see columns), or the novelty model's visited (x, y)
    positions. Storage is allocated at the first push."""

    def __init__(self, capacity: int, width: int):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.width = width
        self.count = 0
        self.next_index = 0
        self.rows = None


def buffer_push(buf: ReplayBuffer, rows: np.ndarray) -> ReplayBuffer:
    """Store one row, or a block of rows in order, as float32; once the
    buffer is full each new row overwrites the oldest."""
    if rows.ndim not in (1, 2) or rows.shape[-1] != buf.width:
        raise ShapeError(f"rows of shape {rows.shape} do not fit a buffer of "
                         f"{buf.width}-wide rows")
    if buf.rows is None:
        buf.rows = np.zeros((buf.capacity, buf.width), dtype=np.float32)
    cap, i = buf.capacity, buf.next_index
    if rows.ndim == 1:
        buf.rows[i] = rows
        n = 1
    else:
        n = len(rows)
        kept = rows[-cap:]     # of a block longer than the buffer, the newest rows
        j = (i + n - len(kept)) % cap
        first = min(len(kept), cap - j)
        buf.rows[j:j + first] = kept[:first]
        buf.rows[:len(kept) - first] = kept[first:]
    buf.next_index = (i + n) % cap
    buf.count = min(buf.count + n, cap)
    return buf


def sample_arrays(buf: ReplayBuffer, batch_size: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform sample with replacement: a float64 (batch_size, width) matrix
    of stored rows."""
    if buf.count == 0:
        raise ValueError("sample from empty buffer")
    idx = rng.integers(0, buf.count, batch_size)
    return np.take(buf.rows, idx, axis=0).astype(float)
