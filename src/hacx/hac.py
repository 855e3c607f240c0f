"""Transition calculus for hierarchical goal-conditioned learning.

Everything a level stores is built here, as packed float64 rows
state | goal | action | next_state | reward | discount (pack_row; columns
reads them, and a row's width tells its goal width): sparse goal rewards
with termination-on-success, hindsight action transitions (the action is
the state reached, in goal space), hindsight goal relabeling (one block per
segment of step rows), subgoal-test penalties, and exploration rows, which
have no goal columns. ReplayBuffer, a float32 ring of rows of one width,
holds each level's rows and the novelty model's visited positions.

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


def hindsight_goal_transitions(steps: np.ndarray, num_relabels: int, epsilon: float,
                               rng: np.random.Generator) -> np.ndarray:
    """Relabel a segment, the block of step rows one level stored (with or
    without goal columns), against substitute goals drawn from its own
    achieved states.

    The final achieved state is always the first substitute; the rest are
    uniform draws over the segment. Every step is relabeled against every
    substitute goal: the result is one (num_relabels * len(steps), width)
    block of rows with GOAL_DIM goal columns, goal outer, step inner, each
    rewarded by within of its achieved position and its goal.
    """
    if len(steps) == 0:
        raise ValueError("empty segment")
    states, _, actions, nexts, _, _ = columns(steps)
    n = len(steps)
    width = 2 * STATE_DIM + GOAL_DIM + ACTION_DIM + 2
    if num_relabels <= 0:
        return np.empty((0, width))
    achieved = position(nexts)
    picks = [n - 1] + [int(rng.integers(0, n)) for _ in range(num_relabels - 1)]
    xy = achieved.tolist()
    done = np.array([[within(ax, ay, gx, gy, epsilon) for ax, ay in xy]
                     for gx, gy in (xy[p] for p in picks)])
    out = np.empty((num_relabels, n, width))
    s, g, a, ns, reward, discount = columns(out)
    s[:] = states
    g[:] = achieved[picks][:, None, :]
    a[:] = actions
    ns[:] = nexts
    reward[:] = np.where(done, 0.0, -1.0)
    discount[:] = np.where(done, 0.0, DISCOUNT)
    return out.reshape(num_relabels * n, -1)


def exploration_transition(state, action, next_state, new: bool) -> np.ndarray:
    """Top-level exploration row (no goal columns): reward 0 and terminate
    (discount 0) when the novelty model finds next_state new (the verdict of
    rnd.exploration_reward), else reward -1 and discount 0.99."""
    return pack_row(state, None, action, next_state, 0.0 if new else -1.0,
                    0.0 if new else DISCOUNT)


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
