"""Transition calculus for hierarchical goal-conditioned learning.

Everything a level stores is built here, as packed float64 rows
state | goal | action | next_state | reward | discount (see pack_row): sparse
goal rewards with termination-on-success, hindsight action transitions (the
action component is the state actually reached, projected to goal space),
hindsight goal relabeling (one block of rows per segment), subgoal-test
penalties, and exploration transitions rewarded by the novelty model, which
carry no goal columns. The per-level ring replay buffer stores such rows as
float32, one row or one block per write.

Rewards are 0 or -1 (or -H for a failed subgoal test); the stored discount
is 0.99 except on terminal transitions, where it is exactly 0. Goal rewards
and the subgoal test come from one scalar test per row, math.hypot of the
position difference against epsilon (as in goal_reward): a vectorised
np.hypot or np.linalg.norm can differ in the last bit at the epsilon
boundary.
"""

from __future__ import annotations

import math

import numpy as np

from . import rnd
from .envsim import position
from .errors import ShapeError

DISCOUNT = 0.99


def goal_reward(achieved, goal, epsilon: float):
    """Sparse reward against a goal-space point: (0, True) inside the open
    epsilon-ball, (-1, False) otherwise. Both points are 2-vectors."""
    if len(achieved) != 2 or len(goal) != 2:
        raise ShapeError(f"achieved {np.shape(achieved)} and goal {np.shape(goal)} "
                         "must be 2-vectors")
    done = math.hypot(float(achieved[0]) - float(goal[0]),
                      float(achieved[1]) - float(goal[1])) < epsilon
    return (0.0 if done else -1.0), done


def pack_row(state, goal, action, next_state, reward: float,
             discount: float) -> np.ndarray:
    """One float64 row state | goal | action | next_state | reward | discount.
    A goal of None (an exploration row) leaves out the goal columns."""
    parts = (state, action, next_state) if goal is None else (state, goal, action, next_state)
    return np.concatenate((*parts, (reward, discount)), dtype=float)


def hindsight_action_transition(state, achieved_state, goal, epsilon: float) -> np.ndarray:
    """Subgoal-level row whose action is what the lower levels actually
    achieved, whatever subgoal was proposed."""
    achieved = np.asarray(achieved_state, dtype=float)
    action = position(achieved)
    reward, done = goal_reward(action, goal, epsilon)
    return pack_row(state, goal, action, achieved, reward, 0.0 if done else DISCOUNT)


def subgoal_test_transition(state, proposed_subgoal, achieved_state, horizon: int,
                            epsilon: float, goal=None):
    """Penalty row for a tested subgoal the lower levels failed to reach:
    reward -horizon with discount 0; goal is None for the exploration policy.
    Returns None when the subgoal was reached (the hindsight action
    transition already rewards that)."""
    proposed = np.asarray(proposed_subgoal, dtype=float)
    achieved = np.asarray(achieved_state, dtype=float)
    if goal_reward(position(achieved), proposed, epsilon)[1]:
        return None
    return pack_row(state, goal, proposed, achieved, -float(horizon), 0.0)


def hindsight_goal_transitions(segment, num_relabels: int, epsilon: float,
                               rng: np.random.Generator) -> np.ndarray:
    """Relabel a segment of (state, action, next_state) steps against
    substitute goals drawn from its own achieved states.

    The final achieved state is always the first substitute; the rest are
    uniform draws over the segment. Every step is relabeled against every
    substitute goal: the result is one (num_relabels * len(segment), width)
    block of rows, goal outer, step inner.
    """
    if not segment:
        raise ValueError("empty segment")
    states, actions, nexts = (np.array(c, dtype=float) for c in zip(*segment))
    n, sd = states.shape
    achieved = position(nexts)
    gd, ad = achieved.shape[1], actions.shape[1]
    if num_relabels <= 0:
        return np.empty((0, 2 * sd + gd + ad + 2))
    picks = [n - 1] + [int(rng.integers(0, n)) for _ in range(num_relabels - 1)]
    xy = achieved.tolist()
    done = np.array([[math.hypot(ax - gx, ay - gy) < epsilon for ax, ay in xy]
                     for gx, gy in (xy[p] for p in picks)])
    out = np.empty((num_relabels, n, 2 * sd + gd + ad + 2))
    out[:, :, :sd] = states
    out[:, :, sd:sd + gd] = achieved[picks][:, None, :]
    out[:, :, sd + gd:sd + gd + ad] = actions
    out[:, :, sd + gd + ad:-2] = nexts
    out[:, :, -2] = np.where(done, 0.0, -1.0)
    out[:, :, -1] = np.where(done, 0.0, DISCOUNT)
    return out.reshape(num_relabels * n, -1)


def exploration_transition(state, action, next_state,
                           novelty_model: rnd.NoveltyModel) -> np.ndarray:
    """Top-level exploration row (no goal columns): reward 0 and terminate
    (discount 0) on entering a new state, else reward -1 and discount 0.99."""
    ns = np.asarray(next_state, dtype=float)
    reward, new = rnd.exploration_reward(novelty_model, ns)
    return pack_row(state, None, action, ns, reward, 0.0 if new else DISCOUNT)


class ReplayBuffer:
    """Uniform-sampling ring buffer of packed float32 rows.

    Each row is state | goal | action | next_state | reward | discount, with
    the column widths (state, goal, action) fixed at construction; the
    exploration policy's buffer has goal width 0 and no goal columns. Storage is
    allocated at the first push.
    """

    def __init__(self, capacity: int, widths):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        sd, gd, ad = widths
        self.capacity = capacity
        self.count = 0
        self.next_index = 0
        self.rows = None
        self.widths = (sd, gd, ad)
        self.width = 2 * sd + gd + ad + 2
        # column slices of state, goal, action, next_state
        self._spans = (slice(0, sd), slice(sd, sd + gd), slice(sd + gd, sd + gd + ad),
                       slice(sd + gd + ad, 2 * sd + gd + ad))

    def columns(self, rows: np.ndarray):
        """(state, goal_or_None, action, next_state, reward, discount): views
        into rows laid out like this buffer's rows."""
        s, g, a, ns = self._spans
        return (rows[:, s], None if self.widths[1] == 0 else rows[:, g], rows[:, a], rows[:, ns],
                rows[:, -2], rows[:, -1])


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
    """Uniform sample with replacement for training: a float64 (batch_size,
    width) matrix of rows in the buffer's layout (see ReplayBuffer.columns)."""
    if buf.count == 0:
        raise ValueError("sample from empty buffer")
    idx = rng.integers(0, buf.count, batch_size)
    return np.take(buf.rows, idx, axis=0).astype(float)
