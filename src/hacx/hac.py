"""Transition calculus for hierarchical goal-conditioned learning.

Everything a level stores is built here: sparse goal rewards with
termination-on-success, hindsight action transitions (the action component
is the state actually reached, projected to goal space), hindsight goal
relabeling, subgoal-test penalties, exploration transitions rewarded by the
novelty model, and the per-level ring replay buffer.

Rewards are 0 or -1 (or -H for a failed subgoal test); the stored discount
is 0.99 except on terminal transitions, where it is exactly 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rnd
from .errors import ShapeError

DISCOUNT = 0.99

# Goal tag for the exploration policy's transitions, which carry no goal.
EXPLORE = "EXPLORE"


@dataclass
class Transition:
    state: np.ndarray
    action: np.ndarray
    reward: float
    next_state: np.ndarray
    goal: object          # goal-space vector, or the EXPLORE tag
    discount: float


def project_goal(state) -> np.ndarray:
    """g(s): goal space is the (x, y) position."""
    s = np.asarray(state, dtype=float)
    return s[..., :2]


def goal_reward(achieved, goal, epsilon: float):
    """Sparse reward against a goal-space point: (0, True) inside the open
    epsilon-ball, (-1, False) otherwise."""
    if len(achieved) == 2 and len(goal) == 2:
        done = math.hypot(float(achieved[0]) - float(goal[0]),
                          float(achieved[1]) - float(goal[1])) < epsilon
        return (0.0 if done else -1.0), done
    a = np.asarray(achieved, dtype=float)
    g = np.asarray(goal, dtype=float)
    if a.shape != g.shape:
        raise ShapeError(f"achieved {a.shape} vs goal {g.shape}")
    done = bool(np.linalg.norm(a - g) < epsilon)
    return (0.0 if done else -1.0), done


def hindsight_action_transition(state, proposed_subgoal, achieved_state, goal,
                                epsilon: float) -> Transition:
    """Subgoal-level transition with the action replaced by what the lower
    levels actually achieved; the proposed subgoal is discarded."""
    achieved = np.asarray(achieved_state, dtype=float)
    action = project_goal(achieved)
    reward, done = goal_reward(action, goal, epsilon)
    return Transition(np.asarray(state, dtype=float), action, reward, achieved,
                      np.asarray(goal, dtype=float), 0.0 if done else DISCOUNT)


def subgoal_test_transition(state, proposed_subgoal, achieved_state, horizon: int,
                            epsilon: float, goal=EXPLORE):
    """Penalty for a tested subgoal the lower levels failed to reach:
    reward -horizon with discount 0. Returns None when the subgoal was
    reached (the hindsight action transition already rewards that)."""
    proposed = np.asarray(proposed_subgoal, dtype=float)
    achieved = np.asarray(achieved_state, dtype=float)
    if np.linalg.norm(project_goal(achieved) - proposed) < epsilon:
        return None
    g = goal if isinstance(goal, str) else np.asarray(goal, dtype=float)
    return Transition(np.asarray(state, dtype=float), proposed, -float(horizon),
                      achieved, g, 0.0)


def hindsight_goal_transitions(segment, num_relabels: int, epsilon: float,
                               rng: np.random.Generator) -> list:
    """Relabel a segment of (state, action, next_state) steps against
    substitute goals drawn from its own achieved states.

    The final achieved state is always one of the substitutes; the rest are
    uniform draws over the segment. Every step is relabeled against every
    substitute goal.
    """
    if not segment:
        raise ValueError("empty segment")
    if num_relabels <= 0:
        return []
    achieved = [project_goal(ns) for (_, _, ns) in segment]
    goals = [achieved[-1]]
    for _ in range(num_relabels - 1):
        goals.append(achieved[int(rng.integers(0, len(achieved)))])
    out = []
    for g in goals:
        for (s, a, ns) in segment:
            reward, done = goal_reward(project_goal(ns), g, epsilon)
            out.append(Transition(np.asarray(s, dtype=float), np.asarray(a, dtype=float),
                                  reward, np.asarray(ns, dtype=float), g.copy(),
                                  0.0 if done else DISCOUNT))
    return out


def exploration_transition(state, action, next_state,
                           novelty_model: rnd.NoveltyModel) -> Transition:
    """Top-level exploration step: reward 0 and terminate (discount 0) on
    entering a new state, else reward -1 and discount 0.99."""
    ns = np.asarray(next_state, dtype=float)
    reward, new = rnd.exploration_reward(novelty_model, ns)
    return Transition(np.asarray(state, dtype=float), np.asarray(action, dtype=float),
                      reward, ns, EXPLORE, 0.0 if new else DISCOUNT)


class ReplayBuffer:
    """Uniform-sampling ring buffer of packed float32 rows.

    Each row is state | goal | action | next_state | reward | discount; an
    EXPLORE buffer has no goal columns. The column widths are fixed by the
    first pushed transition; a buffer either holds goal-conditioned
    transitions or EXPLORE ones, never both.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.count = 0
        self.next_index = 0
        self.rows = None
        self.explore = None
        self.widths = None   # (state, goal, action)
        self._spans = None   # column slices of state, goal, action, next_state

    def _alloc(self, t: Transition):
        self.explore = isinstance(t.goal, str)
        sd, gd, ad = len(t.state), 0 if self.explore else len(t.goal), len(t.action)
        self.widths = (sd, gd, ad)
        self._spans = (slice(0, sd), slice(sd, sd + gd), slice(sd + gd, sd + gd + ad),
                       slice(sd + gd + ad, 2 * sd + gd + ad))
        self.rows = np.zeros((self.capacity, 2 * sd + gd + ad + 2), dtype=np.float32)

    def columns(self, rows: np.ndarray):
        """(state, goal_or_None, action, next_state, reward, discount): views
        into rows laid out like this buffer's rows."""
        s, g, a, ns = self._spans
        return (rows[:, s], None if self.explore else rows[:, g], rows[:, a], rows[:, ns],
                rows[:, -2], rows[:, -1])


def buffer_push(buf: ReplayBuffer, t: Transition) -> ReplayBuffer:
    if buf.rows is None:
        buf._alloc(t)
    if buf.explore != isinstance(t.goal, str):
        raise ShapeError("mixing EXPLORE and goal-conditioned transitions in one buffer")
    i = buf.next_index
    s, g, a, ns = buf._spans
    row = buf.rows[i]
    row[s] = t.state
    if not buf.explore:
        row[g] = t.goal
    row[a] = t.action
    row[ns] = t.next_state
    row[-2] = t.reward
    row[-1] = t.discount
    buf.next_index = (i + 1) % buf.capacity
    buf.count = min(buf.count + 1, buf.capacity)
    return buf


def sample_arrays(buf: ReplayBuffer, batch_size: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform sample with replacement for training: a float64 (batch_size,
    width) matrix of rows in the buffer's layout (see ReplayBuffer.columns)."""
    if buf.count == 0:
        raise ValueError("sample from empty buffer")
    idx = rng.integers(0, buf.count, batch_size)
    return np.take(buf.rows, idx, axis=0).astype(float)
