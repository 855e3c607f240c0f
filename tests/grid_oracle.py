"""Tabular cross-check for the hindsight transition calculus.

A 5x5 gridworld stands in for the continuous task: cells are integer
positions, the low level takes up to 3 unit moves, the high level's action
is (in hindsight) the cell those moves reached. Route A builds Q-values
purely from the packed rows produced by the real transition machinery;
route B computes the same Q-values by value iteration on an independently
derived "teleport" model (one high-level hop reaches any cell within
Manhattan distance 3). If the transition calculus is right, route A's
empirical model IS route B's model, and the two tables agree.
"""

import numpy as np

from hacx import hac
from helpers import transition

SIZE = 5
HOPS = 3
GOAL = (4, 4)
GAMMA = hac.DISCOUNT

MOVES = ((0, 1), (0, -1), (1, 0), (-1, 0), (0, 0))


def _clip(v):
    return max(0, min(SIZE - 1, v))


def random_hop(cell, rng):
    """Exactly HOPS uniform unit moves with border clipping."""
    x, y = cell
    for _ in range(HOPS):
        dx, dy = MOVES[int(rng.integers(0, len(MOVES)))]
        x, y = _clip(x + dx), _clip(y + dy)
    return (x, y)


def state4(cell):
    return np.array([float(cell[0]), float(cell[1]), 0.0, 0.0])


def collect_transitions(repeats_per_cell, rng):
    """Hindsight action transitions from random low-level behavior, keyed
    by (start, achieved). Deterministic outcomes, so duplicates collapse."""
    table = {}
    goal_vec = np.array(GOAL, dtype=float)
    for x in range(SIZE):
        for y in range(SIZE):
            start = (x, y)
            for _ in range(repeats_per_cell):
                achieved = random_hop(start, rng)
                rng.uniform(0, SIZE - 1, 2)  # a proposed subgoal, which hindsight discards
                t = transition(hac.hindsight_action_transition(
                    state4(start), state4(achieved), goal_vec,
                    hac.within(*achieved, *GOAL, 0.5)))
                table[(start, achieved)] = t
    return table


def empirical_q(table, tol=1e-12, max_sweeps=20_000):
    """Fixed point of the Bellman backup using only stored transition
    fields: reward, discount, and next state (read off the transition)."""
    actions = {}
    rows = []
    for (s, a), t in table.items():
        actions.setdefault(s, []).append(a)
        ns = (int(t.next_state[0]), int(t.next_state[1]))
        rows.append(((s, a), float(t.reward), float(t.discount), ns))
    q = {key: 0.0 for key in table}
    for _ in range(max_sweeps):
        v = {s: max(q[(s, a)] for a in acts) for s, acts in actions.items()}
        delta = 0.0
        for key, reward, disc, ns in rows:
            new = reward + disc * v[ns]
            delta = max(delta, abs(new - q[key]))
            q[key] = new
        if delta < tol:
            return q
    raise RuntimeError("empirical Q iteration did not converge")


def oracle_q(tol=1e-12, max_sweeps=20_000):
    """Value iteration on the teleport abstraction, from scratch: one
    high-level action moves to any cell within Manhattan distance HOPS,
    costing -1 unless it lands on GOAL (terminal, reward 0)."""
    cells = [(x, y) for x in range(SIZE) for y in range(SIZE)]
    reach = {s: [c for c in cells
                 if abs(c[0] - s[0]) + abs(c[1] - s[1]) <= HOPS] for s in cells}
    v = {s: 0.0 for s in cells}
    for _ in range(max_sweeps):
        delta = 0.0
        nv = {}
        for s in cells:
            best = -float("inf")
            for a in reach[s]:
                qa = 0.0 if a == GOAL else -1.0 + GAMMA * v[a]
                best = max(best, qa)
            nv[s] = best
            delta = max(delta, abs(best - v[s]))
        v = nv
        if delta < tol:
            break
    else:
        raise RuntimeError("oracle value iteration did not converge")
    q = {}
    for s in cells:
        for a in reach[s]:
            q[(s, a)] = 0.0 if a == GOAL else -1.0 + GAMMA * v[a]
    return q, reach
