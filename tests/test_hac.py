import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hacx import envsim, hac, rnd
from hacx.errors import ShapeError

from helpers import (Transition, buffer_sample, dump_transitions, segment_rows,
                     stored_columns, transition, transitions)


def vec(*xs):
    return np.array(xs, dtype=float)


# the goal test ------------------------------------------------------------------

def test_within_345_triangle():
    assert hac.within(0.0, 0.0, 3.0, 4.0, 5.1)
    assert not hac.within(0.0, 0.0, 3.0, 4.0, 5.0)  # strict


def test_within_exact_hit():
    assert hac.within(2.0, 2.0, 2.0, 2.0, 1e-12)


def test_within_uses_hypot_at_the_boundary():
    # np.linalg.norm puts this point a last bit outside epsilon; math.hypot,
    # which the stop rule, the subgoal test and relabeling all use through
    # within, puts it inside
    x, y, eps = 0.20345524067614962, 0.2623133404418495, 0.3319673531122475
    assert hac.within(x, y, 0.0, 0.0, eps)
    assert not np.linalg.norm([x, y]) < eps


coords = st.floats(-100, 100, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(ax=coords, ay=coords, gx=coords, gy=coords,
       eps=st.floats(1e-6, 10, allow_nan=False))
def test_within_matches_distance(ax, ay, gx, gy, eps):
    assert hac.within(ax, ay, gx, gy, eps) == (np.hypot(ax - gx, ay - gy) < eps)


# hindsight action transitions ---------------------------------------------------

def test_hindsight_action_replaces_proposal():
    state = vec(0.0, 0.0, 0.0, 0.0)
    achieved = vec(1.0, 2.0, 0.3, 0.1)
    t = transition(hac.hindsight_action_transition(state, achieved, vec(9.0, 9.0), False))
    assert np.allclose(t.action, [1.0, 2.0])  # what was reached
    assert t.reward == -1.0
    assert t.discount == hac.DISCOUNT
    assert np.allclose(t.next_state, achieved)
    assert np.allclose(t.goal, [9.0, 9.0])


def test_hindsight_action_success_terminates():
    t = transition(hac.hindsight_action_transition(vec(0, 0, 0, 0), vec(8.9, 9.0, 0, 0),
                                                   vec(9.0, 9.0), True))
    assert t.reward == 0.0
    assert t.discount == 0.0


@settings(max_examples=40, deadline=None)
@given(x=coords, y=coords, reached=st.booleans())
def test_hindsight_action_identity(x, y, reached):
    # the stored action is always the achieved position, and the row writes
    # the verdict it is given
    t = transition(hac.hindsight_action_transition(vec(0, 0, 0, 0), vec(x, y, 0.5, -0.5),
                                                   vec(0.0, 0.0), reached))
    assert np.array_equal(t.action, vec(x, y))
    assert (t.reward == 0.0) == (t.discount == 0.0) == reached


# subgoal testing ---------------------------------------------------------------
# whether a tested subgoal was reached is the verdict the level below stopped
# on; test_agent's test_stored_rows_follow_the_goal_test checks the rollout
# writes a penalty row exactly for the misses

def test_subgoal_test_miss_pays_horizon_penalty():
    t = transition(hac.subgoal_test_transition(vec(0, 0, 0, 0), vec(5.0, 5.0),
                                               vec(1.0, 1.0, 0, 0), horizon=10,
                                               goal=vec(9.0, 9.0)))
    assert t.reward == -10.0
    assert t.discount == 0.0
    assert np.allclose(t.action, [5.0, 5.0])  # the tested proposal, not hindsight
    assert np.allclose(t.goal, [9.0, 9.0])


def test_subgoal_test_horizon_one():
    t = transition(hac.subgoal_test_transition(vec(0, 0, 0, 0), vec(5.0, 5.0),
                                               vec(0.0, 0.0, 0, 0), horizon=1, goal=None))
    assert t.reward == -1.0 and t.discount == 0.0
    assert t.goal is None


@settings(max_examples=40, deadline=None)
@given(px=coords, py=coords, x=coords, y=coords, h=st.integers(1, 50))
def test_subgoal_test_threshold_consistency(px, py, x, y, h):
    # the penalty row is the same whatever the distance: the caller decides
    t = transition(hac.subgoal_test_transition(vec(0, 0, 0, 0), vec(px, py),
                                               vec(x, y, 0, 0), horizon=h, goal=None))
    assert t.reward == -float(h) and t.discount == 0.0
    assert np.array_equal(t.action, vec(px, py))
    assert np.array_equal(t.next_state, vec(x, y, 0, 0))


# hindsight goal relabeling -------------------------------------------------------

def three_steps():
    s = [vec(0, 0, 0, 0), vec(1, 0, 0, 0), vec(2, 0, 0, 0)]
    ns = [vec(1, 0, 0, 0), vec(2, 0, 0, 0), vec(3, 0, 0, 0)]
    a = [vec(1, 0), vec(1, 0), vec(1, 0)]
    return list(zip(s, a, ns))


def three_step_segment():
    return segment_rows(three_steps(), goal=vec(9, 9))


def test_relabel_counts_and_final_goal():
    seg = three_step_segment()
    out = transitions(hac.hindsight_goal_transitions([seg], 2, 0.5, np.random.default_rng(0)))
    assert len(out) == 6  # 2 substitute goals x 3 steps
    first_goal = out[0].goal
    assert np.allclose(first_goal, [3.0, 0.0])  # final achieved position
    # transitions against the final-state goal: last one succeeds, others not
    assert [t.reward for t in out[:3]] == [-1.0, -1.0, 0.0]
    assert [t.discount for t in out[:3]] == [hac.DISCOUNT, hac.DISCOUNT, 0.0]


def test_relabel_goals_come_from_achieved_states():
    seg = three_step_segment()
    achieved = {(1.0, 0.0), (2.0, 0.0), (3.0, 0.0)}
    out = transitions(hac.hindsight_goal_transitions([seg], 5, 0.5, np.random.default_rng(3)))
    assert len(out) == 15
    for t in out:
        assert (float(t.goal[0]), float(t.goal[1])) in achieved
        done = hac.within(*t.next_state[:2].tolist(), *t.goal.tolist(), 0.5)
        assert t.reward == (0.0 if done else -1.0)
        assert t.discount == (0.0 if done else hac.DISCOUNT)


def test_relabel_zero_and_empty():
    seg = three_step_segment()
    for segments in ([seg], [seg, seg]):
        assert hac.hindsight_goal_transitions(segments, 0, 0.5,
                                              np.random.default_rng(0)).shape == (0, 14)
    # an empty segment anywhere in the list, whatever the relabel count
    empty = segment_rows([])
    for segments in ([empty], [empty, seg], [seg, empty], [seg, empty, seg]):
        for relabels in (0, 2):
            with pytest.raises(ValueError):
                hac.hindsight_goal_transitions(segments, relabels, 0.5, np.random.default_rng(0))


def test_relabel_preserves_original_actions():
    steps = three_steps()
    # an explore level's rows have no goal columns; their relabels gain them
    out = transitions(hac.hindsight_goal_transitions([segment_rows(steps)], 1, 0.5,
                                                     np.random.default_rng(0)))
    for t, (s, a, ns) in zip(out, steps):
        assert np.array_equal(t.state, s)
        assert np.array_equal(t.action, a)
        assert np.array_equal(t.next_state, ns)


def reference_relabel(segment, num_relabels, epsilon, rng):
    """Row-by-row relabeling of one segment: the same goal draws, rewards
    from within."""
    if num_relabels <= 0:
        return np.empty((0, 14))
    achieved = [envsim.position(ns) for (_, _, ns) in segment]
    goals = [achieved[-1]]
    for _ in range(num_relabels - 1):
        goals.append(achieved[int(rng.integers(0, len(achieved)))])
    rows = []
    for g in goals:
        for (s, a, ns) in segment:
            done = hac.within(float(ns[0]), float(ns[1]), float(g[0]), float(g[1]), epsilon)
            rows.append(hac.pack_row(s, g, a, ns, 0.0 if done else -1.0,
                                     0.0 if done else hac.DISCOUNT))
    return np.array(rows)


def random_segment(rng, length):
    """length steps whose positions lie on a coarse grid, so that many steps
    sit on the epsilon boundary."""
    return [(rng.normal(size=4), rng.normal(size=2),
             np.concatenate([rng.integers(0, 3, 2) * 0.25, rng.normal(size=2)]))
            for _ in range(length)]


def assert_relabel_matches_reference(segs, relabels, rng):
    # one call on a level's segments is the per-segment reference, segment
    # after segment: the same rows, byte for byte, and the same draws
    total = sum(len(seg) for seg in segs)
    # the step rows of a goal level, and of the explore policy (no goal columns)
    for goal in (rng.normal(size=2), None):
        got_rng, want_rng = np.random.default_rng(9), np.random.default_rng(9)
        got = hac.hindsight_goal_transitions([segment_rows(seg, goal) for seg in segs],
                                             relabels, 0.5, got_rng)
        want = np.concatenate([reference_relabel(seg, relabels, 0.5, want_rng)
                               for seg in segs])
        assert got.shape == want.shape == (relabels * total, 14)
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("relabels", [0, 1, 2, 4])
@pytest.mark.parametrize("n_segments", [1, 3, 10, 60])
def test_relabel_block_matches_row_by_row_reference(n_segments, relabels):
    # a level-0 episode's segments: one per call, of 1 to H = 10 steps
    rng = np.random.default_rng(n_segments * 10 + relabels)
    segs = [random_segment(rng, rng.integers(1, 11)) for _ in range(n_segments)]
    assert_relabel_matches_reference(segs, relabels, rng)


@pytest.mark.parametrize("length", [60, 600])
def test_relabel_of_one_long_segment_matches_row_by_row_reference(length):
    # above level 0 a training episode is one segment, of up to 600 steps on
    # the spiral; then a long segment between two short ones
    rng = np.random.default_rng(length)
    assert_relabel_matches_reference([random_segment(rng, length)], 4, rng)
    assert_relabel_matches_reference([random_segment(rng, 3), random_segment(rng, length),
                                      random_segment(rng, 10)], 2, rng)


# exploration transitions ---------------------------------------------------------

def test_exploration_transition_coupling():
    model = rnd.novelty_model_init(np.random.default_rng(0), code_dim=16, epsilon_rnd=0.1,
                                   learning_rate=1e-3)
    (s, a, ns), = three_steps()[:1]

    # the row takes the novelty model's verdict: reward 0 and terminal when new
    model.epsilon_rnd = 0.0  # every state whose codes differ at all is new
    reward, new = rnd.exploration_reward(model, ns)
    t = transition(hac.exploration_transition(s, a, ns, new))
    assert (t.reward, t.discount, t.goal) == (reward, 0.0, None) == (0.0, 0.0, None)

    model.epsilon_rnd = float("inf")  # nothing is new
    reward, new = rnd.exploration_reward(model, ns)
    t = transition(hac.exploration_transition(s, a, ns, new))
    assert (t.reward, t.discount, t.goal) == (reward, hac.DISCOUNT, None)
    assert reward == -1.0
    # an explore step's row is the row its segment holds
    assert np.array_equal(hac.exploration_transition(s, a, ns, False),
                          segment_rows([(s, a, ns)])[0])


# packed rows and the ring buffer --------------------------------------------------

GOAL_WIDTH, EXPLORE_WIDTH, POSITION_WIDTH = 14, 12, 2


def goal_transition(i):
    return hac.pack_row(vec(i, 0, 0, 0), vec(9, 9), vec(i, 1), vec(i + 1, 0, 0, 0),
                        -1.0, hac.DISCOUNT)


def ring_row(width, i):
    """Row i of a ring of the given width: a goal-level row, or the novelty
    model's visited position (i, -i); column 0 holds i either way."""
    return goal_transition(i) if width == GOAL_WIDTH else vec(i, -i)


@pytest.mark.parametrize("width", [EXPLORE_WIDTH, GOAL_WIDTH])
def test_columns_of_a_row_and_of_a_block(width):
    # the goal width is what the row width leaves; every actor outputs 2
    goal = None if width == EXPLORE_WIDTH else vec(8, 9)
    rows = np.array([hac.pack_row(vec(i, 1, 2, 3), goal, vec(4, i), vec(5, 6, 7, i),
                                  -float(i), 0.5) for i in range(3)])
    assert rows.shape == (3, width)
    s, g, a, ns, r, d = hac.columns(rows)
    assert np.array_equal(s, [[i, 1, 2, 3] for i in range(3)])
    assert np.array_equal(a, [[4, i] for i in range(3)])
    assert np.array_equal(ns, [[5, 6, 7, i] for i in range(3)])
    assert np.array_equal(r, [0.0, -1.0, -2.0]) and np.array_equal(d, [0.5] * 3)
    if goal is None:
        assert g is None
    else:
        assert np.array_equal(g, [[8, 9]] * 3)
    # views, and one row reads as the same fields without the leading axis
    assert all(np.shares_memory(c, rows) for c in (s, a, ns, r, d))
    one = hac.columns(rows[1])
    for whole, single in zip(hac.columns(rows), one):
        assert (whole is None and single is None) or np.array_equal(whole[1], single)
    assert one[0].shape == (4,) and one[4].shape == ()


def test_row_table_grows_by_doubling_up_to_its_limit():
    table = hac.RowTable(3, 2, limit=11)
    sizes = []
    for i in range(11):
        table.append((i, -i, 0.5 * i))
        sizes.append(len(table.table))
    assert sizes == [2, 2, 4, 4, 8, 8, 8, 8, 11, 11, 11]
    assert table.n == 11 and table.rows.dtype == np.float64
    assert np.array_equal(table.rows, [[i, -i, 0.5 * i] for i in range(11)])
    assert np.shares_memory(table.rows, table.table)
    free = hac.RowTable(2, 1)
    for i in range(5):
        free.append(i)
    assert len(free.table) == 8 and np.array_equal(free.rows[:, 0], range(5))


def test_buffer_eviction_order():
    for width in (GOAL_WIDTH, POSITION_WIDTH):
        buf = hac.ReplayBuffer(2, width)
        for i in range(3):
            hac.buffer_push(buf, ring_row(width, i))
        assert buf.count == 2 and buf.next_index == 1
        assert set(buf.rows[:, 0].tolist()) == {2.0, 1.0}  # 0 was evicted


def test_buffer_rejects_mixed_streams():
    buf = hac.ReplayBuffer(4, GOAL_WIDTH)
    hac.buffer_push(buf, goal_transition(0))
    explore = hac.pack_row(vec(0, 0, 0, 0), None, vec(1, 1), vec(1, 1, 0, 0), 0.0, 0.0)
    with pytest.raises(ShapeError):
        hac.buffer_push(buf, explore)
    with pytest.raises(ShapeError):
        hac.buffer_push(hac.ReplayBuffer(4, EXPLORE_WIDTH), goal_transition(0))
    with pytest.raises(ShapeError):
        hac.buffer_push(hac.ReplayBuffer(4, POSITION_WIDTH), goal_transition(0))


def test_buffer_sample_shapes_and_source():
    buf = hac.ReplayBuffer(100, GOAL_WIDTH)
    for i in range(10):
        hac.buffer_push(buf, goal_transition(i))
    rows = hac.sample_arrays(buf, 32, np.random.default_rng(0))
    assert rows.shape == (32, 14) and rows.dtype == np.float64
    s, g, a, ns, r, d = hac.columns(rows)
    assert s.shape == (32, 4) and a.shape == (32, 2) and g.shape == (32, 2)
    assert ns.shape == (32, 4) and r.shape == (32,) and d.shape == (32,)
    assert set(s[:, 0].tolist()) <= set(float(i) for i in range(10))
    ts = buffer_sample(buf, 5, np.random.default_rng(1))
    assert len(ts) == 5 and all(isinstance(t, Transition) for t in ts)
    # the novelty model's ring of positions samples the same way
    ring = hac.ReplayBuffer(100, POSITION_WIDTH)
    for i in range(10):
        hac.buffer_push(ring, ring_row(POSITION_WIDTH, i))
    pts = hac.sample_arrays(ring, 32, np.random.default_rng(0))
    assert pts.shape == (32, 2) and pts.dtype == np.float64
    assert np.array_equal(pts[:, 0], rows[:, 0]) and np.array_equal(pts[:, 1], -pts[:, 0])


def test_buffer_sampling_is_uniform():
    for width in (GOAL_WIDTH, POSITION_WIDTH):
        buf = hac.ReplayBuffer(4, width)
        for i in range(4):
            hac.buffer_push(buf, ring_row(width, i))
        s = hac.sample_arrays(buf, 10_000, np.random.default_rng(7))
        counts = np.array([(s[:, 0] == float(i)).sum() for i in range(4)])
        # each cell expected 2500, sd ~ 43; allow 5 sigma
        assert np.all(np.abs(counts - 2500) < 5 * np.sqrt(10_000 * 0.25 * 0.75))


def test_buffer_empty_sample_raises():
    with pytest.raises(ValueError):
        hac.sample_arrays(hac.ReplayBuffer(4, GOAL_WIDTH), 1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        hac.ReplayBuffer(0, GOAL_WIDTH)


def test_explore_buffer_has_no_goal_column():
    buf = hac.ReplayBuffer(4, EXPLORE_WIDTH)
    hac.buffer_push(buf, hac.pack_row(vec(0, 0, 0, 0), None, vec(1, 1), vec(1, 1, 0, 0),
                                      0.0, 0.0))
    rows = hac.sample_arrays(buf, 3, np.random.default_rng(0))
    assert rows.shape == (3, 12)
    assert hac.columns(rows)[1] is None


@pytest.mark.parametrize("explore", [False, True])
def test_packed_rows_round_trip(explore):
    # every pushed field reads back, as float32, from its column slice
    rng = np.random.default_rng(4)
    pushed = [Transition(rng.normal(size=4), rng.normal(size=2), float(rng.normal()),
                         rng.normal(size=4),
                         None if explore else rng.normal(size=2),
                         float(rng.uniform()))
              for _ in range(5)]
    buf = hac.ReplayBuffer(8, EXPLORE_WIDTH if explore else GOAL_WIDTH)
    for t in pushed:
        hac.buffer_push(buf, hac.pack_row(t.state, None if explore else t.goal, t.action,
                                          t.next_state, t.reward, t.discount))
    assert buf.rows.dtype == np.float32 and buf.rows.shape == (8, 12 if explore else 14)
    s, g, a, ns, r, d = stored_columns(buf)
    f32 = np.float32
    for i, t in enumerate(pushed):
        assert np.array_equal(s[i], t.state.astype(f32))
        assert np.array_equal(a[i], t.action.astype(f32))
        assert np.array_equal(ns[i], t.next_state.astype(f32))
        assert r[i] == f32(t.reward) and d[i] == f32(t.discount)
        if explore:
            assert g is None
        else:
            assert np.array_equal(g[i], t.goal.astype(f32))
    # a sample is the same values widened to float64, row by row
    rows = hac.sample_arrays(buf, 16, np.random.default_rng(0))
    stored = buf.rows[:buf.count].astype(float)
    assert all(any(np.array_equal(row, st) for st in stored) for row in rows)


@pytest.mark.parametrize("capacity", [1, 5, 7, 16])
@pytest.mark.parametrize("first", [0, 3, 6])
def test_block_push_equals_row_by_row(capacity, first):
    # a block lands exactly where its rows would, pushed one by one: across
    # the wrap-around, and when the block is longer than the buffer; for
    # packed rows and for the novelty model's positions
    for width in (GOAL_WIDTH, POSITION_WIDTH):
        rng = np.random.default_rng(capacity * 10 + first)
        lead = rng.normal(size=(first, width))
        for n in (0, 1, 4, 9, 20):
            block = rng.normal(size=(n, width))
            one, many = hac.ReplayBuffer(capacity, width), hac.ReplayBuffer(capacity, width)
            for buf in (one, many):
                for row in lead:
                    hac.buffer_push(buf, row)
            for row in block:
                hac.buffer_push(one, row)
            assert hac.buffer_push(many, block) is many
            assert (many.count, many.next_index) == (one.count, one.next_index)
            if one.rows is not None:
                assert np.array_equal(many.rows, one.rows)


def test_buffer_rejects_badly_shaped_rows():
    buf = hac.ReplayBuffer(4, GOAL_WIDTH)
    for bad in (np.zeros(13), np.zeros((2, 15)), np.zeros((1, 2, 14)), np.float64(1.0)):
        with pytest.raises(ShapeError):
            hac.buffer_push(buf, bad)
    assert buf.count == 0 and buf.rows is None


def test_importing_hac_does_not_load_rnd():
    # rnd keeps its visited positions in a hac.ReplayBuffer, so hac must not
    # import rnd back
    src = os.path.dirname(os.path.dirname(os.path.abspath(hac.__file__)))
    code = "import sys, hacx.hac; print(sorted(m for m in sys.modules if m.startswith('hacx')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert "'hacx.hac'" in out and "hacx.rnd" not in out


# transition dumps ----------------------------------------------------------------

def test_dump_format():
    goal_t = transition(hac.pack_row(vec(0.0, 0.0, 0.0, 0.0), vec(9.0, 9.0), vec(1.0, 2.0),
                                     vec(1.0, 2.0, 0.0, 0.0), -1.0, 0.99))
    explore_t = transition(hac.pack_row(vec(0.0, 0.0, 0.0, 0.0), None, vec(1.0, 2.0),
                                        vec(1.0, 2.0, 0.0, 0.0), 0.0, 0.0))
    text = dump_transitions([goal_t, explore_t])
    lines = text.strip().split("\n")
    assert lines[0] == "state,action,reward,next_state,goal,discount"
    assert lines[1] == "0.0;0.0;0.0;0.0,1.0;2.0,-1.0,1.0;2.0;0.0;0.0,9.0;9.0,0.99"
    assert lines[2].split(",")[4] == "EXPLORE"
    assert text.endswith("\n")
