import math
import re
from dataclasses import replace

import numpy as np
import pytest

from hacx import agent, approx, envsim, hac, harness, rnd
from hacx.errors import CheckpointError, ConfigError
from hacx.kvtext import read_entries

from helpers import drop_values, edit_line, resize_network, stored_columns


def arena(**overrides):
    base = dict(
        name="arena",
        bounds=(0.0, 0.0, 10.0, 10.0),
        walls=[],
        start_region=(0.5, 0.5, 1.0, 1.0),
        task_goal_region=(8.5, 8.5, 9.0, 9.0),
        max_primitive_steps=60,
    )
    base.update(overrides)
    return envsim.validate_spec(envsim.EnvSpec(**base))


def small_agent(spec=None, k=2, seed=0, **kw):
    """The agent of a RunConfig with k levels, horizon 3, 16-16 hidden layers
    and 4-value novelty codes, and the RunConfig fields kw names."""
    cfg = replace(harness.RunConfig(levels=k, horizon=3, hidden=(16, 16), rnd_code_dim=4), **kw)
    return harness.build_agent(cfg, spec or arena(), np.random.default_rng(seed))


def zero_actor(policy):
    for w in policy.actor.weights:
        w[:] = 0.0
    for b in policy.actor.biases:
        b[:] = 0.0


def record_states(monkeypatch):
    """Patch env_reset and env_step to keep a copy of every state vector
    they hand to the rollout; returns the list of copies."""
    seen = []
    for name in ("env_reset", "env_step"):
        def spy(*args, _real=getattr(envsim, name)):
            out = _real(*args)
            seen.append((out[0] if isinstance(out, tuple) else out).copy())
            return out
        monkeypatch.setattr(envsim, name, spy)
    return seen


class SpyRng:
    """Wraps a generator and counts normal() draws."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.normal_calls = 0

    def normal(self, *a, **kw):
        self.normal_calls += 1
        return self._rng.normal(*a, **kw)

    def __getattr__(self, name):
        return getattr(self._rng, name)


# construction ----------------------------------------------------------------

def test_make_agent_shapes_and_bounds():
    spec = arena()
    ag = small_agent(spec, k=3)
    assert ag.k == 3
    low, high = ag.levels[0].actor.output_low, ag.levels[0].actor.output_high
    assert np.allclose(low, [-1, -1]) and np.allclose(high, [1, 1])
    for lvl in ag.levels[1:]:
        assert np.allclose(lvl.actor.output_low, [0, 0])
        assert np.allclose(lvl.actor.output_high, [10, 10])
    assert ag.explore_top.buffer.width == 12    # no goal columns
    # actor input: state alone for the explore policy, state+goal otherwise
    assert ag.explore_top.actor.layer_sizes[0] == 4
    assert ag.levels[0].actor.layer_sizes[0] == 6
    # the value range of a deep hierarchy: (-horizon, Q_HIGH = 0)
    assert agent.Q_HIGH == 0.0
    assert ag.q_low == -3.0


def test_make_agent_flat_value_range():
    spec = arena()
    ag = small_agent(spec, k=1)
    assert ag.q_low == -float(spec.max_primitive_steps)
    # flat explore policy emits primitive actions
    assert np.allclose(ag.explore_top.actor.output_high, [1, 1])


def test_noise_scale_schedule():
    ag = small_agent(k=3)
    assert np.allclose(ag.levels[0].noise_sigma, 0.1 * 1.0)
    assert np.allclose(ag.levels[1].noise_sigma, 0.15 * 5.0)
    assert np.allclose(ag.levels[2].noise_sigma, 0.2 * 5.0)
    assert np.allclose(ag.explore_top.noise_sigma, 0.2 * 5.0)


@pytest.mark.parametrize("kw", [
    dict(levels=0), dict(tau=1.5), dict(tau=float("nan")), dict(horizon=0),
    dict(epsilon_level=0.0), dict(epsilon_level=float("inf")), dict(subgoal_test_rate=2.0),
    dict(subgoal_test_rate=-0.1), dict(relabels=-1), dict(actor_lr=-1e-3),
    dict(critic_lr=float("nan")), dict(rnd_lr=float("inf")), dict(rnd_epsilon=float("nan")),
])
def test_make_agent_refuses_settings_out_of_range(kw):
    # the agent, policy, optimizer and novelty records check themselves when
    # built, for make_agent and restore alike
    with pytest.raises(ConfigError):
        small_agent(**kw)


def test_make_agent_seed_reproducible():
    a = small_agent(seed=9)
    b = small_agent(seed=9)
    for pa, pb in zip(a.levels, b.levels):
        for wa, wb in zip(pa.actor.weights, pb.actor.weights):
            assert np.array_equal(wa, wb)
    assert a.novelty.epsilon_rnd == b.novelty.epsilon_rnd


# action selection -------------------------------------------------------------

def test_choose_top_policy_extremes_and_rate():
    rng = np.random.default_rng(0)
    assert all(agent.choose_top_policy(0.0, rng) == "goal" for _ in range(100))
    assert all(agent.choose_top_policy(1.0, rng) == "explore" for _ in range(100))
    n = 10_000
    hits = sum(agent.choose_top_policy(0.6, rng) == "explore" for _ in range(n))
    sigma = np.sqrt(0.6 * 0.4 / n)
    assert abs(hits / n - 0.6) < 3 * sigma


def test_zero_sigma_noisy_equals_deterministic():
    ag = small_agent()
    p = ag.levels[0]
    p.noise_sigma[:] = 0.0
    s, g = np.array([1.0, 2.0, 0.0, 0.0]), np.array([5.0, 5.0])
    det = agent.select_action(p, s, g, "deterministic")
    noisy = agent.select_action(p, s, g, "noisy", np.random.default_rng(0))
    assert np.allclose(det, noisy)


def test_noisy_actions_respect_bounds():
    ag = small_agent()
    rng = np.random.default_rng(3)
    for p, g in ((ag.levels[0], np.array([5.0, 5.0])),
                 (ag.levels[1], np.array([5.0, 5.0])),
                 (ag.explore_top, None)):
        for _ in range(2500):
            s = rng.uniform(0, 10, 4)
            a = agent.select_action(p, s, g, "noisy", rng)
            assert np.all(a >= p.actor.output_low) and np.all(a <= p.actor.output_high)


def test_noise_magnitude_matches_sigma():
    ag = small_agent()
    p = ag.levels[1]  # subgoal level, output near mid-range so clipping is rare
    s, g = np.array([5.0, 5.0, 0.0, 0.0]), np.array([5.0, 5.0])
    det = agent.select_action(p, s, g, "deterministic")
    rng = np.random.default_rng(11)
    samples = np.array([agent.select_action(p, s, g, "noisy", rng) for _ in range(4000)])
    std = (samples - det).std(axis=0)
    assert np.all(np.abs(std - p.noise_sigma) / p.noise_sigma < 0.05)


# episodes ----------------------------------------------------------------------

def test_run_episode_rejects_bad_mode():
    ag = small_agent()
    with pytest.raises(ValueError):
        agent.run_episode(ag, arena(), "evaluate", np.random.default_rng(0))


def test_test_mode_writes_nothing_and_uses_goal_policy():
    spec = arena()
    ag = small_agent(spec, tau=1.0)
    snap_before = agent.policy_snapshot(ag)
    rec = agent.run_episode(ag, spec, "test", np.random.default_rng(4))
    assert rec.top_policy_used == "goal"
    assert all(p.buffer.count == 0 for p in ag.levels)
    assert ag.explore_top.buffer.count == 0
    assert ag.novelty.visited.count == 0
    assert ag.visits.counts.sum() == 0
    assert agent.policy_snapshot(ag) == snap_before
    positions = np.array(rec.primitive_states)[:, :2]
    dists = np.linalg.norm(positions - positions[-1], axis=1)
    assert len(rec.primitive_states) == spec.max_primitive_steps + 1 or rec.success
    assert rec.closest_distance >= 0.0 and len(dists) > 1


def test_test_mode_never_draws_gaussian_noise():
    ag = small_agent()
    spy = SpyRng(2)
    agent.run_episode(ag, arena(), "test", spy)
    assert spy.normal_calls == 0
    spy2 = SpyRng(2)
    agent.run_episode(ag, arena(), "train", spy2)
    assert spy2.normal_calls > 0


def test_test_mode_deterministic(monkeypatch):
    ag = small_agent()
    seen = record_states(monkeypatch)
    recs = [agent.run_episode(ag, arena(), "test", np.random.default_rng(6))
            for _ in range(2)]
    a = np.array(recs[0].primitive_states)
    b = np.array(recs[1].primitive_states)
    assert np.array_equal(a, b)
    # the stored state vectors still hold what the environment returned
    assert np.array_equal(np.concatenate((a, b)), np.array(seen))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_lockstep_test_episodes_match_one_at_a_time(k):
    # the goal lies up and to the right of the start, and the level-0 actor
    # is biased to move that way: most episodes reach the goal, each at its
    # own step, and the rest run out of steps
    spec = arena(bounds=(0.0, 0.0, 4.0, 4.0), start_region=(0.5, 0.5, 1.5, 1.5),
                 task_goal_region=(1.6, 1.6, 2.4, 2.4), max_primitive_steps=40)
    ag = small_agent(spec, k=k, seed=k)
    ag.levels[0].actor.weights[-1][:] *= 3.0
    ag.levels[0].actor.biases[-1][:] = 1.0
    n = agent.LOCKSTEP_EPISODES + 6
    rng_one, rng_lock = np.random.default_rng(3), np.random.default_rng(3)
    one = [agent.run_episode(ag, spec, "test", rng_one) for _ in range(n)]
    lock = list(agent.run_test_episodes(ag, spec, n, rng_lock))
    assert rng_lock.bit_generator.state == rng_one.bit_generator.state
    steps = [len(r.primitive_states) - 1 for r in one]
    assert max(steps) == spec.max_primitive_steps and len(set(steps)) > 10
    assert len(lock) == n
    for a, b in zip(one, lock):
        assert (b.closest_distance, b.success) == (a.closest_distance, a.success)
        assert np.array(b.primitive_states).tobytes() == np.array(a.primitive_states).tobytes()
        assert b.top_policy_used == a.top_policy_used


def test_train_episode_deterministic_given_seeds(monkeypatch):
    out, states = [], []
    seen = record_states(monkeypatch)
    for _ in range(2):
        ag = small_agent(seed=13, k=3, horizon=2)
        rec = agent.run_episode(ag, arena(), "train", np.random.default_rng(5))
        out.append(ag.levels[0].buffer.rows[:ag.levels[0].buffer.count].copy())
        states += rec.primitive_states
    assert np.array_equal(out[0], out[1])
    # neither the rollout nor the row builders and relabelling wrote a stored
    # state vector
    assert np.array_equal(np.array(states), np.array(seen))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_stored_rows_follow_the_goal_test(monkeypatch, k):
    # Every row a training episode stores, captured in float64 at buffer_push
    # (the float32 ring could round a verdict at the epsilon boundary), has
    # the reward of the goal test on its own floats; and with every subgoal
    # tested, a penalty row follows each proposal the level below stopped
    # short of, and no other. Goal and explore episodes both.
    spec = arena(bounds=(0.0, 0.0, 4.0, 4.0), start_region=(0.5, 0.5, 1.5, 1.5),
                 task_goal_region=(2.5, 2.5, 3.5, 3.5), max_primitive_steps=40)
    ag = small_agent(spec, k=k, seed=k, subgoal_test_rate=1.0, epsilon_level=1.2)
    upper = ag.levels[1:] + ([ag.explore_top] if k >= 2 else [])
    pushed, proposals = [], []
    real_push, real_select = agent.buffer_push, agent.select_action

    def push(buf, rows):
        pushed.append((buf, rows.copy()))
        return real_push(buf, rows)

    def select(policy, state, goal, mode, rng=None):
        a = real_select(policy, state, goal, mode, rng)
        if any(policy is p for p in upper):
            proposals.append((policy, state, a.copy()))
        return a

    monkeypatch.setattr(agent, "buffer_push", push)
    monkeypatch.setattr(agent, "select_action", select)
    rng = np.random.default_rng(k)
    for tau in (0.0, 1.0):
        ag.tau = tau
        for _ in range(3):
            agent.run_episode(ag, spec, "train", rng)

    def within(xy, g):
        return hac.within(*xy.tolist(), *g.tolist(), ag.epsilon)

    penalty = -float(ag.horizon)
    hits = 0
    for p in [*ag.levels, ag.explore_top]:
        mine = [rows for buf, rows in pushed if buf is p.buffer]
        if not mine:
            continue
        is_upper = any(p is q for q in upper)
        s, g, a, ns, r, d = hac.columns(np.vstack(mine))
        tested = r == penalty
        for j in np.flatnonzero(~tested):
            if g is not None:
                assert (r[j] == 0.0) == within(ns[j, :2], g[j])
                assert (d[j] == 0.0) == (r[j] == 0.0)
            if is_upper:
                assert np.array_equal(a[j], ns[j, :2])
        for j in np.flatnonzero(tested):
            assert d[j] == 0.0 and not within(ns[j, :2], a[j])
        if not is_upper:
            assert not tested.any()
            continue
        # proposal n's step row, the n-th row pushed alone and not a penalty,
        # holds the state where the level below stopped
        ends = [hac.columns(rows)[3] for rows in mine if rows.ndim == 1 and rows[-2] != penalty]
        mine_proposed = [(st, act) for q, st, act in proposals if q is p]
        assert len(ends) == len(mine_proposed)
        missed = [(st, act, end) for (st, act), end in zip(mine_proposed, ends)
                  if not within(end[:2], act)]
        hits += len(mine_proposed) - len(missed)
        assert len(missed) == np.count_nonzero(tested)
        for (st, act, end), j in zip(missed, np.flatnonzero(tested)):
            assert np.array_equal(s[j], st) and np.array_equal(a[j], act)
            assert np.array_equal(ns[j], end)
    # the setup reaches some subgoals and misses others
    assert (hits > 0 and len(proposals) > hits) == (k >= 2)


def test_motionless_lower_level_structure():
    # level-0 actor pinned to zero action: nothing moves, so every hindsight
    # action equals the start position and the attempt arithmetic is exact
    spec = arena()
    ag = small_agent(spec, k=2, tau=0.0, subgoal_test_rate=0.0,
                     relabel_enabled=False)
    zero_actor(ag.levels[0])
    ag.levels[0].noise_sigma[:] = 0.0
    rec = agent.run_episode(ag, spec, "train", np.random.default_rng(8))
    start = rec.primitive_states[0][:2]
    assert ag.levels[0].buffer.count == 60
    assert ag.explore_top.buffer.count == 0
    lvl1 = ag.levels[1].buffer
    assert lvl1.count == 20  # horizon-3 attempts covering 60 steps
    states, _, acts, nexts, rewards, discounts = stored_columns(lvl1)
    assert np.allclose(acts, np.asarray(start, dtype=np.float32), atol=1e-6)
    assert np.allclose(states, nexts)
    assert np.allclose(rewards, -1.0)
    assert np.allclose(discounts, hac.DISCOUNT)


def test_motionless_agent_closest_is_start_distance():
    spec = arena()
    ag = small_agent(spec, k=2)
    zero_actor(ag.levels[0])
    rec = agent.run_episode(ag, spec, "test", np.random.default_rng(3))
    start = rec.primitive_states[0][:2]
    goal_dist = rec.closest_distance
    # reconstruct the reset draw to know the task goal
    state, goal = envsim.env_reset(spec, np.random.default_rng(3))
    assert np.allclose(start, state[:2])
    assert abs(goal_dist - float(np.linalg.norm(start - goal))) < 1e-9
    assert not rec.success


def test_success_is_the_test_that_ends_the_episode():
    # np.linalg.norm and math.hypot can differ in the last bit. With
    # epsilon_task between the two distances of a motionless agent's start,
    # the episode stops as a task success exactly when it is recorded as one.
    checked = 0
    for seed in range(40):
        spec = arena(start_region=(1.0, 1.0, 1.5, 1.5), task_goal_region=(2.0, 2.0, 2.5, 2.5))
        s, goal = envsim.env_reset(spec, np.random.default_rng(seed))
        d_hypot = math.hypot(s[0] - goal[0], s[1] - goal[1])
        d_norm = float(np.linalg.norm((s[:2] - goal)[None, :], axis=1)[0])
        if d_hypot == d_norm:
            continue
        spec = replace(spec, epsilon_task=max(d_hypot, d_norm))
        ag = small_agent(spec, k=1)
        zero_actor(ag.levels[0])
        rec = agent.run_episode(ag, spec, "test", np.random.default_rng(seed))
        stopped = len(rec.primitive_states) - 1 < spec.max_primitive_steps
        assert rec.success == stopped == (d_hypot < d_norm)
        checked += 1
    assert checked >= 2


def test_top_level_acts_until_the_episode_ends():
    # the top level coming within epsilon_level of the task goal is not task
    # success: it keeps acting until epsilon_task success or the step limit
    spec = envsim.builtin_spec("open_field_near")
    ag = small_agent(spec, k=2, epsilon_level=3.0)
    assert ag.epsilon > spec.epsilon_task
    rng = np.random.default_rng(4)
    for _ in range(10):
        rec = agent.run_episode(ag, spec, "test", rng)
        assert rec.success or len(rec.primitive_states) - 1 == spec.max_primitive_steps


def test_flat_explore_episode_emission_profile():
    spec = arena()
    ag = small_agent(spec, k=1, tau=1.0, relabels=2)
    rec = agent.run_episode(ag, spec, "train", np.random.default_rng(2))
    steps = len(rec.primitive_states) - 1
    assert rec.top_policy_used == "explore"
    assert ag.explore_top.buffer.count == steps
    assert ag.levels[0].buffer.count == 2 * steps  # goal stream filled by relabels


def test_relabel_disabled_leaves_goal_buffer_empty_on_explore():
    spec = arena()
    ag = small_agent(spec, k=1, tau=1.0, relabel_enabled=False)
    agent.run_episode(ag, spec, "train", np.random.default_rng(2))
    assert ag.levels[0].buffer.count == 0
    assert ag.explore_top.buffer.count > 0


def test_novelty_and_visits_written_during_training():
    spec = arena()
    ag = small_agent(spec, k=2)
    rec = agent.run_episode(ag, spec, "train", np.random.default_rng(1))
    steps = len(rec.primitive_states) - 1
    assert ag.novelty.visited.count == steps
    assert ag.visits.counts.sum() == steps


# updates -------------------------------------------------------------------------

def test_update_skips_underfilled_buffers():
    ag = small_agent()
    before = agent.policy_snapshot(ag)
    diag = agent.update(ag, rounds=3, batch_size=128, rng=np.random.default_rng(0))
    assert all(v["rounds"] == 0 for v in diag.values())
    assert agent.policy_snapshot(ag) == before


def test_update_trains_filled_policies():
    spec = arena()
    ag = small_agent(spec, k=2, tau=0.5)
    rng = np.random.default_rng(0)
    for _ in range(3):
        agent.run_episode(ag, spec, "train", rng)
    before = [w.copy() for w in ag.levels[0].critic.weights]
    diag = agent.update(ag, rounds=2, batch_size=16, rng=rng)
    assert diag["level0"]["rounds"] == 2
    assert diag["level0"]["critic_loss"] is not None
    changed = any(not np.array_equal(a, b)
                  for a, b in zip(ag.levels[0].critic.weights, before))
    assert changed
    # q estimates live near the feasible value band (the raw critic is
    # unbounded; targets are clamped, so estimates cannot drift far)
    for name, p in (("level0", ag.levels[0]), ("level1", ag.levels[1])):
        if diag[name]["rounds"]:
            assert ag.q_low - 1.0 <= diag[name]["mean_q"] <= agent.Q_HIGH + 1.0


def test_update_regresses_terminal_reward():
    # a lone terminal transition with reward 0: the bellman target is exactly
    # 0, so the critic must settle there
    spec = arena()
    ag = small_agent(spec, k=2, seed=4)
    p = ag.levels[0]
    s = np.array([5.0, 5.0, 0.0, 0.0])
    t = hac.pack_row(s, np.array([5.0, 5.0]), np.array([0.5, 0.0]), s, 0.0, 0.0)
    for _ in range(32):
        hac.buffer_push(p.buffer, t)
    x = np.concatenate([s, [5.0, 5.0], [0.5, 0.0]])
    agent.update(ag, rounds=800, batch_size=32, rng=np.random.default_rng(0))
    q1 = float(approx.forward(p.critic, x)[0])
    assert abs(q1) < 0.02


def test_update_bellman_two_step_fixed_point():
    # q(s2, *) is pinned at -1 by terminal transitions; the earlier state's
    # target is then -1 + 0.99 * (-1) = -1.99
    spec = arena()
    ag = small_agent(spec, k=2, seed=5, actor_lr=0.0)
    p = ag.levels[0]
    rng = np.random.default_rng(1)
    g = np.array([9.0, 9.0])
    s1 = np.array([2.0, 2.0, 0.0, 0.0])
    s2 = np.array([3.0, 3.0, 0.0, 0.0])
    a1 = np.array([0.3, 0.3])
    for _ in range(8):
        hac.buffer_push(p.buffer, hac.pack_row(s1, g, a1, s2, -1.0, hac.DISCOUNT))
    for _ in range(56):
        a2 = rng.uniform(-1, 1, 2)
        hac.buffer_push(p.buffer, hac.pack_row(s2, g, a2, s2, -1.0, 0.0))
    agent.update(ag, rounds=2000, batch_size=64, rng=np.random.default_rng(2))
    q2 = float(approx.forward(p.critic, np.concatenate([s2, g, rng.uniform(-1, 1, 2)]))[0])
    q1 = float(approx.forward(p.critic, np.concatenate([s1, g, a1]))[0])
    assert abs(q2 - (-1.0)) < 0.05
    assert abs(q1 - (-1.99)) < 0.05


def test_update_clamps_bellman_targets():
    # rewards of -3 at discount 0.99 would push an unclamped backup toward
    # -300; with bootstrapped values and targets clamped to [q_low, 0] the
    # fixed point is exactly q_low
    spec = arena()
    ag = small_agent(spec, k=2, seed=6, actor_lr=0.0)
    p = ag.levels[1]
    rng = np.random.default_rng(3)
    for _ in range(64):
        s = rng.uniform(0, 10, 4)
        hac.buffer_push(p.buffer, hac.pack_row(
            s, np.array([9.0, 9.0]), rng.uniform(0, 10, 2), s, -3.0, hac.DISCOUNT))
    agent.update(ag, rounds=1200, batch_size=32, rng=rng)
    s, g, a, *_ = stored_columns(p.buffer)
    pts = np.column_stack([s, g, a]).astype(float)
    q = approx.forward(p.critic, pts)[:, 0]
    assert np.all(np.abs(q - ag.q_low) < 0.5)  # pinned at the floor, no runaway


# snapshots -----------------------------------------------------------------------

def _assert_restores_the_same_agent(ag, snap):
    back = agent.restore(snap)
    assert back.k == ag.k
    assert back.tau == ag.tau
    assert back.num_relabels == ag.num_relabels
    assert back.novelty.epsilon_rnd == ag.novelty.epsilon_rnd
    assert back.spec == ag.spec

    probe = np.random.default_rng(42)
    for pa, pb in zip(ag.levels + [ag.explore_top], back.levels + [back.explore_top]):
        assert pa.buffer.width == pb.buffer.width
        assert np.array_equal(pa.noise_sigma, pb.noise_sigma)
        for _ in range(50):
            x = probe.uniform(0, 10, pa.actor.input_dim)
            assert np.array_equal(approx.forward(pa.actor, x),
                                  approx.forward(pb.actor, x))
            xc = probe.uniform(0, 10, pa.critic.layer_sizes[0])
            assert np.array_equal(approx.forward(pa.critic, xc),
                                  approx.forward(pb.critic, xc))
    pts = probe.uniform(0, 10, (100, 2))
    assert np.array_equal(rnd.novelty_errors(ag.novelty, pts),
                          rnd.novelty_errors(back.novelty, pts))
    # live experience does not travel through snapshots
    assert all(p.buffer.count == 0 for p in back.levels)
    assert back.explore_top.buffer.count == 0
    assert back.novelty.visited.count == 0
    assert back.visits.counts.sum() == 0
    # canonical form: snapshotting the restored agent reproduces the text
    assert agent.policy_snapshot(back) == snap


@pytest.mark.parametrize("k", [1, 2, 3])
def test_snapshot_round_trip_preserves_behavior(k):
    # two walls: the geometry travels with the snapshot, one line per wall
    spec = arena(walls=[(4.0, 0.0, 4.5, 6.0), (6.0, 4.0, 6.5, 10.0)])
    ag = small_agent(spec, k=k, tau=0.37)
    # untrained: no optimizer has moments yet, so the snapshot writes none
    snap = agent.policy_snapshot(ag)
    assert "\nsteps = 0\n" in snap
    assert not re.search(r"^[mv] = ", snap, re.M)
    _assert_restores_the_same_agent(ag, snap)

    rng = np.random.default_rng(0)
    for _ in range(2):
        agent.run_episode(ag, spec, "train", rng)
    agent.update(ag, rounds=2, batch_size=16, rng=rng)
    snap = agent.policy_snapshot(ag)
    assert re.search(r"^m = ", snap, re.M)
    _assert_restores_the_same_agent(ag, snap)


def test_snapshot_writes_each_setting_once():
    # every setting once, what training learned once per network, and no
    # structure: no layer sizes, activations, bounds, optimizer kind or Adam
    # constants, which make_agent builds from the settings
    ag = small_agent(k=3)
    rng = np.random.default_rng(0)
    for _ in range(2):
        agent.run_episode(ag, ag.spec, "train", rng)
    agent.update(ag, rounds=2, batch_size=16, rng=rng)
    snap = agent.policy_snapshot(ag)
    assert snap.startswith(agent.MAGIC + "\n") and snap.endswith("\nEND\n")
    keys = [(section, key) for section, key, _ in read_entries(snap.splitlines()[1:-1])]
    settings = [(s, key) for s, key in keys if s in ("agent", "rnd")]
    assert sorted(settings) == sorted(
        [("agent", key) for key in ("k", "tau", "horizon", "epsilon", "subgoal_test_rate",
                                    "num_relabels", "hidden", "actor_lr", "critic_lr")]
        + [("rnd", key) for key in ("epsilon_rnd", "phase_index", "code_dim", "lr")])
    tags = [f"{name}.{role}" for name in ("level0", "level1", "level2", "explore")
            for role in ("actor", "critic")] + ["rnd.target", "rnd.predictor"]
    trained = [f"{name}.{role}" for name, p in agent._named_policies(ag)
               for role in ("actor", "critic") if getattr(p, f"{role}_opt").m is not None]
    assert trained      # some moments are written
    learned = [(s, key) for s, key in keys if s.startswith("network ")]
    assert sorted(learned) == sorted(
        [(f"network {tag}", "params") for tag in tags]
        + [(f"network {tag}", "steps") for tag in tags if tag != "rnd.target"]
        + [(f"network {tag}", key) for tag in trained for key in "mv"])
    assert {s for s, _ in keys} == {"agent", "env", "rnd"} | {f"network {tag}" for tag in tags}


def test_snapshot_restores_adam_state():
    spec = arena()
    ag = small_agent(spec, k=2)
    rng = np.random.default_rng(0)
    for _ in range(2):
        agent.run_episode(ag, spec, "train", rng)
    agent.update(ag, rounds=2, batch_size=16, rng=rng)
    back = agent.restore(agent.policy_snapshot(ag))
    a, b = ag.levels[0].critic_opt, back.levels[0].critic_opt
    assert a.step_count == b.step_count
    assert np.array_equal(a.m, b.m) and np.array_equal(a.v, b.v)


def test_snapshot_bad_magic_rejected():
    ag = small_agent()
    snap = agent.policy_snapshot(ag)
    assert snap.startswith("HACX5\n")
    # HACX1 and HACX2, the formats that wrote copies and structure, HACX3,
    # which wrote learned vectors as decimal text, and HACX4, which wrote a
    # relabel_enabled flag beside num_relabels, are not read
    for magic in ("NOPE9", "HACX1", "HACX2", "HACX3", "HACX4"):
        with pytest.raises(CheckpointError, match="bad magic"):
            agent.restore(magic + snap[5:])


def test_snapshot_truncation_rejected():
    ag = small_agent()
    snap = agent.policy_snapshot(ag)
    cut = snap[: int(len(snap) * 0.7)]
    with pytest.raises(CheckpointError):
        agent.restore(cut)


def test_snapshot_corrupt_array_rejected():
    snap = agent.policy_snapshot(small_agent())
    cut = edit_line(snap, "params", lambda v: drop_values(v, 2))
    with pytest.raises(CheckpointError, match=r"\[network level0.actor\] params holds"):
        agent.restore(cut)


def test_snapshot_numbers_parse_bitwise():
    # every learned float a snapshot writes reads back to the same bits
    rng = np.random.default_rng(0)
    vals = np.concatenate([rng.normal(size=400) * 10.0 ** rng.integers(-300, 300, 400),
                           [5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                            0.0, -0.0, 0.1, 1 / 3]])
    ag = small_agent()
    params = ag.levels[0].actor.params
    params[:vals.size] = vals
    back = agent.restore(agent.policy_snapshot(ag))
    assert back.levels[0].actor.params.tobytes() == params.tobytes()


@pytest.mark.parametrize("edit,name", [
    # a critic whose hidden widths are not level 0's actor's, which [agent] writes
    (lambda ag: resize_network(ag.levels[0], "critic", [8, 32, 32, 1]), "level0.critic"),
    (lambda ag: resize_network(ag.levels[1], "actor", [6, 16, 2]), "level1.actor"),
    # an optimizer whose learning rate is not level 0's
    (lambda ag: setattr(ag.explore_top, "actor_opt", approx.Optimizer(0.5)), "explore.actor"),
    (lambda ag: setattr(ag.levels[1], "critic_opt", approx.Optimizer(1e-4)), "level1.critic"),
])
def test_snapshot_of_a_policy_unlike_level0_refused(edit, name):
    # the snapshot writes level 0's hidden widths and learning rates once,
    # so a policy with others would restore silently with level 0's
    ag = small_agent()
    edit(ag)
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} has hidden widths"):
        agent.policy_snapshot(ag)


@pytest.mark.parametrize("old,new,why", [
    # no levels, fewer levels than the snapshot holds, or more
    ("k = 2", "k = 0", "at least 1 level"),
    ("k = 2", "k = 1", "not read by a 1-level"),
    ("k = 2", "k = 3", r"missing section \[network level2.actor\]"),
    # a negative number of relabels
    ("num_relabels = 2", "num_relabels = -1", "num_relabels >= 0"),
    # a hidden layer with no units
    ("hidden = 16 16", "hidden = 0", "layer sizes"),
])
def test_snapshot_inconsistent_bounds_rejected(old, new, why):
    snap = agent.policy_snapshot(small_agent())
    assert "\n" + old + "\n" in snap
    with pytest.raises(CheckpointError, match=why):
        agent.restore(_edit(snap, old, new))


def _edit(snap, old, new):
    """snap with its lines old (key = value, one or several) given new's values."""
    for line, edited in zip(old.split("\n"), new.split("\n")):
        key, was = line.split(" = ")
        snap = edit_line(snap, key, edited.split(" = ")[1], was=was)
    return snap


@pytest.mark.parametrize("old,new", [("hidden = 16 16", "hidden = 4096 4096"),
                                     ("k = 2", "k = 100000"),
                                     ("code_dim = 4", "code_dim = 10000000")])
def test_snapshot_settings_the_text_cannot_hold_refused_before_building(monkeypatch, old, new):
    # make_agent allocates the networks the settings ask for, so settings
    # that need more parameter values than the snapshot holds never reach it
    snap = agent.policy_snapshot(small_agent())

    def unreachable(*args, **kwargs):
        raise AssertionError("make_agent ran")

    monkeypatch.setattr(agent, "make_agent", unreachable)
    with pytest.raises(CheckpointError, match="more parameter values than"):
        agent.restore(_edit(snap, old, new))


@pytest.mark.parametrize("edit,tag", [
    # a level-0 critic too narrow for its actor's input plus action (8)
    (lambda ag: resize_network(ag.levels[0], "critic", [6, 16, 16, 1]), "level0.critic"),
    (lambda ag: resize_network(ag.levels[0], "critic", [8, 16, 16, 2]), "level0.critic"),
    # a goal-free actor that takes a goal, with a critic that fits it
    (lambda ag: (resize_network(ag.explore_top, "actor", [6, 16, 16, 2]),
                 resize_network(ag.explore_top, "critic", [8, 16, 16, 1])), "explore.actor"),
    # an actor that takes 1 goal value
    (lambda ag: (resize_network(ag.levels[0], "actor", [5, 16, 16, 2]),
                 resize_network(ag.levels[0], "critic", [7, 16, 16, 1])), "level0.actor"),
    # a subgoal actor 3 outputs wide, with a critic that fits it
    (lambda ag: (resize_network(ag.levels[1], "actor", [6, 16, 16, 3]),
                 resize_network(ag.levels[1], "critic", [9, 16, 16, 1])), "level1.actor"),
    # novelty networks whose hidden sizes are not RND_HIDDEN
    (lambda ag: setattr(ag, "novelty", replace(ag.novelty, **{
        role: approx.network_init([2, 8, 8, 4], np.random.default_rng(1))
        for role in ("target", "predictor")})), "rnd.target"),
    (lambda ag: setattr(ag.novelty, "predictor",
                        approx.network_init([2, 8, 8, 5], np.random.default_rng(1))),
     "rnd.predictor"),
    (lambda ag: setattr(ag.novelty, "target",
                        approx.network_init([3, 8, 8, 4], np.random.default_rng(1))),
     "rnd.target"),
])
def test_snapshot_networks_that_do_not_fit_rejected(edit, tag):
    # restore builds the networks make_agent builds from the settings, so a
    # network of any other shape is refused as a parameter vector that does
    # not fit, in its own section
    ag = small_agent()
    edit(ag)
    with pytest.raises(CheckpointError, match=rf"\[network {re.escape(tag)}\] params holds"):
        agent.restore(agent.policy_snapshot(ag))
