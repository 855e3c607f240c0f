"""Acceptance gate: one test per shipping criterion.

Criteria 1-4 and 8 run live. Criteria 5-7 compare full training runs and read
the committed cache under tests/.acceptance_cache; see acceptance_util.py for
regeneration. Each test records a one-line verdict that pytest prints in the
"acceptance criteria" section of its terminal summary.
"""

import os
import time

import numpy as np
import pytest

import acceptance_util as au
import helpers
from conftest import record_criterion
from hacx import envsim, hac, harness, rnd
import grid_oracle


# -- 1: gradient correctness ------------------------------------------------

def test_gradient_checks_match_finite_differences():
    rng = np.random.default_rng(20260301)
    t0 = time.perf_counter()
    bad = 0
    for _ in range(100):
        net = helpers.random_small_net(rng)
        x = helpers.input_off_relu_kinks(net, rng)
        upstream = rng.normal(size=(1, net.layer_sizes[-1]))
        got = helpers.backward(net, x, upstream)
        want_params = helpers.fd_param_gradients(net, x, upstream)
        want_x = helpers.fd_input_gradient(net, x, upstream)
        ok = helpers.rel_close(got.params, want_params)
        ok = ok and helpers.rel_close(got.wrt_input, want_x)
        bad += 0 if ok else 1
    wall = time.perf_counter() - t0
    passed = bad == 0 and wall < 10.0
    record_criterion(1, "gradient correctness", passed,
                     f"{100 - bad}/100 finite-difference checks within 1e-4 rel tol "
                     f"in {wall:.1f}s (limit 10s)")
    assert bad == 0
    assert wall < 10.0


# -- 2: transition-calculus invariants ---------------------------------------

def _synthetic_segment(rng, length):
    seg = []
    for _ in range(length):
        s = rng.uniform(-5, 5, 4)
        a = rng.uniform(-1, 1, 2)
        ns = rng.uniform(-5, 5, 4)
        seg.append((s, a, ns))
    return seg


def test_transition_invariants_hold_in_bulk():
    rng = np.random.default_rng(77)
    model = rnd.novelty_model_init(rng, code_dim=4, epsilon_rnd=0.1, learning_rate=1e-3)
    rnd.calibrate_epsilon(model, (-5.0, -5.0, 5.0, 5.0), rng)
    eps = 0.5
    horizon = 10
    total = 0
    violations = []

    def check(cond, label):
        if not cond:
            violations.append(label)

    while total < 100_000 and not violations:
        goal = rng.uniform(-5, 5, 2)
        seg = _synthetic_segment(rng, int(rng.integers(3, 9)))
        achieved = [envsim.position(ns) for (_, _, ns) in seg]

        for (s, a, ns) in seg:
            x, y = ns[:2].tolist()
            rng.uniform(-5, 5, 2)   # a proposed subgoal, which hindsight discards
            done = hac.within(x, y, *goal.tolist(), eps)
            t = helpers.transition(hac.hindsight_action_transition(s, ns, goal, done))
            check(np.array_equal(t.action, envsim.position(ns)),
                  "hindsight action is not the achieved goal projection")
            check(t.reward == (0.0 if done else -1.0), "hindsight reward mismatch")
            check(t.discount == (0.0 if done else hac.DISCOUNT),
                  "hindsight discount mismatch")
            check((t.reward == 0.0) == (t.discount == 0.0),
                  "reward/discount coupling broken (hindsight)")
            total += 1

            proposal = rng.uniform(-5, 5, 2)
            if not hac.within(x, y, *proposal.tolist(), eps):
                pt = helpers.transition(hac.subgoal_test_transition(s, proposal, ns,
                                                                    horizon, goal))
                check(pt.reward == -float(horizon), "penalty reward is not -horizon")
                check(pt.discount == 0.0, "penalty discount is not 0")
                check(np.array_equal(pt.action, proposal), "penalty action is not the proposal")
                total += 1

            reward, new = rnd.exploration_reward(model, ns)
            et = helpers.transition(hac.exploration_transition(s, a, ns, new))
            check(et.reward == reward, "exploration reward is not the novelty verdict")
            check(et.reward in (0.0, -1.0), "exploration reward not in {0,-1}")
            check((et.reward == 0.0) == (et.discount == 0.0),
                  "reward/discount coupling broken (exploration)")
            check(et.goal is None, "exploration transition carries a goal")
            total += 1

        steps = helpers.segment_rows(seg, goal)
        for t in helpers.transitions(hac.hindsight_goal_transitions([steps], 2, eps, rng)):
            done = hac.within(*t.next_state[:2].tolist(), *t.goal.tolist(), eps)
            check(t.reward == (0.0 if done else -1.0),
                  "relabeled reward inconsistent with its goal")
            check(t.discount == (0.0 if done else hac.DISCOUNT),
                  "relabeled discount inconsistent with its goal")
            check(any(np.allclose(t.goal, g) for g in achieved),
                  "relabeled goal not an achieved state")
            total += 1

    passed = not violations and total >= 100_000
    detail = (f"{total} generated transitions, {len(violations)} violations"
              + (f" (first: {violations[0]})" if violations else ""))
    record_criterion(2, "transition invariants", passed, detail)
    assert not violations, violations[:3]
    assert total >= 100_000


# -- 3: tabular oracle equivalence -------------------------------------------

def test_grid_q_matches_teleport_value_iteration():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    table = grid_oracle.collect_transitions(1500, rng)
    emp = grid_oracle.empirical_q(table)
    want, _ = grid_oracle.oracle_q()
    covered = sorted(emp) == sorted(want)
    diffs = [abs(emp[k] - want[k]) for k in want if k in emp]
    mae = float(np.mean(diffs))
    wall = time.perf_counter() - t0
    passed = covered and mae < 0.05 and wall < 300.0
    record_criterion(3, "gridworld oracle equivalence", passed,
                     f"MAE {mae:.4f} over {len(diffs)} state-action pairs "
                     f"(limit 0.05), coverage {'complete' if covered else 'INCOMPLETE'}, "
                     f"{wall:.1f}s (limit 300s)")
    assert covered
    assert mae < 0.05
    assert wall < 300.0


# -- 4: novelty curriculum shrinks -------------------------------------------

def test_novelty_curriculum_is_monotone_under_random_walk():
    t0 = time.perf_counter()
    spec = envsim.builtin_spec("spiral_maze")
    rng = np.random.default_rng(4)
    model = rnd.novelty_model_init(np.random.default_rng(40), code_dim=16, epsilon_rnd=0.1,
                                   learning_rate=1e-3)
    rnd.calibrate_epsilon(model, spec.bounds, np.random.default_rng(41))

    fractions = [rnd.new_fraction(model, spec.bounds)]
    state, _ = envsim.env_reset(spec, rng)
    steps_left = spec.max_primitive_steps
    for _ in range(10):
        for _ in range(2000):
            if steps_left == 0:
                state, _ = envsim.env_reset(spec, rng)
                steps_left = spec.max_primitive_steps
            state = envsim.env_step(spec, state, rng.uniform(-1, 1, 2))
            steps_left -= 1
            rnd.observe(model, state)
        rnd.advance_phase(model, 2000, 128, rng)
        fractions.append(rnd.new_fraction(model, spec.bounds))

    steps_ok = [fractions[i + 1] <= fractions[i] + 0.02 for i in range(10)]
    wall = time.perf_counter() - t0
    passed = all(steps_ok) and wall < 600.0
    seq = " ".join(f"{f:.2f}" for f in fractions)
    record_criterion(4, "novelty curriculum monotone", passed,
                     f"new fraction per phase: {seq} (tolerance +0.02/step), "
                     f"{wall:.0f}s (limit 600s)")
    assert all(steps_ok), fractions
    assert wall < 600.0


# -- 5-7: cached training comparisons ----------------------------------------

def _cached(number, title, tag, cfg):
    try:
        return au.cached_run(tag, cfg)
    except RuntimeError as e:
        record_criterion(number, title, False, str(e))
        pytest.fail(str(e))


def _wall_seconds(out_root):
    path = os.path.join(out_root, "wall.txt")
    return float(helpers.read(path).strip()) if os.path.exists(path) else None


def test_flat_novelty_baseline_reaches_near_goal():
    cfg = au.crit5_config()
    root = _cached(5, "flat baseline sanity", "crit5", cfg)
    rows_by_seed = au.seed_metrics(root, cfg.seeds)
    reached = {s: next((int(r["episode"]) for r in rows
                        if r["success_rate"] >= 0.9), None)
               for s, rows in rows_by_seed.items()}
    n_ok = sum(1 for ep in reached.values() if ep is not None)
    wall = _wall_seconds(root)
    wall_ok = wall is None or wall < 1800.0
    passed = n_ok >= 4 and wall_ok
    detail = (f"{n_ok}/5 seeds reached success >= 0.9 within 2000 episodes "
              f"(first hits: {reached}); train wall "
              f"{'unknown' if wall is None else f'{wall:.0f}s'} (limit 1800s)")
    record_criterion(5, "flat baseline sanity", passed, detail)
    assert n_ok >= 4, reached
    assert wall_ok


def test_hierarchy_beats_flat_under_exploration_pressure():
    cfgs = au.crit6_configs()
    roots = {tag: _cached(6, "hierarchy beats flat on spiral", tag, cfg)
             for tag, cfg in cfgs.items()}
    finals = {}
    for tag, cfg in cfgs.items():
        per_seed = au.seed_metrics(roots[tag], cfg.seeds)
        finals[tag] = float(np.mean([rows[-1]["mean_closest_distance"]
                                     for rows in per_seed.values()]))
    hacx_rows = au.seed_metrics(roots["crit6_hacx"], cfgs["crit6_hacx"].seeds)
    hacx_final_success = float(np.mean([rows[-1]["success_rate"]
                                        for rows in hacx_rows.values()]))
    hac_rows = au.seed_metrics(roots["crit6_hac"], cfgs["crit6_hac"].seeds)
    hac_final_max = max(rows[-1]["success_rate"] for rows in hac_rows.values())
    walls = [_wall_seconds(roots[t]) for t in roots]
    total_wall = None if any(w is None for w in walls) else sum(walls)
    wall_ok = total_wall is None or total_wall < 12 * 3600

    ratio_rnd = finals["crit6_hacx"] / finals["crit6_rnd"]
    ratio_hac = finals["crit6_hacx"] / finals["crit6_hac"]
    passed = (ratio_rnd <= 0.5 and ratio_hac <= 0.5
              and hacx_final_success > 0.0 and hac_final_max == 0.0 and wall_ok)
    detail = (f"final mean closest: mixed {finals['crit6_hacx']:.2f}, "
              f"flat {finals['crit6_rnd']:.2f}, no-explore {finals['crit6_hac']:.2f} "
              f"(ratios {ratio_rnd:.2f}/{ratio_hac:.2f}, limit 0.50); "
              f"mixed final success {hacx_final_success:.2f} (> 0 required), "
              f"no-explore final success max over seeds {hac_final_max:.2f} "
              f"(= 0 required); total train wall "
              f"{'unknown' if total_wall is None else f'{total_wall/3600:.1f}h'} (limit 12h)")
    record_criterion(6, "hierarchy beats flat on spiral", passed, detail)
    assert ratio_rnd <= 0.5 and ratio_hac <= 0.5, finals
    assert hacx_final_success > 0.0
    assert hac_final_max == 0.0
    assert wall_ok


def _first_mean_success_at(cfg, root, threshold=0.8):
    per_seed = au.seed_metrics(root, cfg.seeds)
    lists = list(per_seed.values())
    n_evals = min(len(rows) for rows in lists)
    for i in range(n_evals):
        mean = float(np.mean([rows[i]["success_rate"] for rows in lists]))
        if mean >= threshold:
            return int(lists[0][i]["episode"])
    return None


def test_four_rooms_no_explore_converges_no_slower():
    cfgs = au.crit7_configs()
    roots = {tag: _cached(7, "four-rooms ordering", tag, cfg)
             for tag, cfg in cfgs.items()}
    ep_hacx = _first_mean_success_at(cfgs["crit7_hacx"], roots["crit7_hacx"])
    ep_hac = _first_mean_success_at(cfgs["crit7_hac"], roots["crit7_hac"])
    passed = ep_hacx is not None and ep_hac is not None and ep_hac <= ep_hacx
    detail = (f"episodes to mean success >= 0.8: no-explore {ep_hac}, "
              f"mixed {ep_hacx} (no-explore must converge first or tie, "
              f"and both must converge)")
    record_criterion(7, "four-rooms ordering", passed, detail)
    assert ep_hacx is not None, "mixed agent never converged"
    assert ep_hac is not None, "no-explore agent never converged"
    assert ep_hac <= ep_hacx, detail


# -- 8: bitwise reproducibility ----------------------------------------------

def test_identical_seeds_reproduce_metrics_exactly(tmp_path):
    from dataclasses import replace
    cfg = replace(au.crit5_config(), episodes=40, eval_every=20,
                  test_episodes=5, seeds=(0,))
    a = tmp_path / "a"
    b = tmp_path / "b"
    harness.run_trials(cfg, str(a))
    harness.run_trials(cfg, str(b))
    same = {}
    for rel in ("seed0/metrics.csv", "aggregate.csv"):
        same[rel] = (a / rel).read_bytes() == (b / rel).read_bytes()
    passed = all(same.values())
    detail = ("two identically seeded runs wrote byte-identical "
              + " and ".join(same)) if passed else f"mismatch in {same}"
    record_criterion(8, "bitwise reproducibility", passed, detail)
    assert passed, same
