import logging
from dataclasses import replace

import numpy as np
import pytest

from hacx import approx, hac, rnd
from hacx.errors import ConfigError

BOUNDS = (0.0, 0.0, 10.0, 10.0)


def fresh_model(seed=0):
    return rnd.novelty_model_init(np.random.default_rng(seed), code_dim=16, epsilon_rnd=0.1,
                                  learning_rate=1e-3)

def clone_target_into_predictor(model):
    t = model.target
    model.predictor = approx.Network(t.layer_sizes, t.params.copy())
    return model


@pytest.mark.parametrize("kw", [
    dict(epsilon_rnd=np.nan), dict(epsilon_rnd=np.inf), dict(phase_index=-1),
])
def test_novelty_model_construction_checks_itself(kw):
    with pytest.raises(ConfigError):
        replace(fresh_model(), **kw)


def test_identical_networks_mean_nothing_is_new():
    model = clone_target_into_predictor(fresh_model())
    pts = np.random.default_rng(1).uniform(0, 10, (200, 2))
    assert np.allclose(rnd.novelty_errors(model, pts), 0.0)
    reward, new = rnd.exploration_reward(model, np.array([3.0, 4.0, 0.0, 0.0]))
    assert reward == -1.0 and new is False
    assert not rnd.novelty_map(model, BOUNDS).any()
    assert rnd.new_fraction(model, BOUNDS) == 0.0


def test_fresh_model_sees_everything_as_new():
    model = fresh_model(seed=3)
    rng = np.random.default_rng(2)
    pts = rng.uniform(0, 10, (1000, 2))
    errs = rnd.novelty_errors(model, pts)
    assert np.all(errs > 0.0)
    rnd.calibrate_epsilon(model, BOUNDS, np.random.default_rng(9))
    fresh = rng.uniform(0, 10, (1000, 2))
    new = rnd.novelty_errors(model, fresh) > model.epsilon_rnd
    assert new.mean() > 0.9


def test_threshold_is_strict():
    model = fresh_model(seed=5)
    state = np.array([2.0, 7.0, 0.1, -0.1])
    err = rnd.novelty_error(model, state)
    model.epsilon_rnd = err
    assert rnd.exploration_reward(model, state) == (-1.0, False)
    model.epsilon_rnd = err * (1 - 1e-9)
    assert rnd.exploration_reward(model, state) == (0.0, True)


def test_calibration_is_the_stated_percentile():
    model = fresh_model(seed=11)
    eps = rnd.calibrate_epsilon(model, BOUNDS, np.random.default_rng(42))
    r2 = np.random.default_rng(42)
    pts = np.column_stack([r2.uniform(0, 10, 1000), r2.uniform(0, 10, 1000)])
    assert eps == float(np.percentile(rnd.novelty_errors(model, pts), 5.0))
    assert model.epsilon_rnd == eps


def test_observe_stores_positions_in_ring_order():
    # a ring of 3 positions; an agent's holds rnd.STATE_BUFFER_CAPACITY
    assert fresh_model().visited.capacity == rnd.STATE_BUFFER_CAPACITY
    model = replace(fresh_model(), visited=hac.ReplayBuffer(3, 2))
    states = [np.array([float(i), float(-i), 99.0, 99.0]) for i in range(5)]
    for s in states:
        rnd.observe(model, s)
    assert model.visited.count == 3
    assert model.visited.next_index == 5 % 3
    # slots hold the last writes at indices 0<-3, 1<-4, 2<-2
    assert np.allclose(model.visited.rows[0], [3.0, -3.0])
    assert np.allclose(model.visited.rows[1], [4.0, -4.0])
    assert np.allclose(model.visited.rows[2], [2.0, -2.0])


def test_observe_projects_to_position():
    model = fresh_model()
    rnd.observe(model, np.array([1.5, 2.5, 0.3, -0.7]))
    assert np.allclose(model.visited.rows[0], [1.5, 2.5])


def test_advance_phase_zero_steps_only_bumps_counter():
    model = fresh_model()
    rnd.observe(model, np.array([1.0, 1.0]))
    before = [w.copy() for w in model.predictor.weights]
    rnd.advance_phase(model, 0, 128, np.random.default_rng(0))
    assert model.phase_index == 1
    for a, b in zip(model.predictor.weights, before):
        assert np.array_equal(a, b)


def test_advance_phase_empty_buffer_is_a_warned_noop(caplog):
    model = fresh_model()
    before = [w.copy() for w in model.predictor.weights]
    with caplog.at_level(logging.WARNING):
        rnd.advance_phase(model, 10, 128, np.random.default_rng(0))
    assert model.phase_index == 0
    for a, b in zip(model.predictor.weights, before):
        assert np.array_equal(a, b)
    assert any("empty" in rec.message for rec in caplog.records)


def test_training_converges_on_a_revisited_state():
    model = fresh_model(seed=21)
    rnd.calibrate_epsilon(model, BOUNDS, np.random.default_rng(1))
    spot = np.array([4.0, 6.0])
    before = rnd.novelty_error(model, spot)
    for _ in range(64):
        rnd.observe(model, spot)
    rnd.advance_phase(model, gradient_steps=1200, batch_size=64,
                      rng=np.random.default_rng(2))
    after = rnd.novelty_error(model, spot)
    assert after < before
    assert after < model.epsilon_rnd
    reward, new = rnd.exploration_reward(model, spot)
    assert (reward, new) == (-1.0, False)
    assert model.phase_index == 1


def test_training_reduces_mean_error_on_visited_region():
    model = fresh_model(seed=8)
    rng = np.random.default_rng(4)
    probe = rng.uniform(0, 10, (256, 2))
    for p in probe:
        rnd.observe(model, p)
    before = rnd.novelty_errors(model, probe).mean()
    rnd.advance_phase(model, gradient_steps=400, batch_size=64,
                      rng=np.random.default_rng(5))
    after = rnd.novelty_errors(model, probe).mean()
    assert after < before


def test_rewards_are_stationary_within_a_phase():
    model = fresh_model(seed=13)
    rnd.calibrate_epsilon(model, BOUNDS, np.random.default_rng(3))
    probe = np.random.default_rng(6).uniform(0, 10, (64, 2))
    before = rnd.novelty_errors(model, probe).copy()
    map_before = rnd.novelty_map(model, BOUNDS).copy()
    for p in probe:
        rnd.observe(model, p)
        rnd.exploration_reward(model, p)
    assert np.array_equal(rnd.novelty_errors(model, probe), before)
    assert np.array_equal(rnd.novelty_map(model, BOUNDS), map_before)


def test_target_network_never_trains():
    model = fresh_model(seed=17)
    before = model.target.params.copy()
    rng = np.random.default_rng(7)
    for p in rng.uniform(0, 10, (128, 2)):
        rnd.observe(model, p)
    rnd.advance_phase(model, gradient_steps=50, batch_size=32, rng=rng)
    rnd.advance_phase(model, gradient_steps=50, batch_size=32, rng=rng)
    assert np.array_equal(model.target.params, before)
    assert model.phase_index == 2


def test_training_is_spatially_selective():
    # visits confined to the left half: the right half should stay more novel
    model = fresh_model(seed=29)
    rng = np.random.default_rng(10)
    pts = np.column_stack([rng.uniform(0, 5, 512), rng.uniform(0, 10, 512)])
    for p in pts:
        rnd.observe(model, p)
    rnd.advance_phase(model, gradient_steps=800, batch_size=64,
                      rng=np.random.default_rng(12))
    probe_rng = np.random.default_rng(13)
    left = np.column_stack([probe_rng.uniform(0, 5, 400), probe_rng.uniform(0, 10, 400)])
    right = np.column_stack([probe_rng.uniform(5, 10, 400), probe_rng.uniform(0, 10, 400)])
    err_left = rnd.novelty_errors(model, left).mean()
    err_right = rnd.novelty_errors(model, right).mean()
    assert err_left < err_right
    # with the threshold between the two means, the map splits along x
    model.epsilon_rnd = 0.5 * (err_left + err_right)
    flags = rnd.novelty_map(model, BOUNDS)
    assert flags[:32, :].mean() < 0.5 < flags[32:, :].mean()


def test_novelty_map_shape_and_indexing():
    model = fresh_model(seed=1)
    flags = rnd.novelty_map(model, (0.0, 0.0, 4.0, 2.0))
    assert flags.shape == (64, 64)
    assert flags.dtype == bool
