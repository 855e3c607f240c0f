import numpy as np
import pytest

from hacx import envsim
from hacx.errors import ConfigError


def tiny_spec(**overrides):
    base = dict(
        name="test",
        bounds=(0.0, 0.0, 10.0, 10.0),
        walls=[(4.0, 2.0, 4.5, 8.0)],
        start_region=(1.0, 1.0, 2.0, 2.0),
        task_goal_region=(8.0, 8.0, 9.0, 9.0),
    )
    base.update(overrides)
    return envsim.validate_spec(envsim.EnvSpec(**base))


# spec validation ------------------------------------------------------------

def test_validate_rejects_bad_rects():
    with pytest.raises(ConfigError):
        tiny_spec(start_region=(2.0, 2.0, 2.0, 2.0))
    with pytest.raises(ConfigError):
        tiny_spec(bounds=(0.0, 0.0, -1.0, 10.0))
    with pytest.raises(ConfigError):
        tiny_spec(walls=[(4.0, 2.0, 4.5, 11.0)])
    with pytest.raises(ConfigError):
        tiny_spec(start_region=(3.9, 1.0, 4.2, 3.0))  # overlaps the wall
    with pytest.raises(ConfigError):
        tiny_spec(dt=0.0)


def test_builtins_validate():
    for name in envsim.BUILTIN_NAMES:
        spec = envsim.builtin_spec(name)
        assert envsim.validate_spec(spec) is spec
        assert spec.name == name


# reset ----------------------------------------------------------------------

def test_reset_positions_uniform_chi_square():
    spec = envsim.builtin_spec("four_rooms")
    rng = np.random.default_rng(123)
    n, bins = 10_000, 4
    counts = np.zeros((bins, bins))
    x0, y0, x1, y1 = spec.start_region
    for _ in range(n):
        state, goal = envsim.env_reset(spec, rng)
        px, py, vx, vy = state
        assert x0 <= px <= x1 and y0 <= py <= y1
        gx, gy = spec.task_goal_region[:2], spec.task_goal_region[2:]
        assert gx[0] <= goal[0] <= gy[0] and gx[1] <= goal[1] <= gy[1]
        assert vx == vy == 0.0
        ix = min(int((px - x0) / (x1 - x0) * bins), bins - 1)
        iy = min(int((py - y0) / (y1 - y0) * bins), bins - 1)
        counts[ix, iy] += 1
    expected = n / bins ** 2
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    # df = 15, critical value at the 1% level
    assert chi2 < 30.578


def test_reset_determinism():
    spec = envsim.builtin_spec("open_field")
    s1, g1 = envsim.env_reset(spec, np.random.default_rng(5))
    s2, g2 = envsim.env_reset(spec, np.random.default_rng(5))
    assert np.array_equal(s1, s2)
    assert np.array_equal(g1, g2)


def test_sample_in_tiny_rect_stays_inside():
    r = (2.0, 3.0, 2.0 + 1e-9, 3.0 + 1e-9)
    p = envsim.sample_in_rect(r, np.random.default_rng(0))
    assert r[0] <= p[0] <= r[2] and r[1] <= p[1] <= r[3]


# stepping -------------------------------------------------------------------

def test_step_action_clipped_to_bounds():
    spec = tiny_spec()
    state = np.array([5.0, 5.0, 0.0, 0.0])
    a = envsim.env_step(spec, state, np.array([5.0, -7.0]))
    b = envsim.env_step(spec, state, np.array([1.0, -1.0]))
    assert np.array_equal(a, b)


def test_step_rejects_bad_actions():
    spec = tiny_spec()
    state = np.array([5.0, 5.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        envsim.env_step(spec, state, np.array([1.0]))
    with pytest.raises(ValueError):
        envsim.env_step(spec, state, np.array([np.nan, 0.0]))


def test_step_speed_capped():
    spec = tiny_spec(walls=[])
    rng = np.random.default_rng(31)
    state = np.array([5.0, 5.0, 0.0, 0.0])
    for _ in range(500):
        state = envsim.env_step(spec, state, rng.uniform(-1, 1, 2))
        assert np.linalg.norm(state[2:]) <= spec.max_speed + 1e-12


def test_step_free_motion_oracle():
    # no walls, small velocity: position integrates v*dt exactly
    spec = tiny_spec(walls=[])
    state = np.array([5.0, 5.0, 0.2, -0.1])
    before = state.copy()
    nxt = envsim.env_step(spec, state, np.array([0.5, 0.5]))
    v = np.array([0.2 + 0.05, -0.1 + 0.05])
    assert np.allclose(nxt[2:], v)
    assert np.allclose(nxt[:2], state[:2] + v * spec.dt)
    # pure: a new float64 vector, and the given state is never written
    assert nxt.dtype == np.float64 and not np.shares_memory(nxt, state)
    assert np.array_equal(state, before)


def test_position_is_the_xy_of_a_state_or_of_each_row():
    # goal space and the novelty input are both this projection
    s = np.array([1.5, 2.5, 0.3, -0.7])
    assert np.array_equal(envsim.position(s), [1.5, 2.5])
    assert np.array_equal(envsim.position(np.stack([s, -s])), [[1.5, 2.5], [-1.5, -2.5]])
    assert envsim.position([1, 2, 3, 4]).dtype == np.float64


def test_wall_stops_on_face_and_kills_normal_velocity():
    spec = tiny_spec()
    state = np.array([3.0, 5.0, 0.0, 0.0])
    for _ in range(30):
        state = envsim.env_step(spec, state, np.array([1.0, 0.0]))
    assert state[0] == 4.0  # exactly on the left face of the wall
    assert state[2] == 0.0
    assert state[1] == 5.0


def test_wall_face_is_legal_standing_ground():
    spec = tiny_spec()
    state = np.array([4.0, 5.0, 0.0, 0.0])
    for _ in range(10):
        state = envsim.env_step(spec, state, np.array([-1.0, 0.0]))
    assert state[0] < 4.0  # walked away freely


def test_sliding_keeps_tangential_motion():
    spec = tiny_spec()
    state = np.array([3.9, 5.0, 0.0, 0.0])
    for _ in range(20):
        state = envsim.env_step(spec, state, np.array([1.0, 1.0]))
    assert state[0] == 4.0
    assert state[1] > 5.1  # slid upward along the wall
    assert state[2] == 0.0 and state[3] > 0.0


def test_arena_bounds_contain_motion():
    spec = tiny_spec(walls=[])
    state = np.array([9.9, 0.1, 0.0, 0.0])
    for _ in range(50):
        state = envsim.env_step(spec, state, np.array([1.0, -1.0]))
    assert state[0] == 10.0 and state[1] == 0.0
    assert np.all(state[2:] == 0.0)


def test_step_determinism_bitwise():
    spec = envsim.builtin_spec("four_rooms")
    out = []
    for _ in range(2):
        rng = np.random.default_rng(77)
        state, _ = envsim.env_reset(spec, rng)
        for _ in range(100):
            state = envsim.env_step(spec, state, rng.uniform(-1, 1, 2))
        out.append(state)
    assert np.array_equal(out[0], out[1])


def _inside_any_wall(positions, walls):
    for w in walls:
        x0, y0, x1, y1 = w
        hit = (positions[:, 0] > x0) & (positions[:, 0] < x1) \
            & (positions[:, 1] > y0) & (positions[:, 1] < y1)
        if np.any(hit):
            return True
    return False


@pytest.mark.parametrize("name", envsim.BUILTIN_NAMES)
def test_containment_fuzz(name):
    spec = envsim.builtin_spec(name)
    rng = np.random.default_rng(hash(name) % 2 ** 32)
    positions = []
    for _ in range(5):
        state, _ = envsim.env_reset(spec, rng)
        for _ in range(5000):
            state = envsim.env_step(spec, state, rng.uniform(-1, 1, 2))
            positions.append(state[:2])
    pos = np.array(positions)
    x0, y0, x1, y1 = spec.bounds
    assert np.all((pos[:, 0] >= x0) & (pos[:, 0] <= x1))
    assert np.all((pos[:, 1] >= y0) & (pos[:, 1] <= y1))
    assert not _inside_any_wall(pos, spec.walls)


# builtin tasks are solvable, with a known difficulty ordering -----------------

# A scripted waypoint controller proves each builtin task solvable and
# calibrates its path length.

def builtin_waypoints(name: str) -> list:
    """Hand-placed route through a builtin task, for the scripted controller."""
    if name == "four_rooms":
        return [np.array(p) for p in
                [(2.5, 4.2), (2.5, 5.8), (4.2, 7.5), (5.8, 7.5), (8.75, 8.75)]]
    if name == "open_field":
        return [np.array([76.0, 76.0])]
    if name == "open_field_near":
        return [np.array([43.0, 40.0])]
    if name == "spiral_maze":
        c = 1.25
        return [np.array([(i + 0.5) * c, (j + 0.5) * c]) for i, j in envsim._spiral_cell_order(7)]
    raise ValueError(f"no route for {name!r}")


def waypoint_action(s: np.ndarray, waypoint, spec: envsim.EnvSpec):
    """Proportional tracking controller: accelerate toward the velocity that
    closes the gap to the waypoint."""
    err = waypoint - s[:2]
    desired = err / max(spec.dt * 10.0, 1e-9)
    speed = float(np.linalg.norm(desired))
    if speed > spec.max_speed:
        desired = desired * (spec.max_speed / speed)
    return np.clip((desired - s[2:]) / spec.dt, -spec.action_bounds, spec.action_bounds)


def follow_waypoints(spec: envsim.EnvSpec, waypoints, start_state: np.ndarray,
                     reach_radius: float = 0.35):
    """Run the scripted controller through the waypoint list for at most the
    step limit; returns the visited state vectors (including the start)."""
    state = start_state
    states = [state]
    idx = 0
    for _ in range(spec.max_primitive_steps):
        if idx >= len(waypoints):
            break
        state = envsim.env_step(spec, state, waypoint_action(state, waypoints[idx], spec))
        states.append(state)
        if np.linalg.norm(state[:2] - waypoints[idx]) < reach_radius:
            idx += 1
    return states


def _steps_to_goal(name, seed):
    spec = envsim.builtin_spec(name)
    rng = np.random.default_rng(seed)
    state, goal = envsim.env_reset(spec, rng)
    route = builtin_waypoints(name) + [goal]
    states = follow_waypoints(spec, route, state)
    dists = [float(np.linalg.norm(s[:2] - goal)) for s in states]
    best = int(np.argmin(dists))
    if dists[best] >= spec.epsilon_task:
        return None
    hit = next(i for i, d in enumerate(dists) if d < spec.epsilon_task)
    return hit


@pytest.mark.parametrize("name", envsim.BUILTIN_NAMES)
def test_builtin_goals_reachable_within_budget(name):
    for seed in (0, 1, 2):
        assert _steps_to_goal(name, seed) is not None


def test_path_length_calibration():
    four = _steps_to_goal("four_rooms", 0)
    near = _steps_to_goal("open_field_near", 0)
    far = _steps_to_goal("open_field", 0)
    spiral = _steps_to_goal("spiral_maze", 0)
    assert 100 <= four <= 200
    assert near <= 60
    assert far >= 450
    assert spiral >= 700


def test_four_rooms_blocks_straight_line():
    # driving diagonally from the start corner must not reach the goal; the
    # doorways force a detour
    spec = envsim.builtin_spec("four_rooms")
    rng = np.random.default_rng(0)
    state, goal = envsim.env_reset(spec, rng)
    states = follow_waypoints(spec, [goal], state)
    assert min(float(np.linalg.norm(s[:2] - goal)) for s in states) \
        >= spec.epsilon_task


# visit grids and images ------------------------------------------------------

def test_record_visit_counts_and_bounds():
    # 64 cells per side over 10 units: a cell is 0.15625 wide
    counts, bounds = np.zeros((64, 64), dtype=np.int64), (0.0, 0.0, 10.0, 10.0)
    envsim.record_visit(counts, bounds, 0.1, 0.1)
    envsim.record_visit(counts, bounds, 0.15, 0.15)
    envsim.record_visit(counts, bounds, 10.0, 10.0)  # edge clamps into last cell
    assert counts[0, 0] == 2
    assert counts[63, 63] == 1
    assert counts.sum() == 3
    with pytest.raises(ValueError):
        envsim.record_visit(counts, bounds, 10.5, 1.0)


def test_grid_to_image_format_and_orientation():
    counts = np.zeros((64, 64), dtype=np.int64)
    envsim.record_visit(counts, (0.0, 0.0, 10.0, 10.0), 9.9, 9.9)  # top-right corner
    img = envsim.grid_to_image(counts)
    assert img.startswith(b"P5\n64 64\n255\n")
    pixels = np.frombuffer(img[len(b"P5\n64 64\n255\n"):], dtype=np.uint8).reshape(64, 64)
    assert pixels[0, 63] == 255  # first row is the highest y band
    assert pixels.sum() == 255


def test_grid_to_image_empty_is_black():
    img = envsim.grid_to_image(np.zeros((64, 64), dtype=np.int64))
    body = img.split(b"\n", 3)[3]
    assert set(body) == {0}


def test_bool_grid_text_orientation():
    flags = np.zeros((2, 2), dtype=bool)
    flags[1, 0] = True  # high x, low y -> bottom row, right column
    txt = envsim.bool_grid_to_text(flags)
    assert txt == "00\n01\n"


# serialization ----------------------------------------------------------------

def test_spec_text_round_trip():
    for name in envsim.BUILTIN_NAMES:
        spec = envsim.builtin_spec(name)
        text = envsim.spec_to_text(spec)
        back = envsim.spec_from_text(text)
        assert back.name == spec.name
        assert back.bounds == spec.bounds
        assert back.start_region == spec.start_region
        assert back.task_goal_region == spec.task_goal_region
        assert back.epsilon_task == spec.epsilon_task
        assert back.max_primitive_steps == spec.max_primitive_steps
        assert list(back.walls) == [tuple(w) for w in spec.walls]
        assert envsim.spec_to_text(back) == text


def test_load_spec_builtin_file_and_error(tmp_path):
    assert envsim.load_spec("four_rooms").name == "four_rooms"
    p = tmp_path / "custom.txt"
    p.write_text(envsim.spec_to_text(tiny_spec()))
    loaded = envsim.load_spec(str(p))
    assert loaded.bounds == (0.0, 0.0, 10.0, 10.0)
    with pytest.raises(ConfigError):
        envsim.load_spec("no_such_env")


def test_spec_from_text_rejects_garbage():
    with pytest.raises(ConfigError):
        envsim.spec_from_text("[env]\nname = x\nbounds = 1 2\n")
    with pytest.raises(ConfigError):
        envsim.spec_from_text("[env]\nmystery = 3\n")


def test_spec_from_text_rejects_a_repeated_key():
    # only walls add up; any other key given twice is refused, not last-wins
    base = "bounds = 0 0 10 10\nstart = 1 1 2 2\ngoal = 8 8 9 9\n"
    for extra in ("max_steps = 100\nmax_steps = 200\n", "goal = 7 7 8 8\n",
                  "[env]\nstart = 1 1 2 2\n"):
        with pytest.raises(ConfigError, match="given twice"):
            envsim.spec_from_text(base + extra)


def test_spec_from_text_rejects_a_velocity_that_would_overflow():
    # finite settings whose step velocity overflows: before the refusal,
    # vx += ax * dt gave inf, the speed cap scaled it by 0 into NaN, and the
    # first visit record raised on a NaN position
    text = envsim.spec_to_text(envsim.builtin_spec("open_field_near"))

    def edited(dt, action_bounds, max_speed="1.0"):
        return (text.replace("dt = 0.1", f"dt = {dt}")
                .replace("action_bounds = 1.0", f"action_bounds = {action_bounds}")
                .replace("max_speed = 1.0", f"max_speed = {max_speed}"))

    for dt, ab, speed in (("1e200", "1e200", "1.0"), ("1e-3", "1.0", "1.5e308")):
        with pytest.raises(ConfigError, match="overflow"):
            envsim.spec_from_text(edited(dt, ab, speed))
    # just inside the bound, a step stays finite and in bounds
    spec = envsim.spec_from_text(edited("1e150", "1e150"))
    s, _ = envsim.env_reset(spec, np.random.default_rng(0))
    s = envsim.env_step(spec, s, [1e150, -1e150])
    assert np.isfinite(s).all() and s.tolist()[:2] == [80.0, 0.0]


def test_spec_from_text_defaults_and_repeated_walls():
    spec = envsim.spec_from_text("bounds = 0 0 10 10\nstart = 1 1 2 2\ngoal = 8 8 9 9\n"
                                 "wall = 4 2 4.5 8\nwall = 6 2 6.5 8\n")
    assert spec == envsim.EnvSpec("custom", (0.0, 0.0, 10.0, 10.0),
                                  [(4.0, 2.0, 4.5, 8.0), (6.0, 2.0, 6.5, 8.0)],
                                  (1.0, 1.0, 2.0, 2.0), (8.0, 8.0, 9.0, 9.0))


@pytest.mark.parametrize("name", ["a#b", "a\nb", "a\rb", "trailing\n", " a ", "a\t"])
def test_spec_names_the_text_formats_cannot_carry_are_rejected(name):
    # spec_to_text and policy_snapshot write the name on one line, where a
    # `#` starts a comment, a line break ends the entry and the value's ends
    # are stripped
    with pytest.raises(ConfigError, match="name"):
        tiny_spec(name=name)
