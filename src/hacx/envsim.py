"""Continuous 2D point-mass navigation with axis-aligned walls.

The body is a point under acceleration control: velocity integrates the
(clipped) action, speed is capped, and wall collisions resolve by
axis-separated sliding (move x, then y; a blocked axis zeroes that velocity
component). A state is one float64 vector (x, y, vx, vy); env_step never
writes the vector it is given. Also provides a discretized visitation
recorder used for maps.

Rectangles are (x0, y0, x1, y1) tuples throughout.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .kvtext import FLOAT, INT, RECT, STR, parse_value, read_entries, read_file

Rect = tuple[float, float, float, float]

MAP_RESOLUTION = 64     # cells per side of the visit grid and of the novelty map
WALL_THICKNESS = 0.25   # of the builtin geometries' walls
SPIRAL_CELL = 1.25      # side of one spiral maze cell


@dataclass(frozen=True)
class EnvSpec:
    name: str
    bounds: Rect
    walls: list
    start_region: Rect
    task_goal_region: Rect
    epsilon_task: float = 0.5
    max_primitive_steps: int = 500
    action_bounds: float = 1.0
    dt: float = 0.1
    max_speed: float = 1.0

    @cached_property
    def faces(self) -> tuple:
        """Per axis, the walls' faces that can stop motion along it:
        (low faces, their spans, high faces, their spans), each face list
        sorted, each span the open interval the wall covers on the other
        axis. Derived at the first step; the walls never change."""
        out = []
        for axis in (0, 1):
            per_side = []
            for side in (axis, axis + 2):
                ws = sorted(self.walls, key=lambda w: w[side])
                per_side += [[w[side] for w in ws], [(w[1 - axis], w[3 - axis]) for w in ws]]
            out.append(tuple(per_side))
        return tuple(out)


def rect_valid(r: Rect) -> bool:
    return len(r) == 4 and r[0] < r[2] and r[1] < r[3] and all(np.isfinite(r))


def rect_inside(inner: Rect, outer: Rect) -> bool:
    return (inner[0] >= outer[0] and inner[1] >= outer[1]
            and inner[2] <= outer[2] and inner[3] <= outer[3])


def rects_overlap(a: Rect, b: Rect) -> bool:
    """True when the interiors intersect."""
    return a[0] < b[2] and b[0] < a[2] and a[1] < b[3] and b[1] < a[3]


def sample_in_rect(r: Rect, rng: np.random.Generator) -> np.ndarray:
    return np.array([rng.uniform(r[0], r[2]), rng.uniform(r[1], r[3])])


def validate_spec(spec: EnvSpec) -> EnvSpec:
    # spec_to_text and policy_snapshot write the name on one line, where `#`
    # would start a comment, and the reader strips the value's ends
    name = spec.name
    if "#" in name or "".join(name.splitlines()) != name or name.strip() != name:
        raise ConfigError(f"environment name {name!r} contains '#', a line break, "
                          "or leading or trailing whitespace")
    for label, r in (("bounds", spec.bounds), ("start_region", spec.start_region),
                     ("task_goal_region", spec.task_goal_region)):
        if not rect_valid(r):
            raise ConfigError(f"{label} is not a valid rectangle: {r}")
    for region_label, region in (("start_region", spec.start_region),
                                 ("task_goal_region", spec.task_goal_region)):
        if not rect_inside(region, spec.bounds):
            raise ConfigError(f"{region_label} {region} outside bounds {spec.bounds}")
        for w in spec.walls:
            if rects_overlap(region, w):
                raise ConfigError(f"{region_label} {region} intersects wall {w}")
    for w in spec.walls:
        if not rect_valid(w):
            raise ConfigError(f"wall is not a valid rectangle: {w}")
        if not rect_inside(w, spec.bounds):
            raise ConfigError(f"wall {w} outside bounds {spec.bounds}")
    if not all(0 < v < math.inf for v in (spec.epsilon_task, spec.dt, spec.max_speed,
                                          spec.action_bounds, spec.max_primitive_steps)):
        raise ConfigError("epsilon_task, dt, max_speed, action_bounds, "
                          "max_primitive_steps must all be positive and finite")
    # env_step's velocity before the speed cap, at most m per axis, must stay
    # finite, or the cap scales an infinite speed by 0 into NaN
    m = spec.max_speed + spec.action_bounds * spec.dt
    if not math.isfinite(math.hypot(m, m)):
        raise ConfigError(f"max_speed + action_bounds * dt = {m!r} is too large: "
                          "a step's velocity would overflow")
    return spec


def position(state) -> np.ndarray:
    """The (x, y) of a state, or of each row of a batch of states: both the
    goal space g(s) of the hierarchy and the novelty input h(s)."""
    return np.asarray(state, dtype=float)[..., :2]


def env_reset(spec: EnvSpec, rng: np.random.Generator):
    """Sample (state, task_goal): position uniform in the start region,
    velocity zero, goal uniform in the goal region."""
    s = np.zeros(4)
    s[:2] = sample_in_rect(spec.start_region, rng)
    return s, sample_in_rect(spec.task_goal_region, rng)


def _slide(p: float, other: float, delta: float, axis: int, spec: EnvSpec):
    """Move the axis coordinate p by delta, stopping at the first obstacle
    face crossed; other is the coordinate along the other axis. Returns
    (new_coordinate, blocked). The nearest face crossed is the first one in
    the sorted face list (spec.faces) whose wall spans other."""
    c = p + delta
    blocked = False
    b_lo, b_hi = spec.bounds[axis], spec.bounds[axis + 2]
    if c < b_lo:
        c, blocked = b_lo, True
    elif c > b_hi:
        c, blocked = b_hi, True
    lo_at, lo_spans, hi_at, hi_spans = spec.faces[axis]
    if delta > 0:
        # low faces w with p <= w < c, nearest first
        j = bisect_left(lo_at, p)
        while j < len(lo_at) and lo_at[j] < c:
            o_lo, o_hi = lo_spans[j]
            if o_lo < other < o_hi:
                return lo_at[j], True
            j += 1
    elif delta < 0:
        # high faces w with c < w <= p, nearest first
        j = bisect_right(hi_at, p) - 1
        while j >= 0 and hi_at[j] > c:
            o_lo, o_hi = hi_spans[j]
            if o_lo < other < o_hi:
                return hi_at[j], True
            j -= 1
    return c, blocked


def env_step(spec: EnvSpec, s: np.ndarray, action) -> np.ndarray:
    """Advance one timestep from the state vector s = (x, y, vx, vy); pure
    function of (spec, s, action) that returns a new vector."""
    try:
        ax, ay = action.tolist() if isinstance(action, np.ndarray) else action
        ax, ay = float(ax), float(ay)
    except (TypeError, ValueError):
        raise ValueError(f"action must be a finite 2-vector, got {action!r}")
    if not (math.isfinite(ax) and math.isfinite(ay)):
        raise ValueError(f"action must be a finite 2-vector, got {action!r}")
    ab, dt = spec.action_bounds, spec.dt
    ax = -ab if ax < -ab else (ab if ax > ab else ax)
    ay = -ab if ay < -ab else (ab if ay > ab else ay)
    x, y, vx, vy = s.tolist()
    vx += ax * dt
    vy += ay * dt
    speed = math.hypot(vx, vy)
    if speed > spec.max_speed:
        scale = spec.max_speed / speed
        vx *= scale
        vy *= scale
    x, bx = _slide(x, y, vx * dt, 0, spec)
    y, by = _slide(y, x, vy * dt, 1, spec)
    # a wall or bound face may be an int; the state stays float64
    return np.array((x, y, 0.0 if bx else vx, 0.0 if by else vy), dtype=float)


def _cross_walls():
    """Four-rooms interior: a cross of walls with 3 doorways (the passage
    between the right two rooms stays closed)."""
    t = WALL_THICKNESS / 2.0
    return [
        (5 - t, 0.0, 5 + t, 2.0),    # vertical, below the lower doorway
        (5 - t, 3.0, 5 + t, 7.0),    # vertical, between the two doorways
        (5 - t, 8.0, 5 + t, 10.0),   # vertical, above the upper doorway
        (0.0, 5 - t, 2.0, 5 + t),    # horizontal, left of the left doorway
        (3.0, 5 - t, 10.0, 5 + t),   # horizontal, right arm solid
    ]


def _spiral_cell_order(n: int):
    """Cells of an n x n grid in outward spiral order starting at the
    innermost cell; consecutive cells are orthogonal neighbors."""
    order = []
    seen = set()
    x, y = 0, 0
    dx, dy = 1, 0
    for _ in range(n * n):
        order.append((x, y))
        seen.add((x, y))
        nx, ny = x + dx, y + dy
        if not (0 <= nx < n and 0 <= ny < n and (nx, ny) not in seen):
            dx, dy = -dy, dx
            nx, ny = x + dx, y + dy
        x, y = nx, ny
    order.reverse()
    return order


def spiral_spec(cells: int = 7, max_steps: int = 1000) -> EnvSpec:
    """Single-corridor spiral maze on a cells x cells grid of SPIRAL_CELL cells.

    The corridor visits every grid cell once in spiral order; walls separate
    any adjacent cells that are not consecutive on the path. Start is the
    innermost cell, goal the outermost end of the corridor. Shortest path
    length is about (cells^2 - 1) * SPIRAL_CELL world units.
    """
    if cells < 2:
        raise ConfigError(f"spiral needs at least 2 cells per side, got {cells}")
    n, c, t = cells, SPIRAL_CELL, WALL_THICKNESS
    side = n * c
    order = _spiral_cell_order(n)
    pathset = set(zip(order, order[1:]))

    def connected(a, b):
        return (a, b) in pathset or (b, a) in pathset

    walls = []
    for i in range(n):
        for j in range(n):
            if i + 1 < n and not connected((i, j), (i + 1, j)):
                x = (i + 1) * c
                walls.append((x - t / 2, j * c - t / 2, x + t / 2, (j + 1) * c + t / 2))
            if j + 1 < n and not connected((i, j), (i, j + 1)):
                y = (j + 1) * c
                walls.append((i * c - t / 2, y - t / 2, i * c + c + t / 2, y + t / 2))
    walls = [(max(w[0], 0.0), max(w[1], 0.0), min(w[2], side), min(w[3], side))
             for w in walls]

    def cell_center(ij):
        return ((ij[0] + 0.5) * c, (ij[1] + 0.5) * c)

    sx, sy = cell_center(order[0])
    gx, gy = cell_center(order[-1])
    r = 0.3
    return validate_spec(EnvSpec(
        name="spiral_maze",
        bounds=(0.0, 0.0, side, side),
        walls=walls,
        start_region=(sx - r, sy - r, sx + r, sy + r),
        task_goal_region=(gx - r, gy - r, gx + r, gy + r),
        max_primitive_steps=max_steps,
    ))


_OPEN_FIELD = dict(bounds=(0.0, 0.0, 80.0, 80.0), walls=[], start_region=(39.0, 39.0, 41.0, 41.0))

# Fixed, documented task geometries, by name. four_rooms: 10x10, one route
# through 3 doorways, shortest path about 120 primitive steps. open_field:
# 80x80, no interior walls, center to corner, about 500 steps. spiral_maze:
# 8.75x8.75 single spiral corridor, center to outer end, about 600 steps.
# open_field_near is a desk-scale extra: the open field arena with the goal
# 3 units from the start.
BUILTINS = {spec.name: validate_spec(spec) for spec in (
    EnvSpec("four_rooms", bounds=(0.0, 0.0, 10.0, 10.0), walls=_cross_walls(),
            start_region=(0.75, 0.75, 1.75, 1.75), task_goal_region=(8.25, 8.25, 9.25, 9.25),
            max_primitive_steps=300),
    EnvSpec("open_field", **_OPEN_FIELD, task_goal_region=(75.0, 75.0, 77.0, 77.0),
            max_primitive_steps=800),
    EnvSpec("open_field_near", **_OPEN_FIELD, task_goal_region=(42.5, 39.5, 43.5, 40.5),
            max_primitive_steps=100),
    spiral_spec(cells=7),
)}
BUILTIN_NAMES = tuple(BUILTINS)


def builtin_spec(name: str) -> EnvSpec:
    """The builtin geometry called name (BUILTINS)."""
    if name not in BUILTINS:
        raise ConfigError(f"unknown environment {name!r}")
    return BUILTINS[name]


def record_visit(counts: np.ndarray, bounds: Rect, x: float, y: float) -> None:
    """Increment the count of the cell of a MAP_RESOLUTION x MAP_RESOLUTION
    grid over bounds that contains the position (x, y); counts[ix, iy] has
    ix along x and iy along y."""
    x0, y0, x1, y1 = bounds
    if not (x0 <= x <= x1 and y0 <= y <= y1):
        raise ValueError(f"position ({x}, {y}) outside bounds {bounds}; physics bug?")
    res = MAP_RESOLUTION
    ix = min(int((x - x0) / (x1 - x0) * res), res - 1)
    iy = min(int((y - y0) / (y1 - y0) * res), res - 1)
    counts[ix, iy] += 1


def _p5(px: np.ndarray) -> bytes:
    """A uint8 [ix, iy] grid as a binary portable graymap (P5), whose rows
    run top to bottom, i.e. decreasing y."""
    img = px.T[::-1, :]
    return f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii") + img.tobytes()


def grid_to_image(c: np.ndarray) -> bytes:
    """Render visit counts as a P5 graymap, log-scaled to 0..255."""
    mx = c.max()
    if mx > 0:
        px = np.rint(np.log1p(c) / np.log1p(mx) * 255.0).astype(np.uint8)
    else:
        px = np.zeros_like(c, dtype=np.uint8)
    return _p5(px)


def bool_grid_to_image(flags: np.ndarray) -> bytes:
    """Render a boolean [ix, iy] grid as a P5 graymap (true = 255)."""
    return _p5(np.where(flags, 255, 0).astype(np.uint8))


def bool_grid_to_text(flags: np.ndarray) -> str:
    """Rows of 0/1 characters, top row = highest y."""
    img = flags.T[::-1, :]
    return "\n".join("".join("1" if v else "0" for v in row) for row in img) + "\n"


# geometry key -> (EnvSpec field, kvtext kind), in file order
GEOMETRY_KEYS = {
    "name": ("name", STR),
    "bounds": ("bounds", RECT),
    "start": ("start_region", RECT),
    "goal": ("task_goal_region", RECT),
    "epsilon": ("epsilon_task", FLOAT),
    "max_steps": ("max_primitive_steps", INT),
    "action_bounds": ("action_bounds", FLOAT),
    "dt": ("dt", FLOAT),
    "max_speed": ("max_speed", FLOAT),
    "wall": ("walls", RECT),
}


def spec_to_text(spec: EnvSpec) -> str:
    """Serialize geometry as plain key = value text (one wall per line)."""
    lines = ["[env]"]
    for key, (field_name, kind) in GEOMETRY_KEYS.items():
        values = spec.walls if key == "wall" else [getattr(spec, field_name)]
        lines += [f"{key} = {kind.write(v)}" for v in values]
    return "\n".join(lines) + "\n"


def spec_from_text(text: str) -> EnvSpec:
    """Read spec_to_text output; omitted keys take EnvSpec's defaults."""
    return spec_from_entries(read_entries(text))


def spec_from_entries(entries) -> EnvSpec:
    """The geometry of (section, key, value) entries, as read_entries gives
    them; the section is ignored, and each wall entry adds one wall. Any
    other key given twice raises ConfigError."""
    kw = {"walls": []}
    for _, key, val in entries:
        if key not in GEOMETRY_KEYS:
            raise ConfigError(f"unknown geometry key {key!r}")
        field_name, kind = GEOMETRY_KEYS[key]
        value = parse_value(key, kind.read, val)
        if key == "wall":
            kw["walls"].append(value)
        elif field_name in kw:
            raise ConfigError(f"geometry key {key!r} given twice")
        else:
            kw[field_name] = value
    for needed in ("bounds", "start", "goal"):
        if GEOMETRY_KEYS[needed][0] not in kw:
            raise ConfigError(f"geometry text missing {needed!r}")
    return validate_spec(EnvSpec(**{"name": "custom", **kw}))


def load_spec(name_or_path: str) -> EnvSpec:
    """Builtin name, or a path to a geometry text file; a path that is not a
    file, or a file that is not UTF-8 text, raises ConfigError."""
    if name_or_path in BUILTIN_NAMES:
        return builtin_spec(name_or_path)
    if not os.path.exists(name_or_path):
        raise ConfigError(f"unknown environment {name_or_path!r} (not a builtin, not a file)")
    return spec_from_text(read_file(name_or_path, "geometry file"))
