"""Novelty model: a frozen random target network and a trained predictor.

A state is "new" while the predictor's code for it still disagrees with the
target's by more than a threshold. The reward is binary: 0 for new states,
-1 otherwise. The predictor is only trained in one large batch update at
phase boundaries (advance_phase); between phases the reward is a frozen,
pure function of the state, which is what makes the shrinking-novelty
curriculum well defined. Both networks see only the (x, y) position
(envsim.position), and advance_phase samples the visited ones from a width-2
hac.ReplayBuffer of STATE_BUFFER_CAPACITY rows. The networks have the hidden
sizes RND_HIDDEN; the code size is the target network's output size.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import approx
from .approx import Network, Optimizer
from .envsim import MAP_RESOLUTION, position
from .errors import ConfigError
from .hac import ReplayBuffer, buffer_push, sample_arrays

log = logging.getLogger(__name__)

RND_HIDDEN = (32, 32)
STATE_BUFFER_CAPACITY = 200_000
CALIBRATION_STATES = 1000
CALIBRATION_PERCENTILE = 5.0


@dataclass
class NoveltyModel:
    """Raises ConfigError unless the threshold is finite and >= 0 (novelty
    errors are norms, so a negative one finds every state new forever) and
    the phase index >= 0."""

    target: Network
    predictor: Network
    predictor_opt: Optimizer
    epsilon_rnd: float
    phase_index: int = 0
    visited: ReplayBuffer = field(default_factory=lambda: ReplayBuffer(STATE_BUFFER_CAPACITY, 2),
                                  repr=False, compare=False)

    def __post_init__(self):
        if not (0.0 <= self.epsilon_rnd < math.inf and self.phase_index >= 0):
            raise ConfigError(f"the novelty threshold must be finite and >= 0 ({self.epsilon_rnd})"
                              f" and the phase index >= 0 ({self.phase_index})")


def novelty_model_init(rng: np.random.Generator, *, code_dim: int, epsilon_rnd: float,
                       learning_rate: float) -> NoveltyModel:
    sizes = [2, *RND_HIDDEN, code_dim]
    target = approx.network_init(sizes, rng)
    predictor = approx.network_init(sizes, rng)
    return NoveltyModel(target, predictor, Optimizer(learning_rate), epsilon_rnd)


def calibrate_epsilon(model: NoveltyModel, bounds, rng: np.random.Generator) -> float:
    """Set the novelty threshold to the CALIBRATION_PERCENTILE-th percentile
    of the error over CALIBRATION_STATES uniform random states, so that
    initially (nearly) everything is new."""
    x0, y0, x1, y1 = bounds
    n = CALIBRATION_STATES
    pts = np.column_stack([rng.uniform(x0, x1, n), rng.uniform(y0, y1, n)])
    errs = novelty_errors(model, pts)
    model.epsilon_rnd = float(np.percentile(errs, CALIBRATION_PERCENTILE))
    return model.epsilon_rnd


def novelty_errors(model: NoveltyModel, points: np.ndarray) -> np.ndarray:
    """Euclidean distance between predictor and target codes, batched."""
    pts = np.asarray(points, dtype=float)
    diff = approx.forward(model.predictor, pts) - approx.forward(model.target, pts)
    return np.linalg.norm(diff, axis=-1)


def novelty_error(model: NoveltyModel, state) -> float:
    return float(novelty_errors(model, position(state)[None, :])[0])


def exploration_reward(model: NoveltyModel, state_next):
    """(reward, new): reward 0 when the state is new (error strictly above
    the threshold), -1 otherwise. Never trains anything."""
    new = novelty_error(model, state_next) > model.epsilon_rnd
    return (0.0 if new else -1.0), bool(new)


def observe(model: NoveltyModel, state) -> NoveltyModel:
    """Record h(s) into the ring of visited states."""
    buffer_push(model.visited, position(state))
    return model


def advance_phase(model: NoveltyModel, gradient_steps: int, batch_size: int,
                  rng: np.random.Generator) -> NoveltyModel:
    """End the current curriculum phase: one large predictor update toward
    the target on states visited so far, then bump the phase counter.

    With an empty buffer this is a no-op (warning logged, no counter bump).
    """
    if model.visited.count == 0:
        log.warning("advance_phase called with empty state buffer; skipping")
        return model
    d = model.target.output_dim
    for _ in range(gradient_steps):
        pts = sample_arrays(model.visited, batch_size, rng)
        target_codes = approx.forward(model.target, pts)
        pred_codes, trace = approx.forward_trace(model.predictor, pts)
        diff = pred_codes - target_codes
        grads = approx.backward_trace(model.predictor, trace,
                                      2.0 * diff / (batch_size * d))
        approx.optimizer_step(model.predictor, grads, model.predictor_opt)
    model.phase_index += 1
    return model


def novelty_map(model: NoveltyModel, bounds) -> np.ndarray:
    """Boolean [ix, iy] grid of the new-flag at each cell center, with
    MAP_RESOLUTION cells per side, as the visit grid has."""
    x0, y0, x1, y1 = bounds
    cx = x0 + (np.arange(MAP_RESOLUTION) + 0.5) / MAP_RESOLUTION * (x1 - x0)
    cy = y0 + (np.arange(MAP_RESOLUTION) + 0.5) / MAP_RESOLUTION * (y1 - y0)
    gx, gy = np.meshgrid(cx, cy, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    errs = novelty_errors(model, pts)
    return (errs > model.epsilon_rnd).reshape(MAP_RESOLUTION, MAP_RESOLUTION)


def new_fraction(model: NoveltyModel, bounds) -> float:
    return float(novelty_map(model, bounds).mean())
