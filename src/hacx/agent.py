"""The k-level agent: a stack of goal-conditioned subgoal policies over a
primitive level, plus a goal-free exploration policy at the top that is
rewarded by the novelty model.

Each level is one LevelPolicy record: actor, critic, their optimizers, its
replay buffer and its exploration noise, and no copies: its action bounds
are its actor's output bounds, its goal width is its buffer's (0 for the
explore policy). The settings every level shares are held once, by the
agent: the horizon H, the goal threshold epsilon, the subgoal test rate and
the value floor q_low. Each episode either pursues the task goal or explores
(chosen with probability tau); an explore episode's top-level steps are
also relabeled into the goal top level's buffer, so exploring trains the
goal policy. Control descends recursively, and every
level runs the same loop: act, let the level below carry the action out (the
bottom level acts in the environment), store one row. The rollout carries
the primitive state as one float64 vector (x, y, vx, vy) per environment
step, and no vector is written once built. A level below the top stops when
it comes within epsilon of its subgoal or after H actions; the top level
acts until the episode ends, at task success or the step limit. An episode
is a success when any of its states, the start included, passes the same
task-success test that ends a goal episode. What a level stores is
hindsight: above the bottom level its action component is the state the
subtree actually reached. Proposed subgoals are occasionally tested
(noise-free descent) and penalized when missed. Training is
deterministic-policy-gradient style on each level's own buffer, with no
target networks; critics are bounded to the feasible sparse-reward range.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import approx, envsim, hac, rnd
from .approx import Network, Optimizer
from .envsim import EnvSpec, VisitGrid
from .errors import CheckpointError, TrainingError
from .hac import (DISCOUNT, ReplayBuffer, buffer_push, exploration_transition,
                  hindsight_action_transition, hindsight_goal_transitions, pack_row,
                  sample_arrays, subgoal_test_transition)
from .kvtext import fmt_float, fmt_floats, read_entries

log = logging.getLogger(__name__)

STATE_DIM = 4   # (x, y, vx, vy)
GOAL_DIM = 2    # (x, y)
ACTION_DIM = 2  # (ax, ay)

REPLAY_CAPACITY = 1_000_000
EXPLORE_NOISE_SCALE = 0.2
Q_HIGH = 0.0    # the top of every level's value range: rewards are never positive

# Quadratic penalty on normalized actor outputs during updates. Without a
# restoring force the bounded actor drifts into the tanh tails over tens of
# thousands of steps (the critic's action gradient never quite averages to
# zero), and once saturated its own gradient vanishes and it cannot recover.
ACTION_PENALTY = 0.05


@dataclass
class LevelPolicy:
    """One level's policy. Its actions lie in [actor.output_low,
    actor.output_high]; noise_sigma is the per-dimension Gaussian
    exploration noise."""

    actor: Network
    critic: Network
    buffer: ReplayBuffer
    actor_opt: Optimizer
    critic_opt: Optimizer
    noise_sigma: np.ndarray
    # the actor's [s | g] input, refilled by select_action at every step
    actor_in: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.actor_in = np.empty(self.actor.input_dim)


@dataclass
class EpisodeRecord:
    top_policy_used: str
    primitive_states: list
    closest_distance: float
    success: bool
    transitions_emitted: dict


@dataclass
class HacxAgent:
    """The levels, the explore policy and the settings they all share: a
    level below the top stops after horizon actions or within epsilon of its
    subgoal, a proposed subgoal is tested with probability
    subgoal_test_rate, and every critic is clamped to [q_low, Q_HIGH]."""

    levels: list
    explore_top: LevelPolicy
    tau: float
    novelty: rnd.NoveltyModel
    visits: VisitGrid
    horizon: int
    epsilon: float
    subgoal_test_rate: float
    q_low: float
    num_relabels: int = 2
    relabel_enabled: bool = True
    env_name: str = ""

    @property
    def k(self) -> int:
        return len(self.levels)


def _noise_scale(i: int, k: int) -> float:
    """Noise grows with level: 10% of the half-range at the bottom, 20% at
    the top of a hierarchy, 15% in between. The explore policy's is
    EXPLORE_NOISE_SCALE."""
    if i == 0:
        return 0.1
    return 0.2 if i == k - 1 else 0.15


def make_agent(spec: EnvSpec, k: int, rng: np.random.Generator,
               horizon: int = 10, epsilon_level: float = 0.5,
               subgoal_test_rate: float = 0.3, tau: float = 0.6,
               hidden=(64, 64), actor_lr: float = 1e-4, critic_lr: float = 1e-3,
               rnd_code_dim: int = 16, rnd_lr: float = 1e-3, rnd_epsilon=None,
               num_relabels: int = 2, relabel_enabled: bool = True) -> HacxAgent:
    """Build a fresh agent for a task. All parameter draws come from rng in
    a fixed order, so agents are reproducible given the seed."""
    if k < 1:
        raise ValueError(f"need at least 1 level, got {k}")
    x0, y0, x1, y1 = spec.bounds
    sub = (np.array([x0, y0]), np.array([x1, y1]))
    ab = spec.action_bounds
    act = (np.array([-ab, -ab]), np.array([ab, ab]))
    # With one level the whole episode is that level's horizon.
    q_low = -float(horizon if k >= 2 else spec.max_primitive_steps)

    def policy(goal_dim, bounds, noise_scale):
        low, high = bounds
        act_dim = len(low)
        actor = approx.network_init([STATE_DIM + goal_dim, *hidden, act_dim], rng,
                                    output_activation="tanh_scaled",
                                    output_bounds=bounds, final_scale=0.1)
        # identity output: the feasible value range is enforced by clamping the
        # bootstrapped values and regression targets, not by squashing (a
        # squashed output saturates at the reward-0 end and stops learning)
        critic = approx.network_init([STATE_DIM + goal_dim + act_dim, *hidden, 1], rng)
        return LevelPolicy(actor, critic,
                           ReplayBuffer(REPLAY_CAPACITY, (STATE_DIM, goal_dim, act_dim)),
                           Optimizer(actor_lr), Optimizer(critic_lr), noise_scale * actor.half)

    levels = [policy(GOAL_DIM, act if i == 0 else sub, _noise_scale(i, k)) for i in range(k)]
    explore_top = policy(0, sub if k >= 2 else act, EXPLORE_NOISE_SCALE)

    novelty = rnd.novelty_model_init(rng, code_dim=rnd_code_dim, learning_rate=rnd_lr)
    if rnd_epsilon is None:
        rnd.calibrate_epsilon(novelty, spec.bounds, rng)
    else:
        novelty.epsilon_rnd = float(rnd_epsilon)

    return HacxAgent(levels, explore_top, tau, novelty, VisitGrid(spec.bounds), horizon,
                     epsilon_level, subgoal_test_rate, q_low, num_relabels=num_relabels,
                     relabel_enabled=relabel_enabled, env_name=spec.name)


def choose_top_policy(tau: float, rng: np.random.Generator) -> str:
    return "explore" if rng.random() < tau else "goal"


def select_action(policy: LevelPolicy, state, goal, mode: str,
                  rng: np.random.Generator = None) -> np.ndarray:
    """Actor output, optionally with diagonal Gaussian noise, clipped to the
    level's bounds. goal is None for the exploration policy."""
    if goal is None:
        x = state
    else:
        x = policy.actor_in
        x[:STATE_DIM] = state
        x[STATE_DIM:] = goal
    a = approx.forward(policy.actor, x)
    if mode == "noisy":
        noise = rng.normal(0.0, 1.0, size=a.shape)
        noise *= policy.noise_sigma
        a += noise
        # np.clip, computed in place: the same floats, signed zeros and NaN included
        np.maximum(a, policy.actor.output_low, out=a)
        np.minimum(a, policy.actor.output_high, out=a)
    return a


class _Episode:
    """Mutable state threaded through the level recursion. s_vec is the
    current primitive state as one float64 (x, y, vx, vy) vector, built once
    per environment step and never written afterwards; primitive_states
    holds every one of them, the start included. segments[i] holds the
    level's hindsight segments: one per call at level 0, one per episode
    above."""

    def __init__(self, spec, s, task_goal, mode, top, rng, k):
        self.spec = spec
        self.s_vec = s
        self.steps = 0
        self.task_xy = task_goal.tolist()
        self.mode = mode
        self.top = top
        self.rng = rng
        self.done = False
        self.success = self.at_task_goal(*s[:2].tolist())
        self.primitive_states = [s]
        self.counts = {f"level{i}": 0 for i in range(k)}
        self.counts["explore"] = 0
        self.counts["relabel"] = 0
        self.segments = [[]] + [[[]] for _ in range(1, k)]

    def at_task_goal(self, x: float, y: float) -> bool:
        """The task-success test, on Python floats."""
        return math.hypot(x - self.task_xy[0], y - self.task_xy[1]) < self.spec.epsilon_task


def _env_step(agent: HacxAgent, ep: _Episode, action, train: bool):
    """Level 0's advance: one environment step, the novelty and visit
    records of a training step, and the task-success and step-limit tests.
    Returns the new position as Python floats."""
    s = ep.s_vec = envsim.env_step(ep.spec, ep.s_vec, action)
    ep.steps += 1
    ep.primitive_states.append(s)
    x, y, _, _ = s.tolist()
    if train:
        rnd.observe(agent.novelty, s)
        envsim.record_visit(agent.visits, x, y)
    hit = ep.at_task_goal(x, y)
    ep.success = ep.success or hit
    ep.done = ep.steps >= ep.spec.max_primitive_steps or (hit and ep.top == "goal")
    return x, y


def _run_level(agent: HacxAgent, ep: _Episode, i: int, goal, testing: bool):
    """Level i pursues goal (None for the explore policy): act, let the level
    below (or the environment) carry the action out, store one row.
    A level below the top stops on reaching its goal or after H actions; the
    top level acts until the episode ends. Returns the position reached, as
    Python floats."""
    is_top = i == agent.k - 1
    train = ep.mode == "train"
    mode = "noisy" if train and not testing else "deterministic"
    explore_here = is_top and ep.top == "explore"
    policy = agent.explore_top if explore_here else agent.levels[i]
    eps = agent.epsilon
    name = "explore" if explore_here else f"level{i}"
    if explore_here:
        goal = None
    else:
        gx, gy = float(goal[0]), float(goal[1])
    if i == 0:
        ep.segments[0].append([])
    segment = ep.segments[i][-1]
    attempts = 0

    while True:
        attempts += 1
        s_vec = ep.s_vec
        action = select_action(policy, s_vec, goal, mode, ep.rng)
        child_testing = i > 0 and (testing or (train and ep.rng.random()
                                               < agent.subgoal_test_rate))
        if i == 0:
            x, y = _env_step(agent, ep, action, train)
        else:
            x, y = _run_level(agent, ep, i - 1, action, child_testing)
        ns_vec = ep.s_vec
        reached = goal is not None and math.hypot(x - gx, y - gy) < eps

        if train:
            # above level 0 the stored action is the state the subtree reached
            act = action if i == 0 else ns_vec[:2]
            if explore_here:
                row = exploration_transition(s_vec, act, ns_vec, agent.novelty)
            elif i == 0:
                row = pack_row(s_vec, goal, action, ns_vec, 0.0 if reached else -1.0,
                               0.0 if reached else DISCOUNT)
            else:
                row = hindsight_action_transition(s_vec, ns_vec, goal, eps)
            buffer_push(policy.buffer, row)
            ep.counts[name] += 1
            segment.append((s_vec, act, ns_vec))
            if child_testing:
                row = subgoal_test_transition(s_vec, action, ns_vec, agent.horizon, eps, goal)
                if row is not None:
                    buffer_push(policy.buffer, row)
                    ep.counts[name] += 1

        if ep.done or (not is_top and (reached or attempts >= agent.horizon)):
            return x, y


def run_episode(agent: HacxAgent, spec: EnvSpec, mode: str,
                rng: np.random.Generator) -> EpisodeRecord:
    """One episode. Test mode is pure: always the goal policy, deterministic
    actions, and nothing written to buffers, novelty model, or visit grid."""
    if mode not in ("train", "test"):
        raise ValueError(f"mode must be train or test, got {mode!r}")
    train = mode == "train"
    s, task_goal = envsim.env_reset(spec, rng)
    top = choose_top_policy(agent.tau, rng) if train else "goal"
    ep = _Episode(spec, s, task_goal, mode, top, rng, agent.k)

    _run_level(agent, ep, agent.k - 1, task_goal, testing=False)

    if train and agent.relabel_enabled and agent.num_relabels > 0:
        for p, segments in zip(agent.levels, ep.segments):
            for seg in filter(None, segments):
                rows = hindsight_goal_transitions(seg, agent.num_relabels, agent.epsilon, rng)
                buffer_push(p.buffer, rows)
                ep.counts["relabel"] += len(rows)

    positions = np.array(ep.primitive_states)[:, :2]
    closest = float(np.min(np.linalg.norm(positions - task_goal, axis=1)))
    return EpisodeRecord(top, ep.primitive_states, closest, ep.success, ep.counts)


def update(agent: HacxAgent, rounds: int, batch_size: int,
           rng: np.random.Generator) -> dict:
    """Interleaved critic and actor steps on every level's own buffer.

    Critic regresses on r + discount * q(s', g, actor(s', g)) computed from
    the current networks (no target copies), with the target clamped to the
    feasible value range [agent.q_low, Q_HIGH]. The actor ascends the
    critic's action gradient. Levels whose buffers hold fewer than batch_size transitions
    are skipped.
    """
    diag = {}
    named = [(f"level{i}", p) for i, p in enumerate(agent.levels)]
    named.append(("explore", agent.explore_top))
    for name, p in named:
        if rounds < 1 or p.buffer.count < batch_size:
            diag[name] = {"critic_loss": None, "mean_q": None, "rounds": 0}
            continue
        # Sampled rows are state | goal | action | next_state | reward |
        # discount, so the critic input [s, g, a] and the actor input [s, g]
        # are leading column slices of the sample.
        sd, gd, ad = p.buffer.widths
        sg_w, sga_w = sd + gd, sd + gd + ad
        next_in = np.empty((batch_size, sga_w))     # [ns, g, actor(ns, g)]
        mid, half = p.actor.mid, p.actor.half
        pen_scale = half * half * batch_size
        mean_up = np.full((batch_size, 1), 1.0 / batch_size)
        losses, qmeans = [], []
        for _ in range(rounds):
            rows = sample_arrays(p.buffer, batch_size, rng)
            _, g, _, ns, rew, disc = p.buffer.columns(rows)
            sga, sg = rows[:, :sga_w], rows[:, :sg_w]
            next_in[:, :sd] = ns
            if g is not None:
                next_in[:, sd:sg_w] = g
            next_in[:, sg_w:] = approx.forward(p.actor, next_in[:, :sg_w])
            q_next = approx.forward(p.critic, next_in)[:, 0]
            q_next = np.clip(q_next, agent.q_low, Q_HIGH)
            y = np.clip(rew + disc * q_next, agent.q_low, Q_HIGH)

            q_pred, trace = approx.forward_trace(p.critic, sga)
            diff = q_pred[:, 0] - y
            loss = float(np.mean(diff * diff))
            if not np.isfinite(loss):
                raise TrainingError(f"{name}: non-finite critic loss")
            grads = approx.backward_trace(p.critic, trace,
                                          (2.0 * diff / batch_size)[:, None])
            approx.optimizer_step(p.critic, grads, p.critic_opt)

            a_pred, atrace = approx.forward_trace(p.actor, sg)
            # the sampled actions are spent: the critic now scores [s, g, a_pred]
            sga[:, sg_w:] = a_pred
            qv, qtrace = approx.forward_trace(p.critic, sga)
            dq_da = approx.input_gradient(p.critic, qtrace, mean_up)[:, sg_w:]
            step = 2.0 * ACTION_PENALTY * (a_pred - mid) / pen_scale
            step -= dq_da
            agrads = approx.backward_trace(p.actor, atrace, step)
            approx.optimizer_step(p.actor, agrads, p.actor_opt)

            losses.append(loss)
            qmeans.append(float(np.mean(qv)))
        diag[name] = {"critic_loss": float(np.mean(losses)),
                      "mean_q": float(np.mean(qmeans)), "rounds": rounds}
    return diag


# ---------------------------------------------------------------------------
# Snapshot serialization (text; file IO lives in harness)

MAGIC = "HACX1"


def _net_lines(tag: str, net: Network) -> list:
    lines = [f"[network {tag}]",
             "sizes = " + " ".join(str(s) for s in net.layer_sizes),
             f"hidden = {net.hidden_activation}",
             f"output = {net.output_activation}"]
    if net.output_activation == "tanh_scaled":
        lines.append("out_low = " + fmt_floats(net.output_low))
        lines.append("out_high = " + fmt_floats(net.output_high))
    for j, (w, b) in enumerate(zip(net.weights, net.biases)):
        lines.append(f"A{j} = " + fmt_floats(w))
        lines.append(f"B{j} = " + fmt_floats(b))
    return lines


def _opt_lines(tag: str, opt: Optimizer, net: Network) -> list:
    lines = [f"[opt {tag}]", "kind = adam", f"lr = {fmt_float(opt.learning_rate)}",
             f"beta1 = {fmt_float(opt.beta1)}", f"beta2 = {fmt_float(opt.beta2)}",
             f"eps = {fmt_float(opt.eps)}", f"steps = {opt.step_count}"]
    if opt.m is not None:
        mw, mb = approx.layer_views(net.layer_sizes, opt.m)
        vw, vb = approx.layer_views(net.layer_sizes, opt.v)
        for j in range(len(mw)):
            lines.append(f"MA{j} = " + fmt_floats(mw[j]))
            lines.append(f"MB{j} = " + fmt_floats(mb[j]))
            lines.append(f"VA{j} = " + fmt_floats(vw[j]))
            lines.append(f"VB{j} = " + fmt_floats(vb[j]))
    return lines


def _policy_lines(agent: HacxAgent, tag: str, level_index: int, p: LevelPolicy) -> list:
    lines = [f"[policy {tag}]",
             f"level_index = {level_index}",
             f"horizon = {agent.horizon}",
             f"epsilon = {fmt_float(agent.epsilon)}",
             f"subgoal_test_rate = {fmt_float(agent.subgoal_test_rate)}",
             f"goal_dim = {p.buffer.widths[1]}",
             f"q_low = {fmt_float(agent.q_low)}",
             f"q_high = {fmt_float(Q_HIGH)}",
             f"capacity = {p.buffer.capacity}",
             "noise_sigma = " + fmt_floats(p.noise_sigma),
             "low = " + fmt_floats(p.actor.output_low),
             "high = " + fmt_floats(p.actor.output_high)]
    lines += _net_lines(f"{tag}.actor", p.actor)
    lines += _opt_lines(f"{tag}.actor", p.actor_opt, p.actor)
    lines += _net_lines(f"{tag}.critic", p.critic)
    lines += _opt_lines(f"{tag}.critic", p.critic_opt, p.critic)
    return lines


def policy_snapshot(agent: HacxAgent) -> str:
    """Serialize everything needed to act and to keep training, except
    replay buffers and the novelty model's visited-state buffer (a restored
    agent starts those empty)."""
    lines = [MAGIC, "[agent]",
             f"k = {agent.k}",
             f"tau = {fmt_float(agent.tau)}",
             f"state_dim = {STATE_DIM}",
             f"goal_dim = {GOAL_DIM}",
             f"num_relabels = {agent.num_relabels}",
             f"relabel_enabled = {int(agent.relabel_enabled)}",
             f"env_name = {agent.env_name}",
             "visit_bounds = " + fmt_floats(agent.visits.bounds),
             f"visit_resolution = {agent.visits.resolution}"]
    for i, p in enumerate(agent.levels):
        lines += _policy_lines(agent, f"level{i}", i, p)
    lines += _policy_lines(agent, "explore", agent.k - 1, agent.explore_top)
    lines += ["[rnd]",
              f"code_dim = {agent.novelty.target.output_dim}",
              f"epsilon_rnd = {fmt_float(agent.novelty.epsilon_rnd)}",
              f"phase_index = {agent.novelty.phase_index}",
              f"state_capacity = {agent.novelty.state_buffer.shape[0]}"]
    lines += _net_lines("rnd.target", agent.novelty.target)
    lines += _net_lines("rnd.predictor", agent.novelty.predictor)
    lines += _opt_lines("rnd.predictor", agent.novelty.predictor_opt, agent.novelty.predictor)
    lines.append("END")
    return "\n".join(lines) + "\n"


class _SnapshotReader:
    def __init__(self, text: str):
        lines = text.splitlines()
        if not lines or lines[0] != MAGIC:
            raise CheckpointError(f"bad magic; expected {MAGIC!r}")
        if "END" not in lines:
            raise CheckpointError("truncated snapshot: no END marker")
        self.sections = {}
        for section, key, val in read_entries(lines[1:lines.index("END")]):
            if not section:
                raise CheckpointError(f"stray key {key!r} before any section")
            self.sections.setdefault(section, {})[key] = val

    def section(self, name: str) -> dict:
        if name not in self.sections:
            raise CheckpointError(f"missing section [{name}]")
        return self.sections[name]


def _parse_array(sec: dict, key: str, shape) -> np.ndarray:
    if key not in sec:
        raise CheckpointError(f"missing parameter block {key!r}")
    vals = np.array(sec[key].split(), dtype=float)
    if vals.size != int(np.prod(shape)):
        raise CheckpointError(f"{key}: expected {int(np.prod(shape))} values, "
                              f"got {vals.size}")
    return vals.reshape(shape)


def _parse_layers(sec: dict, wkey: str, bkey: str, sizes) -> np.ndarray:
    """Blocks {wkey}{j} and {bkey}{j}, concatenated in the Network.params layout."""
    blocks = []
    for j in range(len(sizes) - 1):
        blocks.append(_parse_array(sec, f"{wkey}{j}", (sizes[j + 1] * sizes[j],)))
        blocks.append(_parse_array(sec, f"{bkey}{j}", (sizes[j + 1],)))
    return np.concatenate(blocks)


def _read_net(r: _SnapshotReader, tag: str) -> Network:
    sec = r.section(f"network {tag}")
    sizes = [int(v) for v in sec["sizes"].split()]
    if len(sizes) < 2:
        raise CheckpointError(f"[network {tag}]: sizes {sizes}, need an input and an output size")
    low = high = None
    if sec["output"] == "tanh_scaled":
        low = _parse_array(sec, "out_low", (sizes[-1],))
        high = _parse_array(sec, "out_high", (sizes[-1],))
    return Network(sizes, _parse_layers(sec, "A", "B", sizes), sec["hidden"], sec["output"],
                   low, high)


def _read_opt(r: _SnapshotReader, tag: str, net: Network) -> Optimizer:
    sec = r.section(f"opt {tag}")
    if sec["kind"] != "adam":
        raise CheckpointError(f"[opt {tag}]: unsupported optimizer kind {sec['kind']!r}")
    opt = Optimizer(float(sec["lr"]), float(sec["beta1"]), float(sec["beta2"]),
                    float(sec["eps"]), int(sec["steps"]))
    if "MA0" in sec:
        opt.m = _parse_layers(sec, "MA", "MB", net.layer_sizes)
        opt.v = _parse_layers(sec, "VA", "VB", net.layer_sizes)
    return opt


def _check_equal(where: str, key: str, got, want, source: str) -> None:
    """Refuse a parsed value that differs from want, the value source fixes."""
    if not np.array_equal(got, want):
        raise CheckpointError(f"[{where}]: {key} {got} differs from {want}, {source}")


# The settings every level shares, with their parsers: the snapshot writes a
# copy into each [policy] section, and [policy level0]'s is the one read.
_SHARED = (("horizon", int), ("epsilon", float), ("subgoal_test_rate", float),
           ("q_low", float))


def _read_policy(r: _SnapshotReader, tag: str, level_index: int, goal_dim: int,
                 noise_scale: float, shared: dict) -> LevelPolicy:
    """The policy at level_index with a goal_dim-wide goal (0 for the explore
    policy) and noise_scale; its written copies must equal their sources,
    its copies of the shared settings the values in shared."""
    where = f"policy {tag}"
    sec = r.section(where)
    actor = _read_net(r, f"{tag}.actor")
    _check_equal(f"network {tag}.actor", "output size", actor.output_dim,
                 ACTION_DIM if level_index == 0 else GOAL_DIM,
                 "ACTION_DIM at level 0, GOAL_DIM above")
    critic = _read_net(r, f"{tag}.critic")
    act_dim = actor.output_dim
    _check_equal(where, "level_index", int(sec["level_index"]), level_index, "its place")
    _check_equal(where, "goal_dim", int(sec["goal_dim"]), goal_dim, "its place")
    _check_equal(where, "q_high", float(sec["q_high"]), Q_HIGH, "Q_HIGH")
    for key, parse in _SHARED:
        _check_equal(where, key, parse(sec[key]), shared[key], "[policy level0]")
    _check_equal(where, "capacity", int(sec["capacity"]), REPLAY_CAPACITY, "REPLAY_CAPACITY")
    for key, bound in (("low", actor.output_low), ("high", actor.output_high)):
        _check_equal(where, key, _parse_array(sec, key, (act_dim,)), bound,
                     "the actor's output bounds")
    noise_sigma = noise_scale * actor.half
    _check_equal(where, "noise_sigma", _parse_array(sec, "noise_sigma", (act_dim,)), noise_sigma,
                 f"{noise_scale} times the actor's half-range")
    _check_equal(f"network {tag}.actor", "input size", actor.input_dim, STATE_DIM + goal_dim,
                 "STATE_DIM + goal_dim")
    _check_equal(f"network {tag}.critic", "input and output sizes",
                 (critic.input_dim, critic.output_dim), (actor.input_dim + act_dim, 1),
                 "the actor's input and output, and one value")
    return LevelPolicy(actor, critic,
                       ReplayBuffer(REPLAY_CAPACITY, (STATE_DIM, goal_dim, act_dim)),
                       _read_opt(r, f"{tag}.actor", actor), _read_opt(r, f"{tag}.critic", critic),
                       noise_sigma)


def restore(snapshot: str) -> HacxAgent:
    """Rebuild an agent from policy_snapshot output. Replay buffers and the
    novelty state buffer come back empty. Any malformed content raises
    CheckpointError, and so does a snapshot that contradicts itself: a copy
    that differs from its source, or networks that do not fit together."""
    try:
        return _restore(snapshot)
    except (KeyError, ValueError) as e:
        raise CheckpointError(f"malformed snapshot: {e!r}") from e


def _restore(snapshot: str) -> HacxAgent:
    r = _SnapshotReader(snapshot)
    a = r.section("agent")
    k = int(a["k"])
    if k < 1:
        raise CheckpointError(f"[agent]: k = {k}, need at least 1 level")
    _check_equal("agent", "state_dim", int(a["state_dim"]), STATE_DIM, "STATE_DIM")
    _check_equal("agent", "goal_dim", int(a["goal_dim"]), GOAL_DIM, "GOAL_DIM")
    level0 = r.section("policy level0")
    shared = {key: parse(level0[key]) for key, parse in _SHARED}
    levels = [_read_policy(r, f"level{i}", i, GOAL_DIM, _noise_scale(i, k), shared)
              for i in range(k)]
    explore_top = _read_policy(r, "explore", k - 1, 0, EXPLORE_NOISE_SCALE, shared)
    rs = r.section("rnd")
    target, predictor = _read_net(r, "rnd.target"), _read_net(r, "rnd.predictor")
    _check_equal("rnd", "code_dim", int(rs["code_dim"]), target.output_dim,
                 "the target's output size")
    _check_equal("rnd", "state_capacity", int(rs["state_capacity"]), rnd.STATE_BUFFER_CAPACITY,
                 "STATE_BUFFER_CAPACITY")
    _check_equal("network rnd.target", "input size", target.input_dim, 2, "the (x, y) position")
    _check_equal("network rnd.target", "hidden sizes", target.layer_sizes[1:-1],
                 rnd.RND_HIDDEN, "RND_HIDDEN")
    _check_equal("network rnd.predictor", "sizes", predictor.layer_sizes, target.layer_sizes,
                 "the target's sizes")
    novelty = rnd.NoveltyModel(
        target, predictor, _read_opt(r, "rnd.predictor", predictor), float(rs["epsilon_rnd"]),
        np.zeros((rnd.STATE_BUFFER_CAPACITY, 2), dtype=np.float32), int(rs["phase_index"]))
    visits = VisitGrid(tuple(float(v) for v in _parse_array(a, "visit_bounds", (4,))))
    _check_equal("agent", "visit_resolution", int(a["visit_resolution"]), visits.resolution,
                 "the visit grid's resolution")
    return HacxAgent(levels, explore_top, float(a["tau"]), novelty, visits, **shared,
                     num_relabels=int(a["num_relabels"]),
                     relabel_enabled=bool(int(a["relabel_enabled"])),
                     env_name=a.get("env_name", ""))
