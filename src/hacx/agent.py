"""The k-level agent: a stack of goal-conditioned subgoal policies over a
primitive level, plus a goal-free exploration policy at the top that is
rewarded by the novelty model.

Each level is one LevelPolicy record: actor, critic, their optimizers, its
replay buffer (a ring of packed rows, see hac.columns) and its exploration
noise, and no copies: its action bounds are its actor's output bounds, its
rows' goal width is its actor's (0 for the explore policy). The agent holds
the environment it was built for and, once, the settings every level shares:
the horizon H, the goal threshold epsilon and the subgoal test rate; the
value floor q_low follows from H. Every record checks its own ranges when it
is built, and restore builds through make_agent, so training and a restored
snapshot share one builder and one set of checks. Each episode either
pursues the task goal or explores (chosen with probability tau). Control
descends recursively, and every level runs the same loop: act, let the level
below carry the action out (the bottom level acts in the environment), store
one row. That loop asks its caller for each action: run_episode answers with
select_action, and run_test_episodes runs many test episodes in lockstep and
answers each policy's waiting episodes with one approx.forward_rows call,
whose rows have the bits select_action gives them one by one. The rollout
carries the primitive state as one float64 vector (x, y, vx, vy) per
environment step, and no vector is written once built. A level below the top
stops when it comes within epsilon of its subgoal or after H actions; the
top level acts until the episode ends, at task success or the step limit. An
episode is a success when any of its states, the start included, passes the
same task-success test that ends a goal episode. Each goal verdict is one
hac.within, computed where the rollout has the floats and handed to the row
it decides. What a level stores is hindsight: above the bottom level its
action component is the state the subtree actually reached, and its step
rows, kept in segments, are relabeled when the episode ends (an explore
episode's top segment into the goal top level's buffer, so exploring trains
the goal policy). Proposed subgoals are occasionally tested (noise-free
descent) and penalized when missed, which is the verdict the level below
stopped on. An Episode is its own record. Training is
deterministic-policy-gradient style on each level's own buffer, with no
target networks; critics are bounded to the feasible sparse-reward range.
"""

from __future__ import annotations

import logging
import math
from dataclasses import InitVar, dataclass, field, replace
from functools import partial

import numpy as np

from . import approx, envsim, rnd
from .approx import Network, Optimizer
from .envsim import EnvSpec, VisitGrid
from .errors import CheckpointError, ConfigError, TrainingError
from .hac import (DISCOUNT, GOAL_DIM, STATE_DIM, ReplayBuffer, buffer_push, columns,
                  exploration_transition, hindsight_action_transition,
                  hindsight_goal_transitions, pack_row, sample_arrays, subgoal_test_transition,
                  within)
from .kvtext import fmt_float, fmt_vector, read_entries, read_vector

log = logging.getLogger(__name__)

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
    actor.output_high]; its Gaussian exploration noise is noise_scale times
    the actor's half-range, and its buffer's rows are its critic's input plus
    s', r and d: the state plus 0 or GOAL_DIM goal values in, 2 values out."""

    actor: Network
    critic: Network
    actor_opt: Optimizer
    critic_opt: Optimizer
    noise_scale: InitVar[float]
    buffer: ReplayBuffer = field(init=False, repr=False, compare=False)
    noise_sigma: np.ndarray = field(init=False)
    # the actor's [s | g] input, refilled by select_action at every step
    actor_in: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, noise_scale: float):
        actor = self.actor
        self.buffer = ReplayBuffer(REPLAY_CAPACITY, self.critic.input_dim + STATE_DIM + 2)
        self.noise_sigma = noise_scale * actor.half
        self.actor_in = np.empty(actor.input_dim)


@dataclass
class HacxAgent:
    """The levels, the explore policy, the environment they were built for
    and the settings they all share: a level below the top stops after
    horizon actions or within epsilon of its subgoal, a proposed subgoal is
    tested with probability subgoal_test_rate, and every critic is clamped to
    [q_low, Q_HIGH]. Construction checks every setting's range, and raises
    ConfigError."""

    levels: list
    explore_top: LevelPolicy
    tau: float
    novelty: rnd.NoveltyModel
    spec: EnvSpec
    horizon: int
    epsilon: float
    subgoal_test_rate: float
    num_relabels: int
    visits: VisitGrid = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.k >= 1 and 0.0 <= self.tau <= 1.0 and self.horizon >= 1
                and 0.0 < self.epsilon < math.inf and 0.0 <= self.subgoal_test_rate <= 1.0
                and self.num_relabels >= 0):
            raise ConfigError(
                "an agent needs at least 1 level, tau in [0, 1], horizon >= 1, a finite epsilon "
                "> 0, subgoal_test_rate in [0, 1] and num_relabels >= 0; got k, tau, horizon, "
                f"epsilon, subgoal_test_rate, num_relabels = {self.k}, {self.tau}, "
                f"{self.horizon}, {self.epsilon}, {self.subgoal_test_rate}, {self.num_relabels}")
        self.visits = VisitGrid(self.spec.bounds)

    @property
    def k(self) -> int:
        return len(self.levels)

    @property
    def q_low(self) -> float:
        """The floor of every critic's value range: -H, or the step limit
        with one level, whose horizon is the whole episode."""
        return -float(self.horizon if self.k >= 2 else self.spec.max_primitive_steps)

    @property
    def env_name(self) -> str:
        return self.spec.name


def _noise_scale(i: int, k: int) -> float:
    """Noise grows with level: 10% of the half-range at the bottom, 20% at
    the top of a hierarchy, 15% in between. The explore policy's is
    EXPLORE_NOISE_SCALE."""
    if i == 0:
        return 0.1
    return 0.2 if i == k - 1 else 0.15


def make_agent(spec: EnvSpec, k: int, rng: np.random.Generator, *, horizon: int,
               epsilon_level: float, subgoal_test_rate: float, tau: float, hidden,
               actor_lr: float, critic_lr: float, rnd_code_dim: int, rnd_lr: float,
               rnd_epsilon, num_relabels: int) -> HacxAgent:
    """Build a fresh agent for a task (harness.RunConfig holds the defaults).
    All parameter draws come from rng in a fixed order, so agents are
    reproducible given the seed. rnd_epsilon None calibrates the novelty
    threshold. A setting out of range raises ConfigError."""
    x0, y0, x1, y1 = spec.bounds
    sub = (np.array([x0, y0]), np.array([x1, y1]))
    ab = spec.action_bounds
    act = (np.array([-ab, -ab]), np.array([ab, ab]))

    def policy(goal_dim, bounds, noise_scale):
        act_dim = len(bounds[0])
        actor = approx.network_init([STATE_DIM + goal_dim, *hidden, act_dim], rng,
                                    output_bounds=bounds, final_scale=0.1)
        # no bounds, so a linear output: the feasible value range is enforced by
        # clamping bootstrapped values and regression targets, not by squashing
        # (a squashed output saturates at the reward-0 end and stops learning)
        critic = approx.network_init([STATE_DIM + goal_dim + act_dim, *hidden, 1], rng)
        return LevelPolicy(actor, critic, Optimizer(actor_lr), Optimizer(critic_lr), noise_scale)

    levels = [policy(GOAL_DIM, act if i == 0 else sub, _noise_scale(i, k)) for i in range(k)]
    explore_top = policy(0, sub if k >= 2 else act, EXPLORE_NOISE_SCALE)

    novelty = rnd.novelty_model_init(rng, code_dim=rnd_code_dim, learning_rate=rnd_lr,
                                     epsilon_rnd=0.0 if rnd_epsilon is None else rnd_epsilon)
    if rnd_epsilon is None:
        rnd.calibrate_epsilon(novelty, spec.bounds, rng)
    return HacxAgent(levels, explore_top, tau, novelty, spec, horizon, epsilon_level,
                     subgoal_test_rate, num_relabels)


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


class Episode:
    """One episode's state, threaded through the level recursion, and its
    record once it ends. s_vec is the current primitive state as one float64
    (x, y, vx, vy) vector, built once per environment step and never written
    afterwards; primitive_states holds every one of them, the start included.
    segments[i] holds level i's segments, lists of the step rows it stored:
    one per call at level 0, one per episode above."""

    def __init__(self, spec, s, task_goal, mode, top_policy_used, rng, k):
        self.spec = spec
        self.s_vec = s
        self.task_goal = task_goal
        self.task_xy = task_goal.tolist()
        self.mode = mode
        self.top_policy_used = top_policy_used
        self.rng = rng
        self.done = False
        self.success = self.at_task_goal(*s[:2].tolist())
        self.primitive_states = [s]
        self.segments = [[]] + [[[]] for _ in range(1, k)]

    def at_task_goal(self, x: float, y: float) -> bool:
        """The task-success test, on Python floats."""
        return within(x, y, *self.task_xy, self.spec.epsilon_task)

    @property
    def closest_distance(self) -> float:
        """The least distance of any state, the start included, to the task goal."""
        positions = np.array(self.primitive_states)[:, :2]
        return float(np.min(np.linalg.norm(positions - self.task_goal, axis=1)))


def _env_step(agent: HacxAgent, ep: Episode, action, train: bool):
    """Level 0's advance: one environment step, the novelty and visit
    records of a training step, and the task-success and step-limit tests.
    Returns the new position as Python floats."""
    s = ep.s_vec = envsim.env_step(ep.spec, ep.s_vec, action)
    ep.primitive_states.append(s)
    x, y, _, _ = s.tolist()
    if train:
        rnd.observe(agent.novelty, s)
        envsim.record_visit(agent.visits, x, y)
    hit = ep.at_task_goal(x, y)
    ep.success = ep.success or hit
    ep.done = (len(ep.primitive_states) > ep.spec.max_primitive_steps
               or (hit and ep.top_policy_used == "goal"))
    return x, y


def _run_level(agent: HacxAgent, ep: Episode, i: int, goal, testing: bool):
    """Level i pursues goal (None for the explore policy): act, let the level
    below (or the environment) carry the action out, store one row.
    A level below the top stops on reaching its goal or after H actions; the
    top level acts until the episode ends. A generator: for each action it
    yields select_action's (policy, state, goal, mode) and is sent the action
    back, so whoever drives it chooses how actions are computed. Returns the
    position reached, as Python floats, and whether it is within epsilon of
    goal: the verdict the level's last row holds, and, for the level above,
    the test of the subgoal it proposed."""
    is_top = i == agent.k - 1
    train = ep.mode == "train"
    mode = "noisy" if train and not testing else "deterministic"
    explore_here = is_top and ep.top_policy_used == "explore"
    policy = agent.explore_top if explore_here else agent.levels[i]
    eps = agent.epsilon
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
        action = yield policy, s_vec, goal, mode
        child_testing = i > 0 and (testing or (train and ep.rng.random()
                                               < agent.subgoal_test_rate))
        if i == 0:
            x, y = _env_step(agent, ep, action, train)
            missed = False
        else:
            x, y, child_reached = yield from _run_level(agent, ep, i - 1, action, child_testing)
            missed = child_testing and not child_reached
        ns_vec = ep.s_vec
        reached = goal is not None and within(x, y, gx, gy, eps)

        if train:
            if explore_here:
                # above level 0 the stored action is the state the subtree reached
                _, new = rnd.exploration_reward(agent.novelty, ns_vec)
                row = exploration_transition(s_vec, action if i == 0 else ns_vec[:2], ns_vec, new)
            elif i == 0:
                row = pack_row(s_vec, goal, action, ns_vec, 0.0 if reached else -1.0,
                               0.0 if reached else DISCOUNT)
            else:
                row = hindsight_action_transition(s_vec, ns_vec, goal, reached)
            buffer_push(policy.buffer, row)
            segment.append(row)
            if missed:
                buffer_push(policy.buffer, subgoal_test_transition(s_vec, action, ns_vec,
                                                                   agent.horizon, goal))

        if ep.done or (not is_top and (reached or attempts >= agent.horizon)):
            return x, y, reached


def run_episode(agent: HacxAgent, spec: EnvSpec, mode: str,
                rng: np.random.Generator) -> Episode:
    """One episode. Test mode is pure: always the goal policy, deterministic
    actions, and nothing written to buffers, novelty model, or visit grid."""
    if mode not in ("train", "test"):
        raise ValueError(f"mode must be train or test, got {mode!r}")
    train = mode == "train"
    s, task_goal = envsim.env_reset(spec, rng)
    top = choose_top_policy(agent.tau, rng) if train else "goal"
    ep = Episode(spec, s, task_goal, mode, top, rng, agent.k)

    run = _run_level(agent, ep, agent.k - 1, task_goal, testing=False)
    try:
        request = next(run)
        while True:
            request = run.send(select_action(*request, rng))
    except StopIteration:
        pass

    if train and agent.num_relabels > 0:
        for p, segments in zip(agent.levels, ep.segments):
            for seg in filter(None, segments):
                rows = hindsight_goal_transitions(np.array(seg), agent.num_relabels,
                                                  agent.epsilon, rng)
                buffer_push(p.buffer, rows)
    return ep


# Test episodes run together, at most: this bounds the memory of a long
# evaluation, and every frozen config's 50 test episodes are one batch.
LOCKSTEP_EPISODES = 64


def run_test_episodes(agent: HacxAgent, spec: EnvSpec, n: int, rng: np.random.Generator):
    """Yield n test episodes, in order: the episodes, and the rng state once
    all are drawn, of n run_episode(agent, spec, "test", rng)
    calls one after another. Up to LOCKSTEP_EPISODES of them run in
    lockstep, and a batch's resets are drawn when it starts, which are the
    only draws a test episode makes."""
    for first in range(0, n, LOCKSTEP_EPISODES):
        yield from _run_lockstep(agent, spec, min(LOCKSTEP_EPISODES, n - first), rng)


def _run_lockstep(agent: HacxAgent, spec: EnvSpec, n: int,
                  rng: np.random.Generator) -> list:
    """n test episodes driven together, one environment step each per tick.
    A tick answers the waiting episodes level by level from the top, so an
    episode given a subgoal asks the level below in the same tick. Each
    level's waiting [state | goal] rows go through one approx.forward_rows
    call, which gives each row the floats select_action gives it alone
    (test actions carry no noise)."""
    eps, runs, requests = [], [], []
    for _ in range(n):
        s, task_goal = envsim.env_reset(spec, rng)
        ep = Episode(spec, s, task_goal, "test", "goal", rng, agent.k)
        run = _run_level(agent, ep, agent.k - 1, task_goal, testing=False)
        eps.append(ep)
        runs.append(run)
        requests.append(next(run))
    live = list(range(n))
    while live:
        for policy in reversed(agent.levels):
            js = [j for j in live if requests[j][0] is policy]
            if not js:
                continue
            xs = np.concatenate([v for j in js for v in requests[j][1:3]]).reshape(len(js), -1)
            for j, action in zip(js, approx.forward_rows(policy.actor, xs)):
                try:
                    requests[j] = runs[j].send(action)
                except StopIteration:
                    requests[j] = None
        live = [j for j in live if requests[j] is not None]
    return eps


def _named_policies(agent: HacxAgent) -> list:
    """(name, policy) of each level, then of the explore policy."""
    named = [(f"level{i}", p) for i, p in enumerate(agent.levels)]
    return named + [("explore", agent.explore_top)]


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
    q_low = agent.q_low
    for name, p in _named_policies(agent):
        if rounds < 1 or p.buffer.count < batch_size:
            diag[name] = {"critic_loss": None, "mean_q": None, "rounds": 0}
            continue
        # Sampled rows are state | goal | action | next_state | reward |
        # discount, so the critic input [s, g, a] and the actor input [s, g]
        # are leading column slices of the sample.
        sg_w, sga_w = p.actor.input_dim, p.critic.input_dim
        next_in = np.empty((batch_size, sga_w))     # [ns, g, actor(ns, g)]
        mid, half = p.actor.mid, p.actor.half
        pen_scale = half * half * batch_size
        mean_up = np.full((batch_size, 1), 1.0 / batch_size)
        losses, qmeans = [], []
        for _ in range(rounds):
            rows = sample_arrays(p.buffer, batch_size, rng)
            _, g, _, ns, rew, disc = columns(rows)
            sga, sg = rows[:, :sga_w], rows[:, :sg_w]
            next_in[:, :STATE_DIM] = ns
            if g is not None:
                next_in[:, STATE_DIM:sg_w] = g
            next_in[:, sg_w:] = approx.forward(p.actor, next_in[:, :sg_w])
            q_next = approx.forward(p.critic, next_in)[:, 0]
            q_next = np.clip(q_next, q_low, Q_HIGH)
            y = np.clip(rew + disc * q_next, q_low, Q_HIGH)

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

MAGIC = "HACX5"


def _widths(v: str) -> tuple:
    return tuple(int(w) for w in v.split())


_WRITERS = {int: str, float: fmt_float, _widths: lambda v: " ".join(map(str, v))}

# (section, key): (make_agent keyword, parser, the agent's value). Every
# network of a level and of the explore policy has the same hidden widths,
# every actor (critic) optimizer the same step size.
_SETTINGS = {
    ("agent", "k"): ("k", int, lambda a: a.k),
    ("agent", "tau"): ("tau", float, lambda a: a.tau),
    ("agent", "horizon"): ("horizon", int, lambda a: a.horizon),
    ("agent", "epsilon"): ("epsilon_level", float, lambda a: a.epsilon),
    ("agent", "subgoal_test_rate"): ("subgoal_test_rate", float, lambda a: a.subgoal_test_rate),
    ("agent", "num_relabels"): ("num_relabels", int, lambda a: a.num_relabels),
    ("agent", "hidden"): ("hidden", _widths, lambda a: a.levels[0].actor.layer_sizes[1:-1]),
    ("agent", "actor_lr"): ("actor_lr", float, lambda a: a.levels[0].actor_opt.learning_rate),
    ("agent", "critic_lr"): ("critic_lr", float, lambda a: a.levels[0].critic_opt.learning_rate),
    ("rnd", "epsilon_rnd"): ("rnd_epsilon", float, lambda a: a.novelty.epsilon_rnd),
    ("rnd", "code_dim"): ("rnd_code_dim", int, lambda a: a.novelty.target.output_dim),
    ("rnd", "lr"): ("rnd_lr", float, lambda a: a.novelty.predictor_opt.learning_rate),
}


def _networks(agent: HacxAgent) -> list:
    """(tag, record, network field, optimizer field or None) of every
    network, in snapshot order; the novelty target never trains."""
    nets = [(f"{tag}.{role}", p, role, f"{role}_opt")
            for tag, p in _named_policies(agent) for role in ("actor", "critic")]
    return nets + [("rnd.target", agent.novelty, "target", None),
                   ("rnd.predictor", agent.novelty, "predictor", "predictor_opt")]


def policy_snapshot(agent: HacxAgent) -> str:
    """Serialize each setting once, the geometry, and what training learned:
    every network's parameters and, if it trains, its Adam step count and
    moments, each vector as kvtext.fmt_vector's base64 float64. Structure,
    bounds and the Adam constants are left out, since make_agent builds them
    from the settings, and so are the replay buffers, the novelty state
    buffer and the visit counts (a restored agent starts those empty).
    [agent] writes level 0's hidden widths and learning rates for every
    policy, so a policy network whose own differ raises ValueError: its
    snapshot would restore with level 0's."""
    hidden = list(_SETTINGS[("agent", "hidden")][2](agent))
    for name, p in _named_policies(agent):
        for role in ("actor", "critic"):
            lr = _SETTINGS[("agent", f"{role}_lr")][2](agent)
            widths = list(getattr(p, role).layer_sizes[1:-1])
            own_lr = getattr(p, f"{role}_opt").learning_rate
            if widths != hidden or own_lr != lr:
                raise ValueError(f"{name}.{role} has hidden widths {widths} and lr {own_lr}, "
                                 f"but the snapshot writes level 0's, {hidden} and {lr}")

    def settings(section):
        return [f"[{section}]"] + [f"{key} = {_WRITERS[parse](value(agent))}"
                                   for (sec, key), (_, parse, value) in _SETTINGS.items()
                                   if sec == section]

    lines = [MAGIC, *settings("agent"), *envsim.spec_to_text(agent.spec).splitlines(),
             *settings("rnd"), f"phase_index = {agent.novelty.phase_index}"]
    for tag, record, net_field, opt_field in _networks(agent):
        lines += [f"[network {tag}]", "params = " + fmt_vector(getattr(record, net_field).params)]
        if opt_field:
            opt = getattr(record, opt_field)
            lines.append(f"steps = {opt.step_count}")
            if opt.m is not None:
                lines += ["m = " + fmt_vector(opt.m), "v = " + fmt_vector(opt.v)]
    lines.append("END")
    return "\n".join(lines) + "\n"


def _sections(text: str) -> tuple:
    """(sections, geometry entries) of a snapshot. A section maps each key to
    its value, and a key may appear once per section, but a geometry's walls."""
    lines = text.splitlines()
    if not lines or lines[0] != MAGIC:
        raise CheckpointError(f"bad magic; expected {MAGIC!r}")
    if "END" not in lines:
        raise CheckpointError("truncated snapshot: no END marker")
    entries = read_entries(lines[1:lines.index("END")])
    sections = {}
    for section, key, val in entries:
        if not section:
            raise CheckpointError(f"stray key {key!r} before any section")
        values = sections.setdefault(section, {})
        if key in values and (section, key) != ("env", "wall"):
            raise CheckpointError(f"[{section}]: {key} repeated")
        values[key] = val
    return sections, [e for e in entries if e[0] == "env"]


def restore(snapshot: str) -> HacxAgent:
    """Rebuild an agent from policy_snapshot output. make_agent builds it
    from the settings and the geometry, so its structure, bounds and Adam
    constants are the ones training uses; then every network and optimizer,
    and the novelty model, is built again around the learned vectors, which
    kvtext.read_vector decodes, with the same checks. Buffers and visit
    counts come back empty. Malformed or out-of-range content raises
    CheckpointError, and so does a key that no record of an agent of the
    written k reads."""
    def take(section: str, key: str, parse=str):
        """The parsed value of key, which is then no longer left to read."""
        if section not in sections:
            raise CheckpointError(f"missing section [{section}]")
        if key not in sections[section]:
            raise CheckpointError(f"[{section}]: missing {key!r}")
        try:
            return parse(sections[section].pop(key))
        except ValueError as e:
            raise CheckpointError(f"[{section}] {key} {e}") from e

    try:
        sections, geometry = _sections(snapshot)
        sections.pop("env", None)
        spec = envsim.spec_from_entries(geometry)
        kw = {name: take(section, key, parse)
              for (section, key), (name, parse, _) in _SETTINGS.items()}
        # make_agent allocates the networks the settings ask for, so settings
        # whose networks need more values than this text holds (2 characters
        # a value at least; base64 float64 takes 10 2/3) are refused before
        # it runs: each of the 2k + 2 policy networks holds the values of a
        # 1-in, 1-out one at least
        widths = [1, *kw["hidden"], 1]
        least = (2 * kw["k"] + 2) * sum((a + 1) * b for a, b in zip(widths, widths[1:]))
        if 2 * (least + 2 * kw["rnd_code_dim"]) > len(snapshot):
            raise CheckpointError("the settings ask for more parameter values than the "
                                  "snapshot holds")
        agent = make_agent(spec, rng=np.random.default_rng(0), **kw)
        for tag, record, net_field, opt_field in _networks(agent):
            section, net = f"network {tag}", getattr(record, net_field)
            floats = partial(read_vector, n=net.params.size)
            try:
                setattr(record, net_field, replace(net, params=take(section, "params", floats)))
                if opt_field:
                    m = v = None
                    if {"m", "v"} & sections[section].keys():
                        m, v = take(section, "m", floats), take(section, "v", floats)
                    setattr(record, opt_field, replace(getattr(record, opt_field), m=m, v=v,
                                                       step_count=take(section, "steps", int)))
            except ValueError as e:
                raise CheckpointError(f"[{section}] {e}") from e
        agent.novelty = replace(agent.novelty, phase_index=take("rnd", "phase_index", int))
    except ValueError as e:     # ConfigError is a ValueError
        raise CheckpointError(f"malformed snapshot: {e}") from e
    unread = [f"[{section}] {' '.join(values)}" for section, values in sections.items() if values]
    if unread:
        raise CheckpointError(f"not read by a {agent.k}-level agent: {'; '.join(unread)}")
    return agent
