"""Per-layer tracing of hacx from outside the package.

`Tracer.install()` replaces each traced public function of envsim, approx,
hac, rnd, agent and harness with a timing wrapper, at every name a hacx
module looks it up by: `hacx.approx.forward`, but also `hacx.agent.buffer_push`
(imported by name from hac) and `hacx.harness.update` (imported from agent).
`uninstall()` puts the originals back. The package itself is never edited.

Every wrapped call records one span: a name, its start and end, and the span
that was open when it began (its parent). Spans are kept in typed arrays in
memory and written out by `save()`. A span's self time is its duration minus
the durations of its direct children.

A target that no longer exists raises LookupError at install time, so a
renamed function can never be reported as zero calls.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

TARGETS = {
    "envsim": ("env_reset", "env_step", "record_visit"),
    "approx": ("forward", "forward_trace", "backward_trace", "optimizer_step"),
    "hac": ("sample_arrays", "buffer_push", "hindsight_goal_transitions",
            "hindsight_action_transition", "subgoal_test_transition",
            "exploration_transition"),
    "rnd": ("observe", "exploration_reward", "advance_phase", "new_fraction"),
    "agent": ("select_action", "run_episode", "update", "policy_snapshot", "restore"),
    "harness": ("build_agent", "evaluate", "run_trial", "write_metrics",
                "write_checkpoint", "read_checkpoint", "write_maps"),
}

# approx functions whose spans are split by the role of the network they
# act on; approx.forward is split by input rank instead.
ROLE_SPLIT = ("forward_trace", "backward_trace", "optimizer_step")
ROLES = ("actor", "critic", "rnd")


def span_names() -> list:
    """Every span name the trace reports, in a fixed order."""
    out = []
    for mod, fns in TARGETS.items():
        for fn in fns:
            if mod == "approx" and fn == "forward":
                out += ["approx.forward.single", "approx.forward.batch"]
            elif mod == "approx" and fn in ROLE_SPLIT:
                out += [f"approx.{fn}.{role}" for role in ROLES]
            else:
                out.append(f"{mod}.{fn}")
    return out


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


class Tracer:
    def __init__(self):
        self._keys = []          # span key per name id: a str, or (fn, id(net))
        self._key_ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self._stack = [-1]
        self._patches = []       # (module, attribute, original)
        self._nets = {}          # id -> network; holding them keeps ids unique
        self._roles = {}         # id(network) -> role
        # counts taken at the wrapped boundaries
        self.train_steps = 0
        self.hindsight_transitions = 0
        self.rewarded_states = 0
        self.new_states = 0
        self.rounds_requested = 0
        self.rounds_run = 0
        self.episode_s = []      # run_episode + update per training episode, after warm-up
        self._pending_episode = None

    # -- wrapping -----------------------------------------------------------

    def _key_id(self, key) -> int:
        i = self._key_ids.get(key)
        if i is None:
            i = self._key_ids[key] = len(self._keys)
            self._keys.append(key)
        return i

    def _net_key(self, fn: str, net) -> int:
        self._nets.setdefault(id(net), net)
        return self._key_id((fn, id(net)))

    def _wrap(self, fn, key_of, after=None):
        start, end, name, parent, stack = self.start, self.end, self.name, self.parent, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name.append(key_of(args))
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result, end[idx] - start[idx])
            return result

        return wrapper

    def _wrapper_for(self, mod: str, fn_name: str, fn):
        if mod == "approx" and fn_name == "forward":
            single = self._key_id("approx.forward.single")
            batch = self._key_id("approx.forward.batch")
            return self._wrap(fn, lambda a: single if np.ndim(a[1]) == 1 else batch)
        if mod == "approx" and fn_name in ROLE_SPLIT:
            return self._wrap(fn, lambda a: self._net_key(fn_name, a[0]))
        key = self._key_id(f"{mod}.{fn_name}")
        after = {
            "build_agent": self._after_agent,
            "read_checkpoint": self._after_agent,
            "restore": self._after_agent,
            "run_episode": self._after_run_episode,
            "update": self._after_update,
            "hindsight_goal_transitions": self._after_goal_relabel,
            "hindsight_action_transition": self._after_action_relabel,
            "exploration_reward": self._after_exploration_reward,
        }.get(fn_name)
        return self._wrap(fn, lambda a: key, after)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        homes = {mod: importlib.import_module(f"hacx.{mod}") for mod in TARGETS}
        package = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "hacx" or n.startswith("hacx."))]
        for mod, fns in TARGETS.items():
            for fn_name in fns:
                fn = getattr(homes[mod], fn_name, None)
                if not callable(fn):
                    self.uninstall()
                    raise LookupError(f"hacx.{mod}.{fn_name} no longer exists; "
                                      "update perfbench/tracer.py TARGETS")
                wrapper = self._wrapper_for(mod, fn_name, fn)
                for m in package:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._patches.append((m, attr, fn))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patches):
            setattr(m, attr, original)
        self._patches.clear()

    def bindings(self) -> list:
        """Qualified names currently wrapped, e.g. 'hacx.agent.buffer_push'."""
        return sorted(f"{m.__name__}.{attr}" for m, attr, _ in self._patches)

    # -- counts taken at the boundaries --------------------------------------

    def _after_agent(self, args, kwargs, agent, dt):
        for p in [*agent.levels, agent.explore_top]:
            for net, role in ((p.actor, "actor"), (p.critic, "critic")):
                self._nets.setdefault(id(net), net)
                self._roles[id(net)] = role
        for net in (agent.novelty.target, agent.novelty.predictor):
            self._nets.setdefault(id(net), net)
            self._roles[id(net)] = "rnd"

    def _after_run_episode(self, args, kwargs, record, dt):
        mode = args[2] if len(args) > 2 else kwargs["mode"]
        if mode == "train":
            self.train_steps += len(record.primitive_states) - 1
            self._pending_episode = dt

    def _after_update(self, args, kwargs, diag, dt):
        rounds = args[1] if len(args) > 1 else kwargs.get("rounds", 40)
        self.rounds_requested += rounds * len(diag)
        self.rounds_run += sum(d["rounds"] for d in diag.values())
        # warm-up ends once every goal-conditioned level has enough samples
        warm = all(d["rounds"] for name, d in diag.items() if name.startswith("level"))
        if self._pending_episode is not None and warm:
            self.episode_s.append(self._pending_episode + dt)
        self._pending_episode = None

    def _after_goal_relabel(self, args, kwargs, transitions, dt):
        self.hindsight_transitions += len(transitions)

    def _after_action_relabel(self, args, kwargs, transition, dt):
        self.hindsight_transitions += 1

    def _after_exploration_reward(self, args, kwargs, result, dt):
        self.rewarded_states += 1
        self.new_states += int(result[1])

    # -- reporting ----------------------------------------------------------

    def _resolved_names(self) -> list:
        out = []
        for key in self._keys:
            if isinstance(key, str):
                out.append(key)
                continue
            fn, net_id = key
            role = self._roles.get(net_id)
            if role is None:
                raise LookupError(f"approx.{fn} ran on a network that no traced "
                                  "build_agent/read_checkpoint/restore returned")
            out.append(f"approx.{fn}.{role}")
        return out

    def self_times(self):
        """(name per span, self seconds per span) as arrays."""
        start = np.array(self.start, dtype=np.float64)
        dur = np.array(self.end, dtype=np.float64) - start
        parent = np.array(self.parent, dtype=np.int32)
        children = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(children, parent[has_parent], dur[has_parent])
        return np.array(self.name, dtype=np.int32), dur - children

    def layer_metrics(self, untraced_s: float, traced_s: float) -> dict:
        names = self._resolved_names()
        ids, self_s = self.self_times()
        calls = np.bincount(ids, minlength=len(names))
        secs = np.bincount(ids, weights=self_s, minlength=len(names))
        per_name = {}
        for i, n in enumerate(names):
            c, s = per_name.get(n, (0, 0.0))
            per_name[n] = (c + int(calls[i]), s + float(secs[i]))
        unknown = set(per_name) - set(span_names())
        if unknown:
            raise LookupError(f"spans outside the declared names: {sorted(unknown)}")
        out = {}
        for n in span_names():
            c, s = per_name.get(n, (0, 0.0))
            out[f"{n}.calls"] = (c, "count")
            out[f"{n}.self_s"] = (s, "s")
        out["hac.relabel.transitions_per_step"] = (
            self.hindsight_transitions / self.train_steps if self.train_steps else 0.0, "ratio")
        out["rnd.exploration_reward.new_ratio"] = (
            self.new_states / self.rewarded_states if self.rewarded_states else 0.0, "ratio")
        out["agent.update.rounds_ratio"] = (
            self.rounds_run / self.rounds_requested if self.rounds_requested else 0.0, "ratio")
        out["episode.train_s.p50"] = (_percentile(self.episode_s, 50), "s")
        out["episode.train_s.p95"] = (_percentile(self.episode_s, 95), "s")
        out["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
        return out

    def save(self, path: str) -> None:
        """Write every span (name, start, end, parent index) to an .npz file."""
        np.savez(path, names=np.array(self._resolved_names()),
                 name=np.array(self.name, dtype=np.int32),
                 start=np.array(self.start, dtype=np.float64),
                 end=np.array(self.end, dtype=np.float64),
                 parent=np.array(self.parent, dtype=np.int32))
