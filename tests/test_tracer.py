"""The benchmark's per-layer tracer (perfbench/tracer.py) must keep finding
every function it wraps, so that renaming a traced function fails here and
not only when the benchmark runs."""

import importlib.util
import os

from hacx import agent, approx, harness

from test_harness import smoke_cfg

TRACER_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                           "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_covers_a_smoke_run(tmp_path):
    tracer = load_tracer()
    originals = (approx.forward, approx.backward_trace, agent.update, harness.update,
                 harness.run_episode, harness.run_test_episodes)
    t = tracer.Tracer()
    t.install()  # raises LookupError if a traced function is gone
    # primitive steps of every episode, as run_episode (training) and
    # run_test_episodes (evaluate) report them
    steps = []
    traced_run_episode = harness.run_episode
    run_test_episodes = harness.run_test_episodes

    def counted_run_episode(*args, **kwargs):
        rec = traced_run_episode(*args, **kwargs)
        steps.append(len(rec.primitive_states) - 1)
        return rec

    def counted_run_test_episodes(*args, **kwargs):
        for rec in run_test_episodes(*args, **kwargs):
            steps.append(len(rec.primitive_states) - 1)
            yield rec

    harness.run_episode = counted_run_episode
    harness.run_test_episodes = counted_run_test_episodes
    try:
        # four episodes: goal and explore ones, so every row builder runs
        harness.run_trial(smoke_cfg(episodes=4), 0, str(tmp_path))
    finally:
        harness.run_episode = traced_run_episode
        harness.run_test_episodes = run_test_episodes
        t.uninstall()
    assert (approx.forward, approx.backward_trace, agent.update, harness.update,
            harness.run_episode, harness.run_test_episodes) == originals

    # raises LookupError unless every approx span resolves to the role of a
    # network the agent owns, and every span to a declared name
    metrics = t.layer_metrics(1.0, 1.0)
    for name in ("agent.update", "approx.backward_trace.critic",
                 "approx.backward_trace.actor", "approx.forward_trace.critic",
                 "approx.optimizer_step.actor", "approx.forward.single",
                 "harness.evaluate", *(f"hac.{fn}" for fn in tracer.TARGETS["hac"])):
        assert metrics[f"{name}.calls"][0] > 0, name
    # the counts the tracer derives at the builders' boundaries survive
    assert metrics["hac.relabel.transitions_per_step"][0] > 0
    assert metrics["envsim.env_step.calls"][0] == sum(steps) > 0
