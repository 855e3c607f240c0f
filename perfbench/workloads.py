"""The benchmark's workloads, their correctness checks and their metrics.

Run by perfbench/run.py in a child process whose BLAS thread count it sets.
It prints two JSON lines: run information, then the result.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S \
        --trace 0|1 --work-dir DIR [--episodes E]

Every workload drives the public path a user takes (`harness.run_trials`,
`read_checkpoint`, `evaluate`, `write_checkpoint`). Configs are the frozen
acceptance configs of tests/acceptance_util.py with only `episodes` cut to
the benchmark's slice and `seeds` set to one seed; `frozen_config_problems`
checks that. See perfbench/README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np
from tracer import Tracer

from hacx import envsim, harness
from hacx.errors import ConfigError

WORKLOADS = ("train_four_rooms_k3", "train_spiral_k3", "eval_checkpoint")

# A run repeats identical *rounds*: one run_trials call on a slice of the
# frozen config (one seed), then `cycles` fixture cycles (a timed codec cycle
# on the fixture checkpoint and an evaluate call on the fixture). Every round
# retrains the same seed, so rounds repeat the same work and must write the
# same metrics.csv bytes.
#   train_four_rooms_k3: 20 episodes; levels 0 and 1 update, the top level
#     only fills its 256-sample batch near episode 33. Short rounds give
#     many rounds, and fixture cycles at many moments, per run.
#   train_spiral_k3: 100 episodes of up to 600 steps, which end on the first
#     novelty phase boundary (rnd.advance_phase, every 100 episodes).
#   eval_checkpoint: the round trains the fixture itself, then mostly cycles.
SLICES = {"train_four_rooms_k3": (20, 8), "train_spiral_k3": (100, 8), "eval_checkpoint": (10, 20)}
# The fixture: the four_rooms_k3 checkpoint after 10 episodes (Adam moments
# present) from this fixed seed. Evaluate calls always run it, because the
# cost of a test episode depends on how often the policy's levels reach
# their subgoals early, which differs from checkpoint to checkpoint by up to
# ~2x; --seed draws the test episodes. The training workloads train it once
# and run fixture cycles before their first round too, so that the short
# samples come from several moments of the run.
FIXTURE_SEED = 0
FIXTURE_EPISODES = 10
EVAL_EPISODES = 10        # test episodes per harness.evaluate call
TRACED_EVAL_CYCLES = 40   # eval_checkpoint cycles in a traced run
SETUP_PROBES = 9          # set-up timings per untraced run, spread over it
SETUP_PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")


def spiral_geometry(work_dir: str) -> str:
    """The reduced spiral of the long-horizon comparison (5x5 cells,
    600-step budget), written to the benchmark's own directory."""
    path = os.path.join(work_dir, "spiral_small.txt")
    with open(path, "w") as f:
        f.write(envsim.spec_to_text(envsim.spiral_spec(cells=5, max_steps=600)))
    return path


def four_rooms_k3(episodes: int, seeds: tuple) -> harness.RunConfig:
    """crit7_hacx with a cut episode count."""
    return harness.RunConfig(
        env="four_rooms", levels=3, horizon=10, tau=0.6,
        episodes=episodes, eval_every=100, test_episodes=50,
        rounds_per_episode=40, batch_size=256, actor_lr=1e-3, seeds=seeds,
    ).validate()


def spiral_k3(geometry: str, episodes: int, seeds: tuple) -> harness.RunConfig:
    """crit6_hacx with a cut episode count."""
    return harness.RunConfig(
        env=geometry, levels=3, horizon=10, tau=0.6,
        episodes=episodes, eval_every=1000, test_episodes=50,
        rounds_per_episode=10, batch_size=256, actor_lr=1e-3,
        rnd_epsilon=0.05, seeds=seeds,
    ).validate()


def workload_config(workload: str, geometry: str, episodes: int, seeds: tuple):
    if workload == "train_spiral_k3":
        return spiral_k3(geometry, episodes, seeds)
    return four_rooms_k3(episodes, seeds)


def frozen_config_problems(geometry: str) -> list:
    """Differences between the benchmark's configs and the frozen acceptance
    configs, other than env, episodes and seeds; plus a geometry check."""
    path = os.path.join("tests", "acceptance_util.py")
    if not os.path.exists(path):
        return [f"{path} is missing"]
    spec = importlib.util.spec_from_file_location("perfbench_acceptance_util", path)
    frozen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(frozen)
    # the original writes tests/.acceptance_cache/spiral_small.txt
    frozen.spiral_small_env_path = lambda: geometry
    pairs = {
        "crit7_hacx": (frozen.crit7_configs()["crit7_hacx"], four_rooms_k3(1, (0,))),
        "crit6_hacx": (frozen.crit6_configs()["crit6_hacx"], spiral_k3(geometry, 1, (0,))),
    }
    ignored = ("env", "training.episodes", "run.seeds")
    problems = []
    for tag, (want, got) in pairs.items():
        want_lines = [ln for ln in harness.config_to_text(want).splitlines()
                      if ln.split(" = ")[0] not in ignored]
        got_lines = [ln for ln in harness.config_to_text(got).splitlines()
                     if ln.split(" = ")[0] not in ignored]
        problems += [f"{tag}: {a!r} != {b!r}"
                     for a, b in zip(want_lines, got_lines) if a != b]
        if len(want_lines) != len(got_lines):
            problems.append(f"{tag}: config key lists differ")
    cached = os.path.join("tests", ".acceptance_cache", "spiral_small.txt")
    if os.path.exists(cached):
        with open(cached) as f, open(geometry) as g:
            if f.read() != g.read():
                problems.append("spiral geometry differs from the acceptance cache")
    return problems


def _cpu_s() -> float:
    """CPU seconds of this process and its waited-for children, all threads."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def _metrics_ok(cfg: harness.RunConfig, data: bytes) -> bool:
    """metrics.csv has the fixed header, one row per eval point, all finite."""
    lines = data.decode("ascii", "replace").splitlines()
    points = sum(1 for ep in range(1, cfg.episodes + 1)
                 if ep % cfg.eval_every == 0 or ep == cfg.episodes)
    if not lines or lines[0] != harness.METRICS_HEADER or len(lines) != points + 1:
        return False
    for row in lines[1:]:
        cells = row.split(",")
        try:
            if len(cells) != 6 or not all(math.isfinite(float(c)) for c in cells):
                return False
        except ValueError:
            return False
    return True


def _quartile(samples: list, i: int) -> float:
    """The first (i=0) or third (i=2) quartile of the samples."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=4, method="inclusive")[i]


class Run:
    """Counters and samples of one benchmark run."""

    def __init__(self, work_dir: str, seed: int):
        self.work_dir = work_dir
        self.seed = seed
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.sha256 = {}
        self.episodes_per_s = []      # per run_trials call
        self.cpu_s_per_episode = []
        self.read_s = []
        self.write_s = []
        self.eval_s = []          # per evaluate call of EVAL_EPISODES test episodes
        self.setup_s = []         # per fresh interpreter
        self.probe = None         # (workload, geometry, interval_s) once probes are due
        self.next_probe = 0.0

    def probe_setup(self) -> None:
        """Times one set-up of the workload in a fresh interpreter."""
        workload, geometry, interval = self.probe
        out = subprocess.run([sys.executable, SETUP_PROBE, workload, geometry],
                             stdout=subprocess.PIPE, text=True, timeout=60, check=True)
        self.setup_s.append(float(out.stdout))
        self.next_probe = time.perf_counter() + interval

    def maybe_probe_setup(self) -> None:
        """probe_setup when the next one is due, so that set-up samples come
        from the whole run and not from one phase of the host."""
        if self.probe and time.perf_counter() >= self.next_probe:
            self.probe_setup()

    def train(self, cfg: harness.RunConfig, out_root: str) -> list:
        """One run_trials call; failures are read from its outputs. Returns
        the checkpoint paths of the seeds that trained correctly."""
        t0, c0 = time.perf_counter(), _cpu_s()
        try:
            harness.run_trials(cfg, out_root)
        except ConfigError as e:       # raised when every trial failed
            self.problems.append(f"run_trials: {e}")
        wall_s, cpu_s = time.perf_counter() - t0, _cpu_s() - c0
        done = []
        for seed in cfg.seeds:
            self.attempted += cfg.episodes
            seed_dir = os.path.join(out_root, f"seed{seed}")
            try:
                with open(os.path.join(seed_dir, "metrics.csv"), "rb") as f:
                    data = f.read()
            except FileNotFoundError:
                data = b""
            if not _metrics_ok(cfg, data):
                self.failed += cfg.episodes
                self.problems.append(f"seed {seed}: missing or malformed metrics.csv")
                continue
            digest = hashlib.sha256(data).hexdigest()
            if self.sha256.setdefault(str(seed), digest) != digest:
                self.problems.append(f"seed {seed}: metrics.csv differs between two runs")
            done.append(os.path.join(seed_dir, "checkpoint.txt"))
        if done:
            self.episodes_per_s.append(cfg.episodes * len(done) / wall_s)
            self.cpu_s_per_episode.append(cpu_s / (cfg.episodes * len(done)))
        return done

    def codec_cycle(self, path: str, timed: bool = True) -> None:
        """read_checkpoint and write_checkpoint of one file, and a byte
        comparison of the rewritten file with the one read."""
        with open(path, "rb") as f:
            original = f.read()
        copy = path + ".rewritten"
        self.attempted += 2
        t0 = time.perf_counter()
        agent = harness.read_checkpoint(path)
        t1 = time.perf_counter()
        harness.write_checkpoint(agent, copy)
        t2 = time.perf_counter()
        if timed:
            self.read_s.append(t1 - t0)
            self.write_s.append(t2 - t1)
        with open(copy, "rb") as f:
            if f.read() != original:
                self.failed += 2
                self.problems.append(f"{path}: write(read(p)) is not byte-equal to p")

    def fixture_cycles(self, path: str, n: int) -> None:
        """n times: a timed codec cycle on the fixture checkpoint, then
        EVAL_EPISODES test episodes on it; every call of a run draws the same."""
        agent = harness.read_checkpoint(path)
        spec = harness.load_spec(agent.env_name)
        for _ in range(n):
            self.codec_cycle(path)
            self.attempted += EVAL_EPISODES
            t0 = time.perf_counter()
            mcd, _ = harness.evaluate(agent, spec, EVAL_EPISODES,
                                      np.random.default_rng([self.seed, 1]))
            self.eval_s.append(time.perf_counter() - t0)
            if not math.isfinite(mcd):
                self.failed += EVAL_EPISODES
                self.problems.append(f"evaluate returned distance {mcd!r}")
            self.maybe_probe_setup()

    def round(self, cfg: harness.RunConfig, cycles: int, fixture: str = None,
              tag: str = "") -> str:
        """One round; returns the path of the checkpoint it trained. Without
        a `fixture` path, that checkpoint is the fixture; otherwise it gets
        one untimed codec cycle as a correctness check."""
        done = self.train(cfg, os.path.join(self.work_dir, f"round{self.rounds}{tag}"))
        if not done:
            raise RuntimeError("nothing trained: " + "; ".join(self.problems))
        if fixture:
            self.codec_cycle(done[0], timed=False)
        if cycles:
            self.fixture_cycles(fixture or done[0], cycles)
        return done[0]

    def end_to_end(self) -> dict:
        # On a shared host other tenants switch this process between two
        # speeds ~1.6x apart, in phases of a few seconds to a minute, and
        # mostly run it at the slower one. So the fastest sample depends on
        # whether a run caught a fast phase, and a median on whether fast
        # phases filled half of it. Each metric takes the slow-side quartile
        # of its samples instead, which moves only when a run is mostly fast.
        if not (self.episodes_per_s and self.eval_s):
            raise RuntimeError("nothing completed to measure: " + "; ".join(self.problems))
        return {
            "train_episodes_per_s": (_quartile(self.episodes_per_s, 0), "1/s"),
            "train_cpu_s_per_episode": (_quartile(self.cpu_s_per_episode, 2), "s"),
            "eval_episodes_per_s": (EVAL_EPISODES / _quartile(self.eval_s, 2), "1/s"),
            "checkpoint_read_s": (_quartile(self.read_s, 2), "s"),
            "checkpoint_write_s": (_quartile(self.write_s, 2), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": (statistics.median(self.setup_s), "s"),
        }


def measure(workload: str, run: Run, geometry: str, seconds: float, trace: bool,
            episodes: int = None) -> dict:
    """Run rounds of the workload for about `seconds` seconds and return the
    end-to-end metrics, or a traced run's per-layer metrics."""
    t_start = time.perf_counter()
    slice_episodes, cycles = SLICES[workload]
    fixture_cfg = four_rooms_k3(episodes or FIXTURE_EPISODES, (FIXTURE_SEED,))
    if workload == "eval_checkpoint":
        cfg, fixture = fixture_cfg, None
    else:
        cfg = workload_config(workload, geometry, episodes or slice_episodes, (run.seed,))
        setup = Run(os.path.join(run.work_dir, "fixture"), run.seed)
        fixture = setup.round(fixture_cfg, 0)
        run.attempted += setup.attempted
        run.failed += setup.failed
        run.problems += setup.problems
    if not trace:
        run.probe = (workload, geometry, seconds / SETUP_PROBES)
        run.probe_setup()
        if fixture:
            run.fixture_cycles(fixture, cycles)
        while True:
            t0 = time.perf_counter()
            trained = run.round(cfg, cycles, fixture)
            run.rounds += 1
            run.maybe_probe_setup()
            now = time.perf_counter()
            if now - t_start + (now - t0) > seconds:
                break
        # Another round would not end in time; cycles fill the rest (most
        # of it on spiral, whose round takes about half a run).
        while time.perf_counter() - t_start < seconds:
            run.fixture_cycles(fixture or trained, 2)
        while len(run.setup_s) < 3:
            run.probe_setup()
        return run.end_to_end()

    # Traced run: a fixed amount of work, run untraced and then traced on
    # the same inputs, so the overhead ratio compares equal work. For
    # eval_checkpoint the fixture trains untraced and only cycles are traced.
    if workload == "eval_checkpoint":
        fixture = run.round(cfg, 0)

        def work(tag):
            run.fixture_cycles(fixture, TRACED_EVAL_CYCLES)
    else:
        def work(tag):
            run.round(cfg, cycles, fixture, tag)
    tracer = Tracer()
    t0 = time.perf_counter()
    work("")
    t1 = time.perf_counter()
    tracer.install()
    try:
        work("-traced")
    finally:
        tracer.uninstall()
    t2 = time.perf_counter()
    tracer.save(os.path.join(run.work_dir, "spans.npz"))
    return tracer.layer_metrics(t1 - t0, t2 - t1)


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {k: os.environ.get(k, "unset") for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": git_sha(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work-dir", required=True)
    p.add_argument("--episodes", type=int, help="override the slice length (self-test)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")

    geometry = spiral_geometry(args.work_dir)
    run = Run(args.work_dir, args.seed)
    run.problems += frozen_config_problems(geometry)
    metrics = measure(args.workload, run, geometry, args.seconds, bool(args.trace),
                      args.episodes)
    print(json.dumps({"environment": environment(), "rounds": run.rounds,
                      "metrics_sha256": run.sha256, "setup_s_samples": run.setup_s,
                      "problems": run.problems}))
    print(json.dumps({
        "correct": not run.problems and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
