"""Experiment orchestration: configuration, CLI, train/eval loops, metrics,
maps, and checkpoint files.

Config files use the `key = value` grammar of hacx.kvtext, shared with
geometry files and checkpoints. Keys live in dotted sections
(`agent.levels = 3`); a `[section]` header line sets the prefix for the lines
after it, so both spellings work. Each RunConfig field below declares its
key, and its parser follows from its default's type.

Metrics are CSV with the fixed header
episode,mean_closest_distance,success_rate,explore_fraction,novelty_new_fraction,seconds.
The seconds column is 0.0 unless run.record_wall_time is on: wall time is
the one field that would break run-to-run byte identity, which matters more.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import envsim, kvtext, rnd
from .agent import (HacxAgent, make_agent, policy_snapshot, restore, run_episode,
                    run_test_episodes, update)
from .envsim import EnvSpec, load_spec
from .errors import CheckpointError, ConfigError, TrainingError

log = logging.getLogger(__name__)

METRICS_HEADER = ("episode,mean_closest_distance,success_rate,"
                  "explore_fraction,novelty_new_fraction,seconds")


def _parse_bool(v: str) -> bool:
    if v.lower() in ("1", "true", "yes", "on"):
        return True
    if v.lower() in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {v!r}")


def _parse_int_tuple(v: str) -> tuple:
    try:
        return tuple(int(p) for p in v.replace(",", " ").split())
    except ValueError:
        raise ConfigError(f"expected integers, got {v!r}")


# the parser of a setting's config value, by the type of its default
_PARSERS = {int: int, float: float, str: str, bool: _parse_bool, tuple: _parse_int_tuple}


def _setting(key: str, default, parse=None):
    """A RunConfig field that config files name key, parsed by parse or, if
    none is given, by the parser of its default's type."""
    return field(default=default,
                 metadata={"key": key, "parse": parse or _PARSERS[type(default)]})


@dataclass
class RunConfig:
    env: str = _setting("env", "four_rooms")
    levels: int = _setting("agent.levels", 3)
    horizon: int = _setting("agent.horizon", 10)
    epsilon_level: float = _setting("agent.epsilon", 0.5)
    subgoal_test_rate: float = _setting("agent.subgoal_test_rate", 0.3)
    tau: float = _setting("agent.tau", 0.6)
    hidden: tuple = _setting("agent.hidden", (64, 64))
    actor_lr: float = _setting("agent.actor_lr", 1e-4)
    critic_lr: float = _setting("agent.critic_lr", 1e-3)
    relabels: int = _setting("agent.relabels", 2)
    relabel_enabled: bool = _setting("agent.relabel_enabled", True)
    rnd_code_dim: int = _setting("rnd.code_dim", 16)
    rnd_epsilon: float = _setting("rnd.epsilon", 0.0,   # 0 or auto = auto-calibrate
                                  lambda v: 0.0 if v == "auto" else float(v))
    rnd_phase_episodes: int = _setting("rnd.phase_episodes", 100)
    rnd_phase_gradient_steps: int = _setting("rnd.phase_gradient_steps", 2000)
    rnd_batch_size: int = _setting("rnd.batch_size", 128)
    rnd_lr: float = _setting("rnd.lr", 1e-3)
    episodes: int = _setting("training.episodes", 2000)
    batch_size: int = _setting("training.batch_size", 128)
    rounds_per_episode: int = _setting("training.rounds_per_episode", 40)
    test_episodes: int = _setting("eval.test_episodes", 50)
    eval_every: int = _setting("eval.eval_every", 100)
    seeds: tuple = _setting("run.seeds", (0, 1, 2, 3, 4))
    output_dir: str = _setting("run.output_dir", "runs")
    record_wall_time: bool = _setting("run.record_wall_time", False)

    def validate(self) -> "RunConfig":
        """Check the run's own settings; the agent's records check the agent's."""
        for name in ("episodes", "batch_size", "test_episodes", "eval_every",
                     "rnd_phase_episodes", "rnd_batch_size"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        # relabels is checked here: with relabel_enabled off the agent never sees it
        if min(self.rounds_per_episode, self.rnd_phase_gradient_steps, self.relabels) < 0:
            raise ConfigError("rounds_per_episode, rnd_phase_gradient_steps and relabels "
                              "must be >= 0")
        if not self.seeds or min(self.seeds) < 0 or len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"need one or more distinct seeds, none negative; got {self.seeds}")
        if not self.output_dir:
            raise ConfigError("output_dir must not be empty")
        return self


# config key -> RunConfig field
_FIELDS = {f.metadata["key"]: f for f in fields(RunConfig)}


def parse_config_text(text: str) -> RunConfig:
    """The RunConfig of config text; an unknown or repeated key raises ConfigError."""
    cfg, seen = RunConfig(), set()
    for section, key, val in kvtext.read_entries(text):
        full = f"{section}.{key}" if section else key
        if full not in _FIELDS:
            raise ConfigError(f"unknown config key {full!r}")
        if full in seen:
            raise ConfigError(f"config key {full!r} given twice")
        seen.add(full)
        f = _FIELDS[full]
        cfg = replace(cfg, **{f.name: kvtext.parse_value(full, f.metadata["parse"], val)})
    return cfg


def load_config(path: str) -> RunConfig:
    """The config file at path; a path that is not a file, or a file that is
    not UTF-8 text, raises ConfigError."""
    return parse_config_text(kvtext.read_file(path, "config file"))


def config_to_text(cfg: RunConfig) -> str:
    """Canonical echo of a config, readable back by parse_config_text."""
    lines = []
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if isinstance(v, tuple):
            v = " ".join(str(x) for x in v)
        elif isinstance(v, bool):
            v = int(v)
        elif isinstance(v, float):
            v = kvtext.fmt_float(v)
        lines.append(f"{f.metadata['key']} = {v}")
    return "\n".join(lines) + "\n"


def build_agent(cfg: RunConfig, spec: EnvSpec, rng: np.random.Generator) -> HacxAgent:
    return make_agent(
        spec, cfg.levels, rng, horizon=cfg.horizon, epsilon_level=cfg.epsilon_level,
        subgoal_test_rate=cfg.subgoal_test_rate, tau=cfg.tau, hidden=cfg.hidden,
        actor_lr=cfg.actor_lr, critic_lr=cfg.critic_lr, rnd_code_dim=cfg.rnd_code_dim,
        rnd_lr=cfg.rnd_lr,
        rnd_epsilon=None if cfg.rnd_epsilon == 0.0 else cfg.rnd_epsilon,
        num_relabels=cfg.relabels if cfg.relabel_enabled else 0)


def evaluate(agent: HacxAgent, spec: EnvSpec, n_test: int,
             rng: np.random.Generator):
    """Mean closest distance and success rate over n_test test episodes,
    run in lockstep batches (agent.run_test_episodes)."""
    if n_test < 1:
        raise ConfigError("n_test must be >= 1")
    dists, succ = [], 0
    for rec in run_test_episodes(agent, spec, n_test, rng):
        dists.append(rec.closest_distance)
        succ += int(rec.success)
    return float(np.mean(dists)), succ / n_test


def check_output_dirs(*paths: str) -> None:
    """Raise ConfigError unless each path, or its nearest existing ancestor, is a directory."""
    for path in paths:
        p = os.path.abspath(path)
        while not os.path.lexists(p):
            p = os.path.dirname(p)
        if not os.path.isdir(p):
            raise ConfigError(f"output directory {path}: {p} is not a directory")


def write_metrics(rows, path: str) -> None:
    """One line per row, in METRICS_HEADER's column order: the episode as an
    int, every other column as the repr of a float."""
    episode, *floats = METRICS_HEADER.split(",")
    lines = [METRICS_HEADER]
    for r in rows:
        lines.append(",".join([str(int(r[episode])), *(repr(float(r[n])) for n in floats)]))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def read_metrics(path: str) -> list:
    with open(path) as f:
        lines = [ln for ln in f.read().splitlines() if ln]
    if not lines or lines[0] != METRICS_HEADER:
        raise ConfigError(f"unrecognized metrics file {path}")
    names = lines[0].split(",")
    return [{n: (int(v) if n == "episode" else float(v))
             for n, v in zip(names, ln.split(","))} for ln in lines[1:]]


def write_checkpoint(agent: HacxAgent, path: str) -> None:
    """Write the snapshot to a temporary file beside path and move it into
    place, so that a write that fails or is killed leaves the previous
    checkpoint, or none, and never a partial one."""
    text = policy_snapshot(agent)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read_checkpoint(path: str) -> HacxAgent:
    """The agent the snapshot at path holds. A path that is not a file is an
    input error (ConfigError); a file that is not UTF-8 text is a corrupt
    checkpoint (CheckpointError), as is any content restore refuses."""
    if not os.path.isfile(path):
        raise ConfigError(f"checkpoint not found or not a file: {path}")
    with open(path, encoding="utf-8") as f:
        try:
            text = f.read()
        except UnicodeDecodeError as e:
            raise CheckpointError(f"not UTF-8 text: {e}") from e
    return restore(text)


def write_maps(agent: HacxAgent, spec: EnvSpec, out_dir: str) -> None:
    """The visit counts of training (visits.pgm) and the novelty map."""
    with open(os.path.join(out_dir, "visits.pgm"), "wb") as f:
        f.write(envsim.grid_to_image(agent.visits))
    write_novelty_map(agent, spec, out_dir)


def write_novelty_map(agent: HacxAgent, spec: EnvSpec, out_dir: str) -> None:
    """The cells of spec's bounds the novelty model finds new, as novelty.pgm
    and novelty.txt."""
    flags = rnd.novelty_map(agent.novelty, spec.bounds)
    with open(os.path.join(out_dir, "novelty.pgm"), "wb") as f:
        f.write(envsim.bool_grid_to_image(flags))
    with open(os.path.join(out_dir, "novelty.txt"), "w") as f:
        f.write(envsim.bool_grid_to_text(flags))


def run_trial(cfg: RunConfig, seed: int, out_dir: str) -> list:
    """Train one agent for one seed; writes metrics, maps, and a checkpoint
    under out_dir and returns the metrics rows."""
    os.makedirs(out_dir, exist_ok=True)
    spec = load_spec(cfg.env)
    rng = np.random.default_rng(seed)
    agent = build_agent(cfg, spec, rng)
    rows = []
    explore_count = 0
    t0 = time.perf_counter()
    for ep_i in range(1, cfg.episodes + 1):
        rec = run_episode(agent, spec, "train", rng)
        if rec.top_policy_used == "explore":
            explore_count += 1
        diag = update(agent, cfg.rounds_per_episode, cfg.batch_size, rng)
        if ep_i % cfg.rnd_phase_episodes == 0:
            rnd.advance_phase(agent.novelty, cfg.rnd_phase_gradient_steps,
                              cfg.rnd_batch_size, rng)
        if ep_i % cfg.eval_every == 0 or ep_i == cfg.episodes:
            eval_rng = np.random.default_rng([seed, 9973, ep_i])
            mcd, sr = evaluate(agent, spec, cfg.test_episodes, eval_rng)
            nf = rnd.new_fraction(agent.novelty, spec.bounds)
            rows.append({
                "episode": ep_i,
                "mean_closest_distance": mcd,
                "success_rate": sr,
                "explore_fraction": explore_count / ep_i,
                "novelty_new_fraction": nf,
                "seconds": time.perf_counter() - t0 if cfg.record_wall_time else 0.0,
            })
            for name, d in diag.items():
                if d["rounds"]:
                    log.info("episode=%d level=%s critic_loss=%.5f mean_q=%.3f "
                             "explore_fraction=%.3f", ep_i, name,
                             d["critic_loss"], d["mean_q"], explore_count / ep_i)
            log.info("episode=%d seed=%d mean_closest=%.3f success=%.2f new_frac=%.3f",
                     ep_i, seed, mcd, sr, nf)
    write_metrics(rows, os.path.join(out_dir, "metrics.csv"))
    write_checkpoint(agent, os.path.join(out_dir, "checkpoint.txt"))
    write_maps(agent, spec, out_dir)
    return rows


def run_trials(cfg: RunConfig, out_root: str = None) -> str:
    """One trial per seed, then an aggregate file with the mean and standard
    deviation of mean_closest_distance per evaluation point. A trial that
    raises TrainingError (training diverged) is reported and excluded; any
    other exception propagates. Returns the aggregate file path."""
    out_root = out_root or cfg.output_dir
    # the output paths', the environment's and the agent's records' checks,
    # before anything is built or written
    check_output_dirs(out_root, *(os.path.join(out_root, f"seed{s}") for s in cfg.seeds))
    build_agent(cfg, load_spec(cfg.env), np.random.default_rng(0))
    os.makedirs(out_root, exist_ok=True)
    with open(os.path.join(out_root, "config.txt"), "w") as f:
        f.write(config_to_text(cfg))
    per_seed, failed = {}, []
    for seed in cfg.seeds:
        try:
            per_seed[seed] = run_trial(cfg, seed, os.path.join(out_root, f"seed{seed}"))
        except TrainingError:
            log.exception("trial for seed %d failed; excluding it", seed)
            failed.append(seed)
    if not per_seed:
        raise TrainingError("every trial failed; see the log above")
    agg_path = os.path.join(out_root, "aggregate.csv")
    lines = []
    if failed:
        lines.append("# excluded_seeds = " + " ".join(str(s) for s in failed))
    lines.append("# seeds = " + " ".join(str(s) for s in per_seed))
    lines.append("episode,mean_closest_distance_mean,mean_closest_distance_std,n_trials")
    n_points = min(len(r) for r in per_seed.values())
    for j in range(n_points):
        vals = np.array([rows[j]["mean_closest_distance"] for rows in per_seed.values()])
        ep = next(iter(per_seed.values()))[j]["episode"]
        lines.append(f"{ep},{float(np.mean(vals))!r},{float(np.std(vals))!r},{len(vals)}")
    with open(agg_path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return agg_path


# ---------------------------------------------------------------------------
# CLI

def _add_train_flags(p: argparse.ArgumentParser) -> None:
    """Each flag but --config and --seed stores into the RunConfig field of its dest."""
    p.add_argument("--config", help="config file path")
    p.add_argument("--env", help="builtin name or geometry file")
    p.add_argument("--levels", type=int)
    p.add_argument("--episodes", type=int)
    p.add_argument("--tau", type=float)
    p.add_argument("--seed", type=int, help="a single seed; not with --seeds")
    p.add_argument("--seeds", help="comma-separated seed list")
    p.add_argument("--rounds", type=int, dest="rounds_per_episode", metavar="ROUNDS",
                   help="gradient rounds per episode")
    p.add_argument("--eval-every", type=int)
    p.add_argument("--test-episodes", type=int)
    p.add_argument("--output-dir")


# the paper's baseline arms: the settings each preset fixes
BASELINES = {"hac": dict(tau=0.0), "rnd": dict(levels=1), "hacx": {}}


def _cfg_from_args(args, preset: dict) -> RunConfig:
    """The config file's settings, or the defaults, under each flag given,
    HACX_OUTPUT_DIR and the preset. --seeds is parsed here, not by argparse,
    so that a bad list is a config error (exit 2)."""
    cfg = load_config(args.config) if args.config else RunConfig()
    given = {f.name: getattr(args, f.name) for f in fields(cfg)
             if getattr(args, f.name, None) is not None}
    if "seeds" in given:
        given["seeds"] = _parse_int_tuple(given["seeds"])
    if args.seed is not None:
        if "seeds" in given:
            raise ConfigError("give --seed or --seeds, not both")
        given["seeds"] = (args.seed,)
    for name, value in preset.items():
        if given.get(name, value) != value:
            raise ConfigError(f"baseline {args.preset} sets {name} = {value}, "
                              f"but a flag gives {name} = {given[name]}")
    env_dir = os.environ.get("HACX_OUTPUT_DIR")
    if env_dir:
        given["output_dir"] = env_dir
    return replace(cfg, **{**given, **preset}).validate()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hacx",
        description="Hierarchical goal-conditioned RL with novelty-driven exploration",
        epilog="exit codes: 0 success, 2 configuration or input error, "
               "3 corrupt checkpoint, 4 training diverged")
    parser.add_argument("--quiet", action="store_true", help="warnings only")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train on a task")
    _add_train_flags(p_train)

    p_base = sub.add_parser("baseline", help="train a named baseline preset")
    p_base.add_argument("preset", choices=sorted(BASELINES))
    _add_train_flags(p_base)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--env", help="override the environment the checkpoint holds")
    p_eval.add_argument("--test-episodes", type=int, default=RunConfig.test_episodes)
    p_eval.add_argument("--seed", type=int, default=0)

    p_map = sub.add_parser("map", help="emit the novelty map of a checkpoint")
    p_map.add_argument("--checkpoint", required=True)
    p_map.add_argument("--env", help="override the environment the checkpoint holds")
    p_map.add_argument("--output-dir", default=".")

    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.WARNING if args.quiet else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.command in ("train", "baseline"):
            cfg = _cfg_from_args(args, BASELINES[args.preset] if args.command == "baseline"
                                 else {})
            agg = run_trials(cfg)
            print(f"aggregate written to {agg}")
        else:   # eval or map, on the geometry the checkpoint holds unless --env names one
            if args.command == "map":
                if not args.output_dir:
                    raise ConfigError("--output-dir must not be empty")
                check_output_dirs(args.output_dir)
            agent = read_checkpoint(args.checkpoint)
            spec = load_spec(args.env) if args.env else agent.spec
            if args.command == "eval":
                if args.seed < 0:
                    raise ConfigError(f"--seed must be >= 0, got {args.seed}")
                rng = np.random.default_rng(args.seed)
                mcd, sr = evaluate(agent, spec, args.test_episodes, rng)
                print(f"mean_closest_distance={mcd!r} success_rate={sr!r}")
            else:
                # a checkpoint holds no visit counts, so no visits.pgm
                os.makedirs(args.output_dir, exist_ok=True)
                write_novelty_map(agent, spec, args.output_dir)
                print(f"novelty map written to {args.output_dir}")
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except CheckpointError as e:
        print(f"checkpoint error: {e}", file=sys.stderr)
        return 3
    except TrainingError as e:
        print(f"training error: {e}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
