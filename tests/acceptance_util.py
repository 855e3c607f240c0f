"""Shared machinery for the acceptance suite.

The long training comparisons are expensive (hours), so their runs are cached
under tests/.acceptance_cache and committed with the repository. The test
suite only reads the cache; to regenerate a tag, delete its directory and run
this file as a script with the tag names (or: all):

    python3 tests/acceptance_util.py crit5 crit6_hacx ...
"""

import os
import shutil
import sys
import time
from dataclasses import replace

from hacx import envsim, harness

CACHE = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".acceptance_cache")


def spiral_small_env_path() -> str:
    """Geometry file for the reduced spiral used by the long-horizon
    comparison: 5x5 cells instead of 7x7, 600-step budget. The full-size
    maze pushes the total comparison past a desktop compute budget; the
    reduced one keeps the shortest path in the several-hundred-step range,
    which is what the comparison is about."""
    os.makedirs(CACHE, exist_ok=True)
    path = os.path.join(CACHE, "spiral_small.txt")
    spec = envsim.spiral_spec(cells=5, max_steps=600)
    text = envsim.spec_to_text(spec)
    if os.path.exists(path):
        with open(path) as f:
            if f.read() == text:
                return path
    with open(path, "w") as f:
        f.write(text)
    return path


def crit5_config() -> harness.RunConfig:
    # flat novelty-driven agent on the near-goal task
    return harness.RunConfig(
        env="open_field_near", levels=1, tau=0.6,
        episodes=2000, eval_every=100, test_episodes=50,
        rounds_per_episode=40, seeds=(0, 1, 2, 3, 4),
    ).validate()


def _crit6_base() -> harness.RunConfig:
    return harness.RunConfig(
        env=spiral_small_env_path(), levels=3, horizon=10, tau=0.6,
        episodes=20_000, eval_every=1000, test_episodes=50,
        rounds_per_episode=10, batch_size=256, actor_lr=1e-3,
        rnd_epsilon=0.05, seeds=(0, 1, 2, 3, 4),
    )


def crit6_configs() -> dict:
    base = _crit6_base()
    return {
        "crit6_hacx": base.validate(),
        "crit6_hac": replace(base, **harness.BASELINES["hac"]).validate(),
        "crit6_rnd": replace(base, **harness.BASELINES["rnd"]).validate(),
    }


def _crit7_base() -> harness.RunConfig:
    return harness.RunConfig(
        env="four_rooms", levels=3, horizon=10, tau=0.6,
        episodes=3000, eval_every=100, test_episodes=50,
        rounds_per_episode=40, batch_size=256, actor_lr=1e-3,
        seeds=(0, 1, 2, 3, 4),
    )


def crit7_configs() -> dict:
    base = _crit7_base()
    return {
        "crit7_hacx": base.validate(),
        "crit7_hac": replace(base, **harness.BASELINES["hac"]).validate(),
    }


def all_configs() -> dict:
    out = {"crit5": crit5_config()}
    out.update(crit6_configs())
    out.update(crit7_configs())
    return out


def _prune(out_root: str) -> None:
    """Drop per-seed artifacts the acceptance checks never read, so the
    committed cache stays small. Metrics and config echoes are kept."""
    for entry in os.listdir(out_root):
        seed_dir = os.path.join(out_root, entry)
        if not (entry.startswith("seed") and os.path.isdir(seed_dir)):
            continue
        for name in ("checkpoint.txt", "visits.pgm", "novelty.pgm", "novelty.txt"):
            p = os.path.join(seed_dir, name)
            if os.path.exists(p):
                os.remove(p)


def _config_echo(cfg: harness.RunConfig) -> str:
    """The config text a cache records: harness.config_to_text, except that
    an env file inside CACHE is named relative to CACHE, so a cache trained
    in one checkout is valid in every other. Every other value is kept."""
    env = cfg.env
    if os.path.isabs(env) and os.path.dirname(env) == os.path.abspath(CACHE):
        env = os.path.basename(env)
    return harness.config_to_text(replace(cfg, env=env))


def _lost_seeds(out_root: str):
    """The '# excluded_seeds' line run_trials writes when a seed failed."""
    with open(os.path.join(out_root, "aggregate.csv")) as f:
        first = f.readline().strip()
    return first[2:] if first.startswith("# excluded_seeds") else None


def _is_cached(tag: str, cfg: harness.RunConfig) -> bool:
    """True if the cache for tag is complete and was produced by cfg; False
    if there is no complete cache. wall.txt is written last, so it marks a
    complete one. A complete cache from another config, or one that lost a
    seed, raises: it must be deleted by hand, never silently used."""
    out_root = os.path.join(CACHE, tag)
    if not os.path.exists(os.path.join(out_root, "wall.txt")):
        return False
    echo_path = os.path.join(out_root, "config.txt")
    cached = ""
    if os.path.exists(echo_path):
        with open(echo_path) as f:
            cached = f.read()
    if cached != _config_echo(cfg):
        raise RuntimeError(
            f"cached run {tag} was produced by a different config; "
            f"delete {out_root} and regenerate with tests/acceptance_util.py")
    lost = _lost_seeds(out_root)
    if lost:
        raise RuntimeError(f"cached run {tag} lost seeds ({lost}); "
                           f"delete {out_root} and regenerate")
    return True


def ensure_run(tag: str, cfg: harness.RunConfig) -> str:
    """Return the output directory for tag, training it first if there is
    no complete cache. A cached run whose recorded config differs from the
    frozen one is stale and refused, so results can never silently drift.
    A run that lost a seed raises and leaves no complete cache."""
    out_root = os.path.join(CACHE, tag)
    if _is_cached(tag, cfg):
        return out_root
    shutil.rmtree(out_root, ignore_errors=True)
    t0 = time.time()
    harness.run_trials(cfg, out_root)
    wall = time.time() - t0
    with open(os.path.join(out_root, "config.txt"), "w") as f:
        f.write(_config_echo(cfg))
    lost = _lost_seeds(out_root)
    if lost:
        raise RuntimeError(f"run {tag} lost seeds ({lost}); see the log above")
    _prune(out_root)
    with open(os.path.join(out_root, "wall.txt"), "w") as f:
        f.write(f"{wall:.1f}\n")
    return out_root


def cached_run(tag: str, cfg: harness.RunConfig) -> str:
    """Like ensure_run but never trains: raises if the cache is missing,
    incomplete, stale or lost a seed. Tests use this so a bare pytest run
    cannot silently spend hours."""
    if not _is_cached(tag, cfg):
        raise RuntimeError(
            f"no complete cached run for {tag}; regenerate with "
            f"`python3 tests/acceptance_util.py {tag}` (long training run)")
    return os.path.join(CACHE, tag)


def seed_metrics(out_root: str, seeds) -> dict:
    return {s: harness.read_metrics(os.path.join(out_root, f"seed{s}", "metrics.csv"))
            for s in seeds}


def main(argv) -> int:
    configs = all_configs()
    tags = list(configs) if argv in ([], ["all"]) else argv
    for tag in tags:
        if tag not in configs:
            print(f"unknown tag {tag!r}; known: {' '.join(configs)}", file=sys.stderr)
            return 2
    for tag in tags:
        print(f"[{tag}] ensuring cached run ...", flush=True)
        out = ensure_run(tag, configs[tag])
        print(f"[{tag}] ready at {out}", flush=True)
    return 0


if __name__ == "__main__":
    import logging

    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    sys.exit(main(sys.argv[1:]))
