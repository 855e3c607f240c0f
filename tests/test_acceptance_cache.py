"""The acceptance cache (tests/acceptance_util.py): a cached run is accepted
in any checkout, only when complete, only for the frozen config, and never
with a lost seed; and the committed caches still match what the code trains.
"""

import os
import shutil
from dataclasses import replace

import pytest

import acceptance_util as au
from hacx import harness
from hacx.errors import TrainingError


def _tiny_crit6(tau=0.6):
    """crit6_hacx cut to a few episodes; env is the spiral file under CACHE."""
    cfg = au.crit6_configs()["crit6_hacx"]
    return replace(cfg, tau=tau, episodes=2, eval_every=1, test_episodes=1,
                   rounds_per_episode=1, seeds=(0, 1)).validate()


@pytest.fixture
def cache(tmp_path, monkeypatch):
    root = tmp_path / "checkout_a"
    monkeypatch.setattr(au, "CACHE", str(root))
    return root


def test_cache_moved_to_another_root_is_accepted(cache, tmp_path, monkeypatch):
    au.ensure_run("t", _tiny_crit6())
    echo = (cache / "t" / "config.txt").read_text()
    assert str(tmp_path) not in echo
    assert "env = spiral_small.txt\n" in echo
    moved = tmp_path / "checkout_b"
    shutil.move(str(cache), str(moved))
    monkeypatch.setattr(au, "CACHE", str(moved))
    assert au.cached_run("t", _tiny_crit6()) == os.path.join(str(moved), "t")
    assert sorted(os.listdir(moved / "t")) == [
        "aggregate.csv", "config.txt", "seed0", "seed1", "wall.txt"]
    assert os.listdir(moved / "t" / "seed0") == ["metrics.csv"]


def test_changed_frozen_value_is_refused(cache):
    au.ensure_run("t", _tiny_crit6())
    with pytest.raises(RuntimeError, match="different config"):
        au.cached_run("t", _tiny_crit6(tau=0.5))
    with pytest.raises(RuntimeError, match="different config"):
        au.ensure_run("t", _tiny_crit6(tau=0.5))


def test_cache_without_wall_is_refused(cache, monkeypatch):
    def interrupted(out_root):
        raise KeyboardInterrupt

    monkeypatch.setattr(au, "_prune", interrupted)
    with pytest.raises(KeyboardInterrupt):
        au.ensure_run("t", _tiny_crit6())
    assert (cache / "t" / "aggregate.csv").exists()
    assert not (cache / "t" / "wall.txt").exists()
    with pytest.raises(RuntimeError, match="no complete cached run"):
        au.cached_run("t", _tiny_crit6())
    monkeypatch.undo()
    monkeypatch.setattr(au, "CACHE", str(cache))
    au.ensure_run("t", _tiny_crit6())  # an incomplete cache is retrained
    assert au.cached_run("t", _tiny_crit6())


def test_cache_with_excluded_seed_is_refused(cache, monkeypatch):
    real = harness.run_trial

    def seed1_fails(cfg, seed, out_dir):
        if seed == 1:
            raise TrainingError("diverged")
        return real(cfg, seed, out_dir)

    monkeypatch.setattr(harness, "run_trial", seed1_fails)
    with pytest.raises(RuntimeError, match="lost seeds"):
        au.ensure_run("t", _tiny_crit6())
    assert not (cache / "t" / "wall.txt").exists()
    with pytest.raises(RuntimeError, match="no complete cached run"):
        au.cached_run("t", _tiny_crit6())
    # a cache marked complete by hand is still refused
    (cache / "t" / "wall.txt").write_text("1.0\n")
    with pytest.raises(RuntimeError, match="lost seeds"):
        au.cached_run("t", _tiny_crit6())


def test_committed_crit5_cache_matches_the_code(tmp_path):
    """Criteria 5-7 judge committed runs; this retrains the first 100
    episodes of crit5 seed 0 and requires the first metrics row to be
    byte-equal to the cached one, so a change that alters the numbers
    cannot leave the cache describing a program that no longer exists."""
    cfg = au.crit5_config()
    root = au.cached_run("crit5", cfg)
    harness.run_trials(replace(cfg, episodes=100, seeds=(0,)), str(tmp_path))
    live = (tmp_path / "seed0" / "metrics.csv").read_bytes().splitlines()
    with open(os.path.join(root, "seed0", "metrics.csv"), "rb") as f:
        cached = f.read().splitlines()
    assert live[0] == cached[0]  # header
    assert live[1] == cached[1]
