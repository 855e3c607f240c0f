import errno
import os
import re
from dataclasses import fields

import numpy as np
import pytest

from hacx import agent as agent_mod
from hacx import envsim, harness, kvtext, rnd
from hacx.errors import CheckpointError, ConfigError, TrainingError

from helpers import drop_values, edit_line

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(ROOT, "configs")

SMOKE = """
env = open_field_near
[agent]
levels = 2
horizon = 3
hidden = 12 12
tau = 0.5
[rnd]
code_dim = 4
phase_episodes = 2
phase_gradient_steps = 20
[training]
episodes = 2
batch_size = 16
rounds_per_episode = 1
[eval]
eval_every = 1
test_episodes = 2
[run]
seeds = 0
"""


def smoke_cfg(**overrides):
    cfg = harness.parse_config_text(SMOKE)
    if overrides:
        from dataclasses import replace
        cfg = replace(cfg, **overrides)
    return cfg.validate()


# config grammar -----------------------------------------------------------------

def test_parse_sections_dotted_keys_and_comments():
    text = """
    # leading comment
    env = four_rooms
    agent.levels = 2   # dotted form
    [training]
    episodes = 7
    batch_size = 32
    [agent]
    tau = 0.25
    """
    cfg = harness.parse_config_text(text)
    assert cfg.env == "four_rooms"
    assert cfg.levels == 2
    assert cfg.episodes == 7
    assert cfg.batch_size == 32
    assert cfg.tau == 0.25


def test_parse_rejects_unknown_key_and_bad_values():
    with pytest.raises(ConfigError):
        harness.parse_config_text("mystery = 1\n")
    with pytest.raises(ConfigError):
        harness.parse_config_text("[agent]\nlevels = soon\n")
    with pytest.raises(ConfigError):
        harness.parse_config_text("just some words\n")


def test_parse_rejects_a_repeated_key():
    # the dotted and [section] forms are one key; a repeat is refused, not
    # silently won by the last value
    for text in ("agent.tau = 0.5\nagent.tau = 0.7\n", "agent.tau = 0.5\n[agent]\ntau = 0.7\n",
                 "[agent]\ntau = 0.5\n[training]\nepisodes = 3\n[agent]\ntau = 0.7\n",
                 "env = four_rooms\nenv = spiral\n"):
        with pytest.raises(ConfigError, match="given twice"):
            harness.parse_config_text(text)


def test_parse_rnd_epsilon_auto():
    cfg = harness.parse_config_text("rnd.epsilon = auto\n")
    assert cfg.rnd_epsilon == 0.0
    cfg = harness.parse_config_text("rnd.epsilon = 0.75\n")
    assert cfg.rnd_epsilon == 0.75


def test_config_round_trip():
    cfg = smoke_cfg()
    text = harness.config_to_text(cfg)
    back = harness.parse_config_text(text)
    assert back == cfg
    assert harness.config_to_text(back) == text


def test_readme_lists_every_config_key():
    # the first column of the README's key table names each RunConfig key once
    readme = open(os.path.join(ROOT, "README.md")).read()
    table = readme.split("| key | meaning |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    listed = [key for row in table.splitlines()
              for key in re.findall(r"`([^`]+)`", row.split("|")[1])]
    assert sorted(listed) == sorted(f.metadata["key"] for f in fields(harness.RunConfig))


def test_validate_rejects_bad_settings():
    # relabels too when relabel_enabled is off, and the agent never sees it
    for kw in (dict(episodes=0), dict(seeds=()), dict(rnd_batch_size=-5),
               dict(rnd_batch_size=0), dict(seeds=(-1,)), dict(seeds=(0, -3)),
               dict(seeds=(0, 0)), dict(seeds=(2, 1, 2)), dict(rnd_phase_gradient_steps=-5),
               dict(output_dir=""), dict(relabels=-1), dict(relabels=-1, relabel_enabled=False)):
        with pytest.raises(ConfigError):
            smoke_cfg(**kw)
    # settings only the agent's records check: building the agent refuses them
    spec = envsim.builtin_spec("open_field_near")
    for kw in (dict(levels=0), dict(tau=1.5), dict(horizon=0), dict(rnd_code_dim=0),
               dict(subgoal_test_rate=2.0), dict(epsilon_level=-1.0),
               dict(rnd_epsilon=float("nan")), dict(rnd_epsilon=-1.0)):
        with pytest.raises(ConfigError):
            harness.build_agent(smoke_cfg(**kw), spec, np.random.default_rng(0))


@pytest.mark.parametrize("name", sorted(os.listdir(CONFIGS)))
def test_shipped_configs_load_and_name_a_known_env(name):
    cfg = harness.load_config(os.path.join(CONFIGS, name)).validate()
    assert envsim.load_spec(cfg.env).name == cfg.env


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        harness.load_config("/nonexistent/cfg.txt")


# metrics files --------------------------------------------------------------------

def sample_rows():
    return [
        {"episode": 100, "mean_closest_distance": 3.25, "success_rate": 0.5,
         "explore_fraction": 0.61, "novelty_new_fraction": 0.125, "seconds": 0.0},
        {"episode": 200, "mean_closest_distance": 1.0 / 3.0, "success_rate": 1.0,
         "explore_fraction": 0.5954, "novelty_new_fraction": 0.0, "seconds": 0.0},
    ]


def test_metrics_write_read_write_byte_identical(tmp_path):
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    harness.write_metrics(sample_rows(), p1)
    rows = harness.read_metrics(p1)
    assert rows == sample_rows()
    harness.write_metrics(rows, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_metrics_header_enforced(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("episode,distance\n1,2.0\n")
    with pytest.raises(ConfigError):
        harness.read_metrics(str(p))


# checkpoints -----------------------------------------------------------------------

def test_checkpoint_write_read_write_byte_identical(tmp_path):
    spec = envsim.builtin_spec("open_field_near")
    cfg = smoke_cfg()
    ag = harness.build_agent(cfg, spec, np.random.default_rng(0))
    p1, p2 = str(tmp_path / "c1.txt"), str(tmp_path / "c2.txt")
    harness.write_checkpoint(ag, p1)
    back = harness.read_checkpoint(p1)
    harness.write_checkpoint(back, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_checkpoint_write_failure_keeps_the_previous_file(tmp_path, monkeypatch):
    # a write that fails after the temporary file is opened (a full disk,
    # say) leaves the previous checkpoint byte for byte, and no temporary file
    spec = envsim.builtin_spec("open_field_near")
    path = tmp_path / "checkpoint.txt"
    harness.write_checkpoint(harness.build_agent(smoke_cfg(), spec, np.random.default_rng(0)),
                             str(path))
    before = path.read_bytes()

    class DiskFull:
        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, text):
            self.f.write(text[:len(text) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(harness, "open",
                        lambda file, mode="r", **kw: DiskFull(open(file, mode, **kw)),
                        raising=False)
    other = harness.build_agent(smoke_cfg(), spec, np.random.default_rng(1))
    with pytest.raises(OSError, match="No space"):
        harness.write_checkpoint(other, str(path))
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["checkpoint.txt"]
    # and a write that succeeds replaces it
    harness.write_checkpoint(other, str(path))
    assert path.read_text() == agent_mod.policy_snapshot(other)
    assert os.listdir(tmp_path) == ["checkpoint.txt"]


def test_checkpoint_missing_path():
    with pytest.raises(ConfigError):
        harness.read_checkpoint("/nonexistent/checkpoint.txt")


# evaluation ------------------------------------------------------------------------

def test_evaluate_is_read_only():
    spec = envsim.builtin_spec("open_field_near")
    ag = harness.build_agent(smoke_cfg(), spec, np.random.default_rng(1))
    before = agent_mod.policy_snapshot(ag)
    mcd, sr = harness.evaluate(ag, spec, 3, np.random.default_rng(0))
    assert agent_mod.policy_snapshot(ag) == before
    assert mcd >= 0.0 and 0.0 <= sr <= 1.0
    with pytest.raises(ValueError):
        harness.evaluate(ag, spec, 0, np.random.default_rng(0))


# trials ----------------------------------------------------------------------------

def test_run_trial_outputs(tmp_path):
    out = str(tmp_path / "t")
    rows = harness.run_trial(smoke_cfg(), 0, out)
    assert len(rows) == 2
    assert [r["episode"] for r in rows] == [1, 2]
    for r in rows:
        assert r["seconds"] == 0.0
        assert 0.0 <= r["success_rate"] <= 1.0
        assert 0.0 <= r["explore_fraction"] <= 1.0
        assert 0.0 <= r["novelty_new_fraction"] <= 1.0
    assert harness.read_metrics(os.path.join(out, "metrics.csv")) == rows
    restored = harness.read_checkpoint(os.path.join(out, "checkpoint.txt"))
    assert restored.env_name == "open_field_near"
    assert open(os.path.join(out, "visits.pgm"), "rb").read().startswith(b"P5\n")
    assert open(os.path.join(out, "novelty.pgm"), "rb").read().startswith(b"P5\n")
    text = open(os.path.join(out, "novelty.txt")).read()
    assert set(text) <= {"0", "1", "\n"}


def test_relabel_switch_off_runs_as_zero_relabels(tmp_path):
    # the agent has one relabel setting: a run with relabel_enabled = 0 is
    # the run with relabels = 0, and its checkpoint stores num_relabels = 0
    outs = []
    for tag, kw in (("off", dict(relabel_enabled=False)), ("zero", dict(relabels=0))):
        out = str(tmp_path / tag)
        harness.run_trial(smoke_cfg(**kw), 0, out)
        outs.append(out)
    for name in ("metrics.csv", "checkpoint.txt", "visits.pgm", "novelty.pgm", "novelty.txt"):
        a, b = (open(os.path.join(out, name), "rb").read() for out in outs)
        assert a == b, name
    assert "\nnum_relabels = 0\n" in open(os.path.join(outs[0], "checkpoint.txt")).read()


def test_run_trial_reproducible(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = str(tmp_path / tag)
        harness.run_trial(smoke_cfg(), 3, out)
        outs.append(out)
    for name in ("metrics.csv", "checkpoint.txt", "visits.pgm", "novelty.txt"):
        a = open(os.path.join(outs[0], name), "rb").read()
        b = open(os.path.join(outs[1], name), "rb").read()
        assert a == b, name


def test_wall_time_recorded_when_asked(tmp_path):
    rows = harness.run_trial(smoke_cfg(record_wall_time=True), 0, str(tmp_path / "w"))
    assert rows[-1]["seconds"] > 0.0


def test_run_trials_aggregate_single_seed(tmp_path):
    out = str(tmp_path / "agg1")
    agg = harness.run_trials(smoke_cfg(), out)
    lines = open(agg).read().splitlines()
    assert lines[0] == "# seeds = 0"
    assert lines[1] == ("episode,mean_closest_distance_mean,"
                        "mean_closest_distance_std,n_trials")
    for ln in lines[2:]:
        ep, mean, std, n = ln.split(",")
        assert float(std) == 0.0 and n == "1"
    assert os.path.exists(os.path.join(out, "config.txt"))
    echoed = harness.load_config(os.path.join(out, "config.txt"))
    assert echoed == smoke_cfg()


def test_run_trials_aggregates_across_seeds(tmp_path):
    out = str(tmp_path / "agg2")
    agg = harness.run_trials(smoke_cfg(seeds=(0, 1)), out)
    lines = open(agg).read().splitlines()
    rows = [ln.split(",") for ln in lines[2:]]
    assert all(r[3] == "2" for r in rows)
    m0 = harness.read_metrics(os.path.join(out, "seed0", "metrics.csv"))
    m1 = harness.read_metrics(os.path.join(out, "seed1", "metrics.csv"))
    want = 0.5 * (m0[0]["mean_closest_distance"] + m1[0]["mean_closest_distance"])
    assert abs(float(rows[0][1]) - want) < 1e-12


def test_run_trials_unknown_env_fails_before_writing(tmp_path):
    out = str(tmp_path / "bad")
    with pytest.raises(ConfigError):
        harness.run_trials(smoke_cfg(env="nowhere"), out)
    assert not os.path.exists(out)


@pytest.mark.parametrize("overrides", [dict(epsilon_level=-1.0), dict(subgoal_test_rate=2.0),
                                       dict(rnd_epsilon=float("nan"))])
def test_run_trials_refused_agent_setting_fails_before_writing(tmp_path, overrides):
    # settings only the agent's records check are refused before any file
    out = str(tmp_path / "bad")
    with pytest.raises(ConfigError):
        harness.run_trials(smoke_cfg(**overrides), out)
    assert not os.path.exists(out)


def test_run_trials_lets_a_code_bug_propagate(tmp_path, monkeypatch):
    # only TrainingError excludes a seed; anything else is a bug, not a result
    def broken(cfg, seed, out_dir):
        raise RuntimeError("bug")

    monkeypatch.setattr(harness, "run_trial", broken)
    out = tmp_path / "bug"
    with pytest.raises(RuntimeError, match="bug"):
        harness.run_trials(smoke_cfg(seeds=(0, 1)), str(out))
    assert not (out / "aggregate.csv").exists()


# CLI -------------------------------------------------------------------------------

def test_cli_train_eval_map_loop(tmp_path, capsys):
    out = str(tmp_path / "cli")
    code = harness.main(["--quiet", "train", "--env", "open_field_near",
                         "--levels", "2", "--episodes", "2", "--seed", "0",
                         "--rounds", "1", "--eval-every", "1",
                         "--test-episodes", "2", "--output-dir", out])
    assert code == 0
    assert "aggregate written" in capsys.readouterr().out
    ckpt = os.path.join(out, "seed0", "checkpoint.txt")

    code = harness.main(["--quiet", "eval", "--checkpoint", ckpt,
                         "--test-episodes", "2"])
    assert code == 0
    assert "mean_closest_distance=" in capsys.readouterr().out

    map_dir = str(tmp_path / "maps")
    code = harness.main(["--quiet", "map", "--checkpoint", ckpt,
                         "--output-dir", map_dir])
    assert code == 0
    capsys.readouterr()
    # a checkpoint holds no visit counts, so map writes no visits.pgm
    assert sorted(os.listdir(map_dir)) == ["novelty.pgm", "novelty.txt"]


def test_cli_exit_codes(tmp_path, capsys):
    assert harness.main(["--quiet", "train", "--env", "nowhere",
                         "--episodes", "1", "--seed", "0",
                         "--output-dir", str(tmp_path / "x")]) == 2
    assert "config error" in capsys.readouterr().err

    # a missing path, and a directory, for eval and map
    for command in ("eval", "map"):
        for path in (tmp_path / "missing.txt", tmp_path):
            assert harness.main(["--quiet", command, "--checkpoint", str(path)]) == 2
            assert "config error" in capsys.readouterr().err

    # a negative seed, and settings out of the agent's ranges, which the
    # agent's records refuse before anything is written
    train = ["--quiet", "train", "--env", "open_field_near", "--episodes", "1",
             "--output-dir", str(tmp_path / "y")]
    cfg, geometry = tmp_path / "cfg.txt", tmp_path / "geometry.txt"
    geometry.write_text(envsim.spec_to_text(envsim.builtin_spec("open_field_near"))
                        + "max_steps = 7\n")
    # ... repeated seeds, from a flag or the config file, a key given twice in
    # the config or the geometry file, and a negative novelty threshold; each
    # case's config names the seed 0 unless it names the seeds itself
    for argv, text, why in (
            (["--seed", "-1"], "", "seeds"), (["--levels", "0"], "", "at least 1 level"),
            ([], "agent.subgoal_test_rate = 2", "subgoal_test_rate"),
            ([], "agent.epsilon = -1", "epsilon"), ([], "rnd.epsilon = nan", "novelty"),
            ([], "rnd.epsilon = -1", "novelty"), (["--seeds", "0,0"], "", "distinct seeds"),
            ([], "run.seeds = 0 0", "distinct seeds"),
            ([], "agent.tau = 0.5\nagent.tau = 0.7", "'agent.tau' given twice"),
            ([], "run.seeds = 1\n[run]\nseeds = 2", "'run.seeds' given twice"),
            (["--env", str(geometry)], "", "'max_steps' given twice"),
            (["--seeds", "0,1", "--seed", "5"], "", "--seed or --seeds")):
        cfg.write_text(("" if "seeds" in text else "run.seeds = 0\n") + text + "\n")
        assert harness.main(train + ["--config", str(cfg)] + argv) == 2
        err = capsys.readouterr().err
        assert "config error" in err and why in err, err
    assert not (tmp_path / "y").exists()

    corrupt = tmp_path / "corrupt.txt"
    # a bad number, and the earlier formats, which are refused by their magic
    for text in ("HACX5\n[agent]\nk = not_a_number\n", "HACX4\n[agent]\nk = 2\nEND\n",
                 "HACX3\n[agent]\nk = 2\nEND\n", "HACX2\n[agent]\nk = 2\nEND\n",
                 "HACX1\n[agent]\nk = 2\nEND\n"):
        corrupt.write_text(text)
        assert harness.main(["--quiet", "eval", "--checkpoint", str(corrupt)]) == 3
        assert "checkpoint error" in capsys.readouterr().err
    # a file that is not UTF-8 text, for eval and map
    corrupt.write_bytes(b"HACX5\n[agent]\nk = \xff\xfe\n")
    for command in ("eval", "map"):
        assert harness.main(["--quiet", command, "--checkpoint", str(corrupt)]) == 3
        assert "not UTF-8" in capsys.readouterr().err

    ckpt = tmp_path / "c.txt"
    harness.write_checkpoint(harness.build_agent(
        smoke_cfg(), envsim.builtin_spec("open_field_near"), np.random.default_rng(0)), str(ckpt))
    assert harness.main(["--quiet", "eval", "--checkpoint", str(ckpt), "--seed", "-1"]) == 2
    assert "--seed" in capsys.readouterr().err
    # a snapshot whose novelty threshold is negative
    corrupt.write_text(edit_line(ckpt.read_text(), "epsilon_rnd", "-1.0", section="rnd"))
    assert harness.main(["--quiet", "eval", "--checkpoint", str(corrupt)]) == 3
    assert "novelty threshold" in capsys.readouterr().err


def test_cli_bad_input_paths_exit_2_and_write_nothing(tmp_path, capsys):
    # a directory, and a file that is not UTF-8 text, as the geometry or the
    # config file
    not_utf8 = tmp_path / "bytes.txt"
    not_utf8.write_bytes(b"\xff\xfe")
    out = tmp_path / "out"
    train = ["--quiet", "train", "--episodes", "1", "--seed", "0", "--output-dir", str(out)]
    for flag in ("--env", "--config"):
        for path, why in ((tmp_path, "not a file"), (not_utf8, "not UTF-8")):
            assert harness.main(train + [flag, str(path)]) == 2
            err = capsys.readouterr().err
            assert "config error" in err and why in err, err
    assert not out.exists()


def test_cli_empty_output_dir_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    train = ["--quiet", "train", "--env", "open_field_near", "--episodes", "1", "--seed", "0"]
    assert harness.main(train + ["--output-dir", ""]) == 2
    assert "output_dir" in capsys.readouterr().err
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("run.output_dir =\n")
    assert harness.main(train + ["--config", str(cfg)]) == 2
    assert "output_dir" in capsys.readouterr().err
    ckpt = tmp_path / "c.txt"
    harness.write_checkpoint(harness.build_agent(
        smoke_cfg(), envsim.builtin_spec("open_field_near"), np.random.default_rng(0)), str(ckpt))
    assert harness.main(["--quiet", "map", "--checkpoint", str(ckpt), "--output-dir", ""]) == 2
    assert "--output-dir" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["c.txt", "cfg.txt"]


def test_cli_output_dir_that_is_a_file_exits_2_and_writes_nothing(tmp_path, monkeypatch,
                                                                  capsys):
    ckpt = tmp_path / "c.txt"
    harness.write_checkpoint(harness.build_agent(
        smoke_cfg(), envsim.builtin_spec("open_field_near"), np.random.default_rng(0)), str(ckpt))
    blocker = tmp_path / "file"
    blocker.write_text("x")
    taken = tmp_path / "taken"
    taken.mkdir()
    (taken / "seed0").write_text("x")
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}

    def never(*args, **kwargs):
        raise AssertionError("an agent was built before the output directory was checked")

    monkeypatch.setattr(harness, "build_agent", never)
    monkeypatch.setattr(harness, "read_checkpoint", never)
    train = ["--env", "open_field_near", "--episodes", "1", "--seed", "0", "--levels", "1"]
    cases = [["train", *train, "--output-dir", str(blocker)],
             ["train", *train, "--output-dir", str(blocker / "sub")],
             ["train", *train, "--output-dir", str(taken)],     # its seed0 is a file
             ["baseline", "hac", *train, "--output-dir", str(blocker)],
             ["map", "--checkpoint", str(ckpt), "--output-dir", str(blocker)],
             ["map", "--checkpoint", str(ckpt), "--output-dir", str(blocker / "sub")]]
    for argv in cases:
        assert harness.main(["--quiet", *argv]) == 2, argv
        assert "not a directory" in capsys.readouterr().err
    monkeypatch.setenv("HACX_OUTPUT_DIR", str(blocker))
    assert harness.main(["--quiet", "train", *train]) == 2
    assert "not a directory" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["c.txt", "file", "seed0", "taken"]


def test_cli_malformed_checkpoint_content_exits_3(tmp_path, capsys):
    spec = envsim.builtin_spec("open_field_near")
    ag = harness.build_agent(smoke_cfg(), spec, np.random.default_rng(0))
    path = tmp_path / "c.txt"
    harness.write_checkpoint(ag, str(path))
    good = path.read_text()
    path.write_text(edit_line(good, "params", lambda v: drop_values(v, 1)))
    assert harness.main(["--quiet", "eval", "--checkpoint", str(path)]) == 3
    assert "[network level0.actor] params holds" in capsys.readouterr().err
    # a bad number or a missing key in a complete snapshot is one too
    # ... and so is a character outside the base64 alphabet inside a
    # parameter vector, no levels, fewer levels than were written, a setting
    # out of range, an environment that is not a valid geometry, or hidden
    # widths the parameters do not fit
    assert "\nhidden = 12 12\n" in good
    for bad in (edit_line(good, "k", "two"),
                edit_line(good, "tau", None),
                edit_line(good, "params", lambda v: "!" + v[1:]),
                edit_line(good, "k", "0"),
                edit_line(good, "k", "1"),
                edit_line(good, "horizon", "0"),
                edit_line(good, "actor_lr", "-1"),
                edit_line(good, "bounds", "0.0 0.0 1.0 1.0", section="env"),
                edit_line(good, "hidden", ""),
                edit_line(good, "hidden", "12 13")):
        path.write_text(bad)
        assert harness.main(["--quiet", "eval", "--checkpoint", str(path)]) == 3
        assert "checkpoint error" in capsys.readouterr().err
    path.write_text(good)
    assert harness.main(["--quiet", "eval", "--checkpoint", str(path),
                         "--test-episodes", "1"]) == 0


@pytest.mark.parametrize("section,line", [
    # keys that no record reads: a new one, and leftovers of the HACX2 format
    ("agent", "foo = 1"), ("network level0.actor", "beta1 = 0.9"),
    ("network rnd.target", "sizes = 2 32 32 8"), ("rnd", "code_dim = 8"),
    # a key repeated in its section, with the same or another value
    ("agent", "tau = 0.25"), ("agent", "tau = 0.5"), ("env", "max_steps = 40"),
    ("network level0.critic", "steps = 1"),
])
def test_cli_unread_or_repeated_snapshot_key_exits_3(tmp_path, capsys, section, line):
    ag = harness.build_agent(smoke_cfg(), envsim.builtin_spec("open_field_near"),
                             np.random.default_rng(0))
    good = agent_mod.policy_snapshot(ag)
    path = tmp_path / "c.txt"
    path.write_text(good.replace(f"[{section}]\n", f"[{section}]\n{line}\n"))
    assert harness.main(["--quiet", "eval", "--checkpoint", str(path)]) == 3
    err = capsys.readouterr().err
    key = line.split(" = ")[0]
    assert re.search(rf"\[{re.escape(section)}\]:? ({key} repeated|{key}$)", err, re.M), err


# The values the sweep below sets each snapshot line to; the last is a
# well-formed vector of the wrong length
EDITED_VALUES = ("0", "-1", "1", "2", "3", "nan", "inf", "1e9", "x", "",
                 kvtext.fmt_vector([0.5, -0.0]))
# the sections of the policies above level 0, which the same code reads as level 0's
OTHER_POLICY = re.compile(r"\[network (level[1-9]|explore)\.")


def test_every_snapshot_edit_is_refused_or_runs():
    # each line of a trained snapshot, set to each value, is
    # refused as corrupt, or restores an agent that trains, advances its
    # novelty phase and evaluates without an exception; the other policies'
    # lines are left out to keep the sweep near 5 s
    cfg = smoke_cfg()
    spec = envsim.builtin_spec(cfg.env)
    rng = np.random.default_rng(0)
    ag = harness.build_agent(cfg, spec, rng)
    for _ in range(2):
        agent_mod.run_episode(ag, spec, "train", rng)
        agent_mod.update(ag, cfg.rounds_per_episode, cfg.batch_size, rng)
    rnd.advance_phase(ag.novelty, cfg.rnd_phase_gradient_steps, cfg.rnd_batch_size, rng)
    lines = agent_mod.policy_snapshot(ag).split("\n")
    outcomes = {"refused": 0, "ran": 0}
    section = ""
    for i, line in enumerate(lines):
        section = line if line.startswith("[") else section
        key, sep, _ = line.partition(" = ")
        if not sep or OTHER_POLICY.match(section):
            continue
        for value in EDITED_VALUES:
            text = "\n".join([*lines[:i], f"{key} = {value}", *lines[i + 1:]])
            try:
                back = agent_mod.restore(text)
            except CheckpointError:
                outcomes["refused"] += 1
                continue
            try:
                run_rng = np.random.default_rng(1)
                for _ in range(2):
                    agent_mod.run_episode(back, back.spec, "train", run_rng)
                agent_mod.update(back, cfg.rounds_per_episode, cfg.batch_size, run_rng)
                rnd.advance_phase(back.novelty, cfg.rnd_phase_gradient_steps,
                                  cfg.rnd_batch_size, run_rng)
                harness.evaluate(back, back.spec, cfg.test_episodes, run_rng)
            except Exception as e:
                pytest.fail(f"line {i} {line!r} set to {value!r} restored, then raised {e!r}")
            outcomes["ran"] += 1
    assert outcomes["refused"] and outcomes["ran"], outcomes


def test_cli_eval_with_no_test_episodes_exits_2(tmp_path, capsys):
    spec = envsim.builtin_spec("open_field_near")
    path = str(tmp_path / "c.txt")
    harness.write_checkpoint(
        harness.build_agent(smoke_cfg(), spec, np.random.default_rng(0)), path)
    assert harness.main(["--quiet", "eval", "--checkpoint", path,
                         "--test-episodes", "0"]) == 2
    assert "n_test" in capsys.readouterr().err


def test_cli_training_failure_exits_4(tmp_path, monkeypatch, capsys):
    def diverges(cfg, seed, out_dir):
        raise TrainingError("level0: non-finite critic loss")

    monkeypatch.setattr(harness, "run_trial", diverges)
    assert harness.main(["--quiet", "train", "--env", "open_field_near",
                         "--episodes", "1", "--seeds", "0,1",
                         "--output-dir", str(tmp_path / "div")]) == 4
    assert "training error" in capsys.readouterr().err


def test_cli_baseline_presets(tmp_path, capsys):
    # a preset's settings override the config file's; a flag may repeat one
    # of them, but not give it another value
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("agent.tau = 0.5\nagent.levels = 2\n")
    flags = ["--config", str(cfg), "--env", "open_field_near", "--episodes", "1", "--seed",
             "0", "--rounds", "0", "--eval-every", "1", "--test-episodes", "1"]
    for preset, argv, want in (("hac", [], (0.0, 2)), ("rnd", ["--levels", "1"], (0.5, 1))):
        out = str(tmp_path / preset)
        assert harness.main(["--quiet", "baseline", preset, *flags, *argv,
                             "--output-dir", out]) == 0
        capsys.readouterr()
        echoed = harness.load_config(os.path.join(out, "config.txt"))
        assert (echoed.tau, echoed.levels) == want
    for preset, argv, why in (("rnd", ["--levels", "3"], "baseline rnd sets levels = 1"),
                              ("hac", ["--tau", "0.5"], "baseline hac sets tau = 0.0")):
        out = tmp_path / "clash"
        assert harness.main(["--quiet", "baseline", preset, *flags, *argv,
                             "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and why in err, err
        assert not out.exists()


def test_cli_output_dir_env_var(tmp_path, monkeypatch, capsys):
    out = str(tmp_path / "via_env")
    monkeypatch.setenv("HACX_OUTPUT_DIR", out)
    code = harness.main(["--quiet", "train", "--env", "open_field_near",
                         "--levels", "2", "--episodes", "1", "--seed", "0",
                         "--rounds", "0", "--eval-every", "1",
                         "--test-episodes", "1"])
    assert code == 0
    capsys.readouterr()
    assert os.path.exists(os.path.join(out, "aggregate.csv"))


def test_cli_config_file_plus_flag_override(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(SMOKE)
    out = str(tmp_path / "cfgrun")
    code = harness.main(["--quiet", "train", "--config", str(cfg_path),
                         "--episodes", "1", "--output-dir", out])
    assert code == 0
    capsys.readouterr()
    echoed = harness.load_config(os.path.join(out, "config.txt"))
    assert echoed.episodes == 1       # flag wins
    assert echoed.levels == 2         # from the file


@pytest.mark.parametrize("line,bad", [("bounds = 0.0 0.0 10.0 10.0", "bounds = 0 0 10 ten"),
                                      ("max_steps = 500", "max_steps = 3.5"),
                                      ("dt = 0.1", "dt = nan"),
                                      ("max_speed = 1.0", "max_speed = inf")])
def test_cli_bad_number_in_geometry_file_exits_2(tmp_path, capsys, line, bad):
    text = envsim.spec_to_text(envsim.EnvSpec("g", (0.0, 0.0, 10.0, 10.0), [],
                                              (1.0, 1.0, 2.0, 2.0), (8.0, 8.0, 9.0, 9.0)))
    geometry = tmp_path / "g.txt"
    geometry.write_text(text.replace(line, bad))
    assert geometry.read_text() != text
    assert harness.main(["--quiet", "train", "--env", str(geometry),
                         "--episodes", "1", "--seed", "0",
                         "--output-dir", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_eval_and_map_use_the_trained_geometry(tmp_path, capsys):
    # the reduced spiral of the long-horizon comparison shares the builtin
    # 7x7 maze's name, and a wall-less arena may be called four_rooms: a
    # checkpoint holds its geometry, so neither name is looked up
    spiral5 = envsim.spiral_spec(cells=5, max_steps=600)
    assert spiral5.name == "spiral_maze"
    open_rooms = envsim.EnvSpec("four_rooms", (0.0, 0.0, 10.0, 10.0), [],
                                (1.0, 1.0, 2.0, 2.0), (1.0, 3.0, 2.0, 4.0))
    for i, spec in enumerate((spiral5, open_rooms)):
        geometry = tmp_path / f"g{i}.txt"
        geometry.write_text(envsim.spec_to_text(spec))
        ckpt = str(tmp_path / f"c{i}.txt")
        harness.write_checkpoint(
            harness.build_agent(smoke_cfg(), spec, np.random.default_rng(0)), ckpt)
        outputs = []
        for env in ([], ["--env", str(geometry)], ["--env", spec.name]):
            maps = str(tmp_path / f"maps{i}{len(outputs)}")
            assert harness.main(["--quiet", "eval", "--checkpoint", ckpt,
                                 "--test-episodes", "2"] + env) == 0
            assert harness.main(["--quiet", "map", "--checkpoint", ckpt,
                                 "--output-dir", maps] + env) == 0
            outputs.append((capsys.readouterr().out.splitlines()[0],
                            open(os.path.join(maps, "novelty.txt")).read()))
        # as with its geometry file, and unlike with the builtin of its name
        assert outputs[0] == outputs[1] != outputs[2]
