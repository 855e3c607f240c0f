"""Fast self-test of the benchmark on a one-episode slice. Run from the
repository root:

    python3 perfbench/selftest.py

It checks that:
- every traced function still exists and is wrapped at every name hacx looks
  it up by, that a missing target fails loudly, and that uninstalling
  restores the originals;
- each workload, untraced and traced, prints exactly the metrics that
  BENCHMARK.json names, each with its unit, and reports correct outputs;
- two runs of one seed write byte-identical metrics.csv files;
- outside a checkout (only BENCHMARK.json and perfbench/) it exits non-zero
  without printing a result.
Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.abspath("src"))

import tracer  # noqa: E402

TINY = ["--episodes", "1", "--seconds", "1"]


def bench(args: list, cwd: str = ".") -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=300, check=False)


def check_wrappers() -> None:
    from hacx import agent, approx, hac, harness

    originals = (approx.forward, agent.buffer_push, harness.update)
    t = tracer.Tracer()
    t.install()
    try:
        wrapped = set(t.bindings())
        for name in ("hacx.approx.forward", "hacx.agent.buffer_push", "hacx.hac.buffer_push",
                     "hacx.harness.update", "hacx.agent.update", "hacx.harness.restore"):
            assert name in wrapped, f"{name} is not wrapped"
        for mod, fns in tracer.TARGETS.items():
            for fn in fns:
                assert f"hacx.{mod}.{fn}" in wrapped, f"hacx.{mod}.{fn} is not wrapped"
    finally:
        t.uninstall()
    assert (approx.forward, agent.buffer_push, harness.update) == originals, \
        "uninstall left wrappers behind"

    saved = dict(tracer.TARGETS)
    tracer.TARGETS["hac"] = saved["hac"] + ("no_such_function",)
    try:
        t = tracer.Tracer()
        try:
            t.install()
        except LookupError:
            pass
        else:
            raise AssertionError("a missing wrapper target did not raise")
    finally:
        tracer.TARGETS.clear()
        tracer.TARGETS.update(saved)
    assert hac.buffer_push is agent.buffer_push, "failed install left wrappers behind"


def check_outputs(spec: dict) -> dict:
    """Run every workload both ways; returns the untraced info lines."""
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    infos = {}
    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = bench(["--workload", w, "--seed", "3", "--trace", str(trace), *TINY])
            assert proc.returncode == 0, f"{w} trace={trace} failed:\n{proc.stderr[-3000:]}"
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True and result["failed"] == 0, (w, trace, lines[-2])
            assert isinstance(result["attempted"], int) and result["attempted"] >= 1
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want[trace], (w, trace, set(got) ^ set(want[trace]))
            for k, v in result["metrics"].items():
                assert isinstance(v["value"], (int, float)) and math.isfinite(v["value"]), (k, v)
                assert trace or v["value"] > 0, f"{w}: end-to-end {k} is {v['value']}"
            if not trace:
                infos[w] = json.loads(lines[-2])
            print(f"ok  {w} trace={trace}: {len(got)} metrics", flush=True)
    return infos


def check_determinism(first: dict) -> None:
    proc = bench(["--workload", "train_four_rooms_k3", "--seed", "3", "--trace", "0", *TINY])
    assert proc.returncode == 0, proc.stderr[-3000:]
    again = json.loads(proc.stdout.splitlines()[-2])["metrics_sha256"]
    assert again and again == first["train_four_rooms_k3"]["metrics_sha256"], \
        "metrics.csv differs between two runs of one seed"


def check_refuses_empty_dir() -> None:
    bare = os.path.abspath(os.path.join(".bench_build", "perfbench-selftest-bare"))
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(["--workload", "train_four_rooms_k3", "--seed", "0", "--trace", "0",
                      "--seconds", "1"], cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), \
            "the benchmark did not refuse a directory without the program"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    check_wrappers()
    print("ok  wrappers", flush=True)
    infos = check_outputs(spec)
    check_determinism(infos)
    print("ok  metrics.csv byte-identical across two runs of one seed", flush=True)
    check_refuses_empty_dir()
    print("ok  refuses a directory without the program", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
