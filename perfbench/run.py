"""Benchmark entry point for hacx. Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: train_four_rooms_k3, train_spiral_k3, eval_checkpoint (see
perfbench/README.md). With --trace 0 it prints the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run. The last line of output is
one JSON object {"correct", "attempted", "failed", "metrics"}; the line
before it records the environment and the sha256 of every seed's
metrics.csv. Run files go to .bench_build/perfbench/ and are removed at the
end, except the last result and span file of each workload.

The measured work runs in one child process with one BLAS thread, so the
load is one process with no more threads than cores. Set-up time is the
median of several fresh interpreters, which that child starts one at a time
between its samples.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BLAS_THREADS = "1"
DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_child(argv: list, timeout: float) -> str:
    """Run a Python child to completion and return its standard output."""
    proc = subprocess.run([sys.executable, *argv], env=child_env(), stdout=subprocess.PIPE,
                          timeout=max(timeout, 1.0), text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[0]} exited with code {proc.returncode}")
    return proc.stdout


def main(argv=None) -> int:
    with open("BENCHMARK.json") as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    p = argparse.ArgumentParser(description="hacx benchmark")
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--episodes", type=int, help="override the slice length (self-test only)")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "hacx", "__init__.py")):
        print("perfbench: run from the root of a hacx checkout (src/hacx not found)",
              file=sys.stderr)
        return 2

    t_start = time.perf_counter()
    root = os.path.join(".bench_build", "perfbench")
    work = os.path.join(root, f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    os.makedirs(work)
    try:
        cmd = [os.path.join(HERE, "workloads.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", work]
        if args.episodes:
            cmd += ["--episodes", str(args.episodes)]
        lines = run_child(cmd, DEADLINE_S - (time.perf_counter() - t_start)).splitlines()
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
        if args.trace:
            os.replace(os.path.join(work, "spans.npz"),
                       os.path.join(root, f"spans-{args.workload}.npz"))
        with open(os.path.join(root, f"result-{args.workload}-trace{args.trace}.json"), "w") as f:
            json.dump({"args": vars(args), "info": info, "result": result}, f, indent=1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
