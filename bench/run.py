"""Benchmark entry point for demoforge.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout (``src/demoforge`` beside
``bench/``). With ``--trace 0`` it sets the workload up SETUP_REPEATS times
in fresh processes, then runs one measured session in another, and prints
the end-to-end metrics; with ``--trace 1`` it runs one traced session and
prints the per-layer metrics. Every child is a fresh single-threaded
process: BLAS and OpenMP pools are pinned to one thread, and only one
child runs at a time. Lines before the last are dataset and bandit
digests; the last line is the result as one JSON object.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("scripted_reuse", "bandit_production", "llm_fresh")
SETUP_REPEATS = 2  # set-up-only processes; the measured session sets up once more
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list[str], deadline: float) -> list[str]:
    """Run bench/session.py to completion; return its stdout lines."""
    cmd = [sys.executable, os.path.join(BENCH, "session.py"), *argv]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"session {argv[:2]} overran the {DEADLINE_S:.0f} s deadline") from None
    except BaseException:  # interrupted or terminated: the child goes too
        proc.kill()
        proc.communicate()
        raise
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"session {argv[:2]} exited with code {proc.returncode}")
    return lines


def metric_units(trace: bool) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "demoforge", "__init__.py")):
        print(f"error: no demoforge sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    units = metric_units(bool(args.trace))
    out_dir = os.path.join(ROOT, ".bench_out", f"{args.workload}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--out", out_dir]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS):
                line = run_child([*common, "--seconds", "0", "--trace", "0", "--setup-only"], deadline)[-1]
                setups.append(json.loads(line)["setup_s"])
        lines = run_child([*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    result = json.loads(lines[-1])
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups + [metrics["setup_s"]])
    missing = set(units) - set(metrics)
    if missing:
        print(f"error: session did not report {sorted(missing)}", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
