"""toruslab benchmark: four experiment workloads timed end to end.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Workloads (see workloads.py and
BENCHMARK.json): sweep-exotic, sweep-wainger, endpoint, analysis.

Each run starts fresh processes with the checkout's ``src`` on PYTHONPATH
and BLAS/OpenMP threads capped at the CPU count: one worker that sets up,
then runs passes over the workload's tasks for ``--seconds`` and checks
every output, with four set-up-only processes before it and four after.

With ``--trace 0`` the result carries the end-to-end metrics:

    wall_s       median wall time of one pass over the tasks, tracing off
    setup_s      median time from process start until the first task is ready,
                 over the nine processes
    peak_rss_mb  peak resident set of the worker process (MiB)
    ok_frac      tasks that finished and passed their checks / tasks attempted

With ``--trace 1`` the worker also runs one traced pass and a probe of
single-call timings, and the result carries the per-layer metrics instead.
Lines before the last give sample counts, failures and the environment;
the last line is the JSON result.  ``correct`` is false when any task fails
with an error other than the one its ``KnownDefect`` (workloads.py) names;
known-defect failures still count in ``failed`` and against ``ok_frac``.
Exit code 2 and no result when the checkout has no toruslab sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-exotic", "sweep-wainger", "endpoint", "analysis")
# seeds used when none is given: the acceptance criteria's (c09 sweeps 7,
# c08 endpoint 3, c05 sigma samples 11)
DEFAULT_SEEDS = {"sweep-exotic": 7, "sweep-wainger": 7, "endpoint": 3, "analysis": 11}
SETUP_PROBES = 8
CHILD_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in THREAD_VARS:
        env[var] = str(_nproc())
    return env


def _worker_cmd(args, out_dir: Path, setup_only: bool) -> list:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--root", str(ROOT),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", str(out_dir),
    ]
    return cmd + ["--setup-only"] if setup_only else cmd


def _start(cmd, env) -> tuple:
    """Start a worker; returns (process, seconds until it printed ``ready``)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready (printed {line!r})")
    return proc, ready


def _finish(proc) -> str:
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def highest_percentile(n: int):
    """Highest percentile with at least ten samples beyond it, or None."""
    if n <= 10:
        return None
    return 100.0 * (n - 10) / n


def run(args) -> dict:
    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    env = child_env()
    setups = []

    def probe_setup():
        proc, ready = _start(_worker_cmd(args, out_dir, True), env)
        _finish(proc)
        setups.append(ready)

    try:
        # half the set-up probes before the worker and half after it, so
        # that the median samples the machine at both ends of the run
        for _ in range(SETUP_PROBES // 2):
            probe_setup()
        proc, ready = _start(_worker_cmd(args, out_dir, False), env)
        setups.append(ready)
        raw = json.loads(_finish(proc).strip().splitlines()[-1])
        for _ in range(SETUP_PROBES - SETUP_PROBES // 2):
            probe_setup()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    raw["setups"] = setups
    (out_dir.parent / f"raw-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(raw))
    return raw


def tally(raw: dict) -> dict:
    """Attempted and failed task runs, and the tasks that failed unexpectedly."""
    tasks = raw["tasks"]
    return {
        "attempted": raw["passes"] * len(tasks),
        "failed": sum(t["failed_passes"] for t in tasks),
        "unexpected": [t["task"] for t in tasks if t["unexpected"]],
    }


def pass_walls(raw: dict) -> list:
    return [sum(times) for times in raw["task_times"]]


def end_to_end(raw: dict) -> dict:
    counts = tally(raw)
    return {
        "wall_s": (statistics.median(pass_walls(raw)), "s"),
        "setup_s": (statistics.median(raw["setups"]), "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MiB"),
        "ok_frac": ((counts["attempted"] - counts["failed"]) / counts["attempted"], "ratio"),
    }


def declared_metrics(key: str) -> list:
    """Metric names BENCHMARK.json declares under ``key``."""
    return [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]]


def report(args, raw: dict) -> dict:
    counts = tally(raw)
    for t in raw["tasks"]:
        if t["failed_passes"]:
            kind = "UNEXPECTED" if t["unexpected"] else f"known defect: {t['known_defect']}"
            print(f"failed [{kind}] {t['task']} in {t['failed_passes']}/{raw['passes']} passes: "
                  f"{'; '.join(t['errors'])}")
    walls = pass_walls(raw)
    e2e = end_to_end(raw)
    print(f"env: {json.dumps(raw['env'], sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: "
          f"{raw['passes']} passes x {len(raw['tasks'])} tasks")
    print(f"wall_s      {e2e['wall_s'][0]:.4f} s  median of n={len(walls)} passes "
          f"(min {min(walls):.4f}, max {max(walls):.4f}); highest percentile with >=10 "
          f"samples beyond it: {highest_percentile(len(walls)) or 'none (n <= 10)'}")
    print(f"setup_s     {e2e['setup_s'][0]:.4f} s  median of n={len(raw['setups'])} process starts")
    print(f"peak_rss_mb {e2e['peak_rss_mb'][0]:.1f} MiB  n=1 worker process")
    print(f"failed_frac {counts['failed'] / counts['attempted']:.4f}  "
          f"({counts['failed']} failed of {counts['attempted']} attempted)")
    if args.trace:
        print(f"trace: {json.dumps(raw['trace'], sort_keys=True)}")
        values, key = raw["layer"], "per_layer"
    else:
        values, key = e2e, "end_to_end"
    declared = declared_metrics(key)
    if sorted(declared) != sorted(values):
        raise RuntimeError(f"measured {key} metrics differ from BENCHMARK.json: "
                           f"{sorted(set(declared) ^ set(values))}")
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
    return {"correct": not counts["unexpected"], "attempted": counts["attempted"],
            "failed": counts["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, help="workload seed (default: acceptance seed)")
    parser.add_argument("--seconds", type=float, default=20.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = DEFAULT_SEEDS[args.workload]
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "toruslab" / "__init__.py").is_file():
        print(f"error: no toruslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = report(args, run(args))
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
