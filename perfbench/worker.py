"""One benchmark process: set up a workload, run timed passes, check, trace.

Started by run.py with the checkout's ``src`` on PYTHONPATH and BLAS/OpenMP
threads capped.  The process prints ``ready`` once set-up is done (imports,
config resolution, seeded input generation) so the parent can time set-up
from process start; with ``--setup-only`` it stops there.  Otherwise it
prints one JSON object with the run's raw results as its last line.

The load is a closed loop with one client: tasks run one after another in
this process, each starting when the previous one has finished.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import toruslab
import tracing
import workloads
from oracle import CheckFailed


def _run_pass(tasks, tracer=None) -> tuple:
    """One pass over the tasks; returns ([seconds per task], {task: error or None})."""
    times = []
    errors = {}
    sink = io.StringIO()
    for index, task in enumerate(tasks):
        if tracer is not None:
            tracer.task = index
            tracer.active = True
        sink.seek(0)
        sink.truncate()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                out = task.run()
            error = None
        except Exception as exc:  # task boundary: record and keep going
            error = f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.active = False
        if error is None:
            try:
                task.check(out)
            except CheckFailed as exc:
                error = f"check: {exc}"
            except Exception as exc:  # a malformed output is a failed check
                error = f"check: {type(exc).__name__}: {exc}"
        errors[task.name] = error
    return times, errors


def _timed_passes(tasks, budget: float) -> tuple:
    """Passes until the next one would end past ``budget`` seconds (at least one)."""
    times, passes = [], []
    begin = time.perf_counter()
    while True:
        task_times, errors = _run_pass(tasks)
        times.append(task_times)
        passes.append(errors)
        elapsed = time.perf_counter() - begin
        if elapsed + statistics.median(sum(t) for t in times) > budget:
            return times, passes


def _run_oracles(tasks) -> dict:
    errors = {}
    for task in tasks:
        if task.oracle is None:
            continue
        try:
            task.oracle()
            errors[task.name] = None
        except CheckFailed as exc:
            errors[task.name] = f"oracle: {exc}"
        except Exception as exc:  # an oracle that cannot run fails its task
            errors[task.name] = f"oracle: {type(exc).__name__}: {exc}\n{traceback.format_exc()}"
    return errors


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def probe() -> dict:
    """Single-call timings behind ROADMAP item 2's 50x gate, tracing off."""
    from toruslab.grid import GridFunction, GridSpec
    from toruslab.operators import PdoOperator
    from toruslab.symbols import exotic, wainger

    rng = np.random.default_rng(0)
    out = {}
    for G, repeats in ((1024, 5), (4096, 3)):
        spec = GridSpec((G,))
        op = PdoOperator.from_family(exotic(0.0, 0.75, 1.0), spec)
        f = GridFunction(spec, rng.standard_normal(G) + 1j * rng.standard_normal(G))
        out[f"operators.apply.general.G{G}.ms"] = _median_ms(lambda: op.apply(f), repeats)
    spec = GridSpec((256,))
    op = PdoOperator.from_family(wainger(0.5, 0.375), spec)
    values = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    f = GridFunction(spec, values)
    out["operators.apply.multiplier.G256.ms"] = _median_ms(lambda: op.apply(f), 300)
    out["grid.fft.G256.ms"] = _median_ms(lambda: np.fft.fft(values), 1000)
    return out


def environment() -> dict:
    """nproc, interpreter and library versions, and the thread caps in force."""
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_caps": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = (args.root / "src").resolve()
    if Path(toruslab.__file__).resolve().parent.parent != src:
        print(f"toruslab imported from {toruslab.__file__}, not from {src}", file=sys.stderr)
        return 2
    tasks = workloads.build(args.workload, args.seed, args.out)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    budget = args.seconds / 2 if args.trace else args.seconds
    times, passes = _timed_passes(tasks, budget)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layer, trace_info = {}, {}
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_times, traced_errors = _run_pass(tasks, tracer)
        finally:
            tracer.uninstall()
        passes.append(traced_errors)
        traced_wall = sum(traced_times)
        untraced = statistics.median(sum(t) for t in times)
        layer = {name: list(v) for name, v in tracing.layer_metrics(tracer).items()}
        layer["trace.overhead_frac"] = [(traced_wall - untraced) / untraced, "ratio"]
        for name, value in probe().items():
            layer[name] = [value, "ms"]
        trace_info = _trace_info(tracer, tasks, args, traced_wall)
        tracer.write(args.out.parent / f"spans-{args.workload}-seed{args.seed}.jsonl")

    oracle_errors = _run_oracles(tasks)
    results = []
    for task in tasks:
        errors = [p[task.name] for p in passes] + [oracle_errors.get(task.name)]
        errors = sorted({e for e in errors if e})
        known = task.known_defect
        results.append({
            "task": task.name,
            "failed_passes": sum(1 for p in passes if p[task.name] or oracle_errors.get(task.name)),
            "errors": errors,
            "known_defect": known.why if known else None,
            "unexpected": [e for e in errors if not (known and e.startswith(known.error))],
        })
    print(json.dumps({
        "env": environment(),
        "task_times": times,
        "peak_rss_mb": peak_rss_mb,
        "passes": len(passes),
        "tasks": results,
        "layer": layer,
        "trace": trace_info,
    }))
    return 0


def _trace_info(tracer, tasks, args, traced_wall: float) -> dict:
    """Shares and count cross-checks printed next to the per-layer metrics."""
    info = {
        "traced_wall_s": traced_wall,
        "general_path_share": tracing.general_path_seconds(tracer) / traced_wall,
        "top_self_s": tracing.top_self_times(tracer),
        "spans": len(tracer.spans),
    }
    if args.workload.startswith("sweep-"):
        # every sweep cell makes `trials` battery applies, then 4 ascent
        # starts x ASCENT_STEPS x (apply + re-scoring apply) and one
        # adjoint per step
        from toruslab.experiments import ASCENT_STEPS

        cells = {"sweep-exotic": len(workloads.EXOTIC_N),
                 "sweep-wainger": 2 * 2 * len(workloads.WAINGER_N)}[args.workload]
        info["applies"] = tracer.count_where("operators.apply.general") + tracer.count_where(
            "operators.apply.multiplier")
        info["adjoints"] = tracer.count_where("operators.apply_adjoint")
        info["expected_applies"] = cells * (workloads.SWEEP_TRIALS + 4 * ASCENT_STEPS * 2)
        info["expected_adjoints"] = cells * 4 * ASCENT_STEPS
    if args.workload == "sweep-wainger":
        p4 = next(i for i, t in enumerate(tasks) if t.name == "sweep-p4")
        info["multiplier_profile_p4_N512"] = tracer.count_where(
            "operators.multiplier_profile", task=p4, max_count=512)
    return info


if __name__ == "__main__":
    sys.exit(main())
