"""Every workload once at its default seed, tracing off, as one table.

    python3 perfbench/summary.py [--seconds S]

Prints wall_s, setup_s, peak_rss_mb and failed_frac for each workload, by
name, with unit and sample count.  Exit code 2 if any run fails.
"""

from __future__ import annotations

import argparse
import subprocess
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=20.0, help="measured time per run")
    args = parser.parse_args(argv)
    print(f"{'workload':14} {'wall_s [s]':>22} {'setup_s [s]':>20} {'peak_rss_mb [MiB]':>22} "
          f"{'failed_frac':>26}")
    for workload in run.WORKLOADS:
        opts = argparse.Namespace(workload=workload, seed=run.DEFAULT_SEEDS[workload],
                                  seconds=args.seconds, trace=0)
        try:
            raw = run.run(opts)
        except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as err:
            print(f"error: {workload}: {err}", file=sys.stderr)
            return 2
        e2e, counts = run.end_to_end(raw), run.tally(raw)
        failed_frac = counts["failed"] / counts["attempted"]
        print(f"{workload:14} {e2e['wall_s'][0]:>12.4f} (n={len(raw['task_times']):>2}) "
              f"{e2e['setup_s'][0]:>12.4f} (n={len(raw['setups'])}) "
              f"{e2e['peak_rss_mb'][0]:>14.1f} (n=1) "
              f"{failed_frac:>8.4f} ({counts['failed']}/{counts['attempted']} failed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
