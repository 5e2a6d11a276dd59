"""End-to-end benchmark of the positive-SDP solver: one workload per run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload decision-default --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (spans are written under ``.perfbench/``).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero when any answer fails its check.  ``README.md`` beside this file
describes the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

WORKLOADS = ("decision-default", "service-open")

#: OpenBLAS otherwise starts one spinning thread per core; the benchmark's
#: load is one process with no worker threads, so BLAS gets one thread.
BLAS_THREADS = "1"

#: Where a traced run writes its spans, relative to the working directory.
SPAN_DIR = ".perfbench"

_HERE = os.path.dirname(os.path.abspath(__file__))


def prepare_process() -> None:
    """Pin the BLAS thread count and put ``src`` and this directory on the path.

    Runs before NumPy is first imported, which is when OpenBLAS reads the
    thread count.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [os.path.join(os.path.dirname(_HERE), "src"), _HERE]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def render(report) -> list[str]:
    """Human-readable lines, then the one-line JSON result."""
    units = report.units()
    lines = [f"perfbench {report.workload} seed={report.seed} trace={int(report.traced)}"]
    for name, unit in units.items():
        lines.append(f"  {name:34s} {report.metrics[name]:.6g} {unit}")
    lines.append(
        f"  {'failed_frac':34s} {report.failed / report.attempted:.6g} ratio "
        f"({report.failed} of {report.attempted})"
    )
    lines += [f"FAIL {failure}" for failure in report.failures]
    lines.append("env " + json.dumps(report.environment, sort_keys=True))
    lines.append(
        json.dumps(
            {
                "correct": report.correct,
                "attempted": report.attempted,
                "failed": report.failed,
                "metrics": {
                    name: {"value": float(report.metrics[name]), "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare_process()
    from bench_workloads import environment, make_workloads

    workload = make_workloads()[args.workload]
    report = workload.run(args.seed, args.seconds, bool(args.trace), span_dir=SPAN_DIR)
    report.environment = environment(args.seed)
    print("\n".join(render(report)), flush=True)
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
