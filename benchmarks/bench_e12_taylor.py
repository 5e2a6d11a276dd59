"""E12 — blocked/fused Taylor kernel vs the per-term matvec recurrence.

The Theorem 4.1 oracle's dominant cost at moderate dimensions is the
Lemma 4.2 Taylor apply: for ``m ≲ 1000`` at tight eps the JL sketch
degenerates to the identity, so the whole ``(m, m)`` block passes through
the polynomial every call.  This benchmark measures, across an
``(n, m, factor sparsity)`` grid:

* the latency of that Taylor block apply on the old path
  (``taylor_expm_apply`` driving the packed ``Psi``-matvec closure, the
  PR-1 state) against the fused block kernel the packed view now selects
  (``PackedGramFactors.taylor_kernel`` — Gram-space, densified, sparse, or
  factor recurrence, whichever the measured-cost policy picks), plus their
  agreement (same polynomial — must match to ~1e-12).

The per-term recurrence is the reference the supervisor's ``"reference"``
recovery rung still runs, so this baseline is kept code, not a path kept
alive only for the comparison.

Results are printed as a table and emitted machine-readably to
``BENCH_taylor.json`` at the repository root (override with ``--output``).
Run directly::

    PYTHONPATH=src python benchmarks/bench_e12_taylor.py [--quick]

The ``--quick`` mode is the CI smoke invocation: a reduced grid and fewer
repetitions, still exercising every code path.  The non-quick run enforces
the PR acceptance gate: >= 3x on the Taylor block apply for the dense rows
with m >= 128.
"""

from __future__ import annotations

import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from common import (  # noqa: E402
    emit_payload,
    environment_info,
    fresh_collection,
    make_argparser,
    make_operators,
    report_failures,
    time_call,
    DEFAULT_RANK,
    DEFAULT_SPARSE_DENSITY,
)
from repro.linalg.taylor import taylor_degree, taylor_expm_apply  # noqa: E402

DEFAULT_OUTPUT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_taylor.json"
)

# (n, m, factor_kind) grid; "sparse" factors carry ~5% nonzeros.
FULL_GRID = [
    (50, 64, "dense"),
    (200, 128, "dense"),
    (400, 128, "dense"),
    (200, 256, "dense"),
    (400, 256, "dense"),
    (400, 128, "sparse"),
]
QUICK_GRID = [
    (40, 32, "dense"),
    (60, 48, "sparse"),
]

ORACLE_EPS = 0.1
#: mid-run spectral-norm bound used for the microbenchmark degree — the
#: decision solver's Psi reaches well past this before terminating.
TAYLOR_KAPPA = 8.0


def bench_taylor_block(ops, n: int, m: int, repeats: int, seed: int) -> dict:
    """Old-vs-new latency of the degenerate-sketch Taylor block apply."""
    x = np.abs(np.random.default_rng(seed).random(n)) / n
    coll = fresh_collection(ops)
    packed = coll.packed()
    degree = taylor_degree(TAYLOR_KAPPA / 2.0, ORACLE_EPS / 2.0)
    block = np.eye(m)

    matvec = packed.matvec_fn(x)

    def old_apply():
        return taylor_expm_apply(lambda b: 0.5 * matvec(b), block, degree)

    def new_apply():
        # Kernel construction is part of the measured cost: without the
        # incremental engine the oracle rebuilds it every call from the
        # current weights.
        return packed.taylor_kernel(x).apply(block, degree, scale=0.5)

    old_result = old_apply()  # warm up + reference values
    new_result = new_apply()
    max_abs_err = float(np.max(np.abs(old_result - new_result)))
    t_old = time_call(old_apply, repeats)
    t_new = time_call(new_apply, repeats)
    kernel = packed.taylor_kernel(x)

    return {
        "degree": degree,
        "kernel_mode": packed.auto_taylor_mode(),
        "kernel_type": type(kernel).__name__,
        "old_seconds": t_old,
        "new_seconds": t_new,
        "speedup": t_old / max(t_new, 1e-12),
        "max_abs_err": max_abs_err,
    }


def main(argv=None) -> int:
    """Run the E12 grid and return the process exit code."""
    args = make_argparser(__doc__.splitlines()[0], DEFAULT_OUTPUT).parse_args(argv)

    grid = QUICK_GRID if args.quick else FULL_GRID
    repeats = 2 if args.quick else 5

    taylor_rows = []
    for n, m, kind in grid:
        ops = make_operators(n, m, kind, args.seed)
        q = sum(op.nnz for op in ops)
        base = {"n": n, "m": m, "factor_kind": kind, "rank": DEFAULT_RANK, "total_nnz": q}

        row = {**base, **bench_taylor_block(ops, n, m, repeats, args.seed)}
        taylor_rows.append(row)
        print(
            f"[taylor]   n={n:4d} m={m:4d} {kind:6s} k={row['degree']:3d} "
            f"{row['kernel_mode']:9s} old={row['old_seconds']*1e3:9.2f}ms "
            f"new={row['new_seconds']*1e3:8.2f}ms speedup={row['speedup']:6.1f}x "
            f"err={row['max_abs_err']:.2e}"
        )

    payload = {
        "experiment": "E12-taylor",
        "description": "blocked/fused Taylor kernel vs per-term matvec recurrence",
        "quick": args.quick,
        "config": {
            "rank": DEFAULT_RANK,
            "sparse_density": DEFAULT_SPARSE_DENSITY,
            "oracle_eps": ORACLE_EPS,
            "taylor_kappa": TAYLOR_KAPPA,
            "repeats": repeats,
            "seed": args.seed,
        },
        "environment": environment_info(),
        "taylor_block": taylor_rows,
    }
    emit_payload(payload, args.output)

    failures = []
    for row in taylor_rows:
        if row["max_abs_err"] > 1e-8:
            failures.append(f"taylor-apply mismatch {row['max_abs_err']:.2e} at {row}")
        if (
            not args.quick
            and row["factor_kind"] == "dense"
            and row["m"] >= 128
            and row["speedup"] < 3.0
        ):
            failures.append(
                f"taylor speedup {row['speedup']:.1f}x < 3x at n={row['n']}, m={row['m']}"
            )
    return report_failures(failures)


if __name__ == "__main__":
    raise SystemExit(main())
