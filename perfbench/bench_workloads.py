"""The benchmark's two workloads: seeded inputs, a timed phase, checks.

Each workload builds its inputs from the run's ``--seed`` alone, times
one phase through the public entry points of :mod:`repro`, and checks
every answer outside the timed region.  Entry points are looked up on the
:mod:`repro` package at call time, so the tracer's wrappers see them.

``decision-default`` is a *closed loop* of one caller solving a fixed set
of instances back to back; ``service-open`` is an *open loop* of
independent users whose requests arrive on a fixed Poisson schedule.
See ``README.md`` beside this file for why each one was chosen.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np
import scipy

import repro
from repro.core.batch import instance_rng
from repro.operators import FactorizedPSDOperator

from bench_tracing import IDLE, Tracer

#: ``setup_s`` is the median time of builds of the whole input set spread
#: over the run: one after every solve of a closed-loop workload, and
#: ``SETUP_BUILDS`` each before and after the timed phase of the service.
#: The shared host's load switches between a fast and a slow phase over
#: seconds, so builds made in one short burst all fell into one phase and
#: the median moved by up to 2x between runs.
SETUP_BUILDS = 8
#: Root seed of the fixed low-rank family whose basis the run's seed
#: permutes, and of the fixed arrival schedule of ``service-open``.
FAMILY_SEED = 20120522
#: Relative tolerance when comparing a re-verified certificate's value
#: with the value the solver reported.
VALUE_RTOL = 1e-9

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "goodput_rps": "1/s",
    "peak_rss_mb": "MB",
}

#: Layers whose self time is reported, by the name used in the metrics.
SELF_TIME_LAYERS = (
    "linalg.expm",
    "linalg.taylor",
    "linalg.trace_estimation",
    "linalg.norms",
    "operators.packed",
    "core.dotexp",
    "core.decision",
    "core.psi_state",
    "robustness.supervisor",
    "core.batch",
)

PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in SELF_TIME_LAYERS},
    "linalg.expm.calls": "count",
    "core.dotexp.calls": "count",
    "core.decision.iterations": "count",
    "core.batch.batch_size_mean": "count",
    "service.submit_s": "s",
    "service.step_self_s": "s",
    "service.queue_wait_p50_s": "s",
    "service.cache_hit_frac": "ratio",
    "core.dotexp.eigendecompositions": "count",
    "core.dotexp.matvecs": "count",
    "parallel.workdepth.work": "work",
    "parallel.workdepth.oracle_work": "work",
    "loadgen.idle_s": "s",
    "loadgen.lag_p90_s": "s",
    "residue_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "determinism.lanczos_variants": "count",
}


# ---------------------------------------------------------------- results
#: Work-depth labels charged from the measured sweep count of a Lanczos
#: call.  On the dense-state path ``scipy.sparse.linalg.eigsh`` is called
#: without ``v0`` or ``rng`` and starts from an OS-entropy random vector,
#: so these charges (and the last bits of the rescaled dual) vary from
#: solve to solve on identical input.  The determinism check holds every
#: other label exactly and reports these separately.
LANCZOS_LABELS = ("certificate-check", "dual-rescale")


@dataclass
class Counts:
    """Counts of one solve that repeat on every run of the same input."""

    iterations: int
    oracle_calls: int
    eigendecompositions: int
    matvecs: int
    work: float
    oracle_work: float
    #: Charged work per label, :data:`LANCZOS_LABELS` excluded.
    work_by_label: dict = field(default_factory=dict)
    #: Work charged under :data:`LANCZOS_LABELS` (not repeatable, see there).
    lanczos_work: float = 0.0

    @classmethod
    def of(cls, result) -> "Counts":
        """Counts of a ``DecisionResult``."""
        by_label = dict(result.work_depth.by_label)
        lanczos = sum(by_label.pop(label, 0.0) for label in LANCZOS_LABELS)
        return cls(
            iterations=int(result.iterations),
            oracle_calls=int(result.counters.calls),
            eigendecompositions=int(result.counters.eigendecompositions),
            matvecs=int(result.counters.matvecs),
            work=float(result.work_depth.work),
            oracle_work=float(by_label.get("oracle", 0.0)),
            work_by_label=by_label,
            lanczos_work=lanczos,
        )

    def key(self) -> tuple:
        """What the determinism check holds exactly."""
        return (
            self.iterations,
            self.oracle_calls,
            self.eigendecompositions,
            self.matvecs,
            tuple(sorted(self.work_by_label.items())),
        )

    def __add__(self, other: "Counts") -> "Counts":
        labels = set(self.work_by_label) | set(other.work_by_label)
        return Counts(
            iterations=self.iterations + other.iterations,
            oracle_calls=self.oracle_calls + other.oracle_calls,
            eigendecompositions=self.eigendecompositions + other.eigendecompositions,
            matvecs=self.matvecs + other.matvecs,
            work=self.work + other.work,
            oracle_work=self.oracle_work + other.oracle_work,
            work_by_label={
                label: self.work_by_label.get(label, 0.0) + other.work_by_label.get(label, 0.0)
                for label in labels
            },
            lanczos_work=self.lanczos_work + other.lanczos_work,
        )


ZERO_COUNTS = Counts(0, 0, 0, 0, 0.0, 0.0)


@dataclass
class RunReport:
    """Everything one run prints."""

    workload: str
    seed: int
    traced: bool
    metrics: dict[str, float]
    attempted: int
    #: Operation index -> what its checks found (failed operations only).
    problems: dict[int, list[str]] = field(default_factory=dict)
    environment: dict[str, Any] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.problems)

    @property
    def failures(self) -> list[str]:
        return [f"operation {op}: {p}" for op, found in sorted(self.problems.items()) for p in found]

    @property
    def correct(self) -> bool:
        return not self.problems

    def units(self) -> dict[str, str]:
        return PER_LAYER_UNITS if self.traced else END_TO_END_UNITS


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def environment(seed: int) -> dict[str, Any]:
    """Interpreter, library and machine facts recorded with every run."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


# ---------------------------------------------------------------- inputs
def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(key)))


def lowrank_factors(seed: int, index: int, n: int, m: int, rank: int = 2) -> list[np.ndarray]:
    """``n`` Gaussian ``(m, rank)`` factors scaled by ``1/sqrt(m)``.

    The ``kind="lowrank"`` family of ``benchmarks/common.py``.
    """
    rng = _rng(seed, index)
    scale = 1.0 / np.sqrt(m)
    return [scale * rng.standard_normal((m, rank)) for _ in range(n)]


def collection(factors: list[np.ndarray]):
    """The library's validated constraint collection over ``factors``.

    This is the part of set-up that ``setup_s`` times: drawing the arrays
    is the benchmark's own generator and happens once, untimed.
    """
    return repro.ConstraintCollection([FactorizedPSDOperator(f) for f in factors])


def permuted_lowrank_factors(seed: int, index: int, n: int, m: int, rank: int = 2):
    """Base instance ``index`` of a fixed low-rank family, in a seed-drawn basis.

    The base factors are :func:`lowrank_factors` on :data:`FAMILY_SEED`;
    the run's seed draws a signed permutation ``P`` per instance and the
    solver sees the factors ``P F``, i.e. the constraints ``P A_i P^T``.
    The inputs differ bitwise between seeds while the spectra and the
    optimum do not.
    """
    rng = _rng(seed, index)
    perm, signs = rng.permutation(m), rng.choice((-1.0, 1.0), size=(m, 1))
    return [signs * f[perm] for f in lowrank_factors(FAMILY_SEED, index, n, m, rank)]


# ---------------------------------------------------------------- checks
def check_decision(constraints, result) -> list[str]:
    """Re-verify a decision certificate with the public verifiers."""
    if result.status is not repro.SolveStatus.CERTIFIED:
        return [f"status {result.status.value}"]
    if result.is_dual:
        cert = repro.verify_dual(constraints, result.dual_x)
        if not cert.feasible:
            return [f"dual certificate infeasible (lambda_max={cert.lambda_max:.6g})"]
        if not np.isclose(cert.value, result.dual_value, rtol=VALUE_RTOL, atol=0.0):
            return [f"dual value {cert.value:.12g} != reported {result.dual_value:.12g}"]
        return []
    cert = repro.verify_primal(constraints, result.primal_y / result.primal_min_dot)
    if not cert.feasible:
        return [f"primal certificate infeasible (min_dot={cert.min_dot:.6g})"]
    return []


# ---------------------------------------------------------------- shared
def _timed(fn: Callable[[], Any]) -> tuple[Any, float]:
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def _build_times(build: Callable[[], Any], count: int) -> list[float]:
    """Times of ``count`` builds of the inputs; each build is discarded."""
    return [_timed(build)[1] for _ in range(count)]


def _fresh_solve(build: Callable[[], Any], solve, traced: bool) -> tuple[Counts, float]:
    """Counts and wall time of one solve of a freshly built input."""
    problem = build()
    with Tracer() if traced else contextlib.nullcontext():
        result, seconds = _timed(lambda: solve(problem))
    return Counts.of(result), seconds


def _determinism(runs: dict[str, Counts]) -> tuple[list[str], int]:
    """Compare the counts of several solves of one input with the first.

    Returns the failures (runs whose :meth:`Counts.key` differs from the
    first run's) and the number of distinct :data:`LANCZOS_LABELS` charges
    seen (1 when they repeat).
    """
    (first, reference), *others = runs.items()
    failures = [
        f"{label} run counts {counts.key()} != {first} run {reference.key()}"
        for label, counts in others
        if counts.key() != reference.key()
    ]
    return failures, len({counts.lanczos_work for counts in runs.values()})


def _layer_metrics(
    tracer: Tracer, wall: float, totals: Counts, overhead: float, lanczos_variants: int
) -> dict[str, float]:
    t = tracer.totals
    metrics = {f"{layer}.self_s": t[layer].self_s for layer in SELF_TIME_LAYERS}
    metrics.update(
        {
            "linalg.expm.calls": t["linalg.expm"].calls,
            "core.dotexp.calls": t["core.dotexp"].calls,
            "core.decision.iterations": totals.iterations,
            "service.submit_s": t["service.submit"].self_s,
            "service.step_self_s": t["service.step"].self_s,
            "core.dotexp.eigendecompositions": totals.eigendecompositions,
            "core.dotexp.matvecs": totals.matvecs,
            "parallel.workdepth.work": totals.work,
            "parallel.workdepth.oracle_work": totals.oracle_work,
            "loadgen.idle_s": t[IDLE].self_s,
            "residue_s": wall - tracer.self_time_sum(),
            "trace.wall_s": wall,
            "trace.overhead_ratio": overhead,
            "determinism.lanczos_variants": lanczos_variants,
            # Service-only figures; the service workload overwrites them.
            "core.batch.batch_size_mean": 0.0,
            "service.queue_wait_p50_s": 0.0,
            "service.cache_hit_frac": 0.0,
            "loadgen.lag_p90_s": 0.0,
        }
    )
    return metrics


def _save_spans(tracer: Tracer, workload: str, seed: int, out_dir: str | None) -> None:
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        tracer.save(os.path.join(out_dir, f"spans-{workload}-seed{seed}.npz"))


# ---------------------------------------------------------------- closed loop
@dataclass(frozen=True)
class SolverWorkload:
    """One caller solving a fixed set of instances back to back.

    ``nominal_solve_s`` sizes the set from ``--seconds`` (the count is a
    function of the arguments only, never of measured time).
    """

    name: str
    nominal_solve_s: float
    #: ``(seed, index) -> factors`` of one instance (the untimed draw).
    data: Callable[[int, int], Any]
    solve: Callable[[Any], Any]
    check: Callable[[Any, Any], list[str]]

    def count(self, seconds: float) -> int:
        return max(2, round(seconds / self.nominal_solve_s))

    def run(self, seed: int, seconds: float, traced: bool, span_dir: str | None = None) -> RunReport:
        count = self.count(seconds)
        data = [self.data(seed, i) for i in range(count)]
        build_all = lambda: [collection(d) for d in data]  # noqa: E731
        instances = build_all()

        # Untimed warm-up on a fresh copy of instance 0: the repeat run of
        # the determinism check.
        build_first = lambda: collection(self.data(seed, 0))  # noqa: E731
        warm_counts, _ = _fresh_solve(build_first, self.solve, traced=False)

        tracer = Tracer() if traced else None
        results, solve_times, setup_times = [], [], []
        with tracer or contextlib.nullcontext():
            for index, problem in enumerate(instances):
                if tracer is not None:
                    tracer.request_id = index
                result, elapsed = _timed(lambda: self.solve(problem))
                results.append(result)
                solve_times.append(elapsed)
                if not traced:
                    setup_times += _build_times(build_all, 1)
        wall = sum(solve_times)
        rss = peak_rss_mb()

        problems = {}
        for index, (problem, result) in enumerate(zip(instances, results)):
            found = self.check(problem, result)
            if found:
                problems[index] = found
        certified = count - len(problems)
        counts = [Counts.of(r) for r in results]
        # Instance 0 once more in the other tracing mode; with the timed
        # solve that gives one traced and one untraced time of one input.
        other_counts, other_seconds = _fresh_solve(build_first, self.solve, traced=not traced)
        mismatches, variants = _determinism(
            {
                "timed": counts[0],
                "warm-up": warm_counts,
                "untraced" if traced else "traced": other_counts,
            }
        )
        if mismatches:
            problems.setdefault(0, []).extend(mismatches)
        overhead = solve_times[0] / other_seconds if traced else other_seconds / solve_times[0]

        if traced:
            total = sum(counts, ZERO_COUNTS)
            metrics = _layer_metrics(tracer, wall, total, overhead, variants)
            _save_spans(tracer, self.name, seed, span_dir)
        else:
            # Instances of one set can differ in iteration count, so the
            # latency samples are per-iteration times, averaged within a solve.
            iteration_s = [t / c.iterations for t, c in zip(solve_times, counts)]
            metrics = {
                "setup_s": statistics.median(setup_times),
                "solve_s": wall / count,
                "latency_p50_s": percentile(iteration_s, 50),
                "latency_p90_s": percentile(iteration_s, 90),
                "goodput_rps": certified / wall,
                "peak_rss_mb": rss,
            }
        return RunReport(self.name, seed, traced, metrics, attempted=count, problems=problems)


# ---------------------------------------------------------------- open loop
@dataclass(frozen=True)
class ServiceWorkload:
    """Independent users sending decision requests into ``SolveService``.

    Arrivals follow a fixed Poisson schedule of ``rate`` requests per
    second, rescaled so the last one is due at ``requests / rate``.  A
    ``hot_frac`` share of the requests repeats one of ``hot`` instances
    that the warm-up already solved, so exactly those are cache hits.
    The schedule is drawn from :data:`FAMILY_SEED`, so every seed replays
    the same arrival times and hit pattern; the run's seed draws the
    payloads (:func:`permuted_lowrank_factors`) and the solver's streams.
    """

    name: str
    n: int
    m: int
    rate: float
    hot: int
    hot_frac: float
    limit_s: float
    options: Any
    #: Large enough that no entry is ever evicted, so hits do not depend on
    #: the order in which completions and submissions interleave.
    cache_size: int = 4096

    def count(self, seconds: float) -> int:
        return max(self.hot + 2, round(seconds * self.rate))

    def schedule(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Due times (s) and instance keys; a key below ``hot`` is a hot repeat."""
        rng = _rng(FAMILY_SEED, 1 << 20)
        due = np.cumsum(rng.exponential(1.0 / self.rate, count))
        due *= (count / self.rate) / due[-1]
        keys = np.arange(self.hot, self.hot + count)
        hot_positions = rng.choice(count, size=round(self.hot_frac * count), replace=False)
        keys[hot_positions] = rng.integers(0, self.hot, hot_positions.size)
        return due, keys

    def factors(self, seed: int, key: int) -> list[np.ndarray]:
        return permuted_lowrank_factors(seed, int(key), self.n, self.m)

    def _build(self, seed: int, factors: dict, keys: np.ndarray):
        service = repro.SolveService(options=self.options, seed=seed, cache_size=self.cache_size)
        warm = [collection(factors[k]) for k in range(self.hot)]
        payloads = [collection(factors[k]) for k in keys]
        return service, warm, payloads

    def run(self, seed: int, seconds: float, traced: bool, span_dir: str | None = None) -> RunReport:
        count = self.count(seconds)
        due, keys = self.schedule(count)
        factors = {int(k): self.factors(seed, k) for k in {*range(self.hot), *keys}}
        build_all = lambda: self._build(seed, factors, keys)  # noqa: E731
        service, warm, payloads = build_all()
        setup_times = [] if traced else _build_times(build_all, SETUP_BUILDS)

        # Warm-up: solve the hot instances, untimed, so their repeats hit.
        warm_ids = [service.submit(c) for c in warm]
        service.drain()
        hot_results = [service.response(i).result for i in warm_ids]
        hot_problems = [check_decision(c, r) for c, r in zip(warm, hot_results)]

        tracer = Tracer() if traced else None
        clock = time.perf_counter
        latency = np.full(count, np.inf)
        lag = np.zeros(count)
        responses: dict[int, Any] = {}
        request_of: dict[int, int] = {}
        outstanding: dict[int, float] = {}  # request id -> submit time
        queue_wait, batch_sizes = [], []
        busy = 0.0
        with tracer or contextlib.nullcontext():
            start = clock()
            position = 0
            while position < count or outstanding:
                now = clock() - start
                while position < count and due[position] <= now:
                    if tracer is not None:
                        tracer.request_id = position
                    lag[position] = now - due[position]
                    rid = service.submit(payloads[position])
                    submitted = clock() - start
                    request_of[rid] = position
                    response = service.response(rid)
                    if response is None:
                        outstanding[rid] = submitted
                    else:
                        responses[rid] = response
                        latency[position] = submitted - due[position]
                    position += 1
                    now = clock() - start
                if outstanding:
                    if tracer is not None:
                        tracer.request_id = -1
                    began = clock() - start
                    service.step()
                    ended = clock() - start
                    busy += ended - began
                    finished = [rid for rid in outstanding if service.response(rid) is not None]
                    if finished:
                        batch_sizes.append(len(finished))
                    for rid in finished:
                        queue_wait.append(began - outstanding.pop(rid))
                        responses[rid] = service.response(rid)
                        latency[request_of[rid]] = ended - due[request_of[rid]]
                    if not finished:  # nothing ready yet (retry backoff)
                        time.sleep(1e-3)
                elif position < count:
                    wait = due[position] - (clock() - start)
                    if wait > 0:
                        with tracer.span(IDLE) if tracer is not None else contextlib.nullcontext():
                            time.sleep(wait)
            wall = clock() - start
        rss = peak_rss_mb()
        if not traced:
            setup_times += _build_times(build_all, SETUP_BUILDS)

        # ---- checks (untimed) ----------------------------------------
        problems: dict[int, list[str]] = {}
        solved = {}
        hits = 0
        for rid, position in request_of.items():
            response = responses[rid]
            found = []
            if response.outcome is not repro.RequestOutcome.COMPLETED:
                found.append(f"outcome {response.outcome.value} ({response.detail})")
            elif response.from_cache:
                hits += 1
                key = int(keys[position])
                if key >= self.hot or response.result is not hot_results[key]:
                    found.append("cache hit does not return the first solve of its instance")
                else:
                    found += hot_problems[key]
            else:
                found += check_decision(payloads[position], response.result)
                solved[rid] = response.result
            if found:
                problems[position] = found
        ok = np.ones(count, dtype=bool)
        ok[list(problems)] = False
        reference_rid = min(solved) if solved else None
        overhead, variants = float("nan"), 0
        if reference_rid is not None:
            # The service solves request ``rid`` on ``instance_rng(seed, rid)``;
            # a direct decision_psdp call on that stream must count the same.
            position = request_of[reference_rid]
            options = dataclasses.replace(self.options, rng=instance_rng(seed, reference_rid))
            fresh = {
                traced_check: _fresh_solve(
                    lambda: collection(self.factors(seed, keys[position])),
                    lambda c: repro.decision_psdp(c, options=options),
                    traced=traced_check,
                )
                for traced_check in (True, False)
            }
            mismatches, variants = _determinism(
                {
                    "timed": Counts.of(solved[reference_rid]),
                    "traced": fresh[True][0],
                    "untraced": fresh[False][0],
                }
            )
            if mismatches:
                problems.setdefault(position, []).extend(mismatches)
            overhead = fresh[True][1] / fresh[False][1]

        if traced:
            total = sum((Counts.of(r) for r in solved.values()), ZERO_COUNTS)
            metrics = _layer_metrics(tracer, wall, total, overhead, variants)
            metrics.update(
                {
                    "core.batch.batch_size_mean": float(np.mean(batch_sizes)) if batch_sizes else 0.0,
                    "service.queue_wait_p50_s": percentile(queue_wait, 50) if queue_wait else 0.0,
                    "service.cache_hit_frac": hits / count,
                    "loadgen.lag_p90_s": percentile(lag, 90),
                }
            )
            _save_spans(tracer, self.name, seed, span_dir)
        else:
            metrics = {
                "setup_s": statistics.median(setup_times),
                "solve_s": busy / max(len(solved), 1),
                "latency_p50_s": percentile(latency, 50),
                "latency_p90_s": percentile(latency, 90),
                "goodput_rps": int(np.sum(ok & (latency <= self.limit_s))) / wall,
                "peak_rss_mb": rss,
            }
        return RunReport(self.name, seed, traced, metrics, attempted=count, problems=problems)


# ---------------------------------------------------------------- catalogue
def make_workloads(tiny: bool = False) -> dict[str, Any]:
    """The two workloads; ``tiny=True`` shrinks every size for the tests."""
    dn, dm = (4, 16) if tiny else (16, 256)
    sn, sm = (4, 16) if tiny else (16, 128)

    def default_solve(constraints):
        return repro.decision_psdp(constraints, epsilon=0.2)

    workloads = [
        SolverWorkload(
            name="decision-default",
            nominal_solve_s=0.01 if tiny else 0.5,
            data=lambda seed, i: lowrank_factors(seed, i, dn, dm),
            solve=default_solve,
            check=check_decision,
        ),
        ServiceWorkload(
            name="service-open",
            n=sn,
            m=sm,
            rate=200.0 if tiny else 8.0,
            hot=8,
            hot_frac=0.25,
            limit_s=2.5 if tiny else 0.25,
            options=repro.DecisionOptions(oracle="fast", epsilon=0.2),
        ),
    ]
    return {w.name: w for w in workloads}

