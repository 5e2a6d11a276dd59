"""Tests of the benchmark itself, on tiny versions of its workloads.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import repro  # noqa: E402
from repro.core import dotexp  # noqa: E402

import bench_tracing  # noqa: E402
import run  # noqa: E402
from bench_workloads import (  # noqa: E402
    END_TO_END_UNITS,
    PER_LAYER_UNITS,
    SELF_TIME_LAYERS,
    collection,
    environment,
    lowrank_factors,
    make_workloads,
    permuted_lowrank_factors,
)

WORKLOADS = make_workloads(tiny=True)
SECONDS = 0.2


@pytest.fixture(scope="module")
def reports():
    """One untraced and one traced tiny run of every workload."""
    return {
        (name, traced): workload.run(seed=3, seconds=SECONDS, traced=traced, span_dir=None)
        for name, workload in WORKLOADS.items()
        for traced in (False, True)
    }


def test_workload_names_match_the_cli():
    assert tuple(WORKLOADS) == run.WORKLOADS


def test_benchmark_json_declares_the_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("traced", [False, True])
def test_every_declared_metric_is_emitted_with_its_unit(reports, name, traced):
    report = reports[name, traced]
    report.environment = environment(3)
    assert report.correct, report.failures
    assert report.attempted >= 1 and report.failed == 0
    last = json.loads(run.render(report)[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    expected = PER_LAYER_UNITS if traced else END_TO_END_UNITS
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
    assert all(np.isfinite(v["value"]) for v in last["metrics"].values())
    if not traced:
        assert all(v["value"] > 0 for v in last["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_self_times_and_residue_add_up_to_the_traced_wall_time(reports, name):
    metrics = reports[name, True].metrics
    accounted = (
        sum(metrics[f"{layer}.self_s"] for layer in SELF_TIME_LAYERS)
        + metrics["service.submit_s"]
        + metrics["service.step_self_s"]
        + metrics["loadgen.idle_s"]
        + metrics["residue_s"]
    )
    assert accounted == pytest.approx(metrics["trace.wall_s"], rel=1e-9, abs=1e-9)
    assert 0.0 <= metrics["residue_s"] <= metrics["trace.wall_s"]
    assert metrics["determinism.lanczos_variants"] >= 1


def test_layers_that_run_are_traced(reports):
    default = reports["decision-default", True].metrics
    assert default["linalg.expm.calls"] > 0 and default["linalg.taylor.self_s"] == 0.0
    service = reports["service-open", True].metrics
    assert service["linalg.taylor.self_s"] > 0 and service["linalg.expm.calls"] == 0
    assert service["core.batch.self_s"] > 0 and service["service.submit_s"] > 0
    assert service["service.cache_hit_frac"] == pytest.approx(0.25, abs=0.05)


def test_spans_nest_and_self_times_cover_the_root_spans():
    constraints = collection(lowrank_factors(0, 0, 6, 32))
    with bench_tracing.Tracer() as tracer:
        tracer.request_id = 7
        repro.decision_psdp(constraints, epsilon=0.3, oracle="fast")
    start, end = np.array(tracer.start), np.array(tracer.end)
    row = {span: i for i, span in enumerate(tracer.span_id)}
    parent = np.array([row.get(p, -1) for p in tracer.parent])
    assert len(start) > 0 and np.all(end >= start)
    assert np.array_equal(parent >= 0, np.array(tracer.parent) >= 0)
    child = parent >= 0
    assert np.all(start[child] >= start[parent[child]])
    assert np.all(end[child] <= end[parent[child]])
    assert set(tracer.rid) == {7}
    assert tracer.self_time_sum() == pytest.approx(tracer.root_time_sum(), rel=1e-9)


def test_tracer_restores_every_wrapped_callable():
    before = (repro.decision_psdp, dotexp.expm_normalized, dotexp.FastDotExpOracle.__call__)
    with bench_tracing.Tracer():
        assert repro.decision_psdp is not before[0]
        assert dotexp.expm_normalized is not before[1]
    after = (repro.decision_psdp, dotexp.expm_normalized, dotexp.FastDotExpOracle.__call__)
    assert after == before


def test_same_seed_same_inputs():
    for p, q in zip(lowrank_factors(5, 2, 4, 16), lowrank_factors(5, 2, 4, 16)):
        np.testing.assert_array_equal(p, q)


def test_same_seed_same_arrival_schedule():
    service = WORKLOADS["service-open"]
    due, keys = service.schedule(40)
    due2, keys2 = service.schedule(40)
    np.testing.assert_array_equal(due, due2)
    np.testing.assert_array_equal(keys, keys2)
    assert np.all(np.diff(due) > 0) and due[-1] == pytest.approx(40 / service.rate)
    assert int(np.sum(keys < service.hot)) == round(service.hot_frac * 40)


def test_seed_permutes_the_service_payloads_without_changing_them():
    a, b, c = (
        collection(permuted_lowrank_factors(seed, 2, 4, 16)).to_dense_list() for seed in (5, 5, 6)
    )
    for x, y, z in zip(a, b, c):
        np.testing.assert_array_equal(x, y)
        assert not np.array_equal(x, z)
        np.testing.assert_allclose(np.linalg.eigvalsh(x), np.linalg.eigvalsh(z), atol=1e-12)


def test_cli_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decision-default",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
