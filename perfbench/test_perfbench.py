"""Self-test of the benchmark on cheap slices of each workload.

Run from the repository root:

    python3 -m pytest -q perfbench

It checks that the exact counters of two traced runs agree, that the zero
calls each control workload predicts hold, that every per-layer metric
BENCHMARK.json names is measured, that the correctness gate counts a
digest mismatch as failures, and that the pace sampler's time stays out of
the program's timings.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pace  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))

SEED = 7


def _cheap(workload, query):
    g, r, d, p = query
    if workload == "verify_grid":
        return g == 2 and r <= 2
    if workload == "hodge_queries":
        return g <= 3 and (r <= 2 or p == 1)
    return g == 4 and p == 1


def _traced_run(workload):
    """Fresh import, one traced pass over the cheap slice."""
    _, mods, queries = run.setup(workload, SEED)
    queries = [q for q in queries if _cheap(workload, q)]
    tracer = spans.Tracer()
    tracer.install(mods)
    try:
        _, _, results = run.run_pass(workload, mods, queries, SEED, tracer)
    finally:
        tracer.uninstall()
    assert results and all(result is not None and result[0] for result in results)
    return tracer.metrics()


def _exact(metrics):
    return {k: v for k, v in metrics.items()
            if k.endswith(".calls") or k in spans.COUNTERS}


@pytest.fixture(scope="module")
def traced():
    return {w: (_traced_run(w), _traced_run(w)) for w in workloads.WORKLOADS}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_exact_counters_repeat(traced, workload):
    first, second = traced[workload]
    assert _exact(first) == _exact(second)


def test_predicted_zeros(traced):
    hodge, _ = traced["hodge_queries"]
    for name in ("cli.identity_test", "adhm.adhm_class", "adhm.partition_sum",
                 "series_engine.TRational.add", "series_engine.TRational.mul"):
        assert hodge[name + ".calls"] == 0, name
    assert hodge["base_rings.UVLaurent.mul.calls"] > 0
    assert hodge["series_engine.BiSeries.mul.calls"] > 0

    weil, _ = traced["weil_large_genus"]
    assert weil["base_rings.UVLaurent.mul.calls"] == 0
    assert weil["base_rings.UVLaurent.mul.term_pairs"] == 0
    assert weil["series_engine.TRational.add.calls"] > 0

    grid, _ = traced["verify_grid"]
    assert grid["series_engine.TRational.add.calls"] > 0
    assert grid["base_rings.UVLaurent.mul.calls"] > 0


def test_self_time_within_total(traced):
    metrics, _ = traced["verify_grid"]
    for name in spans.span_names():
        assert metrics[name + ".self_s"] <= metrics[name + ".s"] + 1e-9, name


def test_every_per_layer_metric_is_measured(traced):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics, _ = traced["verify_grid"]
    measured = set(metrics) | {"trace.wall_s", "trace.overhead_s"}
    assert [m["name"] for m in spec["per_layer"] if m["name"] not in measured] == []


def test_uninstall_restores_originals():
    _, mods, _ = run.setup("hodge_queries", SEED)
    epoly = mods["moduli_formulas"].epoly
    mul = mods["base_rings"].UVLaurent.__dict__["__mul__"]
    tracer = spans.Tracer()
    tracer.install(mods)
    assert mods["moduli_formulas"].epoly is not epoly
    tracer.uninstall()
    assert mods["moduli_formulas"].epoly is epoly
    assert mods["base_rings"].UVLaurent.__dict__["__mul__"] is mul


def test_queries_depend_only_on_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.generate(workload, SEED) == workloads.generate(workload, SEED)
    assert workloads.generate("hodge_queries", 1) != workloads.generate("hodge_queries", 2)


def test_digest_mismatch_fails_every_query():
    _, mods, queries = run.setup("hodge_queries", SEED)
    queries = [q for q in queries if q[1] == 1][:3]
    _, _, results = run.run_pass("hodge_queries", mods, queries, SEED)
    digest, failed = run.check_pass(mods, queries, results, None)
    assert failed == 0
    assert run.check_pass(mods, queries, results, digest) == (digest, 0)
    assert run.check_pass(mods, queries, results, "0" * 64) == (digest, len(queries))


def test_pace_time_stays_out_of_timings():
    pace.start()
    try:
        start, clock_start = run.perf_counter(), pace.clock()
        while run.perf_counter() - start < 1.2:
            pass
        wall, clocked = run.perf_counter() - start, pace.clock() - clock_start
    finally:
        pace.stop()
    assert len(pace.samples) >= 3  # one at start, then every INTERVAL
    assert clocked == pytest.approx(wall - sum(pace.samples[1:]), abs=1e-3)
    assert pace.scale() == pace.REFERENCE_S / run.statistics.median(pace.samples)
