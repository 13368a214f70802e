"""Benchmark for motiveforge: one seeded workload per run, timed end to end
or traced by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify_grid --seed 0 --seconds 36 --trace 0

The package is imported from ``src/`` of the checkout.  An untraced run
(``--trace 0``) answers the workload's query set once in full, then goes on
query by query, pass after pass, until ``--seconds`` have gone by; it times
the set-up again at points spread over the first pass and reports the
end-to-end metrics named in BENCHMARK.json, its times scaled to a reference
pace of the host sampled during the run (``pace.py``).  A traced run
(``--trace 1``) answers the query set once untraced and once with span
wrappers attached, and reports the per-layer metrics named there.

Every answer is checked: each query's identity must hold, a full pass's
output digest must equal the one in ``perfbench/reference.json`` at the
reference seed, and every later answer must repeat the first pass's output.
A digest mismatch marks every query of the pass failed, because the digest
cannot say which one differed.  The last line of standard output is the
JSON result; the line before it, and a file under ``perfbench/out/``,
record the environment, the sample counts behind each median, and the
digests.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import pace
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
SRC = ROOT / "src"
PACKAGE = "motiveforge"
MODULES = ("adhm", "base_rings", "cli", "curve_ring", "export",
           "moduli_formulas", "series_engine")
SETUP_REPEATS = 11


def setup(workload: str, seed: int):
    """Import the package afresh and generate the queries: what a run pays
    before its first query."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    gc.collect()  # free the previous import's cycles outside the timing
    start = pace.clock()
    importlib.import_module(PACKAGE)
    mods = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
    queries = workloads.generate(workload, seed)
    return pace.clock() - start, mods, queries


def run_pass(workload: str, mods, queries, seed: int, tracer=None, between=None):
    """Answer every query once.  Returns (seconds spent answering, per-query
    seconds, per-query (held, output) or None where the query raised).
    ``between(idx)`` runs after query ``idx``, outside the timing."""
    gc.collect()
    times, results = [], []
    for idx, query in enumerate(queries):
        if tracer is not None:
            tracer.query = idx
        start = pace.clock()
        try:
            result = workloads.answer(workload, mods, query, seed)
        except Exception:  # a raising query is a failed query; keep going
            traceback.print_exc(file=sys.stderr)
            result = None
        times.append(pace.clock() - start)
        results.append(result)
        if between is not None:
            between(idx)
    return sum(times), times, results


def check_pass(mods, queries, results, reference):
    """Digest the pass's canonical outputs in query order and count failed
    queries.  ``reference`` is the expected digest or None."""
    records = []
    failed = 0
    for query, result in sorted(zip(queries, results), key=lambda qr: qr[0]):
        if result is None or not result[0]:
            print(f"perfbench: query {query} failed", file=sys.stderr)
            failed += 1
        output = None if result is None else workloads.canonical(mods, result[1])
        records.append({"query": list(query), "output": output})
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    if reference is not None and digest != reference:
        print(f"perfbench: digest {digest} differs from reference {reference}",
              file=sys.stderr)
        failed = len(queries)
    return digest, failed


def environment(seed: int):
    """Python version, core counts, CPU model, commit and source digest."""
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    source = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


def answer_until(args, mods, queries, reference, setups):
    """Answer the query set in order, pass after pass, until --seconds have
    gone by; time the set-up again at points spread over the first pass.
    Returns per-query times, queries attempted and failed, and the first
    pass's digest.

    The run stops between two queries: after the first full pass, the next
    query starts only if half its previous time still fits before the
    deadline, so a run lasts about --seconds however long one pass is.  The
    first pass is checked against the reference digest; every later answer
    must hold its identity and give the first pass's output."""
    spaced = {i * len(queries) // SETUP_REPEATS for i in range(SETUP_REPEATS)}

    def time_setup(idx):
        if idx in spaced:
            setups.append(setup(args.workload, args.seed)[0])

    deadline = perf_counter() + args.seconds
    _, times, results = run_pass(args.workload, mods, queries, args.seed,
                                 between=time_setup)
    digest, failed = check_pass(mods, queries, results, reference)
    expected = [None if result is None else workloads.canonical(mods, result[1])
                for result in results]
    per_query = [[t] for t in times]
    attempted = len(queries)
    idx = 0
    while perf_counter() + per_query[idx][-1] / 2 <= deadline:
        if idx == 0:
            gc.collect()
        start = pace.clock()
        try:
            result = workloads.answer(args.workload, mods, queries[idx], args.seed)
        except Exception:  # a raising query is a failed query; keep going
            traceback.print_exc(file=sys.stderr)
            result = None
        per_query[idx].append(pace.clock() - start)
        attempted += 1
        if (result is None or not result[0]
                or workloads.canonical(mods, result[1]) != expected[idx]):
            print(f"perfbench: query {queries[idx]} failed on a later pass",
                  file=sys.stderr)
            failed += 1
        idx = (idx + 1) % len(queries)
    return per_query, attempted, failed, digest


def measure(args, mods, queries, reference):
    """Untraced queries for --seconds; end-to-end metrics and sample counts.

    ``wall_s`` is the sum over queries of each query's median time: the
    query set answered at the run's typical speed, whatever share of it the
    last pass reached.  ``setup_s`` is the median of SETUP_REPEATS set-ups
    spread over the first pass; queries keep using the modules of the first
    import.  Both are given at the reference pace (see pace.py); the raw
    seconds go to the info record."""
    setups = []
    pace.start()
    try:
        per_query, attempted, failed, digest = answer_until(args, mods, queries,
                                                            reference, setups)
    finally:
        pace.stop()
    scale = pace.scale()
    medians = [statistics.median(samples) for samples in per_query]
    metrics = {
        "wall_s": sum(medians) * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setups) * scale,
    }
    # the slowest query is recorded, not bounded: one query of a few seconds
    # swings with the host's speed more than any bound allows
    slowest = max(range(len(queries)), key=medians.__getitem__)
    counts = [len(samples) for samples in per_query]
    record = {
        "samples": {"wall_s": {"queries": attempted, "per_query_min": min(counts),
                               "per_query_max": max(counts)},
                    "setup_s": len(setups), "peak_rss_mb": 1,
                    "pace": len(pace.samples)},
        "raw_wall_s": sum(medians),
        "raw_setup_s": statistics.median(setups),
        "pace_kernel_s": statistics.median(pace.samples),
        "scale": scale,
        "slowest_query": {"query": queries[slowest], "samples": counts[slowest],
                          "median_s": medians[slowest]},
        "first_pass_s": sum(samples[0] for samples in per_query),
        "setup_s_samples": setups,
        "digest": digest,
    }
    return metrics, attempted, failed, record


def trace(args, mods, queries, reference):
    """One untraced and one traced pass; per-layer metrics."""
    wall_plain, _, results = run_pass(args.workload, mods, queries, args.seed)
    digest_plain, failed_plain = check_pass(mods, queries, results, reference)
    tracer = spans.Tracer()
    tracer.install(mods)
    try:
        origin = perf_counter()
        wall_traced, _, results = run_pass(args.workload, mods, queries, args.seed, tracer)
    finally:
        tracer.uninstall()
    digest_traced, failed_traced = check_pass(mods, queries, results, reference)
    if digest_traced != digest_plain:
        failed_traced = len(queries)
    metrics = tracer.metrics()
    metrics["trace.wall_s"] = wall_traced
    metrics["trace.overhead_s"] = wall_traced - wall_plain
    span_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write(span_file, origin)
    record = {
        "samples": {"per_layer": 1},
        "untraced_wall_s": wall_plain,
        "spans": len(tracer.spans),
        "span_file": str(span_file.relative_to(ROOT)),
        "digests": [digest_plain, digest_traced],
    }
    return metrics, 2 * len(queries), failed_plain + failed_traced, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / PACKAGE}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    reference_file = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))
    reference = (reference_file["sha256"][args.workload]
                 if args.seed == reference_file["seed"] else None)

    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    first_setup, mods, queries = setup(args.workload, args.seed)
    if not mods["cli"].__file__.startswith(str(SRC)):
        print(f"perfbench: {PACKAGE} imported from outside {SRC}", file=sys.stderr)
        return 2

    if args.trace:
        measured, attempted, failed, record = trace(args, mods, queries, reference)
    else:
        measured, attempted, failed, record = measure(args, mods, queries, reference)
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 2

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    info = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "queries": len(queries),
        "reference_checked": reference is not None,
        "first_setup_s": first_setup,
        "environment": environment(args.seed),
        **record,
    }
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"info": info, "result": result}, indent=1) + "\n",
                        encoding="utf-8")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
