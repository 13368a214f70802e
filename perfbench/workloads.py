"""The benchmark's workloads: seeded query sets and how one query is answered.

A query is a moduli space (g, r, d, p).  The seed picks the weil trial
seeds, the degrees d where the workload leaves them free, and the order in
which queries run; the package only ever sees the generated queries.  Each
answered query yields a canonical, JSON-serializable output that the
benchmark hashes to check results bit for bit.

Why these workloads:

* ``verify_grid`` is the system's headline job, the criterion-1 ADHM
  acceptance grid; its time goes to adhm -> series_engine.TRational with
  both UVLaurent (hodge) and Fraction (weil) coefficients.
* ``hodge_queries`` are exact single-space queries (epoly, betti, motive);
  their time goes to UVLaurent products, the BiSeries double extraction and
  hodge lambda operations.  They never reach adhm or TRational.
* ``weil_large_genus`` runs the adhm / TRational / strata code at large
  genus with scalar Fraction coefficients only, so it makes no UVLaurent
  products: a hodge-only speed-up that slows the scalar path shows here.
"""

from __future__ import annotations

import random
from dataclasses import asdict

WORKLOADS = ("verify_grid", "hodge_queries", "weil_large_genus")

# criterion-1 grid: 20 weil trials per cell, exact hodge at g = 2
GRID_G = (2, 3)
GRID_P = (1, 2)
GRID_RD = ((1, 1), (2, 1), (3, 1), (3, 2))
GRID_TRIALS = 20

# hodge queries: every rank 1 and 2 space for g 2..6, p 1..4, and rank-3
# spaces chosen to keep a pass near ten seconds, always including g=6, p=4
HODGE_G = range(2, 7)
HODGE_P = range(1, 5)
HODGE_RANK3 = ((2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (3, 4),
               (4, 1), (4, 4), (6, 4))

WEIL_G = (4, 5, 6)
WEIL_D = (1, 2)
WEIL_P = range(1, 5)
WEIL_TRIALS = 2


def generate(workload: str, seed: int):
    """The workload's queries as (g, r, d, p) tuples, in run order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify_grid":
        queries = [(g, r, d, p) for g in GRID_G for p in GRID_P for r, d in GRID_RD]
    elif workload == "hodge_queries":
        spaces = [(g, r, p) for r in (1, 2) for g in HODGE_G for p in HODGE_P]
        spaces += [(g, 3, p) for g, p in HODGE_RANK3]
        # d is free up to its residue mod r; the residue alternates over the
        # rank-3 spaces so both classes are covered whatever the seed
        queries = []
        for idx, (g, r, p) in enumerate(spaces):
            residue = 1 + (idx % 2 if r == 3 else 0)
            queries.append((g, r, residue + r * rng.randint(-5, 5), p))
    elif workload == "weil_large_genus":
        queries = [(g, 3, d, p) for g in WEIL_G for d in WEIL_D for p in WEIL_P]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(queries)
    return queries


def answer(workload: str, mods, query, seed: int):
    """Answer one query.  Returns (identity held, output); the output holds
    raw values that :func:`canonical` turns into stable text afterwards,
    so checking costs no time inside the measured query."""
    g, r, d, p = query
    spec = mods["moduli_formulas"].ModuliSpec.from_p(g, r, d, p)
    if workload == "hodge_queries":
        formulas = mods["moduli_formulas"]
        e = formulas.epoly(spec)
        betti = formulas.poincare(e)
        m = formulas.motive(mods["curve_ring"].make_hodge_env(g), spec)
        return m == e, {"epoly": mods["export"].poly_to_json(e), "betti": betti}
    hodge = g == 2 if workload == "verify_grid" else False
    trials = GRID_TRIALS if workload == "verify_grid" else WEIL_TRIALS
    values = []

    def lhs(env):
        values.append(mods["adhm"].adhm_class(env, r, p))
        return values[-1]

    def rhs(env):
        values.append(mods["moduli_formulas"].motive(env, spec))
        return values[-1]

    report = mods["cli"].identity_test(lhs, rhs, g, trials=trials, seed=seed,
                                       hodge=hodge, cell=query)
    held = report.passed and (report.hodge_equal is True or not hodge)
    fields = asdict(report)
    del fields["wall_time_ms"]
    return held, {"report": fields, "values": values}


def canonical(mods, output):
    """JSON-ready form of an output: UVLaurent values through
    export.poly_to_json, Fraction values through str."""
    if "values" not in output:
        return output
    uvlaurent = mods["base_rings"].UVLaurent
    export = mods["export"]
    values = [export.poly_to_json(v) if isinstance(v, uvlaurent) else str(v)
              for v in output["values"]]
    return {"report": output["report"], "values": values}
