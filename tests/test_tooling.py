"""Source-level invariants of the package."""

import ast
from collections import Counter
from dataclasses import fields
from fractions import Fraction
from functools import partial
import hashlib
import importlib
import importlib.util
from itertools import combinations
import json
import math
import os
from pathlib import Path
import re
import subprocess
import sys

import motiveforge
from motiveforge import adhm, cli, curve_ring, moduli_formulas
from motiveforge.adhm import adhm_class, partition_sum, plog_series
from motiveforge.cli import identity_test
from motiveforge.curve_ring import AtomEnvironment, frobenius, make_hodge_env, make_weil_env
from motiveforge.moduli_formulas import ModuliSpec, epoly, motive
from motiveforge.series_engine import TRational

SOURCES = sorted(Path(motiveforge.__file__).parent.glob("*.py"))
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
TESTS = Path(__file__).resolve().parent
SCRIPTS = sorted((TESTS.parent / "scripts").glob("*.py"))


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_package_has_no_assert_statements():
    # invariants must hold under ``python -O``, so they are typed errors
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert SOURCES and not found, found


def test_benchmark_traced_layers_exist():
    # the benchmark's traced run wraps these by name; a rename or deletion
    # in the package must fail here rather than break that run
    spans = _load(SPANS, "perfbench_spans")
    missing = []
    for mod, fn in spans.LAYER_FUNCTIONS:
        module = importlib.import_module(f"motiveforge.{mod}")
        if not callable(getattr(module, fn, None)):
            missing.append(f"{mod}.{fn}")
    for mod, cls_name, _, attrs, _ in spans.LAYER_OPERATORS:
        cls = getattr(importlib.import_module(f"motiveforge.{mod}"), cls_name, None)
        missing += [f"{mod}.{cls_name}.{attr}" for attr in attrs
                    if cls is None or attr not in vars(cls)]
    assert spans.LAYER_FUNCTIONS and spans.LAYER_OPERATORS and not missing, missing


def test_every_traced_layer_runs():
    # a traced name that only a wrapper or a test calls reads 0 in the
    # benchmark; a cold slice of its workloads (one grid cell with its
    # exact hodge check, one hodge query) must call every traced layer but
    # the two that only the benchmark names
    spans = _load(SPANS, "perfbench_spans")
    modules = {path.stem: importlib.import_module(f"motiveforge.{path.stem}")
               for path in SOURCES if not path.stem.startswith("_")}
    make_hodge_env.cache_clear()
    tracer = spans.Tracer()
    tracer.install(modules)
    try:
        # each call looks its layer up on the module, where the tracer sits
        spec = ModuliSpec.from_p(2, 3, 1, 1)
        report = cli.identity_test(lambda env: adhm.adhm_class(env, 3, 1),
                                   lambda env: moduli_formulas.motive(env, spec),
                                   2, trials=1, seed=0, hodge=True, cell=(2, 3, 1, 1))
        e = moduli_formulas.epoly(spec)
        moduli_formulas.poincare(e)
        modules["export"].poly_to_json(e)
    finally:
        tracer.uninstall()
    assert report.passed and report.hodge_equal
    idle = sorted(name for name, (calls, _, _) in tracer.summary().items() if not calls)
    assert idle == ["curve_ring.sym_power_class", "series_engine.series_product"], idle


def test_benchmark_reference_digests():
    # each workload's seed-0 outputs, hashed as the benchmark hashes a
    # pass, equal its reference digest: an output change fails here too
    workloads = _load(PERFBENCH / "workloads.py", "perfbench_workloads")
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    seed = reference["seed"]
    mods = {name: importlib.import_module(f"motiveforge.{name}") for name in
            ("adhm", "base_rings", "cli", "curve_ring", "export", "moduli_formulas")}
    for workload in workloads.WORKLOADS:
        records = []
        for query in sorted(workloads.generate(workload, seed)):
            held, output = workloads.answer(workload, mods, query, seed)
            assert held, (workload, query)
            records.append({"query": list(query), "output": workloads.canonical(mods, output)})
        text = json.dumps(records, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == reference["sha256"][workload], workload


def _answer_hodge(workloads, mods, queries):
    """(query, held, canonical output) of each hodge query, as JSON text."""
    out = []
    for query in queries:
        held, output = workloads.answer("hodge_queries", mods, query, 0)
        out.append([list(query), held, workloads.canonical(mods, output)])
    return json.dumps(sorted(out), sort_keys=True)


def test_hodge_cache_is_not_aliased():
    # the g = 3 slice of the seed-0 hodge queries, answered from cold
    # caches and again in reverse from warm ones, gives a fresh process's
    # bytes; the cached classes equal ones built on a fresh environment;
    # a caller's edit to a returned series reaches no later call
    workloads = _load(PERFBENCH / "workloads.py", "perfbench_workloads")
    names = ("adhm", "base_rings", "cli", "curve_ring", "export", "moduli_formulas")
    mods = {name: importlib.import_module(f"motiveforge.{name}") for name in names}
    queries = [q for q in workloads.generate("hodge_queries", 0) if q[0] == 3]
    assert {q[1] for q in queries} == {1, 2, 3}
    code = (f"import importlib, sys; sys.path[:0] = [{str(PERFBENCH)!r}, {str(TESTS)!r}]\n"
            "import workloads, test_tooling\n"
            f"mods = {{n: importlib.import_module('motiveforge.' + n) for n in {names!r}}}\n"
            f"print(test_tooling._answer_hodge(workloads, mods, {queries[::-1]!r}))")
    src = str(Path(motiveforge.__file__).resolve().parents[1])
    fresh = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                           env={**os.environ, "PYTHONPATH": src}).stdout.strip()
    make_hodge_env.cache_clear()
    assert _answer_hodge(workloads, mods, queries) == fresh
    assert _answer_hodge(workloads, mods, queries[::-1]) == fresh

    env = make_hodge_env(3)
    new = AtomEnvironment(genus=3, lefschetz=env.lefschetz, betas=env.betas)
    cache = dict(env.cache)
    assert cache["jac"] == curve_ring.h1_numerator(new, 1)
    for r in (2, 3):
        assert cache[("bundle", r)] == moduli_formulas._bundle_class(new, r)
    names = (moduli_formulas._CURVE, moduli_formulas._PLUS, moduli_formulas._TWIST)
    lambdas = [key for key in cache if key in names]
    assert len(lambdas) == 3
    for key in lambdas:
        s = cache[key]
        assert s.coeffs == moduli_formulas._lambda_tables(new, [(key, s.order)])[key].coeffs
    assert cache["zeta"].coeffs == moduli_formulas._zeta_series(new, cache["zeta"].order).coeffs

    name = moduli_formulas._CURVE
    for read in (lambda: moduli_formulas._zeta_series(env, 4),
                 lambda: moduli_formulas._lambda_tables(env, [(name, 4)])[name]):
        s = read()
        before = list(s.coeffs)
        s.coeffs[1:] = [0] * 4
        assert read().coeffs == before


def test_closed_form_and_strata_routes_share_no_series():
    # the closed-form extractions read h1 through A(x) = _zeta_series; the
    # stratification route builds its own lambda series from the cached e_i.
    # strata lists every function of the module that motive and vhs_class
    # reach, the lift's helpers and the bundle classes included
    path = next(p for p in SOURCES if p.name == "moduli_formulas.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bodies = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def names(name):
        return {node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(bodies[name]) if isinstance(node, (ast.Name, ast.Attribute))}

    strata = ["motive", "vhs_class", "_strata_plan", "strata_for", "triple_stratum_degrees",
              "_stratum_facts", "_vhs12_degrees", "bb_exponent", "morse_index", "dimension",
              "_lambda_tables", "_cut", "_bundle_class", "_lifted", "_up", "_add", "_over_scale"]
    reached, todo = set(), ["motive", "vhs_class"]
    while todo:
        name = todo.pop()
        reached.add(name)
        todo += [n for n in names(name) & set(bodies) if n not in reached]
    closed = ["epoly_rank2", "_zeta_series"] + [n for n in bodies if n.startswith("_rank3_")]
    rules = [(strata, {"_zeta_series", "h1_series"}),
             (closed, {"lambda_series", "_lambda_tables", "sym_power_class"})]
    found = []
    for route, banned in rules:
        for name in route:
            found += [f"{name} names {b}" for b in sorted(names(name) & banned)]
    assert sorted(strata) == sorted(reached) and len(closed) == 4 and not found, found


def test_weil_adhm_builds_no_trational(monkeypatch):
    # the weil route expands at t = 1 + s; TRational is the hodge route's
    # carrier and the weil reference in tests/test_adhm.py only
    def refuse(self, *args, **kwargs):
        raise AssertionError("weil adhm_class built a TRational")

    monkeypatch.setattr(TRational, "__init__", refuse)
    for r in (1, 2, 3):
        assert type(adhm_class(make_weil_env(3, 17), r, 2)) is Fraction


def test_hodge_adhm_carrier_stays_integral():
    # every hodge s-coefficient, of each charge term and of h_1 .. h_r, is
    # zero or an int-coefficient numerator over an int scale, which
    # eval_at_one divides exactly
    def integral(x):
        return not x or (type(x) is TRational and type(x.scale) is int
                         and all(type(c) is int for _, c in x.num.items()))

    for g in (2, 3):
        env = make_hodge_env(g)
        for r in (1, 2, 3):
            for p in (1, 2):
                series = plog_series(env, range(1, r + 1), r, p) + [
                    partition_sum(frobenius(env, j), n, p, j, r)
                    for j in range(1, r + 1) for n in range(1, r // j + 1)]
                found = [x for h in series for x in h.coeffs if not integral(x)]
                assert not found, (g, r, p, found)


def test_cold_hodge_adhm_makes_no_fraction(monkeypatch):
    # the hodge route runs in Z[u, v] from the environment to the value: the
    # logarithm's 1/k and the Moebius weight mu(j)/j go to a TRational's
    # int scale as mu(j)/(j k), so no Fraction is made anywhere, even with
    # every environment built anew
    def refuse(cls, *args):
        raise AssertionError(f"Fraction{args} made on the hodge route")

    make_hodge_env.cache_clear()
    monkeypatch.setattr(Fraction, "__new__", refuse)
    for g in (2, 3):
        env = make_hodge_env(g)
        for r in (1, 2, 3):
            for p in (1, 2):
                adhm_class(env, r, p)


# the modules whose code names Fraction; series_engine divides nothing
# but exactly, so its carriers never make one
FRACTION_MODULES = {"adhm", "base_rings", "curve_ring", "export", "moduli_formulas"}


def test_fraction_is_named_only_where_the_ledger_says():
    # a test that patches one module's Fraction sees only the Fractions that
    # module makes: this ledger names every module that could make another
    found = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if any(getattr(node, "id", None) == "Fraction" or getattr(node, "attr", None) == "Fraction"
               or isinstance(node, ast.alias) and node.name == "Fraction"
               for node in ast.walk(tree)):
            found.add(path.stem)
    assert found == FRACTION_MODULES


def test_one_lift_per_environment(monkeypatch):
    # the e_i recurrence runs once per environment: the trial environments
    # that adhm_class and motive share, and their Frobenius images, where
    # every charge term of one Adams index reads the same lift
    counts = {"lifts": 0, "environments": 0}
    recurrence, check = curve_ring._elementary_symmetric, AtomEnvironment.__post_init__

    def lift(*args):
        counts["lifts"] += 1
        return recurrence(*args)

    def build(self):
        counts["environments"] += 1
        check(self)

    monkeypatch.setattr(curve_ring, "_elementary_symmetric", lift)
    monkeypatch.setattr(AtomEnvironment, "__post_init__", build)
    trials = 3
    report = identity_test(partial(adhm_class, r=3, p=2),
                           partial(motive, spec=ModuliSpec.from_p(3, 3, 1, 2)),
                           3, trials=trials, seed=7, hodge=False, cell=(3, 3, 1, 2))
    assert report.passed
    # at r = 3, psi_3 is the one Frobenius image; psi_2 adds nothing to T^3
    assert counts["lifts"] == counts["environments"] == 2 * trials


def test_one_environment_and_one_set_of_curve_classes_per_genus(monkeypatch):
    # a mixed batch at one genus reads one hodge environment; the e_i
    # recurrence runs once for it and once per Adams twin, and each bundle
    # class is built once, whatever the route, p and d
    counts = {"lifts": 0, "environments": 0, "bundles": Counter()}
    recurrence, check = curve_ring._elementary_symmetric, AtomEnvironment.__post_init__
    bundle = moduli_formulas._bundle_class

    def lift(*args):
        counts["lifts"] += 1
        return recurrence(*args)

    def build(self):
        counts["environments"] += 1
        check(self)

    def bundle_class(env, r):
        counts["bundles"][r] += 1
        return bundle(env, r)

    monkeypatch.setattr(curve_ring, "_elementary_symmetric", lift)
    monkeypatch.setattr(AtomEnvironment, "__post_init__", build)
    monkeypatch.setattr(moduli_formulas, "_bundle_class", bundle_class)
    make_hodge_env.cache_clear()
    env = make_hodge_env(2)
    for r, degrees in ((2, (1, -1, 3)), (3, (1, 2, -2))):
        for p in (1, 2, 3):
            for d in degrees:
                spec = ModuliSpec.from_p(2, r, d, p)
                assert epoly(spec) == motive(make_hodge_env(2), spec)
    for r in (2, 3, 3):
        adhm_class(make_hodge_env(2), r, 1)
    assert make_hodge_env(2) is env
    # the genus environment, psi_2 (read at r = 2) and psi_3 (at r = 3)
    assert counts["lifts"] == counts["environments"] == 3
    assert counts["bundles"] == {2: 1, 3: 1}


def test_one_hodge_adhm_class_per_rank_and_twist(monkeypatch):
    # the ADHM side reads no degree: in a serial grid the hodge environment
    # of a genus runs the double sum once per (r, p), for every d and every
    # pass over the grid, while each weil trial, a new environment, runs it
    # for itself
    make_hodge_env.cache_clear()
    hodge = make_hodge_env(2)
    calls = {"hodge": Counter(), "weil": 0}
    plog = adhm.plog_series

    def counting(env, orders, r, p):
        if env is hodge:
            calls["hodge"][r, p] += 1
        elif isinstance(env.lefschetz, Fraction):
            calls["weil"] += 1
        return plog(env, orders, r, p)

    monkeypatch.setattr(adhm, "plog_series", counting)
    trials = 2
    for _ in range(2):
        for d in (1, 2):
            for p in (1, 2):
                report = identity_test(partial(adhm_class, r=3, p=p),
                                       partial(motive, spec=ModuliSpec.from_p(2, 3, d, p)),
                                       2, trials=trials, seed=5, hodge=True, cell=(2, 3, d, p))
                assert report.passed and report.hodge_equal
    assert calls == {"hodge": {(3, 1): 1, (3, 2): 1}, "weil": 2 * 2 * 2 * trials}
    for p in (1, 2):
        fresh = AtomEnvironment(genus=2, lefschetz=hodge.lefschetz, betas=hodge.betas)
        assert adhm_class(hodge, 3, p) == adhm_class(fresh, 3, p)
        assert hodge.cache[("adhm", 3, p)] == fresh.cache[("adhm", 3, p)]
    assert calls["hodge"] == {(3, 1): 1, (3, 2): 1}


def test_weil_trials_share_no_environment_or_cache(monkeypatch):
    # every trial builds its own environment: the same seed gives an equal
    # environment, never the same object, and no cached value is shared
    envs, seeds = [], []

    def lhs(env):
        envs.append(env)
        return adhm_class(env, 3, 2)

    def recording(g, seed):
        seeds.append(seed)
        return make_weil_env(g, seed)

    monkeypatch.setattr(cli, "make_weil_env", recording)
    report = identity_test(lhs, partial(motive, spec=ModuliSpec.from_p(3, 3, 1, 2)),
                           3, trials=3, seed=7, hodge=False, cell=(3, 3, 1, 2))
    assert report.passed and len(envs) == len(seeds) == 3
    again = make_weil_env(3, seeds[0])
    assert again == envs[0] and again is not envs[0] and not again.cache
    for a, b in combinations(envs + [again], 2):
        assert a.cache is not b.cache
        assert not {id(v) for v in a.cache.values()} & {id(v) for v in b.cache.values()}
    assert all(("bundle", 3) in env.cache and ("frobenius", 3) in env.cache for env in envs)


def test_memos_are_keyed_by_ints_only():
    # every memo is keyed by ints alone, so no memo carries a weil
    # environment or a trial's value
    memos, found = 0, []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                if getattr(target, "id", getattr(target, "attr", None)) not in ("lru_cache", "cache"):
                    continue
                memos += 1
                args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                if node.args.vararg or node.args.kwarg or not all(
                        isinstance(a.annotation, ast.Name) and a.annotation.id == "int"
                        for a in args):
                    found.append(f"{path.name}:{node.lineno} {node.name}")
    assert memos and not found, found


def test_environment_cache_keys_are_a_name_and_ints():
    # the rule above, for AtomEnvironment.cache: after a mixed batch, each
    # key of a genus environment and of its Adams twins is a name or a name
    # followed by ints, so no key holds an environment or a value
    def named(key):
        return type(key) is str or (type(key) is tuple and type(key[0]) is str
                                    and all(type(x) is int for x in key[1:]))

    for g in (2, 3):
        env = make_hodge_env(g)
        for r in (1, 2, 3):
            for p in (1, 2):
                adhm_class(env, r, p)
                for d in (1, 2):
                    if math.gcd(r, d) == 1:
                        spec = ModuliSpec.from_p(g, r, d, p)
                        assert epoly(spec) == motive(env, spec)
        twins = [v for v in env.cache.values() if isinstance(v, AtomEnvironment)]
        keys = [key for e in [env] + twins for key in e.cache]
        assert twins and ("adhm", 3, 2) in keys and ("bundle", 3) in keys
        assert all(named(key) for key in keys), [k for k in keys if not named(k)]


def test_query_and_environment_fields_are_pinned():
    # each settable field is one more value a caller can set wrong, so a
    # new one has to edit this test; the realization is read off the
    # values, and each input is checked once, where it is built
    assert [f.name for f in fields(ModuliSpec)] == ["g", "r", "d", "dL"]
    assert [f.name for f in fields(AtomEnvironment)] == ["genus", "lefschetz", "betas"]
    raises = []
    for path in SOURCES:
        text = path.read_text(encoding="utf-8")
        assert "validate" not in text, path.name
        for fn in ast.walk(ast.parse(text, filename=str(path))):
            if isinstance(fn, ast.FunctionDef):
                raises += [(path.name, fn.name) for node in ast.walk(fn)
                           if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                           and getattr(node.exc.func, "id", None) == "InvalidGenus"]
    assert raises == [("curve_ring.py", "__post_init__")]


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_no_module_uses_another_modules_private_names():
    # a module's _-prefixed names are its own: no package module imports
    # one from a sibling or reads one off an imported sibling module
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                   and (node.level or (node.module or "").startswith("motiveforge"))]
        siblings = {a.asname or a.name for node in imports if node.module in (None, "motiveforge")
                    for a in node.names}
        found += [f"{path.name}:{node.lineno} imports {a.name}" for node in imports
                  for a in node.names if _private(a.name)]
        found += [f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in siblings and _private(node.attr)]
    assert SOURCES and not found, found


def test_references_use_no_private_package_names():
    # the test references and the scripts stand apart from the package: none
    # imports a _-prefixed motiveforge name or reads one off a module
    found = []
    references = [TESTS / name for name in ("t_rational.py", "series_reference.py",
                                            "strata_reference.py", "uv_reference.py")]
    for path in references + SCRIPTS:
        name = path.name
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=name)
        imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                   and (node.module or "").startswith("motiveforge")]
        modules = {a.asname or a.name for node in imports for a in node.names}
        modules |= {a.asname or a.name.split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for a in node.names
                    if a.name.startswith("motiveforge")}
        found += [f"{name}:{node.lineno} imports {a.name}" for node in imports
                  for a in node.names if _private(a.name)]
        found += [f"{name}:{node.lineno} reads {ast.unparse(node)}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and _private(node.attr)
                  and _root(node.value) in modules]
    assert SCRIPTS and not found, found


def _root(node):
    """The name an attribute chain a.b.c starts from, or None."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return getattr(node, "id", None)


def test_package_imports_only_itself_and_the_standard_library():
    # pyproject.toml declares no dependencies, so every import in the
    # package is relative or names a standard-library module
    pyproject = (TESTS.parent / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r"^dependencies = \[\]$", pyproject, re.M)
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                tops = [a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                tops = [node.module.split(".")[0]]
            else:
                continue
            found += [f"{path.name}:{node.lineno} imports {top}" for top in tops
                      if top not in sys.stdlib_module_names]
    assert SOURCES and not found, found
