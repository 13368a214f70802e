"""Source-level invariants of the package."""

import ast
from fractions import Fraction
import importlib
import importlib.util
from pathlib import Path

import motiveforge
from motiveforge.adhm import adhm_class, partition_sum, plog_series
from motiveforge.curve_ring import frobenius, make_hodge_env, make_weil_env
from motiveforge.series_engine import TRational

SOURCES = sorted(Path(motiveforge.__file__).parent.glob("*.py"))
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
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


def test_closed_form_and_strata_routes_share_no_series():
    # the closed-form extractions read h1 through A(x) = _zeta_series; the
    # stratification route builds its own lambda series from the cached e_i
    path = next(p for p in SOURCES if p.name == "moduli_formulas.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bodies = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    strata = ["motive", "_lambda_tables", "_vhs_class", "vhs_class"]
    closed = ["epoly_rank2", "_zeta_series"] + [n for n in bodies if n.startswith("_rank3_")]
    rules = [(strata, {"_zeta_series", "h1_series"}),
             (closed, {"lambda_series", "_lambda_tables", "sym_power_class"})]
    found = []
    for names, banned in rules:
        for name in names:
            used = {node.id if isinstance(node, ast.Name) else node.attr
                    for node in ast.walk(bodies[name])
                    if isinstance(node, (ast.Name, ast.Attribute))}
            found += [f"{name} names {b}" for b in sorted(used & banned)]
    assert len(closed) == 4 and not found, found


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
    # zero or an int-coefficient numerator over an int scale: Fractions
    # enter only when eval_at_one divides by the scale
    def integral(x):
        return not x or (type(x) is TRational and type(x.scale) is int
                         and all(type(c) is int for _, c in x.num.items()))

    for g in (2, 3):
        env = make_hodge_env(g)
        for r in (1, 2, 3):
            for p in (1, 2):
                series = plog_series(env, r, p) + [
                    partition_sum(frobenius(env, j), n, p, j, r)
                    for j in range(1, r + 1) for n in range(1, r // j + 1)]
                found = [x for h in series for x in h.coeffs if not integral(x)]
                assert not found, (g, r, p, found)


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
