"""Source-level invariants of the package."""

import ast
from fractions import Fraction
import importlib
import importlib.util
from pathlib import Path

import motiveforge
from motiveforge.adhm import adhm_class
from motiveforge.curve_ring import make_weil_env
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
