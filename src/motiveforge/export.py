"""Result serialization: JSON, CSV and LaTeX emitters for CLI output."""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, Sequence

from .base_rings import UVLaurent, format_terms

SCHEMA_VERSION = 1


def poly_to_json(e: UVLaurent) -> Dict:
    items = sorted(e.items(), reverse=True)
    return {
        "text": format_terms(items),
        "terms": [{"u": a, "v": b, "coeff": str(c)} for (a, b), c in items],
    }


def poly_to_csv(e: UVLaurent) -> str:
    lines = ["u_exp,v_exp,coeff"]
    for (a, b), c in sorted(e.items(), reverse=True):
        lines.append(f"{a},{b},{c}")
    return "\n".join(lines) + "\n"


def poly_to_latex(e: UVLaurent) -> str:
    """Render a u, v Laurent polynomial as LaTeX."""
    return format_terms(sorted(e.items(), reverse=True), "%s^{%d}", " ", r"\, ")


def weil_motive_latex(env, value) -> str:
    """LaTeX lines for a class in a numeric environment: the Lefschetz
    value, the lambda classes lambda^i(h^1), i >= 1, it realizes, and the
    class itself."""
    lines = [r"\mathbb{L} = %s" % _frac_latex(env.lefschetz)]
    for i, e_i in enumerate(env.lambda_values[1:], 1):
        lines.append(r"\lambda^{%d}(h^1) = %s" % (i, _frac_latex(e_i)))
    lines.append(r"[\mathcal{M}] = %s" % _frac_latex(value))
    return "\n".join(lines)


def _frac_latex(x) -> str:
    if type(x) is int:
        return str(x)
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    sign = "-" if f < 0 else ""
    return sign + r"\frac{%d}{%d}" % (abs(f.numerator), f.denominator)


def betti_to_csv(betti: Sequence[int]) -> str:
    lines = ["k,b_k"]
    for k, b in enumerate(betti):
        lines.append(f"{k},{b}")
    return "\n".join(lines) + "\n"


def betti_to_latex(betti: Sequence[int]) -> str:
    header = " & ".join(f"$b_{{{k}}}$" for k in range(len(betti)))
    row = " & ".join(str(b) for b in betti)
    return (
        "\\begin{tabular}{%s}\n%s \\\\\n%s \\\\\n\\end{tabular}"
        % ("c" * len(betti), header, row)
    )


def dump_json(payload: Dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
