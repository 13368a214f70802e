"""Operations on ``UVLaurent`` and its coefficients that only the tests use."""

from __future__ import annotations

from fractions import Fraction

from motiveforge.base_rings import UVLaurent


class ZeroPolynomial(ValueError):
    """An operation that requires a nonzero polynomial received zero."""


def total_degree(f: UVLaurent) -> int:
    if not f:
        raise ZeroPolynomial("total degree of the zero polynomial")
    return max(a + b for (a, b), _ in f.items())


def power_substitute(f: UVLaurent, j: int) -> UVLaurent:
    """u -> u^j, v -> v^j (the realization of the j-th Adams operator)."""
    return UVLaurent({(a * j, b * j): x for (a, b), x in f.items()})


def swap_uv(f: UVLaurent) -> UVLaurent:
    return UVLaurent({(b, a): x for (a, b), x in f.items()})


def format_terms(items, power, join, number, times):
    """The terms c u^a v^b of ``items`` as one line, the reference for the
    package's formatter: it sorts the items itself, by (a, b)
    descending, u^a is ``power % ("u", a)`` (bare u when a = 1), the
    variables are joined by ``join``, the coefficient is ``number(c) +
    times`` before them, dropped when 1 and a bare sign when -1, and each
    later term is " + " or " - " and |c|'s term; no terms give "0"."""
    parts = []
    for idx, ((a, b), x) in enumerate(sorted(items, reverse=True)):
        vars_ = join.join(name if k == 1 else power % (name, k)
                          for name, k in (("u", a), ("v", b)) if k)
        mag = x if idx == 0 else abs(x)
        if not vars_:
            body = number(mag)
        elif abs(mag) == 1:
            body = vars_ if mag == 1 else "-" + vars_
        else:
            body = number(mag) + times + vars_
        parts.append(body if idx == 0 else (" + " if x > 0 else " - ") + body)
    return "".join(parts) or "0"


def frac_latex(x) -> str:
    """A rational coefficient as LaTeX, through one Fraction: the reference
    for the package's coefficient formatter."""
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    sign = "-" if f < 0 else ""
    return sign + r"\frac{%d}{%d}" % (abs(f.numerator), f.denominator)
