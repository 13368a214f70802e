"""Operations on ``TruncatedSeries`` that only the tests use."""

from __future__ import annotations

from fractions import Fraction
from typing import List

from motiveforge.series_engine import BadConstantTerm, TruncatedSeries


def inverse(s: TruncatedSeries) -> TruncatedSeries:
    """1 / s to the same order, by the recurrence on the coefficients; the
    reciprocal of the nonzero scalar constant term is the only division."""
    a = s.coeffs
    lead = Fraction(1) / a[0]
    q = [lead]
    for n in range(1, s.order + 1):
        acc = 0
        for k in range(1, n + 1):
            acc = acc + a[k] * q[n - k]
        q.append(-acc * lead)
    return TruncatedSeries(q, order=s.order)


def log(s: TruncatedSeries) -> TruncatedSeries:
    """Formal logarithm of a series with constant term 1 by the recurrence
    l_n = a_n - sum_{k<n} (k/n) l_k a_(n-k), each term weighted by k/n:
    the reference ``series_log`` is checked against."""
    if s.coeff(0) != 1:
        raise BadConstantTerm("constant term is not 1")
    a = s.coeffs
    out: List = [0] * (s.order + 1)
    for n in range(1, s.order + 1):
        acc = a[n]
        for k in range(1, n):
            acc = acc - out[k] * a[n - k] * Fraction(k, n)
        out[n] = acc
    return TruncatedSeries(out, order=s.order)


def product(a, b, length: int) -> List:
    """The first ``length`` coefficients of the product of the coefficient
    lists a and b by the schoolbook sum c_k = sum_i a_i b_(k-i), zeros
    included: the reference the package's truncated product is checked
    against."""
    return [sum((a[i] * b[k - i] for i in range(k + 1) if i < len(a) and k - i < len(b)), 0)
            for k in range(length)]


def geometric(c, m: int, order: int) -> TruncatedSeries:
    """The expansion of 1 / (1 - c*x^m) to the requested order, power by
    power: the reference ``TruncatedSeries.over_geometric`` is checked
    against."""
    if m < 1:
        raise ValueError("geometric step must be >= 1")
    coeffs: List = [0] * (order + 1)
    power = 1
    k = 0
    while k <= order:
        coeffs[k] = power
        power = power * c
        k += m
    return TruncatedSeries(coeffs, order=order)


def elementary_symmetric(atoms) -> tuple:
    """e_0 .. e_n of the atoms by the plain recurrence in their own ring:
    the reference the environment's lift is checked against."""
    e: List = [1] + [0] * len(atoms)
    for n, b in enumerate(atoms, 1):
        for i in range(n, 0, -1):
            e[i] = e[i] + e[i - 1] * b
    return tuple(e)


def lambda_series(atoms, ell, geometric, order: int) -> TruncatedSeries:
    """sum_i e_i ell^i x^i * prod_c 1/(1 - c x) to x^order, with every
    coefficient and factor in the atoms' own ring."""
    e = elementary_symmetric(atoms)
    coeffs: List = [0] * (order + 1)
    power = 1
    for i in range(min(order, len(e) - 1) + 1):
        coeffs[i] = e[i] * power
        power = power * ell
    s = TruncatedSeries(coeffs, order=order)
    for c in geometric:
        s = s.over_geometric(c, 1)
    return s


def h1_poly(atoms, arg):
    """sum_i e_i arg^i by Horner's rule in the atoms' own ring."""
    out = 0
    for e_i in reversed(elementary_symmetric(atoms)):
        out = out * arg + e_i
    return out
