"""Operations on ``TruncatedSeries`` that only the tests use."""

from __future__ import annotations

from fractions import Fraction

from motiveforge.series_engine import TruncatedSeries


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
