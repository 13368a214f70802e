"""Truncated power series, constant denominators and a bivariate window.

Four carriers live here, all generic over the coefficient ring (plain
rationals in the numeric realization, ``UVLaurent`` in the Hodge one; any
ring element supporting ``+``, ``-``, ``*``, comparison with the scalar
literals 0 and 1, and ``bool()`` false exactly at zero works; a
``UVLaurent`` is tested with ``is_zero()`` instead):

* :class:`TruncatedSeries` - univariate truncated power series c_0 .. c_order
  (no Laurent shift), used for every single-variable coefficient extraction
  and for the stratification route's lambda series.
* :class:`LaurentSeries` - s^val times a :class:`TruncatedSeries`.  The ADHM
  route expands every term at t = 1 + s and :func:`eval_at_one` reads the
  value at t = 1 off the s^0 coefficient.
* :class:`TRational` - a ring element over a *factored* constant
  denominator prod (1 - c).  The hodge ADHM route's s-coefficients are
  these, with ``UVLaurent`` values and c a power of L: the denominator is
  never expanded until :func:`eval_at_one` divides by it once.
* :class:`BiSeries` - a bivariate Laurent window truncated by total degree.
  It builds the integer kernel of the one double coefficient extraction in
  the rank-3 E-polynomial; the ring-valued series are convolved against
  the kernel's coefficients afterwards, never multiplied as windows.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .base_rings import UVLaurent, exact_divide


class InsufficientTruncation(ValueError):
    """A coefficient beyond the series truncation order was requested."""


class BadConstantTerm(ValueError):
    """series_log requires a series with constant term 1."""


class PoleAtOne(ArithmeticError):
    """A function of t that must be a Laurent polynomial has a pole at t = 1."""


# ---------------------------------------------------------------------------
# univariate truncated series
# ---------------------------------------------------------------------------

class TruncatedSeries:
    """Truncated power series sum_{n=0..order} c_n x^n, with no Laurent shift.

    ``order`` is the largest exponent whose coefficient is known; arithmetic
    never consults coefficients beyond it, and a product is known to the
    smaller of its factors' orders.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Sequence, order: int):
        coeffs = list(coeffs)
        if order < 0:
            raise ValueError("order must be >= 0")
        if len(coeffs) <= order:
            coeffs = coeffs + [0] * (order + 1 - len(coeffs))
        else:
            coeffs = coeffs[:order + 1]
        self.coeffs = coeffs
        self.order = order

    @classmethod
    def geometric(cls, c, m: int, order: int) -> "TruncatedSeries":
        """The expansion of 1 / (1 - c*x^m) to the requested order."""
        if m < 1:
            raise ValueError("geometric step must be >= 1")
        coeffs: List = [0] * (order + 1)
        power = 1
        k = 0
        while k <= order:
            coeffs[k] = power
            power = power * c
            k += m
        return cls(coeffs, order=order)

    def coeff(self, n: int):
        if n > self.order:
            raise InsufficientTruncation(
                f"coefficient of x^{n} requested, series truncated at {self.order}"
            )
        if n < 0:
            return 0
        return self.coeffs[n]

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = min(self.order, other.order)
        out = [0] * (order + 1)
        for i, a in enumerate(self.coeffs[:order + 1]):
            if isinstance(a, int) and a == 0:
                continue
            for j, b in enumerate(other.coeffs[:order + 1 - i]):
                if isinstance(b, int) and b == 0:
                    continue
                out[i + j] = out[i + j] + a * b
        return TruncatedSeries(out, order=order)

    def scale(self, factor) -> "TruncatedSeries":
        return TruncatedSeries([c * factor for c in self.coeffs], order=self.order)

    def inverse(self, lead=None) -> "TruncatedSeries":
        """1 / self to the same order.  ``lead`` is the reciprocal of the
        constant term; by default it is computed, which needs a nonzero
        scalar there and is the only division."""
        a = self.coeffs
        if lead is None:
            lead = Fraction(1) / a[0]
        q = [lead]
        for n in range(1, self.order + 1):
            acc = 0
            for k in range(1, n + 1):
                acc = acc + a[k] * q[n - k]
            q.append(-acc * lead)
        return TruncatedSeries(q, order=self.order)


class LaurentSeries:
    """s^val times a TruncatedSeries: a Laurent series in s known through
    s^(val + series.order).

    ``val`` bounds the valuation from below and is never raised by
    stripping leading zeros, since that would claim a coefficient beyond
    the known ones.  A product adds valuations and multiplies the power
    series (known to the smaller relative order); a sum starts at the
    smaller valuation and is known as far as both operands are.
    :meth:`coeff` raises :class:`InsufficientTruncation` beyond that.
    """

    __slots__ = ("val", "series")

    def __init__(self, val: int, series: TruncatedSeries):
        self.val = val
        self.series = series

    def coeff(self, k: int):
        top = self.val + self.series.order
        if k > top:
            raise InsufficientTruncation(
                f"coefficient of s^{k} requested, series known through s^{top}")
        return self.series.coeff(k - self.val)

    def __mul__(self, other):
        if isinstance(other, LaurentSeries):
            return LaurentSeries(self.val + other.val, self.series * other.series)
        return LaurentSeries(self.val, self.series.scale(other))

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        lo = min(self.val, other.val)
        top = min(self.val + self.series.order, other.val + other.series.order)
        return LaurentSeries(lo, TruncatedSeries(
            [self.coeff(k) + other.coeff(k) for k in range(lo, top + 1)], order=top - lo))

    def __neg__(self) -> "LaurentSeries":
        return self * -1

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)


def series_product(factors: Sequence[TruncatedSeries]) -> TruncatedSeries:
    out = factors[0]
    for f in factors[1:]:
        out = out * f
    return out


def series_log(s: TruncatedSeries) -> TruncatedSeries:
    """Formal logarithm of a series with constant term 1, truncated at s.order.

    Uses the standard recurrence l_n = a_n - (1/n) * sum_{k<n} k * l_k * a_{n-k}
    so only exact scalar divisions by integers occur.
    """
    if s.coeff(0) != 1:
        raise BadConstantTerm("constant term is not 1")
    order = s.order
    a = [s.coeff(n) for n in range(order + 1)]
    log_coeffs: List = [0] * (order + 1)
    for n in range(1, order + 1):
        acc = a[n]
        for k in range(1, n):
            term = log_coeffs[k] * a[n - k]
            acc = acc - term * Fraction(k, n)
        log_coeffs[n] = acc
    return TruncatedSeries(log_coeffs, order=order)


# ---------------------------------------------------------------------------
# ring elements over a factored constant denominator
# ---------------------------------------------------------------------------

def _is_zero(x) -> bool:
    if isinstance(x, TRational):
        x = x.num
    if isinstance(x, UVLaurent):
        return x.is_zero()
    return not x


class TRational:
    """A ring element over a factored constant denominator: num / prod (1 - c)
    over the multiset ``den`` of constants c.

    The hodge ADHM route carries the reciprocal of each partition's
    denominator constant term in it, with ``UVLaurent`` values and every c a
    power of L, so no division happens before :func:`eval_at_one`.  A sum
    is formed over the multiset union of its operands' denominators and a
    product over their concatenation; nothing cancels, and zero carries no
    denominator.  The name dates from when the class was a rational function
    in t; it is kept because the benchmark's traced runs wrap its ``__add__``
    and ``__mul__`` and count the factors of ``den``.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den: Sequence = ()):
        self.num = num
        self.den = () if _is_zero(num) else tuple(den)

    def __add__(self, other):
        if not isinstance(other, TRational):
            other = TRational(other)
        mine, theirs = Counter(self.den), Counter(other.den)
        a, b = self.num, other.num
        for c in (theirs - mine).elements():
            a = a - a * c
        for c in (mine - theirs).elements():
            b = b - b * c
        return TRational(a + b, (mine | theirs).elements())

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, TRational):
            return TRational(self.num * other.num, self.den + other.den)
        return TRational(self.num * other, self.den)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def __repr__(self):
        den = " * ".join(f"(1 - ({c}))" for c in self.den) or "1"
        return f"TRational({self.num} / {den})"


def eval_at_one(h: LaurentSeries):
    """The value at t = 1 of a Laurent polynomial in t, from its expansion h
    at t = 1 + s: its coefficients below s^0 must vanish (PoleAtOne
    otherwise), and the value is the s^0 coefficient; reading it past the
    known coefficients raises InsufficientTruncation.

    A :class:`TRational` value is divided by its denominator prod (1 - c)
    with one ``exact_divide``, whose NotDivisible means the value is no
    Laurent polynomial in the coefficient ring.
    """
    for k in range(h.val, 0):
        if not _is_zero(h.coeff(k)):
            raise PoleAtOne(f"nonzero s^{k} coefficient at t = 1 + s")
    value = h.coeff(0)
    if not isinstance(value, TRational):
        return value
    den = 1
    for c in value.den:
        den = den * (1 - c)
    return exact_divide(value.num, den)


# ---------------------------------------------------------------------------
# bivariate window for the double coefficient extraction
# ---------------------------------------------------------------------------

class BiSeries:
    """Bivariate Laurent series truncated by total degree i + j.

    ``min_level`` is the guaranteed lower bound of i + j over all (stored and
    unstored) terms; ``level_cap`` is the truncation: coefficients with
    i + j <= level_cap are complete.  Products propagate both bounds, which
    is what makes expansions of 1/(x - y^2) and 1/(y - x^2) (bounded below
    in total degree, unbounded in each variable separately) multiply safely.
    The rank-3 extraction uses it only for the integer kernel
    N / ((x - y^2)(y - x^2)), whose coefficients are ints.
    """

    __slots__ = ("terms", "min_level", "level_cap")

    def __init__(self, terms: Dict[Tuple[int, int], object], min_level: int, level_cap: int):
        self.terms = {k: c for k, c in terms.items() if k[0] + k[1] <= level_cap and not _is_zero(c)}
        self.min_level = min_level
        self.level_cap = level_cap

    @classmethod
    def from_monomials(cls, terms: Dict[Tuple[int, int], object], level_cap: int) -> "BiSeries":
        min_level = min((i + j for i, j in terms), default=0)
        return cls(terms, min_level, level_cap)

    @classmethod
    def inv_x_minus_y2(cls, level_cap: int) -> "BiSeries":
        """1 / (x - y^2) = sum_k y^(2k) x^(-1-k), valid where |y^2| < |x|."""
        terms = {}
        k = 0
        while k - 1 <= level_cap:
            terms[(-1 - k, 2 * k)] = 1
            k += 1
        return cls(terms, -1, level_cap)

    @classmethod
    def inv_y_minus_x2(cls, level_cap: int) -> "BiSeries":
        """1 / (y - x^2) = sum_k x^(2k) y^(-1-k), valid where |x^2| < |y|."""
        terms = {}
        k = 0
        while k - 1 <= level_cap:
            terms[(2 * k, -1 - k)] = 1
            k += 1
        return cls(terms, -1, level_cap)

    def __mul__(self, other: "BiSeries") -> "BiSeries":
        cap = min(self.level_cap + other.min_level, other.level_cap + self.min_level)
        out: Dict[Tuple[int, int], object] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                i, j = i1 + i2, j1 + j2
                if i + j > cap:
                    continue
                k = (i, j)
                s = out.get(k, 0) + c1 * c2
                if _is_zero(s):
                    out.pop(k, None)
                else:
                    out[k] = s
        return BiSeries(out, self.min_level + other.min_level, cap)

    def coeff(self, i: int, j: int):
        if i + j > self.level_cap:
            raise InsufficientTruncation(
                f"coefficient x^{i} y^{j} beyond total-degree cap {self.level_cap}"
            )
        return self.terms.get((i, j), 0)
