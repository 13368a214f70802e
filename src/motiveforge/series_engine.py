"""Truncated power series, constant denominators and a bivariate window.

Three carriers live here, all generic over the coefficient ring (ints
and rationals in the numeric realization, ``UVLaurent`` in the Hodge one;
any ring element supporting ``+``, ``-``, ``*``, comparison with the scalar
literals 0 and 1, and ``bool()`` false exactly at zero works, since only
:func:`eval_at_one` divides a coefficient, and exactly):

* :class:`TruncatedSeries` - univariate truncated power series c_0 .. c_order,
  used for every single-variable coefficient extraction, the stratification
  route's lambda series and the ADHM route's expansion at t = 1 + s, read
  at t = 1 by :func:`eval_at_one`.  Its products, and the ADHM route's
  products of plain coefficient lists, run :func:`truncated_product`, the
  package's one truncated-product loop.
* :class:`TRational` - a ring element over an integer scale and a
  *factored* constant denominator prod (1 - c).  The hodge ADHM route's
  s-coefficients are these, with ``UVLaurent`` numerators and c a power of
  L: nothing is divided until :func:`eval_at_one` divides by each factor
  1 - c, and then by the scale, each division exact over the integers.
* :class:`BiSeries` - a bivariate Laurent window truncated by total degree.
  It builds the integer kernel of the one double coefficient extraction in
  the rank-3 E-polynomial; the ring-valued series are convolved against
  the kernel's coefficients afterwards, never multiplied as windows.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, Sequence, Tuple

from .base_rings import exact_divide


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
    never consults coefficients beyond it.  A sum, difference or product of
    two series is known to the smaller of their orders, and a scalar
    multiple (``series * c``) to the series' own.
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

    def over_geometric(self, c, m: int) -> "TruncatedSeries":
        """This series divided by 1 - c*x^m, to the same order: the
        recurrence out_k = s_k + c*out_(k-m), k rising."""
        if m < 1:
            raise ValueError("geometric step must be >= 1")
        out = list(self.coeffs)
        for k in range(m, self.order + 1):
            out[k] = out[k] + c * out[k - m]
        return TruncatedSeries(out, order=self.order)

    def coeff(self, n: int):
        if n > self.order:
            raise InsufficientTruncation(
                f"coefficient of x^{n} requested, series truncated at {self.order}"
            )
        if n < 0:
            return 0
        return self.coeffs[n]

    def __mul__(self, other) -> "TruncatedSeries":
        """The product with a series, or every coefficient times a scalar."""
        if not isinstance(other, TruncatedSeries):
            return TruncatedSeries([c * other for c in self.coeffs], order=self.order)
        order = min(self.order, other.order)
        return TruncatedSeries(truncated_product(self.coeffs, other.coeffs, order + 1), order=order)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = min(self.order, other.order)
        return TruncatedSeries([a + b for a, b in zip(self.coeffs, other.coeffs)], order=order)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + other * -1


def truncated_product(a: Sequence, b: Sequence, length: int) -> List:
    """The first ``length`` coefficients of the product of the coefficient
    lists a and b (missing ones read as 0), each out_k summed over the
    pairs of nonzero coefficients by rising index in a."""
    out: List = [0] * length
    for i, x in enumerate(a[:length]):
        if not x:
            continue
        for k, y in enumerate(b[:length - i], i):
            if y:
                out[k] = out[k] + x * y
    return out


def series_product(factors: Sequence[TruncatedSeries]) -> TruncatedSeries:
    out = factors[0]
    for f in factors[1:]:
        out = out * f
    return out


def series_log(s: TruncatedSeries) -> TruncatedSeries:
    """n l_n for the formal logarithm sum l_n x^n of a series s with
    constant term 1, truncated at s.order: the series m with s m = x s'.

    The recurrence m_n = n a_n - sum_{k<n} m_k a_(n-k) stays in the
    coefficient ring (int coefficients give int m_n) and divides nothing.
    """
    if s.coeff(0) != 1:
        raise BadConstantTerm("constant term is not 1")
    a = s.coeffs
    m: List = [0]
    for n in range(1, s.order + 1):
        acc = a[n] * n
        for k in range(1, n):
            acc = acc - m[k] * a[n - k]
        m.append(acc)
    return TruncatedSeries(m, order=s.order)


# ---------------------------------------------------------------------------
# ring elements over a factored constant denominator
# ---------------------------------------------------------------------------

class TRational:
    """A ring element over an integer scale and a factored constant
    denominator: num / (scale * prod (1 - c)) over the multiset ``den`` of
    constants c.

    The hodge ADHM route carries the reciprocals of its partitions'
    denominator constant terms in it, with ``UVLaurent`` numerators (int
    coefficients only) and every c a power of L, so no division happens
    before :func:`eval_at_one`.  A sum is formed over the lcm of the two
    scales and the multiset union of the denominators, a product over the
    product of the scales and the concatenation, and a scalar factor
    multiplies the numerator alone (a weight mu/m is the product with
    TRational(mu, (), m)).  Nothing cancels.  Zero carries no denominator,
    and a zero term leaves a sum unchanged.  The name dates from when the
    class was a rational function in t; it is kept because the benchmark's
    traced runs wrap its ``__add__`` and ``__mul__`` and count the factors
    of ``den``.
    """

    __slots__ = ("num", "den", "scale")

    def __init__(self, num, den: Sequence = (), scale: int = 1):
        self.num = num
        self.den, self.scale = (tuple(den), scale) if num else ((), 1)

    def __add__(self, other):
        if not isinstance(other, TRational):
            other = TRational(other)
        if not other.num:
            return self
        mine, theirs = Counter(self.den), Counter(other.den)
        a, b = self.num, other.num
        scale = self.scale
        if other.scale != scale:
            scale = math.lcm(scale, other.scale)
            a, b = a * (scale // self.scale), b * (scale // other.scale)
        for c in (theirs - mine).elements():
            a = a - a * c
        for c in (mine - theirs).elements():
            b = b - b * c
        return TRational(a + b, (mine | theirs).elements(), scale)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, TRational):
            return TRational(self.num * other.num, self.den + other.den, self.scale * other.scale)
        return TRational(self.num * other, self.den, self.scale)

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.num)

    def __repr__(self):
        den = " * ".join(f"(1 - ({c}))" for c in self.den) or "1"
        return f"TRational({self.num} / ({self.scale} * {den}))"


def eval_at_one(h: TruncatedSeries, k: int):
    """The value at t = 1 of a Laurent polynomial H in t, from h = s^k H
    expanded at t = 1 + s: the coefficients of h below s^k must vanish
    (PoleAtOne otherwise), and the value is its s^k coefficient; reading it
    past the known coefficients raises InsufficientTruncation.

    A :class:`TRational` value is divided by its denominator prod (1 - c)
    one factor 1 - c at a time, each a binomial 1 - L^k in the Hodge
    realization, which is all ``exact_divide`` takes; over the unique
    factorization domain Z[u^+-1, v^+-1], each factor primitive, that is
    exact exactly when the division by the product is.  Last comes the
    scale, divided exactly from every coefficient.  A NotDivisible means
    the value is no Laurent polynomial over the integers.
    """
    for i in range(k):
        if h.coeff(i):
            raise PoleAtOne(f"nonzero s^{i - k} coefficient at t = 1 + s")
    value = h.coeff(k)
    if not isinstance(value, TRational):
        return value
    num = value.num
    for c in value.den:
        num = exact_divide(num, 1 - c)
    return exact_divide(num, value.scale)


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
        self.terms = {k: c for k, c in terms.items() if k[0] + k[1] <= level_cap and c}
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
                if not s:
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
