"""Truncated power series and exact rational functions in a formal parameter.

Four carriers live here, all generic over the coefficient ring (plain
rationals in the numeric realization, ``UVLaurent`` in the Hodge one; any
ring element supporting ``+``, ``-``, ``*``, comparison with the scalar
literals 0 and 1, and ``bool()`` false exactly at zero works; a
``UVLaurent`` is tested with ``is_zero()`` instead):

* :class:`TruncatedSeries` - univariate truncated power series c_0 .. c_order
  (no Laurent shift), used for every single-variable coefficient extraction
  and for the stratification route's lambda series.
* :class:`LaurentSeries` - s^val times a :class:`TruncatedSeries`.  The weil
  ADHM route expands every term at t = 1 + s with ``Fraction`` coefficients
  and reads the value at t = 1 off the s^0 coefficient.
* :class:`TRational` - exact rational function in ``t``: a Laurent numerator
  polynomial over a *factored* denominator, a multiset of terms
  ``(1 - c*t^m)``.  Denominators are never expanded, so no polynomial GCD is
  ever required; factors with ``c == 1`` are the only sources of poles at
  ``t = 1`` and are tracked explicitly for :func:`eval_at_one`.  Sums and
  products keep every denominator factor; only the constructor cancels
  factors against the numerator, so a pipeline reduces once, at its end.
  The hodge ADHM route uses it, with ``UVLaurent`` coefficients.
* :class:`BiSeries` - a bivariate Laurent window truncated by total degree.
  It builds the integer kernel of the one double coefficient extraction in
  the rank-3 E-polynomial; the ring-valued series are convolved against
  the kernel's coefficients afterwards, never multiplied as windows.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .base_rings import UVLaurent, exact_divide


class InsufficientTruncation(ValueError):
    """A coefficient beyond the series truncation order was requested."""


class BadConstantTerm(ValueError):
    """series_log requires a series with constant term 1."""


class PoleAtOne(ArithmeticError):
    """The rational function has a genuine pole at t = 1."""


def _is_scalar(x) -> bool:
    return isinstance(x, (int, Fraction))


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

    def inverse(self) -> "TruncatedSeries":
        """1 / self to the same order; the constant term must be a nonzero
        scalar, and its reciprocal is the only division."""
        a = self.coeffs
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
# rational functions in t with factored denominators
# ---------------------------------------------------------------------------

# numerator representation: dict {t_exponent: ring coefficient}

def _tp_add(a: Dict[int, object], b: Dict[int, object]) -> Dict[int, object]:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if _is_zero(s):
            out.pop(e, None)
        else:
            out[e] = s
    return out


def _is_zero(x) -> bool:
    if isinstance(x, UVLaurent):
        return x.is_zero()
    return not x


def _tp_scale(a: Dict[int, object], factor) -> Dict[int, object]:
    if _is_zero(factor):
        return {}
    return {e: c * factor for e, c in a.items()}


def _tp_mul(a: Dict[int, object], b: Dict[int, object]) -> Dict[int, object]:
    out: Dict[int, object] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            k = ea + eb
            s = out.get(k, 0) + ca * cb
            if _is_zero(s):
                out.pop(k, None)
            else:
                out[k] = s
    return out


def _tp_mul_factor(a: Dict[int, object], c, m: int) -> Dict[int, object]:
    """Multiply a t-polynomial by (1 - c*t^m)."""
    out = dict(a)
    for e, x in a.items():
        k = e + m
        s = out.get(k, 0) - x * c
        if _is_zero(s):
            out.pop(k, None)
        else:
            out[k] = s
    return out


def _tp_divide_factor(a: Dict[int, object], c, m: int):
    """Exact division of a t-polynomial by (1 - c*t^m); None if not exact.

    Uses the recurrence q[e] = a[e] + c*q[e-m] from the bottom exponent up to
    hi - m, which makes every coefficient of q*(1 - c*t^m) below hi - m + 1
    equal to a's.  The division is exact iff the top m coefficients agree
    too, that is a[e] + c*q[e-m] == 0 for hi - m < e <= hi.
    """
    if not a:
        return {}
    lo = min(a)
    hi = max(a)
    q: Dict[int, object] = {}
    for e in range(lo, hi + 1):
        val = a.get(e, 0)
        prev = q.get(e - m)
        if prev is not None:
            val = val + prev * c
        if _is_zero(val):
            continue
        if e > hi - m:
            return None
        q[e] = val
    return q


def _tp_subst_power(a: Dict[int, object], j: int) -> Dict[int, object]:
    return {e * j: c for e, c in a.items()}


def _den_sort_key(c):
    if isinstance(c, UVLaurent):
        return (1, c.sort_key())
    f = Fraction(c)
    return (0, (f.numerator, f.denominator))


class TRational:
    """Exact rational function in t: Laurent numerator over factored denominator.

    The denominator is a multiset of pairs ``(c, m)`` standing for factors
    ``(1 - c*t^m)``; ``c`` is a unit of the coefficient ring (a rational, or
    a monomial in the Hodge realization).  Only the constructor cancels
    denominator factors that divide the numerator exactly (unless called
    with ``reduce=False``); addition and multiplication keep every factor of
    their operands, so a caller reduces once, at the end, by constructing
    ``TRational(x.num, x.den)``.  Zero carries no denominator, so a sum with
    zero keeps the other operand's.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Dict[int, object], den: Sequence[Tuple[object, int]] = (), reduce: bool = True):
        self.num = {e: c for e, c in num.items() if not _is_zero(c)}
        self.den = tuple(sorted(den, key=lambda f: (f[1], _den_sort_key(f[0])))) if self.num else ()
        if reduce:
            self._reduce()

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_scalar(cls, value) -> "TRational":
        return cls({0: value} if not _is_zero(value) else {}, ())

    @classmethod
    def coerce(cls, value) -> "TRational":
        if isinstance(value, TRational):
            return value
        return cls.from_scalar(value)

    # -- normalization -----------------------------------------------------

    def _reduce(self) -> None:
        if not self.den or not self.num:
            return
        # one pass suffices: a factor that does not divide the numerator
        # cannot divide any quotient of it either
        kept = []
        for c, m in self.den:
            q = _tp_divide_factor(self.num, c, m)
            if q is None:
                kept.append((c, m))
            else:
                self.num = q
        self.den = tuple(kept)

    def is_zero(self) -> bool:
        return not self.num

    def is_polynomial(self) -> bool:
        return not self.den

    # -- arithmetic --------------------------------------------------------

    def _over_common_den(self, other):
        """Both numerators over the multiset union of the two denominators."""
        o = TRational.coerce(other)
        union = _multiset_max(self.den, o.den)
        a = self.num
        for f in _multiset_sub(union, self.den):
            a = _tp_mul_factor(a, f[0], f[1])
        b = o.num
        for f in _multiset_sub(union, o.den):
            b = _tp_mul_factor(b, f[0], f[1])
        return a, b, union

    def __add__(self, other):
        a, b, union = self._over_common_den(other)
        return TRational(_tp_add(a, b), union, reduce=False)

    __radd__ = __add__

    def __neg__(self):
        return TRational(_tp_scale(self.num, -1), self.den, reduce=False)

    def __sub__(self, other):
        return self + (-TRational.coerce(other))

    def __rsub__(self, other):
        return TRational.coerce(other) + (-self)

    def __mul__(self, other):
        if _is_scalar(other) or isinstance(other, UVLaurent):
            return TRational(_tp_scale(self.num, other), self.den, reduce=False)
        if not isinstance(other, TRational):
            return NotImplemented
        return TRational(_tp_mul(self.num, other.num), self.den + other.den, reduce=False)

    def __rmul__(self, other):
        if _is_scalar(other) or isinstance(other, UVLaurent):
            return TRational(_tp_scale(self.num, other), self.den, reduce=False)
        return NotImplemented

    def mul_poly_factor(self, c, m: int) -> "TRational":
        """Multiply by the polynomial (1 - c*t^m), cancelling against the
        denominator when the factor is present there."""
        den = list(self.den)
        for i, f in enumerate(den):
            if f[1] == m and f[0] == c:
                del den[i]
                return TRational(self.num, den, reduce=False)
        return TRational(_tp_mul_factor(self.num, c, m), den, reduce=False)

    def __eq__(self, other):
        a, b, _ = self._over_common_den(other)
        return a == b

    def __hash__(self):
        raise TypeError("TRational is not hashable")

    def __repr__(self):
        den = " * ".join(f"(1 - ({c})*t^{m})" for c, m in self.den) or "1"
        return f"TRational({self.num} / {den})"


def _multiset_max(a: Sequence, b: Sequence) -> tuple:
    counts: Dict = {}
    for seq in (a, b):
        local: Dict = {}
        for f in seq:
            local[f] = local.get(f, 0) + 1
        for f, n in local.items():
            counts[f] = max(counts.get(f, 0), n)
    out = []
    for f, n in counts.items():
        out.extend([f] * n)
    return tuple(sorted(out, key=lambda f: (f[1], _den_sort_key(f[0]))))


def _multiset_sub(a: Sequence, b: Sequence) -> list:
    remaining = list(a)
    for f in b:
        remaining.remove(f)
    return remaining


def substitute_t_power(a: TRational, j: int) -> TRational:
    """t -> t^j on the numerator; each factor (1 - c*t^m) -> (1 - c*t^(j*m))."""
    if j < 1:
        raise ValueError("power substitution needs j >= 1")
    if j == 1:
        return a
    return TRational(_tp_subst_power(a.num, j),
                     tuple((c, m * j) for c, m in a.den), reduce=False)


def eval_at_one(a: TRational):
    """Exact value of the rational function at t = 1.

    Factors (1 - t^m) are split as (1 - t) * (1 + t + ... + t^(m-1)); the
    numerator must be exactly divisible by the resulting power of (1 - t)
    (otherwise the value genuinely diverges and PoleAtOne is raised).  The
    remaining denominator value prod (1 - c) * prod (m) is divided out
    exactly in the coefficient ring.
    """
    num = dict(a.num)
    pole_orders = []
    other: List = []
    for c, m in a.den:
        if c == 1:
            pole_orders.append(m)
        else:
            other.append((c, m))
    for _ in pole_orders:
        q = _tp_divide_factor(num, 1, 1)
        if q is None:
            raise PoleAtOne(
                "numerator does not vanish to sufficient order at t = 1"
            )
        num = q
    value = 0
    for c in num.values():
        value = value + c
    scalar = 1
    for m in pole_orders:
        scalar *= m
    denom_value = None
    for c, m in other:
        factor = 1 - c
        denom_value = factor if denom_value is None else denom_value * factor
    if denom_value is not None:
        value = exact_divide(value, denom_value)
    if scalar != 1:
        value = exact_divide(value, scalar)
    return value


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
