"""The t-rational ADHM pipeline: the hodge route's carrier before the
expansion at t = 1, kept as the reference the tests compare against.

:class:`TRational` here is an exact rational function in t: a Laurent
numerator polynomial over a *factored* denominator, a multiset of terms
``(1 - c*t^m)``.  Denominators are never expanded, so no polynomial GCD is
ever required; factors with ``c == 1`` are the only sources of poles at
``t = 1`` and are tracked explicitly for :func:`eval_at_one`.  Sums and
products keep every denominator factor; only the constructor cancels
factors against the numerator, so a pipeline reduces once, at its end.

:func:`partition_sum` and :func:`plog_series` build the charge terms and
H_1(t) .. H_r(t) in it, the cells' t-exponents and denominator factors
built here from the partitions' arm, leg and hook data independently of
the package's expansion at t = 1.  The Moebius / Adams sum is taken here
too, its logarithm by the power series of log(1 + X) rather than the
package's recurrence, and :func:`eval_at_one` evaluates at t = 1 by
dividing out the poles.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from motiveforge.adhm import mobius, partitions
from motiveforge.base_rings import UVLaurent, exact_divide
from motiveforge.curve_ring import AtomEnvironment, frobenius
from motiveforge.series_engine import PoleAtOne


def _is_scalar(x) -> bool:
    return isinstance(x, (int, Fraction))


# numerator representation: dict {t_exponent: ring coefficient}

def _tp_add(a: Dict[int, object], b: Dict[int, object]) -> Dict[int, object]:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if not s:
            out.pop(e, None)
        else:
            out[e] = s
    return out


def _tp_scale(a: Dict[int, object], factor) -> Dict[int, object]:
    if not factor:
        return {}
    return {e: c * factor for e, c in a.items()}


def _tp_mul(a: Dict[int, object], b: Dict[int, object]) -> Dict[int, object]:
    out: Dict[int, object] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            k = ea + eb
            s = out.get(k, 0) + ca * cb
            if not s:
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
        if not s:
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
        if not val:
            continue
        if e > hi - m:
            return None
        q[e] = val
    return q


def _tp_subst_power(a: Dict[int, object], j: int) -> Dict[int, object]:
    return {e * j: c for e, c in a.items()}


def _den_sort_key(c):
    if isinstance(c, UVLaurent):
        return (1, tuple(sorted(c.items())))
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
        self.num = {e: c for e, c in num.items() if c}
        self.den = tuple(sorted(den, key=lambda f: (f[1], _den_sort_key(f[0])))) if self.num else ()
        if reduce:
            self._reduce()

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_scalar(cls, value) -> "TRational":
        return cls({0: value} if value else {}, ())

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


def partition_sum(env: AtomEnvironment, n: int, p: int) -> TRational:
    """Charge-n generating term: the hook-weighted zeta sum over partitions.

    A cell of arm a, leg l and hook h contributes the numerator
    sum_i sign (L^a)^(p+i) e_i t^(x + h i), x its base t-exponent, and the
    factors (1 - L^a t^h) and (1 - L^(a+1) t^h).  Only the zero-arm cells'
    factors with c = 1 may vanish at t = 1; any other raises PoleAtOne.
    """
    g, L = env.genus, env.lefschetz
    total = TRational.from_scalar(0)
    for lam in partitions(n):
        num: Dict[int, object] = {0: 1}
        den: List[Tuple[object, int]] = []
        for a, l, h in lam.cell_data():
            la = L ** a
            x = p * (a - l) + (1 - g) * (2 * l + 1)
            coeff, cell = (-1) ** p * la ** p, {}
            for i, e_i in enumerate(env.lambda_values):
                w = coeff * e_i
                if w:
                    cell[x + h * i] = w
                coeff = coeff * la
            num = _tp_mul(num, cell)
            den += [(la, h), (la * L, h)]
        poles = sum(c == 1 for c, _ in den)
        allowed = sum(a == 0 for a, _, _ in lam.cell_data())
        if poles != allowed:
            raise PoleAtOne(f"charge {n}, partition {lam.parts}: {poles} denominator factors "
                            f"vanish at t = 1, but only its {allowed} zero-arm cells may")
        total = total + TRational(num, den, reduce=False)
    return total


def _log_one_plus(terms: Dict[int, TRational], top: int) -> Dict[int, TRational]:
    """U^1 .. U^top coefficients of log(1 + X), X = sum_n terms[n] U^n, by
    the power sum sum_m (-1)^(m+1) X^m / m: X^m starts at U^m, so m <= top."""
    out = {k: TRational.from_scalar(0) for k in range(1, top + 1)}
    power = {0: TRational.from_scalar(1)}  # X^(m-1), truncated at U^top
    for m in range(1, top + 1):
        nxt: Dict[int, TRational] = {}
        for a, x in power.items():
            for n, y in terms.items():
                if a + n <= top:
                    nxt[a + n] = nxt.get(a + n, TRational.from_scalar(0)) + x * y
        power = nxt
        for k, x in power.items():
            out[k] = out[k] + x * Fraction((-1) ** (m + 1), m)
    return out


def plog_series(env: AtomEnvironment, r: int, p: int) -> List[TRational]:
    """H_1(t) .. H_r(t): plethystic-log coefficients cleared by (1-t)(1-Lt).

    The T^m coefficient of sum_j mu(j)/j psi_j log(1 + sum_n F_n T^n): psi_j
    F_n is the charge term built on the j-th Frobenius environment with
    t -> t^j, at T^(j n), so the logarithm runs in U = T^j to U^(r // j).
    Rational scalars mu(j)/(j m) are carried exactly.  TRational sums and
    products cancel nothing, so each H_n is reduced once, by one explicit
    TRational construction after clearing (1-t)(1-Lt); for honest inputs
    that leaves an actual Laurent polynomial in t.
    """
    L = env.lefschetz
    acc = {m: TRational.from_scalar(0) for m in range(1, r + 1)}
    for j in range(1, r + 1):
        mu = mobius(j)
        if not mu:
            continue
        fenv, top = frobenius(env, j), r // j
        terms = {n: substitute_t_power(partition_sum(fenv, n, p), j) for n in range(1, top + 1)}
        for k, x in _log_one_plus(terms, top).items():
            acc[j * k] = acc[j * k] + x * Fraction(mu, j)
    out: List[TRational] = []
    for m in range(1, r + 1):
        h = acc[m].mul_poly_factor(1, 1).mul_poly_factor(L, 1)
        out.append(TRational(h.num, h.den))  # the one reduction of the pipeline
    return out
