"""Exact coefficient arithmetic: rationals and bivariate Laurent polynomials.

Everything in this package is computed over one of two coefficient domains:

* the Hodge realization, whose values are Laurent polynomials in the Hodge
  variables ``u`` and ``v`` with integer coefficients (``UVLaurent``, the
  ring Z[u^+-1, v^+-1], where E-polynomials live), and
* the Weil-style numeric realization, whose values are plain rationals
  (``int`` or ``fractions.Fraction``).

All arithmetic is exact; nothing is ever rounded, and a ``UVLaurent``
refuses a coefficient that is not an int (TypeError), so a non-integral
hodge value cannot pass silently.  Polynomial division is only available
through :func:`exact_divide`, which insists on a zero remainder and takes a
divisor of one or two terms.  Binomials are enough: every denominator of
the stratification classes and of the motivic ADHM formula is a product of
factors 1 - L^k, and in the Hodge realization L = uv, so each factor is a
binomial 1 - (uv)^k, lead coefficient -1.  A product of them is divided one
factor at a time: Z[u^+-1, v^+-1] is a unique factorization domain and each
1 - (uv)^k is primitive, so by Gauss's lemma that is exact over Z exactly
when it is over Q.  Two ints, such as the weil divisions by n^k - d^k for
L = n / d, give their int quotient, so those divisions are checked too.  A
failed division means some upstream polynomiality claim is violated (or a
formula was transcribed wrongly), so it raises :class:`NotDivisible`
instead of returning an approximation.

A product of two ``UVLaurent`` with at least 16 terms each is one integer
product (Kronecker substitution, Harvey, arXiv:0712.4046): each operand is
packed into an int with one slot of whole bytes per exponent pair, at least
bit_length(max|a| * max|b| * min(#a, #b)) + 2 bits wide.  On a
little-endian host a slot of at most 8 bytes is widened to 1, 2, 4 or 8 and
written and read through a cast ``memoryview``; a wider one stays
byte-sliced.  Smaller products, and sparse ones, whose exponent box has
more than half a slot per term pair, take the schoolbook loop.  Both give
the same coefficients.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import compress, product
from typing import Dict, Iterable, Iterator, Tuple, Union

Rat = Union[int, Fraction]
ExponentPair = Tuple[int, int]


class NotDivisible(ArithmeticError):
    """Exact polynomial division failed: no exact quotient exists."""


#: Products whose operands both have this many terms are packed.
_KRONECKER_MIN_TERMS = 16
#: ... unless their exponent box has more slots than this per term pair.
_KRONECKER_MAX_FILL = 0.5


def _kronecker(a: Dict[ExponentPair, int], b: Dict[ExponentPair, int]):
    """The product of two int term maps as one integer product, or None
    when the exponent box is too sparse to pay.

    Each operand is shifted to its minimum exponents and packed with term
    (u, v) at slot u*w + v, the v-stride w wide enough that v-sums never
    reach the next u.  A slot holds its coefficient in two's complement, and
    with ``bias`` holding half = 2**(8*nb - 1) in every slot, the buffer's
    int XOR bias, minus bias, is the operand.  Every product coefficient is
    below max|a| * max|b| * min(#a, #b) in size, so the product plus bias
    holds each plus half in its slot, and one ``to_bytes`` reads them: a
    narrow slot after XOR bias, in two's complement, a wide one less half.
    """
    aus, avs = zip(*a)
    bus, bvs = zip(*b)
    ua, va, ub, vb = min(aus), min(avs), min(bus), min(bvs)
    w = max(avs) - va + max(bvs) - vb + 1
    rows = max(aus) - ua + max(bus) - ub + 1
    n = rows * w
    if n > _KRONECKER_MAX_FILL * len(a) * len(b):
        return None
    bound = max(map(abs, a.values())) * max(map(abs, b.values())) * min(len(a), len(b))
    nb = (bound.bit_length() + 9) // 8
    fmt = None
    if nb <= 8 and sys.byteorder == "little":
        nb = 1 << (nb - 1).bit_length()
        fmt = {1: "b", 2: "h", 4: "i", 8: "q"}[nb]
    half = 1 << (8 * nb - 1)
    bias = int.from_bytes(half.to_bytes(nb, "little") * n, "little")

    def pack(c, u0, v0):
        buf = bytearray(n * nb)
        if fmt:
            slots = memoryview(buf).cast(fmt)
            for (u, v), x in c.items():
                slots[(u - u0) * w + v - v0] = x
        else:
            for (u, v), x in c.items():
                i = ((u - u0) * w + v - v0) * nb
                buf[i:i + nb] = x.to_bytes(nb, "little", signed=True)
        return (int.from_bytes(buf, "little") ^ bias) - bias

    total = pack(a, ua, va) * pack(b, ub, vb) + bias
    if fmt:
        slots = memoryview((total ^ bias).to_bytes(n * nb, "little")).cast(fmt).tolist()
    else:
        digits = total.to_bytes(n * nb, "little")
        slots = [int.from_bytes(digits[i:i + nb], "little") - half for i in range(0, n * nb, nb)]
    box = product(range(ua + ub, ua + ub + rows), range(va + vb, va + vb + w))
    return dict(compress(zip(box, slots), slots))


class UVLaurent:
    """Bivariate Laurent polynomial in u, v over the integers.

    Sparse map from exponent pairs ``(a, b)`` (both may be negative) to
    nonzero int coefficients.  Instances are treated as immutable: no method
    mutates ``self``, and hashing relies on that convention.

    Ints mix freely with ``UVLaurent`` in arithmetic so that generic series
    code can use the literals ``0`` and ``1``, and ``bool()`` is false
    exactly at zero, as for a scalar.  Any other coefficient, a ``Fraction``
    included, is a TypeError.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Union[Dict[ExponentPair, int], Iterable, None] = None):
        c: Dict[ExponentPair, int] = {}
        if coeffs:
            items = coeffs.items() if isinstance(coeffs, dict) else coeffs
            for (a, b), x in items:
                if type(x) is not int:
                    raise TypeError(f"UVLaurent coefficient {x!r} is not an int")
                if x:
                    c[(a, b)] = x
        self._c = c

    @classmethod
    def _raw(cls, c: Dict[ExponentPair, int]) -> "UVLaurent":
        out = object.__new__(cls)
        out._c = c
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, value: int) -> "UVLaurent":
        return cls({(0, 0): value})

    @classmethod
    def monomial(cls, a: int, b: int, coeff: int = 1) -> "UVLaurent":
        return cls({(a, b): coeff})

    # -- queries -----------------------------------------------------------

    def items(self) -> Iterator[Tuple[ExponentPair, int]]:
        return iter(self._c.items())

    def __bool__(self) -> bool:
        return bool(self._c)

    def coeff(self, a: int, b: int) -> int:
        return self._c.get((a, b), 0)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "UVLaurent":
        if isinstance(other, UVLaurent):
            return other
        if type(other) is int:
            return UVLaurent._raw({(0, 0): other} if other else {})
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        c = dict(self._c)
        for k, x in o._c.items():
            s = c.get(k, 0) + x
            if s:
                c[k] = s
            else:
                del c[k]  # a zero sum: k was a key, as no stored value is 0
        return UVLaurent._raw(c)

    __radd__ = __add__

    def __neg__(self):
        return UVLaurent._raw({k: -x for k, x in self._c.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is int:
            if other == 1:
                return self  # instances are immutable, so sharing is safe
            if not other:
                return UVLaurent._raw({})
            return UVLaurent._raw({k: x * other for k, x in self._c.items()})
        if not isinstance(other, UVLaurent):
            return NotImplemented
        a, b = self._c, other._c
        if len(a) > len(b):
            a, b = b, a
        # operands of _KRONECKER_MIN_TERMS terms or more are packed into one
        # integer product unless sparse; the rest take this loop
        if len(a) >= _KRONECKER_MIN_TERMS:
            out = _kronecker(a, b)
            if out is not None:
                return UVLaurent._raw(out)
        out: Dict[ExponentPair, int] = {}
        for (a1, b1), x in a.items():
            for (a2, b2), y in b.items():
                k = (a1 + a2, b1 + b2)
                s = out.get(k, 0) + x * y
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return UVLaurent._raw(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if len(self._c) == 1:
            ((a, b), x), = self._c.items()
            if n < 0 and x != 1 and x != -1:
                raise NotDivisible("negative power of a non-unit monomial")
            return UVLaurent._raw({(a * n, b * n): x ** abs(n)})
        if n < 0:
            raise NotDivisible("negative power of a non-monomial")
        result, base = UVLaurent.const(1), self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._c == o._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    # -- canonical text ----------------------------------------------------

    def text(self) -> str:
        """Canonical serialization: terms sorted by (a, b) lex descending.

        Example: ``-3*u^2*v^-1 + 1``.
        """
        return format_terms(sorted(self._c.items(), reverse=True))

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"UVLaurent({self.text()})"


def format_terms(items: Iterable[Tuple[ExponentPair, int]], power: str = "%s^%d",
                 join: str = "*", times: str = "*") -> str:
    """The terms c u^a v^b of ``items``, given sorted by (a, b) descending,
    as one line (by default in :meth:`UVLaurent.text`'s form): u^a is
    ``power % ("u", a)`` (bare u when a = 1), a term's variables are joined
    by ``join``, and its coefficient is ``str(c) + times`` before them,
    dropped when it is 1 and a bare sign when -1.  Each term after the
    first is " + " or " - " and |c|'s term; no terms give "0"."""
    parts = []
    for (a, b), x in items:
        us = "" if not a else "u" if a == 1 else power % ("u", a)
        vs = "" if not b else "v" if b == 1 else power % ("v", b)
        vars_ = us + join + vs if us and vs else us or vs
        if parts:
            parts.append(" + " if x > 0 else " - ")
            x = x if x > 0 else -x
        if not vars_:
            parts.append(str(x))
        elif x == 1 or x == -1:
            parts.append(vars_ if x == 1 else "-" + vars_)
        else:
            parts.append(str(x) + times + vars_)
    return "".join(parts) or "0"


#: Convenience generators.
U = UVLaurent.monomial(1, 0)
V = UVLaurent.monomial(0, 1)
UV = UVLaurent.monomial(1, 1)


def exact_divide(num: Union[UVLaurent, Rat],
                 den: Union[UVLaurent, Rat]) -> Union[UVLaurent, Rat]:
    """Exact quotient q with q * den == num, else raise NotDivisible.

    Scalar operands are accepted: two ints give their int quotient, or
    NotDivisible; two scalars of which one is a Fraction (the weil values)
    give their rational quotient, an int when it is integral; an int beside
    a ``UVLaurent`` is read as a constant polynomial.

    A polynomial divisor has one or two terms; three or more raise
    ValueError, and a product of binomials is divided one factor at a time.
    A one-term divisor lc*X^hi shifts every exponent of num down by hi and
    divides each coefficient by lc exactly, so an int divisor is one too.
    A two-term divisor must have a lex-leading coefficient lc of +-1
    (ValueError otherwise), which is its own inverse.  Written
    lc*X^hi + c0*X^lo, it links, with the lex-positive step
    (du, dv) = hi - lo, the terms X^(e + t*step) of num into chains that
    meet only each other: num_t = lc*q_(t-1) + c0*q_t, q_t the quotient's
    coefficient at X^(e + t*step - lo).  Down from a chain's top, where q
    is 0, q_(t-1) = lc*(num_t - c0*q_t), and the quotient exists when at
    the chain's bottom num_t = c0*q_t.  The time is linear in the chains'
    spans.
    """
    if not isinstance(den, UVLaurent):
        if den == 0:
            raise ZeroDivisionError("division by zero scalar")
        if not isinstance(num, UVLaurent):
            if type(num) is int and type(den) is int:
                q, rem = divmod(num, den)
                if rem:
                    raise NotDivisible("no exact quotient: nonzero int remainder")
                return q
            q = Fraction(num) / Fraction(den)
            return q.numerator if q.denominator == 1 else q
        den = UVLaurent.const(den)
    elif not den:
        raise ZeroDivisionError("division by the zero polynomial")
    if len(den._c) > 2:
        raise ValueError(f"divisor {den} has more than two terms")
    if not isinstance(num, UVLaurent):
        num = UVLaurent.const(num)
    (hi, lc), *rest = sorted(den._c.items(), reverse=True)
    if not rest:
        if any(x % lc for x in num._c.values()):
            raise NotDivisible("no exact quotient: nonzero coefficient remainder")
        return UVLaurent._raw({(a - hi[0], b - hi[1]): x // lc for (a, b), x in num._c.items()})
    if lc != 1 and lc != -1:
        raise ValueError(f"divisor {den} has a lead coefficient {lc}, not +-1")
    (lo, c0), = rest
    du, dv = hi[0] - lo[0], hi[1] - lo[1]
    chains: Dict[ExponentPair, Dict[int, int]] = {}
    for (a, b), x in num._c.items():
        t = a // du if du else b // dv
        chains.setdefault((a - t * du - lo[0], b - t * dv - lo[1]), {})[t] = x
    quot: Dict[ExponentPair, int] = {}
    for (a, b), chain in chains.items():
        bottom = min(chain)
        q = 0
        for t in range(max(chain), bottom, -1):
            q = lc * (chain.get(t, 0) - c0 * q)
            if q:
                quot[(a + (t - 1) * du, b + (t - 1) * dv)] = q
        if chain[bottom] != c0 * q:
            raise NotDivisible("no exact quotient: nonzero remainder")
    return UVLaurent._raw(quot)
