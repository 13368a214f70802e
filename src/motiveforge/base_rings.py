"""Exact coefficient arithmetic: rationals and bivariate Laurent polynomials.

Everything in this package is computed over one of two coefficient domains:

* the Hodge realization, whose values are Laurent polynomials in the Hodge
  variables ``u`` and ``v`` with rational coefficients (``UVLaurent``), and
* the Weil-style numeric realization, whose values are plain rationals
  (``int`` or ``fractions.Fraction``).

All arithmetic is exact; nothing is ever rounded.  Polynomial division is
only available through :func:`exact_divide`, which insists on a zero
remainder.  A failed division means some upstream polynomiality claim is
violated (or a formula was transcribed wrongly), so it raises
:class:`NotDivisible` instead of returning an approximation.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Iterator, Tuple, Union

Rat = Union[int, Fraction]
ExponentPair = Tuple[int, int]


class NotDivisible(ArithmeticError):
    """Exact polynomial division failed: no exact quotient exists."""


class ZeroPolynomial(ValueError):
    """An operation that requires a nonzero polynomial received zero."""


def _norm(c: Rat) -> Rat:
    """Store integral values as int (cheaper arithmetic), the rest as Fraction."""
    # exact type test first: isinstance against Fraction goes through the
    # numbers ABC machinery, and most coefficients are plain ints
    if type(c) is int:
        return c
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


class UVLaurent:
    """Bivariate Laurent polynomial in u, v over the rationals.

    Sparse map from exponent pairs ``(a, b)`` (both may be negative) to
    nonzero coefficients.  Instances are treated as immutable: no method
    mutates ``self``, and hashing relies on that convention.

    Scalars (int / Fraction) mix freely with ``UVLaurent`` in arithmetic so
    that generic series code can use the literals ``0`` and ``1``.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Union[Dict[ExponentPair, Rat], Iterable, None] = None):
        c: Dict[ExponentPair, Rat] = {}
        if coeffs:
            items = coeffs.items() if isinstance(coeffs, dict) else coeffs
            for (a, b), x in items:
                x = _norm(x)
                if x:
                    c[(a, b)] = x
        self._c = c

    @classmethod
    def _raw(cls, c: Dict[ExponentPair, Rat]) -> "UVLaurent":
        out = object.__new__(cls)
        out._c = c
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, value: Rat) -> "UVLaurent":
        value = _norm(value)
        return cls._raw({(0, 0): value} if value else {})

    @classmethod
    def monomial(cls, a: int, b: int, coeff: Rat = 1) -> "UVLaurent":
        coeff = _norm(coeff)
        return cls._raw({(a, b): coeff} if coeff else {})

    # -- queries -----------------------------------------------------------

    def items(self) -> Iterator[Tuple[ExponentPair, Rat]]:
        return iter(self._c.items())

    def is_zero(self) -> bool:
        return not self._c

    def is_monomial(self) -> bool:
        return len(self._c) == 1

    @property
    def total_degree(self) -> int:
        if not self._c:
            raise ZeroPolynomial("total degree of the zero polynomial")
        return max(a + b for a, b in self._c)

    def degree_span(self) -> Tuple[int, int, int, int]:
        """(min_u, max_u, min_v, max_v) over stored monomials."""
        if not self._c:
            raise ZeroPolynomial("degree span of the zero polynomial")
        us = [a for a, _ in self._c]
        vs = [b for _, b in self._c]
        return min(us), max(us), min(vs), max(vs)

    def coeff(self, a: int, b: int) -> Rat:
        return self._c.get((a, b), 0)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "UVLaurent":
        if isinstance(other, UVLaurent):
            return other
        if isinstance(other, (int, Fraction)):
            return UVLaurent.const(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        c = dict(self._c)
        for k, x in o._c.items():
            s = c.get(k, 0) + x
            if s:
                c[k] = _norm(s)
            else:
                c.pop(k, None)
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
        if isinstance(other, (int, Fraction)):
            other = _norm(other)
            if not other:
                return UVLaurent._raw({})
            return UVLaurent._raw({k: _norm(x * other) for k, x in self._c.items()})
        if not isinstance(other, UVLaurent):
            return NotImplemented
        a, b = self._c, other._c
        if len(a) > len(b):
            a, b = b, a
        out: Dict[ExponentPair, Rat] = {}
        for (a1, b1), x in a.items():
            for (a2, b2), y in b.items():
                k = (a1 + a2, b1 + b2)
                s = out.get(k, 0) + x * y
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return UVLaurent._raw({k: _norm(x) for k, x in out.items() if x})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            if len(self._c) != 1:
                raise NotDivisible("negative power of a non-monomial")
            ((a, b), x), = self._c.items()
            return UVLaurent._raw({(a * n, b * n): _norm(Fraction(1) / Fraction(x) ** (-n))})
        result = UVLaurent.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._c == o._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    # -- substitutions -----------------------------------------------------

    def power_substitute(self, j: int) -> "UVLaurent":
        """u -> u^j, v -> v^j (the realization of the j-th Adams operator)."""
        return UVLaurent._raw({(a * j, b * j): x for (a, b), x in self._c.items()})

    def swap_uv(self) -> "UVLaurent":
        return UVLaurent._raw({(b, a): x for (a, b), x in self._c.items()})

    # -- canonical text ----------------------------------------------------

    def sort_key(self):
        return tuple(sorted(self._c.items()))

    def text(self) -> str:
        """Canonical serialization: terms sorted by (a, b) lex descending.

        Example: ``-3/2*u^2*v^-1 + 1``.
        """
        if not self._c:
            return "0"
        parts = []
        for idx, ((a, b), x) in enumerate(sorted(self._c.items(), reverse=True)):
            vars_ = []
            if a:
                vars_.append("u" if a == 1 else f"u^{a}")
            if b:
                vars_.append("v" if b == 1 else f"v^{b}")
            mag = x if idx == 0 else abs(x)
            if not vars_:
                body = str(mag)
            elif mag == 1:
                body = "*".join(vars_)
            elif idx == 0 and mag == -1:
                body = "-" + "*".join(vars_)
            else:
                body = str(mag) + "*" + "*".join(vars_)
            if idx == 0:
                parts.append(body)
            else:
                parts.append((" + " if x > 0 else " - ") + body)
        return "".join(parts)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"UVLaurent({self.text()})"


#: Convenience generators.
U = UVLaurent.monomial(1, 0)
V = UVLaurent.monomial(0, 1)
UV = UVLaurent.monomial(1, 1)
ONE = UVLaurent.const(1)


def _upoly_divide_exact(num: Dict[int, Rat], den: Dict[int, Rat]):
    """Exact division of univariate polynomials stored as exp -> coeff dicts.

    Returns the quotient dict or None when the division is not exact.
    """
    if not num:
        return {}
    dd = max(den)
    dlead = den[dd]
    rem = dict(num)
    quot: Dict[int, Rat] = {}
    while rem:
        nd = max(rem)
        if nd < dd:
            return None
        q = Fraction(rem[nd]) / Fraction(dlead)
        quot[nd - dd] = _norm(q)
        for e, c in den.items():
            k = nd - dd + e
            s = rem.get(k, 0) - q * c
            if s:
                rem[k] = s
            else:
                rem.pop(k, None)
    return quot


def exact_divide(num: Union[UVLaurent, Rat],
                 den: Union[UVLaurent, Rat]) -> Union[UVLaurent, Rat]:
    """Exact quotient q with q * den == num, else raise NotDivisible.

    The division treats both operands as polynomials in u whose coefficients
    are polynomials in v.  Laurent inputs are handled by factoring out the
    minimal monomial of each operand first.  Scalar operands (int or
    Fraction) are accepted: two scalars give their rational quotient, an int
    when it is integral; a scalar beside a ``UVLaurent`` is read as a
    constant polynomial.
    """
    if not isinstance(den, UVLaurent):
        if den == 0:
            raise ZeroDivisionError("division by zero scalar")
        if not isinstance(num, UVLaurent):
            return _norm(Fraction(num) / Fraction(den))
        den = UVLaurent.const(den)
    elif den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if not isinstance(num, UVLaurent):
        num = UVLaurent.const(num)
    if num.is_zero():
        return UVLaurent._raw({})
    if den.is_monomial():
        ((da, db), dx), = den._c.items()
        inv = Fraction(1) / Fraction(dx)
        return UVLaurent._raw(
            {(a - da, b - db): _norm(x * inv) for (a, b), x in num._c.items()}
        )

    nmu, _, nmv, _ = num.degree_span()
    dmu, _, dmv, _ = den.degree_span()
    # shift both operands to ordinary polynomials
    nshift = {(a - nmu, b - nmv): x for (a, b), x in num._c.items()}
    dshift = {(a - dmu, b - dmv): x for (a, b), x in den._c.items()}

    # group by u-exponent: u_exp -> {v_exp: coeff}
    def by_u(poly):
        g: Dict[int, Dict[int, Rat]] = {}
        for (a, b), x in poly.items():
            g.setdefault(a, {})[b] = x
        return g

    rem = by_u(nshift)
    dgrp = by_u(dshift)
    du = max(dgrp)
    dlead = dgrp[du]
    quot: Dict[int, Dict[int, Rat]] = {}
    while rem:
        nu = max(rem)
        if nu < du:
            raise NotDivisible("no exact quotient (u-degree remainder)")
        qv = _upoly_divide_exact(rem[nu], dlead)
        if qv is None:
            raise NotDivisible("no exact quotient (coefficient division)")
        quot[nu - du] = qv
        for ue, vpoly in dgrp.items():
            target = rem.setdefault(nu - du + ue, {})
            for ve, c in vpoly.items():
                for qe, qc in qv.items():
                    k = ve + qe
                    s = target.get(k, 0) - qc * c
                    if s:
                        target[k] = s
                    else:
                        target.pop(k, None)
            if not target:
                rem.pop(nu - du + ue, None)
        rem = {k: v for k, v in rem.items() if v}
    out: Dict[ExponentPair, Rat] = {}
    ushift = nmu - dmu
    vshift = nmv - dmv
    for ue, vpoly in quot.items():
        for ve, c in vpoly.items():
            out[(ue + ushift, ve + vshift)] = _norm(c)
    return UVLaurent._raw({k: x for k, x in out.items() if x})
