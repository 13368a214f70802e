"""Exact arithmetic in the coefficient rings."""

from fractions import Fraction
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from motiveforge.base_rings import (
    _KRONECKER_MIN_TERMS,
    U,
    UV,
    V,
    NotDivisible,
    UVLaurent,
    _kronecker,
    exact_divide,
)
from motiveforge.export import _frac_latex, poly_to_json, poly_to_latex
from motiveforge.series_engine import TRational, TruncatedSeries, eval_at_one
from uv_reference import ZeroPolynomial, format_terms, frac_latex, power_substitute, total_degree

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)


@st.composite
def laurents(draw, max_terms=5, zero_ok=True):
    n = draw(st.integers(min_value=0 if zero_ok else 1, max_value=max_terms))
    terms = {}
    for _ in range(n):
        a = draw(st.integers(min_value=-3, max_value=3))
        b = draw(st.integers(min_value=-3, max_value=3))
        c = draw(rationals)
        terms[(a, b)] = terms.get((a, b), 0) + c
    poly = UVLaurent(terms)
    if not zero_ok and not poly:
        poly = poly + 1
    return poly


def schoolbook_product(f, g):
    """The product summed term pair by term pair, as every UVLaurent product
    was before the packed integer path; the reference that path is checked
    against."""
    out = {}
    for (a1, b1), x in f.items():
        for (a2, b2), y in g.items():
            k = (a1 + a2, b1 + b2)
            out[k] = out.get(k, 0) + x * y
    return UVLaurent(out)


@st.composite
def product_operands(draw):
    """Operands around and above the packed path's size: dense boxes of
    ints up to 80 bits, boxes filled with one value +-(2**k - 1) so that
    product coefficients reach the slot bound, sparse operands spread too
    wide to pack, Fraction boxes, and zero or a monomial."""
    kind = draw(st.sampled_from(("dense", "extreme", "sparse", "fraction", "small")))
    if kind == "small":
        return draw(laurents(max_terms=1))
    if kind == "sparse":
        pos = st.integers(min_value=-400, max_value=400)
        keys = sorted(draw(st.sets(st.tuples(pos, pos), min_size=_KRONECKER_MIN_TERMS,
                                   max_size=_KRONECKER_MIN_TERMS + 8)))
    else:
        corner = st.integers(min_value=-30, max_value=5)
        u0, v0 = draw(corner), draw(corner)
        rows = draw(st.integers(min_value=1, max_value=4))
        cols = draw(st.integers(min_value=-(-_KRONECKER_MIN_TERMS // rows), max_value=16))
        keys = [(u0 + i, v0 + j) for i in range(rows) for j in range(cols)]
    if kind == "extreme":
        sign = draw(st.sampled_from((1, -1)))
        coeffs = [sign * (2 ** draw(st.integers(min_value=1, max_value=80)) - 1)] * len(keys)
    else:
        bound = 2 ** draw(st.integers(min_value=1, max_value=80))
        coef = rationals if kind == "fraction" else st.integers(min_value=-bound, max_value=bound)
        coeffs = draw(st.lists(coef, min_size=len(keys), max_size=len(keys)))
    return UVLaurent(dict(zip(keys, coeffs)))


@st.composite
def binomials(draw):
    """lc*X^hi + c0*X^lo with the step hi - lo one of (1,0), (0,1), (1,1),
    (2,2) and (1,-2), a lead of +-1 or not a unit, and int or Fraction
    coefficients."""
    step = draw(st.sampled_from(((1, 0), (0, 1), (1, 1), (2, 2), (1, -2))))
    lo = (draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
    lc = draw(st.sampled_from((1, -1, 2, Fraction(-2, 3))))
    c0 = draw(st.one_of(st.integers(-9, 9), rationals).filter(bool))
    return UVLaurent({(lo[0] + step[0], lo[1] + step[1]): lc, lo: c0}), step


@st.composite
def monomials(draw):
    """lc*X^e with a lead of +-1 or not a unit."""
    e = (draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
    return UVLaurent.monomial(*e, draw(st.sampled_from((1, -1, 2, Fraction(-2, 3)))))


def divisors():
    """The polynomial divisors exact_divide takes: a monomial or a binomial."""
    return st.one_of(monomials(), binomials().map(lambda drawn: drawn[0]))


def _two_level_divide(num, den):
    """Exact division as nested long division, by u-degree outside and by
    v-degree inside, after shifting both operands to ordinary polynomials;
    the reference exact_divide is compared with."""
    if not num:
        return UVLaurent()
    nmu = min(a for (a, _), _ in num.items())
    nmv = min(b for (_, b), _ in num.items())
    dmu = min(a for (a, _), _ in den.items())
    dmv = min(b for (_, b), _ in den.items())

    def by_u(poly, su, sv):
        g = {}
        for (a, b), x in poly.items():
            g.setdefault(a - su, {})[b - sv] = Fraction(x)
        return g

    def divide_v(n, d):
        dd = max(d)
        rem = dict(n)
        quot = {}
        while rem:
            nd = max(rem)
            if nd < dd:
                return None
            q = rem[nd] / d[dd]
            quot[nd - dd] = q
            for e, c in d.items():
                s = rem.get(nd - dd + e, 0) - q * c
                if s:
                    rem[nd - dd + e] = s
                else:
                    rem.pop(nd - dd + e, None)
        return quot

    rem = by_u(num, nmu, nmv)
    dgrp = by_u(den, dmu, dmv)
    du = max(dgrp)
    quot = {}
    while rem:
        nu = max(rem)
        if nu < du:
            raise NotDivisible("u-degree remainder")
        qv = divide_v(rem[nu], dgrp[du])
        if qv is None:
            raise NotDivisible("coefficient division")
        for qe, qc in qv.items():
            quot[(nu - du + nmu - dmu, qe + nmv - dmv)] = qc
        for ue, vpoly in dgrp.items():
            target = rem.setdefault(nu - du + ue, {})
            for ve, c in vpoly.items():
                for qe, qc in qv.items():
                    s = target.get(ve + qe, 0) - qc * c
                    if s:
                        target[ve + qe] = s
                    else:
                        target.pop(ve + qe, None)
        rem = {k: v for k, v in rem.items() if v}
    return UVLaurent(quot)


class TestUVLaurent:
    @given(laurents())
    @settings(max_examples=30, deadline=None)
    def test_product_with_one_is_the_operand(self, x):
        # instances are immutable, so a product with the int 1 shares them
        before = dict(x.items())
        assert x * 1 is x and 1 * x is x
        assert dict(x.items()) == before

    def test_construction_drops_zeros(self):
        f = UVLaurent({(1, 0): Fraction(0), (0, 0): 3})
        assert f == 3
        assert list(f.items()) == [((0, 0), 3)]

    def test_monomial_and_pow(self):
        assert total_degree(UV ** 3) == 6
        assert UV ** -2 == UVLaurent.monomial(-2, -2)
        with pytest.raises(NotDivisible):
            (1 + U) ** -1

    def test_total_degree_examples(self):
        assert total_degree(UV ** 3) == 6
        assert total_degree(1 - U - V + UV) == 2
        assert total_degree(UVLaurent.monomial(-1, 1)) == 0
        with pytest.raises(ZeroPolynomial):
            total_degree(UVLaurent())

    def test_scalar_mixing(self):
        assert 1 + U - 1 == U
        assert (2 * UV) * Fraction(1, 2) == UV
        assert not (U - U)

    @given(laurents(), laurents(), laurents())
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @given(product_operands(), product_operands())
    @settings(max_examples=100, deadline=None)
    def test_product_matches_schoolbook(self, a, b):
        expected = schoolbook_product(a, b)
        for got in (a * b, b * a):
            assert got == expected
            assert all(type(x) is type(expected.coeff(*k)) for k, x in got.items())

    def test_packed_path_and_its_fallbacks(self):
        dense = UVLaurent({(i, j - 3): 1 + i * j for i in range(4) for j in range(5)})
        sparse = UVLaurent({(40 * i, -50 * i): 1 for i in range(20)})
        terms, sparse_terms = dict(dense.items()), dict(sparse.items())
        assert _kronecker(terms, terms) == dict(schoolbook_product(dense, dense).items())
        assert _kronecker(sparse_terms, sparse_terms) is None
        assert dense * sparse == schoolbook_product(dense, sparse)
        assert dense * (dense * Fraction(1, 3)) == schoolbook_product(dense, dense) * Fraction(1, 3)

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 8, 9])
    def test_packed_slots_at_each_width_bound(self, width):
        # operands of 16 terms of size m, m as large as a slot of ``width``
        # bytes allows before widening: the middle coefficient of a product
        # of two rows of equal signs is +-16 m^2, the bound the slot is
        # sized for
        m = 2 ** (4 * width - 3) - 1
        assert (16 * m * m).bit_length() + 9 >= 8 * width > (16 * m * m).bit_length() + 1
        alternating = {(0, j): (-1) ** j * m for j in range(16)}
        for sa in (1, -1):
            for sb in (1, -1):
                same = {(0, j): sa * m for j in range(16)}
                for a, b in ((same, {(0, j): sb * m for j in range(16)}), (same, alternating),
                             ({(j % 2, j // 2 - 4): sb * m for j in range(16)}, same)):
                    expected = schoolbook_product(UVLaurent(a), UVLaurent(b))
                    assert _kronecker(a, b) == dict(expected.items())
                    assert _kronecker(b, a) == dict(expected.items())

    @given(laurents(max_terms=4, zero_ok=False), st.integers(-4, 6))
    @settings(max_examples=60, deadline=None)
    def test_power_of_a_monomial_is_one_term(self, f, n):
        m = UVLaurent(dict([next(iter(f.items()))]))
        ((a, b), x), = m.items()
        expected = math.prod([m] * n, start=UVLaurent.const(1)) if n >= 0 else \
            UVLaurent.monomial(a * n, b * n, Fraction(x) ** n)
        got = m ** n
        assert got == expected and list(got.items()) == list(expected.items())
        assert all(type(c) is type(expected.coeff(*k)) for k, c in got.items())

    @given(laurents(), divisors())
    @settings(max_examples=60, deadline=None)
    def test_exact_divide_roundtrip(self, a, b):
        assert exact_divide(a * b, b) == a

    def test_exact_divide_examples(self):
        assert exact_divide((UV - 1) * (1 + U), UV - 1) == 1 + U
        assert exact_divide(UV * UV - 1, UV - 1) == UV + 1
        lhs = (1 - U) * (1 - U) * (1 - V)
        assert exact_divide(lhs, 1 - U) == (1 - U) * (1 - V)

    def test_exact_divide_failure(self):
        with pytest.raises(NotDivisible):
            exact_divide(1 + U, 1 + V)
        with pytest.raises(NotDivisible):
            exact_divide(UV, UV - 1)

    def test_more_than_two_terms_raise(self):
        # a product of binomials is divided one factor at a time instead
        for den in (1 + U + V, (1 - UV) * (1 - U * V * V)):
            for num in (den, den * (1 + U), 0):
                with pytest.raises(ValueError, match="more than two terms"):
                    exact_divide(num, den)

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            exact_divide(UVLaurent.const(1), UVLaurent())

    def test_exact_divide_scalars(self):
        q = exact_divide(Fraction(6), 3)
        assert q == 2 and type(q) is int
        assert exact_divide(1, Fraction(2, 3)) == Fraction(3, 2)
        with pytest.raises(ZeroDivisionError):
            exact_divide(Fraction(1, 2), 0)
        with pytest.raises(ZeroDivisionError):
            exact_divide(UV, Fraction(0))
        assert exact_divide(2 * UV - 4, Fraction(2, 3)) == 3 * UV - 6
        assert exact_divide(2, 1 + U - U) == 2

    def test_exact_divide_ints(self):
        # two ints give the int quotient or NotDivisible, never a Fraction
        for num, den, quotient in ((12, -4, -3), (-12, -4, 3), (0, 7, 0), (3 << 300, 1 << 300, 3)):
            q = exact_divide(num, den)
            assert q == quotient and type(q) is int
        for num, den in ((7, 2), (-7, -2), (7, -2), (1 << 300, 3)):
            with pytest.raises(NotDivisible, match="nonzero int remainder"):
                exact_divide(num, den)
        with pytest.raises(ZeroDivisionError):
            exact_divide(3, 0)
        assert exact_divide(Fraction(7), 2) == exact_divide(7, Fraction(2)) == Fraction(7, 2)

    @given(st.integers(-10 ** 30, 10 ** 30), st.integers(-10 ** 9, 10 ** 9).filter(bool),
           st.integers(-10 ** 9, 10 ** 9))
    @settings(max_examples=80, deadline=None)
    def test_exact_divide_ints_checks_the_remainder(self, q, den, offset):
        assert exact_divide(q * den, den) == q
        if offset % den:
            with pytest.raises(NotDivisible):
                exact_divide(q * den + offset, den)

    @given(laurents(max_terms=6), divisors(),
           st.fractions(min_value=-9, max_value=9, max_denominator=7)
           .filter(lambda x: x not in (0, 1, -1)))
    @settings(max_examples=80, deadline=None)
    def test_exact_multiple_and_two_level_reference(self, a, b, scale):
        # a non-unit Fraction lead coefficient takes the Fraction path
        for den in (b, b * scale):
            num = a * den
            q = exact_divide(num, den)
            assert q == a
            assert q == _two_level_divide(num, den)
            assert all(type(x) is int or x.denominator != 1 for _, x in q.items())

    @given(laurents(max_terms=5), divisors(),
           st.integers(min_value=-7, max_value=7), st.integers(min_value=-7, max_value=7),
           rationals.filter(lambda x: x != 0))
    @settings(max_examples=80, deadline=None)
    def test_changed_coefficient_not_divisible(self, a, b, ea, eb, delta):
        # a multiple of a non-monomial b plus one monomial is no multiple of b
        assume(len(list(b.items())) > 1)
        num = a * b + UVLaurent.monomial(ea, eb, delta)
        with pytest.raises(NotDivisible):
            exact_divide(num, b)
        with pytest.raises(NotDivisible):
            _two_level_divide(num, b)

    @given(laurents(max_terms=5, zero_ok=False), divisors(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_narrower_numerator_not_divisible(self, num, den, along_v):
        # a multiple of den spans at least as much as den in each coordinate;
        # num's exponents are folded into fewer values than den spans
        def span(f, i):
            es = [k[i] for k, _ in f.items()]
            return max(es) - min(es)

        i = 1 if along_v else 0
        assume(span(den, i))
        num = UVLaurent({tuple(e % span(den, i) if j == i else e for j, e in enumerate(k)): x
                         for k, x in num.items()})
        assume(span(num, i) < span(den, i))
        with pytest.raises(NotDivisible):
            exact_divide(num, den)

    @given(laurents(max_terms=6), divisors())
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_two_level_reference(self, num, den):
        try:
            expected = _two_level_divide(num, den)
        except NotDivisible:
            with pytest.raises(NotDivisible):
                exact_divide(num, den)
        else:
            assert exact_divide(num, den) == expected

    @given(st.one_of(laurents(max_terms=6), st.dictionaries(
        st.tuples(st.integers(-4, 4), st.integers(-4, 4)), st.integers(-9, 9),
        max_size=8).map(UVLaurent)), binomials(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_binomial_divisor(self, q, binomial, data):
        # a two-term divisor is divided chain by chain along its step
        den, (du, dv) = binomial
        num = q * den
        got = exact_divide(num, den)
        assert got == q == _two_level_divide(num, den)
        assert all(type(x) is int or x.denominator != 1 for _, x in got.items())
        # one more monomial is no multiple: anywhere, at the bottom of a
        # chain of num, or one step below it
        spots = [(data.draw(st.integers(-9, 9)), data.draw(st.integers(-9, 9)))]
        if num:
            a, b = data.draw(st.sampled_from(sorted(k for k, _ in num.items())))
            while num.coeff(a - du, b - dv):
                a, b = a - du, b - dv
            spots += [(a, b), (a - du, b - dv)]
        delta = data.draw(rationals.filter(bool))
        for a, b in spots:
            changed = num + UVLaurent.monomial(a, b, delta)
            with pytest.raises(NotDivisible):
                exact_divide(changed, den)
            with pytest.raises(NotDivisible):
                _two_level_divide(changed, den)

    @given(laurents(max_terms=4, zero_ok=False), st.integers(1, 3), st.integers(1, 3),
           st.lists(st.integers(1, 4), max_size=2), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_eval_at_one_divides_factor_by_factor(self, q, k, j, extra, scale):
        # a denominator with a repeated and a distinct power of L = uv is
        # divided one factor at a time, as the product is by the reference
        assume(k != j)
        powers = [k, k, j] + extra
        factors = [1 - UV ** e for e in powers]
        product = math.prod(factors)
        num = q * product

        def at_one(numerator):
            value = TRational(numerator, [UV ** e for e in powers], scale)
            return eval_at_one(TruncatedSeries([value], order=0), 0)

        assert at_one(num) == _two_level_divide(num, product) * Fraction(1, scale)
        assert at_one(num) == q * Fraction(1, scale)
        # without one copy of the repeated factor, q must supply it
        short = q * math.prod(factors[1:])
        try:
            _two_level_divide(short, product)
        except NotDivisible:
            with pytest.raises(NotDivisible):
                at_one(short)
        else:
            assume(False)

    def test_power_substitute(self):
        f = 1 - 2 * U + 3 * UV
        assert power_substitute(f, 2) == 1 - 2 * U * U + 3 * (UV ** 2)

    def test_canonical_text(self):
        f = UVLaurent({(2, -1): Fraction(-3, 2), (0, 0): 1})
        assert f.text() == "-3/2*u^2*v^-1 + 1"
        assert UVLaurent().text() == "0"
        assert (U - V).text() == "u - v"

    @given(st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                           st.one_of(st.sampled_from((1, -1, Fraction(1), Fraction(-1, 3))),
                                     rationals, st.integers(-10 ** 6, 10 ** 6)),
                           max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_canonical_text_matches_the_reference(self, terms):
        # text, LaTeX and JSON against the formatter that sorted its own
        # items: +-1 and Fraction coefficients, zero and negative exponents
        f = UVLaurent(terms)
        items = list(f.items())
        text = format_terms(items, "%s^%d", "*", str, "*")
        assert f.text() == str(f) == text
        assert poly_to_latex(f) == format_terms(items, "%s^{%d}", " ", frac_latex, r"\, ")
        assert poly_to_json(f) == {"text": text, "terms": [
            {"u": a, "v": b, "coeff": str(c)} for (a, b), c in sorted(items, reverse=True)]}

    @given(st.one_of(st.integers(-10 ** 30, 10 ** 30), st.integers(max_value=-1), rationals,
                     st.fractions()))
    @settings(max_examples=200, deadline=None)
    def test_latex_coefficient_matches_the_reference(self, x):
        # ints take the short path, Fractions (integral ones too) the
        # general one; both must print as the one-Fraction reference
        assert _frac_latex(x) == frac_latex(x)


class TestBigRational:
    @given(rationals)
    def test_string_roundtrip(self, q):
        assert Fraction(str(q)) == q

    def test_reduced_invariants(self):
        q = Fraction(6, -4)
        assert q.denominator > 0
        assert q == Fraction(-3, 2)
