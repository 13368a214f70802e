"""Exact arithmetic in the coefficient rings."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motiveforge.base_rings import (
    ONE,
    U,
    UV,
    V,
    NotDivisible,
    UVLaurent,
    ZeroPolynomial,
    exact_divide,
)

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
    if not zero_ok and poly.is_zero():
        poly = poly + 1
    return poly


class TestUVLaurent:
    def test_construction_drops_zeros(self):
        f = UVLaurent({(1, 0): Fraction(0), (0, 0): 3})
        assert f == 3
        assert list(f.items()) == [((0, 0), 3)]

    def test_monomial_and_pow(self):
        assert (UV ** 3).total_degree == 6
        assert UV ** -2 == UVLaurent.monomial(-2, -2)
        with pytest.raises(NotDivisible):
            (1 + U) ** -1

    def test_total_degree_examples(self):
        assert (UV ** 3).total_degree == 6
        assert (1 - U - V + UV).total_degree == 2
        assert UVLaurent.monomial(-1, 1).total_degree == 0
        with pytest.raises(ZeroPolynomial):
            UVLaurent().total_degree

    def test_scalar_mixing(self):
        assert 1 + U - 1 == U
        assert (2 * UV) * Fraction(1, 2) == UV
        assert (U - U).is_zero()

    @given(laurents(), laurents(), laurents())
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @given(laurents(), laurents(zero_ok=False))
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

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            exact_divide(ONE, UVLaurent())

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

    def test_power_substitute(self):
        f = 1 - 2 * U + 3 * UV
        assert f.power_substitute(2) == 1 - 2 * U * U + 3 * (UV ** 2)

    def test_canonical_text(self):
        f = UVLaurent({(2, -1): Fraction(-3, 2), (0, 0): 1})
        assert f.text() == "-3/2*u^2*v^-1 + 1"
        assert UVLaurent().text() == "0"
        assert (U - V).text() == "u - v"


class TestBigRational:
    @given(rationals)
    def test_string_roundtrip(self, q):
        assert Fraction(str(q)) == q

    def test_reduced_invariants(self):
        q = Fraction(6, -4)
        assert q.denominator > 0
        assert q == Fraction(-3, 2)
