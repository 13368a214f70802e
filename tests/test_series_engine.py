"""Truncated series, rational functions in t, and coefficient extraction."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motiveforge.base_rings import UV
from motiveforge.series_engine import (
    BadConstantTerm,
    BiSeries,
    InsufficientTruncation,
    PoleAtOne,
    TRational,
    TruncatedSeries,
    eval_at_one,
    series_exp,
    series_log,
    substitute_t_power,
)


class TestTruncatedSeries:
    def test_geometric(self):
        s = TruncatedSeries.geometric(1, 1, 5)
        assert [s.coeff(n) for n in range(6)] == [1] * 6

    def test_shifted_extraction(self):
        # coeff of x^0 in x^-2 * (1 + a x + b x^2 + ...) is b
        a, b = Fraction(3), Fraction(7, 2)
        s = TruncatedSeries.monomial(1, -2, 4) * TruncatedSeries([1, a, b, 0, 0], order=4)
        assert s.coeff(0) == b

    def test_coeff_below_shift_is_zero(self):
        s = TruncatedSeries.monomial(1, 3, 6)
        assert s.coeff(0) == 0

    def test_insufficient_truncation(self):
        s = TruncatedSeries.geometric(1, 1, 3)
        with pytest.raises(InsufficientTruncation):
            s.coeff(4)

    def test_product_truncation_rule(self):
        # unknown tail of b (beyond x^2) meets a's x^0 term at x^3, so the
        # product is complete only through x^2
        a = TruncatedSeries.geometric(1, 1, 4)
        b = TruncatedSeries.monomial(1, -1, 2)
        assert (a * b).order == 2
        assert (a * b).shift == -1

    def test_log_examples(self):
        # log(1 + T) = T - T^2/2 + T^3/3 - ...
        s = TruncatedSeries([1, 1], order=4)
        lg = series_log(s)
        assert [lg.coeff(n) for n in range(5)] == [
            0, 1, Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 4)]
        # log(1/(1-T)) = sum T^n / n
        lg2 = series_log(TruncatedSeries.geometric(1, 1, 4))
        assert [lg2.coeff(n) for n in range(5)] == [
            0, 1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]

    def test_log_requires_unit_constant(self):
        with pytest.raises(BadConstantTerm):
            series_log(TruncatedSeries([2, 1], order=3))

    @given(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6),
                    min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_exp_log_inverse(self, tail):
        s = TruncatedSeries([Fraction(1)] + tail, order=len(tail))
        back = series_exp(series_log(s))
        assert [back.coeff(n) for n in range(len(tail) + 1)] == \
            [s.coeff(n) for n in range(len(tail) + 1)]


def tr(num, den=()):
    return TRational(num, den)


class TestTRational:
    def test_add_same_pole(self):
        a = tr({0: 1}, [(1, 1)])
        b = a + a
        assert b == tr({0: 2}, [(1, 1)])
        assert b.den == ((1, 1),)

    def test_cancellation(self):
        # (1 - t^2) / (1 - t) reduces to 1 + t
        a = tr({0: 1, 2: -1}, [(1, 1)])
        assert a.is_polynomial()
        assert a == tr({0: 1, 1: 1})

    def test_laurent_numerators(self):
        a = tr({-1: 1}) * tr({1: 1})
        assert a == 1

    def test_mul_merges_denominators(self):
        a = tr({0: 1}, [(1, 1)])
        b = a * a
        assert b.den == ((1, 1), (1, 1))

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4))
    @settings(max_examples=20, deadline=None)
    def test_substitution_composes(self, m, n):
        a = tr({1 - 3: 1, 2: Fraction(1, 2)}, [(Fraction(5, 2), 2), (1, 1)])
        lhs = substitute_t_power(substitute_t_power(a, m), n)
        rhs = substitute_t_power(a, m * n)
        assert lhs == rhs

    def test_commutative_associative(self):
        a = tr({0: 1}, [(1, 1)])
        b = tr({1: Fraction(2, 3)}, [(Fraction(2), 2)])
        c = tr({-1: 1})
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)

    def test_equality_cross_multiplication(self):
        # t/(1-t)^2 equals (t - t^2)/((1-t)^3)
        a = tr({1: 1}, [(1, 1), (1, 1)])
        b = tr({1: 1, 2: -1}, [(1, 1), (1, 1), (1, 1)])
        assert a == b


class TestEvalAtOne:
    def test_simple(self):
        assert eval_at_one(tr({0: 1, 2: -1}, [(1, 1)])) == 2

    def test_polynomial_value(self):
        L = UV
        assert eval_at_one(tr({0: 1, 1: -L})) == 1 - L

    def test_genuine_pole(self):
        with pytest.raises(PoleAtOne):
            eval_at_one(TRational({0: 1}, [(1, 1)], reduce=False))

    def test_nontrivial_pole_cancellation(self):
        # (1 - t^3) / ((1 - t)(1 - 2t)) -> 3 / (1 - 2) = -3
        a = TRational({0: 1, 3: -1}, [(1, 1), (2, 1)], reduce=False)
        assert eval_at_one(a) == -3

    def test_uvlaurent_denominator(self):
        # (1 - (uv) t) * (1 - t^2) / (1 - t) at t = 1 is 2 (1 - uv)
        num = {0: 1, 1: -UV, 2: -1, 3: UV}
        a = TRational(num, [(1, 1)], reduce=False)
        assert eval_at_one(a) == 2 * (1 - UV)


class TestBiSeries:
    def test_double_extraction_commutes(self):
        # finite Laurent kernel: extraction is plain dictionary lookup,
        # iterated x-then-y equals y-then-x by construction
        terms = {(0, 0): 5, (1, -1): 2, (-1, 1): 3}
        s = BiSeries.from_monomials(terms, level_cap=4)
        assert s.coeff(0, 0) == 5

    def test_antidiagonal_inverses(self):
        # (x - y^2) * its inverse expansion == 1 within the window
        inv = BiSeries.inv_x_minus_y2(6)
        xy = BiSeries.from_monomials({(1, 0): 1, (0, 2): -1}, 8)
        prod = xy * inv
        assert prod.coeff(0, 0) == 1
        for (i, j), c in prod.terms.items():
            if (i, j) != (0, 0):
                assert c == 0 or i + j > prod.level_cap

    def test_geometric_embedding(self):
        gx = BiSeries.geometric_x(UV, 3)
        assert gx.coeff(2, 0) == UV ** 2

    def test_cap_propagation(self):
        a = BiSeries.inv_x_minus_y2(5)
        b = BiSeries.inv_y_minus_x2(5)
        prod = a * b
        assert prod.min_level == -2
        with pytest.raises(InsufficientTruncation):
            prod.coeff(10, -5)
