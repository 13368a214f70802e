"""Truncated series, constant denominators, the t-rational reference and
coefficient extraction."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collections import Counter

from motiveforge import series_engine
from motiveforge.base_rings import UV, NotDivisible, UVLaurent
from motiveforge.series_engine import (
    BadConstantTerm,
    BiSeries,
    InsufficientTruncation,
    PoleAtOne,
    TruncatedSeries,
    series_log,
)
from series_reference import geometric, inverse, log, product
from t_rational import (
    TRational,
    _tp_divide_factor,
    _tp_mul_factor,
    eval_at_one,
    substitute_t_power,
)


# scalars and Laurent polynomials in u, v, the two coefficient rings
ring_elements = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
    st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                    st.integers(-3, 3), max_size=2).map(UVLaurent),
)


def series_exp(s: TruncatedSeries) -> TruncatedSeries:
    """Formal exponential of a series with zero constant term: the inverse
    that checks series_log."""
    if s.coeff(0) != 0:
        raise BadConstantTerm("series_exp needs zero constant term")
    order = s.order
    a = [s.coeff(n) for n in range(order + 1)]
    e = [1] + [0] * order
    for n in range(1, order + 1):
        acc = 0
        for k in range(1, n + 1):
            acc = acc + (a[k] * e[n - k]) * Fraction(k, n)
        e[n] = acc
    return TruncatedSeries(e, order=order)


class TestTruncatedSeries:
    def test_geometric(self):
        s = geometric(1, 1, 5)
        assert [s.coeff(n) for n in range(6)] == [1] * 6

    def test_coeff_below_shift_is_zero(self):
        # a power series has no terms below x^0; a negative index must not
        # wrap around to the top coefficients
        s = geometric(2, 1, 6)
        assert s.coeff(-1) == 0

    def test_insufficient_truncation(self):
        s = geometric(1, 1, 3)
        with pytest.raises(InsufficientTruncation):
            s.coeff(4)

    def test_product_truncation_rule(self):
        # unknown tail of b (beyond x^2) meets a's x^0 term at x^3, so the
        # product is complete only through x^2, the smaller of the orders
        a = geometric(1, 1, 4)
        b = TruncatedSeries([1, 2], order=2)
        assert (a * b).order == (b * a).order == 2
        assert [(a * b).coeff(n) for n in range(3)] == [1, 3, 3]

    @given(st.lists(ring_elements, min_size=1, max_size=8),
           st.one_of(st.integers(-3, 3), st.fractions(min_value=-4, max_value=4, max_denominator=3),
                     st.builds(UVLaurent.monomial, st.integers(-2, 2), st.integers(-2, 2),
                               st.integers(-3, 3).filter(bool))),
           st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_over_geometric_is_the_product_by_geometric(self, xs, c, m):
        s = TruncatedSeries(xs, order=len(xs) - 1)
        got, expected = s.over_geometric(c, m), s * geometric(c, m, s.order)
        assert got.order == expected.order and got.coeffs == expected.coeffs
        with pytest.raises(ValueError):
            s.over_geometric(c, 0)

    def test_log_examples(self):
        # log(1 + T) = T - T^2/2 + T^3/3 - ...
        s = TruncatedSeries([1, 1], order=4)
        lg = series_log(s)
        assert [lg.coeff(n) for n in range(5)] == [
            0, 1, Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 4)]
        # log(1/(1-T)) = sum T^n / n
        lg2 = series_log(geometric(1, 1, 4))
        assert [lg2.coeff(n) for n in range(5)] == [
            0, 1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]

    def test_log_requires_unit_constant(self):
        with pytest.raises(BadConstantTerm):
            series_log(TruncatedSeries([2, 1], order=3))

    @given(st.sampled_from(["int", "Fraction", "UVLaurent"]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_log_matches_the_k_over_n_recurrence(self, kind, data):
        # one recurrence m_n = n a_n - sum m_k a_(n-k), divided by n once,
        # against the k/n-weighted one of series_reference; on ints the
        # m_n stay ints: the only Fractions made are the 1/n of n >= 2
        ring = {"int": st.integers(-9, 9),
                "Fraction": st.fractions(min_value=-5, max_value=5, max_denominator=6),
                "UVLaurent": ring_elements.filter(lambda x: isinstance(x, UVLaurent))}[kind]
        tail = data.draw(st.lists(ring, max_size=6))
        s = TruncatedSeries([1] + tail, order=len(tail))
        made = []

        def recording(*args):
            made.append(args)
            return Fraction(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(series_engine, "Fraction", recording)
            got = series_log(s)
        want = log(s)
        assert got.order == want.order and got.coeffs == want.coeffs
        assert made == [(1, n) for n in range(2, s.order + 1)]
        if kind == "int":
            assert all((x * n).denominator == 1 for n, x in enumerate(got.coeffs))
        bad = TruncatedSeries([data.draw(ring.filter(lambda x: x != 1))] + tail, order=len(tail))
        for f in (series_log, log):
            with pytest.raises(BadConstantTerm, match="constant term is not 1"):
                f(bad)

    @given(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6),
                    min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_exp_log_inverse(self, tail):
        s = TruncatedSeries([Fraction(1)] + tail, order=len(tail))
        back = series_exp(series_log(s))
        assert [back.coeff(n) for n in range(len(tail) + 1)] == \
            [s.coeff(n) for n in range(len(tail) + 1)]

    @given(st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(lambda x: x != 0),
           st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6), max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_inverse(self, lead, tail):
        s = TruncatedSeries([lead] + tail, order=len(tail))
        prod = s * inverse(s)
        assert prod.order == len(tail)
        assert [prod.coeff(n) for n in range(len(tail) + 1)] == [1] + [0] * len(tail)


class TestSeriesArithmetic:
    """Sums, differences and scalar multiples, and products of series with
    leading zeros: the ADHM route's expansion weighted by s^(T-degree)."""

    def test_sum_is_known_as_far_as_both_operands(self):
        a = TruncatedSeries([1, 2, 3], order=2)
        b = TruncatedSeries([5, 7, 11, 13], order=3)
        for c in (a + b, b + a):
            assert c.order == 2 and [c.coeff(k) for k in range(-1, 3)] == [0, 6, 9, 14]
            with pytest.raises(InsufficientTruncation, match=r"x\^3 requested, series truncated at 2"):
                c.coeff(3)
        assert (a - a).coeffs == [0, 0, 0]

    def test_product_adds_leading_zeros(self):
        # at t = 1 + s: s t / (1 - t) = -1 - s, and times (1 - t) = -s it
        # is s t = s + s^2, one leading zero from each s
        q = TruncatedSeries([1, 1], order=2) * TruncatedSeries([-1], order=2)
        minus_s = TruncatedSeries([0, -1], order=2)
        assert [(q * minus_s).coeff(k) for k in range(3)] == [0, 1, 1]
        assert [(minus_s * minus_s).coeff(k) for k in range(3)] == [0, 0, 1]
        assert [(q * Fraction(1, 2)).coeff(k) for k in range(2)] == [Fraction(-1, 2)] * 2

    @given(st.lists(ring_elements, min_size=1, max_size=5),
           st.lists(ring_elements, min_size=1, max_size=5), ring_elements)
    @settings(max_examples=60, deadline=None)
    def test_sum_difference_and_scalar_multiple(self, xs, ys, c):
        # coefficient by coefficient, known as far as both operands are
        a = TruncatedSeries(xs, order=len(xs) - 1)
        b = TruncatedSeries(ys, order=len(ys) - 1)
        both = min(len(xs), len(ys))
        assert (a + b).order == (a - b).order == both - 1
        assert (a + b).coeffs == [x + y for x, y in zip(xs, ys)]
        assert (a - b).coeffs == [x - y for x, y in zip(xs, ys)]
        assert (a * c).order == a.order and (a * c).coeffs == [x * c for x in xs]


def tr(num, den=()):
    return TRational(num, den)


def _nonzero_terms(d):
    return {e: x for e, x in d.items() if x != 0}


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)
nonzero_rationals = rationals.filter(lambda x: x != 0)
uv_monomials = st.builds(UVLaurent.monomial, st.integers(-2, 2), st.integers(-2, 2),
                         nonzero_rationals)
uv_polynomials = st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                                 rationals, max_size=3).map(UVLaurent)
# Laurent t-polynomials over the rationals or over Q[u, v] Laurent polynomials
t_polynomials = st.one_of(
    st.dictionaries(st.integers(-5, 5), rationals, max_size=6),
    st.dictionaries(st.integers(-5, 5), uv_polynomials, max_size=6),
).map(_nonzero_terms)
units = st.one_of(nonzero_rationals, uv_monomials)
factors = st.tuples(units, st.integers(1, 4))


def _divide_by_reconstruction(a, c, m):
    """Reference: the recurrence, then the full product q*(1 - c t^m) == a."""
    if not a:
        return {}
    q = {}
    for e in range(min(a), max(a) - m + 1):
        val = a.get(e, 0)
        if e - m in q:
            val = val + q[e - m] * c
        if val != 0:
            q[e] = val
    return q if _tp_mul_factor(q, c, m) == a else None


class TestDivideFactor:
    @given(t_polynomials, factors, nonzero_rationals)
    @settings(max_examples=150, deadline=None)
    def test_exact_multiples_and_perturbations(self, b, factor, delta):
        c, m = factor
        a = _tp_mul_factor(b, c, m)
        assert _tp_divide_factor(a, c, m) == b
        assert _divide_by_reconstruction(a, c, m) == b
        # a monomial is never a multiple of (1 - c t^m), so changing any one
        # coefficient of an exact multiple leaves no exact quotient
        for e in set(a) | {min(a, default=0) - 1, max(a, default=0) + 1}:
            changed = _nonzero_terms({**a, e: a.get(e, 0) + delta})
            assert _tp_divide_factor(changed, c, m) is None
            assert _divide_by_reconstruction(changed, c, m) is None


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

    def test_zero_carries_no_denominator(self):
        assert TRational({}, [(2, 1)]).den == ()
        assert (tr({0: 1}, [(1, 1)]) * 0).den == ()
        x = TRational({0: 1, 1: 1}, [(3, 1)], reduce=False)
        zero = TRational({0: 0}, [(2, 1), (3, 1)], reduce=False)
        assert (x + zero).den == x.den == ((3, 1),)
        assert (zero + x).den == x.den

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

    @given(t_polynomials.filter(bool), st.lists(factors, min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_constructor_cancels_every_dividing_factor(self, p, den):
        num = p
        for c, m in den:
            num = _tp_mul_factor(num, c, m)
        a = TRational(num, den)
        assert a.num == p
        assert a.den == ()

    @given(t_polynomials, st.lists(factors, max_size=2),
           t_polynomials, st.lists(factors, max_size=2))
    @settings(max_examples=60, deadline=None)
    def test_sum_and_product_cancel_nothing(self, pa, da, pb, db):
        a = TRational(pa, da, reduce=False)
        b = TRational(pb, db, reduce=False)
        # a nonzero result keeps every factor of its operands; zero keeps none
        s = a + b
        assert Counter(s.den) == (Counter(a.den) | Counter(b.den) if s.num else Counter())
        assert s == TRational(s.num, s.den)
        prod = a * b
        assert Counter(prod.den) == (Counter(a.den) + Counter(b.den) if prod.num else Counter())
        assert prod == TRational(prod.num, prod.den)

    def test_sum_keeps_a_cancelling_factor(self):
        # 1/(1-t) - t/(1-t) is 1, but the sum keeps (1 - t) until reduced
        s = tr({0: 1}, [(1, 1)]) + tr({1: -1}, [(1, 1)])
        assert s.num == {0: 1, 1: -1}
        assert s.den == ((1, 1),)
        reduced = TRational(s.num, s.den)
        assert (reduced.num, reduced.den) == ({0: 1}, ())
        assert s == reduced

    def test_product_keeps_a_cancelling_factor(self):
        prod = tr({0: 1, 1: -1}) * tr({0: 1}, [(1, 1)])
        assert prod.den == ((1, 1),)
        assert prod == 1

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


def _value(x):
    """num / (scale * prod (1 - c)) of a package TRational with Fraction values."""
    out = Fraction(x.num) / x.scale
    for c in x.den:
        out /= 1 - c
    return out


constant_trationals = st.builds(series_engine.TRational, rationals,
                                st.lists(rationals.filter(lambda x: x != 1), max_size=3),
                                st.integers(-6, 6).filter(bool))


# each kind of coefficient the package multiplies, zeros made likely
coefficient_kinds = {
    "int": st.integers(-3, 3),
    "Fraction": rationals,
    "UVLaurent": uv_polynomials,
    "TRational": constant_trationals,
}


def _plain(x):
    return _value(x) if isinstance(x, series_engine.TRational) else x


class TestTruncatedProduct:
    """The package's one truncated-product loop, directly and through
    TruncatedSeries.__mul__, against the schoolbook sum."""

    @pytest.mark.parametrize("b_longer", [-2, -1, 0, 1, 2])
    @given(st.sampled_from(sorted(coefficient_kinds)), st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_schoolbook_product(self, b_longer, kind, data):
        ring = st.one_of(st.just(0), coefficient_kinds[kind])
        a = data.draw(st.lists(ring, min_size=3, max_size=6))
        b = data.draw(st.lists(ring, min_size=len(a) + b_longer, max_size=len(a) + b_longer))
        length = data.draw(st.integers(0, len(a) + 3))
        got, want = series_engine.truncated_product(a, b, length), product(a, b, length)
        assert len(got) == length and list(map(_plain, got)) == list(map(_plain, want))
        if kind == "int":
            assert all(type(x) is int for x in got)
        sa, sb = TruncatedSeries(a, order=len(a) - 1), TruncatedSeries(b, order=len(b) - 1)
        order = min(len(a), len(b)) - 1
        for c in (sa * sb, sb * sa):
            assert c.order == order
            assert list(map(_plain, c.coeffs)) == list(map(_plain, product(a, b, order + 1)))


class TestConstantDenominator:
    """The package's TRational, a ring element over prod (1 - c), and the
    evaluation at t = 1 of an expansion at t = 1 + s."""

    @given(constant_trationals, constant_trationals, rationals)
    @settings(max_examples=100, deadline=None)
    def test_value_of_sum_and_product(self, a, b, k):
        assert _value(a + b) == _value(a) + _value(b)
        assert _value(a * b) == _value(a) * _value(b)
        assert _value(k + a) == k + _value(a)
        assert _value(a * k) == _value(k * a) == k * _value(a)
        # a sum is formed over the union of the denominators and a common
        # multiple of the scales, a product over their concatenation and the
        # product of the scales, a Fraction factor moves its denominator into
        # the scale, and zero carries no denominator and scale 1
        s, prod, scaled = a + b, a * b, a * k
        assert Counter(s.den) == (Counter(a.den) | Counter(b.den) if s.num else Counter())
        assert Counter(prod.den) == (Counter(a.den) + Counter(b.den) if prod.num else Counter())
        assert s.scale % a.scale == s.scale % b.scale == 0 if s.num else s.scale == 1
        assert prod.scale == (a.scale * b.scale if prod.num else 1)
        assert scaled.scale == (a.scale * k.denominator if scaled.num else 1)
        assert all(type(x.scale) is int for x in (s, prod, scaled))

    @given(st.one_of(ring_elements, constant_trationals,
                     st.builds(series_engine.TRational, uv_polynomials,
                               st.lists(st.sampled_from([UV, UV * UV]), max_size=2))))
    @settings(max_examples=100, deadline=None)
    def test_bool_is_false_exactly_at_zero(self, x):
        # a TRational is zero exactly when its numerator is, since no factor
        # (1 - c) of its denominator vanishes
        value = x.num if isinstance(x, series_engine.TRational) else x
        assert bool(x) == (value != 0)
        assert not x * 0 and not x + x * -1

    def test_eval_at_one_divides_by_the_denominator_then_the_scale(self):
        value = series_engine.TRational(2 * (1 - UV) * (1 - UV ** 2), (UV, UV ** 2))
        zero = series_engine.TRational(UVLaurent(), (UV,))
        h = TruncatedSeries([zero, value], order=1)
        assert series_engine.eval_at_one(h, 1) == 2
        # then by the scale, which may leave rational coefficients
        scaled = series_engine.TRational(3 * (1 - UV) * (1 + UV), (UV,), -6)
        assert series_engine.eval_at_one(TruncatedSeries([scaled], order=0), 0) == \
            UVLaurent({(0, 0): Fraction(-1, 2), (1, 1): Fraction(-1, 2)})

    def test_eval_at_one_refuses_a_pole_and_a_non_polynomial(self):
        pole = series_engine.TRational(UV, (UV,))
        with pytest.raises(PoleAtOne, match=r"nonzero s\^-1 coefficient"):
            series_engine.eval_at_one(TruncatedSeries([pole, 1], order=1), 1)
        with pytest.raises(NotDivisible):
            series_engine.eval_at_one(TruncatedSeries([pole], order=0), 0)
        with pytest.raises(NotDivisible):
            # the scale is divided out after the polynomiality check
            series_engine.eval_at_one(
                TruncatedSeries([series_engine.TRational(2 * UV, (UV,), 2)], order=0), 0)
        with pytest.raises(InsufficientTruncation):
            series_engine.eval_at_one(TruncatedSeries([0, 0], order=1), 2)


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
        gx = BiSeries.from_monomials({(k, 0): UV ** k for k in range(4)}, 3)
        assert gx.coeff(2, 0) == UV ** 2

    def test_cap_propagation(self):
        a = BiSeries.inv_x_minus_y2(5)
        b = BiSeries.inv_y_minus_x2(5)
        prod = a * b
        assert prod.min_level == -2
        with pytest.raises(InsufficientTruncation):
            prod.coeff(10, -5)
