"""Atom environments, lambda operations and their per-atom reference."""

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motiveforge.base_rings import U, UV, V
from motiveforge.cli import main
from motiveforge.curve_ring import (
    AtomEnvironment,
    InvalidGenus,
    frobenius,
    h1_numerator,
    jacobian_numerator,
    jacobian_class,
    lambda_series,
    make_hodge_env,
    make_weil_env,
    sym_power_class,
)
from motiveforge.series_engine import TruncatedSeries
import series_reference
from series_reference import geometric
from uv_reference import power_substitute

GEOMETRIC = "geometric"
FINITE = "finite"


@dataclass(frozen=True)
class SplitClass:
    """Reference model: a multiset of monomial line elements, each with the
    lambda series 1/(1 - l*x) (geometric) or 1 + l*x (finite)."""

    atoms: Tuple[Tuple[object, str], ...]

    def value(self):
        """The class itself: the sum of its atom values."""
        total = 0
        for a, _ in self.atoms:
            total = total + a
        return total

    def union(self, other: "SplitClass") -> "SplitClass":
        return SplitClass(self.atoms + other.atoms)

    def scale(self, monomial) -> "SplitClass":
        """Tensor every line element by a fixed monomial, kinds preserved."""
        return SplitClass(tuple((a * monomial, kind) for a, kind in self.atoms))

    def plus_geometric(self, value) -> "SplitClass":
        return SplitClass(self.atoms + ((value, GEOMETRIC),))


def curve_class(env: AtomEnvironment) -> SplitClass:
    """[X] = 1 + h1 + L as a split class: {1 geom, atoms finite, L geom}."""
    return SplitClass(((1, GEOMETRIC),) + tuple((b, FINITE) for b in env.betas)
                      + ((env.lefschetz, GEOMETRIC),))


def reference_lambda_series(c: SplitClass, order: int) -> TruncatedSeries:
    """The per-atom product: one truncated series factor per atom."""
    out = TruncatedSeries([1], order=order)
    for a, kind in c.atoms:
        if kind == GEOMETRIC:
            out = out * geometric(a, 1, order)
        elif kind == FINITE:
            out = out * TruncatedSeries([1, a], order=order)
        else:
            raise ValueError(f"unknown atom kind {kind!r}")
    return out


def class_shapes(env: AtomEnvironment):
    """The three classes the strata read, as (split class, ell, geometric)."""
    L = env.lefschetz
    cx = curve_class(env)
    return [(cx, 1, (1, L)),
            (cx.plus_geometric(L * L), 1, (1, L, L * L)),
            (cx.scale(L).plus_geometric(1), L, (1, L, L * L))]


def lambda_scale(env: AtomEnvironment, ell, geometric, k: int):
    """P m^k, the scale :func:`lambda_series` leaves on its x^k numerator:
    P the lift's, m the lcm of the denominators of ell and the geometric
    values."""
    m = math.lcm(*(x.denominator for x in (ell, *geometric) if isinstance(x, Fraction)))
    return env.lift[0] * m ** k


def h1_power_sums(env: AtomEnvironment, upto: int):
    """Power sums p_1 .. p_upto of the atoms (index 0 unused)."""
    return [None] + [sum((b ** j for b in env.betas), 0) for j in range(1, upto + 1)]


def coeffs(s: TruncatedSeries):
    return [s.coeff(n) for n in range(s.order + 1)]


seeds = st.integers(min_value=0, max_value=10 ** 6)


class TestEnvironments:
    def test_hodge_g2_curve_class(self):
        env = make_hodge_env(2)
        assert curve_class(env).value() == 1 - 2 * U - 2 * V + UV
        assert sym_power_class(env, 1, (1, UV), 1) == 1 - 2 * U - 2 * V + UV

    def test_hodge_jacobian(self):
        for g in (2, 3, 4):
            env = make_hodge_env(g)
            assert jacobian_class(env) == ((1 - U) * (1 - V)) ** g

    def test_hodge_px_at_lefschetz(self):
        for g in (2, 3):
            env = make_hodge_env(g)
            expected = ((1 - U * U * V) * (1 - U * V * V)) ** g
            assert h1_numerator(env, UV) == expected

    def test_h1_numerator_degenerate_arguments(self):
        # P h1(0) = P and P h1(1) = P [Jac]
        for env in (make_hodge_env(2), make_weil_env(2, 9)):
            P = env.lift[0]
            assert h1_numerator(env, 0) == P
            assert h1_numerator(env, 1) == jacobian_numerator(env) == P * jacobian_class(env)

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_each_environment_has_its_own_lambda_values(self, g):
        # frobenius builds new environments from one whose values are
        # already cached; each must compute its own
        for env in (make_hodge_env(g), make_weil_env(g, 100 + g)):
            assert env.lambda_values is env.lambda_values
            for e in [env] + [frobenius(env, j) for j in (2, 3)]:
                # e_i as the sum over i-subsets of the atoms
                expected = tuple(sum((math.prod(s) for s in itertools.combinations(e.betas, i)), 0)
                                 for i in range(len(e.betas) + 1))
                assert e.lambda_values == expected
                # the values keep the atoms' ring: Fraction or UVLaurent
                assert [type(x) for x in e.lambda_values] == [type(x) for x in expected]

    @given(st.integers(min_value=2, max_value=5), seeds)
    @settings(max_examples=20, deadline=None)
    def test_h1_numerator_is_the_lifted_atom_product(self, g, seed):
        for env, arg in ((make_hodge_env(g), UV * U), (make_weil_env(g, seed), Fraction(seed, 7))):
            expected = 1
            for b in env.betas:
                expected = expected * (1 + b * arg)
            a, q = (arg.numerator, arg.denominator) if isinstance(arg, Fraction) else (arg, 1)
            assert h1_numerator(env, a, q) == env.lift[0] * q ** (2 * g) * expected

    def test_invalid_genus(self):
        with pytest.raises(InvalidGenus):
            make_hodge_env(1)
        with pytest.raises(InvalidGenus):
            make_weil_env(0, 1)

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_weil_env_constraints(self, seed):
        env = make_weil_env(2, seed)
        g = env.genus
        L = env.lefschetz
        assert L not in (0, 1, -1)
        for i in range(g):
            assert env.betas[i] * env.betas[g + i] == L
        assert all(b != 0 for b in env.betas)
        assert abs(L.numerator) <= 10 ** 4 and L.denominator <= 10 ** 4

    def test_weil_determinism(self):
        assert make_weil_env(3, 42) == make_weil_env(3, 42)
        assert make_weil_env(3, 42) != make_weil_env(3, 43)

    def test_env_json(self, tmp_path):
        env = make_weil_env(2, 5)
        out = tmp_path / "m.json"
        main(["motive", "--g", "2", "--r", "1", "--p", "1",
              "--realization", "weil", "--seed", "5", "--out", str(out)])
        payload = json.loads(out.read_text())["environment"]
        assert payload["base"] == "weil" and payload["seed"] == 5
        assert Fraction(payload["lefschetz"]) == env.lefschetz


def _paired(ell, first):
    """An environment with atoms ``first`` and L / first, each atom kept an
    int when it is one."""
    second = [Fraction(ell) / b for b in first]
    second = [int(b) if b.denominator == 1 else b for b in second]
    return AtomEnvironment(genus=len(first), lefschetz=ell, betas=tuple(first) + tuple(second))


nonzero_ints = st.integers(min_value=-50, max_value=50).filter(bool)
nonzero_fractions = st.fractions(max_denominator=60).filter(bool)


@st.composite
def environments(draw):
    """Weil environments, their Frobenius images, and environments of int
    atoms or of int and Fraction atoms mixed."""
    g = draw(st.integers(min_value=2, max_value=4))
    kind = draw(st.sampled_from(["weil", "frobenius", "int", "mixed"]))
    if kind == "weil":
        return make_weil_env(g, draw(seeds))
    if kind == "frobenius":
        return frobenius(make_weil_env(g, draw(seeds)), draw(st.integers(min_value=2, max_value=3)))
    if kind == "int":
        ell = draw(nonzero_ints)
        divisors = [b for b in range(1, abs(ell) + 1) if ell % b == 0]
        return _paired(ell, [draw(st.sampled_from(divisors)) * draw(st.sampled_from([1, -1]))
                             for _ in range(g)])
    ell = draw(st.one_of(nonzero_ints, nonzero_fractions))
    return _paired(ell, draw(st.lists(st.one_of(nonzero_ints, nonzero_fractions),
                                      min_size=g, max_size=g)))


scalars = st.one_of(st.integers(min_value=-30, max_value=30), st.fractions(max_denominator=40))


class TestLift:
    """Every weil reading of the e_i goes through the environment's lift;
    each must equal, value and type alike, the plain recurrence in the
    atoms' own ring (compared by repr)."""

    @given(environments(), st.integers(min_value=0, max_value=30), st.data())
    @settings(max_examples=60, deadline=None)
    def test_readings_match_the_plain_recurrences(self, env, order, data):
        atoms = env.betas
        assert repr(env.lambda_values) == repr(series_reference.elementary_symmetric(atoms))
        L = env.lefschetz
        shapes = [(1, (1, L)), (1, (1, L, L * L)), (L, (1, L, L * L)),
                  (data.draw(scalars, label="ell"),
                   tuple(data.draw(st.lists(scalars, max_size=3), label="geometric")))]
        P = env.lift[0]
        for ell, geo in shapes:
            num = lambda_series(env, ell, geo, order).coeffs
            ref = series_reference.lambda_series(atoms, ell, geo, order).coeffs
            if lambda_scale(env, ell, geo, 1) == 1:
                assert repr(num) == repr(ref)
            else:
                assert num == [lambda_scale(env, ell, geo, k) * x for k, x in enumerate(ref)]
                assert P == 1 or all(type(x) is int for x in num)
        for arg in (1, L, L * L, data.draw(scalars, label="arg")):
            a, q = (arg.numerator, arg.denominator) if isinstance(arg, Fraction) else (arg, 1)
            num = h1_numerator(env, a, q)
            assert num == P * q ** (2 * env.genus) * series_reference.h1_poly(atoms, arg)
            assert P == 1 or type(num) is int

    def test_int_atoms_keep_int_values(self):
        # P = 1: the lift runs on the atoms themselves, so the e_i and the
        # values of h1 at ints stay ints (for the ADHM weights see
        # test_adhm.py::TestAdhmClass::test_int_atoms_keep_int_weights)
        env = _paired(6, [2, -3, 1])
        P, F = env.lift
        assert P == 1 and all(type(x) is int for x in F)
        assert env.lambda_values is F
        assert all(type(x) is int for x in (h1_numerator(env, 2), jacobian_class(env)))

    def test_lift_clears_the_denominators(self):
        env = make_weil_env(3, 8)
        P, F = env.lift
        assert P == math.prod(b.denominator for b in env.betas)
        assert all(type(x) is int and x == P * e for x, e in zip(F, env.lambda_values))


class TestFrobenius:
    def test_identity(self):
        env = make_weil_env(2, 1)
        assert frobenius(env, 1) is env

    @given(seeds, st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4))
    @settings(max_examples=25, deadline=None)
    def test_composition(self, seed, m, n):
        env = make_weil_env(2, seed)
        assert frobenius(frobenius(env, m), n) == frobenius(env, m * n)

    def test_hodge_lefschetz_power(self):
        env = make_hodge_env(2)
        assert frobenius(env, 2).lefschetz == UV ** 2

    def test_matches_variable_substitution(self):
        # In the Hodge realization the Adams operator is u -> u^j, v -> v^j
        # on evaluated classes; the atom action must reproduce that.
        env = make_hodge_env(2)
        for j in (2, 3):
            fenv = frobenius(env, j)
            for value_of in (jacobian_class, lambda e: h1_numerator(e, e.lefschetz),
                             lambda e: sym_power_class(e, 1, (1, e.lefschetz), 3)):
                assert value_of(fenv) == power_substitute(value_of(env), j)

    @given(seeds, st.integers(min_value=1, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_ring_homomorphism_on_atom_expressions(self, seed, j):
        # evaluate-then-substitute equals substitute-then-evaluate for
        # products and the homomorphism property for sums of atom monomials
        env = make_weil_env(2, seed)
        fenv = frobenius(env, j)
        twist = lambda b: -((-b) ** j)
        prod_env = env.betas[0] * env.betas[3] * env.lefschetz
        prod_f = fenv.betas[0] * fenv.betas[3] * fenv.lefschetz
        assert prod_f == twist(env.betas[0]) * twist(env.betas[3]) * env.lefschetz ** j
        sum_f = fenv.betas[1] + fenv.lefschetz
        assert sum_f == twist(env.betas[1]) + env.lefschetz ** j


class TestLambdaOperations:
    @given(st.integers(min_value=2, max_value=5), st.sampled_from(["hodge", "weil"]),
           seeds, st.data())
    @settings(max_examples=40, deadline=None)
    def test_builder_matches_per_atom_product(self, g, base, seed, data):
        # orders below and above 2g, where the e_i run out
        env = make_hodge_env(g) if base == "hodge" else make_weil_env(g, seed)
        order = data.draw(st.integers(min_value=0, max_value=2 * g + 3), label="order")
        ref, ell, geometric = data.draw(st.sampled_from(class_shapes(env)), label="shape")
        s = lambda_series(env, ell, geometric, order)
        assert s.order == order
        assert coeffs(s) == [lambda_scale(env, ell, geometric, k) * x
                             for k, x in enumerate(coeffs(reference_lambda_series(ref, order)))]

    def test_point_series(self):
        # ell = 0 leaves e_0 = 1 alone, so one geometric 1 is the point:
        # every numerator is P
        for env in (make_hodge_env(2), make_weil_env(2, 11)):
            s = lambda_series(env, 0, (1,), 5)
            assert coeffs(s) == [env.lift[0]] * 6

    def test_curve_series_is_zeta(self):
        # coefficients of Z(x) = P(x) / ((1-x)(1-Lx)) match the series
        for env in (make_hodge_env(2), make_weil_env(2, 11)):
            order = 6
            L = env.lefschetz
            s = lambda_series(env, 1, (1, L), order)
            e = env.lambda_values
            # brute-force zeta coefficients: lambda^n([X]) = sum over
            # i + j + k = n of e_i L^j (from 1/(1-Lx)) * 1 (from 1/(1-x))
            for n in range(order + 1):
                expected = 0
                for i in range(min(n, len(e) - 1) + 1):
                    for jj in range(n - i + 1):
                        expected = expected + e[i] * L ** jj
                assert s.coeff(n) == lambda_scale(env, 1, (1, L), n) * expected

    @given(seeds, st.integers(min_value=0, max_value=5), st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_union_convolution(self, seed, order, twist):
        # geometric sets convolve: A + B gives the A series times the
        # ell = 0 series of B, which is prod_B 1/(1 - b x)
        env = make_weil_env(2, seed)
        ell = env.lefschetz if twist else 1
        a = (env.betas[0], 1)
        b = (env.lefschetz, env.betas[1])
        for n in range(order + 1):
            assert sym_power_class(env, ell, a + b, n) == sum(
                sym_power_class(env, ell, a, i) * sym_power_class(env, 0, b, n - i)
                for i in range(n + 1))
        # the reference's finite and geometric atoms convolve the same way
        x = SplitClass(((env.betas[0], FINITE), (1, GEOMETRIC)))
        y = SplitClass(((env.lefschetz, GEOMETRIC), (env.betas[1], FINITE)))
        assert coeffs(reference_lambda_series(x.union(y), order)) == \
            coeffs(reference_lambda_series(x, order) * reference_lambda_series(y, order))

    def test_sym_power_basics(self):
        env = make_weil_env(2, 3)
        for ref, ell, geometric in class_shapes(env):
            assert sym_power_class(env, ell, geometric, 0) == 1
            assert sym_power_class(env, ell, geometric, 1) == ref.value()

    def test_sym_power_abel_jacobi_oracle(self):
        # [Sym^n X] = [Jac] (L^(n-g+1) - 1)/(L - 1) for n >= 2g - 1,
        # from the projective-bundle structure of the Abel-Jacobi map
        for env in (make_hodge_env(2), make_weil_env(2, 17)):
            g = env.genus
            L = env.lefschetz
            jac = jacobian_class(env)
            for n in range(2 * g - 1, 2 * g + 3):
                lhs = sym_power_class(env, 1, (1, L), n) * (L - 1)
                assert lhs == jac * (L ** (n - g + 1) - 1)

    def test_scale_and_plus_geometric(self):
        env = make_hodge_env(2)
        cx = curve_class(env)
        scaled = cx.scale(env.lefschetz).plus_geometric(1)
        assert scaled.value() == cx.value() * UV + 1
        kinds = [k for _, k in scaled.atoms]
        assert kinds.count(FINITE) == 4


class TestSymmetricFunctionConsistency:
    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_functional_equation(self, seed):
        # e_n(atoms) = L^(n-g) e_{2g-n}(atoms) under the pairing
        env = make_weil_env(2, seed)
        g = env.genus
        L = env.lefschetz
        e = env.lambda_values
        for n in range(2 * g + 1):
            assert e[n] == L ** (n - g) * e[2 * g - n]

    def test_functional_equation_hodge(self):
        for g in (2, 3):
            env = make_hodge_env(g)
            e = env.lambda_values
            L = env.lefschetz
            for n in range(2 * g + 1):
                assert e[n] == L ** (n - g) * e[2 * g - n]

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_newton_identities(self, seed):
        # n e_n = sum_{m=1..n} (-1)^(m-1) e_{n-m} p_m
        env = make_weil_env(3, seed)
        e = env.lambda_values
        p = h1_power_sums(env, 2 * env.genus)
        for n in range(1, 2 * env.genus + 1):
            rhs = 0
            for m in range(1, n + 1):
                rhs = rhs + (-1) ** (m - 1) * e[n - m] * p[m]
            assert n * e[n] == rhs
