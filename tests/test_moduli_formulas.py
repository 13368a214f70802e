"""Moduli formulas: strata, exponents, motives, E-polynomials, Betti numbers."""

import contextlib
import io
import math
import pickle
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from motiveforge import cli, moduli_formulas
from motiveforge.adhm import adhm_class
from motiveforge.base_rings import UV, NotDivisible, UVLaurent, exact_divide
from motiveforge.cli import EXIT_ARITHMETIC_ERROR, EXIT_INVALID_INPUT, EXIT_PASS, main
from motiveforge.curve_ring import (AtomEnvironment, frobenius, h1_series, jacobian_class,
                                   jacobian_numerator, make_hodge_env, make_weil_env)
from motiveforge.moduli_formulas import (
    INPUT_BUDGET,
    EmptyStratum,
    InvalidSpec,
    ModuliSpec,
    NegativeBetti,
    VHSType,
    bb_exponent,
    bundle_moduli_class,
    dimension,
    epoly,
    epoly_rank1,
    epoly_rank2,
    epoly_rank3,
    morse_index,
    motive,
    poincare,
    strata_for,
    triple_stratum_degrees,
    vhs_class,
)
from motiveforge.series_engine import BiSeries, TruncatedSeries, series_product
from series_reference import geometric
from uv_reference import swap_uv, total_degree

import strata_reference

U2V = UVLaurent.monomial(2, 1)
UV2 = UVLaurent.monomial(1, 2)


class TestModuliSpec:
    def test_p_conversion(self):
        spec = ModuliSpec.from_p(2, 2, 1, 1)
        assert spec.dL == -3 and spec.p == 1

    def test_validation(self):
        with pytest.raises(InvalidSpec):
            ModuliSpec(g=1, r=2, d=1, dL=-3)
        with pytest.raises(InvalidSpec):
            ModuliSpec(g=2, r=2, d=2, dL=-3)
        with pytest.raises(InvalidSpec):
            ModuliSpec(g=2, r=2, d=1, dL=-2)
        with pytest.raises(InvalidSpec):
            ModuliSpec(g=2, r=4, d=1, dL=-3)

    @pytest.mark.parametrize("formula, r", [(epoly_rank1, 2), (epoly_rank2, 3),
                                            (epoly_rank3, 1)])
    def test_epoly_rank_formulas_refuse_another_rank(self, formula, r):
        with pytest.raises(InvalidSpec, match=f"{formula.__name__} needs r = "):
            formula(ModuliSpec.from_p(2, r, 1, 1))

    def test_input_budget(self):
        # dim M = 1 - r^2 dL exceeds g, p and |dL|, so it alone is bounded
        at_budget = ModuliSpec(g=2, r=1, d=1, dL=1 - INPUT_BUDGET)
        assert dimension(at_budget) == INPUT_BUDGET
        for build in (lambda: ModuliSpec(g=2, r=1, d=1, dL=-INPUT_BUDGET),
                      lambda: ModuliSpec(g=2, r=3, d=1, dL=-(INPUT_BUDGET // 9 + 1)),
                      lambda: ModuliSpec.from_p(10 ** 20, 2, 1, 1),
                      lambda: ModuliSpec.from_p(2, 2, 1, 10 ** 20)):
            with pytest.raises(InvalidSpec, match="input budget"):
                build()

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_construction_refuses_exactly_the_invalid_specs(self, data):
        # raw (g, r, d, dL) on both sides of each predicate: g at 2, r at 1
        # and 3, gcd(r, d) at 1, dL at 2 - 2g or 1 - r^2 dL at the budget;
        # the CLI's epoly is stubbed, so a valid spec costs nothing
        g = data.draw(st.integers(1, 3), label="g")
        r = data.draw(st.integers(0, 4), label="r")
        d = data.draw(st.integers(-3, 3), label="d")
        if data.draw(st.booleans(), label="at the budget"):
            edge = -((INPUT_BUDGET - 1) // max(r * r, 1))
        else:
            edge = 1 - 2 * g
        dL = edge + data.draw(st.integers(-1, 1), label="offset")
        p = -dL - 2 * g + 2
        invalid = (g < 2 or r not in (1, 2, 3) or math.gcd(r, d) != 1
                   or dL >= 2 - 2 * g or 1 - r * r * dL > INPUT_BUDGET)
        for build in (lambda: ModuliSpec(g=g, r=r, d=d, dL=dL),
                      lambda: ModuliSpec.from_p(g, r, d, p)):
            try:
                spec = build()
            except InvalidSpec:
                assert invalid
            else:
                assert not invalid and (spec.g, spec.r, spec.d, spec.dL, spec.p) == (g, r, d, dL, p)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "epoly", lambda spec: UV)
            for flags in (["--dL", str(dL)], ["--p", str(p)]):
                argv = ["epoly", "--g", str(g), "--r", str(r), "--d", str(d)] + flags
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = main(argv)
                assert code == (EXIT_INVALID_INPUT if invalid else EXIT_PASS), argv

    def test_dimension_examples(self):
        assert dimension(ModuliSpec(g=2, r=2, d=1, dL=-3)) == 13
        for dL in (-3, -5):
            assert dimension(ModuliSpec(g=2, r=1, d=1, dL=dL)) == 1 - dL
        for g in (2, 3, 4):
            spec = ModuliSpec.from_p(g, 3, 1, 1)
            assert dimension(spec) == 18 * g - 8


def brute_force_triple_degrees(d, dL, window=40):
    out = []
    for a in range(-window, window + 1):
        for b in range(-window, window + 1):
            if a - b <= -dL and a + 2 * b - d <= -dL \
                    and 3 * a > d and 3 * (a + b) > 2 * d:
                out.append((a, b))
    return sorted(out)


class TestTripleStratumDegrees:
    def test_frozen_example(self):
        assert sorted(triple_stratum_degrees(1, -3)) == [
            (1, 0), (1, 1), (2, -1), (2, 0), (2, 1), (3, 0)]

    @given(st.integers(min_value=-4, max_value=4), st.integers(min_value=-8, max_value=-1))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, d, dL):
        assert sorted(triple_stratum_degrees(d, dL)) == brute_force_triple_degrees(d, dL)

    @given(st.integers(min_value=-4, max_value=4), st.integers(min_value=-8, max_value=-1))
    @settings(max_examples=40, deadline=None)
    def test_duality_bijection(self, d, dL):
        # (a, b) -> (-d + a + b, -b) maps the set for d onto the set for -d
        image = sorted((-d + a + b, -b) for a, b in triple_stratum_degrees(d, dL))
        assert image == sorted(triple_stratum_degrees(-d, dL))


class TestMorseIndexAndExponents:
    def test_singleton_is_zero(self):
        for r in (1, 2, 3):
            assert morse_index(VHSType((r,), (1,)), twist_deg=5, g=2) == 0

    @given(st.integers(min_value=-5, max_value=5), st.integers(min_value=-3, max_value=5),
           st.integers(min_value=1, max_value=6), st.integers(min_value=2, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_type_11_hand_formula(self, d1, d, p, g):
        # M/2 = 2 d1 - d + g - 1 at type (1,1), multidegree (d1, d - d1)
        twist = 2 * g - 2 + p
        m = morse_index(VHSType((1, 1), (d1, d - d1)), twist_deg=twist, g=g)
        assert m % 2 == 0
        assert m // 2 == 2 * d1 - d + g - 1

    def test_morse_even(self):
        for t in (VHSType((1, 2), (1, 0)), VHSType((2, 1), (3, -2)),
                  VHSType((1, 1, 1), (2, 0, -1))):
            assert morse_index(t, twist_deg=7, g=3) % 2 == 0

    def test_all_six_literal_exponents(self):
        for g in (2, 3):
            for p in (1, 2):
                dL = -(2 * g - 2 + p)
                for d in (1, 2):
                    spec2 = ModuliSpec(g=g, r=2, d=2 * d - 1, dL=dL)
                    assert bb_exponent(VHSType((2,), (spec2.d,)), spec2) == -4 * dL + 4 - 4 * g
                    for t in strata_for(spec2):
                        if t.ranks == (1, 1):
                            assert bb_exponent(t, spec2) == -3 * dL + 2 - 2 * g
                    spec3 = ModuliSpec(g=g, r=3, d=d, dL=dL)
                    assert bb_exponent(VHSType((3,), (d,)), spec3) == -9 * dL + 9 - 9 * g
                    for t in strata_for(spec3):
                        if t.ranks in ((1, 2), (2, 1)):
                            assert bb_exponent(t, spec3) == -7 * dL + 5 - 5 * g
                        elif t.ranks == (1, 1, 1):
                            assert bb_exponent(t, spec3) == -6 * dL + 3 - 3 * g

    def test_stratum_of_another_space_rejected(self):
        spec = ModuliSpec.from_p(2, 2, 1, 1)
        with pytest.raises(InvalidSpec):
            bb_exponent(VHSType((1, 1), (2, 1)), spec)  # total degree 3, not 1
        with pytest.raises(InvalidSpec):
            bb_exponent(VHSType((1, 2), (1, 0)), spec)  # total rank 3, not 2

    @given(st.integers(min_value=2, max_value=9), st.integers(min_value=1, max_value=3),
           st.integers(min_value=-20, max_value=20), st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_attracting_rank_helper_matches_bb_exponent(self, g, r, d, p):
        # bb_exponent, which the plan of motive reads, gives the literal
        # exponent of the stratum's shape
        assume(math.gcd(r, d) == 1)
        spec = ModuliSpec.from_p(g, r, d, p)
        dL = spec.dL
        literal = {(1,): 1 - dL - g, (2,): -4 * dL + 4 - 4 * g, (1, 1): -3 * dL + 2 - 2 * g,
                   (3,): -9 * dL + 9 - 9 * g, (1, 2): -7 * dL + 5 - 5 * g,
                   (2, 1): -7 * dL + 5 - 5 * g, (1, 1, 1): -6 * dL + 3 - 3 * g}
        for t in strata_for(spec):
            assert bb_exponent(t, spec) == literal[t.ranks]
        # the plan keeps one N+ per power k of jac: bundle, (1,1) or (1,1,1),
        # then (1,2) and (2,1)
        per_k = [literal[(r,)], literal[(1, 1) if r == 2 else (1, 1, 1)], literal[(1, 2)]]
        assert moduli_formulas._strata_plan(g, r, d, dL)[1] == tuple(per_k[:r])

    def test_empty_stratum_raises(self):
        spec = ModuliSpec(g=2, r=2, d=1, dL=-3)
        with pytest.raises(EmptyStratum):
            bb_exponent(VHSType((1, 1), (0, 1)), spec)


class TestStratumClasses:
    def test_rank1_is_jacobian(self):
        env = make_weil_env(2, 2)
        assert bundle_moduli_class(env, 1, 0) == jacobian_class(env)

    def test_rank2_bundle_closed_form(self):
        g = 2
        env = make_hodge_env(g)
        jac = jacobian_class(env)
        num = jac * ((1 - U2V) * (1 - UV2)) ** g - UV ** g * jac * jac
        expected = exact_divide(exact_divide(num, UV - 1), UV ** 2 - 1)
        assert bundle_moduli_class(env, 2, 1) == expected

    def test_rank3_bundle_closed_form(self):
        g = 2
        env = make_hodge_env(g)
        jac = jacobian_class(env)
        pl = ((1 - U2V) * (1 - UV2)) ** g
        pl2 = ((1 - UVLaurent.monomial(3, 2)) * (1 - UVLaurent.monomial(2, 3))) ** g
        num = jac * (UV ** (3 * g - 1) * (1 + UV + UV ** 2) * jac ** 2
                     - UV ** (2 * g - 1) * (1 + UV) ** 2 * jac * pl
                     + pl * pl2)
        expected = num
        for f in (UV - 1, UV ** 2 - 1, UV ** 2 - 1, UV ** 3 - 1):
            expected = exact_divide(expected, f)
        assert bundle_moduli_class(env, 3, 1) == expected

    def test_vhs_11_lambda_zero(self):
        env = make_weil_env(2, 8)
        dL = -3
        d, d1 = 1, 2
        assert d - 2 * d1 - dL == 0
        t = VHSType((1, 1), (d1, d - d1))
        k, _, reads = moduli_formulas._stratum_facts(t, env.genus, dL)
        c, b = vhs_class(env, t, reads, moduli_formulas._lambda_tables(env, reads))
        # jac^k * c over P^2 d^b is jac
        P, L = env.lift[0], env.lefschetz
        assert jacobian_numerator(env) ** k * c == jacobian_class(env) * P ** 2 * L.denominator ** b

    def test_vhs_21_equals_dual_12(self):
        env = make_weil_env(2, 4)
        dL = -4
        d, d1 = 1, 1
        t21 = VHSType((2, 1), (d1, d - d1))
        t12 = VHSType((1, 2), (d1 - d, -d1))
        classes = []
        for t in (t21, t12):
            k, _, reads = moduli_formulas._stratum_facts(t, env.genus, dL)
            classes.append((k, vhs_class(env, t, reads, moduli_formulas._lambda_tables(env, reads))))
        assert classes[0] == classes[1]

    def test_vhs_111_zero_indices_give_jacobian(self):
        env = make_weil_env(2, 6)
        dL = -3
        d1 = 2
        d2 = d1 + dL
        d = 3 * d1 + 3 * dL
        t = VHSType((1, 1, 1), (d1, d2, d - d1 - d2))
        assert -d1 + d2 - dL == 0 and d - d1 - 2 * d2 - dL == 0
        k, _, reads = moduli_formulas._stratum_facts(t, env.genus, dL)
        c, b = vhs_class(env, t, reads, moduli_formulas._lambda_tables(env, reads))
        # jac^k * c over P^3 d^b is jac
        P, L = env.lift[0], env.lefschetz
        assert jacobian_numerator(env) ** k * c == jacobian_class(env) * P ** 3 * L.denominator ** b

    def test_empty_vhs_raises(self):
        # a stratum's reads, which vhs_class takes, come from its facts,
        # and those refuse an empty stratum
        env = make_weil_env(2, 6)
        with pytest.raises(EmptyStratum):
            moduli_formulas._stratum_facts(VHSType((1, 1), (0, 1)), env.genus, -3)


class TestMotiveEpolyConsistency:
    @pytest.mark.parametrize("g,r,p,d", [
        (2, 1, 1, 1), (2, 2, 1, 1), (2, 2, 2, 1),
        (2, 3, 1, 1), (2, 3, 1, 2), (3, 2, 1, 1), (3, 3, 1, 1),
    ])
    def test_motive_hodge_equals_epoly(self, g, r, p, d):
        spec = ModuliSpec.from_p(g, r, d, p)
        env = make_hodge_env(g)
        assert motive(env, spec) == epoly(spec)

    def test_rank2_exponent_multiset_d_independent(self):
        # lambda indices of the (1,1) strata: {-dL-1, -dL-3, ...} down to 0/1
        for d in (1, 3):
            spec = ModuliSpec(g=2, r=2, d=d, dL=-5)
            idx = sorted(d - 2 * t.degs[0] - spec.dL
                         for t in strata_for(spec) if t.ranks == (1, 1))
            assert idx == [0, 2, 4]

    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_epoly_symmetry_and_purity(self, g, r, p):
        spec = ModuliSpec.from_p(g, r, 1, p)
        e = epoly(spec)
        assert e == swap_uv(e)
        dim = dimension(spec)
        assert total_degree(e) == 2 * dim
        assert e.coeff(dim, dim) == 1

    def test_weil_duality_d_negation(self):
        for seed in range(4):
            env = make_weil_env(2, 100 + seed)
            a = motive(env, ModuliSpec.from_p(2, 3, 1, 1))
            b = motive(env, ModuliSpec.from_p(2, 3, -1, 1))
            assert a == b

    @given(st.integers(min_value=2, max_value=6), st.sampled_from([2, 3]),
           st.integers(min_value=1, max_value=4), st.integers(min_value=-7, max_value=7),
           st.one_of(st.none(), st.integers(min_value=0, max_value=10 ** 6)))
    @settings(max_examples=40, deadline=None)
    def test_duality_d_negation(self, g, r, p, d, seed):
        # E -> E^dual maps M(r, d) onto M(r, -d); hodge runs at every g drawn
        # (a rank-3 hodge motive at g = 6, p = 4 takes about 25 ms)
        assume(math.gcd(r, d) == 1)
        env = make_hodge_env(g) if seed is None else make_weil_env(g, seed)
        assert motive(env, ModuliSpec.from_p(g, r, d, p)) == \
            motive(env, ModuliSpec.from_p(g, r, -d, p))

    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=4))
    @settings(max_examples=15, deadline=None)
    def test_hodge_rank3_motive_d_independent(self, g, p):
        # d = 1 and d = 2 sum over different strata; the totals agree
        env = make_hodge_env(g)
        assert motive(env, ModuliSpec.from_p(g, 3, 1, p)) == motive(env, ModuliSpec.from_p(g, 3, 2, p))

    @given(st.integers(min_value=2, max_value=4), st.sampled_from([2, 3]),
           st.integers(min_value=1, max_value=3), st.integers(min_value=-7, max_value=7),
           st.integers(min_value=-7, max_value=7), st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_weil_motive_d_independent_and_equal_to_adhm(self, g, r, p, d, d2, seed):
        # in one weil environment the strata sums at two coprime degrees
        # agree, and both equal the ADHM class, which reads no degree
        assume(d != d2 and math.gcd(r, d) == math.gcd(r, d2) == 1)
        env = make_weil_env(g, seed)
        assert motive(env, ModuliSpec.from_p(g, r, d, p)) == \
            motive(env, ModuliSpec.from_p(g, r, d2, p)) == adhm_class(env, r, p)

    def test_motive_rejects_genus_mismatch(self):
        env = make_weil_env(3, 1)
        with pytest.raises(InvalidSpec):
            motive(env, ModuliSpec.from_p(2, 2, 1, 1))


def _stratum_sum(env, spec):
    """sum over strata of L^(N+) [VHS], each stratum on its own, in the
    ring's own arithmetic (tests/strata_reference.py); its value and type."""
    value = strata_reference.motive(env, spec)
    return value, type(value)


def _paired_int_env(g, seed):
    """An environment of int atoms paired as b_i * b_(g+i) = L."""
    rng = random.Random(seed)
    lefschetz = rng.choice((-1, 1)) * rng.choice((6, 12, 30, 60))
    first = [rng.choice((-1, 1)) * rng.choice([k for k in range(1, 61) if lefschetz % k == 0])
             for _ in range(g)]
    return AtomEnvironment(genus=g, lefschetz=lefschetz,
                           betas=tuple(first + [lefschetz // b for b in first]))


class TestWeilMotiveOnTheLift:
    @pytest.mark.parametrize("g", range(2, 9))
    def test_the_reference_sum_on_weil_frobenius_and_int_atoms(self, g):
        # motive runs on the lift's ints over P^a d^b; the reference on
        # Fractions (ints for int atoms): the same value and type
        envs = [make_weil_env(g, 41 * g), frobenius(make_weil_env(g, 7 * g), 2),
                frobenius(make_weil_env(g, 5 * g), 3), _paired_int_env(g, g)]
        for r, d in ((1, 1), (2, -1), (3, 1), (3, 2)):
            for p in (1, 2) if g > 5 else (1, 2, 4):
                spec = ModuliSpec.from_p(g, r, d, p)
                for env in envs:
                    value = motive(env, spec)
                    assert (value, type(value)) == _stratum_sum(env, spec), (g, r, d, p, env.lefschetz)
        assert type(value) is int

    @pytest.mark.parametrize("seed", [None, 3])
    def test_vhs_class_is_the_reference_stratum_class(self, seed):
        # one stratum on its own: jac^k * c over P^r d^b, c an int on weil
        for g, r, d, p in ((2, 2, 1, 3), (3, 3, 1, 2), (3, 3, -1, 1), (4, 3, 2, 1)):
            env = make_hodge_env(g) if seed is None else make_weil_env(g, seed + g)
            P, L = env.lift[0], env.lefschetz
            scale = L.denominator if seed is not None else 1
            spec = ModuliSpec.from_p(g, r, d, p)
            for t in strata_for(spec):
                k, _, reads = moduli_formulas._stratum_facts(t, g, spec.dL)
                c, b = vhs_class(env, t, reads, moduli_formulas._lambda_tables(env, reads))
                expected = strata_reference.stratum_class(env, t, spec.dL)
                assert jacobian_numerator(env) ** k * c == expected * P ** r * scale ** b, t
                assert seed is None or type(c) is int, t

    def test_weil_motive_makes_one_fraction_per_call(self, monkeypatch):
        # the lambda tables, [Jac] and the bundle classes hold ints, and the
        # sum over strata makes its one Fraction at the end
        made = []

        def recording(*args):
            made.append(args)
            return Fraction(*args)

        monkeypatch.setattr(moduli_formulas, "Fraction", recording)
        for g in (2, 5):
            for r, d in ((1, 1), (2, 1), (3, 1), (3, -2)):
                for p in (1, 3):
                    env = make_weil_env(g, 100 * g + 10 * r + p)
                    made.clear()
                    assert type(motive(env, ModuliSpec.from_p(g, r, d, p))) is Fraction
                    assert len(made) == 1, (g, r, d, p, made)
                    for key, value in env.cache.items():
                        values = (value.coeffs if isinstance(value, TruncatedSeries)
                                  else value if isinstance(value, tuple) else [value])
                        assert all(type(x) is int for x in values), key

    @pytest.mark.parametrize("mutation", ["scale", "numerator"])
    def test_an_off_by_one_in_a_12_stratum_is_not_divisible(self, mutation, monkeypatch):
        # [X]*L + 1 read over one more power of d than its scale says, or
        # [X] + L^2 with one more in each numerator: the (1,2) cofactor's
        # division by n - d on the ints fails and names the stratum
        env = make_weil_env(4, 2)
        tables = moduli_formulas._lambda_tables
        d = env.lefschetz.denominator

        def off_by_one(env, reads):
            out = tables(env, reads)
            name = moduli_formulas._TWIST if mutation == "scale" else moduli_formulas._PLUS
            if name in out:
                out[name] = TruncatedSeries([x * d if mutation == "scale" else x + 1
                                             for x in out[name].coeffs], order=out[name].order)
            return out

        monkeypatch.setattr(moduli_formulas, "_lambda_tables", off_by_one)
        for deg, degrees in ((1, "(1, 0)"), (2, "(1, 1)")):
            with pytest.raises(NotDivisible,
                               match=rf"\[stratum ranks \(1, 2\), degrees {re.escape(degrees)}\]"):
                motive(env, ModuliSpec.from_p(4, 3, deg, 2))

    def test_an_unpaired_environment_fails_the_bundle_division(self):
        # b_1 b_4 != L: the bundle classes' numerators are no multiples of
        # n^k - d^k, and the failure names the bundle stratum
        env = AtomEnvironment(genus=3, lefschetz=Fraction(-5, 2), betas=(
            Fraction(1, 3), Fraction(2, 7), Fraction(-9, 4),
            Fraction(-5, 6), Fraction(-35, 4), Fraction(10, 9)))
        for r in (2, 3):
            with pytest.raises(NotDivisible, match=rf"\[stratum ranks \({r},\), degrees \(1,\)\]"):
                motive(env, ModuliSpec.from_p(3, r, 1, 1))


class TestSharedLambdaTables:
    @given(st.integers(min_value=2, max_value=4), st.integers(min_value=2, max_value=3),
           st.integers(min_value=1, max_value=3), st.integers(min_value=-4, max_value=4),
           st.one_of(st.none(), st.integers(min_value=0, max_value=10 ** 6)))
    @settings(max_examples=30, deadline=None)
    def test_motive_is_the_sum_of_public_stratum_classes(self, g, r, p, d, seed):
        # motive reads every stratum from one lambda series per class read;
        # the reference multiplies out each stratum on its own
        assume(math.gcd(r, d) == 1)
        spec = ModuliSpec.from_p(g, r, d, p)
        env = make_hodge_env(g) if seed is None else make_weil_env(g, seed)
        value = motive(env, spec)
        assert (value, type(value)) == _stratum_sum(env, spec)

    @pytest.mark.parametrize("seed", [None, 11])
    @pytest.mark.parametrize("d", [1, 2])
    def test_grouped_sum_at_the_largest_benchmark_cell(self, d, seed):
        # g=6, r=3, p=4: 120 strata, 105 of them (1,1,1) in 21 groups
        env = make_hodge_env(6) if seed is None else make_weil_env(6, seed)
        spec = ModuliSpec.from_p(6, 3, d, 4)
        value = motive(env, spec)
        assert (value, type(value)) == _stratum_sum(env, spec)

    def test_hodge_motive_makes_few_large_products(self, monkeypatch):
        # jac and each first lambda read of a (1,1,1) stratum multiply once
        # per group of strata; multiplying out every stratum makes 231
        env = make_hodge_env(6)
        spec = ModuliSpec.from_p(6, 3, 1, 4)
        mul = UVLaurent.__mul__
        large = []

        def counting_mul(a, b):
            if isinstance(b, UVLaurent) and len(list(a.items())) > 1 and len(list(b.items())) > 1:
                large.append((a, b))
            return mul(a, b)

        monkeypatch.setattr(UVLaurent, "__mul__", counting_mul)
        monkeypatch.setattr(UVLaurent, "__rmul__", counting_mul)
        motive(env, spec)
        assert 0 < len(large) <= 30

    def test_warm_lambda_tables_make_no_products(self, monkeypatch):
        # the shapes of the lambda series are built only with a table: once
        # motive has run, reading its tables again multiplies nothing
        env = make_hodge_env(6)
        spec = ModuliSpec.from_p(6, 3, 1, 4)
        motive(env, spec)
        mul = UVLaurent.__mul__
        callers = []

        def recording_mul(a, b):
            frame = sys._getframe(1)
            while frame is not None:
                callers.append(frame.f_code.co_name)
                frame = frame.f_back
            return mul(a, b)

        monkeypatch.setattr(UVLaurent, "__mul__", recording_mul)
        monkeypatch.setattr(UVLaurent, "__rmul__", recording_mul)
        motive(env, spec)
        assert "motive" in callers and "_lambda_tables" not in callers


class TestStrataPlan:
    def test_triple_groups_are_stride_3_progressions(self):
        # motive sums the (1,1,1) strata of one first read ([X], i1) as one
        # difference of stride-3 partial sums of [X]: their second reads
        # i2 = d - 3 d1 - 2 i1 - 3 dL must be lo, lo + 3, ..., hi
        for g in range(2, 9):
            for p in range(1, 7):
                for d in (-2, -1, 1, 2, 4, 5):
                    spec = ModuliSpec.from_p(g, 3, d, p)
                    dL = spec.dL
                    seconds = {}
                    for d1, d2 in triple_stratum_degrees(d, dL):
                        seconds.setdefault(-d1 + d2 - dL, []).append(d - d1 - 2 * d2 - dL)
                    _, n_plus, _, groups = moduli_formulas._strata_plan(g, 3, d, dL)
                    assert n_plus[1] == -6 * dL + 3 - 3 * g
                    assert {i1: list(range(lo, hi + 1, 3)) for i1, lo, hi in groups} == \
                        {i1: sorted(s) for i1, s in seconds.items()}, (g, p, d)

    def test_strata_survive_pickle(self):
        # slots must not cost picklability, which a process pool (as under
        # --threads) needs of what it sends: equal value, equal hash
        for t in strata_for(ModuliSpec.from_p(3, 3, 1, 2)):
            back = pickle.loads(pickle.dumps(t))
            assert back == t and hash(back) == hash(t)
        assert not hasattr(t, "__dict__")

    def test_a_gap_in_a_triple_group_is_refused(self, monkeypatch, capsys):
        # drop the middle stratum of the largest group of one first read
        degrees = moduli_formulas.triple_stratum_degrees

        def with_gap(d, dL):
            out = degrees(d, dL)
            firsts = [d2 - d1 for d1, d2 in out]
            group = [pair for pair in out if pair[1] - pair[0] == max(firsts, key=firsts.count)]
            out.remove(group[len(group) // 2])
            return out

        monkeypatch.setattr(moduli_formulas, "triple_stratum_degrees", with_gap)
        moduli_formulas._strata_plan.cache_clear()
        try:
            with pytest.raises(moduli_formulas.StrataPlanError, match="stride-3"):
                motive(make_weil_env(6, 5), ModuliSpec.from_p(6, 3, 1, 4))
            assert main(["motive", "--g", "6", "--r", "3", "--d", "1", "--p", "4"]) == \
                EXIT_ARITHMETIC_ERROR
            assert "not one stride-3 progression" in capsys.readouterr().err
        finally:
            moduli_formulas._strata_plan.cache_clear()

    def test_a_shifted_exponent_in_one_k_is_refused(self, monkeypatch, capsys):
        # raise N+ of one (1,1,1) stratum by one: its k = 1 no longer has
        # one exponent, and the plan names k and both exponents
        rank = moduli_formulas.bb_exponent
        spec = ModuliSpec.from_p(6, 3, 1, 4)
        shifted = moduli_formulas.strata_for(spec)[-1]
        assert shifted.ranks == (1, 1, 1)

        def shift_one(t, spec):
            return rank(t, spec) + (t == shifted)

        monkeypatch.setattr(moduli_formulas, "bb_exponent", shift_one)
        n_plus = -6 * spec.dL + 3 - 3 * spec.g
        moduli_formulas._strata_plan.cache_clear()
        try:
            with pytest.raises(moduli_formulas.StrataPlanError,
                               match=rf"k = 1 \(.*\) have N\+ = {n_plus} and {n_plus + 1} "):
                motive(make_weil_env(6, 5), spec)
            assert main(["motive", "--g", "6", "--r", "3", "--d", "1", "--p", "4"]) == \
                EXIT_ARITHMETIC_ERROR
            err = capsys.readouterr().err
            assert f"k = 1 (class jac^k * c) have N+ = {n_plus} and {n_plus + 1} " in err
            assert "Traceback" not in err
        finally:
            moduli_formulas._strata_plan.cache_clear()

    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=2, max_value=3),
           st.integers(min_value=1, max_value=4), st.integers(min_value=-4, max_value=4),
           st.one_of(st.none(), st.integers(min_value=0, max_value=10 ** 6)))
    @settings(max_examples=20, deadline=None)
    def test_cold_and_warm_plans_give_the_stratum_sum(self, g, r, p, d, seed):
        assume(math.gcd(r, d) == 1)
        spec = ModuliSpec.from_p(g, r, d, p)
        env = make_hodge_env(g) if seed is None else make_weil_env(g, seed)
        moduli_formulas._strata_plan.cache_clear()
        cold = motive(env, spec)
        warm = motive(env, spec)
        assert moduli_formulas._strata_plan.cache_info().hits == 1
        assert (cold, type(cold)) == (warm, type(warm)) == _stratum_sum(env, spec)


def _five_window_product(env, dL):
    """x^0 y^0 of the (1,1,1) kernel, read after expanding the full product
    of five BiSeries windows; the reference for the convolution."""
    numerator = {
        (2, 1): 1,
        (-dL + 2, 2 * dL + 1): -1,
        (2 * dL + 2, -dL + 1): -1,
        (dL + 2, dL + 1): 1,
    }
    factors_min = [min(i + j for i, j in numerator), 0, 0, -1, -1]
    total_min = sum(factors_min)
    caps = [m - total_min for m in factors_min]
    a = h1_series(env, caps[1]) * geometric(1, 1, caps[1]) * geometric(UV, 1, caps[1])
    parts = [
        BiSeries.from_monomials(numerator, caps[0]),
        BiSeries.from_monomials({(i, 0): c for i, c in enumerate(a.coeffs)}, caps[1]),
        BiSeries.from_monomials({(0, j): c for j, c in enumerate(a.coeffs)}, caps[2]),
        BiSeries.inv_x_minus_y2(caps[3]),
        BiSeries.inv_y_minus_x2(caps[4]),
    ]
    prod = parts[0]
    for part in parts[1:]:
        prod = prod * part
    return prod.coeff(0, 0)


class TestRank3DoubleExtraction:
    @pytest.mark.parametrize("g", [2, 3, 4])
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_matches_five_window_product(self, g, p, monkeypatch):
        env = make_hodge_env(g)
        dL = -(2 * g - 2 + p)
        assert moduli_formulas._rank3_double_extraction(env, dL) == _five_window_product(env, dL)
        # and through the whole query, for both residues of d mod 3
        specs = [ModuliSpec.from_p(g, 3, d, p) for d in (1, 2)]
        got = [epoly(spec) for spec in specs]
        monkeypatch.setattr(moduli_formulas, "_rank3_double_extraction", _five_window_product)
        assert got == [epoly(spec) for spec in specs]


def _extract_x0(shift, builders):
    """coeff_{x^0} of x^shift times a product of series factors, each built
    by its own closure to order -shift; the closed forms' construction
    before they shared one A(x) series, kept as the reference."""
    n = -shift
    return series_product([build(n) for build in builders]).coeff(n)


class TestClosedFormExtractions:
    @pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_match_per_factor_products(self, g, p):
        env = make_hodge_env(g)
        dL = -(2 * g - 2 + p)

        def znum(order):
            return h1_series(env, order)

        uv2 = UV * UV
        inv_uv, inv_uv2 = UV ** (-1), uv2 ** (-1)
        plus_dens = [lambda o: geometric(1, 1, o), lambda o: geometric(UV, 1, o),
                     lambda o: geometric(uv2, 1, o), lambda o: geometric(UV, 2, o)]
        twist_dens = [lambda o: geometric(1, 1, o), lambda o: geometric(UV, 1, o),
                      lambda o: geometric(inv_uv, 1, o) * inv_uv,
                      lambda o: geometric(inv_uv2, 2, o) * inv_uv2]
        expected = (_extract_x0(dL + 2, [znum] + plus_dens),
                    _extract_x0(dL + 2, [znum] + twist_dens),
                    _extract_x0(dL + 1, [znum] + plus_dens),
                    _extract_x0(dL + 1, [znum] + twist_dens))
        assert moduli_formulas._rank3_single_extractions(env, dL) == expected
        # rank 2 reads one coefficient inside epoly_rank2
        extraction = _extract_x0(dL + 1, [znum, lambda o: geometric(1, 2, o),
                                          lambda o: geometric(1, 1, o),
                                          lambda o: geometric(UV, 1, o)])
        rank2 = (UV ** (-4 * dL + 4 - 4 * g) * bundle_moduli_class(env, 2, 1)
                 + UV ** (-3 * dL + 2 - 2 * g) * jacobian_class(env) * extraction)
        assert epoly(ModuliSpec.from_p(g, 2, 1, p)) == rank2


class TestEpolyProperties:
    @given(st.integers(min_value=2, max_value=4), st.sampled_from([2, 3]),
           st.integers(min_value=1, max_value=3), st.integers(min_value=-5, max_value=5),
           st.integers(min_value=-2, max_value=2))
    @settings(max_examples=25, deadline=None)
    def test_d_independent_within_residue_class(self, g, r, p, d, k):
        assume(math.gcd(r, d) == 1)
        assert epoly(ModuliSpec.from_p(g, r, d, p)) == epoly(ModuliSpec.from_p(g, r, d + k * r, p))

    @given(st.integers(min_value=2, max_value=4), st.sampled_from([2, 3]),
           st.integers(min_value=1, max_value=3), st.integers(min_value=-5, max_value=5))
    @settings(max_examples=25, deadline=None)
    def test_uv_symmetric(self, g, r, p, d):
        assume(math.gcd(r, d) == 1)
        e = epoly(ModuliSpec.from_p(g, r, d, p))
        assert swap_uv(e) == e


class TestPoincare:
    def test_jacobian_betti(self):
        env = make_hodge_env(2)
        assert poincare(jacobian_class(env)) == [1, 4, 6, 4, 1]

    def test_moduli_betti_head(self):
        e = epoly(ModuliSpec.from_p(2, 2, 1, 1))
        b = poincare(e)
        assert b[0] == 1
        assert b[1] == 4

    def test_negative_raises(self):
        with pytest.raises(NegativeBetti):
            poincare(UVLaurent({(1, 0): 1, (0, 0): -3}))
