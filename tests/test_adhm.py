"""Partition hook data and the plethystic-log pipeline, checked against the
t-rational reference in t_rational.py."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import motiveforge.adhm as adhm
from motiveforge import series_engine
from motiveforge.adhm import Partition, adhm_class, mobius, partitions
from motiveforge.base_rings import UVLaurent
from motiveforge.curve_ring import (
    AtomEnvironment,
    frobenius,
    jacobian_class,
    make_hodge_env,
    make_weil_env,
)
from motiveforge.moduli_formulas import ModuliSpec, motive
from motiveforge.series_engine import InsufficientTruncation, PoleAtOne, TruncatedSeries
from series_reference import inverse
from t_rational import (
    TRational,
    _tp_mul,
    _tp_mul_factor,
    eval_at_one,
    partition_sum,
    plog_series,
    substitute_t_power,
)
from uv_reference import power_substitute


def size(lam: Partition) -> int:
    return sum(lam.parts)


def cells(lam: Partition):
    """All cells (i, j), 1-based, with 1 <= j <= parts[i-1]."""
    return [(i + 1, j + 1) for i, p in enumerate(lam.parts) for j in range(p)]


def arm(lam: Partition, i: int, j: int) -> int:
    return lam.parts[i - 1] - j


def leg(lam: Partition, i: int, j: int) -> int:
    return lam.conjugate_parts()[j - 1] - i


def hook(lam: Partition, i: int, j: int) -> int:
    return arm(lam, i, j) + leg(lam, i, j) + 1


class TestPartitions:
    def test_counts(self):
        assert [len(partitions(n)) for n in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]

    def test_reverse_lex_order(self):
        assert [p.parts for p in partitions(4)] == [
            (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_hooks_of_21(self):
        lam = Partition((2, 1))
        data = {(i, j): (arm(lam, i, j), leg(lam, i, j), hook(lam, i, j))
                for i, j in cells(lam)}
        assert data == {(1, 1): (1, 1, 3), (1, 2): (0, 0, 1), (2, 1): (0, 0, 1)}

    @given(st.integers(min_value=1, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_cell_data_consistency(self, n):
        for lam in partitions(n):
            box = cells(lam)
            assert len(box) == size(lam) == n
            listed = lam.cell_data()
            direct = [(arm(lam, i, j), leg(lam, i, j), hook(lam, i, j))
                      for i, j in box]
            assert listed == direct
            assert all(h == a + l + 1 >= 1 for a, l, h in listed)

    def test_invalid_parts(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, 0))


class TestMobius:
    def test_values(self):
        assert mobius(1) == 1
        assert mobius(2) == -1
        assert mobius(6) == 1
        assert mobius(12) == 0
        assert [mobius(j) for j in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


class TestPartitionSum:
    def test_charge_one_closed_form(self):
        # single cell, a = l = 0, h = 1: (-1)^p t^(1-g) Z(t)
        for p in (1, 2):
            for env in (make_hodge_env(2), make_weil_env(3, 13)):
                g = env.genus
                got = partition_sum(env, 1, p)
                num = {e + 1 - g: (-1) ** p * c
                       for e, c in _poly_terms(env)}
                expected = TRational(num, [(1, 1), (env.lefschetz, 1)], reduce=False)
                assert got == expected

    def test_pole_factors_match_zero_arm_cells(self):
        # the construction checks this internally; smoke over charges
        env = make_weil_env(2, 3)
        for n in (1, 2, 3):
            partition_sum(env, n, 1)

    @given(st.integers(min_value=2, max_value=4), st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=3),
           st.one_of(st.none(), st.integers(min_value=0, max_value=10 ** 6)))
    @settings(max_examples=20, deadline=None)
    def test_matches_per_atom_factors(self, g, n, p, seed):
        # reference: each cell numerator built as one (1 + b L^a t^h)
        # factor per atom instead of from the e_i
        env = make_hodge_env(g) if seed is None else make_weil_env(g, seed)
        L = env.lefschetz
        expected = TRational.from_scalar(0)
        for lam in partitions(n):
            num, den = {0: 1}, []
            for a, l, h in lam.cell_data():
                la = L ** a
                cell = {p * (a - l) + (1 - g) * (2 * l + 1): (-1) ** p * la ** p}
                for b in env.betas:
                    cell = _tp_mul_factor(cell, -(b * la), h)
                num = _tp_mul(num, cell)
                den += [(la, h), (la * L, h)]
            expected = expected + TRational(num, den, reduce=False)
        got = partition_sum(env, n, p)
        assert got.num == expected.num and got.den == expected.den

    def test_extra_pole_factor_raises(self):
        # with L = 1 the factor (1 - L^(a+1) t^h) of a zero-arm cell also
        # vanishes at t = 1, one pole more than the zero-arm cells allow
        env = AtomEnvironment(genus=2, lefschetz=1, betas=(1, 1, 1, 1), base="weil")
        with pytest.raises(PoleAtOne, match=r"partition \(1,\)"):
            partition_sum(env, 1, 1)

    def test_frobenius_compatibility_hodge(self):
        # psi_j of the charge-n term equals the (u, v, t) -> (u^j, v^j, t^j)
        # substitution on the plain term, checked in the Hodge realization
        env = make_hodge_env(2)
        for j in (2, 3):
            for n in (1, 2):
                plain = partition_sum(env, n, 1)
                substituted = TRational(
                    {e * j: power_substitute(c, j) if isinstance(c, UVLaurent) else c
                     for e, c in plain.num.items()},
                    [(power_substitute(cc, j) if isinstance(cc, UVLaurent) else cc, m * j)
                     for cc, m in plain.den],
                    reduce=False,
                )
                via_env = substitute_t_power(partition_sum(frobenius(env, j), n, 1), j)
                assert via_env == substituted


def _poly_terms(env):
    """The nonzero terms i: e_i of h1(x) = prod_k (1 + b_k x)."""
    return {i: c for i, c in enumerate(env.lambda_values)
            if not (isinstance(c, int) and c == 0)}.items()


class TestPlogSeries:
    def test_h1_closed_form(self):
        for p in (1, 2, 3):
            env = make_weil_env(2, 5)
            g = env.genus
            h = plog_series(env, 1, p)[0]
            num = {e + 1 - g: (-1) ** p * c
                   for e, c in _poly_terms(env)}
            assert h == TRational(num)
            assert h.is_polynomial()

    def test_polynomiality_after_reduction(self):
        # the conjectural H_n are honest Laurent polynomials in t; the
        # pipeline's one reduction at the end discovers that
        env = make_weil_env(2, 7)
        for h in plog_series(env, 3, 1):
            assert h.is_polynomial()

    def test_psi_composition_through_pipeline(self):
        # building with a pre-twisted environment then substituting matches
        # the twist applied after assembly, in the Hodge realization
        env = make_hodge_env(2)
        m = 2
        direct = plog_series(frobenius(env, m), 2, 1)
        plain = plog_series(env, 2, 1)
        for d, pl in zip(direct, plain):
            d_sub = substitute_t_power(d, m)
            pl_twisted = TRational(
                {e * m: power_substitute(c, m) for e, c in pl.num.items()},
                [(power_substitute(cc, m), mm * m) for cc, mm in pl.den],
            )
            assert d_sub == pl_twisted


class TestAdhmClass:
    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=6),
           st.one_of(st.none(), st.integers(min_value=0, max_value=10 ** 6)))
    @settings(max_examples=40, deadline=None)
    def test_rank1_oracle(self, g, p, seed):
        # independent derivation: the rank-1 moduli space is an affine
        # bundle of rank -dL + 1 - g over the Jacobian (Riemann-Roch), so
        # its class is L^(g - 1 + p) [Jac]
        env = make_hodge_env(g) if seed is None else make_weil_env(g, seed)
        expected = env.lefschetz ** (g - 1 + p) * jacobian_class(env)
        assert adhm_class(env, 1, p) == expected

    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_weil_value_matches_fraction_pipeline(self, g, p, r, seed):
        # adhm_class expands at t = 1 + s, with a partition's products run on
        # ints scaled by powers of D; the reference is the t-rational
        # pipeline on the environment's plain Fraction atoms
        env = make_weil_env(g, seed)
        got = adhm_class(env, r, p)
        assert type(got) is Fraction
        assert got == _t_rational_adhm_class(env, r, p)

    def test_hodge_value_matches_t_rational_pipeline(self):
        # the expansion at t = 1 + s over constant denominators prod (1 - L^k)
        # against the t-rational reference; the class has int coefficients
        for g in (2, 3):
            env = make_hodge_env(g)
            for r in (1, 2, 3):
                for p in (1, 2):
                    got = adhm_class(env, r, p)
                    assert got == _t_rational_adhm_class(env, r, p)
                    assert all(type(c) is int for _, c in got.items())

    def test_even_rank_sign(self):
        # (-1)^(p r) = 1 for even r: flipping p must not flip the sign
        env = make_weil_env(2, 31)
        a1 = adhm_class(env, 2, 1)
        a2 = adhm_class(env, 2, 2)
        spec1 = ModuliSpec.from_p(2, 2, 1, 1)
        spec2 = ModuliSpec.from_p(2, 2, 1, 2)
        assert a1 == motive(env, spec1)
        assert a2 == motive(env, spec2)

    @pytest.mark.parametrize("r,p", [(2, 1), (3, 1)])
    def test_matches_motive_weil(self, r, p):
        env = make_weil_env(2, 37)
        spec = ModuliSpec.from_p(2, r, 1, p)
        assert adhm_class(env, r, p) == motive(env, spec)

    def test_matches_motive_hodge(self):
        env = make_hodge_env(2)
        spec = ModuliSpec.from_p(2, 2, 1, 1)
        assert adhm_class(env, 2, 1) == motive(env, spec)

    def test_eval_at_one_succeeds_on_pipeline(self):
        for env in (make_weil_env(2, 41), make_hodge_env(2)):
            for r in (1, 2, 3):
                # h_m = s^(m-1) H_m for every m <= r
                for m, h in enumerate(adhm.plog_series(env, r, 2), 1):
                    series_engine.eval_at_one(h, m - 1)


def _t_rational_adhm_class(env, r, p):
    """adhm_class through the t-rational reference pipeline."""
    prefactor = env.lefschetz ** (r * r * (env.genus - 1) + p * (r * (r + 1) // 2))
    return (-1) ** (p * r) * prefactor * eval_at_one(plog_series(env, r, p)[r - 1])


class TestLaurentRoute:
    """The weil route's own checks, each on an input that reaches it."""

    def test_extra_pole_factor_names_charge_partition_and_j(self):
        # L = 1: the factor (1 - L t) of the one cell also vanishes at t = 1
        env = AtomEnvironment(genus=2, lefschetz=1, betas=(1,) * 4, base="weil")
        with pytest.raises(PoleAtOne, match=r"charge 1, partition \(1,\), Adams index j=1: 2 "):
            adhm_class(env, 1, 1)

    def test_pole_check_runs_for_a_partition_past_the_terms(self):
        # psi_3 of charge 1 is shifted by 3 - 1 = 2 past s^0, so its series
        # is not built; with L = 1 its second pole must still be refused
        good = frobenius(make_weil_env(2, 5), 3)
        assert adhm.partition_sum(good, 1, 1, 3, 2).coeffs == [0, 0]
        env = AtomEnvironment(genus=2, lefschetz=1, betas=(1,) * 4, base="weil")
        with pytest.raises(PoleAtOne, match=r"charge 1, partition \(1,\), Adams index j=3: 2 "):
            adhm.partition_sum(env, 1, 1, 3, 1)

    @pytest.mark.parametrize("r", [2, 3])
    def test_pole_left_in_h_r_raises(self, monkeypatch, r):
        # without the logarithm, the order-r pole of the charge-r term at
        # t = 1 survives the (1-t)(1-Lt) clearing; on hodge the coefficient
        # is a TRational, whose zero test must see it
        monkeypatch.setattr(adhm, "series_log", lambda s: s)
        for env in (make_weil_env(2, 5), make_hodge_env(2)):
            with pytest.raises(PoleAtOne, match=rf"nonzero s\^-{r - 1} coefficient"):
                adhm_class(env, r, 1)

    @pytest.mark.parametrize("r,p", [(0, 1), (1, 0)])
    def test_rank_and_twist_below_one_are_refused(self, r, p):
        for env in (make_hodge_env(2), make_weil_env(2, 5)):
            with pytest.raises(ValueError, match="r, p >= 1"):
                adhm_class(env, r, p)

    def test_read_past_the_known_terms_raises(self, monkeypatch):
        # one term fewer per charge term than the precision argument needs:
        # h_2 = s H_2 is then known through s^0 only, and reading s^1 must fail
        charge = adhm.partition_sum
        monkeypatch.setattr(adhm, "partition_sum",
                            lambda env, n, p, j, terms: charge(env, n, p, j, terms - 1))
        with pytest.raises(InsufficientTruncation, match=r"x\^1 requested, series truncated at 0"):
            adhm_class(make_weil_env(2, 5), 2, 1)

    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_scaled_charge_term_matches_fraction_reference(self, g, n, p, j, terms, seed):
        # every s-coefficient of the weighted charge term built over ints
        # scaled by powers of D, each partition only to the coefficients its
        # shift keeps, equals the one built to full length on the plain
        # Fraction atoms
        env = frobenius(make_weil_env(g, seed), j)
        got = adhm.partition_sum(env, n, p, j, terms)
        want = _charge_at_one_over_fractions(env, n, p, j, terms)
        assert got.order == want.order == terms - 1
        for k in range(terms):
            # only the shift's leading zeros are ints
            assert got.coeff(k) == want.coeff(k)
            assert type(got.coeff(k)) is Fraction or got.coeff(k) == 0


def _charge_at_one_over_fractions(env, n, p, j, terms):
    """s^(j n) psi_j of the charge-n term at t = 1 + s, each cell numerator
    and denominator factor built and multiplied on the environment's own
    Fraction values: the expansion of adhm.partition_sum without the
    scale D.  A partition's expansion starts at s^(-poles), so the weight
    s^(j n) shifts it by j n - poles."""
    g, L = env.genus, env.lefschetz
    total = TruncatedSeries([], order=terms - 1)
    for lam in partitions(n):
        num = den = TruncatedSeries([1], order=terms - 1)
        poles = 0
        for a, l, h in lam.cell_data():
            la = L ** a
            base_exp = p * (a - l) + (1 - g) * (2 * l + 1)
            coeff = (-1) ** p * la ** p
            cell = [0] * terms
            for i, e_i in enumerate(env.lambda_values):
                w = coeff * e_i
                coeff = coeff * la
                for k, b in enumerate(adhm._binomials(j * (base_exp + h * i), terms)):
                    cell[k] = w * b + cell[k]
            num = num * TruncatedSeries(cell, order=terms - 1)
            b = adhm._binomials(j * h, terms + 1)
            for c in (la, la * L):
                pole = c == 1
                factor = [-c * x for x in b[1:]] if pole else [1 - c] + [-c * x for x in b[1:terms]]
                den = den * TruncatedSeries(factor, order=terms - 1)
                poles += pole
        expansion = num * inverse(den)
        total = total + TruncatedSeries(
            [expansion.coeff(k - j * n + poles) for k in range(terms)], order=terms - 1)
    return total
