"""Partition hook data and the plethystic-log pipeline, checked against the
t-rational reference in t_rational.py."""

from fractions import Fraction
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import motiveforge.adhm as adhm
from motiveforge import series_engine
from motiveforge.adhm import Partition, adhm_class, mobius, partitions
from motiveforge.base_rings import UV, UVLaurent
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
    h_at_one,
    log_scale,
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

    def test_definition_through_300(self):
        # 0 unless j is squarefree, else (-1)^(number of prime factors);
        # the builder and the t-rational reference both weight by it
        for j in range(1, 301):
            primes = [q for q in range(2, j + 1) if j % q == 0 and all(q % f for f in range(2, q))]
            squarefree = all(j % (q * q) for q in primes)
            assert mobius(j) == ((-1) ** len(primes) if squarefree else 0), j


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
        env = AtomEnvironment(genus=2, lefschetz=1, betas=(1, 1, 1, 1))
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

    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=4),
           st.one_of(st.tuples(st.just("seed"), st.integers(min_value=0, max_value=10 ** 6)),
                     st.tuples(st.just("ints"), st.just(6)),
                     st.tuples(st.just("L"), st.sampled_from(
                         [2, -2, Fraction(2), Fraction(1, 2), Fraction(-1, 2)]))),
           st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_every_weil_h_m_matches_the_t_rational_reference(self, g, r, p, source, rng):
        # the weil logarithm runs on ints over one scale per Adams index,
        # lifted from each charge term's own; every h_m = s^(m-1) H_m, so
        # several reads per index, equals the reference H_m at t = 1 + s
        # (W H_m, W = log_scale(r)).
        # A small L makes the factors d^k - n^k small and sharing primes, so
        # the scale's R is a true lcm; int atoms have P = d = 1
        env = _weil_env(g, source, rng)
        got = adhm.plog_series(env, range(1, r + 1), r, p)
        W = log_scale(r)
        for m, (h, H) in enumerate(zip(got, plog_series(env, r, p)), 1):
            assert H.is_polynomial() and h.order == r - 1
            assert [W * c for c in h.coeffs] == [_at_one_plus_s(H, i - m + 1) for i in range(r)]


def _weil_env(g, source, rng):
    """A weil environment from ("seed", s), make_weil_env's; ("ints", L),
    int atoms dividing the int L, paired to it; or ("L", L), random
    Fraction atoms paired to L."""
    kind, value = source
    if kind == "seed":
        return make_weil_env(g, value)
    if kind == "ints":
        first = [rng.choice([-1, 1]) * rng.choice([x for x in range(1, value + 1) if value % x == 0])
                 for _ in range(g)]
        return AtomEnvironment(genus=g, lefschetz=value, betas=tuple(first + [value // b for b in first]))
    first = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9)) for _ in range(g)]
    return AtomEnvironment(genus=g, lefschetz=value, betas=tuple(first + [value / b for b in first]))


def _at_one_plus_s(H, k):
    """The s^k coefficient of the Laurent polynomial H(t) at t = 1 + s, 0
    for k < 0."""
    return sum(c * _binomial_row(e, k + 1)[k] for e, c in H.num.items()) if k >= 0 else 0


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

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_equals_the_full_plog_reading(self, g):
        # adhm_class builds h_r alone, from the Adams indices dividing r;
        # it must equal the last series of the full h_1 .. h_r
        for env in (make_hodge_env(g), make_weil_env(g, 50 + g)):
            for r in (1, 2, 3):
                for p in (1, 2, 3):
                    full = series_engine.eval_at_one(
                        adhm.plog_series(env, range(1, r + 1), r, p)[r - 1], r - 1)
                    prefactor = env.lefschetz ** (r * r * (g - 1) + p * (r * (r + 1) // 2))
                    assert adhm_class(env, r, p) == (-1) ** (p * r) * prefactor * full

    def test_int_atoms_keep_int_weights(self, monkeypatch):
        # with D = 1 the expansion reads the int lift, so every value the
        # weil route hands to Fraction is an int (Fraction weights would
        # turn the whole expansion into Fraction arithmetic)
        seen = []

        def recording(*args):
            seen.extend(type(x) for x in args)
            return Fraction(*args)

        monkeypatch.setattr(adhm, "Fraction", recording)
        env = AtomEnvironment(genus=2, lefschetz=6, betas=(2, -3, 3, -2))
        for r in (1, 2, 3):
            adhm_class(env, r, 1)
        assert seen and set(seen) == {int}

    @pytest.mark.parametrize("g", [2, 5])
    def test_weil_makes_fractions_per_adams_read_not_per_partition(self, monkeypatch, g):
        # the sum over partitions, the logarithm and the Moebius sum run on
        # ints: adhm makes a Fraction only where an Adams index's U^(r/j)
        # coefficient is read, one per s-coefficient, so at most r per read
        made = []

        def recording(*args):
            made.append(args)
            return Fraction(*args)

        monkeypatch.setattr(adhm, "Fraction", recording)
        for r in (1, 2, 3):
            reads = sum(1 for j in range(1, r + 1) if r % j == 0 and mobius(j))
            for p in (1, 2, 3):
                made.clear()
                value = adhm_class(make_weil_env(g, 10 * r + p), r, p)
                assert type(value) is Fraction and 0 < len(made) <= r * reads, (r, p, made)

    def test_the_values_choose_the_route(self):
        # no field names the realization: an int or Fraction L takes the
        # weil route, ints over the term's scale, and any other L the hodge
        # route, one TRational per coefficient; a coefficient no term
        # reaches stays the int 0
        def carriers(env, j):
            coeffs = [x for n in (1, 2) for x in adhm.partition_sum(env, n, 1, j, 3).coeffs]
            return {type(x) for x in coeffs if not (type(x) is int and x == 0)}

        ints = AtomEnvironment(genus=2, lefschetz=6, betas=(2, -3, 3, -2))
        assert type(adhm_class(ints, 2, 1)) is Fraction
        weil, hodge = make_weil_env(2, 3), make_hodge_env(2)
        for j in (1, 2, 3):
            assert carriers(frobenius(ints, j), j) == {int}
            assert carriers(frobenius(weil, j), j) == {int}
            assert carriers(frobenius(hodge, j), j) == {series_engine.TRational}
        built = AtomEnvironment(genus=2, lefschetz=hodge.lefschetz, betas=hodge.betas)
        assert built == hodge and built is not hodge
        for r in (1, 2, 3):
            value = adhm_class(built, r, 1)
            assert type(value) is UVLaurent and value == adhm_class(hodge, r, 1)

    def test_eval_at_one_succeeds_on_pipeline(self):
        for env in (make_weil_env(2, 41), make_hodge_env(2)):
            for r in (1, 2, 3):
                # h_m = s^(m-1) H_m for every m <= r
                for m, h in enumerate(adhm.plog_series(env, range(1, r + 1), r, 2), 1):
                    series_engine.eval_at_one(h, m - 1)


def _t_rational_adhm_class(env, r, p):
    """adhm_class through the t-rational reference pipeline."""
    prefactor = env.lefschetz ** (r * r * (env.genus - 1) + p * (r * (r + 1) // 2))
    return (-1) ** (p * r) * prefactor * h_at_one(env, r, p)


class TestLaurentRoute:
    """The weil route's own checks, each on an input that reaches it."""

    def test_extra_pole_factor_names_charge_partition_and_j(self):
        # L = 1: the factor (1 - L t) of the one cell also vanishes at t = 1
        env = AtomEnvironment(genus=2, lefschetz=1, betas=(1,) * 4)
        with pytest.raises(PoleAtOne, match=r"charge 1, partition \(1,\), Adams index j=1: 2 "):
            adhm_class(env, 1, 1)

    def test_pole_check_runs_for_a_partition_past_the_terms(self):
        # psi_3 of charge 1 is shifted by 3 - 1 = 2 past s^0, so its series
        # is not built; with L = 1 its second pole must still be refused
        good = frobenius(make_weil_env(2, 5), 3)
        assert adhm.partition_sum(good, 1, 1, 3, 2).coeffs == [0, 0]
        env = AtomEnvironment(genus=2, lefschetz=1, betas=(1,) * 4)
        with pytest.raises(PoleAtOne, match=r"charge 1, partition \(1,\), Adams index j=3: 2 "):
            adhm.partition_sum(env, 1, 1, 3, 1)

    def test_pole_check_runs_on_a_warm_skeleton(self):
        # the memo holds no environment: after a good environment has filled
        # it, L = 1 at the same (n, p, g, j, terms) is still refused
        adhm.partition_sum(make_weil_env(2, 5), 2, 1, 1, 2)
        hits = adhm._skeleton.cache_info().hits
        env = AtomEnvironment(genus=2, lefschetz=1, betas=(1,) * 4)
        with pytest.raises(PoleAtOne, match=r"^charge 2, partition \(2,\), Adams index j=1: 4 "
                           r"denominator factors vanish at t = 1, but only its 1 zero-arm "
                           r"cells may$"):
            adhm.partition_sum(env, 2, 1, 1, 2)
        assert adhm._skeleton.cache_info().hits == hits + 1

    @given(st.integers(min_value=2, max_value=4), st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=3),
           st.one_of(st.none(), st.integers(min_value=0, max_value=10 ** 6)))
    @settings(max_examples=30, deadline=None)
    def test_cold_and_warm_skeleton_give_the_same_terms(self, g, n, p, j, terms, seed):
        # a skeleton filled by the other realization's environment gives the
        # coefficients a freshly built one does, to their representation
        env = frobenius(make_hodge_env(g) if seed is None else make_weil_env(g, seed), j)
        other = frobenius(make_weil_env(g, 1) if seed is None else make_hodge_env(g), j)
        adhm._skeleton.cache_clear()
        cold = adhm.partition_sum(env, n, p, j, terms)
        adhm._skeleton.cache_clear()
        adhm.partition_sum(other, n, p, j, terms)
        warm = adhm.partition_sum(env, n, p, j, terms)
        assert adhm._skeleton.cache_info().hits == 1
        assert [repr(c) for c in cold.coeffs] == [repr(c) for c in warm.coeffs]

    @pytest.mark.parametrize("r", [2, 3])
    def test_pole_left_in_h_r_raises(self, monkeypatch, r):
        # without the logarithm, the order-r pole of the charge-r term at
        # t = 1 survives the (1-t)(1-Lt) clearing; on hodge the coefficient
        # is a TRational, whose zero test must see it; the hodge-valued
        # environment is a new one, so no class kept in the genus
        # environment's cache stands in for the patched pipeline
        monkeypatch.setattr(adhm, "series_log", lambda s: s)
        hodge = AtomEnvironment(genus=2, lefschetz=UV, betas=make_hodge_env(2).betas)
        for env in (make_weil_env(2, 5), hodge):
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
        # every s-coefficient of the weighted charge term built over ints,
        # each partition only to the coefficients its shift keeps, equals,
        # over the term's scale, the one built to full length on the plain
        # Fraction atoms
        env = frobenius(make_weil_env(g, seed), j)
        got = adhm.partition_sum(env, n, p, j, terms)
        want = _charge_at_one_over_fractions(env, n, p, j, terms)
        assert got.order == want.order == terms - 1
        unscaled = _unscaled(env, got, n, p, j, terms)
        for k in range(terms):
            # every coefficient is an int, the leading zeros of the shift too
            assert unscaled[k] == want.coeff(k)
            assert type(got.coeff(k)) is int


def _unscaled(env, series, n, p, j, terms):
    """The s-coefficients of a weil charge term: the ints of
    adhm.partition_sum over the scale (R, E) it keeps in the environment's
    cache, Phi_n[i] / (R^i B^n) with B = P d^E R."""
    R, E = env.cache[("scale", n, p, j, terms)]
    B = env.lift[0] * env.lefschetz.denominator ** E * R
    return [Fraction(x, R ** i * B ** n) for i, x in enumerate(series.coeffs)]


def _binomial_row(e, count):
    """C(e, 0) .. C(e, count - 1) for any integer e, each the falling
    factorial e (e - 1) .. (e - k + 1) over k!."""
    return [math.prod(range(e - k + 1, e + 1)) // math.factorial(k) for k in range(count)]


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
                for k, b in enumerate(_binomial_row(j * (base_exp + h * i), terms)):
                    cell[k] = w * b + cell[k]
            num = num * TruncatedSeries(cell, order=terms - 1)
            b = _binomial_row(j * h, terms + 1)
            for c in (la, la * L):
                pole = c == 1
                factor = [-c * x for x in b[1:]] if pole else [1 - c] + [-c * x for x in b[1:terms]]
                den = den * TruncatedSeries(factor, order=terms - 1)
                poles += pole
        expansion = num * inverse(den)
        total = total + TruncatedSeries(
            [expansion.coeff(k - j * n + poles) for k in range(terms)], order=terms - 1)
    return total
