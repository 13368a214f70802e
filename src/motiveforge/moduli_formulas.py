"""Explicit moduli-space formulas: stratum classes, Morse indices, attracting
exponents, rank 2/3 motivic classes, E-polynomials and Betti numbers.

Geometry conventions.  A query is a :class:`ModuliSpec` (g, r, d, dL) with
gcd(r, d) = 1 and twist degree dL < 2 - 2g; equivalently dL = -(2g - 2 + p)
with p >= 1.  The moduli space is smooth of dimension 1 - r^2 * dL.  Its
class decomposes over the fixed-point strata of the scaling action,

    [M] = sum over strata of L^(N+) [VHS(rbar, dbar)],

where each stratum is a variation-of-Hodge-structure locus indexed by a
multirank/multidegree pair and N+ is the rank of its attracting affine
bundle.  N+ is computed as

    N+ = (1 - r^2 dL) - dim VHS - M/2,

with M the Morse index of the stratum, itself a sum of Euler characteristics
of the graded pieces of the deformation complex (:func:`morse_index`).  The
supported stratum shapes are (r), (1,1), (1,2), (2,1) and (1,1,1); the (2,1)
stratum is evaluated through its duality isomorphism with a (1,2) stratum of
total degree -d.

Two independent routes to the E-polynomial are provided on purpose:
evaluating the motivic formulas in the Hodge environment (:func:`motive`)
and the closed coefficient-extraction forms (:func:`epoly_rank2` /
:func:`epoly_rank3`).  Their agreement is part of the acceptance suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from numbers import Rational
from typing import Dict, List, Tuple

from .base_rings import UV, NotDivisible, UVLaurent, exact_divide
from .curve_ring import (
    AtomEnvironment,
    h1_numerator,
    h1_series,
    jacobian_class,
    jacobian_numerator,
    lambda_series,
    make_hodge_env,
)
from .series_engine import BiSeries, TruncatedSeries


class InvalidSpec(ValueError):
    """The moduli query violates a validity predicate."""


class EmptyStratum(ValueError):
    """The requested stratum is empty for these degrees."""


class NegativeBetti(ArithmeticError):
    """A Betti coefficient came out negative."""


class StrataPlanError(ArithmeticError):
    """The strata do not fit the grouped sum of :func:`motive`."""


#: Largest dim M = 1 - r^2 dL a query may have.  For a valid query dim M
#: exceeds g, p and |dL|, so this one number bounds all four; larger
#: inputs are refused before any work, since sizes such as dim M index
#: lists and powers and beyond machine size end in OverflowError.
INPUT_BUDGET = 1000


@dataclass(frozen=True)
class ModuliSpec:
    """Moduli-space query (genus, rank, degree, twist degree), valid by
    construction: a space outside the paper's hypotheses (g >= 2, r in
    1..3, gcd(r, d) = 1, dL < 2 - 2g) or above the input budget raises
    :class:`InvalidSpec` when it is built, so every function that takes a
    spec reads it unchecked."""

    g: int
    r: int
    d: int
    dL: int

    @classmethod
    def from_p(cls, g: int, r: int, d: int, p: int) -> "ModuliSpec":
        return cls(g=g, r=r, d=d, dL=-(2 * g - 2 + p))

    @property
    def p(self) -> int:
        return -self.dL - 2 * self.g + 2

    def __post_init__(self):
        if self.g < 2:
            raise InvalidSpec(f"genus {self.g} < 2")
        if self.r not in (1, 2, 3):
            raise InvalidSpec(f"rank {self.r} not in {{1, 2, 3}}")
        if math.gcd(self.r, self.d) != 1:
            raise InvalidSpec(f"gcd(r, d) = gcd({self.r}, {self.d}) != 1")
        if self.dL >= 2 - 2 * self.g:
            raise InvalidSpec(f"twist degree {self.dL} must be < {2 - 2 * self.g}")
        dim = dimension(self)
        if dim > INPUT_BUDGET:
            raise InvalidSpec(f"dim M = 1 - r^2 dL = {dim} exceeds the input budget {INPUT_BUDGET}")


@dataclass(frozen=True, slots=True)
class VHSType:
    """Fixed-point stratum shape: multirank and multidegree."""

    ranks: Tuple[int, ...]
    degs: Tuple[int, ...]

    def __post_init__(self):
        if len(self.ranks) != len(self.degs):
            raise ValueError("multirank and multidegree lengths differ")

    @property
    def total_rank(self) -> int:
        return sum(self.ranks)

    @property
    def total_deg(self) -> int:
        return sum(self.degs)


def dimension(spec: ModuliSpec) -> int:
    """dim M = 1 - r^2 * dL."""
    return 1 - spec.r ** 2 * spec.dL


# ---------------------------------------------------------------------------
# Morse index and attracting exponent
# ---------------------------------------------------------------------------

def morse_index(t: VHSType, twist_deg: int, g: int) -> int:
    """Morse index M of a stratum, from the graded deformation complex.

    ``twist_deg`` is the Higgs-side twist degree (-dL > 2g - 2); the sign
    plumbing between the connection-side twist (negative degree) and the
    Higgs-side one is centralized in this argument.  Euler characteristics
    come from Riemann-Roch: chi(Hom(E_i, E_j)) = r_i d_j - r_j d_i
    + r_i r_j (1 - g), plus r_i r_j * twist_deg when twisted.
    """
    if twist_deg <= 2 * g - 2:
        raise ValueError("Higgs-side twist degree must exceed 2g - 2")
    r, d = t.ranks, t.degs
    k = len(r)
    total = 0
    for l in range(1, k):
        neg_chi = 0
        for i in range(k - l - 1):
            ri, rj, di, dj = r[i], r[i + l + 1], d[i], d[i + l + 1]
            neg_chi += ri * dj - rj * di + ri * rj * twist_deg + ri * rj * (1 - g)
        for i in range(k - l):
            ri, rj, di, dj = r[i], r[i + l], d[i], d[i + l]
            neg_chi -= ri * dj - rj * di + ri * rj * (1 - g)
        total += neg_chi
    return 2 * total


def _vhs12_degrees(t: VHSType) -> Tuple[int, int]:
    """(first degree, total degree) of the (1,2) stratum a (1,2) or (2,1)
    stratum is evaluated as; a (2,1) stratum goes through its dual (1,2)
    stratum of total degree -d.  The one duality map: the dimension, the
    lambda reads and the class of a (2,1) stratum all go through it."""
    d = t.total_deg
    if t.ranks == (1, 2):
        return t.degs[0], d
    return t.degs[0] - d, -d


def bb_exponent(t: VHSType, spec: ModuliSpec) -> int:
    """Rank N+ of the attracting affine bundle over a stratum of ``spec``.

    N+ = dim M - dim VHS - M/2.  Raises :class:`InvalidSpec` when the
    stratum's total rank or degree is not the space's, or its shape is
    unsupported, and :class:`EmptyStratum` when it is empty.
    """
    if t.total_rank != spec.r or t.total_deg != spec.d:
        raise InvalidSpec(f"stratum {t} is not a stratum of {spec}")
    dim_vhs = _stratum_facts(t, spec.g, spec.dL)[1]
    return dimension(spec) - dim_vhs - morse_index(t, -spec.dL, spec.g) // 2


# ---------------------------------------------------------------------------
# Delta set for (1,1,1) strata
# ---------------------------------------------------------------------------

def triple_stratum_degrees(d: int, dL: int) -> List[Tuple[int, int]]:
    """All degree pairs (d1, d2) of nonempty (1,1,1) strata.

    The four defining inequalities are a - b <= -dL, a + 2b - d <= -dL,
    a > d/3, a + b > 2d/3; the enumeration below runs over the equivalent
    explicit bounds (strictness handled with floor + 1, exact for every d).
    """
    if dL >= 0:
        raise ValueError("twist degree must be negative")
    out: List[Tuple[int, int]] = []
    a_lo = d // 3 + 1
    a_hi = d // 3 - dL
    for a in range(a_lo, a_hi + 1):
        b_lo = max(dL + a, (2 * d) // 3 + 1 - a)
        b_hi = (d - dL - a) // 2
        for b in range(b_lo, b_hi + 1):
            out.append((a, b))
    return out


# ---------------------------------------------------------------------------
# stratum classes
# ---------------------------------------------------------------------------

def bundle_moduli_class(env: AtomEnvironment, r: int, d: int):
    """Class of the moduli of stable bundles of rank r and coprime degree d:
    that of the bundle stratum (:func:`vhs_class`), an int when integral.

    The class depends on the environment and r alone: d is only checked
    to be coprime to r, on every call, and the class is built once per
    environment and rank."""
    if r == 1:
        return jacobian_class(env)
    value = _over_scale(env, r, *vhs_class(env, VHSType((r,), (d,)), [], {}))
    return value.numerator if isinstance(value, Fraction) and value.denominator == 1 else value


def _lifted(L):
    """(n, d) with L = n / d: d = 1 unless L is a Fraction."""
    return (L.numerator, L.denominator) if isinstance(L, Rational) else (L, 1)


def _up(x, d, e):
    """x * d^e, with no product when d = 1 (hodge, or an int L)."""
    return x if d == 1 else x * d ** e


def _add(x, y, d):
    """x + y for x = (num, b) standing for num / d^b, over the larger b."""
    (u, bu), (v, bv) = x, y
    if d != 1 and bu != bv:
        u, v = (u * d ** (bv - bu), v) if bu < bv else (u, v * d ** (bu - bv))
    return u + v, max(bu, bv)


def _over_scale(env, a, num, b):
    """num / (P^a d^b): one Fraction when L is a Fraction or P > 1, else num."""
    P, L = env.lift[0], env.lefschetz
    if isinstance(L, Rational) and (P != 1 or not isinstance(L, int)):
        return Fraction(num, P ** a * L.denominator ** b)
    return num


def _bundle_class(env: AtomEnvironment, r: int):
    """(N, b): the rank-r bundle class is N / (P^r d^b), L = n / d, built on
    the lift's numerators: [Jac] = J / P (:func:`jacobian_numerator`), and
    h1(L), h1(L^2) over P d^(2g), P d^(4g) (:func:`h1_numerator`).  Each
    factor L^k - 1 = (n^k - d^k) / d^k is an exact division by n^k - d^k."""
    g = env.genus
    n, d = _lifted(env.lefschetz)
    jac = jacobian_numerator(env)
    pl = h1_numerator(env, n, d)
    if r == 2:
        num = jac * pl - _up(n ** g * jac * jac, d, g)
        return exact_divide(exact_divide(num, n - d), n * n - d * d), 2 * g - 3
    if r == 3:
        pl2 = h1_numerator(env, n * n, d * d)
        num = jac * (
            _up(n ** (3 * g - 1) * (_up(d + n, d, 1) + n * n) * jac * jac, d, 3 * g - 1)
            - _up(n ** (2 * g - 1) * (d + n) * (d + n) * jac * pl, d, 2 * g - 1)
            + pl * pl2
        )
        for f in (n - d, n * n - d * d, n * n - d * d, n ** 3 - d ** 3):
            num = exact_divide(num, f)
        return num, 6 * g - 8
    raise InvalidSpec(f"rank {r} not supported")


# The classes whose lambda-powers the stratum classes read.
_CURVE = "[X]"
_PLUS = "[X] + L^2"
_TWIST = "[X]*L + 1"


def _stratum_facts(t: VHSType, g: int, dL: int) -> Tuple[int, int, List[Tuple[str, int]]]:
    """(k, dimension, reads) of a stratum in genus g: its class is jac^k times
    a class that reads the lambda-powers ``reads``, (class, lambda index)
    pairs.  A bundle stratum reads none; a (1,1) or (1,1,1) stratum is Jac
    times the symmetric powers of X it reads, of dimension g plus its
    indices.  Raises :class:`EmptyStratum` for an empty stratum and
    :class:`InvalidSpec` for an unsupported shape.
    """
    ranks = t.ranks
    d = t.total_deg
    if len(ranks) == 1:
        return 0, ranks[0] ** 2 * (g - 1) + 1, []
    if ranks == (1, 1):
        d1 = t.degs[0]
        if not (2 * d1 > d and 2 * d1 <= d - dL):
            raise EmptyStratum(f"(1,1) stratum empty at d1 = {d1}")
        i = d - 2 * d1 - dL
        return 1, g + i, [(_CURVE, i)]
    if ranks in ((1, 2), (2, 1)):
        d1, dd = _vhs12_degrees(t)
        if not (3 * d1 > dd and 6 * d1 < 2 * dd - 3 * dL):  # dd/3 < d1 < dd/3 - dL/2
            raise EmptyStratum(f"({ranks[0]},{ranks[1]}) stratum empty at degrees {t.degs}")
        index = dd - dd // 3 - 2 * d1 - dL - 1
        if index < 0:
            raise EmptyStratum("negative lambda index in (1,2) stratum")
        return 2, 3 * g - 2 - 3 * d1 + dd - 2 * dL, [(_PLUS, index), (_TWIST, index)]
    if ranks == (1, 1, 1):
        d1, d2 = t.degs[0], t.degs[1]
        i1 = -d1 + d2 - dL
        i2 = d - d1 - 2 * d2 - dL
        if i1 < 0 or i2 < 0 or 3 * d1 <= d or 3 * (d1 + d2) <= 2 * d:
            raise EmptyStratum(f"(1,1,1) stratum empty at degrees {t.degs}")
        return 1, g + i1 + i2, [(_CURVE, i1), (_CURVE, i2)]
    raise InvalidSpec(f"unsupported stratum shape {ranks}")


def _cut(env: AtomEnvironment, key, order: int, build) -> TruncatedSeries:
    """A fresh copy, to x^order, of the series the environment's cache
    holds under key; build(n) makes it to x^n, n the largest order read so
    far.  The copy's order is the caller's, so no later work depends on
    which queries ran before."""
    s = env.cache.get(key)
    if s is None or s.order < order:
        s = env.cache[key] = build(order)
    return TruncatedSeries(s.coeffs, order=order)


def _lambda_tables(env: AtomEnvironment,
                   reads: List[Tuple[str, int]]) -> Dict[str, TruncatedSeries]:
    """One lambda series per class read, to the largest index read, cached
    under the class's name, as the numerators N of :func:`lambda_series`:
    with L = n / d, x^k of [X] is N_k over P d^k, and of [X] + L^2 and
    [X]*L + 1 over P d^(2k)."""
    top: Dict[str, int] = {}
    for name, n in reads:
        top[name] = max(top.get(name, 0), n)
    L = env.lefschetz  # a shape's L * L is made only when its table is built
    return {name: _cut(env, name, n, lambda order: lambda_series(
                env, L if name == _TWIST else 1, (1, L) if name == _CURVE else (1, L, L * L),
                order))
            for name, n in top.items()}


def vhs_class(env: AtomEnvironment, t: VHSType, reads: List[Tuple[str, int]],
              tables: Dict[str, TruncatedSeries]):
    """(c, b): the class of a stratum of class jac^k * c (:func:`_stratum_facts`)
    and total rank r has c / (P^(r-k) d^b) as its c, L = n / d, with its
    lambda-powers read from ``tables`` (:func:`_lambda_tables`) at the
    stratum's ``reads``.  A bundle stratum's degree is checked coprime to
    its rank, and its class built once per environment and rank."""
    if len(t.ranks) == 1:
        r = t.ranks[0]
        if r == 1:
            return jacobian_numerator(env), 0
        if math.gcd(r, t.total_deg) != 1:
            raise InvalidSpec(f"gcd({r}, {t.total_deg}) != 1")
        return env.cached(("bundle", r), lambda: _bundle_class(env, r))
    lam = [tables[name].coeff(n) for name, n in reads]
    if t.ranks == (1, 1):
        return lam[0], reads[0][1]
    if t.ranks == (1, 1, 1):
        return lam[0] * lam[1], reads[0][1] + reads[1][1]
    d1, dd = _vhs12_degrees(t)
    n, d = _lifted(env.lefschetz)
    e = 2 * (dd // 3) - dd + d1 + env.genus + 1
    # L^e lam+ - lam_tw over (L - 1) = (n - d) / d; e >= g.  Dividing this
    # cofactor, not cofactor * jac^2, fails in the same cases: hodge
    # L - 1 = uv - 1 is prime in Z[u^+-1, v^+-1] and does not divide
    # jac = (1-u)^g (1-v)^g; a weil n - d is checked on the ints.
    return exact_divide(n ** e * lam[0] - _up(lam[1], d, e), n - d), 2 * reads[0][1] + e - 1


# ---------------------------------------------------------------------------
# full motivic classes, ranks 1..3
# ---------------------------------------------------------------------------

def strata_for(spec: ModuliSpec) -> List[VHSType]:
    """All nonempty strata of the decomposition, in a fixed order."""
    d, dL = spec.d, spec.dL
    if spec.r == 1:
        return [VHSType((1,), (d,))]
    if spec.r == 2:
        out = [VHSType((2,), (d,))]
        for d1 in range(d // 2 + 1, (d - dL) // 2 + 1):
            out.append(VHSType((1, 1), (d1, d - d1)))
        return out
    out = [VHSType((3,), (d,))]
    for d1 in range(d // 3 + 1, (2 * d - 3 * dL) // 6 + 1):
        out.append(VHSType((1, 2), (d1, d - d1)))
    for d1 in range((2 * d) // 3 + 1, (4 * d - 3 * dL) // 6 + 1):
        out.append(VHSType((2, 1), (d1, d - d1)))
    for d1, d2 in triple_stratum_degrees(d, dL):
        out.append(VHSType((1, 1, 1), (d1, d2, d - d1 - d2)))
    return out


@lru_cache(maxsize=256)
def _strata_plan(g: int, r: int, d: int, dL: int) -> tuple:
    """The part of :func:`motive` no environment changes, for the valid
    spec (g, r, d, dL): (tops, n_plus, single, triples), where

    - tops holds (class, top lambda index) per class read;
    - n_plus holds, at index k, the one N+ of the strata of class jac^k * c
      (:func:`_stratum_facts`);
    - single holds (k, stratum, reads) per bundle, (1,1), (1,2) and (2,1)
      stratum, each evaluated on its own;
    - triples holds one (i1, lo, hi) per first read ([X], i1) of the
      (1,1,1) strata: the strata of that first read read [X] at lo, lo + 3,
      ..., hi, since i2 = d - 3 d1 - 2 i1 - 3 dL.

    Raises :class:`StrataPlanError` when two strata of one k have different
    N+, or when the second reads of one first read are not one stride-3
    progression.
    """
    spec = ModuliSpec(g, r, d, dL)
    tops: Dict[str, int] = {}
    n_plus: Dict[int, int] = {}
    single = []
    seconds: Dict[int, List[int]] = {}
    for t in strata_for(spec):
        k, _, reads = _stratum_facts(t, g, dL)
        for name, n in reads:
            tops[name] = max(tops.get(name, 0), n)
        exponent = bb_exponent(t, spec)
        if n_plus.setdefault(k, exponent) != exponent:
            raise StrataPlanError(f"strata of k = {k} (class jac^k * c) have N+ = {n_plus[k]} "
                                  f"and {exponent} (stratum ranks {t.ranks}, degrees {t.degs})")
        if t.ranks == (1, 1, 1):
            seconds.setdefault(reads[0][1], []).append(reads[1][1])
        else:
            single.append((k, t, reads))
    for i1, s in seconds.items():
        if sorted(s) != list(range(min(s), max(s) + 1, 3)):
            raise StrataPlanError(f"(1,1,1) strata with first read {i1} read [X] at "
                                  f"{sorted(s)}, not one stride-3 progression")
    return (tuple(tops.items()), tuple(n_plus[k] for k in range(len(n_plus))), tuple(single),
            tuple((i1, min(s), max(s)) for i1, s in seconds.items()))


def motive(env: AtomEnvironment, spec: ModuliSpec):
    """[M(r, d)] in the realization: sum over strata of L^(N+) [VHS].

    The strata come from :func:`_strata_plan`, with a stratum class jac^k * c
    (:func:`vhs_class`) and one N+ per k.  One lambda series is built per
    class read, to its top index.  With L = n / d, every value is the
    lift's numerator over P^a d^b, kept as (num, b): a sum lifts the
    smaller b by a power of d (:func:`_add`), and L^(N+) multiplies num by
    n^(N+) and adds N+ to b.  S_k, the sum of the c of the strata of one k,
    is built as follows.

    - Bundle, (1,1), (1,2) and (2,1) strata are evaluated one at a time, so
      the exact division of each (1,2) cofactor is checked per stratum; a
      NotDivisible or ZeroDivisionError there is re-raised naming the
      stratum's ranks and degrees.
    - The (1,1,1) strata read [X] = sum X_i x^i, X_i over P d^i: with
      partial sums Q_i = X_i + d^3 Q_(i-3), those of first read i1 sum to
      X_i1 * (Q_hi - d^(hi - lo + 3) Q_(lo-3)), over P^2 d^(i1 + hi).

    Each S_k is multiplied once by L^(N+), and the total,
    S_0 + jac * (S_1 + jac * S_2), is over P^r: one Fraction on a weil
    environment (:func:`_over_scale`).  On hodge P = d = 1, nothing is
    rescaled and the total is the value.
    """
    if env.genus != spec.g:
        raise InvalidSpec("environment genus differs from spec genus")
    tops, n_plus, single, triples = _strata_plan(spec.g, spec.r, spec.d, spec.dL)
    tables = _lambda_tables(env, tops)
    n, d = _lifted(env.lefschetz)
    sums = [(0, 0)] * len(n_plus)
    for k, t, reads in single:
        try:
            sums[k] = _add(sums[k], vhs_class(env, t, reads, tables), d)
        except (NotDivisible, ZeroDivisionError) as exc:
            raise type(exc)(f"{exc} [stratum ranks {t.ranks}, degrees {t.degs}]") from exc
    if triples:
        xs = tables[_CURVE]
        partial = [0, 0, 0]  # partial[i + 3] = Q_i, over P d^i
        for x in xs.coeffs:
            partial.append(_up(partial[-3], d, 3) + x)
        for i1, lo, hi in triples:
            group = xs.coeff(i1) * (partial[hi + 3] - _up(partial[lo], d, hi + 3 - lo))
            sums[1] = _add(sums[1], (group, i1 + hi), d)
    jac = jacobian_numerator(env)
    s, b = sums[-1]
    total, top = n ** n_plus[-1] * s, b + n_plus[-1]
    for k in range(len(n_plus) - 2, -1, -1):
        s, b = sums[k]
        total, top = _add((n ** n_plus[k] * s, b + n_plus[k]), (jac * total, top), d)
    return _over_scale(env, spec.r, total, top)


# ---------------------------------------------------------------------------
# E-polynomials via coefficient extraction (closed forms)
# ---------------------------------------------------------------------------

def _zeta_series(env: AtomEnvironment, order: int) -> TruncatedSeries:
    """A(x) = h1(x) / ((1 - x)(1 - L x)) = sum_i X_i x^i to x^order, the
    series every closed-form extraction reads (L = uv in the hodge
    environment), from the environment's cache (:func:`_cut`)."""
    return _cut(env, "zeta", order, lambda n: h1_series(env, n).over_geometric(1, 1)
                .over_geometric(env.lefschetz, 1))


def epoly_rank1(spec: ModuliSpec) -> UVLaurent:
    """E-polynomial of the rank-1 moduli, exact in u, v."""
    if spec.r != 1:
        raise InvalidSpec("epoly_rank1 needs r = 1")
    g, dL = spec.g, spec.dL
    env = make_hodge_env(g)
    return UV ** (1 - dL - g) * jacobian_class(env)


def epoly_rank2(spec: ModuliSpec) -> UVLaurent:
    """E-polynomial of the rank-2 moduli (d odd), exact in u, v."""
    if spec.r != 2:
        raise InvalidSpec("epoly_rank2 needs r = 2")
    g, dL = spec.g, spec.dL
    env = make_hodge_env(g)
    jac = jacobian_class(env)
    em2 = bundle_moduli_class(env, 2, 1)
    # coeff_{x^0} of x^(dL+1) A(x) / (1 - x^2)
    n = -(dL + 1)
    extraction = _zeta_series(env, n).over_geometric(1, 2).coeff(n)
    return UV ** (-4 * dL + 4 - 4 * g) * em2 + UV ** (-3 * dL + 2 - 2 * g) * jac * extraction


def _rank3_single_extractions(env: AtomEnvironment, dL: int) -> Tuple[UVLaurent, UVLaurent, UVLaurent, UVLaurent]:
    """coeff_{x^0} of x^(dL+2) and x^(dL+1) times A(x) over the "plus" and
    the "twist" denominators: s1, s3 from the first product at x^(n-1) and
    x^n, s2, s4 from the second, with n = -(dL + 1)."""
    n = -(dL + 1)
    a = _zeta_series(env, n)
    plus = a.over_geometric(UV * UV, 1).over_geometric(UV, 2)
    # 1/(uv - x) = (uv)^-1 / (1 - x/uv); 1/((uv)^2 - x^2) likewise in x^2
    twist = a.over_geometric(UV ** -1, 1).over_geometric(UV ** -2, 2)
    scale = UV ** -3
    return plus.coeff(n - 1), twist.coeff(n - 1) * scale, plus.coeff(n), twist.coeff(n) * scale


def _rank3_double_extraction(env: AtomEnvironment, dL: int) -> UVLaurent:
    """coeff_{x^0 y^0} of the (1,1,1) generating kernel.

    The generating function is N(x, y) A(x) A(y) / ((x - y^2)(y - x^2)),
    with N a four-term integer numerator and
    A(x) = h1(x) / ((1 - x)(1 - uv x)) = sum_i X_i x^i.  The integer kernel
    K = N / ((x - y^2)(y - x^2)) is expanded as a :class:`BiSeries`; its
    total degree is bounded below by min_level(N) - 2, so only
    i + j <= cap := 2 - min_level(N) contributes, and

        coeff_{x^0 y^0} = sum_j X_j * (sum_i K[-i, -j] * X_i).

    The inner sums only add integer multiples of the X_i; the outer sum
    takes at most cap + 1 products of ``UVLaurent`` values.
    """
    numerator = {
        (2, 1): 1,
        (-dL + 2, 2 * dL + 1): -1,
        (2 * dL + 2, -dL + 1): -1,
        (dL + 2, dL + 1): 1,
    }
    factors_min = [min(i + j for i, j in numerator), -1, -1]
    total_min = sum(factors_min)
    # the cap of each kernel factor leaves the kernel complete up to level
    # 0, the highest level the x^0 y^0 coefficient reads
    caps = [m - total_min for m in factors_min]
    kernel = (BiSeries.from_monomials(numerator, caps[0])
              * BiSeries.inv_x_minus_y2(caps[1])
              * BiSeries.inv_y_minus_x2(caps[2]))
    cap = -total_min
    xs = _zeta_series(env, cap)
    total = 0
    for j in range(cap + 1):
        inner = 0
        for i in range(cap + 1 - j):
            k = kernel.coeff(-i, -j)
            if k:
                inner = inner + k * xs.coeff(i)
        total = total + xs.coeff(j) * inner
    return total


def epoly_rank3(spec: ModuliSpec) -> UVLaurent:
    """E-polynomial of the rank-3 moduli (gcd(3, d) = 1), exact in u, v."""
    if spec.r != 3:
        raise InvalidSpec("epoly_rank3 needs r = 3")
    g, dL = spec.g, spec.dL
    env = make_hodge_env(g)
    jac = jacobian_class(env)
    em3 = bundle_moduli_class(env, 3, 1)
    s1, s2, s3, s4 = _rank3_single_extractions(env, dL)
    d5 = _rank3_double_extraction(env, dL)
    pref = jac * jac  # (1-u)^2g (1-v)^2g

    pair_a = pref * (UV ** (-7 * dL + 6 - 4 * g) * s1 - UV ** (-8 * dL + 6 - 5 * g) * s2)
    pair_b = pref * (UV ** (-7 * dL + 5 - 4 * g) * s3 - UV ** (-8 * dL + 7 - 5 * g) * s4)
    uv_minus_1 = UV - 1
    return (
        UV ** (-9 * dL + 9 - 9 * g) * em3
        + exact_divide(pair_a, uv_minus_1)
        + exact_divide(pair_b, uv_minus_1)
        + jac * UV ** (-6 * dL + 3 - 3 * g) * d5
    )


def epoly(spec: ModuliSpec) -> UVLaurent:
    if spec.r == 1:
        return epoly_rank1(spec)
    if spec.r == 2:
        return epoly_rank2(spec)
    return epoly_rank3(spec)


# ---------------------------------------------------------------------------
# Betti numbers
# ---------------------------------------------------------------------------

def poincare(e: UVLaurent) -> List[int]:
    """Betti numbers of a variety with pure cohomology, from its E-polynomial.

    The compactly supported polynomial E(-t, -t) = sum b_k^c t^k is read
    backwards through Poincare duality (b_k = b^c_{2D - k}, D = dim), so the
    returned list starts with b_0.  The coefficients are ints, as every
    ``UVLaurent``'s are, and must be nonnegative; a negative one means the
    input was not the E-polynomial of a smooth variety with pure structure.
    """
    diag: Dict[int, int] = {}
    for (a, b), c in e.items():
        k = a + b
        diag[k] = diag.get(k, 0) + (-c if k & 1 else c)
    diag = {k: c for k, c in diag.items() if c != 0}
    if not diag:
        raise NegativeBetti("zero E-polynomial has no Betti numbers")
    top = max(diag)
    out: List[int] = []
    for k in range(top + 1):
        bk = diag.get(top - k, 0)
        if bk < 0:
            raise NegativeBetti(f"negative Betti coefficient b_{k} = {bk}")
        out.append(bk)
    while out and out[-1] == 0:
        out.pop()
    return out
