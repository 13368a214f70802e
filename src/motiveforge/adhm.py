"""The motivic ADHM formula: partition hook sums, plethystic logarithm and
the conjectural class of the twisted moduli space.

For a twist of degree -(2g - 2 + p), p >= 1, the generating term of charge n
is a sum over partitions of n.  Each cell s of a partition contributes the
factor

    (-t^(a-l) L^a)^p * t^((1-g)(2l+1)) * Z(t^h L^a),

with a, l, h the arm, leg and hook of s, and Z the zeta series of the curve,
Z(x) = prod_k (1 + b_k x) / ((1 - x)(1 - L x)).  Each zeta factor therefore
adds the two denominator factors (1 - L^a t^h) and (1 - L^(a+1) t^h); the
first has constant 1 exactly when a = 0, and those are the only sources of
poles at t = 1 (checked at construction time).

The plethystic logarithm with Moebius weights and Adams operators turns the
T-series of these terms into the "connected" coefficients H_1(t) .. H_r(t).
Adams operators are realized by :func:`motiveforge.curve_ring.frobenius`
(atoms to j-th powers) combined with t -> t^j on the assembled term; the
double sum is truncated at T-order r, so only j <= r and k <= r
contribute; the class reads T^r alone, so only the j dividing r do.  The
final class is

    (-1)^(p r) L^(r^2 (g-1) + p r (r+1) / 2) H_r(1).

One carrier runs the double sum for both realizations: H_r(1) is all
that is needed, so every term is a power series in s = t - 1 known
through s^(r-1).  The T^n coefficient is weighted by s^n (T -> sT); the
logarithm's T^m coefficient is weighted-homogeneous of degree m, so the
weight carries through it.  :func:`partition_sum` gives s^(jn) psi_j
F_n, whose pole of order at most n at t = 1 the weight absorbs.
:func:`plog_series` takes the double sum and clears it to h_m = s^(m-1)
H_m at the T-orders its caller reads: r alone for :func:`adhm_class`,
where :func:`motiveforge.series_engine.eval_at_one` reads H_r(1) off the
s^(r-1) coefficient.  A partition's cells, shift and binomial rows are
built once per (n, p, g, j, terms), by a bounded memo keyed by ints only
(:func:`_skeleton`); each call adds the environment's pole check,
weights and products, read off the environment's cached integer lift
(:attr:`motiveforge.curve_ring.AtomEnvironment.lift`), one partition at
a time (:func:`_quotients`).  Every product of coefficient lists is
:func:`motiveforge.series_engine.truncated_product`, the package's one
truncated-product loop.  The logarithm returns k l_k, so the weight
mu(j)/j of the U^k coefficient l_k is mu(j)/m at T-order m = j k: hodge
makes one :class:`motiveforge.series_engine.TRational` per coefficient,
m joining its integer scale, divided at t = 1; weil sums the partitions
and takes the logarithm on ints over one integer scale per Adams index,
and makes one Fraction per s-coefficient of each Adams index it reads.

The class has no degree, so :func:`adhm_class` keeps H_r(1) in the
environment's cache (:meth:`motiveforge.curve_ring.AtomEnvironment.cached`)
per (r, p): the hodge environment of a genus builds it once per process,
and a weil environment, one per trial, once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from numbers import Rational
from operator import mul
from typing import Dict, List, Sequence, Tuple

from .curve_ring import AtomEnvironment, frobenius
from .series_engine import (PoleAtOne, TRational, TruncatedSeries, eval_at_one, series_log,
                            truncated_product)


@dataclass(frozen=True)
class Partition:
    """Decreasing positive parts with per-cell arm / leg / hook data."""

    parts: Tuple[int, ...]

    def __post_init__(self):
        if any(p <= 0 for p in self.parts):
            raise ValueError("partition parts must be positive")
        if any(self.parts[i] < self.parts[i + 1] for i in range(len(self.parts) - 1)):
            raise ValueError("partition parts must be decreasing")

    def conjugate_parts(self) -> Tuple[int, ...]:
        if not self.parts:
            return ()
        out = []
        for j in range(1, self.parts[0] + 1):
            out.append(sum(1 for p in self.parts if p >= j))
        return tuple(out)

    def cell_data(self) -> List[Tuple[int, int, int]]:
        """(arm, leg, hook) for every cell."""
        conj = self.conjugate_parts()
        out = []
        for i, p in enumerate(self.parts):
            for j in range(1, p + 1):
                a = p - j
                l = conj[j - 1] - i - 1
                out.append((a, l, a + l + 1))
        return out


def partitions(n: int) -> List[Partition]:
    """All partitions of n in reverse-lexicographic order, deterministically."""
    if n < 0:
        raise ValueError("partitions of a negative integer")
    out: List[Partition] = []
    acc: List[int] = []

    def rec(remaining: int, largest: int) -> None:
        if remaining == 0:
            out.append(Partition(tuple(acc)))
            return
        for part in range(min(remaining, largest), 0, -1):
            acc.append(part)
            rec(remaining - part, part)
            acc.pop()

    rec(n, n)
    return out


def mobius(j: int) -> int:
    """Moebius function via trial factorization (j stays tiny here)."""
    if j < 1:
        raise ValueError("mobius needs j >= 1")
    out = 1
    m = j
    f = 2
    while f * f <= m:
        if m % f == 0:
            m //= f
            if m % f == 0:
                return 0
            out = -out
        f += 1
    if m > 1:
        out = -out
    return out


def plog_series(env: AtomEnvironment, orders: Sequence[int], r: int, p: int) -> List:
    """h_m = s^(m-1) H_m to s^(r-1) per m in ``orders`` (each at least 1),
    H_m the plethystic-log coefficients cleared by (1-t)(1-Lt), as power
    series in s = t - 1.

    With the charge terms weighted by s^(T-degree), the T^m coefficient of
    sum_j mu(j)/j psi_j log(1 + sum_n F_n T^n) is s^m C_m, and
    H_m = (1-t)(1-Lt) C_m = s ((L-1) + L s) C_m, so h_m is it times (L-1) + L s.

    psi_j F_n (:func:`partition_sum`) sits at T^(j n), so the logarithm is
    taken in U = T^j to U^(top), top the largest m / j; an Adams index j
    dividing none of the orders adds nothing to them and is skipped.  Its
    U^k coefficient m_k = k l_k is weighted mu(j)/(j k): on hodge by
    TRational(mu(j), (), j k).

    On the weil route F_n comes as ints over its own scale (R_n, E_n),
    read from the environment's cache at the terms :func:`partition_sum`
    built it to, its order + 1; B_n = P d^(E_n) R_n.  Multiplying its s^i coefficient by
    (R / R_n)^(i + n) d^(n (E - E_n)) lifts it to one scale, R the lcm of
    the R_n and E the largest E_n, so the logarithm runs on ints in s / R
    and U / B, and m_k makes one Fraction per s^i coefficient,
    mu(j) m_k[i] / (j k R^i B^k).
    """
    if not orders or min(orders) < 1:
        raise ValueError("rank must be >= 1")
    weil = isinstance(env.lefschetz, Rational)
    zero = TruncatedSeries([], order=r - 1)
    acc = {m: zero for m in orders}
    for j in range(1, max(orders) + 1):
        mu = mobius(j)
        reads = [m // j for m in orders if m % j == 0]
        if mu == 0 or not reads:
            continue
        fenv = frobenius(env, j)
        top = max(reads)
        charges = [partition_sum(fenv, n, p, j, r) for n in range(1, top + 1)]
        if weil:
            terms = charges[0].order + 1
            scales = [fenv.cache[("scale", n, p, j, terms)] for n in range(1, top + 1)]
            R, E = math.lcm(*(s[0] for s in scales)), max(s[1] for s in scales)
            d = fenv.lefschetz.denominator
            for n, ((R_n, E_n), f) in enumerate(zip(scales, charges), 1):
                u, c = R // R_n, d ** (n * (E - E_n))
                charges[n - 1] = TruncatedSeries(
                    [x * c * u ** (i + n) for i, x in enumerate(f.coeffs)], order=f.order)
            B = fenv.lift[0] * d ** E * R
        logs = series_log(TruncatedSeries([1] + charges, order=top))
        for k in reads:
            term = logs.coeff(k)
            if weil:
                term = TruncatedSeries([Fraction(mu * x, j * k * B ** k * R ** i)
                                        for i, x in enumerate(term.coeffs)], order=term.order)
            else:
                term = term * TRational(mu, (), j * k)
            acc[j * k] = acc[j * k] + term
    clearing = TruncatedSeries([env.lefschetz - 1, env.lefschetz], order=r - 1)
    return [acc[m] * clearing for m in orders]


def _binomials(e: int, count: int) -> List[int]:
    """C(e, 0) .. C(e, count - 1) for any integer e: (1 + s)^e to s^(count-1)."""
    out = [1]
    for k in range(1, count):
        out.append(out[-1] * (e - k + 1) // k)
    return out


@lru_cache(maxsize=1024)
def _skeleton(n: int, p: int, g: int, j: int, terms: int) -> Tuple[tuple, ...]:
    """The part of :func:`partition_sum` no environment changes: per
    partition of n, (parts, arms of its cells, rest), rest None when its
    shift j n - (zero-arm cells) keeps no coefficient below s^terms, else
    (shift, cells, poles, factors, kscale) for the need = terms - shift
    kept: cells (a, cols) with cols[k] the C(j (x + h i), k), i = 0..2g;
    poles the product of the zero-arm cells' (1 - t^(j h)) / s; factors
    (m, C(j h, k) for k = 1..need - 1) for the others, d^m - n^m t^(j h)
    for L = n / d; kscale the power of d in the weights less that in the
    factors."""
    if n < 1:
        raise ValueError("charge must be >= 1")
    if p < 1:
        raise ValueError("p must be >= 1")
    out = []
    for lam in partitions(n):
        data = lam.cell_data()
        arms = tuple(a for a, _, _ in data)
        shift = j * n - arms.count(0)
        need = terms - shift
        if need <= 0:
            out.append((lam.parts, arms, None))
            continue
        cells, poles, factors = [], None, []
        for a, l, h in data:
            x = p * (a - l) + (1 - g) * (2 * l + 1)
            cells.append((a, tuple(zip(*(_binomials(j * (x + h * i), need)
                                         for i in range(2 * g + 1))))))
            row = _binomials(j * h, need + 1)
            if a:
                factors.append((a, tuple(row[1:need])))
            else:
                pole = [-b for b in row[1:]]
                poles = pole if poles is None else truncated_product(poles, pole, need)
            factors.append((a + 1, tuple(row[1:need])))
        kscale = sum(a * (p + 2 * g) - 2 * a - 1 for a in arms)
        out.append((lam.parts, arms, (shift, tuple(cells), tuple(poles), tuple(factors), kscale)))
    return tuple(out)


def _quotients(env: AtomEnvironment, n: int, p: int, j: int, terms: int):
    """The pole check of every partition of n, then, for each whose shift
    keeps a coefficient below s^terms, (shift, kscale, pole scale,
    constants c, P_0, Q_k): :func:`partition_sum`'s expansion of its term
    on plain lists from :func:`_skeleton`'s rows, for both realizations.

    psi_j is t -> t^j on top of the Frobenius environment.  A cell of arm a
    and hook h, x its base t-exponent, gives sum_i w_i t^(j (x + h i)),
    w_i = sign (L^a)^(p+i) e_i, that is sum_k (sum_i w_i C(j (x + h i), k)) s^k,
    and factors u - c t^(j h), c = L^a, L^(a+1), each
    (u - c) - c sum_k C(j h, k) s^k, over s when c == u.  Only the zero-arm
    cells' first factors may vanish at t = 1 (PoleAtOne names any other's
    charge, partition and j), so a partition's weighted term is a power
    series shifted by j n - (zero-arm cells).  With P_0 the denominator's
    constant term, num / den = sum_k Q_k / P_0^(k+1) s^k, where
    Q_k = num_k P_0^k - sum_{i=1..k} den_i Q_(k-i) P_0^(i-1) stays in the
    coefficient ring.  On the weil route, L an int or a Fraction n / d, the
    environment's lift gives P, the product of the atom denominators, and
    the ints F_i = P e_i; the weights of a cell get P d^(a (p + 2g)) and
    each factor is d^m - n^m t^(j h), so the Q_k are ints and the term's
    true coefficients are Q_k / (P_0^(k+1) P^n d^kscale).  On the hodge
    route P = d = 1 and P_0 = (pole scale) prod (1 - c).
    """
    L = env.lefschetz
    ell, d = (L.numerator, L.denominator) if isinstance(L, Rational) else (L, 1)
    e = env.lift[1]
    top = len(e) - 1
    units = [d ** m for m in range(n + 1)]
    ells = [ell ** m for m in range(n + 1)]
    vanish = [c == u for c, u in zip(ells, units)]
    weights: Dict[int, List] = {}
    for parts, arms, rest in _skeleton(n, p, env.genus, j, terms):
        poles, allowed = sum(vanish[a] + vanish[a + 1] for a in arms), arms.count(0)
        if poles != allowed:
            raise PoleAtOne(
                f"charge {n}, partition {parts}, Adams index j={j}: {poles} denominator "
                f"factors vanish at t = 1, but only its {allowed} zero-arm cells may")
        if rest is None:
            continue
        shift, cells, dens, factors, kscale = rest
        num = None
        for a, cols in cells:
            if a not in weights:
                coeff, weights[a] = (-1) ** p * ells[a] ** p, []
                for i, F_i in enumerate(e):
                    weights[a].append(coeff * F_i * d ** (a * (top - i)))
                    coeff = coeff * ells[a]
            series = [sum(map(mul, weights[a], col)) for col in cols]
            num = series if num is None else truncated_product(num, series, len(num))
        pole_scale = dens[0]
        for m, row in factors:
            c = ells[m]
            dens = truncated_product(dens, [units[m] - c] + [-c * b for b in row], len(dens))
        p0 = dens[0]
        powers = [1] + [p0 ** k for k in range(1, len(num))]
        q: List = []
        for k, x in enumerate(num):
            acc = x * powers[k]
            for i in range(1, k + 1):
                acc = acc - dens[i] * q[k - i] * powers[i - 1]
            q.append(acc)
        yield shift, kscale, pole_scale, [ells[m] for m, _ in factors], p0, q


def partition_sum(env: AtomEnvironment, n: int, p: int, j: int, terms: int) -> TruncatedSeries:
    """s^(j n) psi_j F_n: psi_j of the charge-n term F_n, expanded at
    t = 1 + s and weighted by s^(T-degree), from the j-th Frobenius
    environment, to s^(terms - 1), summed over the partitions of
    :func:`_quotients` by the route the environment's L selects:

    * weil, L an int or a Fraction: the ints Phi_n over the term's scale
      (R, E), R the lcm of the partitions' P_0 and E the least int >= 0
      with n E >= kscale for each, left in the environment's cache under
      ("scale", n, p, j, terms); the s^i coefficient of the term is
      Phi_n[i] / (R^i B^n) with B = P d^E R, so a partition adds
      Q_k d^(n E - kscale) (R / P_0)^(k+1) R^(shift + n - 1) at i = k + shift,
      a bare int: no Fraction is made here;
    * hodge, any other L (a UVLaurent): Q_k / P_0^(k+1) is the
      :class:`TRational` Q_k over the scale (pole scale)^(k+1) and k + 1
      copies of the c.
    """
    quotients = list(_quotients(env, n, p, j, terms))
    total: List = [0] * terms
    if isinstance(env.lefschetz, Rational):
        R = math.lcm(*(p0 for *_, p0, _ in quotients))
        E = max([0] + [-(-kscale // n) for _, kscale, *_ in quotients])
        env.cache[("scale", n, p, j, terms)] = R, E
        d = env.lefschetz.denominator
        for shift, kscale, _, _, p0, q in quotients:
            c, u = d ** (n * E - kscale) * R ** (shift + n - 1), R // p0
            for k, x in enumerate(q, shift):
                c *= u
                total[k] += x * c
    else:
        for shift, _, pole_scale, constants, _, q in quotients:
            for k, x in enumerate(q):
                coeff = TRational(x, constants * (k + 1), pole_scale ** (k + 1))
                total[k + shift] = total[k + shift] + coeff
    return TruncatedSeries(total, order=terms - 1)


def adhm_class(env: AtomEnvironment, r: int, p: int):
    """Conjectural class of the twisted moduli space of rank r, any coprime
    degree: (-1)^(p r) L^(r^2 (g-1) + p r (r+1)/2) H_r(1).

    H_r(1) is :func:`eval_at_one` of h_r = s^(r-1) H_r, the one series
    :func:`plog_series` builds at the T-order r: only the Adams indices
    dividing r enter.  H_r is a Laurent polynomial in t, so the coefficients
    of h_r below s^(r-1) vanish and its value is the s^(r-1) coefficient.  A
    weil environment gives a Fraction; a hodge one a UVLaurent, divided once
    by the product of its denominator factors (1 - L^k).

    No degree enters, so H_r(1) is read of the curve alone: it is kept in
    the environment's cache under ("adhm", r, p) and built once per
    environment, r and p, which for the hodge environment of a genus is
    once per (g, r, p) in a process.  The sign and prefactor are applied
    on every call, so each call returns a value of its own.
    """
    if r < 1 or p < 1:
        raise ValueError(f"adhm_class needs r, p >= 1, got r={r}, p={p}")
    g = env.genus
    value = env.cached(("adhm", r, p),
                       lambda: eval_at_one(plog_series(env, (r,), r, p)[0], r - 1))
    sign = (-1) ** (p * r)
    prefactor = env.lefschetz ** (r * r * (g - 1) + p * (r * (r + 1) // 2))
    return sign * prefactor * value
