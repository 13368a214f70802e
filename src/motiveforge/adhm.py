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
contribute.  The final class is

    (-1)^(p r) L^(r^2 (g-1) + p r (r+1) / 2) H_r(1).

One carrier runs the double sum for both realizations: H_r(1) is all
that is needed, so every term is a power series in s = t - 1 known
through s^(r-1).  The T^n coefficient is weighted by s^n (T -> sT); the
logarithm's T^m coefficient is weighted-homogeneous of degree m, so the
weight carries through it.  :func:`partition_sum` gives s^(jn) psi_j F_n,
whose pole of order at most n at t = 1 the weight absorbs;
:func:`plog_series` gives s^(m-1) H_m; and
:func:`motiveforge.series_engine.eval_at_one` reads H_r(1) off its
s^(r-1) coefficient.  The terms' cells and denominator factors come from one
builder, :func:`_partition_terms`, which also runs the pole check.  Each
partition is expanded only to the coefficients its shift keeps, and its
quotient by one recurrence in the coefficient ring, so the realizations
differ only in how each coefficient is divided, once: weil scales by powers
of D, the lcm of the atom denominators, runs on ints and makes one Fraction
per coefficient; hodge keeps the integer part of the denominator as the
scale of a :class:`motiveforge.series_engine.TRational` and its factors
(1 - L^k) unexpanded, and divides by both once, at t = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Tuple

from .curve_ring import AtomEnvironment, frobenius
from .series_engine import PoleAtOne, TRational, TruncatedSeries, eval_at_one, series_log


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


def _partition_terms(env: AtomEnvironment, n: int, p: int, D: int = 1, j=None):
    """Per partition of n, after its pole check: its cells' terms and
    denominator factors over the scale D, as ``(cells, den, kn, kd)``.

    Over D, l = D L and E_i = D^i e_i.  A cell of arm a, leg l and hook h
    gives the dict {x + h i: sign (l^a)^(p+i) E_i D^((a+1)(2g-i))}, x its
    base t-exponent, so each weight is D^(a p + (a+1) 2g) times its value.
    Its denominator factors u - c t^h, as triples (u, c, h), are
    D^a (1 - L^a t^h) and D^(a+1) (1 - L^(a+1) t^h).  kn and kd count the
    powers of D in a partition's numerator and denominator products.
    D = 1 keeps the environment's values (hodge, and the test reference);
    a larger D must clear every atom denominator, and then l, the atoms
    D b_k, their lambda values E_i and every value above are ints.

    Only the zero-arm cells' factors with u = c = 1 may vanish at t = 1;
    any other raises PoleAtOne, naming the Adams index j when one is given.
    """
    if n < 1:
        raise ValueError("charge must be >= 1")
    if p < 1:
        raise ValueError("p must be >= 1")
    if D != 1:
        env = replace(env, lefschetz=env.lefschetz.numerator * (D // env.lefschetz.denominator),
                      betas=tuple(b.numerator * (D // b.denominator) for b in env.betas))
    g = env.genus
    sign = (-1) ** p
    e = env.lambda_values
    top = len(e) - 1
    ell = env.lefschetz
    aligned = [e] * n if D == 1 else [
        [E_i * D ** ((a + 1) * (top - i)) for i, E_i in enumerate(e)] for a in range(n)]
    for lam in partitions(n):
        cells: List[Dict[int, object]] = []
        den: List[Tuple[object, object, int]] = []
        kn = kd = poles = zero_arm_cells = 0
        for a, l, h in lam.cell_data():
            la = ell ** a
            base_exp = p * (a - l) + (1 - g) * (2 * l + 1)
            # the cell coefficient times the zeta numerator
            # prod_k (1 + b_k L^a t^h) = sum_i e_i (L^a)^i t^(h i)
            coeff = sign * la ** p
            cell: Dict[int, object] = {}
            for i, E_i in enumerate(aligned[a]):
                w = coeff * E_i
                if w:
                    cell[base_exp + h * i] = w
                coeff = coeff * la
            cells.append(cell)
            for u, c in ((D ** a, la), (D ** (a + 1), la * ell)):
                den.append((u, c, h))
                poles += c == u
            kn += a * p + (a + 1) * top
            kd += 2 * a + 1
            zero_arm_cells += a == 0
        if poles != zero_arm_cells:
            adams = "" if j is None else f", Adams index j={j}"
            raise PoleAtOne(
                f"charge {n}, partition {lam.parts}{adams}: {poles} denominator factors "
                f"vanish at t = 1, but only its {zero_arm_cells} zero-arm cells may"
            )
        yield cells, den, kn, kd


def _connected(env: AtomEnvironment, r: int, charge, zero) -> List:
    """The Moebius / Adams double sum sum_j mu(j)/j psi_j log(1 + sum_n F_n T^n),
    truncated at T-order r: its T^1 .. T^r coefficients.

    ``charge(fenv, n, j)`` is psi_j of the charge-n term F_n, built from the
    j-th Frobenius environment ``fenv``; ``zero`` is the carrier's zero.
    psi_j F_n sits at T^(j n), so the logarithm is taken in U = T^j, to
    U^(r // j); its U^k coefficient is the T^(j k) one.
    """
    if r < 1:
        raise ValueError("rank must be >= 1")
    acc = [zero] * (r + 1)
    for j in range(1, r + 1):
        mu = mobius(j)
        if mu == 0:
            continue
        fenv = frobenius(env, j)
        top = r // j
        logs = series_log(TruncatedSeries(
            [1] + [charge(fenv, n, j) for n in range(1, top + 1)], order=top))
        weight = Fraction(mu, j)
        for k in range(1, top + 1):
            acc[j * k] = acc[j * k] + logs.coeff(k) * weight
    return acc[1:]


def _binomials(e: int, count: int) -> List[int]:
    """C(e, 0) .. C(e, count - 1) for any integer e: (1 + s)^e to s^(count-1)."""
    out = [1]
    for k in range(1, count):
        out.append(out[-1] * (e - k + 1) // k)
    return out


def partition_sum(env: AtomEnvironment, n: int, p: int, j: int, terms: int) -> TruncatedSeries:
    """s^(j n) psi_j F_n: psi_j of the charge-n term F_n, expanded at
    t = 1 + s and weighted by s^(T-degree), from the j-th Frobenius
    environment, to s^(terms - 1).

    psi_j is t -> t^j on top of the Frobenius environment, which only scales
    every t-exponent by j.  A cell's numerator sum_i w_i t^(j x_i) is
    sum_k (sum_i w_i C(j x_i, k)) s^k, and a denominator factor
    u - c t^(j h) is (u - c) - c sum_k C(j h, k) s^k, divided by s when
    c == u.  A partition with ``poles`` such factors is s^(-poles) times a
    power series, so its weighted term is that series shifted by
    j n - poles >= 0 (at most n poles, checked in :func:`_partition_terms`);
    only its first terms - (j n - poles) coefficients are built, and none
    when that is not positive.  With P_0 the constant term of the
    denominator series, the quotient num / den is sum_k Q_k / P_0^(k+1) s^k,
    where Q_k = num_k P_0^k - sum_{i=1..k} den_i Q_(k-i) P_0^(i-1) stays in
    the coefficient ring; each coefficient is divided once:

    * weil: the terms come from :func:`_partition_terms` over D, the lcm of
      the atom denominators, so the Q_k are ints; each becomes one
      Fraction, over P_0^(k+1) D^(kn - kd);
    * hodge: D = 1, u = 1 and every c of a factor without a pole is a power
      of L, so P_0 = prod_poles(-j h) prod (1 - c), and Q_k / P_0^(k+1) is
      the :class:`TRational` Q_k over the integer scale prod_poles(-j h)^(k+1)
      and k + 1 copies of the constants c.
    """
    weil = env.base == "weil"
    D = math.lcm(*(x.denominator for x in (env.lefschetz,) + env.betas)) if weil else 1
    total = TruncatedSeries([], order=terms - 1)
    for cells, den, kn, kd in _partition_terms(env, n, p, D, j):
        shift = j * n - sum(c == u for u, c, _ in den)
        need = terms - shift
        if need <= 0:
            continue
        num = dens = TruncatedSeries([1], order=need - 1)
        for cell in cells:
            series = [0] * need
            for x, w in cell.items():
                for k, b in enumerate(_binomials(j * x, need)):
                    series[k] = w * b + series[k]
            num = num * TruncatedSeries(series, order=need - 1)
        pole_scale, constants = 1, []
        for u, c, h in den:
            b = _binomials(j * h, need + 1)
            if c == u:
                pole_scale *= -j * h
                factor = [-c * x for x in b[1:]]
            else:
                constants.append(c)
                factor = [u - c] + [-c * x for x in b[1:need]]
            dens = dens * TruncatedSeries(factor, order=need - 1)
        p0 = dens.coeffs[0]
        powers = [1]
        for _ in range(1, need):
            powers.append(powers[-1] * p0)
        q: List = []
        for k in range(need):
            acc = num.coeffs[k] * powers[k]
            for i in range(1, k + 1):
                acc = acc - dens.coeffs[i] * q[k - i] * powers[i - 1]
            q.append(acc)
        if weil:
            coeffs = [Fraction(x, powers[k] * p0 * D ** (kn - kd)) for k, x in enumerate(q)]
        else:
            coeffs = [TRational(x, constants * (k + 1), pole_scale ** (k + 1))
                      for k, x in enumerate(q)]
        total = total + TruncatedSeries([0] * shift + coeffs, order=terms - 1)
    return total


def plog_series(env: AtomEnvironment, r: int, p: int) -> List[TruncatedSeries]:
    """h_1 .. h_r, h_m = s^(m-1) H_m, with H_m the plethystic-log
    coefficients cleared by (1-t)(1-Lt), as power series in s = t - 1.

    The charge terms enter weighted by s^(T-degree) (:func:`partition_sum`),
    so the Moebius sum's T^m coefficient is s^m times its value.  Clearing
    by (1-t)(1-Lt) = s ((L-1) + L s) is then a product with (L-1) + L s.
    Every series is known through s^(r-1).
    """
    clearing = TruncatedSeries([env.lefschetz - 1, env.lefschetz], order=r - 1)
    return [acc * clearing for acc in _connected(
        env, r, lambda fenv, n, j: partition_sum(fenv, n, p, j, r),
        TruncatedSeries([], order=r - 1))]


def adhm_class(env: AtomEnvironment, r: int, p: int):
    """Conjectural class of the twisted moduli space of rank r, any coprime
    degree: (-1)^(p r) L^(r^2 (g-1) + p r (r+1)/2) H_r(1).

    H_r(1) is :func:`eval_at_one` of h_r = s^(r-1) H_r from
    :func:`plog_series`: H_r is a Laurent polynomial in t, so the
    coefficients of h_r below s^(r-1) vanish and its value is the s^(r-1)
    coefficient.  A weil environment gives a Fraction; a hodge one a
    UVLaurent, divided once by the product of its denominator factors
    (1 - L^k).
    """
    if r < 1 or p < 1:
        raise ValueError(f"adhm_class needs r, p >= 1, got r={r}, p={p}")
    g = env.genus
    value = eval_at_one(plog_series(env, r, p)[r - 1], r - 1)
    sign = (-1) ** (p * r)
    prefactor = env.lefschetz ** (r * r * (g - 1) + p * (r * (r + 1) // 2))
    return sign * prefactor * value
