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
(atoms to j-th powers) combined with t -> t^j on the assembled rational
function; the double sum is truncated at T-order r, so only j <= r and
k <= r contribute.  The final class is

    (-1)^(p r) L^(r^2 (g-1) + p r (r+1) / 2) H_r(1),

evaluated exactly with :func:`motiveforge.series_engine.eval_at_one`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Tuple

from .base_rings import DContext, DFraction
from .curve_ring import AtomEnvironment, frobenius
from .series_engine import (
    PoleAtOne,
    TRational,
    TruncatedSeries,
    _is_zero,
    _tp_mul,
    eval_at_one,
    series_log,
    substitute_t_power,
)


@dataclass(frozen=True)
class Partition:
    """Decreasing positive parts with per-cell arm / leg / hook data."""

    parts: Tuple[int, ...]

    def __post_init__(self):
        if any(p <= 0 for p in self.parts):
            raise ValueError("partition parts must be positive")
        if any(self.parts[i] < self.parts[i + 1] for i in range(len(self.parts) - 1)):
            raise ValueError("partition parts must be decreasing")

    @property
    def size(self) -> int:
        return sum(self.parts)

    def conjugate_parts(self) -> Tuple[int, ...]:
        if not self.parts:
            return ()
        out = []
        for j in range(1, self.parts[0] + 1):
            out.append(sum(1 for p in self.parts if p >= j))
        return tuple(out)

    def cells(self) -> List[Tuple[int, int]]:
        """All cells (i, j), 1-based, with 1 <= j <= parts[i-1]."""
        return [(i + 1, j + 1) for i, p in enumerate(self.parts) for j in range(p)]

    def arm(self, i: int, j: int) -> int:
        return self.parts[i - 1] - j

    def leg(self, i: int, j: int) -> int:
        return self.conjugate_parts()[j - 1] - i

    def hook(self, i: int, j: int) -> int:
        return self.arm(i, j) + self.leg(i, j) + 1

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


def partition_sum(env: AtomEnvironment, n: int, p: int) -> TRational:
    """Charge-n generating term: the hook-weighted zeta sum over partitions."""
    if n < 1:
        raise ValueError("charge must be >= 1")
    if p < 1:
        raise ValueError("p must be >= 1")
    g = env.genus
    L = env.lefschetz
    sign = (-1) ** p
    e = env.lambda_values
    total = TRational.from_scalar(0)
    for lam in partitions(n):
        num: Dict[int, object] = {0: 1}
        den: List[Tuple[object, int]] = []
        zero_arm_cells = 0
        for a, l, h in lam.cell_data():
            la = L ** a
            base_exp = p * (a - l) + (1 - g) * (2 * l + 1)
            # the cell coefficient times the zeta numerator
            # prod_k (1 + b_k L^a t^h) = sum_i e_i (L^a)^i t^(h i)
            coeff = sign * la ** p
            cell_num: Dict[int, object] = {}
            for i, e_i in enumerate(e):
                c = coeff * e_i
                if not _is_zero(c):
                    cell_num[base_exp + h * i] = c
                coeff = coeff * la
            num = _tp_mul(num, cell_num)
            den.append((la, h))
            den.append((la * L, h))
            if a == 0:
                zero_arm_cells += 1
        pole_factors = sum(1 for c, _ in den if c == 1)
        if pole_factors != zero_arm_cells:
            raise PoleAtOne(
                f"partition {lam.parts}: {pole_factors} denominator factors vanish "
                f"at t = 1, but only its {zero_arm_cells} zero-arm cells may"
            )
        total = total + TRational(num, den, reduce=False)
    return total


def plog_series(env: AtomEnvironment, r: int, p: int) -> List[TRational]:
    """H_1(t) .. H_r(t): plethystic-log coefficients cleared by (1-t)(1-Lt).

    Implements the fully expanded Moebius / Adams double sum, truncated at
    T-order r.  Rational scalars mu(j)/(j k) are carried exactly.  TRational
    sums and products cancel nothing, so each H_n is reduced once, by one
    explicit TRational construction after clearing (1-t)(1-Lt); for honest
    inputs that leaves an actual Laurent polynomial in t.
    """
    if r < 1:
        raise ValueError("rank must be >= 1")
    zero = TRational.from_scalar(0)
    acc: List[TRational] = [zero] * (r + 1)
    for j in range(1, r + 1):
        mu = mobius(j)
        if mu == 0:
            continue
        fenv = frobenius(env, j)
        coeffs: List[object] = [1] + [zero] * r
        for n in range(1, r // j + 1):
            coeffs[j * n] = substitute_t_power(partition_sum(fenv, n, p), j)
        logs = series_log(TruncatedSeries(coeffs, order=r))
        weight = Fraction(mu, j)
        for m in range(1, r + 1):
            term = logs.coeff(m)
            if isinstance(term, TRational):
                acc[m] = acc[m] + term * weight
            elif term != 0:
                acc[m] = acc[m] + TRational.from_scalar(term * weight)
    L = env.lefschetz
    out: List[TRational] = []
    for m in range(1, r + 1):
        h = acc[m].mul_poly_factor(1, 1).mul_poly_factor(L, 1)
        h = TRational(h.num, h.den)  # the one reduction of the pipeline
        out.append(h)
    return out


def _over_one_base(env: AtomEnvironment, r: int) -> AtomEnvironment:
    """The weil environment with every atom a DFraction over one base D.

    D is the lcm of the atom denominators times r!, so that the Moebius
    weights mu(j)/j and series_log's k/n, j, n <= r, are DFractions too.
    """
    atoms = (env.lefschetz,) + env.betas
    den = math.lcm(*(a.denominator for a in atoms))
    ctx = DContext(den * math.factorial(r))
    return replace(env, lefschetz=ctx.lift(env.lefschetz),
                   betas=tuple(ctx.lift(b) for b in env.betas))


def adhm_class(env: AtomEnvironment, r: int, p: int):
    """Conjectural class of the twisted moduli space of rank r, any coprime
    degree: (-1)^(p r) L^(r^2 (g-1) + p r (r+1)/2) H_r(1).

    A weil environment is evaluated with DFraction scalars over one base D
    and its value returned as a Fraction.
    """
    g = env.genus
    work = _over_one_base(env, r) if env.base == "weil" else env
    value = eval_at_one(plog_series(work, r, p)[r - 1])
    if isinstance(value, DFraction):
        value = value.fraction()
    sign = (-1) ** (p * r)
    prefactor = env.lefschetz ** (r * r * (g - 1) + p * (r * (r + 1) // 2))
    return sign * prefactor * value
