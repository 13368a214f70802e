"""Atom environments and split-class lambda operations for a genus-g curve.

The class of the curve splits as [X] = 1 + h1 + L where L is the Lefschetz
class and h1 is the weight-one part.  Both realizations implemented here
present h1 as a sum of 2g "atoms" b_1 .. b_2g paired so that
b_i * b_{g+i} = L:

* hodge: atoms are the monomials -u (g copies) and -v (g copies), L = u*v.
  Evaluating a class here yields its E-polynomial.
* weil: atoms are deterministic pseudo-random rationals with b_{g+i} = L/b_i.
  Evaluating a class here is a Schwartz-Zippel style specialization used for
  randomized identity testing.

Lambda operations are only defined on :class:`SplitClass` values, i.e. on
multisets of monomial line elements, each tagged geometric (its lambda
series is 1/(1 - l*x)) or finite (series 1 + l*x).  Every class appearing
in the moduli formulas ([X], [X] + L^2, [X]*L + 1) is of this shape, so the
general plethysm machinery of special lambda-rings is never needed.

The elementary symmetric values e_0 .. e_2g of the atoms, the coefficients
of h1(x) = prod_k (1 + b_k x), are computed once per environment
(:attr:`AtomEnvironment.lambda_values`); every expansion of h1 reads them.

Adams operators act on this model by raising atoms to j-th powers
(:func:`frobenius`); the accompanying substitution t -> t^j on series is
applied by callers, because once an expression has been evaluated to a ring
element the operator is no longer recoverable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import List, Tuple

from .base_rings import UV, U, V
from .series_engine import TruncatedSeries

GEOMETRIC = "geometric"
FINITE = "finite"


class InvalidGenus(ValueError):
    """Atom environments need genus at least 2."""


@dataclass(frozen=True)
class AtomEnvironment:
    """Root atoms of the curve class in a chosen exact base ring.

    betas hold the 2g atoms ordered so that betas[i] * betas[g+i] equals the
    Lefschetz value for i = 0..g-1.
    """

    genus: int
    lefschetz: object
    betas: Tuple[object, ...]
    base: str
    seed: int | None = None

    def __post_init__(self):
        if self.genus < 2:
            raise InvalidGenus(f"genus {self.genus} < 2")
        if len(self.betas) != 2 * self.genus:
            raise ValueError("need exactly 2g atoms")

    @cached_property
    def lambda_values(self) -> Tuple[object, ...]:
        """Elementary symmetric values e_0 .. e_2g of the atoms, computed on
        first use; e_i is the i-th lambda class of the weight-one part."""
        e: List[object] = [1] + [0] * len(self.betas)
        for n, b in enumerate(self.betas, 1):
            for i in range(n, 0, -1):
                e[i] = e[i] + e[i - 1] * b
        return tuple(e)


def make_hodge_env(g: int) -> AtomEnvironment:
    """Symbolic environment with atoms {-u (g times), -v (g times)}, L = u*v."""
    if g < 2:
        raise InvalidGenus(f"genus {g} < 2")
    betas = tuple([-U] * g + [-V] * g)
    return AtomEnvironment(genus=g, lefschetz=UV, betas=betas, base="hodge")


_WEIL_BOUND = 10 ** 4


def _draw_rational(rng: random.Random) -> Fraction:
    num = 0
    while num == 0:
        num = rng.randint(-_WEIL_BOUND, _WEIL_BOUND)
    den = rng.randint(1, _WEIL_BOUND)
    return Fraction(num, den)


def make_weil_env(g: int, seed: int) -> AtomEnvironment:
    """Deterministic rational specialization of the split curve model.

    Atoms b_1..b_g and L are drawn with numerators and denominators bounded
    by 10^4; b_{g+i} := L / b_i enforces the pairing.  Degenerate draws
    (L in {0, 1, -1}, so that some power L^a could hit 1 and break a
    denominator constant) are rejected and resampled.
    """
    if g < 2:
        raise InvalidGenus(f"genus {g} < 2")
    rng = random.Random(seed)
    while True:
        lefschetz = _draw_rational(rng)
        if lefschetz in (0, 1, -1):
            continue
        first = [_draw_rational(rng) for _ in range(g)]
        if any(b == 0 for b in first):
            continue
        betas = tuple(first + [lefschetz / b for b in first])
        return AtomEnvironment(genus=g, lefschetz=lefschetz, betas=betas,
                               base="weil", seed=seed)


def frobenius(env: AtomEnvironment, j: int) -> AtomEnvironment:
    """j-th Adams operator on the atom model: L -> L^j, b_k -> -(-b_k)^j.

    The sign is forced by the sigma-structure the Adams operators come from:
    the weight-one part is minus a sum of honest line elements -b_k, so
    psi_j sends b_k to -(-b_k)^j (plain j-th powers for odd j, with an extra
    sign for even j; the omega involution p_n -> (-1)^(n-1) p_n in symmetric
    function language).  In the Hodge realization this is exactly the
    substitution u -> u^j, v -> v^j on evaluated classes.
    """
    if j < 1:
        raise ValueError("frobenius needs j >= 1")
    if j == 1:
        return env
    return AtomEnvironment(
        genus=env.genus,
        lefschetz=env.lefschetz ** j,
        betas=tuple(-((-b) ** j) for b in env.betas),
        base=env.base,
        seed=env.seed,
    )


# ---------------------------------------------------------------------------
# split classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitClass:
    """Multiset of monomial line elements with their lambda-series type."""

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
    atoms: List[Tuple[object, str]] = [(1, GEOMETRIC)]
    atoms.extend((b, FINITE) for b in env.betas)
    atoms.append((env.lefschetz, GEOMETRIC))
    return SplitClass(tuple(atoms))


def h1_poly(env: AtomEnvironment, arg):
    """prod_k (1 + b_k * arg) = sum_i e_i * arg^i: the generating value of
    the exterior powers of the weight-one part, evaluated at a ring element."""
    out = 0
    for e_i in reversed(env.lambda_values):
        out = out * arg + e_i
    return out


def jacobian_class(env: AtomEnvironment):
    """[Jac(X)] = prod_k (1 + b_k)."""
    return h1_poly(env, 1)


def h1_power_sums(env: AtomEnvironment, upto: int) -> List[object]:
    """Power sums p_1 .. p_upto of the atoms (index 0 unused)."""
    out: List[object] = [None]
    for j in range(1, upto + 1):
        s = 0
        for b in env.betas:
            s = s + b ** j
        out.append(s)
    return out


def lambda_series(env: AtomEnvironment, c: SplitClass, order: int) -> TruncatedSeries:
    """Truncated series whose x^n coefficient is lambda^n of the split class.

    The series is the product over atoms of 1/(1 - l*x) for geometric atoms
    and (1 + l*x) for finite ones, truncated at the requested order.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    out = TruncatedSeries([1], order=order)
    for a, kind in c.atoms:
        if kind == GEOMETRIC:
            out = out * TruncatedSeries.geometric(a, 1, order)
        elif kind == FINITE:
            out = out * TruncatedSeries([1, a], order=order)
        else:
            raise ValueError(f"unknown atom kind {kind!r}")
    return out


def sym_power_class(env: AtomEnvironment, c: SplitClass, n: int):
    """lambda^n of a split class: coefficient of x^n in its lambda series."""
    if n < 0:
        raise ValueError("lambda index must be >= 0")
    return lambda_series(env, c, n).coeff(n)


def h1_series(env: AtomEnvironment, order: int) -> TruncatedSeries:
    """Series of prod_k (1 + b_k x), the numerator of the zeta function,
    from the environment's cached e_i."""
    return TruncatedSeries(env.lambda_values, order=order)
