"""Atom environments and lambda operations for a genus-g curve.

The class of the curve splits as [X] = 1 + h1 + L where L is the Lefschetz
class and h1 is the weight-one part.  Both realizations implemented here
present h1 as a sum of 2g "atoms" b_1 .. b_2g paired so that
b_i * b_{g+i} = L:

* hodge: atoms are the monomials -u (g copies) and -v (g copies), L = u*v.
  Evaluating a class here yields its E-polynomial.
* weil: atoms are deterministic pseudo-random rationals with b_{g+i} = L/b_i.
  Evaluating a class here is a Schwartz-Zippel style specialization used for
  randomized identity testing.

An environment is its values alone (genus, L and the atoms), so its
realization is read off them and cannot disagree with them: one whose L is
an int or a Fraction (a weil environment, a Frobenius image of one, or one
of int atoms) is numeric, and one whose L is a UVLaurent is the hodge
environment or a Frobenius image of it.

Every class whose lambda-powers the moduli formulas read ([X], [X] + L^2,
[X]*L + 1) is ell*h1 plus monomials with geometric lambda series, ell = 1
or L, so :func:`lambda_series` needs no general plethysm machinery.

The elementary symmetric values e_0 .. e_2g of the atoms, the coefficients
of h1(x) = prod_k (1 + b_k x), are computed once per environment, by one
recurrence, as its lift (:attr:`AtomEnvironment.lift`): with P the product
of the atoms' denominators (1 for int or UVLaurent atoms), the F_i = P e_i
are ints.  One P serves every e_i, since each product of distinct atoms
has a denominator dividing P; a power D^i of their lcm would grow with i.
Every reading of h1 goes through the lift.  In a weil environment
:func:`h1_numerator` and :func:`lambda_series` run on ints and return
numerators over P and powers of the argument's denominator, which the
strata route divides once per class; :func:`sym_power_class` makes one
Fraction for the one value it reads; the ADHM expansion divides by P
itself; and :attr:`AtomEnvironment.lambda_values` is F_i / P.

What a query reads of the curve alone is built once per environment and
kept in its :attr:`AtomEnvironment.cache`: J = P [Jac], the Adams twins
(with their own lifts), the numerators of the bundle classes and lambda
tables and the zeta series of :mod:`motiveforge.moduli_formulas`, and the
d-free ADHM value H_r(1) per (r, p) of :mod:`motiveforge.adhm`.
:func:`make_hodge_env` keeps one environment per genus, so every hodge
query on one curve shares these values; :func:`make_weil_env` builds a new
environment per call, so no value crosses from one trial to the next.

Adams operators act on this model by raising atoms to j-th powers
(:func:`frobenius`); the accompanying substitution t -> t^j on series is
applied by callers, because once an expression has been evaluated to a ring
element the operator is no longer recoverable.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction
from typing import List, Tuple

from .base_rings import UV, U, V
from .series_engine import TruncatedSeries


class InvalidGenus(ValueError):
    """Atom environments need genus at least 2."""


@dataclass(frozen=True)
class AtomEnvironment:
    """Root atoms of the curve class in a chosen exact base ring.

    betas hold the 2g atoms ordered so that betas[i] * betas[g+i] equals the
    Lefschetz value for i = 0..g-1.  The base ring is that of the values:
    int or Fraction values are a numeric (weil) realization, UVLaurent
    values the hodge one.  Construction refuses a genus below 2
    (:class:`InvalidGenus`) and a number of atoms other than 2g.

    :attr:`lift` and :attr:`cache` are built on first use and kept with
    the environment; the cache holds what is read of the curve alone, so a
    hodge environment, one per genus (:func:`make_hodge_env`), builds each
    such value once for every query at that genus: the bundle class once
    per r, and the ADHM class once per (r, p), whatever the degree.  Its
    keys are a name, or a name followed by ints, so no key holds a value.
    """

    genus: int
    lefschetz: object
    betas: Tuple[object, ...]

    def __post_init__(self):
        if self.genus < 2:
            raise InvalidGenus(f"genus {self.genus} < 2")
        if len(self.betas) != 2 * self.genus:
            raise ValueError("need exactly 2g atoms")

    @cached_property
    def lift(self) -> Tuple[int, Tuple[object, ...]]:
        """(P, F): P the product of the atoms' denominators d_k (1 when they
        have none, as int and UVLaurent atoms) and F_i = P e_i, the
        coefficients of prod_k (d_k + n_k x) for the atoms b_k = n_k / d_k:
        ints when P > 1; when P = 1 the atoms' own ring."""
        dens = [b.denominator if isinstance(b, Fraction) else 1 for b in self.betas]
        P = math.prod(dens)
        atoms = self.betas if P == 1 else [b.numerator for b in self.betas]
        return P, _elementary_symmetric(atoms, dens)

    @cached_property
    def cache(self) -> dict:
        """Values built from this environment alone, each stored by
        :meth:`cached` on its first read."""
        return {}

    def cached(self, key, build):
        """The value :attr:`cache` holds under key, from build() on the
        first read."""
        value = self.cache.get(key)
        if value is None:
            value = self.cache[key] = build()
        return value

    @cached_property
    def lambda_values(self) -> Tuple[object, ...]:
        """Elementary symmetric values e_0 .. e_2g of the atoms, from the
        lift; e_i is the i-th lambda class of the weight-one part."""
        P, F = self.lift
        if P == 1:
            return F
        return (1,) + tuple(Fraction(F_i, P) for F_i in F[1:])


def _elementary_symmetric(atoms, dens) -> Tuple[object, ...]:
    """The coefficients of prod_k (d_k + b_k x), one atom b_k and one int
    d_k at a time: e_0 .. e_n of the atoms when every d_k is 1."""
    e: List[object] = [1] + [0] * len(atoms)
    for n, (b, d) in enumerate(zip(atoms, dens), 1):
        for i in range(n, 0, -1):
            if d != 1:
                e[i] = e[i] * d
            e[i] = e[i] + e[i - 1] * b
        e[0] = e[0] * d
    return tuple(e)


#: Genera whose hodge environment, with its cache, :func:`make_hodge_env` keeps.
_HODGE_GENERA = 8


@lru_cache(maxsize=_HODGE_GENERA)
def make_hodge_env(g: int) -> AtomEnvironment:
    """Symbolic environment with atoms {-u (g times), -v (g times)}, L = u*v:
    one per genus, shared by every call."""
    betas = tuple([-U] * g + [-V] * g)
    return AtomEnvironment(genus=g, lefschetz=UV, betas=betas)


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
    rng = random.Random(seed)
    while True:
        lefschetz = _draw_rational(rng)
        if lefschetz in (0, 1, -1):
            continue
        first = [_draw_rational(rng) for _ in range(g)]
        if any(b == 0 for b in first):
            continue
        betas = tuple(first + [lefschetz / b for b in first])
        return AtomEnvironment(genus=g, lefschetz=lefschetz, betas=betas)


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
    return env.cached(("frobenius", j), lambda: AtomEnvironment(
        genus=env.genus,
        lefschetz=env.lefschetz ** j,
        betas=tuple(-((-b) ** j) for b in env.betas),
    ))


def h1_numerator(env: AtomEnvironment, a, q=1):
    """sum_i F_i a^i q^(2g - i) = P q^(2g) h1(a / q), h1(x) = prod_k (1 + b_k x)
    the generating value of the exterior powers of the weight-one part, by
    one Horner pass over the lift: an int when a, q and the F_i are ints,
    h1(a) itself when P = q = 1."""
    F = env.lift[1]
    num, power = F[-1], 1
    for F_i in reversed(F[:-1]):
        power *= q
        num = num * a + F_i * power
    return num


def jacobian_numerator(env: AtomEnvironment):
    """J = sum_i F_i = P [Jac(X)] (:func:`h1_numerator` at 1), built once
    per environment."""
    return env.cached("jac", lambda: h1_numerator(env, 1))


def jacobian_class(env: AtomEnvironment):
    """[Jac(X)] = prod_k (1 + b_k) = J / P (:func:`jacobian_numerator`)."""
    P, J = env.lift[0], jacobian_numerator(env)
    return J if P == 1 else Fraction(J, P)


def lambda_series(env: AtomEnvironment, ell, geometric, order: int) -> TruncatedSeries:
    """N, the lambda series of ell*h1 + sum(geometric) to x^order on the
    lift: sum_i e_i ell^i x^i * prod_{c in geometric} 1/(1 - c*x),
    Macdonald's formula (with ell = 1, geometric = (1, L) the zeta function
    of X), one :meth:`TruncatedSeries.over_geometric` per geometric factor.
    With m the lcm of the denominators of ell and the c (:func:`_denominator`),
    the recurrences run on ints in y = x / m: the y^i coefficient of the
    P e_i ell^i x^i is F_i (m ell)^i and each c becomes m c, so the x^k
    coefficient of the lambda series is N_k / (P m^k), N_0 = P; when
    P = m = 1, N is it."""
    if order < 0:
        raise ValueError("order must be >= 0")
    P, F = env.lift
    m = _denominator(ell, geometric)
    if P != 1 or m != 1:
        ell = ell.numerator * (m // ell.denominator)
        geometric = [c.numerator * (m // c.denominator) for c in geometric]
    coeffs: List[object] = []
    power = 1
    for i in range(min(order, len(F) - 1) + 1):
        coeffs.append(F[i] * power)
        power = power * ell
    s = TruncatedSeries(coeffs, order=order)
    for c in geometric:
        s = s.over_geometric(c, 1)
    return s


def _denominator(ell, geometric) -> int:
    """m, the lcm of the denominators of ell and the c in geometric."""
    return math.lcm(*(x.denominator for x in (ell, *geometric) if isinstance(x, Fraction)))


def sym_power_class(env: AtomEnvironment, ell, geometric, n: int):
    """lambda^n of ell*h1 + sum(geometric): N_n / (P m^n), N the
    :func:`lambda_series` to x^n, one Fraction when P or m is not 1."""
    if n < 0:
        raise ValueError("lambda index must be >= 0")
    num = lambda_series(env, ell, geometric, n).coeff(n)
    scale = env.lift[0] * _denominator(ell, geometric) ** n
    return num if scale == 1 else Fraction(num, scale)


def h1_series(env: AtomEnvironment, order: int) -> TruncatedSeries:
    """Series of prod_k (1 + b_k x), the numerator of the zeta function,
    from the environment's cached e_i."""
    return TruncatedSeries(env.lambda_values, order=order)
