"""The stratification sum evaluated stratum by stratum in the ring's own
arithmetic: the reference ``motiveforge.moduli_formulas.motive`` is checked
against.

Nothing here reads the lift's numerators or the grouped strata plan.  The
lambda-powers come from the environment's e_i (``lambda_values``, Fractions
in a weil environment) by the geometric recurrences, the bundle classes
from h1 by Horner's rule over the same e_i, and each stratum's reads from
its degrees; every class is multiplied out, L^(N+) [VHS], and the strata
are summed one at a time.  A division by a factor L^k - 1 is a Fraction
division on a numeric environment (an int when both operands are ints and
it is exact) and ``exact_divide`` on hodge.
"""

from __future__ import annotations

from fractions import Fraction

from motiveforge.base_rings import UVLaurent, exact_divide
from motiveforge.moduli_formulas import bb_exponent, strata_for


def _divide(num, den):
    if isinstance(den, UVLaurent):
        return exact_divide(num, den)
    q = Fraction(num) / den
    return q.numerator if type(num) is type(den) is int and q.denominator == 1 else q


def h1(env, arg):
    """sum_i e_i arg^i by Horner's rule over the environment's e_i."""
    out = 0
    for e_i in reversed(env.lambda_values):
        out = out * arg + e_i
    return out


def lambda_power(env, ell, geometric, n: int):
    """lambda^n of ell*h1 + sum(geometric): sum_i e_i ell^i x^i times
    prod_c 1/(1 - c x), read at x^n."""
    coeffs = [0] * (n + 1)
    for i, e_i in enumerate(env.lambda_values[:n + 1]):
        coeffs[i] = e_i * ell ** i
    for c in geometric:
        for k in range(1, n + 1):
            coeffs[k] = coeffs[k] + c * coeffs[k - 1]
    return coeffs[n]


def bundle_class(env, r: int):
    """The class of the moduli of stable bundles of rank r (coprime degree)."""
    L, g = env.lefschetz, env.genus
    jac = h1(env, 1)
    if r == 1:
        return jac
    pl = h1(env, L)
    if r == 2:
        return _divide(_divide(jac * pl - L ** g * jac * jac, L - 1), L * L - 1)
    num = jac * (L ** (3 * g - 1) * (1 + L + L * L) * jac * jac
                 - L ** (2 * g - 1) * (1 + L) * (1 + L) * jac * pl
                 + pl * h1(env, L * L))
    for f in (L - 1, L * L - 1, L * L - 1, L ** 3 - 1):
        num = _divide(num, f)
    return num


def stratum_class(env, t, dL: int):
    """[VHS] of one stratum, with its reads from its own degrees; a (2,1)
    stratum is the (1,2) stratum of total degree -d."""
    L, g, d = env.lefschetz, env.genus, t.total_deg
    jac = h1(env, 1)
    curve = (1, (1, L))
    if len(t.ranks) == 1:
        return bundle_class(env, t.ranks[0])
    if t.ranks == (1, 1):
        return jac * lambda_power(env, *curve, d - 2 * t.degs[0] - dL)
    if t.ranks == (1, 1, 1):
        d1, d2 = t.degs[0], t.degs[1]
        return (jac * lambda_power(env, *curve, d2 - d1 - dL)
                * lambda_power(env, *curve, d - d1 - 2 * d2 - dL))
    d1, dd = (t.degs[0], d) if t.ranks == (1, 2) else (t.degs[0] - d, -d)
    i = dd - dd // 3 - 2 * d1 - dL - 1
    lead = L ** (2 * (dd // 3) - dd + d1 + g + 1)
    cofactor = (lead * lambda_power(env, 1, (1, L, L * L), i)
                - lambda_power(env, L, (1, L, L * L), i))
    return jac * jac * _divide(cofactor, L - 1)


def motive(env, spec):
    """sum over strata of L^(N+) [VHS], each stratum on its own."""
    total = 0
    for t in strata_for(spec):
        total = total + env.lefschetz ** bb_exponent(t, spec) * stratum_class(env, t, spec.dL)
    return total
