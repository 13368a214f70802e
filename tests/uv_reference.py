"""Operations on ``UVLaurent`` that only the tests use."""

from __future__ import annotations

from motiveforge.base_rings import UVLaurent


class ZeroPolynomial(ValueError):
    """An operation that requires a nonzero polynomial received zero."""


def total_degree(f: UVLaurent) -> int:
    if not f:
        raise ZeroPolynomial("total degree of the zero polynomial")
    return max(a + b for (a, b), _ in f.items())


def power_substitute(f: UVLaurent, j: int) -> UVLaurent:
    """u -> u^j, v -> v^j (the realization of the j-th Adams operator)."""
    return UVLaurent({(a * j, b * j): x for (a, b), x in f.items()})


def swap_uv(f: UVLaurent) -> UVLaurent:
    return UVLaurent({(b, a): x for (a, b), x in f.items()})

