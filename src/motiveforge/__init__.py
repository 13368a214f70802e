"""Exact motivic classes, E-polynomials and Betti numbers of twisted moduli
spaces on a smooth projective curve, ranks 1 to 3, with randomized identity
verification of the motivic ADHM formula."""

from .adhm import adhm_class
from .base_rings import NotDivisible, UVLaurent
from .cli import VerificationReport, identity_test, run_adhm_grid
from .curve_ring import InvalidGenus, make_hodge_env, make_weil_env
from .moduli_formulas import (
    InvalidSpec,
    ModuliSpec,
    NegativeBetti,
    epoly,
    motive,
    poincare,
)
from .series_engine import PoleAtOne

__version__ = "0.1.0"
