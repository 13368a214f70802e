#!/usr/bin/env python3
"""Emit tables of E-polynomial invariants and Betti numbers.

Writes one LaTeX tabular (or CSV) row per (g, r, p) cell: the moduli
dimension, the E-polynomial term count, the Euler characteristic E(1, 1),
and the first few Betti numbers.

Usage:
    python3 scripts/emit_tables.py --g 2..3 --r 1..3 --p 1..2 --format latex
"""

import argparse
import sys

from motiveforge.cli import EXIT_INVALID_INPUT, _parse_range
from motiveforge.moduli_formulas import (
    INPUT_BUDGET, InvalidSpec, ModuliSpec, dimension, epoly, poincare)


def euler_characteristic(e):
    total = 0
    for _, c in e.items():
        total += c
    return total


def betti_count(text: str) -> int:
    """0 .. 2 * INPUT_BUDGET + 1: a valid space has dim M <= INPUT_BUDGET,
    so at most the Betti numbers b_0 .. b_(2 dim M)."""
    value = int(text)
    if not 0 <= value <= 2 * INPUT_BUDGET + 1:
        raise argparse.ArgumentTypeError(
            f"must be between 0 and {2 * INPUT_BUDGET + 1}, got {value}")
    return value


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--g", type=_parse_range, default=[2, 3])
    ap.add_argument("--r", type=_parse_range, default=[1, 2, 3])
    ap.add_argument("--p", type=_parse_range, default=[1, 2])
    ap.add_argument("--betti-head", type=betti_count, default=6,
                    help="how many Betti numbers to tabulate")
    ap.add_argument("--format", choices=("latex", "csv"), default="csv")
    args = ap.parse_args()

    try:
        size = len(args.g) * len(args.r) * len(args.p)
        if size > INPUT_BUDGET:
            raise InvalidSpec(f"grid of {size} cells exceeds the input budget {INPUT_BUDGET}")
        specs = [ModuliSpec.from_p(g, r, 1, p) for g in args.g for r in args.r for p in args.p]
    except InvalidSpec as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    rows = []
    for spec in specs:
        e = epoly(spec)
        betti = poincare(e)
        head = betti[: args.betti_head]
        head += [0] * (args.betti_head - len(head))
        rows.append((spec.g, spec.r, spec.p, dimension(spec), len(list(e.items())),
                     euler_characteristic(e), head))

    k = args.betti_head
    if args.format == "csv":
        print("g,r,p,dim,terms,euler," + ",".join(f"b{i}" for i in range(k)))
        for g, r, p, dim, nterms, chi, head in rows:
            print(f"{g},{r},{p},{dim},{nterms},{chi}," +
                  ",".join(str(b) for b in head))
    else:
        cols = "rrrrrr" + "r" * k
        print(r"\begin{tabular}{%s}" % cols)
        print("$g$ & $r$ & $p$ & $\\dim$ & terms & $\\chi$ & " +
              " & ".join(f"$b_{{{i}}}$" for i in range(k)) + r" \\")
        for g, r, p, dim, nterms, chi, head in rows:
            print(f"{g} & {r} & {p} & {dim} & {nterms} & {chi} & " +
                  " & ".join(str(b) for b in head) + r" \\")
        print(r"\end{tabular}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
