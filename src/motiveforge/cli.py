"""Command-line interface and randomized identity-testing harness.

Subcommands:

* ``verify-adhm``  - run the ADHM-formula identity test over a (g, r, d, p)
  grid and write a JSON report.  Exit code 0 iff every cell passes.
* ``motive``       - one moduli class, in the symbolic (hodge) realization or
  a seeded numeric (weil) one.
* ``epoly``        - the E-polynomial, from the closed extraction formulas.
* ``betti``        - the Betti numbers read off the E-polynomial.

Exit codes are a stable contract: 0 pass, 1 identity failure, 2 invalid
input, 3 internal error (arithmetic, out of memory, a dead worker).
Reports are reproducible given the same flags and seed; only timing
fields vary between reruns.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import export
from .adhm import adhm_class
from .base_rings import NotDivisible
from .curve_ring import AtomEnvironment, make_hodge_env, make_weil_env
from .moduli_formulas import (
    INPUT_BUDGET,
    InvalidSpec,
    ModuliSpec,
    NegativeBetti,
    StrataPlanError,
    epoly,
    motive,
    poincare,
)
from .series_engine import InsufficientTruncation, PoleAtOne

EXIT_PASS = 0
EXIT_IDENTITY_FAILURE = 1
EXIT_INVALID_INPUT = 2
EXIT_ARITHMETIC_ERROR = 3

_HODGE_GENUS_CUTOFF = 6
DEFAULT_TRIALS = 20


@dataclass
class VerificationReport:
    """Outcome of one identity test on one grid cell."""

    g: int
    r: int
    d: int
    p: int
    hodge_equal: Optional[bool]
    weil_trials: int
    weil_failures: int
    wall_time_ms: int
    seed: int

    @property
    def passed(self) -> bool:
        return self.weil_failures == 0 and self.hodge_equal is not False


def _trial_seed(seed: int, g: int, r: int, d: int, p: int, trial: int) -> int:
    # deterministic mixing, independent of PYTHONHASHSEED
    x = seed
    for part in (g, r, d, p, trial):
        x = (x * 1000003 + part + 0x9E3779B9) % (2 ** 61 - 1)
    return x


_ARITHMETIC_ERRORS = (NotDivisible, PoleAtOne, InsufficientTruncation, StrataPlanError,
                      ZeroDivisionError)


def _tagged(builder: Callable[[AtomEnvironment], object], env: AtomEnvironment, where: str):
    """builder(env), with an arithmetic error re-raised naming the route
    (the function the builder calls) and the environment."""
    try:
        return builder(env)
    except _ARITHMETIC_ERRORS as exc:
        route = getattr(builder, "func", builder).__name__
        raise type(exc)(f"{exc} [{route} route, {where}]") from exc


def identity_test(
    lhs: Callable[[AtomEnvironment], object],
    rhs: Callable[[AtomEnvironment], object],
    g: int,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    hodge: Optional[bool] = None,
    cell: Tuple[int, int, int, int] = (0, 0, 0, 0),
) -> VerificationReport:
    """Schwartz-Zippel style certification of a class identity.

    Evaluates both builders in ``trials`` deterministic weil environments.
    A single mismatch certifies inequality.  Agreement in every trial is
    evidence, not proof, and only over the sample space the environments
    are drawn from: L and b_1..b_g rationals with numerators and
    denominators at most 10^4 in absolute value, L not in {0, 1, -1}, and
    b_{g+i} = L / b_i.  No false-pass bound is stated.  For g up to 6, the
    whole desk range (or when forced by ``hodge=True``), an exact polynomial
    comparison in the hodge environment runs as well, and decides the
    identity in the Hodge realization; above it ``hodge_equal`` is None
    unless ``hodge=True``.  Arithmetic errors from a builder are re-raised
    naming its route (the name of the function it calls) and the failing
    environment's seed.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    start = time.monotonic()
    cg, cr, cd, cp = cell
    failures = 0
    for trial in range(trials):
        tseed = _trial_seed(seed, cg, cr, cd, cp, trial)
        env = make_weil_env(g, tseed)
        where = f"weil seed {tseed}"
        if _tagged(lhs, env, where) != _tagged(rhs, env, where):
            failures += 1
    hodge_equal: Optional[bool] = None
    run_hodge = hodge if hodge is not None else g <= _HODGE_GENUS_CUTOFF
    if run_hodge:
        env = make_hodge_env(g)
        where = f"hodge environment, g={g}"
        hodge_equal = _tagged(lhs, env, where) == _tagged(rhs, env, where)
    elapsed_ms = int((time.monotonic() - start) * 1000)
    return VerificationReport(
        g=cg or g, r=cr, d=cd, p=cp,
        hodge_equal=hodge_equal,
        weil_trials=trials,
        weil_failures=failures,
        wall_time_ms=elapsed_ms,
        seed=seed,
    )


def _adhm_cell(args: Tuple[int, int, int, int, int, int, Optional[bool]]) -> VerificationReport:
    g, r, d, p, trials, seed, hodge = args
    spec = ModuliSpec.from_p(g, r, d, p)
    try:
        return identity_test(partial(adhm_class, r=r, p=p), partial(motive, spec=spec), g,
                             trials=trials, seed=seed, hodge=hodge, cell=(g, r, d, p))
    except MemoryError as exc:
        raise MemoryError(f"out of memory at cell g={g} r={r} d={d} p={p}") from exc


def run_adhm_grid(
    gs: Sequence[int],
    rs: Sequence[int],
    ds: Sequence[int],
    ps: Sequence[int],
    trials: int,
    seed: int,
    hodge: Optional[bool] = None,
    threads: int = 1,
) -> Tuple[List[VerificationReport], List[Dict]]:
    """Run the ADHM identity over a grid.  Cells with gcd(r, d) != 1 are
    recorded as skipped rather than failed.  The grid size (at most
    INPUT_BUDGET cells), every cell (g, r and p of a skipped one), the
    trial count (at most INPUT_BUDGET) and the thread count are checked
    before any cell runs (InvalidSpec), and so is a grid whose every cell
    is skipped: it would pass without running anything.  With
    ``threads > 1`` the cells go to a process pool of at most one worker
    per cell and per CPU this process may run on
    (``os.sched_getaffinity``, else ``os.cpu_count()``)."""
    if trials < 1:
        raise InvalidSpec(f"trials must be >= 1, got {trials}")
    if trials > INPUT_BUDGET:
        raise InvalidSpec(f"{trials} trials exceed the input budget {INPUT_BUDGET}")
    if threads < 1:
        raise InvalidSpec(f"threads must be >= 1, got {threads}")
    size = len(gs) * len(rs) * len(ds) * len(ps)
    if size > INPUT_BUDGET:
        raise InvalidSpec(f"grid of {size} cells exceeds the input budget {INPUT_BUDGET}")
    cells = []
    skipped = []
    for g in gs:
        for r in rs:
            for d in ds:
                for p in ps:
                    coprime = math.gcd(r, d) == 1
                    # a skipped cell's spec still checks g, r and p: d = 1
                    # is coprime to every r
                    ModuliSpec.from_p(g, r, d if coprime else 1, p)
                    if not coprime:
                        skipped.append({"g": g, "r": r, "d": d, "p": p,
                                        "reason": "gcd(r, d) != 1"})
                        continue
                    cells.append((g, r, d, p, trials, seed, hodge))
    if not cells:
        raise InvalidSpec(f"every cell of the grid has gcd(r, d) != 1 ({len(skipped)} skipped)")
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(threads, len(cells), cpus)
    if workers > 1:
        # the fork start method starts every worker when the pool starts
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_adhm_cell, cells))
    else:
        reports = [_adhm_cell(c) for c in cells]
    reports.sort(key=lambda rep: (rep.g, rep.r, rep.d, rep.p))
    return reports, skipped


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def parse_range(text: str) -> List[int]:
    """'2..4' -> [2, 3, 4]; '3' -> [3]; '1,2' -> [1, 2].

    A reversed range such as '3..2' is an error, not an empty grid that
    would pass vacuously, and so is a list of more than INPUT_BUDGET
    values in all, or one that repeats a value: '1,1' would run the same
    cells twice.
    """
    out: List[int] = []
    for piece in text.split(","):
        piece = piece.strip()
        if ".." in piece:
            lo, hi = (int(x) for x in piece.split(".."))
            if lo > hi:
                raise argparse.ArgumentTypeError(f"reversed range {piece!r}: {lo} > {hi}")
        else:
            lo = hi = int(piece)
        if len(out) + hi - lo >= INPUT_BUDGET:
            raise argparse.ArgumentTypeError(
                f"{text!r} has more than the input budget of {INPUT_BUDGET} values")
        out.extend(range(lo, hi + 1))
    seen = set()
    for value in out:
        if value in seen:
            raise argparse.ArgumentTypeError(f"repeated value {value} in {text!r}")
        seen.add(value)
    return out


def _spec_from_args(args) -> ModuliSpec:
    if args.dL is not None:
        return ModuliSpec(g=args.g, r=args.r, d=args.d, dL=args.dL)
    return ModuliSpec.from_p(args.g, args.r, args.d, args.p)


def _add_spec_flags(sub) -> None:
    sub.add_argument("--g", type=int, required=True, help="genus, at least 2")
    sub.add_argument("--r", type=int, required=True, help="rank, 1..3")
    sub.add_argument("--d", type=int, default=1, help="degree, coprime to r")
    twist = sub.add_mutually_exclusive_group()
    twist.add_argument("--p", type=int, default=1,
                       help="twist offset: twist degree is -(2g-2+p)")
    twist.add_argument("--dL", type=int, default=None,
                       help="twist degree directly, in place of --p")
    sub.add_argument("--format", choices=("json", "csv", "latex"), default="json")
    sub.add_argument("--out", default=None, help="output file (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motiveforge",
        description="Exact motivic classes and E-polynomials of twisted "
                    "moduli spaces on a curve, with randomized verification "
                    "of the ADHM formula.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    verify = subs.add_parser("verify-adhm", help="identity-test the ADHM formula on a grid")
    verify.add_argument("--g", type=parse_range, default=[2], help="genus range, e.g. 2..3")
    verify.add_argument("--r", type=parse_range, default=[1, 2, 3], help="rank range")
    verify.add_argument("--p", type=parse_range, default=[1], help="twist offset range")
    verify.add_argument("--d", type=parse_range, default=[1], help="degree list, e.g. 1,2")
    verify.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--hodge", choices=("auto", "on", "off"), default="auto",
                        help="exact symbolic comparison (auto: genus <= 6 only)")
    verify.add_argument("--threads", type=int, default=1)
    verify.add_argument("--out", default=None, help="report file (default stdout)")

    motive_cmd = subs.add_parser("motive", help="motivic class of one moduli space")
    _add_spec_flags(motive_cmd)
    motive_cmd.add_argument("--realization", choices=("hodge", "weil"), default="hodge")
    motive_cmd.add_argument("--seed", type=int, default=0)

    epoly_cmd = subs.add_parser("epoly", help="E-polynomial of one moduli space")
    _add_spec_flags(epoly_cmd)

    betti_cmd = subs.add_parser("betti", help="Betti numbers of one moduli space")
    _add_spec_flags(betti_cmd)

    return parser


def _check_writable(path: str) -> None:
    """Open ``path`` for appending, so that an unwritable ``--out`` fails
    before any computation runs; a file the check created is removed again.
    Raises ``OSError``."""
    existed = os.path.lexists(path)
    with open(path, "a", encoding="utf-8"):
        pass
    if not existed:
        os.remove(path)


def _emit(text: str, out: Optional[str]) -> None:
    """Write ``text`` to the file ``out``, or to stdout and flush it, so a
    failed write raises here and not at interpreter exit: as
    :class:`InvalidSpec`, the exit code of an unwritable ``--out``."""
    try:
        if out:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        if not out and sys.stdout is sys.__stdout__:
            # the interpreter flushes its stdout again at exit: what the
            # failed write left in the buffer goes to the null device
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
        where = f"--out {out}" if out else "stdout"
        raise InvalidSpec(f"cannot write {where}: {exc.strerror or exc}") from exc


def _cmd_verify_adhm(args) -> int:
    hodge = {"auto": None, "on": True, "off": False}[args.hodge]
    reports, skipped = run_adhm_grid(
        args.g, args.r, args.d, args.p,
        trials=args.trials, seed=args.seed, hodge=hodge, threads=args.threads,
    )
    all_pass = all(rep.passed for rep in reports)
    payload = {
        "schema": export.SCHEMA_VERSION,
        "command": "verify-adhm",
        "seed": args.seed,
        "trials": args.trials,
        "grid": {"g": args.g, "r": args.r, "d": args.d, "p": args.p},
        "cells": [asdict(rep) for rep in reports],
        "skipped": skipped,
        "all_pass": all_pass,
    }
    if not all_pass:
        # named before the report is written: a failed write must not hide it
        first = next(rep for rep in reports if not rep.passed)
        print(f"identity failure at cell g={first.g} r={first.r} d={first.d} p={first.p}",
              file=sys.stderr)
    try:
        _emit(export.dump_json(payload), args.out)
    except InvalidSpec as exc:
        if all_pass:
            raise
        print(exc, file=sys.stderr)  # the identity failure outranks the lost report
    return EXIT_PASS if all_pass else EXIT_IDENTITY_FAILURE


def _payload(command: str, spec: ModuliSpec, **fields) -> Dict:
    """The json payload of a single-space command."""
    return {
        "schema": export.SCHEMA_VERSION,
        "command": command,
        "spec": {"g": spec.g, "r": spec.r, "d": spec.d, "dL": spec.dL, "p": spec.p},
        **fields,
    }


def _emit_poly(args, value, payload: Dict) -> int:
    """A u, v polynomial in ``args.format``: csv, latex, or json with the
    polynomial added to ``payload`` under its command's name."""
    if args.format == "csv":
        text = export.poly_to_csv(value)
    elif args.format == "latex":
        text = export.poly_to_latex(value) + "\n"
    else:
        text = export.dump_json({**payload, payload["command"]: export.poly_to_json(value)})
    _emit(text, args.out)
    return EXIT_PASS


def _cmd_motive(args) -> int:
    spec = _spec_from_args(args)
    if args.realization == "hodge":
        value = motive(make_hodge_env(spec.g), spec)
        return _emit_poly(args, value, _payload(
            "motive", spec, environment={"base": "hodge", "genus": spec.g}))
    env = make_weil_env(spec.g, args.seed)
    value = motive(env, spec)
    if args.format == "latex":
        text = export.weil_motive_latex(env, value) + "\n"
    elif args.format == "csv":
        text = "seed,value\n%d,%s\n" % (args.seed, value)
    else:
        text = export.dump_json(_payload("motive", spec, motive=str(value), environment={
            "base": "weil",
            "genus": spec.g,
            "seed": args.seed,
            "lefschetz": str(env.lefschetz),
            "betas": [str(b) for b in env.betas],
        }))
    _emit(text, args.out)
    return EXIT_PASS


def _cmd_epoly(args) -> int:
    spec = _spec_from_args(args)
    return _emit_poly(args, epoly(spec), _payload("epoly", spec))


def _cmd_betti(args) -> int:
    spec = _spec_from_args(args)
    betti = poincare(epoly(spec))
    if args.format == "csv":
        text = export.betti_to_csv(betti)
    elif args.format == "latex":
        text = export.betti_to_latex(betti) + "\n"
    else:
        text = export.dump_json(_payload("betti", spec, betti=betti))
    _emit(text, args.out)
    return EXIT_PASS


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "verify-adhm": _cmd_verify_adhm,
        "motive": _cmd_motive,
        "epoly": _cmd_epoly,
        "betti": _cmd_betti,
    }[args.command]
    if args.out:
        try:
            _check_writable(args.out)
        except OSError as exc:
            print(f"invalid input: cannot write --out {args.out}: {exc.strerror}",
                  file=sys.stderr)
            return EXIT_INVALID_INPUT
    try:
        return handler(args)
    except InvalidSpec as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except _ARITHMETIC_ERRORS + (NegativeBetti,) as exc:
        print(f"arithmetic error: {exc}", file=sys.stderr)
        return EXIT_ARITHMETIC_ERROR
    except (MemoryError, BrokenProcessPool) as exc:
        print(f"internal error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_ARITHMETIC_ERROR


if __name__ == "__main__":
    sys.exit(main())
