"""CLI contract: exit codes, schemas, determinism, formats."""

import argparse
import contextlib
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import motiveforge
from motiveforge.cli import (
    EXIT_ARITHMETIC_ERROR,
    EXIT_IDENTITY_FAILURE,
    EXIT_INVALID_INPUT,
    EXIT_PASS,
    _trial_seed,
    identity_test,
    main,
    parse_range,
)
from motiveforge.curve_ring import jacobian_class
from motiveforge.moduli_formulas import INPUT_BUDGET, InvalidSpec, ModuliSpec, motive


def _must_not_run(*args, **kwargs):
    raise AssertionError("ran after the input should have been refused")


class _FullDevice(io.StringIO):
    """A writer whose every write fails as on a full disk."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestRangeParsing:
    def test_forms(self):
        assert parse_range("2..4") == [2, 3, 4]
        assert parse_range("3") == [3]
        assert parse_range("1,2") == [1, 2]

    def test_reversed_range_rejected(self):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_range("3..2")
        with pytest.raises(argparse.ArgumentTypeError):
            parse_range("1,4..2")

    @pytest.mark.parametrize("flags, value", [
        (["--d", "1,1"], 1),
        (["--g", "2..3,3"], 3),
        (["--p", "1..3,2..4"], 2),
    ])
    def test_repeated_value_exits_invalid_input(self, flags, value, monkeypatch, capsys):
        # a repeated value would run and report the same cell twice
        monkeypatch.setattr("motiveforge.cli._adhm_cell", _must_not_run)
        with pytest.raises(SystemExit) as exc:
            main(["verify-adhm", "--g", "2", "--r", "2", *flags])
        assert exc.value.code == EXIT_INVALID_INPUT
        captured = capsys.readouterr()
        assert f"repeated value {value} in" in captured.err
        assert captured.out == ""

    def test_reversed_grid_exits_invalid_input(self, capsys):
        # an empty grid would report "all_pass": true with no cells
        with pytest.raises(SystemExit) as exc:
            main(["verify-adhm", "--g", "3..2", "--r", "1"])
        assert exc.value.code == EXIT_INVALID_INPUT
        captured = capsys.readouterr()
        assert "reversed range" in captured.err
        assert captured.out == ""


class TestTrialSeed:
    def test_degrees_beyond_16_bits_do_not_collide(self):
        assert _trial_seed(0, 2, 1, 1, 1, 0) != _trial_seed(0, 2, 1, 65537, 1, 0)


class TestIdentityTest:
    def test_equal_builders_pass(self):
        builder = lambda env: jacobian_class(env)
        report = identity_test(builder, builder, g=2, trials=3, seed=1,
                               cell=(2, 1, 1, 1))
        assert report.passed
        assert report.weil_failures == 0
        assert report.hodge_equal is True

    def test_scaled_builder_fails_first_trial(self):
        spec = ModuliSpec.from_p(2, 2, 1, 1)
        lhs = lambda env: motive(env, spec)
        rhs = lambda env: env.lefschetz * motive(env, spec)
        report = identity_test(lhs, rhs, g=2, trials=1, seed=5, hodge=False,
                               cell=(2, 2, 1, 1))
        assert not report.passed
        assert report.weil_failures == 1

    def test_duality_identity_passes(self):
        s1 = ModuliSpec.from_p(2, 3, 1, 1)
        s2 = ModuliSpec.from_p(2, 3, -1, 1)
        report = identity_test(
            lambda env: motive(env, s1),
            lambda env: motive(env, s2),
            g=2, trials=5, seed=3, hodge=False, cell=(2, 3, 1, 1),
        )
        assert report.passed

    def test_hodge_implies_weil(self):
        builder = lambda env: jacobian_class(env) * env.lefschetz
        report = identity_test(builder, builder, g=2, trials=4, seed=9,
                               cell=(2, 1, 1, 1))
        assert report.hodge_equal is True and report.weil_failures == 0


class TestProcessPool:
    def test_grid_with_worker_pool(self):
        from motiveforge.cli import run_adhm_grid

        reports, skipped = run_adhm_grid([2], [1, 2], [1], [1],
                                         trials=2, seed=13, threads=2)
        assert len(reports) == 2 and not skipped
        assert all(rep.passed for rep in reports)
        serial, _ = run_adhm_grid([2], [1, 2], [1], [1],
                                  trials=2, seed=13, threads=1)
        pooled = [(r.g, r.r, r.d, r.p, r.weil_failures, r.hodge_equal)
                  for r in reports]
        plain = [(r.g, r.r, r.d, r.p, r.weil_failures, r.hodge_equal)
                 for r in serial]
        assert pooled == plain

    def test_pool_is_no_larger_than_the_grid(self, monkeypatch):
        # a fake executor records the pool size and runs cells in-process,
        # so no worker process is ever started
        from motiveforge import cli

        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        reports, _ = cli.run_adhm_grid([2], [1], [1, 2], [1], trials=1, seed=3,
                                       hodge=False, threads=10 ** 6)
        assert sizes == [2] and len(reports) == 2
        cli.run_adhm_grid([2], [1], [1, 2, 3], [1], trials=1, seed=3,
                          hodge=False, threads=2)
        assert sizes == [2, 2]
        # nor larger than the CPUs the process may run on: one worker per
        # CPU, and none at all (the cells run in-process) when there is one
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        reports, _ = cli.run_adhm_grid([2], [1], [1, 2, 3, 4, 5], [1], trials=1, seed=3,
                                       hodge=False, threads=1000)
        assert sizes == [2, 2, 3] and len(reports) == 5
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {3}, raising=False)
        reports, _ = cli.run_adhm_grid([2], [1], [1, 2], [1], trials=1, seed=3,
                                       hodge=False, threads=1000)
        assert sizes == [2, 2, 3] and len(reports) == 2
        # without sched_getaffinity the count is os.cpu_count(), and an
        # unknown count is one CPU
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        reports, _ = cli.run_adhm_grid([2], [1], [1, 2, 3, 4, 5], [1], trials=1, seed=3,
                                       hodge=False, threads=1000)
        assert sizes == [2, 2, 3, 4] and len(reports) == 5
        for count in (1, None):
            monkeypatch.setattr(cli.os, "cpu_count", lambda: count)
            reports, _ = cli.run_adhm_grid([2], [1], [1, 2], [1], trials=1, seed=3,
                                           hodge=False, threads=1000)
            assert sizes == [2, 2, 3, 4] and len(reports) == 2

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, threads, monkeypatch, capsys):
        from motiveforge import cli
        from motiveforge.moduli_formulas import InvalidSpec

        monkeypatch.setattr(cli, "_adhm_cell", lambda cell: pytest.fail("a cell ran"))
        with pytest.raises(InvalidSpec):
            cli.run_adhm_grid([2], [1], [1], [1], trials=1, seed=0, threads=threads)
        code = main(["verify-adhm", "--r", "1", "--threads", str(threads)])
        assert code == EXIT_INVALID_INPUT
        captured = capsys.readouterr()
        assert "threads" in captured.err and captured.out == ""

    def test_dead_worker_exits_3_not_1(self, monkeypatch, capsys):
        # a worker that dies mid-grid breaks the pool: the run could not
        # finish, which is no identity failure
        from motiveforge import cli

        sizes = []

        class Recording(cli.ProcessPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", Recording)
        monkeypatch.setattr(cli, "_adhm_cell", _dying_cell)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        code = main(["verify-adhm", "--g", "2..3", "--r", "1", "--trials", "1",
                     "--threads", "2", "--hodge", "off"])
        captured = capsys.readouterr()
        assert code == EXIT_ARITHMETIC_ERROR and sizes == [2]
        assert captured.err.startswith("internal error: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err and captured.out == ""


def _dying_cell(args):
    """The grid cell of the CLI, except that the worker running g = 3 dies;
    a module-level function, so the pool can send it to a worker."""
    if args[0] == 3:
        os._exit(9)
    return _ADHM_CELL(args)


_ADHM_CELL = motiveforge.cli._adhm_cell


class TestExportRendering:
    def test_latex_fraction_and_signs(self):
        # a u, v polynomial has int coefficients; a Fraction is rendered for
        # the weil values
        from fractions import Fraction

        from motiveforge.base_rings import UVLaurent
        from motiveforge.export import _frac_latex, poly_to_latex

        poly = UVLaurent({(2, -1): -3, (0, 0): 1})
        text = poly_to_latex(poly)
        assert text.startswith(r"-3\, ")
        assert "u^{2}" in text and "v^{-1}" in text
        assert text.endswith("+ 1")
        assert _frac_latex(Fraction(-3, 2)) == r"-\frac{3}{2}"


class TestErrorPaths:
    def test_builder_errors_tagged_with_seed(self):
        from motiveforge.base_rings import NotDivisible

        def bad(env):
            raise NotDivisible("synthetic failure")

        with pytest.raises(NotDivisible, match="weil seed"):
            identity_test(bad, bad, g=2, trials=1, seed=4, hodge=False,
                          cell=(2, 1, 1, 1))

    def test_verify_adhm_failure_exit(self, monkeypatch, tmp_path, capsys):
        import motiveforge.cli as cli_mod

        monkeypatch.setattr(
            cli_mod, "adhm_class",
            lambda env, r, p: env.lefschetz * 0,
        )
        out = tmp_path / "r.json"
        code = main(["verify-adhm", "--g", "2", "--r", "1", "--p", "1",
                     "--trials", "1", "--out", str(out)])
        assert code == EXIT_IDENTITY_FAILURE
        err = capsys.readouterr().err
        assert "g=2 r=1" in err
        payload = json.loads(out.read_text())
        assert payload["all_pass"] is False

    def test_non_integral_hodge_value_exits_arithmetic_error(self, monkeypatch, capsys):
        # H_r(1) over a scale that does not divide it is no polynomial over
        # the integers: eval_at_one raises NotDivisible, named by its route
        import motiveforge.adhm as adhm
        import motiveforge.cli as cli_mod
        from motiveforge.base_rings import UVLaurent
        from motiveforge.curve_ring import make_hodge_env
        from motiveforge.series_engine import TRational, TruncatedSeries

        real = adhm.plog_series

        def halved(env, orders, r, p):
            series = real(env, orders, r, p)
            if not isinstance(env.lefschetz, UVLaurent):
                return series
            return [TruncatedSeries([TRational(x.num, x.den, 2 * x.scale) if x else x
                                     for x in h.coeffs], order=h.order) for h in series]

        monkeypatch.setattr(adhm, "plog_series", halved)
        # a fresh hodge environment, so that no kept H_r(1) is read
        monkeypatch.setattr(cli_mod, "make_hodge_env", make_hodge_env.__wrapped__)
        code = main(["verify-adhm", "--g", "2", "--r", "1", "--trials", "1", "--hodge", "on"])
        assert code == EXIT_ARITHMETIC_ERROR
        captured = capsys.readouterr()
        assert "nonzero coefficient remainder" in captured.err
        assert "[adhm_class route, hodge environment, g=2]" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", [
        ["epoly", "--g", "2", "--r", "2", "--d", "1"],
        ["verify-adhm", "--g", "2", "--r", "1", "--trials", "1"],
    ])
    def test_unwritable_out_exits_invalid_input(self, command, monkeypatch, tmp_path, capsys):
        import motiveforge.cli as cli_mod

        def never(*args, **kwargs):
            raise AssertionError("computation ran before --out was checked")

        monkeypatch.setattr(cli_mod, "epoly", never)
        monkeypatch.setattr(cli_mod, "run_adhm_grid", never)
        out = tmp_path / "missing" / "x.json"
        code = main(command + ["--out", str(out)])
        assert code == EXIT_INVALID_INPUT
        captured = capsys.readouterr()
        assert captured.err.startswith("invalid input: cannot write --out")
        assert captured.out == ""
        assert not out.parent.exists()

    def test_out_check_leaves_no_file_behind(self, tmp_path):
        out = tmp_path / "x.json"
        code = main(["epoly", "--g", "2", "--r", "2", "--d", "2", "--out", str(out)])
        assert code == EXIT_INVALID_INPUT
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["betti", "--g", "2", "--r", "1", "--format", "csv"],
        ["verify-adhm", "--g", "2", "--r", "1", "--trials", "1"],
    ])
    @pytest.mark.parametrize("to_file", [False, True])
    def test_failed_write_exits_invalid_input(self, command, to_file, monkeypatch, tmp_path,
                                              capsys):
        # a write that fails after the computation is invalid input, as an
        # unwritable --out is, not a traceback read as an identity failure
        import motiveforge.cli as cli_mod

        if to_file:
            out = tmp_path / "x.out"
            command = command + ["--out", str(out)]
            where = f"--out {out}"
            monkeypatch.setattr(cli_mod, "open", lambda path, mode, **kwargs: _FullDevice()
                                if mode == "w" else open(path, mode, **kwargs), raising=False)
        else:
            where = "stdout"
            monkeypatch.setattr(sys, "stdout", _FullDevice())
        assert main(command) == EXIT_INVALID_INPUT
        assert capsys.readouterr().err == \
            f"invalid input: cannot write {where}: {os.strerror(errno.ENOSPC)}\n"

    @pytest.mark.parametrize("to_file", [False, True])
    def test_identity_failure_outranks_a_failed_write(self, to_file, monkeypatch, tmp_path,
                                                      capsys):
        # the failing cell is named before the report is written, and a
        # write that then fails still exits 1: the failure outranks the report
        import motiveforge.cli as cli_mod

        monkeypatch.setattr(cli_mod, "adhm_class", lambda env, r, p: 0)
        command = ["verify-adhm", "--g", "2", "--r", "1", "--trials", "1", "--hodge", "off"]
        if to_file:
            out = tmp_path / "x.json"
            command += ["--out", str(out)]
            where = f"--out {out}"
            monkeypatch.setattr(cli_mod, "open", lambda path, mode, **kwargs: _FullDevice()
                                if mode == "w" else open(path, mode, **kwargs), raising=False)
        else:
            where = "stdout"
            monkeypatch.setattr(sys, "stdout", _FullDevice())
        assert main(command) == EXIT_IDENTITY_FAILURE
        assert capsys.readouterr().err == (f"identity failure at cell g=2 r=1 d=1 p=1\n"
                                           f"cannot write {where}: {os.strerror(errno.ENOSPC)}\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
    def test_full_stdout_exits_invalid_input(self):
        # stdout is flushed where it is written, so its failure is not left
        # to interpreter exit; a buffered stdout shows the difference
        src = str(Path(motiveforge.__file__).resolve().parents[1])
        env = dict(os.environ)
        env.pop("PYTHONUNBUFFERED", None)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "motiveforge", "betti", "--g", "2", "--r", "1",
                 "--format", "csv"],
                stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=120)
        assert proc.returncode == EXIT_INVALID_INPUT
        assert proc.stderr == f"invalid input: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"

    def test_p_and_dL_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["epoly", "--g", "2", "--r", "2", "--p", "5", "--dL", "-3"])
        assert exc.value.code == EXIT_INVALID_INPUT
        captured = capsys.readouterr()
        assert "argument --dL: not allowed with argument --p" in captured.err
        assert captured.out == ""

    def test_arithmetic_error_exit(self, monkeypatch):
        import motiveforge.cli as cli_mod
        from motiveforge.base_rings import NotDivisible

        def boom(spec):
            raise NotDivisible("synthetic")

        monkeypatch.setattr(cli_mod, "epoly", boom)
        code = main(["epoly", "--g", "2", "--r", "2", "--d", "1", "--p", "1"])
        assert code == EXIT_ARITHMETIC_ERROR

    def test_memory_error_exits_3_not_1(self, monkeypatch, capsys):
        # running out of memory says nothing of the identity: exit 3 with one
        # line, naming the grid cell where one was running
        import motiveforge.cli as cli_mod

        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli_mod, "epoly", exhausted)
        code = main(["epoly", "--g", "2", "--r", "2", "--d", "1", "--p", "1"])
        assert code == EXIT_ARITHMETIC_ERROR
        assert capsys.readouterr().err == "internal error: out of memory\n"
        monkeypatch.setattr(cli_mod, "motive", exhausted)
        code = main(["verify-adhm", "--g", "2", "--r", "2", "--d", "3", "--trials", "1"])
        assert code == EXIT_ARITHMETIC_ERROR
        captured = capsys.readouterr()
        assert captured.err == "internal error: out of memory at cell g=2 r=2 d=3 p=1\n"
        assert captured.out == ""

    def test_adhm_route_error_is_named_and_exits_3(self, monkeypatch, capsys):
        import motiveforge.adhm as adhm

        # charge terms one term short: reading s H_2 at s^1 is past what is known
        charge = adhm.partition_sum
        monkeypatch.setattr(adhm, "partition_sum",
                            lambda env, n, p, j, terms: charge(env, n, p, j, terms - 1))
        code = main(["verify-adhm", "--g", "2", "--r", "2", "--trials", "1", "--hodge", "off"])
        assert code == EXIT_ARITHMETIC_ERROR
        err = capsys.readouterr().err
        assert err.startswith(
            "arithmetic error: coefficient of x^1 requested, series truncated at 0")
        seed = _trial_seed(0, 2, 2, 1, 1, 0)
        assert f"[adhm_class route, weil seed {seed}]" in err and "Traceback" not in err

    def test_motive_route_error_is_named_and_exits_3(self, monkeypatch, capsys):
        import motiveforge.moduli_formulas as formulas
        from motiveforge.base_rings import NotDivisible

        divide = formulas.exact_divide

        def refuse_in_a_12_stratum(num, den):
            # the (1,2) stratum class divides in vhs_class, whose local t is
            # the stratum; every other division goes through
            if getattr(sys._getframe(1).f_locals.get("t"), "ranks", None) == (1, 2):
                raise NotDivisible("synthetic")
            return divide(num, den)

        monkeypatch.setattr(formulas, "exact_divide", refuse_in_a_12_stratum)
        code = main(["verify-adhm", "--g", "2", "--r", "3", "--trials", "1", "--hodge", "off"])
        assert code == EXIT_ARITHMETIC_ERROR
        err = capsys.readouterr().err
        seed = _trial_seed(0, 2, 3, 1, 1, 0)
        assert err == (f"arithmetic error: synthetic [stratum ranks (1, 2), degrees (1, 0)] "
                       f"[motive route, weil seed {seed}]\n")


class TestCommands:
    def test_verify_adhm_auto_compares_exactly_through_genus_6(self, capsys):
        # --hodge auto covers g <= 6; above it only the weil trials run
        code = main(["verify-adhm", "--g", "6..7", "--r", "2", "--p", "1",
                     "--d", "1", "--trials", "1"])
        assert code == EXIT_PASS
        cells = json.loads(capsys.readouterr().out)["cells"]
        assert [(c["g"], c["hodge_equal"]) for c in cells] == [(6, True), (7, None)]

    def test_verify_adhm_pass_and_schema(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["verify-adhm", "--g", "2", "--r", "1..2", "--p", "1",
                     "--d", "1", "--trials", "2", "--seed", "7",
                     "--out", str(out)])
        assert code == EXIT_PASS
        payload = json.loads(out.read_text())
        assert payload["schema"] == 1
        assert payload["all_pass"] is True
        assert len(payload["cells"]) == 2
        for cell in payload["cells"]:
            assert cell["weil_failures"] == 0
            assert cell["seed"] == 7

    def test_verify_adhm_reproducible(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            main(["verify-adhm", "--g", "2", "--r", "1", "--p", "1",
                  "--trials", "2", "--seed", "11", "--out", str(out)])
            payload = json.loads(out.read_text())
            for cell in payload["cells"]:
                cell.pop("wall_time_ms")
            outs.append(payload)
        assert outs[0] == outs[1]

    def test_verify_adhm_skips_invalid_cells(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["verify-adhm", "--g", "2", "--r", "2", "--p", "1",
                     "--d", "1,2", "--trials", "1", "--out", str(out)])
        payload = json.loads(out.read_text())
        assert [(c["r"], c["d"]) for c in payload["cells"]] == [(2, 1)]
        assert payload["skipped"] == [{"g": 2, "r": 2, "d": 2, "p": 1, "reason": "gcd(r, d) != 1"}]
        assert code == EXIT_PASS

    @pytest.mark.parametrize("flags", [
        ["--r", "2", "--d", "2"],
        ["--r", "2,3", "--d", "6", "--g", "2..3"],
    ])
    def test_verify_adhm_refuses_a_grid_with_every_cell_skipped(self, flags, monkeypatch, capsys):
        # no cell would run, so the grid would pass vacuously
        import motiveforge.cli as cli_mod

        monkeypatch.setattr(cli_mod, "_adhm_cell", _must_not_run)
        code = main(["verify-adhm", "--trials", "1"] + flags)
        assert code == EXIT_INVALID_INPUT
        captured = capsys.readouterr()
        assert "every cell of the grid has gcd(r, d) != 1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flags, message", [
        (["--g", "1", "--r", "2", "--d", "2"], "genus"),
        (["--g", "2", "--r", "4", "--d", "2"], "rank"),
        (["--g", "2", "--r", "2", "--d", "2,4", "--p", "0"], "twist degree"),
    ])
    def test_verify_adhm_validates_skipped_cells(self, flags, message, capsys):
        # every cell here has gcd(r, d) != 1, but its g, r or p is invalid
        code = main(["verify-adhm", "--trials", "1"] + flags)
        assert code == EXIT_INVALID_INPUT
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_invalid_input_exit_code(self, capsys):
        code = main(["motive", "--g", "2", "--r", "2", "--d", "2", "--p", "1"])
        assert code == EXIT_INVALID_INPUT
        assert "gcd" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--g", "1"], "genus"),
        (["--p", "0"], "twist degree"),
        (["--trials", "0"], "trials"),
    ])
    def test_verify_adhm_invalid_grid_exit_code(self, flags, message, capsys):
        code = main(["verify-adhm", "--r", "1"] + flags)
        assert code == EXIT_INVALID_INPUT
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["motive", "--g", "99999999999999999999", "--r", "2"],
        ["motive", "--g", "99999999999999999999", "--r", "2", "--realization", "weil"],
        ["epoly", "--g", "2", "--r", "2", "--d", "1", "--p", "99999999999999999999"],
        ["epoly", "--g", "2", "--r", "2", "--d", "1", "--dL", "-99999999999999999999"],
        ["betti", "--g", "2", "--r", "1", "--p", "99999999999999999999"],
        ["verify-adhm", "--g", "2", "--r", "1", "--p", "99999999999999999999"],
    ])
    def test_over_budget_exits_invalid_input(self, argv, monkeypatch, capsys):
        # refused by the input budget before any work; these ended in an
        # OverflowError traceback or ran on without end
        for name in ("adhm_class", "epoly", "motive", "make_hodge_env", "make_weil_env"):
            monkeypatch.setattr(f"motiveforge.cli.{name}", _must_not_run)
        assert main(argv) == EXIT_INVALID_INPUT
        captured = capsys.readouterr()
        assert "input budget" in captured.err
        assert captured.out == ""

    def test_over_budget_range_exits_invalid_input(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify-adhm", "--g", "2..99999999999999999999", "--r", "1"])
        assert exc.value.code == EXIT_INVALID_INPUT
        assert "input budget" in capsys.readouterr().err

    @pytest.mark.parametrize("values", [
        ",".join(str(2 + i % 5) for i in range(5000)),
        ",".join(["1..999"] * 10),
    ])
    def test_over_budget_list_exits_invalid_input(self, values, monkeypatch, capsys):
        # every value of a list counts against the budget, not each range alone
        monkeypatch.setattr("motiveforge.cli._adhm_cell", _must_not_run)
        with pytest.raises(argparse.ArgumentTypeError, match="input budget"):
            parse_range(values)
        with pytest.raises(SystemExit) as exc:
            main(["verify-adhm", "--p", values, "--r", "1"])
        assert exc.value.code == EXIT_INVALID_INPUT
        assert "input budget" in capsys.readouterr().err
        assert len(parse_range("1..500,501..1000")) == INPUT_BUDGET

    def test_over_budget_grid_exits_invalid_input(self, monkeypatch, capsys):
        # each range is within the budget, the 897,000 cells are not
        from motiveforge import cli

        monkeypatch.setattr(cli, "_adhm_cell", _must_not_run)
        monkeypatch.setattr(cli, "ModuliSpec", _must_not_run)
        argv = ["verify-adhm", "--g", "2..300", "--r", "1", "--p", "1..300", "--d", "1..10"]
        assert main(argv) == EXIT_INVALID_INPUT
        captured = capsys.readouterr()
        assert "input budget" in captured.err and captured.out == ""
        with pytest.raises(InvalidSpec, match="input budget"):
            cli.run_adhm_grid([2] * 11, [1] * 10, [1] * 10, [1], trials=1, seed=0)

    def test_over_budget_trials_exit_invalid_input(self, monkeypatch, capsys):
        # a trial count above the budget ran until killed
        from motiveforge import cli

        monkeypatch.setattr(cli, "_adhm_cell", _must_not_run)
        argv = ["verify-adhm", "--g", "2", "--r", "1", "--trials", "99999999999999999999"]
        assert main(argv) == EXIT_INVALID_INPUT
        captured = capsys.readouterr()
        assert "input budget" in captured.err and captured.out == ""
        with pytest.raises(InvalidSpec, match="input budget"):
            cli.run_adhm_grid([2], [1], [1], [1], trials=INPUT_BUDGET + 1, seed=0)
        # the budget itself is accepted: the cell is reached
        def reached(cell):
            raise RuntimeError(f"a cell ran with {cell[4]} trials")

        monkeypatch.setattr(cli, "_adhm_cell", reached)
        with pytest.raises(RuntimeError, match=f"a cell ran with {INPUT_BUDGET} trials"):
            cli.run_adhm_grid([2], [1], [1], [1], trials=INPUT_BUDGET, seed=0)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_any_argv_keeps_the_exit_code_contract(self, data):
        # each flag takes a cheap valid value or a small, huge or malformed
        # one; verify-adhm runs one weil trial per cell, in-process
        valid = {"--g": ["2", "3"], "--r": ["1", "2", "3"], "--d": ["1", "2"],
                 "--p": ["1", "2"], "--dL": ["-3", "-6"], "--seed": ["0", "5"],
                 "--format": ["json", "csv", "latex"], "--realization": ["hodge", "weil"]}
        edge = st.one_of(st.integers(-3, 4).map(str), st.sampled_from(
            ["0", "99999999999999999999", "-99999999999999999999", "x", "",
             "2..3", "3..2", "1,2", "2..99999999999999999999"]))
        command = data.draw(st.sampled_from(["motive", "epoly", "betti", "verify-adhm"]))
        optional = {"motive": ["--d", "--p", "--dL", "--realization", "--seed"],
                    "epoly": ["--d", "--p", "--dL", "--format"],
                    "betti": ["--d", "--p", "--dL", "--format"],
                    "verify-adhm": ["--g", "--r", "--d", "--p", "--seed"]}[command]
        flags = [] if command == "verify-adhm" else ["--g", "--r"]
        flags += data.draw(st.lists(st.sampled_from(optional), unique=True, max_size=3))
        argv = [command]
        for flag in flags:
            argv += [flag, data.draw(st.one_of(st.sampled_from(valid[flag]), edge))]
        if command == "verify-adhm":
            argv += ["--trials", "1", "--hodge", "off", "--threads", "1"]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (EXIT_PASS, EXIT_IDENTITY_FAILURE, EXIT_INVALID_INPUT,
                        EXIT_ARITHMETIC_ERROR), (argv, code)
        assert "Traceback" not in err.getvalue(), argv

    def test_threads_env_var_is_ignored(self, monkeypatch, tmp_path):
        monkeypatch.setenv("MOTIVE_FORGE_THREADS", "x")
        code = main(["verify-adhm", "--g", "2", "--r", "1", "--trials", "1",
                     "--out", str(tmp_path / "r.json")])
        assert code == EXIT_PASS

    def test_motive_weil_json(self, tmp_path):
        out = tmp_path / "m.json"
        code = main(["motive", "--g", "2", "--r", "1", "--d", "1", "--p", "1",
                     "--realization", "weil", "--seed", "3", "--out", str(out)])
        assert code == EXIT_PASS
        payload = json.loads(out.read_text())
        assert payload["environment"]["seed"] == 3
        assert "/" in payload["motive"] or payload["motive"].lstrip("-").isdigit()
        assert payload["spec"]["dL"] == -3

    def test_epoly_rank1_text(self, tmp_path):
        out = tmp_path / "e.json"
        code = main(["epoly", "--g", "2", "--r", "1", "--p", "1",
                     "--out", str(out)])
        assert code == EXIT_PASS
        payload = json.loads(out.read_text())
        # (uv)^(g-1+p) (1-u)^g (1-v)^g has top term u^4 v^4 and constant 0
        terms = {(t["u"], t["v"]): t["coeff"] for t in payload["epoly"]["terms"]}
        assert terms[(4, 4)] == "1"
        assert (0, 0) not in terms

    def test_betti_json(self, tmp_path):
        out = tmp_path / "b.json"
        code = main(["betti", "--g", "2", "--r", "2", "--d", "1", "--p", "1",
                     "--out", str(out)])
        assert code == EXIT_PASS
        payload = json.loads(out.read_text())
        assert payload["betti"][0] == 1
        assert payload["betti"][1] == 4

    def test_betti_csv(self, tmp_path):
        out = tmp_path / "b.csv"
        main(["betti", "--g", "2", "--r", "1", "--p", "1", "--format", "csv",
              "--out", str(out)])
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "k,b_k"
        assert lines[1] == "0,1"

    def test_epoly_latex(self, tmp_path):
        out = tmp_path / "e.tex"
        main(["epoly", "--g", "2", "--r", "1", "--p", "1", "--format", "latex",
              "--out", str(out)])
        text = out.read_text()
        assert "u^{" in text and "v^{" in text

    def test_motive_weil_latex_mentions_lefschetz_and_lambda(self, tmp_path):
        out = tmp_path / "m.tex"
        main(["motive", "--g", "2", "--r", "1", "--p", "1",
              "--realization", "weil", "--seed", "2", "--format", "latex",
              "--out", str(out)])
        text = out.read_text()
        assert r"\mathbb{L}" in text
        assert r"\lambda^{1}(h^1)" in text

    def test_dl_flag(self, tmp_path):
        out = tmp_path / "m.json"
        code = main(["motive", "--g", "2", "--r", "1", "--d", "1",
                     "--dL", "-4", "--out", str(out)])
        assert code == EXIT_PASS
        payload = json.loads(out.read_text())
        assert payload["spec"]["p"] == 2

    @pytest.mark.parametrize("command,fmt,digest", [
        ("motive --realization hodge", "json",
         "af75b6be097c91ed13904deaef7359e694be0844362ce59b7c0eacc00fd37f69"),
        ("motive --realization hodge", "csv",
         "5259d4721bb0e4d37a3d2cf666d55866e00b6589303d39ae925425ed3d9f7baf"),
        ("motive --realization hodge", "latex",
         "5a8be6ea2118f1001793bccecca500cb6a431c9c3616e525226271550dd22e0b"),
        ("motive --realization weil", "json",
         "2b35d08664adfc2997ba6427e6d03e31148922c6dfa16130a1b1e1a3fddef244"),
        ("motive --realization weil", "csv",
         "2f888a0e1684b0969ae5effdfa751b99cc0ade88385f2c1fd8a851171d229b40"),
        ("motive --realization weil", "latex",
         "5d7ce380f79c4dac6feb066b3afd006ec0cb38f075f8e23afbb8070899d8840f"),
        ("epoly", "json",
         "b3df98b80e6e983f19f7d58eb991ac01cad48e87b8a4871e48fdfcfdc1e7c424"),
        ("epoly", "csv",
         "5259d4721bb0e4d37a3d2cf666d55866e00b6589303d39ae925425ed3d9f7baf"),
        ("epoly", "latex",
         "5a8be6ea2118f1001793bccecca500cb6a431c9c3616e525226271550dd22e0b"),
        ("betti", "json",
         "fccf395d63e98786edf1491c86b63d2b70548c3d964c43573326f295e84b9332"),
        ("betti", "csv",
         "42dbb7e5ee3f17be05d00e69c62ae76a180152e07265b51646034d70587750ea"),
        ("betti", "latex",
         "0b19b10d314bb170723feec26a6a9110901da007760197acaa613cb3841c6775"),
    ])
    def test_output_is_byte_identical_to_the_golden_digest(self, command, fmt, digest, capsys):
        # every subcommand's stdout at (g, r, d, p) = (2, 2, 1, 1), pinned
        # byte for byte in each format
        code = main(command.split() + ["--g", "2", "--r", "2", "--d", "1", "--p", "1",
                                       "--format", fmt])
        assert code == EXIT_PASS
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_module_entry_point_is_clean(self):
        # `python -m motiveforge` runs __main__.py; unlike `-m motiveforge.cli`
        # it must not warn about the cli module being imported twice
        src = str(Path(motiveforge.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run(
            [sys.executable, "-m", "motiveforge", "epoly",
             "--g", "2", "--r", "2", "--d", "1", "--p", "1"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == EXIT_PASS
        assert proc.stderr == ""
        assert proc.stdout
