"""The runnable scripts under scripts/, run as subprocesses."""

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import motiveforge

ROOT = Path(__file__).resolve().parents[1]
EMIT_TABLES = ROOT / "scripts" / "emit_tables.py"


def _emit_tables(*flags):
    env = dict(os.environ)
    src = str(Path(motiveforge.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(EMIT_TABLES), *flags], env=env,
                          capture_output=True, text=True, timeout=120)


def test_emit_tables_csv():
    done = _emit_tables("--g", "2", "--r", "1..3", "--p", "1", "--betti-head", "3")
    assert done.returncode == 0, done.stderr
    rows = list(csv.reader(io.StringIO(done.stdout)))
    assert rows[0] == ["g", "r", "p", "dim", "terms", "euler", "b0", "b1", "b2"]
    assert [row[:4] for row in rows[1:]] == [["2", "1", "1", "4"], ["2", "2", "1", "13"],
                                             ["2", "3", "1", "28"]]
    assert all(len(row) == 9 for row in rows[1:])


@pytest.mark.parametrize("flags, message", [
    (["--betti-head", "-3"], "--betti-head"),
    (["--betti-head", "1000000000000000"], "--betti-head"),
    (["--g", "1"], "invalid input: genus"),
    (["--r", "4"], "invalid input: rank"),
])
def test_emit_tables_invalid_input_exits_2(flags, message):
    done = _emit_tables(*flags)
    assert done.returncode == 2
    assert message in done.stderr
    assert "Traceback" not in done.stderr and done.stdout == ""


def test_emit_tables_refuses_a_grid_over_the_budget():
    # each list is within the budget; their product (2,997,000 cells) is not
    done = _emit_tables("--g", "2..1000", "--r", "1..3", "--p", "1..1000")
    assert done.returncode == 2
    assert "invalid input: grid of 2997000 cells exceeds the input budget" in done.stderr
    assert "Traceback" not in done.stderr and done.stdout == ""
