"""``python -m eigenbox.cli`` runs the command line, as the ``eigenbox`` script does.

A module run that did nothing would print nothing and exit 0, so a
verification that never ran would read as passed.  Each case runs in a
fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import eigenbox

SRC = str(Path(eigenbox.__file__).resolve().parents[1])


def run_module(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "eigenbox.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def test_verify_prints_a_header_and_its_rows():
    proc = run_module("verify", "--suite", "identity", "--samples", "5")
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.startswith("schema_version,suite,")
    assert len(rows) == 5
    assert all(row.split(",")[1] == "identity" and row.endswith(",true") for row in rows)


def test_bad_input_exits_2():
    proc = run_module("verify", "--suite", "identity", "--samples", "0")
    assert proc.returncode == 2
    assert "--samples must be positive" in proc.stderr
    assert proc.stdout == ""
