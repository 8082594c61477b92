"""Byte-exact CLI outputs for every command and format.

Each file under ``tests/golden/`` was written by an earlier version of the
writers; a change to the bytes of any output shows up here.
"""

import re
from pathlib import Path

import pytest

from eigenbox import reporting
from eigenbox.cli import main

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parents[1] / "README.md"

OPTIMIZE = [
    "optimize", "--k-min", "8", "--k-max", "32", "--dyadic",
    "--candidate-cap", "8000",
]
# k = 32 fails at this cap (a level of its search stores more rows) and
# k = 8 and 16 do not, so the file holds both nan sides and written ones.
OPTIMIZE_FAILING = OPTIMIZE[:-1] + ["200"]
VERIFY = ["verify", "--suite", "all", "--samples", "5", "--seed", "3"]
COUNT_CUBE = ["count", "--a1", "1", "--a2", "1", "--lambda", "500"]
COUNT_BOX = ["count", "--a1", "0.7", "--a2", "0.9", "--lambda", "500"]

CASES = [
    ("optimize_k8-32_cap8000.csv", OPTIMIZE),
    ("optimize_k8-32_cap8000.json", OPTIMIZE + ["--format", "json"]),
    ("optimize_k8-32_cap200.csv", OPTIMIZE_FAILING),
    ("optimize_k8-32_cap200.json", OPTIMIZE_FAILING + ["--format", "json"]),
    ("verify_all_s5_seed3.csv", VERIFY),
    ("verify_all_s5_seed3.json", VERIFY + ["--format", "json"]),
    ("count_cube_lam500.csv", COUNT_CUBE + ["--format", "csv"]),
    ("count_cube_lam500.json", COUNT_CUBE),
    ("count_0.7_0.9_lam500.csv", COUNT_BOX + ["--format", "csv"]),
    ("count_0.7_0.9_lam500.json", COUNT_BOX),
]


@pytest.mark.parametrize("golden, argv", CASES, ids=[name for name, _ in CASES])
def test_output_bytes(capsys, golden, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN / golden).read_bytes()


def test_optimize_golden_holds_a_failed_record():
    text = (GOLDEN / "optimize_k8-32_cap200.csv").read_text()
    assert ",nan,nan,nan,nan,nan,nan,0,0,failed: " in text
    assert '"a1": null' in (GOLDEN / "optimize_k8-32_cap200.json").read_text()


def test_readme_lists_every_csv_header():
    text = README.read_text()
    schemas = text[text.index("## Output schemas"):text.index("## Library surface")]
    documented = dict(re.findall(r"^- (\w+) CSV: `([^`]+)`", schemas, flags=re.M))
    tables = {
        "optimize": reporting.OPTIMIZE,
        "verify": reporting.VERIFY,
        "spectrum": reporting.SPECTRUM,
        "count": reporting.COUNT,
    }
    assert documented.keys() == tables.keys()
    for name, table in tables.items():
        assert documented[name] == ",".join(table.columns), name
        if table.top is not None:
            assert f"under `{table.top}`" in schemas, name
