"""The column-wise CSV writer against the row-wise ``csv.writer`` one it
replaced, byte for byte.

``ref_csv`` is the earlier ``Table._rows`` generator fed through
``csv.writer(lineterminator="\\n")``, copied; on Python 3.10-3.12 it quotes
exactly the cells that hold ``,``, ``"`` or ``\\n``, as the new writer does
on every version.
"""

import csv
import io
import math
import random
import sys
from operator import itemgetter

import numpy as np
import pytest

from eigenbox import reporting
from eigenbox.bounds import BoundReport
from eigenbox.cli import main
from eigenbox.lattice import count_bundle
from eigenbox.optimize import OptimalRecord
from eigenbox.reporting import (
    _CELL_RULES,
    _CHUNK,
    COUNT,
    OPTIMIZE,
    SPECTRUM,
    VERIFY,
    Table,
    _field,
    spectrum_records,
)
from eigenbox.spectrum import Cuboid, spectrum_points
from eigenbox.suites import SUITE_NAMES, run_suite

# csv.writer quotes a bare "\r" from Python 3.13 on, so there the reference
# and the new writer part on such a cell; every other input agrees.
REF_QUOTES_BARE_CR = sys.version_info >= (3, 13)


def ref_cell(value):
    return _CELL_RULES.get(type(value), str)(value)


def ref_rows(table, records):
    schema = str(table.schema)
    first, *rest = (get for _, _, get in table.fields)
    for record in records:
        cells = [ref_cell(get(record)) for get in rest]
        ks = first(record)
        for k in map(str, ks) if isinstance(ks, range) else [ref_cell(ks)]:
            yield [schema, k, *cells]


def ref_csv(table, records):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(table.columns)
    writer.writerows(ref_rows(table, records))
    return out.getvalue()


def assert_same_bytes(table, records):
    text = table.csv(records)
    assert text.encode() == ref_csv(table, records).encode()
    buf = io.StringIO()
    table.write_csv(buf, records)
    assert buf.getvalue() == text


def bench_boxes(seed=1):
    """The boxes of the spectrum benchmark workload: three drawn, then the cube."""
    rng = random.Random(seed)
    boxes = []
    for a3, (lo, hi) in ((1.25, (0.65, 0.88)), (1.5, (0.45, 0.8)), (3.0, (0.25, 0.35))):
        a1 = rng.uniform(lo, hi)
        boxes.append((a1, 1.0 / (a1 * a3)))
    return boxes + [(1.0, 1.0)]


@pytest.mark.parametrize("a1, a2", bench_boxes(), ids=repr)
def test_spectrum_k3000_equals_reference(a1, a2):
    cuboid = Cuboid.from_sides(a1, a2)
    records = spectrum_records(spectrum_points(cuboid, 3000), 3000, cuboid.is_cube)
    assert len(records) > _CHUNK or cuboid.is_cube
    assert_same_bytes(SPECTRUM, records)


def test_verify_all_equals_reference():
    reports = [r for name in SUITE_NAMES for r in run_suite(name, 50, 4)]
    assert_same_bytes(VERIFY, reports)


def test_optimize_with_a_failed_record_equals_reference():
    records = [
        OptimalRecord(1, Cuboid(1.0, 1.0, 1.0), 3 * math.pi**2, 3 * math.pi**2, 0.0, 1, 4,
                      "certified"),
        OptimalRecord(2, Cuboid.from_sides(0.8, 0.9), 40.1, np.float64(40.0), 0.389, 1, 60,
                      "certified"),
        OptimalRecord(3, None, math.nan, math.nan, math.nan, 0, 0,
                      'failed: band holds 9000 candidates, cap "8000"'),
    ]
    assert_same_bytes(OPTIMIZE, records)
    assert OPTIMIZE.csv(records).splitlines()[3] == (
        '2,3,nan,nan,nan,nan,nan,nan,0,0,"failed: band holds 9000 candidates, cap ""8000"""'
    )


def test_count_equals_reference():
    box = Cuboid.from_sides(0.7, 0.9)
    assert_same_bytes(COUNT, [(box, count_bundle(box, 500.0))])


MIXED = Table("rows", tuple(
    _field(column, itemgetter(i)) for i, column in enumerate(("k", "x", "flag", "n", "text"))
))


def test_mixed_type_columns_equal_reference():
    records = [
        (1, 0.1, True, 3, "a"),
        (range(2, 4), np.float64(0.1), np.True_, 3.0, "b,c"),
        (4.5, math.nan, np.False_, -0.0, ""),
        (np.float64(5.0), np.float64(-math.inf), False, 7, 'q"'),
    ]
    assert_same_bytes(MIXED, records)
    assert MIXED.csv(records).splitlines()[1:] == [
        "1,1,0.10000000000000001,true,3,a",
        '1,2,0.10000000000000001,true,3,"b,c"',
        '1,3,0.10000000000000001,true,3,"b,c"',
        "1,4.5,nan,false,-0,",
        '1,5,-inf,false,7,"q"""',
    ]


def test_range_straddling_a_chunk_boundary_equals_reference():
    # The (_CHUNK)th record's range runs from row _CHUNK - 1 to row _CHUNK + 3,
    # and 2 * _CHUNK + 5 records fill two chunks and part of a third.
    records = [(k, float(k), 1, ((k, 1, 1),)) for k in range(1, _CHUNK)]
    records.append((range(_CHUNK, _CHUNK + 5), 0.5, 5, ((1, 2, 3), (3, 2, 1))))
    records += [(range(k, k + 1), k / 7, 1, ()) for k in range(_CHUNK + 5, 2 * _CHUNK + 10)]
    table = Table("rows", tuple(
        _field(column, itemgetter(i)) for i, column in enumerate(("k", "x", "m", "indices"))
    ))
    assert_same_bytes(table, records)
    lines = table.csv(iter(records)).splitlines()
    assert len(lines) == 1 + 2 * _CHUNK + 9
    assert lines[_CHUNK + 2] == f'1,{_CHUNK + 2},0.5,5,"1,2,3;3,2,1"'


@pytest.mark.parametrize("table", [OPTIMIZE, VERIFY, SPECTRUM, COUNT, MIXED],
                         ids=["optimize", "verify", "spectrum", "count", "mixed"])
def test_no_records_gives_the_header_only(table):
    assert table.csv([]) == ",".join(table.columns) + "\n"
    assert_same_bytes(table, [])


@pytest.mark.parametrize("text, cell", [
    ("plain", "plain"),
    ("", ""),
    (" ", " "),
    ("a,b", '"a,b"'),
    ('say "hi"', '"say ""hi"""'),
    ('"', '""""'),
    ("two\nlines", '"two\nlines"'),
    ("cr\r\nlf", '"cr\r\nlf"'),
    ("bare\rcr", "bare\rcr"),
    (",\n\"", '",\n"""'),
])
def test_quoting_rule_bytes(text, cell):
    table = Table("rows", (_field("k", itemgetter(0)), _field("text", itemgetter(1))))
    records = [(range(1, 3), text), (3, "plain")]
    out = table.csv(records)
    assert out == f"schema_version,k,text\n1,1,{cell}\n1,2,{cell}\n1,3,plain\n"
    if not (REF_QUOTES_BARE_CR and "\r" in text and "\n" not in text):
        assert out == ref_csv(table, records)


def test_quoted_first_cell():
    reports = [BoundReport('a,"b"', {"y": 1.0}, 1.0, 2.0), BoundReport("c", {"y": 2.0}, 3.0, 2.0)]
    lines = VERIFY.csv(reports).splitlines()
    assert lines[1] == '1,"a,""b""",y=1,1,2,1,true'
    assert lines[2] == "1,c,y=2,3,2,-1,false"
    assert_same_bytes(VERIFY, reports)


@pytest.fixture
def csv_calls(monkeypatch):
    calls = []
    inner = reporting.write_csv

    def counting(*args, **kwargs):
        calls.append(args[1])
        return inner(*args, **kwargs)

    monkeypatch.setattr(reporting, "write_csv", counting)
    return calls


@pytest.mark.parametrize("argv, table", [
    (["spectrum", "--a1", "0.7", "--a2", "0.9", "--k", "50"], SPECTRUM),
    (["verify", "--suite", "all", "--samples", "5", "--seed", "3"], VERIFY),
])
def test_cli_formats_through_the_module_writer(capsys, csv_calls, argv, table):
    # A tracer times the reporting layer by rebinding reporting.write_csv, so
    # every CSV the CLI writes goes through that one module-level name.
    assert main(argv) == 0
    assert csv_calls == [table]
    assert capsys.readouterr().out.startswith(",".join(table.columns) + "\n")
