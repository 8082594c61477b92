import csv
import io
import json
import math

import numpy as np
import pytest

from eigenbox.bounds import BoundReport
from eigenbox.lattice import count_bundle
from eigenbox.optimize import OptimizerConfig, sweep
from eigenbox.reporting import (
    _CELL_RULES,
    COUNT,
    OPTIMIZE,
    SCHEMA_VERSION,
    SPECTRUM,
    VERIFY,
    fmt_float,
    parse_bool,
    read_optimize_csv,
    write_optimize_csv,
)
from eigenbox.spectrum import UNIT_CUBE

FAST = OptimizerConfig()


def test_float_format_roundtrips():
    values = [0.1, 1.0 / 3.0, math.pi**2 * 3, 1e-17, 12345.6789, 4 ** (1 / 3)]
    for x in values:
        assert float(fmt_float(x)) == x


def test_bool_roundtrip():
    assert parse_bool("true") is True
    assert parse_bool("false") is False


def test_optimize_csv_roundtrip_bit_identical():
    records = sweep([1, 2, 4], FAST)
    buf = io.StringIO()
    write_optimize_csv(buf, records)
    text = buf.getvalue()
    assert text.splitlines()[0] == ",".join(OPTIMIZE.columns)
    parsed = read_optimize_csv(io.StringIO(text))
    assert parsed == records
    buf2 = io.StringIO()
    write_optimize_csv(buf2, parsed)
    assert buf2.getvalue() == text


def test_optimize_json_schema():
    records = sweep([1], FAST)
    payload = json.loads(OPTIMIZE.json(records))
    assert payload["schema_version"] == OPTIMIZE.schema == 2
    row = payload["records"][0]
    assert row["k"] == 1
    assert row["a3"] == records[0].cuboid.a3


def test_verify_csv_schema():
    reports = [
        BoundReport("demo", {"y": 1.0, "n": 2}, 1.0, 2.0),
        BoundReport("demo", {"y": 0.5, "n": 1}, 3.0, 2.0),
    ]
    buf = io.StringIO()
    VERIFY.write_csv(buf, reports)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ",".join(VERIFY.columns)
    assert lines[1].startswith(f"{SCHEMA_VERSION},demo,")
    assert lines[1].endswith(",true")
    assert lines[2].endswith(",false")
    payload = json.loads(VERIFY.json(reports))
    assert payload["reports"][0]["pass"] is True


def test_bundle_serialisation():
    bundle = count_bundle(UNIT_CUBE, 3 * math.pi**2)
    payload = json.loads(COUNT.json([(UNIT_CUBE, bundle)]))
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["T"] == 27
    assert payload["identity_ok"] is True
    text = COUNT.csv([(UNIT_CUBE, bundle)])
    header, row = text.splitlines()
    assert header.split(",")[0] == "schema_version"
    assert row.split(",")[6] == "27"


# ---------------------------------------------------------------------------
# The cell rules that Table._rows looks up inline give the bytes of the
# per-cell helper they replaced; ``ref_cell`` is that helper, copied.
# ---------------------------------------------------------------------------


def ref_fmt_float(x):
    return format(float(x), ".17g")


def ref_cell(value):
    return REF_CELL_RULES.get(type(value), str)(value)


REF_CELL_RULES = {
    float: ref_fmt_float,
    np.float64: ref_fmt_float,
    bool: lambda flag: "true" if flag else "false",
    # a report's inputs
    dict: lambda inputs: ";".join([f"{key}={ref_cell(v)}" for key, v in inputs.items()]),
    # lattice index triples
    tuple: lambda indices: ";".join(["%s,%s,%s" % t for t in indices]),
}
REF_CELL_RULES[np.bool_] = REF_CELL_RULES[bool]


def ref_csv(table, records):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(table.columns)
    first, *rest = (get for _, _, get in table.fields)
    for record in records:
        cells = [ref_cell(get(record)) for get in rest]
        ks = first(record)
        for k in map(str, ks) if isinstance(ks, range) else [ref_cell(ks)]:
            writer.writerow([str(SCHEMA_VERSION), k, *cells])
    return out.getvalue()


EDGE_FLOATS = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, float(2**53 + 2),
    np.float64(0.1), np.float64(-0.0), np.float64(math.nan), 1.0 / 3.0, -1e300,
]


@pytest.mark.parametrize("x", EDGE_FLOATS, ids=repr)
def test_float_cell_rule_is_format_17g(x):
    assert fmt_float(x) == format(float(x), ".17g")
    assert _CELL_RULES[type(x)](x) == format(float(x), ".17g")


def test_bool_cell_rules():
    for flag in (True, False, np.True_, np.False_):
        assert _CELL_RULES[type(flag)](flag) == ("true" if flag else "false")


def test_verify_csv_quoting_equals_reference():
    awkward = ['plain', 'a,b', 'say "hi"', 'two\nlines', 'cr\r\nlf', '', ' ', '"', ',\n"']
    reports = [
        BoundReport(name, {"note": text, "y": y, "flag": np.True_, "n": 3}, y, rhs)
        for name, text in zip(awkward, reversed(awkward))
        for y, rhs in [(0.5, 1.0), (np.float64(2.0), -0.0), (math.nan, math.inf)]
    ]
    text = VERIFY.csv(reports)
    assert text == ref_csv(VERIFY, reports)
    buf = io.StringIO()
    VERIFY.write_csv(buf, reports)
    assert buf.getvalue() == text


def test_spectrum_csv_equals_reference():
    # A range of k expands to one row per k; strings with commas are quoted.
    records = [
        (range(1, 4), np.float64(3.0) * math.pi**2, 3, 3, ((1, 1, 2), (1, 2, 1), (2, 1, 1))),
        (range(4, 5), 12.5, 1.2665147955292222, 1, ((1, 2, 2),)),
        (5, math.nan, -0.0, 0, ()),
    ]
    assert SPECTRUM.csv(records) == ref_csv(SPECTRUM, records)
