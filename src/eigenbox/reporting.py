r"""Stable CSV/JSON serialisation for records and reports.

Each record type has one field table, and both formats derive from it.  A
table entry is (CSV column, JSON key, getter returning a typed value).  One
cell rule turns a typed value into a CSV cell; floats get 17 significant
digits, so a written value re-parses to the identical bits.  One JSON rule
turns a NaN float into null.  The writers put ``schema_version`` first in
every CSV row and at the top of every JSON document, and emit rows in a fixed
order with a fixed line terminator, which makes output byte-identical across
runs and worker counts.

Both writers stream.  The JSON writer dumps ``_CHUNK`` entries at a time and
splices them into the document, in the bytes of one ``json.dumps(document,
indent=2)``.  The CSV writer formats ``_CHUNK`` records at a time, by %
templates.  A column whose values share a type of ``_TEMPLATES`` (float or
int) enters the row's template as that type's template and is never
formatted on its own; any other column becomes its cells, one rule in one
``map``, quoted where a cell needs it.  A chunk whose records stand for one
row each is one % a row; in any other chunk a record's cells after the first
are formatted once, so a range record writes them once for all its rows.  A
cell is quoted when it holds ``,``, ``"`` or ``\n``: it is wrapped in ``"``
with each inner ``"`` doubled, and nothing else is quoted, a bare ``\r``
included.  That is ``csv.writer`` with ``lineterminator="\n"`` on Python
3.10-3.12 (3.13's also quotes a bare ``\r``, 3.10's refuses a NUL), and the
bytes do not depend on the Python version.
"""

from __future__ import annotations

import io
import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, islice, repeat
from operator import attrgetter, itemgetter, truediv
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, get_type_hints

import numpy as np

from .spectrum import PI_SQUARED, Cuboid, SpectralPoint

if TYPE_CHECKING:
    from .optimize import OptimalRecord

# The schema of every table but OPTIMIZE, whose records carry a certified
# bound since version 2.
SCHEMA_VERSION = 1

# Records formatted per pass of the CSV writer, and entries per dump of the
# JSON writer, which bounds their memory whatever the number of records.
_CHUNK = 1024


# A float or np.float64 with 17 significant digits: the bytes of
# format(float(x), ".17g"), without a Python call.
fmt_float = "%.17g".__mod__


def parse_bool(s: str) -> bool:
    if s == "true":
        return True
    if s == "false":
        return False
    raise ValueError(f"not a serialised bool: {s!r}")


def _cell(value: Any) -> str:
    """The CSV cell of a typed value; a type without a rule is written by str."""
    return _CELL_RULES.get(type(value), str)(value)


_CELL_RULES = {
    float: fmt_float,
    np.float64: fmt_float,
    bool: lambda flag: "true" if flag else "false",
    # a report's inputs: its input_repr cell
    dict: lambda inputs: _inputs_cells([inputs])[0],
    # lattice index triples; a window of one triple, as nearly every window
    # of a generic box, is written by one %, without a join
    tuple: lambda indices: (
        "%s,%s,%s" % indices[0] if len(indices) == 1
        else ";".join(["%s,%s,%s" % t for t in indices])
    ),
}
_CELL_RULES[np.bool_] = _CELL_RULES[bool]


def _json_value(value: Any) -> Any:
    return None if isinstance(value, float) and math.isnan(value) else value


# The % template of a value type: the bytes of its cell rule, which never
# need quoting.  An input_repr cell, and a row of the CSV writer, formats
# values of these types by template; any other value by its cell rule.
_TEMPLATES = {float: "%.17g", np.float64: "%.17g", int: "%d"}


def _inputs_rule(keys: tuple, kinds: tuple) -> Callable[[tuple], str]:
    """The input_repr cell of the values of a dict with these keys and value
    types, by one % template."""
    fmt = ";".join([f"{key}=".replace("%", "%%") + _TEMPLATES.get(kind, "%s")
                    for key, kind in zip(keys, kinds)])
    if all(kind in _TEMPLATES for kind in kinds):
        return fmt.__mod__
    rules = [kind not in _TEMPLATES for kind in kinds]
    return lambda values: fmt % tuple([_cell(v) if rule else v for v, rule in zip(values, rules)])


def _inputs_cells(column: list[dict]) -> list[str]:
    """The input_repr cell of each dict of ``column``: its ``key=cell``
    pairs joined by ``;``, by one % template per signature (keys, value
    types)."""
    rules, cells = {}, []
    for inputs in column:
        values = tuple(inputs.values())
        signature = (tuple(inputs), tuple(map(type, values)))
        rule = rules.get(signature)
        if rule is None:
            rule = rules[signature] = _inputs_rule(*signature)
        cells.append(rule(values))
    return cells


def _column(values: list) -> tuple[str, list]:
    """One column of a chunk as (template, items) for the row template: a
    column whose values share a type of ``_TEMPLATES`` is that template and
    its values as they are; any other column is its cells, quoted where a
    cell needs it, under "%s" (or under '"%s"', which quotes them)."""
    kinds = set(map(type, values))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind in _TEMPLATES:
        return _TEMPLATES[kind], values
    if kind is tuple:
        cells = list(map(_CELL_RULES[tuple], values))
        # A nonempty index cell always holds a comma and so is quoted, and
        # an index never holds a quote: then the template quotes every cell
        # in the row's one %, with no pass over the cells of its own.  An
        # empty cell, or one with a quote, takes the rule below.
        if "" not in cells and not any(map(str.__contains__, cells, repeat('"'))):
            return '"%s"', cells
    elif kind is dict:
        cells = _inputs_cells(values)
    else:
        cells = list(map(_CELL_RULES.get(kind, str) if kind else _cell, values))
    joined = "".join(cells)
    if '"' in joined:
        cells = [
            '"%s"' % c.replace('"', '""') if "," in c or '"' in c or "\n" in c else c
            for c in cells
        ]
    elif "," in joined or "\n" in joined:
        cells = ['"%s"' % c if "," in c or "\n" in c else c for c in cells]
    return "%s", cells


def write_csv(stream, table: Table, records: Iterable) -> None:
    """The CSV of ``records`` under ``table``, one ``stream.write`` per chunk.

    A chunk whose records stand for one row each, as a generic box's
    spectrum, is formatted by one % a row, of the row template that joins
    the templates of its columns.  In any other chunk each record's cells
    after the first are formatted once, by the template of those columns,
    and each of its rows puts its first cell before them.
    """
    schema = table.schema
    first, *rest = (get for _, _, get in table.fields)
    stream.write(",".join(_column(table.columns)[1]) + "\n")
    records = iter(records)
    while chunk := list(islice(records, _CHUNK)):
        templates, columns = zip(*[_column(list(map(get, chunk))) for get in rest])
        tail = ",".join(templates)
        # A range stands for its rows; any other first value is one row.
        firsts = list(map(first, chunk))
        spans = [f if type(f) is range else (f,) for f in firsts]
        if set(map(len, spans)) == {1}:
            head, ks = _column(list(map(itemgetter(0), spans)))
            rows = map(f"{schema},{head},{tail}\n".__mod__, zip(ks, *columns))
        else:
            head, heads = _column([f for f in firsts if type(f) is not range])
            heads = map(head.__mod__, heads)
            ks = [f if type(f) is range else (next(heads),) for f in firsts]
            tails = map(tail.__mod__, zip(*columns))
            rows = [f"{schema},{k},{t}\n" for r, t in zip(ks, tails) for k in r]
        stream.write("".join(rows))


def _field(column: str, get: Callable[[Any], Any] | str | None = None, key: str | None = None):
    """A table entry; a getter given as a name, or none, reads that attribute."""
    return (column, key or column, get if callable(get) else attrgetter(get or column))


@dataclass(frozen=True)
class Table:
    """The fields of one record type, and the JSON key of its record list.

    ``top`` is None for a document that holds one record at its top level.
    A ``range`` in the first field stands for consecutive rows that share
    every other field; the spectrum numbers its eigenvalues that way.
    ``schema`` is the ``schema_version`` the table writes.  Both
    ``write_csv`` and ``write_json`` take the records a chunk at a time, so
    their memory does not grow with the number of records; ``csv`` and
    ``json`` return what they write.
    """

    top: str | None
    fields: tuple
    schema: int = SCHEMA_VERSION

    @property
    def columns(self) -> list[str]:
        return ["schema_version", *(column for column, _, _ in self.fields)]

    def write_csv(self, stream, records: Iterable) -> None:
        write_csv(stream, self, records)

    def csv(self, records: Iterable) -> str:
        out = io.StringIO()
        self.write_csv(out, records)
        return out.getvalue()

    def json(self, records: Iterable) -> str:
        out = io.StringIO()
        self.write_json(out, records)
        return out.getvalue()

    def _entries(self, records: Iterable) -> Iterator[dict]:
        """The JSON entry of each row, a range record giving one per k."""
        (_, first_key, first), *rest = self.fields
        for record in records:
            shared = {key: _json_value(get(record)) for _, key, get in rest}
            ks = first(record)
            for k in ks if isinstance(ks, range) else [_json_value(ks)]:
                yield {first_key: k, **shared}

    def write_json(self, stream, records: Iterable) -> None:
        """The JSON document of ``records``, the bytes of one
        ``json.dumps(document, indent=2)``, written ``_CHUNK`` entries at a
        time: a chunk's entries are dumped as one list, which loses its
        brackets and is indented one level further."""
        import json

        entries = self._entries(records)
        if self.top is None:
            (entry,) = entries
            stream.write(json.dumps({"schema_version": self.schema, **entry}, indent=2))
            return
        empty = json.dumps({"schema_version": self.schema, self.top: []}, indent=2)
        head, tail = empty.rsplit("[]", 1)
        stream.write(head + "[")
        sep = ""
        while chunk := list(islice(entries, _CHUNK)):
            # "[\n  {...},\n  {...}\n]" less "[" and "\n]", one level in;
            # json escapes a newline in a string, so each "\n" starts a line
            stream.write(sep + json.dumps(chunk, indent=2)[1:-2].replace("\n", "\n  "))
            sep = ","
        stream.write(("\n  ]" if sep else "]") + tail)


def _side(i: int) -> Callable[[OptimalRecord], float]:
    return lambda r: r.cuboid.sides[i] if r.cuboid is not None else math.nan


OPTIMIZE = Table("records", (
    _field("k"), _field("a1", _side(0)), _field("a2", _side(1)), _field("a3", _side(2)),
    *map(_field, ("lambda_star", "lambda_lower", "delta", "evaluations", "cells", "status")),
), schema=2)

VERIFY = Table("reports", (
    _field("suite", "name"),
    _field("input_repr", "inputs", key="inputs"),
    *map(_field, ("lhs", "rhs", "slack")),
    _field("pass", "passed"),
))


# A spectrum record is a tuple in the order of its columns, with a range of k.
SPECTRUM = Table("eigenvalues", tuple(
    _field(column, itemgetter(i))
    for i, column in enumerate(("k", "lambda", "lambda_over_pi2", "multiplicity", "indices"))
))


def _count_field(column: str, i: int, attr: str) -> tuple:
    # A count record is the pair (cuboid, bundle).
    return _field(column, lambda pair: getattr(pair[i], attr))


COUNT = Table(None, (
    *(_count_field(a, 0, a) for a in ("a1", "a2", "a3")),
    _count_field("lambda", 1, "lam"),
    *(_count_field(name, 1, name.lower()) for name in (
        "N", "T", "T_x1", "T_x2", "T_x3", "Tp_x1", "Tp_x2", "Tp_x3", "f1", "f2", "f3")),
    _field("identity_ok", lambda pair: pair[1].consistent()),
))


def spectrum_records(points: list[SpectralPoint], k_max: int, is_cube: bool) -> list:
    """The records of eigenvalues 1..k_max, one per spectral point.

    The records are zipped from columns, not built point by point: each
    point's range of k, its value, the value over pi^2 (an exact integer on
    the unit cube, written as one), its multiplicity and its indices.  A
    point's range runs on from the point before for its multiplicity, cut
    at k_max.
    """
    values = list(map(attrgetter("value"), points))
    indices = list(map(attrgetter("indices"), points))
    counts = list(map(len, indices))
    over_pi2 = map(truediv, values, repeat(PI_SQUARED))
    if is_cube:
        over_pi2 = map(round, over_pi2)
    # Each point's k runs on from the point before: bounds[i] is the first
    # k of point i, cut at k_max + 1 (the bounds ascend).
    bounds = list(accumulate(counts, initial=1))
    cut = bisect_right(bounds, k_max + 1)
    bounds[cut:] = repeat(k_max + 1, len(bounds) - cut)
    return list(zip(map(range, bounds, bounds[1:]), values, over_pi2, counts, indices))


write_optimize_csv = OPTIMIZE.write_csv


def read_optimize_csv(stream) -> list[OptimalRecord]:
    """Records from optimize CSV; each column parses as the type its field holds."""
    import csv

    from .optimize import OptimalRecord

    types = get_type_hints(OptimalRecord)
    parse = {int: int, float: float, bool: parse_bool, str: str}
    records = []
    for row in csv.DictReader(stream):
        if int(row["schema_version"]) != OPTIMIZE.schema:
            raise ValueError(f"unsupported schema_version {row['schema_version']}")
        values = {
            column: parse[types.get(column, float)](row[column])
            for column, _, _ in OPTIMIZE.fields
        }
        sides = [values.pop(a) for a in ("a1", "a2", "a3")]
        values["cuboid"] = None if math.isnan(sides[0]) else Cuboid(*sides)
        records.append(OptimalRecord(**values))
    return records
