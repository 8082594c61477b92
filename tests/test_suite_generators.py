"""Each ``verify`` suite is one generator, and JSON is written a chunk at a
time, with the bytes of the code they replaced.

The ``ref_*`` functions below are that code, copied: each suite's chunks
came from a ``reports(n)`` closure over its ``random.Random`` that
``ref_chunks`` called on consecutive chunk sizes, ``cube-chain`` read a
per-k ``cube_spectrum_table``, and ``ref_json`` built the whole JSON
document and dumped it in one call.
"""

import io
import json
import math
import random
from functools import partial
from itertools import chain, islice

import numpy as np
import pytest

from eigenbox import lattice, suites
from eigenbox.bounds import (
    BoundQuery,
    BoundReport,
    cube_eigenvalue_bound,
    lemma31_rhs,
    lemma32_rhs,
    lemma41_rhs,
    lemma_sum,
    polya_lower_bound,
)
from eigenbox.lattice import count_bundle
from eigenbox.optimize import OptimalRecord
from eigenbox.reporting import COUNT, OPTIMIZE, SPECTRUM, VERIFY, _json_value
from eigenbox.spectrum import (
    PI_SQUARED,
    UNIT_CUBE,
    Cuboid,
    _cube_levels,
    _cube_octant_hist,
    counts_upto,
    cube_spectrum_table,
    kth_eigenvalues,
)
from eigenbox.suites import CHUNK, OMEGA_3, SUITE_NAMES, sample_cuboid, suite_chunks


def ref_chunks(reports, draws, per_draw=1):
    step = max(1, CHUNK // per_draw)
    for done in range(0, draws, step):
        yield reports(min(step, draws - done))


def ref_sample_query(rng, n_choices):
    y = rng.uniform(0.0, 1.0e6)
    a = 10.0 ** rng.uniform(-2.0, 2.0)
    n = rng.choice(list(n_choices))
    return y, a, n


def ref_lemma_chunks(name, n_choices, rhs, samples, seed=0):
    rng = random.Random(seed)

    def reports(draws):
        queries = [BoundQuery(*ref_sample_query(rng, n_choices)) for _ in range(draws)]
        return [BoundReport(name, {"y": q.y, "a": q.a, "n": q.n}, lemma_sum(q), rhs(q))
                for q in queries]

    return ref_chunks(reports, samples)


def ref_lemma41_chunks(n_cuboids, seed=0, lam_per_cuboid=10, lam_max=1.0e4):
    rng = random.Random(seed)

    def reports(boxes):
        out = []
        for _ in range(boxes):
            c = sample_cuboid(rng)
            lams = [rng.uniform(0.0, lam_max) for _ in range(lam_per_cuboid)]
            out += [BoundReport("lemma41", {"a1": c.a1, "a2": c.a2, "a3": c.a3, "lam": lam},
                                float(n), lemma41_rhs(c, lam))
                    for lam, n in zip(lams, counts_upto(c, lams))]
        return out

    return ref_chunks(reports, n_cuboids, lam_per_cuboid)


def ref_identity_chunks(samples, seed=0, lam_max=1.0e4):
    rng = random.Random(seed)

    def reports(n):
        draws = [(sample_cuboid(rng), rng.uniform(0.0, lam_max)) for _ in range(n)]
        bundles = lattice.count_bundles([c for c, _ in draws], [lam for _, lam in draws])
        return [BoundReport("identity", {"a1": c.a1, "a2": c.a2, "a3": c.a3, "lam": lam},
                            float(b.t), float(b.t - b.octant_identity_residual()), exact=True)
                for (c, lam), b in zip(draws, bundles, strict=True)]

    return ref_chunks(reports, samples)


def ref_cube_spectrum_table(k_max):
    m = 8
    while True:
        hist = _cube_octant_hist(m)
        cum = np.cumsum(hist)
        if cum[-1] >= k_max:
            break
        m *= 2
    s = np.searchsorted(cum, np.arange(1, k_max + 1))
    return np.concatenate(([0], s)), np.concatenate(([0], hist[s])), np.concatenate(([0], cum[s]))


def ref_cube_chain_chunks(k_max):
    table_m, table_theta, table_count = ref_cube_spectrum_table(k_max)
    ks = iter(range(1, k_max + 1))

    def reports(n):
        out = []
        for k in islice(ks, n):
            m, theta, n_at_nu = int(table_m[k]), int(table_theta[k]), int(table_count[k])
            nu = PI_SQUARED * float(m)
            gauss = (OMEGA_3 / 8.0) * max(math.sqrt(nu) / math.pi - math.sqrt(3.0), 0.0) ** 3
            out += [
                BoundReport("cube_chain_lower", {"k": k, "m": m}, float(k), float(n_at_nu)),
                BoundReport("cube_chain_upper", {"k": k, "m": m, "theta": theta},
                            float(n_at_nu), float(k + theta - 1)),
                BoundReport("gauss_octant", {"k": k, "m": m}, gauss, float(n_at_nu)),
                cube_eigenvalue_bound(k, nu),
            ]
        return out

    return ref_chunks(reports, k_max, 4)


def ref_polya_chunks(samples, seed=0, k_max=1000):
    rng = random.Random(seed)

    def reports(n):
        draws = [(sample_cuboid(rng), rng.randint(1, k_max)) for _ in range(n)]
        points = kth_eigenvalues([c for c, _ in draws], [k for _, k in draws])
        return [BoundReport("polya", {"a1": c.a1, "a2": c.a2, "a3": c.a3, "k": k},
                            polya_lower_bound(k), point.value)
                for (c, k), point in zip(draws, points, strict=True)]

    return ref_chunks(reports, samples)


REF_SUITES = {
    "lemma31": partial(ref_lemma_chunks, "lemma31", (1, 2), lemma31_rhs),
    "lemma32": partial(ref_lemma_chunks, "lemma32", range(1, 7), lemma32_rhs),
    "identity": ref_identity_chunks,
    "polya": ref_polya_chunks,
}


def fields(reports):
    # BoundReport's equality leaves its inputs out, and an input's type
    # shows in the bytes.
    return [(r.name, [(k, type(v), v) for k, v in r.inputs.items()], r.lhs, r.rhs, r.exact)
            for r in reports]


def chunk_fields(chunks):
    return [fields(chunk) for chunk in chunks]


SEEDS = (0, 7)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("samples", [1, 1023, 1024, 1025, 2500])
@pytest.mark.parametrize("name", ["lemma31", "lemma32", "identity", "polya"])
def test_suite_chunks_equal_the_closures(name, samples, seed):
    got = chunk_fields(suite_chunks(name, samples, seed))
    assert got == chunk_fields(REF_SUITES[name](samples, seed))
    assert len(got) == -(-samples // CHUNK)


# lemma41's chunk is 102 boxes of 10 lambda.
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("boxes", [1, 101, 102, 103])
def test_lemma41_chunks_equal_the_closures(boxes, seed):
    got = chunk_fields(suite_chunks("lemma41", boxes, seed))
    assert got == chunk_fields(ref_lemma41_chunks(boxes, seed))
    assert len(got) == -(-boxes // 102)


@pytest.mark.parametrize("k_max", [1, 255, 256, 257, 10_000])
def test_cube_chain_chunks_equal_the_per_k_table(k_max):
    got = chunk_fields(suite_chunks("cube-chain", k_max, 5))
    assert got == chunk_fields(ref_cube_chain_chunks(k_max))
    assert len(got) == -(-k_max // 256)


@pytest.mark.parametrize("k_max", [1, 2, 7, 8, 255, 256, 257, 3000])
def test_cube_spectrum_table_expands_the_levels(k_max):
    for got, ref in zip(cube_spectrum_table(k_max), ref_cube_spectrum_table(k_max), strict=True):
        assert got.dtype == ref.dtype
        assert got.tolist() == ref.tolist()


def test_cube_levels_grow_as_k_to_the_two_thirds():
    k_max = 10**6
    hist, cum = _cube_levels(k_max)
    assert len(hist) == len(cum) <= 4 * (6 * k_max / math.pi) ** (2 / 3)
    assert cum[-1] >= k_max
    with pytest.raises(ValueError):
        _cube_levels(0)


# Each *_suite with its own parameters, by keyword, as the acceptance tests
# call them, or with its defaults.
SUITE_CALLS = {
    "lemma31": (lambda: suites.lemma31_suite(700, seed=1),
                lambda: ref_lemma_chunks("lemma31", (1, 2), lemma31_rhs, 700, 1)),
    "lemma32": (lambda: suites.lemma32_suite(700, 2),
                lambda: ref_lemma_chunks("lemma32", range(1, 7), lemma32_rhs, 700, 2)),
    "lemma41-keywords": (lambda: suites.lemma41_suite(40, seed=3, lam_per_cuboid=3, lam_max=50.0),
                         lambda: ref_lemma41_chunks(40, 3, 3, 50.0)),
    "lemma41-defaults": (lambda: suites.lemma41_suite(110, 3),
                         lambda: ref_lemma41_chunks(110, 3)),
    "identity": (lambda: suites.identity_suite(300, seed=4, lam_max=100.0),
                 lambda: ref_identity_chunks(300, 4, 100.0)),
    "cube-chain": (lambda: suites.cube_chain_suite(300), lambda: ref_cube_chain_chunks(300)),
    "polya": (lambda: suites.polya_suite(60, seed=5, k_max=30),
              lambda: ref_polya_chunks(60, 5, 30)),
}


@pytest.mark.parametrize("call", SUITE_CALLS)
def test_suite_lists_take_their_own_parameters(call):
    run, ref = SUITE_CALLS[call]
    assert fields(run()) == fields(chain.from_iterable(ref()))


def test_unknown_suite_fails_before_its_first_chunk():
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        suite_chunks("nope", 10)


def test_sample_query_draws_the_listed_choices():
    for choices in ((1, 2), range(1, 7)):
        a, b = random.Random(11), random.Random(11)
        for _ in range(200):
            q = suites._sample_query(a, choices)
            assert (q.y, q.a, q.n) == ref_sample_query(b, choices)


# ---------------------------------------------------------------------------
# JSON a chunk at a time
# ---------------------------------------------------------------------------


def ref_json(table, records):
    (_, first_key, first), *rest = table.fields
    entries = []
    for record in records:
        shared = {key: _json_value(get(record)) for _, key, get in rest}
        ks = first(record)
        for k in ks if isinstance(ks, range) else [_json_value(ks)]:
            entries.append({first_key: k, **shared})
    if table.top is None:
        (payload,) = entries
    else:
        payload = {table.top: entries}
    return json.dumps({"schema_version": table.schema, **payload}, indent=2)


def same_text(got, ref):
    # Fails with the first line that differs: pytest's own diff of two
    # documents of megabytes takes minutes.
    if got != ref:
        lines = zip(got.splitlines(), ref.splitlines())
        at = next((i for i, (a, b) in enumerate(lines) if a != b), None)
        pytest.fail(f"{len(got)} and {len(ref)} characters, first differing line {at}")
    return True


def written(table, records):
    out = io.StringIO()
    table.write_json(out, iter(records))
    return out.getvalue()


def verify_records(n):
    rng = random.Random(n)
    out = []
    for i in range(n):
        lhs = math.nan if i % 97 == 5 else rng.uniform(-1.0, 1.0)
        inputs = {"k": i, "x": rng.uniform(0.0, 1.0), "note": 'a,"b"\n'} if i % 3 else {}
        out.append(BoundReport(f"s{i % 4}", inputs, lhs, rng.uniform(-1.0, 1.0), exact=i % 2 == 0))
    return out


def optimize_records(n):
    box = Cuboid.from_sides(0.7, 0.9)
    return [
        OptimalRecord(k, None, math.nan, math.nan, math.nan, 0, 0, "cap: too many")
        if k % 5 == 2
        else OptimalRecord(k, box, 10.0 + k, 9.5 + k, 0.25, 3 * k, k, "certified")
        for k in range(1, n + 1)
    ]


def spectrum_records(n):
    # A record is (k range, value, value / pi^2, multiplicity, indices).
    # Runs of empty ranges fill whole chunks of records.
    out, k = [], 1
    for i in range(n):
        width = 0 if 1000 <= i < 2100 or i % 7 == 3 else 1 + i % 3
        indices = tuple((1, 1, j) for j in range(1, width + 1))
        out.append((range(k, k + width), PI_SQUARED * (i + 3), float(i + 3), width, indices))
        k += width
    return out


TABLES = {"verify": (VERIFY, verify_records), "optimize": (OPTIMIZE, optimize_records),
          "spectrum": (SPECTRUM, spectrum_records)}


@pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 2500])
@pytest.mark.parametrize("table", TABLES)
def test_write_json_equals_the_whole_document(table, n):
    table, make = TABLES[table]
    records = make(n)
    assert same_text(written(table, records), ref_json(table, records))
    assert same_text(table.json(records), ref_json(table, records))


def test_write_json_of_records_with_only_empty_ranges():
    records = [(range(1, 1), 1.0, 1.0, 0, ())] * 3000
    assert written(SPECTRUM, records) == ref_json(SPECTRUM, records) == (
        '{\n  "schema_version": 1,\n  "eigenvalues": []\n}')
    records.append((range(1, 3), 2.0, 2.0, 2, ((1, 1, 1), (1, 1, 2))))
    assert same_text(written(SPECTRUM, records), ref_json(SPECTRUM, records))


def test_write_json_of_a_single_object():
    bundle = count_bundle(UNIT_CUBE, 3 * PI_SQUARED)
    records = [(UNIT_CUBE, bundle)]
    assert same_text(written(COUNT, records), ref_json(COUNT, records))
    for records in ([], records * 2):
        with pytest.raises(ValueError):
            ref_json(COUNT, records)
        with pytest.raises(ValueError):
            written(COUNT, records)


def test_verify_json_of_every_suite_equals_the_whole_document():
    reports = [r for name in SUITE_NAMES for r in suites.run_suite(name, 300, 2)]
    assert same_text(written(VERIFY, reports), ref_json(VERIFY, reports))
