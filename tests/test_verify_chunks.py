"""``verify`` makes, writes and counts its suites a chunk at a time, with the
bytes of the suites that drew everything first.

The ``ref_*`` suites below are the earlier suites, copied: ``identity`` and
``polya`` drew all their boxes first and counted them in one call, the
others made their reports one draw at a time into one list.  At 2,500
samples every suite crosses chunk edges: 1,024 draws a chunk for the
one-report suites, 102 boxes of 10 lambda for ``lemma41`` and 256 k for
``cube-chain``.
"""

import math
import random
from itertools import chain

import pytest

from eigenbox import lattice, suites
from eigenbox.bounds import (
    BoundReport,
    cube_eigenvalue_bound,
    lemma31_rhs,
    lemma32_rhs,
    lemma41_rhs,
    lemma_sum,
    polya_lower_bound,
)
from eigenbox.cli import main
from eigenbox.reporting import VERIFY
from eigenbox.spectrum import PI_SQUARED, counts_upto, cube_spectrum_table, kth_eigenvalues
from eigenbox.suites import CHUNK, SUITE_NAMES, run_suite, sample_cuboid, suite_chunks

SAMPLES, SEED = 2500, 3


def ref_lemma_suite(name, n_choices, rhs, samples, seed):
    rng = random.Random(seed)
    reports = []
    for _ in range(samples):
        q = suites._sample_query(rng, n_choices)
        reports.append(BoundReport(name, {"y": q.y, "a": q.a, "n": q.n}, lemma_sum(q), rhs(q)))
    return reports


def ref_lemma41_suite(n_cuboids, seed, lam_per_cuboid=10, lam_max=1.0e4):
    rng = random.Random(seed)
    reports = []
    for _ in range(n_cuboids):
        c = sample_cuboid(rng)
        lams = [rng.uniform(0.0, lam_max) for _ in range(lam_per_cuboid)]
        for lam, n in zip(lams, counts_upto(c, lams)):
            reports.append(BoundReport("lemma41", {"a1": c.a1, "a2": c.a2, "a3": c.a3, "lam": lam},
                                       float(n), lemma41_rhs(c, lam)))
    return reports


def ref_identity_suite(samples, seed, lam_max=1.0e4):
    rng = random.Random(seed)
    draws = [(sample_cuboid(rng), rng.uniform(0.0, lam_max)) for _ in range(samples)]
    bundles = lattice.count_bundles([c for c, _ in draws], [lam for _, lam in draws])
    return [
        BoundReport("identity", {"a1": c.a1, "a2": c.a2, "a3": c.a3, "lam": lam},
                    float(b.t), float(b.t - b.octant_identity_residual()), exact=True)
        for (c, lam), b in zip(draws, bundles, strict=True)
    ]


def ref_cube_chain_suite(k_max):
    table_m, table_theta, table_count = cube_spectrum_table(k_max)
    reports = []
    for k in range(1, k_max + 1):
        m, theta, n_at_nu = int(table_m[k]), int(table_theta[k]), int(table_count[k])
        nu = PI_SQUARED * float(m)
        reports.append(BoundReport("cube_chain_lower", {"k": k, "m": m}, float(k), float(n_at_nu)))
        reports.append(BoundReport("cube_chain_upper", {"k": k, "m": m, "theta": theta},
                                   float(n_at_nu), float(k + theta - 1)))
        gauss = (suites.OMEGA_3 / 8.0) * max(math.sqrt(nu) / math.pi - math.sqrt(3.0), 0.0) ** 3
        reports.append(BoundReport("gauss_octant", {"k": k, "m": m}, gauss, float(n_at_nu)))
        reports.append(cube_eigenvalue_bound(k, nu))
    return reports


def ref_polya_suite(samples, seed, k_max=1000):
    rng = random.Random(seed)
    draws = [(sample_cuboid(rng), rng.randint(1, k_max)) for _ in range(samples)]
    points = kth_eigenvalues([c for c, _ in draws], [k for _, k in draws])
    return [
        BoundReport("polya", {"a1": c.a1, "a2": c.a2, "a3": c.a3, "k": k},
                    polya_lower_bound(k), point.value)
        for (c, k), point in zip(draws, points, strict=True)
    ]


def ref_all(samples, seed):
    return [
        *ref_lemma_suite("lemma31", (1, 2), lemma31_rhs, samples, seed),
        *ref_lemma_suite("lemma32", range(1, 7), lemma32_rhs, samples, seed),
        *ref_lemma41_suite(samples, seed),
        *ref_identity_suite(samples, seed),
        *ref_cube_chain_suite(samples),
        *ref_polya_suite(samples, seed),
    ]


def fields(reports):
    # BoundReport's equality leaves its inputs out.
    return [(r.name, r.inputs, r.lhs, r.rhs, r.exact) for r in reports]


@pytest.fixture(scope="module")
def reference_csv():
    return VERIFY.csv(ref_all(SAMPLES, SEED))


ARGV = ["verify", "--suite", "all", "--samples", str(SAMPLES), "--seed", str(SEED)]
DONE = "".join(f"suite {name}: {SAMPLES} samples done\n" for name in SUITE_NAMES)


def test_out_file_equals_the_draw_all_first_suites(reference_csv, tmp_path, capsys):
    out = tmp_path / "all.csv"
    assert main([*ARGV, "--out", str(out)]) == 0
    assert out.read_bytes() == reference_csv.encode()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == DONE


def test_stdout_equals_the_draw_all_first_suites(reference_csv, capsys):
    assert main(ARGV) == 0
    captured = capsys.readouterr()
    assert captured.out == reference_csv
    assert captured.err == DONE


# Reports a draw, and so a chunk's size: CHUNK // per draws of per reports.
PER_DRAW = {"lemma41": 10, "cube-chain": 4}


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_run_suite_is_its_chunks_joined(name):
    samples = 1030
    chunks = list(suite_chunks(name, samples, SEED))
    per = PER_DRAW.get(name, 1)
    full = CHUNK // per * per
    assert len(chunks) == -(-samples // (CHUNK // per)) > 1
    assert {len(c) for c in chunks[:-1]} == {full}
    assert 0 < len(chunks[-1]) <= full
    joined = list(chain.from_iterable(chunks))
    assert len(joined) == samples * per
    assert fields(run_suite(name, samples, SEED)) == fields(joined)


def test_failures_are_counted_across_chunks(monkeypatch, tmp_path, capsys):
    # N one too many in every box fails every identity report, in each
    # chunk; every failing row is written and the count spans the chunks.
    real = lattice._octant_bands

    def plus_one(bands, cap):
        for below, values, triples in real(bands, cap):
            yield below + 1, values, triples

    monkeypatch.setattr(lattice, "_octant_bands", plus_one)
    samples = CHUNK + 100
    out = tmp_path / "identity.csv"
    argv = ["verify", "--suite", "identity", "--samples", str(samples), "--out", str(out)]
    assert main(argv) == 1
    assert out.read_text().count(",false\n") == samples
    assert capsys.readouterr().err.endswith(f"error: {samples} inequality violations\n")
