import io
import math
import os

import numpy as np
import pytest

from eigenbox.bounds import a1_lower_bound, polya_lower_bound
from eigenbox.optimize import (
    InsufficientSpanError,
    OptimalRecord,
    OptimizerConfig,
    _pool_size,
    optimize_k,
    rate_fit,
    root_cells,
    sweep,
)
from eigenbox.reporting import write_optimize_csv
from eigenbox.spectrum import PI_SQUARED, Cuboid, UNIT_CUBE, count_upto, kth_eigenvalue

PI2 = PI_SQUARED

FAST = OptimizerConfig()


def synthetic_record(k, delta):
    a3 = 1.0 + delta
    a1 = math.sqrt(1.0 / a3)
    return OptimalRecord(
        k=k,
        cuboid=Cuboid.from_sides(a1, a1),
        lambda_star=100.0,
        lambda_lower=100.0,
        delta=delta,
        evaluations=1,
        cells=1,
        status="certified",
    )


class TestCover:
    def test_root_cells_cover_the_domain(self):
        u0, u1, v0, v1 = root_cells()
        lo = a1_lower_bound()
        assert u0.min() == lo * lo and u1.max() == 1.0
        assert v0.min() == lo * lo and v1.max() == 1.0 / lo
        # every kept cell meets the sorted domain u <= v <= u^(-1/2)
        assert ((v1 >= u0) & (v0 <= u0**-0.5)).all()
        # every box of the cover, sorted, has a1 >= a1_lo
        for u, v in ((u0, v0), (u0, v1), (u1, v0), (u1, v1)):
            a1 = np.minimum(np.minimum(np.sqrt(u), np.sqrt(v)), 1.0 / np.sqrt(u * v))
            assert (a1 >= lo * (1 - 1e-15)).all()
        # every domain box lies in a kept cell
        rng = np.random.default_rng(0)
        a1 = rng.uniform(lo, 1.0, 2000)
        a2 = rng.uniform(a1, a1**-0.5)
        u, v = a1 * a1, a2 * a2
        inside = (u0 <= u[:, None]) & (u[:, None] <= u1) & (v0 <= v[:, None]) & (v[:, None] <= v1)
        assert inside.any(axis=1).all()


class TestOptimizeK:
    def test_k1_returns_cube(self):
        rec = optimize_k(1)
        assert rec.lambda_star == pytest.approx(3 * PI2, rel=1e-6)
        for side in rec.cuboid.sides:
            assert side == pytest.approx(1.0, abs=1e-6)
        assert rec.delta == pytest.approx(0.0, abs=1e-6)
        assert rec.status == "certified"
        assert rec.evaluations == 1

    def test_k2_analytic_optimum(self):
        # minimising x + y + 4z over xyz = 1 gives x = y = 4z = 4^(1/3)
        rec = optimize_k(2)
        assert rec.lambda_star == pytest.approx(3 * 4 ** (1 / 3) * PI2, rel=1e-7)
        assert rec.cuboid.a3 == pytest.approx(4 ** (1 / 3), rel=1e-4)

    def test_sandwich_invariants(self):
        for k in (1, 2, 3, 8, 40):
            rec = optimize_k(k, FAST)
            nu_k = kth_eigenvalue(UNIT_CUBE, k).value
            assert polya_lower_bound(k) <= rec.lambda_star <= nu_k * (1 + 1e-12)
            assert rec.cuboid.a3 <= 319.0
            assert rec.cuboid.a1 >= a1_lower_bound() - 1e-9
            assert rec.delta >= -1e-9
            # counting-bound consistency: lambda* really has k modes below it
            assert count_upto(rec.cuboid, rec.lambda_star) >= k

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            optimize_k(0)

    def test_deterministic(self):
        a = optimize_k(3, FAST)
        b = optimize_k(3, FAST)
        assert a == b


class TestSweep:
    def test_single_k(self):
        records = sweep([1], FAST)
        assert len(records) == 1
        assert records[0].cuboid.sides == pytest.approx((1.0, 1.0, 1.0), abs=1e-6)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sweep([], FAST)
        with pytest.raises(ValueError):
            sweep([0, 1], FAST)

    def test_failure_isolation(self):
        # an impossible candidate cap fails per-k without killing the sweep
        config = OptimizerConfig(candidate_cap=1)
        records = sweep([1, 2], config)
        assert [r.k for r in records] == [1, 2]
        assert all(r.cuboid is None for r in records)
        assert all(r.status.startswith("failed:") for r in records)

    def test_shuffled_ks_keep_input_order(self):
        ks = [3, 1, 4, 2]
        serial = sweep(ks, FAST)
        parallel = sweep(ks, OptimizerConfig(threads=2))
        assert [r.k for r in parallel] == ks
        buf_a, buf_b = io.StringIO(), io.StringIO()
        write_optimize_csv(buf_a, serial)
        write_optimize_csv(buf_b, parallel)
        assert buf_a.getvalue() == buf_b.getvalue()

    def test_pool_size_is_clamped(self):
        # computed only: no pool is started for the large request
        cpus = os.cpu_count() or 1
        assert _pool_size(10**6, 3) == min(3, cpus)
        assert _pool_size(10**6, 10**6) == cpus
        assert _pool_size(1, 50) == 1
        for bad in (0, -4):
            with pytest.raises(ValueError):
                _pool_size(bad, 3)

    def test_thread_count_does_not_change_bytes(self):
        serial = sweep([1, 2, 3], FAST)
        parallel = sweep([1, 2, 3], OptimizerConfig(threads=2))
        buf_a, buf_b = io.StringIO(), io.StringIO()
        write_optimize_csv(buf_a, serial)
        write_optimize_csv(buf_b, parallel)
        assert buf_a.getvalue() == buf_b.getvalue()


class TestRateFit:
    def test_synthetic_power_law(self):
        records = [synthetic_record(k, 0.7 * k**-0.1) for k in (1, 2, 5, 10, 30, 100, 300, 1000, 3000, 10000)]
        exponent, info = rate_fit(records)
        assert exponent == pytest.approx(-0.1, abs=1e-6)
        assert info.n_used == 10
        assert info.reference_exponent == pytest.approx(-23.0 / 258.0)

    def test_constant_deltas(self):
        records = [synthetic_record(k, 0.25) for k in (1, 2, 5, 10, 30, 100, 300, 1000, 3000, 10000)]
        exponent, _ = rate_fit(records)
        assert exponent == pytest.approx(0.0, abs=1e-12)

    def test_insufficient_records(self):
        records = [synthetic_record(k, 0.3) for k in (1, 10, 100)]
        with pytest.raises(InsufficientSpanError):
            rate_fit(records)

    def test_insufficient_span(self):
        records = [synthetic_record(k, 0.3) for k in range(1, 20)]
        with pytest.raises(InsufficientSpanError):
            rate_fit(records)

    def test_small_deltas_filtered(self):
        records = [synthetic_record(k, 1e-9) for k in (1, 2, 5, 10, 30, 100, 300, 1000, 3000, 10000)]
        with pytest.raises(InsufficientSpanError):
            rate_fit(records)
