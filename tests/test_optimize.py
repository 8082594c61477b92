import io
import math
import os

import pytest

from eigenbox.bounds import a1_lower_bound, polya_lower_bound
from eigenbox.optimize import (
    InsufficientSpanError,
    OptimalRecord,
    OptimizerConfig,
    SearchBox,
    _pool_size,
    optimize_k,
    rate_fit,
    sweep,
)
from eigenbox.reporting import write_optimize_csv
from eigenbox.spectrum import PI_SQUARED, Cuboid, UNIT_CUBE, count_upto, kth_eigenvalue

PI2 = PI_SQUARED

FAST = OptimizerConfig(grid_n=24, basins=4, max_iter=200)


def synthetic_record(k, delta):
    a3 = 1.0 + delta
    a1 = math.sqrt(1.0 / a3)
    return OptimalRecord(
        k=k,
        cuboid=Cuboid.from_sides(a1, a1),
        lambda_star=100.0,
        delta=delta,
        evaluations=1,
        restarts_agreeing=1,
        unique_within_tol=True,
        status="converged",
    )


class TestSearchBox:
    def test_bounds(self):
        box = SearchBox()
        assert box.a1_lo == a1_lower_bound()
        assert box.a1_hi == 1.0
        lo, hi = box.a2_bounds(0.25)
        assert lo == 0.25 and hi == 2.0
        assert box.a3_cap <= 319.0


class TestOptimizeK:
    def test_k1_returns_cube(self):
        rec = optimize_k(1)
        assert rec.lambda_star == pytest.approx(3 * PI2, rel=1e-6)
        for side in rec.cuboid.sides:
            assert side == pytest.approx(1.0, abs=1e-6)
        assert rec.delta == pytest.approx(0.0, abs=1e-6)
        assert rec.status == "converged"
        assert rec.evaluations > 0

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
        config = OptimizerConfig(grid_n=8, basins=2, max_iter=50, candidate_cap=1)
        records = sweep([1, 2], config)
        assert [r.k for r in records] == [1, 2]
        assert all(r.cuboid is None for r in records)
        assert all(r.status.startswith("failed:") for r in records)

    def test_shuffled_ks_keep_input_order(self):
        ks = [3, 1, 4, 2]
        serial = sweep(ks, FAST)
        parallel = sweep(ks, OptimizerConfig(
            grid_n=24, basins=4, max_iter=200, threads=2,
        ))
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
        parallel = sweep([1, 2, 3], OptimizerConfig(
            grid_n=24, basins=4, max_iter=200, threads=2,
        ))
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
