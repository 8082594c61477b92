import math

import pytest
from hypothesis import given, settings, strategies as st

from eigenbox.bounds import (
    BoundQuery,
    BoundReport,
    REPORT_EPS,
    a1_lower_bound,
    cube_eigenvalue_bound,
    gamma_half,
    lemma31_rhs,
    lemma32_rhs,
    lemma41_rhs,
    lemma_sum,
    polya_lower_bound,
)
from eigenbox.spectrum import PI_SQUARED, UNIT_CUBE, Cuboid, count_upto
from eigenbox import suites

PI2 = PI_SQUARED

st_query = st.builds(
    BoundQuery,
    y=st.floats(0.0, 1e6),
    a=st.floats(1e-2, 1e2),
    n=st.integers(1, 2),
)


def slow_lemma_sum(y, a, n):
    total = 0.0
    i = 1
    while a * a * i * i <= y:
        total += (y - a * a * i * i) ** (n / 2.0)
        i += 1
    return total


class TestGammaHalf:
    def test_integer_arguments(self):
        assert gamma_half(2) == 1.0  # Gamma(1)
        assert gamma_half(4) == 1.0  # Gamma(2)
        assert gamma_half(6) == 2.0  # Gamma(3)
        assert gamma_half(8) == 6.0  # Gamma(4)

    def test_half_integer_arguments(self):
        assert gamma_half(1) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
        assert gamma_half(3) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-15)
        assert gamma_half(5) == pytest.approx(3 * math.sqrt(math.pi) / 4, rel=1e-15)


class TestLemmaSum:
    def test_boundary_term_vanishes(self):
        assert lemma_sum(BoundQuery(1.0, 1.0, 2)) == 0.0

    def test_direct_evaluation(self):
        assert lemma_sum(BoundQuery(4.0, 1.0, 2)) == pytest.approx(3.0, rel=1e-14)
        assert lemma_sum(BoundQuery(10.0, 1.0, 1)) == pytest.approx(
            3.0 + math.sqrt(6.0) + 1.0, rel=1e-14
        )

    @given(q=st_query)
    @settings(max_examples=150)
    def test_matches_slow_sum(self, q):
        assert lemma_sum(q) == pytest.approx(slow_lemma_sum(q.y, q.a, q.n), rel=1e-11, abs=1e-9)

    def test_rejects_bad_query(self):
        with pytest.raises(ValueError):
            BoundQuery(-1.0, 1.0, 1)
        with pytest.raises(ValueError):
            BoundQuery(1.0, 0.0, 1)
        with pytest.raises(ValueError):
            BoundQuery(1.0, 1.0, 0)


class TestLemma31:
    def test_n2_example(self):
        rhs = lemma31_rhs(BoundQuery(1.0, 1.0, 2))
        assert rhs == pytest.approx(5.0 / 12.0, rel=1e-13)
        assert rhs >= lemma_sum(BoundQuery(1.0, 1.0, 2))

    def test_n1_example(self):
        rhs = lemma31_rhs(BoundQuery(1.0, 1.0, 1))
        expected = math.pi / 4.0 - 0.5 + math.sqrt(2.0) / 3.0**1.5
        assert rhs == pytest.approx(expected, rel=1e-13)

    def test_y_zero(self):
        assert lemma31_rhs(BoundQuery(0.0, 2.0, 1)) == 0.0

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            lemma31_rhs(BoundQuery(1.0, 1.0, 3))

    @given(q=st_query)
    @settings(max_examples=300)
    def test_dominates_sum(self, q):
        lhs, rhs = lemma_sum(q), lemma31_rhs(q)
        assert rhs - lhs >= -REPORT_EPS * max(1.0, abs(rhs))


class TestLemma32:
    def test_examples(self):
        assert lemma32_rhs(BoundQuery(1.0, 1.0, 2)) == pytest.approx(2.0 / 3.0, rel=1e-13)
        assert lemma32_rhs(BoundQuery(1.0, 1.0, 1)) == pytest.approx(math.pi / 4.0, rel=1e-13)
        assert lemma32_rhs(BoundQuery(9.0, 1.0, 3)) == pytest.approx(
            3.0 * math.pi / 16.0 * 81.0, rel=1e-13
        )

    @given(
        q=st.builds(
            BoundQuery,
            y=st.floats(0.0, 1e6),
            a=st.floats(1e-2, 1e2),
            n=st.integers(1, 6),
        )
    )
    @settings(max_examples=300)
    def test_dominates_sum(self, q):
        lhs, rhs = lemma_sum(q), lemma32_rhs(q)
        assert rhs - lhs >= -REPORT_EPS * max(1.0, abs(rhs))

    @given(q=st_query)
    @settings(max_examples=200)
    def test_sharpness_ordering(self, q):
        # where the corner term is dominated, the three-term bound is sharper
        corner = (2 * q.a * q.n) ** (q.n / 2.0) / (q.n + 2.0) ** ((q.n + 2) / 2.0)
        if 0.5 * q.y ** (q.n / 2.0) >= corner * q.y ** (q.n / 4.0):
            assert lemma31_rhs(q) <= lemma32_rhs(q) + REPORT_EPS * max(
                1.0, lemma32_rhs(q)
            )


class TestLemma41:
    def test_cube_example(self):
        rhs = lemma41_rhs(UNIT_CUBE, 3 * PI2)
        assert rhs == pytest.approx(1.883, abs=5e-3)
        assert rhs >= count_upto(UNIT_CUBE, 3 * PI2)

    def test_lambda_zero(self):
        assert lemma41_rhs(UNIT_CUBE, 0.0) == 0.0

    def test_flat_box(self):
        c = Cuboid.from_sides(0.5, 1.0)
        lam = 5.25 * PI2
        assert lemma41_rhs(c, lam) >= count_upto(c, lam) == 1

    def test_dominates_counting_function(self, cuboid_pool):
        import random

        rng = random.Random(3)
        for c in cuboid_pool:
            for _ in range(20):
                lam = rng.uniform(0.0, 1e4)
                assert count_upto(c, lam) <= lemma41_rhs(c, lam) + REPORT_EPS


class TestCubeEigenvalueBound:
    def test_k1(self):
        report = cube_eigenvalue_bound(1, 3 * PI2)
        assert report.lhs == pytest.approx((3 * PI2) ** 1.5, rel=1e-13)
        assert report.rhs == pytest.approx(
            6 * PI2 + 3 * math.pi * 3 * PI2 * (0.5 + math.sqrt(3.0)), rel=1e-13
        )
        assert report.passed

    def test_k4(self):
        assert cube_eigenvalue_bound(4, 6 * PI2).passed

    def test_k1000(self):
        from eigenbox.spectrum import cube_spectrum_table

        table_m, _, _ = cube_spectrum_table(1000)
        assert cube_eigenvalue_bound(1000, PI2 * float(table_m[1000])).passed


class TestA1LowerBound:
    def test_pinned_value(self):
        # 1/(8*(1/2+sqrt(3))), 16 digits
        assert a1_lower_bound() == pytest.approx(0.05600230943494897, abs=1e-17)
        assert a1_lower_bound() == 1.0 / (8.0 * (0.5 + math.sqrt(3.0)))

    def test_consistency_with_a3_cap(self):
        assert 64.0 * (0.5 + math.sqrt(3.0)) ** 2 <= 319.0
        assert 1.0 / a1_lower_bound() ** 2 <= 319.0 + 1e-9


class TestPolyaLowerBound:
    def test_values(self):
        assert polya_lower_bound(1) == pytest.approx((6 * PI2) ** (2 / 3), rel=1e-15)
        assert polya_lower_bound(8) == pytest.approx(4 * (6 * PI2) ** (2 / 3), rel=1e-13)
        assert polya_lower_bound(1000) == pytest.approx(
            100 * (6 * PI2) ** (2 / 3), rel=1e-13
        )

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            polya_lower_bound(0)


class TestPolyaOnBoxes:
    def test_every_k_to_1000_on_pool(self, cuboid_pool):
        # enumerate each box's first 1000 eigenvalues once, compare elementwise
        import numpy as np

        from eigenbox.spectrum import spectrum_points

        bounds = np.array([polya_lower_bound(k) for k in range(1, 1001)])
        for c in cuboid_pool:
            points = spectrum_points(c, 1000)
            values = np.repeat([p.value for p in points], [p.multiplicity for p in points])[:1000]
            assert (values >= bounds - 1e-9 * bounds).all()


class TestBoundReport:
    def test_pass_iff_slack_rule(self):
        ok = BoundReport("x", {}, 1.0, 1.0)
        assert ok.slack == 0.0 and ok.passed
        barely = BoundReport("x", {}, 1.0 + 0.5e-9, 1.0)
        assert barely.passed
        bad = BoundReport("x", {}, 1.0 + 1e-6, 1.0)
        assert not bad.passed


class TestSuites:
    def test_lemma_suites_clean(self):
        assert all(r.passed for r in suites.lemma31_suite(500, seed=1))
        assert all(r.passed for r in suites.lemma32_suite(500, seed=2))

    def test_lemma41_suite_clean(self):
        assert all(r.passed for r in suites.lemma41_suite(50, seed=3))

    def test_identity_suite_exact(self):
        reports = suites.identity_suite(100, seed=4)
        assert all(r.slack == 0.0 for r in reports)

    def test_cube_chain_small(self):
        reports = suites.cube_chain_suite(200)
        assert len(reports) == 4 * 200
        assert all(r.passed for r in reports)

    def test_polya_suite_clean(self):
        assert all(r.passed for r in suites.polya_suite(40, seed=5, k_max=300))

    def test_run_suite_dispatch(self):
        assert suites.run_suite("lemma31", 10, 0)
        with pytest.raises(ValueError):
            suites.run_suite("nope", 10, 0)
