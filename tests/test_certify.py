"""The certified search behind ``optimize_k``.

Its closed-form branch bounds against dense grids, its exact small cases,
the certificate and a brute-force lambda_k for every k <= 40, the two
optima that the earlier grid + simplex search missed, and its limits.
"""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eigenbox import optimize
from eigenbox.bounds import a1_lower_bound
from eigenbox.optimize import GAP_RTOL, MARGIN, OptimizerConfig, branch_bounds, optimize_k, sweep
from eigenbox.reporting import read_optimize_csv
from eigenbox.spectrum import PI_SQUARED, ResourceLimitError

# A few ulps of the one kth_eigenvalue call and the final box's rounding.
ULPS = 1e-15


def brute_lowest(sides, k):
    """The k smallest eigenvalues, by sorting every triple of an index grid
    that holds all eigenvalues up to a doubling lambda."""
    lam = (6.0 * PI_SQUARED * k) ** (2.0 / 3.0)
    while True:
        axes = [np.arange(1, int(a * math.sqrt(lam) / math.pi) + 2, dtype=np.float64) for a in sides]
        i1, i2, i3 = np.ix_(*axes)
        values = PI_SQUARED * ((i1 / sides[0]) ** 2 + (i2 / sides[1]) ** 2 + (i3 / sides[2]) ** 2)
        inside = values[values <= lam]
        if inside.size >= k:
            return np.sort(inside)[:k]
        lam *= 2.0


def branch(s, u, v):
    return PI_SQUARED * (s[0] / u + s[1] / v + s[2] * (u * v))


LO = a1_lower_bound() ** 2


@settings(max_examples=200)
@given(
    st.floats(LO, 1.0), st.floats(1.0, 3.0),
    st.floats(LO, 1.0 / a1_lower_bound()), st.floats(1.0, 3.0),
    st.tuples(*[st.integers(1, 12)] * 3),
)
def test_closed_form_bounds_hold_on_a_dense_grid(u0, ru, v0, rv, triple):
    u1, v1 = u0 * ru, v0 * rv
    s = np.array(triple, dtype=np.float64)[:, None] ** 2
    lo, hi = branch_bounds(s, u0, u1, v0, v1)
    u = np.geomspace(u0, u1, 201)[:, None]
    v = np.geomspace(v0, v1, 201)[None, :]
    grid = branch(s[:, 0], u, v)
    assert lo[0] <= grid.min()
    assert lo[0] >= grid.min() * (1.0 - 1e-4)
    corners = [branch(s[:, 0], a, b) for a in (u0, u1) for b in (v0, v1)]
    assert hi[0] == pytest.approx(max(corners), rel=2 * MARGIN)
    assert hi[0] >= grid.max()


def test_k1_is_the_exact_cube():
    rec = optimize_k(1)
    assert rec.cuboid.sides == (1.0, 1.0, 1.0)
    assert rec.lambda_star == 3.0 * PI_SQUARED
    assert rec.lambda_lower <= rec.lambda_star


def test_k2_is_the_am_gm_box():
    rec = optimize_k(2)
    expected = (4 ** (-1 / 6), 4 ** (-1 / 6), 4 ** (1 / 3))
    assert rec.cuboid.sides == pytest.approx(expected, rel=1e-12, abs=0)


def test_every_k_up_to_40_is_certified():
    for k in range(1, 41):
        rec = optimize_k(k)
        assert rec.status == "certified" and rec.evaluations == 1
        assert rec.lambda_lower <= rec.lambda_star * (1.0 + ULPS), k
        assert rec.lambda_star <= rec.lambda_lower * (1.0 + GAP_RTOL) * (1.0 + ULPS), k
        a1, a2, a3 = rec.cuboid.sides
        assert a1_lower_bound() <= a1 <= a2 <= a3
        assert abs(a1 * a2 * a3 - 1.0) <= 1e-12
        brute = brute_lowest(rec.cuboid.sides, k)[k - 1]
        assert rec.lambda_star == pytest.approx(brute, rel=1e-12), k


@pytest.mark.parametrize("k, ceiling", [(2048, 2679.68872), (4096, 4181.17063)])
def test_optima_the_grid_search_missed(k, ceiling):
    # The grid + simplex search reported 2680.268866 and 4181.927288 here.
    rec = optimize_k(k)
    assert rec.lambda_star <= ceiling
    assert rec.lambda_star <= rec.lambda_lower * (1.0 + GAP_RTOL) * (1.0 + ULPS)


def test_cell_budget_fails_per_k(monkeypatch):
    monkeypatch.setattr(optimize, "CELL_BUDGET", 5)
    with pytest.raises(ResourceLimitError, match="cells"):
        optimize_k(3)
    (rec,) = sweep([3], OptimizerConfig())
    assert rec.cuboid is None and rec.status.startswith("failed: ")
    assert rec.cells == 0 and math.isnan(rec.lambda_lower)


def test_tiny_candidate_cap_fails_per_k():
    records = sweep([8, 32], OptimizerConfig(candidate_cap=200))
    assert records[0].status == "certified"
    assert records[1].status.startswith("failed: ") and "candidate cap" in records[1].status


def test_optimize_csv_rejects_schema_1():
    header = "schema_version,k,a1,a2,a3,lambda_star,lambda_lower,delta,evaluations,cells,status\n"
    with pytest.raises(ValueError, match="schema_version"):
        read_optimize_csv(io.StringIO(header + "1,1,1,1,1,1,1,0,1,1,certified\n"))
