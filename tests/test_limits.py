"""Inputs past what float64 counting can do end in exit 2 or 3, quickly.

The CLI cases run in a child process with a timeout, so a kernel that loops
forever fails the test instead of hanging the suite.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import eigenbox
from eigenbox.lattice import count_bundle, count_full
from eigenbox.spectrum import (
    DEFAULT_CANDIDATE_CAP,
    PI,
    Cuboid,
    ResourceLimitError,
    _nmax_scalar,
    _nmax_vec,
    count_upto,
)

SRC = str(Path(eigenbox.__file__).resolve().parents[1])


def run_cli(*argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", "from eigenbox.cli import entrypoint; entrypoint()", *argv],
        env=env, capture_output=True, text=True, timeout=30,
    )


@pytest.mark.parametrize("side, code", [("1e-10", 3), ("1e-30", 3), ("1e-100", 2), ("1e-200", 2)])
@pytest.mark.parametrize("command", [["spectrum", "--k", "1"], ["count", "--lambda", "1e3"]])
def test_thin_box_exits_cleanly(command, side, code):
    proc = run_cli(*command, "--a1", side, "--a2", side)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("a1", ["1e-8", "3.162277660168379e-08", "1e-10"])
def test_one_thin_side_exits_cleanly(a1):
    # a3 = 1/a1: no single count overflows, yet float64 cannot resolve the
    # box; this once hung in the kernels or asked numpy for 26 GiB.
    proc = run_cli("spectrum", "--a1", a1, "--a2", "1", "--k", "1")
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr


def test_count_whose_sums_pass_int64_exits_3():
    # The x1 = 0 slice of the full-lattice count holds about 2e19 points; its
    # int64 sum once wrapped to a negative T and a false identity failure.
    proc = run_cli("count", "--a1", "2e-7", "--a2", "1e-3", "--lambda", "9.87e12")
    assert proc.returncode == 3, proc.stderr


def test_cuboid_rejects_overflowing_inverse_squares():
    with pytest.raises(ValueError):
        Cuboid.from_sides(1e-100, 1e-100)  # a3 = 1e200, a3^2 overflows
    with pytest.raises(ValueError):
        Cuboid.from_sides(1e-200, 1e-200)  # a1 * a2 underflows to 0
    with pytest.raises(ValueError):
        Cuboid(1e-160, 1e-20, 1e180)  # 1/a1^2 overflows
    assert Cuboid.from_sides(1e-10, 1e-10).inv_sq[2] == pytest.approx(1e-40)


def test_kernels_refuse_lines_past_2_to_53():
    with pytest.raises(ResourceLimitError):
        _nmax_scalar(0.0, 1e-40, 1e3)
    with pytest.raises(ResourceLimitError):
        _nmax_vec(np.array([0.0, 1.0]), 1e-40, 1e3)
    assert _nmax_scalar(0.0, 1e-20, 1e3) == int(math.sqrt(1e3 / PI**2 / 1e-20))


def test_count_upto_refuses_a_slice_past_2_to_53():
    # a3 = 1e8: each of the ~320 columns of the first slice holds about 3e14
    # points, so the slice's sum could pass 2^53.
    with pytest.raises(ResourceLimitError):
        count_upto(Cuboid.from_sides(1e-4, 1e-4), 1e14)


def test_count_with_long_plane_lines_exits_3_quickly():
    # The (x2, x3) plane holds about 1e7 lines of about 1e12 points; the plane
    # and quadrant counts once looped over them in Python for ~30 s before
    # the full-lattice count refused the box.
    start = time.perf_counter()
    proc = run_cli("count", "--a1", "1e-9", "--a2", "100", "--lambda", "9.87e10")
    assert proc.returncode == 3, proc.stderr
    assert time.perf_counter() - start < 5.0


def _column_limit(cuboid):
    """The lambda at which (a1 r + 1)(a2 r + 1), r = sqrt(lambda)/pi, reaches the cap."""
    a, b = cuboid.a1, cuboid.a2
    r = (-(a + b) + math.sqrt((a + b) ** 2 + 4 * a * b * (DEFAULT_CANDIDATE_CAP - 1))) / (2 * a * b)
    return (PI * r) ** 2


def test_count_columns_capped():
    # A flat box keeps the count just below the cap to about a second.
    box = Cuboid.from_sides(0.05, 1.0)
    lam = _column_limit(box)
    bundle = count_bundle(box, lam * 0.999)
    assert bundle.consistent()
    for count in (count_bundle, count_full):
        with pytest.raises(ResourceLimitError, match="candidate cap"):
            count(box, lam * 1.001)


def test_count_command_above_cap_exits_3():
    proc = run_cli("count", "--a1", "1", "--a2", "1", "--lambda", "1e12")
    assert proc.returncode == 3
    assert "candidate cap" in proc.stderr

