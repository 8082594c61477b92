"""Reference figures of the spectrum layer, for bench/README.md.

    python3 bench/figures.py

Run from the repository root.  Prints the median time of one
``kth_eigenvalue`` call on the box (0.97, 1.01) at k = 64, 1024, 16384 and of
``spectrum_points`` on the box (0.7, 0.9) at K = 500 ... 4000 and on the unit
cube at K = 16000.
"""

import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from eigenbox.spectrum import UNIT_CUBE, Cuboid, kth_eigenvalue, spectrum_points  # noqa: E402


def median_s(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main():
    box = Cuboid.from_sides(0.97, 1.01)
    for k, repeats in ((64, 101), (1024, 31), (16384, 7)):
        ms = 1e3 * median_s(lambda: kth_eigenvalue(box, k), repeats)
        print(f"kth_eigenvalue (0.97, 1.01) k={k}: {ms:.2f} ms (median of {repeats})")
    box = Cuboid.from_sides(0.7, 0.9)
    previous = None
    for k_max in (500, 1000, 2000, 4000):
        s = median_s(lambda: spectrum_points(box, k_max), 5)
        growth = f", x{s / previous:.2f} per doubling" if previous else ""
        print(f"spectrum_points (0.7, 0.9) K={k_max}: {s:.3f} s (median of 5{growth})")
        previous = s
    s = median_s(lambda: spectrum_points(UNIT_CUBE, 16000), 5)
    print(f"spectrum_points unit cube K=16000: {s:.3f} s (median of 5)")


if __name__ == "__main__":
    main()
