"""Command-line surface: ``spectrum``, ``count``, ``optimize`` and ``verify``.

Data goes to stdout (or --out); progress and commentary go to stderr.  Exit
codes: 0 success, 1 verification failure, 2 bad input, 3 resource cap.
"""

from __future__ import annotations

import argparse
import io
import math
import statistics
import sys

import numpy as np

from . import reporting, suites
from .optimize import (
    InsufficientSpanError,
    OptimizerConfig,
    rate_fit,
    sweep,
)
from .spectrum import (
    DEFAULT_CANDIDATE_CAP,
    Cuboid,
    ResourceLimitError,
    spectrum_points,
)
from . import lattice

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_RESOURCE = 3

_MIN_TOL = sys.float_info.epsilon * 1e3


def _common_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default=None)
    common.add_argument("--out", default=None, help="output file (default: stdout)")
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigenbox",
        description="Dirichlet eigenvalues of unit-volume boxes by lattice counting",
    )
    common = _common_parser()
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", parents=[common], help="list eigenvalues of a box")
    sp.add_argument("--a1", type=float, required=True)
    sp.add_argument("--a2", type=float, required=True)
    sp.add_argument("--k", "--k-max", dest="k", type=int, required=True,
                    help="list eigenvalues 1..k")

    cp = sub.add_parser("count", parents=[common], help="lattice counts at one lambda")
    cp.add_argument("--a1", type=float, required=True)
    cp.add_argument("--a2", type=float, required=True)
    cp.add_argument("--lambda", dest="lam", type=float, required=True)

    op = sub.add_parser("optimize", parents=[common], help="minimise the k-th eigenvalue")
    op.add_argument("--k", type=int, default=None)
    op.add_argument("--k-min", type=int, default=None)
    op.add_argument("--k-max", type=int, default=None)
    op.add_argument("--dyadic", action="store_true",
                    help="powers of two between k-min and k-max")
    op.add_argument("--threads", type=int, default=1, help="worker processes")
    op.add_argument("--grid", type=int, default=64, help="coarse grid resolution")
    op.add_argument("--basins", type=int, default=8)
    op.add_argument("--max-iter", type=int, default=500)
    op.add_argument("--side-tol", type=float, default=1e-9)

    vp = sub.add_parser("verify", parents=[common], help="run an inequality suite")
    vp.add_argument("--suite", required=True, choices=suites.SUITE_NAMES + ("all",))
    vp.add_argument("--samples", type=int, default=1000,
                    help="sample count (k range for cube-chain)")
    vp.add_argument("--seed", type=int, default=0, help="sampling seed")

    for p in (sp, op):
        p.add_argument("--candidate-cap", type=int, default=DEFAULT_CANDIDATE_CAP,
                       help="abort an eigenvalue query whose band holds more lattice candidates")
    return parser


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def cmd_spectrum(args) -> int:
    if args.a1 <= 0 or args.a2 <= 0:
        print("error: sides must be positive", file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.k < 1:
        print("error: k must be >= 1", file=sys.stderr)
        return EXIT_BAD_INPUT
    cuboid = Cuboid.from_sides(args.a1, args.a2)
    try:
        points = spectrum_points(cuboid, args.k, candidate_cap=args.candidate_cap)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    fmt = args.format or "csv"
    if fmt == "json":
        _emit(args, reporting.spectrum_json(points, args.k, cuboid.is_cube) + "\n")
    else:
        out = io.StringIO()
        rows = reporting.spectrum_rows(points, args.k, cuboid.is_cube)
        reporting.write_csv(out, reporting.SPECTRUM_COLUMNS, rows)
        _emit(args, out.getvalue())
    return EXIT_OK


def cmd_count(args) -> int:
    if args.a1 <= 0 or args.a2 <= 0:
        print("error: sides must be positive", file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.lam < 0 or not math.isfinite(args.lam):
        print("error: lambda must be finite and >= 0", file=sys.stderr)
        return EXIT_BAD_INPUT
    cuboid = Cuboid.from_sides(args.a1, args.a2)
    bundle = lattice.count_bundle(cuboid, args.lam)
    fmt = args.format or "json"
    if fmt == "json":
        _emit(args, reporting.bundle_json(cuboid, bundle) + "\n")
    else:
        _emit(args, reporting.bundle_csv(cuboid, bundle))
    if not bundle.consistent():
        print("error: counting identity violated", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def _optimize_ks(args) -> list[int] | None:
    if args.k is not None:
        if args.k < 1:
            return None
        return [args.k]
    if args.k_min is None or args.k_max is None:
        return None
    if args.k_min < 1 or args.k_max < args.k_min:
        return None
    if args.dyadic:
        ks = []
        k = 1
        while k < args.k_min:
            k *= 2
        while k <= args.k_max:
            ks.append(k)
            k *= 2
        return ks or None
    return list(range(args.k_min, args.k_max + 1))


def cmd_optimize(args) -> int:
    ks = _optimize_ks(args)
    if ks is None:
        print("error: provide --k >= 1, or --k-min/--k-max", file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.side_tol < _MIN_TOL:
        print(f"error: --side-tol must be >= {_MIN_TOL:.3g}", file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.grid < 2 or args.basins < 1 or args.max_iter < 1:
        print("error: bad optimizer configuration", file=sys.stderr)
        return EXIT_BAD_INPUT
    config = OptimizerConfig(
        grid_n=args.grid,
        basins=args.basins,
        max_iter=args.max_iter,
        side_tol=args.side_tol,
        candidate_cap=args.candidate_cap,
        threads=args.threads,
    )
    records = sweep(ks, config)
    fmt = args.format or "csv"
    if fmt == "json":
        _emit(args, reporting.optimize_records_json(records) + "\n")
    else:
        out = io.StringIO()
        reporting.write_optimize_csv(out, records)
        _emit(args, out.getvalue())
    good = [r for r in records if r.cuboid is not None]
    if good:
        max_a3 = max(r.cuboid.a3 for r in good)
        min_a1 = min(r.cuboid.a1 for r in good)
        summary = f"summary: {len(good)}/{len(records)} ok, max a3*={max_a3:.6g}, min a1*={min_a1:.6g}"
        k_lo, k_hi = min(r.k for r in good), max(r.k for r in good)
        bottom = statistics.median(r.delta for r in good if r.k <= 10 * k_lo)
        top = statistics.median(r.delta for r in good if r.k >= k_hi / 10)
        summary += f", bottom-decade median delta={bottom:.6g}, top-decade median delta={top:.6g}"
        try:
            exponent, info = rate_fit(good)
            summary += f", fitted exponent={exponent:.4g} (reference {info.reference_exponent:.4g})"
        except InsufficientSpanError:
            pass
        print(summary, file=sys.stderr)
    for r in records:
        if r.cuboid is None:
            print(f"k={r.k}: {r.status}", file=sys.stderr)
    if not good:
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.samples <= 0:
        print("error: --samples must be positive", file=sys.stderr)
        return EXIT_BAD_INPUT
    names = list(suites.SUITE_NAMES) if args.suite == "all" else [args.suite]
    reports = []
    for name in names:
        reports.extend(suites.run_suite(name, args.samples, args.seed))
        print(f"suite {name}: {args.samples} samples done", file=sys.stderr)
    fmt = args.format or "csv"
    if fmt == "json":
        _emit(args, reporting.verify_reports_json(reports) + "\n")
    else:
        out = io.StringIO()
        reporting.write_verify_csv(out, reports)
        _emit(args, out.getvalue())
    lam_grid = np.linspace(50.0, 5000.0, 40)
    estimates = suites.remainder_constant_estimates(Cuboid(1.0, 1.0, 1.0), lam_grid)
    print(
        "commentary: empirical remainder scales on the unit cube: "
        f"C~{estimates['c_hat']:.4g} (exponent beta={estimates['beta']:.6g}), "
        f"D~{estimates['d_hat']:.4g} (exponent theta={estimates['theta']:.6g})",
        file=sys.stderr,
    )
    failures = sum(1 for r in reports if not r.passed)
    if failures:
        print(f"error: {failures} inequality violations", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_BAD_INPUT
    try:
        if args.command == "spectrum":
            return cmd_spectrum(args)
        if args.command == "count":
            return cmd_count(args)
        if args.command == "optimize":
            return cmd_optimize(args)
        if args.command == "verify":
            return cmd_verify(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    raise AssertionError(f"unhandled command {args.command}")


def entrypoint() -> None:
    raise SystemExit(main())
