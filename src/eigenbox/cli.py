"""Command-line surface: ``spectrum``, ``count``, ``optimize`` and ``verify``.

Data goes to stdout (or --out); progress and summaries go to stderr.  Exit
codes: 0 success, 1 verification failure, 2 bad input, 3 resource cap or memory.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from itertools import chain

from . import reporting, suites
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigenbox",
        description="Dirichlet eigenvalues of unit-volume boxes by lattice counting",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default=None)
    common.add_argument("--out", default=None, help="output file (default: stdout)")
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

    vp = sub.add_parser("verify", parents=[common], help="run an inequality suite")
    vp.add_argument("--suite", required=True, choices=suites.SUITE_NAMES + ("all",))
    vp.add_argument("--samples", type=int, default=1000,
                    help="sample count (k range for cube-chain)")
    vp.add_argument("--seed", type=int, default=0, help="sampling seed")

    for p in (sp, op):
        p.add_argument("--candidate-cap", type=int, default=DEFAULT_CANDIDATE_CAP,
                       help="abort an eigenvalue query whose band holds more lattice candidates")
    return parser


def _emit(args, table: reporting.Table, records, default: str = "csv") -> None:
    """Write ``records`` in the chosen format to --out or stdout; both formats
    stream."""
    with open(args.out, "w", newline="") if args.out else nullcontext(sys.stdout) as handle:
        if (args.format or default) == "json":
            table.write_json(handle, records)
            handle.write("\n")
        else:
            table.write_csv(handle, records)


def cmd_spectrum(args) -> int:
    cuboid = Cuboid.from_sides(args.a1, args.a2)
    points = spectrum_points(cuboid, args.k, candidate_cap=args.candidate_cap)
    _emit(args, reporting.SPECTRUM, reporting.spectrum_records(points, args.k, cuboid.is_cube))
    return EXIT_OK


def cmd_count(args) -> int:
    cuboid = Cuboid.from_sides(args.a1, args.a2)
    bundle = lattice.count_bundle(cuboid, args.lam)
    _emit(args, reporting.COUNT, [(cuboid, bundle)], default="json")
    if not bundle.consistent():
        print("error: counting identity violated", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def _optimize_ks(args) -> list[int]:
    """The k set of the optimize flags; a ValueError names what is wrong."""
    if args.k is not None:
        if args.k_min is not None or args.k_max is not None or args.dyadic:
            raise ValueError("--k takes no --k-min, --k-max or --dyadic; give one k or a range")
        if args.k < 1:
            raise ValueError(f"--k must be >= 1, got {args.k}")
        return [args.k]
    if args.k_min is None or args.k_max is None:
        raise ValueError("provide --k >= 1, or --k-min/--k-max")
    if args.k_min < 1:
        raise ValueError(f"--k-min must be >= 1, got {args.k_min}")
    if args.k_max < args.k_min:
        raise ValueError(f"empty k range: --k-min {args.k_min} > --k-max {args.k_max}")
    if args.dyadic:
        ks = [1 << e for e in range(args.k_max.bit_length()) if 1 << e >= args.k_min]
        if not ks:
            raise ValueError(f"no power of two in the k range {args.k_min}..{args.k_max}")
        return ks
    return list(range(args.k_min, args.k_max + 1))


def cmd_optimize(args) -> int:
    ks = _optimize_ks(args)
    # Only this command runs the optimiser; the others never load it.
    import statistics

    from .optimize import InsufficientSpanError, OptimizerConfig, rate_fit, sweep

    config = OptimizerConfig(candidate_cap=args.candidate_cap, threads=args.threads)
    records = sweep(ks, config)
    _emit(args, reporting.OPTIMIZE, records)
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
    if not good:
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.samples <= 0:
        print("error: --samples must be positive", file=sys.stderr)
        return EXIT_BAD_INPUT
    names = list(suites.SUITE_NAMES) if args.suite == "all" else [args.suite]
    failures = 0

    def chunks():
        # Each chunk is counted as the writer takes it, and a suite's line
        # goes to stderr when the writer has taken its last chunk.
        nonlocal failures
        for name in names:
            for chunk in suites.suite_chunks(name, args.samples, args.seed):
                failures += sum(not r.passed for r in chunk)
                yield chunk
            print(f"suite {name}: {args.samples} samples done", file=sys.stderr)

    _emit(args, reporting.VERIFY, chain.from_iterable(chunks()))
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
    command = {"spectrum": cmd_spectrum, "count": cmd_count,
               "optimize": cmd_optimize, "verify": cmd_verify}[args.command]
    try:
        return command(args)
    except (ResourceLimitError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
