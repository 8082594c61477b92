"""Benchmark of eigenbox: one workload per call, end to end or layer by layer.

    python3 bench/run.py --workload {sweep,spectrum,verify} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the program is imported from ./src.  Rounds of
the workload's CLI calls repeat until S seconds have passed, always finishing
the round in progress, and each metric is the median over rounds.  Outputs go
to ./.bench_out and are checked against the brute-force reference in
reference.py after the timed rounds.

With --trace 0 the metrics are end to end: wall and CPU seconds per round,
set-up seconds, peak resident memory and evaluations per round.  The three
times are scaled to a reference host speed by hostspeed.py; the measured
times go to stderr.  With
--trace 1 the same untraced rounds run first, then two traced rounds (the
sweep runs serially there), and the metrics are the per-layer figures of
tracing.py.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stderr
from io import StringIO

from hostspeed import SpeedProbe
from tracing import Tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
# Set-up is timed in this many fresh interpreters, each of which times its
# own import of the CLI and the building of its parser and then probes the
# host's speed; the median of the scaled times is reported.
SETUP_REPEATS = 9
SETUP_CODE = """
import time
start = time.perf_counter()
import eigenbox.cli as cli
cli.build_parser()
elapsed = time.perf_counter() - start
import hostspeed
print(elapsed, hostspeed.REFERENCE_S / hostspeed.probe_s(100))
"""
TRACED_ROUNDS = 2


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _setup_s() -> tuple[float, float]:
    """Median set-up seconds, measured and scaled."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, HERE, env.get("PYTHONPATH")) if p)
    measured, scaled = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True,
                              timeout=60, capture_output=True, text=True)
        elapsed, scale = (float(x) for x in done.stdout.split())
        measured.append(elapsed)
        scaled.append(elapsed * scale)
    return statistics.median(measured), statistics.median(scaled)


def _round(workload, cli, serial=False, traced=False):
    """Run one round; returns ((wall_s, cpu_s, scale), exit codes, output bytes).

    Untraced rounds run under the host-speed probe; its own time is taken out
    of wall_s and cpu_s, and multiplying them by scale gives them at the
    reference host speed.  Traced rounds run without it, so that no probe
    lands inside a span, and their scale is 1.
    """
    sink = StringIO()
    speed = SpeedProbe()
    with redirect_stderr(sink), nullcontext() if traced else speed:
        cpu = _cpu_s()
        start = time.perf_counter()
        codes = workload.run(cli, serial)
        wall = time.perf_counter() - start
        cpu = _cpu_s() - cpu
    if any(code != 0 for code in codes):
        sys.stderr.write(sink.getvalue())
    if traced:
        return (wall, cpu, 1.0), codes, workload.outputs()
    times = (wall - speed.wall_s, cpu - speed.cpu_s, speed.scale)
    return times, codes, workload.outputs()


def _source_digest() -> str:
    """Digest of the program's and the benchmark's Python sources."""
    digest = hashlib.sha256()
    for folder in (os.path.join(SRC, "eigenbox"), HERE):
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as handle:
                    digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()[:16]


def _traced(workload, cli, untraced, untraced_wall, problems):
    """Traced rounds; returns the per-layer metrics and the ops they ran."""
    rounds = []
    for i in range(TRACED_ROUNDS):
        tracer = Tracer()
        tracer.install()
        try:
            (wall, _, _), codes, outputs = _round(workload, cli, serial=True, traced=True)
        finally:
            tracer.uninstall()
        if outputs != untraced[2]:
            problems.append(f"traced round {i + 1} output differs from the untraced output")
        if i == 0:
            tracer.write_jsonl(os.path.join(OUT, f"trace-{workload.name}-{workload.seed}.jsonl"))
        rounds.append((tracer, workload.failed(codes, outputs), outputs))
        sys.stderr.write(f"traced round {i + 1}: wall {wall:.3f} s\n")

    layers = [tracer.layer_metrics() for tracer, _, _ in rounds]
    counts = [
        {name: value for name, value in m.items() if name.endswith((".calls", ".per_kth"))}
        for m in layers
    ]
    per_k = [tracer.kth_calls_per_optimize_k() for tracer, _, _ in rounds]
    for i in range(1, len(rounds)):
        if counts[i] != counts[0] or per_k[i] != per_k[0]:
            problems.append(f"traced round {i + 1} counts differ from round 1")
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}

    outputs = rounds[0][2]
    n_ops = workload.ops_per_round
    evaluations = workload.evaluations(outputs)
    metrics["optimize.evaluations_per_k"] = 0.0
    metrics["optimize.kth_calls_per_k"] = 0.0
    metrics["optimize.pool_efficiency"] = 0.0
    if workload.name == "sweep":
        if per_k[0] != workload.evaluations_by_k(untraced[2]):
            problems.append(
                f"traced kth_eigenvalue calls per k {per_k[0]} != untraced evaluations "
                f"{workload.evaluations_by_k(untraced[2])}"
            )
        metrics["optimize.evaluations_per_k"] = evaluations / n_ops
        metrics["optimize.kth_calls_per_k"] = sum(per_k[0]) / n_ops
        metrics["optimize.pool_efficiency"] = metrics["optimize.serial_s"] / (
            workload.workers * untraced_wall
        )
    metrics["reporting.bytes"] = float(sum(len(data) for data in outputs))

    # Counts must repeat exactly between traced runs of the same sources and
    # seed; the first such run leaves them here for the next to compare.
    record = {"counts": counts[0], "kth_calls_per_k": per_k[0]}
    path = os.path.join(OUT, f"counts-{workload.name}-{workload.seed}-{_source_digest()}.json")
    if os.path.exists(path):
        with open(path) as handle:
            if json.load(handle) != record:
                problems.append(f"counts differ from the earlier traced run in {path}")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    return metrics, len(rounds) * n_ops, sum(failed for _, failed, _ in rounds)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "eigenbox", "__init__.py")):
        print(f"error: no eigenbox package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import eigenbox.cli as cli

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    workers = min(2, os.cpu_count() or 1)
    workload = WORKLOADS[args.workload](args.seed, OUT, workers)

    setup_s = _setup_s() if args.trace == 0 else (0.0, 0.0)
    # Only the first round's outputs are kept, so that the benchmark's own
    # memory does not grow with the number of rounds.
    first = None
    rounds = []
    failed = 0
    problems = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        times, codes, outputs = _round(workload, cli)
        rounds.append(times)
        failed += workload.failed(codes, outputs)
        if first is None:
            first = (times, codes, outputs)
        elif codes != first[1] or outputs != first[2]:
            problems.append(f"round {len(rounds)} output differs from round 1")
    peak_kb = max(resource.getrusage(who).ru_maxrss
                  for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))

    attempted = len(rounds) * workload.ops_per_round
    problems += workload.check(first[1], first[2])
    wall_s = statistics.median(r[0] for r in rounds)
    sys.stderr.write(
        f"{args.workload}: {len(rounds)} rounds; measured wall s per round "
        + " ".join(f"{r[0]:.3f}" for r in rounds)
        + "; scale " + " ".join(f"{r[2]:.3f}" for r in rounds)
        + f"; measured median wall {wall_s:.4f} s, cpu "
        + f"{statistics.median(r[1] for r in rounds):.4f} s, set-up {setup_s[0]:.4f} s\n"
    )

    if args.trace == 0:
        metrics = {
            "wall_s": (statistics.median(r[0] * r[2] for r in rounds), "s"),
            "cpu_s": (statistics.median(r[1] * r[2] for r in rounds), "s"),
            "setup_s": (setup_s[1], "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
            "evaluations": (float(workload.evaluations(first[2])), "count"),
        }
    else:
        layers, traced_ops, traced_failed = _traced(workload, cli, first, wall_s, problems)
        attempted += traced_ops
        failed += traced_failed
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as handle:
            spec = {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}
        metrics = {name: (layers[name], unit) for name, unit in spec.items()}

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
