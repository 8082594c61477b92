"""Outside-in layer trace of eigenbox: spans around its public functions.

``Tracer.install`` replaces each traced function, in the namespace of every
loaded ``eigenbox`` module that holds it, by a wrapper that records a span
(label, parent span, start, end).  Because the names are rebound where the
callers look them up, nested calls are traced too: ``count_upto`` inside
``kth_eigenvalue``, ``count_full`` inside ``count_bundle``, ``optimize_k``
inside ``sweep``.  Spans stay in memory until ``write_jsonl``.  Nothing in
the program changes; ``uninstall`` restores every binding.
"""

from __future__ import annotations

import json
import sys
import time

# (module, function, label); the label of ``run_suite`` names its suite.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("spectrum", "kth_eigenvalue", "spectrum.kth_eigenvalue"),
    ("spectrum", "count_upto", "spectrum.count_upto"),
    ("spectrum", "spectrum_points", "spectrum.spectrum_points"),
    ("optimize", "optimize_k", "optimize.optimize_k"),
    ("optimize", "sweep", "optimize.sweep"),
    ("lattice", "count_bundle", "lattice.count_bundle"),
    ("lattice", "count_full", "lattice.count_full"),
    ("lattice", "count_plane", "lattice.count_plane"),
    ("suites", "run_suite", "suites"),
    ("bounds", "lemma_sum", "bounds.lemma_sum"),
    ("bounds", "lemma31_rhs", "bounds.lemma31_rhs"),
    ("bounds", "lemma32_rhs", "bounds.lemma32_rhs"),
    ("bounds", "lemma41_rhs", "bounds.lemma41_rhs"),
    ("bounds", "cube_eigenvalue_bound", "bounds.cube_eigenvalue_bound"),
    ("bounds", "polya_lower_bound", "bounds.polya_lower_bound"),
    ("bounds", "delta_from_am_gm", "bounds.delta_from_am_gm"),
    ("bounds", "a1_lower_bound", "bounds.a1_lower_bound"),
    ("reporting", "write_csv", "reporting.write_csv"),
    ("reporting", "write_optimize_csv", "reporting.write_optimize_csv"),
    ("reporting", "write_verify_csv", "reporting.write_verify_csv"),
    ("reporting", "spectrum_rows", "reporting.spectrum_rows"),
    ("reporting", "optimize_records_json", "reporting.optimize_records_json"),
    ("reporting", "verify_reports_json", "reporting.verify_reports_json"),
    ("reporting", "spectrum_json", "reporting.spectrum_json"),
)

SUITES = ("lemma31", "lemma32", "lemma41", "identity", "cube-chain", "polya")


class Tracer:
    """Spans of the wrapped eigenbox functions, in call order."""

    def __init__(self) -> None:
        self.label: list[str] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, label: str):
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            name = f"{label}.{args[0]}" if label == "suites" else label
            sid = len(self.label)
            self.label.append(name)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(sid)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "eigenbox"]
        for module_name, func_name, label in TARGETS:
            home = sys.modules.get(f"eigenbox.{module_name}")
            fn = getattr(home, func_name, None)
            if fn is None:
                # A later version may drop a function; its metrics then read 0.
                continue
            wrapper = self._wrap(fn, label)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._undo.append((module, attr, fn))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()

    def write_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            for sid, label in enumerate(self.label):
                handle.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": self.parent[sid],
                            "name": label,
                            "start": self.start[sid],
                            "end": self.end[sid],
                        }
                    )
                    + "\n"
                )

    def layer_metrics(self) -> dict[str, float]:
        """Per-label calls, busy seconds and the derived per-layer figures."""
        n = len(self.label)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child_s = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child_s[self.parent[i]] += dur[i]

        def ids(label):
            return [i for i in range(n) if self.label[i] == label]

        def layer_s(prefix):
            # Outermost spans of a layer only, so nested calls count once.
            return sum(
                dur[i]
                for i in range(n)
                if self.label[i].startswith(prefix)
                and (self.parent[i] < 0 or not self.label[self.parent[i]].startswith(prefix))
            )

        kth = ids("spectrum.kth_eigenvalue")
        kth_set = set(kth)
        count = ids("spectrum.count_upto")
        opt = ids("optimize.optimize_k")
        main = ids("cli.main")
        m: dict[str, float] = {}
        m["spectrum.kth_eigenvalue.calls"] = len(kth)
        m["spectrum.kth_eigenvalue.s"] = sum(dur[i] for i in kth)
        m["spectrum.kth_eigenvalue.us_per_call"] = (
            1e6 * m["spectrum.kth_eigenvalue.s"] / len(kth) if kth else 0.0
        )
        m["spectrum.count_upto.calls"] = len(count)
        m["spectrum.count_upto.s"] = sum(dur[i] for i in count)
        m["spectrum.count_upto.per_kth"] = (
            sum(1 for i in count if self.parent[i] in kth_set) / len(kth) if kth else 0.0
        )
        points = ids("spectrum.spectrum_points")
        m["spectrum.spectrum_points.calls"] = len(points)
        m["spectrum.spectrum_points.s"] = sum(dur[i] for i in points)
        m["optimize.optimize_k.self_s"] = sum(dur[i] - child_s[i] for i in opt)
        m["optimize.serial_s"] = sum(dur[i] for i in opt)
        m["optimize.max_k_s"] = max((dur[i] for i in opt), default=0.0)
        bundle = ids("lattice.count_bundle")
        m["lattice.count_bundle.calls"] = len(bundle)
        m["lattice.count_bundle.s"] = sum(dur[i] for i in bundle)
        m["lattice.count_full.s"] = sum(dur[i] for i in ids("lattice.count_full"))
        m["lattice.count_plane.s"] = sum(dur[i] for i in ids("lattice.count_plane"))
        for suite in SUITES:
            m[f"suites.{suite}.s"] = sum(dur[i] for i in ids(f"suites.{suite}"))
        m["bounds.s"] = layer_s("bounds.")
        m["reporting.s"] = layer_s("reporting.")
        m["cli.self_s"] = sum(dur[i] - child_s[i] for i in main)
        return m

    def kth_calls_per_optimize_k(self) -> list[int]:
        """kth_eigenvalue calls made directly by each optimize_k, in call order."""
        n = len(self.label)
        opt = [i for i in range(n) if self.label[i] == "optimize.optimize_k"]
        calls = {i: 0 for i in opt}
        for i in range(n):
            if self.label[i] == "spectrum.kth_eigenvalue" and self.parent[i] in calls:
                calls[self.parent[i]] += 1
        return [calls[i] for i in opt]
