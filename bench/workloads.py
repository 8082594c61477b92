"""The three workloads: inputs from the seed, the CLI calls of one round, and
the checks of their outputs against the brute-force reference.

Each round calls ``eigenbox.cli.main`` in-process with ``--out`` files under
the output directory.  ``run`` is the timed part; ``failed``, ``check`` and
``evaluations`` read the files afterwards.
"""

from __future__ import annotations

import csv
import io
import math
import os
import random

import reference

PI2 = math.pi**2
# Shortest side allowed for an optimal box: 1 / (8 (1/2 + sqrt 3)).
A1_FLOOR = 1.0 / (8.0 * (0.5 + math.sqrt(3.0)))
# Relative agreement required between the program and the reference.
RTOL = 1e-12
# The program merges eigenvalues less than this far apart (relative) into one
# spectral point, and counts a lattice point on the boundary of E(lam) within
# COUNT_RTOL as inside; both are part of its documented method.
MERGE_RTOL = 1e-9
COUNT_RTOL = 1e-10


def _close(x: float, y: float, rtol: float = RTOL) -> bool:
    return abs(x - y) <= rtol * max(abs(x), abs(y))


def _rows(data: bytes) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(data.decode())))


def _inputs(text: str) -> dict[str, str]:
    return dict(part.split("=", 1) for part in text.split(";"))


class Workload:
    name = ""
    ops_per_round = 0

    def __init__(self, seed: int, out_dir: str, workers: int):
        self.seed = seed
        self.out_dir = out_dir
        self.workers = workers

    def path(self, stem: str) -> str:
        return os.path.join(self.out_dir, f"{self.name}-{stem}.csv")

    def run(self, cli, serial: bool = False) -> list[int]:
        """One round of CLI calls; returns their exit codes."""
        raise NotImplementedError

    def outputs(self) -> list[bytes]:
        raise NotImplementedError

    def failed(self, codes: list[int], outputs: list[bytes]) -> int:
        raise NotImplementedError

    def check(self, codes: list[int], outputs: list[bytes]) -> list[str]:
        raise NotImplementedError

    def evaluations(self, outputs: list[bytes]) -> int:
        raise NotImplementedError

    def _read(self, stems) -> list[bytes]:
        result = []
        for stem in stems:
            try:
                with open(self.path(stem), "rb") as handle:
                    result.append(handle.read())
            except FileNotFoundError:
                result.append(b"")
        return result


class Sweep(Workload):
    """``optimize --dyadic`` over k = 1, 2, 4, ..., 2^TOP_EXP on the pool.

    The k set is the dyadic one of the acceptance sweep, cut at 2^8 so that a
    round takes seconds; it does not depend on the seed.
    """

    name = "sweep"
    TOP_EXP = 8
    ks = [2**e for e in range(TOP_EXP + 1)]
    ops_per_round = len(ks)

    def run(self, cli, serial=False):
        threads = 1 if serial else self.workers
        argv = ["optimize", "--k-min", "1", "--k-max", str(self.ks[-1]), "--dyadic",
                "--threads", str(threads), "--out", self.path("out")]
        return [cli.main(argv)]

    def outputs(self):
        return self._read(["out"])

    def _by_k(self, outputs):
        return {int(r["k"]): r for r in _rows(outputs[0])} if outputs[0] else {}

    def _ok(self, row) -> bool:
        return row is not None and not row["status"].startswith("failed") and row["a1"] != "nan"

    def failed(self, codes, outputs):
        rows = self._by_k(outputs)
        return sum(1 for k in self.ks if not self._ok(rows.get(k)))

    def check(self, codes, outputs):
        rows = self._by_k(outputs)
        levels = reference.cube_levels(self.ks[-1])
        problems = []
        for k in self.ks:
            row = rows.get(k)
            if not self._ok(row):
                continue
            sides = tuple(float(row[f"a{i}"]) for i in (1, 2, 3))
            lam = float(row["lambda_star"])
            if abs(sides[0] * sides[1] * sides[2] - 1.0) > RTOL:
                problems.append(f"k={k}: volume {sides[0] * sides[1] * sides[2]!r} != 1")
            if sides[0] < A1_FLOOR * (1.0 - RTOL):
                problems.append(f"k={k}: a1={sides[0]!r} below the floor {A1_FLOOR!r}")
            polya = (6.0 * PI2 * k) ** (2.0 / 3.0)
            nu_k = PI2 * float(levels[k - 1])
            if not (polya <= lam * (1.0 + RTOL) and lam <= nu_k * (1.0 + RTOL)):
                problems.append(f"k={k}: lambda*={lam!r} outside [{polya!r}, {nu_k!r}]")
            brute = float(reference.lowest(sides, k)[k - 1])
            if not _close(lam, brute):
                problems.append(f"k={k}: lambda*={lam!r} but brute force gives {brute!r}")
        return problems

    def evaluations(self, outputs):
        return sum(int(r["evaluations"]) for r in self._by_k(outputs).values())

    def evaluations_by_k(self, outputs) -> list[int]:
        rows = self._by_k(outputs)
        return [int(rows[k]["evaluations"]) if k in rows else -1 for k in self.ks]


class Spectrum(Workload):
    """``spectrum`` on three boxes drawn from the seed and on the unit cube.

    Each drawn box has a fixed longest side a3 and a seeded shortest side a1.
    Listing a generic spectrum scans index pairs (i1, i2) whose number grows
    with a1*a2 = 1/a3, so fixing a3 keeps the work of a round nearly the same
    for every seed.  Two boxes lie in the middle of the search domain, one is
    thin (a3 = 3); the cube takes the program's integer path.
    """

    name = "spectrum"
    K = 3000
    # (longest side, range of the shortest side); a2 = 1 / (a1 a3) lies in
    # [a1, a3] throughout each range.
    SHAPES = ((1.25, (0.65, 0.88)), (1.5, (0.45, 0.8)), (3.0, (0.25, 0.35)))
    ops_per_round = len(SHAPES) + 1

    def __init__(self, seed, out_dir, workers):
        super().__init__(seed, out_dir, workers)
        rng = random.Random(seed)
        self.boxes = []
        for a3, (lo, hi) in self.SHAPES:
            a1 = rng.uniform(lo, hi)
            self.boxes.append((a1, 1.0 / (a1 * a3)))
        self.boxes.append((1.0, 1.0))

    def run(self, cli, serial=False):
        return [
            cli.main(["spectrum", "--a1", repr(a1), "--a2", repr(a2), "--k", str(self.K),
                      "--out", self.path(str(i))])
            for i, (a1, a2) in enumerate(self.boxes)
        ]

    def outputs(self):
        return self._read([str(i) for i in range(len(self.boxes))])

    def failed(self, codes, outputs):
        return sum(1 for code in codes if code != 0)

    def check(self, codes, outputs):
        problems = []
        for (a1, a2), code, data in zip(self.boxes, codes, outputs):
            if code == 0:
                problems += [f"box ({a1!r}, {a2!r}): {p}" for p in self._check_box(a1, a2, data)]
        return problems

    def _check_box(self, a1, a2, data):
        cube = a1 == 1.0 and a2 == 1.0
        sides = tuple(sorted((a1, a2, 1.0 / (a1 * a2))))
        rows = _rows(data)
        if [int(r["k"]) for r in rows] != list(range(1, self.K + 1)):
            return [f"rows are not k = 1..{self.K}"]
        brute = reference.lowest(sides, self.K)
        problems = []
        k = 0
        while k < self.K:
            row = rows[k]
            lam = float(row["lambda"])
            mult = int(row["multiplicity"])
            triples = [tuple(int(i) for i in t.split(",")) for t in row["indices"].split(";")]
            group = 1
            while k + group < self.K and rows[k + group]["lambda"] == row["lambda"]:
                group += 1
            if not _close(lam, float(brute[k])):
                problems.append(f"k={k + 1}: lambda={lam!r} but brute force gives {float(brute[k])!r}")
            # Later rows of a merged point lie within the merge window.
            for j in range(k + 1, k + group):
                if not _close(lam, float(brute[j]), MERGE_RTOL + RTOL):
                    problems.append(f"k={j + 1}: lambda={lam!r} but brute force gives {float(brute[j])!r}")
            if len(triples) != mult or len(set(triples)) != mult:
                problems.append(f"k={k + 1}: {len(set(triples))} distinct triples, multiplicity {mult}")
            if group != mult and k + group < self.K:
                problems.append(f"k={k + 1}: {group} rows for multiplicity {mult}")
            for t in triples:
                if not _close(lam, reference.eigenvalue(sides, t), MERGE_RTOL + RTOL):
                    problems.append(f"k={k + 1}: triple {t} does not give lambda={lam!r}")
            over = row["lambda_over_pi2"]
            if cube:
                if not over.isdigit() or any(sum(i * i for i in t) != int(over) for t in triples):
                    problems.append(f"k={k + 1}: lambda_over_pi2={over} is not i1^2+i2^2+i3^2")
            elif not _close(float(over), lam / PI2):
                problems.append(f"k={k + 1}: lambda_over_pi2={over} != lambda/pi^2")
            k += group
        return problems

    def evaluations(self, outputs):
        return sum(len(_rows(data)) for data in outputs)


# Row names of each suite in verify output.
SUITE_OF_ROW = {
    "lemma31": "lemma31",
    "lemma32": "lemma32",
    "lemma41": "lemma41",
    "identity": "identity",
    "cube_chain_lower": "cube-chain",
    "cube_chain_upper": "cube-chain",
    "gauss_octant": "cube-chain",
    "cube_eigenvalue_bound": "cube-chain",
    "polya": "polya",
}
SUITES = ("lemma31", "lemma32", "lemma41", "identity", "cube-chain", "polya")


class Verify(Workload):
    """``verify --suite all`` with SAMPLES samples drawn from the seed."""

    name = "verify"
    SAMPLES = 1000
    # Rows per sample: lemma41 draws 10 lambdas per box, cube-chain 4 rows per k.
    ROWS = {"lemma31": 1, "lemma32": 1, "lemma41": 10, "identity": 1, "cube-chain": 4, "polya": 1}
    CHECKED = 40
    ops_per_round = len(SUITES)

    def run(self, cli, serial=False):
        return [cli.main(["verify", "--suite", "all", "--samples", str(self.SAMPLES),
                          "--seed", str(self.seed), "--out", self.path("out")])]

    def outputs(self):
        return self._read(["out"])

    def _by_suite(self, outputs):
        suites = {name: [] for name in SUITES}
        for row in _rows(outputs[0]) if outputs[0] else []:
            suites.setdefault(SUITE_OF_ROW.get(row["suite"], row["suite"]), []).append(row)
        return suites

    def _failed_suites(self, codes, outputs):
        if codes[0] not in (0, 1):
            return set(SUITES)
        suites = self._by_suite(outputs)
        return {
            name for name in SUITES
            if len(suites[name]) != self.ROWS[name] * self.SAMPLES
            or any(r["pass"] != "true" for r in suites[name])
        }

    def failed(self, codes, outputs):
        return len(self._failed_suites(codes, outputs))

    def check(self, codes, outputs):
        failed = self._failed_suites(codes, outputs)
        problems = []
        if not failed and codes[0] != 0:
            problems.append(f"exit code {codes[0]} with every row passing")
        suites = self._by_suite(outputs)
        extra = set(suites) - set(SUITES)
        if extra:
            problems.append(f"unexpected suites {sorted(extra)}")
        rng = random.Random(f"verify-check-{self.seed}")

        def sample(name):
            rows = suites[name] if name not in failed else []
            return rng.sample(rows, min(self.CHECKED, len(rows)))

        for row in suites["identity"] if "identity" not in failed else []:
            if float(row["slack"]) != 0.0:
                problems.append(f"identity slack {row['slack']} at {row['input_repr']}")
        for name, count in (("lemma41", reference.count_octant),
                            ("identity", reference.count_lattice)):
            for row in sample(name):
                x = _inputs(row["input_repr"])
                sides = (float(x["a1"]), float(x["a2"]), float(x["a3"]))
                brute = count(sides, float(x["lam"]) * (1.0 + COUNT_RTOL))
                if float(row["lhs"]) != brute:
                    problems.append(f"{name} lhs {row['lhs']} but brute force gives {brute} at {row['input_repr']}")
        for row in sample("polya"):
            x = _inputs(row["input_repr"])
            sides = (float(x["a1"]), float(x["a2"]), float(x["a3"]))
            k = int(x["k"])
            brute = float(reference.lowest(sides, k)[k - 1])
            if not _close(float(row["rhs"]), brute):
                problems.append(f"polya lambda_k {row['rhs']} but brute force gives {brute!r} at {row['input_repr']}")
        chain = [r for r in suites["cube-chain"] if r["suite"] == "cube_chain_lower"]
        if "cube-chain" not in failed and chain:
            levels = reference.cube_levels(self.SAMPLES)
            for row in rng.sample(chain, min(self.CHECKED, len(chain))):
                x = _inputs(row["input_repr"])
                if int(x["m"]) != int(levels[int(x["k"]) - 1]):
                    problems.append(f"cube-chain level m={x['m']} but brute force gives {levels[int(x['k']) - 1]} at k={x['k']}")
        return problems

    def evaluations(self, outputs):
        return sum(len(rows) for rows in self._by_suite(outputs).values())


WORKLOADS = {w.name: w for w in (Sweep, Spectrum, Verify)}
