import json
import math
import re
from pathlib import Path

import pytest

from eigenbox.cli import main

PI2 = math.pi**2

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpectrumCommand:
    def test_cube_first_five(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--a1", "1", "--a2", "1", "--k", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("schema_version,")
        assert len(lines) == 6
        last = lines[-1].split(",")
        assert float(last[2]) == pytest.approx(9 * PI2, rel=1e-12)
        assert float(last[2]) == pytest.approx(88.83, abs=0.01)
        assert last[3] == "9"  # exact integer multiple of pi^2 on the cube

    def test_k_max_alias(self, capsys):
        code_a, out_a, _ = run(capsys, "spectrum", "--a1", "1", "--a2", "1", "--k", "3")
        code_b, out_b, _ = run(capsys, "spectrum", "--a1", "1", "--a2", "1", "--k-max", "3")
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_flat_box_k1(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--a1", "0.5", "--a2", "1", "--k", "1")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert float(row[2]) == pytest.approx(5.25 * PI2, rel=1e-12)

    def test_invalid_geometry(self, capsys):
        code, _, err = run(capsys, "spectrum", "--a1", "0", "--a2", "1", "--k", "1")
        assert code == 2
        assert "positive" in err

    def test_resource_cap(self, capsys):
        code, _, err = run(
            capsys,
            "spectrum", "--a1", "0.9", "--a2", "1.0", "--k", "500",
            "--candidate-cap", "10",
        )
        assert code == 3
        assert "cap" in err

    @pytest.mark.parametrize(
        "golden, argv",
        [
            ("spectrum_0.7_0.9_k500.csv", ["--a1", "0.7", "--a2", "0.9", "--k", "500"]),
            ("spectrum_cube_k200.csv", ["--a1", "1", "--a2", "1", "--k", "200"]),
            ("spectrum_cube_k200.json",
             ["--a1", "1", "--a2", "1", "--k", "200", "--format", "json"]),
            ("spectrum_0.7_0.9_k500.json",
             ["--a1", "0.7", "--a2", "0.9", "--k", "500", "--format", "json"]),
        ],
    )
    def test_golden_bytes(self, capsys, golden, argv):
        code, out, _ = run(capsys, "spectrum", *argv)
        assert code == 0
        assert out.encode() == (GOLDEN / golden).read_bytes()

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--a1", "1", "--a2", "1", "--k", "2", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["eigenvalues"][1]["multiplicity"] == 3


class TestCountCommand:
    def test_cube_identity(self, capsys):
        code, out, _ = run(
            capsys, "count", "--a1", "1", "--a2", "1", "--lambda", str(3 * PI2)
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["T"] == 27
        assert payload["identity_ok"] is True

    def test_lambda_zero(self, capsys):
        code, out, _ = run(capsys, "count", "--a1", "0.7", "--a2", "1.1", "--lambda", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["T"] == 1 and payload["N"] == 0

    def test_negative_lambda(self, capsys):
        code, _, _ = run(capsys, "count", "--a1", "1", "--a2", "1", "--lambda", "-3")
        assert code == 2

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "count", "--a1", "1", "--a2", "1", "--lambda", "10", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines()[0].startswith("schema_version,a1,a2,a3,lambda,N,T")


class TestOptimizeCommand:
    def test_k1_row(self, capsys):
        code, out, _ = run(
            capsys, "optimize", "--k", "1",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        row = lines[1].split(",")
        assert float(row[2]) == pytest.approx(1.0, abs=1e-6)
        assert float(row[3]) == pytest.approx(1.0, abs=1e-6)
        assert float(row[4]) == pytest.approx(1.0, abs=1e-6)

    def test_dyadic_rows(self, capsys):
        code, out, _ = run(
            capsys,
            "optimize", "--k-min", "1", "--k-max", "16", "--dyadic",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 5  # header + k in {1,2,4,8,16}
        assert [int(r.split(",")[1]) for r in lines[1:]] == [1, 2, 4, 8, 16]

    def test_k_zero(self, capsys):
        code, _, _ = run(capsys, "optimize", "--k", "0")
        assert code == 2

    def test_bad_tolerance(self, capsys):
        code, _, _ = run(capsys, "optimize", "--k", "1", "--side-tol", "1e-20")
        assert code == 2

    def test_seed_is_not_an_optimize_flag(self, capsys):
        code, _, _ = run(capsys, "optimize", "--k", "8", "--seed", "1")
        assert code == 2

    def test_threads_below_one(self, capsys):
        for threads in ("0", "-1"):
            code, _, err = run(capsys, "optimize", "--k", "1", "--threads", threads)
            assert code == 2
            assert "threads must be >= 1" in err

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys,
            "optimize", "--k", "1",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 2
        assert payload["records"][0]["status"] == "certified"

    def test_threads_do_not_change_output_files(self, capsys, tmp_path):
        paths = []
        for threads in (1, 2):
            path = tmp_path / f"t{threads}.csv"
            code, _, _ = run(
                capsys,
                "optimize", "--k-min", "1", "--k-max", "3",
                "--threads", str(threads), "--out", str(path),
            )
            assert code == 0
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_progress_line_per_k(self, capsys):
        argv = ("optimize", "--k-min", "1", "--k-max", "4", "--dyadic")
        code, out, err = run(capsys, *argv)
        assert code == 0
        progress = re.findall(r"^k=(\d+): certified, (\d+) cells, \d+\.\d{3} s$", err, re.M)
        assert [k for k, _ in progress] == ["1", "2", "4"]
        assert [cells for _, cells in progress] == [row.split(",")[9] for row in out.splitlines()[1:]]
        code, out_threads, _ = run(capsys, *argv, "--threads", "2")
        assert code == 0
        assert out_threads == out

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "records.csv"
        code, out, _ = run(
            capsys,
            "optimize", "--k", "1",
            "--out", str(out_path),
        )
        assert code == 0
        assert out == ""
        assert out_path.read_text().startswith("schema_version,")


class TestOptimizeKSet:
    """Flags that give no k set, or two, exit 2 and name the fault."""

    @pytest.mark.parametrize("argv, fault", [
        (("--k-min", "5", "--k-max", "3"), "empty k range: --k-min 5 > --k-max 3"),
        (("--k-min", "3", "--k-max", "3", "--dyadic"), "no power of two in the k range 3..3"),
        (("--k-min", "5", "--k-max", "7", "--dyadic"), "no power of two in the k range 5..7"),
        (("--k", "2", "--k-min", "1", "--k-max", "4"), "--k takes no --k-min, --k-max or --dyadic"),
        (("--k", "2", "--k-max", "4"), "--k takes no --k-min, --k-max or --dyadic"),
        (("--k", "4", "--dyadic"), "--k takes no --k-min, --k-max or --dyadic"),
        (("--k-min", "0", "--k-max", "3"), "--k-min must be >= 1, got 0"),
        (("--k", "0"), "--k must be >= 1, got 0"),
        (("--k-min", "1"), "provide --k >= 1, or --k-min/--k-max"),
        ((), "provide --k >= 1, or --k-min/--k-max"),
    ])
    def test_fault_is_named(self, capsys, argv, fault):
        code, out, err = run(capsys, "optimize", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {fault}")
        assert err.count("\n") == 1

    def test_a_range_holding_one_power_of_two_is_fine(self, capsys):
        code, out, _ = run(capsys, "optimize", "--k-min", "3", "--k-max", "4", "--dyadic")
        assert code == 0
        assert [int(r.split(",")[1]) for r in out.splitlines()[1:]] == [4]


class TestVerifyCommand:
    def test_identity_suite(self, capsys):
        code, out, err = run(
            capsys, "verify", "--suite", "identity", "--samples", "200"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 201
        assert all(line.endswith(",true") for line in lines[1:])
        assert "commentary:" not in err

    def test_lemma41_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "lemma41", "--samples", "30")
        assert code == 0

    def test_zero_samples(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "all", "--samples", "0")
        assert code == 2

    def test_unknown_suite(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "bogus", "--samples", "10")
        assert code == 2

    def test_seed_changes_inputs_not_outcome(self, capsys):
        code_a, out_a, _ = run(
            capsys, "verify", "--suite", "lemma31", "--samples", "50", "--seed", "1"
        )
        code_b, out_b, _ = run(
            capsys, "verify", "--suite", "lemma31", "--samples", "50", "--seed", "2"
        )
        assert code_a == code_b == 0
        assert out_a != out_b

    def test_same_seed_same_bytes(self, capsys):
        args = ("verify", "--suite", "lemma32", "--samples", "40", "--seed", "9")
        code_a, out_a, _ = run(capsys, *args)
        code_b, out_b, _ = run(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b
