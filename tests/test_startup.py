"""Each command loads only the code it runs.

``spectrum``, ``verify`` and the parser never run the optimiser,
its process pool or the modules only other paths use, so they must not import
them: start-up is the largest part of a short run.  Every case runs in a
fresh interpreter, since this test process has long since imported them all.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import eigenbox

SRC = str(Path(eigenbox.__file__).resolve().parents[1])

# What none of spectrum, verify and the parser imports.
DEFERRED = (
    "eigenbox.optimize",
    "concurrent.futures.process",
    "multiprocessing",
    "statistics",
    "fractions",
    "json",
    "csv",
)

OPTIMIZE_NAMES = (
    "InsufficientSpanError",
    "OptimalRecord",
    "OptimizerConfig",
    "optimize_k",
    "rate_fit",
    "sweep",
)


def loaded_after(body: str) -> set[str]:
    """The names of ``DEFERRED`` in ``sys.modules`` after ``body`` runs in a
    fresh interpreter.  The child prints them plainly: json is watched too."""
    code = f"import sys\n{body}\nprint(' '.join(n for n in {DEFERRED!r} if n in sys.modules))\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def cli_run(*argv: str) -> str:
    return f"from eigenbox.cli import main\nassert main({list(argv)!r}) == 0"


def test_the_parser_loads_nothing_deferred():
    assert loaded_after("import eigenbox.cli as cli\ncli.build_parser()") == set()


def test_the_package_loads_nothing_deferred():
    assert loaded_after("import eigenbox") == set()


@pytest.mark.parametrize("argv", [
    ("spectrum", "--a1", "0.7", "--a2", "0.9", "--k", "50"),
    ("verify", "--suite", "all", "--samples", "5", "--seed", "1"),
], ids=["spectrum", "verify"])
def test_commands_that_never_optimise_load_nothing_deferred(argv, tmp_path):
    out = str(tmp_path / "out.csv")
    assert loaded_after(cli_run(*argv, "--out", out)) == set()


def test_count_loads_only_the_exact_decomposition(tmp_path):
    # N from the decomposition is rational arithmetic, which count runs.
    argv = ("count", "--a1", "0.5", "--a2", "1", "--lambda", "51.8", "--format", "csv",
            "--out", str(tmp_path / "out.csv"))
    assert loaded_after(cli_run(*argv)) == {"fractions"}


def test_optimize_loads_the_optimiser_but_not_the_pool_on_one_worker(tmp_path):
    loaded = loaded_after(cli_run("optimize", "--k", "2", "--out", str(tmp_path / "out.csv")))
    assert "eigenbox.optimize" in loaded
    assert "concurrent.futures.process" not in loaded


def test_a_pool_loads_the_pool(tmp_path):
    if (os.cpu_count() or 1) < 2:
        pytest.skip("a pool needs two CPUs")
    argv = ("optimize", "--k-min", "1", "--k-max", "2", "--threads", "2",
            "--out", str(tmp_path / "out.csv"))
    assert {"eigenbox.optimize", "concurrent.futures.process"} <= loaded_after(cli_run(*argv))


def test_bad_optimize_flags_load_no_optimiser():
    body = "from eigenbox.cli import main\nassert main(['optimize', '--k-min', '5', '--k-max', '3']) == 2"
    assert "eigenbox.optimize" not in loaded_after(body)


def test_the_optimiser_names_import_from_the_package():
    body = (
        "import eigenbox\n"
        f"assert set({OPTIMIZE_NAMES!r}) <= set(dir(eigenbox))\n"
        "assert 'eigenbox.optimize' not in sys.modules\n"
        f"from eigenbox import {', '.join(OPTIMIZE_NAMES)}\n"
        "import eigenbox.optimize as optimize\n"
        f"assert all(getattr(eigenbox, n) is getattr(optimize, n) for n in {OPTIMIZE_NAMES!r})"
    )
    assert "eigenbox.optimize" in loaded_after(body)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        eigenbox.no_such_name
    with pytest.raises(ImportError):
        from eigenbox import no_such_name  # noqa: F401
    assert "no_such_name" not in dir(eigenbox)
