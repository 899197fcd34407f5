"""Import boundaries: scipy submodules load only where a subcommand uses them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
DEFERRED = ("scipy.fft", "scipy.integrate", "scipy.optimize")


def run_python(*args):
    """Run a fresh interpreter that imports ``wlns`` from this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )


@pytest.mark.parametrize("module", ["wlns", "wlns.cli"])
def test_import_defers_scipy_submodules(module):
    code = f"import sys, {module}; print(' '.join(sorted(sys.modules)))"
    loaded = set(run_python("-c", code).stdout.split())
    assert loaded.isdisjoint(DEFERRED)


def imported_modules(proc):
    """Module names from the ``-X importtime`` lines of a finished run."""
    # each -X importtime line ends in "| <module name>"
    return [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]


def test_recursive_scan_loads_no_scipy():
    argv = ["-X", "importtime", "-m", "wlns.cli", "recursive", "--C", "2", "--beta", "2", "--scan"]
    proc = run_python(*argv)
    assert proc.stdout.startswith("critical W0 bracket: [")
    imported = imported_modules(proc)
    assert "wlns.degiorgi" in imported
    assert [name for name in imported if name.split(".")[0] == "scipy"] == []


@pytest.mark.parametrize("subcommand", ["gronwall", "counterexample"])
def test_log_space_integrals_load_no_scipy(subcommand, tmp_path):
    if subcommand == "gronwall":
        signal = tmp_path / "b.csv"
        signal.write_text("t,B\n" + "".join(f"{i / 200!r},{1.0 + i % 3}\n" for i in range(201)))
        args = ["gronwall", str(signal)]
    else:
        args = ["counterexample", "--terms", "40"]
    proc = run_python("-X", "importtime", "-m", "wlns.cli", *args, "--out", str(tmp_path / "out"))
    imported = imported_modules(proc)
    assert f"wlns.{subcommand}" in imported
    assert [name for name in imported if name.split(".")[0] == "scipy"] == []
