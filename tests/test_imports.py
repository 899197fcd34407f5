"""Import boundaries: no subcommand loads scipy, and `import wlns` defers its submodules."""

from pathlib import Path

import pytest
from conftest import imported_modules, run_python

CONFIG_DIR = Path(__file__).resolve().parents[1] / "src" / "wlns" / "configs"
DEFERRED = ("scipy.fft", "scipy.integrate", "scipy.optimize")


@pytest.mark.parametrize("module", ["wlns", "wlns.cli"])
def test_import_defers_scipy_submodules(module):
    code = f"import sys, {module}; print(' '.join(sorted(sys.modules)))"
    loaded = set(run_python("-c", code).stdout.split())
    assert loaded.isdisjoint(DEFERRED)


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


def test_simulate_and_diagnose_load_no_scipy(tmp_path):
    cfg = tmp_path / "tg16.cfg"
    cfg.write_text((CONFIG_DIR / "taylor-green.cfg").read_text().replace("n = 32", "n = 16"))
    run = tmp_path / "run"
    commands = (
        ("wlns.nse_solver", ["simulate", str(cfg), "--out", str(run)]),
        ("wlns.degiorgi", ["diagnose", str(run), "--q", "6", "--cylinder-scale", "0.3",
                           "--out", str(tmp_path / "diag")]),
    )
    for module, args in commands:
        imported = imported_modules(run_python("-X", "importtime", "-m", "wlns.cli", *args))
        assert module in imported
        assert [name for name in imported if name.split(".")[0] == "scipy"] == []
