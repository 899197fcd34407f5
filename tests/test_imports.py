"""Import boundaries: no subcommand loads scipy, and `import wlns` defers its submodules.

Also the package names the benchmark under ``perfbench/`` reaches: its
``from wlns... import ...`` lines and the functions its traced runs wrap.
"""

import ast
import importlib
from pathlib import Path

import pytest
from conftest import imported_modules, run_python

ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "src" / "wlns" / "configs"
PERFBENCH = ROOT / "perfbench"
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


def _resolve(module: str, dotted: str):
    owner = importlib.import_module(module)
    for part in dotted.split("."):
        owner = getattr(owner, part)
    return owner


def test_benchmark_imports_resolve():
    names = [
        (path.name, node.module, alias.name)
        for path in sorted(PERFBENCH.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "wlns"
        for alias in node.names
    ]
    assert names, "perfbench imports nothing from wlns"
    for source, module, name in names:
        assert _resolve(module, name) is not None, f"{source}: from {module} import {name}"


def test_benchmark_instrumented_functions_resolve():
    # read, not imported: perfbench/layers.py imports its siblings as top-level modules
    tree = ast.parse((PERFBENCH / "layers.py").read_text())
    (instrumented,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "INSTRUMENTED" for t in node.targets)
    ]
    assert instrumented
    for module, attr in instrumented:
        assert callable(_resolve(module, attr)), f"INSTRUMENTED entry {module}.{attr}"
