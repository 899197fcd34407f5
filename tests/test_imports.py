"""Import boundaries and the package namespace.

No subcommand loads scipy.  ``import wlns`` loads no ``wlns`` submodule:
each name in ``wlns.__all__`` is imported from its submodule on first
access, and ``wlns gronwall`` loads only the modules it runs.  Also the
package names the benchmark under ``perfbench/`` reaches: its
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


SUBMODULES = (
    "field", "lorentz", "criteria", "nse_solver", "degiorgi", "counterexample", "gronwall",
)


def _loaded_wlns(code: str) -> list[str]:
    """The ``wlns`` modules a fresh interpreter holds after running ``code``."""
    code += "; import sys; print(*sorted(m for m in sys.modules if m.split('.')[0] == 'wlns'))"
    return run_python("-c", code).stdout.splitlines()[-1].split()


def test_import_loads_no_submodule():
    assert _loaded_wlns("import wlns") == ["wlns"]


def test_gronwall_loads_only_what_it_runs(tmp_path):
    signal = tmp_path / "b.csv"
    signal.write_text("t,B\n0.0,1.0\n0.5,2.0\n")
    argv = ["gronwall", str(signal), "--out", str(tmp_path / "out")]
    code = f"from wlns.cli import main; main({argv!r})"
    assert _loaded_wlns(code) == ["wlns", "wlns.cli", "wlns.field", "wlns.gronwall"]


def test_every_exported_name_resolves():
    import wlns

    assert len(set(wlns.__all__)) == len(wlns.__all__)
    namespace: dict = {}
    exec("from wlns import *", namespace)
    for name in wlns.__all__:
        assert getattr(wlns, name) is namespace[name], name
        assert name in dir(wlns), name
    for name in SUBMODULES:
        assert getattr(wlns, name) is importlib.import_module(f"wlns.{name}")
    assert not hasattr(wlns, "no_such_name")


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
