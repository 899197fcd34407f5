"""End-to-end tests of the command-line interface."""

import contextlib
import errno
import hashlib
import io
import json
import math
import os
import shutil
import signal
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from wlns.cli import main
from wlns.criteria import CriterionTrace
from wlns.field import Grid, VectorField, read_vector_snapshot, write_snapshot

CONFIG_DIR = Path(__file__).resolve().parents[1] / "src" / "wlns" / "configs"


RANDOM_CFG = """\
[solver]
n = 16
dt = 1e-3
t_end = 0.02
snapshot_every = 4
initial_condition = random
seed = 7
amplitude = 1.0

[diagnostics]
q = 6.0

[output]
write_snapshots = false
"""


# five Taylor-Green snapshots named tg_*.bin, for the runs that halt while writing one
HALTING_CFG = """\
[solver]
n = 16
dt = 1e-3
t_end = 0.01
snapshot_every = 2
initial_condition = taylor_green

[diagnostics]
q = 6.0

[output]
prefix = tg
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def checked_outputs(out):
    """The manifest and its listed names, once the invariant of every halt holds.

    Each listed sha256 and size match the file, the listed snapshots are
    exactly the ``tg_*.bin`` files on disk, and no ``.partial`` file is left.
    """
    manifest = json.loads((out / "manifest.json").read_text())
    listed = [entry["path"] for entry in manifest["outputs"]]
    for entry in manifest["outputs"]:
        data = (out / entry["path"]).read_bytes()
        assert hashlib.sha256(data).hexdigest() == entry["sha256"]
        assert len(data) == entry["bytes"]
    on_disk = sorted(path.name for path in out.glob("tg_*.bin"))
    assert sorted(name for name in listed if name.endswith(".bin")) == on_disk
    assert not list(out.glob("*.partial"))
    return manifest, listed


@pytest.fixture(scope="module")
def taylor_green_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("tg_out")
    code = main(["simulate", str(CONFIG_DIR / "taylor-green.cfg"), "--out", str(out)])
    assert code == 0
    return out


class TestSimulate:
    def test_shipped_config_outputs(self, taylor_green_run):
        out = taylor_green_run
        assert (out / "trace.csv").exists()
        assert (out / "manifest.json").exists()
        snapshots = sorted(out.glob("tg_*.bin"))
        assert len(snapshots) == 11  # 100 steps, every 10, plus t = 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "simulate"
        assert manifest["halted"] is None
        assert len(manifest["outputs"]) == 12
        for entry in manifest["outputs"]:
            assert len(entry["sha256"]) == 64

    def test_energy_column_decays(self, taylor_green_run):
        rows = np.genfromtxt(taylor_green_run / "trace.csv", delimiter=",", names=True)
        # sup|u| of the vortex decays like e^{-2 nu t} (energy like e^{-4t})
        decay = rows["sup_norm"][-1] / rows["sup_norm"][0]
        assert decay == pytest.approx(math.exp(-2.0 * 0.1), rel=1e-5)

    def test_config_defaults_are_the_solver_defaults(self, tmp_path):
        from wlns.cli import _load_run_config
        from wlns.nse_solver import SolverConfig

        path = write_config(tmp_path, "[solver]\nn = 8\n")
        assert _load_run_config(str(path))[2] == SolverConfig()

    def test_determinism_across_runs_and_threads(self, tmp_path):
        cfg = write_config(tmp_path, RANDOM_CFG)
        traces = []
        for i in range(3):
            out = tmp_path / f"out{i}"
            code = main(["simulate", str(cfg), "--out", str(out)])
            assert code == 0
            traces.append((out / "trace.csv").read_bytes())
        assert traces[0] == traces[1] == traces[2]

    def test_manifest_checksums_reproduce(self, tmp_path):
        cfg = write_config(tmp_path, RANDOM_CFG)
        digests = []
        for i in range(2):
            out = tmp_path / f"rep{i}"
            assert main(["simulate", str(cfg), "--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            digests.append([o["sha256"] for o in manifest["outputs"]])
            assert manifest["seed"] == 7
        assert digests[0] == digests[1]

    def test_blowup_halts_with_partial_trace(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "[solver]\nn = 16\ndt = 1e-3\nt_end = 0.01\nblowup_threshold = 0.5\n"
            "initial_condition = taylor_green\n\n[diagnostics]\nq = 6.0\n",
        )
        out = tmp_path / "halt"
        code = main(["simulate", str(cfg), "--out", str(out)])
        assert code == 2
        assert "halted" in capsys.readouterr().err
        assert (out / "trace.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert "exceeded threshold" in manifest["halted"]

    @staticmethod
    def halt_by_signal(tmp_path, signum, halted):
        """Send ``signum`` to a ``simulate`` subprocess after three snapshots; check its halt."""
        cfg = write_config(
            tmp_path,
            "[solver]\nn = 16\ndt = 1e-3\nt_end = 100.0\nsnapshot_every = 20\n"
            "initial_condition = taylor_green\n\n[diagnostics]\nq = 6.0\n\n"
            "[output]\nprefix = tg\n",
        )
        out = tmp_path / "out"
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.Popen(
            [sys.executable, "-m", "wlns.cli", "simulate", str(cfg), "--out", str(out)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            deadline = time.monotonic() + 120.0
            while len(list(out.glob("tg_*.bin"))) < 3:
                assert proc.poll() is None, proc.communicate()
                assert time.monotonic() < deadline, "no snapshots written"
                time.sleep(0.02)
            proc.send_signal(signum)
            _, err = proc.communicate(timeout=120.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 2, err
        assert f"halted: {halted}" in err
        manifest, listed = checked_outputs(out)
        assert manifest["halted"] == halted
        assert "trace.csv" in listed
        snapshots = sorted(name for name in listed if name.endswith(".bin"))
        assert len(snapshots) >= 3
        assert snapshots == [f"tg_{i:06d}.bin" for i in range(len(snapshots))]
        times = [read_vector_snapshot(out / name)[0] for name in snapshots]
        assert times == pytest.approx([0.02 * i for i in range(len(snapshots))], abs=1e-12)
        trace = CriterionTrace.from_csv(out / "trace.csv", q=6.0)
        # the signal may land between writing a snapshot and its trace row
        assert len(snapshots) - 1 <= len(trace.t) <= len(snapshots)
        assert list(trace.t) == times[: len(trace.t)]

    def test_interrupt_leaves_readable_partial_outputs(self, tmp_path):
        self.halt_by_signal(tmp_path, signal.SIGINT, "interrupted")

    def test_sigterm_leaves_readable_partial_outputs(self, tmp_path):
        self.halt_by_signal(tmp_path, signal.SIGTERM, "terminated")

    def test_sigterm_handler_restored_after_run(self, tmp_path):
        cfg = write_config(tmp_path, RANDOM_CFG)
        before = signal.getsignal(signal.SIGTERM)
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "main")]) == 0
        assert signal.getsignal(signal.SIGTERM) is before
        # a worker thread may not set handlers: it runs without one
        codes = []
        worker = threading.Thread(
            target=lambda: codes.append(main(["simulate", str(cfg), "--out", str(tmp_path / "w")]))
        )
        worker.start()
        worker.join(timeout=120.0)
        assert not worker.is_alive()
        assert codes == [0]
        assert signal.getsignal(signal.SIGTERM) is before

    def test_out_of_memory_leaves_readable_partial_outputs(self, tmp_path, monkeypatch, capsys):
        import wlns.field

        calls = []

        def failing_write(path, t, u):
            calls.append(t)
            if len(calls) == 3:
                raise MemoryError
            write_snapshot(path, t, u)

        monkeypatch.setattr(wlns.field, "write_snapshot", failing_write)
        out = tmp_path / "out"
        assert main(["simulate", str(write_config(tmp_path, HALTING_CFG)), "--out", str(out)]) == 2
        assert "halted: out of memory" in capsys.readouterr().err
        manifest, listed = checked_outputs(out)
        assert manifest["halted"] == "out of memory"
        assert sorted(listed) == ["tg_000000.bin", "tg_000001.bin", "trace.csv"]
        times = [read_vector_snapshot(out / f"tg_{i:06d}.bin")[0] for i in range(2)]
        assert times == pytest.approx([0.0, 0.002], abs=1e-12)
        trace = CriterionTrace.from_csv(out / "trace.csv", q=6.0)
        assert list(trace.t) == times

    @pytest.mark.parametrize(
        "exc, after, halted, kept",
        [
            (KeyboardInterrupt(), True, "interrupted", 3),
            (KeyboardInterrupt(), False, "interrupted", 2),
            (OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)), False,
             f"write failed: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}", 2),
        ],
        ids=["interrupt-after-rename", "interrupt-before-rename", "disk-full"],
    )
    def test_halt_in_third_snapshot_write_lists_what_is_on_disk(
        self, tmp_path, capsys, fail_replace, exc, after, halted, kept
    ):
        fail_replace(exc, 3, after=after)
        out = tmp_path / "out"
        assert main(["simulate", str(write_config(tmp_path, HALTING_CFG)), "--out", str(out)]) == 2
        assert f"halted: {halted}" in capsys.readouterr().err
        manifest, listed = checked_outputs(out)
        assert manifest["halted"] == halted
        assert sorted(listed) == [*(f"tg_{i:06d}.bin" for i in range(kept)), "trace.csv"]
        times = [read_vector_snapshot(out / f"tg_{i:06d}.bin")[0] for i in range(kept)]
        trace = CriterionTrace.from_csv(out / "trace.csv", q=6.0)
        assert kept - 1 <= len(trace.t) <= kept
        assert list(trace.t) == times[: len(trace.t)]

    def test_rerun_lists_no_snapshot_of_an_earlier_run(self, tmp_path, fail_replace):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, HALTING_CFG)
        assert main(["simulate", str(cfg), "--out", str(out)]) == 0
        fail_replace(KeyboardInterrupt(), 3)
        assert main(["simulate", str(cfg), "--out", str(out)]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        listed = sorted(entry["path"] for entry in manifest["outputs"])
        assert listed == ["tg_000000.bin", "tg_000001.bin", "trace.csv"]
        assert not (out / "tg_000002.bin").exists()

    def test_syntax_error_reports_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[solver]\nn = 16\nthis is not a key value pair\n")
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "x")]) == 1
        assert "line" in capsys.readouterr().err.lower()

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[solver]\nn = 16\nvorticity = 3\n")
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "x")]) == 1
        assert "vorticity" in capsys.readouterr().err

    def test_missing_seed_for_random(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[solver]\nn = 16\ninitial_condition = random\n")
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "x")]) == 1
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "steps",
        ["dt = 0.03\nt_end = 0.1", "t_end = inf", "dt = 1.0\nt_end = 1e-10"],
        ids=["not-a-multiple", "infinite", "zero-steps"],
    )
    def test_bad_step_count_rejected_before_output(self, tmp_path, capsys, steps):
        cfg = write_config(tmp_path, f"[solver]\nn = 8\n{steps}\n")
        out = tmp_path / "x"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()
        assert "t_end" in capsys.readouterr().err

    @pytest.mark.parametrize("threshold", ["nan", "0", "-1"])
    def test_bad_blowup_threshold_rejected_before_output(self, tmp_path, capsys, threshold):
        # the 16^3 Taylor-Green run that halts at threshold 0.5
        cfg = write_config(
            tmp_path,
            f"[solver]\nn = 16\ndt = 1e-3\nt_end = 0.01\nblowup_threshold = {threshold}\n"
            "initial_condition = taylor_green\n\n[diagnostics]\nq = 6.0\n",
        )
        out = tmp_path / "x"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()
        assert "blowup_threshold" in capsys.readouterr().err

    @pytest.mark.parametrize("q", ["10.0", "3", "nan"])
    def test_bad_diagnostics_q_rejected_before_output(self, tmp_path, capsys, q):
        cfg = write_config(
            tmp_path,
            f"[solver]\nn = 8\nt_end = 0.002\n\n[diagnostics]\nq = {q}\n\n"
            "[output]\nprefix = tg\n",
        )
        out = tmp_path / "x"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()
        assert "[diagnostics] q must lie in (3, 9)" in capsys.readouterr().err

    @pytest.mark.parametrize("component", ["1.5", "inf", "nan"])
    def test_non_integer_mode_rejected_before_output(self, tmp_path, capsys, component):
        cfg = write_config(
            tmp_path,
            "[solver]\nn = 8\nt_end = 0.002\ninitial_condition = single_mode\n"
            f"mode = {component},0,0\ndirection = 0,1,0\n",
        )
        out = tmp_path / "x"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()
        assert "[solver] mode" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "setting, key",
        [(f"direction = {d}", "[solver] direction")
         for d in ("0,0,0", "nan,0,0", "inf,0,0", "1e-320,0,0", "1e200,0,0")]
        + [(f"amplitude = {a}", "[solver] amplitude") for a in ("inf", "-inf", "nan")],
    )
    def test_degenerate_single_mode_rejected_before_output(self, tmp_path, capsys, setting, key):
        cfg = write_config(
            tmp_path,
            f"[solver]\nn = 8\nt_end = 0.002\ninitial_condition = single_mode\n{setting}\n",
        )
        out = tmp_path / "x"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", str(cfg), "--out", str(out)]) == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()
        err = capsys.readouterr().err
        assert key in err and "RuntimeWarning" not in err

    @pytest.mark.parametrize(
        "setting",
        [
            "amplitude = 1.7e308",
            "amplitude = 1.7e308\ninitial_condition = single_mode\nmode = 1,0,0\ndirection = 0,1,0",
            "amplitude = 1.7e308\ninitial_condition = random\nseed = 1",
            "box_length = 1e-310",  # its wavenumbers overflow
        ],
        ids=["taylor-green", "single-mode", "random", "tiny-box"],
    )
    def test_non_finite_initial_state_halts(self, tmp_path, capsys, setting):
        cfg = write_config(
            tmp_path, f"[solver]\nn = 16\nt_end = 0.002\n{setting}\n\n[diagnostics]\nq = 6.0\n"
        )
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", str(cfg), "--out", str(out)]) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert capsys.readouterr().err == "halted: non-finite initial state\n"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["halted"] == "non-finite initial state"
        assert manifest["outputs"] == []

    def test_overflowing_criterion_integrands_halt(self, tmp_path, capsys):
        # |u| near 1e150 is a finite norm whose 4th power (q = 6, p = 4) is not
        cfg = write_config(
            tmp_path,
            "[solver]\nn = 8\nt_end = 0.002\ninitial_condition = random\nseed = 1\n"
            "amplitude = 1e150\n\n[diagnostics]\nq = 6\n",
        )
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", str(cfg), "--out", str(out)]) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert capsys.readouterr().err == "halted: overflow in physical-space product\n"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["halted"] == "overflow in physical-space product"
        header, row = (out / "trace.csv").read_text().splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        assert values["t"] == "0.0"
        assert [values[k] for k in ("I_lps", "I_zl", "I_wlog", "I_remark")] == ["inf"] * 4
        for key in ("sup_norm", "weak_q", "strong_q", "weak_sigma"):
            assert 1e149 < float(values[key]) < 1e151

    @pytest.mark.parametrize("length", ["1e-310", "1e-153"])
    def test_random_field_in_a_box_too_small_rejected_before_output(
        self, tmp_path, capsys, length
    ):
        # a random field is projected while the config loads, so the box's
        # overflowing wavenumbers are a config error, not a halted run
        cfg = write_config(
            tmp_path,
            f"[solver]\nn = 16\nt_end = 0.002\nbox_length = {length}\n"
            "initial_condition = random\nseed = 1\n",
        )
        out = tmp_path / "x"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", str(cfg), "--out", str(out)]) == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == f"error: [solver] box_length {float(length)!r} is too small: |k|^2 overflows\n"

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("n = 16\ninitial_condition = single_mode\nmode = 0,0,1e30",
             "error: [solver] mode needs int64 components, got '0,0,1e30'\n"),
            # 7.11 PiB is past any address space, so the first array fails at once
            ("n = 100000", "error: [solver] n: Unable to allocate 7.11 PiB for an array"),
        ],
        ids=["mode", "n"],
    )
    def test_out_of_range_setup_rejected_before_output(self, tmp_path, capsys, setting, message):
        cfg = write_config(tmp_path, f"[solver]\n{setting}\nt_end = 0.002\n")
        out = tmp_path / "x"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1

    @pytest.mark.parametrize("kind", ["taylor_green", "random\nseed = 3"])
    def test_zero_amplitude_run_writes_zero_snapshots(self, tmp_path, kind):
        cfg = write_config(
            tmp_path,
            f"[solver]\nn = 8\nt_end = 0.004\ninitial_condition = {kind}\namplitude = 0\n\n"
            "[diagnostics]\nq = 6.0\n",
        )
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 0
        snapshots = sorted(out.glob("run_*.bin"))
        assert len(snapshots) == 5
        for path in snapshots:
            assert not read_vector_snapshot(path)[1].as_array().any()

    @pytest.mark.parametrize("prefix", ["../escaped", "sub/run", "manifest.json/x"])
    def test_prefix_with_path_separator_rejected_before_output(self, tmp_path, capsys, prefix):
        cfg = write_config(
            tmp_path, f"[solver]\nn = 8\nt_end = 0.002\n\n[output]\nprefix = {prefix}\n"
        )
        fresh = tmp_path / "fresh"
        assert main(["simulate", str(cfg), "--out", str(fresh)]) == 1
        assert not fresh.exists()
        # into the directory of a finished run, nothing is written in or next to it
        done = tmp_path / "done"
        done.mkdir()
        (done / "manifest.json").write_text("{}\n")
        assert main(["simulate", str(cfg), "--out", str(done)]) == 1
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["done", "manifest.json", "run.cfg"]
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all("[output] prefix" in line for line in err)


class TestDiagnose:
    def test_recomputes_identical_trace(self, taylor_green_run, tmp_path):
        out = tmp_path / "diag"
        code = main(
            ["diagnose", str(taylor_green_run), "--q", "6.0", "--out", str(out)]
        )
        assert code == 0
        assert (out / "trace.csv").read_bytes() == (
            taylor_green_run / "trace.csv"
        ).read_bytes()

    def test_level_table(self, taylor_green_run, tmp_path):
        out = tmp_path / "diag_levels"
        code = main(
            [
                "diagnose",
                str(taylor_green_run),
                "--q",
                "6.0",
                "--cylinder-scale",
                "0.3",
                "--kmax",
                "4",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = (out / "levels.csv").read_text().splitlines()
        assert lines[0] == "k,T_k,radius_k,threshold_k,sup_term,diss_term,U_k"
        assert len(lines) == 6
        # sub-unit velocities: every truncation past threshold 1/2 is empty
        for line in lines[2:]:
            assert float(line.split(",")[-1]) == 0.0

    def test_manifest_records_every_option(self, taylor_green_run, tmp_path):
        base = ["diagnose", str(taylor_green_run), "--q", "6.0", "--cylinder-scale", "0.3"]
        out = tmp_path / "centred"
        assert main([*base, "--kmax", "3", "--cylinder-center", "3,3,3", "--out", str(out)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert set(config) == {"snapshots", "q", "out", "cylinder_scale", "cylinder_center", "kmax"}
        assert config["kmax"] == 3
        assert config["cylinder_center"] == [3, 3, 3]
        # without --cylinder-center the manifest names the box centre the run used
        out = tmp_path / "default"
        assert main([*base, "--out", str(out)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config["cylinder_center"] == [math.pi] * 3

    def test_empty_directory(self, tmp_path, capsys):
        assert main(["diagnose", str(tmp_path), "--q", "6", "--out", str(tmp_path)]) == 1
        assert "no .bin snapshots" in capsys.readouterr().err

    @pytest.mark.parametrize("cylinders", [False, True])
    def test_mixed_grids_rejected_before_output(
        self, taylor_green_run, tmp_path, capsys, cylinders
    ):
        snaps = tmp_path / "snaps"
        shutil.copytree(taylor_green_run, snaps, ignore=shutil.ignore_patterns("*.csv", "*.json"))
        odd = snaps / "tg_000005x.bin"
        coarse = Grid(8)
        write_snapshot(odd, 0.05, VectorField.from_arrays(coarse, *np.zeros((3, *coarse.shape))))
        out = tmp_path / "diag"
        extra = ["--cylinder-scale", "0.3", "--kmax", "1"] if cylinders else []
        assert main(["diagnose", str(snaps), "--q", "6.0", "--out", str(out), *extra]) == 1
        err = capsys.readouterr().err
        assert "tg_000005x.bin" in err and "n=8" in err
        assert not out.exists()

    def test_one_snapshot_with_cylinders_rejected_before_output(
        self, taylor_green_run, tmp_path, capsys
    ):
        snaps = tmp_path / "snaps"
        snaps.mkdir()
        shutil.copy(taylor_green_run / "tg_000000.bin", snaps)
        out = tmp_path / "diag"
        code = main(
            ["diagnose", str(snaps), "--q", "6.0", "--out", str(out), "--cylinder-scale", "0.3"]
        )
        assert code == 1
        assert "at least two snapshots" in capsys.readouterr().err
        assert not out.exists()

    def test_sparse_windows_rejected_before_output(self, taylor_green_run, tmp_path, capsys):
        snaps = tmp_path / "snaps"
        snaps.mkdir()
        for name in ("tg_000000.bin", "tg_000010.bin"):
            shutil.copy(taylor_green_run / name, snaps)
        out = tmp_path / "diag"
        code = main(
            ["diagnose", str(snaps), "--q", "6.0", "--out", str(out), "--cylinder-scale", "0.3"]
        )
        assert code == 1
        assert "error: window (T_0, 1] holds 2 snapshots; need >= 10" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "names, scale, message",
        [
            (None, "5",
             "error: mapped B(-1) has diameter 45 exceeding the box length 6.283; shrink the scale\n"),
            (("tg_000000.bin", "tg_000010.bin"), "0.3",
             "error: window (T_0, 1] holds 2 snapshots; need >= 10 (reference cadence <= 0.222)\n"),
        ],
        ids=["too-large", "sparse-windows"],
    )
    def test_cylinder_checks_precede_every_read(
        self, taylor_green_run, tmp_path, capsys, monkeypatch, names, scale, message
    ):
        snaps = taylor_green_run
        if names is not None:
            snaps = tmp_path / "snaps"
            snaps.mkdir()
            for name in names:
                shutil.copy(taylor_green_run / name, snaps)
        monkeypatch.setattr("wlns.field.read_vector_snapshot", read_before_out_check)
        out = tmp_path / "diag"
        argv = ["diagnose", str(snaps), "--q", "6.0", "--out", str(out), "--cylinder-scale", scale]
        assert main(argv) == 1
        assert capsys.readouterr().err == message
        assert not out.exists()

    @pytest.mark.parametrize("count", [0, 2])
    def test_wrong_field_count_rejected_before_output(
        self, taylor_green_run, tmp_path, capsys, count
    ):
        snaps = tmp_path / "snaps"
        shutil.copytree(taylor_green_run, snaps, ignore=shutil.ignore_patterns("*.csv", "*.json"))
        bad = snaps / "tg_000004.bin"
        raw = bad.read_bytes()
        bad.write_bytes(raw[:28] + struct.pack("<I", count) + raw[32:])
        out = tmp_path / "diag"
        assert main(["diagnose", str(snaps), "--q", "6.0", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {bad}: expected 3 fields, found {count}\n"
        assert not out.exists()

    @pytest.mark.parametrize("cylinders", [False, True])
    @pytest.mark.parametrize("defect", ["truncated", "trailing"])
    def test_bad_file_size_rejected_before_output(
        self, taylor_green_run, tmp_path, capsys, defect, cylinders
    ):
        snaps = tmp_path / "snaps"
        shutil.copytree(taylor_green_run, snaps, ignore=shutil.ignore_patterns("*.csv", "*.json"))
        bad = snaps / "tg_000007.bin"
        raw = bad.read_bytes()
        bad.write_bytes(raw[:-8] if defect == "truncated" else raw + b"\0")
        out = tmp_path / "diag"
        extra = ["--cylinder-scale", "0.3", "--kmax", "1"] if cylinders else []
        assert main(["diagnose", str(snaps), "--q", "6.0", "--out", str(out), *extra]) == 1
        err = capsys.readouterr().err
        message = "truncated snapshot payload" if defect == "truncated" else "trailing bytes"
        assert "tg_000007.bin" in err and message in err
        assert not out.exists()

    def test_unreadable_snapshot_rejected_before_output(self, taylor_green_run, tmp_path, capsys):
        snaps = tmp_path / "snaps"
        shutil.copytree(taylor_green_run, snaps, ignore=shutil.ignore_patterns("*.csv", "*.json"))
        (snaps / "zz.bin").mkdir()
        out = tmp_path / "diag"
        assert main(["diagnose", str(snaps), "--q", "6.0", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {snaps / 'zz.bin'}: ")
        assert not out.exists()

    @pytest.mark.parametrize("cylinders", [False, True])
    def test_non_finite_payload_rejected_before_output(
        self, taylor_green_run, tmp_path, capsys, cylinders
    ):
        snaps = tmp_path / "snaps"
        shutil.copytree(taylor_green_run, snaps, ignore=shutil.ignore_patterns("*.csv", "*.json"))
        bad = snaps / "tg_000009.bin"
        raw = bytearray(bad.read_bytes())
        raw[-8:] = struct.pack("<d", math.nan)  # the header still checks out
        bad.write_bytes(bytes(raw))
        out = tmp_path / "diag"
        extra = ["--cylinder-scale", "0.3", "--kmax", "1"] if cylinders else []
        assert main(["diagnose", str(snaps), "--q", "6.0", "--out", str(out), *extra]) == 1
        err = capsys.readouterr().err
        assert "tg_000009.bin" in err and "finite" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--cylinder-scale", "0.3", "--cylinder-center", "1,2"],
             "error: --cylinder-center needs three comma-separated values, got '1,2'\n"),
            (["--cylinder-scale", "5"], "shrink the scale"),
            (["--cylinder-scale", "-0.3"], "error: scale must be positive\n"),
            (["--cylinder-scale", "0.3", "--cylinder-center", "nan,1,1"],
             "error: center must be finite, got (nan, 1.0, 1.0)\n"),
        ],
        ids=["center", "too-large", "negative", "non-finite-center"],
    )
    def test_bad_cylinder_rejected_before_output(
        self, taylor_green_run, tmp_path, capsys, extra, message
    ):
        out = tmp_path / "diag"
        argv = ["diagnose", str(taylor_green_run), "--q", "6.0", "--out", str(out), *extra]
        assert main(argv) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestBoundedMemory:
    """``simulate`` and ``diagnose`` hold one snapshot at a time, whatever the run length."""

    def test_peak_does_not_grow_with_snapshot_count(self, tmp_path):
        grid = Grid(16)
        snapshot_bytes = 3 * grid.n**3 * 8

        def config(dt):
            # every snapshot of both runs lies in every window of --cylinder-scale 0.3
            text = (
                f"[solver]\nn = {grid.n}\ndt = {dt!r}\nt_end = 0.02\nsnapshot_every = 1\n"
                "initial_condition = taylor_green\n\n[diagnostics]\nq = 6.0\n\n"
                "[output]\nprefix = tg\n"
            )
            return str(write_config(tmp_path, text, name=f"dt{dt!r}.cfg"))

        def traced_peak(argv):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1] - start

        def peaks(label, dt):
            sim, diag = tmp_path / f"{label}-sim", tmp_path / f"{label}-diag"
            return (
                traced_peak(["simulate", config(dt), "--out", str(sim)]),
                traced_peak(["diagnose", str(sim), "--q", "6", "--out", str(diag),
                             "--cylinder-scale", "0.3"]),
            )

        tracemalloc.start()
        try:
            # the first runs of each step size fill the per-grid caches
            peaks("warm-short", 2e-3)
            peaks("warm-long", 5e-4)
            short = peaks("short", 2e-3)  # 11 snapshots
            long = peaks("long", 5e-4)  # 41 snapshots
        finally:
            tracemalloc.stop()
        assert len(list((tmp_path / "long-sim").glob("tg_*.bin"))) == 41
        for command, few, many in zip(("simulate", "diagnose"), short, long):
            assert many - few < snapshot_bytes, (command, few, many)


class TestCounterexample:
    def test_tables(self, tmp_path, capsys):
        out = tmp_path / "cx"
        code = main(
            ["counterexample", "--q", "6", "--r", "2", "--terms", "40", "--out", str(out)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "criterion partial sum" in stdout
        rows = np.genfromtxt(out / "separation.csv", delimiter=",", names=True)
        assert np.all(np.diff(rows["criterion_partial"]) > 0)
        assert np.all(rows["criterion_partial"] <= rows["criterion_upper_bound"])
        assert np.all(np.diff(rows["time_norm"]) > 0)
        schedule = (out / "schedule.csv").read_text().splitlines()
        assert len(schedule) == 41

    def test_one_claim1_pass(self, tmp_path, monkeypatch):
        # the schedule table is closed-form; only the separation integrates
        from wlns import counterexample

        calls = []
        integral = counterexample._interval_criterion_integral

        def counting(schedule, n):
            calls.append(n)
            return integral(schedule, n)

        monkeypatch.setattr(counterexample, "_interval_criterion_integral", counting)
        assert main(["counterexample", "--terms", "40", "--out", str(tmp_path / "cx")]) == 0
        assert len(calls) == 40

    def test_one_term_writes_one_schedule_row(self, tmp_path):
        # the claim-2 series needs two terms; the table keeps the first only
        out = tmp_path / "cx"
        assert main(["counterexample", "--terms", "1", "--out", str(out)]) == 0
        schedule = (out / "schedule.csv").read_text().splitlines()
        assert len(schedule) == 2
        assert schedule[1].startswith("1,")

    def test_rejects_bad_exponent(self, tmp_path, capsys):
        assert main(["counterexample", "--q", "3", "--out", str(tmp_path)]) == 1
        assert "q" in capsys.readouterr().err

    @pytest.mark.parametrize("r", ["0.5", "1", "inf", "nan"])
    def test_secondary_exponent_rejected_before_output(self, r, tmp_path, capsys):
        out = tmp_path / "cx"
        assert main(["counterexample", "--r", r, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: secondary exponent r must lie in (1, inf)")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            # 7.11 PiB is past any address space, so the first array fails at once
            (["--terms", "1000000000000000"],
             "error: --terms 1000000000000000: Unable to allocate 7.11 PiB for an array"),
            # numpy cannot even size arrays of about 2^60 8-byte terms: from
            # 2^59 on the count is rejected before any array is made
            *((["--terms", str(terms)],
               f"error: --terms {terms}: its arrays exceed any address space\n")
              for terms in (2**59, 2**60, 10**19)),
            # the time norm's layer-cake blocks, and the claim-2 terms t_inf^(r/p)
            (["--r", "1e10"], "error: --r 10000000000.0 with --t-inf 1.0 overflows a float\n"),
            (["--r", "300", "--t-inf", "1e10"],
             "error: --r 300.0 with --t-inf 10000000000.0 overflows a float\n"),
        ],
        ids=["terms", "terms-2^59", "terms-2^60", "terms-1e19", "r", "t-inf"],
    )
    def test_out_of_range_rejected_before_output(self, tmp_path, capsys, argv, message):
        out = tmp_path / "cx"
        assert main(["counterexample", *argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1
        assert not out.exists()

    def test_large_r_gives_finite_tables(self, tmp_path, capsys):
        # 2^(2r) overflows from r = 512 on, but no output does
        out = tmp_path / "cx"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["counterexample", "--r", "512", "--out", str(out)]) == 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert capsys.readouterr().err == ""
        rows = np.genfromtxt(out / "separation.csv", delimiter=",", names=True)
        assert np.all(np.isfinite(rows["time_norm"]))
        schedule = np.genfromtxt(out / "schedule.csv", delimiter=",", names=True)
        assert np.all(np.isfinite(schedule["partial_claim2_r"]))


class TestRecursive:
    def test_convergent_run(self, capsys):
        assert main(["recursive", "--C", "2", "--beta", "2", "--w0", "0.0625"]) == 0
        out = capsys.readouterr().out
        assert "converged: true" in out
        assert "W[0] = 0.0625" in out

    def test_divergent_run(self, capsys):
        assert main(["recursive", "--C", "2", "--beta", "2", "--w0", "0.75"]) == 0
        assert "converged: false" in capsys.readouterr().out

    def test_scan_brackets_half(self, capsys):
        assert main(["recursive", "--C", "2", "--beta", "2", "--scan"]) == 0
        out = capsys.readouterr().out
        lo, hi = (
            float(tok.strip("[], "))
            for tok in out.splitlines()[0].split(":")[1].split(",")
        )
        assert lo <= 0.5 <= hi
        assert hi - lo <= 1e-12

    def test_scan_rejects_nan_tol(self, capsys):
        assert main(["recursive", "--C", "2", "--beta", "2", "--scan", "--tol", "nan"]) == 1
        assert "tol must be >= 0" in capsys.readouterr().err

    def test_missing_w0(self, capsys):
        assert main(["recursive", "--C", "2", "--beta", "2"]) == 1
        assert "--w0" in capsys.readouterr().err


class TestGronwall:
    def test_roundtrip(self, tmp_path, capsys):
        b = tmp_path / "b.csv"
        b.write_text("t,B\n0.0,1.0\n0.5,2.0\n1.0,0.0\n")
        out = tmp_path / "gw"
        code = main(["gronwall", str(b), "--C", "1", "--H0", "1", "--out", str(out)])
        assert code == 0
        lines = (out / "bound.csv").read_text().splitlines()
        assert lines[0] == "t,H,deviation"
        assert len(lines) == 4
        h = [float(line.split(",")[1]) for line in lines[1:]]
        assert h[0] == 1.0 and h[-1] >= h[0]
        assert "max |deviation|" in capsys.readouterr().out

    def test_malformed_csv_names_line(self, tmp_path, capsys):
        b = tmp_path / "b.csv"
        b.write_text("t,B\n0.0,1.0\nnope,2.0\n")
        assert main(["gronwall", str(b), "--out", str(tmp_path / "x")]) == 1
        assert "line 3" in capsys.readouterr().err

    def test_overflow_exits_two(self, tmp_path, capsys):
        b = tmp_path / "b.csv"
        b.write_text("t,B\n0.0,10.0\n1.0,0.0\n")
        out = tmp_path / "gw"
        code = main(["gronwall", str(b), "--C", "1", "--H0", "1", "--out", str(out)])
        assert code == 2
        assert "numeric overflow" in capsys.readouterr().err
        assert (out / "bound.csv").exists()

    @pytest.mark.parametrize("dt", ["0", "-0.5"])
    def test_nonpositive_dt_rejected_before_output(self, tmp_path, capsys, dt):
        b = tmp_path / "b.csv"
        b.write_text("t,B\n0.0,1.0\n0.5,2.0\n1.0,0.0\n")
        out = tmp_path / "gw"
        assert main(["gronwall", str(b), "--dt", dt, "--out", str(out)]) == 1
        assert "dt must be > 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--C", "--H0", "--dt"])
    def test_nan_option_rejected_before_output(self, tmp_path, capsys, flag):
        b = tmp_path / "b.csv"
        b.write_text("t,B\n0.0,1.0\n0.5,2.0\n1.0,0.0\n")
        out = tmp_path / "gw"
        assert main(["gronwall", str(b), flag, "nan", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {flag} must be > 0, got nan\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--C", "--H0"])
    def test_infinite_option_rejected_before_output(self, tmp_path, capsys, flag):
        b = tmp_path / "b.csv"
        b.write_text("t,B\n0.0,1.0\n0.5,2.0\n1.0,0.0\n")
        out = tmp_path / "gw"
        assert main(["gronwall", str(b), flag, "inf", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {flag} must be finite, got inf\n"
        assert not out.exists()

    def test_tiny_dt_halts_before_output(self, tmp_path, capsys):
        b = tmp_path / "b.csv"
        b.write_text("t,B\n0.0,1.0\n1.0,0.0\n")
        out = tmp_path / "gw"
        assert main(["gronwall", str(b), "--dt", "1e-15", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: --dt 1e-15: 1000000000000001 output rows do not fit in memory\n"
        assert not out.exists()

    def test_infinite_dt_writes_one_piece_per_sample(self, tmp_path):
        b = tmp_path / "b.csv"
        b.write_text("t,B\n0.0,1.0\n0.5,2.0\n1.0,0.0\n")
        tables = []
        for extra in ([], ["--dt", "inf"]):
            out = tmp_path / f"gw{len(extra)}"
            assert main(["gronwall", str(b), *extra, "--out", str(out)]) == 0
            tables.append((out / "bound.csv").read_bytes())
        assert tables[0] == tables[1]


def read_before_out_check(path):
    raise AssertionError(f"{path} was read before --out was checked")


class TestUsage:
    def test_leaves_environment_unchanged(self, monkeypatch):
        for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        before = dict(os.environ)
        assert main(["recursive", "--C", "2", "--beta", "2", "--w0", "0.1"]) == 0
        assert dict(os.environ) == before

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate"],
            ["simulate", "run.cfg", "--out", "o", "--bogus"],
            ["recursive", "--C", "two", "--beta", "2", "--w0", "0.1"],
            ["--threads", "3", "recursive", "--C", "2", "--beta", "2", "--w0", "0.1"],
        ],
        ids=["missing-args", "unknown-flag", "bad-number", "removed-threads"],
    )
    def test_usage_error_exits_one(self, argv, capsys):
        # exit code 2 is kept for a halted run
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "simulate" in capsys.readouterr().out

    @pytest.mark.parametrize("subcommand", ["simulate", "diagnose", "counterexample", "gronwall"])
    def test_out_naming_a_file(self, subcommand, taylor_green_run, tmp_path, capsys, monkeypatch):
        # --out is checked before diagnose reads a single snapshot
        monkeypatch.setattr("wlns.field.read_vector_snapshot", read_before_out_check)
        b = tmp_path / "b.csv"
        b.write_text("t,B\n0.0,1.0\n1.0,0.0\n")
        cfg = write_config(tmp_path, RANDOM_CFG)
        out = tmp_path / "taken"
        out.write_text("keep me\n")
        argv = {
            "simulate": ["simulate", str(cfg)],
            "diagnose": ["diagnose", str(taylor_green_run), "--q", "6"],
            "counterexample": ["counterexample", "--terms", "4"],
            "gronwall": ["gronwall", str(b)],
        }[subcommand]
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: --out '{out}' is not a directory\n"
        assert out.read_text() == "keep me\n"

    def test_out_below_a_file(self, taylor_green_run, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("wlns.field.read_vector_snapshot", read_before_out_check)
        taken = tmp_path / "taken"
        taken.write_text("keep me\n")
        out = taken / "cx"
        diagnose = ["diagnose", str(taylor_green_run), "--q", "6"]
        for argv in (["counterexample", "--terms", "4"], diagnose):
            assert main([*argv, "--out", str(out)]) == 1
            assert capsys.readouterr().err == f"error: --out '{out}' is not a directory\n"
