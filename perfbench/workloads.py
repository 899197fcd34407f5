"""The three benchmark workloads: inputs from a seed, one timed pass, checks.

Every workload has the same shape:

* ``setup(seed, workdir)`` imports ``wlns``, writes the configs and signals
  the program reads, and builds the initial field.  Nothing in it is timed
  by a pass; ``setup_probe.py`` times it in fresh processes.
* ``run_pass(ctx, rec, out_dir)`` runs the timed stages once and returns the
  stage times in seconds plus the outputs the checks need.
* ``check(ctx, outputs, checks)`` verifies those outputs against physics or
  closed forms only, so no expected value depends on a summation order.

All calls into ``wlns`` go through its public API or its CLI entry point
``wlns.cli.main``; the benchmark never passes ``--threads``.
"""

from __future__ import annotations

import contextlib
import glob
import io
import math
import os
import time

TWO_PI = 2.0 * math.pi


class Checks:
    """Correctness checks counted as operations that pass or fail."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


def rel_err(value: float, expected: float) -> float:
    return abs(value / expected - 1.0)


def cli(argv) -> tuple[int, str]:
    """``wlns.cli.main(argv)`` with its standard output captured."""
    from wlns.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


def read_snapshots(directory):
    """Every ``.bin`` snapshot under ``directory``, in file-name order."""
    from wlns.field import read_vector_snapshot

    times, fields = [], []
    for path in sorted(glob.glob(os.path.join(directory, "*.bin"))):
        t, u = read_vector_snapshot(path)
        times.append(t)
        fields.append(u)
    return times, fields


def write_config(path, solver: dict, q: float, prefix: str) -> None:
    lines = ["[solver]"]
    lines += [f"{k} = {v}" for k, v in solver.items()]
    lines += ["", "[diagnostics]", f"q = {q!r}", "", "[output]", f"prefix = {prefix}",
              "write_snapshots = true", ""]
    with open(path, "w") as fh:
        fh.write("\n".join(lines))


# ---------------------------------------------------------------------------
# tg32-pipeline: simulate -> diagnose -> energy budget on the shipped physics


class TG32Pipeline:
    name = "tg32-pipeline"
    # The shipped Taylor-Green config with snapshot_every = 2 (51 snapshots).
    # Taylor-Green is an exact solution, so the inputs do not depend on the
    # seed; the seed is still recorded with the result.
    SOLVER = {
        "n": 32, "viscosity": 1.0, "dt": 1e-3, "t_end": 0.1, "snapshot_every": 2,
        "initial_condition": "taylor_green", "amplitude": 1.0,
    }
    Q = 6.0
    CYLINDER_SCALE = 0.3
    KMAX = 8  # the CLI default for --kmax
    STEPS = 100

    def setup(self, seed: int, workdir: str) -> dict:
        from wlns.field import Grid
        from wlns.nse_solver import SolverConfig, taylor_green

        cfg = os.path.join(workdir, "tg32.cfg")
        write_config(cfg, self.SOLVER, self.Q, "tg")
        grid = Grid(self.SOLVER["n"])
        config = SolverConfig(
            viscosity=self.SOLVER["viscosity"], dt=self.SOLVER["dt"],
            t_end=self.SOLVER["t_end"], snapshot_every=self.SOLVER["snapshot_every"],
        )
        return {"cfg": cfg, "grid": grid, "config": config, "u0": taylor_green(grid)}

    def run_pass(self, ctx: dict, rec, out_dir: str) -> tuple[dict, dict]:
        from wlns.degiorgi import CylinderMap, budget_cutoff, energy_budget
        from wlns.nse_solver import SimulationResult

        import numpy as np

        sim_dir = os.path.join(out_dir, "sim")
        diag_dir = os.path.join(out_dir, "diag")
        t0 = time.perf_counter()
        with rec.span("cli.main.simulate"):
            rc_sim, _ = cli(["simulate", ctx["cfg"], "--out", sim_dir])
        t1 = time.perf_counter()
        with rec.span("cli.main.diagnose"):
            rc_diag, _ = cli([
                "diagnose", sim_dir, "--q", repr(self.Q), "--out", diag_dir,
                "--cylinder-scale", repr(self.CYLINDER_SCALE),
            ])
        t2 = time.perf_counter()
        times, fields = read_snapshots(sim_dir)
        result = SimulationResult(
            grid=ctx["grid"], config=ctx["config"], times=np.asarray(times),
            snapshots=fields, cfl=np.empty(0), trace=None,
        )
        cmap = CylinderMap(
            center=(ctx["grid"].length / 2.0,) * 3, scale=self.CYLINDER_SCALE,
            t_end=times[-1],
        )
        with rec.span("degiorgi.budget_cutoff"):
            eta = budget_cutoff(cmap)
        t3 = time.perf_counter()
        with rec.span("degiorgi.energy_budget"):
            report = energy_budget(result, eta, cmap)
        t4 = time.perf_counter()
        stages = {
            "wall_s": t4 - t0,
            "simulate_s": t1 - t0,
            "diagnose_s": t2 - t1,
            "budget_s": t4 - t3,
            "steps_per_s": self.STEPS / (t1 - t0),
        }
        outputs = {
            "rc": (rc_sim, rc_diag), "times": times, "fields": fields,
            "diag_dir": diag_dir, "min_slack": report.min_slack,
        }
        return stages, outputs

    def check(self, ctx: dict, out: dict, checks: Checks) -> None:
        from wlns.criteria import CriterionTrace
        from wlns.nse_solver import kinetic_energy

        import numpy as np

        nu = self.SOLVER["viscosity"]
        checks.expect(out["rc"] == (0, 0), f"CLI exit codes {out['rc']}")
        checks.expect(len(out["times"]) == 51, f"{len(out['times'])} snapshots, want 51")
        # Taylor-Green: E(t) = E0 exp(-4 nu t) with E0 = |box| A^2 / 4
        e0 = TWO_PI**3 / 4.0 * self.SOLVER["amplitude"] ** 2
        if out["fields"]:
            first = out["fields"][0].as_array()
            drift = float(np.max(np.abs(first - ctx["u0"].as_array())))
            checks.expect(drift <= 1e-12, f"first snapshot differs from Taylor-Green by {drift:.2e}")
        for t, u in zip(out["times"], out["fields"]):
            err = rel_err(kinetic_energy(u), e0 * math.exp(-4.0 * nu * t))
            checks.expect(err <= 1e-6, f"energy at t={t:.4g} off by {err:.2e}")
        trace = CriterionTrace.from_csv(os.path.join(out["diag_dir"], "trace.csv"), q=self.Q)
        for t, sup in zip(trace.t, trace.sup_norm):
            err = rel_err(float(sup), math.exp(-2.0 * nu * float(t)))
            checks.expect(err <= 1e-6, f"sup_norm at t={t:.4g} off by {err:.2e}")
        with open(os.path.join(out["diag_dir"], "levels.csv")) as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        checks.expect(len(rows) == self.KMAX + 1, f"levels.csv has {len(rows)} rows")
        for row in rows:
            ok = all(math.isfinite(float(x)) for x in row)
            checks.expect(ok, f"levels.csv row k={row[0]} not finite")
        checks.expect(out["min_slack"] >= -1e-4, f"budget min_slack {out['min_slack']:.3e}")


# ---------------------------------------------------------------------------
# random64-solve: a nonlinear 64^3 solve, bound by transforms


class Random64Solve:
    name = "random64-solve"
    SOLVER = {
        "n": 64, "viscosity": 0.05, "dt": 2e-3, "t_end": 0.04, "snapshot_every": 10,
        "initial_condition": "random", "amplitude": 1.0,
    }
    Q = 6.0
    STEPS = 20

    def setup(self, seed: int, workdir: str) -> dict:
        from wlns.field import Grid
        from wlns.nse_solver import random_divfree

        cfg = os.path.join(workdir, "random64.cfg")
        write_config(cfg, {**self.SOLVER, "seed": seed}, self.Q, "r64")
        grid = Grid(self.SOLVER["n"])
        return {"cfg": cfg, "grid": grid, "u0": random_divfree(grid, seed=seed)}

    def run_pass(self, ctx: dict, rec, out_dir: str) -> tuple[dict, dict]:
        sim_dir = os.path.join(out_dir, "sim")
        t0 = time.perf_counter()
        with rec.span("cli.main.simulate"):
            rc, _ = cli(["simulate", ctx["cfg"], "--out", sim_dir])
        t1 = time.perf_counter()
        stages = {"wall_s": t1 - t0, "simulate_s": t1 - t0, "steps_per_s": self.STEPS / (t1 - t0)}
        return stages, {"rc": rc, "sim_dir": sim_dir}

    def check(self, ctx: dict, out: dict, checks: Checks) -> None:
        from wlns.nse_solver import kinetic_energy, spectral_divergence_defect, to_spectral

        import numpy as np

        checks.expect(out["rc"] == 0, f"CLI exit code {out['rc']}")
        times, fields = read_snapshots(out["sim_dir"])
        checks.expect(len(times) == 3, f"{len(times)} snapshots, want 3")
        # the program built its initial field from the same seed
        if fields:
            u0 = ctx["u0"].as_array()
            drift = float(np.max(np.abs(fields[0].as_array() - u0)) / np.max(np.abs(u0)))
            checks.expect(drift <= 1e-12,
                          f"first snapshot differs from the seeded field by {drift:.2e}")
        energies = []
        for t, u in zip(times, fields):
            checks.expect(bool(np.all(np.isfinite(u.as_array()))), f"non-finite at t={t:.4g}")
            energies.append(kinetic_energy(u))
            defect = spectral_divergence_defect(ctx["grid"], to_spectral(u))
            checks.expect(defect <= 1e-10, f"divergence defect {defect:.2e} at t={t:.4g}")
        for before, after in zip(energies, energies[1:]):
            checks.expect(after <= before, f"energy rose from {before!r} to {after!r}")


# ---------------------------------------------------------------------------
# analytic-long: the grid-free machinery on long inputs


class AnalyticLong:
    name = "analytic-long"
    N_SIGNAL = 16_000
    N_CHECK = 4_000
    GRONWALL_ROWS = 2001
    TERMS = 400
    Q = 6.0
    SCAN_C, SCAN_BETA = 2.0, 2.0

    def setup(self, seed: int, workdir: str) -> dict:
        from wlns.criteria import derive_exponents

        import numpy as np

        rng = np.random.default_rng(seed)
        signal = rng.lognormal(0.0, 1.0, self.N_SIGNAL)
        lengths = rng.uniform(0.5, 1.5, self.N_CHECK) / self.N_CHECK
        t = np.linspace(0.0, 1.0, self.GRONWALL_ROWS)
        b = rng.uniform(0.0, 2.0, self.GRONWALL_ROWS)
        csv_path = os.path.join(workdir, "signal.csv")
        with open(csv_path, "w") as fh:
            fh.write("t,B\n")
            fh.writelines(f"{ti!r},{bi!r}\n" for ti, bi in zip(t.tolist(), b.tolist()))
        return {
            "signal": signal, "dt": 1.0 / self.N_SIGNAL, "lengths": lengths,
            "p": derive_exponents(self.Q).p, "csv": csv_path,
        }

    def run_pass(self, ctx: dict, rec, out_dir: str) -> tuple[dict, dict]:
        from wlns.lorentz import lorentz_time_norm

        p, dt = ctx["p"], ctx["dt"]
        t0 = time.perf_counter()
        with rec.span("lorentz.lorentz_time_norm.N16k"):
            norm2 = lorentz_time_norm(ctx["signal"], p, 2.0, dt=dt).value
        with rec.span("lorentz.lorentz_time_norm_inf.N16k"):
            norm_inf = lorentz_time_norm(ctx["signal"], p, math.inf, dt=dt).value
        t1 = time.perf_counter()
        cx_dir = os.path.join(out_dir, "cx")
        with rec.span("cli.main.counterexample"):
            rc_cx, _ = cli(["counterexample", "--q", repr(self.Q), "--terms", str(self.TERMS),
                            "--out", cx_dir])
        t2 = time.perf_counter()
        gw_dir = os.path.join(out_dir, "gw")
        with rec.span("cli.main.gronwall"):
            rc_gw, _ = cli(["gronwall", ctx["csv"], "--out", gw_dir])
        t3 = time.perf_counter()
        with rec.span("cli.main.recursive"):
            rc_rec, scan_out = cli(["recursive", "--C", repr(self.SCAN_C),
                                    "--beta", repr(self.SCAN_BETA), "--scan"])
        t4 = time.perf_counter()
        stages = {
            "wall_s": t4 - t0,
            "lorentz_s": t1 - t0,
            "counterexample_s": t2 - t1,
            "gronwall_s": t3 - t2,
            "recursive_s": t4 - t3,
        }
        outputs = {
            "rc": (rc_cx, rc_gw, rc_rec), "norms": (norm2, norm_inf),
            "cx_dir": cx_dir, "gw_dir": gw_dir, "scan_out": scan_out,
        }
        return stages, outputs

    def check(self, ctx: dict, out: dict, checks: Checks) -> None:
        from wlns.lorentz import lorentz_time_norm

        p = ctx["p"]
        checks.expect(out["rc"] == (0, 0, 0), f"CLI exit codes {out['rc']}")
        checks.expect(all(v > 0 and math.isfinite(v) for v in out["norms"]),
                      f"time norms {out['norms']}")
        # r = p is the weighted L^p norm
        head, lengths = ctx["signal"][: self.N_CHECK], ctx["lengths"]
        lp = math.fsum((lengths * head**p).tolist()) ** (1.0 / p)
        err = rel_err(lorentz_time_norm(head, p, p, lengths=lengths).value, lp)
        checks.expect(err <= 1e-10, f"L^(p,p) vs L^p off by {err:.2e}")
        # a constant c on total length T gives c T^(1/p) (p/r)^(1/r)
        c, dt = 0.75, ctx["dt"]
        flat = [c] * self.N_SIGNAL
        total = self.N_SIGNAL * dt
        for r, factor in ((2.0, (p / 2.0) ** 0.5), (math.inf, 1.0)):
            err = rel_err(lorentz_time_norm(flat, p, r, dt=dt).value, c * total ** (1 / p) * factor)
            checks.expect(err <= 1e-10, f"constant-signal L^(p,{r}) off by {err:.2e}")
        # the scan brackets the closed-form threshold C^(-1/(beta-1)^2)
        critical = self.SCAN_C ** (-1.0 / (self.SCAN_BETA - 1.0) ** 2)
        line = next((x for x in out["scan_out"].splitlines() if x.startswith("critical W0")), "")
        lo, hi = (float(v) for v in line.split("[", 1)[1].rstrip("]").split(",")) if line else (
            math.nan, math.nan)
        checks.expect(lo <= critical <= hi, f"bracket [{lo!r}, {hi!r}] misses {critical!r}")
        # the implicit identity Phi(H) = C int B holds along the bound
        with open(os.path.join(out["gw_dir"], "bound.csv")) as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        checks.expect(len(rows) == self.GRONWALL_ROWS, f"bound.csv has {len(rows)} rows")
        worst = max((abs(float(r[2])) for r in rows), default=math.inf)
        checks.expect(worst <= 1e-8, f"Gronwall implicit deviation {worst:.2e}")
        # the damped criterion partial sums stay under their rigorous cap
        with open(os.path.join(out["cx_dir"], "separation.csv")) as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        for row in rows:
            checks.expect(float(row[1]) <= float(row[2]),
                          f"criterion partial {row[1]} above bound {row[2]} at N={row[0]}")


WORKLOADS = {w.name: w for w in (TG32Pipeline(), Random64Solve(), AnalyticLong())}
