"""Per-layer probes: spans around calls into each ``wlns`` module.

Direct probe calls are wrapped in spans named after the public function
they call; calls the CLI makes are spanned by wrapping the public
functions listed in ``INSTRUMENTED`` while the probe (or a traced pass)
runs.  Each metric is the median of its spans' durations in the probe.
The probes are the same for every workload, so a traced run of any
workload reports every layer metric.
"""

from __future__ import annotations

import contextlib
import functools
import glob
import importlib
import math
import os
import statistics
import time

import stats
from tracing import self_times
from workloads import AnalyticLong, TG32Pipeline, cli

PROBE = "probe"


def _ms(rec, name: str) -> float:
    return statistics.median(rec.durations(name, PROBE)) * 1e3


def _repeat(rec, name: str, fn, reps: int, warm: bool = True):
    if warm:
        fn()
    for _ in range(reps):
        with rec.span(name):
            out = fn()
    return out


def probe_grid(rec, n: int, seed: int, reps: int) -> dict:
    """FFTs, solver operators, one RK4 step and one trace row on an n^3 grid."""
    import numpy as np
    import scipy.fft

    from wlns.criteria import evaluate_row
    from wlns.field import Grid, ScalarField, forward_transform, inverse_transform
    from wlns.lorentz import weak_norm
    from wlns.nse_solver import (
        SolverConfig, SolverState, leray_project, nonlinear_term, random_divfree, step,
    )

    grid = Grid(n)
    real = np.random.default_rng(seed).standard_normal(grid.shape)
    scalar = ScalarField(grid, real)
    spec = forward_transform(scalar)
    tag = f"n{n}"
    _repeat(rec, f"field.forward_transform.{tag}", lambda: forward_transform(scalar), reps)
    _repeat(rec, f"field.inverse_transform.{tag}", lambda: inverse_transform(spec), reps)
    _repeat(rec, f"scipy.fft.rfftn.{tag}", lambda: scipy.fft.rfftn(real), reps)

    config = SolverConfig(viscosity=0.05, dt=2e-3, t_end=0.04)
    state = SolverState.from_velocity(random_divfree(grid, seed=seed), config)
    mask = grid.dealias_mask(config.dealias_fraction)
    step_reps = max(3, reps // 3)
    _repeat(rec, f"nse_solver.step.{tag}", lambda: step(state, config), step_reps)
    _repeat(rec, f"nse_solver.nonlinear_term.{tag}",
            lambda: nonlinear_term(grid, state.modes, mask), reps)
    _repeat(rec, f"nse_solver.leray_project.{tag}",
            lambda: leray_project(grid, state.modes), reps)
    u = _repeat(rec, f"nse_solver.SolverState.velocity.{tag}", state.velocity, reps)
    _repeat(rec, f"criteria.evaluate_row.{tag}", lambda: evaluate_row(u, 6.0, t=0.0), reps)
    if n == 32:
        magnitude = u.magnitude()
        _repeat(rec, "lorentz.weak_norm.n32", lambda: weak_norm(magnitude, 6.0), reps)

    out = {
        f"field.fft_ms.{tag}": (_ms(rec, f"field.forward_transform.{tag}"), "ms"),
        f"field.ifft_ms.{tag}": (_ms(rec, f"field.inverse_transform.{tag}"), "ms"),
        f"field.fft_floor_ms.{tag}": (_ms(rec, f"scipy.fft.rfftn.{tag}"), "ms"),
        f"nse_solver.step_ms.{tag}": (_ms(rec, f"nse_solver.step.{tag}"), "ms"),
        f"nse_solver.nonlinear_term_ms.{tag}": (_ms(rec, f"nse_solver.nonlinear_term.{tag}"), "ms"),
        f"nse_solver.leray_project_ms.{tag}": (_ms(rec, f"nse_solver.leray_project.{tag}"), "ms"),
        f"nse_solver.velocity_ms.{tag}": (_ms(rec, f"nse_solver.SolverState.velocity.{tag}"), "ms"),
        f"criteria.evaluate_row_ms.{tag}": (_ms(rec, f"criteria.evaluate_row.{tag}"), "ms"),
    }
    out[f"nse_solver.fft_floor_ratio.{tag}"] = (
        stats.fft_floor_ratio(out[f"nse_solver.step_ms.{tag}"][0],
                              out[f"field.fft_floor_ms.{tag}"][0]),
        "1",
    )
    if n == 32:
        out["lorentz.weak_norm_ms.n32"] = (_ms(rec, "lorentz.weak_norm.n32"), "ms")
    return out


# Public functions wrapped in spans while a traced pass or probe runs.  The
# CLI imports its callees when it runs, so the spans land inside its calls;
# the solver's own module globals (step, evaluate_row) are wrapped in place.
INSTRUMENTED = (
    ("wlns.nse_solver", "run"),
    ("wlns.nse_solver", "step"),
    ("wlns.nse_solver", "evaluate_row"),
    ("wlns.nse_solver", "SolverState.velocity"),
    ("wlns.criteria", "evaluate_row"),
    ("wlns.criteria", "CriterionTrace.to_csv"),
    ("wlns.field", "write_snapshot"),
    ("wlns.field", "read_vector_snapshot"),
    ("wlns.degiorgi", "level_energy"),
    ("wlns.degiorgi", "LevelSetEnergy.to_csv"),
    ("wlns.degiorgi", "threshold_scan"),
    ("wlns.counterexample", "criterion_vs_lorentz"),
    ("wlns.gronwall", "solve_bound"),
    ("wlns.gronwall", "implicit_check"),
)


def _spanned(rec, fn, ticks):
    name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"
    is_run = name == "nse_solver.run"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if is_run and len(args) < 4:
            # time between calls of run's public per-step callback
            user_callback = kwargs.pop("callback", None)
            last = [None]

            def tick(state):
                now = time.perf_counter()
                if last[0] is not None:
                    ticks.append(now - last[0])
                last[0] = now
                if user_callback is not None:
                    user_callback(state)

            kwargs["callback"] = tick
        with rec.span(name):
            return fn(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def instrumented(rec, ticks: list):
    """Wrap every ``INSTRUMENTED`` function in a span; restore them on exit."""
    saved = []
    try:
        for module, attr in INSTRUMENTED:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            saved.append((owner, leaf, original))
            setattr(owner, leaf, _spanned(rec, original, ticks))
        yield
    finally:
        for owner, leaf, original in reversed(saved):
            setattr(owner, leaf, original)


def probe_pipeline(rec, workdir: str, seed: int, reps: int) -> dict:
    """The tg32 CLI calls with their library calls spanned, plus the budget."""
    from wlns.degiorgi import CylinderMap, budget_cutoff, energy_budget
    from wlns.nse_solver import SimulationResult

    import numpy as np

    from workloads import read_snapshots

    tg = TG32Pipeline()
    ctx = tg.setup(seed, workdir)
    sim_dir = os.path.join(workdir, "probe-sim")
    ticks: list[float] = []
    with instrumented(rec, ticks):
        for _ in range(reps):
            with rec.span("cli.main.simulate"):
                cli(["simulate", ctx["cfg"], "--out", sim_dir])
            with rec.span("cli.main.diagnose"):
                cli(["diagnose", sim_dir, "--q", repr(tg.Q),
                     "--out", os.path.join(workdir, "probe-diag"),
                     "--cylinder-scale", repr(tg.CYLINDER_SCALE)])
    times, fields = read_snapshots(sim_dir)
    result = SimulationResult(
        grid=ctx["grid"], config=ctx["config"], times=np.asarray(times),
        snapshots=fields, cfl=np.empty(0), trace=None,
    )
    cmap = CylinderMap(center=(ctx["grid"].length / 2.0,) * 3,
                       scale=tg.CYLINDER_SCALE, t_end=times[-1])
    _repeat(rec, "degiorgi.energy_budget",
            lambda: energy_budget(result, budget_cutoff(cmap), cmap), 1, warm=False)

    snapshots = len(times)
    own = self_times(rec.spans)
    overhead = {
        name: statistics.median(own[s["id"]] for s in rec.spans
                                if s["name"] == name and s["pass_id"] == PROBE)
        for name in ("cli.main.simulate", "cli.main.diagnose")
    }
    # criterion rows per tg32 pass: one per snapshot in simulate and in diagnose
    rows = len(rec.durations("criteria.evaluate_row", PROBE)) // reps
    intervals = sorted(x * 1e3 for x in ticks)
    return {
        "field.write_snapshot_ms": (_ms(rec, "field.write_snapshot"), "ms"),
        "field.read_snapshot_ms": (_ms(rec, "field.read_vector_snapshot"), "ms"),
        "field.snapshot_bytes": (os.path.getsize(glob.glob(os.path.join(sim_dir, "*.bin"))[0]),
                                 "bytes"),
        "nse_solver.step_interval_ms.p50": (stats.nearest_rank(intervals, 50)[0], "ms"),
        "nse_solver.step_interval_ms.p90": (stats.nearest_rank(intervals, 90)[0], "ms"),
        "criteria.rows": (rows, "count"),
        "degiorgi.level_energy_ms_per_snapshot": (_ms(rec, "degiorgi.level_energy") / snapshots,
                                                  "ms"),
        "degiorgi.energy_budget_ms_per_snapshot": (
            _ms(rec, "degiorgi.energy_budget") / snapshots, "ms"),
        "cli.overhead_s.simulate": (overhead["cli.main.simulate"], "s"),
        "cli.overhead_s.diagnose": (overhead["cli.main.diagnose"], "s"),
    }


def probe_analytic(rec, workdir: str, seed: int, reps: int) -> dict:
    """Lorentz time norms as N grows, the scan, the counterexample, Gronwall."""
    from wlns.counterexample import DyadicSchedule, criterion_vs_lorentz
    from wlns.degiorgi import threshold_scan
    from wlns.gronwall import BoundProblem, implicit_check, read_signal_csv, solve_bound
    from wlns.lorentz import lorentz_time_norm

    al = AnalyticLong()
    ctx = al.setup(seed, workdir)
    p, signal = ctx["p"], ctx["signal"]
    short = signal[:4000]
    _repeat(rec, "lorentz.lorentz_time_norm.N4k",
            lambda: lorentz_time_norm(short, p, 2.0, dt=1.0 / short.size), reps)
    heavy = max(2, reps // 3)
    _repeat(rec, "lorentz.lorentz_time_norm.N16k",
            lambda: lorentz_time_norm(signal, p, 2.0, dt=ctx["dt"]), heavy, warm=False)
    _repeat(rec, "lorentz.lorentz_time_norm_inf.N16k",
            lambda: lorentz_time_norm(signal, p, math.inf, dt=ctx["dt"]), heavy, warm=False)
    _repeat(rec, "degiorgi.threshold_scan",
            lambda: threshold_scan(al.SCAN_C, al.SCAN_BETA), reps)
    schedule = DyadicSchedule(q=al.Q)
    _repeat(rec, "counterexample.criterion_vs_lorentz",
            lambda: criterion_vs_lorentz(schedule, r=2.0, n_terms=al.TERMS), heavy)
    times, values = read_signal_csv(ctx["csv"])
    problem = BoundProblem.from_samples(times, values, c=1.0, h0=1.0)
    solution = _repeat(rec, "gronwall.solve_bound", lambda: solve_bound(problem), heavy)
    _repeat(rec, "gronwall.implicit_check", lambda: implicit_check(solution), heavy)
    return {
        "lorentz.time_norm_ms.N4k": (_ms(rec, "lorentz.lorentz_time_norm.N4k"), "ms"),
        "lorentz.time_norm_ms.N16k": (_ms(rec, "lorentz.lorentz_time_norm.N16k"), "ms"),
        "lorentz.time_norm_inf_ms.N16k": (_ms(rec, "lorentz.lorentz_time_norm_inf.N16k"), "ms"),
        "degiorgi.threshold_scan_ms": (_ms(rec, "degiorgi.threshold_scan"), "ms"),
        "counterexample.criterion_vs_lorentz_ms": (
            _ms(rec, "counterexample.criterion_vs_lorentz"), "ms"),
        "gronwall.solve_bound_ms": (_ms(rec, "gronwall.solve_bound"), "ms"),
        "gronwall.implicit_check_ms": (_ms(rec, "gronwall.implicit_check"), "ms"),
    }


def probe_all(rec, workdir: str, seed: int) -> dict:
    """Every per-layer metric except ``cli.import_s`` and ``trace.overhead_s``."""
    rec.pass_id = PROBE
    metrics = {}
    metrics.update(probe_grid(rec, 32, seed, reps=12))
    metrics.update(probe_grid(rec, 64, seed, reps=6))
    metrics.update(probe_pipeline(rec, workdir, seed, reps=2))
    metrics.update(probe_analytic(rec, workdir, seed, reps=6))
    return metrics
