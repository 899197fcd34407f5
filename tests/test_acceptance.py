"""Acceptance gate: the thirteen criteria, one printed pass/fail line each.

Every test prints ``[PASS]``/``[FAIL]`` with the measured numbers before
asserting, so ``pytest -v`` (or ``-s``) doubles as the acceptance report.
"""

import json
import math
import time

import numpy as np
import pytest
from conftest import gaussian_bump, poisson_defect

from wlns.cli import main as cli_main
from wlns.counterexample import DyadicSchedule, claim1_terms, claim2_lower_bound
from wlns.criteria import derive_exponents
from wlns.degiorgi import (
    CylinderMap,
    CylinderScheme,
    cylinder_radius,
    energy_budget,
    level_energy,
    recursive_sequence,
    threshold_scan,
    truncation_threshold,
)
from wlns.field import Grid, ScalarField, VectorField
from wlns.gronwall import BoundProblem, implicit_check, solve_bound
from wlns.lorentz import (
    compact_embedding_check,
    layer_cake,
    lebesgue_norm,
    lemma_split_check,
    weak_norm,
)
from wlns.nse_solver import (
    SimulationResult,
    SolverConfig,
    kinetic_energy,
    pressure_from_velocity,
    random_divfree,
    run,
    taylor_green,
)

LN2 = math.log(2.0)


def check(name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" -- {detail}"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def tg32():
    """The shared benchmark trajectory: Taylor-Green, nu = 1, n = 32, dt = 1e-3."""
    grid = Grid(32)
    config = SolverConfig(viscosity=1.0, dt=1e-3, t_end=0.1, snapshot_every=2)
    t0 = time.monotonic()
    result = run(taylor_green(grid), config, q=6.0)
    return result, time.monotonic() - t0


def test_ac01_taylor_green_energy_decay(tg32):
    result, elapsed = tg32
    e0 = kinetic_energy(result.snapshots[0])
    e_end = kinetic_energy(result.snapshots[-1])
    rel = abs(e_end / (e0 * math.exp(-4.0 * result.times[-1])) - 1.0)
    check(
        "AC1 Taylor-Green energy decay",
        rel <= 1e-6 and elapsed <= 60.0,
        f"relative error {rel:.3e} (tol 1e-6), runtime {elapsed:.1f}s (limit 60s)",
    )


def test_ac02_pressure_oracle():
    grid = Grid(32)
    p = pressure_from_velocity(taylor_green(grid))
    x, y, _ = grid.coordinates
    max_err = float(np.max(np.abs(p.values - (-(np.cos(2 * x) + np.cos(2 * y)) / 4.0))))

    worst = 0.0
    small = Grid(16)
    for seed in range(100):
        u = random_divfree(small, seed=seed, max_mode=small.n // 4 - 1)
        worst = max(worst, poisson_defect(u, pressure_from_velocity(u, dealias_fraction=1.0)))

    check(
        "AC2 pressure oracle",
        max_err <= 1e-8 and worst <= 1e-10,
        f"Taylor-Green max error {max_err:.3e} (tol 1e-8), "
        f"worst Poisson residual {worst:.3e} over 100 fields (tol 1e-10)",
    )


def test_ac03_weak_norm_radial_profile():
    # |x|^(-3/q) truncated at its value three cells from the center: the
    # continuum weak norm is unchanged (the sup is attained on every level
    # below the cap) and the unresolvable singular cells drop out
    grid = Grid(64, length=16.0)
    h = grid.spacing
    center = (8.0 + 0.37 * h, 8.0 + 0.24 * h, 8.0 + 0.41 * h)
    x, y, z = grid.coordinates
    r = np.sqrt((x - center[0]) ** 2 + (y - center[1]) ** 2 + (z - center[2]) ** 2)
    profile = ScalarField(grid, np.minimum(r ** (-0.5), (3.0 * h) ** (-0.5)))
    value = weak_norm(profile, 6.0).value
    target = (4.0 * math.pi / 3.0) ** (1.0 / 6.0)
    rel = abs(value / target - 1.0)
    check(
        "AC3 radial weak norm",
        rel <= 0.02,
        f"value {value:.6f} vs (4 pi/3)^(1/6) = {target:.6f}, relative error {rel:.4f} (tol 0.02)",
    )


def test_ac04_layer_cake_identity():
    rng = np.random.default_rng(42)
    violations = 0
    worst = 0.0
    for i in range(1000):
        f = rng.standard_normal(int(rng.integers(32, 400)))
        p = (1.5, 2.0, 2.5, 3.0, 6.0)[i % 5]
        direct = lebesgue_norm(f, p).value
        cake = layer_cake(f, p).value
        rel = abs(cake - direct) / max(1e-300, direct)
        worst = max(worst, rel)
        if rel > 1e-10:
            violations += 1
    check(
        "AC4 layer-cake identity",
        violations == 0,
        f"{violations} violations over 1000 fields, worst relative gap {worst:.3e} (tol 1e-10)",
    )


def test_ac05_lemma_suite():
    rng = np.random.default_rng(7)
    split_bad = embed_bad = 0
    for _ in range(500):
        f = np.abs(rng.standard_normal(128)) * math.exp(rng.uniform(-1.0, 2.0))
        if not lemma_split_check(f, r=2.5, r1=2.0, r2=4.0).passed:
            split_bad += 1
        if not compact_embedding_check(f, p=2.0, r=3.0, eps=0.5).passed:
            embed_bad += 1
    check(
        "AC5 lemma suite",
        split_bad == 0 and embed_bad == 0,
        f"split violations {split_bad}/500, embedding violations {embed_bad}/500 "
        "at (r1,r,r2)=(2,2.5,4), (p,r)=(2,3)",
    )


def test_ac06_interpolation_inequality():
    rng = np.random.default_rng(11)
    violations = 0
    worst = -math.inf
    for i in range(1000):
        q = (4.0, 6.0, 8.0)[i % 3]
        exps = derive_exponents(q)
        m = np.abs(rng.standard_normal(128)) * math.exp(rng.uniform(-1.0, 2.0))
        lhs = weak_norm(m, exps.sigma).value ** exps.rho
        rhs = float(np.max(m)) * weak_norm(m, q).value ** exps.p
        excess = (lhs - rhs) / max(1.0, rhs)
        worst = max(worst, excess)
        if excess > 1e-10:
            violations += 1
    check(
        "AC6 interpolation inequality",
        violations == 0,
        f"{violations} violations over 1000 fields at q in (4,6,8), max excess {worst:.3e}",
    )


def test_ac07_claim1_bracket_and_cauchy():
    # term_n = 1/(t_inf c_n D_n) with D_n = e + ln(e + 2^{n^2}), c_n in (1/2, 1).
    # Upper, every n >= 1: D_n > n^2 ln 2 and c_n > 1/2 give term_n n^2 < 2/ln 2.
    # Lower: D_n < e + (n^2 + 1) ln 2 <= 2 n^2 ln 2 once n^2 >= 1 + e/ln 2, and
    # c_n < 1 then gives term_n n^2 > 1/(2 ln 2); below that n the bound fails.
    n0 = math.ceil(math.sqrt(1.0 + math.e / LN2))
    report = claim1_terms(DyadicSchedule(q=6.0), 1000)
    ns = report.ns
    normalized = report.terms * ns.astype(float) ** 2
    lower, upper = 1.0 / (2.0 * LN2), 2.0 / LN2
    upper_ok = bool(np.all(normalized <= upper))
    lower_ok = bool(np.all(normalized[ns >= n0] >= lower))
    cauchy = float(report.partial_sums[999] - report.partial_sums[499])
    cauchy_ok = cauchy <= 3e-3
    detail = (
        f"term_n*n^2 <= 2/ln 2 = {upper:.6f} for 1 <= n <= 1000 "
        f"(max {float(np.max(normalized)):.6f}); "
        f">= 1/(2 ln 2) = {lower:.6f} for {n0} <= n <= 1000 "
        f"(min {float(np.min(normalized[ns >= n0])):.6f}); "
        f"n = 2 value {float(normalized[ns == 2][0]):.12f}; "
        f"|S_1000 - S_500| = {cauchy:.3e} (tol 3e-3)"
    )
    check("AC7 claim-1 squeeze bracket", upper_ok and lower_ok and cauchy_ok, detail)


def test_ac08_claim2_lower_bound():
    report = claim2_lower_bound(DyadicSchedule(q=6.0), 50, r=2.0)
    closed = 2.0**2.5 / 15.0
    gap = abs(report.comparison_partial - closed)
    growth = report.partial_sums[9:] >= 0.9 * report.ns[9:].astype(float)
    check(
        "AC8 claim-2 lower bound",
        gap <= 1e-12 and bool(np.all(growth)),
        f"comparison sum off closed form 2^2.5/15 by {gap:.2e} (tol 1e-12); "
        f"S_N >= 0.9 N for all 10 <= N <= 50 (S_50 = {float(report.partial_sums[-1]):.2f})",
    )


def test_ac09_recursive_lemma():
    seq = recursive_sequence(2.0, 2.0, 2.0**-4, 12)
    exponents = -np.log2(seq.values[:5])
    table_ok = np.allclose(exponents, [4, 8, 15, 28, 53], atol=1e-9) and seq.converged
    b22 = threshold_scan(2.0, 2.0)
    b42 = threshold_scan(4.0, 2.0)
    scan_ok = (
        b22.lower <= 0.5 <= b22.upper
        and b22.width <= 1e-12
        and b42.lower <= 0.25 <= b42.upper
        and b42.width <= 1e-12
    )
    check(
        "AC9 recursive lemma",
        table_ok and scan_ok,
        f"exponents {np.round(exponents, 9).tolist()}, "
        f"brackets 0.5 +/- {b22.width:.1e} and 0.25 +/- {b42.width:.1e}",
    )


def test_ac10_gronwall():
    bench = BoundProblem.from_function(lambda t: 1.0, 0.0, 1.0, c=1.0, h0=1.0)
    dev = float(np.max(np.abs(implicit_check(solve_bound(bench, 1e-3)))))

    smooth = BoundProblem.from_function(
        lambda t: 1.0 + math.sin(3.0 * t), 0.0, 1.0, c=1.0, h0=1.0
    )
    steps = (0.05, 0.025, 0.0125, 0.00625)
    devs = [float(np.max(np.abs(implicit_check(solve_bound(smooth, d))))) for d in steps]
    slope = float(np.polyfit(np.log(steps), np.log(devs), 1)[0])

    schedule = DyadicSchedule(q=6.0)
    report = claim1_terms(schedule, 3)
    times, values = [0.0], [0.0]
    for n in (1, 2, 3):
        lo, hi = schedule.interval(n)
        times.extend([lo, hi])
        values.extend([float(report.integrals[n - 1]) / (hi - lo), 0.0])
    times.append(0.999)
    values.append(0.0)
    singular = solve_bound(BoundProblem.from_samples(times, values, c=1.0, h0=1.0))
    finite = bool(np.all(np.isfinite(singular.h))) and not singular.overflowed

    check(
        "AC10 Gronwall bound",
        dev <= 1e-6 and slope >= 3.5 and finite,
        f"B=1 deviation {dev:.2e} (tol 1e-6), refinement order {slope:.2f} (>= 3.5 for "
        f"fourth order), H finite on the singular-profile signal (H_end = {singular.h[-1]:.4f})",
    )


def test_ac11_degiorgi_constant_field():
    n, box = 72, 10.0
    grid = Grid(n, length=box)
    h = grid.spacing
    scale = box / 9.0
    center = (5.0 + 0.37 * h, 5.0 + 0.24 * h, 5.0 + 0.41 * h)
    flat = 0.6 / scale
    u = VectorField.from_arrays(
        grid, np.full(grid.shape, flat), np.zeros(grid.shape), np.zeros(grid.shape)
    )
    cmap = CylinderMap(center=center, scale=scale, t_end=1.0)
    tau = np.linspace(-1.0, 1.0, 16)
    result = SimulationResult(
        grid=grid,
        config=SolverConfig(viscosity=1.0, dt=1e-3, t_end=1e-3),
        times=np.array([cmap.sim_time(t) for t in tau]),
        snapshots=[u] * tau.size,
        cfl=np.empty(0),
        trace=None,
    )
    table = level_energy(result, CylinderScheme(3), cmap)

    worst = 0.0
    zeros_ok = True
    for i, k in enumerate(table.k):
        theta = truncation_threshold(int(k))
        if theta >= 0.6:
            zeros_ok = zeros_ok and table.total[i] == 0.0
        else:
            radius = cylinder_radius(int(k))
            closed = 0.5 * (0.6 - theta) ** 2 * (4.0 / 3.0) * math.pi * radius**3
            worst = max(worst, abs(table.sup_term[i] / closed - 1.0))
    check(
        "AC11 De Giorgi constant field",
        worst <= 0.02 and zeros_ok and np.allclose(table.diss_term, 0.0),
        f"worst U_k closed-form error {worst:.4f} (tol 0.02), "
        f"levels past the 0.6 threshold exactly zero: {zeros_ok}",
    )


def test_ac12_energy_residual(tg32):
    result, _ = tg32
    localized = energy_budget(result, gaussian_bump((math.pi,) * 3, width=0.5))
    fine_ok = localized.max_abs <= 1e-4

    maxima = []
    grid = Grid(16)
    for dt in (2e-3, 1e-3):
        coarse = run(taylor_green(grid), SolverConfig(dt=dt, t_end=0.08, snapshot_every=2))
        maxima.append(energy_budget(coarse, time_order=2).max_abs)
    order = math.log2(maxima[0] / maxima[1])
    check(
        "AC12 energy residual",
        fine_ok and order >= 1.0,
        f"localized residual {localized.max_abs:.3e} at (32, 1e-3) (tol 1e-4), "
        f"refinement order {order:.2f} (>= 1)",
    )


def test_ac13_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[solver]\nn = 16\ndt = 1e-3\nt_end = 0.02\nsnapshot_every = 4\n"
        "initial_condition = random\nseed = 7\n\n[diagnostics]\nq = 6.0\n\n"
        "[output]\nwrite_snapshots = false\n"
    )
    traces = []
    for i in range(6):
        out = tmp_path / f"out{i}"
        code = cli_main(["simulate", str(cfg), "--out", str(out)])
        assert code == 0
        traces.append((out / "trace.csv").read_bytes())
    identical = all(t == traces[0] for t in traces)
    check(
        "AC13 determinism",
        identical,
        "trace CSVs byte-identical over 6 runs (seed 7)",
    )
