"""Tests for level-set truncation energies and the superlinear recursion."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from conftest import (
    constant_one,
    gaussian_bump,
    numpy_spectral_gradient,
    whole_grid_balance_terms,
    whole_grid_level_energy,
)

from wlns.degiorgi import (
    CylinderMap,
    CylinderScheme,
    EnergyBudgetReport,
    LevelSetEnergy,
    budget_cutoff,
    critical_w0_closed_form,
    cylinder_cutoff,
    cylinder_radius,
    energy_budget,
    level_energy,
    recursive_sequence,
    threshold_scan,
    truncation_threshold,
    truncation_time,
    window_times,
)
from wlns.degiorgi import _density
from wlns.field import (
    Grid,
    ScalarField,
    Trajectory,
    VectorField,
    ball_mask,
    cell_box,
    gradient_squares,
)
from wlns.nse_solver import (
    SimulationResult,
    SolverConfig,
    random_divfree,
    run,
    taylor_green,
)


def vector_of(grid: Grid, u1, u2, u3) -> VectorField:
    broadcast = [np.broadcast_to(np.asarray(c, dtype=np.float64), grid.shape).copy() for c in (u1, u2, u3)]
    return VectorField.from_arrays(grid, *broadcast)


def synthetic_trajectory(grid: Grid, u: VectorField, cmap: CylinderMap, n_times: int = 16) -> SimulationResult:
    """A frozen-in-time trajectory whose snapshots cover the mapped window."""
    tau = np.linspace(-1.0, 1.0, n_times)
    times = np.array([cmap.sim_time(t) for t in tau])
    config = SolverConfig(viscosity=1.0, dt=1e-3, t_end=1e-3)
    return SimulationResult(
        grid=grid,
        config=config,
        times=times,
        snapshots=[u] * n_times,
        cfl=np.zeros(n_times - 1),
        trace=None,
    )


class TestCylinderGeometry:
    def test_reference_values(self):
        assert truncation_time(0) == -1.0
        assert truncation_time(-1) == -1.5
        assert cylinder_radius(0) == 1.0
        assert cylinder_radius(-1) == 4.5
        assert truncation_threshold(0) == 0.0
        assert truncation_threshold(2) == 0.75

    def test_monotone_limits(self):
        ks = np.arange(0, 17)  # strictly monotone until float saturation
        times = np.array([truncation_time(int(k)) for k in ks])
        radii = np.array([cylinder_radius(int(k)) for k in ks])
        thresholds = np.array([truncation_threshold(int(k)) for k in ks])
        assert np.all(np.diff(times) > 0) and abs(truncation_time(40) - (-0.5)) < 1e-9
        assert np.all(np.diff(radii) < 0) and abs(cylinder_radius(40) - 0.5) < 1e-9
        assert np.all(np.diff(thresholds) > 0) and abs(truncation_threshold(40) - 1.0) < 1e-9

    def test_scheme_windows(self):
        scheme = CylinderScheme(k_max=3)
        assert list(scheme.levels) == [0, 1, 2, 3]
        with pytest.raises(ValueError):
            CylinderScheme(k_max=-1)

    def test_map_roundtrip(self):
        cmap = CylinderMap(center=(1.0, 2.0, 3.0), scale=0.5, t_end=2.0)
        assert cmap.sim_time(1.0) == 2.0
        assert cmap.sim_time(-1.0) == pytest.approx(2.0 - 2 * 0.25)
        for tau in (-1.0, -0.25, 0.5, 1.0):
            assert cmap.reference_time(cmap.sim_time(tau)) == pytest.approx(tau)
        assert cmap.sim_radius(1.0) == 0.5

    def test_map_refuses_oversized_cylinder(self):
        grid = Grid(16)  # length 2*pi < 9
        with pytest.raises(ValueError, match="diameter"):
            CylinderMap(center=(np.pi,) * 3, scale=1.0, t_end=1.0).validate(grid)
        # and refuses nonsense scales and centers outright
        with pytest.raises(ValueError):
            CylinderMap(center=(0.0,) * 3, scale=-1.0, t_end=0.0)
        for center in ((math.nan, 1.0, 1.0), (1.0, math.inf, 1.0)):
            with pytest.raises(ValueError, match="center must be finite"):
                CylinderMap(center=center, scale=0.3, t_end=1.0)


def grid_density(u: VectorField, k: int) -> np.ndarray:
    """``d_k^2`` on the whole grid through the helper ``level_energy`` uses."""
    grad2 = gradient_squares(u)
    if k == 0:
        return grad2
    m = u.magnitude()
    v = np.maximum(m.values - truncation_threshold(k), 0.0)
    return _density(k, m.values, v, grad2, gradient_squares(m))


class TestDissipationDensity:
    def test_constant_field_vanishes(self):
        grid = Grid(8)
        u = vector_of(grid, 0.7, -0.2, 0.1)
        for k in (0, 1, 3):
            assert np.allclose(grid_density(u, k), 0.0, atol=1e-12)

    def test_subthreshold_field_vanishes(self):
        grid = Grid(16)
        x = grid.coordinates[0]
        u = vector_of(grid, 0.2 * np.sin(x), 0.0, 0.0)  # magnitude <= 0.2 < 1/2
        assert np.allclose(grid_density(u, 1), 0.0)
        assert np.any(grid_density(u, 0) > 0)

    def test_positive_radial_profile(self):
        # u = (2 + cos x, 0, 0): |u| = 2 + cos x >= 1 exceeds every threshold,
        # and |grad u|^2 = |grad|u||^2 = sin^2 x, so the weighted density
        # collapses to sin^2 x at every level: (v + theta)/|u| = 1.
        grid = Grid(32)
        x = grid.coordinates[0]
        u = vector_of(grid, 2.0 + np.cos(x), 0.0, 0.0)
        for k in (0, 1, 4):
            np.testing.assert_allclose(
                grid_density(u, k), np.sin(x) ** 2, atol=1e-10
            )

    def test_rotating_direction_constant_magnitude(self):
        # u = (cos x, sin x, 1): |u| = sqrt(2) is constant so the magnitude
        # gradient drops out, leaving v_k/|u| * 1.
        grid = Grid(32)
        x = grid.coordinates[0]
        u = vector_of(grid, np.cos(x), np.sin(x), 1.0)
        m = math.sqrt(2.0)
        for k in (1, 2):
            expected = (m - truncation_threshold(k)) / m
            np.testing.assert_allclose(grid_density(u, k), expected, atol=1e-12)

    @pytest.mark.parametrize("k", [0, 1])
    def test_single_mode_field_against_direct_formula(self, k):
        grid = Grid(8)
        x, y, z = grid.coordinates
        comps = (1.5 + 0.4 * np.sin(x), 0.3 * np.cos(y), 0.2 * np.sin(z))
        u = vector_of(grid, *comps)

        grad2 = np.zeros(grid.shape)
        for c in comps:
            for d in numpy_spectral_gradient(np.broadcast_to(c, grid.shape).copy(), grid.length):
                grad2 += d**2
        magnitude = np.sqrt(sum(np.asarray(c) ** 2 for c in comps)) * np.ones(grid.shape)
        mag_grad2 = sum(d**2 for d in numpy_spectral_gradient(magnitude, grid.length))

        theta = truncation_threshold(k)
        v = np.maximum(magnitude - theta, 0.0)
        if k == 0:
            expected = grad2
        else:
            expected = np.where(v > 0, (v * grad2 + theta * mag_grad2) / magnitude, 0.0)
        np.testing.assert_allclose(
            grid_density(u, k), expected, rtol=1e-11, atol=1e-13
        )


class TestLevelEnergy:
    def test_zero_field_all_zero(self):
        grid = Grid(16, length=10.0)
        u = vector_of(grid, 0.0, 0.0, 0.0)
        cmap = CylinderMap(center=(5.0, 5.0, 5.0), scale=10.0 / 9.0, t_end=1.0)
        table = level_energy(synthetic_trajectory(grid, u, cmap), CylinderScheme(3), cmap)
        assert np.all(table.sup_term == 0.0)
        assert np.all(table.diss_term == 0.0)
        assert np.all(table.total == 0.0)

    def test_constant_field_closed_form(self):
        # Constant reference magnitude 0.6: the dissipation vanishes and the sup
        # term is (1/2)(0.6 - theta_k)^2 vol(B_k), nonzero only for k in {0, 1}.
        # The center sits off the lattice so sphere cell counts stay accurate.
        n, box = 72, 10.0
        grid = Grid(n, length=box)
        h = grid.spacing
        scale = box / 9.0
        center = (5.0 + 0.37 * h, 5.0 + 0.24 * h, 5.0 + 0.41 * h)
        u = vector_of(grid, 0.6 / scale, 0.0, 0.0)
        cmap = CylinderMap(center=center, scale=scale, t_end=1.0)
        table = level_energy(synthetic_trajectory(grid, u, cmap), CylinderScheme(3), cmap)

        assert np.allclose(table.diss_term, 0.0)
        for i, k in enumerate(table.k):
            theta = truncation_threshold(int(k))
            if theta >= 0.6:
                assert table.total[i] == 0.0
            else:
                radius = cylinder_radius(int(k))
                closed = 0.5 * (0.6 - theta) ** 2 * (4.0 / 3.0) * math.pi * radius**3
                assert table.sup_term[i] == pytest.approx(closed, rel=0.02)
        assert np.all(table.boundary_bracket > 0)

    def test_taylor_green_threshold_crossing(self):
        # Scaled so the reference magnitude peaks at 0.9 * 0.6 = 0.54 < 1:
        # levels with threshold above 0.54 are exactly zero, i.e. k >= 2
        # (log2(1/(1 - 0.54)) ~ 1.12), while k = 0, 1 stay positive.
        grid = Grid(32)
        tg = taylor_green(grid)
        u = VectorField.from_arrays(grid, *(0.9 * c for c in tg.values))
        cmap = CylinderMap(center=(math.pi, math.pi / 2, math.pi), scale=0.6, t_end=1.0)
        table = level_energy(synthetic_trajectory(grid, u, cmap), CylinderScheme(4), cmap)

        assert table.sup_term[0] > 0 and table.diss_term[0] > 0
        assert table.sup_term[1] > 0 and table.diss_term[1] > 0
        assert np.all(table.total[2:] == 0.0)
        # nestedness: shrinking cylinders and lower truncations only lose mass
        assert np.all(np.diff(table.sup_term) <= 1e-12)

    def test_insufficient_cadence_is_an_error(self):
        grid = Grid(12, length=10.0)
        u = vector_of(grid, 0.1, 0.0, 0.0)
        cmap = CylinderMap(center=(5.0, 5.0, 5.0), scale=1.0, t_end=1.0)
        sparse = synthetic_trajectory(grid, u, cmap, n_times=8)
        with pytest.raises(ValueError, match="need >= 10"):
            level_energy(sparse, CylinderScheme(1), cmap)

    def test_window_checks_need_times_only(self):
        cmap = CylinderMap(center=(5.0, 5.0, 5.0), scale=0.5, t_end=2.0)
        times = [cmap.sim_time(t) for t in np.linspace(-1.0, 1.0, 21)]
        tau = window_times(times, CylinderScheme(3), cmap)
        np.testing.assert_array_equal(tau, [cmap.reference_time(t) for t in times])
        with pytest.raises(ValueError, match="need >= 10"):
            window_times(times[::-3], CylinderScheme(1), cmap)
        with pytest.raises(ValueError, match="ends before"):
            window_times(times[:-2], CylinderScheme(1), cmap)

    def test_decreasing_times_rejected(self, budget_run_16):
        cmap = CylinderMap(center=(math.pi,) * 3, scale=0.3, t_end=0.25)
        times = budget_run_16.times
        repeated = np.concatenate([times[:10], times[9:]])
        np.testing.assert_array_equal(
            window_times(repeated, CylinderScheme(1), cmap),
            [cmap.reference_time(t) for t in repeated],
        )
        backwards = Trajectory(budget_run_16.grid, times[::-1], budget_run_16.snapshots)
        with pytest.raises(ValueError, match="times decrease"):
            level_energy(backwards, CylinderScheme(1), cmap)

    def test_trajectory_must_cover_window(self):
        grid = Grid(12, length=10.0)
        u = vector_of(grid, 0.1, 0.0, 0.0)
        cmap = CylinderMap(center=(5.0, 5.0, 5.0), scale=1.0, t_end=1.0)
        tau = np.linspace(-1.0, 0.4, 12)
        times = np.array([cmap.sim_time(t) for t in tau])
        config = SolverConfig(viscosity=1.0, dt=1e-3, t_end=1e-3)
        short = SimulationResult(
            grid=grid, config=config, times=times, snapshots=[u] * 12,
            cfl=np.zeros(11), trace=None,
        )
        with pytest.raises(ValueError, match="ends before"):
            level_energy(short, CylinderScheme(1), cmap)

    def test_oversized_map_is_an_error(self):
        grid = Grid(12)  # 2*pi box cannot hold the outer ball at scale 1
        u = vector_of(grid, 0.1, 0.0, 0.0)
        cmap = CylinderMap(center=(math.pi,) * 3, scale=1.0, t_end=1.0)
        with pytest.raises(ValueError, match="diameter"):
            level_energy(synthetic_trajectory(grid, u, cmap), CylinderScheme(1), cmap)

    def test_csv_layout(self, tmp_path):
        table = LevelSetEnergy(
            k=np.array([0, 1]),
            window_start=np.array([-1.0, -0.75]),
            radius=np.array([1.0, 0.5625]),
            threshold=np.array([0.0, 0.5]),
            sup_term=np.array([0.25, 0.125]),
            diss_term=np.array([0.5, 0.0625]),
            boundary_bracket=np.array([0.01, 0.01]),
        )
        path = tmp_path / "levels.csv"
        table.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,T_k,radius_k,threshold_k,sup_term,diss_term,U_k"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[4]) == 0.25
        assert float(first[6]) == 0.75



@pytest.fixture(scope="module")
def strong_run_32():
    """A nonlinear run strong enough to cross several truncation levels."""
    config = SolverConfig(viscosity=0.05, dt=2e-3, t_end=0.04)
    return run(random_divfree(Grid(32), seed=3, amplitude=8.0), config)


def whole_box_sums(result, scheme, cmap):
    """Per-level sup and dissipation terms from whole-box arrays, masked per level."""
    grid, s = result.grid, cmap.scale
    tau = window_times(result.times, scheme, cmap)
    sups, disses = [], []
    for k in scheme.levels:
        mask = ball_mask(grid, cmap.center, cmap.sim_radius(cylinder_radius(k)))
        window = (tau > truncation_time(k)) & (tau <= 1.0 + 1e-12)
        sup, samples = 0.0, []
        for idx in np.nonzero(window)[0]:
            u = result.snapshots[idx]
            m = u.magnitude()
            magnitude = s * m.values
            v = np.maximum(magnitude - truncation_threshold(k), 0.0)
            sup = max(sup, 0.5 * s ** (-3) * float(np.sum(v[mask] ** 2)) * grid.cell_volume)
            grads = s**4 * gradient_squares(u), s**4 * gradient_squares(m)
            density = grads[0] if k == 0 else _density(k, magnitude, v, *grads)
            samples.append(float(np.sum(density[mask])) * grid.cell_volume)
        sups.append(sup)
        disses.append(float(np.trapezoid(samples, tau[window])) * s ** (-3))
    return np.array(sups), np.array(disses)


class TestLevelEnergyStream:
    """``level_energy`` reads its snapshots once and keeps only the k = 0 ball."""

    @pytest.mark.parametrize("k_max", [3, 8])
    @pytest.mark.parametrize("scale", [0.4, 0.65])
    def test_one_shot_iterator_matches_list(self, strong_run_32, scale, k_max):
        result = strong_run_32
        cmap = CylinderMap(center=(math.pi,) * 3, scale=scale, t_end=float(result.times[-1]))
        scheme = CylinderScheme(k_max)
        want = level_energy(result, scheme, cmap)
        once = iter(result.snapshots)
        got = level_energy(Trajectory(result.grid, result.times, once), scheme, cmap)
        assert next(once, None) is None
        for name, column in vars(want).items():
            assert np.array_equal(getattr(got, name), column), name
        assert np.count_nonzero(want.sup_term) >= 3

    @pytest.mark.parametrize("scale", [0.4, 0.65])
    def test_ball_restricted_sums_match_whole_box(self, strong_run_32, scale):
        result = strong_run_32
        cmap = CylinderMap(center=(math.pi,) * 3, scale=scale, t_end=float(result.times[-1]))
        scheme = CylinderScheme(5)
        table = level_energy(result, scheme, cmap)
        sups, disses = whole_box_sums(result, scheme, cmap)
        assert np.array_equal(table.sup_term, sups)
        assert np.array_equal(table.diss_term, disses)


@pytest.fixture(scope="module")
def rolled_run_32(strong_run_32):
    """``strong_run_32`` with every snapshot rolled by n/2 cells, the box center to the origin."""
    half = strong_run_32.grid.n // 2
    snapshots = [
        VectorField.from_arrays(strong_run_32.grid, *np.roll(u.as_array(), half, axis=(1, 2, 3)))
        for u in strong_run_32.snapshots
    ]
    return dataclasses.replace(strong_run_32, snapshots=snapshots)


def cylinder_maps(result, scale):
    """The map centred in the box and the same map centred at the origin."""
    centred = CylinderMap(center=(math.pi,) * 3, scale=scale, t_end=float(result.times[-1]))
    return centred, dataclasses.replace(centred, center=(0.0,) * 3)


def assert_relative_close(got, want, scale=None):
    """``got`` within 1e-12 of ``want``, relative to ``scale`` (default: ``want`` itself)."""
    scale = want if scale is None else scale
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(scale))


class TestWrappedBalls:
    """The balls wrap around the box: a cylinder at the origin sees the rolled field whole."""

    @pytest.mark.parametrize("scale", [0.4, 0.65])
    def test_level_energy_at_origin(self, strong_run_32, rolled_run_32, scale):
        centred, origin = cylinder_maps(strong_run_32, scale)
        scheme = CylinderScheme(5)
        want = level_energy(strong_run_32, scheme, centred)
        got = level_energy(rolled_run_32, scheme, origin)
        assert np.count_nonzero(want.sup_term) >= 3
        for name, column in vars(want).items():
            assert_relative_close(getattr(got, name), column)

    @pytest.mark.parametrize("scale", [0.4, 0.65])
    def test_energy_budget_at_origin(self, strong_run_32, rolled_run_32, scale):
        centred, origin = cylinder_maps(strong_run_32, scale)
        want = energy_budget(strong_run_32, eta=budget_cutoff(centred), cmap=centred)
        got = energy_budget(rolled_run_32, eta=budget_cutoff(origin), cmap=origin)
        for name in ("times", "kinetic", "dissipation", "transport", "flux", "residual_times"):
            assert_relative_close(getattr(got, name), getattr(want, name))
        # the slack and the rate residual cancel the terms they are built from
        assert_relative_close(got.slack, want.slack, scale=want.kinetic)
        assert_relative_close(got.rate_residual, want.rate_residual, scale=want.dissipation)


@pytest.fixture(scope="module")
def budget_run_16():
    config = SolverConfig(viscosity=1.0, dt=2e-3, t_end=0.25, snapshot_every=5)
    return run(taylor_green(Grid(16)), config)


@pytest.fixture(scope="module")
def budget_run_random():
    config = SolverConfig(viscosity=0.1, dt=2e-3, t_end=0.02, snapshot_every=2)
    return run(random_divfree(Grid(16), seed=1, amplitude=1.5), config)


@pytest.fixture(scope="module")
def budget_run_32():
    config = SolverConfig(viscosity=1.0, dt=1e-3, t_end=0.25, snapshot_every=2)
    return run(taylor_green(Grid(32)), config)


BUDGET_MAP = CylinderMap(center=(math.pi, math.pi, math.pi), scale=0.3, t_end=0.25)


class TestEnergyBudget:
    def test_zero_trajectory_all_zero(self):
        grid = Grid(8)
        u = vector_of(grid, 0.0, 0.0, 0.0)
        config = SolverConfig(viscosity=1.0, dt=1e-3, t_end=1e-3)
        result = SimulationResult(
            grid=grid, config=config, times=np.linspace(0.0, 1.0, 6),
            snapshots=[u] * 6, cfl=np.zeros(5), trace=None,
        )
        report = energy_budget(result)
        for series in (report.kinetic, report.dissipation, report.transport,
                       report.flux, report.slack, report.rate_residual):
            assert np.all(series == 0.0)

    def test_global_budget_matches_default(self, budget_run_16, budget_run_random):
        # raw bytes, so that the signs of the zero transport and flux count too
        for result in (budget_run_16, budget_run_random):
            implicit = energy_budget(result)
            explicit = energy_budget(result, eta=constant_one())
            for series in dataclasses.fields(EnergyBudgetReport):
                got, want = getattr(implicit, series.name), getattr(explicit, series.name)
                assert got.tobytes() == want.tobytes(), series.name

    def test_global_budget_solves_no_pressure(self, budget_run_random, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the global balance solved for the pressure")

        monkeypatch.setattr("wlns.degiorgi.pressure_from_velocity", refuse)
        report = energy_budget(budget_run_random)
        assert np.all(report.flux == 0.0) and np.all(report.transport == 0.0)

    def test_degenerate_cutoff_cross_checks_residual(self, budget_run_16):
        # Five snapshots or more: order 4, on all but two snapshots at each end.
        report = energy_budget(budget_run_16, eta=constant_one())
        np.testing.assert_array_equal(report.residual_times, budget_run_16.times[2:-2])
        # Four snapshots: order 4 is impossible, so the budget falls back to order 2.
        short = dataclasses.replace(
            budget_run_16, times=budget_run_16.times[:4], snapshots=budget_run_16.snapshots[:4]
        )
        with pytest.raises(ValueError, match="at least 5 snapshots"):
            energy_budget(short, constant_one(), time_order=4)
        report = energy_budget(short, eta=constant_one())
        residual = energy_budget(short, constant_one(), time_order=2)
        np.testing.assert_array_equal(report.residual_times, short.times[1:3])
        np.testing.assert_array_equal(report.rate_residual, residual.rate_residual)
        assert np.max(np.abs(residual.rate_residual)) > 0.0

    def test_global_slack_is_quadrature_small(self, budget_run_16):
        report = energy_budget(budget_run_16)
        assert np.max(np.abs(report.slack)) <= 1e-2
        assert np.all(report.dissipation >= 0)
        assert np.all(report.kinetic >= 0)

    def test_localized_budget_slack_floor(self, budget_run_32):
        eta = budget_cutoff(BUDGET_MAP)
        report = energy_budget(budget_run_32, eta=eta, cmap=BUDGET_MAP)
        assert report.min_slack >= -1e-4

    def test_slack_shrinks_under_refinement(self, budget_run_16, budget_run_32):
        eta = budget_cutoff(BUDGET_MAP)
        coarse = energy_budget(budget_run_16, eta=eta, cmap=BUDGET_MAP)
        fine = energy_budget(budget_run_32, eta=eta, cmap=BUDGET_MAP)
        assert np.max(np.abs(fine.slack)) < 0.5 * np.max(np.abs(coarse.slack))

    def test_rejects_cutoff_with_wrong_tail(self, budget_run_32):
        with pytest.raises(ValueError, match="vanish"):
            energy_budget(
                budget_run_32,
                eta=gaussian_bump((math.pi,) * 3, width=0.6),
                cmap=BUDGET_MAP,
            )

    def test_rejects_cutoff_with_short_plateau(self, budget_run_32):
        narrow = cylinder_cutoff(
            BUDGET_MAP.center,
            r_inner=0.15,  # mapped Q_0 needs the plateau out to 0.3
            r_outer=BUDGET_MAP.sim_radius(cylinder_radius(-1)),
            t_zero=BUDGET_MAP.sim_time(truncation_time(-1)),
            t_one=BUDGET_MAP.sim_time(truncation_time(0)),
        )
        with pytest.raises(ValueError, match="not 1 on the mapped"):
            energy_budget(budget_run_32, eta=narrow, cmap=BUDGET_MAP)

    def test_rejects_cutoff_active_too_early(self):
        grid = Grid(32)
        u = vector_of(grid, 0.0, 0.0, 0.0)
        config = SolverConfig(viscosity=1.0, dt=1e-3, t_end=0.25, snapshot_every=50)
        result = SimulationResult(
            grid=grid, config=config, times=np.linspace(0.0, 0.25, 6),
            snapshots=[u] * 6, cfl=np.zeros(5), trace=None,
        )
        early = cylinder_cutoff(
            BUDGET_MAP.center,
            r_inner=BUDGET_MAP.sim_radius(cylinder_radius(0)),
            r_outer=BUDGET_MAP.sim_radius(cylinder_radius(-1)),
            t_zero=-1.0,
            t_one=-0.5,
        )
        with pytest.raises(ValueError, match="before the mapped window"):
            energy_budget(result, eta=early, cmap=BUDGET_MAP)

    def test_rejects_nonuniform_snapshots(self):
        # 21 steps at cadence 4: the last gap is 1e-3 after gaps of 4e-3, so a
        # centred difference with the first gap as its step is meaningless
        config = SolverConfig(viscosity=1.0, dt=1e-3, t_end=0.021, snapshot_every=4)
        result = run(taylor_green(Grid(16)), config)
        assert np.diff(result.times)[-1] == pytest.approx(1e-3)
        with pytest.raises(ValueError, match="uniformly spaced snapshots"):
            energy_budget(result)

    def test_needs_three_snapshots(self):
        grid = Grid(8)
        u = vector_of(grid, 0.0, 0.0, 0.0)
        config = SolverConfig(viscosity=1.0, dt=1e-3, t_end=1e-3)
        result = SimulationResult(
            grid=grid, config=config, times=np.array([0.0, 1.0]),
            snapshots=[u] * 2, cfl=np.zeros(1), trace=None,
        )
        with pytest.raises(ValueError, match="at least 3"):
            energy_budget(result)


def recording_gradient_squares(monkeypatch):
    """Shapes of every ``|grad f|^2`` that ``wlns.degiorgi`` forms from now on."""
    shapes = []

    def recording(f, box=None):
        out = gradient_squares(f, box)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr("wlns.degiorgi.gradient_squares", recording)
    return shapes


class TestCylinderBox:
    """The level energies and the cylinder budget are formed on their cylinder's box."""

    @pytest.mark.parametrize("scale", [0.3, 0.4, 0.65])
    @pytest.mark.parametrize(
        "center", [(math.pi,) * 3, (0.1, 0.2, 6.0)], ids=["centred", "wrapping"]
    )
    def test_level_energy_matches_whole_grid_by_bytes(
        self, strong_run_32, monkeypatch, center, scale
    ):
        result = strong_run_32
        cmap = CylinderMap(center=center, scale=scale, t_end=float(result.times[-1]))
        shapes = recording_gradient_squares(monkeypatch)
        for k_max in (3, 8):
            scheme = CylinderScheme(k_max)
            want = whole_grid_level_energy(result, scheme, cmap)
            assert np.count_nonzero(want.sup_term) >= 2
            once = iter(result.snapshots)
            for got in (
                level_energy(result, scheme, cmap),
                level_energy(Trajectory(result.grid, result.times, once), scheme, cmap),
            ):
                for name, column in vars(want).items():
                    assert getattr(got, name).tobytes() == column.tobytes(), (k_max, name)
            assert next(once, None) is None
        # both gradients of every snapshot, each on the box of the mapped B(0)
        box = tuple(map(len, cell_box(result.grid, center, cmap.sim_radius(1.0))))
        assert shapes == [box] * (4 * 2 * len(result.times))
        assert np.prod(box) < result.grid.n**3

    @pytest.mark.parametrize("case", ["tg", "random", "random-wrapping"])
    def test_cylinder_budget_series_match_whole_grid(
        self, budget_run_32, strong_run_32, monkeypatch, case
    ):
        # the box sums add the same cells in another order: rounding only
        result = budget_run_32 if case == "tg" else strong_run_32
        center = (0.1, 0.2, 6.0) if case == "random-wrapping" else (math.pi,) * 3
        cmap = CylinderMap(center=center, scale=0.3, t_end=float(result.times[-1]))
        eta = budget_cutoff(cmap)
        want = whole_grid_balance_terms(result, eta)
        shapes = recording_gradient_squares(monkeypatch)
        report = energy_budget(result, eta=eta, cmap=cmap)
        scale = max(np.max(np.abs(report.kinetic)), np.max(np.abs(report.dissipation)))
        got = {
            "quadratic": 0.5 * report.kinetic,
            "dissipation": report.dissipation,
            "transport": report.transport,
            "flux": report.flux,
        }
        for name, series in want.items():
            assert np.max(np.abs(got[name] - series)) <= 1e-13 * scale, name
        assert np.max(np.abs(report.flux)) > 0.0 and np.max(np.abs(report.transport)) > 0.0
        box = tuple(map(len, cell_box(result.grid, *eta.support)))
        assert shapes == [box] * len(result.times)
        assert np.prod(box) < result.grid.n**3

    @pytest.mark.parametrize("cutoff", ["none", "constant-one", "gaussian-bump"])
    def test_whole_grid_budget_series_keep_their_bytes(
        self, budget_run_16, budget_run_random, cutoff
    ):
        # a cutoff that records no support weighs on the whole grid, as before
        eta = {
            "none": None,
            "constant-one": constant_one(),
            "gaussian-bump": gaussian_bump((math.pi,) * 3, width=0.6),
        }[cutoff]
        for result in (budget_run_16, budget_run_random):
            want = whole_grid_balance_terms(result, eta)
            report = energy_budget(result, eta=eta)
            assert report.kinetic.tobytes() == (2.0 * want["quadratic"]).tobytes()
            for name in ("dissipation", "transport", "flux"):
                assert getattr(report, name).tobytes() == want[name].tobytes(), name

    def test_cylinder_budget_memory(self, budget_run_32):
        """A cylinder budget on a 32^3 Taylor-Green run allocates under 2.5 MiB at once.

        Every per-cell array lives on the 15^3 box of the cutoff's support
        (the call peaks near 1.6 MiB); forming them on the whole grid peaked
        at 5.6 MiB.
        """
        short = dataclasses.replace(
            budget_run_32, times=budget_run_32.times[-5:], snapshots=budget_run_32.snapshots[-5:]
        )
        energy_budget(short, eta=budget_cutoff(BUDGET_MAP), cmap=BUDGET_MAP)  # builds the blocks
        eta = budget_cutoff(BUDGET_MAP)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            energy_budget(budget_run_32, eta=eta, cmap=BUDGET_MAP)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 2**20

    def test_cylinder_map_without_cutoff_is_refused(self, budget_run_16):
        def unread():
            raise AssertionError("a snapshot was read")
            yield

        result = dataclasses.replace(budget_run_16, snapshots=unread())
        with pytest.raises(ValueError, match="eta"):
            energy_budget(result, cmap=BUDGET_MAP)


class TestRecursiveSequence:
    def test_doubling_exponent_table(self):
        # W_{k+1} = 2^k W_k^2 from W_0 = 2^-4 gives exponents obeying
        # e_{k+1} = 2 e_k - k: 4, 8, 15, 28, 53, ...
        out = recursive_sequence(2.0, 2.0, 2.0**-4, k_max=4)
        expected = np.array([4.0, 8.0, 15.0, 28.0, 53.0])
        np.testing.assert_allclose(-out.log_values / math.log(2.0), expected, atol=1e-9)
        assert out.converged

    def test_doubling_exponent_closed_form(self):
        # the same recurrence solved in closed form: e_k = 3*2^k + k + 1,
        # checked up to where the log floor kicks in (e_18 ~ 7.9e5 in nats)
        out = recursive_sequence(2.0, 2.0, 2.0**-4, k_max=17)
        ks = np.arange(18)
        expected = 3.0 * 2.0**ks + ks + 1.0
        np.testing.assert_allclose(-out.log_values / math.log(2.0), expected, rtol=1e-12)

    def test_unit_start_diverges(self):
        # W_0 = 1: exponents follow e_k = -(2^k - k - 1), so W_k blows up
        out = recursive_sequence(2.0, 2.0, 1.0, k_max=60)
        ks = np.arange(8)
        expected = -(2.0**ks - ks - 1.0)
        np.testing.assert_allclose(-out.log_values[:8] / math.log(2.0), expected, atol=1e-9)
        assert not out.converged
        assert np.isinf(out.log_values[-1])

    @pytest.mark.parametrize("c,beta", [(2.0, 2.0), (4.0, 2.0), (3.0, 1.5)])
    def test_small_start_converges(self, c, beta):
        out = recursive_sequence(c, beta, 1e-8, k_max=120)
        assert out.converged
        assert out.values[-1] == 0.0  # graceful underflow

    def test_marginal_start_converges_linearly(self):
        # at the critical value the exponents settle on the fixed family
        # e_k = k + 1, decreasing forever but only linearly; the rounding
        # of log(0.5) amplifies by 2^k, so only check while that is < 1e-6
        out = recursive_sequence(2.0, 2.0, 0.5, k_max=30)
        ks = np.arange(31)
        np.testing.assert_allclose(out.log_values, -(ks + 1.0) * math.log(2.0), atol=1e-6)
        assert out.converged

    def test_just_above_marginal_diverges(self):
        out = recursive_sequence(2.0, 2.0, 0.5 + 1e-9, k_max=200)
        assert not out.converged

    def test_log_iteration_matches_direct_floats(self):
        # close enough to critical that 30 rounds stay in float range
        w0 = 0.4999999999
        out = recursive_sequence(2.0, 2.0, w0, k_max=30)
        w = w0
        direct = [w]
        for k in range(30):
            w = 2.0**k * w**2
            direct.append(w)
        np.testing.assert_allclose(out.values, direct, rtol=1e-6)

    @pytest.mark.parametrize(
        "c,beta,w0,k_max",
        [(1.0, 2.0, 0.5, 10), (2.0, 1.0, 0.5, 10), (2.0, 2.0, 0.0, 10), (2.0, 2.0, 0.5, 0)],
    )
    def test_rejects_bad_parameters(self, c, beta, w0, k_max):
        with pytest.raises(ValueError):
            recursive_sequence(c, beta, w0, k_max)


class TestThresholdScan:
    @pytest.mark.parametrize("c,beta,critical", [(2.0, 2.0, 0.5), (4.0, 2.0, 0.25)])
    def test_brackets_marginal_family(self, c, beta, critical):
        bracket = threshold_scan(c, beta)
        assert bracket.width <= 1e-12
        assert bracket.lower <= critical <= bracket.upper + 1e-12
        assert bracket.midpoint == pytest.approx(critical, abs=1e-12)
        assert critical_w0_closed_form(c, beta) == pytest.approx(critical, rel=1e-15)

    def test_weakly_superlinear_threshold_collapses(self):
        # beta -> 1+ pushes the critical start toward zero
        bracket = threshold_scan(2.0, 1.2, tol=1e-10)
        expected = critical_w0_closed_form(2.0, 1.2)  # 2^-25
        assert expected == pytest.approx(2.0**-25, rel=1e-12)
        assert bracket.lower <= expected <= bracket.upper

    def test_rejects_sublinear_parameters(self):
        with pytest.raises(ValueError):
            threshold_scan(0.5, 2.0)
        with pytest.raises(ValueError):
            critical_w0_closed_form(2.0, 1.0)

