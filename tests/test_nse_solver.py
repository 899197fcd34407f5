import dataclasses
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from conftest import (
    batched_product_modes,
    full_transform_inverse,
    full_transform_step,
    constant_one,
    gaussian_bump,
    hermitian_defect,
    masked_step,
    numpy_spectral_gradient,
    poisson_defect,
    reference_symbols,
    stream_flow,
)

from wlns.field import (
    Grid,
    SpectralField,
    VectorField,
    cell_box,
    inverse_transform,
    _block,
)
from wlns.degiorgi import (
    cylinder_cutoff,
    energy_budget,
    smoothstep_down,
    smoothstep_down_d1,
    smoothstep_down_d2,
)
from wlns.nse_solver import (
    BlowUpError,
    SolverConfig,
    SolverState,
    kinetic_energy,
    leray_project,
    nonlinear_term,
    pressure_from_velocity,
    pressure_split,
    random_divfree,
    run,
    single_mode,
    spectral_divergence_defect,
    step,
    taylor_green,
    to_spectral,
    _PAIRS,
    _product_modes,
)


@pytest.fixture(scope="module")
def tg_run_32():
    """Taylor-Green benchmark trajectory shared across the module."""
    grid = Grid(n=32)
    config = SolverConfig(viscosity=1.0, dt=1e-3, t_end=0.1, snapshot_every=2)
    return run(taylor_green(grid), config, q=6.0)


class TestInitialConditions:
    def test_taylor_green_components(self):
        grid = Grid(n=16)
        u = taylor_green(grid, amplitude=2.0)
        x, y, _ = grid.coordinates
        assert np.allclose(u.values[0], 2.0 * np.cos(x) * np.sin(y))
        assert np.allclose(u.values[1], -2.0 * np.sin(x) * np.cos(y))
        assert np.all(u.values[2] == 0.0)

    def test_single_mode_requires_transversality(self):
        grid = Grid(n=16)
        with pytest.raises(ValueError, match="orthogonal"):
            single_mode(grid, mode=(0, 0, 1), direction=(0.0, 0.0, 1.0))

    @pytest.mark.parametrize("direction", [(0.0, 0.0, 0.0), (math.nan, 0.0, 0.0),
                                           (math.inf, 0.0, 0.0), (1e-320, 0.0, 0.0),
                                           (1e200, 0.0, 0.0)])
    def test_single_mode_rejects_a_direction_it_cannot_normalize(self, direction):
        # 1e-320 squared underflows to 0 and 1e200 squared overflows to inf
        with pytest.raises(ValueError, match="squared norm must be a positive finite float"):
            single_mode(Grid(n=8), mode=(0, 0, 1), direction=direction)

    def test_random_divfree_properties(self):
        grid = Grid(n=16)
        u = random_divfree(grid, seed=42, amplitude=0.7)
        assert u.max_abs() == pytest.approx(0.7, rel=1e-12)
        defect = spectral_divergence_defect(grid, to_spectral(u))
        assert defect < 1e-12

    def test_random_divfree_deterministic(self):
        grid = Grid(n=16)
        a = random_divfree(grid, seed=9)
        b = random_divfree(grid, seed=9)
        assert np.array_equal(a.as_array(), b.as_array())
        c = random_divfree(grid, seed=10)
        assert not np.array_equal(a.as_array(), c.as_array())


class TestLerayProjection:
    def test_divergence_free_field_unchanged(self):
        grid = Grid(n=16)
        u = single_mode(grid, mode=(0, 0, 2), direction=(0.0, 1.0, 0.0))
        modes = to_spectral(u)
        projected = leray_project(grid, modes)
        assert np.max(np.abs(projected - modes)) < 1e-12

    def test_gradient_annihilated(self):
        grid = Grid(n=16)
        x, y, z = grid.coordinates
        # the gradient of sin(x) cos(2y) + sin(z)
        g = VectorField.from_arrays(
            grid, np.cos(x) * np.cos(2 * y), -2 * np.sin(x) * np.sin(2 * y), np.cos(z)
        )
        projected = leray_project(grid, to_spectral(g))
        assert np.max(np.abs(projected)) < 1e-12

    def test_idempotent(self):
        grid = Grid(n=12)
        rng = np.random.default_rng(4)
        modes = np.fft.rfftn(rng.normal(size=(3, *grid.shape)), axes=(1, 2, 3))
        once = leray_project(grid, modes)
        twice = leray_project(grid, once)
        assert np.max(np.abs(twice - once)) <= 1e-12 * np.max(np.abs(once))

    def test_mean_mode_untouched(self):
        grid = Grid(n=8)
        modes = np.zeros((3, 8, 8, 5), dtype=np.complex128)
        modes[:, 0, 0, 0] = [1.0, 2.0, 3.0]
        out = leray_project(grid, modes)
        assert np.array_equal(out[:, 0, 0, 0], [1.0, 2.0, 3.0])


class TestNonlinearTerm:
    def test_constant_field_gives_zero(self):
        grid = Grid(n=8)
        u = VectorField.from_arrays(
            grid, np.full(grid.shape, 1.5), np.full(grid.shape, -0.5), np.zeros(grid.shape)
        )
        mask = grid.dealias_mask()
        out = nonlinear_term(grid, to_spectral(u), mask)
        assert np.max(np.abs(out)) < 1e-14

    def test_taylor_green_is_pure_gradient(self):
        grid = Grid(n=32)
        u = taylor_green(grid)
        mask = grid.dealias_mask()
        modes = to_spectral(u)
        nl = nonlinear_term(grid, modes * mask[..., : modes.shape[-1]], mask)
        projected = leray_project(grid, nl)
        assert np.max(np.abs(nl)) > 0.1  # the term itself is not trivial
        assert np.max(np.abs(projected)) < 1e-10

    def test_brute_force_convolution_oracle(self):
        # band-limited input (|m| <= 1 per axis) so the circular FFT
        # product has no aliased images and must equal the direct
        # convolution sum over integer modes; the oracle runs over the full
        # spectrum, whose last-axis indices 0..n/2 are the solver's half
        grid = Grid(n=8)
        rng = np.random.default_rng(77)
        raw = np.fft.fftn(rng.normal(size=(3, 8, 8, 8)), axes=(1, 2, 3)) / 8**3
        m = grid.mode_numbers
        band = (
            (np.abs(m)[:, None, None] <= 1)
            & (np.abs(m)[None, :, None] <= 1)
            & (np.abs(m)[None, None, :] <= 1)
        )
        modes = _reference_project(grid, raw * band)
        half = grid.n // 2 + 1

        coeffs = {}
        for i in range(3):
            for a in range(8):
                for b in range(8):
                    for c in range(8):
                        if abs(modes[i, a, b, c]) > 0:
                            coeffs.setdefault(i, []).append(
                                ((int(m[a]), int(m[b]), int(m[c])), modes[i, a, b, c])
                            )

        two_pi_over_l = 2.0 * np.pi / grid.length
        oracle = np.zeros_like(modes)
        pos = {int(mm): idx for idx, mm in enumerate(m)}
        for i in range(3):
            for j in range(3):
                for (ma, ca) in coeffs.get(i, []):
                    for (mb, cb) in coeffs.get(j, []):
                        target = tuple(ma[ax] + mb[ax] for ax in range(3))
                        k_j = two_pi_over_l * target[j]
                        idx = tuple(pos[t] for t in target)
                        oracle[(i, *idx)] += 1j * k_j * ca * cb

        mask = grid.dealias_mask()
        out = nonlinear_term(grid, modes[..., :half], mask)
        assert out.shape == (3, 8, 8, half)
        assert np.max(np.abs(out - oracle[..., :half])) < 1e-13

    def test_overflow_aborts(self):
        grid = Grid(n=8)
        huge = np.full(grid.shape, 1e200)
        u = VectorField.from_arrays(grid, huge, huge, huge)
        with pytest.raises(BlowUpError, match="overflow"):
            nonlinear_term(grid, to_spectral(u), grid.dealias_mask())


class TestPressure:
    def test_constant_velocity_zero_pressure(self):
        grid = Grid(n=8)
        u = VectorField.from_arrays(
            grid, np.ones(grid.shape), np.ones(grid.shape), np.ones(grid.shape)
        )
        P = pressure_from_velocity(u)
        assert np.max(np.abs(P.values)) < 1e-14

    def test_taylor_green_pressure(self):
        grid = Grid(n=32)
        P = pressure_from_velocity(taylor_green(grid))
        x, y, _ = grid.coordinates
        exact = -(np.cos(2 * x) + np.cos(2 * y)) / 4.0
        assert np.max(np.abs(P.values - exact)) < 1e-10

    def test_poisson_residual_independent_paths(self):
        # P from the symbol solve; the defect Lap P + div div (u(x)u)
        # recomputed entirely through numpy's FFT
        grid = Grid(n=16)
        for seed in range(5):
            u = random_divfree(grid, seed=seed, max_mode=grid.n // 4 - 1)
            assert poisson_defect(u, pressure_from_velocity(u, dealias_fraction=1.0)) < 1e-10

    def test_split_all_low(self):
        grid = Grid(n=16)
        u = random_divfree(grid, seed=3, amplitude=0.5)
        p1, p2 = pressure_split(u)
        P = pressure_from_velocity(u)
        assert np.max(np.abs(p1.values)) < 1e-14
        assert np.max(np.abs(p2.values - P.values)) < 1e-12

    def test_split_all_high(self):
        grid = Grid(n=16)
        u = single_mode(grid, mode=(0, 0, 1), amplitude=3.0)
        shifted = VectorField.from_arrays(
            grid, u.values[0] + 5.0, u.values[1], u.values[2]
        )
        p1, p2 = pressure_split(shifted)
        assert np.max(np.abs(p2.values)) < 1e-14

    def test_split_additivity_mixed(self):
        grid = Grid(n=16)
        u = random_divfree(grid, seed=8, amplitude=2.0)
        mag = u.magnitude().values
        assert mag.min() < 1.0 < mag.max()  # genuinely mixed
        p1, p2 = pressure_split(u)
        P = pressure_from_velocity(u)
        assert np.max(np.abs(p1.values + p2.values - P.values)) < 1e-10

    @pytest.mark.parametrize("split", [False, True])
    def test_zero_component_matches_full_transforms(self, split):
        # the products holding the bitwise-zero u_z are not transformed;
        # the pressure keeps the bits of the solve that transforms all six
        u = stream_flow(Grid(n=16), seed=4, amplitude=2.0)
        high = (u.magnitude().values >= 1.0).astype(np.float64)
        block = _block(u.grid, 2.0 / 3.0)
        *k, k2 = block.symbols

        def solve(weight):
            products = batched_product_modes(u.as_array(), block, weight)
            phat = np.zeros(block.shape, dtype=np.complex128)
            for idx, (i, j) in enumerate(_PAIRS):
                phat -= (k[i] * k[j] * (1.0 if i == j else 2.0)) * products[idx]
            phat /= k2
            phat[0, 0, 0] = 0.0
            return full_transform_inverse(block, phat)

        if split:
            got = [p.values for p in pressure_split(u)]
            want = [solve(high), solve(1.0 - high)]
        else:
            got, want = [pressure_from_velocity(u).values], [solve(None)]
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("fraction", [2.0 / 3.0, 1.0])
    def test_pressure_on_a_box_is_the_restricted_pressure(self, fraction):
        grid = Grid(n=24)
        u = random_divfree(grid, seed=5, amplitude=2.0)
        whole = pressure_from_velocity(u, fraction).values
        for center in ((np.pi,) * 3, (0.1, 0.2, 6.0)):
            box = cell_box(grid, center, 1.3)
            got = pressure_from_velocity(u, fraction, box=box)
            assert got.tobytes() == whole[np.ix_(*box)].tobytes()


class TestStepping:
    def test_zero_stays_zero(self):
        grid = Grid(n=8)
        u0 = VectorField.from_arrays(
            grid, np.zeros(grid.shape), np.zeros(grid.shape), np.zeros(grid.shape)
        )
        config = SolverConfig(dt=1e-2, t_end=0.1)
        result = run(u0, config)
        assert all(s.max_abs() == 0.0 for s in result.snapshots)

    def test_single_mode_heat_decay(self):
        grid = Grid(n=16)
        u0 = single_mode(grid, mode=(0, 0, 1), direction=(1.0, 0.0, 0.0))
        config = SolverConfig(viscosity=1.0, dt=1e-3, t_end=0.1, snapshot_every=100)
        result = run(u0, config)
        final = result.snapshots[-1]
        expected = math.exp(-0.1)
        err = np.max(np.abs(final.values[0] - expected * u0.values[0]))
        assert err < 1e-10

    def test_taylor_green_energy_law(self, tg_run_32):
        result = tg_run_32
        e0 = kinetic_energy(result.snapshots[0])
        for t, u in zip(result.times, result.snapshots):
            expected = e0 * math.exp(-4.0 * t)
            assert kinetic_energy(u) == pytest.approx(expected, rel=1e-6)

    def test_energy_nonincreasing(self):
        grid = Grid(n=16)
        u0 = random_divfree(grid, seed=12, amplitude=1.0)
        config = SolverConfig(viscosity=1.0, dt=2e-3, t_end=0.05, snapshot_every=1)
        result = run(u0, config)
        energies = [kinetic_energy(u) for u in result.snapshots]
        for a, b in zip(energies, energies[1:]):
            assert b <= a + 1e-12

    def test_mean_momentum_constant(self):
        grid = Grid(n=16)
        u0 = random_divfree(grid, seed=5, amplitude=1.0)
        shifted = VectorField.from_arrays(
            grid, u0.values[0] + 0.3, u0.values[1] - 0.1, u0.values[2]
        )
        config = SolverConfig(dt=2e-3, t_end=0.02)
        state = SolverState.from_velocity(shifted, config)
        start = state.modes[:, 0, 0, 0].copy()
        for _ in range(config.n_steps):
            state = step(state, config)
        assert np.max(np.abs(state.modes[:, 0, 0, 0] - start)) < 1e-12

    def test_divergence_and_hermitian_preserved(self, tg_run_32):
        # a half spectrum can break Hermitian symmetry only inside the
        # last-axis planes 0 and n/2, which hermitian_defect checks
        final = tg_run_32.snapshots[-1]
        modes = to_spectral(final)
        assert spectral_divergence_defect(final.grid, modes) < 1e-10
        assert hermitian_defect(SpectralField(final.grid, modes)) < 1e-12

    def test_cfl_series_recorded(self, tg_run_32):
        result = tg_run_32
        assert len(result.cfl) == 100
        # dt * max|u| / h with max|u| ~ 1, dt = 1e-3, h = 2 pi / 32
        assert 0.001 < result.cfl[0] < 0.01
        assert np.all(np.diff(result.cfl) < 0)  # decaying flow

    def test_trace_collected(self, tg_run_32):
        trace = tg_run_32.trace
        assert trace is not None
        assert len(trace.t) == len(tg_run_32.times)
        cum = trace.accumulated()["C_lps"]
        assert np.all(np.diff(cum) > 0)

    def test_blowup_raises_with_partial_result(self):
        grid = Grid(n=16)
        u0 = random_divfree(grid, seed=2, amplitude=1.0)
        config = SolverConfig(dt=1e-3, t_end=0.05, blowup_threshold=0.5)
        with pytest.raises(BlowUpError) as excinfo:
            run(u0, config, q=6.0)
        err = excinfo.value
        assert err.last_time == 0.0
        assert err.result is not None
        assert len(err.result.snapshots) == 1
        assert err.result.trace is not None

    def test_non_finite_initial_state_halts_before_recording(self):
        grid = Grid(n=16)
        u0 = taylor_green(grid, amplitude=1.7e308)  # finite values, overflowing modes
        sink = []
        with pytest.raises(BlowUpError, match="^non-finite initial state$") as excinfo:
            run(u0, SolverConfig(dt=1e-3, t_end=0.002), q=6.0, sink=lambda t, u: sink.append(t))
        err = excinfo.value
        assert math.isnan(err.last_time)
        assert sink == [] and len(err.result.times) == 0 and err.result.trace is None

    @pytest.mark.parametrize("flow", ["random", "stream"])
    def test_rk4_is_fourth_order_on_nonlinear_flows(self, flow):
        # halving dt divides the difference of successive runs by 2^4;
        # the 2-D stream flow holds the path that skips the zero u_z to it
        grid = Grid(n=16)
        make = random_divfree if flow == "random" else stream_flow
        u0 = make(grid, seed=1, amplitude=2.0)
        finals = []
        for dt in (8e-3, 4e-3, 2e-3, 1e-3):
            config = SolverConfig(viscosity=0.05, dt=dt, t_end=0.08)
            state = SolverState.from_velocity(u0, config)
            for _ in range(config.n_steps):
                state = step(state, config)
            finals.append(state.physical)
        diffs = [np.linalg.norm(a - b) for a, b in zip(finals, finals[1:])]
        for coarse, fine in zip(diffs, diffs[1:]):
            assert 14.0 <= coarse / fine <= 18.0

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(dt=-1e-3)
        with pytest.raises(ValueError):
            SolverConfig(viscosity=0.0)
        with pytest.raises(ValueError):
            SolverConfig(dt=3e-3, t_end=0.01).n_steps  # not an integer multiple

    def test_blowup_threshold_must_be_positive(self):
        # NaN compares false with every max|u|, so it would never halt a run
        for threshold in (math.nan, 0.0, -1.0, -math.inf):
            with pytest.raises(ValueError, match="blowup_threshold"):
                SolverConfig(blowup_threshold=threshold)
        assert SolverConfig(blowup_threshold=math.inf).blowup_threshold == math.inf

    def test_kinetic_energy_parseval(self):
        grid = Grid(n=16)
        u = random_divfree(grid, seed=30)
        direct = kinetic_energy(u)
        # the half spectrum holds the last-axis modes 1..n/2-1 once for
        # themselves and once for their conjugates
        modes = to_spectral(u)
        weight = np.full(modes.shape[-1], 2.0)
        weight[[0, -1]] = 1.0
        from_modes = 0.5 * grid.volume * float(np.sum(weight * np.abs(modes) ** 2))
        assert direct == pytest.approx(from_modes, rel=1e-12)


# ---------------------------------------------------------------------------
# full-spectrum reference: the complex-FFT RK4 step that the half-spectrum
# solver replaced, kept as an independent oracle built only on numpy.fft and
# the reference symbols of conftest


def _reference_project(grid, modes):
    (kx, ky, kz), _ = reference_symbols(grid.n, grid.length)
    k2 = kx**2 + ky**2 + kz**2
    k2 = np.where(k2 > 0.0, k2, 1.0)
    compression = (kx * modes[0] + ky * modes[1] + kz * modes[2]) / k2
    out = modes.copy()
    out[0] -= kx * compression
    out[1] -= ky * compression
    out[2] -= kz * compression
    return out


def _reference_nonlinear(grid, modes, mask):
    n3 = grid.n**3
    u = [np.fft.ifftn(modes[i] * n3).real for i in range(3)]
    symbols, _ = reference_symbols(grid.n, grid.length)
    products = {}
    for i in range(3):
        for j in range(i, 3):
            products[i, j] = np.fft.fftn(u[i] * u[j]) / n3
    out = np.empty_like(modes)
    for i in range(3):
        acc = np.zeros(grid.shape, dtype=np.complex128)
        for j in range(3):
            acc += symbols[j] * products[min(i, j), max(i, j)]
        out[i] = 1j * acc * mask
    return out


def reference_step(grid, modes, config):
    """One full-spectrum RK4 step with the exact viscous factor."""
    dt = config.dt
    mask = grid.dealias_mask(config.dealias_fraction)
    _, k_squared = reference_symbols(grid.n, grid.length)
    decay_half = np.exp(-config.viscosity * k_squared * (dt / 2.0))
    decay_full = decay_half * decay_half

    def rhs(m):
        return -_reference_project(grid, _reference_nonlinear(grid, m, mask))

    k1 = rhs(modes)
    k2 = rhs(decay_half * (modes + 0.5 * dt * k1))
    k3 = rhs(decay_half * modes + 0.5 * dt * k2)
    k4 = rhs(decay_full * modes + dt * decay_half * k3)
    new = decay_full * modes + (dt / 6.0) * (
        decay_full * k1 + 2.0 * decay_half * (k2 + k3) + k4
    )
    return _reference_project(grid, new)


class TestReferenceStep:
    REL = 1e-12  # fixed before the comparison was run

    CASES = {
        "random16": (
            lambda: random_divfree(Grid(n=16), seed=11, amplitude=1.0),
            SolverConfig(viscosity=0.05, dt=2e-3, t_end=0.04, snapshot_every=5),
        ),
        # every mode kept, so the Nyquist planes carry content and their
        # zeroed derivative symbols matter
        "random16-full-band": (
            lambda: random_divfree(Grid(n=16), seed=11, amplitude=1.0),
            SolverConfig(
                viscosity=0.05, dt=2e-3, t_end=0.04, snapshot_every=5, dealias_fraction=1.0
            ),
        ),
        "taylor-green32": (
            lambda: taylor_green(Grid(n=32)),
            SolverConfig(viscosity=1.0, dt=1e-3, t_end=0.02, snapshot_every=5),
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_run_matches_reference(self, case):
        make_u0, config = self.CASES[case]
        u0 = make_u0()
        grid = u0.grid
        result = run(u0, config)

        n3 = grid.n**3
        mask = grid.dealias_mask(config.dealias_fraction)
        modes = _reference_project(grid, np.fft.fftn(u0.as_array(), axes=(1, 2, 3)) / n3 * mask)
        physical = np.fft.ifftn(modes * n3, axes=(1, 2, 3)).real
        snapshots, cfl = [physical], []
        for index in range(1, config.n_steps + 1):
            modes = reference_step(grid, modes, config)
            physical = np.fft.ifftn(modes * n3, axes=(1, 2, 3)).real
            cfl.append(config.dt * np.sqrt(np.sum(physical**2, axis=0)).max() / grid.spacing)
            if index % config.snapshot_every == 0:
                snapshots.append(physical)

        assert len(result.snapshots) == len(snapshots)
        for got, want in zip(result.snapshots, snapshots):
            assert np.max(np.abs(got.as_array() - want)) <= self.REL * np.max(np.abs(want))
        assert len(result.cfl) == len(cfl)
        np.testing.assert_allclose(result.cfl, cfl, rtol=self.REL, atol=0.0)


class TestBlockStep:
    """The step on the kept block against the masked half-spectrum step."""

    @pytest.mark.parametrize("fraction", [2.0 / 3.0, 0.5, 1.0])
    @pytest.mark.parametrize("n", [16, 24, 48])
    def test_bit_identical_to_masked_step(self, n, fraction):
        grid = Grid(n=n)
        config = SolverConfig(viscosity=0.05, dt=2e-3, t_end=0.01, dealias_fraction=fraction)
        state = SolverState.from_velocity(random_divfree(grid, seed=n, amplitude=2.0), config)
        modes = state.modes
        for _ in range(5):
            state = step(state, config)
            modes = masked_step(grid, modes, config)
            assert np.array_equal(state.modes, modes)
            physical = inverse_transform(SpectralField(grid, modes)).as_array()
            assert np.array_equal(state.physical, physical)

    @pytest.mark.parametrize("fraction", [2.0 / 3.0, 0.5, 1.0])
    @pytest.mark.parametrize("n", [16, 48])
    def test_state_holds_only_the_block(self, n, fraction):
        grid = Grid(n=n)
        config = SolverConfig(viscosity=0.05, dt=2e-3, t_end=0.01, dealias_fraction=fraction)
        block = _block(grid, fraction)
        state = SolverState.from_velocity(random_divfree(grid, seed=n, amplitude=2.0), config)
        for state in (state, step(state, config)):
            assert state.kept.shape == (3, *block.shape)
            assert state.kept.nbytes == 3 * math.prod(block.shape) * 16
            assert state.dealias_fraction == fraction
            # the half spectrum is built on each read and never stored
            assert state.modes is not state.modes
            assert np.array_equal(block.gather(state.modes), state.kept)
            assert "modes" not in vars(state)

    def test_step_rejects_another_dealias_fraction(self):
        grid = Grid(n=16)
        config = SolverConfig(viscosity=0.05, dt=2e-3, t_end=0.01)
        state = SolverState.from_velocity(random_divfree(grid, seed=1), config)
        for fraction in (0.5, 1.0):
            other = SolverConfig(viscosity=0.05, dt=2e-3, t_end=0.01, dealias_fraction=fraction)
            with pytest.raises(ValueError, match="different dealias fractions"):
                step(state, other)

    @pytest.mark.parametrize("fraction", [2.0 / 3.0, 0.5])
    def test_modes_outside_block_stay_zero(self, fraction):
        grid = Grid(n=16)
        config = SolverConfig(viscosity=0.05, dt=2e-3, t_end=0.01, dealias_fraction=fraction)
        states = []
        run(random_divfree(grid, seed=3, amplitude=2.0), config, callback=states.append)
        cut = ~grid.dealias_mask(fraction)[..., : grid.n // 2 + 1]
        assert len(states) == config.n_steps
        for state in states:
            assert np.all(state.modes[:, cut] == 0.0)

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("fraction", [2.0 / 3.0, 0.5, 1.0])
    @pytest.mark.parametrize("n", [16, 24, 48])
    def test_products_match_batched_transform(self, n, fraction, weighted):
        # bit for bit on a random field; on the stream flow, whose products
        # with the +0 u_z get +0 modes without a transform, bit for bit but
        # the signs of zeros: adding +0 turns a -0 into +0 and keeps every other bit
        block = _block(Grid(n=n), fraction)
        with_uz = [idx for idx, pair in enumerate(_PAIRS) if 2 in pair]
        for make in (random_divfree, stream_flow):
            u = make(Grid(n=n), seed=n + 1, amplitude=2.0)
            weight = (u.magnitude().values >= 1.0).astype(np.float64) if weighted else None
            want = batched_product_modes(u.as_array(), block, weight)
            got = _product_modes(u.as_array(), block, weight)
            if make is random_divfree:
                assert got.tobytes() == want.tobytes()
            else:
                assert (got + 0.0).tobytes() == (want + 0.0).tobytes()
                assert not got[with_uz].view(np.uint64).any()

    @pytest.mark.parametrize("flow, transforms", [("taylor-green", 20), ("random", 36)])
    def test_transforms_per_step(self, monkeypatch, flow, transforms):
        # the bitwise-zero u_z of Taylor-Green costs no inverse and no
        # product transform: a step's 12 irfft and 24 rfft calls drop to 8 and 12
        grid = Grid(n=32)
        u0 = taylor_green(grid) if flow == "taylor-green" else random_divfree(grid, seed=1)
        config = SolverConfig()
        state = SolverState.from_velocity(u0, config)
        state.physical
        calls = []
        for name in ("rfft", "irfft"):
            transform = getattr(np.fft, name)
            monkeypatch.setattr(
                np.fft, name, lambda *a, _f=transform, **k: calls.append(1) or _f(*a, **k)
            )
        step(state, config)
        assert len(calls) == transforms

    @pytest.mark.parametrize("n", [16, 24])
    def test_zero_component_step_matches_full_transform_step(self, n):
        # a nonlinear 2-D flow: the kept block and the values keep every
        # bit of the step that transforms every component and product
        grid = Grid(n=n)
        config = SolverConfig(viscosity=0.05, dt=2e-3, t_end=0.01)
        state = SolverState.from_velocity(stream_flow(grid, seed=n, amplitude=2.0), config)
        kept = state.kept
        for _ in range(5):
            state = step(state, config)
            kept, physical = full_transform_step(grid, kept, config)
            assert not state.kept[2].view(np.uint64).any()
            assert state.kept.tobytes() == kept.tobytes()
            assert state.physical.tobytes() == physical.tobytes()

    def test_overflow_in_product_halts_step(self):
        grid = Grid(n=16)
        config = SolverConfig(viscosity=0.05, dt=2e-3, t_end=0.01)
        u = random_divfree(grid, seed=2, amplitude=1e200)
        state = SolverState.from_velocity(u, config)
        with pytest.raises(BlowUpError, match="^overflow in physical-space product"):
            step(state, config)

    def test_overflow_in_step_carries_the_state_time(self):
        config = SolverConfig()
        u = random_divfree(Grid(8), seed=1, amplitude=1e160)
        state = dataclasses.replace(
            SolverState.from_velocity(u, config), time=0.5, step_index=500
        )
        with pytest.raises(BlowUpError, match="^overflow") as excinfo:
            step(state, config)
        assert excinfo.value.last_time == 0.5
        assert excinfo.value.result is None

    def test_step_memory_stays_below_five_fields(self):
        """A warmed 48^3 step allocates at most five ``(3, n, n, n)`` fields at once.

        The products are formed and transformed one at a time and the block
        inverse works one field at a time, which keeps the peak near 4.4
        fields.
        """
        grid = Grid(n=48)
        config = SolverConfig(viscosity=0.05, dt=2e-3, t_end=0.01)
        state = step(SolverState.from_velocity(random_divfree(grid, seed=1), config), config)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            step(state, config)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 5 * state.physical.nbytes

    def test_run_memory_stays_below_four_fields(self):
        """A warmed 48^3 ``run`` whose caller keeps no initial field peaks below four fields.

        The state is the kept block, a third of a field at 48^3, and ``run``
        lets the initial field go once the state is built.  A state holding
        the whole half spectrum would peak at 6.1 fields, and keeping the
        initial field through the run adds one more.
        """
        grid = Grid(n=48)
        config = SolverConfig(viscosity=0.05, dt=2e-3, t_end=0.01, snapshot_every=5)
        field = 3 * grid.n**3 * 8
        run(random_divfree(grid, seed=1), config, sink=lambda t, u: None)
        tracemalloc.start()
        try:
            initial = [random_divfree(grid, seed=1)]
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            run(initial.pop(), config, sink=lambda t, u: None)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 4 * field

    def test_cold_run_gives_its_buffers_back(self):
        """A first ``run`` on a grid keeps only its blocks' symbols, mask and factors.

        The transform buffers die with each call, so once the result is
        dropped less than 0.3 of a ``(3, n, n, n)`` field stays traced at
        40^3 (about 0.18); buffers kept with the block would hold 0.93.
        """
        grid = Grid(n=40)  # a size no other test uses, so its 2/3 block is built here
        config = SolverConfig(viscosity=0.05, dt=2e-3, t_end=0.01)
        field = 3 * grid.n**3 * 8
        initial = [random_divfree(grid, seed=1)]
        # only what the run allocates is traced: freeing the initial field counts nothing
        tracemalloc.start()
        try:
            run(initial.pop(), config)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 0.3 * field

    def test_velocity_is_the_physical_values(self):
        config = SolverConfig(dt=2e-3, t_end=0.01)
        state = SolverState.from_velocity(random_divfree(Grid(n=16), seed=1), config)
        for s in (state, step(state, config)):
            assert np.shares_memory(s.velocity().values, s.physical)

    def test_to_spectral_transforms_the_values_without_a_copy(self):
        """At 48^3 ``to_spectral`` peaks at its own modes, 2.64 MiB, under 3.0 MiB.

        Stacking the components into a copy before the transform would add
        one ``(3, n, n, n)`` field, 2.53 MiB.
        """
        u = random_divfree(Grid(n=48), seed=1)
        to_spectral(u)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            to_spectral(u)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 3.0 * 2**20

    def test_run_lets_the_initial_field_go(self):
        initial = [random_divfree(Grid(n=16), seed=1)]
        alive = weakref.ref(initial[0])
        seen = []
        config = SolverConfig(dt=2e-3, t_end=0.01)
        run(initial.pop(), config, callback=lambda state: seen.append(alive() is None))
        assert seen == [True] * config.n_steps


class TestSink:
    """``run(..., sink=...)`` hands each snapshot over instead of keeping it."""

    CONFIG = SolverConfig(viscosity=0.05, dt=2e-3, t_end=0.02, snapshot_every=3)

    def test_sink_gets_the_snapshots_run_keeps(self):
        u0 = random_divfree(Grid(n=16), seed=5, amplitude=2.0)
        kept_ticks, sunk_ticks, handed = [], [], []
        kept = run(u0, self.CONFIG, q=6.0, callback=kept_ticks.append)
        sunk = run(
            u0, self.CONFIG, q=6.0, callback=sunk_ticks.append,
            sink=lambda t, u: handed.append((t, u)),
        )
        assert sunk.snapshots == []
        assert len(kept.snapshots) == 5  # steps 0, 3, 6, 9 and the last, 10
        assert [t for t, _ in handed] == list(kept.times)
        assert np.array_equal(sunk.times, kept.times)
        for (_, got), want in zip(handed, kept.snapshots, strict=True):
            assert np.array_equal(got.as_array(), want.as_array())
        assert len(sunk_ticks) == len(kept_ticks) == self.CONFIG.n_steps
        assert np.array_equal(sunk.cfl, kept.cfl)
        for name, column in vars(kept.trace).items():
            assert np.array_equal(getattr(sunk.trace, name), column)

    def test_interrupt_carries_partial_result(self):
        u0 = random_divfree(Grid(n=16), seed=5, amplitude=2.0)
        handed = []

        def interrupt(state):
            if state.step_index == 7:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt) as err:
            run(u0, self.CONFIG, q=6.0, callback=interrupt, sink=lambda t, u: handed.append(t))
        partial = err.value.result
        assert handed == pytest.approx([0.0, 0.006, 0.012])
        assert list(partial.times) == handed
        assert list(partial.trace.t) == handed
        assert len(partial.cfl) == 7

class TestScalingEquivariance:
    def test_zoom_commutes_with_evolution(self):
        """u -> eps u(eps^2 t, eps x) maps trajectories to trajectories.

        On the periodic box the zoomed initial data is the eps-fold tiling
        with amplitude eps; evolving it on the doubled grid with dt/eps^2
        must reproduce the tiling of the evolved coarse solution, because
        the scheme commutes with the scaling mode-for-mode (dealiasing
        bands correspond exactly when n is doubled).
        """
        eps = 2
        coarse_grid = Grid(n=24)
        u0 = random_divfree(coarse_grid, seed=21, max_mode=4, amplitude=1.0)
        dt, steps = 2e-3, 4
        coarse_cfg = SolverConfig(dt=dt, t_end=dt * steps, snapshot_every=steps)
        coarse = run(u0, coarse_cfg)

        fine_grid = Grid(n=eps * coarse_grid.n)
        tiled0 = VectorField.from_arrays(
            fine_grid, *(eps * np.tile(c, (eps, eps, eps)) for c in u0.values)
        )
        fine_cfg = SolverConfig(
            dt=dt / eps**2, t_end=dt * steps / eps**2, snapshot_every=steps * eps**2
        )
        fine = run(tiled0, fine_cfg)

        expected = np.stack(
            [eps * np.tile(c, (eps, eps, eps)) for c in coarse.snapshots[-1].values]
        )
        got = fine.snapshots[-1].as_array()
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(got - expected)) / scale < 1e-6


class TestCutoffs:
    def test_smoothstep_join_values(self):
        s = np.array([0.0, 1.0])
        assert np.allclose(smoothstep_down(s), [1.0, 0.0])
        assert np.allclose(smoothstep_down_d1(s), [0.0, 0.0])
        assert np.allclose(smoothstep_down_d2(s), [0.0, 0.0])
        mid = np.array([0.5])
        assert smoothstep_down(mid)[0] == pytest.approx(0.5)

    def test_constant_one_derivatives_vanish(self):
        grid = Grid(n=8)
        c = constant_one()
        assert np.all(c.value(grid, 0.3) == 1.0)
        assert np.all(c.time_derivative(grid, 0.3) == 0.0)
        assert np.all(c.gradient(grid, 0.3) == 0.0)
        assert np.all(c.laplacian(grid, 0.3) == 0.0)

    def test_gaussian_derivatives_match_spectral(self):
        grid = Grid(n=32)
        center = (np.pi, np.pi, np.pi)
        bump = gaussian_bump(center, width=0.6)
        spectral_grad = numpy_spectral_gradient(bump.value(grid, 0.0), grid.length)
        closed_grad = bump.gradient(grid, 0.0)
        for i, part in enumerate(spectral_grad):
            assert np.max(np.abs(part - closed_grad[i])) < 1e-4
        spectral_lap = sum(
            numpy_spectral_gradient(part, grid.length)[i] for i, part in enumerate(spectral_grad)
        )
        assert np.max(np.abs(spectral_lap - bump.laplacian(grid, 0.0))) < 1e-3

    def test_cylinder_plateau_and_support(self):
        grid = Grid(n=32)
        center = (np.pi, np.pi, np.pi)
        cut = cylinder_cutoff(center, r_inner=1.0, r_outer=2.0, t_zero=0.0, t_one=0.5)
        phi = cut.value(grid, 1.0)  # time factor saturated at 1
        d = np.sqrt(
            sum((grid.coordinates[i] - center[i]) ** 2 for i in range(3))
        )
        assert np.all(phi[d <= 1.0] == 1.0)
        assert np.all(phi[d >= 2.0] == 0.0)
        assert np.all((phi >= 0.0) & (phi <= 1.0))
        # before the ramp starts everything vanishes
        assert np.all(cut.value(grid, -0.1) == 0.0)

    def test_cylinder_time_derivative_richardson(self):
        grid = Grid(n=8, length=8.0)
        cut = cylinder_cutoff((4.0, 4.0, 4.0), 1.0, 2.0, t_zero=0.0, t_one=1.0)
        t = 0.37
        for h in (1e-3, 5e-4):
            fd = (cut.value(grid, t + h) - cut.value(grid, t - h)) / (2 * h)
            exact = cut.time_derivative(grid, t)
            assert np.max(np.abs(fd - exact)) < 40 * h**2

    def test_cylinder_gradient_matches_finite_differences(self):
        grid = Grid(n=64, length=8.0)
        cut = cylinder_cutoff((4.0, 4.0, 4.0), 1.0, 3.0, t_zero=-1.0, t_one=-0.5)
        phi = cut.value(grid, 0.0)
        fd = np.gradient(phi, grid.spacing, axis=0)
        exact = cut.gradient(grid, 0.0)[0]
        # second-order FD against the closed form; h^2 * |phi'''| ~ 2e-2
        assert np.max(np.abs(fd - exact)) < 2.5e-2
        assert np.max(np.abs(exact)) > 0.5  # the comparison is not vacuous


    @pytest.mark.parametrize(
        "center", [(np.pi,) * 3, (0.1, 0.2, 6.0)], ids=["centred", "wrapping"]
    )
    def test_cylinder_cutoff_on_its_support_box(self, center):
        # on its box every part keeps the bits of the whole grid's, and the
        # whole grid holds nothing but zeros outside that box
        grid = Grid(n=32)
        cut = cylinder_cutoff(center, r_inner=0.6, r_outer=1.4, t_zero=0.0, t_one=0.5)
        assert cut.support == (center, 1.4)
        box = cell_box(grid, center, 1.4)
        outside = np.ones(grid.shape, dtype=bool)
        outside[np.ix_(*box)] = False
        for t in (0.25, 0.4):  # inside the ramp, where no part vanishes
            for part in (cut.value, cut.time_derivative, cut.gradient, cut.laplacian):
                whole, on_box = part(grid, t), part(grid, t, box)
                assert on_box.tobytes() == whole[(..., *np.ix_(*box))].tobytes()
                assert np.all(whole[..., outside] == 0.0)
                assert np.any(on_box != 0.0)


class TestEnergyResidual:
    def test_zero_velocity_zero_residual(self):
        grid = Grid(n=8)
        zeros = np.zeros(grid.shape)
        u0 = VectorField.from_arrays(grid, zeros, zeros, zeros)
        result = run(u0, SolverConfig(dt=1e-2, t_end=0.06, snapshot_every=1))
        report = energy_budget(result)
        assert report.max_abs == 0.0

    def test_global_balance_taylor_green(self, tg_run_32):
        report = energy_budget(tg_run_32, constant_one())
        assert report.max_abs < 1e-6

    def test_global_balance_weighs_viscous_terms(self):
        # an unweighted dissipation would leave (1 - nu) of it as residual
        config = SolverConfig(viscosity=0.1, dt=1e-3, t_end=0.05, snapshot_every=5)
        report = energy_budget(run(taylor_green(Grid(n=16)), config), constant_one())
        assert report.max_abs <= 1e-9 * np.mean(report.dissipation)

    def test_gaussian_bump_residual(self, tg_run_32):
        bump = gaussian_bump((np.pi, np.pi, np.pi), width=0.5)
        report = energy_budget(tg_run_32, bump)
        assert report.max_abs < 1e-4

    def test_requires_enough_snapshots(self):
        grid = Grid(n=8)
        u0 = taylor_green(grid, amplitude=0.1)
        result = run(u0, SolverConfig(dt=1e-2, t_end=0.03, snapshot_every=1))
        with pytest.raises(ValueError, match="snapshots"):
            energy_budget(result, time_order=4)
        # 4 snapshots suffice at second order
        energy_budget(result, time_order=2)

    def test_second_order_refinement(self):
        # halving the snapshot spacing must shrink the defect ~4x
        grid = Grid(n=16)
        maxima = []
        for dt in (2e-3, 1e-3):
            result = run(
                taylor_green(grid), SolverConfig(dt=dt, t_end=0.08, snapshot_every=2)
            )
            maxima.append(energy_budget(result, time_order=2).max_abs)
        order = math.log2(maxima[0] / maxima[1])
        assert order > 1.5
