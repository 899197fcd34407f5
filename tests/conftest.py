"""Shared test helpers.

``reference_symbols`` is the tests' one builder of full-spectrum symbols,
straight from ``np.fft.fftfreq`` and independent of ``wlns.field``; the
numpy-FFT oracles in the test modules import it from here.
``numpy_spectral_gradient`` is the tests' one numpy derivative, and
``poisson_defect`` the pressure equation's residual built on it.
``masked_step`` is the solver's RK4 step on the whole half spectrum, the
oracle for the step on the kept block.  ``batched_product_modes`` is
the six quadratic products transformed as one stack, the oracle for the
solver's one-product-at-a-time transforms.  ``full_transform_step`` is the
solver's step with every component inverted through ``scipy.fft`` and every
product transformed, the oracle for the step that skips the transforms of a
bitwise-zero component; ``stream_flow`` is a nonlinear 2-D flow, whose
``u_z`` is such a component.  ``scalar_phi_increment``
and ``scalar_implicit_check`` are the scalar Gauss-Legendre rule and the
row-by-row identity check that ``wlns.gronwall``'s array kernel must match
bit for bit.  ``sample_scalar``,
``sample_vector``, ``hermitian_defect`` and ``gaussian_bump`` build test
fields, check spectra and localize energy balances.  ``constant_one`` is
the all-ones cutoff, whose balance ``energy_budget(result)`` must equal bit
for bit without forming it.  ``whole_grid_level_energy`` and
``whole_grid_balance_terms`` are ``wlns.degiorgi``'s level energies and
balance terms with every per-cell array on the whole grid, the oracles for
the ones formed on their cylinder's box.  ``run_python`` and
``imported_modules`` run a fresh interpreter on this checkout and read the
modules it imported.  The ``fail_replace`` fixture makes a chosen
``os.replace``, the call by which ``write_snapshot`` makes a snapshot
visible, raise a chosen exception before or after its rename.
"""

import math
import os
import subprocess
import sys
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
import pytest

from wlns.field import (
    TWO_PI, Grid, ScalarField, SpectralField, VectorField, _block, _forward, _min_image,
    ball_boundary_cells, ball_mask, gradient_squares,
)
from wlns.gronwall import _logaddexp1
from wlns.degiorgi import (
    CutoffFunction, LevelSetEnergy, _density, cylinder_radius, truncation_threshold,
    truncation_time, window_times,
)
from wlns.nse_solver import (
    _PAIR_INDEX, _PAIRS, _project, leray_project, nonlinear_term, pressure_from_velocity,
)


def reference_symbols(n: int, length: float):
    """Meshed full-layout symbols of an ``n^3`` box of edge ``length``.

    Returns ``((kx, ky, kz), k_squared)``: the first-derivative symbols with
    the unpaired Nyquist mode zeroed, so the derivative of a real field
    stays real, and the unzeroed ``|k|^2`` the viscous decay factors use.
    """
    k1 = 2.0 * np.pi / length * np.fft.fftfreq(n, d=1.0 / n)
    kx, ky, kz = np.meshgrid(k1, k1, k1, indexing="ij")
    k_squared = kx**2 + ky**2 + kz**2
    zeroed = k1.copy()
    zeroed[n // 2] = 0.0
    return tuple(np.meshgrid(zeroed, zeroed, zeroed, indexing="ij")), k_squared


def numpy_spectral_gradient(values: np.ndarray, length: float) -> list[np.ndarray]:
    """Derivatives straight from numpy's FFT, bypassing the field helpers.

    The unpaired highest mode of an even grid is dropped so that the
    derivative of a real field stays real.
    """
    symbols, _ = reference_symbols(values.shape[0], length)
    modes = np.fft.fftn(values)
    return [np.real(np.fft.ifftn(1j * k * modes)) for k in symbols]


def poisson_defect(u: VectorField, p: ScalarField) -> float:
    """``max|Lap p + div div (u (x) u)|`` over ``max(1, max|div div (u (x) u)|)``, from numpy."""

    def derivatives(values):
        return numpy_spectral_gradient(values, u.grid.length)

    def divergence(row):
        return sum(derivatives(c)[j] for j, c in enumerate(row))

    lhs = divergence(derivatives(p.values))
    rhs = sum(derivatives(divergence(ui * u.values))[i] for i, ui in enumerate(u.values))
    return float(np.max(np.abs(lhs + rhs))) / max(1.0, float(np.max(np.abs(rhs))))


def masked_step(grid, modes, config):
    """One RK4 step on the whole ``(3, n, n, n//2+1)`` half spectrum.

    The mask multiplies every stage's advection term and every mode is
    carried through the stages; the solver's step on the kept block must
    match it bit for bit.
    """
    dt = config.dt
    mask = grid.dealias_mask(config.dealias_fraction)
    k = (TWO_PI / grid.length) * grid.mode_numbers.astype(np.float64)
    kh = k[: grid.n // 2 + 1]
    k_squared = k[:, None, None] ** 2 + k[None, :, None] ** 2 + kh[None, None, :] ** 2
    decay_half = np.exp(-config.viscosity * k_squared * (dt / 2.0))
    decay_full = decay_half * decay_half

    def advect(m):
        return leray_project(grid, nonlinear_term(grid, m, mask))

    a1 = advect(modes)
    a2 = advect(decay_half * (modes - 0.5 * dt * a1))
    a3 = advect(decay_half * modes - 0.5 * dt * a2)
    a4 = advect(decay_full * modes - dt * decay_half * a3)
    new = decay_full * modes - (dt / 6.0) * (decay_full * a1 + 2.0 * decay_half * (a2 + a3) + a4)
    return leray_project(grid, new)


def batched_product_modes(u: np.ndarray, block, weight: np.ndarray | None = None) -> np.ndarray:
    """``block`` of the ``rfftn`` of all six ``u_i u_j`` (times ``weight``) stacked at once."""
    products = np.empty((len(_PAIRS), *u.shape[1:]))
    with np.errstate(over="ignore", invalid="ignore"):
        for idx, (i, j) in enumerate(_PAIRS):
            np.multiply(u[i], u[j], out=products[idx])
            if weight is not None:
                products[idx] *= weight
    return block.gather(_forward(products))


def full_transform_inverse(block, kept: np.ndarray) -> np.ndarray:
    """``scipy.fft.irfftn`` of the half spectrum holding ``kept``, every field transformed."""
    import scipy.fft

    n = block.n
    return scipy.fft.irfftn(block.scatter(kept), s=(n, n, n), axes=(-3, -2, -1), norm="forward")


def full_transform_step(grid, kept: np.ndarray, config) -> tuple[np.ndarray, np.ndarray]:
    """The solver's RK4 step on the kept block, no transform skipped.

    Each stage inverts all three components through ``scipy.fft`` and
    transforms all six products as one stack (``batched_product_modes``),
    zero or not.  Returns the new block and its physical values.
    """
    dt = config.dt
    block = _block(grid, config.dealias_fraction)
    decay_half, decay_full = block.decay(config.viscosity, dt)
    kx, ky, kz, _ = block.symbols

    def advect(b):
        products = batched_product_modes(full_transform_inverse(block, b), block)
        out = np.stack([kx * products[p] + ky * products[q] + kz * products[r]
                        for p, q, r in _PAIR_INDEX])
        out *= 1j
        return _project(out, *block.symbols)

    a1 = advect(kept)
    a2 = advect(decay_half * (kept - 0.5 * dt * a1))
    a3 = advect(decay_half * kept - 0.5 * dt * a2)
    a4 = advect(decay_full * kept - dt * decay_half * a3)
    new = decay_full * kept - (dt / 6.0) * (decay_full * a1 + 2.0 * decay_half * (a2 + a3) + a4)
    new = _project(new, *block.symbols)
    return new, full_transform_inverse(block, new)


def stream_flow(grid: Grid, seed: int, amplitude: float = 1.0) -> VectorField:
    """``(d psi/dy, -d psi/dx, 0)`` of a random stream function ``psi(x, y)``.

    ``psi`` sums cosines of the wavevectors ``(a, b)``, ``|a|, |b| <= 3``,
    with random amplitudes and phases, scaled to ``max|u| = amplitude``;
    ``u_z`` is bitwise ``+0``.
    """
    rng = np.random.default_rng(seed)
    x, y, _ = grid.coordinates
    k = TWO_PI / grid.length
    ux, uy = np.zeros(grid.shape), np.zeros(grid.shape)
    for a in range(-3, 4):
        for b in range(-3, 4):
            c, phase = rng.normal(), rng.uniform(0.0, TWO_PI)
            s = c * np.sin(k * (a * x + b * y) + phase)
            ux -= b * s
            uy += a * s
    scale = amplitude / np.sqrt(ux**2 + uy**2).max()
    return VectorField.from_arrays(grid, ux * scale, uy * scale, np.zeros(grid.shape))


def scalar_phi_increment(s_lo: float, s_hi: float) -> float:
    """``int_{s_lo}^{s_hi} ds / (e + logaddexp(1, s))``, one span at a time.

    Composite 12-point Gauss-Legendre on equal panels at most 2 long, each
    panel a plain ``sum`` over the nodes and the panels added by
    ``math.fsum``.
    """
    nodes, weights = (a.tolist() for a in np.polynomial.legendre.leggauss(12))

    def panel(a, b):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        return half * sum(
            w * (1.0 / (math.e + _logaddexp1(mid + half * x))) for x, w in zip(nodes, weights)
        )

    panels = math.ceil(abs(s_hi - s_lo) / 2.0)
    if panels <= 1:
        return panel(s_lo, s_hi)
    width = (s_hi - s_lo) / panels
    edges = [s_lo + k * width for k in range(panels)] + [s_hi]
    return math.fsum(panel(a, b) for a, b in zip(edges, edges[1:]))


def scalar_implicit_check(solution) -> np.ndarray:
    """``Phi(H(t)) - C int B`` accumulated row by row; NaN from the first non-finite H."""
    problem = solution.problem
    b_cum = problem.b_cumulative(solution.times)
    deviations = np.empty(solution.times.size)
    phi_acc = 0.0
    s_prev = math.log(problem.h0)
    for i, h in enumerate(solution.h):
        if not math.isfinite(h):
            deviations[i:] = math.nan
            break
        s = math.log(h)
        phi_acc += scalar_phi_increment(s_prev, s)
        s_prev = s
        deviations[i] = phi_acc - problem.c * b_cum[i]
    return deviations


def sample_scalar(grid: Grid, func: Callable) -> ScalarField:
    """Evaluate ``func(X, Y, Z)`` on the grid."""
    X, Y, Z = grid.coordinates
    return ScalarField(grid, np.asarray(func(X, Y, Z), dtype=np.float64))


def sample_vector(grid: Grid, func: Callable) -> VectorField:
    """Evaluate a closed form returning three components on the grid."""
    X, Y, Z = grid.coordinates
    u1, u2, u3 = (np.broadcast_to(np.asarray(c, dtype=np.float64), X.shape) for c in func(X, Y, Z))
    return VectorField.from_arrays(grid, u1, u2, u3)


def hermitian_defect(spec: SpectralField) -> float:
    """Max deviation of ``mode(-k) - conj(mode(k))`` where a half spectrum can have one.

    The last-axis planes 0 and n/2 are their own mirror images, so
    Hermitian symmetry is a constraint inside those two planes; the
    rest of the full spectrum is implied by the stored half.
    """
    planes = spec.modes[..., [0, -1]]
    axes = (-3, -2)
    mirrored = np.roll(np.flip(planes, axis=axes), 1, axis=axes)
    return float(np.abs(mirrored - np.conj(planes)).max())


def constant_one() -> CutoffFunction:
    return CutoffFunction(
        value=lambda grid, t: np.ones(grid.shape),
        time_derivative=lambda grid, t: np.zeros(grid.shape),
        gradient=lambda grid, t: np.zeros((3, *grid.shape)),
        laplacian=lambda grid, t: np.zeros(grid.shape),
    )


def gaussian_bump(center: Sequence[float], width: float) -> CutoffFunction:
    """Time-independent ``exp(-|x - c|^2 / (2 w^2))`` (min-image distance).

    Smooth on the torus up to a seam kink of size ``exp(-L^2/(8 w^2))``;
    widths around ``L/12`` keep that far below discretization error.
    """
    if width <= 0:
        raise ValueError("width must be positive")

    def displacement(grid):
        return np.stack(np.broadcast_arrays(*_min_image(grid, center)))

    def value(grid, t):
        d = displacement(grid)
        return np.exp(-np.sum(d**2, axis=0) / (2.0 * width**2))

    def gradient(grid, t):
        d = displacement(grid)
        return -d / width**2 * value(grid, t)

    def laplacian(grid, t):
        d = displacement(grid)
        rho2 = np.sum(d**2, axis=0)
        return np.exp(-rho2 / (2.0 * width**2)) * (rho2 / width**4 - 3.0 / width**2)

    return CutoffFunction(
        value=value,
        time_derivative=lambda grid, t: np.zeros(grid.shape),
        gradient=gradient,
        laplacian=laplacian,
    )


def whole_grid_level_energy(result, scheme, cmap) -> LevelSetEnergy:
    """``level_energy`` with both gradients and ``|u|`` on the whole grid, masked to the balls."""
    grid = result.grid
    cmap.validate(grid)
    s = cmap.scale
    tau = window_times(result.times, scheme, cmap)
    levels = np.array(scheme.levels)
    windows = [(tau > truncation_time(k)) & (tau <= 1.0 + 1e-12) for k in levels]
    # the balls shrink with k, so every one lies inside the k = 0 ball: a
    # snapshot keeps only its values there, and each level indexes within them
    radii = [cmap.sim_radius(cylinder_radius(k)) for k in levels]
    outer = ball_mask(grid, cmap.center, radii[0])
    inner = [ball_mask(grid, cmap.center, r)[outer] for r in radii]

    sups, diss_series = [0.0] * len(levels), [[] for _ in levels]
    for idx, u in enumerate(result.snapshots):
        if not windows[0][idx]:  # the k = 0 window holds every other one
            continue
        m = u.magnitude()
        magnitude = s * m.values[outer]
        grads = s**4 * gradient_squares(u)[outer], s**4 * gradient_squares(m)[outer]
        for k in levels:
            if not windows[k][idx]:
                continue
            v = np.maximum(magnitude - truncation_threshold(k), 0.0)
            sups[k] = max(
                sups[k], 0.5 * s ** (-3) * float(np.sum(v[inner[k]] ** 2)) * grid.cell_volume
            )
            density = grads[0] if k == 0 else _density(k, magnitude, v, *grads)
            diss_series[k].append(float(np.sum(density[inner[k]])) * grid.cell_volume)
    # density is already the reference one; the time integral runs in
    # tau, so only the volume element dxi = s^{-3} dx remains
    diss = [float(np.trapezoid(d, tau[w])) * s ** (-3) for d, w in zip(diss_series, windows)]
    surface = [ball_boundary_cells(grid, cmap.center, r) for r in radii]
    return LevelSetEnergy(
        k=levels,
        window_start=truncation_time(levels),
        radius=cylinder_radius(levels),
        threshold=truncation_threshold(levels),
        sup_term=np.array(sups),
        diss_term=np.array(diss),
        boundary_bracket=np.array(surface) * grid.cell_volume * s ** (-3),
    )


def whole_grid_balance_terms(result, cutoff: CutoffFunction | None) -> dict:
    """``energy_budget``'s per-snapshot integrals with every per-cell array on the whole grid.

    ``cutoff = None`` weighs by 1, whose derivatives vanish: ``transport`` and
    ``flux`` are then 0.0, and neither the cutoff nor the pressure is formed.
    """
    grid = result.grid
    vol = grid.cell_volume
    nu = result.config.viscosity
    n_t = len(result.times)
    quadratic = np.empty(n_t)  # int phi |u|^2 / 2
    dissipation = np.empty(n_t)  # nu int phi |grad u|^2
    transport = np.zeros(n_t)  # int (|u|^2/2)(phi_t + nu lap phi)
    flux = np.zeros(n_t)  # int (u . grad phi)(|u|^2/2 + P)
    for idx, (t, u) in enumerate(zip(result.times, result.snapshots)):
        phi = 1.0 if cutoff is None else cutoff.value(grid, t)
        u2_half = 0.5 * sum(c**2 for c in u.values)
        quadratic[idx] = np.sum(phi * u2_half) * vol
        dissipation[idx] = nu * np.sum(phi * gradient_squares(u)) * vol
        if cutoff is None:
            continue
        transport[idx] = (
            np.sum(u2_half * (cutoff.time_derivative(grid, t) + nu * cutoff.laplacian(grid, t)))
            * vol
        )
        grad_phi = cutoff.gradient(grid, t)
        advect = sum(c * grad_phi[i] for i, c in enumerate(u.values))
        pressure = pressure_from_velocity(u, result.config.dealias_fraction).values
        flux[idx] = np.sum(advect * (u2_half + pressure)) * vol
    return {
        "quadratic": quadratic,
        "dissipation": dissipation,
        "transport": transport,
        "flux": flux,
    }


SRC = Path(__file__).resolve().parents[1] / "src"


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


def imported_modules(proc):
    """Module names from the ``-X importtime`` lines of a finished run."""
    # each -X importtime line ends in "| <module name>"
    return [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]


@pytest.fixture
def fail_replace(monkeypatch):
    """``fail_replace(exc, nth, after=False)``: the ``nth`` ``os.replace`` raises ``exc``.

    It raises before the rename, or with ``after`` once the rename is done.
    """
    real = os.replace

    def arm(exc: BaseException, nth: int, after: bool = False) -> None:
        calls = []

        def replace(src, dst):
            calls.append(dst)
            if len(calls) == nth and not after:
                raise exc
            real(src, dst)
            if len(calls) == nth:
                raise exc

        monkeypatch.setattr(os, "replace", replace)

    return arm
