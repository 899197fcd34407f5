"""Pseudo-spectral incompressible flow on the periodic box.

Velocity lives in Fourier space as the real-FFT half spectrum of
:mod:`wlns.field`, a ``(3, n, n, n//2+1)`` complex array of modes; the
masks, derivative symbols and viscous factors come from that module's
kept blocks, built once per grid and dealias fraction.  Time stepping is classical RK4 on the
nonlinear term with the viscous semigroup handled exactly by an
integrating factor, so a pure heat mode decays with machine-precision
accuracy at any step size.
Quadratic products are formed in physical space and dealiased by the
2/3 rule.  Every mode the rule cuts is zero at every stage, so the state
and the RK4 stages hold only ``wlns.field``'s kept block of modes, and each
stage goes back to physical space through the block's pruned inverse transform.

The module also recovers the pressure by a spectral Poisson solve and
evaluates the localized energy-balance residual against a smooth
space-time cutoff; both feed the regularity diagnostics downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from wlns.criteria import CriterionTrace, TraceRow, evaluate_row
from wlns.field import (
    Grid,
    ScalarField,
    VectorField,
    _band_mask,
    _block,
    _forward,
    _min_image,
    gradient_squares,
)


class BlowUpError(RuntimeError):
    """Raised when the state leaves the resolvable regime.

    ``last_time`` is the last time with a valid state; ``result`` holds the
    partial trajectory collected so far (may be ``None`` for low-level
    calls that have no trajectory context).
    """

    def __init__(self, message: str, last_time: float, result=None):
        super().__init__(message)
        self.last_time = last_time
        self.result = result


@dataclass(frozen=True)
class SolverConfig:
    viscosity: float = 1.0
    dt: float = 1e-3
    t_end: float = 0.1
    dealias_fraction: float = 2.0 / 3.0
    snapshot_every: int = 1
    blowup_threshold: float = 1e8

    def __post_init__(self):
        if not (self.viscosity > 0 and np.isfinite(self.viscosity)):
            raise ValueError("viscosity must be positive")
        if not (0 < self.dt < math.inf and 0 < self.t_end < math.inf):
            raise ValueError("dt and t_end must be positive and finite")
        if self.snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        if not 0 < self.dealias_fraction <= 1:
            raise ValueError("dealias fraction must lie in (0, 1]")
        if not self.blowup_threshold > 0:  # NaN would never trip the max|u| halt
            raise ValueError("blowup_threshold must be positive")
        self.n_steps  # a bad step count fails here, before any run starts

    @cached_property
    def n_steps(self) -> int:
        ratio = self.t_end / self.dt
        steps = round(ratio) if ratio < math.inf else 0
        if steps < 1 or abs(steps * self.dt - self.t_end) > 1e-9 * max(1.0, self.t_end):
            raise ValueError("t_end must be a positive integer number of steps")
        return steps


# ---------------------------------------------------------------------------
# initial conditions


def taylor_green(grid: Grid, amplitude: float = 1.0) -> VectorField:
    """Planar vortex array embedded in the 3-D box.

    ``u = A (cos x sin y, -sin x cos y, 0)`` is an exact solution decaying
    as ``e^{-2 nu t}``; its self-advection is a pure gradient, so the
    projected nonlinearity vanishes identically.
    """
    x, y, _ = grid.coordinates
    return VectorField.from_arrays(
        grid,
        amplitude * np.cos(x) * np.sin(y),
        -amplitude * np.sin(x) * np.cos(y),
        np.zeros(grid.shape),
    )


def single_mode(
    grid: Grid,
    mode: Sequence[int] = (0, 0, 1),
    direction: Sequence[float] = (1.0, 0.0, 0.0),
    amplitude: float = 1.0,
) -> VectorField:
    """One transverse Fourier mode ``A d cos(k.x)`` with ``d`` unit, ``d.k = 0``.

    Because the advection term is proportional to ``d.k``, this is an exact
    Stokes eigenmode of the full nonlinear equations.
    """
    mode = np.asarray(mode, dtype=np.int64)
    direction = np.asarray(direction, dtype=np.float64)
    k = 2.0 * np.pi / grid.length * mode
    if abs(float(direction @ k)) > 1e-12 * (1.0 + np.linalg.norm(k)):
        raise ValueError("direction must be orthogonal to the wavevector")
    direction = direction / np.linalg.norm(direction)
    x, y, z = grid.coordinates
    phase = np.cos(k[0] * x + k[1] * y + k[2] * z)
    return VectorField.from_arrays(
        grid, *(amplitude * direction[i] * phase for i in range(3))
    )


def random_divfree(
    grid: Grid, seed: int, max_mode: int | None = None, amplitude: float = 1.0
) -> VectorField:
    """Band-limited solenoidal field with ``max|u| = amplitude``."""
    if max_mode is None:
        max_mode = grid.n // 4
    rng = np.random.default_rng(seed)
    modes = _forward(np.stack([rng.normal(size=grid.shape) for _ in range(3)]))
    modes *= _band_mask(grid.mode_numbers, max_mode, modes.shape[-1])
    modes = leray_project(grid, modes)
    u = to_physical(grid, modes)
    peak = u.max_abs()
    if peak == 0.0:
        raise ValueError("degenerate random field")
    return VectorField.from_arrays(
        grid, *(c.values * (amplitude / peak) for c in u.components)
    )


# ---------------------------------------------------------------------------
# spectral operators
#
# The public operators take half-spectrum modes and the symbols of
# ``_block(grid, 1.0)``, the block that is the whole half spectrum.

# the six distinct entries of the symmetric tensor u_i u_j, and where
# entry (i, j) sits in that stack
_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
_PAIR_INDEX = ((0, 1, 2), (1, 3, 4), (2, 4, 5))


def to_spectral(u: VectorField) -> np.ndarray:
    """Half-spectrum ``(3, n, n, n//2+1)`` modes of a velocity field."""
    return _forward(u.as_array())


def to_physical(grid: Grid, modes: np.ndarray) -> VectorField:
    return VectorField.from_arrays(grid, *_block(grid, 1.0).inverse(modes))


def leray_project(grid: Grid, modes: np.ndarray) -> np.ndarray:
    """Mode-wise ``(I - k k^T / |k|^2)`` on half-spectrum modes; the mean mode passes through."""
    return _project(modes, *_block(grid, 1.0).symbols)


def _project(modes: np.ndarray, kx, ky, kz, k2) -> np.ndarray:
    """:func:`leray_project` on the modes of a block, given that block's ``symbols``."""
    compression = (kx * modes[0] + ky * modes[1] + kz * modes[2]) / k2
    out = modes.copy()
    out[0] -= kx * compression
    out[1] -= ky * compression
    out[2] -= kz * compression
    return out


def spectral_divergence_defect(grid: Grid, modes: np.ndarray) -> float:
    """``max_k |k . u(k)|`` relative to ``max_k |u(k)|``."""
    kx, ky, kz, _ = _block(grid, 1.0).symbols
    div = np.abs(kx * modes[0] + ky * modes[1] + kz * modes[2])
    peak = np.abs(modes).max()
    if peak == 0.0:
        return 0.0
    return float(div.max() / peak)


def _product_modes(u: np.ndarray, block, weight: np.ndarray | None = None) -> np.ndarray:
    """The ``block`` of the half-spectrum transforms of the six distinct ``u_i u_j``, stacked.

    ``u`` is the stacked ``(3, n, n, n)`` velocity; an optional pointwise
    ``weight`` multiplies every product before its transform.  Each product
    is formed in one reused buffer and transformed alone, so only one
    product and its transform are live at a time.
    """
    out = np.empty((len(_PAIRS), *block.shape), dtype=np.complex128)
    product = np.empty(u.shape[1:])
    with np.errstate(over="ignore", invalid="ignore"):
        for idx, (i, j) in enumerate(_PAIRS):
            np.multiply(u[i], u[j], out=product)
            if weight is not None:
                product *= weight
            block.forward(product, out[idx])
    return out


def _advection(u: np.ndarray, block, factor) -> np.ndarray:
    """``factor * k_j (u_i u_j)^`` on ``block`` of the stacked physical velocity ``u``."""
    products = _product_modes(u, block)
    # a non-finite product leaves every mode of its transform non-finite:
    # one scan of the block covers all six
    if not np.isfinite(products).all():
        raise BlowUpError("overflow in physical-space product", last_time=math.nan)
    kx, ky, kz, _ = block.symbols
    out = np.empty((3, *products.shape[1:]), dtype=np.complex128)
    for i, (a, b, c) in enumerate(_PAIR_INDEX):
        out[i] = kx * products[a] + ky * products[b] + kz * products[c]
    out *= factor
    return out


def nonlinear_term(grid: Grid, modes: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Divergence-form advection ``(div(u (x) u))^`` with 2/3 dealiasing.

    The product is formed in physical space; output modes outside the
    retained band are zeroed.  Not projected -- callers compose with
    ``leray_project`` as the scheme requires.  ``modes`` is a half
    spectrum; ``mask`` may be half or full (``Grid.dealias_mask``).
    """
    half = _block(grid, 1.0)
    return _advection(half.inverse(modes), half, 1j * mask[..., : half.width])


def pressure_from_velocity(
    u: VectorField, dealias_fraction: float = 2.0 / 3.0, weight: np.ndarray | None = None
) -> ScalarField:
    """Mean-zero spectral solve of ``-Lap P = div div (u (x) u)``.

    ``P^(k) = -(k_i k_j / |k|^2) (u_i u_j)^(k)``, solved on the modes the
    dealias mask keeps; an optional pointwise ``weight`` multiplies the
    tensor before the solve (used for the high/low pressure split).
    """
    block = _block(u.grid, dealias_fraction)
    products = _product_modes(u.as_array(), block, weight)
    *k, k2 = block.symbols
    phat = np.zeros(block.shape, dtype=np.complex128)
    for idx, (i, j) in enumerate(_PAIRS):
        # an off-diagonal entry stands for both (i, j) and (j, i)
        phat -= (k[i] * k[j] * (1.0 if i == j else 2.0)) * products[idx]
    phat /= k2
    phat[0, 0, 0] = 0.0
    return ScalarField(u.grid, block.inverse(phat))


def pressure_split(
    u: VectorField, dealias_fraction: float = 2.0 / 3.0
) -> tuple[ScalarField, ScalarField]:
    """Pressure from the ``|u| >= 1`` part of the tensor, and the rest."""
    high = (u.magnitude().values >= 1.0).astype(np.float64)
    p1 = pressure_from_velocity(u, dealias_fraction, weight=high)
    p2 = pressure_from_velocity(u, dealias_fraction, weight=1.0 - high)
    return p1, p2


# ---------------------------------------------------------------------------
# time stepping


@dataclass(frozen=True)
class SolverState:
    grid: Grid
    time: float
    step_index: int
    kept: np.ndarray  # (3, 2K+1, 2K+1, K+1) complex block of the modes the dealias rule keeps
    dealias_fraction: float

    @classmethod
    def from_velocity(cls, u: VectorField, config: SolverConfig) -> "SolverState":
        block = _block(u.grid, config.dealias_fraction)
        kept = _project(block.gather(to_spectral(u)), *block.symbols)
        return cls(u.grid, 0.0, 0, kept, config.dealias_fraction)

    @property
    def modes(self) -> np.ndarray:
        """The ``(3, n, n, n//2+1)`` half spectrum, zero outside ``kept``, built on each read."""
        return _block(self.grid, self.dealias_fraction).scatter(self.kept)

    @cached_property
    def physical(self) -> np.ndarray:
        """Stacked ``(3, n, n, n)`` velocity values, inverted once per state.

        ``run`` reads them for CFL, blow-up and snapshots, and the next
        :func:`step` starts from them.
        """
        return _block(self.grid, self.dealias_fraction).inverse(self.kept)

    def velocity(self) -> VectorField:
        return VectorField.from_arrays(self.grid, *self.physical)


def step(state: SolverState, config: SolverConfig) -> SolverState:
    """One RK4 step with the viscous factor applied exactly per substage.

    The stages run on ``state.kept``, the block of the dealias fraction the
    state and ``config`` must share.  Stage 1 starts from ``state.physical``;
    the new state's ``physical`` is seeded from the block, so a step costs 36 transforms.
    """
    if state.dealias_fraction != config.dealias_fraction:
        raise ValueError("the state and the config keep different dealias fractions")
    dt = config.dt
    block = _block(state.grid, config.dealias_fraction)
    decay_half, decay_full = block.decay(config.viscosity, dt)

    # minus the right-hand side; the sign is carried by the RK4 weights,
    # which flips no bit of the result
    def advect(u):
        return _project(_advection(u, block, 1j), *block.symbols)

    u0 = state.kept
    a1 = advect(state.physical)
    a2 = advect(block.inverse(decay_half * (u0 - 0.5 * dt * a1)))
    a3 = advect(block.inverse(decay_half * u0 - 0.5 * dt * a2))
    a4 = advect(block.inverse(decay_full * u0 - dt * decay_half * a3))
    new = decay_full * u0 - (dt / 6.0) * (decay_full * a1 + 2.0 * decay_half * (a2 + a3) + a4)
    new = _project(new, *block.symbols)
    if not np.all(np.isfinite(new)):
        raise BlowUpError("non-finite modes after step", last_time=state.time)
    following = replace(
        state,
        time=(state.step_index + 1) * dt,
        step_index=state.step_index + 1,
        kept=new,
    )
    # the value the cached property would compute, bit for bit
    vars(following)["physical"] = block.inverse(new)
    return following


@dataclass
class SimulationResult:
    grid: Grid
    config: SolverConfig
    times: np.ndarray  # snapshot times
    snapshots: list[VectorField]
    cfl: np.ndarray  # dt * max|u| / spacing, one entry per completed step
    trace: CriterionTrace | None


def run(
    u0: VectorField,
    config: SolverConfig,
    q: float | None = None,
    callback: Callable[[SolverState], None] | None = None,
    sink: Callable[[float, VectorField], None] | None = None,
) -> SimulationResult:
    """March from ``t = 0`` to ``t_end``, recording snapshots and diagnostics.

    A criterion trace is collected at the snapshot cadence when ``q`` is
    given.  With a ``sink``, ``sink(t, u)`` receives each snapshot as it is
    recorded and ``result.snapshots`` stays empty, so memory does not grow
    with the trajectory.  Blow-up (non-finite modes or ``max|u|`` past the
    threshold) raises :class:`BlowUpError` carrying the partial result; a
    ``KeyboardInterrupt`` or ``MemoryError`` gets it as its ``result``
    attribute.
    """
    grid = u0.grid
    state = SolverState.from_velocity(u0, config)
    del u0  # the state is all a run needs; a caller that kept no reference frees the field
    times: list[float] = []
    snapshots: list[VectorField] = []
    rows: list[TraceRow] = []
    cfl: list[float] = []

    def record(state: SolverState, u: VectorField | None = None):
        u = state.velocity() if u is None else u
        times.append(state.time)
        if sink is None:
            snapshots.append(u)
        else:
            sink(state.time, u)
        if q is not None:
            rows.append(evaluate_row(u, q, t=state.time))

    def partial() -> SimulationResult:
        trace = CriterionTrace.from_rows(q, rows) if q is not None and rows else None
        return SimulationResult(
            grid=grid,
            config=config,
            times=np.array(times),
            snapshots=snapshots,
            cfl=np.array(cfl),
            trace=trace,
        )

    try:
        record(state)
        n_steps = config.n_steps
        for i in range(n_steps):
            try:
                state = step(state, config)
            except BlowUpError as exc:
                raise BlowUpError(str(exc), last_time=i * config.dt, result=partial()) from None
            # the one inverse transform of this state: the next step starts from it
            u = state.velocity()
            peak = u.max_abs()
            cfl.append(config.dt * peak / grid.spacing)
            if not math.isfinite(peak) or peak > config.blowup_threshold:
                raise BlowUpError(
                    f"max|u| = {peak:.3e} exceeded threshold at t = {state.time:.6g}",
                    last_time=(state.step_index - 1) * config.dt,
                    result=partial(),
                )
            if state.step_index % config.snapshot_every == 0 or state.step_index == n_steps:
                record(state, u)
            if callback is not None:
                callback(state)
    except (KeyboardInterrupt, MemoryError) as exc:
        exc.result = partial()
        raise
    return partial()


def kinetic_energy(u: VectorField) -> float:
    """``(1/2) integral |u|^2 dx`` by the exact periodic trapezoid rule."""
    total = sum(float(np.sum(c.values**2)) for c in u.components)
    return 0.5 * total * u.grid.cell_volume


# ---------------------------------------------------------------------------
# space-time cutoffs and the localized energy balance


@dataclass(frozen=True)
class CutoffFunction:
    """Closed-form C^2 space-time weight with its derivatives.

    Each callable maps ``(grid, t)`` to an array on the grid: ``value``,
    ``time_derivative``, ``laplacian`` scalar-shaped, ``gradient`` shaped
    ``(3, n, n, n)``.
    """

    value: Callable[[Grid, float], np.ndarray]
    time_derivative: Callable[[Grid, float], np.ndarray]
    gradient: Callable[[Grid, float], np.ndarray]
    laplacian: Callable[[Grid, float], np.ndarray]


def constant_one() -> CutoffFunction:
    return CutoffFunction(
        value=lambda grid, t: np.ones(grid.shape),
        time_derivative=lambda grid, t: np.zeros(grid.shape),
        gradient=lambda grid, t: np.zeros((3, *grid.shape)),
        laplacian=lambda grid, t: np.zeros(grid.shape),
    )


def smoothstep_down(s: np.ndarray) -> np.ndarray:
    """Quintic ramp: 1 for s <= 0, 0 for s >= 1, C^2 across the joins."""
    s = np.clip(s, 0.0, 1.0)
    return 1.0 - s**3 * (10.0 - 15.0 * s + 6.0 * s**2)


def smoothstep_down_d1(s: np.ndarray) -> np.ndarray:
    inside = (s > 0.0) & (s < 1.0)
    s = np.clip(s, 0.0, 1.0)
    return np.where(inside, -30.0 * s**2 * (1.0 - s) ** 2, 0.0)


def smoothstep_down_d2(s: np.ndarray) -> np.ndarray:
    inside = (s > 0.0) & (s < 1.0)
    s = np.clip(s, 0.0, 1.0)
    return np.where(inside, -60.0 * s * (1.0 - s) * (1.0 - 2.0 * s), 0.0)


def cylinder_cutoff(
    center: Sequence[float],
    r_inner: float,
    r_outer: float,
    t_zero: float,
    t_one: float,
) -> CutoffFunction:
    """Radial plateau falling to zero between ``r_inner`` and ``r_outer``,
    times a temporal ramp that is 0 for ``t <= t_zero`` and 1 for
    ``t >= t_one``.  All derivatives are closed-form."""
    if not 0 < r_inner < r_outer:
        raise ValueError("need 0 < r_inner < r_outer")
    if not t_zero < t_one:
        raise ValueError("need t_zero < t_one")
    dr = r_outer - r_inner
    dt_ramp = t_one - t_zero
    radial_cache: dict[Grid, tuple] = {}

    def radial_parts(grid):
        """Time-independent radial factors, built once per grid."""
        if grid not in radial_cache:
            dx, dy, dz = _min_image(grid, center)
            rho = np.sqrt(dx**2 + dy**2 + dz**2)
            d = np.stack(np.broadcast_arrays(dx, dy, dz))
            s = (rho - r_inner) / dr
            R = smoothstep_down(s)
            R1 = smoothstep_down_d1(s) / dr
            R2 = smoothstep_down_d2(s) / dr**2
            safe = np.where(rho > 0.0, rho, 1.0)
            # radial laplacian R'' + 2 R'/rho; R' vanishes on the plateau so
            # the rho -> 0 limit is clean
            lap = R2 + 2.0 * R1 / safe
            radial_cache[grid] = d, safe, R, R1, lap
        return radial_cache[grid]

    def time_factor(t: float) -> float:
        return float(1.0 - smoothstep_down(np.asarray((t - t_zero) / dt_ramp)))

    def time_factor_d1(t: float) -> float:
        return float(-smoothstep_down_d1(np.asarray((t - t_zero) / dt_ramp)) / dt_ramp)

    def value(grid, t):
        _, _, R, _, _ = radial_parts(grid)
        return R * time_factor(t)

    def time_derivative(grid, t):
        _, _, R, _, _ = radial_parts(grid)
        return R * time_factor_d1(t)

    def gradient(grid, t):
        d, safe, _, R1, _ = radial_parts(grid)
        return time_factor(t) * R1 * d / safe

    def laplacian(grid, t):
        _, _, _, _, lap = radial_parts(grid)
        return time_factor(t) * lap

    return CutoffFunction(
        value=value,
        time_derivative=time_derivative,
        gradient=gradient,
        laplacian=laplacian,
    )


@dataclass(frozen=True)
class EnergyResidualReport:
    times: np.ndarray
    residual: np.ndarray
    max_abs: float
    terms: dict  # per-snapshot integral series keyed by name


def _balance_terms(result: SimulationResult, cutoff: CutoffFunction) -> dict:
    """Per-snapshot integrals of the localized energy balance against ``cutoff``."""
    grid = result.grid
    vol = grid.cell_volume
    nu = result.config.viscosity
    n_t = len(result.times)
    quadratic = np.empty(n_t)  # int phi |u|^2 / 2
    dissipation = np.empty(n_t)  # nu int phi |grad u|^2
    transport = np.empty(n_t)  # int (|u|^2/2)(phi_t + nu lap phi)
    flux = np.empty(n_t)  # int (u . grad phi)(|u|^2/2 + P)
    for idx, (t, u) in enumerate(zip(result.times, result.snapshots)):
        phi = cutoff.value(grid, t)
        u2_half = 0.5 * sum(c.values**2 for c in u.components)
        quadratic[idx] = np.sum(phi * u2_half) * vol
        dissipation[idx] = nu * np.sum(phi * gradient_squares(u)) * vol
        transport[idx] = (
            np.sum(u2_half * (cutoff.time_derivative(grid, t) + nu * cutoff.laplacian(grid, t)))
            * vol
        )
        grad_phi = cutoff.gradient(grid, t)
        advect = sum(c.values * grad_phi[i] for i, c in enumerate(u.components))
        pressure = pressure_from_velocity(u, result.config.dealias_fraction).values
        flux[idx] = np.sum(advect * (u2_half + pressure)) * vol
    return {
        "quadratic": quadratic,
        "dissipation": dissipation,
        "transport": transport,
        "flux": flux,
    }


def _snapshot_step(times: np.ndarray) -> float:
    """The common spacing of ``times``, which the centred differences need."""
    spacing = np.diff(times)
    h = float(spacing[0])
    if not np.allclose(spacing, h, rtol=1e-9, atol=1e-12):
        raise ValueError("energy residual requires uniformly spaced snapshots")
    return h


def _rate_residual(
    times: np.ndarray, h: float, terms: dict, time_order: int
) -> tuple[np.ndarray, np.ndarray]:
    """Balance defect ``d/dt quadratic + dissipation - transport - flux``.

    The derivative is the centred difference of ``time_order`` (2 or 4) with
    step ``h``, so the result lives on the interior snapshots, whose times
    are returned with it.
    """
    q = terms["quadratic"]
    if time_order == 2:
        lo, hi = 1, len(times) - 1
        ddt = (q[2:] - q[:-2]) / (2.0 * h)
    else:
        lo, hi = 2, len(times) - 2
        ddt = (-q[4:] + 8.0 * q[3:-1] - 8.0 * q[1:-3] + q[:-4]) / (12.0 * h)
    residual = (
        ddt + terms["dissipation"][lo:hi] - terms["transport"][lo:hi] - terms["flux"][lo:hi]
    )
    return times[lo:hi], residual


def energy_residual(
    result: SimulationResult,
    cutoff: CutoffFunction | None = None,
    time_order: int = 4,
) -> EnergyResidualReport:
    """Defect of the localized energy balance along a stored trajectory.

    For each interior snapshot time it evaluates ``d/dt int phi |u|^2/2
    + nu int phi |grad u|^2 - int (|u|^2/2)(phi_t + nu Lap phi) - int (u .
    grad phi)(|u|^2/2 + P)``; the time derivative uses centered differences
    of the stated order, so the report shrinks under refinement for smooth
    runs.  The pressure is dealiased as the run was.
    """
    if cutoff is None:
        cutoff = constant_one()
    times = result.times
    needed = 5 if time_order == 4 else 3
    if time_order not in (2, 4):
        raise ValueError("time_order must be 2 or 4")
    if len(times) < needed:
        raise ValueError(f"need at least {needed} snapshots for order {time_order}")
    h = _snapshot_step(times)
    terms = _balance_terms(result, cutoff)
    interior, residual = _rate_residual(times, h, terms, time_order)
    return EnergyResidualReport(
        times=interior,
        residual=residual,
        max_abs=float(np.max(np.abs(residual))) if len(residual) else 0.0,
        terms=terms,
    )
