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

The module also recovers the pressure by a spectral Poisson solve, which
the localized energy balance of :mod:`wlns.degiorgi` reads.
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
)


class BlowUpError(RuntimeError):
    """Raised when the state leaves the resolvable regime.

    ``last_time`` is the last time with a valid state (NaN if none); ``result``
    holds the partial trajectory when :func:`run` raised it, and ``None`` otherwise.
    """

    def __init__(self, message: str, last_time: float):
        super().__init__(message)
        self.last_time = last_time
        self.result = None


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
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(direction)
    if not 0.0 < norm < math.inf:  # zero, non-finite, or out of float range once squared
        raise ValueError(f"direction's squared norm must be a positive finite float, got {norm}")
    k = 2.0 * np.pi / grid.length * mode
    if abs(float(direction @ k)) > 1e-12 * (1.0 + np.linalg.norm(k)):
        raise ValueError("direction must be orthogonal to the wavevector")
    direction = direction / norm
    x, y, z = grid.coordinates
    phase = np.cos(k[0] * x + k[1] * y + k[2] * z)
    return VectorField(grid, amplitude * direction[:, None, None, None] * phase)


def random_divfree(
    grid: Grid, seed: int, max_mode: int | None = None, amplitude: float = 1.0
) -> VectorField:
    """Band-limited solenoidal field with ``max|u| = amplitude``."""
    if max_mode is None:
        max_mode = grid.n // 4
    rng = np.random.default_rng(seed)
    modes = _forward(np.stack([rng.normal(size=grid.shape) for _ in range(3)]))
    modes *= _band_mask(grid.mode_numbers, max_mode, modes.shape[-1])
    u = VectorField(grid, _block(grid, 1.0).inverse(leray_project(grid, modes)))
    peak = u.max_abs()
    if peak == 0.0:
        raise ValueError("degenerate random field")
    return VectorField(grid, u.values * (amplitude / peak))


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
    return _forward(u.values)


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

    ``u`` is the ``(3, n, n, n)`` velocity values; an
    optional pointwise ``weight`` multiplies every product before its transform.  Each product
    is formed in one reused buffer and transformed alone, so only one
    product and its transform are live at a time; one with no nonzero value,
    such as one with the ``u_z`` of a 2-D flow, costs no transform (``_Block``).
    """
    out = np.empty((len(_PAIRS), *block.shape), dtype=np.complex128)
    product = np.empty(u[0].shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for idx, (i, j) in enumerate(_PAIRS):
            np.multiply(u[i], u[j], out=product)
            if weight is not None:
                product *= weight
            block.forward(product, out[idx])
    return out


def _advection(u: np.ndarray, block, factor, last_time: float = math.nan) -> np.ndarray:
    """``factor * k_j (u_i u_j)^`` on ``block`` of ``u``; an overflow halts at ``last_time``."""
    products = _product_modes(u, block)
    # a non-finite product leaves every mode of its transform non-finite:
    # one scan of the block covers all six
    if not np.isfinite(products).all():
        raise BlowUpError("overflow in physical-space product", last_time=last_time)
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
    u: VectorField, dealias_fraction: float = 2.0 / 3.0, weight: np.ndarray | None = None,
    box: tuple | None = None,
) -> ScalarField | np.ndarray:
    """Mean-zero spectral solve of ``-Lap P = div div (u (x) u)``.

    ``P^(k) = -(k_i k_j / |k|^2) (u_i u_j)^(k)``, solved on the modes the
    dealias mask keeps; a pointwise ``weight`` multiplies the tensor before the
    solve (the high/low split), and a ``box`` (``wlns.field.cell_box``) gives an array.
    """
    block = _block(u.grid, dealias_fraction)
    products = _product_modes(u.values, block, weight)
    *k, k2 = block.symbols
    phat = np.zeros(block.shape, dtype=np.complex128)
    for idx, (i, j) in enumerate(_PAIRS):
        # an off-diagonal entry stands for both (i, j) and (j, i)
        phat -= (k[i] * k[j] * (1.0 if i == j else 2.0)) * products[idx]
    phat /= k2
    phat[0, 0, 0] = 0.0
    values = block.inverse(phat, box)
    return values if box is not None else ScalarField(u.grid, values)


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
        # values or wavenumbers past the float range give non-finite modes; run halts on them
        with np.errstate(over="ignore", invalid="ignore"):
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
        """The velocity whose values are ``physical`` itself, not a copy."""
        return VectorField(self.grid, self.physical)


def step(state: SolverState, config: SolverConfig) -> SolverState:
    """One RK4 step with the viscous factor applied exactly per substage.

    The stages run on ``state.kept``, the block of the dealias fraction the
    state and ``config`` must share.  Stage 1 starts from ``state.physical``;
    the new state's ``physical`` is seeded from the block, so a step costs 36
    transforms, less those of a bitwise-zero velocity component: 20 when one is.
    """
    if state.dealias_fraction != config.dealias_fraction:
        raise ValueError("the state and the config keep different dealias fractions")
    dt = config.dt
    block = _block(state.grid, config.dealias_fraction)
    decay_half, decay_full = block.decay(config.viscosity, dt)

    # minus the right-hand side; the sign is carried by the RK4 weights,
    # which flips no bit of the result
    def advect(u):
        return _project(_advection(u, block, 1j, state.time), *block.symbols)

    # the weighted sum of the stages is a running total, built in the order
    # of ``decay_full*a1 + 2*decay_half*(a2 + a3) + a4`` so it keeps its bits;
    # with each stage's values dropped once advected, at most two stage
    # blocks besides the total and one stage's values are live
    u0 = state.kept
    a1 = advect(state.physical)
    stage = block.inverse(decay_half * (u0 - 0.5 * dt * a1))
    total = decay_full * a1
    del a1
    a2 = advect(stage)
    del stage
    a3 = advect(block.inverse(decay_half * u0 - 0.5 * dt * a2))
    stage = block.inverse(decay_full * u0 - dt * decay_half * a3)
    total += 2.0 * decay_half * (a2 + a3)
    del a2, a3
    total += advect(stage)
    del stage
    new = _project(decay_full * u0 - (dt / 6.0) * total, *block.symbols)
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
    with the trajectory.  Blow-up (a non-finite initial state, non-finite
    modes or ``max|u|`` past the threshold) raises :class:`BlowUpError`; it,
    a ``KeyboardInterrupt``, a ``MemoryError`` and an ``OSError`` (a failed
    write in ``sink``) leave with the partial result as their ``result`` attribute.
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
        # a non-finite initial state halts here, as a later one does in step or at max|u|
        if not (np.isfinite(state.kept).all() and np.isfinite(state.physical).all()):
            raise BlowUpError("non-finite initial state", last_time=math.nan)
        record(state)
        n_steps = config.n_steps
        for _ in range(n_steps):
            state = step(state, config)
            # the one inverse transform of this state: the next step starts from it
            u = state.velocity()
            peak = u.max_abs()
            cfl.append(config.dt * peak / grid.spacing)
            if not math.isfinite(peak) or peak > config.blowup_threshold:
                raise BlowUpError(
                    f"max|u| = {peak:.3e} exceeded threshold at t = {state.time:.6g}",
                    last_time=(state.step_index - 1) * config.dt,
                )
            if state.step_index % config.snapshot_every == 0 or state.step_index == n_steps:
                record(state, u)
            if callback is not None:
                callback(state)
    except (BlowUpError, KeyboardInterrupt, MemoryError, OSError) as exc:
        exc.result = partial()
        raise
    return partial()


def kinetic_energy(u: VectorField) -> float:
    """``(1/2) integral |u|^2 dx`` by the exact periodic trapezoid rule."""
    total = sum(float(np.sum(v**2)) for v in u.values)
    return 0.5 * total * u.grid.cell_volume
