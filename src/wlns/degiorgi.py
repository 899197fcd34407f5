"""Level-set truncation energies on shrinking parabolic cylinders.

The scheme truncates ``|u|`` at thresholds climbing to 1 while the
space-time cylinders shrink from ``(-1, 1] x B(1)`` to ``(-1/2, 1] x
B(1/2)``; the combined energies ``U_k`` obey a superlinear recursion
that forces them to zero when the starting energy is small.  This module
computes the ``U_k`` table for a stored trajectory (mapped into the box by
the parabolic scaling), the recursion itself with its empirical
convergence threshold, and the local energy balance the scheme runs on:
the space-time cutoffs and the balance's terms, slack and rate residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from wlns.criteria import _cumulative_trapezoid
from wlns.field import (
    Grid,
    Trajectory,
    _cells,
    _min_image,
    ball_boundary_cells,
    ball_mask,
    cell_box,
    gradient_squares,
    write_table,
)
from wlns.nse_solver import SimulationResult, pressure_from_velocity


def truncation_time(k: int) -> float:
    """Window start ``T_k = -(1/2)(1 + 2^{-k})``; ``T_{-1} = -3/2``."""
    return -0.5 * (1.0 + 2.0 ** (-k))


def cylinder_radius(k: int) -> float:
    """Ball radius ``(1/2)(1 + 2^{-3k})``; ``B_{-1}`` has radius 4.5."""
    return 0.5 * (1.0 + 2.0 ** (-3 * k))


def truncation_threshold(k: int) -> float:
    """Level ``1 - 2^{-k}`` climbing from 0 to 1."""
    return 1.0 - 2.0 ** (-k)


@dataclass(frozen=True)
class CylinderScheme:
    """The ``k = 0 .. k_max`` family of nested space-time cylinders."""

    k_max: int

    def __post_init__(self):
        if self.k_max < 0:
            raise ValueError("k_max must be nonnegative")

    @property
    def levels(self) -> range:
        return range(self.k_max + 1)


@dataclass(frozen=True)
class CylinderMap:
    """Embedding of the reference cylinders into a simulation box.

    Reference coordinates ``(tau, xi)`` map to ``t = t_end + scale^2 *
    (tau - 1)`` and ``x = center + scale * xi``, the parabolic scaling
    that carries solutions to solutions.  The balls wrap around the
    periodic box, as the budget's cutoff does, so any finite center works;
    the map refuses geometry that does not fit in the box: the outermost
    ball ``B(-1)`` has reference radius 4.5 and a diameter beyond the box
    length would make it overlap itself.
    """

    center: tuple[float, float, float]
    scale: float
    t_end: float

    def __post_init__(self):
        if not (self.scale > 0 and np.isfinite(self.scale)):
            raise ValueError("scale must be positive")
        if not np.all(np.isfinite(self.center)):
            raise ValueError(f"center must be finite, got {self.center}")

    def sim_time(self, tau: float) -> float:
        return self.t_end + self.scale**2 * (tau - 1.0)

    def reference_time(self, t: float) -> float:
        return 1.0 + (t - self.t_end) / self.scale**2

    def sim_radius(self, reference_radius: float) -> float:
        return self.scale * reference_radius

    def validate(self, grid: Grid) -> None:
        diameter = 2.0 * self.sim_radius(cylinder_radius(-1))
        if diameter > grid.length + 1e-12:
            raise ValueError(
                f"mapped B(-1) has diameter {diameter:.4g} exceeding the "
                f"box length {grid.length:.4g}; shrink the scale"
            )


def _density(k: int, m, v, grad2, mag_grad2) -> np.ndarray:
    """``d_k^2`` for ``k >= 1`` from ``|u|``, ``v_k``, ``|grad u|^2``, ``|grad|u||^2``.

    ``d_k^2 = (v_k/|u|) |grad u|^2 + chi_{v_k>0} (theta_k/|u|) |grad|u||^2``,
    zero wherever ``v_k = 0``; ``v_0/|u| -> 1`` at ``|u| -> 0`` makes
    ``d_0^2 = |grad u|^2`` everywhere, which callers use directly.
    """
    active = v > 0.0
    safe_m = np.where(active, m, 1.0)  # on the active set m >= theta_k > 0
    return np.where(
        active, (v * grad2 + truncation_threshold(k) * mag_grad2) / safe_m, 0.0
    )


@dataclass(frozen=True)
class LevelSetEnergy:
    """Per-level energy table with geometric error brackets."""

    k: np.ndarray
    window_start: np.ndarray  # T_k
    radius: np.ndarray
    threshold: np.ndarray
    sup_term: np.ndarray
    diss_term: np.ndarray
    boundary_bracket: np.ndarray  # +- volume of sphere-straddling cells (ref units)

    @property
    def total(self) -> np.ndarray:
        return self.sup_term + self.diss_term

    def to_csv(self, path) -> None:
        columns = {
            "k": self.k,
            "T_k": self.window_start,
            "radius_k": self.radius,
            "threshold_k": self.threshold,
            "sup_term": self.sup_term,
            "diss_term": self.diss_term,
            "U_k": self.total,
        }
        write_table(path, columns, index="k")


MIN_WINDOW_SAMPLES = 10


def window_times(times, scheme: CylinderScheme, cmap: CylinderMap) -> np.ndarray:
    """Reference times of the snapshots; raises ``ValueError`` unless they reach
    the mapped cylinder's end with ``MIN_WINDOW_SAMPLES`` in every window and
    never decrease (repeated times are allowed)."""
    tau = np.array([cmap.reference_time(t) for t in times])
    if tau.max() < 1.0 - 1e-9:
        raise ValueError("trajectory ends before the mapped cylinder does")
    for k in scheme.levels:
        t_k = truncation_time(k)
        count = int(np.count_nonzero((tau > t_k) & (tau <= 1.0 + 1e-12)))
        if count < MIN_WINDOW_SAMPLES:
            raise ValueError(
                f"window (T_{k}, 1] holds {count} snapshots; need >= {MIN_WINDOW_SAMPLES} "
                f"(reference cadence <= {(1.0 - t_k) / (MIN_WINDOW_SAMPLES - 1):.3g})"
            )
    if np.any(np.diff(tau) < 0.0):
        raise ValueError("snapshot times decrease")
    return tau


def level_energy(
    result: SimulationResult | Trajectory,
    scheme: CylinderScheme,
    cmap: CylinderMap,
) -> LevelSetEnergy:
    """The ``U_k = sup + dissipation`` table for a stored trajectory.

    All fields stay in simulation coordinates; the parabolic map
    contributes Jacobian factors instead of resampling.  With ``s`` the
    spatial scale, the reference field is ``s u``, reference gradients
    carry ``s^2``, volumes carry ``s^{-3}`` and the time element
    ``s^{-2}``, so::

        sup_term  = (1/2) s^{-3} max_t  int_{B(c, s r_k)} (s|u| - theta_k)_+^2
        diss_term =       s^{-5} int dt int_{B(c, s r_k)} [scaled density]

    where the scaled density is ``d_k^2`` evaluated on the reference
    field.  The sup over ``(T_k, 1]`` is a max over stored snapshots;
    at least ``MIN_WINDOW_SAMPLES`` snapshots must fall in every window.
    ``result.snapshots`` is read once, in order, and each snapshot is
    reduced at once to its per-level sup candidate and dissipation sample.
    """
    grid = result.grid
    cmap.validate(grid)
    s = cmap.scale
    tau = window_times(result.times, scheme, cmap)
    levels = np.array(scheme.levels)
    windows = [(tau > truncation_time(k)) & (tau <= 1.0 + 1e-12) for k in levels]
    # the balls shrink with k, so every one lies inside the k = 0 ball: a
    # snapshot is formed on its box, kept on the ball, and each level indexes that
    radii = [cmap.sim_radius(cylinder_radius(k)) for k in levels]
    box = cell_box(grid, cmap.center, radii[0])
    cells = _cells(box)
    outer = ball_mask(grid, cmap.center, radii[0])[cells]
    inner = [ball_mask(grid, cmap.center, r)[cells][outer] for r in radii]

    sups, diss_series = [0.0] * len(levels), [[] for _ in levels]
    for idx, u in enumerate(result.snapshots):
        if not windows[0][idx]:  # the k = 0 window holds every other one
            continue
        m = u.magnitude()
        magnitude = s * m.values[cells][outer]
        grads = s**4 * gradient_squares(u, box)[outer], s**4 * gradient_squares(m, box)[outer]
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


# ---------------------------------------------------------------------------
# the superlinear recursion W_{k+1} = C^k W_k^beta


LOG_FLOOR = -1e6


@dataclass(frozen=True)
class RecursionResult:
    values: np.ndarray  # W_k, underflowing to 0 gracefully
    log_values: np.ndarray  # ln W_k, clipped below at LOG_FLOOR
    converged: bool


def recursive_sequence(C: float, beta: float, w0: float, k_max: int) -> RecursionResult:
    """Iterate ``W_{k+1} = C^k W_k^beta`` in log space.

    Small starting values collapse doubly exponentially while large ones
    blow up; the returned flag reports which side this run landed on.
    Log-space arithmetic keeps the iteration meaningful far past where
    ``W_k`` itself underflows (the exponents grow like ``beta^k``).
    """
    if not (C > 1.0 and beta > 1.0 and w0 > 0.0):
        raise ValueError("need C > 1, beta > 1, w0 > 0")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    ln_c = math.log(C)
    log_values = np.empty(k_max + 1)
    log_values[0] = math.log(w0)
    for k in range(k_max):
        nxt = k * ln_c + beta * log_values[k]
        if nxt > 1e6:
            # hopeless divergence; saturate the rest and stop
            log_values[k + 1 :] = np.inf
            break
        log_values[k + 1] = max(nxt, LOG_FLOOR)
    if np.isinf(log_values[-1]):
        converged = False
    elif log_values[-1] <= LOG_FLOOR or log_values[-1] < -1e5:
        converged = True
    else:
        tail = np.diff(log_values[-21:])
        converged = bool(np.all(tail < 0.0) and log_values[-1] < 0.0)
    with np.errstate(under="ignore", over="ignore"):
        values = np.exp(log_values)
    return RecursionResult(values=values, log_values=log_values, converged=converged)


@dataclass(frozen=True)
class ThresholdBracket:
    lower: float  # largest tested W0 that converged
    upper: float  # smallest tested W0 that diverged

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)


def threshold_scan(
    C: float, beta: float, k_max: int = 200, tol: float = 1e-12
) -> ThresholdBracket:
    """Bisect the convergence threshold of the equality recursion.

    For the closed recurrence the critical value is ``C^{-1/(beta-1)^2}``;
    the scan brackets it to ``tol`` without using that closed form, so the
    two can corroborate each other.  ``tol = 0`` bisects to float resolution.
    """
    if not (C > 1.0 and beta > 1.0):
        raise ValueError("need C > 1 and beta > 1")
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0, got {tol!r}")

    def converged(w0: float) -> bool:
        return recursive_sequence(C, beta, w0, k_max).converged

    hi = 1.0
    while converged(hi):
        hi *= 2.0
        if hi > 1e12:
            raise RuntimeError("no divergent starting value found")
    lo_log2 = -60.0
    while not converged(2.0**lo_log2):
        lo_log2 *= 2.0
        if lo_log2 < -980.0:
            raise RuntimeError("no convergent starting value found")
    lo = 2.0**lo_log2
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break  # hit floating-point resolution
        if converged(mid):
            lo = mid
        else:
            hi = mid
    return ThresholdBracket(lower=lo, upper=hi)


def critical_w0_closed_form(C: float, beta: float) -> float:
    """``C^{-1/(beta-1)^2}``, the fixed-family threshold of the recursion."""
    if not (C > 1.0 and beta > 1.0):
        raise ValueError("need C > 1 and beta > 1")
    return C ** (-1.0 / (beta - 1.0) ** 2)


# ---------------------------------------------------------------------------
# space-time cutoffs and the localized energy balance


@dataclass(frozen=True)
class CutoffFunction:
    """Closed-form C^2 space-time weight with its derivatives.

    Each callable maps ``(grid, t)`` to an array on the grid: ``value``,
    ``time_derivative``, ``laplacian`` scalar-shaped, ``gradient`` shaped
    ``(3, n, n, n)``.  All four vanish outside the ball ``support = (center, radius)``
    if one is known; then they also take a box of cells (``cell_box``) after ``t``.
    """

    value: Callable[..., np.ndarray]
    time_derivative: Callable[..., np.ndarray]
    gradient: Callable[..., np.ndarray]
    laplacian: Callable[..., np.ndarray]
    support: tuple[Sequence[float], float] | None = None


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
    radial_cache: dict[tuple, tuple] = {}

    def radial_parts(grid, box):
        """Time-independent radial factors on ``box``, built once per grid and box."""
        key = (grid, *(index.tobytes() for index in box))
        if key not in radial_cache:
            displacements = zip(_min_image(grid, center), box)
            dx, dy, dz = (d.take(index, axis=a) for a, (d, index) in enumerate(displacements))
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
            radial_cache[key] = d, safe, R, R1, lap
        return radial_cache[key]

    def time_factor(t: float) -> float:
        return float(1.0 - smoothstep_down(np.asarray((t - t_zero) / dt_ramp)))

    def time_factor_d1(t: float) -> float:
        return float(-smoothstep_down_d1(np.asarray((t - t_zero) / dt_ramp)) / dt_ramp)

    def on_box(part):
        """``part(t, *radial_parts)`` on a box; without one, on the grid, 0 outside ``r_outer``."""

        def evaluate(grid, t, box=None):
            support = cell_box(grid, center, r_outer) if box is None else box
            values = part(t, *radial_parts(grid, support))
            if box is not None:
                return values
            out = np.zeros((*values.shape[:-3], *grid.shape))
            out[_cells(support)] = values
            return out

        return evaluate

    return CutoffFunction(
        value=on_box(lambda t, d, safe, R, R1, lap: R * time_factor(t)),
        time_derivative=on_box(lambda t, d, safe, R, R1, lap: R * time_factor_d1(t)),
        gradient=on_box(lambda t, d, safe, R, R1, lap: time_factor(t) * R1 * d / safe),
        laplacian=on_box(lambda t, d, safe, R, R1, lap: time_factor(t) * lap),
        support=(tuple(center), r_outer),
    )


def budget_cutoff(cmap: CylinderMap) -> CutoffFunction:
    """Smooth weight equal to 1 on the mapped ``Q_0``, 0 outside ``Q_{-1}``.

    Radially it falls from the mapped ``B(0)`` (radius ``s``) to the mapped
    ``B(-1)`` (radius ``4.5 s``); in time it ramps up between the mapped
    ``T_{-1}`` and ``T_0``.
    """
    return cylinder_cutoff(
        cmap.center,
        r_inner=cmap.sim_radius(cylinder_radius(0)),
        r_outer=cmap.sim_radius(cylinder_radius(-1)),
        t_zero=cmap.sim_time(truncation_time(-1)),
        t_one=cmap.sim_time(truncation_time(0)),
    )


def _validate_support(result: SimulationResult, eta: CutoffFunction, cmap: CylinderMap):
    grid = result.grid
    cmap.validate(grid)
    inner = ball_mask(grid, cmap.center, cmap.sim_radius(cylinder_radius(0)))
    outer = ball_mask(grid, cmap.center, cmap.sim_radius(cylinder_radius(-1)))
    t_start = cmap.sim_time(truncation_time(-1))
    t_plateau = cmap.sim_time(truncation_time(0))
    for t in result.times:
        values = eta.value(grid, t)
        if t >= t_plateau - 1e-12:
            bad = int(np.count_nonzero(np.abs(values[inner] - 1.0) > 1e-12))
            if bad:
                raise ValueError(
                    f"cutoff is not 1 on the mapped Q_0 at t={t:.6g} ({bad} cells)"
                )
        bad = int(np.count_nonzero(np.abs(values[~outer]) > 1e-12))
        if bad:
            raise ValueError(
                f"cutoff does not vanish outside the mapped Q_(-1) at t={t:.6g} "
                f"({bad} cells)"
            )
        if t <= t_start + 1e-12 and np.any(np.abs(values) > 1e-12):
            raise ValueError(f"cutoff active before the mapped window opens (t={t:.6g})")


@dataclass(frozen=True)
class EnergyBudgetReport:
    times: np.ndarray
    kinetic: np.ndarray  # int u^2 eta
    dissipation: np.ndarray  # nu int |grad u|^2 eta
    transport: np.ndarray  # int (u^2/2)(eta_t + nu lap eta)
    flux: np.ndarray  # int (grad eta . u)(u^2/2 + P)
    slack: np.ndarray  # accumulated inequality slack, one per snapshot
    residual_times: np.ndarray
    rate_residual: np.ndarray

    @property
    def min_slack(self) -> float:
        return float(np.min(self.slack))

    @property
    def max_abs(self) -> float:
        """The largest ``|rate_residual|``, 0.0 when that series is empty."""
        return float(np.max(np.abs(self.rate_residual))) if len(self.rate_residual) else 0.0


def _balance_terms(result: SimulationResult, cutoff: CutoffFunction | None) -> dict:
    """Per-snapshot integrals of the localized energy balance against ``cutoff``.

    ``cutoff = None`` weighs by 1, whose derivatives vanish: ``transport`` and
    ``flux`` are then 0.0, and neither the cutoff nor the pressure is formed.
    A cutoff's ``support`` is the box every per-cell array is formed on.
    """
    grid = result.grid
    support = None if cutoff is None else cutoff.support
    box = (np.arange(grid.n),) * 3 if support is None else cell_box(grid, *support)
    cells = _cells(box)
    vol = grid.cell_volume
    nu = result.config.viscosity
    n_t = len(result.times)
    quadratic = np.empty(n_t)  # int phi |u|^2 / 2
    dissipation = np.empty(n_t)  # nu int phi |grad u|^2
    transport = np.zeros(n_t)  # int (|u|^2/2)(phi_t + nu lap phi)
    flux = np.zeros(n_t)  # int (u . grad phi)(|u|^2/2 + P)
    for idx, (t, u) in enumerate(zip(result.times, result.snapshots)):
        at = (grid, t) if support is None else (grid, t, box)
        phi = 1.0 if cutoff is None else cutoff.value(*at)
        values = u.values[cells]
        u2_half = 0.5 * sum(v**2 for v in values)
        quadratic[idx] = np.sum(phi * u2_half) * vol
        dissipation[idx] = nu * np.sum(phi * gradient_squares(u, box)) * vol
        if cutoff is None:
            continue
        transport[idx] = (
            np.sum(u2_half * (cutoff.time_derivative(*at) + nu * cutoff.laplacian(*at))) * vol
        )
        grad_phi = cutoff.gradient(*at)
        advect = sum(v * grad_phi[i] for i, v in enumerate(values))
        pressure = pressure_from_velocity(u, result.config.dealias_fraction, box=box)
        flux[idx] = np.sum(advect * (u2_half + pressure)) * vol
    return {
        "quadratic": quadratic,
        "dissipation": dissipation,
        "transport": transport,
        "flux": flux,
    }


def energy_budget(
    result: SimulationResult,
    eta: CutoffFunction | None = None,
    cmap: CylinderMap | None = None,
    time_order: int | None = None,
) -> EnergyBudgetReport:
    """Term-by-term localized energy balance along a stored trajectory.

    ``eta = None`` weighs by 1: the global balance.  Given ``cmap`` too,
    ``eta`` is first checked cell by cell to be 1 on the mapped ``Q_0`` and
    0 outside the mapped ``Q_{-1}``; ``cmap`` without ``eta`` is an error.
    The rate residual ``d/dt int phi |u|^2/2 + nu int phi |grad u|^2 - int
    (|u|^2/2)(phi_t + nu Lap phi) - int (u . grad phi)(|u|^2/2 + P)`` takes
    centered differences of
    ``time_order`` (2 or 4; ``None`` is 4 from five snapshots on, else 2) on
    the interior snapshots, which must be uniformly spaced; the pressure is
    dealiased as the run was.  The slack ``int_{t_0}^{t} (transport + flux -
    dissipation) - [kinetic(t) - kinetic(t_0)]/2`` is nonnegative up to
    discretization for smooth runs.
    """
    if cmap is not None:
        if eta is None:
            raise ValueError("a cylinder map needs the cutoff eta, e.g. budget_cutoff(cmap)")
        _validate_support(result, eta, cmap)
    times = np.asarray(result.times)
    if time_order is None:
        time_order = 4 if len(times) >= 5 else 2
    needed = 5 if time_order == 4 else 3
    if time_order not in (2, 4):
        raise ValueError("time_order must be 2 or 4")
    if len(times) < needed:
        raise ValueError(f"need at least {needed} snapshots for order {time_order}")
    spacing = np.diff(times)
    h = float(spacing[0])
    if not np.allclose(spacing, h, rtol=1e-9, atol=1e-12):
        raise ValueError("energy residual requires uniformly spaced snapshots")
    terms = _balance_terms(result, eta)
    q = terms["quadratic"]
    if time_order == 2:
        lo, hi = 1, len(times) - 1
        ddt = (q[2:] - q[:-2]) / (2.0 * h)
    else:
        lo, hi = 2, len(times) - 2
        ddt = (-q[4:] + 8.0 * q[3:-1] - 8.0 * q[1:-3] + q[:-4]) / (12.0 * h)
    kinetic = 2.0 * q
    transport, flux, dissipation = terms["transport"], terms["flux"], terms["dissipation"]
    gain = _cumulative_trapezoid(transport + flux - dissipation, times)
    return EnergyBudgetReport(
        times=times,
        kinetic=kinetic,
        dissipation=dissipation,
        transport=transport,
        flux=flux,
        slack=gain - 0.5 * (kinetic - kinetic[0]),
        residual_times=times[lo:hi],
        rate_residual=ddt + dissipation[lo:hi] - transport[lo:hi] - flux[lo:hi],
    )
