"""Level-set truncation energies on shrinking parabolic cylinders.

The scheme truncates ``|u|`` at thresholds climbing to 1 while the
space-time cylinders shrink from ``(-1, 1] x B(1)`` to ``(-1/2, 1] x
B(1/2)``; the combined energies ``U_k`` obey a superlinear recursion
that forces them to zero when the starting energy is small.  This module
computes the ``U_k`` table for a stored trajectory (mapped into the box by
the parabolic scaling), the localized energy budget against a smooth
cutoff, and the recursion itself with its empirical convergence threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from wlns.criteria import _cumulative_trapezoid
from wlns.field import (
    Grid,
    Trajectory,
    ball_boundary_cells,
    ball_mask,
    gradient_squares,
    write_table,
)
from wlns.nse_solver import (
    CutoffFunction,
    SimulationResult,
    constant_one,
    cylinder_cutoff,
    energy_residual,
)


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
    two can corroborate each other.
    """
    if not (C > 1.0 and beta > 1.0):
        raise ValueError("need C > 1 and beta > 1")

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
# localized energy budget


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


def energy_budget(
    result: SimulationResult,
    eta: CutoffFunction | None = None,
    cmap: CylinderMap | None = None,
) -> EnergyBudgetReport:
    """Term-by-term localized energy inequality along a trajectory.

    With ``eta = None`` the weight is identically 1 and the budget
    degenerates to the global balance.  When a cylinder map is supplied
    the cutoff's support conditions (1 on the mapped ``Q_0``, 0 outside
    the mapped ``Q_{-1}``) are checked cell by cell first.

    The slack series is ``int_{t_0}^{t} (transport + flux - dissipation)
    - [kinetic(t) - kinetic(t_0)]/2``, which is nonnegative up to
    discretization for smooth solutions; the rate residual is its
    derivative counterpart on interior snapshots, of 4th order from five
    snapshots on and 2nd order below.  The budget extends
    :func:`wlns.nse_solver.energy_residual`: its terms, residual times and
    rate residual are that report's, with ``kinetic`` twice its
    ``quadratic``, so it needs at least 3 uniformly spaced snapshots.  A run
    whose ``t_end`` is not a multiple of the snapshot cadence ends on a
    shorter gap and raises ``ValueError``.
    """
    if eta is None:
        eta = constant_one()
    elif cmap is not None:
        _validate_support(result, eta, cmap)

    times = np.asarray(result.times)
    residual = energy_residual(result, eta, 4 if len(times) >= 5 else 2)
    terms = residual.terms
    kinetic = 2.0 * terms["quadratic"]
    transport, flux, dissipation = terms["transport"], terms["flux"], terms["dissipation"]
    gain = _cumulative_trapezoid(transport + flux - dissipation, times)
    return EnergyBudgetReport(
        times=times,
        kinetic=kinetic,
        dissipation=dissipation,
        transport=transport,
        flux=flux,
        slack=gain - 0.5 * (kinetic - kinetic[0]),
        residual_times=residual.times,
        rate_residual=residual.residual,
    )
