"""The singular profile with dyadic amplitudes and the criterion/Lorentz separation.

The profile ``f(x, t) = A(t)/sqrt((t_inf - t) + |x - x0|^2)`` with a
dyadic on/off amplitude schedule has a finite log-damped criterion
integral while its ``L^{p,r}`` time norm diverges for every finite
``r``.  This module carries the schedule exactly (amplitudes overflow
doubles beyond the 32nd interval, so everything dyadic is kept in log2
form), evaluates both sides of the separation, and samples the profile
on grids for cross-checks against the norm evaluators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from wlns.criteria import prodi_serrin_p
from wlns.field import Grid, ScalarField, write_table
from wlns.gronwall import _gauss_legendre, _logaddexp1
from wlns.lorentz import lorentz_time_norm

_LN2 = math.log(2.0)


def _exp2(x: float) -> float:
    """``2**x`` from its log2, saturating to ``inf``/``0.0`` past double range."""
    e = math.floor(x)
    if e > 1023:
        return math.inf
    if e < -1074:
        return 0.0
    return math.ldexp(2.0 ** (x - e), e)


@dataclass(frozen=True)
class DyadicSchedule:
    """On/off amplitude schedule with doubly-growing dyadic exponents.

    Interval ``n`` is ``(t_n, t_n*)`` with ``t_n = t_inf (1 - 2^{-n})``
    and width ``t_inf 2^{-k_n}``, carrying amplitude ``2^{m_n}`` where
    ``m_n = n^2 - n/2`` and ``k_n = p m_n + n``.  Consecutive intervals
    are disjoint exactly when ``k_n > n + 1``, i.e. ``p m_n > 1``, which
    holds for every n >= 1 since p > 2.
    """

    q: float
    t_inf: float = 1.0

    def __post_init__(self):
        if not (3.0 < self.q < 9.0):
            raise ValueError("exponent q must lie in (3, 9)")
        if not (self.t_inf > 0 and np.isfinite(self.t_inf)):
            raise ValueError("t_inf must be positive and finite")

    @property
    def p(self) -> float:
        return prodi_serrin_p(self.q)

    def m(self, n: int) -> float:
        if n < 0:
            raise ValueError("interval index must be >= 0")
        return n * n - 0.5 * n

    def k(self, n: int) -> float:
        return self.p * self.m(n) + n

    def interval(self, n: int) -> tuple[float, float]:
        if n < 1:
            raise ValueError("intervals are indexed from 1")
        start = self.t_inf * (1.0 - 2.0 ** (-n))
        return (start, start + self.t_inf * 2.0 ** (-self.k(n)))

    def width_log2(self, n: int) -> float:
        return math.log2(self.t_inf) - self.k(n)


def check_disjoint(schedule: DyadicSchedule, n_max: int = 10_000) -> bool:
    """Verify ``k_n > n + 1`` (interval disjointness) for ``n <= n_max``.

    The comparison is done on exponents, so it stays exact far past
    where the interval widths themselves underflow.
    """
    ns = np.arange(1, n_max + 1, dtype=np.float64)
    if not np.all(schedule.p * (ns * ns - 0.5 * ns) > 1.0):
        raise AssertionError("interval overlap detected")  # unreachable for q in (3,9)
    return True


def interval_index(schedule: DyadicSchedule, t: float) -> int | None:
    """Index of the schedule interval containing ``t``, or None.

    Intervals are open; endpoints (a measure-zero set) count as off.
    """
    if not (0.0 <= t < schedule.t_inf):
        raise ValueError("time must lie in [0, t_inf)")
    remaining = 1.0 - t / schedule.t_inf
    if remaining <= 0.0:
        return None
    candidate = int(math.floor(-math.log2(remaining)))
    for n in (candidate - 1, candidate, candidate + 1):
        if n >= 1:
            lo, hi = schedule.interval(n)
            if lo < t < hi:
                return n
    return None


def amplitude_log2(schedule: DyadicSchedule, t: float) -> float:
    """``log2 A(t)``; ``-inf`` between intervals."""
    n = interval_index(schedule, t)
    return -math.inf if n is None else schedule.m(n)

def amplitude(schedule: DyadicSchedule, t: float) -> float:
    """``A(t) = 2^{m_n}`` on interval n, 0 elsewhere (inf past overflow)."""
    n = interval_index(schedule, t)
    return 0.0 if n is None else _exp2(schedule.m(n))


def weak_norm_constant(q: float) -> float:
    """Sharp prefactor of the weak-``L^q`` norm of ``1/sqrt(s + rho^2)``.

    Maximizing ``alpha * lambda(alpha)^{1/q}`` with ``lambda(alpha) =
    (4 pi / 3)(A^2/alpha^2 - s)^{3/2}`` puts the optimal level at
    ``alpha^2 = A^2 (1 - 3/q)/s`` and yields
    ``(4 pi/3)^{1/q} (1 - 3/q)^{(1-3/q)/2} (3/q)^{3/(2q)}``.
    """
    if not q > 3.0:
        raise ValueError("constant requires q > 3")
    ratio = 3.0 / q
    return (4.0 * math.pi / 3.0) ** (1.0 / q) * (1.0 - ratio) ** (
        (1.0 - ratio) / 2.0
    ) * ratio ** (ratio / 2.0)


@dataclass(frozen=True)
class WeakNormValues:
    """Closed-form norms of the profile at one time, plain and corrected."""

    literal: float  # A / (t_inf - t)^(1/p)
    corrected: float  # same with the sharp q-dependent prefactor
    sup_norm: float  # A / (t_inf - t)^(1/2)
    log2_literal: float
    log2_corrected: float
    log2_sup: float


def closed_form_weak_norm(schedule: DyadicSchedule, t: float) -> WeakNormValues:
    """Weak-``L^q`` and sup norms of ``f(., t)`` in closed form.

    The bare ``A/(t_inf - t)^{1/p}`` expression suppresses a
    q-dependent constant; both it and the constant-corrected value are
    returned, with grid validation aimed at the corrected one.
    """
    log2_a = amplitude_log2(schedule, t)
    if log2_a == -math.inf:
        return WeakNormValues(0.0, 0.0, 0.0, -math.inf, -math.inf, -math.inf)
    log2_s = math.log2(schedule.t_inf - t)
    log2_literal = log2_a - log2_s / schedule.p
    log2_corrected = log2_literal + math.log2(weak_norm_constant(schedule.q))
    log2_sup = log2_a - 0.5 * log2_s
    return WeakNormValues(
        literal=_exp2(log2_literal),
        corrected=_exp2(log2_corrected),
        sup_norm=_exp2(log2_sup),
        log2_literal=log2_literal,
        log2_corrected=log2_corrected,
        log2_sup=log2_sup,
    )


@dataclass(frozen=True)
class CounterexampleField:
    """The profile ``A(t)/sqrt((t_inf - t) + |x - x0|^2)``."""

    schedule: DyadicSchedule
    x0: tuple[float, float, float]

    def value_at(self, point: Sequence[float], t: float) -> float:
        a = amplitude(self.schedule, t)
        if a == 0.0:
            return 0.0
        d2 = sum((float(c) - x) ** 2 for c, x in zip(point, self.x0))
        return a / math.sqrt((self.schedule.t_inf - t) + d2)

    def sample(self, grid: Grid, t: float) -> ScalarField:
        """Grid samples at time ``t`` (plain distance, no wrapping)."""
        a = amplitude(self.schedule, t)
        if a == 0.0:
            return ScalarField(grid, np.zeros(grid.shape))
        X, Y, Z = grid.coordinates
        d2 = (X - self.x0[0]) ** 2 + (Y - self.x0[1]) ** 2 + (Z - self.x0[2]) ** 2
        return ScalarField(grid, a / np.sqrt((self.schedule.t_inf - t) + d2))


def required_half_width(schedule: DyadicSchedule, t: float) -> float:
    """Box half-width containing the weak-norm maximizer with margin.

    The optimal level set of the profile is a ball of radius
    ``sqrt(3 (t_inf - t)/(q - 3))``; ten of those keeps every competing
    level inside the box.
    """
    s = schedule.t_inf - t
    if not s > 0:
        raise ValueError("time must precede t_inf")
    return 10.0 * math.sqrt(3.0 * s / (schedule.q - 3.0))


# ---------------------------------------------------------------------------
# Claim evaluators
# ---------------------------------------------------------------------------


def _claim1_term(schedule: DyadicSchedule, n: int) -> float:
    """The n-th summand of the criterion-bounding series.

    With ``k_n = p m_n + n`` the dyadic prefactors collapse:
    ``t_inf^{-1} 2^{-k_n} 2^{p m_n} (2^{-n} - 2^{-k_n})^{-1}`` equals
    ``t_inf^{-1} (1 - 2^{n - k_n})^{-1}``, and ``m_n + n/2 = n^2``.
    """
    denom = math.e + _logaddexp1(n * n * _LN2 - 0.5 * math.log(schedule.t_inf))
    correction = 1.0 - 2.0 ** (n - schedule.k(n))
    return 1.0 / (schedule.t_inf * correction * denom)


def _interval_criterion_integral(schedule: DyadicSchedule, n: int) -> float:
    """Exact criterion integral of the closed-form norms over interval n.

    Substituting ``sigma = t_inf - s = t_inf 2^{-n} w`` turns the
    integral into ``2^{p m_n} int dw/(w D(w))`` over ``w`` in
    ``[1 - 2^{-p m_n}, 1]``; rescaling ``w = 1 - 2^{-p m_n} v`` cancels
    the giant prefactor against the interval length analytically, so the
    quadrature sees only O(1) numbers at every n.  The rescaled integrand
    is analytic on ``[0, 1]``, its nearest singularity at ``v = 2^{p m_n}
    >= 2^{3/2}``, so one 12-point Gauss-Legendre panel is exact to rounding.
    """
    m = schedule.m(n)
    shrink = 2.0 ** (-schedule.p * m)  # harmless underflow for large n
    ln_t = math.log(schedule.t_inf)

    def integrand(v: float) -> float:
        w = 1.0 - shrink * v
        ln_y = m * _LN2 + 0.5 * (n * _LN2 - ln_t - math.log(w))
        return 1.0 / (w * (math.e + _logaddexp1(ln_y)))

    return _gauss_legendre(integrand, 0.0, 1.0)


@dataclass(frozen=True)
class Claim1Report:
    """Per-interval criterion contributions and their bounding terms."""

    ns: np.ndarray
    terms: np.ndarray  # the series bound, term by term
    partial_sums: np.ndarray
    integrals: np.ndarray  # exact per-interval criterion integrals
    integral_partials: np.ndarray

    @property
    def total(self) -> float:
        return float(self.integral_partials[-1])

    def tail_upper_bound(self) -> float:
        """Rigorous cap on the full series: S_N plus a 2/(n^2 ln 2) tail."""
        n_last = int(self.ns[-1])
        return float(self.partial_sums[-1]) + 2.0 / (_LN2 * n_last)


def claim1_terms(schedule: DyadicSchedule, n_terms: int) -> Claim1Report:
    """Series terms and exact interval integrals of the damped criterion."""
    if n_terms < 1:
        raise ValueError("need at least one term")
    ns = np.arange(1, n_terms + 1)
    terms = np.array([_claim1_term(schedule, int(n)) for n in ns])
    integrals = np.array([_interval_criterion_integral(schedule, int(n)) for n in ns])
    return Claim1Report(
        ns=ns,
        terms=terms,
        partial_sums=np.cumsum(terms),
        integrals=integrals,
        integral_partials=np.cumsum(integrals),
    )


@dataclass(frozen=True)
class Claim2Report:
    """Partial sums of the diverging lower bound and its comparison series."""

    r: float
    ns: np.ndarray
    terms: np.ndarray
    partial_sums: np.ndarray
    comparison_terms: np.ndarray
    comparison_partial: float
    comparison_closed_form: float


def claim2_lower_bound(schedule: DyadicSchedule, n_terms: int, r: float) -> Claim2Report:
    """Lower-bound partial sums for the ``L^{p,r}`` time norm.

    With ``R_n = 2^{k_n/p} t_inf^{1/p}`` the n-th term is
    ``t_inf^{r/p} (1 - (R_{n-1}/R_n)^r)`` where the ratio power is
    ``2^{r(-2n + 3/2 - 1/p)}``; the ratio series is geometric with sum
    ``2^{(3/2 - 1/p) r}/(2^{2r} - 1)``, evaluated as
    ``2^{-(1/2 + 1/p) r}/(1 - 2^{-2r})`` so that no power overflows.
    """
    if not r > 1.0:
        raise ValueError("secondary exponent must exceed 1")
    if n_terms < 2:
        raise ValueError("need at least two terms")
    p = schedule.p
    ns = np.arange(1, n_terms + 1)
    ratios = 2.0 ** (r * (-2.0 * ns + 1.5 - 1.0 / p))
    prefactor = schedule.t_inf ** (r / p)
    terms = prefactor * (1.0 - ratios)
    closed = 2.0 ** (-(0.5 + 1.0 / p) * r) / (1.0 - 2.0 ** (-2.0 * r))
    return Claim2Report(
        r=r,
        ns=ns,
        terms=terms,
        partial_sums=np.cumsum(terms),
        comparison_terms=ratios,
        comparison_partial=float(np.sum(ratios)),
        comparison_closed_form=closed,
    )


def _minorant_levels_log2(schedule: DyadicSchedule, n_terms: int) -> np.ndarray:
    """log2 of the per-interval floor of the closed-form weak norm."""
    p = schedule.p
    ns = np.arange(1, n_terms + 1, dtype=np.float64)
    ms = ns * ns - 0.5 * ns
    # A_n / (t_inf 2^{-n})^{1/p}: the norm's smallest value on interval n
    return ms + (ns - math.log2(schedule.t_inf)) / p


def _minorant_time_norm_log2(schedule: DyadicSchedule, n_terms: int, r: float) -> float:
    """log2 of the ``L^{p,r}`` time norm of the piecewise-constant minorant.

    The layer-cake blocks are O(1) once the level and support exponents
    cancel (``r(m_n + (n - k_n)/p) = 0``), so the sum is float-safe at
    any truncation even though the levels themselves overflow beyond
    n = 32.
    """
    p = schedule.p
    ks = [schedule.k(int(n)) for n in range(1, n_terms + 1)]
    blocks = []
    for i, n in enumerate(range(1, n_terms + 1)):
        ratio_r = 2.0 ** (r * (-2.0 * n + 1.5 - 1.0 / p)) if n >= 2 else 0.0
        tail = 0.0
        for j in range(i + 1, n_terms):
            gap = ks[i] - ks[j]
            if gap < -60.0:
                break
            tail += 2.0**gap
        blocks.append((1.0 - ratio_r) * (1.0 + tail) ** (r / p))
    return math.log2((p / r) * float(np.sum(blocks))) / r


@dataclass(frozen=True)
class SeparationReport:
    """Finite criterion vs diverging time norms at growing truncations."""

    r: float
    checkpoints: np.ndarray
    criterion_partials: np.ndarray
    criterion_upper_bound: float  # rigorous cap on the untruncated series
    time_norm_log2: np.ndarray
    time_norms: np.ndarray
    time_norms_direct: np.ndarray  # float-path cross-check, nan past the normal range


def criterion_vs_lorentz(
    schedule: DyadicSchedule,
    r: float,
    n_terms: int,
    checkpoints: Sequence[int] | None = None,
) -> SeparationReport:
    """One report of the separation the schedule constructs.

    The damped criterion integral increases to a finite limit while the
    ``L^{p,r}`` time norms of the piecewise-constant minorant grow
    without bound.  Norms are evaluated twice: in log2 space (any
    truncation) and through the plain Lorentz evaluator wherever its
    widths and layer weights are normal floats (roughly the first 16
    intervals, ``nan`` beyond); the two must agree where both exist.
    """
    if not 1.0 < r < math.inf:
        raise ValueError(f"secondary exponent r must lie in (1, inf), got {r!r}")
    if checkpoints is None:
        ladder = [1, 2, 5, 10, 20, 40, 80, 160, 320, 640]
        checkpoints = sorted({n for n in ladder if n < n_terms} | {n_terms})
    else:
        checkpoints = sorted(set(int(n) for n in checkpoints))
        if checkpoints[0] < 1 or checkpoints[-1] > n_terms:
            raise ValueError("checkpoints must lie in [1, n_terms]")
    claim1 = claim1_terms(schedule, n_terms)

    levels_log2 = _minorant_levels_log2(schedule, n_terms)
    widths_log2 = np.array(
        [schedule.width_log2(int(n)) for n in range(1, n_terms + 1)]
    )
    criterion, log2_norms, direct = [], [], []
    for n_cut in checkpoints:
        criterion.append(float(claim1.integral_partials[n_cut - 1]))
        log2_norms.append(_minorant_time_norm_log2(schedule, n_cut, r))
        # the lengths and the layer weights, their (r/p)-th powers, must be
        # normal floats; the levels' r-th powers, the weights' reciprocals,
        # then stay finite
        if max(1.0, r / schedule.p) * widths_log2[n_cut - 1] > -1022.0:
            values = 2.0 ** levels_log2[:n_cut]
            lengths = 2.0 ** widths_log2[:n_cut]
            with np.errstate(over="ignore", invalid="ignore"):  # a large r gives nan here
                direct.append(lorentz_time_norm(values, schedule.p, r, lengths=lengths).value)
        else:
            direct.append(math.nan)
    log2_norms = np.array(log2_norms)
    return SeparationReport(
        r=r,
        checkpoints=np.array(checkpoints),
        criterion_partials=np.array(criterion),
        criterion_upper_bound=claim1.tail_upper_bound(),
        time_norm_log2=log2_norms,
        time_norms=2.0**log2_norms,
        time_norms_direct=np.array(direct),
    )


def intro_profile_criterion(
    a: Sequence[float], times: Sequence[float], q: float, t0: float
) -> float:
    """Trapezoid value of the damped criterion for a sampled amplitude.

    The integrand is ``a^p / ((t0 - t)(e + log(e + a/sqrt(t0 - t))))``,
    i.e. the closed-form weak norm raised to ``p`` with the log damping;
    the time deficit is taken as ``t0 - t`` so it stays positive on the
    sampled range.  Amplitudes with ``a^p`` beyond double range overflow
    here; the schedule evaluators cover that regime in log space.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    times = np.asarray(times, dtype=np.float64).ravel()
    if a.shape != times.shape or a.size < 2:
        raise ValueError("need matching amplitude/time samples, at least two")
    if np.any(a < 0) or not np.all(np.isfinite(a)):
        raise ValueError("amplitude must be finite and nonnegative")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must increase strictly")
    if times[0] < 0 or times[-1] >= t0:
        raise ValueError("samples must lie in [0, t0)")
    p = prodi_serrin_p(q)
    s = t0 - times
    positive = a > 0
    ln_y = np.full(a.shape, -np.inf)
    ln_y[positive] = np.log(a[positive]) - 0.5 * np.log(s[positive])
    denominator = math.e + np.logaddexp(1.0, ln_y)
    integrand = np.where(positive, a**p / (s * denominator), 0.0)
    return float(np.trapezoid(integrand, times))


def write_schedule_csv(
    path, schedule: DyadicSchedule, n_terms: int, r: float = 2.0
) -> None:
    """Closed-form per-interval table: geometry, bound terms, both partial sums."""
    if n_terms < 1:
        raise ValueError("need at least one term")
    ns = list(range(1, n_terms + 1))
    terms = np.array([_claim1_term(schedule, n) for n in ns])
    claim2 = claim2_lower_bound(schedule, max(n_terms, 2), r)
    starts, stops = zip(*(schedule.interval(n) for n in ns))
    columns = {
        "n": ns,
        "m_n": [schedule.m(n) for n in ns],
        "k_n": [schedule.k(n) for n in ns],
        "t_n": starts,
        "t_n_star": stops,
        "term_n": terms,
        "partial_claim1": np.cumsum(terms),
        "partial_claim2_r": claim2.partial_sums[: len(ns)],
    }
    write_table(path, columns, index="n")
