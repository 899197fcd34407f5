"""Weak Lebesgue and Lorentz norms, exact on grid data.

A sampled field is a simple function: constant on cells of equal measure.
Its distribution function is a right-continuous step function, so every
norm here is a finite maximum or a finite sum over the distinct data
levels -- no quadrature error enters.  The same machinery doubles for
time signals that are piecewise constant on intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from wlns.field import ScalarField


def _values_and_measure(f, cell_measure) -> tuple[np.ndarray, float]:
    if isinstance(f, ScalarField):
        values = f.values
        measure = f.grid.cell_volume
        if cell_measure is not None:
            raise ValueError("cell_measure is implied by the field's grid")
    else:
        values = np.asarray(f, dtype=np.float64)
        measure = 1.0 if cell_measure is None else float(cell_measure)
        if measure <= 0:
            raise ValueError("cell measure must be positive")
    if not np.all(np.isfinite(values)):
        raise ValueError("norms are only defined for finite data")
    return np.abs(values.ravel()), measure


def _homogeneous_root(power_sum, levels: np.ndarray, degree: float) -> float:
    """``power_sum(levels) ** (1/degree)`` for a sum homogeneous of ``degree`` in ``levels``.

    A sum past the normal float range is retaken on the levels over the
    largest one, if that sum is normal; any other sum keeps its bits.
    """
    tiny = np.finfo(np.float64).tiny
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        total = power_sum(levels)
        if not tiny <= total < np.inf:
            top = levels.max(initial=0.0)
            scaled = power_sum(levels / top)
            if tiny <= scaled < np.inf:
                return float(top * scaled ** (1.0 / degree))
        return float(total ** (1.0 / degree))


def _layer_sum(levels: np.ndarray, exponent: float, weights: np.ndarray):
    """``sum_i (v_i^s - v_{i-1}^s) * w_i`` over increasing levels, with ``v_0 = 0``."""
    powers = levels**exponent
    prev = np.concatenate(([0.0], powers[:-1]))
    return np.sum((powers - prev) * weights)


@dataclass(frozen=True)
class DistributionFunction:
    """Distribution function of ``|f|``.

    ``thresholds`` holds the distinct data levels in increasing order;
    ``measure_geq[i]`` is the measure of ``{|f| >= thresholds[i]}`` (the
    left limit of the distribution function there).
    """

    thresholds: np.ndarray
    measure_geq: np.ndarray
    total_measure: float

    @classmethod
    def from_data(cls, f, cell_measure=None) -> "DistributionFunction":
        absv, measure = _values_and_measure(f, cell_measure)
        levels, counts = np.unique(absv, return_counts=True)
        # cumulative count of cells at or above each level
        geq = np.cumsum(counts[::-1])[::-1].astype(np.float64) * measure
        return cls(thresholds=levels, measure_geq=geq, total_measure=absv.size * measure)

    @classmethod
    def _from_lengths(cls, values: np.ndarray, lengths: np.ndarray) -> "DistributionFunction":
        """Table of nonnegative ``values``, cell ``i`` having measure ``lengths[i]``."""
        levels, inverse = np.unique(values, return_inverse=True)
        mass = np.bincount(inverse, weights=lengths, minlength=levels.size)
        geq = np.cumsum(mass[::-1])[::-1]
        return cls(thresholds=levels, measure_geq=geq, total_measure=float(lengths.sum()))

    def __call__(self, alpha: float) -> float:
        """Measure of the strict super-level set ``{|f| > alpha}``."""
        if alpha < 0:
            return self.total_measure
        idx = np.searchsorted(self.thresholds, alpha, side="right")
        if idx == len(self.thresholds):
            return 0.0
        return float(self.measure_geq[idx])

    def weak_max(self, q: float, level_map=None) -> float:
        """``max_i g(v_i) * measure{|f| >= v_i}^(1/q)`` over the positive levels.

        With ``g`` the identity (``level_map=None``) this is the weak-``L^q``
        quasinorm of ``f``.  A strictly increasing ``g`` with ``g(0) = 0``
        keeps the super-level sets, so the value is then the quasinorm of
        ``g(|f|)`` without a second table.
        """
        nz = self.thresholds > 0
        if not np.any(nz):
            return 0.0
        levels = self.thresholds[nz]
        if level_map is not None:
            levels = level_map(levels)
        return float(np.max(levels * self.measure_geq[nz] ** (1.0 / q)))


@dataclass(frozen=True)
class NormReport:
    """One computed norm with enough context to reproduce it."""

    kind: str
    p: float
    r: float | None
    value: float
    domain_measure: float


def distribution(f, alpha: float, cell_measure=None) -> float:
    """Measure of ``{|f| > alpha}``; empty data simply measures 0."""
    return DistributionFunction.from_data(f, cell_measure)(alpha)


def weak_norm(f, q: float, cell_measure=None) -> NormReport:
    """Weak-``L^q`` quasinorm ``sup_a a * measure{|f| > a}^(1/q)``.

    On a simple function the supremum is attained as a left limit at one
    of the data levels, so the value is the exact finite maximum of
    ``v_i * measure{|f| >= v_i}^(1/q)``.
    """
    if not q > 0:
        raise ValueError("weak norm exponent must be positive")
    dist = DistributionFunction.from_data(f, cell_measure)
    return NormReport("weak", q, None, dist.weak_max(q), dist.total_measure)


def lebesgue_norm(f, p: float, cell_measure=None) -> NormReport:
    """Plain ``L^p`` norm by direct summation."""
    if not p > 0:
        raise ValueError("Lebesgue exponent must be positive")
    absv, measure = _values_and_measure(f, cell_measure)
    value = _homogeneous_root(lambda v: np.sum(v**p) * measure, absv, p)
    return NormReport("lebesgue", p, None, value, absv.size * measure)


def layer_cake(f, p: float, cell_measure=None) -> NormReport:
    """``L^p`` norm through the layer-cake identity.

    ``int |f|^p = p * int_0^inf a^(p-1) measure{|f| > a} da`` integrates
    exactly over the step distribution function: each gap between
    consecutive levels contributes ``(v_i^p - v_{i-1}^p)`` times the
    measure of ``{|f| >= v_i}``.
    """
    if not p > 0:
        raise ValueError("Lebesgue exponent must be positive")
    dist = DistributionFunction.from_data(f, cell_measure)
    value = _homogeneous_root(lambda v: _layer_sum(v, p, dist.measure_geq), dist.thresholds, p)
    return NormReport("lebesgue", p, None, value, dist.total_measure)


def lorentz_time_norm(
    signal,
    p: float,
    r: float,
    dt: float | None = None,
    lengths: Sequence[float] | None = None,
) -> NormReport:
    """Lorentz ``L^(p,r)`` norm of a piecewise-constant time signal.

    The signal is constant on cells: either uniform cells of width ``dt``
    or explicit ``lengths``.  With the conventional normalisation

        ``||g||^r = p * int_0^inf R^(r-1) * lambda(R)^(r/p) dR``

    the integral is exact for step distribution functions and reduces to
    the ordinary ``L^p`` norm when ``r == p``.  A constant signal ``c`` on
    total length ``T`` gives ``c * T^(1/p) * (p/r)^(1/r)``.  ``r = inf``
    falls back to the weak norm in time.
    """
    if not p > 0:
        raise ValueError("primary exponent must be positive")
    values = np.asarray(signal, dtype=np.float64).ravel()
    if np.any(values < 0) or not np.all(np.isfinite(values)):
        raise ValueError("time signal must be finite and nonnegative")
    if (dt is None) == (lengths is None):
        raise ValueError("provide exactly one of dt or lengths")
    if lengths is None:
        if not dt > 0:
            raise ValueError("dt must be positive")
        dist = DistributionFunction.from_data(values, cell_measure=dt)
    else:
        weights = np.asarray(lengths, dtype=np.float64).ravel()
        if weights.shape != values.shape or np.any(weights <= 0):
            raise ValueError("lengths must match the signal and be positive")
        dist = DistributionFunction._from_lengths(values, weights)

    if np.isinf(r):
        return NormReport("lorentz", p, float("inf"), dist.weak_max(p), dist.total_measure)
    if not r > 0:
        raise ValueError("secondary exponent must be positive")
    nz = dist.thresholds > 0
    weights = dist.measure_geq[nz] ** (r / p)
    value = _homogeneous_root(lambda v: (p / r) * _layer_sum(v, r, weights), dist.thresholds[nz], r)
    return NormReport("lorentz", p, r, value, dist.total_measure)


# ---------------------------------------------------------------------------
# Embedding and splitting inequalities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EmbeddingReport:
    """Both halves of the weak-to-strong embedding on a finite region."""

    p: float
    r: float
    eps: float
    lp_value: float
    lp_bound: float
    c_eps: float
    weak_p_value: float
    weak_p_bound: float
    c_region: float
    domain_measure: float

    @property
    def passed(self) -> bool:
        tol = 1e-12 * max(1.0, self.lp_bound, self.weak_p_bound)
        return (
            self.lp_value <= self.lp_bound + tol
            and self.weak_p_value <= self.weak_p_bound + tol
        )


def embedding_constant(p: float, r: float, eps: float) -> float:
    """Prefactor ``(p/(r-p))^(1/p) * eps^((p-r)/p)`` of the tail bound."""
    if not (0 < p < r):
        raise ValueError("embedding needs 0 < p < r")
    if not eps > 0:
        raise ValueError("the level split eps must be positive")
    return (p / (r - p)) ** (1.0 / p) * eps ** ((p - r) / p)


def compact_embedding_check(
    f, p: float, r: float, eps: float, cell_measure=None
) -> EmbeddingReport:
    """Evaluate both sides of the weak-norm embedding bounds.

    First the norm comparison ``||f||_{L^{p,w}} <= mu^(1/p-1/r) ||f||_{L^{r,w}}``,
    then the strong-norm tail split

        ``||f||_{L^p} <= C(eps) ||f||_{L^{r,w}}^{r/p} + eps * mu^{1/p}``

    with ``C(eps)`` from :func:`embedding_constant`.
    """
    c_eps = embedding_constant(p, r, eps)
    weak_r = weak_norm(f, r, cell_measure)
    weak_p = weak_norm(f, p, cell_measure)
    strong = lebesgue_norm(f, p, cell_measure)
    mu = weak_r.domain_measure
    c_region = mu ** (1.0 / p - 1.0 / r) if mu > 0 else 0.0
    return EmbeddingReport(
        p=p,
        r=r,
        eps=eps,
        lp_value=strong.value,
        lp_bound=c_eps * weak_r.value ** (r / p) + eps * mu ** (1.0 / p),
        c_eps=c_eps,
        weak_p_value=weak_p.value,
        weak_p_bound=c_region * weak_r.value,
        c_region=c_region,
        domain_measure=mu,
    )


def split_at_one(f):
    """Split ``f`` into the parts where ``|f| >= 1`` and ``|f| < 1``."""
    if isinstance(f, ScalarField):
        high = np.where(np.abs(f.values) >= 1.0, f.values, 0.0)
        low = np.where(np.abs(f.values) < 1.0, f.values, 0.0)
        return ScalarField(f.grid, high), ScalarField(f.grid, low)
    values = np.asarray(f, dtype=np.float64)
    return (
        np.where(np.abs(values) >= 1.0, values, 0.0),
        np.where(np.abs(values) < 1.0, values, 0.0),
    )


@dataclass(frozen=True)
class SplitReport:
    """Bounds over dyadic layers for the two halves of a unit-level split."""

    r: float
    r1: float
    r2: float
    high_power: float
    high_bound: float
    c_high: float
    low_power: float
    low_bound: float
    c_low: float
    weak_r: float
    base_measure: float

    @property
    def passed(self) -> bool:
        tol = 1e-12 * max(1.0, self.high_bound, self.low_bound)
        return (
            self.high_power <= self.high_bound + tol
            and self.low_power <= self.low_bound + tol
        )


def split_constants(r: float, r1: float, r2: float) -> tuple[float, float]:
    """Geometric dyadic-sum constants for the split inequalities."""
    if not (0 < r1 < r < r2):
        raise ValueError("split exponents must satisfy r1 < r < r2")
    ratio_high = 2.0 ** (r1 - r)
    c_high = (2.0**r1 - 1.0) * ratio_high / (1.0 - ratio_high)
    ratio_low = 2.0 ** (r - r2)
    c_low = (2.0**r2 - 1.0) * ratio_low / (1.0 - ratio_low)
    return c_high, c_low


def lemma_split_check(f, r: float, r1: float, r2: float, cell_measure=None) -> SplitReport:
    """Check the dyadic bounds controlling a unit-level split by ``|f|``.

    The part above level one obeys

        ``int |f_high|^{r1} <= C(r, r1) ||f||^r_{r,w} + 2^{r1} * measure{|f| >= 1}``

    where the extra term is the base layer ``1 <= |f| < 2``; the part
    below level one needs no base layer:

        ``int |f_low|^{r2} <= C(r, r2) ||f||^r_{r,w}``.
    """
    c_high, c_low = split_constants(r, r1, r2)
    absv, measure = _values_and_measure(f, cell_measure)
    high = absv[absv >= 1.0]
    low = absv[absv < 1.0]
    high_power = float(np.sum(high**r1) * measure)
    low_power = float(np.sum(low**r2) * measure)
    wk = weak_norm(absv, r, cell_measure=measure)
    base = float(high.size) * measure
    return SplitReport(
        r=r,
        r1=r1,
        r2=r2,
        high_power=high_power,
        high_bound=c_high * wk.value**r + 2.0**r1 * base,
        c_high=c_high,
        low_power=low_power,
        low_bound=c_low * wk.value**r,
        c_low=c_low,
        weak_r=wk.value,
        base_measure=base,
    )
