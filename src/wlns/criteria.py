"""Blow-up criterion integrands and their bookkeeping along a history.

For a velocity field on the torus, four time integrands are tracked:

* ``lps``     -- the classical ``||u||_q^p`` with ``2/p + 3/q = 1``;
* ``zhoulei`` -- same norm damped by ``1 + log(e + ||u||_inf)``;
* ``weaklog`` -- weak-norm numerator damped by ``e + log(e + ||u||_inf)``;
* ``remark``  -- weak norm of the pointwise damped field
  ``|u| / (e + log(e + |u|))``, raised to ``p``.

Each integrand is finite on larger function classes than the previous one
while still implying regularity, which is why the trace records all four.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from wlns.field import VectorField, write_table
from wlns.gronwall import psi
from wlns.lorentz import DistributionFunction, lebesgue_norm

E = math.e

TRACE_COLUMNS = (
    "t",
    "sup_norm",
    "weak_q",
    "strong_q",
    "weak_sigma",
    "I_lps",
    "I_zl",
    "I_wlog",
    "I_remark",
    "C_lps",
    "C_zl",
    "C_wlog",
    "C_remark",
)


@dataclass(frozen=True)
class DerivedExponents:
    """Exponent family attached to a spatial integrability index ``q``.

    ``p`` is the conjugate time exponent with ``2/p + 3/q = 1``; ``sigma``
    and ``rho`` are the weak-space / time pair the scaling argument runs
    through.  They satisfy ``1 - 2/rho - 3/sigma = 1/rho``.
    """

    q: float
    p: float
    sigma: float
    rho: float


def prodi_serrin_p(q: float) -> float:
    """Time exponent paired with ``q`` by ``2/p + 3/q = 1``."""
    if not 3.0 < q < 9.0:
        raise ValueError(f"q must lie in (3, 9), got {q}")
    return 2.0 * q / (q - 3.0)


def derive_exponents(q: float) -> DerivedExponents:
    p = prodi_serrin_p(q)
    sigma = 1.5 * (q - 1.0)
    rho = 3.0 * (q - 1.0) / (q - 3.0)
    exps = DerivedExponents(q=q, p=p, sigma=sigma, rho=rho)
    assert abs(2.0 / p + 3.0 / q - 1.0) < 1e-12
    assert abs((1.0 - 2.0 / rho - 3.0 / sigma) - 1.0 / rho) < 1e-12
    return exps


def _power(base: float, p: float) -> float:
    """``base**p`` of a Python float, ``inf`` where it leaves the float range."""
    try:
        return base**p
    except OverflowError:
        return math.inf


def integrand_lps(strong_q: float, p: float) -> float:
    return _power(strong_q, p)


def integrand_zhoulei(sup_norm: float, strong_q: float, p: float) -> float:
    return _power(strong_q, p) / (1.0 + math.log(E + sup_norm))


def integrand_weaklog(sup_norm: float, weak_q: float, p: float) -> float:
    return _power(weak_q, p) / (E + math.log(E + sup_norm))


def damped_magnitude(m: np.ndarray) -> np.ndarray:
    """Pointwise ``|u| / (e + log(e + |u|))``."""
    m = np.abs(np.asarray(m, dtype=np.float64))
    return m / (E + np.log(E + m))


@dataclass(frozen=True)
class DominationReport:
    min_margin: float
    argmin: float

    @property
    def passed(self) -> bool:
        return self.min_margin > 0.0


def psi_domination_check(r_values=None) -> DominationReport:
    """Verify ``1/psi(r)`` dominates the derivative of ``log(e+log(e+r))``.

    The derivative is ``1 / ((e+r)(e+log(e+r)))`` and the margin is
    strictly positive because ``r < e + r``; the check samples a wide log
    grid so the tail bound used downstream rests on evaluated numbers.
    """
    if r_values is None:
        r_values = np.logspace(-6, 9, 4001)
    r = np.asarray(r_values, dtype=np.float64)
    margin = 1.0 / psi(r) - 1.0 / ((E + r) * (E + np.log(E + r)))
    i = int(np.argmin(margin))
    return DominationReport(min_margin=float(margin[i]), argmin=float(r[i]))


@dataclass(frozen=True)
class TraceRow:
    t: float
    sup_norm: float
    weak_q: float
    strong_q: float
    weak_sigma: float
    i_lps: float
    i_zl: float
    i_wlog: float
    i_remark: float


def evaluate_row(u: VectorField, q: float, t: float) -> TraceRow:
    """All trace norms and integrands for one velocity snapshot.

    The damped magnitude is strictly increasing in ``|u|``, so one
    distribution table of ``|u|`` serves both weak norms and ``remark``.
    """
    exps = derive_exponents(q)
    m = u.magnitude()
    dist = DistributionFunction.from_data(m)
    sup_norm = m.max_abs()
    wq = dist.weak_max(q)
    sq = lebesgue_norm(m, q).value
    return TraceRow(
        t=t,
        sup_norm=sup_norm,
        weak_q=wq,
        strong_q=sq,
        weak_sigma=dist.weak_max(exps.sigma),
        i_lps=integrand_lps(sq, exps.p),
        i_zl=integrand_zhoulei(sup_norm, sq, exps.p),
        i_wlog=integrand_weaklog(sup_norm, wq, exps.p),
        i_remark=_power(dist.weak_max(q, damped_magnitude), exps.p),
    )


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral, scipy's ``cumulative_trapezoid(y, x, initial=0.0)``."""
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))


@dataclass
class CriterionTrace:
    """Column store of trace rows plus their cumulative integrals."""

    q: float
    t: np.ndarray
    sup_norm: np.ndarray
    weak_q: np.ndarray
    strong_q: np.ndarray
    weak_sigma: np.ndarray
    i_lps: np.ndarray
    i_zl: np.ndarray
    i_wlog: np.ndarray
    i_remark: np.ndarray

    @classmethod
    def from_rows(cls, q: float, rows: Iterable[TraceRow]) -> "CriterionTrace":
        rows = list(rows)
        if not rows:
            raise ValueError("a trace needs at least one row")
        cols = {
            f.name: np.array([getattr(r, f.name) for r in rows])
            for f in fields(TraceRow)
        }
        return cls(q=q, **cols)

    def accumulated(self) -> dict[str, np.ndarray]:
        return {
            "C_lps": _cumulative_trapezoid(self.i_lps, self.t),
            "C_zl": _cumulative_trapezoid(self.i_zl, self.t),
            "C_wlog": _cumulative_trapezoid(self.i_wlog, self.t),
            "C_remark": _cumulative_trapezoid(self.i_remark, self.t),
        }

    def to_csv(self, path) -> None:
        cols = (getattr(self, f.name) for f in fields(TraceRow))
        write_table(path, {**dict(zip(TRACE_COLUMNS, cols)), **self.accumulated()})

    @classmethod
    def from_csv(cls, path, q: float) -> "CriterionTrace":
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            if tuple(header) != TRACE_COLUMNS:
                raise ValueError(f"unexpected trace header {header}")
            data = []
            for lineno, line in enumerate(fh, start=2):
                parts = line.strip().split(",")
                if len(parts) != len(TRACE_COLUMNS):
                    raise ValueError(f"line {lineno}: expected {len(TRACE_COLUMNS)} fields")
                try:
                    data.append([float(x) for x in parts])
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: {exc}") from None
        arr = np.array(data)
        return cls(q=q, **{f.name: arr[:, i] for i, f in enumerate(fields(TraceRow))})


@dataclass(frozen=True)
class HolderReport:
    """Interpolation bound ``||u||_{sigma,w}^rho <= sup|u| * ||u||_{q,w}^p``."""

    lhs_integral: float
    rhs_integral: float
    max_pointwise_excess: float

    @property
    def passed(self) -> bool:
        tol = 1e-10 * max(1.0, self.rhs_integral)
        return (
            self.lhs_integral <= self.rhs_integral + tol
            and self.max_pointwise_excess <= 1e-10
        )


def holder_check(trace: CriterionTrace) -> HolderReport:
    exps = derive_exponents(trace.q)
    lhs = trace.weak_sigma**exps.rho
    rhs = trace.sup_norm * trace.weak_q**exps.p
    scale = np.maximum(1.0, rhs)
    excess = float(np.max((lhs - rhs) / scale))
    lhs_int = float(np.trapezoid(lhs, trace.t)) if len(trace.t) > 1 else 0.0
    rhs_int = float(np.trapezoid(rhs, trace.t)) if len(trace.t) > 1 else 0.0
    return HolderReport(lhs_int, rhs_int, excess)


def epsilon_scaling(norm_rho_power: float, c_star: float, exps: DerivedExponents):
    """Zoom factor making the scaled history's norm power equal ``c_star``.

    Returns ``None`` when the norm vanishes (nothing to rescale).  The
    exponent ``1/(rho * (1 - 2/rho - 3/sigma))`` collapses to 1 through
    the exponent identity, but is spelled out to keep the provenance of
    the number visible.
    """
    if norm_rho_power < 0:
        raise ValueError("norm power must be nonnegative")
    if norm_rho_power == 0.0:
        return None
    exponent = 1.0 / (exps.rho * (1.0 - 2.0 / exps.rho - 3.0 / exps.sigma))
    return (c_star / norm_rho_power) ** exponent


def linfty_bound(norm_rho: float, a_lambda: float, exps: DerivedExponents) -> float:
    """Sup-norm bound ``A_lambda * (1 + ||u||^{1/(1-2/rho-3/sigma)})``."""
    exponent = 1.0 / (1.0 - 2.0 / exps.rho - 3.0 / exps.sigma)
    return a_lambda * (1.0 + norm_rho**exponent)


def a_lambda_from_reference(lam: float, a3: float) -> float:
    """Cylinder-size dependence ``A_lambda = (3/lambda)^{1/2} A_3``."""
    if not lam > 0:
        raise ValueError("cylinder parameter must be positive")
    return math.sqrt(3.0 / lam) * a3
