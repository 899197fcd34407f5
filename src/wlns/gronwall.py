"""Log-damped Gronwall bound: integrate H' = C * Psi(H) * B(t).

With ``Psi(r) = r(e + log(e + r))`` the primitive ``Phi(x) = int dr/Psi``
diverges as ``x -> inf`` (it dominates ``log(e + log(e + x))``), so
``Phi(H(t)) = C int B`` keeps H finite whenever the time integral of B is.
This module integrates the equality ODE, checks the implicit identity by
quadrature, and probes the divergence of the tail integral.

Everything involving ``Phi`` is computed after the substitution
``r = e^s``, which turns the integrand into ``1/(e + logaddexp(1, s))`` --
analytic, slowly varying, and immune to overflow at any H scale.  A
fixed 12-point Gauss-Legendre rule on bounded panels integrates it to
rounding, and Newton's method with that exact derivative inverts ``Phi``.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from wlns.field import write_table

E = math.e

#: H values beyond this are treated as numeric overflow of the bound.
H_CEILING = 1e300

_S_CEILING = math.log(H_CEILING)


def psi(r):
    """The damping nonlinearity ``r (e + log(e + r))``."""
    r = np.asarray(r, dtype=np.float64)
    out = r * (E + np.log(E + r))
    return float(out) if out.ndim == 0 else out


def _logaddexp1(s: float) -> float:
    """``np.logaddexp(1.0, s)`` bit for bit, without numpy's per-call cost."""
    if s == 1.0:
        return 1.0 + math.log(2.0)
    tmp = 1.0 - s
    if tmp > 0:
        return 1.0 + math.log1p(math.exp(-tmp))
    return s + math.log1p(math.exp(tmp))  # NaN lands here and stays NaN


def _damping_log(s: float) -> float:
    # d(Phi o exp)/ds = e^s / Psi(e^s) = 1/(e + log(e + e^s))
    return 1.0 / (E + _logaddexp1(s))


#: Longest panel of ``_phi_increment`` in s.  The damping's singularities
#: lie pi off the real axis, so a 12-point panel this long is exact to
#: rounding.
_PANEL = 2.0


@functools.cache
def _gl_rule() -> tuple:
    """(node, weight) pairs of the 12-point Gauss-Legendre rule on [-1, 1].

    Built at first use, so ``import wlns`` does not load ``numpy.polynomial``.
    """
    return tuple(zip(*(a.tolist() for a in np.polynomial.legendre.leggauss(12))))


def _gauss_legendre(f: Callable[[float], float], a: float, b: float) -> float:
    """``int_a^b f`` by one 12-point Gauss-Legendre panel."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * sum(w * f(mid + half * x) for x, w in _gl_rule())


def _phi_increment(s_lo: float, s_hi: float) -> float:
    """``int_{e^s_lo}^{e^s_hi} dr/Psi(r)``, evaluated in log space.

    Composite Gauss-Legendre on equal panels at most ``_PANEL`` long; the
    damping is analytic, so a fixed rule is spectrally accurate on it.
    """
    panels = math.ceil(abs(s_hi - s_lo) / _PANEL)
    if panels <= 1:
        return _gauss_legendre(_damping_log, s_lo, s_hi)
    width = (s_hi - s_lo) / panels
    edges = [s_lo + k * width for k in range(panels)] + [s_hi]
    return math.fsum(_gauss_legendre(_damping_log, a, b) for a, b in zip(edges, edges[1:]))


def _phi_invert(s_lo: float, target: float) -> float:
    """Return s with ``int_{s_lo}^{s} damping = target`` (target >= 0).

    Newton on ``Phi(s) - target`` with the exact derivative, the damping.
    The first iterate is the Newton step from ``s_lo``, where the residual
    is ``-target``.  Phi is increasing and concave, so every iterate stays
    below the root and climbs to it; the loop ends once the error left is
    below an ulp of s, or as soon as a step fails to increase s.  A value
    above ``2 * _S_CEILING`` is returned untouched so callers can flag
    overflow.
    """
    if target == 0.0:
        return s_lo
    s = s_lo + target * (E + _logaddexp1(s_lo))
    while s <= 2.0 * _S_CEILING:
        step = (target - _phi_increment(s_lo, s)) * (E + _logaddexp1(s))
        if not step > 0.0:
            return s
        s += step
        # Newton's error after a step is at most about step**2 / (2 (e + 1))
        if step * step <= math.ulp(s):
            return s
    return s


def psi_tail(m: Optional[float] = None, *, log_m: Optional[float] = None) -> float:
    """``int_1^M dr/Psi(r)``, with M given directly or as ``log M``.

    The keyword form reaches scales like ``M = e^(e^10)`` that have no
    float representation.  The result is checked against the comparison
    primitive ``log(e + log(e + M))`` before being returned.
    """
    if (m is None) == (log_m is None):
        raise ValueError("give exactly one of m and log_m")
    if log_m is None:
        if not 1.0 <= m < math.inf:
            raise ValueError("m must be finite and >= 1")
        log_m = math.log(m)
    elif not 0.0 <= log_m < math.inf:
        raise ValueError("log_m must be finite and >= 0")
    value = _phi_increment(0.0, log_m)
    floor = math.log(E + _logaddexp1(log_m)) - math.log(E + math.log(E + 1.0))
    if value < floor - 1e-9:
        raise AssertionError("tail quadrature fell below the comparison primitive")
    return value


def _as_signal(times, values) -> Tuple[np.ndarray, np.ndarray]:
    times = np.asarray(times, dtype=np.float64).ravel()
    values = np.asarray(values, dtype=np.float64).ravel()
    if times.size < 2 or times.shape != values.shape:
        raise ValueError("signal needs matching time/value arrays, at least two rows")
    if np.any(np.diff(times) <= 0):
        raise ValueError("signal times must increase strictly")
    if not np.all(np.isfinite(values)) or np.any(values < 0):
        raise ValueError("B must be finite and nonnegative")
    return times, values


@dataclass(frozen=True)
class BoundProblem:
    """Data for one Gronwall bound: the signal B, multiplier C, start value.

    B is either a piecewise-constant sample train (``b_times``/``b_values``,
    value i holding on ``[t_i, t_{i+1})``) or a callable ``b_func`` on
    ``[t_start, t_end]``.  Use the ``from_samples`` / ``from_function``
    constructors.
    """

    t_start: float
    t_end: float
    c: float
    h0: float
    b_times: Optional[np.ndarray] = None
    b_values: Optional[np.ndarray] = None
    b_func: Optional[Callable[[float], float]] = None
    _b_total: float = field(default=0.0, repr=False)

    def __post_init__(self):
        if not (0 < self.c < math.inf and 0 < self.h0 < math.inf):
            raise ValueError("c and h0 must be positive and finite")
        if not self.t_end > self.t_start:
            raise ValueError("t_end must exceed t_start")
        sampled = self.b_times is not None
        if sampled == (self.b_func is not None):
            raise ValueError("give either sampled B or a callable, not both")
        if sampled:
            total = float(np.sum(self.b_values[:-1] * np.diff(self.b_times)))
        else:
            import scipy.integrate
            total, _ = scipy.integrate.quad(self.b_func, self.t_start, self.t_end, limit=200)
            probe = np.linspace(self.t_start, self.t_end, 65)
            checks = np.array([self.b_func(t) for t in probe], dtype=np.float64)
            if not np.all(np.isfinite(checks)) or np.any(checks < 0):
                raise ValueError("B must be finite and nonnegative")
        if not math.isfinite(total):
            raise ValueError("the time integral of B must be finite")
        object.__setattr__(self, "_b_total", float(total))

    @classmethod
    def from_samples(cls, times, values, c: float, h0: float) -> "BoundProblem":
        times, values = _as_signal(times, values)
        return cls(
            t_start=float(times[0]),
            t_end=float(times[-1]),
            c=c,
            h0=h0,
            b_times=times,
            b_values=values,
        )

    @classmethod
    def from_function(
        cls, b: Callable[[float], float], t_start: float, t_end: float, c: float, h0: float
    ) -> "BoundProblem":
        return cls(t_start=float(t_start), t_end=float(t_end), c=c, h0=h0, b_func=b)

    @property
    def b_integral(self) -> float:
        """The full time integral of B over the problem window."""
        return self._b_total

    def b_at(self, t: float) -> float:
        if self.b_func is not None:
            return float(self.b_func(t))
        i = int(np.searchsorted(self.b_times, t, side="right")) - 1
        i = min(max(i, 0), self.b_times.size - 2)
        return float(self.b_values[i])

    def b_cumulative(self, times: np.ndarray) -> np.ndarray:
        """``int_{t_start}^{t} B`` at each requested time (exact for samples)."""
        times = np.asarray(times, dtype=np.float64)
        if self.b_func is not None:
            import scipy.integrate
            out = np.empty(times.size)
            acc, prev = 0.0, self.t_start
            for j, t in enumerate(times):
                piece, _ = scipy.integrate.quad(self.b_func, prev, t, limit=200)
                acc += piece
                out[j] = acc
                prev = t
            return out
        knots = self.b_times
        steps = np.concatenate([[0.0], np.cumsum(self.b_values[:-1] * np.diff(knots))])
        idx = np.clip(np.searchsorted(knots, times, side="right") - 1, 0, knots.size - 2)
        return steps[idx] + self.b_values[idx] * (times - knots[idx])


@dataclass(frozen=True)
class BoundSolution:
    """Output of ``solve_bound``: the H trace plus integration metadata."""

    problem: BoundProblem
    times: np.ndarray
    h: np.ndarray
    psi_mode: str
    method: str
    dt: Optional[float]
    overflowed: bool = False

    @property
    def note(self) -> str:
        if not self.overflowed:
            return ""
        return (
            "numeric overflow: H exceeded 1e300, contradicting the finite-integral "
            "theory; check the B signal"
        )


def _psi_for(mode: str) -> Callable[[float], float]:
    if mode == "log":
        return psi
    if mode == "identity":
        return lambda r: r
    raise ValueError("psi_mode must be 'log' or 'identity'")


def _rk4(problem: BoundProblem, dt: float, psi_mode: str) -> BoundSolution:
    psi_fn = _psi_for(psi_mode)
    span = problem.t_end - problem.t_start
    n = max(1, int(math.ceil(span / dt - 1e-12)))
    step = span / n
    times = problem.t_start + step * np.arange(n + 1)
    h = np.empty(n + 1)
    h[0] = problem.h0
    overflowed = False

    def rate(t, y):
        return problem.c * psi_fn(y) * problem.b_at(t)

    for i in range(n):
        t, y = times[i], h[i]
        k1 = rate(t, y)
        k2 = rate(t + 0.5 * step, y + 0.5 * step * k1)
        k3 = rate(t + 0.5 * step, y + 0.5 * step * k2)
        k4 = rate(t + step, y + step * k3)
        y_next = y + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not math.isfinite(y_next) or y_next > H_CEILING:
            h[i + 1 :] = math.inf
            overflowed = True
            break
        h[i + 1] = y_next
    return BoundSolution(problem, times, h, psi_mode, "rk4", step, overflowed)


def _exact_piecewise(problem: BoundProblem, dt: Optional[float], psi_mode: str) -> BoundSolution:
    knots = problem.b_times
    values = problem.b_values
    out_t = [float(knots[0])]
    out_h = [problem.h0]
    s_prev = math.log(problem.h0)
    overflowed = False
    for i in range(knots.size - 1):
        width = float(knots[i + 1] - knots[i])
        pieces = 1 if dt is None else max(1, int(math.ceil(width / dt - 1e-12)))
        sub = width / pieces
        for j in range(pieces):
            target = problem.c * float(values[i]) * sub
            if target == 0.0:
                s_next, h_next = s_prev, out_h[-1]
            elif psi_mode == "identity":
                s_next = s_prev + target
                h_next = out_h[-1] * math.exp(target)
            else:
                s_next = _phi_invert(s_prev, target)
                h_next = math.inf if s_next > _S_CEILING else math.exp(s_next)
            out_t.append(float(knots[i]) + sub * (j + 1))
            out_h.append(h_next)
            s_prev = s_next
            if s_next > _S_CEILING:
                overflowed = True
                break
        if overflowed:
            break
    h = np.asarray(out_h)
    return BoundSolution(problem, np.asarray(out_t), h, psi_mode, "exact", dt, overflowed)


def solve_bound(
    problem: BoundProblem,
    dt: Optional[float] = None,
    *,
    psi_mode: str = "log",
    method: Optional[str] = None,
) -> BoundSolution:
    """Integrate ``H' = C Psi(H) B(t)`` from ``H(t_start) = h0``.

    Sampled (piecewise-constant) B defaults to the exact method: on each
    constant piece the ODE is autonomous and ``Phi(H_next) - Phi(H_prev) =
    C b dt`` is solved for ``log H_next`` by Newton's method, so the only
    error is rounding.  ``dt`` then just densifies the output grid.
    Callable B defaults to classic RK4 with fixed step ``dt`` (required).
    ``psi_mode='identity'`` replaces Psi by r (debug mode; the solution is
    ``h0 exp(C int B)``).
    """
    _psi_for(psi_mode)
    if method is None:
        method = "rk4" if problem.b_func is not None else "exact"
    if method == "exact":
        if problem.b_times is None:
            raise ValueError("exact method needs a sampled (piecewise-constant) B")
        if dt is not None and not dt > 0:
            raise ValueError(f"dt must be > 0, got {dt!r}")
        return _exact_piecewise(problem, dt, psi_mode)
    if method == "rk4":
        if dt is None or not dt > 0:
            raise ValueError("rk4 needs dt > 0")
        return _rk4(problem, dt, psi_mode)
    raise ValueError("method must be 'exact' or 'rk4'")


def implicit_check(solution: BoundSolution) -> np.ndarray:
    """Deviation ``Phi(H(t)) - C int_{t_start}^t B`` at each output time.

    ``Phi`` is accumulated by Gauss-Legendre quadrature between consecutive
    H values (in log space), so the result measures how far the integrated
    trace drifts from the implicit identity the ODE preserves exactly.
    Entries where H has overflowed are NaN.
    """
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
        if solution.psi_mode == "identity":
            phi_acc += s - s_prev
        else:
            phi_acc += _phi_increment(s_prev, s)
        s_prev = s
        deviations[i] = phi_acc - problem.c * b_cum[i]
    return deviations


def bound_root(problem: BoundProblem) -> float:
    """H(t_end) predicted by the implicit identity alone.

    Solves ``Phi(H) = C int B`` for H by Newton's method; an oracle for the
    time steppers.  Raises on overflow past the H ceiling.
    """
    s = _phi_invert(math.log(problem.h0), problem.c * problem.b_integral)
    if s > _S_CEILING:
        raise OverflowError("implicit root exceeds the H ceiling")
    return math.exp(s)


def read_signal_csv(path) -> Tuple[np.ndarray, np.ndarray]:
    """Read a two-column (t, B) CSV; a non-numeric first row is a header.

    Malformed rows raise ``ValueError`` naming the 1-based line number.
    """
    times, values = [], []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise ValueError(f"line {lineno}: expected two columns, got {len(row)}")
            try:
                t, b = float(row[0]), float(row[1])
            except ValueError:
                if lineno == 1:
                    continue  # header
                raise ValueError(f"line {lineno}: could not parse '{','.join(row)}'")
            times.append(t)
            values.append(b)
    if len(times) < 2:
        raise ValueError("signal CSV needs at least two data rows")
    return _as_signal(times, values)


def write_bound_csv(path, solution: BoundSolution, deviations: Optional[np.ndarray] = None):
    """Write the (t, H, deviation) table for a solved bound."""
    if deviations is None:
        deviations = implicit_check(solution)
    write_table(path, {"t": solution.times, "H": solution.h, "deviation": deviations})
