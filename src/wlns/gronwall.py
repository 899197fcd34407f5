"""Log-damped Gronwall bound: integrate H' = C * Psi(H) * B(t).

With ``Psi(r) = r(e + log(e + r))`` the primitive ``Phi(x) = int dr/Psi``
diverges as ``x -> inf`` (it dominates ``log(e + log(e + x))``), so
``Phi(H(t)) = C int B`` keeps H finite whenever the time integral of B is.
This module integrates the equality ODE, checks the implicit identity by
quadrature, and probes the divergence of the tail integral.

Everything involving ``Phi`` is computed after the substitution
``r = e^s``, which turns the integrand into ``1/(e + logaddexp(1, s))`` --
analytic, slowly varying, and immune to overflow at any H scale.  One
array kernel, a fixed 12-point Gauss-Legendre rule on bounded panels,
integrates it to rounding over every span at once.  The exact bound for a
sampled B inverts ``Phi`` by one Newton iteration over all pieces together,
with that integrand as the exact derivative.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

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


#: Longest panel of ``_phi_increments`` in s.  The damping's singularities
#: lie pi off the real axis, so a 12-point panel this long is exact to
#: rounding.
_PANEL = 2.0


@functools.cache
def _gl_rule() -> tuple:
    """(nodes, weights) of the 12-point Gauss-Legendre rule on [-1, 1].

    Built at first use, so ``import wlns`` does not load ``numpy.polynomial``.
    """
    return tuple(a.tolist() for a in np.polynomial.legendre.leggauss(12))


def _gauss_legendre(f: Callable[[float], float], a: float, b: float) -> float:
    """``int_a^b f`` by one 12-point Gauss-Legendre panel."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * sum(w * f(mid + half * x) for x, w in zip(*_gl_rule()))


def _damping_panels(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``_gauss_legendre`` of the damping ``1/(e + logaddexp(1, s))`` on each panel [a, b].

    The weighted nodes are added one at a time in the rule's order, so each
    value has the bits of the scalar rule.
    """
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    acc = 0.0
    for x, w in zip(*_gl_rule()):
        acc = acc + w * (1.0 / (E + np.logaddexp(1.0, mid + half * x)))
    return half * acc


def _phi_increments(lo, hi) -> np.ndarray:
    """``int_{e^lo}^{e^hi} dr/Psi(r)`` for each pair of finite log-space ends.

    Composite Gauss-Legendre on equal panels at most ``_PANEL`` long; the
    damping is analytic, so a fixed rule is spectrally accurate on it.  The
    panels of a long span are added with ``math.fsum``.
    """
    lo, hi = np.atleast_1d(np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64))
    panels = np.ceil(np.abs(hi - lo) / _PANEL)
    out = _damping_panels(lo, hi)
    long = np.flatnonzero(panels > 1)
    if long.size:
        counts = panels[long].astype(np.intp)
        ends = np.cumsum(counts)
        k = np.arange(ends[-1]) - np.repeat(ends - counts, counts)
        width = (hi[long] - lo[long]) / panels[long]
        a = np.repeat(lo[long], counts) + k * np.repeat(width, counts)
        b = np.append(a[1:], 0.0)
        b[ends - 1] = hi[long]
        out[long] = [math.fsum(p.tolist()) for p in np.split(_damping_panels(a, b), ends[:-1])]
    return out


def _phi_solve(s0: float, targets) -> Tuple[np.ndarray, np.ndarray]:
    """Return (s, rest) with ``Phi(s0, s_i + rest_i) = targets[0] + ... + targets[i]``.

    One Newton iteration over all rows at once.  Row i's residual is the
    running sum of the local defects ``targets[j] - Phi(s_{j-1}, s_j)``,
    with the targets scaled by the rule's own weight sum over 2; Phi
    telescopes, so the Jacobian is diagonal, the damping at s_i.  Every
    row starts at the Newton step from ``s0`` and, Phi being increasing and
    concave, climbs to its root from below; a row stops once the error left
    is below an ulp of s, or as soon as a step fails to increase it.  The
    step left at the final s is returned as ``rest``, the part of the root
    below an ulp of s.  The first row whose iterate passes
    ``2 * _S_CEILING`` ends s untouched, so callers can flag overflow:
    every later root lies past it.
    """
    targets = np.asarray(targets, dtype=np.float64)
    total = np.cumsum(targets)
    # the weights add up to 2 (1 + bias) in doubles, a factor every increment carries
    bias = math.fsum([*_gl_rule()[1], -2.0]) / 2.0
    s = np.where(total > 0.0, s0 + total * (E + _logaddexp1(s0)), s0)
    live = np.ones(s.size, dtype=bool)
    while True:
        past = np.flatnonzero(s > 2.0 * _S_CEILING)
        if past.size:
            s, live = s[: past[0] + 1], live[: past[0]]
        head = s[: live.size]
        defects = targets[: live.size] - _phi_increments(np.append(s0, head)[:-1], head)
        step = (np.cumsum(defects) + bias * total[: live.size]) * (E + np.logaddexp(1.0, head))
        if not live.any():
            return s, step
        live &= step > 0.0
        head[live] += step[live]
        # Newton's error after a step is at most about step**2 / (2 (e + 1))
        live &= step * step > np.spacing(np.abs(head))


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
    value = float(_phi_increments(0.0, log_m)[0])
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
    overflowed: bool = False

    @property
    def note(self) -> str:
        if not self.overflowed:
            return ""
        return (
            "numeric overflow: H exceeded 1e300, contradicting the finite-integral "
            "theory; check the B signal"
        )


def _rk4(problem: BoundProblem, dt: float) -> BoundSolution:
    span = problem.t_end - problem.t_start
    n = max(1, int(math.ceil(span / dt - 1e-12)))
    step = span / n
    times = problem.t_start + step * np.arange(n + 1)
    h = np.empty(n + 1)
    h[0] = problem.h0
    overflowed = False

    def rate(t, y):
        return problem.c * psi(y) * problem.b_at(t)

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
    return BoundSolution(problem, times, h, overflowed)


@np.errstate(over="ignore")  # an infinite row count or target is refused or flagged below
def _exact_piecewise(problem: BoundProblem, dt: Optional[float]) -> BoundSolution:
    knots = problem.b_times
    widths = np.diff(knots)
    counts = np.ones(widths.size) if dt is None else np.maximum(1.0, np.ceil(widths / dt - 1e-12))
    try:  # a dt fine enough asks for more rows than an array can index
        with np.errstate(invalid="raise"):
            piece = np.repeat(np.arange(widths.size), counts.astype(np.intp))
    except (ArithmeticError, MemoryError, ValueError):
        raise MemoryError(f"{1.0 + counts.sum():.17g} output rows do not fit in memory") from None
    sub = (widths / counts)[piece]
    nth = np.arange(1, piece.size + 1) - (np.cumsum(counts) - counts)[piece]
    times = np.append(knots[0], knots[piece] + sub * nth)
    targets = problem.c * problem.b_values[piece] * sub
    s, rest = _phi_solve(math.log(problem.h0), targets)
    past = np.flatnonzero(s > _S_CEILING)
    rows = past[0] if past.size else s.size
    # H = e^(s + rest), but rows before the first nonzero piece keep h0
    # itself: exp(log 3.0) is not 3.0
    h = np.exp(s[:rows])
    h = np.where(np.cumsum(targets[:rows]) > 0.0, h + h * rest[:rows], problem.h0)
    h = np.maximum.accumulate(np.append(problem.h0, h))
    if past.size:
        h = np.append(h, math.inf)
    return BoundSolution(problem, times[: h.size], h, bool(past.size))


def solve_bound(
    problem: BoundProblem,
    dt: Optional[float] = None,
    *,
    method: Optional[str] = None,
) -> BoundSolution:
    """Integrate ``H' = C Psi(H) B(t)`` from ``H(t_start) = h0``.

    Sampled (piecewise-constant) B defaults to the exact method: on each
    constant piece the ODE is autonomous, so ``Phi(H_i) = C int_0^{t_i} B``
    at every output time, solved for all ``log H_i`` at once by Newton's
    method; the only error is rounding.  ``dt`` then just densifies the
    output grid, and pieces of zero B carry H over unchanged.
    Callable B defaults to classic RK4 with fixed step ``dt`` (required).
    """
    if method is None:
        method = "rk4" if problem.b_func is not None else "exact"
    if method == "exact":
        if problem.b_times is None:
            raise ValueError("exact method needs a sampled (piecewise-constant) B")
        if dt is not None and not dt > 0:
            raise ValueError(f"dt must be > 0, got {dt!r}")
        return _exact_piecewise(problem, dt)
    if method == "rk4":
        if dt is None or not dt > 0:
            raise ValueError("rk4 needs dt > 0")
        return _rk4(problem, dt)
    raise ValueError("method must be 'exact' or 'rk4'")


def implicit_check(solution: BoundSolution) -> np.ndarray:
    """Deviation ``Phi(H(t)) - C int_{t_start}^t B`` at each output time.

    ``Phi`` is accumulated by Gauss-Legendre quadrature between consecutive
    H values (in log space), so the result measures how far the integrated
    trace drifts from the implicit identity the ODE preserves exactly.
    Entries where H has overflowed are NaN.
    """
    problem = solution.problem
    finite = np.isfinite(solution.h)
    rows = solution.h.size if finite.all() else int(np.argmin(finite))
    # math.log, not np.log: the two differ in the last bit on some inputs
    s = np.array([math.log(h) for h in solution.h[:rows].tolist()])
    s_prev = np.append(math.log(problem.h0), s)[:-1]
    phi = np.cumsum(_phi_increments(s_prev, s))
    deviations = np.full(solution.times.size, math.nan)
    deviations[:rows] = phi - problem.c * problem.b_cumulative(solution.times[:rows])
    return deviations


def bound_root(problem: BoundProblem) -> float:
    """H(t_end) predicted by the implicit identity alone.

    Solves ``Phi(H) = C int B`` for H by Newton's method; an oracle for the
    time steppers.  Raises on overflow past the H ceiling.
    """
    s, rest = _phi_solve(math.log(problem.h0), [problem.c * problem.b_integral])
    if s[0] > _S_CEILING:
        raise OverflowError("implicit root exceeds the H ceiling")
    h = math.exp(s[0])
    return h + h * float(rest[0])


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
