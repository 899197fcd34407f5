"""Tests for the log-damped Gronwall integrator."""

import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest
from conftest import scalar_implicit_check, scalar_phi_increment

import wlns.counterexample
from wlns.counterexample import DyadicSchedule, claim1_terms
from wlns.gronwall import (
    _S_CEILING,
    BoundProblem,
    _logaddexp1,
    _phi_increments,
    _phi_solve,
    bound_root,
    implicit_check,
    psi,
    psi_tail,
    read_signal_csv,
    solve_bound,
    write_bound_csv,
)

E = math.e
#: 40-digit mpmath references, written by tests/data/make_phi_reference.py
REFERENCE = json.loads((Path(__file__).parent / "data" / "phi_reference.json").read_text())


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def chain_signal(kind, seed):
    """The seeded chain signals of tests/data/make_phi_reference.py."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, 2001)
    if kind == "uniform":
        return t, rng.uniform(0.0, 2.0, 2001)
    return t, rng.lognormal(0.0, 1.0, 2001)


class TestPsi:
    def test_values(self):
        assert psi(0.0) == 0.0
        assert psi(1.0) == pytest.approx(E + math.log(E + 1.0), rel=1e-15)
        grid = np.linspace(0.0, 50.0, 200)
        assert np.all(np.diff(psi(grid)) > 0)

    def test_tail_at_one(self):
        assert psi_tail(1.0) == 0.0

    def test_tail_monotone_and_above_primitive(self):
        previous = 0.0
        for m in (2.0, 4.0, 16.0, 256.0, 1e6, 1e12):
            value = psi_tail(m)
            assert value > previous
            primitive = math.log(E + math.log(E + m)) - math.log(E + math.log(E + 1.0))
            assert value >= primitive
            assert psi_tail(2.0 * m) > value
            previous = value

    def test_tail_log_form_matches_direct(self):
        for m in (3.0, 50.0, 1e8):
            assert psi_tail(log_m=math.log(m)) == pytest.approx(psi_tail(m), rel=1e-12)

    def test_tail_probe_beyond_float_range(self):
        # M = e^(e^10): no float holds it, the log-substituted quadrature does
        value = psi_tail(log_m=math.exp(10.0))
        assert value >= 10.0 - math.log(2.0 * E + 1.0)
        assert value == pytest.approx(8.88921365631497, rel=1e-10)

    def test_tail_stays_a_python_float(self):
        for value in (psi_tail(3.0), psi_tail(log_m=math.exp(10.0))):
            assert type(value) is float

    def test_tail_argument_validation(self):
        with pytest.raises(ValueError):
            psi_tail()
        with pytest.raises(ValueError):
            psi_tail(2.0, log_m=1.0)
        with pytest.raises(ValueError):
            psi_tail(0.5)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                psi_tail(bad)
            with pytest.raises(ValueError, match="finite"):
                psi_tail(log_m=bad)


class TestPhiPrimitives:
    """The Gauss-Legendre increments and their Newton inverse."""

    def test_increments_and_inversions_match_reference(self):
        # the inversions are exact to rounding; brentq's xtol of 1e-13
        # left errors up to 2.3e-14 in this chain
        lo, hi, refs = zip(*REFERENCE["increments"])
        for got, ref in zip(_phi_increments(lo, hi), refs):
            assert got == pytest.approx(float(ref), rel=1e-15, abs=0.0)
        for s_lo, target, ref in REFERENCE["inversions"]:
            root = float(ref)
            assert abs(_phi_solve(s_lo, [target])[0][0] - root) <= 1e-15 * max(1.0, abs(root))

    def test_tail_matches_reference(self):
        for log_m, ref in REFERENCE["psi_tail"]:
            assert psi_tail(log_m=log_m) == pytest.approx(float(ref), rel=1e-15, abs=0.0)

    def test_additivity(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            a = rng.uniform(-50.0, 700.0)
            b, c = a + np.sort(10.0 ** rng.uniform(-9.0, 2.0, 2))
            whole, left, right = _phi_increments([a, a, b], [c, b, c])
            assert abs(left + right - whole) <= 4.0 * math.ulp(whole)

    def test_round_trip(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            s, target = rng.uniform(-50.0, 700.0), 10.0 ** rng.uniform(-12.0, math.log10(50.0))
            root = _phi_solve(s, [target])[0][0]
            if root > 2.0 * _S_CEILING:
                # the inverse stops past twice the ceiling, short of the root
                assert _phi_increments(s, 2.0 * _S_CEILING)[0] < target
                continue
            # a few ulp of the target, plus what one ulp of the root is worth
            slack = 4.0 * math.ulp(target) + math.ulp(root) / (E + _logaddexp1(s))
            assert abs(_phi_increments(s, root)[0] - target) <= slack

    def test_root_past_the_ceiling_is_returned(self):
        target = _phi_increments(0.0, _S_CEILING + 5.0)[0]
        assert _phi_solve(0.0, [target])[0][0] == pytest.approx(_S_CEILING + 5.0, rel=1e-14)
        assert _phi_solve(0.0, [2.0 * target])[0][0] > 2.0 * _S_CEILING
        # every later root lies past it too, so the solve ends there
        assert _phi_solve(0.0, [2.0 * target, 1.0, 1.0])[0].size == 1

    def test_zero_target_returns_start(self):
        for s in (-50.0, -0.0, 0.0, 1.0, 700.0):
            root, rest = _phi_solve(s, [0.0, 0.0, 0.0])
            assert bits(root) == bits([s, s, s]) and not rest.any()


class TestPhiKernel:
    """``_phi_increments`` and ``implicit_check`` against the scalar rule, bit for bit."""

    def test_increments_match_scalar_rule(self):
        rng = np.random.default_rng(20091217)
        lo = np.concatenate([rng.uniform(-50.0, 700.0, 400), rng.uniform(-5.0, 5.0, 200)])
        short = lo[:300] + 10.0 ** rng.uniform(-12.0, 0.2, 300)
        long = lo[300:400] + rng.uniform(2.0, 60.0, 100)
        backwards = lo[400:] - rng.uniform(0.0, 9.0, 200)
        # then a zero-length span, one panel exactly 2 long and the 11,014 panels of psi_tail
        lo = np.concatenate([lo, [3.5, 0.0, 0.0]])
        hi = np.concatenate([short, long, backwards, [3.5, 2.0, math.exp(10.0)]])
        want = [scalar_phi_increment(a, b) for a, b in zip(lo.tolist(), hi.tolist())]
        assert np.sum(np.ceil(np.abs(hi - lo) / 2.0) > 1) >= 200
        assert bits(_phi_increments(lo, hi)) == bits(want)
        assert psi_tail(log_m=math.exp(10.0)) == want[-1]

    @staticmethod
    def _solutions():
        t, b = chain_signal("uniform", 7)
        sampled = BoundProblem.from_samples(t[:301], b[:301], c=1.3, h0=0.5)
        smooth = BoundProblem.from_function(lambda x: 1.0 + math.sin(3.0 * x), 0.0, 1.0, 1.0, 1.0)
        blowup = BoundProblem.from_function(lambda x: 1.0, 0.0, 1.0, c=10.0, h0=1.0)
        overflow = BoundProblem.from_samples([0.0, 0.5, 1.0, 2.0], [2.0, 10.0, 1.0, 0.0], 1.0, 1.0)
        return [
            solve_bound(sampled),
            solve_bound(sampled, dt=1e-3),
            solve_bound(smooth, 1e-2),
            solve_bound(blowup, 1e-2),
            solve_bound(overflow, dt=0.05),
        ]

    def test_implicit_check_matches_scalar_loop(self):
        solutions = self._solutions()
        assert [sol.overflowed for sol in solutions] == [False] * 3 + [True] * 2
        for sol in solutions:
            assert bits(implicit_check(sol)) == bits(scalar_implicit_check(sol))
        tail = implicit_check(solutions[3])
        assert np.isnan(tail[-1]) and np.isfinite(tail[0])


class TestLogaddexp1:
    EDGES = [
        0.0, -0.0, 1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0),
        800.0, -800.0, 709.0, 710.0, -745.0, -746.0, 5e-324, -5e-324, 1e-310,
        1e308, -1e308, math.inf, -math.inf, math.nan,
    ]

    def test_bits_match_numpy(self):
        rng = np.random.default_rng(20091216)
        inputs = [
            *rng.normal(0.0, 5.0, 4000),
            *(1.0 + rng.normal(0.0, 1e-6, 2000)),
            *rng.uniform(-800.0, 800.0, 2000),
            *(rng.uniform(-1.0, 1.0, 500) * 1.7e308),
            *self.EDGES,
        ]
        with np.errstate(invalid="ignore"):  # numpy flags the NaN input
            for x in map(float, inputs):
                expected = float(np.logaddexp(1.0, x))
                assert struct.pack("d", _logaddexp1(x)) == struct.pack("d", expected), x


class TestScalarIntegrandCallers:
    """The counterexample's math integrand gives numpy's scalar results exactly."""

    @staticmethod
    def _outputs():
        report = claim1_terms(DyadicSchedule(q=6.0), 40)
        return report.terms, report.integrals

    def test_outputs_match_numpy_logaddexp(self, monkeypatch):
        fast = self._outputs()
        calls = []

        def numpy_logaddexp1(s):
            calls.append(s)
            return float(np.logaddexp(1.0, s))

        monkeypatch.setattr(wlns.counterexample, "_logaddexp1", numpy_logaddexp1)
        reference = self._outputs()
        assert len(calls) >= 40 * 12
        for got, want in zip(fast, reference):
            assert np.array_equal(got, want)


class TestBoundProblem:
    def test_sample_validation(self):
        with pytest.raises(ValueError):
            BoundProblem.from_samples([0.0, 0.0, 1.0], [1.0, 1.0, 1.0], c=1.0, h0=1.0)
        with pytest.raises(ValueError):
            BoundProblem.from_samples([0.0, 1.0], [-1.0, 0.0], c=1.0, h0=1.0)
        with pytest.raises(ValueError):
            BoundProblem.from_samples([0.0, 1.0], [math.inf, 0.0], c=1.0, h0=1.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BoundProblem.from_samples([0.0, 1.0], [1.0, 1.0], c=0.0, h0=1.0)
        with pytest.raises(ValueError):
            BoundProblem.from_samples([0.0, 1.0], [1.0, 1.0], c=1.0, h0=-2.0)
        with pytest.raises(ValueError):
            BoundProblem.from_function(lambda t: -1.0, 0.0, 1.0, c=1.0, h0=1.0)

    @pytest.mark.parametrize("c, h0", [(math.nan, 1.0), (1.0, math.nan)])
    def test_nan_parameters_rejected(self, c, h0):
        with pytest.raises(ValueError, match="c and h0 must be positive"):
            BoundProblem.from_samples([0.0, 1.0], [1.0, 1.0], c=c, h0=h0)

    @pytest.mark.parametrize("c, h0", [(math.inf, 1.0), (1.0, math.inf)])
    def test_infinite_parameters_rejected(self, c, h0):
        with pytest.raises(ValueError, match="c and h0 must be positive and finite"):
            BoundProblem.from_samples([0.0, 1.0], [1.0, 1.0], c=c, h0=h0)

    def test_b_integral_and_cumulative(self):
        prob = BoundProblem.from_samples(
            [0.0, 1.0, 3.0, 4.0], [2.0, 0.5, 1.0, 0.0], c=1.0, h0=1.0
        )
        assert prob.b_integral == pytest.approx(2.0 + 1.0 + 1.0, rel=1e-15)
        cum = prob.b_cumulative(np.array([0.0, 0.5, 2.0, 4.0]))
        np.testing.assert_allclose(cum, [0.0, 1.0, 2.5, 4.0], rtol=1e-15)


class TestSolveBound:
    def test_zero_signal_keeps_h0(self):
        prob = BoundProblem.from_samples([0.0, 0.5, 1.0], [0.0, 0.0, 0.0], c=2.0, h0=3.0)
        for method in ("exact", "rk4"):
            sol = solve_bound(prob, 0.1, method=method)
            np.testing.assert_array_equal(sol.h, np.full(sol.times.size, 3.0))
            assert np.all(implicit_check(sol) == 0.0)

    @pytest.mark.parametrize("dt", [None, 0.013])
    def test_zero_runs_carry_h_bit_for_bit(self, dt):
        b = [0.0, 0.0, 1.5, 0.0, 0.0, 0.0, 2.0, 0.0, 0.7, 0.0, 0.0]
        prob = BoundProblem.from_samples(np.linspace(0.0, 1.0, 11), b, c=1.0, h0=3.0)
        sol = solve_bound(prob, dt)
        assert sol.times.size == (11 if dt is None else 81)
        assert np.all(np.diff(sol.h) >= 0.0)
        zero = np.array([prob.b_at(t) == 0.0 for t in sol.times[:-1].tolist()])
        assert zero.sum() >= 5
        assert bits(sol.h[1:][zero]) == bits(sol.h[:-1][zero])
        assert np.all(sol.h[: np.argmax(~zero) + 1] == 3.0)
        assert np.all(np.diff(sol.h)[~zero] > 0.0)

    @pytest.mark.parametrize("tiny", [1e-300, 5e-324])
    @pytest.mark.parametrize("h0", [3.0, 8.151375368082697, 9.187270444142762])
    def test_near_zero_pieces_keep_h_nondecreasing(self, tiny, h0):
        # exp(log h0) lands above h0 for 3.0 and 9.187..., below it for 8.151...
        b = [tiny, tiny, 1.0, tiny, tiny, 0.5, tiny, 0.0]
        prob = BoundProblem.from_samples(np.linspace(0.0, 1.0, 8), b, c=1.0, h0=h0)
        for dt in (None, 0.05):
            sol = solve_bound(prob, dt)
            assert sol.h[0] == h0 and np.all(np.isfinite(sol.h))
            assert np.all(np.diff(sol.h) >= 0.0)
            tiny_rows = np.array([prob.b_at(t) < 1e-200 for t in sol.times[:-1].tolist()])
            assert np.all(np.diff(sol.h)[tiny_rows] <= np.spacing(sol.h[:-1][tiny_rows]))
            assert sol.h[-1] == pytest.approx(bound_root(prob), rel=1e-14)

    def test_constant_signal_matches_implicit_root(self):
        prob = BoundProblem.from_function(lambda t: 1.0, 0.0, 1.0, c=1.0, h0=1.0)
        sol = solve_bound(prob, 1e-3)
        assert sol.h[-1] == pytest.approx(bound_root(prob), rel=1e-6)

    def test_nondecreasing(self):
        rng = np.random.default_rng(11)
        times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 2.0, 8)), [2.0]])
        values = np.concatenate([rng.uniform(0.0, 3.0, 9), [0.0]])
        prob = BoundProblem.from_samples(times, values, c=1.0, h0=1.0)
        for method, dt in (("exact", None), ("rk4", 1e-3)):
            sol = solve_bound(prob, dt, method=method)
            assert np.all(np.diff(sol.h) >= 0.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_comparison_property(self, seed):
        rng = np.random.default_rng(seed)
        times = np.linspace(0.0, 1.5, 12)
        b1 = rng.uniform(0.0, 2.0, 12)
        b2 = b1 + rng.uniform(0.0, 1.0, 12)
        h1 = solve_bound(BoundProblem.from_samples(times, b1, c=1.2, h0=0.8)).h
        h2 = solve_bound(BoundProblem.from_samples(times, b2, c=1.2, h0=0.8)).h
        assert np.all(h1 <= h2 * (1.0 + 1e-12))

    def test_exact_mode_dense_grid_consistent(self):
        prob = BoundProblem.from_samples(
            [0.0, 0.7, 1.0, 2.0], [1.5, 0.3, 0.9, 0.0], c=1.1, h0=1.0
        )
        coarse = solve_bound(prob)
        dense = solve_bound(prob, dt=0.01)
        assert dense.times.size > coarse.times.size
        assert dense.h[-1] == pytest.approx(coarse.h[-1], rel=1e-10)

    def test_overflow_is_flagged(self):
        prob = BoundProblem.from_function(lambda t: 1.0, 0.0, 1.0, c=10.0, h0=1.0)
        sol = solve_bound(prob, 1e-3)
        assert sol.overflowed
        assert "numeric overflow" in sol.note
        assert math.isinf(sol.h[-1])
        sampled = BoundProblem.from_samples([0.0, 1.0, 2.0], [10.0, 10.0, 0.0], c=1.0, h0=1.0)
        sol2 = solve_bound(sampled)
        assert sol2.overflowed and math.isinf(sol2.h[-1])
        with pytest.raises(OverflowError):
            bound_root(sampled)

    def test_argument_validation(self):
        prob = BoundProblem.from_function(lambda t: 1.0, 0.0, 1.0, c=1.0, h0=1.0)
        with pytest.raises(ValueError):
            solve_bound(prob)  # rk4 needs dt
        with pytest.raises(ValueError):
            solve_bound(prob, 1e-2, method="exact")  # callable B has no pieces

    @pytest.mark.parametrize("dt", [0.0, -0.5, math.nan])
    def test_exact_rejects_nonpositive_dt(self, dt):
        prob = BoundProblem.from_samples([0.0, 0.5, 1.0], [1.0, 2.0, 0.0], c=1.0, h0=1.0)
        with pytest.raises(ValueError, match="dt must be > 0"):
            solve_bound(prob, dt)

    def test_rk4_rejects_nan_dt(self):
        prob = BoundProblem.from_function(lambda t: 1.0, 0.0, 1.0, c=1.0, h0=1.0)
        with pytest.raises(ValueError, match="rk4 needs dt > 0"):
            solve_bound(prob, math.nan)


class TestChainOracle:
    """The exact solve against 40-digit H on two benchmark-shaped signals."""

    @pytest.mark.parametrize("kind", ["uniform", "lognormal"])
    def test_h_matches_reference(self, kind):
        rows = [row for row in REFERENCE["chains"] if row[0] == kind]
        t, b = chain_signal(kind, rows[0][1])
        pieces = (b[:-1] * np.diff(t)).tolist()
        h = solve_bound(BoundProblem.from_samples(t, b, c=1.0, h0=1.0)).h
        assert len(rows) == 21
        for _, _, row, prefix, ref in rows:
            # the rebuilt signal is the one the references were computed from
            assert math.fsum(pieces[:row]) == pytest.approx(float(prefix), rel=1e-15, abs=0.0)
            assert abs(h[row] - float(ref)) <= 1e-15 * float(ref)


class TestImplicitCheck:
    def test_exact_mode_is_tight(self):
        rng = np.random.default_rng(3)
        times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 2.0, 6)), [2.0]])
        values = np.concatenate([rng.uniform(0.0, 2.0, 7), [0.0]])
        sol = solve_bound(BoundProblem.from_samples(times, values, c=1.3, h0=0.5))
        assert np.max(np.abs(implicit_check(sol))) <= 1e-10

    def test_smooth_rk4_small_deviation(self):
        prob = BoundProblem.from_function(
            lambda t: 1.0 + math.sin(3.0 * t), 0.0, 1.0, c=1.0, h0=1.0
        )
        sol = solve_bound(prob, 1e-3)
        assert np.max(np.abs(implicit_check(sol))) <= 1e-6

    def test_smooth_rk4_fourth_order(self):
        prob = BoundProblem.from_function(
            lambda t: 1.0 + math.sin(3.0 * t), 0.0, 1.0, c=1.0, h0=1.0
        )
        steps = (0.05, 0.025, 0.0125, 0.00625)
        devs = [
            np.max(np.abs(implicit_check(solve_bound(prob, dt)))) for dt in steps
        ]
        # halving dt at least quarters the deviation, and the fitted slope
        # sits at the scheme order
        assert all(a / b >= 4.0 for a, b in zip(devs, devs[1:]))
        slope = np.polyfit(np.log(steps), np.log(devs), 1)[0]
        assert slope >= 3.5

    def test_unaligned_jumps_drop_to_first_order(self):
        prob = BoundProblem.from_samples(
            [0.0, 0.335, 0.665, 1.0], [0.5, 2.0, 1.0, 0.0], c=1.0, h0=1.0
        )
        steps = (1 / 100, 1 / 200, 1 / 400, 1 / 800, 1 / 1600)
        devs = [
            np.max(np.abs(implicit_check(solve_bound(prob, dt, method="rk4"))))
            for dt in steps
        ]
        assert all(a > b for a, b in zip(devs, devs[1:]))
        slope = np.polyfit(np.log(steps), np.log(devs), 1)[0]
        assert 0.6 <= slope <= 2.2

    def test_overflowed_tail_is_nan(self):
        prob = BoundProblem.from_function(lambda t: 1.0, 0.0, 1.0, c=10.0, h0=1.0)
        deviations = implicit_check(solve_bound(prob, 1e-2))
        assert np.isnan(deviations[-1])
        assert np.isfinite(deviations[0])


class TestSingularProfileSignal:
    def test_h_stays_finite(self):
        # B carries the per-interval criterion mass of the dyadic schedule:
        # its time integral is finite, so the bound must stay finite even
        # though the amplitude blows up toward t_inf
        s = DyadicSchedule(q=6.0)
        report = claim1_terms(s, 3)
        times, values = [0.0], [0.0]
        for n in (1, 2, 3):
            lo, hi = s.interval(n)
            times.extend([lo, hi])
            values.extend([float(report.integrals[n - 1]) / (hi - lo), 0.0])
        times.append(0.999)
        values.append(0.0)
        prob = BoundProblem.from_samples(times, values, c=1.0, h0=1.0)
        assert prob.b_integral == pytest.approx(
            float(report.integral_partials[-1]), rel=1e-12
        )
        sol = solve_bound(prob)
        assert not sol.overflowed
        assert np.all(np.isfinite(sol.h))
        assert np.all(np.diff(sol.h) >= 0.0)
        assert sol.h[-1] == pytest.approx(bound_root(prob), rel=1e-9)
        assert np.max(np.abs(implicit_check(sol))) <= 1e-10


class TestCsv:
    def test_signal_roundtrip(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("t,B\n0.0,1.0\n0.5,2.0\n1.0,0.0\n")
        times, values = read_signal_csv(path)
        np.testing.assert_array_equal(times, [0.0, 0.5, 1.0])
        np.testing.assert_array_equal(values, [1.0, 2.0, 0.0])

    def test_headerless(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("0.0,1.0\n1.0,0.0\n")
        times, values = read_signal_csv(path)
        assert times.size == 2

    def test_malformed_reports_line(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("t,B\n0.0,1.0\noops,2.0\n1.0,0.0\n")
        with pytest.raises(ValueError, match="line 3"):
            read_signal_csv(path)
        path.write_text("t,B\n0.0,1.0,9.0\n")
        with pytest.raises(ValueError, match="line 2"):
            read_signal_csv(path)

    def test_bound_csv_layout(self, tmp_path):
        prob = BoundProblem.from_samples([0.0, 0.5, 1.0], [1.0, 0.5, 0.0], c=1.0, h0=1.0)
        sol = solve_bound(prob)
        path = tmp_path / "h.csv"
        write_bound_csv(path, sol)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,H,deviation"
        assert len(lines) == sol.times.size + 1
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 1.0
