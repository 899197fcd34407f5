"""Tests for the dyadic-amplitude profile and the criterion/Lorentz split."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from wlns.counterexample import (
    CounterexampleField,
    DyadicSchedule,
    _exp2,
    amplitude,
    amplitude_log2,
    check_disjoint,
    claim1_terms,
    claim2_lower_bound,
    closed_form_weak_norm,
    criterion_vs_lorentz,
    interval_index,
    intro_profile_criterion,
    required_half_width,
    weak_norm_constant,
    write_schedule_csv,
)
from wlns.field import Grid
from wlns.lorentz import weak_norm

LN2 = math.log(2.0)


class TestExp2:
    def test_half_integers_match_pow(self):
        for m in np.arange(-1073.5, 1024.0, 1.0).tolist():
            assert _exp2(m) == 2.0**m, m

    def test_saturation(self):
        assert _exp2(5000.0) == math.inf
        assert _exp2(-5000.0) == 0.0

    def test_double_range_edges(self):
        assert _exp2(1024.0) == math.inf
        assert _exp2(-1074.0) == 5e-324

    def test_below_smallest_subnormal_is_zero(self):
        # a plain ldexp would round this up to 5e-324
        assert _exp2(-1074.5) == 0.0


class TestSchedule:
    def test_exponent_tables(self):
        s = DyadicSchedule(q=6.0)
        assert s.p == 4.0
        assert s.m(1) == 0.5 and s.m(3) == 7.5 and s.m(0) == 0.0
        assert s.k(1) == 3.0 and s.k(0) == 0.0
        assert DyadicSchedule(q=4.0).k(1) == 5.0  # p = 8

    def test_intervals_ordered_and_disjoint(self):
        s = DyadicSchedule(q=6.0)
        previous_end = 0.0
        # beyond n = 3 the width 2^-k_n drops below float resolution at
        # t_n ~ 1 and the endpoints collapse; exact widths live in log2 space
        for n in range(1, 4):
            lo, hi = s.interval(n)
            assert previous_end <= lo < hi < s.t_inf
            previous_end = hi
        for n in range(4, 12):
            lo, hi = s.interval(n)
            assert previous_end <= lo <= hi < s.t_inf
            previous_end = hi
        widths = [s.width_log2(n) for n in range(1, 12)]
        assert all(b < a for a, b in zip(widths, widths[1:]))
        assert check_disjoint(s)
        assert check_disjoint(DyadicSchedule(q=8.9), n_max=10_000)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_deficit_squeeze_inside_intervals(self, seed):
        # within interval n the distance to t_inf is pinched between the
        # dyadic levels 2^-n - 2^-k_n and 2^-n
        rng = np.random.default_rng(seed)
        s = DyadicSchedule(q=5.0, t_inf=2.0)
        for n in range(1, 9):
            lo, hi = s.interval(n)
            for t in rng.uniform(lo, hi, size=5):
                deficit = s.t_inf - t
                assert deficit <= s.t_inf * 2.0 ** (-n) + 1e-15
                assert deficit >= s.t_inf * (2.0 ** (-n) - 2.0 ** (-s.k(n))) - 1e-15

    def test_validation(self):
        for q in (3.0, 9.0, 2.0):
            with pytest.raises(ValueError):
                DyadicSchedule(q=q)
        with pytest.raises(ValueError):
            DyadicSchedule(q=6.0, t_inf=0.0)
        with pytest.raises(ValueError):
            DyadicSchedule(q=6.0).interval(0)


class TestAmplitude:
    def test_interval_midpoints(self):
        s = DyadicSchedule(q=6.0)
        lo, hi = s.interval(1)
        assert amplitude(s, 0.5 * (lo + hi)) == pytest.approx(2.0**0.5, rel=1e-15)
        lo, hi = s.interval(3)
        assert amplitude(s, 0.5 * (lo + hi)) == pytest.approx(2.0**7.5, rel=1e-15)

    def test_off_between_intervals(self):
        s = DyadicSchedule(q=6.0)
        assert amplitude(s, 0.7) == 0.0  # between intervals 1 and 2
        assert amplitude(s, 0.25) == 0.0  # before the first interval
        assert amplitude_log2(s, 0.7) == -math.inf
        # interval endpoints are off (open intervals)
        assert amplitude(s, 0.5) == 0.0

    def test_interval_index(self):
        s = DyadicSchedule(q=6.0)
        assert interval_index(s, 0.6) == 1
        assert interval_index(s, 0.7) is None
        lo, hi = s.interval(3)
        assert interval_index(s, 0.5 * (lo + hi)) == 3

    def test_rejects_times_outside_domain(self):
        s = DyadicSchedule(q=6.0)
        for t in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                amplitude(s, t)


class TestClosedFormWeakNorm:
    def test_zero_amplitude(self):
        s = DyadicSchedule(q=6.0)
        values = closed_form_weak_norm(s, 0.7)
        assert values.literal == 0.0 and values.corrected == 0.0 and values.sup_norm == 0.0

    def test_constant_ratio(self):
        # corrected/literal is the sharp prefactor; at q = 6 it is
        # (4 pi/3)^(1/6) * 2^(-1/2)
        s = DyadicSchedule(q=6.0)
        lo, hi = s.interval(2)
        values = closed_form_weak_norm(s, 0.5 * (lo + hi))
        expected = (4.0 * math.pi / 3.0) ** (1.0 / 6.0) / math.sqrt(2.0)
        assert values.corrected / values.literal == pytest.approx(expected, rel=1e-12)
        assert weak_norm_constant(6.0) == pytest.approx(expected, rel=1e-12)

    def test_literal_matches_hand_value(self):
        s = DyadicSchedule(q=6.0)
        lo, hi = s.interval(2)
        t = 0.5 * (lo + hi)
        values = closed_form_weak_norm(s, t)
        deficit = s.t_inf - t
        assert values.literal == pytest.approx(8.0 * deficit ** (-0.25), rel=1e-12)
        assert values.sup_norm == pytest.approx(8.0 / math.sqrt(deficit), rel=1e-12)

    def test_grid_cross_check(self):
        # the sampled field's numerical weak norm should land on the
        # constant-corrected closed form, not the bare expression
        s = DyadicSchedule(q=6.0)
        lo, hi = s.interval(2)
        t = 0.5 * (lo + hi)
        closed = closed_form_weak_norm(s, t)
        box = 2.0 * required_half_width(s, t) * 1.05
        grid = Grid(128, length=box)
        x0 = (64 * grid.spacing,) * 3
        field = CounterexampleField(s, x0).sample(grid, t)
        measured = weak_norm(field, 6.0).value
        assert measured == pytest.approx(closed.corrected, rel=0.03)
        assert abs(measured / closed.literal - 1.0) > 0.08  # literal is off by c(q)

    def test_sup_norm_on_grid(self):
        s = DyadicSchedule(q=6.0)
        lo, hi = s.interval(2)
        t = 0.5 * (lo + hi)
        closed = closed_form_weak_norm(s, t)
        grid = Grid(64, length=8.0)
        x0 = (32 * grid.spacing,) * 3
        field = CounterexampleField(s, x0).sample(grid, t)
        assert field.values.max() == pytest.approx(closed.sup_norm, rel=0.01)

    def test_grid_refinement_order(self):
        s = DyadicSchedule(q=6.0)
        lo, hi = s.interval(2)
        t = 0.5 * (lo + hi)
        closed = closed_form_weak_norm(s, t)
        box = 2.0 * required_half_width(s, t) * 1.05
        errors, spacings = [], []
        for n in (48, 128):
            grid = Grid(n, length=box)
            x0 = ((n // 2) * grid.spacing,) * 3
            field = CounterexampleField(s, x0).sample(grid, t)
            errors.append(abs(weak_norm(field, 6.0).value / closed.corrected - 1.0))
            spacings.append(grid.spacing)
        order = math.log(errors[0] / errors[1]) / math.log(spacings[0] / spacings[1])
        assert order >= 1.0

    def test_field_vanishes_off_schedule(self):
        s = DyadicSchedule(q=6.0)
        f = CounterexampleField(s, (0.0, 0.0, 0.0))
        grid = Grid(8, length=4.0)
        assert np.all(f.sample(grid, 0.7).values == 0.0)
        assert f.value_at((1.0, 0.0, 0.0), 0.7) == 0.0
        assert f.value_at((0.0, 0.0, 0.0), 0.6) > 0.0


class TestClaim1:
    def test_first_term_by_hand(self):
        # q = 6: p = 4, m_1 = 1/2, k_1 = 3, so the correction is
        # (1 - 2^-2)^-1 = 4/3 and the damping log sees 2^1
        report = claim1_terms(DyadicSchedule(q=6.0), 1)
        expected = (4.0 / 3.0) / (math.e + math.log(math.e + 2.0))
        assert report.terms[0] == pytest.approx(expected, rel=1e-14)

    def test_term_times_n_squared_bracket(self):
        # lower bound: e + (n^2 + 1) ln 2 <= 2 n^2 ln 2 iff n^2 >= 1 + e/ln 2
        n0 = math.ceil(math.sqrt(1.0 + math.e / LN2))
        report = claim1_terms(DyadicSchedule(q=6.0), 1000)
        normalized = report.terms * report.ns.astype(float) ** 2
        assert np.all(normalized[report.ns >= n0] >= 1.0 / (2.0 * LN2))
        assert np.all(normalized <= 2.0 / LN2)
        assert normalized[1] == pytest.approx(0.70841552273492, rel=1e-10)
        assert normalized[1] < 1.0 / (2.0 * LN2)

    def test_terms_approach_inverse_log_two(self):
        report = claim1_terms(DyadicSchedule(q=6.0), 400)
        normalized = report.terms * report.ns.astype(float) ** 2
        assert normalized[-1] == pytest.approx(1.0 / LN2, rel=1e-3)

    def test_partial_sums_cauchy(self):
        report = claim1_terms(DyadicSchedule(q=6.0), 1000)
        assert report.partial_sums[999] - report.partial_sums[499] <= 3e-3
        assert np.all(np.diff(report.partial_sums) > 0)

    def test_exact_integrals_below_their_bounds(self):
        report = claim1_terms(DyadicSchedule(q=6.0), 60)
        assert np.all(report.integrals <= report.terms * (1 + 1e-12))
        # the bound tightens fast: by n = 3 the two agree to 5 digits
        ratio = report.integrals[2:] / report.terms[2:]
        assert np.all(ratio > 0.9999)

    def test_tail_upper_bound_caps_longer_runs(self):
        short = claim1_terms(DyadicSchedule(q=6.0), 200)
        long = claim1_terms(DyadicSchedule(q=6.0), 2000)
        assert long.partial_sums[-1] <= short.tail_upper_bound()
        assert long.total <= short.tail_upper_bound()

    def test_other_exponents_still_summable(self):
        for q in (4.0, 5.0, 7.0, 8.5):
            report = claim1_terms(DyadicSchedule(q=q), 300)
            assert np.all(np.isfinite(report.terms))
            assert report.partial_sums[-1] < report.tail_upper_bound()

    def test_rejects_empty_truncation(self):
        with pytest.raises(ValueError):
            claim1_terms(DyadicSchedule(q=6.0), 0)

    def test_integrals_match_reference(self):
        # 40-digit mpmath references, written by tests/data/make_phi_reference.py
        path = Path(__file__).parent / "data" / "phi_reference.json"
        rows = json.loads(path.read_text())["claim1"]
        report = claim1_terms(DyadicSchedule(q=6.0), 400)
        for q, n, ref in rows:
            assert q == 6.0
            expected = float(ref)
            assert abs(report.integrals[n - 1] - expected) <= 4.0 * math.ulp(expected), n


class TestClaim2:
    def test_comparison_closed_form(self):
        report = claim2_lower_bound(DyadicSchedule(q=6.0), 50, r=2.0)
        assert report.comparison_closed_form == pytest.approx(2.0**2.5 / 15.0, rel=1e-14)
        assert report.comparison_partial == pytest.approx(
            report.comparison_closed_form, abs=1e-12
        )

    def test_closed_form_past_the_float_range_of_its_powers(self):
        # 2^(2r) overflows from r = 512 on; the comparison series stays tiny and finite
        report = claim2_lower_bound(DyadicSchedule(q=6.0), 50, r=512.0)
        assert 0.0 < report.comparison_closed_form < 1e-100
        assert report.comparison_partial == pytest.approx(report.comparison_closed_form, rel=1e-12)
        assert np.all(np.isfinite(report.partial_sums))

    def test_partial_sums_diverge_linearly(self):
        report = claim2_lower_bound(DyadicSchedule(q=6.0), 50, r=2.0)
        assert report.partial_sums[-1] >= 45.0
        assert np.all(np.diff(report.partial_sums) > 0.5)
        assert np.all(report.terms > 0.0) and np.all(report.terms <= 1.0)
        assert report.terms[0] < 1.0  # strictly below until float saturation

    def test_ratio_exponent_identity(self):
        # (R_{n-1}/R_n)^r = 2^{r(-2n + 3/2 - 1/p)}
        s = DyadicSchedule(q=6.0)
        report = claim2_lower_bound(s, 10, r=3.0)
        for i, n in enumerate(report.ns):
            direct = 2.0 ** (3.0 * ((s.k(int(n) - 1) - s.k(int(n))) / s.p))
            assert report.comparison_terms[i] == pytest.approx(direct, rel=1e-12)

    def test_scales_with_t_inf(self):
        base = claim2_lower_bound(DyadicSchedule(q=6.0), 20, r=2.0)
        scaled = claim2_lower_bound(DyadicSchedule(q=6.0, t_inf=16.0), 20, r=2.0)
        np.testing.assert_allclose(
            scaled.partial_sums, 16.0**0.5 * base.partial_sums, rtol=1e-12
        )

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            claim2_lower_bound(DyadicSchedule(q=6.0), 50, r=1.0)
        with pytest.raises(ValueError):
            claim2_lower_bound(DyadicSchedule(q=6.0), 1, r=2.0)


class TestSeparation:
    def test_finite_criterion_vs_diverging_norms(self):
        report = criterion_vs_lorentz(DyadicSchedule(q=6.0), r=2.0, n_terms=40)
        assert np.all(np.diff(report.criterion_partials) > 0)
        assert report.criterion_partials[-1] <= report.criterion_upper_bound
        assert np.all(np.diff(report.time_norms) > 0)
        # the norm keeps growing while the criterion has visibly saturated
        assert report.time_norms[-1] > 2.0 * report.time_norms[len(report.time_norms) // 2]
        assert report.criterion_partials[-1] - report.criterion_partials[-2] < 0.05

    def test_log2_route_matches_direct_evaluator(self):
        report = criterion_vs_lorentz(
            DyadicSchedule(q=6.0), r=2.0, n_terms=16, checkpoints=(1, 2, 5, 10, 16)
        )
        assert np.all(np.isfinite(report.time_norms_direct))
        np.testing.assert_allclose(report.time_norms_direct, report.time_norms, rtol=1e-10)

    def test_direct_route_saturates_gracefully(self):
        report = criterion_vs_lorentz(
            DyadicSchedule(q=6.0), r=2.0, n_terms=40, checkpoints=(10, 40)
        )
        assert np.isfinite(report.time_norms_direct[0])
        assert math.isnan(report.time_norms_direct[1])
        assert np.all(np.isfinite(report.time_norms))

    @pytest.mark.parametrize(
        "q, r, t_inf, checkpoint",
        [
            (8.0, 30.0, 1.0, 6),  # the levels' r-th powers overflow
            (6.0, 128.0, 1.0, 3),
            (6.0, 300.0, 1.0, 2),
            (8.9, 1.5, 1000.0, 19),  # subnormal widths keep only a few bits
            (8.9, 2.0, 1000.0, 19),
        ],
    )
    def test_direct_route_is_nan_past_the_normal_range(self, q, r, t_inf, checkpoint):
        report = criterion_vs_lorentz(
            DyadicSchedule(q=q, t_inf=t_inf), r=r, n_terms=checkpoint, checkpoints=(checkpoint,)
        )
        assert math.isnan(report.time_norms_direct[0])
        assert np.isfinite(report.time_norms[0])

    @pytest.mark.parametrize("q", [4.0, 6.0, 8.0, 8.9])
    def test_direct_route_agrees_or_is_nan(self, q):
        agreed = 0
        for r in (1.5, 2.0, 4.0, 30.0, 128.0, 300.0):
            for t_inf in (1e-3, 1.0, 1000.0):
                report = criterion_vs_lorentz(
                    DyadicSchedule(q=q, t_inf=t_inf), r=r, n_terms=20, checkpoints=range(1, 21)
                )
                direct = report.time_norms_direct
                shown = ~np.isnan(direct)
                np.testing.assert_allclose(direct[shown], report.time_norms[shown], rtol=1e-9)
                agreed += int(np.count_nonzero(shown))
        assert agreed >= 120  # of the 360 cases

    def test_strong_time_norm_also_diverges(self):
        # r = p recovers the plain L^p time norm
        report = criterion_vs_lorentz(DyadicSchedule(q=6.0), r=4.0, n_terms=64)
        assert np.all(np.diff(report.time_norms) > 0)
        assert report.time_norms[-1] > 2.0 * report.time_norms[0]

    def test_single_interval_everything_finite(self):
        report = criterion_vs_lorentz(
            DyadicSchedule(q=6.0), r=2.0, n_terms=1, checkpoints=(1,)
        )
        assert np.isfinite(report.criterion_partials[0])
        assert np.isfinite(report.time_norms[0])
        assert np.isfinite(report.time_norms_direct[0])

    def test_rejects_checkpoints_outside_range(self):
        with pytest.raises(ValueError):
            criterion_vs_lorentz(DyadicSchedule(q=6.0), r=2.0, n_terms=5, checkpoints=(0, 5))
        with pytest.raises(ValueError):
            criterion_vs_lorentz(DyadicSchedule(q=6.0), r=2.0, n_terms=5, checkpoints=(6,))


class TestIntroProfileCriterion:
    def test_zero_amplitude(self):
        times = np.linspace(0.0, 0.9, 64)
        assert intro_profile_criterion(np.zeros(64), times, q=6.0, t0=1.0) == 0.0

    def test_matches_interval_integrals(self):
        # sampling the schedule amplitude inside each interval reproduces
        # the exact per-interval criterion integrals
        s = DyadicSchedule(q=6.0)
        exact = claim1_terms(s, 3)
        total = 0.0
        for n in (1, 2, 3):
            lo, hi = s.interval(n)
            pad = 1e-9 * (hi - lo)
            times = np.linspace(lo + pad, hi - pad, 200)
            values = np.full(times.shape, amplitude(s, 0.5 * (lo + hi)))
            total += intro_profile_criterion(values, times, q=6.0, t0=s.t_inf)
        assert total == pytest.approx(float(exact.integral_partials[-1]), rel=0.01)

    def test_constant_amplitude_diverges_in_log_log(self):
        # a constant amplitude is NOT admissible: the quadrature value keeps
        # climbing as the samples crowd the singular time
        values = []
        for depth in (2.0, 4.0, 6.0, 8.0):
            times = 1.0 - np.logspace(-1.0, -depth, 4001)
            a = np.full(times.shape, 2.0)
            values.append(intro_profile_criterion(a, times, q=6.0, t0=1.0))
        diffs = np.diff(values)
        assert np.all(diffs > 0.01)

    def test_validation(self):
        times = np.linspace(0.0, 0.5, 8)
        good = np.ones(8)
        with pytest.raises(ValueError):
            intro_profile_criterion(good[:4], times, q=6.0, t0=1.0)
        with pytest.raises(ValueError):
            intro_profile_criterion(-good, times, q=6.0, t0=1.0)
        with pytest.raises(ValueError):
            intro_profile_criterion(good, times[::-1], q=6.0, t0=1.0)
        with pytest.raises(ValueError):
            intro_profile_criterion(good, times, q=6.0, t0=0.4)


class TestScheduleCsv:
    def test_layout_and_roundtrip(self, tmp_path):
        path = tmp_path / "schedule.csv"
        write_schedule_csv(path, DyadicSchedule(q=6.0), n_terms=6, r=2.0)
        lines = path.read_text().splitlines()
        assert lines[0] == "n,m_n,k_n,t_n,t_n_star,term_n,partial_claim1,partial_claim2_r"
        assert len(lines) == 7
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == 0.5
        assert float(first[2]) == 3.0
        assert float(first[3]) == 0.5
        # widths shrink fast but stay ordered
        starts = [float(line.split(",")[3]) for line in lines[1:]]
        assert starts == sorted(starts)
