import math

import numpy as np
import pytest

from wlns.criteria import (
    CriterionTrace,
    DerivedExponents,
    TraceRow,
    _cumulative_trapezoid,
    a_lambda_from_reference,
    damped_magnitude,
    derive_exponents,
    epsilon_scaling,
    evaluate_row,
    holder_check,
    integrand_lps,
    integrand_weaklog,
    integrand_zhoulei,
    linfty_bound,
    prodi_serrin_p,
    psi,
    psi_domination_check,
    TRACE_COLUMNS,
)
from wlns.field import Grid, ScalarField, VectorField
from wlns.lorentz import lebesgue_norm, weak_norm

E = math.e


class TestExponents:
    @pytest.mark.parametrize(
        "q,p,sigma,rho",
        [
            (6.0, 4.0, 7.5, 5.0),
            (4.0, 8.0, 4.5, 9.0),
            (5.0, 5.0, 6.0, 6.0),
        ],
    )
    def test_frozen_examples(self, q, p, sigma, rho):
        exps = derive_exponents(q)
        assert exps.p == pytest.approx(p, abs=1e-12)
        assert exps.sigma == pytest.approx(sigma, abs=1e-12)
        assert exps.rho == pytest.approx(rho, abs=1e-12)

    def test_identities_across_range(self):
        for q in np.linspace(3.05, 8.95, 60):
            exps = derive_exponents(q)
            assert 2.0 / exps.p + 3.0 / q == pytest.approx(1.0, abs=1e-12)
            lhs = 1.0 - 2.0 / exps.rho - 3.0 / exps.sigma
            assert lhs == pytest.approx(1.0 / exps.rho, abs=1e-12)
            # rho = p + 1 is the closed-form link between the two families
            assert exps.rho == pytest.approx(exps.p + 1.0, rel=1e-12)

    @pytest.mark.parametrize("q", [3.0, 2.0, 9.0, 12.0, -1.0])
    def test_out_of_range_rejected(self, q):
        with pytest.raises(ValueError):
            prodi_serrin_p(q)


class TestIntegrands:
    def test_weaklog_at_zero_sup(self):
        # log(e + 0) = 1 so the damping denominator is e + 1
        assert integrand_weaklog(0.0, 1.0, 4.0) == pytest.approx(1.0 / (E + 1.0), rel=1e-14)

    def test_weaklog_clean_log_point(self):
        # sup = e^2 - e makes log(e + sup) = 2 exactly
        value = integrand_weaklog(E**2 - E, 2.0, 4.0)
        assert value == pytest.approx(16.0 / (E + 2.0), rel=1e-14)

    def test_zhoulei_at_zero_sup(self):
        assert integrand_zhoulei(0.0, 3.0, 2.0) == pytest.approx(9.0 / 2.0, rel=1e-14)

    def test_lps_is_plain_power(self):
        assert integrand_lps(2.0, 4.0) == 16.0

    def test_overflowing_powers_read_inf(self):
        # 1e150 ** 4 leaves the float range, which a Python float reports by raising
        assert integrand_lps(1e150, 4.0) == math.inf
        assert integrand_zhoulei(1e150, 1e150, 4.0) == math.inf
        assert integrand_weaklog(1e150, 1e150, 4.0) == math.inf
        assert integrand_lps(1e-150, 4.0) == 0.0

    @pytest.mark.parametrize("p", [4.0, 8.0])
    def test_damping_decreases_with_sup(self, p):
        sups = np.linspace(0.0, 50.0, 40)
        zl = [integrand_zhoulei(s, 1.7, p) for s in sups]
        wl = [integrand_weaklog(s, 1.7, p) for s in sups]
        assert all(a > b for a, b in zip(zl, zl[1:]))
        assert all(a > b for a, b in zip(wl, wl[1:]))

    def test_weaklog_dominated_by_undamped_power(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            sup = float(rng.uniform(0, 100))
            wq = float(rng.uniform(0, 10))
            assert integrand_weaklog(sup, wq, 4.0) <= wq**4 / E

    def test_remark_integrand_on_indicator(self):
        # |u| = 2 on a ball: damped value is 2 / (e + log(e + 2)),
        # and the weak norm of an indicator multiple is value * measure^{1/q}
        grid = Grid(n=32, length=2 * np.pi)
        inside = np.zeros(grid.shape)
        inside[:16, :, :] = 2.0
        u = VectorField.from_arrays(grid, inside, np.zeros(grid.shape), np.zeros(grid.shape))
        q, p = 6.0, 4.0  # evaluate_row raises to p = 2q/(q - 3)
        measure = grid.volume / 2.0
        damped = 2.0 / (E + math.log(E + 2.0))
        expected = (damped * measure ** (1.0 / q)) ** p
        assert evaluate_row(u, q, t=0.0).i_remark == pytest.approx(expected, rel=1e-12)

    def test_damped_magnitude_below_original(self):
        rng = np.random.default_rng(3)
        values = rng.lognormal(0.0, 2.0, size=500)
        damped = damped_magnitude(values)
        assert np.all(damped <= values / (E + 1.0) + 1e-15)
        assert np.all(damped >= 0.0)


class TestPsi:
    def test_clean_value(self):
        r = E**2 - E
        assert psi(r) == pytest.approx(r * (E + 2.0), rel=1e-14)

    def test_superlinear(self):
        r = np.logspace(-3, 6, 200)
        assert np.all(np.diff(psi(r) / r) > 0)

    def test_domination_margin_positive(self):
        report = psi_domination_check()
        assert report.passed
        assert report.min_margin > 0.0

    def test_domination_on_custom_grid(self):
        report = psi_domination_check(np.logspace(-2, 12, 500))
        assert report.passed


def two_valued_vector(grid: Grid, lo: float, hi: float, split: int) -> VectorField:
    values = np.full(grid.shape, lo)
    values[:split, :, :] = hi
    zero = np.zeros(grid.shape)
    return VectorField.from_arrays(grid, values, zero, zero)


class TestEvaluateRow:
    def test_two_valued_field_oracle(self):
        grid = Grid(n=16, length=1.0)
        u = two_valued_vector(grid, 1.0, 3.0, 4)
        q = 6.0
        row = evaluate_row(u, q, t=0.25)
        assert row.t == 0.25
        assert row.sup_norm == pytest.approx(3.0, abs=1e-14)

        mu_hi = 0.25 * grid.volume
        weak = max(3.0 * mu_hi ** (1 / q), 1.0 * grid.volume ** (1 / q))
        strong = (3.0**q * mu_hi + 1.0 * (grid.volume - mu_hi)) ** (1 / q)
        assert row.weak_q == pytest.approx(weak, rel=1e-12)
        assert row.strong_q == pytest.approx(strong, rel=1e-12)
        assert row.i_lps == pytest.approx(strong**4, rel=1e-12)
        assert row.i_zl == pytest.approx(strong**4 / (1 + math.log(E + 3.0)), rel=1e-12)
        assert row.i_wlog == pytest.approx(weak**4 / (E + math.log(E + 3.0)), rel=1e-12)

        sigma = 7.5  # 3(q - 1)/2
        weak_sigma = max(3.0 * mu_hi ** (1 / sigma), 1.0 * grid.volume ** (1 / sigma))
        assert row.weak_sigma == pytest.approx(weak_sigma, rel=1e-12)

        def g(m):
            return m / (E + math.log(E + m))

        remark = max(g(3.0) * mu_hi ** (1 / q), g(1.0) * grid.volume ** (1 / q)) ** 4
        assert row.i_remark == pytest.approx(remark, rel=1e-12)

    def test_integrand_ordering_on_random_fields(self):
        # damped variants never exceed the classical integrand
        grid = Grid(n=12, length=2 * np.pi)
        rng = np.random.default_rng(29)
        for _ in range(20):
            u = VectorField.from_arrays(grid, *rng.normal(size=(3, *grid.shape)))
            row = evaluate_row(u, 6.0, t=0.0)
            assert row.i_zl <= row.i_lps + 1e-12
            assert row.i_wlog <= row.i_lps + 1e-12
            assert row.weak_q <= row.strong_q + 1e-12


class TestTrace:
    def make_trace(self, n_rows=6, seed=5):
        rng = np.random.default_rng(seed)
        rows = []
        for i in range(n_rows):
            sup = float(rng.uniform(0.5, 4.0))
            wq = float(rng.uniform(0.1, 1.0))
            sq = wq * float(rng.uniform(1.0, 1.5))
            wsig = float(rng.uniform(0.1, 1.0))
            rows.append(
                TraceRow(
                    t=0.1 * i,
                    sup_norm=sup,
                    weak_q=wq,
                    strong_q=sq,
                    weak_sigma=wsig,
                    i_lps=integrand_lps(sq, 4.0),
                    i_zl=integrand_zhoulei(sup, sq, 4.0),
                    i_wlog=integrand_weaklog(sup, wq, 4.0),
                    i_remark=float(rng.uniform(0.0, 1.0)),
                )
            )
        return CriterionTrace.from_rows(6.0, rows)

    def test_cumulative_matches_trapezoid(self):
        trace = self.make_trace()
        cum = trace.accumulated()
        assert cum["C_lps"][0] == 0.0
        manual = np.trapezoid(trace.i_lps, trace.t)
        assert cum["C_lps"][-1] == pytest.approx(manual, rel=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_cumulative_trapezoid_is_scipys(self, seed):
        from scipy.integrate import cumulative_trapezoid

        rng = np.random.default_rng(seed)
        for size in (1, 2, 3, 17, 400):
            x = np.cumsum(rng.exponential(rng.uniform(1e-3, 10.0), size)) - 5.0
            y = rng.normal(size=size) * 10.0 ** rng.uniform(-8, 8)
            expected = cumulative_trapezoid(y, x, initial=0.0)
            assert np.array_equal(_cumulative_trapezoid(y, x), expected)

    def test_single_row_accumulates_zero(self):
        cum = self.make_trace(n_rows=1).accumulated()
        assert all(np.array_equal(c, [0.0]) for c in cum.values())

    def test_csv_roundtrip_is_exact(self, tmp_path):
        trace = self.make_trace()
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        back = CriterionTrace.from_csv(path, q=6.0)
        for name in ("t", "sup_norm", "weak_q", "strong_q", "weak_sigma",
                     "i_lps", "i_zl", "i_wlog", "i_remark"):
            assert np.array_equal(getattr(trace, name), getattr(back, name))

    def test_csv_rewrite_is_byte_identical(self, tmp_path):
        trace = self.make_trace(seed=17)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        trace.to_csv(p1)
        CriterionTrace.from_csv(p1, q=6.0).to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_header_fixed(self, tmp_path):
        trace = self.make_trace()
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == ",".join(TRACE_COLUMNS)
        assert header.startswith("t,sup_norm,weak_q,strong_q,weak_sigma,I_lps")

    def test_malformed_csv_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(TRACE_COLUMNS) + "\n1.0,2.0\n")
        with pytest.raises(ValueError, match="line 2"):
            CriterionTrace.from_csv(path, q=6.0)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            CriterionTrace.from_rows(6.0, [])


class TestHolder:
    def test_single_level_field_is_exact(self):
        # for c * indicator the interpolation inequality is an identity
        grid = Grid(n=16, length=2.0)
        q = 6.0
        exps = derive_exponents(q)
        values = np.zeros(grid.shape)
        values[:5, :3, :] = 2.5
        m = ScalarField(grid, values)
        lhs = weak_norm(m, exps.sigma).value ** exps.rho
        rhs = 2.5 * weak_norm(m, q).value ** exps.p
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_pointwise_inequality_on_random_fields(self):
        grid = Grid(n=12, length=2 * np.pi)
        rng = np.random.default_rng(101)
        q = 6.0
        exps = derive_exponents(q)
        worst = -np.inf
        for _ in range(200):
            style = rng.integers(3)
            if style == 0:
                values = rng.normal(size=grid.shape)
            elif style == 1:
                values = rng.lognormal(0, 1.5, size=grid.shape)
            else:
                values = np.round(rng.uniform(0, 5, size=grid.shape))
            m = ScalarField(grid, np.abs(values))
            lhs = weak_norm(m, exps.sigma).value ** exps.rho
            rhs = m.max_abs() * weak_norm(m, q).value ** exps.p
            worst = max(worst, (lhs - rhs) / max(1.0, rhs))
        assert worst <= 1e-10

    def test_holder_check_on_evaluated_trace(self):
        grid = Grid(n=12, length=2 * np.pi)
        rng = np.random.default_rng(55)
        rows = [
            evaluate_row(
                VectorField.from_arrays(grid, *rng.normal(size=(3, *grid.shape))),
                6.0,
                t=0.05 * i,
            )
            for i in range(8)
        ]
        report = holder_check(CriterionTrace.from_rows(6.0, rows))
        assert report.passed
        assert report.lhs_integral <= report.rhs_integral + 1e-10


class TestScaling:
    def test_epsilon_exponent_collapses(self):
        exps = derive_exponents(6.0)
        # rho * (1 - 2/rho - 3/sigma) = 1, so the zoom is c_star / norm
        eps = epsilon_scaling(8.0, 2.0, exps)
        assert eps == pytest.approx(0.25, rel=1e-12)

    def test_zero_norm_needs_no_rescaling(self):
        exps = derive_exponents(6.0)
        assert epsilon_scaling(0.0, 2.0, exps) is None

    def test_scaled_norm_hits_target(self):
        exps = derive_exponents(4.5)
        norm, c_star = 37.2, 0.8
        eps = epsilon_scaling(norm, c_star, exps)
        scaled = norm * eps ** (exps.rho * (1 - 2 / exps.rho - 3 / exps.sigma))
        assert scaled == pytest.approx(c_star, rel=1e-12)

    def test_linfty_bound_exponent_is_rho(self):
        exps = derive_exponents(6.0)
        assert linfty_bound(2.0, 1.0, exps) == pytest.approx(1.0 + 2.0**5, rel=1e-12)

    def test_a_lambda_reference(self):
        assert a_lambda_from_reference(0.75, 1.5) == pytest.approx(3.0, rel=1e-14)
        assert a_lambda_from_reference(3.0, 1.5) == pytest.approx(1.5, rel=1e-14)
        with pytest.raises(ValueError):
            a_lambda_from_reference(0.0, 1.0)


def truncated_bump(grid: Grid, center: float, width: float) -> np.ndarray:
    x, y, z = grid.coordinates
    r2 = (x - center) ** 2 + (y - center) ** 2 + (z - center) ** 2
    values = np.exp(-r2 / (2 * width**2))
    values[r2 > (3.5 * width) ** 2] = 0.0
    return values


class TestTraceScalingInvariance:
    """The classical integral is invariant under the natural zoom.

    A compactly supported profile on a box of length 8 is compared with its
    zoom (amplitude x2, support halved, time sped up x4) on a box of length
    4.  With 2/p + 3/q = 1 the accumulated classical integrand matches; the
    weak norm itself scales by eps^{1-3/q}.  Tolerances are a few percent
    because the level sets are quantised by the mesh.
    """

    Q = 6.0
    EPS = 2.0

    def build_trace(self, grid, center, width, amplitude, times, rate):
        zero = np.zeros(grid.shape)
        profile = truncated_bump(grid, center, width)
        rows = []
        for t in times:
            g = amplitude / (1.0 + rate * t)
            u = VectorField.from_arrays(grid, g * profile, zero, zero)
            rows.append(evaluate_row(u, self.Q, t=t))
        return CriterionTrace.from_rows(self.Q, rows)

    def test_weak_norm_scales_and_integral_invariant(self):
        n = 48
        coarse = Grid(n=n, length=8.0)
        fine = Grid(n=n, length=4.0)
        times = np.linspace(0.0, 0.8, 9)
        base = self.build_trace(coarse, 4.0, 0.5, 1.0, times, rate=1.0)
        # zoomed copy: u_eps(x, t) = eps * u(eps x, eps^2 t)
        zoom = self.build_trace(
            fine, 2.0, 0.25, self.EPS, times / self.EPS**2, rate=self.EPS**2
        )

        expected = self.EPS ** (1.0 - 3.0 / self.Q)
        ratio = zoom.weak_q[0] / base.weak_q[0]
        assert ratio == pytest.approx(expected, rel=0.03)

        c_base = base.accumulated()["C_lps"][-1]
        c_zoom = zoom.accumulated()["C_lps"][-1]
        assert c_zoom == pytest.approx(c_base, rel=0.03)
