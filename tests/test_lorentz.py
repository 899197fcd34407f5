import warnings

import numpy as np
import pytest

from wlns.field import Grid, ScalarField, ball_mask
from wlns.lorentz import (
    DistributionFunction,
    compact_embedding_check,
    distribution,
    embedding_constant,
    layer_cake,
    lebesgue_norm,
    lemma_split_check,
    lorentz_time_norm,
    split_at_one,
    split_constants,
    weak_norm,
)


def random_positive(rng, size, style):
    """Assorted value distributions so ties, zeros and spikes all appear."""
    if style == 0:
        return rng.uniform(0, 3, size)
    if style == 1:
        return np.exp(rng.standard_normal(size))
    if style == 2:
        v = rng.integers(0, 6, size).astype(float) / 2.0
        return v
    v = rng.uniform(0, 1, size)
    v[rng.random(size) < 0.3] = 0.0
    v[rng.random(size) < 0.05] *= 50.0
    return v


class TestDistribution:
    def test_exhaustive_count_oracle(self):
        rng = np.random.default_rng(7)
        v = rng.integers(0, 5, size=27).astype(float)
        # frozen from an independent count: 13 of the 27 entries exceed 2
        assert distribution(v, 2.0) == pytest.approx(13.0)
        assert distribution(v, 2.0, cell_measure=0.5) == pytest.approx(6.5)

    def test_right_continuity_at_levels(self):
        v = np.array([1.0, 1.0, 2.0, 3.0])
        d = DistributionFunction.from_data(v)
        assert d(1.0) == 2.0          # strictly above 1
        assert d(1.0 - 1e-12) == 4.0  # left limit sees the level itself
        assert d(3.0) == 0.0

    def test_monotone_nonincreasing(self):
        rng = np.random.default_rng(3)
        v = random_positive(rng, 200, 3)
        d = DistributionFunction.from_data(v)
        alphas = np.linspace(0, v.max() * 1.1, 300)
        samples = [d(a) for a in alphas]
        assert all(a >= b for a, b in zip(samples, samples[1:]))

    def test_empty_region_measures_zero(self):
        g = Grid(n=8)
        f = ScalarField(g, np.ones((8, 8, 8)))
        empty = np.zeros((8, 8, 8), dtype=bool)
        assert distribution(f.values[empty], 0.5, cell_measure=g.cell_volume) == 0.0
        rep = weak_norm(f.values[empty], 2.0, cell_measure=g.cell_volume)
        assert rep.value == 0.0 and rep.domain_measure == 0.0


class TestWeakNorm:
    def test_two_valued_brute_force_oracle(self):
        # f = 3 on measure 2 and 1 on measure 6; dense alpha sweep gave
        # 4.242638919 approaching 3*sqrt(2) from below
        v = np.array([3.0] * 2 + [1.0] * 6)
        rep = weak_norm(v, 2.0)
        assert rep.value == pytest.approx(3.0 * np.sqrt(2.0), abs=1e-12)

    def test_indicator(self):
        # c * indicator of measure m has weak norm c * m^(1/q)
        v = np.zeros(40)
        v[:10] = 2.5
        rep = weak_norm(v, 3.0, cell_measure=0.25)
        assert rep.value == pytest.approx(2.5 * 2.5 ** (1 / 3))

    def test_constant_field(self):
        g = Grid(n=8, length=1.0)
        f = ScalarField(g, np.full((8, 8, 8), 0.7))
        rep = weak_norm(f, 4.0)
        assert rep.value == pytest.approx(0.7 * 1.0 ** (1 / 4))
        assert rep.domain_measure == pytest.approx(1.0)

    def test_dominated_by_lebesgue(self):
        rng = np.random.default_rng(11)
        for trial in range(50):
            v = random_positive(rng, 500, trial % 4)
            for q in (1.5, 2.0, 4.0):
                wk = weak_norm(v, q, cell_measure=0.1)
                st = lebesgue_norm(v, q, cell_measure=0.1)
                assert wk.value <= st.value * (1 + 1e-12)

    def test_scaling_by_positive_factor(self):
        rng = np.random.default_rng(5)
        v = random_positive(rng, 300, 1)
        q = 2.5
        a = weak_norm(v, q).value
        b = weak_norm(3.0 * v, q).value
        assert b == pytest.approx(3.0 * a, rel=1e-12)

    def test_radial_profile_matches_analytic_value(self):
        # |x - x0|^(-3/q) has a flat level profile: alpha * lam(alpha)^(1/q)
        # is (4*pi/3)^(1/q) at every level the grid resolves.  The profile
        # is singular, so the cells within a few spacings of x0 are zeroed:
        # below the cell scale the power law is not a simple function the
        # grid can represent, and those tie shells would otherwise dominate
        # the exact left-limit supremum by a scale-free few percent.
        q = 6.0
        g = Grid(n=64, length=16.0)
        c = 8.0
        X, Y, Z = g.coordinates
        rho = np.sqrt((X - c) ** 2 + (Y - c) ** 2 + (Z - c) ** 2)
        with np.errstate(divide="ignore"):
            values = rho ** (-3.0 / q)
        values[rho < 3 * g.spacing] = 0.0
        rep = weak_norm(ScalarField(g, values), q)
        assert rep.value == pytest.approx((4 * np.pi / 3) ** (1 / q), rel=0.02)


class TestLayerCake:
    def test_scaled_indicator(self):
        # f = 2 * chi_E with |E| = 1, p = 2: integral form gives 4
        v = np.zeros(8)
        v[:4] = 2.0
        rep = layer_cake(v, 2.0, cell_measure=0.25)
        assert rep.value**2 == pytest.approx(4.0, abs=1e-14)
        direct = lebesgue_norm(v, 2.0, cell_measure=0.25)
        assert direct.value**2 == pytest.approx(4.0, abs=1e-14)

    def test_matches_direct_sum_on_random_fields(self):
        rng = np.random.default_rng(2024)
        for trial in range(1000):
            v = random_positive(rng, rng.integers(2, 400), trial % 4)
            p = float(rng.uniform(0.5, 5.0))
            w = float(rng.uniform(0.01, 2.0))
            a = layer_cake(v, p, cell_measure=w).value
            b = lebesgue_norm(v, p, cell_measure=w).value
            assert a == pytest.approx(b, rel=1e-10, abs=1e-13)


def reference_lorentz_time_norm(signal, p, r, dt=None, lengths=None):
    """Direct evaluation: ``measure{g >= v}`` summed afresh for every level.

    Quadratic in the signal length; kept as the oracle for the table-based
    :func:`lorentz_time_norm`.  Returns ``(value, total measure)``.
    """
    values = np.asarray(signal, dtype=np.float64).ravel()
    if lengths is None:
        weights = np.full(values.shape, float(dt))
    else:
        weights = np.asarray(lengths, dtype=np.float64).ravel()
    total = float(weights.sum())
    levels = np.unique(values)
    pos = levels[levels > 0]
    if pos.size == 0:
        return 0.0, total
    geq = np.array([weights[values >= v].sum() for v in pos])
    if np.isinf(r):
        return float(np.max(pos * geq ** (1.0 / p))), total
    powers = pos**r
    prev = np.concatenate(([0.0], powers[:-1]))
    integral = (p / r) * float(np.sum((powers - prev) * geq ** (r / p)))
    return integral ** (1.0 / r), total


class TestLorentzTimeNorm:
    def test_matches_direct_reference(self):
        rng = np.random.default_rng(2024)
        for size in (1, 2, 9, 64, 500, 2000):
            for style in range(5):
                # style 4 is the all-zero signal
                v = random_positive(rng, size, style) if style < 4 else np.zeros(size)
                p = float(rng.uniform(1.2, 6.0))
                dt = float(rng.uniform(1e-3, 1.0))
                lengths = rng.uniform(1e-3, 1.0, size)
                for r in (1.5, 2.0, p, np.inf):
                    for cells in ({"dt": dt}, {"lengths": lengths}):
                        rep = lorentz_time_norm(v, p, r, **cells)
                        value, total = reference_lorentz_time_norm(v, p, r, **cells)
                        assert rep.value == pytest.approx(value, rel=1e-12, abs=0.0)
                        assert rep.domain_measure == pytest.approx(total, rel=1e-12, abs=0.0)

    def test_constant_signal(self):
        # analytic value c * T^(1/p) * (p/r)^(1/r); equals c*T^(1/p) iff r == p
        c, T, p, r = 2.0, 1.5, 4.0, 2.0
        rep = lorentz_time_norm(np.full(6, c), p, r, dt=T / 6)
        assert rep.value == pytest.approx(c * T ** (1 / p) * (p / r) ** (1 / r))
        same = lorentz_time_norm(np.full(6, c), p, p, dt=T / 6)
        assert same.value == pytest.approx(c * T ** (1 / p))

    def test_two_level_exact_oracle(self):
        # dense-quadrature oracle gave 3.4586546 (trapezoid, from below);
        # the exact layer sum evaluates to 3.458655276078155
        rep = lorentz_time_norm(
            np.array([3.0, 1.0]), 3.0, 1.5, lengths=[0.25, 1.0]
        )
        assert rep.value == pytest.approx(3.458655276078155, abs=1e-12)

    def test_reduces_to_lp_when_r_equals_p(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            v = np.abs(rng.standard_normal(30))
            p = float(rng.uniform(1.0, 4.0))
            a = lorentz_time_norm(v, p, p, dt=0.2).value
            b = lebesgue_norm(v, p, cell_measure=0.2).value
            assert a == pytest.approx(b, rel=1e-12)

    def test_infinite_r_is_weak_norm(self):
        v = np.array([3.0, 3.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        rep = lorentz_time_norm(v, 2.0, np.inf, dt=1.0)
        assert rep.value == pytest.approx(3.0 * np.sqrt(2.0))

    def test_monotone_in_signal(self):
        rng = np.random.default_rng(13)
        v = np.abs(rng.standard_normal(40))
        bigger = v + rng.uniform(0, 1, 40)
        a = lorentz_time_norm(v, 4.0, 2.0, dt=0.1).value
        b = lorentz_time_norm(bigger, 4.0, 2.0, dt=0.1).value
        assert b >= a

    def test_rejects_negative_signal(self):
        with pytest.raises(ValueError):
            lorentz_time_norm(np.array([1.0, -1.0]), 2.0, 2.0, dt=1.0)


class TestPowersPastTheFloatRange:
    """Norms that are floats although the powers they sum under- or overflow."""

    @pytest.mark.parametrize(
        "norm, want",
        [
            (lambda: lebesgue_norm([1e-136], 3.0), 1e-136),  # 1e-408 underflows
            (lambda: layer_cake([1e-136], 3.0), 1e-136),
            (lambda: lebesgue_norm([1e60], 6.0), 1e60),  # 1e360 overflows
            (lambda: layer_cake([1e60], 6.0), 1e60),
            # c * T^(1/p) * (p/r)^(1/r) of a constant signal
            (lambda: lorentz_time_norm([1e200], 4.0, 2.0, dt=1.0), 1e200 * np.sqrt(2.0)),
        ],
        ids=["lebesgue-under", "layer-cake-under", "lebesgue-over", "layer-cake-over",
             "lorentz-over"],
    )
    def test_single_value(self, norm, want):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert norm().value == pytest.approx(want, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("scale", [1e-150, 1e-100, 1e100, 1e150])
    def test_norms_scale_with_the_data(self, scale):
        rng = np.random.default_rng(5)
        v = random_positive(rng, 200, 1)
        norms = (
            lambda v, p: lebesgue_norm(v, p, cell_measure=0.5),
            lambda v, p: layer_cake(v, p, cell_measure=0.5),
            lambda v, p: lorentz_time_norm(v, p, 2.0, dt=0.5),
        )
        for p in (3.0, 6.0):
            for norm in norms:
                want = scale * norm(v, p).value
                assert norm(scale * v, p).value == pytest.approx(want, rel=1e-13, abs=0.0)


class TestEmbedding:
    def test_constant_matches_hand_value(self):
        assert embedding_constant(2.0, 3.0, 0.1) == pytest.approx(
            np.sqrt(2.0) * 0.1 ** (-0.5)
        )

    def test_no_violations_on_random_fields(self):
        rng = np.random.default_rng(404)
        for trial in range(500):
            v = random_positive(rng, rng.integers(8, 600), trial % 4)
            rep = compact_embedding_check(
                v, p=2.0, r=3.0, eps=0.1, cell_measure=float(rng.uniform(0.01, 1.0))
            )
            assert rep.passed, f"trial {trial}: {rep}"

    def test_region_restriction(self):
        g = Grid(n=16)
        rng = np.random.default_rng(5)
        f = ScalarField(g, np.abs(rng.standard_normal((16,) * 3)))
        mask = ball_mask(g, (np.pi, np.pi, np.pi), 1.5)
        rep = compact_embedding_check(
            f.values[mask], p=2.0, r=3.0, eps=0.25, cell_measure=g.cell_volume
        )
        assert rep.passed
        assert rep.domain_measure == pytest.approx(
            np.count_nonzero(mask) * g.cell_volume
        )


class TestSplit:
    def test_partition(self):
        rng = np.random.default_rng(21)
        v = rng.uniform(0, 3, 100)
        high, low = split_at_one(v)
        assert np.array_equal(high + low, v)
        assert np.all(np.abs(low) < 1.0)
        assert np.all((high == 0) | (np.abs(high) >= 1.0))

    def test_constants(self):
        c_high, c_low = split_constants(2.5, 2.0, 4.0)
        s_high = sum((2.0**2 - 1) * 2.0 ** ((2.0 - 2.5) * k) for k in range(1, 400))
        s_low = sum((2.0**4 - 1) * 2.0 ** ((2.5 - 4.0) * k) for k in range(1, 400))
        assert c_high == pytest.approx(s_high, rel=1e-12)
        assert c_low == pytest.approx(s_low, rel=1e-12)

    def test_no_violations_on_random_fields(self):
        rng = np.random.default_rng(808)
        for trial in range(500):
            v = random_positive(rng, rng.integers(8, 600), trial % 4)
            if trial % 5 == 0:
                v = v * 10  # push more mass above the unit level
            rep = lemma_split_check(
                v, r=2.5, r1=2.0, r2=4.0, cell_measure=float(rng.uniform(0.01, 1.0))
            )
            assert rep.passed, f"trial {trial}: {rep}"

    def test_all_ones_edge_case(self):
        rep = lemma_split_check(np.ones(50), r=2.5, r1=2.0, r2=4.0, cell_measure=0.1)
        assert rep.passed
        assert rep.low_power == 0.0
