import math
import random

import pytest

from lambdavar import (
    NONDECREASING,
    NONINCREASING,
    Cdf,
    MonotoneRC,
    dirac,
    dominates,
    from_samples,
    mixture,
    truncate_left,
    uniform,
)
from lambdavar.checks import dy, random_empirical


def grid_quantile(p, u, lo=-30.0, hi=30.0, n=60001):
    """Brute-force sup{x : F(x) <= u} on a fine grid."""
    step = (hi - lo) / (n - 1)
    best = lo
    for i in range(n):
        x = lo + i * step
        if p(x) <= u:
            best = x
    return best, step * (1 + 1e-9)


class TestEval:
    def test_dirac_left_of_atom(self):
        assert dirac(3.0)(2.9) == 0.0

    def test_dirac_right_continuity(self):
        assert dirac(3.0)(3.0) == 1.0

    def test_empirical_at_atom(self):
        assert from_samples([-10, -5, 0, 5])(-5) == 0.5

    def test_empirical_between_atoms(self):
        # 3 of 4 samples are <= 0
        assert from_samples([-10, -5, 0, 5])(0) == 0.75


class TestConstructors:
    def test_single_sample_is_point_mass(self):
        assert from_samples([0]) == dirac(0)

    def test_tie_merge(self):
        p = from_samples([1, 1, 2])
        assert p.atoms() == [(1.0, 2 / 3), (2.0, 1 - 2 / 3)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no data"):
            from_samples([])

    def test_uniform_midpoint(self):
        assert uniform(0, 1)(0.5) == 0.5

    def test_uniform_interpolation(self):
        p = uniform(-0.1, 0.9)
        assert p(0.0) == (0.0 - (-0.1)) / (0.9 - (-0.1))

    def test_uniform_is_continuous(self):
        assert uniform(0, 1).payload.is_continuous

    def test_uniform_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            uniform(1.0, 1.0)

    def test_cdf_validation(self):
        with pytest.raises(ValueError):
            Cdf(MonotoneRC(((0.0, 0.0, 0.5),), 0.0, 0.5))

    def test_a_zero_level_is_stored_as_positive_zero(self):
        # curves that compare == must print alike, and no jump is -0.0
        a = MonotoneRC([(0.0, 0.5, 0.0)], 0.5, -0.0, NONINCREASING)
        b = MonotoneRC([(0.0, 0.5, 0.0)], 0.5, 0.0, NONINCREASING)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        c = MonotoneRC([(0.0, -0.0, -0.0), (1.0, 0.5, 1.0)], -0.0, 1.0)
        levels = (a.jump(1.0), a(1.0), c.tail_left, *c.lefts, *c.values)
        assert [math.copysign(1.0, y) for y in levels] == [1.0] * 7

    def test_left_limit_at_the_first_breakpoint_is_positive_zero(self):
        # -0.0 levels and tails are stored as +0.0, the first left limit too
        up = MonotoneRC([(0.0, -0.0, -0.0), (1.0, 0.5, 1.0)], -0.0, 1.0)
        free = MonotoneRC([(0.0, -0.0, 0.5), (1.0, 0.5, -0.0)], -0.0, -0.0, None)
        assert [repr(c.left_limit(c.xs[0])) for c in (up, free)] == ["0.0", "0.0"]


class TestMixture:
    def test_weight_one_returns_first(self):
        p = uniform(0, 1)
        q = dirac(3)
        assert mixture(p, q, 1.0) == p
        assert mixture(p, q, 0.0) == q

    def test_two_point(self):
        assert mixture(dirac(0), dirac(1), 0.5)(0) == 0.5

    def test_uniform_with_atom(self):
        m = mixture(uniform(0, 1), dirac(0.5), 0.5)
        assert m(0.5) == 0.5 * 0.5 + 0.5 * 1.0

    def test_weight_out_of_range(self):
        with pytest.raises(ValueError):
            mixture(dirac(0), dirac(1), 1.5)

    def test_pointwise_identity_exact_on_jump_class(self):
        rng = random.Random(5)
        for _ in range(200):
            p = random_empirical(rng, pow2=True)
            q = random_empirical(rng, pow2=True)
            lam = rng.randint(0, 64) / 64
            m = mixture(p, q, lam)
            for _ in range(5):
                x = dy(rng, -10, 10)
                assert m(x) == lam * p(x) + (1 - lam) * q(x)

    def test_pointwise_identity_with_ramps(self):
        rng = random.Random(6)
        for _ in range(200):
            p = uniform(dy(rng, -4, 0), dy(rng, 0.25, 4))
            q = random_empirical(rng)
            lam = rng.random()
            m = mixture(p, q, lam)
            for _ in range(5):
                x = rng.uniform(-5, 5)
                assert m(x) == pytest.approx(lam * p(x) + (1 - lam) * q(x), abs=1e-12)


class TestTranslate:
    def test_zero_shift_identity(self):
        p = from_samples([1, 2, 3])
        assert p.translate(0.0) == p

    def test_point_mass_shift(self):
        assert dirac(1).translate(2) == dirac(3)

    def test_shift_improves(self):
        rng = random.Random(7)
        for _ in range(200):
            p = random_empirical(rng)
            m = dy(rng, 1 / 64, 4)
            assert dominates(p.translate(m), p)

    def test_group_action_exact_on_dyadics(self):
        rng = random.Random(8)
        for _ in range(200):
            p = random_empirical(rng)
            a = dy(rng, -4, 4)
            b = dy(rng, -4, 4)
            assert p.translate(a).translate(b) == p.translate(a + b)


class TestQuantileRight:
    def test_point_mass(self):
        assert dirac(3).quantile_right(0.5) == 3.0

    def test_identity_cdf(self):
        assert uniform(0, 1).quantile_right(0.25) == 0.25

    def test_empirical_against_grid(self):
        p = from_samples([-10, -5, 0, 5])
        q = p.quantile_right(0.25)
        ref, step = grid_quantile(p, 0.25)
        assert q == -5.0
        assert abs(q - ref) <= step

    def test_level_out_of_range(self):
        with pytest.raises(ValueError):
            uniform(0, 1).quantile_right(0.0)

    def test_random_against_grid(self):
        rng = random.Random(9)
        for _ in range(100):
            p = random_empirical(rng)
            u = rng.uniform(0.01, 0.99)
            q = p.quantile_right(u)
            ref, step = grid_quantile(p, u, lo=-12, hi=12, n=4001)
            assert abs(q - ref) <= step


class TestDominates:
    def test_reflexive(self):
        p = from_samples([1, 2])
        assert dominates(p, p)

    def test_point_masses(self):
        assert dominates(dirac(1), dirac(0))
        assert not dominates(dirac(0), dirac(1))

    def test_overlapping_uniforms(self):
        # at x = 0.75 the left uniform is already at 0.75 > 0.25
        assert not dominates(uniform(0, 1), uniform(0.5, 1.5))
        assert dominates(uniform(0.5, 1.5), uniform(0, 1))


class TestMonotonicity:
    def test_eval_monotone_random_pairs(self):
        rng = random.Random(10)
        for _ in range(200):
            p = random_empirical(rng)
            x = rng.uniform(-10, 10)
            y = x + rng.uniform(0.0, 5.0)
            assert p(x) <= p(y)


class TestTruncateLeft:
    def test_collapses_left_mass(self):
        p = from_samples([0, 1, 2, 3])
        q = truncate_left(p.payload, 1.5)
        assert q(1.4) == 0.0
        assert q(1.5) == 0.5
        assert q(3.0) == 1.0

    def test_beyond_support_is_point_mass(self):
        p = from_samples([0, 1])
        assert truncate_left(p.payload, 5.0) == dirac(5.0)

    def test_rejects_what_is_no_cdf(self, monkeypatch):
        monkeypatch.undo()  # drop the suite's re-validation of trusted curves
        dip = MonotoneRC(((0.0, 0.5, 0.5), (1.0, 0.2, 0.2), (2.0, 0.2, 1.0)), 0.5, 1.0, None)
        with pytest.raises(ValueError, match="orientation"):
            truncate_left(dip, -1.0)
        with pytest.raises(ValueError, match="finite"):
            truncate_left(uniform(0, 1).payload, math.nan)


class TestCanonicalForm:
    def test_collinear_point_dropped(self):
        a = MonotoneRC(((0.0, 0.0, 0.0), (0.5, 0.5, 0.5), (1.0, 1.0, 1.0)), 0.0, 1.0)
        b = MonotoneRC(((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)), 0.0, 1.0)
        assert a == b

    def test_zero_jump_at_tail_dropped(self):
        a = MonotoneRC(((-1.0, 0.3, 0.3), (0.0, 0.3, 0.9)), 0.3, 0.9)
        b = MonotoneRC(((0.0, 0.3, 0.9),), 0.3, 0.9)
        assert a == b

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            MonotoneRC(((0.0, 0.0, 1.5),), 0.0, 1.5)

    def test_orientation_enforced(self):
        with pytest.raises(ValueError):
            MonotoneRC(((0.0, 0.5, 0.2),), 0.5, 0.2)

    def test_strictly_increasing_abscissae(self):
        with pytest.raises(ValueError):
            MonotoneRC(((0.0, 0.0, 0.5), (0.0, 0.5, 1.0)), 0.0, 1.0)

    @pytest.mark.parametrize("orientation", [NONDECREASING, NONINCREASING, None])
    def test_nan_rejected(self, orientation):
        nan = math.nan
        with pytest.raises(ValueError):
            MonotoneRC(((0.0, 0.1, 0.1), (1.0, nan, 0.2)), 0.1, 0.2, orientation)
        with pytest.raises(ValueError):
            MonotoneRC(((0.0, 0.1, 0.1), (1.0, 0.2, 0.2)), 0.1, nan, orientation)
        with pytest.raises(ValueError):
            MonotoneRC((), nan, nan, orientation)

    def test_left_limits_follow_jumps(self):
        p = from_samples([0, 1])
        assert p.left_limit(1.0) == 0.5
        assert p.left_limit(0.5) == 0.5
        assert p.left_limit(0.0) == 0.0
        assert math.isclose(uniform(0, 1).left_limit(0.5), 0.5)
