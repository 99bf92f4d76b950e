import math
import random
import sys

import pytest

from lambdavar import (
    AcceptanceFamily,
    BracketError,
    ExpNeg,
    InfeasibleProfileError,
    NONINCREASING,
    certainty_equivalent,
    constant_profile,
    dirac,
    dominates,
    entropic,
    from_samples,
    lambda_var,
    lambda_var_flat,
    mixture,
    piecewise_profile,
    risk_from_family,
    step_profile,
    translation_pair,
    truncate_left,
    uniform,
    value_at_risk,
    worst_case,
)
from lambdavar import dual
from lambdavar.checks import (
    dy,
    random_dominated_pair,
    random_empirical,
    random_profile,
    random_ramp_profile,
    random_step_stack,
)


def grid_first_violation(p, prof, lo=-20.0, hi=20.0, n=400001):
    """Brute-force inf{x : F(x) > profile(x)} on a fine grid."""
    step = (hi - lo) / (n - 1)
    for i in range(n):
        x = lo + i * step
        if p(x) > prof(x):
            return x, step
    raise AssertionError("no violation on the grid")


class TestLambdaVar:
    def test_point_mass(self):
        rng = random.Random(0)
        for _ in range(50):
            x0 = dy(rng, -6, 6)
            prof = random_profile(rng)
            assert lambda_var(dirac(x0), prof).value == -x0

    def test_step_uniform_example(self):
        p = uniform(-0.1, 0.9)
        prof = step_profile(0.1, 0.3, 0.0)
        report = lambda_var(p, prof)
        ref, step = grid_first_violation(p, prof, lo=-2, hi=2, n=40001)
        assert abs(report.violation_point - ref) <= step
        assert report.value == pytest.approx(-0.2, abs=1e-12)
        assert report.finiteness_case == "finite"

    def test_step_case_formula(self):
        rng = random.Random(1)
        for _ in range(300):
            p = random_empirical(rng)
            lo = rng.randint(1, 40) / 64
            hi = rng.randint(round(lo * 64), 60) / 64
            xbar = dy(rng, -8, 8)
            got = lambda_var(p, step_profile(lo, hi, xbar)).value
            if value_at_risk(p, lo) <= -xbar:
                assert got == value_at_risk(p, hi)
            else:
                assert got == value_at_risk(p, lo)

    def test_infeasible_profile_rejected(self):
        prof = piecewise_profile([(0.0, 0.2, 1.0)], (0.2, 1.0), "nondecreasing")
        with pytest.raises(InfeasibleProfileError, match=">= 1"):
            lambda_var(uniform(0, 1), prof)

    def test_witness_is_curve_intersection_when_continuous(self):
        rng = random.Random(2)
        checked = 0
        while checked < 50:
            p = uniform(dy(rng, -6, -1), dy(rng, 0, 6))
            prof = random_ramp_profile(rng)
            report = lambda_var(p, prof)
            x = report.violation_point
            if p.payload.jump(x) == 0.0 and prof.curve.jump(x) == 0.0 and p(x) > 0:
                assert p(x) == pytest.approx(prof(x), abs=1e-12)
                checked += 1

    def test_monotone_in_profile(self):
        # raising the tolerated probabilities can only lower the risk
        rng = random.Random(3)
        for _ in range(200):
            p = random_empirical(rng)
            prof1 = random_step_stack(rng, cap=40)
            bump = rng.randint(0, 63 - round(prof1.sup_value * 64)) / 64
            c = prof1.curve
            prof2 = piecewise_profile(
                [(x, l + bump, v + bump) for x, l, v in c.points],
                (c.tail_left + bump, c.tail_right + bump),
                c.orientation,
            ) if c.points else constant_profile(c.tail_left + bump)
            assert lambda_var(p, prof1).value >= lambda_var(p, prof2).value


class TestReductions:
    def test_var_examples(self):
        assert value_at_risk(dirac(-2.5), 0.1) == 2.5
        assert value_at_risk(from_samples([-10, -5, 0, 5]), 0.25) == 5.0

    def test_var_reduction_exact(self):
        rng = random.Random(4)
        for _ in range(200):
            p = random_empirical(rng)
            lam = rng.randint(1, 63) / 64
            assert lambda_var(p, constant_profile(lam)).value == value_at_risk(p, lam)

    def test_var_reduction_exact_on_continuous(self):
        rng = random.Random(5)
        for _ in range(200):
            p = uniform(dy(rng, -6, -1), dy(rng, 0, 6))
            lam = rng.randint(1, 63) / 64
            assert lambda_var(p, constant_profile(lam)).value == value_at_risk(p, lam)

    def test_worst_case_examples(self):
        assert worst_case(from_samples([-10, -5, 0, 5])) == 10.0
        assert worst_case(dirac(3.25)) == -3.25

    def test_worst_case_reduction_exact(self):
        rng = random.Random(6)
        for _ in range(200):
            p = random_empirical(rng)
            assert lambda_var(p, constant_profile(0.0)).value == worst_case(p)


class TestCertaintyEquivalent:
    def test_point_mass_inverts_exactly(self):
        assert certainty_equivalent(dirac(1.75), ExpNeg()) == -1.75

    @pytest.mark.parametrize(
        "x", [0.0, -0.0, 5e-324, -5e-324, sys.float_info.max, -sys.float_info.max]
    )
    def test_point_mass_keeps_the_bits_of_minus_x(self, x):
        assert repr(certainty_equivalent(dirac(x), ExpNeg())) == repr(-x)

    def test_two_point_exponential(self):
        p = mixture(dirac(0.0), dirac(-1.0), 0.5)
        expected = math.log((1.0 + math.e) / 2.0)
        assert certainty_equivalent(p, ExpNeg()) == pytest.approx(expected, abs=1e-11)

    def test_monotone_under_dominance(self):
        rng = random.Random(7)
        for _ in range(100):
            p, q = random_dominated_pair(rng)
            assert certainty_equivalent(p, ExpNeg()) <= certainty_equivalent(
                q, ExpNeg()
            ) + 1e-11

    def test_piecewise_linear_utility(self):
        f = dual.TestFunction(((-5.0, 1.0), (5.0, -1.0)))  # strictly decreasing ramp
        p = mixture(dirac(-1.0), dirac(1.0), 0.5)
        # integral is 0, and f^{-1}(0) = 0
        assert certainty_equivalent(p, f) == pytest.approx(0.0, abs=1e-11)

    def test_bisection_ends_where_an_ulp_exceeds_1e_12(self):
        # near 10**6 one ulp is about 1.2e-10; a loop that waits for a width
        # of 1e-12 stops moving between two adjacent floats and never ends
        f = dual.TestFunction(((1e6 - 5.0, 1.0), (1e6 + 5.0, -1.0)))
        p = from_samples([1e6, 1e6 + 1.0])
        assert certainty_equivalent(p, f) == -1e6 - 0.5

    def test_not_invertible(self):
        class Inconsistent:
            # claims far more area than its values allow, so the target
            # integral lands outside the range of the function
            def __call__(self, x):
                return max(-1.0, min(1.0, -x))

            def integral(self, u, v):
                return 10.0 * (v - u)

        with pytest.raises(ValueError, match="not invertible"):
            certainty_equivalent(uniform(0, 1), Inconsistent())


class TestEntropic:
    def test_point_mass(self):
        assert entropic(dirac(2.0)) == -2.0

    def test_two_point_formula(self):
        p = mixture(dirac(0.0), dirac(-1.0), 0.5)
        assert entropic(p) == pytest.approx(math.log((1 + math.e) / 2), abs=1e-14)

    def test_uniform_closed_form(self):
        # integral of exp(-x) on [0,1] is 1 - 1/e
        assert entropic(uniform(0, 1)) == pytest.approx(
            math.log(1 - math.exp(-1)), abs=1e-14
        )

    def test_cash_additive(self):
        rng = random.Random(8)
        for _ in range(100):
            p = random_empirical(rng, lo=-4, hi=4)
            m = dy(rng, -3, 3)
            assert entropic(p.translate(m)) == pytest.approx(
                entropic(p) - m, abs=1e-11
            )

    def test_agrees_with_certainty_equivalent(self):
        rng = random.Random(9)
        for _ in range(50):
            p = random_empirical(rng, lo=-4, hi=4)
            assert certainty_equivalent(p, ExpNeg()) == pytest.approx(
                entropic(p), abs=1e-11
            )


class TestFamilyOracle:
    def test_agrees_with_direct_scan(self):
        rng = random.Random(10)
        for _ in range(200):
            p = random_empirical(rng)
            prof = random_profile(rng)
            fam = AcceptanceFamily.from_profile(prof)
            assert risk_from_family(p, fam) == pytest.approx(
                lambda_var(p, prof).value, abs=1e-9
            )

    def test_worst_case_family_on_point_mass(self):
        fam = AcceptanceFamily.from_profile(constant_profile(0.0))
        assert risk_from_family(dirac(1.25), fam) == pytest.approx(-1.25, abs=1e-9)

    def test_step_family_on_uniform(self):
        fam = AcceptanceFamily.from_profile(step_profile(0.1, 0.3, 0.0))
        assert risk_from_family(uniform(-0.1, 0.9), fam) == pytest.approx(
            -0.2, abs=1e-9
        )

    def test_bracket_too_narrow(self):
        fam = AcceptanceFamily.from_profile(constant_profile(0.0))
        with pytest.raises(BracketError, match="widen"):
            risk_from_family(dirac(0.0), fam, m_lo=5.0, m_hi=10.0)
        with pytest.raises(BracketError, match="widen"):
            risk_from_family(dirac(0.0), fam, m_lo=-10.0, m_hi=-5.0)

    def test_table_family_rejecting_everywhere(self):
        member = truncate_left(uniform(3.0, 4.0).payload, 3.0).payload
        fam = AcceptanceFamily.from_table([(0.0, member)])
        assert risk_from_family(dirac(-10.0), fam, m_lo=-1.0, m_hi=0.0) == math.inf

    def test_flat_family_matches_direct(self):
        rng = random.Random(11)
        for _ in range(50):
            p = random_empirical(rng)
            prof = random_ramp_profile(rng, NONINCREASING)
            fam = AcceptanceFamily.flat_from_profile(prof)
            assert risk_from_family(p, fam) == pytest.approx(
                lambda_var(p, prof).value, abs=1e-9
            )


class TestFlatScan:
    def test_constant_profile_exact(self):
        rng = random.Random(12)
        for _ in range(100):
            p = random_empirical(rng)
            prof = constant_profile(rng.randint(0, 60) / 64)
            assert lambda_var_flat(p, prof).value == lambda_var(p, prof).value

    def test_random_decreasing_continuous(self):
        rng = random.Random(13)
        for _ in range(200):
            p = random_empirical(rng)
            prof = random_ramp_profile(rng, NONINCREASING)
            assert lambda_var_flat(p, prof).value == pytest.approx(
                lambda_var(p, prof).value, abs=1e-9
            )

    def test_point_mass_under_decreasing_profile(self):
        prof = piecewise_profile(
            [(-1.0, 0.9, 0.9), (1.0, 0.2, 0.2)], (0.9, 0.2), NONINCREASING
        )
        assert lambda_var_flat(dirac(0.0), prof).value == 0.0

    def test_increasing_profile_rejected(self):
        with pytest.raises(ValueError):
            lambda_var_flat(dirac(0.0), step_profile(0.1, 0.3, 0.0))

    def test_discontinuous_decreasing_rejected(self):
        prof = random_step_stack(random.Random(14), NONINCREASING)
        while prof.is_continuous:
            prof = random_step_stack(random.Random(15), NONINCREASING)
        with pytest.raises(ValueError):
            lambda_var_flat(dirac(0.0), prof)


class TestTranslation:
    def test_zero_shift(self):
        p = from_samples([-1, 0, 2])
        prof = step_profile(0.1, 0.3, 0.0)
        lhs, rhs = translation_pair(p, prof, 0.0)
        assert lhs == rhs

    def test_constant_profile_is_cash_additivity(self):
        rng = random.Random(16)
        for _ in range(100):
            p = random_empirical(rng)
            lam = rng.randint(1, 63) / 64
            alpha = dy(rng, -4, 4)
            lhs, rhs = translation_pair(p, constant_profile(lam), alpha)
            assert lhs == rhs == value_at_risk(p, lam) - alpha

    def test_step_uniform_both_sides_match_grid(self):
        p = uniform(-0.1, 0.9)
        prof = step_profile(0.1, 0.3, 0.0)
        lhs, rhs = translation_pair(p, prof, 1.0)
        ref, step = grid_first_violation(
            p.translate(1.0), prof, lo=-2, hi=3, n=50001
        )
        assert abs(-lhs - ref) <= step
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestGridDifferential:
    def test_violation_point_against_grid_scan(self):
        # independent oracle: first grid point where the CDF exceeds the
        # profile; the exact scanner may be earlier (slivers below grid
        # resolution) but never later, and its witness must be genuine
        rng = random.Random(314)
        lo, hi, n = -14.0, 14.0, 14001
        step = (hi - lo) / (n - 1)
        for _ in range(60):
            kind = rng.randrange(3)
            if kind == 0:
                p = random_empirical(rng)
            elif kind == 1:
                a = dy(rng, -6, 0)
                p = uniform(a, a + dy(rng, 0.25, 6))
            else:
                a = dy(rng, -6, 0)
                p = mixture(
                    uniform(a, a + dy(rng, 0.25, 6)),
                    random_empirical(rng),
                    rng.randint(1, 63) / 64,
                )
            prof = random_profile(rng)
            x_star = lambda_var(p, prof).violation_point
            first = next(
                lo + i * step
                for i in range(n)
                if p(lo + i * step) > prof(lo + i * step)
            )
            assert first >= x_star - step * 1.000001
            assert any(
                p(x_star + h) > prof(x_star + h)
                for h in (0.0, 1e-12, 1e-9, 1e-6, 1e-4)
            )


class TestOrderProperties:
    def test_monotone_on_dominated_pairs(self):
        rng = random.Random(17)
        for _ in range(200):
            p, q = random_dominated_pair(rng)
            prof = random_profile(rng)
            assert lambda_var(q, prof).value >= lambda_var(p, prof).value

    def test_quasi_convex_on_mixtures(self):
        rng = random.Random(18)
        for _ in range(200):
            p = random_empirical(rng, pow2=True)
            q = random_empirical(rng, pow2=True)
            lam = rng.randint(0, 64) / 64
            prof = random_profile(rng)
            assert lambda_var(mixture(p, q, lam), prof).value <= max(
                lambda_var(p, prof).value, lambda_var(q, prof).value
            )


class TestContinuityFromAbove:
    def test_truncation_sequences_converge_upward(self):
        rng = random.Random(19)
        for _ in range(20):
            p = random_empirical(rng)
            prof = constant_profile(rng.randint(0, 40) / 64)
            base = lambda_var(p, prof).value
            a = p.support_lower
            prev = -math.inf
            for n in range(1, 51):
                qn = truncate_left(p.payload, a + 0.02 / n)
                assert dominates(qn, p)
                val = lambda_var(qn, prof).value
                assert val >= prev
                assert val <= base
                prev = val
            assert abs(prev - base) < 1e-3


class TestContinuityFromBelowCounterexample:
    def test_fixture_values(self):
        prof = step_profile(0.1, 0.3, 0.0)
        for n in (1, 2, 5, 10, 100):
            pn = uniform(-0.1 - 1 / n, 0.9 - 1 / n)
            assert lambda_var(pn, prof).value == pytest.approx(1 / n, abs=1e-12)
        limit = lambda_var(uniform(-0.1, 0.9), prof).value
        assert limit == pytest.approx(-0.2, abs=1e-12)
        # the sequence limit is 0, so the jump equals the profile step height
        assert abs(0.0 - limit) == pytest.approx(0.3 - 0.1, abs=1e-12)
