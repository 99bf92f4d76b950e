import random

import pytest

from lambdavar import (
    AcceptanceFamily,
    InfeasibleProfileError,
    NONINCREASING,
    constant_profile,
    dirac,
    dominates,
    family_member,
    family_member_flat,
    from_samples,
    mixture,
    piecewise_profile,
    pointwise_leq,
    step_profile,
)
from lambdavar.checks import (
    dy,
    random_empirical,
    random_ramp_profile,
    random_step_stack,
)


class TestConstantProfile:
    def test_worst_case_profile(self):
        prof = constant_profile(0.0)
        assert prof(-100) == prof(100) == 0.0
        assert prof.is_feasible

    def test_level_everywhere(self):
        prof = constant_profile(0.05)
        for x in (-50, -1, 0, 2.5, 1000):
            assert prof(x) == 0.05

    def test_level_one_rejected(self):
        with pytest.raises(InfeasibleProfileError):
            constant_profile(1.0)


class TestStepProfile:
    def test_left_of_threshold(self):
        assert step_profile(0.1, 0.3, 0.0)(-0.001) == 0.1

    def test_right_continuity_at_threshold(self):
        assert step_profile(0.1, 0.3, 0.0)(0.0) == 0.3

    def test_decreasing_step_rejected(self):
        with pytest.raises(ValueError):
            step_profile(0.3, 0.1, 0.0)

    def test_top_level_capped(self):
        with pytest.raises(InfeasibleProfileError):
            step_profile(0.1, 1.0, 0.0)


class TestPiecewiseProfile:
    def test_canonical_equality_with_step(self):
        a = piecewise_profile([(0.0, 0.1, 0.3)], (0.1, 0.3), "nondecreasing")
        assert a == step_profile(0.1, 0.3, 0.0)

    def test_decreasing_orientation_accepted(self):
        prof = piecewise_profile(
            [(-1.0, 0.9, 0.9), (1.0, 0.05, 0.05)], (0.9, 0.05), NONINCREASING
        )
        assert prof.is_nonincreasing
        assert prof(-2) == 0.9 and prof(2) == 0.05

    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError):
            piecewise_profile(
                [(0.0, 0.1, 0.5), (1.0, 0.2, 0.2)], (0.1, 0.2), "nondecreasing"
            )


class TestShift:
    def test_zero_shift_identity(self):
        prof = step_profile(0.1, 0.3, 0.0)
        assert prof.shift(0.0) == prof

    def test_threshold_moves_left(self):
        assert step_profile(0.1, 0.3, 0.0).shift(2.0) == step_profile(0.1, 0.3, -2.0)

    def test_positive_shift_raises_increasing_profile(self):
        rng = random.Random(1)
        for _ in range(100):
            prof = random_step_stack(rng)
            alpha = dy(rng, 1 / 64, 3)
            shifted = prof.shift(alpha)
            for _ in range(5):
                x = dy(rng, -10, 10)
                assert shifted(x) >= prof(x)

    def test_shift_composition_exact(self):
        rng = random.Random(2)
        for _ in range(100):
            prof = random_step_stack(rng)
            a, b = dy(rng, -4, 4), dy(rng, -4, 4)
            assert prof.shift(a).shift(b) == prof.shift(a + b)


class TestFeasibility:
    def test_half_level(self):
        assert constant_profile(0.5).is_feasible

    def test_sup_one_flagged(self):
        prof = piecewise_profile([(0.0, 0.2, 1.0)], (0.2, 1.0), "nondecreasing")
        assert not prof.is_feasible

    def test_worst_case_feasible(self):
        assert constant_profile(0.0).is_feasible


class TestFamilyMember:
    def test_worst_case_is_indicator(self):
        member = family_member(constant_profile(0.0), 2.0)
        assert member == dirac(2.0).payload

    def test_one_from_level_on(self):
        rng = random.Random(3)
        for _ in range(50):
            prof = random_step_stack(rng)
            m = dy(rng, -5, 5)
            member = family_member(prof, m)
            assert member(m) == 1.0
            assert member(m + 3.0) == 1.0

    def test_profile_value_below_level(self):
        assert family_member(constant_profile(0.25), 0.0)(-1.0) == 0.25

    def test_nonincreasing_in_level_and_left_continuous(self):
        rng = random.Random(4)
        for _ in range(100):
            prof = random_step_stack(rng)
            m = dy(rng, -5, 5)
            step = dy(rng, 1 / 64, 2)
            lo, hi = family_member(prof, m), family_member(prof, m + step)
            assert pointwise_leq(hi, lo)
            x = dy(rng, -8, 8)
            vals = [family_member(prof, m - h)(x) for h in (1e-3, 1e-6, 1e-9)]
            target = family_member(prof, m)(x)
            assert abs(vals[-1] - target) <= 1e-8


class TestFlatFamilyMember:
    def test_constant_profile_agrees(self):
        prof = constant_profile(0.3)
        for m in (-2.0, 0.0, 1.5):
            assert family_member_flat(prof, m) == family_member(prof, m)

    def test_flat_below_member_for_decreasing(self):
        rng = random.Random(5)
        for _ in range(50):
            prof = random_ramp_profile(rng, NONINCREASING)
            m = dy(rng, -5, 5)
            flat = family_member_flat(prof, m)
            member = family_member(prof, m)
            for _ in range(5):
                x = m - dy(rng, 0, 5)
                assert flat(x) <= member(x)

    def test_equal_to_one_from_level(self):
        prof = random_ramp_profile(random.Random(6), NONINCREASING)
        flat = family_member_flat(prof, 1.0)
        member = family_member(prof, 1.0)
        assert flat(1.0) == member(1.0) == 1.0

    def test_increasing_profile_rejected(self):
        with pytest.raises(ValueError):
            family_member_flat(step_profile(0.1, 0.3, 0.0), 0.0)


class TestAcceptance:
    def test_point_mass_at_level_accepted(self):
        fam = AcceptanceFamily.from_profile(constant_profile(0.0))
        assert fam.contains(2.0, dirac(2.0))

    def test_point_mass_left_of_level_rejected(self):
        fam = AcceptanceFamily.from_profile(constant_profile(0.0))
        assert not fam.contains(2.0, dirac(1.0))

    def test_antitone_in_level(self):
        rng = random.Random(7)
        fams = [
            AcceptanceFamily.from_profile(random_step_stack(rng)) for _ in range(20)
        ]
        for fam in fams:
            for _ in range(20):
                q = random_empirical(rng)
                m1 = dy(rng, -6, 6)
                m2 = m1 + dy(rng, 0, 3)
                if fam.contains(m2, q):
                    assert fam.contains(m1, q)

    def test_convexity_of_acceptance_sets(self):
        rng = random.Random(8)
        for _ in range(300):
            fam = AcceptanceFamily.from_profile(random_step_stack(rng))
            m = dy(rng, -6, 6)
            p = random_empirical(rng, pow2=True)
            q = random_empirical(rng, pow2=True)
            if fam.contains(m, p) and fam.contains(m, q):
                lam = rng.randint(0, 64) / 64
                assert fam.contains(m, mixture(p, q, lam))

    def test_closed_under_improvement(self):
        # acceptance keeps every distribution dominating an accepted one:
        # its CDF sits below the accepted CDF, hence below the benchmark
        rng = random.Random(9)
        hits = 0
        for _ in range(500):
            fam = AcceptanceFamily.from_profile(random_step_stack(rng))
            m = dy(rng, -6, 6)
            xs = [dy(rng, -8, 8) for _ in range(rng.randint(1, 10))]
            p = from_samples(xs)
            q = from_samples([x + dy(rng, 0, 3) for x in xs])
            if fam.contains(m, p):
                hits += 1
                assert dominates(q, p)
                assert fam.contains(m, q)
        assert hits > 20


class TestTableFamily:
    def _table(self):
        return AcceptanceFamily.from_table(
            [
                (-1.0, family_member(constant_profile(0.25), -1.0)),
                (0.0, family_member(constant_profile(0.25), 0.0)),
                (1.0, family_member(constant_profile(0.25), 1.0)),
            ]
        )

    def test_step_left_lookup(self):
        fam = self._table()
        assert fam.member(0.0)(5.0) == 1.0
        assert fam.member(-0.5) == fam.member(0.0)
        assert fam.member(-7.0) == fam.member(-1.0)

    def test_above_table_rejected(self):
        with pytest.raises(ValueError, match="above family table"):
            self._table().member(2.0)

    def test_increasing_members_rejected(self):
        with pytest.raises(ValueError, match="decrease"):
            AcceptanceFamily.from_table(
                [
                    (0.0, family_member(constant_profile(0.1), 0.0)),
                    (1.0, family_member(constant_profile(0.1), -2.0)),
                ]
            )
