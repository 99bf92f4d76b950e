import math
import random

import pytest

from lambdavar import (
    AcceptanceFamily,
    BracketError,
    DualRangeError,
    Identity,
    NONINCREASING,
    conjugate_divergence_witness,
    constant_profile,
    dirac,
    entropic,
    from_samples,
    gamma_bruteforce,
    gamma_decreasing,
    gamma_family,
    gamma_increasing,
    lambda_var,
    negated_cdf,
    profile_gamma,
    ramp_ladder,
    representation_bound,
    risk_lower_bound,
    risk_lower_bound_from_gamma,
    stieltjes,
    truncation_candidates,
    uniform,
    value_at_risk,
    worst_case,
)
from lambdavar import dual
from lambdavar.checks import (
    dy,
    random_empirical,
    random_profile,
    random_ramp_profile,
    random_step_stack,
    random_test_function,
)
from lambdavar.profiles import family_member


def interior_t(rng, f, lam=0.0):
    """A dual level strictly inside the reachable range of gamma."""
    gmin = lam * f.limit_left + (1 - lam) * f.limit_right
    u = rng.uniform(0.05, 0.95)
    return gmin + u * (f.limit_left - gmin)


def nonconstant_test_function(rng):
    f = random_test_function(rng)
    while f.limit_left == f.limit_right:
        f = random_test_function(rng)
    return f


def min_risk_at_integral(t: float, f: dual.TestFunction, risk, candidates) -> float:
    """Smallest risk among candidates whose integral of f reaches t.

    An upper bound for the true infimum over all distributions; +inf when no
    candidate qualifies (the empty-infimum convention).
    """
    best = math.inf
    for q in candidates:
        if stieltjes(f, q.payload) >= t:
            val = risk(q)
            if val < best:
                best = val
    return best


class TestTestFunction:
    def test_negated_uniform(self):
        f = negated_cdf(uniform(0, 1))
        assert f.points == ((0.0, 0.0), (1.0, -1.0))
        assert f.limit_left == 0.0 and f.limit_right == -1.0

    def test_negated_cdf_requires_continuity(self):
        with pytest.raises(ValueError, match="continuous"):
            negated_cdf(dirac(0.0))

    def test_nonincreasing_enforced(self):
        with pytest.raises(ValueError):
            dual.TestFunction(((0.0, 0.0), (1.0, 0.5)))

    def test_integral_trapezoid(self):
        f = dual.TestFunction(((0.0, 1.0), (1.0, 0.0)))
        assert f.integral(0.0, 1.0) == pytest.approx(0.5)
        assert f.integral(-2.0, 0.0) == pytest.approx(2.0)
        assert f.integral(1.0, 3.0) == pytest.approx(0.0)


class TestLeftInverse:
    def test_strict_ramp(self):
        f = dual.TestFunction(((0.0, 0.0), (1.0, -1.0)))
        assert f.left_inverse(-0.5) == 0.5

    def test_flat_level_takes_left_edge(self):
        f = dual.TestFunction(((0.0, 1.0), (1.0, 0.3), (2.0, 0.3), (3.0, 0.0)))
        assert f.left_inverse(0.3) == 1.0
        # grid oracle: first grid point with f(x) <= 0.3
        xs = [i / 2000 * 4 - 0.5 for i in range(2001)]
        ref = min(x for x in xs if f(x) <= 0.3)
        assert abs(f.left_inverse(0.3) - ref) <= 4 / 2000 + 1e-12

    def test_top_boundary_is_whole_line(self):
        f = dual.TestFunction(((0.0, 1.0), (1.0, 0.0)))
        assert f.left_inverse(1.0) == -math.inf

    def test_outside_range_rejected(self):
        f = dual.TestFunction(((0.0, 1.0), (1.0, 0.0)))
        with pytest.raises(DualRangeError, match="outside range"):
            f.left_inverse(1.5)
        with pytest.raises(DualRangeError, match="outside range"):
            f.left_inverse(-0.1)


class TestStieltjes:
    ONE = dual.TestFunction(((0.0, 1.0),))  # the constant 1

    def test_point_mass(self):
        f = random_test_function(random.Random(0))
        assert stieltjes(f, dirac(2.5).payload) == f(2.5)

    def test_total_mass(self):
        rng = random.Random(1)
        for _ in range(20):
            p = random_empirical(rng)
            assert stieltjes(self.ONE, p.payload) == pytest.approx(1.0)

    def test_uniform_mean(self):
        assert stieltjes(Identity(), uniform(0, 1).payload) == pytest.approx(0.5)

    def test_total_mass_of_general_curve(self):
        member = family_member(constant_profile(0.25), 0.0)
        assert stieltjes(self.ONE, member) == pytest.approx(
            member.tail_right - member.tail_left
        )

    def test_interval_convention_excludes_left_endpoint(self):
        p = from_samples([0.0, 1.0])
        g = self.ONE
        assert stieltjes(g, p.payload, 0.0, 1.0) == 0.5
        assert stieltjes(g, p.payload, -1.0, 1.0) == 1.0
        assert stieltjes(g, p.payload, -1.0, 0.5) == 0.5


class TestGammaClosedForms:
    def test_one_node_function_gives_its_limit(self):
        # a constant f has no piece to integrate over, at any level m; the
        # -0.0 shows that nothing was added to the limit
        f = dual.TestFunction(((2.0, -0.0),))
        prof = constant_profile(0.25)
        gamma = profile_gamma(prof)
        for m in (-math.inf, -3.0, -2.0, 0.0, 5.0):
            got = (gamma_increasing(m, f, prof), gamma(m, f))
            assert [repr(g) for g in got] == ["-0.0", "-0.0"]

    def test_worst_case_family(self):
        rng = random.Random(2)
        fam = AcceptanceFamily.from_profile(constant_profile(0.0))
        for _ in range(20):
            f = random_test_function(rng)
            m = dy(rng, -6, 6)
            assert gamma_family(m, f, fam) == pytest.approx(f(-m), abs=1e-14)

    def test_constant_profile_two_terms(self):
        rng = random.Random(3)
        for _ in range(50):
            f = random_test_function(rng)
            lam = rng.randint(0, 40) / 64
            m = dy(rng, -6, 6)
            fam = AcceptanceFamily.from_profile(constant_profile(lam))
            expected = lam * f.limit_left + (1 - lam) * f(-m)
            assert gamma_family(m, f, fam) == pytest.approx(expected, abs=1e-13)
            assert gamma_increasing(m, f, constant_profile(lam)) == pytest.approx(
                expected, abs=1e-13
            )

    def test_nondecreasing_in_level(self):
        rng = random.Random(4)
        for _ in range(100):
            f = random_test_function(rng)
            prof = random_step_stack(rng)
            m = dy(rng, -5, 5)
            h = dy(rng, 0, 3)
            assert gamma_increasing(m + h, f, prof) >= gamma_increasing(
                m, f, prof
            ) - 1e-13

    def test_family_and_parts_formula_agree(self):
        rng = random.Random(5)
        for _ in range(300):
            f = random_test_function(rng)
            prof = random_profile(rng)
            if not prof.is_nondecreasing:
                continue
            m = dy(rng, -6, 6)
            a = gamma_increasing(m, f, prof)
            b = gamma_family(m, f, AcceptanceFamily.from_profile(prof))
            assert a == pytest.approx(b, abs=1e-12)

    def test_step_profile_hand_formula(self):
        # derived by splitting the benchmark at the threshold: mass lam_min
        # at -inf, a jump of (lam_max - lam_min) at the threshold when it
        # lies left of the level, and the remainder at the level itself
        rng = random.Random(31)
        for _ in range(100):
            f = random_test_function(rng)
            lo = rng.randint(0, 30) / 64
            hi = rng.randint(round(lo * 64), 60) / 64
            xbar = dy(rng, -4, 4)
            from lambdavar import step_profile

            prof = step_profile(lo, hi, xbar)
            m = dy(rng, -6, 6)
            if -m > xbar:
                expected = (
                    lo * f.limit_left + (hi - lo) * f(xbar) + (1 - hi) * f(-m)
                )
            else:
                expected = lo * f.limit_left + (1 - lo) * f(-m)
            assert gamma_increasing(m, f, prof) == pytest.approx(expected, abs=1e-13)

    def test_decreasing_profile_member_rejected(self):
        prof = random_ramp_profile(random.Random(6), NONINCREASING)
        while prof.is_constant:
            prof = random_ramp_profile(random.Random(7), NONINCREASING)
        f = random_test_function(random.Random(8))
        with pytest.raises(ValueError, match="nondecreasing"):
            gamma_family(0.0, f, AcceptanceFamily.from_profile(prof))

    def test_decreasing_formula(self):
        rng = random.Random(9)
        for _ in range(100):
            f = random_test_function(rng)
            prof = random_ramp_profile(rng, NONINCREASING)
            m = dy(rng, -6, 6)
            a = gamma_decreasing(m, f, prof)
            b = gamma_family(m, f, AcceptanceFamily.flat_from_profile(prof))
            assert a == pytest.approx(b, abs=1e-12)
            level = prof(-m)
            assert a == pytest.approx(
                (1 - level) * f(-m) + level * f.limit_left, abs=1e-13
            )

    def test_decreasing_formula_constant_consistency(self):
        rng = random.Random(10)
        for _ in range(30):
            f = random_test_function(rng)
            lam = rng.randint(0, 40) / 64
            m = dy(rng, -6, 6)
            assert gamma_decreasing(m, f, constant_profile(lam)) == pytest.approx(
                gamma_increasing(m, f, constant_profile(lam)), abs=1e-13
            )

    def test_decreasing_zero_tail(self):
        prof = random_ramp_profile(random.Random(11), NONINCREASING)
        c = prof.curve
        if c.tail_right != 0.0:
            from lambdavar import piecewise_profile

            pts = [(x, l - c.tail_right, v - c.tail_right) for x, l, v in c.points]
            prof = piecewise_profile(
                pts, (c.tail_left - c.tail_right, 0.0), NONINCREASING
            )
        f = random_test_function(random.Random(12))
        m = -(prof.curve.points[-1][0] + 1.0)  # -m is right of every node
        assert prof(-m) == 0.0
        assert gamma_decreasing(m, f, prof) == pytest.approx(f(-m), abs=1e-14)


class TestGammaBruteforce:
    def test_point_mass_attains_worst_case_sup(self):
        rng = random.Random(13)
        prof = constant_profile(0.0)
        for _ in range(20):
            f = random_test_function(rng)
            m = dy(rng, -4, 4)
            got = gamma_bruteforce(
                m, f, lambda q: lambda_var(q, prof).value, [dirac(-m)]
            )
            assert got == f(-m)
            assert got == pytest.approx(
                gamma_family(m, f, AcceptanceFamily.from_profile(prof)), abs=1e-14
            )

    def test_lower_bounds_closed_form(self):
        rng = random.Random(14)
        for _ in range(100):
            f = random_test_function(rng)
            prof = random_step_stack(rng, jumps=2)
            m = dy(rng, -4, 4)
            cands = [random_empirical(rng) for _ in range(10)]
            try:
                brute = gamma_bruteforce(
                    m, f, lambda q: lambda_var(q, prof).value, cands
                )
            except ValueError:
                continue
            assert brute <= gamma_increasing(m, f, prof) + 1e-12

    def test_truncation_sequence_closes_the_gap(self):
        rng = random.Random(15)
        for _ in range(50):
            f = random_test_function(rng)
            prof = random_step_stack(rng, jumps=2)
            m = dy(rng, -4, 4)
            member = family_member(prof, -m)
            cands = truncation_candidates(member, range(1, 51))
            brute = gamma_bruteforce(m, f, lambda q: lambda_var(q, prof).value, cands)
            closed = gamma_increasing(m, f, prof)
            assert brute <= closed + 1e-12
            assert closed - brute < 1e-3

    def test_no_feasible_candidate(self):
        prof = constant_profile(0.25)
        with pytest.raises(ValueError, match="no feasible candidate"):
            gamma_bruteforce(
                -5.0,
                random_test_function(random.Random(16)),
                lambda q: lambda_var(q, prof).value,
                [dirac(0.0)],
            )


class TestRiskLowerBound:
    def test_constant_profile_special_case(self):
        rng = random.Random(17)
        for _ in range(300):
            f = nonconstant_test_function(rng)
            lam = rng.randint(0, 40) / 64
            t = interior_t(rng, f, lam)
            got = risk_lower_bound(t, f, constant_profile(lam))
            z = (t - lam * f.limit_left) / (1 - lam)
            assert got == pytest.approx(-f.left_inverse(z), abs=1e-9)

    def test_worst_case_special_case(self):
        rng = random.Random(18)
        for _ in range(300):
            f = nonconstant_test_function(rng)
            t = interior_t(rng, f)
            got = risk_lower_bound(t, f, constant_profile(0.0))
            assert got == pytest.approx(-f.left_inverse(t), abs=1e-9)

    def test_nondecreasing_in_level(self):
        rng = random.Random(19)
        for _ in range(100):
            f = nonconstant_test_function(rng)
            lam = rng.randint(0, 40) / 64
            prof = constant_profile(lam)
            t1 = interior_t(rng, f, lam)
            t2 = interior_t(rng, f, lam)
            lo_t, hi_t = min(t1, t2), max(t1, t2)
            assert risk_lower_bound(lo_t, f, prof) <= risk_lower_bound(
                hi_t, f, prof
            ) + 1e-12

    def test_out_of_range(self):
        f = dual.TestFunction(((0.0, 0.0), (1.0, -1.0)))
        with pytest.raises(DualRangeError, match="out of range"):
            risk_lower_bound(0.5, f, constant_profile(0.0))
        with pytest.raises(DualRangeError, match="out of range"):
            risk_lower_bound(-1.5, f, constant_profile(0.0))

    def test_ramp_profile_quadratic_pieces(self):
        # sloped profile against sloped f makes the cumulative integral
        # piecewise quadratic; the piece solver must match the bisection
        rng = random.Random(99)
        checked = 0
        while checked < 150:
            f = nonconstant_test_function(rng)
            prof = random_ramp_profile(rng)
            gamma = profile_gamma(prof)
            g_lo = gamma(-f.points[-1][0] - 1.0, f)
            g_hi = gamma(-f.points[0][0] + 1.0, f)
            if g_hi - g_lo < 1e-6:
                continue
            t = g_lo + rng.uniform(0.05, 0.95) * (g_hi - g_lo)
            try:
                a = risk_lower_bound(t, f, prof)
            except DualRangeError:
                continue
            if math.isinf(a):
                continue
            b = risk_lower_bound_from_gamma(t, f, lambda m: gamma(m, f), tol=1e-11)
            assert a == pytest.approx(b, abs=1e-6)
            checked += 1


class TestRiskLowerBoundFromGamma:
    def test_agrees_with_closed_form(self):
        rng = random.Random(20)
        for _ in range(300):
            f = nonconstant_test_function(rng)
            prof = random_step_stack(rng, jumps=2, cap=40)
            lam_min = prof.inf_value
            t = interior_t(rng, f, lam_min)
            gamma = profile_gamma(prof)
            try:
                a = risk_lower_bound(t, f, prof)
            except DualRangeError:
                continue
            if math.isinf(a):
                continue
            b = risk_lower_bound_from_gamma(t, f, lambda m: gamma(m, f))
            assert a == pytest.approx(b, abs=1e-6)

    def test_empty_level_set_is_plus_infinity(self):
        f = nonconstant_test_function(random.Random(21))
        t = f.limit_left + 1.0  # unreachable by any acceptance-set integral
        gamma = profile_gamma(constant_profile(0.25))
        assert risk_lower_bound_from_gamma(t, f, lambda m: gamma(m, f)) == math.inf

    def test_bracket_error_when_gamma_already_high(self):
        f = dual.TestFunction(((0.0, 0.0), (1.0, -1.0)))
        with pytest.raises(BracketError, match="widen"):
            risk_lower_bound_from_gamma(-0.99, f, lambda m: 0.0)

    def test_monotone_and_left_continuous_in_t(self):
        rng = random.Random(22)
        for _ in range(30):
            f = nonconstant_test_function(rng)
            lam = rng.randint(0, 40) / 64
            prof = constant_profile(lam)
            gamma = profile_gamma(prof)
            t = interior_t(rng, f, lam)
            tol = 1e-11
            base = risk_lower_bound_from_gamma(t, f, lambda m: gamma(m, f), tol=tol)
            prev = -math.inf
            for h in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7):
                v = risk_lower_bound_from_gamma(
                    t - h, f, lambda m: gamma(m, f), tol=tol
                )
                assert v <= base + 1e-9
                assert v >= prev - 1e-9
                prev = v
            assert abs(prev - base) < 1e-5


class TestMinRiskAtIntegral:
    def test_single_candidate(self):
        f = dual.TestFunction(((0.0, 1.0), (1.0, 0.0)))
        risk = lambda q: worst_case(q)
        assert min_risk_at_integral(0.5, f, risk, [dirac(-2.0)]) == 2.0
        assert min_risk_at_integral(1.5, f, risk, [dirac(-2.0)]) == math.inf

    def test_dominates_dual_bound(self):
        rng = random.Random(23)
        for _ in range(100):
            f = nonconstant_test_function(rng)
            lam = rng.randint(1, 40) / 64
            prof = constant_profile(lam)
            t = interior_t(rng, f, lam)
            cands = [random_empirical(rng) for _ in range(8)]
            upper = min_risk_at_integral(
                t, f, lambda q: lambda_var(q, prof).value, cands
            )
            lower = risk_lower_bound(t, f, prof)
            assert upper >= lower - 1e-9

    def test_dirac_ladder_recovers_left_inverse(self):
        rng = random.Random(24)
        f = nonconstant_test_function(rng)
        t = interior_t(rng, f)
        spacing = 0.01
        ladder = [dirac(-12 + spacing * i) for i in range(2401)]
        got = min_risk_at_integral(t, f, worst_case, ladder)
        assert got == pytest.approx(-f.left_inverse(t), abs=spacing + 1e-9)

    def test_sup_over_levels_recovers_lower_bound(self):
        # the left-continuous bound also arises as sup over s < t of the
        # candidate-restricted minimum risk; probed at finite resolution
        # with strictly decreasing ramps, where no flat-level ambiguity
        # exists
        rng = random.Random(32)
        for _ in range(20):
            xs = sorted(rng.sample(range(-8 * 64, 8 * 64), 2))
            f = dual.TestFunction(
                ((xs[0] / 64, 1.0), (xs[1] / 64, -1.0))
            )
            t = interior_t(rng, f)
            spacing = 0.005
            ladder = [dirac(-10 + spacing * i) for i in range(4001)]
            svals = [t - 1e-3 * k for k in range(1, 6)]
            sup_r = max(
                min_risk_at_integral(s, f, worst_case, ladder) for s in svals
            )
            target = risk_lower_bound(t, f, constant_profile(0.0))
            # finite s-gap undershoots by (gap / |slope|), the finite ladder
            # overshoots by its spacing
            slack = spacing + 5e-3 * (f.points[-1][0] - f.points[0][0]) / 2
            assert abs(sup_r - target) <= slack + 1e-9


class TestRepresentationBound:
    def test_concentrated_window_nails_quantile(self):
        rng = random.Random(25)
        for _ in range(20):
            p = random_empirical(rng, max_atoms=10)
            prof = constant_profile(0.25)
            q = p.quantile_right(0.25)
            eps = 0.01
            fs = [negated_cdf(uniform(q, q + eps))]
            rep = representation_bound(
                p, lambda d: lambda_var(d, prof).value, fs, profile_gamma(prof)
            )
            assert 0.0 <= rep.gap < 2 * eps + 1e-9

    def test_weak_duality_on_random_ladders(self):
        rng = random.Random(26)
        for _ in range(50):
            p = random_empirical(rng)
            prof = random_step_stack(rng, jumps=2)
            fs = ramp_ladder(p, 10, 0.05)
            rep = representation_bound(
                p, lambda d: lambda_var(d, prof).value, fs, profile_gamma(prof)
            )
            assert rep.gap >= 0.0
            assert rep.best_lower_bound <= rep.phi_value
            assert 0 <= rep.argmax_function_index < len(fs)

    def test_dense_ladder_small_gap(self):
        rng = random.Random(27)
        p = from_samples([dy(rng, -2, 2) for _ in range(10)])
        prof = constant_profile(0.25)
        fs = ramp_ladder(p, 200, 0.01)
        rep = representation_bound(
            p, lambda d: lambda_var(d, prof).value, fs, profile_gamma(prof)
        )
        assert 0.0 <= rep.gap < 0.05


class TestDivergenceWitness:
    def test_entropic_grows_linearly(self):
        f = random_test_function(random.Random(28))
        w = conjugate_divergence_witness(entropic, f, 100)
        assert w >= 100 + f.limit_right

    def test_single_point(self):
        f = random_test_function(random.Random(29))
        w = conjugate_divergence_witness(entropic, f, 1)
        assert w == f(1.0) - entropic(dirac(1.0))

    def test_nondecreasing_in_horizon(self):
        f = random_test_function(random.Random(30))
        risk = lambda q: value_at_risk(q, 0.5)
        prev = -math.inf
        for n in (1, 5, 20, 50, 100):
            w = conjugate_divergence_witness(risk, f, n)
            assert w >= prev
            prev = w
