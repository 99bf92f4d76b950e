"""Seeded property suites, shared by the test suite and the check command.

Random inputs live on a dyadic grid (multiples of 1/64) so that breakpoint
arithmetic -- sums, translations, mixtures with power-of-two atom counts --
is exact in floating point.  Identities asserted with zero tolerance really
hold bit-for-bit on that class; everything else carries an explicit
tolerance.  The two suites that compare with the reference routes import
``oracles`` when they run, and only the test functions import ``dual``, so
the other suites load neither.

A trial suite is a draw and a judge.  ``_tally``, the one place that draws,
draws every trial's inputs in order from one seeded generator, judges them
in one contiguous chunk per usable CPU, the later chunks in forked workers,
and folds the verdicts in trial order: no report depends on the CPU count.

``duality-sandwich`` runs ``oracles._gamma_truncations``, which stops the
full truncation sweep at its first accepted repeated candidate and keeps its
reports byte-identical.

Only ``duality-sandwich`` reads ``tol``: it is the bisection tolerance of the
dual bound.  The other suites take it and ignore it; their thresholds are
fixed.
"""

from __future__ import annotations

import math
import random

from . import curves, profiles
from ._fork import map_chunks, process_count
from .curves import Cdf, _Record, from_samples, mixture, truncate_left, uniform
from .measures import lambda_var, value_at_risk, worst_case
from .profiles import LossProfile, constant_profile, piecewise_profile, step_profile

GRAIN = 64
# The trials' cost varies, so each process takes several chunks in turn
# rather than one fixed share.
_CHUNKS_PER_PROCESS = 4


def dy(rng: random.Random, lo: float, hi: float) -> float:
    """A random multiple of 1/64 in [lo, hi]."""
    return rng.randint(round(lo * GRAIN), round(hi * GRAIN)) / GRAIN


def random_empirical(rng, max_atoms=20, lo=-8.0, hi=8.0, pow2=False) -> Cdf:
    if pow2:
        n = rng.choice([2, 4, 8, 16])
    else:
        n = rng.randint(1, max_atoms)
    return from_samples([dy(rng, lo, hi) for _ in range(n)])


def random_dominated_pair(rng):
    """(P, Q) with Q dominated by P: each sample of Q sits at or left of P's."""
    xs = [dy(rng, -8.0, 8.0) for _ in range(rng.randint(1, 20))]
    shifts = [dy(rng, 0.0, 4.0) for _ in xs]
    p = from_samples(xs)
    q = from_samples([x - s for x, s in zip(xs, shifts)])
    return p, q


def _dyadic_profile(rng, k, stride, offset, orientation, cap) -> LossProfile:
    """Profile on k dyadic nodes over one sorted chain of levels, reversed for
    a nonincreasing profile: node i runs from chain[stride * i] to
    chain[stride * i + offset]."""
    xs = sorted(rng.sample(range(-8 * GRAIN, 8 * GRAIN), k))
    chain = sorted(rng.randint(0, cap) / GRAIN for _ in range(stride * (k - 1) + offset + 1))
    if orientation == curves.NONINCREASING:
        chain = chain[::-1]
    pts = [(x / GRAIN, chain[stride * i], chain[stride * i + offset]) for i, x in enumerate(xs)]
    return piecewise_profile(pts, (chain[0], chain[-1]), orientation)


def random_step_stack(rng, orientation=curves.NONDECREASING, jumps=4, cap=60) -> LossProfile:
    """Piecewise-constant profile with dyadic levels strictly below 1."""
    k = rng.randint(0, jumps)
    if k == 0:
        return constant_profile(rng.randint(0, cap) / GRAIN)
    return _dyadic_profile(rng, k, 1, 1, orientation, cap)


def random_ramp_profile(rng, orientation=curves.NONDECREASING, cap=60) -> LossProfile:
    """Continuous piecewise-linear profile with dyadic nodes."""
    return _dyadic_profile(rng, rng.randint(2, 5), 1, 0, orientation, cap)


def random_mixed_profile(rng, orientation=curves.NONDECREASING, cap=60) -> LossProfile:
    """Profile mixing jumps and ramps: monotone level chain split over nodes."""
    return _dyadic_profile(rng, rng.randint(1, 5), 2, 1, orientation, cap)


def random_profile(rng) -> LossProfile:
    """A feasible profile of a random kind and orientation."""
    kind = rng.randrange(7)
    if kind == 0:
        return constant_profile(rng.randint(0, 60) / GRAIN)
    if kind == 1:
        lo = rng.randint(0, 40) / GRAIN
        hi = rng.randint(round(lo * GRAIN), 60) / GRAIN
        return step_profile(lo, hi, dy(rng, -8.0, 8.0))
    if kind == 2:
        return random_step_stack(rng)
    if kind == 3:
        return random_ramp_profile(rng)
    if kind == 4:
        return random_mixed_profile(rng)
    if kind == 5:
        return random_mixed_profile(rng, curves.NONINCREASING)
    return random_ramp_profile(rng, curves.NONINCREASING)


def random_test_function(rng) -> dual.TestFunction:
    from . import dual

    k = rng.randint(2, 6)
    xs = sorted(rng.sample(range(-8 * GRAIN, 8 * GRAIN), k))
    ys = sorted((rng.randint(-GRAIN, GRAIN) / GRAIN for _ in range(k)), reverse=True)
    return dual.TestFunction(tuple((x / GRAIN, y) for x, y in zip(xs, ys)))


class SuiteResult(_Record):
    """A suite's outcome; mutable and unhashable, unlike the other records."""

    _fields = ("suite", "trials", "violations", "max_residual", "details")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, suite: str, trials: int, violations: int, max_residual: float,
                 details: dict | None = None):
        vars(self).update(suite=suite, trials=trials, violations=violations,
                          max_residual=max_residual, details={} if details is None else details)


def _tally(name: str, trials: int, seed: int, draw, judge, *counts: str) -> SuiteResult:
    """The suite's result from judge(*case), a trial's verdict, for each of the
    trials cases that draw(rng) draws, in order, before any is judged.

    A verdict is (violations, residual, *one number per name in counts).  The
    result sums the violations and each count, and takes the worst residual.
    The cases are judged in _CHUNKS_PER_PROCESS contiguous chunks per usable
    CPU, which this process and forked workers take in turn as each finishes
    one.  If a case raises or a worker fails, every case is judged here, so
    an error is the one a serial run raises.
    """
    rng = random.Random(seed)
    cases = [draw(rng) for _ in range(trials)]
    n = min(_CHUNKS_PER_PROCESS * process_count(), len(cases))
    chunks = [cases[len(cases) * k // n:len(cases) * (k + 1) // n] for k in range(n)]
    parts = map_chunks(lambda chunk: [judge(*case) for case in chunk], chunks)
    if parts is None:
        parts = [[judge(*case) for case in cases]]
    verdicts = [verdict for part in parts for verdict in part]
    details = {count: sum(v[2 + k] for v in verdicts) for k, count in enumerate(counts)}
    return SuiteResult(name, trials, sum(v[0] for v in verdicts),
                       max([0.0, *(v[1] for v in verdicts)]), details)


def suite_mon(trials: int, seed: int, tol: float = 1e-9) -> SuiteResult:
    """Dominated pairs never get a smaller risk."""
    def judge(p, q, prof):
        a, b = lambda_var(p, prof).value, lambda_var(q, prof).value
        return (1, a - b) if b < a else (0, 0.0)

    return _tally("mon", trials, seed,
                  lambda rng: (*random_dominated_pair(rng), random_profile(rng)), judge)


def suite_qco(trials: int, seed: int, tol: float = 1e-9) -> SuiteResult:
    """Mixtures are never riskier than the worse component."""
    def draw(rng):
        return (random_empirical(rng, pow2=True), random_empirical(rng, pow2=True),
                rng.randint(0, GRAIN) / GRAIN, random_profile(rng))

    def judge(p, q, lam, prof):
        m = lambda_var(mixture(p, q, lam), prof).value
        cap = max(lambda_var(p, prof).value, lambda_var(q, prof).value)
        return (1, m - cap) if m > cap else (0, 0.0)

    return _tally("qco", trials, seed, draw, judge)


def suite_translation(trials: int, seed: int, tol: float = 1e-9) -> SuiteResult:
    """Cash-translation identity, exact on the jump class."""
    from . import oracles

    def draw(rng):
        p = random_empirical(rng)
        kind = rng.randrange(3)
        if kind == 0:
            prof = constant_profile(rng.randint(0, 60) / GRAIN)
        elif kind == 1:
            prof = random_step_stack(rng)
        else:
            prof = random_step_stack(rng, curves.NONINCREASING)
        return p, prof, dy(rng, -4.0, 4.0)

    def judge(p, prof, alpha):
        lhs, rhs = oracles.translation_pair(p, prof, alpha)
        return (1, abs(lhs - rhs)) if lhs != rhs else (0, 0.0)

    return _tally("translation", trials, seed, draw, judge)


def suite_reductions(trials: int, seed: int, tol: float = 1e-9) -> SuiteResult:
    """Constant profiles reproduce Value at Risk and the worst case exactly."""
    def judge(p, lam):
        a, b = lambda_var(p, constant_profile(lam)).value, value_at_risk(p, lam)
        c, d = lambda_var(p, constant_profile(0.0)).value, worst_case(p)
        return (1, max(abs(a - b), abs(c - d))) if a != b or c != d else (0, 0.0)

    return _tally("reductions", trials, seed,
                  lambda rng: (random_empirical(rng), rng.randint(1, 63) / GRAIN), judge)


def suite_cfa(trials: int, seed: int, tol: float = 1e-9) -> SuiteResult:
    """Left-truncation sequences decrease to P with risks rising to the limit."""
    def draw(rng):
        p = random_empirical(rng)
        if rng.random() >= 0.5:
            for _ in range(50):
                prof = random_step_stack(rng)
                if lambda_var(p, prof).violation_point - p.support_lower > 0.03:
                    return p, prof
        return p, constant_profile(rng.randint(0, 40) / GRAIN)

    def judge(p, prof):
        """A violation unless the risks rise along the sequence to within 1e-3
        of the risk of p; the residual is the distance left."""
        base = lambda_var(p, prof).value
        a = p.support_lower
        prev = -math.inf
        ok = True
        for n in range(1, 51):
            val = lambda_var(truncate_left(p.payload, a + 0.02 / n), prof).value
            if val < prev:
                ok = False
            prev = val
        residual = abs(prev - base)
        return (1, residual) if not ok or residual >= 1e-3 else (0, residual)

    return _tally("cfa", trials, seed, draw, judge)


def suite_cfb_counterexample(trials: int, seed: int, tol: float = 1e-9) -> SuiteResult:
    """Continuity from below fails: the step-profile uniform fixture.

    Along the increasing sequence the risk goes to 0 at rate 1/n while the
    limit distribution scores minus the step height, so the discontinuity
    equals the gap between the two profile levels.  The trials argument is
    ignored; the fixture is fixed.
    """
    lam_min, lam_max, xbar = 0.1, 0.3, 0.0
    prof = step_profile(lam_min, lam_max, xbar)
    rate_err = 0.0
    for n in range(1, 101):
        pn = uniform(-lam_min - 1.0 / n, 1.0 - lam_min - 1.0 / n)
        v = lambda_var(pn, prof).value
        rate_err = max(rate_err, abs(v - 1.0 / n))
    limit_value = lambda_var(uniform(-lam_min, 1.0 - lam_min), prof).value
    discontinuity = abs(0.0 - limit_value)
    expected = lam_max - lam_min
    violations = 0
    if rate_err > 1e-9 or abs(discontinuity - expected) > 1e-12:
        violations = 1
    return SuiteResult(
        "cfb-counterexample",
        100,
        violations,
        max(rate_err, abs(discontinuity - expected)),
        details={
            "discontinuity": discontinuity,
            "expected_jump": expected,
            "sequence_limit": 0.0,
            "limit_value": limit_value,
        },
    )


def suite_duality_sandwich(trials: int, seed: int, tol: float = 1e-9) -> SuiteResult:
    """Weak duality plus the brute-force sandwich around gamma."""
    from . import dual, oracles

    def draw(rng):
        p = random_empirical(rng, max_atoms=10)
        kind = rng.randrange(3)
        if kind == 0:
            prof = constant_profile(rng.randint(0, 40) / GRAIN)
        elif kind == 1:
            prof = random_step_stack(rng, jumps=2)
        else:
            prof = random_ramp_profile(rng)
        return p, prof, random_test_function(rng), dy(rng, -4.0, 4.0)

    def judge(p, prof, f, m):
        """Weak duality for the bound, and the brute-force gamma below the
        closed form; the verdict counts the bound as informative if finite."""
        phi = lambda_var(p, prof).value
        t = dual.stieltjes(f, p.payload)
        gamma = dual.profile_gamma(prof)
        bound, reason = dual._bound_or_reason(t, f, gamma, tol)
        closed = dual.gamma_increasing(m, f, prof)
        member = profiles.family_member(prof, -m)
        brute = oracles._gamma_truncations(m, f, lambda q: lambda_var(q, prof).value, member)
        informative = reason is None
        violations, worst = 0, 0.0
        if informative and bound > phi:
            violations, worst = 1, bound - phi
        if brute > closed + 1e-12:
            violations, worst = violations + 1, max(worst, brute - closed)
        return violations, worst, int(informative)

    return _tally("duality-sandwich", trials, seed, draw, judge, "informative")


_SUITES = {
    "mon": suite_mon,
    "qco": suite_qco,
    "translation": suite_translation,
    "reductions": suite_reductions,
    "cfa": suite_cfa,
    "cfb-counterexample": suite_cfb_counterexample,
    "duality-sandwich": suite_duality_sandwich,
}


def suite_names():
    return sorted(_SUITES)


def run_suite(name: str, trials: int, seed: int, tol: float = 1e-9) -> SuiteResult:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(suite_names())}")
    if trials < 0:
        raise ValueError(f"trial count must be nonnegative, got {trials}")
    return _SUITES[name](trials, seed, tol)
