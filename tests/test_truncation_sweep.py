"""``oracles._gamma_truncations`` stops early with the full sweep's result.

It must return what ``gamma_bruteforce`` returns over all fifty truncations,
or raise what it raises, under the true risk and under the skew of
``test_fork.py``, on trials drawn as the suite draws them.
"""

import random

import pytest

from lambdavar import checks, curves, dual, oracles, profiles
from test_fork import skew_the_suites, use_cpus

SUITE = "duality-sandwich"


def suite_cases(monkeypatch, trials, seed):
    """The (p, profile, f, m) of every trial, as run_suite draws them."""
    drawn = []

    def keep(name, trials, seed, draw, judge, *counts):
        rng = random.Random(seed)
        drawn.extend(draw(rng) for _ in range(trials))
        return checks.SuiteResult(name, trials, 0, 0.0)

    with monkeypatch.context() as mp:
        mp.setattr(checks, "_tally", keep)
        checks.run_suite(SUITE, trials, seed)
    return drawn


def full_sweep(m, f, risk, member):
    return oracles.gamma_bruteforce(
        m, f, risk, oracles.truncation_candidates(member, range(1, 51)))


def count_truncations(monkeypatch):
    """The truncation points, in order, of every truncate_left the oracles call."""
    built = []

    def counted(g, c):
        built.append(c)
        return curves.truncate_left(g, c)

    monkeypatch.setattr(oracles, "truncate_left", counted)
    return built


def outcome(sweep):
    try:
        return repr(sweep())
    except Exception as exc:  # an error must match an error
        return repr(exc)


@pytest.mark.parametrize("skewed", [False, True], ids=["true-risk", "skewed-risk"])
def test_the_sweep_returns_what_the_full_sweep_returns(monkeypatch, skewed):
    cases = suite_cases(monkeypatch, 2000, 1601)
    if skewed:
        skew_the_suites(monkeypatch)
    built = count_truncations(monkeypatch)
    mismatches, lazy = [], 0
    for p, prof, f, m in cases:
        member = profiles.family_member(prof, -m)

        def risk(q):
            return checks.lambda_var(q, prof).value

        del built[:]
        got = outcome(lambda: oracles._gamma_truncations(m, f, risk, member))
        lazy += len(built)
        assert built == [-float(n) for n in range(1, len(built) + 1)]
        want = outcome(lambda: full_sweep(m, f, risk, member))
        if got != want:
            mismatches.append((p, prof, f, m, got, want))
    assert mismatches == []
    assert lazy <= 8 * len(cases)


def test_no_feasible_candidate_is_the_same_error():
    member = profiles.family_member(profiles.constant_profile(0.25), 0.0)
    f = dual.TestFunction(((-1.0, 1.0), (1.0, 0.0)))
    args = (0.0, f, lambda q: 1.0, member)
    got = outcome(lambda: oracles._gamma_truncations(*args))
    assert got == outcome(lambda: full_sweep(*args)) == repr(ValueError("no feasible candidate"))


def test_the_suite_builds_few_truncations_and_reports_the_same(monkeypatch):
    use_cpus(monkeypatch, 1)  # so that every truncation is built, and counted, here
    built = count_truncations(monkeypatch)
    report = repr(vars(checks.run_suite(SUITE, 200, 7)))
    assert len(built) <= 8 * 200
    monkeypatch.setattr(oracles, "_gamma_truncations", full_sweep)
    assert repr(vars(checks.run_suite(SUITE, 200, 7))) == report
