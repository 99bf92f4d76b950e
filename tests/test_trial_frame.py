"""``checks._tally``, the one trial frame of the check suites.

It draws every trial's case itself, in trial order, from one generator
seeded with the suite's seed, and before it forks; only then are the cases
judged, the later chunks in forked workers.  With no trials nothing forks.
"""

import os
import random

import pytest

from lambdavar import checks
from test_fork import use_cpus

TRIAL_SUITES = [name for name in checks.suite_names() if name != "cfb-counterexample"]


def draws_in_the_caller(forks, draw, states):
    """draw, asserting that it runs here and before any fork; keeps the rng
    state each call starts from."""
    caller = os.getpid()

    def checked(rng):
        assert os.getpid() == caller and forks == []
        states.append(rng.getstate())
        return draw(rng)

    return checked


@pytest.mark.parametrize("trials", [0, 1, 9])
def test_the_frame_draws_in_order_here_then_judges_every_case(monkeypatch, trials):
    forks, states = use_cpus(monkeypatch, 4), []
    draw = draws_in_the_caller(forks, lambda rng: (rng.random(),), states)
    r = checks._tally("frame", trials, 5, draw, lambda u: (u > 0.5, u, 1), "judged")
    rng, want_states, want = random.Random(5), [], []
    for _ in range(trials):
        want_states.append(rng.getstate())
        want.append(rng.random())
    assert states == want_states and len(forks) == max(min(trials, 4) - 1, 0)
    assert (r.trials, r.violations, r.details) == (trials, sum(u > 0.5 for u in want),
                                                   {"judged": trials})
    assert r.max_residual == max([0.0, *want])


@pytest.mark.parametrize("suite", TRIAL_SUITES)
def test_every_trial_suite_draws_through_the_frame(monkeypatch, suite):
    forks, states = use_cpus(monkeypatch, 4), []
    tally = checks._tally

    def spied(name, trials, seed, draw, judge, *counts):
        return tally(name, trials, seed, draws_in_the_caller(forks, draw, states), judge,
                     *counts)

    expected = repr(vars(checks.run_suite(suite, 9, 3)))
    del forks[:]
    monkeypatch.setattr(checks, "_tally", spied)
    assert repr(vars(checks.run_suite(suite, 9, 3))) == expected
    assert len(states) == 9 and states[0] == random.Random(3).getstate() and len(forks) == 3
