"""The value classes against the dataclasses they replaced.

Each class below is one of the package's eight value classes as it was
declared with ``@dataclass``: same name, fields and flags.  The package's
classes now get ``repr``, ``==``, ``hash`` and frozen attributes from one
small base instead, so that no command imports ``dataclasses``; they must
behave as the dataclasses did.  A twin with the same field values is
compared with each instance.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass, field

import pytest

from lambdavar import checks, curves, dual, measures, oracles, profiles
from lambdavar.curves import NONDECREASING

# ---------- the former declarations ----------


@dataclass(frozen=True, init=False)
class MonotoneRC:
    xs: tuple
    lefts: tuple
    values: tuple
    tail_left: float
    tail_right: float
    orientation: str | None = NONDECREASING


@dataclass(frozen=True)
class Cdf:
    payload: object


@dataclass(frozen=True)
class LossProfile:
    curve: object
    sup_value: float = field(init=False, compare=False, default=0.0)
    inf_value: float = field(init=False, compare=False, default=0.0)

    def __post_init__(self):
        object.__setattr__(self, "sup_value", self.curve.sup_value)
        object.__setattr__(self, "inf_value", self.curve.inf_value)


@dataclass(frozen=True)
class RiskReport:
    value: float
    violation_point: float | None
    finiteness_case: str


@dataclass(frozen=True, init=False)
class TestFunction:
    __test__ = False  # not a pytest class
    xs: tuple
    values: tuple


@dataclass(frozen=True)
class DualBoundReport:
    phi_value: float
    best_lower_bound: float
    gap: float
    argmax_function_index: int
    informative: int
    skipped: dict


@dataclass(frozen=True)
class AcceptanceFamily:
    kind: str
    profile: object = None
    table: tuple = ()


@dataclass
class SuiteResult:
    suite: str
    trials: int
    violations: int
    max_residual: float
    details: dict = field(default_factory=dict)


FORMER = {
    cls.__name__: cls
    for cls in (MonotoneRC, Cdf, LossProfile, RiskReport, TestFunction, DualBoundReport,
                AcceptanceFamily, SuiteResult)
}


def twin(obj):
    """The former dataclass holding the same field values as obj."""
    cls = FORMER[type(obj).__name__]
    out = object.__new__(cls)
    for f in dataclasses.fields(cls):
        object.__setattr__(out, f.name, getattr(obj, f.name))
    return out


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except AttributeError as exc:  # a dataclass raises its subclass FrozenInstanceError
        return ("AttributeError", str(exc))
    except TypeError as exc:
        return ("TypeError", str(exc))


def assignment(obj, name):
    return outcome(setattr, obj, name, 0.0), outcome(delattr, obj, name)


# ---------- instances: two equal, one different, of each class ----------


def _curve(k):
    return curves.MonotoneRC(((0.0, 0.0, 0.25 * k), (1.0, 0.5, 1.0)), 0.0, 1.0)


def _profile(lo):
    return profiles.step_profile(lo, 0.3, 0.0)


def _function(y):
    return dual.TestFunction(((0.0, 1.0), (1.0, y)))


def _bound(skipped):
    return dual.DualBoundReport(1.0, 0.5, 0.5, 3, 7, {"bracket": skipped, "range": 0, "inf": 0})


CASES = {
    "MonotoneRC": lambda k: _curve(1 + k),
    "Cdf": lambda k: curves.from_samples([0.0, 1.0 + k]),
    "LossProfile": lambda k: _profile(0.1 + 0.05 * k),
    "RiskReport": lambda k: measures.RiskReport(-1.0 - k, 1.0 + k, "finite"),
    "TestFunction": lambda k: _function(-k),
    "DualBoundReport": lambda k: _bound(k),
    "AcceptanceFamily": lambda k: oracles.AcceptanceFamily.from_profile(_profile(0.1 + 0.05 * k)),
    "SuiteResult": lambda k: checks.SuiteResult("mon", 5, k, 0.0),
}


def test_every_former_class_is_covered():
    assert set(CASES) == set(FORMER)
    for name in FORMER:
        assert type(CASES[name](0)).__name__ == name


@pytest.mark.parametrize("name", sorted(CASES))
def test_value_semantics_match_the_dataclass(name):
    a, b, c = CASES[name](0), CASES[name](0), CASES[name](1)
    ta, tb, tc = twin(a), twin(b), twin(c)
    assert repr(a) == repr(ta) and repr(c) == repr(tc)
    assert (a == b, a == c, a != b, a != c) == (ta == tb, ta == tc, ta != tb, ta != tc)
    assert (a == b, a == c) == (True, False)
    # another class: NotImplemented both ways, so == falls back to identity
    for other in (ta, object(), None, (a,)):
        assert a.__eq__(other) is NotImplemented
        assert (a == other) is False
    assert ta.__eq__(a) is NotImplemented
    assert outcome(hash, a) == outcome(hash, ta)
    assert outcome(hash, b) == outcome(hash, tb)
    for attr in (*FORMER[name].__dataclass_fields__, "not_a_field"):
        assert assignment(CASES[name](0), attr) == assignment(twin(CASES[name](0)), attr)


def test_frozen_and_mutable_as_declared():
    curve = _curve(1)
    with pytest.raises(AttributeError, match="cannot assign to field 'xs'"):
        curve.xs = ()
    with pytest.raises(AttributeError, match="cannot delete field 'xs'"):
        del curve.xs
    result = checks.SuiteResult("mon", 5, 0, 0.0)
    result.violations = 2
    assert result.violations == 2
    with pytest.raises(TypeError, match="unhashable"):
        hash(result)
    # each result gets its own details
    assert result.details == {}
    assert result.details is not checks.SuiteResult("mon", 5, 0, 0.0).details


def test_profile_range_data_is_shown_but_not_compared():
    p = _profile(0.1)
    assert repr(p).endswith(", sup_value=0.3, inf_value=0.1)")
    assert hash(p) == hash(twin(p)) == hash((p.curve,))


def test_constructors_take_the_dataclass_arguments():
    p = _profile(0.1)
    pairs = [
        (oracles.AcceptanceFamily("profile", profile=p), AcceptanceFamily("profile", profile=p)),
        (oracles.AcceptanceFamily("flat", p, ()), AcceptanceFamily("flat", p, ())),
        (oracles.AcceptanceFamily(kind="table", table=((0.0, p.curve),)),
         AcceptanceFamily(kind="table", table=((0.0, p.curve),))),
        (measures.RiskReport(value=math.inf, violation_point=None,
                             finiteness_case="plus_infinity_tail_dominated"),
         RiskReport(math.inf, None, "plus_infinity_tail_dominated")),
        (checks.SuiteResult("cfa", 3, 1, 0.5, details={"k": 1}),
         SuiteResult("cfa", 3, 1, 0.5, details={"k": 1})),
        (checks.SuiteResult(suite="qco", trials=3, violations=0, max_residual=0.0),
         SuiteResult("qco", 3, 0, 0.0)),
        (curves.Cdf(payload=_curve(1)), Cdf(_curve(1))),
        (profiles.LossProfile(curve=p.curve), LossProfile(p.curve)),
    ]
    for ours, former in pairs:
        assert repr(ours) == repr(former) == repr(twin(ours))
    with pytest.raises(TypeError):
        measures.RiskReport(1.0, 1.0)
    with pytest.raises(TypeError):
        profiles.LossProfile(p.curve, sup_value=1.0)


# ---------- a lazy curve completes on repr, == and hash ----------


def _samples():
    rng = random.Random(8)
    return [rng.gauss(0.0, 1.0) for _ in range(3000)]


def _lazy():
    curve = curves.from_samples(_samples()).payload
    assert type(curve) is curves._LazyRC
    return curve


def test_lazy_curve_matches_the_dataclass():
    eager = curves.MonotoneRC._trusted(*curves._sample_columns(sorted(_samples()), 3000), 0.0, 1.0)
    former = twin(eager)
    assert repr(_lazy()) == repr(former)
    assert outcome(hash, _lazy()) == outcome(hash, former)
    for lazy in (_lazy(), _lazy()):
        assert lazy == eager and eager == _lazy() and lazy != _curve(1)
    assert (_lazy() == former) is False
    for attr in MonotoneRC.__dataclass_fields__:
        assert assignment(_lazy(), attr) == assignment(twin(eager), attr)
