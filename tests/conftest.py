import pytest
from hypothesis import settings

from lambdavar.curves import MonotoneRC

# Every property test runs the same 300 derandomised examples on every run:
# no example database, and no deadline, since wall time varies between runs.
settings.register_profile(
    "lambdavar", max_examples=300, derandomize=True, database=None, deadline=None
)
settings.load_profile("lambdavar")

_trusted = MonotoneRC._trusted


@pytest.fixture(autouse=True)
def revalidate_trusted_curves(monkeypatch):
    """Rebuild every trusted curve through the validating constructor.

    Operations that skip validation must produce exactly the curve that
    ``MonotoneRC(...)`` would accept and canonicalise, float for float, and
    hand over their breakpoints as three tuples of one length.
    """

    def checked(xs, lefts, values, tail_left, tail_right):
        columns = (xs, lefts, values)
        assert all(type(c) is tuple for c in columns)
        assert len(xs) == len(lefts) == len(values)
        curve = _trusted(xs, lefts, values, tail_left, tail_right)
        rebuilt = MonotoneRC(zip(xs, lefts, values), tail_left, tail_right)
        assert repr(curve) == repr(rebuilt) and curve.xs == rebuilt.xs
        return curve

    monkeypatch.setattr(MonotoneRC, "_trusted", staticmethod(checked))
