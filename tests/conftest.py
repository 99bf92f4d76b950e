import pytest

from lambdavar.curves import MonotoneRC

_trusted = MonotoneRC._trusted


@pytest.fixture(autouse=True)
def revalidate_trusted_curves(monkeypatch):
    """Rebuild every trusted curve through the validating constructor.

    Operations that skip validation must produce exactly the curve that
    ``MonotoneRC(...)`` would accept and canonicalise, float for float.
    """

    def checked(points, tail_left, tail_right):
        curve = _trusted(points, tail_left, tail_right)
        rebuilt = MonotoneRC(points, tail_left, tail_right)
        assert repr(curve) == repr(rebuilt) and curve.xs == rebuilt.xs
        return curve

    monkeypatch.setattr(MonotoneRC, "_trusted", staticmethod(checked))
