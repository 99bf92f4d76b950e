import pytest
from hypothesis import settings

from lambdavar.curves import MonotoneRC, _LazyRC

# Every property test runs the same 300 derandomised examples on every run:
# no example database, and no deadline, since wall time varies between runs.
settings.register_profile(
    "lambdavar", max_examples=300, derandomize=True, database=None, deadline=None
)
settings.load_profile("lambdavar")

_trusted = MonotoneRC._trusted
_lazy_init = _LazyRC.__init__
_complete = _LazyRC._complete


@pytest.fixture(autouse=True)
def revalidate_trusted_curves(monkeypatch):
    """Rebuild every trusted curve through the validating constructor.

    Operations that skip validation must produce exactly the curve that
    ``MonotoneRC(...)`` would accept and canonicalise, float for float, and
    hand over their breakpoints as three tuples of one length.

    A lazy curve from ``from_samples`` (a ``_LazyRC``) is checked when it
    is made, on a twin from the same samples that is completed at once, and
    again when it completes itself: its built prefix must be the start of
    its columns, float for float, and the columns must be what
    ``MonotoneRC(...)`` makes of them.  The curve itself stays lazy, as it
    is at run time.
    """

    def checked(xs, lefts, values, tail_left, tail_right):
        columns = (xs, lefts, values)
        assert all(type(c) is tuple for c in columns)
        assert len(xs) == len(lefts) == len(values)
        curve = _trusted(xs, lefts, values, tail_left, tail_right)
        rebuilt = MonotoneRC(zip(xs, lefts, values), tail_left, tail_right)
        assert repr(curve) == repr(rebuilt) and curve.xs == rebuilt.xs
        return curve

    def completing(curve):
        built = curve._prefix
        prefix = (built.xs, built.lefts, built.values)
        _complete(curve)
        columns = tuple(vars(curve)[name] for name in ("xs", "lefts", "values"))
        assert all(type(c) is tuple for c in columns)
        assert len(set(map(len, columns))) == 1
        k = len(prefix[0])
        assert k < len(columns[0])  # a lazy curve has something left to build
        assert repr(tuple(c[:k] for c in columns)) == repr(prefix)
        assert type(curve) is MonotoneRC
        assert repr(curve) == repr(MonotoneRC(zip(*columns), 0.0, 1.0))

    def recorded(self, prefix, parts):
        assert all(type(c) is tuple for c in prefix)
        assert len(set(map(len, prefix))) == 1
        twin = _LazyRC.__new__(_LazyRC)
        _lazy_init(twin, prefix, [part if callable(part) else list(part) for part in parts])
        completing(twin)
        _lazy_init(self, prefix, parts)

    monkeypatch.setattr(MonotoneRC, "_trusted", staticmethod(checked))
    monkeypatch.setattr(_LazyRC, "__init__", recorded)
    monkeypatch.setattr(_LazyRC, "_complete", completing)
