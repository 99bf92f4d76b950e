"""The lazy empirical CDF against the eager build it replaced.

``from_samples`` builds, from 1024 samples on, only the columns of the
samples at or below a pivot, and completes the curve on the first read that
needs more.  The oracle below is the eager build as it was written before:
sort all the samples, then the same C-level passes.  The lazy curve must
equal it float for float, signed zeros included, whichever read completes
it, and every answer read from its prefix must be the eager curve's.

The finiteness guard and the prefix selection are also checked against the
two per-sample passes they replaced, kept below as oracles: the same error
for every non-finite input, the same curve for finite samples whose sum
overflows, and the same prefix, signed zeros included.
"""

import json
import math
import random
from itertools import compress, islice, repeat
from operator import ne, truediv

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambdavar import (
    NONINCREASING,
    Cdf,
    MonotoneRC,
    constant_profile,
    dominates,
    from_samples,
    lambda_var,
    mixture,
    piecewise_profile,
    pointwise_leq,
    step_profile,
)
from lambdavar.cli import main
from lambdavar.curves import _crossing_point, _from_floats, _LazyRC, _sample_columns

# ---------- oracle ----------


def from_samples_eager(xs):
    xs = sorted(map(float, xs))
    n = len(xs)
    steps = list(map(ne, xs, islice(xs, 1, None)))
    if all(steps):
        cuts = range(n + 1)
    else:
        firsts = [True, *steps]
        xs = list(compress(xs, firsts))
        cuts = list(compress(range(n), firsts))
        cuts.append(n)
    shares = tuple(map(truediv, cuts, repeat(n)))
    return Cdf(MonotoneRC(zip(xs, shares[:-1], shares[1:]), 0.0, 1.0))


def check_finite_by_sample(xs):
    """The per-sample finiteness pass that the guard on the sum replaced."""
    if not all(map(math.isfinite, xs)):
        raise ValueError("samples must be finite")


def prefix_by_filter(xs):
    """The prefix columns as the C-level filter selected them, at the pivot
    of from_samples: the 2 % rank of every (n >> 10)-th sample."""
    n = len(xs)
    sample = sorted(xs[:: n >> 10])
    pivot = sample[len(sample) // 50]
    return _sample_columns(sorted(filter(pivot.__ge__, xs)), n)


def is_lazy(p):
    return type(p.payload) is _LazyRC


def columns(p):
    c = p.payload
    return c.xs, c.lefts, c.values


# ---------- samples ----------

# n below 1024 builds eagerly; the stride of the pivot sample is n >> 10
STRIDE_EDGES = [1023, 1024, 1025, 2047, 2048, 2049]


@st.composite
def sample_lists(draw, sizes=st.one_of(st.sampled_from(STRIDE_EDGES), st.integers(1000, 2500))):
    """Seeded sample lists of one of five shapes.

    ``ties`` draws from a few values, so the pivot is always tied;
    ``zeros`` puts tied -0.0 and 0.0 at the pivot rank, in input order;
    ``steps`` is a grid with ties everywhere.
    """
    n = draw(sizes)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["gauss", "ties", "zeros", "steps", "equal"]))
    if shape == "gauss":
        xs = [rng.gauss(0.0, 1.0) for _ in range(n)]
    elif shape == "ties":
        pool = [rng.gauss(0.0, 1.0) for _ in range(draw(st.integers(2, 60)))]
        xs = [rng.choice(pool) for _ in range(n)]
    elif shape == "zeros":
        below = draw(st.integers(0, n // 40))
        zeros = draw(st.integers(1, n // 10))
        xs = [-1.0 - rng.random() for _ in range(below)]
        xs += [rng.choice([-0.0, 0.0]) for _ in range(zeros)]
        xs += [rng.random() + 5e-324 for _ in range(n - below - zeros)]
        rng.shuffle(xs)
    elif shape == "steps":
        xs = [rng.randrange(-50, 50) / 4 for _ in range(n)]
    else:
        xs = [2.5] * n
    return xs


PROFILES = st.one_of(
    st.floats(0.0, 0.95).map(constant_profile),
    st.tuples(st.floats(0.0, 0.1), st.floats(0.1, 0.9), st.floats(-3.0, 1.0)).map(
        lambda t: step_profile(*t)
    ),
    # a falling ramp: the CDF crosses it on a segment, not only at a jump
    st.tuples(st.floats(-3.0, 0.0), st.floats(0.01, 0.3), st.floats(0.0, 0.01)).map(
        lambda t: piecewise_profile(
            [(t[0], t[1], t[1]), (t[0] + 1.0, t[2], t[2])], (t[1], t[2]), NONINCREASING
        )
    ),
)


# ---------- equality with the eager build ----------


# Reads of the whole curve p, each of which completes a lazy one; e is the
# eager curve of the same samples.
READS = {
    "repr": lambda p, e: repr(p),
    "hash": lambda p, e: hash(p),
    "==": lambda p, e: p == e,
    "== reversed": lambda p, e: e == p,
    "points": lambda p, e: p.payload.points,
    "xs[-1]": lambda p, e: p.support_upper,
    "bisection": lambda p, e: p.quantile_right(0.5),
    "value": lambda p, e: p(0.0),
    "jump": lambda p, e: p.payload.jump(2.5),
    "walk of one curve": lambda p, e: pointwise_leq(p.payload, p.payload),
}


class TestAgainstEagerBuild:
    @given(sample_lists(), st.sampled_from(sorted(READS)))
    def test_every_read_completes_to_the_eager_curve(self, xs, name):
        read = READS[name]
        eager = from_samples_eager(xs)
        p = from_samples(xs)
        assert repr(read(p, eager)) == repr(read(eager, eager))
        assert not is_lazy(p)
        assert repr(p) == repr(eager)
        assert repr(columns(p)) == repr(columns(eager))
        assert p == eager and eager == p and hash(p) == hash(eager)

    @given(sample_lists())
    def test_prefix_is_exact(self, xs):
        p = from_samples(xs)
        if not is_lazy(p):  # fewer than 1024 samples, or none above the pivot
            return
        prefix = p.payload._prefix
        k = len(prefix.xs)
        # every sample at or below the last built breakpoint is built
        assert sum(x <= prefix.xs[-1] for x in xs) / len(xs) == prefix.values[-1] < 1.0
        assert repr((prefix.xs, prefix.lefts, prefix.values)) == repr(
            tuple(c[:k] for c in columns(from_samples_eager(xs)))
        )

    @given(sample_lists(), PROFILES)
    def test_lambda_var_matches(self, xs, profile):
        p = from_samples(xs)
        eager = from_samples_eager(xs)
        got, want = lambda_var(p, profile), lambda_var(eager, profile)
        assert repr(got) == repr(want)
        # read from the prefix, or completed on the way: never a third curve
        assert repr(p) == repr(eager)

    @given(
        sample_lists(st.sampled_from([1024, 1100])),
        sample_lists(st.sampled_from([1024, 1100])),
        st.sampled_from([0.25, 0.5, 0.7]),
    )
    def test_mixture_and_dominance_match(self, xs, ys, lam):
        pe, qe = from_samples_eager(xs), from_samples_eager(ys)
        assert dominates(from_samples(xs), from_samples(ys)) is dominates(pe, qe)
        assert repr(mixture(from_samples(xs), from_samples(ys), lam)) == repr(mixture(pe, qe, lam))


# ---------- the finiteness guard and the prefix selection ----------


@st.composite
def non_finite_samples(draw):
    """Samples, fewer or more than 1024, with NaN or an infinity put at the
    first, middle or last position or at a stride index."""
    xs = draw(sample_lists(st.one_of(st.integers(10, 1023), st.sampled_from(STRIDE_EDGES),
                                     st.integers(1024, 3000))))
    n = len(xs)
    stride = max(1, n >> 10)
    for _ in range(draw(st.integers(1, 3))):
        where = draw(st.sampled_from(["first", "middle", "last", "stride"]))
        if where == "stride":
            i = stride * draw(st.integers(0, (n - 1) // stride))
        else:
            i = {"first": 0, "middle": n // 2, "last": n - 1}[where]
        xs[i] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return xs


@st.composite
def huge_samples(draw):
    """Finite samples near the float limit, whose running sum may overflow."""
    n = draw(st.one_of(st.integers(1, 1023), st.sampled_from(STRIDE_EDGES)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    signs = draw(st.sampled_from([(1.0,), (-1.0,), (1.0, -1.0)]))
    return [rng.choice(signs) * rng.uniform(1e306, 1.7976931348623157e308) for _ in range(n)]


class TestAgainstPerSamplePasses:
    @given(non_finite_samples())
    def test_non_finite_samples_raise_as_before(self, xs):
        with pytest.raises(ValueError) as want:
            check_finite_by_sample(xs)
        with pytest.raises(Exception) as got:
            from_samples(xs)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value) == "samples must be finite"

    @pytest.mark.parametrize(
        "xs, overflows",
        [
            ([1e308] * 2048, True),
            ([-1e308] * 2048, True),
            ([1e308, -1e308] * 1024, False),
            ([1e308] * 2 + [-1e308] * 2046, True),  # +inf at once, and it stays
            ([-1e308] * 1000 + [1e308] * 1000 + [0.0] * 48, True),
            ([1e308, 1e308, 0.5], True),  # fewer than 1024: built eagerly
        ],
    )
    def test_finite_samples_whose_sum_overflows_build(self, xs, overflows):
        assert math.isfinite(sum(xs)) is not overflows
        assert repr(from_samples(xs)) == repr(from_samples_eager(xs))

    @settings(max_examples=30)
    @given(huge_samples())
    def test_huge_samples_build_as_eagerly(self, xs):
        assert repr(from_samples(xs)) == repr(from_samples_eager(xs))

    @given(sample_lists())
    def test_prefix_is_the_filter_it_replaced(self, xs):
        p = from_samples(xs)
        if not is_lazy(p):
            return
        prefix = p.payload._prefix
        assert repr((prefix.xs, prefix.lefts, prefix.values)) == repr(prefix_by_filter(xs))

    @pytest.mark.parametrize("pivot_zero", [-0.0, 0.0])
    @pytest.mark.parametrize("first", [-0.0, 0.0])
    def test_prefix_keeps_signed_zero_ties_at_the_pivot(self, pivot_zero, first):
        # 2048 samples, stride 2: the 2 % rank of the even-indexed ones is a
        # zero of sign pivot_zero, zeros of both signs tie with it, and the
        # first zero in input order, at an odd index, is first
        xs = [float(k) for k in range(1, 2049)]
        for k in range(0, 40, 2):
            xs[k] = -1.0 - k
        for k in range(39, 100):
            xs[k] = -first if k % 3 else first
        xs[39], xs[40] = first, pivot_zero
        p = from_samples(xs)
        assert is_lazy(p)
        prefix = p.payload._prefix
        assert prefix.xs[-1] == 0.0 and repr(prefix.xs[-1]) == repr(first)
        assert repr((prefix.xs, prefix.lefts, prefix.values)) == repr(prefix_by_filter(xs))
        assert repr(p) == repr(from_samples_eager(xs))


# ---------- named cases ----------


def lazy_and_eager(xs):
    p = from_samples(xs)
    return p, from_samples_eager(xs)


class TestCases:
    def test_one_sample(self):
        p, eager = lazy_and_eager([-0.0])
        assert not is_lazy(p) and repr(p) == repr(eager)

    @pytest.mark.parametrize("n", [1023, 1024, 5000])
    def test_all_equal_builds_eagerly(self, n):
        p, eager = lazy_and_eager([7.0] * n)
        assert not is_lazy(p) and repr(p) == repr(eager)

    @pytest.mark.parametrize("n, lazy", [(1023, False), (1024, True), (2047, True), (2048, True)])
    def test_stride_boundary(self, n, lazy):
        xs = [float((k * 7919) % n) for k in range(n)]
        p, eager = lazy_and_eager(xs)
        assert is_lazy(p) is lazy
        assert repr(lambda_var(p, constant_profile(0.01))) == repr(
            lambda_var(eager, constant_profile(0.01))
        )
        assert is_lazy(p) is lazy  # the 1 % level lies inside the prefix
        assert repr(p) == repr(eager)

    @pytest.mark.parametrize("first", [-0.0, 0.0])
    def test_merged_zeros_keep_the_first_in_input_order(self, first):
        # 10 samples below zero, then 100 zeros of both signs: the pivot is a
        # zero, all zeros are built, and the breakpoint is the first zero given
        other = 0.0 if first == -0.0 else -0.0
        zeros = [first] + [other, first] * 50
        rest = [float(k) for k in range(1, 2000)]
        xs = rest[:1000] + [-1.0 - k for k in range(10)] + zeros[:-1] + rest[1000:]
        p, eager = lazy_and_eager(xs)
        assert is_lazy(p)
        prefix = p.payload._prefix
        assert repr(prefix.xs[-1]) == repr(first)
        assert repr(eager.payload.xs[10]) == repr(first)
        assert repr(p) == repr(eager)

    def test_ties_straddling_the_pivot_are_all_built(self):
        # 1 % of the samples lie below the pivot and a quarter equal it
        xs = [-2.0 if k % 100 == 0 else -1.0 if k % 4 == 1 else float(k) for k in range(4000)]
        p, eager = lazy_and_eager(xs)
        prefix = p.payload._prefix
        assert prefix.xs == (-2.0, -1.0) and prefix.values == (0.01, 0.26)
        assert repr(p) == repr(eager)

    def test_scan_past_the_prefix_completes_the_curve(self):
        rng = random.Random(3)
        xs = [rng.gauss(0.0, 1.0) for _ in range(5000)]
        p, eager = lazy_and_eager(xs)
        profile = constant_profile(0.5)  # the median is far past the 2 % prefix
        assert repr(lambda_var(p, profile)) == repr(lambda_var(eager, profile))
        assert not is_lazy(p)
        assert repr(p) == repr(eager)

    def test_segment_crossing_reads_the_prefix(self, monkeypatch):
        # The CDF sits at 4 / 4096 on [0, 3) and the ramp falls through that
        # level at about 1.02, so the infimum is a segment crossing.
        xs = [0.0] * 4 + [3.0 + k for k in range(4092)]
        ramp = piecewise_profile(
            [(0.0, 0.002, 0.002), (2.0, 0.0, 0.0)], (0.002, 0.0), NONINCREASING
        )
        eager = from_samples_eager(xs)
        want = lambda_var(eager, ramp)
        monkeypatch.setattr(_LazyRC, "_complete", refuse_completion)
        p = from_samples(xs)
        assert is_lazy(p)
        got = lambda_var(p, ramp)
        assert repr(got) == repr(want) and 0.0 < got.violation_point < 3.0
        assert repr(_crossing_point(p.payload, ramp.curve, 0.0, 3.0)) == repr(
            _crossing_point(eager.payload, ramp.curve, 0.0, 3.0)
        )
        assert is_lazy(p)

    def test_support_lower_reads_the_prefix(self, monkeypatch):
        monkeypatch.setattr(_LazyRC, "_complete", refuse_completion)
        p = from_samples([float(k) for k in range(3000, 0, -1)])
        assert p.support_lower == 1.0 and is_lazy(p)


# ---------- who owns the samples ----------


ANY_SIZE = st.one_of(st.integers(10, 1023), st.sampled_from(STRIDE_EDGES), st.integers(1024, 2500))


def prefix_of(p):
    return repr(vars(p.payload)["_prefix"]) if is_lazy(p) else None


class TestOwnership:
    """``from_samples`` copies the caller's list; ``_from_floats``, which the
    CLI hands its freshly parsed list when it reads no pivot from the file,
    builds the same curve from the list itself."""

    @given(sample_lists(ANY_SIZE))
    def test_from_samples_leaves_the_callers_list_alone(self, xs):
        before = repr(xs)  # repr tells -0.0 from 0.0
        p = from_samples(xs)
        assert repr(xs) == before
        repr(p)  # completes a lazy curve, which sorts its samples
        assert not is_lazy(p)
        assert repr(xs) == before

    @given(sample_lists(ANY_SIZE))
    def test_the_owning_builder_builds_the_same_curve(self, xs):
        public, owned = from_samples(xs), _from_floats(list(xs))
        assert is_lazy(owned) == is_lazy(public)
        assert prefix_of(owned) == prefix_of(public)  # before either completes
        assert repr(owned) == repr(public)
        assert not is_lazy(owned)

    @pytest.mark.parametrize("n", [1, 2, 1023, 1024, 3000])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_sample_fails_alike(self, n, bad):
        xs = [float(i) for i in range(n)]
        xs[n // 2] = bad
        with pytest.raises(ValueError) as public:
            from_samples(xs)
        with pytest.raises(ValueError) as owned:
            _from_floats(list(xs))
        assert str(public.value) == str(owned.value) == "samples must be finite"

    def test_no_samples_fail_alike(self):
        for build in (from_samples, _from_floats):
            with pytest.raises(ValueError, match="^no data$"):
                build([])


# ---------- the speed-up cannot silently regress ----------


def refuse_completion(self):
    raise AssertionError("the empirical CDF was completed")


def test_compute_lambda_var_never_completes_the_curve(tmp_path, monkeypatch, capsys):
    rng = random.Random(20)
    samples = [rng.gauss(0.0, 1.0) for _ in range(100_000)]
    data = tmp_path / "x.csv"
    data.write_text("value\n" + "\n".join(map(repr, samples)) + "\n")
    profile = tmp_path / "step.json"
    profile.write_text(json.dumps(
        {"type": "step", "lambda_min": 0.01, "lambda_max": 0.05, "threshold": -1.0}
    ))
    want = lambda_var(from_samples_eager(samples), step_profile(0.01, 0.05, -1.0))
    built = []
    init = _LazyRC.__init__

    def counted(self, prefix, *held):
        built.append(len(prefix[0]))
        init(self, prefix, *held)

    monkeypatch.setattr(_LazyRC, "__init__", counted)
    monkeypatch.setattr(_LazyRC, "_complete", refuse_completion)
    argv = ["compute", "--data", str(data), "--measure", "lambda-var", "--profile", str(profile)]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 0, err
    report = json.loads(out)
    assert report["value"] == want.value
    assert report["diagnostics"]["violation_point"] == want.violation_point
    # one curve, of which about 2 % was built: the answer sits near 1 %
    assert len(built) == 1 and 1000 < built[0] < 5000
