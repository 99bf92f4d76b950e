"""Exact distribution functions on the real line.

Everything in this package is built on one representation: a right-continuous
piecewise-linear function with finitely many jumps, constant outside the hull
of its breakpoints.  The class is closed under mixing, translation, left
truncation and the acceptance-boundary constructions, so quantiles, stochastic
dominance and curve crossings are computed exactly from breakpoint data.
Grids appear only in test oracles.

Risk values elsewhere in the package are plain floats; ``math.inf`` is a legal
value (infinitely risky) but ``-math.inf`` is never returned -- situations
that would produce it raise instead.
"""

from __future__ import annotations

import bisect
import math
from itertools import chain, compress, islice, repeat
from operator import ge, le, ne, truediv
from types import SimpleNamespace

NONDECREASING = "nondecreasing"
NONINCREASING = "nonincreasing"

_RANGE_SLACK = 1e-9


def _interp(xa, ya, xb, yb, x):
    # The one segment formula, so identical inputs give identical floats.  A
    # span wider than the float range halves the differences on its axis.
    dx, dy = xb - xa, yb - ya
    if dx - dx == dy - dy == 0.0:  # both spans finite
        return ya + (x - xa) * dy / dx
    if not math.isfinite(dx):  # halving keeps the ratio of x's differences
        x, xa, xb = x / 2, xa / 2, xb / 2
    half = (x - xa) * (yb / 2 - ya / 2) / (xb - xa)
    return ya + half + half


def _clip01(y):
    # NaN fails every comparison, so it reaches the error; + 0.0 makes a zero +0.0
    if 0.0 <= y <= 1.0:
        return y + 0.0
    if -_RANGE_SLACK <= y < 0.0:
        return 0.0
    if 1.0 < y <= 1.0 + _RANGE_SLACK:
        return 1.0
    raise ValueError(f"value {y} outside [0, 1]")


def _slope(xa, ya, xb, yb):
    # the one slope rule; a span wider than the float range is halved
    dx = xb - xa
    if dx - dx == 0.0:
        return (yb - ya) / dx
    return (yb - ya) / (xb / 2 - xa / 2) / 2


def _midpoint(lo, hi):
    """(lo + hi) / 2, halved first where lo + hi leaves the float range."""
    mid = 0.5 * (lo + hi)
    return mid if math.isfinite(mid) else lo / 2 + hi / 2


def _bisect(lo, hi, below, tol=0.0):
    """The bracket [lo, hi] halved toward the boundary of a monotone predicate:
    lo moves to each midpoint where ``below`` holds, hi to the others.

    The one bisection rule.  It stops at the first of: a width at most tol, a
    midpoint that is not strictly inside (adjacent floats), or 200 halvings.
    Callers check first that ``below`` holds at lo and fails at hi.
    """
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = _midpoint(lo, hi)
        if not lo < mid < hi:
            break
        if below(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _collinear(xa, ya, xb, yb, xc, yc):
    if xc - xa == math.inf:  # halved, no span is inf, so no 0 * inf is NaN
        xa, xb, xc = xa / 2, xb / 2, xc / 2
    return (yb - ya) * (xc - xb) == (yc - yb) * (xb - xa)


class _Record:
    """Fields named in ``_fields``, with a frozen dataclass's ``repr``,
    ``==`` and ``hash`` and no assignment or deletion after construction.

    ``==`` holds only between instances of one class, and it and ``hash``
    read the tuple ``_key()``, all the fields unless a class says otherwise.
    Constructors fill the instance dict in one update.  Written out so that
    no command pays for importing ``dataclasses``.
    """

    _fields = ()

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def _key(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class MonotoneRC(_Record):
    """Right-continuous piecewise-linear function R -> [0, 1] with jumps.

    ``MonotoneRC(points, tail_left, tail_right, orientation)`` takes an
    ordered sequence of ``(x, left_limit, value)`` triples.  The function
    equals ``tail_left`` on ``(-inf, x_1)``, ``tail_right`` on
    ``[x_N, +inf)``, is affine between consecutive breakpoints, and at each
    breakpoint takes ``value`` (the left limit is stored separately, so jumps
    are ``value - left_limit``).

    The breakpoints are stored as three parallel tuples: ``xs`` (strictly
    increasing abscissae), ``lefts`` (left limits) and ``values``.
    ``points`` rebuilds the triples from them on each access.  A curve from
    ``from_samples`` may start as a ``_LazyRC``, which has built the columns
    of its smallest samples only.

    ``orientation`` selects which monotonicity is enforced; ``None`` skips the
    check entirely, which is needed for the non-monotone acceptance boundaries
    induced by decreasing loss profiles.

    Instances are canonicalized on construction (redundant breakpoints
    dropped), so ``==`` is a meaningful exact equality.  Levels must lie in
    [0, 1] (NaN is rejected); the abscissae must be finite.
    """

    _fields = ("xs", "lefts", "values", "tail_left", "tail_right", "orientation")
    _prefix = None  # the built part of a _LazyRC, read through _built

    def __init__(self, points, tail_left, tail_right, orientation=NONDECREASING):
        pts = [(float(x), _clip01(float(l)), _clip01(float(v))) for x, l, v in points]
        tl = _clip01(float(tail_left))
        tr = _clip01(float(tail_right))
        for x, _, _ in pts:
            if not math.isfinite(x):
                raise ValueError("breakpoint abscissae must be finite")
        for a, b in zip(pts, pts[1:]):
            if not a[0] < b[0]:
                raise ValueError("breakpoint abscissae must be strictly increasing")
        xs, ls, vs = _trim_ends(*_drop_collinear(pts), tl, tr)
        if xs:
            if ls[0] != tl:
                raise ValueError("left limit of first breakpoint must equal tail_left")
            if vs[-1] != tr:
                raise ValueError("value of last breakpoint must equal tail_right")
        elif tl != tr:
            raise ValueError("a curve without breakpoints must be constant")
        if orientation in (NONDECREASING, NONINCREASING):
            self._check_monotone(ls, vs, up=orientation == NONDECREASING)
        elif orientation is not None:
            raise ValueError(f"unknown orientation {orientation!r}")
        self._fill(xs, ls, vs, tl, tr, orientation)

    def _fill(self, xs, lefts, values, tail_left, tail_right, orientation):
        vars(self).update(xs=xs, lefts=lefts, values=values, tail_left=tail_left,
                          tail_right=tail_right, orientation=orientation)

    @classmethod
    def _trusted(cls, xs: tuple, lefts: tuple, values: tuple,
                 tail_left: float, tail_right: float) -> "MonotoneRC":
        """A nondecreasing curve from columns already canonical and valid.

        For the outputs of operations that preserve validity by construction;
        skips the O(n) checks of ``__init__``, whose result it must equal.
        """
        self = object.__new__(cls)
        self._fill(xs, lefts, values, tail_left, tail_right, NONDECREASING)
        return self

    @staticmethod
    def _check_monotone(lefts, values, up):
        # the chain l0, v0, l1, v1, ...: even links are jumps, odd ones slopes
        levels = list(chain.from_iterable(zip(lefts, values)))
        ok = list(map(le if up else ge, levels, islice(levels, 1, None)))
        if not all(ok):
            k = ok.index(False)
            # a breakpoint whose jump fails is named by it, not by the slope into it
            if k % 2 and ok[k + 1]:
                raise ValueError("segment slope violates orientation")
            raise ValueError("breakpoint jump violates orientation")

    # ---------- evaluation ----------

    def __call__(self, x: float) -> float:
        """Right-continuous value at x; NaN is an error."""
        return _value(self, bisect.bisect_right(self.xs, x), x)

    def left_limit(self, x: float) -> float:
        """Limit from the left at x; NaN is an error."""
        k = bisect.bisect_left(self.xs, x)
        if k < len(self.xs) and self.xs[k] == x:
            return self.lefts[k]
        _reject_nan(x)
        return _off_breakpoint(self, k, x)[0]

    def jump(self, x: float) -> float:
        """The jump at x; NaN is an error."""
        return self(x) - self.left_limit(x)

    # ---------- summaries ----------

    @property
    def points(self) -> tuple:
        """The breakpoints as ``(x, left_limit, value)`` triples, built anew."""
        return tuple(zip(self.xs, self.lefts, self.values))

    def _levels(self):
        # tails first, then each breakpoint's left limit and value, in order
        pairs = chain.from_iterable(zip(self.lefts, self.values))
        return chain((self.tail_left, self.tail_right), pairs)

    @property
    def sup_value(self) -> float:
        return max(self._levels())

    @property
    def inf_value(self) -> float:
        return min(self._levels())

    @property
    def is_continuous(self) -> bool:
        return self.lefts == self.values

    def atoms(self):
        """Jump locations and sizes, as (x, mass) pairs."""
        return [(x, v - l) for x, l, v in zip(self.xs, self.lefts, self.values) if v != l]

    def shift_x(self, dx: float) -> "MonotoneRC":
        """Same curve with every breakpoint moved right by dx."""
        return MonotoneRC(
            zip([x + dx for x in self.xs], self.lefts, self.values),
            self.tail_left,
            self.tail_right,
            self.orientation,
        )


class _LazyRC(MonotoneRC):
    """An empirical CDF with the columns of its smallest samples built.

    ``prefix`` holds the columns of the smallest samples, among them every
    sample at or below its last abscissa, with the shares of all n samples.
    The samples are those of ``parts`` in input order: each part is a list,
    or a loader that returns one, such as a CSV range that a worker parsed
    or whose floats were deferred.  A part may come sorted stably instead,
    since the stable sort that completes the curve keeps ties in input order
    either way.
    The first read of ``xs``, ``lefts`` or ``values``, or ``repr``, ``==``
    or ``hash``, joins the parts into a new list, builds the rest and turns
    the curve into a plain ``MonotoneRC``; the lookup hook stays off the
    class every other curve has, where it would slow each attribute read.  Threads may share the curve: completing it twice builds equal
    columns, each in a list of its own, and any read finds them in place
    once the samples are gone.
    """

    def __init__(self, prefix: tuple, parts: list):
        xs, lefts, values = prefix
        vars(self).update(
            _prefix=SimpleNamespace(xs=xs, lefts=lefts, values=values, tail_left=0.0),
            _samples=parts, tail_left=0.0, tail_right=1.0,
            orientation=NONDECREASING,
        )

    def __getattr__(self, name):
        # for a name the instance lacks; by class, as a thread may have swapped it
        if name in ("xs", "lefts", "values"):
            _LazyRC._complete(self)
            return vars(self)[name]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def _complete(self):
        """Build all the columns from the samples; the curve is then a MonotoneRC."""
        d = vars(self)
        held = d.get("_samples")
        if held is not None:  # else another thread has built the columns
            samples = _joined(held)
            samples.sort()
            # the sorted list, which nothing changes again, replaces the inputs
            # here and in held, so they are freed before the columns are built
            d["_samples"] = held = [samples]
            d.update(zip(("xs", "lefts", "values"), _sample_columns(samples, len(samples))))
            d.pop("_prefix", None)
            d.pop("_samples", None)
        object.__setattr__(self, "__class__", MonotoneRC)

    # hash reads xs, which completes the curve.  repr and == complete it
    # first: another thread may have built xs but not yet swapped the class.
    def __repr__(self):
        _LazyRC._complete(self)
        return repr(self)

    def __eq__(self, other):
        _LazyRC._complete(self)
        return self == other

    __hash__ = _Record.__hash__


def _drop_collinear(triples):
    """Columns ``(xs, lefts, values)`` of breakpoint triples without the
    continuous breakpoints exactly collinear with their neighbours; the
    canonical form of every curve, before ``_trim_ends`` for a ``MonotoneRC``.
    """
    xs, ls, vs = [], [], []
    for x, l, v in triples:
        xs.append(x)
        ls.append(l)
        vs.append(v)
        while (
            len(xs) >= 3
            and ls[-2] == vs[-2]
            and _collinear(xs[-3], vs[-3], xs[-2], vs[-2], xs[-1], ls[-1])
        ):
            del xs[-2], ls[-2], vs[-2]
    return tuple(xs), tuple(ls), tuple(vs)


def _trim_ends(xs, ls, vs, tl, tr):
    """Columns without the flat end breakpoints that merge into a tail."""
    lo, hi = 0, len(xs)
    while hi - lo >= 2 and ls[lo] == vs[lo] == tl and ls[lo + 1] == vs[lo]:
        lo += 1
    while hi - lo >= 2 and ls[hi - 1] == vs[hi - 1] == tr and vs[hi - 2] == ls[hi - 1]:
        hi -= 1
    if hi - lo == 1 and ls[lo] == vs[lo] == tl == tr:
        lo = hi
    return xs[lo:hi], ls[lo:hi], vs[lo:hi]


def _value(curve: MonotoneRC, k: int, x: float) -> float:
    """The value at x, given k = bisect_right(curve.xs, x)."""
    if k and curve.xs[k - 1] == x:
        return curve.values[k - 1]
    _reject_nan(x)
    return _off_breakpoint(curve, k, x)[1]


def _reject_nan(x):
    # NaN fails every comparison, so bisection would send it to a tail.
    if x != x:
        raise ValueError("cannot evaluate a curve at NaN")


def _built(curve):
    """The curve, or for a lazy curve the part of it built so far.

    The part has ``xs``, ``lefts``, ``values`` and ``tail_left``, but no
    ``tail_right``.  Only the merge walk, ``_piece_at`` (on an interval the
    walk found) and ``Cdf``'s reads of the first breakpoint use it.
    """
    return curve._prefix or curve


def _off_breakpoint(curve: MonotoneRC, k: int, x: float):
    """(left limit, value) at x, strictly between breakpoints k - 1 and k.

    The one evaluation rule off the breakpoints, shared by ``__call__``,
    ``left_limit`` and the merge walk so that all three agree float for float.
    """
    if k == 0:
        return curve.tail_left, curve.tail_left
    if k == len(curve.xs):
        return curve.values[-1], curve.tail_right
    y = _interp(curve.xs[k - 1], curve.values[k - 1], curve.xs[k], curve.lefts[k], x)
    return y, y


def _walk(f: MonotoneRC, g: MonotoneRC):
    """Merged breakpoints of f and g, left to right, generated lazily.

    Yields ``(x, f_left, f_value, g_left, g_value)`` at every abscissa that
    is a breakpoint of either curve.  Two pointers advance through both
    breakpoint lists, so reaching the k-th merged point costs O(k) and a
    scan that stops early never touches the rest.  On a tie the abscissa of
    f is reported, and a left limit at a curve's first breakpoint is its
    ``tail_left``, as ``left_limit`` reports it.  A lazy curve is read from
    its prefix, and completed only when its pointer reaches the prefix end.
    """
    fc, gc = _built(f), _built(g)
    fx, fls, fvs = fc.xs, fc.lefts, fc.values
    gx, gls, gvs = gc.xs, gc.lefts, gc.values
    nf, ng = len(fx), len(gx)
    i = j = 0
    # while either curve has a breakpoint left, built or not
    while i < nf or j < ng or fc is not f or gc is not g:
        if i < nf:
            xf = fx[i]
        elif fc is not f:
            # reading the columns completes f (which may also be g)
            fc, fx, fls, fvs = f, f.xs, f.lefts, f.values
            nf = len(fx)
            continue
        else:
            xf = math.inf
        if j < ng:
            xg = gx[j]
        elif gc is not g:
            gc, gx, gls, gvs = g, g.xs, g.lefts, g.values
            ng = len(gx)
            continue
        else:
            xg = math.inf
        x = xf if xf <= xg else xg
        if xf == x:
            fl = fls[i]
            fv = fvs[i]
            i += 1
        else:
            fl, fv = _off_breakpoint(fc, i, x)
        if xg == x:
            gl = gls[j]
            gv = gvs[j]
            j += 1
        else:
            gl, gv = _off_breakpoint(gc, j, x)
        yield x, fl, fv, gl, gv


def _piece_at(curve: MonotoneRC, lo: float):
    """The affine piece of the curve covering an open interval starting at lo.

    Returns ("c", value) for constant stretches (tails and flat segments) and
    ("a", (xa, ya, xb, yb)) for a genuinely sloped piece, described by the
    curve's own breakpoints.  Callers guarantee no breakpoint lies strictly
    inside the interval they care about, and on a lazy curve a built
    breakpoint right of lo, as the walk that found the interval ensures.
    """
    curve = _built(curve)
    xs = curve.xs
    i = bisect.bisect_right(xs, lo) - 1
    if i < 0:
        return ("c", curve.tail_left)
    va = curve.values[i]
    if i == len(xs) - 1:
        return ("c", va)
    lb = curve.lefts[i + 1]
    if lb == va:
        return ("c", va)
    return ("a", (xs[i], va, xs[i + 1], lb))


def _solve_level(piece, level):
    # the piece's inverse: the segment formula with the axes swapped
    xa, ya, xb, yb = piece
    return _interp(ya, xa, yb, xb, level)


def _crossing_point(f: MonotoneRC, g: MonotoneRC, prev: float, x: float):
    """Where f - g crosses zero on (prev, x), both affine there.

    Solved on the curves' own pieces so the result does not depend on which
    merged grid exposed the segment; distributions sharing a piece and a
    level therefore get bit-identical crossings.
    """
    fp = _piece_at(f, prev)
    gp = _piece_at(g, prev)
    if fp[0] == "c" and gp[0] == "a":
        xc = _solve_level(gp[1], fp[1])
    elif gp[0] == "c" and fp[0] == "a":
        xc = _solve_level(fp[1], gp[1])
    elif fp[0] == "a" and gp[0] == "a":
        xaf, yaf, _, _ = fp[1]
        xag, yag, _, _ = gp[1]
        sf, sg = _slope(*fp[1]), _slope(*gp[1])
        if sf == sg:
            # parallel pieces: the strict exceedance was detected only at the
            # right end, so the infimum sits there
            return x
        xc = ((yag - sg * xag) - (yaf - sf * xaf)) / (sf - sg)
    else:
        raise AssertionError("two constant pieces cannot cross strictly")
    return min(max(xc, prev), x)


def pointwise_leq(f: MonotoneRC, g: MonotoneRC) -> bool:
    """Exact test of f(x) <= g(x) for all real x: no x where f exceeds g."""
    return first_above(f, g) is None


def first_above(f: MonotoneRC, g: MonotoneRC):
    """Infimum of {x : f(x) > g(x)}, computed exactly.

    Returns None when f <= g everywhere, and -inf when f exceeds g already on
    a left tail (the strict-exceedance set is unbounded below).  The scan
    stops at the first merged breakpoint that decides the answer.
    """
    if f.tail_left > g.tail_left:
        return -math.inf
    prev = None
    for x, fl, fv, gl, gv in _walk(f, g):
        if fl > gl:  # never at the first point, whose left limits are the tails
            return _crossing_point(f, g, prev, x)
        if fv > gv:
            return x
        prev = x
    return None


class Cdf(_Record):
    """A distribution function: nondecreasing MonotoneRC with tails 0 and 1."""

    _fields = ("payload",)

    def __init__(self, payload: MonotoneRC):
        if payload.orientation != NONDECREASING:
            raise ValueError("a CDF must be nondecreasing")
        if payload.tail_left != 0.0 or payload.tail_right != 1.0:
            raise ValueError("a CDF must have limits 0 and 1")
        vars(self)["payload"] = payload

    def __call__(self, x: float) -> float:
        return self.payload(x)

    def left_limit(self, x: float) -> float:
        return self.payload.left_limit(x)

    def atoms(self):
        return self.payload.atoms()

    @property
    def support_lower(self) -> float:
        """Infimum of {x : F(x) > 0}."""
        # F is 0 left of its first breakpoint and rises at it or on the
        # piece after it: canonical form drops a first breakpoint at level 0
        # followed by a flat piece.  A lazy curve has it built already.
        return _built(self.payload).xs[0]

    @property
    def support_upper(self) -> float:
        """Smallest x with F(x) = 1 from there on."""
        return self.payload.xs[-1]

    def quantile_right(self, u: float) -> float:
        """sup{x : F(x) <= u}, the right-continuous inverse, for u in (0, 1)."""
        if not 0.0 < u < 1.0:
            raise ValueError("quantile level must lie in (0, 1)")
        p = self.payload
        # the first breakpoint whose value exceeds u; the last one has value 1
        i = bisect.bisect_right(p.values, u)
        x, l = p.xs[i], p.lefts[i]
        if l <= u:
            return x
        return _solve_level((p.xs[i - 1], p.values[i - 1], x, l), u)

    def translate(self, m: float) -> "Cdf":
        """Distribution shifted right by m: result(x) = F(x - m)."""
        return Cdf(self.payload.shift_x(float(m)))


def dirac(x: float) -> Cdf:
    """Point mass at x."""
    if not math.isfinite(x):
        raise ValueError("point mass location must be finite")
    return Cdf(MonotoneRC(((float(x), 0.0, 1.0),), 0.0, 1.0))


def uniform(a: float, b: float) -> Cdf:
    """Continuous uniform distribution on [a, b]."""
    if not a < b:
        raise ValueError("uniform requires a < b")
    return Cdf(MonotoneRC(((float(a), 0.0, 0.0), (float(b), 1.0, 1.0)), 0.0, 1.0))


def from_samples(xs) -> Cdf:
    """Empirical distribution of the samples; ties merge into one jump.

    From 1024 samples on, only the smallest are sorted and built at first:
    those at or below a pivot near the 2 % rank of a fixed stride sample
    (after Floyd and Rivest's selection, with no randomness).  The shares of
    the samples below and at each of them are then exact ranks, so the
    floats equal those of the full build.  The merge walk reads this prefix
    and completes the curve only if it runs past it; any other read of the
    columns completes it first.  See ``_sample_columns`` for the build.

    No pass makes a Python call per sample.  A NaN or an infinity makes the
    running sum non-finite for good, so a finite sum proves every sample
    finite; only a non-finite sum, which finite samples also give when it
    overflows, is checked sample by sample.  Only the guard's truth is used,
    so how ``sum`` rounds cannot change a result.  The prefix comes from
    one comprehension, which keeps the samples in input order.

    The samples are copied first, so the caller's list is never touched.
    """
    return _from_floats(list(map(float, xs)))


def _from_floats(xs: list) -> Cdf:
    """``from_samples`` on a fresh list of floats, which the curve owns.

    The list is not copied: below 1024 samples it is sorted in place, and a
    lazy curve keeps it, so the caller must not use it again.
    """
    if not xs:
        raise ValueError("no data")
    if not _all_finite(xs):
        raise ValueError("samples must be finite")
    n = len(xs)
    stride = n >> 10
    if not stride:
        return _from_head(xs, n, [xs])
    sample = sorted(xs[::stride])
    pivot = sample[len(sample) // 50]
    return _from_head([x for x in xs if x <= pivot], n, [xs])


def _all_finite(xs) -> bool:
    """No NaN or infinity in xs: a finite sum proves it at once."""
    return math.isfinite(sum(xs)) or all(map(math.isfinite, xs))


def _from_head(head: list, n: int, parts: list) -> Cdf:
    """The empirical CDF of n finite samples, lazy from 1024 samples on.

    The samples are those of ``parts``, each a list or a loader that returns
    one, in input order; a part's own samples may come sorted stably.  head
    holds every sample at or below a pivot that is one of them, in input
    order or as sorted runs in input order; the stable sort merges the runs
    and keeps tied -0.0 and 0.0 in that order.
    The loaders run when the curve completes, or here if it is built
    eagerly: below 1024 samples and not all of them in head.  head is sorted
    in place; a lazy curve keeps parts and never changes them.
    """
    if len(head) < n:
        if n >= 1024 and head:  # empty if a file changed after its pivot was read
            head.sort()
            return Cdf(_LazyRC(_sample_columns(head, n), parts))
        head = _joined(parts)
    head.sort()
    return Cdf(MonotoneRC._trusted(*_sample_columns(head, n), 0.0, 1.0))


def _joined(parts: list) -> list:
    """A new list: the samples of each part, a list or a loader, in order."""
    joined = []
    for part in parts:
        joined += part() if callable(part) else part
    return joined


def _sample_columns(xs: list, n: int):
    """Columns of the empirical CDF of n samples, up to the last value of xs.

    xs is sorted and holds every sample at or below its last value, so each
    share below is an exact rank.  Passes that run in C: the jump at each
    distinct value runs from the share k / n of samples below it to the
    share at or below it.  The shares form one tuple, so the value at one
    breakpoint and the left limit at the next are the same float.  Of tied
    -0.0 and 0.0 the breakpoint is the first in xs, which a stable sort
    keeps in input order.
    """
    m = len(xs)
    # steps[k]: sample k + 1 differs from sample k
    steps = list(map(ne, xs, islice(xs, 1, None)))
    if all(steps):
        cuts = range(m + 1)
    else:
        firsts = [True, *steps]  # firsts[k]: sample k is the first of its run
        xs = list(compress(xs, firsts))
        cuts = list(compress(range(m), firsts))
        cuts.append(m)
    shares = tuple(map(truediv, cuts, repeat(n)))
    return tuple(xs), shares[:-1], shares[1:]


def piecewise_cdf(points) -> Cdf:
    """CDF from explicit (x, left_limit, value) breakpoints with tails 0, 1."""
    return Cdf(MonotoneRC(tuple(points), 0.0, 1.0))


def mixture(p: Cdf, q: Cdf, lam: float) -> Cdf:
    """Compound lottery lam*P + (1-lam)*Q, exact on merged breakpoints."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("mixture weight must lie in [0, 1]")
    if lam == 1.0:
        return p
    if lam == 0.0:
        return q
    co = 1.0 - lam
    # Each level rounds a convex combination of levels in [0, 1], and
    # lam + (1.0 - lam) rounds to exactly 1, so no level leaves [0, 1];
    # rounding can still make neighbours collinear.
    xs, ls, vs = _trim_ends(
        *_drop_collinear(
            (x, lam * pl + co * ql, lam * pv + co * qv)
            for x, pl, pv, ql, qv in _walk(p.payload, q.payload)
        ),
        0.0,
        1.0,
    )
    return Cdf(MonotoneRC._trusted(xs, ls, vs, 0.0, 1.0))


def truncate_left(g: MonotoneRC, c: float) -> Cdf:
    """The distribution with CDF g(x) for x >= c and 0 below.

    Mass that g places at or below c collapses into an atom at c; g must
    reach 1 (tail_right == 1).
    """
    if g.tail_right != 1.0:
        raise ValueError("truncation requires a curve reaching 1")
    c = float(c)
    if not math.isfinite(c):
        raise ValueError("truncation point must be finite")
    gx, gl, gv = g.xs, g.lefts, g.values
    k = bisect.bisect_right(gx, c)
    # interpolation may round 1 ulp past the end level of a piece
    hx, hl, hv = [c], [0.0], [_clip01(_value(g, k, c))]
    # g's breakpoints right of c are canonical among themselves, so only a
    # triple through the new first breakpoint can be collinear: the drops
    # chain from the front and end at the first triple that keeps its middle.
    while k < len(gx):
        hx.append(gx[k])
        hl.append(gl[k])
        hv.append(gv[k])
        k += 1
        if len(hx) == 3:
            if hl[1] == hv[1] and _collinear(hx[0], hv[0], hx[1], hv[1], hx[2], hl[2]):
                del hx[1], hl[1], hv[1]
            else:
                break
    xs, ls, vs = _trim_ends(
        tuple(hx) + gx[k:], tuple(hl) + gl[k:], tuple(hv) + gv[k:], 0.0, 1.0
    )
    if g.orientation != NONDECREASING:
        MonotoneRC._check_monotone(ls, vs, up=True)
    return Cdf(MonotoneRC._trusted(xs, ls, vs, 0.0, 1.0))


def dominates(p: Cdf, q: Cdf) -> bool:
    """True iff P first-order dominates Q, i.e. F_P <= F_Q everywhere."""
    return pointwise_leq(p.payload, q.payload)
