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
from dataclasses import dataclass
from itertools import chain, compress, islice, repeat
from operator import ne, truediv

NONDECREASING = "nondecreasing"
NONINCREASING = "nonincreasing"

_RANGE_SLACK = 1e-9


def _interp(xa, ya, xb, yb, x):
    # Shared interpolation form: crossing and quantile arithmetic must use the
    # same expression so identical inputs produce identical floats.
    return ya + (x - xa) * (yb - ya) / (xb - xa)


def _clip01(y):
    # NaN fails every comparison, so it falls through to the error.
    if 0.0 <= y <= 1.0:
        return y
    if -_RANGE_SLACK <= y < 0.0:
        return 0.0
    if 1.0 < y <= 1.0 + _RANGE_SLACK:
        return 1.0
    raise ValueError(f"value {y} outside [0, 1]")


def _collinear(xa, ya, xb, yb, xc, yc):
    return (yb - ya) * (xc - xb) == (yc - yb) * (xb - xa)


@dataclass(frozen=True, init=False)
class MonotoneRC:
    """Right-continuous piecewise-linear function R -> [0, 1] with jumps.

    ``MonotoneRC(points, tail_left, tail_right, orientation)`` takes an
    ordered sequence of ``(x, left_limit, value)`` triples.  The function
    equals ``tail_left`` on ``(-inf, x_1)``, ``tail_right`` on
    ``[x_N, +inf)``, is affine between consecutive breakpoints, and at each
    breakpoint takes ``value`` (the left limit is stored separately, so jumps
    are ``value - left_limit``).

    The breakpoints are stored as three parallel tuples: ``xs`` (strictly
    increasing abscissae), ``lefts`` (left limits) and ``values``.
    ``points`` rebuilds the triples from them on each access.

    ``orientation`` selects which monotonicity is enforced; ``None`` skips the
    check entirely, which is needed for the non-monotone acceptance boundaries
    induced by decreasing loss profiles.

    Instances are canonicalized on construction (redundant breakpoints
    dropped), so ``==`` is a meaningful exact equality.  Levels must lie in
    [0, 1] (NaN is rejected); the abscissae must be finite.
    """

    xs: tuple
    lefts: tuple
    values: tuple
    tail_left: float
    tail_right: float
    orientation: str | None = NONDECREASING

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
        xs, ls, vs = self._canonical(pts, tl, tr)
        if xs:
            if ls[0] != tl:
                raise ValueError("left limit of first breakpoint must equal tail_left")
            if vs[-1] != tr:
                raise ValueError("value of last breakpoint must equal tail_right")
        elif tl != tr:
            raise ValueError("a curve without breakpoints must be constant")
        if orientation == NONDECREASING:
            self._check_monotone(ls, vs, up=True)
        elif orientation == NONINCREASING:
            self._check_monotone(ls, vs, up=False)
        elif orientation is not None:
            raise ValueError(f"unknown orientation {orientation!r}")
        self._fill(xs, ls, vs, tl, tr, orientation)

    def _fill(self, xs, lefts, values, tail_left, tail_right, orientation):
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "lefts", lefts)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "tail_left", tail_left)
        object.__setattr__(self, "tail_right", tail_right)
        object.__setattr__(self, "orientation", orientation)

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
    def _canonical(triples, tl, tr):
        """Canonical columns ``(xs, lefts, values)`` of breakpoint triples.

        Drops continuous breakpoints that are exactly collinear with their
        neighbours, then flat endpoints that merge into a constant tail.
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
        return _trim_ends(tuple(xs), tuple(ls), tuple(vs), tl, tr)

    @staticmethod
    def _check_monotone(lefts, values, up):
        def ok(a, b):
            return a <= b if up else a >= b
        prev_v = None
        for l, v in zip(lefts, values):
            if not ok(l, v):
                raise ValueError("breakpoint jump violates orientation")
            if prev_v is not None and not ok(prev_v, l):
                raise ValueError("segment slope violates orientation")
            prev_v = v

    # ---------- evaluation ----------

    def __call__(self, x: float) -> float:
        """Right-continuous value at x."""
        return _value(self, bisect.bisect_right(self.xs, x), x)

    def left_limit(self, x: float) -> float:
        """Limit from the left at x."""
        k = bisect.bisect_left(self.xs, x)
        if k < len(self.xs) and self.xs[k] == x:
            return self.lefts[k] if k else self.tail_left
        return _off_breakpoint(self, k, x)[0]

    def jump(self, x: float) -> float:
        i = bisect.bisect_left(self.xs, x)
        if i < len(self.xs) and self.xs[i] == x:
            return self.values[i] - self.lefts[i]
        return 0.0

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


def _trim_ends(xs, ls, vs, tl, tr):
    """Columns without the flat end breakpoints that merge into a tail."""
    lo, hi = 0, len(xs)
    while hi - lo >= 2 and ls[lo] == vs[lo] == tl and ls[lo + 1] == vs[lo]:
        lo += 1
    while hi - lo >= 2 and ls[hi - 1] == vs[hi - 1] == tr and vs[hi - 2] == ls[hi - 1]:
        hi -= 1
    if hi - lo == 1 and ls[lo] == vs[lo] == tl == tr:
        lo = hi
    if hi - lo < len(xs):
        return xs[lo:hi], ls[lo:hi], vs[lo:hi]
    return xs, ls, vs


def _value(curve: MonotoneRC, k: int, x: float) -> float:
    """The value at x, given k = bisect_right(curve.xs, x)."""
    if k and curve.xs[k - 1] == x:
        return curve.values[k - 1]
    return _off_breakpoint(curve, k, x)[1]


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
    ``tail_left``, as ``left_limit`` reports it.
    """
    fx, fls, fvs = f.xs, f.lefts, f.values
    gx, gls, gvs = g.xs, g.lefts, g.values
    nf, ng = len(fx), len(gx)
    i = j = 0
    while i < nf or j < ng:
        xf = fx[i] if i < nf else math.inf
        xg = gx[j] if j < ng else math.inf
        x = xf if xf <= xg else xg
        if xf == x:
            fl = fls[i] if i else f.tail_left
            fv = fvs[i]
            i += 1
        else:
            fl, fv = _off_breakpoint(f, i, x)
        if xg == x:
            gl = gls[j] if j else g.tail_left
            gv = gvs[j]
            j += 1
        else:
            gl, gv = _off_breakpoint(g, j, x)
        yield x, fl, fv, gl, gv


def _piece_at(curve: MonotoneRC, lo: float):
    """The affine piece of the curve covering an open interval starting at lo.

    Returns ("c", value) for constant stretches (tails and flat segments) and
    ("a", (xa, ya, xb, yb)) for a genuinely sloped piece, described by the
    curve's own breakpoints.  Callers guarantee no breakpoint lies strictly
    inside the interval they care about.
    """
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
    xa, ya, xb, yb = piece
    return xa + (level - ya) * (xb - xa) / (yb - ya)


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
        xaf, yaf, xbf, ybf = fp[1]
        xag, yag, xbg, ybg = gp[1]
        sf = (ybf - yaf) / (xbf - xaf)
        sg = (ybg - yag) / (xbg - xag)
        if sf == sg:
            # parallel pieces: the strict exceedance was detected only at the
            # right end, so the infimum sits there
            return x
        xc = ((yag - sg * xag) - (yaf - sf * xaf)) / (sf - sg)
    else:
        raise AssertionError("two constant pieces cannot cross strictly")
    return min(max(xc, prev), x)


def pointwise_leq(f: MonotoneRC, g: MonotoneRC) -> bool:
    """Exact test of f(x) <= g(x) for all real x.

    Both curves are affine between merged breakpoints, so tails plus values
    and left limits at merged breakpoints decide the comparison.
    """
    if f.tail_left > g.tail_left or f.tail_right > g.tail_right:
        return False
    for _, fl, fv, gl, gv in _walk(f, g):
        if fl > gl or fv > gv:
            return False
    return True


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
        if prev is not None and fl > gl:
            return _crossing_point(f, g, prev, x)
        if fv > gv:
            return x
        prev = x
    return None


@dataclass(frozen=True)
class Cdf:
    """A distribution function: nondecreasing MonotoneRC with tails 0 and 1."""

    payload: MonotoneRC

    def __post_init__(self):
        p = self.payload
        if p.orientation != NONDECREASING:
            raise ValueError("a CDF must be nondecreasing")
        if p.tail_left != 0.0 or p.tail_right != 1.0:
            raise ValueError("a CDF must have limits 0 and 1")
        if not p.xs:
            raise ValueError("a CDF must reach 1 at a finite point")

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
        # followed by a flat piece.
        return self.payload.xs[0]

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
        xa, va = p.xs[i - 1], p.values[i - 1]
        return xa + (u - va) * (x - xa) / (l - va)

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

    One sort, then passes that run in C: the jump at each distinct value runs
    from the share k / n of samples below it to the share at or below it.
    The shares form one tuple, so the value at one breakpoint and the left
    limit at the next are the same float.
    """
    xs = list(map(float, xs))
    if not xs:
        raise ValueError("no data")
    if not all(map(math.isfinite, xs)):
        raise ValueError("samples must be finite")
    xs.sort()
    n = len(xs)
    # steps[k]: sample k + 1 differs from sample k
    steps = list(map(ne, xs, islice(xs, 1, None)))
    if all(steps):
        cuts = range(n + 1)
    else:
        firsts = [True, *steps]  # firsts[k]: sample k is the first of its run
        xs = list(compress(xs, firsts))
        cuts = list(compress(range(n), firsts))
        cuts.append(n)
    shares = tuple(map(truediv, cuts, repeat(n)))
    return Cdf(MonotoneRC._trusted(tuple(xs), shares[:-1], shares[1:], 0.0, 1.0))


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
    xs, ls, vs = MonotoneRC._canonical(
        (
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


def converges_weakly(seq, limit: Cdf, probes, tol: float = 0.05) -> bool:
    """Probe weak convergence of a CDF sequence at continuity points.

    For each probe x the errors |F_n(x) - F(x)| must shrink monotonically
    along the tail of the sequence and end below tol.  Probes sitting on a
    jump of the limit are rejected.
    """
    seq = list(seq)
    if not seq:
        raise ValueError("empty sequence")
    for x in probes:
        if limit.payload.jump(x) != 0.0:
            raise ValueError(f"probe not a continuity point: {x}")
    tail = seq[len(seq) // 2:] if len(seq) >= 4 else seq
    for x in probes:
        errs = [abs(f(x) - limit(x)) for f in tail]
        if any(b > a for a, b in zip(errs, errs[1:])):
            return False
        if errs[-1] > tol:
            return False
    return True
