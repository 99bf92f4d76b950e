"""Command-line surface: compute, duality, check, plot.

Reads loss data (CSV, one numeric per line, optional "value" header) or a
distribution JSON, plus a profile JSON, and emits machine-readable JSON
reports on stdout (or --out).  Human messages go to stderr.  Exit codes:
0 ok, 2 parse error, 3 infeasible profile, 4 numerical bracket failure,
5 unwritable output (an --out path, or stdout closed, full or a broken
pipe).  Run as a program, the process ends without interpreter teardown
once its report is written; atexit callbacks still run.

Sign convention for CSV data: each line is a realized outcome of the
position (negative = a loss of money); the reported risk is the capital
cushion, so risk 5 means the position is as risky as losing 5 for sure.
"""

from __future__ import annotations

import argparse
import io
import json
import marshal
import math
import os
import re
import stat
import sys
from itertools import chain

from ._fork import leave, map_chunks, process_count
from .curves import (
    Cdf, _all_finite, _from_floats, _from_head, _interp, _joined, dirac, from_samples,
    mixture, piecewise_cdf, uniform,
)
from .exceptions import BracketError, DualRangeError, InfeasibleProfileError
from .measures import (
    certainty_equivalent,
    entropic,
    lambda_var,
    value_at_risk,
    worst_case,
)
from .profiles import LossProfile, constant_profile, piecewise_profile, step_profile

DEFAULT_TOL = 1e-9

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "lambdavar report",
    "type": "object",
    "required": ["report"],
    "properties": {
        "report": {"enum": ["compute", "duality", "check", "plot"]},
        "measure": {"type": "string"},
        "inputs": {"type": "object"},
        "value": {"oneOf": [{"type": "number"}, {"const": "+inf"}]},
        "diagnostics": {"type": "object"},
        "phi_value": {"oneOf": [{"type": "number"}, {"const": "+inf"}]},
        "best_lower_bound": {"type": "number"},
        "gap": {"oneOf": [{"type": "number"}, {"const": "+inf"}]},
        "argmax_function": {"type": "object"},
        "suite": {"type": "string"},
        "trials": {"type": "integer"},
        "seed": {"type": "integer"},
        "tol": {"type": "number"},
        "violations": {"type": "integer"},
        "max_residual": {"type": "number"},
        "details": {"type": "object"},
        "out": {"type": "string"},
    },
    "additionalProperties": False,
}


# ---------- input parsing ----------


# A file is cut into ranges only when its body holds at least 2 * _RANGE_BYTES,
# so a file of a few 10^4 lines is parsed here without a fork.  A cut file has
# a range per usable CPU or of about _BLOCK_BYTES each, whichever gives more.
_RANGE_BYTES = 2 << 20
_BLOCK_BYTES = 1 << 20
# The lazy curve's pivot is read from _PIVOT_LINES lines of the file, each
# found within _LINE_BYTES of its offset.
_PIVOT_LINES = 1024
_LINE_BYTES = 256
# A line whose shape, each ASCII digit written 9, fully matches _STRICT is
# one that float() reads: a subset of its grammar, with no + sign, space,
# underscore or positive exponent.  It is finite, as at most 308 digits
# before the point keep it below 10^308.
_NINES = bytes.maketrans(b"0123456789", b"9" * 10)
_STRICT = rb"-?(?:9{1,308}(?:\.9*)?|\.9+)(?:[eE]-9+)?"


def read_csv_samples(path: str):
    """The samples of a CSV file: one number per line, an optional header.

    A regular file is read once and parsed in byte ranges, which this
    process and workers forked by _fork.map_chunks take in turn; a worker
    sends its floats back bit for bit.  A small file, a single CPU, a live
    second thread or a platform without fork means one range, parsed here.
    A range that float() refuses is parsed again without its empty lines.
    If float() still refuses a piece in any range (a line of spaces or a
    lone carriage return, a byte that is not ASCII, a separator that
    str.strip() removes and float() keeps), or a worker fails, the whole
    file goes to the line-by-line parse, which decides and names the
    offending line.  A pipe or FIFO goes there straight, and so does any
    file where os has no pread.
    """
    with open(path, "rb") as fh:
        parts = _read_regular(fh.fileno())
        return parts and _joined([samples for samples, *_ in parts]) or _parse_lines(
            path, _text(fh.read()))


def _read_regular(fd: int, digest=None, head_only: bool = False):
    """The parsed ranges of a regular file, or None for the line loop.

    The file's bytes are read once, before any fork, and the body is cut
    into ranges at line starts.  Each range gives (samples, count, finite,
    head), in file order: its floats, a list or a loader of one, how many
    there are, whether all are finite, and, sorted stably, those at or
    below the pivot that _pivot reads from the file (None if it finds
    none).  Each range does this work where it is parsed.  Floats parsed
    here stay a list; a worker's stay the marshal bytes it sent until the
    loader reads them.

    With head_only and a pivot below zero, a range whose lines
    _strict_count proves finite calls float() only on the lines that
    _candidates finds, and defers the rest: its loader parses it when the
    curve completes (_deferred).  Every other range takes the float route,
    float() on each line.  With a digest, this process first feeds it the
    bytes while the workers parse, and then takes ranges too.
    """
    st = os.fstat(fd)
    if not (hasattr(os, "pread") and stat.S_ISREG(st.st_mode)):
        return None
    size = st.st_size
    here = os.getpid()

    def parse(span):
        if span is None:  # chunk 0, which runs here first
            if digest is not None:
                digest.update(data)
            return None
        count = candidates and _strict_count(data, *span)
        if count is not None:
            head = [x for x in map(float, candidates(data, *span)) if x <= pivot]
            head.sort()
            return None, count, True, head
        samples = _parse_range(data, *span)
        head = None
        if pivot is not None:
            head = [x for x in samples if x <= pivot]
            head.sort()
        return (samples if os.getpid() == here else marshal.dumps(samples), len(samples),
                _all_finite(samples), head)

    try:
        data = _read_all(fd, size)
        first, newline, _ = data[:256].partition(b"\n")
        # A lone \r ends a line in text mode: after one, the word is on line 2.
        is_header = newline and first.rstrip().lstrip(b" \t\v\f").lower() == b"value"
        skip = len(first) + 1 if is_header else 0
        body = size - skip
        n = min(process_count(), body // _RANGE_BYTES)
        n = max(n, body // _BLOCK_BYTES) if n > 1 else 1
        pivot = _pivot(data, skip, size)
        candidates = None
        if head_only and pivot is not None and -math.inf < pivot < 0:
            candidates = _candidates(pivot)
        cuts = [_line_start(data, pos) if skip < pos < size else pos
                for pos in (skip + body * k // n for k in range(n + 1))]
        spans = list(zip(cuts, cuts[1:]))
        parts = map_chunks(parse, [None, *spans]) if n > 1 else list(map(parse, [None, *spans]))
    except (ValueError, OSError):
        return None
    if parts is None:
        return None
    del parts[0]
    loaders = iter(_deferred(data, [span for span, (samples, *_) in zip(spans, parts)
                                    if samples is None]))
    return [(samples if type(samples) is list else next(loaders) if samples is None
             else lambda blob=samples: marshal.loads(blob), *rest) for samples, *rest in parts]


def _read_all(fd: int, size: int) -> bytes:
    """The first size bytes of the file; ValueError if it has shrunk."""
    data = os.pread(fd, size, 0)
    while len(data) < size:
        more = os.pread(fd, size - len(data), len(data))
        if not more:
            raise ValueError("the file shrank")
        data += more
    return data


def _pivot(data: bytes, start: int, end: int):
    """The sample at the 2 % rank of the lines at _PIVOT_LINES evenly spaced
    offsets of bytes [start, end), or None if no line is left.

    Each is the first full line at or after its offset.  A line that float()
    refuses, or that does not end within _LINE_BYTES, is left out.  So the
    pivot depends on the file's bytes only, never on how many ranges parse
    them, and it is one of the samples whenever the ranges parse.
    """
    sample = []
    for k in range(_PIVOT_LINES):
        pos = start + (end - start) * k // _PIVOT_LINES
        at = pos - 1 if pos > start else pos  # a line starts after a newline at pos - 1
        block = data[at:min(at + _LINE_BYTES, end)]
        lines = block.split(b"\n", 2)[pos > start:]
        if len(lines) > 1 or lines and at + len(block) == end:  # a newline or the end follows
            try:
                sample.append(float(lines[0]))
            except ValueError:
                pass
    sample.sort()
    return sample[len(sample) // 50] if sample else None


def _strict_count(data: bytes, start: int, end: int):
    """How many lines bytes [start, end) hold that are not empty, if each
    matches _STRICT, so float() reads it as a finite float; else None.

    Passes that run in C: the digits become 9s, the bytes are split at
    newlines, and only the distinct shapes meet the pattern.
    """
    lines = data[start:end].translate(_NINES).split(b"\n")
    shapes = set(lines)
    shapes.discard(b"")
    if all(map(re.compile(_STRICT).fullmatch, shapes)):
        return len(lines) - lines.count(b"")
    return None


def _candidates(pivot: float):
    """A function of (data, start, end), which start at line starts, that
    returns every line of bytes [start, end) at or below pivot < 0, and few
    others, provided each line matches _STRICT.

    Such a line reads -I.F with an exponent of at most 0, so its decimal
    value lies above -(I + 1), and float() rounds it by a share of at most
    2^-53.  A float at or below pivot thus comes from an integer part I of
    at least k = floor(-pivot * (1 - 2^-50)): a line of -, zeros, and
    either as many digits as k with a first digit at least k's, or more
    digits.  The factor keeps -2.99999999999999999999, which float() reads
    as -3.0, when the pivot is -3.0.  With k = 0 each line that starts with
    - is taken.
    """
    k = str(math.floor(-pivot * (1 - 2 ** -50)))
    digits = "" if k == "0" else "0*(?:[%s-9]\\d{%d}|[1-9]\\d{%d,})" % (k[0], len(k) - 1, len(k))
    find = re.compile(("\\n-%s[^\\n]*" % digits).encode()).findall

    def lines(data, start, end):
        # each match starts at the newline before its line, which float() skips
        return find(data, start - 1, end) if start else find(b"\n" + data[:end])

    return lines


def _deferred(data: bytes, spans: list) -> list:
    """A loader of the floats of each span of data, sorted stably, for a
    lazy curve.

    The first call parses and sorts every span, through _fork.map_chunks:
    in parallel where this process may fork, serially while a second
    thread is alive.  Each loader then returns its own span's list.  Threads
    that complete one curve parse each span once.  The curve's stable sort
    then merges sorted runs, and ties keep input order.
    """
    import threading  # loaded already: process_count imports it

    lock, parsed = threading.Lock(), []

    def parse(span):
        samples = _parse_range(data, *span)
        samples.sort()
        return samples

    def load(k):
        with lock:
            if not parsed:
                parsed.append(map_chunks(parse, spans) or list(map(parse, spans)))
        return parsed[0][k]

    return [lambda k=k: load(k) for k in range(len(spans))]


def _from_ranges(parts, n: int) -> Cdf:
    """The empirical CDF of the n samples of the parsed ranges.

    It is built from the heads, lazily from 1024 samples on, and loads a
    worker's or a deferred range's floats only when it completes.  Without
    a pivot it is _from_floats on all the samples.
    """
    if not all(finite for _, _, finite, _ in parts):
        raise ValueError("samples must be finite")
    held = [samples for samples, *_ in parts]
    if parts[0][3] is None:
        return _from_floats(_joined(held))
    head = list(chain.from_iterable(head for *_, head in parts))
    return _from_head(head, n, held)


def _line_start(data: bytes, pos: int) -> int:
    """The first line start at or after pos > 0, or the end of data."""
    return data.find(b"\n", pos - 1) + 1 or len(data)


def _parse_range(data: bytes, start: int, end: int) -> list:
    """The floats of the lines in bytes [start, end) of data; start and end
    are line starts or the ends of data.

    Raises ValueError where float() refuses a piece that is not empty.
    """
    pieces = data[start:end].split(b"\n")
    if not pieces[-1]:  # the empty piece after the final newline
        pieces.pop()
    try:
        return list(map(float, pieces))
    except ValueError:  # skip empty lines, as the line loop does
        return list(map(float, filter(None, pieces)))


def _text(data: bytes) -> str:
    """The bytes as a text-mode read gives them: UTF-8, universal newlines."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()


def _parse_lines(path: str, text: str):
    samples = []
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.strip()
        if not line:
            continue
        if lineno == 1 and line.lower() == "value":
            continue
        try:
            samples.append(float(line))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: not a number: {line!r}")
    if not samples:
        raise ValueError(f"{path}: no data")
    return samples


def parse_distribution(obj) -> Cdf:
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValueError("distribution JSON needs a 'type' field")
    kind = obj["type"]
    if kind == "empirical":
        return from_samples(obj["samples"])
    if kind == "dirac":
        return dirac(obj["x"])
    if kind == "uniform":
        return uniform(obj["a"], obj["b"])
    if kind == "mixture":
        return mixture(
            parse_distribution(obj["p"]),
            parse_distribution(obj["q"]),
            obj["lambda"],
        )
    if kind == "piecewise":
        return piecewise_cdf([tuple(p) for p in obj["points"]])
    raise ValueError(f"unknown distribution type {kind!r}")


def _parse_json(path: str, text: str, parse, finite: bool = False):
    """(object, parse(object)) for the JSON text read from path.

    Both ``json.loads`` and ``parse_distribution`` recurse once per level of
    nesting, so input nested past the recursion limit is a parse error.  JSON
    integers have no size limit, so one that no float can hold is one too.
    With finite, so is a number that is not a finite float (NaN, Infinity,
    -Infinity, 1e400): a profile is read so, as its report echoes it.
    """
    def finite_number(raw):
        value = float(raw)
        if not math.isfinite(value):
            raise ValueError(f"{path}: not a finite number: {raw}")
        return value

    hooks = {"parse_constant": finite_number, "parse_float": finite_number} if finite else {}
    try:
        obj = json.loads(text, **hooks)
        return obj, parse(obj)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    except OverflowError:
        raise ValueError(f"{path}: number out of float range") from None


# The distribution that _load_data returned last.  A CLI run leaves through
# _fork.leave without freeing it, which would cost milliseconds per 10^5
# samples; each load drops the last one first, so in-process runs hold one.
_loaded = None


def _load_data(path: str, head_only: bool = False):
    """The distribution in --data, kept in _loaded, and its digest (_read_data)."""
    global _loaded
    _loaded = None
    _loaded, digest = _read_data(path, head_only)
    return _loaded, digest


def _read_data(path: str, head_only: bool = False):
    """The distribution in --data and the SHA-256 of the bytes it was parsed from.

    Each byte is read once.  A regular CSV file is hashed by the byte-range
    reader, from the bytes its ranges parse; JSON, the line loop, a pipe and
    a FIFO are hashed from the bytes read for them.  A pipe or FIFO could
    not be read twice anyway: a second open would find it drained or wait
    for a writer that never comes.  The parsed samples become the curve's
    own, uncopied.  head_only says that the caller reads the curve only up
    to its 2 % rank or so (_read_regular).
    """
    import hashlib  # check reads no data

    is_json = path.endswith(".json")
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        parts = None if is_json else _read_regular(fh.fileno(), digest, head_only)
        n = parts and sum(count for _, count, _, _ in parts)
        if n:
            return _from_ranges(parts, n), "sha256:" + digest.hexdigest()
        data = fh.read()
    text = _text(data)
    if is_json:
        p = _parse_json(path, text, parse_distribution)[1]
    else:
        p = _from_floats(_parse_lines(path, text))
    return p, "sha256:" + hashlib.sha256(data).hexdigest()


def parse_profile(obj) -> LossProfile:
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValueError("profile JSON needs a 'type' field")
    kind = obj["type"]
    if kind == "constant":
        return constant_profile(obj["lambda"])
    if kind == "step":
        return step_profile(obj["lambda_min"], obj["lambda_max"], obj["threshold"])
    if kind == "piecewise":
        return piecewise_profile(
            [tuple(p) for p in obj["points"]],
            tuple(obj["tails"]),
            obj["orientation"],
        )
    raise ValueError(f"unknown profile type {kind!r}")


def load_profile(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        obj, profile = _parse_json(path, fh.read(), parse_profile, finite=True)
    return profile, obj


def file_digest(path: str) -> str:
    import hashlib  # no command calls this, only bench/tracing.py

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return "sha256:" + digest.hexdigest()


def encode_value(v: float):
    if v == math.inf:
        return "+inf"
    if v == -math.inf:
        raise AssertionError("-inf is never a legal risk value")
    return v


# ---------- commands ----------


def _write(path: str, text: str) -> None:
    """Write text to path, as --out asks: an OSError becomes exit code 5."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _Unwritable(str(exc))


def _print(text: str) -> None:
    """Write text to stdout and flush it: a closed stdout or an OSError becomes exit code 5."""
    if sys.stdout is None:
        raise _Unwritable("stdout is closed")
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        raise _Unwritable(str(exc))


class _Unwritable(Exception):
    pass


def _error(line: str) -> None:
    """Write line to stderr.  A closed or failed stderr drops it; it never
    goes to stdout, which holds only reports."""
    if sys.stderr is None:
        return
    try:
        sys.stderr.write(line + "\n")
        sys.stderr.flush()
    except (OSError, ValueError):
        pass


def _diagnostics(report) -> dict:
    """Where a lambda-var report found its risk, as compute and plot print it."""
    return {"violation_point": report.violation_point, "finiteness_case": report.finiteness_case}


def cmd_compute(args) -> dict:
    if args.measure == "lambda-var" and not args.profile:
        raise ValueError("--measure lambda-var requires --profile")
    if args.measure == "var" and args.lam is None:
        raise ValueError("--measure var requires --lambda")
    # lambda-var and worst-case read the curve's head, and complete it only
    # when the answer lies past it
    p, digest = _load_data(args.data, args.measure in ("lambda-var", "worst-case"))
    inputs = {
        "data": args.data,
        "data_digest": digest,
        "profile": None,
        "lambda": args.lam,
    }
    diagnostics = {}
    if args.measure == "lambda-var":
        profile, echo = load_profile(args.profile)
        inputs["profile"] = echo
        report = lambda_var(p, profile)
        value = report.value
        diagnostics = _diagnostics(report)
    elif args.measure == "var":
        value = value_at_risk(p, args.lam)
    elif args.measure == "worst-case":
        value = worst_case(p)
    elif args.measure == "entropic":
        value = entropic(p)
    elif args.measure == "certainty-eq":
        # Exponential utility; same value as the entropic measure, reached
        # through exact integration plus bisection inversion.
        from .dual import ExpNeg

        value = certainty_equivalent(p, ExpNeg())
    return {
        "report": "compute",
        "measure": args.measure,
        "inputs": inputs,
        "value": encode_value(value),
        "diagnostics": diagnostics,
    }


def cmd_duality(args) -> dict:
    from .dual import profile_gamma, ramp_ladder, representation_bound

    if not args.profile:
        raise ValueError("duality requires --profile")
    p, digest = _load_data(args.data)
    profile, echo = load_profile(args.profile)
    profile.require_feasible()
    fs = ramp_ladder(p, args.functions, args.delta)
    bound = representation_bound(
        p,
        lambda q: lambda_var(q, profile).value,
        fs,
        profile_gamma(profile),
        tol=args.tol,
    )
    f_best = fs[bound.argmax_function_index]
    return {
        "report": "duality",
        "inputs": {
            "data": args.data,
            "data_digest": digest,
            "profile": echo,
            "functions": args.functions,
            "delta": args.delta,
            "tol": args.tol,
        },
        "phi_value": encode_value(bound.phi_value),
        "best_lower_bound": bound.best_lower_bound,
        "gap": encode_value(bound.gap),
        "argmax_function": {
            "index": bound.argmax_function_index,
            "window_start": f_best.xs[0],
            "width": f_best.xs[-1] - f_best.xs[0],
        },
        "diagnostics": {
            "informative_functions": bound.informative,
            "skipped_functions": bound.skipped,
        },
    }


def cmd_check(args) -> dict:
    from . import checks

    result = checks.run_suite(args.suite, args.trials, args.seed, args.tol)
    return {
        "report": "check",
        "suite": result.suite,
        "trials": result.trials,
        "seed": args.seed,
        "tol": args.tol,
        "violations": result.violations,
        "max_residual": result.max_residual,
        "details": result.details,
    }


# ---------- plotting ----------


def _svg_path(points) -> str:
    return " ".join(
        ("M" if i == 0 else "L") + f"{x:.2f},{y:.2f}" for i, (x, y) in enumerate(points)
    )


def _curve_polyline(curve, x_lo, x_hi):
    pts = [(x_lo, curve(x_lo))]
    for x, l, v in zip(curve.xs, curve.lefts, curve.values):
        if x_lo < x < x_hi:
            pts.append((x, l))
            pts.append((x, v))
    pts.append((x_hi, curve(x_hi)))
    return pts


def render_plot(p: Cdf, profile: LossProfile, x_star: float) -> str:
    width, height = 800, 600
    mx, my = 70, 50
    xs = [p.support_lower, p.support_upper, x_star]
    xs.extend(profile.curve.xs)
    x_lo, x_hi = min(xs), max(xs)
    pad = 0.15 * max(1.0, x_hi - x_lo)
    x_lo, x_hi = x_lo - pad, x_hi + pad
    if x_lo == x_hi:  # a pad below half an ulp: widen by one float on each side
        x_lo, x_hi = math.nextafter(x_lo, -math.inf), math.nextafter(x_hi, math.inf)
    x_lo, x_hi = max(x_lo, -sys.float_info.max), min(x_hi, sys.float_info.max)

    def sx(x):  # on halves, so a span wider than the float range stays finite
        return mx + (x / 2 - x_lo / 2) / (x_hi / 2 - x_lo / 2) * (width - 2 * mx)

    def sy(y):
        return height - my - y * (height - 2 * my)

    def path(curve, color, dash=""):
        pts = [(sx(x), sy(y)) for x, y in _curve_polyline(curve, x_lo, x_hi)]
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        return (
            f'<path d="{_svg_path(pts)}" fill="none" stroke="{color}" '
            f'stroke-width="2"{extra}/>'
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{mx}" y1="{sy(0)}" x2="{width - mx}" y2="{sy(0)}" stroke="black"/>',
        f'<line x1="{mx}" y1="{sy(0)}" x2="{mx}" y2="{sy(1)}" stroke="black"/>',
    ]
    for frac in (0.0, 0.5, 1.0):
        xv = _interp(0.0, x_lo, 1.0, x_hi, frac)
        parts.append(
            f'<text x="{sx(xv):.2f}" y="{sy(0) + 20:.2f}" font-size="12" '
            f'text-anchor="middle">{xv:.3g}</text>'
        )
    for yv in (0.0, 0.5, 1.0):
        parts.append(
            f'<text x="{mx - 8}" y="{sy(yv) + 4:.2f}" font-size="12" '
            f'text-anchor="end">{yv:g}</text>'
        )
    parts.append(path(p.payload, "#1f77b4"))
    parts.append(path(profile.curve, "#d62728", dash="6,4"))
    parts.append(
        f'<line x1="{sx(x_star):.2f}" y1="{sy(0)}" x2="{sx(x_star):.2f}" y2="{sy(1)}" '
        f'stroke="#2ca02c" stroke-dasharray="3,3"/>'
    )
    parts.append(
        f'<circle cx="{sx(x_star):.2f}" cy="{sy(p(x_star)):.2f}" r="5" fill="#2ca02c"/>'
    )
    parts.append(
        f'<text x="{sx(x_star) + 6:.2f}" y="{sy(p(x_star)) - 8:.2f}" font-size="12" '
        f'fill="#2ca02c">violation x = {x_star:.6g}</text>'
    )
    parts.append(
        f'<text x="{width - mx}" y="{my - 10}" font-size="13" text-anchor="end">'
        f"CDF (solid) vs loss profile (dashed)</text>"
    )
    parts.append(
        f'<text x="{width / 2:.0f}" y="{height - 10}" font-size="13" '
        f'text-anchor="middle">loss level x</text>'
    )
    parts.append(
        f'<text x="18" y="{height / 2:.0f}" font-size="13" '
        f'transform="rotate(-90 18 {height / 2:.0f})" text-anchor="middle">'
        f"probability</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts)


def cmd_plot(args) -> dict:
    if not args.profile:
        raise ValueError("plot requires --profile")
    if not args.out:
        raise ValueError("plot requires --out")
    p, _ = _load_data(args.data)
    profile, _ = load_profile(args.profile)
    report = lambda_var(p, profile)
    if report.violation_point is None:
        raise BracketError("no finite violation point to mark")
    _write(args.out, render_plot(p, profile, report.violation_point))
    return {
        "report": "plot",
        "out": args.out,
        "value": encode_value(report.value),
        "diagnostics": _diagnostics(report),
    }


# ---------- entry point ----------


def _env_tol() -> float:
    raw = os.environ.get("LVAR_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        return _tolerance(raw)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"LVAR_TOL: {exc}") from None


def _finite(raw: str) -> float:
    """argparse type of --tol and --lambda: reports hold no NaN or infinity."""
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {raw!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {raw!r}")
    return value


def _tolerance(raw: str) -> float:
    """argparse type of --tol: a finite number, at least 0."""
    tol = _finite(raw)
    if tol < 0:
        raise argparse.ArgumentTypeError(f"not a nonnegative number: {raw!r}")
    return tol


def build_parser() -> argparse.ArgumentParser:
    tol_default = _env_tol()
    parser = argparse.ArgumentParser(
        prog="lambdavar",
        description="Risk measures on distributions built from loss profiles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--data", required=True, help="CSV of outcomes or distribution JSON")
        sp.add_argument("--profile", help="profile JSON file")
        sp.add_argument("--out", help="write the report here instead of stdout")
        sp.add_argument("--tol", type=_tolerance, default=tol_default)

    sp = sub.add_parser("compute", help="evaluate one risk measure")
    common(sp)
    sp.add_argument(
        "--measure",
        required=True,
        choices=["lambda-var", "var", "worst-case", "entropic", "certainty-eq"],
    )
    sp.add_argument("--lambda", dest="lam", type=_finite, default=None)
    sp.set_defaults(fn=cmd_compute)

    sp = sub.add_parser("duality", help="certified dual lower bound and gap")
    common(sp)
    sp.add_argument("--functions", type=int, default=200, help="ladder size")
    sp.add_argument("--delta", type=float, default=0.01, help="ramp window width")
    sp.set_defaults(fn=cmd_duality)

    sp = sub.add_parser("check", help="run a seeded property suite")
    sp.add_argument("--suite", required=True)
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", help="write the report here instead of stdout")
    sp.add_argument("--tol", type=_tolerance, default=tol_default)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("plot", help="SVG of the CDF, the profile and the violation point")
    common(sp)
    sp.set_defaults(fn=cmd_plot)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        text = json.dumps(args.fn(args), indent=2) + "\n"
        if args.out and args.command != "plot":  # plot's --out is the SVG
            _write(args.out, text)
        else:
            _print(text)
    except InfeasibleProfileError as exc:
        _error(f"error: {exc}")
        return 3
    except (BracketError, DualRangeError) as exc:
        _error(f"error: {exc}")
        return 4
    except _Unwritable as exc:
        _error(f"error: cannot write output: {exc}")
        return 5
    except (ValueError, KeyError, TypeError, OSError) as exc:
        _error(f"error: {exc}")
        return 2
    return 0


def run() -> None:
    """The program's entry point: main's exit code, without interpreter teardown.
    argparse's own exits and an unexpected exception end the process as usual."""
    leave(main())


if __name__ == "__main__":
    run()
