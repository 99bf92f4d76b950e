"""The readers of --data, a CSV or distribution JSON, and of JSON text.

compute, duality and plot load this module when they run; check, which
reads no data, never does.
"""

from __future__ import annotations

import hashlib
import io
import json
import marshal
import math
import os
import re
import stat
import threading
from itertools import chain

from ._fork import map_chunks, process_count
from .curves import (
    Cdf, _all_finite, _from_floats, _from_head, _joined, dirac, from_samples, mixture,
    piecewise_cdf, uniform,
)

# A file is cut into ranges only when two or more CPUs are usable and its
# body holds at least 2 * _RANGE_BYTES, so a file of a few 10^4 lines is
# parsed here without a fork.  A cut file has a range per _BLOCK_BYTES or so:
# as _RANGE_BYTES = 2 * _BLOCK_BYTES, the CPU count never gives more.  Only a
# test that sets _RANGE_BYTES = 1 gets a range per CPU.
_RANGE_BYTES = 2 << 20
_BLOCK_BYTES = 1 << 20
# The lazy curve's pivot is read from _PIVOT_LINES lines of the file, each
# found within _LINE_BYTES of its offset.
_PIVOT_LINES = 1024
_LINE_BYTES = 256
# A line whose shape, each ASCII digit written 9, fully matches _STRICT is
# one that float() reads: a subset of its grammar, with no + sign, space,
# underscore or positive exponent.  It is finite, as at most 308 digits
# before the point keep it below 10^308.  It may end in the \r of a \r\n,
# which float() strips and text mode reads with the \n as one line end.
_NINES = bytes.maketrans(b"0123456789", b"9" * 10)
_STRICT = rb"-?(?:9{1,308}(?:\.9*)?|\.9+)(?:[eE]-9+)?\r?"



def _read_regular(fd: int, digest, head_only: bool):
    """The parsed ranges of a regular file, or None for the line loop.

    The file's bytes are read once, before any fork; this process feeds
    them to digest while the workers parse, and then takes ranges too.  The
    body is cut into ranges at line starts: one range where the file is
    small, there is one CPU, a second thread is alive or os has no fork
    (_fork.map_chunks).  Each range gives, in file order, (samples, count,
    finite, head): its floats in any order, a list or a loader of one; how
    many there are; whether all are finite; and, sorted stably, those at or
    below the pivot that _pivot reads from the file (None if it finds
    none).  Each range does this work where it is parsed.  Floats
    parsed here stay a list; a worker's stay the marshal bytes it sent
    until the loader reads them.

    With head_only and a pivot below zero, a range whose lines
    _strict_count proves finite calls float() only on the lines that
    _candidates finds, and defers the rest: its loader parses it when the
    curve completes (_deferred).  Every other range takes the float route,
    float() on each line, and on its pieces that are not empty if float()
    refuses one.  None if float() still refuses a piece (a line of spaces
    or a lone carriage return, a byte that is not ASCII, a separator that
    str.strip() removes and float() keeps), a worker fails, the file
    shrinks, or it is not a regular file that os can pread: the line loop
    then decides, and names the offending line.
    """
    st = os.fstat(fd)
    if not (hasattr(os, "pread") and stat.S_ISREG(st.st_mode)):
        return None
    size = st.st_size
    here = os.getpid()

    def parse(span):
        if span is None:  # chunk 0, which runs here first
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


def _read_data(path: str, head_only: bool):
    """The distribution in --data and the SHA-256 of the bytes it was parsed from.

    Each byte is read once.  A regular CSV file is hashed by the byte-range
    reader, from the bytes its ranges parse; JSON, the line loop, a pipe and
    a FIFO are hashed from the bytes read for them.  A pipe or FIFO could
    not be read twice anyway: a second open would find it drained or wait
    for a writer that never comes.  The parsed samples become the curve's
    own, uncopied.  head_only says that the caller reads the curve only up
    to its 2 % rank or so (_read_regular).
    """
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
