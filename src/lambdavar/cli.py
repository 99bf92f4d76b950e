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
import math
import os
import stat
import sys

from ._fork import chunk_count, leave, map_chunks
from .curves import Cdf, _from_floats, dirac, from_samples, mixture, piecewise_cdf, uniform
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


# Each range holds at least _RANGE_BYTES, so a file of a few 10^4 lines stays
# in one range and is parsed without a fork.
_RANGE_BYTES = 2 << 20
_BLOCK_BYTES = 1 << 20


def read_csv_samples(path: str):
    """The samples of a CSV file: one number per line, an optional header.

    A regular file is cut at newlines into one byte range per usable CPU, at
    most 8 and each at least _RANGE_BYTES.  The first range is parsed here
    and each later one in a worker forked by _fork.map_chunks, which sends
    its floats back bit for bit.  A small file, a single CPU, a live second
    thread or a platform without fork means one range, parsed here.  A block
    that float() refuses is parsed again without its empty lines.  If float()
    still refuses a piece in any range (a line of spaces or a lone carriage
    return, a byte that is not ASCII, a separator that str.strip() removes
    and float() keeps), or a worker fails, the whole file goes to the
    line-by-line parse, which decides and names the offending line.  A pipe
    or FIFO goes there straight, and so does any file where os has no pread.
    """
    with open(path, "rb") as fh:
        return _read_regular(fh.fileno()) or _parse_lines(path, _text(fh.read()))


def _read_regular(fd: int, digest=None):
    """The samples of a regular file by byte range, or None for the line loop.

    With a digest, the caller feeds it the file's bytes up to the size that
    the ranges were cut from, after its own range and while the workers
    parse theirs.
    """
    st = os.fstat(fd)
    if not (hasattr(os, "pread") and stat.S_ISREG(st.st_mode)):
        return None
    size = st.st_size
    head, newline, _ = os.pread(fd, 256, 0).partition(b"\n")
    # A lone \r ends a line in text mode: after one, the word is on line 2.
    is_header = newline and head.rstrip().lstrip(b" \t\v\f").lower() == b"value"
    skip = len(head) + 1 if is_header else 0
    n = min(chunk_count(), (size - skip) // _RANGE_BYTES)

    def parse(span):
        samples = _parse_range(fd, *span)
        if digest is not None and span is ranges[0]:  # here, not in a worker
            _hash_upto(fd, size, digest)
        return samples

    try:
        cuts = (_line_start(fd, skip + (size - skip) * k // n) for k in range(1, n))
        bounds = [skip, *cuts, size]
        ranges = [(a, b) for a, b in zip(bounds, bounds[1:]) if a < b]
        parts = map_chunks(parse, ranges)
    except (ValueError, OSError):
        return None
    if not parts:
        return None
    samples = parts[0]
    for part in parts[1:]:
        samples.extend(part)
    return samples


def _hash_upto(fd: int, size: int, digest) -> None:
    """Feed digest the first size bytes of the file, a block at a time."""
    for pos in range(0, size, _BLOCK_BYTES):
        want = min(_BLOCK_BYTES, size - pos)
        block = os.pread(fd, want, pos)
        if len(block) < want:
            raise ValueError("the file shrank")
        digest.update(block)


def _line_start(fd: int, pos: int) -> int:
    """The first line start at or after pos > 0 within a block, or the end of file."""
    block = os.pread(fd, _BLOCK_BYTES, pos - 1)
    nl = block.find(b"\n")
    if nl >= 0:
        return pos + nl
    if len(block) < _BLOCK_BYTES:
        return pos - 1 + len(block)
    raise ValueError("a line longer than a block")


def _parse_range(fd: int, start: int, end: int) -> list:
    """The floats of the lines in bytes [start, end), read a block at a time.

    Raises ValueError where float() refuses a piece that is not empty, where
    a line is longer than a block and where the file is shorter than it was.
    """
    samples = []
    pos = start
    while pos < end:
        want = min(_BLOCK_BYTES, end - pos)
        block = os.pread(fd, want, pos)
        if len(block) < want:
            raise ValueError("the file shrank")
        pieces = block.split(b"\n")
        if pos + want < end:  # stop at the last newline; the next block starts there
            if len(pieces) == 1:
                raise ValueError("a line longer than a block")
            pos += want - len(pieces.pop())
        else:
            if not pieces[-1]:  # the empty piece after the final newline
                pieces.pop()
            pos = end
        done = len(samples)
        try:
            samples.extend(map(float, pieces))
        except ValueError:  # skip empty lines, as the line loop does
            del samples[done:]
            samples.extend(map(float, filter(None, pieces)))
    return samples


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


def _parse_json(path: str, text: str, parse):
    """(object, parse(object)) for the JSON text read from path.

    Both ``json.loads`` and ``parse_distribution`` recurse once per level of
    nesting, so input nested past the recursion limit is a parse error.  JSON
    integers have no size limit, so one that no float can hold is one too.
    """
    try:
        obj = json.loads(text)
        return obj, parse(obj)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    except OverflowError:
        raise ValueError(f"{path}: number out of float range") from None


def _load_data(path: str):
    """The distribution in --data and the SHA-256 of the bytes it was parsed from.

    Each byte is read once.  A regular CSV file is hashed by the byte-range
    reader, up to the size its ranges were cut from; JSON, the line loop, a
    pipe and a FIFO are hashed from the bytes read for them.  A pipe or FIFO
    could not be read twice anyway: a second open would find it drained or
    wait for a writer that never comes.  The parsed samples become the
    curve's own, uncopied.
    """
    import hashlib  # check reads no data

    is_json = path.endswith(".json")
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        samples = None if is_json else _read_regular(fh.fileno(), digest)
        if samples:
            return _from_floats(samples), "sha256:" + digest.hexdigest()
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
        obj, profile = _parse_json(path, fh.read(), parse_profile)
    return profile, obj


def file_digest(path: str) -> str:
    import hashlib  # only compute and duality read it

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
    p, digest = _load_data(args.data)
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
    else:
        raise ValueError(f"unknown measure {args.measure!r}")
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
    x_lo -= pad
    x_hi += pad

    def sx(x):
        return mx + (x - x_lo) / (x_hi - x_lo) * (width - 2 * mx)

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
        xv = x_lo + frac * (x_hi - x_lo)
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
        tol = float(raw)
    except ValueError:
        raise ValueError(f"LVAR_TOL is not a number: {raw!r}") from None
    if not math.isfinite(tol):
        raise ValueError(f"LVAR_TOL is not a finite number: {raw!r}")
    if tol < 0:
        raise ValueError(f"LVAR_TOL is not a nonnegative number: {raw!r}")
    return tol


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
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        _error(f"error: {exc}")
        return 2
    return 0


def run() -> None:
    """The program's entry point: main's exit code, without interpreter teardown.
    argparse's own exits and an unexpected exception end the process as usual."""
    leave(main())


if __name__ == "__main__":
    run()
