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
import json
import math
import os
import sys

from ._fork import leave
from .curves import Cdf, _interp
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


def read_csv_samples(path: str):
    """The samples of a CSV file, one number per line with an optional
    "value" header, in input order: the line loop that names a bad line.
    The commands read a CSV through _reader._load_data's byte ranges instead."""
    from ._reader import _parse_lines, _text

    with open(path, "rb") as fh:
        return _parse_lines(path, _text(fh.read()))


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
    from ._reader import _parse_json

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
    from ._reader import _load_data

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
    from ._reader import _load_data
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
    from ._reader import _load_data

    if not args.profile:
        raise ValueError("plot requires --profile")
    if not args.out:
        raise ValueError("plot requires --out")
    p, _ = _load_data(args.data)
    profile, _ = load_profile(args.profile)
    report = lambda_var(p, profile)
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
