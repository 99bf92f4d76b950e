"""Command-line surface: compute, duality, check, plot.

Reads loss data (CSV, one numeric per line, optional "value" header) or a
distribution JSON, plus a profile JSON, and emits machine-readable JSON
reports on stdout (or --out).  Human messages go to stderr.  Exit codes:
0 ok, 2 parse error, 3 infeasible profile, 4 numerical bracket failure,
5 unwritable output path.

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

from .curves import Cdf, dirac, from_samples, mixture, piecewise_cdf, uniform
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
    """The samples of a CSV file: one number per line, an optional header.

    Parsed straight from the file object, so neither the text nor its lines
    are held.  A line that float() refuses, such as a blank line or a
    separator that str.strip() removes and float() keeps, hands the file to
    the line-by-line parse, which decides and names the offending line; so
    does a stream that cannot rewind.
    """
    with open(path, "r", encoding="utf-8") as fh:
        samples = None
        if fh.seekable():
            try:
                head = fh.readline()
                samples = [] if head.strip().lower() == "value" else [float(head)]
                samples.extend(map(float, fh))
            except ValueError:
                samples = None
                fh.seek(0)
        if samples is None:
            samples = _parse_lines(path, fh.read().split("\n"))
    if not samples:
        raise ValueError(f"{path}: no data")
    return samples


def _parse_lines(path: str, lines):
    samples = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line:
            continue
        if lineno == 1 and line.lower() == "value":
            continue
        try:
            samples.append(float(line))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: not a number: {line!r}")
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


def _load_json(path: str, parse):
    """(object, parse(object)) for a JSON file.

    Both ``json.load`` and ``parse_distribution`` recurse once per level of
    nesting, so input nested past the recursion limit is a parse error.  JSON
    integers have no size limit, so one that no float can hold is one too.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
            return obj, parse(obj)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
        except OverflowError:
            raise ValueError(f"{path}: number out of float range") from None


def load_distribution(path: str) -> Cdf:
    if path.endswith(".json"):
        return _load_json(path, parse_distribution)[1]
    return from_samples(read_csv_samples(path))


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
    obj, profile = _load_json(path, parse_profile)
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


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise _Unwritable(str(exc))
    else:
        sys.stdout.write(text + "\n")


class _Unwritable(Exception):
    pass


def cmd_compute(args) -> dict:
    if args.measure == "lambda-var" and not args.profile:
        raise ValueError("--measure lambda-var requires --profile")
    if args.measure == "var" and args.lam is None:
        raise ValueError("--measure var requires --lambda")
    p = load_distribution(args.data)
    inputs = {
        "data": args.data,
        "data_digest": file_digest(args.data),
        "profile": None,
        "lambda": args.lam,
    }
    diagnostics = {}
    if args.measure == "lambda-var":
        profile, echo = load_profile(args.profile)
        inputs["profile"] = echo
        report = lambda_var(p, profile)
        value = report.value
        diagnostics = {
            "violation_point": report.violation_point,
            "finiteness_case": report.finiteness_case,
        }
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
    p = load_distribution(args.data)
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
            "data_digest": file_digest(args.data),
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
    p = load_distribution(args.data)
    profile, _ = load_profile(args.profile)
    report = lambda_var(p, profile)
    if report.violation_point is None:
        raise BracketError("no finite violation point to mark")
    svg = render_plot(p, profile, report.violation_point)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
    except OSError as exc:
        raise _Unwritable(str(exc))
    return {
        "report": "plot",
        "out": args.out,
        "value": encode_value(report.value),
        "diagnostics": {
            "violation_point": report.violation_point,
            "finiteness_case": report.finiteness_case,
        },
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
        sp.add_argument("--tol", type=_finite, default=tol_default)

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
    sp.add_argument("--tol", type=_finite, default=tol_default)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("plot", help="SVG of the CDF, the profile and the violation point")
    common(sp)
    sp.set_defaults(fn=cmd_plot)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        report = args.fn(args)
        if args.command == "plot":
            sys.stdout.write(json.dumps(report, indent=2) + "\n")
        else:
            _emit(report, args.out)
    except InfeasibleProfileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (BracketError, DualRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except _Unwritable as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 5
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
