"""The CLI differential corpus: seeded inputs and the commands run on them.

``write_inputs(directory)`` writes every input file into directory, drawn
from ``random.Random(SEED)`` and written with ``repr``, so the bytes are the
same on every Python version.  ``commands()`` lists every command as an argv
whose paths are relative to that directory, so no report holds a temporary
path.  ``outcome`` turns one run into the record that
``tests/data/corpus_digests.json`` keeps: the exit code and the SHA-256 of
stdout, stderr and the SVG that a ``plot`` writes.

``tests/test_corpus.py`` runs every command in-process through ``main``;
``tools/diffbits.py`` runs them in fresh interpreters, on one tree against
the digest file or on two trees against each other.

The set:

- 11 data files (2,000 Gaussian draws, a CSV with atoms, 500 draws shifted
  by 1e8, {1e308, 1.5e308}, {-1e308, -1.5e308}, a mixture JSON, a
  piecewise JSON, and U(-a, a) for a = 5e307, 8e307, 1e308 and the largest
  float), each under ``var`` at 0.05, ``worst-case``, ``entropic`` and
  ``certainty-eq``, and under ``lambda-var``, ``duality`` (30 functions, of
  width 1e306 on the data near the float range) and ``plot`` against a
  constant, a step, and a nondecreasing and a nonincreasing piecewise
  profile;
- the seven ``check`` suites at five seeds, 60 trials each;
- ``plot`` of one-point data at 1e15, 1e16, 1e300 and plus and minus the
  largest float, where the window collapses to one point;
- three profiles with -0.0 levels under ``lambda-var``, ``duality`` and
  ``plot`` on three data files;
- four profiles with a non-finite number (NaN, Infinity, -Infinity, 1e400)
  in a key that no parser reads, under ``lambda-var`` and ``duality``;
- three CSVs of 1023, 1024 and 1025 draws on a grid of step 1/4, with ties
  and zeros of both signs, on both sides of the 1024 samples where
  ``from_samples`` starts building lazily: ``var`` at the shares 1/n, a
  middle k/n and (n - 1)/n and at a level between two shares, and
  ``entropic`` and ``certainty-eq``;
- a CSV of a little over 4 MiB after its header, which two CPUs parse in
  two byte ranges: draws on a grid of 1/64, so with ties, in [-3, -1) and
  (1, 6], and zeros of both signs around the 2 % rank on either side of
  the cut, written with forty decimals; ``lambda-var`` on the step
  profile, ``var`` at the share n // 50 / n, ``entropic``, and ``duality``
  with 30 functions;
- a CSV of 90,000 lines and a little over 4 MiB after its header, whose
  2 % rank is -3.0, written in many shapes: ``repr``, ``-.5``, ``5.``,
  ``-002.5``, ``j E-7``, lines of more than 308 bytes, and ``-3.0`` as
  ``-2.99999999999999999999``, which float() rounds up to it; its second
  quarter holds ``1e+20`` and a 309-digit integer part, its last a ``+``
  sign and a CRLF line.  ``lambda-var`` on the step profile and on a step
  of 0.05 and 0.1 at -1, whose answer lies past the 2 % rank,
  ``worst-case``, ``var`` at 0.5 and ``entropic``;
- ten inputs that end in an error: exits 2, 3 and 5.
"""

import hashlib
import json
import random
import sys

SEED = 20
MAX = sys.float_info.max
MEASURES = [
    ["--measure", "var", "--lambda", "0.05"],
    ["--measure", "worst-case"],
    ["--measure", "entropic"],
    ["--measure", "certainty-eq"],
]
SUITES = ["cfa", "cfb-counterexample", "duality-sandwich", "mon", "qco", "reductions",
          "translation"]
CHECK_SEEDS = [0, 3, 7, 15, 1883312004]
PROFILES = {
    "constant.json": {"type": "constant", "lambda": 0.05},
    "step.json": {"type": "step", "lambda_min": 0.01, "lambda_max": 0.05, "threshold": -1},
    "rising.json": {"type": "piecewise", "points": [[-3, 0.01, 0.01], [0, 0.05, 0.1]],
                    "tails": [0.01, 0.1], "orientation": "nondecreasing"},
    "falling.json": {"type": "piecewise", "points": [[-2, 0.2, 0.2], [1, 0.05, 0.05]],
                     "tails": [0.2, 0.05], "orientation": "nonincreasing"},
}
ZERO_PROFILES = {
    "zero-constant.json": {"type": "constant", "lambda": -0.0},
    "zero-step.json": {"type": "step", "lambda_min": -0.0, "lambda_max": 0.05,
                       "threshold": -0.0},
    "zero-rising.json": {"type": "piecewise", "points": [[-1, -0.0, -0.0], [1, 0.1, 0.1]],
                         "tails": [-0.0, 0.1], "orientation": "nondecreasing"},
}
# JSON text, not objects: json.dumps writes no 1e400
NON_FINITE_PROFILES = {
    f"echo-{name}.json": '{"type": "constant", "lambda": 0.25, "note": %s}\n' % literal
    for name, literal in [("nan", "NaN"), ("inf", "Infinity"), ("minus-inf", "-Infinity"),
                          ("1e400", "1e400")]
}
ONE_POINT = {"point-1e15.csv": 1e15, "point-1e16.csv": 1e16, "point-1e300.csv": 1e300,
             "point-max.csv": MAX, "point-minus-max.csv": -MAX}
UNIFORM_ENDS = {"uniform-5e307.json": 5e307, "uniform-8e307.json": 8e307,
                "uniform-1e308.json": 1e308, "uniform-max.json": MAX}
DATA = ["gauss.csv", "atoms.csv", "shifted.csv", "huge.csv", "minus-huge.csv",
        "mixture.json", "piecewise.json", *UNIFORM_ENDS]
# duality's default window of 0.01 vanishes next to 1e308
WIDE = {"huge.csv", "minus-huge.csv", *UNIFORM_ENDS}
GRID_SIZES = [1023, 1024, 1025]  # from_samples is lazy from 1024 samples on
RANGED = "ranged.csv"
RANGED_N = 98_100  # 4,220,261 bytes after the header; two ranges need 4 MiB
SHAPES = "shapes.csv"
SHAPES_N = 90_000
PAST_PIVOT = {"type": "step", "lambda_min": 0.05, "lambda_max": 0.1, "threshold": -1}


def _csv(values, header=False) -> str:
    return "value\n" * header + "".join(f"{v!r}\n" for v in values)


def _grid(rng, n) -> list:
    # multiples of 1/4 in [-2, 2], so ties; a zero is -0.0 or 0.0
    return [rng.randint(-8, 8) / 4 or rng.choice([-0.0, 0.0]) for _ in range(n)]


def _ranged(rng) -> str:
    # 1.5 % in [-3, -1), 1 % zeros and the rest in (1, 6], all on a grid of
    # 1/64, so ties everywhere: the 2 % rank is a zero, and the 1 % rank lies
    # below the step's threshold.  Forty decimals write each value exactly in
    # a long line, which keeps the count, and the test's time, down.
    values = []
    for _ in range(RANGED_N):
        u = rng.random()
        if u < 0.015:
            values.append(rng.randint(-192, -65) / 64)
        elif u < 0.025:
            values.append(rng.choice([-0.0, 0.0]))
        else:
            values.append(rng.randint(65, 384) / 64)
    return "value\n" + "".join(f"{x:.40f}\n" for x in values)


def _shaped(rng, x) -> str:
    # x on a grid of 1/64, written in one of the shapes float() reads
    j = round(x * 64)
    u = rng.random()
    if u < 0.3:
        return repr(x)
    if u < 0.34:
        return "-" * (x < 0) + repr(abs(x)).lstrip("0")  # -.5, .25, 5.0
    if u < 0.38:
        return f"{int(x)}."  # 5., -0.
    if u < 0.42:
        return "-" * (x < 0) + "00" + repr(abs(x))  # -002.5
    if u < 0.46:
        return f"{j * 156250}E-7"  # exactly j / 64
    if u < 0.48:
        return f"{x:.320f}"  # a line of more than 308 bytes
    return f"{x:.75f}"


# -3.0 written so that float() rounds up to it from a smaller integer part
THREES = ["-3.0", "-3", "-3.", "-003.0", "-30E-1", "-2.99999999999999999999",
          "-3.00000000000000000001", "-0003.000000000000000000000000000000000000000000000000"]


def _shapes(rng) -> str:
    # 1.2 % in [-6, -3), 1.6 % equal to -3.0 and the rest in (-3, 6], so the
    # 2 % rank is the integer -3.0.  Every line has a shape the exact reader
    # proves finite, except a few placed in the second and last quarters of
    # the bytes: 1e+20, a 309-digit integer part, a + sign and a CRLF line.
    lines = []
    for _ in range(SHAPES_N):
        u = rng.random()
        if u < 0.012:
            lines.append(_shaped(rng, rng.randint(-384, -193) / 64))
        elif u < 0.028:
            lines.append(rng.choice(THREES))
        else:
            lines.append(_shaped(rng, rng.randint(-191, 384) / 64))
    lines.insert(SHAPES_N // 10, "")
    lines[SHAPES_N * 37 // 100:SHAPES_N * 37 // 100] = ["1e+20", "1" + "0" * 308 + ".5"]
    lines[SHAPES_N * 87 // 100:SHAPES_N * 87 // 100] = ["+2.5", "1.5E-7", "3.25\r"]
    return "value\n" + "".join(f"{line}\n" for line in lines)


def _grid_name(n) -> str:
    return f"grid-{n}.csv"


def inputs() -> dict:
    """Every input file, name to text."""
    rng = random.Random(SEED)
    files = {
        "gauss.csv": _csv([rng.gauss(0.0, 1.0) for _ in range(2000)], header=True),
        "atoms.csv": _csv([rng.choice([-2.0, -0.5, 0.0, 1.0, 3.0]) for _ in range(300)]),
        "shifted.csv": _csv([1e8 + rng.gauss(0.0, 1.0) for _ in range(500)]),
        "huge.csv": _csv([1e308, 1.5e308]),
        "minus-huge.csv": _csv([-1e308, -1.5e308]),
        "mixture.json": {"type": "mixture", "lambda": 0.3,
                         "p": {"type": "uniform", "a": -1.0, "b": 2.0},
                         "q": {"type": "empirical",
                               "samples": [round(rng.uniform(-3, 3), 3) for _ in range(40)]}},
        "piecewise.json": {"type": "piecewise",
                           "points": [[-2, 0.0, 0.1], [0, 0.4, 0.6], [3, 0.8, 1.0]]},
        **{name: {"type": "uniform", "a": -a, "b": a} for name, a in UNIFORM_ENDS.items()},
        **{name: _csv([x]) for name, x in ONE_POINT.items()},
        **{_grid_name(n): _csv(_grid(rng, n)) for n in GRID_SIZES},
        RANGED: _ranged(rng),
        SHAPES: _shapes(rng),
        "past-pivot.json": PAST_PIVOT,
        **PROFILES,
        **ZERO_PROFILES,
        **NON_FINITE_PROFILES,
        "bad-line.csv": "value\n1.5\nabc\n2.5\n",
        "empty.csv": "value\n",
        "infeasible.json": {"type": "constant", "lambda": 1.0},
        "unknown-type.json": {"type": "spline"},
    }
    return {name: text if isinstance(text, str) else json.dumps(text) + "\n"
            for name, text in files.items()}


def write_inputs(directory) -> dict:
    """Write every input file into directory; their SHA-256, name to digest."""
    digests = {}
    for name, text in inputs().items():
        data = text.encode("utf-8")
        (directory / name).write_bytes(data)
        digests[name] = sha256(data)
    return digests


def _stem(name: str) -> str:
    return name.rsplit(".", 1)[0]


def _against(data, profile):
    return [
        ["compute", "--data", data, "--measure", "lambda-var", "--profile", profile],
        ["duality", "--data", data, "--profile", profile, "--functions", "30",
         *(["--delta", "1e306"] if data in WIDE else [])],
        ["plot", "--data", data, "--profile", profile,
         "--out", f"{_stem(data)}-{_stem(profile)}.svg"],
    ]


def commands() -> list:
    """Every command of the corpus, as an argv with paths relative to the inputs."""
    argvs = []
    for data in DATA:
        argvs += [["compute", "--data", data, *measure] for measure in MEASURES]
        for profile in PROFILES:
            argvs += _against(data, profile)
    for suite in SUITES:
        argvs += [["check", "--suite", suite, "--trials", "60", "--seed", str(seed)]
                  for seed in CHECK_SEEDS]
    for data in ONE_POINT:
        argvs.append(["plot", "--data", data, "--profile", "constant.json",
                      "--out", f"{_stem(data)}.svg"])
    for data in ["gauss.csv", "atoms.csv", "mixture.json"]:
        for profile in ZERO_PROFILES:
            argvs += _against(data, profile)
    for profile in NON_FINITE_PROFILES:
        argvs += _against("gauss.csv", profile)[:2]
    for n in GRID_SIZES:
        data = _grid_name(n)
        k = n // 2
        levels = [repr(i / n) for i in (1, k, n - 1)] + [repr((2 * k + 1) / (2 * n))]
        argvs += [["compute", "--data", data, "--measure", "var", "--lambda", level]
                  for level in levels]
        argvs += [["compute", "--data", data, *measure] for measure in MEASURES[2:]]
    n = RANGED_N
    argvs += [
        ["compute", "--data", RANGED, "--measure", "lambda-var", "--profile", "step.json"],
        ["compute", "--data", RANGED, "--measure", "var", "--lambda", repr(n // 50 / n)],
        ["compute", "--data", RANGED, "--measure", "entropic"],
        ["duality", "--data", RANGED, "--profile", "step.json", "--functions", "30"],
    ]
    argvs += [
        ["compute", "--data", SHAPES, "--measure", "lambda-var", "--profile", "step.json"],
        ["compute", "--data", SHAPES, "--measure", "lambda-var", "--profile", "past-pivot.json"],
        ["compute", "--data", SHAPES, "--measure", "worst-case"],
        ["compute", "--data", SHAPES, "--measure", "var", "--lambda", "0.5"],
        ["compute", "--data", SHAPES, "--measure", "entropic"],
    ]
    argvs += [
        ["compute", "--data", "bad-line.csv", "--measure", "worst-case"],
        ["compute", "--data", "empty.csv", "--measure", "worst-case"],
        ["compute", "--data", "missing.csv", "--measure", "worst-case"],
        ["compute", "--data", "gauss.csv", "--measure", "var"],
        ["compute", "--data", "gauss.csv", "--measure", "lambda-var",
         "--profile", "infeasible.json"],
        ["duality", "--data", "gauss.csv", "--profile", "unknown-type.json"],
        ["duality", "--data", "huge.csv", "--profile", "constant.json"],
        ["compute", "--data", "huge.csv", "--measure", "worst-case",
         "--out", "no-such-directory/report.json"],
        ["check", "--suite", "no-such-suite"],
        ["compute", "--data", "gauss.csv", "--measure", "median"],
    ]
    return argvs


def name(argv) -> str:
    return " ".join(argv)


def svg_path(argv):
    """The SVG file a plot command writes, or None."""
    return argv[argv.index("--out") + 1] if argv[0] == "plot" else None


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def outcome(code: int, stdout: bytes, stderr: bytes, svg) -> dict:
    """The digest record of one run; svg is the bytes written, or None."""
    return {
        "exit": code,
        "stdout": sha256(stdout),
        "stderr": sha256(stderr),
        "svg": None if svg is None else sha256(svg),
    }
