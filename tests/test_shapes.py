"""The head-only CSV read against float(): the shape proof, the candidate
lines, and the ranges that a curve is built from.

``cli._strict_count`` accepts a range from the shapes of its lines alone,
each ASCII digit written 9, and head-only ``compute`` then calls float()
only on the lines that ``cli._candidates`` finds.  The lines are drawn from
grammars that mix the shapes float() reads with those it refuses or reads
as non-finite; the pivots lie in (-1, 0), at integers and down to -10^6.
"""

import math
import random
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambdavar import cli, from_samples
from test_cli import assert_no_child_left, file_pivot, split_into_ranges

DIGITS = st.text("0123456789", min_size=1, max_size=25)
# at the bound of 308 digits before the point: 1e308 is finite, 9e308 is not
LONG = st.builds(lambda first, n: first + "0" * (n - 1), st.sampled_from("19"),
                 st.integers(300, 320))
TOKENS = st.one_of(
    st.sampled_from(["-", "+", ".", "e", "E", "e-", "E-", "e+", "_", " ", "\t", "\r", "\x0b",
                     "\x1c", "\xa0", "inf", "nan", "Infinity", "0x", "٣", "1_0"]),
    DIGITS,
    LONG,
)
NUMBERS = st.builds(
    "{}{}{}{}{}".format,
    st.sampled_from(["", "-", "+"]),
    st.one_of(st.just(""), DIGITS, LONG),
    st.sampled_from(["", "."]),
    st.one_of(st.just(""), DIGITS, st.integers(300, 400).map(lambda n: "5" * n)),
    st.one_of(st.just(""), st.builds("{}{}{}".format, st.sampled_from("eE"),
                                     st.sampled_from(["", "-", "+"]), DIGITS)),
)
LINES = st.one_of(NUMBERS, st.lists(TOKENS, min_size=1, max_size=6).map("".join))


def strict(line: str) -> bool:
    """line, which holds no newline, is one number that the proof takes."""
    data = line.encode("utf-8")
    return cli._strict_count(data, 0, len(data)) == 1


@pytest.mark.parametrize("line", [
    "0", "-0", "5.", "-5.", ".5", "-.5", "-002.5", "1.5E-7", "1.5e-07", "-9e-999", "0.0e-0",
    "1" + "0" * 307, "-" + "9" * 308 + "." + "9" * 400, "0." + "1" * 500,
])
def test_the_proof_takes_these_shapes(line):
    assert strict(line)


@pytest.mark.parametrize("line", [
    "1e+20", "1e20", "+2.5", "3.25\r", " 1", "1 ", "1_0", "inf", "-nan", "-", ".", "-.", "e-5",
    "1.5e-", "1..5", "--1", "1-", "0x10", "٣", "1" + "0" * 308, "-" + "9" * 309 + ".5",
])
def test_the_proof_refuses_these_shapes(line):
    assert not strict(line)


@given(LINES)
def test_a_strict_line_is_a_finite_float(line):
    if strict(line):
        assert math.isfinite(float(line))


@given(st.lists(st.one_of(NUMBERS, st.just("")), max_size=8), st.booleans())
def test_a_strict_range_counts_its_lines(lines, final_newline):
    data = ("\n".join(lines) + "\n" * final_newline).encode()
    count = cli._strict_count(data, 0, len(data))
    if count is not None:
        parsed = [float(line) for line in lines if line]
        assert count == len(parsed) and all(map(math.isfinite, parsed))
    else:
        assert not all(map(strict, filter(None, lines)))


PIVOTS = st.one_of(
    st.floats(-1.0, 0.0, exclude_min=True, exclude_max=True),
    st.integers(-10 ** 6, -1).map(float),
    st.floats(-1e6, -1.0),
)


def near(pivot: float):
    """Lines whose floats lie at, just above or just below pivot."""
    k = math.floor(-pivot)
    return st.one_of(
        st.sampled_from([repr(pivot), repr(math.nextafter(pivot, 0.0)),
                         repr(math.nextafter(pivot, -math.inf)), "-00" + repr(-pivot)]),
        # read as -k when there are enough nines: an integer part of k - 1
        st.integers(1, 25).map(lambda m: f"-{max(k - 1, 0)}.{'9' * m}"),
        st.integers(1, 25).map(lambda m: f"-{k}.{'0' * m}1"),
        st.integers(0, 20).map(lambda m: f"{pivot:.{m}f}"),
        st.integers(1, 6).map(lambda e: f"-{round(-pivot * 10 ** e)}e-{e}"),
    )


@given(PIVOTS, st.data())
def test_the_candidates_hold_every_line_at_or_below_the_pivot(pivot, data):
    lines = data.draw(st.lists(st.one_of(NUMBERS, near(pivot)), min_size=1, max_size=12))
    lines = list(filter(strict, lines))
    want = [line.encode() for line in lines if float(line) <= pivot]
    body = "".join(f"{line}\n" for line in lines).encode()
    candidates = cli._candidates(pivot)
    for text, start in ((body, 0), (b"value\n" + body, 6)):  # at the start of a file, or not
        found = [line.strip() for line in candidates(text, start, len(text))]
        assert [line for line in found if float(line) <= pivot] == want


def test_a_line_that_rounds_up_to_an_integer_pivot_is_a_candidate():
    body = b"-2.99999999999999999999\n-2.5\n-3\n"
    assert float(b"-2.99999999999999999999") == -3.0
    found = cli._candidates(-3.0)(body, 0, len(body))
    assert [line.strip() for line in found] == [b"-2.99999999999999999999", b"-2.5", b"-3"]


# ---------- the ranges of a file ----------

BROKEN = ["1e+20", "+2.5", "3.25\r", "1" + "0" * 308, " 4", "nan"]


def shaped(rng, x: float) -> str:
    """x in one of the shapes float() reads; a negative integer may be
    written as its integer part minus one and twenty nines."""
    u = rng.random()
    if x < 0 and x == int(x) and u < 0.2:
        return f"-{-int(x) - 1}.{'9' * 20}"
    if u < 0.4:
        return repr(x)
    if u < 0.5:
        return "-" * (x < 0) + "00" + repr(abs(x))
    if u < 0.6:
        return f"{round(x * 8 * 125)}E-3"  # x is on a grid of 1/8
    if u < 0.7:
        return "-" * (math.copysign(1.0, x) < 0) + repr(abs(x)).lstrip("0")
    return f"{x:.{rng.randint(1, 40)}f}"


@settings(max_examples=40)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2, 3, 8]),
       st.lists(st.sampled_from(BROKEN), max_size=2))
def test_each_range_count_gives_the_line_loops_curve(tmp_path_factory, seed, ranges, broken):
    """Around the 1024 samples where the curve is built lazily, with ties,
    zeros of both signs above the pivot, an integer pivot at times, empty
    lines, and lines that send their range to the float route."""
    rng = random.Random(seed)
    n = rng.randint(900, 1300)
    tail = rng.choice([0.03, 0.05])
    values = [rng.randint(-56, -17) / 8 if rng.random() < tail else
              rng.choice([-0.0, 0.0]) if rng.random() < 0.05 else rng.randint(-16, 48) / 8
              for _ in range(n)]
    lines = [shaped(rng, x) for x in values]
    for extra in [*broken, *[""] * rng.randint(0, 3)]:
        lines.insert(rng.randint(0, len(lines)), extra)
    text = "value\n" + "\n".join(lines) + "\n" * rng.randint(0, 1)
    path = tmp_path_factory.mktemp("shapes") / "data.csv"
    path.write_bytes(text.encode())
    samples = cli._parse_lines(str(path), cli._text(text.encode()))
    pivot = file_pivot(path)
    with pytest.MonkeyPatch.context() as mp:
        split_into_ranges(mp, ranges)
        with open(path, "rb") as fh:
            parts = cli._read_regular(fh.fileno(), None, True)
        assert_no_child_left()
        if "nan" in broken:
            assert not all(finite for _, _, finite, _ in parts)
            return
        count = sum(count for _, count, _, _ in parts)
        head = sorted(chain.from_iterable(head for *_, head in parts))
        assert count == len(samples)
        assert repr(head) == repr(sorted(x for x in samples if x <= pivot))
        curve = cli._from_ranges(parts, count)
        assert repr(curve) == repr(from_samples(samples))  # completes: every range's floats
        assert_no_child_left()
