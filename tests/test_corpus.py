"""The CLI differential corpus against the digests of its outputs.

Every command of ``tests/corpus.py`` runs in-process through ``main``, in a
directory that holds the corpus inputs, and its exit code and the SHA-256 of
its stdout, stderr and SVG must match ``tests/data/corpus_digests.json``.
A change that moves bits regenerates that file in the same commit (``python
tools/diffbits.py --write .``) and names every command whose digest changed.
"""

import contextlib
import io
import json
import traceback
from pathlib import Path

import pytest

import corpus
from lambdavar.cli import main

DIGESTS = json.loads((Path(__file__).parent / "data" / "corpus_digests.json").read_text())


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("corpus")
    return directory, corpus.write_inputs(directory)


def run(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refused the arguments
            code = exc.code
        except Exception:  # as a fresh interpreter ends: exit 1, the traceback on stderr
            traceback.print_exc()
            code = 1
    svg = corpus.svg_path(argv)
    svg = Path(svg).read_bytes() if svg and Path(svg).exists() else None
    return corpus.outcome(code, out.getvalue().encode(), err.getvalue().encode(), svg)


def test_inputs_have_the_recorded_bytes(inputs):
    assert inputs[1] == DIGESTS["inputs"]


def test_every_command_prints_the_recorded_bits(inputs, monkeypatch):
    monkeypatch.chdir(inputs[0])
    monkeypatch.delenv("LVAR_TOL", raising=False)
    argvs = corpus.commands()
    names = [corpus.name(argv) for argv in argvs]
    assert len(set(names)) == len(names)
    assert sorted(names) == sorted(DIGESTS["commands"])
    differ = [name for name, argv in zip(names, argvs) if run(argv) != DIGESTS["commands"][name]]
    assert not differ, "outputs differ from the digests:\n" + "\n".join(differ)


def test_the_ranged_csv_takes_two_ranges(inputs):
    from lambdavar import cli

    body = (inputs[0] / corpus.RANGED).read_bytes().partition(b"\n")[2]
    assert len(body) >= 2 * cli._RANGE_BYTES


def test_the_shapes_csv_takes_four_ranges_on_two_cpus(inputs):
    """Of which the second and the last take the float route."""
    from lambdavar import cli

    data = (inputs[0] / corpus.SHAPES).read_bytes()
    skip = data.index(b"\n") + 1
    body = len(data) - skip
    assert body // cli._RANGE_BYTES == 2 and body // cli._BLOCK_BYTES == 4
    assert data.count(b"\n") < 10 ** 5  # few lines: every curve is revalidated in tier-1
    cuts = [skip, *(cli._line_start(data, skip + body * k // 4) for k in (1, 2, 3)), len(data)]
    counts = [cli._strict_count(data, *span) for span in zip(cuts, cuts[1:])]
    assert [count is None for count in counts] == [False, True, False, True]
    assert cli._pivot(data, skip, len(data)) == -3.0
