"""Run the CLI differential corpus in fresh interpreters and compare the bits.

    python tools/diffbits.py PARENT CHANGE
        Run every command of tests/corpus.py on both trees and print each
        command whose exit code, stdout, stderr or SVG differ.
    python tools/diffbits.py --check TREE [--no-stderr]
        Run the commands on TREE and print each one whose outputs differ from
        tests/data/corpus_digests.json; --no-stderr leaves stderr out.
    python tools/diffbits.py --write TREE
        Regenerate tests/data/corpus_digests.json from TREE.

A tree is a directory that holds the package under src/, for example a
``git archive`` of the parent commit.  The corpus and the digest file are
the ones beside this tool.  Each command runs as ``lambdavar.cli:run`` in an
interpreter of its own (the one that runs this tool), with the tree's src/
alone on PYTHONPATH and LVAR_TOL unset, in a fresh directory that holds the
corpus inputs; --check also compares the inputs' bytes with the digest
file.  The exit status is 0 when nothing differs and 1 otherwise.  Standard
library only.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
import corpus  # noqa: E402

DIGESTS = ROOT / "tests" / "data" / "corpus_digests.json"
ENTRY = "from lambdavar.cli import run; run()"
FIELDS = ("exit", "stdout", "stderr", "svg")
JOBS = 2  # commands run at once; each is a small interpreter


def run_tree(tree: Path):
    """The inputs' digests and each command's outcome on tree, by name, in corpus order."""
    env = {k: v for k, v in os.environ.items() if k not in ("LVAR_TOL", "PYTHONPATH")}
    env.update(PYTHONPATH=str(tree.resolve() / "src"), PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        inputs = corpus.write_inputs(work)

        def one(argv):
            proc = subprocess.run([sys.executable, "-c", ENTRY, *argv], cwd=work, env=env,
                                  capture_output=True, timeout=600)
            svg = corpus.svg_path(argv)
            svg = (work / svg).read_bytes() if svg and (work / svg).exists() else None
            return corpus.name(argv), corpus.outcome(proc.returncode, proc.stdout,
                                                     proc.stderr, svg)

        with ThreadPoolExecutor(JOBS) as pool:
            return inputs, dict(pool.map(one, corpus.commands()))


def report(got: dict, want: dict, fields) -> int:
    """Print each name whose record differs in fields; the count that differ."""
    differ = 0
    for name in [*want, *(n for n in got if n not in want)]:
        a, b = got.get(name), want.get(name)
        if a is None or b is None:
            where = "first" if b is None else "second"
            print(f"{name}: only in the {where}")
        else:
            changed = [f for f in fields if a[f] != b[f]]
            if not changed:
                continue
            print(f"{name}: {', '.join(changed)} differ")
        differ += 1
    return differ


def write(path: Path, inputs: dict, commands: dict) -> None:
    """The digest file, one line per input and per command."""
    def block(entries):
        return ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in entries.items())

    path.write_text('{\n "inputs": {\n%s\n },\n "commands": {\n%s\n }\n}\n'
                    % (block(inputs), block(commands)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="+", type=Path, metavar="TREE")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true", help="compare one tree with the digests")
    mode.add_argument("--write", action="store_true", help="regenerate the digests from one tree")
    parser.add_argument("--no-stderr", action="store_true", help="leave stderr out of --check")
    args = parser.parse_args(argv)
    if len(args.trees) != (1 if args.check or args.write else 2):
        parser.error("give PARENT CHANGE, or one TREE with --check or --write")
    if args.no_stderr and not args.check:
        parser.error("--no-stderr goes with --check")
    runs = [run_tree(tree) for tree in args.trees]
    if args.write:
        write(DIGESTS, *runs[0])
        print(f"wrote {len(runs[0][1])} commands to {DIGESTS}")
        return 0
    fields = [f for f in FIELDS if not (args.no_stderr and f == "stderr")]
    if args.check:
        want = json.loads(DIGESTS.read_text())
        runs.append((want["inputs"], want["commands"]))
    (inputs_a, got), (inputs_b, want) = runs
    differ = report(got, want, fields)
    print(f"{differ} of {len(want)} commands differ" if differ else
          f"all {len(want)} commands agree")
    if inputs_a != inputs_b:
        print("the corpus inputs differ")
    return 1 if differ or inputs_a != inputs_b else 0


if __name__ == "__main__":
    sys.exit(main())
