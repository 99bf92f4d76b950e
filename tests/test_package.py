"""The package's shape: its public names, what each command loads, and the
import graph that keeps the reference routes off the runtime path.

The public names resolve lazily from one table in ``lambdavar/__init__.py``;
the tests here pin that table's names, resolve each through ``from lambdavar
import``, and check in fresh interpreters that ``compute``, ``duality`` and
``plot`` never load ``oracles`` or ``checks``, that no command loads
``dataclasses``, and that only the suites that use them load ``oracles``,
only the commands that digest a file load ``hashlib``, only the commands
that integrate against a test function load ``dual``, and a small CSV loads
no ``array``.  ``os.fork`` and ``os._exit`` are called in one module only,
and both entry points of the program end through ``cli.run``.  The demos
run end to end.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lambdavar

SRC = Path(lambdavar.__file__).resolve().parent.parent
PACKAGE = SRC / "lambdavar"
DEMOS = Path(__file__).resolve().parent.parent / "demos"

PUBLIC_NAMES = [
    "AcceptanceFamily",
    "BracketError",
    "Cdf",
    "DualBoundReport",
    "DualRangeError",
    "ExpNeg",
    "Identity",
    "InfeasibleProfileError",
    "LossProfile",
    "MonotoneRC",
    "NONDECREASING",
    "NONINCREASING",
    "RiskReport",
    "TestFunction",
    "certainty_equivalent",
    "conjugate_divergence_witness",
    "constant_profile",
    "converges_weakly",
    "dirac",
    "dominates",
    "entropic",
    "family_member",
    "family_member_flat",
    "first_above",
    "from_samples",
    "gamma_bruteforce",
    "gamma_decreasing",
    "gamma_family",
    "gamma_increasing",
    "lambda_var",
    "lambda_var_flat",
    "min_risk_at_integral",
    "mixture",
    "negated_cdf",
    "piecewise_cdf",
    "piecewise_profile",
    "pointwise_leq",
    "profile_gamma",
    "ramp_ladder",
    "representation_bound",
    "risk_from_family",
    "risk_lower_bound",
    "risk_lower_bound_from_gamma",
    "step_profile",
    "stieltjes",
    "translation_pair",
    "truncate_left",
    "truncation_candidates",
    "uniform",
    "value_at_risk",
    "worst_case",
]

ORACLE_NAMES = {
    "AcceptanceFamily",
    "Identity",
    "conjugate_divergence_witness",
    "converges_weakly",
    "family_member_flat",
    "gamma_bruteforce",
    "gamma_family",
    "lambda_var_flat",
    "min_risk_at_integral",
    "risk_from_family",
    "risk_lower_bound",
    "translation_pair",
    "truncation_candidates",
}

RUNTIME_MODULES = ["curves", "profiles", "measures", "dual", "cli"]


def python(cwd, *args) -> subprocess.CompletedProcess:
    """A fresh interpreter in cwd that finds this package first."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )


class TestPublicNames:
    def test_all_is_the_table(self):
        assert lambdavar.__all__ == PUBLIC_NAMES
        assert len(PUBLIC_NAMES) == 51

    @pytest.mark.parametrize("name", PUBLIC_NAMES)
    def test_each_name_imports_from_the_package(self, name):
        ns = {}
        exec(f"from lambdavar import {name}", ns)
        assert ns[name] is getattr(lambdavar, name)

    def test_moved_routes_resolve_to_the_oracles(self):
        from lambdavar import oracles

        for name in ORACLE_NAMES:
            assert getattr(lambdavar, name) is getattr(oracles, name)

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            lambdavar.no_such_name
        with pytest.raises(ImportError):
            exec("from lambdavar import no_such_name", {})

    def test_moved_routes_left_no_alias_behind(self):
        from lambdavar import curves, dual, measures, profiles

        for module in (curves, dual, measures, profiles):
            assert not ORACLE_NAMES & set(vars(module)), module.__name__

    def test_names_are_listed_and_load_only_their_modules(self, tmp_path):
        proc = python(
            tmp_path,
            "-c",
            "import sys, lambdavar\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m.startswith('lambdavar.'))\n"
            "print(loaded(), set(lambdavar.__all__) <= set(dir(lambdavar)))\n"
            "from lambdavar import BracketError, lambda_var, representation_bound\n"
            "print(loaded())\n",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "[] True",
            "['lambdavar.curves', 'lambdavar.dual', 'lambdavar.exceptions', "
            "'lambdavar.measures', 'lambdavar.profiles']",
        ]


def test_runtime_commands_leave_the_oracles_unloaded(tmp_path):
    (tmp_path / "data.csv").write_text("value\n-10\n-5\n0\n5\n")
    (tmp_path / "step.json").write_text(
        json.dumps({"type": "step", "lambda_min": 0.1, "lambda_max": 0.3, "threshold": 0.0})
    )
    runtime = [
        ["compute", "--data", "data.csv", "--profile", "step.json", "--measure", m]
        for m in ("lambda-var", "entropic", "certainty-eq", "worst-case")
    ]
    runtime.append(["compute", "--data", "data.csv", "--measure", "var", "--lambda", "0.25"])
    runtime.append(["duality", "--data", "data.csv", "--profile", "step.json",
                    "--functions", "20", "--delta", "0.5"])
    runtime.append(["plot", "--data", "data.csv", "--profile", "step.json", "--out", "p.svg"])
    check = ["check", "--suite", "duality-sandwich", "--trials", "3"]
    code = (
        "import json, sys\n"
        "from lambdavar.cli import main\n"
        "def loaded():\n"
        "    return [m in sys.modules for m in ('lambdavar.oracles', 'lambdavar.checks')]\n"
        "seen = []\n"
        f"for argv in {runtime!r}:\n"
        "    assert main(argv + ['--out', 'r.json'] if argv[0] != 'plot' else argv) == 0\n"
        "    seen.append(loaded())\n"
        f"assert main({check!r} + ['--out', 'r.json']) == 0\n"
        "seen.append(loaded())\n"
        "print(json.dumps(seen))\n"
    )
    proc = python(tmp_path, "-c", code)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen[:-1] == [[False, False]] * len(runtime)
    assert seen[-1] == [True, True]


COMMANDS = {
    **{
        f"compute-{m}": ["compute", "--data", "data.csv", "--profile", "step.json",
                         "--measure", m, "--out", "r.json"]
        for m in ("lambda-var", "entropic", "certainty-eq", "worst-case")
    },
    "compute-var": ["compute", "--data", "data.csv", "--measure", "var", "--lambda", "0.25",
                    "--out", "r.json"],
    "duality": ["duality", "--data", "data.csv", "--profile", "step.json",
                "--functions", "20", "--delta", "0.5", "--out", "r.json"],
    "plot": ["plot", "--data", "data.csv", "--profile", "step.json", "--out", "p.svg"],
    **{
        f"check-{s}": ["check", "--suite", s, "--trials", "3", "--out", "r.json"]
        for s in ("mon", "qco", "translation", "reductions", "cfa", "cfb-counterexample",
                  "duality-sandwich")
    },
}

ORACLE_SUITES = {"check-translation", "check-duality-sandwich"}
# check-translation loads dual through oracles
DUAL_COMMANDS = {"compute-entropic", "compute-certainty-eq", "duality", *ORACLE_SUITES}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_command_loads_only_what_it_runs(command, tmp_path):
    """The modules a command adds to those of a bare interpreter."""
    (tmp_path / "data.csv").write_text("value\n-10\n-5\n0\n5\n")
    (tmp_path / "step.json").write_text(
        json.dumps({"type": "step", "lambda_min": 0.1, "lambda_max": 0.3, "threshold": 0.0})
    )
    proc = python(
        tmp_path,
        "-c",
        "import sys\n"
        "bare = set(sys.modules)\n"
        "from lambdavar.cli import main\n"
        f"status = main({COMMANDS[command]!r})\n"
        "added = sorted(set(sys.modules) - bare)\n"
        "import json\n"
        "print(json.dumps([status, added]))\n",
    )
    assert proc.returncode == 0, proc.stderr
    status, added = json.loads(proc.stdout.splitlines()[-1])
    assert status == 0
    assert "lambdavar.cli" in added
    assert not {"dataclasses", "inspect"} & set(added)
    assert "array" not in added  # the CSV reader loads it only when it forks
    assert ("lambdavar.oracles" in added) == (command in ORACLE_SUITES)
    assert ("lambdavar.dual" in added) == (command in DUAL_COMMANDS)
    if command.startswith("check-"):
        assert "hashlib" not in added


def test_no_module_imports_dataclasses_at_module_level():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 8
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert "dataclasses" not in {n.split(".")[0] for n in _module_level_imports(tree)}, path


def _module_level_imports(node):
    """Dotted names the imports outside any function body refer to."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(child, ast.Import):
            yield from (alias.name for alias in child.names)
        elif isinstance(child, ast.ImportFrom):
            base = child.module or ""
            yield base
            yield from (f"{base}.{alias.name}" for alias in child.names)
        else:
            yield from _module_level_imports(child)


@pytest.mark.parametrize("module", RUNTIME_MODULES)
def test_runtime_modules_import_no_oracle_at_module_level(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    names = list(_module_level_imports(tree))
    assert names, "the parse found no imports at all"
    assert [n for n in names if {"oracles", "checks"} & set(n.split("."))] == []


@pytest.mark.parametrize("module", ["cli", "measures", "checks"])
def test_dual_loads_only_inside_the_functions_that_use_it(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    names = list(_module_level_imports(tree))
    assert names, "the parse found no imports at all"
    assert [n for n in names if "dual" in n.split(".")] == []


def test_one_module_forks():
    """os.fork and os._exit are called in _fork alone, so no second fork path creeps in."""
    callers = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "os"
                    and node.func.attr in ("fork", "_exit")):
                callers.setdefault(node.func.attr, set()).add(path.stem)
    assert callers == {"fork": {"_fork"}, "_exit": {"_fork"}}


def test_both_entry_points_end_through_run():
    """``python -m lambdavar.cli`` and the installed ``lambdavar`` command both
    call cli.run, which leaves without interpreter teardown."""
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    mains = [node for node in tree.body if isinstance(node, ast.If)
             and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [ast.unparse(stmt) for main in mains for stmt in main.body] == ["run()"]
    if sys.version_info < (3, 11):
        pytest.skip("tomllib is new in Python 3.11")
    import tomllib

    with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"lambdavar": "lambdavar.cli:run"}


def test_no_module_reads_the_data_again_to_hash_it():
    """The commands hash the bytes that the reader reads; file_digest, a second
    read of the whole file, stays for callers outside the package only."""
    users = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Name) and node.id == "file_digest"
                    or isinstance(node, ast.Attribute) and node.attr == "file_digest"):
                users.add(path.stem)
    assert users == set()
    from lambdavar.cli import file_digest  # noqa: F401  kept for those callers


@pytest.mark.parametrize("demo", ["risk_profiles.py", "dual_bounds.py"])
def test_demo_runs(demo, tmp_path):
    proc = python(tmp_path, str(DEMOS / demo))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    if demo == "risk_profiles.py":
        assert (tmp_path / "risk_profiles.svg").read_text().startswith("<svg")


def _is_segment_formula(node):
    """A product with a difference factor divided by a non-constant: the shape
    of ``ya + (x - xa) * (yb - ya) / (xb - xa)``, however its spans are named."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
            and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Mult)
            and any(isinstance(side, ast.BinOp) and isinstance(side.op, ast.Sub)
                    for side in (node.left.left, node.left.right))
            and not isinstance(node.right, ast.Constant))


def test_one_segment_formula():
    """Interpolation and its inverse share curves._interp, so the formula and
    its overflow guard cannot fork again; oracles is a reference and exempt."""
    homes = set()
    for module in [*RUNTIME_MODULES, "checks"]:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        fns = [fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)]
        for node in filter(_is_segment_formula, ast.walk(tree)):
            # ast.walk goes outside in, so the last function holding it is the innermost
            names = [fn.name for fn in fns if node in ast.walk(fn)]
            homes.add((module, names[-1] if names else None))
    assert homes == {("curves", "_interp")}
