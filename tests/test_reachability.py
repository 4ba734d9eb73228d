"""Reachability guard: every function of ``src/superbv`` is entered by a
shipped command.

A fresh interpreter runs ``COMMANDS`` one after another through
``cli.main`` under ``sys.setprofile`` and reports the code object of every
Python function it entered.  Each is mapped to its definition by file and
first line (the line of its first decorator, if it has one), which names
it the same way on every Python from 3.10 on.  Every ``SUITES`` entry is
wrapped first, as ``bench/tracer.py`` does, so that ``verify`` runs its
suites in that one process instead of forked workers.  A function that no
command entered fails the guard, named, unless ``ALLOWED`` gives the
reason it stays.  The syntax-tree guard in ``test_source_guard.py`` stays
beside this one: it also covers classes, and a profile hook never sees
the methods that ``dataclass`` generates.

The list leaves out ``stretch_3x3``, ``bv_3x3`` and ``stretch_4x4``: with
them the run takes more than ten times as long and enters no other
function.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import superbv
from superbv.suites import SUITES

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(superbv.__file__).resolve().parent

# A ring with no even generator, as CI writes it: every check errs
RING_0X1 = "ring 0|1 cap 2;\ntrials 2;\n" + "".join(f"suite {name};\n" for name in SUITES)
SYNTAX_ERROR = "ring 1|1 cap 2;\nlet h = (1 + ;\n"

# (exit code, argv); ``{tmp}`` is a scratch directory of the run
COMMANDS = (
    *((0, ["verify", f"scenarios/{name}.sbv"])
      for name in ("default", "two_one", "two_two", "bv_1x3", "cap_edge_1x2")),
    (2, ["verify", "{tmp}/ring_0x1.sbv"]),
    (2, ["verify", "{tmp}/syntax_error.sbv"]),
    # the README's lines
    (0, ["verify", "scenarios/default.sbv", "--suite", "tian_todorov", "--seed", "7",
         "--trials", "50", "--json", "{tmp}/report.json"]),
    (0, ["eval", "scenarios/default.sbv", "--expr", "h^2 - 2*h"]),
    (0, ["eval", "scenarios/default.sbv", "--expr", "w"]),
    (0, ["transform", "scenarios/default.sbv", "--map", "phi", "--section", "b"]),
    # scalar arithmetic (GaussianRational's +, *, unary - and /), and a
    # section scaled by its result
    (0, ["eval", "scenarios/default.sbv", "--expr", "((2 - i)*(1 + i)/5 - 1)*a"]),
    # the CI transforms
    *((0, ["transform", "scenarios/transform_3x3.sbv", "--map", "phi", "--section", section])
      for section in "abcf"),
    *((0, ["transform", "scenarios/odd_pair_map.sbv", "--map", "phi", "--section", section])
      for section in "fvw"),
)

# ``module.py:qualified name`` -> why no command enters it
ALLOWED = {
    "bvcalc.py:IntegralForm._factors":
        "renders an integral form, as in a failing partial_dbar witness; "
        "test_golden.py::test_section_repr reaches it",
    "bvcalc.py:SymTensorForm._factors":
        "renders a symmetric form, as in a failing manin_comparison witness; "
        "test_golden.py::test_section_repr reaches it",
    "suites.py:_take":
        "the forked workers' loop, which one process never runs; test_suites.py checks it",
    "supermatrix.py:SuperMatrix.sdet_via_a_block": "the declared oracle of sdet",
    "jetring.py:JetSuperFunction.__repr__": "pytest prints it in assertion messages",
    "mvforms.py:Section.__repr__": "pytest prints it in assertion messages",
    "supermatrix.py:SuperMatrix.__repr__": "pytest prints it in assertion messages",
}

PROBE = """
import contextlib, functools, io, json, sys
from superbv import cli, suites

tmp, commands = sys.argv[1], json.loads(sys.argv[2])
for name, run in list(suites.SUITES.items()):
    suites.SUITES[name] = functools.wraps(run)(lambda *args, _run=run: _run(*args))
entered = {}

def hook(frame, event, arg):
    if event == "call":
        entered[id(frame.f_code)] = frame.f_code

codes = []
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        sys.setprofile(hook)
        try:
            codes.append(cli.main([arg.replace("{tmp}", tmp) for arg in argv]))
        finally:
            sys.setprofile(None)
print(json.dumps([codes, [[c.co_filename, c.co_firstlineno, c.co_name] for c in entered.values()]]))
"""


def _definitions():
    """``(path, first line, name) -> module.py:qualified name`` for every
    function and method defined in the package, nested ones included."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(str(path), first, child.name)] = f"{path.name}:{name}"
                visit(child, path, name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return found


def _entered(commands, tmp):
    """Exit codes of ``commands`` and the ``(path, first line, name)`` of
    every function they entered, run in one fresh interpreter."""
    (tmp / "ring_0x1.sbv").write_text(RING_0X1)
    (tmp / "syntax_error.sbv").write_text(SYNTAX_ERROR)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", PROBE, str(tmp), json.dumps(commands)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    codes, entered = json.loads(done.stdout.splitlines()[-1])
    return codes, {(str(Path(path).resolve()), line, name) for path, line, name in entered}


def test_every_function_is_entered_by_a_command(tmp_path):
    definitions = _definitions()
    codes, entered = _entered([argv for _, argv in COMMANDS], tmp_path)
    assert codes == [code for code, _ in COMMANDS]
    unreached = {label for key, label in definitions.items() if key not in entered}
    offenders = sorted(unreached - set(ALLOWED))
    assert not offenders, "entered by no command: " + ", ".join(offenders)
    # an entry whose function a command now enters, or that is gone, leaves the list
    stale = sorted(set(ALLOWED) - unreached)
    assert not stale, "allowed but entered or gone: " + ", ".join(stale)
