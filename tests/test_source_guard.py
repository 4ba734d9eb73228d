"""Source guards for the one-sign-source, one-accumulator, one-jet-sum and
packed-scalar rules.

Every Koszul sign is ``grading.koszul`` of an exponent (or one of the
``grading`` functions built on it), every sum of sparse section terms goes
through ``mvforms.add_terms``, every packed sum of jet terms becomes a jet
through ``jetring._finish`` (so ``_canonical`` and ``_jet`` are named only in
``jetring``), plain sums of jets are ``jetring.jet_sum`` or ``jetring.dot``
rather than an ``acc = acc + x`` fold (the ``sdet_via_a_block`` oracle keeps
its own), and the layers above the jet ring compute on packed integer
numerators.  No linter enforces this, so these tests read the package source
and fail when a hand-written copy reappears.  One guard reads the package's
syntax trees: every function, method and class it defines is named somewhere
in the package outside its own definition, so that API reached only from the
tests lives in ``tests/oracles.py``.  The last guard reads the test modules:
they share oracles and helpers through ``tests/oracles.py`` only.
"""

import ast
import inspect
import re
from pathlib import Path

from superbv import mvforms
from superbv.supermatrix import SuperMatrix

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "superbv").glob("*.py"))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"grading.py", "mvforms.py", "bvcalc.py"}


def _sign_offenders(keep):
    # a sign taken as ``if <exponent> % 2:`` or as the conditional
    # ``x if <exponent> % 2 == 0 else -x`` (or ``-x if <exponent> & 1 else x``)
    # rather than from ``koszul``
    branch = re.compile(r"^\s*(el)?if\b.*% 2:\s*$")
    return [
        f"{path.name}:{number}"
        for path in SOURCES if keep(path.name)
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if branch.match(line) or any(form in line for form in ("% 2 == 0 else", "% 2 else", "& 1 else"))
    ]


def test_signs_only_in_grading():
    assert _sign_offenders(lambda name: name != "grading.py") == []


# the modules whose signs moved onto ``koszul`` one by one keep a guard each,
# so a failure names the layer that regressed


def test_no_parity_branch_signs_in_bvcalc_and_samples():
    assert _sign_offenders(lambda name: name in ("bvcalc.py", "samples.py")) == []


def test_no_parity_branch_signs_in_charts_and_suites():
    assert _sign_offenders(lambda name: name in ("charts.py", "suites.py")) == []


def test_no_parity_branch_signs_in_supermatrix_and_mvforms():
    # the row kernel and the stored-term products take their signs from
    # ``_Layout.merge_sign`` and ``koszul``
    assert _sign_offenders(lambda name: name in ("supermatrix.py", "mvforms.py")) == []


def test_no_parity_signs_in_connect():
    assert _sign_offenders(lambda name: name == "connect.py") == []


def test_cancelling_sums_only_in_add_terms():
    pattern = ".pop(key, None)"
    total = sum(path.read_text().count(pattern) for path in SOURCES)
    assert inspect.getsource(mvforms.add_terms).count(pattern) == 1
    assert total == 1


def test_packed_sums_become_jets_only_in_jetring():
    # every other module finishes a packed accumulator with ``_finish``
    offenders = [
        f"{path.name}:{number}"
        for path in SOURCES if path.name != "jetring.py"
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if "_canonical(" in line or "_jet(" in line
    ]
    assert offenders == []


def test_no_hand_folded_jet_sums():
    # a sum of jets is one ``jet_sum`` or ``dot``; the oracle keeps its fold
    fold = re.compile(r"\bacc = acc [+-]")
    total = sum(len(fold.findall(path.read_text())) for path in SOURCES)
    kept = len(fold.findall(inspect.getsource(SuperMatrix.sdet_via_a_block)))
    assert kept == 1
    assert total == kept


def test_no_gaussian_rationals_above_the_jet_ring():
    # GaussianRational and Fraction stay at jetring's boundary and in dsl,
    # which reads scenario text; every other layer reads and builds packed
    # numerators
    scalar = re.compile(r"GaussianRational|Fraction|\.coefficient\(|\bnumerators\(")
    offenders = [
        f"{path.name}:{number}"
        for path in SOURCES if path.name not in ("jetring.py", "dsl.py", "__init__.py")
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if scalar.search(line)
    ]
    assert offenders == []


def test_no_formal_words_in_the_package():
    # the operations work on stored terms; the formal-word normaliser and its
    # item kinds live in tests/oracles.py as their oracle
    words = re.compile(r"\b(normalise_word|from_words|term_word|in_normal_form|DBAR|VEC|FUN)\b")
    offenders = [
        f"{path.name}:{number}"
        for path in SOURCES
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if words.search(line)
    ]
    assert offenders == []


def _annotations(tree):
    """The nodes of ``tree`` that sit in a type annotation, which no command
    evaluates (the package defers them with ``from __future__ import
    annotations``)."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation:
            roots.append(node.annotation)
        elif isinstance(node, ast.FunctionDef) and node.returns:
            roots.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
    return {id(sub) for root in roots for sub in ast.walk(root)}


def _unreached_definitions():
    """``module:name`` of each function, method and class defined in a
    package module other than ``__init__`` whose name no name or attribute
    of those modules spells outside the definition itself; names in
    annotations do not count."""
    definitions, uses = [], {}
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        skip = _annotations(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((path.name, node))
            elif id(node) not in skip and isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                uses.setdefault(name, []).append((path.name, node.lineno))
    return sorted(
        f"{module}:{node.name}"
        for module, node in definitions
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and not any(used != module or not node.lineno <= line <= node.end_lineno
                    for used, line in uses.get(node.name, ()))
    )


def test_every_definition_is_reached_in_the_package():
    # a name that only the tests call is a test helper or an oracle, and lives
    # in tests/oracles.py; sdet_via_a_block is the declared oracle kept beside
    # sdet (and traced by the benchmark)
    assert _unreached_definitions() == ["supermatrix.py:sdet_via_a_block"]


def test_test_modules_import_no_other_test_module():
    offenders = [
        f"{path.name}:{number}"
        for path in sorted(Path(__file__).resolve().parent.glob("test_*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if re.match(r"\s*(from|import)\s+test_", line)
    ]
    assert offenders == []
