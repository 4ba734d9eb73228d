"""Source guards for the one-sign-source and one-accumulator rules.

Every Koszul sign is ``grading.koszul`` of an exponent (or one of the
``grading`` functions built on it), and every sum of sparse section terms
goes through ``mvforms.add_terms``.  No linter enforces this, so these tests
read the package source and fail when a hand-written copy reappears.
"""

import inspect
from pathlib import Path

from superbv import mvforms

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "superbv").glob("*.py"))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"grading.py", "mvforms.py", "bvcalc.py"}


def test_signs_only_in_grading():
    offenders = [
        f"{path.name}:{number}"
        for path in SOURCES if path.name != "grading.py"
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if "% 2 else" in line
    ]
    assert offenders == []


def test_cancelling_sums_only_in_add_terms():
    pattern = ".pop(key, None)"
    total = sum(path.read_text().count(pattern) for path in SOURCES)
    assert inspect.getsource(mvforms.add_terms).count(pattern) == 1
    assert total == 1
