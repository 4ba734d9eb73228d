"""Running the suites across processes.

``run_suites`` may spread the suites over forked workers because each suite
draws from its own stream and shares nothing with the others but pure
caches.  These tests check that independence, that the worker path and the
in-process path give the same reports, that no child outlives a run, and
that work a worker did not return is done in the calling process.
"""

import json
import os
import re
import threading
from pathlib import Path

import pytest

from superbv import cli, suites
from superbv.dsl import parse
from superbv.report import _strip_timing
from superbv.suites import SUITES, CheckResult, run_suites
from test_golden import SCENARIO_HASHES

ROOT = Path(__file__).resolve().parent.parent

# the error scenario of CI: no even generator, so nearly every check errs
RING_0X1 = "ring 0|1 cap 2;\ntrials 2;\n" + "".join(f"suite {name};\n" for name in SUITES)


def two_cpus(patch) -> list:
    """Two CPUs whatever the machine has; returns the list of forks made."""
    made = []
    real_fork = os.fork

    def fork():
        made.append(1)
        return real_fork()

    patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    patch.setattr(os, "fork", fork)
    return made


@pytest.fixture
def forks(monkeypatch):
    return two_cpus(monkeypatch)


@pytest.fixture
def no_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def without_time(result: CheckResult) -> dict:
    fields = dict(vars(result))
    del fields["elapsed_ms"]
    return fields


@pytest.mark.parametrize("name", ["default", "two_one", "two_two"])
def test_each_suite_alone_is_its_slice_of_a_full_run(name, no_fork):
    scenario = parse((ROOT / "scenarios" / f"{name}.sbv").read_text(encoding="utf-8"))
    full = run_suites(scenario.chart, list(SUITES), scenario.seed, 4)
    for suite in SUITES:
        alone = run_suites(scenario.chart, [suite], scenario.seed, 4)
        assert alone, suite
        assert [without_time(r) for r in alone] == \
            [without_time(r) for r in full if r.suite == suite]
    assert len(full) == 34


def verify(argv, capsys):
    """Exit code, standard output without timings, and the JSON report."""
    report = Path(argv[-1])
    code = cli.main(argv)
    out = re.sub(r"\(\d+ ms\)", "", capsys.readouterr().out)
    no_child_left()
    return code, out, json.loads(report.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", ["default", "two_one", "two_two", "ring_0x1"])
def test_workers_and_in_process_give_identical_reports(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    path = f"scenarios/{name}.sbv"
    if name == "ring_0x1":
        path = tmp_path / "ring_0x1.sbv"
        path.write_text(RING_0X1, encoding="utf-8")
    argv = ["verify", str(path), "--json", str(tmp_path / "report.json")]
    with monkeypatch.context() as patch:
        made = two_cpus(patch)
        code, out, report = verify(argv, capsys)
        assert made
    with monkeypatch.context() as patch:
        patch.delattr(os, "fork")
        alone = verify(argv, capsys)
    assert (code, out) == alone[:2]
    assert _strip_timing(report) == _strip_timing(alone[2])
    assert report["determinism_hash"] == alone[2]["determinism_hash"]
    if name == "ring_0x1":
        assert code == 2 and report["summary"]["errors"] > 0
    else:
        assert code == 0
        assert report["determinism_hash"] == SCENARIO_HASHES[name]


def test_a_worker_that_leaves_without_results_loses_nothing(forks):
    parent = os.getpid()
    calls = []

    def run(index):
        if os.getpid() != parent:
            os._exit(0)
        calls.append(index)
        return [CheckResult("s", f"c{index}", "law", 1, "pass")]

    results = suites._spread(run, 12, 2)
    assert [r.check for r in results] == [f"c{index}" for index in range(12)]
    assert sorted(calls) == list(range(12))
    assert forks
    no_child_left()


def test_only_the_calling_process_comes_back(forks, tmp_path):
    parent = os.getpid()
    came_back = tmp_path / "came_back"
    try:
        results = suites._spread(lambda index: [CheckResult("s", f"c{index}", "law", 1, "pass")],
                                 4, 2)
    finally:
        if os.getpid() != parent:  # a worker returned or raised into the caller's stack
            came_back.write_text(str(os.getpid()))
            os._exit(0)
    assert forks
    assert not came_back.exists()
    assert [r.check for r in results] == ["c0", "c1", "c2", "c3"]
    no_child_left()


def test_a_run_that_raises_raises_as_in_process(forks):
    def run(index):
        if index in (5, 8):
            raise ValueError(f"index {index}")
        return [CheckResult("s", f"c{index}", "law", 1, "pass")]

    with pytest.raises(ValueError, match="index 5"):
        suites._spread(run, 12, 2)
    no_child_left()


def test_worker_results_keep_every_field(forks):
    def run(index):
        status = ("pass", "fail", "error")[index % 3]
        return [CheckResult("s", f"c{index}", "law ü", index, status,
                            None if status == "pass" else f"witness {index}", index / 7)]

    assert suites._spread(run, 9, 3) == [r for index in range(9) for r in run(index)]
    no_child_left()


def test_a_replaced_runner_sees_every_call_in_process(forks, monkeypatch):
    seen = []
    original = SUITES["schouten_symmetry"]

    def double(chart, seed, trials):
        seen.append(os.getpid())
        return original(chart, seed, trials)

    monkeypatch.setitem(SUITES, "schouten_symmetry", double)
    chart = parse("ring 1|1 cap 4;\n").chart
    run_suites(chart, ["schouten_symmetry", "tian_todorov", "schouten_symmetry"], 3, 2)
    assert seen == [os.getpid()] * 2
    assert not forks


def test_one_cpu_runs_in_process(forks, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    chart = parse("ring 1|1 cap 4;\n").chart
    results = run_suites(chart, ["schouten_symmetry", "tian_todorov"], 3, 2)
    assert [r.suite for r in results] == ["schouten_symmetry", "tian_todorov"]
    assert not forks


def test_other_threads_keep_the_run_in_process(forks):
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(60,))
    waiter.start()
    try:
        chart = parse("ring 1|1 cap 4;\n").chart
        results = run_suites(chart, ["schouten_symmetry", "tian_todorov"], 3, 2)
    finally:
        release.set()
        waiter.join(60)
    assert not waiter.is_alive()
    assert [r.suite for r in results] == ["schouten_symmetry", "tian_todorov"]
    assert not forks
