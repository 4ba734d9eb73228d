"""Running the suites across processes.

``run_suites`` may spread the suites over forked workers because each suite
draws from its own stream and shares nothing with the others but pure
caches.  These tests check that independence, that the worker path and the
in-process path give the same reports, that no child outlives a run, and
that work a worker did not return is done in the calling process.  A
digest over a grid of rings, seeds and trial counts pins each suite's
reports, failures and errors included.
"""

import hashlib
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
from oracles import ROOT, SCENARIO_HASHES

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


# Every suite run directly, in this process, on each ring at seeds 0 and 7 and
# 1, 2 and 3 trials: 1,632 checks, of which 1,198 pass, 21 fail and 413 err.
# No shipped scenario fails or errs, so these digests are what pins the
# counterexample and error texts.  They also record the known false failures
# (ROADMAP items 2 and 11: stored terms past a section's precision, and the
# negative control's verdict at few trials); a mend of either re-records the
# digests it moves.
GRID_RINGS = ("1|1 cap 4", "2|1 cap 2", "2|1 cap 4", "2|2 cap 3", "1|3 cap 3", "1|0 cap 3",
              "0|1 cap 2", "0|2 cap 2")
GRID_DIGESTS = {
    "schouten_symmetry": "6f4b0332f20ce452d1ac649c9413d9d8697159ae843774da2f373a212c20b1fb",
    "schouten_derivation": "d27f2ff3b2dd96eb635327988324c741ecbc239d8a90479414c4cbea16d59236",
    "tian_todorov": "9317a2c1d61134f249cc075c2d6037efa1800d5b8832c459b491b4003a82ef74",
    "gbv_compat": "1a58b68b79630a0faefae799206165ba2e8d1dfd2548f548283509c020662188",
    "partial_dbar": "0cc56751a1e2da070b6b0aab2bfea4ab9d4055e7eb634cb8f4597e0f16c069ed",
    "jacobi_sum": "4b5a50fcd6ca623d578d44c9a597cb3c68a71ee25d9e985a7dd8ec13316e1f3e",
    "bv_flat": "f9a4031234527ff70471d8ea353fb7b67015bd55260ca2a20b270c363d6e3e2c",
    "sdet_transport": "c6040cf5e17bffd336383af8291406d0d0889dff3a884ed993c9f0e5a988af15",
    "cy_consistency": "20751bd7f59be513a975d4a1f1b43694597d9e55b66fa1439a05e4afc51dc804",
    "manin_comparison": "40407b0dd230e445644cf8f60c8d5636a5e6e7f3c179474723782be880bb0465",
    "delta_projection": "c2d0e85d91ccd37133d00f0169e9dfad4430097f23e4ff9cd716ca1c02efe7c0",
    "covariance": "b7d4f63b024fb8c1b2aea41ea1830ce29968ca7bc9928d00ef8ff506fa68bd27",
}


def test_grid_reports_are_recorded():
    lines = {name: [] for name in SUITES}
    for ring in GRID_RINGS:
        chart = parse(f"ring {ring};\n").chart
        for seed in (0, 7):
            for trials in (1, 2, 3):
                for name, run in SUITES.items():
                    lines[name] += [json.dumps(_strip_timing(vars(r)), sort_keys=True)
                                    for r in run(chart, seed, trials)]
    digests = {name: hashlib.sha256("\n".join(text).encode()).hexdigest()
               for name, text in lines.items()}
    assert digests == GRID_DIGESTS


def test_a_residue_is_the_rendered_difference_or_the_witness():
    """No check of the grid fails through these two, so their texts are pinned here."""
    chart = parse("ring 1|1 cap 4;\n").chart
    one, z = chart.one(), chart.coordinate(0)
    assert suites._differ(one + z, one + z) is None
    assert suites._differ(one + z, one) == z.render()
    assert suites._differ(one, one + z) == (-z).render()
    assert suites._differ(one + z, one, one) == one.render()
    assert suites._nonzero(chart.zero()) is None
    assert suites._nonzero(z) == z.render()
    assert suites._nonzero(z, one) == one.render()


def test_a_suite_reports_the_same_checks_whatever_its_outcome(no_fork):
    """On 0|1 nearly every check errs; each suite still reports all its checks."""
    def names(scenario):
        return [(r.suite, r.check)
                for r in run_suites(scenario.chart, list(SUITES), scenario.seed, 2)]

    default = parse((ROOT / "scenarios" / "default.sbv").read_text(encoding="utf-8"))
    assert names(parse(RING_0X1)) == names(default)


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
