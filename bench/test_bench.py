"""Tests of the benchmark's traced run and its contract.

Run from the repository root with ``python -m pytest bench -q``; they take
about a minute, most of it in the two repeated traced runs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402


def traced_metrics(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"], done.stderr
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def counts(metrics: dict) -> dict:
    return {name: value for name, value in metrics.items()
            if name.endswith(".calls") or name in ("jetring.mul.term_pairs", "jetring.peak_terms")}


@pytest.mark.parametrize("workload", ["bv_algebra", "transform_cap6"])
def test_traced_counts_repeat_exactly(workload):
    first = counts(traced_metrics(workload, 5))
    second = counts(traced_metrics(workload, 5))
    assert first == second
    assert first["jetring.mul.calls"] > 0 and first["jetring.mul.term_pairs"] > 0


def test_bv_algebra_never_enters_morphisms_connections_or_matrices(monkeypatch):
    monkeypatch.chdir(ROOT)
    workload = workloads.BvAlgebra(5)
    workload.setup()
    tally = workloads.Tally()
    try:
        with Tracer() as tracer:
            for index in range(2):
                workload.run_pass(index, tally)
    finally:
        workload.cleanup()
    assert tally.attempted > 0 and tally.failed == 0, tally.problems
    untouched = {key: stats[0] for key, stats in tracer.stats.items()
                 if key.startswith(("charts.Morphism.", "connect.", "supermatrix."))}
    assert len(untouched) > 20  # the wrappers exist, so the zero is not vacuous
    assert sum(untouched.values()) == 0, {k: v for k, v in untouched.items() if v}
    assert tracer.calls("bvcalc.extend_delta") > 0


def test_wrappers_replace_from_import_bindings():
    import superbv
    from superbv import bvcalc, cli, mvforms, suites

    before = {(module, name): getattr(module, name) for module, name in (
        (mvforms, "pull_mvform"), (cli, "pull_mvform"), (superbv, "pull_mvform"),
        (suites, "schouten"), (bvcalc, "schouten"))}
    registry = dict(suites.SUITES)
    defaults = bvcalc.check_bv_axioms.__defaults__
    with Tracer():
        assert cli.pull_mvform is mvforms.pull_mvform is superbv.pull_mvform
        assert cli.pull_mvform.__wrapped__ is before[(mvforms, "pull_mvform")]
        assert suites.schouten is bvcalc.schouten is mvforms.schouten
        assert suites.SUITES["gbv_compat"].__wrapped__ is registry["gbv_compat"]
        assert bvcalc.check_bv_axioms.__wrapped__.__defaults__[0] is mvforms.dbar
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "superbv" and not mod_name.startswith("superbv."):
                continue
            for name, value in vars(module).items():
                if (isinstance(value, types.FunctionType) and not name.startswith("_")
                        and value.__module__ in {f"superbv.{layer}" for layer in LAYERS}):
                    assert hasattr(value, "__wrapped__"), f"{mod_name}.{name} is not traced"
    for (module, name), value in before.items():
        assert getattr(module, name) is value
    assert suites.SUITES == registry
    assert bvcalc.check_bv_axioms.__defaults__ is defaults


def test_benchmark_json_names_every_metric_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bv_algebra", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
