"""superbv benchmark: one workload per process, one JSON result line.

Usage, from the root of a checkout::

    python3 bench/run.py --workload verify_2x2 --seed 42 --seconds 30 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end metrics;
``--trace 1`` runs a fixed amount of the workload once untraced and once
under the per-layer tracer and prints the per-layer metrics.  The last line
of standard output is the result object; progress and failures go to
standard error.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 11

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_share": "share"}

# per-layer metric prefix -> traced name (see tracer.Tracer.stats)
FUNCTION_METRICS = {
    **{f"jetring.{short}": f"jetring.JetSuperFunction.{name}" for short, name in (
        ("mul", "__mul__"), ("add", "__add__"), ("substitute", "substitute"),
        ("partial", "partial"), ("invert", "invert"), ("conjugate", "conjugate"),
        ("render", "render"), ("agrees_with", "agrees_with"))},
    **{f"supermatrix.{short}": f"supermatrix.SuperMatrix.{name}" for short, name in (
        ("mul", "__mul__"), ("inverse", "inverse"), ("sdet", "sdet"),
        ("sdet_via_a_block", "sdet_via_a_block"), ("str_", "str_"))},
    **{f"charts.{name}": f"charts.{name}" for name in (
        "Morphism.apply", "Morphism.invert", "Morphism.differential", "Morphism.compose",
        "pull_ber", "vector_apply")},
    **{f"mvforms.{name}": f"mvforms.{name}" for name in (
        "normalise_word", "schouten", "wedge", "dbar", "pull_mvform",
        "MultiVectorForm.agrees_with")},
    **{f"bvcalc.{name}": f"bvcalc.{name}" for name in (
        "extend_delta", "extend_delta_right", "delta_omega", "partial_int", "check_bv_axioms",
        "manin_delta", "project_strong", "pull_delta_table")},
    **{f"connect.{name}": f"connect.{name}" for name in (
        "transform_christoffel", "bv_connection", "ber_from_tangent", "is_flat",
        "solve_delta_formula", "check_sdet_transport", "check_cy_consistency")},
    "dsl.parse": "dsl.parse",
}
SUITE_NAMES = (
    "schouten_symmetry", "schouten_derivation", "tian_todorov", "gbv_compat", "partial_dbar",
    "jacobi_sum", "bv_flat", "sdet_transport", "cy_consistency", "manin_comparison",
    "delta_projection", "covariance",
)


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    counts = (".calls", ".term_pairs", ".peak_terms")
    return {name: "count" if name.endswith(counts) else "s"
            for name in per_layer_values(Tracer(), 0.0)}


def per_layer_values(tracer, overhead_s: float) -> dict:
    values = {}
    for prefix, key in FUNCTION_METRICS.items():
        values[f"{prefix}.calls"] = tracer.calls(key)
        values[f"{prefix}.self_s"] = tracer.self_s(key)
    values["jetring.mul.term_pairs"] = tracer.term_pairs
    values["jetring.peak_terms"] = tracer.peak_terms
    values["samples.calls"] = tracer.layer_calls("samples")
    for layer in LAYERS:
        values[f"{layer}.self_s"] = tracer.layer_self_s(layer)
    for suite in SUITE_NAMES:
        values[f"suites.{suite}.s"] = tracer.inclusive_s(f"suites.suite_{suite}")
    values["trace.overhead_s"] = overhead_s
    return values


def measure_setup(workload: str, seed: int) -> float:
    """Median, over fresh processes, of the time from process start until the
    workload's inputs are generated and parsed and its first operation could start."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            ready = child.stdout.readline()
            samples.append(time.perf_counter() - start)
            child.stdout.read()
        if ready.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up process failed with exit code {child.returncode}")
    return statistics.median(samples)


def run_untraced(workload, seconds: float, tally) -> dict:
    """Repeat passes for about ``seconds``.  ``wall_s`` is the time of one
    pass: each operation's median over the run, summed over the pass."""
    samples: dict = {}
    start = time.perf_counter()
    index = 0
    while True:
        for op, took in workload.run_pass(index, tally).items():
            samples.setdefault(op, []).append(took)
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / index > seconds:  # the next pass would overrun
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{workload.name}: {index} passes in {time.perf_counter() - start:.1f} s",
          file=sys.stderr)
    wall_s = sum(statistics.median(times) for times in samples.values())
    return {"wall_s": wall_s, "peak_rss_mb": peak_rss_mb}


def run_traced(workload, tally) -> dict:
    def fixed_work() -> float:
        return sum(sum(workload.run_pass(i, tally).values())
                   for i in range(workload.trace_passes))

    untraced = fixed_work()
    with Tracer() as tracer:
        traced = fixed_work()
    return per_layer_values(tracer, traced - untraced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import superbv
        from workloads import WORKLOADS, Tally
    except ImportError as error:
        print(f"error: cannot import superbv from {src}: {error}", file=sys.stderr)
        return 2
    if Path(superbv.__file__).resolve().parent != src / "superbv":
        print(f"error: superbv was imported from {superbv.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    workload = WORKLOADS[args.workload](args.seed)
    try:
        if args.setup_only:
            workload.setup()
            print("ready", flush=True)
            return 0
        tally = Tally()
        if args.trace:
            workload.setup()
            values = run_traced(workload, tally)
            workload.finish(tally)
            units = per_layer_units()
        else:
            setup_s = measure_setup(args.workload, args.seed)
            workload.setup()
            values = run_untraced(workload, args.seconds, tally)
            workload.finish(tally)
            values.update(setup_s=setup_s, pass_share=tally.pass_share())
            units = END_TO_END_UNITS
    except (OSError, RuntimeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        workload.cleanup()

    for problem in tally.problems:
        print(problem, file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
