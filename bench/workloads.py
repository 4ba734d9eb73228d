"""The three benchmark workloads: generated inputs, timed passes, correctness gates.

Every workload drives the program only through ``superbv.cli.main`` with
scenario files it writes itself, one call at a time (a closed loop with one
caller).  A *pass* is the workload's unit of work; the timed loop repeats
passes (see run.py for how ``wall_s`` is taken from them).

Correctness is checked on every call: exit codes, check verdicts, recorded
determinism hashes and digests at the default seed, and for transforms a
round trip through an independent code path that runs outside the timed
region.  Known-defect probes also run outside the timed region; they count
toward ``pass_share`` only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from superbv import cli
from superbv.dsl import parse, render_value
from superbv.mvforms import MultiVectorForm, pull_mvform

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ".bench_work"  # relative to ROOT; scenario paths enter the report hashes
DEFAULT_SEED = 42


@dataclass
class Tally:
    """Operations attempted and failed, plus known-defect probes kept apart."""

    attempted: int = 0
    failed: int = 0
    probes: int = 0
    probes_failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, ops: int, failed: int, problem: str | None = None) -> None:
        self.attempted += ops
        self.failed += failed
        if problem:
            self.problems.append(problem)

    def record_probe(self, ok: bool, problem: str) -> None:
        self.probes += 1
        if not ok:
            self.probes_failed += 1
            self.problems.append(f"known defect: {problem}")

    def pass_share(self) -> float:
        total = self.attempted + self.probes
        return (total - self.failed - self.probes_failed) / total


def run_cli(argv):
    """One call of ``superbv.cli.main``; returns (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


class Workload:
    """Base: owns the work directory and the verify-report gate."""

    name = ""
    trace_passes = 1  # passes of fixed work in the traced run

    def __init__(self, seed: int):
        self.seed = seed
        self.work = Path(WORK_DIR) / self.name

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            Path(WORK_DIR).rmdir()

    def write(self, filename: str, text: str) -> str:
        path = self.work / filename
        path.write_text(text, encoding="utf-8")
        return path.as_posix()

    def verify(self, scenario: str, checks: int, want_hash: str | None, tally: Tally):
        """Run ``superbv verify`` once and gate its report; returns seconds."""
        report_path = self.work / "report.json"
        report_path.unlink(missing_ok=True)
        code, _, err, seconds = run_cli(["verify", scenario, "--json", report_path.as_posix()])
        try:
            report = json.loads(report_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            tally.record(checks, checks, f"{scenario}: exit {code}, no report: {err.strip()[:200]}")
            return seconds
        bad = [f"{c['suite']}.{c['check']}={c['status']}"
               for c in report["checks"] if c["status"] != "pass"]
        if want_hash is not None and report["determinism_hash"] != want_hash:
            tally.record(checks, checks,
                         f"{scenario}: determinism hash {report['determinism_hash']} != {want_hash}")
        elif len(report["checks"]) != checks:
            tally.record(checks, checks, f"{scenario}: {len(report['checks'])} checks, want {checks}")
        else:
            tally.record(checks, len(bad), f"{scenario}: exit {code}, failing {bad}" if bad else None)
        return seconds

    def run_pass(self, index: int, tally: Tally) -> dict:
        """Run pass ``index``; returns {operation: seconds}."""
        raise NotImplementedError

    def finish(self, tally: Tally) -> None:
        """Untimed gates and known-defect probes, once per run."""


# -- verify_2x2 ----------------------------------------------------------------------

TWO_TWO = "scenarios/two_two.sbv"
TWO_TWO_CHECKS = 34
TWO_TWO_HASH = "cb088cb1482a07337dcdf65fd1d441b47318a4ef948ad7c860769e416077a3f6"


class Verify2x2(Workload):
    """The shipped 2|2 scenario, all 12 suites, its own seed 42 and 25 trials.

    The benchmark seed does not change this input: across verify seeds 1-9
    one pass took 10.9-21.4 s (quartile spread 44% of the median), wider
    than any bound the benchmark may set, so the headline stays fixed.
    """

    name = "verify_2x2"

    def setup(self) -> None:
        super().setup()
        parse((ROOT / TWO_TWO).read_text(encoding="utf-8"))

    def run_pass(self, index: int, tally: Tally) -> dict:
        return {"verify": self.verify(TWO_TWO, TWO_TWO_CHECKS, TWO_TWO_HASH, tally)}


# -- bv_algebra -------------------------------------------------------------------------

BV_SUITES = ("schouten_symmetry", "schouten_derivation", "tian_todorov", "gbv_compat",
             "manin_comparison", "delta_projection")
BV_CHECKS = 15
BV_TRIALS = 25
# determinism hash of pass 0 at the default seed
BV_HASH = "99976ee38dd97adc3a0302f0712066bb74606e0b9ad6160760c11195207d8151"

# Cap 4 puts the sampled products (even degree up to 4) on the truncation
# boundary, where about 7% of seeds fail gbv_compat.dbar_anticommute,
# manin_comparison or delta_projection although the identities hold.  The
# workload runs at cap 6, where no failure was seen in 1,300 seeds; this probe
# keeps the cap-4 defect visible in pass_share.
BV_PROBE = """\
ring 2|2 cap 4;
seed 138;
trials 25;
suite gbv_compat;
suite manin_comparison;
"""
BV_PROBE_CHECKS = 10


def bv_scenario(seed: int) -> str:
    lines = ["ring 2|2 cap 6;", f"seed {seed};", f"trials {BV_TRIALS};"]
    lines += [f"suite {name};" for name in BV_SUITES]
    return "\n".join(lines) + "\n"


class BvAlgebra(Workload):
    """The six bracket and BV-operator suites; every pass draws a new suite seed."""

    name = "bv_algebra"
    trace_passes = 8

    def setup(self) -> None:
        super().setup()
        parse(bv_scenario(self.pass_seed(0)))

    def pass_seed(self, index: int) -> int:
        return self.seed % 2**31 * 1000 + index  # scenario seeds are written unsigned

    def run_pass(self, index: int, tally: Tally) -> dict:
        path = self.write("bv_algebra.sbv", bv_scenario(self.pass_seed(index)))
        want = BV_HASH if self.seed == DEFAULT_SEED and index == 0 else None
        return {"verify": self.verify(path, BV_CHECKS, want, tally)}

    def finish(self, tally: Tally) -> None:
        path = self.write("bv_probe.sbv", BV_PROBE)
        probe = Tally()
        self.verify(path, BV_PROBE_CHECKS, None, probe)
        tally.record_probe(probe.failed == 0, "cap-4 false failures: " + "; ".join(probe.problems))


# -- transform_cap6 ------------------------------------------------------------------------

# Fixed monomial shapes with generic Gaussian-integer coefficients: every seed
# gives the same term structure, so the work per pass does not depend on the
# seed (term-pair counts were identical over ten seeds).  Even images carry no
# term of even degree zero, the library's own precondition for pulling back
# without precision loss (see samples.invertible_morphism); TRANSFORM_PROBE
# covers a map that breaks it.
MAP_SHAPE = (
    "{}*z1 + {}*z2 + {}*z1^2 + {}*z2*th1*th2",
    "{}*z2 + {}*z1*z2^2",
    "{}*th1 + {}*z1*th1",
    "{}*th2 + {}*th1 + {}*z2*th2",
)
SECTION_SHAPES = (
    ("section", "s1", "dzb2 * ({}*z1 + {}*th1*thb2)"),
    ("section", "s2", "dv(th1) * ({}*th1 + {}*z1*th2)"),
    ("section", "s3", "dv(z2) * ({}*z1 + {}*z2^2 + {}*zb1*th1*th2)"),
    ("section", "s4", "dv(z1) * dv(th2) * ({}*th2 + {}*z2*th1)"),
    ("let", "f", "{}*z1*z2 + {}*th1*th2"),
)
# sha256 of the concatenated outputs of one pass at the default seed
TRANSFORM_DIGEST = "daccb6597900441c4b297ebedc4783e79183a8511d9c1e3f669a458842604581"

TRANSFORM_PROBE = """\
ring 2|2 cap 6;
section a = dv(z1);
map phi { zeta1 = z1 + z1^2 + th1*th2; zeta2 = z2; zeta3 = th1; zeta4 = th2; }
"""


def _coefficient(rng: random.Random) -> str:
    re = rng.choice((-1, 1)) * rng.randint(1, 5)
    im = rng.choice((-1, 1)) * rng.randint(1, 5)
    return f"({re} + {im}*i)" if im > 0 else f"({re} - {-im}*i)"


def _fill(shape: str, rng: random.Random) -> str:
    return shape.format(*(_coefficient(rng) for _ in range(shape.count("{}"))))


def transform_scenario(seed: int) -> str:
    rng = random.Random(seed)
    lines = ["ring 2|2 cap 6;"]
    for keyword, name, shape in SECTION_SHAPES:
        lines.append(f"{keyword} {name} = {_fill(shape, rng)};")
    images = " ".join(f"zeta{k + 1} = {_fill(shape, rng)};" for k, shape in enumerate(MAP_SHAPE))
    lines.append(f"map phi {{ {images} }}")
    return "\n".join(lines) + "\n"


def round_trip_problem(scenario, section_name: str, printed: str) -> str | None:
    """Independent oracle for ``superbv transform --map phi``: the printed
    result, pulled back through ``phi``, must give the input section again at
    the common precision."""
    phi = scenario.morphisms["phi"]
    section = scenario.sections.get(section_name)
    if section is None:
        section = MultiVectorForm.from_function(scenario.chart, scenario.functions[section_name])
    transported = pull_mvform(phi.invert(), section)
    if render_value(transported) != printed.rstrip("\n"):
        return "printed result differs from the transported section"
    if not pull_mvform(phi, transported).agrees_with(section):
        return "pulling the result back does not give the section"
    return None


class TransformCap6(Workload):
    """``superbv transform --map phi`` for every section of a generated scenario."""

    name = "transform_cap6"

    def setup(self) -> None:
        super().setup()
        text = transform_scenario(self.seed)
        self.path = self.write("transform.sbv", text)
        self.scenario = parse(text)
        self.sections = [name for _, name, _ in SECTION_SHAPES]
        self.outputs: dict = {}
        self.calls = dict.fromkeys(self.sections, 0)
        self.problems: dict = {}

    def run_pass(self, index: int, tally: Tally) -> dict:
        times = {}
        for name in self.sections:
            code, out, err, times[name] = run_cli(
                ["transform", self.path, "--map", "phi", "--section", name])
            self.calls[name] += 1
            if code != 0:
                self.problems.setdefault(name, f"exit {code}: {err.strip()[:200]}")
            elif self.outputs.setdefault(name, out) != out:
                self.problems.setdefault(name, "output differs between repetitions")
        return times

    def finish(self, tally: Tally) -> None:
        for name in self.sections:
            if name not in self.problems and name in self.outputs:
                problem = round_trip_problem(self.scenario, name, self.outputs[name])
                if problem:
                    self.problems[name] = problem
        if self.seed == DEFAULT_SEED:
            digest = hashlib.sha256(
                "".join(self.outputs.get(name, "") for name in self.sections).encode()).hexdigest()
            if digest != TRANSFORM_DIGEST:
                for name in self.sections:
                    self.problems.setdefault(name, f"output digest {digest} != {TRANSFORM_DIGEST}")
        for name in self.sections:
            problem = self.problems.get(name)
            calls = self.calls[name]
            tally.record(calls, calls if problem else 0,
                         f"transform phi/{name}: {problem}" if problem else None)
        self.probe(tally)

    def probe(self, tally: Tally) -> None:
        path = self.write("transform_probe.sbv", TRANSFORM_PROBE)
        code, out, err, _ = run_cli(["transform", path, "--map", "phi", "--section", "a"])
        problem = (f"exit {code}: {err.strip()[:200]}" if code != 0
                   else round_trip_problem(parse(TRANSFORM_PROBE), "a", out))
        tally.record_probe(problem is None, f"Morphism.invert precision: {problem}")


WORKLOADS = {cls.name: cls for cls in (Verify2x2, BvAlgebra, TransformCap6)}
