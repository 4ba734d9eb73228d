import contextlib
import errno
import io
import json
import os
from pathlib import Path

import pytest

from superbv.charts import BerSection
from superbv.dsl import ScenarioError, parse, parse_expression, render_value
from superbv.jetring import GaussianRational, JetSuperFunction
from superbv.mvforms import MultiVectorForm
from superbv.report import build_report, determinism_hash, to_json
from superbv.samples import SampleGen
from superbv.suites import run_suites


BASE = "ring 2|2 cap 4;\n"
SCENARIOS = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.sbv"))


def scenario(extra=""):
    return parse(BASE + extra)


class TestParseStatements:
    def test_ring_and_let(self):
        sc = scenario("let h = 1 + z1;\n")
        assert sc.signature.n == 2 and sc.signature.m == 2 and sc.signature.cap == 4
        h = sc.functions["h"]
        assert h.render() == "1 + z1"

    def test_section_literal(self):
        sc = scenario("section a = dzb1 * dv(z1) * th1;\n")
        a = sc.sections["a"]
        assert a.bidegrees() == {(1, 1)}
        assert a.parity() == 1

    def test_caret_generator_and_wedge(self):
        sc = scenario("section a = (dzb^1 ^ dzb^2) * dv(z1) * (1 + z1*z2);\n")
        a = sc.sections["a"]
        assert a.bidegrees() == {(1, 2)}

    def test_ber_section(self):
        sc = scenario("let w = (1 + z1) [dxi];\n")
        w = sc.ber_sections["w"]
        assert isinstance(w, BerSection)
        assert w.coefficient.render() == "1 + z1"

    def test_map(self):
        sc = scenario("map phi { zeta1 = z1 + z1^2; zeta2 = z2; zeta3 = th1; zeta4 = th2; }\n")
        assert "phi" in sc.morphisms

    def test_suite_seed_trials(self):
        sc = scenario("seed 9; trials 7; suite tian_todorov; suite covariance;\n")
        assert sc.seed == 9 and sc.trials == 7
        assert sc.suites == ["tian_todorov", "covariance"]

    def test_scalar_rationals_and_i(self):
        sc = scenario("let c = (3/4 + 2*i)*z1;\n")
        coeff = sc.functions["c"].coefficient((1, 0, 0, 0), ())
        assert coeff == GaussianRational.of("3/4", 2)


class TestParseErrors:
    def test_syntax_error_position(self):
        with pytest.raises(ScenarioError) as err:
            parse("ring 1|1 cap 4;\nlet h = 1 +;\n")
        assert err.value.line == 2

    def test_unknown_name(self):
        with pytest.raises(ScenarioError):
            scenario("let f = nope + 1;\n")

    def test_parity_mismatch_in_map(self):
        with pytest.raises(ScenarioError):
            scenario("map phi { zeta1 = th1; zeta2 = z1; zeta3 = th1; zeta4 = th2; }\n")

    def test_unknown_generator(self):
        with pytest.raises(ScenarioError):
            parse("ring 1|1 cap 4;\nlet f = z2;\n")

    def test_degree_cap_overflow(self):
        with pytest.raises(ScenarioError):
            parse("ring 1|1 cap 2;\nlet f = z1^3;\n")
        with pytest.raises(ScenarioError):
            parse("ring 1|1 cap 2;\nlet f = (z1 + z1^2)*(1 + z1);\n")

    def test_duplicate_name(self):
        with pytest.raises(ScenarioError):
            scenario("let f = z1;\nlet f = z2;\n")

    def test_unknown_suite(self):
        with pytest.raises(ScenarioError):
            scenario("suite nonsense;\n")

    def test_division_restricted_to_scalars(self):
        with pytest.raises(ScenarioError):
            scenario("let f = z1 / z1;\n")

    @pytest.mark.parametrize("statement,error", [
        ("let i = 3;", "2:5: name 'i' is reserved"),
        ("let dv = z1;", "2:5: name 'dv' is reserved"),
        ("section i = dv(z1);", "2:9: name 'i' is reserved"),
        ("map dv { zeta1 = z1; zeta2 = th1; }", "2:5: name 'dv' is reserved"),
    ])
    def test_names_an_expression_cannot_reach(self, tmp_path, capsys, statement, error):
        from superbv.cli import main

        scenario_file = tmp_path / "s.sbv"
        scenario_file.write_text(f"ring 1|1 cap 2;\n{statement}\n", encoding="utf-8")
        assert main(["eval", str(scenario_file), "--expr", "1"]) == 2
        assert f"s.sbv:{error}" in capsys.readouterr().err

    @pytest.mark.parametrize("statement", [
        "connection gam { Gamma[1][1][1] = 1 + z1; }",
        "path p { z1 = t; th1 = eta1*t; }",
        "order 4;",
        "oddparams 2;",
    ])
    def test_removed_statements_are_unknown(self, tmp_path, capsys, statement):
        from superbv.cli import main

        scenario_file = tmp_path / "s.sbv"
        scenario_file.write_text(f"ring 1|1 cap 4;\nlet h = 1 + z1;\n  {statement}\n",
                                 encoding="utf-8")
        assert main(["verify", str(scenario_file)]) == 2
        err = capsys.readouterr().err
        assert f"s.sbv:3:3: unknown statement {statement.split()[0]!r}" in err
        assert "Traceback" not in err

    def test_map_component_given_twice(self, tmp_path, capsys):
        from superbv.cli import main

        scenario_file = tmp_path / "s.sbv"
        scenario_file.write_text("ring 1|1 cap 4;\n"
                                 "map phi { zeta1 = z1; zeta2 = th1;\n"
                                 "          zeta1 = 2*z1; }\n", encoding="utf-8")
        assert main(["eval", str(scenario_file), "--expr", "1"]) == 2
        err = capsys.readouterr().err
        assert "s.sbv:3:11: zeta1 given twice" in err
        assert "Traceback" not in err

    def test_eta_is_not_a_generator(self, tmp_path, capsys):
        from superbv.cli import main

        scenario_file = tmp_path / "s.sbv"
        scenario_file.write_text("ring 1|1 cap 4;\n", encoding="utf-8")
        assert main(["eval", str(scenario_file), "--expr", "eta1*z1"]) == 2
        assert "1:1: unknown name 'eta1'" in capsys.readouterr().err
        scenario_file.write_text("ring 1|1 cap 4;\nlet x = eta1;\n", encoding="utf-8")
        assert main(["eval", str(scenario_file), "--expr", "x"]) == 2
        assert "s.sbv:2:9: unknown name 'eta1'" in capsys.readouterr().err


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda path: path.stem)
def test_shipped_scenario_parses(path):
    parse(path.read_text(encoding="utf-8"))


class TestRenderRoundTrip:
    def test_examples(self):
        sc = scenario()
        sig = sc.signature
        z1 = JetSuperFunction.gen(sig, sig.z(0))
        one = JetSuperFunction.one(sig)
        f = one - z1 + z1 * z1
        assert f.render() == "1 - z1 + z1^2"
        assert parse_expression(sc, f.render()).agrees_with(f)

    def test_round_trip_many_values(self):
        # the workhorse property: parse(render(x)) == x on generated values
        sc = scenario()
        gen = SampleGen(2024)
        chart = sc.chart
        checked = 0
        for _ in range(120):
            f = gen.jet(chart.sig, max_terms=4)
            text = render_value(f)
            back = parse_expression(sc, text)
            if isinstance(back, GaussianRational):
                back = JetSuperFunction.scalar(chart.sig, back)
            assert back.agrees_with(f), text
            checked += 1
        for _ in range(80):
            alpha, *_ = gen.homogeneous_mvform(chart, max_p=2, max_q=2,
                                               allow_repeats=True)
            if alpha.is_zero():
                continue
            text = render_value(alpha)
            back = parse_expression(sc, text)
            if isinstance(back, GaussianRational):
                back = JetSuperFunction.scalar(chart.sig, back)
            if isinstance(back, JetSuperFunction):
                back = MultiVectorForm.from_function(chart, back)
            assert back.agrees_with(alpha), text
            checked += 1
        for _ in range(30):
            omega = gen.trivialising_section(chart)
            text = render_value(omega)
            back = parse_expression(sc, text)
            assert isinstance(back, BerSection)
            assert back.coefficient.agrees_with(omega.coefficient)
            checked += 1
        assert checked >= 200

    def test_morphism_round_trip(self):
        sc = scenario()
        gen = SampleGen(77)
        phi = gen.invertible_morphism(sc.chart)
        text = BASE + phi.render("phi") + "\n"
        sc2 = parse(text)
        back = sc2.morphisms["phi"]
        for a, b in zip(back.pullbacks, phi.pullbacks):
            assert a.agrees_with(b)


class TestReportDeterminism:
    def test_same_seed_same_hash(self):
        sc = scenario("suite schouten_symmetry; suite manin_comparison;\n")
        runs = []
        for _ in range(2):
            results = run_suites(sc.chart, sc.suites, seed=5, trials=6)
            runs.append(build_report(None, 5, 6, sc.suites, results))
        assert runs[0]["determinism_hash"] == runs[1]["determinism_hash"]
        strip = lambda r: {k: v for k, v in r.items() if k != "total_elapsed_ms"}
        a = json.loads(to_json(runs[0]))
        b = json.loads(to_json(runs[1]))
        for left, right in zip(a["checks"], b["checks"]):
            assert {k: v for k, v in left.items() if k != "elapsed_ms"} == \
                   {k: v for k, v in right.items() if k != "elapsed_ms"}

    def test_different_seed_changes_nothing_material(self):
        # statuses stay pass for any seed; the hash may change with the seed field
        sc = scenario("suite schouten_symmetry;\n")
        results = run_suites(sc.chart, sc.suites, seed=99, trials=4)
        assert all(r.status == "pass" for r in results)


class TestCLI:
    def test_eval(self, tmp_path, capsys):
        from superbv.cli import main

        scenario_file = tmp_path / "s.sbv"
        scenario_file.write_text("ring 1|1 cap 4;\nlet h = 1 + z1;\n", encoding="utf-8")
        code = main(["eval", str(scenario_file), "--expr", "h * h"])
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert out == "1 + 2*z1 + z1^2"

    def test_transform(self, tmp_path, capsys):
        from superbv.cli import main

        scenario_file = tmp_path / "s.sbv"
        scenario_file.write_text(
            "ring 1|1 cap 4;\n"
            "section a = dv(z1);\n"
            "map phi { zeta1 = 2*z1; zeta2 = th1; }\n",
            encoding="utf-8",
        )
        code = main(["transform", str(scenario_file), "--map", "phi", "--section", "a"])
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert "dv(z1)" in out and "2" in out

    def test_verify_pass_and_report(self, tmp_path, capsys):
        from superbv.cli import main

        scenario_file = tmp_path / "s.sbv"
        scenario_file.write_text(
            "ring 1|1 cap 4;\nseed 3;\ntrials 4;\nsuite schouten_symmetry;\n",
            encoding="utf-8",
        )
        report_file = tmp_path / "report.json"
        code = main(["verify", str(scenario_file), "--json", str(report_file)])
        assert code == 0
        report = json.loads(report_file.read_text(encoding="utf-8"))
        assert report["summary"]["failed"] == 0
        assert report["determinism_hash"] == determinism_hash(report)

    def test_verify_exit_code_on_failure(self, tmp_path, monkeypatch):
        from superbv import cli
        from superbv.suites import CheckResult

        scenario_file = tmp_path / "s.sbv"
        scenario_file.write_text("ring 1|1 cap 4;\nsuite schouten_symmetry;\n",
                                 encoding="utf-8")
        fake = [CheckResult("schouten_symmetry", "graded_symmetry", "law", 1,
                            "fail", "witness")]
        monkeypatch.setattr(cli, "run_suites", lambda *a, **k: fake)
        assert cli.main(["verify", str(scenario_file)]) == 1

    def test_parse_error_exit_code(self, tmp_path, capsys):
        from superbv.cli import main

        scenario_file = tmp_path / "bad.sbv"
        scenario_file.write_text("ring 1|1 cap 4;\nlet h = 1 +;\n", encoding="utf-8")
        assert main(["verify", str(scenario_file)]) == 2

    def test_missing_file_exit_code(self):
        from superbv.cli import main

        assert main(["verify", "/nonexistent/path.sbv"]) == 2

    def test_closed_stdout_exits_2_without_traceback(self, tmp_path, capsys):
        from superbv.cli import main

        class ClosedPipe(io.TextIOBase):
            """Standard output whose reader has gone away."""

            def __init__(self, fd):
                self.fd = fd

            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

            def fileno(self):
                return self.fd

        scenario_file = tmp_path / "s.sbv"
        scenario_file.write_text("ring 1|1 cap 4;\nlet h = 1 + z1;\n", encoding="utf-8")
        sink = tmp_path / "stdout"
        with open(sink, "wb") as target:
            with contextlib.redirect_stdout(ClosedPipe(target.fileno())):
                assert main(["eval", str(scenario_file), "--expr", "h"]) == 2
            os.write(target.fileno(), b"flushed at exit")  # now goes to the null device
        assert sink.read_bytes() == b""
        assert capsys.readouterr().err == ""

    def test_empty_suite_list_gives_empty_passing_report(self, tmp_path, capsys):
        from superbv.cli import main

        scenario_file = tmp_path / "s.sbv"
        scenario_file.write_text("ring 1|1 cap 4;\n", encoding="utf-8")
        report_file = tmp_path / "r.json"
        code = main(["verify", str(scenario_file), "--json", str(report_file)])
        assert code == 0
        report = json.loads(report_file.read_text(encoding="utf-8"))
        assert report["checks"] == []
        assert report["summary"] == {"passed": 0, "failed": 0, "errors": 0}


class TestDefaultCap:
    def test_default_without_env(self, monkeypatch):
        monkeypatch.delenv("SUPERBV_DEFAULT_CAP", raising=False)
        sc = parse("ring 1|1;\n")
        assert sc.signature.cap == 6

    @pytest.mark.parametrize("value", ["3", "abc", "-1"])
    def test_env_is_ignored(self, tmp_path, monkeypatch, value):
        # the variable is not read: a ring without cap truncates at 6 whatever it holds
        from superbv.cli import main

        monkeypatch.setenv("SUPERBV_DEFAULT_CAP", value)
        assert parse("ring 1|1;\n").signature.cap == 6
        scenario_file = tmp_path / "s.sbv"
        scenario_file.write_text("ring 1|1;\n", encoding="utf-8")
        assert main(["verify", str(scenario_file)]) == 0

    def test_explicit_cap_ignores_the_environment(self, tmp_path, monkeypatch):
        from superbv.cli import main

        monkeypatch.setenv("SUPERBV_DEFAULT_CAP", "abc")
        scenario_file = tmp_path / "s.sbv"
        scenario_file.write_text("ring 1|1 cap 3;\n", encoding="utf-8")
        assert main(["verify", str(scenario_file)]) == 0


class TestTrialCount:
    @pytest.mark.parametrize("argv", [
        ["--trials", "0"],
        ["--trials", "-3", "--suite", "covariance"],
    ])
    def test_cli_rejects_counts_below_one(self, tmp_path, argv):
        from superbv.cli import main

        scenario_file = tmp_path / "s.sbv"
        scenario_file.write_text("ring 1|1 cap 4;\nsuite covariance;\n", encoding="utf-8")
        assert main(["verify", str(scenario_file), *argv]) == 2

    def test_statement_rejects_counts_below_one(self, tmp_path, capsys):
        from superbv.cli import main

        scenario_file = tmp_path / "s.sbv"
        scenario_file.write_text("ring 1|1 cap 4;\ntrials 0;\n", encoding="utf-8")
        assert main(["verify", str(scenario_file)]) == 2
        assert "trials must be at least 1" in capsys.readouterr().err


class TestPowers:
    @pytest.mark.parametrize("expr", ["(1+th1)^100000000", "2^100000000", "(2^1000)^1000"])
    def test_huge_powers_are_rejected(self, tmp_path, capsys, expr):
        from superbv.cli import main

        scenario_file = tmp_path / "s.sbv"
        scenario_file.write_text("ring 1|1 cap 4;\n", encoding="utf-8")
        assert main(["eval", str(scenario_file), "--expr", expr]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("expr,want", [
        ("(1+th1)^1024", "1 + 1024*th1"),
        ("(1+z1)^3", "1 + 3*z1 + 3*z1^2 + z1^3"),
        ("(1+i)^5", "-(4 + 4*i)"),
        ("th1^2", "0"),
        ("(1+z1)^0", "1"),
    ])
    def test_square_and_multiply(self, tmp_path, capsys, expr, want):
        from superbv.cli import main

        scenario_file = tmp_path / "s.sbv"
        scenario_file.write_text("ring 1|1 cap 4;\n", encoding="utf-8")
        assert main(["eval", str(scenario_file), "--expr", expr]) == 0
        assert capsys.readouterr().out.strip() == want
