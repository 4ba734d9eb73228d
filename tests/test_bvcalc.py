import pytest

from superbv.bvcalc import (
    DeltaOperator,
    IntegralForm,
    SymTensorForm,
    bv_bracket,
    check_bv_axioms,
    dbar_int,
    delta_omega,
    eta,
    eta_inverse,
    extend_delta,
    extend_delta_right,
    manin_delta,
    manin_gamma,
    manin_gamma_inverse,
    partial_int,
    project_strong,
    projected_apply,
    pull_intform,
    pull_delta_table,
)
from superbv.charts import BerSection, Chart, ChartError, pull_ber
from superbv.jetring import GaussianRational, JetSuperFunction, RingSignature
from superbv.mvforms import MultiVectorForm, pull_mvform, schouten, wedge
from superbv.samples import SampleGen

SIG11 = RingSignature(n=1, m=1, cap=4)
SIG21 = RingSignature(n=2, m=1, cap=4)
SIG22 = RingSignature(n=2, m=2, cap=4)
CHARTS = [Chart(SIG11), Chart(SIG21), Chart(SIG22)]


def unit_section(chart):
    return BerSection(chart, chart.one())


@pytest.mark.parametrize("cls", [MultiVectorForm, IntegralForm, SymTensorForm])
class TestSection:
    def test_mixed_charts_rejected(self, cls):
        # distinct keys, so no coefficients of different rings meet
        left = cls(Chart(SIG11), {((), (0,)): Chart(SIG11).one()})
        right = cls(Chart(SIG21), {((), (1,)): Chart(SIG21).one()})
        with pytest.raises(ChartError):
            left + right
        with pytest.raises(ChartError):
            left - right
        with pytest.raises(ChartError):
            left.agrees_with(right)

    def test_operations_keep_the_class(self, cls):
        chart = Chart(SIG11)
        a = cls(chart, {((), (0,)): chart.one(), ((0,), ()): chart.coordinate(0)})
        for out in (a + a, a - a, -a, a.scale(GaussianRational.of(2)), cls.zero(chart)):
            assert type(out) is cls
        assert (a - a).is_zero() and a.agrees_with(a) and a == cls(chart, dict(a.terms))


def test_section_classes_compare_by_exact_type():
    chart = Chart(SIG11)
    terms = {((), (0,)): chart.one()}
    mv, sigma = MultiVectorForm(chart, terms), IntegralForm(chart, terms)
    assert mv.terms == sigma.terms
    assert mv != sigma and sigma != mv
    assert mv.render() != sigma.render()


class TestEta:
    def test_plain(self):
        chart = Chart(SIG11)
        alpha = MultiVectorForm.vector(chart, 0)
        sigma = eta(unit_section(chart), alpha)
        assert sigma.terms[((), (0,))].agrees_with(chart.one())

    def test_scaled(self):
        chart = Chart(SIG11)
        h = chart.one() + chart.coordinate(0)
        sigma = eta(BerSection(chart, h), MultiVectorForm.vector(chart, 0))
        assert sigma.terms[((), (0,))].agrees_with(h)

    def test_round_trip(self):
        gen = SampleGen(3)
        for chart in CHARTS:
            omega = gen.trivialising_section(chart)
            alpha, *_ = gen.homogeneous_mvform(chart)
            assert eta_inverse(omega, eta(omega, alpha)).agrees_with(alpha)

    def test_rejects_non_unit(self):
        chart = Chart(SIG11)
        bad = BerSection(chart, chart.coordinate(0))
        with pytest.raises(ChartError):
            eta(bad, MultiVectorForm.vector(chart, 0))


class TestPartialInt:
    def test_single_term(self):
        chart = Chart(SIG11)
        z = chart.coordinate(0)
        sigma = IntegralForm(chart, {((), (0,)): z * z})
        out = partial_int(sigma)
        assert set(out.terms) == {((), ())}
        assert out.terms[((), ())].agrees_with(z + z)

    def test_vanishes_without_multivector(self):
        chart = Chart(SIG11)
        gen = SampleGen(5)
        sigma = IntegralForm(chart, {((), ()): gen.jet(chart.sig)})
        assert partial_int(sigma).is_zero()

    def test_square_zero(self):
        gen = SampleGen(7)
        for chart in CHARTS:
            for _ in range(8):
                alpha, *_ = gen.homogeneous_mvform(chart)
                sigma = eta(gen.trivialising_section(chart), alpha)
                assert partial_int(partial_int(sigma)).is_zero()

    def test_anticommutes_with_dbar(self):
        gen = SampleGen(11)
        for chart in CHARTS:
            for _ in range(8):
                alpha, *_ = gen.homogeneous_mvform(chart)
                sigma = eta(gen.trivialising_section(chart), alpha)
                anti = partial_int(dbar_int(sigma)) + dbar_int(partial_int(sigma))
                assert anti.is_zero()

    def test_negative_control_break_form_sign(self):
        # dropping the (-1)^q prefactor must break the anticommutation somewhere
        gen = SampleGen(13)
        chart = Chart(SIG11)
        broken = 0
        for _ in range(20):
            alpha, *_ = gen.homogeneous_mvform(chart)
            sigma = eta(gen.trivialising_section(chart), alpha)
            anti = partial_int(dbar_int(sigma), drop_form_sign=True) \
                + dbar_int(partial_int(sigma, drop_form_sign=True))
            if not anti.is_zero():
                broken += 1
        assert broken > 0

    def test_covariance(self):
        # pullback of the divergence equals the divergence of the pullback
        gen = SampleGen(17)
        for chart in CHARTS[:2]:
            for _ in range(4):
                phi = gen.invertible_morphism(chart)
                alpha, *_ = gen.homogeneous_mvform(phi.target, max_p=2, max_q=1)
                sigma = eta(unit_section(phi.target), alpha)
                lhs = pull_intform(phi, partial_int(sigma))
                rhs = partial_int(pull_intform(phi, sigma))
                assert lhs.agrees_with(rhs)


class TestDeltaOmega:
    def test_vanishes_on_functions(self):
        gen = SampleGen(19)
        for chart in CHARTS:
            omega = gen.trivialising_section(chart)
            f = MultiVectorForm.from_function(chart, gen.jet(chart.sig))
            assert delta_omega(omega, f).is_zero()

    def test_vanishes_on_dbar_forms(self):
        chart = Chart(SIG11)
        gen = SampleGen(23)
        omega = gen.trivialising_section(chart)
        lam = gen.mvform(chart, 0, 1)
        assert delta_omega(omega, lam).is_zero()

    def test_trivial_section_table(self):
        chart = Chart(SIG11)
        omega = unit_section(chart)
        for k in range(chart.dim):
            assert delta_omega(omega, MultiVectorForm.vector(chart, k)).is_zero()

    def test_local_formula_geometric_series(self):
        sig = RingSignature(n=1, m=0, cap=3)
        chart = Chart(sig)
        z = chart.coordinate(0)
        omega = BerSection(chart, chart.one() + z)
        out = delta_omega(omega, MultiVectorForm.vector(chart, 0))
        expected = (chart.one() + z).invert()
        assert out.terms[((), ())].agrees_with(expected)

    def test_table_matches_local_formula(self):
        gen = SampleGen(29)
        for chart in CHARTS:
            omega = gen.trivialising_section(chart)
            table = DeltaOperator.from_section(omega)
            for k in range(chart.dim):
                direct = delta_omega(omega, MultiVectorForm.vector(chart, k))
                expected = table.values[k]
                got = direct.terms.get(((), ()), chart.zero())
                assert got.agrees_with(expected)


class TestExtendDelta:
    def test_zero_on_functions_and_forms(self):
        chart = Chart(SIG11)
        gen = SampleGen(31)
        table = DeltaOperator.from_section(gen.trivialising_section(chart))
        assert extend_delta(table, MultiVectorForm.from_function(chart, gen.jet(chart.sig))).is_zero()
        assert extend_delta(table, MultiVectorForm.dbar_basis(chart, 0)).is_zero()

    def test_agrees_with_composite_path(self):
        # the bracket recursion against eta^-1 o partial o eta, two code paths
        gen = SampleGen(37)
        for chart in CHARTS:
            for _ in range(6):
                omega = gen.trivialising_section(chart)
                table = DeltaOperator.from_section(omega)
                alpha, *_ = gen.homogeneous_mvform(chart)
                assert extend_delta(table, alpha).agrees_with(delta_omega(omega, alpha))

    def test_peeling_order_independent(self):
        gen = SampleGen(41)
        for chart in CHARTS:
            for _ in range(6):
                table = DeltaOperator.from_section(gen.trivialising_section(chart))
                alpha, *_ = gen.homogeneous_mvform(chart)
                assert extend_delta(table, alpha).agrees_with(extend_delta_right(table, alpha))


class TestTianTodorov:
    def test_identity(self):
        # -[[a,b]] = (-1)^deg(a) D(a^b) - (-1)^deg(a) D(a)^b - a^D(b)
        gen = SampleGen(43)
        for chart in CHARTS:
            for _ in range(8):
                omega = gen.trivialising_section(chart)
                delta = DeltaOperator.from_section(omega)
                alpha, p, q, _ = gen.homogeneous_mvform(chart)
                beta, *_ = gen.homogeneous_mvform(chart)
                lhs = -schouten(alpha, beta)
                rhs = bv_bracket(lambda x: extend_delta(delta, x), alpha, beta, p + q)
                assert lhs.agrees_with(rhs)


class TestAxiomChecker:
    def _samples(self, gen, chart, count):
        out = []
        for idx in range(count):
            alpha, p, q, pa = gen.homogeneous_mvform(chart, max_p=2, max_q=1)
            beta, r, s, pb = gen.homogeneous_mvform(chart, max_p=1, max_q=1)
            gamma, *_ = gen.homogeneous_mvform(chart, max_p=1, max_q=1)
            out.append({
                "alpha": alpha, "beta": beta, "gamma": gamma,
                "alpha_deg": p + q, "alpha_parity": pa,
                "beta_deg": r + s, "beta_parity": pb,
                "seed": idx,
            })
        return out

    def test_all_pass_for_bv_operator(self):
        gen = SampleGen(47)
        for chart in CHARTS[:2]:
            omega = gen.trivialising_section(chart)
            delta = DeltaOperator.from_section(omega)
            report = check_bv_axioms(chart, lambda x: extend_delta(delta, x),
                                     self._samples(gen, chart, 6))
            assert all(item["status"] == "pass" for item in report)

    def test_reports_broken_table(self):
        chart = Chart(SIG11)
        gen = SampleGen(53)
        zb = JetSuperFunction.gen(chart.sig, chart.sig.zb(0))
        broken = DeltaOperator(chart, (zb, chart.zero()))
        report = check_bv_axioms(chart, lambda x: extend_delta(broken, x),
                                 self._samples(gen, chart, 6))
        failures = {item["check"] for item in report if item["status"] == "fail"}
        assert "dbar_anticommute" in failures
        failed = [item for item in report if item["status"] == "fail"]
        assert all("counterexample" in item for item in failed)

    def test_gbv_compat_times_each_check(self):
        from superbv.suites import suite_gbv_compat

        results = suite_gbv_compat(Chart(SIG11), seed=3, trials=4)
        axioms = results[:5]
        assert [r.check for r in axioms] == ["bv_derivation", "bracket_compatibility",
                                             "delta_squared", "dbar_anticommute",
                                             "gbv_bracket_identity"]
        assert all(r.status == "pass" and r.elapsed_ms > 0 for r in axioms)
        # five separately timed blocks, not one time split evenly
        assert len({r.elapsed_ms for r in axioms}) > 1


class TestProjection:
    def test_projection_of_strong_operator_is_identity(self):
        gen = SampleGen(59)
        chart = Chart(SIG11)
        omega = gen.trivialising_section(chart)
        delta = DeltaOperator.from_section(omega)
        result = project_strong(lambda x: extend_delta(delta, x), chart)
        for got, want in zip(result.delta.values, delta.values):
            assert got.agrees_with(want)
        assert not result.generator_residuals

    def test_projection_kills_perturbation(self):
        # perturb the operator by a graded piece landing off the (p-1, q) target
        gen = SampleGen(61)
        chart = Chart(SIG11)
        omega = gen.trivialising_section(chart)
        delta = DeltaOperator.from_section(omega)
        noise = gen.mvform(chart, 1, 1)

        def perturbed(x):
            out = extend_delta(delta, x)
            if x.bidegrees() == {(1, 0)}:
                out = out + noise
            return out

        result = project_strong(perturbed, chart)
        for got, want in zip(result.delta.values, delta.values):
            assert got.agrees_with(want)
        assert result.generator_residuals

    def test_projected_compatible_operator_is_gbv(self):
        # Delta' = Delta + [[alpha0, .]] with alpha0 a (0,2) dbar-closed section is a
        # compatible dGBV that is not strongly compatible; its projection is.
        gen = SampleGen(67)
        chart = Chart(SIG22)
        omega = gen.trivialising_section(chart)
        delta = DeltaOperator.from_section(omega)
        # dbar-closed (0,2) section with a nonconstant holomorphic coefficient
        alpha0 = MultiVectorForm(chart, {((0, 2), ()): chart.coordinate(0)})

        def perturbed(x):
            return extend_delta(delta, x) + schouten(alpha0, x)

        # the perturbation moves (p, q) to (p-1, q+2), so it is invisible on the
        # generator table but breaks strong compatibility on vectors
        probe = MultiVectorForm.vector(chart, 0)
        assert (0, 2) in perturbed(probe).bidegrees()

        projected = project_strong(perturbed, chart)
        for got, want in zip(projected.delta.values, delta.values):
            assert got.agrees_with(want)

        for _ in range(6):
            x, *_ = gen.homogeneous_mvform(chart, max_p=2, max_q=1)
            via_table = extend_delta(projected.delta, x)
            assert extend_delta(projected.delta, via_table).is_zero()
            direct = projected_apply(perturbed, x)
            assert via_table.agrees_with(direct)


class TestManin:
    def test_gamma_on_functions(self):
        chart = Chart(SIG11)
        gen = SampleGen(71)
        sigma = IntegralForm(chart, {((), ()): gen.jet(chart.sig)})
        tau = manin_gamma(sigma)
        assert tau.terms[((), ())].agrees_with(sigma.terms[((), ())])

    def test_gamma_single_even_vector(self):
        chart = Chart(SIG11)
        sigma = IntegralForm(chart, {((), (0,)): chart.one()})
        tau = manin_gamma(sigma)
        sign = -1 if chart.sig.m % 2 else 1
        expected = chart.one() if sign > 0 else -chart.one()
        assert tau.terms[((), (0,))].agrees_with(expected)

    def test_round_trip(self):
        gen = SampleGen(73)
        for chart in CHARTS:
            for _ in range(8):
                alpha, *_ = gen.homogeneous_mvform(chart)
                sigma = eta(gen.trivialising_section(chart), alpha)
                assert manin_gamma_inverse(manin_gamma(sigma)).agrees_with(sigma)

    def test_anticommutation_with_gamma(self):
        # delta o Gamma = -Gamma o partial
        gen = SampleGen(79)
        for chart in CHARTS:
            for _ in range(8):
                alpha, *_ = gen.homogeneous_mvform(chart)
                sigma = eta(gen.trivialising_section(chart), alpha)
                lhs = manin_delta(manin_gamma(sigma))
                rhs = -manin_gamma(partial_int(sigma))
                assert lhs.agrees_with(rhs)

    def test_pushed_example(self):
        chart = Chart(SIG11)
        z = chart.coordinate(0)
        sigma = IntegralForm(chart, {((), (0,)): z * z})
        lhs = manin_delta(manin_gamma(sigma))
        rhs = -manin_gamma(partial_int(sigma))
        assert lhs.agrees_with(rhs)
        assert not lhs.is_zero()

    def test_delta_squared_zero(self):
        gen = SampleGen(83)
        for chart in CHARTS:
            for _ in range(6):
                alpha, *_ = gen.homogeneous_mvform(chart)
                tau = manin_gamma(eta(gen.trivialising_section(chart), alpha))
                assert manin_delta(manin_delta(tau)).is_zero()


class TestCovariance:
    def test_delta_omega_covariance(self):
        # pull(Delta^omega(alpha)) = Delta^(pull omega)(pull alpha)
        gen = SampleGen(89)
        for chart in CHARTS[:2]:
            for _ in range(4):
                phi = gen.invertible_morphism(chart)
                omega = gen.trivialising_section(phi.target)
                alpha, *_ = gen.homogeneous_mvform(phi.target, max_p=2, max_q=1)
                lhs = pull_mvform(phi, delta_omega(omega, alpha))
                rhs = delta_omega(pull_ber(phi, omega), pull_mvform(phi, alpha))
                assert lhs.agrees_with(rhs)

    def test_pull_delta_table(self):
        gen = SampleGen(97)
        chart = Chart(SIG11)
        phi = gen.invertible_morphism(chart)
        omega = gen.trivialising_section(phi.target)
        table = pull_delta_table(phi, omega)
        direct = DeltaOperator.from_section(pull_ber(phi, omega))
        for a, b in zip(table.values, direct.values):
            assert a.agrees_with(b)
