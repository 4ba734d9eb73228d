import sys
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, reject, settings, strategies as st

from superbv import bvcalc
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
from superbv.mvforms import MultiVectorForm, Section, pull_mvform, schouten, wedge
from superbv.samples import SampleGen
from oracles import (
    BRACKET_SIGS, CHARTS, NO_SHRINK, SIG11, SIG13, SIG21, SIG22, _packed_form, form_bidegrees,
    recursive_extend_term, reversed_keys, sections, word_extend_delta, word_extend_delta_right,
    word_sorted_extend_delta,
)


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

    @pytest.mark.parametrize("sig,key,seed", [
        (SIG13, ((0,), (1, 1, 2)), 6),
        (SIG22, ((3,), (2, 2, 3)), 7),
    ])
    def test_repeated_odd_vector_index(self, sig, key, seed):
        # J = (j, j, ...) with j odd: the bracket and table pieces of the first
        # vector peel and the inner image with j put back in front all land on
        # the key (I, J[1:]) and are summed into one coefficient there
        chart = Chart(sig)
        gen = SampleGen(seed)
        table = DeltaOperator(chart, tuple(
            gen.jet(sig, max_terms=2, max_even_degree=1, parity=chart.parity(k))
            for k in range(chart.dim)))
        coeff = gen.jet(sig, max_terms=4)
        assert coeff.parity() is None
        alpha = MultiVectorForm(chart, {key: coeff})
        got, want = extend_delta(table, alpha), word_extend_delta(table, alpha)
        assert (key[0], key[1][1:]) in got.terms
        assert got.prec == want.prec
        assert exact_terms(got) == exact_terms(want)

    @pytest.mark.parametrize("sig,key", [
        (SIG11, ((), (1, 1, 1, 1))),   # an odd index past odd_wedge_cap
        (SIG13, ((0,), (1, 1, 1, 1, 2))),
        (SIG22, ((), (3, 2))),         # unsorted tuples
        (SIG22, ((3, 0), (3, 1, 2))),
    ])
    def test_key_outside_normal_form(self, sig, key):
        # the word recursion reads such a key as its word; the image of the
        # sorted word is the same, with the keys past the cap dropped
        chart = Chart(sig)
        for seed in range(6):
            gen = SampleGen(seed)
            table = DeltaOperator.from_section(gen.trivialising_section(chart))
            alpha = MultiVectorForm(chart, {key: gen.jet(sig, max_terms=4)})
            got, want = extend_delta(table, alpha), word_extend_delta(table, alpha)
            assert got.prec == want.prec
            assert exact_terms(got) == exact_terms(want)

    @pytest.mark.parametrize("sig,key", [
        (SIG22, ((), (0, 0, 2))),
        (SIG21, ((0,), (1, 1))),
    ])
    def test_repeated_even_index(self, sig, key):
        # dv(z) * dv(z) is zero, so is its image; the word recursion sums
        # pieces that cancel through prec and may keep product terms past it
        chart = Chart(sig)
        z1 = chart.coordinate(0)
        coeffs = [chart.one() + z1] + [SampleGen(seed).jet(sig, max_terms=4) for seed in range(6)]
        table = DeltaOperator.from_section(SampleGen(3).trivialising_section(chart))
        for coeff in coeffs:
            alpha = MultiVectorForm(chart, {key: coeff})
            got, want = extend_delta(table, alpha), word_extend_delta(table, alpha)
            assert got.is_zero()
            assert got.prec == want.prec
            assert got.agrees_with(want)

    def test_builds_no_bracket_wedge_or_word(self, monkeypatch):
        # every piece of a peel is a stored term with a sign
        cases = []
        gen = SampleGen(43)
        for sig in (SIG11, SIG22, SIG13):
            chart = Chart(sig)
            table = DeltaOperator.from_section(gen.trivialising_section(chart))
            for p, q in ((1, 1), (2, 1), (3, 2)):
                alpha = gen.mvform(chart, p, q, max_terms=3, allow_repeats=True)
                cases.append((table, alpha, extend_delta(table, alpha)))

        def forbidden(*args, **kwargs):
            raise AssertionError("extend_delta built a bracket, a wedge or a word")

        monkeypatch.setattr(bvcalc, "schouten", forbidden)
        monkeypatch.setattr(bvcalc, "wedge", forbidden)
        monkeypatch.setattr(MultiVectorForm, "from_words", forbidden, raising=False)
        assert any(not image.is_zero() for *_, image in cases)
        for table, alpha, image in cases:
            assert extend_delta(table, alpha) == image


def exact_terms(form):
    """Each coefficient's terms, denominator and precision, by key."""
    return {k: (c.terms, c.den, c.prec) for k, c in form.terms.items()}


@st.composite
def stored_extension_cases(draw):
    """A table (of a sampled section, or free) on a chart with odd cap 1-3,
    and a section of the ``sections`` strategy, its keys reversed in one
    draw of two."""
    sig = draw(st.sampled_from(BRACKET_SIGS))
    chart = Chart(sig, odd_wedge_cap=draw(st.integers(min_value=1, max_value=3)))
    gen = SampleGen(draw(st.integers(min_value=0, max_value=10 ** 6)))
    if draw(st.booleans()):
        table = DeltaOperator.from_section(gen.trivialising_section(chart))
    else:
        table = DeltaOperator(chart, tuple(
            gen.jet(sig, max_terms=2, max_even_degree=1, parity=chart.parity(k))
            for k in range(chart.dim)))
    return table, reversed_keys(draw, draw(sections(chart)))


@st.composite
def extension_cases(draw):
    """A generator table (of a sampled section, or free) and a section of
    drawn bidegree whose coefficients may mix parities and sit below the cap."""
    chart = Chart(draw(st.sampled_from([SIG11, SIG21, SIG22, SIG13])))
    gen = SampleGen(draw(st.integers(min_value=0, max_value=10 ** 6)))
    if draw(st.booleans()):
        table = DeltaOperator.from_section(gen.trivialising_section(chart))
    else:
        table = DeltaOperator(chart, tuple(
            gen.jet(chart.sig, max_terms=2, max_even_degree=1, parity=chart.parity(k))
            for k in range(chart.dim)))
    p, q = draw(st.integers(min_value=0, max_value=3)), draw(st.integers(min_value=0, max_value=2))
    parity = draw(st.sampled_from([None, 0, 1]))
    for _ in range(10):  # zero draws are drawn again
        try:
            alpha = gen.mvform(chart, p, q, parity=parity, max_terms=3, allow_repeats=True)
        except RuntimeError:
            reject()  # the chart has no index multiset of that size
        if not alpha.is_zero():
            break
    prec = draw(st.integers(min_value=0, max_value=chart.sig.cap))
    alpha = MultiVectorForm(chart, {key: c.truncate(prec) for key, c in alpha.terms.items()}, prec)
    return table, alpha


class TestExtendDeltaProperties:
    @given(stored_extension_cases())
    @settings(max_examples=300, deadline=None, derandomize=True, phases=NO_SHRINK)
    def test_left_peel_matches_sorted_words(self, case):
        table, alpha = case
        assert _packed_form(extend_delta(table, alpha)) == \
            _packed_form(word_sorted_extend_delta(table, alpha))

    @given(stored_extension_cases())
    @settings(max_examples=300, deadline=None, derandomize=True, phases=NO_SHRINK)
    def test_right_peel_matches_words(self, case):
        table, alpha = case
        assert _packed_form(extend_delta_right(table, alpha)) == \
            _packed_form(word_extend_delta_right(table, alpha))

    @given(extension_cases())
    @settings(max_examples=120, deadline=None, derandomize=True, phases=NO_SHRINK)
    def test_equals_the_word_recursion(self, case):
        table, alpha = case
        got, want = extend_delta(table, alpha), word_extend_delta(table, alpha)
        assert got.prec == want.prec
        assert exact_terms(got) == exact_terms(want)

    @given(extension_cases(), st.data())
    @settings(max_examples=60, deadline=None, derandomize=True, phases=NO_SHRINK)
    def test_bracket_with_a_barred_differential_is_zero(self, case, data):
        _, alpha = case
        chart = alpha.chart
        k = data.draw(st.integers(min_value=0, max_value=chart.dim - 1))
        out = schouten(MultiVectorForm.dbar_basis(chart, k), alpha)
        assert out.is_zero() and out.prec == max(0, alpha.prec - 1)
        assert out == MultiVectorForm.zero(chart, alpha.prec - 1)


def stored_order(form):
    """The form's ``prec`` and, key by key in stored order, each
    coefficient's terms in stored order, ``den`` and ``prec``."""
    return form.prec, [(key, tuple(c.terms.items()), c.den, c.prec) for key, c in form.terms.items()]


# 0|2 and 2|0 have no even or no odd direction, 3|3 the most of both
DIVERGENCE_SHAPES = ((1, 1), (2, 1), (1, 3), (2, 2), (3, 3), (0, 2), (2, 0))


@st.composite
def divergence_cases(draw):
    """A table and a section for the divergence formula.  The table is a
    sampled section's, of a unit drawn at the cap or truncated below it, or
    free, its entries truncated at drawn precisions.  The section's keys draw
    repeated odd indices (up to ``odd_wedge_cap``) and barred ones; its
    coefficients are truncated at drawn precisions, and its keys are reversed
    in one draw of four."""
    n, m = draw(st.sampled_from(DIVERGENCE_SHAPES))
    sig = RingSignature(n, m, draw(st.integers(min_value=0, max_value=6)))
    chart = Chart(sig, odd_wedge_cap=draw(st.integers(min_value=1, max_value=3)))
    gen = SampleGen(draw(st.integers(min_value=0, max_value=10 ** 6)))
    degree = 2 if n else 0  # with no even direction only degree 0 can be drawn
    cap = sig.cap
    table = draw(st.sampled_from(("section", "truncated", "free")))
    if table == "free" or not n:  # SampleGen.unit draws even degrees up to 2
        table = DeltaOperator(chart, tuple(
            gen.jet(sig, max_terms=2, max_even_degree=min(degree, 1),
                    parity=chart.parity(k)).truncate(draw(st.integers(min_value=0, max_value=cap)))
            for k in range(chart.dim)))
    else:
        h = gen.unit(sig).truncate(cap if table == "section" else
                                   draw(st.integers(min_value=0, max_value=cap)))
        table = DeltaOperator.from_section(BerSection(chart, h))
    return table, draw(drawn_sections(chart, gen))


@st.composite
def drawn_sections(draw, chart, gen):
    """Up to three terms on drawn normal keys, reversed in one draw of four,
    with coefficients truncated at drawn precisions, at a drawn ``prec``."""
    sig, degree = chart.sig, 2 if chart.sig.n else 0
    terms = {}
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        try:
            key = (gen.index_multiset(chart, draw(st.integers(min_value=0, max_value=2)), True),
                   gen.index_multiset(chart, draw(st.integers(min_value=0, max_value=4)), True))
        except RuntimeError:
            continue  # the chart has no index multiset of that size
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            key = (key[0][::-1], key[1][::-1])
        coeff = gen.jet(sig, max_terms=4, max_even_degree=degree)
        terms[key] = coeff.truncate(draw(st.integers(min_value=0, max_value=sig.cap)))
    prec = draw(st.integers(min_value=0, max_value=sig.cap))
    return MultiVectorForm(chart, terms, prec)


class TestDivergenceFormula:
    """``_extend_term`` in closed form against the peel recursion."""

    @given(divergence_cases())
    @settings(max_examples=500, deadline=None, derandomize=True, phases=NO_SHRINK)
    def test_matches_the_recursion(self, case):
        table, alpha = case
        got = extend_delta(table, alpha)
        with mock.patch.object(bvcalc, "_extend_term", recursive_extend_term):
            want = extend_delta(table, alpha)
        assert stored_order(got) == stored_order(want)


def test_clean_sections_are_what_the_constructor_builds(monkeypatch):
    # every call of Section._clean is checked against the constructor
    original = Section._clean.__func__
    callers = Counter()

    def clean(cls, chart, terms, prec):
        callers[sys._getframe(1).f_code.co_name] += 1
        built = cls(chart, dict(terms), prec)
        assert list(built.terms.items()) == list(terms.items())
        assert built.prec == prec
        return original(cls, chart, terms, prec)

    monkeypatch.setattr(Section, "_clean", classmethod(clean))

    @given(divergence_cases(), st.data())
    @settings(max_examples=150, deadline=None, derandomize=True, phases=NO_SHRINK)
    def check(case, data):
        table, alpha = case
        chart = alpha.chart
        gen = SampleGen(data.draw(st.integers(min_value=0, max_value=10 ** 6)))
        beta = data.draw(drawn_sections(chart, gen))
        for form in (alpha, beta, wedge(alpha, beta), schouten(beta, alpha),
                     extend_delta(table, alpha)):
            assert (form - form).is_zero() and (-form + form).is_zero()
        if chart.sig.n:  # SampleGen.mvform draws coefficients of even degree up to 2
            gen.mvform(chart, gen._below(3), gen._below(3), max_terms=3, allow_repeats=True)

    check()
    assert set(callers) == {"__add__", "__neg__", "wedge", "schouten", "extend_delta",
                            "_extend_term", "mvform"}


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

    def test_each_shared_image_is_computed_once(self):
        # per sample: D(alpha), D(beta), D(alpha ^ beta), D(alpha ^ beta ^ gamma),
        # D(beta ^ gamma), D(alpha ^ gamma), D(gamma), D(D(alpha)),
        # D(dbar(alpha)) and D([[alpha, beta]])
        gen = SampleGen(61)
        chart = Chart(SIG21)
        delta = DeltaOperator.from_section(gen.trivialising_section(chart))
        samples = self._samples(gen, chart, 4)
        seen = []

        def counted(x):
            seen.append(x)
            return extend_delta(delta, x)

        report = check_bv_axioms(chart, counted, samples)
        assert all(item["status"] == "pass" for item in report)
        assert len(seen) == 10 * len(samples)
        for sample in samples:
            assert sum(x is sample["alpha"] for x in seen) == 1
            assert sum(x is sample["beta"] for x in seen) == 1

    def test_no_work_for_failed_checks(self):
        # a table that is not holomorphic fails only dbar_anticommute; from the
        # next sample on, D(dbar(alpha)) is no longer computed
        gen = SampleGen(53)
        chart = Chart(SIG11)
        zb = JetSuperFunction.gen(chart.sig, chart.sig.zb(0))
        broken = DeltaOperator(chart, (zb, chart.zero()))
        samples = self._samples(gen, chart, 6)
        calls = []

        def counted(x):
            calls.append(x)
            return extend_delta(broken, x)

        report = check_bv_axioms(chart, counted, samples)
        assert [item["status"] for item in report] == ["pass", "pass", "pass", "fail", "pass"]
        failed_at = report[3]["sample_seed"]
        assert failed_at < len(samples) - 1
        assert len(calls) == 10 * len(samples) - (len(samples) - 1 - failed_at)

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
            if form_bidegrees(x) == {(1, 0)}:
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
        assert (0, 2) in form_bidegrees(perturbed(probe))

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
