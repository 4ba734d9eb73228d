import pytest
from hypothesis import given, settings, strategies as st

from superbv.charts import Chart, ChartError, Morphism
from superbv import mvforms
from superbv.jetring import GaussianRational, JetError, JetSuperFunction, RingSignature
from superbv.mvforms import MultiVectorForm, dbar, pull_mvform, schouten, wedge
from superbv.samples import SampleGen
from oracles import (
    BRACKET_SIGS, CHARTS, DBAR, FUN, NO_SHRINK, SIG11, SIG13, SIG21, SIG22, VEC, _packed_form,
    form_bidegrees, identity_morphism, insertion_sort_word, normalise_word, reversed_keys, sections, word_dbar,
    word_functions, word_pull_mvform, word_schouten, word_wedge, same_section,
)


def first_nonzero(draw, tries=50):
    """The first nonzero form that ``draw()`` returns; a sampled form can be
    zero, since a coefficient may get no term.  Fails if all ``tries`` are."""
    for _ in range(tries):
        out = draw()
        if not out.is_zero():
            return out
    pytest.fail(f"all {tries} draws gave the zero form")


def fn(chart, f):
    return MultiVectorForm.from_function(chart, f)


class TestNormalForm:
    def test_wedge_of_function_is_product(self):
        chart = Chart(SIG11)
        gen = SampleGen(1)
        f = gen.jet(chart.sig)
        beta = gen.mvform(chart, 1, 1)
        assert wedge(fn(chart, f), beta).agrees_with(
            MultiVectorForm(chart, {k: f * c for k, c in beta.terms.items()})
        )

    def test_vector_wedge_dbar_sign(self):
        # (1 (x) d/dz) ^ (dzb (x) 1) = - dzb (x) d/dz
        chart = Chart(SIG11)
        v = MultiVectorForm.vector(chart, 0)
        w = MultiVectorForm.dbar_basis(chart, 0)
        result = wedge(v, w)
        assert result.agrees_with(-MultiVectorForm(chart, {((0,), (0,)): chart.one()}))

    def test_even_repetition_vanishes(self):
        chart = Chart(SIG11)
        w = MultiVectorForm.dbar_basis(chart, 0)
        assert wedge(w, w).is_zero()
        v = MultiVectorForm.vector(chart, 0)
        assert wedge(v, v).is_zero()

    def test_odd_square_survives(self):
        chart = Chart(SIG11)
        v = MultiVectorForm.vector(chart, 1)
        sq = wedge(v, v)
        assert sq.agrees_with(MultiVectorForm(chart, {((), (1, 1)): chart.one()}))
        w = MultiVectorForm.dbar_basis(chart, 1)
        assert not wedge(w, w).is_zero()

    def test_odd_multiplicity_cap(self):
        chart = Chart(SIG11, odd_wedge_cap=2)
        v = MultiVectorForm.vector(chart, 1)
        assert wedge(wedge(v, v), v).is_zero()


class TestWedgeLaws:
    def test_supercommutative(self):
        gen = SampleGen(57)
        for chart in CHARTS:
            for _ in range(6):
                alpha, p, q, pa = gen.homogeneous_mvform(chart)
                beta, r, s, pb = gen.homogeneous_mvform(chart)
                sign = -1 if ((p + q) * (r + s) + pa * pb) % 2 else 1
                rhs = wedge(beta, alpha)
                if sign < 0:
                    rhs = -rhs
                assert wedge(alpha, beta).agrees_with(rhs)

    def test_associative(self):
        gen = SampleGen(61)
        for chart in CHARTS:
            for _ in range(4):
                a, *_ = gen.homogeneous_mvform(chart, max_p=1, max_q=1)
                b, *_ = gen.homogeneous_mvform(chart, max_p=1, max_q=1)
                c, *_ = gen.homogeneous_mvform(chart, max_p=1, max_q=1)
                assert wedge(wedge(a, b), c).agrees_with(wedge(a, wedge(b, c)))


class TestDbar:
    def test_on_function(self):
        chart = Chart(SIG11)
        zb = JetSuperFunction.gen(chart.sig, chart.sig.zb(0))
        alpha = fn(chart, zb * zb)
        expected = MultiVectorForm(chart, {((0,), ()): zb + zb})
        assert dbar(alpha).agrees_with(expected)

    def test_kills_holomorphic(self):
        chart = Chart(SIG21)
        gen = SampleGen(3)
        alpha = gen.mvform(chart, 2, 0, holomorphic_coeff=True)
        assert dbar(alpha).is_zero()

    def test_square_zero(self):
        gen = SampleGen(67)
        for chart in CHARTS:
            for _ in range(6):
                alpha, *_ = gen.homogeneous_mvform(chart)
                assert dbar(dbar(alpha)).is_zero()

    def test_degree_and_parity(self):
        chart = Chart(SIG22)
        gen = SampleGen(71)
        out = first_nonzero(lambda: dbar(gen.mvform(chart, 1, 1, parity=0)))
        assert form_bidegrees(out) == {(1, 2)}
        assert out.parity() == 0

    def test_deg_odd_derivation(self):
        gen = SampleGen(73)
        for chart in CHARTS:
            for _ in range(5):
                alpha, p, q, _ = gen.homogeneous_mvform(chart, max_p=1, max_q=1)
                beta, *_ = gen.homogeneous_mvform(chart, max_p=1, max_q=1)
                lhs = dbar(wedge(alpha, beta))
                second = wedge(alpha, dbar(beta))
                if (p + q) % 2:
                    second = -second
                assert lhs.agrees_with(wedge(dbar(alpha), beta) + second)


class TestSchoutenExamples:
    def test_vector_on_function(self):
        chart = Chart(SIG11)
        z = chart.coordinate(0)
        dz = MultiVectorForm.vector(chart, 0)
        assert schouten(dz, fn(chart, z)).agrees_with(fn(chart, chart.one()))
        assert schouten(fn(chart, z), dz).agrees_with(-fn(chart, chart.one()))

    def test_odd_vector_on_odd_coordinate(self):
        chart = Chart(SIG11)
        th = chart.coordinate(1)
        dth = MultiVectorForm.vector(chart, 1)
        assert schouten(dth, fn(chart, th)).agrees_with(fn(chart, chart.one()))

    def test_constant_multivectors_commute(self):
        chart = Chart(SIG22)
        a = wedge(MultiVectorForm.vector(chart, 0), MultiVectorForm.vector(chart, 1))
        b = wedge(MultiVectorForm.vector(chart, 0), MultiVectorForm.vector(chart, 2))
        assert schouten(a, b).is_zero()

    def test_function_function_zero(self):
        chart = Chart(SIG11)
        gen = SampleGen(5)
        assert schouten(fn(chart, gen.jet(chart.sig)), fn(chart, gen.jet(chart.sig))).is_zero()

    def test_bidegree_map(self):
        chart = Chart(SIG22)
        gen = SampleGen(7)
        out = first_nonzero(lambda: schouten(gen.mvform(chart, 2, 1, parity=0),
                                             gen.mvform(chart, 1, 1, parity=1)))
        assert form_bidegrees(out) == {(2, 2)}

    def test_chart_mismatch(self):
        with pytest.raises(ChartError):
            schouten(fn(Chart(SIG11), Chart(SIG11).one()), fn(Chart(SIG21), Chart(SIG21).one()))


class TestSchoutenLaws:
    def test_extends_vector_bracket(self):
        # for p = p' = 1, q = q' = 0 the bracket applied to a test function is
        # v(w(f)) - (-1)^(|v||w|) w(v(f))
        from superbv.charts import vector_apply

        gen = SampleGen(79)
        for chart in CHARTS:
            for _ in range(6):
                v = gen.mvform(chart, 1, 0, parity=gen.rng.randint(0, 1))
                w = gen.mvform(chart, 1, 0, parity=gen.rng.randint(0, 1))
                pv, pw = v.parity(), w.parity()
                if v.is_zero() or w.is_zero():
                    continue
                f = gen.jet(chart.sig)
                bracket = schouten(v, w)
                col_v = [v.terms.get(((), (k,)), chart.zero()) for k in range(chart.dim)]
                col_w = [w.terms.get(((), (k,)), chart.zero()) for k in range(chart.dim)]
                col_b = [bracket.terms.get(((), (k,)), chart.zero()) for k in range(chart.dim)]
                lhs = vector_apply(chart, col_b, f)
                second = vector_apply(chart, col_w, vector_apply(chart, col_v, f))
                if pv * pw % 2:
                    second = -second
                rhs = vector_apply(chart, col_v, vector_apply(chart, col_w, f)) - second
                assert lhs.agrees_with(rhs)

    def test_symmetry(self):
        # [[a, b]] = -(-1)^((deg a + 1)(deg b + 1) + |a||b|) [[b, a]]
        gen = SampleGen(83)
        for chart in CHARTS:
            for _ in range(8):
                alpha, p, q, pa = gen.homogeneous_mvform(chart)
                beta, r, s, pb = gen.homogeneous_mvform(chart)
                da, db = p + q, r + s
                rhs = schouten(beta, alpha)
                if ((da + 1) * (db + 1) + pa * pb) % 2 == 0:
                    rhs = -rhs
                assert schouten(alpha, beta).agrees_with(rhs)

    def test_derivation(self):
        gen = SampleGen(89)
        for chart in CHARTS:
            for _ in range(6):
                alpha, p, q, pa = gen.homogeneous_mvform(chart, max_p=2, max_q=1)
                beta, r, s, pb = gen.homogeneous_mvform(chart, max_p=1, max_q=1)
                gamma, *_ = gen.homogeneous_mvform(chart, max_p=1, max_q=1)
                da, db = p + q, r + s
                lhs = schouten(alpha, wedge(beta, gamma))
                second = wedge(beta, schouten(alpha, gamma))
                if ((da + 1) * db + pa * pb) % 2:
                    second = -second
                rhs = wedge(schouten(alpha, beta), gamma) + second
                assert lhs.agrees_with(rhs)


class TestPullback:
    def test_identity(self):
        chart = Chart(SIG21)
        gen = SampleGen(11)
        alpha, *_ = gen.homogeneous_mvform(chart)
        assert pull_mvform(identity_morphism(chart), alpha).agrees_with(alpha)

    def test_rejects_nonholomorphic(self):
        from superbv.charts import Morphism

        chart = Chart(SIG11)
        zb = JetSuperFunction.gen(chart.sig, chart.sig.zb(0))
        phi = Morphism(chart, Chart(SIG11, name="zeta"),
                       [chart.coordinate(0) + zb * zb, chart.coordinate(1)])
        with pytest.raises(ChartError):
            pull_mvform(phi, MultiVectorForm.vector(chart, 0))

    def test_pull_of_dbar_of_function(self):
        # phi*(dbar f) = dbar(phi# f): pins the barred-differential convention
        gen = SampleGen(13)
        for chart in CHARTS:
            for _ in range(4):
                phi = gen.invertible_morphism(chart)
                f = gen.jet(phi.target.sig)
                lhs = pull_mvform(phi, dbar(fn(phi.target, f)))
                rhs = dbar(fn(chart, phi.apply(f)))
                assert lhs.agrees_with(rhs)

    def test_dbar_commutes_with_pullback(self):
        gen = SampleGen(17)
        for chart in CHARTS:
            for _ in range(3):
                phi = gen.invertible_morphism(chart)
                alpha, *_ = gen.homogeneous_mvform(phi.target, max_p=1, max_q=1)
                assert pull_mvform(phi, dbar(alpha)).agrees_with(dbar(pull_mvform(phi, alpha)))

    def test_functorial(self):
        gen = SampleGen(19)
        chart = Chart(SIG11)
        phi = gen.invertible_morphism(chart)
        psi = gen.invertible_morphism(phi.target)
        alpha, *_ = gen.homogeneous_mvform(psi.target, max_p=1, max_q=1)
        assert pull_mvform(psi.compose(phi), alpha).agrees_with(
            pull_mvform(phi, pull_mvform(psi, alpha)))

    def test_wedge_equivariance(self):
        gen = SampleGen(23)
        for chart in CHARTS:
            phi = gen.invertible_morphism(chart)
            a, *_ = gen.homogeneous_mvform(phi.target, max_p=1, max_q=1)
            b, *_ = gen.homogeneous_mvform(phi.target, max_p=1, max_q=1)
            assert pull_mvform(phi, wedge(a, b)).agrees_with(
                wedge(pull_mvform(phi, a), pull_mvform(phi, b)))

    def test_schouten_equivariance(self):
        gen = SampleGen(29)
        for chart in CHARTS:
            for _ in range(3):
                phi = gen.invertible_morphism(chart)
                a, *_ = gen.homogeneous_mvform(phi.target, max_p=2, max_q=1)
                b, *_ = gen.homogeneous_mvform(phi.target, max_p=1, max_q=1)
                assert pull_mvform(phi, schouten(a, b)).agrees_with(
                    schouten(pull_mvform(phi, a), pull_mvform(phi, b)))


# -- the formal-word normaliser against its insertion-sort form -----------------

WORD_SIGS = [RingSignature(1, 1, 3), RingSignature(2, 1, 2), RingSignature(2, 2, 4),
             RingSignature(1, 3, 2)]


@st.composite
def words(draw):
    sig = draw(st.sampled_from(WORD_SIGS))
    chart = Chart(sig, odd_wedge_cap=draw(st.integers(min_value=0, max_value=3)))
    items = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        kind = draw(st.sampled_from((DBAR, VEC, FUN)))
        if kind == FUN:
            items.append((FUN, draw(word_functions(sig))))
        else:
            items.append((kind, draw(st.integers(min_value=0, max_value=chart.dim - 1))))
    return chart, items, draw(st.sampled_from((1, -1)))


def _packed_terms(out):
    return {key: (c.terms, c.den, c.prec) for key, c in out.items()}


class TestNormaliseWord:
    @given(words())
    @settings(max_examples=400, deadline=None, derandomize=True, phases=NO_SHRINK)
    def test_matches_insertion_sort(self, case):
        chart, items, prefactor = case
        assert _packed_terms(normalise_word(chart, items, prefactor)) == \
            _packed_terms(insertion_sort_word(chart, items, prefactor))


# -- the stored-term operations against their word versions -------------------------


@st.composite
def section_pairs(draw):
    sig = draw(st.sampled_from(BRACKET_SIGS))
    chart = Chart(sig, odd_wedge_cap=draw(st.integers(min_value=1, max_value=3)))
    return draw(sections(chart)), draw(sections(chart))


@st.composite
def single_sections(draw):
    sig = draw(st.sampled_from(BRACKET_SIGS))
    chart = Chart(sig, odd_wedge_cap=draw(st.integers(min_value=1, max_value=3)))
    return reversed_keys(draw, draw(sections(chart)))


@st.composite
def pullback_cases(draw):
    """A sampled holomorphic map: as drawn, inverted (which takes the chain
    rule for its inverse differential), with its images truncated at drawn
    precisions, linear and truncated (so that columns are sparse and words
    that repeat an index drop, at entry precisions below the section's), or
    truncated with one image zero (a zero column, and no inverse); and a
    section on its target."""
    sig = draw(st.sampled_from(BRACKET_SIGS))
    chart = Chart(sig, odd_wedge_cap=draw(st.integers(min_value=1, max_value=3)))
    shape = draw(st.sampled_from(("drawn", "inverted", "truncated", "linear", "flat")))
    phi = SampleGen(draw(st.integers(min_value=0, max_value=10 ** 6))).invertible_morphism(
        chart, nonlinear=shape != "linear")
    if shape == "inverted":
        phi = phi.invert()
    elif shape != "drawn":
        images = [x.truncate(draw(st.integers(min_value=1, max_value=sig.cap))) for x in phi.pullbacks]
        if shape == "flat":
            images[draw(st.integers(min_value=0, max_value=chart.dim - 1))] = JetSuperFunction.zero(sig)
        phi = Morphism(phi.source, phi.target, images)
    a = draw(sections(phi.target))
    if draw(st.booleans()):  # trusted as far as its coefficients are
        a = MultiVectorForm(a.chart, a.terms)
    return phi, reversed_keys(draw, a)


def _outcome(thunk):
    """The packed section ``thunk`` returns, or the type and text of its error."""
    try:
        return _packed_form(thunk())
    except JetError as error:
        return type(error).__name__, str(error)


class TestWordFreeOperations:
    """``dbar`` and ``pull_mvform`` against their word versions, on sections
    with unsorted keys, repeated indices, mixed-parity and truncated
    coefficients, at odd caps 1-3."""

    @given(single_sections())
    @settings(max_examples=400, deadline=None, derandomize=True, phases=NO_SHRINK)
    def test_dbar_matches_words(self, a):
        assert _packed_form(dbar(a)) == _packed_form(word_dbar(a))

    @given(pullback_cases())
    @settings(max_examples=300, deadline=None, derandomize=True, phases=NO_SHRINK)
    def test_pull_mvform_matches_words(self, case):
        phi, a = case
        assert _outcome(lambda: pull_mvform(phi, a)) == _outcome(lambda: word_pull_mvform(phi, a))


class TestStoredTerms:
    @given(section_pairs())
    @settings(max_examples=400, deadline=None, derandomize=True, phases=NO_SHRINK)
    def test_wedge_matches_words(self, pair):
        a, b = pair
        assert _packed_form(wedge(a, b)) == _packed_form(word_wedge(a, b))

    @given(section_pairs())
    @settings(max_examples=400, deadline=None, derandomize=True, phases=NO_SHRINK)
    def test_schouten_matches_words(self, pair):
        a, b = pair
        assert _packed_form(schouten(a, b)) == _packed_form(word_schouten(a, b))

    def test_pair_sums_before_the_result(self):
        # the first pair of terms puts a multiple of z at prec 2 on ((), (0, 1));
        # for one sign, the last pair's even choice cancels it and its odd
        # choice th remains.  The pair's choices are summed before they reach
        # the result, so the key keeps prec 2 (one by one it would restart at 3)
        chart = Chart(RingSignature(1, 1, 3))
        z, th = chart.coordinate(0), chart.coordinate(1)
        one_low = JetSuperFunction.one(chart.sig, 2)
        b = MultiVectorForm(chart, {((), (1,)): z, ((), (0,)): chart.one()})
        precs = []
        for sign in (1, -1):
            a = MultiVectorForm(chart, {((), (0,)): one_low, ((), (1,)): z.scale(
                GaussianRational.of(sign)) + th})
            got = wedge(a, b)
            assert _packed_form(got) == _packed_form(word_wedge(a, b))
            precs.append(got.terms[((), (0, 1))].prec)
        assert 2 in precs

    def test_builds_no_word(self, monkeypatch):
        cases = []
        gen = SampleGen(47)
        for sig in (SIG11, SIG22, SIG13):
            chart = Chart(sig)
            for _ in range(6):
                a, *_ = gen.homogeneous_mvform(chart, max_p=3, allow_repeats=True)
                b, *_ = gen.homogeneous_mvform(chart, max_p=3, allow_repeats=True)
                cases.append((a, b, wedge(a, b), schouten(a, b)))

        def forbidden(*args, **kwargs):
            raise AssertionError("wedge or schouten built a formal word")

        monkeypatch.setattr(mvforms, "normalise_word", forbidden, raising=False)
        monkeypatch.setattr(MultiVectorForm, "from_words", forbidden, raising=False)
        assert any(not product.is_zero() for _, _, product, _ in cases)
        assert any(not bracket.is_zero() for *_, bracket in cases)
        for a, b, product, bracket in cases:
            assert same_section(wedge(a, b), product)
            assert same_section(schouten(a, b), bracket)
