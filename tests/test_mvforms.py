import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superbv.charts import Chart, ChartError, Morphism
from superbv import mvforms
from superbv.grading import BiDegree, commute_sign, koszul
from superbv.jetring import GaussianRational, JetError, JetSuperFunction, RingSignature, _parts
from superbv.mvforms import (
    MultiVectorForm,
    _drops,
    _is_full_unit,
    add_terms,
    dbar,
    pull_mvform,
    schouten,
    wedge,
)
from superbv.samples import SampleGen
from test_jetring import NO_SHRINK

SIG11 = RingSignature(n=1, m=1, cap=4)
SIG21 = RingSignature(n=2, m=1, cap=4)
SIG22 = RingSignature(n=2, m=2, cap=4)
SIG13 = RingSignature(n=1, m=3, cap=4)
CHARTS = [Chart(SIG11), Chart(SIG21), Chart(SIG22)]


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
        assert out.bidegrees() == {(1, 2)}
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
        assert out.bidegrees() == {(2, 2)}

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
        from superbv.charts import Morphism

        chart = Chart(SIG21)
        gen = SampleGen(11)
        alpha, *_ = gen.homogeneous_mvform(chart)
        assert pull_mvform(Morphism.identity(chart), alpha).agrees_with(alpha)

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


# -- the formal-word oracle ------------------------------------------------------
# The package once built a formal word for every product, bracket piece,
# barred derivative and choice of pullback matrix entries, and normalised it
# here.  ``normalise_word`` and the word versions of the operations below
# are the oracle that the stored-term versions must match term for term, in
# ``den`` and ``prec`` and in the section's ``prec``; ``WORD_DIGEST`` in
# tests/test_golden.py gates ``normalise_word`` itself.
#
# Item kinds: (DBAR, k) a barred coordinate differential; (VEC, k) a
# coordinate derivation; (FUN, f) a homogeneous coefficient.

DBAR, VEC, FUN = "dbar", "vec", "fun"


def normalise_word(chart, items, prefactor=1):
    """Sort a formal word into normal order, with Koszul signs.

    Returns a dict mapping (I, J) to a coefficient jet;  words that repeat an
    even direction, or exceed the odd multiplicity cap, are dropped (the
    former are zero, the latter fall outside the retained normal form).

    The normal order is the stable sort that puts the differentials first,
    then the derivations, each by direction, then the functions in their
    written order.  Each item gets its degree (1 for a differential or a
    derivation, 0 for a function) and its parity once.  A function item of
    mixed parity stands for the sum of its two homogeneous parts, so the
    word splits into one word per choice of parts.  The sign of a word is
    ``koszul`` of deg*deg + parity*parity summed over the pairs of items
    that the sort inverts, which is the product of the exchange signs of
    the swaps of an insertion sort.  The coefficient is the product of the
    function items from the first one on; a unit factor at full precision
    is skipped, since it changes neither the terms nor ``prec``.
    """
    items = list(items)
    ranks, degrees, choices = [], [], []
    for kind, payload in items:
        if kind == FUN:
            choices.append(_parts(payload))
            if not choices[-1]:
                return {}  # a zero factor
            ranks.append((2, 0))
            degrees.append(0)
        else:
            choices.append(((chart.parity(payload), None),))
            ranks.append((0 if kind == DBAR else 1, payload))
            degrees.append(1)
    form_idx = tuple(sorted(payload for kind, payload in items if kind == DBAR))
    vec_idx = tuple(sorted(payload for kind, payload in items if kind == VEC))
    if _drops(chart, form_idx) or _drops(chart, vec_idx):
        return {}
    size = len(items)
    inverted = [(i, j) for i in range(size) for j in range(i + 1, size) if ranks[i] > ranks[j]]
    degree_exponent = sum(degrees[i] * degrees[j] for i, j in inverted)
    pairs = []
    for word in itertools.product(*choices):
        exponent = degree_exponent + sum(word[i][0] * word[j][0] for i, j in inverted)
        coeff = None
        for _, f in word:
            if f is None or _is_full_unit(f):
                continue
            coeff = f if coeff is None else coeff * f
            if not coeff.terms:
                break
        if coeff is None:
            coeff = chart.one()
        elif not coeff.terms:
            continue
        if koszul(exponent) * prefactor < 0:
            coeff = -coeff
        pairs.append(((form_idx, vec_idx), coeff))
    return add_terms({}, pairs)


def in_normal_form(chart, key):
    """Whether the stored key (I, J) is one ``normalise_word`` keeps as it
    is: both tuples sorted, and neither dropped by ``_drops``."""
    return all(tuple(sorted(idx)) == idx and not _drops(chart, idx) for idx in key)


def from_words(chart, words, prec=None):
    """The section of (prefactor, items) words, normalised and summed word by
    word; its ``prec`` is at most every function item's, dropped words' too."""
    acc: dict = {}
    floor = chart.sig.cap if prec is None else prec
    for prefactor, items in words:
        floor = min([floor] + [payload.prec for kind, payload in items if kind == FUN])
        add_terms(acc, normalise_word(chart, items, prefactor).items())
    return MultiVectorForm(chart, acc, floor)


def term_word(form, key):
    """The formal word of one stored term (in normal order)."""
    form_idx, vec_idx = key
    items = [(DBAR, k) for k in form_idx] + [(VEC, k) for k in vec_idx]
    items.append((FUN, form.terms[key]))
    return items


def word_dbar(a):
    """``dbar`` through one word per barred derivative."""
    chart = a.chart
    words = []
    for (i, j), coeff in a.terms.items():
        index_parity = sum(chart.parity(k) for k in i + j) % 2
        for k in range(chart.dim):
            df = chart.dbar(coeff, k)
            if df.is_zero():
                continue
            sign = koszul(chart.parity(k) * index_parity)
            items = [(DBAR, k)] + [(DBAR, x) for x in i] + [(VEC, x) for x in j] + [(FUN, df)]
            words.append((sign, items))
    return from_words(chart, words, a.prec)


def word_pull_mvform(phi, a):
    """``pull_mvform`` through one word per choice of a nonzero matrix entry
    for each index, each entry followed by its coefficient item."""
    source = phi.source
    d_inv = d_bar_st = None
    if any(j_idx for _, j_idx in a.terms):
        d_inv = phi.differential_inverse()
    if any(i_idx for i_idx, _ in a.terms):
        d_bar_st = phi.differential_bar().supertranspose()
    pulled = phi.apply_many(a.terms.values())
    out_words = []
    for (i_idx, j_idx), pulled_coeff in zip(a.terms, pulled):
        words = [[]]
        symbols = [(DBAR, d_bar_st, k) for k in i_idx] + [(VEC, d_inv, k) for k in j_idx]
        for kind, matrix, k in symbols:
            column = [(row, matrix.rows[row][k]) for row in range(source.dim)]
            words = [items + [(kind, row), (FUN, entry)]
                     for items in words for row, entry in column if not entry.is_zero()]
        out_words.extend((1, items + [(FUN, pulled_coeff)]) for items in words)
    return from_words(source, out_words, a.prec - 1)


# -- the insertion-sort normaliser ------------------------------------------------
# ``normalise_word`` as it was before it took its sign from one inversion
# count: mixed-parity function items split into every homogeneous choice up
# front, then a stable insertion sort that multiplies the sign by
# ``commute_sign`` at every adjacent swap, and a coefficient product started
# at ``chart.one()``.  ``normalise_word`` must match it term for term, in
# ``den`` and in ``prec``.


def _item_bidegree(chart, item):
    kind, payload = item
    if kind == FUN:
        parity = payload.parity()
        if parity is None:
            raise ChartError("word items must be parity homogeneous")
        return BiDegree(0, parity)
    return BiDegree(1, chart.parity(payload))


def _split_functions(items):
    words = [([], 1)]
    for item in items:
        kind, payload = item
        if kind != FUN:
            for word, _ in words:
                word.append(item)
            continue
        even, odd = payload.homogeneous_parts()
        parts = [p for p in (even, odd) if not p.is_zero()]
        if not parts:
            return []
        if len(parts) == 1:
            for word, _ in words:
                word.append((FUN, parts[0]))
            continue
        new_words = []
        for word, sign in words:
            for part in parts:
                new_words.append((word + [(FUN, part)], sign))
        words = new_words
    return words


def _counted_drops(chart, indices):
    counts = Counter(indices)
    for k, count in counts.items():
        if chart.parity(k) == 0 and count > 1:
            return True
        if count > chart.odd_wedge_cap:
            return True
    return False


def insertion_sort_word(chart, items, prefactor=1):
    def rank(item):
        kind, payload = item
        if kind == DBAR:
            return (0, payload)
        if kind == VEC:
            return (1, payload)
        return (2, 0)

    pairs = []
    for word, base_sign in _split_functions(list(items)):
        sign = base_sign
        work = list(word)
        for i in range(1, len(work)):
            j = i
            while j > 0 and rank(work[j - 1]) > rank(work[j]):
                sign *= commute_sign(
                    _item_bidegree(chart, work[j - 1]), _item_bidegree(chart, work[j])
                )
                work[j - 1], work[j] = work[j], work[j - 1]
                j -= 1
        form_idx, vec_idx, funs = [], [], []
        for kind, payload in work:
            if kind == DBAR:
                form_idx.append(payload)
            elif kind == VEC:
                vec_idx.append(payload)
            else:
                funs.append(payload)
        if _counted_drops(chart, form_idx) or _counted_drops(chart, vec_idx):
            continue
        coeff = chart.one()
        for f in funs:
            coeff = coeff * f
            if coeff.is_zero():
                break
        if coeff.is_zero():
            continue
        if sign * prefactor < 0:
            coeff = -coeff
        pairs.append(((tuple(form_idx), tuple(vec_idx)), coeff))
    return add_terms({}, pairs)


WORD_SIGS = [RingSignature(1, 1, 3), RingSignature(2, 1, 2), RingSignature(2, 2, 4),
             RingSignature(1, 3, 2)]


@st.composite
def word_functions(draw, sig):
    """A function item: a few terms of any parity (so often of mixed parity),
    a zero or a unit at a drawn precision, or the full-precision one."""
    prec = draw(st.integers(min_value=0, max_value=sig.cap))
    shape = draw(st.sampled_from(("terms",) * 6 + ("zero", "unit", "one")))
    if shape == "zero":
        return JetSuperFunction.zero(sig, prec)
    if shape == "unit":
        return JetSuperFunction.one(sig, prec)
    if shape == "one":
        return JetSuperFunction.one(sig)
    terms = {}
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        exps = [0] * sig.even_count
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            exps[draw(st.integers(min_value=0, max_value=sig.even_count - 1))] += 1
        odd = draw(st.sets(st.integers(min_value=0, max_value=sig.odd_count - 1), max_size=2))
        parts = [Fraction(draw(st.integers(min_value=-3, max_value=3)),
                          draw(st.sampled_from((1, 2, 3)))) for _ in range(2)]
        terms[(tuple(exps), tuple(sorted(odd)))] = GaussianRational.of(*parts)
    return JetSuperFunction(sig, terms, draw(st.sampled_from((prec, sig.cap))))


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


# -- the word-based wedge and bracket ------------------------------------------------
# ``wedge`` and ``schouten`` as they were before they worked on stored terms:
# every pair of terms, and every summand of the bracket formulas on vector
# fields with left coefficients, became a formal word that ``from_words``
# normalised and summed.  The stored-term versions must match them term for
# term, in ``den`` and ``prec`` and in the section's ``prec``.


def word_wedge(a, b):
    a._check_chart(b)
    words = []
    for ka in a.terms:
        wa = term_word(a, ka)
        for kb in b.terms:
            words.append((1, wa + term_word(b, kb)))
    return from_words(a.chart, words, min(a.prec, b.prec))


class _Vec:
    """A single vector field c * d/dxi^d with the coefficient on the left."""

    __slots__ = ("coeff", "direction", "parity")

    def __init__(self, chart, coeff, direction):
        cp = coeff.parity()
        if cp is None:
            raise ChartError("internal: bracket vectors must be homogeneous")
        self.coeff = coeff
        self.direction = direction
        self.parity = (cp + chart.parity(direction)) % 2

    def apply(self, chart, f):
        return self.coeff * chart.d(f, self.direction)

    def word(self):
        return [(FUN, self.coeff), (VEC, self.direction)]


def _vectors_from(chart, coeff, directions):
    """Left-coefficient factorisation of coeff * d/dxi^J, coeff absorbed first."""
    vecs = [_Vec(chart, coeff, directions[0])]
    one = chart.one()
    for d in directions[1:]:
        vecs.append(_Vec(chart, one, d))
    return vecs


def _base_bracket(chart, w, v):
    """Vector-field bracket of two single vectors, as (prefactor, word) summands.

    [[cw d_a, cv d_b]] = (cw d_a(cv)) d_b - (-1)^(|w||v|) (cv d_b(cw)) d_a.
    """
    out = []
    first = w.apply(chart, v.coeff)
    if not first.is_zero():
        out.append((1, [(FUN, first), (VEC, v.direction)]))
    second = v.apply(chart, w.coeff)
    if not second.is_zero():
        sign = -koszul(w.parity * v.parity)
        out.append((sign, [(FUN, second), (VEC, w.direction)]))
    return out


def _bracket_function_with_vectors(chart, f, vecs):
    """[[f, v_1 ^ ... ^ v_p]] as (prefactor, word) summands; f homogeneous."""
    fp = f.parity()
    out = []
    prefix_parity = 0
    for i, v in enumerate(vecs):
        value = v.apply(chart, f)
        if not value.is_zero():
            # the leading minus of the defining formula
            sign = -koszul(i + v.parity * (prefix_parity + fp))
            word = [(FUN, value)]
            for l, other in enumerate(vecs):
                if l != i:
                    word.extend(other.word())
            out.append((sign, word))
        prefix_parity = (prefix_parity + v.parity) % 2
    return out


def _bracket_vectors(chart, ws, vs):
    """[[w_1 ^...^ w_p', v_1 ^...^ v_p]] as (prefactor, word) summands."""
    out = []
    w_total = sum(w.parity for w in ws) % 2
    w_prefix = 0
    for j, w in enumerate(ws, start=1):
        v_prefix = 0
        for i, v in enumerate(vs, start=1):
            exponent = (
                i + j
                + w.parity * w_prefix
                + v.parity * (v_prefix + w_total + w.parity)
            )
            sign = koszul(exponent)
            rest = []
            for l, other in enumerate(ws, start=1):
                if l != j:
                    rest.extend(other.word())
            for l, other in enumerate(vs, start=1):
                if l != i:
                    rest.extend(other.word())
            for base_sign, base_word in _base_bracket(chart, w, v):
                out.append((sign * base_sign, base_word + rest))
            v_prefix = (v_prefix + v.parity) % 2
        w_prefix = (w_prefix + w.parity) % 2
    return out


def _bracket_multivectors(chart, f, j_idx, g, l_idx):
    """Inner bracket [[f d/dxi^J, g d/dxi^L]] with left coefficients."""
    p, p2 = len(j_idx), len(l_idx)
    if p == 0 and p2 == 0:
        return []
    if p == 0:
        return _bracket_function_with_vectors(chart, f, _vectors_from(chart, g, l_idx))
    if p2 == 0:
        ws = _vectors_from(chart, f, j_idx)
        w_parity = sum(w.parity for w in ws) % 2
        exponent = (p + 1) + g.parity() * w_parity
        outer = -koszul(exponent)
        return [
            (outer * s, word)
            for s, word in _bracket_function_with_vectors(chart, g, ws)
        ]
    return _bracket_vectors(
        chart, _vectors_from(chart, f, j_idx), _vectors_from(chart, g, l_idx)
    )


def word_schouten(a, b):
    a._check_chart(b)
    chart = a.chart
    words = []
    for (ia, ja), fa in a.terms.items():
        q = len(ia)
        p = len(ja)
        pi_a = sum(chart.parity(k) for k in ia) % 2
        pj_a = sum(chart.parity(k) for k in ja) % 2
        for fa_part in fa.homogeneous_parts():
            if fa_part.is_zero():
                continue
            fpa = fa_part.parity()
            for (ib, jb), gb in b.terms.items():
                q_b = len(ib)
                pi_b = sum(chart.parity(k) for k in ib) % 2
                pj_b = sum(chart.parity(k) for k in jb) % 2
                for gb_part in gb.homogeneous_parts():
                    if gb_part.is_zero():
                        continue
                    gpb = gb_part.parity()
                    # move both coefficients to the far left of their terms
                    exponent = fpa * (pi_a + pj_a) + gpb * (pi_b + pj_b)
                    # bidegree bookkeeping sign of the form-valued extension
                    exponent += q_b * (p + 1) + fpa * pi_a + pi_b * (gpb + pj_a + fpa)
                    sign = koszul(exponent)
                    inner = _bracket_multivectors(chart, fa_part, ja, gb_part, jb)
                    if not inner:
                        continue
                    lead = [(DBAR, k) for k in ia] + [(DBAR, k) for k in ib]
                    for s, word in inner:
                        words.append((sign * s, lead + word))
    return from_words(chart, words, min(a.prec, b.prec) - 1)


def _packed_form(form):
    """The section's ``prec`` and each coefficient's terms, ``den`` and
    ``prec``, by key in insertion order."""
    return form.prec, [(key, c.terms, c.den, c.prec) for key, c in form.terms.items()]


@st.composite
def index_tuples(draw, chart, size):
    """Sorted directions: distinct ones (at most ``chart.dim``), or any, so
    that an even repeat or an odd one past the cap makes a key that
    ``normalise_word`` drops, or the last (odd) direction repeated."""
    shape = draw(st.sampled_from(("distinct", "distinct", "any", "last")))
    if shape == "last":
        return (chart.dim - 1,) * size
    size = min(size, chart.dim) if shape == "distinct" else size
    return tuple(sorted(draw(st.lists(st.integers(min_value=0, max_value=chart.dim - 1),
                                      min_size=size, max_size=size,
                                      unique=shape == "distinct"))))


@st.composite
def sampled_functions(draw, sig):
    """A ``SampleGen`` jet of up to four terms, holomorphic in one draw of
    two so that brackets often differentiate it, truncated in one of three."""
    gen = SampleGen(draw(st.integers(min_value=0, max_value=10 ** 6)))
    jet = gen.jet(sig, max_terms=4, holomorphic=draw(st.booleans()))
    if draw(st.integers(min_value=0, max_value=2)):
        return jet
    return jet.truncate(draw(st.integers(min_value=0, max_value=sig.cap - 1)))


@st.composite
def sections(draw, chart):
    """A section of up to three terms of drawn bidegrees (so possibly empty),
    with coefficients of mixed parity, truncated below the cap or units, at
    a drawn ``prec``."""
    terms = {}
    for _ in range(draw(st.sampled_from((0, 1, 2, 2, 3, 3, 3)))):
        key = (draw(index_tuples(chart, draw(st.integers(min_value=0, max_value=2)))),
               draw(index_tuples(chart, draw(st.sampled_from((0, 1, 2, 2, 3, 3))))))
        terms[key] = draw(st.one_of(word_functions(chart.sig), sampled_functions(chart.sig)))
    prec = draw(st.integers(min_value=0, max_value=chart.sig.cap))
    return MultiVectorForm(chart, terms, prec)


BRACKET_SIGS = [RingSignature(1, 1, 3), RingSignature(2, 2, 4), RingSignature(1, 3, 2)]


@st.composite
def section_pairs(draw):
    sig = draw(st.sampled_from(BRACKET_SIGS))
    chart = Chart(sig, odd_wedge_cap=draw(st.integers(min_value=1, max_value=3)))
    return draw(sections(chart)), draw(sections(chart))


def reversed_keys(draw, form):
    """``form``, or in one draw of two the same terms under reversed index
    tuples, which are then unsorted (colliding keys keep the last term)."""
    if not draw(st.booleans()):
        return form
    return MultiVectorForm(form.chart, {(i[::-1], j[::-1]): c for (i, j), c in form.terms.items()},
                           form.prec)


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
            assert wedge(a, b) == product
            assert schouten(a, b) == bracket
