"""The test oracles, and the helpers that more than one test module shares.

An oracle is a second, independent computation of what a ``superbv``
function computes, most often the form that a faster kernel replaced; the
tests hold the function to it term for term, in ``den`` and ``prec``.  Test
modules import from here and from ``superbv`` only (``test_source_guard``).
Below, oracle -> the function it checks: the tests that compare the two.
- reference_jet_mul, reference_add, reference_partial, reference_conjugate,
  reference_parity, reference_parts -> JetSuperFunction's *, +, partial,
  conjugate, parity, homogeneous_parts: test_jetring.TestReferenceKernel
- reference_sum -> jet_sum and +: test_jetring.TestSumPrimitives
- reference_render -> render: test_jetring.TestRenderOracle
- flat_mul, flat_dot -> * and dot: test_jetring.TestTermProductKernel
- _one_at_a_time -> substitute_many: test_exactness
- RandomPySampleGen -> SampleGen: test_samples, test_jetring.TestSampledJets
- leibniz_det -> samples._singular: test_samples.TestDeterminant
- reference_invert_scalar_matrix, reference_det_even, reference_dot,
  reference_matrix_mul, reference_inverse, reference_sdet, series_sdet ->
  _invert_scalar_matrix, det_even, dot, SuperMatrix's *, inverse, sdet:
  test_supermatrix.TestAgainstReference; dot_product, series_inverse ->
  SuperMatrix's * and inverse: test_supermatrix.TestRowKernel
- fixpoint_inverse -> Morphism.invert: test_charts.TestWeightInverse
- pull_vector, pull_covector -> the pullback laws of pull_mvform and
  vector_apply: test_charts.TestVectorCalculus
- insertion_sort_word -> normalise_word: test_mvforms.TestNormaliseWord; its
  exchange sign commute_sign of two BiDegrees -> koszul and reorder_sign:
  test_grading, test_jetring's supercommutativity
- word_dbar, word_pull_mvform, word_wedge, word_schouten -> dbar, pull_mvform,
  wedge, schouten: test_mvforms.TestWordFreeOperations, TestStoredTerms
- word_extend_delta, word_sorted_extend_delta, word_extend_delta_right ->
  extend_delta, extend_delta_right: test_bvcalc.TestExtendDelta(Properties)
- recursive_extend_term -> bvcalc._extend_term: test_bvcalc.TestDivergenceFormula
- covariant_derivative, walk_delta_formula, items_t_integrate, items_t_truncate
  -> transform_christoffel, solve_delta_formula, t_integrate, t_truncate:
  test_connect.TestChristoffelTransform, test_connect.TestAgainstOracles
"""

import itertools
import random
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb, gcd, lcm
from pathlib import Path

from hypothesis import Phase, strategies as st

from superbv import bvcalc, charts
from superbv.bvcalc import DeltaOperator
from superbv.charts import Chart, ChartError, Morphism, vector_apply
from superbv.connect import Christoffel, FormalPath, IntegrabilityError, delta_from_tangent, path_ring
from superbv.grading import ODD, koszul, reorder_sign
from superbv.jetring import (GR_ONE, GR_ZERO, GaussianRational, JetError, JetSuperFunction,
                             NotAUnitError, RingSignature, _parts, dot, numerators,
                             substitute_many)
from superbv.mvforms import MultiVectorForm, _drops, _is_full_unit, add_terms, schouten, wedge
from superbv.samples import SampleGen, _singular
from superbv.supermatrix import SuperMatrix, SuperMatrixError, _invert_scalar_matrix, _scaled_sum

# Phases of the derandomized oracle properties: all but shrinking (and the
# explain phase that follows it).  A failing example is reported as drawn;
# shrinking the large examples of these properties took minutes.
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate, Phase.target)

ROOT = Path(__file__).resolve().parent.parent
SIG = RingSignature(n=1, m=2, cap=3)
SIG11 = RingSignature(n=1, m=1, cap=4)
SIG21 = RingSignature(n=2, m=1, cap=4)
SIG22 = RingSignature(n=2, m=2, cap=4)
SIG13 = RingSignature(n=1, m=3, cap=4)
CHARTS = [Chart(SIG11), Chart(SIG21), Chart(SIG22)]


def gens(sig):
    return {sig.gen_name(g): JetSuperFunction.gen(sig, g) for g in range(sig.gen_count())}


SCENARIO_HASHES = {
    "cap_edge_1x2": "3c3bfdc68394628a4305b22965032cb47a85510ef598b9431f2d2d8e833583c5",
    "bv_1x3": "61a5d2be1a29fbdd4dc36834581f7460b052a84572dfd4e76a2063ff4c59cbad",
    "bv_3x3": "e99ac6b478ce7360f596c7804ee77a5fc9c696069c3e9deb5e7b66850fbc6f83",
    "default": "399b01be921f725c06afbcb1d32ab12f106abf899a31c5df8a7f6ad5471c4e8f",
    "two_one": "9c14ba17d9c1cc8ad3fc3e64243dd714a4d289ea002e34784fd9187301649c34",
    "two_two": "cb088cb1482a07337dcdf65fd1d441b47318a4ef948ad7c860769e416077a3f6",
}


def _holomorphic_terms(draw, n, m, parity, degrees, count):
    """Up to ``count`` holomorphic monomials of the given parity with even
    degree drawn from ``degrees``, as ``{(exps, odd): int}``."""
    terms = {}
    for _ in range(draw(st.integers(0, count))):
        exps = [0] * (2 * n)
        for _ in range(draw(st.sampled_from(degrees))):
            exps[draw(st.integers(0, n - 1))] += 1
        odd = tuple(sorted(draw(st.sets(st.integers(0, m - 1), max_size=3))))
        if len(odd) % 2 == parity and (sum(exps) or odd):
            terms[(tuple(exps), odd)] = draw(st.integers(-3, 3).filter(bool))
    return terms


def _through(f, prec):
    return {(exps, odd): c for exps, odd, c in f.items() if sum(exps) <= prec}


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


def reversed_keys(draw, form):
    """``form``, or in one draw of two the same terms under reversed index
    tuples, which are then unsorted (colliding keys keep the last term)."""
    if not draw(st.booleans()):
        return form
    return MultiVectorForm(form.chart, {(i[::-1], j[::-1]): c for (i, j), c in form.terms.items()},
                           form.prec)


def form_bidegrees(form):
    """All (p, q) bidegrees occurring among the stored terms of ``form``."""
    return {(len(j), len(i)) for (i, j) in form.terms}


# -- the jet kernel -------------------------------------------------------------
# The tuple-keyed kernel with one pair of Fractions per term, which the packed
# kernel replaced; terms map (even_exponents, odd_subset) to GaussianRational.


def _terms(f):
    return {(exps, odd): coeff for exps, odd, coeff in f.items()}


def _packed(f):
    return f.terms, f.den, f.prec


def _add_term(terms, key, coeff):
    total = terms.get(key, GR_ZERO) + coeff
    if total:
        terms[key] = total
    else:
        terms.pop(key, None)


def _merge_odd(s1, s2):
    """Merged odd subset and the sign of sorting s1 s2, or None on a repeat."""
    if set(s1) & set(s2):
        return None
    inversions = sum(1 for a in s1 for b in s2 if b < a)
    return tuple(sorted(s1 + s2)), -1 if inversions % 2 else 1


def reference_jet_mul(f, g):
    prec = min(f.prec, g.prec)
    terms = {}
    for (e1, s1), c1 in _terms(f).items():
        for (e2, s2), c2 in _terms(g).items():
            merged = _merge_odd(s1, s2)
            exps = tuple(a + b for a, b in zip(e1, e2))
            if merged is None or sum(exps) > prec:
                continue
            odd, sign = merged
            _add_term(terms, (exps, odd), c1 * c2 if sign > 0 else -(c1 * c2))
    return terms, prec


def reference_add(f, g):
    prec = min(f.prec, g.prec)
    terms = {}
    for key, coeff in list(_terms(f).items()) + list(_terms(g).items()):
        if sum(key[0]) <= prec:
            _add_term(terms, key, coeff)
    return terms, prec


def reference_partial(f, gid):
    sig = f.sig
    terms = {}
    if sig.gen_parity(gid) == 0:
        for (exps, odd), coeff in _terms(f).items():
            if exps[gid]:
                lowered = exps[:gid] + (exps[gid] - 1,) + exps[gid + 1:]
                _add_term(terms, (lowered, odd), coeff * GaussianRational.of(exps[gid]))
        return terms, max(0, f.prec - 1)
    local = gid - sig.even_count
    for (exps, odd), coeff in _terms(f).items():
        if local in odd:
            pos = odd.index(local)
            _add_term(terms, (exps, odd[:pos] + odd[pos + 1:]), -coeff if pos % 2 else coeff)
    return terms, f.prec


def reference_conjugate(f):
    n, m = f.sig.n, f.sig.m
    terms = {}
    for (exps, odd), coeff in _terms(f).items():
        mapped = [(o + m) % (2 * m) for o in reversed(odd)]
        inversions = sum(1 for i, a in enumerate(mapped) for b in mapped[i + 1:] if a > b)
        value = coeff.conjugate()
        terms[(exps[n:] + exps[:n], tuple(sorted(mapped)))] = -value if inversions % 2 else value
    return terms, f.prec


def reference_parity(f):
    """``parity`` from the set of the term parities."""
    seen = {len(odd) % 2 for _, odd, _ in f.items()}
    return seen.pop() if len(seen) == 1 else None if seen else 0


def reference_parts(f):
    """``homogeneous_parts`` as two jets built from the split terms."""
    parts = ({}, {})
    for exps, odd, coeff in f.items():
        parts[len(odd) % 2][(exps, odd)] = coeff
    return [JetSuperFunction(f.sig, part, f.prec) for part in parts]


def reference_sum(sig, jets):
    terms = {}
    for f in jets:
        for exps, odd, coeff in f.items():
            terms[(exps, odd)] = terms.get((exps, odd), GR_ZERO) + coeff
    return _packed(JetSuperFunction(sig, terms, min([sig.cap] + [f.prec for f in jets])))


def reference_render(f):
    """``render`` through ``items()``, one ``GaussianRational`` and two
    ``Fraction``s per term: the path the packed-numerator render replaced."""
    if f.is_zero():
        return "0"
    pieces = []
    for exps, odd, coeff in f.items():
        factors = []
        for gid, e in enumerate(exps):
            if e:
                name = f.sig.gen_name(gid)
                factors.append(name if e == 1 else f"{name}^{e}")
        factors.extend(f.sig.gen_name(f.sig.even_count + o) for o in odd)
        monomial = "*".join(factors)
        sign, body = _reference_scalar(coeff, bool(monomial))
        if monomial:
            text = monomial if body == "" else f"{body}*{monomial}"
        else:
            text = body if body else "1"
        pieces.append((sign, text))
    out = ("-" if pieces[0][0] < 0 else "") + pieces[0][1]
    for sign, text in pieces[1:]:
        out += (" - " if sign < 0 else " + ") + text
    return out


def _reference_scalar(value, as_factor):
    re, im = value.re, value.im
    if re != 0 and im != 0:
        if re < 0:
            return -1, f"({-re} {'-' if im > 0 else '+'} {_reference_imag(abs(im))})"
        return 1, f"({re} {'+' if im > 0 else '-'} {_reference_imag(abs(im))})"
    if im == 0:
        sign = -1 if re < 0 else 1
        mag = abs(re)
        if mag == 1 and as_factor:
            return sign, ""
        return sign, str(mag)
    sign = -1 if im < 0 else 1
    return sign, _reference_imag(abs(im))


def _reference_imag(mag):
    return "i" if mag == 1 else f"{mag}*i"


# -- the flat term-product loop ------------------------------------------------
# The loop that visits every pair of terms, as jetring._multiply_into ran it
# on every product before it indexed the right operand (here without the
# merge-sign cache).


def flat_multiply_into(acc, layout, left, factor, right, prec):
    shift = layout.shift
    odd_mask = layout.odd_mask
    pairs = [(k2, k2 & odd_mask, a2, b2) for k2, (a2, b2) in right.items()]
    for k1, (a1, b1) in left.items():
        if factor != 1:
            a1 *= factor
            b1 *= factor
        s1 = k1 & odd_mask
        for k2, s2, a2, b2 in pairs:
            if s1 & s2:
                continue
            key = k1 + k2
            if key >> shift > prec:
                continue
            if layout.merge_sign(s1, s2) > 0:
                re = a1 * a2 - b1 * b2
                im = a1 * b2 + b1 * a2
            else:
                re = b1 * b2 - a1 * a2
                im = -a1 * b2 - b1 * a2
            prev = acc.get(key, (0, 0))
            acc[key] = (prev[0] + re, prev[1] + im)


def _reduced(acc, den, prec):
    """``(terms, den, prec)`` in canonical form: cancelled keys dropped and
    the common factor of ``den`` and every numerator divided out."""
    terms = {key: value for key, value in acc.items() if value[0] or value[1]}
    g = gcd(den, *(part for value in terms.values() for part in value))
    return {key: (re // g, im // g) for key, (re, im) in terms.items()}, den // g, prec


def flat_mul(f, g):
    prec = min(f.prec, g.prec)
    acc = {}
    flat_multiply_into(acc, f.sig._layout, f.terms, 1, g.terms, prec)
    return _reduced(acc, f.den * g.den, prec)


def flat_dot(sig, pairs):
    prec = min([sig.cap] + [x.prec for pair in pairs for x in pair])
    live = [(a, b) for a, b in pairs if a.terms and b.terms]
    den = lcm(*(a.den * b.den for a, b in live))
    acc = {}
    for a, b in live:
        flat_multiply_into(acc, sig._layout, a.terms, den // (a.den * b.den), b.terms, prec)
    return _reduced(acc, den, prec)


def _one_at_a_time(f, images, sig):
    """Reference substitution: one chain of products per monomial."""
    prec = f.substitute(images, sig).prec
    result = JetSuperFunction.zero(sig, prec)
    for exps, odd, coeff in f.items():
        factor = JetSuperFunction.scalar(sig, coeff, prec)
        for gid, e in enumerate(exps):
            for _ in range(e):
                factor = factor * images[gid]
        for o in odd:
            factor = factor * images[f.sig.even_count + o]
        result = result + factor
    return result


# -- sampled draws through random.py -------------------------------------------
# ``RandomPySampleGen`` sums its jets as ``GaussianRational`` coefficients under
# tuple keys for the tuple-keyed constructor, so it also checks the packed keys
# ``SampleGen.jet`` builds during the draw.


class RandomPySampleGen:
    """The draws of ``SampleGen`` through random.py's methods."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def _numerators(self, allow_zero=True, complex_part=True):
        while True:
            re = self.rng.randint(-2, 2)
            im = self.rng.randint(-1, 1) if complex_part else 0
            if allow_zero or re or im:
                return re, im

    def scalar(self, allow_zero=True, complex_part=True) -> GaussianRational:
        return GaussianRational.of(*self._numerators(allow_zero, complex_part))

    def nonzero_scalar(self) -> GaussianRational:
        return self.scalar(allow_zero=False)

    def monomial_key(self, sig, max_even_degree=2, holomorphic=False, parity=None,
                     allow_constant=True):
        pool = list(range(sig.n if holomorphic else sig.even_count))
        odd_pool = list(range(sig.m if holomorphic else sig.odd_count))
        most_odd = min(2, len(odd_pool))
        for _ in range(64):
            degree = self.rng.randint(0, max_even_degree)
            exps = [0] * sig.even_count
            for _ in range(degree):
                exps[self.rng.choice(pool)] += 1
            size = self.rng.randint(0, most_odd)
            odd = tuple(sorted(self.rng.sample(odd_pool, size))) if size else ()
            if parity is not None and len(odd) % 2 != parity:
                continue
            if not allow_constant and sum(exps) == 0 and not odd:
                continue
            return tuple(exps), odd
        raise RuntimeError("could not draw a monomial with the requested shape")

    def jet(self, sig, max_terms=3, max_even_degree=2, holomorphic=False, parity=None,
            allow_constant=True):
        terms = {}
        for _ in range(self.rng.randint(0 if allow_constant else 1, max_terms)):
            key = self.monomial_key(sig, max_even_degree, holomorphic, parity, allow_constant)
            terms[key] = terms.get(key, GaussianRational.of(0)) + self.scalar(allow_zero=False)
        return JetSuperFunction(sig, terms)

    def unit(self, sig, holomorphic=True):
        rest = self.jet(sig, max_terms=2, max_even_degree=2, holomorphic=holomorphic,
                        parity=0, allow_constant=False)
        return JetSuperFunction.one(sig) + rest

    def index_multiset(self, chart, size, allow_repeats=False):
        picks = []
        counts = {}
        for _ in range(64):
            if len(picks) == size:
                break
            k = self.rng.randrange(chart.dim)
            if chart.parity(k) == 0 and counts.get(k):
                continue
            if counts.get(k) and not allow_repeats:
                continue
            if counts.get(k, 0) + 1 > chart.odd_wedge_cap:
                continue
            picks.append(k)
            counts[k] = counts.get(k, 0) + 1
        if len(picks) < size:
            raise RuntimeError("could not draw an index multiset of the requested size")
        return tuple(sorted(picks))

    def mvform(self, chart, p, q, parity=None, max_terms=2, holomorphic_coeff=False,
               allow_repeats=False):
        pairs = []
        for _ in range(self.rng.randint(1, max_terms)):
            i_idx = self.index_multiset(chart, q, allow_repeats)
            j_idx = self.index_multiset(chart, p, allow_repeats)
            index_parity = sum(chart.parity(k) for k in i_idx + j_idx) % 2
            coeff_parity = None if parity is None else (parity + index_parity) % 2
            coeff = self.jet(chart.sig, max_terms=2, max_even_degree=2,
                             holomorphic=holomorphic_coeff, parity=coeff_parity)
            pairs.append(((i_idx, j_idx), coeff))
        return MultiVectorForm(chart, add_terms({}, pairs))

    def homogeneous_mvform(self, chart, max_p=2, max_q=2, allow_repeats=False):
        room = chart.sig.n + chart.sig.m * (chart.odd_wedge_cap if allow_repeats else 1)
        p = self.rng.randint(0, min(max_p, room))
        q = self.rng.randint(0, min(max_q, room))
        parity = self.rng.randint(0, 1) if chart.sig.m else 0
        return self.mvform(chart, p, q, parity=parity, allow_repeats=allow_repeats), p, q, parity

    def invertible_morphism(self, chart, nonlinear=True):
        sig = chart.sig
        n, m = sig.n, sig.m
        while True:
            even_lin = [[self.rng.randint(-1, 1) + (i == k) for k in range(n)] for i in range(n)]
            odd_lin = [[self.rng.randint(-1, 1) + (i == k) for k in range(m)] for i in range(m)]
            if not (_singular(even_lin) or _singular(odd_lin)):
                break
        coords = [chart.coordinate(k) for k in range(chart.dim)]

        def linear_terms(row, offset):
            return [(coords[offset + k], JetSuperFunction.scalar(sig, GaussianRational.of(c)))
                    for k, c in enumerate(row) if c]

        def scaled(monomial):
            return monomial, JetSuperFunction.scalar(sig, self.scalar(allow_zero=False))

        pullbacks = []
        for i in range(n):
            pairs = linear_terms(even_lin[i], 0)
            if nonlinear:
                for _ in range(self.rng.randint(0, 2)):
                    a, b = self.rng.randrange(n), self.rng.randrange(n)
                    pairs.append(scaled(coords[a] * coords[b]))
                if m >= 2 and self.rng.random() < 0.7:
                    a = self.rng.randrange(n)
                    j, k = sorted(self.rng.sample(range(m), 2))
                    pairs.append(scaled(coords[a] * coords[n + j] * coords[n + k]))
            pullbacks.append(dot(sig, pairs))
        for j in range(m):
            pairs = linear_terms(odd_lin[j], n)
            if nonlinear:
                for _ in range(self.rng.randint(0, 2)):
                    a = self.rng.randrange(n)
                    k = self.rng.randrange(m)
                    pairs.append(scaled(coords[a] * coords[n + k]))
            pullbacks.append(dot(sig, pairs))
        return Morphism(chart, Chart(sig, name="zeta", odd_wedge_cap=chart.odd_wedge_cap), pullbacks)

    def christoffel(self, chart, max_terms=1, nilpotent=False):
        pairs = []
        dim = chart.dim
        m = chart.sig.m
        count = self.rng.randint(1, dim * 2)
        for _ in range(count):
            q, k, l = (self.rng.randrange(dim) for _ in range(3))
            parity = (chart.parity(q) + chart.parity(k) + chart.parity(l)) % 2
            if nilpotent:
                if parity == 1 and m >= 1:
                    base = JetSuperFunction.gen(chart.sig, chart.sig.th(self.rng.randrange(m)))
                elif parity == 0 and m >= 2:
                    i, j = sorted(self.rng.sample(range(m), 2))
                    base = JetSuperFunction.gen(chart.sig, chart.sig.th(i)) * \
                        JetSuperFunction.gen(chart.sig, chart.sig.th(j))
                else:
                    continue
                value = base.scale(self.nonzero_scalar())
            else:
                value = self.jet(chart.sig, max_terms=max_terms, max_even_degree=1,
                                 holomorphic=True, parity=parity)
            pairs.append(((q, k, l), value))
        return Christoffel(chart, add_terms({}, pairs))

    def formal_path(self, chart, odd_params=2, order=4, with_odd_direction=True):
        ring = path_ring(odd_params, order)
        t = JetSuperFunction.gen(ring, ring.z(0))
        components = []
        for k in range(chart.dim):
            if chart.parity(k) == 0:
                comp = t.scale(self.scalar(allow_zero=False, complex_part=False))
                if self.rng.random() < 0.5:
                    comp = comp + (t * t).scale(self.scalar(complex_part=False))
            else:
                comp = JetSuperFunction.zero(ring)
                if with_odd_direction and odd_params:
                    eta = JetSuperFunction.gen(ring, ring.th(self.rng.randrange(odd_params)))
                    comp = (eta * t).scale(self.scalar(allow_zero=False, complex_part=False))
            components.append(comp)
        return FormalPath(chart, ring, tuple(components))

    def cy_scenario(self, chart):
        h = self.unit(chart.sig, holomorphic=True)
        h_inv = h.invert()
        dim = chart.dim
        symbols = {}
        for _ in range(self.rng.randint(0, dim)):
            q, k, l = (self.rng.randrange(dim) for _ in range(3))
            if q == l:
                continue
            parity = (chart.parity(q) + chart.parity(k) + chart.parity(l)) % 2
            value = self.jet(chart.sig, max_terms=1, max_even_degree=1,
                             holomorphic=True, parity=parity)
            if not value.is_zero():
                symbols[(q, k, l)] = value
        free = Christoffel(chart, symbols)
        adjusted = dict(symbols)
        for k in range(dim):
            target = chart.d(h, k) * h_inv
            current = chart.zero()
            for q in range(dim):
                entry = free.right(q, k, q)
                sign = koszul(chart.parity(q) * (1 + chart.parity(k)))
                current = current + (entry if sign > 0 else -entry)
            prev = adjusted.get((0, k, 0), chart.zero())
            adjusted[(0, k, 0)] = prev + target - current
        gamma = Christoffel(chart, {key: v for key, v in adjusted.items() if not v.is_zero()})
        return h, gamma, delta_from_tangent(gamma)


def leibniz_det(grid) -> int:
    """The determinant as a signed sum over all permutations: oracle for
    ``_singular``, and what ``invertible_morphism`` used first (m! terms)."""
    acc = 0
    for perm in itertools.permutations(range(len(grid))):
        prod = reorder_sign([ODD] * len(perm), perm)
        for row, col in zip(grid, perm):
            prod *= row[col]
        acc += prod
    return acc


# -- supermatrices ---------------------------------------------------------------
# The straightforward forms of the supermatrix kernels: Gauss-Jordan over
# Fractions for the body, products folded as ``acc + a*b``, the body inverse
# applied as a product with one-term scalar jets, and the Schur complement
# summed one (k, l) term at a time.


def body_matrix(m):
    """Constant part of every entry, as a grid of GaussianRationals."""
    return [[e.body() for e in row] for row in m.rows]


def invert_scalar_grid(grid):
    """``_invert_scalar_matrix`` on a grid of GaussianRationals, read and
    returned as ``numerators``."""
    return _invert_scalar_matrix([[numerators(x) for x in row] for row in grid])


def reference_invert_scalar_matrix(grid):
    size = len(grid)
    work = [[grid[i][j] for j in range(size)] for i in range(size)]
    result = [[GaussianRational.of(1 if i == j else 0) for j in range(size)] for i in range(size)]
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if work[r][col]), None)
        if pivot_row is None:
            raise ZeroDivisionError("singular matrix")
        work[col], work[pivot_row] = work[pivot_row], work[col]
        result[col], result[pivot_row] = result[pivot_row], result[col]
        pivot = work[col][col]
        work[col] = [x / pivot for x in work[col]]
        result[col] = [x / pivot for x in result[col]]
        for r in range(size):
            if r == col:
                continue
            factor = work[r][col]
            if not factor:
                continue
            work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
            result[r] = [x - factor * y for x, y in zip(result[r], result[col])]
    return result


def reference_det_even(sig, grid):
    """``det_even`` as the fold of its full Leibniz products, each formed
    from one and stopped at its first zero."""
    size = len(grid)
    if size == 0:
        return JetSuperFunction.one(sig)
    acc = JetSuperFunction.zero(sig)
    for perm in itertools.permutations(range(size)):
        inversions = sum(perm[i] > perm[j] for i in range(size) for j in range(i + 1, size))
        prod = JetSuperFunction.one(sig)
        for i in range(size):
            prod = prod * grid[i][perm[i]]
            if prod.is_zero():
                break
        acc = acc - prod if inversions % 2 else acc + prod
    return acc


def reference_dot(sig, pairs):
    acc = JetSuperFunction.zero(sig)
    for a, b in pairs:
        acc = acc + a * b
    return acc


def reference_matrix_mul(m, n):
    size = m.size
    rows = [[reference_dot(m.sig, [(m.rows[i][k], n.rows[k][j]) for k in range(size)
                                   if not m.rows[i][k].is_zero() and not n.rows[k][j].is_zero()])
             for j in range(size)] for i in range(size)]
    return SuperMatrix(m.sig, m.p, m.q, rows)


def reference_inverse(m):
    try:
        body_inv = reference_invert_scalar_matrix(body_matrix(m))
    except ZeroDivisionError:
        raise NotAUnitError("body of the matrix is not invertible") from None
    b_inv = SuperMatrix(m.sig, m.p, m.q, [[JetSuperFunction.scalar(m.sig, x) for x in row]
                                          for row in body_inv])
    identity = SuperMatrix.identity(m.sig, m.p, m.q)
    remainder = identity - reference_matrix_mul(b_inv, m)
    acc, power = identity, remainder
    while not all(e.is_zero() for row in power.rows for e in row):
        acc = acc + power
        power = reference_matrix_mul(power, remainder)
    return reference_matrix_mul(acc, b_inv)


def reference_sdet(m):
    a, b, c, d = m.blocks()
    if m.q == 0:
        return reference_det_even(m.sig, a)
    d_inv = reference_inverse(SuperMatrix(m.sig, 0, m.q, d))
    det_d = reference_det_even(m.sig, d)
    if m.p == 0:
        return det_d.invert()
    schur = []
    for i in range(m.p):
        row = []
        for j in range(m.p):
            acc = a[i][j]
            for k in range(m.q):
                for l in range(m.q):
                    acc = acc - b[i][k] * d_inv.rows[k][l] * c[l][j]
            row.append(acc)
        schur.append(row)
    return reference_det_even(m.sig, schur) * det_d.invert()


# ``SuperMatrix.sdet`` as it was before it built D^-1 from the adjugate: D^-1
# summed as the matrix geometric series of ``SuperMatrix.inverse``, then the
# same fused Schur complement.


def series_sdet(m):
    a, b, c, d = m.blocks()
    if m.q == 0:
        return reference_det_even(m.sig, a)
    d_inv = SuperMatrix(m.sig, 0, m.q, d).inverse()
    det_d = reference_det_even(m.sig, d)
    if m.p == 0:
        return det_d.invert()
    d_columns = list(zip(*d_inv.rows))
    c_columns = list(zip(*c))
    schur = []
    for a_row, b_row in zip(a, b):
        bd_row = [dot(m.sig, zip(b_row, column)) for column in d_columns]
        schur.append([entry - dot(m.sig, zip(bd_row, column))
                      for entry, column in zip(a_row, c_columns)])
    return reference_det_even(m.sig, schur) * det_d.invert()


# ``SuperMatrix.__mul__`` and ``SuperMatrix.inverse`` as they were before both
# ran on the row kernel: each product entry one ``dot`` of a row and a column
# over the pairs whose two factors are nonzero, and the geometric series
# summed as ``SuperMatrix`` values, ``acc + power`` then ``power * remainder``.


def dot_product(m, n):
    columns = list(zip(*n.rows))
    rows = [[dot(m.sig, [(a, b) for a, b in zip(row, column) if a.terms and b.terms])
             for column in columns]
            for row in m.rows]
    return SuperMatrix(m.sig, m.p, m.q, rows)


def series_inverse(m):
    m._require_even("inversion")
    try:
        body_inv = invert_scalar_grid(body_matrix(m))
    except ZeroDivisionError:
        raise NotAUnitError("body of the matrix is not invertible") from None
    identity = SuperMatrix.identity(m.sig, m.p, m.q)
    columns = list(zip(*m.rows))
    remainder = identity - SuperMatrix(m.sig, m.p, m.q, [
        [_scaled_sum(m.sig, zip(scalars, column)) for column in columns]
        for scalars in body_inv])
    acc = identity
    power = remainder
    limit = max((e.prec for row in remainder.rows for e in row), default=m.sig.cap) + 2 * m.sig.m
    steps = 0
    while not all(e.is_zero() for row in power.rows for e in row):
        acc = acc + power
        power = dot_product(power, remainder)
        steps += 1
        if steps > limit:
            raise SuperMatrixError("matrix geometric series failed to terminate")
    scalar_columns = list(zip(*body_inv))
    return SuperMatrix(m.sig, m.p, m.q, [
        [_scaled_sum(m.sig, zip(scalars, row)) for scalars in scalar_columns]
        for row in acc.rows])


def matrix_outcome(thunk):
    """The entries of the matrix ``thunk()`` returns, or the name and text of
    the ``JetError`` it raises."""
    try:
        return [[(e.prec, e.den, e.terms) for e in row] for row in thunk().rows]
    except JetError as error:
        return type(error).__name__, str(error)


# -- morphisms: component transport (the program uses pull_mvform) ---------------


def pull_vector(phi: Morphism, column):
    """Transport a coefficient column on the target chart to the source chart.

    Components follow (phi* X)^m = sum_k (dphi^-1)^m_k phi#(X^k).
    """
    if len(column) != phi.target.dim:
        raise ChartError("component column has the wrong length")
    return _transport(phi, phi.differential_inverse(), column)


def pull_covector(phi: Morphism, row):
    """Transport a coefficient row via the supertranspose of the differential."""
    if len(row) != phi.target.dim:
        raise ChartError("component row has the wrong length")
    return _transport(phi, phi.differential().supertranspose(), row)


def _transport(phi: Morphism, matrix: SuperMatrix, components):
    """Entries sum_k matrix[m][k] phi#(components[k]); each phi# is taken once."""
    nonzero = [k for k, comp in enumerate(components) if not comp.is_zero()]
    pulled = phi.apply_many(components[k] for k in nonzero)
    out = []
    for mrow in range(phi.source.dim):
        acc = phi.source.zero()
        for k, comp in zip(nonzero, pulled):
            acc = acc + matrix.rows[mrow][k] * comp
        out.append(acc)
    return out


def fixpoint_inverse(phi: Morphism) -> list:
    """Inverse pullbacks by iterating psi <- L^-1 (y - N(psi)), the reference
    for ``invert``.  Every correction raises the total order, so the
    iteration stops; the precisions are those ``substitute`` gives."""
    rows, nonlinear = phi._linear_split()
    source, target = phi.source, phi.target
    sig = target.sig
    coordinates = [target.coordinate(k) for k in range(target.dim)]
    guesses = charts._linear_solve(sig, rows, coordinates)
    for _ in range(sig.cap + 2 * sig.m + 3):
        images = [None] * sig.gen_count()
        for k, guess in enumerate(guesses):
            images[source.gen_id(k)] = guess
        corrections = substitute_many(nonlinear, images, sig)
        new = charts._linear_solve(sig, rows, [y - c for y, c in zip(coordinates, corrections)])
        if new == guesses:
            return guesses
        guesses = new
    raise ChartError("morphism inversion did not stabilise")


# -- the formal-word oracle ------------------------------------------------------
# The package once built a formal word for every product, bracket piece,
# barred derivative and choice of pullback matrix entries, and normalised it
# here.  ``normalise_word`` and the word versions of the operations below
# are the oracle of the stored-term versions; ``WORD_DIGEST`` in
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
# at ``chart.one()``.  ``BiDegree`` and ``commute_sign`` are the exchange sign
# of two homogeneous elements, (-1)^(deg(a)*deg(b) + |a|*|b|), as in the
# ``grading`` module docstring.


def check_parity(value: int) -> int:
    if value not in (0, 1):
        raise ValueError(f"parity must be 0 or 1, got {value!r}")
    return value


@dataclass(frozen=True)
class BiDegree:
    """Cohomological degree and parity of a homogeneous element.

    The cohomological degree is stored as a genuine integer so that the
    (p, q) decomposition stays recoverable; sign rules reduce it mod 2.
    """

    cohom: int
    parity: int

    def __post_init__(self) -> None:
        if self.cohom < 0:
            raise ValueError("cohomological degree must be >= 0")
        check_parity(self.parity)


def commute_sign(a: BiDegree, b: BiDegree) -> int:
    """Sign picked up when two homogeneous elements change places."""
    return koszul(a.cohom * b.cohom + a.parity * b.parity)


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


# -- the word-based wedge and bracket ------------------------------------------------
# ``wedge`` and ``schouten`` as they were before they worked on stored terms:
# every pair of terms, and every summand of the bracket formulas on vector
# fields with left coefficients, became a formal word that ``from_words``
# normalised and summed.


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


# -- the BV peel -------------------------------------------------------------------


def word_extend_delta(delta, alpha):
    """The bracket recursion on formal words: every head and rest form is
    normalised through ``from_words``, and the terms are summed with
    ``Section.__add__``.  Oracle for ``extend_delta``."""
    out = MultiVectorForm.zero(alpha.chart, alpha.prec - 1)
    for key in alpha.terms:
        out = out + _word_extend_term(delta, alpha.chart, term_word(alpha, key))
    return out


def _word_extend_term(delta, chart, word):
    symbols = [item for item in word if item[0] != FUN]
    funs = [item for item in word if item[0] == FUN]
    if not symbols:
        return MultiVectorForm.zero(chart, min(f.prec for _, f in funs) - 1)
    head, rest = symbols[0], symbols[1:] + funs
    head_form = from_words(chart, [(1, [head])])
    rest_form = from_words(chart, [(1, rest)])
    out = schouten(head_form, rest_form) - wedge(head_form, _word_extend_term(delta, chart, rest))
    kind, k = head
    if kind == VEC and not delta.values[k].is_zero():
        out = out + wedge(MultiVectorForm.from_function(chart, delta.values[k]), rest_form)
    return out


def word_sorted_extend_delta(delta, alpha):
    """``extend_delta`` with each key outside normal form sorted by
    ``normalise_word`` on a chart whose odd cap keeps every index, and the
    image's keys past the chart's cap dropped."""
    chart = alpha.chart
    terms = {}
    prec = alpha.prec - 1
    for key, coeff in alpha.terms.items():
        if in_normal_form(chart, key):
            pieces = [(key, coeff)]
        else:
            wide = replace(chart, odd_wedge_cap=len(key[0]) + len(key[1]))
            pieces = normalise_word(wide, term_word(alpha, key)).items()
        for (i_idx, j_idx), piece in pieces:
            image = bvcalc._extend_term(delta, chart, i_idx, j_idx, piece)
            add_terms(terms, [(k, c) for k, c in image.terms.items() if in_normal_form(chart, k)])
            prec = min(prec, image.prec)
    return MultiVectorForm(chart, terms, prec)


def word_extend_delta_right(delta, alpha):
    """``extend_delta_right`` on formal words: every front, tail and
    coefficient form is normalised through ``from_words``."""
    chart = alpha.chart
    out = MultiVectorForm.zero(chart, alpha.prec - 1)
    for key in alpha.terms:
        out = out + _word_extend_term_right(delta, chart, term_word(alpha, key))
    return out


def _word_extend_term_right(delta, chart, word):
    symbols = [item for item in word if item[0] != FUN]
    funs = [item for item in word if item[0] == FUN]
    if not symbols:
        return MultiVectorForm.zero(chart, min((f.prec for _, f in funs), default=chart.sig.cap) - 1)
    last = symbols[-1]
    front = symbols[:-1]
    if not front:
        coeff_form = from_words(chart, [(1, funs or [(FUN, chart.one())])])
        out = schouten(from_words(chart, [(1, [last])]), coeff_form)
        kind, k = last
        if kind == VEC and not delta.values[k].is_zero():
            out = out + wedge(MultiVectorForm.from_function(chart, delta.values[k]), coeff_form)
        return out
    tail_form = from_words(chart, [(1, [last] + funs)])
    front_form = from_words(chart, [(1, front)])
    sign = koszul(len(front))
    bracket = schouten(front_form, tail_form)
    if sign > 0:
        bracket = -bracket
    first = wedge(_word_extend_term_right(delta, chart, front), tail_form)
    second = wedge(front_form, _word_extend_term_right(delta, chart, [last] + funs))
    if sign < 0:
        second = -second
    return bracket + first + second


def recursive_extend_term(delta, chart, i_idx, j_idx, coeff):
    """D of the stored term d xibar^I (x) d/dxi^J . coeff, peeled at its first
    symbol w, one section per peel: the recursion that ``_extend_term``
    unrolls, and its reference.

    * A barred w = d xibar^i brackets to zero and D(w) = 0, so the image is
      D(rest) with i in front of each barred tuple and each coefficient negated.
    * A vector w = d/dxi^j over the rest J' = J[1:], with
      s = koszul(|j| * (|J'[0]| + |J'[1]| + ...)), gives on ((), J') the bracket
      s * d_j(coeff), then minus D(rest) with j in front of each vector tuple,
      then s * D(d/dxi^j) * coeff.
    """
    prec = max(0, coeff.prec - 1)
    if not i_idx and not j_idx:
        return MultiVectorForm.zero(chart, prec)
    if i_idx:
        inner = recursive_extend_term(delta, chart, i_idx[1:], j_idx, coeff)
        terms = {(i_idx[:1] + bars, vecs): -c for (bars, vecs), c in inner.terms.items()}
        return MultiVectorForm(chart, terms, min(prec, inner.prec))
    j, rest = j_idx[0], j_idx[1:]
    sign = koszul(chart.parity(j) * sum(chart.parity(x) for x in rest))
    terms = {}
    bracket = chart.d(coeff, j)
    if not bracket.is_zero():
        terms[((), rest)] = bracket if sign > 0 else -bracket
    inner = recursive_extend_term(delta, chart, (), rest, coeff)
    add_terms(terms, [(((), j_idx[:1] + vecs), -c) for (_, vecs), c in inner.terms.items()])
    prec = min(prec, inner.prec)
    value = delta.values[j]
    if not value.is_zero():
        first = value * coeff
        if not first.is_zero():
            add_terms(terms, [(((), rest), first if sign > 0 else -first)])
        prec = min(prec, value.prec, coeff.prec)
    return MultiVectorForm(chart, terms, prec)


# -- connections -----------------------------------------------------------------
# The covariant derivative, which the program itself never calls, and the
# package's code before the weight solve and the packed-key helpers: the
# coefficient walk through ``coefficient()``, and helpers on ``items()``.


def covariant_derivative(gamma: Christoffel, x_col, y_col):
    """nabla_X Y for coefficient columns, via the Leibniz rule.

    Columns use right components as everywhere else; internally both are
    rewritten with left coefficients, where the covariant derivative reads

        nabla_X (g . d_l) = X(g) . d_l + (-1)^(|X| |g|) g . nabla_X d_l
    """
    chart = gamma.chart
    out_left = [chart.zero() for _ in range(chart.dim)]
    for l in range(chart.dim):
        comp = y_col[l]
        if comp.is_zero():
            continue
        pl = chart.parity(l)
        for part in comp.homogeneous_parts():
            if part.is_zero():
                continue
            g = part if koszul(pl * part.parity()) > 0 else -part
            # first Leibniz term
            out_left[l] = out_left[l] + vector_apply(chart, x_col, g)
            # second: g . nabla_X d_l with X expanded in left components
            for k in range(chart.dim):
                xk = x_col[k]
                if xk.is_zero():
                    continue
                pk = chart.parity(k)
                for xpart in xk.homogeneous_parts():
                    if xpart.is_zero():
                        continue
                    xg = xpart if koszul(pk * xpart.parity()) > 0 else -xpart
                    x_parity = (pk + xpart.parity()) % 2
                    lead = g * xg
                    if koszul(x_parity * part.parity()) < 0:
                        lead = -lead
                    for q in range(chart.dim):
                        sym = gamma.left(q, k, l)
                        if sym.is_zero():
                            continue
                        out_left[q] = out_left[q] + lead * sym
    # back to right components
    out = []
    for q in range(chart.dim):
        pq = chart.parity(q)
        acc = chart.zero()
        for part in out_left[q].homogeneous_parts():
            if part.is_zero():
                continue
            acc = acc + (part if koszul(pq * part.parity()) > 0 else -part)
        out.append(acc)
    return out


def walk_delta_formula(delta: DeltaOperator) -> JetSuperFunction:
    """``solve_delta_formula`` monomial by monomial: the coefficient of a
    monomial with an even exponent comes from its first even direction i,
    [h Delta_i] at the monomial without one z_i, over the exponent of z_i;
    that of a pure odd monomial from its first odd generator."""
    chart = delta.chart
    sig = chart.sig
    for value in delta.values:
        if not value.is_holomorphic():
            raise IntegrabilityError("table entries must be holomorphic")
    for l in range(chart.dim):
        for k in range(chart.dim):
            lhs = chart.d(delta.values[k], l)
            rhs = chart.d(delta.values[l], k)
            if koszul(chart.parity(l) * chart.parity(k)) < 0:
                rhs = -rhs
            if not lhs.agrees_with(rhs):
                raise IntegrabilityError("cross-derivative consistency fails; no local solution")

    n, m, cap = sig.n, sig.m, sig.cap
    coeffs = {((0,) * sig.even_count, ()): GR_ONE}

    def even_vectors(degree, length):
        if length == 0:
            if degree == 0:
                yield ()
            return
        for head in range(degree + 1):
            for tail in even_vectors(degree - head, length - 1):
                yield (head,) + tail

    def monomials_of_degree(total):
        """Holomorphic monomials with even degree + odd count = total."""
        for even_degree in range(0, min(total, cap) + 1):
            odd_count = total - even_degree
            if odd_count > m:
                continue
            for zexp in even_vectors(even_degree, n):
                for subset in itertools.combinations(range(m), odd_count):
                    yield zexp + (0,) * n, subset

    def product_coeff(target_key, u: JetSuperFunction):
        """Coefficient of target_key in h * u, with h known so far."""
        texp, todd = target_key
        acc = GaussianRational.of(0)
        for (hexp, hodd), hc in coeffs.items():
            uexp = tuple(t - e for t, e in zip(texp, hexp))
            if any(e < 0 for e in uexp) or not set(hodd).issubset(todd):
                continue
            uodd = tuple(sorted(set(todd) - set(hodd)))
            uc = u.coefficient(uexp, uodd)
            if not uc:
                continue
            # Koszul sign of merging h's odd part with u's odd part
            value = hc * uc
            acc = acc + (value if koszul(sum(a > b for a in hodd for b in uodd)) > 0 else -value)
        return acc

    for total in range(1, cap + m + 1):
        for exps, odd in monomials_of_degree(total):
            first_even = next((i for i in range(n) if exps[i] > 0), None)
            if first_even is not None:
                lower = exps[:first_even] + (exps[first_even] - 1,) + exps[first_even + 1:]
                value = (product_coeff((lower, odd), delta.values[first_even])
                         / GaussianRational.of(exps[first_even]))
            else:
                value = product_coeff((exps, odd[1:]), delta.values[n + odd[0]])
            if value:
                coeffs[(exps, odd)] = value

    h = JetSuperFunction(sig, coeffs)
    for k in range(chart.dim):
        if not chart.d(h, k).agrees_with(h * delta.values[k]):
            raise IntegrabilityError("solution verification failed")
    return h


def items_t_integrate(f: JetSuperFunction) -> JetSuperFunction:
    terms = {}
    for exps, odd, coeff in f.items():
        new_exp = exps[0] + 1
        terms[((new_exp,) + exps[1:], odd)] = coeff / GaussianRational.of(new_exp)
    return JetSuperFunction(f.sig, terms, min(f.sig.cap, f.prec + 1))


def items_t_truncate(f: JetSuperFunction, order: int) -> JetSuperFunction:
    terms = {(exps, odd): c for exps, odd, c in f.items() if exps[0] <= order}
    return JetSuperFunction(f.sig, terms, f.prec)


def t_shift(f: JetSuperFunction, a: Fraction) -> JetSuperFunction:
    """Exact substitution t -> a + t on a polynomial in the path ring."""
    terms: dict = {}
    for exps, odd, coeff in f.items():
        d = exps[0]
        for j in range(d + 1):
            key = ((j,) + exps[1:], odd)
            factor = GaussianRational.of(comb(d, j) * a ** (d - j))
            terms[key] = terms.get(key, GR_ZERO) + coeff * factor
    return JetSuperFunction(f.sig, terms, f.prec)


def t_evaluate(f: JetSuperFunction, a: Fraction) -> JetSuperFunction:
    """Exact evaluation t = a, keeping the odd parameters."""
    terms: dict = {}
    for exps, odd, coeff in f.items():
        key = ((0,) + exps[1:], odd)
        terms[key] = terms.get(key, GR_ZERO) + coeff * GaussianRational.of(a ** exps[0])
    return JetSuperFunction(f.sig, terms, f.prec)


def odd_pair_unit(chart: Chart, gen: SampleGen) -> JetSuperFunction:
    """An even unit on a chart without even directions: 1 plus sampled
    multiples of each th_a th_b."""
    h = chart.one()
    for a in range(chart.dim):
        for b in range(a + 1, chart.dim):
            h = h + (chart.coordinate(a) * chart.coordinate(b)).scale_numerators(
                *gen._numerators(allow_zero=False), 1)
    return h
