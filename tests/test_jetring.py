import contextlib
import itertools
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from superbv import cli, jetring
from superbv.grading import ODD, reorder_sign
from superbv.jetring import (
    GR_I,
    GR_ONE,
    GaussianRational,
    JetError,
    JetSuperFunction,
    NotAUnitError,
    RingSignature,
    dot,
    jet_sum,
)
from superbv.samples import SampleGen
from oracles import (
    BiDegree, NO_SHRINK, RandomPySampleGen, SIG, SIG22, _holomorphic_terms, _packed, _terms,
    _through, commute_sign, flat_dot, flat_mul, gens, reference_add, reference_conjugate,
    reference_jet_mul as reference_mul, reference_parity, reference_partial, reference_parts,
    reference_render, reference_sum,
)


@st.composite
def jets(draw, sig=SIG, max_terms=4, homogeneous=None):
    term_count = draw(st.integers(min_value=0, max_value=max_terms))
    terms = {}
    for _ in range(term_count):
        exps = tuple(
            draw(st.integers(min_value=0, max_value=2)) for _ in range(sig.even_count)
        )
        if sum(exps) > sig.cap:
            continue
        odd_pool = list(range(sig.odd_count))
        subset = tuple(sorted(draw(st.sets(st.sampled_from(odd_pool), max_size=sig.odd_count))))
        if homogeneous is not None and len(subset) % 2 != homogeneous:
            continue
        coeff = GaussianRational.of(
            draw(st.integers(min_value=-3, max_value=3)),
            draw(st.integers(min_value=-2, max_value=2)),
        )
        if coeff:
            terms[(exps, subset)] = coeff
    return JetSuperFunction(sig, terms)


class TestGaussianRational:
    def test_field_ops(self):
        a = GaussianRational.of(Fraction(1, 2), 3)
        b = GaussianRational.of(2, Fraction(-1, 3))
        assert (a * b) / b == a
        assert a + (-a) == GaussianRational.of(0)
        assert GR_I * GR_I == GaussianRational.of(-1)

    def test_conjugate(self):
        a = GaussianRational.of(2, 5)
        assert a.conjugate() == GaussianRational.of(2, -5)
        assert (a * a.conjugate()).im == 0


class TestMul:
    def test_odd_anticommute(self):
        g = gens(SIG)
        th1, th2 = g["th1"], g["th2"]
        assert (th1 * th2).agrees_with(-(th2 * th1))

    def test_nilpotence(self):
        g = gens(SIG)
        assert (g["th1"] * g["th1"]).is_zero()

    def test_truncated_product(self):
        g = gens(SIG)
        z = g["z1"]
        one = JetSuperFunction.one(SIG)
        lhs = (one + z) * (one - z)
        assert lhs == one - z * z

    def test_cap_truncation(self):
        g = gens(SIG)
        z = g["z1"]
        zz = z * z * z * z  # degree 4 > cap 3
        assert zz.is_zero()

    @given(jets(), jets())
    @settings(max_examples=60, deadline=None)
    def test_supercommutativity(self, f, g):
        for fp in f.homogeneous_parts():
            for gp in g.homogeneous_parts():
                sign = commute_sign(BiDegree(0, fp.parity()), BiDegree(0, gp.parity()))
                rhs = gp * fp
                if sign < 0:
                    rhs = -rhs
                assert (fp * gp).agrees_with(rhs)

    @given(jets(), jets(), jets())
    @settings(max_examples=40, deadline=None)
    def test_associativity(self, f, g, h):
        assert ((f * g) * h).agrees_with(f * (g * h))

    @given(jets(), jets(), jets())
    @settings(max_examples=40, deadline=None)
    def test_distributivity(self, f, g, h):
        assert ((f + g) * h).agrees_with(f * h + g * h)

    def test_signature_mismatch(self):
        with pytest.raises(JetError):
            JetSuperFunction.one(SIG) * JetSuperFunction.one(SIG22)


class TestPartial:
    def test_even_derivative(self):
        g = gens(SIG)
        z = g["z1"]
        d = (z * z).partial(SIG.z(0))
        assert d.agrees_with(z + z)
        assert d.prec == SIG.cap - 1

    def test_left_derivation_sign(self):
        g = gens(SIG)
        th1, th2 = g["th1"], g["th2"]
        # d/dth1 (th2 th1) = -th2 by the left-derivation rule
        assert (th2 * th1).partial(SIG.th(0)).agrees_with(-th2)

    def test_even_coefficient_passes(self):
        g = gens(SIG)
        assert (g["z1"] * g["th1"]).partial(SIG.th(0)).agrees_with(g["z1"])

    @given(jets(homogeneous=0), jets())
    @settings(max_examples=60, deadline=None)
    def test_leibniz(self, f, g):
        for gid in range(SIG.gen_count()):
            gp = SIG.gen_parity(gid)
            for fp in f.homogeneous_parts():
                if fp.is_zero():
                    continue
                lhs = (fp * g).partial(gid)
                sign = -1 if gp * (fp.parity() or 0) % 2 else 1
                second = fp * g.partial(gid)
                rhs = fp.partial(gid) * g + (second if sign > 0 else -second)
                assert lhs.agrees_with(rhs)

    @given(jets())
    @settings(max_examples=40, deadline=None)
    def test_mixed_partials(self, f):
        for a in range(SIG.gen_count()):
            for b in range(a, SIG.gen_count()):
                sign = -1 if SIG.gen_parity(a) * SIG.gen_parity(b) else 1
                lhs = f.partial(a).partial(b)
                rhs = f.partial(b).partial(a)
                assert lhs.agrees_with(rhs if sign > 0 else -rhs)

    def test_odd_square_zero(self):
        g = gens(SIG)
        f = g["th1"] * g["th2"] + g["z1"] * g["th1"]
        assert f.partial(SIG.th(0)).partial(SIG.th(0)).is_zero()

    def test_unknown_generator(self):
        with pytest.raises(JetError):
            JetSuperFunction.one(SIG).partial(99)


class TestInvert:
    def test_identity(self):
        one = JetSuperFunction.one(SIG)
        assert one.invert() == one

    def test_geometric_series(self):
        g = gens(SIG)
        z = g["z1"]
        one = JetSuperFunction.one(SIG)
        inv = (one + z).invert()
        expected = one - z + z * z - z * z * z
        assert inv == expected

    def test_nilpotent_series_terminates(self):
        g = gens(SIG)
        one = JetSuperFunction.one(SIG)
        f = one + g["th1"] * g["th2"]
        assert f.invert() == one - g["th1"] * g["th2"]

    @given(jets(homogeneous=0))
    @settings(max_examples=40, deadline=None)
    def test_two_sided_inverse(self, f):
        f = f + JetSuperFunction.one(SIG)
        if not f.body():
            return
        inv = f.invert()
        one = JetSuperFunction.one(SIG)
        assert (f * inv).agrees_with(one)
        assert (inv * f).agrees_with(one)
        assert inv.invert().agrees_with(f)

    def test_zero_body_rejected(self):
        with pytest.raises(NotAUnitError):
            JetSuperFunction.gen(SIG, SIG.z(0)).invert()

    def test_odd_rejected(self):
        with pytest.raises(JetError):
            JetSuperFunction.gen(SIG, SIG.th(0)).invert()


class TestConjugate:
    def test_swaps_generators(self):
        g = gens(SIG)
        assert g["z1"].conjugate() == g["zb1"]
        assert g["th1"].conjugate() == g["thb1"]

    def test_scalar_conjugation(self):
        f = JetSuperFunction.scalar(SIG, GR_I)
        assert f.conjugate() == JetSuperFunction.scalar(SIG, -GR_I)

    def test_odd_pair_ordering_sign(self):
        g = gens(SIG)
        # conj reverses products: conj(th1 th2) = thb2 thb1 = -thb1 thb2
        assert (g["th1"] * g["th2"]).conjugate().agrees_with(-(g["thb1"] * g["thb2"]))

    @given(jets())
    @settings(max_examples=50, deadline=None)
    def test_involution(self, f):
        assert f.conjugate().conjugate() == f

    @given(jets(), jets())
    @settings(max_examples=50, deadline=None)
    def test_antiautomorphism(self, f, g):
        # order-reversing oracle: conj(f g) = conj(g) conj(f)
        assert (f * g).conjugate().agrees_with(g.conjugate() * f.conjugate())


class TestSubstitute:
    def test_simple_shift(self):
        g = gens(SIG)
        z, th1 = g["z1"], g["th1"]
        f = z * z + th1 * g["th2"]
        images = [None] * SIG.gen_count()
        images[SIG.z(0)] = z + z
        images[SIG.th(0)] = g["th2"]
        images[SIG.th(1)] = g["th1"]
        out = f.substitute(images, SIG)
        expected = (z + z) * (z + z) + g["th2"] * g["th1"]
        assert out.agrees_with(expected)

    def test_parity_checked(self):
        g = gens(SIG)
        images = [None] * SIG.gen_count()
        images[SIG.z(0)] = g["th1"]
        with pytest.raises(JetError):
            g["z1"].substitute(images, SIG)

    def test_pure_odd_image_lowers_precision(self):
        g = gens(SIG)
        images = [None] * SIG.gen_count()
        images[SIG.z(0)] = g["z1"] + g["th1"] * g["th2"]
        out = g["z1"].substitute(images, SIG)
        assert out.prec == SIG.cap - SIG.m


# -- soundness of the substitution precision ------------------------------------------
# An input at cap c stands for every series that agrees with it through its
# ``prec``.  The same inputs at cap c + 2, with random terms past each
# ``prec``, are one such series, so both substitutions must agree through
# the precision claimed at cap c.  Where the deficit exceeds the function's
# precision nothing of the result is known, but the precision is clamped
# at 0, which claims the terms of even degree 0; those cases are counted
# and left out of the comparison (TestClampedDeficit pins one).

# the images of the transform probe, ring 2|2 cap 6:
# zeta1 = z1 + z1^2 + th1*th2, zeta2 = z2, zeta3 = th1, zeta4 = th2
PROBE_IMAGES = (2, 2, 6, [
    {((1, 0, 0, 0), ()): 1, ((2, 0, 0, 0), ()): 1, ((0, 0, 0, 0), (0, 1)): 1},
    {((0, 1, 0, 0), ()): 1},
    {((0, 0, 0, 0), (0,)): 1},
    {((0, 0, 0, 0), (1,)): 1},
])


@st.composite
def substitution_cases(draw, fixed_images=None):
    """``(low, high)``: a holomorphic function and the images of its
    generators at cap c, and the same at cap c + 2 with random terms past
    each precision.  Even images have no constant term, and often an odd
    pair such as ``th1*th2``; precisions go up to two below the cap."""
    if fixed_images is None:
        n, m = draw(st.sampled_from(((1, 1), (1, 2), (2, 2), (1, 3), (2, 3))))
        cap = draw(st.integers(1, 5))
        images = []
        for k in range(n + m):
            parity = int(k >= n)
            terms = _holomorphic_terms(draw, n, m, parity, range(cap + 1), 3)
            if parity == 0:
                terms[tuple(int(g == k) for g in range(2 * n)), ()] = draw(st.integers(1, 2))
                if m >= 2 and draw(st.booleans()):
                    pair = tuple(sorted(draw(st.sets(st.integers(0, m - 1), min_size=2,
                                                     max_size=2))))
                    terms[(0,) * (2 * n), pair] = draw(st.integers(-2, 2).filter(bool))
            else:
                terms[(0,) * (2 * n), (k - n,)] = draw(st.integers(1, 2))
            images.append((terms, draw(st.integers(max(0, cap - 2), cap))))
    else:
        n, m, cap, fixed = fixed_images
        images = [(terms, cap) for terms in fixed]
    parity = draw(st.integers(0, 1))
    function = (_holomorphic_terms(draw, n, m, parity, range(cap + 1), 4),
                draw(st.integers(max(0, cap - 2), cap)), parity)

    def build(sig, tails):
        def jet_of(terms, prec, parity):
            terms = dict(terms)
            if tails:
                terms.update(_holomorphic_terms(draw, n, m, parity,
                                                range(prec + 1, sig.cap + 1), 3))
            gaussian = {key: GaussianRational.of(c) for key, c in terms.items()}
            return JetSuperFunction(sig, gaussian, sig.cap if tails else prec)

        f = jet_of(*function)
        table = [None] * sig.gen_count()
        for k, (terms, prec) in enumerate(images):
            gid = sig.z(k) if k < n else sig.th(k - n)
            table[gid] = jet_of(terms, prec, int(k >= n))
        return f, table, sig

    return build(RingSignature(n, m, cap), False), build(RingSignature(n, m, cap + 2), True)


def clamped(f, images) -> bool:
    """Whether the precision of ``f.substitute(images, ...)`` is a clamp at 0."""
    return f.prec < jetring._image_deficit(f.sig, images)


def compared_soundly(case) -> bool:
    """Whether both substitutions agree through the claimed precision; False
    when the claim is a clamp and nothing is compared."""
    (f, images, sig), (f_high, images_high, sig_high) = case
    if clamped(f, images):
        return False
    low = f.substitute(images, sig)
    high = f_high.substitute(images_high, sig_high)
    assert _through(high, low.prec) == _through(low, low.prec)
    return True


class TestSubstitutionSoundness:
    @pytest.mark.parametrize("cases, examples, least", [
        (substitution_cases(), 300, 200),
        (substitution_cases(PROBE_IMAGES), 30, 30),
    ], ids=["drawn", "probe"])
    def test_agrees_through_the_claimed_precision(self, cases, examples, least):
        compared = []

        @given(cases)
        @settings(max_examples=examples, deadline=None, derandomize=True, phases=NO_SHRINK)
        def check(case):
            compared.append(compared_soundly(case))

        check()
        assert sum(compared) >= least


class TestClampedDeficit:
    def test_a_deficit_past_the_precision_claims_degree_0(self):
        # f = 0 at prec 0 through z1 -> th1*th2 + 2*z1 at 2|2: the deficit 2
        # exceeds the precision, so nothing is known, yet the result claims
        # prec 0; the tail 3*z1 gives the degree-0 term 3*th1*th2
        sig = RingSignature(2, 2, 1)
        g = gens(sig)
        images = [None] * sig.gen_count()
        images[sig.z(0)] = g["th1"] * g["th2"] + g["z1"].scale(GaussianRational.of(2))
        images[sig.z(1)], images[sig.th(0)], images[sig.th(1)] = g["z2"], g["th1"], g["th2"]
        assert clamped(JetSuperFunction.zero(sig, 0), images)
        assert JetSuperFunction.zero(sig, 0).substitute(images, sig).prec == 0
        tail = g["z1"].scale(GaussianRational.of(3)).substitute(images, sig)
        assert _through(tail, 0) == {((0, 0, 0, 0), (0, 1)): GaussianRational.of(3)}


class TestRender:
    def test_polynomial(self):
        g = gens(SIG)
        z = g["z1"]
        one = JetSuperFunction.one(SIG)
        f = one - z + z * z
        assert f.render() == "1 - z1 + z1^2"

    def test_normal_ordered_odd(self):
        g = gens(SIG)
        f = g["th2"] * g["th1"]
        assert f.render() == "-th1*th2"

    def test_complex_coefficients(self):
        f = JetSuperFunction.scalar(SIG, GaussianRational.of(1, 2))
        assert f.render() == "(1 + 2*i)"
        g = JetSuperFunction.gen(SIG, SIG.z(0)).scale(GR_I)
        assert g.render() == "i*z1"

    def test_zero(self):
        assert JetSuperFunction.zero(SIG).render() == "0"

    def test_reduced_fractions(self):
        sig = RingSignature(1, 1, 3)
        z, th = JetSuperFunction.gen(sig, sig.z(0)), JetSuperFunction.gen(sig, sig.th(0))
        f = (JetSuperFunction.scalar(sig, GaussianRational.of(Fraction(-3, 6), Fraction(4, 6)))
             + z.scale(GaussianRational.of(0, Fraction(-2, 6)))
             + (z * th).scale(GaussianRational.of(Fraction(6, 6))))
        assert f.den == 6
        assert f.render() == "-(1/2 - 2/3*i) - 1/3*i*z1 + z1*th1"
        assert f.render() == reference_render(f)


# -- the reference kernel -----------------------------------------------------


ORACLE_SIGS = [RingSignature(0, 1, 2), RingSignature(1, 0, 3), RingSignature(1, 1, 0),
               RingSignature(1, 1, 3), RingSignature(2, 1, 4), RingSignature(2, 2, 4),
               RingSignature(1, 3, 2), RingSignature(3, 3, 6)]


@st.composite
def rational_jets(draw, sig, max_terms=6):
    """Jets with mixed denominators and any precision up to the cap."""
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        exps = tuple(draw(st.integers(min_value=0, max_value=min(2, sig.cap)))
                     for _ in range(sig.even_count))
        odd = tuple(sorted(draw(st.sets(st.integers(min_value=0, max_value=sig.odd_count - 1),
                                        max_size=sig.odd_count)))) if sig.odd_count else ()
        parts = [Fraction(draw(st.integers(min_value=-4, max_value=4)),
                          draw(st.sampled_from((1, 1, 2, 3, 6)))) for _ in range(2)]
        terms[(exps, odd)] = GaussianRational.of(*parts)
    prec = draw(st.integers(min_value=0, max_value=sig.cap))
    return JetSuperFunction(sig, terms, prec)


def jet_pairs():
    return st.sampled_from(ORACLE_SIGS).flatmap(
        lambda sig: st.tuples(rational_jets(sig), rational_jets(sig)))


def _observed(f):
    return _terms(f), f.prec


def odd_monomial(sig, subset):
    return JetSuperFunction(sig, {((0,) * sig.even_count, subset): GR_ONE})


class TestRenderOracle:
    @given(st.sampled_from(ORACLE_SIGS).flatmap(rational_jets),
           st.sampled_from((GR_ONE, GR_I, GaussianRational.of(0, Fraction(-5, 7)),
                            GaussianRational.of(Fraction(3, 4), Fraction(1, 6)))))
    @settings(max_examples=200, deadline=None, derandomize=True, phases=NO_SHRINK)
    def test_matches_the_items_render(self, f, factor):
        # scaling by i turns the real terms pure imaginary; the fractions
        # give non-unit denominators whose gcd with a numerator varies
        g = f.scale(factor)
        assert f.render() == reference_render(f)
        assert g.render() == reference_render(g)


class TestReferenceKernel:
    @given(jet_pairs())
    @settings(max_examples=200, deadline=None, derandomize=True, phases=NO_SHRINK)
    def test_operations_match_reference(self, pair):
        f, g = pair
        assert _observed(f * g) == reference_mul(f, g)
        assert _observed(g * f) == reference_mul(g, f)
        assert _observed(f + g) == reference_add(f, g)
        assert _observed(f.conjugate()) == reference_conjugate(f)
        for gid in range(f.sig.gen_count()):
            assert _observed(f.partial(gid)) == reference_partial(f, gid)

    @given(jet_pairs())
    @settings(max_examples=200, deadline=None, derandomize=True, phases=NO_SHRINK)
    def test_parity_parts_and_empty_products(self, pair):
        f, g = pair
        for x in (f, g, *f.homogeneous_parts(), f - f):
            assert x.parity() == reference_parity(x)
            assert [_packed(part) for part in x.homogeneous_parts()] == \
                [_packed(part) for part in reference_parts(x)]
        empty = g - g
        for product in (f * empty, empty * f):
            assert _packed(product) == ({}, 1, min(f.prec, g.prec))

    @given(jet_pairs())
    @settings(max_examples=100, deadline=None, derandomize=True, phases=NO_SHRINK)
    def test_canonical_denominator(self, pair):
        f, g = pair
        for x in (f, g, f * g, f + g, f - f, f.truncate(1), f.partial(0), *f.homogeneous_parts()):
            assert x.den > 0
            assert gcd(x.den, *(part for pair in x.terms.values() for part in pair)) == 1
            if x.is_zero():
                assert x.den == 1

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_merge_signs_against_grading(self, m):
        """Every pair of odd monomials, against grading.reorder_sign."""
        sig = RingSignature(0, m, 0)
        subsets = [s for size in range(2 * m + 1)
                   for s in itertools.combinations(range(2 * m), size)]
        for s1 in subsets:
            for s2 in subsets:
                product = odd_monomial(sig, s1) * odd_monomial(sig, s2)
                if set(s1) & set(s2):
                    assert product.is_zero()
                    continue
                word = s1 + s2
                order = sorted(range(len(word)), key=word.__getitem__)
                sign = reorder_sign([ODD] * len(word), order)
                assert _terms(product) == {((), tuple(sorted(word))): GaussianRational.of(sign)}


# -- the sum primitives ---------------------------------------------------------
# ``jet_sum`` and ``+`` against ``reference_sum``, and against the fold
# ``zero + j1 + j2 + ...``.  Some addends are negatives of others, so running
# sums cancel partway through.


@st.composite
def sum_inputs(draw):
    sig = draw(st.sampled_from(ORACLE_SIGS))
    jets = draw(st.lists(rational_jets(sig), max_size=5))
    for f in list(jets):
        if draw(st.booleans()):
            jets.insert(draw(st.integers(min_value=0, max_value=len(jets))), -f)
    return sig, jets


class TestSumPrimitives:
    @given(sum_inputs())
    @settings(max_examples=200, deadline=None, derandomize=True, phases=NO_SHRINK)
    def test_sums_match_the_items_sum(self, case):
        sig, jets = case
        expected = reference_sum(sig, jets)
        assert _packed(jet_sum(sig, jets)) == expected
        assert _packed(jet_sum(sig, iter(jets))) == expected
        fold = JetSuperFunction.zero(sig)
        for f in jets:
            fold = fold + f
        assert _packed(fold) == expected
        for f, g in zip(jets, jets[1:]):
            assert _packed(f + g) == reference_sum(sig, [f, g])
            assert _packed(f - f) == ({}, 1, f.prec)

    @pytest.mark.parametrize("sig", ORACLE_SIGS)
    def test_empty_sum_is_zero_at_the_cap(self, sig):
        assert _packed(jet_sum(sig, [])) == ({}, 1, sig.cap)

    def test_a_jet_of_another_ring_raises(self):
        other = JetSuperFunction.one(SIG22)
        with pytest.raises(JetError, match="signature mismatch"):
            jet_sum(SIG, [JetSuperFunction.one(SIG), other])
        with pytest.raises(JetError, match="signature mismatch"):
            JetSuperFunction.one(SIG) + other
        with pytest.raises(JetError, match="signature mismatch"):
            jet_sum(SIG, [other])


# -- the flat term-product loop ------------------------------------------------
# The kernel must match ``flat_mul`` and ``flat_dot`` term for term, in ``den``
# and in ``prec``, on both sides of its size threshold.


@contextlib.contextmanager
def flat_pairs(value):
    """Run the kernel with another size threshold; 0 indexes every product."""
    saved = jetring._FLAT_PAIRS
    jetring._FLAT_PAIRS = value
    try:
        yield
    finally:
        jetring._FLAT_PAIRS = saved


# both paths of the kernel: the real threshold, and the index on every product
THRESHOLDS = (jetring._FLAT_PAIRS, 0)

KERNEL_SIGS = [RingSignature(n, m, cap) for n in range(4) for m in range(4) for cap in range(7)
               if n or m]


@st.composite
def dense_jets(draw, sig, max_terms=24, key=None, prec=None):
    """Jets of up to ``max_terms`` terms with mixed denominators, at ``prec``
    or at a drawn precision; ``key(draw)`` may draw each ``(exps, odd)``."""
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        if key is None:
            exps = tuple(draw(st.integers(min_value=0, max_value=min(sig.cap, 3)))
                         for _ in range(sig.even_count))
            odd = tuple(sorted(draw(st.sets(st.integers(0, sig.odd_count - 1),
                                            max_size=sig.odd_count)))) if sig.odd_count else ()
        else:
            exps, odd = key(draw)
        parts = [Fraction(draw(st.integers(min_value=-6, max_value=6)),
                          draw(st.sampled_from((1, 2, 3, 5, 6)))) for _ in range(2)]
        terms[(exps, odd)] = GaussianRational.of(*parts)
    if prec is None:
        prec = draw(st.integers(min_value=0, max_value=sig.cap))
    return JetSuperFunction(sig, terms, prec)


def dense_pairs():
    return st.sampled_from(KERNEL_SIGS).flatmap(
        lambda sig: st.tuples(dense_jets(sig), dense_jets(sig)))


def dot_inputs():
    return st.sampled_from(KERNEL_SIGS).flatmap(
        lambda sig: st.tuples(st.just(sig), st.lists(
            st.tuples(dense_jets(sig, max_terms=12), dense_jets(sig, max_terms=12)),
            max_size=4)))


@st.composite
def vanishing_pairs(draw):
    """Nonzero factors at full precision whose every term product either
    repeats an odd generator or lies past the cap, but not both kinds."""
    sig = draw(st.sampled_from([s for s in KERNEL_SIGS if s.m or (s.n and s.cap)]))
    overlap = draw(st.booleans()) if sig.m and sig.n and sig.cap else bool(sig.m)
    if overlap:
        shared = draw(st.integers(0, sig.odd_count - 1))
        degrees = (None, None)
    else:
        first = draw(st.integers(min_value=1, max_value=sig.cap))
        degrees = (first, draw(st.integers(min_value=sig.cap + 1 - first, max_value=sig.cap)))

    def key_of_degree(degree):
        def key(draw):
            if degree is None:
                exps = tuple(draw(st.integers(0, min(sig.cap, 2))) for _ in range(sig.even_count))
            else:
                exps = [0] * sig.even_count
                for _ in range(degree):
                    exps[draw(st.integers(0, sig.even_count - 1))] += 1
                exps = tuple(exps)
            odd = draw(st.sets(st.integers(0, sig.odd_count - 1), max_size=sig.odd_count)) \
                if sig.odd_count else set()
            if overlap:
                odd.add(shared)
            return exps, tuple(sorted(odd))
        return key

    f, g = (draw(dense_jets(sig, key=key_of_degree(degree), prec=sig.cap)
                 .filter(lambda x: not x.is_zero())) for degree in degrees)
    return sig, f, g


class TestTermProductKernel:
    @given(dense_pairs())
    @settings(max_examples=150, deadline=None, derandomize=True, phases=NO_SHRINK)
    def test_product_matches_flat_loop(self, pair):
        f, g = pair
        for threshold in THRESHOLDS:
            with flat_pairs(threshold):
                assert _packed(f * g) == flat_mul(f, g)
                assert _packed(g * f) == flat_mul(g, f)

    @given(dot_inputs())
    @settings(max_examples=100, deadline=None, derandomize=True, phases=NO_SHRINK)
    def test_dot_matches_flat_loop(self, case):
        sig, pairs = case
        for threshold in THRESHOLDS:
            with flat_pairs(threshold):
                assert _packed(dot(sig, pairs)) == flat_dot(sig, pairs)

    @given(vanishing_pairs())
    @settings(max_examples=80, deadline=None, derandomize=True, phases=NO_SHRINK)
    def test_vanishing_products_are_the_canonical_zero(self, case):
        sig, f, g = case
        for threshold in THRESHOLDS:
            with flat_pairs(threshold):
                for x in (f * g, g * f, dot(sig, [(f, g), (g, f)])):
                    assert x.terms == {} and x.den == 1 and x.prec == sig.cap

    @pytest.mark.parametrize("sig", [RingSignature(2, 2, 6), RingSignature(3, 3, 6)])
    def test_both_sides_of_the_threshold(self, sig):
        gen = SampleGen(sig.n * 10 + sig.m)
        one = JetSuperFunction.one(sig)
        small = [gen.jet(sig, max_terms=3, max_even_degree=2) for _ in range(4)]
        dense = (one + small[0] + small[1]) * (one + small[1] + small[2]) * (one + small[2] + small[3])
        dense = dense.scale(GaussianRational.of(Fraction(2, 3), Fraction(-1, 5)))
        products = [(small[0], small[1]), (small[2], dense), (dense, small[3]), (dense, dense)]
        sizes = [len(a.terms) * len(b.terms) for a, b in products]
        assert min(sizes) < jetring._FLAT_PAIRS <= max(sizes)
        for a, b in products:
            assert _packed(a * b) == flat_mul(a, b)
        assert _packed(dot(sig, products)) == flat_dot(sig, products)


class TestSmallAndLargeSignatures:
    def test_no_generators(self):
        sig = RingSignature(0, 0, 0)
        a = JetSuperFunction.scalar(sig, GaussianRational.of(Fraction(1, 3), Fraction(1, 6)))
        b = JetSuperFunction.scalar(sig, GaussianRational.of(Fraction(2, 5)))
        assert (a * b).body() == GaussianRational.of(Fraction(2, 15), Fraction(1, 15))
        assert (a * b).render() == "(2/15 + 1/15*i)"
        assert (a * a.invert()) == JetSuperFunction.one(sig)
        assert _observed(a * b) == reference_mul(a, b)

    def test_even_generators_at_cap_zero(self):
        sig = RingSignature(3, 0, 0)
        z = [JetSuperFunction.gen(sig, gid) for gid in range(sig.gen_count())]
        assert all(x.is_zero() and x.prec == 0 for x in z)
        two = JetSuperFunction.scalar(sig, GaussianRational.of(2))
        f = two + z[0]
        assert f * f == JetSuperFunction.scalar(sig, GaussianRational.of(4))
        assert (f * z[1]).is_zero()

    def test_twelve_odd_pairs_stay_bounded(self, tmp_path, capsys):
        scenario_file = tmp_path / "s.sbv"
        scenario_file.write_text(
            "ring 1|12 cap 2;\n"
            "let f = th1*th2*th3*th4*th5*th6 + th7*th8*th9*th10*th11*th12;\n",
            encoding="utf-8")
        start = time.perf_counter()
        code = cli.main(["eval", str(scenario_file), "--expr", "f*f + (1+f)^3"])
        elapsed = time.perf_counter() - start
        assert code == 0
        assert capsys.readouterr().out == (
            "1 + 3*th1*th2*th3*th4*th5*th6"
            " + 8*th1*th2*th3*th4*th5*th6*th7*th8*th9*th10*th11*th12"
            " + 3*th7*th8*th9*th10*th11*th12\n")
        assert elapsed < 10


# -- sampled jets --------------------------------------------------------------


@st.composite
def sample_jet_cases(draw):
    n, m = draw(st.sampled_from([(0, 1), (1, 0), (1, 1), (2, 1), (2, 2), (1, 3)]))
    sig = RingSignature(n, m, draw(st.sampled_from([0, 1, 2, 4, 6])))
    options = {
        "max_terms": draw(st.integers(min_value=1, max_value=8)),
        "max_even_degree": draw(st.integers(min_value=0, max_value=3)) if n else 0,
        "holomorphic": draw(st.booleans()),
        "parity": draw(st.sampled_from([None, 0, 1] if m else [None, 0])),
        "allow_constant": draw(st.booleans()),
    }
    return draw(st.integers(min_value=0, max_value=10 ** 6)), sig, options


class TestSampledJets:
    @given(sample_jet_cases())
    @settings(max_examples=200, deadline=None, derandomize=True, phases=NO_SHRINK)
    def test_same_jet_and_stream_as_rational_draw(self, case):
        seed, sig, options = case
        packed, rational = SampleGen(seed), RandomPySampleGen(seed)
        try:
            want = rational.jet(sig, **options)
        except RuntimeError:
            with pytest.raises(RuntimeError):
                packed.jet(sig, **options)
            return
        got = packed.jet(sig, **options)
        assert (got.terms, got.den, got.prec) == (want.terms, want.den, want.prec)
        assert list(got.terms) == list(want.terms)
        assert packed.rng.random() == rational.rng.random()
