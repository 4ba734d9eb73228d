import gc
import weakref
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from superbv import charts, supermatrix
from superbv.charts import (
    BerSection,
    Chart,
    ChartError,
    Morphism,
    pull_ber,
    vector_apply,
)
from superbv.dsl import parse
from superbv.jetring import (
    GaussianRational,
    JetError,
    JetSuperFunction,
    RingSignature,
)
from superbv.samples import SampleGen
from superbv.supermatrix import SuperMatrix
from oracles import (
    CHARTS, NO_SHRINK, SIG11, SIG21, SIG22, _holomorphic_terms, _through, fixpoint_inverse,
    matrix_outcome as _matrix_outcome, pull_covector, pull_vector,
)


def differential_of_function(chart: Chart, f: JetSuperFunction):
    """Coefficient row of df against the basis (d xi^k)."""
    return [chart.d(f, k) for k in range(chart.dim)]


def pair(chart: Chart, row, column) -> JetSuperFunction:
    """Evaluate a covector row on a vector column.

    Uses d xi^j (d/d xi^k) = (-1)^|j| delta^j_k together with the Koszul sign
    for moving the row coefficient past the coordinate derivation.
    """
    acc = chart.zero()
    for k in range(chart.dim):
        c, v = row[k], column[k]
        if c.is_zero() or v.is_zero():
            continue
        pk = chart.parity(k)
        for part in c.homogeneous_parts():
            if part.is_zero():
                continue
            term = part * v
            if (pk * (1 + part.parity())) % 2:
                term = -term
            acc = acc + term
    return acc


def basis_column(chart, k):
    return [chart.one() if i == k else chart.zero() for i in range(chart.dim)]


def column_agrees(a, b):
    return all(x.agrees_with(y) for x, y in zip(a, b))


def test_parity_by_direction():
    chart = Chart(RingSignature(2, 3, 2))
    assert [chart.parity(k) for k in range(chart.dim)] == [0, 0, 1, 1, 1]
    for k in (-1, chart.dim):
        with pytest.raises(ChartError, match="out of range"):
            chart.parity(k)


class TestDifferential:
    def test_identity(self):
        for chart in CHARTS:
            d = Morphism.identity(chart).differential()
            assert d.agrees_with(SuperMatrix.identity(chart.sig, chart.sig.n, chart.sig.m))

    def test_linear_parity_diagonal_map(self):
        chart = Chart(SIG22)
        sig = SIG22
        a = GaussianRational.of(2)
        pullbacks = [chart.coordinate(0).scale(a), chart.coordinate(1),
                     chart.coordinate(2), chart.coordinate(3).scale(a)]
        d = Morphism(chart, Chart(sig, name="zeta"), pullbacks).differential()
        expected = SuperMatrix.identity(sig, 2, 2)
        rows = [row[:] for row in expected.rows]
        rows[0][0] = rows[0][0].scale(a)
        rows[3][3] = rows[3][3].scale(a)
        assert d.agrees_with(SuperMatrix(sig, 2, 2, rows))

    def test_explicit_1_1_example(self):
        chart = Chart(SIG11)
        z = chart.coordinate(0)
        th = chart.coordinate(1)
        phi = Morphism(chart, Chart(SIG11, name="zeta"), [z, (chart.one() + z) * th])
        d = phi.differential()
        assert d.rows[0][0].agrees_with(chart.one())
        assert d.rows[0][1].is_zero()
        # (-1)^((|z|+|th|)|th|) d((1+z)th)/dz = -th
        assert d.rows[1][0].agrees_with(-th)
        assert d.rows[1][1].agrees_with(chart.one() + z)

    def test_hessian_symmetry(self):
        # d_j dphi^m_n = (-1)^(|n||j| + |n||m| + |j||m|) d_n dphi^m_j
        gen = SampleGen(101)
        for chart in CHARTS:
            phi = gen.invertible_morphism(chart)
            d = phi.differential()
            for mrow in range(chart.dim):
                pm = chart.parity(mrow)
                for nn in range(chart.dim):
                    for j in range(chart.dim):
                        pn, pj = chart.parity(nn), chart.parity(j)
                        lhs = chart.d(d.rows[mrow][nn], j)
                        rhs = chart.d(d.rows[mrow][j], nn)
                        if (pn * pj + pn * pm + pj * pm) % 2:
                            rhs = -rhs
                        assert lhs.agrees_with(rhs)


class TestApplyAndCompose:
    def test_apply_is_ring_map(self):
        gen = SampleGen(5)
        for chart in CHARTS:
            phi = gen.invertible_morphism(chart)
            target = phi.target
            f = gen.jet(target.sig)
            g = gen.jet(target.sig)
            assert phi.apply(f * g).agrees_with(phi.apply(f) * phi.apply(g))
            assert phi.apply(f + g).agrees_with(phi.apply(f) + phi.apply(g))

    def test_apply_respects_conjugation(self):
        gen = SampleGen(17)
        chart = Chart(SIG21)
        phi = gen.invertible_morphism(chart)
        f = gen.jet(phi.target.sig)
        assert phi.apply(f.conjugate()).agrees_with(phi.apply(f).conjugate())

    def test_compose_identity(self):
        gen = SampleGen(3)
        chart = Chart(SIG11)
        phi = gen.invertible_morphism(chart)
        ident_src = Morphism.identity(chart)
        assert all(a.agrees_with(b) for a, b in
                   zip(phi.compose(ident_src).pullbacks, phi.pullbacks))

    def test_linear_maps_compose_as_matrices(self):
        chart = Chart(SIG11)
        z, th = chart.coordinate(0), chart.coordinate(1)
        two = GaussianRational.of(2)
        three = GaussianRational.of(3)
        phi = Morphism(chart, Chart(SIG11, name="zeta"), [z.scale(two), th])
        psi = Morphism(Chart(SIG11, name="zeta"), Chart(SIG11, name="pi"), [
            Chart(SIG11, name="zeta").coordinate(0).scale(three),
            Chart(SIG11, name="zeta").coordinate(1),
        ])
        comp = psi.compose(phi)
        assert comp.pullbacks[0].agrees_with(z.scale(two * three))

    def test_chain_rule(self):
        # d(psi o phi)^l_k = phi#(dpsi^l_i) dphi^i_k, entries multiplied in order
        gen = SampleGen(29)
        for chart in CHARTS:
            phi = gen.invertible_morphism(chart)
            psi = gen.invertible_morphism(phi.target)
            comp = psi.compose(phi)
            lhs = comp.differential()
            dpsi = psi.differential()
            dphi = phi.differential()
            pulled = SuperMatrix(chart.sig, chart.sig.n, chart.sig.m,
                                 [[phi.apply(e) for e in row] for row in dpsi.rows])
            assert lhs.agrees_with(pulled * dphi)


class TestInvertMorphism:
    def test_identity(self):
        chart = Chart(SIG11)
        inv = Morphism.identity(chart).invert()
        assert all(a.agrees_with(b) for a, b in
                   zip(inv.pullbacks, Morphism.identity(chart).pullbacks))

    def test_linear_scalar(self):
        sig = RingSignature(n=1, m=0, cap=4)
        chart = Chart(sig)
        z = chart.coordinate(0)
        phi = Morphism(chart, Chart(sig, name="zeta"), [z.scale(GaussianRational.of(2))])
        inv = phi.invert()
        half = GaussianRational.of(1) / GaussianRational.of(2)
        assert inv.pullbacks[0].agrees_with(Chart(sig, name="zeta").coordinate(0).scale(half))

    def test_formal_inverse_round_trip(self):
        gen = SampleGen(41)
        for chart in CHARTS:
            for _ in range(3):
                phi = gen.invertible_morphism(chart)
                psi = phi.invert()
                comp = psi.compose(phi)
                for k in range(chart.dim):
                    assert comp.pullbacks[k].agrees_with(chart.coordinate(k))
                comp2 = phi.compose(psi)
                for k in range(chart.dim):
                    assert comp2.pullbacks[k].agrees_with(phi.target.coordinate(k))

    def test_differential_inverse_identity(self):
        # (dphi^-1)^l_m = phi#(d(phi^-1)^l_m)
        gen = SampleGen(59)
        for chart in CHARTS:
            phi = gen.invertible_morphism(chart)
            lhs = phi.differential().inverse()
            dpsi = phi.invert().differential()
            rhs_rows = [[phi.apply(phi_inv_entry) for phi_inv_entry in row] for row in dpsi.rows]
            rhs = SuperMatrix(chart.sig, chart.sig.n, chart.sig.m, rhs_rows)
            assert lhs.agrees_with(rhs)

    def test_rejects_noninvertible_linear_part(self):
        chart = Chart(SIG11)
        z = chart.coordinate(0)
        with pytest.raises(ChartError):
            Morphism(chart, Chart(SIG11, name="zeta"), [z * z, chart.coordinate(1)]).invert()


# -- the weight solve against the fixpoint -------------------------------------------


def has_odd_pair(even_images) -> bool:
    """Whether an even image has a term of even degree 0, such as
    ``th1*th2``, through which ``substitute`` charges a precision deficit."""
    return any(key >> image.sig._layout.shift == 0 for image in even_images
               for key in image.terms)


def _monomial(draw, sig, parity):
    """Exponents and odd subset of one holomorphic monomial of weight at
    least 2, with no term of even degree 0 in an even image."""
    while True:
        exps = [0] * sig.even_count
        for _ in range(draw(st.integers(0, min(3, sig.cap)))):
            exps[draw(st.integers(0, sig.n - 1))] += 1
        odd = sorted(draw(st.sets(st.integers(0, sig.m - 1), max_size=3)))
        if len(odd) % 2 != parity or sum(exps) + len(odd) < 2:
            continue
        if parity == 0 and sum(exps) == 0:
            continue
        return tuple(exps), tuple(odd)


@st.composite
def inverse_cases(draw, pure_odd=False):
    """Invertible holomorphic maps on 1|1 .. 3|3 at caps 1-6: triangular
    linear blocks, up to three nonlinear terms per image, pullbacks
    truncated below the cap, and with ``pure_odd`` a term ``th_a*th_b`` of
    even degree 0 in the first even image (on rings with m >= 2)."""
    shapes = ((2, 2), (1, 3), (3, 3)) if pure_odd else ((1, 1), (2, 1), (2, 2), (1, 3), (3, 3))
    n, m = draw(st.sampled_from(shapes))
    # 3|3 stops at cap 4, where the reference fixpoint takes up to 0.2 s a
    # map; the 3|3 transform digests in test_golden cover cap 6
    sig = RingSignature(n, m, draw(st.integers(1, 4 if n == 3 else 6)))
    chart = Chart(sig)
    truncated = draw(st.booleans())
    scalars = st.builds(GaussianRational.of, st.integers(-3, 3),
                        st.sampled_from((0, 0, 1, -2, Fraction(1, 2))))
    pullbacks = []
    for i in range(chart.dim):
        parity = chart.parity(i)
        block = range(n) if parity == 0 else range(n, n + m)
        terms = {}
        for k in block:
            coeff = draw(scalars) if k != i else draw(scalars.filter(bool))
            if k <= i and coeff:
                exps = tuple(int(g == k) for g in range(sig.even_count))
                terms[(exps, ()) if parity == 0 else ((0,) * sig.even_count, (k - n,))] = coeff
        for _ in range(draw(st.integers(0, 3))):
            terms[_monomial(draw, sig, parity)] = draw(scalars.filter(bool))
        if pure_odd and i == 0:
            odd = tuple(sorted(draw(st.sets(st.integers(0, m - 1), min_size=2, max_size=2))))
            terms[((0,) * sig.even_count, odd)] = draw(scalars.filter(bool))
        prec = draw(st.integers(max(1, sig.cap - 2), sig.cap)) if truncated else sig.cap
        pullbacks.append(JetSuperFunction(sig, terms, prec))
    return Morphism(chart, Chart(sig, name="zeta"), pullbacks)


def _outcome(thunk):
    try:
        return [(f.prec, f.den, f.terms) for f in thunk()]
    except ChartError as error:
        return str(error)


class TestWeightInverse:
    @given(inverse_cases())
    @settings(max_examples=80, deadline=None, derandomize=True, phases=NO_SHRINK)
    def test_equals_the_fixpoint(self, phi):
        new, want = phi.invert().pullbacks, fixpoint_inverse(phi)
        assert _outcome(lambda: new) == _outcome(lambda: want)
        assert [f.render() for f in new] == [f.render() for f in want]

    @given(inverse_cases(pure_odd=True))
    @settings(max_examples=30, deadline=None, derandomize=True, phases=NO_SHRINK)
    def test_odd_pair_in_an_even_image_equals_the_fixpoint(self, phi):
        assert has_odd_pair(phi.pullbacks[:phi.source.sig.n])
        assert _outcome(lambda: phi.invert().pullbacks) == _outcome(lambda: fixpoint_inverse(phi))

    def test_truncated_pullbacks_keep_the_recurrence_precision(self):
        sig = RingSignature(2, 1, 6)
        chart = Chart(sig)
        z1, z2, th = (chart.coordinate(k) for k in range(3))
        phi = Morphism(chart, Chart(sig, name="zeta"),
                       [(z1 + z2 * z2).truncate(4), z2 + z1 * z1 * z2, th + z1 * th])
        inverse = phi.invert().pullbacks
        # the even block is cut to 4 by the first image; the odd image uses
        # z1, so it is cut to 4 as well
        assert [f.prec for f in inverse] == [4, 4, 4]
        assert _outcome(lambda: inverse) == _outcome(lambda: fixpoint_inverse(phi))

    def test_odd_pair_charges_the_deficit_to_every_image(self):
        phi = parse(TRANSFORM_PROBE).morphisms["phi"]
        inverse = phi.invert().pullbacks
        # psi_1 has the term -th1*th2, so every N_k, zero or not, is known
        # through 6 - m = 4 only: its unknown tail may use z1
        assert [f.prec for f in inverse] == [4, 4, 4, 4]
        assert _outcome(lambda: inverse) == _outcome(lambda: fixpoint_inverse(phi))

    def test_weight_solve_does_not_substitute(self, monkeypatch):
        phi = SampleGen(17).invertible_morphism(Chart(RingSignature(2, 2, 6)))
        want = _outcome(lambda: fixpoint_inverse(phi))

        def refuse(*args, **kwargs):
            raise AssertionError("the weight solve called substitute_many")

        monkeypatch.setattr(charts, "substitute_many", refuse)
        assert _outcome(lambda: phi.invert().pullbacks) == want

    def test_rejects_a_barred_term(self):
        sig = RingSignature(2, 1, 4)
        chart = Chart(sig)
        zb2 = JetSuperFunction.gen(sig, sig.zb(1))
        phi = Morphism(chart, Chart(sig, name="zeta"),
                       [chart.coordinate(0) + zb2, chart.coordinate(1), chart.coordinate(2)])
        with pytest.raises(ChartError, match="only holomorphic morphisms can be inverted"):
            phi.invert()


@st.composite
def lifted_inverse_cases(draw):
    """``(phi, lifted)``: an ``inverse_cases`` map at cap c, half of them
    with an odd pair in an even image, and the same map at cap c + 2 with
    random terms past each pullback's precision."""
    phi = draw(inverse_cases(pure_odd=draw(st.booleans())))
    sig = phi.source.sig
    high = RingSignature(sig.n, sig.m, sig.cap + 2)
    pullbacks = []
    for k, f in enumerate(phi.pullbacks):
        terms = {(exps, odd): c for exps, odd, c in f.items()}
        tail = _holomorphic_terms(draw, sig.n, sig.m, phi.source.parity(k),
                                  range(f.prec + 1, high.cap + 1), 3)
        terms.update((key, GaussianRational.of(c)) for key, c in tail.items())
        pullbacks.append(JetSuperFunction(high, terms, high.cap))
    return phi, Morphism(Chart(high), Chart(high, name="zeta"), pullbacks)


class TestInverseSoundness:
    """The inverse at cap c against the inverse of the same map at cap
    c + 2 with random tails: they agree through each claimed precision."""

    def test_agrees_through_the_claimed_precisions(self):
        compared = Counter()

        @given(lifted_inverse_cases())
        @settings(max_examples=100, deadline=None, derandomize=True, phases=NO_SHRINK)
        def check(case):
            phi, lifted = case
            low = phi.invert().pullbacks
            paired = has_odd_pair(low[:phi.source.sig.n])
            # a deficit past a pullback's precision is clamped at 0 (see
            # test_jetring.TestClampedDeficit): nothing is claimed there
            if paired and min(f.prec for f in phi.pullbacks) < phi.source.sig.m:
                return
            for mine, wider in zip(low, lifted.invert().pullbacks):
                assert _through(wider, mine.prec) == _through(mine, mine.prec)
            compared["paired" if paired else "pair-free"] += 1

        check()
        assert compared["paired"] >= 12 and compared["pair-free"] >= 40, compared

    def test_odd_images_take_the_deficit_too(self):
        # on 1|3 the odd pair th1*th2 times th3 survives, so a tail z1^5*th3
        # of the last image reaches psi_4 at even degree 4: only the deficit
        # charged to every image keeps psi_4's precision below it
        images = "zeta1 = z1 + th1*th2; zeta2 = th1; zeta3 = th2; zeta4 = th3{};"
        psi = parse(f"ring 1|3 cap 4;\nmap phi {{ {images.format('')} }}\n").morphisms["phi"].invert()
        # at cap 8 the wider inverse is known through 8 - 3 = 5
        wider = parse(f"ring 1|3 cap 8;\nmap phi {{ {images.format(' + z1^5*th3')} }}\n")
        wider = wider.morphisms["phi"].invert()
        assert [f.prec for f in psi.pullbacks] == [1, 1, 1, 1]
        assert [f.prec for f in wider.pullbacks] == [5, 5, 5, 5]
        assert _through(wider.pullbacks[3], 4) != _through(psi.pullbacks[3], 4)
        for mine, wide in zip(psi.pullbacks, wider.pullbacks):
            assert _through(wide, mine.prec) == _through(mine, mine.prec)


# -- the inverse Jacobian of an inverse map by the chain rule ------------------------

# the map of ``bench/workloads.py`` (transform_cap6): ring 2|2 cap 6, dense inverse
CAP6_MAP_SHAPE = (
    "{}*z1 + {}*z2 + {}*z1^2 + {}*z2*th1*th2",
    "{}*z2 + {}*z1*z2^2",
    "{}*th1 + {}*z1*th1",
    "{}*th2 + {}*th1 + {}*z2*th2",
)
# the bench probe: an odd pair in an even image, so its inverse charges a deficit
TRANSFORM_PROBE = """\
ring 2|2 cap 6;
map phi { zeta1 = z1 + z1^2 + th1*th2; zeta2 = z2; zeta3 = th1; zeta4 = th2; }
"""


@st.composite
def cap6_maps(draw):
    """Maps of the transform_cap6 shape, with coefficients re + im*i whose
    parts are drawn from -5..5 without 0."""
    part = st.integers(1, 5).flatmap(lambda x: st.sampled_from((x, -x)))

    def fill(shape):
        return shape.format(*(f"({draw(part)} + ({draw(part)})*i)" for _ in range(shape.count("{}"))))

    images = " ".join(f"zeta{k + 1} = {fill(shape)};" for k, shape in enumerate(CAP6_MAP_SHAPE))
    return parse(f"ring 2|2 cap 6;\nmap phi {{ {images} }}\n").morphisms["phi"]


@st.composite
def sample_maps(draw):
    """``SampleGen.invertible_morphism`` maps on 1|1 .. 3|3 at caps 1-6,
    half of them with pullbacks truncated up to two below the cap."""
    n, m = draw(st.sampled_from(((1, 1), (2, 1), (1, 2), (2, 2), (1, 3), (3, 3))))
    sig = RingSignature(n, m, draw(st.integers(1, 6)))
    phi = SampleGen(draw(st.integers(0, 2 ** 16))).invertible_morphism(Chart(sig))
    if not draw(st.booleans()):
        return phi
    precs = [draw(st.integers(max(0, sig.cap - 2), sig.cap)) for _ in phi.pullbacks]
    return Morphism(phi.source, phi.target, [f.truncate(p) for f, p in zip(phi.pullbacks, precs)])


def _chain_and_series(phi, short=None):
    """``(path, chain outcome, series outcome)`` of the inverse Jacobian of
    the inverse of ``phi``, or None when ``phi`` has no inverse.  With
    ``short``, a chain path is taken again with the exact inverse truncated
    ``short`` below its floor, and its outcome must be the series'."""
    try:
        psi = phi.invert()
    except JetError:
        return None
    with mock.patch.object(supermatrix, "_truncated_inverse",
                           wraps=supermatrix._truncated_inverse) as chain:
        got = _matrix_outcome(psi.differential_inverse)
    matrix = psi.differential()
    want = _matrix_outcome(matrix.inverse)
    if short is not None and chain.called:
        _, exact, floor, *_ = chain.call_args.args
        cut = SuperMatrix(matrix.sig, matrix.p, matrix.q,
                          [[e.truncate(floor - short) for e in row] for row in exact])
        assert _matrix_outcome(lambda: matrix.inverse(lambda floor: cut)) == want
    return "chain" if chain.called else "series", got, want


class TestChainRuleInverse:
    """``differential_inverse`` of an inverse map, (dphi) o psi where the
    series settles, against ``SuperMatrix.inverse`` by its series."""

    @pytest.mark.parametrize("maps, examples, want_paths", [
        (cap6_maps(), 15, {"chain"}),
        (sample_maps(), 400, {"chain", "series"}),
    ], ids=["cap6", "samples"])
    def test_equals_the_series(self, maps, examples, want_paths):
        paths = Counter()

        @given(maps, st.integers(1, 3))
        @settings(max_examples=examples, deadline=None, derandomize=True, phases=NO_SHRINK)
        def check(phi, short):
            outcome = _chain_and_series(phi, short)
            if outcome is not None:
                path, got, want = outcome
                paths[path] += 1
                assert got == want

        check()
        assert set(paths) == want_paths

    def test_probe_inverts_as_the_series(self):
        path, got, want = _chain_and_series(parse(TRANSFORM_PROBE).morphisms["phi"], 1)
        assert path == "series"
        assert isinstance(got, list) and got == want

    def test_inverse_holds_no_reference_to_the_map(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            drawn = SampleGen(5).invertible_morphism(Chart(SIG22))
            # a subclass without __slots__ takes weak references
            phi = type("Referable", (Morphism,), {})(drawn.source, drawn.target, drawn.pullbacks)
            psi = phi.invert()
            alive = weakref.ref(phi)
            del phi
            assert alive() is None
            assert psi.differential_inverse().size == 4
        finally:
            if enabled:
                gc.enable()


class TestVectorCalculus:
    def test_vector_action_matches_operator_pullback(self):
        # (phi* d/dxi^k)(g) = phi#( d/dxi^k ( (phi^-1)# g ) )
        gen = SampleGen(71)
        for chart in CHARTS:
            phi = gen.invertible_morphism(chart)
            psi = phi.invert()
            g = gen.jet(chart.sig)
            for k in range(chart.dim):
                pulled = pull_vector(phi, basis_column(phi.target, k))
                lhs = vector_apply(chart, pulled, g)
                rhs = phi.apply(phi.target.d(psi.apply(g), k))
                assert lhs.agrees_with(rhs)

    def test_pull_vector_identity(self):
        chart = Chart(SIG21)
        ident = Morphism.identity(chart)
        gen = SampleGen(1)
        col = [gen.jet(chart.sig) for _ in range(chart.dim)]
        assert column_agrees(pull_vector(ident, col), col)

    def test_pull_vector_functorial(self):
        gen = SampleGen(83)
        for chart in CHARTS:
            phi = gen.invertible_morphism(chart)
            psi = gen.invertible_morphism(phi.target)
            col = [gen.jet(psi.target.sig) for _ in range(chart.dim)]
            via_composite = pull_vector(psi.compose(phi), col)
            stepwise = pull_vector(phi, pull_vector(psi, col))
            assert column_agrees(via_composite, stepwise)

    def test_pairing_duality(self):
        # (phi* dxi^j)(phi* d/dxi^k) = (-1)^|j| delta^j_k
        gen = SampleGen(97)
        for chart in CHARTS:
            phi = gen.invertible_morphism(chart)
            for j in range(chart.dim):
                row = pull_covector(phi, basis_column(phi.target, j))
                for k in range(chart.dim):
                    col = pull_vector(phi, basis_column(phi.target, k))
                    value = pair(chart, row, col)
                    if j != k:
                        assert value.is_zero()
                    else:
                        unit = chart.one() if chart.parity(j) == 0 else -chart.one()
                        assert value.agrees_with(unit)

    def test_pull_df_is_d_of_pullback(self):
        gen = SampleGen(103)
        for chart in CHARTS:
            phi = gen.invertible_morphism(chart)
            f = gen.jet(phi.target.sig, holomorphic=True)
            lhs = pull_covector(phi, differential_of_function(phi.target, f))
            rhs = differential_of_function(chart, phi.apply(f))
            assert column_agrees(lhs, rhs)

    def test_pairing_invariant_under_pullback(self):
        # (phi* xi)(phi* X) = phi#(xi(X))
        gen = SampleGen(107)
        for chart in CHARTS:
            phi = gen.invertible_morphism(chart)
            row = [gen.jet(phi.target.sig) for _ in range(chart.dim)]
            col = [gen.jet(phi.target.sig) for _ in range(chart.dim)]
            lhs = pair(chart, pull_covector(phi, row), pull_vector(phi, col))
            rhs = phi.apply(pair(phi.target, row, col))
            assert lhs.agrees_with(rhs)


class TestJacobi:
    def test_jacobi_formula(self):
        # X(sdet dphi) = sum (-1)^(|m| + |X|(|m|+|n|)) sdet dphi (dphi^-1)^m_n X(dphi^n_m)
        gen = SampleGen(113)
        for chart in CHARTS:
            for _ in range(3):
                phi = gen.invertible_morphism(chart)
                d = phi.differential()
                sdet = d.sdet()
                d_inv = d.inverse()
                for k in range(chart.dim):
                    px = chart.parity(k)
                    lhs = chart.d(sdet, k)
                    rhs = chart.zero()
                    for mrow in range(chart.dim):
                        for nrow in range(chart.dim):
                            pm, pn = chart.parity(mrow), chart.parity(nrow)
                            term = sdet * d_inv.rows[mrow][nrow] * chart.d(d.rows[nrow][mrow], k)
                            if (pm + px * (pm + pn)) % 2:
                                term = -term
                            rhs = rhs + term
                    assert lhs.agrees_with(rhs)

    def test_jacobi_sum(self):
        # sum_j d_j(sdet dphi (dphi^-1)^j_k) = 0
        gen = SampleGen(127)
        for chart in CHARTS:
            for _ in range(3):
                phi = gen.invertible_morphism(chart)
                d = phi.differential()
                sdet = d.sdet()
                d_inv = d.inverse()
                for k in range(chart.dim):
                    acc = chart.zero()
                    for j in range(chart.dim):
                        acc = acc + chart.d(sdet * d_inv.rows[j][k], j)
                    assert acc.is_zero()


class TestBerPullback:
    def test_identity(self):
        chart = Chart(SIG11)
        gen = SampleGen(2)
        omega = gen.trivialising_section(chart)
        pulled = pull_ber(Morphism.identity(chart), omega)
        assert pulled.coefficient.agrees_with(omega.coefficient)

    def test_linear_diagonal(self):
        chart = Chart(SIG11)
        z, th = chart.coordinate(0), chart.coordinate(1)
        a = GaussianRational.of(2)
        d = GaussianRational.of(3)
        phi = Morphism(chart, Chart(SIG11, name="zeta"), [z.scale(a), th.scale(d)])
        omega = BerSection(phi.target, phi.target.one())
        pulled = pull_ber(phi, omega)
        assert pulled.coefficient.agrees_with(chart.one().scale(a / d))

    def test_functorial(self):
        gen = SampleGen(131)
        chart = Chart(SIG11)
        phi = gen.invertible_morphism(chart)
        psi = gen.invertible_morphism(phi.target)
        omega = gen.trivialising_section(psi.target)
        once = pull_ber(psi.compose(phi), omega)
        twice = pull_ber(phi, pull_ber(psi, omega))
        assert once.coefficient.agrees_with(twice.coefficient)
