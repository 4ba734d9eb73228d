import pytest

from superbv.charts import Chart, ChartError
from superbv.jetring import JetSuperFunction, RingSignature
from superbv.mvforms import MultiVectorForm, dbar, pull_mvform, schouten, wedge
from superbv.samples import SampleGen

SIG11 = RingSignature(n=1, m=1, cap=4)
SIG21 = RingSignature(n=2, m=1, cap=4)
SIG22 = RingSignature(n=2, m=2, cap=4)
CHARTS = [Chart(SIG11), Chart(SIG21), Chart(SIG22)]


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
        alpha = gen.mvform(chart, 1, 1, parity=0)
        out = dbar(alpha)
        if not out.is_zero():
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
        a = gen.mvform(chart, 2, 1, parity=0)
        b = gen.mvform(chart, 1, 1, parity=1)
        out = schouten(a, b)
        if not out.is_zero():
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
