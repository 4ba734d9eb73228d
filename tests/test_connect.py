from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superbv.bvcalc import DeltaOperator, pull_delta_table
from superbv.charts import BerSection, Chart, Morphism
from superbv.connect import (
    BerConnection,
    Christoffel,
    ConnectionError,
    FormalPath,
    IntegrabilityError,
    bv_connection,
    ber_from_tangent,
    check_cy_consistency,
    check_sdet_transport,
    curvature_ber,
    curvature_ber_mixed,
    is_flat,
    path_ring,
    solve_delta_formula,
    t_integrate,
    t_truncate,
    transform_christoffel,
    transport_ber,
    transport_tangent,
)
from superbv.jetring import GaussianRational, JetSuperFunction, RingSignature
from superbv.samples import SampleGen
from superbv.supermatrix import SuperMatrix
from oracles import (
    NO_SHRINK, SIG11, SIG21, covariant_derivative, identity_morphism, items_t_integrate,
    items_t_truncate, jet_body, odd_pair_unit, pull_vector, t_evaluate, t_shift,
    walk_delta_formula, zero_delta, matrices_agree,
)

CHARTS = [Chart(SIG11), Chart(SIG21)]


class TestBerConnections:
    def test_bv_connection_trivial(self):
        chart = Chart(SIG11)
        conn = bv_connection(zero_delta(chart))
        assert all(c.is_zero() for c in conn.coefficients)

    def test_bv_connection_from_unit(self):
        sig = RingSignature(n=1, m=0, cap=4)
        chart = Chart(sig)
        z = chart.coordinate(0)
        omega = BerSection(chart, chart.one() + z)
        conn = bv_connection(DeltaOperator.from_section(omega))
        expected = -((chart.one() + z).invert())
        assert conn.coefficients[0].agrees_with(expected)

    def test_ber_from_tangent_examples(self):
        chart = Chart(SIG11)
        assert all(c.is_zero() for c in ber_from_tangent(Christoffel(chart)).coefficients)
        c = JetSuperFunction.scalar(chart.sig, GaussianRational.of(3))
        gamma = Christoffel(chart, {(0, 0, 0): c})
        conn = ber_from_tangent(gamma)
        assert conn.coefficients[0].agrees_with(-c)

    def test_ber_from_tangent_odd_diagonal(self):
        # an odd-odd diagonal symbol enters the supertrace with the opposite sign
        chart = Chart(SIG11)
        c = JetSuperFunction.scalar(chart.sig, GaussianRational.of(2))
        gamma = Christoffel(chart, {(1, 0, 1): c})
        conn = ber_from_tangent(gamma)
        assert conn.coefficients[0].agrees_with(c)


class TestCurvature:
    def test_zero_connection(self):
        chart = Chart(SIG11)
        conn = BerConnection(chart, tuple(chart.zero() for _ in range(chart.dim)))
        assert is_flat(conn)

    def test_bv_connection_always_flat(self):
        gen = SampleGen(7)
        for chart in CHARTS:
            for _ in range(6):
                omega = gen.trivialising_section(chart)
                conn = bv_connection(DeltaOperator.from_section(omega))
                assert is_flat(conn)

    def test_nonholomorphic_coefficient_detected(self):
        sig = RingSignature(n=1, m=0, cap=4)
        chart = Chart(sig)
        zb = JetSuperFunction.gen(sig, sig.zb(0))
        conn = BerConnection(chart, (zb,))
        holo = curvature_ber(conn)
        assert all(v.is_zero() for v in holo.values())
        mixed = curvature_ber_mixed(conn)
        assert not all(v.is_zero() for v in mixed.values())
        assert not is_flat(conn)


class TestChristoffelTransform:
    def test_identity_morphism(self):
        gen = SampleGen(11)
        chart = Chart(SIG11)
        gamma = gen.christoffel(chart)
        out = transform_christoffel(identity_morphism(chart), gamma)
        for key in set(gamma.symbols) | set(out.symbols):
            assert out.left(*key).agrees_with(gamma.left(*key))

    def test_flat_linear_stays_zero(self):
        chart = Chart(SIG11)
        z, th = chart.coordinate(0), chart.coordinate(1)
        phi = Morphism(chart, Chart(SIG11, name="zeta"),
                       [z.scale(GaussianRational.of(2)), th])
        out = transform_christoffel(phi, Christoffel(chart))
        assert not out.symbols

    def test_flat_nonlinear_inhomogeneous_term(self):
        sig = RingSignature(n=1, m=0, cap=4)
        chart = Chart(sig)
        z = chart.coordinate(0)
        phi = Morphism(chart, Chart(sig, name="zeta"), [z + z * z])
        out = transform_christoffel(phi, Christoffel(chart))
        assert out.symbols  # pure inhomogeneous term survives

    def test_against_covariant_derivative_oracle(self):
        # hat Gamma^a_(b c) . d_a = (phi* nabla)_(d_b) d_c computed through pullbacks
        gen = SampleGen(13)
        for chart in CHARTS:
            for _ in range(3):
                phi = gen.invertible_morphism(chart)
                gamma_src = gen.christoffel(chart)
                gamma_tgt = transform_christoffel(phi, gamma_src)
                psi = phi.invert()
                target = phi.target
                for b in range(chart.dim):
                    xb = pull_vector(psi, [chart.one() if i == b else chart.zero()
                                           for i in range(chart.dim)])
                    for c in range(chart.dim):
                        yc = pull_vector(psi, [chart.one() if i == c else chart.zero()
                                               for i in range(chart.dim)])
                        nab = covariant_derivative(gamma_tgt, xb, yc)
                        pulled = pull_vector(phi, nab)
                        # the pulled column carries right components, so compare
                        # against the right symbols
                        for a in range(chart.dim):
                            assert pulled[a].agrees_with(gamma_src.right(a, b, c))


@st.composite
def christoffel_key_cases(draw):
    """A sampled morphism and symbols on a 1|1, 2|1 or 2|2 chart, and a
    subset of the target symbols: drawn, or the diagonal (q, l, q)."""
    chart = Chart(draw(st.sampled_from([SIG11, SIG21, RingSignature(2, 2, 4)])))
    gen = SampleGen(draw(st.integers(min_value=0, max_value=10 ** 6)))
    phi = gen.invertible_morphism(chart)
    gamma = gen.christoffel(chart, max_terms=2)
    triples = st.tuples(*[st.integers(min_value=0, max_value=chart.dim - 1)] * 3)
    diagonal = [(q, l, q) for l in range(chart.dim) for q in range(chart.dim)]
    keys = draw(st.one_of(st.just(diagonal), st.lists(triples, max_size=2 * chart.dim)))
    return phi, gamma, keys


class TestChristoffelKeys:
    @given(christoffel_key_cases())
    @settings(max_examples=80, deadline=None, derandomize=True, phases=NO_SHRINK)
    def test_keys_restrict_the_full_result(self, case):
        phi, gamma, keys = case
        full = transform_christoffel(phi, gamma).symbols
        part = transform_christoffel(phi, gamma, keys).symbols
        expected = {key: full[key] for key in set(keys) if key in full}
        assert {key: (x.terms, x.den, x.prec) for key, x in part.items()} == \
            {key: (x.terms, x.den, x.prec) for key, x in expected.items()}


# -- the local BV formula and the path helpers against their oracles -----------------

# charts at the degree cap's edge, and charts without even directions
FORMULA_SIGS = [RingSignature(*shape) for shape in
                ((1, 1, 1), (1, 2, 2), (2, 2, 4), (0, 2, 2), (0, 3, 3), (2, 0, 3), (1, 3, 3))]


@st.composite
def formula_tables(draw):
    """The table of a sampled section (hand-built without even directions),
    maybe below the cap or with a non-integer body, maybe with one entry
    perturbed by a sampled jet of its parity, holomorphic or not."""
    sig = draw(st.sampled_from(FORMULA_SIGS))
    chart = Chart(sig)
    gen = SampleGen(draw(st.integers(min_value=0, max_value=10 ** 6)))
    h = gen.unit(sig) if sig.n else odd_pair_unit(chart, gen)
    if draw(st.booleans()):
        h = h.truncate(draw(st.integers(min_value=0, max_value=sig.cap)))
    if draw(st.booleans()):
        h = h.scale(GaussianRational.of(Fraction(2, 3), 1))
    values = list(DeltaOperator.from_section(BerSection(chart, h)).values)
    if draw(st.booleans()):
        k = draw(st.integers(min_value=0, max_value=chart.dim - 1))
        values[k] = values[k] + gen.jet(sig, max_terms=2, max_even_degree=min(2, sig.n),
                                        parity=chart.parity(k), holomorphic=draw(st.booleans()))
    return DeltaOperator(chart, tuple(values))


def solve_outcome(solve, table):
    try:
        h = solve(table)
    except IntegrabilityError as error:
        return "error", type(error), str(error)
    return "value", h.terms, h.den, h.prec


@st.composite
def path_jets(draw):
    """A sampled jet of a path ring, maybe below the cap or scaled."""
    ring = path_ring(draw(st.integers(min_value=0, max_value=3)),
                     draw(st.integers(min_value=0, max_value=4)))
    gen = SampleGen(draw(st.integers(min_value=0, max_value=10 ** 6)))
    f = gen.jet(ring, max_terms=5, max_even_degree=min(3, ring.cap))
    if draw(st.booleans()):
        f = f.truncate(draw(st.integers(min_value=0, max_value=ring.cap)))
    if draw(st.booleans()):
        f = f.scale(GaussianRational.of(Fraction(1, 3), Fraction(-2, 5)))
    return f


class TestAgainstOracles:
    @given(formula_tables())
    @settings(max_examples=150, deadline=None, derandomize=True, phases=NO_SHRINK)
    def test_weight_solve_matches_the_walk(self, table):
        assert solve_outcome(solve_delta_formula, table) == solve_outcome(walk_delta_formula, table)

    def test_perturbed_tables_raise_as_the_walk(self):
        # one entry perturbed: by a coordinate term, doubled, by a barred generator
        seen = set()
        for sig in FORMULA_SIGS:
            chart = Chart(sig)
            gen = SampleGen(31)
            h = gen.unit(sig) if sig.n else odd_pair_unit(chart, gen)
            base = DeltaOperator.from_section(BerSection(chart, h)).values
            last, x0 = chart.dim - 1, chart.coordinate(0)
            for k, extra in ((last, x0 * chart.coordinate(last) if sig.n else x0),
                             (last, base[last]), (0, JetSuperFunction.gen(sig, chart.bar_gen_id(0)))):
                values = list(base)
                values[k] = values[k] + extra
                table = DeltaOperator(chart, tuple(values))
                outcome = solve_outcome(solve_delta_formula, table)
                assert outcome == solve_outcome(walk_delta_formula, table)
                seen.add(outcome[2] if outcome[0] == "error" else None)
        assert seen >= {"table entries must be holomorphic",
                        "cross-derivative consistency fails; no local solution"}

    @given(path_jets())
    @settings(max_examples=150, deadline=None, derandomize=True, phases=NO_SHRINK)
    def test_path_helpers_match_items(self, f):
        def packed(x):
            return x.terms, x.den, x.prec

        assert packed(t_integrate(f)) == packed(items_t_integrate(f))
        for order in range(f.sig.cap + 1):
            assert packed(t_truncate(f, order)) == packed(items_t_truncate(f, order))


class TestDeltaFormula:
    def test_round_trip_from_section(self):
        gen = SampleGen(17)
        for chart in CHARTS:
            for _ in range(5):
                omega = gen.trivialising_section(chart)
                table = DeltaOperator.from_section(omega)
                h = solve_delta_formula(table)
                recovered = DeltaOperator.from_section(BerSection(chart, h))
                for a, b in zip(recovered.values, table.values):
                    assert a.agrees_with(b)

    def test_constant_ambiguity(self):
        gen = SampleGen(19)
        chart = Chart(SIG11)
        omega = gen.trivialising_section(chart)
        table = DeltaOperator.from_section(omega)
        h = solve_delta_formula(table)
        h_scaled = h.scale(GaussianRational.of(3))
        factor = h_scaled * h.invert()
        f_inv = factor.invert()
        for k in range(chart.dim):
            assert (f_inv * chart.d(factor, k)).is_zero()

    def test_integrability_guard(self):
        chart = Chart(SIG21)
        z2 = chart.coordinate(1)
        # d_1 of value_2 != d_2 of value_1 here
        table = DeltaOperator(chart, (z2, chart.zero(), chart.zero()))
        with pytest.raises(IntegrabilityError):
            solve_delta_formula(table)

    def test_parallelness_equivalence(self):
        # nabla-parallel omega = h [dxi] is exactly h Delta(d_k) = d_k(h)
        gen = SampleGen(23)
        for chart in CHARTS:
            omega = gen.trivialising_section(chart)
            h = omega.coefficient
            table = DeltaOperator.from_section(omega)
            conn = bv_connection(table)
            for k in range(chart.dim):
                residual = chart.d(h, k) + h * conn.coefficients[k]
                assert residual.is_zero()
                assert (h * table.values[k]).agrees_with(chart.d(h, k))


class TestTransport:
    def test_zero_connection_identity(self):
        gen = SampleGen(29)
        chart = Chart(SIG11)
        path = gen.formal_path(chart)
        p = transport_tangent(Christoffel(chart), path, order=4)
        assert matrices_agree(p, SuperMatrix.identity(path.ring, chart.sig.n, chart.sig.m))

    def test_constant_ber_exponential(self):
        sig = RingSignature(n=1, m=0, cap=4)
        chart = Chart(sig)
        ring = path_ring(0, 4)
        t = JetSuperFunction.gen(ring, ring.z(0))
        path = FormalPath(chart, ring, (t,))
        c = GaussianRational.of(2)
        conn = BerConnection(chart, (chart.one().scale(c),))
        p = transport_ber(conn, path, order=4)
        # independent oracle: closed-form exponential sum_k (-c t)^k / k!
        expected = JetSuperFunction.zero(ring)
        fact = 1
        for k in range(5):
            if k:
                fact *= k
            power = JetSuperFunction.one(ring)
            for _ in range(k):
                power = power * t.scale(-c)
            expected = expected + power.scale(GaussianRational.of(Fraction(1, fact)))
        assert t_truncate(p, 4).agrees_with(t_truncate(expected, 4))

    def test_nilpotent_odd_path_polynomial(self):
        gen = SampleGen(31)
        chart = Chart(SIG11)
        path = gen.formal_path(chart, odd_params=2, order=4)
        gamma = gen.christoffel(chart, nilpotent=True)
        p = transport_tangent(gamma, path, order=4)
        again = transport_tangent(gamma, path, order=6)
        # series terminated: raising the order changes nothing
        for r1, r2 in zip(p.rows, again.rows):
            for a, b in zip(r1, r2):
                assert a.agrees_with(b)

    def test_sdet_transport_trivial(self):
        gen = SampleGen(37)
        chart = Chart(SIG11)
        path = gen.formal_path(chart)
        report = check_sdet_transport(Christoffel(chart), path, order=4)
        assert report["status"] == "pass"

    def test_sdet_transport_random(self):
        gen = SampleGen(41)
        for chart in CHARTS:
            for _ in range(4):
                gamma = gen.christoffel(chart)
                path = gen.formal_path(chart)
                report = check_sdet_transport(gamma, path, order=4)
                assert report["status"] == "pass", report["counterexample"]

    def test_sdet_transport_two_odd_directions(self):
        # with two odd directions the odd-direction coefficients actually act on
        # the transport, which pins the supertrace twist of ber_from_tangent
        gen = SampleGen(31337)
        chart = Chart(RingSignature(n=2, m=2, cap=4))
        for _ in range(5):
            gamma = gen.christoffel(chart, max_terms=2)
            path = gen.formal_path(chart, odd_params=3, order=4)
            report = check_sdet_transport(gamma, path, order=4)
            assert report["status"] == "pass", report["counterexample"]

    def test_transport_rebase_composition(self):
        # terminating series: the shifted solution P(a + t) equals the solution
        # of the shifted equation times the value P(a); two solver runs
        from superbv.connect import solve_transport, transport_generator

        gen = SampleGen(43)
        chart = Chart(SIG11)
        gamma = gen.christoffel(chart, nilpotent=True)
        ring = path_ring(2, 8)
        t = JetSuperFunction.gen(ring, ring.z(0))
        eta1 = JetSuperFunction.gen(ring, ring.th(0))
        path = FormalPath(chart, ring, (t, eta1 * t))
        a = Fraction(1, 2)
        p_full = transport_tangent(gamma, path, order=8)
        shifted = SuperMatrix(ring, chart.sig.n, chart.sig.m,
                              [[t_shift(e, a) for e in row] for row in p_full.rows])
        w = transport_generator(gamma, path)
        w_shifted = SuperMatrix(ring, chart.sig.n, chart.sig.m,
                                [[t_shift(e, a) for e in row] for row in w.rows])
        rebased = solve_transport(w_shifted, ring, chart.sig.n, chart.sig.m, 8)
        p_at_a = SuperMatrix(ring, chart.sig.n, chart.sig.m,
                             [[t_evaluate(e, a) for e in row] for row in p_full.rows])
        product = rebased * p_at_a
        for r1, r2 in zip(shifted.rows, product.rows):
            for x, y in zip(r1, r2):
                assert x.same_terms(y)


class TestCY:
    def test_trivial(self):
        chart = Chart(SIG11)
        report = check_cy_consistency(chart.one(), Christoffel(chart))
        assert report["status"] == "pass"

    def test_explicit_example(self):
        sig = RingSignature(n=1, m=1, cap=4)
        chart = Chart(sig)
        z = chart.coordinate(0)
        h = chart.one() + z
        gamma = Christoffel(chart, {(0, 0, 0): h.invert()})
        report = check_cy_consistency(h, gamma)
        assert report["status"] == "pass", report["counterexample"]
        conn = bv_connection(DeltaOperator.from_section(BerSection(chart, h)))
        assert conn.coefficients[0].agrees_with(-h.invert())

    def test_random_constrained_scenarios(self):
        gen = SampleGen(47)
        for chart in CHARTS:
            for _ in range(5):
                h, gamma, table = gen.cy_scenario(chart)
                report = check_cy_consistency(h, gamma)
                assert report["status"] == "pass", report["counterexample"]

    def test_violated_constraint_reports_error(self):
        chart = Chart(SIG11)
        z = chart.coordinate(0)
        h = chart.one() + z
        report = check_cy_consistency(h, Christoffel(chart))
        assert report["status"] == "error"


class TestConnectionCovariance:
    def test_bv_connection_covariance(self):
        # transporting the connection data through phi matches the connection
        # of the transported table
        gen = SampleGen(53)
        for chart in CHARTS:
            for _ in range(4):
                phi = gen.invertible_morphism(chart)
                omega = gen.trivialising_section(phi.target)
                target_table = DeltaOperator.from_section(omega)
                conn_target = bv_connection(target_table)
                source_table = pull_delta_table(phi, omega)
                conn_source = bv_connection(source_table)
                sdet = phi.differential().sdet()
                pulled_coeff = phi.apply(omega.coefficient) * sdet
                d_inv = phi.differential().inverse()
                for k in range(chart.dim):
                    # path 1: phi*(nabla_k [dxi]) coefficient
                    lhs = phi.apply(conn_target.coefficients[k]) * sdet
                    # path 2: Leibniz expansion of nabla_(phi* d_k)(sdet [dzeta])
                    rhs = chart.zero()
                    for mrow in range(chart.dim):
                        comp = d_inv.rows[mrow][k]
                        if comp.is_zero():
                            continue
                        pm = chart.parity(mrow)
                        for part in comp.homogeneous_parts():
                            if part.is_zero():
                                continue
                            term = part * chart.d(sdet, mrow)
                            term2 = part * conn_source.coefficients[mrow] * sdet
                            if (pm * part.parity()) % 2:
                                term = -term
                                term2 = -term2
                            rhs = rhs + term + term2
                    assert lhs.agrees_with(rhs)

    def test_ber_from_tangent_covariance_directed(self):
        # the configuration that once exposed the odd-direction supertrace twist
        from superbv.suites import _connection_covariance_witness

        chart = Chart(SIG11)
        z, th = chart.coordinate(0), chart.coordinate(1)
        phi = Morphism(chart, Chart(SIG11, name="zeta"), [z, th + z * th])
        gamma = Christoffel(chart, {(0, 1, 1): z})
        gamma_t = transform_christoffel(phi, gamma)
        witness = _connection_covariance_witness(
            chart, phi, ber_from_tangent(gamma_t), ber_from_tangent(gamma))
        assert witness is None, witness

    def test_ber_from_tangent_covariance(self):
        gen = SampleGen(59)
        for chart in CHARTS:
            for _ in range(3):
                phi = gen.invertible_morphism(chart)
                gamma_src = gen.christoffel(chart)
                gamma_tgt = transform_christoffel(phi, gamma_src)
                conn_tgt = ber_from_tangent(gamma_tgt)
                conn_src = ber_from_tangent(gamma_src)
                sdet = phi.differential().sdet()
                d_inv = phi.differential().inverse()
                for k in range(chart.dim):
                    lhs = phi.apply(conn_tgt.coefficients[k]) * sdet
                    rhs = chart.zero()
                    for mrow in range(chart.dim):
                        comp = d_inv.rows[mrow][k]
                        if comp.is_zero():
                            continue
                        pm = chart.parity(mrow)
                        for part in comp.homogeneous_parts():
                            if part.is_zero():
                                continue
                            term = part * chart.d(sdet, mrow)
                            term2 = part * conn_src.coefficients[mrow] * sdet
                            if (pm * part.parity()) % 2:
                                term = -term
                                term2 = -term2
                            rhs = rhs + term + term2
                    assert lhs.agrees_with(rhs)


class TestPathValidation:
    def test_rejects_nonzero_base(self):
        chart = Chart(SIG11)
        ring = path_ring(1, 3)
        one = JetSuperFunction.one(ring)
        with pytest.raises(ConnectionError):
            FormalPath(chart, ring, (one, JetSuperFunction.zero(ring)))

    def test_rejects_wrong_parity(self):
        chart = Chart(SIG11)
        ring = path_ring(1, 3)
        t = JetSuperFunction.gen(ring, ring.z(0))
        with pytest.raises(ConnectionError):
            FormalPath(chart, ring, (t, t))

    def test_t_helpers(self):
        ring = path_ring(1, 4)
        t = JetSuperFunction.gen(ring, ring.z(0))
        f = t * t
        assert t_integrate(f).partial(0).agrees_with(f)
        shifted = t_shift(f, Fraction(1))
        expected = (t + JetSuperFunction.one(ring)) * (t + JetSuperFunction.one(ring))
        assert shifted.agrees_with(expected)
        assert jet_body(t_evaluate(f, Fraction(2))) == GaussianRational.of(4)
