import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superbv.jetring import (
    GaussianRational,
    JetError,
    JetSuperFunction,
    NotAUnitError,
    RingSignature,
    dot,
    numerators,
)
from superbv.samples import SampleGen
from superbv.supermatrix import SuperMatrix, SuperMatrixError, det_even
from oracles import (
    NO_SHRINK, SIG, dot_product, gens, invert_scalar_grid, jet_body, matrix_outcome,
    reference_det_even, reference_dot, reference_inverse, reference_invert_scalar_matrix,
    reference_matrix_mul as reference_mul, reference_sdet, series_inverse, series_sdet,
    jet_from_terms, same_jet, same_jets, matrices_agree,
)


def random_even_invertible(gen: SampleGen, sig: RingSignature, p: int, q: int) -> SuperMatrix:
    """Identity plus a small graded perturbation with correct entry parities."""
    mat = SuperMatrix.identity(sig, p, q)
    rows = [row[:] for row in mat.rows]
    for i in range(p + q):
        for j in range(p + q):
            parity = (mat.index_parity(i) + mat.index_parity(j)) % 2
            bump = gen.jet(sig, max_terms=2, max_even_degree=1, parity=parity,
                           allow_constant=False)
            rows[i][j] = rows[i][j] + bump
    return SuperMatrix(sig, p, q, rows)


class TestBasics:
    def test_identity_sdet(self):
        for p, q in [(1, 1), (2, 1), (2, 2)]:
            assert same_jet(SuperMatrix.identity(SIG, p, q).sdet(), JetSuperFunction.one(SIG))

    def test_identity_str(self):
        m = SuperMatrix.identity(SIG, 2, 1)
        assert same_jet(m.str_(), JetSuperFunction.scalar(SIG, GaussianRational.of(1)))

    def test_diagonal_sdet(self):
        g = gens(SIG)
        one = JetSuperFunction.one(SIG)
        a = one + g["z1"]
        d = one
        zero = JetSuperFunction.zero(SIG)
        m = SuperMatrix(SIG, 1, 1, [[a, zero], [zero, d]])
        assert m.sdet().agrees_with(a)
        assert m.str_().agrees_with(a - d)

    def test_offdiagonal_sdet(self):
        g = gens(SIG)
        one = JetSuperFunction.one(SIG)
        m = SuperMatrix(SIG, 1, 1, [[one, g["th1"]], [g["th2"], one]])
        expected = one - g["th1"] * g["th2"]
        assert m.sdet().agrees_with(expected)

    def test_sdet_rejects_odd_matrix(self):
        g = gens(SIG)
        one = JetSuperFunction.one(SIG)
        m = SuperMatrix(SIG, 1, 1, [[g["th1"], one], [one, g["th2"]]])
        with pytest.raises(SuperMatrixError):
            m.sdet()

    def test_sdet_noninvertible_d(self):
        g = gens(SIG)
        zero = JetSuperFunction.zero(SIG)
        m = SuperMatrix(SIG, 1, 1, [[JetSuperFunction.one(SIG), g["th1"]], [g["th2"], g["z1"]]])
        with pytest.raises(NotAUnitError):
            m.sdet()


class TestInverse:
    def test_diagonal_geometric(self):
        g = gens(SIG)
        one = JetSuperFunction.one(SIG)
        zero = JetSuperFunction.zero(SIG)
        z = g["z1"]
        m = SuperMatrix(SIG, 1, 1, [[one + z, zero], [zero, one]])
        inv = m.inverse()
        assert same_jet(inv.rows[0][0], one - z + z * z - z * z * z)

    def test_two_sided(self):
        gen = SampleGen(11)
        for p, q in [(1, 1), (2, 1), (2, 2)]:
            m = random_even_invertible(gen, SIG, p, q)
            inv = m.inverse()
            ident = SuperMatrix.identity(SIG, p, q)
            assert matrices_agree(m * inv, ident)
            assert matrices_agree(inv * m, ident)


class TestInverseFromAnExactOne:
    """``inverse(exact)`` gives the series' outcome, entries or error, also
    where an exact inverse is at hand but the series does not settle on it."""

    outcome = staticmethod(matrix_outcome)

    @staticmethod
    def exact_pair(sig, rows, precs):
        """The matrix of ``rows`` with entry precisions ``precs``, and the
        inverse of the matrix of ``rows`` at the cap."""
        exact = SuperMatrix(sig, 2, 0, rows).inverse()
        cut = [[e.truncate(prec) for e, prec in zip(row, row_precs)]
               for row, row_precs in zip(rows, precs)]
        return SuperMatrix(sig, 2, 0, cut), exact

    def test_settles_on_the_exact_inverse(self):
        sig = RingSignature(n=2, m=0, cap=4)
        g, one = gens(sig), JetSuperFunction.one(sig)
        matrix, exact = self.exact_pair(sig, [[one + g["z1"], g["z2"]], [g["z1"] * g["z2"], one]],
                                        [[3, 3], [3, 3]])
        calls = []
        got = self.outcome(lambda: matrix.inverse(lambda floor: calls.append(floor) or exact))
        assert calls == [3] and got == self.outcome(matrix.inverse)

    def test_an_entry_known_below_the_floor_takes_the_series(self):
        # a zero entry known through degree 1 takes no part in R, whose
        # entries all settle at the cap 3; the exact inverse sees z1^2 there
        sig = RingSignature(n=2, m=0, cap=3)
        g, one = gens(sig), JetSuperFunction.one(sig)
        matrix, exact = self.exact_pair(sig, [[one, g["z1"] * g["z1"]],
                                              [JetSuperFunction.zero(sig), one - g["z1"]]],
                                        [[3, 1], [3, 3]])
        want = self.outcome(matrix.inverse)
        assert self.outcome(lambda: matrix.inverse(lambda floor: exact)) == want
        assert not want[0][1][2] and exact.rows[0][1].terms

    def test_a_series_past_the_least_precision_of_m_terminates(self):
        # precisions 1 on the diagonal settle every running precision at 1
        # after R^2, while z2^k lives on in the powers at precision 4 up to
        # R^4; R^5 is zero, within the step limit the largest precision of R
        # sets, and both paths give the same inverse
        sig = RingSignature(n=2, m=0, cap=4)
        g, one = gens(sig), JetSuperFunction.one(sig)
        matrix, exact = self.exact_pair(sig, [[one, -g["z2"]], [-g["z2"], one - g["z2"]]],
                                        [[1, 4], [4, 1]])
        want = self.outcome(matrix.inverse)
        assert isinstance(want, list)
        assert self.outcome(lambda: matrix.inverse(lambda floor: exact)) == want
        product = matrix * matrix.inverse()
        assert matrices_agree(product, SuperMatrix.identity(sig, 2, 0))


class TestSupertranspose:
    def test_identity(self):
        m = SuperMatrix.identity(SIG, 2, 1)
        assert matrices_agree(m.supertranspose(), m)

    def test_even_blockdiag_is_plain_transpose(self):
        g = gens(SIG)
        zero = JetSuperFunction.zero(SIG)
        one = JetSuperFunction.one(SIG)
        a = [[one, g["z1"]], [zero, one]]
        m = SuperMatrix(SIG, 2, 0, a)
        st = m.supertranspose()
        assert same_jet(st.rows[1][0], g["z1"]) and st.rows[0][1].is_zero()

    def test_sign_table_unique_against_sdet_and_display(self):
        # brute-force the four +-1 assignments on the off-diagonal blocks;
        # require sdet invariance plus the displayed entry rule
        gen = SampleGen(7)
        m = random_even_invertible(gen, SIG, 1, 1)
        winners = []
        for sb, sc in itertools.product([1, -1], repeat=2):
            a, b, c, d = m.blocks()
            rows = [
                [a[0][0], c[0][0] if sc > 0 else -c[0][0]],
                [b[0][0] if sb > 0 else -b[0][0], d[0][0]],
            ]
            candidate = SuperMatrix(SIG, 1, 1, rows)
            if candidate.sdet().agrees_with(m.sdet()):
                winners.append((sb, sc))
        assert set(winners) == {(1, -1), (-1, 1)}
        st = m.supertranspose()
        assert st.rows[0][1].agrees_with(-m.rows[1][0])
        assert st.rows[1][0].agrees_with(m.rows[0][1])

    def test_sdet_supertranspose_invariance(self):
        gen = SampleGen(23)
        for p, q in [(1, 1), (2, 1), (2, 2)]:
            for _ in range(5):
                m = random_even_invertible(gen, SIG, p, q)
                assert m.supertranspose().sdet().agrees_with(m.sdet())


class TestAlgebraicLaws:
    def test_sdet_multiplicative(self):
        gen = SampleGen(5)
        for p, q in [(1, 1), (2, 1), (2, 2)]:
            for _ in range(5):
                m = random_even_invertible(gen, SIG, p, q)
                n = random_even_invertible(gen, SIG, p, q)
                assert (m * n).sdet().agrees_with(m.sdet() * n.sdet())

    def test_sdet_cross_check_oracle(self):
        gen = SampleGen(9)
        for p, q in [(1, 1), (2, 1)]:
            for _ in range(5):
                m = random_even_invertible(gen, SIG, p, q)
                assert m.sdet().agrees_with(m.sdet_via_a_block())

    def test_str_of_commutator_vanishes(self):
        gen = SampleGen(31)
        for p, q in [(1, 1), (2, 1)]:
            for _ in range(5):
                m = random_even_invertible(gen, SIG, p, q)
                n = random_even_invertible(gen, SIG, p, q)
                assert (m * n - n * m).str_().is_zero()

    def test_sdet_inverse(self):
        gen = SampleGen(13)
        m = random_even_invertible(gen, SIG, 2, 1)
        assert (m.inverse().sdet() * m.sdet()).agrees_with(JetSuperFunction.one(SIG))


def test_det_even_helper():
    g = gens(SIG)
    one = JetSuperFunction.one(SIG)
    grid = [[one, g["z1"]], [g["z1"], one]]
    assert det_even(SIG, grid).agrees_with(one - g["z1"] * g["z1"])


# -- strategies ---------------------------------------------------------------

ORACLE_SIGS = [RingSignature(1, 1, 2), RingSignature(1, 2, 3), RingSignature(2, 1, 2),
               RingSignature(0, 2, 0)]
SHAPES = [(0, 1), (1, 0), (1, 1), (2, 1), (1, 2), (2, 2), (0, 2), (2, 0)]
# D blocks of every size up to 3, so that cofactors of 0x0, 1x1 and 2x2 minors occur
SDET_SHAPES = SHAPES + [(1, 3), (0, 3), (2, 3)]

rationals = st.builds(Fraction, st.integers(min_value=-3, max_value=3), st.sampled_from((1, 1, 2, 3)))
scalars = st.builds(GaussianRational, rationals, rationals)


@st.composite
def graded_jets(draw, sig, parity, body=False):
    """A jet of the given parity: zero of any precision, or a few terms with
    mixed denominators, optionally a body, truncated at a drawn precision."""
    prec = draw(st.integers(min_value=0, max_value=sig.cap))
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        return JetSuperFunction.zero(sig, prec)
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        exps = [0] * sig.even_count
        for _ in range(draw(st.integers(min_value=0, max_value=min(2, sig.cap)))):
            if exps:
                exps[draw(st.integers(min_value=0, max_value=len(exps) - 1))] += 1
        size = draw(st.sampled_from([k for k in range(min(sig.odd_count, 3) + 1) if k % 2 == parity]))
        odd = tuple(sorted(draw(st.permutations(range(sig.odd_count)))[:size]))
        terms[(tuple(exps), odd)] = draw(scalars)
    if body and not parity:
        terms[((0,) * sig.even_count, ())] = draw(scalars)
    return jet_from_terms(sig, terms, draw(st.sampled_from([prec, sig.cap, sig.cap])))


@st.composite
def even_matrices(draw, sig=None, shape=None, shapes=SHAPES, zero_share=0):
    """An even matrix; with ``zero_share`` k > 0, about one entry in k is a
    zero jet at a drawn precision."""
    sig = sig or draw(st.sampled_from(ORACLE_SIGS))
    p, q = shape or draw(st.sampled_from(shapes))
    size = p + q

    def entry(parity):
        if zero_share and draw(st.integers(min_value=1, max_value=zero_share)) == 1:
            return JetSuperFunction.zero(sig, draw(st.integers(min_value=0, max_value=sig.cap)))
        return draw(graded_jets(sig, parity, body=True))

    rows = [[entry((i >= p) ^ (j >= p)) for j in range(size)] for i in range(size)]
    return SuperMatrix(sig, p, q, rows)


@st.composite
def matrix_pairs(draw):
    m = draw(even_matrices())
    return m, draw(even_matrices(m.sig, (m.p, m.q)))


@st.composite
def jet_pair_lists(draw):
    sig = draw(st.sampled_from(ORACLE_SIGS))
    size = draw(st.integers(min_value=0, max_value=4))
    jets = st.integers(min_value=0, max_value=1).flatmap(lambda parity: graded_jets(sig, parity, True))
    return sig, [(draw(jets), draw(jets)) for _ in range(size)]


@st.composite
def scalar_grids(draw):
    size = draw(st.integers(min_value=0, max_value=4))
    entries = st.one_of(st.just(GaussianRational.of(0)), scalars)
    return [[draw(entries) for _ in range(size)] for _ in range(size)]


def _outcome(thunk):
    try:
        return "value", thunk()
    except JetError as error:
        return "error", type(error)


def _rows(m):
    return m.rows if isinstance(m, SuperMatrix) else m


# -- properties -----------------------------------------------------------------


def _check_body_inverse(grid):
    try:
        expected = reference_invert_scalar_matrix(grid)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            invert_scalar_grid(grid)
        return
    # every entry in lowest terms, as ``numerators`` gives it
    assert invert_scalar_grid(grid) == [[numerators(x) for x in row] for row in expected]


class TestAgainstReference:
    @given(scalar_grids())
    @settings(max_examples=300, deadline=None, derandomize=True, phases=NO_SHRINK)
    def test_body_inverse(self, grid):
        _check_body_inverse(grid)

    @pytest.mark.parametrize("grid", [
        [],
        [[GaussianRational.of(0)]],
        [[GaussianRational.of(1), GaussianRational.of(2)], [GaussianRational.of(2), GaussianRational.of(4)]],
        [[GaussianRational.of(0), GaussianRational.of(1, 1)], [GaussianRational.of(Fraction(1, 2)), GaussianRational.of(0)]],
        [[GaussianRational.of(0), GaussianRational.of(0, 1), GaussianRational.of(3)],
         [GaussianRational.of(0), GaussianRational.of(2), GaussianRational.of(1)],
         [GaussianRational.of(Fraction(1, 3), Fraction(-1, 2)), GaussianRational.of(1), GaussianRational.of(0)]],
        [[GaussianRational.of(Fraction(2, 3), 1), GaussianRational.of(Fraction(1, 5))],
         [GaussianRational.of(Fraction(-1, 2), Fraction(1, 7)), GaussianRational.of(0, Fraction(3, 4))]],
    ], ids=["0x0", "zero", "singular", "swap", "swap3", "fractions"])
    def test_body_inverse_cases(self, grid):
        _check_body_inverse(grid)

    @given(jet_pair_lists())
    @settings(max_examples=200, deadline=None, derandomize=True, phases=NO_SHRINK)
    def test_dot(self, case):
        sig, pairs = case
        assert same_jet(dot(sig, pairs), reference_dot(sig, pairs))

    def test_dot_edge_cases(self):
        sig = ORACLE_SIGS[1]
        assert same_jet(dot(sig, []), reference_dot(sig, []))
        assert same_jet(dot(sig, []), JetSuperFunction.zero(sig))
        z, th = JetSuperFunction.gen(sig, 0), JetSuperFunction.gen(sig, sig.th(0))
        half = z.scale(GaussianRational.of(Fraction(1, 2))) + th * JetSuperFunction.gen(sig, sig.thb(0))
        low = JetSuperFunction.one(sig, 1)
        pairs = [(half, low), (-half, low), (z.truncate(2), half)]
        assert same_jet(dot(sig, pairs), reference_dot(sig, pairs))
        cancelled = dot(sig, pairs[:2])
        assert cancelled.is_zero() and cancelled.den == 1 and cancelled.prec == 1
        assert same_jet(cancelled, reference_dot(sig, pairs[:2]))
        other = JetSuperFunction.one(RingSignature(1, 1, 3))
        for bad in ([(other, other)], [(half, other)], [(other, half)]):
            with pytest.raises(JetError):
                reference_dot(sig, bad)
            with pytest.raises(JetError):
                dot(sig, bad)

    @given(matrix_pairs())
    @settings(max_examples=100, deadline=None, derandomize=True, phases=NO_SHRINK)
    def test_product(self, pair):
        m, n = pair
        assert same_jets((m * n).rows, reference_mul(m, n).rows)
        assert same_jets((n * m).rows, reference_mul(n, m).rows)

    @given(even_matrices())
    @settings(max_examples=150, deadline=None, derandomize=True, phases=NO_SHRINK)
    def test_inverse_and_sdet(self, m):
        for ours, reference in ((m.inverse, lambda: reference_inverse(m)),
                                (m.sdet, lambda: reference_sdet(m))):
            kind, value = _outcome(ours)
            expected_kind, expected = _outcome(reference)
            assert kind == expected_kind
            if kind == "error":
                assert value is expected
            else:
                assert same_jets(_rows(value), _rows(expected))

    @given(even_matrices(shapes=[(size, 0) for size in range(5)], zero_share=3))
    @settings(max_examples=200, deadline=None, derandomize=True, phases=NO_SHRINK)
    def test_det_even(self, m):
        det = det_even(m.sig, m.rows)
        expected = reference_det_even(m.sig, m.rows)
        assert (det.terms, det.den, det.prec) == (expected.terms, expected.den, expected.prec)

    @given(st.one_of(even_matrices(shapes=SDET_SHAPES), even_matrices(shapes=SDET_SHAPES, zero_share=3)))
    @settings(max_examples=400, deadline=None, derandomize=True, phases=NO_SHRINK)
    def test_sdet_matches_series_inverse(self, m):
        kind, value = _outcome(m.sdet)
        expected_kind, expected = _outcome(lambda: series_sdet(m))
        assert kind == expected_kind
        if kind == "value":
            assert (value.terms, value.den, value.prec) == (expected.terms, expected.den, expected.prec)
        else:
            assert value == expected


# -- the row kernel against the dot-per-entry product and the matrix series ------

# 1|1 to 3|3, and the two pure blocks
KERNEL_SHAPES = [(p, q) for p in range(1, 4) for q in range(1, 4)] + [(0, 2), (2, 0)]


@st.composite
def kernel_matrices(draw, sig=None, shape=None):
    """An even matrix with, in some draws, zero entries at drawn precisions.
    Entries are truncated at drawn precisions below the cap.  In about one
    draw in six the body is singular (its first row's body is cleared);
    otherwise a drawn nonzero scalar is added on the diagonal, so that most
    bodies are invertible and the series runs."""
    zero_share = draw(st.sampled_from([0, 3]))
    m = draw(even_matrices(sig, shape, KERNEL_SHAPES, zero_share))
    rows = [row[:] for row in m.rows]
    if draw(st.integers(min_value=0, max_value=5)) == 0:
        rows[0] = [e - JetSuperFunction.scalar(m.sig, jet_body(e), e.prec) for e in rows[0]]
    else:
        for i, row in enumerate(rows):
            row[i] = row[i] + JetSuperFunction.scalar(m.sig, draw(scalars.filter(bool)), row[i].prec)
    return SuperMatrix(m.sig, m.p, m.q, rows)


def _packed(m):
    return [[(e.terms, e.den, e.prec) for e in row] for row in m.rows]


def _result(thunk):
    try:
        return "value", _packed(thunk())
    except JetError as error:
        return "error", (type(error), str(error))


class TestRowKernel:
    @given(st.data())
    @settings(max_examples=200, deadline=None, derandomize=True, phases=NO_SHRINK)
    def test_product_matches_dot_product(self, data):
        m = data.draw(kernel_matrices())
        n = data.draw(kernel_matrices(m.sig, (m.p, m.q)))
        assert _packed(m * n) == _packed(dot_product(m, n))
        assert _packed(n * m) == _packed(dot_product(n, m))

    @given(kernel_matrices())
    @settings(max_examples=300, deadline=None, derandomize=True, phases=NO_SHRINK)
    def test_inverse_matches_series_inverse(self, m):
        assert _result(m.inverse) == _result(lambda: series_inverse(m))

    def test_singular_body_error(self):
        sig = ORACLE_SIGS[1]
        th = JetSuperFunction.gen(sig, sig.th(0))
        one = JetSuperFunction.one(sig)
        m = SuperMatrix(sig, 1, 1, [[one, th], [th, JetSuperFunction.gen(sig, 0)]])
        expected = ("error", (NotAUnitError, "body of the matrix is not invertible"))
        assert _result(m.inverse) == _result(lambda: series_inverse(m)) == expected

    def test_cancelled_power_entry_lowers_the_sum(self):
        # R = 1 - M = [[z, z], [0, -z]] with R11 known only through degree 2:
        # entry (0, 1) of R^2 is z*z + z*(-z), two live pairs that cancel to
        # zero at prec 2 while R^2 goes on, so the sum's entry (0, 1), and
        # the inverse's, is known only through degree 2 as well
        sig = RingSignature(1, 1, 3)
        one, z = JetSuperFunction.one(sig), JetSuperFunction.gen(sig, 0)
        zero = JetSuperFunction.zero(sig)
        m = SuperMatrix(sig, 2, 0, [[one - z, -z], [zero, (one + z).truncate(2)]])
        remainder = SuperMatrix.identity(sig, 2, 0) - m
        square = dot_product(remainder, remainder)
        assert square.rows[0][1].is_zero() and square.rows[0][1].prec == 2
        assert not square.rows[0][0].is_zero()
        assert min(e.prec for e in remainder.rows[0]) == 3
        inverse = m.inverse()
        assert _packed(inverse) == _packed(series_inverse(m))
        assert inverse.rows[0][1].prec == 2 and same_jet(inverse.rows[0][1], z.truncate(2))
