"""SampleGen draws against random.py, word for word.

``SampleGen`` takes its words from ``rng.getrandbits`` directly, and
``oracles.RandomPySampleGen`` draws through random.py's methods.  Both must
give the same instances and leave the generator in the same state, also
when a draw raises.
"""

import contextlib
import json
import random
import signal

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from superbv import cli
from superbv.charts import Chart, Morphism
from superbv.connect import Christoffel, FormalPath
from superbv.bvcalc import DeltaOperator
from superbv.jetring import JetSuperFunction, RingSignature
from superbv.mvforms import MultiVectorForm
from superbv.samples import SampleGen, _singular
from oracles import RandomPySampleGen, form_bidegrees, leibniz_det


def _shape(x):
    """Everything a draw determines, terms in their stored order."""
    if isinstance(x, JetSuperFunction):
        return "jet", x.sig, tuple(x.terms.items()), x.den, x.prec
    if isinstance(x, MultiVectorForm):
        return "mvform", x.chart, tuple((k, _shape(c)) for k, c in x.terms.items()), x.prec
    if isinstance(x, Morphism):
        return "morphism", x.source, x.target, _shape(x.pullbacks)
    if isinstance(x, Christoffel):
        return "christoffel", x.chart, tuple((k, _shape(v)) for k, v in x.symbols.items())
    if isinstance(x, FormalPath):
        return "path", x.chart, x.ring, _shape(x.components)
    if isinstance(x, DeltaOperator):
        return "delta", x.chart, _shape(x.values)
    if isinstance(x, (tuple, list)):
        return tuple(_shape(item) for item in x)
    assert isinstance(x, int), type(x)
    return x


# (n, m) pairs: no generator, no odd or no even generator, and 1|11 with 22
# odd generators, past random.sample's 21-item pool
RINGS = ((0, 0), (0, 2), (1, 0), (1, 3), (2, 2), (3, 3), (1, 11))
CAPS = (0, 1, 2, 6)
PARITIES = st.sampled_from([None, 0, 1])


def _options(method):
    """Strategy for the keyword options of ``method``."""
    if method == "jet":
        return st.fixed_dictionaries({
            "max_terms": st.integers(min_value=0, max_value=6),
            "max_even_degree": st.integers(min_value=0, max_value=3),
            "holomorphic": st.booleans(), "parity": PARITIES, "allow_constant": st.booleans()})
    if method == "unit":
        return st.fixed_dictionaries({"holomorphic": st.booleans()})
    if method == "index_multiset":
        return st.fixed_dictionaries({"size": st.integers(min_value=0, max_value=4),
                                      "allow_repeats": st.booleans()})
    if method == "mvform":
        return st.fixed_dictionaries({
            "p": st.integers(min_value=0, max_value=3), "q": st.integers(min_value=0, max_value=3),
            "parity": PARITIES, "max_terms": st.integers(min_value=1, max_value=3),
            "holomorphic_coeff": st.booleans(), "allow_repeats": st.booleans()})
    if method == "homogeneous_mvform":
        return st.fixed_dictionaries({
            "max_p": st.integers(min_value=0, max_value=3),
            "max_q": st.integers(min_value=0, max_value=3), "allow_repeats": st.booleans()})
    if method == "invertible_morphism":
        return st.fixed_dictionaries({"nonlinear": st.booleans()})
    if method == "christoffel":
        return st.fixed_dictionaries({"max_terms": st.integers(min_value=1, max_value=3),
                                      "nilpotent": st.booleans()})
    if method == "formal_path":
        return st.fixed_dictionaries({
            "odd_params": st.integers(min_value=0, max_value=3),
            "order": st.integers(min_value=1, max_value=4), "with_odd_direction": st.booleans()})
    assert method == "cy_scenario"
    return st.just({})


@contextlib.contextmanager
def _deadline(seconds):
    """Fail, instead of hanging, when the block runs longer than ``seconds``
    (an empty range drawn with ``getrandbits(0)`` never ends)."""
    def expire(*_):
        raise TimeoutError(f"still drawing after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _outcome(gen, method, chart, options):
    """The draw, or the type of the exception it raised, and the state after it."""
    target = chart.sig if method in ("jet", "unit") else chart
    try:
        result = _shape(getattr(gen, method)(target, **options))
    except (IndexError, ValueError, RuntimeError) as error:
        result = type(error)
    return result, gen.rng.getstate(), gen.rng.random()


METHODS = ("jet", "unit", "index_multiset", "mvform", "homogeneous_mvform",
           "invertible_morphism", "christoffel", "formal_path", "cy_scenario")
CASES = [(method, n, m) for method in METHODS for n, m in RINGS]


class TestStream:
    @pytest.mark.parametrize("method,n,m", CASES)
    @given(seed=st.integers(min_value=0, max_value=10 ** 6), cap=st.sampled_from(CAPS),
           odd_wedge_cap=st.integers(min_value=1, max_value=3), data=st.data())
    @settings(max_examples=40, deadline=None, derandomize=True, phases=[Phase.generate])
    def test_same_draws_and_stream_as_random_py(self, method, n, m, seed, cap, odd_wedge_cap,
                                                data):
        chart = Chart(RingSignature(n, m, cap), odd_wedge_cap=odd_wedge_cap)
        options = data.draw(_options(method))
        with _deadline(5):
            got = _outcome(SampleGen(seed), method, chart, options)
        assert got == _outcome(RandomPySampleGen(seed), method, chart, options)


@st.composite
def integer_grids(draw):
    """Square grids up to 6 x 6 of small integers, often singular: entries
    of the sampler's linear blocks, or zero-heavy ones that need a pivot swap."""
    size = draw(st.integers(min_value=0, max_value=6))
    entries = st.sampled_from((-1, 0, 0, 0, 1, 2)) if draw(st.booleans()) else \
        st.integers(min_value=-3, max_value=3)
    return [[draw(entries) for _ in range(size)] for _ in range(size)]


class TestDeterminant:
    """``invertible_morphism`` draws a linear block again exactly when its
    determinant vanishes."""

    @given(integer_grids())
    @settings(max_examples=300, deadline=None, derandomize=True, phases=[Phase.generate])
    def test_matches_leibniz(self, grid):
        assert _singular(grid) == (leibniz_det(grid) == 0)

    def test_pivot_swaps_and_zero_columns(self):
        for grid in ([], [[0, 1], [1, 0]], [[0, 2, 1], [0, 1, 3], [4, 0, 0]],
                     [[1, 0, 2], [3, 0, 1], [2, 0, 5]]):
            assert _singular(grid) == (leibniz_det(grid) == 0)
        assert _singular([[1, 0, 2], [3, 0, 1], [2, 0, 5]])
        assert not _singular([])

    def test_eleven_by_eleven_is_fast(self):
        # an upper triangular grid with its rows reversed, with zero pivots to
        # swap away: its determinant is -(2 ** 5), and 0 once a row repeats
        upper = [[0] * i + [1 + i % 2] + [(i + k) % 3 - 1 for k in range(i + 1, 11)]
                 for i in range(11)]
        with _deadline(5):
            assert not _singular(upper[::-1])
            assert _singular(upper[::-1][:10] + [upper[-1]])


def _drawn_map(gen, chart, nonlinear):
    """Each pullback's terms in stored order, ``den`` and ``prec``, the
    target chart, and the generator's state after the draw."""
    phi = gen.invertible_morphism(chart, nonlinear=nonlinear)
    images = [(tuple(f.terms.items()), f.den, f.prec) for f in phi.pullbacks]
    return images, phi.target, gen.rng.getstate()


class TestPackedMorphism:
    """``invertible_morphism`` sums packed keys; ``RandomPySampleGen`` forms
    the same images from jet products and one ``dot`` each, as the sampler
    did before."""

    @pytest.mark.parametrize("n,m", [(n, m) for n in (1, 2, 3) for m in (0, 1, 2, 3)])
    def test_matches_the_dot_builder(self, n, m):
        for cap in range(6):
            chart = Chart(RingSignature(n, m, cap))
            for seed in range(40):
                for nonlinear in (True, False):
                    got = _drawn_map(SampleGen(seed), chart, nonlinear)
                    assert got == _drawn_map(RandomPySampleGen(seed), chart, nonlinear)


class TestPrimitive:
    SEEDS = (0, 1, 42, 2024)

    def test_below_is_randrange(self):
        for seed in self.SEEDS:
            gen, rng = SampleGen(seed), random.Random(seed)
            for n in [*range(1, 71), 2 ** 40 + 3] * 3:
                assert gen._below(n) == rng.randrange(n)
            assert gen.rng.getstate() == rng.getstate()

    def test_below_is_choice(self):
        for seed in self.SEEDS:
            gen, rng = SampleGen(seed), random.Random(seed)
            for n in range(1, 41):
                items = [f"item{k}" for k in range(n)]
                assert items[gen._below(n)] == rng.choice(items)
            assert gen.rng.getstate() == rng.getstate()

    def test_sample_is_random_sample(self):
        for seed in self.SEEDS:
            gen, rng = SampleGen(seed), random.Random(seed)
            for n in range(0, 41):
                for k in range(min(n, 2) + 1):
                    assert gen._sample(n, k) == rng.sample(range(n), k)
            assert gen.rng.getstate() == rng.getstate()

    def test_empty_range_raises_without_drawing(self):
        gen = SampleGen(7)
        state = gen.rng.getstate()
        with _deadline(5):
            for draw in (lambda: gen._below(0), lambda: gen._below(-3), lambda: gen._sample(0, 1)):
                with pytest.raises(ValueError):
                    draw()
        assert gen.rng.getstate() == state


def test_ring_without_even_generator_exits_2(tmp_path, capsys):
    """gbv_compat cannot draw its section on 0|1; all seven of its checks err."""
    scenario_file = tmp_path / "s.sbv"
    scenario_file.write_text("ring 0|1 cap 2;\ntrials 2;\nsuite gbv_compat;\n", encoding="utf-8")
    report_file = tmp_path / "report.json"
    with _deadline(30):
        code = cli.main(["verify", str(scenario_file), "--json", str(report_file)])
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err
    checks = json.loads(report_file.read_text(encoding="utf-8"))["checks"]
    assert [c["status"] for c in checks] == ["error"] * 7
    assert {c["error"] for c in checks} == {"IndexError('Cannot choose from an empty sequence')"}


def test_error_lines_carry_their_reason(tmp_path, capsys):
    """Each [ERR ] line of the summary is followed by the check's error."""
    scenario_file = tmp_path / "s.sbv"
    scenario_file.write_text("ring 0|1 cap 2;\ntrials 2;\nsuite gbv_compat;\nsuite partial_dbar;\n",
                             encoding="utf-8")
    report_file = tmp_path / "report.json"
    with _deadline(30):
        code = cli.main(["verify", str(scenario_file), "--json", str(report_file)])
    assert code == 2
    lines = capsys.readouterr().out.splitlines()
    errors = [c["error"] for c in json.loads(report_file.read_text(encoding="utf-8"))["checks"]]
    assert len(errors) == 11
    reasons = [lines[pos + 1].strip() for pos, line in enumerate(lines) if line.startswith("[ERR ]")]
    assert reasons == errors
    assert "IndexError('Cannot choose from an empty sequence')" in reasons


def test_purely_even_ring_checks_the_bracket_suites(tmp_path, capsys):
    """On 1|0 a section has at most one index of each kind and is even, so
    the bracket suites draw what the chart holds and check it."""
    scenario_file = tmp_path / "s.sbv"
    scenario_file.write_text("ring 1|0 cap 3;\ntrials 2;\nsuite schouten_symmetry;\n"
                             "suite gbv_compat;\n", encoding="utf-8")
    report_file = tmp_path / "report.json"
    with _deadline(30):
        code = cli.main(["verify", str(scenario_file), "--json", str(report_file)])
    assert code == 0
    capsys.readouterr()
    checks = json.loads(report_file.read_text(encoding="utf-8"))["checks"]
    assert [c["status"] for c in checks] == ["pass"] * 8


# rings with an even generator: without one no coefficient can be drawn
@pytest.mark.parametrize("n,m", [(1, 0), (2, 0), (1, 1), (1, 2)])
@pytest.mark.parametrize("allow_repeats", [False, True])
def test_homogeneous_mvform_draws_what_the_chart_holds(n, m, allow_repeats):
    chart = Chart(RingSignature(n, m, 2), odd_wedge_cap=2)
    room = n + m * (2 if allow_repeats else 1)
    gen = SampleGen(n + 10 * m)
    for _ in range(20):
        form, p, q, parity = gen.homogeneous_mvform(chart, max_p=3, max_q=3,
                                                    allow_repeats=allow_repeats)
        assert p <= room and q <= room and (m or parity == 0)
        assert form.is_zero() or form_bidegrees(form) == {(p, q)}
