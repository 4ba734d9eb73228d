"""Exactness of the transformation layer.

The Christoffel law, the substitution walk and the memoised morphism must
reproduce the straightforward evaluation exactly: the same terms and the
same precision.  The golden digests below were recorded from the direct
evaluation (one substitution per monomial, the law as one nested sum) and
cover the rendering and the precision of every output jet.
"""

import hashlib

import pytest

from superbv.charts import Chart, ChartError, Morphism
from superbv.connect import transform_christoffel
from superbv.jetring import GaussianRational, JetError, JetSuperFunction, RingSignature, substitute_many
from superbv.mvforms import pull_mvform
from superbv.samples import SampleGen
from oracles import _one_at_a_time, identity_morphism, same_jet, same_jets

SIGNATURES = [(1, 1), (2, 1), (2, 2)]

# (signature, operation) -> (digest of "prec render" lines, precisions)
GOLDEN = {
    ("1|1", "transform_christoffel"): ("3abd5ae8050d8a9d", [2, 3, 2, 3, 3]),
    ("1|1", "invert"): ("6f316efe735bf55b", [4, 4]),
    ("1|1", "apply"): ("ddedcdb9a151dced", [4, 4, 4, 2, 4, 4, 4, 2]),
    ("1|1", "pull_mvform"): ("4f735476cf4bc18d", [3, 3, 3]),
    ("2|1", "transform_christoffel"): ("cc8840fe3a552a47", [2] * 8),
    ("2|1", "invert"): ("e529e47050c6b882", [4, 4, 4]),
    ("2|1", "apply"): ("b37e56b5f9eb8885", [4, 4, 4, 2, 4, 4, 4, 2]),
    ("2|1", "pull_mvform"): ("3cbfd06578e3bdd0", [3, 3, 3]),
    ("2|2", "transform_christoffel"): ("e1875f49521bf323", [2] * 42),
    ("2|2", "invert"): ("0a3269b878bd6d2d", [4, 4, 4, 4]),
    ("2|2", "apply"): ("db2163ca8dc12d99", [4, 4, 4, 2, 4, 4, 4, 2]),
    ("2|2", "pull_mvform"): ("bded28d16e805320", [3, 3, 3]),
}


def _digest(items):
    text = "\n".join(f"{x.prec} {x.render()}" for x in items)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _outputs(n, m):
    chart = Chart(RingSignature(n, m, 4))
    gen = SampleGen(100 * n + m)
    phi = gen.invertible_morphism(chart)
    gamma = gen.christoffel(chart)
    fs = [gen.jet(chart.sig, max_terms=4) for _ in range(3)]
    fs.append(gen.jet(chart.sig, max_terms=4).truncate(2))
    forms = [gen.homogeneous_mvform(phi.target, max_p=2, max_q=1)[0] for _ in range(2)]
    back = gen.homogeneous_mvform(chart, max_p=2, max_q=1)[0]
    psi = phi.invert()
    symbols = transform_christoffel(phi, gamma).symbols
    return {
        "transform_christoffel": [symbols[key] for key in sorted(symbols)],
        "invert": list(psi.pullbacks),
        "apply": [phi.apply(f) for f in fs] + [psi.apply(f) for f in fs],
        "pull_mvform": [pull_mvform(phi, a) for a in forms] + [pull_mvform(psi, back)],
    }


@pytest.mark.parametrize("n,m", SIGNATURES)
def test_golden_render_and_prec(n, m):
    for name, items in _outputs(n, m).items():
        digest, precs = GOLDEN[(f"{n}|{m}", name)]
        assert [x.prec for x in items] == precs, name
        assert _digest(items) == digest, name


# Sparse symbols, mostly under linear maps: a contraction whose summands all
# vanish must be left out, or its lower precision leaks into the symbol.
SPARSE_LAW = {0: "8465c9385c2a", 2: "b9ff3634234a", 14: "2e62cd2dd914", 16: "7aa9b6d1bd7d"}


@pytest.mark.parametrize("seed", sorted(SPARSE_LAW))
def test_law_skips_vanishing_contractions(seed):
    n, m = [(1, 1), (2, 1), (1, 2), (2, 2)][seed % 4]
    chart = Chart(RingSignature(n, m, 3 + seed % 2))
    gen = SampleGen(seed)
    phi = gen.invertible_morphism(chart, nonlinear=(seed // 4) % 3 != 0)
    gamma = gen.christoffel(chart, max_terms=1 + (seed // 12) % 2)
    symbols = transform_christoffel(phi, gamma).symbols
    text = "\n".join(f"{k} {symbols[k].prec} {symbols[k].render()}" for k in sorted(symbols))
    assert hashlib.sha256(text.encode()).hexdigest()[:12] == SPARSE_LAW[seed]


@pytest.mark.parametrize("n,m", SIGNATURES)
def test_batched_substitution_equals_single(n, m):
    chart = Chart(RingSignature(n, m, 4))
    gen = SampleGen(7 * n + m)
    phi = gen.invertible_morphism(chart)
    images = phi._images()
    batch = [gen.jet(chart.sig, max_terms=5) for _ in range(6)]
    batch[1] = batch[1].truncate(1)
    batch[2] = batch[2].truncate(3)
    batch.append(batch[0])  # a word shared by two functions
    batch.append(JetSuperFunction.scalar(chart.sig, GaussianRational.of(3), 2))
    batch.append(JetSuperFunction.zero(chart.sig, 1))
    together = substitute_many(batch, images, chart.sig)
    assert [g.prec for g in together] == [f.substitute(images, chart.sig).prec for f in batch]
    assert len({g.prec for g in together}) > 1
    for f, g in zip(batch, together):
        assert same_jet(g, f.substitute(images, chart.sig))
        assert same_jet(g, _one_at_a_time(f, images, chart.sig))
    assert same_jets(phi.apply_many(batch), [phi.apply(f) for f in batch])
    assert substitute_many([], images, chart.sig) == []


def test_batched_substitution_keeps_precision_deficit():
    sig = RingSignature(1, 2, 4)
    z, th1, th2 = (JetSuperFunction.gen(sig, gid) for gid in (sig.z(0), sig.th(0), sig.th(1)))
    images = [JetSuperFunction.gen(sig, gid) for gid in range(sig.gen_count())]
    images[sig.z(0)] = z + th1 * th2  # even degree zero term: precision drops by m
    batch = [z * z, th1 + z.truncate(3), JetSuperFunction.one(sig)]
    together = substitute_many(batch, images, sig)
    # the constant drops too: its unknown tail past prec 4 may use z
    assert [g.prec for g in together] == [2, 1, 2]
    for f, g in zip(batch, together):
        assert same_jet(g, _one_at_a_time(f, images, sig))


def test_batched_substitution_validates_every_function():
    sig = RingSignature(1, 1, 3)
    images = [JetSuperFunction.gen(sig, gid) for gid in range(sig.gen_count())]
    images[sig.th(0)] = None
    with pytest.raises(JetError):
        substitute_many([JetSuperFunction.gen(sig, sig.z(0)),
                         JetSuperFunction.gen(sig, sig.th(0))], images, sig)


@pytest.mark.parametrize("n,m", SIGNATURES)
def test_memoised_morphism_is_stable(n, m):
    chart = Chart(RingSignature(n, m, 4))
    phi = SampleGen(n + 10 * m).invertible_morphism(chart)
    fresh = Morphism(phi.source, phi.target, phi.pullbacks)
    assert phi.differential() is phi.differential()
    assert phi.invert() is phi.invert()
    assert phi.differential_inverse() is phi.differential_inverse()
    assert same_jets(phi.differential().rows, fresh.differential().rows)
    assert same_jets(phi.differential_bar().rows, fresh.differential_bar().rows)
    assert same_jets(phi.differential_inverse().rows, fresh.differential().inverse().rows)
    assert same_jets(phi.invert().pullbacks, fresh.invert().pullbacks)
    assert isinstance(phi.pullbacks, tuple)
    with pytest.raises(AttributeError):
        phi.cache = {}


def test_apply_many_rejects_wrong_ring():
    chart = Chart(RingSignature(1, 1, 3))
    phi = identity_morphism(chart)
    with pytest.raises(ChartError):
        phi.apply_many([JetSuperFunction.one(RingSignature(1, 1, 4))])
