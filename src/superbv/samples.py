"""Deterministic random generators for desk-scale verification instances.

All randomness flows through a named ``random.Random`` seeded from the
scenario, never from ambient entropy; identical seeds reproduce identical
samples.  Coefficients are kept small (even degree at most 2, few terms) so
the exact arithmetic stays fast.
"""

from __future__ import annotations

import random

from .charts import BerSection, Chart, Morphism
from .jetring import GaussianRational, JetSuperFunction, RingSignature
from .mvforms import MultiVectorForm, add_terms


class SampleGen:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    # -- scalars ---------------------------------------------------------

    def scalar(self, allow_zero=True, complex_part=True) -> GaussianRational:
        while True:
            re = self.rng.randint(-2, 2)
            im = self.rng.randint(-1, 1) if complex_part else 0
            if allow_zero or re or im:
                return GaussianRational.of(re, im)

    def nonzero_scalar(self) -> GaussianRational:
        return self.scalar(allow_zero=False)

    # -- superfunctions ---------------------------------------------------

    def monomial_key(self, sig: RingSignature, max_even_degree=2, holomorphic=False,
                     parity=None, allow_constant=True):
        n = sig.n
        for _ in range(64):
            degree = self.rng.randint(0, max_even_degree)
            exps = [0] * sig.even_count
            for _ in range(degree):
                pool = range(n) if holomorphic else range(sig.even_count)
                exps[self.rng.choice(list(pool))] += 1
            odd_pool = list(range(sig.m)) if holomorphic else list(range(sig.odd_count))
            size = self.rng.randint(0, min(2, len(odd_pool)) if odd_pool else 0)
            odd = tuple(sorted(self.rng.sample(odd_pool, size))) if size else ()
            if parity is not None and len(odd) % 2 != parity:
                continue
            if not allow_constant and sum(exps) == 0 and not odd:
                continue
            return tuple(exps), odd
        raise RuntimeError("could not draw a monomial with the requested shape")

    def jet(self, sig: RingSignature, max_terms=3, max_even_degree=2, holomorphic=False,
            parity=None, allow_constant=True) -> JetSuperFunction:
        terms = {}
        for _ in range(self.rng.randint(0 if allow_constant else 1, max_terms)):
            key = self.monomial_key(sig, max_even_degree, holomorphic, parity, allow_constant)
            coeff = self.scalar(allow_zero=False)
            terms[key] = terms.get(key, GaussianRational.of(0)) + coeff
        return JetSuperFunction(sig, terms)  # drops coefficients that cancelled

    def unit(self, sig: RingSignature, holomorphic=True) -> JetSuperFunction:
        """Even invertible superfunction with body 1."""
        rest = self.jet(sig, max_terms=2, max_even_degree=2, holomorphic=holomorphic,
                        parity=0, allow_constant=False)
        return JetSuperFunction.one(sig) + rest

    # -- multivector forms --------------------------------------------------

    def index_multiset(self, chart, size, allow_repeats=False):
        """Sorted index tuple with even directions distinct; repeats only odd."""
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
        """Random homogeneous (p, q) section, optionally of fixed total parity."""
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
        """Random homogeneous section with random bidegree and parity."""
        p = self.rng.randint(0, max_p)
        q = self.rng.randint(0, max_q)
        parity = self.rng.randint(0, 1)
        return self.mvform(chart, p, q, parity=parity, allow_repeats=allow_repeats), p, q, parity

    # -- Berezinian sections ----------------------------------------------

    def trivialising_section(self, chart: Chart) -> BerSection:
        return BerSection(chart, self.unit(chart.sig, holomorphic=True))

    # -- morphisms ---------------------------------------------------------

    def invertible_morphism(self, chart: Chart, nonlinear=True) -> Morphism:
        """Random holomorphic invertible coordinate change on the chart.

        Even images avoid terms of even degree zero so that pullback does not
        lower jet precision.
        """
        sig = chart.sig
        n, m = sig.n, sig.m
        while True:
            even_lin = [[GaussianRational.of(self.rng.randint(-1, 1)) for _ in range(n)] for _ in range(n)]
            for i in range(n):
                even_lin[i][i] = even_lin[i][i] + GaussianRational.of(1)
            odd_lin = [[GaussianRational.of(self.rng.randint(-1, 1)) for _ in range(m)] for _ in range(m)]
            for i in range(m):
                odd_lin[i][i] = odd_lin[i][i] + GaussianRational.of(1)
            if _det(even_lin) and _det(odd_lin):
                break
        pullbacks = []
        for i in range(n):
            acc = JetSuperFunction.zero(sig)
            for k in range(n):
                acc = acc + chart.coordinate(k).scale(even_lin[i][k])
            if nonlinear:
                for _ in range(self.rng.randint(0, 2)):
                    a, b = self.rng.randrange(n), self.rng.randrange(n)
                    quad = chart.coordinate(a) * chart.coordinate(b)
                    acc = acc + quad.scale(self.scalar(allow_zero=False))
                if m >= 2 and self.rng.random() < 0.7:
                    a = self.rng.randrange(n)
                    j, k = sorted(self.rng.sample(range(m), 2))
                    mixed = chart.coordinate(a) * chart.coordinate(n + j) * chart.coordinate(n + k)
                    acc = acc + mixed.scale(self.scalar(allow_zero=False))
            pullbacks.append(acc)
        for j in range(m):
            acc = JetSuperFunction.zero(sig)
            for k in range(m):
                acc = acc + chart.coordinate(n + k).scale(odd_lin[j][k])
            if nonlinear:
                for _ in range(self.rng.randint(0, 2)):
                    a = self.rng.randrange(n)
                    k = self.rng.randrange(m)
                    acc = acc + (chart.coordinate(a) * chart.coordinate(n + k)).scale(
                        self.scalar(allow_zero=False))
            pullbacks.append(acc)
        return Morphism(chart, Chart(sig, name="zeta", odd_wedge_cap=chart.odd_wedge_cap), pullbacks)


    # -- connection data -----------------------------------------------------

    def christoffel(self, chart: Chart, max_terms=1, nilpotent=False):
        """Random holomorphic Christoffel symbols with correct parities.

        With ``nilpotent`` every value carries at least one odd generator, so
        transport series terminate exactly.
        """
        from .connect import Christoffel

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

    def formal_path(self, chart: Chart, odd_params=2, order=4, with_odd_direction=True):
        """Random polynomial path through the base point."""
        from .connect import FormalPath, path_ring

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

    def cy_scenario(self, chart: Chart):
        """Unit h plus Christoffel data satisfying the supertrace constraint.

        All but one diagonal right-symbol in each direction is drawn freely;
        the last one absorbs whatever makes str(RGamma_(k .)) = d_k(h) h^-1.
        """
        from .connect import Christoffel, delta_from_tangent

        h = self.unit(chart.sig, holomorphic=True)
        h_inv = h.invert()
        dim = chart.dim
        symbols = {}
        for _ in range(self.rng.randint(0, dim)):
            q, k, l = (self.rng.randrange(dim) for _ in range(3))
            if q == l:
                continue  # keep the supertrace adjustment separate
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
                if (chart.parity(q) * (1 + chart.parity(k))) % 2:
                    current = current - entry
                else:
                    current = current + entry
            needed = target - current  # correction to the supertrace, parity |k|
            # place it on the q = 0 diagonal entry (even direction, right = left there
            # up to the parity twist, which is trivial for q even)
            prev = adjusted.get((0, k, 0), chart.zero())
            adjusted[(0, k, 0)] = prev + needed
        gamma = Christoffel(chart, {key: v for key, v in adjusted.items() if not v.is_zero()})
        table = delta_from_tangent(gamma)
        return h, gamma, table


def _det(grid) -> GaussianRational:
    size = len(grid)
    if size == 0:
        return GaussianRational.of(1)
    if size == 1:
        return grid[0][0]
    acc = GaussianRational.of(0)
    import itertools

    for perm in itertools.permutations(range(size)):
        sign = 1
        for i in range(size):
            for j in range(i + 1, size):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = GaussianRational.of(sign)
        for i in range(size):
            prod = prod * grid[i][perm[i]]
        acc = acc + prod
    return acc
