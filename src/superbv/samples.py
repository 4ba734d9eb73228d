"""Deterministic random generators for desk-scale verification instances.

All randomness flows through a named ``random.Random`` seeded from the
scenario, never from ambient entropy; identical seeds reproduce identical
samples.  Coefficients are kept small (even degree at most 2, few terms) so
the exact arithmetic stays fast.
"""

from __future__ import annotations

import itertools
import random

from .charts import BerSection, Chart, Morphism
from .grading import ODD, koszul, reorder_sign
from .jetring import GaussianRational, JetSuperFunction, RingSignature, _canonical, dot
from .mvforms import MultiVectorForm, add_terms


class SampleGen:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    # -- scalars ---------------------------------------------------------

    def _numerators(self, allow_zero=True, complex_part=True):
        """Integer real and imaginary parts of a scalar draw."""
        while True:
            re = self.rng.randint(-2, 2)
            im = self.rng.randint(-1, 1) if complex_part else 0
            if allow_zero or re or im:
                return re, im

    def scalar(self, allow_zero=True, complex_part=True) -> GaussianRational:
        return GaussianRational.of(*self._numerators(allow_zero, complex_part))

    def nonzero_scalar(self) -> GaussianRational:
        return self.scalar(allow_zero=False)

    # -- superfunctions ---------------------------------------------------

    def monomial_key(self, sig: RingSignature, max_even_degree=2, holomorphic=False,
                     parity=None, allow_constant=True):
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

    def jet(self, sig: RingSignature, max_terms=3, max_even_degree=2, holomorphic=False,
            parity=None, allow_constant=True) -> JetSuperFunction:
        """Sum of sampled monomials with nonzero Gaussian-integer coefficients.

        The coefficients are summed as integer numerators under packed keys;
        monomials past the cap and sums that cancelled are dropped.
        """
        layout = sig._layout
        terms = {}
        for _ in range(self.rng.randint(0 if allow_constant else 1, max_terms)):
            exps, odd = self.monomial_key(sig, max_even_degree, holomorphic, parity, allow_constant)
            re, im = self._numerators(allow_zero=False)
            key = layout.key(exps, odd)
            prev = terms.get(key)
            terms[key] = (re, im) if prev is None else (prev[0] + re, prev[1] + im)
        shift = layout.shift
        kept = {key: c for key, c in terms.items() if (c[0] or c[1]) and key >> shift <= sig.cap}
        return _canonical(sig, kept, 1, sig.cap)

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
            even_lin = [[self.rng.randint(-1, 1) + (i == k) for k in range(n)] for i in range(n)]
            odd_lin = [[self.rng.randint(-1, 1) + (i == k) for k in range(m)] for i in range(m)]
            if _det(even_lin) and _det(odd_lin):
                break
        coords = [chart.coordinate(k) for k in range(chart.dim)]

        def linear_terms(row, offset):
            return [(coords[offset + k], JetSuperFunction.integer(sig, c))
                    for k, c in enumerate(row) if c]

        def scaled(monomial):
            return monomial, JetSuperFunction.scalar(sig, self.scalar(allow_zero=False))

        # each image is one dot over its terms, drawn in the order of the
        # random stream: linear, quadratic, then the mixed odd-pair term
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
                sign = koszul(chart.parity(q) * (1 + chart.parity(k)))
                current = current + (entry if sign > 0 else -entry)
            needed = target - current  # correction to the supertrace, parity |k|
            # place it on the q = 0 diagonal entry (even direction, right = left there
            # up to the parity twist, which is trivial for q even)
            prev = adjusted.get((0, k, 0), chart.zero())
            adjusted[(0, k, 0)] = prev + needed
        gamma = Christoffel(chart, {key: v for key, v in adjusted.items() if not v.is_zero()})
        table = delta_from_tangent(gamma)
        return h, gamma, table


def _det(grid) -> int:
    """Leibniz determinant of a square grid of integers."""
    acc = 0
    for perm in itertools.permutations(range(len(grid))):
        prod = reorder_sign([ODD] * len(perm), perm)
        for row, col in zip(grid, perm):
            prod *= row[col]
        acc += prod
    return acc
