"""Deterministic random generators for desk-scale verification instances.

All randomness flows through a named ``random.Random`` seeded from the
scenario, never from ambient entropy; identical seeds reproduce identical
samples.  Every draw takes the words of ``getrandbits`` that random.py's
``randint``, ``randrange``, ``choice`` or ``sample`` would take
(``SampleGen._below``), without their Python call chain, so code that also
draws from ``SampleGen.rng`` sees the same stream.  Coefficients are kept
small (even degree at most 2, few terms) so the exact arithmetic stays fast.
"""

from __future__ import annotations

import random

from .charts import BerSection, Chart, Morphism
from .grading import koszul
from .jetring import JetSuperFunction, RingSignature, _finish
from .mvforms import MultiVectorForm, add_terms


class SampleGen:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def _below(self, n: int) -> int:
        """``rng.randrange(n)`` word for word: ``n.bit_length()`` bits, drawn
        again while at least ``n``.  The hot draws inline this loop.  An empty
        range raises before drawing (``getrandbits(0)`` is 0, never below 0)."""
        if n < 1:
            raise ValueError("empty range for randrange()")
        bits, k = self.rng.getrandbits, n.bit_length()
        r = bits(k)
        while r >= n:
            r = bits(k)
        return r

    def _sample(self, n: int, k: int) -> list:
        """``rng.sample(range(n), k)`` for ``k <= 2``, word for word: up to 21
        items random.py draws the second pick from the ``n - 1`` left, the
        last item standing in for the first pick; above, it redraws a repeat."""
        if not k:
            return []
        first = self._below(n)
        if k == 1:
            return [first]
        if n <= 21:
            j = self._below(n - 1)
            return [first, n - 1 if j == first else j]
        j = first
        while j == first:
            j = self._below(n)
        return [first, j]

    # -- scalars ---------------------------------------------------------

    def _numerators(self, allow_zero=True, complex_part=True) -> tuple:
        """A Gaussian integer ``(re, im)``: real part in -2..2, imaginary part
        in -1..1 (drawn unless real); scale by it with ``scale_numerators``."""
        while True:
            re = self._below(5) - 2
            im = self._below(3) - 1 if complex_part else 0
            if allow_zero or re or im:
                return re, im

    # -- superfunctions ---------------------------------------------------

    def jet(self, sig: RingSignature, max_terms=3, max_even_degree=2, holomorphic=False,
            parity=None, allow_constant=True) -> JetSuperFunction:
        """Sum of sampled monomials with nonzero Gaussian-integer coefficients.

        A monomial draws its even degree, that many even generators (repeats
        allowed) and 0, 1 or 2 distinct odd ones, again (up to 64 times) while
        of the wrong parity or constant without ``allow_constant``; its packed
        key is summed pick by pick.  The coefficients are summed as integer
        numerators; monomials past the cap and sums that cancelled are dropped.
        """
        layout = sig._layout
        steps = layout.steps[:sig.n] if holomorphic else layout.steps
        odd_count = sig.m if holomorphic else sig.odd_count
        most_odd = min(2, odd_count)
        bits = self.rng.getrandbits
        pool, degree_bits = len(steps), (max_even_degree + 1).bit_length()
        pick_bits, size_bits = pool.bit_length(), (most_odd + 1).bit_length()
        lo = 0 if allow_constant else 1
        terms = {}
        # each draw below inlines _below: randint(0, max_even_degree), choice(steps),
        # randint(0, most_odd), then randint(-2, 2) and randint(-1, 1) as in _numerators
        for _ in range(lo + self._below(max_terms + 1 - lo)):
            for _ in range(64):
                degree = bits(degree_bits)
                while degree > max_even_degree:
                    degree = bits(degree_bits)
                key = 0
                for _ in range(degree):
                    if not pool:
                        raise IndexError("Cannot choose from an empty sequence")
                    pick = bits(pick_bits)
                    while pick >= pool:
                        pick = bits(pick_bits)
                    key += steps[pick]
                size = bits(size_bits)
                while size > most_odd:
                    size = bits(size_bits)
                if size:
                    for o in self._sample(odd_count, size):
                        key |= 1 << o
                if (parity is None or size % 2 == parity) and (key or allow_constant):
                    break
            else:
                raise RuntimeError("could not draw a monomial with the requested shape")
            while True:
                re = bits(3)
                while re > 4:
                    re = bits(3)
                im = bits(2)
                while im > 2:
                    im = bits(2)
                if re != 2 or im != 1:
                    break
            re, im = re - 2, im - 1
            prev = terms.get(key)
            terms[key] = (re, im) if prev is None else (prev[0] + re, prev[1] + im)
        return _finish(sig, terms, 1, sig.cap)

    def unit(self, sig: RingSignature, holomorphic=True) -> JetSuperFunction:
        """Even invertible superfunction with body 1."""
        rest = self.jet(sig, max_terms=2, max_even_degree=2, holomorphic=holomorphic,
                        parity=0, allow_constant=False)
        return JetSuperFunction.one(sig) + rest

    # -- multivector forms --------------------------------------------------

    def index_multiset(self, chart, size, allow_repeats=False):
        """Sorted index tuple with even directions distinct; repeats only odd."""
        dim, n, odd_wedge_cap = chart.dim, chart.sig.n, chart.odd_wedge_cap
        bits, width = self.rng.getrandbits, dim.bit_length()
        picks = []
        counts = {}
        for _ in range(64):
            if len(picks) == size:
                break
            if not dim:
                raise ValueError("empty range for randrange()")
            k = bits(width)
            while k >= dim:
                k = bits(width)
            seen = counts.get(k, 0)
            if seen and (k < n or not allow_repeats) or seen >= odd_wedge_cap:
                continue
            picks.append(k)
            counts[k] = seen + 1
        if len(picks) < size:
            raise RuntimeError("could not draw an index multiset of the requested size")
        return tuple(sorted(picks))

    def mvform(self, chart, p, q, parity=None, max_terms=2, holomorphic_coeff=False,
               allow_repeats=False):
        """Random homogeneous (p, q) section, optionally of fixed total parity."""
        pairs = []
        for _ in range(1 + self._below(max_terms)):
            i_idx = self.index_multiset(chart, q, allow_repeats)
            j_idx = self.index_multiset(chart, p, allow_repeats)
            index_parity = sum(k >= chart.sig.n for k in i_idx + j_idx) % 2  # odd directions
            coeff_parity = None if parity is None else (parity + index_parity) % 2
            coeff = self.jet(chart.sig, max_terms=2, max_even_degree=2,
                             holomorphic=holomorphic_coeff, parity=coeff_parity)
            pairs.append(((i_idx, j_idx), coeff))
        # jet() draws every coefficient at the cap, and add_terms keeps no zero
        return MultiVectorForm._clean(chart, add_terms({}, pairs), chart.sig.cap)

    def homogeneous_mvform(self, chart, max_p=2, max_q=2, allow_repeats=False):
        """Random homogeneous section with a random bidegree and parity that
        the chart can hold: at most n + m indices of each kind (n + m times
        ``odd_wedge_cap`` with repeats), and parity 0 with no odd direction."""
        sig = chart.sig
        room = sig.n + sig.m * (chart.odd_wedge_cap if allow_repeats else 1)
        p = self._below(min(max_p, room) + 1)
        q = self._below(min(max_q, room) + 1)
        parity = self._below(2) if sig.m else 0
        return self.mvform(chart, p, q, parity=parity, allow_repeats=allow_repeats), p, q, parity

    # -- Berezinian sections ----------------------------------------------

    def trivialising_section(self, chart: Chart) -> BerSection:
        return BerSection(chart, self.unit(chart.sig, holomorphic=True))

    # -- morphisms ---------------------------------------------------------

    def invertible_morphism(self, chart: Chart, nonlinear=True) -> Morphism:
        """Random holomorphic invertible coordinate change on the chart.

        Even images avoid terms of even degree zero so that pullback does not
        lower jet precision.  Each image is summed from packed keys in the
        order of the random stream: linear terms z_k or th_k, then in an even
        image up to two z_a z_b and the mixed odd pair z_a th_j th_k (j < k,
        so no sign), in an odd image up to two z_a th_k.  Keys past the cap
        and sums that cancel drop; the terms, their order and ``prec`` are
        those of ``jetring.dot`` over the monomials and their coefficients.
        """
        sig = chart.sig
        n, m = sig.n, sig.m
        while True:
            even_lin = [[self._below(3) - 1 + (i == k) for k in range(n)] for i in range(n)]
            odd_lin = [[self._below(3) - 1 + (i == k) for k in range(m)] for i in range(m)]
            if not (_singular(even_lin) or _singular(odd_lin)):
                break
        steps = sig._layout.steps

        def image(pieces):
            terms: dict = {}
            for key, re, im in pieces:
                prev = terms.get(key)
                terms[key] = (re, im) if prev is None else (prev[0] + re, prev[1] + im)
            return _finish(sig, terms, 1, sig.cap)

        pullbacks = []
        for i in range(n):
            pieces = [(steps[k], c, 0) for k, c in enumerate(even_lin[i]) if c]
            if nonlinear:
                for _ in range(self._below(3)):
                    a, b = self._below(n), self._below(n)
                    pieces.append((steps[a] + steps[b], *self._numerators(allow_zero=False)))
                if m >= 2 and self.rng.random() < 0.7:
                    a = self._below(n)
                    j, k = sorted(self._sample(m, 2))
                    pieces.append((steps[a] + (1 << j) + (1 << k),
                                   *self._numerators(allow_zero=False)))
            pullbacks.append(image(pieces))
        for j in range(m):
            pieces = [(1 << k, c, 0) for k, c in enumerate(odd_lin[j]) if c]
            if nonlinear:
                for _ in range(self._below(3)):
                    a = self._below(n)
                    k = self._below(m)
                    pieces.append((steps[a] + (1 << k), *self._numerators(allow_zero=False)))
            pullbacks.append(image(pieces))
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
        count = 1 + self._below(dim * 2)
        for _ in range(count):
            q, k, l = (self._below(dim) for _ in range(3))
            parity = (chart.parity(q) + chart.parity(k) + chart.parity(l)) % 2
            if nilpotent:
                if parity == 1 and m >= 1:
                    base = JetSuperFunction.gen(chart.sig, chart.sig.th(self._below(m)))
                elif parity == 0 and m >= 2:
                    i, j = sorted(self._sample(m, 2))
                    base = JetSuperFunction.gen(chart.sig, chart.sig.th(i)) * \
                        JetSuperFunction.gen(chart.sig, chart.sig.th(j))
                else:
                    continue
                value = base.scale_numerators(*self._numerators(allow_zero=False), 1)
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
                comp = t.scale_numerators(*self._numerators(allow_zero=False, complex_part=False), 1)
                if self.rng.random() < 0.5:
                    comp = comp + (t * t).scale_numerators(*self._numerators(complex_part=False), 1)
            else:
                comp = JetSuperFunction.zero(ring)
                if with_odd_direction and odd_params:
                    eta = JetSuperFunction.gen(ring, ring.th(self._below(odd_params)))
                    comp = (eta * t).scale_numerators(
                        *self._numerators(allow_zero=False, complex_part=False), 1)
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
        for _ in range(self._below(dim + 1)):
            q, k, l = (self._below(dim) for _ in range(3))
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


def _singular(grid) -> bool:
    """Whether a square integer grid has determinant zero, by Bareiss's
    fraction-free elimination: step k replaces each entry x right of and
    below the pivot p by (p*x - f*y) / p_prev, with f the row's entry in
    column k, y the pivot row's and p_prev the previous pivot, an exact
    division (Sylvester's identity).  A zero pivot is swapped with a row
    below it; the last pivot is the determinant up to sign."""
    rows, previous = [list(row) for row in grid], 1
    for k in range(len(rows) - 1):
        below = next((i for i in range(k, len(rows)) if rows[i][k]), None)
        if below is None:
            return True
        rows[k], rows[below] = rows[below], rows[k]
        top = rows[k]
        for row in rows[k + 1:]:
            row[k + 1:] = [(x * top[k] - row[k] * y) // previous
                           for x, y in zip(row[k + 1:], top[k + 1:])]
        previous = top[k]
    return bool(rows) and rows[-1][-1] == 0
