"""Multivector-valued forms: normal forms, wedge, dbar and the Schouten bracket.

A section is stored as a map from an index pair (I, J) to a coefficient,
representing

    sum  d xibar^I  (x)  d/dxi^J . f_{I,J}

with both multi-indices sorted ascending and the coefficient written at the
far right.  Even directions never repeat inside I or J (they wedge
antisymmetrically); odd directions may repeat up to the chart's
``odd_wedge_cap``, they wedge symmetrically.  ``Section`` holds this sparse
map and its linear structure for multivector forms here and for integral
forms and their parity-flipped images in ``bvcalc``; ``add_terms`` is the one
place where coefficients are summed and cancelled keys dropped.

``wedge``, ``schouten``, ``dbar`` and ``pull_mvform`` work on stored terms:
each product of terms, piece of the bracket formulas, barred derivative or
choice of matrix entries lands on the merge of the index tuples it puts
side by side, with a product of homogeneous coefficient parts and the sign
of bringing that product into normal form.  Every sign is grading.koszul of
an exponent: the sorting exponents of ``_merged`` plus explicit exchange
exponents; no sign is computed elsewhere.  tests/oracles.py keeps a
normaliser of formal words, one word per product, piece, derivative or
choice, as the oracle that these operations must match.
"""

from __future__ import annotations

from .charts import Chart, ChartError, Morphism
from .grading import koszul
from .jetring import JetSuperFunction, _parts


def _is_full_unit(f: JetSuperFunction) -> bool:
    return f.prec == f.sig.cap and f.den == 1 and f.terms == {0: (1, 0)}


def _times(f: JetSuperFunction, g: JetSuperFunction) -> JetSuperFunction:
    """``f * g``, skipping a factor one at full precision, which changes
    neither the terms nor ``prec``."""
    return g if _is_full_unit(f) else f if _is_full_unit(g) else f * g


def _drops(chart: Chart, indices) -> bool:
    """Whether the sorted ``indices`` repeat an even direction, or hold an
    odd one more often than the chart's ``odd_wedge_cap``."""
    run = 0
    for pos, k in enumerate(indices):
        run = run + 1 if pos and indices[pos - 1] == k else 1
        if (run > 1 and chart.parity(k) == 0) or run > chart.odd_wedge_cap:
            return True
    return False


def add_terms(terms: dict, pairs) -> dict:
    """Add each (key, coefficient) pair into ``terms`` in place and return it.

    A key whose coefficients cancel is dropped, so a sum of sparse sections
    never stores a zero coefficient.
    """
    for key, coeff in pairs:
        prev = terms.get(key)
        total = coeff if prev is None else prev + coeff
        if total.is_zero():
            terms.pop(key, None)
        else:
            terms[key] = total
    return terms


class Section:
    """Sparse map (I, J) -> coefficient jet, with a form-level order of validity.

    Multivector forms, integral forms and their parity-flipped images share
    this storage and its linear structure; a subclass only decides where the
    Berezinian slot appears when a term is rendered.  ``prec`` is the
    even-degree order to which the section is trusted: the minimum of the
    precisions of all coefficients that entered its computation, including
    ones that cancelled away.  Comparisons truncate both sides to the smaller
    ``prec``.  Operations return the class of their left operand.

    The constructor drops zero coefficients, clamps ``prec`` to 0..cap and
    lowers it to every coefficient's ``prec``.  Results that hold all of that
    by construction skip those checks through ``_clean``: ``__add__``,
    ``__neg__``, ``wedge``, ``schouten``, ``bvcalc.extend_delta`` and its
    ``_extend_term``, and ``SampleGen.mvform``.  They sum their terms with
    ``add_terms``, which keeps no zero, and take ``prec`` as a least
    precision of the inputs that bounds every coefficient they form.
    """

    __slots__ = ("chart", "terms", "prec")
    _tag = "section"

    def __init__(self, chart: Chart, terms: dict, prec: int | None = None):
        self.chart = chart
        floor = chart.sig.cap if prec is None else max(0, min(prec, chart.sig.cap))
        clean = {}
        for key, coeff in terms.items():
            if not coeff.is_zero():
                clean[key] = coeff
                floor = min(floor, coeff.prec)
        self.terms = clean
        self.prec = floor

    @classmethod
    def _clean(cls, chart: Chart, terms: dict, prec: int):
        """A section that owns ``terms``, with no coefficient zero and each
        known through ``prec``, and ``0 <= prec <= cap``: what the
        constructor would store, without its checks."""
        section = object.__new__(cls)
        section.chart = chart
        section.terms = terms
        section.prec = prec
        return section

    @classmethod
    def zero(cls, chart: Chart, prec: int | None = None):
        return cls(chart, {}, prec)

    def is_zero(self) -> bool:
        return not self.terms

    # -- linear structure ----------------------------------------------------

    def __add__(self, other):
        self._check_chart(other)
        terms = add_terms(dict(self.terms), other.terms.items())
        return type(self)._clean(self.chart, terms, min(self.prec, other.prec))

    def __neg__(self):
        return type(self)._clean(self.chart, {k: -c for k, c in self.terms.items()}, self.prec)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, value):
        return type(self)(self.chart, {k: c.scale(value) for k, c in self.terms.items()}, self.prec)

    def _check_chart(self, other) -> None:
        if self.chart != other.chart:
            raise ChartError("chart mismatch")

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.chart == other.chart and self.prec == other.prec and self.terms == other.terms

    __hash__ = None

    def agrees_with(self, other) -> bool:
        """Termwise equality after truncating to the common order of validity."""
        self._check_chart(other)
        prec = min(self.prec, other.prec)
        zero = self.chart.zero()
        for key in set(self.terms) | set(other.terms):
            left = self.terms.get(key, zero).truncate(prec)
            right = other.terms.get(key, zero).truncate(prec)
            if not left.same_terms(right):
                return False
        return True

    # -- rendering ------------------------------------------------------------

    def _factors(self, dbars: list, vecs: list, coeff: str) -> list:
        """The rendered factors of one term, in display order."""
        return dbars + vecs + [coeff]

    def render(self) -> str:
        if not self.terms:
            return "0"
        chart = self.chart
        sig = chart.sig
        pieces = []
        for (i, j) in sorted(self.terms, key=lambda key: (len(key[0]), len(key[1]), key)):
            dbars = [f"d{sig.gen_name(chart.bar_gen_id(k))}" for k in i]
            vecs = [f"dv({sig.gen_name(chart.gen_id(k))})" for k in j]
            coeff = f"({self.terms[(i, j)].render()})"
            pieces.append(" * ".join(self._factors(dbars, vecs, coeff)))
        return " + ".join(pieces)

    def __repr__(self) -> str:
        return f"<{self._tag} {self.render()}>"


class MultiVectorForm(Section):
    """Normal-form multivector-valued form d xibar^I (x) d/dxi^J . f."""

    __slots__ = ()
    _tag = "mvform"

    # an attribute of this class, so that per-class tracing (bench/tracer.py
    # reads vars(cls)) still counts multivector-form comparisons on their own
    agrees_with = Section.agrees_with

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_function(chart: Chart, f: JetSuperFunction) -> "MultiVectorForm":
        return MultiVectorForm(chart, {((), ()): f})

    @staticmethod
    def vector(chart: Chart, k: int, coeff: JetSuperFunction | None = None) -> "MultiVectorForm":
        return MultiVectorForm(chart, {((), (k,)): coeff if coeff is not None else chart.one()})

    @staticmethod
    def dbar_basis(chart: Chart, k: int) -> "MultiVectorForm":
        return MultiVectorForm(chart, {((k,), ()): chart.one()})

    # -- structure ---------------------------------------------------------

    def parity(self):
        parities = set()
        for (i, j), coeff in self.terms.items():
            cp = coeff.parity()
            if cp is None:
                return None
            parities.add((cp + sum(map(self.chart.parity, i + j))) % 2)
        return parities.pop() if len(parities) == 1 else None if parities else 0

    def bidegree_components(self):
        """Split into homogeneous (p, q) pieces: dict (p, q) -> MultiVectorForm."""
        buckets: dict = {}
        for (i, j), coeff in self.terms.items():
            buckets.setdefault((len(j), len(i)), {})[(i, j)] = coeff
        return {pq: MultiVectorForm(self.chart, terms, self.prec) for pq, terms in buckets.items()}

    def project(self, p: int, q: int) -> "MultiVectorForm":
        terms = {(i, j): c for (i, j), c in self.terms.items() if len(j) == p and len(i) == q}
        return MultiVectorForm(self.chart, terms, self.prec)


# -- operations ----------------------------------------------------------------


def _merged(chart: Chart, indices: tuple):
    """``(sorted indices, exponent)``, or False where ``_drops`` drops them,
    kept on the chart for every later call.  The exponent is that of sorting
    these symbols: x before y with x > y exchange with 1 + |x||y|, odd
    exactly when the smaller y is even."""
    cache = chart._merges
    got = cache.get(indices)
    if got is None:
        key, parity = tuple(sorted(indices)), chart.parity
        exponent = 0 if key == indices else sum(
            1 for pos, y in enumerate(indices) if not parity(y) for x in indices[:pos] if x > y)
        got = cache[indices] = not _drops(chart, key) and (key, exponent)
    return got


def wedge(a: MultiVectorForm, b: MultiVectorForm) -> MultiVectorForm:
    """Exterior product, term by term.

    The word I J f I' J' g of two stored terms lands on the key
    (sort(I + I'), sort(J + J')) with coefficient f_s * g_t for each pair of
    homogeneous parts, and sign ``koszul`` of the sorting exponents
    (``_merged``) + |J||I'| + |J|_odd |I'|_odd + |f_s| (|I'|_odd + |J'|_odd).
    The pair's choices are summed before they are added to the result.
    """
    a._check_chart(b)
    chart = a.chart
    parity = chart.parity
    right = [(ib, jb, sum(map(parity, ib)), sum(map(parity, ib + jb)), _parts(g))
             for (ib, jb), g in b.terms.items()]
    terms: dict = {}
    for (ia, ja), f in a.terms.items():
        odd_ja, f_parts = sum(map(parity, ja)), _parts(f)
        for ib, jb, odd_ib, odd_b, g_parts in right:
            bars = _merged(chart, ia + ib)
            vecs = bars and _merged(chart, ja + jb)
            if not vecs:
                continue
            exponent = bars[1] + vecs[1] + len(ja) * len(ib) + odd_ja * odd_ib
            total = None
            for fp, f_part in f_parts:
                for _, g_part in g_parts:
                    coeff = _times(f_part, g_part)
                    if coeff.terms:
                        coeff = coeff if koszul(exponent + fp * odd_b) > 0 else -coeff
                        total = coeff if total is None else total + coeff
                        total = total if total.terms else None
            if total is not None:
                add_terms(terms, (((bars[0], vecs[0]), total),))
    return MultiVectorForm._clean(chart, terms, min(a.prec, b.prec))


def dbar(a: MultiVectorForm) -> MultiVectorForm:
    """Raises the form degree by one; the multivector factor is inert.

    On a stored term d xibar^I (x) d/dxi^J . f this is

        sum_k (-1)^(|k| (|I| + |J|))  d xibar^k ^ d xibar^I (x) d/dxi^J . df/dxibar^k

    and each piece lands on (sort(k + I), sort(J)), or drops, with the sorting
    exponents of ``_merged`` added to its sign's.  Every nonzero derivative's
    ``prec`` bounds the result's, also where its piece drops.
    """
    chart = a.chart
    parity = chart.parity
    terms: dict = {}
    prec = a.prec
    for (i, j), coeff in a.terms.items():
        index_parity = sum(map(parity, i + j))
        vecs = _merged(chart, j)
        for k in range(chart.dim):
            df = chart.dbar(coeff, k)
            if not df.terms:
                continue
            prec = min(prec, df.prec)
            bars = vecs and _merged(chart, (k,) + i)
            if bars:
                exponent = parity(k) * index_parity + bars[1] + vecs[1]
                add_terms(terms, (((bars[0], vecs[0]), df if koszul(exponent) > 0 else -df),))
    return MultiVectorForm(chart, terms, prec)


# -- the Schouten bracket -------------------------------------------------------


def _function_pieces(chart: Chart, h, hp, c, cp, directions, lead: int):
    """The pieces (exponent + ``lead``, vector indices, coefficient) of
    [[h, v_0 ^ v_1 ^ ...]] = -sum_i (-1)^(i + |v_i| (|v_0| + ... + |v_(i-1)| + |h|)) v_i(h) ...
    for v_0 = c d/dxi^J[0], v_1 = d/dxi^J[1], ... and h, c of parities hp, cp.
    The exponent adds that of the coefficient (and of c where it stays a
    factor) passing the vectors to its right."""
    parity = chart.parity
    odd = sum(map(parity, directions))
    prefix = 0
    for i, k in enumerate(directions):
        pk = parity(k)
        pv = pk + cp if i == 0 else pk
        d = chart.d(h, k)
        if d.terms:
            yield (lead + 1 + i + pv * (prefix + hp) + (hp + cp + pk) * (odd - pk),
                   directions[:i] + directions[i + 1:], c * d if i == 0 else _times(d, c))
        prefix += pv


def _vector_pieces(chart: Chart, f, fp, ja, g, gp, jb):
    """sum_(j, i) (-1)^(i + j + |w_j| (|w_0| + ... + |w_(j-1)|) + |v_i| (|v_0| + ...
    + |v_(i-1)| + |w| + |w_j|)) [[w_j, v_i]] ^ rest, for w = f d/dxi^J and
    v = g d/dxi^J'; only w_0 and v_0 carry a coefficient to differentiate."""
    parity = chart.parity
    odd_a, odd_b = sum(map(parity, ja)), sum(map(parity, jb))
    a0, b0 = ja[0], jb[0]
    pa0, pb0 = parity(a0), parity(b0)
    w_total, pw0 = fp + odd_a, fp + pa0
    prefix = 0
    for i, k in enumerate(jb):
        pk = parity(k)
        pv = pk + gp if i == 0 else pk
        position = i + pv * (prefix + w_total + pw0)
        if i == 0:
            d = chart.d(g, a0)
            if d.terms:  # w_0(g) d/dxi^b0
                yield (position + (fp + gp + pa0) * (odd_a + odd_b - pa0),
                       (b0,) + ja[1:] + jb[1:], f * d)
        d = chart.d(f, k)
        if d.terms:  # -(-1)^(|w_0||v_i|) v_i(f) d/dxi^a0
            crossing = (fp + pk) * (odd_a + odd_b - pk) + gp * (odd_b - pk + odd_a * (i == 0))
            yield (position + 1 + pw0 * pv + crossing, ja + jb[:i] + jb[i + 1:],
                   g * d if i == 0 else _times(d, g))
        prefix += pv
    prefix = pw0
    for j, k in enumerate(ja[1:], start=1):
        pk = parity(k)
        d = chart.d(g, k)
        if d.terms:  # w_j(g) d/dxi^b0
            yield (j + pk * prefix + (gp + pb0) * (w_total + pk) + (gp + pk) * (odd_a + odd_b - pk)
                   + fp * (odd_a - pk + odd_b - pb0), (b0,) + ja[:j] + ja[j + 1:] + jb[1:],
                   _times(d, f))
        prefix += pk


def schouten(a: MultiVectorForm, b: MultiVectorForm) -> MultiVectorForm:
    """Schouten-Nijenhuis bracket, bidegree (p,q) x (p',q') -> (p+p'-1, q+q').

    Each piece of the inner bracket of two stored terms' homogeneous parts
    lands on (sort(I + I'), sort(vector indices)) with sign ``koszul`` of its
    exponent, the sorting exponents (``_merged``) and that of moving f and g
    to the left of their terms and extending to forms.  Pieces are added to
    the result one at a time, in the order of the bracket formulas.
    """
    a._check_chart(b)
    chart = a.chart
    parity = chart.parity
    right = [(ib, jb, sum(map(parity, ib)), sum(map(parity, jb)), _parts(g))
             for (ib, jb), g in b.terms.items()]
    terms: dict = {}
    for (ia, ja), f in a.terms.items():
        odd_ja = sum(map(parity, ja))
        for fp, f_part in _parts(f):
            for ib, jb, odd_ib, odd_jb, g_parts in right:
                bars = (ja or jb) and _merged(chart, ia + ib)
                for gp, g_part in g_parts if bars else ():
                    outer = (bars[1] + fp * odd_ja + gp * odd_jb + len(ib) * (len(ja) + 1)
                             + odd_ib * (odd_ja + fp))
                    if not ja:
                        pieces = _function_pieces(chart, f_part, fp, g_part, gp, jb, 0)
                    elif not jb:
                        pieces = _function_pieces(chart, g_part, gp, f_part, fp, ja,
                                                  len(ja) + gp * (fp + odd_ja))
                    else:
                        pieces = _vector_pieces(chart, f_part, fp, ja, g_part, gp, jb)
                    for exponent, vec_idx, piece in pieces:
                        vecs = piece.terms and _merged(chart, vec_idx)
                        if vecs:
                            piece = piece if koszul(outer + exponent + vecs[1]) > 0 else -piece
                            add_terms(terms, (((bars[0], vecs[0]), piece),))
    # a bracket differentiates coefficients once, even directions included
    return MultiVectorForm._clean(chart, terms, max(0, min(a.prec, b.prec) - 1))


# -- pullback --------------------------------------------------------------------


def _columns(chart: Chart, matrix) -> list:
    """Per column: (row, its parity, the entry's parts) for each nonzero
    entry, and the least ``prec`` among those entries."""
    out = []
    for k in range(chart.dim):
        live = [(row, matrix.rows[row][k]) for row in range(chart.dim) if matrix.rows[row][k].terms]
        out.append(([(row, chart.parity(row), _parts(e)) for row, e in live],
                    min((e.prec for _, e in live), default=None)))
    return out


def pull_mvform(phi: Morphism, a: MultiVectorForm) -> MultiVectorForm:
    """Transport a section through a holomorphic invertible coordinate change.

    Coefficients pull back through phi#, vector indices through the inverse
    differential, barred form indices through the mirrored (conjugate)
    differential supertranspose; each matrix is built only when some term
    has an index of its kind.  A term (I, J, f) with pulled coefficient F
    expands into one word per choice of a nonzero entry e_b, in row r_b, of
    each index's column: barred indices first, rows ascending.  The word
    lands on (sort(rows of I), sort(rows of J)), or drops, by ``_merged``;
    each choice of homogeneous parts gives e_1 ... e_t F, prefix products
    shared between words, with sign ``koszul`` of the sorting exponents plus
    sum_a |e_a| (|r_(a+1)| + ... + |r_t|).  A word's choices are summed
    before it is added.  The result's ``prec`` is one below the section's,
    as the entries cost one derivative, and at most that of F and of every
    nonzero entry in the columns of each term that has a word.
    """
    if not phi.is_holomorphic():
        raise ChartError("multivector forms only pull back through holomorphic morphisms")
    if a.chart != phi.target:
        raise ChartError("section lives on the wrong chart")
    source = phi.source
    bar_columns = vec_columns = None
    if any(j_idx for _, j_idx in a.terms):
        vec_columns = _columns(source, phi.differential_inverse())
    if any(i_idx for i_idx, _ in a.terms):
        bar_columns = _columns(source, phi.differential_bar().supertranspose())
    terms: dict = {}
    prec = a.prec - 1
    for (i_idx, j_idx), pulled in zip(a.terms, phi.apply_many(a.terms.values())):
        symbols = [bar_columns[k] for k in i_idx] + [vec_columns[k] for k in j_idx]
        if not all(live for live, _ in symbols):
            continue  # an index with no nonzero entry leaves no word
        prec = min([prec, pulled.prec] + [low for _, low in symbols])
        q = len(i_idx)
        # per word: its rows, and per choice of parts (product, parity, exponent)
        words = [((), [(source.one(), 0, 0)])]
        for b, (live, _) in enumerate(symbols):
            grown = []
            for rows, choices in words:
                for row, row_parity, parts in live:
                    picked = rows + (row,)
                    if not _merged(source, picked[:q] if b < q else picked[q:]):
                        continue  # the word drops, so no product is formed
                    branch = []
                    for product, odd, exponent in choices:
                        exponent += row_parity * odd
                        for part_parity, part in parts:
                            value = _times(product, part)
                            if value.terms:
                                branch.append((value, odd + part_parity, exponent))
                    if branch:
                        grown.append((picked, branch))
            words = grown
        last = _parts(pulled)
        for rows, choices in words:
            bars, vecs = _merged(source, rows[:q]), _merged(source, rows[q:])
            total = None
            for product, _, exponent in choices:
                positive = koszul(bars[1] + vecs[1] + exponent) > 0
                for _, part in last:
                    value = _times(product, part)
                    if value.terms:
                        value = value if positive else -value
                        total = value if total is None else total + value
                        total = total if total.terms else None
            if total is not None:
                add_terms(terms, (((bars[0], vecs[0]), total),))
    return MultiVectorForm(source, terms, prec)

