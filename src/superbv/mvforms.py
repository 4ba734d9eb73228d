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

``wedge`` and ``schouten`` work on stored terms: each pair of terms (and
each piece of the bracket formulas) lands on the merge of the sorted index
tuples, with a product of homogeneous coefficient parts and the one sign
that normalising its formal word would give; tests/test_mvforms.py keeps
their word-based versions as the oracle.  ``dbar``, ``pull_mvform``,
``MultiVectorForm.from_words`` and ``bvcalc.extend_delta`` (on keys outside
normal form) build formal words of the item kinds below and hand them to
``normalise_word``, whose sign is grading.koszul of the summed exchange
exponents of the pairs it inverts.  Explicit sign exponents become signs
through grading.koszul; no sign is computed elsewhere.

Item kinds: ("dbar", k) a barred coordinate differential; ("vec", k) a
coordinate derivation; ("fun", f) a homogeneous coefficient.
"""

from __future__ import annotations

import itertools

from .charts import Chart, ChartError, Morphism
from .grading import koszul
from .jetring import JetSuperFunction

DBAR, VEC, FUN = "dbar", "vec", "fun"


def normalise_word(chart: Chart, items, prefactor: int = 1):
    """Sort a formal word into normal order, with Koszul signs.

    Returns a dict mapping (I, J) to a coefficient jet;  words that repeat an
    even direction, or exceed the odd multiplicity cap, are dropped (the
    former are zero, the latter fall outside the retained normal form).

    The normal order is the stable sort that puts the differentials first,
    then the derivations, each by direction, then the functions in their
    written order.  Each item gets its degree (1 for a differential or a
    derivation, 0 for a function) and its parity once.  A function item of
    mixed parity stands for the sum of its two homogeneous parts, so the
    word splits into one word per choice of parts.  The sign of a word is
    ``koszul`` of deg*deg + parity*parity summed over the pairs of items
    that the sort inverts, which is the product of the exchange signs of
    the swaps of an insertion sort.  The coefficient is the product of the
    function items from the first one on; a unit factor at full precision
    is skipped, since it changes neither the terms nor ``prec``.
    """
    items = list(items)
    ranks, degrees, choices = [], [], []
    for kind, payload in items:
        if kind == FUN:
            choices.append(_parts(payload))
            if not choices[-1]:
                return {}  # a zero factor
            ranks.append((2, 0))
            degrees.append(0)
        else:
            choices.append(((chart.parity(payload), None),))
            ranks.append((0 if kind == DBAR else 1, payload))
            degrees.append(1)
    form_idx = tuple(sorted(payload for kind, payload in items if kind == DBAR))
    vec_idx = tuple(sorted(payload for kind, payload in items if kind == VEC))
    if _drops(chart, form_idx) or _drops(chart, vec_idx):
        return {}
    size = len(items)
    inverted = [(i, j) for i in range(size) for j in range(i + 1, size) if ranks[i] > ranks[j]]
    degree_exponent = sum(degrees[i] * degrees[j] for i, j in inverted)
    pairs = []
    for word in itertools.product(*choices):
        exponent = degree_exponent + sum(word[i][0] * word[j][0] for i, j in inverted)
        coeff = None
        for _, f in word:
            if f is None or _is_full_unit(f):
                continue
            coeff = f if coeff is None else coeff * f
            if not coeff.terms:
                break
        if coeff is None:
            coeff = chart.one()
        elif not coeff.terms:
            continue
        if koszul(exponent) * prefactor < 0:
            coeff = -coeff
        pairs.append(((form_idx, vec_idx), coeff))
    return add_terms({}, pairs)


def _is_full_unit(f: JetSuperFunction) -> bool:
    return f.prec == f.sig.cap and f.den == 1 and f.terms == {0: (1, 0)}


def _parts(f: JetSuperFunction):
    """(parity, part) per nonzero homogeneous part, even first: the choices
    ``normalise_word`` splits a function item into."""
    parity = f.parity()
    if parity is None:
        return tuple(enumerate(f.homogeneous_parts()))
    return ((parity, f),) if f.terms else ()


def _times(f: JetSuperFunction, g: JetSuperFunction) -> JetSuperFunction:
    """``f * g``, skipping a factor one at full precision as ``normalise_word`` does."""
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


def in_normal_form(chart: Chart, key) -> bool:
    """Whether the stored key (I, J) is one ``normalise_word`` keeps as it
    is: both tuples sorted, and neither dropped by ``_drops``."""
    return all(tuple(sorted(idx)) == idx and not _drops(chart, idx) for idx in key)


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
    def zero(cls, chart: Chart, prec: int | None = None):
        return cls(chart, {}, prec)

    def is_zero(self) -> bool:
        return not self.terms

    # -- linear structure ----------------------------------------------------

    def __add__(self, other):
        self._check_chart(other)
        terms = add_terms(dict(self.terms), other.terms.items())
        return type(self)(self.chart, terms, min(self.prec, other.prec))

    def __neg__(self):
        return type(self)(self.chart, {k: -c for k, c in self.terms.items()}, self.prec)

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

    @staticmethod
    def from_words(chart: Chart, words, prec: int | None = None) -> "MultiVectorForm":
        acc: dict = {}
        floor = chart.sig.cap if prec is None else prec
        for prefactor, items in words:
            floor = min([floor] + [payload.prec for kind, payload in items if kind == FUN])
            add_terms(acc, normalise_word(chart, items, prefactor).items())
        return MultiVectorForm(chart, acc, floor)

    def term_word(self, key):
        """The formal word of one stored term (in normal order)."""
        form_idx, vec_idx = key
        items = [(DBAR, k) for k in form_idx] + [(VEC, k) for k in vec_idx]
        items.append((FUN, self.terms[key]))
        return items

    # -- structure ---------------------------------------------------------

    def bidegrees(self):
        """All (p, q) bidegrees occurring among the stored terms."""
        return {(len(j), len(i)) for (i, j) in self.terms}

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


def _merged(chart: Chart, indices: tuple, cache: dict):
    """``(sorted indices, exponent)``, or False where ``_drops`` drops them,
    kept in ``cache``.  The exponent is what sorting these symbols adds to
    ``normalise_word``'s: x before y with x > y exchange with 1 + |x||y|,
    odd exactly when the smaller y is even."""
    got = cache.get(indices)
    if got is None:
        key, parity = tuple(sorted(indices)), chart.parity
        exponent = sum(1 for pos, y in enumerate(indices) if not parity(y)
                       for x in indices[:pos] if x > y)
        got = cache[indices] = not _drops(chart, key) and (key, exponent)
    return got


def wedge(a: MultiVectorForm, b: MultiVectorForm) -> MultiVectorForm:
    """Exterior product, term by term.

    The word I J f I' J' g of two stored terms lands on the key
    (sort(I + I'), sort(J + J')) with coefficient f_s * g_t for each pair of
    homogeneous parts, and sign ``koszul`` of the sorting exponents
    (``_merged``) + |J||I'| + |J|_odd |I'|_odd + |f_s| (|I'|_odd + |J'|_odd).
    The pair's choices are summed before they are added to the result, as
    ``from_words`` sums a word.
    """
    a._check_chart(b)
    chart = a.chart
    parity = chart.parity
    merged: dict = {}
    right = [(ib, jb, sum(map(parity, ib)), sum(map(parity, ib + jb)), _parts(g))
             for (ib, jb), g in b.terms.items()]
    terms: dict = {}
    for (ia, ja), f in a.terms.items():
        odd_ja, f_parts = sum(map(parity, ja)), _parts(f)
        for ib, jb, odd_ib, odd_b, g_parts in right:
            bars = _merged(chart, ia + ib, merged)
            vecs = bars and _merged(chart, ja + jb, merged)
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
    return MultiVectorForm(chart, terms, min(a.prec, b.prec))


def dbar(a: MultiVectorForm) -> MultiVectorForm:
    """Raises the form degree by one; the multivector factor is inert.

    On a stored term d xibar^I (x) d/dxi^J . f this is

        sum_k (-1)^(|k| (|I| + |J|))  d xibar^k ^ d xibar^I (x) d/dxi^J . df/dxibar^k
    """
    chart = a.chart
    words = []
    for (i, j), coeff in a.terms.items():
        index_parity = sum(chart.parity(k) for k in i + j) % 2
        for k in range(chart.dim):
            df = chart.dbar(coeff, k)
            if df.is_zero():
                continue
            sign = koszul(chart.parity(k) * index_parity)
            items = [(DBAR, k)] + [(DBAR, x) for x in i] + [(VEC, x) for x in j] + [(FUN, df)]
            words.append((sign, items))
    return MultiVectorForm.from_words(chart, words, a.prec)


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
    merged: dict = {}
    right = [(ib, jb, sum(map(parity, ib)), sum(map(parity, jb)), _parts(g))
             for (ib, jb), g in b.terms.items()]
    terms: dict = {}
    for (ia, ja), f in a.terms.items():
        odd_ja = sum(map(parity, ja))
        for fp, f_part in _parts(f):
            for ib, jb, odd_ib, odd_jb, g_parts in right:
                bars = (ja or jb) and _merged(chart, ia + ib, merged)
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
                        vecs = piece.terms and _merged(chart, vec_idx, merged)
                        if vecs:
                            piece = piece if koszul(outer + exponent + vecs[1]) > 0 else -piece
                            add_terms(terms, (((bars[0], vecs[0]), piece),))
    # a bracket differentiates coefficients once, even directions included
    return MultiVectorForm(chart, terms, min(a.prec, b.prec) - 1)


# -- pullback --------------------------------------------------------------------


def pull_mvform(phi: Morphism, a: MultiVectorForm) -> MultiVectorForm:
    """Transport a section through a holomorphic invertible coordinate change.

    Coefficients pull back through phi#, vector indices through the inverse
    differential, barred form indices through the mirrored (conjugate)
    differential supertranspose; each of the two matrices is built only
    when some term has an index of its kind.
    """
    if not phi.is_holomorphic():
        raise ChartError("multivector forms only pull back through holomorphic morphisms")
    if a.chart != phi.target:
        raise ChartError("section lives on the wrong chart")
    source = phi.source
    d_inv = d_bar_st = None
    if any(j_idx for _, j_idx in a.terms):
        d_inv = phi.differential_inverse()
    if any(i_idx for i_idx, _ in a.terms):
        d_bar_st = phi.differential_bar().supertranspose()
    pulled = phi.apply_many(a.terms.values())
    out_words = []
    for (i_idx, j_idx), pulled_coeff in zip(a.terms, pulled):
        words = [[]]  # one word per choice of a nonzero matrix entry for each index
        symbols = [(DBAR, d_bar_st, k) for k in i_idx] + [(VEC, d_inv, k) for k in j_idx]
        for kind, matrix, k in symbols:
            column = [(row, matrix.rows[row][k]) for row in range(source.dim)]
            words = [items + [(kind, row), (FUN, entry)]
                     for items in words for row, entry in column if not entry.is_zero()]
        out_words.extend((1, items + [(FUN, pulled_coeff)]) for items in words)
    # differential entries cost one even derivative of the pullbacks
    return MultiVectorForm.from_words(source, out_words, a.prec - 1)
