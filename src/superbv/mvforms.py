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

Every operation builds formal words of the three item kinds below and hands
them to one normaliser, whose reordering sign is grading.koszul of the
summed exchange exponents of the pairs it inverts.  The explicit sign
exponents of dbar and of the bracket formulas become signs through
grading.koszul; no sign is computed elsewhere.

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
            parity = payload.parity()
            if parity is None:
                choices.append(tuple(enumerate(payload.homogeneous_parts())))
            elif payload.terms:
                choices.append(((parity, payload),))
            else:
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
            for item in items:
                if item[0] == FUN:
                    floor = min(floor, item[1].prec)
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
            index_parity = sum(self.chart.parity(k) for k in i + j) % 2
            parities.add((cp + index_parity) % 2)
        if len(parities) == 1:
            return parities.pop()
        if not parities:
            return 0
        return None

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


def wedge(a: MultiVectorForm, b: MultiVectorForm) -> MultiVectorForm:
    a._check_chart(b)
    words = []
    for ka in a.terms:
        wa = a.term_word(ka)
        for kb in b.terms:
            words.append((1, wa + b.term_word(kb)))
    return MultiVectorForm.from_words(a.chart, words, min(a.prec, b.prec))


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


class _Vec:
    """A single vector field c * d/dxi^d with the coefficient on the left."""

    __slots__ = ("coeff", "direction", "parity")

    def __init__(self, chart: Chart, coeff: JetSuperFunction, direction: int):
        cp = coeff.parity()
        if cp is None:
            raise ChartError("internal: bracket vectors must be homogeneous")
        self.coeff = coeff
        self.direction = direction
        self.parity = (cp + chart.parity(direction)) % 2

    def apply(self, chart: Chart, f: JetSuperFunction) -> JetSuperFunction:
        return self.coeff * chart.d(f, self.direction)

    def word(self):
        return [(FUN, self.coeff), (VEC, self.direction)]


def _vectors_from(chart: Chart, coeff: JetSuperFunction, directions) -> list:
    """Left-coefficient factorisation of coeff * d/dxi^J, coeff absorbed first."""
    vecs = [_Vec(chart, coeff, directions[0])]
    one = chart.one()
    for d in directions[1:]:
        vecs.append(_Vec(chart, one, d))
    return vecs


def _base_bracket(chart: Chart, w: _Vec, v: _Vec):
    """Vector-field bracket of two single vectors, as (prefactor, word) summands.

    [[cw d_a, cv d_b]] = (cw d_a(cv)) d_b - (-1)^(|w||v|) (cv d_b(cw)) d_a.
    """
    out = []
    first = w.apply(chart, v.coeff)
    if not first.is_zero():
        out.append((1, [(FUN, first), (VEC, v.direction)]))
    second = v.apply(chart, w.coeff)
    if not second.is_zero():
        sign = -koszul(w.parity * v.parity)
        out.append((sign, [(FUN, second), (VEC, w.direction)]))
    return out


def _bracket_function_with_vectors(chart: Chart, f: JetSuperFunction, vecs):
    """[[f, v_1 ^ ... ^ v_p]] as (prefactor, word) summands; f homogeneous."""
    fp = f.parity()
    out = []
    prefix_parity = 0
    for i, v in enumerate(vecs):
        value = v.apply(chart, f)
        if not value.is_zero():
            # the leading minus of the defining formula
            sign = -koszul(i + v.parity * (prefix_parity + fp))
            word = [(FUN, value)]
            for l, other in enumerate(vecs):
                if l != i:
                    word.extend(other.word())
            out.append((sign, word))
        prefix_parity = (prefix_parity + v.parity) % 2
    return out


def _bracket_vectors(chart: Chart, ws, vs):
    """[[w_1 ^...^ w_p', v_1 ^...^ v_p]] as (prefactor, word) summands."""
    out = []
    w_total = sum(w.parity for w in ws) % 2
    w_prefix = 0
    for j, w in enumerate(ws, start=1):
        v_prefix = 0
        for i, v in enumerate(vs, start=1):
            exponent = (
                i + j
                + w.parity * w_prefix
                + v.parity * (v_prefix + w_total + w.parity)
            )
            sign = koszul(exponent)
            rest = []
            for l, other in enumerate(ws, start=1):
                if l != j:
                    rest.extend(other.word())
            for l, other in enumerate(vs, start=1):
                if l != i:
                    rest.extend(other.word())
            for base_sign, base_word in _base_bracket(chart, w, v):
                out.append((sign * base_sign, base_word + rest))
            v_prefix = (v_prefix + v.parity) % 2
        w_prefix = (w_prefix + w.parity) % 2
    return out


def _bracket_multivectors(chart: Chart, f, j_idx, g, l_idx):
    """Inner bracket [[f d/dxi^J, g d/dxi^L]] with left coefficients."""
    p, p2 = len(j_idx), len(l_idx)
    if p == 0 and p2 == 0:
        return []
    if p == 0:
        return _bracket_function_with_vectors(chart, f, _vectors_from(chart, g, l_idx))
    if p2 == 0:
        ws = _vectors_from(chart, f, j_idx)
        w_parity = sum(w.parity for w in ws) % 2
        exponent = (p + 1) + g.parity() * w_parity
        outer = -koszul(exponent)
        return [
            (outer * s, word)
            for s, word in _bracket_function_with_vectors(chart, g, ws)
        ]
    return _bracket_vectors(
        chart, _vectors_from(chart, f, j_idx), _vectors_from(chart, g, l_idx)
    )


def schouten(a: MultiVectorForm, b: MultiVectorForm) -> MultiVectorForm:
    """Schouten-Nijenhuis bracket, bidegree (p,q) x (p',q') -> (p+p'-1, q+q')."""
    a._check_chart(b)
    chart = a.chart
    words = []
    for (ia, ja), fa in a.terms.items():
        q = len(ia)
        p = len(ja)
        pi_a = sum(chart.parity(k) for k in ia) % 2
        pj_a = sum(chart.parity(k) for k in ja) % 2
        for fa_part in fa.homogeneous_parts():
            if fa_part.is_zero():
                continue
            fpa = fa_part.parity()
            for (ib, jb), gb in b.terms.items():
                q_b = len(ib)
                pi_b = sum(chart.parity(k) for k in ib) % 2
                pj_b = sum(chart.parity(k) for k in jb) % 2
                for gb_part in gb.homogeneous_parts():
                    if gb_part.is_zero():
                        continue
                    gpb = gb_part.parity()
                    # move both coefficients to the far left of their terms
                    exponent = fpa * (pi_a + pj_a) + gpb * (pi_b + pj_b)
                    # bidegree bookkeeping sign of the form-valued extension
                    exponent += q_b * (p + 1) + fpa * pi_a + pi_b * (gpb + pj_a + fpa)
                    sign = koszul(exponent)
                    inner = _bracket_multivectors(chart, fa_part, ja, gb_part, jb)
                    if not inner:
                        continue
                    lead = [(DBAR, k) for k in ia] + [(DBAR, k) for k in ib]
                    for s, word in inner:
                        words.append((sign * s, lead + word))
    # a bracket differentiates coefficients once, even directions included
    return MultiVectorForm.from_words(chart, words, min(a.prec, b.prec) - 1)


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
        choices = [(1, [])]
        for k in i_idx:
            new_choices = []
            for sign, items in choices:
                for mrow in range(source.dim):
                    entry = d_bar_st.rows[mrow][k]
                    if entry.is_zero():
                        continue
                    new_choices.append((sign, items + [(DBAR, mrow), (FUN, entry)]))
            choices = new_choices
        for k in j_idx:
            new_choices = []
            for sign, items in choices:
                for mrow in range(source.dim):
                    entry = d_inv.rows[mrow][k]
                    if entry.is_zero():
                        continue
                    new_choices.append((sign, items + [(VEC, mrow), (FUN, entry)]))
            choices = new_choices
        for sign, items in choices:
            out_words.append((sign, items + [(FUN, pulled_coeff)]))
    # differential entries cost one even derivative of the pullbacks
    return MultiVectorForm.from_words(source, out_words, a.prec - 1)
