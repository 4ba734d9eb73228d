"""Local coordinate systems, morphisms between them, and pullback operators.

A chart fixes n even holomorphic coordinate directions followed by m odd
ones; the underlying ring additionally carries the conjugate generators.  A
morphism is the data of one pullback superfunction per target coordinate,
living in the source ring; applying it to arbitrary functions substitutes
those images (and their conjugates for the barred generators).

Vector fields are kept as coefficient columns X^k against the coordinate
derivations, with coefficients written on the right as in the matrix
calculus; as an operator such a column acts by

    X(f) = sum_k (-1)^(|k| |X^k|) X^k d f / d xi^k

which is the unique reading under which the column is a superderivation.
Covector fields are coefficient rows against the basis (d xi^k).
"""

from __future__ import annotations

from dataclasses import dataclass

from .grading import koszul
from .jetring import (
    JetError,
    JetSuperFunction,
    RingSignature,
    _image_deficit,
    _parts,
    dot,
    jet_sum,
    monomial_words,
    substitute_many,
)
from .supermatrix import SuperMatrix, _invert_scalar_matrix


class ChartError(JetError):
    pass


DEFAULT_ODD_WEDGE_CAP = 3


@dataclass(frozen=True)
class Chart:
    """A local coordinate system: n even directions then m odd directions."""

    sig: RingSignature
    name: str = "xi"
    odd_wedge_cap: int = DEFAULT_ODD_WEDGE_CAP

    def __post_init__(self) -> None:
        object.__setattr__(self, "_parities", (0,) * self.sig.n + (1,) * self.sig.m)
        # index tuple -> its verdict under mvforms._merged, filled on first use
        object.__setattr__(self, "_merges", {})

    @property
    def dim(self) -> int:
        return self.sig.n + self.sig.m

    def parity(self, k: int) -> int:
        """0 for the n even directions, 1 for the m odd ones after them."""
        if k >= 0:
            try:
                return self._parities[k]
            except IndexError:
                pass
        raise ChartError(f"coordinate direction {k} out of range")

    def gen_id(self, k: int) -> int:
        """Ring generator id of holomorphic coordinate direction k."""
        if self.parity(k) == 0:
            return self.sig.z(k)
        return self.sig.th(k - self.sig.n)

    def bar_gen_id(self, k: int) -> int:
        """Ring generator id of the conjugate of coordinate direction k."""
        if self.parity(k) == 0:
            return self.sig.zb(k)
        return self.sig.thb(k - self.sig.n)

    def coordinate(self, k: int) -> JetSuperFunction:
        return JetSuperFunction.gen(self.sig, self.gen_id(k))

    def d(self, f: JetSuperFunction, k: int) -> JetSuperFunction:
        """Derivative along holomorphic coordinate direction k."""
        return f.partial(self.gen_id(k))

    def dbar(self, f: JetSuperFunction, k: int) -> JetSuperFunction:
        """Derivative along the conjugate of coordinate direction k."""
        return f.partial(self.bar_gen_id(k))

    def zero(self) -> JetSuperFunction:
        return JetSuperFunction.zero(self.sig)

    def one(self) -> JetSuperFunction:
        return JetSuperFunction.one(self.sig)


@dataclass(frozen=True)
class BerSection:
    """A section h * [dxi] of the Berezinian line bundle over a chart."""

    chart: Chart
    coefficient: JetSuperFunction

    def __post_init__(self) -> None:
        if self.coefficient.sig != self.chart.sig:
            raise ChartError("coefficient lives in the wrong ring")

    def parity(self):
        h = self.coefficient.parity()
        if h is None:
            return None
        return (h + self.chart.sig.m) % 2

    def is_trivialising(self) -> bool:
        h = self.coefficient
        return h.parity() == 0 and 0 in h.terms

    def render(self) -> str:
        return f"({self.coefficient.render()}) [dxi]"


class Morphism:
    """Coordinate transformation given by pullbacks of the target coordinates.

    ``pullbacks[i]`` is the source-ring superfunction that the i-th target
    coordinate pulls back to.  Barred target generators pull back to the
    conjugates of these images.

    A morphism is immutable, so its image table, differentials, the sdet of
    its differential, the inverse differential and the inverse morphism are
    computed once, on first use, and shared by every caller.  Shared matrices are values: never edit
    their rows in place.
    """

    __slots__ = ("source", "target", "pullbacks", "_memo")

    def __init__(self, source: Chart, target: Chart, pullbacks):
        if source.dim != target.dim or source.sig.n != target.sig.n or source.sig.m != target.sig.m:
            raise ChartError("source and target must share the same graded dimension")
        pullbacks = tuple(pullbacks)
        if len(pullbacks) != target.dim:
            raise ChartError("need one pullback per target coordinate")
        for i, image in enumerate(pullbacks):
            if image.sig != source.sig:
                raise ChartError("pullbacks must live in the source ring")
            want = target.parity(i)
            if not image.is_zero() and image.parity() != want:
                raise ChartError(f"pullback of coordinate {i} must have parity {want}")
        self.source = source
        self.target = target
        self.pullbacks = pullbacks
        self._memo = {}

    def _cached(self, key: str, build):
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = build()
        return value

    @staticmethod
    def identity(chart: Chart) -> "Morphism":
        return Morphism(chart, chart, [chart.coordinate(k) for k in range(chart.dim)])

    def is_holomorphic(self) -> bool:
        return all(image.is_holomorphic() for image in self.pullbacks)

    def _images(self):
        """Full generator-image table for substitution, conjugates included."""
        return self._cached("images", self._build_images)

    def _build_images(self):
        sig = self.target.sig
        images = [None] * sig.gen_count()
        for k in range(self.target.dim):
            image = self.pullbacks[k]
            images[self.target.gen_id(k)] = image
            images[self.target.bar_gen_id(k)] = image.conjugate()
        return images

    def apply(self, f: JetSuperFunction) -> JetSuperFunction:
        """Pullback of a target-ring superfunction into the source ring."""
        if f.sig != self.target.sig:
            raise ChartError("function lives in the wrong ring for this morphism")
        return f.substitute(self._images(), self.source.sig)

    def apply_many(self, functions) -> list:
        """Pullbacks of several target-ring superfunctions, in one substitution walk."""
        functions = list(functions)
        if any(f.sig != self.target.sig for f in functions):
            raise ChartError("function lives in the wrong ring for this morphism")
        return substitute_many(functions, self._images(), self.source.sig)

    def differential(self) -> SuperMatrix:
        """The graded Jacobian with rows indexed by target directions.

        Entry (i, k) is (-1)^((|k| + |i|) |i|) d(pullback of coordinate i)/d xi^k,
        a matrix over the source ring.
        """
        return self._cached("differential", lambda: self._jacobian(self.pullbacks, self.source.d))

    def differential_sdet(self) -> JetSuperFunction:
        """sdet of the differential: the factor a Berezinian section picks up."""
        return self._cached("differential_sdet", lambda: self.differential().sdet())

    def differential_bar(self) -> SuperMatrix:
        """Mirror Jacobian of the conjugated pullbacks along barred directions."""
        return self._cached("differential_bar", lambda: self._jacobian(
            [image.conjugate() for image in self.pullbacks], self.source.dbar))

    def differential_inverse(self) -> SuperMatrix:
        """Inverse of the graded Jacobian.

        For a morphism built by ``invert``, the chain rule gives it exactly
        as (dphi) o self, from the Jacobian dphi of the forward map that
        ``_build_inverse`` stored: one substitution over its entries, which
        ``SuperMatrix.inverse`` takes in place of its series wherever that
        gives the same entries.  The series keeps them only through its
        floor, so this map's images are truncated there first: truncation is
        a ring homomorphism, and the substituted terms up to the floor stay
        the same.
        """
        return self._cached("differential_inverse", self._build_differential_inverse)

    def _build_differential_inverse(self) -> SuperMatrix:
        forward = self._memo.get("forward_differential")
        if forward is None:
            return self.differential().inverse()

        def chained(floor: int) -> SuperMatrix:
            images = [image.truncate(floor) for image in self._images()]
            entries = iter(substitute_many([e for row in forward.rows for e in row], images,
                                           self.source.sig))
            size = forward.size
            return SuperMatrix(self.source.sig, forward.p, forward.q,
                               [[next(entries) for _ in range(size)] for _ in range(size)])

        return self.differential().inverse(chained)

    def _jacobian(self, images, derivative) -> SuperMatrix:
        dim = self.source.dim
        rows = []
        for i in range(dim):
            row = []
            pi = self.target.parity(i)
            for k in range(dim):
                entry = derivative(images[i], k)
                if koszul((self.source.parity(k) + pi) * pi) < 0:
                    entry = -entry
                row.append(entry)
            rows.append(row)
        return SuperMatrix(self.source.sig, self.source.sig.n, self.source.sig.m, rows)

    def compose(self, other: "Morphism") -> "Morphism":
        """Composite self o other, where other: M -> N and self: N -> P."""
        if other.target is not self.source and other.target != self.source:
            raise ChartError("chart mismatch in composition")
        return Morphism(other.source, self.target, other.apply_many(self.pullbacks))

    def invert(self) -> "Morphism":
        """Formal inverse morphism psi, from psi = L^-1 (y - N(psi)).

        Each pullback is split as L x + N(x), its linear part plus the rest.
        Requires a holomorphic map (a barred term would make psi depend on
        its own conjugate), vanishing constant terms and an invertible
        linear part.  ``_weight_inverse`` solves for psi in one pass by
        total weight.
        """
        return self._cached("invert", self._build_inverse)

    def _build_inverse(self) -> "Morphism":
        if not self.is_holomorphic():
            raise ChartError("only holomorphic morphisms can be inverted")
        inverse = Morphism(self.target, self.source, self._weight_inverse(*self._linear_split()))
        # the matrix, not self: a back-reference would make a reference cycle
        inverse._memo["forward_differential"] = self.differential()
        return inverse

    def _linear_split(self):
        """``(rows, nonlinear)``: L^-1 as one row per coordinate of
        ``(k, (re, im, den))`` over the coordinates k of its parity block,
        and N as one source-ring jet per coordinate.

        L is read off the packed terms, where z_k has the key
        ``_Layout.steps[k]`` and th_k the key ``1 << k``; a degree past an
        image's precision reads zero, as ``coefficient`` reads it."""
        source = self.source
        sig = source.sig
        n, m = sig.n, sig.m
        if any(0 in image.terms for image in self.pullbacks):
            raise ChartError("invertible morphisms must fix the base point")
        shift, steps = sig._layout.shift, sig._layout.steps

        def linear(image, key):
            re, im = image.terms.get(key, (0, 0)) if key >> shift <= image.prec else (0, 0)
            return re, im, image.den

        blocks = [[linear(self.pullbacks[i], steps[k]) for k in range(n)] for i in range(n)]
        blocks += [[linear(self.pullbacks[n + i], 1 << k) for k in range(m)] for i in range(m)]
        try:
            even_inv = _invert_scalar_matrix(blocks[:n])
            odd_inv = _invert_scalar_matrix(blocks[n:])
        except ZeroDivisionError:
            raise ChartError("linear part is not invertible") from None
        rows = [list(enumerate(row)) for row in even_inv]
        rows += [[(n + k, x) for k, x in enumerate(row)] for row in odd_inv]

        nonlinear = []
        for i, image in enumerate(self.pullbacks):
            start = 0 if i < n else n
            linear = (source.coordinate(start + k).scale_numerators(*scalar)
                      for k, scalar in enumerate(blocks[i]))
            nonlinear.append(image - jet_sum(sig, linear))
        return rows, nonlinear

    def _weight_inverse(self, rows, nonlinear) -> list:
        """Pullbacks of the inverse, solved order by order in total weight.

        The weight of a monomial is its even degree plus its number of odd
        generators, and a product of parts of weights u and v has weight
        u + v.  Every generator image has weight at least 1 and every
        monomial of N at least 2, so the weight-w part of N(psi) needs only
        the parts of psi below w: psi_1 = L^-1 y, and for w = 2 .. top each
        prefix of N's words gets its weight-w part as one ``dot`` over the
        pairs (prefix_u, image_(w-u)), and psi_w = -L^-1 N_w is one ``dot``
        per coordinate over its words' parts, each word scaled by its
        coefficient in -L^-1 N.  A kept part has even degree at most its
        precision and at most m odd generators, so the top weight is the
        largest precision plus m.

        The parts are kept through the precisions of ``_inverse_precisions``
        with no deficit; the sums are then truncated at the precisions with
        the deficit that the even sums charge to ``substitute`` (m when one
        has a term of even degree 0).  Truncation by even degree is a ring
        homomorphism and keeps such a term, so this is the solve at the
        lower precisions, and it equals the limit of the iteration
        psi <- L^-1 (y - N(psi)) under ``substitute``'s precision rule.
        """
        source, target = self.source, self.target
        sig = target.sig
        words = [monomial_words(f) for f in nonlinear]
        precs = self._inverse_precisions(nonlinear, words)
        top = max([1] + [prec + sig.m for prec in precs])
        # parts[prefix][w]: weight-w part of the image of the word prefix,
        # None when it is zero; a one-letter prefix is a generator image
        parts = {(source.gen_id(k),): [None] * (top + 1) for k in range(source.dim)}
        for terms in words:
            for word, _, _ in terms:
                for size in range(2, len(word) + 1):
                    parts.setdefault(word[:size], [None] * (top + 1))
        longer = sorted((prefix for prefix in parts if len(prefix) > 1), key=len)
        # coefficients[i]: (word, its coefficient in row i of -L^-1 N)
        one = JetSuperFunction.one(sig)
        coefficients = []
        for row in rows:
            addends: dict = {}
            for k, scalar in row:
                inverse = one.scale_numerators(*scalar)
                for word, re, im in words[k]:
                    c = inverse.scale_numerators(-re, -im, nonlinear[k].den)
                    addends.setdefault(word, []).append(c)
            sums = ((word, jet_sum(sig, cs)) for word, cs in addends.items())
            coefficients.append([(word, c) for word, c in sums if c.terms])

        def record(w, values):
            for k, value in enumerate(values):
                if value.prec > precs[k]:
                    value = value.truncate(precs[k])
                if value.terms:
                    parts[(source.gen_id(k),)][w] = value

        record(1, _linear_solve(sig, rows, [target.coordinate(k) for k in range(target.dim)]))
        for w in range(2, top + 1):
            for prefix in longer:
                if len(prefix) > w:
                    break
                head, tail = parts[prefix[:-1]], parts[prefix[-1:]]
                pairs = [(head[u], tail[w - u]) for u in range(len(prefix) - 1, w)
                         if head[u] is not None and tail[w - u] is not None]
                if pairs:
                    part = dot(sig, pairs)
                    if part.terms:
                        parts[prefix][w] = part
            record(w, [dot(sig, [(c, parts[word][w]) for word, c in terms
                                 if parts[word][w] is not None])
                       for terms in coefficients])
        solved = [jet_sum(sig, (part for part in parts[(source.gen_id(k),)] if part is not None))
                  for k in range(source.dim)]
        precs = self._inverse_precisions(nonlinear, words, _image_deficit(sig, solved[:sig.n]))
        return [f.truncate(prec) for f, prec in zip(solved, precs)]

    def _inverse_precisions(self, nonlinear, words, deficit=0) -> list:
        """``prec`` of each inverse pullback: the limit of the precision
        recurrence of psi <- L^-1 (y - N(psi)) under ``substitute``'s rule.

        Start every coordinate at the cap; set coordinate i to the least,
        over the coordinates k of its parity, of the cap,
        ``N_k.prec - deficit`` (at least 0) and the precisions of the
        coordinates whose generators N_k uses; repeat until stable.  No
        value of the iterates enters but the deficit.
        """
        source = self.source
        sig = source.sig
        dim = source.dim
        coordinate = {source.gen_id(k): k for k in range(dim)}
        uses = [{coordinate[gid] for word, _, _ in terms for gid in word} for terms in words]
        precs = [sig.cap] * dim
        while True:
            reach = [min([sig.cap, max(0, f.prec - deficit)] + [precs[j] for j in uses[k]])
                     for k, f in enumerate(nonlinear)]
            new = [min(reach[k] for k in range(dim) if source.parity(k) == source.parity(i))
                   for i in range(dim)]
            if new == precs:
                return precs
            precs = new

    def render(self, name: str = "phi") -> str:
        lines = [f"map {name} {{"]
        for i in range(self.target.dim):
            lines.append(f"  zeta{i + 1} = {self.pullbacks[i].render()};")
        lines.append("}")
        return "\n".join(lines)


def _linear_solve(sig: RingSignature, rows, values) -> list:
    """L^-1 applied to a vector of jets, one ``_linear_split`` row at a time;
    every entry of a row is added, zeros included, so each result's ``prec``
    is the least over its parity block."""
    return [jet_sum(sig, (values[k].scale_numerators(*scalar) for k, scalar in row))
            for row in rows]


# -- vector and covector component calculus -------------------------------


def vector_apply(chart: Chart, column, f: JetSuperFunction) -> JetSuperFunction:
    """Action of the coefficient column on a function, with the right-module twist."""
    pairs = []
    for k, comp in enumerate(column):
        if comp.is_zero():
            continue
        pk = chart.parity(k)
        df = chart.d(f, k)
        for pc, part in _parts(comp):
            pairs.append((part if koszul(pk * pc) > 0 else -part, df))
    return dot(chart.sig, pairs)


def pull_ber(phi: Morphism, section: BerSection) -> BerSection:
    """Pullback of a Berezinian section: h [dxi] -> phi#(h) sdet(dphi) [dzeta]."""
    if section.chart != phi.target:
        raise ChartError("section lives on the wrong chart")
    return BerSection(phi.source, phi.apply(section.coefficient) * phi.differential_sdet())
