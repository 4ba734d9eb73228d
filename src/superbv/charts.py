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

from dataclasses import dataclass, field

from .grading import koszul
from .jetring import JetError, JetSuperFunction, RingSignature, numerators, substitute_many
from .supermatrix import SuperMatrix


class ChartError(JetError):
    pass


DEFAULT_ODD_WEDGE_CAP = 3


@dataclass(frozen=True)
class Chart:
    """A local coordinate system: n even directions then m odd directions."""

    sig: RingSignature
    name: str = "xi"
    odd_wedge_cap: int = DEFAULT_ODD_WEDGE_CAP
    labels: tuple = field(default=None)

    def __post_init__(self) -> None:
        labels = self.labels
        if labels is None:
            labels = tuple(
                [f"z{i + 1}" for i in range(self.sig.n)]
                + [f"th{j + 1}" for j in range(self.sig.m)]
            )
            object.__setattr__(self, "labels", labels)
        if len(labels) != self.dim or len(set(labels)) != self.dim:
            raise ChartError("need one unique label per coordinate direction")

    @property
    def dim(self) -> int:
        return self.sig.n + self.sig.m

    def parity(self, k: int) -> int:
        if not 0 <= k < self.dim:
            raise ChartError(f"coordinate direction {k} out of range")
        return 0 if k < self.sig.n else 1

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
        return h.parity() == 0 and bool(h.body())

    def render(self) -> str:
        return f"({self.coefficient.render()}) [dxi]"


class Morphism:
    """Coordinate transformation given by pullbacks of the target coordinates.

    ``pullbacks[i]`` is the source-ring superfunction that the i-th target
    coordinate pulls back to.  Barred target generators pull back to the
    conjugates of these images.

    A morphism is immutable, so its image table, differentials, the inverse
    differential and the inverse morphism are computed once, on first use,
    and shared by every caller.  Shared matrices are values: never edit
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

    def differential_bar(self) -> SuperMatrix:
        """Mirror Jacobian of the conjugated pullbacks along barred directions."""
        return self._cached("differential_bar", lambda: self._jacobian(
            [image.conjugate() for image in self.pullbacks], self.source.dbar))

    def differential_inverse(self) -> SuperMatrix:
        """Inverse of the graded Jacobian."""
        return self._cached("differential_inverse", lambda: self.differential().inverse())

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

    def linear_parts(self):
        """Constant matrices of the linear terms, (even block, odd block)."""
        n, m = self.source.sig.n, self.source.sig.m
        sig = self.source.sig
        even = [[self.pullbacks[i].coefficient(_unit_exp(sig, sig.z(k)), ())
                 for k in range(n)] for i in range(n)]
        odd = [[self.pullbacks[n + i].coefficient((0,) * sig.even_count, (k,))
                for k in range(m)] for i in range(m)]
        return even, odd

    def invert(self) -> "Morphism":
        """Formal inverse morphism, by fixpoint iteration on the nonlinear part.

        Requires vanishing constant terms and an invertible linear part; the
        iteration terminates because every correction raises the total order.
        """
        return self._cached("invert", self._build_inverse)

    def _build_inverse(self) -> "Morphism":
        from .supermatrix import _invert_scalar_matrix

        source, target = self.source, self.target
        sig = source.sig
        n, m = sig.n, sig.m
        for image in self.pullbacks:
            if image.body():
                raise ChartError("invertible morphisms must fix the base point")
        even, odd = self.linear_parts()
        try:
            even_inv = [[numerators(x) for x in row] for row in _invert_scalar_matrix(even)]
            odd_inv = [[numerators(x) for x in row] for row in _invert_scalar_matrix(odd)]
        except ZeroDivisionError:
            raise ChartError("linear part is not invertible") from None

        def linear_solve(values):
            """Apply the inverse linear part blockwise to a coordinate vector."""
            out = []
            for i in range(n):
                acc = JetSuperFunction.zero(target.sig)
                for k in range(n):
                    acc = acc + values[k].scale_numerators(*even_inv[i][k])
                out.append(acc)
            for i in range(m):
                acc = JetSuperFunction.zero(target.sig)
                for k in range(m):
                    acc = acc + values[n + k].scale_numerators(*odd_inv[i][k])
                out.append(acc)
            return out

        linear_images = []
        for i in range(source.dim):
            acc = JetSuperFunction.zero(sig)
            for k in range(source.dim):
                if source.parity(k) != source.parity(i):
                    continue
                coeff = (even[i][k] if source.parity(i) == 0 else odd[i - n][k - n])
                acc = acc + source.coordinate(k).scale(coeff)
            linear_images.append(acc)
        nonlinear = [self.pullbacks[i] - linear_images[i] for i in range(source.dim)]

        guesses = linear_solve([target.coordinate(k) for k in range(target.dim)])
        limit = sig.cap + 2 * m + 3
        for _ in range(limit):
            images = [None] * sig.gen_count()
            for k in range(source.dim):
                gid = source.gen_id(k)
                images[gid] = guesses[k]
                images[source.bar_gen_id(k)] = guesses[k].conjugate()
            corrections = substitute_many(nonlinear, images, target.sig)
            new_guesses = linear_solve(
                [target.coordinate(k) - corrections[k] for k in range(target.dim)]
            )
            if all(a == b for a, b in zip(new_guesses, guesses)):
                break
            guesses = new_guesses
        else:
            raise ChartError("morphism inversion did not stabilise")
        return Morphism(target, source, guesses)

    def render(self, name: str = "phi") -> str:
        lines = [f"map {name} {{"]
        for i in range(self.target.dim):
            lines.append(f"  zeta{i + 1} = {self.pullbacks[i].render()};")
        lines.append("}")
        return "\n".join(lines)


def _unit_exp(sig: RingSignature, gid: int):
    return tuple(1 if i == gid else 0 for i in range(sig.even_count))


# -- vector and covector component calculus -------------------------------


def vector_apply(chart: Chart, column, f: JetSuperFunction) -> JetSuperFunction:
    """Action of the coefficient column on a function, with the right-module twist."""
    acc = chart.zero()
    for k, comp in enumerate(column):
        if comp.is_zero():
            continue
        pk = chart.parity(k)
        df = chart.d(f, k)
        for part in comp.homogeneous_parts():
            if part.is_zero():
                continue
            term = part * df
            if koszul(pk * part.parity()) < 0:
                term = -term
            acc = acc + term
    return acc


def pull_ber(phi: Morphism, section: BerSection) -> BerSection:
    """Pullback of a Berezinian section: h [dxi] -> phi#(h) sdet(dphi) [dzeta]."""
    if section.chart != phi.target:
        raise ChartError("section lives on the wrong chart")
    sdet = phi.differential().sdet()
    return BerSection(phi.source, phi.apply(section.coefficient) * sdet)
