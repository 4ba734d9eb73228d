"""Exact truncated polynomial superfunctions over Gaussian rationals.

This is the coefficient ring for the whole package: polynomials in n even
holomorphic generators z_1..z_n, their conjugates zb_1..zb_n, m odd
generators th_1..th_m and their conjugates thb_1..thb_m, truncated past a
configurable total degree in the even generators.  All arithmetic is exact;
each element tracks its own order of validity ("precision"), which shrinks
under derivatives in even directions and propagates through products as a
minimum.

Generator numbering is flat and 0-based:

    0 .. n-1        z_1 .. z_n
    n .. 2n-1       zb_1 .. zb_n
    2n .. 2n+m-1    th_1 .. th_m
    2n+m .. 2n+2m-1 thb_1 .. thb_m

The DSL layer translates between these ids and 1-based surface names.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

DEFAULT_CAP = 6
CAP_ENV_VAR = "SUPERBV_DEFAULT_CAP"


def default_cap() -> int:
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = -1
    if cap < 0:
        raise ValueError(f"{CAP_ENV_VAR} must be a non-negative integer, got {raw!r}")
    return cap


class JetError(Exception):
    """Raised for structurally invalid jet-ring operations."""


class NotAUnitError(JetError):
    """Raised when inverting an element whose body constant vanishes."""


@dataclass(frozen=True)
class RingSignature:
    """Shape of the coefficient ring: n even pairs, m odd pairs, degree cap."""

    n: int
    m: int
    cap: int

    def __post_init__(self) -> None:
        if self.n < 0 or self.m < 0 or self.cap < 0:
            raise ValueError("signature entries must be non-negative")

    @property
    def even_count(self) -> int:
        return 2 * self.n

    @property
    def odd_count(self) -> int:
        return 2 * self.m

    def gen_count(self) -> int:
        return 2 * self.n + 2 * self.m

    def gen_parity(self, gid: int) -> int:
        if not 0 <= gid < self.gen_count():
            raise JetError(f"generator id {gid} out of range for signature {self}")
        return 0 if gid < self.even_count else 1

    def gen_name(self, gid: int) -> str:
        n, m = self.n, self.m
        if gid < n:
            return f"z{gid + 1}"
        if gid < 2 * n:
            return f"zb{gid - n + 1}"
        if gid < 2 * n + m:
            return f"th{gid - 2 * n + 1}"
        if gid < 2 * n + 2 * m:
            return f"thb{gid - 2 * n - m + 1}"
        raise JetError(f"generator id {gid} out of range for signature {self}")

    def z(self, k: int) -> int:
        if not 0 <= k < self.n:
            raise JetError(f"no even generator z_{k + 1} in signature {self}")
        return k

    def zb(self, k: int) -> int:
        if not 0 <= k < self.n:
            raise JetError(f"no even generator zb_{k + 1} in signature {self}")
        return self.n + k

    def th(self, j: int) -> int:
        if not 0 <= j < self.m:
            raise JetError(f"no odd generator th_{j + 1} in signature {self}")
        return 2 * self.n + j

    def thb(self, j: int) -> int:
        if not 0 <= j < self.m:
            raise JetError(f"no odd generator thb_{j + 1} in signature {self}")
        return 2 * self.n + self.m + j


_FR_ZERO = Fraction(0)
_FR_ONE = Fraction(1)


@dataclass(frozen=True)
class GaussianRational:
    """Exact complex scalar a + b*i with rational a, b."""

    re: Fraction = _FR_ZERO
    im: Fraction = _FR_ZERO

    @staticmethod
    def of(re=0, im=0) -> "GaussianRational":
        return GaussianRational(Fraction(re), Fraction(im))

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0


GR_ZERO = GaussianRational()
GR_ONE = GaussianRational(_FR_ONE, _FR_ZERO)
GR_I = GaussianRational(_FR_ZERO, _FR_ONE)


def _merge_odd(s1, s2):
    """Merge two sorted odd-generator tuples; return (merged, sign) or None.

    All entries are odd, so every crossing contributes a factor of -1.
    A shared generator kills the product (nilpotence).
    """
    if not s1:
        return s2, 1
    if not s2:
        return s1, 1
    set1 = set(s1)
    if set1.intersection(s2):
        return None
    inversions = 0
    j = 0
    len2 = len(s2)
    for a in s1:
        while j < len2 and s2[j] < a:
            j += 1
        inversions += j
    merged = tuple(sorted(s1 + s2))
    sign = -1 if inversions % 2 else 1
    return merged, sign


class JetSuperFunction:
    """Immutable truncated polynomial superfunction.

    ``terms`` maps ``(even_exponents, odd_subset)`` to a nonzero scalar,
    where ``even_exponents`` is a tuple of 2n non-negative integers and
    ``odd_subset`` is a strictly increasing tuple of odd generator ids in
    the range 0..2m-1 (local, i.e. already shifted by -2n).
    """

    __slots__ = ("sig", "terms", "prec")

    def __init__(self, sig: RingSignature, terms: dict, prec: int | None = None):
        if prec is None:
            prec = sig.cap
        prec = max(0, min(prec, sig.cap))
        clean = {}
        for (exps, odd), coeff in terms.items():
            if not coeff:
                continue
            if sum(exps) > prec:
                continue
            clean[(exps, odd)] = coeff
        self.sig = sig
        self.terms = clean
        self.prec = prec

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(sig: RingSignature, prec: int | None = None) -> "JetSuperFunction":
        return JetSuperFunction(sig, {}, prec)

    @staticmethod
    def scalar(sig: RingSignature, value: GaussianRational, prec: int | None = None) -> "JetSuperFunction":
        zero_exp = (0,) * sig.even_count
        return JetSuperFunction(sig, {(zero_exp, ()): value}, prec)

    @staticmethod
    def one(sig: RingSignature, prec: int | None = None) -> "JetSuperFunction":
        return JetSuperFunction.scalar(sig, GR_ONE, prec)

    @staticmethod
    def integer(sig: RingSignature, value: int) -> "JetSuperFunction":
        return JetSuperFunction.scalar(sig, GaussianRational.of(value))

    @staticmethod
    def gen(sig: RingSignature, gid: int) -> "JetSuperFunction":
        parity = sig.gen_parity(gid)
        if parity == 0:
            exps = tuple(1 if i == gid else 0 for i in range(sig.even_count))
            return JetSuperFunction(sig, {(exps, ()): GR_ONE})
        local = gid - sig.even_count
        zero_exp = (0,) * sig.even_count
        return JetSuperFunction(sig, {(zero_exp, (local,)): GR_ONE})

    # -- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def body(self) -> GaussianRational:
        """Coefficient of the constant monomial."""
        zero_key = ((0,) * self.sig.even_count, ())
        return self.terms.get(zero_key, GR_ZERO)

    def parity(self) -> int | None:
        """0 or 1 if homogeneous, None if mixed or zero-ambiguous."""
        seen = {len(odd) % 2 for (_, odd) in self.terms}
        if len(seen) == 1:
            return seen.pop()
        if not seen:
            return 0
        return None

    def homogeneous_parts(self):
        """Return (even_part, odd_part)."""
        even_terms, odd_terms = {}, {}
        for key, coeff in self.terms.items():
            (even_terms if len(key[1]) % 2 == 0 else odd_terms)[key] = coeff
        return (
            JetSuperFunction(self.sig, even_terms, self.prec),
            JetSuperFunction(self.sig, odd_terms, self.prec),
        )

    def is_holomorphic(self) -> bool:
        n, m = self.sig.n, self.sig.m
        for (exps, odd) in self.terms:
            if any(exps[n:]):
                return False
            if any(o >= m for o in odd):
                return False
        return True

    def even_degree(self) -> int:
        """Largest retained total degree in even generators."""
        return max((sum(e) for (e, _) in self.terms), default=0)

    def truncate(self, prec: int) -> "JetSuperFunction":
        return JetSuperFunction(self.sig, self.terms, min(self.prec, prec))

    # -- arithmetic -----------------------------------------------------

    def _require_same_ring(self, other: "JetSuperFunction") -> None:
        if self.sig != other.sig:
            raise JetError(f"signature mismatch: {self.sig} vs {other.sig}")

    def __add__(self, other: "JetSuperFunction") -> "JetSuperFunction":
        self._require_same_ring(other)
        prec = min(self.prec, other.prec)
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            acc = terms.get(key)
            total = coeff if acc is None else acc + coeff
            if total:
                terms[key] = total
            elif acc is not None:
                del terms[key]
        return JetSuperFunction(self.sig, terms, prec)

    def __neg__(self) -> "JetSuperFunction":
        return JetSuperFunction(self.sig, {k: -c for k, c in self.terms.items()}, self.prec)

    def __sub__(self, other: "JetSuperFunction") -> "JetSuperFunction":
        return self + (-other)

    def scale(self, value: GaussianRational) -> "JetSuperFunction":
        if not value:
            return JetSuperFunction.zero(self.sig, self.prec)
        return JetSuperFunction(self.sig, {k: c * value for k, c in self.terms.items()}, self.prec)

    def __mul__(self, other: "JetSuperFunction") -> "JetSuperFunction":
        self._require_same_ring(other)
        prec = min(self.prec, other.prec)
        terms: dict = {}
        for (e1, s1), c1 in self.terms.items():
            for (e2, s2), c2 in other.terms.items():
                merged = _merge_odd(s1, s2)
                if merged is None:
                    continue
                exps = tuple(a + b for a, b in zip(e1, e2))
                if sum(exps) > prec:
                    continue
                odd, sign = merged
                coeff = c1 * c2
                if sign < 0:
                    coeff = -coeff
                key = (exps, odd)
                acc = terms.get(key)
                total = coeff if acc is None else acc + coeff
                if total:
                    terms[key] = total
                elif acc is not None:
                    del terms[key]
        return JetSuperFunction(self.sig, terms, prec)

    def __eq__(self, other) -> bool:
        if not isinstance(other, JetSuperFunction):
            return NotImplemented
        return self.sig == other.sig and self.prec == other.prec and self.terms == other.terms

    __hash__ = None  # mutable-dict payload; jets are compared, never hashed

    def agrees_with(self, other: "JetSuperFunction") -> bool:
        """Equality of terms after truncating both sides to the common precision."""
        self._require_same_ring(other)
        prec = min(self.prec, other.prec)
        return self.truncate(prec).terms == other.truncate(prec).terms

    # -- calculus -------------------------------------------------------

    def partial(self, gid: int) -> "JetSuperFunction":
        """Left superderivation with respect to generator ``gid``.

        Satisfies d(fg) = d(f) g + (-1)^(|gid| |f|) f d(g).  A derivative in
        an even direction lowers the precision by one (clamped at zero).
        """
        parity = self.sig.gen_parity(gid)
        terms: dict = {}
        if parity == 0:
            for (exps, odd), coeff in self.terms.items():
                e = exps[gid]
                if e == 0:
                    continue
                new_exps = exps[:gid] + (e - 1,) + exps[gid + 1:]
                key = (new_exps, odd)
                add = coeff * GaussianRational.of(e)
                acc = terms.get(key)
                total = add if acc is None else acc + add
                if total:
                    terms[key] = total
                elif acc is not None:
                    del terms[key]
            return JetSuperFunction(self.sig, terms, max(0, self.prec - 1))
        local = gid - self.sig.even_count
        for (exps, odd), coeff in self.terms.items():
            if local not in odd:
                continue
            pos = odd.index(local)
            new_odd = odd[:pos] + odd[pos + 1:]
            if pos % 2:
                coeff = -coeff
            key = (exps, new_odd)
            acc = terms.get(key)
            total = coeff if acc is None else acc + coeff
            if total:
                terms[key] = total
            elif acc is not None:
                del terms[key]
        return JetSuperFunction(self.sig, terms, self.prec)

    def conjugate(self) -> "JetSuperFunction":
        """Superfunction conjugation: swaps barred and unbarred generators.

        Order-reversing on odd products, so conj(f g) = conj(g) conj(f) and
        conjugation is an involution.
        """
        m = self.sig.m
        terms: dict = {}
        n = self.sig.n
        for (exps, odd), coeff in self.terms.items():
            new_exps = exps[n:] + exps[:n]
            mapped = [(o + m) % (2 * m) for o in reversed(odd)]
            inversions = 0
            for i in range(len(mapped)):
                for j in range(i + 1, len(mapped)):
                    if mapped[i] > mapped[j]:
                        inversions += 1
            new_coeff = coeff.conjugate()
            if inversions % 2:
                new_coeff = -new_coeff
            terms[(new_exps, tuple(sorted(mapped)))] = new_coeff
        return JetSuperFunction(self.sig, terms, self.prec)

    def invert(self) -> "JetSuperFunction":
        """Multiplicative inverse, exact up to this element's precision.

        Requires an even element whose body constant is nonzero; computed by
        the geometric series on the nilpotent-plus-higher part, which
        terminates because every correction raises even degree or odd order.
        """
        if self.parity() != 0:
            raise JetError("only even superfunctions can be inverted")
        body = self.body()
        if not body:
            raise NotAUnitError("body constant vanishes, element is not a unit")
        one = JetSuperFunction.one(self.sig, self.prec)
        rest = one - self.scale(GR_ONE / body)
        acc = one
        power = rest
        limit = self.prec + self.sig.m + 1
        steps = 0
        while not power.is_zero():
            acc = acc + power
            power = power * rest
            steps += 1
            if steps > limit:
                raise JetError("geometric series failed to terminate (internal error)")
        return acc.scale(GR_ONE / body)

    # -- substitution ---------------------------------------------------

    def substitute(self, images: list, target_sig: RingSignature) -> "JetSuperFunction":
        """Evaluate this element on images of its generators.

        ``images[gid]`` is the replacement for generator ``gid`` in the
        target ring, of matching parity, or None when the generator does not
        occur.  Images of even generators containing terms of even degree
        zero (pure odd-pair terms) lower the trustworthy precision of the
        result by m, since high even-degree truncation noise can land in low
        even degree through them.
        """
        return substitute_many([self], images, target_sig)[0]

    def _substitution_prec(self, images: list, target_sig: RingSignature) -> int:
        """Validate the images this element uses; return the result precision."""
        used = [False] * self.sig.gen_count()
        even_count = self.sig.even_count
        for (exps, odd) in self.terms:
            for gid, e in enumerate(exps):
                if e:
                    used[gid] = True
            for o in odd:
                used[even_count + o] = True
        deficit = 0
        min_prec = self.prec
        for gid, flag in enumerate(used):
            if not flag:
                continue
            image = images[gid]
            if image is None:
                raise JetError(f"no image supplied for generator {self.sig.gen_name(gid)}")
            if image.sig != target_sig:
                raise JetError("image lives in the wrong ring")
            want = self.sig.gen_parity(gid)
            if not image.is_zero() and image.parity() != want:
                raise JetError(
                    f"image of {self.sig.gen_name(gid)} must have parity {want}, got {image.parity()}"
                )
            min_prec = min(min_prec, image.prec)
            if want == 0:
                if image.body():
                    # truncation noise of the argument reaches arbitrarily low
                    # even degree through a constant offset
                    deficit = max(deficit, min_prec)
                elif any(sum(e) == 0 for (e, _) in image.terms):
                    deficit = max(deficit, self.sig.m)
        return max(0, min_prec - deficit)

    # -- rendering -------------------------------------------------------

    def sorted_terms(self):
        """Terms in canonical order: graded-lex on even exponents, then odd subset."""
        return sorted(self.terms.items(), key=lambda item: (sum(item[0][0]), item[0][0], item[0][1]))

    def render(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for (exps, odd), coeff in self.sorted_terms():
            factors = []
            for gid, e in enumerate(exps):
                if e == 0:
                    continue
                name = self.sig.gen_name(gid)
                factors.append(name if e == 1 else f"{name}^{e}")
            for o in odd:
                factors.append(self.sig.gen_name(self.sig.even_count + o))
            monomial = "*".join(factors)
            sign, body = _render_scalar(coeff, bool(monomial))
            if monomial:
                text = monomial if body == "" else f"{body}*{monomial}"
            else:
                text = body if body else "1"
            pieces.append((sign, text))
        first_sign, first_text = pieces[0]
        out = ("-" if first_sign < 0 else "") + first_text
        for sign, text in pieces[1:]:
            out += (" - " if sign < 0 else " + ") + text
        return out

    def __repr__(self) -> str:
        return f"<jet {self.render()} (prec {self.prec})>"


def substitute_many(functions, images: list, target_sig: RingSignature) -> list:
    """Substitute the same generator images into several elements at once.

    Each monomial is read as the word of generator ids it multiplies, in
    written order (even generators by id with multiplicity, then the odd
    ones).  The words of all functions are visited in sorted order, which
    walks their prefix trie depth first, so the image of every shared prefix
    is one product of its parent with one generator image and only the
    current path is held.  A prefix image is truncated at the largest result
    precision among the words below it; a word that ends at a leaf and is
    used once is scaled before its last product.  Every result equals
    ``f.substitute(images, target_sig)`` term for term and in ``prec``.
    """
    precs = [f._substitution_prec(images, target_sig) for f in functions]
    users: dict = {}
    for index, f in enumerate(functions):
        even_count = f.sig.even_count
        for (exps, odd), coeff in f.terms.items():
            word = [gid for gid, e in enumerate(exps) for _ in range(e)]
            word.extend(even_count + o for o in odd)
            users.setdefault(tuple(word), []).append((index, coeff))
    # need[w]: precision the image of prefix w is computed at
    need: dict = {}
    proper_prefixes: set = set()
    for word, uses in users.items():
        top = max(precs[index] for index, _ in uses)
        for size in range(1, len(word) + 1):
            prefix = word[:size]
            if need.get(prefix, -1) < top:
                need[prefix] = top
            if size < len(word):
                proper_prefixes.add(prefix)
    sums = [{} for _ in functions]
    path: list = []  # path[i] is the image of word[:i + 1] of the last word
    last: tuple = ()
    for word in sorted(users):
        common = 0
        while common < min(len(path), len(word)) and last[common] == word[common]:
            common += 1
        del path[common:]
        uses = users[word]
        single = len(uses) == 1 and word not in proper_prefixes
        stop = len(word) - 1 if single else len(word)
        for size in range(len(path) + 1, stop + 1):
            path.append(_prefix_image(path, word[:size], images, need))
        last = word
        for index, coeff in uses:
            prec = precs[index]
            if not word:
                value = JetSuperFunction.scalar(target_sig, coeff, prec)
            elif not single:
                value = _at_prec(path[-1], prec).scale(coeff)
            elif len(word) == 1:
                value = _at_prec(images[word[0]], prec).scale(coeff)
            else:
                value = _at_prec(path[-1], prec).scale(coeff) * images[word[-1]]
            _accumulate(sums[index], value.terms)
    return [JetSuperFunction(target_sig, terms, prec) for terms, prec in zip(sums, precs)]


def _prefix_image(path, prefix, images, need):
    """Image of ``prefix`` from the image of its parent, the tail of ``path``."""
    image = images[prefix[-1]]
    if not path:
        return _at_prec(image, need[prefix])
    return _at_prec(path[-1], need[prefix]) * image


def _at_prec(jet: JetSuperFunction, prec: int) -> JetSuperFunction:
    return jet if jet.prec <= prec else jet.truncate(prec)


def _accumulate(acc: dict, terms: dict) -> None:
    """Add ``terms`` into ``acc`` in place, dropping keys that cancel."""
    for key, coeff in terms.items():
        prev = acc.get(key)
        total = coeff if prev is None else prev + coeff
        if total:
            acc[key] = total
        elif prev is not None:
            del acc[key]


def _render_scalar(value: GaussianRational, as_factor: bool):
    """Return (sign, text) with text omitting a leading unit when used as a factor."""
    re, im = value.re, value.im
    if re != 0 and im != 0:
        if re < 0:
            return -1, f"({-re} {'-' if im > 0 else '+'} {_imag_text(abs(im))})"
        return 1, f"({re} {'+' if im > 0 else '-'} {_imag_text(abs(im))})"
    if im == 0:
        sign = -1 if re < 0 else 1
        mag = abs(re)
        if mag == 1 and as_factor:
            return sign, ""
        return sign, str(mag)
    sign = -1 if im < 0 else 1
    return sign, _imag_text(abs(im))


def _imag_text(mag: Fraction) -> str:
    return "i" if mag == 1 else f"{mag}*i"
