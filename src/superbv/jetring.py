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

Internally a monomial is one packed int (see ``_Layout``) and a coefficient
is a pair of integer numerators over the one denominator of its jet, so a
product of two terms is an integer addition of keys, a bit test for
nilpotence and four integer products.  ``GaussianRational`` is the scalar
type at the boundary: ``scalar``, ``items`` and ``scale``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .grading import ODD, koszul, reorder_sign

DEFAULT_CAP = 6


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

    @cached_property
    def _layout(self) -> "_Layout":
        return _Layout(self)

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

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0


GR_ZERO = GaussianRational()
GR_ONE = GaussianRational(_FR_ONE, _FR_ZERO)
GR_I = GaussianRational(_FR_ZERO, _FR_ONE)


def numerators(value: GaussianRational):
    """``(re, im, den)``: integer numerators of ``value`` over their least
    denominator, the form ``JetSuperFunction.scale_numerators`` takes."""
    re, im = value.re, value.im
    den = lcm(re.denominator, im.denominator)
    return re.numerator * (den // re.denominator), im.numerator * (den // im.denominator), den


def _lowest(re: int, im: int, den: int):
    """``(re, im, den)`` with the common factor of all three divided out."""
    g = gcd(re, im, den)
    return re // g, im // g, den // g


class _Layout:
    """Packed monomial keys for one signature.

    A key is one non-negative int.  From the top down it holds the total
    even degree, the 2n even exponents in generator order (``width`` bits
    each, enough for the sum of two exponents up to the cap, so adding two
    keys never carries from one field into the next), and the 2m odd
    generators as a bitmask, bit j for local odd generator j.  The key of
    the constant monomial is 0; for odd masks that are disjoint the sum of
    two keys is the key of the product.  Comparing ``key >> odd_bits``
    orders monomials by degree, then exponent tuple.
    """

    def __init__(self, sig: RingSignature):
        even, odd = sig.even_count, sig.odd_count
        self.width = (2 * sig.cap + 1).bit_length()
        self.odd_bits = odd
        self.odd_mask = (1 << odd) - 1
        self.shift = odd + even * self.width  # the degree field
        self.offsets = tuple(odd + (even - 1 - gid) * self.width for gid in range(even))
        self.field_mask = (1 << self.width) - 1
        # key of each even generator; sums of these stay keys up to the cap
        self.steps = tuple((1 << self.shift) | (1 << offset) for offset in self.offsets)
        half = sig.n * self.width
        low = (1 << sig.m) - 1
        self.antiholomorphic = (((1 << half) - 1) << odd) | (self.odd_mask ^ low)
        # s1 -> {s2: sign of th_{s1} th_{s2} against the sorted product},
        # filled on first use: the full table would have 4^(2m) entries
        self.signs: dict = {}
        self.words: dict = {}  # odd mask -> increasing tuple of local ids

    def exponents(self, key: int) -> tuple:
        mask = self.field_mask
        return tuple((key >> offset) & mask for offset in self.offsets)

    def odd_word(self, mask: int) -> tuple:
        word = self.words.get(mask)
        if word is None:
            word = self.words[mask] = tuple(j for j in range(self.odd_bits) if mask >> j & 1)
        return word

    def sort_key(self, key: int):
        """Canonical term order: degree, even exponent tuple, odd tuple."""
        return key >> self.odd_bits, self.odd_word(key & self.odd_mask)

    def merge_sign(self, s1: int, s2: int) -> int:
        """Koszul sign of sorting the odd word of ``s1`` followed by that of ``s2``."""
        word = self.odd_word(s1) + self.odd_word(s2)
        order = sorted(range(len(word)), key=word.__getitem__)
        return reorder_sign([ODD] * len(word), order)


def _require_ring(sig: RingSignature, jet: "JetSuperFunction") -> None:
    if jet.sig is not sig and jet.sig != sig:
        raise JetError(f"signature mismatch: {sig} vs {jet.sig}")


def _clamp(sig: RingSignature, prec: int | None) -> int:
    """A requested precision, defaulting to and capped at the signature's cap."""
    return sig.cap if prec is None else max(0, min(prec, sig.cap))


def _jet(sig: RingSignature, terms: dict, den: int, prec: int) -> "JetSuperFunction":
    """A jet from packed terms already in canonical form."""
    jet = object.__new__(JetSuperFunction)
    jet.sig = sig
    jet.terms = terms
    jet.den = den
    jet.prec = prec
    return jet


def _canonical(sig: RingSignature, terms: dict, den: int, prec: int) -> "JetSuperFunction":
    """A jet from nonzero packed terms, with the common factor of ``den`` and
    every numerator divided out (the zero jet gets ``den == 1``)."""
    if den != 1:
        g = den
        for re, im in terms.values():
            g = gcd(g, re, im)
            if g == 1:
                break
        if g != 1:
            den //= g
            terms = {key: (re // g, im // g) for key, (re, im) in terms.items()}
    return _jet(sig, terms, den, prec)


def _finish(sig: RingSignature, acc: dict, den: int, prec: int) -> "JetSuperFunction":
    """The jet of the packed accumulator ``acc / den`` at ``prec``: keys whose
    numerators cancelled to ``(0, 0)`` and keys past ``prec`` drop, then the
    rest is brought to canonical form.  Every packed sum ends here, so a
    cancelled key is removed in this one place.  ``acc`` may become the
    jet's terms, so the caller must not change it afterwards."""
    top = (prec + 1) << sig._layout.shift  # the least key past prec
    # both tests scan in C; most sums have nothing to drop and skip the copy
    if (0, 0) in acc.values() or acc and max(acc) >= top:
        acc = {key: value for key, value in acc.items() if key < top and (value[0] or value[1])}
    return _canonical(sig, acc, den, prec)


def _accumulate(acc: dict, den: int, terms: dict, tden: int) -> int:
    """Add ``terms / tden`` into ``acc / den`` in place; return the new
    denominator of ``acc``.  Keys whose numerators cancel stay in ``acc``
    with value ``(0, 0)`` until ``_finish``."""
    if tden != den:
        common = lcm(den, tden)
        if common != den:
            factor = common // den
            for key, (re, im) in acc.items():
                acc[key] = (re * factor, im * factor)
            den = common
        factor = common // tden
        terms = {key: (re * factor, im * factor) for key, (re, im) in terms.items()}
    get = acc.get
    for key, (re, im) in terms.items():
        prev = get(key)
        acc[key] = (re, im) if prev is None else (prev[0] + re, prev[1] + im)
    return den


# Products of fewer term pairs than this visit every pair: on small jets,
# indexing the right operand costs more than the pairs it lets the loop skip.
# Measured on the operands of the benchmark workloads (see CHANGES.md).
_FLAT_PAIRS = 48


def _multiply_into(acc: dict, layout: _Layout, left: dict, factor: int, right: dict,
                   prec: int) -> None:
    """Add ``factor`` times the product of the packed terms ``left`` and
    ``right`` into ``acc`` in place, dropping monomials past ``prec``.

    Keys whose numerators cancel stay in ``acc`` with value ``(0, 0)``.

    Below ``_FLAT_PAIRS`` pairs (``len(left) * len(right)``) the loop visits
    every pair.  From there on ``right`` is indexed first.  Bucket
    invariant: each bucket holds the terms of ``right`` with one odd mask,
    sorted by even degree, so that the terms of degree at most ``r`` are a
    prefix of it.  A left term of odd mask ``s1`` and degree ``d`` visits
    only the buckets whose mask is disjoint from ``s1`` and stops in each
    at the first term past degree ``prec - d``, so every pair it visits
    yields a term.  The disjoint buckets and their merge signs are looked
    up once per distinct ``s1``, not once per pair.
    """
    shift = layout.shift
    odd_mask = layout.odd_mask
    signs = layout.signs
    get = acc.get
    if len(left) * len(right) < _FLAT_PAIRS:
        pairs = [(k2, k2 & odd_mask, a2, b2) for k2, (a2, b2) in right.items()]
        for k1, (a1, b1) in left.items():
            if factor != 1:
                a1 *= factor
                b1 *= factor
            s1 = k1 & odd_mask
            row = signs.get(s1)
            if row is None:
                row = signs[s1] = {}
            for k2, s2, a2, b2 in pairs:
                if s1 & s2:
                    continue  # a repeated odd generator squares to zero
                key = k1 + k2
                if key >> shift > prec:
                    continue
                sign = row.get(s2)
                if sign is None:
                    sign = row[s2] = layout.merge_sign(s1, s2)
                if sign > 0:
                    re = a1 * a2 - b1 * b2
                    im = a1 * b2 + b1 * a2
                else:
                    re = b1 * b2 - a1 * a2
                    im = -a1 * b2 - b1 * a2
                prev = get(key)
                if prev is None:
                    acc[key] = (re, im)
                else:
                    acc[key] = (prev[0] + re, prev[1] + im)
        return
    buckets: dict = {}
    for k2, (a2, b2) in right.items():
        buckets.setdefault(k2 & odd_mask, []).append((k2 >> shift, k2, a2, b2))
    for bucket in buckets.values():
        bucket.sort()
    _bucket_products(acc, layout, left, factor, buckets, {}, prec)


def _bucket_products(acc: dict, layout: _Layout, left: dict, factor: int, buckets: dict,
                     plans: dict, top: int, tag: int = 0) -> None:
    """Add ``factor`` times the product of the packed terms ``left`` with the
    right terms in ``buckets`` (odd mask -> ``(degree, key, re, im)``, sorted
    by degree) into ``acc``, up to even degree ``top``: the indexed loop of
    ``_multiply_into``.  ``plans`` caches the merge-sign plan of each left
    odd mask; calls against the same buckets may share it.  A right key may
    carry a tag in its low ``tag`` bits; the left key is shifted past them,
    so each sum keeps the tag."""
    shift, odd_mask, signs = layout.shift, layout.odd_mask, layout.signs
    get = acc.get
    for k1, (a1, b1) in left.items():
        room = top - (k1 >> shift)
        if room < 0:
            continue
        s1 = k1 & odd_mask
        plan = plans.get(s1)
        if plan is None:
            row = signs.get(s1)
            if row is None:
                row = signs[s1] = {}
            plan = plans[s1] = []
            for s2, bucket in buckets.items():
                if s1 & s2:
                    continue  # a repeated odd generator squares to zero
                sign = row.get(s2)
                if sign is None:
                    sign = row[s2] = layout.merge_sign(s1, s2)
                plan.append((sign, bucket))
        if factor != 1:
            a1 *= factor
            b1 *= factor
        k1 <<= tag
        for sign, bucket in plan:
            p, q = (a1, b1) if sign > 0 else (-a1, -b1)
            for d2, k2, a2, b2 in bucket:
                if d2 > room:
                    break  # the rest of the bucket lies past top
                key = k1 + k2
                re = p * a2 - q * b2
                im = p * b2 + q * a2
                prev = get(key)
                if prev is None:
                    acc[key] = (re, im)
                else:
                    acc[key] = (prev[0] + re, prev[1] + im)


class JetSuperFunction:
    """Immutable truncated polynomial superfunction.

    ``terms`` maps the packed key of each monomial (see ``_Layout``) to a
    nonzero pair ``(re, im)`` of integer numerators; the coefficient is
    ``(re + im*i) / den``.  ``den`` is positive and shares no factor with
    every numerator at once, and the zero jet has ``den == 1``, so equal
    jets have equal ``den`` and ``terms``.  ``items()`` reads terms as
    ``(even_exponents, odd_subset, coefficient)``, where ``even_exponents``
    is a tuple of 2n non-negative integers and ``odd_subset`` is a strictly
    increasing tuple of odd generator ids in the range 0..2m-1 (local, i.e.
    already shifted by -2n).  Jets are made by the constructors below and
    by the operations, never by calling the class.
    """

    __slots__ = ("sig", "terms", "den", "prec")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(sig: RingSignature, prec: int | None = None) -> "JetSuperFunction":
        return _jet(sig, {}, 1, _clamp(sig, prec))

    @staticmethod
    def scalar(sig: RingSignature, value: GaussianRational, prec: int | None = None) -> "JetSuperFunction":
        re, im, den = numerators(value)
        return _jet(sig, {0: (re, im)} if value else {}, den, _clamp(sig, prec))

    @staticmethod
    def one(sig: RingSignature, prec: int | None = None) -> "JetSuperFunction":
        return JetSuperFunction.scalar(sig, GR_ONE, prec)

    @staticmethod
    def gen(sig: RingSignature, gid: int) -> "JetSuperFunction":
        layout = sig._layout
        if sig.gen_parity(gid):
            key = 1 << (gid - sig.even_count)
        elif sig.cap:
            key = (1 << layout.shift) + (1 << layout.offsets[gid])
        else:
            return JetSuperFunction.zero(sig)  # degree 1 is past the cap
        return _jet(sig, {key: (1, 0)}, 1, sig.cap)

    # -- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def _gaussian(self, numerators) -> GaussianRational:
        re, im = numerators
        return GaussianRational(Fraction(re, self.den), Fraction(im, self.den))

    def items(self) -> list:
        """Terms as ``(even_exponents, odd_subset, coefficient)`` in canonical
        order: graded-lex on even exponents, then odd subset."""
        layout = self.sig._layout
        return [(layout.exponents(key), layout.odd_word(key & layout.odd_mask),
                 self._gaussian(self.terms[key]))
                for key in sorted(self.terms, key=layout.sort_key)]

    def parity(self) -> int | None:
        """0 or 1 if homogeneous, None if mixed or zero-ambiguous."""
        odd_mask = self.sig._layout.odd_mask
        keys = iter(self.terms)
        parity = (next(keys, 0) & odd_mask).bit_count() & 1
        for key in keys:
            if (key & odd_mask).bit_count() & 1 != parity:
                return None
        return parity

    def homogeneous_parts(self):
        """Return (even_part, odd_part); a homogeneous jet is one of them itself."""
        parity = self.parity()
        if parity is not None:
            zero = _jet(self.sig, {}, 1, self.prec)
            return (zero, self) if parity else (self, zero)
        odd_mask = self.sig._layout.odd_mask
        parts = ({}, {})
        for key, value in self.terms.items():
            parts[(key & odd_mask).bit_count() & 1][key] = value
        return tuple(_canonical(self.sig, part, self.den, self.prec) for part in parts)

    def is_holomorphic(self) -> bool:
        antiholomorphic = self.sig._layout.antiholomorphic
        return not any(key & antiholomorphic for key in self.terms)

    def even_degree(self) -> int:
        """Largest retained total degree in even generators."""
        shift = self.sig._layout.shift
        return max((key >> shift for key in self.terms), default=0)

    def truncate(self, prec: int) -> "JetSuperFunction":
        return _finish(self.sig, self.terms, self.den, max(0, min(self.prec, prec)))

    def same_terms(self, other: "JetSuperFunction") -> bool:
        """Equality of the coefficients, whatever the two precisions."""
        return self.den == other.den and self.terms == other.terms

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: "JetSuperFunction") -> "JetSuperFunction":
        return jet_sum(self.sig, (self, other))

    def __neg__(self) -> "JetSuperFunction":
        terms = {key: (-re, -im) for key, (re, im) in self.terms.items()}
        return _jet(self.sig, terms, self.den, self.prec)

    def __sub__(self, other: "JetSuperFunction") -> "JetSuperFunction":
        return self + (-other)

    def scale(self, value: GaussianRational) -> "JetSuperFunction":
        return self.scale_numerators(*numerators(value))

    def scale_numerators(self, p: int, q: int, den: int) -> "JetSuperFunction":
        """``scale`` by ``(p + q*i) / den``, for a scalar converted once with
        ``numerators`` and applied to many jets."""
        if not (p or q):
            return JetSuperFunction.zero(self.sig, self.prec)
        terms = {key: (re * p - im * q, re * q + im * p) for key, (re, im) in self.terms.items()}
        return _canonical(self.sig, terms, self.den * den, self.prec)

    def __mul__(self, other: "JetSuperFunction") -> "JetSuperFunction":
        _require_ring(self.sig, other)
        prec = min(self.prec, other.prec)
        if not (self.terms and other.terms):
            return _jet(self.sig, {}, 1, prec)
        acc: dict = {}
        _multiply_into(acc, self.sig._layout, self.terms, 1, other.terms, prec)
        return _finish(self.sig, acc, self.den * other.den, prec)

    def agrees_with(self, other: "JetSuperFunction") -> bool:
        """Equality of terms after truncating both sides to the common precision."""
        _require_ring(self.sig, other)
        prec = min(self.prec, other.prec)
        return self.truncate(prec).same_terms(other.truncate(prec))

    # -- calculus -------------------------------------------------------

    def partial(self, gid: int) -> "JetSuperFunction":
        """Left superderivation with respect to generator ``gid``.

        Satisfies d(fg) = d(f) g + (-1)^(|gid| |f|) f d(g).  A derivative in
        an even direction lowers the precision by one (clamped at zero).
        """
        parity = self.sig.gen_parity(gid)
        layout = self.sig._layout
        terms: dict = {}
        if parity == 0:
            offset = layout.offsets[gid]
            field_mask = layout.field_mask
            step = (1 << offset) + (1 << layout.shift)
            for key, (re, im) in self.terms.items():
                e = (key >> offset) & field_mask
                if e:
                    terms[key - step] = (re * e, im * e)
            return _canonical(self.sig, terms, self.den, max(0, self.prec - 1))
        bit = 1 << (gid - self.sig.even_count)
        below = bit - 1
        for key, (re, im) in self.terms.items():
            if key & bit:
                # the generator moves to the front past the odd ones before it
                sign = koszul((key & below).bit_count())
                terms[key ^ bit] = (sign * re, sign * im)
        return _canonical(self.sig, terms, self.den, self.prec)

    def conjugate(self) -> "JetSuperFunction":
        """Superfunction conjugation: swaps barred and unbarred generators.

        Order-reversing on odd products, so conj(f g) = conj(g) conj(f) and
        conjugation is an involution.
        """
        layout = self.sig._layout
        m = self.sig.m
        odd_bits, odd_mask = layout.odd_bits, layout.odd_mask
        half = self.sig.n * layout.width
        half_mask = (1 << half) - 1
        low = (1 << m) - 1
        terms: dict = {}
        for key, (re, im) in self.terms.items():
            even = key >> odd_bits
            degree = even >> (2 * half) << (2 * half)
            even = degree | (even & half_mask) << half | (even >> half) & half_mask
            unbarred, barred = key & low, (key & odd_mask) >> m
            p, q = unbarred.bit_count(), barred.bit_count()
            new_key = even << odd_bits | unbarred << m | barred
            # th_a1..th_ak becomes its image in reverse order: k(k-1)/2
            # crossings to reverse it, less p*q to keep the images of the p
            # unbarred generators after those of the q barred ones
            size = p + q
            sign = koszul(size * (size - 1) // 2 + p * q)
            terms[new_key] = (sign * re, -sign * im)
        return _jet(self.sig, terms, self.den, self.prec)

    def invert(self) -> "JetSuperFunction":
        """Multiplicative inverse, exact up to this element's precision.

        Requires an even element whose body constant is nonzero; computed by
        the geometric series on the nilpotent-plus-higher part, which
        terminates because every correction raises even degree or odd order.
        """
        if self.parity() != 0:
            raise JetError("only even superfunctions can be inverted")
        body = self.terms.get(0)
        if body is None:
            raise NotAUnitError("body constant vanishes, element is not a unit")
        # the inverse of (re + im*i) / den is den * (re - im*i) / (re^2 + im^2)
        re, im = body
        inverse = _lowest(self.den * re, -self.den * im, re * re + im * im)
        one = JetSuperFunction.one(self.sig, self.prec)
        rest = one - self.scale_numerators(*inverse)
        powers = [one]
        power = rest
        limit = self.prec + self.sig.m + 1
        while not power.is_zero():
            powers.append(power)
            if len(powers) > limit + 1:
                raise JetError("geometric series failed to terminate (internal error)")
            power = power * rest
        return jet_sum(self.sig, powers).scale_numerators(*inverse)

    # -- substitution ---------------------------------------------------

    def substitute(self, images: list, target_sig: RingSignature) -> "JetSuperFunction":
        """Evaluate this element on images of its generators.

        ``images[gid]`` is the replacement for generator ``gid`` in the
        target ring, of matching parity, or None when the generator does not
        occur.  A term of even degree 0 in any supplied even image lowers
        the result's precision by m, and a constant term lowers it to 0 (see
        ``_image_deficit``).
        """
        return substitute_many([self], images, target_sig)[0]

    def _substitution_prec(self, images: list, target_sig: RingSignature, deficit) -> int:
        """Validate the images this element uses; return the result precision:
        the least of their precisions and of ``prec - deficit``, at least 0.
        An image's own unknown tail stays past its precision, whatever it is
        multiplied by, so the deficit of ``_image_deficit`` is not charged
        to the images."""
        layout = self.sig._layout
        seen = 0
        for key in self.terms:
            seen |= key  # fields never carry, so a field of the union is nonzero iff used
        used = [e > 0 for e in layout.exponents(seen)]
        used.extend(seen >> j & 1 for j in range(layout.odd_bits))
        image_prec = self.prec
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
            image_prec = min(image_prec, image.prec)
        return max(0, min(self.prec - deficit, image_prec))

    # -- rendering -------------------------------------------------------

    def render(self) -> str:
        if not self.terms:
            return "0"
        sig, layout, den = self.sig, self.sig._layout, self.den
        names = [sig.gen_name(gid) for gid in range(sig.gen_count())]
        odd_names = names[sig.even_count:]
        pieces = []
        for key in sorted(self.terms, key=layout.sort_key):
            factors = []
            for name, e in zip(names, layout.exponents(key)):
                if e:
                    factors.append(name if e == 1 else f"{name}^{e}")
            factors.extend(odd_names[o] for o in layout.odd_word(key & layout.odd_mask))
            monomial = "*".join(factors)
            re, im = self.terms[key]
            sign, body = _render_scalar(re, im, den, bool(monomial))
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


def _parts(f: JetSuperFunction):
    """(parity, part) per nonzero homogeneous part, even first: a coefficient
    of mixed parity stands for the sum of its parts, each signed on its own."""
    parity = f.parity()
    if parity is None:
        return tuple(enumerate(f.homogeneous_parts()))
    return ((parity, f),) if f.terms else ()


def dot(sig: RingSignature, pairs) -> JetSuperFunction:
    """Sum of ``a * b`` over the ``(a, b)`` jet pairs, in one accumulator.

    Equals the fold ``zero(sig) + a1*b1 + a2*b2 + ...`` term for term and
    in ``prec`` (the least precision of any factor, or the cap when there
    are no pairs), but brings every product over one common denominator and
    reduces to canonical form once.  Raises ``JetError`` when a factor lives
    in another ring.
    """
    pairs = list(pairs)
    prec = sig.cap
    for a, b in pairs:
        _require_ring(sig, a)
        _require_ring(sig, b)
        prec = min(prec, a.prec, b.prec)
    live = [(a, b) for a, b in pairs if a.terms and b.terms]
    den = lcm(*(a.den * b.den for a, b in live))
    layout = sig._layout
    acc: dict = {}
    for a, b in live:
        _multiply_into(acc, layout, a.terms, den // (a.den * b.den), b.terms, prec)
    return _finish(sig, acc, den, prec)


def jet_sum(sig: RingSignature, jets) -> JetSuperFunction:
    """Sum of the jets, in one accumulator: the additive twin of ``dot``.

    Equals the fold ``zero(sig) + j1 + j2 + ...`` term for term, in ``den``
    and in ``prec`` (the least precision of any addend, or the cap when
    there are none): the fold truncates at a running least precision that
    is never below the final one, and the canonical form is unique.  Raises
    ``JetError`` when an addend lives in another ring.
    """
    acc: dict = {}
    den, prec = 1, sig.cap
    for jet in jets:
        _require_ring(sig, jet)
        if jet.prec < prec:
            prec = jet.prec
        if acc:
            den = _accumulate(acc, den, jet.terms, jet.den)
        elif jet.terms:
            acc, den = dict(jet.terms), jet.den
    return _finish(sig, acc, den, prec)


def monomial_words(f: JetSuperFunction) -> list:
    """``(word, re, im)`` per term of ``f``: the tuple of generator ids its
    monomial multiplies, in written order (even generators by id with
    multiplicity, then the odd ones), and its numerators over ``f.den``.

    The length of a word is the weight of its monomial: even degree plus
    the number of odd generators.
    """
    layout, even_count = f.sig._layout, f.sig.even_count
    words = []
    for key, (re, im) in f.terms.items():
        word = [gid for gid, e in enumerate(layout.exponents(key)) for _ in range(e)]
        word.extend(even_count + o for o in layout.odd_word(key & layout.odd_mask))
        words.append((tuple(word), re, im))
    return words


def substitute_many(functions, images: list, target_sig: RingSignature) -> list:
    """Substitute the same generator images into several elements at once.

    Each monomial is read as the word of generator ids it multiplies, in
    written order (even generators by id with multiplicity, then the odd
    ones).  The words of all functions are visited in sorted order, which
    walks their prefix trie depth first, so the image of every shared prefix
    is one product of its parent with one generator image and only the
    current path is held.  A prefix image is truncated at the largest result
    precision among the words below it; a word that ends at a leaf and is
    used once is scaled before its last product.  Coefficients are read as
    the integer numerators of each function over its ``den`` and applied
    with ``scale_numerators``, with no ``GaussianRational``.  Every result equals
    ``f.substitute(images, target_sig)`` term for term and in ``prec``.
    """
    deficit = _image_deficit(functions[0].sig, images) if functions else 0
    precs = [f._substitution_prec(images, target_sig, deficit) for f in functions]
    users: dict = {}
    for index, f in enumerate(functions):
        for word, re, im in monomial_words(f):
            users.setdefault(word, []).append((index, re, im, f.den))
    # need[w]: precision the image of prefix w is computed at
    need: dict = {}
    proper_prefixes: set = set()
    for word, uses in users.items():
        top = max(precs[index] for index, *_ in uses)
        for size in range(1, len(word) + 1):
            prefix = word[:size]
            if need.get(prefix, -1) < top:
                need[prefix] = top
            if size < len(word):
                proper_prefixes.add(prefix)
    sums = [{} for _ in functions]
    dens = [1] * len(functions)
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
        for index, re, im, den in uses:
            prec = precs[index]
            if not word:
                dens[index] = _accumulate(sums[index], dens[index], {0: (re, im)}, den)
                continue
            if not single:
                value = _at_prec(path[-1], prec).scale_numerators(re, im, den)
            elif len(word) == 1:
                value = _at_prec(images[word[0]], prec).scale_numerators(re, im, den)
            else:
                value = _at_prec(path[-1], prec).scale_numerators(re, im, den) * images[word[-1]]
            dens[index] = _accumulate(sums[index], dens[index], value.terms, value.den)
    return [_finish(target_sig, terms, den, prec) for terms, den, prec in zip(sums, dens, precs)]


def _image_deficit(sig: RingSignature, images: list):
    """How far the image of a monomial can fall below its even degree.

    A monomial past a function's ``prec`` has even degree at least
    ``prec + 1`` and may use any generator, so every supplied even image
    counts, not only those of the stored terms.  Through a term of even
    degree 0 in an even image (an odd pair such as ``th1*th2``) the image
    falls by up to m, and through a constant term it falls to every degree:
    the deficit is then m, or the cap.
    """
    deficit = 0
    for image in images[:sig.even_count]:
        if image is None:
            continue
        if 0 in image.terms:
            return sig.cap
        shift = image.sig._layout.shift
        if not deficit and any(key >> shift == 0 for key in image.terms):
            deficit = sig.m
    return deficit


def _prefix_image(path, prefix, images, need):
    """Image of ``prefix`` from the image of its parent, the tail of ``path``."""
    image = images[prefix[-1]]
    if not path:
        return _at_prec(image, need[prefix])
    return _at_prec(path[-1], need[prefix]) * image


def _at_prec(jet: JetSuperFunction, prec: int) -> JetSuperFunction:
    return jet if jet.prec <= prec else jet.truncate(prec)


def _render_scalar(re: int, im: int, den: int, as_factor: bool):
    """Return (sign, text) for ``(re + im*i) / den``, with text omitting a
    leading unit when used as a factor.  Each part prints as a reduced
    fraction, ``a`` or ``a/b``."""
    if re and im:
        if re < 0:
            return -1, f"({_ratio_text(-re, den)} {'-' if im > 0 else '+'} {_imag_text(abs(im), den)})"
        return 1, f"({_ratio_text(re, den)} {'+' if im > 0 else '-'} {_imag_text(abs(im), den)})"
    if not im:
        sign = -1 if re < 0 else 1
        if as_factor and abs(re) == den:
            return sign, ""
        return sign, _ratio_text(abs(re), den)
    return -1 if im < 0 else 1, _imag_text(abs(im), den)


def _ratio_text(num: int, den: int) -> str:
    """``num / den`` in lowest terms, for ``num > 0``."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def _imag_text(num: int, den: int) -> str:
    return "i" if num == den else f"{_ratio_text(num, den)}*i"
