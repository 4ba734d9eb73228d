"""Sign discipline for the bigraded calculus.

Every homogeneous object in this package carries two degrees: a cohomological
degree (form degree plus multivector degree) and a Z2 parity coming from odd
coordinates.  Two homogeneous elements supercommute with the sign

    a * b = (-1)^(deg(a)*deg(b) + |a|*|b|) * b * a

and every Koszul sign used anywhere else in the package is obtained from the
functions below, never recomputed ad hoc: ``koszul`` turns a sign exponent
into a sign, ``commute_sign`` gives the exchange sign of two bidegrees and
``reorder_sign`` the sign of a permutation of parities.
"""

from __future__ import annotations

from dataclasses import dataclass

EVEN = 0
ODD = 1


def check_parity(value: int) -> int:
    if value not in (0, 1):
        raise ValueError(f"parity must be 0 or 1, got {value!r}")
    return value


@dataclass(frozen=True)
class BiDegree:
    """Cohomological degree and parity of a homogeneous element.

    The cohomological degree is stored as a genuine integer so that the
    (p, q) decomposition stays recoverable; sign rules reduce it mod 2.
    """

    cohom: int
    parity: int

    def __post_init__(self) -> None:
        if self.cohom < 0:
            raise ValueError("cohomological degree must be >= 0")
        check_parity(self.parity)


def koszul(exponent: int) -> int:
    """The sign (-1)^exponent."""
    return -1 if exponent % 2 else 1


def commute_sign(a: BiDegree, b: BiDegree) -> int:
    """Sign picked up when two homogeneous elements change places."""
    return koszul(a.cohom * b.cohom + a.parity * b.parity)


def reorder_sign(parities, permutation) -> int:
    """Koszul sign of permuting a sequence of parities.

    ``permutation[i]`` is the position, in the original sequence, of the
    element that ends up at position ``i``.  Only crossings of two odd
    entries contribute a factor of -1;  cohomological degrees do not enter
    here, this is the pure parity sign used for sorting generator products.
    """
    perm = list(permutation)
    size = len(perm)
    if sorted(perm) != list(range(size)) or size != len(parities):
        raise ValueError("permutation must be a bijection on sequence positions")
    sign = 1
    for i in range(size):
        for j in range(i + 1, size):
            if perm[i] > perm[j] and parities[perm[i]] == ODD and parities[perm[j]] == ODD:
                sign = -sign
    return sign
