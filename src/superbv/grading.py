"""Sign discipline for the bigraded calculus.

Every homogeneous object in this package carries two degrees: a cohomological
degree (form degree plus multivector degree) and a Z2 parity coming from odd
coordinates.  Two homogeneous elements supercommute with the sign

    a * b = (-1)^(deg(a)*deg(b) + |a|*|b|) * b * a

and every Koszul sign used anywhere else in the package is obtained from the
functions below, never recomputed ad hoc: ``koszul`` turns a sign exponent
into a sign and ``reorder_sign`` gives the sign of a permutation of parities.
"""

from __future__ import annotations

ODD = 1


def koszul(exponent: int) -> int:
    """The sign (-1)^exponent."""
    return -1 if exponent % 2 else 1


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
