"""Block (even|odd) graded matrices over the jet ring.

A matrix of graded shape (p|q) has rows and columns 0..p-1 even and
p..p+q-1 odd.  An even matrix has entries whose parity equals the sum of
their row and column parities; those are the matrices the superdeterminant
accepts.  Entries multiply in the written order everywhere, since odd
entries anticommute.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm

from .grading import ODD, koszul, reorder_sign
from .jetring import (
    GaussianRational,
    JetError,
    JetSuperFunction,
    NotAUnitError,
    RingSignature,
    dot,
)


class SuperMatrixError(JetError):
    pass


class SuperMatrix:
    __slots__ = ("sig", "p", "q", "rows")

    def __init__(self, sig: RingSignature, p: int, q: int, rows):
        size = p + q
        if len(rows) != size or any(len(r) != size for r in rows):
            raise SuperMatrixError(f"expected a {size}x{size} entry grid")
        self.sig = sig
        self.p = p
        self.q = q
        self.rows = [list(r) for r in rows]
        for row in self.rows:
            for entry in row:
                if entry.sig is not sig and entry.sig != sig:
                    raise SuperMatrixError("all entries must share one ring signature")

    @property
    def size(self) -> int:
        return self.p + self.q

    def index_parity(self, i: int) -> int:
        return 0 if i < self.p else 1

    @staticmethod
    def identity(sig: RingSignature, p: int, q: int) -> "SuperMatrix":
        size = p + q
        one = JetSuperFunction.one(sig)
        zero = JetSuperFunction.zero(sig)
        return SuperMatrix(sig, p, q, [[one if i == j else zero for j in range(size)] for i in range(size)])

    @staticmethod
    def zero(sig: RingSignature, p: int, q: int) -> "SuperMatrix":
        zero = JetSuperFunction.zero(sig)
        return SuperMatrix(sig, p, q, [[zero] * (p + q) for _ in range(p + q)])

    def entry(self, i: int, j: int) -> JetSuperFunction:
        return self.rows[i][j]

    def is_even(self) -> bool:
        for i in range(self.size):
            for j in range(self.size):
                e = self.rows[i][j]
                if e.is_zero():
                    continue
                if e.parity() != (self.index_parity(i) + self.index_parity(j)) % 2:
                    return False
        return True

    def _require_even(self, what: str) -> None:
        if not self.is_even():
            raise SuperMatrixError(f"{what} requires an even graded matrix")

    def __add__(self, other: "SuperMatrix") -> "SuperMatrix":
        self._check_shape(other)
        return SuperMatrix(self.sig, self.p, self.q,
                           [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other: "SuperMatrix") -> "SuperMatrix":
        self._check_shape(other)
        return SuperMatrix(self.sig, self.p, self.q,
                           [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self) -> "SuperMatrix":
        return SuperMatrix(self.sig, self.p, self.q, [[-a for a in row] for row in self.rows])

    def _check_shape(self, other: "SuperMatrix") -> None:
        if (self.p, self.q, self.sig) != (other.p, other.q, other.sig):
            raise SuperMatrixError("graded shapes or ring signatures differ")

    def __mul__(self, other: "SuperMatrix") -> "SuperMatrix":
        """Matrix product; a pair with a zero factor is skipped, so its
        precision does not lower that of the entry."""
        self._check_shape(other)
        columns = list(zip(*other.rows))
        rows = [[dot(self.sig, [(a, b) for a, b in zip(row, column)
                                if a.terms and b.terms])
                 for column in columns]
                for row in self.rows]
        return SuperMatrix(self.sig, self.p, self.q, rows)

    def agrees_with(self, other: "SuperMatrix") -> bool:
        self._check_shape(other)
        return all(a.agrees_with(b) for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb))

    def blocks(self):
        """Return (A, B, C, D) entry grids."""
        p = self.p
        a = [row[:p] for row in self.rows[:p]]
        b = [row[p:] for row in self.rows[:p]]
        c = [row[:p] for row in self.rows[p:]]
        d = [row[p:] for row in self.rows[p:]]
        return a, b, c, d

    def supertranspose(self) -> "SuperMatrix":
        """Supertranspose with entry rule (M^ST)^i_j = (-1)^(|j| + |j||i|) M^j_i.

        Blockwise this sends (A, B, C, D) to (A^T, -C^T, B^T, D^T); it is the
        unique sign table compatible with both the covector pullback rule and
        sdet-invariance.
        """
        size = self.size
        rows = [[None] * size for _ in range(size)]
        for i in range(size):
            for j in range(size):
                src = self.rows[j][i]
                exponent = self.index_parity(j) * (1 + self.index_parity(i))
                rows[i][j] = src if koszul(exponent) > 0 else -src
        return SuperMatrix(self.sig, self.p, self.q, rows)

    def str_(self) -> JetSuperFunction:
        """Supertrace: trace of the even-even block minus trace of the odd-odd block."""
        acc = JetSuperFunction.zero(self.sig)
        for i in range(self.size):
            entry = self.rows[i][i]
            acc = acc - entry if self.index_parity(i) else acc + entry
        return acc

    supertrace = str_

    def body_matrix(self):
        """Constant part of every entry, as a grid of GaussianRationals."""
        return [[e.body() for e in row] for row in self.rows]

    def inverse(self) -> "SuperMatrix":
        """Two-sided inverse up to the working precision.

        Splits off the constant body B and inverts it exactly, then sums the
        terminating geometric series of R = 1 - B^-1 M, whose entries are
        nilpotent or of positive even degree, and returns (1 + R + R^2 +
        ...) B^-1.  Both products with B^-1 scale jets by scalars.
        """
        self._require_even("inversion")
        try:
            body_inv = _invert_scalar_matrix(self.body_matrix())
        except ZeroDivisionError:
            raise NotAUnitError("body of the matrix is not invertible") from None
        identity = SuperMatrix.identity(self.sig, self.p, self.q)
        columns = list(zip(*self.rows))
        remainder = identity - SuperMatrix(self.sig, self.p, self.q, [
            [_scaled_sum(self.sig, zip(scalars, column)) for column in columns]
            for scalars in body_inv])
        acc = identity
        power = remainder
        prec = min((e.prec for row in self.rows for e in row), default=self.sig.cap)
        limit = prec + 2 * self.sig.m + 2
        steps = 0
        while not all(e.is_zero() for row in power.rows for e in row):
            acc = acc + power
            power = power * remainder
            steps += 1
            if steps > limit:
                raise SuperMatrixError("matrix geometric series failed to terminate")
        scalar_columns = list(zip(*body_inv))
        return SuperMatrix(self.sig, self.p, self.q, [
            [_scaled_sum(self.sig, zip(scalars, row)) for scalars in scalar_columns]
            for row in acc.rows])

    def det_even_block(self, grid) -> JetSuperFunction:
        return det_even(self.sig, grid)

    def sdet(self) -> JetSuperFunction:
        """Superdeterminant det(A - B D^-1 C) * det(D)^-1 of an even matrix.

        Row i of B D^-1 is formed once and serves every entry of row i of
        the Schur complement; each entry is one fused ``dot``.  Unlike the
        matrix product, zero factors take part, so their precisions bound
        that of the result.
        """
        self._require_even("sdet")
        a, b, c, d = self.blocks()
        if self.q == 0:
            return self.det_even_block(a)
        d_mat = SuperMatrix(self.sig, 0, self.q, d)
        d_inv = d_mat.inverse()
        det_d = self.det_even_block(d)
        if self.p == 0:
            return det_d.invert()
        d_columns = list(zip(*d_inv.rows))
        c_columns = list(zip(*c))
        schur = []
        for a_row, b_row in zip(a, b):
            bd_row = [dot(self.sig, zip(b_row, column)) for column in d_columns]
            schur.append([entry - dot(self.sig, zip(bd_row, column))
                          for entry, column in zip(a_row, c_columns)])
        return self.det_even_block(schur) * det_d.invert()

    def sdet_via_a_block(self) -> JetSuperFunction:
        """Cross-check form det(A)*det(D - C A^-1 B)^-1; oracle for tests only."""
        self._require_even("sdet")
        a, b, c, d = self.blocks()
        if self.p == 0:
            return self.det_even_block(d).invert()
        a_mat = SuperMatrix(self.sig, self.p, 0, a)
        a_inv = a_mat.inverse()
        det_a = self.det_even_block(a)
        if self.q == 0:
            return det_a
        schur = []
        for i in range(self.q):
            row = []
            for j in range(self.q):
                acc = d[i][j]
                for k in range(self.p):
                    for l in range(self.p):
                        acc = acc - c[i][k] * a_inv.rows[k][l] * b[l][j]
                row.append(acc)
            schur.append(row)
        return det_a * self.det_even_block(schur).invert()

    def render(self) -> str:
        body = "; ".join("[" + ", ".join(e.render() for e in row) + "]" for row in self.rows)
        return f"[{body}]"

    def __repr__(self) -> str:
        return f"<supermatrix ({self.p}|{self.q}) {self.render()}>"


def det_even(sig: RingSignature, grid) -> JetSuperFunction:
    """Leibniz determinant of a square grid of even (hence central) entries."""
    size = len(grid)
    if size == 0:
        return JetSuperFunction.one(sig)
    acc = JetSuperFunction.zero(sig)
    parities = [ODD] * size  # all odd: the Koszul sign is the permutation sign
    for perm in itertools.permutations(range(size)):
        sign = reorder_sign(parities, perm)
        prod = JetSuperFunction.one(sig)
        for i in range(size):
            prod = prod * grid[i][perm[i]]
            if prod.is_zero():
                break
        acc = acc + prod if sign > 0 else acc - prod
    return acc


def _scaled_sum(sig: RingSignature, pairs) -> JetSuperFunction:
    """Sum of ``e.scale(s)`` over the ``(s, e)`` pairs where neither is zero.

    Scalars are central, so this equals the matrix-product entry with
    the scalars as one-term jets of full precision, on either side.
    """
    acc = JetSuperFunction.zero(sig)
    for scalar, entry in pairs:
        if scalar and entry.terms:
            acc = acc + entry.scale(scalar)
    return acc


def _invert_scalar_matrix(grid):
    """Exact inverse of a square grid of GaussianRationals.

    Writes the grid as N / den with Gaussian-integer N and runs Bareiss's
    fraction-free Gauss-Jordan elimination on [N | 1]: step k replaces
    every entry x of a row r != k by (p*x - f*y) / p_prev, where p is the
    pivot, f = N[r][k], y the pivot row's entry and p_prev the previous
    pivot, and the division is exact (Sylvester's identity).  The left
    block ends as d * 1 with d = +-det N, so the inverse is den * right / d.
    Raises ZeroDivisionError when the grid is singular.
    """
    size = len(grid)
    den = lcm(*(part.denominator for row in grid for x in row for part in (x.re, x.im)))
    work = [[(x.re.numerator * (den // x.re.denominator), x.im.numerator * (den // x.im.denominator))
             for x in row] + [(int(i == j), 0) for j in range(size)]
            for i, row in enumerate(grid)]
    prev = (1, 0)
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if work[r][col] != (0, 0)), None)
        if pivot_row is None:
            raise ZeroDivisionError("singular matrix")
        work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot_line = work[col]
        pr, pi = pivot_line[col]
        # dividing by prev = multiplying by its conjugate, then by its norm
        cr, ci = prev[0], -prev[1]
        norm = cr * cr + ci * ci
        for r, line in enumerate(work):
            if r == col:
                continue
            fr, fi = line[col]
            new = []
            for (xr, xi), (yr, yi) in zip(line, pivot_line):
                zr = pr * xr - pi * xi - fr * yr + fi * yi
                zi = pr * xi + pi * xr - fr * yi - fi * yr
                new.append(((zr * cr - zi * ci) // norm, (zr * ci + zi * cr) // norm))
            work[r] = new
        prev = (pr, pi)
    # every diagonal entry of the left block is now prev; divide by it
    dr, di = prev
    norm = dr * dr + di * di
    return [[GaussianRational(Fraction(den * (xr * dr + xi * di), norm),
                              Fraction(den * (xi * dr - xr * di), norm))
             for xr, xi in line[size:]]
            for line in work]
