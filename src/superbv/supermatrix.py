"""Block (even|odd) graded matrices over the jet ring.

A matrix of graded shape (p|q) has rows and columns 0..p-1 even and
p..p+q-1 odd.  An even matrix has entries whose parity equals the sum of
their row and column parities; those are the matrices the superdeterminant
accepts.  Entries multiply in the written order everywhere, since odd
entries anticommute.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from math import lcm

from .grading import ODD, koszul, reorder_sign
from .jetring import (
    JetError,
    JetSuperFunction,
    NotAUnitError,
    RingSignature,
    _accumulate,
    _bucket_products,
    _finish,
    _lowest,
    dot,
    jet_sum,
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

    def is_even(self) -> bool:
        return all(e.parity() == self.index_parity(i) ^ self.index_parity(j)
                   for i, row in enumerate(self.rows) for j, e in enumerate(row) if e.terms)

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

    def _check_shape(self, other: "SuperMatrix") -> None:
        if (self.p, self.q, self.sig) != (other.p, other.q, other.sig):
            raise SuperMatrixError("graded shapes or ring signatures differ")

    def __mul__(self, other: "SuperMatrix") -> "SuperMatrix":
        """Matrix product; a pair with a zero factor is skipped, so its
        precision does not lower that of the entry.  ``other`` is indexed
        once, and each row of the product is one ``_row_product`` pass."""
        self._check_shape(other)
        index = _index_rows(self.sig, other.rows)
        return SuperMatrix(self.sig, self.p, self.q,
                           [_row_product(self.sig, row, index) for row in self.rows])

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
        diagonal = ((self.rows[i][i], koszul(self.index_parity(i))) for i in range(self.size))
        return jet_sum(self.sig, (entry if sign > 0 else -entry for entry, sign in diagonal))

    def inverse(self, exact: Callable[[int], SuperMatrix] | None = None) -> "SuperMatrix":
        """Two-sided inverse up to the working precision.

        Splits off the constant body B and inverts it exactly, then sums the
        terminating geometric series of R = 1 - B^-1 M, whose entries are
        nilpotent or of positive even degree, and returns (1 + R + R^2 +
        ...) B^-1.  Both products with B^-1 scale jets by scalars.  When the
        series runs, R is indexed once, and R^k is formed from R^(k-1) row by
        row on ``_row_product``.  Each power is added in place into packed
        running sums whose precision is the least of every added entry, zero
        entries included, as the fold of jet sums ``1 + R + R^2 + ...``
        gives; the sums become jets only once the series has stopped.

        ``exact``, when given, takes the floor f below and returns an exact
        inverse T of this matrix, valid through the precision of each of its
        entries, as the chain rule gives for the Jacobian of an inverse map;
        only T's terms through f are read.  No running
        precision can fall below the floor f, the least precision of R's
        entries (or the cap), since every power's entry precision is a
        minimum over precisions of R.  Precisions only fall, so when every
        running precision already equals f after R and R^2 (see
        ``_settled_floor``) the series ends with all of them at f.  Its
        products then truncate no term at or below f, so the truncated
        running sums equal (1 - R)^-1 = T B truncated at f, provided M and
        T are known through f; and the result T B B^-1 is T truncated at f,
        at precision f where a live pair of the final scaled sum exists and
        at the cap where none does, as the series would give.  Otherwise,
        or when T falls short of f, the series runs.  Errors are the
        series' own: the body is inverted first.  The series stops within its
        step limit, the largest precision of R plus 2m, on every matrix with
        an invertible body.
        """
        self._require_even("inversion")
        sig, p, q, size = self.sig, self.p, self.q, self.size
        body = [[(*e.terms.get(0, (0, 0)), e.den) for e in row] for row in self.rows]
        try:
            body_inv = _invert_scalar_matrix(body)
        except ZeroDivisionError:
            raise NotAUnitError("body of the matrix is not invertible") from None
        columns = list(zip(*self.rows))
        remainder = SuperMatrix.identity(sig, p, q) - SuperMatrix(sig, p, q, [
            [_scaled_sum(sig, zip(scalars, column)) for column in columns] for scalars in body_inv])
        prec = min((e.prec for row in self.rows for e in row), default=sig.cap)
        # a nonzero term of R^k has weight at least k and at most the largest
        # precision of R plus 2m, so R^(limit + 1) is zero
        limit = max((e.prec for row in remainder.rows for e in row), default=sig.cap) + 2 * sig.m
        # the floor is never below the least precision of M; equal to it, M is
        # known through the floor
        if exact is not None and _settled_floor(sig, remainder.rows) == prec:
            chained = exact(prec)
            if all(e.prec >= prec for row in chained.rows for e in row):
                return SuperMatrix(sig, p, q, _truncated_inverse(sig, chained.rows, prec, body, body_inv))
        index = _index_rows(sig, remainder.rows)
        # the running sums, entry by entry as [terms, den, prec], from the identity
        acc = [[[{0: (1, 0)} if i == j else {}, 1, sig.cap] for j in range(size)] for i in range(size)]
        power = remainder.rows
        steps = 0
        while any(e.terms for row in power for e in row):
            for acc_row, row in zip(acc, power):
                for cell, e in zip(acc_row, row):
                    if e.prec < cell[2]:
                        cell[2] = e.prec
                    if e.terms:
                        cell[1] = _accumulate(cell[0], cell[1], e.terms, e.den)
            power = [_row_product(sig, row, index) for row in power]
            steps += 1
            if steps > limit:
                raise SuperMatrixError("matrix geometric series failed to terminate")
        # truncating once at the final precision equals the fold's truncating at
        # each step, as the precision only falls; a cell whose sum cancelled
        # is finished to the zero jet, so ``_scaled_sum`` does not count it
        scalar_columns = list(zip(*body_inv))
        rows = []
        for acc_row in acc:
            row = [_finish(sig, terms, den, low) for terms, den, low in acc_row]
            rows.append([_scaled_sum(sig, zip(scalars, row)) for scalars in scalar_columns])
        return SuperMatrix(sig, p, q, rows)

    def sdet(self) -> JetSuperFunction:
        """Superdeterminant det(A - B D^-1 C) * det(D)^-1 of an even matrix.

        The entries of D are even, hence central, so D^-1 is the adjugate
        times det(D)^-1: entry (i, j) is the cofactor of D at (j, i), a
        ``det_even`` of a minor, times the det(D)^-1 that the result needs
        anyway.  No matrix series is summed.  Row i of B D^-1 is formed once
        and serves every entry of row i of the Schur complement; each entry
        is one fused ``dot``.  Unlike the matrix product, zero factors take
        part, so their precisions bound that of the result.
        """
        self._require_even("sdet")
        a, b, c, d = self.blocks()
        if self.q == 0:
            return det_even(self.sig, a)
        det_d_inv = det_even(self.sig, d).invert()
        if self.p == 0:
            return det_d_inv
        # column k of D^-1 holds cofactor(k, j) * det(D)^-1 in row j
        d_inv_columns = [[_cofactor(self.sig, d, k, j) * det_d_inv for j in range(self.q)]
                         for k in range(self.q)]
        c_columns = list(zip(*c))
        schur = []
        for a_row, b_row in zip(a, b):
            bd_row = [dot(self.sig, zip(b_row, column)) for column in d_inv_columns]
            schur.append([entry - dot(self.sig, zip(bd_row, column))
                          for entry, column in zip(a_row, c_columns)])
        return det_even(self.sig, schur) * det_d_inv

    def sdet_via_a_block(self) -> JetSuperFunction:
        """Cross-check form det(A)*det(D - C A^-1 B)^-1; oracle for tests only."""
        self._require_even("sdet")
        a, b, c, d = self.blocks()
        if self.p == 0:
            return det_even(self.sig, d).invert()
        a_mat = SuperMatrix(self.sig, self.p, 0, a)
        a_inv = a_mat.inverse()
        det_a = det_even(self.sig, a)
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
        return det_a * det_even(self.sig, schur).invert()

    def render(self) -> str:
        body = "; ".join("[" + ", ".join(e.render() for e in row) + "]" for row in self.rows)
        return f"[{body}]"

    def __repr__(self) -> str:
        return f"<supermatrix ({self.p}|{self.q}) {self.render()}>"


def det_even(sig: RingSignature, grid) -> JetSuperFunction:
    """Leibniz determinant of a square grid of even (hence central) entries.

    The product of each permutation but its last factor is formed in row
    order and stops at the first zero; one ``dot`` then sums these heads
    times their last factors.  A head that vanished early is paired with
    one instead, so that, as in the fold ``zero + p1 - p2 + ...`` of the
    full products, the precisions of the factors after a zero do not bound
    that of the result.  A 1x1 grid is its entry, as that ``dot`` would
    give it.
    """
    size = len(grid)
    if size == 1:
        return grid[0][0]
    one = JetSuperFunction.one(sig)
    if size == 0:
        return one
    parities = [ODD] * size  # all odd: the Koszul sign is the permutation sign
    pairs = []
    for perm in itertools.permutations(range(size)):
        head = one
        for i in range(size - 1):
            head = grid[i][perm[i]] if i == 0 else head * grid[i][perm[i]]
            if not head.terms:
                break
        if reorder_sign(parities, perm) < 0:
            head = -head
        pairs.append((head, grid[-1][perm[-1]] if head.terms else one))
    return dot(sig, pairs)


def _cofactor(sig: RingSignature, grid, i: int, j: int) -> JetSuperFunction:
    """(-1)^(i+j) times the determinant of ``grid`` without row i and column j."""
    minor = [row[:j] + row[j + 1:] for k, row in enumerate(grid) if k != i]
    value = det_even(sig, minor)
    return value if koszul(i + j) > 0 else -value


def _index_rows(sig: RingSignature, rows):
    """The right factor of a matrix product as ``(den, tag, index)``, with
    ``den`` a common denominator of all entries.  Row l of ``index`` holds
    ``(j, prec)`` of each nonzero entry (l, j), the largest of those
    precisions, the row's terms over ``den`` in the buckets of
    ``jetring._bucket_products``, column j in the low ``tag`` bits of each
    key, and the row's merge-sign plans."""
    shift, odd_mask = sig._layout.shift, sig._layout.odd_mask
    tag = len(rows).bit_length()
    den = lcm(*(e.den for row in rows for e in row if e.terms))
    index = []
    for row in rows:
        columns = [(j, e.prec) for j, e in enumerate(row) if e.terms]
        buckets: dict = {}
        for j, _ in columns:
            factor = den // row[j].den
            for key, (re, im) in row[j].terms.items():
                buckets.setdefault(key & odd_mask, []).append(
                    (key >> shift, key << tag | j, re * factor, im * factor))
        for bucket in buckets.values():
            bucket.sort()
        index.append((columns, max((prec for _, prec in columns), default=-1), buckets, {}))
    return den, tag, index


def _row_product(sig: RingSignature, row, index) -> list:
    """The jets ``row`` times the right factor indexed by ``_index_rows``.

    Entry j equals the ``dot`` of ``row`` and column j over the pairs whose
    two factors are both nonzero: its precision is the least over those
    pairs, or the cap when there are none.  One pass over the row's terms
    sums the product row in one dict over one denominator, each key tagged
    with its column; split by column, ``_finish`` truncates each entry at
    its precision."""
    den_right, tag, index = index
    layout = sig._layout
    precs = [sig.cap] * len(index)
    live = []
    for entry, (columns, top, buckets, plans) in zip(row, index):
        if entry.terms and columns:
            for j, prec in columns:
                precs[j] = min(precs[j], entry.prec, prec)
            live.append((entry, min(entry.prec, top), buckets, plans))
    den = lcm(*(entry.den for entry, *_ in live))
    acc: dict = {}
    for entry, top, buckets, plans in live:
        _bucket_products(acc, layout, entry.terms, den // entry.den, buckets, plans, top, tag)
    entries = [{} for _ in precs]
    column = (1 << tag) - 1
    for key, value in acc.items():
        entries[key & column][key >> tag] = value
    return [_finish(sig, terms, den * den_right, prec) for terms, prec in zip(entries, precs)]


def _settled_floor(sig: RingSignature, rows) -> int | None:
    """The floor of the inverse's series on R (``rows``): the least
    precision of R's entries, or the cap, when every running precision of
    the series equals it after R and R^2; None otherwise.  R^2's precisions
    follow from R's zero pattern by ``_row_product``'s rule, and count only
    if R^2 has a nonzero entry; its entries are formed up to the first
    nonzero one."""
    if not any(e.terms for row in rows for e in row):
        return None
    floor = min(sig.cap, *(e.prec for row in rows for e in row))
    if all(e.prec == floor for row in rows for e in row):
        return floor
    for row in rows:
        precs = [e.prec for e in row]
        for entry, right in zip(row, rows):
            if entry.terms:
                for j, e in enumerate(right):
                    if e.terms:
                        precs[j] = min(precs[j], entry.prec, e.prec)
        if any(prec != floor for prec in precs):
            return None
    # entry (i, j) of R^2 is the ``dot`` of row i and column j over their
    # live pairs, as ``_row_product`` forms it
    columns = list(zip(*rows))
    for row in rows:
        for column in columns:
            if dot(sig, [(a, b) for a, b in zip(row, column) if a.terms and b.terms]).terms:
                return floor
    return None


def _truncated_inverse(sig: RingSignature, exact, floor: int, body, body_inv) -> list:
    """Rows of the series inverse where it settles at ``floor``, from the
    rows of an exact inverse T known through it: each entry is T's,
    truncated at ``floor``.  A zero entry (i, j) takes the cap where the
    series' final scaled sum has no live pair, that is where row i of S =
    T B, truncated at ``floor``, is zero at every k with a nonzero entry
    (k, j) of B^-1.  ``body`` and ``body_inv`` are B and B^-1 as scalar
    grids."""
    body_columns = list(zip(*body))
    zero = JetSuperFunction.zero(sig)
    rows = []
    for exact_row in exact:
        row = [e.truncate(floor) for e in exact_row]
        s_row: dict = {}  # k -> whether entry k of this row of S is nonzero, once asked
        for j, e in enumerate(row):
            if e.terms:
                continue
            for k, scalars in enumerate(body_inv):
                if scalars[j][0] or scalars[j][1]:
                    if k not in s_row:
                        s_row[k] = bool(_scaled_sum(sig, zip(body_columns[k], row)).terms)
                    if s_row[k]:
                        break
            else:
                row[j] = zero
        rows.append(row)
    return rows


def _scaled_sum(sig: RingSignature, pairs) -> JetSuperFunction:
    """Sum of ``e.scale(s)`` over the ``(s, e)`` pairs where neither is zero,
    each scalar ``s`` given as ``(re, im, den)``: the matrix-product entry
    with the scalars as one-term jets of full precision, summed over one
    denominator and truncated once to the least precision of the entries.
    """
    live = [(p, q, den, entry) for (p, q, den), entry in pairs if (p or q) and entry.terms]
    prec = min((entry.prec for *_, entry in live), default=sig.cap)
    common = lcm(*(den * entry.den for _, _, den, entry in live))
    acc: dict = {}
    get = acc.get
    for p, q, den, entry in live:
        factor = common // (den * entry.den)
        p, q = p * factor, q * factor
        for key, (re, im) in entry.terms.items():
            re, im = re * p - im * q, re * q + im * p
            prev = get(key)
            acc[key] = (re, im) if prev is None else (prev[0] + re, prev[1] + im)
    return _finish(sig, acc, common, prec)


def _invert_scalar_matrix(grid):
    """Exact inverse of a square grid of scalars, each ``(re, im, den)`` for
    ``(re + im*i) / den``.

    Writes the grid, each entry in lowest terms, as N / den with
    Gaussian-integer N and one den, and runs Bareiss's
    fraction-free Gauss-Jordan elimination on [N | 1]: step k replaces
    every entry x of a row r != k by (p*x - f*y) / p_prev, where p is the
    pivot, f = N[r][k], y the pivot row's entry and p_prev the previous
    pivot, and the division is exact (Sylvester's identity).  The left
    block ends as d * 1 with d = +-det N, so the inverse is den * right / d,
    each entry returned as ``(re, im, den)`` in lowest terms.  Raises
    ZeroDivisionError when the grid is singular.
    """
    size = len(grid)
    grid = [[_lowest(*x) for x in row] for row in grid]
    den = lcm(*(d for row in grid for _, _, d in row))
    work = [[(re * (den // d), im * (den // d)) for re, im, d in row]
            + [(int(i == j), 0) for j in range(size)]
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
    return [[_lowest(den * (xr * dr + xi * di), den * (xi * dr - xr * di), norm)
             for xr, xi in line[size:]]
            for line in work]
