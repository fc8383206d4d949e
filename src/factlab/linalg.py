"""Exact linear algebra over F_p and QQ: one incremental elimination, one
dot product.

Matrices are lists of lists of field elements.  RowSpace is the package's
only row reduction: rows are fed in order, each either extends the echelon
basis or is reported dependent, which is exactly what defect reports and
base-point scans need.  rref, nullspace, solve and rank all read it.
dot and combine are the package's dot product and linear combination of
vectors.  bareiss_rank is an independent fraction-free elimination over
QQ, kept as the oracle tests compare against.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from math import gcd
from operator import mul
from typing import List, Optional, Sequence, Tuple

from .fields import FieldSpec, Scalar


def dot(u: Sequence, v: Sequence, field: FieldSpec) -> Scalar:
    """Sum of u_i * v_i: reduced once mod p over F_p, exact over QQ."""
    if field.p:
        return sum(map(mul, u, v)) % field.p
    return sum(map(mul, u, v), Fraction(0))


def combine(coeffs: Sequence, vectors: Sequence[Sequence], field: FieldSpec) -> List[Scalar]:
    """The entrywise sum of coeffs[k] * vectors[k]."""
    return [dot(coeffs, column, field) for column in zip(*vectors)]


class RowSpace:
    """Incremental echelon basis over a field, pivots scaled to 1.

    Each input row is reduced on entry: int(x) % p over F_p, Fraction(x)
    over QQ.  Basis rows are kept sorted by pivot column.
    """

    def __init__(self, ncols: int, field: FieldSpec):
        self.ncols = ncols
        self.field = field
        self.pivots: List[int] = []
        self.rows: List[List] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, row: Sequence, first: int = 0) -> List:
        """A new list: row reduced against the basis rows from index first on.

        The two fields keep separate loops: a per-entry test of the field
        would slow the mod-p loop, which every workload runs.
        """
        ncols = self.ncols
        basis = zip(self.pivots[first:], self.rows[first:])
        p = self.field.p
        if p:
            row = [int(x) % p for x in row]
            for piv, brow in basis:
                c = row[piv]
                if c:
                    for j in range(piv, ncols):
                        row[j] = (row[j] - c * brow[j]) % p
            return row
        row = [Fraction(x) for x in row]
        for piv, brow in basis:
            c = row[piv]
            if c:
                for j in range(piv, ncols):
                    row[j] -= c * brow[j]
        return row

    def contains(self, row: Sequence) -> bool:
        return not any(self._reduce(row))

    def add(self, row: Sequence) -> bool:
        """Insert a row; returns True if it increased the rank."""
        red = self._reduce(row)
        piv = next((j for j, x in enumerate(red) if x), None)
        if piv is None:
            return False
        inv = self.field.inv(red[piv])
        p = self.field.p
        red = [x * inv % p for x in red] if p else [x * inv for x in red]
        idx = bisect(self.pivots, piv)
        self.pivots.insert(idx, piv)
        self.rows.insert(idx, red)
        return True


def rank_and_dependents(rows: Sequence[Sequence], ncols: int, field: FieldSpec) -> Tuple[int, List[int]]:
    """Feed rows in order; dependents[i] are indices whose row lies in the
    span of the preceding ones."""
    space = RowSpace(ncols, field)
    dependents = []
    for i, row in enumerate(rows):
        if not space.add(row):
            dependents.append(i)
    return space.rank, dependents


def rank(matrix: Sequence[Sequence], field: FieldSpec) -> int:
    if not matrix:
        return 0
    r, _ = rank_and_dependents(matrix, len(matrix[0]), field)
    return r


def rref(matrix: Sequence[Sequence], field: FieldSpec) -> Tuple[List[List[Scalar]], List[int]]:
    """Reduced row echelon form: the rank nonzero rows (pivots 1), then
    len(matrix) - rank zero rows, and the pivot columns."""
    if not matrix:
        return [], []
    ncols = len(matrix[0])
    space = RowSpace(ncols, field)
    for row in matrix:
        space.add(row)
    rows = space.rows
    # clear each pivot column upward, last pivot first: the rows below row k
    # are already reduced, so one pass against them reduces row k
    for k in range(len(rows) - 2, -1, -1):
        rows[k] = space._reduce(rows[k], k + 1)
    rows += [[field.zero] * ncols for _ in range(len(matrix) - len(rows))]
    return rows, space.pivots


def nullspace(matrix: Sequence[Sequence], ncols: int, field: FieldSpec) -> List[List[Scalar]]:
    """Basis of the right nullspace; deterministic (one vector per free column)."""
    if not matrix:
        return [[field.one if j == i else field.zero for j in range(ncols)] for i in range(ncols)]
    R, pivots = rref(matrix, field)
    pivset = set(pivots)
    free = [j for j in range(ncols) if j not in pivset]
    basis = []
    for fcol in free:
        v = [field.zero] * ncols
        v[fcol] = field.one
        for i, pcol in enumerate(pivots):
            v[pcol] = field.neg(R[i][fcol])
        basis.append(v)
    return basis


def solve(matrix: Sequence[Sequence], rhs: Sequence, field: FieldSpec) -> Optional[List[Scalar]]:
    """One particular solution of matrix @ x = rhs, or None (free vars = 0)."""
    if not matrix:
        return None if any(rhs) else []
    ncols = len(matrix[0])
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    R, pivots = rref(aug, field)
    if ncols in pivots:
        return None
    x = [field.zero] * ncols
    for i, pcol in enumerate(pivots):
        x[pcol] = R[i][ncols]
    return x


def bareiss_rank(matrix: Sequence[Sequence]) -> int:
    """Classical fraction-free Bareiss elimination over the integers/rationals.

    Independent of RowSpace; used as a cross-check oracle in tests.
    """
    rows = []
    for row in matrix:
        den = 1
        for x in row:
            fx = Fraction(x)
            den = den * fx.denominator // gcd(den, fx.denominator)
        rows.append([int(Fraction(x) * den) for x in row])
    if not rows:
        return 0
    m, n = len(rows), len(rows[0])
    prev = 1
    r = 0
    for col in range(n):
        if r == m:
            break
        sel = next((i for i in range(r, m) if rows[i][col]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        for i in range(r + 1, m):
            for j in range(col + 1, n):
                rows[i][j] = (rows[r][col] * rows[i][j] - rows[i][col] * rows[r][j]) // prev
            rows[i][col] = 0
        prev = rows[r][col]
        r += 1
    return r
