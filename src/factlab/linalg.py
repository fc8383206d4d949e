"""Exact linear algebra over F_p and QQ: one elimination per field, one
dot product, one matrix product mod p.

Matrices are lists of lists of field elements.  Every rank, RREF,
nullspace, solve and dependents list runs on rref_mod_p over F_p, one
numpy elimination of an int64 stack of matrices (rref_subsets passes many
small eliminations to it as one stack), and on RowSpace over QQ.  dot and
combine are the package's dot product and linear combination of vectors;
inverse_mod_p and kernel_mod_p are its batched inverse and kernel mod p.
matmul_mod_p and matmul_zeros_mod_p are its one product mod p, so only
they know how a product stays exact: float64 BLAS reduced once while the K
terms of a sum keep K * (p-1)^2 < 2^53 (the delayed reduction of Dumas,
Giorgi and Pernet, ACM TOMS 35(3), 2008), an int64 sum past it.
bareiss_rank is an independent fraction-free elimination over QQ, kept as
the oracle tests compare against.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from math import gcd
from operator import mul
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .fields import FieldSpec, Scalar

_EXACT = 2**53  # float64 holds every integer below this exactly
# multiply-adds per float64 product: BLAS splits a larger product across
# threads, which saved nothing and cost CPU time (on a 2-vCPU machine one
# 10404 x 10 x 10 product took 0.12-3.7 ms at twice its wall time in CPU,
# four blocks of 2601 rows 0.12-0.14 ms on one thread)
_PRODUCT = 1 << 18


def dot(u: Sequence, v: Sequence, field: FieldSpec) -> Scalar:
    """Sum of u_i * v_i: reduced once mod p over F_p, exact over QQ."""
    if field.p:
        return sum(map(mul, u, v)) % field.p
    return sum(map(mul, u, v), Fraction(0))


def combine(coeffs: Sequence, vectors: Sequence[Sequence], field: FieldSpec) -> List[Scalar]:
    """The entrywise sum of coeffs[k] * vectors[k]."""
    return [dot(coeffs, column, field) for column in zip(*vectors)]


class RowSpace:
    """Incremental echelon basis over QQ, pivots scaled to 1, rows reduced on
    entry by Fraction(x) and kept sorted by pivot column.  A prime field is
    refused: over F_p every elimination runs on rref_mod_p."""

    def __init__(self, ncols: int, field: FieldSpec):
        if field.p:
            raise ValueError("RowSpace works over QQ; use rref_mod_p over F_p")
        self.ncols = ncols
        self.pivots: List[int] = []
        self.rows: List[List[Fraction]] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, row: Sequence, first: int = 0) -> List[Fraction]:
        """A new list: row reduced against the basis rows from index first on."""
        ncols = self.ncols
        row = [Fraction(x) for x in row]
        for piv, brow in zip(self.pivots[first:], self.rows[first:]):
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
        inv = 1 / red[piv]
        idx = bisect(self.pivots, piv)
        self.pivots.insert(idx, piv)
        self.rows.insert(idx, [x * inv for x in red])
        return True


def echelon_mod_p(stack: np.ndarray, p: int) -> Tuple[np.ndarray, np.ndarray]:
    """rref_mod_p before it scales and sorts the rows: every matrix of a (B,
    m, n) int64 stack reduced mod p at once, and each row's pivot column (n
    for a zero row); a matrix's pivot count is its rank.  Each column's
    pivot is the first row not yet a pivot row that is nonzero there; every
    other row loses that column by cross-multiplication (row * pivot -
    pivot_row * entry), and p < 2**31 keeps each product inside int64."""
    a = stack % p
    nmat, _, ncols = a.shape
    piv = np.full(a.shape[:2], ncols, dtype=np.int64)
    every = np.arange(nmat)
    for col in range(ncols):
        free = piv == ncols
        if not free.any():
            break
        entry = a[:, :, col]
        candidate = (entry != 0) & free
        found = candidate.any(axis=1)
        if not found.any():
            continue
        r = candidate.argmax(axis=1)
        pivot_row = a[every, r]
        factor = entry * found[:, None]
        factor[every, r] = 0
        piv[every[found], r[found]] = col
        # without a pivot the matrix keeps its rows: scale 1 and factor 0
        a *= np.where(found, pivot_row[:, col], 1)[:, None, None]
        a -= factor[:, :, None] * pivot_row[:, None, :]
        a %= p
    return a, piv


def rref_mod_p(stack: np.ndarray, p: int) -> Tuple[np.ndarray, np.ndarray]:
    """The package's one elimination over F_p: the reduced row echelon form
    of each matrix of a (B, m, n) int64 stack, the nonzero rows with pivots
    1 in pivot order, then the zero rows, and each row's pivot column (n for
    a zero row).  It is echelon_mod_p, each row scaled once by the inverse
    of its pivot, and the rows sorted by pivot."""
    a, piv = echelon_mod_p(stack, p)
    # a zero row's lead is 0: whatever its "inverse", the row stays zero
    a *= inverse_mod_p((a * (np.arange(a.shape[2]) == piv[:, :, None])).sum(axis=2, keepdims=True), p)
    a %= p
    order = np.argsort(piv, axis=1, kind="stable")
    return np.take_along_axis(a, order[:, :, None], axis=1), np.take_along_axis(piv, order, axis=1)


def inverse_mod_p(a: np.ndarray, p: int) -> np.ndarray:
    """a ** (p - 2) mod p for every entry of an int64 array with entries in
    [0, p), by squaring: the inverse of each nonzero entry (a zero entry
    gives 0, or 1 when p = 2).  p < 2**31 keeps each product inside int64."""
    inv, e = np.ones_like(a), p - 2
    while e:
        if e & 1:
            inv = inv * a % p
        a = a * a % p
        e >>= 1
    return inv


def _float_blocks(a: np.ndarray, b: np.ndarray, p: int):
    """(lo, a[lo:lo + step] @ b) in float64, step rows of at most _PRODUCT
    multiply-adds each, while every sum of K terms below p**2 stays below
    _EXACT, so that each product is exact; None past that bound."""
    (m, k), n = a.shape, b.shape[1]
    if k * (p - 1) ** 2 >= _EXACT:
        return None
    b, step = b.astype(np.float64, copy=False), max(1, _PRODUCT // max(1, k * n))
    return ((lo, a[lo:lo + step].astype(np.float64, copy=False) @ b) for lo in range(0, m, step))


def matmul_mod_p(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p as (m, n) int64 residues, for a (m, K) and b (K, n) with
    integer entries in [0, p), int64 or float64.  Past the float64 bound, a
    sum of K int64 terms reduced after each (p < 2**31 keeps it in int64)."""
    out, blocks = np.zeros((len(a), b.shape[1]), dtype=np.int64), _float_blocks(a, b, p)
    if blocks is None:
        a, b = a.astype(np.int64), b.astype(np.int64)
        for k in range(a.shape[1]):
            out += a[:, k, None] * b[k]
            out %= p
        return out
    for lo, x in blocks:
        out[lo:lo + len(x)] = x
    out %= p
    return out


def matmul_zeros_mod_p(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """The mask of the entries of a @ b that are 0 mod p, for a and b as
    matmul_mod_p takes them, with no residues formed: an exact float64 x is
    a multiple q * p exactly when x == rint(x * (1/p)) * p, as x * (1/p)
    then lies within 0.5 of q, and otherwise the right side is one."""
    blocks = _float_blocks(a, b, p)
    if blocks is None:
        return matmul_mod_p(a, b, p) == 0
    out = np.empty((len(a), b.shape[1]), dtype=bool)
    for lo, x in blocks:
        y = x * (1 / p)
        np.rint(y, out=y)
        y *= p
        np.equal(x, y, out=out[lo:lo + len(x)])
    return out


def rref_subsets(rows: Sequence[Sequence], subsets: Sequence, field: FieldSpec) -> Iterator[Tuple]:
    """rref([rows[i] for i in s]) for each s in subsets, all of one size.
    Over F_p they are one rref_mod_p stack, indexed from one array of the
    rows (reduced by int(x) % p), turned into lists one at a time."""
    if not field.p or not len(subsets):
        yield from (rref([rows[i] for i in s], field) for s in subsets)
        return
    table = np.array([[int(x) % field.p for x in row] for row in rows], dtype=np.int64)
    R, piv = rref_mod_p(table[np.array(subsets, dtype=np.intp)], field.p)
    for Rs, ps in zip(R, piv):
        yield Rs.tolist(), ps[ps < R.shape[2]].tolist()


def rank_and_dependents(rows: Sequence[Sequence], ncols: int, field: FieldSpec) -> Tuple[int, List[int]]:
    """The rank of rows, and the indices of the rows that lie in the span of
    the rows before them: row i is one exactly when column i of the
    transpose is not a pivot column."""
    _, pivots = rref([[row[j] for row in rows] for j in range(ncols)], field)
    return len(pivots), sorted(set(range(len(rows))) - set(pivots))


def rank(matrix: Sequence[Sequence], field: FieldSpec) -> int:
    return len(rref(matrix, field)[1])


def rref(matrix: Sequence[Sequence], field: FieldSpec) -> Tuple[List[List[Scalar]], List[int]]:
    """Reduced row echelon form: the rank nonzero rows (pivots 1), then
    len(matrix) - rank zero rows, and the pivot columns.  Over F_p it is
    rref_mod_p on a stack of one matrix; over QQ, RowSpace."""
    if not matrix:
        return [], []
    if field.p:
        return next(rref_subsets(matrix, [range(len(matrix))], field))
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


def kernel_of_rref(R, pivots: Sequence[int], ncols: int, field: FieldSpec) -> List[List[Scalar]]:
    """Basis of the right nullspace of a matrix whose reduced row echelon
    form is R with these pivot columns: one vector per free column."""
    basis = []
    for fcol in sorted(set(range(ncols)) - set(pivots)):
        v = [field.zero] * ncols
        v[fcol] = field.one
        for i, pcol in enumerate(pivots):
            v[pcol] = field.neg(R[i][fcol])
        basis.append(v)
    return basis


def kernel_mod_p(R: np.ndarray, piv: np.ndarray, rank: int, p: int) -> np.ndarray:
    """kernel_of_rref on a (B, m, n) stack of RREFs mod p, each of this rank,
    with pivot columns piv as rref_mod_p returns them: a (B, n - rank, n)
    int64 array, one kernel vector per free column of each matrix."""
    (nmat, _, ncols), piv = R.shape, piv[:, :rank]
    free = np.nonzero(~(np.arange(ncols) == piv[:, :, None]).any(axis=1))[1].reshape(nmat, ncols - rank)
    kernel = np.zeros((nmat, ncols - rank, ncols), dtype=np.int64)
    np.put_along_axis(kernel, free[:, :, None], 1, axis=2)
    entries = np.take_along_axis(R[:, :rank], free[:, None, :], axis=2).transpose(0, 2, 1)
    np.put_along_axis(kernel, np.broadcast_to(piv[:, None, :], entries.shape), -entries % p, axis=2)
    return kernel


def nullspace(matrix: Sequence[Sequence], ncols: int, field: FieldSpec) -> List[List[Scalar]]:
    """Basis of the right nullspace; deterministic (one vector per free column)."""
    return kernel_of_rref(*rref(matrix, field), ncols, field)


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

    Independent of RowSpace and rref_mod_p; used as a cross-check oracle in tests.
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
