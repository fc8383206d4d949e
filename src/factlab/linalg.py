"""Exact linear algebra over F_p and QQ: the one module that knows how
field arithmetic works.

Matrices come in as arrays, int64 over F_p and dtype object holding
Fractions over QQ (the arrays lincond.evaluation_matrix and PointSet.rows
hold), or as lists of lists, which over F_p are reduced by int(x) % p so
that integers past int64 stay exact.  Answers go out as arrays of the same
two kinds: every RREF, kernel, dual basis and product.  Over F_p every
elimination is rref_mod_p (or echelon_mod_p, its first half), one numpy
elimination of an int64 stack of matrices; over QQ it is RowSpace, one
matrix at a time, written into an object stack.  rref_subsets is the entry
point of both: many small eliminations as one stack.  kernel reads the
kernels of a whole stack of RREFs on both fields (only the negation
differs, mod p or not); nullspace runs on one matrix, duals on one matrix
beside its identity, and rank_and_dependents on the transpose.  matmul is
the one product in the field, and ratio_ids the one key of a ratio b/a.
Over F_p the product is matmul_mod_p, and matmul_zeros_mod_p its zero
mask, so only they know how a product stays exact: BLAS in the narrowest
exact float word, reduced once (the delayed reduction of Dumas, Giorgi and
Pernet, ACM TOMS 35(3), 2008), an int64 sum past it.  The word rule lives
here alone: residue_word gives the int32 or int64 word of residues mod p,
and product_word the float32, float64 or int64 word of a sum of K products
of residues.  inverse_mod_p is the batched inverse mod p, and dot the scalar
product poly.eval_poly takes.  bareiss_rank is an independent
fraction-free elimination over QQ, kept as the oracle tests compare
against.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from math import gcd
from operator import mul
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .fields import FieldSpec, Scalar

_EXACT = 2**53  # float64 holds every integer below this exactly
# float32 holds every integer below 2^24; its sums stay below half that, so
# that the rint zero test of matmul_zeros_mod_p is sound at p = 3 (see there)
_EXACT32 = 2**23
INT64_LIMIT = 2**63  # int64 holds every integer below this
# multiply-adds per float product: BLAS splits a larger product across
# threads, which saved nothing and cost CPU time (on a 2-vCPU machine one
# 10404 x 10 x 10 product took 0.12-3.7 ms at twice its wall time in CPU,
# four blocks of 2601 rows 0.12-0.14 ms on one thread)
_PRODUCT = 1 << 18


def dot(u: Sequence, v: Sequence, field: FieldSpec) -> Scalar:
    """Sum of u_i * v_i: reduced once mod p over F_p, exact over QQ."""
    if field.p:
        return sum(map(mul, u, v)) % field.p
    return sum(map(mul, u, v), Fraction(0))


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


def residue_word(p: int) -> Tuple[type, int]:
    """The narrowest exact word for residues mod p, and its limit: int32
    while p^2 < 2^31, so that a residue times a residue plus a residue,
    (p-1)^2 + (p-1) < p^2, stays inside it; int64 (limit 2^63) above, where
    p < 2^31, the FieldSpec bound, gives the same room."""
    return (np.int32, 2**31) if p * p < 2**31 else (np.int64, INT64_LIMIT)


def product_word(k: int, p: int) -> type:
    """The narrowest word in which every sum of k products of residues mod p
    is exact: float32 while k (p-1)^2 < _EXACT32, float64 while k (p-1)^2 <
    _EXACT, and int64 past that, summed term by term (matmul_mod_p)."""
    if k * (p - 1) ** 2 >= _EXACT:
        return np.int64
    return np.float32 if k * (p - 1) ** 2 < _EXACT32 else np.float64


def product_rows(k: int, n: int) -> int:
    """Rows per block of a product of K terms into n columns: at most
    _PRODUCT multiply-adds, and at least one row."""
    return max(1, _PRODUCT // max(1, k * n))


def _float_blocks(a: np.ndarray, b: np.ndarray, p: int):
    """(lo, a[lo:lo + step] @ b) in product_word(K, p), product_rows(K, n)
    rows at a time, so that each product is exact; None where that word is
    int64.  An input already in the word is not copied."""
    (m, k), n = a.shape, b.shape[1]
    word = product_word(k, p)
    if word is np.int64:
        return None
    b, step = b.astype(word, copy=False), product_rows(k, n)
    return ((lo, a[lo:lo + step].astype(word, copy=False) @ b) for lo in range(0, m, step))


def matmul_mod_p(a: np.ndarray, b: np.ndarray, p: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """a @ b mod p as (m, n) int64 residues, for a (m, K) and b (K, n) with
    integer entries in [0, p), of any integer or float dtype: written into
    out, an (m, n) int64 array (a view of the caller's rows), when it is
    given.  Past the float64 bound, a sum of K int64 terms reduced after
    each (p < 2**31 keeps it in int64)."""
    if out is None:
        out = np.empty((len(a), b.shape[1]), dtype=np.int64)
    blocks = _float_blocks(a, b, p)
    if blocks is None:
        a, b = a.astype(np.int64, copy=False), b.astype(np.int64, copy=False)
        out[...] = 0
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
    matmul_mod_p takes them, with no residues formed: an exact sum x in the
    product word is a multiple q * p exactly when x == rint(x * (1/p)) * p.
    If x = q * p, rounding 1/p and then the product each err by a relative u
    (2^-24 in float32, 2^-53 in float64), so x * (1/p) lies within about
    2u * q = 2u * x / p of q.  In float32, x < 2^23 keeps that below 1/p <=
    1/3 (at 2^24, float32's own limit, it could reach 2/p = 2/3 at p = 3,
    past 0.5); in float64, x < 2^53 keeps it below 2/p, under 0.5 for p >=
    5, and at p = 3 a float64 sum stays within 0.5 for fewer than 2^49
    terms.  So rint gives q, and q * p = x exactly.  Otherwise rint(...) * p
    is another multiple of p, exact and not x.  (At p = 2, 1/p is exact.)"""
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


def _table(matrix, field: FieldSpec, ncols: Optional[int] = None) -> np.ndarray:
    """matrix as an (m, n) array: over F_p an int64 array as it is (rref_mod_p
    reduces it), anything else reduced entry by entry by int(x) % p; over QQ
    dtype object.  A matrix of no rows is ncols wide."""
    if field.p and not (isinstance(matrix, np.ndarray) and matrix.dtype == np.int64):
        matrix = [[int(x) % field.p for x in row] for row in matrix]
    table = np.asarray(matrix, dtype=np.int64 if field.p else object)
    return table if table.ndim == 2 else table.reshape(len(table), ncols or 0)


def rref_subsets(rows: Sequence[Sequence], subsets, field: FieldSpec) -> Tuple[np.ndarray, np.ndarray]:
    """The RREF of [rows[i] for i in s] for each s in subsets, all of one
    size k, as rref_mod_p returns them: a (len(subsets), k, n) stack and each
    row's pivot column (n for a zero row)."""
    size = len(subsets[0]) if len(subsets) else 0
    return _rref_stack(_table(rows, field)[np.array(subsets, dtype=np.intp).reshape(len(subsets), size)],
                       field)


def _rref_stack(stack: np.ndarray, field: FieldSpec) -> Tuple[np.ndarray, np.ndarray]:
    """rref_mod_p over F_p; over QQ one RowSpace per matrix of the object
    stack, each RREF's nonzero rows first, as rref_mod_p orders them."""
    if field.p:
        return rref_mod_p(stack, field.p)
    nmat, _, ncols = stack.shape
    R = np.full(stack.shape, field.zero, dtype=object)
    piv = np.full(stack.shape[:2], ncols, dtype=np.int64)
    for k in range(nmat):
        space = RowSpace(ncols, field)
        for row in stack[k]:
            space.add(row)
        rows = space.rows
        # clear each pivot column upward, last pivot first: the rows below row i
        # are already reduced, so one pass against them reduces row i
        for i in range(len(rows) - 2, -1, -1):
            rows[i] = space._reduce(rows[i], i + 1)
        for i, row in enumerate(rows):
            R[k, i] = row
        piv[k, :len(rows)] = space.pivots
    return R, piv


def rank_and_dependents(rows: Sequence[Sequence], ncols: int, field: FieldSpec) -> Tuple[int, List[int]]:
    """The rank of rows, and the indices of the rows that lie in the span of
    the rows before them: row i is one exactly when column i of the
    transpose is no pivot column.  Over F_p the pivots come from one
    echelon_mod_p of the transpose, made C-contiguous (its row updates run
    about 25% faster); over QQ from a RowSpace of the transpose's rows."""
    table = _table(rows, field, ncols).T
    if field.p:
        pivots = echelon_mod_p(np.ascontiguousarray(table)[None], field.p)[1][0]
    else:
        space = RowSpace(len(rows), field)
        for row in table:
            space.add(row)
        pivots = space.pivots
    pivot = np.zeros(len(rows) + 1, dtype=bool)  # a zero row's pivot is len(rows)
    pivot[pivots] = True
    deps = np.flatnonzero(~pivot[:-1]).tolist()
    return len(rows) - len(deps), deps


def rank(matrix: Sequence[Sequence], field: FieldSpec) -> int:
    return len(rref(matrix, field)[1])


def rref(matrix: Sequence[Sequence], field: FieldSpec) -> Tuple[np.ndarray, List[int]]:
    """Reduced row echelon form as an (m, n) array, the rank nonzero rows
    (pivots 1) and then m - rank zero rows, and the pivot columns."""
    R, piv = _rref_stack(_table(matrix, field)[None], field)
    return R[0], piv[0, piv[0] < R.shape[2]].tolist()


def kernel(R: np.ndarray, piv: np.ndarray, rank: int, field: FieldSpec) -> np.ndarray:
    """The kernels of a (B, m, n) stack of RREFs, each of this rank, with
    pivot columns piv as rref_subsets returns them: a (B, n - rank, n)
    stack, one vector per free column of each matrix, 1 there and minus the
    column's RREF entries at the pivot columns."""
    (nmat, _, ncols), piv = R.shape, piv[:, :rank]
    free = np.nonzero(~(np.arange(ncols) == piv[:, :, None]).any(axis=1))[1].reshape(nmat, ncols - rank)
    out = np.full((nmat, ncols - rank, ncols), field.zero, dtype=R.dtype)
    mat, vec = np.arange(nmat)[:, None, None], np.arange(ncols - rank)[:, None]
    out[mat, vec, free[:, :, None]] = field.one
    entries = R[mat, np.arange(rank), free[:, :, None]]  # entries[b, j, i] = R[b, i, free[b, j]]
    out[mat, vec, piv[:, None, :]] = -entries % field.p if field.p else -entries
    return out


def nullspace(matrix: Sequence[Sequence], ncols: int, field: FieldSpec) -> np.ndarray:
    """Basis of the right nullspace, one row per free column of the RREF."""
    R, piv = _rref_stack(_table(matrix, field, ncols)[None], field)
    return kernel(R, piv, int((piv < ncols).sum()), field)[0]


def duals(matrix, field: FieldSpec) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Q, X, Y) read off the one RREF [R | E] of [M | I_N], for M an N x B
    matrix, so that E @ M = R: Q the pivot columns of M (r = len(Q) is its
    rank), X = E[:r] with X @ M[:, Q] = I_r, and Y = E[r:], the row
    relations in RREF, with Y @ M = 0.  Row i of M lies in the span of the
    others exactly when column i of Y is nonzero; otherwise M[:, Q] @ X
    maps e_i to itself, as e_i is orthogonal to every relation.  The
    identity takes M's dtype, so both fields run the same stack."""
    table = _table(matrix, field)
    size, ncols = table.shape
    R, piv = _rref_stack(np.concatenate([table, np.eye(size, dtype=table.dtype)], axis=1)[None], field)
    rank = int((piv[0] < ncols).sum())
    return piv[0, :rank], R[0, :rank, ncols:], R[0, rank:, ncols:]


def matmul(a, b, field: FieldSpec) -> np.ndarray:
    """a @ b in the field, for two matrices as linalg reads them: over F_p
    matmul_mod_p of their residues, over QQ the exact object product."""
    a, b = _table(a, field), _table(b, field)
    if field.p:
        return matmul_mod_p(a % field.p, b % field.p, field.p)
    return a @ b


def ratio_ids(a: np.ndarray, b: np.ndarray, field: FieldSpec) -> np.ndarray:
    """An int64 id of the ratio b/a at each entry of two arrays of one shape
    (int64 residues over F_p, Fractions over QQ), equal exactly where the
    ratios are: b * a^-1 mod p over F_p, and over QQ the order in which each
    distinct Fraction b/a first appears; -1 where a = 0."""
    if field.p:
        return np.where(a != 0, b * inverse_mod_p(a, field.p) % field.p, -1)
    ids: dict = {}
    return np.array([ids.setdefault(y / x, len(ids)) if x else -1 for x, y in zip(a.flat, b.flat)],
                    dtype=np.int64).reshape(a.shape)


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
