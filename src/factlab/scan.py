"""Vectorized exhaustive scans over P^n(F_p).

projective_zeros is the scan primitive.  It visits P^n(F_p) in
enumerate_projective's order (pivot ascending, then lex on the free
coordinates) without building a coordinate table: in the chart with pivot
coordinate 1 and earlier coordinates 0, the k free coordinates run over a
full p^k grid.  The first form's chart table T (its coefficients in the
first free coordinate t, tabulated over the other k - 1 by nested Horner)
gives its zeros on the whole grid as the zero mask of V @ T mod p
(linalg.matmul_zeros_mod_p), where V[t, j] = t^j.  A chart on which some
form is a nonzero constant -- one term c * x_pivot^e left after
x_0..x_(pivot-1) = 0, with p not dividing c, as each partial of a diagonal
form is on its own chart -- holds no zero, and is skipped before any chart
table or grid is built; the last chart's one point (0:...:0:1) goes by each
form's x_n^deg coefficient.  The first form's zeros are kept as flat grid
indices, and every further form filters them in turn on its own chart
table, by Horner in the first free coordinate at each surviving index.
Rows are built only for the points that survive every form, in order.
Every chart table holds its residues in linalg.residue_word(p), int32 while
p^2 < 2^31, and the grid products run in linalg.product_word, float32 while
D (p-1)^2 < 2^23: as D <= p, at every prime up to 199, whatever the degree,
the scan's largest arrays take half the bytes of int64 and float64.
projective_zeros and coords_table refuse, before any work, a P^n(F_p) of
more than projgeom.SCAN_CAP points (TooLarge); the cap is a constant, not a
setting.

monomial_columns evaluates monomials on explicit int64 rows, one column mod
p each, with exponents reduced below p.  eval_forms evaluates several forms
at once as the product mod p of those columns with the forms' coefficients
(linalg.matmul_mod_p), and eval_on_points is its one-form case;
lincond.evaluation_matrix stacks a basis's columns into every evaluation
matrix over F_p.  coords_table, eval_on_points and common_zeros are the
term-by-term path on explicit rows: the full table and common_zeros serve
tests as an oracle (families also draws plane nodes from the table's rows),
and callers that need a further condition (a Jacobian rank, smoothness)
filter the returned rows themselves with eval_forms, as sing_locus's node
checks evaluate every gradient and second partial at the hits.  A scan
takes forms only.

horner_on_rows has one job, the re-check: recursive Horner in the first
variable on explicit rows, the batched form of poly.eval_poly_horner.  It
shares no code with the chart kernel or with monomial_columns, so sing_locus
re-checks every scan hit, its forms and its Jacobian, along a path
independent of the one that found it.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .linalg import matmul_mod_p, matmul_zeros_mod_p, product_rows, product_word, residue_word
from .poly import HomoPoly, Monomial
from .projgeom import check_scan_cap

_CHUNK = 1 << 15  # grid points per block of the grid pass, column entries of eval_forms
_STEP = 4096  # surviving grid indices per Horner step of a further form


def coords_table(n: int, p: int) -> np.ndarray:
    """(N, n+1) int64 table of canonical representatives of P^n(F_p)."""
    check_scan_cap(n, p)
    blocks = []
    for pivot in range(n + 1):
        free = n - pivot
        count = p**free
        block = np.zeros((count, n + 1), dtype=np.int64)
        block[:, pivot] = 1
        idx = np.arange(count, dtype=np.int64)
        for k in range(free):
            div = p ** (free - 1 - k)
            block[:, pivot + 1 + k] = (idx // div) % p
        blocks.append(block)
    return np.concatenate(blocks, axis=0)


def monomial_columns(monos: Sequence[Monomial], pts: np.ndarray, p: int) -> Iterator[np.ndarray]:
    """Each monomial of monos at every row of pts (int64 entries in [0, p)),
    as one int64 column mod p per monomial, in order.  On F_p, x^e =
    x^(1 + (e-1) mod (p-1)) for e >= 1, so each exponent is first reduced
    below p.  Each power x_v^e that a monomial needs is built once, from the
    last power of x_v before it; a column may be a stored power or a column
    of pts: read it, do not write."""
    def reduced(e):
        return 1 + (e - 1) % (p - 1) if e else 0

    powers = {}
    for var in range(pts.shape[1]):
        x = acc = pts[:, var]
        k = 1
        for e in sorted({reduced(m[var]) for m in monos} - {0}):
            for _ in range(e - k):
                acc = acc * x % p
            powers[var, e], k = acc, e
    for mono in monos:
        col = None
        for var, e in enumerate(mono):
            if e:
                col = powers[var, reduced(e)] if col is None else col * powers[var, reduced(e)] % p
        yield np.ones(pts.shape[0], dtype=np.int64) if col is None else col


def eval_forms(forms: Sequence[HomoPoly], pts: np.ndarray, p: int) -> np.ndarray:
    """(len(pts), len(forms)) int64 array: every form at every row of pts
    (int64 entries in [0, p)), mod p.

    The monomials of all the forms become columns (monomial_columns),
    written straight into a block in linalg's product word, and multiplied
    by the (monomials, forms) matrix of coefficients mod p, held in the same
    word, with linalg.matmul_mod_p, straight into the output's rows.  A
    block of rows holds at most _CHUNK column entries and no more rows than
    one product block (linalg.product_rows), so matmul_mod_p splits none.
    """
    monos = sorted(set().union(*(f.terms for f in forms)))
    word = product_word(len(monos), p)
    coeffs = np.array([[int(f.terms.get(m, 0)) % p for f in forms] for m in monos],
                      dtype=word).reshape(len(monos), len(forms))
    out = np.empty((pts.shape[0], len(forms)), dtype=np.int64)
    step = min(max(1, _CHUNK // max(1, len(monos))), product_rows(len(monos), len(forms)))
    for lo in range(0, pts.shape[0], step):
        block = pts[lo:lo + step]
        cols = np.empty((len(monos), block.shape[0]), dtype=word)
        for row, col in zip(cols, monomial_columns(monos, block, p)):
            row[:] = col
        matmul_mod_p(cols.T, coeffs, p, out=out[lo:lo + step])
    return out


def eval_on_points(f: HomoPoly, pts: np.ndarray, p: int) -> np.ndarray:
    """Exact evaluation of f at every row of pts, mod p: eval_forms on f
    alone."""
    return eval_forms([f], pts, p)[:, 0]


def horner_on_rows(f: HomoPoly, rows: np.ndarray, p: int) -> np.ndarray:
    """f at every row of rows (int64 entries in [0, p)), mod p.

    Recursive Horner in the first variable, as poly.eval_poly_horner, with
    the row columns as the variables and a reduction mod p at every step
    (p < 2**31, so acc * x + c stays inside int64).  Exponents are reduced
    below p first (Fermat: x^e = x^(1 + (e-1) mod (p-1)) for e >= 1 on
    F_p), so a huge exponent costs no more Horner steps than p - 1.
    """
    if not f.terms or not rows.shape[0]:
        return np.zeros(rows.shape[0], dtype=np.int64)
    terms = {}
    for m, c in f.terms.items():
        m = tuple(1 + (e - 1) % (p - 1) if e else 0 for e in m)
        terms[m] = (terms.get(m, 0) + int(c)) % p
    return _horner_rows(terms, rows, 0, p)


def _horner_rows(terms, rows, var, p):
    # below the last variable only the coefficient is left, as a Python int
    if var == rows.shape[1]:
        return sum(terms.values()) % p
    by_exp = {}
    for m, c in terms.items():
        by_exp.setdefault(m[var], {})[m] = c
    x = rows[:, var]
    acc = np.zeros(rows.shape[0], dtype=np.int64)
    for e in range(max(by_exp), -1, -1):
        acc = acc * x
        if e in by_exp:
            acc += _horner_rows(by_exp[e], rows, var + 1, p)
        acc %= p
    return acc


def common_zeros(polys: Sequence[HomoPoly], pts: np.ndarray, p: int) -> np.ndarray:
    """Rows of pts where every poly vanishes.

    Polys are applied as successive filters so later ones only evaluate on
    survivors.  Returns the surviving rows in their original order.
    """
    alive = pts
    for f in polys:
        if alive.shape[0] == 0:
            return alive
        alive = alive[eval_on_points(f, alive, p) == 0]
    return alive


def _horner(coeffs: np.ndarray, t: np.ndarray, p: int) -> np.ndarray:
    """sum_j coeffs[..., j, :] * t**j mod p for every value in t: an array of
    shape (..., D, G) becomes (..., len(t), G), in the dtype of coeffs and t:
    linalg.residue_word(p), or a wider integer word.  The reductions mod p
    are delayed until one more step could leave that word's limit."""
    limit = residue_word(p)[1]
    tt = t[:, None]
    acc = np.repeat(coeffs[..., -1:, :], len(t), axis=-2)
    top = p - 1  # t and the coefficients lie in [0, p), and so does acc here
    for j in range(coeffs.shape[-2] - 2, -1, -1):
        # acc * t + c <= (top + 1) * (p - 1); reduce mod p only when that
        # could reach the limit (residue_word leaves a reduced acc room for
        # one more step)
        if (top + 1) * (p - 1) >= limit:
            acc %= p
            top = p - 1
        acc *= tt
        acc += coeffs[..., j, None, :]
        top = (top + 1) * (p - 1)
    acc %= p
    return acc


def _chart_table(f: HomoPoly, pivot: int, p: int) -> np.ndarray:
    """f on the chart x_pivot = 1 (earlier coordinates 0) with k >= 1 free
    coordinates t_1..t_k, as a (D, p^(k-1)) array of residues in
    linalg.residue_word(p) (int32 at every p with p^2 < 2^31): row j holds
    the coefficient of t_1^j on the grid of t_2..t_k in lex order.

    On F_p, t^e = t^(1 + (e-1) mod (p-1)) for e >= 1, so exponents are
    reduced below p and the coefficients that meet are summed mod p.  Each
    axis of the coefficient tensor ends at the largest reduced exponent on
    it, so D <= min(deg, p-1) + 1, and a form constant on the chart gives a
    single row."""
    k, word = f.nvars - 1 - pivot, residue_word(p)[0]
    terms = {}
    for mono, c in f.terms.items():
        if not any(mono[:pivot]):
            e = tuple(1 + (x - 1) % (p - 1) if x else 0 for x in mono[pivot + 1:])
            terms[e] = (terms.get(e, 0) + int(c)) % p
    dense = np.zeros(tuple(max(col) + 1 for col in zip(*terms)) or (1,) * k, dtype=word)
    for e, c in terms.items():
        dense[e] = c
    # Horner in t_k first: each new grid axis lands in front of the later ones
    table = dense.reshape(dense.shape + (1,))
    t = np.arange(p, dtype=word)
    for _ in range(k - 1):
        table = _horner(table, t, p)
        table = table.reshape(table.shape[:-2] + (-1,))
    return table


def _horner_at(table: np.ndarray, idx: np.ndarray, p: int) -> np.ndarray:
    """A (D, G) chart table at flat grid indices idx = t_1 * G + column:
    sum_j table[j, column] * t_1**j mod p for each index, in the table's
    word, reduced at every step (entries and t_1 in [0, p), so acc * t_1 + c
    < p^2 stays inside linalg.residue_word(p))."""
    t, col = np.divmod(idx, table.shape[1])
    t, coeffs = t.astype(table.dtype), table[:, col]
    acc = coeffs[-1].copy()
    for c in coeffs[-2::-1]:
        acc *= t
        acc += c
        acc %= p
    return acc


def _grid_zeros(f: HomoPoly, pivot: int, p: int) -> np.ndarray:
    """Flat grid indices t_1 * p^(k-1) + column where f vanishes on the
    chart x_pivot = 1, over the whole grid: ascending within each block of
    columns, block after block (projective_zeros sorts its survivors).

    With T the (D, G) chart table and V[t, j] = t^j mod p, the zeros on the
    grid are the zero mask of V @ T mod p (linalg.matmul_zeros_mod_p), taken
    one block of at most _CHUNK grid points at a time.  V is built in
    linalg.product_word(D, p), float32 at every p with D (p-1)^2 < 2^23, so
    only T's block of columns is cast to it.
    """
    table = _chart_table(f, pivot, p)
    depth, width = table.shape
    rows = min(p, _CHUNK)  # below p only on P^1, where G = 1
    cols = min(width, max(1, _CHUNK // rows))
    found = []
    for lo in range(0, p, rows):
        t = np.arange(lo, min(lo + rows, p), dtype=np.int64)[:, None]
        powers = np.array(list(monomial_columns([(j,) for j in range(depth)], t, p)),
                          product_word(depth, p)).T
        for c0 in range(0, width, cols):
            c = min(cols, width - c0)
            zero = matmul_zeros_mod_p(powers, table[:, c0:c0 + c], p)
            t_hit, c_hit = np.divmod(np.flatnonzero(zero), c)
            found.append((t_hit + lo) * width + (c_hit + c0))
    del table  # before the indices are joined, at the peak
    return np.concatenate(found)


def _zeros_at(f: HomoPoly, pivot: int, idx: np.ndarray, p: int) -> np.ndarray:
    """The flat grid indices of idx where f vanishes on the chart x_pivot = 1,
    in their order, evaluated _STEP indices at a time."""
    table = _chart_table(f, pivot, p)
    parts = (idx[i:i + _STEP] for i in range(0, idx.size, _STEP))
    return np.concatenate([part[_horner_at(table, part, p) == 0] for part in parts])


def _nonzero_constant(f: HomoPoly, pivot: int, p: int) -> bool:
    """Whether f on the chart x_pivot = 1 (earlier coordinates 0) is one
    term c * x_pivot^e with p not dividing c: a nonzero constant there."""
    left = (item for item in f.terms.items() if not any(item[0][:pivot]))
    first, second = next(left, None), next(left, None)
    if first is None or second is not None:
        return False
    mono, c = first
    return not any(mono[pivot + 1:]) and int(c) % p != 0


def projective_zeros(polys: Sequence[HomoPoly], n: int, p: int) -> np.ndarray:
    """Rows of P^n(F_p) where every poly vanishes, as canonical int64
    coordinates in enumerate_projective's order.

    In each chart, the first poly (zero forms are taken last) is evaluated
    on the whole grid by the Horner kernel and the others on its zeros only,
    each on its own chart table; rows are built for the final survivors.  A
    chart on which some poly is a nonzero constant gives no rows and no work.
    The last chart's single point is decided by coefficients alone.
    """
    check_scan_cap(n, p)
    # a zero form filters nothing; kept first, it would keep a whole chart's indices
    polys = sorted(polys, key=HomoPoly.is_zero)
    results = []
    for pivot in range(n):
        if any(_nonzero_constant(f, pivot, p) for f in polys):
            continue
        # each chart table lives inside one call, so only one is held at a time
        idx = _grid_zeros(polys[0], pivot, p)
        for f in polys[1:]:
            if not idx.size:
                break
            idx = _zeros_at(f, pivot, idx, p)
        if (idx[1:] < idx[:-1]).any():  # more than one block of columns
            idx.sort(kind="stable")  # pages in less of numpy's sort code than a quicksort
        rows = np.zeros((idx.size, n + 1), dtype=np.int64)
        rows[:, pivot] = 1
        rows[:, pivot + 1:] = np.column_stack(np.unravel_index(idx, (p,) * (n - pivot)))
        results.append(rows)
    # the last chart is the single point (0:...:0:1), where f is its x_n^deg coefficient
    last = np.eye(1, n + 1, n, dtype=np.int64)
    results.append(last if all(int(f.coeff((0,) * n + (f.degree,))) % p == 0 for f in polys)
                   else last[:0])
    return np.concatenate(results, axis=0)
