"""Vectorized exhaustive scans over P^n(F_p).

projective_zeros is the scan primitive.  It visits P^n(F_p) in
enumerate_projective's order (pivot ascending, then lex on the free
coordinates) without building a coordinate table: in the chart with pivot
coordinate 1 and earlier coordinates 0, the k free coordinates run over a
full p^k grid, on which the first form is evaluated by nested Horner, one
variable at a time (about deg * p^k operations, not terms * p^k).  A chart
on which some form is a nonzero constant -- one term c * x_pivot^e left
after x_0..x_(pivot-1) = 0, with p not dividing c, as each partial of a
diagonal form is on its own chart -- holds no zero, and is skipped before
any chart table or grid is built.  Each
chart's grid is cut into slabs along its first free coordinate; slabs bound
memory and are scanned in order.  The first form's zeros are kept as flat
grid indices, and every further form filters them in turn on its own chart
table, by Horner in the first free coordinate at each surviving index.  Rows
are built only for the points that survive every form.  projective_zeros
and coords_table refuse, before any work, a P^n(F_p) of more than
projgeom.SCAN_CAP points (TooLarge); the cap is a constant, not a setting.

monomial_columns evaluates monomials on explicit int64 rows, one column
mod p each: eval_on_points sums a form's columns weighted by its
coefficients, and lincond.evaluation_matrix stacks a basis's columns into
every evaluation matrix over F_p.  coords_table, eval_on_points and
common_zeros are the term-by-term path on explicit rows: the full table and
common_zeros serve tests as an oracle, common_zeros also filters the single
point of the last chart, and callers that need a further condition (a
Jacobian rank, smoothness) filter the returned rows themselves with
eval_on_points.  sing_locus's node checks evaluate every gradient and second
partial at the hits with eval_on_points too.  A scan takes forms only.

horner_on_rows has one job, the re-check: recursive Horner in the first
variable on explicit rows, the batched form of poly.eval_poly_horner.  It
shares no code with the chart kernel or with monomial_columns, so sing_locus
re-checks every scan hit, its forms and its Jacobian, along a path
independent of the one that found it.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .poly import HomoPoly, Monomial
from .projgeom import check_scan_cap

_CHUNK = 1 << 15  # grid points per slab (at least one value of the first free coordinate)
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
    as one int64 column mod p per monomial, in order.  Each power x_v^e that
    a monomial needs is built once, from the last power of x_v before it; a
    column may be a stored power or a column of pts: read it, do not write."""
    powers = {}
    for var in range(pts.shape[1]):
        x = acc = pts[:, var]
        k = 1
        for e in sorted({m[var] for m in monos} - {0}):
            for _ in range(e - k):
                acc = acc * x % p
            powers[var, e], k = acc, e
    for mono in monos:
        col = None
        for var, e in enumerate(mono):
            if e:
                col = powers[var, e] if col is None else col * powers[var, e] % p
        yield np.ones(pts.shape[0], dtype=np.int64) if col is None else col


def eval_on_points(f: HomoPoly, pts: np.ndarray, p: int) -> np.ndarray:
    """Exact evaluation of f at every row of pts, mod p: the
    coefficient-weighted sum of its monomial columns."""
    out = np.zeros(pts.shape[0], dtype=np.int64)
    for col, coeff in zip(monomial_columns(list(f.terms), pts, p), f.terms.values()):
        out += int(coeff) % p * col
        out %= p
    return out


def horner_on_rows(f: HomoPoly, rows: np.ndarray, p: int) -> np.ndarray:
    """f at every row of rows (int64 entries in [0, p)), mod p.

    Recursive Horner in the first variable, as poly.eval_poly_horner, with
    the row columns as the variables and a reduction mod p at every step
    (p < 2**31, so acc * x + c stays inside int64).
    """
    if not f.terms or not rows.shape[0]:
        return np.zeros(rows.shape[0], dtype=np.int64)
    return _horner_rows({m: int(c) % p for m, c in f.terms.items()}, rows, 0, p)


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
    shape (..., D, G) becomes (..., len(t), G)."""
    tt = t[:, None]
    acc = np.repeat(coeffs[..., -1:, :], len(t), axis=-2)
    top = p - 1  # t and the coefficients lie in [0, p), and so does acc here
    for j in range(coeffs.shape[-2] - 2, -1, -1):
        # acc * t + c <= (top + 1) * (p - 1); reduce mod p only when that
        # could overflow int64 (p < 2**31, the FieldSpec bound, so a reduced
        # acc always has room for one more step)
        if (top + 1) * (p - 1) >= 2**63:
            acc %= p
            top = p - 1
        acc *= tt
        acc += coeffs[..., j, None, :]
        top = (top + 1) * (p - 1)
    acc %= p
    return acc


def _chart_table(f: HomoPoly, pivot: int, p: int) -> np.ndarray:
    """f on the chart x_pivot = 1 (earlier coordinates 0) with k >= 1 free
    coordinates t_1..t_k, as a (D, p^(k-1)) array: row j holds the
    coefficient of t_1^j on the grid of t_2..t_k in lex order.

    On F_p, t^e = t^(1 + (e-1) mod (p-1)) for e >= 1, so exponents are
    reduced below p and the coefficients that meet are summed mod p.  Each
    axis of the coefficient tensor ends at the largest reduced exponent on
    it, so D <= min(deg, p-1) + 1, and a form constant on the chart gives a
    single row."""
    k = f.nvars - 1 - pivot
    terms = {}
    for mono, c in f.terms.items():
        if not any(mono[:pivot]):
            e = tuple(1 + (x - 1) % (p - 1) if x else 0 for x in mono[pivot + 1:])
            terms[e] = (terms.get(e, 0) + int(c)) % p
    dense = np.zeros(tuple(max(col) + 1 for col in zip(*terms)) or (1,) * k, dtype=np.int64)
    for e, c in terms.items():
        dense[e] = c
    # Horner in t_k first: each new grid axis lands in front of the later ones
    table = dense.reshape(dense.shape + (1,))
    t = np.arange(p, dtype=np.int64)
    for _ in range(k - 1):
        table = _horner(table, t, p)
        table = table.reshape(table.shape[:-2] + (-1,))
    return table


def _horner_at(table: np.ndarray, idx: np.ndarray, p: int) -> np.ndarray:
    """A (D, G) chart table at flat grid indices idx = t_1 * G + column:
    sum_j table[j, column] * t_1**j mod p for each index (entries and t_1 in
    [0, p), p < 2**31, so acc * t_1 + c stays inside int64)."""
    t, col = np.divmod(idx, table.shape[1])
    coeffs = table[:, col]
    acc = coeffs[-1].copy()
    for c in coeffs[-2::-1]:
        acc *= t
        acc += c
        acc %= p
    return acc


def _grid_zeros(f: HomoPoly, pivot: int, p: int) -> np.ndarray:
    """Flat grid indices t_1 * p^(k-1) + column, ascending, where f vanishes
    on the chart x_pivot = 1, found slab by slab over the whole grid."""
    table = _chart_table(f, pivot, p)
    step = max(1, _CHUNK // table.shape[1])

    # a function, so that one slab's temporaries are freed before the next
    def slab(lo, hi):
        vals = _horner(table, np.arange(lo, hi, dtype=np.int64), p)
        return np.flatnonzero(vals == 0) + lo * table.shape[1]

    return np.concatenate([slab(lo, min(lo + step, p)) for lo in range(0, p, step)])


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
    The single point of the last chart goes through common_zeros.
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
        rows = np.zeros((idx.size, n + 1), dtype=np.int64)
        rows[:, pivot] = 1
        rows[:, pivot + 1:] = np.column_stack(np.unravel_index(idx, (p,) * (n - pivot)))
        results.append(rows)
    # the last chart is the single point (0:...:0:1)
    last = np.zeros((1, n + 1), dtype=np.int64)
    last[0, n] = 1
    results.append(common_zeros(polys, last, p))
    return np.concatenate(results, axis=0)
