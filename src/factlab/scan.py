"""Vectorized exhaustive scans over P^n(F_p).

projective_zeros is the scan primitive.  It visits P^n(F_p) in
enumerate_projective's order (pivot ascending, then lex on the free
coordinates) without building a coordinate table: in the chart with pivot
coordinate 1 and earlier coordinates 0, the k free coordinates run over a
full p^k grid, on which the first form is evaluated by nested Horner, one
variable at a time (about deg * p^k operations, not terms * p^k).  Only the
rows where it vanishes are built, and the remaining forms are evaluated on
those rows alone.  Each chart's grid is cut into slabs along its first free
coordinate; slabs bound memory and are scanned in order.

coords_table, eval_on_points and common_zeros are the term-by-term path on
explicit rows: common_zeros filters each slab's survivors in one pass, and
the full table serves tests as an oracle.  A scan takes forms only; callers
that need a further condition (a Jacobian rank, smoothness) filter the
returned rows themselves.

horner_on_rows is the re-check path: recursive Horner in the first variable
on explicit rows, the batched form of poly.eval_poly_horner.  It shares no
code with the chart kernel or with eval_on_points, so sing_locus re-checks
every scan hit, and evaluates gradients and Hessians at the hits, along a
path independent of the one that found them.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .poly import HomoPoly
from .projgeom import DEFAULT_SCAN_CAP, check_scan_cap

_CHUNK = 1 << 16  # rows per slab (at least one value of the first free coordinate)


def coords_table(n: int, p: int, scan_cap: int = DEFAULT_SCAN_CAP) -> np.ndarray:
    """(N, n+1) int64 table of canonical representatives of P^n(F_p)."""
    check_scan_cap(n, p, scan_cap)
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


def eval_on_points(f: HomoPoly, pts: np.ndarray, p: int) -> np.ndarray:
    """Exact evaluation of f at every row of pts, mod p."""
    out = np.zeros(pts.shape[0], dtype=np.int64)
    pow_cache = {}
    for mono, coeff in f.terms.items():
        term = np.full(pts.shape[0], int(coeff) % p, dtype=np.int64)
        for var, e in enumerate(mono):
            if not e:
                continue
            key = (var, e)
            if key not in pow_cache:
                base = pts[:, var]
                acc = base.copy()
                for _ in range(e - 1):
                    acc = acc * base % p
                pow_cache[key] = acc
            term = term * pow_cache[key] % p
        out = (out + term) % p
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
    coordinates t_1..t_k, as a (deg+1, p^(k-1)) array: row j holds the
    coefficient of t_1^j on the grid of t_2..t_k in lex order."""
    k = f.nvars - 1 - pivot
    dense = np.zeros((f.degree + 1,) * k, dtype=np.int64)
    for mono, c in f.terms.items():
        if not any(mono[:pivot]):
            dense[mono[pivot + 1:]] = int(c) % p
    # Horner in t_k first: each new grid axis lands in front of the later ones
    table = dense.reshape(dense.shape + (1,))
    t = np.arange(p, dtype=np.int64)
    for _ in range(k - 1):
        table = _horner(table, t, p)
        table = table.reshape(table.shape[:-2] + (-1,))
    return table


def projective_zeros(
    polys: Sequence[HomoPoly],
    n: int,
    p: int,
    scan_cap: int = DEFAULT_SCAN_CAP,
) -> np.ndarray:
    """Rows of P^n(F_p) where every poly vanishes, as canonical int64
    coordinates in enumerate_projective's order.

    polys[0] is evaluated on each chart's whole grid by the Horner kernel;
    the other polys only on its zeros, by common_zeros.
    """
    check_scan_cap(n, p, scan_cap)

    # a function, so that one slab's temporaries are freed before the next
    def slab(pivot, table, lo, hi) -> np.ndarray:
        vals = _horner(table, np.arange(lo, hi, dtype=np.int64), p)
        flat = np.flatnonzero(vals == 0) + lo * table.shape[1]
        rows = np.zeros((flat.size, n + 1), dtype=np.int64)
        rows[:, pivot] = 1
        rows[:, pivot + 1:] = np.column_stack(np.unravel_index(flat, (p,) * (n - pivot)))
        return common_zeros(polys[1:], rows, p)

    results = []
    for pivot in range(n):
        table = _chart_table(polys[0], pivot, p)
        step = max(1, _CHUNK // table.shape[1])
        results += [slab(pivot, table, lo, min(lo + step, p)) for lo in range(0, p, step)]
    # the last chart is the single point (0:...:0:1)
    last = np.zeros((1, n + 1), dtype=np.int64)
    last[0, n] = 1
    results.append(common_zeros(polys, last, p))
    return np.concatenate(results, axis=0)
