"""Singular loci of hypersurfaces and codimension-2 complete intersections
over prime fields, by exhaustive scan, plus ordinary-double-point checks.

The scan certifies F_p-rational singular points only; every report built on
top of it is mod-p evidence, not a characteristic-0 proof.

Every scan hit is re-checked in bulk by scan.horner_on_rows, an evaluator
independent of the scan's own, and the node checks evaluate gradients and
Hessian entries at all points of one chart at once, in blocks of at most
_BLOCK rows, then take every block's ranks at once by ranks_mod_p.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import List, Optional

import numpy as np

from .errors import CharDividesDegree, NotSingular, VerificationFailure
from .fields import FieldSpec
from .poly import HomoPoly, gradient, hessian, partial
from .projgeom import DEFAULT_SCAN_CAP, PointSet, ProjPoint
from .scan import eval_on_points, horner_on_rows, projective_zeros

_BLOCK = 1 << 10  # points per block of the node checks
_ISOLATION_FACTOR = 5  # more than this * degree * n singular points: not isolated


@dataclass
class NodalInstance:
    defining: List[HomoPoly]
    sing: PointSet
    node_flags: List[bool] = dc_field(default_factory=list)
    clean: bool = False
    isolated_warning: Optional[str] = None
    generators: Optional[dict] = None  # named building blocks, when generated

    @property
    def ambient_dim(self) -> int:
        return self.defining[0].nvars - 1

    @property
    def field(self) -> FieldSpec:
        return self.defining[0].field


def _rows_to_pointset(rows: np.ndarray, n: int, field: FieldSpec) -> PointSet:
    """The scan's rows as points; each row must already be canonical: entries
    in [0, p) and 1 at its first nonzero entry (the pivot)."""
    first = (rows != 0).argmax(axis=1)
    canonical = ((rows >= 0) & (rows < field.p)).all(axis=1)
    canonical &= rows[np.arange(rows.shape[0]), first] == 1
    if not canonical.all():
        bad = rows[np.flatnonzero(~canonical)[0]].tolist()
        raise VerificationFailure(f"scan soundness: row {bad} is not a canonical point")
    # each row's list gives way to its point at once, so that the lists of
    # all rows are never alive together
    pts = rows.tolist()
    for i, r in enumerate(pts):
        pts[i] = ProjPoint(tuple(r), field)
    return PointSet(n, tuple(pts), field)


def _first_failure(rows: np.ndarray, bad: np.ndarray, field: FieldSpec) -> Optional[ProjPoint]:
    if not bad.any():
        return None
    return ProjPoint(tuple(rows[np.flatnonzero(bad)[0]].tolist()), field)


def _rank_le_1(a, b, p: int) -> np.ndarray:
    """Per point, whether the 2 x m matrix with rows a and b has rank <= 1
    mod p: every 2 x 2 minor vanishes.  a and b are sequences of m arrays,
    entry j holding column j at every point."""
    ok = np.ones(len(a[0]), dtype=bool)
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            ok &= (a[i] * b[j] - a[j] * b[i]) % p == 0
    return ok


def _values(polys, rows: np.ndarray, p: int) -> np.ndarray:
    """(len(rows), len(polys)) array of every poly at every row."""
    return np.stack([horner_on_rows(g, rows, p) for g in polys], axis=1)


def singular_points(
    f: HomoPoly,
    scan_cap: int = DEFAULT_SCAN_CAP,
) -> PointSet:
    """All P in P^n(F_p) with f(P) = 0 and vanishing gradient, in scan order.

    Every hit is re-verified: f and each partial are evaluated at all hits by
    scan.horner_on_rows, independently of the scan's evaluators.
    """
    if f.is_zero() or f.degree < 2:
        raise ValueError("need a nonzero form of degree >= 2")
    if not f.field.is_prime_field:
        raise ValueError("scans require a prime field")
    p = f.field.p
    if f.degree % p == 0:
        raise CharDividesDegree(f"p={p} divides degree {f.degree}")
    n = f.nvars - 1
    grads = gradient(f)
    rows = projective_zeros([f] + grads, n, p, scan_cap)
    result = _rows_to_pointset(rows, n, f.field)
    bad = np.zeros(rows.shape[0], dtype=bool)
    for g in [f] + grads:
        bad |= horner_on_rows(g, rows, p) != 0
    pt = _first_failure(rows, bad, f.field)
    if pt is not None:
        raise VerificationFailure(f"scan soundness: {pt} is not a singular point of f")
    return result


def verify_nodal(inst: NodalInstance) -> NodalInstance:
    """Fill node_flags (full Hessian rank at each singular point) and clean.

    The instance must be over a prime field (ValueError otherwise): its
    points are scan hits, and the checks run on them as int64 arrays mod p.
    A hypersurface point whose gradient does not vanish raises NotSingular,
    as poly.node_rank does.

    Isolation over F_p is heuristic: a positive-dimensional component shows
    up as a large scan count, flagged when |sing| exceeds
    _ISOLATION_FACTOR * degree * n.
    """
    if not inst.field.is_prime_field:
        raise ValueError("node checks require a prime field")
    n = inst.ambient_dim
    degree = max(g.degree for g in inst.defining)
    flags: List[bool] = []
    if inst.sing:
        p = inst.field.p
        rows = np.array([pt.coords for pt in inst.sing], dtype=np.int64) % p
        # gradients and Hessians are built once per form, not once per point
        grads = [gradient(g) for g in inst.defining]
        hessians = [hessian(g) for g in inst.defining]
        node = np.zeros(rows.shape[0], dtype=bool)
        nonsingular = np.zeros(rows.shape[0], dtype=bool)
        pivots = (rows != 0).argmax(axis=1)
        for pivot in range(n + 1):
            chart = np.flatnonzero(pivots == pivot)
            for lo in range(0, chart.size, _BLOCK):
                block = chart[lo:lo + _BLOCK]
                pts = rows[block]
                dF = _values(grads[0], pts, p)
                HF = _hessian_blocks(hessians[0], pts, pivot, p)
                if len(inst.defining) == 1:
                    nonsingular[block] = dF.any(axis=1)
                    node[block] = ranks_mod_p(HF, p) == n
                else:
                    dG = _values(grads[1], pts, p)
                    HG = _hessian_blocks(hessians[1], pts, pivot, p)
                    node[block] = _ci_node_check(dF, dG, HF, HG, pivot, p)
        if nonsingular.any():
            first = inst.sing.points[np.flatnonzero(nonsingular)[0]]
            raise NotSingular(f"gradient nonzero at {tuple(first.coords)}")
        flags = node.tolist()
    inst.node_flags = flags
    inst.clean = all(flags) if flags else True
    threshold = _ISOLATION_FACTOR * degree * n
    if len(inst.sing) > threshold:
        inst.isolated_warning = (
            f"NotIsolated: {len(inst.sing)} singular points exceed the "
            f"isolation threshold {threshold}; likely a positive-dimensional locus"
        )
        inst.clean = False
    return inst


def _hessian_blocks(H: List[List[HomoPoly]], rows: np.ndarray, pivot: int, p: int) -> np.ndarray:
    """(len(rows), n, n) array: H at each row without the pivot's row and
    column, as poly.hessian_block gives it at one point of that chart."""
    keep = [i for i in range(rows.shape[1]) if i != pivot]
    out = np.empty((rows.shape[0], len(keep), len(keep)), dtype=np.int64)
    for a, i in enumerate(keep):
        for b in range(a, len(keep)):
            out[:, a, b] = out[:, b, a] = horner_on_rows(H[i][keep[b]], rows, p)
    return out


def _matmul_mod(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """A @ B mod p on stacks of matrices, reduced after each product so that
    no sum leaves int64."""
    out = np.zeros(A.shape[:-1] + B.shape[-1:], dtype=np.int64)
    for k in range(A.shape[-1]):
        out = (out + A[..., :, k, None] * B[..., None, k, :]) % p
    return out


def ranks_mod_p(mats: np.ndarray, p: int) -> np.ndarray:
    """Rank mod p of each matrix in a (B, k, m) int64 stack, by one
    elimination run on all of them at once (linalg.rank is its per-matrix
    oracle in tests).

    Each column takes as pivot the first row with a nonzero entry and clears
    that column from every row by cross-multiplication (row * pivot -
    pivot_row * entry), so no inverse is needed and the pivot row itself
    becomes zero.  Entries stay in [0, p) between steps, and p < 2**31 keeps
    each product inside int64.
    """
    mats = mats % p
    ranks = np.zeros(mats.shape[0], dtype=np.int64)
    every = np.arange(mats.shape[0])
    for col in range(mats.shape[2]):
        entry = mats[:, :, col]
        found = (entry != 0).any(axis=1)
        pivot_row = mats[every, (entry != 0).argmax(axis=1)]
        # without a pivot the column is already zero, and scale 1 keeps it
        scale = np.where(found, pivot_row[:, col], 1)
        mats = (mats * scale[:, None, None] - entry[:, :, None] * pivot_row[:, None, :]) % p
        ranks += found
    return ranks


def _ci_node_check(dF, dG, HF, HG, pivot: int, p: int) -> np.ndarray:
    """Ordinary double point test for a codimension-2 complete intersection
    F = G = 0 at a block of points of one pivot chart, given the gradients
    dF, dG (one row per point) and the Hessian blocks HF, HG there.

    At a Jacobian-rank-1 point, one combination of F, G has vanishing
    differential; its affine Hessian restricted to the tangent hyperplane of
    the transverse combination must have full rank n-1.
    """
    n = HF.shape[1]
    every = np.arange(HF.shape[0])
    nonzero = (dF != 0) | (dG != 0)
    jac_rank_1 = nonzero.any(axis=1) & _rank_le_1(dF.T, dG.T, p)
    # alpha*dF + beta*dG = 0 for (alpha, beta) = (dG_k, -dF_k), k any index
    # where the Jacobian column is nonzero (all its 2 x 2 minors vanish)
    k = nonzero.argmax(axis=1)
    alpha, beta = dG[every, k], (p - dF[every, k]) % p
    H = (alpha[:, None, None] * HF % p + beta[:, None, None] * HG % p) % p
    # the transverse differential in the affine chart, a; its kernel is
    # spanned by the columns of T = s*I - e_j a^T, with j the first index of
    # a nonzero entry of a and s = a_j (T = I when a = 0); T's column j is 0
    row = np.where(dF.any(axis=1)[:, None], dF, dG)
    a = np.delete(row, pivot, axis=1)
    j = (a != 0).argmax(axis=1)
    s = np.where(a.any(axis=1), a[every, j], 1)
    T = s[:, None, None] * np.eye(n, dtype=np.int64)
    T[every, j] -= a
    T %= p
    # rank of H restricted to the tangent hyperplane
    restricted = _matmul_mod(_matmul_mod(T.transpose(0, 2, 1), H, p), T, p)
    return jac_rank_1 & (ranks_mod_p(restricted, p) == n - 1)


def ci_singular_points(
    F: HomoPoly,
    G: HomoPoly,
    scan_cap: int = DEFAULT_SCAN_CAP,
) -> PointSet:
    """Points with F = G = 0 where the 2 x (n+1) Jacobian has rank <= 1.

    The scan finds the common zeros of F and G, and the Jacobian filter
    (eval_on_points) runs once on all of them.  Every hit is re-verified:
    F, G and the Jacobian's 2 x 2 minors are evaluated at all hits by
    scan.horner_on_rows, independently of the scan's evaluators.
    """
    if F.field != G.field or F.nvars != G.nvars:
        raise ValueError("F and G must share field and variables")
    if not F.field.is_prime_field:
        raise ValueError("scans require a prime field")
    p = F.field.p
    n = F.nvars - 1
    pF = [partial(F, v) for v in range(n + 1)]
    pG = [partial(G, v) for v in range(n + 1)]
    rows = projective_zeros([F, G], n, p, scan_cap)
    rows = rows[_rank_le_1([eval_on_points(g, rows, p) for g in pF],
                           [eval_on_points(g, rows, p) for g in pG], p)]
    result = _rows_to_pointset(rows, n, F.field)
    bad = _values([F, G], rows, p).any(axis=1)
    bad |= ~_rank_le_1([horner_on_rows(g, rows, p) for g in pF],
                       [horner_on_rows(g, rows, p) for g in pG], p)
    pt = _first_failure(rows, bad, F.field)
    if pt is not None:
        raise VerificationFailure(f"scan soundness: {pt} is not a singular point of F = G = 0")
    return result
