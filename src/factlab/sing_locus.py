"""Singular loci of hypersurfaces and codimension-2 complete intersections
over prime fields, by exhaustive scan, plus ordinary-double-point checks.

The scan certifies F_p-rational singular points only; every report built on
top of it is mod-p evidence, not a characteristic-0 proof.

Both kinds of locus run one tail: the scan, for a complete intersection a
Jacobian filter by eval_on_points, then a bulk re-check of every hit by
scan.horner_on_rows, an evaluator independent of the scan's own and of the
filter's.  The node checks evaluate gradients and Hessian entries at all
points of one chart at once, in blocks of at most _BLOCK rows; each block's
verdict is one full-rank test by linalg.echelon_mod_p.  Every P^n(F_p) of
more than projgeom.SCAN_CAP points is refused before any work (TooLarge).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import List, Optional

import numpy as np

from .errors import CharDividesDegree, NotSingular, VerificationFailure
from .fields import FieldSpec
from .linalg import echelon_mod_p
from .poly import HomoPoly, gradient, hessian, partial
from .projgeom import PointSet, ProjPoint
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


def _rank_deficient(jacobian: List[np.ndarray], p: int) -> np.ndarray:
    """Per point, whether the Jacobian of one or two forms, given as one
    (points, n+1) array of gradients per form, has rank below the number of
    forms mod p: a zero gradient, or two whose 2 x 2 minors all vanish."""
    if len(jacobian) == 1:
        return ~jacobian[0].any(axis=1)
    a, b = (d.T for d in jacobian)
    ok = np.ones(a.shape[1], dtype=bool)
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            ok &= (a[i] * b[j] - a[j] * b[i]) % p == 0
    return ok


def _values(polys, rows: np.ndarray, p: int, evaluate=horner_on_rows) -> np.ndarray:
    """(len(rows), len(polys)) array of every poly at every row."""
    return np.stack([evaluate(g, rows, p) for g in polys], axis=1)


def _locus(forms: List[HomoPoly], what: str) -> PointSet:
    """Points where every form vanishes and the Jacobian of the forms has
    rank below their number, in scan order.

    A hypersurface's partials go into the scan, which then leaves nothing
    to filter; the scan of a complete intersection finds the common zeros
    of its forms, and the Jacobian filter (eval_on_points) runs once on all
    of them.  Every hit is re-verified: the forms and the Jacobian are
    evaluated at all hits by scan.horner_on_rows, independently of the scan
    and of the filter.
    """
    field = forms[0].field
    p = field.p
    n = forms[0].nvars - 1
    partials = [[partial(g, v) for v in range(n + 1)] for g in forms]
    if len(forms) == 1:
        rows = projective_zeros(forms + partials[0], n, p)
    else:
        rows = projective_zeros(forms, n, p)
        rows = rows[_rank_deficient([_values(d, rows, p, eval_on_points) for d in partials], p)]
    result = _rows_to_pointset(rows, n, field)
    bad = _values(forms, rows, p).any(axis=1)
    bad |= ~_rank_deficient([_values(d, rows, p) for d in partials], p)
    if bad.any():
        pt = ProjPoint(tuple(rows[np.flatnonzero(bad)[0]].tolist()), field)
        raise VerificationFailure(f"scan soundness: {pt} is not a singular point of {what}")
    return result


def singular_points(f: HomoPoly) -> PointSet:
    """All P in P^n(F_p) with f(P) = 0 and vanishing gradient, in scan
    order, each re-verified (see _locus)."""
    if f.is_zero() or f.degree < 2:
        raise ValueError("need a nonzero form of degree >= 2")
    if not f.field.p:
        raise ValueError("scans require a prime field")
    if f.degree % f.field.p == 0:
        raise CharDividesDegree(f"p={f.field.p} divides degree {f.degree}")
    return _locus([f], "f")


def ci_singular_points(F: HomoPoly, G: HomoPoly) -> PointSet:
    """Points with F = G = 0 where the 2 x (n+1) Jacobian has rank <= 1, in
    scan order, each re-verified (see _locus)."""
    if F.field != G.field or F.nvars != G.nvars:
        raise ValueError("F and G must share field and variables")
    if not F.field.p:
        raise ValueError("scans require a prime field")
    return _locus([F, G], "F = G = 0")


def verify_nodal(inst: NodalInstance) -> NodalInstance:
    """Fill node_flags (an ordinary double point at each singular point) and
    clean.

    Each block of points of one pivot chart gets one full-rank test by
    echelon_mod_p.  At a hypersurface point the matrix is the affine
    Hessian H_aff(f), n x n.  At a complete-intersection point it is the
    bordered Hessian [[H_aff(alpha*F + beta*G), a], [a^T, 0]], (n+1) x
    (n+1), where alpha*F + beta*G is the combination with vanishing
    differential and a is the affine differential of the transverse form
    (F, or G where dF = 0): a quadratic form is nondegenerate on the
    hyperplane ker a (a != 0) exactly when that matrix is invertible.  By
    Euler's relation a is nonzero wherever the Jacobian has rank 1; where it
    has rank 0 the matrix has a zero row, and a point of Jacobian rank 2 is
    no node.

    The instance must be over a prime field (ValueError otherwise): its
    points are scan hits, and the checks run on them as int64 arrays mod p.
    A hypersurface point whose gradient does not vanish raises NotSingular,
    as poly.node_rank does, naming the first such point in inst.sing order.

    Isolation over F_p is heuristic: a positive-dimensional component shows
    up as a large scan count, flagged when |sing| exceeds
    _ISOLATION_FACTOR * degree * n.
    """
    if not inst.field.p:
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
                d = [_values(g, pts, p) for g in grads]
                H = [_hessian_blocks(h, pts, pivot, p) for h in hessians]
                deficient = _rank_deficient(d, p)
                if len(d) == 1:
                    nonsingular[block] = ~deficient
                    M = H[0]
                else:
                    M = _bordered_hessians(*d, *H, pivot, p)
                node[block] = deficient & (echelon_mod_p(M, p)[1] < M.shape[1]).all(axis=1)
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


def _bordered_hessians(dF, dG, HF, HG, pivot: int, p: int) -> np.ndarray:
    """(len(dF), n+1, n+1) array: at each point of one pivot chart, given
    the gradients dF, dG (one row per point) and the Hessian blocks HF, HG
    there, the bordered Hessian [[alpha*HF + beta*HG, a], [a^T, 0]] of
    verify_nodal."""
    every = np.arange(dF.shape[0])
    n = HF.shape[1]
    # alpha*dF + beta*dG = 0 for (alpha, beta) = (dG_k, -dF_k), k any index
    # where the Jacobian column is nonzero, when the Jacobian has rank 1
    k = ((dF != 0) | (dG != 0)).argmax(axis=1)
    alpha, beta = dG[every, k], (p - dF[every, k]) % p
    M = np.zeros((dF.shape[0], n + 1, n + 1), dtype=np.int64)
    M[:, :n, :n] = (alpha[:, None, None] * HF % p + beta[:, None, None] * HG % p) % p
    a = np.delete(np.where(dF.any(axis=1)[:, None], dF, dG), pivot, axis=1)
    M[:, :n, n] = M[:, n, :n] = a
    return M
