"""Singular loci of hypersurfaces and codimension-2 complete intersections
over prime fields, by exhaustive scan, plus ordinary-double-point checks.

The scan certifies F_p-rational singular points only; every report built on
top of it is mod-p evidence, not a characteristic-0 proof.

Both kinds of locus run one tail: the scan, for a complete intersection a
Jacobian filter by scan.eval_forms, then a bulk re-check of every hit by
scan.horner_on_rows, an evaluator independent of the scan's own and of the
filter's.  The node checks evaluate each form, its gradient and its second
partials at all points, one eval_forms product for each; each point's
verdict is one corank test of its projective (bordered) Hessian by
linalg.echelon_mod_p.  Every P^n(F_p) of more than projgeom.SCAN_CAP points
is refused before any work (TooLarge).
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
from .scan import eval_forms, horner_on_rows, projective_zeros

_BLOCK = 1 << 10  # points per slice of the node checks' elimination
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


def _values(polys, rows: np.ndarray, p: int) -> np.ndarray:
    """(len(rows), len(polys)) array of every poly at every row, by
    scan.horner_on_rows, one poly at a time: the re-check's evaluator."""
    return np.stack([horner_on_rows(g, rows, p) for g in polys], axis=1)


def _locus(forms: List[HomoPoly], what: str) -> PointSet:
    """Points where every form vanishes and the Jacobian of the forms has
    rank below their number, in scan order.

    A hypersurface's partials alone go into the scan, which then leaves
    nothing to filter: singular_points refuses p | deg, and by Euler's
    relation deg * f = sum x_i * df/dx_i, so f vanishes wherever its
    partials do.  The scan of a complete intersection finds the common
    zeros of its forms, and the Jacobian filter (one eval_forms call per
    form, on its partials) runs once on all of them.  Every hit is
    re-verified, f included: the forms and the Jacobian are evaluated at
    all hits by scan.horner_on_rows, independently of the scan and of the
    filter.
    """
    field = forms[0].field
    p = field.p
    n = forms[0].nvars - 1
    partials = [[partial(g, v) for v in range(n + 1)] for g in forms]
    if len(forms) == 1:
        rows = projective_zeros(partials[0], n, p)
    else:
        rows = projective_zeros(forms, n, p)
        rows = rows[_rank_deficient([eval_forms(d, rows, p) for d in partials], p)]
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

    Each form's partials and second partials are built once and evaluated
    once, at all points: the form, its gradient and its second partials on
    and above the diagonal are one scan.eval_forms call each.  A point is a
    node when its Jacobian is rank-deficient and one symmetric matrix M
    there has corank exactly 1 (echelon_mod_p pivots; M is built from the
    evaluated entries and reduced in slices of _BLOCK points).  At a
    hypersurface point M is the projective Hessian H(f); at a
    complete-intersection point it is [[alpha*H(F) + beta*H(G), dT], [dT^T,
    0]], where alpha*dF + beta*dG = 0 and T is the transverse form (F, or G
    where dF = 0).  M has a kernel vector with a nonzero pivot entry: P for
    H(f), as H(f)(P) P = (deg f - 1) df(P) = 0 (Euler), and (P, -alpha(deg F
    - deg G)) or (P, 0) for the bordered matrix, as F(P) = G(P) = 0.  So
    deleting the pivot's row and column keeps the rank, and the test is the
    affine one of the pivot chart: an invertible affine Hessian, or a
    quadratic form nondegenerate on the hyperplane ker dT.  For a complete
    intersection M is 0 where the Jacobian has rank 0, and a point of
    Jacobian rank 2 is no node.

    The instance must be over a prime field (ValueError otherwise), and the
    checks run on its points as int64 arrays mod p.  A point where a form
    does not vanish raises NotSingular, naming the first such point in
    inst.sing order.  So does a hypersurface point whose gradient does not
    vanish, as poly.node_rank does.

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
        off = np.any([eval_forms([g], rows, p)[:, 0] for g in inst.defining], axis=0)
        if off.any():
            first = inst.sing.points[np.flatnonzero(off)[0]]
            raise NotSingular(f"form nonzero at {tuple(first.coords)}")
        d = [eval_forms(gradient(g), rows, p) for g in inst.defining]
        deficient = _rank_deficient(d, p)
        if len(d) == 1 and not deficient.all():
            first = inst.sing.points[np.flatnonzero(~deficient)[0]]
            raise NotSingular(f"gradient nonzero at {tuple(first.coords)}")
        upper = [_upper_hessian(g, rows, p) for g in inst.defining]
        square = _symmetric_index(n + 1)
        corank_one = []
        for lo in range(0, len(rows), _BLOCK):
            H = [h[lo:lo + _BLOCK, square] for h in upper]
            M = H[0] if len(d) == 1 else _bordered_hessians(*(g[lo:lo + _BLOCK] for g in d), *H, p)
            corank_one.append((echelon_mod_p(M, p)[1] < M.shape[1]).sum(axis=1) == M.shape[1] - 1)
        flags = (deficient & np.concatenate(corank_one)).tolist()
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


def _upper_hessian(g: HomoPoly, rows: np.ndarray, p: int) -> np.ndarray:
    """(len(rows), (n+1)(n+2)/2) array: the second partials of g on and above
    the diagonal, in np.triu_indices order, at every row, by one eval_forms
    call."""
    H = hessian(g)
    return eval_forms([H[i][j] for i, j in zip(*np.triu_indices(len(H)))], rows, p)


def _symmetric_index(size: int) -> np.ndarray:
    """(size, size) index into a row of _upper_hessian: upper[:, index] is
    the full symmetric matrix of each row."""
    i, j = np.triu_indices(size)
    index = np.empty((size, size), dtype=np.intp)
    index[i, j] = index[j, i] = np.arange(i.size)
    return index


def _bordered_hessians(dF, dG, HF, HG, p: int) -> np.ndarray:
    """(len(dF), n+2, n+2) array: at each point, given the gradients dF, dG
    (one row per point) and the Hessians HF, HG there, the bordered Hessian
    [[alpha*HF + beta*HG, dT], [dT^T, 0]] of verify_nodal."""
    every = np.arange(dF.shape[0])
    size = HF.shape[1]
    # alpha*dF + beta*dG = 0 for (alpha, beta) = (dG_k, -dF_k), k any index
    # where the Jacobian column is nonzero, when the Jacobian has rank 1
    k = ((dF != 0) | (dG != 0)).argmax(axis=1)
    alpha, beta = dG[every, k], (p - dF[every, k]) % p
    M = np.zeros((dF.shape[0], size + 1, size + 1), dtype=np.int64)
    M[:, :size, :size] = (alpha[:, None, None] * HF % p + beta[:, None, None] * HG % p) % p
    M[:, :size, size] = M[:, size, :size] = np.where(dF.any(axis=1)[:, None], dF, dG)
    return M
