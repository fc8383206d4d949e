"""Singular loci of hypersurfaces and codimension-2 complete intersections
over prime fields, by exhaustive scan, plus ordinary-double-point checks.

The scan certifies F_p-rational singular points only; every report built on
top of it is mod-p evidence, not a characteristic-0 proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import List, Optional

import numpy as np

from .errors import CharDividesDegree, CharTooSmall, VerificationFailure
from .fields import FieldSpec
from .linalg import nullspace, rank as matrix_rank
from .poly import (
    HomoPoly,
    eval_poly,
    eval_poly_horner,
    gradient,
    hessian,
    hessian_block,
    node_rank,
    partial,
)
from .projgeom import DEFAULT_SCAN_CAP, PointSet, ProjPoint, canonicalize
from .scan import eval_on_points, projective_zeros


@dataclass
class NodalInstance:
    defining: List[HomoPoly]
    ambient_dim: int
    sing: PointSet
    node_flags: List[bool] = dc_field(default_factory=list)
    clean: bool = False
    isolated_warning: Optional[str] = None
    generators: Optional[dict] = None  # named building blocks, when generated

    @property
    def field(self) -> FieldSpec:
        return self.defining[0].field


def _rows_to_pointset(rows: np.ndarray, n: int, field: FieldSpec) -> PointSet:
    pts = tuple(canonicalize([int(v) for v in row], field) for row in rows)
    return PointSet(n, pts, field)


def singular_points(
    f: HomoPoly,
    scan_cap: int = DEFAULT_SCAN_CAP,
) -> PointSet:
    """All P in P^n(F_p) with f(P) = 0 and vanishing gradient, in scan order.

    Every hit is re-verified with an independent evaluation routine.
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
    for pt in result:
        if any(eval_poly_horner(g, pt.coords) for g in [f] + grads):
            raise VerificationFailure(f"scan soundness: {pt} is not a singular point of f")
    return result


def verify_nodal(inst: NodalInstance, isolation_factor: int = 5) -> NodalInstance:
    """Fill node_flags (full Hessian rank at each singular point) and clean.

    Isolation over F_p is heuristic: a positive-dimensional component shows
    up as a large scan count, flagged when |sing| exceeds
    isolation_factor * degree * n.
    """
    n = inst.ambient_dim
    degree = max(g.degree for g in inst.defining)
    flags: List[bool] = []
    if inst.sing:
        # gradients and Hessians are built once per form, not once per point
        grads = [gradient(g) for g in inst.defining]
        hessians = [hessian(g) for g in inst.defining]
        for pt in inst.sing:
            if len(inst.defining) == 1:
                flags.append(node_rank(grads[0], hessians[0], pt.coords) == n)
            else:
                flags.append(_ci_node_check(grads[0], grads[1], hessians[0], hessians[1], pt))
    inst.node_flags = flags
    inst.clean = all(flags) if flags else True
    threshold = isolation_factor * degree * n
    if len(inst.sing) > threshold:
        inst.isolated_warning = (
            f"NotIsolated: {len(inst.sing)} singular points exceed the "
            f"isolation threshold {threshold}; likely a positive-dimensional locus"
        )
        inst.clean = False
    return inst


def _ci_node_check(dF, dG, HF, HG, pt: ProjPoint) -> bool:
    """Ordinary double point test for a codimension-2 complete intersection
    F = G = 0, given the gradients dF, dG and the Hessians HF, HG.

    At a Jacobian-rank-1 point, one combination of F, G has vanishing
    differential; its affine Hessian restricted to the tangent hyperplane of
    the transverse combination must have full rank n-1.
    """
    fld = pt.field
    if fld.is_prime_field and fld.p == 2:
        raise CharTooSmall("Hessian test unreliable in characteristic 2")
    coords = pt.coords
    nv = len(coords)
    gF = [eval_poly(g, coords) for g in dF]
    gG = [eval_poly(g, coords) for g in dG]
    jac_rank = matrix_rank([gF, gG], fld)
    if jac_rank != 1:
        return False  # rank 0: worse than a node; rank 2: smooth point
    # combination with vanishing differential: alpha*gF + beta*gG = 0
    combo = nullspace([[a, b] for a, b in zip(gF, gG)], 2, fld)[0]
    alpha, beta = combo
    pivot = next(i for i, c in enumerate(coords) if c)
    Hf = hessian_block(HF, coords)
    Hg = hessian_block(HG, coords)
    n = nv - 1
    H = [[fld.add(fld.mul(alpha, Hf[i][j]), fld.mul(beta, Hg[i][j])) for j in range(n)] for i in range(n)]
    # transverse differential in the affine chart
    row = gF if any(gF) else gG
    affine_row = [row[j] for j in range(nv) if j != pivot]
    tangent = nullspace([affine_row], n, fld)
    # rank of H restricted to the tangent hyperplane
    restricted = [
        [_quad(H, u, v, fld) for v in tangent]
        for u in tangent
    ]
    return matrix_rank(restricted, fld) == n - 1


def _quad(H, u, v, fld):
    total = fld.zero
    for i, ui in enumerate(u):
        if not ui:
            continue
        for j, vj in enumerate(v):
            if vj:
                total = fld.add(total, fld.mul(ui, fld.mul(H[i][j], vj)))
    return total


def ci_singular_points(
    F: HomoPoly,
    G: HomoPoly,
    scan_cap: int = DEFAULT_SCAN_CAP,
) -> PointSet:
    """Points with F = G = 0 where the 2 x (n+1) Jacobian has rank <= 1.

    Every hit is re-verified with an independent evaluation routine.
    """
    if F.field != G.field or F.nvars != G.nvars:
        raise ValueError("F and G must share field and variables")
    if not F.field.is_prime_field:
        raise ValueError("scans require a prime field")
    p = F.field.p
    n = F.nvars - 1
    pF = [partial(F, v) for v in range(n + 1)]
    pG = [partial(G, v) for v in range(n + 1)]

    def jacobian_rank_le_1(alive: np.ndarray) -> np.ndarray:
        valsF = [eval_on_points(g, alive, p) for g in pF]
        valsG = [eval_on_points(g, alive, p) for g in pG]
        ok = np.ones(alive.shape[0], dtype=bool)
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                minor = (valsF[i] * valsG[j] - valsF[j] * valsG[i]) % p
                ok &= minor == 0
        return ok

    rows = projective_zeros([F, G], n, p, scan_cap, extra_predicate=jacobian_rank_le_1)
    result = _rows_to_pointset(rows, n, F.field)
    for pt in result:
        c = pt.coords
        jac = [[eval_poly_horner(g, c) for g in pF], [eval_poly_horner(g, c) for g in pG]]
        if eval_poly_horner(F, c) or eval_poly_horner(G, c) or matrix_rank(jac, F.field) > 1:
            raise VerificationFailure(f"scan soundness: {pt} is not a singular point of F = G = 0")
    return result
