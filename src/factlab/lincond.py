"""Evaluation matrices, the independence defect, separator certificates,
the certificate combiner, exact line/conic incidence counts, intersection
certificates, and the blown-up-plane base-point checker.

The defect of a finite reduced point set at degree xi is |set| - rank of
its evaluation matrix; defect 0 means the points impose independent linear
conditions on degree-xi forms.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (
    DegreeMismatch,
    GVanishesOnDelta,
    NotInSet,
    Overlap,
    TooFew,
    TooLarge,
    VerificationFailure,
    WrongAmbient,
    XiTooSmall,
)
from .fields import FieldSpec, Scalar
from .linalg import RowSpace, nullspace, rank_and_dependents, solve
from .poly import HomoPoly, eval_poly, make_poly, monomial_basis
from .projgeom import (
    DEFAULT_SCAN_CAP,
    PointSet,
    ProjPoint,
    canonicalize,
    enumerate_projective,
    point_set,
    span_dim,
)


# --- evaluation matrices ------------------------------------------------------


def point_row(coords: Sequence[Scalar], basis, field: FieldSpec) -> List[Scalar]:
    row = []
    for m in basis:
        v = field.one
        for x, e in zip(coords, m):
            if e:
                v = field.mul(v, field.power(x, e))
        row.append(v)
    return row


def directional_row(coords: Sequence[Scalar], direction: Sequence[Scalar], basis, field: FieldSpec) -> List[Scalar]:
    """d/dt at 0 of each basis monomial along coords + t*direction."""
    row = []
    for m in basis:
        total = field.zero
        for i, e in enumerate(m):
            if not e or not direction[i]:
                continue
            v = field.mul(field.of_int(e), direction[i])
            for j, x in enumerate(coords):
                ej = m[j] - (1 if j == i else 0)
                if ej:
                    v = field.mul(v, field.power(x, ej))
            total = field.add(total, v)
        row.append(total)
    return row


@dataclass
class EvalMatrix:
    xi: int
    basis: List[Tuple[int, ...]]
    rows: List[List[Scalar]]
    row_labels: List[object]
    field: FieldSpec

    @property
    def ncols(self) -> int:
        return len(self.basis)


def evaluation_matrix(
    sigma: PointSet,
    xi: int,
    extra_rows: Sequence[Tuple[ProjPoint, Sequence[Scalar]]] = (),
) -> EvalMatrix:
    """One evaluation row per point, then one directional row per extra pair."""
    if xi < 0:
        raise ValueError("xi >= 0 required")
    field = sigma.field
    basis = monomial_basis(sigma.ambient_dim + 1, xi)
    rows, labels = [], []
    for pt in sigma:
        rows.append(point_row(pt.coords, basis, field))
        labels.append(pt)
    for pt, direction in extra_rows:
        rows.append(directional_row(pt.coords, direction, basis, field))
        labels.append((pt, tuple(direction)))
    return EvalMatrix(xi, basis, rows, labels, field)


# --- defect -------------------------------------------------------------


@dataclass
class DefectReport:
    size: int
    rank: int
    defect: int
    xi: int
    field: FieldSpec
    dependent_points: List[ProjPoint]

    def to_json(self) -> str:
        return json.dumps(
            {
                "size": self.size,
                "rank": self.rank,
                "defect": self.defect,
                "xi": self.xi,
                "field": self.field.spec_string(),
                "dependent_points": [
                    [self.field.format_scalar(c) for c in pt.coords]
                    for pt in self.dependent_points
                ],
            },
            indent=2,
        )


def defect(sigma: PointSet, xi: int) -> DefectReport:
    mat = evaluation_matrix(sigma, xi)
    rank, deps = rank_and_dependents(mat.rows, mat.ncols, sigma.field)
    return DefectReport(
        size=len(sigma),
        rank=rank,
        defect=len(sigma) - rank,
        xi=xi,
        field=sigma.field,
        dependent_points=[sigma.points[i] for i in deps],
    )


def is_independent(sigma: PointSet, xi: int) -> bool:
    return defect(sigma, xi).defect == 0


# --- separators ------------------------------------------------------------


@dataclass
class SeparatorCertificate:
    point: ProjPoint
    form: HomoPoly

    def verify(self, sigma: PointSet) -> bool:
        if not eval_poly(self.form, self.point.coords):
            return False
        for q in sigma:
            if q.coords == self.point.coords:
                continue
            if eval_poly(self.form, q.coords):
                return False
        return True


@dataclass
class SeparatorFailure:
    point: ProjPoint
    combination: List[Tuple[ProjPoint, Scalar]]  # row_P = sum c_Q * row_Q


def _form_from_coeffs(coeffs, basis, nvars, xi, field) -> HomoPoly:
    return make_poly(nvars, xi, {m: c for m, c in zip(basis, coeffs) if c}, field)


def separator(sigma: PointSet, P: ProjPoint, xi: int):
    """Degree-xi certificate separating P from the rest of sigma, or the
    linear combination proving P's row is spanned by the others."""
    if P not in sigma:
        raise NotInSet(f"{P} not in the set")
    field = sigma.field
    others = sigma.without(P)
    mat = evaluation_matrix(others, xi)
    kernel = nullspace(mat.rows, mat.ncols, field)
    prow = point_row(P.coords, mat.basis, field)
    for vec in kernel:
        val = field.zero
        for c, r in zip(vec, prow):
            val = field.add(val, field.mul(c, r))
        if val:
            form = _form_from_coeffs(vec, mat.basis, sigma.ambient_dim + 1, xi, field)
            cert = SeparatorCertificate(P, form)
            if not cert.verify(sigma):
                raise VerificationFailure(f"separator for {P} failed its defining evaluations")
            return cert
    # P's row is in the span: produce the witness combination
    transposed = [[mat.rows[j][i] for j in range(len(mat.rows))] for i in range(mat.ncols)]
    combo = solve(transposed, prow, field) or []
    return SeparatorFailure(P, [(q, c) for q, c in zip(others.points, combo)])


def all_separators(sigma: PointSet, xi: int) -> Dict[Tuple, SeparatorCertificate]:
    out = {}
    for pt in sigma:
        cert = separator(sigma, pt, xi)
        if isinstance(cert, SeparatorFailure):
            raise ValueError(f"no degree-{xi} separator for {pt}")
        out[pt.coords] = cert
    return out


def swap_combine(
    seps_lambda: Dict[Tuple, SeparatorCertificate],
    seps_delta: Dict[Tuple, SeparatorCertificate],
    G: HomoPoly,
) -> List[SeparatorCertificate]:
    """Combine degree-xi separators for Lambda with degree-(xi-zeta)
    separators for Delta through a degree-zeta form G that vanishes on
    Lambda and misses Delta; returns verified degree-xi certificates for
    the union."""
    lam_pts = [c.point for c in seps_lambda.values()]
    del_pts = [c.point for c in seps_delta.values()]
    field = G.field
    if seps_lambda and seps_delta:
        xi = next(iter(seps_lambda.values())).form.degree
        xi_minus_zeta = next(iter(seps_delta.values())).form.degree
        if G.degree != xi - xi_minus_zeta:
            raise DegreeMismatch(
                f"deg G = {G.degree} != {xi} - {xi_minus_zeta}"
            )
    overlap = {p.coords for p in lam_pts} & {p.coords for p in del_pts}
    if overlap:
        raise Overlap(f"sets share {sorted(overlap)}")
    for p in lam_pts:
        if eval_poly(G, p.coords):
            raise GVanishesOnDelta(f"G must vanish on Lambda; nonzero at {p}")
    for q in del_pts:
        if not eval_poly(G, q.coords):
            raise GVanishesOnDelta(f"G vanishes at {q} in Delta")
    if not seps_delta:
        return list(seps_lambda.values())

    union = point_set(
        lam_pts + del_pts,
        ambient_dim=(lam_pts or del_pts)[0].ambient_dim,
        field=field,
    )
    out: List[SeparatorCertificate] = []
    # Delta points: multiply the small separator up by G
    g_certs: Dict[Tuple, HomoPoly] = {}
    for key, cert in seps_delta.items():
        g_certs[key] = G * cert.form
        combined = SeparatorCertificate(cert.point, g_certs[key])
        if not combined.verify(union):
            raise VerificationFailure(f"combined Delta certificate for {cert.point} failed")
        out.append(combined)
    # Lambda points: correct F by multiples of the G_i
    for cert in seps_lambda.values():
        F = cert.form
        corrected = F
        for key, cert_d in seps_delta.items():
            Qi = cert_d.point
            Gi = g_certs[key]
            mu = field.neg(field.div(eval_poly(F, Qi.coords), eval_poly(Gi, Qi.coords)))
            if mu:
                corrected = corrected + Gi.scale(mu)
        combined = SeparatorCertificate(cert.point, corrected)
        if not combined.verify(union):
            raise VerificationFailure(f"combined Lambda certificate for {cert.point} failed")
        out.append(combined)
    return out


# --- incidence counts -------------------------------------------------------


def max_on_lines(sigma: PointSet) -> Tuple[int, Tuple[ProjPoint, ProjPoint]]:
    """Exact max of |line ∩ sigma| over all lines, via pair iteration."""
    pts = sigma.points
    if len(pts) < 2:
        raise TooFew("need at least 2 points")
    best, witness = 0, None
    for i, j in itertools.combinations(range(len(pts)), 2):
        count = 2
        for k in range(len(pts)):
            if k in (i, j):
                continue
            if span_dim([pts[i], pts[j], pts[k]]) == 1:
                count += 1
        if count > best:
            best, witness = count, (pts[i], pts[j])
    return best, witness


def _line_form(p: ProjPoint, q: ProjPoint, field: FieldSpec) -> HomoPoly:
    """Linear form in 3 variables vanishing on the line through p, q in P^2."""
    coeffs = nullspace([list(p.coords), list(q.coords)], 3, field)[0]
    basis = monomial_basis(3, 1)
    return _form_from_coeffs(coeffs, basis, 3, 1, field)


def _count_on_form(form: HomoPoly, sigma: PointSet) -> int:
    return sum(1 for pt in sigma if not eval_poly(form, pt.coords))


def max_on_conics(sigma: PointSet, cap: int = 40) -> Tuple[int, Optional[HomoPoly]]:
    """Exact max of |conic ∩ sigma| over all conics of P^2, with a witness.

    Candidates: conics through non-degenerate 5-subsets, products of
    two secant lines, a max-line plus a one-point residual line, and the
    min(|sigma|, 5) baseline (any <= 5 points lie on a conic).
    """
    if sigma.ambient_dim != 2:
        raise WrongAmbient("conic counting lives in P^2")
    if len(sigma) > cap:
        raise TooLarge(f"|sigma| = {len(sigma)} > cap {cap}")
    field = sigma.field
    pts = sigma.points
    basis2 = monomial_basis(3, 2)

    def conic_through(subset) -> List[HomoPoly]:
        rows = [point_row(pt.coords, basis2, field) for pt in subset]
        return [
            _form_from_coeffs(v, basis2, 3, 2, field)
            for v in nullspace(rows, 6, field)
        ]

    best, witness = 0, None
    if len(pts) <= 5:
        sols = conic_through(pts)
        return len(pts), (sols[0] if sols else None)

    # baseline: any 5 points lie on some conic
    base_sols = conic_through(pts[:5])
    best, witness = 5, base_sols[0]

    # irreducible-type candidates from non-degenerate 5-subsets
    for subset in itertools.combinations(pts, 5):
        sols = conic_through(subset)
        if len(sols) == 1:
            cnt = _count_on_form(sols[0], sigma)
            if cnt > best:
                best, witness = cnt, sols[0]
        # solution dim >= 2: four of the five are collinear; reducible
        # conics through them are covered by the line-pair candidates

    # line pairs: both lines secant to sigma
    lines = {}
    for i, j in itertools.combinations(range(len(pts)), 2):
        form = _line_form(pts[i], pts[j], field)
        key = tuple(sorted(form.terms.items()))
        lines.setdefault(key, form)
    line_list = list(lines.values())
    for l1, l2 in itertools.combinations_with_replacement(line_list, 2):
        conic = l1 * l2
        cnt = _count_on_form(conic, sigma)
        if cnt > best:
            best, witness = cnt, conic

    # max line plus a residual line through one leftover point
    nu1, pair = max_on_lines(sigma)
    line = _line_form(pair[0], pair[1], field)
    leftovers = [pt for pt in pts if eval_poly(line, pt.coords)]
    if leftovers and nu1 + 1 > best:
        q = leftovers[0]
        others = [pt for pt in pts if pt.coords != q.coords]
        for ref in _reference_directions(q, field):
            cand = _line_form(q, ref, field)
            if all(eval_poly(cand, pt.coords) for pt in others):
                conic = line * cand
                cnt = _count_on_form(conic, sigma)
                if cnt > best:
                    best, witness = cnt, conic
                break
    return best, witness


def _reference_directions(q: ProjPoint, field: FieldSpec):
    """A few points distinct from q to span candidate lines through q."""
    refs = []
    n = len(q.coords)
    for i in range(n):
        unit = tuple(field.one if j == i else field.zero for j in range(n))
        if unit != q.coords:
            refs.append(ProjPoint(unit, field))
    if field.is_prime_field:
        for a in range(field.p):
            cand = canonicalize([field.one, field.of_int(a), field.one], field)
            if cand.coords != q.coords:
                refs.append(cand)
    else:
        for a in range(20):
            cand = canonicalize([field.one, field.of_int(a), field.one], field)
            if cand.coords != q.coords:
                refs.append(cand)
    return refs


# --- set-theoretic intersection certificates ---------------------------------


@dataclass
class IncidenceCertificate:
    generators: List[HomoPoly]
    bound_per_degree: int  # at most bound_per_degree * k points on any degree-k curve

    def bound(self, k: int) -> int:
        return self.bound_per_degree * k


def incidence_bound_from_intersection(
    sigma: PointSet,
    generators: Sequence[HomoPoly],
    scan_cap: int = DEFAULT_SCAN_CAP,
    threads: int = 1,
) -> IncidenceCertificate:
    """Verify by full scan that the common zero locus of the generators is
    exactly sigma; then Bezout bounds incidences by deg * k."""
    from .errors import LocusMismatch
    from .scan import projective_zeros

    degrees = {g.degree for g in generators}
    if len(degrees) != 1:
        raise DegreeMismatch("generators must share a degree")
    m = degrees.pop()
    field = sigma.field
    if not field.is_prime_field:
        raise ValueError("locus verification requires a prime field")
    p = field.p
    rows = projective_zeros(list(generators), sigma.ambient_dim, p, scan_cap, threads)
    locus = {tuple(int(v) for v in row) for row in rows}
    sigma_keys = {pt.coords for pt in sigma}
    if locus != sigma_keys:
        missing = sorted(sigma_keys - locus)
        extra = sorted(locus - sigma_keys)
        raise LocusMismatch(
            f"locus mismatch: {len(missing)} missing, {len(extra)} extra",
            missing=missing,
            extra=extra,
        )
    return IncidenceCertificate(list(generators), m)


# --- blown-up-plane base-point checker ----------------------------------------


@dataclass
class BeseReport:
    xi: int
    delta: int
    hypotheses_hold: str  # yes | no | unknown
    hypothesis_detail: List[Tuple[str, str]]
    scan_result: str  # free | base_point | not_scanned
    witness: Optional[object] = None
    scan_label: str = "F_p-rational scan"

    def to_json(self) -> str:
        wit = None
        if self.witness is not None:
            wit = str(self.witness)
        return json.dumps(
            {
                "xi": self.xi,
                "delta": self.delta,
                "hypotheses_hold": self.hypotheses_hold,
                "hypothesis_detail": self.hypothesis_detail,
                "scan_result": self.scan_result,
                "witness": wit,
                "scan_label": self.scan_label,
            },
            indent=2,
        )


def _tangent_directions(pt: ProjPoint, p: int, field: FieldSpec):
    """The p+1 first-order directions at pt: P(F_p^3 / <pt>)."""
    # complete pt to a basis with two unit vectors
    n = len(pt.coords)
    space = RowSpace(n, field)
    space.add(list(pt.coords))
    units = []
    for i in range(n):
        unit = [field.one if j == i else field.zero for j in range(n)]
        if space.add(unit):
            units.append(tuple(unit))
        if len(units) == 2:
            break
    u1, u2 = units
    dirs = [u2]
    for a in range(p):
        dirs.append(tuple(field.add(x, field.mul(field.of_int(a), y)) for x, y in zip(u1, u2)))
    return dirs


def bese_check(
    sigma: PointSet,
    xi: int,
    incidence_cert: Optional[IncidenceCertificate] = None,
    scan: bool = True,
    scan_cap: int = DEFAULT_SCAN_CAP,
    threads: int = 1,
) -> BeseReport:
    """Check the blow-up base-point-freeness hypotheses for points of P^2 at
    degree xi, then exhaustively scan for F_p-rational base points including
    all first-order directions at the blown-up points themselves."""
    if xi < 3:
        raise XiTooSmall("the checker assumes xi >= 3")
    if sigma.ambient_dim != 2:
        raise WrongAmbient("the checker lives in P^2")
    field = sigma.field
    delta = len(sigma)
    half = (xi + 3) // 2
    cap_bound = max(half * (xi + 3 - half) - 1, half * half)
    detail: List[Tuple[str, str]] = []
    status = "yes"

    ok = delta <= cap_bound
    detail.append((f"delta = {delta} <= max-bound {cap_bound}", "yes" if ok else "no"))
    if not ok:
        status = "no"

    for k in range(1, half + 1):
        bound = k * (xi + 3 - k) - 2
        if delta <= bound:
            detail.append((f"k={k}: delta {delta} <= {bound} (vacuous)", "yes"))
            continue
        if k == 1:
            nu, _ = max_on_lines(sigma) if delta >= 2 else (delta, None)
            verdict = "yes" if nu <= bound else "no"
            detail.append((f"k=1: nu_1 = {nu} <= {bound}", verdict))
        elif k == 2:
            nu, _ = max_on_conics(sigma)
            verdict = "yes" if nu <= bound else "no"
            detail.append((f"k=2: nu_2 = {nu} <= {bound}", verdict))
        else:
            if incidence_cert is not None:
                nu_bound = incidence_cert.bound(k)
                verdict = "yes" if nu_bound <= bound else "unknown"
                detail.append(
                    (f"k={k}: certified nu_{k} <= {nu_bound}, need <= {bound}", verdict)
                )
            else:
                verdict = "unknown"
                detail.append((f"k={k}: no incidence bound available", "unknown"))
        if verdict == "no":
            status = "no"
        elif verdict == "unknown" and status == "yes":
            status = "unknown"

    scan_result, witness = "not_scanned", None
    if scan:
        if not field.is_prime_field:
            raise ValueError("the base-point scan requires a prime field")
        p = field.p
        mat = evaluation_matrix(sigma, xi)
        space = RowSpace(mat.ncols, field)
        for row in mat.rows:
            space.add(row)
        sigma_keys = {pt.coords for pt in sigma}
        scan_result = "free"
        for Q in enumerate_projective(2, p, scan_cap):
            if Q.coords in sigma_keys:
                for v in _tangent_directions(Q, p, field):
                    row = directional_row(Q.coords, v, mat.basis, field)
                    if space.contains(row):
                        scan_result, witness = "base_point", (Q, v)
                        break
                if witness:
                    break
            else:
                row = point_row(Q.coords, mat.basis, field)
                if space.contains(row):
                    scan_result, witness = "base_point", Q
                    break
    return BeseReport(
        xi=xi,
        delta=delta,
        hypotheses_hold=status,
        hypothesis_detail=detail,
        scan_result=scan_result,
        witness=witness,
    )
