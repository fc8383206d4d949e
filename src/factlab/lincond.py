"""Evaluation matrices, the independence defect, separator certificates,
the certificate combiner, exact line/conic incidence counts, intersection
certificates, and the blown-up-plane base-point checker.

evaluation_matrix is the package's one builder of monomial rows, which
every evaluation matrix here and in families reads.  It returns one
(points, monomials) array on both fields: over F_p the stacked int64
columns of scan.monomial_columns, over QQ an object array of Fractions
evaluated point by point.  That is the one field test here: everything
else hands the arrays to linalg as they are (its eliminations, kernels,
products and ratio keys) and reads its answers, arrays of the same two
kinds, with no field test of its own.

The defect of a finite reduced point set at degree xi is |set| - rank of
its evaluation matrix; defect 0 means the points impose independent linear
conditions on degree-xi forms.  A separator for each point is the
certificate of that: every separator, or the span witness of a point that
has none, is read off one linalg.duals of the evaluation matrix, its dual
basis and its row relations, and checked before it is returned.

The kernel of the evaluation matrix is the space of degree-xi forms through
the set, and its rows span exactly the annihilator of that kernel.  So the
base points of the blown-up plane are the common zeros of the kernel forms
(one projective_zeros scan) and, at a point of the set, the directions on
which every kernel form's gradient vanishes: every gradient at every point
is one int64 product, their ranks one echelon_mod_p stack.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import linalg
from .errors import (
    DegreeMismatch,
    GVanishesOnDelta,
    LocusMismatch,
    NotInSet,
    Overlap,
    TooFew,
    TooLarge,
    VerificationFailure,
    WrongAmbient,
    XiTooSmall,
)
from .fields import FieldSpec, Scalar
from .linalg import duals, matmul, matmul_mod_p, nullspace, rank_and_dependents, rref_subsets
from .poly import HomoPoly, eval_poly, form_from_coeffs, monomial_basis, point_row
from .projgeom import PointSet, ProjPoint, check_scan_cap, first_copies, point_set
from .report import dumps
from .scan import monomial_columns, projective_zeros


# --- evaluation matrices ------------------------------------------------------

EVAL_CAP = 10**7  # entries of an evaluation matrix, |sigma| * C(n + xi, n)


def check_eval_cap(size: int, n: int, xi: int) -> None:
    """Raise TooLarge above EVAL_CAP entries; an empty set still builds the basis."""
    entries = max(size, 1) * comb(n + xi, n)
    if entries > EVAL_CAP:
        raise TooLarge(f"degree-{xi} evaluation matrix on P^{n}: {max(size, 1)} x "
                       f"C({n + xi}, {n}) = {entries} entries > cap {EVAL_CAP}")


def evaluation_matrix(points: Sequence[Sequence[Scalar]], nvars: int, xi: int, field: FieldSpec):
    """The degree-xi monomial basis in nvars variables and one row of its
    values per coordinate tuple, in order, as one (len(points), len(basis))
    array: over F_p int64, the stacked columns of scan.monomial_columns at
    the points (entries in [0, p)); over QQ dtype object, point_row's
    Fractions.  ValueError for xi < 0, TooLarge above EVAL_CAP entries."""
    if xi < 0:
        raise ValueError("xi >= 0 required")
    check_eval_cap(len(points), nvars - 1, xi)
    basis = monomial_basis(nvars, xi)
    if not field.p:
        return basis, np.array([point_row(c, basis, field) for c in points],
                               dtype=object).reshape(len(points), len(basis))
    pts = np.asarray(points, dtype=np.int64).reshape(len(points), nvars)
    return basis, np.column_stack(list(monomial_columns(basis, pts, field.p)))


def _set_matrix(sigma: PointSet, xi: int):
    return evaluation_matrix(sigma.rows, sigma.ambient_dim + 1, xi, sigma.field)


# --- defect -------------------------------------------------------------


@dataclass
class DefectReport:
    size: int
    rank: int
    defect: int
    xi: int
    field: FieldSpec
    dependent_points: PointSet

    def to_json(self) -> str:
        return dumps(
            {
                "size": self.size,
                "rank": self.rank,
                "defect": self.defect,
                "xi": self.xi,
                "field": self.field.spec_string(),
                "dependent_points": self.dependent_points.rows,
            }
        )


def defect(sigma: PointSet, xi: int) -> DefectReport:
    """|sigma| - rank of the degree-xi evaluation matrix, and the points
    whose rows lie in the span of the rows before them (rank_and_dependents)."""
    basis, values = _set_matrix(sigma, xi)
    rank, deps = rank_and_dependents(values, len(basis), sigma.field)
    return DefectReport(
        size=len(sigma),
        rank=rank,
        defect=len(deps),
        xi=xi,
        field=sigma.field,
        dependent_points=sigma.take(deps),
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


def separator(sigma: PointSet, P: ProjPoint, xi: int):
    """Degree-xi certificate separating P from the rest of sigma, or the
    linear combination proving P's row is spanned by the others: both read
    off one linalg.duals of sigma's evaluation matrix (_dual_answer)."""
    j = sigma.index(P)
    if j is None:
        raise NotInSet(f"{P} not in the set")
    basis, values = _set_matrix(sigma, xi)
    return _dual_answer(sigma, j, basis, values, duals(values, sigma.field))


def _dual_answer(sigma: PointSet, j: int, basis, values, dual):
    """Point j's answer from dual = linalg.duals(values): with column j of
    the relations Y zero, the dual form, coefficients X[:, j] on the pivot
    monomials Q, which is 1 at point j and 0 at every other point; else the
    first relation y with y_j != 0 gives row j = sum of -y_i / y_j * row i.
    The form is checked by SeparatorCertificate.verify, the combination by
    rebuilding row j with one product, before either is returned."""
    field, (Q, X, Y), P = sigma.field, dual, sigma.point(j)
    hits = np.flatnonzero(Y[:, j])
    if not len(hits):
        coeffs = np.full(len(basis), field.zero, dtype=X.dtype)
        coeffs[Q] = X[:, j]
        cert = SeparatorCertificate(P, form_from_coeffs(basis, coeffs, field))
        if not cert.verify(sigma):
            raise VerificationFailure(f"separator for {P} failed its defining evaluations")
        return cert
    y = Y[hits[0]].tolist()
    scale = field.neg(field.inv(y.pop(j)))
    combo = [field.mul(scale, c) for c in y]
    if (matmul([combo], np.delete(values, j, axis=0), field) != values[j]).any():
        raise VerificationFailure(f"span witness for {P} does not reproduce its row")
    return SeparatorFailure(P, list(zip(sigma.without(P).points, combo)))


def all_separators(sigma: PointSet, xi: int) -> Dict[Tuple, SeparatorCertificate]:
    """Every point's separator from one linalg.duals of sigma's evaluation
    matrix; ValueError naming the first point that has none."""
    basis, values = _set_matrix(sigma, xi)
    dual, out = duals(values, sigma.field), {}
    for j in range(len(sigma)):
        cert = _dual_answer(sigma, j, basis, values, dual)
        if isinstance(cert, SeparatorFailure):
            raise ValueError(f"no degree-{xi} separator for {cert.point}")
        out[cert.point.coords] = cert
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

_CONIC_CAP = 40  # max_on_conics refuses larger sets (TooLarge)
_PENCIL_BLOCK = 256  # pencils per block of max_on_conics' count


def secant_lines(sigma: PointSet) -> Dict[Tuple, Tuple[Tuple[int, int], int]]:
    """Every line through two points of sigma, in order of its first pair:
    the reduced row echelon form of the pair (the same for every pair on the
    line) -> (first pair, bitmask of the indices of the points on it).

    The line's equations are nullspace of its key's rows, which is
    nullspace of any pair on it.
    """
    lines: Dict[Tuple, Tuple[Tuple[int, int], int]] = {}
    pairs = list(itertools.combinations(range(len(sigma)), 2))  # one stack
    for (i, j), R in zip(pairs, rref_subsets(sigma.rows, pairs, sigma.field)[0].tolist()):
        key = tuple(map(tuple, R))
        pair, mask = lines.get(key, ((i, j), 0))
        lines[key] = (pair, mask | (1 << i) | (1 << j))
    return lines


def max_on_lines(sigma: PointSet) -> Tuple[int, Tuple[ProjPoint, ProjPoint]]:
    """Exact max of |line ∩ sigma| over all lines, with the first pair (in
    pair order) spanning a line that attains it."""
    if len(sigma) < 2:
        raise TooFew("need at least 2 points")
    (i, j), mask = max(secant_lines(sigma).values(), key=lambda v: v[1].bit_count())
    return mask.bit_count(), (sigma.point(i), sigma.point(j))


def _pencils(table: np.ndarray, field: FieldSpec) -> Tuple[int, Tuple[int, ...]]:
    """max_on_conics' 5-subset candidates, from the (n, 6) array of the
    points' conic rows: the largest count, and the first 5-subset T + (e,)
    in (lex T, ascending e) order that holds more than five points and
    attains it; (5, the first five indices) when none does.  A 4-subset
    ending at the last point extends to no 5-subset.  The 4-subsets are
    reduced and counted in blocks of _PENCIL_BLOCK, so no stack of all
    C(n-1, 4) RREFs is held at once.
    """
    n = len(table)
    subsets = np.fromiter(itertools.combinations(range(n - 1), 4), dtype=(np.intp, 4))
    best, witness = 5, tuple(range(5))
    for lo in range(0, len(subsets), _PENCIL_BLOCK):
        block = subsets[lo:lo + _PENCIL_BLOCK]
        R, piv = rref_subsets(table, block, field)
        pencil = np.flatnonzero(piv[:, 3] < 6)  # no four collinear
        count = _pencil_counts(R[pencil], piv[pencil], block[pencil, 3], table, field)
        top = count.max(initial=0)
        if top > best:  # argmax is the first in row-major order: lex T, then ascending e
            k, e = divmod(int(count.argmax()), n)
            best, witness = int(top), tuple(block[pencil[k]].tolist()) + (e,)
    return best, witness


def _pencil_counts(R: np.ndarray, piv: np.ndarray, last: np.ndarray, table: np.ndarray,
                   field: FieldSpec) -> np.ndarray:
    """(len(R), n) array: for each 4-subset T with RREF R (rank 4, pivot
    columns piv) and last index last, the number of points on the conic
    through T and e at each e > last that is no base point, and 0 at every
    other e.

    Each point q is keyed by linalg.ratio_ids of its parameter b/a, for
    [a : b] = [c1(q) : c2(q)], or by -1 for [0 : 1]; the points of T and
    the base points, where a = b = 0, share the key -2.  The count at e is
    4 + base + the length of the run of e's key in its row."""
    m, n = len(R), len(table)
    pencils = linalg.kernel(R, piv, 4, field).transpose(1, 0, 2)  # c1 and c2 of every pencil
    a, b = matmul(pencils.reshape(-1, 6), table.T, field).reshape(2, m, n)
    on_all = (a == 0) & (b == 0)  # the 4 points of T and the base points
    key = linalg.ratio_ids(a, b, field)
    key[on_all] = -2
    # equal keys of a row are one run after a stable sort, the kind that
    # rref_mod_p runs: a quicksort or np.unique pages in about 0.4 MB more of
    # numpy's sort code, which shows in a short process's peak RSS
    order = np.argsort(key, axis=1, kind="stable")
    ranked = np.take_along_axis(key, order, axis=1)
    starts = np.ones((m, n), dtype=bool)
    starts[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    run = np.cumsum(starts) - 1  # runs never cross rows: each row starts one
    count = np.empty_like(key)
    np.put_along_axis(count, order, np.bincount(run)[run].reshape(m, n), axis=1)
    count += on_all.sum(axis=1, keepdims=True)  # 4 + base
    count[on_all | (np.arange(n) <= last[:, None])] = 0
    return count


def max_on_conics(sigma: PointSet) -> Tuple[int, HomoPoly]:
    """Exact max of |conic ∩ sigma| over all conics of P^2, with a witness.

    When sigma lies on a conic (its conic rows have rank < 6, as any five
    points do), the count is |sigma| and the witness the first form of that
    kernel.  Otherwise the candidates, each replacing the witness only when
    it holds strictly more points, are the first five points and the conic
    through each 5-subset with no four collinear (in lex order).  A line
    pair needs no candidate of its own: if one line holds three points of
    sigma and the other two more off it, five of them with no four
    collinear span that pair; and a line with at most one more point beats
    every such pair only when it holds all of sigma, which then lies on a
    conic.

    The 5-subsets are counted through pencils.  For each 4-subset T with no
    four collinear, the conics through T form a pencil spanned by c1, c2.
    Every other point q has a parameter [c1(q) : c2(q)], or is a base point
    of the pencil when both vanish.  The conic through T and a non-base
    point e holds T, the base points and every point with e's parameter.
    That is C(n, 4) eliminations of 4 x 6 matrices instead of C(n, 5) of
    5 x 6 ones, reduced and counted as arrays in blocks of _PENCIL_BLOCK
    pencils (_pencils), so the temporaries are O(_PENCIL_BLOCK * n).
    """
    if sigma.ambient_dim != 2:
        raise WrongAmbient("conic counting lives in P^2")
    if len(sigma) > _CONIC_CAP:
        raise TooLarge(f"|sigma| = {len(sigma)} > conic cap {_CONIC_CAP}")
    field = sigma.field
    basis2, rows = _set_matrix(sigma, 2)
    through = nullspace(rows, 6, field)
    if len(through):
        return len(sigma), form_from_coeffs(basis2, through[0], field)
    best, witness_subset = _pencils(rows, field)
    return best, form_from_coeffs(basis2, nullspace(rows[list(witness_subset)], 6, field)[0], field)


# --- set-theoretic intersection certificates ---------------------------------


@dataclass
class IncidenceCertificate:
    generators: List[HomoPoly]
    bound_per_degree: int  # at most bound_per_degree * k points on any degree-k curve

    def bound(self, k: int) -> int:
        return self.bound_per_degree * k


def incidence_bound_from_intersection(
    sigma: PointSet, generators: Sequence[HomoPoly]
) -> IncidenceCertificate:
    """Verify by full scan that the common zero locus of the generators is
    exactly sigma; then Bezout bounds incidences by deg * k."""
    degrees = {g.degree for g in generators}
    if len(degrees) != 1:
        raise DegreeMismatch("generators must share a degree")
    m = degrees.pop()
    field = sigma.field
    if not field.p:
        raise ValueError("locus verification requires a prime field")
    rows = projective_zeros(list(generators), sigma.ambient_dim, field.p)
    # each locus row's first copy in sigma + locus: an index below size when sigma holds it
    size = len(sigma)
    first = first_copies(np.concatenate([sigma.rows, rows]), field.p)[size:]
    held = np.zeros(size, dtype=bool)
    held[first[first < size]] = True
    extra = first >= size
    if extra.any() or not held.all():
        missing = sorted(map(tuple, sigma.rows[~held].tolist()))
        extra = sorted(map(tuple, rows[extra].tolist()))
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

    def to_json(self) -> str:
        wit = self.witness
        if isinstance(wit, tuple):  # (Q, v): a direction v at a point Q of sigma
            Q, v = wit
            wit = f"{Q} direction ({':'.join(map(str, v))})"
        elif wit is not None:
            wit = str(wit)
        return dumps(
            {
                "xi": self.xi,
                "delta": self.delta,
                "hypotheses_hold": self.hypotheses_hold,
                "hypothesis_detail": self.hypothesis_detail,
                "scan_result": self.scan_result,
                "witness": wit,
                "scan_label": None if self.scan_result == "not_scanned" else "F_p-rational scan",
            }
        )


def _first_base_point(sigma: PointSet, xi: int):
    """("base_point", witness) for the first F_p-rational base point of the
    degree-xi forms through sigma on the blow-up, in enumerate_projective
    order, or ("free", None): a point Q outside sigma where every kernel
    form g vanishes, or (Q, v) with Q in sigma and v the first direction of
    line_points(e_a, e_b) (a < b; e_last is at Q's last nonzero coordinate)
    with grad g(Q) . v = 0 for every g.

    Every gradient at every point of sigma is one matmul_mod_p: the
    degree-(xi-1) evaluation matrix re-indexed by d/dx_j x^m = m_j * x^(m -
    e_j), times the kernel.  By Euler each gradient at Q is orthogonal to Q:
    rank 2 leaves no direction, rank <= 1 the canonical r_b * e_a - r_a * e_b
    for the one row r the elimination leaves, or e_b when r_b = 0."""
    field, p = sigma.field, sigma.field.p
    basis, rows = _set_matrix(sigma, xi)
    vecs = nullspace(rows, len(basis), field)
    kernel = [form_from_coeffs(basis, v, field) for v in vecs]
    # with no degree-xi form through sigma every point is a base point
    zeros = projective_zeros(kernel, 2, p) if kernel else np.array([[1, 0, 0]], dtype=np.int64)
    monos, values = _set_matrix(sigma, xi - 1)
    at = {m: i for i, m in enumerate(monos)}
    shifted = [[at.get(tuple(e - (v == j) for v, e in enumerate(m)), 0) for m in basis]
               for j in range(3)]  # the index of m - e_j; any index where m_j = 0
    partials = values[:, shifted] * np.array(basis, dtype=np.int64).T % p  # (|sigma|, 3, len(basis))
    grads = matmul_mod_p(partials.reshape(-1, len(basis)), vecs.T, p).reshape(len(sigma), 3, -1)
    reduced, piv = linalg.echelon_mod_p(grads.transpose(0, 2, 1), p)  # k x 3 at each point
    rank, r = (piv < 3).sum(axis=1), reduced.sum(axis=1) % p
    # each zero's first copy in sigma + zeros: an index below len(sigma) when it lies on sigma
    at_sigma = first_copies(np.concatenate([sigma.rows, zeros]), p)[len(sigma):]
    on = at_sigma < len(sigma)
    base = ~on
    base[on] = rank[at_sigma[on]] < 2
    if not base.any():
        return "free", None
    k = int(base.argmax())
    Q = ProjPoint(tuple(zeros[k].tolist()), field)
    if not on[k]:
        return "base_point", Q
    i = at_sigma[k]
    a, b = sorted({0, 1, 2} - {max(j for j, c in enumerate(Q.coords) if c)})
    v = [0, 0, 0]
    v[a], v[b] = (1, -int(r[i, a]) * pow(int(r[i, b]), p - 2, p) % p) if r[i, b] else (0, 1)
    return "base_point", (Q, tuple(v))


def bese_check(
    sigma: PointSet,
    xi: int,
    incidence_cert: Optional[IncidenceCertificate] = None,
    scan: bool = True,
) -> BeseReport:
    """Check the blow-up base-point-freeness hypotheses for points of P^2 at
    degree xi, then exhaustively scan for F_p-rational base points including
    all first-order directions at the blown-up points themselves."""
    if xi < 3:
        raise XiTooSmall("the checker assumes xi >= 3")
    if sigma.ambient_dim != 2:
        raise WrongAmbient("the checker lives in P^2")
    field = sigma.field
    if scan:  # refuse a scan it cannot run before checking the hypotheses
        if not field.p:
            raise ValueError("the base-point scan requires a prime field")
        check_scan_cap(2, field.p)
        check_eval_cap(len(sigma), 2, xi)
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
            try:
                nu, _ = max_on_conics(sigma)
            except TooLarge as exc:  # above the conic count's cap: undecided, keep scanning
                verdict = "unknown"
                detail.append((f"k=2: {exc}", verdict))
            else:
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

    scan_result, witness = _first_base_point(sigma, xi) if scan else ("not_scanned", None)
    return BeseReport(
        xi=xi,
        delta=delta,
        hypotheses_hold=status,
        hypothesis_detail=detail,
        scan_result=scan_result,
        witness=witness,
    )
