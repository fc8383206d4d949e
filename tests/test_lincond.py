import itertools
import json
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import comb

import numpy as np
import pytest

import factlab.linalg as linalg
import factlab.lincond as lincond
import factlab.poly as poly
from factlab.cli import main
from factlab.errors import (
    DegreeMismatch,
    GVanishesOnDelta,
    LocusMismatch,
    NotInSet,
    Overlap,
    VerificationFailure,
    WrongAmbient,
    TooLarge,
    XiTooSmall,
)
from factlab.fields import GF, QQ
from factlab.lincond import (
    SeparatorCertificate,
    SeparatorFailure,
    all_separators,
    bese_check,
    defect,
    evaluation_matrix,
    incidence_bound_from_intersection,
    is_independent,
    max_on_conics,
    max_on_lines,
    point_row,
    separator,
    swap_combine,
)
from factlab.linalg import bareiss_rank, nullspace, rank, rank_and_dependents, rref_subsets
from factlab.poly import (eval_poly, eval_poly_horner, form_from_coeffs, make_poly, monomial_basis,
                          parse_poly)
from factlab.projgeom import canonicalize, dump_point_set, enumerate_projective, line_points, point_set
from factlab.rng import SplitMix64

F7 = GF(7)
F101 = GF(101)


def conic_points(p, count):
    """Points (1 : t : t^2) on the conic x*z = y^2, plus (0:0:1) if needed."""
    F = GF(p)
    pts = [canonicalize([1, t, (t * t) % p], F) for t in range(min(count, p))]
    if len(pts) < count:
        pts.append(canonicalize([0, 0, 1], F))
    return point_set(pts)


def test_evaluation_matrix_shape():
    sigma = conic_points(7, 4)
    basis, rows = evaluation_matrix([q.coords for q in sigma], 3, 2, sigma.field)
    assert len(rows) == 4 and len(basis) == 6


def test_defect_six_points_on_conic():
    sigma = conic_points(7, 6)
    assert defect(sigma, 2).defect == 1
    assert defect(sigma, 3).defect == 0
    rep = defect(sigma, 2)
    assert rep.size == 6 and rep.rank == 5
    assert len(rep.dependent_points) == 1


@pytest.mark.parametrize("p", [5, 101, 2**31 - 1])
def test_fp_defect_from_one_echelon(monkeypatch, p):
    """Over F_p defect reads its rank and dependents off the pivots of one
    echelon_mod_p of the transposed int64 matrix, with no full RREF and no
    RowSpace.  They are those of rank_and_dependents on the list matrix,
    and a point is dependent exactly when it leaves the rank (rref_mod_p)
    of the rows before it unchanged; the points have entries 0..3 and lead
    1, so the matrix is an integer matrix, and at p = 101 and 2^31 - 1 they
    are also those of bareiss_rank over QQ, prefix by prefix."""
    def refused(*args):
        raise AssertionError("a list elimination or a full RREF on the F_p path")

    rng = random.Random(p)
    F = GF(p)
    stacks = []
    echelon = linalg.echelon_mod_p
    seen_dependents = False
    for n, xi, size in [(2, 1, 5), (2, 2, 9), (2, 3, 14), (3, 2, 14), (3, 3, 25), (3, 2, 1), (2, 2, 0)]:
        pts = [(1, t) + (0,) * (n - 1) for t in range(4)][:size // 3]  # collinear
        while len(pts) < size:
            c = (1,) + tuple(rng.randrange(4) for _ in range(n))
            if c not in pts:
                pts.append(c)
        sigma = point_set([canonicalize(list(c), F) for c in pts], ambient_dim=n, field=F)
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "rref_mod_p", refused)
            patch.setattr(linalg, "RowSpace", refused)
            patch.setattr(linalg, "echelon_mod_p", lambda a, q: stacks.append(a.shape) or echelon(a, q))
            rep = defect(sigma, xi)
        basis, rows = evaluation_matrix(pts, n + 1, xi, F)
        assert stacks.pop() == (1, len(basis), size) and not stacks
        rank, deps = rank_and_dependents(rows.tolist(), len(basis), F)
        assert (rep.size, rep.rank, rep.defect) == (size, rank, size - rank)
        ranks = [linalg.rank(rows[:i], F) for i in range(size + 1)]
        assert deps == [i for i in range(size) if ranks[i + 1] == ranks[i]]
        assert [pt.coords for pt in rep.dependent_points] == [pts[i] for i in deps]
        seen_dependents |= bool(deps)
        if p > 5:
            _, integer_rows = evaluation_matrix(pts, n + 1, xi, QQ)
            prefix = [bareiss_rank(integer_rows[:i]) for i in range(size + 1)]
            assert rank == prefix[-1]
            assert deps == [i for i in range(size) if prefix[i + 1] == prefix[i]]
    assert seen_dependents


def test_defect_report_json_exact():
    rep = defect(conic_points(7, 6), 2)
    import json

    data = json.loads(rep.to_json())
    assert data["defect"] == 1 and data["field"] == "Fp:7"


def test_is_independent():
    assert is_independent(conic_points(7, 5), 2)
    assert not is_independent(conic_points(7, 6), 2)


def test_separator_success_and_failure():
    sigma = conic_points(7, 6)
    # at xi = 3 every point separates
    for pt in sigma:
        cert = separator(sigma, pt, 3)
        assert isinstance(cert, SeparatorCertificate)
        assert cert.verify(sigma)
    # at xi = 2 the defect is 1: some point fails with a span witness
    failures = [separator(sigma, pt, 2) for pt in sigma]
    bad = [r for r in failures if isinstance(r, SeparatorFailure)]
    assert bad
    fail = bad[0]
    # the witness combination reproduces the failing row exactly
    basis = monomial_basis(3, 2)
    others = sigma.without(fail.point)
    target = point_row(fail.point.coords, basis, sigma.field)
    acc = [0] * len(basis)
    for q, c in fail.combination:
        row = point_row(q.coords, basis, sigma.field)
        acc = [(a + c * v) % 7 for a, v in zip(acc, row)]
    assert acc == target


@pytest.mark.parametrize("field", [F101, QQ], ids=["F101", "QQ"])
def test_separator_checker_refuses_altered_certificates(field):
    """SeparatorCertificate.verify refuses a certificate changed in one
    place.  From the good degree-3 separator F_P of each point P of seven
    seeded points of P^2: F_P + c * F_Q for Q the first, a middle and the
    last point of the others (nonzero at Q, still nonzero at P), and each
    form of a basis of the cubics through the whole set (zero at P)."""
    rng = random.Random(41)
    pts, seen = [], set()
    while len(pts) < 7:
        c = [rng.randint(-20, 20) for _ in range(3)]
        if not any(c):
            continue
        q = canonicalize(c, field)
        if q.coords not in seen:
            seen.add(q.coords)
            pts.append(q)
    sigma = point_set(pts)
    basis, values = evaluation_matrix(sigma.rows, 3, 3, field)
    through_all = [form_from_coeffs(basis, v, field) for v in nullspace(values, len(basis), field)]
    assert len(through_all) == len(basis) - len(sigma)
    seps = {pt.coords: separator(sigma, pt, 3) for pt in sigma}
    assert all(isinstance(c, SeparatorCertificate) and c.verify(sigma) for c in seps.values())
    c = field.of_int(3)
    for P in sigma:
        good = seps[P.coords].form
        others = [q for q in sigma if q != P]
        for Q in (others[0], others[len(others) // 2], others[-1]):
            altered = good + seps[Q.coords].form.scale(c)
            assert eval_poly(altered, Q.coords) and eval_poly(altered, P.coords)
            assert not SeparatorCertificate(P, altered).verify(sigma), (P, Q)
        for form in through_all:
            assert not SeparatorCertificate(P, form).verify(sigma), P


@pytest.mark.parametrize("p", [7, 101, 2**31 - 1])
def test_fp_evaluation_matrix_is_an_int64_array_of_point_rows(p):
    """Over F_p evaluation_matrix returns one int64 array whose rows are
    point_row's; over QQ one object array whose rows are point_row's."""
    F = GF(p)
    rng = SplitMix64(p)
    for nvars, xi, size in [(3, 0, 4), (3, 2, 7), (4, 3, 5), (2, 5, 1), (3, 2, 0)]:
        pts = [tuple(rng.below(p) for _ in range(nvars)) for _ in range(size)]
        basis, values = evaluation_matrix(pts, nvars, xi, F)
        assert basis == monomial_basis(nvars, xi)
        assert isinstance(values, np.ndarray) and values.dtype == np.int64
        assert values.shape == (size, len(basis))
        assert values.tolist() == [point_row(c, basis, F) for c in pts]
    basis, rows = evaluation_matrix([(1, 2, 3)], 3, 2, QQ)
    assert isinstance(rows, np.ndarray) and rows.dtype == object and rows.shape == (1, len(basis))
    assert rows.tolist() == [point_row((1, 2, 3), basis, QQ)]


def test_separators_over_the_largest_field_check_by_horner(monkeypatch, product_paths):
    """Over F_(2^31 - 1) separator and all_separators read their answers
    off one elimination and multiply arrays only to rebuild a span witness's
    row, by linalg.matmul alone, which keeps every sum exact (an np.int64
    sum of three products near p^2 overflows): each product is
    matmul_mod_p's int64 sum of terms reduced one by one.  Every certificate
    form, checked with eval_poly_horner, vanishes on the set but at its
    point, at xi = 2 and 3 on 9 seeded points of P^3, and on 6 points of a
    conic at xi = 2 every span witness rebuilds its point's row."""
    p = 2**31 - 1
    F = GF(p)
    rng = SplitMix64(31)
    seen = set()
    real_matmul = lincond.matmul
    monkeypatch.setattr(lincond, "matmul", lambda a, b, field: seen.add(field)
                        or real_matmul(a, b, field))
    space = point_set([canonicalize([1] + [rng.below(p) for _ in range(3)], F) for _ in range(9)])
    conic = point_set([canonicalize([1, t, t * t % p], F) for t in (rng.below(p) for _ in range(6))])
    for xi in (2, 3):
        seps = all_separators(space, xi)
        assert list(seps) == [q.coords for q in space]
        for cert in seps.values():
            assert [eval_poly_horner(cert.form, q.coords) != 0 for q in space] == [
                q == cert.point for q in space]
    basis = monomial_basis(3, 2)
    for pt in conic:
        fail = separator(conic, pt, 2)
        assert isinstance(fail, SeparatorFailure)
        acc = [0] * len(basis)
        for q, c in fail.combination:
            acc = [(a + c * v) % p for a, v in zip(acc, point_row(q.coords, basis, F))]
        assert acc == point_row(pt.coords, basis, F)
    assert seen == {F} and set(product_paths) == {"int64"}


@pytest.mark.parametrize("field", [F101, QQ], ids=["F101", "QQ"])
def test_all_separators_run_one_elimination(monkeypatch, field):
    """all_separators on N points reduces one matrix, [M | I_N] of width
    C(3 + 3, 3) + N at degree 3 in P^3, whatever N is (over F_p one
    echelon_mod_p): no elimination per point.  Every certificate passes
    verify, and its form is 1 at its point."""
    stacks, echelons = [], []
    reduce_stack, echelon = linalg._rref_stack, linalg.echelon_mod_p
    monkeypatch.setattr(linalg, "_rref_stack",
                        lambda stack, f: stacks.append(stack.shape) or reduce_stack(stack, f))
    monkeypatch.setattr(linalg, "echelon_mod_p", lambda a, p: echelons.append(p) or echelon(a, p))
    rng = random.Random(24)
    for size in (1, 4, 9, 16):
        pts = []
        while len(pts) < size:
            c = [rng.randint(-9, 9) for _ in range(4)]
            if any(c) and canonicalize(c, field) not in pts:
                pts.append(canonicalize(c, field))
        sigma = point_set(pts)
        stacks.clear()
        echelons.clear()
        seps = all_separators(sigma, 3)
        assert stacks == [(1, size, 20 + size)] and len(echelons) == (1 if field.p else 0)
        assert list(seps) == [q.coords for q in sigma]
        for cert in seps.values():
            assert cert.verify(sigma) and eval_poly(cert.form, cert.point.coords) == field.one


def test_separator_not_in_set():
    sigma = conic_points(7, 4)
    outsider = canonicalize([1, 5, 3], F7)
    assert outsider not in sigma
    with pytest.raises(NotInSet):
        separator(sigma, outsider, 2)


def test_separator_refused_when_verify_fails(monkeypatch):
    sigma = conic_points(7, 6)
    monkeypatch.setattr(SeparatorCertificate, "verify", lambda self, sigma: False)
    with pytest.raises(VerificationFailure):
        separator(sigma, sigma.points[0], 3)


@pytest.mark.parametrize("witness", [None, "zeros"])
def test_separator_witness_refused_unless_it_reproduces_the_row(monkeypatch, tmp_path,
                                                                 capsys, witness):
    """An answer read off linalg.duals is printed only once it checks: with
    relations that name no point (None) the dual form of a spanned point
    fails SeparatorCertificate.verify, and with a relation that gives the
    zero combination ("zeros") the span witness does not rebuild P's row.
    Either raises VerificationFailure, and the CLI exits 5 with nothing on
    stdout."""
    sigma = conic_points(7, 6)
    index = next(i for i, pt in enumerate(sigma)
                 if isinstance(separator(sigma, pt, 2), SeparatorFailure))
    real_duals = lincond.duals

    def tampered(values, field):
        Q, X, Y = real_duals(values, field)
        Y = np.zeros_like(Y)
        if witness == "zeros":
            Y[:, index] = 1
        return Q, X, Y

    monkeypatch.setattr(lincond, "duals", tampered)
    message = "span witness" if witness else "failed its defining evaluations"
    with pytest.raises(VerificationFailure, match=message):
        separator(sigma, sigma.points[index], 2)
    path = tmp_path / "conic.points"
    path.write_text(dump_point_set(sigma))
    capsys.readouterr()
    assert main(["separator", str(path), "--xi", "2", "--point", str(index)]) == 5
    assert capsys.readouterr().out == ""


def _quadric_through(sigma, miss, rng):
    field = sigma.field
    basis = monomial_basis(sigma.ambient_dim + 1, 2)
    rows = [point_row(q.coords, basis, field) for q in sigma]
    ker = nullspace(rows, len(basis), field)
    p = field.p
    for _ in range(100):
        coeffs = [0] * len(basis)
        for vec in ker.tolist():
            c = rng.below(p)
            for j, v in enumerate(vec):
                coeffs[j] = (coeffs[j] + c * v) % p
        g = make_poly(sigma.ambient_dim + 1, 2, {m: c for m, c in zip(basis, coeffs) if c}, field)
        if not g.is_zero() and all(eval_poly(g, q.coords) for q in miss):
            return g
    raise AssertionError("no quadric found")


def test_swap_combine(double_solid_r2, monkeypatch):
    lam = double_solid_r2.sing
    rng = SplitMix64(9)
    delta_pts = []
    while len(delta_pts) < 2:
        q = canonicalize([1, rng.below(101), rng.below(101), rng.below(101)], F101)
        if q not in lam and q not in delta_pts:
            delta_pts.append(q)
    delta = point_set(delta_pts, ambient_dim=3, field=F101)
    seps_lam = all_separators(lam, 3)
    seps_delta = all_separators(delta, 1)
    G = _quadric_through(lam, delta_pts, rng)
    certs = swap_combine(seps_lam, seps_delta, G)
    assert len(certs) == 8
    union = point_set(list(lam) + delta_pts, ambient_dim=3, field=F101)
    assert all(c.verify(union) for c in certs)
    # error paths
    overlap_delta = point_set(list(lam.points[:2]), ambient_dim=3, field=F101)
    with pytest.raises(Overlap):
        swap_combine(seps_lam, all_separators(overlap_delta, 1), G)
    wrong_deg = _quadric_through(lam, delta_pts, rng) * parse_poly("x", 4, F101)
    with pytest.raises(DegreeMismatch):
        swap_combine(seps_lam, seps_delta, wrong_deg)
    not_through = parse_poly("x^2 + y^2 + z^2 + w^2", 4, F101)
    with pytest.raises(GVanishesOnDelta):
        swap_combine(seps_lam, seps_delta, not_through)
    # a combined certificate that fails its re-check is refused, not returned
    monkeypatch.setattr(SeparatorCertificate, "verify", lambda self, sigma: False)
    with pytest.raises(VerificationFailure):
        swap_combine(seps_lam, seps_delta, G)


def test_max_on_lines():
    F = GF(11)
    pts = [canonicalize(c, F) for c in ([1, 0, 0], [1, 1, 0], [1, 2, 0], [0, 0, 1])]
    sigma = point_set(pts)
    count, witness = max_on_lines(sigma)
    assert count == 3
    assert witness[0].coords[2] == 0 and witness[1].coords[2] == 0


def test_max_on_conics_on_conic():
    sigma = conic_points(11, 7)
    count, witness = max_on_conics(sigma)
    assert count == 7
    assert all(not eval_poly(witness, q.coords) for q in sigma)


def test_max_on_conics_line_pair():
    F = GF(11)
    # 4 points on {z=0} and 3 on {y=0}: a line pair holds all 7
    pts = [canonicalize([1, t, 0], F) for t in range(4)]
    pts += [canonicalize([1, 0, t], F) for t in range(1, 3)]
    pts.append(canonicalize([0, 0, 1], F))
    sigma = point_set(pts)
    count, witness = max_on_conics(sigma)
    assert count == 7


def test_max_on_conics_wrong_ambient():
    F = GF(11)
    pts = [canonicalize([1, t, 0, 0], F) for t in range(3)]
    with pytest.raises(WrongAmbient):
        max_on_conics(point_set(pts))


def test_incidence_certificate():
    F = GF(11)
    # {x*z = y^2} meet {x = z}: x = z, y^2 = x^2 -> (1, 1, 1), (1, -1, 1)
    g1 = parse_poly("x*z - y^2", 3, F)
    g2 = parse_poly("x^2 - z^2", 3, F)  # same degree as g1
    sigma = point_set([canonicalize([1, 1, 1], F), canonicalize([1, 10, 1], F)])
    cert = incidence_bound_from_intersection(sigma, [g1, g2])
    assert cert.bound(1) == 2 and cert.bound(3) == 6
    wrong = point_set([canonicalize([1, 1, 1], F)])
    with pytest.raises(LocusMismatch):
        incidence_bound_from_intersection(wrong, [g1, g2])


def test_bese_hypothesis_lines_from_an_incidence_certificate():
    # the 4 x 4 grid cut out by x(x-z)(x-2z)(x-3z) and y(y-z)(y-2z)(y-3z):
    # at xi = 5 its 16 points exceed the k = 3 and k = 4 bounds 13 and 14, so
    # those lines read the certified bound 4k: 12 <= 13 holds, 16 <= 14 not
    F = GF(11)
    gx = parse_poly("x^4 - 6*x^3*z + 11*x^2*z^2 - 6*x*z^3", 3, F)
    gy = parse_poly("y^4 - 6*y^3*z + 11*y^2*z^2 - 6*y*z^3", 3, F)
    sigma = point_set([canonicalize([a, b, 1], F) for a in range(4) for b in range(4)])
    cert = incidence_bound_from_intersection(sigma, [gx, gy])
    rep = bese_check(sigma, 5, incidence_cert=cert, scan=False)
    assert rep.hypothesis_detail[-2:] == [
        ("k=3: certified nu_3 <= 12, need <= 13", "yes"),
        ("k=4: certified nu_4 <= 16, need <= 14", "unknown"),
    ]
    assert rep.hypotheses_hold == "unknown"
    # without the certificate neither line is decided
    plain = bese_check(sigma, 5, scan=False)
    assert [v for _, v in plain.hypothesis_detail[-2:]] == ["unknown", "unknown"]


def test_bese_xi_too_small():
    with pytest.raises(XiTooSmall):
        bese_check(conic_points(11, 4), 2)


def test_bese_free_on_generic_points():
    F = GF(11)
    rng = SplitMix64(4)
    pts = []
    seen = set()
    while len(pts) < 5:
        q = canonicalize([1, rng.below(11), rng.below(11)], F)
        if q.coords not in seen:
            seen.add(q.coords)
            pts.append(q)
    sigma = point_set(pts)
    rep = bese_check(sigma, 3)
    assert rep.hypotheses_hold in ("yes", "unknown")
    assert rep.scan_result in ("free", "base_point")
    # json serialization carries the mod-p label
    assert "F_p-rational scan" in rep.to_json()


def test_bese_detects_base_point_on_overloaded_line():
    F = GF(11)
    # 6 collinear points at xi = 3: a line with nu_1 = 6 > 1*(3+3-1)-2 = 3
    pts = [canonicalize([1, t, 0], F) for t in range(6)]
    sigma = point_set(pts)
    rep = bese_check(sigma, 3)
    assert rep.hypotheses_hold == "no"


def _seeded_plane_set(rng, p, size, kind):
    """size distinct points of P^2(F_p); "collinear" and "conic" draw most of
    them from the line z = 2y + x or the conic x*z = y^2, "pair_and_conic"
    from that line, the line y = 0 and that conic."""
    F = GF(p)
    pts, seen = [], set()
    while len(pts) < size:
        t = rng.randrange(p)
        if kind == "collinear" and rng.random() < 0.6:
            c = [1, t, (2 * t + 1) % p]
        elif kind == "conic" and rng.random() < 0.6:
            c = [1, t, t * t % p]
        elif kind == "pair_and_conic" and rng.random() < 0.8:
            c = ([1, t, (2 * t + 1) % p], [1, 0, t], [1, t, t * t % p])[rng.randrange(3)]
        else:
            c = [rng.randrange(p) for _ in range(3)]
            if not any(c):
                continue
        q = canonicalize(c, F)
        if q.coords not in seen:
            seen.add(q.coords)
            pts.append(q)
    return point_set(pts)


def _gradient_row(coords, direction, basis, p):
    """d/dt at t = 0 of each monomial along coords + t*direction, mod p."""
    row = []
    for m in basis:
        total = 0
        for i, e in enumerate(m):
            if e and direction[i]:
                v = e * direction[i]
                for j, x in enumerate(coords):
                    v *= x ** (m[j] - (j == i))
                total += v
        row.append(total % p)
    return row


def _tangent_directions(pt, field):
    """The p+1 first-order directions at pt: P(F_p^3 / <pt>)."""
    # pt and the unit vectors e_i, i != last, are a basis, where last is the
    # index of pt's last nonzero coordinate: e_last is the only unit vector
    # in the span of pt and the unit vectors before it
    last = max(i for i, c in enumerate(pt.coords) if c)
    u, v = [tuple(int(i == j) for j in range(3)) for i in range(3) if i != last]
    return line_points(u, v, field)


def _bese_oracle(sigma, xi):
    """First base point by row membership: rank of the evaluation rows of
    sigma with the candidate row appended, candidate by candidate (all the
    candidates reduced as one stack)."""
    p = sigma.field.p
    basis = monomial_basis(3, xi)
    rows = [point_row(q.coords, basis, sigma.field) for q in sigma]
    base = rank(rows, sigma.field) if rows else 0
    witnesses, candidates = [], []
    for Q in enumerate_projective(2, p):
        if Q not in sigma:
            witnesses.append(Q)
            candidates.append(point_row(Q.coords, basis, sigma.field))
            continue
        for v in _tangent_directions(Q, sigma.field):
            witnesses.append((Q, v))
            candidates.append(_gradient_row(Q.coords, v, basis, p))
    subsets = [tuple(range(len(rows))) + (len(rows) + k,) for k in range(len(candidates))]
    _, piv = rref_subsets(rows + candidates, subsets, sigma.field)
    for witness, rank_k in zip(witnesses, (piv < len(basis)).sum(axis=1)):
        if rank_k == base:
            return "base_point", witness
    return "free", None


def _bese_cases():
    rng = random.Random(2005)
    cases = []
    for p, xi, size, kind in [
        (3, 3, 5, "random"), (3, 4, 7, "random"), (5, 3, 6, "collinear"),
        (5, 3, 8, "conic"), (5, 4, 9, "collinear"), (7, 3, 4, "random"),
        (7, 3, 7, "collinear"), (7, 3, 7, "conic"), (7, 4, 8, "conic"),
        (7, 5, 6, "random"), (11, 3, 6, "random"), (11, 3, 5, "collinear"),
        (11, 4, 9, "conic"), (13, 3, 7, "conic"), (13, 3, 9, "random"),
    ]:
        cases.append((_seeded_plane_set(rng, p, size, kind), xi))
    return cases


def test_bese_scan_matches_row_membership_oracle():
    found = set()
    for sigma, xi in _bese_cases():
        rep = bese_check(sigma, xi)
        want = _bese_oracle(sigma, xi)
        assert (rep.scan_result, rep.witness) == want, (sigma.field.p, xi, list(sigma))
        found.add(type(rep.witness).__name__)
    # the set of cases reaches all three outcomes
    assert found == {"NoneType", "ProjPoint", "tuple"}


def test_bese_seeded_sweep_matches_row_membership_oracle():
    """200 seeded sets over F_3..F_13 at xi = 3..5, up to three more points
    than degree-xi forms have coefficients, so some kernels are empty."""
    rng = random.Random(21)
    found = Counter()
    for _ in range(200):
        p, xi = rng.choice((3, 5, 7, 11, 13)), rng.randint(3, 5)
        size = rng.randint(1, min(p * p + p + 1, comb(xi + 2, 2) + 3))
        sigma = _seeded_plane_set(rng, p, size, rng.choice(("random", "collinear", "conic",
                                                              "pair_and_conic")))
        rep = bese_check(sigma, xi)
        assert (rep.scan_result, rep.witness) == _bese_oracle(sigma, xi), (p, xi, list(sigma))
        found[type(rep.witness).__name__] += 1
    assert set(found) == {"NoneType", "ProjPoint", "tuple"} and min(found.values()) >= 20


def test_fp_bese_builds_no_gradient_form(monkeypatch):
    """Over F_p the directions come from one product and one elimination:
    no poly.gradient or partial, no dot and no point_row per point."""
    want = [(rep.scan_result, rep.witness) for rep in (bese_check(s, xi) for s, xi in _bese_cases())]

    def refused(*args):
        raise AssertionError("per-point Python evaluation on the F_p bese path")

    for owner, name in [(poly, "gradient"), (poly, "partial"), (poly, "point_row"),
                        (lincond, "point_row"), (linalg, "dot")]:
        monkeypatch.setattr(owner, name, refused)
    assert [(rep.scan_result, rep.witness)
            for rep in (bese_check(s, xi) for s, xi in _bese_cases())] == want


def _empty_kernel_set(p, xi, with_origin):
    """|Sigma| = C(xi+2, 2) points of P^2(F_p) that impose independent
    conditions at degree xi, so no degree-xi form passes through them."""
    rng = random.Random(17)
    F = GF(p)
    origin = canonicalize([1, 0, 0], F)
    while True:
        sigma = _seeded_plane_set(rng, p, comb(xi + 2, 2), "random")
        if (origin in sigma) == with_origin and defect(sigma, xi).defect == 0:
            return sigma


@pytest.mark.parametrize("with_origin", [False, True])
def test_bese_empty_kernel_every_point_is_a_base_point(with_origin):
    sigma = _empty_kernel_set(7, 3, with_origin)
    rep = bese_check(sigma, 3)
    origin = canonicalize([1, 0, 0], GF(7))
    if with_origin:
        assert rep.witness == (origin, _tangent_directions(origin, GF(7))[0])
    else:
        assert rep.witness == origin
    assert (rep.scan_result, rep.witness) == _bese_oracle(sigma, 3)


def test_tangent_directions_are_the_quotient_plane():
    """At every point of P^2(F_5), p+1 canonical directions, none in the
    span of the point and no two equal modulo it."""
    F = GF(5)
    for pt in enumerate_projective(2, 5):
        dirs = _tangent_directions(pt, F)
        assert len(dirs) == 6
        assert all(canonicalize(v, F).coords == v for v in dirs)
        assert all(rank([pt.coords, v, w], F) == 3 for v, w in itertools.combinations(dirs, 2))


@pytest.mark.parametrize("empty_kernel", [False, True])
def test_bese_scan_cap_exit_3(tmp_path, capsys, monkeypatch, empty_kernel):
    """P^2(F_10007) has 100 150 057 points, more than the fixed cap of 10^8:
    refused before the hypotheses are checked.  The same kind of set over
    F_7 is scanned."""
    for p, code in ((7, 0), (10007, 3)):
        sigma = _empty_kernel_set(p, 3, False) if empty_kernel else conic_points(p, 4)
        path = tmp_path / f"sigma{p}.points"
        path.write_text(dump_point_set(sigma))
        assert main(["bese", str(path), "--xi", "3"]) == code
    capsys.readouterr()

    def refused(*args):
        raise AssertionError("hypotheses checked before the scan cap")

    monkeypatch.setattr(lincond, "max_on_lines", refused)
    monkeypatch.setattr(lincond, "evaluation_matrix", refused)
    with pytest.raises(TooLarge):
        bese_check(sigma, 3)


def test_bese_witness_json():
    """A plain base point prints as a point, a direction at a point of the
    set as "<point> direction <direction>"."""
    F = GF(7)
    origin = canonicalize([1, 0, 0], F)
    rep = bese_check(conic_points(7, 7), 3)  # the 7 points (1:t:t^2)
    assert rep.witness == (origin, (0, 1, 0))
    assert json.loads(rep.to_json())["witness"] == "(1:0:0) direction (0:1:0)"
    rep = bese_check(_empty_kernel_set(7, 3, False), 3)
    assert rep.witness == origin
    assert json.loads(rep.to_json())["witness"] == "(1:0:0)"


def _lines_oracle(sigma):
    """max_on_lines by a rank computation for every triple (all triples
    reduced as one stack)."""
    pts = sigma.points
    n = len(pts)
    pairs = list(itertools.combinations(range(n), 2))
    triples = [(i, j, k) for i, j in pairs for k in range(n)]
    _, piv = rref_subsets([q.coords for q in pts], triples, sigma.field)
    ranks = (piv < sigma.ambient_dim + 1).sum(axis=1).tolist()
    best, witness = 0, None
    for t, (i, j) in enumerate(pairs):
        count = ranks[t * n:(t + 1) * n].count(2)
        if count > best:
            best, witness = count, (pts[i], pts[j])
    return best, witness


def test_max_on_lines_matches_triple_oracle():
    rng = random.Random(3)
    for p, size, kind in [
        (5, 8, "collinear"), (7, 12, "collinear"), (7, 10, "conic"),
        (11, 9, "random"), (11, 14, "collinear"), (13, 12, "conic"), (3, 13, "random"),
    ]:
        sigma = _seeded_plane_set(rng, p, size, kind)
        assert max_on_lines(sigma) == _lines_oracle(sigma)
    # lines of P^3 too
    F = GF(7)
    pts = [canonicalize([1, t, 2 * t % 7, 0], F) for t in range(5)]
    pts += [canonicalize([0, 1, t, 1], F) for t in range(3)]
    sigma = point_set(pts)
    assert max_on_lines(sigma) == _lines_oracle(sigma) and max_on_lines(sigma)[0] == 5


def _kernel_of_rref(R, pivots, ncols, field):
    """Basis of the right nullspace of a matrix whose reduced row echelon
    form is R with these pivot columns, on lists: one vector per free
    column, the reference for linalg.kernel."""
    basis = []
    for fcol in sorted(set(range(ncols)) - set(pivots)):
        v = [field.zero] * ncols
        v[fcol] = field.one
        for i, pcol in enumerate(pivots):
            v[pcol] = field.neg(R[i][fcol])
        basis.append(v)
    return basis


def _conics_oracle(sigma):
    """max_on_conics by a nullspace for every 5-subset, a polynomial product
    for every pair of secant lines, and a max line plus a residual line."""
    field = sigma.field
    pts = sigma.points
    basis1, basis2 = monomial_basis(3, 1), monomial_basis(3, 2)

    rows = [point_row(pt.coords, basis2, field) for pt in pts]
    coords = [pt.coords for pt in pts]

    def through(table, subsets, ncols, basis):
        """The forms through each subset of the table's rows, one list per
        subset; all subsets are reduced as one stack."""
        R, piv = rref_subsets(table, subsets, field)
        return [[form_from_coeffs(basis, v, field)
                 for v in _kernel_of_rref(Rs.tolist(), ps[ps < ncols].tolist(), ncols, field)]
                for Rs, ps in zip(R, piv)]

    def line_form(p, q):
        return form_from_coeffs(basis1, nullspace([p.coords, q.coords], 3, field)[0], field)

    def count_on(form):
        return sum(1 for pt in pts if not eval_poly(form, pt.coords))

    if len(pts) <= 5:
        sols = through(rows, [range(len(pts))], 6, basis2)[0]
        return len(pts), (sols[0] if sols else None)
    best, witness = 5, through(rows, [range(5)], 6, basis2)[0][0]
    for sols in through(rows, list(itertools.combinations(range(len(pts)), 5)), 6, basis2):
        if len(sols) == 1:
            count = count_on(sols[0])
            if count > best:
                best, witness = count, sols[0]
    lines = {}
    for sols in through(coords, list(itertools.combinations(range(len(pts)), 2)), 3, basis1):
        lines.setdefault(tuple(sorted(sols[0].terms.items())), sols[0])
    for l1, l2 in itertools.combinations_with_replacement(list(lines.values()), 2):
        count = count_on(l1 * l2)
        if count > best:
            best, witness = count, l1 * l2
    nu1, pair = max_on_lines(sigma)
    line = line_form(*pair)
    leftovers = [pt for pt in pts if eval_poly(line, pt.coords)]
    if leftovers and nu1 + 1 > best:
        q = leftovers[0]
        refs = [canonicalize([int(i == j) for j in range(3)], field) for i in range(3)]
        refs += [canonicalize([1, a, 1], field) for a in range(field.p or 20)]
        for ref in refs:
            if ref.coords == q.coords:
                continue
            cand = line_form(q, ref)
            if all(eval_poly(cand, pt.coords) for pt in pts if pt.coords != q.coords):
                if count_on(line * cand) > best:
                    best, witness = count_on(line * cand), line * cand
                break
    return best, witness


def _conics_cases():
    rng = random.Random(2020)
    cases = [point_set(list(enumerate_projective(2, 3)))]  # all 13 points of P^2(F_3)
    for p, sizes in [(3, (4, 6, 8)), (5, (5, 6, 9, 10)), (7, (3, 6, 8, 10)),
                     (11, (6, 9, 11)), (13, (6, 8, 10)), (101, (5, 6, 8, 10))]:
        for size in sizes:
            for kind in ("random", "conic", "collinear", "pair_and_conic"):
                cases.append(_seeded_plane_set(rng, p, size, kind))
    # several blocks of pencils over F_101; in the 17-point set the points off
    # the conic x*z = y^2 come first, so its best 5-subset is in a late block
    cases.append(_seeded_plane_set(rng, 101, 14, "pair_and_conic"))
    pts = _seeded_plane_set(rng, 101, 17, "conic").points
    on_conic = [(x * z - y * y) % 101 == 0 for x, y, z in (q.coords for q in pts)]
    cases.append(point_set([q for q, on in sorted(zip(pts, on_conic), key=lambda t: t[1])]))
    # F_(2^31 - 1): the largest products and inverses the int64 count meets
    for kind in ("conic", "pair_and_conic", "random"):
        cases.append(_seeded_plane_set(rng, 2**31 - 1, 11, kind))
    # the first pencil, through three points of z = 0 and (0:0:1), is spanned
    # by x*z and y*z: the other points of z = 0 are base points, those of
    # x = 0 have parameter [0 : 1] and those of y = 0 parameter [1 : 0]
    for p in (101, 2**31 - 1):
        F = GF(p)
        cases.append(point_set([canonicalize(list(c), F) for c in (
            (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 2, 0), (1, 3, 0),
            (0, 1, 1), (0, 1, 2), (1, 0, 1), (1, 0, 2), (1, 0, 3), (1, 5, 7),
        )]))
    # a line pair beats every 5-subset only when all points but at most one
    # lie on one line
    for p, on_line, off_line in [(5, 5, 1), (7, 6, 0), (7, 7, 1), (11, 7, 0), (13, 9, 1)]:
        F = GF(p)
        pts = [canonicalize([1, t, (2 * t + 1) % p], F) for t in range(on_line)]
        pts += [canonicalize([0, 1, 1], F)] * off_line
        cases.append(point_set(pts))
    F = QQ
    cases.append(point_set([canonicalize([Fraction(c) for c in coords], F) for coords in (
        [1, 0, 0], [1, 1, 1], [1, 2, 4], [1, 3, 9], [1, -1, 1], [0, 0, 1],
        [1, 1, 0], [1, 2, 0], [1, Fraction(1, 2), 3],
    )]))
    return cases


def _assert_matches_the_oracle(got, want, sigma):
    """The oracle's count; where sigma lies on no conic (the count is below
    |sigma|) the oracle's witness, and where it lies on one a nonzero conic
    through all of sigma: max_on_conics then reads a kernel conic where the
    oracle may find a line pair."""
    assert got[0] == want[0], list(map(str, sigma))
    if want[0] < len(sigma):
        assert repr(got[1]) == repr(want[1]), list(map(str, sigma))
    else:
        form = got[1]
        assert form.degree == 2 and not form.is_zero(), list(map(str, sigma))
        assert not any(eval_poly(form, q.coords) for q in sigma), list(map(str, sigma))


def test_max_on_conics_matches_five_subset_oracle():
    cases = _conics_cases()
    assert len(cases) >= 60
    for sigma in cases:
        _assert_matches_the_oracle(max_on_conics(sigma), _conics_oracle(sigma), sigma)


def _line_heavy_set(rng, field, size):
    """size points, most of them on the line y = 2x + z or on the pair of
    lines y = 2x + z and z = 0, the rest random; over QQ with small
    fractions for coordinates."""
    p = field.p
    pts, seen = [], set()
    kind = rng.randrange(3)
    while len(pts) < size:
        t = rng.randrange(p) if p else Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        u = rng.random()
        if u < 0.85 and kind < 2:
            c = [1, 2 + t, t]
        elif u < 0.95 and kind == 1:
            c = [1, t, 0]
        else:
            c = [rng.randrange(p) if p else Fraction(rng.randint(-5, 5)) for _ in range(3)]
            if not any(x % p if p else x for x in c):
                continue
        q = canonicalize(c, field)
        if q.coords not in seen:
            seen.add(q.coords)
            pts.append(q)
    return point_set(pts)


def test_max_on_conics_line_pairs_match_the_oracle_on_both_fields():
    """On line-heavy sets over F_p and QQ the count is the oracle's, which
    tries every pair of secant lines; so is the witness where the set lies
    on no conic.  A line pair beats every 5-subset only on a set that lies
    on a conic, which max_on_conics answers with one rank test: the cases
    reach that test and the pencils on both fields."""
    rng = random.Random(77)
    wins = Counter()
    for k in range(36):
        field = QQ if k % 3 == 0 else GF(rng.choice((7, 11, 101, 2**31 - 1)))
        sigma = _line_heavy_set(rng, field, rng.randint(6, 9 if field is QQ else 11))
        got, want = max_on_conics(sigma), _conics_oracle(sigma)
        _assert_matches_the_oracle(got, want, sigma)
        wins[field.p == 0, want[0] == len(sigma)] += 1
    assert wins[True, True] >= 3 and wins[False, True] >= 5 and wins[False, False] >= 3
    assert wins[True, False] >= 3


def test_max_on_conics_pencil_cost(rref_stack_sizes):
    """The C(n-1, 4) pencils are reduced in blocks of _PENCIL_BLOCK, not as
    one stack and not one elimination per subset; the rank test and the
    witness take one matrix each."""
    sizes = rref_stack_sizes
    sigma = _seeded_plane_set(random.Random(15), 101, 15, "conic")
    max_on_conics(sigma)
    blocks = [size for size in sizes if size > 1]
    assert sum(blocks) == comb(14, 4) and max(blocks) <= lincond._PENCIL_BLOCK
    assert len(blocks) == -(-comb(14, 4) // lincond._PENCIL_BLOCK) and sizes.count(1) == 2


def test_qq_pencils_are_reduced_a_block_at_a_time(monkeypatch):
    """Over QQ every pencil RREF is Fractions: on 20 seeded points of P^2
    the C(19, 4) = 3876 4-subsets held as one stack peaked at 6.5 MB
    (tracemalloc).  Reduced a block at a time, the traced peak up to the
    third block's count stays under 1 MB.  Blocks of 64 and a stop at that
    count keep the Fraction products short."""
    rng = random.Random(20)
    pts = []
    while len(pts) < 20:
        c = [rng.randint(-3, 3) for _ in range(3)]
        if any(c) and canonicalize(c, QQ) not in pts:
            pts.append(canonicalize(c, QQ))
    sigma = point_set(pts)

    class Stop(Exception):
        pass

    calls, count = [], lincond._pencil_counts

    def counting(*args):
        calls.append(len(args[0]))
        if len(calls) == 3:
            raise Stop
        return count(*args)

    monkeypatch.setattr(lincond, "_PENCIL_BLOCK", 64)
    monkeypatch.setattr(lincond, "_pencil_counts", counting)
    tracemalloc.start()
    try:
        with pytest.raises(Stop):
            max_on_conics(sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sigma) == 20 and len(calls) == 3 and max(calls) <= 64
    assert peak < 1_000_000, peak


def test_fp_evaluation_matrices_make_no_python_power(monkeypatch):
    """Over F_p every evaluation matrix is stacked from numpy columns, so
    defect and max_on_conics call no FieldSpec.power per entry."""
    rng = random.Random(17)
    space = point_set([canonicalize([1, *c], F101) for c in
                       sorted({tuple(rng.randrange(101) for _ in range(3)) for _ in range(30)})])
    plane = _seeded_plane_set(random.Random(15), 101, 15, "conic")
    want = defect(space, 6), max_on_conics(plane)

    def refused(self, a, e):
        raise AssertionError("a per-entry power on the F_p matrix path")

    monkeypatch.setattr(type(F101), "power", refused)
    assert (defect(space, 6), max_on_conics(plane)) == want


def test_fp_max_on_conics_counts_pencils_as_arrays(monkeypatch):
    """Over F_p the pencils are counted as int64 arrays: no FieldSpec.div,
    inv or neg per point and no dot or RowSpace per pencil.  The one witness
    conic is still built by nullspace."""
    plane = _seeded_plane_set(random.Random(15), 101, 15, "conic")
    want = max_on_conics(plane)

    def refused(*args):
        raise AssertionError("Python arithmetic per pencil on the F_p path")

    for owner, name in [(type(F101), "div"), (type(F101), "inv"), (type(F101), "neg"),
                        (linalg, "dot"), (linalg, "RowSpace")]:
        monkeypatch.setattr(owner, name, refused)
    assert max_on_conics(plane) == want


def test_secant_lines_one_stack(rref_stack_sizes):
    sizes = rref_stack_sizes
    sigma = _seeded_plane_set(random.Random(16), 101, 12, "collinear")
    max_on_lines(sigma)
    assert sizes == [comb(12, 2)]
