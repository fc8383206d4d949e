import pytest

from factlab.errors import (
    DegreeMismatch,
    GVanishesOnDelta,
    LocusMismatch,
    NotInSet,
    Overlap,
    VerificationFailure,
    WrongAmbient,
    XiTooSmall,
)
from factlab.fields import GF
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
from factlab.linalg import nullspace
from factlab.poly import eval_poly, make_poly, monomial_basis, parse_poly
from factlab.projgeom import canonicalize, point_set
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
    mat = evaluation_matrix(sigma, 2)
    assert len(mat.rows) == 4 and mat.ncols == 6


def test_defect_six_points_on_conic():
    sigma = conic_points(7, 6)
    assert defect(sigma, 2).defect == 1
    assert defect(sigma, 3).defect == 0
    rep = defect(sigma, 2)
    assert rep.size == 6 and rep.rank == 5
    assert len(rep.dependent_points) == 1


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


def _quadric_through(sigma, miss, rng):
    field = sigma.field
    basis = monomial_basis(sigma.ambient_dim + 1, 2)
    rows = [point_row(q.coords, basis, field) for q in sigma]
    ker = nullspace(rows, len(basis), field)
    p = field.p
    for _ in range(100):
        coeffs = [0] * len(basis)
        for vec in ker:
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
