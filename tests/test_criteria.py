import itertools
import json
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import ceil, comb, lcm

import pytest

import factlab.criteria as criteria
import factlab.linalg as linalg
import factlab.poly as poly
from factlab.criteria import (
    _candidate_planes,
    app_ci1,
    app_ci2,
    app_double_hypersurface,
    app_double_solid,
    app_hypersurface,
    detect_nodal_surface_form,
    hong_park_classify,
    prop_3r4_certify,
    theorem_main_certify,
)
from factlab.cli import main as cli_main
from factlab.errors import BadParams, VerificationFailure
from factlab.fields import GF, QQ
from factlab.linalg import rank, rref
from factlab.lincond import defect
from factlab.poly import make_poly, parse_poly, random_homo
from factlab.projgeom import canonicalize, point_set
from factlab.sing_locus import singular_points


def test_main_bullet1():
    v = theorem_main_certify(3, 9, 44, 11)
    assert v.applies and v.criterion_id == "main_bullet1"
    assert v.certified_degree == 11


def test_main_no_bullet():
    v = theorem_main_certify(3, 2, 2, 0)
    assert not v.applies
    assert v.certified_degree is None


def test_main_mu_bullet():
    # n=4, lambda=4, size=8, xi=8: certified via a recorded rational mu
    v = theorem_main_certify(4, 4, 8, 8)
    assert v.applies and v.criterion_id in ("main_bullet2", "main_bullet3")
    mu = v.parameters["mu"]
    assert isinstance(mu, Fraction) or isinstance(mu, int)
    assert v.certified_degree == 8


def test_main_monotone_in_size():
    base = theorem_main_certify(3, 9, 44, 11)
    assert base.applies
    for size in range(0, 44):
        assert theorem_main_certify(3, 9, size, 11).applies


def _least_mu_oracle(n, lam, size, xi):
    """(criterion_id, least mu) by trying every mu = a/L, L = lcm(3, lambda,
    n, n-1), against the bullets as the paper states them, bullet 1 with
    its degree read as ceil(3*lambda/2) - 3: the floor of 3*lambda/2 - 3,
    one lower at odd lambda, is refuted there by collinear points and
    grids (test_engines_never_apply_where_the_defect_is_positive).  Each
    bound on mu has denominator 3, lambda, n or n-1, so the least
    admissible mu is on this grid; mu < (xi+4)/3 in bullet 2 and
    mu < (xi+1)/n in bullet 3."""
    if xi == ceil(Fraction(3 * lam, 2)) - 3 and size < lam * ceil(Fraction(lam, 2)):
        return "main_bullet1", None
    L = lcm(3, lam, n, n - 1)
    # integer forms: with mu = a/L, floor(k*mu) = k*a // L
    for a in range(1, (xi + 4) * L // 3 + 1):
        if (
            xi == (3 * a - 3 * L) // L
            and size * L <= lam * a
            and (3 * a // L - 2) * L - a >= lam * L >= a
        ):
            return "main_bullet2", Fraction(a, L)
    for a in range(1, (xi + 1) * L // n + 1):
        if xi == n * a // L and size * L <= lam * a and (n - 1) * a >= lam * L:
            return "main_bullet3", Fraction(a, L)
    return None, None


def test_main_bullet2_stops_below_its_strict_upper_bound(capsys):
    """Bullet 2 asks for mu < (xi+4)/3: at |Sigma|/lambda = (xi+4)/3 itself,
    floor(3*mu - 3) would be xi + 1.  At n = 2, lambda = 3, xi = 5, so mu =
    3, |Sigma| = 9 is past bullet 2 (and bullet 3), while 8 points take it
    with mu = 8/3; the criteria command answers both with exit 0."""
    for size, cid, mu in ((9, "main_bullet1", None), (8, "main_bullet2", "8/3")):
        argv = ["criteria", "--theorem", "main", "--n", "2", "--lambda", "3", "--size", str(size),
                "--xi", "5"]
        assert cli_main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["criterion_id"], report["applies"]) == (cid, mu is not None)
        assert report["parameters"].get("mu") == mu
        assert _least_mu_oracle(2, 3, size, 5) == ((cid, Fraction(mu)) if mu else (None, None))


def test_main_least_mu_matches_exact_oracle():
    applied = 0
    for n, lam, size, xi in itertools.product(
        range(2, 6), range(2, 7), range(0, 25, 3), range(0, 11)
    ):
        v = theorem_main_certify(n, lam, size, xi)
        cid, mu = _least_mu_oracle(n, lam, size, xi)
        assert v.applies == (cid is not None), (n, lam, size, xi)
        if v.applies:
            applied += 1
            assert v.criterion_id == cid and v.parameters.get("mu") == mu, (n, lam, size, xi)
            assert all(h for _, h in v.instantiated_inequalities)
        else:  # bullet 1's two inequalities, then the bound each of bullets 2 and 3 misses
            texts = [t for t, _ in v.instantiated_inequalities[2:]]
            assert [t.split(":")[0] for t in texts] == ["bullet 2", "bullet 3"]
            assert not any(h for _, h in v.instantiated_inequalities[2:])
    assert applied > 100


@pytest.mark.parametrize(
    "args, mu",
    [((12, 10, 9, 10), Fraction(10, 11)), ((2, 2, 0, 11), Fraction(11, 2))],
)
def test_main_mu_off_the_old_grid(args, mu):
    # mu = lambda/(n-1) = 10/11 has no denominator dividing 60; 11/2 is past lambda + 3
    v = theorem_main_certify(*args)
    assert v.applies and v.criterion_id == "main_bullet3"
    assert v.parameters["mu"] == mu
    assert _least_mu_oracle(*args) == ("main_bullet3", mu)


def test_main_bad_params():
    with pytest.raises(BadParams):
        theorem_main_certify(1, 9, 4, 2)
    with pytest.raises(BadParams):
        theorem_main_certify(3, 1, 4, 2)


def test_verdict_inequalities_consistent():
    for v in (
        theorem_main_certify(3, 9, 44, 11),
        app_double_solid(2, 5),
        app_hypersurface(6, 16),
        prop_3r4_certify(5, 0, 44),
    ):
        assert v.applies == all(h for _, h in v.instantiated_inequalities) or not v.applies
        if v.applies:
            assert all(h for _, h in v.instantiated_inequalities)


def test_verdict_refuses_a_failed_inequality():
    from factlab.criteria import _verdict

    with pytest.raises(VerificationFailure):
        _verdict("main_bullet1", True, [("xi = 3", True), ("|Sigma| = 9 < 8", False)], 3, {})


def test_prop_3r4():
    assert prop_3r4_certify(5, 0, 44).applies
    assert prop_3r4_certify(5, 0, 44).certified_degree == 11
    assert not prop_3r4_certify(5, 0, 45).applies
    v = prop_3r4_certify(3, 1, 9)
    assert v.applies and v.certified_degree == 4


def _proved_incidence_sets():
    """(point set, least lambda) over F_101 for plane configurations whose
    lambda-incidence hypothesis (at most lambda*k points on any degree-k
    curve) is proved for every lambda >= least lambda:

    - m collinear points: a curve that contains the line holds m <= lambda
      of them, and one that does not holds at most k (Bezout);
    - the a x b grid (1 : s : t), s < a <= b, t < b, the crossings of the
      lines y = s*x with the lines z = t*x: a degree-k curve that contains
      j <= k of the a lines meets each other one in at most k - j points,
      so it holds at most j*b + (a - j)(k - j) <= k*lambda when lambda >= b;
    - m points (1 : t : t^2) of the conic x*z = y^2, no three collinear: a
      curve that contains the conic has k >= 2 and holds m <= 2*lambda of
      them, and one that does not holds at most 2k (Bezout), so lambda >=
      max(2, m/2) suffices.
    """
    F = GF(101)
    sets = [(point_set([canonicalize([1, t, 0], F) for t in range(m)]), max(m, 2))
            for m in range(2, 10)]
    sets += [(point_set([canonicalize([1, s, t], F) for s in range(a) for t in range(b)]), b)
             for b in range(2, 7) for a in range(2, b + 1)]
    sets += [(point_set([canonicalize([1, t, t * t], F) for t in range(m)]), max(2, -(-m // 2)))
             for m in range(3, 16)]
    return sets


def test_engines_never_apply_where_the_defect_is_positive():
    """theorem_main_certify (n = 2..4) and prop_3r4_certify on collinear
    sets, grids and points on a conic, at every lambda from the least their incidence allows
    to 3 above it: wherever an engine applies, the exact defect at its
    degree is 0.  A plane set has the same defect in every P^n, as forms
    on P^n restrict onto every degree-xi form of the plane, so the defect
    is taken in P^2.  Bullet 1 read as xi = floor(3*lambda/2 - 3) fails
    here: three collinear points apply at lambda = 3, xi = 1 with defect 1,
    and so does the 2 x 5 grid at lambda = 5, xi = 4 (Cayley-Bacharach)."""
    defects, applied = {}, Counter()

    def check(verdict, sigma, xi):
        if verdict.applies:
            key = (id(sigma), xi)
            if key not in defects:
                defects[key] = defect(sigma, xi).defect
            assert defects[key] == 0, (verdict.criterion_id, sigma.rows.tolist(), xi)
            applied[verdict.criterion_id] += 1

    for sigma, least in _proved_incidence_sets():
        for lam in range(least, least + 4):
            for n, xi in itertools.product(range(2, 5), range(2 * lam)):
                check(theorem_main_certify(n, lam, len(sigma), xi), sigma, xi)
            if lam % 2:
                r = (lam + 1) // 2
                for eps in range(r):
                    check(prop_3r4_certify(r, eps, len(sigma)), sigma, 3 * r - 4 - eps)
    assert min(applied[cid] for cid in ("main_bullet1", "main_bullet2", "main_bullet3",
                                        "prop_3r4")) >= 10, applied


def test_app_double_solid_examples():
    assert app_double_solid(2, 5).applies
    assert not app_double_solid(2, 6).applies
    assert app_double_solid(3, 14).applies
    assert app_double_solid(2, 5).certified_degree == 2


def test_app_double_solid_boundary_sweep():
    for r in range(2, 51):
        cap = (2 * r - 1) * r
        assert app_double_solid(r, cap - 1).applies
        assert not app_double_solid(r, cap).applies


def test_app_hypersurface_exact_rational():
    assert app_hypersurface(6, 16).applies  # 16 <= 50/3
    assert not app_hypersurface(6, 17).applies  # 17 > 50/3
    assert app_hypersurface(3, 2).applies  # 2 <= 8/3
    assert app_hypersurface(6, 16).certified_degree == 7


def test_app_ci_and_double_hypersurface():
    # caps straight from the statements: (m+k-2)(2m+k-6)/5 etc.
    assert app_ci1(7, 2, 14).applies
    assert not app_ci1(7, 2, 15).applies
    assert not app_ci1(6, 2, 1).applies  # side condition m >= 7
    assert not app_ci2(8, 2, 47).applies  # 47 > 40
    assert app_ci2(8, 2, 40).applies
    assert app_double_hypersurface(2, 9, 81).applies  # 81 <= 81, r >= d+7
    assert not app_double_hypersurface(2, 9, 82).applies
    assert not app_double_hypersurface(3, 9, 10).applies  # r < d+7


def test_verdict_json():
    import json

    data = json.loads(app_hypersurface(6, 16).to_json())
    assert data["applies"] is True
    assert any("2(d-1)^2/3" in i["text"] for i in data["instantiated_inequalities"])


# --- candidate planes through a heavy line -------------------------------------

_UNITS = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]


def _coeffs(plane):
    return tuple(plane.coeff(e) for e in _UNITS)


def _collinear_nodes(p, k, rng):
    """k seeded points of a seeded line of P^3(F_p), in random order."""
    F = GF(p)
    while True:
        a, b = ([rng.randrange(p) for _ in range(4)] for _ in range(2))
        if rank([a, b], F) == 2:
            break
    line = [canonicalize(b, F)]
    line += [canonicalize([(x + t * y) % p for x, y in zip(a, b)], F) for t in range(p)]
    return point_set(rng.sample(line, k))


def _brute_force_planes(sing, r2, p):
    """Coefficient vectors of every plane of P^3(F_p) holding more than r2
    of the points: pivot position ascending, then lex on the rest."""
    out = []
    for pivot in range(4):
        for tail in itertools.product(range(p), repeat=3 - pivot):
            c = (0,) * pivot + (1,) + tail
            held = sum(1 for pt in sing if sum(a * x for a, x in zip(c, pt.coords)) % p == 0)
            if held > r2:
                out.append(c)
    return out


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_candidate_planes_through_a_heavy_line_match_brute_force(p):
    # collinear nodes span no plane, so only the line step can find planes:
    # with more than 2r nodes on the line they are the p+1 planes through it
    rng = random.Random(p)
    F = GF(p)
    for r in (2, 3):
        f = make_poly(4, 2 * r, {(2 * r, 0, 0, 0): 1}, F)
        for k in sorted({2 * r, 2 * r + 1, p + 1}):
            if k > p + 1:
                continue
            for _ in range(2):
                sing = _collinear_nodes(p, k, rng)
                want = _brute_force_planes(sing, 2 * r, p)
                assert [_coeffs(ell) for ell in _candidate_planes(f, sing)] == want
                assert len(want) == (p + 1 if k > 2 * r else 0)


def _plane_heavy_nodes(p, size, rng):
    """size seeded points of P^3(F_p), about half of them on one seeded
    plane, with no line holding more than 4 of them."""
    F = GF(p)
    plane = [[rng.randrange(p) for _ in range(4)] for _ in range(3)]
    pts = []
    while len(pts) < size:
        if rng.random() < 0.5:
            s = [rng.randrange(p) for _ in range(3)]
            c = [sum(a * x for a, x in zip(s, col)) % p for col in zip(*plane)]
        else:
            c = [rng.randrange(p) for _ in range(4)]
        if not any(c):
            continue
        q = canonicalize(c, F)
        # the points of pts on each line through q, keyed by the line's RREF
        lines = Counter(str(rref([q.coords, a.coords], F)[0]) for a in pts if a != q)
        if q not in pts and max(lines.values(), default=0) < 4:
            pts.append(q)
    return point_set(pts)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_candidate_planes_spanned_by_triples_match_brute_force(p):
    """Nodes with no line holding more than 2r of them: every plane with
    more than 2r nodes is spanned by a triple of them, so the triple search
    finds exactly the brute-force planes, each at its first triple."""
    rng = random.Random(100 + p)
    F = GF(p)
    found = 0
    for r in (2, 2, 3):
        f = make_poly(4, 2 * r, {(2 * r, 0, 0, 0): 1}, F)
        for size in (5, 8, 11):
            sing = _plane_heavy_nodes(p, size, rng)
            got = [canonicalize(list(_coeffs(ell)), F).coords for ell in _candidate_planes(f, sing)]
            assert sorted(got) == sorted(_brute_force_planes(sing, 2 * r, p))
            found += bool(got)
            spanning = [(i, t) for i, t in enumerate(itertools.combinations(sing.points, 3))
                        if rank([q.coords for q in t], F) == 3]
            first = [next(i for i, t in spanning
                          if all(sum(a * x for a, x in zip(c, q.coords)) % p == 0 for q in t))
                     for c in got]
            assert first == sorted(first) and len(set(first)) == len(first)
    assert found >= 3


def test_plane_search_refuses_qq(monkeypatch):
    def refused(*args):
        raise AssertionError("array work over QQ")

    monkeypatch.setattr(linalg, "rref_mod_p", refused)
    f = parse_poly("x^4 - y^4 + z^4 - w^4", 4, QQ)
    sing = point_set([canonicalize([Fraction(c) for c in v], QQ)
                      for v in ([1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 0, 1])])
    with pytest.raises(ValueError, match="prime field"):
        detect_nodal_surface_form(f, sing)


def test_candidate_planes_make_no_python_evaluation(monkeypatch, double_solid_r3):
    """The triple planes are read off one stack and counted as int64
    arrays: no RowSpace, dot or eval_poly per triple."""
    cases = [(double_solid_r3.defining[0], double_solid_r3.sing)]
    cases += [(make_poly(4, 4, {(4, 0, 0, 0): 1}, GF(p)), _plane_heavy_nodes(p, 11, random.Random(p)))
              for p in (7, 13)]
    want = [_candidate_planes(f, sing) for f, sing in cases]
    assert all(want)

    def refused(*args):
        raise AssertionError("Python arithmetic per triple in the plane search")

    for owner, name in [(linalg, "RowSpace"), (linalg, "dot"),
                        (poly, "eval_poly"), (criteria, "eval_poly")]:
        monkeypatch.setattr(owner, name, refused, raising=False)
    assert [_candidate_planes(f, sing) for f, sing in cases] == want


def test_candidate_planes_beyond_p_31():
    p = 101
    sing = _collinear_nodes(p, 5, random.Random(3))
    f = make_poly(4, 4, {(4, 0, 0, 0): 1}, GF(p))
    coeffs = [_coeffs(ell) for ell in _candidate_planes(f, sing)]
    assert len(set(coeffs)) == p + 1
    for c in coeffs:
        pivot = next(i for i, a in enumerate(c) if a)
        assert c[pivot] == 1 and all(sum(a * x for a, x in zip(c, pt.coords)) % p == 0 for pt in sing)
    assert coeffs == sorted(coeffs, key=lambda c: (next(i for i, a in enumerate(c) if a), c))


def test_candidate_planes_reduce_triples_in_fixed_blocks(monkeypatch, double_solid_r3,
                                                         rref_stack_sizes):
    """The node triples are reduced in stacks of criteria._PLANE_BLOCK, never
    as one C(|Sing|, 3) stack, and the planes and their first-triple order
    do not depend on the block size."""
    f, sing = double_solid_r3.defining[0], double_solid_r3.sing
    heavy = (make_poly(4, 4, {(4, 0, 0, 0): 1}, GF(13)), _plane_heavy_nodes(13, 20, random.Random(5)))
    rref_stack_sizes.clear()
    want = [_candidate_planes(f, sing), _candidate_planes(*heavy)]
    assert all(want)
    assert criteria._PLANE_BLOCK == 1024
    assert rref_stack_sizes == [comb(15, 3), 1024, comb(20, 3) - 1024]
    # collinear nodes: the triples, then the secant lines, then one
    # nullspace for the one heavy line
    collinear = _collinear_nodes(13, 6, random.Random(4))
    rref_stack_sizes.clear()
    assert len(_candidate_planes(make_poly(4, 4, {(4, 0, 0, 0): 1}, GF(13)), collinear)) == 14
    assert rref_stack_sizes == [comb(6, 3), comb(6, 2), 1]
    for block in (1, 7, 100, 455):
        monkeypatch.setattr(criteria, "_PLANE_BLOCK", block)
        rref_stack_sizes.clear()
        assert [_candidate_planes(f, sing), _candidate_planes(*heavy)] == want
        assert rref_stack_sizes == [min(block, total - lo) for total in (comb(15, 3), comb(20, 3))
                                    for lo in range(0, total, block)]


def test_candidate_planes_memory_is_flat_in_the_triple_count():
    """120 seeded points of P^3(F_101), 280 840 triples: reduced as one
    stack they took a traced peak of 111 MB; in blocks it stays below 8 MiB."""
    rng = random.Random(120)
    F = GF(101)
    pts = {}
    while len(pts) < 120:
        c = [rng.randrange(101) for _ in range(4)]
        if any(c):
            pts.setdefault(canonicalize(c, F).coords, None)
    sing = point_set([canonicalize(list(c), F) for c in pts])
    tracemalloc.start()
    try:
        planes = _candidate_planes(make_poly(4, 6, {(6, 0, 0, 0): 1}, F), sing)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert planes and peak < 8 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def test_classify_finds_the_witness_on_a_singular_line_beyond_p_31():
    # f = g_5^2 - x * g_9 with g_5, g_9 in (x, y) is singular exactly along
    # the line x = y = 0 for this seed: 38 collinear nodes, no triple plane
    F = GF(37)
    x, y = parse_poly("x", 4, F), parse_poly("y", 4, F)
    a, b, c, d = (random_homo(4, deg, F, 35014 + i) for i, deg in enumerate((4, 4, 8, 8)))
    f = (x * a + y * b) * (x * a + y * b) - x * (x * c + y * d)
    verdict = hong_park_classify(f, 5)
    assert (verdict.status, verdict.nsing) == ("nonfactorial_structured", 38)
    assert verdict.witness.ell.to_text() == "x" and verdict.witness.verify(f)


@pytest.mark.parametrize("fixture", ["double_solid_r2", "double_solid_r3"])
def test_structure_checker_refuses_altered_witnesses(request, fixture):
    """StructureWitness.verify refuses a witness with one coefficient of
    ell, g_r or g_{2r-1} changed, at every monomial of its degree (a term
    of the form or not)."""
    f = request.getfixturevalue(fixture).defining[0]
    w = detect_nodal_surface_form(f, singular_points(f))
    assert w.verify(f)
    for part in ("ell", "g_r", "g_2r1"):
        form = getattr(w, part)
        for m in poly.monomial_basis(4, form.degree):
            bumped = form + make_poly(4, form.degree, {m: 1}, f.field)
            altered = criteria.StructureWitness(**{**vars(w), part: bumped})
            assert not altered.verify(f), (part, m)


def test_structure_checker_refuses_another_candidate_plane():
    """With ell swapped for any of the other 37 candidate planes through
    the singular line x = y = 0 over F_37, the witness is refused."""
    F = GF(37)
    x, y = parse_poly("x", 4, F), parse_poly("y", 4, F)
    a, b, c, d = (random_homo(4, deg, F, 35014 + i) for i, deg in enumerate((4, 4, 8, 8)))
    f = (x * a + y * b) * (x * a + y * b) - x * (x * c + y * d)
    sing = singular_points(f)
    w = detect_nodal_surface_form(f, sing)
    planes = [ell for ell in _candidate_planes(f, sing) if ell != w.ell]
    assert w.verify(f) and len(planes) == 37
    for ell in planes:
        assert not criteria.StructureWitness(ell, w.g_r, w.g_2r1).verify(f), ell.to_text()


def test_classify_names_singular_points_that_are_not_nodes():
    # x^2*a + x*y*b + y^2*c is singular along the line x = y = 0: 6 points
    # over F_5, none an ordinary double point
    F = GF(5)
    x, y = parse_poly("x", 4, F), parse_poly("y", 4, F)
    for s in range(3):
        a, b, c = (random_homo(4, 2, F, 100 * s + i) for i in range(3))
        verdict = hong_park_classify(x * x * a + x * y * b + y * y * c, 2)
        assert (verdict.status, verdict.nsing) == ("nonfactorial_unstructured", 6)
        assert verdict.note.endswith("; 6 of 6 singular points are not ordinary double points")
    # a double quadric: 64 singular points over F_7 set off the isolation warning
    q = parse_poly("x*y - z*w", 4, GF(7))
    verdict = hong_park_classify(q * q, 2)
    assert verdict.status == "out_of_range"
    assert "; 64 of 64 singular points are not ordinary double points; NotIsolated: 64" in verdict.note


def test_detector_none_on_smooth():
    F = GF(101)
    f = parse_poly("x^4 + y^4 + z^4 + w^4", 4, F)
    sing = singular_points(f)
    assert detect_nodal_surface_form(f, sing) is None


def test_hong_park_fixture(double_solid_r2):
    f = double_solid_r2.defining[0]
    v = hong_park_classify(f, 2)
    assert v.status == "nonfactorial_structured"
    assert v.defect == 1 and v.nsing == 6
    assert v.note == "defect >= 1 with structural witness (mod-p evidence)"
    w = v.witness
    assert (w.g_r * w.g_r - w.ell * w.g_2r1 - f).is_zero()


def test_hong_park_fixture_r3(double_solid_r3):
    f = double_solid_r3.defining[0]
    v = hong_park_classify(f, 3)
    assert v.status == "nonfactorial_structured"
    assert v.witness.verify(f)


def test_hong_park_smooth_factorial():
    f = parse_poly("x^4 + y^4 + z^4 + w^4", 4, GF(101))
    assert hong_park_classify(f, 2).status == "factorial"


def test_hong_park_degree_mismatch():
    f = parse_poly("x^4 + y^4 + z^4 + w^4", 4, GF(101))
    with pytest.raises(BadParams):
        hong_park_classify(f, 3)
