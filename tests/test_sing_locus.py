import random
import sys
from fractions import Fraction

import pytest

from factlab.errors import CharDividesDegree, NotSingular
from factlab.fields import GF, QQ
from factlab.linalg import nullspace, rank
from factlab.poly import (
    eval_poly,
    gradient,
    hessian,
    hessian_block,
    hessian_rank_at,
    linear_change,
    make_poly,
    node_rank,
    parse_poly,
    random_homo,
)
from factlab.projgeom import ProjPoint, enumerate_projective, point_set
from factlab.rng import SplitMix64
from factlab.sing_locus import (
    NodalInstance,
    ci_singular_points,
    singular_points,
    verify_nodal,
)


def test_nodal_instance_dimension_from_its_forms(ci_22):
    f = parse_poly("x^2 + y*z", 4, GF(7))
    assert NodalInstance([f], singular_points(f)).ambient_dim == 3
    assert ci_22.ambient_dim == 5


def test_fermat_quartic_smooth():
    f = parse_poly("x^4 + y^4 + z^4 + w^4", 4, GF(101))
    assert len(singular_points(f)) == 0


def test_quadric_cone_vertex():
    f = parse_poly("x^2 + y^2 + z^2", 4, GF(101))
    sing = singular_points(f)
    assert [q.coords for q in sing] == [(0, 0, 0, 1)]
    inst = verify_nodal(NodalInstance([f], sing))
    assert inst.node_flags == [True] and inst.clean


def test_char_divides_degree_refused():
    f = parse_poly("x^3 + y^3 + z^3", 3, GF(3))
    with pytest.raises(CharDividesDegree):
        singular_points(f)


def test_completeness_against_brute_force_small():
    F = GF(5)
    rng = SplitMix64(8)
    for trial in range(5):
        f = random_homo(4, 3, F, rng.next_u64())
        if f.is_zero():
            continue
        fast = {q.coords for q in singular_points(f)}
        grads = gradient(f)
        polys = [f] + grads
        rng.shuffle(polys)  # evaluation order must not matter
        slow = {
            q.coords
            for q in enumerate_projective(3, 5)
            if all(not eval_poly(g, q.coords) for g in polys)
        }
        assert fast == slow


def test_positive_dimensional_locus_flagged():
    F = GF(101)
    f = parse_poly("x^2*w^2", 4, F)  # singular along two planes
    sing = singular_points(f)
    assert len(sing) >= 101
    inst = verify_nodal(NodalInstance([f], sing))
    assert not inst.clean
    assert inst.isolated_warning is not None


def test_node_flags_invariant_under_linear_change():
    F = GF(101)
    f = parse_poly("x^2 + y*z", 4, F)  # cone over a smooth quadric
    sing = singular_points(f)
    flags = verify_nodal(NodalInstance([f], sing)).node_flags
    M = [[1, 0, 2, 0], [3, 1, 0, 0], [0, 0, 1, 1], [0, 5, 0, 1]]
    g = linear_change(f, M)
    sing_g = singular_points(g)
    flags_g = verify_nodal(NodalInstance([g], sing_g)).node_flags
    assert sorted(flags) == sorted(flags_g)
    assert len(sing) == len(sing_g) == 1


def test_ci_degenerate_line():
    F = GF(11)
    f = parse_poly("x^2", 4, F)
    g = parse_poly("y", 4, F)
    sing = ci_singular_points(f, g)
    # Jacobian rows (2x,0,0,0), (0,1,0,0): rank 1 on the whole line x=y=0
    assert {q.coords for q in sing} == {
        q.coords for q in enumerate_projective(3, 11) if q.coords[0] == 0 and q.coords[1] == 0
    }


def test_ci_generic_quadrics_smooth():
    F = GF(11)
    rng = SplitMix64(21)
    for trial in range(10):
        f = random_homo(4, 2, F, rng.next_u64())
        g = random_homo(4, 2, F, rng.next_u64())
        if f.is_zero() or g.is_zero():
            continue
        if len(ci_singular_points(f, g)) == 0:
            return
    raise AssertionError("no smooth complete intersection among 10 seeds")


def test_verify_nodal_builds_each_hessian_once(monkeypatch, double_solid_r2, ci_22):
    import factlab.sing_locus as sl

    built = []
    original = sl.hessian

    def counting(f):
        built.append(f)
        return original(f)

    monkeypatch.setattr(sl, "hessian", counting)
    inst = verify_nodal(NodalInstance(double_solid_r2.defining, double_solid_r2.sing))
    assert len(inst.sing) == 6 and inst.clean and len(built) == 1
    built.clear()
    inst = verify_nodal(NodalInstance(ci_22.defining, ci_22.sing))
    assert len(inst.sing) > 1 and inst.clean and len(built) == 2


# --- the batched node checks against per-point oracles ---------------------------


def _invertible(rng, k, field):
    while True:
        M = [[rng.randrange(field.p) for _ in range(k)] for _ in range(k)]
        if rank(M, field) == k:
            return M


def _moved(forms, rng):
    """forms and their image under one seeded invertible change of
    coordinates, which moves the singular points into other charts."""
    M = _invertible(rng, forms[0].nvars, forms[0].field)
    return [forms, [linear_change(f, M) for f in forms]]


def _charts(sing):
    return {next(i for i, c in enumerate(pt.coords) if c) for pt in sing}


def test_node_flags_match_hessian_rank_at():
    """q^2, x^2 w^2, a cone and the Cayley cubic in P^3; in P^4 a q^2 and
    forms with a corank-1 and a corank-2 point; each also after a change of
    coordinates."""
    rng = random.Random(5)
    F5, F7, F13, F31 = GF(5), GF(7), GF(13), GF(31)
    q = parse_poly("x*y - z*w", 4, F13)
    q4 = parse_poly("x*y - z*t + u^2", 5, F5)
    cases = [
        [q * q],
        [q4 * q4],
        [parse_poly("x^2*w^2", 4, F7)],
        [parse_poly("x^2 + y*z", 4, F31)],
        [parse_poly("x*y*z + y*z*w + z*w*x + w*x*y", 4, F31)],
        [parse_poly("u*x^2 + u*y^2 + u*z^2 + t^3", 5, F13)],
        [parse_poly("u*x^2 + u*y^2 + z^3 + t^3", 5, F13)],
    ]
    charts = {3: set(), 4: set()}
    flags_seen = set()
    for case in cases:
        for (f,) in _moved(case, rng):
            n = f.nvars - 1
            sing = singular_points(f)
            flags = verify_nodal(NodalInstance([f], sing)).node_flags
            assert flags == [hessian_rank_at(f, pt) == n for pt in sing]
            charts[n] |= _charts(sing)
            flags_seen |= set(flags)
    assert charts == {3: {0, 1, 2, 3}, 4: {0, 1, 2, 3, 4}}
    assert flags_seen == {True, False}


def test_node_flags_match_node_rank_on_seeded_instances(double_solid_r2, double_solid_r3,
                                                        hypersurface_d3, hypersurface_d4):
    """The node checks' exact products against the per-point oracle
    poly.node_rank on generated nodal families, on seeded forms made
    singular at a seeded point, and on q^2 over F_101 (every 7th of its
    10 404 points and the last, in all four charts); complete intersections are checked
    against _ci_node_reference in test_ci_node_flags_match_reference."""
    rng = random.Random(22)
    q = parse_poly("x*y - z*w", 4, GF(101))
    q2_sing = list(singular_points(q * q))
    q2_sample = point_set(q2_sing[::7] + q2_sing[-1:])
    cases = [(inst.defining[0], inst.sing) for inst in
             (double_solid_r2, double_solid_r3, hypersurface_d3, hypersurface_d4)]
    for p, degree in ((7, 3), (11, 4), (13, 3)):
        field = GF(p)
        g = random_homo(4, degree, field, rng.randrange(1000))
        # no term x_3^d or x_3^(d-1) * x_i: singular at (0:0:0:1)
        f = make_poly(4, degree, {m: c for m, c in g.terms.items() if m[3] < degree - 1}, field)
        cases.append((f, singular_points(f)))
    cases.append((q * q, q2_sample))
    flags_seen = set()
    for f, sing in cases:
        assert len(sing)
        n = f.nvars - 1
        flags = verify_nodal(NodalInstance([f], sing)).node_flags
        grads, H = gradient(f), hessian(f)
        assert flags == [node_rank(grads, H, pt.coords) == n for pt in sing]
        flags_seen |= set(flags)
    assert flags_seen == {True, False}
    assert len(q2_sing) == 102**2 and _charts(q2_sample) == {0, 1, 2, 3}


def _ci_node_reference(F, G, pt):
    """The complete-intersection node test at one point, with list algebra:
    the Hessian of the combination with vanishing differential, restricted
    to the kernel of the transverse differential in the pivot chart."""
    fld, coords = F.field, pt.coords
    n = len(coords) - 1
    gF = [eval_poly(g, coords) for g in gradient(F)]
    gG = [eval_poly(g, coords) for g in gradient(G)]
    if rank([gF, gG], fld) != 1:
        return False
    alpha, beta = nullspace([[a, b] for a, b in zip(gF, gG)], 2, fld)[0]
    Hf, Hg = hessian_block(hessian(F), coords), hessian_block(hessian(G), coords)
    H = [[(alpha * Hf[i][j] + beta * Hg[i][j]) % fld.p for j in range(n)] for i in range(n)]
    pivot = next(i for i, c in enumerate(coords) if c)
    row = gF if any(gF) else gG
    tangent = nullspace([[c for j, c in enumerate(row) if j != pivot]], n, fld)
    restricted = [[sum(u[i] * H[i][j] * v[j] for i in range(n) for j in range(n)) % fld.p
                   for v in tangent] for u in tangent]
    return rank(restricted, fld) == n - 1


def test_ci_node_flags_match_reference(ci_22, ci_32):
    rng = random.Random(6)
    F7, F11 = GF(7), GF(11)
    cases = [
        ci_22.defining,
        ci_32.defining,
        [parse_poly("x^2", 4, F11), parse_poly("y", 4, F11)],
        [parse_poly("x^2 + y*z", 5, F7), parse_poly("x*t + y^2 + z*u", 5, F7)],
        # at (0:0:0:0:1) dF = dG, so F - G = z^2 + t^2 is the combination to
        # test (rank 2 on the tangent plane x = 0: no node); F + G has rank 3
        [parse_poly("u*x + y^2 + z^2 + t^2", 5, F7), parse_poly("u*x + y^2", 5, F7)],
        # at (0:0:0:0:0:1) dF = 0 and dG != 0: G is the transverse form, and
        # F restricted to its tangent hyperplane x = 0 has rank 4, a node
        [parse_poly("x^2 + y^2 + z^2 + w^2 + t^2", 6, F7), parse_poly("v*x + y^2", 6, F7)],
    ]
    flags_seen = set()
    for case in cases:
        for F, G in _moved(case, rng):
            sing = ci_singular_points(F, G)
            flags = verify_nodal(NodalInstance([F, G], sing)).node_flags
            assert flags == [_ci_node_reference(F, G, pt) for pt in sing]
            flags_seen |= set(flags)
    assert flags_seen == {True, False}


def test_verify_nodal_not_singular_like_node_rank():
    F = GF(101)
    f = parse_poly("x^2 + y^2 + z^2", 4, F)
    vertex = ProjPoint((0, 0, 0, 1), F)
    # on f = 0 (10^2 = -1 mod 101) with a nonzero gradient; the second such
    # point is in an earlier chart, but the first in point order is reported
    smooth = [ProjPoint((0, 1, 10, 0), F), ProjPoint((1, 10, 0, 0), F)]
    with pytest.raises(NotSingular) as want:
        hessian_rank_at(f, smooth[0])
    with pytest.raises(NotSingular) as got:
        verify_nodal(NodalInstance([f], point_set([vertex] + smooth)))
    assert str(got.value) == str(want.value) == "gradient nonzero at (0, 1, 10, 0)"


def test_verify_nodal_refuses_a_point_off_the_forms():
    """At (1:3:5:6) over F_7 neither form vanishes but the Jacobian has rank
    1; a point on both forms before it is passed over."""
    F = GF(7)
    A, B = random_homo(4, 2, F, 0), random_homo(4, 3, F, 1000)
    on_both = next(pt for pt in enumerate_projective(3, 7)
                   if not eval_poly(A, pt.coords) and not eval_poly(B, pt.coords))
    off = [ProjPoint((1, 3, 5, 6), F), ProjPoint((1, 0, 0, 0), F)]
    assert eval_poly(A, off[0].coords) and eval_poly(B, off[0].coords)
    with pytest.raises(NotSingular, match=r"^form nonzero at \(1, 3, 5, 6\)$"):
        verify_nodal(NodalInstance([A, B], point_set([on_both] + off)))


def test_verify_nodal_refuses_rational_field():
    f = parse_poly("x^2 + y^2 + z^2", 4, QQ)
    vertex = ProjPoint(tuple(Fraction(c) for c in (0, 0, 0, 1)), QQ)
    with pytest.raises(ValueError, match="prime field"):
        verify_nodal(NodalInstance([f], point_set([vertex])))


def test_node_checks_evaluate_no_point_alone(monkeypatch, ci_22):
    """The re-checks and node checks evaluate at all points at once: no
    eval_poly or eval_poly_horner call, on q^2 over F_101 (10 404 singular
    points) and on a complete intersection."""
    import factlab.poly as poly

    calls = []
    for name in ("eval_poly", "eval_poly_horner"):
        original = getattr(poly, name)

        def counting(*args, _original=original, _name=name):
            calls.append(_name)
            return _original(*args)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "factlab":
                for key, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, key, counting)
    q = parse_poly("x*y - z*w", 4, GF(101))
    sing = singular_points(q * q)
    inst = verify_nodal(NodalInstance([q * q], sing))
    assert len(sing) == 102**2 and not any(inst.node_flags)
    F, G = ci_22.defining
    sing = ci_singular_points(F, G)
    inst = verify_nodal(NodalInstance([F, G], sing))
    assert len(sing) == len(ci_22.sing) and inst.clean
    assert calls == []


def test_verify_nodal_evaluates_each_derivative_once(monkeypatch, ci_22):
    """The node checks build and evaluate each form, each partial and each
    second partial once, at all points, by one eval_forms call per
    derivative order and form, and never by horner_on_rows: forms of 1, n+1
    and (n+1)(n+2)/2 polys per form, at the 10 404 points of q^2 over F_101
    (4 charts) and at the nodes of a complete intersection of two quadrics
    in P^5.  The second partials are taken from the gradient, so each form
    costs (n+1) + (n+1)(n+2)/2 poly.partial calls."""
    import factlab.poly as poly
    import factlab.sing_locus as sl

    calls = []
    for name in ("eval_forms", "horner_on_rows"):
        def counting(polys, rows, p, _original=getattr(sl, name), _name=name):
            calls.append((_name, rows.shape[0], len(polys) if _name == "eval_forms" else None))
            return _original(polys, rows, p)

        monkeypatch.setattr(sl, name, counting)
    q = parse_poly("x*y - z*w", 4, GF(101))
    sing = singular_points(q * q)
    assert len(sing) == 102**2 and _charts(sing) == {0, 1, 2, 3}
    partials = []
    original = poly.partial
    monkeypatch.setattr(poly, "partial", lambda f, v: partials.append(v) or original(f, v))
    calls.clear()
    verify_nodal(NodalInstance([q * q], sing))
    assert calls == [("eval_forms", len(sing), size) for size in (1, 4, 10)]
    assert len(partials) == 4 + 10
    calls.clear()
    partials.clear()
    verify_nodal(NodalInstance(ci_22.defining, ci_22.sing))
    assert calls == [("eval_forms", len(ci_22.sing), size) for size in (1, 1, 6, 6, 21, 21)]
    assert len(partials) == 2 * (6 + 21)
