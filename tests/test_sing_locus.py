import pytest

from factlab.errors import CharDividesDegree
from factlab.fields import GF
from factlab.poly import eval_poly, gradient, linear_change, parse_poly, random_homo
from factlab.projgeom import enumerate_projective
from factlab.rng import SplitMix64
from factlab.sing_locus import (
    NodalInstance,
    ci_singular_points,
    singular_points,
    verify_nodal,
)


def test_fermat_quartic_smooth():
    f = parse_poly("x^4 + y^4 + z^4 + w^4", 4, GF(101))
    assert len(singular_points(f)) == 0


def test_quadric_cone_vertex():
    f = parse_poly("x^2 + y^2 + z^2", 4, GF(101))
    sing = singular_points(f)
    assert [q.coords for q in sing] == [(0, 0, 0, 1)]
    inst = verify_nodal(NodalInstance([f], 3, sing))
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
    inst = verify_nodal(NodalInstance([f], 3, sing))
    assert not inst.clean
    assert inst.isolated_warning is not None


def test_node_flags_invariant_under_linear_change():
    F = GF(101)
    f = parse_poly("x^2 + y*z", 4, F)  # cone over a smooth quadric
    sing = singular_points(f)
    flags = verify_nodal(NodalInstance([f], 3, sing)).node_flags
    M = [[1, 0, 2, 0], [3, 1, 0, 0], [0, 0, 1, 1], [0, 5, 0, 1]]
    g = linear_change(f, M)
    sing_g = singular_points(g)
    flags_g = verify_nodal(NodalInstance([g], 3, sing_g)).node_flags
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
    inst = verify_nodal(NodalInstance(double_solid_r2.defining, 3, double_solid_r2.sing))
    assert len(inst.sing) == 6 and inst.clean and len(built) == 1
    built.clear()
    inst = verify_nodal(NodalInstance(ci_22.defining, ci_22.ambient_dim, ci_22.sing))
    assert len(inst.sing) > 1 and inst.clean and len(built) == 2
