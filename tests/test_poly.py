from fractions import Fraction

import pytest

from factlab.errors import (
    BadChart,
    NotHomogeneous,
    NotSingular,
    OddDegree,
    PolySyntaxError,
    UnknownVariable,
)
from factlab.fields import GF, QQ
from factlab.projgeom import ProjPoint
from factlab.poly import (
    divide_by_linear,
    embed_poly,
    eval_poly,
    eval_poly_horner,
    gradient,
    hessian,
    hessian_block,
    hessian_rank_at,
    linear_change,
    make_poly,
    monomial_basis,
    parse_poly,
    partial,
    poly_sqrt,
    random_homo,
    restrict_to_plane,
    zero_poly,
)
from factlab.projgeom import canonicalize
from factlab.rng import SplitMix64


def test_parse_basic():
    f = parse_poly("x^2 + y*z", 3, GF(7))
    assert f.degree == 2 and len(f.terms) == 2
    assert f.coeff((2, 0, 0)) == 1
    assert f.coeff((0, 1, 1)) == 1


def test_parse_not_homogeneous():
    with pytest.raises(NotHomogeneous):
        parse_poly("x + y^2", 2, GF(7))


def test_parse_cancellation_to_zero():
    f = parse_poly("3*x^2 + 4*x^2", 3, GF(7))
    assert f.is_zero() and f.degree == 2


def test_parse_unknown_variable():
    with pytest.raises(UnknownVariable):
        parse_poly("x + q", 2, GF(7))


def test_parse_syntax_error():
    with pytest.raises(PolySyntaxError):
        parse_poly("x^^2", 2, GF(7))


def test_parse_rational_coeffs():
    f = parse_poly("1/2*x^2 - 3*y^2", 2, QQ)
    assert f.coeff((2, 0)) == Fraction(1, 2)
    assert f.coeff((0, 2)) == Fraction(-3)


def test_to_text_roundtrip():
    F = GF(101)
    f = random_homo(4, 3, F, 99)
    assert parse_poly(f.to_text(), 4, F) == f
    g = random_homo(3, 2, QQ, 5)
    assert parse_poly(g.to_text(), 3, QQ) == g


def test_monomial_basis_counts():
    assert len(monomial_basis(4, 2)) == 10
    assert monomial_basis(2, 0) == [(0, 0)]
    assert len(monomial_basis(5, 1)) == 5
    # graded-lex: strictly descending tuples
    b = monomial_basis(3, 3)
    assert all(b[i] > b[i + 1] for i in range(len(b) - 1))


def test_eval_poly():
    f = parse_poly("x^2 + y*z", 3, GF(7))
    assert eval_poly(f, (1, 2, 3)) == 0
    assert eval_poly(f, (0, 0, 0)) == 0
    g = parse_poly("x*y", 2, QQ)
    assert eval_poly(g, (Fraction(2, 3), Fraction(3, 2))) == 1


def test_eval_agreement_horner():
    F = GF(97)
    rng = SplitMix64(3)
    for trial in range(20):
        f = random_homo(4, 3, F, rng.next_u64())
        pt = tuple(rng.below(97) for _ in range(4))
        assert eval_poly(f, pt) == eval_poly_horner(f, pt)


def test_gradient():
    f = parse_poly("x^2 + y^2 + z^2", 3, GF(7))
    assert [g.to_text() for g in gradient(f)] == ["2*x", "2*y", "2*z"]
    f = parse_poly("x*y*z", 3, GF(7))
    assert [g.to_text() for g in gradient(f)] == ["y*z", "x*z", "x*y"]
    f = parse_poly("x^3", 2, GF(3))
    assert partial(f, 0).is_zero()  # characteristic pitfall, flagged not hidden


def test_euler_relation():
    F = GF(101)
    f = random_homo(3, 4, F, 11)
    pt = (3, 5, 7)
    total = sum(c * eval_poly(g, pt) for c, g in zip(pt, gradient(f))) % 101
    assert total == (4 * eval_poly(f, pt)) % 101


def test_hessian_rank():
    F = GF(101)
    f = parse_poly("x^2 + y^2 + z^2", 4, F)
    P = canonicalize([0, 0, 0, 1], F)
    assert hessian_rank_at(f, P) == 3
    g = parse_poly("x^2*w + y^2*w", 4, F)
    assert hessian_rank_at(g, P) == 2
    smooth = parse_poly("x^2 + y^2 + z^2 + w^2", 4, F)
    with pytest.raises(NotSingular):
        hessian_rank_at(smooth, P)


def test_hessian_rank_invariant_under_linear_change():
    F = GF(101)
    f = parse_poly("x^2 + y^2 + z^2", 4, F)
    P = canonicalize([0, 0, 0, 1], F)
    # invertible change of coordinates fixing w up to mixing
    M = [[1, 2, 0, 0], [0, 1, 3, 0], [1, 0, 1, 0], [5, 0, 2, 1]]
    g = linear_change(f, M)
    # image of P under the inverse change: g(Q) where M maps new to old;
    # P_new with M @ P_new = P_old; easier: singular locus of g is a point
    from factlab.sing_locus import singular_points

    sing = singular_points(g)
    assert len(sing) == 1
    assert hessian_rank_at(g, sing.points[0]) == 3


def test_hessian_block_in_the_pivot_chart():
    F = GF(101)
    f = parse_poly("x^2*w + 3*x*y*w + y^3 + 5*z^3", 4, F)
    H = hessian(f)
    assert all(H[i][j] == H[j][i] for i in range(4) for j in range(4))
    assert H[0][3].to_text() == "2*x + 3*y"
    # at (0:0:0:1) the w-row and column go; d^2/dx^2 (x^2) = 2, d^2/dxdy = 3
    assert hessian_block(H, (0, 0, 0, 1)) == [[2, 3, 0], [3, 0, 0], [0, 0, 0]]
    # at (1:0:0:0) the x-row and column go, and w = 0 there
    assert hessian_block(H, (1, 0, 0, 0)) == [[0, 0, 3], [0, 0, 0], [3, 0, 0]]


def test_hessian_rank_independent_of_representative():
    # along q = 0 the Hessian of q^2 is 2 grad(q) grad(q)^T, of rank 1; a
    # representative whose pivot coordinate is not 1 must give the same rank
    F = GF(101)
    q = parse_poly("x*w - y*z", 4, F)
    coords = (1, 2, 3, 6)
    for scale in (1, 2, 3, 100):
        pt = ProjPoint(tuple(scale * c % 101 for c in coords), F)
        assert hessian_rank_at(q * q, pt) == 1


def test_restrict_to_plane():
    F = GF(101)
    f = parse_poly("x^2 + y*z + x*w", 4, F)
    ell = parse_poly("x", 4, F)
    r = restrict_to_plane(f, ell, 0)
    assert r == parse_poly("x*y", 3, F)  # y*z in (y,z,w) renamed to (x,y,z)
    with pytest.raises(BadChart):
        restrict_to_plane(f, ell, 1)


def test_divide_by_linear():
    F = GF(101)
    ell = parse_poly("x + 2*y", 3, F)
    g = parse_poly("x^2 + y*z", 3, F)
    product = ell * g
    q = divide_by_linear(product, ell)
    assert q == g
    assert divide_by_linear(parse_poly("x^2 + y^2 + z^2", 3, F), ell) is None


def test_poly_sqrt_roundtrip():
    F = GF(101)
    rng = SplitMix64(17)
    for trial in range(10):
        g = random_homo(3, 2, F, rng.next_u64())
        if g.is_zero():
            continue
        root = poly_sqrt(g * g)
        assert root is not None
        assert root * root == g * g
    with pytest.raises(OddDegree):
        poly_sqrt(parse_poly("x^3", 2, F))
    assert poly_sqrt(parse_poly("x^2 + y^2", 2, F)) is None


def test_poly_sqrt_rational():
    g = parse_poly("x^2 - 1/2*y*z", 3, QQ)
    root = poly_sqrt(g * g)
    assert root * root == g * g


def test_embed_poly():
    F = GF(7)
    g = parse_poly("x^2 + y*z", 3, F)
    lifted = embed_poly(g, 4, (1, 2, 3))
    assert lifted.nvars == 4
    assert lifted.coeff((0, 2, 0, 0)) == 1
    assert lifted.coeff((0, 0, 1, 1)) == 1


def test_zero_poly_and_arithmetic():
    F = GF(7)
    z = zero_poly(3, 2, F)
    f = parse_poly("x^2", 3, F)
    assert (f + z) == f and (f - f).is_zero()
    assert (f.scale(0)).is_zero()
