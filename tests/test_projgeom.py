import pytest

from factlab.errors import DuplicatePoint, TooLarge, ZeroVector
from factlab.fields import GF, QQ
from factlab.linalg import rank
from factlab.projgeom import (
    SCAN_CAP,
    PointSet,
    canonicalize,
    check_scan_cap,
    dump_point_set,
    enumerate_projective,
    line_points,
    load_point_set,
    point_set,
    projective_count,
    span_dim,
)
from factlab.scan import coords_table


def test_canonicalize():
    F = GF(7)
    p = canonicalize([2, 4, 6], F)
    assert p.coords == (1, 2, 3)
    with pytest.raises(ZeroVector):
        canonicalize([0, 0, 0], F)


def test_pointset_rejects_duplicates():
    F = GF(7)
    a = canonicalize([1, 2, 3], F)
    b = canonicalize([2, 4, 6], F)
    with pytest.raises(DuplicatePoint):
        point_set([a, b])


def test_enumeration_count_and_canonical():
    for n, p in [(1, 5), (2, 5), (2, 7), (3, 3)]:
        pts = list(enumerate_projective(n, p))
        assert len(pts) == projective_count(n, p)
        assert len({q.coords for q in pts}) == len(pts)
        for q in pts:
            nz = next(c for c in q.coords if c)
            assert nz == 1


def test_enumeration_cap():
    with pytest.raises(TooLarge):
        next(enumerate_projective(3, 467))


def test_scan_cap_boundary():
    """The cap is 10^8 points: P^3(F_463) fits, P^3(F_467) does not."""
    assert SCAN_CAP == 10**8
    assert projective_count(3, 463) == 99_467_680
    check_scan_cap(3, 463)
    with pytest.raises(TooLarge, match=r"P\^3\(F_467\) has 102066120 points > cap 100000000"):
        check_scan_cap(3, 467)


def test_line_points():
    """v first, then u + t*v for t = 0..p-1, each canonical: the p+1 points
    of P^2(F_5) on the line through u and v."""
    F = GF(5)
    u, v = (2, 1, 0), (0, 3, 1)
    pts = line_points(u, v, F)
    assert pts[:3] == [(0, 1, 2), (1, 3, 0), (1, 2, 3)]
    assert all(canonicalize(q, F).coords == q for q in pts)
    on_line = [q.coords for q in enumerate_projective(2, 5) if rank([u, v, q.coords], F) == 2]
    assert sorted(pts) == sorted(on_line) and len(pts) == 6


def test_coords_table_matches_enumeration():
    import numpy as np

    for n, p in [(2, 5), (3, 3)]:
        table = coords_table(n, p)
        pts = list(enumerate_projective(n, p))
        assert table.shape == (len(pts), n + 1)
        for row, q in zip(table, pts):
            assert tuple(int(v) for v in row) == q.coords


def test_span_dim():
    F = GF(7)
    a = canonicalize([1, 0, 0], F)
    b = canonicalize([0, 1, 0], F)
    c = canonicalize([1, 1, 0], F)
    assert span_dim([a]) == 0
    assert span_dim([a, b]) == 1
    assert span_dim([a, b, c]) == 1


def test_point_set_file_roundtrip():
    F = GF(101)
    sigma = point_set([canonicalize([1, t, t + 1], F) for t in range(4)])
    text = dump_point_set(sigma)
    again = load_point_set(text)
    assert again == sigma


def test_point_set_file_comments_and_rational():
    text = "# header comment\nP 2 QQ\n1,2,3\n# another\n1/2,1,0\n"
    sigma = load_point_set(text)
    assert len(sigma) == 2
    assert sigma.field == QQ
    assert sigma.points[1].coords[1] == 2  # canonicalized: 1/2 scaled to 1
