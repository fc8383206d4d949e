import random
import re
from fractions import Fraction

import numpy as np
import pytest

from factlab.errors import DuplicatePoint, TooLarge, ZeroVector
from factlab.fields import GF, QQ
from factlab.linalg import rank
from factlab.projgeom import (
    SCAN_CAP,
    PointSet,
    canonicalize,
    first_copies,
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


def test_pointset_over_fp_holds_one_read_only_array():
    F = GF(7)
    rows = np.array([[1, 2, 3], [0, 1, 4], [0, 0, 1]], dtype=np.int64)
    sigma = PointSet(2, F, rows)
    assert sigma.rows is rows and not rows.flags.writeable
    assert len(sigma) == 3 and sigma.point(1).coords == (0, 1, 4)
    assert [pt.coords for pt in sigma] == [(1, 2, 3), (0, 1, 4), (0, 0, 1)]
    assert canonicalize([2, 4, 6], F) in sigma and canonicalize([1, 1, 1], F) not in sigma
    assert sigma.without(sigma.point(0)) == PointSet(2, F, rows[1:])
    assert sigma.take([2, 0]).rows.tolist() == [[0, 0, 1], [1, 2, 3]]
    assert point_set(list(sigma)) == sigma


_CONTRACT_ROWS = {
    "GF7": [[1, 2, 3], [0, 1, 4], [0, 0, 1], [1, 5, 6]],
    "QQ": [[1, Fraction(1, 2), 3], [0, 1, Fraction(-4, 3)], [0, 0, 1], [1, -5, Fraction(2, 7)]],
}


@pytest.mark.parametrize("field, name", [(GF(7), "GF7"), (QQ, "QQ")])
def test_pointset_contract_on_both_fields(field, name):
    """One PointSet contract over F_7 and over QQ: rows is one read-only
    array (int64, or dtype object holding Fractions), and len, point(i),
    iteration, in, without, take and == read it; a non-canonical row, a
    repeat and over QQ a row with an inexact entry are refused by name; the
    file format round-trips."""
    pts = [canonicalize(c, field) for c in _CONTRACT_ROWS[name]]
    sigma = point_set(pts)
    rows = sigma.rows
    assert rows.dtype == (np.int64 if field.p else object) and rows.shape == (4, 3)
    assert rows.tolist() == [list(pt.coords) for pt in pts]
    with pytest.raises(ValueError):
        rows[0, 1] = 0
    assert len(sigma) == 4 and sigma.point(1) == pts[1] and sigma.points == tuple(pts)
    assert list(sigma) == pts
    outside = canonicalize([1, 1, 1], field)
    assert pts[2] in sigma and outside not in sigma
    assert sigma.without(pts[0]) == point_set(pts[1:]) and sigma.without(outside) is sigma
    subset = sigma.take([3, 0])
    assert subset == point_set([pts[3], pts[0]]) and not subset.rows.flags.writeable
    assert sigma != point_set(pts[::-1]) and sigma != point_set(pts[:3])
    assert load_point_set(dump_point_set(sigma)) == sigma
    doubled = np.array([[2 * x for x in pts[3].coords]], dtype=rows.dtype)
    named = ", ".join(map(str, doubled[0].tolist()))
    with pytest.raises(ValueError, match=rf"^row \[{re.escape(named)}\] is not a canonical point$"):
        PointSet(2, field, np.concatenate([rows, doubled]))
    with pytest.raises(DuplicatePoint, match=rf"^duplicate point {re.escape(str(pts[1]))}$"):
        PointSet(2, field, np.concatenate([rows, rows[1:2], rows[:1]]))
    if not field.p:
        inexact = r"^row \[0, 1, 0\.25\] holds an entry that is not an int or a Fraction$"
        with pytest.raises(ValueError, match=inexact):
            PointSet(2, field, [[1, 0, 0], [0, 1, 0.25], [1, 0.5, 0]])


@pytest.mark.parametrize("rows, error, match", [
    ([[1, 2, 3], [2, 4, 6]], ValueError, r"row \[2, 4, 6\] is not a canonical point"),
    ([[0, 3, 1]], ValueError, r"row \[0, 3, 1\] is not a canonical point"),
    ([[0, 0, 0]], ValueError, r"row \[0, 0, 0\] is not a canonical point"),
    ([[1, 7, 0]], ValueError, r"row \[1, 7, 0\] is not a canonical point"),
    ([[1, -1, 0]], ValueError, r"row \[1, -1, 0\] is not a canonical point"),
    ([[1, 2, 3, 4]], ValueError, r"shape \(1, 4\), not \(N, 3\)"),
    ([1, 2, 3], ValueError, r"shape \(3,\), not \(N, 3\)"),
    ([[0, 1, 2], [1, 2, 3], [0, 1, 5], [1, 2, 3], [0, 1, 2]], DuplicatePoint,
     r"^duplicate point \(1:2:3\)$"),
])
def test_pointset_refuses_bad_rows(rows, error, match):
    """One array test per set: a row that is not canonical mod 7 (a pivot
    other than 1, a zero row, an entry >= p or < 0), a wrong width; and a
    repeat, named at its first repeat in input order."""
    with pytest.raises(error, match=match):
        PointSet(2, GF(7), np.array(rows, dtype=np.int64))


def test_empty_pointset():
    for field in (GF(7), QQ):
        empty = point_set([], ambient_dim=2, field=field)
        assert len(empty) == 0 and list(empty) == [] and empty.points == ()
        assert load_point_set(dump_point_set(empty)) == empty
    assert PointSet(3, GF(7), np.zeros((0, 4), dtype=np.int64)).rows.shape == (0, 4)


@pytest.mark.parametrize("p, width", [(5, 3), (101, 4), (2**31 - 1, 2), (2**31 - 1, 3), (2**31 - 1, 6)])
def test_first_copies_matches_list_index(p, width):
    """One stable sort of base-p keys; at p = 2^31 - 1 a key holds two
    columns, so widths 3 and 6 sort by several keys."""
    rng = random.Random(p + width)
    values = [0, 1, 2, p - 1]  # few values: many repeats
    for count in (0, 1, 2, 50):
        rows = [[rng.choice(values) for _ in range(width)] for _ in range(count)]
        got = first_copies(np.array(rows, dtype=np.int64).reshape(count, width), p)
        assert got.tolist() == [rows.index(r) for r in rows]


def test_load_point_set_canonicalizes_fp_rows_at_once():
    """The F_p file path, canonicalized as one array, gives the points that
    canonicalize gives one at a time, and refuses a zero row as before."""
    rng = random.Random(3)
    F = GF(101)
    raw, seen = [], set()
    while len(raw) < 40:
        r = [rng.randrange(-300, 300) for _ in range(4)]
        if any(c % 101 for c in r) and canonicalize(r, F).coords not in seen:
            seen.add(canonicalize(r, F).coords)
            raw.append(r)
    sigma = load_point_set("P 3 Fp:101\n" + "\n".join(",".join(map(str, r)) for r in raw) + "\n")
    assert [pt.coords for pt in sigma] == [canonicalize(r, F).coords for r in raw]
    assert load_point_set("P 1 Fp:7\n3,5\n1/2,3\n").rows.tolist() == [[1, 4], [1, 6]]
    with pytest.raises(ZeroVector):
        load_point_set("P 2 Fp:7\n1,2,3\n7,14,0\n")
