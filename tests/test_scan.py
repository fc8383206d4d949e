import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import factlab.linalg as linalg
import factlab.scan as scan
import factlab.sing_locus as sing_locus
from factlab import cli
from factlab.errors import TooLarge, VerificationFailure
from factlab.fields import GF
from factlab.poly import (HomoPoly, eval_poly_horner, gradient, make_poly, monomial_basis,
                          parse_poly, point_row, random_homo)
from factlab.projgeom import SCAN_CAP, enumerate_projective, projective_count
from factlab.linalg import _EXACT
from factlab.scan import (_CHUNK, _STEP, _chart_table, _grid_zeros, _horner,
                          _horner_at, _nonzero_constant, _zeros_at, common_zeros, coords_table,
                          eval_forms, eval_on_points, horner_on_rows, monomial_columns,
                          projective_zeros)


def _form(nvars, degree, field, rng, density):
    terms = {m: rng.randrange(1, field.p) for m in monomial_basis(nvars, degree) if rng.random() < density}
    return make_poly(nvars, degree, terms, field)


def _times_x0(g):
    x0 = make_poly(g.nvars, 1, {(1,) + (0,) * (g.nvars - 1): 1}, g.field)
    return x0 * g


def _cases():
    """(n, p, polys): seeded random forms of degree 1..6, some of degree >= p,
    some sparse, some of the form x0 * g (zero on every chart but the first)."""
    rng = random.Random(20260)
    for n in range(1, 5):
        for p in (2, 3, 5, 7, 13):
            if projective_count(n, p) > 40_000:
                continue
            # FieldSpec refuses p = 2; the scan reads coefficients as integers
            # mod p, so F_2 forms are written over a larger field
            field = GF(p if p > 2 else 101)
            for degree in range(1, 7):
                first = _form(n + 1, degree, field, rng, rng.choice((0.3, 1.0)))
                if degree > 1 and rng.random() < 0.3:
                    first = _times_x0(_form(n + 1, degree - 1, field, rng, 1.0))
                rest = [_form(n + 1, rng.randint(1, degree), field, rng, 1.0)
                        for _ in range(rng.randint(0, 2))]
                yield pytest.param(n, p, [first] + rest, id=f"n{n}-p{p}-d{degree}")


def _slabs_and_survivors():
    """n = 4, p = 17 with a first form x0 * g: the first chart's grid of 17^4
    points spans more than one slab, and every point of the second chart (17^3 points)
    survives the first form, more than one step of the filter."""
    rng = random.Random(17)
    field = GF(17)
    first = _times_x0(_form(5, 2, field, rng, 1.0))
    return 4, 17, [first, _form(5, 3, field, rng, 1.0), _form(5, 1, field, rng, 1.0)]


def _boundary_cases():
    yield pytest.param(*_slabs_and_survivors(), id="slabs-and-steps")
    rng = random.Random(3)
    field = GF(13)
    yield pytest.param(3, 13, [_form(4, d, field, rng, 1.0) for d in (4, 2, 5, 1)],
                       id="mixed-degrees")
    field = GF(5)
    zero = make_poly(4, 2, {}, field)
    constant = make_poly(4, 0, {(0, 0, 0, 0): 3}, field)
    high = _form(4, 7, field, rng, 0.5)  # degree >= p
    first = _form(4, 3, field, rng, 1.0)
    yield pytest.param(3, 5, [first, zero, high], id="zero-and-high-degree")
    yield pytest.param(3, 5, [zero, high, first], id="zero-first")
    yield pytest.param(3, 5, [first, constant, high], id="constant")


def test_boundary_case_crosses_slab_and_step():
    # keeps the slabs-and-steps case meaningful if the module's constants change
    n, p, polys = _slabs_and_survivors()
    assert -(-p ** (n - 1) // (_CHUNK // p)) >= 2  # blocks of columns of the first chart
    assert _grid_zeros(polys[0], 1, p).size == p ** (n - 1) > _STEP


@pytest.mark.parametrize("n,p,polys", [*_cases(), *_boundary_cases()])
def test_projective_zeros_matches_table_scan(n, p, polys):
    want = common_zeros(polys, coords_table(n, p), p)
    got = projective_zeros(polys, n, p)
    assert got.dtype == np.int64 and got.shape == want.shape
    assert np.array_equal(got, want)
    if p > 2 and projective_count(n, p) <= 1000:
        slow = [q.coords for q in enumerate_projective(n, p)
                if all(not eval_poly_horner(f, q.coords) for f in polys)]
        assert [tuple(map(int, row)) for row in projective_zeros(polys, n, p)] == slow


# --- exact products mod p ------------------------------------------------------

# 2^26 - 5 is prime: two products of residues (p - 1)^2 sum below 2^53, three do not
_NEAR_BOUND = 67108859


def _python_values(forms, rows, p):
    return [[sum(int(c) * _python_monomial(m, row, p) for m, c in f.terms.items()) % p
             for f in forms] for row in rows]


def _python_monomial(mono, row, p):
    out = 1
    for x, e in zip(row, mono):
        out = out * pow(int(x), e, p) % p
    return out


@pytest.mark.parametrize("p", [2, 3, 101, 10007, _NEAR_BOUND, 2**31 - 1])
@pytest.mark.parametrize("path", ["chosen", "int64"])
def test_eval_forms_matches_python_integers(monkeypatch, product_paths, p, path):
    """Seeded dense forms of degree 1..4 at rows with 0 and p - 1 entries,
    with no rows at all, and on every side of the exact-product bounds: the
    float32 product for p <= 101, float64 for larger p, the int64 sum of
    terms at p = 2^31 - 1, and that sum at every p when linalg's float64
    bound is lowered (a test hook)."""
    if path == "int64":
        monkeypatch.setattr(linalg, "_EXACT", 1)
    rng = random.Random(p)
    field = GF(p if p > 2 else 101)  # FieldSpec refuses p = 2; the coefficients are read mod p
    sides = set()
    for nvars in (2, 3, 4):
        rows = np.array([[0] * nvars, [p - 1] * nvars]
                        + [[rng.randrange(p) for _ in range(nvars)] for _ in range(6)],
                        dtype=np.int64)
        for degree in range(1, 5):
            forms = [_form(nvars, degree, field, rng, density) for density in (1.0, 0.5, 0.0)]
            got = eval_forms(forms, rows, p)
            assert got.dtype == np.int64 and got.tolist() == _python_values(forms, rows, p)
            assert eval_forms(forms, rows[:0], p).shape == (0, 3)
            sides.add(len(monomial_basis(nvars, degree)) * (p - 1) ** 2 < linalg._EXACT)
    if path == "int64" or p == 2**31 - 1:
        assert sides == {False} and set(product_paths) == {"int64"}
    else:
        assert sides == ({True, False} if p == _NEAR_BOUND else {True})
        # at most 35 monomials: 35 (p - 1)^2 < 2^23 for p <= 101
        assert set(product_paths) == ({"float64", "int64"} if p == _NEAR_BOUND
                                      else {"float32"} if p <= 101 else {"float64"})


@pytest.mark.parametrize("nvars", [2, 3])
def test_eval_forms_at_the_exact_bound(product_paths, nvars):
    """Every column and coefficient p - 1 makes the largest sum: 2 (p - 1)^2
    < 2^53 takes the float64 product, 3 (p - 1)^2 does not."""
    p = _NEAR_BOUND
    assert (2 * (p - 1) ** 2 < _EXACT) and (3 * (p - 1) ** 2 >= _EXACT)
    linear = [tuple(int(i == v) for i in range(nvars)) for v in range(nvars)]
    f = make_poly(nvars, 1, {m: p - 1 for m in linear}, GF(p))
    rows = np.full((3, nvars), p - 1, dtype=np.int64)
    assert eval_forms([f, f], rows, p).tolist() == [[nvars * (p - 1) ** 2 % p] * 2] * 3
    assert set(product_paths) == {"float64" if nvars == 2 else "int64"}


def _dense_cases():
    """Seeded dense forms over larger fields than _cases: several blocks of
    columns per chart, P^1 with more than one block of grid rows (p >
    _CHUNK), and degree 12, whose 13 table rows shrink a block below _CHUNK
    points.  One dense form alone, and forms sharing a seeded linear factor,
    so that the later forms have zeros to filter."""
    rng = random.Random(2026)
    for n, p, degrees in ((2, 101, (3, 2)), (3, 31, (4, 3)), (4, 11, (3, 2)), (2, 211, (12, 5)),
                          (1, 65537, (9, 4)), (3, 17, (5, 4, 2))):
        field = GF(p)
        yield pytest.param(n, p, [_form(n + 1, degrees[0], field, rng, 1.0)], id=f"n{n}-p{p}")
        line = _form(n + 1, 1, field, rng, 1.0)
        polys = [line * _form(n + 1, d - 1, field, rng, 1.0) for d in degrees]
        yield pytest.param(n, p, polys, id=f"n{n}-p{p}-shared-line")


@pytest.mark.parametrize("n,p,polys", _dense_cases())
def test_projective_zeros_matches_table_scan_dense(n, p, polys):
    want = common_zeros(polys, coords_table(n, p), p)
    assert want.shape[0] > 0
    assert np.array_equal(projective_zeros(polys, n, p), want)


def test_grid_pass_past_the_bound_on_p1(monkeypatch, product_paths):
    """Past D (p-1)^2 < 2^53, met only on P^1 over a large p, the grid pass
    takes linalg's int64 product, block by block: forced here by lowering
    linalg's bound (a test hook) on a product of linear forms and a dense
    form over F_65537."""
    p = 65537
    field = GF(p)
    rng = random.Random(p)
    line = [make_poly(2, 1, {(1, 0): rng.randrange(1, p), (0, 1): rng.randrange(1, p)}, field)
            for _ in range(3)]
    polys = [line[0] * line[1] * line[2] * _form(2, 2, field, rng, 1.0),
             _form(2, 3, field, rng, 1.0)]
    want = [common_zeros(polys[:k], coords_table(1, p), p) for k in (1, 2)]
    monkeypatch.setattr(linalg, "_EXACT", 1)
    product_paths.clear()
    for k in (1, 2):
        assert np.array_equal(projective_zeros(polys[:k], 1, p), want[k - 1])
    assert want[0].shape[0] >= 3 and product_paths["int64"] >= 2 * -(-p // _CHUNK)
    assert set(product_paths) == {"int64"}


def test_ci_scan_memory_is_bounded():
    """The grid pass converts and multiplies a chart table in blocks, in
    the narrowest exact words: the traced peak of ci_singular_points on a
    seeded (cubic, quadric) pair in P^5(F_17), whose first chart table is
    (4, 83 521), is 2.30 MiB with int32 tables and float32 products, and
    stays under 2.45 MiB.  float64 products put it at 2.58 MiB, int64 tables
    at 3.57 MiB, and the int64 Horner pass the blocks replaced at 3.92."""
    import tracemalloc

    F, G = random_homo(6, 3, GF(17), 7), random_homo(6, 2, GF(17), 8)
    tracemalloc.start()
    try:
        sing_locus.ci_singular_points(F, G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.45 * 2**20, peak


@pytest.mark.parametrize("p", [2, 3, 7, 101])
def test_huge_exponents_match_eval_poly_horner(p):
    """Exponents far above p: each evaluator reduces them by Fermat
    (x^e = x^(1 + (e-1) mod (p-1)) for e >= 1), and agrees with the
    per-point oracle, which raises to the full power."""
    rng = random.Random(p)
    field = GF(p if p > 2 else 101)
    big = [(100002, 2, 2, 2), (p, 1, 0, 0), (p - 1, 0, 3 * p, 1), (1, 2 * p + 1, 0, 5 * p)]
    for mono in big:
        f = HomoPoly(4, sum(mono), {mono: rng.randrange(1, field.p),
                                    (0, 0, 0, sum(mono)): rng.randrange(1, field.p)}, field)
        rows = np.array([[rng.randrange(p) for _ in range(4)] for _ in range(20)]
                        + [[0, 0, 0, 1], [p - 1] * 4], dtype=np.int64)
        if p == 2:  # the oracle works over the field of the form
            want = [sum(c * _python_monomial(m, row, p) for m, c in f.terms.items()) % p
                    for row in rows.tolist()]
        else:
            want = [eval_poly_horner(f, row) for row in rows.tolist()]
        assert horner_on_rows(f, rows, p).tolist() == want
        assert eval_on_points(f, rows, p).tolist() == want
        (col,) = monomial_columns([mono], rows, p)
        assert col.tolist() == [_python_monomial(mono, row, p) for row in rows.tolist()]


def _euler_cases():
    rng = random.Random(1707)
    for n, p in ((2, 7), (2, 13), (3, 5), (3, 11), (4, 3)):
        for degree in (2, 3, 4):
            yield n, p, [_form(n + 1, degree, GF(p), rng, 1.0)], f"dense-n{n}-p{p}-d{degree}"
    for case in [*_near_misses(), *_fermat_cases()]:
        n, p, polys = (2, 7, case.values[0]) if len(case.values) == 1 else case.values
        yield n, p, polys[:1], case.id


def _euler_params():
    # singular_points refuses degree < 2 and p | degree
    for n, p, polys, name in _euler_cases():
        if polys[0].degree >= 2 and polys[0].degree % p:
            yield pytest.param(n, p, polys, id=name)


@pytest.mark.parametrize("n,p,polys", _euler_params())
def test_hypersurface_scan_reads_the_partials_only(monkeypatch, n, p, polys):
    """singular_points scans the partials alone (Euler: deg * f = sum x_i
    df/dx_i, and p does not divide deg), and finds the rows of the table
    scan of f and all its partials, in the same order."""
    f = polys[0]
    scanned = []
    real = sing_locus.projective_zeros
    monkeypatch.setattr(sing_locus, "projective_zeros",
                        lambda forms, *a: scanned.append(list(forms)) or real(forms, *a))
    want = common_zeros([f] + gradient(f), coords_table(n, p), p)
    got = sing_locus.singular_points(f)
    assert scanned == [gradient(f)]
    assert [pt.coords for pt in got] == [tuple(map(int, row)) for row in want]


@pytest.mark.parametrize("p", [101, 65521, 2**31 - 1])
def test_horner_reduces_before_int64_overflow(p):
    """The chart kernel delays its mod-p reductions; at large p it must still
    reduce before acc * t + c could leave int64."""
    rng = random.Random(p)
    coeffs = np.array([[rng.randrange(p) for _ in range(3)] for _ in range(10)], dtype=np.int64)
    t = np.array([0, 1, p - 1, rng.randrange(p)], dtype=np.int64)
    want = [[sum(int(coeffs[j, g]) * int(x) ** j for j in range(10)) % p for g in range(3)]
            for x in t]
    assert _horner(coeffs, t, p).tolist() == want


@pytest.mark.parametrize("p", [101, 65521, 2**31 - 1])
def test_horner_at_matches_python_integers(p):
    """The per-survivor step of the filter: a chart table at flat grid
    indices t_1 * G + column, with t_1 = p - 1 and the last column among them."""
    rng = random.Random(p)
    cols = 7
    table = np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(12)], dtype=np.int64)
    pairs = [(t, c) for t in (0, 1, p - 1, rng.randrange(p)) for c in (0, cols - 1, rng.randrange(cols))]
    idx = np.array([t * cols + c for t, c in pairs], dtype=np.int64)
    want = [sum(int(table[j, c]) * t**j for j in range(12)) % p for t, c in pairs]
    assert _horner_at(table, idx, p).tolist() == want


# the largest prime with p^2 < 2^31 (int32 residues) and the next prime (int64)
_WORD_PRIMES = [46337, 46349]


@pytest.mark.parametrize("p", _WORD_PRIMES)
def test_horner_in_the_residue_word(p):
    """_horner and _horner_at on tables held in linalg.residue_word(p), int32
    exactly while p^2 < 2^31, against Python-int Horner: every coefficient
    and t_1 = p - 1 make the largest step, (p - 1)^2 + (p - 1) = p (p - 1),
    which fits int32 at 46337 and not at 46349."""
    word = linalg.residue_word(p)[0]
    assert word is (np.int32 if p == 46337 else np.int64)
    rng = random.Random(p)
    coeffs = np.full((10, 3), p - 1, dtype=word)
    coeffs[:, 1] = [rng.randrange(p) for _ in range(10)]
    t = np.array([0, 1, p - 1, rng.randrange(p)], dtype=word)
    want = [[sum(int(coeffs[j, g]) * int(x) ** j for j in range(10)) % p for g in range(3)]
            for x in t]
    got = _horner(coeffs, t, p)
    assert got.dtype == word and got.tolist() == want
    idx = np.array([int(x) * 3 + g for x in t for g in range(3)], dtype=np.int64)
    assert _horner_at(coeffs, idx, p).tolist() == [v for row in want for v in row]


@pytest.mark.parametrize("p", _WORD_PRIMES)
def test_chart_table_at_the_int32_limit(p):
    """A cubic of P^2 with every coefficient p - 1: chart 0's table, in
    linalg.residue_word(p), against Python-int Horner in t_2 on the whole
    grid."""
    f = make_poly(3, 3, {m: p - 1 for m in monomial_basis(3, 3)}, GF(p))
    table = _chart_table(f, 0, p)
    assert table.dtype == linalg.residue_word(p)[0] and table.shape == (4, p)
    for j in range(4):
        terms = [(m[2], int(c)) for m, c in f.terms.items() if m[1] == j]
        want = [sum(c * pow(t, e, p) for e, c in terms) % p for t in range(p)]
        assert table[j].tolist() == want


@pytest.mark.parametrize("p", _WORD_PRIMES)
def test_projective_zeros_on_p1_at_the_int32_limit(p):
    """projective_zeros against common_zeros on P^1 over both primes: a
    form with three seeded linear factors, then a second form sharing one
    of them, filtered on its chart table at the survivors."""
    field, rng = GF(p), random.Random(p)
    line = [make_poly(2, 1, {(1, 0): rng.randrange(1, p), (0, 1): rng.randrange(1, p)}, field)
            for _ in range(3)]
    polys = [line[0] * line[1] * line[2] * _form(2, 2, field, rng, 1.0),
             line[1] * _form(2, 3, field, rng, 1.0)]
    for k in (1, 2):
        want = common_zeros(polys[:k], coords_table(1, p), p)
        assert want.shape[0] >= 1
        assert np.array_equal(projective_zeros(polys[:k], 1, p), want)


def test_chart_table_reduces_exponents_below_p():
    # degree 32 over F_7: each axis of a chart table has at most
    # min(32, 6) + 1 = 7 entries, so no table is larger than the chart's grid
    f = parse_poly("x^31*y + z^32 + w^31*t + v^32 + y^16*z^16", 6, GF(7))
    polys = [f] + gradient(f)
    for g in polys:
        for pivot in range(5):
            assert _chart_table(g, pivot, 7).size <= 7 ** (5 - pivot)
    want = common_zeros(polys, coords_table(5, 7), 7)
    assert want.shape[0] > 0
    assert np.array_equal(projective_zeros(polys, 5, 7), want)


@pytest.mark.parametrize("p", [3, 5, 7, 101, 65521, 2**31 - 1])
def test_horner_on_rows_matches_eval_poly_horner(p):
    rng = random.Random(p)
    field = GF(p)
    for n in range(1, 5):
        rows = np.array([[0] * (n + 1), [p - 1] * (n + 1)]
                        + [[rng.randrange(p) for _ in range(n + 1)] for _ in range(6)],
                        dtype=np.int64)
        for degree in range(1, 10):
            for density in (0.0, 0.1, 1.0):
                f = _form(n + 1, degree, field, rng, density)
                want = [eval_poly_horner(f, row) for row in rows.tolist()]
                assert horner_on_rows(f, rows, p).tolist() == want


def _monomials(nvars, degree, rng, count):
    """x_0^degree and count - 1 seeded monomials of that degree."""
    out = [(degree,) + (0,) * (nvars - 1)]
    for _ in range(count - 1):
        cuts = sorted(rng.randrange(degree + 1) for _ in range(nvars - 1))
        out.append(tuple(b - a for a, b in zip([0] + cuts, cuts + [degree])))
    return out


@pytest.mark.parametrize("p", [5, 101, 2**31 - 1])
@pytest.mark.parametrize("nvars", [2, 3, 4])
def test_monomial_columns_match_point_row(p, nvars):
    """Each column holds point_row's entries for its monomial: degree 0 (a
    column of ones), exponents >= p, zero coordinates, and no points at all
    (a (0, nvars) array).  eval_on_points, the product of the columns with
    the coefficients, equals horner_on_rows on the same rows."""
    rng = random.Random(p + nvars)
    field = GF(p)
    high = p + 2 if p < 1000 else 40
    for npts in (0, 1, 8):
        coords = [tuple(rng.choice((0, 1, p - 1, rng.randrange(p))) for _ in range(nvars))
                  for _ in range(npts)]
        pts = np.array(coords, dtype=np.int64).reshape(npts, nvars)
        for degree in (0, 1, 3, high):
            monos = monomial_basis(nvars, degree) if degree <= 3 else _monomials(nvars, degree, rng, 12)
            cols = list(monomial_columns(monos, pts, p))
            assert len(cols) == len(monos) and all(col.shape == (npts,) for col in cols)
            for i, c in enumerate(coords):
                assert [int(col[i]) for col in cols] == point_row(c, monos, field)
            f = make_poly(nvars, degree, {m: rng.randrange(1, p) for m in monos}, field)
            assert eval_on_points(f, pts, p).tolist() == horner_on_rows(f, pts, p).tolist()


def test_single_point_chart():
    # the last chart is the single point (0:...:0:1)
    F = GF(7)
    assert projective_zeros([parse_poly("x*y", 2, F)], 1, 7).tolist() == [[1, 0], [0, 1]]
    assert projective_zeros([parse_poly("x^2 + y^2", 2, F)], 1, 7).shape == (0, 2)  # -1 is no square
    rows = projective_zeros([parse_poly("x*w", 4, F)], 3, 7)
    assert rows.shape[0] == projective_count(3, 7) - 7**2 * 6  # all but x != 0 != w
    assert rows[-1].tolist() == [0, 0, 0, 1]


def _last_chart_cases():
    """Forms of P^2(F_7) whose z^deg coefficient is 0, p, 2p or a unit,
    stored unreduced, next to a zero form and degree-0 forms."""
    F = GF(7)

    def cubic(top):
        terms = {(1, 1, 1): 2, (0, 2, 1): 3, (2, 0, 1): 1}
        if top is not None:
            terms[0, 0, 3] = top
        return HomoPoly(3, 3, terms, F)

    for top in (None, 7, 14, 3):
        yield pytest.param([cubic(top)], id=f"top-{top}")
    yield pytest.param([cubic(14), cubic(3)], id="zero-then-unit")
    yield pytest.param([HomoPoly(3, 2, {}, F), cubic(7)], id="zero-form")
    yield pytest.param([HomoPoly(3, 0, {(0, 0, 0): 7}, F)], id="degree-0-p")
    yield pytest.param([cubic(None), HomoPoly(3, 0, {(0, 0, 0): 5}, F)], id="degree-0-unit")


@pytest.mark.parametrize("polys", _last_chart_cases())
def test_last_chart_from_coefficients(monkeypatch, polys):
    """The point (0:0:1) is decided by each form's z^deg coefficient mod p,
    as the table scan decides it, and with no common_zeros call."""
    want = common_zeros(polys, coords_table(2, 7), 7)

    def refused(*args):
        raise AssertionError("the last chart went through common_zeros")

    monkeypatch.setattr(scan, "common_zeros", refused)
    assert np.array_equal(projective_zeros(polys, 2, 7), want)


def test_projective_zeros_cap(monkeypatch):
    """P^3(F_467) has more than 10^8 points: refused before any chart table."""
    f = parse_poly("x^2 + y*z", 4, GF(467))

    def refused(*args):
        raise AssertionError("chart table built past the scan cap")

    monkeypatch.setattr(scan, "_chart_table", refused)
    with pytest.raises(TooLarge):
        projective_zeros([f], 3, 467)
    with pytest.raises(TooLarge):
        coords_table(3, 467)


# --- charts on which a form is a nonzero constant ----------------------------


def _fermat(nvars, degree, field, rng):
    """A diagonal form sum a_i x_i^degree, a_i != 0: its partial d * a_i *
    x_i^(degree-1) is a nonzero constant on chart i unless p | degree."""
    return make_poly(nvars, degree, {tuple(degree * (j == i) for j in range(nvars)):
                                     rng.randrange(1, field.p) for i in range(nvars)}, field)


def _fermat_cases():
    rng = random.Random(101)
    for p in (5, 7, 101):
        for n in (2, 3, 4):
            if projective_count(n, p) > SCAN_CAP:
                continue
            for degree in range(2, 7):
                f = _fermat(n + 1, degree, GF(p), rng)
                yield pytest.param(n, p, [f] + gradient(f), id=f"n{n}-p{p}-d{degree}")


def _count_chart_work(monkeypatch):
    """Calls of _chart_table and _grid_zeros from here on, by name."""
    calls = Counter()
    for name in ("_chart_table", "_grid_zeros"):
        def counted(*args, _name=name, _real=getattr(scan, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(scan, name, counted)
    return calls


@pytest.mark.parametrize("n,p,polys", _fermat_cases())
def test_constant_chart_skip_matches_table_scan(n, p, polys):
    assert np.array_equal(projective_zeros(polys, n, p), common_zeros(polys, coords_table(n, p), p))


def test_skipped_chart_builds_no_table(monkeypatch):
    """Each partial of a Fermat quartic is constant on its own chart, so a
    sing scan does no chart work at all."""
    f = _fermat(4, 4, GF(101), random.Random(4))
    calls = _count_chart_work(monkeypatch)
    assert projective_zeros([f] + gradient(f), 3, 101).shape == (0, 4)
    assert not calls
    # only the partial by x_0 is constant on chart 0; charts 1 and 2 are scanned
    projective_zeros([f, gradient(f)[0]], 3, 101)
    assert calls["_grid_zeros"] == 2


def _near_misses():
    F = GF(7)
    yield pytest.param([HomoPoly(3, 3, {(3, 0, 0): 1, (0, 3, 0): 7}, F)], id="p-divides-coefficient")
    yield pytest.param([parse_poly("x^3 + y^3 + z^3", 3, F)], id="pure-power-plus-free-term")
    yield pytest.param([parse_poly("x*z^2 + y^2*z", 3, F)], id="one-term-not-a-pure-power")
    f = parse_poly("x^7 + 2*y^7 + 3*z^7", 3, F)
    yield pytest.param([f] + gradient(f), id="p-divides-degree")  # every partial is zero


@pytest.mark.parametrize("polys", _near_misses())
def test_near_constant_chart_is_scanned(monkeypatch, polys):
    """No form is a nonzero constant on chart 1 (x = 0, y = 1), where each
    case has zeros: both charts of P^2(F_7) with a grid are scanned."""
    calls = _count_chart_work(monkeypatch)
    got = projective_zeros(polys, 2, 7)
    assert calls["_grid_zeros"] == 2
    assert ((got[:, 0] == 0) & (got[:, 1] == 1)).any()
    assert np.array_equal(got, common_zeros(polys, coords_table(2, 7), 7))


# --- the independent re-check of every scan hit ------------------------------


def _bogus_scan(*args, **kwargs):
    n = args[1]
    return np.array([[1] + [0] * n], dtype=np.int64)  # (1:0:...:0), on neither form below


def _keep_every_row(monkeypatch):
    """ci_singular_points filters the scan's rows by Jacobian rank before its
    checks; zero partials at every row let a faked scan row through."""
    monkeypatch.setattr(sing_locus, "eval_forms",
                        lambda forms, rows, p: np.zeros((rows.shape[0], len(forms)), dtype=np.int64))


def test_singular_points_recheck(monkeypatch):
    monkeypatch.setattr(sing_locus, "projective_zeros", _bogus_scan)
    f = parse_poly("x^2 + y^2 + z^2 + w^2", 4, GF(11))
    with pytest.raises(VerificationFailure):
        sing_locus.singular_points(f)


def test_singular_points_recheck_reads_the_gradient(monkeypatch):
    # (1:1:3:0) is a smooth point of the quadric: f vanishes there, its
    # gradient (2, 2, 6, 0) does not
    monkeypatch.setattr(sing_locus, "projective_zeros",
                        lambda *a, **k: np.array([[1, 1, 3, 0]], dtype=np.int64))
    f = parse_poly("x^2 + y^2 + z^2 + w^2", 4, GF(11))
    with pytest.raises(VerificationFailure, match=r"\(1:1:3:0\) is not a singular point"):
        sing_locus.singular_points(f)


@pytest.mark.parametrize("row", [[2, 0, 0, 0], [0, 3, 1, 0], [1, 11, 0, 0], [1, -1, 0, 0],
                                 [0, 0, 0, 0]])
def test_non_canonical_scan_row_refused(monkeypatch, row):
    # (0:0:0:1) is the cone's vertex, a true singular point, so only the row
    # after it can fail
    rows = np.array([[0, 0, 0, 1], row], dtype=np.int64)
    monkeypatch.setattr(sing_locus, "projective_zeros", lambda *a, **k: rows)
    F = GF(11)
    with pytest.raises(VerificationFailure, match="not a canonical point"):
        sing_locus.singular_points(parse_poly("x^2 + y*z", 4, F))
    _keep_every_row(monkeypatch)
    with pytest.raises(VerificationFailure, match="not a canonical point"):
        sing_locus.ci_singular_points(parse_poly("x^2 + y*z", 4, F), parse_poly("x*y", 4, F))


def test_ci_singular_points_recheck(monkeypatch):
    monkeypatch.setattr(sing_locus, "projective_zeros", _bogus_scan)
    _keep_every_row(monkeypatch)
    F = GF(11)
    with pytest.raises(VerificationFailure):
        sing_locus.ci_singular_points(parse_poly("x^2 + y*z", 4, F), parse_poly("x*w + y^2", 4, F))
    # a point on both forms where the Jacobian has rank 2 is rejected too
    monkeypatch.setattr(sing_locus, "projective_zeros",
                        lambda *a, **k: np.array([[0, 0, 1, 0]], dtype=np.int64))
    with pytest.raises(VerificationFailure):
        sing_locus.ci_singular_points(parse_poly("x", 4, F), parse_poly("y", 4, F))


_RECHECK_SCRIPT = """
import sys
import numpy as np
import factlab.sing_locus
from factlab import cli
factlab.sing_locus.projective_zeros = lambda *a, **k: np.array([[1, 0, 0, 0]], dtype=np.int64)
# the CI path filters by Jacobian rank first: keep the faked row for the re-check
factlab.sing_locus.eval_forms = lambda forms, rows, p: np.zeros((rows.shape[0], len(forms)), dtype=np.int64)
sys.exit(cli.main(["sing", sys.argv[1]]))
"""


@pytest.mark.parametrize("optimize", [[], ["-O"]])
# (1:0:0:0) lies on none of these but the third, x*y + y^2 + z^2 + w^2, where
# it is a smooth point: there only the gradient check can refuse it
@pytest.mark.parametrize("body", ["x^2 + y^2 + z^2 + w^2", "x^2 + y*z\nx*w + y^2",
                                  "x*y + y^2 + z^2 + w^2"])
def test_recheck_exit_5(tmp_path, optimize, body):
    poly = tmp_path / "f.poly"
    poly.write_text(f"F 4 Fp:11\n{body}\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, *optimize, "-c", _RECHECK_SCRIPT, str(poly)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 5, proc.stderr
    assert "scan soundness" in proc.stderr


def test_nonzero_constant_needs_one_term_on_the_chart():
    """A form is a nonzero constant on the chart x_pivot = 1 (earlier
    coordinates 0) only when one term c * x_pivot^e survives there: a
    second surviving term makes it no constant, whatever the term order."""
    F = GF(7)
    assert _nonzero_constant(make_poly(3, 2, {(0, 2, 0): 3, (1, 1, 0): 1}, F), 1, 7)
    assert not _nonzero_constant(make_poly(3, 2, {(0, 2, 0): 3, (0, 1, 1): 1}, F), 1, 7)
    assert not _nonzero_constant(make_poly(3, 2, {(2, 0, 0): 1, (0, 2, 0): 1}, F), 0, 7)
    assert not _nonzero_constant(make_poly(3, 2, {(0, 1, 1): 1}, F), 1, 7)
    assert not _nonzero_constant(make_poly(3, 2, {(1, 1, 0): 1}, F), 1, 7)


def test_zeros_at_reads_every_block_of_indices():
    """_zeros_at evaluates _STEP indices at a time: on all 101^2 indices of
    the chart x = 1 of P^2(F_101), more than two blocks, the zeros of y + 11x
    (the grid line y = 90, indices 90 * 101 + z) lie in the last block only,
    and _zeros_at finds them all, as _grid_zeros does on the whole grid."""
    p = 101
    f = make_poly(3, 1, {(0, 1, 0): 1, (1, 0, 0): 11}, GF(p))
    idx = np.arange(p * p)
    assert len(idx) > 2 * _STEP and 90 * p >= 2 * _STEP
    want = np.arange(90 * p, 91 * p)
    assert _zeros_at(f, 0, idx, p).tolist() == want.tolist()
    assert sorted(_grid_zeros(f, 0, p).tolist()) == want.tolist()
