import itertools
from fractions import Fraction

import numpy as np
import pytest

import factlab.linalg as linalg
from factlab.fields import GF, QQ
from factlab.linalg import (
    _EXACT,
    RowSpace,
    bareiss_rank,
    combine,
    dot,
    matmul_mod_p,
    matmul_zeros_mod_p,
    nullspace,
    rank,
    rank_and_dependents,
    rref,
    rref_mod_p,
    rref_subsets,
    solve,
)
from factlab.rng import SplitMix64


def _random_matrix(rng, nrows, ncols, p=None):
    if p:
        return [[rng.below(p) for _ in range(ncols)] for _ in range(nrows)]
    return [
        [Fraction(rng.below(19) - 9, 1 + rng.below(4)) for _ in range(ncols)]
        for _ in range(nrows)
    ]


def test_rank_matches_bareiss_oracle_rational():
    rng = SplitMix64(1)
    for trial in range(30):
        m = _random_matrix(rng, 4, 5)
        assert rank(m, QQ) == bareiss_rank(m)


def test_rank_matches_bareiss_mod_p_structured():
    # integer matrices whose rank over QQ equals rank mod 101 (entries small)
    rng = SplitMix64(2)
    F = GF(101)
    for trial in range(30):
        base = _random_matrix(rng, 3, 4, p=5)
        m = [row[:] for row in base]
        m.append([sum(c) for c in zip(*base)])  # forced dependent row
        r, deps = rank_and_dependents(m, 4, F)
        assert r == bareiss_rank(m)
        assert 3 in deps or r < 3


def test_dependents_in_feed_order():
    F = GF(7)
    rows = [[1, 0], [0, 1], [1, 1], [2, 3]]
    r, deps = rank_and_dependents(rows, 2, F)
    assert r == 2 and deps == [2, 3]


def test_rowspace_contains():
    space = RowSpace(3, QQ)
    space.add([1, 2, 3])
    space.add([0, 1, 1])
    assert space.contains([1, 3, 4])
    assert not space.contains([0, 0, 1])
    assert space.rank == 2


def test_rowspace_refuses_a_prime_field():
    # over F_p every elimination runs on rref_mod_p; a RowSpace there would
    # silently compute over QQ
    with pytest.raises(ValueError):
        RowSpace(3, GF(11))


def test_rowspace_rational_fraction_free():
    space = RowSpace(3, QQ)
    space.add([Fraction(1, 2), Fraction(1, 3), 0])
    space.add([1, 0, 1])
    assert space.contains([Fraction(3, 2), Fraction(1, 3), 1])
    assert not space.contains([0, 0, 1])


def test_rref_and_nullspace():
    F = GF(7)
    m = [[1, 2, 3], [2, 4, 6]]
    R, pivots = rref(m, F)
    assert pivots == [0]
    ns = nullspace(m, 3, F)
    assert len(ns) == 2
    for v in ns:
        assert sum(a * b for a, b in zip(m[0], v)) % 7 == 0


def test_nullspace_empty_matrix():
    ns = nullspace([], 3, GF(7))
    assert len(ns) == 3


def test_solve():
    F = GF(7)
    m = [[1, 1], [1, 2]]
    x = solve(m, [3, 5], F)
    assert x is not None
    assert [(m[i][0] * x[0] + m[i][1] * x[1]) % 7 for i in range(2)] == [3, 5]
    assert solve([[1, 1], [1, 1]], [0, 1], F) is None


def test_solve_rational():
    x = solve([[Fraction(1, 2), 1]], [Fraction(5, 2)], QQ)
    assert Fraction(1, 2) * x[0] + x[1] == Fraction(5, 2)


def _gauss_jordan(matrix, p):
    """Textbook reduced row echelon form, written apart from factlab.linalg;
    p = 0 means QQ."""
    norm = (lambda x: int(x) % p) if p else Fraction
    rows = [[norm(x) for x in row] for row in matrix]
    ncols = len(rows[0])
    pivots, r = [], 0
    for col in range(ncols):
        sel = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = pow(rows[r][col], -1, p) if p else 1 / rows[r][col]
        rows[r] = [norm(x * inv) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                c = rows[i][col]
                rows[i] = [norm(x - c * y) for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return rows, pivots


def _dot(row, vec, p):
    s = sum(Fraction(a) * Fraction(b) for a, b in zip(row, vec))
    return s % p if p else s


def _seeded_matrix(rng, p):
    """Random rows, an all-zero row in a seeded place, and last the sum of
    two earlier rows (unreduced mod p)."""
    nrows, ncols = 2 + rng.below(5), 1 + rng.below(7)
    m = _random_matrix(rng, nrows, ncols, p)
    m.insert(rng.below(nrows + 1), [0] * ncols)
    i, j = rng.below(nrows + 1), rng.below(nrows + 1)
    m.append([a + b for a, b in zip(m[i], m[j])])
    return m


@pytest.mark.parametrize("p", [5, 101, 2**31 - 1, 0])
def test_rref_nullspace_solve_match_gauss_jordan_oracle(p):
    """Over F_p the matrix is also given as an int64 array, which linalg
    reads as it is: the same answers as on its lists, in Python ints."""
    F = GF(p) if p else QQ
    rng = SplitMix64(40 + p % 97)
    for trial in range(40):
        m = _seeded_matrix(rng, p)
        ncols = len(m[0])
        R, pivots = rref(m, F)
        assert (R, pivots) == _gauss_jordan(m, p)
        r = rank(m, F)
        assert r == len(pivots) < len(m)
        ns = nullspace(m, ncols, F)
        assert len(ns) == ncols - r
        assert all(_dot(row, v, p) == 0 for row in m for v in ns)
        x_true = _random_matrix(rng, 1, ncols, p)[0]
        rhs = [_dot(row, x_true, p) for row in m]
        x = solve(m, rhs, F)
        assert [_dot(row, x, p) for row in m] == rhs
        # the last row is the sum of two others: break its equation
        bad = rhs[:-1] + [rhs[-1] + 1]
        assert solve(m, bad, F) is None
        if p:
            a = np.array(m, dtype=np.int64)
            got = [rref(a, F), rank(a, F), nullspace(a, ncols, F), solve(a, rhs, F), solve(a, bad, F)]
            assert got == [(R, pivots), r, ns, x, None]
            (Ra, pa), _, nsa, xa, _ = got
            assert {type(v) for v in itertools.chain(pa, xa, *Ra, *nsa)} == {int}


def test_unreduced_entries_give_the_answers_of_the_reduced_rows():
    F = GF(101)
    assert rref([[101, 1], [0, 0]], F) == ([[0, 1], [0, 0]], [1])
    assert nullspace([[101, 1]], 2, F) == [[1, 0]]
    assert solve([[-101, 2]], [1], F) == [0, 51]
    # entries past int64 are reduced before they reach numpy
    big = [[2**70 + 3, -1], [0, 2**64 * 101]]
    assert rref(big, F) == _gauss_jordan(big, 101)
    assert rank([[2**70 + 3, 2**80]], F) == 1
    rng = SplitMix64(9)
    for trial in range(30):
        m = _random_matrix(rng, 1 + rng.below(4), 1 + rng.below(5), p=101)
        rhs = [rng.below(101) for _ in m]
        # entries shifted by -101, 0 or 101, so some are negative or ≡ 0 but not 0
        shifted = [[x + 101 * (rng.below(3) - 1) for x in row] for row in m]
        shifted_rhs = [b - 101 * rng.below(2) for b in rhs]
        assert rref(shifted, F) == rref(m, F)
        ns = nullspace(shifted, len(m[0]), F)
        assert ns == nullspace(m, len(m[0]), F)
        assert all(_dot(row, v, 101) == 0 for row in shifted for v in ns)
        assert solve(shifted, shifted_rhs, F) == solve(m, rhs, F)


def test_dot_and_combine_reduce_unreduced_and_negative_entries():
    F = GF(5)
    # 7*(-1) + (-3)*4 + 12*10 = 101
    assert dot([7, -3, 12], [-1, 4, 10], F) == 1
    assert combine([3, -2], [[7, -1, 0], [-4, 6, 5]], F) == [4, 0, 0]
    assert dot([], [], F) == 0 and combine([], [], F) == []


def test_dot_and_combine_past_two_to_the_63():
    p = 2**31 - 1
    F = GF(p)
    big = [p - 1] * 8  # each product is (p-1)^2 = 1 mod p; the sum exceeds 2^63
    assert sum(x * x for x in big) > 2**63
    assert dot(big, big, F) == 8
    assert combine(big, [[p - 1, 2]] * 8, F) == [8, (-16) % p]


def test_dot_and_combine_over_rationals():
    u = [Fraction(1, 2), 3]
    assert dot(u, [Fraction(2, 3), Fraction(-1, 4)], QQ) == Fraction(-5, 12)
    assert isinstance(dot([], [], QQ), Fraction)
    assert combine(u, [[2, Fraction(1, 3)], [0, -1]], QQ) == [1, Fraction(-17, 6)]


def _stack_cases(rng, p):
    """Matrices of several shapes over F_p, each shape its own list: zero
    matrices, all-zero and repeated rows, zero columns, low-rank products
    B C, and 1 x n and m x 1 matrices."""
    cases = {}
    for m, n in [(1, 1), (1, 5), (5, 1), (3, 3), (4, 6), (6, 4), (5, 5)]:
        mats = [[[0] * n for _ in range(m)], _random_matrix(rng, m, n, p)]
        for trial in range(12):
            r = trial % (min(m, n) + 1)
            B = _random_matrix(rng, m, r, p)
            C = _random_matrix(rng, r, n, p)
            mat = [[sum(B[i][t] * C[t][j] for t in range(r)) % p for j in range(n)] for i in range(m)]
            if trial % 3 == 0:
                mat[rng.below(m)] = [0] * n
            if trial % 4 == 0:
                col = rng.below(n)
                for row in mat:
                    row[col] = 0
            if trial % 5 == 0 and m > 1:
                mat[-1] = mat[0][:]
            mats.append(mat)
        cases[m, n] = mats
    return cases


@pytest.mark.parametrize("p", [5, 101, 2**31 - 1])
def test_rref_mod_p_matches_gauss_jordan_oracle(p):
    rng = SplitMix64(70 + p % 89)
    for (m, n), mats in _stack_cases(rng, p).items():
        R, piv = rref_mod_p(np.array(mats, dtype=np.int64), p)
        assert R.shape == (len(mats), m, n) and piv.shape == (len(mats), m)
        for mat, Rk, pk in zip(mats, R.tolist(), piv.tolist()):
            rows, pivots = _gauss_jordan(mat, p)
            assert Rk == rows
            assert pk == pivots + [n] * (m - len(pivots))


def test_rref_mod_p_empty_shapes():
    for shape in [(0, 3, 4), (2, 0, 4), (2, 3, 0)]:
        R, piv = rref_mod_p(np.zeros(shape, dtype=np.int64), 7)
        assert R.shape == shape and piv.shape == shape[:2]
        assert (piv == shape[2]).all()


def test_rref_mod_p_reduces_its_input_and_leaves_it_alone():
    stack = np.array([[[7, -1], [14, 5]]], dtype=np.int64)
    R, piv = rref_mod_p(stack, 7)
    assert R.tolist() == [[[0, 1], [0, 0]]] and piv.tolist() == [[1, 2]]
    assert stack.tolist() == [[[7, -1], [14, 5]]]


@pytest.mark.parametrize("p", [5, 101, 0])
def test_rref_subsets_match_rref_of_each_subset(p):
    F = GF(p) if p else QQ
    rng = SplitMix64(3 + p)
    rows = _random_matrix(rng, 7, 4, p)
    rows[3] = rows[1][:]
    rows[5] = [0] * 4
    for size in (1, 2, 3, 5):
        subsets = list(itertools.combinations(range(7), size))
        got = list(rref_subsets(rows, subsets, F))
        assert got == [rref([rows[i] for i in s], F) for s in subsets]
    assert list(rref_subsets(rows, [], F)) == []


@pytest.mark.parametrize("p", [3, 101, 65521, 2**31 - 1])
def test_rref_mod_p_ranks_match_rank(p):
    """Low-rank k x k matrices, k <= 5, built as products B C with B k x r and
    C r x k, some with a zero row or column, and the identity, in one stack
    per k."""
    rng = SplitMix64(p)
    F = GF(p)
    for k in range(1, 6):
        mats = [[[int(i == j) for j in range(k)] for i in range(k)]]
        for trial in range(40):
            r = trial % (k + 1)
            B = [[rng.below(p) for _ in range(r)] for _ in range(k)]
            C = [[rng.below(p) for _ in range(k)] for _ in range(r)]
            m = [[sum(B[i][t] * C[t][j] for t in range(r)) % p for j in range(k)] for i in range(k)]
            if trial % 7 == 0:
                m[rng.below(k)] = [0] * k
            if trial % 5 == 0:
                col = rng.below(k)
                for row in m:
                    row[col] = 0
            mats.append(m)
        want = [len(_gauss_jordan(m, p)[1]) for m in mats]
        _, piv = rref_mod_p(np.array(mats, dtype=np.int64), p)
        assert (piv < k).sum(axis=1).tolist() == want
        assert [rank(m, F) for m in mats] == want


# --- products mod p ------------------------------------------------------------

# primes on both sides of the float64 bound: K (p - 1)^2 < 2^53 for every K
# used here below 2^26 - 5, for K <= 2 at 2^26 - 5, for no K at 2^31 - 1
_PRODUCT_PRIMES = [3, 101, 10007, 2**26 - 5, 2**31 - 1]


def _python_product(a, b, p):
    (m, k), n = a.shape, b.shape[1]
    return [[sum(int(a[i, t]) * int(b[t, j]) for t in range(k)) % p for j in range(n)]
            for i in range(m)]


def _check_product(a, b, p):
    """Both entry points on a and b, as int64 and as float64, against Python
    integers; returns the residues."""
    want = _python_product(a, b, p)
    for dtype in (np.int64, np.float64):
        got = matmul_mod_p(a.astype(dtype), b.astype(dtype), p)
        assert got.dtype == np.int64 and got.shape == (a.shape[0], b.shape[1])
        assert got.tolist() == want
        mask = matmul_zeros_mod_p(a.astype(dtype), b.astype(dtype), p)
        assert mask.dtype == bool and np.array_equal(mask, got == 0)
    return got


def _product_cases(rng, p):
    """Seeded (a, b) pairs with entries in [0, p): several shapes, rows and
    columns of p - 1 and of 0, and a row-column pair whose sum is a nonzero
    multiple of p."""
    for m, k, n in [(1, 1, 1), (1, 3, 4), (5, 2, 1), (7, 3, 6), (40, 5, 9)]:
        a = np.array([[rng.below(p) for _ in range(k)] for _ in range(m)], dtype=np.int64)
        b = np.array([[rng.below(p) for _ in range(n)] for _ in range(k)], dtype=np.int64)
        a[-1], b[:, -1] = p - 1, p - 1
        if m > 1 and k > 1 and n > 1:
            u, v = 1 + rng.below(p - 1), 1 + rng.below(p - 1)
            a[0], b[:, 0] = 0, 0
            a[0, :2], b[:2, 0] = (u, v), (v, p - u)  # u v + v (p - u) = v p
            a[1] = 0
        yield a, b


@pytest.mark.parametrize("p", _PRODUCT_PRIMES)
@pytest.mark.parametrize("path", ["chosen", "int64"])
def test_matmul_mod_p_matches_python_integers(monkeypatch, product_paths, p, path):
    """Both entry points, int64 and float64 inputs, on both sides of the
    exact float64 bound: the path K (p - 1)^2 chooses, and the int64 sum of
    terms at every p when the bound is lowered (a test hook)."""
    if path == "int64":
        monkeypatch.setattr(linalg, "_EXACT", 1)
    rng = SplitMix64(p)
    zeros = 0
    for a, b in _product_cases(rng, p):
        zeros += (_check_product(a, b, p) == 0).sum()
    assert zeros > 0
    if path == "int64" or p == 2**31 - 1:
        assert set(product_paths) == {"int64"}
    elif p == 2**26 - 5:
        assert set(product_paths) == {"float64", "int64"}
    else:
        assert set(product_paths) == {"float64"}


@pytest.mark.parametrize("p", [2**21 - 9, 2**26 - 5])  # both prime: limits K = 2048 and 2
def test_matmul_mod_p_at_the_float64_limit(product_paths, p):
    """Every entry p - 1 makes the largest sum, K (p - 1)^2: the largest K
    below 2^53 takes the float64 product, one more term the int64 sum."""
    limit = (_EXACT - 1) // (p - 1) ** 2
    assert limit * (p - 1) ** 2 < _EXACT <= (limit + 1) * (p - 1) ** 2
    for k, path in ((limit, "float64"), (limit + 1, "int64")):
        a, b = np.full((3, k), p - 1, dtype=np.int64), np.full((k, 2), p - 1, dtype=np.int64)
        product_paths.clear()
        assert _check_product(a, b, p).tolist() == [[k * (p - 1) ** 2 % p] * 2] * 3
        assert set(product_paths) == {path}


@pytest.mark.parametrize("p", [101, 2**31 - 1])
def test_matmul_mod_p_empty_and_one_row(p):
    for m, k, n in [(0, 3, 2), (3, 0, 2), (3, 2, 0), (0, 0, 0), (1, 4, 3), (1, 1, 1)]:
        rng = SplitMix64(m * 100 + k * 10 + n)
        a = np.array([[rng.below(p) for _ in range(k)] for _ in range(m)], dtype=np.int64)
        b = np.array([[rng.below(p) for _ in range(n)] for _ in range(k)], dtype=np.int64)
        got = _check_product(a.reshape(m, k), b.reshape(k, n), p)
        if not k:
            assert not got.any()


def test_matmul_mod_p_blocks_of_rows():
    """More rows than one block of _PRODUCT multiply-adds holds: the blocks
    join in order."""
    p = 10007
    rng = np.random.default_rng(p)
    a, b = rng.integers(0, p, (linalg._PRODUCT // 8 + 5, 4)), rng.integers(0, p, (4, 2))
    want = (a @ b) % p  # sums below 4 p^2: exact in int64
    assert np.array_equal(matmul_mod_p(a, b, p), want)
    assert np.array_equal(matmul_zeros_mod_p(a, b, p), want == 0)
