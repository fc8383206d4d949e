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
    dot,
    duals,
    kernel,
    matmul,
    matmul_mod_p,
    matmul_zeros_mod_p,
    nullspace,
    rank,
    rank_and_dependents,
    rref,
    rref_mod_p,
    rref_subsets,
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


def test_duals():
    """[M | I] reduced once: the pivot columns Q of M, X with X @ M[:, Q] =
    I and the row relations Y in RREF; row 2 = row 0 + row 1 is the one
    relation, and without row 2 there is none."""
    F = GF(7)
    m = [[1, 1], [1, 2], [2, 3]]
    Q, X, Y = duals(m, F)
    assert Q.tolist() == [0, 1] and Y.tolist() == [[1, 1, 6]]
    assert matmul(X, [row[:2] for row in m], F).tolist() == [[1, 0], [0, 1]]
    Q, X, Y = duals(m[:2], F)
    assert Q.tolist() == [0, 1] and Y.shape == (0, 2)
    assert matmul(m[:2], X, F).tolist() == [[1, 0], [0, 1]]


def test_duals_rational():
    Q, X, Y = duals([[Fraction(1, 2), 1], [1, 2]], QQ)
    assert Q.tolist() == [0] and X.tolist() == [[0, 1]] and Y.tolist() == [[1, Fraction(-1, 2)]]
    assert {type(v) for v in itertools.chain(X.flat, Y.flat)} == {Fraction}


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


def _lists(answer):
    """An answer of linalg with each array as nested lists, to compare."""
    if isinstance(answer, tuple):
        return tuple(map(_lists, answer))
    return answer.tolist() if isinstance(answer, np.ndarray) else answer


def _dot(row, vec, p):
    """row . vec exactly, on Python numbers: an np.int64 entry would keep
    its width inside a Fraction."""
    s = sum(Fraction(a) * Fraction(b) for a, b in zip(row, np.asarray(vec, dtype=object)))
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
    """rref and nullspace against the oracle, and duals' X and Y solving
    X @ M[:, Q] = I and Y @ M = 0, with Q the oracle's pivots and Y the
    oracle's RREF of itself, one relation per row past the rank.  Over F_p
    the matrix is also given as an int64 array, which linalg reads as it
    is: the same answers as on its lists.  Answers are arrays, int64 over
    F_p and Fractions in dtype object over QQ; pivots are ints."""
    F = GF(p) if p else QQ
    rng = SplitMix64(40 + p % 97)
    for trial in range(40):
        m = _seeded_matrix(rng, p)
        ncols = len(m[0])
        R, pivots = rref(m, F)
        assert (R.tolist(), pivots) == _gauss_jordan(m, p)
        r = rank(m, F)
        assert r == len(pivots) < len(m)
        ns = nullspace(m, ncols, F)
        assert len(ns) == ncols - r
        assert all(_dot(row, v, p) == 0 for row in m for v in ns)
        Q, X, Y = duals(m, F)
        assert Q.tolist() == pivots and X.shape == (r, len(m)) and Y.shape == (len(m) - r, len(m))
        assert [[_dot([row[q] for row in m], x, p) for q in pivots] for x in X.tolist()] == [
            [int(i == j) for j in range(r)] for i in range(r)]
        assert all(_dot(col, y, p) == 0 for col in zip(*m) for y in Y.tolist())
        assert _gauss_jordan(Y.tolist(), p) == (Y.tolist(), [row.index(next(filter(None, row)))
                                                             for row in Y.tolist()])
        # the zero row and the last row, the sum of two others, lie in relations
        zero = next(i for i, row in enumerate(m) if not any(row))
        assert Y[:, zero].any() and Y[:, -1].any()
        assert {type(v) for v in pivots} <= {int}
        if p:
            a = np.array(m, dtype=np.int64)
            got = [rref(a, F), rank(a, F), nullspace(a, ncols, F), duals(a, F)]
            assert _lists(tuple(got)) == _lists(((R, pivots), r, ns, (Q, X, Y)))
            (Ra, pa), _, nsa, (_, Xa, Ya) = got
            assert {v.dtype for v in (R, ns, X, Y, Ra, nsa, Xa, Ya)} == {np.dtype(np.int64)}
            assert {type(v) for v in pa} <= {int}
        else:
            assert {v.dtype for v in (R, ns, X, Y)} == {np.dtype(object)}
            assert {type(v) for v in itertools.chain(R.flat, ns.flat, X.flat, Y.flat)} == {Fraction}


def test_unreduced_entries_give_the_answers_of_the_reduced_rows():
    F = GF(101)
    assert _lists(rref([[101, 1], [0, 0]], F)) == ([[0, 1], [0, 0]], [1])
    assert nullspace([[101, 1]], 2, F).tolist() == [[1, 0]]
    assert _lists(duals([[-101, 2]], F)) == ([1], [[51]], [])
    # entries past int64 are reduced before they reach numpy
    big = [[2**70 + 3, -1], [0, 2**64 * 101]]
    assert _lists(rref(big, F)) == _gauss_jordan(big, 101)
    assert rank([[2**70 + 3, 2**80]], F) == 1
    assert _lists(duals(big, F)) == _lists(duals([[x % 101 for x in row] for row in big], F))
    rng = SplitMix64(9)
    for trial in range(30):
        m = _random_matrix(rng, 1 + rng.below(4), 1 + rng.below(5), p=101)
        # entries shifted by -101, 0 or 101, so some are negative or ≡ 0 but not 0
        shifted = [[x + 101 * (rng.below(3) - 1) for x in row] for row in m]
        assert _lists(rref(shifted, F)) == _lists(rref(m, F))
        ns = nullspace(shifted, len(m[0]), F)
        assert ns.tolist() == nullspace(m, len(m[0]), F).tolist()
        assert all(_dot(row, v, 101) == 0 for row in shifted for v in ns)
        assert _lists(duals(shifted, F)) == _lists(duals(m, F))


def test_dot_and_combine_reduce_unreduced_and_negative_entries():
    """dot, and matmul's linear combination of rows, reduce their entries."""
    F = GF(5)
    # 7*(-1) + (-3)*4 + 12*10 = 101
    assert dot([7, -3, 12], [-1, 4, 10], F) == 1
    assert matmul([[3, -2]], [[7, -1, 0], [-4, 6, 5]], F).tolist() == [[4, 0, 0]]
    assert dot([], [], F) == 0 and matmul([[]], [], F).tolist() == [[]]


def test_dot_and_combine_past_two_to_the_63():
    p = 2**31 - 1
    F = GF(p)
    big = [p - 1] * 8  # each product is (p-1)^2 = 1 mod p; the sum exceeds 2^63
    assert sum(x * x for x in big) > 2**63
    assert dot(big, big, F) == 8
    assert matmul([big], [[p - 1, 2]] * 8, F).tolist() == [[8, (-16) % p]]


def test_dot_and_combine_over_rationals():
    u = [Fraction(1, 2), 3]
    assert dot(u, [Fraction(2, 3), Fraction(-1, 4)], QQ) == Fraction(-5, 12)
    assert isinstance(dot([], [], QQ), Fraction)
    assert matmul([u], [[2, Fraction(1, 3)], [0, -1]], QQ).tolist() == [[1, Fraction(-17, 6)]]


@pytest.mark.parametrize("p", [5, 2**31 - 1, 0])
def test_kernel_of_a_stack_of_rrefs(p):
    """kernel on a stack of RREFs of one rank: per matrix one vector per
    free column, 1 there and 0 at the other free columns, in the kernel of
    the matrix; int64 over F_p, Fractions in dtype object over QQ."""
    F = GF(p) if p else QQ
    rng = SplitMix64(60 + p % 89)
    for m, n, r in [(3, 5, 2), (4, 6, 4), (2, 3, 0), (1, 4, 1), (5, 6, 3)]:
        mats = []
        while len(mats) < 6:
            B, C = _random_matrix(rng, m, r, p), _random_matrix(rng, r, n, p)
            mat = [[sum(B[i][t] * C[t][j] for t in range(r)) for j in range(n)] for i in range(m)]
            if rank(mat, F) == r:
                mats.append(mat)
        R, piv = rref_subsets([row for mat in mats for row in mat],
                              [range(k * m, (k + 1) * m) for k in range(len(mats))], F)
        K = kernel(R, piv, r, F)
        assert K.shape == (len(mats), n - r, n) and K.dtype == (np.int64 if p else object)
        for mat, vecs, ps in zip(mats, K, piv.tolist()):
            free = [j for j in range(n) if j not in ps[:r]]
            assert [[v[j] for j in free] for v in vecs.tolist()] == np.eye(n - r, dtype=int).tolist()
            assert all(_dot(row, v, p) == 0 for row in mat for v in vecs)
        if not p:
            assert {type(v) for v in K.flat} <= {Fraction}


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
        R, piv = rref_subsets(rows, subsets, F)
        assert R.shape == (len(subsets), size, 4) and piv.shape == (len(subsets), size)
        for s, Rs, ps in zip(subsets, R, piv):
            rows_s, pivots = _gauss_jordan([rows[i] for i in s], p)
            assert (Rs.tolist(), ps.tolist()) == (rows_s, pivots + [4] * (size - len(pivots)))
            assert _lists(rref([rows[i] for i in s], F)) == (rows_s, pivots)
    R, piv = rref_subsets(rows, [], F)
    assert R.shape == (0, 0, 4) and piv.shape == (0, 0)


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

# primes on every side of the float bounds: K (p - 1)^2 < 2^23 for every K
# used here at 3 and 101, < 2^53 at 10007, for K <= 2 at 2^26 - 5, and for
# no K at 2^31 - 1
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
    """Both entry points, int64 and float64 inputs, on every side of the
    exact float bounds: the path K (p - 1)^2 chooses, and the int64 sum of
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
    else:  # K (p - 1)^2 < 2^23 for every K used here at p = 3 and 101
        assert set(product_paths) == {"float32" if p <= 101 else "float64"}


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


@pytest.mark.parametrize("p", [3, 101])  # limits K = 2^21 - 1 and 838
def test_matmul_mod_p_at_the_float32_limit(product_paths, p):
    """Every entry p - 1 makes the largest sum, K (p - 1)^2: the largest K
    below 2^23 takes float32 blocks, one more term float64.  The second row
    of a brings its sum to a multiple of p with one smaller entry, so the
    zero mask meets a zero at the bound too.  Both rows against their
    Python-int sums."""
    limit = (linalg._EXACT32 - 1) // (p - 1) ** 2
    assert limit * (p - 1) ** 2 < 2**23 <= (limit + 1) * (p - 1) ** 2
    for k, path in ((limit, "float32"), (limit + 1, "float64")):
        a, b = np.full((2, k), p - 1, dtype=np.int64), np.full((k, 1), p - 1, dtype=np.int64)
        a[1, 0] = (k - 1) % p  # (k - 1) (p - 1)^2 + a[1, 0] (p - 1) = 0 mod p
        sums = [k * (p - 1) ** 2, (k - 1) * (p - 1) ** 2 + int(a[1, 0]) * (p - 1)]
        product_paths.clear()
        got = matmul_mod_p(a, b, p)
        assert got.tolist() == [[sums[0] % p], [0]] and sums[1] % p == 0
        assert matmul_zeros_mod_p(a, b, p).tolist() == [[sums[0] % p == 0], [True]]
        assert dict(product_paths) == {path: 2}


def test_matmul_mod_p_writes_into_the_callers_rows():
    """Given out, matmul_mod_p writes a @ b mod p into it, every block of
    rows in place, on each path, and returns it."""
    for p in (101, 10007, 2**31 - 1):  # float32, float64, int64
        rng = np.random.default_rng(p)
        a, b = rng.integers(0, p, (linalg._PRODUCT // 8 + 5, 4)), rng.integers(0, p, (4, 2))
        want = (a.astype(object) @ b.astype(object)) % p  # Python integers
        rows = np.full((len(a) + 2, 2), -1, dtype=np.int64)
        view = rows[1:-1]
        assert matmul_mod_p(a, b, p, out=view) is view
        assert view.tolist() == want.tolist() and (rows[[0, -1]] == -1).all()


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
