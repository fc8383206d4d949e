"""Expected values for the benchmark's output checks.

Every expectation is either a closed form from the paper (node counts,
defects, criterion boundaries) or is re-derived here by code that shares
nothing with factlab: polynomials are plain ``{monomial: coeff}`` dicts and
evaluation, products, derivatives and ranks mod p are reimplemented below.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import ceil, floor
from typing import Dict, List, Sequence, Tuple

Terms = Dict[Tuple[int, ...], int]


class CheckFailed(Exception):
    """An output of the program disagrees with its expected value."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# --- closed forms from the paper --------------------------------------------


def double_solid_nodes(r: int) -> int:
    return (2 * r - 1) * r


def hypersurface_nodes(d: int) -> int:
    return (d - 1) ** 2


def ci_plane_nodes(m: int, k: int) -> int:
    return (m + k - 2) ** 2 - (m - 1) * (k - 1)


def hyperbolic_quadric_points(p: int) -> int:
    """F_p-points of a smooth quadric surface with square discriminant."""
    return (p + 1) ** 2


def main_theorem_applies(n: int, lam: int, size: int, xi: int) -> bool:
    """Exact decision of the three-bullet criterion: each bullet asks for a
    rational mu in an interval, so it holds iff that interval is nonempty."""
    if xi == floor(Fraction(3 * lam, 2) - 3) and size < lam * ceil(Fraction(lam, 2)):
        return True
    # bullet 2: xi = floor(3mu - 3) puts mu in [(xi+3)/3, (xi+4)/3), where
    # floor(3mu) - mu - 2 >= lambda reads mu <= xi + 1 - lambda
    low = max(Fraction(xi + 3, 3), Fraction(size, lam))
    if low < Fraction(xi + 4, 3) and low <= min(lam, xi + 1 - lam):
        return True
    # bullet 3: xi = floor(n mu) puts mu in [xi/n, (xi+1)/n)
    low = max(Fraction(xi, n), Fraction(size, lam), Fraction(lam, n - 1))
    return low < Fraction(xi + 1, n)


def application_bound(theorem: str, **kw) -> Tuple[Fraction, bool, int]:
    """(largest admissible node count, side condition, certified degree) of an
    application theorem or the 3r-4 proposition, from the paper's closed forms.
    Strict bounds "< c" on integers are stated as "<= c - 1"."""
    if theorem == "double_solid":
        r = kw["r"]
        return Fraction((2 * r - 1) * r - 1), True, 3 * r - 4
    if theorem == "hypersurface":
        d = kw["d"]
        return Fraction(2 * (d - 1) ** 2, 3), True, 2 * d - 5
    if theorem == "ci1":
        m, k = kw["m"], kw["k"]
        return Fraction((m + k - 2) * (2 * m + k - 6), 5), m >= 7, 2 * m + k - 6
    if theorem == "ci2":
        m, k = kw["m"], kw["k"]
        return Fraction((2 * m + k - 3) * (m + k - 2), 3), m >= k + 6, 2 * m + k - 6
    if theorem == "double_hypersurface":
        d, r = kw["d"], kw["r"]
        return Fraction((2 * r + d - 2) * r, 2), r >= d + 7, 3 * r + d - 5
    if theorem == "prop_3r4":
        r, eps = kw["r"], kw["eps"]
        return Fraction((2 * r - 1) * (r - eps) - 1), True, 3 * r - 4 - eps
    raise ValueError(f"unknown theorem {theorem!r}")


def bese_expected_lines(delta: int, xi: int, nu1: int) -> List[Tuple[str, str]]:
    """Hypothesis lines of the base-point criterion that need no conic count:
    the size bound, the vacuous k-bounds and the line bound k = 1."""
    half = (xi + 3) // 2
    cap = max(half * (xi + 3 - half) - 1, half * half)
    lines = [(f"delta = {delta} <= max-bound {cap}", "yes" if delta <= cap else "no")]
    for k in range(1, half + 1):
        bound = k * (xi + 3 - k) - 2
        if delta <= bound:
            lines.append((f"k={k}: delta {delta} <= {bound} (vacuous)", "yes"))
        elif k == 1:
            lines.append((f"k=1: nu_1 = {nu1} <= {bound}", "yes" if nu1 <= bound else "no"))
    return lines


# --- polynomial arithmetic mod p ----------------------------------------------


def evaluate(terms: Terms, pt: Sequence[int], p: int) -> int:
    total = 0
    for mono, c in terms.items():
        v = c
        for x, e in zip(pt, mono):
            if e:
                v = v * pow(x, e, p) % p
        total += v
    return total % p


def derivative(terms: Terms, var: int, p: int) -> Terms:
    out: Terms = {}
    for mono, c in terms.items():
        e = mono[var]
        if e and (c * e) % p:
            key = mono[:var] + (e - 1,) + mono[var + 1:]
            out[key] = (out.get(key, 0) + c * e) % p
    return {m: c for m, c in out.items() if c}


def product(a: Terms, b: Terms, p: int) -> Terms:
    out: Terms = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            key = tuple(x + y for x, y in zip(ma, mb))
            out[key] = (out.get(key, 0) + ca * cb) % p
    return {m: c for m, c in out.items() if c}


def difference(a: Terms, b: Terms, p: int) -> Terms:
    out = dict(a)
    for m, c in b.items():
        out[m] = (out.get(m, 0) - c) % p
    return {m: c for m, c in out.items() if c}


def monomials(nvars: int, degree: int) -> List[Tuple[int, ...]]:
    return [
        tuple(b - a - 1 for a, b in zip((-1,) + cuts, cuts + (degree + nvars - 1,)))
        for cuts in itertools.combinations(range(degree + nvars - 1), nvars - 1)
    ]


def monomial_row(pt: Sequence[int], basis, p: int) -> List[int]:
    return [evaluate({m: 1}, pt, p) for m in basis]


def _eliminate(rows: Sequence[Sequence[int]], ncols: int, p: int):
    """Reduced row echelon form mod p: (rows, pivot columns)."""
    work = [[x % p for x in row] for row in rows]
    pivots: List[int] = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = pow(work[r][col], p - 2, p)
        work[r] = [x * inv % p for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col]:
                c = work[i][col]
                work[i] = [(x - c * y) % p for x, y in zip(work[i], work[r])]
        pivots.append(col)
    return work, pivots


def rank(rows: Sequence[Sequence[int]], p: int) -> int:
    return len(_eliminate(rows, len(rows[0]) if rows else 0, p)[1])


def nullspace(rows: Sequence[Sequence[int]], ncols: int, p: int) -> List[List[int]]:
    """Basis of {v : rows . v = 0} mod p."""
    work, pivots = _eliminate(rows, ncols, p)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[free] = 1
        for i, col in enumerate(pivots):
            v[col] = -work[i][free] % p
        basis.append(v)
    return basis


# --- geometric facts re-derived -------------------------------------------------


def max_collinear(points: Sequence[Tuple[int, ...]], p: int) -> int:
    """Largest number of points of P^2 on one line, by hashing the line
    through each pair (its normalized cross product)."""
    best = min(len(points), 2)
    for i, a in enumerate(points):
        lines: Dict[Tuple[int, ...], int] = {}
        for b in points[i + 1:]:
            cross = (
                (a[1] * b[2] - a[2] * b[1]) % p,
                (a[2] * b[0] - a[0] * b[2]) % p,
                (a[0] * b[1] - a[1] * b[0]) % p,
            )
            lead = next(c for c in cross if c)
            inv = pow(lead, p - 2, p)
            key = tuple(c * inv % p for c in cross)
            lines[key] = lines.get(key, 1) + 1
            best = max(best, lines[key])
    return best


def expect_nodes(f: Terms, nvars: int, points, p: int) -> None:
    """Each point is a node of the hypersurface f = 0: f and its gradient
    vanish there and the projective Hessian has rank n = nvars - 1."""
    expect(len(set(points)) == len(points), "repeated node")
    grad = [derivative(f, v, p) for v in range(nvars)]
    hess = [[derivative(g, v, p) for v in range(nvars)] for g in grad]
    for pt in points:
        expect(evaluate(f, pt, p) == 0, f"f({pt}) != 0")
        expect(all(evaluate(g, pt, p) == 0 for g in grad), f"gradient nonzero at {pt}")
        h = [[evaluate(e, pt, p) for e in row] for row in hess]
        expect(rank(h, p) == nvars - 1, f"Hessian rank at {pt} is not {nvars - 1}")


def expect_ci_nodes(F: Terms, G: Terms, nvars: int, points, p: int) -> None:
    """Each point lies on F = G = 0 with Jacobian rank exactly 1."""
    expect(len(set(points)) == len(points), "repeated node")
    dF = [derivative(F, v, p) for v in range(nvars)]
    dG = [derivative(G, v, p) for v in range(nvars)]
    for pt in points:
        expect(evaluate(F, pt, p) == 0 and evaluate(G, pt, p) == 0, f"{pt} not on F = G = 0")
        jac = [[evaluate(g, pt, p) for g in dF], [evaluate(g, pt, p) for g in dG]]
        expect(rank(jac, p) == 1, f"Jacobian rank at {pt} is not 1")


def expect_separates(form: Terms, point, others, p: int) -> None:
    expect(evaluate(form, point, p) != 0, f"separator vanishes at its point {point}")
    for q in others:
        expect(evaluate(form, q, p) == 0, f"separator nonzero at {q}")
